"""Seeded job generators for the ``lift``, ``qline`` and ``glue`` workloads.

A workload is a sequence of blocks.  Each block has a fixed composition of
job kinds and sizes; the seed draws everything else: the order of the jobs
in the block, check parameters, how the glue pool is split into prime sets,
generated series and injected faults.  The fixed composition keeps the
cost of a block the same from seed to seed, so runs with different seeds
measure the same amount of work.

The timed jobs pass every prime list in ascending order, because the CLI
mishandles any other order (the prime-order defect, see ``oracles.py``) and
a timed job must not fail.  The defect is not hidden: ``probes`` builds, from
the seed, the same commands with the primes typed in another order, and
every run executes and reports them before timing.

Every job carries ``facts``: what the generator knows about the intended
answer.  The oracles in ``oracles.py`` read them; the program never does.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from oracles import q_expansion

WORKLOADS = {
    "lift": "multi-prime Frobenius lifts at depth: phi_pk and the jet/ghost exchange do almost all the work",
    "qline": "single-prime q-side and t-side jets: terms_mul and the q-series kernels do the work",
    "glue": "many short one-shot basis exchanges and checkers: per-job CLI cost and generator-cache misses show",
}

# -- sizes -------------------------------------------------------------------

# lift: fe0 plus fe-k at every k, for each (sorted P, N)
LIFT_FE = [((5, 7), 30), ((7, 11), 40), ((5, 7, 11), 30)]
# lift: check-basis (sorted P, N, order vectors); every placement of the 2 is present
LIFT_BASIS = [
    ((5, 7), 30, [(2, 1), (1, 2)]),
    ((5, 11), 30, [(2, 1), (1, 2)]),
    ((7, 11), 30, [(2, 1), (1, 2)]),
    ((11, 13), 40, [(2, 1), (1, 2)]),
    ((5, 7, 11), 30, [(2, 1, 1), (1, 2, 1), (1, 1, 2)]),
]
# lift: fourier_to_deformation at (p, N) with M = window = N
LIFT_F2D = [(5, 20), (7, 20)]

QLINE_FORMS = ("E4", "E6", "delta")
QLINE_TRUNC, QLINE_M = 12, 6
QLINE_PRIMES = (5, 7)
QLINE_FSHARP = (5, 7, 11, 13)

GLUE_POOL = (5, 7, 11, 13, 17, 19, 23)
GLUE_F2E_N = 40
GLUE_COV_N = 20
GLUE_CONT_N, GLUE_CONT_M, GLUE_CONT_HEIGHT = 60, 8, 10_000
# blocks prepared before timing: several times what a run at the seed commit uses
BLOCKS = {"lift": 12, "qline": 40, "glue": 160}

SIZES = {
    "lift": {
        "fe0_fe_k": [[list(P), N] for P, N in LIFT_FE],
        "check_basis": [[list(P), N, [list(r) for r in rs]] for P, N, rs in LIFT_BASIS],
        "fourier_to_deformation": [[p, N] for p, N in LIFT_F2D],
    },
    "qline": {
        "delta_expand": {"forms": list(QLINE_FORMS), "n": [1, 2], "p": list(QLINE_PRIMES),
                         "trunc": QLINE_TRUNC, "M": QLINE_M,
                         "again_from_file": "E4 n=2 p=7"},
        "check_lemma": {"xlaphi": "p=5 n=2 symbolic; p=5,7 n=1 seeded varphi",
                        "logder": "p=5,7 n=1,2 seeded a"},
        "psi": "p=5,7 fourier M=8 window=30, serretate N=30",
        "fsharp": {"p": list(QLINE_FSHARP), "window": 30, "M": 6},
        "eisenstein": "2 per block, k seeded in 4..10, trunc 20",
        "ap": "2 per block, p seeded below 60",
    },
    "glue": {
        "pool": list(GLUE_POOL),
        "per_block": "the pool split into a pair and a triple for f2e0 and a pair for f2e-k (N=40); "
                     "3 check-covariance (fe0, f2e0 at nu=0, psi inputs) and 1 p-adic covariance; "
                     "1 exact check-continuation over 3 primes and 1 p-adic over 2; 2 check-commutator",
        "covariance_N": GLUE_COV_N,
        "continuation": {"N": GLUE_CONT_N, "M": GLUE_CONT_M, "height": GLUE_CONT_HEIGHT},
    },
}


def dumps(payload) -> str:
    """The CLI's canonical payload encoding."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


@dataclass
class Job:
    kind: str
    argv: tuple = ()  # CLI invocation
    call: str = ""  # library entry point, where no subcommand exists
    args: dict = field(default_factory=dict)  # arguments of ``call``
    facts: dict = field(default_factory=dict)  # the intended answer, for the oracle
    files: dict = field(default_factory=dict)  # input path -> JSON text, written before timing
    anchor: str = ""  # verbatim invocation from the repo: "golden:<file>" or "jobs"

    @property
    def key(self) -> str:
        """Identifies the computation: argv and arguments with input files by content."""

        def norm(x):
            x = str(x)
            if x in self.files:
                return "sha256:" + hashlib.sha256(self.files[x].encode()).hexdigest()
            return x

        ident = [self.kind, [norm(a) for a in self.argv], self.call,
                 {k: norm(v) for k, v in sorted(self.args.items())}]
        return hashlib.sha256(json.dumps(ident).encode()).hexdigest()[:24]

    def label(self) -> str:
        if self.argv:
            return " ".join(os.path.basename(a) if a in self.files else a for a in self.argv)
        shown = {k: (os.path.basename(v) if v in self.files else v) for k, v in self.args.items()}
        return f"{self.call}({', '.join(f'{k}={v}' for k, v in shown.items())})"


def _csv(xs) -> str:
    return ",".join(str(x) for x in xs)


def _typed(rng: random.Random, P) -> list[int]:
    """A prime list in an order other than ascending, as a user might type it."""
    typed = sorted(P)
    while typed == sorted(P):
        typed = rng.sample(list(P), len(P))
    return typed


# -- anchors: the repo's own verbatim invocations ----------------------------


def anchors(workload: str, inputs: str) -> list[Job]:
    """``scripts/build_expansions.py`` JOBS and ``tests/golden`` invocations, verbatim."""
    def cli(kind, argv, anchor, **facts):
        return Job(kind, tuple(argv), facts=facts, anchor=anchor)

    if workload == "lift":
        return [
            cli("fe0", ["fe0", "--P", "5,7", "--N", "50"], "jobs", P=[5, 7], typed=[5, 7], N=50),
            cli("fe-k", ["fe-k", "--P", "5,7", "--k", "1", "--N", "50"], "jobs",
                P=[5, 7], typed=[5, 7], N=50, prime=5),
            cli("check-basis", ["check-basis", "--P", "5,7", "--r", "2,2", "--N", "50"],
                "golden:basis_P5_7_r22_N50.json", P=[5, 7], typed=[5, 7], r=[2, 2], N=50),
            cli("fe0", ["fe0", "--P", "5,7", "--N", "30"], "golden:fe0_P5_7_N30.json",
                P=[5, 7], typed=[5, 7], N=30),
        ]
    if workload == "qline":
        return [
            cli("psi", ["psi", "--p", "5", "--side", "fourier", "--M", "8", "--window", "30"], "jobs",
                p=5, side="fourier", M=8, window=30),
            cli("psi", ["psi", "--p", "5", "--side", "serretate", "--N", "30"], "jobs",
                p=5, side="serretate", N=30),
            cli("fsharp", ["fsharp", "--p", "13", "--window", "30", "--M", "6"], "jobs",
                p=13, window=30, M=6),
            cli("eisenstein", ["eisenstein", "--k", "4", "--trunc", "20"], "jobs", k=4, trunc=20),
            cli("check-lemma", ["check-lemma", "--name", "xlaphi", "--p", "5", "--n", "2",
                                "--varphi", "symbolic"], "jobs", name="xlaphi", p=5, n=2),
            cli("psi", ["psi", "--p", "7", "--side", "fourier", "--M", "8", "--window", "12"],
                "golden:psi_fourier_p7_w12.json", p=7, side="fourier", M=8, window=12),
            cli("psi", ["psi", "--p", "5", "--side", "serretate", "--N", "20"],
                "golden:psi_serretate_p5_N20.json",
                p=5, side="serretate", N=20),
        ]
    if workload == "glue":
        from pjet import multiprime

        fe0_path = os.path.join(inputs, "anchor-fe0_P5_7_N50.json")
        files = {fe0_path: dumps(multiprime.build_fe0([5, 7], 50).to_json())}
        return [
            cli("f2e0", ["f2e0", "--P", "5,13", "--N", "40"], "jobs", P=[5, 13], typed=[5, 13], N=40),
            cli("check-commutator", ["check-commutator", "--p1", "2", "--p2", "3", "--value", "6"],
                "golden:commutator_6_2_3.json", p1=2, p2=3, value=6),
            Job("check-covariance", ("check-covariance", "--input", fe0_path, "--gamma", "2", "--nu", "1"),
                facts={"source": "fe0", "P": [5, 7], "nu": 1, "expect": "pass"}, files=files,
                anchor="jobs"),
        ]
    raise ValueError(workload)


# -- lift ----------------------------------------------------------------------


def lift_block(rng: random.Random) -> list[Job]:
    jobs = []
    for P, N in LIFT_FE:
        jobs.append(Job("fe0", ("fe0", "--P", _csv(P), "--N", str(N)),
                        facts={"P": list(P), "typed": list(P), "N": N}))
        for k, prime in enumerate(P, 1):
            jobs.append(Job("fe-k", ("fe-k", "--P", _csv(P), "--k", str(k), "--N", str(N)),
                            facts={"P": list(P), "typed": list(P), "N": N, "prime": prime}))
    for P, N, rs in LIFT_BASIS:
        for r in rs:
            jobs.append(Job("check-basis", ("check-basis", "--P", _csv(P), "--r", _csv(r), "--N", str(N)),
                            facts={"P": list(P), "typed": list(P), "r": list(r), "N": N}))
    for p, N in LIFT_F2D:
        jobs.append(Job("fourier_to_deformation", call="fourier_to_deformation",
                        args={"p": p, "M": N, "window": N, "N": N}, facts={"p": p, "N": N}))
    # the first job for each prime set meets the emptied generator cache: the order decides which
    rng.shuffle(jobs)
    return jobs


# -- qline -----------------------------------------------------------------------


def qline_block(rng: random.Random, inputs: str) -> list[Job]:
    jobs = []
    for form in QLINE_FORMS:
        for n in (1, 2):
            for p in QLINE_PRIMES:
                argv = ("delta-expand", "--form", form, "--trunc", str(QLINE_TRUNC), "--n", str(n),
                        "--p", str(p), "--M", str(QLINE_M))
                jobs.append(Job("delta-expand", argv,
                                facts={"form": form, "trunc": QLINE_TRUNC, "n": n, "p": p, "M": QLINE_M}))
    # The costliest job again, with the form read from a file: the heaviest kind then
    # has two samples per block, so the tail percentile lands inside it however many
    # blocks a run fits.
    form, n, p = QLINE_FORMS[0], 2, QLINE_PRIMES[-1]
    path = os.path.join(inputs, f"{form}_trunc{QLINE_TRUNC}.json")
    coeffs = [[e, str(c)] for e, c in enumerate(q_expansion(form, QLINE_TRUNC)) if c]
    text = dumps({"N": QLINE_TRUNC, "level": 1, "terms": coeffs, "var": "q", "weight": int(form[1])})
    jobs.append(Job("delta-expand", ("delta-expand", "--input", path, "--n", str(n), "--p", str(p),
                                     "--M", str(QLINE_M)),
                    facts={"form": form, "trunc": QLINE_TRUNC, "n": n, "p": p, "M": QLINE_M},
                    files={path: text}))

    def lemma(name, p, n, flag, value):
        argv = ("check-lemma", "--name", name, "--p", str(p), "--n", str(n), flag, str(value))
        return Job("check-lemma", argv, facts={"name": name, "p": p, "n": n})

    jobs.append(lemma("xlaphi", 5, 2, "--varphi", "symbolic"))
    for p in QLINE_PRIMES:
        jobs.append(lemma("xlaphi", p, 1, "--varphi", rng.choice(["symbolic", "0", "1", "2", "-3"])))
        for n in (1, 2):
            jobs.append(lemma("logder", p, n, "--a", rng.randint(1, 9)))
        jobs.append(Job("psi", ("psi", "--p", str(p), "--side", "fourier", "--M", "8", "--window", "30"),
                        facts={"p": p, "side": "fourier", "M": 8, "window": 30}))
        jobs.append(Job("psi", ("psi", "--p", str(p), "--side", "serretate", "--N", "30"),
                        facts={"p": p, "side": "serretate", "N": 30}))
    for p in QLINE_FSHARP:
        jobs.append(Job("fsharp", ("fsharp", "--p", str(p), "--window", "30", "--M", "6"),
                        facts={"p": p, "window": 30, "M": 6}))
    for _ in range(2):
        k = rng.choice([4, 6, 8, 10])
        jobs.append(Job("eisenstein", ("eisenstein", "--k", str(k), "--trunc", "20"),
                        facts={"k": k, "trunc": 20}))
        p = rng.choice([p for p in range(5, 60) if _is_prime(p)])
        jobs.append(Job("ap", ("ap", "--p", str(p)), facts={"p": p}))
    rng.shuffle(jobs)
    return jobs


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))


# -- glue ------------------------------------------------------------------------


class GlueInputs:
    """Input payloads for the checkers, made through the library before timing."""

    def __init__(self, inputs: str):
        self.dir = inputs
        self._cache: dict[str, str] = {}

    def _payload(self, name: str, build) -> tuple[str, str]:
        path = os.path.join(self.dir, name + ".json")
        if path not in self._cache:
            self._cache[path] = dumps(build().to_json())
        return path, self._cache[path]

    def fe0(self, P, N):
        from pjet import multiprime

        return self._payload(f"fe0_P{'_'.join(map(str, P))}_N{N}", lambda: multiprime.build_fe0(P, N))

    def f2e0(self, P, N):
        from pjet import forms, modular

        def build():
            curve, bad = modular.load_curve_fixture()
            an = modular.newform_coefficients(curve, max(N, *P), bad)
            return forms.build_f2e0(an, P, [an[p - 1] for p in P], N)

        return self._payload(f"f2e0_P{'_'.join(map(str, P))}_N{N}", build)

    def psi(self, p, N):
        from pjet import deltajet

        return self._payload(f"psi_serretate_p{p}_N{N}", lambda: deltajet.psi_serretate(p, N))


def _gamma(rng: random.Random, P) -> int:
    while True:
        g = rng.randint(2, 40)
        if all(g % p not in (0, 1) for p in P):
            return g


def _random_series(rng: random.Random, P, N, height):
    """Height-bounded terms {mono: Fraction} with denominators coprime to P."""
    d = len(P)
    terms = {}
    size = rng.randint(2, 6)
    while len(terms) < size:
        pairs: dict[tuple, int] = {}
        for _ in range(rng.randint(1, 2)):
            i = tuple(rng.randint(0, 1) for _ in range(d))
            pairs[i] = pairs.get(i, 0) + rng.randint(1, 2)
        mono = tuple(sorted(pairs.items()))
        if sum(e * math.prod(p**c for p, c in zip(P, i)) for i, e in mono) >= N:
            continue
        num = 0
        while num == 0:
            num = rng.randint(-height + 1, height - 1)
        den = rng.randint(1, height - 1)
        while any(den % p == 0 for p in P):
            den = rng.randint(1, height - 1)
        terms[mono] = Fraction(num, den)
    return terms


def _mono_json(mono):
    return [[list(i), e] for i, e in mono]


def _series_json(P, N, ring, coeffs: dict) -> str:
    terms = [[_mono_json(m), str(c) if isinstance(c, Fraction) else c] for m, c in sorted(coeffs.items())]
    return dumps({"P": list(P), "N": N, "ring": ring, "terms": terms})


def _residue(c: Fraction, p: int, M: int) -> int:
    mod = p**M
    return c.numerator * pow(c.denominator, -1, mod) % mod


def reconstructible(residues, height: int) -> bool:
    """Is there n/d with |n|, d <= height matching every (p, M, r)?  Brute force over d."""
    x, m = 0, 1
    for p, M, r in residues:
        n = p**M
        x = (x + m * ((r - x) * pow(m, -1, n) % n)) % (m * n)
        m *= n
    primes = [p for p, _, _ in residues]
    for d in range(1, height + 1):
        if any(d % p == 0 for p in primes):
            continue
        a = x * d % m
        if a > m // 2:
            a -= m
        if abs(a) <= height and math.gcd(a, d) == 1:
            return True
    return False


def _continuation(rng: random.Random, path_stem: str, padic: bool, d: int = 2) -> Job:
    P = sorted(rng.sample(GLUE_POOL, d))
    N, M, H = GLUE_CONT_N, GLUE_CONT_M, GLUE_CONT_HEIGHT
    series = _random_series(rng, P, N, H)
    members = []
    for k, p in enumerate(P):
        if padic:
            members.append({m: {"p": p, "M": M, "residue": str(_residue(c, p, M)), "digits": M}
                            for m, c in series.items()})
        else:
            members.append(dict(series))
    fault = None
    if rng.random() < 0.5:
        k = rng.randrange(len(P))
        mono = rng.choice(sorted(series))
        if padic:
            p = P[k]
            while True:
                r = (_residue(series[mono], p, M) + rng.randint(1, p**M - 1)) % p**M
                others = [(q, M, _residue(series[mono], q, M)) for q in P if q != p]
                if not reconstructible(others + [(p, M, r)], H):
                    break
            members[k][mono] = {"p": p, "M": M, "residue": str(r), "digits": M}
        else:
            members[k][mono] = series[mono] + 1
        fault = _mono_json(mono)
    files = {}
    for k, coeffs in enumerate(members):
        path = f"{path_stem}-m{k}.json"
        files[path] = _series_json(P, N, k + 1 if padic else 0, coeffs)
    argv = ("check-continuation", "--inputs", *files, "--height", str(H))
    facts = {"P": P, "padic": padic, "fault": fault,
             "series": [[_mono_json(m), str(c)] for m, c in sorted(series.items())]}
    return Job("check-continuation", argv, facts=facts, files=files)


def glue_block(rng: random.Random, inputs: GlueInputs, b: int) -> list[Job]:
    jobs = []
    # the whole pool, split into a pair and a triple for f2e0 and a pair for f2e-k:
    # every block exchanges the same primes, in seeded sets that the emptied cache misses
    pool = rng.sample(GLUE_POOL, len(GLUE_POOL))
    for P in (sorted(pool[0:2]), sorted(pool[2:5])):
        jobs.append(Job("f2e0", ("f2e0", "--P", _csv(P), "--N", str(GLUE_F2E_N)),
                        facts={"P": P, "typed": P, "N": GLUE_F2E_N}))
    P = sorted(pool[5:7])
    k = rng.randint(1, len(P))
    jobs.append(Job("f2e-k", ("f2e-k", "--P", _csv(P), "--k", str(k), "--N", str(GLUE_F2E_N)),
                    facts={"P": P, "typed": P, "N": GLUE_F2E_N, "prime": P[k - 1]}))

    P = sorted(rng.sample(GLUE_POOL, 2))
    nu = rng.choice([1, 1, 2])
    jobs.append(_covariance(rng, "fe0", P, *inputs.fe0(P, GLUE_COV_N), nu, "pass" if nu == 1 else "weight"))
    # nu = 0: the f2e0 series has a constant term, and with nu = 1 or 2 its first mismatch
    # would be at the monomial 1, which the null-witness defect hides (``probes`` shows it)
    P = sorted(rng.sample(GLUE_POOL, 2))
    jobs.append(_covariance(rng, "f2e0", P, *inputs.f2e0(P, GLUE_COV_N), 0, "weight"))
    p = rng.choice(GLUE_POOL)
    nu = rng.choice([1, 1, 0])
    jobs.append(_covariance(rng, "psi", [p], *inputs.psi(p, GLUE_COV_N), nu, "pass" if nu == 1 else "weight"))

    p = rng.choice(GLUE_POOL)
    nu = rng.choice([1, 1, 2])
    path, text = inputs.psi(p, GLUE_COV_N)
    residue = p
    while residue % p in (0, 1):
        residue = rng.randrange(2, p**6)
    jobs.append(Job("covariance_padic", call="covariance_padic",
                    args={"input": path, "p": p, "M": 6, "residue": residue, "digits": 6, "nu": nu},
                    facts={"source": "psi", "P": [p], "nu": nu, "expect": "pass" if nu == 1 else "weight"},
                    files={path: text}))

    stem = os.path.join(inputs.dir, f"cont-b{b}")
    jobs.append(_continuation(rng, stem + "-exact", padic=False, d=3))
    jobs.append(_continuation(rng, stem + "-padic", padic=True, d=2))
    for _ in range(2):
        p1, p2 = rng.sample([2, 3, 5, 7], 2)
        value = rng.randint(10**6, 10**9)
        jobs.append(Job("check-commutator",
                        ("check-commutator", "--p1", str(p1), "--p2", str(p2), "--value", str(value)),
                        facts={"p1": p1, "p2": p2, "value": value}))
    rng.shuffle(jobs)
    return jobs


def _covariance(rng: random.Random, source, P, path, text, nu, expect) -> Job:
    g = _gamma(rng, P)
    obj = json.loads(text)
    if "P" in obj:
        const = any(t[0] == [] for t in obj["terms"])
    else:  # one-prime jet series: [base exponent, coefficient, jets]
        const = any(t[0] == 0 and t[2] == [] for t in obj["terms"])
    return Job("check-covariance",
               ("check-covariance", "--input", path, "--gamma", str(g), "--nu", str(nu)),
               facts={"source": source, "P": list(P), "nu": nu, "expect": expect, "const": const},
               files={path: text})


# -- known-defect probes ---------------------------------------------------------------


def probes(workload: str, seed: int, inputs: str) -> list[Job]:
    """The timed commands with the primes typed out of ascending order, and the f2e0
    covariance check whose witness is the monomial 1: each shows a known defect.

    They run once per run, untimed, and are reported apart from the timed jobs.
    """
    rng = random.Random(f"{workload}:{seed}:probes")
    jobs = []
    if workload == "lift":
        for P, N in ((5, 7), 20), ((5, 7, 11), 16):
            typed = _typed(rng, P)
            prime = rng.choice(P)
            jobs.append(Job("fe-k", ("fe-k", "--P", _csv(typed), "--k", str(typed.index(prime) + 1),
                                     "--N", str(N)),
                            facts={"P": list(P), "typed": typed, "N": N, "prime": prime}))
        P, N = (5, 7), 20
        typed = _typed(rng, P)
        r = [2, 1] if rng.random() < 0.5 else [1, 2]
        jobs.append(Job("check-basis", ("check-basis", "--P", _csv(typed), "--r", _csv(r), "--N", str(N)),
                        facts={"P": list(P), "typed": typed, "r": r, "N": N}))
    elif workload == "glue":
        P = sorted(rng.sample(GLUE_POOL, 2))
        typed = _typed(rng, P)
        jobs.append(Job("f2e0", ("f2e0", "--P", _csv(typed), "--N", str(GLUE_F2E_N)),
                        facts={"P": P, "typed": typed, "N": GLUE_F2E_N}))
        P = sorted(rng.sample(GLUE_POOL, 3))
        typed = _typed(rng, P)
        k = rng.randint(1, len(P))
        jobs.append(Job("f2e-k", ("f2e-k", "--P", _csv(typed), "--k", str(k), "--N", str(GLUE_F2E_N)),
                        facts={"P": P, "typed": typed, "N": GLUE_F2E_N, "prime": typed[k - 1]}))
        P = sorted(rng.sample(GLUE_POOL, 2))
        jobs.append(_covariance(rng, "f2e0", P, *GlueInputs(inputs).f2e0(P, GLUE_COV_N), 1, "weight"))
    return jobs


# -- the sequence of blocks ----------------------------------------------------------


class Plan:
    """Anchors plus the seeded blocks of one workload, all made before timing."""

    def __init__(self, workload: str, seed: int, inputs: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.anchors = anchors(workload, inputs)
        self.probes = probes(workload, seed, inputs)

        def rng(b: int) -> random.Random:
            return random.Random(f"{workload}:{seed}:{b}")

        if workload == "lift":
            self.blocks = [lift_block(rng(b)) for b in range(BLOCKS[workload])]
        elif workload == "qline":
            self.blocks = [qline_block(rng(b), inputs) for b in range(BLOCKS[workload])]
        else:
            glue_inputs = GlueInputs(inputs)
            self.blocks = [glue_block(rng(b), glue_inputs, b) for b in range(BLOCKS[workload])]

    def block(self, b: int) -> list[Job]:
        """Block b; a program fast enough to run out of blocks meets them again."""
        return self.blocks[b % len(self.blocks)]

    def files(self) -> dict[str, str]:
        out = {}
        for job in self.anchors + self.probes + [j for blk in self.blocks for j in blk]:
            out.update(job.files)
        return out
