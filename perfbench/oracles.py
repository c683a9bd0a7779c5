"""Oracles: one per job kind, none of which trusts the program to repeat itself.

Each oracle checks a payload against an independent computation made here
(divisor sums, point counts, the Fermat quotient on integers, the jet-free
part of a p-derivation), against a second code path of the library (the
per-prime route against the common route, the Fourier side against the
deformation side), or against what the generator put into the input
(round trips, injected faults, expected verdicts).  The repo's golden bytes
and the sha256 pins in ``pins.json`` are checked on top, where they apply.

Two defects of the program are marked ``known``.  A failure that comes from
the order in which the user typed the primes: the CLI reorders the primes it
is given but not the data that goes with them (the a_p list, the ``--k``
index, the ``--r`` vector).  And a report whose witness is the constant
monomial 1, the empty product, which the report's JSON encoding writes as
null, so the failure reads as having no witness.  The timed jobs avoid both;
the probes of ``workloads.probes`` meet them on purpose, and the benchmark
reports each with its witness.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction

PRIME_ORDER = "prime-order defect: the CLI sorts --P but not the data paired with it"
NULL_WITNESS = "null-witness defect: a check report writes the witness monomial 1 as null"

# 11a1: y^2 + y = x^3 - x^2 - 10x - 20, split multiplicative at 11 (a_11 = 1)
CURVE_11A1 = (0, -1, 1, -10, -20)
BAD_11A1 = {11: 1}
# normalized Eisenstein series: E_k = 1 + c_k sum sigma_{k-1}(n) q^n
EISENSTEIN_C = {4: 240, 6: -504, 8: 480, 10: -264}


@dataclass
class Verdict:
    ok: bool
    witness: str = ""
    known: str = ""  # names the known defect, when the failure is one


PASS = Verdict(True)


def _fail(witness: str, known: str = "") -> Verdict:
    return Verdict(False, witness, known)


# -- independent arithmetic ---------------------------------------------------------


def vp(x: Fraction, p: int) -> float:
    x = Fraction(x)
    if x == 0:
        return math.inf
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def fermat_delta_int(a: int, p: int) -> int:
    q, r = divmod(a - a**p, p)
    assert r == 0
    return q


def ap_count(p: int) -> int:
    """a_p of 11a1 by counting every (x, y) over F_p; the bad prime from its reduction type."""
    if p in BAD_11A1:
        return BAD_11A1[p]
    a1, a2, a3, a4, a6 = CURVE_11A1
    count = 1
    for x in range(p):
        rhs = (x**3 + a2 * x * x + a4 * x + a6) % p
        count += sum(1 for y in range(p) if (y * y + a1 * x * y + a3 * y) % p == rhs)
    return p + 1 - count


def an_11a1(n_max: int) -> list[int]:
    """a_1..a_n of the 11a1 newform from point counts and the Hecke recursion."""
    a = [0, 1] + [0] * (n_max - 1)
    for n in range(2, n_max + 1):
        l = next(f for f in range(2, n + 1) if n % f == 0)
        lr = l
        while n % (lr * l) == 0:
            lr *= l
        if lr != n:
            a[n] = a[lr] * a[n // lr]
        elif lr == l:
            a[n] = ap_count(l)
        elif l in BAD_11A1:
            a[n] = a[l] * a[n // l]
        else:
            a[n] = a[l] * a[n // l] - l * a[n // (l * l)]
    return a[1:]


def _sigma(n: int, k: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def q_expansion(form: str, order: int) -> list[Fraction]:
    """Exact coefficients below q^order of E4, E6 or the discriminant form."""
    if form in ("E4", "E6"):
        c = EISENSTEIN_C[int(form[1])]
        return [Fraction(1)] + [Fraction(c * _sigma(n, int(form[1]) - 1)) for n in range(1, order)]
    # Delta = q prod (1 - q^n)^24
    out = [Fraction(0)] * order
    if order > 1:
        out[1] = Fraction(1)
    for n in range(1, order):
        for _ in range(24):
            for e in range(order - 1, n - 1, -1):
                out[e] -= out[e - n]
    return out


def _series_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = len(a)
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        if x:
            for j in range(n - i):
                out[i + j] += x * b[j]
    return out


def jet_free_delta(f: list[Fraction], p: int) -> list[Fraction]:
    """The part of delta(f) with every jet set to 0: (f(q^p) - f^p) / p, same order as f."""
    n = len(f)
    frob = [Fraction(0)] * n
    for e in range(0, (n - 1) // p + 1):
        frob[e * p] = f[e]
    power = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for _ in range(p):
        power = _series_mul(power, f)
    return [(x - y) / p for x, y in zip(frob, power)]


# -- payload parsing -----------------------------------------------------------------


def multi_terms(obj) -> dict:
    """MultiJetSeries JSON terms as {((index, exponent), ...): coefficient}."""
    out = {}
    for mono, c in obj["terms"]:
        key = tuple((tuple(i), e) for i, e in mono)
        out[key] = c if isinstance(c, dict) else Fraction(c)
    return out


def _first_difference(a: dict, b: dict) -> str:
    for m in sorted(set(a) | set(b)):
        if a.get(m, 0) != b.get(m, 0):
            return f"at {json.dumps([[list(i), e] for i, e in m])}: {a.get(m, 0)} vs {b.get(m, 0)}"
    return ""


def _csv(xs) -> str:
    return ",".join(str(x) for x in xs)


# -- references computed outside the timed phase ----------------------------------------------


class Refs:
    """Reference payloads, memoized.  ``run_cli`` runs one argv untimed."""

    def __init__(self, run_cli, seen: dict | None = None):
        self.run_cli = run_cli
        self.memo: dict = dict(seen or {})

    def cli(self, *argv) -> tuple[int, dict]:
        argv = tuple(str(a) for a in argv)
        if argv not in self.memo:
            self.memo[argv] = self.run_cli(argv)
        code, text = self.memo[argv]
        return code, json.loads(text)

    def value(self, key, build):
        if key not in self.memo:
            self.memo[key] = build()
        return self.memo[key]


# -- per-kind oracles ---------------------------------------------------------------------------


def _known(facts) -> str:
    typed = facts.get("typed")
    return PRIME_ORDER if typed is not None and list(typed) != sorted(typed) else ""


def _check_fe0(facts, code, obj, refs):
    P, N, d = facts["P"], facts["N"], len(facts["P"])
    if code != 0 or [obj["P"], obj["N"], obj["ring"]] != [P, N, 0]:
        return _fail(f"exit {code}, P/N/ring {obj.get('P')}/{obj.get('N')}/{obj.get('ring')}, "
                     f"expected {P}/{N}/0")
    terms = multi_terms(obj)
    for m, c in terms.items():
        if any(c.denominator % p == 0 for p in P):
            return _fail(f"coefficient {c} at {m} is not P-integral")
    zero = tuple([0] * d)
    for j in range(1, min(min(P), N)):
        want = Fraction((-1) ** d * (-1) ** (j - 1), j)
        if terms.get(((zero, j),), 0) != want:
            return _fail(f"t^{j} coefficient {terms.get(((zero, j),), 0)}, expected {want} "
                         f"from (-1)^d log(1 + t)")
    return PASS


def _check_fe_k(facts, code, obj, refs):
    P, N, prime = facts["P"], facts["N"], facts["prime"]
    if code != 0:
        return _fail(f"exit {code}")
    _, ref = refs.cli("fe0", "--P", _csv(P), "--N", N)
    diff = _first_difference(multi_terms(obj), multi_terms(ref))
    if diff or obj["N"] != N:
        return _fail(f"terms differ from fe0 --P {_csv(P)} --N {N} {diff}")
    want = P.index(prime) + 1
    if obj["ring"] != want:
        return _fail(f"ring {obj['ring']}, expected {want}: --k named p={prime}, "
                     f"sorted position {want} of {P}", _known(facts))
    return PASS


def _check_basis(facts, code, obj, refs):
    P, typed, r = facts["P"], facts["typed"], facts["r"]
    want = math.prod(r)
    if code != 0 or obj["pass"] is not True or obj["rank"] != want or obj["expected"] != want:
        return _fail(f"exit {code}, rank {obj.get('rank')} of expected {obj.get('expected')}, "
                     f"product of r is {want}")
    if obj["P"] != P or obj["N"] != facts["N"]:
        return _fail(f"P/N {obj['P']}/{obj['N']}, expected {P}/{facts['N']}")
    paired = [r[typed.index(p)] for p in P]
    if obj["r"] != paired:
        return _fail(f"r {obj['r']} for P {P}, but the user asked r={paired} "
                     f"(typed --P {_csv(typed)} --r {_csv(r)})", _known(facts))
    return PASS


def _check_f2d(facts, code, obj, refs):
    from pjet import deltajet, multiprime

    p, N = facts["p"], facts["N"]
    ref = refs.value(("psi_serretate", p, N),
                     lambda: multiprime.from_jet_series(deltajet.psi_serretate(p, N)).to_json())
    diff = _first_difference(multi_terms(obj), multi_terms(ref))
    if code != 0 or diff or obj["N"] != N:
        return _fail(f"image differs from from_jet_series(psi_serretate({p}, {N})) {diff}")
    return PASS


def _check_delta_expand(facts, code, obj, refs):
    p, n, M = facts["p"], facts["n"], facts["M"]
    if code != 0 or obj["p"] != p or obj["M"] != M or obj["var"] != "q":
        return _fail(f"exit {code}, header {obj.get('var')}/{obj.get('p')}/{obj.get('M')}")
    order = obj["base_order"] if obj["base_order"] is not None else facts["trunc"]
    g = q_expansion(facts["form"], order)
    for _ in range(n):
        g = jet_free_delta(g, p)
    got = {b: Fraction(c) for b, c, jets in obj["terms"] if not jets}
    digits = obj["digits"] if obj["digits"] is not None else math.inf
    for b in range(order):
        if vp(got.get(b, Fraction(0)) - g[b], p) < digits:
            return _fail(f"jet-free q^{b} coefficient {got.get(b, 0)}, expected {g[b]} mod {p}^{digits}")
    return PASS


def _check_lemma(facts, code, obj, refs):
    want = [facts["name"], facts["p"], facts["n"], True]
    got = [obj.get("lemma"), obj.get("p"), obj.get("n"), obj.get("pass")]
    if code != 0 or got != want:
        return _fail(f"exit {code}, lemma/p/n/pass {got}, offending {obj.get('offending')}")
    return PASS


def _check_psi(facts, code, obj, refs):
    p = facts["p"]
    if code != 0 or obj["p"] != p:
        return _fail(f"exit {code}, p {obj.get('p')}")
    if facts["side"] == "serretate":
        N = facts["N"]
        got = {b: Fraction(c) for b, c, jets in obj["terms"] if not jets}
        for b in range(1, N):
            want = -Fraction((-1) ** (b - 1), b)
            if b % p == 0:
                m = b // p
                want += Fraction((-1) ** (m - 1), m * p)
            if got.get(b, 0) != want:
                return _fail(f"t^{b} coefficient {got.get(b, 0)}, expected {want} "
                             f"from (1/p)(log(1 + t^p) - p log(1 + t))")
        for b, c, jets in obj["terms"]:
            if Fraction(c).denominator % p == 0:
                return _fail(f"coefficient {c} at {b},{jets} is not {p}-integral")
        return PASS
    digits = obj["digits"]
    if digits is None or digits > facts["M"]:
        return _fail(f"digits {digits} exceed M={facts['M']}")
    want = {}
    for n in range(1, facts["window"] + 1):
        c = Fraction((-1) ** (n - 1) * p ** (n - 1), n)
        if vp(c, p) < digits:
            want[(-p * n, (n,))] = c
    got = {(b, tuple(jets)): Fraction(c) for b, c, jets in obj["terms"]}
    if got != want:
        return _fail(f"terms differ from sum (-1)^(n-1) p^(n-1)/n (q'/q^p)^n "
                     f"{_first_difference(got, want)}")
    return PASS


def _check_fsharp(facts, code, obj, refs):
    p, window, M = facts["p"], facts["window"], facts["M"]
    if code != 0 or obj["p"] != p or obj["digits"] != M:
        return _fail(f"exit {code}, p/digits {obj.get('p')}/{obj.get('digits')}")
    an = refs.value(("an_11a1", window), lambda: an_11a1(max(window, p)))
    a_p = an[p - 1]
    want = [Fraction(0)] * (window + 1)
    for n in range(1, window + 1):
        scal = Fraction(an[n - 1], n * p)
        for e, c in ((p * p * n, 1), (p * n, -a_p), (n, p)):
            if e <= window:
                want[e] += scal * c
    got = {b: Fraction(c) for b, c, jets in obj["terms"] if not jets}
    for b in range(window + 1):
        if vp(got.get(b, Fraction(0)) - want[b], p) < M:
            return _fail(f"jet-free q^{b} coefficient {got.get(b, 0)}, expected {want[b]} mod {p}^{M}")
    return PASS


def _check_eisenstein(facts, code, obj, refs):
    k, trunc = facts["k"], facts["trunc"]
    want = [[0, "1"]] + [[n, str(EISENSTEIN_C[k] * _sigma(n, k - 1))] for n in range(1, trunc)]
    if code != 0 or obj["terms"] != want or obj["weight"] != k or obj["N"] != trunc:
        return _fail(f"E_{k} differs from 1 + {EISENSTEIN_C[k]} sum sigma_{k - 1}(n) q^n")
    return PASS


def _check_ap(facts, code, obj, refs):
    p = facts["p"]
    want = ap_count(p)
    source = "fixture" if p in BAD_11A1 else "count"
    if code != 0 or [obj["p"], obj["ap"], obj["source"]] != [p, want, source]:
        return _fail(f"a_{p} = {obj.get('ap')} ({obj.get('source')}), expected {want} ({source})")
    return PASS


def _f2e_routes_agree(P, N, refs) -> str:
    """Empty when f2e-k at every k has the terms of f2e0, for the sorted prime list."""

    def check():
        _, ref = refs.cli("f2e0", "--P", _csv(P), "--N", N)
        for k in range(1, len(P) + 1):
            _, per = refs.cli("f2e-k", "--P", _csv(P), "--k", k, "--N", N)
            diff = _first_difference(multi_terms(per), multi_terms(ref))
            if diff:
                return f"f2e-k --k {k} differs from f2e0 for --P {_csv(P)} {diff}"
        return ""

    return refs.value(("f2e-routes", tuple(P), N), check)


def _check_f2e(facts, code, obj, refs):
    P, N = facts["P"], facts["N"]
    if code != 0 or obj["P"] != P or obj["N"] != N:
        return _fail(f"exit {code}, P/N {obj.get('P')}/{obj.get('N')}")
    routes = _f2e_routes_agree(P, N, refs)
    if routes:
        return _fail(routes)
    _, ref = refs.cli("f2e0", "--P", _csv(P), "--N", N)
    diff = _first_difference(multi_terms(obj), multi_terms(ref))
    if diff:
        return _fail(f"terms differ from f2e0 --P {_csv(P)} {diff}", _known(facts))
    if "prime" in facts:
        want = P.index(facts["prime"]) + 1
        if obj["ring"] != want:
            return _fail(f"ring {obj['ring']}, expected {want}: --k named p={facts['prime']}",
                         _known(facts))
    elif obj["ring"] != 0:
        return _fail(f"ring {obj['ring']}, expected 0")
    return PASS


def _check_covariance(facts, code, obj, refs):
    expect, d = facts["expect"], len(facts["P"])
    witness = obj.get("witness")
    if obj.get("nu") != facts["nu"]:
        return _fail(f"nu {obj.get('nu')}, expected {facts['nu']}")
    if expect == "pass":
        if code != 0 or obj["pass"] is not True or witness is not None:
            return _fail(f"expected a pass, got exit {code}, pass {obj['pass']}, witness {witness}")
        return PASS
    if code != 1 or obj["pass"] is not False:
        return _fail(f"expected a failure, got exit {code}, pass {obj['pass']}")
    if expect == "weight":
        # F(t -> (1+t)^gamma - 1) keeps the constant term and sends t to gamma t + ..., while
        # gamma^nu F scales both: the first mismatch is at 1 if F has a constant term and
        # nu != 0, else at t
        want = [] if facts.get("const") and facts["nu"] != 0 else [[[0] * d, 1]]
        if witness is None and want == []:
            return _fail("witness null, expected the monomial 1 = []", NULL_WITNESS)
        if witness != want:
            return _fail(f"witness {witness}, expected {want}")
    elif not witness:
        return _fail("failure without a witness")
    return PASS


def _check_continuation(facts, code, obj, refs):
    fault = facts["fault"]
    if fault is None:
        want = {tuple((tuple(i), e) for i, e in m): Fraction(c) for m, c in facts["series"]}
        if code != 0 or obj["pass"] is not True or obj["f0"] is None:
            return _fail(f"round trip failed: exit {code}, witness {obj.get('witness')}")
        diff = _first_difference(multi_terms(obj["f0"]), want)
        if diff or obj["f0"]["P"] != facts["P"]:
            return _fail(f"round trip changed the series {diff}")
        return PASS
    if code != 1 or obj["pass"] is not False or obj["witness"] != fault:
        return _fail(f"injected fault at {fault}: exit {code}, pass {obj['pass']}, "
                     f"witness {obj['witness']}")
    return PASS


def _check_commutator(facts, code, obj, refs):
    a, p1, p2 = facts["value"], facts["p1"], facts["p2"]
    lhs = fermat_delta_int(fermat_delta_int(a, p2), p1) - fermat_delta_int(fermat_delta_int(a, p1), p2)
    got = [obj.get("lhs"), obj.get("rhs"), obj.get("pass"), obj.get("value")]
    if code != 0 or got != [str(lhs), str(lhs), True, a]:
        return _fail(f"exit {code}, lhs/rhs/pass/value differ from the integer Fermat quotients")
    return PASS


CHECKS = {
    "fe0": _check_fe0,
    "fe-k": _check_fe_k,
    "check-basis": _check_basis,
    "fourier_to_deformation": _check_f2d,
    "delta-expand": _check_delta_expand,
    "check-lemma": _check_lemma,
    "psi": _check_psi,
    "fsharp": _check_fsharp,
    "eisenstein": _check_eisenstein,
    "ap": _check_ap,
    "f2e0": _check_f2e,
    "f2e-k": _check_f2e,
    "check-covariance": _check_covariance,
    "covariance_padic": _check_covariance,
    "check-continuation": _check_continuation,
    "check-commutator": _check_commutator,
}


def check(job, code: int, text: str, refs: Refs, pins: dict, golden_dir: str) -> Verdict:
    """All oracles for one payload.  Known only if every failure is the known defect."""
    failures = []
    if job.anchor.startswith("golden:"):
        name = job.anchor.split(":", 1)[1]
        with open(f"{golden_dir}/{name}", "r", encoding="utf-8") as fh:
            if fh.read() != text:
                failures.append(_fail(f"payload differs from the golden bytes of {name}"))
    pinned = pins.get(job.key)
    if pinned and hashlib.sha256(text.encode()).hexdigest() != pinned:
        failures.append(_fail(f"payload sha256 differs from the pinned {pinned[:16]}..."))
    try:
        obj = json.loads(text)
    except ValueError:
        return _fail(f"exit {code}, payload is not JSON: {text[:80]!r}")
    if "error" in obj:
        return _fail(f"exit {code}, error {obj['error']}")
    try:
        verdict = CHECKS[job.kind](job.facts, code, obj, refs)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as e:
        verdict = _fail(f"malformed payload: {type(e).__name__}: {e}")
    if not verdict.ok:
        failures.append(verdict)
    if not failures:
        return PASS
    known = failures[0].known if all(f.known for f in failures) else ""
    return Verdict(False, "; ".join(f.witness for f in failures), known)
