"""A metamorphic precision oracle for the q side.

Each job (``delta-expand``; ``delta_n`` and ``phi`` on one fixed series;
``psi --side fourier``; ``fsharp``) runs at (M, trunc) and again at
(M + k, trunc + k'), and the two payloads must agree modulo p**digits below
the border: the smaller of the two runs' digits and base_order, or for
fsharp the smaller weighted window.  The run with more precision must claim
at least the digits of the other.  The checker reads the payload text as
term dicts of ``Fraction`` and takes its own valuations; it calls nothing of
pjet but the jobs themselves.

The p-adic covariance verdict gets the same treatment: one residue of gamma
checked at ``digits`` d and at d + k compares mod a larger power of p, so
it can only add bad terms (``test_covariance_verdict_under_more_digits``).

The t side is exact below its weight bound N, so its oracle is stricter: a
build or a structure map run at N + k and truncated to N must give the bytes
of the run at N (``test_t_side_*``); ``phi_pk``, which multiplies weights by
p_k, is compared at N * p_k.
"""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pjet.arith import PadicTrunc
from pjet.cli import main
from pjet.deltajet import JetSeries, delta_n, phi, psi_fourier, psi_serretate
from pjet.forms import build_f2e0, build_f2e_k, covariance_check, fourier_to_deformation
from pjet.modular import CURVE_11A1, newform_coefficients
from pjet.multiprime import (
    MultiJetSeries,
    build_fe0,
    build_fe_k,
    delta_pk,
    from_jet_series,
    phi_pk,
    substitute_gamma,
)


def run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


def terms(text: str) -> tuple[dict, dict]:
    obj = json.loads(text)
    return obj, {(b, tuple(jets)): Fraction(c) for b, c, jets in obj["terms"]}


def vp(x: Fraction, p: int) -> int:
    n, d, v = x.numerator, x.denominator, 0
    while n % p == 0:
        n, v = n // p, v + 1
    while d % p == 0:
        d, v = d // p, v - 1
    return v


def smaller(a, b):
    """The smaller of two bounds, None being no bound."""
    return b if a is None else a if b is None else min(a, b)


def assert_agree(lo: str, hi: str, p: int, kept=lambda key: True) -> int:
    """The two payloads agree mod p**digits below the border, and the
    second claims no fewer digits; returns the number of keys compared."""
    (olo, tlo), (ohi, thi) = terms(lo), terms(hi)
    if olo["digits"] is not None:
        assert ohi["digits"] is None or ohi["digits"] >= olo["digits"]
    digits = smaller(olo["digits"], ohi["digits"])
    border = smaller(olo["base_order"], ohi["base_order"])
    compared = 0
    for key in tlo.keys() | thi.keys():
        if (border is not None and key[0] >= border) or not kept(key):
            continue
        compared += 1
        diff = thi.get(key, 0) - tlo.get(key, 0)
        assert not diff or (digits is not None and vp(diff, p) >= digits), (key, tlo.get(key), thi.get(key))
    return compared


@given(
    form=st.sampled_from(["E4", "E6", "delta"]),
    p=st.sampled_from([5, 7]),
    n=st.integers(1, 2),
    M=st.integers(3, 6),
    trunc=st.integers(6, 12),
    k=st.integers(0, 2),
    k2=st.integers(0, 6),
)
@example(form="E6", p=5, n=1, M=6, trunc=6, k=0, k2=1)  # the unknown q^6 reaches q^5 q'^5
@settings(max_examples=25, deadline=None)
def test_delta_expand(form, p, n, M, trunc, k, k2):
    def job(M, trunc):
        return run(["delta-expand", "--form", form, "--trunc", str(trunc), "--n", str(n), "--p", str(p), "--M", str(M)])

    assert_agree(job(M, trunc), job(M + k, trunc + k2), p)


def fixed_series(p: int, seed: list[int]) -> dict:
    """One p-integral series with a pole and a jet: term i is q^(i-1), times
    q' for odd i, with coefficient seed[i] / (i + p + 1), or seed[i] where p
    divides i + p + 1."""
    series = {}
    for i, c in enumerate(seed):
        den = i + p + 1
        series[(i - 1, (1,) if i % 2 else ())] = Fraction(c, den if den % p else 1)
    return series


@given(
    p=st.sampled_from([5, 7]),
    seed=st.lists(st.integers(-6, 6), min_size=12, max_size=12),
    n=st.integers(0, 2),
    M=st.integers(3, 5),
    trunc=st.integers(2, 8),
    k=st.integers(0, 2),
    k2=st.integers(0, 4),
)
@settings(max_examples=25, deadline=None)
def test_delta_n(p, seed, n, M, trunc, k, k2):
    # the run at trunc T knows the terms below T; n = 0 runs phi instead
    series = fixed_series(p, seed)

    def job(M, trunc):
        f = JetSeries.make(p, {key: c for key, c in series.items() if key[0] < trunc}, M, base_order=trunc)
        return (delta_n(f, n) if n else phi(f)).to_text()

    assert_agree(job(M, trunc), job(M + k, trunc + k2), p)


@given(
    p=st.sampled_from([5, 7, 11]),
    M=st.integers(2, 8),
    window=st.integers(1, 16),
    k=st.integers(0, 3),
    k2=st.integers(0, 8),
)
@settings(max_examples=25, deadline=None)
def test_psi_fourier(p, M, window, k, k2):
    def job(M, window):
        return run(["psi", "--p", str(p), "--side", "fourier", "--M", str(M), "--window", str(window)])

    assert_agree(job(M, window), job(M + k, window + k2), p)


@given(
    p=st.sampled_from([5, 7, 11, 13]),
    M=st.integers(2, 6),
    window=st.integers(13, 26),
    k=st.integers(0, 2),
    k2=st.integers(0, 8),
)
@settings(max_examples=20, deadline=None)
def test_fsharp(p, M, window, k, k2):
    # the window is a weighted degree: wt(q) = 1, wt(q') = p, wt(q'') = p^2
    def job(M, window):
        return run(["fsharp", "--p", str(p), "--window", str(window), "--M", str(M)])

    def weight(key):
        b, jets = key
        return b + sum(e * p ** (i + 1) for i, e in enumerate(jets))

    lo, hi = job(M, window), job(M + k, window + k2)
    assert all(weight(key) <= window for key in terms(lo)[1])
    assert assert_agree(lo, hi, p, lambda key: weight(key) <= window) >= 1


@st.composite
def covariance_series(draw):
    """Psi, fe0 or a drawn d = 1 series at p in 5..13 and N <= 30."""
    p, N = draw(st.sampled_from([5, 7, 11, 13])), draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["psi", "fe0", "drawn"]))
    if kind == "psi":
        return from_jet_series(psi_serretate(p, N))
    if kind == "fe0":
        return build_fe0([p], N)
    var = st.tuples(st.integers(0, 2).map(lambda a: (a,)), st.integers(1, 3))
    coeff = st.builds(Fraction, st.integers(-50, 50), st.sampled_from([1, 2, p, p * p, 3 * p]))
    return MultiJetSeries.make((p,), draw(st.dictionaries(st.lists(var, max_size=2).map(tuple), coeff, max_size=4)), N, 1)


@given(F=covariance_series(), d=st.integers(1, 6), k=st.integers(1, 3), nu=st.integers(-1, 3), data=st.data())
@settings(max_examples=100, deadline=None)
def test_covariance_verdict_under_more_digits(F, d, k, nu, data):
    # a verdict is the same for every lift of gamma mod p**d, and at d + k the
    # difference is compared mod a larger power of p: bad terms only add up
    p = F.P[0]
    r = data.draw(st.integers(0, p ** (d + k) - 1).filter(lambda r: r % p > 1))
    lo = covariance_check(F, PadicTrunc(p, d + k, r, d), nu)
    hi = covariance_check(F, PadicTrunc(p, d + k, r, d + k), nu)

    def order(mono):
        return sum(e * p ** i[0] for i, e in mono), mono

    if lo.passed is False:
        assert hi.passed is False and order(hi.witness) <= order(lo.witness)
    if hi.passed is True:
        assert lo.passed in (True, None)
    if hi.passed is None:
        assert lo.passed is None


# ---------------------------------------------------------------------------
# The t side: a run at N + k, truncated to N, is the run at N
# ---------------------------------------------------------------------------

AN = newform_coefficients(CURVE_11A1, 17, {11: 1})


def assert_truncates(build, N: int, k: int, cut=lambda N: N):
    """``build(N + k)`` cut to ``cut(N)`` has the bytes of ``build(N)``."""
    assert build(N + k).truncate(cut(N)).to_text() == build(N).to_text()


@st.composite
def primes(draw):
    return tuple(sorted(draw(st.lists(st.sampled_from([5, 7, 11, 13, 17]), min_size=1, max_size=3, unique=True))))


@st.composite
def t_series(draw, P, N):
    """A drawn series over P below N: t and the first jets x_(e_k), each to
    an exponent up to 3, with integer coefficients, so every map applies."""
    d = len(P)
    var = st.tuples(st.sampled_from([(0,) * d] + [tuple(int(i == k) for i in range(d)) for k in range(d)]), st.integers(1, 3))
    monos = st.lists(var, max_size=3).map(lambda vs: tuple(dict(vs).items()))
    return MultiJetSeries.make(P, draw(st.dictionaries(monos, st.integers(-9, 9), max_size=4)), N, 0)


@given(P=primes(), N=st.integers(0, 30), k=st.integers(0, 12), data=st.data())
@example(P=(5, 7, 11), N=30, k=12, data=None)
@settings(max_examples=60, deadline=None)
def test_t_side_builders(P, N, k, data):
    idx = 0 if data is None else data.draw(st.integers(0, len(P) - 1))
    assert_truncates(lambda n: build_fe0(P, n), N, k)
    assert_truncates(lambda n: build_fe_k(P, idx, n), N, k)
    assert_truncates(lambda n: from_jet_series(psi_serretate(P[idx], n)), N, k)
    ap = [AN[p - 1] for p in P]
    assert_truncates(lambda n: build_f2e0(AN[:12], P, ap, n), N, k)
    assert_truncates(lambda n: build_f2e_k(AN[:12], P, idx, ap, n), N, k)


@given(P=primes(), N=st.integers(0, 30), k=st.integers(0, 12), data=st.data())
@settings(max_examples=60, deadline=None)
def test_t_side_maps(P, N, k, data):
    # each map of the drawn series, cut to n before the map
    f = data.draw(t_series(P, N + k))
    idx = data.draw(st.integers(0, len(P) - 1))
    gamma = data.draw(st.sampled_from([2, 3, 24, -2]))
    assert_truncates(lambda n: delta_pk(f.truncate(n), idx), N, k)
    assert_truncates(lambda n: substitute_gamma(f.truncate(n), gamma), N, k)
    assert_truncates(lambda n: phi_pk(f.truncate(n), idx), N, k, lambda N: N * P[idx])


@given(p=st.sampled_from([5, 7]), M=st.integers(2, 8), window=st.integers(1, 8), N=st.integers(0, 30), k=st.integers(0, 12))
@settings(max_examples=30, deadline=None)
def test_t_side_fourier_to_deformation(p, M, window, N, k):
    f = psi_fourier(p, M, window)
    assert_truncates(lambda n: fourier_to_deformation(f, n), N, k)
