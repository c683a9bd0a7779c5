"""Acceptance gate: the ten top-level criteria, one test each.

Every test prints a single PASS line on success (run pytest with -s to see
them); tolerances are zero everywhere -- all arithmetic is exact, and the
p-adic statements are congruences at the stated modulus.
"""

import random
from fractions import Fraction

from _helpers import exp_series
from pjet.arith import (
    PadicTrunc,
    cp_polynomial,
    cross_prime_commutator,
    fermat_delta,
    valuation,
)
from pjet.deltajet import (
    JetSeries,
    lemma_logder_check,
    lemma_xlaphi_check,
    psi_fourier,
    psi_serretate,
)
from pjet.forms import build_f2e0, build_f2e_k, covariance_check, fourier_to_deformation, fsharp_expansion
from pjet.modular import (
    CURVE_11A1,
    ap_point_count,
    discriminant_delta,
    eisenstein,
    eisenstein_mod_p,
    newform_coefficients,
)
from pjet.multiprime import (
    MultiJetSeries,
    basis_independence_check,
    build_fe0,
    build_fe_k,
    continuation_check,
    from_jet_series,
    reduce_to_padic,
    t_generator,
)
from pjet.qseries import Series1


def report(n, text):
    print(f"criterion {n}: PASS - {text}")


def test_criterion_01_derivation_axioms():
    rng = random.Random(20260809)
    for p in (2, 3, 5, 7):
        for _ in range(200):
            a = Fraction(rng.randint(-999, 999), rng.choice([d for d in range(1, 40) if d % p]))
            b = Fraction(rng.randint(-999, 999), rng.choice([d for d in range(1, 40) if d % p]))
            da, db = fermat_delta(a, p), fermat_delta(b, p)
            assert fermat_delta(a + b, p) == da + db + cp_polynomial(a, b, p)
            assert fermat_delta(a * b, p) == a**p * db + b**p * da + p * da * db
            assert a**p + p * da == a  # the induced lift is the identity map
    report(1, "sum/product axioms and the Frobenius lift, 200 pairs at p in {2,3,5,7}")


def test_criterion_02_commutator_identity():
    rng = random.Random(2)
    primes = [2, 3, 5, 7]
    pairs = [(p, q) for p in primes for q in primes if p < q]
    for _ in range(100):
        a = rng.randint(-10_000, 10_000)
        for p, q in pairs:
            dp, dq = fermat_delta(a, p), fermat_delta(a, q)
            lhs = fermat_delta(dq, p) - fermat_delta(dp, q)
            assert lhs == cross_prime_commutator(a, dp, dq, p, q)
    a = 6
    d2, d3 = fermat_delta(a, 2), fermat_delta(a, 3)
    both = fermat_delta(d3, 2) - fermat_delta(d2, 3)
    assert both == cross_prime_commutator(a, d2, d3, 2, 3) == -3605
    report(2, "100 integers, all prime pairs from {2,3,5,7}; worked case -3605")


def test_criterion_03_psi_identities():
    for p in (5, 7):
        psi = psi_fourier(p, M=30, window=25)
        terms = dict(psi.terms)
        for n in range(1, 26):
            assert valuation(terms[(-p * n, (n,))], p) >= 0
    # exp(p Psi) * q^p = q^p + p q' at M=8, window 30
    p, W, M = 5, 30, 8
    psi = psi_fourier(p, M=W + 2, window=W)
    univ = Series1.make("t", {jets[0]: c * p for (b, jets), c in psi.terms}, N=W + 1)
    expu = exp_series(univ, order=W + 1)
    # t^n stands for (q'/q^p)^n, q^(-p n) q'^n; times q^p, each base exponent shifts by p
    lhs = JetSeries.make(p, {(p - p * n, (n,)): c for n, c in expu.terms}, M=M)
    rhs = JetSeries.make(p, {(p, ()): 1, (0, (1,)): p}, M=M)
    assert lhs == rhs
    # the deformation-side form is the q -> 1 + t image of the Fourier form
    for p in (5, 7):
        image = fourier_to_deformation(psi_fourier(p, M=34, window=30), 30)
        assert image == from_jet_series(psi_serretate(p, 30))
    report(3, "coefficient valuations, exp(p Psi) unit, and the q -> 1+t match")


def test_criterion_04_order_e_desk_check():
    N = 50
    fe0 = build_fe0([5, 7], N)
    assert build_fe_k([5, 7], 0, N) == fe0
    assert build_fe_k([5, 7], 1, N) == fe0
    for _, c in fe0.terms:
        assert c.denominator % 5 != 0 and c.denominator % 7 != 0
    for P, N in (((5, 7, 11), 50), ((5, 7, 11, 13), 40)):
        fe0 = build_fe0(P, N)
        assert all(build_fe_k(P, k, N) == fe0 for k in range(len(P)))
        assert all(c.denominator % p for _, c in fe0.terms for p in P)
    report(
        4,
        "per-prime routes equal the common route at P={5,7} and {5,7,11}, N=50, and P={5,7,11,13}, N=40; "
        "denominators coprime to the primes",
    )


def test_criterion_05_isogeny_covariance():
    N = 30
    for series in (psi_serretate(5, N), psi_serretate(7, N)):
        for gamma in (2, 3):
            assert covariance_check(series, gamma, 1).passed is True
    for P, NP in (((5, 7), N), ((5, 7, 11), N), ((5, 7, 11, 13), 40)):
        fe0 = build_fe0(P, NP)
        for gamma in (2, 3):
            assert covariance_check(fe0, gamma, 1).passed is True
    rep = covariance_check(t_generator((5,), 10, ring=1), 2, 1)
    assert rep.passed is False and rep.witness is not None
    an = newform_coefficients(CURVE_11A1, 30, bad_values={11: 1})
    for P in ([5, 13], [5, 7, 13]):  # 11 is a bad prime of 11a1
        f2e0 = build_f2e0(an, P, [ap_point_count(CURVE_11A1, p) for p in P], N)
        for gamma in (2, 3):
            rep = covariance_check(f2e0, gamma, 1)
            assert rep.passed is False and rep.witness is not None
    report(
        5,
        "degree-1 law holds for the order-e forms at two, three and four primes, "
        "fails for t and the order-2e forms over {5,13} and {5,7,13}",
    )


def test_criterion_06_rank_of_shifted_basis():
    rep = basis_independence_check([5, 7], (2, 2), 50)
    assert rep.ok and rep.rank == 4
    rep1 = basis_independence_check([5], (2,), 30)
    assert rep1.ok and rep1.rank == 2
    rep3 = basis_independence_check([5, 7, 11], (2, 2, 2), 386)
    assert rep3.ok and rep3.rank == 8
    rep4 = basis_independence_check([5, 7, 11, 13], (2, 2, 2, 2), 5006)
    assert rep4.ok and rep4.rank == 16
    report(
        6,
        "rank 4 at P={5,7}, r=(2,2); rank 2 at d=1, p=5, r=2; rank 8 at P={5,7,11}, r=(2,2,2); "
        "rank 16 at P={5,7,11,13}, r=(2,2,2,2), N=5006",
    )


def test_criterion_07_order_two_integrality_and_agreement():
    an = newform_coefficients(CURVE_11A1, 40, bad_values={11: 1})
    a13 = ap_point_count(CURVE_11A1, 13)
    fs = fsharp_expansion(an[:30], a13, 13, M=6, window=30)
    assert all(valuation(c, 13) >= 0 for _, c in fs.terms)
    ap = [ap_point_count(CURVE_11A1, 5), a13]
    f2e0 = build_f2e0(an, [5, 13], ap, 40)
    assert build_f2e_k(an, [5, 13], 0, ap, 40) == f2e0
    assert build_f2e_k(an, [5, 13], 1, ap, 40) == f2e0
    P3 = [5, 7, 13]
    ap3 = [ap_point_count(CURVE_11A1, p) for p in P3]
    f2e0 = build_f2e0(an, P3, ap3, 40)
    assert all(build_f2e_k(an, P3, k, ap3, 40) == f2e0 for k in range(3))
    report(7, "order-2 expansion 13-integral at window 30; order-2e routes agree at N=40 over {5,13} and {5,7,13}")


def test_criterion_08_lemma_suite():
    for p, n in ((5, 1), (5, 2), (7, 1)):
        assert lemma_xlaphi_check(p, n, "symbolic").passed
    for p, n, a in ((5, 1, 1), (5, 2, 3), (7, 1, 2)):
        assert lemma_logder_check(p, n, a).passed
    report(8, "jet-leading-term identities at (5,1), (5,2), (7,1) and the scaled-variable law")


def test_criterion_09_modular_data():
    T = 40
    e4, e6, d = eisenstein(4, T), eisenstein(6, T), discriminant_delta(T)
    assert e4.series**3 - e6.series**2 == d.series * 1728
    for p in (5, 7, 11, 13):
        res = eisenstein_mod_p(p, 30)
        assert res[0] == 1 and all(r == 0 for r in res[1:])
    assert ap_point_count(CURVE_11A1, 5) == 1
    assert ap_point_count(CURVE_11A1, 7) == -2
    p = 2
    while p <= 97:
        if CURVE_11A1.discriminant() % p:
            ap = ap_point_count(CURVE_11A1, p)
            assert ap * ap <= 4 * p
        p += 1
        while not all(p % f for f in range(2, int(p**0.5) + 1)):
            p += 1
    report(9, "weight identity to order 40, Hasse reductions, point counts, Hasse bound")


def _round_trips(rng, P, trials, N=16, M=8):
    """``trials`` random height-bounded series over P reduce to one p-adic
    family per prime and reconstruct; every tenth has a fault placed in the
    last family, which the check must name."""
    dens = [d for d in range(1, 9_999) if all(d % p for p in P)]
    for trial in range(trials):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            i1 = tuple(rng.randint(0, 1) for _ in P)
            i2 = tuple(rng.randint(0, 1) for _ in P)
            mono = ((i1, rng.randint(1, 2)), (i2, rng.randint(1, 2)))
            num = rng.randint(-9_999, 9_999)
            den = rng.choice(dens)
            if num:
                terms[mono] = Fraction(num, den)
        f0 = MultiJetSeries.make(P, dict(terms), N)
        fam = [reduce_to_padic(f0, k, M) for k in range(len(P))]
        res = continuation_check(fam, height=10_000)
        assert res.ok and res.f0 == f0
        if trial % 10 == 0 and f0.terms:
            m0, c0 = f0.terms[rng.randrange(len(f0.terms))]
            bad = dict(fam[-1].terms)
            bad[m0] = PadicTrunc(P[-1], M, bad.get(m0, PadicTrunc(P[-1], M, 0, M)).residue + 1, M)
            fam_bad = [*fam[:-1], MultiJetSeries.make(P, bad, N, ring=len(P))]
            res_bad = continuation_check(fam_bad, height=10_000)
            assert not res_bad.ok and res_bad.witness == m0


def test_criterion_10_continuation_roundtrip():
    _round_trips(random.Random(10), (5, 7), 100)
    _round_trips(random.Random(11), (5, 7, 11), 30)
    report(10, "100 random height-bounded series over {5,7} and 30 over {5,7,11} reduce and reconstruct; faults localized")
