"""Single-prime jet rings: phi, delta, weights, Psi builders, lemma checks."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pjet.arith import Weight, fermat_delta
from pjet.deltajet import (
    JetSeries,
    delta,
    delta_n,
    invert,
    lemma_logder_check,
    lemma_xlaphi_check,
    phi,
    psi_fourier,
    psi_serretate,
    terms_delta,
    terms_phi,
    weight_action,
)
from pjet.errors import DomainError, NotInvertible, PjetError, PrecisionExhausted
from pjet.qseries import Series1, _exp_series


def jq(p, terms, **kw):
    return JetSeries.make(p, "q", {k: Fraction(v) for k, v in terms.items()}, **kw)


def jt(p, terms, **kw):
    return JetSeries.make(p, "t", {k: Fraction(v) for k, v in terms.items()}, **kw)


Q = lambda p=5: jq(p, {(1, ()): 1})  # noqa: E731


def random_poly_jet(rng, p, order=2, nterms=3, hi=3):
    terms = {}
    for _ in range(nterms):
        b = rng.randint(0, hi)
        jets = tuple(rng.randint(0, 1) for _ in range(order))
        c = Fraction(rng.randint(-5, 5))
        if c:
            terms[(b, jets)] = terms.get((b, jets), 0) + c
    return JetSeries.make(p, "q", terms)


class TestPhi:
    def test_generator(self):
        assert phi(Q(5)) == jq(5, {(5, ()): 1, (0, (1,)): 5})

    def test_constant_fixed(self):
        c = jq(7, {(0, ()): Fraction(2, 3)})
        assert phi(c) == c

    def test_negative_power_geometric_oracle(self):
        # (q^5 + 5q')^{-1} = q^{-5} (1 - 5 q'/q^5 + 25 q'^2/q^10 - ...) mod 5^3
        got = phi(jq(5, {(-1, ()): 1}, M=3))
        want = jq(
            5,
            {(-5, ()): 1, (-10, (1,)): -5, (-15, (2,)): 25},
            M=3,
            digits=3,
        )
        assert got.digits == 3
        assert got == want

    def test_ring_homomorphism(self):
        rng = random.Random(7)
        for _ in range(10):
            a = random_poly_jet(rng, 5)
            b = random_poly_jet(rng, 5)
            assert phi(a * b) == phi(a) * phi(b)
            assert phi(a + b) == phi(a) + phi(b)

    @pytest.mark.parametrize("p", [5, 7])
    def test_frobenius_lift_mod_p(self, p):
        rng = random.Random(p)
        for _ in range(8):
            f = random_poly_jet(rng, p)
            diff = phi(f) - f**p
            assert all(c.numerator % p == 0 for _, c in diff.terms)


class TestDelta:
    def test_generator_to_first_jet(self):
        assert delta(Q(5)) == jq(5, {(0, (1,)): 1})

    def test_constant_reduces_to_fermat(self):
        got = delta(jq(3, {(0, ()): 2}))
        assert got == jq(3, {(0, ()): fermat_delta(2, 3)})

    def test_lambda_q_logder_instance(self):
        # delta(6q) = 6q' - 1554 q^5; congruent to q' + q^5 mod 5
        got = delta(jq(5, {(1, ()): 6}))
        assert got == jq(5, {(0, (1,)): 6, (5, ()): -1554})
        rep = lemma_logder_check(5, 1, 1)
        assert rep.passed

    def test_delta_n(self):
        assert delta_n(Q(5), 2) == jq(5, {(0, (0, 2)): 0, (0, (0, 1)): 1})
        one = jq(5, {(0, ()): 1})
        assert delta_n(one, 3) == jq(5, {})
        got = delta_n(jq(3, {(0, ()): 2}), 2)
        assert got == jq(3, {(0, ()): 2})

    def test_exactness_preserved_on_polynomials(self):
        f = jq(5, {(0, ()): 1, (1, ()): 1})
        assert delta(f).digits is None

    def test_precision_exhaustion(self):
        f = jq(5, {(-1, ()): 1}, M=2)
        with pytest.raises(PrecisionExhausted):
            delta(delta(f))

    def test_sum_axiom_exact(self):
        rng = random.Random(11)
        for p in (5, 7):
            for _ in range(6):
                a = random_poly_jet(rng, p)
                b = random_poly_jet(rng, p)
                cp = JetSeries.make(p, "q", {})
                for k in range(1, p):
                    cp = cp + a**k * b ** (p - k) * Fraction(-comb(p, k), p)
                assert delta(a + b) == delta(a) + delta(b) + cp

    def test_product_axiom_exact(self):
        rng = random.Random(13)
        for p in (5, 7):
            for _ in range(6):
                a = random_poly_jet(rng, p)
                b = random_poly_jet(rng, p)
                da, db = delta(a), delta(b)
                assert delta(a * b) == a**p * db + b**p * da + da * db * p

    def test_delta_phi_commute(self):
        rng = random.Random(17)
        for _ in range(6):
            f = random_poly_jet(rng, 5)
            assert delta(phi(f)) == phi(delta(f))


from _helpers import delta_axiomatic  # noqa: E402


class TestDualPathDelta:
    @pytest.mark.parametrize("p", [3, 5])
    def test_axiom_recursion_agrees_with_substitution(self, p):
        rng = random.Random(23)
        for _ in range(5):
            f = random_poly_jet(rng, p, order=1, nterms=3, hi=2)
            assert delta_axiomatic(f) == delta(f)


def _phi_unpruned(f: JetSeries) -> JetSeries:
    """q-side phi that forms every monomial and lets ``make`` cut the border."""
    p = f.p
    probe = JetSeries.make(p, "q", {}, f.M, f.digits)
    t = terms_phi(f._to_terms(), p, probe._keep(), f.eff_digits())
    digits = f.digits if f.base_valuation() >= 0 else f.eff_digits()
    border = None
    if f.base_order is not None:
        digits = min(digits, f.M) if digits is not None else f.M
        border = p * (f.base_order - digits + 1)
    return JetSeries.make(p, "q", JetSeries._from_terms(t), f.M, digits, border)


def _delta_unpruned(f: JetSeries) -> JetSeries:
    """q-side delta that forms every monomial and lets ``make`` cut the border."""
    p = f.p
    if f.digits is not None and f.digits <= 1:
        raise PrecisionExhausted("need at least two guaranteed digits for delta")
    probe = JetSeries.make(p, "q", {}, f.M, f.digits)
    t = terms_delta(f._to_terms(), p, probe._keep(), f.eff_digits())
    digits = f.digits
    if f.base_valuation() < 0 or f.base_order is not None:
        digits = min(digits, f.M) if digits is not None else f.M
    if digits is not None:
        digits -= 1
        if digits < 1:
            raise PrecisionExhausted("guaranteed digits exhausted")
    border = None
    if f.base_order is not None:
        v = min(f.base_valuation(), 0)
        border = min(p * (f.base_order - digits + 1), f.base_order + (p - 1) * v)
    return JetSeries.make(p, "q", JetSeries._from_terms(t), f.M, digits, border)


@st.composite
def laurent_jets(draw):
    p = draw(st.sampled_from([5, 7]))
    keys = st.tuples(st.integers(-2 * p, 6), st.sampled_from([(), (1,)]))
    coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3]))
    terms = draw(st.dictionaries(keys, coeffs, min_size=1, max_size=3))
    f = JetSeries.make(
        p,
        "q",
        terms,
        M=draw(st.integers(2, 4)),
        digits=draw(st.one_of(st.none(), st.integers(2, 4))),
        base_order=draw(st.integers(-p, 12)),
    )
    return f, draw(st.sampled_from([1, 2]))


def _iterate(step, f: JetSeries, n: int):
    try:
        for _ in range(n):
            f = step(f)
    except PjetError as e:
        return type(e)
    return f.terms, f.digits, f.base_order


class TestBorderCut:
    """The q-side phi and delta prune at the output base order while they
    compute; the unpruned route forms everything and cuts only in ``make``."""

    @given(case=laurent_jets())
    @settings(max_examples=60, deadline=None)
    def test_delta_matches_unpruned_route(self, case):
        f, n = case
        assert _iterate(delta, f, n) == _iterate(_delta_unpruned, f, n)

    @given(case=laurent_jets())
    @settings(max_examples=60, deadline=None)
    def test_phi_matches_unpruned_route(self, case):
        f, n = case
        assert _iterate(phi, f, n) == _iterate(_phi_unpruned, f, n)


@st.composite
def t_side_jets(draw):
    p = draw(st.sampled_from([5, 7]))
    keys = st.tuples(st.integers(0, 12), st.sampled_from([(), (1,), (2,), (0, 1), (1, 1)]))
    coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, p]))
    terms = draw(st.dictionaries(keys, coeffs, min_size=1, max_size=4))
    return JetSeries.make(p, "t", terms, N=draw(st.integers(1, 60)))


class TestTSideAgainstMultiprime:
    """The t-side phi and delta against the d=1 several-prime ring's phi_pk
    and delta_pk, which run through ghost coordinates instead."""

    @given(f=t_side_jets())
    @settings(max_examples=100, deadline=None)
    def test_phi_matches_phi_pk(self, f):
        from pjet.multiprime import from_jet_series, phi_pk, to_jet_series

        want = to_jet_series(phi_pk(from_jet_series(f), 0))
        assert phi(f).to_json() == want.to_json()

    @given(f=t_side_jets())
    @settings(max_examples=100, deadline=None)
    def test_delta_matches_delta_pk(self, f):
        from pjet.multiprime import delta_pk, from_jet_series, to_jet_series

        want = to_jet_series(delta_pk(from_jet_series(f), 0))
        assert delta(f).to_json() == want.to_json()


class TestWeightAction:
    def test_identity_weight(self):
        u = jq(5, {(1, ()): 1, (2, ()): 3})
        assert weight_action(u, Weight.single(1)) == u

    def test_phi_minus_one_on_q(self):
        got = weight_action(Q(5), Weight.make({1: 1, 0: -1}))
        assert got == jq(5, {(4, ()): 1, (-1, (1,)): 5})

    def test_minus_one_minus_phi(self):
        u = Q(5)
        got = weight_action(u, Weight.make({0: -1, 1: -1}))
        assert got == invert(u * phi(u))

    def test_group_like(self):
        u = Q(7)
        w1 = Weight.make({0: 2, 1: -1})
        w2 = Weight.make({0: -1, 2: 1})
        lhs = weight_action(u, w1 + w2)
        rhs = weight_action(u, w1) * weight_action(u, w2)
        assert lhs == rhs

    def test_windowed_unit(self):
        u = jq(5, {(0, ()): 1, (1, ()): 1})
        got = weight_action(u, Weight.single(-1), order=5)
        want = jq(5, {(e, ()): (-1) ** e for e in range(5)}, base_order=5)
        assert got == want


class TestInvert:
    def test_monomial(self):
        assert invert(jq(5, {(2, ()): 3})) == jq(5, {(-2, ()): Fraction(1, 3)})

    def test_requires_unit(self):
        with pytest.raises(NotInvertible):
            invert(jq(5, {(0, ()): 5}))

    def test_padic_tail_unit(self):
        u = jq(5, {(0, ()): 1, (0, (1,)): 5}, M=4)
        got = invert(u)
        assert got * u == jq(5, {(0, ()): 1}, M=4, digits=4)


class TestPsiFourier:
    def test_leading_terms(self):
        psi = psi_fourier(5, M=8, window=6)
        assert psi.terms[-1] == ((-5, (1,)), Fraction(1))
        assert dict(psi.terms)[(-10, (2,))] == Fraction(-5, 2)

    def test_rejects_small_primes(self):
        with pytest.raises(DomainError):
            psi_fourier(3, M=4, window=5)

    @pytest.mark.parametrize("p", [5, 7])
    def test_coefficient_valuations(self, p):
        from pjet.arith import valuation

        psi = psi_fourier(p, M=30, window=25)
        d = dict(psi.terms)
        for n in range(1, 26):
            c = d[(-p * n, (n,))]
            v = valuation(c, p)
            assert v == n - 1 - valuation(Fraction(n), p)
            assert v >= 0

    def test_exp_p_psi_recovers_frobenius_unit(self):
        # exp(p Psi) * q^p = q^p + p q', to the stated window and modulus
        p, W = 5, 30
        psi = psi_fourier(p, M=W + 2, window=W)
        x_coeffs = {}
        for (b, jets), c in psi.terms:
            n = jets[0]
            assert b == -p * n
            x_coeffs[n] = c * p
        univ = Series1.make("t", x_coeffs, N=W + 1)
        got = _exp_series(univ, order=W + 1)
        assert got == Series1.make("t", {0: Fraction(1), 1: Fraction(p)}, N=W + 1)


class TestPsiSerreTate:
    def test_hand_expansion_to_weight_eight(self):
        got = psi_serretate(5, N=8)
        want = jt(
            5,
            {
                (0, (1,)): 1,
                (1, ()): -1,
                (2, ()): Fraction(1, 2),
                (3, ()): Fraction(-1, 3),
                (4, ()): Fraction(1, 4),
                (6, ()): Fraction(1, 6),
                (7, ()): Fraction(-1, 7),
            },
            N=8,
        )
        assert got == want

    def test_leading_jet_term(self):
        psi = psi_serretate(7, N=9)
        assert dict(psi.terms)[(0, (1,))] == 1

    @pytest.mark.parametrize("p", [5, 7])
    def test_denominators_coprime_to_p(self, p):
        psi = psi_serretate(p, N=p * p + 1)
        assert all(c.denominator % p for _, c in psi.terms)


class TestLemmaChecks:
    @pytest.mark.parametrize("p,n,varphi", [(5, 1, 0), (5, 2, "symbolic"), (7, 1, 1)])
    def test_xlaphi_passes(self, p, n, varphi):
        rep = lemma_xlaphi_check(p, n, varphi)
        assert rep.passed, rep

    def test_xlaphi_sign_confirmed_by_base_case(self):
        # flipping the sign of the second displayed term must break n=1, varphi=0
        rep = lemma_xlaphi_check(5, 1, 0)
        assert rep.passed
        from pjet.deltajet import _classify_residual, _lemma_delta_n
        from pjet.sparse import add

        f = {((4,), ()): Fraction(1), ((-1, 1), ()): Fraction(5)}
        res = _lemma_delta_n(f, 5, 1, 4)
        res = add(
            res,
            {((-5, 5), ()): Fraction(-1)},
            {((15, 1), ()): Fraction(-1)},  # wrong sign on z^(p^2-2p) z'
        )
        bad = _classify_residual("xlaphi", 5, 1, res, low_jet=0, max_jet=2)
        assert not bad.passed

    @pytest.mark.parametrize("p,n,a", [(5, 1, 1), (5, 2, 3), (7, 1, 2)])
    def test_logder_passes(self, p, n, a):
        rep = lemma_logder_check(p, n, a)
        assert rep.passed, rep

    def test_logder_trivial_lambda(self):
        rep = lemma_logder_check(5, 2, 0)
        assert rep.passed
        assert rep.residual_terms == 0

    def test_report_json(self):
        rep = lemma_xlaphi_check(5, 1, 0)
        js = rep.to_json()
        assert js["pass"] is True and js["lemma"] == "xlaphi"


class TestJson:
    def test_roundtrip(self):
        psi = psi_fourier(5, M=8, window=5)
        assert JetSeries.from_json(psi.to_json()) == psi

    def test_t_side_roundtrip(self):
        s = psi_serretate(5, N=10)
        back = JetSeries.from_json(s.to_json())
        assert back == s and back.N == 10
