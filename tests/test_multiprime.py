"""Several-prime jet rings: structure maps, order-e builders, continuation."""

import os
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pjet.arith import PadicTrunc, binomial, cross_prime_commutator, fermat_delta
from pjet.cli import _dump as dump
from pjet.deltajet import psi_serretate
from pjet.errors import DomainError, OrderBudgetExceeded
from pjet.multiprime import (
    MultiJetSeries,
    _phi_pk_below,
    _subst,
    basis_independence_check,
    build_fe0,
    build_fe_k,
    continuation_check,
    delta_pk,
    exact_rank,
    from_jet_series,
    ghost_gamma,
    ghost_to_jet,
    jet_generator,
    jet_to_ghost,
    phi_pk,
    psi_multi,
    reduce_to_padic,
    substitute_gamma,
    t_generator,
    to_jet_series,
    var_weight,
    weight_keep,
)

P57 = (5, 7)
P5711 = (5, 7, 11)


def random_series(rng, P=P57, N=12, nterms=3, max_idx=1):
    d = len(P)
    terms = {}
    for _ in range(nterms):
        npairs = rng.randint(1, 2)
        pairs = []
        for _ in range(npairs):
            i = tuple(rng.randint(0, max_idx) for _ in range(d))
            pairs.append((i, rng.randint(1, 2)))
        c = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 4, 6]))
        if c:
            terms[tuple(pairs)] = c
    return MultiJetSeries.make(P, terms, N)


class TestBasisExchange:
    def test_roundtrip_on_random_series(self):
        rng = random.Random(3)
        from pjet.multiprime import weight_keep

        for _ in range(10):
            f = random_series(rng)
            keep = weight_keep(f.P, f.N)
            g = jet_to_ghost(dict(f.terms), f.P, keep)
            back = ghost_to_jet(g, f.P, keep)
            assert MultiJetSeries.make(f.P, back, f.N) == f

    def test_first_generator(self):
        # delta_5 t in ghost coordinates is (u_(1,0) - u_(0,0)^5) / 5
        from pjet.multiprime import _gen_ghost

        g = _gen_ghost(P57, (1, 0))
        assert g[(((1, 0), 1),)] == Fraction(1, 5)
        assert g[(((0, 0), 5),)] == Fraction(-1, 5)


class TestPhiPk:
    def test_generator_rule(self):
        t = t_generator(P57, 40)
        got = phi_pk(t, 0)
        want = MultiJetSeries.make(
            P57, {(((0, 0), 5),): 1, (((1, 0), 1),): 5}, 200
        )
        assert got == want

    def test_constant_fixed(self):
        c = MultiJetSeries.make(P57, {(): Fraction(2, 3)}, 20)
        assert phi_pk(c, 1) == c

    def test_lifts_commute_on_t(self):
        t = t_generator(P57, 40)
        a = phi_pk(phi_pk(t, 0), 1)
        b = phi_pk(phi_pk(t, 1), 0)
        assert a == b

    def test_lifts_commute_on_random_elements(self):
        rng = random.Random(5)
        for _ in range(5):
            f = random_series(rng, N=10)
            assert phi_pk(phi_pk(f, 0), 1) == phi_pk(phi_pk(f, 1), 0)

    def test_ring_homomorphism(self):
        rng = random.Random(9)
        a, b = random_series(rng), random_series(rng)
        assert phi_pk(a * b, 0) == phi_pk(a, 0) * phi_pk(b, 0)

    def test_order_budget(self):
        t = t_generator(P57, 40)
        with pytest.raises(OrderBudgetExceeded):
            phi_pk(phi_pk(t, 0), 0, max_order=(1, 1))


@st.composite
def series_terms(draw, P):
    d = len(P)
    top = 2 if d == 1 else 1
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        mono = tuple(
            (tuple(draw(st.integers(0, top)) for _ in range(d)), draw(st.integers(1, 3)))
            for _ in range(draw(st.integers(1, 2)))
        )
        terms[mono] = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 6)))
    return terms


@st.composite
def series_lift_and_bound(draw):
    P = draw(st.sampled_from([(5,), P57, P5711]))
    terms = draw(series_terms(P))
    N = draw(st.integers(1, 16))
    k = draw(st.integers(0, len(P) - 1))
    return MultiJetSeries.make(P, terms, N), k, draw(st.integers(1, N))


class TestTruncatedLift:
    @given(case=series_lift_and_bound())
    @settings(max_examples=40, deadline=None)
    def test_truncate_then_lift_matches_lift_then_truncate(self, case):
        f, k, bound = case
        got = _phi_pk_below(f, k, bound)
        want = phi_pk(f, k).truncate(bound)
        assert got.terms == want.terms and got.N == want.N == bound


class TestDeltaPk:
    def test_generator(self):
        t = t_generator(P57, 30)
        assert delta_pk(t, 0) == jet_generator(P57, (1, 0), 30)
        assert delta_pk(t, 1) == jet_generator(P57, (0, 1), 30)

    def test_integer_constant(self):
        c = MultiJetSeries.make(P57, {(): 2}, 20)
        assert delta_pk(c, 0) == MultiJetSeries.make(P57, {(): fermat_delta(2, 5)}, 20)

    def test_commutator_identity_on_t(self):
        t = t_generator(P57, 40)
        lhs = delta_pk(delta_pk(t, 1), 0) - delta_pk(delta_pk(t, 0), 1)
        rhs = cross_prime_commutator(t, delta_pk(t, 0), delta_pk(t, 1), 5, 7)
        assert lhs == rhs

    def test_commutator_identity_on_random_elements(self):
        rng = random.Random(11)
        for _ in range(4):
            f = random_series(rng, N=10, nterms=2)
            d0, d1 = delta_pk(f, 0), delta_pk(f, 1)
            lhs = delta_pk(d1, 0) - delta_pk(d0, 1)
            rhs = cross_prime_commutator(f, d0, d1, 5, 7)
            assert lhs == rhs

    def test_phi_delta_commute(self):
        rng = random.Random(13)
        f = random_series(rng, N=10, nterms=2)
        assert phi_pk(delta_pk(f, 0), 1).truncate(10) == delta_pk(
            phi_pk(f, 1).truncate(10), 0
        )


class TestBuildFe0:
    def test_d1_equals_one_prime_route(self):
        fe0 = build_fe0([5], 30)
        psi = from_jet_series(psi_serretate(5, 30))
        assert fe0 == MultiJetSeries.make((5,), dict(psi.terms), 30, 0)

    def test_d2_denominators_coprime_to_35(self):
        fe0 = build_fe0(P57, 50)
        for _, c in fe0.terms:
            assert c.denominator % 5 != 0 and c.denominator % 7 != 0

    def test_pure_t_part_matches_substitution_oracle(self):
        # Setting the jet variables to zero must reproduce the action of
        # (phi_1 - p_1)(phi_2 - p_2)/(p_1 p_2) with phi_n acting as t -> t^n.
        N = 50
        fe0 = build_fe0(P57, N)
        pure = {}
        for m, c in fe0.terms:
            if all(i == (0, 0) for i, _ in m):
                e = sum(e for _, e in m)
                pure[e] = c
        want = {}
        for n in range(1, N):
            c = Fraction((-1) ** (n - 1), n)
            for e, w in ((35 * n, Fraction(1, 35)), (5 * n, Fraction(-1, 5)),
                         (7 * n, Fraction(-1, 7)), (n, Fraction(1))):
                if e < N:
                    want[e] = want.get(e, Fraction(0)) + c * w
        want = {e: c for e, c in want.items() if c}
        assert pure == want

    def test_small_primes_rejected(self):
        with pytest.raises(DomainError):
            build_fe0([3, 5], 20)


class TestBuildFeK:
    def test_d1_is_psi(self):
        assert build_fe_k([5], 0, 30) == psi_multi((5,), 0, 30)

    def test_d2_formula_route(self):
        # -(1 - phi_7/7) Psi_5 expanded by hand from the operator definition
        N = 40
        psi5 = psi_multi(P57, 0, N)
        want = (phi_pk(psi5, 1).truncate(N) * Fraction(1, 7) - psi5)
        assert build_fe_k(P57, 0, N) == want

    @pytest.mark.parametrize("k", [0, 1])
    def test_agrees_with_fe0(self, k):
        N = 50
        assert build_fe_k(P57, k, N) == build_fe0(P57, N)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_d3_agrees_with_fe0(self, k):
        got, want = build_fe_k(P5711, k, 50), build_fe0(P5711, 50)
        assert got.terms == want.terms and got.N == want.N


class TestContinuation:
    def test_exact_roundtrip(self):
        fe01 = build_fe_k(P57, 0, 30)
        fe02 = build_fe_k(P57, 1, 30)
        res = continuation_check([fe01, fe02])
        assert res.ok
        assert res.f0 == build_fe0(P57, 30)

    def test_padic_roundtrip(self):
        rng = random.Random(17)
        f0 = random_series(rng, N=14, nterms=4)
        fam = [reduce_to_padic(f0, 0, 8), reduce_to_padic(f0, 1, 8)]
        res = continuation_check(fam, height=10_000)
        assert res.ok
        assert res.f0 == f0

    def test_perturbation_detected_with_witness(self):
        rng = random.Random(19)
        f0 = random_series(rng, N=14, nterms=4)
        fam = [reduce_to_padic(f0, 0, 8), reduce_to_padic(f0, 1, 8)]
        m0, c0 = fam[1].terms[0]
        bad = dict(fam[1].terms)
        bad[m0] = c0 + 1
        fam[1] = MultiJetSeries.make(P57, bad, 14, ring=2)
        res = continuation_check(fam, height=10_000)
        assert not res.ok
        assert res.witness == m0

    def test_exact_mismatch_witness(self):
        a = build_fe0(P57, 20)
        bad = dict(a.terms)
        m0 = a.terms[0][0]
        bad[m0] = bad[m0] + 1
        b = MultiJetSeries.make(P57, bad, 20, 0)
        res = continuation_check([a, b])
        assert not res.ok and res.witness == m0

    def test_height_miss_is_a_witness(self):
        m0 = (((0, 0), 1),)
        f0 = MultiJetSeries.make(P57, {m0: Fraction(12345, 2)}, 14)
        fam = [reduce_to_padic(f0, 0, 8), reduce_to_padic(f0, 1, 8)]
        res = continuation_check(fam, height=100)
        assert not res.ok and res.witness == m0

    def test_zero_digit_coefficient_raises(self):
        m0 = (((0, 0), 1),)
        f0 = MultiJetSeries.make(P57, {m0: 3}, 14)
        fam = [
            reduce_to_padic(f0, 0, 8),
            MultiJetSeries.make(P57, {m0: PadicTrunc(7, 8, 3, 0)}, 14, ring=2),
        ]
        with pytest.raises(DomainError):
            continuation_check(fam, height=10_000)


class TestBasisIndependence:
    def test_d1_rank_one(self):
        rep = basis_independence_check([5], [1], 30)
        assert rep.ok and rep.rank == 1

    def test_d1_rank_two(self):
        rep = basis_independence_check([5], [2], 30)
        assert rep.ok and rep.rank == 2

    def test_d2_rank_four(self):
        rep = basis_independence_check(P57, (2, 2), 50)
        assert rep.ok and rep.rank == 4

    @pytest.mark.parametrize("r, N", [((2, 2, 1), 50), ((3, 1, 1), 80)])
    def test_d3_full_rank(self, r, N):
        rep = basis_independence_check(P5711, r, N)
        assert rep.ok and rep.rank == rep.expected

    def test_exact_rank_helper(self):
        rows = [
            [Fraction(1), Fraction(2), Fraction(0)],
            [Fraction(2), Fraction(4), Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(1)],
        ]
        assert exact_rank(rows) == 2


def _gamma_image(gamma, P, N):
    """u_i -> sum_n C(gamma, n) u_i^n as Fraction polynomials, for ``_subst``."""

    def image(i):
        top = (N - 1) // var_weight(i, P)
        return {((i, n),): Fraction(binomial(gamma, n)) for n in range(1, top + 1)}

    return image


def _subst_gamma_reference(f, gamma):
    """``substitute_gamma`` through the Fraction route ``_subst``."""
    keep = weight_keep(f.P, f.N)
    g = _subst(jet_to_ghost(f._poly(), f.P, keep), f.P, _gamma_image(gamma, f.P, f.N), keep)
    return MultiJetSeries.make(f.P, ghost_to_jet(g, f.P, keep), f.N, f.ring)


@st.composite
def gammas(draw, p):
    return draw(
        st.one_of(
            st.integers(-12, -2),
            st.integers(2, 12),
            st.integers(-3, 3).map(lambda s: p**6 + s),
        )
    )


@st.composite
def series_and_gamma(draw):
    P = draw(st.sampled_from([(5,), P57, P5711]))
    f = MultiJetSeries.make(P, draw(series_terms(P)), draw(st.integers(1, 40)))
    return f, draw(st.integers(0, len(P) - 1)), draw(gammas(P[0]))


def same(a, b):
    return a.terms == b.terms and a.N == b.N


class TestSubstituteGamma:
    @given(case=series_and_gamma())
    @settings(max_examples=40, deadline=None)
    def test_matches_fraction_route(self, case):
        f, _, gamma = case
        assert same(substitute_gamma(f, gamma), _subst_gamma_reference(f, gamma))

    @given(case=series_and_gamma())
    @example(case=(MultiJetSeries.make((5,), {(((0,), 1), ((1,), 1)): 1}, 8), 0, 3))
    @settings(max_examples=40, deadline=None)
    def test_ghost_step_matches_subst(self, case):
        f, _, gamma = case
        keep = weight_keep(f.P, f.N)
        g = jet_to_ghost(f._poly(), f.P, keep)
        want = _subst(g, f.P, _gamma_image(gamma, f.P, f.N), keep)
        assert ghost_gamma(g, f.P, gamma, f.N) == want

    @given(case=series_and_gamma(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_composition(self, case, data):
        f, _, g1 = case
        g2 = data.draw(gammas(f.P[-1]))
        assert same(substitute_gamma(substitute_gamma(f, g2), g1), substitute_gamma(f, g1 * g2))

    @given(case=series_and_gamma(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_multiplicative(self, case, data):
        f, _, gamma = case
        h = MultiJetSeries.make(f.P, data.draw(series_terms(f.P)), f.N)
        assert same(substitute_gamma(f * h, gamma), substitute_gamma(f, gamma) * substitute_gamma(h, gamma))

    @given(case=series_and_gamma(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_commutes_with_lifts(self, case, data):
        f, k, gamma = case
        bound = data.draw(st.integers(1, f.N))
        assert same(
            substitute_gamma(_phi_pk_below(f, k, bound), gamma),
            _phi_pk_below(substitute_gamma(f, gamma), k, bound),
        )

    @given(P=st.sampled_from([(5,), P57, P5711]), N=st.integers(1, 30), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_image_of_t_is_binomial_series(self, P, N, data):
        gamma = data.draw(gammas(P[0]))
        zero = (0,) * len(P)
        want = {((zero, n),): binomial(gamma, n) for n in range(1, N)}
        assert same(substitute_gamma(t_generator(P, N), gamma), MultiJetSeries.make(P, want, N))

    @pytest.mark.parametrize(
        "fname, build, gamma",
        [
            ("subst_gamma24_fe0_P5_7_N30.json", lambda: build_fe0(P57, 30), 24),
            ("subst_gamma2585672_psi_P13_N20.json", lambda: psi_multi((13,), 0, 20), 2585672),
        ],
    )
    def test_payload_bytes_pinned(self, fname, build, gamma):
        path = os.path.join(os.path.dirname(__file__), "golden", fname)
        with open(path, encoding="utf-8") as fh:
            assert dump(substitute_gamma(build(), gamma).to_json()) == fh.read()

    def test_psi_is_eigenvector(self):
        psi = psi_multi((5,), 0, 25)
        assert substitute_gamma(psi, 2) == psi * 2
        assert substitute_gamma(psi, 3) == psi * 3

    def test_fe0_is_eigenvector(self):
        fe0 = build_fe0(P57, 30)
        assert substitute_gamma(fe0, 2) == fe0 * 2

    def test_t_is_not(self):
        t = t_generator((5,), 10, ring=1)
        got = substitute_gamma(t, 2)
        assert got != t * 2

    def test_roots_of_unity_rejected(self):
        with pytest.raises(DomainError):
            substitute_gamma(t_generator(P57, 10), 1)


class TestBridges:
    def test_jet_series_roundtrip(self):
        psi = psi_serretate(5, 20)
        assert to_jet_series(from_jet_series(psi)) == psi

    def test_json_roundtrip(self):
        fe0 = build_fe0(P57, 30)
        assert MultiJetSeries.from_json(fe0.to_json()) == fe0

    def test_padic_json_roundtrip(self):
        f = reduce_to_padic(build_fe0(P57, 20), 0, 6)
        assert MultiJetSeries.from_json(f.to_json()) == f
