"""Newform-attached series, the order-2e builders, isogeny covariance."""

import os
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _helpers import (
    build_f2e0_fraction,
    build_f2e_k_fraction,
    corner_scalars,
    covariance_check_fraction,
    delta_axiomatic,
    digits_keep,
    fourier_to_deformation_uncut,
    from_terms,
    fsharp_expansion_fraction,
    fsharp_expansion_weight_filter,
    invert_unit,
    one_plus_u_pow_sum_comb,
    tuple_terms_phi,
)
from pjet import forms
from pjet.arith import PadicTrunc, valuation
from pjet.cli import _dump as dump
from pjet.deltajet import JetSeries, psi_fourier, psi_serretate
from pjet.errors import DomainError, IntegralityViolation
from pjet.forms import (
    build_f2e0,
    build_f2e_k,
    covariance_check,
    delta_fourier_expand,
    fourier_to_deformation,
    fsharp_expansion,
)
from pjet.modular import (
    CURVE_11A1,
    QExpansion,
    ap_point_count,
    eisenstein,
    newform_coefficients,
)
from pjet.multiprime import (
    MultiJetSeries,
    _corners,
    build_fe0,
    build_fe_k,
    continuation_check,
    delta_pk,
    from_jet_series,
    layout,
    psi_multi,
    t_generator,
)
from pjet.sparse import add, scale

AN40 = newform_coefficients(CURVE_11A1, 40, bad_values={11: 1})
A5 = ap_point_count(CURVE_11A1, 5)
A13 = ap_point_count(CURVE_11A1, 13)


class TestDeltaFourierExpand:
    def test_zero_iterations_is_embedding(self):
        from pjet.modular import discriminant_delta

        d = discriminant_delta(8)
        got = delta_fourier_expand(d, 0, 5, 6)
        assert got == JetSeries.make(
            5, {(e, ()): c for e, c in d.series.terms}, base_order=8
        )

    def test_dual_path_on_eisenstein(self):
        e4 = eisenstein(4, 6)
        got = delta_fourier_expand(e4, 1, 5, 8)
        emb = JetSeries.make(5, {(e, ()): c for e, c in e4.series.terms})
        assert got == delta_axiomatic(emb)

    def test_constant_reduces_to_fermat_chain(self):
        from pjet.arith import fermat_delta

        f = QExpansion.make(0, {0: Fraction(2)}, 5)
        got = delta_fourier_expand(f, 2, 5, 8)
        assert got == JetSeries.make(5, {(0, ()): fermat_delta(fermat_delta(2, 5), 5)})

    def test_non_integral_coefficients_rejected(self):
        f = QExpansion.make(0, {1: Fraction(1, 5)}, 4)
        with pytest.raises(DomainError):
            delta_fourier_expand(f, 1, 5, 6)


class TestFsharp:
    def test_single_term_matches_operator_formula(self):
        # with a_1 = 1 and all other a_n = 0 the sum collapses to its n=1 term
        p, W = 5, 25
        an = [1] + [0] * (W - 1)
        got = fsharp_expansion(an, 7, p, M=20, window=W, check=False)
        q = {((1,), ()): Fraction(1)}
        phi1 = tuple_terms_phi(q, p, digits_keep(p), 0)
        phi2 = tuple_terms_phi(phi1, p, digits_keep(p), 0)
        want = scale(add(phi2, scale(phi1, -7), scale(q, p)), Fraction(1, p))
        assert got == JetSeries.make(p, from_terms(want))

    def test_eleven_a_one_is_13_integral(self):
        fs = fsharp_expansion(AN40[:30], A13, 13, M=6, window=30)
        assert all(valuation(c, 13) >= 0 for _, c in fs.terms)

    def test_pure_part_is_hecke_collapse(self):
        fs = fsharp_expansion(AN40[:30], A13, 13, M=6, window=30)
        pure = {b: c for (b, jets), c in fs.terms if jets == ()}
        want = {
            m: Fraction(AN40[m - 1], m)
            for m in range(1, 31)
            if m % 13 and AN40[m - 1]
        }
        assert pure == want

    def test_window_consistency(self):
        small = fsharp_expansion(AN40[:20], A13, 13, M=6, window=20)
        large = fsharp_expansion(AN40[:30], A13, 13, M=6, window=30)
        wt = lambda b, jets: b + sum(e * 13**i for i, e in enumerate(jets, 1))  # noqa: E731
        trimmed = {m: c for m, c in large.terms if wt(*m) <= 20}
        assert trimmed == dict(small.terms)

    def test_hecke_inconsistent_input_violates_integrality(self):
        # a_1 = 1 with a_5 = 0 in the list but a_p = 1 leaves -a_p/5 at q^5
        an = [1] + [0] * 19
        with pytest.raises(IntegralityViolation):
            fsharp_expansion(an, 1, 5, M=6, window=20)

    def test_short_coefficient_list_rejected(self):
        with pytest.raises(DomainError):
            fsharp_expansion([1, 2], A13, 13, M=6, window=10)

    @pytest.mark.parametrize("M, window", [(0, 10), (6, 0), (-1, 10)])
    def test_ranges_below_one_refused(self, M, window):
        # as psi_fourier: at M = 0 no digit of the payload would be guaranteed
        name, value = ("M", M) if M < 1 else ("window", window)
        with pytest.raises(DomainError, match=f"{name} must be at least 1, got {value}"):
            fsharp_expansion(AN40[:10], A5, 5, M=M, window=window)

    def test_ranges_of_one_accepted(self):
        assert fsharp_expansion(AN40[:1], A5, 5, M=1, window=1).to_json()["M"] == 1


class TestFsharpCrossRoute:
    """fsharp's power loop and sum in packed integers against the route of
    tuple-monomial products and Fraction sums (``tests/_helpers.py``)."""

    @pytest.mark.parametrize("window, M", [(30, 6), (20, 4), (12, 8)])
    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
    def test_same_bytes(self, p, window, M):
        an, a_p = AN40[:window], AN40[p - 1]
        got = fsharp_expansion(an, a_p, p, M=M, window=window)
        assert dump(got.to_json()) == dump(fsharp_expansion_fraction(an, a_p, p, M=M, window=window).to_json())

    def test_same_integrality_violation(self):
        an = [1] + [0] * 19
        with pytest.raises(IntegralityViolation) as want:
            fsharp_expansion_fraction(an, 1, 5, M=6, window=20)
        with pytest.raises(IntegralityViolation) as got:
            fsharp_expansion(an, 1, 5, M=6, window=20)
        assert str(got.value) == str(want.value) == "coefficient -1/5 at (5, ()) is not 5-integral"


class TestFsharpHomogeneity:
    """fsharp keeps phi(q)**n while n p <= window and phi^2(q)**n while
    n p^2 <= window, whole; the reference filters every product term by
    weight (``tests/_helpers.py``)."""

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_windows_at_a_power_border(self, p, shift):
        # n p or n p^2 lands on window - 1, window or window + 1
        for window in (p + shift, 2 * p + shift, 3 * p + shift, p * p + shift):
            an = AN40[:window] + [1] * (window - 40)
            args = (an, 3, p, 20, window)
            got = fsharp_expansion(*args, check=False).to_text()
            assert got == fsharp_expansion_weight_filter(*args, check=False).to_text()

    @given(
        p=st.sampled_from([5, 7, 11, 13]),
        window=st.integers(1, 60),
        M=st.integers(1, 40),
        a_p=st.integers(-9, 9),
        an=st.lists(st.integers(-20, 20), min_size=60, max_size=60),
    )
    @settings(max_examples=120, deadline=None)
    def test_same_bytes_as_weight_filter(self, p, window, M, a_p, an):
        got = fsharp_expansion(an[:window], a_p, p, M, window, check=False).to_text()
        assert got == fsharp_expansion_weight_filter(an[:window], a_p, p, M, window, check=False).to_text()


class TestF2e:
    def test_d1_consistent_with_fsharp_transcription(self):
        # pad the coefficient list with zeros so both routes share every
        # summand, then transcribe the Fourier-side series into the
        # deformation ring and compare coefficientwise
        an = AN40[:3]
        W = 75
        an_pad = an + [0] * (W - len(an))
        fs = fsharp_expansion(an_pad, A5, 5, M=40, window=W, check=False)
        assert fourier_to_deformation(fs, 20) == build_f2e0(an_pad, [5], [A5], 20)

    def test_d1_empty_operator_product(self):
        # with a single prime the away-factors vanish and both routes are the
        # order-2 transcription itself
        got = build_f2e_k(AN40[:20], [13], 0, [A13], 25)
        assert got == build_f2e0(AN40[:20], [13], [A13], 25)

    def test_d2_per_prime_routes_agree_with_common(self):
        f2e0 = build_f2e0(AN40, [5, 13], [A5, A13], 40)
        assert build_f2e_k(AN40, [5, 13], 0, [A5, A13], 40) == f2e0
        assert build_f2e_k(AN40, [5, 13], 1, [A5, A13], 40) == f2e0

    def test_zero_form(self):
        assert build_f2e0([0] * 20, [5, 13], [0, 0], 30) == MultiJetSeries.make(
            (5, 13), {}, 30
        )

    def test_truncation_keeps_denominators(self):
        # at finite truncation the low-weight coefficients have not
        # stabilized, so prime denominators survive; they are reported,
        # not hidden
        f2e0 = build_f2e0(AN40, [5, 13], [A5, A13], 40)
        wits = [(m, c) for m, c in f2e0.terms if any(c.denominator % p == 0 for p in (5, 13))]
        assert wits, "truncated series unexpectedly integral"

    def test_perturbed_ap_detected_by_continuation(self):
        good = build_f2e_k(AN40, [5, 13], 0, [A5, A13], 30)
        bad = build_f2e_k(AN40, [5, 13], 1, [A5 + 1, A13], 30)
        res = continuation_check([good, bad])
        assert not res.ok and res.witness is not None

    @pytest.mark.parametrize("P", [(9,), (13, 9)])
    def test_non_prime_refused(self, P):
        ap = [0] * len(P)
        with pytest.raises(DomainError, match="9 is not a prime"):
            build_f2e0(AN40, P, ap, 10)
        with pytest.raises(DomainError, match="9 is not a prime"):
            build_f2e_k(AN40, P, 0, ap, 10)


class TestCovariance:
    @pytest.mark.parametrize("p,gamma", [(5, 2), (5, 3), (5, 7), (7, 2), (7, 3)])
    def test_psi_passes_degree_one(self, p, gamma):
        rep = covariance_check(psi_serretate(p, 30), gamma, 1)
        assert rep.passed is True

    def test_gamma_congruent_zero_or_one_rejected(self):
        with pytest.raises(DomainError):
            covariance_check(psi_serretate(7, 20), 7, 1)
        with pytest.raises(DomainError):
            covariance_check(psi_serretate(5, 20), 11, 1)

    @pytest.mark.parametrize("gamma", [2, 3])
    def test_fe0_passes_degree_one(self, gamma):
        rep = covariance_check(build_fe0([5, 7], 30), gamma, 1)
        assert rep.passed is True

    def test_t_fails_with_witness(self):
        rep = covariance_check(t_generator((5,), 10, ring=1), 2, 1)
        assert rep.passed is False
        assert rep.witness == (((0,), 2),)  # the t^2 monomial

    @pytest.mark.parametrize("gamma", [2, 3])
    def test_f2e0_not_covariant(self, gamma):
        f2e0 = build_f2e0(AN40[:30], [5, 13], [A5, A13], 30)
        rep = covariance_check(f2e0, gamma, 1)
        assert rep.passed is False and rep.witness is not None

    def test_degrees_add_under_multiplication(self):
        psi = psi_serretate(5, 30)
        sq = from_jet_series(psi) * from_jet_series(psi)
        rep = covariance_check(sq, 2, 2)
        assert rep.passed is True
        assert covariance_check(sq, 2, 1).passed is False

    def test_degree_zero_constant(self):
        one = MultiJetSeries.make((5,), {(): 1}, 10)
        assert covariance_check(one, 2, 0).passed is True

    def test_indeterminate_on_empty_series(self):
        empty = MultiJetSeries.make((5,), {}, 2)
        rep = covariance_check(empty, 2, 1)
        assert rep.passed is None

    def test_padic_gamma_path(self):
        gamma = PadicTrunc.from_rational(2, 5, 6)
        rep = covariance_check(psi_serretate(5, 20), gamma, 1)
        assert rep.passed is True
        bad = covariance_check(t_generator((5,), 10, ring=1), gamma, 1)
        assert bad.passed is False

    def test_report_json(self):
        rep = covariance_check(psi_serretate(5, 15), 2, 1)
        js = rep.to_json()
        assert js == {"gamma": 2, "nu": 1, "pass": True, "witness": None}


@st.composite
def padic_covariance_case(draw):
    """A d=1 series, a p-adic gamma avoiding 0 and 1 mod p, nu, and the k of
    a lift r + k p^digits of gamma's representative r."""
    p = draw(st.sampled_from((5, 7, 11)))
    var = st.tuples(st.integers(0, 2).map(lambda a: (a,)), st.integers(1, 3))
    coeff = st.builds(Fraction, st.integers(-50, 50), st.sampled_from((1, 2, p, p * p, 3 * p)))
    terms = draw(st.dictionaries(st.lists(var, max_size=2).map(tuple), coeff, max_size=4))
    F = MultiJetSeries.make((p,), terms, draw(st.integers(1, 30)), 1)
    digits = draw(st.integers(1, 6))
    r = draw(st.integers(0, p**digits - 1).filter(lambda r: r % p > 1))
    return F, PadicTrunc(p, 6, r, digits), draw(st.integers(0, 3)), draw(st.integers(1, p * p))


GHOST_PRIMES = [(5,), (13,), (5, 13), (7, 11), (5, 7, 11)]


@st.composite
def f2e_case(draw):
    """A prime set of d = 1, 2 or 3, a_n for n <= n_max and a_p drawn apart
    (a_p = 0 included), N from 0 (the zero ring) to past n_max; a negative N
    is refused (``TestNegativeN``)."""
    P = draw(st.sampled_from(GHOST_PRIMES))
    an = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=45))
    ap = [draw(st.integers(-4, 4)) for _ in P]
    return an, P, ap, draw(st.integers(0, 45))


def same_bytes(a: MultiJetSeries, b: MultiJetSeries) -> bool:
    return dump(a.to_json()) == dump(b.to_json())


class TestIntegerGhostRoutes:
    """The integer ghost-side builders and comparison against the Fraction
    routes they replaced (``tests/_helpers.py``)."""

    CASES = [
        pytest.param(AN40, (5, 13), [A5, A13], 40, id="d2"),
        pytest.param(AN40, (5, 13), [0, A13], 40, id="a_p-zero"),
        pytest.param(AN40, (5, 7, 11), [0, 0, 0], 40, id="d3-all-a_p-zero"),
        pytest.param(AN40[:10], (5, 13), [A5, A13], 40, id="n_max-below-top"),
        pytest.param(AN40, (5, 13), [A5, A13], 12, id="n_max-above-top"),
        pytest.param(AN40[:30], (5, 7), [1, -2], 20, id="no-field-past-u_1"),
        pytest.param(AN40[:30], (13,), [A13], 30, id="d1"),
        pytest.param(AN40[:30], (5, 7, 11), [1, -2, 3], 30, id="d3"),
        pytest.param(AN40[:30], (5, 13), [A5, A13], 1, id="N1"),
        pytest.param(AN40[:30], (5, 13), [A5, A13], 0, id="N0"),
    ]

    @pytest.mark.parametrize("an, P, ap, N", CASES)
    def test_f2e0_matches_fraction_route(self, an, P, ap, N):
        assert same_bytes(build_f2e0(an, P, ap, N), build_f2e0_fraction(an, P, ap, N))

    @pytest.mark.parametrize("an, P, ap, N", CASES)
    def test_f2e_k_matches_fraction_route(self, an, P, ap, N):
        for k in range(len(P)):
            assert same_bytes(build_f2e_k(an, P, k, ap, N), build_f2e_k_fraction(an, P, k, ap, N))

    @given(case=f2e_case())
    @settings(max_examples=40, deadline=None)
    def test_random_builders_match_fraction_routes(self, case):
        an, P, ap, N = case
        assert same_bytes(build_f2e0(an, P, ap, N), build_f2e0_fraction(an, P, ap, N))
        k = len(an) % len(P)
        assert same_bytes(build_f2e_k(an, P, k, ap, N), build_f2e_k_fraction(an, P, k, ap, N))

    @given(case=f2e_case())
    @settings(max_examples=40, deadline=None)
    def test_horner_sum_matches_comb_sum(self, case):
        # the Horner list, placed on each corner by ``_corners``, against the
        # coefficients summed with ``math.comb`` once per top degree
        an, P, ap, N = case
        L = layout(P, N)
        polys = [(p, -a, 1) for p, a in zip(P, ap)]
        acc, den = forms._one_plus_u_pow_sum(an, N)
        assert all(type(x) is int for x in acc) and len(acc) == min(len(an), max(N - 1, 0)) + 1
        num = _corners(L, polys, acc)
        want = one_plus_u_pow_sum_comb(an, {j: Fraction(c) for j, c in corner_scalars(polys).items() if c}, L, len(an))
        assert {m: Fraction(x, den) for m, x in num.items() if x} == want

    COVARIANCE_INPUTS = [
        pytest.param(lambda: build_fe0([5], 30), id="fe0-d1"),
        pytest.param(lambda: build_fe0([5, 7], 30), id="fe0-d2"),
        pytest.param(lambda: build_fe0([5, 7, 11], 30), id="fe0-d3"),
        pytest.param(lambda: build_f2e0(AN40[:20], [13], [A13], 20), id="f2e0-d1"),
        pytest.param(lambda: build_f2e0(AN40[:20], [5, 13], [A5, A13], 20), id="f2e0-d2"),
        pytest.param(lambda: build_f2e0(AN40[:20], [7, 11, 13], [1, 0, A13], 20), id="f2e0-d3"),
        pytest.param(lambda: from_jet_series(psi_serretate(7, 25)), id="psi"),
        pytest.param(lambda: t_generator((5, 7), 12), id="t"),
        pytest.param(lambda: MultiJetSeries.make((5,), {}, 10), id="empty"),
    ]

    @pytest.mark.parametrize("build", COVARIANCE_INPUTS)
    @pytest.mark.parametrize("nu", [-2, 0, 1, 2])
    def test_covariance_matches_series_difference(self, build, nu):
        F = build()
        for gamma in (2, -3):
            if any(gamma % p in (0, 1) for p in F.P):
                continue
            got, want = covariance_check(F, gamma, nu), covariance_check_fraction(F, gamma, nu)
            assert got == want and dump(got.to_json()) == dump(want.to_json())

    @pytest.mark.parametrize("nu", [0, 1, 2])
    def test_padic_digits_count_over_the_denominator(self, nu):
        # t + x_1/5 at p 5: the jet difference has 5 in its denominator, so a
        # term that misses the digits by less than v_5(den) is still bad, and
        # at nu = 1 the witness is t^2, not the x_1 term's t^5
        F = MultiJetSeries.make((5,), {(((0,), 1),): 1, (((1,), 1),): Fraction(1, 5)}, 6)
        gamma = PadicTrunc(5, 6, 2, 4)
        got = covariance_check(F, gamma, nu)
        assert got == covariance_check_fraction(F, gamma, nu) and got.passed is False
        assert got.witness == ((((0,), 1),), (((0,), 2),), (((0,), 1),))[nu]

    @pytest.mark.parametrize("residue", [7, 1, 5])
    def test_padic_gamma_with_no_guaranteed_digit_refused(self, residue):
        # refused before its residue is read: 0 digits leave no class mod p
        F = from_jet_series(psi_serretate(5, 20))
        with pytest.raises(DomainError, match="gamma has no guaranteed digit"):
            covariance_check(F, PadicTrunc(5, 6, residue, 0), 1)

    @pytest.mark.parametrize("nu", [-2, 0, 1, 2])
    def test_padic_gamma_with_digit_loss(self, nu):
        # at N 30 the binomials C(gamma, n), n < 30, lose v_5(25) = 2 digits
        # and Psi's ghost coefficients 1/(5n) two more: gamma known to 6
        # digits compares mod 5^2, and one known to 4 digits decides nothing
        F = from_jet_series(psi_serretate(5, 30))
        for gamma, decided in ((PadicTrunc.from_rational(2, 5, 6), True), (PadicTrunc.from_rational(Fraction(-1, 3), 5, 4), False)):
            got, want = covariance_check(F, gamma, nu), covariance_check_fraction(F, gamma, nu)
            assert got == want and dump(got.to_json()) == dump(want.to_json())
            assert got.passed is ((nu == 1) if decided else None)

    def test_padic_gamma_claims_no_digit_it_lacks(self):
        # Psi has weight 1: with gamma 7 known to 6 digits, nu 3 fails at t
        psi = from_jet_series(psi_serretate(5, 30))
        rep = covariance_check(psi, PadicTrunc(5, 6, 7, 6), 3)
        assert rep.passed is False and rep.witness == (((0,), 1),)
        # 4 x_1 at p 7, N 8: lam = 1 and its ghost image (4/7)(u_1 - u_0^7)
        # costs one more, so gamma known to 1 digit decides nothing
        F = MultiJetSeries.make((7,), {(((1,), 1),): 4}, 8, 1)
        rep = covariance_check(F, PadicTrunc(7, 6, 6, 1), 0)
        assert rep.to_json()["pass"] is None and rep.witness is None

    @given(case=padic_covariance_case())
    @example(case=(MultiJetSeries.make((7,), {(((1,), 1),): 4}, 8, 1), PadicTrunc(7, 6, 6, 1), 0, 6))
    @example(case=(from_jet_series(psi_serretate(5, 30)), PadicTrunc(5, 6, 7, 6), 3, 1))
    @settings(max_examples=150, deadline=None)
    def test_every_lift_of_gamma_gives_the_same_verdict(self, case):
        # the check compares mod the power of p that every lift shares, so a
        # lift r + k p^digits of the representative r decides the same way
        F, gamma, nu, k = case
        rep = covariance_check(F, gamma, nu)
        lift = gamma.residue % gamma.p**gamma.digits + k * gamma.p**gamma.digits
        other = forms._compare(F, lift, lift, nu, gamma.digits)
        assert (rep.passed, rep.witness) == (other.passed, other.witness)

    def test_failing_reports_name_the_same_witness(self):
        f2e0 = build_f2e0(AN40[:30], [5, 13], [A5, A13], 30)
        for F, nu in ((f2e0, 1), (f2e0, 2), (t_generator((5,), 10, ring=1), 1)):
            got = covariance_check(F, 2, nu)
            assert got.passed is False and got.witness is not None
            assert got == covariance_check_fraction(F, 2, nu)

    def test_empty_series_passes_null(self):
        rep = covariance_check(MultiJetSeries.make((5, 7), {}, 20), 2, 1)
        assert rep.to_json()["pass"] is None and rep.witness is None

    def test_gamma_minus_one_rejected(self):
        with pytest.raises(DomainError, match="root of unity"):
            covariance_check(psi_serretate(5, 20), -1, 1)

    @given(P=st.sampled_from(GHOST_PRIMES[2:]), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_covariance_matches_series_difference(self, P, data):
        n = data.draw(st.integers(0, 4))
        terms = {
            tuple(
                (tuple(data.draw(st.integers(0, 1)) for _ in P), data.draw(st.integers(1, 3)))
                for _ in range(data.draw(st.integers(1, 2)))
            ): Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 6)))
            for _ in range(n)
        }
        F = MultiJetSeries.make(P, terms, data.draw(st.integers(1, 30)))
        gamma = data.draw(st.integers(-40, 40))
        assume(gamma != -1 and all(gamma % p not in (0, 1) for p in P))
        nu = data.draw(st.sampled_from([-2, 0, 1, 2]))
        assert covariance_check(F, gamma, nu) == covariance_check_fraction(F, gamma, nu)


def reference_transcription(f: JetSeries, N: int) -> MultiJetSeries:
    """q -> 1 + t by repeated products, with negative powers through the
    geometric inverse of the unit."""
    P = (f.p,)
    images = [t_generator(P, N) + 1]
    for _ in range(f.r()):
        images.append(delta_pk(images[-1], 0))
    inv0 = invert_unit(images[0])
    out = MultiJetSeries.make(P, {}, N)
    for (b, jets), c in f.terms:
        acc = inv0 ** -b if b < 0 else images[0] ** b
        for i, e in enumerate(jets, start=1):
            acc = acc * images[i] ** e
        out = out + acc * Fraction(c)
    return out


@st.composite
def q_series(draw):
    p = draw(st.sampled_from([5, 7]))
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        b = draw(st.integers(-12, 4))
        jets = tuple(draw(st.integers(0, 2)) for _ in range(draw(st.integers(0, 2))))
        terms[(b, jets)] = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
    return JetSeries.make(p, terms), draw(st.integers(1, 14))


NEGATIVE_N_BUILDERS = [
    pytest.param(lambda N: build_fe0((5, 7), N), id="build_fe0"),
    pytest.param(lambda N: build_fe_k((5, 7), 1, N), id="build_fe_k"),
    pytest.param(lambda N: psi_multi((5, 7), 1, N), id="psi_multi"),
    pytest.param(lambda N: psi_serretate(5, N), id="psi_serretate"),
    pytest.param(lambda N: build_f2e0(AN40[:12], (5, 13), (A5, A13), N), id="build_f2e0"),
    pytest.param(lambda N: build_f2e_k(AN40[:12], (5, 13), 1, (A5, A13), N), id="build_f2e_k"),
    pytest.param(lambda N: fourier_to_deformation(psi_fourier(5, M=8, window=6), N), id="fourier_to_deformation"),
]


class TestNegativeN:
    """Every several-prime builder goes through ``multiprime.Layout``, which
    refuses a negative N; N = 0 is the zero ring."""

    @pytest.mark.parametrize("build", NEGATIVE_N_BUILDERS)
    def test_refused(self, build):
        with pytest.raises(DomainError, match="N must be at least 0, got -1"):
            build(-1)

    @pytest.mark.parametrize("build", NEGATIVE_N_BUILDERS)
    def test_zero_is_the_zero_ring(self, build):
        f = build(0)
        assert f.N == 0 and f.terms == ()


class TestSideGuards:
    """Each side's maps refuse a series of the other side by its type."""

    @pytest.mark.parametrize("f", [lambda: psi_fourier(5, 8, 5), lambda: "t"], ids=["q-side", "str"])
    def test_covariance_check_needs_a_t_side_series(self, f):
        with pytest.raises(DomainError, match="expected a t-side jet series"):
            covariance_check(f(), 2, 1)

    @pytest.mark.parametrize("f", [lambda: psi_fourier(5, 8, 5), lambda: t_generator((5,), 10, ring=1)], ids=["q-side", "plain"])
    def test_bridge_takes_only_a_t_series(self, f):
        with pytest.raises(DomainError, match="expected a t-side jet series"):
            from_jet_series(f())

    def test_fourier_to_deformation_needs_a_q_side_series(self):
        with pytest.raises(DomainError, match="expected a Fourier-side jet series"):
            fourier_to_deformation(psi_serretate(5, 10), 10)


class TestTranscription:
    @pytest.mark.parametrize("p", [5, 7])
    def test_matches_reference_on_psi_fourier(self, p):
        f = psi_fourier(p, M=8, window=20)
        got, want = fourier_to_deformation(f, 20), reference_transcription(f, 20)
        assert got.terms == want.terms and got.N == want.N

    @given(case=q_series())
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_on_random_series(self, case):
        f, N = case
        got, want = fourier_to_deformation(f, N), reference_transcription(f, N)
        assert got.terms == want.terms and got.N == want.N

    def test_psi_fourier_maps_to_psi_serretate(self):
        got = fourier_to_deformation(psi_fourier(5, M=32, window=30), 30)
        assert got == from_jet_series(psi_serretate(5, 30))

    def test_base_only_series(self):
        f = JetSeries.make(5, {(2, ()): 1, (-1, ()): 3})
        img = fourier_to_deformation(f, 8)
        t = t_generator((5,), 8)
        assert img == (t + 1) ** 2 + invert_unit(t + 1) * 3


@st.composite
def deep_q_series(draw):
    """p 5..13, up to three jets with exponents up to 4, base exponents
    -30..10, N 0..60."""
    p = draw(st.sampled_from([5, 7, 11, 13]))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        b = draw(st.integers(-30, 10))
        jets = tuple(draw(st.integers(0, 4)) for _ in range(draw(st.integers(0, 3))))
        terms[(b, jets)] = Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 30)))
    return JetSeries.make(p, terms), draw(st.integers(0, 60))


def assert_bytes_match_uncut(f, N):
    got = fourier_to_deformation(f, N)
    assert dump(got.to_json()) == dump(fourier_to_deformation_uncut(f, N).to_json())
    return got


class TestHornerTranscription:
    """The Horner route of ``fourier_to_deformation`` against the term-by-term
    reference, and the integrality it relies on."""

    GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

    @pytest.mark.parametrize("p", [5, 7])
    def test_payload_bytes_pinned(self, p):
        path = os.path.join(self.GOLDEN_DIR, f"f2d_psi_p{p}_M20_w20_N20.json")
        with open(path, encoding="utf-8") as fh:
            assert dump(fourier_to_deformation(psi_fourier(p, 20, 20), 20).to_json()) == fh.read()

    @given(case=deep_q_series())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_with_three_jets(self, case):
        f, N = case
        got, want = fourier_to_deformation(f, N), reference_transcription(f, N)
        assert got.terms == want.terms and (got.P, got.N, got.ring) == (want.P, want.N, want.ring)

    @given(case=deep_q_series())
    @settings(max_examples=80, deadline=None)
    def test_lookahead_cut_keeps_the_bytes(self, case):
        # each Horner step cut at the weight its remaining products reach
        assert_bytes_match_uncut(*case)

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    @pytest.mark.parametrize("N", [1, 2, 5, 13, 20, 40, 60])
    def test_lookahead_cut_keeps_the_bytes_on_psi_fourier(self, p, N):
        assert_bytes_match_uncut(psi_fourier(p, 20, 20), N)

    @pytest.mark.parametrize("p", [5, 13])
    def test_jets_at_one_where_every_image_is_empty(self, p):
        # below weight 1 each delta^i(1 + t) is 0: only the jet-free terms count
        f = JetSeries.make(p, {(3, ()): Fraction(2, 3), (-2, (0, 1)): 5, (1, (2,)): 7, (0, (0, 0, 3)): 1})
        assert f.r() == 3
        got = assert_bytes_match_uncut(f, 1)
        assert got.terms == (((), Fraction(2, 3)),)

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_jet_exponent_past_n(self, N):
        # q'^6 and q''^5 start at weights 6 and 35, past N: only the jet-free term survives
        f = JetSeries.make(7, {(2, (6,)): Fraction(1, 5), (-4, (0, 5)): 3, (1, ()): 2})
        got = assert_bytes_match_uncut(f, N)
        assert got == (t_generator((7,), N) + 1) * 2

    @pytest.mark.parametrize("p", [5, 7, 11])
    @pytest.mark.parametrize("N", [0, 1, 2, 13, 40])
    def test_jet_images_of_one_plus_t_are_integral(self, p, N):
        image = t_generator((p,), N) + 1
        for _ in range(3):
            image = delta_pk(image, 0)
            assert all(c.denominator == 1 for _, c in image.terms)

    def test_non_integral_image_rejected(self, monkeypatch):
        def halved(f, k):
            return delta_pk(f, k) * Fraction(1, 2)

        monkeypatch.setattr(forms, "delta_pk", halved)
        f = JetSeries.make(5, {(1, (1,)): 1})
        with pytest.raises(IntegralityViolation):
            fourier_to_deformation(f, 10)

    @pytest.mark.parametrize("N", [0, 1, 12])
    def test_empty_series(self, N):
        got = fourier_to_deformation(JetSeries.make(7, {}), N)
        assert got == MultiJetSeries.make((7,), {}, N) and got.terms == ()
        assert (got.P, got.N, got.ring) == ((7,), N, 0)

    def test_zero_truncation_is_empty(self):
        f = JetSeries.make(7, {(0, ()): 2, (-3, (1, 2)): Fraction(1, 3)})
        got = fourier_to_deformation(f, 0)
        assert got.terms == () and (got.P, got.N, got.ring) == ((7,), 0, 0)

    @pytest.mark.parametrize("N", [1, 2, 9])
    def test_no_jets(self, N):
        # r = 0: the leaf alone, sum_b c_b (1 + t)^b
        f = JetSeries.make(5, {(0, ()): 2, (3, ()): Fraction(-1, 6), (-2, ()): 7})
        assert f.r() == 0
        t = t_generator((5,), N)
        want = (t + 1) ** 3 * Fraction(-1, 6) + invert_unit(t + 1) ** 2 * 7 + 2
        got = fourier_to_deformation(f, N)
        assert got.terms == want.terms and got.N == N

    def test_gap_in_jet_exponents(self):
        # Horner steps through the missing exponents 1 and 2 of q'
        f = JetSeries.make(5, {(2, (3,)): Fraction(1, 3), (0, ()): 1})
        got, want = fourier_to_deformation(f, 20), reference_transcription(f, 20)
        assert got.terms == want.terms
