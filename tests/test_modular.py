"""Classical expansions: Eisenstein, discriminant, j, point counts, Hecke."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    an_multiplicative_trial,
    ap_point_count_legendre,
    bernoulli_numbers_recursion,
    discriminant_delta_series1,
    newform_coefficients_trial,
)
from pjet.errors import DomainError, MissingPrimeValue
from pjet.modular import (
    CURVE_11A1,
    EllipticCurveQ,
    _least_prime_factors,
    an_multiplicative,
    ap_point_count,
    bernoulli,
    discriminant_delta,
    divisor_sigma,
    eisenstein,
    eisenstein_mod_p,
    load_curve_fixture,
    newform_coefficients,
)
from pjet.qseries import Series1

# Ramanujan's tau(1..12) and the q-expansion coefficients c(-1..11) of j
TAU = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920, 534612, -370944]
J_COEFFS = [
    1, 744, 196884, 21493760, 864299970, 20245856256, 333202640600, 4252023300096,
    44656994071935, 401490886656000, 3176440229784420, 22567393309593600, 146211911499519294,
]


class TestBernoulli:
    def test_first_values(self):
        b = [bernoulli(k) for k in range(13)]
        assert b[0] == 1
        assert b[1] == Fraction(-1, 2)
        assert b[4] == Fraction(-1, 30)
        assert b[6] == Fraction(1, 42)
        assert b[12] == Fraction(-691, 2730)

    def test_odd_vanish(self):
        b = [bernoulli(k) for k in range(12)]
        assert all(b[n] == 0 for n in range(3, 12, 2))

    def test_single_value_matches_recursion(self):
        # B_k by forward differences against the binomial recursion: every even
        # k <= 120, and every k <= 30, odd ones and B_1 = -1/2 included
        b = bernoulli_numbers_recursion(120)
        for k in [*range(31), *range(32, 121, 2)]:
            assert bernoulli(k) == b[k], k
        assert [bernoulli(k) for k in range(121)] == b


class TestEisenstein:
    def test_e4_from_sigma_oracle(self):
        e4 = eisenstein(4, 6)
        assert divisor_sigma(1, 3) == 1 and divisor_sigma(2, 3) == 9
        assert e4.coeff(0) == 1
        assert e4.coeff(1) == 240
        assert e4.coeff(2) == 2160
        assert e4.coeff(3) == 240 * divisor_sigma(3, 3)

    def test_e6_from_sigma_oracle(self):
        e6 = eisenstein(6, 4)
        assert e6.coeff(1) == -504
        assert e6.coeff(2) == -504 * divisor_sigma(2, 5) == -16632

    def test_bad_weight_rejected(self):
        with pytest.raises(DomainError):
            eisenstein(3, 5)
        with pytest.raises(DomainError):
            eisenstein(2, 5)

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_hasse_reduction_is_one(self, p):
        res = eisenstein_mod_p(p, 25)
        assert res[0] == 1
        assert all(r == 0 for r in res[1:])

    def test_e4_mod_5_specifically(self):
        assert 240 % 5 == 0 and 2160 % 5 == 0
        assert eisenstein_mod_p(5, 10)[1:] == [0] * 9


class TestDiscriminant:
    def test_eta_product_leading_terms(self):
        d = discriminant_delta(8)
        assert d.coeff(0) == 0
        assert d.coeff(1) == 1
        assert d.coeff(2) == -24
        assert d.coeff(3) == 252
        assert d.coeff(4) == -1472

    @pytest.mark.parametrize("T", range(61))
    def test_integer_eta_product_matches_series1_route(self, T):
        assert discriminant_delta(T).to_json() == discriminant_delta_series1(T).to_json()

    def test_tau_table(self):
        d = discriminant_delta(13)
        assert [d.coeff(n) for n in range(1, 13)] == TAU
        assert d.trunc() == 13 and d.weight == 12 and d.coeff(0) == 0

    def test_weight_identity(self):
        # E4^3 - E6^2 = 1728 * Delta, the classical cross-check
        T = 40
        e4, e6, d = eisenstein(4, T), eisenstein(6, T), discriminant_delta(T)
        assert e4.series**3 - e6.series**2 == d.series * 1728


class TestTruncBoundary:
    """The library builders take trunc >= 0, like the CLI's --trunc."""

    @pytest.mark.parametrize(
        "build", [lambda t: eisenstein(4, t), lambda t: eisenstein_mod_p(5, t), discriminant_delta]
    )
    def test_negative_trunc_refused(self, build):
        with pytest.raises(DomainError, match="trunc must be at least 0"):
            build(-1)

    def test_zero_trunc_is_empty(self):
        assert eisenstein(4, 0).series.terms == ()
        assert eisenstein(4, 0).trunc() == 0
        assert eisenstein_mod_p(5, 0) == []
        assert discriminant_delta(0).series.terms == ()


class TestJInvariant:
    def test_classical_coefficients(self):
        # j = E4^3 / Delta, checked as the product j * Delta = E4^3 below q^13
        # (Delta = q + ...), so every entry of the table is pinned, and E4 and
        # Delta are pinned to the classical table as well
        j = Series1.make("q", dict(enumerate(map(Fraction, J_COEFFS), -1)), N=12)
        got = (j * discriminant_delta(14).series).truncate(13)
        want = (eisenstein(4, 13).series ** 3).truncate(13)
        assert got.to_json() == want.to_json()


class TestPointCounting:
    def test_known_values_11a1(self):
        assert ap_point_count(CURVE_11A1, 5) == 1
        assert ap_point_count(CURVE_11A1, 7) == -2

    def test_small_primes_by_enumeration(self):
        assert ap_point_count(CURVE_11A1, 2) == -2
        assert ap_point_count(CURVE_11A1, 3) == -1

    def test_bad_reduction_rejected(self):
        with pytest.raises(DomainError):
            ap_point_count(CURVE_11A1, 11)

    def test_hasse_bound_up_to_97(self):
        p = 2
        while p <= 97:
            if CURVE_11A1.discriminant() % p:
                ap = ap_point_count(CURVE_11A1, p)
                assert ap * ap <= 4 * p
            p += 1
            while any(p % f == 0 for f in range(2, isqrt(p) + 1)):
                p += 1

    def test_singular_model_rejected(self):
        with pytest.raises(DomainError):
            EllipticCurveQ(0, 0, 0, 0, 0)

    @pytest.mark.parametrize(
        "E", [CURVE_11A1, EllipticCurveQ(1, 0, 1, 4, -6, label="14a1")], ids=["11a1", "14a1"]
    )
    def test_root_table_matches_legendre_route(self, E):
        # every good prime 5 <= p < 500; the second curve has a1 = a3 = 1, so
        # the linear term of each column's discriminant is exercised
        primes = [p for p in range(5, 500) if all(p % f for f in range(2, isqrt(p) + 1))]
        good = [p for p in primes if E.discriminant() % p]
        assert len(good) >= len(primes) - 3
        for p in good:
            assert ap_point_count(E, p) == ap_point_count_legendre(E, p)


class TestHeckeCoefficients:
    def test_normalization(self):
        a = an_multiplicative({2: -2, 3: -1, 5: 1}, 6, bad_primes=())
        assert a[0] == 1

    def test_multiplicativity(self):
        a = an_multiplicative({2: -2, 3: -1, 5: 1}, 6)
        assert a[5] == a[1] * a[2]  # a_6 = a_2 a_3

    def test_prime_power_recursion(self):
        a = newform_coefficients(CURVE_11A1, 25, bad_values={11: 1})
        assert a[4] == 1
        assert a[24] == a[4] * a[4] - 5 == -4  # a_25 = a_5^2 - 5

    def test_missing_prime(self):
        with pytest.raises(MissingPrimeValue):
            an_multiplicative({2: -2}, 9)

    def test_newform_coefficients_11a1(self):
        a = newform_coefficients(CURVE_11A1, 20, bad_values={11: 1})
        # internal consistency: the list regenerated from the same point
        # counts through the recursions, checked against multiplicativity
        assert a[0] == 1
        assert a[10] == 1  # supplied bad value at 11
        for m, n in [(2, 3), (2, 5), (3, 5), (2, 7), (4, 5), (2, 9)]:
            if m * n <= 20:
                assert a[m * n - 1] == a[m - 1] * a[n - 1]

    def test_fixture_roundtrip(self):
        curve, bad = load_curve_fixture()
        assert curve == CURVE_11A1
        assert bad == {11: 1}
        a = newform_coefficients(curve, 12, bad)
        assert a[:5] == [1, -2, -1, 2, 1]


def _outcome(fn, *args):
    """The list a function returns, or the message of its MissingPrimeValue."""
    try:
        return fn(*args)
    except MissingPrimeValue as e:
        return ("MissingPrimeValue", str(e))


class TestLeastPrimeFactorTable:
    def test_small_tables(self):
        assert _least_prime_factors(-2) == []
        assert _least_prime_factors(1) == [0, 1]
        assert _least_prime_factors(2) == [0, 1, 2]
        assert _least_prime_factors(12) == [0, 1, 2, 3, 2, 5, 2, 7, 2, 3, 2, 11, 2]

    def test_against_trial_division(self):
        spf = _least_prime_factors(400)
        for n in range(2, 401):
            assert spf[n] == min(f for f in range(2, n + 1) if n % f == 0)

    def test_11a1_matches_the_trial_division_walk(self):
        bad = {11: 1}
        for n_max in range(-2, 201):
            assert newform_coefficients(CURVE_11A1, n_max, bad) == newform_coefficients_trial(
                CURVE_11A1, n_max, bad
            ), n_max

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_drawn_prime_tables_match_the_trial_division_walk(self, data):
        # a table of a_p over some primes below 60, some of them bad; a prime
        # left out must raise the same MissingPrimeValue at the same n
        primes = [p for p in range(2, 60) if all(p % f for f in range(2, isqrt(p) + 1))]
        chosen = data.draw(st.lists(st.sampled_from(primes), unique=True))
        if data.draw(st.booleans()):
            chosen = sorted(set(chosen) | set(primes[: data.draw(st.integers(0, len(primes)))]))
        ap = {p: data.draw(st.integers(-2 * isqrt(p) - 1, 2 * isqrt(p) + 1)) for p in chosen}
        bad = data.draw(st.lists(st.sampled_from(chosen), unique=True)) if chosen else []
        n_max = data.draw(st.integers(-2, 70))
        assert _outcome(an_multiplicative, ap, n_max, bad) == _outcome(
            an_multiplicative_trial, ap, n_max, bad
        )

    def test_missing_prime_message(self):
        # 7 is the first prime absent, so the walk stops at n = 7
        with pytest.raises(MissingPrimeValue) as e:
            an_multiplicative({2: -2, 3: -1, 5: 1, 11: 1}, 30)
        assert e.value.args == ("a_7 required for n <= 30",)
