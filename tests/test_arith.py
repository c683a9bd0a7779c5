"""Coefficient-domain layer: Fermat quotients, commutators, reconstruction."""

from fractions import Fraction
from math import comb, factorial, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pjet.arith import (
    PadicTrunc,
    binomial,
    cp_polynomial,
    crt_combine,
    cross_prime_commutator,
    fermat_delta,
    format_rational,
    parse_rational,
    rational_reconstruct,
    reduce_rational_mod,
    valuation,
)
from pjet.errors import DomainError, PrecisionExhausted, ReconstructionFailure
from pjet.qseries import Series1, delta0

PRIMES = [2, 3, 5, 7]


def rationals_coprime_to(p, max_num=50, max_den=20):
    return st.builds(
        Fraction,
        st.integers(-max_num, max_num),
        st.integers(1, max_den).filter(lambda d: d % p != 0),
    )


class TestFermatDelta:
    def test_delta_of_one_is_zero(self):
        assert fermat_delta(1, 5) == 0

    def test_direct_values(self):
        # (2 - 2**5)/5 and (6 - 6**3)/3, straight from the definition
        assert fermat_delta(2, 5) == -6
        assert fermat_delta(6, 3) == -70

    # fermat_delta takes rationals; the Fermat quotient of a truncated p-adic
    # is delta0 of a constant series, which spends one guaranteed digit

    def test_padic_digit_loss(self):
        x = Series1.make("q", {0: PadicTrunc.from_rational(2, 5, 6)})
        d = delta0(x, 5, 6).coeff(0)
        assert d.digits == 5
        assert d == PadicTrunc.from_rational(-6, 5, 6, digits=5)

    def test_padic_precision_exhausted(self):
        x = Series1.make("q", {0: PadicTrunc(5, 3, 2, 0)})
        with pytest.raises(PrecisionExhausted):
            delta0(x, 5, 6)

    @pytest.mark.parametrize("p", PRIMES)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_sum_axiom(self, p, data):
        a = data.draw(rationals_coprime_to(p))
        b = data.draw(rationals_coprime_to(p))
        lhs = fermat_delta(a + b, p)
        rhs = fermat_delta(a, p) + fermat_delta(b, p) + cp_polynomial(a, b, p)
        assert lhs == rhs

    @pytest.mark.parametrize("p", PRIMES)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_product_axiom(self, p, data):
        a = data.draw(rationals_coprime_to(p))
        b = data.draw(rationals_coprime_to(p))
        da, db = fermat_delta(a, p), fermat_delta(b, p)
        assert fermat_delta(a * b, p) == a**p * db + b**p * da + p * da * db

    @pytest.mark.parametrize("p", PRIMES)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_frobenius_is_identity(self, p, data):
        a = data.draw(rationals_coprime_to(p))
        assert a**p + p * fermat_delta(a, p) == a


class TestCpPolynomial:
    def test_p2_is_minus_xy(self):
        # C_2(X, Y) = -XY: check on a grid, which determines the polynomial
        for x in range(-3, 4):
            for y in range(-3, 4):
                assert cp_polynomial(x, y, 2) == -x * y

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_one_minus_one(self, p):
        assert cp_polynomial(1, -1, p) == 0

    def test_p3_value(self):
        assert cp_polynomial(1, 1, 3) == -2

    @pytest.mark.parametrize("p", PRIMES)
    @given(x=st.integers(-30, 30), y=st.integers(-30, 30))
    @settings(max_examples=40, deadline=None)
    def test_matches_defining_quotient(self, p, x, y):
        assert p * cp_polynomial(x, y, p) == x**p + y**p - (x + y) ** p


class TestCrossPrimeCommutator:
    def test_worked_integer_case(self):
        a = 6
        d2, d3 = fermat_delta(a, 2), fermat_delta(a, 3)
        assert (d2, d3) == (-15, -70)
        lhs = fermat_delta(d3, 2) - fermat_delta(d2, 3)
        assert lhs == -3605
        assert cross_prime_commutator(a, d2, d3, 2, 3) == -3605

    def test_trivial_cases(self):
        assert cross_prime_commutator(1, 0, 0, 2, 3) == 0
        assert cross_prime_commutator(0, 0, 0, 5, 7) == 0

    def test_equal_primes_rejected(self):
        with pytest.raises(DomainError):
            cross_prime_commutator(1, 0, 0, 5, 5)

    @pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 5), (5, 7), (7, 11), (11, 13)])
    @given(a=st.integers(-40, 40))
    @settings(max_examples=40, deadline=None)
    def test_identity_on_integers(self, p, q, a):
        dp, dq = fermat_delta(a, p), fermat_delta(a, q)
        lhs = fermat_delta(dq, p) - fermat_delta(dp, q)
        assert lhs == cross_prime_commutator(a, dp, dq, p, q)


class TestPadicTrunc:
    def test_equality_to_shared_digits(self):
        a = PadicTrunc(5, 6, 2 + 5**4, 4)
        b = PadicTrunc(5, 6, 2, 6)
        assert a == b  # they agree mod 5**4
        assert PadicTrunc(5, 6, 2 + 5**3, 4) != b

    def test_json_roundtrip(self):
        x = PadicTrunc.from_rational(Fraction(-2, 3), 5, 8)
        assert PadicTrunc.from_json(x.to_json()) == x
        # an integer string is read as everywhere else
        text = {"p": "5", "M": "6", "residue": "7812", "digits": "3"}
        assert PadicTrunc.from_json(text).to_json() == PadicTrunc(5, 6, 7812, 3).to_json()

    @pytest.mark.parametrize("key", ["p", "M", "residue", "digits"])
    @pytest.mark.parametrize("value", [2.5, 6.0, True])
    def test_json_fields_are_integers(self, key, value):
        # each field was read by int(), which took 2.5 as 2 and true as 1
        obj = {**PadicTrunc(5, 6, 7812, 3).to_json(), key: value}
        with pytest.raises(DomainError, match="expected an integer"):
            PadicTrunc.from_json(obj)

    def test_a_value_with_no_arithmetic(self):
        x = PadicTrunc(5, 6, 7, 3)
        for op in (lambda: x + 1, lambda: 1 - x, lambda: x * x, lambda: -x, lambda: x**2):
            with pytest.raises(TypeError):
                op()
        assert not hasattr(x, "unit_inverse") and not hasattr(x, "divide_by_p")
        with pytest.raises(TypeError):
            fermat_delta(x, 5)

    def test_comparison_with_a_rational_or_anything_else(self):
        x = PadicTrunc.from_rational(Fraction(-2, 3), 5, 8)
        assert x == Fraction(-2, 3) and Fraction(-2, 3) == x and x != Fraction(2, 3)
        assert x != Fraction(1, 5)  # not 5-integral: no 5-adic value equals it
        assert x != 2.5 and x != "7" and x != None  # noqa: E711


class TestPadicBinomial:
    """C(gamma, k) of a p-adic gamma, as the p-adic covariance check takes it:
    ``binomial`` of an integer representative of gamma."""

    def test_minus_one_choose_three(self):
        assert binomial(-1, 3) == -1

    def test_integer_binomials(self):
        assert binomial(2, 2) == 1
        assert binomial(2, 5) == 0

    @given(n=st.integers(-200, 200), k=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_matches_integer_binomial(self, n, k):
        want = comb(n, k) if n >= 0 else (-1) ** k * comb(-n + k - 1, k)
        assert binomial(n, k) == want

    def test_matches_product_formula(self):
        # C(a, j) = a (a-1) ... (a-j+1) / j!, for a of either sign
        for a in range(-60, 60):
            for j in range(40):
                num = 1
                for i in range(j):
                    num *= a - i
                assert binomial(a, j) == num // factorial(j), (a, j)

    @given(n=st.integers(-100, 100), k=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_pascal_rule(self, n, k):
        assert binomial(n, k) == binomial(n - 1, k) + binomial(n - 1, k - 1)

    @given(r=st.integers(-100, 100), s=st.integers(-100, 100), g=st.integers(1, 6), k=st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_representatives_agree_to_the_digits_left(self, r, s, g, k):
        # two representatives of one 5-adic value at g digits give binomials
        # that agree mod 5**(g - v_5(k!)), the loss the covariance check records
        left = g - valuation(Fraction(factorial(k)), 5)
        if left > 0:
            assert (binomial(r, k) - binomial(r + 5**g * s, k)) % 5**left == 0


def brute_force_reconstruct(x, m, bound, primes):
    """Direct search oracle: smallest-denominator n/d with n = d*x mod m."""
    for d in range(1, bound + 1):
        if any(d % p == 0 for p in primes):
            continue
        n = d * x % m
        if n > m // 2:
            n -= m
        if abs(n) <= bound and Fraction(n, d).denominator == d:
            return Fraction(n, d)
    return None


class TestRationalReconstruct:
    def test_recovers_minus_two_thirds(self):
        target = Fraction(-2, 3)
        r = reduce_rational_mod(target, 5, 8)
        got = rational_reconstruct([(5, 8, r)])
        assert type(got) is Fraction and got == target
        # independent brute-force search agrees
        assert brute_force_reconstruct(r, 5**8, isqrt(5**8 // 2), [5]) == target

    def test_zero(self):
        assert rational_reconstruct([(5, 4, 0)]) == 0

    def test_height_bound_violation(self):
        with pytest.raises(ReconstructionFailure):
            rational_reconstruct([(5, 1, 2)], height=2)

    def test_two_prime_crt(self):
        target = Fraction(355, 113)
        rs = [(5, 8, reduce_rational_mod(target, 5, 8)), (7, 8, reduce_rational_mod(target, 7, 8))]
        assert rational_reconstruct(rs) == target

    @given(
        n=st.integers(-9999, 9999),
        d=st.integers(1, 9999).filter(lambda d: d % 5 and d % 7),
    )
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, n, d):
        target = Fraction(n, d)
        if target.denominator % 5 == 0 or target.denominator % 7 == 0:
            return
        rs = [(5, 8, reduce_rational_mod(target, 5, 8)), (7, 8, reduce_rational_mod(target, 7, 8))]
        assert rational_reconstruct(rs) == target

    def test_crt_combine(self):
        x, m = crt_combine([(3, 25), (4, 49)])
        assert x % 25 == 3 and x % 49 == 4 and m == 25 * 49


class TestSerialization:
    def test_rational_strings(self):
        assert format_rational(Fraction(-2, 3)) == "-2/3"
        assert format_rational(Fraction(7)) == "7"
        assert parse_rational("-2/3") == Fraction(-2, 3)
        assert parse_rational("7") == Fraction(7)

    def test_valuation(self):
        assert valuation(Fraction(50, 3), 5) == 2
        assert valuation(Fraction(3, 25), 5) == -2

    @pytest.mark.parametrize("x", [1, -1, 50, -375, 7**9 * 2, 3**40])
    def test_int_valuation_matches_its_fraction(self, x):
        # an int takes the integer path; its valuation is its Fraction's
        for p in (2, 3, 5, 7):
            assert valuation(x, p) == valuation(Fraction(x), p)
        with pytest.raises(DomainError):
            valuation(0, 5)
