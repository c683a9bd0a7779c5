"""One-variable truncated series: ring ops, log, powers, Frobenius, delta0."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import exp_series
from pjet.arith import PadicTrunc
from pjet.errors import DomainError
from pjet.qseries import Series1, delta0, frobenius_sub, log1p, pow_weight


def poly(var, coeffs, N=None):
    return Series1.make(var, {e: Fraction(c) for e, c in coeffs.items()}, N)


class TestRingOps:
    def test_mul(self):
        a = poly("q", {0: 1, 1: 1})
        b = poly("q", {0: 1, 1: -1})
        assert a * b == poly("q", {0: 1, 2: -1})

    def test_t_side_rejects_negative_exponents(self):
        with pytest.raises(DomainError):
            poly("t", {-1: 1})

    def test_truncation_metadata_in_mul(self):
        a = poly("q", {1: 1}, N=5)
        b = poly("q", {2: 1}, N=7)
        assert (a * b).N == 7  # min(5 + 2, 7 + 1)


class TestLog1p:
    def test_mercator(self):
        x = poly("t", {1: 1})
        got = log1p(x, order=5)
        assert got == poly("t", {1: 1, 2: Fraction(-1, 2), 3: Fraction(1, 3), 4: Fraction(-1, 4)}, 5)

    def test_zero(self):
        assert log1p(poly("t", {}), order=4) == poly("t", {}, 4)

    def test_log_of_square(self):
        # log((1+t)^2 ) = 2 log(1+t), checked by direct expansion
        x = poly("t", {1: 2, 2: 1})
        assert log1p(x, order=4) == log1p(poly("t", {1: 1}), order=4) * 2

    def test_requires_positive_valuation(self):
        with pytest.raises(DomainError):
            log1p(poly("t", {0: 1, 1: 1}), order=4)

    def test_exp_log_roundtrip(self):
        x = poly("t", {1: 1, 2: -3, 5: Fraction(1, 4)})
        assert exp_series(log1p(x, order=9), order=9) == (1 + x).truncate(9)

    def test_log_exp_roundtrip(self):
        x = poly("t", {1: Fraction(2, 7), 3: 1})
        assert log1p(exp_series(x, order=8) - 1, order=8) == x.truncate(8)


class TestPowWeight:
    def test_integer_square(self):
        u = poly("t", {0: 1, 1: 1})
        assert pow_weight(u, 2) == poly("t", {0: 1, 1: 2, 2: 1})

    def test_integer_inverse(self):
        # a negative integer exponent is refused like every other n < 0
        with pytest.raises(DomainError, match="negative powers are not defined here"):
            pow_weight(poly("t", {0: 1, 1: 1}), -1, order=5)

    def test_padic_minus_one_is_geometric(self):
        gamma = PadicTrunc.from_rational(-1, 5, 6)
        got = pow_weight(poly("t", {0: 1, 1: 1}), gamma, order=5)
        assert got == poly("t", {e: (-1) ** e for e in range(5)}, 5).to_padic(5, 6)

    def test_padic_exponent_matches_integer(self):
        # gamma = 1 + p as a p-adic equals the integer 6 at p = 5
        gamma = PadicTrunc.from_rational(6, 5, 6)
        u = poly("t", {0: 1, 1: 1})
        got = pow_weight(u, gamma, order=8)
        want = pow_weight(u, 6, order=8).to_padic(5, 6)
        assert got == want

    def test_padic_exponent_needs_one_plus(self):
        gamma = PadicTrunc.from_rational(6, 5, 6)
        with pytest.raises(DomainError):
            pow_weight(poly("t", {0: 2, 1: 1}), gamma, order=4)

    @given(g1=st.integers(-4, 4), g2=st.integers(-4, 4))
    @settings(max_examples=25, deadline=None)
    def test_additivity(self, g1, g2):
        # a negative exponent goes in as a 5-adic integer, through the binomial series
        def gamma(g):
            return g if g >= 0 else PadicTrunc.from_rational(g, 5, 8)

        u = poly("q", {0: 1, 1: 3, 2: -1})
        lhs = pow_weight(u, gamma(g1 + g2), order=6)
        rhs = pow_weight(u, gamma(g1), order=6) * pow_weight(u, gamma(g2), order=6)
        assert lhs == rhs


class TestFrobeniusSub:
    def test_monomial(self):
        assert frobenius_sub(poly("q", {1: 1}), 5) == poly("q", {5: 1})

    def test_polynomial(self):
        assert frobenius_sub(poly("q", {0: 1, 1: 1, 2: 1}), 2) == poly("q", {0: 1, 2: 1, 4: 1})

    def test_negative_exponent(self):
        assert frobenius_sub(poly("q", {-1: 1}), 3) == poly("q", {-3: 1})

    def test_order_scales(self):
        assert frobenius_sub(poly("q", {1: 1}, N=4), 3).N == 12

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_ring_homomorphism(self, data):
        exps = st.dictionaries(st.integers(-3, 5), st.integers(-9, 9), max_size=4)
        a = poly("q", data.draw(exps))
        b = poly("q", data.draw(exps))
        assert frobenius_sub(a * b, 5) == frobenius_sub(a, 5) * frobenius_sub(b, 5)
        assert frobenius_sub(a + b, 5) == frobenius_sub(a, 5) + frobenius_sub(b, 5)


class TestDelta0:
    def test_single_monomial_vanishes(self):
        assert delta0(poly("q", {1: 1}), 5, 6) == poly("q", {})

    def test_constant_reduces_to_fermat_quotient(self):
        from pjet.arith import fermat_delta

        got = delta0(poly("q", {0: 2}), 5, 6)
        assert got.coeff(0) == PadicTrunc.from_rational(fermat_delta(2, 5), 5, 6)

    def test_one_plus_q(self):
        # ((1 + q^5) - (1 + q)^5) / 5 expanded by hand
        got = delta0(poly("q", {0: 1, 1: 1}), 5, 6)
        want = poly("q", {1: -1, 2: -2, 3: -2, 4: -1}).to_padic(5, 5)
        assert got == want

    def test_digit_consumed(self):
        got = delta0(poly("q", {0: 1, 1: 1}), 5, 6)
        assert all(c.digits == 5 for _, c in got.terms)

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_sum_axiom_to_precision(self, data):
        from pjet.qseries import Series1

        exps = st.dictionaries(st.integers(0, 4), st.integers(-6, 6), max_size=3)
        a = poly("q", data.draw(exps))
        b = poly("q", data.draw(exps))
        p, M = 5, 8
        lhs = delta0(a + b, p, M)
        cp = Series1.zero("q")
        for k in range(1, p):
            from math import comb

            cp = cp + (a**k) * (b ** (p - k)) * Fraction(-comb(p, k), p)
        rhs = delta0(a, p, M) + delta0(b, p, M) + cp.to_padic(p, M)
        assert lhs == rhs

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_product_axiom_to_precision(self, data):
        exps = st.dictionaries(st.integers(0, 4), st.integers(-6, 6), max_size=3)
        a = poly("q", data.draw(exps))
        b = poly("q", data.draw(exps))
        p, M = 5, 8
        da, db = delta0(a, p, M), delta0(b, p, M)
        lhs = delta0(a * b, p, M)
        rhs = a.to_padic(p, M) ** p * db + b.to_padic(p, M) ** p * da + da * db * p
        assert lhs == rhs


class TestJson:
    def test_rational_roundtrip(self):
        a = poly("q", {-1: Fraction(2, 3), 4: -7}, N=9)
        assert Series1.from_json(a.to_json()) == a

    def test_padic_roundtrip(self):
        a = poly("q", {0: 1, 1: 1}).to_padic(5, 6)
        b = Series1.from_json(a.to_json())
        assert b == a
        assert all(isinstance(c, PadicTrunc) for _, c in b.terms)
