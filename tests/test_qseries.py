"""One-variable truncated series: ring ops, log, powers, delta0."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import exp_series
from pjet.arith import PadicTrunc, cp_coefficients, fermat_delta, reduce_rational_mod
from pjet.errors import DomainError, PrecisionExhausted
from pjet.qseries import Series1, delta0, log1p, pow_weight


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

    @pytest.mark.parametrize("other", [None, "1", object(), (1,)], ids=["None", "str", "object", "tuple"])
    def test_equality_with_a_non_number_is_false(self, other):
        for s in (Series1.make("q", {}), poly("t", {0: 1})):
            assert (s == other) is False and (s != other) is True
            assert (other == s) is False

    def test_equality_with_a_number_is_the_constant_series(self):
        assert poly("q", {0: 3}) == 3 and poly("q", {0: 3}) == Fraction(3)
        assert 3 == poly("q", {0: 3}) and poly("q", {0: 3, 1: 1}) != 3
        c = PadicTrunc(5, 4, 7, 4)
        assert Series1.monomial("q", 0, c) == c


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

    @given(g1=st.integers(0, 4), g2=st.integers(0, 4))
    @settings(max_examples=25, deadline=None)
    def test_additivity(self, g1, g2):
        u = poly("q", {0: 1, 1: 3, 2: -1})
        lhs = pow_weight(u, g1 + g2, order=6)
        rhs = pow_weight(u, g1, order=6) * pow_weight(u, g2, order=6)
        assert lhs == rhs


class TestPowerOrder:
    """x**e of a series known below N with valuation v is known below
    N + (e - 1) v for e >= 1, and x**0 is the exact 1: the power starts from
    an exact one, not from a one known below N."""

    def test_a_negative_valuation_loses_no_order_to_the_one(self):
        # the order was -7, one known below -1 times the square
        x = Series1.make("q", {-3: Fraction(1)}, -1)
        assert (x**2).to_json() == {"var": "q", "N": -4, "terms": [[-6, "1"]]}
        assert (x**0).to_json() == {"var": "q", "N": None, "terms": [[0, "1"]]}

    @pytest.mark.parametrize("terms, N", [({-2: 1, 1: 3, 5: 2}, 6), ({-3: 2}, -1), ({0: 1, 2: -1}, 5), ({1: 1, 3: 4}, 7)])
    @pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
    def test_order_of_a_power(self, terms, N, e):
        x = Series1.make("q", {k: Fraction(c) for k, c in terms.items()}, N)
        assert (x**e).N == N + (e - 1) * x.valuation()

    def test_square_of_a_zero_series_below_a_negative_order(self):
        # a term at -3 is unknown, so its square may reach -6
        assert (Series1.make("q", {}, -3) ** 2).N == -6

    def test_powers_of_a_zero_series_below_a_positive_order(self):
        # the first exponent that can hold a term is 4, so x**e is known below 4e
        x = Series1.make("q", {}, 4)
        assert [(x**e).N for e in (1, 2, 3)] == [4, 8, 12]


def residues(s, p, m):
    """{exponent: residue mod p**m} of a series of p-adic values."""
    return {e: c.residue % p**m for e, c in s.terms}


def delta0_oracle(terms, p):
    """(a(q**p) - a**p) / p of a Laurent polynomial, on {exponent: Fraction}
    dicts: the power by p - 1 schoolbook products, no series type."""
    power = dict(terms)
    for _ in range(p - 1):
        out = {}
        for e1, c1 in power.items():
            for e2, c2 in terms.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        power = out
    diff = {p * e: c for e, c in terms.items()}
    for e, c in power.items():
        diff[e] = diff.get(e, 0) - c
    return {e: c / p for e, c in diff.items() if c}


@st.composite
def delta0_inputs(draw):
    """(a, p, M, completion): a series with rational or one-precision p-adic
    coefficients, some of them divisible by p, N null or -6..10; and an exact
    Laurent polynomial that a stands for, with a drawn tail from N on."""
    p, M = draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 4))
    N = draw(st.one_of(st.none(), st.integers(-6, 10)))
    exps = draw(st.lists(st.integers(-8, 9 if N is None else max(N - 1, -8)), max_size=4, unique=True))
    nums, scales, dens = st.integers(-30, 30), st.sampled_from([1, 1, p, p * p]), st.integers(1, 6).filter(lambda d: d % p)
    terms = {e: Fraction(draw(nums) * draw(scales), draw(dens)) for e in exps}
    Mc = draw(st.integers(1, 5))
    if draw(st.booleans()):  # p-adic at (Mc, Mc): a stands for any lift of its residues
        terms = {e: PadicTrunc.from_rational(x, p, Mc) for e, x in terms.items()}
    a = Series1.make("q", terms, N)
    lift = {e: c if isinstance(c, Fraction) else Fraction(c.residue + p**Mc * draw(st.integers(-9, 9))) for e, c in a.terms}
    tail = {} if N is None else {e: Fraction(draw(st.integers(-9, 9))) for e in range(N, N + 3)}
    return a, p, M, {**lift, **tail}


class TestDelta0:
    def test_single_monomial_vanishes(self):
        assert delta0(poly("q", {1: 1}), 5, 6) == poly("q", {})

    def test_constant_reduces_to_fermat_quotient(self):
        got = delta0(poly("q", {0: 2}), 5, 6)
        assert got.coeff(0) == PadicTrunc.from_rational(fermat_delta(2, 5), 5, 6)

    def test_one_plus_q(self):
        # ((1 + q^5) - (1 + q)^5) / 5 expanded by hand
        got = delta0(poly("q", {0: 1, 1: 1}), 5, 6)
        want = {1: -1, 2: -2, 3: -2, 4: -1}
        assert got == Series1.make("q", {e: PadicTrunc.from_rational(c, 5, 6, 5) for e, c in want.items()})

    def test_digit_consumed(self):
        got = delta0(poly("q", {0: 1, 1: 1}), 5, 6)
        assert all(c.digits == 5 for _, c in got.terms)

    def test_padic_input_keeps_its_own_precision(self):
        # a p-adic coefficient is read at its own (M, digits), not at the M asked for
        a = Series1.make("q", {0: PadicTrunc(5, 6, 2, 3), 1: PadicTrunc(5, 6, 1, 3)})
        got = delta0(a, 5, 4)
        assert {(c.M, c.digits) for _, c in got.terms} == {(6, 2)}
        # a rational coefficient beside one of less precision takes the least of both
        b = Series1.make("q", {0: Fraction(2), 1: PadicTrunc(5, 3, 1, 2)})
        assert {(c.M, c.digits) for _, c in delta0(b, 5, 6).terms} == {(3, 1)}

    def test_no_digits_left(self):
        with pytest.raises(PrecisionExhausted):
            delta0(Series1.make("q", {0: PadicTrunc(5, 3, 2, 0)}), 5, 6)
        assert delta0(Series1.make("q", {1: PadicTrunc(5, 3, 1, 0)}), 5, 6).terms == ()

    def test_refuses_a_coefficient_at_another_prime(self):
        # the quotient was taken at the coefficient's prime, or failed on
        # "mismatched primes" beside a rational coefficient
        for terms in ({0: PadicTrunc(7, 4, 2, 4)}, {0: Fraction(1), 1: PadicTrunc(7, 4, 2, 4)}):
            with pytest.raises(DomainError, match="a 7-adic coefficient has no delta0 at p=5"):
                delta0(Series1.make("q", terms, 6), 5, 4)

    def test_each_product_drops_its_zero_residues(self):
        # (1 + 5/q)**5 is 1 mod 25, so its square (1 + 10/q + ...) starts at
        # q**-1 mod 25, not q**-2: the truncation order stays at 0, not -2
        got = delta0(Series1.make("q", {-1: Fraction(5), 0: Fraction(1)}, 3), 5, 2)
        assert got.to_json() == {"var": "q", "N": 0, "terms": [[-5, {"p": 5, "M": 2, "residue": "1", "digits": 1}]]}

    def test_zero_powers_below_a_negative_order(self):
        # a = 5/q**8 + O(q**-6): 10 * (5/q**8)**2 * (tail)**3 reaches q**-34
        # mod 5**4, so nothing from -34 on is known; the order was -30, with a
        # lone term at -40, when a series of zero residues counted as valuation 0,
        # and -44 while the power started from a one known only below -6
        got = delta0(Series1.make("q", {-8: Fraction(5)}, -6), 5, 4)
        # below -38 only a(q**5) - (5/q**8)**5 reaches: (5 - 5**5) / 5 at q**-40
        term = {"p": 5, "M": 4, "residue": "1", "digits": 3}
        assert got.N <= -34 and got.to_json() == {"var": "q", "N": -38, "terms": [[-40, term]]}

    def test_zero_residues_keep_the_order_of_their_tail(self):
        # 25q + O(q**3) is 0 + O(q**3) mod 25: every term of a**5 other than
        # the unknown tail's fifth power carries 25, so the order is 5 * 3
        got = delta0(Series1.make("q", {1: Fraction(25)}, 3), 5, 2)
        assert got.to_json() == {"var": "q", "N": 15, "terms": []}

    @given(case=delta0_inputs())
    @example(case=(Series1.make("q", {-8: Fraction(5)}, -6), 5, 4, {-8: Fraction(5), -6: Fraction(1), -5: Fraction(0), -4: Fraction(0)}))
    # valuation -2 and N 4: 5 (1/q**2)**4 (q**4) reaches q**-4 with a unit
    @example(case=(Series1.make("q", {-2: Fraction(1), 1: Fraction(3)}, 4), 5, 3, {-2: Fraction(1), 1: Fraction(3), 4: Fraction(1)}))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_fraction_oracle(self, case):
        # below the output's N every coefficient is that of the exact
        # (a(q**p) - a**p) / p of any completion of a, mod p**digits; with no
        # N the output holds exactly the terms whose numerator is not 0 mod p**M
        a, p, M, completion = case
        got = delta0(a, p, M)
        want = delta0_oracle(completion, p)
        prec = [(c.M, c.digits) if isinstance(c, PadicTrunc) else (M, M) for _, c in a.terms] or [(M, M)]
        m, g = min(x for x, _ in prec), min(y for _, y in prec) - 1
        assert all((c.M, c.digits) == (m, g) for _, c in got.terms)
        for e in set(want) | {e for e, _ in got.terms}:
            if got.N is None or e < got.N:
                x = reduce_rational_mod(want.get(e, 0), p, g)
                assert (x - dict(got.terms).get(e, PadicTrunc(p, m, 0, g)).residue) % p**g == 0
        if a.N is None:
            assert {e for e, _ in got.terms} == {e for e, c in want.items() if reduce_rational_mod(c * p, p, m)}

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_sum_axiom_to_precision(self, data):
        # delta(a + b) = delta a + delta b + C_p(a, b), compared in residues mod p**(M - 1)
        exps = st.dictionaries(st.integers(0, 4), st.integers(-6, 6), max_size=3)
        a = poly("q", data.draw(exps))
        b = poly("q", data.draw(exps))
        p, M = 5, 8
        mod = p ** (M - 1)
        cp = Series1.zero("q")
        for (i, j), c in cp_coefficients(p).items():
            cp = cp + a**i * b**j * c
        rhs = {}
        for t in (residues(delta0(a, p, M), p, M - 1), residues(delta0(b, p, M), p, M - 1)):
            for e, x in t.items():
                rhs[e] = rhs.get(e, 0) + x
        for e, c in cp.terms:
            rhs[e] = rhs.get(e, 0) + reduce_rational_mod(c, p, M - 1)
        assert residues(delta0(a + b, p, M), p, M - 1) == {e: x % mod for e, x in rhs.items() if x % mod}

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_product_axiom_to_precision(self, data):
        # delta(ab) = a**p delta b + b**p delta a + p delta a delta b, in residues mod p**(M - 1)
        exps = st.dictionaries(st.integers(0, 4), st.integers(-6, 6), max_size=3)
        a = poly("q", data.draw(exps))
        b = poly("q", data.draw(exps))
        p, M = 5, 8
        mod = p ** (M - 1)

        def ints(s):
            return Series1.make("q", residues(s, p, M - 1))

        da, db = ints(delta0(a, p, M)), ints(delta0(b, p, M))
        rhs = a**p * db + b**p * da + da * db * p
        want = {e: reduce_rational_mod(c, p, M - 1) for e, c in rhs.terms}
        assert residues(delta0(a * b, p, M), p, M - 1) == {e: x for e, x in want.items() if x}


class TestJson:
    def test_rational_roundtrip(self):
        a = poly("q", {-1: Fraction(2, 3), 4: -7}, N=9)
        assert Series1.from_json(a.to_json()) == a

    def test_padic_roundtrip(self):
        a = Series1.make("q", {0: PadicTrunc(5, 6, 1, 6), 1: PadicTrunc(5, 6, 1, 6)})
        b = Series1.from_json(a.to_json())
        assert b == a and b.to_json() == a.to_json()
        assert all(isinstance(c, PadicTrunc) for _, c in b.terms)

    def test_negative_order(self):
        # a Laurent series known below q**-15, as delta0 writes it, reads back
        a = Series1.make("q", {-19: PadicTrunc(13, 2, 4, 1)}, -15)
        b = Series1.from_json(a.to_json())
        assert b.N == -15 and b.to_json() == a.to_json()
