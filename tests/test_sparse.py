"""The shared sparse kernel, and x**0 / x**1 in every ring that uses it."""

import operator
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

import _helpers
from pjet.arith import PadicTrunc
from pjet.deltajet import TSeries
from pjet.multiprime import MultiJetSeries
from pjet.qseries import Series1
from pjet.sparse import add, mul, power, scale


class Counted(int):
    """An integer coefficient that counts its multiplications."""

    products = 0

    def __mul__(self, other):
        Counted.products += 1
        return Counted(int(self) * int(other))

    __rmul__ = __mul__

    def __add__(self, other):
        return Counted(int(self) + int(other))


def reference(t1, t2, limit):
    """The reference kernel's product under the same cut."""
    return _helpers.mul(t1, t2, operator.add, lambda m: limit is None or m < limit)


COEFFS = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 3)),
)


class TestKernel:
    def test_add_drops_cancelled_terms(self):
        assert add({1: F(1), 2: F(3)}, {1: F(-1)}, {3: F(0)}) == {2: F(3)}
        assert add() == {}

    def test_scale(self):
        assert scale({1: F(2), 4: F(-1)}, F(1, 2)) == {1: F(1), 4: F(-1, 2)}
        assert scale({1: F(2)}, 0) == {}

    def test_mul_prunes_before_the_coefficient_product(self):
        a = {2: Counted(3), 0: Counted(1), 1: Counted(2)}
        b = {3: Counted(5), 0: Counted(1)}
        Counted.products = 0
        out = mul(a, b, 3)
        assert out == {0: 1, 1: 2, 2: 3}
        assert Counted.products == 3  # the three pairs landing at 3, 4, 5 are never formed
        # at every limit, a product forms exactly the pairs below it, and a
        # square each unordered pair below it once: n(n+1)/2 at most
        c = {5: Counted(2), -2: Counted(-1), 0: Counted(3), 1: Counted(1)}
        for limit in [None, *range(-6, 13)]:
            for t1, t2 in ((a, b), (b, a), (c, a), (c, c), (a, a)):
                want = reference(t1, t2, limit)
                Counted.products = 0
                assert mul(t1, t2, limit) == want
                below = [m1 + m2 for m1 in t1 for m2 in t2 if limit is None or m1 + m2 < limit]
                if t1 is t2:
                    n = len(t1)
                    diagonal = sum(1 for m in t1 if limit is None or 2 * m < limit)
                    assert Counted.products == (len(below) + diagonal) // 2 <= n * (n + 1) // 2
                else:
                    assert Counted.products == len(below)
        Counted.products = 0
        mul(c, c)
        assert Counted.products == 10  # 4 * 5 / 2

    def test_mul_cancels(self):
        # (1 + x)(1 - x) = 1 - x^2, and (1 + 2x - 2x^2)^2 has no x^2 term
        assert mul({0: F(1), 1: F(1)}, {0: F(1), 1: F(-1)}) == {0: F(1), 2: F(-1)}
        t = {0: F(1), 1: F(2), 2: F(-2)}
        assert mul(t, t) == {0: F(1), 1: F(4), 3: F(-8), 4: F(4)}
        assert mul(t, t, 3) == {0: F(1), 1: F(4)}

    def test_mul_pops_a_cancelled_key_and_forms_it_again(self):
        # (1 + x + x^2)(1 - x + x^2) = 1 + x^2 + x^4: the row of x cancels x
        # and x^2, the row of x^2 forms x^2 again and cancels x^3
        a, b = {0: 1, 1: 1, 2: 1}, {0: 1, 1: -1, 2: 1}
        for limit in (None, 5, 4, 3, 2):
            want = {m: c for m, c in {0: 1, 2: 1, 4: 1}.items() if limit is None or m < limit}
            assert mul(a, b, limit) == want == reference(a, b, limit)

    def test_square_pops_a_cancelled_key_and_its_diagonal_cancels(self):
        # x^4 of (1 + x + x^2 - x^3 + x^4)^2: rows 0 and 1 give 2 - 2, and
        # the diagonal x^2 * x^2 forms it again
        t = {0: 1, 1: 1, 2: 1, 3: -1, 4: 1}
        for limit in (None, 6, 5):
            assert mul(t, t, limit) == reference(t, dict(t), limit) and mul(t, t, limit)[4] == 1
        # x^4 of (1 + x + 2x^2 + x^3 - 3x^4)^2: rows 0 and 1 give -6 + 2, and
        # the diagonal 4 cancels them
        s = {0: 1, 1: 1, 2: 2, 3: 1, 4: -3}
        for limit in (None, 6, 5):
            out = mul(s, s, limit)
            assert out == reference(s, dict(s), limit) and 4 not in out and all(out.values())

    @given(
        t1=st.dictionaries(st.integers(-12, 12), COEFFS, max_size=7),
        t2=st.dictionaries(st.integers(-12, 12), COEFFS, max_size=7),
        limit=st.integers(-26, 26),
    )
    @example(t1={}, t2={3: 1}, limit=0)
    @example(t1={-4: 2}, t2={}, limit=0)
    @example(t1={-4: 2}, t2={7: F(1, 3)}, limit=3)
    @example(t1={0: 1, 1: 1}, t2={0: 1, 1: -1}, limit=2)
    @example(t1={0: 1, 1: 2, 2: -2}, t2={0: 1, 1: 2, 2: -2}, limit=5)
    @settings(max_examples=300, deadline=None)
    def test_mul_matches_reference_kernel(self, t1, t2, limit):
        # int keys of either sign; the limit drawn, None, below every key and
        # above every key; each operand squared, as itself and against a copy
        keys = [*t1, *t2] or [0]
        for lim in (limit, None, 2 * min(keys), 2 * min(keys) - 1, 2 * max(keys) + 1):
            assert mul(t1, t2, lim) == reference(t1, t2, lim)
            for t in (t1, t2):
                want = reference(t, dict(t), lim)
                assert mul(t, t, lim) == want == mul(t, dict(t), lim)
            assert all(mul(t1, t2, lim).values())

    def test_power_starts_from_one(self):
        seen = []

        def logged(a, b):
            seen.append((a, b))
            return a * b

        assert power(3, 5, 1, logged) == 243
        assert seen[0] == (1, 3)  # the base is multiplied into one first
        assert power(3, 0, 1, logged) == 1


class TestTrivialPowers:
    """x**1 is one * x, so the product's truncation rule applies to x's own
    terms.  A jet series' x**0 is the ring's one under x's truncation; a
    ``Series1``'s is the exact 1, so a power of negative valuation loses no
    order to its one."""

    def test_series1(self):
        s = Series1.make("q", {-2: F(1), 1: F(3), 5: F(2)}, 6)
        assert (s**0).to_json() == {"var": "q", "N": None, "terms": [[0, "1"]]}
        # the exact one keeps the known 2 q**5 that a one known below 6 cut
        assert s**1 == s and (s**1).to_json() == s.to_json()
        # valuation -2 lowers the honest bound of a square from 6 to 4
        assert (s**2).N == 4
        # the same with the integer residues that delta0 multiplies; a series
        # of p-adic values has no products, but still has its one
        si = Series1.make("q", {-2: 1, 1: 3, 5: 2}, 6)
        assert (si**1).terms == ((-2, 1), (1, 3), (5, 2)) and (si**1).N == 6
        sp = Series1.make("q", {e: PadicTrunc(5, 4, int(c), 4) for e, c in s.terms}, 6)
        assert (sp**0).to_json() == {"var": "q", "N": None, "terms": [[0, "1"]]}

    def test_jet_series(self):
        # a t-side series takes its powers in the d=1 several-prime ring
        m = MultiJetSeries.make((5,), {(((0,), 1),): F(1), (((1,), 1),): F(2), (((0,), 9),): F(1)}, 10, ring=1)
        t = TSeries(m.P, m._store, m.N, m.ring)
        assert (t**0).to_json() == {**m.to_json(), "r": [0], "terms": [[[], "1"]]}
        assert (t**1).to_json() == m.to_json()

    def test_multi_jet_series(self):
        m = MultiJetSeries.make(
            (5, 7), {(): F(2), (((0, 0), 1),): F(1), (((1, 0), 2),): F(1, 3)}, 12, 1
        )
        assert (m**0).to_json() == {"P": [5, 7], "r": [0, 0], "N": 12, "ring": 1, "terms": [[[], "1"]]}
        assert (m**1).to_json() == m.to_json()
        assert (MultiJetSeries.make((5,), {(): 3}, 0) ** 0).terms == ()
