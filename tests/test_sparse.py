"""The shared sparse kernel, and x**0 / x**1 in every ring that uses it."""

import operator
from fractions import Fraction as F

from pjet.arith import PadicTrunc
from pjet.deltajet import JetSeries
from pjet.multiprime import MultiJetSeries
from pjet.qseries import Series1
from pjet.sparse import add, mul, power, scale


class Counted(int):
    """An integer coefficient that counts its multiplications."""

    products = 0

    def __mul__(self, other):
        Counted.products += 1
        return Counted(int(self) * int(other))


class TestKernel:
    def test_add_drops_cancelled_terms(self):
        assert add({1: F(1), 2: F(3)}, {1: F(-1)}, {3: F(0)}) == {2: F(3)}
        assert add() == {}

    def test_scale(self):
        assert scale({1: F(2), 4: F(-1)}, F(1, 2)) == {1: F(1), 4: F(-1, 2)}
        assert scale({1: F(2)}, 0) == {}

    def test_mul_prunes_before_the_coefficient_product(self):
        a = {0: Counted(1), 1: Counted(2), 2: Counted(3)}
        b = {0: Counted(1), 3: Counted(5)}
        Counted.products = 0
        out = mul(a, b, operator.add, lambda e: e < 3)
        assert out == {0: 1, 1: 2, 2: 3}
        assert Counted.products == 3  # the three pairs landing at 3, 4, 5 are never formed

    def test_mul_cancels(self):
        # (1 + x)(1 - x) = 1 - x^2
        assert mul({0: F(1), 1: F(1)}, {0: F(1), 1: F(-1)}, operator.add, lambda e: True) == {
            0: F(1),
            2: F(-1),
        }

    def test_power_starts_from_one(self):
        seen = []

        def logged(a, b):
            seen.append((a, b))
            return a * b

        assert power(3, 5, 1, logged) == 243
        assert seen[0] == (1, 3)  # the base is multiplied into one first
        assert power(3, 0, 1, logged) == 1


class TestTrivialPowers:
    """x**0 is the ring's one under x's truncation; x**1 is one * x, so the
    product's truncation rule applies to x's own terms."""

    def test_series1(self):
        s = Series1.make("q", {-2: F(1), 1: F(3), 5: F(2)}, 6)
        assert (s**0).to_json() == {"var": "q", "N": 6, "terms": [[0, "1"]]}
        # valuation -2 lowers the honest bound of a product from 6 to 4
        assert (s**1).to_json() == {"var": "q", "N": 4, "terms": [[-2, "1"], [1, "3"]]}
        sp = s.to_padic(5, 4)
        assert (sp**0).to_json() == {"var": "q", "N": 6, "terms": [[0, "1"]]}
        assert (sp**1).to_json() == {
            "var": "q",
            "N": 4,
            "terms": [
                [-2, {"p": 5, "M": 4, "residue": "1", "digits": 4}],
                [1, {"p": 5, "M": 4, "residue": "3", "digits": 4}],
            ],
        }

    def test_jet_series(self):
        j = JetSeries.make(
            5, "q", {(-2, ()): F(1), (7, (1,)): F(3), (3, ()): F(50)}, M=4, digits=2, base_order=8
        )
        meta = {"var": "q", "p": 5, "M": 4, "digits": 2, "N": None}
        assert (j**0).to_json() == {**meta, "base_order": 8, "terms": [[0, "1", []]]}
        assert (j**1).to_json() == {**meta, "base_order": 6, "terms": [[-2, "1", []]]}
        t = JetSeries.make(5, "t", {(1, ()): F(1), (0, (1,)): F(2), (9, ()): F(1)}, N=10)
        assert (t**0).to_json() == {**t.to_json(), "terms": [[0, "1", []]]}
        assert (t**1).to_json() == t.to_json()

    def test_multi_jet_series(self):
        m = MultiJetSeries.make(
            (5, 7), {(): F(2), (((0, 0), 1),): F(1), (((1, 0), 2),): F(1, 3)}, 12, 1
        )
        assert (m**0).to_json() == {"P": [5, 7], "r": [0, 0], "N": 12, "ring": 1, "terms": [[[], "1"]]}
        assert (m**1).to_json() == m.to_json()
        assert (MultiJetSeries.make((5,), {(): 3}, 0) ** 0).terms == ()

    def test_padic(self):
        x = PadicTrunc(5, 4, 7, 3)
        assert (x**0).to_json() == {"p": 5, "M": 4, "residue": "1", "digits": 3}
        assert (x**1).to_json() == x.to_json()
        assert x**-1 * x == 1
