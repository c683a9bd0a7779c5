"""Cross-checks against sympy and against second computation routes.

These tests re-derive selected values through code paths that share nothing
with the library internals (sympy's symbolic engine, or plain brute-force
enumeration), so agreement is strong evidence rather than self-consistency.
sympy is optional; the module skips cleanly without it.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from pjet.deltajet import psi_serretate  # noqa: E402
from pjet.modular import (  # noqa: E402
    CURVE_11A1,
    ap_point_count,
    bernoulli,
    divisor_sigma,
    eisenstein,
)


class TestSympyOracles:
    def test_bernoulli_numbers(self):
        ours = [bernoulli(n) for n in range(21)]
        for n in range(21):
            want = sympy.bernoulli(n)
            if n == 1:
                want = sympy.Rational(-1, 2)  # sympy >= 1.12 uses B1 = +1/2
            assert ours[n] == Fraction(int(want.p), int(want.q))

    def test_divisor_sigma(self):
        for n in range(1, 60):
            for k in (1, 3, 5):
                assert divisor_sigma(n, k) == int(sympy.divisor_sigma(n, k))

    def test_eisenstein_against_sympy_arithmetic(self):
        e4 = eisenstein(4, 12)
        b4 = sympy.Rational(-1, 30)
        for n in range(1, 12):
            want = -sympy.Rational(8) / b4 * sympy.divisor_sigma(n, 3)
            assert e4.coeff(n) == Fraction(int(want.p), int(want.q))

    def test_order_one_series_vs_symbolic_expansion(self):
        # expand (1/p)(log(1 + t^p + p*s) - p log(1 + t)) with sympy, where s
        # is an independent symbol standing for the first jet of t, and
        # compare coefficients with the library's series
        p, N = 5, 12
        t, s = sympy.symbols("t s")
        expr = (sympy.log(1 + t**p + p * s) - p * sympy.log(1 + t)) / p
        ours = psi_serretate(p, N)
        # weighted degree < 12 admits jet exponents 0 and 1 only (wt(s) = 5);
        # the payload terms are [b, c, jets], b the power of t
        for b, c, jets in ours.to_json()["terms"]:
            e1 = jets[0] if jets else 0
            poly = expr
            for _ in range(e1):
                poly = sympy.diff(poly, s)
            poly = poly.subs(s, 0) / sympy.factorial(e1)
            want = sympy.series(poly, t, 0, b + 1).coeff(t, b)
            assert Fraction(c) == Fraction(int(sympy.nsimplify(want).p), int(sympy.nsimplify(want).q))

    def test_jet_delta_against_rational_function(self):
        # the substitution-formula derivative of f = (z^p + p z1)/z equals the
        # exact rational function ((phi f) - f^p)/p; compare the library's
        # truncated expansion with sympy's series in z1 modulo p^3
        from _helpers import delta_terms

        from pjet.arith import valuation

        p, M = 5, 3
        f = {((p - 1,), ()): Fraction(1), ((-1, 1), ()): Fraction(p)}

        got = delta_terms(f, p, None, M, M)

        z, z1, z2 = sympy.symbols("z z1 z2")
        fr = (z**p + p * z1) / z
        phif = ((z**p + p * z1) ** p + p * (z1**p + p * z2)) / (z**p + p * z1)
        deltaf = sympy.together((phif - fr**p) / p)
        # expand beyond z1^p: the result contains z1-degrees up to p + 1
        order = p + 3
        series = sympy.series(deltaf, z1, 0, order).removeO()
        poly = sympy.Poly(sympy.expand(series * z ** (order * p * p)), z, z1, z2)
        want = {}
        for (ez, e1, e2), coeff in poly.terms():
            c = sympy.nsimplify(coeff)
            want[(ez - order * p * p, e1, e2)] = Fraction(int(c.p), int(c.q))
        # the library divides by p after cutting tails at p^M, so its output
        # is guaranteed modulo p^(M-1); the comparison matches that contract
        seen = set()
        for (zexps, _), c in got.items():
            ez = zexps[0] if zexps else 0
            e1 = zexps[1] if len(zexps) > 1 else 0
            e2 = zexps[2] if len(zexps) > 2 else 0
            seen.add((ez, e1, e2))
            diff = Fraction(c) - want.get((ez, e1, e2), Fraction(0))
            assert diff == 0 or valuation(diff, p) >= M - 1
        for key, w in want.items():
            if key not in seen:
                assert w == 0 or valuation(w, p) >= M - 1


class TestDualRoutePointCounts:
    def test_character_sum_equals_enumeration(self):
        # two independent counting methods must agree at every good prime
        E = CURVE_11A1
        p = 5
        while p <= 97:
            if E.discriminant() % p:
                by_character = ap_point_count(E, p)
                count = 1
                for x in range(p):
                    for y in range(p):
                        lhs = (y * y + E.a1 * x * y + E.a3 * y) % p
                        rhs = (x**3 + E.a2 * x * x + E.a4 * x + E.a6) % p
                        count += lhs == rhs
                assert by_character == p + 1 - count
            p += 1
            while any(p % f == 0 for f in range(2, int(p**0.5) + 1)):
                p += 1
