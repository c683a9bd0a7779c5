"""Truncated one-variable series over exact rationals or truncated p-adics.

``Series1`` models both Laurent series in ``q`` (negative exponents allowed)
and power series in ``t`` (valuation >= 0 enforced).  The truncation order
``N`` is exclusive: the coefficient of ``q**N`` and beyond is unknown.
``N = None`` marks an exact polynomial with no unknown tail.

Only series with finitely many stored terms are representable; elements of
a p-adically completed Laurent ring need not have such representatives in
general, but every series built here does, and the truncation metadata
records exactly what is known.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Union

from . import sparse
from .arith import PadicTrunc, at_least, decode_coeff, encode_coeff, min_order, parse_int
from .errors import DomainError

Coeff = Union[Fraction, PadicTrunc]


def _is_zero(c: Coeff) -> bool:
    if isinstance(c, PadicTrunc):
        return c.residue == 0
    return c == 0


@dataclass(frozen=True)
class Series1:
    """Sparse one-variable series: exponent -> coefficient, truncated at N."""

    var: str  # "q" (Laurent) or "t" (power series)
    terms: tuple[tuple[int, Coeff], ...]
    N: int | None = None

    @staticmethod
    def make(var: str, terms: Mapping[int, Coeff], N: int | None = None) -> "Series1":
        if var not in ("q", "t"):
            raise DomainError(f"unknown base variable {var!r}")
        clean = {}
        for e, c in terms.items():
            if var == "t" and e < 0:
                raise DomainError("negative exponents are not allowed in t-series")
            if N is not None and e >= N:
                continue
            if not _is_zero(c):
                clean[int(e)] = c
        return Series1(var, tuple(sorted(clean.items())), N)

    @staticmethod
    def monomial(var: str, e: int, c: Coeff | int = 1, N: int | None = None) -> "Series1":
        c = c if isinstance(c, PadicTrunc) else Fraction(c)
        return Series1.make(var, {e: c}, N)

    @staticmethod
    def zero(var: str, N: int | None = None) -> "Series1":
        return Series1.make(var, {}, N)

    def coeff(self, e: int) -> Coeff:
        for k, c in self.terms:
            if k == e:
                return c
        return Fraction(0)

    def valuation(self) -> int | None:
        """Exponent of the lowest stored term; None for the zero series."""
        return self.terms[0][0] if self.terms else None

    def map_coeffs(self, f: Callable[[Coeff], Coeff]) -> "Series1":
        return Series1.make(self.var, {e: f(c) for e, c in self.terms}, self.N)

    def to_padic(self, p: int, M: int) -> "Series1":
        def conv(c):
            return c if isinstance(c, PadicTrunc) else PadicTrunc.from_rational(c, p, M)

        return self.map_coeffs(conv)

    # -- ring operations ----------------------------------------------------

    def _check_var(self, other: "Series1"):
        if self.var != other.var:
            raise DomainError("mismatched base variables")

    def __add__(self, other):
        if not isinstance(other, Series1):
            other = Series1.monomial(self.var, 0, other)
        self._check_var(other)
        out = sparse.add(dict(self.terms), dict(other.terms))
        return Series1.make(self.var, out, min_order(self.N, other.N))

    __radd__ = __add__

    def __neg__(self):
        return Series1(self.var, tuple((e, -c) for e, c in self.terms), self.N)

    def __sub__(self, other):
        if not isinstance(other, Series1):
            other = Series1.monomial(self.var, 0, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series1):  # scalar
            return self.map_coeffs(lambda c: c * other)
        self._check_var(other)
        bound = self._mul_order(other)
        t1 = dict(self.terms)  # a square multiplies one dict by itself
        out = sparse.mul(t1, t1 if other is self else dict(other.terms), bound)
        return Series1.make(self.var, out, bound)

    __rmul__ = __mul__

    def _mul_order(self, other: "Series1") -> int | None:
        v1 = self.valuation()
        v2 = other.valuation()
        n1 = None if self.N is None else self.N + (v2 if v2 is not None else 0)
        n2 = None if other.N is None else other.N + (v1 if v1 is not None else 0)
        return min_order(n1, n2)

    def __pow__(self, n: int) -> "Series1":
        if n < 0:
            raise DomainError("negative powers are not defined here")
        return sparse.power(self, n, Series1.monomial(self.var, 0, 1, self.N), operator.mul)

    def truncate(self, N: int) -> "Series1":
        return Series1.make(self.var, dict(self.terms), min_order(self.N, N))

    def __eq__(self, other):
        if not isinstance(other, Series1):
            other = Series1.monomial(self.var, 0, other)
        if self.var != other.var:
            return False
        bound = min_order(self.N, other.N)
        exps = {e for e, _ in self.terms} | {e for e, _ in other.terms}
        for e in exps:
            if bound is not None and e >= bound:
                continue
            c1, c2 = self.coeff(e), other.coeff(e)
            if isinstance(c1, PadicTrunc) and not isinstance(c2, PadicTrunc):
                c2 = PadicTrunc.from_rational(c2, c1.p, c1.M)
            elif isinstance(c2, PadicTrunc) and not isinstance(c1, PadicTrunc):
                c1 = PadicTrunc.from_rational(c1, c2.p, c2.M)
            if c1 != c2:
                return False
        return True

    def __hash__(self):
        return hash((self.var, self.terms))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "var": self.var,
            "N": self.N,
            "terms": [[e, encode_coeff(c)] for e, c in self.terms],
        }

    @staticmethod
    def from_json(obj: Mapping) -> "Series1":
        """The payload's series: N and every exponent read by ``parse_int``,
        N null or not negative."""
        N = obj.get("N")
        if N is not None:
            N = parse_int(N)
            at_least(0, N=N)
        return Series1.make(obj["var"], {parse_int(e): decode_coeff(c) for e, c in obj["terms"]}, N)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def log1p(x: Series1, order: int | None = None) -> Series1:
    """log(1 + x) = sum (-1)^(n-1) x^n / n for a series of valuation >= 1."""
    v = x.valuation()
    if v is not None and v < 1:
        raise DomainError("log1p needs positive valuation")
    N = min_order(x.N, order)
    if v is None:
        return Series1.zero(x.var, N)
    if N is None:
        raise DomainError("log1p of an exact series needs an order bound")
    out = Series1.zero(x.var, N)
    power = Series1.monomial(x.var, 0, 1, N)
    for n in range(1, N // v + 1):
        power = (power * x).truncate(N)
        if not power.terms:
            break
        out = out + power * Fraction((-1) ** (n - 1), n)
    return out


def pow_weight(u: Series1, gamma: int | PadicTrunc, order: int | None = None) -> Series1:
    """(1 + x)**gamma; exact for integer gamma >= 0, binomial series for p-adic.

    A p-adic exponent requires leading coefficient 1, i.e. u = 1 + x with
    val(x) >= 1; the binomial coefficients C(gamma, k) then drive the series.
    """
    if isinstance(gamma, int):
        return (u.truncate(order) if order is not None else u) ** gamma
    from .arith import padic_binomial

    c0 = u.coeff(0)
    one_ok = (
        c0 == 1
        if not isinstance(c0, PadicTrunc)
        else c0 == PadicTrunc.from_rational(1, c0.p, c0.M)
    )
    if not one_ok or (u.valuation() is not None and u.valuation() < 0):
        raise DomainError("p-adic exponent needs a series of the form 1 + x")
    x = u - 1
    N = min_order(u.N, order)
    if N is None:
        raise DomainError("p-adic power of an exact series needs an order bound")
    x = x.truncate(N).to_padic(gamma.p, gamma.M)
    out = Series1.monomial(u.var, 0, PadicTrunc.from_rational(1, gamma.p, gamma.M), N)
    power = Series1.monomial(u.var, 0, PadicTrunc.from_rational(1, gamma.p, gamma.M), N)
    v = x.valuation()
    if v is None:
        return out
    for k in range(1, N // v + 1):
        power = (power * x).truncate(N)
        if not power.terms:
            break
        out = out + power * padic_binomial(gamma, k)
    return out


def frobenius_sub(a: Series1, p: int) -> Series1:
    """Substitute q -> q**p (coefficients are fixed by design).

    A tail unknown from exponent N on maps to exponents p*N and beyond, and
    the gaps between multiples of p are known to vanish, so the result is
    honest through p*N.
    """
    N = None if a.N is None else p * a.N
    return Series1.make(a.var, {p * e: c for e, c in a.terms}, N)


def delta0(a: Series1, p: int, M: int) -> Series1:
    """Coefficientwise Fermat-quotient operator on q-expansions.

    Computes (a(q**p) - a(q)**p) / p over truncated p-adics; the division
    consumes one guaranteed digit.
    """
    ap = a.to_padic(p, M)
    num = frobenius_sub(ap, p) - ap**p
    return num.map_coeffs(lambda c: c.divide_by_p())
