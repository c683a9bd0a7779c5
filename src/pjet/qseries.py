"""Truncated one-variable series, and the q-side operator ``delta0``.

``Series1`` models both Laurent series in ``q`` (negative exponents allowed)
and power series in ``t`` (valuation >= 0 enforced).  The truncation order
``N`` is exclusive: the coefficient of ``q**N`` and beyond is unknown, and
on a Laurent series N may be negative.  ``N = None`` marks an exact
polynomial with no unknown tail.

Coefficients are exact rationals, with ring arithmetic, or truncated p-adics,
which a series only stores, compares and writes: ``delta0`` computes in the
integer residues and gives its result as p-adic values.

Only series with finitely many stored terms are representable; elements of
a p-adically completed Laurent ring need not have such representatives in
general, but every series built here does, and the truncation metadata
records exactly what is known.
"""

from __future__ import annotations

import functools
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from . import sparse
from .arith import PadicTrunc, check_prime, decode_coeff, encode_coeff, min_order, parse_int, reduce_rational_mod
from .errors import DomainError, PrecisionExhausted

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

    @functools.cached_property
    def _coeffs(self) -> dict[int, Coeff]:
        return dict(self.terms)

    def coeff(self, e: int) -> Coeff:
        return self._coeffs.get(e, Fraction(0))

    def valuation(self) -> int | None:
        """Exponent of the lowest stored term; None for the zero series."""
        return self.terms[0][0] if self.terms else None

    # -- ring operations ----------------------------------------------------

    def _check_var(self, other: "Series1"):
        if self.var != other.var:
            raise DomainError("mismatched base variables")

    def __add__(self, other):
        if not isinstance(other, Series1):
            other = Series1.monomial(self.var, 0, other)
        self._check_var(other)
        out = sparse.add(self._coeffs, other._coeffs)
        return Series1.make(self.var, out, min_order(self.N, other.N))

    __radd__ = __add__

    def __neg__(self):
        return Series1(self.var, tuple((e, -c) for e, c in self.terms), self.N)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series1):  # scalar
            return Series1.make(self.var, {e: c * other for e, c in self.terms}, self.N)
        self._check_var(other)
        bound = self._mul_order(other)
        out = sparse.mul(self._coeffs, other._coeffs, bound)  # a square multiplies one dict by itself
        return Series1.make(self.var, out, bound)

    __rmul__ = __mul__

    def _mul_order(self, other: "Series1") -> int | None:
        n1 = None if self.N is None else self.N + other._low()
        n2 = None if other.N is None else other.N + self._low()
        return min_order(n1, n2)

    def _low(self) -> int:
        """An exponent at or below every term, stored or unknown: the valuation,
        or with no stored term N, the first exponent that can hold one (0 for
        the exact zero)."""
        v = self.valuation()
        return v if v is not None else self.N or 0

    def __pow__(self, n: int) -> "Series1":
        if n < 0:
            raise DomainError("negative powers are not defined here")
        return sparse.power(self, n, Series1.monomial(self.var, 0, 1), operator.mul)

    def truncate(self, N: int) -> "Series1":
        return Series1.make(self.var, self._coeffs, min_order(self.N, N))

    def __eq__(self, other):
        if isinstance(other, (numbers.Rational, PadicTrunc)):
            other = Series1.monomial(self.var, 0, other)
        elif not isinstance(other, Series1):
            return NotImplemented
        if self.var != other.var:
            return False
        bound = min_order(self.N, other.N)
        keys = self._coeffs.keys() | other._coeffs.keys()
        return all(self.coeff(e) == other.coeff(e) for e in keys if bound is None or e < bound)

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
        """The payload's series: N and every exponent read by ``parse_int``.
        N may be negative: a Laurent series known below a negative power."""
        N = obj.get("N")
        if N is not None:
            N = parse_int(N)
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


def pow_weight(u: Series1, gamma: int, order: int | None = None) -> Series1:
    """u**gamma for an integer gamma >= 0, with u first cut at ``order``."""
    return (u.truncate(order) if order is not None else u) ** gamma


def delta0(a: Series1, p: int, M: int) -> Series1:
    """Coefficientwise Fermat-quotient operator on q-expansions:
    (a(q**p) - a(q)**p) / p, computed in integer residues mod p**m.

    A rational coefficient is read at (M, M), a p-adic one at its own
    (M, digits); m is the least M and g the least digits, and every output
    coefficient keeps g - 1 digits, as the division by p spends one.  Each
    product keeps only its nonzero residues, which set its valuation and so
    its truncation order.  Fermat makes every numerator divisible by p.
    """
    check_prime(p)
    for _, c in a.terms:
        if isinstance(c, PadicTrunc) and c.p != p:
            raise DomainError(f"a {c.p}-adic coefficient has no delta0 at p={p}")
    prec = [(c.M, c.digits) if isinstance(c, PadicTrunc) else (M, M) for _, c in a.terms]
    m, g = min((x for x, _ in prec), default=M), min((y for _, y in prec), default=M)
    mod = p**m
    r = Series1.make(
        a.var,
        {e: c.residue % mod if isinstance(c, PadicTrunc) else reduce_rational_mod(c, p, m) for e, c in a.terms},
        a.N,
    )

    def mul(x: Series1, y: Series1) -> Series1:
        xy = x * y
        return Series1.make(xy.var, {e: c % mod for e, c in xy.terms}, xy.N)

    rp = sparse.power(r, p, Series1.make(a.var, {0: 1}), mul)
    N = min_order(None if a.N is None else p * a.N, rp.N)
    num = sparse.add({p * e: c for e, c in r.terms}, {e: -c for e, c in rp.terms})
    out = Series1.make(a.var, {e: c % mod for e, c in num.items()}, N)
    if out.terms and g < 1:
        raise PrecisionExhausted("no guaranteed digits left")
    return Series1(a.var, tuple((e, PadicTrunc(p, m, x // p, g - 1)) for e, x in out.terms), N)
