"""Exact coefficient domains and Fermat-quotient p-derivations.

Coefficients are exact rationals (``Fraction``) or :class:`PadicTrunc`,
truncated p-adic integers: a residue modulo ``p**M`` together with a count
``digits`` of guaranteed base-p digits.  A ``PadicTrunc`` is a value that is
built, compared and written, with no arithmetic of its own: code that
computes with truncated p-adics, such as ``qseries.delta0``, works on the
integer residues and spends one guaranteed digit on each division by ``p``.

With the identity Frobenius lift, the p-derivation of a p-integral rational
is the plain Fermat quotient ``delta(a) = (a - a**p) / p``.

The module also hosts the twisted-addition polynomial ``C_p``, the two-prime
commutator polynomial, integer binomial coefficients, and multi-modular
rational reconstruction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import DomainError, IntegralityViolation, ReconstructionFailure

Rat = Union[int, Fraction]


def min_order(*orders: int | None) -> int | None:
    """Smallest of the bounds given, skipping None (no bound); None if all are."""
    vals = [o for o in orders if o is not None]
    return min(vals) if vals else None


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_prime(p: int) -> int:
    if not is_prime(p):
        raise DomainError(f"{p} is not a prime")
    return p


def valuation(x: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero rational; raises on zero.  An int is
    read as it is, with no ``Fraction``."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    if x == 0:
        raise DomainError("valuation of zero is undefined")
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def format_rational(x: Fraction | int) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_ratio(s: str) -> tuple[int, int]:
    """``s`` as integers (n, d) with d > 0, not reduced."""
    s = s.strip()
    if "/" not in s:
        return int(s), 1
    n, d = s.split("/")
    if (d := int(d)) == 0:
        raise DomainError(f"zero denominator in {s!r}")
    return (int(n), d) if d > 0 else (-int(n), -d)


def parse_int(x) -> int:
    """An integer read from a payload: an int, or a string ``int`` accepts.
    A float or a bool is refused, even with an integral value."""
    if isinstance(x, (bool, float)):
        raise DomainError(f"expected an integer, got {x!r}")
    return int(x)


def at_least(low: int, **values: int) -> None:
    """Refuse, with a ``DomainError``, each named value below ``low``."""
    for name, value in values.items():
        if value < low:
            raise DomainError(f"{name} must be at least {low}, got {value}")


def parse_rational(s: str) -> Fraction:
    return Fraction(*parse_ratio(s))


# ---------------------------------------------------------------------------
# PadicTrunc
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PadicTrunc:
    """Truncated p-adic integer: residue mod p**M with g guaranteed digits.

    ``digits`` is the number of base-p digits of the residue that are known
    to agree with the exact value; equality only compares that many digits.
    """

    p: int
    M: int
    residue: int
    digits: int

    def __post_init__(self):
        check_prime(self.p)
        if not (0 < self.M):
            raise DomainError("modulus exponent must be positive")
        if not (0 <= self.digits <= self.M):
            raise DomainError("digits must lie in [0, M]")
        object.__setattr__(self, "residue", self.residue % self.p**self.M)

    @staticmethod
    def from_rational(x: Rat, p: int, M: int, digits: int | None = None) -> "PadicTrunc":
        return PadicTrunc(p, M, reduce_rational_mod(x, p, M), M if digits is None else digits)

    def __eq__(self, other):
        """Agreement to the guaranteed digits both sides share; a rational is
        read at this value's (p, M), and one that is not p-integral differs."""
        if isinstance(other, numbers.Rational):
            try:
                other = PadicTrunc.from_rational(other, self.p, self.M)
            except DomainError:
                return NotImplemented
        if not isinstance(other, PadicTrunc):
            return NotImplemented
        g = min(self.digits, other.digits)
        return other.p == self.p and (self.residue - other.residue) % self.p**g == 0

    def __hash__(self):
        return hash((self.p, self.residue % self.p**self.digits, self.digits))

    def to_json(self) -> dict:
        return {"p": self.p, "M": self.M, "residue": str(self.residue), "digits": self.digits}

    @staticmethod
    def from_json(obj: Mapping) -> "PadicTrunc":
        """The payload's value, each field read by ``parse_int``."""
        return PadicTrunc(*(parse_int(obj[k]) for k in ("p", "M", "residue", "digits")))

    def __str__(self) -> str:
        return f"{self.residue} + O({self.p}^{self.digits})"


def encode_coeff(c: Fraction | PadicTrunc):
    """JSON form of a series coefficient: a rational string or a p-adic object."""
    return c.to_json() if isinstance(c, PadicTrunc) else format_rational(c)


def decode_coeff(c) -> Fraction | PadicTrunc:
    return PadicTrunc.from_json(c) if isinstance(c, dict) else parse_rational(c)


# ---------------------------------------------------------------------------
# Fermat quotients and the twisted-addition polynomials
# ---------------------------------------------------------------------------


def fermat_delta(a: Rat, p: int) -> Rat:
    """Fermat quotient ``(a - a**p) / p`` of a p-integral rational, with the
    identity Frobenius; an int gives an int."""
    check_prime(p)
    x = Fraction(a)
    if x.denominator % p == 0:
        raise DomainError(f"{x} is not p-integral at p={p}")
    out = (x - x**p) / p
    if isinstance(a, int):
        return int(out) if out.denominator == 1 else out
    return out


def cp_coefficients(p: int) -> dict[tuple[int, int], int]:
    """Integer coefficients of C_p(X, Y) = (X^p + Y^p - (X+Y)^p) / p."""
    check_prime(p)
    out = {}
    for k in range(1, p):
        out[(k, p - k)] = -math.comb(p, k) // p
    return out


def cp_polynomial(x, y, p: int):
    """Evaluate C_p at ring elements using only ring operations.

    The division by p is absorbed into the integer coefficients -C(p,k)/p,
    so the evaluation is exact in any ring.
    """
    terms = cp_coefficients(p)
    acc = None
    for (i, j), c in sorted(terms.items()):
        t = c * x**i * y**j
        acc = t if acc is None else acc + t
    return acc


def _int_fermat(a: int, p: int) -> int:
    return (a - a**p) // p


def cross_prime_commutator(x0, x1, x2, p1: int, p2: int):
    """Two-prime commutator polynomial at (x0, x1, x2).

    With x1 = delta_{p1} x0 and x2 = delta_{p2} x0 its value equals
    delta_{p1} delta_{p2} x0 - delta_{p2} delta_{p1} x0.  All four displayed
    terms have integer polynomial coefficients, which we use directly so that
    no ring division is required.
    """
    check_prime(p1)
    check_prime(p2)
    if p1 == p2:
        raise DomainError("the two primes must be distinct")

    def cp_scaled(a, b_scalar, x_inner, p_outer: int, p_div: int):
        # C_{p_outer}(a, b_scalar * x_inner) / p_div with integer coefficients.
        acc = None
        for k in range(1, p_outer):
            c = (-math.comb(p_outer, k) // p_outer) * b_scalar ** (p_outer - k)
            if c % p_div != 0:
                raise IntegralityViolation("commutator coefficient not integral")
            t = (c // p_div) * a**k * x_inner ** (p_outer - k)
            acc = t if acc is None else acc + t
        return acc

    term1 = cp_scaled(x0**p1, p1, x1, p2, p1)
    term2 = cp_scaled(x0**p2, p2, x2, p1, p2)
    c3, r3 = divmod(_int_fermat(p2, p1), p2)
    c4, r4 = divmod(_int_fermat(p1, p2), p1)
    if r3 or r4:  # (1 - q**(p-1)) / p is integral by Fermat's little theorem
        raise IntegralityViolation("Fermat-quotient scalar not integral")
    return term1 - term2 - c3 * x2**p1 + c4 * x1**p2


# ---------------------------------------------------------------------------
# Binomial coefficients
# ---------------------------------------------------------------------------


def binomial(a: int, j: int) -> int:
    """C(a, j) = a (a-1) ... (a-j+1) / j! for any integer a and j >= 0; for
    a < 0 that is (-1)**j C(j - a - 1, j)."""
    return math.comb(a, j) if a >= 0 else (-1) ** j * math.comb(j - a - 1, j)


# ---------------------------------------------------------------------------
# Multi-modular rational reconstruction
# ---------------------------------------------------------------------------


def crt_combine(residues: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Combine (residue, modulus) pairs; moduli must be pairwise coprime."""
    x, m = 0, 1
    for r, n in residues:
        g = math.gcd(m, n)
        if g != 1:
            raise DomainError("moduli not coprime")
        x = (x + m * ((r - x) * pow(m, -1, n) % n)) % (m * n)
        m *= n
    return x, m


def rational_reconstruct(
    residues: Sequence[tuple[int, int, int]],
    height: int | None = None,
) -> Fraction:
    """Recover the unique small rational matching all prime-power residues.

    ``residues`` is a list of (prime, modulus exponent, residue).  The result
    n/d satisfies |n|, d <= floor(sqrt(m/2)) for the combined modulus m, has
    d coprime to every listed prime, and reduces to every residue.  If a
    target ``height`` is requested it must fit under that certifiable bound.
    """
    if not residues:
        raise DomainError("at least one residue required")
    primes = [p for p, _, _ in residues]
    if len(set(primes)) != len(primes):
        raise DomainError("duplicate primes in residue list")
    for p, M, _ in residues:
        check_prime(p)
        if M < 1:
            raise DomainError("modulus exponent must be positive")
    x, m = crt_combine([(r % p**M, p**M) for p, M, r in residues])
    bound = math.isqrt(m // 2)
    if height is not None:
        if height > bound:
            raise ReconstructionFailure(
                f"requested height {height} exceeds certifiable bound {bound}"
            )
        bound = height

    # Half-extended Euclid on (m, x): rows r = s*m + t*x.
    r0, t0 = m, 0
    r1, t1 = x % m, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    n, d = r1, t1
    if d < 0:
        n, d = -n, -d
    if d == 0 or abs(n) > bound or d > bound or math.gcd(n, d) != 1:
        raise ReconstructionFailure("no rational within the height bound")
    for p in primes:
        if d % p == 0:
            raise ReconstructionFailure(f"denominator {d} not coprime to {p}")
    if (n - d * x) % m != 0:
        raise ReconstructionFailure("candidate does not match the residues")
    return Fraction(n, d)


def reduce_rational_mod(x: Fraction | int, p: int, M: int) -> int:
    """Residue of a p-integral rational modulo p**M."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise DomainError(f"{x} is not p-integral at p={p}")
    mod = p**M
    return x.numerator * pow(x.denominator, -1, mod) % mod
