"""Exact coefficient domains and Fermat-quotient p-derivations.

Two carriers are provided:

* :class:`LocalizedRational` -- rationals whose denominator is coprime to
  every prime of a fixed active set ``P`` (the intersection of the local
  rings at those primes).
* :class:`PadicTrunc` -- truncated p-adic integers: a residue modulo ``p**M``
  together with a count ``digits`` of guaranteed base-p digits.  Each exact
  division by ``p`` consumes one guaranteed digit.

On both carriers the Frobenius lift is the identity, so the p-derivation is
the plain Fermat quotient ``delta(a) = (a - a**p) / p``.

The module also hosts the twisted-addition polynomial ``C_p``, the two-prime
commutator polynomial, p-adic binomial coefficients, and multi-modular
rational reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    DomainError,
    IntegralityViolation,
    PrecisionExhausted,
    ReconstructionFailure,
)

Rat = Union[int, Fraction]


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
    """p-adic valuation of a nonzero rational; raises on zero."""
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


# ---------------------------------------------------------------------------
# LocalizedRational
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalizedRational:
    """Exact rational with denominator coprime to every prime in ``primes``."""

    value: Fraction
    primes: tuple[int, ...]

    @staticmethod
    def make(value: Rat | str, primes: Iterable[int]) -> "LocalizedRational":
        ps = tuple(sorted({check_prime(p) for p in primes}))
        if isinstance(value, str):
            value = parse_rational(value)
        v = Fraction(value)
        for p in ps:
            if v.denominator % p == 0:
                raise DomainError(f"denominator {v.denominator} not coprime to {p}")
        return LocalizedRational(v, ps)

    @property
    def numerator(self) -> int:
        return self.value.numerator

    @property
    def denominator(self) -> int:
        return self.value.denominator

    def _coerce(self, other) -> "LocalizedRational":
        if isinstance(other, LocalizedRational):
            if other.primes != self.primes:
                raise DomainError("mismatched active prime sets")
            return other
        return LocalizedRational.make(other, self.primes)

    def __add__(self, other):
        o = self._coerce(other)
        return LocalizedRational(self.value + o.value, self.primes)

    __radd__ = __add__

    def __neg__(self):
        return LocalizedRational(-self.value, self.primes)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return LocalizedRational(self.value * o.value, self.primes)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.value == 0:
            raise ZeroDivisionError("division by zero")
        return LocalizedRational.make(self.value / o.value, self.primes)

    def __pow__(self, n: int):
        return LocalizedRational(self.value**n, self.primes)

    def __eq__(self, other):
        if isinstance(other, LocalizedRational):
            return self.value == other.value
        return self.value == other

    def __hash__(self):
        return hash((self.value, self.primes))

    def __str__(self) -> str:
        return format_rational(self.value)


def format_rational(x: Fraction | int) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    s = s.strip()
    if "/" in s:
        n, d = s.split("/")
        return Fraction(int(n), int(d))
    return Fraction(int(s))


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
        x = Fraction(x)
        if x.denominator % p == 0:
            raise DomainError(f"{x} is not p-integral at p={p}")
        mod = p**M
        res = x.numerator * pow(x.denominator, -1, mod) % mod
        return PadicTrunc(p, M, res, M if digits is None else digits)

    def _coerce(self, other) -> "PadicTrunc":
        if isinstance(other, PadicTrunc):
            if other.p != self.p:
                raise DomainError("mismatched primes")
            return other
        return PadicTrunc.from_rational(other, self.p, self.M)

    def __add__(self, other):
        o = self._coerce(other)
        M = min(self.M, o.M)
        return PadicTrunc(self.p, M, self.residue + o.residue, min(self.digits, o.digits, M))

    __radd__ = __add__

    def __neg__(self):
        return PadicTrunc(self.p, self.M, -self.residue, self.digits)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        M = min(self.M, o.M)
        return PadicTrunc(self.p, M, self.residue * o.residue, min(self.digits, o.digits, M))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.unit_inverse() ** (-n)
        out = PadicTrunc(self.p, self.M, 1, self.digits)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def unit_inverse(self) -> "PadicTrunc":
        if self.residue % self.p == 0:
            raise DomainError("not a unit")
        inv = pow(self.residue, -1, self.p**self.M)
        return PadicTrunc(self.p, self.M, inv, self.digits)

    def divide_by_p(self) -> "PadicTrunc":
        if self.digits <= 0:
            raise PrecisionExhausted("no guaranteed digits left")
        if self.residue % self.p != 0:
            raise IntegralityViolation(f"residue {self.residue} not divisible by {self.p}")
        # The top digit of the quotient is unconstrained by the stored residue.
        return PadicTrunc(self.p, self.M, self.residue // self.p, self.digits - 1)

    def is_zero(self) -> bool:
        """Zero to the guaranteed precision."""
        return self.residue % self.p**self.digits == 0

    def __eq__(self, other):
        if isinstance(other, PadicTrunc):
            if other.p != self.p:
                return False
            g = min(self.digits, other.digits)
            return (self.residue - other.residue) % self.p**g == 0
        try:
            return self == self._coerce(other)
        except DomainError:
            return NotImplemented

    def __hash__(self):
        return hash((self.p, self.residue % self.p**self.digits, self.digits))

    def to_json(self) -> dict:
        return {"p": self.p, "M": self.M, "residue": str(self.residue), "digits": self.digits}

    @staticmethod
    def from_json(obj: Mapping) -> "PadicTrunc":
        return PadicTrunc(int(obj["p"]), int(obj["M"]), int(obj["residue"]), int(obj["digits"]))

    def __str__(self) -> str:
        return f"{self.residue} + O({self.p}^{self.digits})"


# ---------------------------------------------------------------------------
# Weights w = sum a_i * phi^i
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Weight:
    """Formal integer combination of Frobenius powers.

    Keys are plain integers for the one-prime ring and integer tuples for the
    several-prime ring; values are the integer coefficients a_i.
    """

    coeffs: tuple[tuple[object, int], ...]

    @staticmethod
    def make(coeffs: Mapping) -> "Weight":
        items = tuple(sorted((k, int(v)) for k, v in coeffs.items() if v != 0))
        return Weight(items)

    @staticmethod
    def single(*a: int) -> "Weight":
        """Weight a_0 + a_1*phi + ... from positional coefficients."""
        return Weight.make({i: c for i, c in enumerate(a)})

    def deg(self) -> int:
        return sum(c for _, c in self.coeffs)

    def ord(self) -> int:
        if not self.coeffs:
            return 0
        keys = [k for k, _ in self.coeffs]
        if isinstance(keys[0], tuple):
            return max(sum(k) for k in keys)
        return max(keys)

    def items(self):
        return self.coeffs

    def __add__(self, other: "Weight") -> "Weight":
        d = dict(self.coeffs)
        for k, c in other.coeffs:
            d[k] = d.get(k, 0) + c
        return Weight.make(d)

    def __neg__(self) -> "Weight":
        return Weight.make({k: -c for k, c in self.coeffs})


# ---------------------------------------------------------------------------
# Fermat quotients and the twisted-addition polynomials
# ---------------------------------------------------------------------------


def fermat_delta(a, p: int):
    """Fermat quotient ``(a - a**p) / p`` with the identity Frobenius.

    Accepts ints, Fractions, LocalizedRational and PadicTrunc; the result
    stays in the same domain.  For PadicTrunc one guaranteed digit is spent.
    """
    check_prime(p)
    if isinstance(a, PadicTrunc):
        if a.p != p:
            raise DomainError(f"carrier prime {a.p} != {p}")
        return (a - a**p).divide_by_p()
    if isinstance(a, LocalizedRational):
        if p not in a.primes:
            raise DomainError(f"{p} not in active prime set {a.primes}")
        return LocalizedRational((a.value - a.value**p) / p, a.primes)
    x = Fraction(a)
    if x.denominator % p == 0:
        raise DomainError(f"{x} is not p-integral at p={p}")
    out = (x - x**p) / p
    if isinstance(a, int):
        return int(out) if out.denominator == 1 else out
    return out


def frobenius_value(a, p: int):
    """phi(a) = a**p + p*delta(a); the identity map on these domains."""
    return a**p + p * fermat_delta(a, p)


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
# p-adic binomial coefficients
# ---------------------------------------------------------------------------


def padic_binomial(gamma: PadicTrunc, k: int) -> PadicTrunc:
    """Binomial coefficient C(gamma, k) of a p-adic integer.

    Integrality is classical; the computation spends v_p(k!) guaranteed
    digits on the division by k!.
    """
    if k < 0:
        raise DomainError("k must be nonnegative")
    p = gamma.p
    num = PadicTrunc(p, gamma.M, 1, gamma.digits)
    for i in range(k):
        num = num * (gamma - i)
    fact = math.factorial(k)
    v = 0
    while fact % p == 0:
        fact //= p
        v += 1
    for _ in range(v):
        num = num.divide_by_p()
    return num * PadicTrunc.from_rational(Fraction(1, fact), p, num.M)


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
) -> LocalizedRational:
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
    return LocalizedRational.make(Fraction(n, d), primes)


def reduce_rational_mod(x: Fraction | int, p: int, M: int) -> int:
    """Residue of a p-integral rational modulo p**M."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise DomainError(f"{x} is not p-integral at p={p}")
    mod = p**M
    return x.numerator * pow(x.denominator, -1, mod) % mod
