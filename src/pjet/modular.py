"""Classical q-expansion generators and elliptic-curve point counts.

Everything is exact: Bernoulli numbers through the binomial recursion,
Eisenstein series from divisor sums, the discriminant form from its eta
product, the j-line from E4^3 / Delta, and newform coefficients a_n from
counting points over prime fields plus the standard Hecke recursions.

Forms are carried purely by their expansions; the level field is an
informational tag and the built-in Eisenstein data is the level-one kind,
which is all the identities computed here require.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Mapping, Sequence

from .arith import check_prime
from .errors import DomainError, MissingPrimeValue
from .qseries import Series1


def bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0 .. B_n with B_1 = -1/2, via sum_{j<=m} C(m+1, j) B_j = 0."""
    out = [Fraction(1)]
    for m in range(1, n + 1):
        s = Fraction(0)
        for j in range(m):
            s += math.comb(m + 1, j) * out[j]
        out.append(-s / (m + 1))
    return out


def divisor_sigma(n: int, k: int) -> int:
    if n < 1:
        raise DomainError("n must be positive")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**k
            if d != n // d:
                total += (n // d) ** k
        d += 1
    return total


@dataclass(frozen=True)
class QExpansion:
    """Modular-form q-expansion with its weight tag."""

    weight: int
    level: int
    series: Series1

    @staticmethod
    def make(weight: int, coeffs: Mapping[int, Fraction], trunc: int, level: int = 1):
        return QExpansion(weight, level, Series1.make("q", coeffs, N=trunc))

    def coeff(self, n: int) -> Fraction:
        return self.series.coeff(n)

    def trunc(self) -> int:
        return self.series.N

    def to_json(self) -> dict:
        js = self.series.to_json()
        js["weight"] = self.weight
        js["level"] = self.level
        return js

    @staticmethod
    def from_json(obj) -> "QExpansion":
        return QExpansion(int(obj.get("weight", 0)), int(obj.get("level", 1)), Series1.from_json(obj))


def eisenstein(k: int, trunc: int) -> QExpansion:
    """Normalized E_k = 1 - (2k / B_k) sum sigma_{k-1}(n) q^n, constant term 1."""
    if k < 4 or k % 2:
        raise DomainError("weight must be an even integer >= 4")
    bk = bernoulli_numbers(k)[k]
    factor = Fraction(-2 * k) / bk
    coeffs = {0: Fraction(1)}
    for n in range(1, trunc):
        coeffs[n] = factor * divisor_sigma(n, k - 1)
    return QExpansion.make(k, coeffs, trunc)


def eisenstein_mod_p(p: int, trunc: int) -> list[int]:
    """Residues mod p of E_{p-1}; the nonconstant ones all vanish.

    This reduction is the expansion of the weight-(p-1) Hasse form mod p.
    """
    check_prime(p)
    e = eisenstein(p - 1, trunc)
    out = []
    for n in range(trunc):
        c = e.coeff(n)
        if c.denominator % p == 0:
            raise DomainError("coefficient not p-integral")
        out.append(c.numerator * pow(c.denominator, -1, p) % p)
    return out


def discriminant_delta(trunc: int) -> QExpansion:
    """The weight-12 cusp form as the eta product q * prod (1 - q^n)^24."""
    prod = Series1.make("q", {0: Fraction(1)}, N=trunc)
    for n in range(1, trunc):
        factor = Series1.make("q", {0: Fraction(1), n: Fraction(-1)}, N=trunc)
        prod = (prod * factor**24).truncate(trunc)
    series = (Series1.monomial("q", 1, 1, N=trunc) * prod).truncate(trunc)
    return QExpansion(12, 1, series)


def j_invariant(trunc: int, p: int, M: int) -> Series1:
    """j = E4^3 / Delta = q^-1 + 744 + ... as a q-Laurent series mod p**M."""
    e4 = eisenstein(4, trunc + 2)
    delta = discriminant_delta(trunc + 2)
    j = (e4.series**3) * delta.series.invert(order=trunc + 1)
    return j.truncate(trunc).to_padic(p, M)


# ---------------------------------------------------------------------------
# Elliptic curves over Q and their point counts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EllipticCurveQ:
    """Integral Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    label: str = ""

    def discriminant(self) -> int:
        b2 = self.a1**2 + 4 * self.a2
        b4 = 2 * self.a4 + self.a1 * self.a3
        b6 = self.a3**2 + 4 * self.a6
        b8 = (
            self.a1**2 * self.a6
            + 4 * self.a2 * self.a6
            - self.a1 * self.a3 * self.a4
            + self.a2 * self.a3**2
            - self.a4**2
        )
        return -(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6

    def __post_init__(self):
        if self.discriminant() == 0:
            raise DomainError("singular Weierstrass model")


CURVE_11A1 = EllipticCurveQ(0, -1, 1, -10, -20, label="11a1")


def load_curve_fixture(path: str | None = None) -> tuple[EllipticCurveQ, dict[int, int]]:
    """Curve plus externally supplied bad-prime coefficients from JSON.

    An unreadable file or a payload of the wrong shape is a ``DomainError``.
    """
    try:
        if path is None:
            text = resources.files("pjet.data").joinpath("curve11a1.json").read_text()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        obj = json.loads(text)
        c = obj["curve"]
        curve = EllipticCurveQ(
            int(c.get("a1", 0)),
            int(c.get("a2", 0)),
            int(c.get("a3", 0)),
            int(c.get("a4", 0)),
            int(c.get("a6", 0)),
            label=obj.get("label", ""),
        )
        bad = {int(l): int(v) for l, v in obj.get("bad_primes", {}).items()}
    except (AttributeError, KeyError, OSError, TypeError, ValueError) as e:
        raise DomainError(f"cannot load curve fixture {path}: {e!r}") from None
    return curve, bad


def ap_point_count(E: EllipticCurveQ, p: int) -> int:
    """a_p = p + 1 - #E(F_p) by direct counting over the prime field.

    For odd p >= 5, completing the square in y reduces each column to
    1 + chi of a discriminant; p = 2, 3 fall back to plain enumeration so
    the Hecke layer can be seeded from counting alone.  The result must
    respect |a_p| <= 2 sqrt(p).
    """
    check_prime(p)
    if E.discriminant() % p == 0:
        raise DomainError(
            f"bad reduction at {p}; supply this coefficient externally"
        )
    count = 1  # the point at infinity
    if p < 5:
        for x in range(p):
            for y in range(p):
                lhs = (y * y + E.a1 * x * y + E.a3 * y) % p
                rhs = (x * x * x + E.a2 * x * x + E.a4 * x + E.a6) % p
                count += lhs == rhs
    else:
        for x in range(p):
            rhs = (x * x * x + E.a2 * x * x + E.a4 * x + E.a6) % p
            lin = (E.a1 * x + E.a3) % p
            disc = (lin * lin + 4 * rhs) % p
            count += 1 + _legendre(disc, p)
    ap = p + 1 - count
    if ap * ap > 4 * p:
        raise DomainError("point count violated the Hasse bound (bug)")
    return ap


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def an_multiplicative(
    ap_values: Mapping[int, int], n_max: int, bad_primes: Sequence[int] = ()
) -> list[int]:
    """a_1..a_n from prime data via the weight-2 Hecke recursions.

    a_{mn} = a_m a_n for coprime m, n; at good primes
    a_{l^(r+1)} = a_l a_{l^r} - l a_{l^(r-1)}, at supplied bad primes
    a_{l^r} = a_l^r.  Prime values up to n_max must all be present.
    """
    bad = set(bad_primes)
    a = {1: 1}
    for n in range(2, n_max + 1):
        l = _least_prime_factor(n)
        lr = 1
        m = n
        while m % l == 0:
            m //= l
            lr *= l
        if l not in ap_values:
            raise MissingPrimeValue(f"a_{l} required for n <= {n_max}")
        if m > 1:
            a[n] = a[m] * a[lr]
            continue
        # n = l^r
        r = 0
        t = n
        while t > 1:
            t //= l
            r += 1
        if r == 1:
            a[n] = ap_values[l]
        elif l in bad:
            a[n] = ap_values[l] * a[n // l]
        else:
            a[n] = ap_values[l] * a[n // l] - l * a[n // (l * l)]
    return [a[n] for n in range(1, n_max + 1)]


def _least_prime_factor(n: int) -> int:
    f = 2
    while f * f <= n:
        if n % f == 0:
            return f
        f += 1
    return n


def newform_coefficients(
    E: EllipticCurveQ, n_max: int, bad_values: Mapping[int, int]
) -> list[int]:
    """a_1..a_n for the curve: good primes by counting, bad ones supplied."""
    ap: dict[int, int] = dict(bad_values)
    p = 2
    while p <= n_max:
        if p not in ap:
            ap[p] = ap_point_count(E, p)
        p = _next_prime(p)
    return an_multiplicative(ap, n_max, bad_primes=tuple(bad_values))


def _next_prime(p: int) -> int:
    q = p + 1
    while True:
        if all(q % f for f in range(2, int(math.isqrt(q)) + 1)):
            return q
        q += 1
