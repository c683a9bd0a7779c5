"""Several-prime delta-jet rings over P-localized rationals.

For a prime set P = {p_1 < ... < p_d} the common expansion ring is the power
series ring in jet variables ``x_i`` indexed by i in Z^d_{>=0} (``x_0`` is the
deformation parameter t, ``x_{e_k}`` its p_k-derivative, and so on), truncated
by weighted degree with wt(x_i) = p_1^{i_1} * ... * p_d^{i_d}.

Internally everything runs in *ghost coordinates* ``u_i``, the images of t
under Frobenius-lift words.  The lifts act there as plain index shifts
``u_i -> u_{i+e_k}``, so they commute on the nose, and since no prime is a
zero divisor the two-prime commutator identity for the derived operators

    delta_k(f) = (phi_k(f) - f**p_k) / p_k

holds automatically on every element, mixed monomials included.  The public
representation stays in the jet basis; the two bases are exchanged through
cached triangular generator polynomials.

Per-prime rings (ring tag k >= 1) share the representation but only promise
denominators coprime to p_k; the common ring (tag 0) promises denominators
coprime to every prime of P.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

from . import sparse
from .arith import (
    PadicTrunc,
    check_prime,
    format_rational,
    parse_rational,
    rational_reconstruct,
    reduce_rational_mod,
)
from .errors import (
    DomainError,
    IntegralityViolation,
    OrderBudgetExceeded,
    ReconstructionFailure,
)

Idx = tuple[int, ...]
Mono = tuple[tuple[Idx, int], ...]  # sorted ((multi-index), exponent) pairs
Poly = dict[Mono, Fraction]

M_ONE: Mono = ()


def _norm_mono(pairs: Iterable[tuple[Idx, int]]) -> Mono:
    d: dict[Idx, int] = {}
    for i, e in pairs:
        if e:
            d[i] = d.get(i, 0) + e
    if any(e < 0 for e in d.values()):
        raise DomainError("jet exponents must be nonnegative")
    return tuple(sorted(d.items()))


def mono_mul(m1: Mono, m2: Mono) -> Mono:
    return _norm_mono(list(m1) + list(m2))


def var_weight(i: Idx, P: Sequence[int]) -> int:
    w = 1
    for k, p in enumerate(P):
        w *= p ** i[k]
    return w


def mono_weight(m: Mono, P: Sequence[int]) -> int:
    return sum(e * var_weight(i, P) for i, e in m)


def poly_mul(t1: Poly, t2: Poly, keep: Callable[[Mono], bool]) -> Poly:
    return sparse.mul(t1, t2, mono_mul, keep)


def weight_keep(P: Sequence[int], N: int | None) -> Callable[[Mono], bool]:
    if N is None:
        return lambda m: True
    return lambda m: mono_weight(m, P) < N


# ---------------------------------------------------------------------------
# Ghost-coordinate operators and the basis exchange
# ---------------------------------------------------------------------------


def ghost_shift(t: Poly, k: int) -> Poly:
    """Frobenius lift on ghost coordinates: u_i -> u_{i+e_k}."""
    out: Poly = {}
    for m, c in t.items():
        mm = tuple(
            (tuple(x + (1 if j == k else 0) for j, x in enumerate(i)), e) for i, e in m
        )
        out[_norm_mono(mm)] = c
    return out


def ghost_delta(t: Poly, k: int, p_k: int, keep) -> Poly:
    fp = sparse.power(t, p_k, {M_ONE: Fraction(1)}, lambda a, b: poly_mul(a, b, keep))
    num = sparse.add(ghost_shift(t, k), sparse.scale(fp, Fraction(-1)))
    return {m: c / p_k for m, c in num.items() if keep(m)}


_GEN_CACHE: dict[tuple[tuple[int, ...], Idx, str], Poly] = {}


def _gen_ghost(P: tuple[int, ...], i: Idx) -> Poly:
    """The jet-basis generator x_i written in ghost coordinates.

    x_0 = u_0 and x_i = delta_{p_k}(x_{i - e_k}) for the first k with
    i_k > 0, matching the canonical ordering of mixed jet applications.
    """
    key = (P, i, "g")
    if key in _GEN_CACHE:
        return _GEN_CACHE[key]
    if all(c == 0 for c in i):
        out: Poly = {(((0,) * len(P), 1),): Fraction(1)}
    else:
        k = next(j for j, c in enumerate(i) if c > 0)
        prev = _gen_ghost(P, tuple(c - (1 if j == k else 0) for j, c in enumerate(i)))
        out = ghost_delta(prev, k, P[k], lambda m: True)
    _GEN_CACHE[key] = out
    return out


def _gen_jet(P: tuple[int, ...], i: Idx) -> Poly:
    """The ghost coordinate u_i written in the jet basis (triangular solve).

    The generator polynomial for x_i is (1/P^i) u_i plus products of strictly
    lighter ghost variables, so u_i = P^i * (x_i - rest) with the rest
    rewritten recursively.
    """
    key = (P, i, "j")
    if key in _GEN_CACHE:
        return _GEN_CACHE[key]
    if all(c == 0 for c in i):
        out: Poly = {(((0,) * len(P), 1),): Fraction(1)}
    else:
        g = _gen_ghost(P, i)
        lead_mono: Mono = ((i, 1),)
        scale = var_weight(i, P)
        lead_coeff = g.get(lead_mono)
        if lead_coeff is None or lead_coeff * scale != 1:
            raise IntegralityViolation("generator polynomial lost its leading term")
        rest = {m: c for m, c in g.items() if m != lead_mono}
        rewritten = ghost_to_jet(rest, P, lambda m: True)
        out = sparse.add({((i, 1),): Fraction(scale)}, sparse.scale(rewritten, Fraction(-scale)))
    _GEN_CACHE[key] = out
    return out


def _subst(t: Poly, P: tuple[int, ...], images: Callable[[Idx], Poly], keep) -> Poly:
    out: Poly = {}
    pow_cache: dict[tuple[Idx, int], Poly] = {}
    for m, c in t.items():
        acc: Poly = {M_ONE: c}
        for i, e in m:
            pk = (i, e)
            if pk not in pow_cache:
                pow_cache[pk] = sparse.power(
                    images(i), e, {M_ONE: Fraction(1)}, lambda a, b: poly_mul(a, b, keep)
                )
            acc = poly_mul(acc, pow_cache[pk], keep)
        out = sparse.add(out, acc)
    return {m: c for m, c in out.items() if keep(m)}


def jet_to_ghost(t: Poly, P: tuple[int, ...], keep) -> Poly:
    return _subst(t, P, lambda i: _gen_ghost(P, i), keep)


def ghost_to_jet(t: Poly, P: tuple[int, ...], keep) -> Poly:
    return _subst(t, P, lambda i: _gen_jet(P, i), keep)


# ---------------------------------------------------------------------------
# Public series type
# ---------------------------------------------------------------------------

Coeff = Union[Fraction, PadicTrunc]


@dataclass(frozen=True)
class MultiJetSeries:
    """Truncated several-prime jet series in the jet basis.

    ``ring`` is 0 for the common ring (denominators coprime to all of P) and
    k in 1..d for the ring localized away from p_k only.  Coefficients are
    exact rationals except for reduced per-prime families, which carry
    truncated p-adics.
    """

    P: tuple[int, ...]
    terms: tuple[tuple[Mono, Coeff], ...]
    N: int
    ring: int = 0

    @staticmethod
    def make(
        P: Sequence[int],
        terms: Mapping[Mono, Coeff | int],
        N: int,
        ring: int = 0,
    ) -> "MultiJetSeries":
        Pt = tuple(P)
        if Pt != tuple(sorted(set(Pt))):
            raise DomainError("primes must be distinct and sorted")
        for p in Pt:
            check_prime(p)
        if not (0 <= ring <= len(Pt)):
            raise DomainError("ring tag out of range")
        clean = {}
        for m, c in terms.items():
            m = _norm_mono(m)
            if any(len(i) != len(Pt) for i, _ in m):
                raise DomainError("multi-index arity does not match P")
            if mono_weight(m, Pt) >= N:
                continue
            if not isinstance(c, PadicTrunc):
                c = Fraction(c)
                if c == 0:
                    continue
            clean[m] = c
        return MultiJetSeries(Pt, tuple(sorted(clean.items())), N, ring)

    def d(self) -> int:
        return len(self.P)

    def order_vector(self) -> tuple[int, ...]:
        r = [0] * len(self.P)
        for m, _ in self.terms:
            for i, _e in m:
                for k, c in enumerate(i):
                    r[k] = max(r[k], c)
        return tuple(r)

    def coeff(self, m: Mono) -> Coeff:
        mm = _norm_mono(m)
        for k, c in self.terms:
            if k == mm:
                return c
        return Fraction(0)

    def is_padic(self) -> bool:
        return any(isinstance(c, PadicTrunc) for _, c in self.terms)

    def _poly(self) -> Poly:
        if self.is_padic():
            raise DomainError("ring operations need exact rational coefficients")
        return dict(self.terms)

    def _rebuild(self, t: Poly, N: int | None = None, ring: int | None = None):
        return MultiJetSeries.make(
            self.P, t, self.N if N is None else N, self.ring if ring is None else ring
        )

    def truncate(self, N: int) -> "MultiJetSeries":
        return MultiJetSeries.make(self.P, dict(self.terms), min(self.N, N), self.ring)

    def _meta(self, other: "MultiJetSeries") -> tuple[int, int]:
        if self.P != other.P:
            raise DomainError("mismatched prime sets")
        ring = self.ring if self.ring == other.ring else _join_ring(self.ring, other.ring)
        return min(self.N, other.N), ring

    def __add__(self, other):
        if not isinstance(other, MultiJetSeries):
            other = MultiJetSeries.make(self.P, {M_ONE: Fraction(other)}, self.N, self.ring)
        N, ring = self._meta(other)
        return MultiJetSeries.make(self.P, sparse.add(self._poly(), other._poly()), N, ring)

    __radd__ = __add__

    def __neg__(self):
        return MultiJetSeries(self.P, tuple((m, -c) for m, c in self.terms), self.N, self.ring)

    def __sub__(self, other):
        if not isinstance(other, MultiJetSeries):
            other = MultiJetSeries.make(self.P, {M_ONE: Fraction(other)}, self.N, self.ring)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiJetSeries):
            c = Fraction(other)
            return MultiJetSeries(
                self.P,
                tuple((m, v * c) for m, v in self.terms) if c else (),
                self.N,
                self.ring,
            )
        N, ring = self._meta(other)
        t = poly_mul(self._poly(), other._poly(), weight_keep(self.P, N))
        return MultiJetSeries.make(self.P, t, N, ring)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative powers are not defined here")
        keep = weight_keep(self.P, self.N)
        one = {M_ONE: Fraction(1)}
        return self._rebuild(sparse.power(self._poly(), n, one, lambda a, b: poly_mul(a, b, keep)))

    def __eq__(self, other):
        if not isinstance(other, MultiJetSeries):
            other = MultiJetSeries.make(self.P, {M_ONE: Fraction(other)}, self.N, self.ring)
        if self.P != other.P:
            return False
        N = min(self.N, other.N)
        keys = {m for m, _ in self.terms} | {m for m, _ in other.terms}
        d1, d2 = dict(self.terms), dict(other.terms)
        for m in keys:
            if mono_weight(m, self.P) >= N:
                continue
            if d1.get(m, Fraction(0)) != d2.get(m, Fraction(0)):
                return False
        return True

    def __hash__(self):
        return hash((self.P, self.terms, self.N, self.ring))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        def enc(c):
            return c.to_json() if isinstance(c, PadicTrunc) else format_rational(c)

        return {
            "P": list(self.P),
            "r": list(self.order_vector()),
            "N": self.N,
            "ring": self.ring,
            "terms": [
                [[[list(i), e] for i, e in m], enc(c)] for m, c in self.terms
            ],
        }

    @staticmethod
    def from_json(obj: Mapping) -> "MultiJetSeries":
        def dec(c):
            return PadicTrunc.from_json(c) if isinstance(c, dict) else parse_rational(c)

        terms = {}
        for mono, c in obj["terms"]:
            m = _norm_mono([(tuple(int(x) for x in i), int(e)) for i, e in mono])
            terms[m] = dec(c)
        return MultiJetSeries.make(
            [int(p) for p in obj["P"]], terms, int(obj["N"]), int(obj.get("ring", 0))
        )


def _join_ring(r1: int, r2: int) -> int:
    # combining the common ring with ring k lands in ring k
    if r1 == 0:
        return r2
    if r2 == 0:
        return r1
    if r1 != r2:
        raise DomainError("cannot mix two different per-prime rings")
    return r1


def assert_ring_integral(f: MultiJetSeries) -> None:
    """Denominator check for the series' declared coefficient ring."""
    primes = f.P if f.ring == 0 else (f.P[f.ring - 1],)
    for m, c in f.terms:
        if isinstance(c, PadicTrunc):
            continue
        for p in primes:
            if c.denominator % p == 0:
                raise IntegralityViolation(
                    f"coefficient {c} at {m} has denominator divisible by {p}"
                )


# ---------------------------------------------------------------------------
# The delta_P structure maps
# ---------------------------------------------------------------------------


def _check_budget(f: MultiJetSeries, k: int, max_order: Sequence[int] | None):
    if max_order is None:
        return
    r = f.order_vector()
    if r[k] + 1 > max_order[k]:
        raise OrderBudgetExceeded(
            f"jet order {r[k] + 1} at prime {f.P[k]} exceeds budget {max_order[k]}"
        )


def phi_pk(f: MultiJetSeries, k: int, max_order: Sequence[int] | None = None) -> MultiJetSeries:
    """Frobenius lift at the k-th prime (0-based), a ring endomorphism.

    The result is known to weight ``f.N * p_k``.  The lift is weighted-
    homogeneous of degree p_k: the generator of x_i in ghost coordinates is
    homogeneous of weight wt(x_i), and the ghost shift u_i -> u_{i+e_k}
    multiplies every weight by p_k.  So a monomial of weight w maps to a
    polynomial of weight exactly p_k * w, and the terms of the result below a
    bound depend only on the terms of ``f`` below that bound over p_k
    (see ``_phi_pk_below``).
    """
    _check_budget(f, k, max_order)
    N = f.N * f.P[k]
    keep = weight_keep(f.P, N)
    g = jet_to_ghost(f._poly(), f.P, keep)
    t = ghost_to_jet(ghost_shift(g, k), f.P, keep)
    return MultiJetSeries.make(f.P, t, N, f.ring)


def _phi_pk_below(f: MultiJetSeries, k: int, N: int) -> MultiJetSeries:
    """``phi_pk(f, k).truncate(N)``, lifting only the terms that survive.

    By the weighted homogeneity of phi_k (see ``phi_pk``), a term of ``f`` of
    weight w >= ceil(N / p_k) lands at weight p_k * w >= N, so it is dropped
    before the lift instead of after it.  The result is the same series.
    """
    return phi_pk(f.truncate(-(-N // f.P[k])), k).truncate(N)


def delta_pk(f: MultiJetSeries, k: int, max_order: Sequence[int] | None = None) -> MultiJetSeries:
    """p_k-derivation (phi_k(f) - f**p_k) / p_k.

    In the common ring the division is structurally exact on P-integral
    coefficients; in a per-prime ring away from p_k the prime is a unit and
    the formula always applies.
    """
    _check_budget(f, k, max_order)
    keep = weight_keep(f.P, f.N)
    g = jet_to_ghost(f._poly(), f.P, keep)
    t = ghost_to_jet(ghost_delta(g, k, f.P[k], keep), f.P, keep)
    return MultiJetSeries.make(f.P, t, f.N, f.ring)


def t_generator(P: Sequence[int], N: int, ring: int = 0) -> MultiJetSeries:
    d = len(P)
    return MultiJetSeries.make(P, {(((0,) * d, 1),): 1}, N, ring)


def jet_generator(P: Sequence[int], i: Idx, N: int, ring: int = 0) -> MultiJetSeries:
    return MultiJetSeries.make(P, {((tuple(i), 1),): 1}, N, ring)


# ---------------------------------------------------------------------------
# Builders: the order-e expansions
# ---------------------------------------------------------------------------


def _ghost_log1p_var(i: Idx, P: tuple[int, ...], N: int) -> Poly:
    """log(1 + u_i) in ghost coordinates, truncated at weighted degree N."""
    w = var_weight(i, P)
    out: Poly = {}
    for n in range(1, (N - 1) // w + 1):
        out[((i, n),)] = Fraction((-1) ** (n - 1), n)
    return out


def psi_multi(P: Sequence[int], k: int, N: int, ring: int | None = None) -> MultiJetSeries:
    """The one-prime order-1 expansion at p_k inside the several-prime ring:
    (1/p_k) (phi_k - p_k) log(1 + t)."""
    Pt = tuple(P)
    d = len(Pt)
    e_k = tuple(1 if j == k else 0 for j in range(d))
    zero = (0,) * d
    g = sparse.add(
        sparse.scale(_ghost_log1p_var(e_k, Pt, N), Fraction(1, Pt[k])),
        sparse.scale(_ghost_log1p_var(zero, Pt, N), Fraction(-1)),
    )
    t = ghost_to_jet(g, Pt, weight_keep(Pt, N))
    return MultiJetSeries.make(Pt, t, N, (k + 1) if ring is None else ring)


def build_fe0(P: Sequence[int], N: int) -> MultiJetSeries:
    """The order-e common expansion:
    (1 / p_1...p_d) (phi_1 - p_1) ... (phi_d - p_d) log(1 + t).

    In ghost coordinates the operator product expands over the corners of the
    unit cube, so the series is a combination of univariate logarithms; the
    result has coefficients integral at every prime of P, which is asserted.
    """
    Pt = tuple(sorted(set(int(p) for p in P)))
    for p in Pt:
        if p < 5:
            raise DomainError("the modular layer requires primes >= 5")
    d = len(Pt)
    scale = Fraction(1, math.prod(Pt))
    g: Poly = {}
    for i in itertools.product((0, 1), repeat=d):
        c = Fraction(1)
        for k in range(d):
            if i[k] == 0:
                c *= -Pt[k]
        g = sparse.add(g, sparse.scale(_ghost_log1p_var(i, Pt, N), c * scale))
    t = ghost_to_jet(g, Pt, weight_keep(Pt, N))
    out = MultiJetSeries.make(Pt, t, N, 0)
    assert_ring_integral(out)
    return out


def one_minus_phi_over_p(f: MultiJetSeries, k: int) -> MultiJetSeries:
    return f - _phi_pk_below(f, k, f.N) * Fraction(1, f.P[k])


def build_fe_k(P: Sequence[int], k: int, N: int) -> MultiJetSeries:
    """Per-prime route to the order-e form:
    (-1)^(d-1) * prod_{l != k} (1 - phi_l / p_l) applied to the order-1
    expansion at p_k.  Must agree with build_fe0 coefficientwise.
    """
    Pt = tuple(sorted(set(int(p) for p in P)))
    d = len(Pt)
    if not (0 <= k < d):
        raise DomainError("prime index out of range")
    out = psi_multi(Pt, k, N)
    for l in range(d):
        if l != k:
            out = one_minus_phi_over_p(out, l)
    return out * Fraction((-1) ** (d - 1))


# ---------------------------------------------------------------------------
# Analytic continuation checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuationResult:
    ok: bool
    f0: MultiJetSeries | None
    witness: Mono | None
    details: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "pass": self.ok,
            "f0": self.f0.to_json() if self.f0 is not None else None,
            "witness": [[list(i), e] for i, e in self.witness] if self.witness else None,
            "details": list(self.details),
        }


def reduce_to_padic(f: MultiJetSeries, k: int, M: int) -> MultiJetSeries:
    """Reduce an exact series into the p_k-adic per-prime ring."""
    p = f.P[k]
    terms = {
        m: PadicTrunc(p, M, reduce_rational_mod(c, p, M), M) for m, c in f.terms
    }
    return MultiJetSeries.make(f.P, terms, f.N, ring=k + 1)


def continuation_check(
    family: Sequence[MultiJetSeries], height: int | None = None
) -> ContinuationResult:
    """Decide whether per-prime expansions glue to a single common series.

    Exact families must agree coefficientwise with P-integral denominators;
    p-adic families are recombined monomialwise through rational
    reconstruction.  The first inconsistent monomial (in weight order) is
    reported as a witness; so is a coefficient that has no reconstruction
    within the height bound.  Malformed input, such as a coefficient with no
    guaranteed digits, raises ``DomainError`` instead.
    """
    if not family:
        raise DomainError("empty family")
    P = family[0].P
    N = family[0].N
    for f in family:
        if f.P != P or f.N != N:
            raise DomainError("family members must share P and N")
    padic = [f.is_padic() for f in family]
    if any(padic) and not all(padic):
        raise DomainError("cannot mix exact and p-adic family members")

    monos = sorted(
        {m for f in family for m, _ in f.terms},
        key=lambda m: (mono_weight(m, P), m),
    )
    out: dict[Mono, Fraction] = {}
    if not any(padic):
        for m in monos:
            vals = [f.coeff(m) for f in family]
            ref = vals[0]
            if any(v != ref for v in vals[1:]) or any(
                ref.denominator % p == 0 for p in P
            ):
                return ContinuationResult(
                    False, None, m, tuple(format_rational(v) for v in vals)
                )
            out[m] = ref
        f0 = MultiJetSeries.make(P, out, N, 0)
        return ContinuationResult(True, f0, None)

    if len(family) != len(P):
        raise DomainError("p-adic continuation needs one member per prime")
    for k, f in enumerate(family):
        if f.ring != k + 1:
            raise DomainError("p-adic family members must be ordered by prime")
    for m in monos:
        residues = []
        for k, f in enumerate(family):
            c = f.coeff(m)
            if not isinstance(c, PadicTrunc):
                c = PadicTrunc.from_rational(c, P[k], 8)
            residues.append((P[k], c.digits, c.residue % P[k] ** c.digits))
        try:
            out[m] = rational_reconstruct(residues, height=height).value
        except ReconstructionFailure:
            return ContinuationResult(
                False,
                None,
                m,
                tuple(f"{r} mod {p}^{Mk}" for p, Mk, r in residues),
            )
    f0 = MultiJetSeries.make(P, out, N, 0)
    return ContinuationResult(True, f0, None)


# ---------------------------------------------------------------------------
# Rank of the shifted order-e expansions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankReport:
    P: tuple[int, ...]
    r: tuple[int, ...]
    N: int
    expected: int
    rank: int
    ok: bool

    def to_json(self) -> dict:
        return {
            "P": list(self.P),
            "r": list(self.r),
            "N": self.N,
            "expected": self.expected,
            "rank": self.rank,
            "pass": self.ok,
        }


def exact_rank(rows: list[list[Fraction]]) -> int:
    """Gaussian elimination over the rationals, no pivots lost to rounding."""
    rows = [row[:] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    col = 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def basis_independence_check(P: Sequence[int], r: Sequence[int], N: int) -> RankReport:
    """Rank of the shifted order-e expansions {phi_P^(s-e)(f^e_0), e <= s <= r}.

    The expected rank is r_1 * ... * r_d.
    """
    Pt = tuple(sorted(set(int(p) for p in P)))
    d = len(Pt)
    rv = tuple(int(x) for x in r)
    if len(rv) != d or any(x < 1 for x in rv):
        raise DomainError("order vector must have a positive entry per prime")
    fe0 = build_fe0(Pt, N)
    series = []
    for s in itertools.product(*(range(1, top + 1) for top in rv)):
        f = fe0
        for k in range(d):
            for _ in range(s[k] - 1):
                f = _phi_pk_below(f, k, N)
        series.append(f)
    monos = sorted({m for f in series for m, _ in f.terms})
    rows = [[Fraction(f.coeff(m)) for m in monos] for f in series]
    rank = exact_rank(rows)
    expected = math.prod(rv)
    return RankReport(Pt, rv, N, expected, rank, rank == expected)


# ---------------------------------------------------------------------------
# Isogeny substitution t -> (1 + t)**gamma - 1
# ---------------------------------------------------------------------------


def substitute_gamma(f: MultiJetSeries, gamma: int) -> MultiJetSeries:
    """Apply the ring endomorphism induced by t -> (1+t)**gamma - 1.

    Because the substitution commutes with every Frobenius lift, each ghost
    coordinate transforms independently: u_i -> (1 + u_i)**gamma - 1 (see
    ``ghost_gamma``).
    """
    if gamma in (-1, 0, 1):
        raise DomainError("gamma must not be 0 or a root of unity")
    keep = weight_keep(f.P, f.N)
    g = jet_to_ghost(f._poly(), f.P, keep)
    t = ghost_to_jet(ghost_gamma(g, f.P, gamma, f.N), f.P, keep)
    return MultiJetSeries.make(f.P, t, f.N, f.ring)


def ghost_gamma(t: Poly, P: Sequence[int], gamma: int, N: int) -> Poly:
    """u_i -> (1 + u_i)**gamma - 1 on ghost coordinates, below weight N.

    The image of u_i**e is the univariate integer series
    ((1 + u)**gamma - 1)**e in u_i, held as a dense list truncated at degree
    (N - 1) // wt(u_i).  The factors of a monomial are in distinct variables,
    so its image's monomials are the sorted pairs (i, n) side by side, and no
    term of weight N or more is ever formed.  Coefficients add up as integers
    over the common denominator of ``t``.
    """
    L = math.lcm(*(c.denominator for c in t.values()))
    binom = [1]
    for n in range(1, N):
        binom.append(binom[-1] * (gamma - n + 1) // n)
    powers: dict[int, list[list[int]]] = {}  # top degree -> table of e-th powers

    def power(top: int, e: int) -> list[int]:
        rows = powers.setdefault(top, [[1] + [0] * top])
        while len(rows) <= e:
            prev = rows[-1]
            row = [0] * (top + 1)
            for a, x in enumerate(prev):
                if x:
                    for b in range(1, top - a + 1):
                        row[a + b] += x * binom[b]
            rows.append(row)
        return rows[e]

    out: dict[Mono, int] = {}
    for m, c in t.items():
        images = [(M_ONE, c.numerator * (L // c.denominator), 0)]
        for i, e in m:
            w = var_weight(i, P)
            row = power((N - 1) // w, e)
            grown = []
            for mono, x, wt in images:
                for n in range(e, len(row)):
                    wn = wt + n * w
                    if wn >= N:
                        break
                    if row[n]:
                        grown.append((mono + ((i, n),), x * row[n], wn))
            images = grown
        for mono, x, _ in images:
            out[mono] = out.get(mono, 0) + x
    return {m: Fraction(x, L) for m, x in out.items() if x}


def invert_unit(f: MultiJetSeries) -> MultiJetSeries:
    """Inverse of a series with unit constant term, by geometric expansion.

    Terminates because the tail has positive weight and the ring is
    weight-truncated.
    """
    c0 = f.coeff(M_ONE)
    if isinstance(c0, PadicTrunc) or c0 == 0:
        raise DomainError("invert_unit needs an exact nonzero constant term")
    x = f * (1 / c0) - 1
    acc = MultiJetSeries.make(f.P, {M_ONE: 1}, f.N, f.ring)
    power = acc
    for _ in range(f.N + 1):
        power = power * (-x)
        if not power.terms:
            break
        acc = acc + power
    if power.terms:
        raise DomainError("unit tail does not vanish under weight truncation")
    return acc * (1 / c0)


# ---------------------------------------------------------------------------
# Bridges to the one-prime t-side jet ring
# ---------------------------------------------------------------------------


def from_jet_series(f) -> MultiJetSeries:
    """Embed a one-prime t-side jet series as a d=1 several-prime series."""
    from .deltajet import JetSeries

    if not isinstance(f, JetSeries) or f.base != "t":
        raise DomainError("expected a t-side jet series")
    if f.N is None:
        raise DomainError("a weighted truncation bound is required")
    terms: dict[Mono, Fraction] = {}
    for (b, jets), c in f.terms:
        pairs = [((0,), b)] + [((i,), e) for i, e in enumerate(jets, start=1)]
        terms[_norm_mono(pairs)] = c
    return MultiJetSeries.make((f.p,), terms, f.N, ring=1)


def to_jet_series(f: MultiJetSeries):
    """Flatten a d=1 series back into the one-prime jet representation."""
    from .deltajet import JetSeries

    if f.d() != 1:
        raise DomainError("only d=1 series can be flattened")
    terms = {}
    for m, c in f.terms:
        b = 0
        jets: dict[int, int] = {}
        for (i,), e in m:
            if i == 0:
                b = e
            else:
                jets[i] = e
        top = max(jets) if jets else 0
        terms[(b, tuple(jets.get(i, 0) for i in range(1, top + 1)))] = Fraction(c)
    return JetSeries.make(f.P[0], "t", terms, N=f.N)
