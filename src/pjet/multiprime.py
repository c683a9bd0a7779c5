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
cached triangular generator polynomials, in integers over one denominator.

Inside the kernel a monomial is one int, packed by a ``Layout`` of (P, N):
each variable of weight below N owns a bit field, in reverse index order
with t highest, and the weight sits in the top field.  A field holds twice
the largest exponent that stays below N, so adding two kept monomials never
carries out of a field: the monomial product is integer ``+`` and the
truncation is the key limit ``N << shift``: ``sparse.mul`` walks its second
operand in key order, stops each row at the limit and squares once.  The packed form is the stored
value: an exact ``MultiJetSeries`` holds a ``sparse.Packed`` in the form
``sparse.canon`` gives; ``terms`` and ``coeffs`` are views built on first
use.  ``to_text`` orders the keys by an integer computed from each and
writes every pair straight from a key's nonzero fields, with no ``Mono``
tuple; ``to_json`` reads that text back, and ``from_json`` parses straight
into keys.

Per-prime rings (ring tag k >= 1) share the representation but only promise
denominators coprime to p_k; the common ring (tag 0) promises denominators
coprime to every prime of P.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from . import sparse
from .arith import (
    PadicTrunc,
    at_least,
    check_prime,
    format_rational,
    parse_int,
    parse_ratio,
    rational_reconstruct,
)
from .errors import (
    DomainError,
    IntegralityViolation,
    ReconstructionFailure,
)

Idx = tuple[int, ...]
Mono = tuple[tuple[Idx, int], ...]  # sorted ((multi-index), exponent) pairs
Poly = dict[int, int]  # packed monomial -> coefficient, in one Layout

M_ONE: Mono = ()


def _norm_mono(pairs: Iterable[tuple[Idx, int]]) -> Mono:
    d: dict[Idx, int] = {}
    for i, e in pairs:
        if e:
            d[i] = d.get(i, 0) + e
    if any(e < 0 for e in d.values()):
        raise DomainError("jet exponents must be nonnegative")
    return tuple(sorted((i, e) for i, e in d.items() if e))


def _check_primes(P: Sequence[int]) -> tuple[int, ...]:
    Pt = tuple(P)
    if Pt != tuple(sorted(set(Pt))):
        raise DomainError("primes must be distinct and sorted")
    for p in Pt:
        check_prime(p)
    return Pt


def _modular_primes(P: Sequence[int]) -> tuple[int, ...]:
    """The primes of P sorted and deduplicated, each checked prime and >= 5."""
    Pt = _check_primes(sorted(set(int(p) for p in P)))
    if any(p < 5 for p in Pt):
        raise DomainError("the modular layer requires primes >= 5")
    return Pt


def var_weight(i: Idx, P: Sequence[int]) -> int:
    w = 1
    for k, p in enumerate(P):
        w *= p ** i[k]
    return w


class Layout:
    """The packed monomials of weight below ``N`` over the primes ``P``.

    The key of prod x_i^e_i is sum_i e_i * var[i], with var[i] =
    (1 << offset_i) + (wt(x_i) << shift).  The field of x_i holds
    2 * ((N - 1) // wt(x_i)), so a kept exponent leaves its top bit clear.
    Fields sit in reverse index order, x_0 = t highest, right under the
    weight, so the fields read from the top down in index order.  ``P``
    must be valid; callers check it.
    """

    __slots__ = ("P", "N", "shift", "limit", "var", "fields")

    def __init__(self, P: tuple[int, ...], N: int):
        at_least(0, N=N)
        self.P, self.N = P, N
        tops = [next(a for a in itertools.count() if p**a >= N) for p in P]
        index = [i for i in itertools.product(*map(range, tops)) if var_weight(i, P) < N]
        fields, off = [], 0
        for i in reversed(index):
            width = (2 * ((N - 1) // var_weight(i, P))).bit_length()
            fields.append((i, off, (1 << width) - 1))
            off += width
        self.fields: list[tuple[Idx, int, int]] = fields[::-1]  # (i, offset, mask), in index order
        self.shift = off
        self.var = {i: (1 << o) + (var_weight(i, P) << off) for i, o, _ in self.fields}
        self.limit = N << off  # the keys of weight below N are the keys below this

    def unpack(self, key: int) -> Mono:
        return tuple((i, e) for i, off, mask in self.fields if (e := key >> off & mask))

    def pack(self, m: Mono) -> int | None:
        """The key of a normalised monomial below weight N, else None: a
        variable with no field weighs N or more, and carries raise a key."""
        if any(len(i) != len(self.P) for i, _ in m):
            raise DomainError("multi-index arity does not match P")
        if all(i in self.var for i, _ in m):
            key = sum(e * self.var[i] for i, e in m)
            if key < self.limit:
                return key
        return None

    def series(self, t: sparse.Packed, ring: int) -> "MultiJetSeries":
        """The series stored as the canonical ``t`` of this layout."""
        return MultiJetSeries(self.P, t, self.N, ring)


def layout(P: tuple[int, ...], N: int) -> Layout:
    """The layout of (P, N), built on first use and kept in ``_GEN_CACHE``."""
    L = _GEN_CACHE.get((P, N))
    return _cached((P, N), Layout(P, N)) if L is None else L


def poly_mul(t1: Poly, t2: Poly, limit: int) -> Poly:
    return sparse.mul(t1, t2, limit)


def _relabel(t: Mapping[int, object], src: Layout, dst: Layout, k: int | None = None) -> dict:
    """The terms of t, keyed in src, moved into dst field by field, with
    every index shifted by e_k if k is given (weights then grow p_k-fold).
    An image below dst.N has each variable in dst, none outweighing it."""
    p = 1 if k is None else src.P[k]
    at = {i: off for i, off, _ in dst.fields}
    step = [(i if k is None else i[:k] + (i[k] + 1,) + i[k + 1 :], off, mask) for i, off, mask in src.fields]
    moves = [(off, mask, at[j]) for j, off, mask in step if j in at]
    out = {}
    for m, c in t.items():
        w = (m >> src.shift) * p
        if w < dst.N:
            key = w << dst.shift
            for off, mask, to in moves:
                e = m >> off & mask
                if e:
                    key += e << to
            out[key] = c
    return out


def _move(t: sparse.Packed, src: Layout, dst: Layout) -> sparse.Packed:
    """The canonical t of layout src in the layout dst of the same primes."""
    return t if src.N == dst.N else sparse.canon(_relabel(t, src, dst), t.den)


# ---------------------------------------------------------------------------
# Ghost-coordinate operators and the basis exchange
# ---------------------------------------------------------------------------


def ghost_shift(t: Mapping[int, object], k: int, L: Layout) -> dict:
    """Frobenius lift on ghost coordinates: u_i -> u_{i+e_k}, below L.N."""
    return _relabel(t, L, L, k)


def ghost_delta(T: Mapping[int, int], k: int, L: Layout, D: int = 1) -> tuple[dict[int, int], int]:
    """(ghost_shift(t, k) - t**p_k) / p_k below L.N for t = T / D with integer
    numerators T, in integers: D**(p_k - 1) * shift(T) - T**p_k over
    D**p_k * p_k."""
    p = L.P[k]
    Tp = sparse.power(T, p, {0: 1}, lambda a, b: poly_mul(a, b, L.limit))
    num = sparse.add(sparse.scale(ghost_shift(T, k, L), D ** (p - 1)), sparse.scale(Tp, -1))
    return num, D**p * p


# layouts by (P, N) and the generator tables built in them by (P, N, i, "g"
# or "j"); at most _GEN_CACHE_MAX entries
_GEN_CACHE: dict[tuple, object] = {}
_GEN_CACHE_MAX = 1024


def _cached(key: tuple, value):
    """Store ``value`` under ``key`` in ``_GEN_CACHE`` and return it.  A full
    cache is emptied first, to the state of a fresh process: every entry is a
    pure function of its key, and callers hold on to what they took out."""
    if len(_GEN_CACHE) >= _GEN_CACHE_MAX:
        _GEN_CACHE.clear()
    _GEN_CACHE[key] = value
    return value


def _generator(L: Layout, i: Idx, kind: str) -> sparse.Packed:
    """x_i in ghost coordinates (kind "g") or u_i in the jet basis ("j"), in L.

    x_0 = u_0 and x_i = delta_{p_k}(x_{i - e_k}) for the first k with
    i_k > 0, matching the canonical ordering of mixed jet applications.  That
    is (1/P^i) u_i plus products of strictly lighter ghost variables, so
    u_i = P^i * (x_i - rest) with the rest rewritten recursively (a
    triangular solve).  Both tables are homogeneous of weight wt(x_i), which
    is below L.N since x_i has a field in L: every product they form stays
    below L's limit, so a table's value does not depend on the layout.
    """
    if (key := (L.P, L.N, i, kind)) in _GEN_CACHE:
        return _GEN_CACHE[key]
    w, lead = var_weight(i, L.P), L.var[i]
    if w == 1:
        out = sparse.canon({lead: 1}, 1)
    elif kind == "g":
        k = next(j for j, c in enumerate(i) if c)
        prev = _generator(L, i[:k] + (i[k] - 1,) + i[k + 1 :], "g")
        out = sparse.canon(*ghost_delta(prev, k, L, prev.den))
    else:
        g = _generator(L, i, "g")
        if g.get(lead, 0) * w != g.den:
            raise IntegralityViolation("generator polynomial lost its leading term")
        rest = ghost_to_jet({m: x for m, x in g.items() if m != lead}, L, g.den)
        # the rest is in jet variables lighter than x_i
        out = sparse.canon({lead: w * rest.den, **{m: -w * x for m, x in rest.items()}}, rest.den)
    return _cached(key, out)


def _subst(t: Mapping[int, Union[Fraction, int]], L: Layout, kind: str, den: int = 1) -> sparse.Packed:
    """Substitute the generator image of kind ``kind`` for each variable of
    ``t``, whose coefficients are rationals or integer numerators over ``den``.

    Images, powers and products run in integers.  t = x_0 = u_0 is its own
    image in both bases, so its power t^a is the key shift a * var[0], added
    after the other variables' product.  Each other variable's image powers
    are built once per call as a ladder, img^e = img^(e-1) * img, up to the
    largest exponent asked for.  A monomial c * t^a * prod x_i^e contributes
    c.numerator * t^a * prod img_i^e over the denominator
    den * c.denominator * prod D_i^e; the contributions add up over the lcm
    of those, in canonical form.  Both exchanges are weight-homogeneous, so
    every product below L.N is exact, and no shift reaches the limit.
    """
    limit, one = L.limit, {0: 1}
    (zero, t_off, t_mask), *rest = L.fields or [((), 0, 0)]
    t_var = L.var.get(zero, 0)
    ladders: dict[Idx, tuple[list[dict[int, int]], int]] = {}
    parts: list[tuple[dict[int, int], int, int, int]] = []
    for m, c in t.items():
        acc, d = one, c.denominator
        for i, off, mask in rest:
            if not (e := m >> off & mask):
                continue
            if i not in ladders:
                img = _generator(L, i, kind)
                ladders[i] = [one, img], img.den
            ladder, D = ladders[i]
            while len(ladder) <= e:
                ladder.append(poly_mul(ladder[-1], ladder[1], limit))
            acc = ladder[e] if acc is one else poly_mul(acc, ladder[e], limit)
            d *= D**e
        parts.append((acc, d, c.numerator, (m >> t_off & t_mask) * t_var))
    lcm = math.lcm(*(d for _, d, _, _ in parts))
    out: dict[int, int] = {}
    for acc, d, num, shift in parts:
        f = lcm // d * num
        for m, x in acc.items():
            m += shift
            out[m] = out.get(m, 0) + x * f
    return sparse.canon(out, den * lcm)


def jet_to_ghost(t: Mapping[int, Union[Fraction, int]], L: Layout, den: int = 1) -> sparse.Packed:
    return _subst(t, L, "g", den)


def ghost_to_jet(t: Mapping[int, Union[Fraction, int]], L: Layout, den: int = 1) -> sparse.Packed:
    return _subst(t, L, "j", den)


# ---------------------------------------------------------------------------
# Public series type
# ---------------------------------------------------------------------------

Coeff = Union[Fraction, PadicTrunc]


def _in_ring(c: PadicTrunc, P: tuple[int, ...], ring: int) -> PadicTrunc:
    """``c``, if ring ``ring`` over P holds it: only the ring localized away
    from p_k, k = ring, holds a p_k-adic coefficient."""
    if not 0 < ring <= len(P) or c.p != P[ring - 1]:
        raise DomainError(f"ring {ring} holds no {c.p}-adic coefficient")
    return c


@dataclass(frozen=True)
class MultiJetSeries:
    """Truncated several-prime jet series in the jet basis.

    ``ring`` is 0 for the common ring (denominators coprime to all of P) and
    k in 1..d for the ring localized away from p_k only.  Coefficients are
    exact rationals except for reduced per-prime families, which carry
    truncated p-adics; a series never holds both.

    ``_store`` holds the coefficients by key of the layout of (P, N): a
    canonical ``Packed``, or the ``PadicTrunc`` values of a p-adic family.
    """

    P: tuple[int, ...]
    _store: dict
    N: int
    ring: int = 0

    def __post_init__(self):
        if not 0 <= self.ring <= len(self.P):
            raise DomainError("ring tag out of range")

    @staticmethod
    def make(
        P: Sequence[int],
        terms: Mapping[Mono, Coeff | int],
        N: int,
        ring: int = 0,
    ) -> "MultiJetSeries":
        """The series of ``terms`` below weight N, each monomial normalised; of two
        keys that normalise to one monomial the later wins, a zero coefficient too.
        A p-adic coefficient is refused outside its own prime's ring or beside a rational one."""
        Pt = _check_primes(P)
        L = layout(Pt, N)
        pairs = [
            (L.pack(_norm_mono(m)), _in_ring(c, Pt, ring) if isinstance(c, PadicTrunc) else Fraction(c).as_integer_ratio())
            for m, c in terms.items()
        ]
        return MultiJetSeries(Pt, _stored(pairs), N, ring)

    def d(self) -> int:
        return len(self.P)

    def order_vector(self) -> tuple[int, ...]:
        seen = functools.reduce(int.__or__, self._store, 0)  # each field used by some key
        used = [i for i, off, mask in layout(self.P, self.N).fields if seen >> off & mask]
        return tuple(max((i[k] for i in used), default=0) for k in range(len(self.P)))

    @functools.cached_property
    def terms(self) -> tuple[tuple[Mono, Coeff], ...]:
        """The terms in the public monomial order, built on first use."""
        L, t = layout(self.P, self.N), self._store
        den = getattr(t, "den", None)
        return tuple((L.unpack(m), t[m] if den is None else Fraction(t[m], den)) for m in _in_order(t, L))

    @functools.cached_property
    def coeffs(self) -> dict[Mono, Coeff]:
        """The terms as a dict, built on first use and kept with the series."""
        return dict(self.terms)

    def coeff(self, m: Mono) -> Coeff:
        return self.coeffs.get(_norm_mono(m), Fraction(0))

    def is_padic(self) -> bool:
        return not isinstance(self._store, sparse.Packed)

    def _packed(self, L: Layout) -> sparse.Packed:
        """The stored value, moved into L if that is another layout."""
        if self.is_padic():
            raise DomainError("ring operations need exact rational coefficients")
        return _move(self._store, layout(self.P, self.N), L)

    def truncate(self, N: int) -> "MultiJetSeries":
        N = min(self.N, N)
        if self.is_padic():
            return MultiJetSeries.make(self.P, dict(self.terms), N, self.ring)
        return MultiJetSeries(self.P, self._packed(layout(self.P, N)), N, self.ring)

    def _meta(self, other: "MultiJetSeries") -> tuple[int, int]:
        if self.P != other.P:
            raise DomainError("mismatched prime sets")
        if self.ring and other.ring and self.ring != other.ring:
            raise DomainError("cannot mix two different per-prime rings")
        return min(self.N, other.N), self.ring or other.ring  # the common ring with ring k lands in ring k

    def __add__(self, other):
        if not isinstance(other, MultiJetSeries):
            other = MultiJetSeries.make(self.P, {M_ONE: Fraction(other)}, self.N, self.ring)
        N, ring = self._meta(other)
        L = layout(self.P, N)
        return L.series(_axpy(self._packed(L), other._packed(L), 1), ring)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        L = layout(self.P, self.N)
        if not isinstance(other, MultiJetSeries):
            t, (n, d) = self._packed(L), Fraction(other).as_integer_ratio()
            return L.series(sparse.canon(sparse.scale(t, n), t.den * d), self.ring)
        N, ring = self._meta(other)
        L = layout(self.P, N)
        a, b = self._packed(L), other._packed(L)
        return L.series(sparse.canon(poly_mul(a, b, L.limit), a.den * b.den), ring)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative powers are not defined here")
        L = layout(self.P, self.N)
        t = self._packed(L)
        out = sparse.power(t, n, {0: 1} if self.N > 0 else {}, lambda a, b: poly_mul(a, b, L.limit))
        return L.series(sparse.canon(out, t.den**n), self.ring)

    def __eq__(self, other):
        if isinstance(other, numbers.Rational):
            other = MultiJetSeries.make(self.P, {M_ONE: other}, self.N, self.ring)
        elif not isinstance(other, MultiJetSeries):
            return NotImplemented
        if self.P != other.P:
            return False
        N = min(self.N, other.N)
        a, b = self.truncate(N), other.truncate(N)
        if a.is_padic() or b.is_padic():
            return all(a.coeff(m) == b.coeff(m) for m in a.coeffs.keys() | b.coeffs.keys())
        return (a._store, a._store.den) == (b._store, b._store.den)

    def __hash__(self):  # ``==`` ignores the ring, so the hash does too
        t = self._store
        return hash((self.P, self.N, getattr(t, "den", None), frozenset(t.items())))

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """The payload as the CLI writes it: sorted keys, no spaces, terms in
        the public monomial order.  Each pair ``[[i...],e]`` is written
        straight from the key, visiting only its nonzero fields, by highest
        set bit, and each coefficient in lowest terms."""
        L, store = layout(self.P, self.N), self._store
        den, low = getattr(store, "den", None), (1 << L.shift) - 1
        # by bit: the text of the index whose field holds it, and the field's offset
        fields = [(f"[[{','.join(map(str, i))}],", off) for i, off, mask in reversed(L.fields) for _ in range(mask.bit_length())]
        terms = []
        for m in _in_order(store, L):
            bits, mono, c = m & low, [], store[m]
            while bits:
                i, off = fields[bits.bit_length() - 1]
                e = bits >> off
                bits ^= e << off
                mono.append(f"{i}{e}]")
            if den is None:
                c = f'{{"M":{c.M},"digits":{c.digits},"p":{c.p},"residue":"{c.residue}"}}'
            else:
                g = math.gcd(c, den)
                c = f'"{c // g}"' if g == den else f'"{c // g}/{den // g}"'
            terms.append(f"[[{','.join(mono)}],{c}]")
        P, r = (",".join(map(str, v)) for v in (self.P, self.order_vector()))
        return f'{{"N":{self.N},"P":[{P}],"r":[{r}],"ring":{self.ring},"terms":[{",".join(terms)}]}}'

    def to_json(self) -> dict:
        return json.loads(self.to_text())

    @staticmethod
    def from_json(obj: Mapping) -> "MultiJetSeries":
        """The payload's series, parsed into keys with the checks and rules of
        ``make``.  Every integer is an int or an integer string, never a
        float or a bool, and N is not negative (``Layout`` refuses it)."""
        P, N = _check_primes([parse_int(p) for p in obj["P"]]), parse_int(obj["N"])
        ring = parse_int(obj.get("ring", 0))
        L = layout(P, N)
        var, pairs = L.var, []
        # a float or a bool index entry equals, and hashes as, an int, so the
        # lookup below would take it: with one present, every pair is parsed
        fast = {type(x) for mono, _ in obj["terms"] for i, _ in mono for x in i} <= {int, str}
        for mono, c in obj["terms"]:
            key = 0
            for i, e in mono:
                if fast and type(e) is int and e >= 0 and (v := var.get(tuple(i))):
                    key += e * v
                else:  # a negative exponent, an index with no field, or a malformed one
                    key = L.pack(_norm_mono((tuple(map(parse_int, i)), parse_int(e)) for i, e in mono))
                    break
            if isinstance(c, dict):
                c = _in_ring(PadicTrunc.from_json(c), P, ring)
            else:
                c = parse_ratio(c)
            pairs.append((None if key is None or key >= L.limit else key, c))
        return MultiJetSeries(P, _stored(pairs), N, ring)


def _in_order(keys: Iterable[int], L: Layout) -> list[int]:
    """``keys`` of L in the public monomial order, sorted by an integer
    computed from each: read field by field from the top, it holds the
    exponent where that is nonzero, the field's top bit (above every kept
    exponent) for a zero before the last nonzero field, and 0 after it.
    Integer order on these is ``Mono`` order.  Adding each field's top bit
    less one carries into the top bit of exactly the nonzero fields, so a
    key takes a few integer operations and no loop over its fields."""
    tops = below = 0
    for _, off, mask in L.fields:
        top = (mask + 1) >> 1 << off
        tops, below = tops | top, below + top - (1 << off)
    low, order = (1 << L.shift) - 1, {}
    for m in keys:
        r = m & low
        nz = (r + below) & tops  # the top bit of each nonzero field
        order[r | ((tops & -(nz & -nz)) ^ nz)] = m
    return [order[k] for k in sorted(order)]


def _stored(pairs: Iterable[tuple[int | None, Union[tuple[int, int], PadicTrunc]]]) -> dict:
    """The store of (key, coefficient) pairs, each coefficient p-adic or a
    (numerator, denominator) pair, never both kinds.  A pair with no key lies
    past the cut; of two pairs with one key the later wins, a zero coefficient too."""
    t, padic = {}, False
    for key, c in pairs:
        if key is not None:
            if isinstance(c, PadicTrunc):
                t[key], padic = c, True
            elif c[0]:
                t[key] = c
            else:
                t.pop(key, None)
    if padic and any(isinstance(c, PadicTrunc) for c in t.values()):  # a later rational may win
        if not all(isinstance(c, PadicTrunc) for c in t.values()):
            raise DomainError("a series holds rational or p-adic coefficients, not both")
        return t
    D = math.lcm(*(d for _, d in t.values()))
    return sparse.canon({m: n * (D // d) for m, (n, d) in t.items()}, D)


def _axpy(a: sparse.Packed, b: sparse.Packed, c: Union[Fraction, int]) -> sparse.Packed:
    """a + c * b in canonical form."""
    n, d = Fraction(c).as_integer_ratio()
    D = math.lcm(a.den, b.den * d)
    return sparse.canon(sparse.add(sparse.scale(a, D // a.den), sparse.scale(b, D // (b.den * d) * n)), D)


def assert_ring_integral(f: MultiJetSeries) -> None:
    """Denominator check for the series' declared coefficient ring.  A prime
    divides a canonical den exactly when it divides some coefficient's."""
    primes = f.P if f.ring == 0 else (f.P[f.ring - 1],)
    if all(f._packed(layout(f.P, f.N)).den % p for p in primes):
        return
    for m, c in f.terms:
        for p in primes:
            if c.denominator % p == 0:
                raise IntegralityViolation(
                    f"coefficient {c} at {m} has denominator divisible by {p}"
                )


# ---------------------------------------------------------------------------
# The delta_P structure maps
# ---------------------------------------------------------------------------


def phi_pk(f: MultiJetSeries, k: int) -> MultiJetSeries:
    """Frobenius lift at the k-th prime (0-based), a ring endomorphism.

    The result is known to weight ``f.N * p_k``.  The lift is weighted-
    homogeneous of degree p_k: the generator of x_i in ghost coordinates is
    homogeneous of weight wt(x_i), and the ghost shift u_i -> u_{i+e_k}
    multiplies every weight by p_k.  So a monomial of weight w maps to a
    polynomial of weight exactly p_k * w, and the terms of the result below a
    bound depend only on the terms of ``f`` below that bound over p_k
    (see ``_phi_below``).
    """
    L = layout(f.P, f.N * f.P[k])
    return L.series(_phi_below(f._packed(L), k, L), f.ring)


def _phi_below(t: sparse.Packed, k: int, L: Layout) -> sparse.Packed:
    """phi_k(t) below L.N, computed in L itself.

    By the weighted homogeneity of phi_k (see ``phi_pk``), a term of weight
    w >= ceil(N / p_k) lands at weight p_k * w >= N, so it is dropped before
    the lift; every other term, its ghost image and the shifted image stay
    below N, so each step in L is exact.
    """
    cut = -(-L.N // L.P[k]) << L.shift
    g = jet_to_ghost({m: c for m, c in t.items() if m < cut}, L, t.den)
    return ghost_to_jet(ghost_shift(g, k, L), L, g.den)


def delta_pk(f: MultiJetSeries, k: int) -> MultiJetSeries:
    """p_k-derivation (phi_k(f) - f**p_k) / p_k.

    In the common ring the division is structurally exact on P-integral
    coefficients; in a per-prime ring away from p_k the prime is a unit and
    the formula always applies.
    """
    L = layout(f.P, f.N)
    t = f._packed(L)
    g = jet_to_ghost(t, L, t.den)
    num, den = ghost_delta(g, k, L, g.den)
    return L.series(ghost_to_jet(num, L, den), f.ring)


def t_generator(P: Sequence[int], N: int, ring: int = 0) -> MultiJetSeries:
    d = len(P)
    return MultiJetSeries.make(P, {(((0,) * d, 1),): 1}, N, ring)


# ---------------------------------------------------------------------------
# Builders: the order-e expansions
# ---------------------------------------------------------------------------


def _corners(L: Layout, polys: Sequence[Sequence[int]], f: Sequence[int]) -> dict[int, int]:
    """prod_k polys[k](phi_k) applied to sum_n f[n] t^n, in ghost coordinates
    below L.N, in integers; polys[k][e] is the coefficient of phi_k^e.

    phi_k shifts u_j to u_(j+e_k), so corner j of the box adds c_j = prod_k
    polys[k][j_k] times sum_(n <= top) f[n] u_j^n, top = (N - 1) // wt(u_j).
    Key 0 adds up c_j f[0]; every other key belongs to one corner and is
    written once.  A zero c_j skips its corner; a zero f[n] leaves a zero.
    """
    out, const = {}, 0
    for corner in itertools.product(*map(enumerate, polys)):
        j, cs = zip(*corner)
        c, top = math.prod(cs), (L.N - 1) // var_weight(j, L.P)
        if c and top >= 0:
            const += c * f[0]
            if top:  # u_j has a field
                v = L.var[j]
                for m, x in zip(range(v, (top + 1) * v, v), f[1 : top + 1]):
                    out[m] = c * x
    if const:
        out[0] = const
    return out


def psi_multi(P: Sequence[int], k: int, N: int) -> MultiJetSeries:
    """The one-prime order-1 expansion at p_k inside the several-prime ring:
    (1/p_k) (phi_k - p_k) log(1 + t), in closed form.

    With p = p_k and x = x_{e_k}, phi_k(t) = t^p + p x in the jet basis, so
    the series is (1/p) log(1 + t^p + p x) - log(1 + t).  The binomial
    expansion of (t^p + p x)^n puts (-1)^(n-1) C(n, j) p^(j-1) / n at
    t^(p(n-j)) x^j, a monomial of weight p n.  The coefficients are integral
    at p_k, which is asserted.
    """
    Pt = _check_primes(P)
    if not 0 <= k < len(Pt):
        raise DomainError("prime index out of range")
    L = layout(Pt, N)
    p = L.P[k]
    zero = (0,) * len(L.P)
    e_k = tuple(int(j == k) for j in range(len(L.P)))
    den = math.lcm(*range(1, N))  # the series in integers over den * p
    t: Poly = {n * L.var[zero]: (-1) ** n * p * (den // n) for n in range(1, N)}
    for n in range(1, (N - 1) // p + 1):
        for j in range(n + 1):
            m = p * (n - j) * L.var[zero] + j * L.var[e_k]
            t[m] = t.get(m, 0) + (-1) ** (n - 1) * math.comb(n, j) * p**j * (den // n)
    out = L.series(sparse.canon(t, den * p), k + 1)
    assert_ring_integral(out)
    return out


def build_fe0(P: Sequence[int], N: int) -> MultiJetSeries:
    """The order-e common expansion:
    (1 / p_1...p_d) (phi_1 - p_1) ... (phi_d - p_d) log(1 + t).

    In ghost coordinates the operator product expands over the corners of the
    unit cube (``_corners``) into univariate logarithms c_i log(1 + u_i), in
    integers over lcm(1..N-1) * prod P; the result has coefficients integral
    at every prime of P, which is asserted.
    """
    Pt = _modular_primes(P)
    L = layout(Pt, N)
    den = math.lcm(*range(1, N))
    g = _corners(L, [(-p, 1) for p in Pt], [0] + [(-1) ** (n - 1) * (den // n) for n in range(1, N)])
    out = L.series(ghost_to_jet(g, L, den * math.prod(Pt)), 0)
    assert_ring_integral(out)
    return out


def build_fe_k(P: Sequence[int], k: int, N: int) -> MultiJetSeries:
    """Per-prime route to the order-e form:
    (-1)^(d-1) * prod_{l != k} (1 - phi_l / p_l) applied to the order-1
    expansion at p_k.  Must agree with build_fe0 coefficientwise.
    """
    Pt = _modular_primes(P)
    d = len(Pt)
    psi = psi_multi(Pt, k, N)  # checks k before a layout is built
    L = layout(Pt, N)
    out = psi._packed(L)
    for l in range(d):
        if l != k:
            out = _axpy(out, _phi_below(out, l, L), Fraction(-1, Pt[l]))
    return L.series(sparse.canon(sparse.scale(out, (-1) ** (d - 1)), out.den), k + 1)


# ---------------------------------------------------------------------------
# Analytic continuation checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuationResult:
    ok: bool
    f0: MultiJetSeries | None
    witness: Mono | None
    details: tuple[str, ...] = ()

    def to_text(self) -> str:
        """The report as the CLI writes it, f0 by its own writer."""
        f0 = "null" if self.f0 is None else self.f0.to_text()
        witness = None if self.witness is None else [[list(i), e] for i, e in self.witness]
        details, ok, witness = (json.dumps(x, separators=(",", ":")) for x in (list(self.details), self.ok, witness))
        return f'{{"details":{details},"f0":{f0},"pass":{ok},"witness":{witness}}}'

    def to_json(self) -> dict:
        return json.loads(self.to_text())


def reduce_to_padic(f: MultiJetSeries, k: int, M: int) -> MultiJetSeries:
    """Reduce an exact series into the p_k-adic per-prime ring: each numerator
    times den**-1 mod p_k**M."""
    if not 0 <= k < len(f.P):
        raise DomainError("prime index out of range")
    t, p = f._packed(layout(f.P, f.N)), f.P[k]
    if t.den % p == 0:  # p divides a canonical den exactly when it divides some coefficient's
        c = next(c for _, c in f.terms if c.denominator % p == 0)
        raise DomainError(f"{c} is not p-integral at p={p}")
    inv = pow(t.den, -1, p**M)
    pairs = ((m, _in_ring(PadicTrunc(p, M, x * inv, M), f.P, k + 1)) for m, x in t.items())
    return MultiJetSeries(f.P, _stored(pairs), f.N, k + 1)


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

    if not padic[0]:
        def decide(m: int) -> tuple[tuple[int, int] | None, Iterable[str]]:
            vals = [Fraction(f._store.get(m, 0), f._store.den) for f in family]
            ok = all(v == vals[0] for v in vals) and all(vals[0].denominator % p for p in P)
            return (vals[0].as_integer_ratio() if ok else None), map(format_rational, vals)

    else:
        if len(family) != len(P):
            raise DomainError("p-adic continuation needs one member per prime")
        if any(f.ring != k + 1 for k, f in enumerate(family)):
            raise DomainError("p-adic family members must be ordered by prime")
        zero = [PadicTrunc(p, 8, 0, 8) for p in P]  # a missing key reads as 0 known to 8 digits

        def decide(m: int) -> tuple[tuple[int, int] | None, Iterable[str]]:
            cs = [f._store.get(m, z) for f, z in zip(family, zero)]
            residues = [(c.p, c.digits, c.residue % c.p**c.digits) for c in cs]
            try:
                return rational_reconstruct(residues, height=height).as_integer_ratio(), ()
            except ReconstructionFailure:
                return None, (f"{r} mod {p}^{Mk}" for p, Mk, r in residues)

    L, out = layout(P, N), []
    for m in sorted({m for f in family for m in f._store}, key=lambda m: (m >> L.shift, L.unpack(m))):
        c, details = decide(m)
        if c is None:
            return ContinuationResult(False, None, L.unpack(m), tuple(details))
        out.append((m, c))
    return ContinuationResult(True, MultiJetSeries(P, _stored(out), N, 0), None)


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


def exact_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals of integer rows, by fraction-free elimination.

    Each step takes a nonzero row as pivot, at a nonzero column c, and
    replaces every other row r by piv[c] * r - r[c] * piv, divided by the gcd
    of its entries: the other rows then vanish at c, so the pivot is
    independent of them and adds one to their rank.
    """
    mat, rank = list(rows), 0
    while mat:
        piv = mat.pop()
        col = next((j for j, x in enumerate(piv) if x), None)
        if col is None:
            continue
        rank += 1
        for n, row in enumerate(mat):
            if b := row[col]:
                row = [piv[col] * x - b * y for x, y in zip(row, piv)]
                g = math.gcd(*row) or 1
                mat[n] = [x // g for x in row]
    return rank


def _ghost_shifts(Pt: tuple[int, ...], rv: tuple[int, ...], L: Layout) -> dict[Idx, dict[int, int]]:
    """The shifts phi_P^(s-e)(f^e_0), e <= s <= rv, by s, in ghost coordinates
    below L.N, with the column of u_j^n scaled by n * prod P.

    There f^e_0 is (1 / prod P) prod_k (phi_k - p_k) log(1 + t) (see
    ``build_fe0``), and phi_k is ``ghost_shift``, which keeps n: scaled, the
    base row is ``_corners`` of the same polynomials on (-1)^(n-1).
    """
    shifts = {(1,) * len(Pt): _corners(L, [(-p, 1) for p in Pt], [0] + [1, -1] * (L.N // 2))}
    for s in itertools.product(*(range(1, top + 1) for top in rv)):
        if ks := [k for k in range(len(Pt)) if s[k] > 1]:
            k = ks[-1]
            shifts[s] = ghost_shift(shifts[s[:k] + (s[k] - 1,) + s[k + 1 :]], k, L)
    return shifts


def basis_independence_check(P: Sequence[int], r: Sequence[int], N: int) -> RankReport:
    """Rank of the shifted order-e expansions {phi_P^(s-e)(f^e_0), e <= s <= r}.

    The expected rank is r_1 * ... * r_d.  The deepest shift starts at weight
    p_1^(r_1 - 1) * ... * p_d^(r_d - 1) and truncates to zero below it, so a
    smaller ``N`` decides nothing and raises ``DomainError``.  The rows are
    ``_ghost_shifts``, with no basis exchange: ``jet_to_ghost`` is a linear
    bijection below N that turns phi_k into ``ghost_shift``, both maps are
    weight-homogeneous, and scaling a column keeps the rank.
    """
    Pt = tuple(sorted(set(int(p) for p in P)))
    rv = tuple(int(x) for x in r)
    if len(rv) != len(Pt) or any(x < 1 for x in rv):
        raise DomainError("order vector must have a positive entry per prime")
    deepest = math.prod(p ** (x - 1) for p, x in zip(Pt, rv))
    if N <= deepest:
        raise DomainError(
            f"N={N} truncates the deepest shift, which starts at weight {deepest}; "
            f"use N >= {deepest + 1}"
        )
    _modular_primes(Pt)
    shifts = _ghost_shifts(Pt, rv, layout(Pt, N))
    cols = sorted({m for t in shifts.values() for m in t})
    rows = [[t.get(m, 0) for m in cols] for t in shifts.values()]
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
    L, G, num = _gamma_in_ghost(f, gamma)
    return L.series(ghost_to_jet(num, L, G.den), f.ring)


def _gamma_in_ghost(f: MultiJetSeries, gamma: int) -> tuple[Layout, sparse.Packed, dict[int, int]]:
    """The layout of f, G = jet_to_ghost(f) in it, and the numerators of
    ghost_gamma(G) over G.den: the step ``substitute_gamma`` and
    ``forms.covariance_check`` share."""
    if gamma in (-1, 0, 1):
        raise DomainError("gamma must not be 0 or a root of unity")
    L = layout(f.P, f.N)
    t = f._packed(L)
    G = jet_to_ghost(t, L, t.den)
    return L, G, ghost_gamma(G, L, gamma)


def _gamma_row(prev: list[int], e: int, gamma: int, N: int) -> list[int]:
    """Row e of ``ghost_gamma``'s table, r_e(n) = [u^n] h^e for n < N with
    h = (1 + u)**gamma - 1, from row e - 1 in ``prev``.  (1 + u) h' =
    gamma (1 + h) gives r_e(e) = gamma**e and (n + 1) r_e(n + 1) =
    e gamma (r_{e-1}(n) + r_e(n)) - n r_e(n), an exact division; a row
    with e >= N is all zero."""
    row = [0] * N
    if e < N:
        row[e] = x = gamma**e
        for n in range(e, N - 1):
            row[n + 1] = x = (e * gamma * (prev[n] + x) - n * x) // (n + 1)
    return row


def ghost_gamma(t: Mapping[int, int], L: Layout, gamma: int) -> dict[int, int]:
    """u_i -> (1 + u_i)**gamma - 1 on ghost coordinates, below weight L.N, on
    integer numerators: the image's numerators over t's own denominator.

    The image of u_i**e is ((1 + u_i)**gamma - 1)**e, and one table serves
    every variable: rows[e] holds that integer series below degree N, built
    on first use by ``_gamma_row``.  The factors of a monomial are in
    distinct variables, so its image's monomials are the keys n * var[i]
    added up; a variable of weight w takes the degrees n <= (N - 1 - wt) // w,
    wt the weight of the image term built so far, and no term of weight N or
    more is formed.
    """
    N = L.N
    rows = [[1] + [0] * (N - 1)]
    out: dict[int, int] = {}
    for m, c in t.items():
        images = [(0, c, 0)]
        for i, off, mask in L.fields:
            if not (e := m >> off & mask):
                continue
            while len(rows) <= e:
                rows.append(_gamma_row(rows[-1], len(rows), gamma, N))
            row, v = rows[e], L.var[i]
            w = v >> L.shift
            images = [
                (key + n * v, x * row[n], wt + n * w)
                for key, x, wt in images
                for n in range(e, (N - 1 - wt) // w + 1)
                if row[n]
            ]
        for key, x, _ in images:
            out[key] = out.get(key, 0) + x
    return {m: x for m, x in out.items() if x}


# ---------------------------------------------------------------------------
# Bridges to the one-prime t-side jet ring
# ---------------------------------------------------------------------------


def from_jet_series(f) -> MultiJetSeries:
    """The d=1 several-prime series of a one-prime t-side series."""
    from .deltajet import TSeries

    if not isinstance(f, TSeries):
        raise DomainError("expected a t-side jet series")
    return MultiJetSeries(f.P, f._store, f.N, f.ring)
