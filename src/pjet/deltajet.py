"""Single-prime delta-jet series rings.

A jet series lives in the ring obtained from Laurent series in ``q`` (or
power series in ``t``) by adjoining jet variables q', q'', ... with
``delta(q^(i)) = q^(i+1)``.  The Frobenius lift is the substitution
endomorphism

    phi(v) = v**p + p * (next jet variable),    phi = identity on coefficients,

and the p-derivation is computed from it as ``delta(f) = (phi(f) - f**p)/p``.
This single code path makes divisibility by p structural: for series with
p-integral coefficients and nonnegative base exponents everything stays
exact, while negative base powers expand through p-adically convergent
tails and are tracked by a guaranteed-digit counter.

A monomial is a pair of exponent tuples: the ``z`` family (index 0 the
base variable, index i >= 1 the i-th jet) and an auxiliary family a_0, a_1,
... for an adjoined symbolic coefficient and its delta-chain.  The kernel
packs it into one int and scales the coefficients to integers over one
denominator, and that ``sparse.Packed`` is the stored value of a
``JetSeries``.  ``make`` stores a series in a ``Layout`` with room for one
step; ``delta_n`` moves it into one for all its steps, as a lemma's delta
chain is, and a step whose input has no room left builds a new one.  A
layout has one field per jet z_1..z_(r+1) and per a_0..a_(s+1) (one more of
each per further step), all of one width, and the signed base exponent
above them: the product is integer ``+``, and a base cut is the key limit
``cut << shift`` for ``sparse.mul``, which walks its second operand in key
order and squares once.  The width holds
(p+1)**steps * max(E, jmax), E the largest input exponent: the phi image of
field i is at most p*a_i + max(a_(i-1), jmax), a partial product of f**p at
most p*E and a product of two series at most 2E, so no field carries into
the next.

Truncation contracts:

* q side (``JetSeries``): coefficients valid modulo p**digits
  (``digits=None`` means exact), base exponents known below ``base_order``
  (None means no unknown tail).  A step cuts its integer numerators, puts
  them in ``sparse.canon`` form and passes them on in their layout; only
  ``to_text`` writes the coefficients as text.  ``phi`` and ``delta`` below
  are the q-side maps.
* t side (``TSeries``): weighted degree with wt(t)=1, wt(delta^i t)=p**i,
  all monomials of weight >= N dropped, exact rational: the d=1
  ``multiprime`` series in ring 1, where ``phi_pk``, ``delta_pk`` and the
  ring operations act.

One text writer (``to_json`` reads its text back) and one term reader
serve the one-prime payload of both sides:
``var`` ("q" or "t"), ``p``, ``M``, ``digits``, ``base_order``, ``N`` and
the terms ``[b, c, jets]`` in (b, jets) order.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from . import sparse
from .arith import at_least, binomial, check_prime, format_rational, min_order, parse_int, parse_ratio, valuation
from .errors import DomainError, PrecisionExhausted
from .multiprime import MultiJetSeries, Poly, _check_primes, _stored, layout, psi_multi

Monomial = tuple[tuple[int, ...], tuple[int, ...]]  # (z-family exps, aux exps)
Terms = dict[Monomial, Fraction]


def _trim(t: tuple[int, ...]) -> tuple[int, ...]:
    i = len(t)
    while i > 0 and t[i - 1] == 0:
        i -= 1
    return t[:i]


def _mod(p: int, digits: int | None, den: int) -> int | None:
    """The digit rule for numerators over ``den``: x / den has valuation
    below ``digits`` exactly when x % p**(digits + v_p(den)) is nonzero; a
    negative exponent keeps nothing, as p**0 does."""
    return None if digits is None else p ** max(digits + valuation(den, p), 0)


class Layout:
    """The packed monomials of one step or chain (see the module docstring):
    field f holds z_(f+1) for f < nz and a_(f-nz) after, the base b at ``shift``."""

    __slots__ = ("p", "nz", "na", "width", "mask", "shift")

    def __init__(self, p: int, monos: Iterable[Monomial], jmax: int = 0, steps: int = 1):
        """A layout for ``steps`` phi or delta steps in a row: that many spare
        jet and auxiliary fields, each wide enough for the last step."""
        monos = list(monos)
        E = max((e for z, a in monos for e in (*z, *a)), default=0)
        self.p = p
        self.width = ((p + 1) ** steps * max(E, jmax, 1)).bit_length()
        self.mask = (1 << self.width) - 1
        self.nz = max((len(z) for z, _ in monos), default=0) + steps - 1 or 1
        na = max((len(a) for _, a in monos), default=0)
        self.na = na + steps if na else 0
        self.shift = (self.nz + self.na) * self.width

    def key(self, m: Monomial) -> int:
        z, a = m
        w = self.width
        k = z[0] << self.shift if z else 0
        k += sum(e << (f * w) for f, e in enumerate(z[1:]))
        return k + sum(e << ((self.nz + i) * w) for i, e in enumerate(a))

    def exps(self, k: int) -> list[int]:
        """The field exponents of key ``k``: z_1..z_nz, then a_0, a_1, ..."""
        w, mask = self.width, self.mask
        return [k >> (f * w) & mask for f in range(self.nz + self.na)]

    def pack(self, t: Terms) -> sparse.Packed:
        """The canonical store of t, over the lcm of its denominators."""
        D = math.lcm(*(c.denominator for c in t.values()))
        return sparse.canon({self.key(m): c.numerator * (D // c.denominator) for m, c in t.items()}, D)

    def mono(self, k: int) -> Monomial:
        e = self.exps(k)
        return _trim((k >> self.shift, *e[: self.nz])), _trim(tuple(e[self.nz :]))

    def unpack(self, t: Poly, den: int) -> Terms:
        return {self.mono(k): Fraction(x, den) for k, x in t.items()}

    def below(self, cut: int | None) -> int | None:
        """The key limit of base exponents below ``cut`` (None for no cut)."""
        return None if cut is None else cut << self.shift


def terms_mul(t1: Poly, t2: Poly, limit: int | None, mod: int | None) -> Poly:
    """The product of packed terms, forming only the pairs below the key
    ``limit``, then the digit rule ``mod`` (see ``_mod``) on the sums."""
    out = sparse.mul(t1, t2, limit)
    return out if mod is None else {m: x for m, x in out.items() if x % mod}


def _cut(t: Poly, limit: int | None, mod: int | None) -> Poly:
    return {m: x for m, x in t.items() if (limit is None or m < limit) and (x % mod if mod else x)}


def terms_phi(t: Poly, L: Layout, limit, mod: int | None, jmax: int) -> Poly:
    """Apply the Frobenius-lift substitution v -> v**p + p * (next jet).

    Each variable power v**a maps to sum_j C(a, j) p^j v^(p(a-j)) w^j, w the
    next jet; for a < 0 (base variable only) that is the p-adically
    convergent tail, cut at j = jmax since the j-th term carries p**j.

    A term's image is formed whole, one product per choice of the j's, and
    the digit rule ``mod`` is tested on each partial product as its factor
    joins.  That keeps what one test of the whole product keeps: each choice
    sets its own field pattern (the layout has no carries), so no two
    products of a term meet, and every factor is an integer, so a partial
    product that the rule drops stays divisible by ``mod``.  Only the base
    factor moves the base exponent, so the key ``limit`` is applied there;
    ``_cut`` applies both rules to the sums.
    """
    p, w = L.p, L.width
    images: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def image(u: int, nxt: int, a: int) -> list[tuple[int, int]]:
        """phi(v**a), for v of key ``u`` and its next jet of key ``nxt``."""
        if (u, a) not in images:
            top = a if a >= 0 else jmax
            images[u, a] = [(p * (a - j) * u + j * nxt, binomial(a, j) * p**j) for j in range(top + 1)]
        return images[u, a]

    out: dict = {}
    get = out.get
    for k, x in t.items():
        b = k >> L.shift
        base = image(1 << L.shift, 1, b) if b else [(0, 1)]
        acc = [(m, c) for m, c0 in base if (limit is None or m < limit) and (c := x * c0) and (mod is None or c % mod)]
        for f, e in enumerate(L.exps(k)):
            if e:
                img = image(1 << (f * w), 1 << ((f + 1) * w), e)
                acc = [(m1 + m2, c) for m1, c1 in acc for m2, c2 in img if (c := c1 * c2) and (mod is None or c % mod)]
        for m, c in acc:
            out[m] = get(m, 0) + c
    return _cut(out, limit, mod)


def terms_delta(t: Poly, D: int, L: Layout, limit, digits, jmax: int) -> tuple[Poly, int]:
    """(phi(f) - f**p) / p for f = t / D, as numerators over the returned
    denominator: D**(p-1) phi(t) - t**p over D**p * p, in one dict, not cut
    (a sum that cancels stays as 0): ``delta``'s step cuts it at a key limit
    and a digit rule at least as tight as these."""
    p = L.p

    def mul(a: tuple[Poly, int], b: tuple[Poly, int]) -> tuple[Poly, int]:
        den = a[1] * b[1]
        return terms_mul(a[0], b[0], limit, _mod(p, digits, den)), den

    fp, den = sparse.power((t, D), p, ({0: 1}, 1), mul)
    s = D ** (p - 1)
    out = {m: s * x for m, x in terms_phi(t, L, limit, _mod(p, digits, D), jmax).items()}
    for m, x in fp.items():
        out[m] = out.get(m, 0) - x
    return out, den * p


# ---------------------------------------------------------------------------
# Public jet series
# ---------------------------------------------------------------------------


def _jets(jets: Iterable[int]) -> tuple[int, ...]:
    """The jet exponents, trimmed, none of them negative."""
    jets = _trim(tuple(jets))
    if any(e < 0 for e in jets):
        raise DomainError("jet exponents must be nonnegative")
    return jets


def _payload(var: str, p: int, M: int, digits, base_order, N, rows, den: int) -> str:
    """The one-prime payload text of the rows (base exponent, jets, numerator)
    over ``den``, as the CLI writes it: sorted keys, no spaces, its terms in
    (base exponent, jets) order, each coefficient in lowest terms."""
    terms = []
    for b, jets, x in sorted(rows):
        g = math.gcd(x, den)
        c = x // g if g == den else f"{x // g}/{den // g}"
        terms.append(f'[{b},"{c}",[{",".join(map(str, jets))}]]')
    N, base_order, digits = ("null" if v is None else v for v in (N, base_order, digits))
    return f'{{"M":{M},"N":{N},"base_order":{base_order},"digits":{digits},"p":{p},"terms":[{",".join(terms)}],"var":"{var}"}}'


def _header(obj: Mapping) -> tuple[int, int, int | None, int | None, int | None]:
    """p, M (8 when absent), digits, base_order and N of a one-prime payload:
    each an int or an integer string, never a float or a bool, and the last
    three may be null."""

    def opt(key):
        return None if obj.get(key) is None else parse_int(obj[key])

    return parse_int(obj["p"]), parse_int(obj.get("M", 8)), opt("digits"), opt("base_order"), opt("N")


def _read_terms(obj: Mapping) -> Iterator[tuple[int, tuple[int, ...], tuple[int, int]]]:
    """(base exponent, trimmed jets, coefficient as (numerator, denominator))
    of each payload term."""
    for b, c, jets in obj["terms"]:
        yield parse_int(b), _jets(map(parse_int, jets)), parse_ratio(c)


@dataclass(frozen=True)
class JetSeries:
    """Truncated element of the single-prime q-side jet ring.

    The stored value ``num`` is the packed form: a canonical ``sparse.Packed``
    of integer numerators by key of the layout ``L``.  ``L`` has the spare
    fields and the width of ``room`` more phi or delta steps.  ``terms``,
    which maps (base exponent, jet exponents) to rational coefficients, is a
    view built on first use.  See the module docstring for the truncation
    contract.
    """

    p: int
    L: Layout
    num: sparse.Packed
    M: int = 8
    digits: int | None = None  # valid mod p**digits; None = exact
    base_order: int | None = None  # base exponents >= this are unknown
    room: int = 0

    @staticmethod
    def make(
        p: int,
        terms: Mapping[tuple[int, tuple[int, ...]], Fraction | int],
        M: int = 8,
        digits: int | None = None,
        base_order: int | None = None,
    ) -> "JetSeries":
        """The series of ``terms``, (base exponent, jets) -> coefficient, cut
        as a step cuts (see ``_step``): numerators over the lcm of the
        denominators, base exponents below ``base_order`` and the digit rule.
        Of two keys that trim to one monomial the later wins, kept or cut."""
        trimmed = {_trim((b, *_jets(jets))): c for (b, jets), c in terms.items()}
        L = Layout(p, ((z, ()) for z in trimmed), M if digits is None else digits)
        D = math.lcm(*(c.denominator for c in trimmed.values()))
        num = {L.key((z, ())): c.numerator * (D // c.denominator) for z, c in trimmed.items()}
        num = sparse.canon(_cut(num, L.below(base_order), _mod(p, digits, D)), D)
        return JetSeries(p, L, num, M, digits, base_order, 1)

    # -- views of the store ---------------------------------------------------

    def _rows(self) -> list[tuple[int, list[int], int]]:
        """(base exponent, jet exponents, numerator) of each stored term, the
        jets read from the key's fields up to the last nonzero one."""
        L = self.L
        w, mask, zmask = L.width, L.mask, (1 << L.nz * L.width) - 1
        rows = []
        for k, x in self.num.items():
            low, jets = k & zmask, []
            while low:
                jets.append(low & mask)
                low >>= w
            rows.append((k >> L.shift, jets, x))
        return rows

    @functools.cached_property
    def terms(self) -> tuple[tuple[tuple[int, tuple[int, ...]], Fraction], ...]:
        """The terms in (base exponent, jets) order, built on first use."""
        return tuple(((b, tuple(jets)), Fraction(x, self.num.den)) for b, jets, x in sorted(self._rows()))

    def _in(self, L: Layout) -> sparse.Packed:
        """The stored value keyed in the layout L."""
        return sparse.canon({L.key(self.L.mono(k)): x for k, x in self.num.items()}, self.num.den)

    def _with_room(self, steps: int) -> "JetSeries":
        """This series in a layout with room for ``steps`` more phi or delta
        steps: its own if that has the room, else one built for them."""
        if self.room >= steps:
            return self
        L = Layout(self.p, map(self.L.mono, self.num), self.eff_digits(), steps)
        return replace(self, L=L, num=self._in(L), room=steps)

    def _step(self, t: Poly, den: int, digits: int | None, border: int | None) -> "JetSeries":
        """The series one phi or delta step on from this one, of the
        numerators ``t`` in its layout over ``den``: cut at the base_order
        border and by the digit rule (see ``_mod``), then canonical."""
        t = sparse.canon(_cut(t, self.L.below(border), _mod(self.p, digits, den)), den)
        return JetSeries(self.p, self.L, t, self.M, digits, border, self.room - 1)

    def r(self) -> int:
        """Jet order: highest jet index that occurs."""
        return max((len(jets) for _, jets, _ in self._rows()), default=0)

    def eff_digits(self) -> int:
        return self.digits if self.digits is not None else self.M

    def base_valuation(self) -> int:
        return min(self.num, default=0) >> self.L.shift  # keys order by base exponent first

    # -- equality -------------------------------------------------------------

    def __eq__(self, other):
        """Equal modulo the smaller digits and below the smaller base_order:
        the difference, over one denominator in one layout, cuts to nothing."""
        if isinstance(other, numbers.Rational):
            other = JetSeries.make(self.p, {(0, ()): other})
        elif not isinstance(other, JetSeries):
            return NotImplemented
        if self.p != other.p:
            return False
        L = Layout(self.p, [*map(self.L.mono, self.num), *map(other.L.mono, other.num)])
        a, b = self._in(L), other._in(L)
        diff = sparse.add(sparse.scale(a, b.den), sparse.scale(b, -a.den))
        border, digits = min_order(self.base_order, other.base_order), min_order(self.digits, other.digits)
        return not _cut(diff, L.below(border), _mod(self.p, digits, a.den * b.den))

    def __hash__(self):
        return hash((self.p, self.terms))

    # -- serialization --------------------------------------------------------

    def to_text(self) -> str:
        return _payload("q", self.p, self.M, self.digits, self.base_order, None, self._rows(), self.num.den)

    def to_json(self) -> dict:
        return json.loads(self.to_text())

    @staticmethod
    def from_json(obj: Mapping) -> "JetSeries | TSeries":
        """The payload's series: a ``TSeries`` for ``"var": "t"``.  A q-side
        payload has a null N, and its digits and base_order may be null."""
        if obj["var"] == "t":
            return TSeries.from_json(obj)
        p, M, digits, base_order, N = _header(obj)
        if obj["var"] != "q":
            raise DomainError(f"unknown base tag {obj['var']!r}")
        if N is not None:
            raise DomainError("N is a t-side field; a q-side series is cut by digits and base_order")
        terms = {(b, jets): Fraction(*c) for b, jets, c in _read_terms(obj)}
        return JetSeries.make(p, terms, M, digits, base_order)


class TSeries(MultiJetSeries):
    """A one-prime t-side series: the d=1 ``MultiJetSeries`` in ring 1, with
    the one-prime payload ("var": "t") as its JSON codec."""

    def to_text(self) -> str:
        """The payload text, its terms in (b, jets) order with the jets trimmed,
        b the power of t; M is 8, as in every t payload pjet writes."""
        fields, rows = layout(self.P, self.N).fields, []
        for k, x in self._store.items():
            b, *jets = _trim(tuple(k >> off & mask for _, off, mask in fields)) or (0,)
            rows.append((b, jets, x))
        return _payload("t", self.P[0], 8, None, None, self.N, rows, self._store.den)

    @staticmethod
    def from_json(obj: Mapping) -> "TSeries":
        """The payload's series, read straight into keys of the layout of
        ((p,), N): exact below the required N, so with no digits or
        base_order, and with no negative power of t.  M is checked, not kept."""
        p, _, digits, base_order, N = _header(obj)
        if (digits, base_order) != (None, None):
            raise DomainError("digits and base_order are q-side fields; a t-side series is exact below N")
        if N is None:
            raise DomainError("a weighted truncation bound is required")
        L, pairs = layout(_check_primes((p,)), N), []
        for b, jets, c in _read_terms(obj):
            if b < 0:
                raise DomainError("negative base exponents need the q side")
            try:
                key = sum(e * L.var[(i,)] for i, e in enumerate((b, *jets)) if e)
            except KeyError:  # a variable with no field weighs N or more
                key = None
            pairs.append((None if key is None or key >= L.limit else key, c))
        return TSeries(L.P, _stored(pairs), N, 1)


# ---------------------------------------------------------------------------
# phi and delta
# ---------------------------------------------------------------------------


def phi(f: JetSeries) -> JetSeries:
    """Frobenius lift: every variable v maps to v**p + p * (next jet)."""
    if not isinstance(f, JetSeries):
        raise DomainError("phi is the q-side map; a t-side series lifts as the d=1 phi_pk")
    p = f.p
    geff = f.eff_digits()
    # negative base powers expand through tails cut at p**geff
    digits = f.digits if f.base_valuation() >= 0 else geff
    border = None
    if f.base_order is not None:
        # An unknown tail term q^a (a >= base_order) maps to terms of base
        # exponent p(a-j) carrying a factor p^j; declaring validity mod
        # p**digits pushes the surviving junk above this base exponent.
        digits = min_order(digits, f.M)
        border = p * (f.base_order - digits + 1)
    # phi(q^a * jets) has base exponents exactly p(a-j): the jet images add
    # none, so a monomial at or above the output border never comes back.
    f = f._with_room(1)
    out = terms_phi(f.num, f.L, f.L.below(border), _mod(p, f.digits, f.num.den), geff)
    return f._step(out, f.num.den, digits, border)


def delta(f: JetSeries) -> JetSeries:
    """p-derivation: (phi(f) - f**p) / p.

    Exact in the rational regime with nonnegative base exponents; in the
    p-adic regime one guaranteed digit is consumed.
    """
    if not isinstance(f, JetSeries):
        raise DomainError("delta is the q-side map; a t-side series lifts as the d=1 delta_pk")
    p = f.p
    geff = f.eff_digits()
    if f.digits is not None and f.digits <= 1:
        raise PrecisionExhausted("need at least two guaranteed digits for delta")
    v = min(f.base_valuation(), 0)
    digits = f.digits
    if v < 0 or f.base_order is not None:
        digits = min_order(digits, f.M)
    if digits is not None:
        digits -= 1
        if digits < 1:
            raise PrecisionExhausted("guaranteed digits exhausted")
    border = cut = None
    if f.base_order is not None:
        # After the division by p, an unknown tail term q^a (a >= base_order)
        # leaves p^(j-1) q^(p(a-j)) (next jet)^j, below the digits only for
        # j <= digits: so its junk starts at p * (base_order - digits).
        border = min_order(p * (f.base_order - digits), f.base_order + (p - 1) * v)
        # A partial product of f**p takes at most p-1 further factors, each
        # lowering the base exponent by at most |v|, and phi's base exponents
        # are final; so a monomial at or above ``cut`` only feeds the terms
        # at or above ``border`` that the output drops anyway.
        cut = border - (p - 1) * v
    f = f._with_room(1)
    out, den = terms_delta(f.num, f.num.den, f.L, f.L.below(cut), f.digits, geff)
    return f._step(out, den, digits, border)


def delta_n(f: JetSeries, n: int) -> JetSeries:
    """delta applied n times, in one layout built for all n steps.  A
    layout's width grows as (p+1)**steps, so it is sized for eff_digits
    steps at most: a p-adic chain consumes a digit a step and runs no
    further, and a longer exact chain builds a layout per further step."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    f = f._with_room(min(n, f.eff_digits()))
    for _ in range(n):
        f = delta(f)
    return f


# ---------------------------------------------------------------------------
# The two Psi builders
# ---------------------------------------------------------------------------


def psi_fourier(p: int, M: int, window: int) -> JetSeries:
    """sum_{n>=1} (-1)^(n-1) n^(-1) p^(n-1) (q'/q^p)^n up to jet degree ``window``.

    Every coefficient is p-integral: v_p(p^(n-1)/n) = n - 1 - v_p(n) >= 0.
    The omitted tail is p-adically small, which the digit bound records.
    """
    if check_prime(p) < 5:
        raise DomainError("the modular layer requires p >= 5")
    at_least(1, M=M, window=window)
    terms = {}
    for n in range(1, window + 1):
        terms[(-p * n, (n,))] = Fraction((-1) ** (n - 1) * p ** (n - 1), n)
    tail_digits = min(n - 1 - valuation(n, p) for n in range(window + 1, 2 * window + 3))
    return JetSeries.make(p, terms, M, digits=min(tail_digits, M))


def psi_serretate(p: int, N: int) -> TSeries:
    """(1/p) (phi - p) log(1 + t) as an exact t-side jet series of weighted
    degree below N: the d=1 ``multiprime.psi_multi``, whose coefficients are
    asserted p-integral."""
    if p < 5:
        raise DomainError("the modular layer requires p >= 5")
    f = psi_multi((p,), 0, N)
    return TSeries(f.P, f._store, f.N, f.ring)


# ---------------------------------------------------------------------------
# Lemma-style identity checkers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaReport:
    name: str
    p: int
    n: int
    passed: bool
    residual_terms: int
    offending: tuple | None

    def to_json(self) -> dict:
        return {
            "lemma": self.name,
            "p": self.p,
            "n": self.n,
            "pass": self.passed,
            "residual_terms": self.residual_terms,
            "offending": list(self.offending) if self.offending else None,
        }


def _lemma_delta_n(t: Terms, p: int, n: int) -> JetSeries:
    """delta_n of ``t``, auxiliary family included, valid mod p**(n + 3): the
    series in one layout with room for all n steps."""
    L = Layout(p, t, n + 3, n)
    return delta_n(JetSeries(p, L, L.pack(t), n + 3, n + 3, None, n), n)


def lemma_xlaphi_check(p: int, n: int, varphi: Fraction | int | str = 0) -> LemmaReport:
    """Check delta^n(phi(z)/z - c) against its two leading jet terms.

    The residual after removing z^(-p^n) (z^(n))^p - z^(p^(n+1) - 2 p^n) z^(n)
    must consist of low-jet terms (index <= n-1) plus p times anything of jet
    index <= n+1.  ``varphi`` may be a rational constant or the string
    "symbolic", which adjoins an auxiliary coefficient with its own
    delta-chain, giving the universal case.
    """
    check_prime(p)
    if n < 1:
        raise DomainError("the xlaphi lemma needs n >= 1")
    symbolic = varphi == "symbolic"
    f: Terms = {((p - 1,), ()): Fraction(1), ((-1, 1), ()): Fraction(p)}
    if symbolic:
        f[((), (1,))] = Fraction(-1)
    else:
        c = Fraction(varphi)
        if c:
            f[((), ())] = -c
    L, res, D = (d := _lemma_delta_n(f, p, n)).L, d.num, d.num.den
    lead1 = L.key(((-(p**n),) + (0,) * (n - 1) + (p,), ()))  # coefficient 1
    lead2 = L.key(((p ** (n + 1) - 2 * p**n,) + (0,) * (n - 1) + (1,), ()))  # coefficient -1
    res = sparse.add(res, {lead1: -D}, {lead2: D})
    return _classify_residual("xlaphi", p, n, L, res, D, low_jet=n - 1, max_jet=n + 1)


def lemma_logder_check(p: int, n: int, a: int) -> LemmaReport:
    """Check delta^n((1 + p^n a) z) = z^(n) + a z^(p^n) + p * O(n)."""
    check_prime(p)
    if n < 0:
        raise DomainError("n must be nonnegative")
    lam = Fraction(1 + p**n * a)
    f: Terms = {((1,), ()): lam}
    L, res, D = (d := _lemma_delta_n(f, p, n)).L, d.num, d.num.den
    res = sparse.add(res, {L.key(((0,) * n + (1,), ())): -D}, {L.key(((p**n,), ())): -a * D})
    return _classify_residual("logder", p, n, L, res, D, low_jet=-1, max_jet=n)


def _classify_residual(name, p, n, L: Layout, res: Poly, D: int, low_jet: int, max_jet: int) -> LemmaReport:
    """The report on the residual numerators ``res`` over ``D``.  A term of jet
    index above ``low_jet`` offends when the index exceeds ``max_jet`` or p does
    not divide its coefficient (the digit rule ``_mod`` at one digit); only the
    offenders are unpacked, and the first of them in ``Monomial`` order is
    reported."""
    zmask, mod = (1 << L.nz * L.width) - 1, _mod(p, 1, D)

    def jet(k: int) -> int:  # the highest jet index whose z field is nonzero
        return ((k & zmask).bit_length() + L.width - 1) // L.width

    bad = L.unpack({k: x for k, x in res.items() if (i := jet(k)) > low_jet and (i > max_jet or x % mod)}, D)
    m = min(bad, default=None)
    offending = None if m is None else (m[0], m[1], format_rational(bad[m]))
    return LemmaReport(name, p, n, offending is None, len(res), offending)
