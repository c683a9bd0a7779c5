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

Monomials are stored as two exponent tuples: the ``z`` family (index 0 is
the base variable, index i >= 1 the i-th jet) and an optional auxiliary
family used for computations with an adjoined symbolic coefficient and its
own delta-chain.

Truncation contracts:

* q side: coefficients valid modulo p**digits (``digits=None`` means exact),
  base exponents known below ``base_order`` (None means no unknown tail).
* t side: weighted degree with wt(t)=1, wt(delta^i t)=p**i, all monomials of
  weight >= N dropped; everything is exact rational.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from . import sparse
from .arith import Weight, binomial, format_rational, min_order, parse_rational, valuation
from .errors import DomainError, NotInvertible, PrecisionExhausted

Monomial = tuple[tuple[int, ...], tuple[int, ...]]  # (z-family exps, aux exps)
Terms = dict[Monomial, Fraction]
# What a product keeps: a monomial rule, applied before the coefficients
# multiply, and a coefficient rule (a digit bound), applied to the sums.
Keep = tuple[Callable[[Monomial], bool], Callable[[Fraction], bool]]


def _trim(t: tuple[int, ...]) -> tuple[int, ...]:
    i = len(t)
    while i > 0 and t[i - 1] == 0:
        i -= 1
    return t[:i]


def _padd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    return _trim(tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)))


def m_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return (_padd(m1[0], m2[0]), _padd(m1[1], m2[1]))


M_ONE: Monomial = ((), ())


def _vp(c: Fraction, p: int) -> float:
    return math.inf if c == 0 else valuation(c, p)


def _kept(t: Terms, keep: Keep) -> Terms:
    mono_ok, coeff_ok = keep
    return {m: c for m, c in t.items() if mono_ok(m) and coeff_ok(c)}


def terms_mul(t1: Terms, t2: Terms, keep: Keep) -> Terms:
    mono_ok, coeff_ok = keep
    return {m: c for m, c in sparse.mul(t1, t2, m_mul, mono_ok).items() if coeff_ok(c)}


def _phi_var(family: int, i: int, a: int, p: int, jmax: int) -> Terms:
    """Image of (v_i)**a under phi: sum_j C(a, j) p^j v_i^(p(a-j)) v_{i+1}^j.

    For a >= 0 the sum is finite; for a < 0 (base variable only) it is the
    p-adically convergent tail, cut at j = jmax since the j-th term carries
    a factor p**j.
    """
    out: Terms = {}
    top = a if a >= 0 else jmax
    for j in range(top + 1):
        c = Fraction(binomial(a, j) * p**j)
        if c == 0:
            continue
        exps = [0] * (i + 2)
        exps[i] = p * (a - j)
        exps[i + 1] = j
        m = (_trim(tuple(exps)), ()) if family == 0 else ((), _trim(tuple(exps)))
        out[m] = c
    return out


def terms_phi(t: Terms, p: int, keep: Keep, jmax: int) -> Terms:
    """Apply the Frobenius-lift substitution.

    A negative base power expands through a tail cut at ``jmax`` terms.
    """
    out: Terms = {}
    for (zexps, vexps), c in t.items():
        acc: Terms = {M_ONE: c}
        for fam, exps in ((0, zexps), (1, vexps)):
            for i, a in enumerate(exps):
                if a == 0:
                    continue
                if a < 0 and (fam == 1 or i != 0):
                    raise DomainError("negative exponents only on the base variable")
                acc = terms_mul(acc, _phi_var(fam, i, a, p, jmax), keep)
        out = sparse.add(out, acc)
    return _kept(out, keep)


def terms_delta(t: Terms, p: int, keep: Keep, jmax: int) -> Terms:
    ph = terms_phi(t, p, keep, jmax)
    fp = sparse.power(t, p, {M_ONE: Fraction(1)}, lambda a, b: terms_mul(a, b, keep))
    num = sparse.add(ph, sparse.scale(fp, Fraction(-1)))
    return {m: c / p for m, c in _kept(num, keep).items()}


# ---------------------------------------------------------------------------
# Public jet series
# ---------------------------------------------------------------------------


def _weight(m: Monomial, p: int) -> int:
    return sum(e * p**i for i, e in enumerate(m[0]))


@dataclass(frozen=True)
class JetSeries:
    """Truncated element of a single-prime jet ring.

    ``terms`` maps (base exponent, jet exponents) to exact rational
    coefficients.  See the module docstring for the truncation contract.
    """

    p: int
    base: str  # "q" or "t"
    terms: tuple[tuple[tuple[int, tuple[int, ...]], Fraction], ...]
    M: int = 8
    digits: int | None = None  # q side: valid mod p**digits; None = exact
    base_order: int | None = None  # q side: base exponents >= this are unknown
    N: int | None = None  # t side: weighted degree bound (exclusive)

    @staticmethod
    def make(
        p: int,
        base: str,
        terms: Mapping[tuple[int, tuple[int, ...]], Fraction | int],
        M: int = 8,
        digits: int | None = None,
        base_order: int | None = None,
        N: int | None = None,
    ) -> "JetSeries":
        if base not in ("q", "t"):
            raise DomainError(f"unknown base tag {base!r}")
        clean = {}
        for (b, jets), c in terms.items():
            jets = _trim(tuple(jets))
            if any(e < 0 for e in jets):
                raise DomainError("jet exponents must be nonnegative")
            if base == "t" and b < 0:
                raise DomainError("negative base exponents need the q side")
            c = Fraction(c)
            if c == 0:
                continue
            if N is not None and b + sum(e * p**i for i, e in enumerate(jets, start=1)) >= N:
                continue
            if base_order is not None and b >= base_order:
                continue
            if digits is not None and _vp(c, p) >= digits:
                continue
            clean[(b, jets)] = c
        return JetSeries(
            p, base, tuple(sorted(clean.items())), M, digits, base_order, N
        )

    # -- representation plumbing --------------------------------------------

    def _to_terms(self) -> Terms:
        return {(_trim((b, *jets)), ()): c for (b, jets), c in self.terms}

    @staticmethod
    def _from_terms(t: Terms) -> dict[tuple[int, tuple[int, ...]], Fraction]:
        out = {}
        for (zexps, vexps), c in t.items():
            if vexps != ():
                raise DomainError("auxiliary variables cannot appear in a public series")
            b = zexps[0] if zexps else 0
            out[(b, _trim(zexps[1:]))] = c
        return out

    def r(self) -> int:
        """Jet order: highest jet index that occurs."""
        return max((len(jets) for (_, jets), _ in self.terms), default=0)

    def eff_digits(self) -> int:
        return self.digits if self.digits is not None else self.M

    def _keep(self) -> Keep:
        p, N, digits, border = self.p, self.N, self.digits, self.base_order

        def mono_ok(m: Monomial) -> bool:
            if N is not None and _weight(m, p) >= N:
                return False
            return border is None or not m[0] or m[0][0] < border

        def coeff_ok(c: Fraction) -> bool:
            return digits is None or _vp(c, p) < digits

        return mono_ok, coeff_ok

    def base_valuation(self) -> int:
        return min((b for (b, _), _ in self.terms), default=0)

    # -- ring operations ------------------------------------------------------

    def _meta_binary(self, other: "JetSeries", mul: bool):
        if self.p != other.p or self.base != other.base:
            raise DomainError("mismatched jet rings")
        digits = min_order(self.digits, other.digits)
        N = min_order(self.N, other.N)
        if mul:
            b1 = None if self.base_order is None else self.base_order + other.base_valuation()
            b2 = None if other.base_order is None else other.base_order + self.base_valuation()
            border = min_order(b1, b2)
        else:
            border = min_order(self.base_order, other.base_order)
        return digits, border, N

    def __add__(self, other):
        if not isinstance(other, JetSeries):
            other = JetSeries.make(self.p, self.base, {(0, ()): Fraction(other)})
        digits, border, N = self._meta_binary(other, mul=False)
        t = sparse.add(self._to_terms(), other._to_terms())
        return JetSeries.make(
            self.p, self.base, JetSeries._from_terms(t), self.M, digits, border, N
        )

    __radd__ = __add__

    def __neg__(self):
        return JetSeries(
            self.p,
            self.base,
            tuple((m, -c) for m, c in self.terms),
            self.M,
            self.digits,
            self.base_order,
            self.N,
        )

    def __sub__(self, other):
        if not isinstance(other, JetSeries):
            other = JetSeries.make(self.p, self.base, {(0, ()): Fraction(other)})
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, JetSeries):
            c = Fraction(other)
            return JetSeries(
                self.p,
                self.base,
                tuple((m, v * c) for m, v in self.terms) if c else (),
                self.M,
                self.digits,
                self.base_order,
                self.N,
            )
        digits, border, N = self._meta_binary(other, mul=True)
        probe = JetSeries.make(self.p, self.base, {}, self.M, digits, border, N)
        t = terms_mul(self._to_terms(), other._to_terms(), probe._keep())
        return JetSeries.make(
            self.p, self.base, JetSeries._from_terms(t), self.M, digits, border, N
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return invert(self) ** (-n)
        one = JetSeries.make(
            self.p, self.base, {(0, ()): 1}, self.M, self.digits, self.base_order, self.N
        )
        return sparse.power(self, n, one, operator.mul)

    def __eq__(self, other):
        if not isinstance(other, JetSeries):
            other = JetSeries.make(self.p, self.base, {(0, ()): Fraction(other)})
        if self.p != other.p or self.base != other.base:
            return False
        digits = min_order(self.digits, other.digits)
        border = min_order(self.base_order, other.base_order)
        N = min_order(self.N, other.N)
        keys = {m for m, _ in self.terms} | {m for m, _ in other.terms}
        d1, d2 = dict(self.terms), dict(other.terms)
        for m in keys:
            b, jets = m
            if border is not None and b >= border:
                continue
            if N is not None and b + sum(e * self.p**i for i, e in enumerate(jets, 1)) >= N:
                continue
            diff = d1.get(m, Fraction(0)) - d2.get(m, Fraction(0))
            if diff == 0:
                continue
            if digits is None or _vp(diff, self.p) < digits:
                return False
        return True

    def __hash__(self):
        return hash((self.p, self.base, self.terms))

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "var": self.base,
            "p": self.p,
            "M": self.M,
            "digits": self.digits,
            "base_order": self.base_order,
            "N": self.N,
            "terms": [
                [b, format_rational(c), list(jets)] for (b, jets), c in self.terms
            ],
        }

    @staticmethod
    def from_json(obj: Mapping) -> "JetSeries":
        terms = {
            (int(b), tuple(int(e) for e in jets)): parse_rational(c)
            for b, c, jets in obj["terms"]
        }
        return JetSeries.make(
            int(obj["p"]),
            obj["var"],
            terms,
            int(obj.get("M", 8)),
            obj.get("digits"),
            obj.get("base_order"),
            obj.get("N"),
        )


# ---------------------------------------------------------------------------
# phi, delta, weights
# ---------------------------------------------------------------------------


def _below(keep: Keep, cut: int | None) -> Keep:
    """``keep`` that also drops every monomial of base exponent >= ``cut``."""
    if cut is None:
        return keep
    mono_ok, coeff_ok = keep

    def below(m: Monomial) -> bool:
        return (m[0][0] if m[0] else 0) < cut and mono_ok(m)

    return below, coeff_ok


def phi(f: JetSeries) -> JetSeries:
    """Frobenius lift: every variable v maps to v**p + p * (next jet)."""
    p = f.p
    if f.base == "t":
        N = None if f.N is None else p * f.N
        probe = JetSeries.make(p, "t", {}, f.M, None, None, N)
        t = terms_phi(f._to_terms(), p, probe._keep(), 0)
        return JetSeries.make(p, "t", JetSeries._from_terms(t), f.M, None, None, N)
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
    probe = JetSeries.make(p, "q", {}, f.M, f.digits, None, None)
    t = terms_phi(f._to_terms(), p, _below(probe._keep(), border), geff)
    return JetSeries.make(p, "q", JetSeries._from_terms(t), f.M, digits, border, None)


def delta(f: JetSeries) -> JetSeries:
    """p-derivation: (phi(f) - f**p) / p.

    Exact in the rational regime with nonnegative base exponents; in the
    p-adic regime one guaranteed digit is consumed.
    """
    p = f.p
    if f.base == "t":
        probe = JetSeries.make(p, "t", {}, f.M, None, None, f.N)
        t = terms_delta(f._to_terms(), p, probe._keep(), 0)
        return JetSeries.make(p, "t", JetSeries._from_terms(t), f.M, None, None, f.N)
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
        border = min_order(
            p * (f.base_order - digits + 1), f.base_order + (p - 1) * v
        )
        # A partial product of f**p takes at most p-1 further factors, each
        # lowering the base exponent by at most |v|, and phi's base exponents
        # are final; so a monomial at or above ``cut`` only feeds the terms
        # at or above ``border`` that the output drops anyway.
        cut = border - (p - 1) * v
    probe = JetSeries.make(p, "q", {}, f.M, f.digits, None, None)
    t = terms_delta(f._to_terms(), p, _below(probe._keep(), cut), geff)
    return JetSeries.make(p, "q", JetSeries._from_terms(t), f.M, digits, border, None)


def delta_n(f: JetSeries, n: int) -> JetSeries:
    if n < 0:
        raise DomainError("n must be nonnegative")
    for _ in range(n):
        f = delta(f)
    return f


def invert(u: JetSeries, order: int | None = None) -> JetSeries:
    """Inverse of a unit jet series by geometric expansion.

    The unit part 1 + x is inverted as sum (-x)^k; the loop must terminate
    under the series' truncation contract (p-adic digits, weighted degree,
    or an explicit base-exponent ``order``).
    """
    lead = None
    for (b, jets), c in u.terms:
        if jets == ():
            if lead is None or b < lead[0]:
                lead = (b, c)
    if lead is None:
        raise NotInvertible("no pure base term to lead with")
    v0, c0 = lead
    if _vp(c0, u.p) != 0:
        raise NotInvertible("leading coefficient is not a p-adic unit")
    border = min_order(u.base_order, None if order is None else order + v0)
    lead_mono = JetSeries.make(u.p, u.base, {(-v0, ()): 1 / c0}, u.M, u.digits, None, u.N)
    x = u * lead_mono - 1
    x = JetSeries.make(
        u.p,
        u.base,
        dict(x.terms),
        u.M,
        min_order(x.digits, u.eff_digits() if u.base == "q" else None),
        None if border is None else border - v0,
        x.N,
    )
    if not x.terms:
        return lead_mono

    def clamp(s: JetSeries) -> JetSeries:
        return JetSeries.make(u.p, u.base, dict(s.terms), u.M, x.digits, x.base_order, x.N)

    acc = JetSeries.make(u.p, u.base, {(0, ()): 1}, u.M, x.digits, x.base_order, x.N)
    power = acc
    for _ in range(_invert_steps(x)):
        power = clamp(power * (-x))
        if not power.terms:
            break
        acc = acc + power
    if power.terms:
        raise DomainError("inverse does not terminate under the truncation contract")
    return clamp(acc) * lead_mono


def _invert_steps(x: JetSeries) -> int:
    if not x.terms:
        return 0
    bound = 4 * (x.eff_digits() + (x.N or 0) + abs(x.base_order or 0) + 8)
    return bound


def weight_action(u: JetSeries, w: Weight, order: int | None = None) -> JetSeries:
    """u**w = prod_i phi^i(u)**a_i for w = sum a_i phi^i."""
    out = JetSeries.make(u.p, u.base, {(0, ()): 1}, u.M, u.digits, u.base_order, u.N)
    for i, a in w.items():
        if not isinstance(i, int):
            raise DomainError("single-prime weights use integer Frobenius powers")
        g = u
        for _ in range(i):
            g = phi(g)
        if a >= 0:
            out = out * g**a
        else:
            out = out * invert(g, order) ** (-a)
    return out


# ---------------------------------------------------------------------------
# The two Psi builders
# ---------------------------------------------------------------------------


def psi_fourier(p: int, M: int, window: int) -> JetSeries:
    """sum_{n>=1} (-1)^(n-1) n^(-1) p^(n-1) (q'/q^p)^n up to jet degree ``window``.

    Every coefficient is p-integral: v_p(p^(n-1)/n) = n - 1 - v_p(n) >= 0.
    The omitted tail is p-adically small, which the digit bound records.
    """
    if p < 5:
        raise DomainError("the modular layer requires p >= 5")
    terms = {}
    for n in range(1, window + 1):
        terms[(-p * n, (n,))] = Fraction((-1) ** (n - 1) * p ** (n - 1), n)
    tail_digits = min(
        n - 1 - valuation(Fraction(n), p) for n in range(window + 1, 2 * window + 3)
    )
    return JetSeries.make(p, "q", terms, M, digits=min(tail_digits, M))


def _log1p_terms(x: Terms, p: int, keep: Keep, max_n: int) -> Terms:
    out: Terms = {}
    power: Terms = {M_ONE: Fraction(1)}
    for n in range(1, max_n + 1):
        power = terms_mul(power, x, keep)
        if not power:
            break
        out = sparse.add(out, sparse.scale(power, Fraction((-1) ** (n - 1), n)))
    return out


def psi_serretate(p: int, N: int) -> JetSeries:
    """(1/p) (phi - p) log(1 + t) as an exact t-side jet series.

    Computed as (1/p)(log(1 + t^p + p t') - p log(1 + t)) to weighted degree
    N; all coefficient denominators stay coprime to p, which is asserted.
    """
    if p < 5:
        raise DomainError("the modular layer requires p >= 5")
    probe = JetSeries.make(p, "t", {}, N=N)
    keep = probe._keep()
    phit: Terms = {((p,), ()): Fraction(1), ((0, 1), ()): Fraction(p)}
    tt: Terms = {((1,), ()): Fraction(1)}
    num = sparse.add(
        _log1p_terms(phit, p, keep, N),
        sparse.scale(_log1p_terms(tt, p, keep, N + 1), Fraction(-p)),
    )
    out = {m: c / p for m, c in _kept(num, keep).items()}
    series = JetSeries.make(p, "t", JetSeries._from_terms(out), N=N)
    assert_p_integral(series, p)
    return series


def assert_p_integral(f: JetSeries, p: int) -> None:
    from .errors import IntegralityViolation

    for (b, jets), c in f.terms:
        if c.denominator % p == 0:
            raise IntegralityViolation(
                f"coefficient {c} of base^{b} jets {jets} has denominator divisible by {p}"
            )


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


def _jet_index(m: Monomial) -> int:
    z = m[0]
    idx = 0
    for i in range(1, len(z)):
        if z[i]:
            idx = i
    return idx


def _lemma_delta_n(t: Terms, p: int, n: int, M: int) -> Terms:
    probe_digits = M
    for _ in range(n):
        keep = (lambda m: True, lambda c, g=probe_digits: _vp(c, p) < g)
        t = terms_delta(t, p, keep, probe_digits)
        probe_digits -= 1
    return t


def lemma_xlaphi_check(p: int, n: int, varphi: Fraction | int | str = 0, M: int | None = None) -> LemmaReport:
    """Check delta^n(phi(z)/z - c) against its two leading jet terms.

    The residual after removing z^(-p^n) (z^(n))^p - z^(p^(n+1) - 2 p^n) z^(n)
    must consist of low-jet terms (index <= n-1) plus p times anything of jet
    index <= n+1.  ``varphi`` may be a rational constant or the string
    "symbolic", which adjoins an auxiliary coefficient with its own
    delta-chain, giving the universal case.
    """
    if M is None:
        M = n + 3
    symbolic = varphi == "symbolic"
    f: Terms = {((p - 1,), ()): Fraction(1), ((-1, 1), ()): Fraction(p)}
    if symbolic:
        f[((), (1,))] = Fraction(-1)
    else:
        c = Fraction(varphi)
        if c:
            f[M_ONE] = -c
    res = _lemma_delta_n(f, p, n, M)
    lead1 = ((_trim((-(p**n),) + (0,) * (n - 1) + (p,)), ()), Fraction(1))
    lead2 = ((_trim((p ** (n + 1) - 2 * p**n,) + (0,) * (n - 1) + (1,)), ()), Fraction(-1))
    res = sparse.add(res, {lead1[0]: -lead1[1]}, {lead2[0]: -lead2[1]})
    return _classify_residual("xlaphi", p, n, res, low_jet=n - 1, max_jet=n + 1)


def lemma_logder_check(p: int, n: int, a: int, M: int | None = None) -> LemmaReport:
    """Check delta^n((1 + p^n a) z) = z^(n) + a z^(p^n) + p * O(n)."""
    if M is None:
        M = n + 3
    lam = Fraction(1 + p**n * a)
    f: Terms = {((1,), ()): lam}
    res = _lemma_delta_n(f, p, n, M)
    res = sparse.add(
        res,
        {(_trim((0,) * n + (1,)), ()): Fraction(-1)},
        {((p**n,), ()): Fraction(-a)},
    )
    return _classify_residual("logder", p, n, res, low_jet=-1, max_jet=n)


def _classify_residual(name, p, n, res: Terms, low_jet: int, max_jet: int) -> LemmaReport:
    offending = None
    for m, c in sorted(res.items()):
        idx = _jet_index(m)
        if idx <= low_jet:
            continue
        if idx > max_jet or _vp(c, p) < 1:
            offending = (m[0], m[1], format_rational(c))
            break
    return LemmaReport(name, p, n, offending is None, len(res), offending)
