"""Shared independent oracles for the test suite."""

import itertools
import math
from fractions import Fraction
from unittest import mock

from pjet import forms, sparse
from pjet.arith import (
    PadicTrunc,
    binomial,
    check_prime,
    cp_coefficients,
    decode_coeff,
    encode_coeff,
    fermat_delta,
    format_rational,
    is_prime,
    min_order,
    rational_reconstruct,
    valuation,
)
from pjet.deltajet import (
    JetSeries,
    Layout,
    LemmaReport,
    TSeries,
    _cut,
    _mod,
    _trim,
    phi,
    terms_delta,
    terms_mul,
    terms_phi,
)
from pjet.errors import DomainError, IntegralityViolation, MissingPrimeValue, ReconstructionFailure
from pjet.forms import CovarianceReport
from pjet.modular import QExpansion, ap_point_count
from pjet.multiprime import (
    M_ONE,
    ContinuationResult,
    Layout as MultiLayout,
    MultiJetSeries,
    RankReport,
    _check_primes,
    _generator,
    _in_order,
    _move,
    _norm_mono,
    _phi_below,
    _stored,
    assert_ring_integral,
    build_fe0,
    delta_pk,
    exact_rank,
    ghost_delta,
    ghost_shift,
    ghost_to_jet,
    jet_to_ghost,
    layout,
    poly_mul,
    substitute_gamma,
    t_generator,
    var_weight,
)
from pjet.qseries import Series1


def mul(t1, t2, mono_mul, keep):
    """Product of two sparse elements, forming only the pairs ``keep`` admits.

    The reference kernel: any monomial product, any truncation predicate,
    every pair in insertion order.  It was ``sparse.mul`` before the library
    kernel took int monomials under ``+`` and a key limit.
    """
    out: dict = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            m = mono_mul(m1, m2)
            if not keep(m):
                continue
            c = c1 * c2
            s = out[m] + c if m in out else c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
    return out


def delta_axiomatic(f: JetSeries) -> JetSeries:
    """Second route to the p-derivation, by recursion on the axioms.

    Splits f into monomials, applies the twisted sum rule across them and
    the twisted product rule inside each monomial, with delta on the
    generators given by the jet shift, in exact tuple-route products.  Only
    nonnegative base powers are supported; this is deliberately independent
    of the substitution formula.
    """
    p = f.p

    def var(i):  # z_i: the base q for i = 0, its i-th jet after
        return {((0,) * i + (1,), ()): Fraction(1)}

    def constant(c):
        return {((), ()): Fraction(c)} if c else {}

    def delta_product(factors):
        (x, dx), rest = factors[0], factors[1:]
        if not rest:
            return dx
        y, dy = tuple_product(*(g for g, _ in rest)), delta_product(rest)
        return sparse.add(
            tuple_product(tuple_power(x, p), dy),
            tuple_product(tuple_power(y, p), dx),
            sparse.scale(tuple_product(dx, dy), p),
        )

    def delta_monomial(z, c):
        if z and z[0] < 0:
            raise DomainError("axiom recursion oracle needs nonnegative powers")
        factors = [(constant(c), constant(fermat_delta(c, p)))]
        for i, e in enumerate(z):
            factors += [(var(i), var(i + 1))] * e
        return delta_product(factors)

    def delta_sum(items):
        (m, c), rest = items[0], items[1:]
        dhead = delta_monomial(m[0], c)
        if not rest:
            return dhead
        head, tail = {m: c}, dict(rest)
        cp = (
            sparse.scale(tuple_product(tuple_power(head, i), tuple_power(tail, j)), cc)
            for (i, j), cc in cp_coefficients(p).items()
        )
        return sparse.add(dhead, delta_sum(rest), *cp)

    items = list(to_terms(f).items())
    return JetSeries.make(p, from_terms(delta_sum(items) if items else {}))


def exp_series(x: Series1, order: int | None = None) -> Series1:
    """exp(x) = sum x^n / n!, the reference for logarithm identities.

    Not p-integral, which is why the library has no exponential.
    """
    v = x.valuation()
    if v is not None and v < 1:
        raise DomainError("exp helper needs positive valuation")
    N = min_order(x.N, order)
    if N is None:
        raise DomainError("exp helper needs an order bound")
    out = Series1.monomial(x.var, 0, 1, N)
    power = Series1.monomial(x.var, 0, 1, N)
    fact = 1
    for n in range(1, (N // v + 1) if v else 1):
        power = (power * x).truncate(N)
        fact *= n
        if not power.terms:
            break
        out = out + power * Fraction(1, fact)
    return out


def invert_unit(f: MultiJetSeries) -> MultiJetSeries:
    """Inverse of a series with unit constant term, by geometric expansion.

    Terminates because the tail has positive weight and the ring is
    weight-truncated.  Below weight 0 the ring is the zero ring, where every
    element is a unit with inverse 0.
    """
    if f.N <= 0:
        return MultiJetSeries.make(f.P, {}, f.N, f.ring)
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


def phi_pk_below(f, k, N):
    """``phi_pk(f, k).truncate(N)``, lifted in the layout of the result."""
    L = layout(f.P, min(N, f.N * f.P[k]))
    return L.series(_phi_below(f._packed(L), k, L), f.ring)


def exact_rank_fraction(rows: list[list[Fraction]]) -> int:
    """Gaussian elimination over the rationals in ``Fraction`` arithmetic.

    This was ``multiprime.exact_rank`` before the elimination moved to
    integers; it stays here as the reference for that route.
    """
    rows = [row[:] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
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


def basis_shifts_jet_route(P, r, N):
    """The layout of (P, N) and the shifts phi_P^(s-e)(f^e_0), e <= s <= r,
    by s, packed in it: f^e_0 from ``build_fe0``, and each shift lifted by
    ``_phi_below`` from the one a lift before it, in the jet basis.

    This was the route of ``multiprime.basis_independence_check`` before its
    rows moved to ghost coordinates; it stays here as the reference for that
    route.
    """
    Pt = tuple(sorted(P))
    L = layout(Pt, N)
    shifts = {(1,) * len(Pt): build_fe0(Pt, N)._packed(L)}
    for s in itertools.product(*(range(1, top + 1) for top in r)):
        if ks := [k for k in range(len(Pt)) if s[k] > 1]:
            k = ks[-1]
            shifts[s] = _phi_below(shifts[s[:k] + (s[k] - 1,) + s[k + 1 :]], k, L)
    return L, shifts


def basis_rank_jet_route(P, r, N) -> RankReport:
    """The report of the jet route: a row holds a shift's integer numerators,
    the shift times its nonzero denominator, which keeps the rank."""
    L, shifts = basis_shifts_jet_route(P, r, N)
    cols = sorted({m for t in shifts.values() for m in t})
    rank = exact_rank([[t.get(m, 0) for m in cols] for t in shifts.values()])
    expected = math.prod(r)
    return RankReport(L.P, tuple(r), N, expected, rank, rank == expected)


def bernoulli_numbers_recursion(n: int) -> list[Fraction]:
    """B_0 .. B_n with B_1 = -1/2, via sum_{j<=m} C(m+1, j) B_j = 0.

    This was ``modular.bernoulli_numbers`` before B_k was computed alone by
    forward differences; it stays here as the reference for that route.
    """
    out = [Fraction(1)]
    for m in range(1, n + 1):
        s = Fraction(0)
        for j in range(m):
            s += math.comb(m + 1, j) * out[j]
        out.append(-s / (m + 1))
    return out


def discriminant_delta_series1(trunc: int) -> QExpansion:
    """Delta = q * prod (1 - q^n)^24 by ``Series1`` products and powers.

    This was ``modular.discriminant_delta`` before the eta product moved to
    integers; it stays here as the reference for that route.
    """
    prod = Series1.make("q", {0: Fraction(1)}, N=trunc)
    for n in range(1, trunc):
        factor = Series1.make("q", {0: Fraction(1), n: Fraction(-1)}, N=trunc)
        prod = (prod * factor**24).truncate(trunc)
    series = (Series1.monomial("q", 1, 1, N=trunc) * prod).truncate(trunc)
    return QExpansion(12, 1, series)


# ---------------------------------------------------------------------------
# The tuple-monomial jet kernel: the reference for deltajet's packed kernel
# ---------------------------------------------------------------------------
#
# A monomial is a pair of trimmed exponent tuples (z family with the base at
# index 0, auxiliary family), a coefficient a Fraction, and what a product
# keeps is a pair of callables: a monomial rule, applied before the
# coefficients multiply, and a coefficient rule, applied to the sums.  This
# was the library's single-prime kernel before monomials were packed.


def _trim(t):
    i = len(t)
    while i > 0 and t[i - 1] == 0:
        i -= 1
    return t[:i]


def to_terms(f):
    """A jet series as tuple-route terms: ((b, jets...) trimmed, ()) -> c."""
    return {(_trim((b, *jets)), ()): c for (b, jets), c in f.terms}


def from_terms(t):
    """Tuple-route terms as ``JetSeries.make`` takes them: (b, jets) -> c."""
    out = {}
    for (z, a), c in t.items():
        if a != ():
            raise DomainError("auxiliary variables cannot appear in a public series")
        out[(z[0] if z else 0, _trim(z[1:]))] = c
    return out


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    return _trim(tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)))


def m_mul(m1, m2):
    return (_padd(m1[0], m2[0]), _padd(m1[1], m2[1]))


def digits_keep(p, cut=None, digits=None, weight_below=None):
    """The keep pair of a phi/delta step: base exponent below ``cut``,
    weight below ``weight_below``, valuation below ``digits``."""

    def mono_ok(m):
        z = m[0]
        if weight_below is not None and sum(e * p**i for i, e in enumerate(z)) >= weight_below:
            return False
        return cut is None or (z[0] if z else 0) < cut

    def coeff_ok(c):
        return digits is None or valuation(c, p) < digits

    return mono_ok, coeff_ok


def _kept(t, keep):
    mono_ok, coeff_ok = keep
    return {m: c for m, c in t.items() if mono_ok(m) and coeff_ok(c)}


def tuple_terms_mul(t1, t2, keep):
    mono_ok, coeff_ok = keep
    return {m: c for m, c in mul(t1, t2, m_mul, mono_ok).items() if coeff_ok(c)}


def _phi_var(family, i, a, p, jmax):
    """Image of (v_i)**a under phi: sum_j C(a, j) p^j v_i^(p(a-j)) v_{i+1}^j,
    cut at j = jmax for a < 0."""
    out = {}
    top = a if a >= 0 else jmax
    for j in range(top + 1):
        exps = [0] * (i + 2)
        exps[i] = p * (a - j)
        exps[i + 1] = j
        m = (_trim(tuple(exps)), ()) if family == 0 else ((), _trim(tuple(exps)))
        out[m] = Fraction(binomial(a, j) * p**j)
    return out


def tuple_terms_phi(t, p, keep, jmax):
    """The Frobenius-lift substitution, one variable factor at a time."""
    out = {}
    for (zexps, vexps), c in t.items():
        acc = {((), ()): c}
        for fam, exps in ((0, zexps), (1, vexps)):
            for i, a in enumerate(exps):
                if a:
                    acc = tuple_terms_mul(acc, _phi_var(fam, i, a, p, jmax), keep)
        out = sparse.add(out, acc)
    return _kept(out, keep)


def tuple_terms_delta(t, p, keep, jmax):
    ph = tuple_terms_phi(t, p, keep, jmax)
    fp = sparse.power(t, p, {((), ()): Fraction(1)}, lambda a, b: tuple_terms_mul(a, b, keep))
    num = sparse.add(ph, sparse.scale(fp, Fraction(-1)))
    return {m: c / p for m, c in _kept(num, keep).items()}


KEEP_ALL = (lambda m: True, lambda c: True)  # the keep pair of an exact product


def tuple_product(*factors, keep=KEEP_ALL):
    """The product of tuple terms, one factor at a time from the one; exact
    unless ``keep`` (a ``digits_keep`` pair) cuts it."""
    out = {((), ()): Fraction(1)}
    for t in factors:
        out = tuple_terms_mul(out, t, keep)
    return out


def tuple_power(t, n, keep=KEEP_ALL):
    """t**n as n products by t, with no squaring (unlike ``sparse.power``)."""
    return tuple_product(*[t] * n, keep=keep)


# ---------------------------------------------------------------------------
# The packed phi and delta steps before each term's image was formed whole
# ---------------------------------------------------------------------------


def staged_terms_phi(t, L, limit, mod, jmax):
    """``terms_phi`` one variable at a time: a ``terms_mul`` per factor, with
    the key limit and the digit rule after each, then the lifts added up and
    cut."""
    p, w = L.p, L.width

    def image(u, nxt, a):
        top = a if a >= 0 else jmax
        return {p * (a - j) * u + j * nxt: binomial(a, j) * p**j for j in range(top + 1)}

    def lift(k, x):
        acc, b = {0: x}, k >> L.shift
        if b:
            acc = terms_mul(acc, image(1 << L.shift, 1, b), limit, mod)
        for f, e in enumerate(L.exps(k)):
            if e:
                acc = terms_mul(acc, image(1 << (f * w), 1 << ((f + 1) * w), e), limit, mod)
        return acc

    return _cut(sparse.add(*(lift(k, x) for k, x in t.items())), limit, mod)


def staged_terms_delta(t, D, L, limit, digits, jmax):
    """``terms_delta`` on ``staged_terms_phi``, combined as two ``sparse.scale``
    copies and a ``sparse.add``: D**(p-1) phi(t) - t**p, zeros dropped."""
    p = L.p

    def mul(a, b):
        den = a[1] * b[1]
        return terms_mul(a[0], b[0], limit, _mod(p, digits, den)), den

    ph = staged_terms_phi(t, L, limit, _mod(p, digits, D), jmax)
    fp, den = sparse.power((t, D), p, ({0: 1}, 1), mul)
    return sparse.add(sparse.scale(ph, D ** (p - 1)), sparse.scale(fp, -1)), den * p


# ---------------------------------------------------------------------------
# The single-prime steps on Fraction terms: the lemma chain and fsharp's
# power loop before they stayed packed from the first step to the output
# ---------------------------------------------------------------------------


def phi_terms(t, p, cut, digits, jmax):
    """One packed phi step on Fraction terms: drops every monomial of base
    exponent >= ``cut`` and every coefficient of valuation >= ``digits``,
    before it multiplies on."""
    L = Layout(p, t, jmax)
    t = L.pack(t)
    return L.unpack(terms_phi(t, L, L.below(cut), _mod(p, digits, t.den), jmax), t.den)


def delta_terms(t, p, cut, digits, jmax):
    """One packed delta step on Fraction terms, with the cuts of ``phi_terms``:
    ``terms_delta`` leaves its output to the caller's cut, made here."""
    L = Layout(p, t, jmax)
    t = L.pack(t)
    num, den = terms_delta(t, t.den, L, L.below(cut), digits, jmax)
    return L.unpack(_cut(num, L.below(cut), _mod(p, digits, den // p)), den)


def _jet_index(m):
    """The highest jet index with a nonzero exponent in the monomial ``m``."""
    z = m[0]
    idx = 0
    for i in range(1, len(z)):
        if z[i]:
            idx = i
    return idx


def lemma_delta_n_fraction(t, p, n, M):
    """delta^n of ``t`` one ``delta_terms`` step at a time, through Fractions."""
    for digits in range(M, M - n, -1):
        t = delta_terms(t, p, None, digits, digits)
    return t


def classify_residual_fraction(name, p, n, res, low_jet, max_jet):
    """The lemma report on Fraction residual terms, walked in sorted order."""
    offending = None
    for m, c in sorted(res.items()):
        idx = _jet_index(m)
        if idx <= low_jet:
            continue
        if idx > max_jet or (c != 0 and valuation(c, p) < 1):
            offending = (m[0], m[1], format_rational(c))
            break
    return LemmaReport(name, p, n, offending is None, len(res), offending)


def lemma_xlaphi_check_fraction(p, n, varphi=0):
    """``deltajet.lemma_xlaphi_check`` with its chain and residual on Fractions."""
    check_prime(p)
    if n < 1:
        raise DomainError("the xlaphi lemma needs n >= 1")
    f = {((p - 1,), ()): Fraction(1), ((-1, 1), ()): Fraction(p)}
    if varphi == "symbolic":
        f[((), (1,))] = Fraction(-1)
    elif Fraction(varphi):
        f[((), ())] = -Fraction(varphi)
    res = lemma_delta_n_fraction(f, p, n, n + 3)
    lead1 = _trim((-(p**n),) + (0,) * (n - 1) + (p,))
    lead2 = _trim((p ** (n + 1) - 2 * p**n,) + (0,) * (n - 1) + (1,))
    res = sparse.add(res, {(lead1, ()): Fraction(-1)}, {(lead2, ()): Fraction(1)})
    return classify_residual_fraction("xlaphi", p, n, res, low_jet=n - 1, max_jet=n + 1)


def lemma_logder_check_fraction(p, n, a):
    """``deltajet.lemma_logder_check`` with its chain and residual on Fractions."""
    check_prime(p)
    res = lemma_delta_n_fraction({((1,), ()): Fraction(1 + p**n * a)}, p, n, n + 3)
    res = sparse.add(
        res,
        {(_trim((0,) * n + (1,)), ()): Fraction(-1)},
        {((p**n,), ()): Fraction(-a)},
    )
    return classify_residual_fraction("logder", p, n, res, low_jet=-1, max_jet=n)


def fsharp_expansion_fraction(an, a_p, p, M, window, check=True):
    """``forms.fsharp_expansion`` by tuple-route products and Fraction sums:
    the powers of phi(q) and phi(phi(q)) keep weight below ``window + 1`` and
    valuation below ``M + 3``."""
    check_prime(p)
    if p < 5:
        raise DomainError("the modular layer requires p >= 5")
    if len(an) < window:
        raise DomainError(f"need a_n for n <= {window}")
    keep = digits_keep(p, digits=M + 3, weight_below=window + 1)
    phi1 = tuple_terms_phi({((1,), ()): Fraction(1)}, p, digits_keep(p), 0)
    phi2 = tuple_terms_phi(phi1, p, digits_keep(p), 0)
    pow1 = pow2 = {((), ()): Fraction(1)}
    total = {}
    for n in range(1, window + 1):
        pow1, pow2 = tuple_terms_mul(pow1, phi1, keep), tuple_terms_mul(pow2, phi2, keep)
        scal = Fraction(an[n - 1], n * p)
        if scal == 0:
            continue
        total = sparse.add(
            total,
            sparse.scale(pow2, scal),
            sparse.scale(pow1, scal * -a_p),
            {((n,), ()): scal * p},
        )
    out = JetSeries.make(p, from_terms(total), M=M, digits=M)
    if check:
        bad = [(m, c) for m, c in out.terms if valuation(c, p) < 0]
        if bad:
            (bm, bc) = bad[0]
            raise IntegralityViolation(f"coefficient {bc} at {bm} is not {p}-integral")
    return out


# ---------------------------------------------------------------------------
# The q side before ``make``, ``==`` and fsharp took the step's digit rule on
# packed numerators: a Fraction valuation per coefficient, and fsharp's
# weight filter per product term
# ---------------------------------------------------------------------------


def _vp(c, p):
    return math.inf if c == 0 else valuation(c, p)


def make_fraction(p, terms, M=8, digits=None, base_order=None):
    """``JetSeries.make`` as a loop over Fraction coefficients, each cut by
    its own valuation.  Of two keys that trim to one monomial, a later one
    that is zero or cut is skipped and the earlier stays."""
    clean = {}
    for (b, jets), c in terms.items():
        c = c if isinstance(c, Fraction) else Fraction(c)
        if c == 0:
            continue
        if base_order is not None and b >= base_order:
            continue
        if digits is not None and _vp(c, p) >= digits:
            continue
        clean[(_trim((b, *_trim(tuple(jets)))), ())] = c
    L = Layout(p, clean, M if digits is None else digits)
    return JetSeries(p, L, L.pack(clean), M, digits, base_order, 1)


def jet_eq_fraction(f, g):
    """``JetSeries.__eq__`` monomial by monomial in Fractions: a difference
    counts below the smaller base_order and modulo the smaller digits."""
    if f.p != g.p:
        return False
    digits = min_order(f.digits, g.digits)
    border = min_order(f.base_order, g.base_order)
    d1, d2 = dict(f.terms), dict(g.terms)
    for m in d1.keys() | d2.keys():
        if border is not None and m[0] >= border:
            continue
        diff = d1.get(m, Fraction(0)) - d2.get(m, Fraction(0))
        if diff and (digits is None or _vp(diff, f.p) < digits):
            return False
    return True


def fsharp_expansion_weight_filter(an, a_p, p, M, window, check=True):
    """``forms.fsharp_expansion`` with its powers of phi(q) and phi^2(q) cut
    per product term: pairs below base exponent window + 1, then the digits
    below M + 3, then every term of weight above ``window`` dropped."""
    check_prime(p)
    if p < 5:
        raise DomainError("the modular layer requires p >= 5")
    if len(an) < window:
        raise DomainError(f"need a_n for n <= {window}")
    phi1 = phi(JetSeries.make(p, {(1, ()): 1}))
    phi2 = phi(phi1)
    L = Layout(p, map(phi2.L.mono, phi2.num), window)
    f1, f2 = phi1._in(L), phi2._in(L)
    limit, mod, D = L.below(window + 1), _mod(p, M + 3, 1), p * math.lcm(*range(1, window + 1))

    def weight(k):  # wt(q) = 1, wt(q^(i)) = p**i
        return (k >> L.shift) + sum(e * p**f for f, e in enumerate(L.exps(k), 1))

    def times(t, f):
        out = terms_mul(t, f, limit, mod) if t else {}
        return {m: x for m, x in out.items() if weight(m) <= window}

    pow1 = pow2 = {0: 1}
    total = {}
    for n in range(1, window + 1):
        pow1, pow2 = times(pow1, f1), times(pow2, f2)
        s = an[n - 1] * (D // (n * p))
        if s:
            total = sparse.add(total, sparse.scale(pow2, s), sparse.scale(pow1, -a_p * s), {n << L.shift: s * p})
    total = _cut(total, None, _mod(p, M, D))
    if check and (bad := {m: x for m, x in total.items() if x % p ** valuation(D, p)}):
        m, c = JetSeries(p, L, sparse.canon(bad, D)).terms[0]
        raise IntegralityViolation(f"coefficient {c} at {m} is not {p}-integral")
    return JetSeries(p, L, sparse.canon(total, D), M, M)


# ---------------------------------------------------------------------------
# The ghost-side builders in Fraction arithmetic: the references for the
# integer builders of ``multiprime`` and ``forms``
# ---------------------------------------------------------------------------
#
# Each of these was the library's route before the ghost side moved to
# integer numerators over one denominator; they stay here as references.


def ghost_log1p_var(i, L):
    """log(1 + u_i) in ghost coordinates, truncated at weighted degree L.N."""
    top = (L.N - 1) // var_weight(i, L.P)
    return {n * L.var[i]: Fraction((-1) ** (n - 1), n) for n in range(1, top + 1)}


def build_fe0_fraction(P, N):
    """``multiprime.build_fe0``, one scaled Fraction logarithm per corner."""
    Pt = tuple(sorted(set(P)))
    L = layout(Pt, N)
    scale = Fraction(1, math.prod(Pt))
    g = {}
    for i in itertools.product((0, 1), repeat=len(Pt)):
        c = Fraction(1)
        for k, p in enumerate(Pt):
            if i[k] == 0:
                c *= -p
        g = sparse.add(g, sparse.scale(ghost_log1p_var(i, L), c * scale))
    out = L.series(ghost_to_jet(g, L), 0)
    assert_ring_integral(out)
    return out


def one_plus_u_pow_sum_comb(an, scalars, L, n_max):
    """``forms._one_plus_u_pow_sum`` with Fraction scalars, the coefficient of
    u^m summed with ``math.comb`` once per top degree."""
    den = math.lcm(*range(1, n_max + 1))
    hecke = {}
    out = {}
    for j, cj in scalars.items():
        top = (L.N - 1) // var_weight(j, L.P)
        if top not in hecke:
            acc = [0] * (min(n_max, top) + 1)
            for n in range(1, n_max + 1):
                s = an[n - 1] * (den // n)
                for m in range(min(n, top) + 1):
                    acc[m] += s * math.comb(n, m)
            hecke[top] = [Fraction(x, den) for x in acc]
        row = {m * L.var[j] if m else 0: c for m, c in enumerate(hecke[top]) if c}
        out = sparse.add(out, sparse.scale(row, cj))
    return out


def build_f2e0_fraction(an, P, ap, N):
    """``forms.build_f2e0`` with Fraction operator coefficients."""
    Pt = tuple(sorted(set(P)))
    d = len(Pt)
    L = layout(Pt, N)
    scalars = {}
    for j in itertools.product((0, 1, 2), repeat=d):
        c = Fraction(1)
        for k in range(d):
            c *= (Fraction(Pt[k]), Fraction(-ap[k]), Fraction(1))[j[k]]
        if c:
            scalars[j] = c
    g = one_plus_u_pow_sum_comb(an, scalars, L, len(an))
    g = sparse.scale(g, Fraction(1, math.prod(Pt)))
    return L.series(ghost_to_jet(g, L), 0)


def build_f2e_k_fraction(an, P, k, ap, N):
    """``forms.build_f2e_k`` with each away-factor 1 - a_l phi_l / p_l +
    phi_l^2 / p_l applied in Fractions."""
    Pt = tuple(sorted(set(P)))
    d = len(Pt)
    e_k = tuple(1 if j == k else 0 for j in range(d))
    two_e_k = tuple(2 if j == k else 0 for j in range(d))
    scalars = {two_e_k: Fraction(1, Pt[k]), e_k: Fraction(-ap[k], Pt[k]), (0,) * d: Fraction(1)}
    L = layout(Pt, N)
    g = one_plus_u_pow_sum_comb(an, scalars, L, len(an))
    for l in range(d):
        if l == k:
            continue
        g = sparse.add(
            g,
            sparse.scale(ghost_shift(g, l, L), Fraction(-ap[l], Pt[l])),
            sparse.scale(ghost_shift(ghost_shift(g, l, L), l, L), Fraction(1, Pt[l])),
        )
    return L.series(ghost_to_jet(g, L), k + 1)


def compare_series_difference(F, gamma, g, nu, digits):
    """``forms._compare`` by the series difference substitute_gamma(F, g) -
    F * g^nu, sorted in (weight, monomial) order.  For a p-adic gamma the
    comparison runs mod p^(digits - lam - max(0, -v)), lam the largest v_p(k)
    for 0 < k < N and v the least valuation of a ghost coefficient of F, here
    read from its Fraction values; with no digit left it decides nothing."""
    if digits is not None:
        p = F.P[0]
        L = layout(F.P, F.N)
        ghost = jet_to_ghost(pack_terms(L, F.terms), L)
        digits -= max((valuation(k, p) for k in range(1, F.N)), default=0)
        digits -= max([0, *(-valuation(Fraction(x, ghost.den), p) for x in ghost.values())])
        if digits <= 0:
            return CovarianceReport(gamma, nu, None, None)
    diff = substitute_gamma(F, g) - F * Fraction(g) ** nu
    for m, c in sorted(diff.terms, key=lambda mc: (mono_weight(mc[0], F.P), mc[0])):
        if c != 0 and (digits is None or valuation(Fraction(c), F.P[0]) < digits):
            return CovarianceReport(gamma, nu, False, m)
    return CovarianceReport(gamma, nu, True if F.terms else None, None)


def covariance_check_fraction(F, gamma, nu):
    """``forms.covariance_check`` with its comparison by series difference."""
    with mock.patch.object(forms, "_compare", compare_series_difference):
        return forms.covariance_check(F, gamma, nu)


# ---------------------------------------------------------------------------
# The tuple route of ``MultiJetSeries``: the reference for its packed storage
# ---------------------------------------------------------------------------
#
# Before the packed form was the stored value, a series held its terms as
# sorted ``Mono`` tuples with ``Fraction`` coefficients, and its codec read and
# wrote those.  These functions are that route, on (P, terms, N, ring).


def mono_weight(m, P):
    """The weight of a tuple monomial over the primes P."""
    return sum(e * var_weight(i, P) for i, e in m)


def pack_terms(L, terms):
    """The (monomial, coefficient) terms of weight below L.N, packed in L."""
    return {key: c for m, c in terms if (key := L.pack(m)) is not None}


def generator_terms(L, i, kind):
    """``multiprime._generator(L, i, kind)`` as {Mono: Fraction}."""
    t = _generator(L, i, kind)
    return {L.unpack(m): Fraction(x, t.den) for m, x in t.items()}


_REFERENCE_TABLES = {}


def reference_generator(P, i, kind):
    """The generator table of x_i (kind "g") or u_i ("j") by the per-weight
    route, with the layout it is keyed in.

    Before each table was built in the layout that asks for it, a table was
    built in the layout of (P, wt(x_i) + 1) and moved field by field into
    the asking one.  The ghost table of x_i is ``ghost_delta`` of the moved
    ghost table of x_(i - e_k); the jet table of u_i substitutes the moved jet
    tables of the lighter variables into the rest, one factor at a time.
    """
    if (P, i, kind) not in _REFERENCE_TABLES:
        w = var_weight(i, P)
        L = MultiLayout(P, w + 1)
        lead = L.var[i]
        if w == 1:
            out = sparse.canon({lead: 1}, 1)
        elif kind == "g":
            k = next(j for j, c in enumerate(i) if c)
            prev = _move(*reference_generator(P, i[:k] + (i[k] - 1,) + i[k + 1 :], "g"), L)
            out = sparse.canon(*ghost_delta(prev, k, L, prev.den))
        else:
            g, _ = reference_generator(P, i, "g")
            rest = {}
            for m, x in g.items():
                if m != lead:
                    acc = {0: Fraction(x, g.den)}
                    for j, e in L.unpack(m):
                        table = _move(*reference_generator(P, j, "j"), L)
                        for _ in range(e):
                            acc = poly_mul(acc, {n: Fraction(y, table.den) for n, y in table.items()}, L.limit)
                    rest = sparse.add(rest, acc)
            jet = {lead: Fraction(w), **{m: -w * c for m, c in rest.items()}}
            den = math.lcm(*(c.denominator for c in jet.values()))
            out = sparse.canon({m: c.numerator * (den // c.denominator) for m, c in jet.items()}, den)
        _REFERENCE_TABLES[P, i, kind] = out, L
    return _REFERENCE_TABLES[P, i, kind]


def reference_generator_terms(P, i, kind):
    """``reference_generator(P, i, kind)`` as {Mono: Fraction}."""
    t, L = reference_generator(P, i, kind)
    return {L.unpack(m): Fraction(x, t.den) for m, x in t.items()}


def make_tuples(P, terms, N, ring=0):
    """``MultiJetSeries.make`` on tuples: the terms below weight N, each
    monomial normalised, the later of two spellings winning, sorted; a mix of
    rational and p-adic coefficients is refused."""
    Pt = _check_primes(P)
    if not (0 <= ring <= len(Pt)):
        raise DomainError("ring tag out of range")
    clean = {}
    for m, c in terms.items():
        m = _norm_mono(m)
        if any(len(i) != len(Pt) for i, _ in m):
            raise DomainError("multi-index arity does not match P")
        if mono_weight(m, Pt) < N:
            if isinstance(c, PadicTrunc) or (c := Fraction(c)) != 0:
                clean[m] = c
            else:
                clean.pop(m, None)
    if len({isinstance(c, PadicTrunc) for c in clean.values()}) > 1:
        raise DomainError("a series holds rational or p-adic coefficients, not both")
    return Pt, tuple(sorted(clean.items())), N, ring


def payload_int(x):
    """An integer of a payload: an int or a string ``int`` reads; a float or a
    bool is refused, integral or not."""
    if type(x) in (bool, float):
        raise DomainError(f"expected an integer, got {x!r}")
    return int(x)


def from_json_tuples(obj):
    """``MultiJetSeries.from_json`` on tuples: the header's integers, then per
    term the raw monomial's integers and its normal form, a repeat moved to
    the end, and a p-adic coefficient only at the ring's own prime, then
    ``make_tuples``."""
    P = _check_primes([payload_int(p) for p in obj["P"]])
    N, ring = payload_int(obj["N"]), payload_int(obj.get("ring", 0))
    if N < 0:
        raise DomainError(f"N must be at least 0, got {N}")
    terms = {}
    for mono, c in obj["terms"]:
        m = tuple((tuple(payload_int(x) for x in i), payload_int(e)) for i, e in mono)
        _norm_mono(m)  # a negative exponent is refused at its term
        terms.pop(m, None)
        terms[m] = c = decode_coeff(c)
        if isinstance(c, PadicTrunc) and not (0 < ring <= len(P) and c.p == P[ring - 1]):
            raise DomainError(f"ring {ring} holds no {c.p}-adic coefficient")
    return make_tuples(P, terms, N, ring)


def to_json_tuples(P, terms, N, ring):
    """``MultiJetSeries.to_json`` on tuples."""
    r = [0] * len(P)
    for m, _ in terms:
        for i, _ in m:
            r = [max(a, b) for a, b in zip(r, i)]
    return {
        "P": list(P),
        "r": r,
        "N": N,
        "ring": ring,
        "terms": [[[[list(i), e] for i, e in m], encode_coeff(c)] for m, c in terms],
    }


# ---------------------------------------------------------------------------
# Point counting by the Legendre symbol: the reference for the root table
# of ``modular.ap_point_count``
# ---------------------------------------------------------------------------


def _legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def ap_point_count_legendre(E, p):
    """a_p for a good odd prime p >= 5, each column 1 + chi(disc) by Euler's
    criterion, one ``pow`` per x: the library's route before the root table."""
    count = 1
    for x in range(p):
        rhs = (x * x * x + E.a2 * x * x + E.a4 * x + E.a6) % p
        lin = (E.a1 * x + E.a3) % p
        count += 1 + _legendre(lin * lin + 4 * rhs, p)
    return p + 1 - count


# ---------------------------------------------------------------------------
# The Hecke walk by trial division: the reference for the least-prime-factor
# table of ``modular.an_multiplicative`` and ``modular.newform_coefficients``
# ---------------------------------------------------------------------------


def _least_prime_factor_trial(n):
    f = 2
    while f * f <= n:
        if n % f == 0:
            return f
        f += 1
    return n


def an_multiplicative_trial(ap_values, n_max, bad_primes=()):
    """The library's a_1..a_n before the sieve: each n factored by trial
    division, and the exponent of a prime power counted a second time."""
    bad = set(bad_primes)
    a = {1: 1}
    for n in range(2, n_max + 1):
        l = _least_prime_factor_trial(n)
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


def newform_coefficients_trial(E, n_max, bad_values):
    """The library's a_1..a_n for a curve before the sieve: the primes found
    one after another by trial division."""
    ap = dict(bad_values)
    p = 2
    while p <= n_max:
        if p not in ap:
            ap[p] = ap_point_count(E, p)
        p += 1
        while not is_prime(p):
            p += 1
    return an_multiplicative_trial(ap, n_max, bad_primes=tuple(bad_values))


# ---------------------------------------------------------------------------
# The readers of a jet series fed from its ``terms`` view: the routes before
# the packed form was the stored value of a ``JetSeries``
# ---------------------------------------------------------------------------


def _jet_images(f, N):
    """The layout of ``fourier_to_deformation`` and the packed jet images
    delta^i(1 + t), i = 1..r, each checked integral."""
    P = (f.p,)
    L = layout(P, N)
    image, images = t_generator(P, N) + 1, []
    for _ in range(f.r()):
        image = delta_pk(image, 0)
        images.append(image._packed(L))
        if images[-1].den != 1:
            raise IntegralityViolation("a jet image of 1 + t is not integral")
    return L, images


def horner_uncut(rows, images, L, N):
    """Horner's rule in the jets over the rows (b, jets, numerator), every
    product cut at N alone: ``forms.fourier_to_deformation`` before each
    step cut at the weight its remaining products can still reach."""

    def horner(rows, i):
        if i == 0:
            row = [0] * N
            for b, _, x in rows:
                for n in range(N):
                    row[n] += x
                    x = x * (b - n) // (n + 1)
            return {n * L.var[(0,)] if n else 0: x for n, x in enumerate(row) if x}
        groups = {}
        for b, jets, x in rows:
            groups.setdefault(jets[i - 1] if len(jets) >= i else 0, []).append((b, jets, x))
        acc = {}
        for e in range(max(groups, default=0), -1, -1):
            acc = sparse.add(poly_mul(acc, images[i - 1], L.limit), horner(groups.get(e, []), i - 1))
        return acc

    return horner(rows, len(images))


def fourier_to_deformation_uncut(f, N):
    """``forms.fourier_to_deformation`` with no lookahead cut."""
    if not isinstance(f, JetSeries):
        raise DomainError("expected a Fourier-side jet series")
    L, images = _jet_images(f, N)
    return L.series(sparse.canon(horner_uncut(f._rows(), images, L, N), f.num.den), 0)


def fourier_to_deformation_terms(f, N):
    """``fourier_to_deformation_uncut`` reading ``f.terms``, over the lcm of
    its denominators."""
    if not isinstance(f, JetSeries):
        raise DomainError("expected a Fourier-side jet series")
    L, images = _jet_images(f, N)
    den = math.lcm(*(c.denominator for _, c in f.terms))
    rows = [(b, jets, c.numerator * (den // c.denominator)) for (b, jets), c in f.terms]
    return L.series(sparse.canon(horner_uncut(rows, images, L, N), den), 0)


def t_series_via_make(obj):
    """``deltajet.TSeries.from_json`` through ``MultiJetSeries.make``: the
    t payload's terms as d=1 monomials, with the reader's checks."""
    p, digits, base_order, N = (obj.get(k) for k in ("p", "digits", "base_order", "N"))
    if (digits, base_order) != (None, None):
        raise DomainError("digits and base_order are q-side fields; a t-side series is exact below N")
    if N is None:
        raise DomainError("a weighted truncation bound is required")
    terms = {}
    for b, c, jets in obj["terms"]:
        if any(e < 0 for e in jets):
            raise DomainError("jet exponents must be nonnegative")
        if b < 0:
            raise DomainError("negative base exponents need the q side")
        terms[tuple(((i,), e) for i, e in enumerate((b, *jets)) if e)] = Fraction(c)
    return MultiJetSeries.make((p,), terms, N, 1)


def t_payload_terms(F):
    """``deltajet.TSeries.to_json`` on the ``terms`` view of the d=1 series
    ``F``: each monomial flattened to (b, jets), the jets trimmed, in that
    order, and each coefficient by ``format_rational``."""
    rows = []
    for m, c in F.terms:
        z = {i: e for (i,), e in m}
        rows.append((z.get(0, 0), [z.get(i, 0) for i in range(1, max(z, default=0) + 1)], c))
    terms = [[b, format_rational(c), jets] for b, jets, c in sorted(rows)]
    return {"var": "t", "p": F.P[0], "M": 8, "digits": None, "base_order": None, "N": F.N, "terms": terms}


# ---------------------------------------------------------------------------
# The payload dicts the text writers replaced: the reference for ``to_text``
# ---------------------------------------------------------------------------


def multi_payload(f: MultiJetSeries) -> dict:
    """The several-prime payload of ``f`` as a dict, built from the store:
    each pair ``[[i...], e]`` straight from the key's nonzero fields, in the
    public monomial order, each coefficient in lowest terms."""
    L, store = layout(f.P, f.N), f._store
    den, low = getattr(store, "den", None), (1 << L.shift) - 1
    fields = [(i, off) for i, off, mask in reversed(L.fields) for _ in range(mask.bit_length())]
    terms = []
    for m in _in_order(store, L):
        bits, mono, c = m & low, [], store[m]
        while bits:
            i, off = fields[bits.bit_length() - 1]
            e = bits >> off
            bits ^= e << off
            mono.append([list(i), e])
        if den is None:
            c = c.to_json()
        else:
            g = math.gcd(c, den)
            c = str(c // g) if g == den else f"{c // g}/{den // g}"
        terms.append([mono, c])
    return {"P": list(f.P), "r": list(f.order_vector()), "N": f.N, "ring": f.ring, "terms": terms}


def one_prime_payload(f) -> dict:
    """The one-prime payload of a q-side ``JetSeries`` or a ``TSeries`` as a
    dict: the terms in (base exponent, jets) order, the jets trimmed, each
    coefficient in lowest terms."""
    if isinstance(f, TSeries):
        fields, rows = layout(f.P, f.N).fields, []
        for k, x in f._store.items():
            b, *jets = _trim(tuple(k >> off & mask for _, off, mask in fields)) or (0,)
            rows.append((b, jets, x))
        head, den = ("t", f.P[0], 8, None, None, f.N), f._store.den
    else:
        rows, den = f._rows(), f.num.den
        head = ("q", f.p, f.M, f.digits, f.base_order, None)
    terms = []
    for b, jets, x in sorted(rows):
        g = math.gcd(x, den)
        terms.append([b, str(x // g) if g == den else f"{x // g}/{den // g}", jets])
    return dict(zip(("var", "p", "M", "digits", "base_order", "N"), head), terms=terms)


def continuation_payload(res) -> dict:
    """A ``ContinuationResult`` as a dict, f0 by ``multi_payload``."""
    return {
        "pass": res.ok,
        "f0": multi_payload(res.f0) if res.f0 is not None else None,
        "witness": [[list(i), e] for i, e in res.witness] if res.witness is not None else None,
        "details": list(res.details),
    }


# ---------------------------------------------------------------------------
# The hand-written corner loops that ``multiprime._corners`` replaced, and
# ``ghost_gamma`` with one power table per top degree and convolved rows
# ---------------------------------------------------------------------------


def fe0_ghost_loop(Pt, N, L):
    """The numerators of ``build_fe0``'s ghost series over lcm(1..N-1) *
    prod P: one logarithm per corner i of the unit cube, scaled by
    c_i = prod_{i_k = 0} (-p_k)."""
    den = math.lcm(*range(1, N))
    g = {}
    for i in itertools.product((0, 1), repeat=len(Pt)):
        c = math.prod(-p for p, e in zip(Pt, i) if e == 0)
        for n in range(1, (N - 1) // var_weight(i, Pt) + 1):
            g[n * L.var[i]] = (-1) ** (n - 1) * c * (den // n)
    return g


def rank_base_loop(Pt, L):
    """The base row of ``multiprime._ghost_shifts``: f^e_0 with the column
    of u_i^n scaled by n * prod P, an entry (-1)^(n-1) c_i."""
    g = {}
    for i in itertools.product((0, 1), repeat=len(Pt)):
        c_i = math.prod(-p for p, e in zip(Pt, i) if not e)
        for n in range(1, (L.N - 1) // var_weight(i, Pt) + 1):
            g[n * L.var[i]] = (-1) ** (n - 1) * c_i
    return g


def scalar_rows(scalars, acc, L):
    """sum_j c_j sum_m acc[m] u_j^m over a dict of corner scalars c_j, each
    u_j taking the prefix up to its top degree (N - 1) // wt(u_j), summed
    with ``sparse.add``: a zero sum drops its key."""
    rows = []
    for j, c in scalars.items():
        top = (L.N - 1) // var_weight(j, L.P)
        # u_j has no field only when top < 1, where no power of it is kept
        rows.append({m * L.var[j] if m else 0: c * x for m, x in enumerate(acc[: max(top + 1, 0)])})
    return sparse.add(*rows)


def corner_scalars(polys):
    """The scalar prod_k polys[k][j_k] of every corner j of the box."""
    return {j: math.prod(cs) for j, cs in (zip(*c) for c in itertools.product(*map(enumerate, polys)))}


def gamma_rows_convolved(gamma, N, count):
    """Rows 0 to count - 1 of ``multiprime.ghost_gamma``'s table, [u^n]
    ((1 + u)**gamma - 1)**e for n < N, as it built them before
    ``_gamma_row``: each row the one before times sum_{b>=1} C(gamma, b) u^b."""
    binom = [1]
    for n in range(1, N):
        binom.append(binom[-1] * (gamma - n + 1) // n)
    rows = [[1] + [0] * (N - 1)]
    while len(rows) < count:
        row = [0] * N
        for a, x in enumerate(rows[-1][:N]):
            if x:
                for b in range(1, N - a):
                    row[a + b] += x * binom[b]
        rows.append(row)
    return rows


def ghost_gamma_per_top(t, L, gamma):
    """``multiprime.ghost_gamma`` with one table of powers per top degree
    (N - 1) // wt(u_i), each row cut at that degree, and the image terms cut
    by weight as they grow."""
    N = L.N
    binom = [1]
    for n in range(1, N):
        binom.append(binom[-1] * (gamma - n + 1) // n)
    powers = {}

    def power(top, e):
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

    out = {}
    for m, c in t.items():
        images = [(0, c, 0)]
        for i, e in L.unpack(m):
            v = L.var[i]
            w = v >> L.shift
            row = power((N - 1) // w, e)
            grown = []
            for key, x, wt in images:
                for n in range(e, len(row)):
                    wn = wt + n * w
                    if wn >= N:
                        break
                    if row[n]:
                        grown.append((key + n * v, x * row[n], wn))
            images = grown
        for key, x, _ in images:
            out[key] = out.get(key, 0) + x
    return {m: x for m, x in out.items() if x}


# ---------------------------------------------------------------------------
# ``continuation_check`` with one loop per kind of family
# ---------------------------------------------------------------------------


def continuation_check_two_loops(family, height=None):
    """``multiprime.continuation_check`` as it was written before one walk
    served both kinds: an exact loop that returns family[0]'s store as f0, and
    a p-adic loop that reconstructs each key, each with its own failure."""
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

    L = layout(P, N)
    keys = sorted({m for f in family for m in f._store}, key=lambda m: (m >> L.shift, L.unpack(m)))
    if not any(padic):
        for m in keys:
            vals = [Fraction(f._store.get(m, 0), f._store.den) for f in family]
            if any(v != vals[0] for v in vals[1:]) or any(vals[0].denominator % p == 0 for p in P):
                return ContinuationResult(False, None, L.unpack(m), tuple(map(format_rational, vals)))
        return ContinuationResult(True, MultiJetSeries(P, family[0]._store, N, 0), None)

    if len(family) != len(P):
        raise DomainError("p-adic continuation needs one member per prime")
    for k, f in enumerate(family):
        if f.ring != k + 1:
            raise DomainError("p-adic family members must be ordered by prime")
    out = []
    for m in keys:
        residues = []
        for k, f in enumerate(family):
            c = f._store.get(m)  # a missing key reads as 0 known to 8 digits
            residues.append((P[k], 8, 0) if c is None else (P[k], c.digits, c.residue % P[k] ** c.digits))
        try:
            out.append((m, rational_reconstruct(residues, height=height).as_integer_ratio()))
        except ReconstructionFailure:
            return ContinuationResult(
                False,
                None,
                L.unpack(m),
                tuple(f"{r} mod {p}^{Mk}" for p, Mk, r in residues),
            )
    return ContinuationResult(True, MultiJetSeries(P, _stored(out), N, 0), None)
