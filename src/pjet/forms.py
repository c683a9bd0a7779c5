"""Special delta-series attached to modular data and the covariance checker.

The order-2 expansion attached to a weight-2 newform sum a_n q^n at a good
prime p is

    (1/p) * sum_{n>=1} (a_n / n) (phi^2(q)^n - a_p phi(q)^n + p q^n),

a series in q, q', q'' whose coefficients must all be p-integral; the pure-q
part collapses under the Hecke recursions to sum_{p not| m} (a_m/m) q^m.

On the deformation-parameter side the same Hecke operator products are
applied to the truncated logarithm sum (a_n/n) (1+t)^n, once with all prime
factors at once (the common-ring route) and once prime by prime starting
from the order-2 expansion (the per-prime route); the two routes must agree
coefficientwise.  Unlike the order-e logarithmic series, low-weight
coefficients here keep moving as the inner truncation grows, so no
integrality is promised at finite truncation; callers can inspect
denominators explicitly.

Isogeny covariance of degree nu means F(t -> (1+t)^gamma - 1) = gamma^nu F.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from . import sparse
from .arith import PadicTrunc, binomial, check_prime, valuation
from .deltajet import JetSeries, Terms, M_ONE, delta_n, terms_mul
from .errors import DomainError, IntegralityViolation
from .modular import QExpansion
from .multiprime import (
    Mono,
    MultiJetSeries,
    Poly,
    delta_pk,
    from_jet_series,
    ghost_shift,
    ghost_to_jet,
    mono_weight,
    substitute_gamma,
    t_generator,
    var_weight,
    weight_keep,
)


def delta_fourier_expand(f: QExpansion, n: int, p: int, M: int) -> JetSeries:
    """n-fold p-derivation of an embedded q-expansion.

    The input must have p-integral coefficients; the embedding carries the
    expansion's truncation order as the unknown-tail marker.
    """
    check_prime(p)
    for e, c in f.series.terms:
        if Fraction(c).denominator % p == 0:
            raise DomainError(f"coefficient at q^{e} is not p-integral")
    emb = JetSeries.make(
        p,
        "q",
        {(e, ()): Fraction(c) for e, c in f.series.terms},
        M=M,
        base_order=f.trunc(),
    )
    return delta_n(emb, n)


# ---------------------------------------------------------------------------
# The order-2 expansion of a newform (Fourier side)
# ---------------------------------------------------------------------------


def _phi_q_terms(p: int) -> Terms:
    return {((p,), ()): Fraction(1), ((0, 1), ()): Fraction(p)}


def _phi2_q_terms(p: int) -> Terms:
    # phi(q^p + p q') = (q^p + p q')^p + p (q'^p + p q'')
    base = _phi_q_terms(p)
    out: Terms = {}
    for k in range(p + 1):
        c = Fraction(math.comb(p, k) * p**k)
        out[((p * (p - k), k), ())] = c
    out = sparse.add(out, {((0, p), ()): Fraction(p), ((0, 0, 1), ()): Fraction(p * p)})
    return out


def fsharp_expansion(
    an: Sequence[int],
    a_p: int,
    p: int,
    M: int,
    window: int,
    check: bool = True,
) -> JetSeries:
    """Order-2 newform expansion, truncated at weighted degree ``window``.

    Weights are wt(q) = 1, wt(q') = p, wt(q'') = p^2, under which the n-th
    summand splits into homogeneous pieces of weights n p^2, n p and n, so
    every retained coefficient is a finite exact sum.  Coefficients are
    reported modulo p**M; with ``check`` every retained coefficient is
    verified to be p-integral.
    """
    check_prime(p)
    if p < 5:
        raise DomainError("the modular layer requires p >= 5")
    if len(an) < window:
        raise DomainError(f"need a_n for n <= {window}")
    cut = M + 3

    def in_window(m):
        return sum(e * p**i for i, e in enumerate(m[0])) <= window

    def digits_ok(c):
        return c == 0 or valuation(c, p) < cut

    keep = (in_window, digits_ok)

    phi1 = _phi_q_terms(p)
    phi2 = _phi2_q_terms(p)
    pow1: Terms = {M_ONE: Fraction(1)}
    pow2: Terms = {M_ONE: Fraction(1)}
    total: Terms = {}
    for n in range(1, window + 1):
        pow1 = terms_mul(pow1, phi1, keep)
        pow2 = terms_mul(pow2, phi2, keep)
        scal = Fraction(an[n - 1], n * p)
        if scal == 0:
            continue
        summand = sparse.add(
            pow2,
            sparse.scale(pow1, Fraction(-a_p)),
            {((n,), ()): Fraction(p)},
        )
        total = sparse.add(total, sparse.scale(summand, scal))
    total = {m: c for m, c in total.items() if in_window(m) and digits_ok(c)}
    out = JetSeries.make(p, "q", JetSeries._from_terms(total), M=M, digits=M)
    if check:
        bad = [(m, c) for m, c in out.terms if valuation(c, p) < 0]
        if bad:
            (bm, bc) = bad[0]
            raise IntegralityViolation(
                f"coefficient {bc} at {bm} is not {p}-integral"
            )
    return out


# ---------------------------------------------------------------------------
# The order-2e expansions (deformation-parameter side)
# ---------------------------------------------------------------------------


def _one_plus_u_pow_sum(
    an: Sequence[int], scalars: Mapping[Mono, Fraction], P, N: int, n_max: int
) -> Poly:
    """sum_n (a_n/n) * sum_j c_j (1 + u_j)^n in ghost coordinates.

    ``scalars`` maps the ghost variable monomial for u_j (as ((j),1)) to its
    operator coefficient c_j.  The coefficient of u_j^m, sum_n (a_n/n) C(n, m),
    does not depend on j, so it is summed once per top degree (N - 1) // wt(u_j),
    in integers over lcm(1..n_max).
    """
    L = math.lcm(*range(1, n_max + 1))
    hecke: dict[int, list[Fraction]] = {}
    out: Poly = {}
    for mono, cj in scalars.items():
        ((j, _),) = mono
        top = (N - 1) // var_weight(j, P)
        if top not in hecke:
            acc = [0] * (min(n_max, top) + 1)
            for n in range(1, n_max + 1):
                s = an[n - 1] * (L // n)
                for m in range(min(n, top) + 1):
                    acc[m] += s * math.comb(n, m)
            hecke[top] = [Fraction(x, L) for x in acc]
        row = {((j, m),) if m else (): c for m, c in enumerate(hecke[top]) if c}
        out = sparse.add(out, sparse.scale(row, cj))
    return out


def build_f2e0(
    an: Sequence[int], P: Sequence[int], ap: Sequence[int], N: int
) -> MultiJetSeries:
    """Common-ring route: (1/prod p_k) prod_k (phi_k^2 - a_{p_k} phi_k + p_k)
    applied to sum_{n <= n_max} (a_n/n) (1+t)^n, with n_max = len(an).

    The two Frobenius exponents at prime k turn into ghost-variable shifts by
    0, 1 or 2 in the k-th slot.
    """
    Pt = tuple(sorted(set(int(p) for p in P)))
    d = len(Pt)
    if len(ap) != d:
        raise DomainError("one a_p per prime required")
    scalars: dict[Mono, Fraction] = {}
    for j in itertools.product((0, 1, 2), repeat=d):
        c = Fraction(1)
        for k in range(d):
            c *= (Fraction(Pt[k]), Fraction(-ap[k]), Fraction(1))[j[k]]
        if c:
            scalars[((j, 1),)] = c
    g = _one_plus_u_pow_sum(an, scalars, Pt, N, len(an))
    g = sparse.scale(g, Fraction(1, math.prod(Pt)))
    t = ghost_to_jet(g, Pt, weight_keep(Pt, N))
    return MultiJetSeries.make(Pt, t, N, 0)


def build_f2e_k(
    an: Sequence[int], P: Sequence[int], k: int, ap: Sequence[int], N: int
) -> MultiJetSeries:
    """Per-prime route: the Hecke factors away from p_k, divided by their
    primes, applied to the order-2 expansion at p_k written on the
    deformation-parameter side."""
    Pt = tuple(sorted(set(int(p) for p in P)))
    d = len(Pt)
    if not (0 <= k < d):
        raise DomainError("prime index out of range")
    if len(ap) != d:
        raise DomainError("one a_p per prime required")
    e_k = tuple(1 if j == k else 0 for j in range(d))
    two_e_k = tuple(2 if j == k else 0 for j in range(d))
    zero = (0,) * d
    scalars = {
        ((two_e_k, 1),): Fraction(1, Pt[k]),
        ((e_k, 1),): Fraction(-ap[k], Pt[k]),
        ((zero, 1),): Fraction(1),
    }
    g = _one_plus_u_pow_sum(an, scalars, Pt, N, len(an))
    keep = weight_keep(Pt, N)
    for l in range(d):
        if l == k:
            continue
        # 1 - a_l phi_l / p_l + phi_l^2 / p_l
        g = sparse.add(
            g,
            sparse.scale(ghost_shift(g, l), Fraction(-ap[l], Pt[l])),
            sparse.scale(ghost_shift(ghost_shift(g, l), l), Fraction(1, Pt[l])),
        )
        g = {m: c for m, c in g.items() if keep(m)}
    t = ghost_to_jet(g, Pt, keep)
    return MultiJetSeries.make(Pt, t, N, ring=k + 1)


def denominator_witnesses(f: MultiJetSeries, primes: Sequence[int]):
    """Monomials whose coefficient denominator meets one of ``primes``."""
    out = []
    for m, c in f.terms:
        if isinstance(c, PadicTrunc):
            continue
        if any(c.denominator % p == 0 for p in primes):
            out.append((m, c))
    return out


# ---------------------------------------------------------------------------
# Fourier-to-deformation transcription q -> 1 + t
# ---------------------------------------------------------------------------


def fourier_to_deformation(f: JetSeries, N: int) -> MultiJetSeries:
    """Substitute q -> 1 + t and each jet q^(i) -> delta^i(1 + t).

    The jet images are recomputed in the deformation ring by iterating its
    own p-derivation, so this is an independent code path from the t-side
    builders and can serve as a cross-check between the two expansions.
    Every integer power of the unit 1 + t, negative ones included, is the
    binomial series sum_{n < N} C(e, n) t^n; jet powers are built up one
    factor at a time.
    """
    if f.base != "q":
        raise DomainError("expected a Fourier-side jet series")
    P = (f.p,)
    t = t_generator(P, N)
    images = [t + 1]
    for _ in range(f.r()):
        images.append(delta_pk(images[-1], 0))
    one = MultiJetSeries.make(P, {(): 1}, N)
    out = MultiJetSeries.make(P, {}, N)
    unit_pows: dict[int, MultiJetSeries] = {}
    jet_pows: list[list[MultiJetSeries]] = [[one] for _ in images]

    def power(i: int, e: int) -> MultiJetSeries:
        if i == 0:
            if e not in unit_pows:
                terms = {(((0,), n),): binomial(e, n) for n in range(N)}
                unit_pows[e] = MultiJetSeries.make(P, terms, N)
            return unit_pows[e]
        if e < 0:
            raise DomainError("negative exponents only on the base variable")
        pows = jet_pows[i]
        while len(pows) <= e:
            pows.append(pows[-1] * images[i])
        return pows[e]

    for (b, jets), c in f.terms:
        acc = one
        if b:
            acc = acc * power(0, b)
        for i, e in enumerate(jets, start=1):
            if e:
                acc = acc * power(i, e)
        out = out + acc * Fraction(c)
    return out


# ---------------------------------------------------------------------------
# Isogeny covariance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovarianceReport:
    gamma: Union[int, PadicTrunc]
    nu: int
    passed: bool | None  # None: truncation too small to decide anything
    witness: Mono | None

    def to_json(self) -> dict:
        g = self.gamma.to_json() if isinstance(self.gamma, PadicTrunc) else self.gamma
        return {
            "gamma": g,
            "nu": self.nu,
            "pass": self.passed,
            "witness": [[list(i), e] for i, e in self.witness] if self.witness else None,
        }


def covariance_check(
    F: Union[MultiJetSeries, JetSeries],
    gamma: Union[int, PadicTrunc],
    nu: int,
) -> CovarianceReport:
    """Compare F(t -> (1+t)^gamma - 1) with gamma^nu * F monomialwise.

    Integer gamma (not 0 or +-1, and not 0 or 1 modulo any active prime)
    keeps the whole check in exact arithmetic.  A truncated p-adic gamma is
    handled through an integer representative; the congruence classes of the
    binomial coefficients make the comparison valid to the representative's
    guaranteed digits, which is recorded by comparing modulo that power.
    """
    if isinstance(F, JetSeries):
        F = from_jet_series(F)
    if isinstance(gamma, PadicTrunc):
        return _covariance_padic(F, gamma, nu)
    for p in F.P:
        if gamma % p in (0, 1):
            raise DomainError(f"gamma must avoid 0 and 1 modulo {p}")
    sub = substitute_gamma(F, gamma)
    want = F * Fraction(gamma) ** nu
    return _compare(F, sub, want, gamma, nu)


def _covariance_padic(F: MultiJetSeries, gamma: PadicTrunc, nu: int) -> CovarianceReport:
    if F.d() != 1 or gamma.p != F.P[0]:
        raise DomainError("p-adic gamma checks run in the matching d=1 ring")
    r = gamma.residue % gamma.p**gamma.digits
    if r % gamma.p in (0, 1):
        raise DomainError("gamma must avoid 0 and 1 modulo p")
    sub = substitute_gamma(F, r)
    want = F * Fraction(r) ** nu
    # binomial-coefficient congruence loses v_p(k!) digits at jet power k
    loss = max(
        (valuation(Fraction(math.factorial(e)), gamma.p) for m, _ in F.terms for _, e in m),
        default=0,
    )
    good = gamma.digits - loss
    diff = sub - want
    for m, c in sorted(diff.terms, key=lambda mc: (mono_weight(mc[0], F.P), mc[0])):
        if c != 0 and valuation(Fraction(c), gamma.p) < good:
            return CovarianceReport(gamma, nu, False, m)
    if not F.terms:
        return CovarianceReport(gamma, nu, None, None)
    return CovarianceReport(gamma, nu, True, None)


def _compare(F, sub, want, gamma, nu) -> CovarianceReport:
    if not F.terms:
        return CovarianceReport(gamma, nu, None, None)
    diff = sub - want
    mismatches = sorted(
        (m for m, c in diff.terms if c != 0),
        key=lambda m: (mono_weight(m, F.P), m),
    )
    if mismatches:
        return CovarianceReport(gamma, nu, False, mismatches[0])
    return CovarianceReport(gamma, nu, True, None)
