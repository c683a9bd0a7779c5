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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from . import sparse
from .arith import PadicTrunc, at_least, check_prime, valuation
from .deltajet import JetSeries, Layout as JetLayout, _cut, _mod, delta_n, phi, terms_mul
from .errors import DomainError, IntegralityViolation
from .modular import QExpansion
from .multiprime import (
    Mono,
    MultiJetSeries,
    _corners,
    _gamma_in_ghost,
    _modular_primes,
    delta_pk,
    ghost_shift,
    ghost_to_jet,
    layout,
    poly_mul,
    t_generator,
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
    emb = JetSeries.make(p, {(e, ()): Fraction(c) for e, c in f.series.terms}, M=M, base_order=f.trunc())
    return delta_n(emb, n)


# ---------------------------------------------------------------------------
# The order-2 expansion of a newform (Fourier side)
# ---------------------------------------------------------------------------


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
    at_least(1, M=M, window=window)
    if len(an) < window:
        raise DomainError(f"need a_n for n <= {window}")
    # phi(q) and phi^2(q) are integral, so their powers stay integers in one
    # layout, cut to the digits below M + 3.  phi(q)**n is homogeneous of
    # weight n p and phi^2(q)**n of weight n p^2, so a power is kept whole
    # while its weight is at most window and is empty after; the sum is over
    # p * lcm(1..window)
    phi1 = phi(JetSeries.make(p, {(1, ()): 1}))
    phi2 = phi(phi1)
    L = JetLayout(p, map(phi2.L.mono, phi2.num), window)
    f1, f2 = phi1._in(L), phi2._in(L)  # both over 1
    mod, D = _mod(p, M + 3, 1), p * math.lcm(*range(1, window + 1))
    pow1 = pow2 = {0: 1}
    total: dict = {}
    for n in range(1, window + 1):
        pow1 = terms_mul(pow1, f1, None, mod) if n * p <= window else {}
        pow2 = terms_mul(pow2, f2, None, mod) if n * p * p <= window else {}
        s = an[n - 1] * (D // (n * p))
        if s:
            total = sparse.add(total, sparse.scale(pow2, s), sparse.scale(pow1, -a_p * s), {n << L.shift: s * p})
    total = _cut(total, None, _mod(p, M, D))
    if check and (bad := {m: x for m, x in total.items() if x % _mod(p, 0, D)}):
        m, c = JetSeries(p, L, sparse.canon(bad, D)).terms[0]
        raise IntegralityViolation(f"coefficient {c} at {m} is not {p}-integral")
    return JetSeries(p, L, sparse.canon(total, D), M, M)


# ---------------------------------------------------------------------------
# The order-2e expansions (deformation-parameter side)
# ---------------------------------------------------------------------------


def _one_plus_u_pow_sum(an: Sequence[int], N: int) -> tuple[list[int], int]:
    """The coefficients of sum_n (a_n/n) (1 + u)^n, n <= len(an), below degree
    N, as integer numerators over lcm(1..len(an)).

    The coefficient of u^m, sum_n (a_n/n) C(n, m), does not depend on the
    variable, so the list is formed once, by Horner's rule in (1 + u), and
    ``_corners`` places a prefix of it on each ghost variable.
    """
    n_max = len(an)
    den = math.lcm(*range(1, n_max + 1))
    acc = [0] * (min(n_max, max(N - 1, 0)) + 1)  # no top exceeds N - 1
    for n in range(n_max, 0, -1):
        acc[0] += an[n - 1] * (den // n)
        for m in range(len(acc) - 1, 0, -1):
            acc[m] += acc[m - 1]
    return acc, den


def build_f2e0(
    an: Sequence[int], P: Sequence[int], ap: Sequence[int], N: int
) -> MultiJetSeries:
    """Common-ring route: (1/prod p_k) prod_k (phi_k^2 - a_{p_k} phi_k + p_k)
    applied to sum_{n <= n_max} (a_n/n) (1+t)^n, with n_max = len(an).

    The Hecke polynomials expand over the corners of the box {0, 1, 2}^d
    (``_corners``), in integers over lcm(1..n_max) * prod p_k.
    """
    Pt = _modular_primes(P)
    if len(ap) != len(Pt):
        raise DomainError("one a_p per prime required")
    L = layout(Pt, N)
    acc, den = _one_plus_u_pow_sum(an, N)
    g = _corners(L, [(p, -a, 1) for p, a in zip(Pt, ap)], acc)
    return L.series(ghost_to_jet(g, L, den * math.prod(Pt)), 0)


def build_f2e_k(
    an: Sequence[int], P: Sequence[int], k: int, ap: Sequence[int], N: int
) -> MultiJetSeries:
    """Per-prime route: the Hecke factors away from p_k, divided by their
    primes, applied to the order-2 expansion at p_k written on the
    deformation-parameter side.  In integers, the factor at p_k expands over
    its corners (``_corners``), and each factor away from p_k maps the
    numerators g to p_l g - a_l shift(g) + shift^2(g) over the prime p_l.
    """
    Pt = _modular_primes(P)
    d = len(Pt)
    if not (0 <= k < d):
        raise DomainError("prime index out of range")
    if len(ap) != d:
        raise DomainError("one a_p per prime required")
    L = layout(Pt, N)
    acc, den = _one_plus_u_pow_sum(an, N)
    g = _corners(L, [(Pt[k], -ap[k], 1) if l == k else (1,) for l in range(d)], acc)
    for l in range(d):
        if l != k:
            s = ghost_shift(g, l, L)
            g = sparse.add(sparse.scale(g, Pt[l]), sparse.scale(s, -ap[l]), ghost_shift(s, l, L))
    return L.series(ghost_to_jet(g, L, den * math.prod(Pt)), k + 1)


# ---------------------------------------------------------------------------
# Fourier-to-deformation transcription q -> 1 + t
# ---------------------------------------------------------------------------


def fourier_to_deformation(f: JetSeries, N: int) -> MultiJetSeries:
    """Substitute q -> 1 + t and each jet q^(i) -> delta^i(1 + t).

    The jet images are recomputed in the deformation ring by iterating its
    own p-derivation, so this is an independent code path from the t-side
    builders and can serve as a cross-check between the two expansions.

    It runs in integers: each image is integral, since delta maps
    Z[t, x_1, ...] into itself, and f is stored as integer numerators over
    one denominator.  Horner's rule in the jets, outermost first, combines the
    groups of terms with equal jet exponents; a group's q-part sum_b c_b q^b
    is sum_{n < N} (sum_b c_b C(b, n)) t^n.  Every weight is >= 1, so the
    series below N form a quotient ring and each Horner step may truncate.

    Each step cuts lower still (a short product): image i has lowest weight
    v_i, so a step followed by e more products by it keeps only the weights
    below cut - e * v_i, and passes that cut to the level beneath.  With no
    image term (N <= 1) nothing is multiplied in, and v_i is taken as N.
    """
    if not isinstance(f, JetSeries):
        raise DomainError("expected a Fourier-side jet series")
    P = (f.p,)
    L = layout(P, N)
    image, images = t_generator(P, N) + 1, []
    for _ in range(f.r()):
        image = delta_pk(image, 0)
        images.append(image._packed(L))
        if images[-1].den != 1:
            raise IntegralityViolation("a jet image of 1 + t is not integral")

    def horner(rows: list, i: int, cut: int) -> dict[int, int]:
        """The rows (b, jets, numerator) with jets x_1..x_i still to substitute,
        below weight ``cut``."""
        if i == 0:
            row = [0] * cut
            for b, _, x in rows:
                for n in range(cut):
                    row[n] += x
                    x = x * (b - n) // (n + 1)
            return {n * L.var[(0,)] if n else 0: x for n, x in enumerate(row) if x}
        groups: dict[int, list] = {}
        for b, jets, x in rows:
            groups.setdefault(jets[i - 1] if len(jets) >= i else 0, []).append((b, jets, x))
        image = images[i - 1]
        v = min(image, default=L.limit) >> L.shift
        acc: dict[int, int] = {}
        for e in range(max(groups, default=0), -1, -1):
            c = cut - e * v
            if c > 0:
                acc = sparse.add(poly_mul(acc, image, c << L.shift), horner(groups.get(e, []), i - 1, c))
        return acc

    out = horner(f._rows(), len(images), N)
    return L.series(sparse.canon(out, f.num.den), 0)


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
    F: MultiJetSeries,
    gamma: Union[int, PadicTrunc],
    nu: int,
) -> CovarianceReport:
    """Compare F(t -> (1+t)^gamma - 1) with gamma^nu * F monomialwise.

    Integer gamma (not 0 or +-1, and not 0 or 1 modulo any active prime)
    keeps the whole check in exact arithmetic.  A truncated p-adic gamma,
    known to at least one digit, is handled through an integer representative,
    and the comparison runs modulo the power of p that every lift of it
    shares (see ``_compare``).
    """
    if not isinstance(F, MultiJetSeries):
        raise DomainError("expected a t-side jet series")
    if isinstance(gamma, PadicTrunc):
        if F.d() != 1 or gamma.p != F.P[0]:
            raise DomainError("p-adic gamma checks run in the matching d=1 ring")
        if gamma.digits == 0:
            raise DomainError("gamma has no guaranteed digit")
        r = gamma.residue % gamma.p**gamma.digits
        if r % gamma.p in (0, 1):
            raise DomainError("gamma must avoid 0 and 1 modulo p")
        return _compare(F, gamma, r, nu, gamma.digits)
    for p in F.P:
        if gamma % p in (0, 1):
            raise DomainError(f"gamma must avoid 0 and 1 modulo {p}")
    return _compare(F, gamma, gamma, nu, None)


def _compare(F: MultiJetSeries, gamma, g: int, nu: int, digits: int | None) -> CovarianceReport:
    """Compare F(t -> (1+t)^g - 1) with g^nu * F for the integer ``g``:
    exactly (``digits=None``), or in the d=1 ring modulo the power of p that
    every lift of g mod p**digits shares.  The witness is the first bad
    monomial in (weight, monomial) order.  The difference is
    ghost_to_jet(ghost_gamma(G) - g^nu * G), G = jet_to_ghost(F).

    A lift g + delta, v_p(delta) >= digits, moves C(g, n), n < N, by
    sum_{k>=1} C(delta, k) C(g, n - k), and v_p(C(delta, k)) >= digits - v_p(k);
    G has valuation >= -v_p(G.den), and each u_i is integral in the jet basis.
    So the difference is fixed mod p**(digits - lam - v_p(G.den)), lam the
    largest v_p(k) for 0 < k < N; with no digit left nothing is decided.
    """
    L, G, num = _gamma_in_ghost(F, g)  # G and num are both over G.den
    if digits is not None:
        p = F.P[0]
        lam = max((valuation(k, p) for k in range(1, F.N)), default=0)
        digits -= lam + valuation(G.den, p)
        if digits <= 0:
            return CovarianceReport(gamma, nu, None, None)
    A, B = (Fraction(g) ** nu).as_integer_ratio()
    diff = sparse.add(sparse.scale(num, B), sparse.scale(G, -A))
    out = ghost_to_jet(diff, L, G.den * B)
    mod = _mod(F.P[0], digits, out.den)  # v_p(x / out.den) < digits exactly when x % mod
    bad = [m for m, x in out.items() if mod is None or x % mod]
    if bad:
        least = min(m >> L.shift for m in bad)
        return CovarianceReport(gamma, nu, False, min(L.unpack(m) for m in bad if m >> L.shift == least))
    return CovarianceReport(gamma, nu, True if G else None, None)
