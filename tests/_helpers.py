"""Shared independent oracles for the test suite."""

from fractions import Fraction

from pjet.arith import PadicTrunc, cp_coefficients, fermat_delta, min_order
from pjet.deltajet import JetSeries
from pjet.errors import DomainError
from pjet.multiprime import M_ONE, MultiJetSeries
from pjet.qseries import Series1


def delta_axiomatic(f: JetSeries) -> JetSeries:
    """Second route to the p-derivation, by recursion on the axioms.

    Splits f into monomials, applies the twisted sum rule across them and
    the twisted product rule inside each monomial, with delta on the
    generators given by the jet shift.  Only nonnegative base powers are
    supported; this is deliberately independent of the substitution formula.
    """
    p = f.p

    def monomial(b, jets, c=1):
        return JetSeries.make(p, "q", {(b, tuple(jets)): Fraction(c)})

    def delta_jet_var(i):
        if i == 0:
            return JetSeries.make(p, "q", {(0, (1,)): 1})
        jets = [0] * (i + 1)
        jets[i] = 1
        return JetSeries.make(p, "q", {(0, tuple(jets)): 1})

    def delta_product(factors):
        x, dx = factors[0]
        if len(factors) == 1:
            return dx
        y = factors[1][0]
        for g, _ in factors[2:]:
            y = y * g
        dy = delta_product(factors[1:])
        return x**p * dy + y**p * dx + dx * dy * p

    def delta_monomial(b, jets, c):
        if b < 0:
            raise DomainError("axiom recursion oracle needs nonnegative powers")
        factors = [
            (
                JetSeries.make(p, "q", {(0, ()): c}),
                JetSeries.make(p, "q", {(0, ()): fermat_delta(c, p)}),
            )
        ]
        for _ in range(b):
            factors.append((monomial(1, ()), delta_jet_var(0)))
        for i, e in enumerate(jets, start=1):
            jj = [0] * i
            jj[i - 1] = 1
            for _ in range(e):
                factors.append((monomial(0, tuple(jj)), delta_jet_var(i)))
        return delta_product(factors)

    monos = list(f.terms)
    if not monos:
        return JetSeries.make(p, "q", {})
    (b, jets), c = monos[0]
    head = monomial(b, jets, c)
    dhead = delta_monomial(b, jets, c)
    if len(monos) == 1:
        return dhead
    tail = JetSeries.make(p, "q", dict(monos[1:]))
    dtail = delta_axiomatic(tail)
    cp = JetSeries.make(p, "q", {})
    for (i, j), cc in cp_coefficients(p).items():
        cp = cp + head**i * tail**j * cc
    return dhead + dtail + cp


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
