"""Single-prime jet rings: phi, delta, Psi builders, lemma checks."""

import functools
import json
import math
import random
from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import from_terms, jet_eq_fraction, make_fraction, t_payload_terms, t_series_via_make, to_terms
from pjet.arith import PadicTrunc, fermat_delta
from pjet.cli import _dump as dump
from pjet.deltajet import (
    JetSeries,
    Layout,
    TSeries,
    delta,
    delta_n,
    lemma_logder_check,
    lemma_xlaphi_check,
    phi,
    psi_fourier,
    psi_serretate,
)
from pjet.errors import DomainError, PjetError, PrecisionExhausted
from pjet.multiprime import MultiJetSeries, delta_pk, from_jet_series, phi_pk
from pjet.qseries import Series1
from pjet.sparse import add, scale


def jq(p, terms, **kw):
    return JetSeries.make(p, {k: Fraction(v) for k, v in terms.items()}, **kw)


def jt(p, terms, N):
    """The t-side series of the (b, jets) -> c ``terms`` below weight N."""
    monos = {tuple(((i,), e) for i, e in enumerate((b, *jets)) if e): c for (b, jets), c in terms.items()}
    f = MultiJetSeries.make((p,), monos, N, ring=1)
    return TSeries(f.P, f._store, f.N, f.ring)


def t_terms(f):
    """A d=1 series as tuple-route terms: ((b, jets...) trimmed, ()) -> c."""
    out = {}
    for m, c in f.terms:
        z = {i: e for (i,), e in m}
        out[(tuple(z.get(i, 0) for i in range(max(z, default=-1) + 1)), ())] = c
    return out


Q = lambda p=5: jq(p, {(1, ()): 1})  # noqa: E731
T = to_terms  # a q-side series as tuple-route terms


def jq_terms(p, t):
    """The exact q-side series of tuple-route terms ``t``."""
    return JetSeries.make(p, from_terms(t))


def random_poly_jet(rng, p, order=2, nterms=3, hi=3):
    terms = {}
    for _ in range(nterms):
        b = rng.randint(0, hi)
        jets = tuple(rng.randint(0, 1) for _ in range(order))
        c = Fraction(rng.randint(-5, 5))
        if c:
            terms[(b, jets)] = terms.get((b, jets), 0) + c
    return JetSeries.make(p, terms)


class TestPhi:
    def test_generator(self):
        assert phi(Q(5)) == jq(5, {(5, ()): 1, (0, (1,)): 5})

    def test_constant_fixed(self):
        c = jq(7, {(0, ()): Fraction(2, 3)})
        assert phi(c) == c

    def test_negative_power_geometric_oracle(self):
        # (q^5 + 5q')^{-1} = q^{-5} (1 - 5 q'/q^5 + 25 q'^2/q^10 - ...) mod 5^3
        got = phi(jq(5, {(-1, ()): 1}, M=3))
        want = jq(
            5,
            {(-5, ()): 1, (-10, (1,)): -5, (-15, (2,)): 25},
            M=3,
            digits=3,
        )
        assert got.digits == 3
        assert got == want

    def test_ring_homomorphism(self):
        rng = random.Random(7)
        for _ in range(10):
            a = random_poly_jet(rng, 5)
            b = random_poly_jet(rng, 5)
            ta, tb, pa, pb = T(a), T(b), T(phi(a)), T(phi(b))
            assert phi(jq_terms(5, tuple_product(ta, tb))) == jq_terms(5, tuple_product(pa, pb))
            assert phi(jq_terms(5, add(ta, tb))) == jq_terms(5, add(pa, pb))

    @pytest.mark.parametrize("p", [5, 7])
    def test_frobenius_lift_mod_p(self, p):
        rng = random.Random(p)
        for _ in range(8):
            f = random_poly_jet(rng, p)
            diff = add(T(phi(f)), scale(tuple_power(T(f), p), -1))
            assert all(c.numerator % p == 0 for c in diff.values())


class TestDelta:
    def test_generator_to_first_jet(self):
        assert delta(Q(5)) == jq(5, {(0, (1,)): 1})

    def test_constant_reduces_to_fermat(self):
        got = delta(jq(3, {(0, ()): 2}))
        assert got == jq(3, {(0, ()): fermat_delta(2, 3)})

    def test_lambda_q_logder_instance(self):
        # delta(6q) = 6q' - 1554 q^5; congruent to q' + q^5 mod 5
        got = delta(jq(5, {(1, ()): 6}))
        assert got == jq(5, {(0, (1,)): 6, (5, ()): -1554})
        rep = lemma_logder_check(5, 1, 1)
        assert rep.passed

    def test_delta_n(self):
        assert delta_n(Q(5), 2) == jq(5, {(0, (0, 2)): 0, (0, (0, 1)): 1})
        one = jq(5, {(0, ()): 1})
        assert delta_n(one, 3) == jq(5, {})
        got = delta_n(jq(3, {(0, ()): 2}), 2)
        assert got == jq(3, {(0, ()): 2})

    def test_exactness_preserved_on_polynomials(self):
        f = jq(5, {(0, ()): 1, (1, ()): 1})
        assert delta(f).digits is None

    def test_precision_exhaustion(self):
        f = jq(5, {(-1, ()): 1}, M=2)
        with pytest.raises(PrecisionExhausted):
            delta(delta(f))

    def test_sum_axiom_exact(self):
        rng = random.Random(11)
        for p in (5, 7):
            for _ in range(6):
                a = random_poly_jet(rng, p)
                b = random_poly_jet(rng, p)
                cp = (
                    scale(tuple_product(tuple_power(T(a), k), tuple_power(T(b), p - k)), Fraction(-comb(p, k), p))
                    for k in range(1, p)
                )
                assert delta(jq_terms(p, add(T(a), T(b)))) == jq_terms(p, add(T(delta(a)), T(delta(b)), *cp))

    def test_product_axiom_exact(self):
        rng = random.Random(13)
        for p in (5, 7):
            for _ in range(6):
                a = random_poly_jet(rng, p)
                b = random_poly_jet(rng, p)
                da, db = T(delta(a)), T(delta(b))
                want = add(
                    tuple_product(tuple_power(T(a), p), db),
                    tuple_product(tuple_power(T(b), p), da),
                    scale(tuple_product(da, db), p),
                )
                assert delta(jq_terms(p, tuple_product(T(a), T(b)))) == jq_terms(p, want)

    def test_delta_phi_commute(self):
        rng = random.Random(17)
        for _ in range(6):
            f = random_poly_jet(rng, 5)
            assert delta(phi(f)) == phi(delta(f))


from _helpers import (  # noqa: E402
    _trim,
    delta_axiomatic,
    delta_terms,
    digits_keep,
    exp_series,
    lemma_delta_n_fraction,
    lemma_logder_check_fraction,
    lemma_xlaphi_check_fraction,
    phi_terms,
    staged_terms_delta,
    staged_terms_phi,
    tuple_power,
    tuple_product,
    tuple_terms_delta,
    tuple_terms_phi,
)
from pjet.deltajet import _cut, _mod, terms_delta, terms_phi  # noqa: E402


class TestDualPathDelta:
    @pytest.mark.parametrize("p", [3, 5])
    def test_axiom_recursion_agrees_with_substitution(self, p):
        rng = random.Random(23)
        for _ in range(5):
            f = random_poly_jet(rng, p, order=1, nterms=3, hi=2)
            assert delta_axiomatic(f) == delta(f)


def _phi_unpruned(f: JetSeries) -> JetSeries:
    """q-side phi on the tuple reference kernel, which forms every monomial
    and lets ``make`` cut the border."""
    p = f.p
    t = tuple_terms_phi(to_terms(f), p, digits_keep(p, digits=f.digits), f.eff_digits())
    digits = f.digits if f.base_valuation() >= 0 else f.eff_digits()
    border = None
    if f.base_order is not None:
        digits = min(digits, f.M) if digits is not None else f.M
        border = p * (f.base_order - digits + 1)
    return JetSeries.make(p, from_terms(t), f.M, digits, border)


def _delta_unpruned(f: JetSeries, prune: bool = False) -> JetSeries:
    """q-side delta on the tuple reference kernel, which forms every monomial
    (with ``prune``, every one below the kernel cut of ``delta``) and lets
    ``make`` cut the border."""
    p = f.p
    if f.digits is not None and f.digits <= 1:
        raise PrecisionExhausted("need at least two guaranteed digits for delta")
    digits = f.digits
    if f.base_valuation() < 0 or f.base_order is not None:
        digits = min(digits, f.M) if digits is not None else f.M
    if digits is not None:
        digits -= 1
        if digits < 1:
            raise PrecisionExhausted("guaranteed digits exhausted")
    border = cut = None
    if f.base_order is not None:
        v = min(f.base_valuation(), 0)
        border = min(p * (f.base_order - digits), f.base_order + (p - 1) * v)
        cut = border - (p - 1) * v if prune else None
    t = tuple_terms_delta(to_terms(f), p, digits_keep(p, cut, f.digits), f.eff_digits())
    return JetSeries.make(p, from_terms(t), f.M, digits, border)


@st.composite
def laurent_jets(draw):
    p = draw(st.sampled_from([5, 7]))
    keys = st.tuples(st.integers(-2 * p, 6), st.sampled_from([(), (1,)]))
    coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3]))
    terms = draw(st.dictionaries(keys, coeffs, min_size=1, max_size=3))
    f = JetSeries.make(
        p,
        terms,
        M=draw(st.integers(2, 4)),
        digits=draw(st.one_of(st.none(), st.integers(2, 4))),
        base_order=draw(st.integers(-p, 12)),
    )
    return f, draw(st.sampled_from([1, 2]))


def _iterate(step, f: JetSeries, n: int):
    try:
        for _ in range(n):
            f = step(f)
    except PjetError as e:
        return type(e)
    return f.terms, f.digits, f.base_order


class TestBorderCut:
    """The q-side phi and delta prune at the output base order while they
    compute; the unpruned route forms everything and cuts only in ``make``."""

    @given(case=laurent_jets())
    @settings(max_examples=60, deadline=None)
    def test_delta_matches_unpruned_route(self, case):
        f, n = case
        assert _iterate(delta, f, n) == _iterate(_delta_unpruned, f, n)

    @given(case=laurent_jets())
    @settings(max_examples=60, deadline=None)
    def test_phi_matches_unpruned_route(self, case):
        f, n = case
        assert _iterate(phi, f, n) == _iterate(_phi_unpruned, f, n)

    def test_delta_border_leaves_the_unknown_tail_out(self):
        # E6 = 1 - 504 sum sigma_5(n) q^n, known below q^6 and valid mod 5^6.
        # Its unknown term c_6 q^6 (c_6 = -504 * 8052, a 5-adic unit) gives
        # delta the term C(6, 5) 5^5 c_6 / 5 q^5 q'^5: base 5, valuation 4,
        # below the 5 digits delta keeps.  So the border is 5 * (6 - 5) = 5
        c = [1] + [-504 * sum(d**5 for d in range(1, n + 1) if n % d == 0) for n in range(1, 7)]
        low = delta(JetSeries.make(5, {(e, ()): c[e] for e in range(6)}, M=6, base_order=6))
        assert (low.digits, low.base_order) == (5, 5)
        high = delta(JetSeries.make(5, {(e, ()): c[e] for e in range(7)}, M=6, base_order=7))
        assert (high.digits, high.base_order) == (5, 7)
        assert dict(high.terms)[(5, (5,))] == 6 * 5**4 * c[6]


@st.composite
def chain_series(draw):
    """A q-side series and a delta chain of n = 1 or 2 steps: a negative base
    exponent among its terms, digits and base_order each set or unset, p in
    {5, 7, 11} for one step and {5, 7} for two.  The tuple route forms every
    product pair, so a chain of two steps gets fewer terms and digits."""
    n = draw(st.integers(1, 2))
    p = draw(st.sampled_from([5, 7, 11][: 4 - n]))
    coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, p]))
    terms = {(draw(st.integers(-p - 1, -1)), draw(st.sampled_from([(), (1,)]))): draw(coeffs)}
    keys = st.tuples(st.integers(-p - 1, 6), st.sampled_from([(), (1,), (0, 1)]))
    terms.update(draw(st.dictionaries(keys, coeffs, max_size=3 - n)))
    f = JetSeries.make(
        p,
        terms,
        M=draw(st.integers(2, 5 - n)),
        digits=draw(st.one_of(st.none(), st.integers(2, 5 - n))),
        base_order=draw(st.one_of(st.none(), st.integers(-p, 3 * p))),
    )
    return f, n


class TestDeltaChain:
    """``delta_n`` runs its n steps in one layout built for all of them and
    passes the packed store from step to step; the reference takes n single
    steps on the tuple route, each through ``make``."""

    @given(case=chain_series())
    # three steps, and two at p = 11, in their explicit cases
    @example(case=(jq(5, {(-6, (1,)): Fraction(3, 5), (0, (0, 1)): 2}, M=4, digits=4, base_order=12), 3))
    @example(case=(jq(7, {(-1, (1,)): 2, (1, ()): 1}, M=4, base_order=5), 3))
    @example(case=(jq(11, {(-1, ()): 1}, M=4), 3))
    @example(case=(jq(11, {(-2, ()): 3}, M=5, digits=4), 3))
    @example(case=(jq(11, {(-12, (1,)): Fraction(3, 11), (-1, ()): 1}, M=4), 2))
    @example(case=(jq(11, {(-3, (1,)): 2, (5, (0, 1)): Fraction(1, 2)}, M=3, base_order=14), 2))
    @example(case=(jq(7, {(-1, ()): 1, (1, (1,)): Fraction(1, 7)}, M=4, digits=3, base_order=9), 2))
    @settings(max_examples=30, deadline=None)
    def test_delta_n_matches_single_tuple_steps(self, case):
        f, n = case
        try:
            g = delta_n(f, n)
        except PjetError as e:
            got = type(e)
        else:
            got = g.terms, g.digits, g.base_order
            # the store each step passes on is reduced: no factor common to all
            assert g.num.den > 0 and all(g.num.values()) and math.gcd(g.num.den, *g.num.values()) == 1
        assert got == _iterate(functools.partial(_delta_unpruned, prune=True), f, n)

    def test_one_delta_call_per_step_in_one_layout(self, monkeypatch):
        from pjet import deltajet

        seen, step = [], deltajet.delta
        monkeypatch.setattr(deltajet, "delta", lambda g: seen.append(g.L) or step(g))
        f = jq(5, {(-1, ()): 1, (1, ()): 2}, M=4)
        got = deltajet.delta_n(f, 3)
        assert len(seen) == 3 and seen[0] is seen[1] is seen[2] is got.L
        assert got.terms and got == delta(delta(delta(f)))

    @pytest.mark.parametrize("M", [1, 2, 8])
    def test_exact_chain_longer_than_its_layout(self, M):
        # the layout is sized for at most eff_digits = M steps; an exact chain
        # runs on in a new layout per further step
        got = delta_n(jq(5, {(1, ()): 1}, M=M), 4)
        assert got.terms == (((0, (0, 0, 0, 1)), 1),) and got.digits is None


@st.composite
def q_side_series(draw):
    """A q-side series for one phi or delta step: p in {5, 7}, base exponents
    down to -p - 1, digits None or at least 2, base_order set or unset."""
    p = draw(st.sampled_from([5, 7]))
    keys = st.tuples(st.integers(-p - 1, 6), st.sampled_from([(), (1,), (2,), (0, 1)]))
    coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, p]))
    return JetSeries.make(
        p,
        draw(st.dictionaries(keys, coeffs, min_size=1, max_size=3)),
        M=draw(st.integers(2, 4)),
        digits=draw(st.one_of(st.none(), st.integers(2, 4))),
        base_order=draw(st.one_of(st.none(), st.integers(-p, 3 * p))),
    )


class TestQSideOutputCut:
    """q-side phi and delta cut their output on the packed numerators and
    build the series directly; ``make`` over the same kernel terms, unpacked,
    must give the same series."""

    @given(f=q_side_series(), step=st.sampled_from([phi, delta]))
    # exact regime: the constant of delta(1 + q) cancels
    @example(f=jq(5, {(0, ()): 1, (1, ()): 1}), step=delta)
    # digits None with a negative base exponent: the output is valid mod p**M,
    # and the last tail term of q^-1 has valuation M
    @example(f=jq(5, {(-1, ()): 1}, M=3), step=phi)
    @example(f=jq(7, {(-1, ()): 1, (2, (1,)): 3}, M=3), step=delta)
    # base_order with a negative base exponent: delta's kernel cut lies above
    # the output border
    @example(f=jq(5, {(-2, ()): 1, (3, ()): 2}, M=4, digits=3, base_order=6), step=delta)
    # a negative M makes the output digits negative: make keeps no p-integral term
    @example(f=jq(5, {(1, ()): 1, (2, (1,)): 3}, M=-1, base_order=4), step=phi)
    @settings(max_examples=150, deadline=None)
    def test_direct_construction_matches_make(self, f, step):
        got = step(f)
        p, border = f.p, got.base_order
        if step is phi:
            t = phi_terms(to_terms(f), p, border, f.digits, f.eff_digits())
        else:
            cut = None if border is None else border - (p - 1) * min(f.base_valuation(), 0)
            t = delta_terms(to_terms(f), p, cut, f.digits, f.eff_digits())
        want = JetSeries.make(p, from_terms(t), f.M, got.digits, border)
        assert (got.terms, got.digits, got.base_order, got.M) == (want.terms, want.digits, want.base_order, want.M)
        assert all(c for _, c in got.terms)

    def test_cancelled_constant_dropped(self):
        got = delta(jq(5, {(0, ()): 1, (1, ()): 1}))
        assert got.digits is None and got.base_order is None
        assert (0, ()) not in dict(got.terms)
        assert delta(jq(5, {(0, ()): 1})).terms == ()


@st.composite
def make_args(draw, p):
    """Arguments of ``JetSeries.make`` at p: base exponents down to -2p,
    trimmed jets (no two keys spell one monomial), int, Fraction and zero
    coefficients with p in the denominator or the numerator, and digits
    and base_order each None or set."""
    keys = st.tuples(st.integers(-2 * p, 3 * p), st.sampled_from([(), (1,), (2,), (0, 1), (1, 1), (0, 0, 3)]))
    ints = st.integers(-30, 30).map(lambda x: x * p ** (abs(x) % 3))
    coeffs = st.one_of(ints, st.builds(Fraction, ints, st.sampled_from([1, 2, 3, p, p * p, 6 * p])))
    return (
        draw(st.dictionaries(keys, coeffs, max_size=6)),
        draw(st.integers(1, 5)),
        draw(st.one_of(st.none(), st.integers(-1, 5))),
        draw(st.one_of(st.none(), st.integers(-p, 3 * p))),
    )


@st.composite
def series_pairs(draw):
    """Two q-side series at one p that agree on a common part: the second
    adds terms of high valuation or high base exponent, in its own layout."""
    p = draw(st.sampled_from([5, 7, 11]))
    terms, M, digits, base_order = draw(make_args(p))
    extra, M2, digits2, base_order2 = draw(make_args(p))
    extra = {k: c * p ** draw(st.integers(0, 4)) for k, c in extra.items()}
    if draw(st.booleans()):
        extra = {(b + 2 * p, jets): c for (b, jets), c in extra.items()}
    return make_fraction(p, terms, M, digits, base_order), make_fraction(p, {**terms, **extra}, M2, digits2, base_order2)


class TestMakeAndEqualityDigitRule:
    """``make`` and ``==`` cut packed numerators by the step's digit rule;
    the references cut each Fraction coefficient by its own valuation."""

    @given(p=st.sampled_from([5, 7, 11]), data=st.data())
    @example(p=5, data=None)
    @settings(max_examples=200, deadline=None)
    def test_make_matches_fraction_loop(self, p, data):
        if data is None:  # every term cut: p**2 at two digits, q^3 at base_order 3
            args = ({(0, ()): 25, (3, (1,)): 1, (1, ()): Fraction(50, 3)}, 4, 2, 3)
        else:
            args = data.draw(make_args(p))
        got, want = JetSeries.make(p, *args), make_fraction(p, *args)
        assert got.to_text() == want.to_text()
        assert (got.terms, got.num.den) == (want.terms, want.num.den)

    @given(pair=series_pairs())
    @settings(max_examples=300, deadline=None)
    def test_equality_matches_fraction_loop(self, pair):
        f, g = pair
        assert (f == g) == (g == f) == jet_eq_fraction(f, g)

    @given(p=st.sampled_from([5, 7]), data=st.data(), r=st.fractions(max_denominator=30) | st.integers(-50, 50))
    @settings(max_examples=150, deadline=None)
    def test_equality_with_a_rational_matches_fraction_loop(self, p, data, r):
        f = make_fraction(p, *data.draw(make_args(p)))
        assert (f == r) == (r == f) == jet_eq_fraction(f, make_fraction(p, {(0, ()): r}))

    def test_make_cuts_digits(self):
        f = jq(5, {(0, ()): 1, (1, ()): 25, (2, ()): Fraction(3, 5)}, digits=2)
        assert f.terms == (((0, ()), 1), ((2, ()), Fraction(3, 5)))
        assert jq(5, {(1, ()): 25}, digits=2).terms == ()

    def test_equality_reads_the_smaller_base_order(self):
        f, g = jq(5, {(0, ()): 1}, base_order=3), jq(5, {(0, ()): 1, (4, ()): 1}, base_order=6)
        assert f == g and g == f
        assert jq(5, {(0, ()): 1}, base_order=5) != g

    def test_equality_reads_the_smaller_digits(self):
        f, g = jq(7, {(0, ()): 1}, digits=2), jq(7, {(0, ()): 1, (1, (1,)): 49}, digits=5)
        assert f == g and g == f and jq(7, {(0, ()): 1}, digits=3) != g

    def test_of_two_spellings_of_one_monomial_the_later_wins(self):
        # (1, (1, 0)) and (1, (1,)) trim to one monomial: the later key wins
        # even when its coefficient is zero or cut, as in MultiJetSeries.make
        a, b = (1, (1, 0)), (1, (1,))
        assert JetSeries.make(5, {a: 3, b: 0}).terms == ()
        assert JetSeries.make(5, {a: 3, b: 25}, digits=2).terms == ()
        assert JetSeries.make(5, {b: 25, a: 3}, digits=2).terms == (((1, (1,)), 3),)
        assert JetSeries.make(5, {a: 0, b: Fraction(2, 5)}).terms == (((1, (1,)), Fraction(2, 5)),)


@st.composite
def t_side_jets(draw):
    p = draw(st.sampled_from([5, 7]))
    keys = st.tuples(st.integers(0, 12), st.sampled_from([(), (1,), (2,), (0, 1), (1, 1)]))
    coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, p]))
    terms = draw(st.dictionaries(keys, coeffs, min_size=1, max_size=4))
    return jt(p, terms, N=draw(st.integers(1, 60)))


def _t_substitution(f: TSeries, step, N: int) -> TSeries:
    """t-side ``step`` (the reference tuple_terms_phi or tuple_terms_delta) by
    direct substitution x_i -> x_i**p + p*x_{i+1}, keeping the monomials of
    weight below N."""
    p = f.P[0]
    t = step(t_terms(f), p, digits_keep(p, weight_below=N), 0)
    return jt(p, from_terms(t), N=N)


class TestTSideAgainstMultiprime:
    """A t-side series lifts as the d=1 several-prime phi_pk and delta_pk,
    in ghost coordinates, through the bridge; the reference substitutes in
    the jet coordinates instead."""

    @given(f=t_side_jets())
    @settings(max_examples=100, deadline=None)
    def test_phi_matches_phi_pk(self, f):
        got, want = phi_pk(from_jet_series(f), 0), _t_substitution(f, tuple_terms_phi, f.P[0] * f.N)
        assert got.N == want.N and got == want

    @given(f=t_side_jets())
    @settings(max_examples=100, deadline=None)
    def test_delta_matches_delta_pk(self, f):
        got, want = delta_pk(from_jet_series(f), 0), _t_substitution(f, tuple_terms_delta, f.N)
        assert got.N == want.N and got == want

    @pytest.mark.parametrize("op", [phi, delta])
    def test_q_side_maps_refuse_a_t_side_series(self, op):
        with pytest.raises(DomainError, match=f"{op.__name__} is the q-side map"):
            op(jt(5, {(1, ()): 1}, N=10))

    @pytest.mark.parametrize("op", [phi_pk, delta_pk], ids=["phi", "delta"])
    def test_unbounded_series_rejected(self, op):
        # a t-side series always has its bound: a payload without one is refused at read
        obj = {**psi_serretate(5, N=10).to_json(), "N": None}
        with pytest.raises(DomainError, match="a weighted truncation bound is required"):
            op(from_jet_series(JetSeries.from_json(obj)), 0)


@st.composite
def kernel_steps(draw):
    """Tuple-monomial terms with a base, jets and an auxiliary family, and
    the cuts of one phi or delta step."""
    p = draw(st.sampled_from([3, 5, 7]))
    exps = st.lists(st.integers(0, 2), max_size=2).map(tuple)
    z = st.builds(lambda b, jets: _trim((b, *jets)), st.integers(-2 * p, 6), exps)
    keys = st.tuples(z, exps.map(_trim))
    coeffs = st.builds(
        Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, p, p * p])
    )
    t = draw(st.dictionaries(keys, coeffs, min_size=1, max_size=3))
    cut = draw(st.one_of(st.none(), st.integers(-3 * p, 6 * p)))
    digits = draw(st.one_of(st.none(), st.integers(2, 4)))
    return t, p, cut, digits, draw(st.integers(0, 4))


class TestPackedKernel:
    """The packed phi and delta steps against the tuple-monomial reference."""

    @given(case=kernel_steps())
    @settings(max_examples=150, deadline=None)
    def test_phi_step_matches_tuple_reference(self, case):
        t, p, cut, digits, jmax = case
        want = tuple_terms_phi(t, p, digits_keep(p, cut, digits), jmax)
        assert phi_terms(t, p, cut, digits, jmax) == want

    @given(case=kernel_steps())
    @settings(max_examples=150, deadline=None)
    def test_delta_step_matches_tuple_reference(self, case):
        t, p, cut, digits, jmax = case
        want = tuple_terms_delta(t, p, digits_keep(p, cut, digits), jmax)
        assert delta_terms(t, p, cut, digits, jmax) == want

    @pytest.mark.parametrize("step", ["phi", "delta"])
    @pytest.mark.parametrize("p, E, width", [(5, 5, 5), (5, 6, 6), (7, 3, 5), (7, 4, 6)])
    def test_field_width_boundary(self, step, p, E, width):
        # Every exponent is at most (p + 1) * E: 30 and 24 fit in 5 bits,
        # 36 and 32 = 2**5 need 6.  Both monomials reach the bound under
        # phi: z_2 and a_1 in the first (p E from themselves, E from z_1 and
        # a_0), z_1 in the second (p E, and jmax = E from the negative base).
        t = {
            ((0, E, E), (E, E)): Fraction(1, p),
            ((-1, E), (0, E)): Fraction(2, 3),
        }
        assert Layout(p, t, E).width == width
        routes = {"phi": (phi_terms, tuple_terms_phi), "delta": (delta_terms, tuple_terms_delta)}
        ours, ref = routes[step]
        assert ours(t, p, None, None, E) == ref(t, p, digits_keep(p), E)


@st.composite
def one_pass_steps(draw):
    """Tuple-monomial terms at p from 5 to 13, base exponents down to -2p,
    up to two jets and two auxiliary exponents, and the cuts of one step."""
    p = draw(st.sampled_from([5, 7, 11, 13]))
    exps = st.lists(st.integers(0, 2), max_size=2).map(tuple)
    z = st.builds(lambda b, jets: _trim((b, *jets)), st.integers(-2 * p, 4), exps)
    keys = st.tuples(z, exps.map(_trim))
    coeffs = st.builds(
        Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, p, p * p])
    )
    t = draw(st.dictionaries(keys, coeffs, min_size=1, max_size=3 if p < 11 else 2))
    cut = draw(st.one_of(st.none(), st.integers(-3 * p, 4 * p)))
    digits = draw(st.one_of(st.none(), st.integers(2, 6)))
    return t, p, cut, digits, draw(st.integers(0, 6))


# the lemma's input at p 5: z^4 + 5 z^-1 z' - a_0, a_0 the symbolic coefficient
LEMMA_INPUT = {((4,), ()): Fraction(1), ((-1, 1), ()): Fraction(5), ((), (1,)): Fraction(-1)}


class TestOnePassStep:
    """``terms_phi`` forms each term's image whole and tests the digit rule
    on each partial product; ``terms_delta`` subtracts f**p in one dict.  Both
    give the numerators of the staged step they replaced (a ``terms_mul`` per
    factor; two scales and an add) and of the tuple-monomial reference."""

    @pytest.mark.parametrize(
        "check, args", [(lemma_logder_check, (5, 5, 3)), (lemma_xlaphi_check, (7, 2, "symbolic"))]
    )
    def test_deep_lemma_chains_match_the_staged_route(self, check, args):
        # every phi step of a deep chain, where the images carry p^j far past
        # the digits, gives the staged step's numerators
        steps = []

        def checked(*a):
            got = terms_phi(*a)
            assert got == staged_terms_phi(*a)
            steps.append(len(got))
            return got

        want = check(*args)
        with mock.patch("pjet.deltajet.terms_phi", checked):
            assert check(*args) == want
        assert len(steps) == args[1]

    @given(case=one_pass_steps())
    @example(case=({((0, 1), ()): Fraction(1)}, 5, 0, None, 2))  # base 0 at a cut of 0
    # a base-0 term with a jet and an auxiliary at a negative cut, and q^-10's tail
    @example(case=({((0, 2), (1,)): Fraction(3), ((-10,), ()): Fraction(1, 5)}, 5, -4, 3, 6))
    # q^-1 (j = 5 of its tail, -5^5) and q^-6 z' (j = 0) meet at q^-30 z'^5:
    # the first is below the digits and must not reach the sum
    @example(case=({((-1,), ()): Fraction(1), ((-6, 1), ()): Fraction(1)}, 5, None, 2, 5))
    @example(case=(LEMMA_INPUT, 5, None, 5, 5))
    @example(case=(LEMMA_INPUT, 5, -10, 4, 4))
    @settings(max_examples=120, deadline=None)
    def test_phi_matches_the_staged_and_tuple_routes(self, case):
        t, p, cut, digits, jmax = case
        L = Layout(p, t, jmax)
        packed = L.pack(t)
        args = (packed, L, L.below(cut), _mod(p, digits, packed.den), jmax)
        got = terms_phi(*args)
        assert got == staged_terms_phi(*args)
        assert L.unpack(got, packed.den) == tuple_terms_phi(t, p, digits_keep(p, cut, digits), jmax)

    @given(case=one_pass_steps())
    @example(case=({((0, 1), ()): Fraction(1)}, 5, 0, None, 2))
    @example(case=({((-1,), ()): Fraction(1), ((-6, 1), ()): Fraction(1)}, 5, None, 2, 5))
    @example(case=(LEMMA_INPUT, 5, None, 5, 5))
    @settings(max_examples=80, deadline=None)
    def test_delta_matches_the_staged_and_tuple_routes(self, case):
        t, p, cut, digits, jmax = case
        L = Layout(p, t, jmax)
        packed = L.pack(t)
        args = (packed, packed.den, L, L.below(cut), digits, jmax)
        (got, den), (want, want_den) = terms_delta(*args), staged_terms_delta(*args)
        # a sum that cancels stays as 0 until the step's cut drops it
        assert den == want_den and {m: x for m, x in got.items() if x} == want
        kept = _cut(got, L.below(cut), _mod(p, digits, den // p))
        assert L.unpack(kept, den) == tuple_terms_delta(t, p, digits_keep(p, cut, digits), jmax)


class TestCrossSideEquality:
    """A q-side ``JetSeries`` and a t-side series are never equal; comparing
    them raised ``TypeError`` in both orders."""

    def test_the_two_sides_differ(self):
        t, q = psi_serretate(5, 10), psi_fourier(5, 8, 5)
        assert not t == q and not q == t
        assert t != q and q != t

    def test_a_scalar_still_compares(self):
        one = MultiJetSeries.make((5,), {(): 1}, 4, ring=1)
        assert one == 1 and 1 == one and one != 2
        assert jq(5, {(0, ()): 2}) == 2 and 2 == jq(5, {(0, ()): 2}) and jq(5, {(0, ()): 2}) != 3
        assert one != "1" and jq(5, {(0, ()): 2}) != None  # noqa: E711


class TestNegativePower:
    """No series type with a power inverts a unit: both refuse n < 0 alike.
    A t-side series takes its powers in the d=1 several-prime ring."""

    @pytest.mark.parametrize(
        "f",
        [
            from_jet_series(jt(7, {(0, ()): 1, (1, (1,)): 2}, N=10)),
            MultiJetSeries.make((5, 7), {(): 1, (((0, 0), 1),): 1}, 10),
            Series1.make("q", {0: Fraction(1), 1: Fraction(1)}, 6),
            Series1.make("q", {-1: PadicTrunc.from_rational(Fraction(2, 3), 5, 6), 0: PadicTrunc(5, 6, 1, 6)}),
        ],
        ids=["f2", "f3", "f4", "f5"],  # f0 and f1 were q-side JetSeries, which has no powers
    )
    def test_refused(self, f):
        with pytest.raises(DomainError, match="negative powers are not defined here"):
            f**-1


class TestPsiFourier:
    def test_leading_terms(self):
        psi = psi_fourier(5, M=8, window=6)
        assert psi.terms[-1] == ((-5, (1,)), Fraction(1))
        assert dict(psi.terms)[(-10, (2,))] == Fraction(-5, 2)

    def test_rejects_small_primes(self):
        with pytest.raises(DomainError):
            psi_fourier(3, M=4, window=5)

    @pytest.mark.parametrize("M, window", [(0, 3), (-2, 3), (8, 0), (8, -3)])
    def test_rejects_ranges_below_one(self, M, window):
        # the same minimums as the CLI's --M and --window
        with pytest.raises(DomainError):
            psi_fourier(5, M=M, window=window)

    def test_accepts_ranges_of_one(self):
        assert psi_fourier(5, M=1, window=3).M == 1
        assert dict(psi_fourier(5, M=8, window=1).terms) == {(-5, (1,)): Fraction(1)}

    @pytest.mark.parametrize("p", [5, 7])
    def test_coefficient_valuations(self, p):
        from pjet.arith import valuation

        psi = psi_fourier(p, M=30, window=25)
        d = dict(psi.terms)
        for n in range(1, 26):
            c = d[(-p * n, (n,))]
            v = valuation(c, p)
            assert v == n - 1 - valuation(Fraction(n), p)
            assert v >= 0

    def test_exp_p_psi_recovers_frobenius_unit(self):
        # exp(p Psi) * q^p = q^p + p q', to the stated window and modulus
        p, W = 5, 30
        psi = psi_fourier(p, M=W + 2, window=W)
        x_coeffs = {}
        for (b, jets), c in psi.terms:
            n = jets[0]
            assert b == -p * n
            x_coeffs[n] = c * p
        univ = Series1.make("t", x_coeffs, N=W + 1)
        got = exp_series(univ, order=W + 1)
        assert got == Series1.make("t", {0: Fraction(1), 1: Fraction(p)}, N=W + 1)


class TestPsiSerreTate:
    def test_hand_expansion_to_weight_eight(self):
        got = psi_serretate(5, N=8)
        want = jt(
            5,
            {
                (0, (1,)): 1,
                (1, ()): -1,
                (2, ()): Fraction(1, 2),
                (3, ()): Fraction(-1, 3),
                (4, ()): Fraction(1, 4),
                (6, ()): Fraction(1, 6),
                (7, ()): Fraction(-1, 7),
            },
            N=8,
        )
        assert got == want

    def test_leading_jet_term(self):
        psi = psi_serretate(7, N=9)
        assert psi.coeff((((1,), 1),)) == 1

    @pytest.mark.parametrize("p", [5, 7])
    def test_denominators_coprime_to_p(self, p):
        psi = psi_serretate(p, N=p * p + 1)
        assert all(c.denominator % p for _, c in psi.terms)


class TestLemmaChecks:
    @pytest.mark.parametrize("p,n,varphi", [(5, 1, 0), (5, 2, "symbolic"), (7, 1, 1)])
    def test_xlaphi_passes(self, p, n, varphi):
        rep = lemma_xlaphi_check(p, n, varphi)
        assert rep.passed, rep

    def test_xlaphi_sign_confirmed_by_base_case(self):
        # flipping the sign of the second displayed term must break n=1, varphi=0
        rep = lemma_xlaphi_check(5, 1, 0)
        assert rep.passed
        from pjet.deltajet import _classify_residual, _lemma_delta_n
        from pjet.sparse import add

        f = {((4,), ()): Fraction(1), ((-1, 1), ()): Fraction(5)}
        L, res, D = (d := _lemma_delta_n(f, 5, 1)).L, d.num, d.num.den
        res = add(
            res,
            {L.key(((-5, 5), ())): -D},
            {L.key(((15, 1), ())): -D},  # wrong sign on z^(p^2-2p) z'
        )
        bad = _classify_residual("xlaphi", 5, 1, L, res, D, low_jet=0, max_jet=2)
        assert not bad.passed

    @pytest.mark.parametrize("p,n,a", [(5, 1, 1), (5, 2, 3), (7, 1, 2)])
    def test_logder_passes(self, p, n, a):
        rep = lemma_logder_check(p, n, a)
        assert rep.passed, rep

    def test_logder_trivial_lambda(self):
        rep = lemma_logder_check(5, 2, 0)
        assert rep.passed
        assert rep.residual_terms == 0

    def test_report_json(self):
        rep = lemma_xlaphi_check(5, 1, 0)
        js = rep.to_json()
        assert js["pass"] is True and js["lemma"] == "xlaphi"


class TestLemmaCrossRoute:
    """The lemma chain, packed from its first step to the report, against the
    route that unpacked to Fractions after every step (``tests/_helpers.py``):
    the report bytes must be the same."""

    @pytest.mark.parametrize("aux", [{((), (1,)): -1}, {((), ()): Fraction(-1, 3)}, {}])
    @pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 2)])
    def test_chain_terms(self, p, n, aux):
        # the residual before the report: every term of delta^n, an adjoined
        # coefficient's delta-chain included, in the one layout of n steps
        from pjet.deltajet import _lemma_delta_n

        f = {((p - 1,), ()): Fraction(1), ((-1, 1), ()): Fraction(p), **aux}
        L, t, D = (d := _lemma_delta_n(f, p, n)).L, d.num, d.num.den
        assert L.unpack(t, D) == lemma_delta_n_fraction(f, p, n, n + 3)

    @pytest.mark.parametrize("varphi", ["symbolic", 0, 1, 2, -3, Fraction(1, 3)])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_xlaphi(self, p, n, varphi):
        got = lemma_xlaphi_check(p, n, varphi)
        assert dump(got.to_json()) == dump(lemma_xlaphi_check_fraction(p, n, varphi).to_json())

    @pytest.mark.parametrize("a", range(1, 10))
    @pytest.mark.parametrize("p, n", [(5, 1), (5, 2), (7, 1), (7, 2)])
    def test_logder(self, p, n, a):
        got = lemma_logder_check(p, n, a)
        assert dump(got.to_json()) == dump(lemma_logder_check_fraction(p, n, a).to_json())

    def test_offender_divisible_by_p_over_a_denominator_divisible_by_more(self):
        # 5/25 = 1/5 is not 5-integral although 5 divides its numerator
        from pjet.deltajet import _classify_residual, _lemma_delta_n

        L = _lemma_delta_n({((1,), ()): Fraction(1)}, 5, 1).L
        rep = _classify_residual("logder", 5, 1, L, {L.key(((1,), ())): 5}, 25, low_jet=-1, max_jet=1)
        assert not rep.passed and rep.offending == ((1,), (), "1/5")
        assert dump(rep.to_json()) == (
            '{"lemma":"logder","n":1,"offending":[[1],[],"1/5"],"p":5,"pass":false,"residual_terms":1}\n'
        )

    def test_negative_n_refused(self):
        with pytest.raises(DomainError):
            lemma_logder_check(5, -1, 1)


class TestJson:
    def test_roundtrip(self):
        psi = psi_fourier(5, M=8, window=5)
        assert JetSeries.from_json(psi.to_json()) == psi

    def test_t_side_roundtrip(self):
        s = psi_serretate(5, N=10)
        back = JetSeries.from_json(s.to_json())
        assert isinstance(back, TSeries) and back == s and back.N == 10

    @given(p=st.sampled_from([5, 7, 11, 13, 17, 19, 23]), N=st.integers(0, 60))
    @settings(max_examples=30, deadline=None)
    def test_t_payload_round_trip(self, p, N):
        s = psi_serretate(p, N)
        obj = s.to_json()
        assert obj == t_payload_terms(s)
        back = JetSeries.from_json(json.loads(dump(obj)))
        assert type(back) is TSeries and (back.P, back.N, back.ring) == ((p,), N, 1)
        assert back._store == s._store and back._store.den == s._store.den
        assert back == t_series_via_make(obj) and dump(back.to_json()) == dump(obj)

    @pytest.mark.parametrize("var", ["x", "T", None])
    def test_unknown_var_refused(self, var):
        obj = {**psi_serretate(5, N=10).to_json(), "var": var}
        with pytest.raises(DomainError, match=f"unknown base tag {var!r}"):
            JetSeries.from_json(obj)

    def test_q_side_payload_refuses_N(self):
        obj = {**psi_fourier(5, M=8, window=5).to_json(), "N": 10}
        with pytest.raises(DomainError, match="N is a t-side field"):
            JetSeries.from_json(obj)

    @pytest.mark.parametrize(
        "key, value",
        [("N", -3), ("N", 7.5), ("N", True), ("M", 4.5), ("digits", 2.5), ("base_order", 1.0), ("p", 5.0)],
    )
    def test_t_side_header_refused(self, key, value):
        obj = {**psi_serretate(5, N=10).to_json(), key: value}
        with pytest.raises(DomainError):
            JetSeries.from_json(obj)

    @pytest.mark.parametrize("key, value", [("digits", 1), ("base_order", 3), ("digits", 0)])
    def test_t_side_refuses_q_side_fields(self, key, value):
        obj = {**psi_serretate(5, N=10).to_json(), key: value}
        with pytest.raises(DomainError, match="digits and base_order are q-side fields"):
            JetSeries.from_json(obj)

    def test_t_side_header_reads_integer_strings_and_nulls(self):
        obj = {**psi_serretate(5, N=10).to_json(), "N": "10", "M": "6", "digits": None, "base_order": None}
        back = JetSeries.from_json(obj)
        assert back.N == 10 and back.to_json()["M"] == 8  # M is checked, not kept
        assert back == psi_serretate(5, N=10)
