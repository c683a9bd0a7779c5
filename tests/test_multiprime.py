"""Several-prime jet rings: structure maps, order-e builders, continuation."""

import itertools
import math
import os
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _helpers import (
    basis_rank_jet_route,
    basis_shifts_jet_route,
    build_fe0_fraction,
    continuation_check_two_loops,
    corner_scalars,
    exact_rank_fraction,
    fe0_ghost_loop,
    gamma_rows_convolved,
    generator_terms,
    ghost_gamma_per_top,
    ghost_log1p_var,
    mono_weight,
    mul,
    pack_terms,
    phi_pk_below,
    rank_base_loop,
    reference_generator_terms,
    scalar_rows,
)
from pjet import multiprime, sparse
from pjet.arith import (
    PadicTrunc,
    binomial,
    cross_prime_commutator,
    decode_coeff,
    fermat_delta,
    format_rational,
    reduce_rational_mod,
)
from pjet.cli import _dump as dump, main
from pjet.deltajet import psi_serretate
from pjet.errors import DomainError
from pjet.forms import build_f2e0, build_f2e_k
from pjet.multiprime import (
    M_ONE,
    Idx,
    MultiJetSeries,
    Mono,
    _corners,
    _gamma_row,
    _ghost_shifts,
    _norm_mono,
    basis_independence_check,
    build_fe0,
    build_fe_k,
    continuation_check,
    delta_pk,
    exact_rank,
    from_jet_series,
    ghost_delta,
    ghost_gamma,
    ghost_to_jet,
    ghost_shift,
    jet_to_ghost,
    layout,
    phi_pk,
    poly_mul,
    psi_multi,
    reduce_to_padic,
    substitute_gamma,
    t_generator,
    var_weight,
)

P57 = (5, 7)
P5711 = (5, 7, 11)
PRIMES_5_23 = (5, 7, 11, 13, 17, 19, 23)

TuplePoly = dict[Mono, Fraction]


def random_series(rng, P=P57, N=12, nterms=3, max_idx=1):
    d = len(P)
    terms = {}
    for _ in range(nterms):
        npairs = rng.randint(1, 2)
        pairs = []
        for _ in range(npairs):
            i = tuple(rng.randint(0, max_idx) for _ in range(d))
            pairs.append((i, rng.randint(1, 2)))
        c = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 4, 6]))
        if c:
            terms[tuple(pairs)] = c
    return MultiJetSeries.make(P, terms, N)


class TestBasisExchange:
    def test_roundtrip_on_random_series(self):
        rng = random.Random(3)
        for _ in range(10):
            f = random_series(rng)
            L = layout(f.P, f.N)
            t = f._packed(L)
            g = jet_to_ghost(t, L, t.den)
            assert L.series(ghost_to_jet(g, L, g.den), 0) == f

    def test_first_generator(self):
        # delta_5 t in ghost coordinates is (u_(1,0) - u_(0,0)^5) / 5
        g = generator_terms(layout(P57, 30), (1, 0), "g")
        assert g[(((1, 0), 1),)] == Fraction(1, 5)
        assert g[(((0, 0), 5),)] == Fraction(-1, 5)


def mono_mul(m1: Mono, m2: Mono) -> Mono:
    """Product of two normalised monomials.

    Both carry distinct indices and positive exponents, so their merge needs
    none of ``_norm_mono``'s checks: exponents add and stay positive.  This
    was the kernel's monomial product before monomials were packed into ints;
    it stays here as the reference for the packed product.
    """
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for i, e in m2:
        d[i] = d[i] + e if i in d else e
    return tuple(sorted(d.items()))


def tuple_mul(t1: TuplePoly, t2: TuplePoly, keep) -> TuplePoly:
    return mul(t1, t2, mono_mul, keep)


def weight_cut(P, N):
    """The truncation below weight N on tuple monomials."""
    return lambda m: mono_weight(m, P) < N


def keep_all(m):
    return True


def ghost_shift_reference(t: TuplePoly, k: int) -> TuplePoly:
    """u_i -> u_{i+e_k} on tuple monomials, with no truncation."""
    return {
        _norm_mono((i[:k] + (i[k] + 1,) + i[k + 1 :], e) for i, e in m): c for m, c in t.items()
    }


def packed(fn, t: TuplePoly, P, N, *args) -> TuplePoly:
    """``fn`` on ``t`` through the packed kernel of (P, N), unpacked again;
    a ``Packed`` result is divided by its denominator."""
    L = layout(P, N)
    out = fn(pack_terms(L, t.items()), *args, L)
    return {L.unpack(m): Fraction(c) / getattr(out, "den", 1) for m, c in out.items()}


def _subst_fraction(t: TuplePoly, P: tuple[int, ...], images, keep) -> TuplePoly:
    """The basis exchange in Fraction arithmetic, one factor at a time.

    This was ``multiprime._subst`` before the exchange moved to integers over
    one common denominator; it stays here as the reference for that route.
    """
    out: TuplePoly = {}
    pow_cache: dict[tuple[Idx, int], TuplePoly] = {}
    for m, c in t.items():
        acc: TuplePoly = {M_ONE: c}
        for i, e in m:
            pk = (i, e)
            if pk not in pow_cache:
                pow_cache[pk] = sparse.power(
                    images(i), e, {M_ONE: Fraction(1)}, lambda a, b: tuple_mul(a, b, keep)
                )
            acc = tuple_mul(acc, pow_cache[pk], keep)
        out = sparse.add(out, acc)
    return {m: c for m, c in out.items() if keep(m)}


def _jet_to_ghost_fraction(t, P, keep):
    return _subst_fraction(t, P, lambda i: reference_generator_terms(P, i, "g"), keep)


def _ghost_to_jet_fraction(t, P, keep):
    return _subst_fraction(t, P, lambda i: reference_generator_terms(P, i, "j"), keep)


def _phi_fraction(f, k, bound):
    """phi_k(f) below ``bound`` <= f.N * p_k by the Fraction route: jet to
    ghost, the ghost shift u_i -> u_{i+e_k}, ghost to jet."""
    ghost = _jet_to_ghost_fraction(dict(f.terms), f.P, keep_all)
    lifted = _ghost_to_jet_fraction(ghost_shift_reference(ghost, k), f.P, weight_cut(f.P, bound))
    return MultiJetSeries.make(f.P, lifted, bound, f.ring)


@st.composite
def exchange_case(draw):
    """A polynomial, its primes, N <= 40 and a reference keep: the weight cut
    below N, or keep_all on a polynomial of weight below N.  Denominators are
    drawn both coprime to P and divisible by its primes; the monomial 1 may
    occur."""
    P = draw(st.sampled_from([(5,), (7,), P57, (5, 13), P5711]))
    N = draw(st.integers(0, 40))
    top = 2 if len(P) == 1 else 1
    p, q = P[0], P[-1]
    dens = st.sampled_from([1, 2, 3, 4, 9, p, p * p, 2 * p, p * q, 3 * q])
    t = {}
    for _ in range(draw(st.integers(0, 5))):
        m = _norm_mono(
            (tuple(draw(st.integers(0, top)) for _ in P), draw(st.integers(1, 3)))
            for _ in range(draw(st.integers(0, 3)))
        )
        # the jet image of u_(1,1,1) has 2,090 terms, and the Fraction route
        # squares it whole before keep drops the products (4.4M pairs for e = 2)
        m = tuple((i, 1 if i == (1, 1, 1) else e) for i, e in m)
        t[m] = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(dens))
    if draw(st.booleans()):
        return P, t, N, weight_cut(P, N)
    return P, {m: c for m, c in t.items() if mono_weight(m, P) < N}, N, keep_all


@st.composite
def monomials(draw, d):
    return _norm_mono(
        (tuple(draw(st.integers(0, 2)) for _ in range(d)), draw(st.integers(1, 4)))
        for _ in range(draw(st.integers(0, 4)))
    )


class TestIntegerExchange:
    """The integer basis exchange against the Fraction reference."""

    @given(case=exchange_case())
    @example(case=((5,), {(): Fraction(2, 5), (((0,), 1),): Fraction(1, 3)}, 0, weight_cut((5,), 0)))
    @example(case=(P57, {(((1, 0), 2), ((0, 1), 1)): Fraction(-3, 35)}, 18, keep_all))
    @settings(max_examples=60, deadline=None)
    def test_jet_to_ghost_matches_fraction_route(self, case):
        P, t, N, keep = case
        assert packed(jet_to_ghost, t, P, N) == _jet_to_ghost_fraction(t, P, keep)

    @given(case=exchange_case())
    @example(case=((7,), {(): Fraction(1, 7), (((1,), 1),): Fraction(4, 49)}, 8, keep_all))
    @settings(max_examples=60, deadline=None)
    def test_ghost_to_jet_matches_fraction_route(self, case):
        P, t, N, keep = case
        assert packed(ghost_to_jet, t, P, N) == _ghost_to_jet_fraction(t, P, keep)

    @given(P=st.sets(st.sampled_from(PRIMES_5_23), min_size=3, max_size=3), N=st.integers(1, 40), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_d3_drawn_exchange_matches_fraction_route_and_round_trips(self, P, N, data):
        # ghost against jet over a drawn three-prime set: each exchange against
        # the Fraction route, and ghost_to_jet undoes jet_to_ghost
        P = tuple(sorted(P))
        L = layout(P, N)
        # the variables below N; at N = 1 there is none, and t is drawn only to be skipped
        light = st.sampled_from([i for i, _, _ in L.fields] or [(0, 0, 0)])
        dens = st.sampled_from([1, 2, 9, P[0], P[1] * P[2]])
        t = {}
        for _ in range(data.draw(st.integers(1, 5))):
            m, w = [], 0  # each factor drawn within the weight left below N
            for _ in range(data.draw(st.integers(1, 3))):
                i = data.draw(light)
                if (top := (N - 1 - w) // var_weight(i, P)) > 0:
                    m.append((i, e := data.draw(st.integers(1, min(top, 3)))))
                    w += e * var_weight(i, P)
            t[_norm_mono(m)] = Fraction(data.draw(st.integers(-9, 9).filter(bool)), data.draw(dens))
        assert packed(jet_to_ghost, t, P, N) == _jet_to_ghost_fraction(t, P, keep_all)
        assert packed(ghost_to_jet, t, P, N) == _ghost_to_jet_fraction(t, P, keep_all)
        g = jet_to_ghost(pack_terms(L, t.items()), L)
        assert L.series(ghost_to_jet(g, L, g.den), 0) == MultiJetSeries.make(P, t, N)

    @given(
        P=st.sampled_from([(5,), P57, P5711, (5, 7, 11, 13)]),
        N=st.sampled_from([0, 1, 2, 30]),
        kind=st.sampled_from("gj"),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_t_power_shift_matches_fraction_route(self, P, N, kind, data):
        # t is its own image in both exchanges, so _subst adds t^a as a key
        # shift where the Fraction route multiplies by it.  The layouts of
        # N 0 and 1 have no field, and that of N 2 only t's
        zero = (0,) * len(P)
        light = [zero, *(tuple(int(j == k) for j in range(len(P))) for k in range(len(P))), (2,) + zero[1:]]
        t = {}
        factor = st.tuples(st.sampled_from(light), st.integers(1, 2))
        for _ in range(data.draw(st.integers(0, 5))):
            m = _norm_mono([(zero, data.draw(st.integers(0, 31))), *data.draw(st.lists(factor, max_size=2))])
            t[m] = Fraction(data.draw(st.integers(-9, 9).filter(bool)), data.draw(st.sampled_from([1, 2, 5, 77])))
        fn, images = (jet_to_ghost, "g") if kind == "g" else (ghost_to_jet, "j")
        want = _subst_fraction(t, P, lambda i: reference_generator_terms(P, i, images), weight_cut(P, N))
        assert packed(fn, t, P, N) == want

    @pytest.mark.parametrize("P, i", [((5,), (2,)), (P57, (1, 1)), (P57, (2, 0)), (P5711, (0, 1, 1))])
    def test_jet_table_maps_back_to_its_ghost_variable(self, P, i):
        # the jet table is filled through the integer route; the Fraction route
        # must take it back to the single ghost variable u_i
        assert _jet_to_ghost_fraction(generator_terms(layout(P, 2 * var_weight(i, P)), i, "j"), P, keep_all) == {((i, 1),): Fraction(1)}

    def test_monomial_past_the_cut_forms_no_pair(self, monkeypatch):
        # u_(1,1,1)^2 has weight 2*385 >= 30, so its whole jet image lies past
        # the cut; squaring that 2,090-term image first would form 4.4M pairs
        pairs = []

        def counting_mul(t1, t2, limit):
            pairs.append(len(t1) * len(t2))
            return poly_mul(t1, t2, limit)

        monkeypatch.setattr(multiprime, "poly_mul", counting_mul)
        t = {(((1, 1, 1), 2),): Fraction(1)}
        assert packed(ghost_to_jet, t, P5711, 30) == {}
        assert packed(jet_to_ghost, t, P5711, 30) == {}
        assert sum(pairs) == 0

    @given(case=exchange_case(), g=st.sampled_from([2, 5, 42]), h=st.sampled_from([1, 3, 5, 35]))
    @settings(max_examples=60, deadline=None)
    def test_ghost_to_jet_numerators_over_den(self, case, g, h):
        # integer numerators T over D = g * h give the exchange of the Fractions
        # T / D; every numerator is a multiple of g, so no T / D is in lowest
        # terms, and both results are in canonical form
        P, t, N, _ = case
        L = layout(P, N)
        T = {m: g * c.numerator for m, c in pack_terms(L, t.items()).items()}
        want = ghost_to_jet({m: Fraction(x, g * h) for m, x in T.items()}, L)
        got = ghost_to_jet(T, L, g * h)
        assert (got, got.den) == (want, want.den)
        assert type(want) is sparse.Packed and all(type(c) is int and c for c in want.values())
        assert want.den > 0 and math.gcd(want.den, *want.values()) == 1

    @given(d=st.integers(1, 3), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_mono_mul_matches_normalising_concatenation(self, d, data):
        m1, m2 = data.draw(monomials(d)), data.draw(monomials(d))
        assert mono_mul(m1, m2) == _norm_mono(list(m1) + list(m2))

    @given(P=st.sampled_from([(5,), P57, P5711]), N=st.integers(0, 200), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_weight_keep_is_the_weight_cut(self, P, N, data):
        # the layout's cut is the key limit; a monomial survives packing
        # exactly when its weight is below N
        L = layout(P, N)
        for m in data.draw(st.lists(monomials(len(P)), max_size=12)) * 2:
            kept = pack_terms(L, [(m, 1)])
            assert bool(kept) == (mono_weight(m, P) < N)
            if all(i in L.var for i, _ in m):
                key = sum(e * L.var[i] for i, e in m)
                assert (key < L.limit) == (mono_weight(m, P) < N)
            if kept:
                ((key, _),) = kept.items()
                assert key < L.limit and L.unpack(key) == m


def ladder_case(P, N, k):
    """Monomials whose exponents reach the top of the layout of (P, N), at
    the prime p_k: x_0^(N-1) and x_(e_k)^top with top = (N - 1) // p_k, then
    x_(e_k)^2 and x_(e_k) in other monomials, so each ladder is grown to its
    top before a lower power is asked for.  x_(e_k) has a ghost image with
    denominator p_k, so the "g" exchange meets D_i > 1; so does x_(1,1) for
    d >= 2, of weight 35 < N."""
    d = len(P)
    zero = (0,) * d
    e_k = tuple(int(j == k) for j in range(d))
    top = (N - 1) // P[k]
    t = {
        ((e_k, top),): Fraction(3, 7),
        ((zero, N - 1),): Fraction(-2, P[k]),
        ((zero, 1), (e_k, top)): Fraction(5),
        ((zero, 3), (e_k, 2)): Fraction(1, 2 * P[-1]),
        ((zero, 2), (e_k, 1)): Fraction(-4, 3),
        ((e_k, 1),): Fraction(1, P[k] ** 2),
    }
    if d >= 2:
        t[(((1, 1) + zero[2:], 1),)] = Fraction(2, 9)
    return {_norm_mono(m): c for m, c in t.items()}


class TestPowerLadder:
    """Both exchanges at exponents up to the layout's top, against the
    Fraction reference, which raises each power by square-and-multiply."""

    @pytest.mark.parametrize("P", [(5,), (7,), P57, P5711])
    @pytest.mark.parametrize("exchange", ["g", "j"])
    def test_exchange_at_the_top_exponent(self, P, exchange):
        N = 40
        for k in range(len(P)):
            t = ladder_case(P, N, k)
            assert all(mono_weight(m, P) < N for m in t)
            route = jet_to_ghost if exchange == "g" else ghost_to_jet
            fraction_route = _jet_to_ghost_fraction if exchange == "g" else _ghost_to_jet_fraction
            assert packed(route, t, P, N) == fraction_route(t, P, weight_cut(P, N))

    def test_ladder_is_grown_out_of_order(self, monkeypatch):
        # x_(1)^7 comes first, so the ladder of x_(1) holds img^2 before the
        # monomial x_(1)^2 asks for it: six products build it, none repeats
        calls = []

        def counting_mul(t1, t2, limit):
            calls.append(1)
            return poly_mul(t1, t2, limit)

        monkeypatch.setattr(multiprime, "poly_mul", counting_mul)
        t = {(((1,), 7),): Fraction(1), (((1,), 2),): Fraction(1, 3)}
        got = packed(jet_to_ghost, t, (5,), 40)
        assert len(calls) == 6
        assert got == _jet_to_ghost_fraction(t, (5,), weight_cut((5,), 40))


@st.composite
def tuple_polys(draw, d):
    coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))
    return draw(st.dictionaries(monomials(d), coeffs, max_size=5))


class TestPackedMonomials:
    """Packed monomials against the tuple monomials and their ``mono_mul``."""

    @given(d=st.integers(1, 3), N=st.integers(0, 200), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_poly_mul_matches_tuple_reference(self, d, N, data):
        P = (P57[:1], P57, P5711)[d - 1]
        a, b = data.draw(tuple_polys(d)), data.draw(tuple_polys(d))
        L = layout(P, N)
        for m in {**a, **b}:
            if mono_weight(m, P) < N:
                ((key, _),) = pack_terms(L, [(m, 1)]).items()
                assert L.unpack(key) == m
        want = tuple_mul(a, b, weight_cut(P, N))
        got = poly_mul(pack_terms(L, a.items()), pack_terms(L, b.items()), L.limit)
        assert {L.unpack(m): c for m, c in got.items()} == want

    @pytest.mark.parametrize("P", [(5,), P5711])
    @pytest.mark.parametrize("N", [16, 17])
    def test_field_width_boundary(self, P, N):
        # The t field must hold 2 * (N - 1): at N = 16 that is 30, the most a
        # 5-bit field holds; at N = 17 it is 32, one more, and the field is 6
        # bits.  It is the top field, so a carry out of it would land in the
        # weight; x_n's field lies right under it.
        zero = (0,) * len(P)
        n = (0,) * (len(P) - 1) + (1,)
        L = layout(P, N)
        (i0, off0, _), (i1, off1, mask1) = L.fields[:2]
        assert (i0, i1, L.shift - off0, off0 - off1) == (zero, n, 5 if N == 16 else 6, mask1.bit_length())
        a = {_norm_mono([(zero, e)]): Fraction(e + 1) for e in range(N)}
        b = {**a, **{_norm_mono([(zero, e), (n, 1)]): Fraction(1, e + 2) for e in range(N)}}
        want = tuple_mul(a, b, weight_cut(P, N))
        got = poly_mul(pack_terms(L, a.items()), pack_terms(L, b.items()), L.limit)
        assert {L.unpack(m): c for m, c in got.items()} == want
        f = MultiJetSeries.make(P, b, N)
        for k, p in enumerate(P):
            assert phi_pk(f, k) == _phi_fraction(f, k, N * p)

    @pytest.mark.parametrize("P, N", [(P57, 21), (P5711, 33)])
    def test_ghost_shift_into_a_variable_the_input_lacks(self, P, N):
        # u_0^3 lands on u_{e_k}^3, a variable the input lacks, at weight
        # 3 p_k: below N, and exactly N for the last prime; the second term
        # lands past N
        zero = (0,) * len(P)
        t = {((zero, 3),): Fraction(2, 3), ((zero, 1), (zero[:-1] + (1,), 1)): Fraction(5)}
        for k in range(len(P)):
            want = {m: c for m, c in ghost_shift_reference(t, k).items() if mono_weight(m, P) < N}
            assert packed(ghost_shift, t, P, N, k) == want


class TestPhiPk:
    def test_generator_rule(self):
        t = t_generator(P57, 40)
        got = phi_pk(t, 0)
        want = MultiJetSeries.make(
            P57, {(((0, 0), 5),): 1, (((1, 0), 1),): 5}, 200
        )
        assert got == want

    def test_constant_fixed(self):
        c = MultiJetSeries.make(P57, {(): Fraction(2, 3)}, 20)
        assert phi_pk(c, 1) == c

    def test_lifts_commute_on_t(self):
        t = t_generator(P57, 40)
        a = phi_pk(phi_pk(t, 0), 1)
        b = phi_pk(phi_pk(t, 1), 0)
        assert a == b

    def test_lifts_commute_on_random_elements(self):
        rng = random.Random(5)
        for _ in range(5):
            f = random_series(rng, N=10)
            assert phi_pk(phi_pk(f, 0), 1) == phi_pk(phi_pk(f, 1), 0)

    def test_ring_homomorphism(self):
        rng = random.Random(9)
        a, b = random_series(rng), random_series(rng)
        assert phi_pk(a * b, 0) == phi_pk(a, 0) * phi_pk(b, 0)


@st.composite
def series_terms(draw, P):
    d = len(P)
    top = 2 if d == 1 else 1
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        mono = tuple(
            (tuple(draw(st.integers(0, top)) for _ in range(d)), draw(st.integers(1, 3)))
            for _ in range(draw(st.integers(1, 2)))
        )
        terms[mono] = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 6)))
    return terms


@st.composite
def series_lift_and_bound(draw):
    P = draw(st.sampled_from([(5,), P57, P5711]))
    terms = draw(series_terms(P))
    N = draw(st.integers(1, 16))
    k = draw(st.integers(0, len(P) - 1))
    return MultiJetSeries.make(P, terms, N), k, draw(st.integers(1, N))


class TestTruncatedLift:
    @given(case=series_lift_and_bound())
    # a term of weight ceil(bound / p_k) - 1, the heaviest one that lifts below the bound
    @example(case=(MultiJetSeries.make((5,), {(((0,), 1),): 1, (((0,), 2),): Fraction(1, 2)}, 9), 0, 10))
    @example(case=(MultiJetSeries.make(P57, {(((0, 0), 2), ((0, 1), 1)): Fraction(-3, 4)}, 70), 1, 64))
    @settings(max_examples=40, deadline=None)
    def test_truncate_then_lift_matches_lift_then_truncate(self, case):
        f, k, bound = case
        got = phi_pk_below(f, k, bound)
        want = _phi_fraction(f, k, bound)
        assert got.terms == want.terms and got.N == want.N == bound
        # truncate filters the sorted terms; make re-normalises and re-sorts
        for g in (f, phi_pk(f, k)):
            cut = g.truncate(bound)
            made = MultiJetSeries.make(g.P, dict(g.terms), min(g.N, bound), g.ring)
            assert (cut.P, cut.terms, cut.N, cut.ring) == (made.P, made.terms, made.N, made.ring)

    @given(case=series_lift_and_bound(), past=st.integers(1, 30))
    @example(case=(MultiJetSeries.make((5,), {(((0,), 3), ((1,), 1)): Fraction(1, 2), (((0,), 1),): 1}, 9), 0, 1), past=1)
    @example(case=(MultiJetSeries.make(P57, {(((0, 0), 2), ((0, 1), 1)): Fraction(-3, 4)}, 10), 1, 1), past=7)
    @settings(max_examples=25, deadline=None)
    def test_bound_past_the_lift_range(self, case, past):
        # ceil(bound / p_k) > f.N: phi_k(f) is known only below f.N * p_k,
        # so the result stops there; checked against the Fraction route.  The
        # examples carry a term at the top weight f.N - 1, the last one lifted
        f, k, _ = case
        want = _phi_fraction(f, k, f.N * f.P[k])
        got = phi_pk_below(f, k, f.N * f.P[k] + past)
        assert (got.terms, got.N, got.ring) == (want.terms, want.N, want.ring)


class TestDeltaPk:
    def test_generator(self):
        t = t_generator(P57, 30)
        assert delta_pk(t, 0) == MultiJetSeries.make(P57, {(((1, 0), 1),): 1}, 30)
        assert delta_pk(t, 1) == MultiJetSeries.make(P57, {(((0, 1), 1),): 1}, 30)

    def test_integer_constant(self):
        c = MultiJetSeries.make(P57, {(): 2}, 20)
        assert delta_pk(c, 0) == MultiJetSeries.make(P57, {(): fermat_delta(2, 5)}, 20)

    def test_commutator_identity_on_t(self):
        t = t_generator(P57, 40)
        lhs = delta_pk(delta_pk(t, 1), 0) - delta_pk(delta_pk(t, 0), 1)
        rhs = cross_prime_commutator(t, delta_pk(t, 0), delta_pk(t, 1), 5, 7)
        assert lhs == rhs

    def test_commutator_identity_on_random_elements(self):
        rng = random.Random(11)
        for _ in range(4):
            f = random_series(rng, N=10, nterms=2)
            d0, d1 = delta_pk(f, 0), delta_pk(f, 1)
            lhs = delta_pk(d1, 0) - delta_pk(d0, 1)
            rhs = cross_prime_commutator(f, d0, d1, 5, 7)
            assert lhs == rhs

    def test_commutator_identity_on_mixed_three_prime_monomials(self):
        # With a constant term, C_p(c, m) carries each monomial m's share of
        # the commutator at m's own weight, so the mixed terms show below N.
        rng = random.Random(17)
        E = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        mixed = tuple((e, 1) for e in E)
        series = []
        for _ in range(4):
            terms = {(): rng.choice([2, 3, -2]), mixed: Fraction(rng.choice([-2, 1, 3]), 2)}
            for _ in range(3):
                mono = tuple((e, rng.randint(1, 2)) for e in rng.sample(E, rng.randint(2, 3)))
                terms[mono] = Fraction(rng.choice([-3, -1, 1, 2, 4]), rng.choice([1, 2, 3]))
            series.append(MultiJetSeries.make(P5711, terms, 26))
        # and one with exponents up to 3 and a constant 1/3, at N = 40
        x = dict(zip("tabc", E))
        terms = {
            (): Fraction(1, 3),
            mixed: Fraction(3, 2),
            ((x["t"], 3), (x["c"], 1)): Fraction(-1, 2),
            ((x["a"], 2), (x["b"], 1)): Fraction(2),
            ((x["t"], 1), (x["b"], 3)): Fraction(4, 3),
            ((x["c"], 3),): Fraction(-3),
        }
        series.append(MultiJetSeries.make(P5711, terms, 40))
        for f in series:
            d = [delta_pk(f, k) for k in range(3)]
            for j, k in ((0, 1), (0, 2), (1, 2)):
                lhs = delta_pk(d[k], j) - delta_pk(d[j], k)
                assert lhs == cross_prime_commutator(f, d[j], d[k], P5711[j], P5711[k])
                assert lhs.coeff(mixed) != 0

    def test_phi_delta_commute(self):
        rng = random.Random(13)
        f = random_series(rng, N=10, nterms=2)
        assert phi_pk(delta_pk(f, 0), 1).truncate(10) == delta_pk(
            phi_pk(f, 1).truncate(10), 0
        )


class TestGhostDelta:
    @given(case=exchange_case(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_integer_output_matches_fraction_reference(self, case, data):
        # (shift(t) - t**p) / p in Fraction arithmetic on the packed kernel
        P, t, N, _ = case
        L = layout(P, N)
        k = data.draw(st.integers(0, len(P) - 1))
        g = pack_terms(L, t.items())
        tp = sparse.power(g, P[k], {0: Fraction(1)}, lambda a, b: poly_mul(a, b, L.limit))
        want = sparse.scale(sparse.add(ghost_shift(g, k, L), sparse.scale(tp, -1)), Fraction(1, P[k]))
        D = math.lcm(*(c.denominator for c in g.values()))
        num, den = ghost_delta({m: c.numerator * (D // c.denominator) for m, c in g.items()}, k, L, D)
        assert all(type(x) is int and x for x in num.values())
        assert {m: Fraction(x, den) for m, x in num.items()} == want


class TestBuildFe0:
    @pytest.mark.parametrize("P", [(5,), (7,), P57, (5, 13), P5711])
    @pytest.mark.parametrize("N", [-1, 0, 1, 2, 6, 30, 50])
    def test_matches_fraction_route(self, P, N):
        # the same bytes, or at N = -1 the same refusal from the layout
        def outcome(build):
            try:
                return dump(build(P, N).to_json())
            except DomainError as e:
                return str(e)

        assert outcome(build_fe0) == outcome(build_fe0_fraction)
        assert (N < 0) == outcome(build_fe0).startswith("N must be at least 0")

    def test_d1_equals_one_prime_route(self):
        fe0 = build_fe0([5], 30)
        psi = from_jet_series(psi_serretate(5, 30))
        assert fe0 == MultiJetSeries.make((5,), dict(psi.terms), 30, 0)

    def test_d2_denominators_coprime_to_35(self):
        fe0 = build_fe0(P57, 50)
        for _, c in fe0.terms:
            assert c.denominator % 5 != 0 and c.denominator % 7 != 0

    def test_pure_t_part_matches_substitution_oracle(self):
        # Setting the jet variables to zero must reproduce the action of
        # (phi_1 - p_1)(phi_2 - p_2)/(p_1 p_2) with phi_n acting as t -> t^n.
        N = 50
        fe0 = build_fe0(P57, N)
        pure = {}
        for m, c in fe0.terms:
            if all(i == (0, 0) for i, _ in m):
                e = sum(e for _, e in m)
                pure[e] = c
        want = {}
        for n in range(1, N):
            c = Fraction((-1) ** (n - 1), n)
            for e, w in ((35 * n, Fraction(1, 35)), (5 * n, Fraction(-1, 5)),
                         (7 * n, Fraction(-1, 7)), (n, Fraction(1))):
                if e < N:
                    want[e] = want.get(e, Fraction(0)) + c * w
        want = {e: c for e, c in want.items() if c}
        assert pure == want

    def test_small_primes_rejected(self):
        with pytest.raises(DomainError):
            build_fe0([3, 5], 20)


class TestGenCacheBound:
    """``_GEN_CACHE`` empties itself before it would pass ``_GEN_CACHE_MAX``
    entries; every entry is a pure function of its key, so the bytes stay."""

    def test_bounded_loop_matches_unbounded(self, monkeypatch):
        Ns = range(20, 211, 10)  # each N builds its own layout and the tables in it
        monkeypatch.setattr(multiprime, "_GEN_CACHE", {})
        monkeypatch.setattr(multiprime, "_GEN_CACHE_MAX", math.inf)
        want = [dump(build_fe0(P57, N).to_json()) for N in Ns]
        unbounded = len(multiprime._GEN_CACHE)
        sizes = []

        class Recording(dict):
            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                sizes.append(len(self))

        monkeypatch.setattr(multiprime, "_GEN_CACHE", Recording())
        monkeypatch.setattr(multiprime, "_GEN_CACHE_MAX", 16)
        got = [dump(build_fe0(P57, N).to_json()) for N in Ns]
        assert got == want
        assert unbounded > 16 and len(sizes) >= unbounded and max(sizes) <= 16


class TestGeneratorTables:
    """Each generator table is built in the layout that asks for it.  Both
    tables are homogeneous of weight wt(x_i) < N, so their values are those
    of the per-weight route, which built them in (P, wt(x_i) + 1) and moved them."""

    @given(
        P=st.lists(st.sampled_from((5, 7, 11, 13)), min_size=1, max_size=3, unique=True).map(lambda P: tuple(sorted(P))),
        N=st.integers(0, 60),
    )
    @settings(max_examples=60, deadline=None)
    def test_tables_match_the_per_weight_route(self, P, N):
        with mock.patch.object(multiprime, "_GEN_CACHE", {}):
            L = layout(P, N)
            for i, _, _ in L.fields:
                for kind in "gj":
                    assert generator_terms(L, i, kind) == reference_generator_terms(P, i, kind)

    def test_one_job_keeps_one_layout_and_its_tables(self, monkeypatch):
        monkeypatch.setattr(multiprime, "_GEN_CACHE", {})
        assert main(["fe-k", "--P", "5,7,11", "--k", "2", "--N", "30"]) == 0
        keys = list(multiprime._GEN_CACHE)
        assert (P5711, 30) in keys and len(keys) > 1
        for key in keys:
            assert key == (P5711, 30) or (key[:2] == (P5711, 30) and len(key) == 4 and key[3] in "gj"), key


def _psi_ghost_route(P, k, N):
    """Psi at p_k through ghost coordinates: log(1 + u_{e_k})/p_k - log(1 + u_0)."""
    d = len(P)
    e_k = tuple(int(j == k) for j in range(d))
    L = layout(P, N)
    g = {m: c / P[k] for m, c in ghost_log1p_var(e_k, L).items()}
    for m, c in ghost_log1p_var((0,) * d, L).items():
        g[m] = g.get(m, 0) - c
    return L.series(ghost_to_jet(g, L), k + 1)


class TestPsiMulti:
    @pytest.mark.parametrize(
        "P, k, N",
        [
            (P, k, N)
            for P in [(2,), (3,), (5,), (2, 3), P57, P5711]
            for k in range(len(P))
            for N in sorted({0, 1, P[k], P[k] + 1, 30})
        ],
    )
    def test_matches_ghost_route(self, P, k, N):
        assert psi_multi(P, k, N).to_json() == _psi_ghost_route(P, k, N).to_json()

    @pytest.mark.parametrize(
        "P, k, message",
        [
            ((7, 5), 0, "distinct and sorted"),
            ((5, 9), 0, "9 is not a prime"),
            (P57, 2, "prime index out of range"),
            (P57, -2, "prime index out of range"),
            (P57, -1, "prime index out of range"),
            ((5,), 1, "prime index out of range"),
            ((5,), -1, "prime index out of range"),
        ],
    )
    def test_outside_input_refused(self, P, k, message):
        # the layout does not validate, so psi_multi checks what it is given;
        # k = -1 would index the last prime
        with pytest.raises(DomainError, match=message):
            psi_multi(P, k, 10)

    def test_fe0_refuses_a_non_prime(self):
        with pytest.raises(DomainError, match="9 is not a prime"):
            build_fe0((9, 5), 10)


class TestBuildFeK:
    def test_d1_is_psi(self):
        assert build_fe_k([5], 0, 30) == psi_multi((5,), 0, 30)

    def test_d2_formula_route(self):
        # -(1 - phi_7/7) Psi_5 expanded by hand from the operator definition
        N = 40
        psi5 = psi_multi(P57, 0, N)
        want = (phi_pk(psi5, 1).truncate(N) * Fraction(1, 7) - psi5)
        assert build_fe_k(P57, 0, N) == want

    @pytest.mark.parametrize("k", [0, 1])
    def test_agrees_with_fe0(self, k):
        N = 50
        assert build_fe_k(P57, k, N) == build_fe0(P57, N)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_d3_agrees_with_fe0(self, k):
        got, want = build_fe_k(P5711, k, 50), build_fe0(P5711, 50)
        assert got.terms == want.terms and got.N == want.N

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_d3_matches_public_route(self, k):
        # (1 - phi_l / p_l) for each l != k through the public phi_pk, its
        # truncation and series arithmetic, one series per step
        N = 40
        out = psi_multi(P5711, k, N)
        for l in range(3):
            if l != k:
                out = out - phi_pk(out, l).truncate(N) * Fraction(1, P5711[l])
        got = build_fe_k(P5711, k, N)
        assert (got.P, got.terms, got.N, got.ring) == (out.P, out.terms, out.N, out.ring)

    @pytest.mark.parametrize("P, N", [(P57, 20), (P5711, 30)])
    def test_equal_across_rings_hash_alike(self, P, N):
        # == ignores the ring tag; the hash kept it, so a set of these d + 1
        # equal series had d + 1 elements
        family = [build_fe0(P, N)] + [build_fe_k(P, k, N) for k in range(len(P))]
        assert all(f == family[0] for f in family) and len({f.ring for f in family}) == len(P) + 1
        assert len({hash(f) for f in family}) == 1 and len(set(family)) == 1

    @given(P=st.sets(st.sampled_from(PRIMES_5_23), min_size=3, max_size=3), N=st.integers(0, 36), data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_d3_drawn_agrees_with_fe0(self, P, N, data):
        check_fe_k_agrees_with_fe0(P, N, data)

    @given(P=st.sets(st.sampled_from(PRIMES_5_23), min_size=4, max_size=4), N=st.integers(0, 60), data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_d4_drawn_agrees_with_fe0(self, P, N, data):
        check_fe_k_agrees_with_fe0(P, N, data)


def check_fe_k_agrees_with_fe0(P, N, data):
    """build_fe_k at a drawn k against build_fe0, over the drawn prime set P."""
    P, k = tuple(sorted(P)), data.draw(st.integers(0, len(P) - 1), label="k")
    got, want = build_fe_k(P, k, N), build_fe0(P, N)
    assert (got.terms, got.N, got.ring) == (want.terms, want.N, k + 1)
    assert got == want and hash(got) == hash(want)


def check_padic_roundtrip_and_a_drawn_fault(P, N, data):
    """The members of fe0 reduced at M digits glue back to fe0 when every
    coefficient fits the height; a residue raised by 1 at a drawn member and
    key either has no reconstruction there, the witness, or glues to a series
    that differs from fe0 at that key alone."""
    P, M = tuple(sorted(P)), data.draw(st.integers(4, 8), label="M")
    f0 = build_fe0(P, N)
    height = max((max(abs(c.numerator), c.denominator) for _, c in f0.terms), default=1)
    assume(height <= math.isqrt(math.prod(P) ** M // 2))
    fam = [reduce_to_padic(f0, k, M) for k in range(len(P))]
    res = continuation_check(fam, height=height)
    assert res.ok and res.f0 == f0 and res.f0.terms == f0.terms
    assume(f0.terms)
    j = data.draw(st.integers(0, len(P) - 1), label="member")
    m, c = data.draw(st.sampled_from(fam[j].terms), label="term")
    bad = {**dict(fam[j].terms), m: PadicTrunc(c.p, c.M, c.residue + 1, c.digits)}
    fam[j] = MultiJetSeries.make(P, bad, N, ring=j + 1)
    res = continuation_check(fam, height=height)
    if res.ok:
        assert [m2 for m2, c2 in f0.coeffs.items() if res.f0.coeff(m2) != c2] == [m]
    else:
        assert res.witness == m and res.f0 is None


@st.composite
def continuation_family(draw):
    """A family for ``continuation_check`` and a height (or None): exact
    members that copy a drawn series f0, whose denominators may hold a prime
    of P, or the reductions of f0 at M digits, one per prime.  Up to three
    drawn faults follow at a drawn member and key: a coefficient dropped, or
    changed (a p-adic residue raised by 1) or added, and at a p-adic member
    also a coefficient left with no guaranteed digit."""
    P, N, padic = draw(primes_5_23()), draw(st.integers(0, 80)), draw(st.booleans())
    top, dens = (2 if len(P) == 1 else 1), [1, 2, 3, 4, 6] + ([] if padic else list(P))
    mono = st.lists(
        st.tuples(st.tuples(*[st.integers(0, top)] * len(P)), st.integers(1, 3)), min_size=1, max_size=2
    ).map(tuple)
    ratio = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(dens))
    f0 = MultiJetSeries.make(P, draw(st.dictionaries(mono, ratio, min_size=1, max_size=5)), N)
    if padic:
        M = draw(st.integers(1, 8), label="M")
        family = [reduce_to_padic(f0, k, M) for k in range(len(P))]
    else:
        family = [MultiJetSeries(P, f0._store, N, draw(st.integers(0, len(P)))) for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(0, len(family) - 1), label="member")
        terms, ring = dict(family[j].terms), family[j].ring
        m = draw(st.sampled_from(sorted(terms)) if terms and draw(st.booleans()) else mono, label="key")
        fault = draw(st.sampled_from(["change", "drop", "no digit"] if padic else ["change", "drop"]))
        if fault == "drop":
            terms.pop(m, None)
        elif not padic:
            terms[m] = draw(ratio)
        else:
            p, c = P[j], terms.get(m, PadicTrunc(P[j], M, draw(st.integers(0, 10**6)), M))
            terms[m] = PadicTrunc(p, M, c.residue + (fault != "no digit"), 0 if fault == "no digit" else c.digits)
        family[j] = MultiJetSeries.make(P, terms, N, ring)
    return family, draw(st.none() | st.integers(1, 10**4), label="height")


class TestContinuation:
    @given(P=st.sets(st.sampled_from(PRIMES_5_23), min_size=3, max_size=3), N=st.integers(1, 30), data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_d3_padic_roundtrip_and_a_drawn_fault(self, P, N, data):
        check_padic_roundtrip_and_a_drawn_fault(P, N, data)

    @given(P=st.sets(st.sampled_from(PRIMES_5_23), min_size=4, max_size=4), N=st.integers(1, 60), data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_d4_padic_roundtrip_and_a_drawn_fault(self, P, N, data):
        check_padic_roundtrip_and_a_drawn_fault(P, N, data)

    @given(case=continuation_family())
    @settings(max_examples=200, deadline=None)
    def test_one_walk_matches_the_two_loops(self, case):
        # report text, witness, details, f0 and verdict, or the same refusal
        family, height = case
        try:
            want = continuation_check_two_loops(family, height)
        except DomainError as e:
            with pytest.raises(DomainError, match=f"^{re.escape(str(e))}$"):
                continuation_check(family, height=height)
            return
        got = continuation_check(family, height=height)
        assert got.to_text() == want.to_text()
        assert (got.ok, got.witness, got.details) == (want.ok, want.witness, want.details)
        if want.ok:
            assert not got.f0.is_padic() and got.f0.terms == want.f0.terms and got.f0.ring == 0

    def test_a_zero_digit_coefficient_after_the_witness_is_not_reached(self):
        # the key at weight 2 is known to no digit: when the key at weight 1
        # fails its reconstruction first, it is the witness and t2 is never read
        t1, t2 = (((0, 0), 1),), (((0, 0), 2),)
        f0 = MultiJetSeries.make(P57, {t1: 3, t2: 5}, 14)
        fam = [reduce_to_padic(f0, 0, 8), reduce_to_padic(f0, 1, 8)]
        for c, raises in ((4, False), (3, True)):  # t1 fails, or glues and t2 is read
            fam[1] = MultiJetSeries.make(P57, {t1: PadicTrunc(7, 8, c, 8), t2: PadicTrunc(7, 8, 5, 0)}, 14, ring=2)
            if raises:
                with pytest.raises(DomainError, match="^modulus exponent must be positive$"):
                    continuation_check(fam, height=100)
            else:
                res = continuation_check(fam, height=100)
                assert not res.ok and res.witness == t1 and res == continuation_check_two_loops(fam, 100)

    def test_exact_roundtrip(self):
        fe01 = build_fe_k(P57, 0, 30)
        fe02 = build_fe_k(P57, 1, 30)
        res = continuation_check([fe01, fe02])
        assert res.ok
        assert res.f0 == build_fe0(P57, 30)

    def test_padic_roundtrip(self):
        rng = random.Random(17)
        f0 = random_series(rng, N=14, nterms=4)
        fam = [reduce_to_padic(f0, 0, 8), reduce_to_padic(f0, 1, 8)]
        res = continuation_check(fam, height=10_000)
        assert res.ok
        assert res.f0 == f0

    def test_perturbation_detected_with_witness(self):
        rng = random.Random(19)
        f0 = random_series(rng, N=14, nterms=4)
        fam = [reduce_to_padic(f0, 0, 8), reduce_to_padic(f0, 1, 8)]
        m0, c0 = fam[1].terms[0]
        bad = dict(fam[1].terms)
        bad[m0] = PadicTrunc(c0.p, c0.M, c0.residue + 1, c0.digits)
        fam[1] = MultiJetSeries.make(P57, bad, 14, ring=2)
        res = continuation_check(fam, height=10_000)
        assert not res.ok
        assert res.witness == m0

    @pytest.mark.parametrize("ring, p", [(1, 11), (1, 7), (2, 5), (0, 5)])
    def test_make_refuses_a_coefficient_at_another_prime(self, ring, p):
        # make shares from_json's check, so no such member reaches continuation_check
        c, message = PadicTrunc(p, 8, 3, 8), f"ring {ring} holds no {p}-adic coefficient"
        with pytest.raises(DomainError, match=message):
            MultiJetSeries.make(P57, {(((0, 0), 1),): c}, 8, ring=ring)
        obj = {"P": list(P57), "N": 8, "ring": ring, "terms": [[[[[0, 0], 1]], c.to_json()]]}
        with pytest.raises(DomainError, match=message):
            MultiJetSeries.from_json(obj)

    def test_make_refuses_a_store_of_both_kinds(self):
        # continuation_check read a rational in a p-adic member as known to 8 digits
        x, t, c = (((1, 0), 1),), (((0, 0), 1),), PadicTrunc(5, 8, 3, 8)
        with pytest.raises(DomainError, match="^a series holds rational or p-adic coefficients, not both$"):
            MultiJetSeries.make(P57, {t: c, x: Fraction(1, 3)}, 8, ring=1)
        # a later rational that replaces the one p-adic coefficient leaves an exact series
        f = MultiJetSeries.make(P57, {t: c, x: Fraction(1, 3), ((t[0][0], 1),): 2}, 8, ring=1)
        assert not f.is_padic() and dict(f.terms) == {x: Fraction(1, 3), t: Fraction(2)}

    def test_a_missing_key_reads_as_zero_known_to_eight_digits(self):
        t, x = (((0, 0), 1),), (((1, 0), 1),)
        second = MultiJetSeries.make(P57, {x: PadicTrunc(7, 8, 2, 8)}, 8, ring=2)
        full = [MultiJetSeries.make(P57, {t: PadicTrunc(5, 8, 0, 8), x: PadicTrunc(5, 8, 2, 8)}, 8, ring=1), second]
        missing = [MultiJetSeries.make(P57, {x: PadicTrunc(5, 8, 2, 8)}, 8, ring=1), second]
        for height in (None, 3):
            want = continuation_check(full, height=height)
            assert continuation_check(missing, height=height) == want and want.ok
            assert want.f0.terms == ((x, Fraction(2)),)

    @pytest.mark.parametrize("k", [2, -1, -3])
    def test_reduce_to_padic_refuses_a_prime_index_out_of_range(self, k):
        # len(P), -1 and -len(P) - 1: an IndexError, a reduction at the last
        # prime into ring 0, and an IndexError before the check
        f = multiprime.build_fe0(P57, 10)
        with pytest.raises(DomainError, match="^prime index out of range$"):
            reduce_to_padic(f, k, 6)

    def test_reduce_to_padic_refuses_a_coefficient_that_is_not_pk_integral(self):
        # numerators over a den of 25 * 7: t^2's 35 is not a multiple of 25 although 5
        # divides it; of two offenders the first in monomial order is named
        t, x = (((0, 0), 1),), (((1, 0), 1),)
        f = MultiJetSeries.make(P57, {t: Fraction(3, 7), ((t[0][0], 2),): Fraction(1, 5), x: Fraction(1, 25)}, 8)
        with pytest.raises(DomainError, match="^1/5 is not p-integral at p=5$"):
            reduce_to_padic(f, 0, 6)
        with pytest.raises(DomainError, match="^3/7 is not p-integral at p=7$"):
            reduce_to_padic(f, 1, 6)
        g = MultiJetSeries.make(P57, {t: Fraction(3, 2), x: Fraction(-10, 3), ((t[0][0], 2),): Fraction(7, 11)}, 8)
        for k, p in enumerate(P57):
            got = reduce_to_padic(g, k, 6)
            assert got.ring == k + 1 and got.is_padic()
            assert {m: (c.p, c.M, c.residue, c.digits) for m, c in got.terms} == {
                m: (p, 6, reduce_rational_mod(c, p, 6), 6) for m, c in g.terms
            }

    def test_a_pass_with_no_height_certifies_only_a_gluing(self):
        # fe0 (5,7,11) N 30 reduced at M 6, the 11-adic residue at x_(1,0,0)^5
        # raised by 1: with no height, a rational of height under sqrt(m/2), m
        # the combined modulus, glues the three residues, so the check passes
        # with a wrong f0; at 343, the height of fe0's coefficients, the key is
        # the witness
        P, m = (5, 7, 11), (((1, 0, 0), 5),)
        f0 = build_fe0(P, 30)
        fam = [reduce_to_padic(f0, k, 6) for k in range(3)]
        c = fam[2].coeff(m)
        fam[2] = MultiJetSeries.make(P, {**dict(fam[2].terms), m: PadicTrunc(11, 6, c.residue + 1, 6)}, 30, ring=3)
        res = continuation_check(fam)
        assert res.ok and f0.coeff(m) == 125 and res.f0.coeff(m) == Fraction(10132000, 14787181)
        assert [m2 for m2, c2 in f0.coeffs.items() if res.f0.coeff(m2) != c2] == [m]
        res = continuation_check(fam, height=343)
        assert not res.ok and res.witness == m and res.f0 is None

    def test_exact_mismatch_witness(self):
        a = build_fe0(P57, 20)
        bad = dict(a.terms)
        m0 = a.terms[0][0]
        bad[m0] = bad[m0] + 1
        b = MultiJetSeries.make(P57, bad, 20, 0)
        res = continuation_check([a, b])
        assert not res.ok and res.witness == m0

    def test_exact_members_that_agree_on_a_non_integral_coefficient_fail(self):
        # 1/7 agrees across the members but is not P-integral: the first such
        # key in weight order is the witness, though every key agrees
        for P, c in ((P57, Fraction(1, 7)), (P57, Fraction(2, 35)), (P5711, Fraction(3, 22))):
            t, x = ((((0,) * len(P), e),) for e in (1, 2))
            f = MultiJetSeries.make(P, {t: Fraction(1, 2), x: c}, 10)
            res = continuation_check([f, f, f])
            assert (res.ok, res.witness, res.details, res.f0) == (False, x, (format_rational(c),) * 3, None)
        t, x = (((0, 0), 1),), (((0, 0), 2),)
        f = MultiJetSeries.make(P57, {t: Fraction(1, 2), x: Fraction(1, 3)}, 10)
        assert continuation_check([f, f]).f0 == f

    def test_height_miss_is_a_witness(self):
        m0 = (((0, 0), 1),)
        f0 = MultiJetSeries.make(P57, {m0: Fraction(12345, 2)}, 14)
        fam = [reduce_to_padic(f0, 0, 8), reduce_to_padic(f0, 1, 8)]
        res = continuation_check(fam, height=100)
        assert not res.ok and res.witness == m0

    def test_witness_at_the_monomial_one_exact(self):
        # two members that differ only in the constant term: the witness is
        # the monomial 1, written as [], not as null
        t = (((0, 0), 1),)
        a, b = (MultiJetSeries.make(P57, {(): c, t: 1}, 10) for c in (1, 3))
        res = continuation_check([a, b])
        assert res.witness == ()
        assert dump(res.to_json()) == '{"details":["1","3"],"f0":null,"pass":false,"witness":[]}\n'

    def test_witness_at_the_monomial_one_padic(self):
        f0 = MultiJetSeries.make(P57, {(): Fraction(12345, 2), (((0, 0), 1),): 1}, 14)
        res = continuation_check([reduce_to_padic(f0, 0, 8), reduce_to_padic(f0, 1, 8)], height=100)
        assert not res.ok and res.witness == ()
        assert res.to_json()["witness"] == []

    def test_zero_digit_coefficient_raises(self):
        m0 = (((0, 0), 1),)
        f0 = MultiJetSeries.make(P57, {m0: 3}, 14)
        fam = [
            reduce_to_padic(f0, 0, 8),
            MultiJetSeries.make(P57, {m0: PadicTrunc(7, 8, 3, 0)}, 14, ring=2),
        ]
        with pytest.raises(DomainError):
            continuation_check(fam, height=10_000)


@st.composite
def rational_matrices(draw):
    """0-6 rows of 0-8 columns over the denominators 1, 2, p and p*q.  A row
    is drawn free, zero, or as a rational combination of the rows before
    it; the rows are then shuffled."""
    p, q = draw(st.sampled_from([P57, (5, 11), (7, 13)]))
    ncols = draw(st.integers(0, 8))
    num = st.one_of(st.just(0), st.integers(-9, 9))
    entry = st.builds(Fraction, num, st.sampled_from([1, 2, p, p * q]))
    rows: list[list[Fraction]] = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["free", "zero", "combination"]))
        if kind == "zero":
            rows.append([Fraction(0)] * ncols)
        elif kind == "combination" and rows:
            coeffs = [draw(entry) for _ in rows]
            rows.append([sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0)) for j in range(ncols)])
        else:
            rows.append([draw(entry) for _ in range(ncols)])
    return draw(st.permutations(rows))


@st.composite
def basis_case(draw, d):
    """P of d primes from 5..13, r <= 2 (<= 3 at d = 1), and N from just above
    the deepest shift's starting weight to twice it, below 200."""
    P = tuple(sorted(draw(st.sets(st.sampled_from((5, 7, 11, 13)), min_size=d, max_size=d))))
    r = tuple(draw(st.lists(st.integers(1, 3 if d == 1 else 2), min_size=d, max_size=d)))
    deepest = math.prod(p ** (x - 1) for p, x in zip(P, r))
    assume(deepest < 199)
    return P, r, draw(st.integers(deepest + 1, min(2 * deepest + 1, 199)))


class TestBasisIndependence:
    def test_d1_rank_one(self):
        rep = basis_independence_check([5], [1], 30)
        assert rep.ok and rep.rank == 1

    def test_d1_rank_two(self):
        rep = basis_independence_check([5], [2], 30)
        assert rep.ok and rep.rank == 2

    def test_d2_rank_four(self):
        rep = basis_independence_check(P57, (2, 2), 50)
        assert rep.ok and rep.rank == 4

    @pytest.mark.parametrize("r, N", [((2, 2, 1), 50), ((3, 1, 1), 80)])
    def test_d3_full_rank(self, r, N):
        rep = basis_independence_check(P5711, r, N)
        assert rep.ok and rep.rank == rep.expected

    def test_four_by_four_at_the_smallest_usable_N(self):
        # 5^3 * 7^3 = 42,875 is where the deepest shift starts
        rep = basis_independence_check(P57, (4, 4), 42876)
        assert rep.ok and rep.rank == 16

    @pytest.mark.parametrize("d", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_report_matches_jet_route(self, d, data):
        P, r, N = data.draw(basis_case(d))
        assert basis_independence_check(P, r, N) == basis_rank_jet_route(P, r, N)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_ghost_rows_are_the_jet_shifts_in_ghost_coordinates(self, d, data):
        # jet_to_ghost of each reference shift, times lcm(1..N-1) * prod P,
        # is the ghost row with the column of u_j^n multiplied back by
        # lcm(1..N-1) / n, term for term
        P, r, N = data.draw(basis_case(d))
        L, ref = basis_shifts_jet_route(P, r, N)
        rows = _ghost_shifts(L.P, r, L)
        assert list(rows) == list(ref)
        lcm, prod_P = math.lcm(*range(1, N)), math.prod(P)
        for s, t in ref.items():
            g = jet_to_ghost(t, L, t.den)
            want = {m: Fraction(x * lcm * prod_P, g.den) for m, x in g.items()}
            got = {}
            for m, x in rows[s].items():
                ((_, n),) = L.unpack(m)  # every ghost term is a power of one u_j
                got[m] = Fraction(x * lcm, n)
            assert got == want, s

    def test_exact_rank_helper(self):
        rows = [[1, 2, 0], [2, 4, 0], [0, 1, 1]]
        assert exact_rank(rows) == 2

    @given(rows=rational_matrices())
    @example(rows=[])
    @example(rows=[[]])
    @example(rows=[[], [], []])
    @example(rows=[[Fraction(0)] * 8] * 6)
    @example(rows=[[Fraction(1, 2), Fraction(1, 3)], [Fraction(1), Fraction(1)]])
    @example(rows=[[Fraction(1, 5), Fraction(2, 35)], [Fraction(7), Fraction(2)]])
    @settings(max_examples=200, deadline=None)
    def test_exact_rank_matches_fraction_elimination(self, rows):
        # each row scaled by the lcm of its denominators, which keeps the rank
        scaled = []
        for row in rows:
            D = math.lcm(*(x.denominator for x in row))
            scaled.append([x.numerator * (D // x.denominator) for x in row])
        before = [row[:] for row in scaled]
        assert exact_rank(scaled) == exact_rank_fraction(rows)
        assert scaled == before

    @pytest.mark.parametrize(
        "P, r",
        [((5,), (3,)), ((7,), (2,)), (P57, (2, 2)), (P57, (3, 1)), (P5711, (1, 1, 2)), (P5711, (2, 2, 1))],
    )
    def test_rank_matches_public_route(self, P, r):
        # N just above the deepest shift's starting weight; the reference
        # lifts each shift from f^e_0 by the Fraction route, truncated at N,
        # and keys by Mono
        N = math.prod(p ** (x - 1) for p, x in zip(P, r)) + 1
        fe0 = build_fe0(P, N)
        series = []
        for s in itertools.product(*(range(1, top + 1) for top in r)):
            f = fe0
            for k in range(len(P)):
                for _ in range(s[k] - 1):
                    f = _phi_fraction(f, k, N)
            series.append(f)
        monos = sorted({m for f in series for m, _ in f.terms})
        want = exact_rank_fraction([[f.coeffs.get(m, Fraction(0)) for m in monos] for f in series])
        rep = basis_independence_check(P, r, N)
        assert (rep.N, rep.rank, rep.expected) == (N, want, math.prod(r))


def _gamma_image(gamma, P, N):
    """u_i -> sum_n C(gamma, n) u_i^n as Fraction polynomials, for ``_subst_fraction``."""

    def image(i):
        top = (N - 1) // var_weight(i, P)
        return {((i, n),): Fraction(binomial(gamma, n)) for n in range(1, top + 1)}

    return image


def _subst_gamma_reference(f, gamma):
    """``substitute_gamma`` through the Fraction route ``_subst_fraction``."""
    keep = weight_cut(f.P, f.N)
    g = _jet_to_ghost_fraction(dict(f.terms), f.P, keep)
    g = _subst_fraction(g, f.P, _gamma_image(gamma, f.P, f.N), keep)
    return MultiJetSeries.make(f.P, _ghost_to_jet_fraction(g, f.P, keep), f.N, f.ring)


@st.composite
def gammas(draw, p):
    return draw(
        st.one_of(
            st.integers(-12, -2),
            st.integers(2, 12),
            st.integers(-3, 3).map(lambda s: p**6 + s),
        )
    )


@st.composite
def series_and_gamma(draw):
    P = draw(st.sampled_from([(5,), P57, P5711]))
    f = MultiJetSeries.make(P, draw(series_terms(P)), draw(st.integers(1, 40)))
    return f, draw(st.integers(0, len(P) - 1)), draw(gammas(P[0]))


def same(a, b):
    return a.terms == b.terms and a.N == b.N


class TestSubstituteGamma:
    @given(case=series_and_gamma())
    @settings(max_examples=40, deadline=None)
    def test_matches_fraction_route(self, case):
        f, _, gamma = case
        assert same(substitute_gamma(f, gamma), _subst_gamma_reference(f, gamma))

    @given(case=series_and_gamma())
    @example(case=(MultiJetSeries.make((5,), {(((0,), 1), ((1,), 1)): 1}, 8), 0, 3))
    @settings(max_examples=40, deadline=None)
    def test_ghost_step_matches_subst(self, case):
        f, _, gamma = case
        L = layout(f.P, f.N)
        t = f._packed(L)
        g = jet_to_ghost(t, L, t.den)
        want = _subst_fraction(
            {L.unpack(m): Fraction(c, g.den) for m, c in g.items()}, f.P, _gamma_image(gamma, f.P, f.N), weight_cut(f.P, f.N)
        )
        num = ghost_gamma(g, L, gamma)
        assert all(type(x) is int for x in num.values())
        assert {L.unpack(m): Fraction(x, g.den) for m, x in num.items()} == want

    @given(case=series_and_gamma(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_composition(self, case, data):
        f, _, g1 = case
        g2 = data.draw(gammas(f.P[-1]))
        assert same(substitute_gamma(substitute_gamma(f, g2), g1), substitute_gamma(f, g1 * g2))

    @given(case=series_and_gamma(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_multiplicative(self, case, data):
        f, _, gamma = case
        h = MultiJetSeries.make(f.P, data.draw(series_terms(f.P)), f.N)
        assert same(substitute_gamma(f * h, gamma), substitute_gamma(f, gamma) * substitute_gamma(h, gamma))

    @given(case=series_and_gamma(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_commutes_with_lifts(self, case, data):
        f, k, gamma = case
        bound = data.draw(st.integers(1, f.N))
        assert same(
            substitute_gamma(phi_pk_below(f, k, bound), gamma),
            phi_pk_below(substitute_gamma(f, gamma), k, bound),
        )

    @given(P=st.sampled_from([(5,), P57, P5711]), N=st.integers(1, 30), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_image_of_t_is_binomial_series(self, P, N, data):
        gamma = data.draw(gammas(P[0]))
        zero = (0,) * len(P)
        want = {((zero, n),): binomial(gamma, n) for n in range(1, N)}
        assert same(substitute_gamma(t_generator(P, N), gamma), MultiJetSeries.make(P, want, N))

    @pytest.mark.parametrize(
        "fname, build, gamma",
        [
            ("subst_gamma24_fe0_P5_7_N30.json", lambda: build_fe0(P57, 30), 24),
            ("subst_gamma2585672_psi_P13_N20.json", lambda: psi_multi((13,), 0, 20), 2585672),
        ],
    )
    def test_payload_bytes_pinned(self, fname, build, gamma):
        path = os.path.join(os.path.dirname(__file__), "golden", fname)
        with open(path, encoding="utf-8") as fh:
            assert dump(substitute_gamma(build(), gamma).to_json()) == fh.read()

    def test_psi_is_eigenvector(self):
        psi = psi_multi((5,), 0, 25)
        assert substitute_gamma(psi, 2) == psi * 2
        assert substitute_gamma(psi, 3) == psi * 3

    def test_fe0_is_eigenvector(self):
        fe0 = build_fe0(P57, 30)
        assert substitute_gamma(fe0, 2) == fe0 * 2

    def test_t_is_not(self):
        t = t_generator((5,), 10, ring=1)
        got = substitute_gamma(t, 2)
        assert got != t * 2

    def test_roots_of_unity_rejected(self):
        with pytest.raises(DomainError):
            substitute_gamma(t_generator(P57, 10), 1)


@st.composite
def primes_5_23(draw):
    """P of d = 1, 2 or 3 primes from 5..23, sorted."""
    return tuple(sorted(draw(st.sets(st.sampled_from(PRIMES_5_23), min_size=1, max_size=3))))


@st.composite
def corner_case(draw):
    """P, N from 0 to 60, a polynomial per prime of degree 0 to 2 with zero
    coefficients likely, and f of any length with zero entries likely."""
    P = draw(primes_5_23())
    polys = [draw(st.lists(st.sampled_from((0, 1, -1, 3, -7)), min_size=1, max_size=3)) for _ in P]
    f = draw(st.lists(st.sampled_from((0, 1, -2, 5, 10**20)), min_size=1, max_size=62))
    return P, draw(st.integers(0, 60)), polys, f


class TestCorners:
    """``_corners`` against the corner loops it replaced (``tests/_helpers.py``)."""

    @given(case=corner_case())
    @example(case=((5, 7), 0, [(1, 2), (3, 0)], [4, 1]))  # the zero ring: no key, not even 0
    @example(case=((5, 7), 1, [(1, 2), (3, 0)], [4, 1]))  # only key 0, added over the corners
    @example(case=((5, 7, 11), 60, [(2, 0, 1), (0, -1), (1, 1, 1)], [3, 0, 1, 0, 2] * 12))
    @example(case=((5, 13), 40, [(13, -14, 1), (1, 1)], [-1, 1]))  # the constants cancel at key 0
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_rows(self, case):
        P, N, polys, f = case
        L = layout(P, N)
        got = _corners(L, polys, f)
        assert all(0 <= m < L.limit for m in got) and got.get(0) != 0
        assert {m: x for m, x in got.items() if x} == scalar_rows(corner_scalars(polys), f, L)

    @given(P=primes_5_23(), N=st.integers(0, 60))
    @example(P=(5,), N=0)
    @example(P=(5, 7, 11), N=1)
    @settings(max_examples=40, deadline=None)
    def test_fe0_and_the_rank_base_row_match_their_loops(self, P, N):
        L = layout(P, N)
        want = L.series(ghost_to_jet(fe0_ghost_loop(P, N, L), L, math.lcm(*range(1, N)) * math.prod(P)), 0)
        assert dump(build_fe0(P, N).to_json()) == dump(want.to_json())
        base = (1,) * len(P)
        assert _ghost_shifts(P, base, L) == {base: rank_base_loop(P, L)}


@st.composite
def ghost_gamma_case(draw):
    """P and N from 0 to 60, up to six ghost monomials of up to three
    variables each below weight N, as ((index, exponent), ...) with a
    coefficient, and gamma 2 or 3 (C(gamma, n) vanishes past gamma),
    negative, or p^6 +- s for a prime p of P."""
    P, N = draw(primes_5_23()), draw(st.integers(0, 60))
    index = [i for i, _, _ in layout(P, N).fields]
    terms = []
    for _ in range(draw(st.integers(0, 6)) if index else 0):
        mono = tuple(
            (i, draw(st.integers(1, max(1, (N - 1) // var_weight(i, P)))))
            for i in draw(st.lists(st.sampled_from(index), min_size=1, max_size=3, unique=True))
        )
        terms.append((mono, draw(st.integers(-(10**6), 10**6).filter(bool))))
    p = draw(st.sampled_from(P))
    gamma = draw(st.one_of(st.sampled_from((2, 3)), st.integers(-40, -2), st.integers(-3, 3).map(lambda s: p**6 + s)))
    return P, N, terms, gamma


class TestGhostGammaTable:
    @given(case=ghost_gamma_case())
    @example(case=((5,), 0, [], 2))
    @example(case=((5,), 1, [((), 3)], 3))
    @example(case=((5,), 40, [((((0,), 39),), 1), ((((0,), 13),), 2)], 3))  # rows up to degree N - 1
    @settings(max_examples=80, deadline=None)
    def test_one_table_matches_the_per_top_tables(self, case):
        P, N, terms, gamma = case
        L = layout(P, N)
        t = {}
        for mono, c in terms:
            if (key := sum(e * L.var[i] for i, e in mono)) < L.limit:
                t[key] = c
        assert ghost_gamma(t, L, gamma) == ghost_gamma_per_top(t, L, gamma)

    @given(
        gamma=st.one_of(st.integers(-60, 60), st.integers(1000, 10**12), st.integers(-(10**12), -1000)),
        N=st.integers(0, 40),
        extra=st.integers(0, 4),
    )
    @example(gamma=-5, N=0, extra=3)
    @example(gamma=1000, N=1, extra=3)
    @example(gamma=-1527148, N=2, extra=3)
    @example(gamma=43971214, N=30, extra=0)
    @settings(max_examples=60, deadline=None)
    def test_recurrence_rows_match_the_convolved_rows(self, gamma, N, extra):
        # rows e >= N, all zero, included
        want = gamma_rows_convolved(gamma, N, N + extra + 1)
        rows = want[:1]
        while len(rows) < len(want):
            rows.append(_gamma_row(rows[-1], len(rows), gamma, N))
        assert rows == want


class TestBridges:
    def test_jet_series_roundtrip(self):
        # the bridge is a view: the d=1 series of the same store, as the plain type
        psi = psi_serretate(5, 20)
        F = from_jet_series(psi)
        assert type(F) is MultiJetSeries and F._store is psi._store
        assert (F.P, F.N, F.ring) == (psi.P, psi.N, psi.ring) and F == psi and hash(F) == hash(psi)

    def test_json_roundtrip(self):
        fe0 = build_fe0(P57, 30)
        assert MultiJetSeries.from_json(fe0.to_json()) == fe0

    def test_padic_json_roundtrip(self):
        f = reduce_to_padic(build_fe0(P57, 20), 0, 6)
        assert MultiJetSeries.from_json(f.to_json()) == f


def from_json_normalising_twice(obj):
    """``MultiJetSeries.from_json`` as it was: each monomial normalised on
    decoding, the last coefficient of a normalised monomial kept, then
    normalised again by ``make``."""
    terms = {}
    for mono, c in obj["terms"]:
        terms[_norm_mono([(tuple(int(x) for x in i), int(e)) for i, e in mono])] = decode_coeff(c)
    return MultiJetSeries.make([int(p) for p in obj["P"]], terms, int(obj["N"]), int(obj.get("ring", 0)))


@pytest.mark.parametrize("P", [(3, 5), (5, 2), (3,), (7, 3, 5)])
def test_builders_refuse_primes_below_five(P):
    for build in (
        lambda: build_fe0(P, 10),
        lambda: build_fe_k(P, 0, 10),
        lambda: build_f2e0([1] * 10, P, [1] * len(P), 10),
        lambda: build_f2e_k([1] * 10, P, 0, [1] * len(P), 10),
    ):
        with pytest.raises(DomainError, match="the modular layer requires primes >= 5"):
            build()


def test_builders_sort_and_deduplicate_the_primes():
    assert build_fe0([7, 5, 7], 20) == build_fe0([5, 7], 20)
    assert build_fe_k([7, 5, 5], 1, 20) == build_fe_k([5, 7], 1, 20)
    with pytest.raises(DomainError, match="4 is not a prime"):
        build_fe_k([5, 4], 0, 10)


def test_make_keeps_the_last_of_two_spellings_of_one_monomial():
    a, b = ((1, 0), 1), ((0, 0), 2)
    m, spellings = (b, a), [(a, b), (b, a), (a, b, ((0, 1), 0)), (a, ((0, 0), 1), ((0, 0), 1))]
    for first, later in itertools.permutations(spellings, 2):
        for c1, c2 in ((3, 0), (3, 5), (0, 5), (0, 0)):
            f = MultiJetSeries.make(P57, {first: c1, later: c2, (((0, 1), 1),): 1}, 20)
            want = {m: Fraction(c2)} if c2 else {}
            assert dict(f.terms) == {**want, (((0, 1), 1),): Fraction(1)}


class TestFromJson:
    X0, X1, X2 = [0, 0], [1, 0], [0, 1]

    @pytest.mark.parametrize(
        "terms",
        [
            # duplicates: the last one wins, whether its pairs are spelled alike or not
            [[[[X1, 1]], "2"], [[[X1, 1]], "3"]],
            [[[[X1, 1], [X0, 2]], "2"], [[[X0, 2], [X1, 1]], "5/7"], [[[X1, 1], [X0, 2]], "-1"]],
            [[[[X0, 2], [X1, 1]], "5/7"], [[[X1, 1], [X0, 2], [X2, 0]], "1/3"]],
            [[[[X2, 1]], "4"], [[[X2, 1], [X1, 0]], "0"]],
            [[[[X2, 1]], "0"], [[[X2, 1], [X1, 0]], "4"]],
            # unsorted pairs, zero exponents, a repeated index and a weight past N
            [[[[X2, 1], [X0, 3]], "1/2"], [[[X1, 0]], "7"], [[[X0, 0], [X2, 0]], "-3"]],
            [[[[X1, 1], [X0, 1], [X1, 2]], "9"], [[[X0, 2], [X0, -1]], "11/13"], [[[X2, 3]], "1"]],
            [
                [[[["1", "0"], "2"]], {"p": 5, "M": 4, "residue": "3", "digits": 4}],
                [[[X0, 1]], {"p": 5, "M": 4, "residue": "7", "digits": 3}],
            ],
            # a p-adic coefficient that a later rational replaces leaves an exact store
            [[[[X0, 1]], {"p": 5, "M": 4, "residue": "7", "digits": 3}], [[[X0, 1]], "2/3"], [[[X1, 1]], "3"]],
        ],
    )
    def test_matches_the_twice_normalising_route(self, terms):
        padic = any(isinstance(c, dict) for _, c in terms)
        for ring in (1,) if padic else (0, 1):  # ring 0 holds no p-adic coefficient
            obj = {"P": [5, 7], "r": [0, 0], "N": 20, "ring": ring, "terms": terms}
            want = from_json_normalising_twice(obj)
            got = MultiJetSeries.from_json(obj)
            assert dump(got.to_json()) == dump(want.to_json())
            assert got.terms == want.terms

    @pytest.mark.parametrize(
        "terms",
        [
            [[[[["1", "0"], "2"]], "3"], [[[X0, 1]], {"p": 5, "M": 4, "residue": "7", "digits": 3}]],
            [[[[X0, 1]], {"p": 5, "M": 4, "residue": "7", "digits": 3}], [[[X1, 1]], "0"], [[[X2, 1]], "-1/2"]],
        ],
    )
    def test_a_store_of_both_kinds_is_refused(self, terms):
        obj = {"P": [5, 7], "r": [0, 0], "N": 20, "ring": 1, "terms": terms}
        for route in (MultiJetSeries.from_json, from_json_normalising_twice):
            with pytest.raises(DomainError, match="^a series holds rational or p-adic coefficients, not both$"):
                route(obj)

    def test_errors_are_kept(self):
        base = {"P": [5, 7], "N": 20, "ring": 0}
        negative = {**base, "terms": [[[[self.X1, 1], [self.X1, -2]], "1"]]}
        arity = {**base, "terms": [[[[[0, 0, 1], 1]], "1"]]}
        for obj, message in ((negative, "nonnegative"), (arity, "arity")):
            for route in (MultiJetSeries.from_json, from_json_normalising_twice):
                with pytest.raises(DomainError, match=message):
                    route(obj)
