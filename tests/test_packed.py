"""The packed form as the stored value of ``MultiJetSeries`` and ``JetSeries``.

An exact series stores integer numerators by packed key over one positive
denominator with no factor common to all of them.  These tests pit the JSON
codecs against the tuple routes of ``_helpers`` (sorted ``Mono`` tuples or
the ``terms`` view, with ``Fraction`` coefficients), the layout moves against
unpacking and packing again, the value semantics against two spellings of
one series, and the readers of a ``JetSeries`` store against the same
readers fed from its ``terms`` view.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import (
    fourier_to_deformation_terms,
    from_json_tuples,
    pack_terms,
    t_payload_terms,
    t_series_via_make,
    to_json_tuples,
)
from pjet import multiprime, sparse
from pjet.arith import format_rational
from pjet.cli import _dump as dump
from pjet.deltajet import JetSeries, TSeries, psi_fourier, psi_serretate
from pjet.errors import DomainError, IntegralityViolation
from pjet.forms import fourier_to_deformation
from pjet.multiprime import (
    MultiJetSeries,
    assert_ring_integral,
    build_fe0,
    from_jet_series,
    layout,
    psi_multi,
    reduce_to_padic,
    t_generator,
)

P57 = (5, 7)
PRIMES = {1: [(5,), (7,), (13,)], 2: [P57, (7, 11)], 3: [(5, 7, 11)], 4: [(5, 7, 11, 13)]}


@st.composite
def payloads(draw):
    """A series payload over d = 1 to 4 primes and N <= 60, N 0 and 1 often:
    unsorted pairs, repeated indices, zero and negative exponents,
    string-typed numbers, monomials spelled twice (a later zero among them),
    and rational, mixed or wholly p-adic coefficients, the p-adic ones at
    the ring's prime (refused in ring 0).  Some payloads carry a fault: a
    float or a bool for one of their integers, p-adic fields included, a
    negative N, or a p-adic coefficient at another prime."""
    d = draw(st.integers(1, 4))
    P = draw(st.sampled_from(PRIMES[d]))
    text = st.booleans()

    def number(x, as_text):
        return str(x) if as_text else x

    def pair(i, e, as_text):
        return [[number(x, as_text) for x in i], number(e, as_text)]

    index = st.lists(st.integers(0, 2), min_size=d, max_size=d)
    mono = st.lists(st.builds(pair, index, st.integers(-1, 4), text), max_size=4)
    num, den = st.integers(-30, 30), st.integers(-12, 12).filter(bool)
    rational = st.one_of(
        st.builds(str, num),
        st.builds(lambda n, q: f"{n}/{q}", num, den),
        st.builds(lambda n, q: f" {n}/{q} ", num, den),
    )
    ring = draw(st.integers(0, d))
    padic = st.builds(
        lambda p, r, g: {"p": p, "M": 6, "residue": str(r), "digits": g},
        st.just(P[ring - 1]) if ring else st.sampled_from(P),
        st.integers(0, 10**6),
        st.integers(1, 6),
    )
    coeff = draw(st.sampled_from([rational, st.one_of(rational, padic), padic]))
    terms = draw(st.lists(st.tuples(mono, coeff), max_size=8))
    for _ in range(draw(st.integers(0, 2)) if terms else 0):
        m, _ = draw(st.sampled_from(terms))
        terms.append((m[::-1], draw(st.one_of(st.just("0"), st.just("0/7"), rational))))
    obj = {"P": list(P), "r": [0] * d, "N": draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, 60)))}
    obj.update(ring=ring, terms=terms)
    pairs = [p for m, _ in terms for p in m]
    padics = [c for _, c in terms if isinstance(c, dict)]
    faults = ["P", "N", "ring", "negative N"] + ["exponent", "index"] * bool(pairs) + ["p-adic"] * bool(padics)
    fault = draw(st.sampled_from(faults + [None] * 14))
    if fault == "p-adic":  # another prime, or a float or a bool for one field
        where, k = draw(st.sampled_from(padics)), draw(st.sampled_from(["p", "M", "residue", "digits"]))
        x = int(where[k])
        other = [q for q in (2, 3, *P) if q != x]
        where[k] = draw(st.sampled_from([float(x), x + 0.5, True] + other * (k == "p")))
    elif fault == "negative N":
        obj["N"] = -draw(st.integers(1, 3))
    elif fault in ("P", "N", "ring"):
        where, k = (obj["P"], draw(st.integers(0, d - 1))) if fault == "P" else (obj, fault)
        where[k] = draw(st.sampled_from([float(where[k]), where[k] + 0.5, True, False]))
    elif fault:
        where = draw(st.sampled_from(pairs))
        where, k = (where[0], draw(st.integers(0, d - 1))) if fault == "index" else (where, 1)
        x = int(where[k])
        where[k] = draw(st.sampled_from([float(x), x + 0.5, float(f"{x}e1"), True, False]))
    return obj


def outcome(route, obj):
    """The payload ``route`` makes of ``obj``, or the message it refuses it with."""
    try:
        return dump(route(obj))
    except DomainError as e:
        return f"DomainError: {e}"


def packed_route(obj):
    return MultiJetSeries.from_json(obj).to_json()


def tuple_route(obj):
    return to_json_tuples(*from_json_tuples(obj))


X0, X1, X2 = [0, 0], [1, 0], [0, 1]


@given(obj=payloads())
@example(obj={"P": [5, 7], "r": [0, 0], "N": 20, "ring": 0, "terms": [[[[X1, 1]], "2/6"], [[[X0, 3]], "3/6"]]})
@example(obj={"P": [5, 7], "r": [0, 0], "N": 20, "ring": 0, "terms": [[[[X2, 1]], "4"], [[[X2, 1], [X1, 0]], "0"]]})
@example(obj={"P": [5], "r": [0], "N": 0, "ring": 1, "terms": [[[], "3"]]})
@example(obj={"P": [5], "r": [0], "N": 1, "ring": 1, "terms": [[[], "-4/-6"], [[[["0"], "1"]], "1"]]})
@example(obj={"P": [5, 7], "r": [0, 0], "N": 20, "ring": 0, "terms": [[[[X1, 4.5]], "1"]]})
@example(obj={"P": [5, 7], "r": [0, 0], "N": 20, "ring": 0, "terms": [[[[[0.0, 1], 1]], "1"]]})
@example(obj={"P": [5, 7], "r": [0, 0], "N": 20, "ring": 0, "terms": [[[[[True, 0], 1]], "1"]]})
@example(obj={"P": [5, 7], "r": [0, 0], "N": 1e1, "ring": 0, "terms": []})
@example(obj={"P": [5, 7.0], "r": [0, 0], "N": 10, "ring": 0, "terms": []})
@example(obj={"P": [5, 7], "r": [0, 0], "N": -1, "ring": False, "terms": []})
@example(obj={"P": [5, 7], "r": [0, 0], "N": 9, "ring": 0, "terms": [[[], {"p": 5, "M": 6, "residue": "1", "digits": 6}]]})
@example(obj={"P": [5, 7], "r": [0, 0], "N": 9, "ring": 1, "terms": [[[], {"p": 7, "M": 6, "residue": "1", "digits": 6}]]})
@example(obj={"P": [5, 7], "r": [0, 0], "N": 9, "ring": 1, "terms": [[[], {"p": 5, "M": 6.0, "residue": "1", "digits": 6}]]})
@example(obj={"P": [5, 7], "r": [0, 0], "N": 9, "ring": 2, "terms": [[[], {"p": 7, "M": 6, "residue": 7812.9, "digits": 6}]]})
@example(obj={"P": [5, 7], "r": [0, 0], "N": 9, "ring": 2, "terms": [[[], {"p": 7, "M": 6, "residue": "1", "digits": True}]]})
@example(obj={"P": [5, 7], "r": [0, 0], "N": 9, "ring": 2, "terms": [[[], {"p": "7", "M": "6", "residue": "1", "digits": "3"}]]})
@settings(max_examples=400, deadline=None)
def test_codec_matches_tuple_route(obj):
    # to_json of the packed store is byte-equal to the tuple route, and a
    # payload read back gives the same bytes, value and hash; a float or a
    # bool for an integer, or a negative N, is refused alike on both routes
    want = outcome(tuple_route, obj)
    assert outcome(packed_route, obj) == want
    if not want.startswith("DomainError"):
        x = MultiJetSeries.from_json(obj)
        y = MultiJetSeries.from_json(x.to_json())
        assert dump(y.to_json()) == want == json.dumps(y.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
        assert x == y and hash(x) == hash(y)
        assert x.terms == from_json_tuples(obj)[1]
        if not x.is_padic():
            assert x._store.den > 0 and math.gcd(x._store.den, *x._store.values()) == 1


@pytest.mark.parametrize("P", [(5,), (5, 7, 11)])
@pytest.mark.parametrize("N", [16, 17])
def test_move_matches_unpack_then_pack(P, N):
    # the series of TestPackedMonomials::test_field_width_boundary: the t
    # field is 5 bits at N = 16 and 6 at N = 17; moved into smaller and
    # larger layouts field by field, against unpacking and packing again
    zero = (0,) * len(P)
    n = (0,) * (len(P) - 1) + (1,)
    terms = {((zero, e),) if e else (): Fraction(e + 1) for e in range(N)}
    terms.update({((zero, e), (n, 1)) if e else ((n, 1),): Fraction(1, e + 2) for e in range(N)})
    f = MultiJetSeries.make(P, terms, N)
    src = layout(P, N)
    for N2 in sorted({0, 1, 15, 16, 17, 18, 2 * N, N * P[-1]}):
        dst = layout(P, N2)
        t = f._store
        want = sparse.canon(pack_terms(dst, ((src.unpack(m), x) for m, x in t.items())), t.den)
        got = multiprime._move(t, src, dst)
        assert (got, got.den) == (want, want.den)
        cut = f.truncate(N2)
        assert cut == MultiJetSeries.make(P, dict(f.terms), min(N, N2)) and cut.N == min(N, N2)


def spellings():
    """Pairs (a, b) whose a + b carries primes in its denominator that b takes away."""
    t = t_generator(P57, 20)
    x = MultiJetSeries.make(P57, {(((1, 0), 1),): Fraction(1, 5), (((0, 0), 2),): Fraction(3, 7)}, 20)
    a = t * Fraction(2, 3) + Fraction(5, 4)
    fe0 = build_fe0(P57, 20)
    return [(t, x), (a, x), (a, t * Fraction(1, 35)), (fe0, fe0 * Fraction(2, 11) + x)]


@pytest.mark.parametrize("a, b", spellings())
def test_two_spellings_share_one_store(a, b):
    # (a + b) - b and (a * 35) / 35 spell a over other denominators first;
    # reduced, each is the store of a, so they are equal and hash alike
    for c in ((a + b) - b, (a * 35) * Fraction(1, 35)):
        assert (c._store, c._store.den) == (a._store, a._store.den)
        assert c == a and hash(c) == hash(a)
        assert math.gcd(c._store.den, *c._store.values()) == 1


@pytest.mark.parametrize(
    "f",
    [
        lambda: build_fe0(P57, 30),
        lambda: psi_multi((5, 7, 11), 2, 30),
        lambda: t_generator((5,), 0),
        lambda: reduce_to_padic(build_fe0(P57, 12), 1, 4),
    ],
)
def test_hash_survives_the_codec(f):
    x = f()
    y = MultiJetSeries.from_json(x.to_json())
    assert y == x and hash(y) == hash(x)


def test_ring_integral_reads_the_reduced_denominator():
    # t + x has 5 in its denominator; (t + x) - x is first spelled over 5 and
    # reduces to t, which is integral
    t = t_generator(P57, 20)
    x = MultiJetSeries.make(P57, {(((1, 0), 1),): Fraction(1, 5)}, 20)
    assert_ring_integral((t + x) - x)
    with pytest.raises(IntegralityViolation, match=r"1/5 at \(\(\(1, 0\), 1\),\) has denominator divisible by 5"):
        assert_ring_integral(t + x)
    # the per-prime ring away from 7 admits a 5, the one away from 5 does not
    assert_ring_integral(MultiJetSeries.make(P57, {(): Fraction(1, 5)}, 20, ring=2))
    with pytest.raises(IntegralityViolation):
        assert_ring_integral(MultiJetSeries.make(P57, {(): Fraction(2, 35)}, 20, ring=1))


# ---------------------------------------------------------------------------
# JetSeries: the store, its payload and its readers
# ---------------------------------------------------------------------------

JETS = [(), (1,), (2,), (0, 1), (1, 1), (0, 0, 3)]  # trimmed, so no two spell one monomial


@st.composite
def jet_terms(draw):
    """(p, base, terms) for a q-side ``JetSeries`` or a ``TSeries``: q-side base exponents -12..12,
    t-side 0..12, rational coefficients with zeros among them."""
    p, base = draw(st.sampled_from([5, 7])), draw(st.sampled_from(["q", "t"]))
    keys = st.tuples(st.integers(-12 if base == "q" else 0, 12), st.sampled_from(JETS))
    coeffs = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 6, p, 12]))
    return p, base, draw(st.dictionaries(keys, coeffs, max_size=8))


def payload_terms_via_view(f):
    """The payload terms written by ``format_rational`` over the sorted
    ``terms`` view."""
    return [[b, format_rational(c), list(jets)] for (b, jets), c in sorted(f.terms)]


@given(case=jet_terms())
@example(case=(5, "q", {}))  # the zero series
@example(case=(7, "q", {(0, ()): 2, (3, (1,)): -7, (-2, (0, 1)): 1}))  # integer coefficients
@example(case=(7, "q", {(0, ()): 1, (1, ()): Fraction(1, 3)}))  # 3 divides the numerator 3, not 1
@example(case=(5, "t", {(0, (0, 1)): 1, (0, (1,)): Fraction(1, 2), (1, ()): 3}))  # key order is not (b, jets)
@settings(max_examples=150, deadline=None)
def test_jet_series_payload_matches_the_terms_view(case):
    p, base, terms = case
    want = sorted((m, c) for m, c in terms.items() if c)
    if base == "q":
        f = JetSeries.make(p, terms)
        assert f.terms == tuple(want) and f.to_json()["terms"] == payload_terms_via_view(f)
        assert f.num.den > 0 and all(f.num.values()) and math.gcd(f.num.den, *f.num.values()) == 1
    else:  # the d=1 series below a weight above every drawn term
        monos = {tuple(((i,), e) for i, e in enumerate((b, *jets)) if e): c for (b, jets), c in terms.items()}
        F = MultiJetSeries.make((p,), monos, 2000, ring=1)
        f = TSeries(F.P, F._store, F.N, F.ring)
    assert f.to_json()["terms"] == [[b, format_rational(c), list(j)] for (b, j), c in want]
    back = JetSeries.from_json(f.to_json())
    assert back == f and hash(back) == hash(f) and dump(back.to_json()) == dump(f.to_json())


@pytest.mark.parametrize("f", [lambda: psi_fourier(7, 8, 12), lambda: psi_serretate(5, 20), lambda: psi_serretate(7, 0)])
def test_jet_series_builders_write_the_terms_view(f):
    x = f()
    assert x.to_json()["terms"] == (t_payload_terms(x)["terms"] if isinstance(x, TSeries) else payload_terms_via_view(x))


@st.composite
def fourier_series(draw):
    """A q-side series with up to three jets, and a truncation N."""
    p = draw(st.sampled_from([5, 7, 11]))
    keys = st.tuples(st.integers(-20, 10), st.sampled_from(JETS))
    coeffs = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 30))
    return JetSeries.make(p, draw(st.dictionaries(keys, coeffs, max_size=5))), draw(st.integers(0, 24))


@st.composite
def d1_series(draw):
    """A d=1 several-prime series with jets up to x_2, below weight N."""
    p = draw(st.sampled_from([5, 7]))
    mono = st.lists(st.tuples(st.sampled_from([(0,), (1,), (2,)]), st.integers(0, 4)), max_size=3).map(tuple)
    coeffs = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 30))
    N = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 60)))
    return MultiJetSeries.make((p,), draw(st.dictionaries(mono, coeffs, max_size=6)), N, 1)


class TestJetSeriesReaders:
    """Each reader of a ``JetSeries`` reads its store; the reference feeds
    the same call from the ``terms`` view."""

    @given(case=fourier_series())
    @settings(max_examples=40, deadline=None)
    def test_fourier_to_deformation(self, case):
        f, N = case
        assert dump(fourier_to_deformation(f, N).to_json()) == dump(fourier_to_deformation_terms(f, N).to_json())

    @pytest.mark.parametrize("p", [5, 7])
    def test_fourier_to_deformation_on_psi_fourier(self, p):
        f = psi_fourier(p, 20, 20)
        assert dump(fourier_to_deformation(f, 20).to_json()) == dump(fourier_to_deformation_terms(f, 20).to_json())

    @given(F=d1_series())
    @settings(max_examples=60, deadline=None)
    def test_from_and_to_jet_series(self, F):
        # the t payload of a d=1 series, written from its keys and read back into them
        obj = TSeries(F.P, F._store, F.N, F.ring).to_json()
        assert obj == t_payload_terms(F)
        back = JetSeries.from_json(json.loads(dump(obj)))
        assert back == t_series_via_make(obj) == F and hash(back) == hash(F)
        assert dump(from_jet_series(back).to_json()) == dump(F.to_json())

    @pytest.mark.parametrize("p, N", [(5, 20), (7, 30), (11, 1), (5, 0)])
    def test_from_and_to_jet_series_on_psi_serretate(self, p, N):
        f, F = psi_serretate(p, N), psi_multi((p,), 0, N)
        assert dump(f.to_json()) == dump(t_payload_terms(F))
        assert dump(from_jet_series(f).to_json()) == dump(F.to_json())
