"""The payload text writers against the dict builders they replaced.

``to_text`` writes a payload's bytes straight from the packed store; the
reference is ``_dump`` of the dict that ``tests/_helpers.py`` builds from the
same store.  Drawn several-prime stores (exact and p-adic, d = 1..4, every
ring), q-side series (digits and base_order null or set, negative base
exponents) and t-side series must give equal bytes, ``to_json`` must read
them back as that dict, and ``from_json`` must give back an equal series.
"""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import continuation_payload, multi_payload, one_prime_payload
from pjet import multiprime
from pjet.arith import PadicTrunc
from pjet.cli import _dump as dump
from pjet.deltajet import JetSeries, TSeries
from pjet.multiprime import MultiJetSeries, continuation_check, layout, reduce_to_padic

PRIMES = (5, 7, 11, 13)
ratios = st.builds(
    Fraction,
    st.integers(-(10**12), 10**12),
    st.sampled_from([1, 2, 3, 5, 7, 25, 49, 11 * 13, 6 * 5**3, 10**9 + 7]),
)


@st.composite
def multi_series(draw):
    """A several-prime series: exact or p-adic, d = 1..4, in a ring 0..d
    (a p-adic one in a ring 1..d, at that ring's prime)."""
    d = draw(st.integers(1, 4))
    P = tuple(sorted(draw(st.permutations(PRIMES))[:d]))
    N = draw(st.integers(0, 40))
    padic = draw(st.booleans())
    ring = draw(st.integers(1, d) if padic else st.integers(0, d))
    index = [i for i, _, _ in layout(P, N).fields] or [(0,) * d]
    monos = st.lists(st.tuples(st.sampled_from(index), st.integers(1, 5)), max_size=3)
    if padic:
        p, M = P[ring - 1], draw(st.integers(1, 8))
        coeff = st.builds(PadicTrunc, st.just(p), st.just(M), st.integers(0, p**M - 1), st.integers(0, M))
    else:
        coeff = ratios
    terms = draw(st.dictionaries(monos.map(tuple), coeff, max_size=12))
    return MultiJetSeries.make(P, terms, N, ring)


@st.composite
def q_series(draw):
    """A q-side series: negative base exponents, digits and base_order null or set."""
    p = draw(st.sampled_from([5, 7, 11]))
    digits = draw(st.none() | st.integers(1, 6))
    base_order = draw(st.none() | st.integers(-10, 20))
    monos = st.tuples(st.integers(-30, 25), st.lists(st.integers(0, 4), max_size=3).map(tuple))
    terms = draw(st.dictionaries(monos, ratios, max_size=12))
    return JetSeries.make(p, terms, draw(st.integers(1, 10)), digits, base_order)


@st.composite
def t_series(draw):
    """A t-side series: the d=1 series in ring 1, read from a drawn t payload."""
    p = draw(st.sampled_from([5, 7, 11]))
    monos = st.tuples(st.integers(0, 12), st.lists(st.integers(0, 3), max_size=2).map(tuple))
    terms = draw(st.dictionaries(monos, ratios, max_size=12))
    obj = {"var": "t", "p": p, "N": draw(st.integers(0, 60)),
           "terms": [[b, str(c), list(jets)] for (b, jets), c in terms.items()]}
    return TSeries.from_json(obj)


def assert_written_as(f, want: dict, read):
    text = f.to_text()
    assert text + "\n" == dump(want)
    assert f.to_json() == json.loads(text)
    back = read(f.to_json())
    assert back == f and back.to_text() == text


@settings(max_examples=150, deadline=None)
@given(multi_series())
def test_several_prime_text_is_the_dumped_dict(f):
    assert_written_as(f, multi_payload(f), MultiJetSeries.from_json)


@settings(max_examples=150, deadline=None)
@given(q_series() | t_series())
def test_one_prime_text_is_the_dumped_dict(f):
    assert_written_as(f, one_prime_payload(f), JetSeries.from_json)


def test_continuation_text_is_the_dumped_dict():
    f0 = multiprime.build_fe0((5, 7, 11), 30)
    family = [reduce_to_padic(f0, k, 6) for k in range(3)]
    fault = family[1]._store.copy()
    key = next(iter(fault))
    fault[key] = PadicTrunc(7, 6, fault[key].residue + 1, 6)
    cases = [
        continuation_check(family),
        continuation_check([family[0], MultiJetSeries(f0.P, fault, f0.N, 2), family[2]]),
        continuation_check([f0, f0 * 2]),
    ]
    assert [r.ok for r in cases] == [True, False, False]
    for res in cases:
        assert res.to_text() + "\n" == dump(continuation_payload(res))
        assert res.to_json() == json.loads(res.to_text())
