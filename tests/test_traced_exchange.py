"""The benchmark's tracer still sees every basis exchange and every product.

perfbench's ``spans.Tracer`` times ``multiprime.jet_to_ghost`` and
``multiprime.ghost_to_jet`` and counts the terms they return as ``len`` of
the result.  One job each of ``f2e0``, ``f2e-k``, ``check-covariance`` and
``fe-k`` runs here under that tracer, from an empty generator cache, with a
recorder around ``multiprime._subst``, the one routine behind both exchanges.
Every exchange must go through a traced name, and each traced ``terms_out``
must be the term count of the dicts those calls returned.

The tracer counts the pairs of a product as |t1| * |t2| of each
``deltajet.terms_mul`` and ``multiprime.poly_mul`` call, and times
``Series1.__mul__``.  A recorder around ``sparse.mul`` checks that each call
of the kernel, squares included, is made directly inside one of those spans.
"""

import contextlib
import io
import os
import sys
import pytest

from pjet import cli, multiprime, sparse

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
from spans import Tracer  # noqa: E402


def run(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


@pytest.fixture
def fe0_payload(tmp_path):
    path = tmp_path / "fe0.json"
    path.write_text(run(["fe0", "--P", "5,7", "--N", "20"]), encoding="utf-8")
    return str(path)


JOBS = {
    "f2e0": ["f2e0", "--P", "5,13", "--N", "24"],
    "f2e-k": ["f2e-k", "--P", "5,13", "--k", "2", "--N", "24"],
    "check-covariance": ["check-covariance", "--input", "{fe0}", "--gamma", "2", "--nu", "1"],
    "fe-k": ["fe-k", "--P", "5,7", "--k", "1", "--N", "20"],
}


@pytest.mark.parametrize("job", sorted(JOBS))
def test_every_exchange_is_traced_with_its_term_count(job, fe0_payload, monkeypatch):
    argv = [a.format(fe0=fe0_payload) for a in JOBS[job]]
    subst, seen = multiprime._subst, []

    def recording(t, L, kind, *args):
        out = subst(t, L, kind, *args)
        seen.append((kind, out))
        return out

    monkeypatch.setattr(multiprime, "_subst", recording)
    monkeypatch.setattr(multiprime, "_GEN_CACHE", {})
    with Tracer() as tracer:
        run(argv)
    calls = tracer.calls()
    names = {"g": "multiprime.jet_to_ghost", "j": "multiprime.ghost_to_jet"}
    assert len(seen) == sum(calls.get(name, 0) for name in names.values())
    for kind, name in names.items():
        outs = [out for k, out in seen if k == kind]
        assert len(outs) == calls.get(name, 0)
        assert all(type(out) is sparse.Packed and all(type(c) is int and c for c in out.values()) for out in outs)
        assert tracer.counts.get(name + ".terms_out", 0) == sum(len(out) for out in outs)
    assert calls["multiprime.ghost_to_jet"] > 0


KERNEL_JOBS = {
    "delta-expand": ["delta-expand", "--form", "E4", "--trunc", "12", "--n", "2", "--p", "7", "--M", "6"],
    "check-lemma": ["check-lemma", "--name", "xlaphi", "--p", "5", "--n", "2", "--varphi", "symbolic"],
    "check-lemma-logder": ["check-lemma", "--name", "logder", "--p", "7", "--n", "2", "--a", "3"],
    "fsharp": ["fsharp", "--p", "13", "--window", "30", "--M", "6"],
    "fe-k": JOBS["fe-k"],
    "f2e0": JOBS["f2e0"],
}
KERNEL_SPANS = {"deltajet.terms_mul", "multiprime.poly_mul", "qseries.Series1.mul"}


@pytest.mark.parametrize("job", sorted(KERNEL_JOBS))
def test_every_kernel_call_is_inside_a_pair_counted_span(job, monkeypatch):
    tracer, kernel, innermost = Tracer(), sparse.mul, []

    def recording(t1, t2, limit=None):
        innermost.append(tracer._stack[-1] if tracer._stack else None)
        return kernel(t1, t2, limit)

    monkeypatch.setattr(sparse, "mul", recording)
    monkeypatch.setattr(multiprime, "_GEN_CACHE", {})
    with tracer:
        run(KERNEL_JOBS[job])
    assert innermost
    outside = [i for i in innermost if i is None or tracer.spans[i][0] not in KERNEL_SPANS]
    assert outside == []
