"""The benchmark's own tests: tiny smoke runs, oracle self-tests, the tracer.

    python3 -m pytest -q perfbench/test_perfbench.py

The repo's test suite does not collect this file (its ``testpaths`` is
``tests``); run it by path.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.load_program()

import oracles  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Job, dumps  # noqa: E402


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every block to a few cheap jobs and keep one cheap anchor per workload."""
    monkeypatch.setattr(workloads, "LIFT_FE", [((5, 7), 12), ((5, 7, 11), 12)])
    monkeypatch.setattr(workloads, "LIFT_BASIS", [((5, 7), 12, [(2, 1), (1, 2)])])
    monkeypatch.setattr(workloads, "LIFT_F2D", [(5, 8)])
    monkeypatch.setattr(workloads, "QLINE_FORMS", ("E4",))
    monkeypatch.setattr(workloads, "QLINE_TRUNC", 6)
    monkeypatch.setattr(workloads, "QLINE_FSHARP", (5,))
    monkeypatch.setattr(workloads, "GLUE_F2E_N", 24)  # a_n up to N must reach p = 23
    for workload in workloads.BLOCKS:
        monkeypatch.setitem(workloads.BLOCKS, workload, 2)
    full = workloads.anchors

    def cheap(workload, inputs):
        keep = {"lift": "golden:fe0_P5_7_N30.json", "qline": "golden:psi_serretate_p5_N20.json",
                "glue": "golden:commutator_6_2_3.json"}[workload]
        return [j for j in full(workload, inputs) if j.anchor == keep]

    monkeypatch.setattr(workloads, "anchors", cheap)
    monkeypatch.setattr(run, "measure_setup", lambda: ([0.1], [0.1]))
    return tmp_path


@pytest.mark.parametrize("workload", ["lift", "qline", "glue"])
def test_smoke_run_passes_its_oracles(tiny, workload):
    record = run.run(workload, 3, 0.0, False, {}, str(tiny))
    assert record["attempted"] > 1
    assert record["correct"], (record["failures"], record["probes"])
    assert record["failed"] == 0 and not record["failures"]
    # every probe shows its known defect, with a witness
    assert all(p["status"] == "known defect" and p["witness"] for p in record["probes"])
    assert bool(record["probes"]) == (workload != "qline")
    assert set(record["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in record["metrics"].values())


def test_smoke_traced_run_reports_every_layer_metric(tiny):
    record = run.run("lift", 3, 0.0, True, {}, str(tiny))
    assert set(record["metrics"]) == set(run.per_layer_units())
    m = record["metrics"]
    assert m["multiprime.poly_mul.calls"]["value"] > 0
    assert m["multiprime.self_share"]["value"] > m["deltajet.self_share"]["value"]
    assert os.path.getsize(os.path.join(tiny, "spans.jsonl")) > 0


def test_same_seed_same_jobs_other_seed_other_jobs(tmp_path):
    for workload in ("lift", "glue"):
        keys = [[j.key for j in workloads.Plan(workload, s, str(tmp_path)).block(0)] for s in (4, 4, 5)]
        assert keys[0] == keys[1] != keys[2]
    # lift keeps its composition from seed to seed; the seed orders it
    assert sorted(keys[0]) != sorted(keys[2])


def test_timed_prime_lists_ascend_and_probes_do_not(tmp_path):
    for workload in ("lift", "glue"):
        plan = workloads.Plan(workload, 4, str(tmp_path))
        typed = [j.facts["typed"] for b in range(4) for j in plan.block(b) if "typed" in j.facts]
        assert typed and all(t == sorted(t) for t in typed)
        probed = [j.facts["typed"] for j in plan.probes if "typed" in j.facts]
        assert probed and all(t != sorted(t) for t in probed)


def test_calibration_kernel_is_steady_work():
    assert run.calibration_kernel() == run.calibration_kernel()
    assert 0 < run.calibrate() < 1.0


# -- oracle self-tests ------------------------------------------------------------------


def _check(job, code, text):
    refs = oracles.Refs(run.run_cli)
    return oracles.check(job, code, text, refs, {}, run.GOLDEN)


def _cli_job(kind, argv, **facts):
    job = Job(kind, tuple(argv), facts=facts)
    code, text = run.run_cli(argv)
    return job, code, text


def test_corrupted_payload_fails():
    job, code, text = _cli_job("fe0", ["fe0", "--P", "7,5", "--N", "12"], P=[5, 7], typed=[7, 5], N=12)
    assert _check(job, code, text).ok
    obj = json.loads(text)
    obj["terms"][1][1] = "7/3"
    v = _check(job, code, dumps(obj))
    assert not v.ok and not v.known


def test_corrupted_golden_anchor_fails():
    argv = ["fe0", "--P", "5,7", "--N", "30"]
    job = Job("fe0", tuple(argv), facts={"P": [5, 7], "typed": [5, 7], "N": 30},
              anchor="golden:fe0_P5_7_N30.json")
    code, text = run.run_cli(argv)
    assert _check(job, code, text).ok
    v = _check(job, code, text.replace('"-1/2"', '"1/2"', 1))
    assert not v.ok and "golden" in v.witness


def test_pinned_sha_mismatch_fails():
    job, code, text = _cli_job("eisenstein", ["eisenstein", "--k", "4", "--trunc", "6"], k=4, trunc=6)
    refs = oracles.Refs(run.run_cli)
    assert oracles.check(job, code, text, refs, {job.key: run._sha(text)}, run.GOLDEN).ok
    assert not oracles.check(job, code, text, refs, {job.key: "0" * 64}, run.GOLDEN).ok


def test_swapped_ap_fails():
    job, code, text = _cli_job("ap", ["ap", "--p", "13"], p=13)
    assert _check(job, code, text).ok
    obj = json.loads(text)
    obj["ap"] = oracles.ap_count(7)
    assert not _check(job, code, dumps(obj)).ok
    # an order-2e payload built with a_5 and a_13 swapped
    from pjet import forms

    an = oracles.an_11a1(20)
    swapped = forms.build_f2e0(an, [5, 13], [an[12], an[4]], 20).to_json()
    job = Job("f2e0", ("f2e0", "--P", "5,13", "--N", "20"), facts={"P": [5, 13], "typed": [5, 13], "N": 20})
    v = _check(job, 0, dumps(swapped))
    assert not v.ok and not v.known


def test_wrong_witness_fails(tmp_path):
    import random

    rng = random.Random(7)
    job = None
    while job is None or job.facts["fault"] is None:
        job = workloads._continuation(rng, str(tmp_path / "c"), padic=True)
    for path, text in job.files.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    code, text = run.run_cli(job.argv)
    assert _check(job, code, text).ok
    obj = json.loads(text)
    obj["witness"] = [[[0] * len(job.facts["P"]), 9]]
    assert not _check(job, code, dumps(obj)).ok
    cov = Job("check-covariance", (), facts={"P": [5, 7], "nu": 2, "expect": "weight", "const": False})
    good = {"gamma": 2, "nu": 2, "pass": False, "witness": [[[0, 0], 1]]}
    assert _check(cov, 1, dumps(good)).ok
    assert not _check(cov, 1, dumps(dict(good, witness=[[[1, 0], 1]]))).ok


def test_only_prime_order_failures_are_known():
    job, code, text = _cli_job("fe-k", ["fe-k", "--P", "7,5", "--k", "1", "--N", "12"],
                               P=[5, 7], typed=[7, 5], N=12, prime=7)
    v = _check(job, code, text)
    assert not v.ok and v.known == oracles.PRIME_ORDER and "ring 1, expected 2" in v.witness
    job, code, text = _cli_job("fe-k", ["fe-k", "--P", "5,7", "--k", "1", "--N", "12"],
                               P=[5, 7], typed=[5, 7], N=12, prime=5)
    assert _check(job, code, text).ok
    obj = json.loads(text)
    obj["ring"] = 2
    v = _check(job, code, dumps(obj))
    assert not v.ok and not v.known


def test_independent_arithmetic():
    assert [oracles.ap_count(p) for p in (2, 3, 5, 7, 11, 13)] == [-2, -1, 1, -2, 1, 4]
    assert oracles.an_11a1(10) == [1, -2, -1, 2, 1, 2, -2, 0, -2, -2]
    assert oracles.q_expansion("delta", 4) == [0, 1, -24, 252]
    assert oracles.fermat_delta_int(6, 2) == -15
    assert not workloads.reconstructible([(5, 2, 7)], 3)
    assert workloads.reconstructible([(5, 2, 13)], 3)  # 13 = 1/2 mod 25


def test_tail_percentile():
    assert run.tail([float(x) for x in range(100)]) == (89.0, 90.0)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


# -- tracer ---------------------------------------------------------------------------------


def test_tracer_patches_every_binding_and_restores_them():
    from pjet import cli, forms, multiprime

    originals = (multiprime.delta_pk, forms.delta_pk, cli.main, multiprime.poly_mul)
    with Tracer() as tracer:
        assert forms.delta_pk is multiprime.delta_pk is not originals[0]
        tracer.job = "t"
        run.run_cli(["fe-k", "--P", "5,7", "--k", "2", "--N", "12"])
    assert (multiprime.delta_pk, forms.delta_pk, cli.main, multiprime.poly_mul) == originals
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "cli.handler", "cli.dump", "multiprime.build_fe_k", "multiprime.poly_mul"} <= names
    selfs = tracer.self_times()
    total = sum(e - s for n, s, e, parent, _ in tracer.spans if parent < 0)
    assert abs(sum(selfs.values()) - total) < 1e-6
    assert all(v >= 0 for v in selfs.values())
    assert tracer.counts["multiprime.poly_mul.pairs"] >= tracer.counts["multiprime.poly_mul.terms_out"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "glue", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
