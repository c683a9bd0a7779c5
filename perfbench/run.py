#!/usr/bin/env python3
"""pjet benchmark: seeded workloads run in-process, checked by oracles, measured.

    python3 perfbench/run.py --workload lift|qline|glue|all --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it loads ``pjet`` from the
checkout's ``src/`` and nothing else, and exits 1 without a result if that
is missing.  Each workload is a closed loop with one client: jobs run one at
a time, in this process, through ``pjet.cli.main`` (or the named library
entry point where no subcommand exists).  The timed phase runs whole blocks
of jobs (see ``workloads.py``) until ``--seconds`` have passed, so every run
measures complete blocks.  Before it, untimed: input files are written, the
repo's verbatim invocations (``scripts/build_expansions.py`` JOBS and the
``tests/golden`` jobs) run once as anchors, and the known-defect probes (see
``workloads.probes``) run once and are reported apart from the jobs.  After
it, untimed: every payload is checked by the oracles in ``oracles.py``.

Times are reported in reference seconds.  On a shared host the CPU's speed
changes by up to 2x from one second to the next, and process CPU time moves
with it, so a calibration kernel (pure-Python ``Fraction``, dict and JSON
work, like the program's own) runs before and after every job, and the
job's wall time is scaled by ``CAL_REF_S`` over the mean of those two kernel
times.  ``CAL_REF_S`` is the kernel's time on an uncontended core of a
2-vCPU Intel Xeon VM with Python 3.11, so there reference seconds are wall
seconds.  The unscaled wall figures are printed and kept in the run record.

With ``--trace 0`` the result line carries the end-to-end metrics; with
``--trace 1`` each job runs twice, untraced and traced in alternating order,
and the result line carries the per-layer metrics derived from the spans.
Human-readable metric lines (with sample counts), every failing job with its
witness, and a run record go to stdout before the result line; the record
and the spans are also written under ``.perfbench_out/`` in the checkout.

``--write-pins`` records the sha256 of every passing payload at the default
seed in ``perfbench/pins.json``; the oracles check them on later runs.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
GOLDEN = os.path.join(ROOT, "tests", "golden")
PINS = os.path.join(HERE, "pins.json")
DEFAULT_SEED = 1
SETUP_REPEATS = 21
CAL_REF_S = 0.0025  # the calibration kernel's time on the reference CPU
# blocks of the default seed whose payloads are pinned: a little more than a run reaches
PIN_BLOCKS = {"lift": 2, "qline": 14, "glue": 64}

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> dict[str, str]:
    out: dict[str, str] = {}
    for f in ("phi_pk", "delta_pk", "jet_to_ghost", "ghost_to_jet", "poly_mul"):
        out[f"multiprime.{f}.calls"] = "count"
        out[f"multiprime.{f}.self_s"] = "s"
    out["multiprime.jet_to_ghost.terms_out"] = "count"
    out["multiprime.ghost_to_jet.terms_out"] = "count"
    out["multiprime.poly_mul.pairs"] = "count"
    out["multiprime.poly_mul.kept_ratio"] = "ratio"
    out["multiprime.gen_cache.entries_start"] = "count"
    out["multiprime.gen_cache.entries_end"] = "count"
    for f in ("exact_rank", "substitute_gamma", "continuation_check", "build_fe0", "build_fe_k",
              "basis_independence_check"):
        out[f"multiprime.{f}.self_s"] = "s"
    out["deltajet.terms_mul.calls"] = "count"
    out["deltajet.terms_mul.self_s"] = "s"
    out["deltajet.terms_mul.pairs"] = "count"
    out["deltajet.terms_mul.kept_ratio"] = "ratio"
    for f in ("phi", "delta", "psi_fourier", "psi_serretate", "lemma_xlaphi_check", "lemma_logder_check"):
        out[f"deltajet.{f}.self_s"] = "s"
    out["qseries.Series1.mul.calls"] = "count"
    out["qseries.Series1.mul.self_s"] = "s"
    out["qseries.log1p.self_s"] = "s"
    out["qseries.pow_weight.self_s"] = "s"
    out["arith.rational_reconstruct.calls"] = "count"
    out["arith.rational_reconstruct.self_s"] = "s"
    out["arith.rational_reconstruct.failures"] = "count"
    out["arith.fermat_delta.calls"] = "count"
    out["arith.fermat_delta.self_s"] = "s"
    out["arith.cross_prime_commutator.self_s"] = "s"
    for f in ("newform_coefficients", "eisenstein", "discriminant_delta", "ap_point_count"):
        out[f"modular.{f}.self_s"] = "s"
    for f in ("delta_fourier_expand", "fsharp_expansion", "build_f2e0", "build_f2e_k",
              "covariance_check", "fourier_to_deformation"):
        out[f"forms.{f}.self_s"] = "s"
    out["cli.handler.self_s"] = "s"
    out["cli.dump.self_s"] = "s"
    out["cli.main.self_s"] = "s"
    out["cli.payload_bytes"] = "bytes"
    for layer in ("multiprime", "deltajet", "qseries", "arith", "modular", "forms", "cli"):
        out[f"{layer}.self_share"] = "ratio"
    out["trace.overhead_ratio"] = "ratio"
    return out


def load_program():
    """Import pjet from this checkout's src/, or exit 1 without a result."""
    if not os.path.isfile(os.path.join(SRC, "pjet", "cli.py")):
        raise SystemExit(f"perfbench: no pjet sources at {SRC}; run it inside a checkout of the repo")
    sys.path.insert(0, SRC)
    import pjet.cli

    if not os.path.abspath(pjet.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: pjet was imported from {pjet.cli.__file__}, not {SRC}")
    return pjet


# -- running one job -------------------------------------------------------------------------


def run_cli(argv) -> tuple[int, str]:
    import pjet.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pjet.cli.main(list(argv))
    return code, buf.getvalue()


def lib_fourier_to_deformation(p, M, window, N):
    from pjet import deltajet, forms
    from workloads import dumps

    image = forms.fourier_to_deformation(deltajet.psi_fourier(p, M, window), N)
    return 0, dumps(image.to_json())


def lib_covariance_padic(input, p, M, residue, digits, nu):
    from pjet import arith, deltajet, forms
    from workloads import dumps

    with open(input, "r", encoding="utf-8") as fh:
        F = deltajet.JetSeries.from_json(json.load(fh))
    rep = forms.covariance_check(F, arith.PadicTrunc(p, M, residue, digits), nu)
    return (0 if rep.passed is True else 1), dumps(rep.to_json())


LIBRARY = {
    "fourier_to_deformation": lib_fourier_to_deformation,
    "covariance_padic": lib_covariance_padic,
}


def execute(job) -> tuple[int, str, str]:
    """(exit code, payload, error); an exception is a failed job, not a crash."""
    try:
        if job.argv:
            code, text = run_cli(job.argv)
        else:
            code, text = LIBRARY[job.call](**job.args)
        return code, text, ""
    except Exception as e:  # the job failed; the benchmark records it and goes on
        return -1, "", f"{type(e).__name__}: {e}"


@dataclass
class Exec:
    job: object
    seconds: float
    code: int
    sha: str
    error: str
    ref_seconds: float = 0.0


# -- calibration ---------------------------------------------------------------------------


def calibration_kernel() -> int:
    """Rational arithmetic, dict updates and a JSON round trip: the program's kinds of work."""
    x, acc = Fraction(1, 3), {}
    for i in range(1, 200):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, 0) + x.numerator % 1000
    for i in range(40):
        text = json.dumps({"terms": [[j, str(Fraction(j, i + 1))] for j in range(20)]}, sort_keys=True)
        acc[i] = len(json.loads(text)["terms"])
    return sum(acc.values())


def calibrate() -> float:
    """Seconds of one run of the calibration kernel."""
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- phases --------------------------------------------------------------------------------------


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple[list[float], list[float]]:
    """Wall and reference seconds of a fresh interpreter that imports pjet.cli and builds its parser.

    Each start is scaled by the median of two kernel runs just before it and two just after.
    """
    code = "import pjet.cli; pjet.cli.build_parser()"
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", code]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes bytecode caches, untimed
    wall, ref = [], []
    for _ in range(repeats):
        cals = [calibrate(), calibrate()]
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        dt = time.perf_counter() - start
        cals += [calibrate(), calibrate()]
        wall.append(dt)
        ref.append(dt * CAL_REF_S / statistics.median(cals))
    return wall, ref


def gen_cache_entries() -> int:
    from pjet import multiprime

    return len(getattr(multiprime, "_GEN_CACHE", ()))


def clear_gen_cache() -> None:
    """Empty the library's generator cache, as a fresh ``pjet`` process has it."""
    from pjet import multiprime

    cache = getattr(multiprime, "_GEN_CACHE", None)
    if cache is not None:
        cache.clear()


def timed_loop(plan, seconds: float, payloads: dict, tracer=None):
    """Whole blocks until ``seconds`` pass; each block starts with an empty generator cache.

    Inside a block prime sets repeat, so only the first job for each set runs
    cold; every block starts from the same cache state, so a run's figures do
    not depend on how many blocks fit in it.

    Returns the executions, with their reference seconds, the untraced and
    traced job time, the wall time of each block and of the whole loop, and
    the kernel's times.

    With a tracer each job runs untraced and traced, in alternating order so
    neither side always meets the warmer cache; the traced executions are the
    ones returned.
    """
    execs: list[Exec] = []
    plain_s = traced_s = 0.0
    t0 = time.perf_counter()
    kernel_s = [calibrate()]
    block_s = []
    b = 0
    while True:
        clear_gen_cache()
        block_start = time.perf_counter()
        for i, job in enumerate(plan.block(b)):
            sides = (False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))
            for traced in sides:
                if tracer is not None:
                    tracer.enabled = traced
                    tracer.job = f"{b}.{i}"
                start = time.perf_counter()
                code, text, error = execute(job)
                dt = time.perf_counter() - start
                if tracer is not None:
                    tracer.enabled = False
                kernel_s.append(calibrate())  # the kernel runs on both sides of the job scale it
                if traced:
                    traced_s += dt
                else:
                    plain_s += dt
                if traced or tracer is None:
                    ref = dt * CAL_REF_S / ((kernel_s[-2] + kernel_s[-1]) / 2)
                    execs.append(Exec(job, dt, code, _sha(text), error, ref))
                    payloads.setdefault(job.key, (job, code, text))
        block_s.append(time.perf_counter() - block_start)
        b += 1
        if time.perf_counter() - t0 >= seconds:
            return execs, plain_s, traced_s, block_s, time.perf_counter() - t0, kernel_s


def judge(execs: list[Exec], payloads: dict, pins: dict) -> dict:
    """Oracle verdict per job key; a payload that changes between repeats also fails."""
    import oracles

    seen = {tuple(job.argv): (code, text) for job, code, text in payloads.values() if job.argv}
    refs = oracles.Refs(run_cli, seen)
    verdicts = {}
    for key, (job, code, text) in payloads.items():
        verdicts[key] = oracles.check(job, code, text, refs, pins, GOLDEN)
    for e in execs:
        first = payloads[e.job.key]
        if e.error:
            verdicts[e.job.key] = oracles.Verdict(False, f"exception {e.error}")
        elif e.sha != _sha(first[2]) or e.code != first[1]:
            verdicts[e.job.key] = oracles.Verdict(False, "payload changed between repeats")
    return verdicts


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples above it, and that percentile."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# -- metrics -----------------------------------------------------------------------------------


def layer_metrics(tracer, plain_s: float, traced_s: float, cache: tuple[int, int]) -> dict:
    from spans import LAYERS

    selfs = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    out = {}
    for name in per_layer_units():
        parts = name.split(".")
        fn = ".".join(parts[:-1])
        if name == "trace.overhead_ratio":
            out[name] = traced_s / plain_s - 1 if plain_s else 0.0
        elif name.endswith(".self_share"):
            layer = parts[0]
            own = [f"{layer}.{f}" for f in LAYERS.get(layer, ())]
            if layer == "qseries":
                own.append("qseries.Series1.mul")
            if layer == "cli":
                own = ["cli.handler", "cli.dump", "cli.main"]
            out[name] = sum(selfs.get(f, 0.0) for f in own) / traced_s if traced_s else 0.0
        elif name == "multiprime.gen_cache.entries_start":
            out[name] = cache[0]
        elif name == "multiprime.gen_cache.entries_end":
            out[name] = cache[1]
        elif name == "cli.payload_bytes":
            out[name] = int(counts.get(name, 0))
        elif name.endswith(".self_s"):
            out[name] = selfs.get(fn, 0.0)
        elif name.endswith(".calls"):
            out[name] = calls.get(fn, 0)
        elif name.endswith(".kept_ratio"):
            pairs = counts.get(fn + ".pairs", 0)
            out[name] = counts.get(fn + ".terms_out", 0) / pairs if pairs else 0.0
        else:
            out[name] = int(counts.get(name, 0))
    return out


# -- main ------------------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["lift", "qline", "glue", "all"],
                    help="one workload, or all three in turn, each in its own process with its own result line")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-pins", action="store_true",
                    help="pin the sha256 of every passing payload at the default seed")
    args = ap.parse_args(argv)
    if not args.write_pins and not args.workload:
        ap.error("--workload is required")
    return args


def load_pins() -> dict:
    if not os.path.isfile(PINS):
        return {}
    with open(PINS, "r", encoding="utf-8") as fh:
        return json.load(fh)["pins"]


def run(workload: str, seed: int, seconds: float, trace: bool, pins: dict, out_dir: str) -> dict:
    """One benchmark run; returns the run record (metrics, failures, environment)."""
    from spans import Tracer
    from workloads import SIZES, WORKLOADS, Plan

    record = {
        "workload": workload, "why": WORKLOADS[workload], "sizes": SIZES[workload],
        "seed": seed, "seconds": seconds,
        "trace": int(trace), "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu": cpu_model(), "loadavg_start": list(os.getloadavg()),
    }
    setup_wall, setup = ([], []) if trace else measure_setup()

    inputs = os.path.join(out_dir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    plan = Plan(workload, seed, inputs)
    for path, text in plan.files().items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    payloads: dict = {}
    anchor_execs = []
    for job in plan.anchors:
        start = time.perf_counter()
        code, text, error = execute(job)
        anchor_execs.append(Exec(job, time.perf_counter() - start, code, _sha(text), error))
        payloads.setdefault(job.key, (job, code, text))
    probe_payloads: dict = {}
    for job in plan.probes:
        code, text, error = execute(job)
        probe_payloads[job.key] = (job, code, text if not error else error)

    after_anchors = gen_cache_entries()
    clear_gen_cache()
    cache_start = gen_cache_entries()
    if trace:
        with Tracer() as tracer:
            execs, plain_s, traced_s, block_s, wall_s, kernel_s = timed_loop(plan, seconds, payloads, tracer)
    else:
        execs, plain_s, traced_s, block_s, wall_s, kernel_s = timed_loop(plan, seconds, payloads)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cache_end = gen_cache_entries()

    verdicts = judge(anchor_execs + execs, payloads, pins)
    all_execs = anchor_execs + execs
    failed = [e for e in all_execs if not verdicts[e.job.key].ok]
    probe_verdicts = judge([], probe_payloads, {})
    record["probes"] = [
        {"job": job.label(),
         "status": ("fixed" if v.ok else "known defect" if v.known else "FAIL"),
         "known": v.known, "witness": v.witness}
        for job, v in ((job, probe_verdicts[k]) for k, (job, _, _) in probe_payloads.items())
    ]
    times = [e.ref_seconds for e in execs]
    wall_times = [e.seconds for e in execs]
    tail_s, tail_pct = tail(times)
    record.update({
        "blocks": len(block_s),
        "block_s": [round(t, 4) for t in block_s],
        "jobs_timed": len(execs),
        "anchors": len(anchor_execs),
        "gen_cache_entries": {"after_anchors": after_anchors, "start": cache_start, "end": cache_end},
        # host speed during the timed phase: the calibration kernel's quartiles, against CAL_REF_S
        "kernel_s": {"ref": CAL_REF_S, "runs": len(kernel_s),
                     "quartiles": [round(q, 6) for q in statistics.quantiles(kernel_s, n=4)]},
        "loadavg_end": list(os.getloadavg()),
        "attempted": len(all_execs),
        "failed": len(failed),
        "fail_ratio": len(failed) / len(all_execs),
    })
    failing = collections.Counter(e.job.key for e in failed)
    jobs = {e.job.key: e.job for e in failed}
    record["failures"] = [
        {"job": jobs[k].label(), "known": verdicts[k].known, "witness": verdicts[k].witness,
         "executions": n}
        for k, n in failing.items()
    ]
    # a timed or anchor job must not fail; a probe may show its known defect, nothing else
    record["correct"] = not failed and all(p["status"] != "FAIL" for p in record["probes"])
    kinds: dict[str, list] = {}
    for e in execs:
        k = kinds.setdefault(e.job.kind, [0, 0.0])
        k[0] += 1
        k[1] += e.seconds
    record["kinds"] = {k: {"jobs": n, "seconds": round(t, 6)} for k, (n, t) in sorted(kinds.items())}
    if trace:
        metrics = layer_metrics(tracer, plain_s, traced_s, (cache_start, cache_end))
        units = per_layer_units()
        record["spans"] = len(tracer.spans)
        tracer.write(os.path.join(out_dir, "spans.jsonl"))
    else:
        metrics = {
            "jobs_per_s": len(execs) / sum(times),
            "job_s.p50": statistics.median(times),
            "job_s.tail": tail_s,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END
        record["samples"] = {
            "jobs_per_s": f"{len(execs)} jobs in {len(block_s)} blocks, {sum(times):.3f} ref s",
            "job_s.p50": f"n={len(execs)}",
            "job_s.tail": f"p{tail_pct:.1f}, n={len(execs)}, {min(10, len(execs) - 1)} above",
            "peak_rss_mb": "ru_maxrss after the timed phase",
            "setup_s": f"median of {len(setup)} fresh interpreters",
        }
        record["wall"] = {
            "jobs_per_s": len(execs) / sum(wall_times),
            "job_s.p50": statistics.median(wall_times),
            "job_s.tail": tail(wall_times)[0],
            "setup_s": statistics.median(setup_wall),
            "loop_s": wall_s,
        }
    record["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    return record


def report(record: dict) -> None:
    w = record["workload"]
    print(f"# {w} seed={record['seed']} trace={record['trace']}: {record['why']}")
    print(f"# python {record['python']}, nproc {record['nproc']}, {record['cpu']}, "
          f"load {record['loadavg_start']}, _GEN_CACHE {record['gen_cache_entries']}, "
          f"kernel {record['kernel_s']}")
    samples = record.get("samples", {})
    for name, m in record["metrics"].items():
        print(f"{w:6s} {name:42s} {m['value']:>14.6g} {m['unit']:6s} {samples.get(name, '')}")
    print(f"{w:6s} {'fail_ratio':42s} {record['fail_ratio']:>14.6g} {'ratio':6s} "
          f"{record['failed']} of {record['attempted']} attempted")
    for name, value in record.get("wall", {}).items():
        unit = END_TO_END.get(name, "s")
        print(f"{w:6s} {'wall.' + name:42s} {value:>14.6g} {unit:6s} unscaled wall time")
    for f in record["failures"]:
        tag = f["known"].split(":")[0] if f["known"] else "FAIL"
        print(f"# {tag} x{f['executions']}: {f['job']}: {f['witness']}")
    for p in record["probes"]:
        tag = p["known"].split(":")[0] if p["known"] else p["status"]
        print(f"# probe, {tag}: {p['job']}: {p['witness'] or 'the oracle passes'}")


def write_pins() -> int:
    """Pin every passing payload of the default seed: anchors and the blocks a run reaches."""
    from workloads import Plan

    pins: dict[str, str] = {}
    out_dir = os.path.join(OUT, "pins")
    for workload in ("lift", "qline", "glue"):
        inputs = os.path.join(out_dir, workload)
        os.makedirs(inputs, exist_ok=True)
        plan = Plan(workload, DEFAULT_SEED, inputs)
        for path, text in plan.files().items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        jobs = plan.anchors + [j for blk in plan.blocks[:PIN_BLOCKS[workload]] for j in blk]
        payloads, execs = {}, []
        for job in jobs:
            if job.key in payloads:
                continue
            code, text, error = execute(job)
            payloads[job.key] = (job, code, text)
            execs.append(Exec(job, 0.0, code, _sha(text), error))
        verdicts = judge(execs, payloads, {})
        for key, (job, code, text) in payloads.items():
            if verdicts[key].ok:
                pins[key] = _sha(text)
        print(f"{workload}: pinned {sum(1 for k in payloads if verdicts[k].ok)} of {len(payloads)}",
              file=sys.stderr)
    shutil.rmtree(out_dir, ignore_errors=True)
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "pins": dict(sorted(pins.items()))}, fh, indent=0)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    if args.write_pins:
        return write_pins()
    if args.workload == "all":
        # one process per workload, so peak memory and caches stay each workload's own
        codes = [
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for w in ("lift", "qline", "glue")
        ]
        return max(codes)
    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), load_pins(), out_dir)
    finally:
        shutil.rmtree(os.path.join(out_dir, "inputs"), ignore_errors=True)
    with open(os.path.join(out_dir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    report(record)
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
