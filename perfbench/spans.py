"""In-memory spans around the public functions of each pjet module.

The tracer replaces each named function in *every* module namespace that
binds it (``forms`` and ``cli`` use ``from ... import``, so patching only the
defining module would miss their calls), records one span per call as
``(name, start, end, parent, job)`` and restores the originals on exit.
Self times and counts are derived from the spans afterwards.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# layer -> function names traced in that module
LAYERS = {
    "multiprime": (
        "phi_pk", "delta_pk", "jet_to_ghost", "ghost_to_jet", "poly_mul",
        "exact_rank", "substitute_gamma", "continuation_check", "build_fe0",
        "build_fe_k", "basis_independence_check",
    ),
    "deltajet": (
        "terms_mul", "phi", "delta", "psi_fourier", "psi_serretate",
        "lemma_xlaphi_check", "lemma_logder_check",
    ),
    "qseries": ("log1p", "pow_weight"),
    "arith": ("rational_reconstruct", "fermat_delta", "cross_prime_commutator"),
    "modular": ("newform_coefficients", "eisenstein", "discriminant_delta", "ap_point_count"),
    "forms": (
        "delta_fourier_expand", "fsharp_expansion", "build_f2e0", "build_f2e_k",
        "covariance_check", "fourier_to_deformation",
    ),
}

# Functions whose argument and result sizes are counted: name -> kind.
_PAIR_COUNTED = {"multiprime.poly_mul", "deltajet.terms_mul"}
_OUT_COUNTED = {"multiprime.jet_to_ghost", "multiprime.ghost_to_jet"}
_FAIL_COUNTED = {"arith.rational_reconstruct"}


class Tracer:
    """Patch, record, restore.  Use as a context manager around traced jobs."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.enabled = False

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        pairs = name in _PAIR_COUNTED
        outs = name in _OUT_COUNTED
        fails = name in _FAIL_COUNTED
        dump = name == "cli.dump"

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.spans)
            tracer.spans.append(None)  # reserve the slot so children index after it
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                if fails:
                    tracer.counts[name + ".failures"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.job)
            if pairs:
                n = len(args[0]) * len(args[1])
                tracer.counts[name + ".pairs"] += n
                tracer.counts[name + ".terms_out"] += len(out)
            elif outs:
                tracer.counts[name + ".terms_out"] += len(out)
            elif dump:
                tracer.counts["cli.payload_bytes"] += len(out.encode("utf-8"))
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch_everywhere(self, original, wrapper):
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "") or ""
            if not (modname == "pjet" or modname.startswith("pjet.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def __enter__(self):
        import pjet.cli
        import pjet.qseries

        pjet_mods = {m: sys.modules[f"pjet.{m}"] for m in LAYERS}
        for layer, names in LAYERS.items():
            for fname in names:
                original = getattr(pjet_mods[layer], fname)
                self._patch_everywhere(original, self._wrap(f"{layer}.{fname}", original))
        series1 = pjet.qseries.Series1
        mul = series1.__dict__["__mul__"]
        traced_mul = self._wrap("qseries.Series1.mul", mul)
        for attr in ("__mul__", "__rmul__"):
            if series1.__dict__.get(attr) is mul:
                self._undo.append((series1, attr, mul))
                setattr(series1, attr, traced_mul)
        cli = pjet.cli
        for attr in [a for a in vars(cli) if a.startswith("cmd_")]:
            original = getattr(cli, attr)
            self._patch_everywhere(original, self._wrap("cli.handler", original))
        self._patch_everywhere(cli._dump, self._wrap("cli.dump", cli._dump))
        self._patch_everywhere(cli.main, self._wrap("cli.main", cli.main))
        self.enabled = True
        return self

    def __exit__(self, *exc):
        self.enabled = False
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()
        return False

    # -- derived numbers -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span duration minus the part covered by its direct children, summed by name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _job) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")
