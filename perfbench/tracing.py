"""Per-layer tracing from outside the program.

Every public function of the traced modules is replaced by a wrapper that
records one span (function, start, end, parent span) per call, plus work
counts read off the call's arguments and return value.  The wrapper is
patched into every ``oscillax.*`` namespace (and module-level dict) holding a
reference to the original, because modules bind some functions at import
time: ``cli`` holds ``marginal_sequence``, ``switching`` and ``verify`` hold
``first_passage_kernel``.  Spans stay in memory; ``layer_metrics`` turns one
pass's spans into the per-layer numbers and ``dump`` writes them out.

A layer is a module.  Its self time is the sum over its spans of the span's
duration minus the durations of its direct child spans; calls are serial, so
child spans never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("model", "evolve", "ladder", "switching", "regimes", "verify",
                  "fixtures")
LAYERS = TRACED_MODULES + ("cli",)

# Per-layer metrics reported by a traced run: name -> unit.
PER_LAYER = {
    "evolve.self_s": "s",
    "evolve.exact_self_s": "s",
    "evolve.first_passage_kernel.calls": "count",
    "evolve.first_passage_kernel.self_s": "s",
    "evolve.first_passage_kernel.cell_steps": "count",
    "evolve.first_passage_kernel.cells_per_s": "1/s",
    "evolve.step.calls": "count",
    "evolve.step.self_s": "s",
    "evolve.marginal_sequence.self_s": "s",
    "evolve.excursion_functions.self_s": "s",
    "switching.self_s": "s",
    "switching.switching_kernel.self_s": "s",
    "switching.switching_kernel.bytes": "B",
    "switching.power_iterate.self_s": "s",
    "switching.power_iterate.iterations": "count",
    "switching.banded_power_sequences.self_s": "s",
    "switching.build_Q.rows": "count",
    "switching.switching_time_marginals.self_s": "s",
    "switching.passage_resolvent.self_s": "s",
    "ladder.self_s": "s",
    "ladder.killed_green_row.calls": "count",
    "ladder.killed_green_row.self_s": "s",
    "ladder.ladder_height_dist.self_s": "s",
    "ladder.nonpositive_probs.self_s": "s",
    "regimes.self_s": "s",
    "regimes.classify.self_s": "s",
    "regimes.invariant_profile.self_s": "s",
    "model.self_s": "s",
    "model.laplace_deriv.calls": "count",
    "model.argmin_laplace.self_s": "s",
    "fixtures.self_s": "s",
    "fixtures.search_subcase_fixtures.self_s": "s",
    "verify.self_s": "s",
    "verify.identity_suite.self_s": "s",
    "verify.simulate.self_s": "s",
    "verify.simulate.path_steps": "count",
    "verify.simulate.path_steps_per_s": "1/s",
    "verify.fit_rate_exponent.self_s": "s",
    "verify.effective_leak.self_s": "s",
    "verify.convergence_suite.self_s": "s",
    "cli.self_s": "s",
    "cli.main.self_s": "s",
    "cli.bytes_written": "B",
    # wall_s of the traced pass = sum of every layer's self_s + untraced_s
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}


def _out_dir(argv) -> str | None:
    for flag in ("-o", "--out"):
        if flag in argv:
            return argv[argv.index(flag) + 1]
    return None


def _dir_bytes(path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _work_counts(fname, args, result) -> dict:
    """Work done by one call, from its arguments and return value."""
    if fname == "evolve.first_passage_kernel":
        seg_lo, seg_hi = result.data["segment"]
        return {"cell_steps": result.horizon * (seg_hi - seg_lo + 1)}
    if fname == "switching.switching_kernel":
        return {"bytes": result.window.width ** 2 * 8}
    if fname == "switching.power_iterate":
        return {"iterations": result.iterations}
    if fname == "switching.build_Q":
        return {"rows": len(result)}
    if fname == "verify.simulate":
        return {"path_steps": result.paths * result.n_steps}
    if fname == "cli.main":
        out = _out_dir(args[0] if args else [])
        return {"bytes_written": _dir_bytes(out) if out and os.path.isdir(out) else 0}
    return {}


def _is_exact(fname, args, result) -> bool:
    meta = getattr(result, "meta", None)
    if isinstance(meta, dict):
        return bool(meta.get("exact"))
    if fname == "evolve.step":
        return isinstance(args[0], np.ndarray) and args[0].dtype == object
    return False


class Tracer:
    """Span recorder for the functions it wraps; spans are kept per pass."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []          # function id -> "module.function"
        self.spans: list[list] = []         # [fid, start, end, parent, exact]
        self.counts: dict = defaultdict(int)
        self.stack: list[int] = []
        self.passes: list[dict] = []

    def _wrap(self, fname, fn):
        fid = len(self.names)
        self.names.append(fname)
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [fid, 0.0, 0.0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            counts[fname + ".calls"] += 1
            for key, val in _work_counts(fname, args, result).items():
                counts[f"{fname}.{key}"] += val
            span[4] = _is_exact(fname, args, result)
            return result

        return traced

    def install(self):
        """Wrap every public function of the traced modules, plus cli.main."""
        import oscillax.cli

        targets = []
        for short in TRACED_MODULES:
            mod = sys.modules[f"oscillax.{short}"]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets.append((f"{short}.{name}", obj))
        targets.append(("cli.main", oscillax.cli.main))
        wrapped = {id(fn): self._wrap(fname, fn) for fname, fn in targets}
        for modname, mod in list(sys.modules.items()):
            if modname != "oscillax" and not modname.startswith("oscillax."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped:
                            obj[key] = wrapped[id(val)]

    def end_pass(self, wall_s: float) -> dict:
        """Per-layer metrics of the pass just run; keeps its spans for dump()."""
        metrics = layer_metrics(self.names, self.spans, self.counts, wall_s)
        self.passes.append({"wall_s": wall_s, "spans": list(self.spans)})
        self.spans.clear()
        self.counts.clear()
        return metrics

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"functions": self.names, "span_fields":
                       ["function", "start", "end", "parent", "exact"],
                       "passes": self.passes}, fh)


def layer_metrics(names, spans, counts, wall_s) -> dict:
    child = [0.0] * len(spans)
    for fid, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    fn_self: dict = defaultdict(float)
    layer_self: dict = defaultdict(float)
    exact_self = 0.0
    for i, (fid, start, end, parent, exact) in enumerate(spans):
        self_s = end - start - child[i]
        fname = names[fid]
        fn_self[fname] += self_s
        layer = fname.split(".", 1)[0]
        layer_self[layer] += self_s
        if exact and layer == "evolve":
            exact_self += self_s
    out = {}
    for key in PER_LAYER:
        if key.startswith("trace.") or key == "evolve.exact_self_s":
            continue
        if key.endswith(".self_s") and key.count(".") == 1:
            out[key] = layer_self[key.split(".")[0]]
        elif key.endswith(".self_s"):
            out[key] = fn_self[key[: -len(".self_s")]]
        else:
            out[key] = float(counts.get(key, 0))
    out["evolve.exact_self_s"] = exact_self
    out["cli.bytes_written"] = float(counts.get("cli.main.bytes_written", 0))
    fpk = fn_self["evolve.first_passage_kernel"]
    out["evolve.first_passage_kernel.cells_per_s"] = (
        out["evolve.first_passage_kernel.cell_steps"] / fpk if fpk > 0 else 0.0)
    sim = fn_self["verify.simulate"]
    out["verify.simulate.path_steps_per_s"] = (
        out["verify.simulate.path_steps"] / sim if sim > 0 else 0.0)
    out["trace.wall_s"] = wall_s
    out["trace.untraced_s"] = wall_s - sum(layer_self.values())
    return out
