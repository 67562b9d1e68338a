"""One benchmark run of one workload, in a fresh interpreter.

Usage (from ``run.py``):
    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR RESULT_JSON

Imports oscillax from ``src/`` of the current directory, writes the model
files, then runs whole passes of the workload until ``SECONDS`` have been
measured (at least one pass).  Each pass reports its wall and CPU time (sum
over its timed actions; checks are not timed) and, when traced, its per-layer
metrics.  The process's peak RSS is read at the end.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    workload, seed, seconds, trace, workdir, result_path = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import oscillax.cli  # noqa: F401  (import cost is measured by run.py)
    from oscillax.fixtures import FIXTURES, SUBCASE_FIXTURES
    from oscillax.model import save_model

    if not Path(oscillax.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"oscillax imported from {oscillax.__file__}, not from {src}")
    import tracing
    from workloads import Workload

    workdir = Path(workdir)
    model_dir = workdir / "models"
    model_dir.mkdir(parents=True, exist_ok=True)
    for name, fn in FIXTURES.items():
        save_model(fn(), model_dir / f"{name}.json")
    for name, fn in SUBCASE_FIXTURES.items():
        save_model(fn(), model_dir / f"FIX-PP-{name}.json")
    reference = json.loads((HERE / "reference.json").read_text())
    wl = Workload(workload, seed, model_dir, workdir / "out", reference)

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()

    passes, failures = [], []
    attempted = failed = 0
    measured = 0.0
    while not passes or measured < seconds:
        wall = cpu = 0.0
        for step in wl.steps(len(passes)):
            if tracer:
                tracer.active = True
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result = step.action()
            except Exception:  # a crashing step is a failed check, not a crashed run
                result = traceback.format_exc(limit=3)
                raised = True
            else:
                raised = False
            t1, c1 = time.perf_counter(), time.process_time()
            if tracer:
                tracer.active = False
            wall += t1 - t0
            cpu += c1 - c0
            try:
                checks = ([(f"{step.label}: raised {result}", False)] if raised
                          else step.check(result))
            except Exception:  # e.g. a missing or malformed output file
                checks = [(f"{step.label}: check raised {traceback.format_exc(limit=3)}",
                           False)]
            attempted += len(checks)
            for msg, ok in checks:
                if not ok:
                    failed += 1
                    failures.append(msg)
        measured += wall
        record = {"wall_s": wall, "cpu_s": cpu}
        if tracer:
            record["layers"] = tracer.end_pass(wall)
        passes.append(record)
    if tracer:
        tracer.dump(workdir / "spans.json")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps({
        "passes": passes, "attempted": attempted, "failed": failed,
        "failures": failures[:20], "peak_rss_mb": peak_kb / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
