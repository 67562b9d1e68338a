"""oscillax benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload recurrent --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; oscillax is imported from ``src/`` there.
Workloads: recurrent, transient, renewal, spectral (see workloads.py).

--trace 0 measures the end-to-end metrics:
  setup_s      interpreter start to oscillax.cli, switching, regimes, verify,
               ladder and fixtures imported; median of SETUP_SAMPLES fresh
               interpreters
  wall_s       wall time of one workload pass after set-up (median of passes)
  cpu_s        user + system CPU time of that pass, all threads
  peak_rss_mb  peak resident memory of the run's process
--trace 1 runs the workload untraced and then traced, each in a fresh
process, and reports the per-layer metrics of tracing.PER_LAYER.

Every workload runs in a fresh worker process that repeats whole passes until
--seconds have been measured.  Output checks count towards ``attempted`` and
``failed``; failed_ratio = failed / attempted is printed with the other
metrics.  The last stdout line is the JSON result.  Scratch files go under
``.perfbench/`` in the current directory; the spans of a traced run are kept
there as ``spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
RUN_BUDGET_S = 170.0
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import oscillax.cli, oscillax.switching, oscillax.regimes, oscillax.verify, "
    "oscillax.ladder, oscillax.fixtures\n"
    "print(time.monotonic())\n"
)
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def environment(src: Path) -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "sympy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "python": sys.version.split()[0],
        **versions,
        "nproc": os.cpu_count(),
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS") or k == "OMP_PROC_BIND"},
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((src / "oscillax").glob("*.py"))),
    }


def setup_time(src: Path) -> float:
    """Seconds from spawning an interpreter to the CLI's modules imported."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(src)],
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.split()[-1]) - t0


def run_worker(workload, seed, seconds, trace, workdir: Path, deadline) -> dict:
    result_path = workdir / f"result-trace{int(trace)}.json"
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds),
            "1" if trace else "0", str(workdir / f"trace{int(trace)}"), str(result_path)]
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(result_path.read_text())


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "oscillax" / "__init__.py").is_file():
        print(f"error: no oscillax sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    print("environment:", json.dumps(environment(src), sort_keys=True))

    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        samples = {}
        if args.trace:
            plain = run_worker(args.workload, args.seed, args.seconds, False, workdir, deadline)
            traced = run_worker(args.workload, args.seed, args.seconds, True, workdir, deadline)
            spans = workdir / "trace1" / "spans.json"
            shutil.move(spans, scratch / f"spans-{args.workload}-{args.seed}.json")
            runs = (plain, traced)
            untraced_wall = statistics.median(p["wall_s"] for p in plain["passes"])
            for key in PER_LAYER:
                if key == "trace.overhead_s":
                    continue
                samples[key] = [p["layers"][key] for p in traced["passes"]]
            samples["trace.overhead_s"] = [w - untraced_wall for w in samples["trace.wall_s"]]
            units = PER_LAYER
        else:
            samples["setup_s"] = [setup_time(src) for _ in range(SETUP_SAMPLES)]
            plain = run_worker(args.workload, args.seed, args.seconds, False, workdir, deadline)
            runs = (plain,)
            samples["wall_s"] = [p["wall_s"] for p in plain["passes"]]
            samples["cpu_s"] = [p["cpu_s"] for p in plain["passes"]]
            samples["peak_rss_mb"] = [plain["peak_rss_mb"]]
            units = END_TO_END
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for msg in r["failures"]:
            print("FAILED:", msg)
    metrics = {}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {[len(r['passes']) for r in runs]}")
    print(f"  {'metric':44s} {'median':>14s} {'q1':>14s} {'q3':>14s}  n  unit")
    for key, unit in units.items():
        q1, med, q3 = quartiles(samples[key])
        metrics[key] = {"value": med, "unit": unit}
        print(f"  {key:44s} {med:14.6g} {q1:14.6g} {q3:14.6g} {len(samples[key]):2d}  {unit}")
    print(f"  {'failed_ratio':44s} {failed / max(attempted, 1):14.6g} "
          f"{'':14s} {'':14s} {attempted:2d}  checks")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
