"""Batch command-line front end.

Subcommands: classify, evolve, kernel, spectrum, verify, simulate, fixtures.
All data goes to files under --out (or $OSCILLAX_OUT, default '.'); stdout
carries only the paths of written files, errors go to stderr.  Exit codes:
0 ok, 1 verification failure, 2 invalid input, 3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import (
    LeakDominated,
    NoConvergence,
    OscillaxError,
    PlateauNotReached,
    SequenceTooNoisy,
    ValidationError,
)
from .evolve import Window, default_window, marginal_sequence, powers
from .model import load_model, save_model

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_NO_CONVERGENCE = 3


def _outdir(args) -> Path:
    out = args.out or os.environ.get("OSCILLAX_OUT") or "."
    p = Path(out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


def _encode(o, pad: str = "") -> str:
    """``json.dumps(o, indent=1, sort_keys=True, default=_json_default)`` at
    the nesting depth ``len(pad)``.  A flat list of finite floats is joined
    from their ``repr``, which is json's float format, in one pass: json
    formats an indented list one item at a time in Python, since its C
    encoder does not indent."""
    inner = pad + " "
    sep = ",\n" + inner
    if type(o) is list and o and set(map(type, o)) == {float} and all(map(math.isfinite, o)):
        return f"[\n{inner}{sep.join(map(repr, o))}\n{pad}]"
    if type(o) is dict and o and all(type(k) is str for k in o):
        items = (f"{json.dumps(k)}: {_encode(o[k], inner)}" for k in sorted(o))
    elif isinstance(o, (list, tuple)) and any(isinstance(v, (list, tuple, dict)) for v in o):
        items = (_encode(v, inner) for v in o)
    else:   # scalars, empty containers, other flat lists, dicts with non-str keys;
        # json escapes newlines in strings, so each one it writes starts an indent
        text = json.dumps(o, indent=1, sort_keys=True, default=_json_default)
        return text.replace("\n", "\n" + pad)
    brackets = "{}" if isinstance(o, dict) else "[]"
    return f"{brackets[0]}\n{inner}{sep.join(items)}\n{pad}{brackets[1]}"


def _write_json(path: Path, payload) -> None:
    path.write_text(_encode(payload) + "\n")
    print(path)


def _write_csv(path: Path, header, columns) -> None:
    """One header line, then one line per row of the equal-length 1-D
    ``columns``: a float column as %.17g, any other with str; the bytes
    csv.writer's default dialect writes for these fields."""
    columns = [np.asarray(col) for col in columns]
    line = ",".join("%.17g" if col.dtype.kind == "f" else "%s" for col in columns) + "\r\n"
    cells = tuple(chain.from_iterable(zip(*(col.tolist() for col in columns))))
    path.write_text(",".join(header) + "\r\n" + (line * len(columns[0])) % cells, newline="")
    print(path)


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _window(args, model, horizon) -> Window:
    if args.window:
        return Window(-args.window, args.window)
    return default_window(model, horizon)


def cmd_classify(args) -> int:
    from .regimes import predict

    report = predict(load_model(args.model))   # before the output directory is made
    _write_json(_outdir(args) / "classify.json", report)
    return EXIT_OK


def cmd_evolve(args) -> int:
    model = load_model(args.model)
    if args.rational and not model.exact:
        raise ValidationError(
            "--rational requires a model with exact (rational) probabilities")
    horizon = args.horizon
    window = _window(args, model, horizon)
    table = marginal_sequence(model, args.start, args.target, horizon, window, exact=args.rational)
    values, leak = table.data["values"][1:], table.leak[1:]
    if args.rational:   # numerators over D**n; int / int rounds correctly, as float(Fraction) does
        scale = powers(table.meta["D"], horizon)[1:]
        values, leak = (values / scale).astype(float), (leak / scale).astype(float)
    _write_csv(_outdir(args) / "evolve.csv", ["n", "value", "leak"],
               [np.arange(1, horizon + 1), values, leak])
    return EXIT_OK


def cmd_kernel(args) -> int:
    from .model import essential_class
    from .switching import build_Q, switching_time_marginals

    model = load_model(args.model)
    horizon = args.horizon
    window = _window(args, model, horizon)
    # T_n(x, y) for every row x in one full-walk DP, before build_Q: an oversized horizon runs no DP
    T = switching_time_marginals(model, essential_class(model), horizon, window)
    hist = build_Q(model, horizon, window)
    band_lo, band_hi = hist.band
    n, x, y = np.meshgrid(np.arange(1, horizon + 1), hist.rows, np.arange(band_lo, band_hi + 1),
                          indexing="ij")
    _write_csv(_outdir(args) / "kernel.csv", ["n", "x", "y", "Qn", "Tn"],
               [n.ravel(), x.ravel(), y.ravel(), hist.R[1:].ravel(), T[1:].ravel()])
    return EXIT_OK


def cmd_spectrum(args) -> int:
    from .switching import default_weight, dominant_eigenpair, switching_kernel

    model = load_model(args.model)
    weight = default_weight(model, args.delta, args.weight)
    weight.check_delta("--delta")
    window = _window(args, model, 4096)
    rate = max(weight.rate_neg, weight.rate_pos)
    if not args.window and rate > 0:   # the default window, cut to where the weight is finite
        half = min(window.hi, int(math.log(sys.float_info.max) / rate))
        if half < 1:
            raise ValidationError(f"{weight!r} overflows at |x| = 1: no window is finite")
        window = Window(-half, half)
    spectral = dominant_eigenpair(switching_kernel(model, window), weight)
    _write_json(_outdir(args) / "spectrum.json", spectral.report())
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .verify import simulate

    model = load_model(args.model)
    res = simulate(model, args.start, args.horizon, args.paths, args.seed)
    _write_json(_outdir(args) / "simulate.json", res.report())
    return EXIT_OK


def cmd_fixtures(args) -> int:
    from .fixtures import FIXTURES, SUBCASE_FIXTURES

    out = _outdir(args)
    for name, fn in FIXTURES.items():
        save_model(fn(), out / f"{name}.json")
        print(out / f"{name}.json")
    for name, fn in SUBCASE_FIXTURES.items():
        save_model(fn(), out / f"FIX-PP-{name}.json")
        print(out / f"FIX-PP-{name}.json")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import (asymptotics_fit_window, asymptotics_suite, convergence_suite,
                         identity_suite)

    unread = {"identities": ["horizon", "window"], "convergence": ["float_mode"],
              "asymptotics": ["float_mode"]}.get(args.suite, [])
    if given := [f"--{name.replace('_', '-')}" for name in unread if getattr(args, name)]:
        raise ValidationError(f"--suite {args.suite} does not read {', '.join(given)}")
    model, horizon = load_model(args.model), args.horizon or 4096
    if args.suite in ("asymptotics", "all"):   # refuse a short fit before any suite runs
        asymptotics_fit_window(horizon)
    window = _window(args, model, horizon)
    run = {"identities": lambda: identity_suite(model, exact=not args.float_mode),
           "convergence": lambda: convergence_suite(model, horizon, window),
           "asymptotics": lambda: asymptotics_suite(model, horizon, window)}
    report = {suite: run[suite]() for suite in (run if args.suite == "all" else [args.suite])}
    report["passed"] = all(rep["passed"] for rep in report.values())
    _write_json(_outdir(args) / "verify.json", report)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAIL


@functools.cache   # built once per process; each parse_args starts from the defaults
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="oscillax",
                                 description="oscillating random walk laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, model=True, window=True, horizon=True):
        if model:
            p.add_argument("model", help="model JSON file")
        if window:
            p.add_argument("--window", "-W", type=_positive_int, default=None,
                           help="window half-width (default: diffusive rule)")
        if horizon:
            p.add_argument("--horizon", "-n", type=_positive_int, default=4096)
        p.add_argument("--out", "-o", default=None,
                       help="output directory (fallback: $OSCILLAX_OUT, then '.')")

    p = sub.add_parser("classify", help="regime classification report")
    common(p, window=False, horizon=False)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("evolve", help="P_x[X_n=y] sequence to CSV")
    common(p)
    p.add_argument("--rational", action="store_true",
                   help="exact rational arithmetic (model probabilities must be rationals)")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="target", type=int, required=True)
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser("kernel", help="switching kernels Q_n and renewal T_n to CSV")
    common(p)
    p.set_defaults(fn=cmd_kernel, horizon=256)

    p = sub.add_parser("spectrum", help="dominant eigenpair of the switching kernel")
    common(p, horizon=False)
    p.add_argument("--weight", choices=["auto", "polynomial", "exponential"],
                   default="auto")
    p.add_argument("--delta", type=float, default=None)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("verify", help="identity/convergence/asymptotics suites")
    common(p)
    p.add_argument("--suite", choices=["identities", "convergence", "asymptotics", "all"],
                   default="all")
    p.add_argument("--float-mode", action="store_true",
                   help="force float arithmetic in the identity suite")
    p.set_defaults(fn=cmd_verify, horizon=None)   # 4096 where a suite reads it

    p = sub.add_parser("simulate", help="Monte Carlo sampling of the walk")
    common(p, window=False)
    p.add_argument("--from", dest="start", type=int, default=0)
    p.add_argument("--paths", type=_positive_int, default=100_000)
    p.add_argument("--seed", "-s", type=int, default=20240817)
    p.set_defaults(fn=cmd_simulate, horizon=50)

    p = sub.add_parser("fixtures", help="write the shipped FIX-* model files")
    common(p, model=False, window=False, horizon=False)
    p.set_defaults(fn=cmd_fixtures)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (NoConvergence, PlateauNotReached, SequenceTooNoisy, LeakDominated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (OscillaxError, OSError) as exc:   # ValidationError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
