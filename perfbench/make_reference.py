"""Regenerate perfbench/reference.json, the seed-commit values the checks use.

    python3 perfbench/make_reference.py

Run from a checkout root at the commit whose outputs are the reference.  The
file pins the dominant eigenvalue and residual of every ``spectrum`` call, the
classification of the recurrent models and criterion 10's growth bounds.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(HERE))

from oscillax.evolve import Window  # noqa: E402
from oscillax.fixtures import FIXTURES, fix_zz  # noqa: E402
from oscillax.model import save_model  # noqa: E402
from oscillax.switching import banded_power_sequences  # noqa: E402
from workloads import (RECURRENT_MODELS, SPECTRAL_RUNS, run_cli,  # noqa: E402
                       growth_bound)


def main() -> int:
    ref = {"spectrum": {}, "classify": {}}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, fn in FIXTURES.items():
            save_model(fn(), tmp / f"{name}.json")
        runs = [(m, 512, "auto") for m in RECURRENT_MODELS] + list(SPECTRAL_RUNS)
        for model, width, weight in runs:
            argv = ["spectrum", str(tmp / f"{model}.json"), "-W", str(width), "-o", str(tmp)]
            if weight != "auto":
                argv += ["--weight", weight]
            code, err = run_cli(argv)
            if code != 0:
                raise SystemExit(f"spectrum {model} failed: {err}")
            rep = json.loads((tmp / "spectrum.json").read_text())
            ref["spectrum"][f"{model}@W{width}:{weight}"] = {
                "rho_psi": rep["rho_psi"], "residual": rep["residual"]}
        for model in RECURRENT_MODELS:
            code, err = run_cli(["classify", str(tmp / f"{model}.json"), "-o", str(tmp)])
            if code != 0:
                raise SystemExit(f"classify {model} failed: {err}")
            rep = json.loads((tmp / "classify.json").read_text())
            ref["classify"][model] = {k: rep[k] for k in
                                      ("case", "rate", "exponent", "constant_kind")}
    window = Window(-64, 64)
    seqs = banded_power_sequences(fix_zz(), 4096, window, ells=[1, 2, 3, 4, 5])
    ref["renewal_growth_bound"] = {str(k): v for k, v in growth_bound(seqs, window).items()}
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
