import argparse
import csv
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_marginal_sequence
from oscillax import verify
from oscillax.cli import _write_csv, _write_json, build_parser, main
from oscillax.evolve import Window
from oscillax.fixtures import FIXTURES, SUBCASE_FIXTURES
from oscillax.model import dist, load_model, mirror_model, save_model, validate_model

FIXTURE_FILES = [*FIXTURES, *(f"FIX-PP-{name}" for name in SUBCASE_FIXTURES)]
# sha256 of every file test_fixture_outputs_keep_the_byte_contract writes, per
# fixture file; a deliberate change of an output rewrites this table
OUTPUT_DIGESTS = json.loads((Path(__file__).parent / "fixture_output_digests.json").read_text())
# sha256 of verify.json from ``verify --suite identities --float-mode``: float
# residuals, which move with any change to the rounding of the DPs behind them
IDENTITY_FLOAT_DIGESTS = json.loads(
    (Path(__file__).parent / "identity_float_digests.json").read_text())

FIX_DIR = None


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("models")
    assert main(["fixtures", "-o", str(d)]) == 0
    return d


class TestCommands:
    def test_classify_subcase(self, model_dir, tmp_path):
        assert main(["classify", str(model_dir / "FIX-PP.json"), "-o", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "classify.json").read_text())
        assert rep["subcase"] == "B2"
        assert rep["rate"] == pytest.approx(0.905031433644464, abs=1e-12)

    def test_evolve_csv_shape(self, model_dir, tmp_path):
        assert main(["evolve", str(model_dir / "FIX-ZZ.json"), "--from", "0",
                     "--to", "0", "-n", "256", "-W", "128", "-o", str(tmp_path)]) == 0
        lines = (tmp_path / "evolve.csv").read_text().strip().splitlines()
        assert lines[0] == "n,value,leak"
        assert len(lines) == 257
        final_leak = float(lines[-1].split(",")[2])
        assert final_leak <= 1e-10

    def test_evolve_rational_transient(self, model_dir, tmp_path):
        # the exact DP runs on transient models too; it agrees with the float run
        runs = {}
        for mode in ("rational", "float"):
            out = tmp_path / mode
            out.mkdir()
            argv = ["evolve", str(model_dir / "FIX-PP.json"), "--from", "0", "--to", "0",
                    "-n", "64", "-o", str(out)]
            assert main(argv + (["--rational"] if mode == "rational" else [])) == 0
            lines = (out / "evolve.csv").read_text().strip().splitlines()[1:]
            runs[mode] = [float(line.split(",")[1]) for line in lines]
        assert len(runs["rational"]) == 64
        assert runs["rational"] == pytest.approx(runs["float"], rel=1e-12, abs=0)

    @pytest.mark.parametrize("name", ["FIX-ZZ", "FIX-PP", "FIX-PP-B1"])
    def test_evolve_rational_bytes_match_fractions(self, model_dir, tmp_path, name):
        # the exact DP's numerators over D**n, divided as ints, print as the
        # Fractions of the reference DP do; a narrow window makes leak nonzero,
        # and B1's D = 500, unlike D = 4 and 8, makes that division round
        path = model_dir / f"{name}.json"
        assert main(["evolve", str(path), "--rational", "--from", "1", "--to", "-1",
                     "-n", "64", "-W", "16", "-o", str(tmp_path)]) == 0
        ref, _ = reference_marginal_sequence(load_model(path), 1, -1, 64, Window(-16, 16),
                                             exact=True)
        lines = (tmp_path / "evolve.csv").read_text().splitlines()[1:]
        assert lines == [f"{n},{float(ref['values'][n]):.17g},{float(ref['leak'][n]):.17g}"
                         for n in range(1, 65)]
        assert float(ref["leak"][64]) > 0

    def test_verify_identities_exit_zero(self, model_dir, tmp_path):
        rc = main(["verify", str(model_dir / "FIX-ZZ.json"), "--suite", "identities",
                   "-o", str(tmp_path)])
        assert rc == 0
        rep = json.loads((tmp_path / "verify.json").read_text())
        assert rep["identities"]["all_exact_zero"] is True

    def test_verify_asymptotics_reports_fit_window(self, model_dir, tmp_path, capsys):
        capsys.readouterr()   # drop what the model_dir fixture printed
        assert main(["verify", str(model_dir / "FIX-ZZ.json"), "--suite", "asymptotics",
                     "-n", "512", "-o", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines() == [str(tmp_path / "verify.json")]
        fit = json.loads((tmp_path / "verify.json").read_text())["asymptotics"]["fit"]
        assert fit["fit_window"] == [64, 512]
        # every n in the window: a_n > 0 and the leak is far below 1% of it
        assert fit["usable_points"] == 512 - 64 + 1

    @pytest.mark.parametrize("suite", ["identities", "convergence", "asymptotics"])
    def test_verify_writes_the_suite_verdict(self, model_dir, tmp_path, suite):
        # the CLI adds no rule of its own: verify.json is the library report
        # and its verdict, byte for byte through the same writer
        from oscillax.evolve import default_window
        from oscillax.verify import asymptotics_suite, convergence_suite, identity_suite

        model = load_model(model_dir / "FIX-ZZ.json")
        rep = {"identities": lambda: identity_suite(model),
               "convergence": lambda: convergence_suite(model, 512, default_window(model, 512)),
               "asymptotics": lambda: asymptotics_suite(model, 512, default_window(model, 512)),
               }[suite]()
        horizon = [] if suite == "identities" else ["-n", "512"]   # identities reads none
        rc = main(["verify", str(model_dir / "FIX-ZZ.json"), "--suite", suite, *horizon,
                   "-o", str(tmp_path / "cli")])
        assert rc == (0 if rep["passed"] else 1)
        _write_json(tmp_path / "expected.json", {suite: rep, "passed": rep["passed"]})
        assert ((tmp_path / "cli" / "verify.json").read_bytes()
                == (tmp_path / "expected.json").read_bytes())

    def test_invalid_input_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"left": [[1, "1/2"], [2, "1/2"]],
                                   "origin": [[-1, "1/2"], [1, "1/2"]],
                                   "right": [[-1, "1/2"], [1, "1/2"]]}))
        assert main(["classify", str(bad), "-o", str(tmp_path)]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["classify", str(tmp_path / "nope.json"), "-o", str(tmp_path)]) == 2

    def test_spectrum_report(self, model_dir, tmp_path):
        assert main(["spectrum", str(model_dir / "FIX-ZP.json"), "-W", "96",
                     "-o", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "spectrum.json").read_text())
        assert rep["rho_psi"] < 0.999
        assert rep["defect_max"] <= 1.0
        assert len(rep["H"]) == 2 * 96 + 1

    def test_spectrum_weight_overflow_exit_two(self, model_dir, tmp_path, capsys):
        # the exponential weight of FIX-PP overflows at W = 2048
        t0 = time.perf_counter()
        assert main(["spectrum", str(model_dir / "FIX-PP.json"), "-W", "2048",
                     "-o", str(tmp_path)]) == 2
        assert time.perf_counter() - t0 < 5.0
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("name", FIXTURE_FILES)
    def test_spectrum_defaults_exit_zero(self, model_dir, tmp_path, name):
        # with no -W the default window is cut to where the weight is finite
        assert main(["spectrum", str(model_dir / f"{name}.json"), "-o", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "spectrum.json").read_text())["residual"] <= 1e-8

    def test_spectrum_explicit_window_overflow_exit_two(self, model_dir, tmp_path, capsys):
        # an explicit -W is kept as given: FIX-PP-B1's weight overflows at 1024
        assert main(["spectrum", str(model_dir / "FIX-PP-B1.json"), "-W", "1024",
                     "-o", str(tmp_path)]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_spectrum_delta_zero_is_used(self, model_dir, tmp_path, capsys):
        # delta 0 gives psi = 1 + |x|, which fails the edge-dominance check
        assert main(["spectrum", str(model_dir / "FIX-ZP.json"), "-W", "96",
                     "--weight", "polynomial", "--delta", "0", "-o", str(tmp_path)]) == 2
        assert "dominate" in capsys.readouterr().err

    @pytest.mark.parametrize("model,argv,named", [
        ("FIX-ZZ", ["--delta", "-5"], "--delta"),
        ("FIX-ZZ", ["--delta", "-1.5"], "--delta"),
        ("FIX-ZZ", ["--delta", "nan"], "--delta"),
        ("FIX-PP", ["--weight", "polynomial", "--delta", "inf"], "--delta"),
        ("FIX-PP", ["--weight", "exponential", "--delta", "1e308"], "exponential"),
    ], ids=["negative", "below-minus-one", "nan", "inf", "exponential-overflow"])
    def test_spectrum_meaningless_delta_exit_two(self, model_dir, tmp_path, capsys, model,
                                                 argv, named):
        # refused up front with one error line: no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spectrum", str(model_dir / f"{model}.json"), *argv,
                         "-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err
        assert not any(tmp_path.iterdir())

    def test_spectrum_exponential_delta_zero_exit_zero(self, model_dir, tmp_path):
        # FIX-PP's exponential rates stay positive at delta 0
        assert main(["spectrum", str(model_dir / "FIX-PP.json"), "--weight", "exponential",
                     "--delta", "0", "-o", str(tmp_path)]) == 0

    @pytest.mark.parametrize("kind", ["exponential", "polynomial"])
    def test_spectrum_reports_requested_weight(self, model_dir, tmp_path, kind):
        # FIX-ZZ is recurrent, so "auto" would pick the polynomial weight
        assert main(["spectrum", str(model_dir / "FIX-ZZ.json"), "-W", "64",
                     "--weight", kind, "-o", str(tmp_path)]) == 0
        weight = json.loads((tmp_path / "spectrum.json").read_text())["weight"]
        assert weight["kind"] == kind
        if kind == "exponential":   # centered laws: argmin 0, rates = delta
            assert weight["rate_neg"] == weight["rate_pos"] == weight["delta"] == 0.1

    @pytest.mark.parametrize("half", [3, 4, 5, 8])
    def test_spectrum_narrow_window(self, model_dir, tmp_path, half):
        assert main(["spectrum", str(model_dir / "FIX-ZZ.json"), "-W", str(half),
                     "-o", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "spectrum.json").read_text())
        assert rep["residual"] <= 1e-8
        assert len(rep["H"]) == 2 * half + 1

    def test_verify_convergence_narrow_window(self, model_dir, tmp_path):
        # an 11-site window cannot show the plateau: a reported failure, not a crash
        assert main(["verify", str(model_dir / "FIX-ZZ.json"), "--suite", "convergence",
                     "-W", "5", "-n", "256", "-o", str(tmp_path)]) == 1
        rep = json.loads((tmp_path / "verify.json").read_text())
        assert rep["convergence"]["passed"] is False

    @pytest.mark.parametrize("argv", [
        ["classify", "FIX-ZZ.json", "--seed", "3"],
        ["spectrum", "FIX-ZZ.json", "--rational"],
        ["evolve", "FIX-ZZ.json", "--from", "0", "--to", "0", "--threads", "2"],
        ["classify", "FIX-ZZ.json", "-W", "64"],
        ["simulate", "FIX-ZZ.json", "-W", "64"],
        ["fixtures", "-n", "5"],
        ["verify", "FIX-ZZ.json", "--rational"],
        ["evolve", "FIX-ZZ.json", "--from", "0", "--to", "0", "--rescaled"],
        ["spectrum", "FIX-ZZ.json", "-n", "64"],
    ], ids=["seed", "rational", "threads", "classify-window", "simulate-window",
            "fixtures-horizon", "verify-rational", "evolve-rescaled", "spectrum-horizon"])
    def test_flags_scoped_to_their_commands(self, model_dir, argv):
        if argv[1].endswith(".json"):
            argv = [argv[0], str(model_dir / argv[1]), *argv[2:]]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["evolve", "--from", "0", "--to", "0", "-n", "-3"],
        ["kernel", "-n", "-2"],
        ["evolve", "--from", "0", "--to", "0", "-W", "0"],
        ["spectrum", "-W", "0"],
        ["simulate", "--paths", "-5"],
        ["simulate", "--paths", "0"],
    ], ids=["evolve-horizon", "kernel-horizon", "evolve-window", "spectrum-window",
            "simulate-paths-negative", "simulate-paths-zero"])
    def test_nonpositive_sizes_exit_two(self, model_dir, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], str(model_dir / "FIX-ZZ.json"), *argv[1:], "-o", str(tmp_path)])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("model,argv", [
        ("FIX-ZZ", ["kernel", "-n", "1000000"]),
        ("FIX-ZZ", ["verify", "--suite", "convergence", "-n", "1000000"]),
        ("FIX-PP-B1", ["evolve", "--rational", "--from", "0", "--to", "0", "-n", "100000"]),
    ], ids=["kernel", "verify-convergence", "evolve-rational"])
    def test_oversized_horizon_exit_two(self, model_dir, tmp_path, capsys, model, argv):
        # the default window at 10^6 steps is 32001 sites wide: the T_n DP
        # would run 10^6 steps over it, refused as a 238 GiB table would be;
        # the exact DP's numerators over 500**100000 take 112 kB an entry
        t0 = time.perf_counter()
        assert main([argv[0], str(model_dir / f"{model}.json"), *argv[1:],
                     "-o", str(tmp_path)]) == 2
        assert time.perf_counter() - t0 < 5.0
        assert "GiB" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["classify"],
        ["spectrum"],
        ["verify", "--suite", "convergence", "-n", "64", "-W", "60001"],
    ], ids=["classify", "spectrum", "verify-convergence"])
    def test_wide_arrival_band_exit_two(self, tmp_path, capsys, argv):
        # jumps of 20000 make the arrival band 39999 sites wide: the switching
        # kernel's band columns on the default windows (5120001 and 20480001
        # sites) or on W = 60001 need 35.8 GiB and more, refused before
        # anything is allocated
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "left": [[-1, "20000/40002"], [0, "20001/40002"], [20000, "1/40002"]],
            "origin": [[-1, "1/2"], [1, "1/2"]],
            "right": [[-20000, "1/40002"], [0, "20001/40002"], [1, "20000/40002"]]}))
        out = tmp_path / "out"
        assert main([argv[0], str(path), *argv[1:], "-o", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "GiB" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("model,argv", [
        ("FIX-PP-B1", ["evolve", "--rational", "--from", "0", "--to", "0", "-n", "30000"]),
        ("FIX-ZZ", ["evolve", "--from", "0", "--to", "0", "-n", "1000000"]),
    ], ids=["evolve-rational", "evolve-float"])
    def test_overlong_dp_exit_two(self, model_dir, tmp_path, capsys, model, argv):
        # both fit the memory guard but would run for hours: 30000 exact steps
        # over 5569 sites at 4203 words an entry, and 10^6 float steps over
        # the 32001 sites of the default window
        t0 = time.perf_counter()
        assert main([argv[0], str(model_dir / f"{model}.json"), *argv[1:],
                     "-o", str(tmp_path)]) == 2
        assert time.perf_counter() - t0 < 5.0
        assert "word-steps" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["-n", "1000000", "--paths", "100000"],
        ["-n", "100000000", "--paths", "10"],
    ], ids=["many-paths", "few-paths"])
    def test_overlong_simulate_exit_two(self, model_dir, tmp_path, capsys, argv):
        # 10^11 path-steps, and 10^8 steps of 10 paths, which each cost the
        # per-step overhead of 1024 paths: both would run for about 40 minutes
        t0 = time.perf_counter()
        assert main(["simulate", str(model_dir / "FIX-ZZ.json"), *argv,
                     "-o", str(tmp_path)]) == 2
        assert time.perf_counter() - t0 < 5.0
        err = capsys.readouterr().err
        assert "path-steps" in err and "-n" in err and "--paths" in err
        assert not any(tmp_path.iterdir())

    def test_verify_convergence_horizon_below_plateau_exit_two(self, model_dir, tmp_path,
                                                                capsys):
        assert main(["verify", str(model_dir / "FIX-ZZ.json"), "--suite", "convergence",
                     "-n", "32", "-o", str(tmp_path)]) == 2
        assert "first plateau point" in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", ["10", "100", "126"])
    def test_verify_asymptotics_horizon_below_fit_window_exit_two(self, model_dir, tmp_path,
                                                                   capsys, monkeypatch, horizon):
        # the fit needs 64 steps in [max(64, N/8), N]: N < 127 is refused
        # before the DP runs, with one error line and no report
        def no_dp(*args, **kwargs):
            raise AssertionError("the DP ran")

        monkeypatch.setattr(verify, "marginal_sequence", no_dp)
        capsys.readouterr()   # drop what the model_dir fixture printed
        assert main(["verify", str(model_dir / "FIX-PP.json"), "--suite", "asymptotics",
                     "-n", horizon, "-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "fit window" in err[0]
        assert not any(tmp_path.iterdir())

    def test_verify_all_refuses_a_short_fit_before_any_suite(self, model_dir, tmp_path,
                                                             capsys, monkeypatch):
        # --suite all checks the asymptotics horizon before the identity and
        # convergence suites spend their time
        def not_run(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(verify, "identity_suite", not_run)
        monkeypatch.setattr(verify, "convergence_suite", not_run)
        capsys.readouterr()   # drop what the model_dir fixture printed
        assert main(["verify", str(model_dir / "FIX-ZZ.json"), "--suite", "all",
                     "-n", "100", "-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "fit window" in err[0]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["evolve", "--from", "0", "--to", "0"],
        ["kernel"],
        ["spectrum"],
        ["verify"],
    ], ids=["evolve", "kernel", "spectrum", "verify"])
    def test_window_below_three_max_jumps_exit_two(self, model_dir, tmp_path, capsys, argv):
        # -W 1 is 3 sites, below 3 x FIX-ZZ's max jump 2
        capsys.readouterr()   # drop what the model_dir fixture printed
        assert main([argv[0], str(model_dir / "FIX-ZZ.json"), *argv[1:], "-W", "1",
                     "-o", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: window width 3 below 3x max jump 2"]
        assert not any(tmp_path.iterdir())

    def test_verify_asymptotics_empty_plateau_half_exit_three(self, model_dir, tmp_path,
                                                              capsys):
        # at -n 600 -W 24 every usable point of FIX-PP-C lies below n = 300:
        # one error line, and no numpy warning from a mean over nothing
        capsys.readouterr()   # drop what the model_dir fixture printed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", str(model_dir / "FIX-PP-C.json"), "--suite", "asymptotics",
                         "-n", "600", "-W", "24", "-o", str(tmp_path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "[300, 600]" in err[0]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["simulate", "--from", "100000000000000000000"],
        ["simulate", "--from", "9223372036854775800", "-n", "50"],
    ], ids=["simulate-start-past-int64", "simulate-walk-past-int64"])
    def test_simulate_int64_overflow_exit_two(self, model_dir, tmp_path, argv):
        assert main([argv[0], str(model_dir / "FIX-ZZ.json"), *argv[1:],
                     "-o", str(tmp_path)]) == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["simulate", "FIX-ZZ.json", "--seed", "-1"],
        ["simulate", "FIX-ZZ.json", "--seed", str(2 ** 128)],
        ["classify", "a-directory"],
        ["classify", "FIX-ZZ.json", "-o", "a-file"],
        ["classify", "zero-denominator.json"],
        # flags the chosen suite does not read
        ["verify", "FIX-ZZ.json", "--suite", "identities", "-n", "100000000"],
        ["verify", "FIX-ZZ.json", "--suite", "identities", "-W", "3"],
        ["verify", "FIX-ZZ.json", "--suite", "asymptotics", "--float-mode"],
        # exact arithmetic on float laws
        ["evolve", "float-laws.json", "--from", "0", "--to", "0", "-n", "8", "--rational"],
    ], ids=["seed-negative", "seed-past-philox-key", "model-is-directory",
            "out-is-file", "zero-denominator", "identities-horizon", "identities-window",
            "asymptotics-float-mode", "rational-float-laws"])
    def test_bad_input_exit_two(self, model_dir, tmp_path, capsys, argv):
        # invalid input exits 2 with one error line, never a traceback with
        # exit 1, the code of a verification failure
        (tmp_path / "a-directory").mkdir()
        (tmp_path / "a-file").write_text("kept\n")
        (tmp_path / "zero-denominator.json").write_text(json.dumps(
            {"left": [[-1, "1/2"], [0, "1/0"], [2, "1/4"]],
             "origin": [[-1, "1/2"], [1, "1/2"]],
             "right": [[-2, "1/4"], [0, "1/4"], [1, "1/2"]]}))
        (tmp_path / "float-laws.json").write_text(json.dumps(
            {"left": [[-1, 0.5], [0, 0.25], [2, 0.25]], "origin": [[-1, 0.5], [1, 0.5]],
             "right": [[-2, 0.25], [0, 0.25], [1, 0.5]]}))
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        argv = [str(model_dir / a) if a == "FIX-ZZ.json"
                else str(tmp_path / a) if (tmp_path / a).exists() else a for a in argv]
        if "-o" not in argv:
            argv += ["-o", str(tmp_path / "out")]
        capsys.readouterr()   # drop what the model_dir fixture printed
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("payload,named", [
        ({"left": [[-1, "1/2"], [0, "1/4"], [2.7, "1/4"]]}, "2.7"),
        ({"two_media": "false"}, "two_media"),
        # a misspelt two_media would otherwise load as a three-media walk
        ({"twomedia": True}, "'twomedia'"),
        # a two-media model's origin is its left law: another one is refused
        ({"two_media": True, "origin": [[-1, "1/10"], [0, "4/5"], [1, "1/10"]]}, "origin"),
    ], ids=["non-integer-atom", "string-two-media", "unknown-key", "two-media-origin"])
    def test_misread_model_file_exit_two(self, tmp_path, capsys, payload, named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"left": [[-1, "1/2"], [0, "1/4"], [2, "1/4"]],
                                   "origin": [[-1, "1/2"], [1, "1/2"]],
                                   "right": [[-2, "1/4"], [0, "1/4"], [1, "1/2"]],
                                   **payload}))
        out = tmp_path / "out"
        assert main(["classify", str(bad), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err
        assert not out.exists() or not any(out.iterdir())

    def test_verify_convergence_on_the_zn_mirror(self, model_dir, tmp_path):
        # the saved mirror of FIX-PZ is (Z,N): it runs every convergence
        # check FIX-PZ runs and reads FIX-PZ's values
        mirror = tmp_path / "FIX-PZ-mirror.json"
        save_model(mirror_model(load_model(model_dir / "FIX-PZ.json")), mirror)
        reps = []
        for path in (model_dir / "FIX-PZ.json", mirror):
            out = tmp_path / path.stem
            assert main(["verify", str(path), "--suite", "convergence", "-n", "1024",
                         "-o", str(out)]) == 0
            reps.append(json.loads((out / "verify.json").read_text()))
        pz, zn = (rep["convergence"] for rep in reps)
        for key in ("bold_c", "sqrt_n_Tn_final", "rn_tail_final"):
            assert zn[key] == pytest.approx(pz[key], rel=1e-12, abs=0), key
        assert zn["passed"] is True and reps[1]["passed"] is True

    def test_simulate_reproducible_bytes(self, model_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["simulate", str(model_dir / "FIX-ZZ.json"), "--from", "0",
                         "-n", "30", "--paths", "5000", "-s", "42", "-o", str(out)]) == 0
        assert (a / "simulate.json").read_bytes() == (b / "simulate.json").read_bytes()

    def test_evolve_reproducible_bytes(self, model_dir, tmp_path):
        a, b = tmp_path / "a2", tmp_path / "b2"
        for out in (a, b):
            assert main(["evolve", str(model_dir / "FIX-PP.json"), "--from", "0",
                         "--to", "0", "-n", "128", "-W", "96", "-o", str(out)]) == 0
        assert (a / "evolve.csv").read_bytes() == (b / "evolve.csv").read_bytes()

    def test_kernel_csv(self, model_dir, tmp_path):
        assert main(["kernel", str(model_dir / "FIX-ZZ.json"), "-n", "32", "-W", "64",
                     "-o", str(tmp_path)]) == 0
        lines = (tmp_path / "kernel.csv").read_text().strip().splitlines()
        assert lines[0] == "n,x,y,Qn,Tn"
        assert len(lines) > 32

    def test_kernel_csv_rows(self, model_dir, tmp_path):
        # one row per (n, x, y), y over the whole arrival band; Tn is T_n(x, y)
        assert main(["kernel", str(model_dir / "FIX-ZZ.json"), "-n", "4", "-W", "32",
                     "-o", str(tmp_path)]) == 0
        lines = (tmp_path / "kernel.csv").read_text().strip().splitlines()[1:]
        table = {}
        for line in lines:
            n, x, y, qn, tn = line.split(",")
            table[int(n), int(x), int(y)] = (float(qn), float(tn))
        assert sorted(table) == [(n, x, y) for n in range(1, 5)
                                 for x in (-1, 0, 1) for y in (-1, 0, 1)]
        assert table[3, -1, 0] == (0.0625, 0.09375)
        assert table[3, 0, 0] == (0.0, 0.125)
        for n, x, y in table:
            if x == -1:
                assert table[n, -1, y][1] == table[n, 1, -y][1], (n, y)

    def test_kernel_runs_one_switching_time_dp(self, model_dir, tmp_path, monkeypatch):
        # every row of the essential class is a column of one full-walk DP
        from oscillax import switching
        calls = []

        def counted(model, xs, horizon, window):
            calls.append(list(xs))
            return run(model, xs, horizon, window)

        run = switching.switching_time_marginals
        monkeypatch.setattr(switching, "switching_time_marginals", counted)
        assert main(["kernel", str(model_dir / "FIX-PP.json"), "-n", "16",
                     "-o", str(tmp_path)]) == 0
        assert len(calls) == 1 and len(calls[0]) > 1

    def test_env_out_fallback(self, model_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("OSCILLAX_OUT", str(tmp_path / "envout"))
        assert main(["classify", str(model_dir / "FIX-ZZ.json")]) == 0
        assert (tmp_path / "envout" / "classify.json").exists()


def reference_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16])
INTS = st.integers(-2 ** 63, 2 ** 63 - 1)
SCALARS = st.none() | st.booleans() | INTS | FLOATS | st.text(max_size=4)
LEAVES = (SCALARS | FLOATS.map(np.float64) | INTS.map(np.int64)
          | st.lists(FLOATS, max_size=6) | st.lists(INTS, max_size=6)
          | st.lists(st.booleans(), max_size=6) | st.lists(SCALARS, max_size=6)
          | st.lists(FLOATS.map(np.float64), max_size=6)
          | st.lists(st.lists(FLOATS, max_size=4), max_size=3)
          | st.lists(FLOATS, max_size=6).map(np.array)
          | st.lists(INTS, max_size=6).map(lambda v: np.array(v, dtype=np.int64))
          | st.lists(st.lists(FLOATS, min_size=2, max_size=2), max_size=3).map(np.array))
PAYLOADS = st.recursive(LEAVES, lambda kids: (st.lists(kids, max_size=4)
                                              | st.tuples(kids, kids)
                                              | st.dictionaries(st.text(max_size=4), kids,
                                                                max_size=4)
                                              | st.dictionaries(INTS, kids, max_size=3)),
                        max_leaves=12)


@st.composite
def csv_columns(draw):
    rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from([int, float]), min_size=1, max_size=5))
    return [np.array(draw(st.lists(INTS if kind is int else FLOATS, min_size=rows,
                                   max_size=rows)), dtype=np.int64 if kind is int else float)
            for kind in kinds]


class TestWriters:
    """The writers' bytes against json.dumps and csv.writer, the formats they
    stand in for."""

    @settings(max_examples=200, deadline=None)
    @given(payload=PAYLOADS)
    def test_json_matches_json_dumps(self, tmp_path_factory, payload):
        path = tmp_path_factory.getbasetemp() / "writer.json"
        _write_json(path, payload)
        expected = json.dumps(payload, indent=1, sort_keys=True, default=reference_default)
        assert path.read_text() == expected + "\n"

    @settings(max_examples=100, deadline=None)
    @given(columns=csv_columns())
    def test_csv_matches_csv_writer(self, tmp_path_factory, columns):
        path = tmp_path_factory.getbasetemp() / "writer.csv"
        header = [f"c{i}" for i in range(len(columns))]
        _write_csv(path, header, columns)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in zip(*(col.tolist() for col in columns)):
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else str(v) for v in row])
        assert path.read_bytes() == buf.getvalue().encode()

    @pytest.mark.parametrize("name", FIXTURE_FILES)
    def test_fixture_outputs_keep_the_byte_contract(self, model_dir, tmp_path, name):
        # indented JSON with sorted keys from every JSON-writing command; CSV
        # with CRLF line ends, decimal ints and %.17g floats; and every file's
        # bytes as pinned
        model = str(model_dir / f"{name}.json")
        for argv in (["classify"], ["spectrum", "-W", "64"], ["verify", "-n", "256"],
                     ["simulate", "-n", "8", "--paths", "200"],
                     ["evolve", "-n", "64", "--from", "0", "--to", "0"], ["kernel", "-n", "16"]):
            assert main([argv[0], model, *argv[1:], "-o", str(tmp_path)]) in (0, 1)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "classify.json", "evolve.csv", "kernel.csv", "simulate.json", "spectrum.json",
            "verify.json"]
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in tmp_path.iterdir()} == OUTPUT_DIGESTS[name]
        for path in tmp_path.glob("*.json"):
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"
        for path in tmp_path.glob("*.csv"):
            lines = path.read_bytes().decode().split("\r\n")
            assert lines.pop() == "" and "\n" not in "".join(lines)
            header = lines[0].split(",")
            for line in lines[1:]:
                for column, s in zip(header, line.split(","), strict=True):
                    assert s == (str(int(s)) if column in ("n", "x", "y") else f"{float(s):.17g}")


@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_float_identity_report_is_pinned(model_dir, tmp_path, name):
    assert main(["verify", str(model_dir / f"{name}.json"), "--suite", "identities",
                 "--float-mode", "-o", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "verify.json").read_bytes()).hexdigest()
    assert digest == IDENTITY_FLOAT_DIGESTS[name]


def test_main_runs_share_the_parser_not_its_state(model_dir, tmp_path):
    # the parser is built once per process; every run still starts from its
    # subcommand's own defaults
    zz, pp = str(model_dir / "FIX-ZZ.json"), str(model_dir / "FIX-PP.json")
    floats = tmp_path / "float.json"   # float laws: refused under --rational
    save_model(validate_model(dist({-1: 0.3, 0: 0.35, 2: 0.35}), dist({-1: 0.5, 1: 0.5}),
                              dist({-2: 0.123, -1: 0.2, 0: 0.377, 1: 0.295, 2: 0.005})), floats)

    def run(*argv):
        out = tmp_path / f"run{len(list(tmp_path.glob('run*')))}"
        assert main([*argv, "-o", str(out)]) == 0, argv
        return out

    assert build_parser() is build_parser()
    run("simulate", zz, "--paths", "100")
    kernel = (run("kernel", zz) / "kernel.csv").read_text().splitlines()
    assert int(kernel[-1].split(",")[0]) == 256   # not simulate's 50
    simulated = json.loads((run("simulate", zz, "--paths", "100") / "simulate.json").read_text())
    assert simulated["n_steps"] == 50
    run("evolve", zz, "--from", "0", "--to", "0", "-n", "8", "--rational")
    run("evolve", str(floats), "--from", "0", "--to", "0", "-n", "8")
    for flags, kind in ((["--weight", "polynomial"], "polynomial"), ([], "exponential")):
        out = run("spectrum", pp, "-W", "64", *flags)
        assert json.loads((out / "spectrum.json").read_text())["weight"]["kind"] == kind


def test_readme_flag_table_matches_parser():
    # the README's per-command flag table lists each subcommand's option
    # strings, "--out/-o" standing for the pair, and nothing else
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("The flags each command takes:\n\n", 1)[1].split("\n\n", 1)[0]
    table = {}
    for name, flags in re.findall(r"^\| `(\w+)` *\| (.*?) *\|$", section, re.MULTILINE):
        table[name] = {s for f in flags.split(", ") for s in f.strip("`").split("/")}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
              for name, p in sub.choices.items()}
    assert table == parsed


class TestEntryPoint:
    def test_module_invocation(self, model_dir, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "oscillax.cli", "classify",
             str(model_dir / "FIX-ZZ.json"), "-o", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "classify.json" in proc.stdout
