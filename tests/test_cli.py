"""Command-line interface: exit codes, determinism, output files, the
statement-anchor registry, and configuration handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracestab
from tracestab.cli import ANCHORS, build_parser, main, validate_args

# Directory holding the imported package; the CLI child process runs this
# same copy whatever its working directory and whether or not it is installed.
PACKAGE_ROOT = str(Path(tracestab.__file__).resolve().parent.parent)


def run_cli(argv, tmp_path, env_extra=None):
    env = dict(os.environ)
    env.pop("TRACESTAB_OUTPUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "tracestab.cli", *argv],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    return proc


class TestExitCodes:
    def test_constants_success(self, tmp_path, capsys):
        code = main(["constants", "--n", "3", "--s", "1.0",
                     "--output", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "CHECK sharp-constant-eigenvalue: pass" in out
        assert (tmp_path / "constants.json").exists()

    def test_counterexample_nondecreasing_is_failure(self, tmp_path, capsys):
        # increasing delta list breaks the expected ratio decrease
        code = main(["counterexample", "--r", "1.5", "--sigma", "2.0",
                     "--deltas", "0.001,0.01,0.1", "--output", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "CHECK counterexample-decay: FAIL" in out

    def test_usage_error_is_exit_2(self, tmp_path):
        proc = run_cli(["spectrum", "--weight", "nonsense"], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "invalid choice: 'nonsense'" in proc.stderr

    def test_precondition_violation_is_exit_2(self, tmp_path, capsys):
        code = main(["spectrum", "--n", "3", "--s", "2.0",
                     "--weight", "homogeneous", "--output", str(tmp_path)])
        assert code == 2

    def test_module_error_is_exit_1(self, tmp_path, capsys):
        # K = 1 cannot separate the slow-decay spectrum: the certificate
        # search fails inside the module, after the config passes validation
        code = main(["spectrum", "--n", "2", "--s", "0.6", "--K", "1",
                     "--weight", "inhomogeneous", "--output", str(tmp_path)])
        capsys.readouterr()
        assert code == 1


class TestDeterminism:
    # both runs share one process, so state cached by the first (the grid
    # Bessel kernels of verify-trace, the transport extremiser) must not
    # change the second; every file a run writes is compared, with stdout
    @pytest.mark.parametrize("args,files", [
        (["spectrum", "--n", "3", "--s", "1.0", "--K", "6", "--tau", "1.5"],
         {"spectrum.csv", "spectrum_report.csv"}),
        (["constants", "--n", "3", "--s", "1.0"], {"constants.json", "constants_report.csv"}),
        (["verify-trace", "--trials", "20", "--seed", "7"], {"verify_trace_report.csv"}),
        (["duality-sweep", "--trials", "5", "--seed", "7"], {"duality_report.csv"}),
        (["counterexample", "--r", "1.5", "--deltas", "0.1,0.01,0.001"],
         {"counterexample.csv", "counterexample_report.csv"}),
        (["transport-probe", "--seed", "7", "--trials", "2", "--directions", "1"],
         {"transport_probe.csv", "transport_report.csv"}),
    ], ids=["spectrum", "constants", "verify-trace", "duality-sweep", "counterexample",
            "transport-probe"])
    def test_same_seed_byte_identical(self, tmp_path, capsys, args, files):
        runs = []
        for sub in ("a", "b"):
            assert main([*args, "--output", str(tmp_path / sub)]) == 0
            runs.append((capsys.readouterr().out,
                         {f.name: f.read_bytes() for f in (tmp_path / sub).iterdir()}))
        assert set(runs[0][1]) == files
        assert runs[0] == runs[1]

    def test_seed_is_required(self, tmp_path):
        proc = run_cli(["duality-sweep", "--trials", "2"], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "the following arguments are required: --seed" in proc.stderr


class TestOutputs:
    def test_env_var_output_dir(self, tmp_path):
        proc = run_cli(
            ["counterexample", "--r", "1.5", "--sigma", "1.5",
             "--deltas", "0.2,0.1"],
            tmp_path, env_extra={"TRACESTAB_OUTPUT_DIR": str(tmp_path / "envd")},
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "envd" / "counterexample.csv").exists()

    def test_json_format(self, tmp_path, capsys):
        code = main(["constants", "--n", "3", "--s", "1.0", "--format", "json",
                     "--output", str(tmp_path)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads((tmp_path / "constants_report.json").read_text())
        assert all({"anchor", "passed", "value", "tol", "detail"} <= set(row)
                   for row in doc)

    def test_spectrum_csv_schema(self, tmp_path, capsys):
        code = main(["spectrum", "--n", "3", "--s", "1.0", "--K", "6",
                     "--output", str(tmp_path)])
        capsys.readouterr()
        assert code == 0
        lines = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
        assert lines[0] == "k,lambda_k"
        assert len(lines) == 8

    def test_config_file_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "s": 1.0, "K": 5,
                                   "output": str(tmp_path)}))
        code = main(["--config", str(cfg), "spectrum"])
        capsys.readouterr()
        assert code == 0
        lines = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
        assert len(lines) == 7  # K = 5 came from the config file


class TestAnchors:
    def test_registry_values_are_statements(self):
        for key, statement in ANCHORS.items():
            assert key == key.lower().strip()
            assert len(statement) > 10

    def test_every_anchor_is_emitted(self, tmp_path, capsys):
        """Each registered anchor must be exercised by some command run."""
        runs = [
            ["spectrum", "--n", "3", "--s", "1.0", "--K", "6", "--tau", "1.5"],
            ["constants", "--n", "3", "--s", "1.0"],
            ["verify-trace", "--n", "3", "--s", "1.0", "--trials", "40",
             "--seed", "3"],
            ["duality-sweep", "--trials", "5", "--seed", "3"],
            ["counterexample", "--r", "1.5", "--sigma", "2.0",
             "--deltas", "0.2,0.1,0.05"],
            ["transport-probe", "--seed", "3", "--eps", "0.1,0.2",
             "--directions", "2", "--trials", "10"],
        ]
        seen = set()
        for argv in runs:
            code = main([*argv, "--output", str(tmp_path)])
            out = capsys.readouterr().out
            assert code == 0, out
            for line in out.splitlines():
                if line.startswith("CHECK "):
                    seen.add(line.split()[1].rstrip(":"))
        assert seen == set(ANCHORS)

    def test_quadrature_spectrum_twin_is_independent(self, tmp_path, capsys):
        # a spectrum built by lambda_quadrature is checked by the Legendre
        # form at s = (n + 1)/2, and at s = 0.6 by nothing, never by itself
        def twin_values(argv):
            assert main([*argv, "--weight", "inhomogeneous", "--output", str(tmp_path)]) == 0
            return [float(line.split("value=")[1].split()[0])
                    for line in capsys.readouterr().out.splitlines()
                    if line.startswith("CHECK eigenvalue-quadrature-twin:")]

        (gap,) = twin_values(["spectrum", "--n", "3", "--s", "2.0"])
        assert 0.0 < gap < 1e-9
        assert twin_values(["constants", "--n", "2", "--s", "0.6"]) == []


class TestValidate:
    def test_validate_reports_violations(self, tmp_path, capsys):
        code = main(["validate", "--target", "spectrum", "--n", "3",
                     "--s", "2.0", "--weight", "homogeneous",
                     "--output", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "s < n/2 required" in out

    def test_validate_rejects_q_below_2(self, capsys):
        # q >= p holds, but T* would map from l^{q'} with q' = 3 > 2
        assert main(["validate", "--target", "duality-sweep", "--p", "1.02",
                     "--q", "1.5"]) == 1
        assert capsys.readouterr().out == (
            "violation: q >= 2 required for the adjoint, got 1.5\n")
        assert main(["validate", "--target", "duality-sweep", "--p", "1.02",
                     "--q", "2"]) == 0

    def test_validate_clean_config(self, tmp_path, capsys):
        code = main(["validate", "--target", "spectrum", "--n", "3",
                     "--s", "1.0", "--output", str(tmp_path)])
        capsys.readouterr()
        assert code == 0

    def test_validate_caps_the_grid_nodes(self, capsys):
        # 10^8 points would build axes of 10^8 + 1 nodes
        assert main(["validate", "--target", "transport-probe", "--points", "100000000"]) == 1
        assert capsys.readouterr().out == ("violation: at most 4097 nodes per axis: "
                                           "L / h and t_extent / h must be <= 2048\n")

    def test_validate_args_function(self):
        args = build_parser().parse_args(
            ["spectrum", "--n", "3", "--s", "1.0", "--tau", "0.5"])
        assert validate_args(args) == ["tau > 1 required"]

    def test_validate_takes_the_target_default_n(self, tmp_path, capsys):
        # transport-probe has no --n (it is n = 1), the weight commands default to n = 3
        argv = ["validate", "--target", "transport-probe", "--L", "80", "--points", "256",
                "--output", str(tmp_path)]
        assert main(argv) == 0
        assert capsys.readouterr().out == "config ok\n"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--n", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --n 3" in capsys.readouterr().err
        assert main(["validate", "--target", "spectrum", "--s", "2.0",
                     "--output", str(tmp_path)]) == 1
        assert "s < n/2 required" in capsys.readouterr().out

    def test_verify_trace_K_covers_random_profiles(self, tmp_path, capsys):
        # random_profile_set draws degrees up to 6, so a smaller K is a bad
        # config (exit 2), not a failed check
        args = build_parser().parse_args(["verify-trace", "--K", "5", "--seed", "1"])
        assert validate_args(args) == ["K >= 6 required"]
        for cmd in ("spectrum", "constants"):
            args = build_parser().parse_args([cmd, "--K", "5"])
            assert validate_args(args) == []
        code = main(["verify-trace", "--K", "5", "--seed", "1", "--trials", "1",
                     "--output", str(tmp_path)])
        assert code == 2
        assert "config error: K >= 6 required" in capsys.readouterr().err


class TestOneParser:
    """Each command's flags are declared once: `validate` parses its target's
    own flags, `--config` feeds the same parser, and the library's own
    ValueError messages are the precondition list."""

    @pytest.mark.parametrize("argv,message", [
        (["transport-probe", "--seed", "1", "--trials", "0"], "trials >= 1 required"),
        (["transport-probe", "--seed", "1", "--directions", "0"],
         "directions >= 1 required"),
        (["transport-probe", "--seed", "1", "--eps", ","], "at least 1 eps required"),
        (["transport-probe", "--seed", "1", "--eps", "0.1"], "at least 2 eps required"),
        (["transport-probe", "--seed", "1", "--eps", "0.1,0.1", "--directions", "1",
          "--trials", "2"], "eps values must be distinct"),
        (["counterexample", "--r", "1.5", "--deltas", "0.1"],
         "at least 2 deltas required"),
        (["counterexample", "--r", "1.5", "--deltas", ","],
         "at least 2 deltas required"),
        (["duality-sweep", "--p", "1.02", "--q", "1.5", "--trials", "30",
          "--seed", "3"], "q >= 2 required for the adjoint, got 1.5"),
    ], ids=["trials", "directions", "empty-eps", "one-eps", "repeated-eps", "one-delta",
            "empty-deltas", "adjoint-q"])
    def test_vacuous_runs_are_config_errors(self, tmp_path, capsys, argv, message):
        assert validate_args(build_parser().parse_args(argv)) == [message]
        assert main([*argv, "--output", str(tmp_path)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,message", [
        (["spectrum", "--n", "3", "--tau", "3.5"], "integral diverges"),
        (["spectrum", "--tol", "-1", "--K", "4"], "tol must be positive"),
        (["counterexample", "--r", "inf"], "requires r in (1, inf), got inf"),
        (["transport-probe", "--seed", "1", "--points", "0"], "points must be >= 1"),
        (["transport-probe", "--seed", "1", "--points", "127"],
         "spacing h must be <= 0.625 for n=1"),
    ], ids=["tau-diverges", "negative-tol", "r-inf", "no-points", "coarse-grid"])
    def test_library_preconditions_are_config_errors(self, tmp_path, capsys, argv,
                                                     message):
        assert main([*argv, "--output", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["spectrum", "--tol", "nan", "--K", "4"], "tol must be positive"),
        (["spectrum", "--tau", "nan", "--K", "4"], "tau > 1 required"),
        (["counterexample", "--r", "1.5", "--sigma", "nan"], "sigma > 0 required"),
        (["transport-probe", "--seed", "1", "--L", "nan"], "L, h and t_extent must be finite"),
    ], ids=["tol", "tau", "sigma", "L"])
    def test_nan_values_are_config_errors(self, tmp_path, capsys, argv, message):
        # each rule reads "not x > bound", which NaN fails
        command, *flags = argv
        assert main(["validate", "--target", command, *flags]) == 1
        assert capsys.readouterr().out == f"violation: {message}\n"
        assert main([*argv, "--output", str(tmp_path)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_config_supplies_seed(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "output": str(tmp_path)}))
        assert main(["--config", str(cfg), "duality-sweep", "--trials", "2"]) == 0
        assert (tmp_path / "duality_report.csv").exists()

    def test_config_supplies_r_beside_other_commands_keys(self, tmp_path, capsys):
        # one file serves several commands; a key binds only where it is a flag
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 1.5, "K": 5, "seed": 2, "trials": 0, "n": 3,
                                   "tau": 0.5, "output": str(tmp_path)}))
        assert main(["--config", str(cfg), "counterexample"]) == 0
        assert (tmp_path / "counterexample.csv").exists()
        # "n" names no transport-probe flag; its "trials": 0 is overridden here
        assert main(["--config", str(cfg), "validate", "--target", "transport-probe",
                     "--trials", "2"]) == 0
        assert main(["--config", str(cfg), "validate", "--target", "constants"]) == 0
        assert main(["--config", str(cfg), "validate", "--target", "spectrum"]) == 1
        assert capsys.readouterr().out.endswith("config ok\nviolation: tau > 1 required\n")

    def test_config_values_parse_like_flags(self, tmp_path, capsys):
        # a config value meets the flag's type and choices; the command line wins
        cfg = tmp_path / "cfg.json"
        for doc, message in (({"weight": "bogus"}, "invalid choice: 'bogus'"),
                             ({"n": 3.5}, "invalid int value: '3.5'")):
            cfg.write_text(json.dumps({**doc, "output": str(tmp_path)}))
            with pytest.raises(SystemExit) as exc:
                main(["--config", str(cfg), "spectrum", "--n", "3", "--s", "1.0", "--K", "4"])
            assert exc.value.code == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / "spectrum.csv").exists()
        cfg.write_text(json.dumps({"K": 2, "output": str(tmp_path)}))
        assert main(["--config", str(cfg), "spectrum", "--K", "4"]) == 0
        assert len((tmp_path / "spectrum.csv").read_text().splitlines()) == 1 + 5
        capsys.readouterr()
        cfg.write_text(json.dumps({"eps": [0.1]}))  # a list is one comma-joined token
        assert main(["--config", str(cfg), "validate", "--target", "transport-probe"]) == 1
        assert capsys.readouterr().out == "violation: at least 2 eps required\n"
        args = build_parser().parse_args(["spectrum"])
        args.weight = "bogus"
        assert validate_args(args) == ["unknown weight 'bogus'"]

    def test_unknown_config_key_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trails": 2, "output": str(tmp_path)}))
        assert main(["--config", str(cfg), "spectrum"]) == 2
        assert "unknown config key(s): trails" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.csv").exists()

    def test_validate_rejects_flags_its_target_lacks(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--target", "spectrum", "--eps", "0.3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --eps 0.3" in capsys.readouterr().err

    def test_validate_needs_r_from_flag_or_config(self, tmp_path, capsys):
        # a missing --r is a violation, not a usage error; the config may supply it
        assert main(["validate", "--target", "counterexample", "--r", "1.5"]) == 0
        assert main(["validate", "--target", "counterexample"]) == 1
        assert capsys.readouterr().out == "config ok\nviolation: --r required\n"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 1.5}))
        assert main(["--config", str(cfg), "validate", "--target", "counterexample"]) == 0


# Builds each weight family's spectrum, with the twins the CLI computes, and
# prints which scipy subpackages are loaded after each step.
SPECTRUM_STEPS = """
import json, sys
import numpy as np
from tracestab import spectrum as sm

def loaded():
    return {sub: any(m == sub or m.startswith(sub + ".") for m in sys.modules)
            for sub in ("scipy.integrate", "scipy.optimize")}

steps = {}
w = sm.WeightSpec.homogeneous(3, 1.0)
sm.build_spectrum(w, 14)
sm.lambda_quadrature(w, 3)
steps["homogeneous"] = loaded()
sm.build_spectrum(sm.WeightSpec.inhomogeneous(3, 2.0), 14)
steps["inhomogeneous"] = loaded()
sm.watson_quadrature(2, 1, 2.5)
steps["watson"] = loaded()
r = np.logspace(-2.0, np.log10(400.0), 60)
sm.build_spectrum(sm.WeightSpec.custom(3, r, (1.0 + r * r) ** -2.0, 4.0), 14)
steps["table"] = loaded()
print(json.dumps(steps))
"""


class TestImports:
    def _run(self, tmp_path, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              cwd=tmp_path, env=env, check=True)

    def test_cli_loads_only_scipy_special(self, tmp_path):
        # the spectrum commands import harmonic, which imports spectrum;
        # PchipInterpolator is imported on first use, and scipy.interpolate
        # would also load scipy.optimize
        proc = self._run(tmp_path, ["-X", "importtime", "-c",
                                    "import tracestab.cli, tracestab.harmonic"])
        loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}
        assert {"tracestab.cli", "tracestab.spectrum", "scipy.special"} <= loaded
        for sub in ("scipy.optimize", "scipy.integrate", "scipy.interpolate"):
            assert not [m for m in loaded if m == sub or m.startswith(sub + ".")], sub

    def test_duality_sweep_starts_without_scipy(self, tmp_path):
        # harmonic and spectrum load scipy; only the spectrum commands import them
        proc = self._run(tmp_path, ["-c", (
            "import sys; from tracestab.cli import build_parser; "
            "build_parser().parse_args(['duality-sweep', '--seed', '1']); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")])
        assert proc.stdout == "[]\n"

    def test_spectra_never_load_scipy_integrate(self, tmp_path):
        # every envelope is a closed form or a Gauss rule; scipy.optimize may
        # come in only with the table's PchipInterpolator
        steps = json.loads(self._run(tmp_path, ["-c", SPECTRUM_STEPS]).stdout)
        assert list(steps) == ["homogeneous", "inhomogeneous", "watson", "table"]
        for step, loaded in steps.items():
            assert not loaded["scipy.integrate"], step
            assert step == "table" or not loaded["scipy.optimize"], step
