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
    # Bessel kernels of verify-trace) must not change the second
    @pytest.mark.parametrize("args,report", [
        (["duality-sweep", "--trials", "5", "--seed", "7"], "duality_report.csv"),
        (["verify-trace", "--trials", "20", "--seed", "7"], "verify_trace_report.csv"),
    ], ids=["duality-sweep", "verify-trace"])
    def test_same_seed_byte_identical(self, tmp_path, capsys, args, report):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main([*args, "--output", str(out1)]) == 0
        assert main([*args, "--output", str(out2)]) == 0
        assert (out1 / report).read_bytes() == (out2 / report).read_bytes()

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


class TestValidate:
    def test_validate_reports_violations(self, tmp_path, capsys):
        code = main(["validate", "--target", "spectrum", "--n", "3",
                     "--s", "2.0", "--weight", "homogeneous",
                     "--output", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "s < n/2 required" in out

    def test_validate_clean_config(self, tmp_path, capsys):
        code = main(["validate", "--target", "spectrum", "--n", "3",
                     "--s", "1.0", "--output", str(tmp_path)])
        capsys.readouterr()
        assert code == 0

    def test_validate_args_function(self):
        args = build_parser().parse_args(
            ["spectrum", "--n", "3", "--s", "1.0", "--tau", "0.5"])
        assert validate_args(args) == ["tau > 1 required"]

    def test_validate_takes_the_target_default_n(self, tmp_path, capsys):
        # transport-probe defaults to n = 1, the weight commands to n = 3
        argv = ["validate", "--target", "transport-probe", "--L", "80", "--points", "256",
                "--output", str(tmp_path)]
        assert main(argv) == 0
        assert capsys.readouterr().out == "config ok\n"
        assert main(argv + ["--n", "3"]) == 1
        assert "transport probe is certified for n = 1 only" in capsys.readouterr().out
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
        (["counterexample", "--r", "1.5", "--deltas", "0.1"],
         "at least 2 deltas required"),
        (["counterexample", "--r", "1.5", "--deltas", ","],
         "at least 2 deltas required"),
    ], ids=["trials", "directions", "empty-eps", "one-delta", "empty-deltas"])
    def test_vacuous_runs_are_config_errors(self, tmp_path, capsys, argv, message):
        assert validate_args(build_parser().parse_args(argv)) == [message]
        assert main([*argv, "--output", str(tmp_path)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,message", [
        (["spectrum", "--n", "3", "--tau", "3.5"], "integral diverges"),
        (["counterexample", "--r", "inf"], "requires r in (1, inf), got inf"),
        (["transport-probe", "--seed", "1", "--points", "0"], "points must be >= 1"),
        (["transport-probe", "--seed", "1", "--points", "127"],
         "spacing h must be <= 0.625 for n=1"),
    ], ids=["tau-diverges", "r-inf", "no-points", "coarse-grid"])
    def test_library_preconditions_are_config_errors(self, tmp_path, capsys, argv,
                                                     message):
        assert main([*argv, "--output", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    def test_config_supplies_seed(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "output": str(tmp_path)}))
        assert main(["--config", str(cfg), "duality-sweep", "--trials", "2"]) == 0
        assert (tmp_path / "duality_report.csv").exists()

    def test_config_supplies_r_beside_other_commands_keys(self, tmp_path, capsys):
        # one file serves several commands; a key binds only where it is a flag
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 1.5, "K": 5, "seed": 2, "trials": 0,
                                   "tau": 0.5, "output": str(tmp_path)}))
        assert main(["--config", str(cfg), "counterexample"]) == 0
        assert (tmp_path / "counterexample.csv").exists()
        assert main(["--config", str(cfg), "validate", "--target", "constants"]) == 0
        assert main(["--config", str(cfg), "validate", "--target", "spectrum"]) == 1
        assert capsys.readouterr().out.endswith("config ok\nviolation: tau > 1 required\n")

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
