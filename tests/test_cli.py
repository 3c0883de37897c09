"""Tests for the command-line front end, config resolution, and emission."""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from bellstat import ValidationError
from bellstat.cli import (
    COMMANDS,
    FLOAT_TEXTS_MIN,
    MAX_ROWS,
    MAX_SAMPLES,
    Columns,
    Command,
    _BLOCK_VALUES,
    _csv_parts,
    _csv_rows,
    _matrix_text,
    _parts,
    build_parser,
    dumps_stable,
    emit,
    main,
    resolve_config,
    run,
)
from bellstat.populations import AxisTriple, PopulationTable
from bellstat.presets import PRESET_NAMES, load_preset
from bellstat.quantum import quantum_wigner_scan


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "bellstat", *args],
        capture_output=True,
        text=True,
    )


class TestConfigResolution:
    def test_defaults(self):
        config = resolve_config("counterexample", None, {})
        assert config.seed == 42
        assert config.samples == 100_000
        assert config.epsilon == 0.05
        assert config.policy == "equal"

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"table": [2, 0, 0, 0, 0, 0, 0, 0], "seed": 7}))
        config = resolve_config("simulate", str(path), {})
        assert config.seed == 7
        assert config.table == PopulationTable.from_counts((2, 0, 0, 0, 0, 0, 0, 0))

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"table": [1] * 8, "seed": 7, "samples": 10}))
        config = resolve_config("simulate", str(path), {"seed": 11, "samples": None})
        assert config.seed == 11
        assert config.samples == 10

    def test_command_mismatch_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"command": "quantum", "axes_spacing_deg": 60}))
        with pytest.raises(ValidationError):
            resolve_config("drain", str(path), {})

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"tables": [1] * 8}))
        with pytest.raises(ValidationError):
            resolve_config("exact", str(path), {})

    def test_missing_file_rejected(self):
        with pytest.raises(ValidationError):
            resolve_config("exact", "/no/such/file.json", {})

    def test_flag_table_string_parsed(self):
        config = resolve_config("exact", None, {"table": "1,2,3,4,5,6,7,8"})
        assert config.table == PopulationTable.from_counts(range(1, 9))

    def test_garbled_table_rejected(self):
        with pytest.raises(ValidationError):
            resolve_config("exact", None, {"table": "1,2,three"})


class TestConfigValidation:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            resolve_config("exact", None, {"table": "1,-2,3,4,5,6,7,8"})

    def test_zero_samples_rejected(self):
        with pytest.raises(ValidationError):
            resolve_config("simulate", None, {"table": "1,1,1,1,1,1,1,1", "samples": 0})

    def test_overdraw_of_finite_bag_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(
            json.dumps({"table": [1] * 8, "mode": "finite", "samples": 9})
        )
        with pytest.raises(ValidationError, match="cannot draw 9 pairs from a bag of 8"):
            run(resolve_config("simulate", str(path), {}))

    def test_non_unit_axes_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(
            json.dumps({"axes": {"a": [0, 0, 2], "b": [0, 1, 0], "c": [1, 0, 0]}})
        )
        with pytest.raises(ValidationError):
            resolve_config("quantum", str(path), {})

    def test_steps_with_explicit_axes_rejected(self, tmp_path, capsys):
        axes = {"a": [0, 0, 1], "b": [0, 1, 0], "c": [1, 0, 0]}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"axes": axes, "steps": 3, "samples": 100}))
        assert main(["quantum", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "steps" in err and "--axes-spacing" in err
        path.write_text(json.dumps({"axes": axes, "steps": 1, "samples": 100}))
        assert len(run(resolve_config("quantum", str(path), {}))["results"]["scan"]["lhs"]) == 1

    @pytest.mark.parametrize("argv, config_text, needle", [
        (["quantum"], '{"axes": {"a": [0, 0, 1], "b": [0, 1, 0], "c": [1, 0, 0]}, '
         '"axes_spacing_deg": 30}', "not both"),
        (["quantum", "--axes-spacing", "30"],
         '{"axes": {"a": [0, 0, 1], "b": [0, 1, 0], "c": [1, 0, 0]}}', "not both"),
        (["entropy", "--omegas", "1,1,1,1,1,1,1,2", "--table", "1,1,1,1,1,1,1,1"], None,
         "not both"),
        (["entropy"], '{"omegas": [1, 1, 1, 1, 1, 1, 1, 2], "table": [1, 1, 1, 1, 1, 1, 1, 1]}',
         "not both"),
        (["simulate"], '{"table": [1, 1, 1, 1, 1, 1, 1, 1], "samples": 5, "samples": 7}',
         "repeats key 'samples'"),
        (["quantum"], '{"axes": {"a": [0, 0, 1], "a": [0, 1, 0], "b": [0, 1, 0], '
         '"c": [1, 0, 0]}}', "repeats key 'a'"),
    ], ids=["axes-and-spacing", "axes-and-spacing-flag", "omegas-and-table-flags",
            "omegas-and-table", "repeated-key", "repeated-nested-key"])
    def test_an_input_given_twice_rejected(self, tmp_path, capsys, argv, config_text, needle):
        if config_text is not None:
            path = tmp_path / "twice.json"
            path.write_text(config_text)
            argv = argv + ["--config", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("bellstat: ") and err.count("\n") == 1
        assert needle in err

    def test_quantum_needs_geometry(self):
        with pytest.raises(ValidationError):
            resolve_config("quantum", None, {})

    def test_exact_needs_table(self):
        with pytest.raises(ValidationError):
            resolve_config("exact", None, {})

    def test_unknown_command_rejected(self):
        with pytest.raises(ValidationError, match="unknown command 'entangle'"):
            resolve_config("entangle", None, {})

    def test_entropy_accepts_table_with_policy(self):
        config = resolve_config(
            "entropy", None, {"table": "1,1,1,1,1,1,1,1", "policy": "proportional"}
        )
        report = run(config)
        assert report["results"]["omegas"] == [1.0] * 8

    # Each bad value goes to a command that reads its key, so the value check,
    # not the unread-input rule, rejects it.  The ids are the cases' indices.
    @pytest.mark.parametrize(
        "command, overrides, message",
        [
            ("exact", {"table": "1,1,1,1,1,1,1,1", "seed": -3},
             "seed must be an unsigned 64-bit integer, got -3"),
            ("entropy", {"omegas": "1,1,1,1,1,1,1,1", "epsilon": -1.0},
             "epsilon must be nonnegative, got -1.0"),
            ("entropy", {"omegas": "1,1,1,1,1,1,1,1", "epsilon": math.nan},
             "epsilon must be finite, got nan"),
            ("exact", {"table": "1,1,1,1,1,1,1,1", "format": "yaml"},
             "format must be 'json' or 'csv', got 'yaml'"),
            ("exact", {"table": "1,1,1,1,1,1,1,1", "axes_spacing_deg": 180.0},
             r"axes spacing must be in \(0, 180\) degrees, got 180.0"),
            ("exact", {"table": "1,1,1,1,1,1,1,1", "axes_spacing_deg": 0.0},
             r"axes spacing must be in \(0, 180\) degrees, got 0.0"),
            ("quantum", {"axes_spacing_deg": 60.0, "steps": 0}, "steps must be >= 1, got 0"),
            ("simulate", {"table": "1,1,1,1,1,1,1,1", "mode": "bogus"},
             "mode must be 'infinite' or 'finite', got 'bogus'"),
        ],
        ids=[f"overrides{i}" for i in range(8)],
    )
    def test_bad_scalars_rejected(self, command, overrides, message):
        with pytest.raises(ValidationError, match=message):
            run(resolve_config(command, None, overrides))


class TestHardening:
    """Out-of-range input exits 2 with one message line, never a traceback."""

    HUGE_TABLE = "100000000000000000000,1,1,1,1,1,1,1"  # total above 2**63

    def exits_2(self, capsys, argv, *needles):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        for needle in needles:
            assert needle in err

    @pytest.mark.parametrize("command", ["simulate", "drain"])
    def test_reservoir_total_at_2_63_rejected(self, capsys, command):
        self.exits_2(capsys, [command, "--table", self.HUGE_TABLE], "2**63")

    def test_finite_overdraw_writes_no_report(self, capsys, tmp_path):
        path, out = tmp_path / "exp.json", tmp_path / "report.json"
        path.write_text(json.dumps({"table": [1] * 8, "mode": "finite", "samples": 9}))
        argv = ["simulate", "--config", str(path), "--out", str(out)]
        self.exits_2(capsys, argv, "bellstat: cannot draw 9 pairs from a bag of 8")
        assert not out.exists()

    def test_finite_reservoir_total_at_2_63_rejected(self, capsys, tmp_path):
        path = tmp_path / "exp.json"
        table = [int(n) for n in self.HUGE_TABLE.split(",")]
        path.write_text(json.dumps({"table": table, "mode": "finite", "samples": 3}))
        self.exits_2(capsys, ["simulate", "--config", str(path)], "2**63")

    def test_exact_handles_totals_above_2_63(self, capsys):
        assert main(["exact", "--table", self.HUGE_TABLE]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["wigner"]["holds"] is True

    def test_nan_epsilon_rejected_at_its_source(self, capsys):
        argv = ["entropy", "--omegas", "1,1,1,1,1,1,1,1", "--epsilon", "nan"]
        self.exits_2(capsys, argv, "epsilon must be finite")

    def test_overflowing_multiplicities_rejected(self, capsys):
        argv = ["entropy", "--omegas", "1e308,1e308,1e308,1e308,1,1,1,1"]
        self.exits_2(capsys, argv, "must be finite")

    def test_proportional_count_too_large_for_a_float_rejected(self, capsys):
        count = "1" + "0" * 400
        argv = ["entropy", "--table", f"{count},1,1,1,1,1,1,1", "--policy", "proportional"]
        self.exits_2(capsys, argv, "too large for a float")

    @pytest.mark.parametrize(
        "argv, needle",
        [
            pytest.param(["quantum", "--axes-spacing", "60", "--samples", "1" + "0" * 20],
                         f"samples must be at most {MAX_SAMPLES}", id="quantum-samples"),
            pytest.param(["simulate", "--table", "1,1,1,1,1,1,1,1", "--samples", "1" + "0" * 20],
                         f"samples must be at most {MAX_SAMPLES}", id="simulate-samples"),
            pytest.param(["counterexample", "--samples", str(MAX_SAMPLES + 1)],
                         f"samples must be at most {MAX_SAMPLES}", id="counterexample-budget"),
            pytest.param(["drain", "--table", "100000000000,0,0,0,0,0,0,0"],
                         f"bag of at most {MAX_ROWS} pairs", id="drain-total"),
            pytest.param(["drain", "--table", f"{MAX_ROWS},1,0,0,0,0,0,0"],
                         f"bag of at most {MAX_ROWS} pairs", id="drain-total-one-over"),
            pytest.param(["exact", "--table", "1,1,1,1,1,1,1,1", "--workers", "0"],
                         "workers must be >= 1", id="workers-zero"),
        ],
    )
    def test_sample_and_row_limits(self, capsys, argv, needle):
        self.exits_2(capsys, argv, needle)

    def test_steps_limit(self, capsys, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"axes_spacing_deg": 60, "steps": MAX_ROWS + 1}))
        argv = ["quantum", "--config", str(path)]
        self.exits_2(capsys, argv, f"steps must be at most {MAX_ROWS}")

    def test_spacing_whose_radians_underflow_rejected(self, capsys):
        self.exits_2(capsys, ["quantum", "--axes-spacing", "5e-324", "--samples", "100"],
                     "axes spacing must be in (0, 180) degrees, got 5e-324")
        assert math.radians(2e-322) == 5e-324  # the least spacing whose radians are positive
        assert main(["quantum", "--axes-spacing", "2e-322", "--samples", "100"]) == 0

    def test_limits_are_inclusive(self):
        overrides = {"axes_spacing_deg": 60.0, "samples": MAX_SAMPLES, "steps": MAX_ROWS}
        config = resolve_config("quantum", None, overrides)
        assert (config.samples, config.steps) == (MAX_SAMPLES, MAX_ROWS)

    def test_quantum_runs_at_the_sample_cap(self, tmp_path):
        """The singlet sampler's cost does not grow with --samples."""
        out = tmp_path / "report.json"
        argv = ["quantum", "--axes-spacing", "60", "--samples", str(MAX_SAMPLES), "--out", str(out)]
        assert MAX_SAMPLES == 100_000_000
        assert main(argv) == 0
        sampler = json.loads(out.read_text())["results"]["sampler"]
        assert sampler["n"] == MAX_SAMPLES
        for estimate in sampler["estimates"]:
            assert abs(estimate["p_hat"] - estimate["reference"]) <= 5 * estimate["stderr"]

    @pytest.mark.parametrize("value", [1.7, True, "5"])
    @pytest.mark.parametrize("key", ["samples", "steps", "seed"])
    def test_non_integer_config_values_rejected(self, capsys, tmp_path, key, value):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"table": [1] * 8, key: value}))
        self.exits_2(capsys, ["exact", "--config", str(path)], f"{key} must be an integer")

    ONES = "1,1,1,1,1,1,1,1"
    AXES = {"a": [0, 0, 1], "b": [0, 1, 0], "c": [1, 0, 0]}

    @pytest.mark.parametrize(
        "argv, config, needle",
        [
            pytest.param(["quantum"], {"axes": {**AXES, "a": ["x", 0, 0]}},
                         "axis 'a' component must be a number", id="axis-string"),
            pytest.param(["entropy", "--omegas", ONES], {"epsilon": True},
                         "epsilon must be a number", id="epsilon-bool"),
            pytest.param(["quantum", "--samples", "100"], {"axes_spacing_deg": "60"},
                         "axes_spacing_deg must be a number", id="spacing-string"),
            pytest.param(["entropy"], {"omegas": ["x", 1, 1, 1, 1, 1, 1, 1]},
                         "omegas element must be a number", id="omega-string"),
            pytest.param(["entropy", "--omegas", ONES], '{"epsilon": 1' + "0" * 400 + "}",
                         "epsilon is too large", id="epsilon-400-digits"),
            pytest.param(["entropy"], {"omegas": [True] * 8},
                         "omegas element must be a number", id="omega-bool"),
            pytest.param(["entropy"], {"omegas": [[1]] + [1] * 7},
                         "omegas element must be a number", id="omega-list"),
            pytest.param(["quantum", "--samples", "100"], {"axes": {**AXES, "c": [True, 0, 0]}},
                         "axis 'c' component must be a number", id="axis-bool"),
            pytest.param(["exact", "--table", ONES], {"out": 5},
                         "out must be a string, got 5", id="out-int"),
            pytest.param(["exact", "--table", ONES], {"policy": 1},
                         "policy must be a string, got 1", id="policy-int"),
            pytest.param(["exact", "--table", ONES], {"epsilon": None},
                         "epsilon must be a number, got None", id="epsilon-null"),
            pytest.param(["exact"], '{"table": [1' + "0" * 5000 + ", 1, 1, 1, 1, 1, 1, 1]}",
                         "is not valid JSON", id="count-5001-digits"),
            pytest.param(["exact"], '{"table": ' + "[" * 100_000 + "]" * 100_000 + "}",
                         "is not valid JSON", id="config-100000-deep"),
            pytest.param(["exact"], "[1, 2]", "must hold a JSON object", id="config-list"),
            pytest.param(["quantum"], {"axes": {**AXES, "b": [0, 1]}},
                         "axis 'b' must be a 3-vector", id="axis-2-vector"),
            pytest.param(["quantum"], {"axes": list(AXES.values())},
                         "axes must be an object with keys 'a', 'b', 'c'", id="axes-list"),
            pytest.param(["exact"], {"table": [1.0] + [1] * 7},
                         "population counts must be integers, got 1.0", id="table-float"),
            pytest.param(["exact", "--config", "."], None,
                         "neither a readable file nor a preset", id="config-directory"),
            pytest.param(["exact", "--table", ONES, "--format", "xml"], None,
                         "format must be 'json' or 'csv', got 'xml'", id="format-flag"),
            pytest.param(["entropy", "--omegas", ONES, "--policy", "bogus"], None,
                         "policy must be 'equal' or 'proportional'", id="policy-flag"),
        ],
    )
    def test_wrongly_typed_values_rejected(
        self, capsys, tmp_path, monkeypatch, argv, config, needle
    ):
        monkeypatch.chdir(tmp_path)  # an ``out`` read as a file name lands here
        if config is not None:
            path = tmp_path / "exp.json"
            path.write_text(config if isinstance(config, str) else json.dumps(config))
            argv = [*argv, "--config", str(path)]
        self.exits_2(capsys, argv, needle)

    def test_nul_byte_in_out_path_exits_3(self, capsys, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"table": [1] * 8, "out": "report\0.json"}))
        assert main(["exact", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot write output" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_closed_pipe_exits_3_with_one_line(self, fmt):
        """stdout is a pipe whose read end is closed before anything is read:
        the report (over the 64 KiB a pipe holds) cannot be written."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "bellstat", "drain",
                 "--table", ",".join(["400"] * 8), "--format", fmt],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 3
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert proc.stderr.startswith("bellstat: cannot write output:")
        assert "Exception ignored" not in proc.stderr

    @pytest.mark.parametrize("geometry", [["--axes-spacing", "60"], "explicit axes"])
    def test_quantum_needs_a_sample_for_every_axis_pair(self, capsys, tmp_path, geometry):
        """The contract: each of the nine axis pairs gets about 1/9 of
        ``--samples``, and a pair with none exits 2 rather than report a
        missing estimate."""
        if geometry == "explicit axes":
            path = tmp_path / "exp.json"
            path.write_text(json.dumps({"axes": self.AXES}))
            geometry = ["--config", str(path)]
        self.exits_2(capsys, ["quantum", *geometry, "--samples", "1"], "no samples for axis pair")


_ONES, _AXES = TestHardening.ONES, TestHardening.AXES
# One argv per command that runs, each with inputs of that command only.
_RUNS = {
    "exact": ["exact", "--table", _ONES],
    "simulate": ["simulate", "--table", _ONES, "--samples", "100"],
    "drain": ["drain", "--table", _ONES],
    "quantum": ["quantum", "--axes-spacing", "60", "--samples", "100"],
    "entropy": ["entropy", "--omegas", _ONES],
    "counterexample": ["counterexample", "--samples", "100"],
}


def _main_with(tmp_path, argv, config=None, extra=()):
    """``main`` on ``argv``, plus ``--config`` of a file holding ``config``;
    ``extra`` adds flags (a list) or config keys (a dict)."""
    if isinstance(extra, dict):
        config = {**(config or {}), **extra}
    else:
        argv = [*argv, *extra]
    if config is not None:
        path = tmp_path / "inputs.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    return main(argv)


class TestInputs:
    """A command reads only the keys of one of its input forms: any other key
    that differs from its default exits 2 with one line naming it."""

    @pytest.mark.parametrize("argv, config, unread, name", [
        pytest.param(_RUNS["drain"], None, ["--samples", "5"], "--samples", id="drain-samples"),
        pytest.param(_RUNS["exact"], None, ["--axes-spacing", "30"], "--axes-spacing",
                     id="exact-axes-spacing"),
        pytest.param(_RUNS["counterexample"], None, ["--table", _ONES], "--table",
                     id="counterexample-table"),
        pytest.param(_RUNS["quantum"], None, ["--table", _ONES], "--table", id="quantum-table"),
        pytest.param(["quantum", "--samples", "100"], {"axes": _AXES}, {"steps": 3}, "steps",
                     id="quantum-axes-steps"),
        pytest.param(_RUNS["entropy"], None, {"policy": "proportional"}, "--policy",
                     id="entropy-omegas-policy"),
        *(pytest.param(_RUNS[command], None, {"mode": "finite"}, "mode", id=f"{command}-mode")
          for command in COMMANDS if command != "simulate"),
    ])
    def test_an_unread_input_exits_2(self, tmp_path, capsys, argv, config, unread, name):
        """The same command runs without the unread key."""
        assert _main_with(tmp_path, argv, config) == 0
        capsys.readouterr()
        assert _main_with(tmp_path, argv, config, unread) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bellstat: ") and captured.err.count("\n") == 1
        assert f"does not read {name}" in captured.err

    @pytest.mark.parametrize("argv, needle", [
        (["exact"], "command 'exact' requires --table"),
        (["quantum", "--samples", "100"], "command 'quantum' requires --axes-spacing or axes"),
        (["entropy"], "command 'entropy' requires --omegas or --table"),
    ])
    def test_a_missing_input_exits_2(self, capsys, argv, needle):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"bellstat: {needle}\n"

    @pytest.mark.parametrize("argv, config, default", [
        pytest.param(_RUNS["exact"], None, ["--seed", "42"], id="exact-seed-42"),
        pytest.param(["quantum", "--samples", "100"], {"axes": _AXES}, {"steps": 1},
                     id="quantum-axes-steps-1"),
    ])
    def test_a_default_value_is_not_an_input(self, tmp_path, capsys, argv, config, default):
        """A key set to its default runs, with the bytes of a run without it."""
        for fmt in ("json", "csv"):
            reports = []
            for extra in ((), default):
                assert _main_with(tmp_path, [*argv, "--format", fmt], config, extra) == 0
                out = capsys.readouterr().out
                if fmt == "json":
                    doc = json.loads(out)
                    out = dumps_stable({"config": doc["config"], "results": doc["results"]})
                reports.append(out)
            assert reports[0] == reports[1]

    @pytest.mark.parametrize("argv, config, needle", [
        pytest.param(_RUNS["simulate"], {"mode": "bogus"},
                     "mode must be 'infinite' or 'finite', got 'bogus'", id="simulate-mode"),
        pytest.param(_RUNS["quantum"], {"steps": 0}, "steps must be >= 1, got 0",
                     id="quantum-steps"),
        pytest.param(_RUNS["counterexample"] + ["--epsilon", "-1"], None,
                     "epsilon must be nonnegative, got -1.0", id="counterexample-epsilon"),
    ])
    def test_a_bad_value_of_a_read_input_exits_2(self, tmp_path, capsys, argv, config, needle):
        """The library step that reads the key rejects it, before any output."""
        assert _main_with(tmp_path, argv, config) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"bellstat: {needle}\n"


# Strategies for the exit-code contract.  Every count, sample budget and step
# count stays small (counts <= 50, samples <= 1000, steps <= 100), so that no
# generated drain, draw or scan costs more than a few MB or milliseconds; huge
# integers go only to keys where they are out of range, not a long run.
_WRONG = st.one_of(
    st.booleans(), st.none(), st.text(max_size=4), st.floats(allow_nan=True),
    st.lists(st.integers(0, 3), max_size=3),
)
_HUGE = st.sampled_from([2**64, 10**20, 10**400])
_COUNT = st.integers(0, 50)
_COUNTS = st.lists(_COUNT, min_size=8, max_size=8)
_NUMBER = st.integers(-5, 200) | st.floats(-1e3, 1e3)
_COMPONENTS = st.lists(_NUMBER | _HUGE | _WRONG, max_size=4)
# A config each command can run, holding only keys it reads; the generated
# changes are merged over it.
_RUNNABLE = {
    "exact": st.fixed_dictionaries({"table": _COUNTS}),
    "simulate": st.fixed_dictionaries({"table": _COUNTS, "samples": st.integers(1, 1000)}),
    "drain": st.fixed_dictionaries({"table": _COUNTS}),
    "quantum": st.fixed_dictionaries({
        "axes_spacing_deg": st.floats(1, 179),
        "steps": st.integers(1, 100),
        "samples": st.integers(1, 1000),
    }),
    "entropy": st.fixed_dictionaries({"table": _COUNTS}),
    "counterexample": st.fixed_dictionaries({"samples": st.integers(1, 1000)}),
}
_CONFIG_VALUES = {
    "command": st.sampled_from(list(COMMANDS)),
    "table": _COUNTS | st.lists(_COUNT | _WRONG, max_size=9) | _WRONG,
    "omegas": st.lists(st.floats(0.01, 100), min_size=8, max_size=8)
    | st.lists(_NUMBER | _HUGE | _WRONG, max_size=9) | _WRONG,
    "axes": st.just(TestHardening.AXES)
    | st.fixed_dictionaries({k: _COMPONENTS for k in "abc"}) | _WRONG,
    "axes_spacing_deg": st.floats(-10, 200) | _HUGE | _WRONG,
    "steps": st.integers(-1, 100) | _WRONG,
    "samples": st.integers(-1, 1000) | _WRONG,
    "seed": st.integers(-1, 2**64 + 1) | _HUGE | _WRONG,
    "policy": st.sampled_from(["equal", "proportional", "bogus"]) | _WRONG,
    "epsilon": st.floats(-1, 1) | _HUGE | _WRONG,
    "mode": st.sampled_from(["infinite", "finite", "bogus"]) | _WRONG,
    "format": st.sampled_from(["json", "csv", "xml"]) | _WRONG,
    "out": st.sampled_from(["report", "missing/report", "nul\0byte"]) | _WRONG,
    "tables": _WRONG,
}
_FLAG_VALUES = {
    "--table": _COUNTS.map(lambda c: ",".join(map(str, c)))
    | st.sampled_from(["", "1,2", "x,1,1,1,1,1,1,1", "1.5,1,1,1,1,1,1,1", "-1,1,1,1,1,1,1,1"]),
    "--omegas": st.lists(st.floats(allow_infinity=True, allow_nan=True), min_size=8, max_size=8)
    .map(lambda w: ",".join(map(repr, w))) | st.sampled_from(["", "1,x", "0,1,1,1,1,1,1,1"]),
    "--axes-spacing": st.floats(-10, 200, allow_nan=False).map(repr) | st.just("nan"),
    "--samples": st.integers(-1, 1000).map(str) | st.sampled_from(["x", "1.5"]),
    "--seed": st.integers(-1, 2**64 + 1).map(str),
    "--policy": st.sampled_from(["equal", "proportional", "bogus"]),
    "--epsilon": st.floats(allow_nan=True, allow_infinity=True).map(repr),
    "--format": st.sampled_from(["json", "csv", "xml"]),
    "--out": st.sampled_from(["report", "missing/report"]),
    "--workers": st.integers(-1, 4).map(str),
}


def _some(values: dict) -> st.SearchStrategy[dict]:
    """A few of the keys of ``values``, each with a value from its strategy."""
    keys = st.lists(st.sampled_from(list(values)), max_size=4, unique=True)
    return keys.flatmap(lambda ks: st.fixed_dictionaries({k: values[k] for k in ks}))


class TestExitCodeContract:
    @settings(
        max_examples=300,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(
        case=st.sampled_from(list(COMMANDS)).flatmap(lambda command: st.tuples(
            st.just(command), _RUNNABLE[command] | st.just({}), _some(_CONFIG_VALUES)
        )),
        command_first=st.booleans(),
        flags=_some(_FLAG_VALUES),
        config_ref=st.just("FILE") | st.sampled_from([None, "no-such-preset", ".", *PRESET_NAMES]),
    )
    def test_main_exits_0_2_or_3_and_never_raises(
        self, tmp_path, monkeypatch, case, command_first, flags, config_ref
    ):
        """Every argv and config file ends in exit 0, or in exit 2/3 with one
        ``bellstat:`` line; ``main`` never raises, not even for a flag
        argparse cannot parse."""
        command, base, changes = case
        config = {**base, **changes}
        monkeypatch.chdir(tmp_path)  # relative ``out`` names land here
        if config_ref == "FILE":
            config_ref = str(tmp_path / "exp.json")
            (tmp_path / "exp.json").write_text(json.dumps(config))
        if config_ref is not None:
            flags["--config"] = config_ref
        options = [part for flag, value in flags.items() for part in (flag, value)]
        argv = [command, *options] if command_first else [*options, command]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3)
        if code == 0:
            assert err.getvalue() == ""
        else:
            assert err.getvalue().startswith("bellstat: ")
            assert err.getvalue().count("\n") == 1


@st.composite
def _omegas_with_a_one(draw):
    """Eight omegas, at least one exactly 1, whose total entropy is negative."""
    ones = draw(st.lists(st.booleans(), min_size=8, max_size=8).filter(any))
    logs = draw(st.lists(st.floats(-7.0, 3.0), min_size=8, max_size=8))
    omegas = [1.0 if one else math.exp(x) for one, x in zip(ones, logs)]
    assume(math.fsum(map(math.log, omegas)) < 0.0)
    return omegas


# Strategies for the report contract: configs every command runs, in every
# form, with the edges of the other tests: bag totals near 2^32 and 2^63,
# empty populations and one-pair bags, spacings near 0, 90 and 180 degrees and
# subnormal ones, omegas with an exact 1 and a negative total entropy, and
# tables of rows either side of 1,024, 2,048 and each command's block (4,096
# scan points, 910 drain steps).  Float inputs include signed zeros.
_SIGNED_ZERO = st.sampled_from([0.0, -0.0])
_EPSILON = _SIGNED_ZERO | st.floats(0.0, 2.0)
_SEED = st.integers(0, 2**64 - 1)
_ROW_EDGES = [1023, 1024, 1025, 2047, 2048, 2049]
_DRAIN_TOTALS = st.integers(1, 60) | st.sampled_from([909, 910, 911, *_ROW_EDGES])
_SCAN_STEPS = st.integers(1, 30) | st.sampled_from([*_ROW_EDGES, 4095, 4096, 4097])
_BAG_TOTALS = st.integers(1, 60) | st.sampled_from(
    [2**32 - 1, 2**32, 2**32 + 1, 2**63 - 2, 2**63 - 1]
)
_SPACINGS = st.floats(2e-322, 180.0, exclude_max=True) | st.sampled_from([
    2e-322, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-9, 1.0,
    math.nextafter(90.0, 0.0), 90.0, math.nextafter(90.0, 180.0), 179.0,
    math.nextafter(180.0, 0.0),
])
# Unit axes with zero components.
_UNIT_AXES = [
    [1, 0, 0], [0, 1, 0], [0, 0, 1], [0.28, 0.96, 0], [0.8, 0.6, 0], [0, -0.6, 0.8],
]


@st.composite
def _tables(draw, totals):
    """Eight counts with a total from ``totals``; a cut at either end leaves
    populations empty."""
    total = draw(totals)
    cut = st.integers(0, total) | st.sampled_from([0, total])
    cuts = sorted(draw(st.lists(cut, min_size=7, max_size=7)))
    return [hi - lo for lo, hi in zip([0, *cuts], [*cuts, total])]


@st.composite
def _axis(draw):
    """A unit 3-vector: one of :data:`_UNIT_AXES`, or any direction; each
    zero component is drawn as 0.0 or -0.0."""
    if draw(st.booleans()):
        vector = [float(x) for x in draw(st.sampled_from(_UNIT_AXES))]
    else:
        polar, azimuth = draw(st.floats(0.0, math.pi)), draw(st.floats(-math.pi, math.pi))
        vector = [math.sin(polar) * math.cos(azimuth), math.sin(polar) * math.sin(azimuth),
                  math.cos(polar)]
    if draw(st.booleans()):
        vector = [-x for x in vector]
    return [draw(_SIGNED_ZERO) if x == 0.0 else x for x in vector]


_REPORT_CONFIGS = st.one_of(
    st.tuples(st.just("exact"), st.fixed_dictionaries({"table": _tables(_BAG_TOTALS)})),
    st.tuples(st.just("simulate"), st.fixed_dictionaries({
        "table": _tables(_BAG_TOTALS), "samples": st.integers(1, 2000), "seed": _SEED,
    })),
    st.tuples(st.just("simulate"), _tables(_BAG_TOTALS).flatmap(
        lambda table: st.fixed_dictionaries({
            "table": st.just(table), "mode": st.just("finite"),
            "samples": st.integers(1, min(sum(table), 2000)), "seed": _SEED,
        })
    )),
    st.tuples(st.just("drain"), st.fixed_dictionaries({
        "table": _tables(_DRAIN_TOTALS), "seed": _SEED,
    })),
    st.tuples(st.just("quantum"), st.fixed_dictionaries({
        "axes_spacing_deg": _SPACINGS, "steps": _SCAN_STEPS,
        "samples": st.integers(500, 3000), "seed": _SEED,
    })),
    st.tuples(st.just("quantum"), st.fixed_dictionaries({
        "axes": st.fixed_dictionaries({k: _axis() for k in "abc"}),
        "samples": st.integers(500, 3000), "seed": _SEED,
    })),
    st.tuples(st.just("entropy"), st.fixed_dictionaries({
        "omegas": _omegas_with_a_one() | st.lists(st.floats(1e-3, 1e3), min_size=8, max_size=8),
        "epsilon": _EPSILON,
    })),
    st.tuples(st.just("entropy"), st.fixed_dictionaries({
        "table": _tables(_BAG_TOTALS), "policy": st.sampled_from(["equal", "proportional"]),
        "epsilon": _EPSILON,
    }).map(lambda c: {**c, "table": [n + (c["policy"] == "proportional") for n in c["table"]]})),
    st.tuples(st.just("counterexample"), st.fixed_dictionaries({
        "samples": st.integers(1, 200), "seed": _SEED, "epsilon": _EPSILON,
    })),
)

# Each config key a flag sets, and its text on the command line.
_AS_FLAG = {
    "table": ("--table", lambda v: ",".join(map(str, v))),
    "omegas": ("--omegas", lambda v: ",".join(map(repr, v))),
    "axes_spacing_deg": ("--axes-spacing", repr),
    "samples": ("--samples", str),
    "seed": ("--seed", str),
    "policy": ("--policy", str),
    "epsilon": ("--epsilon", repr),
}


_OUTCOME_KEYS = ("alice_axis", "alice_sign", "bob_axis", "bob_sign")


def reference_rows(command, r):
    """The CSV rows a report's JSON ``results`` hold, read field by field."""
    if command == "exact":
        return [[t["label"], *(t["outcome"][k] for k in _OUTCOME_KEYS),
                 ";".join(map(str, t["populations"])), t["numerator"], t["denominator"],
                 t["value"]] for t in r["wigner"]["terms"]]
    if command == "simulate":
        return [[e["outcome"]["label"], *(e["outcome"][k] for k in _OUTCOME_KEYS),
                 e["p_hat"], e["stderr"], e["n"], e["reference"]] for e in r["estimates"]]
    if command == "drain":
        return [[s["step"], s["population"], *s["conditional_probabilities"], *s["remaining"]]
                for s in r["steps"]]
    if command == "quantum":
        return [[p["theta_deg"], p["lhs"], p["rhs"], p["violated"]] for p in r["scan"]]
    if command == "entropy":
        return [[name, *(r[name][k] for k in ("lhs", "rhs", "margin", "holds")),
                 r[name].get("equal_multiplicity_precondition", "")]
                for name in ("multiplicity_inequality", "product_inequality",
                             "entropy_inequality")]
    if not r["found"]:
        return []
    return [[True, *r["omegas"], *(r["report"][k] for k in ("lhs", "rhs", "margin"))]]


class TestReportContract:
    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(case=_REPORT_CONFIGS, data=st.data())
    def test_every_report_round_trips_and_its_csv_is_its_json(self, tmp_path, case, data):
        """Every runnable config exits 0 in both formats.  Its JSON
        round-trips byte for byte and writes no ``-0``; its CSV is its
        command's header, then the rows its JSON holds, in the same texts."""
        command, config = case
        flags = data.draw(st.sets(st.sampled_from(sorted(set(config) & set(_AS_FLAG)))))
        argv = [command]
        for key in sorted(flags):
            flag, text = _AS_FLAG[key]
            argv += [flag, text(config.pop(key))]
        path = tmp_path / "report-config.json"
        path.write_text(json.dumps(config))
        texts = {}
        for fmt in ("json", "csv"):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main([*argv, "--config", str(path), "--format", fmt]) == 0, (argv, config)
            texts[fmt] = out.getvalue()
        ints = []
        doc = json.loads(texts["json"], parse_int=lambda text: ints.append(text) or int(text))
        assert dumps_stable(doc) + "\n" == texts["json"]
        assert "-0" not in ints
        rows = reference_rows(command, doc["results"])
        assert texts["csv"] == reference_csv(COMMANDS[command].csv_header, rows)


class TestRun:
    def test_exact_uniform(self):
        config = resolve_config("exact", None, {"table": "1,1,1,1,1,1,1,1"})
        report = run(config)
        wigner = report["results"]["wigner"]
        assert wigner["lhs"] == 0.25
        assert wigner["rhs"] == 0.5
        assert wigner["holds"] is True

    def test_quantum_60(self):
        config = resolve_config(
            "quantum", None, {"axes_spacing_deg": 60.0, "samples": 1000}
        )
        scan = run(config)["results"]["scan"]
        (lhs,), (rhs,), (violated,) = (scan[k].tolist() for k in ("lhs", "rhs", "violated"))
        assert lhs == pytest.approx(0.375, abs=1e-12)
        assert rhs == pytest.approx(0.25, abs=1e-12)
        assert violated is True

    def test_scan_table_holds_the_scan_columns_without_a_copy(self, monkeypatch):
        scans = []

        def recorded(*args):
            scans.append(quantum_wigner_scan(*args))
            return scans[-1]

        monkeypatch.setattr("bellstat.cli.quantum_wigner_scan", recorded)
        config = resolve_config(
            "quantum", None, {"axes_spacing_deg": 179.0, "steps": 3000, "samples": 100}
        )
        table = run(config)["results"]["scan"]
        (scan,) = scans
        for key in ("lhs", "rhs", "violated"):
            assert table[key] is getattr(scan, key)
            assert np.shares_memory(table[key], getattr(scan, key))

    def test_quantum_explicit_axes(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(
            json.dumps({"axes": {"a": [0, 0, 1], "b": [0, 1, 0], "c": [1, 0, 0]}, "samples": 100})
        )
        config = resolve_config("quantum", str(path), {})
        (theta_deg,) = run(config)["results"]["scan"]["theta_deg"]
        assert theta_deg == pytest.approx(90.0, abs=1e-9)

    def test_explicit_axes_scan_is_one_row_of_arrays(self):
        axes = {"a": [0, 0, 1], "b": [0.28, 0.96, 0], "c": [0.8, 0.6, 0]}
        report = run(resolve_config("quantum", None, {"axes": axes, "samples": 100}))
        scan = report["results"]["scan"]
        for key, dtype in (("theta_deg", np.float64), ("lhs", np.float64),
                           ("rhs", np.float64), ("violated", np.bool_)):
            assert isinstance(scan[key], np.ndarray), key
            assert scan[key].dtype == dtype and scan[key].shape == (1,), key

    @pytest.mark.parametrize("spacing_deg", [30.0, 60.0, 90.0, 135.0])
    def test_explicit_axes_match_axes_spacing(self, spacing_deg):
        axes = AxisTriple.coplanar(math.radians(spacing_deg))
        given = {axis.label: list(axis.direction) for axis in (axes.a, axes.b, axes.c)}
        explicit = run(resolve_config("quantum", None, {"axes": given, "samples": 100}))
        spaced = run(
            resolve_config("quantum", None, {"axes_spacing_deg": spacing_deg, "samples": 100})
        )
        a, b = explicit["results"]["scan"], spaced["results"]["scan"]
        for key in ("lhs", "rhs", "violated"):
            assert len(a[key]) == 1 and a[key] == b[key]
        assert a["theta_deg"] == pytest.approx(b["theta_deg"], abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        spacing_deg=st.floats(1e-300, 180.0, exclude_max=True),
        steps=st.integers(1, 5000),
    )
    def test_quantum_theta_column_is_deg_k_over_steps(self, spacing_deg, steps):
        config = resolve_config(
            "quantum", None, {"axes_spacing_deg": spacing_deg, "steps": steps, "samples": 100}
        )
        theta_deg = run(config)["results"]["scan"]["theta_deg"]
        expected = [spacing_deg * k / steps for k in range(1, steps + 1)]
        assert repr(theta_deg.tolist()) == repr(expected)

    def test_drain_reaches_certainty(self):
        config = resolve_config("drain", None, {"table": "2,1,0,0,0,0,0,0"})
        report = run(config)
        assert report["results"]["final_conditional_probability"] == 1.0
        assert report["results"]["steps"]["step"].tolist() == [1, 2, 3]

    def test_finite_simulate_of_the_whole_bag_has_no_standard_error(self):
        config = resolve_config(
            "simulate", None, {"table": [3, 1, 4, 1, 5, 9, 2, 6], "mode": "finite", "samples": 31}
        )
        estimates = run(config)["results"]["estimates"]
        assert [e["p_hat"] for e in estimates] == [e["reference"] for e in estimates]
        assert [e["stderr"] for e in estimates] == [0.0, 0.0, 0.0]

    def test_simulate_estimates_carry_references(self):
        config = resolve_config(
            "simulate", None, {"table": "1,1,1,1,1,1,1,1", "samples": 20_000}
        )
        report = run(config)
        for est in report["results"]["estimates"]:
            assert est["reference"] == 0.25
            assert abs(est["p_hat"] - 0.25) <= 4 * est["stderr"]
        assert report["results"]["empirical_wigner"]["holds"] is True

    def test_counterexample_found_with_default_budget(self):
        config = resolve_config("counterexample", None, {"samples": 10_000})
        report = run(config)
        assert report["results"]["found"] is True
        assert report["results"]["report"]["holds"] is False
        assert report["results"]["report"]["equal_multiplicity_precondition"] is False

    def test_entropy_reports_all_three_inequalities(self):
        config = resolve_config("entropy", None, {"omegas": "1,1,10,10,1,1,1,1"})
        report = run(config)
        assert report["results"]["multiplicity_inequality"]["holds"] is False
        assert report["results"]["product_inequality"]["holds"] is True
        assert report["results"]["entropy_inequality"]["holds"] is True


# One config per command whose CSV has at least one row.
CSV_ROW_CASES = {
    "exact": {"table": "1,2,3,4,5,6,7,8"},
    "simulate": {"table": "1,1,1,1,1,1,1,1", "samples": 2000},
    "drain": {"table": "2,1,0,0,0,0,0,0"},
    "quantum": {"axes_spacing_deg": 90.0, "steps": 3, "samples": 100},
    "entropy": {"omegas": "1,1,10,10,1,1,1,1"},
    "counterexample": {"samples": 10_000},
}


class TestEmission:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_csv_row_fills_the_header(self, command):
        config = resolve_config(command, None, CSV_ROW_CASES[command])
        header, *rows = emit(run(config), "csv").splitlines()
        assert header.split(",") == list(COMMANDS[command].csv_header)
        assert rows
        for row in rows:
            assert len(row.split(",")) == len(COMMANDS[command].csv_header)

    def test_json_round_trip_is_byte_identical(self):
        config = resolve_config(
            "quantum", None, {"axes_spacing_deg": 60.0, "samples": 1000}
        )
        text = emit(run(config), "json")
        reparsed = dumps_stable(json.loads(text)) + "\n"
        assert text == reparsed

    def test_numeric_fields_round_trip_exactly(self):
        config = resolve_config("counterexample", None, {"samples": 10_000})
        report = run(config)
        parsed = json.loads(emit(report, "json"))
        assert parsed["results"]["omegas"] == report["results"]["omegas"]
        assert parsed["results"]["report"]["margin"] == report["results"]["report"]["margin"]

    @pytest.mark.parametrize("command", ["exact", "simulate", "entropy", "counterexample"])
    def test_results_hold_plain_json_values(self, command):
        # A record or tuple left in the results would not equal its parsed JSON.
        report = run(resolve_config(command, None, CSV_ROW_CASES[command]))
        assert report["results"] == json.loads(emit(report, "json"))["results"]

    def test_unknown_format_rejected(self):
        report = run(resolve_config("exact", None, {"table": "1,1,1,1,1,1,1,1"}))
        with pytest.raises(ValidationError, match="unknown format 'xml'"):
            emit(report, "xml")

    def test_empty_trajectory_gives_header_only_csv(self):
        report = {
            "config": {"command": "drain"},
            "results": {
                "steps": Columns(
                    step=np.empty(0, np.int64), population=np.empty(0, np.int64),
                    conditional_probabilities=np.empty((0, 8)),
                    remaining=np.empty((0, 8), dtype=np.int64),
                ),
                "initial_total": 0,
                "final_conditional_probability": None,
            },
            "meta": {},
        }
        text = emit(report, "csv")
        assert text == ",".join(COMMANDS["drain"].csv_header) + "\n"

    def test_quantum_scan_csv_rows(self, tmp_path):
        path = tmp_path / "scan.json"
        path.write_text(json.dumps({"axes_spacing_deg": 90.0, "steps": 3, "samples": 100}))
        config = resolve_config("quantum", str(path), {})
        text = emit(run(config), "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "theta,lhs,rhs,violated"
        assert len(lines) == 4
        assert lines[1].startswith("30,")
        assert lines[1].endswith(",true")
        assert lines[3].endswith(",false")

    def test_missed_search_gives_header_only_csv(self):
        config = resolve_config("counterexample", None, {"samples": 1, "seed": 0})
        text = emit(run(config), "csv")
        assert text == ",".join(COMMANDS["counterexample"].csv_header) + "\n"


class TestNegativeZero:
    @settings(max_examples=60, deadline=None)
    @given(omegas=_omegas_with_a_one())
    @example(omegas=[0.022739, 0.1, 97.016873, 1.0, 0.03513, 3.8671, 0.01, 2.0])
    def test_entropy_report_round_trips(self, omegas):
        """An omega of exactly 1 has entropy 0, and its share of a negative
        total is 0, not -0: no ``-0`` is written, and the JSON round trip
        gives the same bytes back."""
        argv = ["entropy", "--omegas", ",".join(map(repr, omegas))]
        texts = {}
        for fmt in ("json", "csv"):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main([*argv, "--format", fmt]) == 0
            texts[fmt] = out.getvalue()
        ints = []
        doc = json.loads(texts["json"], parse_int=lambda text: ints.append(text) or int(text))
        assert "-0" not in ints
        assert dumps_stable(doc) + "\n" == texts["json"]
        assert doc["results"]["entropy_ratios"][omegas.index(1.0)] == 0
        assert "-0" not in {cell for line in texts["csv"].splitlines() for cell in line.split(",")}

    @pytest.mark.parametrize("argv, config", [
        pytest.param(["entropy", "--omegas", "1,2,3,4,5,6,7,8", "--epsilon", "-0.0"], None,
                     id="entropy-epsilon"),
        pytest.param(["counterexample", "--samples", "50", "--epsilon", "-0.0"], None,
                     id="counterexample-epsilon"),
        pytest.param(["quantum", "--samples", "1000"], {"axes": {
            "a": [1.0, -0.0, 0.0], "b": [-0.0, 1.0, -0.0], "c": [0.8, 0.6, -0.0],
        }}, id="quantum-axes"),
    ])
    def test_a_negative_zero_input_is_read_as_zero(self, tmp_path, capsys, argv, config):
        """A float input of -0.0 is echoed in ``config`` as 0, not ``-0``, so
        the JSON round trip gives the same bytes back; the report is the one
        an input of 0.0 gives."""
        reports = []
        for zero in ("-0.0", "0.0"):
            flags = [arg.replace("-0.0", zero) for arg in argv]
            inputs = config and json.loads(json.dumps(config).replace("-0.0", zero))
            for fmt in ("json", "csv"):
                assert _main_with(tmp_path, flags, inputs, ["--format", fmt]) == 0
                reports.append(capsys.readouterr().out)
        json_text, csv_text, positive_json, positive_csv = reports
        ints = []
        doc = json.loads(json_text, parse_int=lambda text: ints.append(text) or int(text))
        assert "-0" not in ints
        assert dumps_stable(doc) + "\n" == json_text
        positive = json.loads(positive_json)
        assert (doc["config"], doc["results"]) == (positive["config"], positive["results"])
        assert csv_text == positive_csv

    def test_a_negative_zero_spacing_is_out_of_range_as_zero(self, capsys):
        assert main(["quantum", "--axes-spacing", "-0.0", "--samples", "100"]) == 2
        assert capsys.readouterr().err == (
            "bellstat: axes spacing must be in (0, 180) degrees, got 0.0\n"
        )


def reference_dumps(obj, indent=0):
    """The recursive writer that the template writer replaced, kept as the
    reference its output must match byte for byte."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValidationError(f"cannot serialize non-finite number {obj!r}")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [reference_dumps(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k), ensure_ascii=True)}: {reference_dumps(v, indent + 1)}"
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise ValidationError(f"cannot serialize {type(obj).__name__} value {obj!r}")


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
    | st.text(max_size=4)
)
_KEYS = st.sampled_from(["a", "b", "theta", "%s", "%", "é", "", "100% of %s: ö"])


class _Int(int):
    """An int subclass: the writers format it value by value, not in the template."""


def _float(rng):
    """A finite float from any binade, signed zeros and subnormals included."""
    x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
    return x if math.isfinite(x) else rng.random()


def _fast_float(rng):
    """Mostly a float that ``float_texts`` writes in numpy, with
    ``1e-4 <= |x| < 1e16``, log-uniform, either sign; now and then a signed
    zero, which it writes one by one."""
    if rng.random() < 0.05:
        return rng.choice((0.0, -0.0))
    x = 10.0 ** rng.uniform(-4.0, 15.99)
    return -x if rng.random() < 0.5 else x


_VALUES = {
    "float": _float,
    "fast float": _fast_float,
    "int": lambda rng: rng.randint(-2**70, 2**70),
    "bool": lambda rng: rng.random() < 0.5,
}
_SPOILS = [None, "bool", "float64", "int subclass", "empty", "ragged"]


@st.composite
def _list_rows(draw, sizes):
    """Same-keyed rows with float, int and bool columns and columns of
    fixed-length float and int lists, like drain steps.  One list cell may be
    spoiled by a bool, an ``np.float64``, an int subclass, an empty list or a
    ragged length.  Values come from a seeded generator, so rows are cheap."""
    n = draw(sizes)
    width = draw(st.integers(1, 9))
    rng = random.Random(draw(st.integers(0, 2**32)))
    keys = draw(st.lists(_KEYS, min_size=5, max_size=5, unique=True))
    kinds = ["float", "int", "bool", ["float"] * width, ["int"] * width]
    def cell(kind):
        return [_VALUES[k](rng) for k in kind] if isinstance(kind, list) else _VALUES[kind](rng)
    rows = [{key: cell(kind) for key, kind in zip(keys, kinds)} for _ in range(n)]
    spoil = draw(st.sampled_from(_SPOILS))
    if spoil is not None:
        row, key = rows[draw(st.integers(0, n - 1))], draw(st.sampled_from(keys[3:]))
        values, e = row[key], draw(st.integers(0, width - 1))
        if spoil == "empty":
            row[key] = []
        elif spoil == "ragged":
            row[key] = values[:-1] if draw(st.booleans()) else values + values[:1]
        else:
            kind = {"bool": bool, "float64": np.float64, "int subclass": _Int}[spoil]
            values[e] = kind(values[e])
    return rows


# Trees that mix lists of same-keyed rows, ragged rows, scalar lists, rows of
# numeric-list columns and nesting.
_JSON_TREES = st.recursive(
    _JSON_SCALARS | _list_rows(st.integers(1, 4)),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(_KEYS, children, max_size=4)
        | st.tuples(st.lists(_KEYS, min_size=1, max_size=3, unique=True),
                    st.lists(st.lists(children, min_size=3, max_size=3), min_size=1, max_size=4))
        .map(lambda kv: [dict(zip(kv[0], row)) for row in kv[1]])
    ),
    max_leaves=30,
)
_UNSUPPORTED = [np.int64(1), np.float32(1.0), np.bool_(True), {1}, b"x", Fraction(1, 2), object()]
_NON_FINITE = [math.nan, math.inf, -math.inf, np.float64(math.inf)]


def _nested(value):
    """``value`` at the top level, inside a row of a row list, inside a
    scalar list and inside a nested dict."""
    return [
        value,
        [{"x": 1.0, "y": value}, {"x": 2.0, "y": 3.0}],
        [1.0, value, 2.0],
        {"k": {"rows": [{"v": [value]}]}},
    ]


def _lines(*lines):
    return "\n".join(lines)


# Any code point: control characters, non-ASCII text and lone surrogates each
# get their own branch, so every run draws them.
_ANY_TEXT = st.text(
    st.characters(exclude_categories=())
    | st.characters(max_codepoint=0x1F)
    | st.characters(min_codepoint=0x80)
    | st.characters(categories=["Cs"])
)


class TestStableWriter:
    """Edge cases of ``dumps_stable``, pinned at the recursive writer."""

    @pytest.mark.parametrize("value", _NON_FINITE, ids=repr)
    def test_non_finite_numbers_rejected(self, value):
        for obj in _nested(value):
            with pytest.raises(ValidationError, match="non-finite"):
                dumps_stable(obj)

    @pytest.mark.parametrize("results", [
        {"rows": [{"x": 1.0, "y": math.nan}]},
        {"values": [1.0, math.inf]},
        {"values": [-math.inf]},
    ])
    def test_non_finite_result_exits_2(self, monkeypatch, capsys, results):
        fake = Command(
            help="", inputs=COMMANDS["exact"].inputs, run=lambda config: results,
            csv_header=(), csv=COMMANDS["exact"].csv,
        )
        monkeypatch.setitem(COMMANDS, "exact", fake)
        assert main(["exact", "--config", "wigner-uniform"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bellstat: cannot serialize non-finite number")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", _UNSUPPORTED, ids=lambda v: type(v).__name__)
    def test_unsupported_types_rejected(self, value):
        for obj in _nested(value):
            with pytest.raises(ValidationError, match="cannot serialize"):
                dumps_stable(obj)

    def test_bools_print_as_json_bools(self):
        rows = [{"flag": True, "n": 1}, {"flag": False, "n": 0}]
        assert dumps_stable(rows) == _lines(
            "[", "  {", '    "flag": true,', '    "n": 1', "  },",
            "  {", '    "flag": false,', '    "n": 0', "  }", "]",
        )
        assert dumps_stable([True, 1, False, 0, None, 0.5, -0.0, "x"]) == _lines(
            "[", "  true,", "  1,", "  false,", "  0,", "  null,", "  0.5,", "  -0,", '  "x"', "]",
        )

    def test_numpy_float64_formats_as_a_float(self):
        values = [0.1, 1 / 3, 2.5e-300, -7.0]
        as_numpy = [np.float64(v) for v in values]
        for wrap in (lambda v: v, lambda v: [{"p": x} for x in v], lambda v: {"v": v}):
            assert dumps_stable(wrap(as_numpy)) == dumps_stable(wrap(values))
        assert dumps_stable(np.float64(0.1)) == "0.10000000000000001"

    def test_ragged_rows_empty_and_nested_containers(self):
        assert dumps_stable([{"a": 1, "b": [1.5, True]}, {"a": 2}, {"c": None, "a": "x"}, {}]) == _lines(
            "[", "  {", '    "a": 1,', '    "b": [', "      1.5,", "      true", "    ]", "  },",
            "  {", '    "a": 2', "  },", "  {", '    "a": "x",', '    "c": null', "  },", "  {}", "]",
        )
        assert dumps_stable({"list": [], "dict": {}, "rows": [[], {}], "nested": [[[]], [{}]]}) == _lines(
            "{", '  "dict": {},', '  "list": [],', '  "nested": [', "    [", "      []", "    ],",
            "    [", "      {}", "    ]", "  ],", '  "rows": [', "    [],", "    {}", "  ]", "}",
        )
        assert dumps_stable({"z": {"y": [{"x": [{"w": 0.25}]}]}, "a": [[1, 2], (3.0, "q\u00e9")]}) == _lines(
            "{", '  "a": [', "    [", "      1,", "      2", "    ],", "    [", "      3,",
            '      "q\\u00e9"', "    ]", "  ],", '  "z": {', '    "y": [', "      {", '        "x": [',
            "          {", '            "w": 0.25', "          }", "        ]", "      }", "    ]", "  }", "}",
        )
        assert dumps_stable({10: "ten", 2: "two"}) == _lines("{", '  "2": "two",', '  "10": "ten"', "}")
        assert dumps_stable([]) == "[]" and dumps_stable({}) == "{}" and dumps_stable(()) == "[]"

    @given(text=_ANY_TEXT)
    def test_strings_are_written_as_json_dumps_writes_them(self, text):
        quoted = json.dumps(text)
        assert dumps_stable(text) == quoted
        assert dumps_stable({"k": text}) == _lines("{", '  "k": ' + quoted, "}")
        assert dumps_stable([text]) == _lines("[", "  " + quoted, "]")

    def test_nan_two_dicts_deep_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            dumps_stable({"a": {"b": math.nan}})

    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    @given(tree=_JSON_TREES, indent=st.integers(0, 3))
    def test_matches_the_recursive_writer(self, tree, indent):
        assert dumps_stable(tree, indent) == reference_dumps(tree, indent)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=_list_rows(st.integers(1025, 2100)), indent=st.integers(0, 3))
    def test_matches_the_recursive_writer_over_several_blocks(self, rows, indent):
        assert dumps_stable(rows, indent) == reference_dumps(rows, indent)
        assert dumps_stable({"steps": rows}, indent) == reference_dumps({"steps": rows}, indent)

    def test_non_finite_in_a_list_column_of_a_late_block(self, monkeypatch, capsys):
        steps = [
            {"step": i, "conditional_probabilities": [i / (j + 1) for j in range(8)]}
            for i in range(1, 2001)
        ]
        steps[1499]["conditional_probabilities"][5] = math.nan
        with pytest.raises(ValidationError, match="non-finite"):
            dumps_stable({"steps": steps})
        fake = Command(
            help="", inputs=COMMANDS["exact"].inputs,
            run=lambda config: {"steps": steps}, csv_header=("step",),
            csv=lambda header, results: _csv_parts(header, [
                np.array([s["step"] for s in results["steps"]]),
                np.array([s["conditional_probabilities"] for s in results["steps"]]),
            ]),
        )
        monkeypatch.setitem(COMMANDS, "exact", fake)
        for fmt in ("json", "csv"):
            assert main(["exact", "--config", "wigner-uniform", "--format", fmt]) == 2
            err = capsys.readouterr().err
            assert err == "bellstat: cannot serialize non-finite number nan\n"


def reference_csv(header, rows):
    """The per-cell CSV writer that the column template writer replaced."""
    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            if not math.isfinite(v):
                raise ValidationError(f"cannot serialize non-finite number {v!r}")
            return format(v, ".17g")
        return str(v)
    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


_ODD_CELLS = [True, False, np.float64(0.1), _Int(7), "x", "", None, 2.5, 3, -0.0]


@st.composite
def _csv_tables(draw):
    """A header and a record's few rows whose columns are floats, ints or
    bools, with a few cells replaced by a value of another type or, now and
    then, a non-finite number."""
    kinds = draw(st.lists(st.sampled_from(sorted(_VALUES)), min_size=1, max_size=6))
    n = draw(st.integers(0, 20))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [[_VALUES[kind](rng) for kind in kinds] for _ in range(n)]
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        row = rows[draw(st.integers(0, n - 1))]
        odd = draw(st.sampled_from(_ODD_CELLS) | st.sampled_from(_NON_FINITE))
        row[draw(st.integers(0, len(kinds) - 1))] = odd
    return [f"c{i}" for i in range(len(kinds))], rows


class TestCsvWriter:
    """A record's CSV rows are joined cell by cell, as the per-cell writer
    joined them, and in one piece."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(table=_csv_tables())
    def test_matches_the_per_cell_writer(self, table):
        header, rows = table
        try:
            expected = reference_csv(header, rows)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as raised:
                _csv_rows(header, rows)
            assert str(raised.value) == str(exc)
        else:
            assert list(_csv_rows(header, rows)) == [expected]

    @pytest.mark.parametrize("value", _NON_FINITE, ids=repr)
    def test_non_finite_numbers_rejected(self, value):
        rows = [[1, 0.5, True]] * 1500
        rows[1200] = [2, value, False]
        with pytest.raises(ValidationError, match="non-finite"):
            _csv_rows(("a", "b", "c"), rows)


_COLUMN_KINDS = (
    "float array", "fast float array", "int array", "bool array",
    "1-D float array", "1-D fast float array", "1-D int array", "1-D bool array",
    "uint64 array", "small int array", "edge float array",
)


def _edge_float(rng):
    """A signed zero, a subnormal, or a float next to 1e-4 or 1e16, where the
    byte matrix's zero, one-by-one and fixed-notation rows meet."""
    tiny = struct.unpack("<d", rng.randint(1, 2**52 - 1).to_bytes(8, "little"))[0]
    edge = np.nextafter(rng.choice((1e-4, 1e16)), rng.choice((0.0, math.inf)))
    x = rng.choice((0.0, tiny, float(edge), rng.choice((1e-4, 1e16)), _fast_float(rng)))
    return -x if rng.random() < 0.5 else x


#: Array-only kinds: each value's maker and the array's dtype.
_ARRAY_KINDS = {
    "uint64 array": (lambda rng: rng.randint(2**63, 2**64 - 1), np.uint64),
    "small int array": (lambda rng: rng.randint(0, 9999), np.int64),  # one 4-digit group
    "edge float array": (_edge_float, np.float64),
}


#: The dtype of each kind of :data:`_VALUES`, so that an empty column has it too.
_DTYPES = {"float": np.float64, "fast float": np.float64, "int": np.int64, "bool": np.bool_}


def _int64(rng):
    """An int that an int64 array holds."""
    return rng.randint(-2**63, 2**63 - 1)


@st.composite
def _column_tables(draw, sizes):
    """A :class:`Columns` table with 1-D float64, int64 and bool array
    columns, and 2-D float64, int64, uint64 and bool array columns, like the
    drain's and the scan's.  The "fast float" kinds hold values that
    ``float_texts`` writes in numpy; the "edge float" kind mixes them with
    zeros, subnormals and the ends of that range.  ``sizes`` draws the row
    count, or maps the values in one row to the strategy that draws it."""
    width = draw(st.integers(1, 9))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kinds = draw(st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=5))
    keys = draw(st.lists(_KEYS, min_size=len(kinds), max_size=len(kinds), unique=True))
    row = sum(1 if kind.startswith("1-D ") else width for kind in kinds)
    n = draw(sizes(row) if callable(sizes) else sizes)
    def column(kind):
        if kind in _ARRAY_KINDS:
            value, dtype = _ARRAY_KINDS[kind]
        else:
            name = kind.removeprefix("1-D ").removesuffix(" array")
            value, dtype = _int64 if name == "int" else _VALUES[name], _DTYPES[name]
        shape = (n,) if kind.startswith("1-D ") else (n, width)
        return np.array([value(rng) for _ in range(math.prod(shape))], dtype=dtype).reshape(shape)
    return Columns((key, column(kind)) for key, kind in zip(keys, kinds))


def rows_per_block(width):
    """The rows of ``width`` values a block holds: as many whole rows as fit
    in :data:`_BLOCK_VALUES` values, at least one."""
    return max(1, _BLOCK_VALUES // width)


def block_rows(n, width):
    """The rows of each block the writer makes of ``n`` rows of ``width`` values."""
    rows = rows_per_block(width)
    return [min(rows, n - i) for i in range(0, n, rows)]


def _width(columns):
    """The values in one row of ``columns``: 1 per 1-D column, k per 2-D column of k."""
    return sum(1 if c.ndim == 1 else c.shape[1] for c in columns)


def _rows_of(columns):
    """The row dicts and the CSV rows that a column table stands for."""
    lists = {k: c.tolist() for k, c in columns.items()}
    n = len(next(iter(lists.values())))
    dicts = [{k: c[i] for k, c in lists.items()} for i in range(n)]
    csv_rows = [
        [x for c in lists.values() for x in (c[i] if isinstance(c[i], list) else [c[i]])]
        for i in range(n)
    ]
    return dicts, csv_rows


def _block_settings(width):
    """Block sizes, in values, for rows of ``width`` values: one row a block,
    one value either side of :data:`FLOAT_TEXTS_MIN`, 1,024 rows, and the
    writer's own :data:`_BLOCK_VALUES`."""
    return [1, FLOAT_TEXTS_MIN - 1, FLOAT_TEXTS_MIN + 1, 1024 * width, _BLOCK_VALUES]


def _past_block_edges(width):
    """0 to 3 rows past the first block edge of each of :func:`_block_settings`."""
    edges = sorted({0, *(max(1, values // width) for values in _block_settings(width))})
    return st.tuples(st.sampled_from(edges), st.integers(0, 3)).map(sum)


class TestColumnTable:
    """:class:`Columns` is written as the list of row dicts it stands for."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        columns=_column_tables(
            st.sampled_from([1, FLOAT_TEXTS_MIN - 1, FLOAT_TEXTS_MIN, 1024, 1025])
            | st.integers(1, 30) | st.integers(2049, 3100)
        ),
        indent=st.integers(0, 3),
    )
    def test_matches_the_reference_writers(self, columns, indent):
        dicts, csv_rows = _rows_of(columns)
        assert dumps_stable(columns, indent) == reference_dumps(dicts, indent)
        assert dumps_stable({"rows": columns}, indent) == reference_dumps({"rows": dicts}, indent)
        header = [f"c{i}" for i in range(len(csv_rows[0]))]
        text = "".join(_csv_parts(header, list(columns.values())))
        assert text == reference_csv(header, csv_rows)

    def test_streamed_pieces_join_to_the_text_one_block_each(self):
        rng = random.Random(5)
        n = 2 * rows_per_block(4) + 952  # two full blocks of 4-value rows, then 952 rows
        columns = Columns(
            step=np.arange(1, n + 1),
            p=np.array([[_fast_float(rng) for _ in range(3)] for _ in range(n)]),
        )
        dicts, csv_rows = _rows_of(columns)
        header = ["step", "p1", "p2", "p3"]
        blocks = block_rows(n, 4)
        assert len(blocks) == 3 and blocks[-1] == 952
        pieces = list(_parts({"rows": columns}))
        assert "".join(pieces) == reference_dumps({"rows": dicts})
        # The text before the table, a piece per block, the bracket, the rest.
        assert [piece.count('"step": ') for piece in pieces] == [0, *blocks, 0, 0]
        lines = list(_csv_parts(header, list(columns.values())))
        assert "".join(lines) == reference_csv(header, csv_rows)
        # The header goes with the first block.
        assert [piece.count("\n") for piece in lines] == [1 + blocks[0], *blocks[1:]]

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(columns=_column_tables(_past_block_edges))
    def test_the_text_does_not_depend_on_the_block_size(self, columns):
        arrays = list(columns.values())
        header = [f"c{i}" for i in range(_width(arrays))]
        texts = set()
        for values in _block_settings(_width(arrays)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("bellstat.cli._BLOCK_VALUES", values)
                texts.add((dumps_stable({"rows": columns}), "".join(_csv_parts(header, arrays))))
        assert len(texts) == 1

    def test_no_rows_is_an_empty_list(self):
        empty = Columns(a=np.empty(0), b=np.empty((0, 3)))
        assert dumps_stable(empty) == "[]"
        assert dumps_stable({"a": empty}) == '{\n  "a": []\n}'
        assert "".join(_csv_parts(("a",), list(empty.values()))) == "a\n"

    def test_non_finite_in_an_array_column_of_a_late_block(self, monkeypatch, capsys):
        probabilities = np.full((2000, 8), 0.125)
        probabilities[1499, 5] = math.nan
        # One array column whose late block holds FLOAT_TEXTS_MIN values,
        # the fewest that float_texts formats, with its NaN in the last row.
        fast = np.full((1024 + FLOAT_TEXTS_MIN, 1), 0.375)
        fast[-1, 0] = math.nan
        # A 1-D column, one number per row, with its NaN in the second block.
        theta = np.full(2000, 0.25)
        theta[1499] = math.nan
        for column in (probabilities, fast, theta):
            steps = Columns(step=np.arange(1, len(column) + 1), conditional_probabilities=column)
            with pytest.raises(ValidationError, match="non-finite"):
                dumps_stable({"steps": steps})
            fake = Command(
                help="", inputs=COMMANDS["exact"].inputs,
                run=lambda config: {"steps": steps}, csv_header=("step",),
                csv=lambda header, results: _csv_parts(header, list(results["steps"].values())),
            )
            monkeypatch.setitem(COMMANDS, "exact", fake)
            for fmt in ("json", "csv"):
                assert main(["exact", "--config", "wigner-uniform", "--format", fmt]) == 2
                out, err = capsys.readouterr()
                assert (out, err) == ("", "bellstat: cannot serialize non-finite number nan\n")


class TestByteMatrix:
    """Blocks of numbers only, from :data:`FLOAT_TEXTS_MIN` values up, are
    written as one byte matrix; the bytes are those of the ``%`` fill."""

    KEY = "100% of %s: ö"

    def table(self, n, **extra):
        rng = random.Random(n)
        return Columns(
            {self.KEY: np.array([[_fast_float(rng) for _ in range(8)] for _ in range(n)])},
            step=np.arange(1, n + 1), flag=np.arange(n) % 3 == 0, **extra,
        )

    # Ten values a row: FLOAT_TEXTS_MIN // 10 rows are below FLOAT_TEXTS_MIN
    # values, one row more is not.
    @pytest.mark.parametrize("n", [1, FLOAT_TEXTS_MIN // 10, FLOAT_TEXTS_MIN // 10 + 1, 1025])
    def test_a_key_with_percent_signs_and_non_ascii_text(self, n):
        for columns in (self.table(n), self.table(n, q=np.full(n, 0.5))):
            dicts, csv_rows = _rows_of(columns)
            assert dumps_stable({"rows": columns}, 1) == reference_dumps({"rows": dicts}, 1)
            header = [f"c{i}" for i in range(len(csv_rows[0]))]
            text = "".join(_csv_parts(header, list(columns.values())))
            assert text == reference_csv(header, csv_rows)

    def test_which_blocks_take_the_matrix(self, monkeypatch):
        sent = []  # the rows of each block that _blocks sends to the byte matrix
        def recorded(block, *args):
            sent.append(len(block[0]))
            return _matrix_text(block, *args)
        monkeypatch.setattr("bellstat.cli._matrix_text", recorded)
        def taken(columns):
            sent.clear()
            header = [f"c{i}" for i in range(len(columns))]
            rows = zip(*(np.asarray(column).tolist() for column in columns))
            assert "".join(_csv_parts(header, columns)) == reference_csv(header, rows)
            return sent == [len(columns[0])]
        n = FLOAT_TEXTS_MIN // 2
        numbers = [np.arange(n), np.full(n, 0.25)]
        assert taken(numbers)
        assert taken([numbers[0], np.ones(n, bool)])
        assert not taken([column[:-1] for column in numbers])  # too few
        sent.clear()
        for other in (np.full(n, np.nan), np.ones(n, np.float32), np.ones(n, object)):
            with pytest.raises(ValidationError, match="cannot serialize"):
                _csv_parts(("a", "b"), [numbers[0], other])
        assert sent == []


class _Pieces(io.StringIO):
    """A stdout that keeps each piece written to it."""

    def __init__(self):
        super().__init__()
        self.pieces = []

    def write(self, piece):
        self.pieces.append(piece)
        return super().write(piece)


def _csv_row(command, row):
    """A scan point's or a drain step's CSV cells, from its JSON row."""
    if command == "quantum":
        return [row["theta_deg"], row["lhs"], row["rhs"], row["violated"]]
    return [row["step"], row["population"], *row["conditional_probabilities"], *row["remaining"]]


def _fake_exact(monkeypatch, results, csv_columns):
    """Make ``exact`` (run with ``--config wigner-uniform``) report ``results``
    and write the arrays ``csv_columns`` as its CSV rows."""
    fake = Command(
        help="", inputs=COMMANDS["exact"].inputs, run=lambda config: results,
        csv_header=tuple(f"c{i}" for i in range(len(csv_columns))),
        csv=lambda header, results: _csv_parts(header, csv_columns),
    )
    monkeypatch.setitem(COMMANDS, "exact", fake)


def _late(value, n=2000, at=1500):
    """A float64 column of ``n`` halves with ``value`` in row ``at``, in the second block."""
    column = np.full(n, 0.5)
    column[at] = value
    return column


class TestStreamedReport:
    """:func:`main` writes a report while it is made, one piece per block of
    rows, and writes nothing when the report fails."""

    STEPS = Columns(step=np.arange(1, 2001), p=np.full((2000, 3), 0.25))

    # name -> (results, CSV columns).  A CSV column is an array, so the
    # CSV of a value after the table is a column of no kind.
    FAILING = {
        "nan after the table": (
            {"steps": STEPS, "z": math.nan}, [*STEPS.values(), _late(math.nan)],
        ),
        "unserializable value after the table": (
            {"steps": STEPS, "z": object()}, [*STEPS.values(), _late(-math.inf)],
        ),
        "float32 column": (
            {"steps": Columns(STEPS, q=np.full(2000, 0.5, np.float32))},
            [*STEPS.values(), np.full(2000, 0.5, np.float32)],
        ),
        "object column": (
            {"steps": Columns(STEPS, q=np.full(2000, 0.5, object))},
            [*STEPS.values(), np.full(2000, 0.5, object)],
        ),
        "late nan in a float64 column": (
            {"steps": Columns(STEPS, q=_late(math.nan))}, [*STEPS.values(), _late(math.nan)],
        ),
    }

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("name", FAILING)
    def test_exit_2_writes_nothing(self, name, fmt, monkeypatch, capsys, tmp_path):
        _fake_exact(monkeypatch, *self.FAILING[name])
        argv = ["exact", "--config", "wigner-uniform", "--format", fmt]
        target = tmp_path / f"report.{fmt}"
        for dest in ([], ["--out", str(target)]):
            assert main(argv + dest) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("bellstat: cannot serialize ") and err.count("\n") == 1
            assert not target.exists()

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        columns=_column_tables(st.sampled_from([1, 1024, 1025]) | st.integers(2049, 3100)),
        fmt=st.sampled_from(["json", "csv"]),
    )
    def test_pieces_join_to_the_emitted_report(self, columns, fmt):
        reports, out = [], _Pieces()
        with pytest.MonkeyPatch.context() as patch:
            _fake_exact(patch, {"rows": columns, "z": 1}, list(columns.values()))
            patch.setattr("bellstat.cli.run", lambda *a, **k: reports.append(run(*a, **k)) or reports[-1])
            patch.setattr(sys, "stdout", out)
            assert main(["exact", "--config", "wigner-uniform", "--format", fmt]) == 0
            assert "".join(out.pieces) == emit(reports[0], fmt)
        n = len(next(iter(columns.values())))
        blocks = block_rows(n, _width(columns.values()))
        if fmt == "json":
            # Each row opens at results.rows' row indent; no piece holds two blocks.
            rows = [piece.count("\n      {") for piece in out.pieces]
            assert [r for r in rows if r] == blocks
        else:
            assert [piece.count("\n") for piece in out.pieces] == [1 + blocks[0], *blocks[1:]]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("command, width", [("quantum", 4), ("drain", 18)])
    def test_a_report_at_a_block_edge(self, command, width, offset, fmt, monkeypatch, tmp_path):
        """A scan (4 values a row) and a drain (18) of one row less, as many
        rows as, and one row more than a block holds: the pieces are the
        blocks, and the text is the one the recursive writers give."""
        n = rows_per_block(width) + offset
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"axes_spacing_deg": 179, "steps": n, "samples": 2000} if command == "quantum"
            else {"table": [n - 7, 1, 1, 1, 1, 1, 1, 1]}
        ))
        out = _Pieces()
        monkeypatch.setattr(sys, "stdout", out)
        assert main([command, "--config", str(config), "--format", fmt]) == 0
        text = report = "".join(out.pieces)
        if fmt == "csv":  # the rows, from the JSON report
            assert main([command, "--config", str(config), "--out", str(tmp_path / "r.json")]) == 0
            report = (tmp_path / "r.json").read_text(encoding="utf-8")
        doc = json.loads(report)
        table = doc["results"]["scan" if command == "quantum" else "steps"]
        assert len(table) == n
        blocks = block_rows(n, width)
        if fmt == "json":
            assert text == reference_dumps(doc) + "\n"
            rows = [piece.count("\n      {") for piece in out.pieces]
            assert [r for r in rows if r] == blocks
        else:
            header = COMMANDS[command].csv_header
            assert text == reference_csv(header, (_csv_row(command, row) for row in table))
            assert [piece.count("\n") for piece in out.pieces] == [1 + blocks[0], *blocks[1:]]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", [
        ["exact", "--table", "1,2,3,4,5,6,7,8"],
        ["simulate", "--table", "2,1,1,1,1,1,1,1", "--samples", "5000"],
        ["entropy", "--omegas", "0.5,0.5,0.5,0.5,0.5,0.5,0.5,2"],
        ["counterexample", "--samples", "200"],
    ], ids=lambda argv: argv[0])
    def test_a_report_without_a_table_is_one_piece(self, argv, fmt, monkeypatch):
        out = _Pieces()
        monkeypatch.setattr(sys, "stdout", out)
        assert main([*argv, "--format", fmt]) == 0
        assert len(out.pieces) == 1


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestLargeReportBytes:
    """SHA-256 of the ``config``+``results`` JSON (``meta`` dropped) and of
    the CSV of two large reports.  The drain's were taken from the recursive
    writer that the template writer replaced; the quantum report's from the
    scan that evaluates the singlet formula at each step's nominal angles,
    its JSON re-pinned for the multinomial singlet sampler."""

    CASES = {
        "quantum-20000-steps": (
            "quantum", {"axes_spacing_deg": 179, "steps": 20_000, "samples": 10_000, "seed": 3},
            "d2e9307a0646964a15e2d015a0fda2b04440b9c10d4543982881e787aef46350",
            "ddfc03f3d7e2cbf53660a1520c63c8628cd5f67be177f311dad54119eaaa834d",
        ),
        "drain-8000-pairs": (
            "drain", {"table": [1920, 36, 1440, 1040, 200, 2560, 4, 800], "seed": 7},
            "e5f3ab3ba649ac06d83ccf709a0723247ebbe37464b93f6272e6bd7d785aae08",
            "5fb9ebcafb094ead05b8e4a79b5f99b57da0b0ba1cac3aa869fde85261f31fcf",
        ),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_report_bytes_are_pinned(self, name):
        command, overrides, json_digest, csv_digest = self.CASES[name]
        report = run(resolve_config(command, None, overrides))
        text = emit(report, "json")
        doc = json.loads(text)
        assert text == dumps_stable(doc) + "\n"
        assert sha256(dumps_stable({"config": doc["config"], "results": doc["results"]})) == json_digest
        assert sha256(emit(report, "csv")) == csv_digest


class TestPresets:
    def test_all_presets_load(self):
        for name in PRESET_NAMES:
            data = load_preset(name)
            assert "command" in data

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValidationError):
            load_preset("wigner-nonuniform")

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_run_clean(self, name):
        data = load_preset(name)
        overrides = {"samples": 2000} if data["command"] == "quantum" else {}
        config = resolve_config(data["command"], name, overrides)
        report = run(config)
        assert report["results"]

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_set_only_keys_their_command_reads(self, name):
        data = load_preset(name)
        keys = set(data) - {"command", "format", "out"}
        assert any(keys <= form for form in COMMANDS[data["command"]].inputs)

    def test_marble_bag_preset_drains_to_certainty(self):
        config = resolve_config("drain", "marble-bag", {})
        report = run(config)
        assert report["results"]["final_conditional_probability"] == 1.0
        assert len(report["results"]["steps"]["step"]) == report["results"]["initial_total"]


class TestCommandLine:
    def test_success_exit_code_and_schema(self):
        result = cli("exact", "--table", "1,1,1,1,1,1,1,1")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert set(doc) == {"config", "results", "meta"}
        assert doc["meta"]["schema"] == "bellstat-report/1"

    def test_validation_failure_exits_2(self):
        result = cli("exact", "--table", "1,1,-1,1,1,1,1,1")
        assert result.returncode == 2
        assert "nonnegative" in result.stderr

    def test_unknown_command_exits_2(self):
        result = cli("entangle")
        assert result.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "--samples", "x"], ["exact", "--seed", "1.5"], ["exact", "--workers", "x"],
        ["exact", "--no-such-flag"], ["entangle"], [],
    ])
    def test_an_argv_argparse_rejects_exits_2_with_one_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bellstat: ") and captured.err.count("\n") == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["--help"])
        assert exited.value.code == 0
        assert "commands:" in capsys.readouterr().out

    def test_unwritable_output_exits_3(self):
        result = cli(
            "exact", "--table", "1,1,1,1,1,1,1,1", "--out", "/nonexistent-dir/report.json"
        )
        assert result.returncode == 3

    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "report.json"
        result = cli("exact", "--table", "1,1,1,1,1,1,1,1", "--out", str(target))
        assert result.returncode == 0
        assert result.stdout == ""
        doc = json.loads(target.read_text())
        assert doc["results"]["wigner"]["holds"] is True

    def test_in_process_main_matches_subprocess(self, capsys):
        assert main(["exact", "--table", "1,1,1,1,1,1,1,1"]) == 0
        captured = json.loads(capsys.readouterr().out)
        sub = json.loads(cli("exact", "--table", "1,1,1,1,1,1,1,1").stdout)
        assert captured["config"] == sub["config"]
        assert captured["results"] == sub["results"]

    def test_identical_configs_are_byte_identical_ignoring_meta(self):
        args = ("simulate", "--table", "1,1,1,1,1,1,1,1", "--samples", "5000", "--seed", "3")
        a = json.loads(cli(*args).stdout)
        b = json.loads(cli(*args).stdout)
        assert dumps_stable(a["config"]) == dumps_stable(b["config"])
        assert dumps_stable(a["results"]) == dumps_stable(b["results"])

    def test_a_reused_parser_leaks_nothing(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        assert main(["simulate", "--samples", "many"]) == 2
        assert capsys.readouterr().err == "bellstat: argument --samples: invalid int value: 'many'\n"
        args = ["simulate", "--table", "2,1,1,1,1,1,1,1", "--samples", "3000"]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main([*args, "--seed", "5", "--workers", "3", "--out", str(first)]) == 0
        assert main([*args, "--out", str(second)]) == 0
        capsys.readouterr()
        assert json.loads(first.read_text())["config"]["seed"] == 5
        doc = json.loads(second.read_text())
        assert doc["config"]["seed"] == 42
        assert doc["meta"]["workers"] == 1
        fresh = json.loads(cli(*args).stdout)  # a new process: its parser's first call
        for section in ("config", "results"):
            assert dumps_stable(doc[section]) == dumps_stable(fresh[section])

    def test_workers_do_not_change_results(self):
        base = ("simulate", "--table", "2,1,1,1,1,1,1,1", "--samples", "70000", "--seed", "5")
        a = json.loads(cli(*base, "--workers", "1").stdout)
        b = json.loads(cli(*base, "--workers", "4").stdout)
        assert dumps_stable(a["results"]) == dumps_stable(b["results"])
        assert a["meta"]["workers"] == 1
        assert b["meta"]["workers"] == 4
