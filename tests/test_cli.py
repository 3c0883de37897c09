"""Tests for the command-line front end, config resolution, and emission."""

import contextlib
import hashlib
import io
import json
import math
import random
import struct
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bellstat import ValidationError
from bellstat.cli import (
    COMMANDS,
    MAX_ROWS,
    MAX_SAMPLES,
    Columns,
    Command,
    RunReport,
    _csv_lines,
    dumps_stable,
    emit,
    main,
    resolve_config,
    run,
)
from bellstat.populations import AxisTriple, PopulationTable
from bellstat.presets import PRESET_NAMES, load_preset


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
        config = resolve_config("exact", str(path), {})
        assert config.seed == 7
        assert config.table == PopulationTable.from_counts((2, 0, 0, 0, 0, 0, 0, 0))

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"table": [1] * 8, "seed": 7, "samples": 10}))
        config = resolve_config("exact", str(path), {"seed": 11, "samples": None})
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
        with pytest.raises(ValidationError):
            resolve_config("simulate", str(path), {})

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
        assert len(run(resolve_config("quantum", str(path), {})).results["scan"]["lhs"]) == 1

    def test_quantum_needs_geometry(self):
        with pytest.raises(ValidationError):
            resolve_config("quantum", None, {})

    def test_exact_needs_table(self):
        with pytest.raises(ValidationError):
            resolve_config("exact", None, {})

    def test_entropy_accepts_table_with_policy(self):
        config = resolve_config(
            "entropy", None, {"table": "1,1,1,1,1,1,1,1", "policy": "proportional"}
        )
        report = run(config)
        assert report.results["omegas"] == [1.0] * 8

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": -3},
            {"epsilon": -1.0},
            {"epsilon": math.nan},
            {"format": "yaml"},
            {"axes_spacing_deg": 180.0},
            {"axes_spacing_deg": 0.0},
        ],
    )
    def test_bad_scalars_rejected(self, overrides):
        base = {"table": "1,1,1,1,1,1,1,1"}
        with pytest.raises(ValidationError):
            resolve_config("exact", None, {**base, **overrides})


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
        ],
    )
    def test_sample_and_row_limits(self, capsys, argv, needle):
        self.exits_2(capsys, argv, needle)

    def test_steps_limit(self, capsys, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"axes_spacing_deg": 60, "steps": MAX_ROWS + 1}))
        argv = ["quantum", "--config", str(path)]
        self.exits_2(capsys, argv, f"steps must be at most {MAX_ROWS}")

    def test_limits_are_inclusive(self):
        overrides = {"axes_spacing_deg": 60.0, "samples": MAX_SAMPLES, "steps": MAX_ROWS}
        config = resolve_config("quantum", None, overrides)
        assert (config.samples, config.steps) == (MAX_SAMPLES, MAX_ROWS)

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
# A config every command can run; the generated changes are merged over it.
_RUNNABLE = st.fixed_dictionaries({
    "table": _COUNTS,
    "samples": st.integers(1, 1000),
    "axes_spacing_deg": st.floats(1, 179),
    "steps": st.integers(1, 100),
})
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
        command=st.sampled_from(list(COMMANDS)),
        command_first=st.booleans(),
        flags=_some(_FLAG_VALUES),
        config_ref=st.just("FILE") | st.sampled_from([None, "no-such-preset", ".", *PRESET_NAMES]),
        config=st.tuples(_RUNNABLE | st.just({}), _some(_CONFIG_VALUES)).map(
            lambda pair: {**pair[0], **pair[1]}
        ),
    )
    def test_main_exits_0_2_or_3_and_never_raises(
        self, tmp_path, monkeypatch, command, command_first, flags, config_ref, config
    ):
        """Every argv and config file ends in exit 0, or in exit 2/3 with one
        ``bellstat:`` line; argparse's own exit 2 for a flag it cannot parse
        comes as ``SystemExit``."""
        monkeypatch.chdir(tmp_path)  # relative ``out`` names land here
        if config_ref == "FILE":
            config_ref = str(tmp_path / "exp.json")
            (tmp_path / "exp.json").write_text(json.dumps(config))
        if config_ref is not None:
            flags["--config"] = config_ref
        options = [part for flag, value in flags.items() for part in (flag, value)]
        argv = [command, *options] if command_first else [*options, command]
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return
        assert code in (0, 2, 3)
        if code == 0:
            assert err.getvalue() == ""
        else:
            assert err.getvalue().startswith("bellstat: ")
            assert err.getvalue().count("\n") == 1


class TestRun:
    def test_exact_uniform(self):
        config = resolve_config("exact", None, {"table": "1,1,1,1,1,1,1,1"})
        report = run(config)
        wigner = report.results["wigner"]
        assert wigner["lhs"] == 0.25
        assert wigner["rhs"] == 0.5
        assert wigner["holds"] is True

    def test_quantum_60(self):
        config = resolve_config(
            "quantum", None, {"axes_spacing_deg": 60.0, "samples": 1000}
        )
        scan = run(config).results["scan"]
        (lhs,), (rhs,), (violated,) = scan["lhs"], scan["rhs"], scan["violated"]
        assert lhs == pytest.approx(0.375, abs=1e-12)
        assert rhs == pytest.approx(0.25, abs=1e-12)
        assert violated is True

    def test_quantum_explicit_axes(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(
            json.dumps({"axes": {"a": [0, 0, 1], "b": [0, 1, 0], "c": [1, 0, 0]}, "samples": 100})
        )
        config = resolve_config("quantum", str(path), {})
        (theta_deg,) = run(config).results["scan"]["theta_deg"]
        assert theta_deg == pytest.approx(90.0, abs=1e-9)

    @pytest.mark.parametrize("spacing_deg", [30.0, 60.0, 90.0, 135.0])
    def test_explicit_axes_match_axes_spacing(self, spacing_deg):
        axes = AxisTriple.coplanar(math.radians(spacing_deg))
        explicit = run(resolve_config("quantum", None, {"axes": axes, "samples": 100}))
        spaced = run(
            resolve_config("quantum", None, {"axes_spacing_deg": spacing_deg, "samples": 100})
        )
        a, b = explicit.results["scan"], spaced.results["scan"]
        for key in ("lhs", "rhs", "violated"):
            assert len(a[key]) == 1 and a[key] == b[key]
        assert a["theta_deg"] == pytest.approx(b["theta_deg"], abs=1e-9)

    def test_drain_reaches_certainty(self):
        config = resolve_config("drain", None, {"table": "2,1,0,0,0,0,0,0"})
        report = run(config)
        assert report.results["final_conditional_probability"] == 1.0
        assert report.results["steps"]["step"] == [1, 2, 3]

    def test_simulate_estimates_carry_references(self):
        config = resolve_config(
            "simulate", None, {"table": "1,1,1,1,1,1,1,1", "samples": 20_000}
        )
        report = run(config)
        for est in report.results["estimates"]:
            assert est["reference"] == 0.25
            assert abs(est["p_hat"] - 0.25) <= 4 * est["stderr"]
        assert report.results["empirical_wigner"]["holds"] is True

    def test_counterexample_found_with_default_budget(self):
        config = resolve_config("counterexample", None, {"samples": 10_000})
        report = run(config)
        assert report.results["found"] is True
        assert report.results["report"]["holds"] is False
        assert report.results["report"]["equal_multiplicity_precondition"] is False

    def test_entropy_reports_all_three_inequalities(self):
        config = resolve_config("entropy", None, {"omegas": "1,1,10,10,1,1,1,1"})
        report = run(config)
        assert report.results["multiplicity_inequality"]["holds"] is False
        assert report.results["product_inequality"]["holds"] is True
        assert report.results["entropy_inequality"]["holds"] is True


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
        assert parsed["results"]["omegas"] == report.results["omegas"]
        assert parsed["results"]["report"]["margin"] == report.results["report"]["margin"]

    def test_empty_trajectory_gives_header_only_csv(self):
        report = RunReport(
            config={"command": "drain"},
            results={
                "steps": Columns(
                    step=[], population=[],
                    conditional_probabilities=np.empty((0, 8)),
                    remaining=np.empty((0, 8), dtype=np.int64),
                ),
                "initial_total": 0,
                "final_conditional_probability": None,
            },
            meta={},
        )
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
_KEYS = st.sampled_from(["a", "b", "theta", "%s", "%", "é", ""])


class _Int(int):
    """An int subclass: the writers format it value by value, not in the template."""


def _float(rng):
    """A finite float from any binade, signed zeros and subnormals included."""
    x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
    return x if math.isfinite(x) else rng.random()


_VALUES = {
    "float": _float,
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
        fake = Command(help="", run=lambda config: results, csv_header=(), csv_columns=list)
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
            help="", run=lambda config: {"steps": steps}, csv_header=("step",),
            csv_columns=lambda results: [
                [s["step"] for s in results["steps"]],
                np.array([s["conditional_probabilities"] for s in results["steps"]]),
            ],
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
    """A header and rows whose columns are floats, ints or bools, with a few
    cells replaced by a value of another type; up to two blocks of rows."""
    kinds = draw(st.lists(st.sampled_from(sorted(_VALUES)), min_size=1, max_size=6))
    n = draw(st.integers(0, 20) | st.integers(1020, 2100))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [[_VALUES[kind](rng) for kind in kinds] for _ in range(n)]
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        row = rows[draw(st.integers(0, n - 1))]
        row[draw(st.integers(0, len(kinds) - 1))] = draw(st.sampled_from(_ODD_CELLS))
    return [f"c{i}" for i in range(len(kinds))], rows


def _columns_of(rows):
    """The columns of equal-length CSV rows."""
    return [list(column) for column in zip(*rows)]


class TestCsvWriter:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(table=_csv_tables())
    def test_matches_the_per_cell_writer(self, table):
        header, rows = table
        assert _csv_lines(header, _columns_of(rows)) == reference_csv(header, rows)

    @pytest.mark.parametrize("value", _NON_FINITE, ids=repr)
    def test_non_finite_numbers_rejected(self, value):
        rows = [[1, 0.5, True]] * 1500
        rows[1200] = [2, value, False]
        with pytest.raises(ValidationError, match="non-finite"):
            _csv_lines(("a", "b", "c"), _columns_of(rows))


_COLUMN_KINDS = ("float", "int", "bool", "float array", "int array")


@st.composite
def _column_tables(draw, sizes):
    """A :class:`Columns` table with list columns of floats, ints or bools and
    2-D float64 and int64 array columns, like the drain's and the scan's."""
    n = draw(sizes)
    width = draw(st.integers(1, 9))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kinds = draw(st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=5))
    keys = draw(st.lists(_KEYS, min_size=len(kinds), max_size=len(kinds), unique=True))
    def column(kind):
        if kind == "float array":
            return np.array([[_float(rng) for _ in range(width)] for _ in range(n)])
        if kind == "int array":
            return np.array([[rng.randint(-2**63, 2**63 - 1) for _ in range(width)] for _ in range(n)])
        return [_VALUES[kind](rng) for _ in range(n)]
    return Columns((key, column(kind)) for key, kind in zip(keys, kinds))


def _rows_of(columns):
    """The row dicts and the CSV rows that a column table stands for."""
    lists = {k: c.tolist() if isinstance(c, np.ndarray) else c for k, c in columns.items()}
    n = len(next(iter(lists.values())))
    dicts = [{k: c[i] for k, c in lists.items()} for i in range(n)]
    csv_rows = [
        [x for c in lists.values() for x in (c[i] if isinstance(c[i], list) else [c[i]])]
        for i in range(n)
    ]
    return dicts, csv_rows


class TestColumnTable:
    """:class:`Columns` is written as the list of row dicts it stands for."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        columns=_column_tables(
            st.sampled_from([1, 1024, 1025]) | st.integers(1, 30) | st.integers(2049, 3100)
        ),
        indent=st.integers(0, 3),
    )
    def test_matches_the_reference_writers(self, columns, indent):
        dicts, csv_rows = _rows_of(columns)
        assert dumps_stable(columns, indent) == reference_dumps(dicts, indent)
        assert dumps_stable({"rows": columns}, indent) == reference_dumps({"rows": dicts}, indent)
        header = [f"c{i}" for i in range(len(csv_rows[0]))]
        assert _csv_lines(header, list(columns.values())) == reference_csv(header, csv_rows)

    def test_no_rows_is_an_empty_list(self):
        empty = Columns(a=[], b=np.empty((0, 3)))
        assert dumps_stable(empty) == "[]"
        assert dumps_stable({"a": empty}) == '{\n  "a": []\n}'
        assert _csv_lines(("a",), list(empty.values())) == "a\n"

    def test_numpy_scalars_in_a_list_column_are_rejected(self):
        with pytest.raises(ValidationError, match="cannot serialize int64"):
            dumps_stable(Columns(a=[1, np.int64(2)]))

    def test_non_finite_in_an_array_column_of_a_late_block(self, monkeypatch, capsys):
        probabilities = np.full((2000, 8), 0.125)
        probabilities[1499, 5] = math.nan
        steps = Columns(step=list(range(1, 2001)), conditional_probabilities=probabilities)
        with pytest.raises(ValidationError, match="non-finite"):
            dumps_stable({"steps": steps})
        fake = Command(
            help="", run=lambda config: {"steps": steps}, csv_header=("step",),
            csv_columns=lambda results: list(results["steps"].values()),
        )
        monkeypatch.setitem(COMMANDS, "exact", fake)
        for fmt in ("json", "csv"):
            assert main(["exact", "--config", "wigner-uniform", "--format", fmt]) == 2
            err = capsys.readouterr().err
            assert err == "bellstat: cannot serialize non-finite number nan\n"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestLargeReportBytes:
    """SHA-256 of the ``config``+``results`` JSON (``meta`` dropped) and of
    the CSV of two large reports, taken from the per-step scan and the
    recursive writer that the float kernel and the template writer replaced."""

    CASES = {
        "quantum-20000-steps": (
            "quantum", {"axes_spacing_deg": 179, "steps": 20_000, "samples": 10_000, "seed": 3},
            "28752d0d5d383cd450b0aca9a388f68aff950d10d4dea295e68de202a6e7076a",
            "876b60a3d8d9ea3368f25ae40f4684d48280b5ad1098362eddd35b80fac3b59c",
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
        assert report.results

    def test_marble_bag_preset_drains_to_certainty(self):
        config = resolve_config("drain", "marble-bag", {})
        report = run(config)
        assert report.results["final_conditional_probability"] == 1.0
        assert len(report.results["steps"]["step"]) == report.results["initial_total"]


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

    def test_workers_do_not_change_results(self):
        base = ("simulate", "--table", "2,1,1,1,1,1,1,1", "--samples", "70000", "--seed", "5")
        a = json.loads(cli(*base, "--workers", "1").stdout)
        b = json.loads(cli(*base, "--workers", "4").stdout)
        assert dumps_stable(a["results"]) == dumps_stable(b["results"])
        assert a["meta"]["workers"] == 1
        assert b["meta"]["workers"] == 4
