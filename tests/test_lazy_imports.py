"""numpy, ``reservoir`` and ``quantum`` load on first use, not on import,
and the commands that draw nothing never load them.

Each check that depends on what a process has imported runs in a child
interpreter, since this test process has long since imported numpy.
"""

import importlib
import inspect
import json
import subprocess
import sys
import textwrap

import pytest

import bellstat
from bellstat import cli
from bellstat.cli import main

# Every public name of the package, by the submodule that defines it, in
# ``__all__`` order.
PUBLIC = {
    "errors": ["BellstatError", "ValidationError"],
    "populations": [
        "TOL", "AXIS_LABELS", "Axis", "AxisTriple", "EmpiricalEstimate", "ExactProbability",
        "InequalityReport", "PairOutcome", "PopulationTable", "SignTriple", "Term",
        "WIGNER_OUTCOMES", "angle_between", "exact_probability", "outcome_populations",
        "population_pair_partition", "population_signs", "wigner_check",
        "wigner_check_probabilities",
    ],
    "entropy": [
        "BOLTZMANN_SI", "Entropy", "Multiplicity", "MultiplicityVector", "combine",
        "dice_multiplicity", "dice_probability", "entropy_from_multiplicity",
        "entropy_inequality", "entropy_ratios", "find_multiplicity_counterexample",
        "gibbs_entropy", "joint_multiplicity", "multiplicity_from_entropy",
        "multiplicity_inequality", "multiplicity_probability", "product_inequality",
    ],
    "reservoir": [
        "CHUNK_SIZE", "DivergenceReport", "ReservoirSpec", "depletion_trajectory",
        "empirical_probability", "finite_vs_infinite_divergence",
    ],
    "quantum": [
        "ScanPoint", "SingletPrediction", "SingletSampleCounts", "WignerScan",
        "quantum_wigner_scan", "singlet_prediction", "singlet_prediction_statevector",
        "singlet_sample",
    ],
}

# The cli attributes that bench/spans.py wraps with setattr (SPANS and COUNTS).
TRACED = (
    "main", "build_parser", "resolve_config", "run", "emit", "sample",
    "empirical_probability", "depletion_trajectory", "exact_probability", "wigner_check",
    "wigner_check_probabilities", "quantum_wigner_scan", "singlet_sample",
    "find_multiplicity_counterexample", "multiplicity_inequality", "product_inequality",
    "entropy_inequality", "entropy_ratios", "singlet_prediction",
)

DRAIN = ["drain", "--table", "300,1,0,200,500,0,1,98"]  # 1,100 steps: two blocks


def child(code, *args):
    """Run ``code`` in a fresh interpreter with ``args``; it must exit 0."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *map(str, args)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return done


def quantum_argv(tmp_path):
    """A 1,100-step scan, two blocks of rows, from a config file."""
    path = tmp_path / "scan.json"
    path.write_text(json.dumps({"axes_spacing_deg": 179, "steps": 1100, "samples": 2000}))
    return ["quantum", "--config", str(path)]


def test_the_cheap_paths_import_no_numpy():
    child("""
        import contextlib, io, json, sys

        def no_numpy(step):
            assert "numpy" not in sys.modules, step

        import bellstat
        no_numpy("import bellstat")
        import bellstat.cli as cli
        no_numpy("import bellstat.cli")
        cli.resolve_config("exact", None, {"table": "1,1,1,1,1,1,1,1"})
        no_numpy("resolve_config")
        assert cli.main(["exact", "--table", "1,2,3"]) == 2
        no_numpy("an input error")
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                cli.main(["--help"])
            except SystemExit as exc:
                assert exc.code == 0
            else:
                raise AssertionError("--help returned")
        no_numpy("--help")
        reports = []
        for argv in (["exact", "--table", "1,1,1,1,1,1,1,1"],
                     ["entropy", "--table", "1,2,3,4,5,6,7,8", "--policy", "proportional"],
                     ["entropy", "--omegas", "0.5,0.5,0.5,0.5,0.5,0.5,0.5,2"]):
            for fmt in ("json", "csv"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert cli.main([*argv, "--format", fmt]) == 0, argv
                no_numpy(" ".join(argv + [fmt]))
                reports.append(out.getvalue())
        import numpy
        assert json.loads(reports[0])["meta"]["numpy_version"] == numpy.__version__
    """)


def test_the_singlet_sampler_needs_no_reservoir():
    child("""
        import sys
        from bellstat.populations import AxisTriple
        from bellstat.quantum import singlet_sample

        assert singlet_sample(AxisTriple.coplanar(1.0), 1000, seed=1).counts.sum() == 1000
        assert "bellstat.reservoir" not in sys.modules
    """)


@pytest.mark.parametrize("argv", [
    ["simulate", "--table", "1,1,1,1,1,1,1,1", "--samples", "10"],
    ["drain", "--table", "1,1,1,1,1,1,1,1"],
    ["quantum", "--axes-spacing", "60", "--samples", "1000"],
    ["counterexample", "--samples", "10"],
])
def test_a_command_that_draws_loads_numpy_first_in_a_fresh_process(argv):
    child("""
        import contextlib, io, sys
        import bellstat.cli as cli

        for fmt in ("json", "csv"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([*sys.argv[1:], "--format", fmt]) == 0, fmt
        assert "numpy" in sys.modules
    """, *argv)


def test_all_is_pinned():
    assert bellstat.__all__ == [n for names in PUBLIC.values() for n in names] + ["__version__"]


def test_every_public_name_resolves_in_a_fresh_process():
    child("""
        import importlib, json, sys

        public = json.loads(sys.argv[1])
        import bellstat
        listed = dir(bellstat)
        assert "numpy" not in sys.modules
        assert bellstat.quantum is sys.modules["bellstat.quantum"]  # the submodule too
        star = {}
        exec("from bellstat import *", star)
        for module, names in public.items():
            for name in names:
                assert name in listed, name
                value = getattr(bellstat, name)
                assert star[name] is value, name
                assert getattr(importlib.import_module("bellstat." + module), name) is value, name
        assert bellstat.reservoir.EmpiricalEstimate is bellstat.populations.EmpiricalEstimate
    """, json.dumps(PUBLIC))


def test_the_estimator_loads_without_numpy():
    """EmpiricalEstimate is pure Python, defined in populations: importing it
    from the package loads neither numpy nor reservoir."""
    child("""
        import sys
        from bellstat import EmpiricalEstimate

        assert EmpiricalEstimate.__module__ == "bellstat.populations"
        assert "numpy" not in sys.modules
        assert "bellstat.reservoir" not in sys.modules
    """)


@pytest.mark.parametrize("table", [bellstat._LAZY, cli._LAZY], ids=["bellstat", "cli"])
def test_each_lazy_name_is_defined_in_its_module(table):
    """A class or function in a lazy table is defined in the module the table
    loads for it, not only imported there."""
    for name, module in table.items():
        value = getattr(importlib.import_module(f"bellstat.{module}"), name)
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == f"bellstat.{module}", name


def test_traced_cli_names_resolve_before_any_run(tmp_path):
    """As bench/spans.py does: read each name, set a wrapper in its place,
    then run commands; the commands call the wrappers."""
    child("""
        import json, sys
        import bellstat.cli as cli

        names, drain, quantum = map(json.loads, sys.argv[1:])
        called = set()

        def wrap(name, fn):
            def wrapper(*args, **kwargs):
                called.add(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            setattr(cli, name, wrap(name, getattr(cli, name)))
        for argv in (drain, quantum):
            assert cli.main([*argv, "--out", "/dev/null"]) == 0, argv
        expected = {"main", "resolve_config", "run", "depletion_trajectory",
                    "quantum_wigner_scan", "singlet_sample", "singlet_prediction"}
        assert expected <= called, expected - called
    """, json.dumps(TRACED), json.dumps(DRAIN), json.dumps(quantum_argv(tmp_path)))


@pytest.mark.parametrize("name", ["depletion_trajectory", "quantum_wigner_scan"])
def test_a_wrapper_set_on_cli_is_what_the_command_calls(name, monkeypatch, tmp_path):
    argv = DRAIN if name == "depletion_trajectory" else quantum_argv(tmp_path)
    calls = []
    original = getattr(cli, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, wrapper)
    assert main([*argv, "--out", str(tmp_path / "report.json")]) == 0
    assert len(calls) == 1


def test_the_writer_works_before_any_command_runs(tmp_path):
    """dumps_stable of parsed drain and quantum reports and of a table of
    arrays, and the exact CSV from its rows, in a process that has run no
    command."""
    reports = []
    for name, argv, fmt in (("drain", DRAIN, "json"), ("quantum", quantum_argv(tmp_path), "json"),
                            ("exact", ["exact", "--table", "1,2,3,4,5,6,7,8"], "json"),
                            ("exact", ["exact", "--table", "1,2,3,4,5,6,7,8"], "csv")):
        path = tmp_path / f"{name}.{fmt}"
        assert main([*argv, "--format", fmt, "--out", str(path)]) == 0
        reports.append(path)
    child("""
        import json, pathlib, sys
        from bellstat.cli import COMMANDS, _csv_parts, dumps_stable

        drain, quantum, exact, exact_csv = (
            pathlib.Path(path).read_text(encoding="utf-8") for path in sys.argv[1:]
        )
        for text in (drain, quantum, exact):
            assert dumps_stable(json.loads(text)) + "\\n" == text
        command = COMMANDS["exact"]
        assert "".join(command.csv(command.csv_header, json.loads(exact)["results"])) == exact_csv
        import numpy as np
        from bellstat.cli import Columns
        table = Columns(n=np.arange(3), x=np.array([0.5, 1.5, 2.5]))
        rows = [{"n": n, "x": n + 0.5} for n in range(3)]
        assert dumps_stable({"t": table}) == dumps_stable({"t": rows})
        assert "".join(_csv_parts(("n", "x"), list(table.values()))) == "n,x\\n0,0.5\\n1,1.5\\n2,2.5\\n"
    """, *reports)


@pytest.mark.parametrize("argv, loaded, unloaded", [
    (["quantum", "--axes-spacing", "60", "--samples", "1000"], "quantum", "reservoir"),
    (["simulate", "--table", "1,1,1,1,1,1,1,1", "--samples", "10"], "reservoir", "quantum"),
    (["drain", "--table", "1,1,1,1,1,1,1,1"], "reservoir", "quantum"),
], ids=["quantum", "simulate", "drain"])
def test_a_command_that_draws_loads_only_its_module(argv, loaded, unloaded):
    """In a fresh process, quantum never imports reservoir, and simulate and
    drain never import quantum, in either format."""
    child("""
        import contextlib, io, sys
        import bellstat.cli as cli

        *argv, loaded, unloaded = sys.argv[1:]
        for fmt in ("json", "csv"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([*argv, "--format", fmt]) == 0, fmt
        assert "bellstat." + loaded in sys.modules
        assert "bellstat." + unloaded not in sys.modules, unloaded
    """, *argv, loaded, unloaded)


def test_a_name_loads_only_its_module():
    """Reading a cli name binds the names of its module and no other."""
    child("""
        import sys
        import bellstat.cli as cli

        cli.quantum_wigner_scan
        assert "bellstat.reservoir" not in sys.modules
        assert "singlet_sample" in vars(cli) and "sample" not in vars(cli)
        cli.sample
        assert "bellstat.reservoir" in sys.modules and "population_counts" in vars(cli)
    """)
