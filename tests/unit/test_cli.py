"""Unit tests for the CLI (the section 5 'prediction engine' binding)."""

import json

import pytest

from repro.cli import main
from repro.core import ReliabilityEvaluator
from repro.scenarios import local_assembly


@pytest.fixture
def local_file(tmp_path):
    path = tmp_path / "local.json"
    assert main(["export-scenario", "local", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture
def remote_file(tmp_path):
    path = tmp_path / "remote.json"
    assert main(["export-scenario", "remote", "-o", str(path)]) == 0
    return str(path)


class TestExportScenario:
    def test_writes_valid_json(self, local_file):
        from pathlib import Path

        data = json.loads(Path(local_file).read_text())
        assert data["schema"] == "repro/1"
        assert data["name"] == "local"

    def test_stdout_mode(self, capsys):
        assert main(["export-scenario", "shared-db"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["name"] == "shared-db"

    def test_unknown_scenario_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["export-scenario", "nonexistent"])
        assert excinfo.value.code == 2


class TestValidate:
    def test_valid_assembly(self, local_file, capsys):
        assert main(["validate", local_file]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_assembly_exits_nonzero(self, tmp_path, capsys):
        broken = {
            "schema": "repro/1",
            "name": "broken",
            "services": [
                {
                    "kind": "composite", "name": "app",
                    "interface": {"parameters": [{"name": "n"}]},
                    "flow": {
                        "formals": ["n"],
                        "states": [
                            {"name": "s",
                             "requests": [{"target": "missing",
                                           "actuals": {}}]}
                        ],
                        "transitions": [
                            {"source": "Start", "target": "s", "probability": 1},
                            {"source": "s", "target": "End", "probability": 1},
                        ],
                    },
                }
            ],
            "bindings": [],
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        assert main(["validate", str(path)]) == 1
        assert "error" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["validate", "/does/not/exist.json"]) == 1
        assert "error" in capsys.readouterr().err


class TestEvaluate:
    def test_matches_library(self, local_file, capsys):
        assert main(
            ["evaluate", local_file, "search",
             "--set", "elem=1", "list=500", "res=1"]
        ) == 0
        out = capsys.readouterr().out
        expected = ReliabilityEvaluator(local_assembly()).pfail(
            "search", elem=1, list=500, res=1
        )
        assert f"{expected:.9e}" in out

    def test_report_mode(self, local_file, capsys):
        assert main(
            ["evaluate", local_file, "search", "--report",
             "--set", "elem=1", "list=500", "res=1"]
        ) == 0
        out = capsys.readouterr().out
        assert "state" in out and "sort" in out

    def test_bad_binding_syntax(self, local_file, capsys):
        assert main(
            ["evaluate", local_file, "search", "--set", "elem"]
        ) == 10
        assert "name=value" in capsys.readouterr().err

    def test_non_numeric_binding(self, local_file, capsys):
        assert main(
            ["evaluate", local_file, "search", "--set", "elem=abc"]
        ) == 10

    def test_missing_actuals_reported(self, local_file, capsys):
        # EvaluationError maps to exit code 6 in the taxonomy
        assert main(["evaluate", local_file, "search"]) == 6
        assert "missing" in capsys.readouterr().err

    def test_fixed_point_flag_on_recursive_assembly(self, tmp_path, capsys):
        """Plain ``evaluate`` solves a recursive assembly's least fixed
        point; the ``--fixed-point`` flag that used to be needed is gone."""
        from repro.dsl import dump_assembly
        from repro.scenarios import recursive_assembly

        path = tmp_path / "recursive.json"
        path.write_text(dump_assembly(recursive_assembly()))
        assert main(["evaluate", str(path), "A", "--set", "size=1"]) == 0
        assert "Pfail(A) = 3.986049823e-03" in capsys.readouterr().out
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", str(path), "A", "--fixed-point", "--set", "size=1"])
        assert excinfo.value.code == 2
        assert "--fixed-point" in capsys.readouterr().err

    def test_report_prints_the_pfail_evaluate_prints(self, tmp_path, capsys):
        from repro.dsl import dump_assembly
        from repro.scenarios import recursive_assembly

        path = tmp_path / "recursive.json"
        path.write_text(dump_assembly(recursive_assembly()))
        assert main(["evaluate", str(path), "A", "--report", "--set", "size=1"]) == 0
        assert "Pfail = 3.986050e-03" in capsys.readouterr().out


class TestClosedForm:
    def test_derives_expression(self, local_file, capsys):
        assert main(["closed-form", local_file, "search"]) == 0
        out = capsys.readouterr().out
        assert "log2(list)" in out

    def test_symbolic_attributes(self, local_file, capsys):
        assert main(
            ["closed-form", local_file, "search", "--symbolic-attributes"]
        ) == 0
        assert "sort1::software_failure_rate" in capsys.readouterr().out


class TestSweepAndCompare:
    def test_sweep(self, local_file, capsys):
        assert main(
            ["sweep", local_file, "search", "list",
             "--from", "1", "--to", "1000", "--points", "5",
             "--set", "elem=1", "res=1"]
        ) == 0
        out = capsys.readouterr().out
        assert "reliability vs list" in out

    def test_all_quarantined_sweep_campaign_reports_not_crashes(
        self, local_file, capsys
    ):
        # every attempt of both units returns garbage: both quarantine
        code = main(
            ["sweep", local_file, "search", "list",
             "--from", "1", "--to", "100", "--points", "4",
             "--set", "elem=1", "res=1", "--units", "2", "--retries", "1",
             "--chaos", "corrupt@0x*,corrupt@1x*"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "0/2 units done" in captured.err
        assert captured.err.count("QUARANTINED") == 2
        assert "shape: ····" in captured.out

    def test_compare_reports_crossover(self, local_file, remote_file, capsys):
        assert main(
            ["compare", local_file, remote_file, "search", "list",
             "--from", "1", "--to", "1000", "--points", "30",
             "--set", "elem=1", "res=1"]
        ) == 0
        assert "ranking flips" in capsys.readouterr().out


class TestInvocationsAndSimulate:
    def test_invocations(self, local_file, capsys):
        assert main(
            ["invocations", local_file, "search",
             "--set", "elem=1", "list=500", "res=1"]
        ) == 0
        out = capsys.readouterr().out
        assert "cpu1" in out and "expected invocations" in out

    def test_simulate(self, local_file, capsys):
        assert main(
            ["simulate", local_file, "search", "--trials", "500",
             "--seed", "1", "--set", "elem=1", "list=500", "res=1"]
        ) == 0
        out = capsys.readouterr().out
        assert "Wilson" in out

    @pytest.mark.parametrize("bindings, message", [
        ([], "missing actual parameters ['elem', 'list', 'res']"),
        (["--set", "elem=1", "list=500", "res=1", "size=2"],
         "unknown actual parameters ['size']"),
    ])
    def test_simulate_names_bad_actuals_like_evaluate(
        self, local_file, capsys, bindings, message
    ):
        """``simulate`` refuses missing or unknown actuals with the
        evaluator's EvaluationError (exit 6), not a KeyError."""
        for command in (["simulate", "--trials", "50"], ["evaluate"]):
            argv = [command[0], local_file, "search", *command[1:], *bindings]
            assert main(argv) == 6
            err = capsys.readouterr().err
            assert f"error[EvaluationError]: service 'search': {message}" in err


class TestUncertainty:
    def test_reports_interval_and_contributions(self, remote_file, capsys):
        assert main(
            ["uncertainty", remote_file, "search",
             "--relative-std", "0.2", "--samples", "2000", "--seed", "1",
             "--set", "elem=1", "list=500", "res=1"]
        ) == 0
        out = capsys.readouterr().out
        assert "95% interval" in out
        assert "variance contributions" in out
        assert "net12::failure_rate" in out


class TestDescribe:
    def test_renders_assembly_and_flows(self, local_file, capsys):
        assert main(["describe", local_file]) == 0
        out = capsys.readouterr().out
        assert "assembly 'local'" in out
        assert "flow of 'search'" in out


class TestPerformance:
    def test_reports_duration_and_breakdown(self, local_file, capsys):
        assert main(
            ["performance", local_file, "search",
             "--set", "elem=1", "list=500", "res=1"]
        ) == 0
        out = capsys.readouterr().out
        assert "E[T](search)" in out
        assert "per-state breakdown" in out
        assert "sort" in out


class TestBatch:
    def test_multi_model_multi_point(self, local_file, remote_file, capsys):
        assert main(
            ["batch", "search", "--model", local_file, "--model", remote_file,
             "--at", "elem=1", "list=500", "res=1",
             "--at", "elem=1", "list=1000", "res=1"]
        ) == 0
        out = capsys.readouterr().out
        # 2 models x 2 points, plus the stats footer
        assert out.count("Pfail = ") == 4
        assert "4 evaluations over 2 plans" in out
        expected = ReliabilityEvaluator(local_assembly()).pfail(
            "search", elem=1, list=500, res=1
        )
        assert f"{expected:.9e}" in out

    def test_parallel_matches_serial_output(self, local_file, capsys):
        argv = ["batch", "search", "--model", local_file,
                "--at", "elem=1", "list=500", "res=1",
                "--at", "elem=1", "list=1000", "res=1"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        # identical per-entry lines; only the stats footer may differ
        assert (
            [l for l in serial.splitlines() if "Pfail" in l]
            == [l for l in parallel.splitlines() if "Pfail" in l]
        )

    def test_default_point_from_domains(self, local_file, capsys):
        assert main(["batch", "search", "--model", local_file]) == 0
        assert "Pfail = " in capsys.readouterr().out

    def test_entry_failure_sets_exit_code(self, local_file, capsys):
        assert main(
            ["batch", "search", "--model", local_file,
             "--at", "elem=1", "list=nan", "res=1"]
        ) != 0
        assert "error[" in capsys.readouterr().out

    def test_expired_deadline_exits_with_budget_code(self, local_file, capsys):
        code = main(
            ["batch", "search", "--model", local_file,
             "--at", "elem=1", "list=500", "res=1",
             "--deadline", "0.0"]
        )
        assert code != 0


class TestJobsFlag:
    def test_sweep_jobs_matches_serial(self, local_file, capsys):
        def without_cache_footer(text: str) -> str:
            # the kernel-cache counters warm up between runs; everything
            # else (the actual sweep table) must be byte-identical
            return "\n".join(
                line for line in text.splitlines()
                if not line.startswith("kernel cache:")
            )

        argv = ["sweep", local_file, "search", "list",
                "--from", "1", "--to", "1000", "--points", "7",
                "--set", "elem=1", "res=1"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert "kernel cache:" in serial
        assert main(argv + ["--jobs", "2"]) == 0
        assert without_cache_footer(capsys.readouterr().out) == (
            without_cache_footer(serial)
        )

    def test_simulate_jobs_accepted(self, local_file, capsys):
        assert main(
            ["simulate", local_file, "search", "--trials", "400",
             "--seed", "1", "--jobs", "2",
             "--set", "elem=1", "list=500", "res=1"]
        ) == 0
        assert "Wilson" in capsys.readouterr().out

    def test_negative_jobs_is_usage_error(self, local_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", local_file, "search", "list",
                  "--from", "1", "--to", "10", "--points", "3",
                  "--set", "elem=1", "res=1", "--jobs", "-2"])
        assert excinfo.value.code == 2


class TestSolverFlag:
    """``auto`` is the only backend the CLI uses: its output equals the
    core evaluator's forced dense and sparse solves, and the retired
    ``--solver``/``--incremental`` flags are usage errors."""

    EVALUATE = ["search", "--set", "elem=1", "list=500", "res=1"]
    POINT = {"elem": 1.0, "list": 500.0, "res": 1.0}

    def forced(self, local_file, solver):
        from pathlib import Path

        from repro.dsl import load_assembly

        assembly = load_assembly(Path(local_file).read_text())
        pfail = ReliabilityEvaluator(assembly, solver=solver).pfail(
            "search", **self.POINT
        )
        return f"Pfail(search) = {pfail:.9e}\nR(search)     = {1.0 - pfail:.9f}\n"

    def test_dense_matches_default(self, local_file, capsys):
        assert main(["evaluate", local_file] + self.EVALUATE) == 0
        assert capsys.readouterr().out == self.forced(local_file, "dense")

    def test_sparse_matches_default(self, local_file, capsys):
        from repro.markov import scipy_available

        if not scipy_available():
            pytest.skip("sparse backend requires scipy")
        assert main(["evaluate", local_file] + self.EVALUATE) == 0
        assert capsys.readouterr().out == self.forced(local_file, "sparse")

    def test_unknown_solver_is_usage_error(self, local_file, capsys):
        for flags in (["--solver", "dense"], ["--solver", "banded"],
                      ["--incremental"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["evaluate", local_file] + flags + self.EVALUATE)
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_numeric_solver_matches(self, local_file, capsys):
        from pathlib import Path

        import numpy as np

        from repro.analysis import format_sweep
        from repro.analysis.sweep import SweepResult
        from repro.dsl import load_assembly

        argv = ["sweep", local_file, "search", "list",
                "--from", "1", "--to", "1000", "--points", "5",
                "--method", "numeric", "--set", "elem=1", "res=1"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assembly = load_assembly(Path(local_file).read_text())
        dense = ReliabilityEvaluator(assembly, check_domains=False,
                                     solver="dense")
        fixed = {"elem": 1.0, "res": 1.0}
        grid = np.linspace(1.0, 1000.0, 5)
        pfail = np.array([dense.pfail("search", **fixed, list=float(v))
                          for v in grid])
        sweep = SweepResult(assembly.name, "search", "list", grid, pfail,
                            fixed)
        assert default.startswith(format_sweep(sweep) + "\n")
