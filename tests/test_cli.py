"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main
from repro.datasets import read_g2o


@pytest.fixture
def g2o_file(tmp_path):
    path = os.path.join(tmp_path, "mini.g2o")
    assert main(["generate", "--dataset", "M3500", "--scale", "0.01",
                 str(path)]) == 0
    return str(path)


class TestGenerate:
    def test_writes_g2o(self, g2o_file):
        values, factors = read_g2o(g2o_file)
        assert len(values) == 35
        assert len(factors) >= 34

    def test_sphere_3d(self, tmp_path):
        path = os.path.join(tmp_path, "s.g2o")
        assert main(["generate", "--dataset", "Sphere", "--scale",
                     "0.01", str(path)]) == 0
        values, _ = read_g2o(path)
        assert type(values.at(0)).__name__ == "SE3"


class TestInfo:
    def test_reports_counts(self, g2o_file, capsys):
        assert main(["info", g2o_file]) == 0
        out = capsys.readouterr().out
        assert "35 vertices" in out
        assert "SE2" in out


class TestSolve:
    @pytest.mark.parametrize("solver", ["gn", "lm", "isam2"])
    def test_solvers_run(self, g2o_file, solver, capsys, tmp_path):
        out_path = os.path.join(tmp_path, f"out_{solver}.g2o")
        assert main(["solve", g2o_file, "--solver", solver,
                     "--out", out_path]) == 0
        assert "final objective" in capsys.readouterr().out
        values, _ = read_g2o(out_path)
        assert len(values) == 35

    def test_solve_reduces_objective(self, g2o_file, capsys):
        main(["solve", g2o_file, "--solver", "lm"])
        out = capsys.readouterr().out
        objective = float(out.split("final objective")[1].split()[0])
        assert objective < 1e3

    def test_isam2_anchors_disconnected_components(self, tmp_path,
                                                   capsys):
        """A multi-robot g2o file has a second key namespace whose
        first vertex arrives with no covering factor; the incremental
        feed must anchor it instead of going singular."""
        path = os.path.join(tmp_path, "rendezvous.g2o")
        assert main(["generate", "--dataset", "Rendezvous",
                     "--scale", "0.1", path]) == 0
        assert main(["solve", path, "--solver", "isam2"]) == 0
        assert "final objective" in capsys.readouterr().out


class TestSimulate:
    def test_supernova(self, capsys):
        assert main(["simulate", "--dataset", "M3500", "--scale", "0.02",
                     "--platform", "supernova1"]) == 0
        out = capsys.readouterr().out
        assert "per-step latency" in out
        assert "misses" in out

    def test_cpu_baseline(self, capsys):
        assert main(["simulate", "--dataset", "M3500", "--scale", "0.02",
                     "--platform", "boom"]) == 0
        assert "BOOM" in capsys.readouterr().out

    def test_unknown_platform_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--dataset", "M3500",
                  "--platform", "tpu"])


class TestAutotune:
    def test_tiny_grid_sweep(self, capsys):
        assert main(["autotune", "--dataset", "CAB1",
                     "--dims", "4,8", "--sets", "1,2", "--tiles", "1",
                     "--llc-kib", "4096", "--dram", "64",
                     "--top", "4"]) == 0
        out = capsys.readouterr().out
        assert "4 configurations" in out
        assert "Pareto front" in out
        assert "8x8" in out

    def test_budget_line_and_infeasible(self, capsys):
        assert main(["autotune", "--dataset", "CAB1",
                     "--dims", "4", "--sets", "1", "--tiles", "1",
                     "--llc-kib", "4096", "--dram", "64",
                     "--max-area-um2", "1e9"]) == 0
        assert "best under requested budget" in capsys.readouterr().out
        assert main(["autotune", "--dataset", "CAB1",
                     "--dims", "4", "--sets", "1", "--tiles", "1",
                     "--llc-kib", "4096", "--dram", "64",
                     "--max-area-um2", "1.0"]) == 1
        assert "no configuration satisfies" in capsys.readouterr().out

    def test_invalid_axis_rejected_before_recording(self, monkeypatch):
        import repro.experiments.autotune_report as report

        def record(*args, **kwargs):
            raise AssertionError("workload recorded before validation")

        monkeypatch.setattr(report, "autotune_dataset", record)
        with pytest.raises(ValueError, match="systolic_dim"):
            main(["autotune", "--dataset", "CAB1",
                  "--dims", "-4", "--sets", "2", "--tiles", "2",
                  "--llc-kib", "4096", "--dram", "64"])
