import json
import subprocess
import sys

import pytest

from conftest import cli_env
from spectralgap.discretize import build_grid
from spectralgap.geometry import Ball

CLI = [sys.executable, "-m", "spectralgap.cli"]
CHEAP_H = "1/8,1/16,1/32"


def run_cli(*args, env_extra=None, cwd=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=cli_env(env_extra), cwd=cwd)


class TestEig:
    def test_ball(self):
        proc = run_cli("eig", "--domain", "ball", "--h", CHEAP_H)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["lambda1"]["extrapolated"] == pytest.approx(5.783185962947, rel=0.02)
        assert doc["domain"]["kind"] == "ball"
        assert doc["h"] == [0.125, 0.0625, 0.03125]

    def test_levels_report_solver_data(self):
        proc = run_cli("eig", "--domain", "ball", "--h", CHEAP_H, "--seed", "1")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        levels = doc["levels"]
        assert [lv["h"] for lv in levels] == doc["h"]
        assert [lv["n"] for lv in levels] == [build_grid(Ball(), h).n for h in doc["h"]]
        for lv, lam1, lam2 in zip(levels, doc["lambda1"]["raw"], doc["lambda2"]["raw"]):
            assert len(lv["iterations"]) == len(lv["inner_iterations"]) == 2
            assert all(0 < inner <= outer
                       for inner, outer in zip(lv["inner_iterations"], lv["iterations"]))
            assert all(0 <= r <= doc["tol"] * lam
                       for r, lam in zip(lv["residuals"], (lam1, lam2)))
        assert levels[-1]["iterations"] == doc["iterations"]
        assert levels[-1]["residuals"] == doc["residuals"]

    def test_theta_degenerate_pair(self):
        proc = run_cli("eig", "--domain", "theta", "--h", "1/8,1/16")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        lam1 = doc["lambda1"]["extrapolated"]
        lam2 = doc["lambda2"]["extrapolated"]
        assert abs(lam1 - lam2) <= 1e-3 * lam1

    def test_malformed_spec_no_partial_output(self):
        proc = run_cli("eig", "--domain", '{"kind": "pentagon", "N": 2}',
                       "--h", CHEAP_H)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "error" in proc.stderr

    def test_dumbbell_needs_eps(self):
        proc = run_cli("eig", "--domain", "dumbbell", "--h", CHEAP_H)
        assert proc.returncode != 0
        assert proc.stdout == ""

    def test_non_halving_grid_rejected(self):
        proc = run_cli("eig", "--domain", "ball", "--h", "1/8,1/24")
        assert proc.returncode != 0

    def test_json_domain_file(self, tmp_path):
        path = tmp_path / "domain.json"
        path.write_text(json.dumps({"kind": "dumbbell", "N": 2,
                                    "params": {"epsilon": 0.2}}))
        proc = run_cli("eig", "--domain", str(path), "--h", CHEAP_H)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["domain"]["params"]["epsilon"] == 0.2

    def test_dim3_rejected_for_grid_commands(self):
        proc = run_cli("eig", "--domain", "ball", "--dim", "3", "--h", CHEAP_H)
        assert proc.returncode != 0
        assert "planar" in proc.stderr


class TestErrorMapping:
    @pytest.mark.parametrize("domain, kind", [
        ("dumbbell", "config"),
        ('{"kind":', "JSONDecodeError"),
        ('{"kind": "ball", "N": 2, "params": {"center": [0.53, 0.53], "radius": 0.01}}',
         "GridError"),
    ])
    def test_eig_kind_and_exit_code(self, domain, kind):
        proc = run_cli("eig", "--domain", domain, "--h", "1/8,1/16")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["kind"] == kind


    def test_fewer_nodes_than_pairs_is_grid_error(self):
        domain = '{"kind": "ball", "N": 2, "params": {"center": [0.5, 0.5], "radius": 0.01}}'
        proc = run_cli("eig", "--domain", domain, "--h", "1/8,1/16")
        assert proc.returncode == 1
        assert proc.stdout == ""
        error = json.loads(proc.stderr)
        assert error["kind"] == "GridError"
        assert "h = 0.125" in error["error"] and "Ball(" in error["error"]


class TestLemmaCommands:
    def test_lemma1_single(self):
        proc = run_cli("lemma1", "--eps", "0.1")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc[0]["quotient"] == pytest.approx(5.46488935135, rel=1e-9)
        assert doc[0]["deficit"] > 0

    def test_lemma2_csv(self):
        proc = run_cli("lemma2", "--eps-grid", "0.05,0.1", "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "eps,quotient,excess,err"
        assert len(lines) == 3
        assert float(lines[2].split(",")[2]) > 0

    def test_lemma1_dim3(self):
        proc = run_cli("lemma1", "--eps", "0.05", "--dim", "3")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc[0]["quotient"] < 9.8696044

    def test_byte_identical_reruns(self):
        a = run_cli("lemma1", "--eps-grid", "0.02,0.04")
        b = run_cli("lemma1", "--eps-grid", "0.02,0.04")
        assert a.stdout == b.stdout

    def test_eps_outside_regime(self):
        proc = run_cli("lemma1", "--eps", "0.5")
        assert proc.returncode != 0


class TestRatio:
    def test_bound_csv(self):
        proc = run_cli("ratio", "--eps-grid", "0.01,0.02,0.04,0.08")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "eps,bound_ratio,grid_ratio"
        ratios = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_dim3_rows_pinned(self):
        proc = run_cli("ratio", "--dim", "3", "--eps-grid", "0.1,0.2")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("eps,bound_ratio,grid_ratio\n"
                               "0.1,0.455742851628,\n"
                               "0.2,0.524187131981,\n")
        parallel = run_cli("ratio", "--dim", "3", "--eps-grid", "0.1,0.2", "--jobs", "2")
        assert parallel.returncode == 0, parallel.stderr
        assert parallel.stdout == proc.stdout


    def test_dim3_with_grid_rejected(self):
        proc = run_cli("ratio", "--dim", "3", "--with-grid", "--eps-grid", "0.1,0.2")
        assert proc.returncode == 1
        assert proc.stdout == ""
        error = json.loads(proc.stderr)
        assert error["kind"] == "config"
        assert error["error"].startswith("'ratio --with-grid' uses the grid solver, "
                                         "which is planar only")


class TestVerify:
    def test_default_window_passes(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("verify", "--eps-max", "0.1", "--no-grid-check",
                       "--out", str(out), "--data-out", str(tmp_path / "curve.csv"))
        assert proc.returncode == 0, proc.stderr + proc.stdout
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        assert len(doc["checks"]) == 3
        assert (tmp_path / "curve.csv").exists()
        assert doc["data_csv_path"].endswith("curve.csv")

    def test_eps_max_out_of_regime_rejected(self):
        proc = run_cli("verify", "--eps-max", "0.9")
        assert proc.returncode == 2
        assert "regime" in proc.stderr

    def test_csv_schema_matches_ratio_command(self, tmp_path):
        curve = tmp_path / "curve.csv"
        proc = run_cli("verify", "--eps-max", "0.1", "--no-grid-check",
                       "--out", str(tmp_path / "r.json"), "--data-out", str(curve))
        assert proc.returncode == 0
        assert curve.read_text().splitlines()[0] == "eps,bound_ratio,grid_ratio"


class TestSeed:
    def test_env_override(self):
        proc = run_cli("eig", "--domain", "ball", "--h", "1/8,1/16",
                       env_extra={"SPECTRALGAP_SEED": "77"})
        doc = json.loads(proc.stdout)
        assert doc["seed"] == 77

    def test_flag_beats_env(self):
        proc = run_cli("eig", "--domain", "ball", "--h", "1/8,1/16",
                       "--seed", "5", env_extra={"SPECTRALGAP_SEED": "77"})
        assert json.loads(proc.stdout)["seed"] == 5

    def test_determinism_across_runs(self):
        a = run_cli("eig", "--domain", "dumbbell", "--eps", "0.2", "--h", "1/8,1/16")
        b = run_cli("eig", "--domain", "dumbbell", "--eps", "0.2", "--h", "1/8,1/16")
        assert a.stdout == b.stdout


class TestPlotdata:
    def test_boundary_and_cloud(self, tmp_path):
        proc = run_cli("plotdata", "--h", CHEAP_H, "--out",
                       str(tmp_path / "fig"), cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        cloud = (tmp_path / "fig_cloud.csv").read_text().splitlines()
        from spectralgap.attainable import CSV_HEADER
        assert cloud[0] == CSV_HEADER
        assert len(cloud) > 10
        boundary = (tmp_path / "fig_boundary.csv").read_text().splitlines()
        assert boundary[0] == "kind,x,y"
        rows = {line.split(",")[0]: line.split(",") for line in boundary[1:]}
        p_row = rows["P"]
        assert float(p_row[1]) == pytest.approx(11.566371925894, rel=1e-9)
        assert float(p_row[2]) == pytest.approx(11.566371925894, rel=1e-9)
        q_row = rows["Q"]
        assert float(q_row[1]) == pytest.approx(5.783185962947, rel=1e-9)
        assert float(q_row[2]) == pytest.approx(14.681970642124, rel=1e-9)
        ab = [line.split(",") for line in boundary[1:] if line.startswith("ab_line")]
        slope = float(ab[-1][2]) / float(ab[-1][1])
        assert slope == pytest.approx(2.5387, abs=2e-4)
