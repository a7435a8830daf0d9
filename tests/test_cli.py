import argparse
import csv
import dataclasses
import io
import json
import subprocess
import sys

import pytest

from conftest import cli_env
from spectralgap import asymptotics, attainable, cli, testfn
from spectralgap.discretize import build_grid
from spectralgap.eigensolve import DEFAULT_SEED
from spectralgap.geometry import (
    KINDS, Ball, Dumbbell, HalfDumbbell, Rectangle, domain_from_dict, domain_to_dict,
    two_balls,
)

CLI = [sys.executable, "-m", "spectralgap.cli"]
CHEAP_H = "1/8,1/16,1/32"
MALFORMED = "malformed domain document: "
# the default eps grid up to 0.1, the bounds' rate-fit window
WINDOW_GRID = ",".join(repr(e) for e in attainable.DEFAULT_EPS_GRID if e <= 0.1)


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
        for lv in levels:
            assert len(lv["iterations"]) == len(lv["inner_iterations"]) == 2
            assert all(0 < inner <= outer
                       for inner, outer in zip(lv["inner_iterations"], lv["iterations"]))
            assert all(r >= 0 for r in lv["residuals"])
        # only the finest level stops on the residual; the coarser ones on
        # their Temple estimate
        finest = (doc["lambda1"]["raw"][-1], doc["lambda2"]["raw"][-1])
        assert all(r <= doc["tol"] * lam for r, lam in zip(levels[-1]["residuals"], finest))
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

    @pytest.mark.parametrize("spec, message", [
        ('{"kind": "ball", "N": 2, "params": []}', MALFORMED),
        ('{"kind": "ball", "N": 2, "params": {"center": 5}}',
         MALFORMED + "kind 'ball' param 'center' must be a list"),
        ('{"kind": "disjoint_union", "N": 2, "params": {"parts": 5}}',
         MALFORMED + "kind 'disjoint_union' param 'parts' must be a list"),
        ('{"kind": "ball", "N": 2, "params": {"radius": null}}',
         MALFORMED + "kind 'ball' param 'radius' must be a number"),
        ('{"kind": "ball", "N": 2, "params": {"radius": true}}',
         MALFORMED + "kind 'ball' param 'radius' must be a number"),
        ('{"kind": "ball", "N": 2, "params": {"radius": "2"}}',
         MALFORMED + "kind 'ball' param 'radius' must be a number"),
        ('{"kind": "scaled", "N": 3, "params": {"factor": 1, "inner": {"kind": "ball", "N": 2}}}',
         MALFORMED),
        ('{"kind": "ball", "N": 2.7}', MALFORMED),
        ('{"kind": "ball", "N": "2"}', MALFORMED),
        ('{"kind": "ball", "N": 2, "params": {"radius": NaN}}', "ball radius must be positive"),
        ('{"kind": "ball", "N": 2, "params": {"radius": Infinity}}',
         "ball radius must be positive"),
        ('{"kind": "ball", "N": 2, "params": {"center": [NaN, 0]}}', "ball center must be finite"),
        ('{"kind": "two_balls", "N": 2, "params": {"separation": NaN}}',
         "ball center must be finite"),
        ('{"kind": "rectangle", "N": 2, "params": {"width": NaN, "height": 1}}',
         "rectangle sides must be positive"),
        ('{"kind": "ellipse", "N": 2, "params": {"semi_x": 1, "semi_y": NaN}}',
         "ellipse semi-axes must be positive"),
        ('{"kind": "scaled", "N": 2, "params": {"inner": {"kind": "ball", "N": 2}, "factor": NaN}}',
         "scale factor must be positive"),
        ('{"kind": "ball", "N": 2, "params": {"raduis": 2}}',
         MALFORMED + "kind 'ball' has no parameter 'raduis'"),
    ], ids=["params_list", "center_int", "parts_int", "radius_null", "radius_true",
            "radius_string", "n_mismatch", "n_float", "n_string", "radius_nan", "radius_inf",
            "center_nan", "separation_nan", "width_nan", "semi_y_nan", "factor_nan",
            "radius_misspelled"])
    def test_malformed_document_is_json_error(self, spec, message):
        proc = run_cli("eig", "--domain", spec, "--h", "1/8,1/16")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        error = json.loads(proc.stderr)
        assert error["kind"] == "ValueError"
        assert error["error"].startswith(message)

    def test_dumbbell_needs_eps(self, capsys):
        assert cli.main(["eig", "--domain", "dumbbell", "--h", CHEAP_H]) == 1
        captured = capsys.readouterr()
        error = json.loads(captured.err)
        assert captured.out == "" and error["kind"] == "ValueError"
        assert error["error"].startswith(MALFORMED) and "'epsilon'" in error["error"]

    def test_eps_refused_where_the_domain_has_no_epsilon(self, capsys):
        assert cli.main(["eig", "--domain", "ball", "--eps", "7", "--h", "1/8,1/16"]) == 1
        captured = capsys.readouterr()
        error = json.loads(captured.err)
        assert captured.out == "" and error["kind"] == "ValueError"
        assert error["error"].startswith(MALFORMED + "kind 'ball' has no parameter 'epsilon'")

    def test_eps_refused_with_a_document(self, capsys):
        spec = '{"kind": "dumbbell", "N": 2, "params": {"epsilon": 0.2}}'
        assert cli.main(["eig", "--domain", spec, "--eps", "0.3", "--h", "1/8,1/16"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and json.loads(captured.err)["kind"] == "config"

    @pytest.mark.parametrize("name, eps, domain", [
        ("ball", None, Ball()),
        ("disc", None, Ball()),
        ("theta", None, two_balls()),
        ("two_balls", None, two_balls()),
        ("square", None, Rectangle(width=1.0, height=1.0)),
        ("dumbbell", 0.2, Dumbbell(epsilon=0.2)),
        ("half_dumbbell", 0.2, HalfDumbbell(epsilon=0.2)),
    ])
    def test_names_build_the_same_domains(self, name, eps, domain):
        built = cli._parse_domain(argparse.Namespace(domain=name, eps=eps))
        assert domain_to_dict(built) == domain_to_dict(domain)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_every_kind_is_a_name(self, kind):
        # a bare kind name is its planar document without params
        def outcome(build):
            try:
                return build()
            except ValueError as exc:
                return type(exc), str(exc)

        named = outcome(lambda: cli._parse_domain(argparse.Namespace(domain=kind, eps=None)))
        assert named == outcome(lambda: domain_from_dict({"kind": kind, "N": 2}))

    def test_bare_rectangle_reports_missing_sides(self, capsys):
        assert cli.main(["eig", "--domain", "rectangle", "--h", "1/8,1/16"]) == 1
        captured = capsys.readouterr()
        error = json.loads(captured.err)
        assert captured.out == "" and error["kind"] == "ValueError"
        assert error["error"].startswith(MALFORMED)
        assert "'width'" in error["error"] and "'height'" in error["error"]

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

    def test_dim3_rejected_for_grid_commands(self, capsys):
        # the planar-only commands have no --dim
        for command in ("eig", "sweep", "plotdata"):
            argv = [command, *REQUIRED.get(command, []), "--dim", "3"]
            assert _parse_exit(argv, capsys) == 2


class TestErrorMapping:
    @pytest.mark.parametrize("domain, kind", [
        ("dumbbell", "ValueError"),
        ('{"kind":', "JSONDecodeError"),
        ('{"kind": "ball", "N": 2, "params": {"center": [0.53, 0.53], "radius": 0.01}}',
         "GridError"),
        ('{"kind": "rectangle", "N": 2, "params": {"width": 1e-9, "height": 1e9}}',
         "GridError"),
    ])
    def test_eig_kind_and_exit_code(self, domain, kind):
        proc = run_cli("eig", "--domain", domain, "--h", "1/8,1/16")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["kind"] == kind

    @pytest.mark.parametrize("command, argv, exc, code", [
        ("cmd_lemma", ["lemma2"], ZeroDivisionError("float division by zero"), 1),
        ("cmd_ratio", ["ratio"], OverflowError("math range error"), 1),
        ("cmd_verify", ["verify"], OverflowError("math range error"), 2),
        ("cmd_eig", ["eig", "--domain", "ball"], MemoryError("Unable to allocate 119. GiB"), 1),
        ("cmd_verify", ["verify"], MemoryError("Unable to allocate 119. GiB"), 2),
    ])
    def test_arithmetic_error_is_json_error(self, command, argv, exc, code, monkeypatch,
                                            capsys):
        """An arithmetic error, or an allocation that fails, ends in the JSON
        error document, not a traceback."""
        def fail(*args):
            raise exc

        monkeypatch.setattr(cli, command, fail)
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": str(exc), "kind": type(exc).__name__}

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
        proc = run_cli("lemma1", "--eps-grid", "0.1")
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
        proc = run_cli("lemma1", "--eps-grid", "0.05", "--dim", "3")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc[0]["quotient"] < 9.8696044

    def test_byte_identical_reruns(self):
        a = run_cli("lemma1", "--eps-grid", "0.02,0.04")
        b = run_cli("lemma1", "--eps-grid", "0.02,0.04")
        assert a.stdout == b.stdout

    def test_eps_outside_regime(self):
        proc = run_cli("lemma1", "--eps-grid", "0.5")
        assert proc.returncode != 0

    def test_grid_spans_the_bounds_regime(self, capsys):
        # the whole regime (0, testfn.EPS_MAX], past the default grid's 0.2
        assert cli.main(["lemma1", "--eps-grid", "0.1,0.25,0.3"]) == 0
        assert [row["eps"] for row in json.loads(capsys.readouterr().out)] == [0.1, 0.25, 0.3]

    @pytest.mark.parametrize("which", ["lemma1", "lemma2"])
    def test_one_bound_call_for_the_whole_grid(self, which, monkeypatch, capsys):
        calls = []
        rayleigh = getattr(testfn, f"{which}_rayleigh")
        monkeypatch.setattr(testfn, f"{which}_rayleigh",
                            lambda eps, dim: calls.append(eps) or rayleigh(eps, dim=dim))
        assert cli.main([which]) == 0
        assert calls == [attainable.DEFAULT_EPS_GRID]
        assert len(json.loads(capsys.readouterr().out)) == len(attainable.DEFAULT_EPS_GRID)

    def test_tiny_eps(self, capsys):
        assert cli.main(["lemma2", "--eps-grid", "1e-8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["eps"] == 1e-8 and doc[0]["excess"] > 0


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


    def test_dim3_with_grid_rejected(self, capsys):
        argv = ["ratio", "--dim", "3", "--eps-grid", "0.1,0.2", "--grid-eps-min", "0.1"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["kind"] == "config"
        assert error["error"].startswith("'ratio' uses the grid solver, which is planar only")

    def test_dim3_with_threshold_above_grid_is_bound_only(self, capsys):
        argv = ["ratio", "--dim", "3", "--eps-grid", "0.1,0.2"]
        assert cli.main(argv + ["--grid-eps-min", "0.25"]) == 0
        bound_only = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert bound_only == capsys.readouterr().out

    def test_failed_grid_solve_named_on_stderr(self, capsys):
        # h = 2 leaves one node in every dumbbell from 0.1 up: their rows print
        # as with no grid solve, and each failure is one JSON line on stderr
        assert cli.main(["ratio", "--h", "2,1", "--grid-eps-min", "0.1"]) == 1
        captured = capsys.readouterr()
        assert cli.main(["ratio"]) == 0
        assert captured.out == capsys.readouterr().out
        failures = [json.loads(line) for line in captured.err.splitlines()]
        assert [round(f["eps"], 3) for f in failures] == [0.113, 0.16, 0.2]
        for f in failures:
            assert set(f) == {"eps", "failure"}
            assert f["failure"].startswith("GridError: 1 active node(s) at spacing h = 2.0")
        argv = ["ratio", "--eps-grid", "0.2", "--grid-eps-min", "0.2", "--h", "1/8,1/16"]
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.splitlines()[1].split(",")[2] != ""


class TestVerify:
    def test_default_window_passes(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("verify", "--eps-grid", WINDOW_GRID, "--grid-eps-min", "inf",
                       "--out", str(out), "--data-out", str(tmp_path / "curve.csv"))
        assert proc.returncode == 0, proc.stderr + proc.stdout
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        assert len(doc["checks"]) == 3
        assert (tmp_path / "curve.csv").exists()
        assert doc["data_csv_path"].endswith("curve.csv")

    @pytest.mark.parametrize("out, data_csv", [(None, "ratio_curve.csv"),
                                               ("report.json", "report_data.csv")])
    def test_empty_data_out_takes_the_default_path(self, out, data_csv, monkeypatch, capsys,
                                                   tmp_path):
        monkeypatch.chdir(tmp_path)
        argv = ["verify", "--grid-eps-min", "inf", "--data-out", ""]
        assert cli.main(argv + (["--out", out] if out else [])) == 0
        doc = json.loads((tmp_path / out).read_text() if out else capsys.readouterr().out)
        assert doc["data_csv_path"] == data_csv and (tmp_path / data_csv).exists()

    def test_eps_max_out_of_regime_rejected(self):
        proc = run_cli("verify", "--eps-grid", "0.1,0.9")
        assert proc.returncode == 2
        assert "regime" in proc.stderr

    def test_dim3_without_grid_check(self, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        argv = ["verify", "--dim", "3", "--grid-eps-min", "inf", "--data-out", str(curve)]
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True and doc["grid_crosscheck"] == [] and doc["ratio_grid"] == []
        # the verdict reads the N = 3 ratios that `ratio --dim 3` prints
        assert cli.main(["ratio", "--dim", "3"]) == 0
        assert curve.read_text() == capsys.readouterr().out

    def test_failed_grid_solve_keeps_its_bounds(self, tmp_path, capsys):
        # h = 2 leaves one node in Dumbbell(0.2): its grid solve fails, and its
        # bounds still enter the verdict and the data CSV
        curve = tmp_path / "curve.csv"
        assert cli.main(["verify", "--h", "2,1", "--data-out", str(curve)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["ratio_bound"]) == 12 and doc["ratio_bound"][-1][0] == 0.2
        assert doc["ratio_grid"] == []
        (entry,) = doc["grid_crosscheck"]
        assert set(entry) == {"eps", "bound1", "bound2", "budget", "failure"}
        assert entry["eps"] == 0.2 and entry["failure"].startswith("GridError: 1 active node")
        assert doc["checks"][1]["detail"].startswith("ratio(0.005) / ratio(0.2) = ")
        assert curve.read_text().splitlines()[-1].startswith("0.2,")

    def test_csv_schema_matches_ratio_command(self, tmp_path):
        curve = tmp_path / "curve.csv"
        proc = run_cli("verify", "--eps-grid", WINDOW_GRID, "--grid-eps-min", "inf",
                       "--out", str(tmp_path / "r.json"), "--data-out", str(curve))
        assert proc.returncode == 0
        assert curve.read_text().splitlines()[0] == "eps,bound_ratio,grid_ratio"


class TestSeed:
    def test_flag_and_default(self, capsys):
        for argv, seed in ((["--seed", "5"], 5), ([], DEFAULT_SEED)):
            assert cli.main(["eig", "--domain", "ball", "--h", "1/8,1/16", *argv]) == 0
            assert json.loads(capsys.readouterr().out)["seed"] == seed

    def test_negative_seed_is_config_error(self, capsys):
        assert cli.main(["eig", "--domain", "ball", "--h", "1/8,1/16", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        error = json.loads(captured.err)
        assert captured.out == "" and error["kind"] == "config"
        assert error["error"] == "--seed must be a non-negative integer, got -1"

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
        assert cloud[0] == ",".join(cli.SWEEP_HEADER)
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


class TestSweepCommand:
    def test_two_families_same_csv_at_any_jobs(self):
        argv = ["sweep", "--families", "ball,rectangles", "--h", CHEAP_H]
        serial = run_cli(*argv, "--jobs", "1")
        parallel = run_cli(*argv, "--jobs", "3")
        assert serial.returncode == parallel.returncode == 0, serial.stderr + parallel.stderr
        assert parallel.stdout == serial.stdout
        rows = [line.split(",")[:2] for line in serial.stdout.splitlines()[1:]]
        assert rows == [["ball", "1"], ["rectangles", "1"], ["rectangles", "2"],
                        ["rectangles", "3"]]


class TestCsv:
    """The one CSV writer, on sweep records."""

    def test_header_schema(self):
        assert cli._sweep_csv([]) == ("family,param,h_list,lambda1_raw,lambda2_raw,"
                                      "lambda1_x,lambda2_x,measure,t,lambda1_norm,"
                                      "lambda2_norm,bound1,bound2,deficit,excess,err,"
                                      "failure\n")
        assert len(cli.SWEEP_HEADER) == len(dataclasses.fields(attainable.SweepRecord))

    def test_roundtrip_and_determinism(self, bound_only_records):
        text1 = cli._sweep_csv(bound_only_records)
        text2 = cli._sweep_csv(bound_only_records)
        assert text1 == text2
        lines = text1.strip().splitlines()
        assert lines[0] == ",".join(cli.SWEEP_HEADER)
        assert len(lines) == len(bound_only_records) + 1
        first = lines[1].split(",")
        assert first[0] == "dumbbell"
        assert float(first[1]) == pytest.approx(0.005)
        # bounds are populated, grid columns empty for bound-only records
        assert first[11] != "" and first[3] == ""
        assert first[-1] == ""

    def test_failure_column_quotes_commas(self):
        records = [attainable.SweepRecord(family="ellipses", param=2.0,
                                          failure='GridError: no nodes at h=0.5, "coarse"'),
                   attainable.SweepRecord(family="ball", param=1.0)]
        rows = list(csv.reader(io.StringIO(cli._sweep_csv(records))))
        assert len(rows[0]) == len(rows[1]) == len(rows[2]) == 17
        assert rows[1][0] == "ellipses"
        assert rows[1][-1] == 'GridError: no nodes at h=0.5, "coarse"'
        assert rows[2][-1] == ""

    def test_failed_sweep_record_has_no_budget(self, capsys):
        # h = 1/2 leaves one node in the unit square: that record fails
        argv = ["sweep", "--families", "rectangles", "--h", "1/2,1/4"]
        assert cli.main(argv) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[1][:2] == ["rectangles", "1"] and rows[1][-1].startswith("GridError: ")
        # it keeps its measure and t, but holds no eigenvalue and so no budget
        assert rows[1][2:7] == [""] * 5 and rows[1][7:9] == ["1", "1.77245385091"]
        assert rows[1][9:-1] == [""] * 7
        assert all(float(row[-2]) > 0 for row in rows[2:])
        assert cli.main(argv + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["failure"].startswith("GridError: ") and doc[0]["error_est"] is None
        assert doc[0]["measure"] == 1.0 and doc[0]["t_factor"] == 1.77245385091
        assert all(rec["error_est"] > 0 for rec in doc[1:])


class TestVerifyDocument:
    def test_report_is_json_serializable(self, bound_only_records):
        verdict = asymptotics.verify_theorem(bound_only_records)
        doc = json.loads(json.dumps(cli._verdict_doc(verdict)))
        assert doc["pass"] is True
        assert {c["name"] for c in doc["checks"]} == {
            "monotone_decay", "endpoint_contraction", "fitted_exponent"}
        assert doc["fit"] == {"exponent": verdict.fit.exponent,
                              "prefactor": verdict.fit.prefactor,
                              "r_squared": verdict.fit.r_squared,
                              "window": list(verdict.fit.window),
                              "n_points": verdict.fit.n_points}


def _subcommands():
    parser = cli._build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _flags(subparser):
    return {opt for a in subparser._actions for opt in a.option_strings
            if opt not in ("-h", "--help")}


SOLVER = {"--seed", "--tol", "--h"}
FLAGS = {
    "eig": {"--out", "--domain", "--eps"} | SOLVER,
    "sweep": {"--out", "--format", "--jobs", "--families"} | SOLVER,
    "lemma1": {"--dim", "--out", "--format", "--eps-grid"},
    "lemma2": {"--dim", "--out", "--format", "--eps-grid"},
    "ratio": {"--dim", "--out", "--format", "--jobs", "--eps-grid", "--grid-eps-min"} | SOLVER,
    "verify": {"--dim", "--out", "--jobs", "--eps-grid", "--grid-eps-min",
               "--data-out"} | SOLVER,
    "plotdata": {"--out", "--jobs"} | SOLVER,
}
REQUIRED = {"eig": ["--domain", "ball"]}


def _parse_exit(argv, capsys):
    """Exit code of argument parsing alone (None when it succeeds); nothing runs."""
    try:
        cli._build_parser().parse_args(argv)
    except SystemExit as exc:
        capsys.readouterr()
        return exc.code
    return None


class TestFlags:
    def test_each_command_takes_the_flags_it_reads(self):
        commands = _subcommands()
        assert {name: _flags(p) for name, p in commands.items()} == FLAGS
        assert sum(len(flags) for flags in FLAGS.values()) == 44

    @pytest.mark.parametrize("command, flag, value", [
        ("eig", "--jobs", "2"), ("eig", "--format", "json"),
        ("lemma1", "--seed", "3"), ("lemma1", "--tol", "1e-12"), ("lemma1", "--jobs", "7"),
        ("lemma2", "--seed", "3"), ("lemma2", "--tol", "1e-12"), ("lemma2", "--jobs", "7"),
        ("verify", "--format", "csv"), ("plotdata", "--format", "csv"),
        ("lemma1", "--eps", "0.1"), ("lemma2", "--eps", "0.1"),
        ("lemma1", "--eps-max", "0.1"), ("lemma2", "--eps-max", "0.1"),
        ("ratio", "--eps-max", "0.1"), ("verify", "--eps-max", "0.1"),
        ("ratio", "--with-grid", None), ("verify", "--no-grid-check", None),
        ("verify", "--grid-check-eps", "0.1"),
    ])
    def test_removed_flag_exits_2(self, command, flag, value, capsys):
        argv = [command, *REQUIRED.get(command, []), flag, *([value] if value else [])]
        assert _parse_exit(argv, capsys) == 2

    def test_abbreviations_rejected(self, capsys):
        assert _parse_exit(["lemma1", "--eps-grid", "0.1,0.2", "--format", "csv"], capsys) is None
        assert _parse_exit(["lemma1", "--eps-g", "0.1,0.2", "--form", "csv"], capsys) == 2

    @pytest.mark.parametrize("command", sorted(c for c, f in FLAGS.items() if "--tol" in f))
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_nonpositive_tol_rejected(self, command, tol, capsys):
        assert _parse_exit([command, *REQUIRED.get(command, []), "--tol", tol], capsys) == 2

    @pytest.mark.parametrize("argv", [["ratio", "--jobs", "0"],
                                      ["verify", "--jobs", "0", "--grid-eps-min", "inf"],
                                      ["sweep", "--jobs", "-1"]])
    def test_jobs_below_one_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "argument --jobs: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_dim_4_rejected(self, command, capsys):
        # an invalid choice where --dim exists, an unknown flag where it does not
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args([command, *REQUIRED.get(command, []), "--dim", "4"])
        assert exc.value.code == 2
        expected = ("argument --dim: invalid choice: 4" if "--dim" in FLAGS[command]
                    else "unrecognized arguments: --dim 4")
        assert expected in capsys.readouterr().err


class TestSettingChecks:
    def test_eig_eps_is_checked_by_the_domain_type(self, capsys):
        assert cli.main(["eig", "--domain", "dumbbell", "--eps", "0.5", "--h", "1/8,1/16"]) == 0
        named = json.loads(capsys.readouterr().out)
        spec = '{"kind": "dumbbell", "N": 2, "params": {"epsilon": 0.5}}'
        assert cli.main(["eig", "--domain", spec, "--h", "1/8,1/16"]) == 0
        assert json.loads(capsys.readouterr().out) == named
        assert cli.main(["eig", "--domain", "dumbbell", "--eps", "1.5", "--h", "1/8,1/16"]) == 1
        assert json.loads(capsys.readouterr().err)["kind"] == "ValueError"

    @pytest.mark.parametrize("argv, code", [
        (["eig", "--domain", "ball", "--h", "1/8,1/24"], 1),
        (["verify", "--h", "1/8,1/24"], 2),
        (["eig", "--domain", "ball", "--h", ","], 1),
        (["eig", "--domain", "ball", "--h", "1/0"], 1),
        (["eig", "--domain", "ball", "--h", "0,0"], 1),
        (["eig", "--domain", "ball", "--h", "nan,nan"], 1),
        (["verify", "--h", "1/0"], 2),
        (["eig", "--domain", "ball", "--h", "1/2/3"], 1),
        (["eig", "--domain", "ball", "--h", "a/b"], 1),
        (["verify", "--h", "1/16,x"], 2),
        (["eig", "--domain", "ball", "--h", "0.1"], 1),
        (["verify", "--h", "1/16"], 2),
        (["ratio", "--h", "1/8,1/24"], 1),
        (["ratio", "--h", "a/b"], 1),
    ])
    def test_bad_h_is_config_error(self, argv, code, capsys):
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["kind"] == "config"

    @pytest.mark.parametrize("argv, code, message", [
        (["lemma1", "--eps-grid", ","], 1, "empty eps grid"),
        (["verify", "--eps-grid", " , "], 2, "empty eps grid"),
        (["sweep", "--families", ","], 1, "empty family list"),
        (["sweep", "--families", " , "], 1, "empty family list"),
        (["sweep", "--families", "ball,ball", "--h", "1/4,1/8"], 1, "repeated families ['ball']"),
        (["sweep", "--families", "dumbbell,ball, dumbbell,ball"], 1,
         "repeated families ['ball', 'dumbbell']"),
        (["lemma1", "--eps-grid", "1e-155"], 1,
         "eps 1e-155 outside the bounds' regime [1e-150, 0.3]"),
        (["lemma2", "--eps-grid", "1e-200"], 1,
         "eps 1e-200 outside the bounds' regime [1e-150, 0.3]"),
        (["ratio", "--eps-grid", "1e-300,1e-200"], 1,
         "eps 1e-300 outside the bounds' regime [1e-150, 0.3]"),
        (["verify", "--eps-grid", "1e-160,0.1"], 2,
         "eps 1e-160 outside the bounds' regime [1e-150, 0.3]"),
    ])
    def test_empty_list_is_config_error(self, argv, code, message, capsys):
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": message, "kind": "config"}

    @pytest.mark.parametrize("argv, code, token", [
        (["eig", "--domain", "ball", "--h", "1/2/3"], 1, "'1/2/3'"),
        (["lemma1", "--eps-grid", "0.1,a"], 1, "'a'"),
        (["verify", "--eps-grid", "0.01, b,0.04"], 2, "'b'"),
    ])
    def test_malformed_token_names_flag_and_token(self, argv, code, token, capsys):
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["kind"] == "config"
        assert error["error"].startswith(argv[-2] + ": ") and token in error["error"]

    @pytest.mark.parametrize("argv, code", [
        (["verify", "--grid-eps-min", "nan"], 2),
        (["ratio", "--grid-eps-min", "nan"], 1),
    ])
    def test_nan_grid_eps_is_config_error(self, argv, code, monkeypatch, capsys):
        # NaN compares false with every eps, so it would grid-solve them all
        solved = []
        monkeypatch.setattr(attainable, "solve_domain", lambda *a, **kw: solved.append(a))
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        error = json.loads(captured.err)
        assert captured.out == "" and error["kind"] == "config"
        assert error["error"] == f"{argv[-2]} must be a number, got nan"
        assert solved == []

    def test_verify_dim3_is_planar_error(self, capsys):
        assert cli.main(["verify", "--dim", "3"]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["kind"] == "config"
        assert error["error"].startswith("'verify' uses the grid solver, which is planar only")

    def test_verify_dim3_below_threshold_runs(self, tmp_path, capsys):
        # no eps reaches the default --grid-eps-min 0.2, so no grid is solved;
        # the verdict fails on contraction alone (ratio(0.01) / ratio(0.08) > 0.5)
        argv = ["verify", "--dim", "3", "--eps-grid", "0.01,0.02,0.04,0.08",
                "--data-out", str(tmp_path / "curve.csv")]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert captured.err == "" and doc["grid_crosscheck"] == [] and doc["ratio_grid"] == []
        assert [c["pass"] for c in doc["checks"]] == [True, False, True]

    def test_domain_names_beat_files_of_that_name(self, tmp_path):
        (tmp_path / "ball").write_text("not json")
        (tmp_path / "theta").mkdir()
        for name in ("ball", "theta"):
            proc = run_cli("eig", "--domain", name, "--h", "1/8,1/16", cwd=str(tmp_path))
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["lambda1"]["raw"]
