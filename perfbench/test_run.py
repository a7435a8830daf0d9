"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import shutil
import subprocess
import sys
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent


def _span(name, start, end, parent):
    span = spans.Span(name, start, parent)
    span.end = end
    return span


def test_nested_spans_count_once_and_self_time_excludes_children():
    # solve_domain [0, 10] > smallest_pairs [1, 7]; quad_adaptive [7, 9] > quad_adaptive [7.5, 8.5]
    trace = [
        _span("pipeline.solve_domain", 0.0, 10.0, None),
        _span("eigensolve.smallest_pairs", 1.0, 7.0, 100),
        _span("quadrature.quad_adaptive", 7.0, 9.0, 100),
        _span("quadrature.quad_adaptive", 7.5, 8.5, 102),
    ]
    m = spans.pass_metrics(trace, 100, wall=10.0)
    assert m["quadrature.quad_adaptive.s"] == 2.0
    assert m["quadrature.quad_adaptive.calls"] == 2
    assert m["pipeline.solve_domain.self_s"] == 2.0
    assert m["eigensolve.smallest_pairs.finest_s"] == 6.0
    assert m["eigensolve.share"] == 0.6


def test_smoke_prints_every_metric_and_passes_its_gates():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.rstrip().endswith("smoke ok")


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid_disc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
