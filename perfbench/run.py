"""Benchmark of spectralgap: one command, three workloads, end-to-end metrics
from untraced runs and per-layer metrics from a traced run.

    python3 perfbench/run.py --workload grid_disc --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload bounds_dense --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --smoke

Run it from anywhere inside a source checkout; it imports the package from
``src/`` of the checkout it sits in, so nothing needs installing.  Each run
starts fresh worker processes (``worker.py``): with ``--trace 0``, several
that only set up, to time set-up, and then one that also runs passes of the
workload for ``--seconds``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it print the same metrics by name and unit,
plus workload-specific ones (``disc_rel_err``, ``bound_p50_ms``,
``bound_p95_ms``, ``fail_frac``) and the machine: nproc, versions, the BLAS
thread setting and the 1-minute load average at start.

``setup_s`` and ``wall_s`` are given at a fixed host speed, since a shared
host's speed drifts by up to 1.6x over minutes: each set-up is divided by
the time of ``worker.ReferenceKernel`` run right after it, each pass by the
mean of the kernel times before and after it, and the median ratio is
multiplied by ``REFERENCE_S``.  The raw medians are printed beside them.

``--smoke`` runs every workload untraced and traced on the smallest inputs
that pass its gates and checks that every metric is printed with its unit
and that the gates ran.  Temporary outputs and the traced run's spans
(``trace_<workload>.jsonl``) go to ``.perfbench_out/`` in the checkout.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out"
WORKLOADS = ("grid_disc", "verify_coarse", "bounds_dense")
SETUP_RUNS = 5
DEADLINE_S = 170.0
RESULT_PREFIX = "PERFBENCH_RESULT "
# time of worker.ReferenceKernel in the fastest stretches of a shared 2-core
# Intel Xeon at 2.0 GHz
REFERENCE_S = 0.10

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# printed on the workloads they apply to, not part of the JSON result
REPORTED = {
    "grid_disc": {"disc_rel_err": "rel"},
    "bounds_dense": {"bound_p50_ms": "ms", "bound_p95_ms": "ms"},
}


class BenchError(RuntimeError):
    pass


def _worker(workload, seed, seconds, trace, smoke, setup_only, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", str(SCRATCH)]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker exceeded {timeout:.0f} s") from exc
    found = [ln for ln in proc.stdout.splitlines() if ln.startswith(RESULT_PREFIX)]
    if proc.returncode != 0 or not found:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    result = json.loads(found[-1][len(RESULT_PREFIX):])
    # both clocks are the system-wide monotonic clock
    result["setup_s"] = result["ready_at"] - start
    return result


def run_bench(workload, seed, seconds, trace, smoke=False):
    """Run one benchmark run; return the report lines and the result dict."""
    load1 = os.getloadavg()[0]
    deadline = time.monotonic() + DEADLINE_S

    def worker(setup_only=False):
        return _worker(workload, seed, seconds, trace, smoke, setup_only,
                       deadline - time.monotonic())

    setups = []  # (set-up time, reference-kernel time right after it)
    if not trace:
        for _ in range(1 if smoke else SETUP_RUNS - 1):
            r = worker(setup_only=True)
            setups.append((r["setup_s"], r["reference_s"]))
    res = worker()

    env = res["env"]
    lines = [f"env workload={workload} seed={seed} nproc={env['nproc']} "
             f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
             f"blas={env['blas'].replace(' ', '-')} threads={env['threads']} "
             f"loadavg1={load1:.2f}"]
    attempted, failed = res["attempted"], res["failed"]
    if trace:
        values = res["layers"]
        units = spans.LAYER_UNITS
        lines += [f"layer {k} {values[k]!r} {u}" for k, u in units.items()]
        lines.append(f"trace traced_wall_s={values['trace.wall_s']!r} "
                     f"untraced_wall_s={median(res['walls'])!r} "
                     f"overhead_s={values['trace.overhead_s']!r}")
        if res["absent"]:
            lines.append(f"trace absent from the program (metrics read 0): {res['absent']}")
    else:
        walls, refs = res["walls"], res["references"]
        setups.append((res["setup_s"], refs[0]))
        at_ref = [w / (a + b) * 2 * REFERENCE_S for w, a, b in zip(walls, refs, refs[1:])]
        values = {"setup_s": median(s / r for s, r in setups) * REFERENCE_S,
                  "wall_s": median(at_ref), "peak_rss_mb": res["peak_rss_mb"]}
        units = END_TO_END
        notes = {"setup_s": f"median of {len(setups)} set-ups at reference speed",
                 "wall_s": f"median of {len(walls)} passes at reference speed, "
                           f"fastest {min(at_ref):.4f}, slowest {max(at_ref):.4f}",
                 "peak_rss_mb": "ru_maxrss of the workload process"}
        lines += [f"metric {k} {values[k]!r} {u} ({notes[k]})" for k, u in units.items()]
        lines.append(f"host raw_setup_s={median(s for s, _ in setups)!r} "
                     f"raw_wall_s={median(walls)!r} reference_s={median(refs)!r} "
                     f"(reference kernel at {REFERENCE_S} s is reference speed)")
        lines.append(f"metric fail_frac {failed / attempted!r} fraction "
                     f"({failed} failed of {attempted} operations)")
        samples = res["samples"]
        if workload == "grid_disc":
            lines.append(f"metric disc_rel_err {max(samples['disc_rel_err'])!r} rel "
                         f"(max over lambda1, lambda2 vs Bessel zeros)")
        if workload == "bounds_dense":
            ms = samples["bound_ms"]
            p95 = quantiles(ms, n=100, method="inclusive")[94]
            lines.append(f"metric bound_p50_ms {median(ms)!r} ms (n={len(ms)})")
            lines.append(f"metric bound_p95_ms {p95!r} ms (n={len(ms)})")
    trace_failures = res.get("trace_failures", [])
    lines.append(f"gates {res['checks']} checks run, {failed} operations failed, "
                 f"{len(trace_failures)} trace-gate failures")
    lines += [f"FAIL {msg}" for msg in res["failures"] + trace_failures]
    final = {
        "correct": failed == 0 and res["checks"] > 0 and not trace_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return lines, final


def smoke():
    """Run every workload untraced and traced on its smallest passing inputs
    and check the printed metrics against BENCHMARK.json; return an exit code."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            try:
                lines, final = run_bench(workload, 1, 0, trace, smoke=True)
            except BenchError as exc:
                problems.append(f"{label}: {exc}")
                continue
            text = "\n".join(lines)
            print(text, flush=True)
            declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
            printed = {k: v["unit"] for k, v in final["metrics"].items()}
            if printed != declared:
                problems.append(f"{label}: result metrics {printed} != BENCHMARK.json {declared}")
            expect = dict(declared)
            if not trace:
                expect.update({"fail_frac": "fraction", **REPORTED.get(workload, {})})
            for name, unit in expect.items():
                kind = "layer" if trace else "metric"
                if not re.search(rf"^{kind} {re.escape(name)} \S+ {re.escape(unit)}\b", text,
                                 re.MULTILINE):
                    problems.append(f"{label}: {name} [{unit}] not printed")
            if not final["correct"] or final["failed"] or not re.search(r"^gates [1-9]", text,
                                                                        re.MULTILINE):
                problems.append(f"{label}: gates did not run or did not pass")
    for p in problems:
        print(f"smoke FAIL {p}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 0 if not problems else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="check every workload and metric on the smallest inputs")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "spectralgap" / "__init__.py").is_file():
        sys.stderr.write(f"no spectralgap source under {ROOT / 'src'}: "
                         "run from a source checkout\n")
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    try:
        lines, final = run_bench(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    print("\n".join(lines))
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
