"""One benchmark process: set up a workload, run passes of it for a given
time, check every result, and print one ``PERFBENCH_RESULT <json>`` line.

``run.py`` starts this in a fresh process per run; it is not meant to be run
by hand.  With ``--setup-only`` it exits right after set-up, so that set-up
can be timed several times per run.  With ``--trace 1`` it alternates
untraced and traced passes (untraced first) and reports per-layer metrics
from the traced ones and the difference of the two as tracing overhead.

Untraced runs also time :class:`ReferenceKernel` after set-up and between
passes, so that ``run.py`` can express times at a fixed host speed.
"""

import os

# one BLAS thread, fixed before numpy is first imported: multi-threaded BLAS
# on a shared 2-core machine made grid solves slower and far noisier
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402


class ReferenceKernel:
    """A fixed computation, independent of spectralgap, that tracks the
    host's speed.  On a shared machine the same pass runs up to 1.6x slower
    for stretches of a minute or more, and this kernel slows with it: it is
    what the workloads spend their time on, diagonally preconditioned
    conjugate-gradient steps on a 2D five-point Laplacian (n = 22,500,
    within the range of the workloads' grid levels), plus a little
    interpreted Python.  Calling it returns its run time in seconds."""

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        m = 150
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
        eye = sp.identity(m)
        self.a = (sp.kron(t, eye) + sp.kron(eye, t)).tocsr()
        self.dinv = 1.0 / self.a.diagonal()
        self.b = np.random.default_rng(0).standard_normal(m * m)

    def __call__(self):
        t = time.perf_counter()
        for _ in range(5):  # restarts keep CG far from convergence
            x = self.b * 0.0
            r = self.b.copy()
            z = r * self.dinv
            p = z.copy()
            rz = r @ z
            for _ in range(100):
                q = self.a @ p
                alpha = rz / (p @ q)
                x += alpha * p
                r -= alpha * q
                z = r * self.dinv
                rz, rz_old = r @ z, rz
                p = z + (rz / rz_old) * p
        acc = 0
        for i in range(30000):
            acc += i * i
        return time.perf_counter() - t


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": ",".join(f"{k}={os.environ.get(k)}" for k in THREAD_ENV),
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--scratch", required=True, help="directory for temporary outputs")
    args = p.parse_args(argv)

    import spectralgap
    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer(spectralgap)
        tracer.install()
    setup_lo = tracer.mark() if tracer else 0
    analytic = spectralgap.analytic
    analytic.ball_spectrum(2)
    analytic.ball_spectrum(3)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, args.scratch)
    workload.warm_up()
    setup_range = (setup_lo, tracer.mark() if tracer else 0)
    ready_at = time.monotonic()
    result = {"ready_at": ready_at}
    reference = None if tracer else ReferenceKernel()
    if args.setup_only:
        result["reference_s"] = sorted(reference() for _ in range(3))[1]
        print("PERFBENCH_RESULT " + json.dumps(result), flush=True)
        return 0

    ledger = workloads.Ledger()
    walls = {False: [], True: []}
    pass_ranges = []
    # reference-kernel times around the untraced passes: before the first
    # and after each
    references = [reference()] if reference else []
    start = time.perf_counter()
    while True:
        traced = bool(tracer) and len(walls[True]) < len(walls[False])
        if traced:
            tracer.install()
            lo = tracer.mark()
        elif tracer:
            tracer.uninstall()
        t = time.perf_counter()
        workload.run_pass(ledger)
        walls[traced].append(time.perf_counter() - t)
        if reference:
            references.append(reference())
        if traced:
            pass_ranges.append((lo, tracer.mark()))
        # stop before a further round (a pass, or an untraced and traced pair)
        # would overrun the measuring time; a run has at least one round
        rounds = len(walls[False])
        if not tracer or len(walls[True]) == rounds:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / rounds > args.seconds:
                break
    if tracer:
        tracer.uninstall()

    result.update({
        "walls": walls[False],
        "references": references,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "checks": ledger.checks,
        "failures": ledger.failures,
        "samples": ledger.samples,
        "env": environment(),
    })
    if tracer:
        layers, calls = spans.layer_metrics(
            tracer, setup_range, pass_ranges, walls[True], walls[False])
        result["layers"] = layers
        result["absent"] = tracer.absent
        result["trace_failures"] = spans.call_gate(args.workload, calls, tracer.absent)
        os.makedirs(args.scratch, exist_ok=True)
        with open(os.path.join(args.scratch, f"trace_{args.workload}.jsonl"), "w") as fh:
            for i, span in enumerate(tracer.spans):
                fh.write(json.dumps(span.to_dict(i)) + "\n")
    print("PERFBENCH_RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
