"""The benchmark's workloads and the correctness gate of every operation.

Each workload is built from the benchmark seed, warms up with a small call
of its first operation, and runs one pass per :meth:`run_pass`.  An
operation (one domain solve, one ``verify``, one bound) fails when it raises
or when any of its gate checks fails.  Values are compared with pinned
references within the error budget each result reports, never byte for
byte, so a solver change that moves eigenvalues in the last digits passes.

Import this module only after the BLAS thread count is fixed (see
``worker.py``): it loads numpy.
"""

import json
import math
import os
import shutil
import tempfile
import time

import numpy as np

from spectralgap import analytic, cli, pipeline, testfn
from spectralgap.geometry import Ball

TOL = 1e-6


class Gate:
    """Correctness checks of one operation; ``failures`` lists those broken."""

    def __init__(self):
        self.checked = 0
        self.failures = []

    def __call__(self, ok, message):
        self.checked += 1
        if not ok:
            self.failures.append(message)


class Ledger:
    """Operations attempted and failed, gate checks run, and samples of the
    workload-specific metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.failures = []
        self.samples = {}

    def op(self, label, fn):
        """Run ``fn(gate)`` as one operation."""
        self.attempted += 1
        gate = Gate()
        try:
            fn(gate)
        except Exception as exc:  # a raising operation is a failed operation
            gate.failures.append(f"raised {type(exc).__name__}: {exc}")
        self.checks += gate.checked
        if gate.failures:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{label}: {'; '.join(gate.failures)}")

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)


class GridDisc:
    """The disc at h = 1/32, 1/64, 1/128, as ``spectralgap eig --domain ball``
    runs it; only the grid layers work.  Coarser grids fail the accuracy and
    fitted-order gates, so the smoke run uses the same grids."""

    H = (1 / 32, 1 / 64, 1 / 128)
    WARM_H = (1 / 8, 1 / 16, 1 / 32)

    def __init__(self, seed, smoke, scratch):
        self.seed = seed
        spec = analytic.ball_spectrum(2)
        self.exact = (spec.lambda1, spec.lambda2)  # j_{0,1}^2 and j_{1,1}^2

    def warm_up(self):
        pipeline.solve_domain(Ball(), self.WARM_H, tol=TOL, k=2, seed=self.seed)

    def run_pass(self, ledger):
        ledger.op("solve_domain(Ball)", lambda gate: self._solve(ledger, gate))

    def _solve(self, ledger, gate):
        solve = pipeline.solve_domain(Ball(), self.H, tol=TOL, k=2, seed=self.seed)
        finest = solve.levels[-1]
        rel = []
        for i, (exact, limit) in enumerate(zip(self.exact, (5e-3, 1e-2))):
            value = float(solve.lambda_x[i])
            rel.append(abs(value - exact) / exact)
            gate(rel[i] <= limit, f"lambda{i + 1} relative error {rel[i]:.3g} > {limit:g}")
            budget = float(solve.error_est_raw[i])
            gate(abs(value - exact) <= budget,
                 f"lambda{i + 1} = {value!r} misses the exact {exact!r} by more than "
                 f"its error budget {budget:.3g}")
            order = solve.orders[i]
            gate(order is not None and 0.8 <= order <= 2.2,
                 f"lambda{i + 1} fitted order {order} outside [0.8, 2.2]")
            resid = float(finest.residuals[i])
            gate(resid <= TOL * float(finest.values[i]),
                 f"lambda{i + 1} finest residual {resid:.3g} > tol * lambda")
        ledger.sample("disc_rel_err", max(rel))


# ratio_bound on the default eps grid as the bound path computes it.  The bounds carry
# quadrature budgets below 1e-9 relative; 1e-6 leaves room for their
# amplification in the ratio's difference quotient.
PINNED_RATIO = (
    0.142826190161, 0.163357811131, 0.185847554138, 0.210229239668,
    0.236379653918, 0.264115524775, 0.293178264762, 0.323179663807,
    0.353458376664, 0.382774023433, 0.408784883701, 0.421974504679,
)
PINNED_EXPONENT = 0.327551490805
RATIO_RTOL = 1e-6
# normalized grid pair of Dumbbell(0.2), checked within the reported budget
PINNED_GRID = {
    "1/16,1/32,1/64": (8.2972693703, 11.7079838471),
    "1/8,1/16,1/32": (8.22648445911, 11.7355235385),
}


class VerifyCoarse:
    """``spectralgap verify`` in process with default arguments except the
    grids, h = 1/16, 1/32, 1/64 (the smoke run and the warm-up: 1/8, 1/16,
    1/32): 24 N = 2 bounds, one ``Dumbbell(0.2)`` grid solve, the verdict,
    JSON and CSV.  At the default h = 1/32, 1/64, 1/128 one pass takes
    15-30 s, too few per run to give a steady median on a shared machine.
    Outputs go to a temporary directory under ``scratch`` that is removed
    after each pass."""

    def __init__(self, seed, smoke, scratch):
        self.seed = seed
        self.scratch = scratch
        self.h = "1/8,1/16,1/32" if smoke else "1/16,1/32,1/64"

    def _main(self, h):
        os.makedirs(self.scratch, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="verify-", dir=self.scratch)
        try:
            out = os.path.join(tmp, "verdict.json")
            data = os.path.join(tmp, "ratio_curve.csv")
            code = cli.main(["verify", "--seed", str(self.seed), "--out", out,
                             "--data-out", data, "--h", h])
            with open(out) as fh:
                doc = json.load(fh)
            with open(data) as fh:
                rows = fh.read().splitlines()[1:]
        finally:
            shutil.rmtree(tmp)
        return code, doc, rows

    def warm_up(self):
        self._main("1/8,1/16,1/32")

    def run_pass(self, ledger):
        ledger.op("verify", self._verify)

    def _verify(self, gate):
        code, doc, rows = self._main(self.h)
        gate(code == 0, f"exit code {code}")
        checks = doc["checks"]
        gate(doc["pass"] is True and len(checks) == 3 and all(c["pass"] for c in checks),
             f"verdict checks {[(c['name'], c['pass']) for c in checks]}")
        cross = doc["grid_crosscheck"]
        gate(len(cross) > 0 and all(c["bound1_above_grid"] and c["bound2_above_grid"]
                                    for c in cross),
             f"grid cross-check flags {cross}")
        gate(len(rows) == 12, f"ratio CSV has {len(rows)} rows, expected 12")
        ratios = [r for _, r in doc["ratio_bound"]]
        gate(len(ratios) == len(PINNED_RATIO) and all(
            abs(r - p) <= RATIO_RTOL * abs(p) for r, p in zip(ratios, PINNED_RATIO)),
            f"ratio_bound {ratios} differs from the pinned curve")
        exponent = doc["fit"]["exponent"]
        gate(abs(exponent - PINNED_EXPONENT) <= RATIO_RTOL * PINNED_EXPONENT,
             f"fitted exponent {exponent} differs from {PINNED_EXPONENT}")
        pinned = PINNED_GRID[self.h]
        for c in cross:
            for key, ref in zip(("lambda1_norm", "lambda2_norm"), pinned):
                gate(abs(c[key] - ref) <= c["budget"],
                     f"{key} = {c[key]} misses {ref} by more than its budget {c['budget']}")


class BoundsDense:
    """Both trial-field bounds for N = 2 and N = 3 at eps drawn log-uniformly
    from [1e-3, 0.3]; only quadrature, testfn and the analytic profiles work.
    Each pass repeats the same draws and times every bound."""

    EPS_RANGE = (1e-3, 0.3)
    DRAWS = 48
    SMOKE_DRAWS = 2

    def __init__(self, seed, smoke, scratch):
        rng = np.random.default_rng(seed)
        lo, hi = np.log(self.EPS_RANGE)
        draws = self.SMOKE_DRAWS if smoke else self.DRAWS
        self.eps = [float(e) for e in np.exp(rng.uniform(lo, hi, size=draws))]
        self.lambda1 = {dim: analytic.ball_spectrum(dim).lambda1 for dim in (2, 3)}

    def warm_up(self):
        for dim in (2, 3):
            testfn.lemma1_rayleigh(0.01, dim=dim)
            testfn.lemma2_rayleigh(0.01, dim=dim)

    def run_pass(self, ledger):
        for eps in self.eps:
            for dim in (2, 3):
                for which in ("lemma1", "lemma2"):
                    ledger.op(f"{which} eps={eps!r} N={dim}",
                              lambda gate: self._bound(ledger, gate, which, eps, dim))

    def _bound(self, ledger, gate, which, eps, dim):
        fn = getattr(testfn, f"{which}_rayleigh")  # looked up per call: the tracer may wrap it
        t = time.perf_counter()
        bound = fn(eps, dim=dim)
        ledger.sample("bound_ms", (time.perf_counter() - t) * 1e3)
        q, err = bound.quotient, bound.error_est
        lam = self.lambda1[dim]
        gate(math.isfinite(q) and math.isfinite(err), f"non-finite quotient {q} or error {err}")
        gate(0.0 <= err <= 1e-6 * abs(q), f"error_est {err} > 1e-6 * quotient {q}")
        if which == "lemma1":
            gate(q + err < lam, f"quotient {q} not below lambda1(ball) = {lam}")
        else:
            gate(q - err > lam, f"quotient {q} not above lambda1(ball) = {lam}")


WORKLOADS = {
    "grid_disc": GridDisc,
    "verify_coarse": VerifyCoarse,
    "bounds_dense": BoundsDense,
}
