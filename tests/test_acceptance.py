"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line.  All tolerances are fixed here, none are tuned at runtime; the heavy
grid solves come from timed session fixtures shared with the module tests."""

import math
import subprocess
import sys
import time

import numpy as np
from scipy import optimize, special

from conftest import cli_env
from spectralgap import analytic, asymptotics, attainable, geometry, testfn
from spectralgap.eigensolve import smallest_pairs
from spectralgap import discretize

RATE_WINDOW = (0.005, 0.1)


def criterion(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def brentq_zero(nu, k):
    """Independent root-finding oracle on scipy's Bessel evaluation."""
    xs = np.arange(max(nu, 0.1), 60.0, 0.05)
    vals = special.jv(nu, xs)
    idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    a, b = xs[idx[k - 1]], xs[idx[k - 1] + 1]
    return optimize.brentq(lambda x: special.jv(nu, x), a, b, xtol=1e-15, rtol=8.9e-16)


def test_criterion_1_exact_spectrum_oracle():
    analytic.ball_spectrum.cache_clear()
    t0 = time.perf_counter()
    spec = analytic.ball_spectrum(2)
    lam_theta = analytic.theta_spectrum(2)
    elapsed = time.perf_counter() - t0

    lam1_oracle = brentq_zero(0.0, 1) ** 2
    lam2_oracle = brentq_zero(1.0, 1) ** 2
    ok = (
        abs(spec.lambda1 - lam1_oracle) <= 1e-10 * lam1_oracle
        and abs(spec.lambda2 - lam2_oracle) <= 1e-10 * lam2_oracle
        and lam_theta[0] == lam_theta[1]
        and abs(lam_theta[0] - 2.0 ** (2.0 / 2.0) * spec.lambda1) <= 4 * np.spacing(lam_theta[0])
        and elapsed < 1.0
    )
    assert criterion(
        1, "exact ball spectrum matches the independent root oracle", ok,
        f"lam1 rel {abs(spec.lambda1 - lam1_oracle) / lam1_oracle:.1e}, "
        f"lam2 rel {abs(spec.lambda2 - lam2_oracle) / lam2_oracle:.1e}, {elapsed:.2f}s")


def test_criterion_2_grid_convergence(disc_solve_fine):
    solve = disc_solve_fine.value
    spec = analytic.ball_spectrum(2)
    rel1 = abs(solve.lambda_x[0] - spec.lambda1) / spec.lambda1
    rel2 = abs(solve.lambda_x[1] - spec.lambda2) / spec.lambda2
    orders_ok = all(o is not None and 0.8 <= o <= 2.2 for o in solve.orders)
    ok = rel1 <= 0.005 and rel2 <= 0.01 and orders_ok and disc_solve_fine.seconds < 120.0
    assert criterion(
        2, "disc eigenvalues converge on {1/64,1/128,1/256}", ok,
        f"rel errors {rel1:.2e}/{rel2:.2e}, orders {tuple(round(o, 2) for o in solve.orders)}, "
        f"{disc_solve_fine.seconds:.0f}s")


def test_criterion_3_two_ball_endpoint(twoballs_solve):
    solve = twoballs_solve.value
    lam_p = analytic.theta_spectrum(2)[0]
    rel1 = abs(solve.lambda_norm[0] - lam_p) / lam_p
    rel2 = abs(solve.lambda_norm[1] - lam_p) / lam_p
    degeneracy = abs(solve.lambda_x[0] - solve.lambda_x[1]) / solve.lambda_x[0]
    ok = (rel1 <= 0.01 and rel2 <= 0.01 and degeneracy <= 1e-3
          and twoballs_solve.seconds < 120.0)
    assert criterion(
        3, "two equal balls land on the corner with a resolved degenerate pair", ok,
        f"rel {rel1:.2e}/{rel2:.2e}, split {degeneracy:.1e}, {twoballs_solve.seconds:.0f}s")


def test_criterion_4_first_bound_rate(lemma_bounds):
    bounds = lemma_bounds.value
    deficits = [(eps, b1.deficit) for eps, (b1, _) in sorted(bounds.items())]
    all_positive = all(d > 0 for _, d in deficits)
    fit = asymptotics.fit_slope(deficits, window=RATE_WINDOW)
    ok = (all_positive and 0.85 <= fit.exponent <= 1.15 and fit.r_squared >= 0.99
          and lemma_bounds.seconds < 60.0)
    assert criterion(
        4, "cone-corrected bound dips at the predicted eps^(N/2) rate", ok,
        f"slope {fit.exponent:.4f}, r2 {fit.r_squared:.5f}, "
        f"positive on all {len(deficits)} eps, {lemma_bounds.seconds:.0f}s")


def test_criterion_5_second_bound_rate(lemma_bounds):
    bounds = lemma_bounds.value
    excesses = [(eps, b2.excess) for eps, (_, b2) in sorted(bounds.items())]
    all_positive = all(x > 0 for _, x in excesses)
    fit = asymptotics.fit_slope(excesses, window=RATE_WINDOW)
    ok = (all_positive and fit.exponent >= 1.35 and fit.r_squared >= 0.99
          and lemma_bounds.seconds < 60.0)
    assert criterion(
        5, "cutoff bound exceeds at the predicted eps^((N+1)/2) rate", ok,
        f"slope {fit.exponent:.4f} (target 1.5), r2 {fit.r_squared:.5f}")


def test_criterion_6_variational_consistency(dumbbell_solves, lemma_bounds):
    solves = dumbbell_solves.value
    bounds = lemma_bounds.value
    ok = dumbbell_solves.seconds < 600.0
    details = []
    for eps, (dumb, half) in sorted(solves.items()):
        b1 = bounds[eps][0] if eps in bounds else testfn.lemma1_rayleigh(eps)
        b2 = bounds[eps][1] if eps in bounds else testfn.lemma2_rayleigh(eps)
        tol1 = float(dumb.error_est_raw[0]) + b1.error_est
        tol2 = float(half.error_est_raw[0]) + b2.error_est
        ok1 = b1.quotient >= float(dumb.lambda_x[0]) - tol1
        ok2 = b2.quotient >= float(half.lambda_x[0]) - tol2
        ok = ok and ok1 and ok2
        details.append(f"eps {eps}: {b1.quotient:.4f}>={float(dumb.lambda_x[0]):.4f}, "
                       f"{b2.quotient:.4f}>={float(half.lambda_x[0]):.4f}")
    assert criterion(
        6, "quadrature bounds stay above the grid eigenvalues", ok,
        "; ".join(details) + f"; {dumbbell_solves.seconds:.0f}s")


def test_criterion_7_odd_reflection_inequality(dumbbell_solves):
    solves = dumbbell_solves.value
    ok = True
    details = []
    for eps, pair in sorted(solves.items()):
        report = testfn.odd_extension_check(*pair)
        ok = ok and report.upper_bound_ok and report.symmetry_ok
        details.append(f"eps {eps}: gap {report.gap:.1e}, corr {report.symmetry_correlation:.4f}")
    assert criterion(
        7, "lambda2(dumbbell) <= lambda1(half) with an odd second mode", ok,
        "; ".join(details))


def test_criterion_8_theorem_verdict(default_sweep_records):
    t0 = time.perf_counter()
    records = [r for r in default_sweep_records.value if r.family == "dumbbell"]
    verdict = asymptotics.verify_theorem(records)
    elapsed = time.perf_counter() - t0
    grid_ratios = dict(verdict.ratio_grid)
    grid_ok = all(r >= 0 for r in grid_ratios.values())
    bound_ok = all(r >= 0 for _, r in verdict.ratio_bound)
    ok = verdict.passed and grid_ok and bound_ok and elapsed < 300.0
    assert criterion(
        8, "ratio curve certifies the horizontal tangent at the corner", ok,
        "; ".join(f"{c.name}: {c.detail}" for c in verdict.checks))


def test_criterion_9_region_inclusion(default_sweep_records):
    records = default_sweep_records.value
    ok = True
    failures = []
    for rec in records:
        report = attainable.region_check(rec)
        if not report.passed:
            ok = False
            failures.append(f"{rec.family}({rec.param})")
    square = next(r for r in records if r.family == "rectangles" and r.param == 1.0)
    sq_ok = (abs(square.lambda1_norm - 2.0 * math.pi) <= 0.01 * 2.0 * math.pi
             and abs(square.lambda2_norm - 5.0 * math.pi) <= 0.01 * 5.0 * math.pi)
    ok = ok and sq_ok
    assert criterion(
        9, "every sweep record satisfies the sharp region inclusions", ok,
        f"{len(records)} records, square at ({square.lambda1_norm:.4f}, "
        f"{square.lambda2_norm:.4f})" + (f"; failures: {failures}" if failures else ""))


def test_criterion_10_property_suites(disc_solve_fine):
    rng = np.random.default_rng(20250808)
    failures = []

    # gradient vs central finite differences, 1000 samples over both fields
    eps = 0.12
    f1 = testfn.Lemma1Function(eps)
    f2 = testfn.Lemma2Function(eps)
    a = geometry.junction_radius(eps)
    pts = []
    while len(pts) < 1000:
        cand = rng.uniform([-2.0 + eps, -1.0], [2.0 - eps, 1.0], size=(4000, 2))
        keep = geometry.contains(geometry.Dumbbell(eps), cand)
        x1 = np.abs(cand[:, 0])
        r = np.sqrt((x1 - (1.0 - eps)) ** 2 + cand[:, 1] ** 2)
        keep &= ((np.abs(cand[:, 0]) > 1e-3)
                 & (np.abs(a - x1 - np.abs(cand[:, 1])) > 1e-4)
                 & (np.abs(cand[:, 1]) > 1e-4)
                 & (np.abs(x1 - eps) > 1e-4)
                 & (r < 1.0 - 1e-3))
        pts.extend(cand[keep])
    pts = np.array(pts[:1000])
    half_pts = np.abs(pts)  # the cutoff field lives on the half domain
    step = 1e-6
    for field, sample in ((f1.field, pts), (f2.field, half_pts)):
        _, grads = field(sample)
        for axis in range(2):
            shift = np.zeros(2)
            shift[axis] = step
            fd = (field(sample + shift)[0] - field(sample - shift)[0]) / (2 * step)
            rel = np.abs(fd - grads[:, axis]) / np.maximum(np.abs(grads[:, axis]), 1e-3)
            if np.max(rel) > 1e-5:
                failures.append(f"gradient mismatch {np.max(rel):.1e}")

    # scaling invariants: eigenvalue rescale roundtrip and membership of
    # scaled domains, 1000 samples each
    spec = analytic.ball_spectrum(2)
    inner = geometry.Dumbbell(0.15)
    for _ in range(1000):
        t = float(rng.uniform(0.2, 4.0))
        lam = float(rng.uniform(0.5, 40.0))
        back = analytic.rescale_eigenvalue(analytic.rescale_eigenvalue(lam, t), 1.0 / t)
        if abs(back - lam) > 4.0 * np.spacing(lam):
            failures.append("rescale roundtrip")
        x = rng.uniform(-3.0, 3.0, size=2)
        if geometry.contains(geometry.Scaled(t, inner), x) != geometry.contains(inner, x / t):
            failures.append("scaled membership")

    # homogeneity of the Rayleigh quotient under field scaling
    from conftest import ball_ground_state_field
    q1, _ = testfn.rayleigh_quotient(geometry.Ball(), ball_ground_state_field(),
                                     rel_tol=1e-6)
    q2, _ = testfn.rayleigh_quotient(geometry.Ball(), ball_ground_state_field(scale=11.3),
                                     rel_tol=1e-6)
    if abs(q1 - q2) > 1e-12 * abs(q1):
        failures.append("quotient homogeneity")
    if abs(q1 - spec.lambda1) > 1e-6 * spec.lambda1:
        failures.append("quotient value")

    # determinism: eigensolver and CLI
    op = discretize.assemble(discretize.build_grid(geometry.Ball(), 1 / 16))
    r1 = smallest_pairs(op, tol=1e-8, seed=42)
    r2 = smallest_pairs(op, tol=1e-8, seed=42)
    if not (np.array_equal(r1.values, r2.values) and r1.iterations == r2.iterations
            and np.array_equal(r1.vectors, r2.vectors)):
        failures.append("solver determinism")
    cli = [sys.executable, "-m", "spectralgap.cli", "lemma1", "--eps", "0.08"]
    out1 = subprocess.run(cli, capture_output=True, text=True, env=cli_env()).stdout
    out2 = subprocess.run(cli, capture_output=True, text=True, env=cli_env()).stdout
    if out1 != out2 or not out1:
        failures.append("cli determinism")

    ok = not failures
    assert criterion(
        10, "randomized property suites run clean at 1000 samples", ok,
        "no failures" if ok else "; ".join(sorted(set(failures))))
