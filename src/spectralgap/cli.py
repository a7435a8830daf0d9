"""Command-line interface: solves, sweeps, bound curves, and the verdict.

Commands
--------
eig       grid eigensolve of one domain (raw / extrapolated / normalized), JSON
sweep     family sweeps onto the (lambda1, lambda2) plane, CSV or JSON
lemma1    cone-corrected upper bound for lambda1 over an eps grid, JSON or CSV
lemma2    cutoff upper bound for lambda2 over an eps grid, JSON or CSV
ratio     horizontal-tangent ratio curve (bound path, optional grid path), CSV or JSON
verify    full default pipeline and the three-check verdict (exit 0 = PASS), JSON
plotdata  attainable-cloud CSV plus the region boundary curves

The first format listed is the default.  Each command takes only the flags
it reads: every command has --dim (2 or 3; the grid solver is planar, so
eig, sweep, verify, plotdata and ratio --with-grid refuse 3) and --out; the
grid commands (all but lemma1 and lemma2) have --seed, --tol and --h, and
those that sweep also --jobs; --format exists where there is a choice.
Values are checked once, at parse time or where they are used, and flags
must be spelled in full.  Floats are printed with 12 significant digits,
and outputs are byte-identical across runs for a fixed config and seed.
"""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys

from . import asymptotics, attainable, testfn
from .analytic import ball_spectrum, theta_spectrum
from .eigensolve import DEFAULT_SEED
from .geometry import (
    Ball, Dumbbell, HalfDumbbell, Rectangle, domain_from_dict, domain_to_dict, two_balls,
)
from .pipeline import halving_levels, solve_domain

__all__ = ["main", "cmd_eig", "cmd_sweep", "cmd_lemma", "cmd_ratio", "cmd_verify",
           "cmd_plotdata"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    pass


# columns of a sweep record, in the field order of attainable.SweepRecord
SWEEP_HEADER = ("family", "param", "h_list", "lambda1_raw", "lambda2_raw", "lambda1_x",
                "lambda2_x", "measure", "t", "lambda1_norm", "lambda2_norm", "bound1",
                "bound2", "err", "failure")
RATIO_HEADER = ("eps", "bound_ratio", "grid_ratio")


def _fmt(x) -> str:
    """One output cell: 12 significant digits, levels joined by ';', empty
    for a missing value (None or NaN), and text unchanged."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (tuple, list)):
        return ";".join(_fmt(v) for v in x)
    return f"{x:.12g}"


def _csv(header, rows) -> str:
    """A header line and one line per row of cells; a cell holding a comma,
    quote or line break is quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(x) for x in row] for row in rows)
    return buf.getvalue()


def _sweep_csv(records) -> str:
    return _csv(SWEEP_HEADER, map(dataclasses.astuple, records))


def _jsonable(obj):
    """Round floats to 12 significant digits for reproducible output; numpy
    scalars are converted to their Python equivalents."""
    if isinstance(obj, bool):
        return obj
    if hasattr(obj, "item") and not isinstance(obj, (dict, list, tuple, str)):
        obj = obj.item()
    if isinstance(obj, float):
        return float(_fmt(obj)) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _dump_json(doc) -> str:
    return json.dumps(_jsonable(doc), indent=2, sort_keys=True)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _parse_h_list(spec: str):
    hs = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        num, slash, den = token.partition("/")
        try:
            hs.append(float(num) / (float(den) if slash else 1.0))
        except ValueError:
            raise ConfigError(f"--h: {token!r} is not a spacing such as 0.05 or 1/20") from None
        except ZeroDivisionError:
            raise ConfigError(f"--h: grid spacing {token!r} has a zero denominator") from None
    try:
        return tuple(halving_levels(hs))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _grid_eps_min(value: float, flag: str) -> float:
    """The smallest eps that is grid-solved; NaN would compare false and
    grid-solve every eps."""
    if math.isnan(value):
        raise ConfigError(f"{flag} must be a number, got nan")
    return value


def _parse_eps_grid(spec: str, eps_max: float):
    if not 0.0 < eps_max <= testfn.EPS_MAX:
        raise ConfigError(
            f"eps-max {eps_max} outside the validated regime (0, {testfn.EPS_MAX}]"
        )
    if spec == "default":
        grid = [e for e in attainable.DEFAULT_EPS_GRID if e <= eps_max + 1e-15]
    else:
        grid = []
        for token in filter(str.strip, spec.split(",")):
            try:
                grid.append(float(token))
            except ValueError:
                raise ConfigError(f"--eps-grid: {token.strip()!r} is not a number") from None
    if not grid:
        raise ConfigError("empty eps grid")
    for e in grid:
        if not 0.0 < e <= eps_max + 1e-15:
            raise ConfigError(f"eps {e} outside (0, {eps_max}]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("eps grid must be strictly increasing")
    return tuple(grid)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.seed
    env = os.environ.get("SPECTRALGAP_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        seed = int(env)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise ConfigError(f"SPECTRALGAP_SEED must be a non-negative integer, got {env!r}")
    return seed


def _parse_domain(args):
    """A domain name first, then inline JSON, then a JSON file."""
    name = args.domain
    named = {
        "ball": lambda: Ball(),
        "disc": lambda: Ball(),
        "theta": two_balls,
        "two_balls": two_balls,
        "square": lambda: Rectangle(width=1.0, height=1.0),
        "dumbbell": lambda: Dumbbell(epsilon=_require_eps(args.eps)),
        "half_dumbbell": lambda: HalfDumbbell(epsilon=_require_eps(args.eps)),
    }
    if name in named:
        return named[name]()
    if name.lstrip().startswith("{"):
        return domain_from_dict(json.loads(name))
    if name.endswith(".json") or os.path.exists(name):
        with open(name) as fh:
            return domain_from_dict(json.load(fh))
    raise ConfigError(f"unknown domain {name!r} (use a name, a JSON file, or inline JSON)")


def _require_eps(eps):
    if eps is None:
        raise ConfigError("this domain needs --eps")
    return eps


def _require_planar(args, command: str):
    if args.dim != 2:
        raise ConfigError(
            f"{command!r} uses the grid solver, which is planar only; "
            f"--dim {args.dim} supports the analytic and quadrature commands "
            f"(lemma1, lemma2, and ratio without --with-grid)"
        )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_eig(args) -> int:
    _require_planar(args, "eig")
    domain = _parse_domain(args)
    h_list = _parse_h_list(args.h)
    seed = _resolve_seed(args)
    solve = solve_domain(domain, h_list, tol=args.tol, seed=seed)
    doc = {
        "domain": domain_to_dict(domain),
        "h": list(solve.h_list),
        "tol": args.tol,
        "seed": seed,
        "measure": solve.measure,
        "t_factor": solve.t_factor,
        **{f"lambda{i + 1}": {"raw": solve.raw(i), "extrapolated": solve.lambda_x[i],
                              "order": solve.orders[i], "normalized": solve.lambda_norm[i],
                              "error_est": solve.error_est[i]} for i in range(2)},
        "residuals": [float(r) for r in solve.levels[-1].residuals],
        "iterations": list(solve.levels[-1].iterations),
        "levels": [{"h": lv.h, "n": lv.n, "iterations": list(lv.iterations),
                    "inner_iterations": list(lv.inner_iterations),
                    "residuals": [float(r) for r in lv.residuals]} for lv in solve.levels],
    }
    _emit(_dump_json(doc), args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    _require_planar(args, "sweep")
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    unknown = [f for f in families if f not in attainable.DEFAULT_FAMILIES]
    if unknown:
        raise ConfigError(f"unknown families {unknown}; "
                          f"known: {sorted(attainable.DEFAULT_FAMILIES)}")
    records = attainable.default_sweep(_sweep_config(args), families=families)
    if args.format == "json":
        _emit(_dump_json([dataclasses.asdict(r) for r in records]), args.out)
    else:
        _emit(_sweep_csv(records), args.out)
    return EXIT_OK


def _sweep_config(args, **overrides):
    return attainable.SweepConfig(h_list=_parse_h_list(args.h), tol=args.tol,
                                  seed=_resolve_seed(args), jobs=args.jobs, **overrides)


def cmd_lemma(args, which: str) -> int:
    if args.eps is not None:
        if not 0.0 < args.eps <= testfn.EPS_MAX:
            raise ConfigError(f"--eps must lie in (0, {testfn.EPS_MAX}], got {args.eps}")
        eps_grid = (args.eps,)
    else:
        eps_grid = _parse_eps_grid(args.eps_grid, args.eps_max)
    rayleigh, key = ((testfn.lemma1_rayleigh, "deficit") if which == "lemma1"
                     else (testfn.lemma2_rayleigh, "excess"))
    bounds = [rayleigh(e, dim=args.dim) for e in eps_grid]
    rows = [(b.epsilon, b.quotient, getattr(b, key), b.error_est) for b in bounds]
    if args.format == "csv":
        _emit(_csv(("eps", "quotient", key, "err"), rows), args.out)
    else:
        keys = ("eps", "quotient", key, "error_est")
        _emit(_dump_json([dict(zip(keys, row)) for row in rows]), args.out)
    return EXIT_OK


def _ratio_rows(bound, grid):
    """(eps, bound ratio, grid ratio or None) for each bound-path sample."""
    grid_map = dict(grid)
    return [(e, rb, grid_map.get(e)) for e, rb in bound]


def cmd_ratio(args) -> int:
    if args.with_grid:
        _require_planar(args, "ratio --with-grid")
    eps_grid = _parse_eps_grid(args.eps_grid, args.eps_max)
    if args.with_grid:
        grid_eps_min = _grid_eps_min(args.grid_eps_min, "--grid-eps-min")
        config = _sweep_config(args, grid_eps_min=grid_eps_min)
    else:
        config = attainable.SweepConfig(grid_eps_min=math.inf, jobs=args.jobs, dim=args.dim)
    records = attainable.sweep("dumbbell", eps_grid, config)
    curves = asymptotics.ratio_curve(records, dim=args.dim)
    rows = _ratio_rows(curves.bound, curves.grid)
    if args.format == "json":
        _emit(_dump_json([dict(zip(RATIO_HEADER, row)) for row in rows]), args.out)
    else:
        _emit(_csv(RATIO_HEADER, rows), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    _require_planar(args, "verify")
    eps_grid = _parse_eps_grid(args.eps_grid, args.eps_max)
    grid_eps_min = (math.inf if args.no_grid_check
                    else _grid_eps_min(args.grid_check_eps, "--grid-check-eps"))
    config = _sweep_config(args, grid_eps_min=grid_eps_min)
    records = attainable.sweep("dumbbell", eps_grid, config)
    verdict = asymptotics.verify_theorem(records)

    crosscheck = []
    if not args.no_grid_check:
        for rec in records:
            if rec.lambda1_norm is None or rec.bound1 is None:
                continue
            crosscheck.append({
                "eps": rec.param,
                "bound1": rec.bound1,
                "lambda1_norm": rec.lambda1_norm,
                "bound2": rec.bound2,
                "lambda2_norm": rec.lambda2_norm,
                "budget": rec.error_est,
                "bound1_above_grid": rec.bound1 >= rec.lambda1_norm - rec.error_est,
                "bound2_above_grid": rec.bound2 >= rec.lambda2_norm - rec.error_est,
            })

    data_csv = args.data_out
    if data_csv is None and args.out:
        root, _ = os.path.splitext(args.out)
        data_csv = root + "_data.csv"
    if data_csv is None:
        data_csv = "ratio_curve.csv"
    with open(data_csv, "w") as fh:
        fh.write(_csv(RATIO_HEADER, _ratio_rows(verdict.ratio_bound, verdict.ratio_grid)))

    doc = {**_verdict_doc(verdict), "data_csv_path": data_csv, "grid_crosscheck": crosscheck}
    _emit(_dump_json(doc), args.out)
    return EXIT_OK if verdict.passed else EXIT_FAIL


def _verdict_doc(verdict) -> dict:
    """The verdict's part of the verify document: the checks, both ratio
    curves and the fit."""
    return {
        "pass": verdict.passed,
        "checks": [{"name": c.name, "pass": c.passed, "detail": c.detail}
                   for c in verdict.checks],
        "ratio_bound": verdict.ratio_bound,
        "ratio_grid": verdict.ratio_grid,
        "fit": dataclasses.asdict(verdict.fit),
    }


def cmd_plotdata(args) -> int:
    _require_planar(args, "plotdata")
    records = attainable.default_sweep(_sweep_config(args))
    prefix = args.out or "plotdata"
    cloud_path = f"{prefix}_cloud.csv"
    boundary_path = f"{prefix}_boundary.csv"
    with open(cloud_path, "w") as fh:
        fh.write(_sweep_csv(records))

    spec = ball_spectrum(2)
    lam_p = theta_spectrum(2)[0]
    slope = spec.lambda2 / spec.lambda1
    t_max = 3.0 * lam_p
    samples = 50
    diag = [lam_p + (t_max - lam_p) * i / samples for i in range(samples + 1)]
    ab_line = [spec.lambda1 + (t_max - spec.lambda1) * i / samples for i in range(samples + 1)]
    rows = [("P", lam_p, lam_p), ("Q", spec.lambda1, spec.lambda2)]
    rows += [("diag", t, t) for t in diag] + [("ab_line", t, slope * t) for t in ab_line]
    with open(boundary_path, "w") as fh:
        fh.write(_csv(("kind", "x", "y"), rows))
    sys.stdout.write(f"{cloud_path}\n{boundary_path}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectralgap",
        description="first two Dirichlet-Laplacian eigenvalues of planar domains: "
                    "grid solves, trial-field upper bounds, attainable-set data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, fmt=None, grid=True, jobs=True):
        """A subcommand with the flags it reads: ``fmt`` is its default output
        format (no --format without one); grid commands read the solver
        settings, and those that sweep read --jobs."""
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--dim", type=int, choices=(2, 3), default=2, help="ambient dimension")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if fmt is not None:
            p.add_argument("--format", choices=("json", "csv"), default=fmt)
        if grid:
            p.add_argument("--seed", type=int, default=None,
                           help=f"RNG seed (default {DEFAULT_SEED}; env SPECTRALGAP_SEED "
                                f"applies when the flag is absent)")
            p.add_argument("--tol", type=_positive_float, default=1e-6,
                           help="eigenvalue tolerance")
            p.add_argument("--h", default="1/32,1/64,1/128",
                           help="comma list of two or more grid spacings in halving ratio")
        if grid and jobs:
            p.add_argument("--jobs", type=_positive_int, default=1,
                           help="parallel sweep workers")
        p.set_defaults(func=func)
        return p

    p = command("eig", cmd_eig, "grid eigensolve of one domain (JSON)", jobs=False)
    p.add_argument("--domain", required=True,
                   help="ball|theta|square|dumbbell|half_dumbbell, inline JSON, or a JSON file")
    p.add_argument("--eps", type=float, default=None,
                   help="dumbbell junction parameter, 0 < eps < 1")

    p = command("sweep", cmd_sweep, "family sweeps, CSV by default", fmt="csv")
    p.add_argument("--families", default=",".join(attainable.DEFAULT_FAMILIES),
                   help="comma list of sweep families")

    for name in ("lemma1", "lemma2"):
        p = command(name, lambda a, w=name: cmd_lemma(a, w), f"{name} bound over an eps grid",
                    fmt="json", grid=False)
        p.add_argument("--eps", type=float, default=None, help="single eps")
        p.add_argument("--eps-grid", default="default", help="comma list or 'default'")
        p.add_argument("--eps-max", type=float, default=0.2)

    p = command("ratio", cmd_ratio, "horizontal-tangent ratio curve", fmt="csv")
    p.add_argument("--eps-grid", default="default")
    p.add_argument("--eps-max", type=float, default=0.2)
    p.add_argument("--with-grid", action="store_true",
                   help="add grid-path ratios for eps >= --grid-eps-min")
    p.add_argument("--grid-eps-min", type=float, default=0.1)

    p = command("verify", cmd_verify, "run the default pipeline and verdict (JSON)")
    p.add_argument("--eps-grid", default="default")
    p.add_argument("--eps-max", type=float, default=0.2)
    p.add_argument("--no-grid-check", action="store_true",
                   help="skip the grid cross-check of the bounds")
    p.add_argument("--grid-check-eps", type=float, default=0.2,
                   help="grid-solve dumbbells with eps >= this for the cross-check")
    p.add_argument("--data-out", default=None, help="ratio-curve CSV path")

    command("plotdata", cmd_plotdata, "attainable cloud and region boundary CSVs")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        # ValueError covers ConfigError and json.JSONDecodeError
        kind = "config" if isinstance(exc, ConfigError) else type(exc).__name__
        sys.stderr.write(_dump_json({"error": str(exc), "kind": kind}) + "\n")
        return EXIT_CONFIG if args.command == "verify" else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
