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
it reads, and each setting has one flag: every command has --out; all but
eig, sweep and plotdata, which only solve planar grids, have --dim (2 or 3;
ratio and verify refuse 3 when they grid-solve); the grid commands (all but
lemma1 and lemma2) have --seed, --tol and --h, and those that sweep also
--jobs; --format exists where there is a choice.  An eig --domain name is
a kind of geometry.KINDS or one of DOMAIN_ALIASES.
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
from .geometry import KINDS, domain_from_dict, domain_to_dict, normalization
from .pipeline import halving_levels, solve_domain

__all__ = ["main", "cmd_eig", "cmd_sweep", "cmd_lemma", "cmd_ratio", "cmd_verify",
           "cmd_plotdata"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    pass


# columns of a sweep record: the fields of attainable.SweepRecord in order,
# two of them under shorter names
SWEEP_HEADER = tuple({"t_factor": "t", "error_est": "err"}.get(f.name, f.name)
                     for f in dataclasses.fields(attainable.SweepRecord))
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


def _parse_eps_grid(spec: str):
    """A strictly increasing eps grid inside the bounds' regime
    [testfn.EPS_MIN, testfn.EPS_MAX]; "default" is attainable.DEFAULT_EPS_GRID."""
    if spec == "default":
        grid = list(attainable.DEFAULT_EPS_GRID)
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
        if not testfn.EPS_MIN <= e <= testfn.EPS_MAX:
            raise ConfigError(f"eps {e} outside the bounds' regime "
                              f"[{testfn.EPS_MIN}, {testfn.EPS_MAX}]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("eps grid must be strictly increasing")
    return tuple(grid)


def _seed(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    return args.seed


# eig --domain names besides the kinds of geometry.KINDS: name -> (kind, params)
DOMAIN_ALIASES = {"disc": ("ball", {}), "theta": ("two_balls", {}),
                  "square": ("rectangle", {"width": 1.0, "height": 1.0})}


def _parse_domain(args):
    """A kind or alias name first, then inline JSON, then a JSON file.  A name
    is the planar document of that kind, with --eps, when given, as its
    epsilon; a document states its own."""
    name = args.domain
    if name in KINDS or name in DOMAIN_ALIASES:
        kind, params = DOMAIN_ALIASES.get(name, (name, {}))
        if args.eps is not None:
            params = {**params, "epsilon": args.eps}
        return domain_from_dict({"kind": kind, "N": 2, "params": params})
    if name.lstrip().startswith("{"):
        doc = json.loads(name)
    elif name.endswith(".json") or os.path.exists(name):
        with open(name) as fh:
            doc = json.load(fh)
    else:
        raise ConfigError(f"unknown domain {name!r} (use a name, a JSON file, or inline JSON)")
    if args.eps is not None:
        raise ConfigError("--eps sets a named domain's epsilon; a JSON document "
                          "gives its own in params")
    return domain_from_dict(doc)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_eig(args) -> int:
    domain = _parse_domain(args)
    h_list = _parse_h_list(args.h)
    seed = _seed(args)
    solve = solve_domain(domain, h_list, tol=args.tol, seed=seed)
    measure, t, norm_factor = normalization(domain)
    doc = {
        "domain": domain_to_dict(domain),
        "h": list(solve.h_list),
        "tol": args.tol,
        "seed": seed,
        "measure": measure,
        "t_factor": t,
        **{f"lambda{i + 1}": {"raw": solve.raw(i), "extrapolated": solve.lambda_x[i],
                              "order": solve.orders[i],
                              "normalized": solve.lambda_x[i] * norm_factor,
                              "error_est": solve.error_est_raw[i] * norm_factor}
           for i in range(2)},
        "residuals": [float(r) for r in solve.levels[-1].residuals],
        "iterations": list(solve.levels[-1].iterations),
        "levels": [{"h": h, "n": len(lv.vectors), "iterations": list(lv.iterations),
                    "inner_iterations": list(lv.inner_iterations),
                    "residuals": [float(r) for r in lv.residuals]}
                   for h, lv in zip(solve.h_list, solve.levels)],
    }
    _emit(_dump_json(doc), args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    if not families:
        raise ConfigError("empty family list")
    repeated = sorted({f for f in families if families.count(f) > 1})
    if repeated:
        raise ConfigError(f"repeated families {repeated}")
    unknown = [f for f in families if f not in attainable.DEFAULT_FAMILIES]
    if unknown:
        raise ConfigError(f"unknown families {unknown}; "
                          f"known: {sorted(attainable.DEFAULT_FAMILIES)}")
    records = attainable.sweep({f: attainable.DEFAULT_FAMILIES[f] for f in families},
                               _sweep_config(args))
    if args.format == "json":
        _emit(_dump_json([dataclasses.asdict(r) for r in records]), args.out)
    else:
        _emit(_sweep_csv(records), args.out)
    return EXIT_OK


def _sweep_config(args, **overrides):
    return attainable.SweepConfig(h_list=_parse_h_list(args.h), tol=args.tol,
                                  seed=_seed(args), jobs=args.jobs, **overrides)


def cmd_lemma(args, which: str) -> int:
    eps_grid = _parse_eps_grid(args.eps_grid)
    rayleigh, key = ((testfn.lemma1_rayleigh, "deficit") if which == "lemma1"
                     else (testfn.lemma2_rayleigh, "excess"))
    bounds = rayleigh(eps_grid, dim=args.dim)
    rows = [(b.epsilon, b.quotient, getattr(b, key), b.error_est) for b in bounds]
    if args.format == "csv":
        _emit(_csv(("eps", "quotient", key, "err"), rows), args.out)
    else:
        keys = ("eps", "quotient", key, "error_est")
        _emit(_dump_json([dict(zip(keys, row)) for row in rows]), args.out)
    return EXIT_OK


def _dumbbell_records(args, command: str):
    """Sweep records of the dumbbells over --eps-grid: bounds for every eps,
    and grid eigenvalues for those at or above --grid-eps-min (NaN would
    compare false and grid-solve every eps), which need --dim 2."""
    eps_grid = _parse_eps_grid(args.eps_grid)
    if math.isnan(args.grid_eps_min):
        raise ConfigError("--grid-eps-min must be a number, got nan")
    if eps_grid[-1] >= args.grid_eps_min and args.dim != 2:
        raise ConfigError(
            f"{command!r} uses the grid solver, which is planar only; "
            f"--dim {args.dim} supports the analytic and quadrature commands "
            f"(lemma1, lemma2, and ratio and verify with --grid-eps-min above "
            f"every eps of --eps-grid)"
        )
    config = _sweep_config(args, grid_eps_min=args.grid_eps_min, dim=args.dim)
    return attainable.sweep({"dumbbell": eps_grid}, config)


def cmd_ratio(args) -> int:
    """The ratio table; a failed record keeps its row, with no grid ratio,
    and its failure goes to stderr, one JSON line per record, with exit 1."""
    records = _dumbbell_records(args, "ratio")
    rows = asymptotics.ratio_curve(records, dim=args.dim)
    if args.format == "json":
        _emit(_dump_json([dict(zip(RATIO_HEADER, row)) for row in rows]), args.out)
    else:
        _emit(_csv(RATIO_HEADER, rows), args.out)
    failed = [rec for rec in records if rec.failure is not None]
    for rec in failed:
        line = {"eps": rec.param, "failure": rec.failure}
        sys.stderr.write(json.dumps(_jsonable(line), sort_keys=True) + "\n")
    return EXIT_FAIL if failed else EXIT_OK


def cmd_verify(args) -> int:
    records = _dumbbell_records(args, "verify")
    verdict = asymptotics.verify_theorem(records, dim=args.dim)

    crosscheck = [_crosscheck(rec) for rec in records
                  if rec.failure is not None or rec.lambda1_norm is not None]

    # an empty --data-out, like an empty --out, asks for the default
    data_csv = args.data_out
    if not data_csv:
        data_csv = os.path.splitext(args.out)[0] + "_data.csv" if args.out else "ratio_curve.csv"
    _emit(_csv(RATIO_HEADER, verdict.ratios), data_csv)

    doc = {**_verdict_doc(verdict), "data_csv_path": data_csv, "grid_crosscheck": crosscheck}
    _emit(_dump_json(doc), args.out)
    return EXIT_OK if verdict.passed else EXIT_FAIL


def _crosscheck(rec) -> dict:
    """A grid-solved dumbbell's bounds against its grid eigenvalues within its
    budget, or, where the record failed, its failure in their place."""
    entry = {"eps": rec.param, "bound1": rec.bound1, "bound2": rec.bound2,
             "budget": rec.error_est}
    if rec.failure is not None:
        return {**entry, "failure": rec.failure}
    return {**entry,
            "lambda1_norm": rec.lambda1_norm,
            "lambda2_norm": rec.lambda2_norm,
            "bound1_above_grid": rec.bound1 >= rec.lambda1_norm - rec.error_est,
            "bound2_above_grid": rec.bound2 >= rec.lambda2_norm - rec.error_est}


def _verdict_doc(verdict) -> dict:
    """The verdict's part of the verify document: the checks, both columns
    of the ratio table as (eps, ratio) lists of its present cells, and the
    fit."""
    return {
        "pass": verdict.passed,
        "checks": [{"name": c.name, "pass": c.passed, "detail": c.detail}
                   for c in verdict.checks],
        "ratio_bound": [(e, r) for e, r, _ in verdict.ratios if r is not None],
        "ratio_grid": [(e, r) for e, _, r in verdict.ratios if r is not None],
        "fit": dataclasses.asdict(verdict.fit),
    }


def cmd_plotdata(args) -> int:
    records = attainable.sweep(attainable.DEFAULT_FAMILIES, _sweep_config(args))
    prefix = args.out or "plotdata"
    cloud_path = f"{prefix}_cloud.csv"
    boundary_path = f"{prefix}_boundary.csv"
    _emit(_sweep_csv(records), cloud_path)

    spec = ball_spectrum(2)
    lam_p = theta_spectrum(2)[0]
    slope = spec.lambda2 / spec.lambda1
    t_max = 3.0 * lam_p
    samples = 50
    diag = [lam_p + (t_max - lam_p) * i / samples for i in range(samples + 1)]
    ab_line = [spec.lambda1 + (t_max - spec.lambda1) * i / samples for i in range(samples + 1)]
    rows = [("P", lam_p, lam_p), ("Q", spec.lambda1, spec.lambda2)]
    rows += [("diag", t, t) for t in diag] + [("ab_line", t, slope * t) for t in ab_line]
    _emit(_csv(("kind", "x", "y"), rows), boundary_path)
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
    eps_grid_help = f"comma list in [{testfn.EPS_MIN}, {testfn.EPS_MAX}], or 'default'"
    grid_eps_min_help = "grid-solve the dumbbells with eps >= this (inf: bounds only)"

    def command(name, func, help, fmt=None, grid=True, jobs=True, dim=True):
        """A subcommand with the flags it reads: ``fmt`` is its default output
        format (no --format without one); grid commands read the solver
        settings, those that sweep --jobs, and those not only planar --dim."""
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        if dim:
            p.add_argument("--dim", type=int, choices=(2, 3), default=2, help="ambient dimension")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if fmt is not None:
            p.add_argument("--format", choices=("json", "csv"), default=fmt)
        if grid:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                           help=f"RNG seed (default {DEFAULT_SEED})")
            p.add_argument("--tol", type=_positive_float, default=1e-6,
                           help="eigenvalue tolerance")
            p.add_argument("--h", default="1/32,1/64,1/128",
                           help="comma list of two or more grid spacings in halving ratio")
        if grid and jobs:
            p.add_argument("--jobs", type=_positive_int, default=1,
                           help="parallel sweep workers")
        p.set_defaults(func=func)
        return p

    p = command("eig", cmd_eig, "grid eigensolve of one domain (JSON)", jobs=False, dim=False)
    p.add_argument("--domain", required=True,
                   help=f"{'|'.join([*KINDS, *DOMAIN_ALIASES])}, inline JSON, or a JSON file")
    p.add_argument("--eps", type=float, default=None,
                   help="epsilon of a named dumbbell or half_dumbbell, 0 < eps < 1")

    p = command("sweep", cmd_sweep, "family sweeps, CSV by default", fmt="csv", dim=False)
    p.add_argument("--families", default=",".join(attainable.DEFAULT_FAMILIES),
                   help="comma list of sweep families")

    for name in ("lemma1", "lemma2"):
        p = command(name, lambda a, w=name: cmd_lemma(a, w), f"{name} bound over an eps grid",
                    fmt="json", grid=False)
        p.add_argument("--eps-grid", default="default", help=eps_grid_help)

    p = command("ratio", cmd_ratio, "horizontal-tangent ratio curve", fmt="csv")
    p.add_argument("--eps-grid", default="default", help=eps_grid_help)
    p.add_argument("--grid-eps-min", type=float, default=math.inf, help=grid_eps_min_help)

    p = command("verify", cmd_verify, "run the default pipeline and verdict (JSON)")
    p.add_argument("--eps-grid", default="default", help=eps_grid_help)
    p.add_argument("--grid-eps-min", type=float, default=0.2, help=grid_eps_min_help)
    p.add_argument("--data-out", default=None, help="ratio-curve CSV path")

    command("plotdata", cmd_plotdata, "attainable cloud and region boundary CSVs", dim=False)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError, ArithmeticError, MemoryError) as exc:
        # ValueError covers ConfigError and json.JSONDecodeError;
        # ArithmeticError covers ZeroDivisionError and OverflowError
        kind = "config" if isinstance(exc, ConfigError) else type(exc).__name__
        sys.stderr.write(_dump_json({"error": str(exc), "kind": kind}) + "\n")
        return EXIT_CONFIG if args.command == "verify" else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
