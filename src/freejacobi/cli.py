"""Command-line surface.

Subcommands: moments, density, stationary-density, series, s-system, words,
oracle, verify.  Every run writes CSV/JSON artifacts into ``--outdir`` plus
a run manifest carrying the command line, parameters, seeds and the
SHA-256 digest of every file the run wrote; re-running with the same flags
reproduces the outputs byte-for-byte.  ``_write_run`` is the only writer:
the commands compute, and ``verification`` never touches the file system.
``series`` and ``words`` run the checks of ``verification`` under the
names and tolerances ``verify`` reports them with; ``verify`` writes each
check's table as ``<suite>_report.csv`` (``-`` in the suite name becomes
``_``).  ``--step`` (the RK4 step of ``moments`` and ``s-system``) must be
positive.

Exit codes: 0 all checks pass / command succeeded, 1 check failure,
2 usage error, including inputs outside a route's validity range.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import oracle as orc
from . import spectral
from . import verification as ver
from .manifest import RunManifest
from .moments import (
    ProcessParams,
    closed_form_moments,
    expansion_moments,
    integrate_moments,
)
from .special_functions import s_closed_theta_half, s_trajectory

INIT_FLAGS = {
    "p-le-q": "nested_P_le_Q",
    "p-ge-q": "nested_P_ge_Q",
    "orthogonal": "orthogonal",
}

OUTDIR_ENV = "FREEJACOBI_OUTDIR"


def _fmt(x: float) -> str:
    return "%.12g" % x


def _check_report(results) -> tuple[tuple, tuple | None]:
    """(header, rows) with one formatted row per check, and the failed rows
    without the passed column (None when every check passed)."""
    header = ["suite", "check", "passed", "value", "tolerance", "detail"]
    rows = [
        (r.suite, r.name, int(r.passed),
         "" if r.value is None else _fmt(r.value),
         "" if r.tolerance is None else _fmt(r.tolerance),
         r.detail)
        for r in results
    ]
    failed = [row[:2] + row[3:] for row in rows if not row[2]]
    return (header, rows), (header[:2] + header[3:], failed) if failed else None


def _params(args, *names: str) -> dict:
    """Manifest parameters from the parsed flags (``lam`` is recorded as
    ``lambda``)."""
    return {("lambda" if name == "lam" else name): getattr(args, name) for name in names}


def _write_run(args, stem: str, outputs: dict, parameters: dict, seeds=()) -> None:
    """Write a command's outputs, then ``<stem>_manifest.json`` with the
    digest of every one of them.  This is the only place that writes an
    artifact.

    ``outputs`` maps each path to (header, rows) for a CSV or to a dict for
    a JSON payload.
    """
    manifest = RunManifest(command_line=args.argv, parameters=parameters,
                           seeds=list(seeds), started_at=args.started_at)
    args.outdir.mkdir(parents=True, exist_ok=True)
    for path, content in outputs.items():
        if isinstance(content, dict):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(content, handle, indent=2)
                handle.write("\n")
        else:
            with open(path, "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(content[0])
                writer.writerows(content[1])
        manifest.add_output(path)
    manifest.write(args.outdir / f"{stem}_manifest.json")
    print("wrote " + " and ".join(str(path) for path in outputs))


# ---------------------------------------------------------------------------
# commands: each returns its exit code; a ValueError is a usage error
# ---------------------------------------------------------------------------

def _cmd_moments(args) -> int:
    if args.method == "closed-form" and (args.lam != 1.0 or args.theta != 0.5):
        raise ValueError("--method closed-form requires --lambda 1 --theta 0.5")
    if args.method == "expansion" and args.lam != 1.0:
        raise ValueError("--method expansion requires --lambda 1")
    params = ProcessParams(lam=args.lam, theta=args.theta, init_mode=INIT_FLAGS[args.init])
    if args.method == "recurrence":
        values = integrate_moments(params, args.t, order=args.order, h=args.step).at(args.t)
    elif args.method == "closed-form":
        values = closed_form_moments(args.t, args.order)
    else:
        values = expansion_moments(args.theta, args.t, args.order, h=args.step)

    rows = [
        ("%g" % args.t, str(n), "%.7g" % values[n], args.method)
        for n in range(args.order + 1)
    ]
    header = ["t", "n", "m_n", "method"]
    _write_run(args, "moments", {args.outdir / "moments.csv": (header, rows)},
               _params(args, "lam", "theta", "t", "order", "step", "init", "method"))
    return 0


def _write_density(args, grid, stem: str, parameters: dict) -> None:
    t_val = grid.params.get("t")
    fixed = (
        _fmt(t_val) if np.isfinite(t_val) else "inf",
        _fmt(grid.params["lambda"]),
        _fmt(grid.params["theta"]),
    )
    rows = [
        (_fmt(x), _fmt(f), *fixed, str(int(raw < 0.0)))
        for x, f, raw in zip(grid.xs, grid.values, grid.raw_values)
    ]
    atoms = [(_fmt(loc), _fmt(mass)) for loc, mass in grid.atoms]
    outputs = {
        args.outdir / f"{stem}.csv": (["x", "f", "t", "lambda", "theta", "clipped_flag"], rows),
        args.outdir / f"{stem}_atoms.csv": (["location", "mass"], atoms),
    }
    parameters.update(preclip_min=grid.preclip_min, quadrature_rule=grid.rule)
    _write_run(args, stem, outputs, parameters)


def _cmd_density(args) -> int:
    grid = spectral.density_lambda1(
        args.t,
        num_points=args.grid_points,
        fourier_terms=args.terms,
        fejer=args.fejer,
    )
    _write_density(args, grid, "density", _params(args, "t", "grid_points", "terms", "fejer"))
    return 0


def _cmd_stationary_density(args) -> int:
    grid = spectral.stationary_density(args.lam, num_points=args.grid_points)
    _write_density(args, grid, "stationary_density", _params(args, "lam", "grid_points"))
    return 0


SERIES_CHECKS = {
    "alpha": lambda args: ver.check_alpha(args.order),
    "rho": lambda args: ver.check_rho(args.t, args.order),
    "mgf": lambda args: ver.check_mgf(args.t, args.order),
    "pde": lambda args: ver.check_s_pde(args.lam, args.t, args.order),
    "decomposition": lambda args: ver.check_decomposition(args.lam, args.t, args.order),
}


def _cmd_series(args) -> int:
    if args.check == "mgf" and args.lam != 1.0:
        raise ValueError("--check mgf is specialized to --lambda 1")
    results, exports = SERIES_CHECKS[args.check](args)
    for result in results:
        print(result.line())

    lam, t = args.lam, args.t
    rows = [
        (str(n), _fmt(c), name, _fmt(lam), _fmt(t))
        for name, coeffs in exports.items()
        for n, c in enumerate(np.asarray(coeffs))
    ]
    header = ["n", "value", "series_name", "lambda", "t"]
    outputs = {args.outdir / f"series_{args.check}.csv": (header, rows)}
    if args.check == "decomposition":
        outputs[args.outdir / "decomposition.json"] = {
            "lambda": lam,
            "t": t,
            **{name: coeffs.tolist() for name, coeffs in exports.items()},
            # c1-vanishes -> c1, c2-vanishes -> c2
            "residuals": {r.name.split("-")[0]: r.value for r in results},
        }
    _, failures = _check_report(results)
    if failures:
        outputs[args.outdir / "series_failures.csv"] = failures
    _write_run(args, f"series_{args.check}", outputs, _params(args, "check", "lam", "t", "order"))
    return 1 if failures else 0


def _cmd_s_system(args) -> int:
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    times, states = s_trajectory(args.theta, args.t, args.order, h=args.step)
    stride = max(1, len(times) // args.samples)
    closed = s_closed_theta_half if args.theta == 0.5 else None
    rows = []
    for j in range(0, len(times), stride):
        for n in range(1, args.order + 1):
            closed_col = _fmt(closed(n, times[j])) if closed else ""
            rows.append((n, _fmt(times[j]), _fmt(states[j][n - 1]), closed_col))
    _write_run(args, "s_system",
               {args.outdir / "s_system.csv": (["n", "t", "s_n", "closed_form_if_any"], rows)},
               _params(args, "theta", "t", "order", "step", "samples"))
    return 0


def _cmd_words(args) -> int:
    results, exports = ver.check_word_counts(args.n)
    for result in results:
        print(result.line())
    header = ["n", "k", "c", "d", "e", "bruteforce_c", "bruteforce_d", "bruteforce_e"]
    _write_run(args, "words", {args.outdir / "word_counts.csv": (header, exports["rows"])},
               _params(args, "n"))
    return 0 if all(r.passed for r in results) else 1


def _cmd_oracle(args) -> int:
    orders = tuple(int(x) for x in args.orders.split(","))
    knobs = ("dim", "steps", "trials", "seed", "lam", "theta", "mode")
    config = orc.OracleConfig(t_end=args.t, orders=orders,
                              **{name: getattr(args, name) for name in knobs})
    run = orc.empirical_jacobi_moments(config)
    for n in orders:
        print(f"n={n}: {run.estimates[n]:.6f} +/- {run.stderrs[n]:.6f}")
    print(f"unitarity drift {run.unitarity_drift:.2e}")
    if run.rank_info.get("rank_rounded"):
        print(
            "note: projection ranks rounded to "
            f"{run.rank_info['rank_p']}/{run.rank_info['rank_q']}"
        )
    rows = [
        (n, _fmt(args.t), _fmt(run.estimates[n]), _fmt(run.stderrs[n]),
         args.dim, args.steps, args.trials, args.mode)
        for n in orders
    ]
    header = ["n", "t", "estimate", "stderr", "N", "steps", "trials", "mode"]
    parameters = {
        **_params(args, "dim", "steps", "trials", "t", "mode", "lam", "theta"),
        "orders": list(orders),
        "unitarity_drift": run.unitarity_drift,
        "trial_drift": run.trial_drift,
        "rank_info": run.rank_info,
        "wall_time": run.wall_time,
        "trial_seconds": run.trial_seconds,
    }
    _write_run(args, "oracle", {args.outdir / "oracle.csv": (header, rows)}, parameters,
               seeds=[args.seed] + [key[1] for key in run.trial_keys])
    return 0


def _cmd_verify(args) -> int:
    accepted = ver.suite_parameters(args.suite)
    sizing = {k: getattr(args, k) for k in ("dim", "steps", "trials") if k in accepted}
    results = ver.run_suite(args.suite, **sizing)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")

    report, failures = _check_report(results)
    outputs = {args.outdir / "verify_report.csv": report}
    if failures:
        outputs[args.outdir / "verify_failures.csv"] = failures
    for result in results:
        if result.table is not None:
            outputs[args.outdir / f"{result.suite.replace('-', '_')}_report.csv"] = result.table
    _write_run(args, "verify", outputs, {"suite": args.suite, **sizing})
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freejacobi",
        description="Workbench for the free Jacobi process: moment routes, "
        "series identities, spectral densities, Monte Carlo cross-checks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--outdir",
        help=f"output directory (default: ${OUTDIR_ENV} or current directory)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="moment vector at one time by a chosen route")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--order", type=int, default=32)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--init", choices=sorted(INIT_FLAGS), default="p-le-q")
    p.add_argument(
        "--method", choices=["recurrence", "closed-form", "expansion"],
        default="recurrence",
    )
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("density", help="time-t spectral density at the symmetric point")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--grid-points", type=int, default=999)
    p.add_argument("--terms", type=int, default=256)
    p.add_argument("--fejer", choices=["auto", "on", "off"], default="auto")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("stationary-density", help="stationary spectral density")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--grid-points", type=int, default=999)
    p.set_defaults(func=_cmd_stationary_density)

    p = sub.add_parser("series", help="series exports and identity checks")
    p.add_argument(
        "--check", choices=["alpha", "rho", "mgf", "pde", "decomposition"],
        required=True,
    )
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--order", type=int, default=32)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser(
        "s-system", help="trace-system trajectory table (experimental away "
        "from theta = 1/2)",
    )
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--samples", type=int, default=20, help="rows per order")
    p.set_defaults(func=_cmd_s_system)

    p = sub.add_parser(
        "words", help="reduced word-count tables, checked against 4^n enumeration up to n = 8",
    )
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_words)

    p = sub.add_parser("oracle", help="finite-N Monte Carlo estimates")
    p.add_argument("--dim", type=int, default=256)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=20240601)
    p.add_argument(
        "--mode", choices=sorted(orc.MODES), default="nested",
    )
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--orders", default="1,2", help="comma-separated moment orders")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=sorted(ver.suite_names()), required=True)
    p.add_argument("--dim", type=int, default=256, help="oracle suite matrix size")
    p.add_argument("--steps", type=int, default=200, help="oracle suite steps")
    p.add_argument("--trials", type=int, default=8, help="oracle suite trials")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    started_at = time.time()
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started_at = started_at
    args.argv = list(sys.argv[1:] if argv is None else argv)
    args.outdir = Path(args.outdir or os.environ.get(OUTDIR_ENV, "."))
    try:
        return args.func(args)
    except ValueError as exc:  # inputs outside a route's stated validity range
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
