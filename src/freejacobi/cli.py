"""Command-line surface.

Subcommands: moments, density, stationary-density, series, s-system, words,
oracle, verify.  Every run writes CSV/JSON artifacts into ``--outdir``
(default: the current directory) plus a run manifest carrying the command
line, parameters, seeds and the SHA-256 digest of every file the run wrote;
re-running with the same flags on the same BLAS kernel (see ``manifest``)
reproduces the outputs byte-for-byte.  ``main`` creates ``--outdir``
before the command computes, so an unwritable one is a usage error before
any work.  The parameters are the parsed flags plus what the run
measured; ``oracle``'s defaults are the fields of ``OracleConfig()``, the
acceptance run.
``_write_run`` is the only writer and formats every number of a table:
the commands compute and hand it raw values, and ``verification`` never
touches the file system.  ``series`` and ``words`` run the checks of
``verification`` under the names and tolerances ``verify`` reports them
with, and all three report through ``_report_checks``: each check's line,
``<command>_failures.csv`` when one failed, then the run.  ``verify``
runs each suite at its stated configuration (other oracle sizes run
through ``oracle``) and writes one row per check to ``verify_report.csv``.
``--step`` (the RK4 step of ``moments`` and ``s-system``) must be
positive.

``build_parser`` builds the parser once per process, on first use; it is
read-only after that, and every ``main`` call parses into its own
namespace, so repeated and concurrent calls in one process write what a
fresh process would.

Exit codes: 0 all checks pass / command succeeded, 1 check failure,
2 usage error, including inputs outside a route's validity range.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from . import oracle as orc
from . import spectral
from . import verification as ver
from .manifest import RunManifest
from .moments import (
    DEFAULT_ORDER,
    INIT_MODES,
    ProcessParams,
    closed_form_moments,
    expansion_moments,
    integrate_moments,
)
from .special_functions import (DEFAULT_STEP, damped_traces, s_closed_theta_half, s_trajectory,
                                step_times)


#: the number format of every table but ``moments.csv``'s
_NUM = "%.12g"


def _check_report(results) -> tuple[list[str], list[tuple]]:
    """(header, rows) with one row per check."""
    header = ["suite", "check", "passed", "value", "tolerance", "detail"]
    rows = [(r.suite, r.name, int(r.passed), r.value, r.tolerance, r.detail) for r in results]
    return header, rows


#: what a manifest leaves out of the parsed arguments: the parser's
#: dispatch, the output directory and what ``main`` adds
_RUN_ATTRS = ("func", "command", "outdir", "started_at", "argv")


def _write_run(args, stem: str, outputs: dict, measured: dict | None = None, seeds=()) -> None:
    """Write a command's outputs, then ``<stem>_manifest.json`` with the
    digest of every one of them, into the directory ``main`` created.  This
    is the only place that writes an artifact.

    ``outputs`` maps each path to (header, rows) for a CSV or to a dict for
    a JSON payload; ``rows`` is a list of field tuples, written with every
    float (``np.float64`` included) as ``_NUM`` and None as an empty field,
    or, for an all-numeric table, its body as CSV text: CR LF-ended lines
    with no field to quote, the bytes ``csv.writer`` would write.  The
    manifest's parameters are the parsed flags (``lam`` recorded as
    ``lambda``) updated with what the run ``measured``.
    """
    parameters = {("lambda" if name == "lam" else name): value
                  for name, value in vars(args).items() if name not in _RUN_ATTRS}
    parameters.update(measured or {})
    manifest = RunManifest(command_line=args.argv, parameters=parameters,
                           seeds=list(seeds), started_at=args.started_at)
    for path, content in outputs.items():
        if isinstance(content, dict):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(content, handle, indent=2)
                handle.write("\n")
        else:
            header, rows = content
            with open(path, "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(header)
                if isinstance(rows, str):
                    handle.write(rows)
                else:
                    writer.writerows([_NUM % x if isinstance(x, float) else x for x in row]
                                     for row in rows)
        manifest.add_output(path)
    manifest.write(args.outdir / f"{stem}_manifest.json")
    print("wrote " + " and ".join(str(path) for path in outputs))


def _report_checks(args, stem: str, results, outputs: dict, tally: bool = False) -> int:
    """Print each check's line (then ``N/M checks passed`` if ``tally``),
    add ``<command>_failures.csv``, the failed checks' report rows without
    the passed column, when one failed, write the run; return the exit code."""
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    if tally:
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        header, rows = _check_report(failed)
        outputs[args.outdir / f"{args.command}_failures.csv"] = (
            header[:2] + header[3:], [row[:2] + row[3:] for row in rows])
    _write_run(args, stem, outputs)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# commands: each returns its exit code; a ValueError is a usage error
# ---------------------------------------------------------------------------

def _cmd_moments(args) -> int:
    if args.method == "closed-form" and (args.lam != 1.0 or args.theta != 0.5):
        raise ValueError("--method closed-form requires --lambda 1 --theta 0.5")
    if args.method == "expansion" and args.lam != 1.0:
        raise ValueError("--method expansion requires --lambda 1")
    if args.method != "recurrence" and args.init != "p-le-q":
        raise ValueError(f"--method {args.method} is the P <= Q start: it requires --init p-le-q")
    params = ProcessParams(lam=args.lam, theta=args.theta, init_mode=args.init)
    if args.method == "recurrence":
        values = integrate_moments(params, args.t, order=args.order, h=args.step).at(args.t)
    elif args.method == "closed-form" or args.theta == 0.5:
        # at theta = 1/2 the expansion reads the damped traces h_k(2t): the closed form
        values = closed_form_moments(args.t, args.order)
    else:  # the last state of one trace-system run; order 0 reads none of it
        s = s_trajectory(args.theta, args.t, args.order or 1, h=args.step)[1][-1]
        values = expansion_moments(args.theta, damped_traces(s, args.t)[: args.order])

    rows = [
        ("%g" % args.t, n, "%.7g" % values[n], args.method)
        for n in range(args.order + 1)
    ]
    header = ["t", "n", "m_n", "method"]
    _write_run(args, "moments", {args.outdir / "moments.csv": (header, rows)})
    return 0


def _write_density(args, grid, stem: str) -> None:
    # every field is a number: one "%" per row, from Python floats
    fixed = ",".join(_NUM % grid.params[name] for name in ("t", "lambda", "theta"))
    row = f"{_NUM},{_NUM},%s,%d\r\n"
    rows = "".join([
        row % (x, f, fixed, raw < 0.0)
        for x, f, raw in zip(grid.xs.tolist(), grid.values.tolist(), grid.raw_values.tolist())
    ])
    outputs = {
        args.outdir / f"{stem}.csv": (["x", "f", "t", "lambda", "theta", "clipped_flag"], rows),
        args.outdir / f"{stem}_atoms.csv": (["location", "mass"], grid.atoms),
    }
    _write_run(args, stem, outputs, {"preclip_min": grid.preclip_min,
                                     "quadrature_rule": grid.rule})


def _cmd_density(args) -> int:
    grid = spectral.density_lambda1(
        args.t,
        num_points=args.grid_points,
        fourier_terms=args.terms,
        fejer=args.fejer,
    )
    _write_density(args, grid, "density")
    return 0


def _cmd_stationary_density(args) -> int:
    grid = spectral.stationary_density(args.lam, num_points=args.grid_points)
    _write_density(args, grid, "stationary_density")
    return 0


SERIES_CHECKS = {
    "alpha": lambda args: ver.check_alpha(args.order),
    "rho": lambda args: ver.check_rho(args.t, args.order),
    "mgf": lambda args: ver.check_mgf(args.t, args.order),
    "pde": lambda args: ver.check_s_pde(args.lam, args.t, args.order),
    "decomposition": lambda args: ver.check_decomposition(args.lam, args.t, args.order),
}


def _cmd_series(args) -> int:
    if not (0 <= args.t < np.inf and 0 < args.lam < np.inf):
        raise ValueError("--t must be finite and nonnegative, --lambda finite and positive")
    if args.check == "mgf" and args.lam != 1.0:
        raise ValueError("--check mgf is specialized to --lambda 1")
    results, exports = SERIES_CHECKS[args.check](args)
    lam, t = args.lam, args.t
    rows = [(n, c, name, lam, t)
            for name, coeffs in exports.items() for n, c in enumerate(np.asarray(coeffs))]
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
    return _report_checks(args, f"series_{args.check}", results, outputs)


def _cmd_s_system(args) -> int:
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    times = step_times(args.t, args.step)
    # samples intervals from t = 0 to --t, the last step time; at most one per step
    last = len(times) - 1
    picks = sorted({round(j) for j in np.linspace(0, last, min(args.samples, last) + 1)})
    rows = []
    for t, state in zip(*s_trajectory(args.theta, args.t, args.order, args.step, times[picks])):
        closed = s_closed_theta_half(t, args.order).tolist() if args.theta == 0.5 else None
        rows += [(n, t, state[n - 1], closed[n - 1] if closed else None)
                 for n in range(1, args.order + 1)]
    _write_run(args, "s_system",
               {args.outdir / "s_system.csv": (["n", "t", "s_n", "closed_form_if_any"], rows)})
    return 0


def _cmd_words(args) -> int:
    results, exports = ver.check_word_counts(args.n)
    header = ["n", "k", "c", "d", "e", "bruteforce_c", "bruteforce_d", "bruteforce_e"]
    return _report_checks(args, "words", results,
                          {args.outdir / "word_counts.csv": (header, exports["rows"])})


def _cmd_oracle(args) -> int:
    config = orc.OracleConfig(**{f.name: getattr(args, f.name) for f in fields(orc.OracleConfig)})
    run = orc.empirical_jacobi_moments(config)
    rank_info = config.rank_info()
    for n in args.orders:
        print(f"n={n}: {run.estimates[n]:.6f} +/- {run.stderrs[n]:.6f}")
    print(f"unitarity drift {run.unitarity_drift:.2e}")
    if rank_info.get("rank_rounded"):
        ranks = "/".join(str(rank_info[name]) for name in ("rank_p", "rank_q") if name in rank_info)
        print(f"note: projection ranks rounded to {ranks}")
    rows = [(n, args.t, run.estimates[n], run.stderrs[n], args.dim, args.steps, args.trials,
             args.mode) for n in args.orders]
    header = ["n", "t", "estimate", "stderr", "N", "steps", "trials", "mode"]
    measured = {
        "unitarity_drift": run.unitarity_drift,
        "trial_drift": run.trial_drift,
        "rank_info": rank_info,
        "wall_time": run.wall_time,
        "trial_seconds": run.trial_seconds,
        "workers": run.workers,
    }
    _write_run(args, "oracle", {args.outdir / "oracle.csv": (header, rows)}, measured,
               seeds=[args.seed, *range(args.trials)])
    return 0


def _cmd_verify(args) -> int:
    results = ver.run_suite(args.suite)
    return _report_checks(args, "verify", results,
                          {args.outdir / "verify_report.csv": _check_report(results)}, tally=True)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _orders(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; read-only."""
    parser = argparse.ArgumentParser(
        prog="freejacobi",
        description="Workbench for the free Jacobi process: moment routes, "
        "series identities, spectral densities, Monte Carlo cross-checks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--outdir", type=Path, default=".",
                        help="output directory (default: current directory)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="moment vector at one time by a chosen route")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    p.add_argument("--init", choices=sorted(INIT_MODES), default="p-le-q")
    p.add_argument(
        "--method", choices=["recurrence", "closed-form", "expansion"],
        default="recurrence",
    )
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("density", help="time-t spectral density at the symmetric point")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--grid-points", type=int, default=spectral.DEFAULT_POINTS)
    p.add_argument("--terms", type=int, default=spectral.DEFAULT_TERMS)
    p.add_argument("--fejer", choices=["auto", "on", "off"], default="auto")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("stationary-density", help="stationary spectral density")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--grid-points", type=int, default=spectral.DEFAULT_POINTS)
    p.set_defaults(func=_cmd_stationary_density)

    p = sub.add_parser("series", help="series exports and identity checks")
    p.add_argument("--check", choices=list(SERIES_CHECKS), required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--order", type=int, default=32)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("s-system", help="trace-system trajectory table")
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    p.add_argument("--samples", type=int, default=20, help="intervals per order "
                   "(samples + 1 rows, t = 0 to --t, one per step at most)")
    p.set_defaults(func=_cmd_s_system)

    p = sub.add_parser(
        "words", help="reduced word-count tables for n = 1..N, each checked against its 4^n "
                      "enumeration (N <= 12)",
    )
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_words)

    p = sub.add_parser("oracle", help="finite-N Monte Carlo estimates")
    p.add_argument("--dim", type=int, default=orc.OracleConfig.dim)
    p.add_argument("--steps", type=int, default=orc.OracleConfig.steps)
    p.add_argument("--trials", type=int, default=orc.OracleConfig.trials)
    p.add_argument("--t", type=float, default=orc.OracleConfig.t)
    p.add_argument("--seed", type=int, default=orc.OracleConfig.seed)
    p.add_argument("--mode", choices=sorted(orc.MODES), default=orc.OracleConfig.mode)
    p.add_argument("--lambda", dest="lam", type=float, default=orc.OracleConfig.lam)
    p.add_argument("--theta", type=float, default=orc.OracleConfig.theta)
    p.add_argument("--orders", type=_orders, default=orc.OracleConfig.orders,
                   help="comma-separated moment orders")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=sorted(ver.suite_names()), required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    started_at = time.time()
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started_at = started_at
    args.argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args.outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"--outdir {args.outdir} cannot be created: {exc.strerror}")
    try:
        return args.func(args)
    except ValueError as exc:  # inputs outside a route's stated validity range
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
