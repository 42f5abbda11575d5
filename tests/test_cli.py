import argparse
import csv
import hashlib
import importlib.util
import inspect
import io
import json
import math
import os
import runpy
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import redirect_stdout
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from freejacobi import (cli, combinatorics, decomposition, special_functions, spectral,
                        verification)
from freejacobi import oracle as orc
from freejacobi.cli import main
from freejacobi.moments import INIT_MODES, integrate_moments
from freejacobi.special_functions import s_closed_theta_half
from test_rk4_bit_identity import reference_rk4, reference_s_system_rhs


def run_cli(tmp_path, *argv):
    return main(["--outdir", str(tmp_path), *argv])


def test_moments_closed_form_row(tmp_path):
    code = run_cli(
        tmp_path, "moments", "--lambda", "1", "--theta", "0.5", "--t", "1",
        "--method", "closed-form", "--order", "4",
    )
    assert code == 0
    lines = (tmp_path / "moments.csv").read_text().splitlines()
    assert lines[0] == "t,n,m_n,method"
    assert "1,1,0.6839397,closed-form" in lines


def test_moments_rerun_is_bit_identical(tmp_path):
    args = ("moments", "--lambda", "0.8", "--theta", "0.5", "--t", "0.5",
            "--order", "6", "--method", "recurrence")
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_cli(a, *args)
    run_cli(b, *args)
    assert (a / "moments.csv").read_bytes() == (b / "moments.csv").read_bytes()


def test_moments_manifest_written(tmp_path):
    run_cli(tmp_path, "moments", "--t", "1", "--order", "4")
    manifest = json.loads((tmp_path / "moments_manifest.json").read_text())
    assert manifest["parameters"]["order"] == 4
    assert manifest["outputs"][0]["path"] == "moments.csv"
    assert len(manifest["outputs"][0]["sha256"]) == 64
    assert manifest["package_version"]


def test_moments_invalid_geometry_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "moments", "--lambda", "2", "--theta", "0.5", "--t", "1",
                "--init", "p-le-q")
    assert exc.value.code == 2


def test_init_choices_are_the_init_modes():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    init = next(a for a in sub.choices["moments"]._actions if a.dest == "init")
    assert init.choices == sorted(INIT_MODES)


def run_outputs(outdir):
    """Every file a run wrote: its bytes, or a manifest's parameters and
    seeds (the rest of a manifest records times and paths)."""
    return {f.name: ({key: json.loads(f.read_text())[key] for key in ("parameters", "seeds")}
                     if f.name.endswith("_manifest.json") else f.read_bytes())
            for f in sorted(outdir.iterdir())}


def test_main_builds_the_parser_once_per_process(tmp_path, monkeypatch):
    assert run_cli(tmp_path / "first", "words", "--n", "2") == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for k in range(3):
        assert run_cli(tmp_path / f"again-{k}", "words", "--n", "2") == 0
    assert built == []
    assert cli.build_parser() is cli.build_parser()


def test_a_flag_from_one_call_never_reaches_the_next(tmp_path):
    assert run_cli(tmp_path / "a", "moments", "--t", "1", "--order", "4") == 0
    assert run_cli(tmp_path / "b", "moments", "--t", "1") == 0
    with open(tmp_path / "b" / "moments.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["n"] for r in rows] == [str(n) for n in range(33)]
    assert json.loads((tmp_path / "b" / "moments_manifest.json").read_text())[
        "parameters"]["order"] == 32


def test_density_after_other_flags_is_a_fresh_process_first_call(tmp_path):
    assert run_cli(tmp_path / "terms-64", "density", "--t", "1", "--terms", "64") == 0
    assert run_cli(tmp_path / "again", "density", "--t", "1") == 0
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-m", "freejacobi.cli", "--outdir", str(tmp_path / "fresh"),
                    "density", "--t", "1"], env=env, capture_output=True, check=True)
    assert run_outputs(tmp_path / "again") == run_outputs(tmp_path / "fresh")
    assert run_outputs(tmp_path / "terms-64") != run_outputs(tmp_path / "fresh")


# commands of every kind, each a few ms
MIXED_COMMANDS = [
    "moments --lambda 0.6 --t 0.5 --order 8",
    "moments --t 1 --method closed-form --order 16",
    "density --t 1 --terms 64 --grid-points 199",
    "stationary-density --lambda 0.4 --grid-points 199",
    "series --check alpha --order 16",
    "s-system --order 4 --t 0.5 --samples 4",
    "words --n 4",
    "verify --suite catalan",
]


def test_concurrent_commands_write_the_serial_bytes(tmp_path):
    # threads share the one parser and run commands at once, switching as
    # often as the interpreter allows; each rotates the list so that
    # different commands overlap
    def run_all(root, shift=0):
        order = MIXED_COMMANDS[shift:] + MIXED_COMMANDS[:shift]
        for command in order:
            assert run_cli(root / command.replace(" ", "_"), *command.split()) == 0
        return {command: run_outputs(root / command.replace(" ", "_")) for command in order}

    want = run_all(tmp_path / "serial")
    got = [None] * 4
    start = threading.Barrier(len(got))

    def worker(i):
        start.wait(timeout=60)
        got[i] = run_all(tmp_path / f"thread-{i}", shift=2 * i)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(got))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [g == want for g in got] == [True] * len(got)


@pytest.mark.parametrize("command, grid", [
    ("density --t 1 --fejer auto",
     lambda: spectral.density_lambda1(1.0, num_points=999, fourier_terms=256, fejer="auto")),
    ("density --t 1 --fejer off",
     lambda: spectral.density_lambda1(1.0, num_points=999, fourier_terms=256, fejer="off")),
    ("stationary-density --lambda 0.4", lambda: spectral.stationary_density(0.4, num_points=999)),
], ids=["density-fejer-auto", "density-fejer-off", "stationary-density"])
def test_density_rows_are_the_csv_writer_bytes(tmp_path, command, grid):
    # the table csv.writer writes from one "%.12g" call per value
    assert run_cli(tmp_path, *command.split()) == 0
    grid = grid()
    fixed = ["%.12g" % grid.params[name] for name in ("t", "lambda", "theta")]
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["x", "f", "t", "lambda", "theta", "clipped_flag"])
    writer.writerows(("%.12g" % x, "%.12g" % f, *fixed, str(int(raw < 0.0)))
                     for x, f, raw in zip(grid.xs, grid.values, grid.raw_values))
    (table,) = tmp_path.glob("*density.csv")
    assert table.read_bytes() == want.getvalue().encode()
    if command.startswith("density"):  # clipped rows carry flag 1
        assert want.getvalue().count(",1\r\n") > 0


def test_moments_p_ge_q_starts_at_one_over_lambda(tmp_path):
    assert run_cli(tmp_path, "moments", "--init", "p-ge-q", "--lambda", "1.5", "--t", "0") == 0
    with open(tmp_path / "moments.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["m_n"] for r in rows if r["n"] != "0"] == ["0.6666667"] * 32


def test_moments_closed_form_needs_symmetric_point(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "moments", "--lambda", "0.7", "--t", "1",
                "--method", "closed-form")
    assert exc.value.code == 2


def test_density_outputs(tmp_path):
    code = run_cli(tmp_path, "density", "--t", "1", "--grid-points", "49",
                   "--terms", "64")
    assert code == 0
    lines = (tmp_path / "density.csv").read_text().splitlines()
    assert lines[0] == "x,f,t,lambda,theta,clipped_flag"
    assert len(lines) == 50
    assert (tmp_path / "density_atoms.csv").exists()


def test_density_rejects_time_zero(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "density", "--t", "0")
    assert exc.value.code == 2


def test_stationary_density_outputs(tmp_path):
    code = run_cli(tmp_path, "stationary-density", "--lambda", "0.6",
                   "--grid-points", "49")
    assert code == 0
    atoms = (tmp_path / "stationary_density_atoms.csv").read_text().splitlines()
    assert atoms[0] == "location,mass"
    assert atoms[1] == "0,0"
    assert atoms[2] == "1,0"


def test_stationary_density_next_to_lambda_one(tmp_path):
    code = run_cli(tmp_path, "stationary-density", "--lambda", "0.999999")
    assert code == 0
    atoms = (tmp_path / "stationary_density_atoms.csv").read_text().splitlines()
    assert atoms[1:] == ["0,0", "1,0"]


@pytest.mark.parametrize("lam", ["1e-16", "5e-324"])
def test_stationary_density_below_its_range_exits_2(tmp_path, capsys, lam):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "stationary-density", "--lambda", lam)
    assert exc.value.code == 2
    assert "lambda must lie in [1e-15, 1]" in capsys.readouterr().err


def test_series_checks(tmp_path):
    for check in ("alpha", "rho", "mgf"):
        code = run_cli(tmp_path, "series", "--check", check, "--order", "16")
        assert code == 0
        assert (tmp_path / f"series_{check}.csv").exists()


def test_series_decomposition_check(tmp_path):
    code = run_cli(tmp_path, "series", "--check", "decomposition",
                   "--lambda", "0.6", "--t", "1", "--order", "8")
    assert code == 0


def test_s_system_table(tmp_path):
    code = run_cli(tmp_path, "s-system", "--theta", "0.5", "--t", "1",
                   "--order", "3", "--samples", "4")
    assert code == 0
    lines = (tmp_path / "s_system.csv").read_text().splitlines()
    assert lines[0] == "n,t,s_n,closed_form_if_any"
    assert lines[1] == "1,0,1,1"


@pytest.mark.parametrize("t, samples", [("1.0006", "20"), ("1", "20"), ("0.01", "4")])
def test_s_system_rows_run_from_zero_to_t(tmp_path, t, samples):
    code = run_cli(tmp_path, "s-system", "--t", t, "--order", "2", "--samples", samples)
    assert code == 0
    with open(tmp_path / "s_system.csv") as fh:
        rows = list(csv.DictReader(fh))
    sampled = [float(r["t"]) for r in rows if r["n"] == "1"]
    assert len(sampled) == int(samples) + 1
    assert sampled[0] == 0.0
    assert sampled[-1] == float(t)
    assert sampled == sorted(set(sampled))


def test_s_system_samples_past_the_steps_allocate_nothing_extra(tmp_path):
    # --t 0.01 stores 11 times: the rows are those 11 times for any --samples
    # past 10, so no more sample points than that are drawn
    tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()):
            assert run_cli(tmp_path, "s-system", "--t", "0.01", "--samples", "10000000") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    lines = (tmp_path / "s_system.csv").read_text().splitlines()
    assert len(lines) == 1 + 11 * 8


# the partial step alone, a step past --t, more samples than steps, a step
# under 1e-5, a --t short of the tolerance of a partial step, and general theta
S_SYSTEM_CASES = [
    "", "--t 1.0006 --samples 2000", "--t 1.05 --step 0.1", "--t 0.3 --step 0.1 --samples 7",
    "--t 0", "--t 1e-13", "--t 0.0005", "--t 2.5 --step 0.3 --samples 3",
    "--t 0.01 --samples 10000000", "--t 0.02 --step 1e-6", "--t 1 --samples 1",
    "--theta 0.75 --t 0.5 --samples 2", "--theta 0.3 --t 1 --order 4",
    "--theta 0.75 --t 1.0006 --step 2e-4 --samples 13",
]


@pytest.mark.parametrize("options", S_SYSTEM_CASES)
def test_s_system_rows_are_the_picks_of_a_full_run(tmp_path, options):
    # the table reads only its sampled steps: the rows a full, allocating
    # run gives under the sampling rule, --samples intervals over its steps
    args = cli.build_parser().parse_args(["s-system", *options.split()])
    assert run_cli(tmp_path, "s-system", *options.split()) == 0
    rhs = lambda t, y: reference_s_system_rhs(t, y, args.theta)
    times, states = reference_rk4(rhs, np.ones(args.order), args.t, args.step)
    last = len(times) - 1
    picks = sorted({round(j) for j in np.linspace(0, last, min(args.samples, last) + 1)})
    want = []
    for j in picks:
        closed = s_closed_theta_half(times[j], args.order).tolist() if args.theta == 0.5 else None
        want += [[str(n), cli._NUM % times[j], cli._NUM % states[j][n - 1],
                  cli._NUM % closed[n - 1] if closed else ""] for n in range(1, args.order + 1)]
    with open(tmp_path / "s_system.csv", newline="") as handle:
        assert list(csv.reader(handle))[1:] == want


def test_s_system_general_theta_has_no_closed_column(tmp_path):
    run_cli(tmp_path, "s-system", "--theta", "0.75", "--t", "0.5",
            "--order", "2", "--samples", "2")
    lines = (tmp_path / "s_system.csv").read_text().splitlines()
    assert lines[1].endswith(",")  # closed_form_if_any empty away from 1/2


def test_s_system_off_half_keeps_the_scaled_traces_in_the_unit_disc(tmp_path):
    # e^{-nt} s_n = tau(Z^n) of a unitary Z; the stated source term wrote
    # s_4 = -59.78 here, tau(Z^4) = -1.09
    assert run_cli(tmp_path, "s-system", "--theta", "0.3", "--t", "1", "--order", "4") == 0
    with open(tmp_path / "s_system.csv") as fh:
        rows = list(csv.DictReader(fh))
    scaled = [math.exp(-int(r["n"]) * float(r["t"])) * float(r["s_n"]) for r in rows]
    assert len(scaled) == 21 * 4
    assert all(-1.0 <= x <= 1.0 for x in scaled)


def test_moments_expansion_off_half_matches_the_recurrence(tmp_path, monkeypatch):
    # the stated source term wrote m_3 = -0.055 and m_4 = -0.20 here, negative
    # moments of a positive operator, where the hierarchy gives 0.2606 and 0.1964
    computed = {}
    for name in ("expansion_moments", "integrate_moments"):
        def recorded(*args, _original=getattr(cli, name), _name=name, **kwargs):
            computed[_name] = _original(*args, **kwargs)
            return computed[_name]

        monkeypatch.setattr(cli, name, recorded)
    written = {}
    for method in ("expansion", "recurrence"):
        assert run_cli(tmp_path, "moments", "--method", method, "--theta", "0.3", "--t", "1",
                       "--order", "4") == 0
        with open(tmp_path / "moments.csv") as fh:
            written[method] = [row["m_n"] for row in csv.DictReader(fh)]
    expansion = computed["expansion_moments"]
    recurrence = computed["integrate_moments"].at(1.0)
    assert max(abs(a - b) for a, b in zip(expansion, recurrence)) < 1e-10
    assert written["expansion"] == written["recurrence"]


def test_series_decomposition_writes_json(tmp_path):
    run_cli(tmp_path, "series", "--check", "decomposition",
            "--lambda", "0.6", "--t", "1", "--order", "8")
    payload = json.loads((tmp_path / "decomposition.json").read_text())
    assert set(payload) >= {"lambda", "t", "gamma", "psi", "c", "d", "residuals"}
    assert len(payload["c"]) == 9


def test_words_table(tmp_path):
    code = run_cli(tmp_path, "words", "--n", "3")
    assert code == 0
    lines = (tmp_path / "word_counts.csv").read_text().splitlines()
    assert lines[0] == "n,k,c,d,e,bruteforce_c,bruteforce_d,bruteforce_e"
    assert "2,1,3,1,1,3,1,1" in lines


def test_words_enumerates_every_order_past_eight(tmp_path, capsys):
    assert run_cli(tmp_path, "words", "--n", "10") == 0
    assert "combinatorics/bruteforce-vs-closed-n<=10" in capsys.readouterr().out
    with open(tmp_path / "word_counts.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == sum(n + 1 for n in range(1, 11))
    for row in rows:
        assert [row[f"bruteforce_{col}"] for col in "cde"] == [row[col] for col in "cde"]
    assert {"n": "10", "k": "3", "c": "50388", "d": "27132", "e": "27132",
            "bruteforce_c": "50388", "bruteforce_d": "27132", "bruteforce_e": "27132"} in rows


@pytest.mark.parametrize("below", ["", "x"])
def test_an_outdir_that_cannot_be_created_exits_2(tmp_path, capsys, below):
    # a regular file, or a path under one, is no directory
    (tmp_path / "file").write_text("")
    outdir = tmp_path / "file" / below
    with pytest.raises(SystemExit) as exc:
        run_cli(outdir, "words", "--n", "2")
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert errors == [f"freejacobi: error: --outdir {outdir} cannot be created: "
                      + ("File exists" if below == "" else "Not a directory")]


def test_an_unwritable_outdir_is_refused_before_the_command_runs(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path / "file" / "x", "words", "--n", "2")
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_wrong_closed_word_count_fails_words_and_the_suite(tmp_path, monkeypatch, capsys):
    original = combinatorics.word_counts_closed

    def off_by_one(n, k):
        c, d, e = original(n, k)
        return (c, d + 1, e) if (n, k) == (2, 1) else (c, d, e)

    monkeypatch.setattr(combinatorics, "word_counts_closed", off_by_one)
    assert run_cli(tmp_path, "words", "--n", "3") == 1
    assert "FAIL  combinatorics/bruteforce-vs-closed-n<=3" in capsys.readouterr().out
    assert "2,1,3,2,1,3,1,1" in (tmp_path / "word_counts.csv").read_text().splitlines()
    with open(tmp_path / "words_failures.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["suite", "check", "value", "tolerance", "detail"]
    assert [row[:2] for row in rows[1:]] == [["combinatorics", "bruteforce-vs-closed-n<=3"]]
    manifest = json.loads((tmp_path / "words_manifest.json").read_text())
    assert "words_failures.csv" in [out["path"] for out in manifest["outputs"]]
    results = {r.name: r for r in verification.run_suite("combinatorics")}
    assert not results["bruteforce-vs-closed-n<=8"].passed


def test_words_cap(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "words", "--n", "13")
    assert exc.value.code == 2


def test_oracle_command(tmp_path):
    code = run_cli(tmp_path, "oracle", "--dim", "16", "--steps", "5",
                   "--trials", "2", "--t", "0.2", "--seed", "3",
                   "--mode", "p-le-q")
    assert code == 0
    lines = (tmp_path / "oracle.csv").read_text().splitlines()
    assert lines[0] == "n,t,estimate,stderr,N,steps,trials,mode"
    manifest = json.loads((tmp_path / "oracle_manifest.json").read_text())
    assert manifest["seeds"] == [3, 0, 1]
    parameters = manifest["parameters"]
    assert len(parameters["trial_drift"]) == len(parameters["trial_seconds"]) == 2
    assert parameters["unitarity_drift"] == max(parameters["trial_drift"])
    # every parsed flag (``--orders`` as the parsed list), then what the run measured
    flags = {"dim": 16, "steps": 5, "trials": 2, "t": 0.2, "seed": 3, "mode": "p-le-q",
             "lambda": 1.0, "theta": 0.5, "orders": [1, 2]}
    assert {name: parameters[name] for name in flags} == flags
    assert set(parameters) - set(flags) == {"unitarity_drift", "trial_drift", "rank_info",
                                            "wall_time", "trial_seconds", "workers"}
    assert parameters["workers"] == orc._workers(2)


@pytest.mark.parametrize("argv", [
    ("--lambda", "0.1"),  # rank(P) rounds to 0
    ("--mode", "orthogonal", "--lambda", "0.5", "--theta", "0.1"),  # both ranks round to 0
    ("--mode", "bernoulli_weight", "--theta", "0.1"),  # no sign +1: a = -I
    ("--mode", "bernoulli_weight", "--theta", "0.9"),  # every sign +1: a = I
])
def test_oracle_zero_rank_exits_2(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "oracle", "--dim", "4", "--steps", "2", "--trials", "2", *argv)
    assert exc.value.code == 2
    assert not (tmp_path / "oracle.csv").exists()


@pytest.mark.parametrize("mode", ["unitary", "bernoulli_weight"])
@pytest.mark.parametrize("lam", ["-3", "0", "inf", "nan"])
def test_oracle_invalid_lambda_exits_2_in_every_mode(tmp_path, capsys, mode, lam):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "oracle", "--dim", "4", "--steps", "2", "--trials", "2",
                "--mode", mode, "--lambda", lam)
    assert exc.value.code == 2
    assert "lambda must be" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_oracle_bernoulli_records_its_sign_count(tmp_path, capsys):
    assert run_cli(tmp_path, "oracle", "--dim", "10", "--steps", "2", "--trials", "2",
                   "--mode", "bernoulli_weight", "--theta", "0.55") == 0
    assert "note: projection ranks rounded to 6" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "oracle_manifest.json").read_text())
    assert manifest["parameters"]["rank_info"] == {"rank_q": 6, "nominal_rank_q": 5.5,
                                                   "rank_rounded": True}


def test_oracle_modes_are_the_init_modes_and_nested_is_gone(tmp_path, capsys):
    assert orc.MODES == INIT_MODES + ("bernoulli_weight", "unitary")
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "oracle", "--mode", "nested")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and all(mode in err for mode in orc.MODES)
    assert not list(tmp_path.iterdir())


def test_oracle_defaults_and_oracle_suite_are_the_acceptance_run():
    args = cli.build_parser().parse_args(["oracle"])
    config = orc.OracleConfig(**{f.name: getattr(args, f.name) for f in fields(orc.OracleConfig)})
    assert config == orc.OracleConfig()
    sizing = inspect.signature(verification.suite_oracle).parameters
    assert {name: param.default for name, param in sizing.items()} == {
        name: getattr(orc.OracleConfig(), name) for name in ("dim", "steps", "trials", "seed")}


def test_density_defaults_are_spectrals_grid():
    parser = cli.build_parser()
    density = parser.parse_args(["density", "--t", "1"])
    stationary = parser.parse_args(["stationary-density", "--lambda", "0.5"])
    route = {name: param.default
             for name, param in inspect.signature(spectral.density_lambda1).parameters.items()}
    assert (density.grid_points, density.terms, density.fejer) == (
        spectral.DEFAULT_POINTS, spectral.DEFAULT_TERMS, route["fejer"])
    assert (route["num_points"], route["fourier_terms"]) == (
        spectral.DEFAULT_POINTS, spectral.DEFAULT_TERMS)
    assert stationary.grid_points == spectral.DEFAULT_POINTS == inspect.signature(
        spectral.stationary_density).parameters["num_points"].default


def test_the_writer_formats_every_number_of_a_table(tmp_path, capsys):
    # the commands hand _write_run raw values: a float, np.float64 included,
    # at 12 significant digits, an int as itself and None as an empty field
    args = argparse.Namespace(outdir=tmp_path, argv=[], started_at=0.0)
    row = (1 / 3, np.float64(1 / 3), 7, None)
    cli._write_run(args, "table", {tmp_path / "table.csv": (["a", "b", "c", "d"], [row])})
    assert (tmp_path / "table.csv").read_bytes() == (
        b"a,b,c,d\r\n0.333333333333,0.333333333333,7,\r\n")


def test_outdir_is_the_only_output_directory(tmp_path, monkeypatch):
    workdir, elsewhere = tmp_path / "work", tmp_path / "elsewhere"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    monkeypatch.setenv("FREEJACOBI_OUTDIR", str(elsewhere))
    assert main(["words", "--n", "2"]) == 0
    assert sorted(p.name for p in workdir.iterdir()) == ["word_counts.csv",
                                                         "words_manifest.json"]
    assert not elsewhere.exists()


@pytest.mark.parametrize("argv", [
    ("oracle", "--dim", "16", "--steps", "5", "--trials", "1"),
])
def test_oracle_single_trial_exits_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, *argv)
    assert exc.value.code == 2
    assert "trials must be >= 2" in capsys.readouterr().err


def test_oracle_rerun_bit_identical(tmp_path):
    args = ("oracle", "--dim", "16", "--steps", "5", "--trials", "2",
            "--t", "0.2", "--seed", "3")
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_cli(a, *args)
    run_cli(b, *args)
    assert (a / "oracle.csv").read_bytes() == (b / "oracle.csv").read_bytes()


def test_verify_catalan(tmp_path, capsys):
    code = run_cli(tmp_path, "verify", "--suite", "catalan")
    assert code == 0
    out = capsys.readouterr().out
    assert "30/30 exact" in out
    assert (tmp_path / "verify_report.csv").exists()
    assert not (tmp_path / "verify_failures.csv").exists()
    manifest = json.loads((tmp_path / "verify_manifest.json").read_text())
    assert manifest["parameters"] == {"suite": "catalan"}
    assert [out["path"] for out in manifest["outputs"]] == ["verify_report.csv"]


def test_verify_general_theta_writes_its_report(tmp_path, capsys):
    assert run_cli(tmp_path, "verify", "--suite", "general-theta") == 0
    statuses = [line.split("  ")[:2] for line in capsys.readouterr().out.splitlines()[:3]]
    assert statuses == [["PASS", "general-theta/theta-half-sanity"],
                        ["PASS", "general-theta/expansion-vs-ode"],
                        ["PASS", "general-theta/bernoulli-oracle-within-budget"]]
    assert sorted(f.name for f in tmp_path.iterdir()) == ["verify_manifest.json",
                                                          "verify_report.csv"]
    manifest = json.loads((tmp_path / "verify_manifest.json").read_text())
    assert [out["path"] for out in manifest["outputs"]] == ["verify_report.csv"]


def test_verify_unknown_suite(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "verify", "--suite", "nonsense")
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", [("--dim", "16"), ("--steps", "5"), ("--trials", "2")])
def test_verify_runs_the_oracle_only_at_its_stated_configuration(tmp_path, capsys, flag):
    # other sizes run through the ``oracle`` command
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "verify", "--suite", "oracle", *flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("step", ["0", "-0.5"])
def test_moments_nonpositive_step_exits_2(tmp_path, step):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "moments", "--lambda", "0.6", "--t", "2", "--order", "4",
                "--step", step)
    assert exc.value.code == 2
    assert not (tmp_path / "moments.csv").exists()


@pytest.mark.parametrize("step", ["0", "-0.5"])
def test_s_system_nonpositive_step_exits_2(tmp_path, step):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "s-system", "--step", step)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("moments", "--step", "inf", "--t", "1", "--order", "3"),
    ("s-system", "--theta", "0.75", "--step", "inf", "--t", "1"),
])
def test_infinite_step_exits_2(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, *argv)
    assert exc.value.code == 2
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("theta", ["0.5", "0.75"])
def test_moments_expansion_at_order_zero_writes_m0(tmp_path, theta):
    assert run_cli(tmp_path, "moments", "--method", "expansion", "--theta", theta,
                   "--t", "1", "--order", "0") == 0
    with open(tmp_path / "moments.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(r["n"], r["m_n"]) for r in rows] == [("0", "1")]


@pytest.mark.parametrize("theta", ["0.5", "0.75"])
def test_moments_expansion_negative_order_exits_2(tmp_path, capsys, theta):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "moments", "--method", "expansion", "--theta", theta, "--t", "1",
                "--order", "-1")
    assert exc.value.code == 2
    assert "order must be >= " in capsys.readouterr().err
    assert not (tmp_path / "moments.csv").exists()


@pytest.mark.parametrize("method", ["closed-form", "expansion"])
@pytest.mark.parametrize("init", ["orthogonal", "p-ge-q"])
def test_lambda_one_routes_reject_another_start(tmp_path, capsys, method, init):
    # both routes are the P <= Q start; --init orthogonal wrote m_n = 1 here
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "moments", "--method", method, "--init", init, "--lambda", "1",
                "--theta", "0.5", "--t", "0", "--order", "3")
    assert exc.value.code == 2
    assert "requires --init p-le-q" in capsys.readouterr().err
    assert not (tmp_path / "moments.csv").exists()


def test_moments_closed_form_negative_order_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "moments", "--t", "1", "--method", "closed-form", "--order", "-1")
    assert exc.value.code == 2
    assert "order must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "moments.csv").exists()


@pytest.mark.parametrize("terms", ["0", "-1"])
def test_density_without_fourier_terms_exits_2(tmp_path, capsys, terms):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "density", "--t", "1", "--terms", terms)
    assert exc.value.code == 2
    assert "at least one Fourier term" in capsys.readouterr().err
    assert not (tmp_path / "density.csv").exists()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_s_system_samples_below_one_exits_2(tmp_path, capsys, samples):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "s-system", "--samples", samples)
    assert exc.value.code == 2
    assert "--samples must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "s_system.csv").exists()


def test_manifest_start_precedes_the_work(tmp_path, monkeypatch):
    work_started = []

    def recording(*args, **kwargs):
        work_started.append(time.time())
        return integrate_moments(*args, **kwargs)

    monkeypatch.setattr(cli, "integrate_moments", recording)
    run_cli(tmp_path, "moments", "--lambda", "0.6", "--t", "2", "--method", "recurrence")
    manifest = json.loads((tmp_path / "moments_manifest.json").read_text())
    (started,) = work_started
    assert manifest["started_at"] <= started <= manifest["finished_at"]
    assert manifest["command_line"][-4:] == ["--t", "2", "--method", "recurrence"]


# the README examples (without `oracle` and `verify --suite all`) and the
# time where the Fourier density used to turn into NaN
README_COMMANDS = [
    "moments --lambda 1 --theta 0.5 --t 1 --method closed-form --order 16",
    "moments --lambda 0.6 --theta 0.5 --t 2 --method recurrence --init p-le-q",
    "density --t 1 --grid-points 999 --terms 256 --fejer auto",
    "stationary-density --lambda 0.6",
    "series --check alpha --order 32",
    "series --check decomposition --lambda 0.6 --t 1 --order 12",
    "words --n 8",
    "verify --suite catalan",
    *[f"density --t {t} --grid-points 501" for t in (0.25, 0.5, 1, 2, 4)],
    "moments --method closed-form --t 1 --order 2",
    "density --t 4",
]


@pytest.mark.parametrize("command", README_COMMANDS)
def test_readme_command_outputs_are_finite_and_digested(tmp_path, command):
    with redirect_stdout(io.StringIO()):
        assert run_cli(tmp_path, *command.split()) == 0
    (manifest_path,) = tmp_path.glob("*_manifest.json")
    manifest = json.loads(manifest_path.read_text())
    digests = {out["path"]: out["sha256"] for out in manifest["outputs"]}
    written = {f.name for f in tmp_path.iterdir()} - {manifest_path.name}
    assert set(digests) == written  # every file the command wrote is digested
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
    for path in tmp_path.glob("*.csv"):
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            for row in reader:
                for column, field in zip(header, row):
                    try:
                        value = float(field)
                    except ValueError:
                        continue
                    # inf labels the stationary law in a t column
                    assert math.isfinite(value) or (column == "t" and value == math.inf), (
                        path.name, column, field)


def test_series_pde_reports_the_suite_value(tmp_path, monkeypatch):
    reported = []
    check = verification.check_s_pde

    def spy(*args):
        results, exports = check(*args)
        reported.extend(results)
        return results, exports

    monkeypatch.setattr(verification, "check_s_pde", spy)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run_cli(tmp_path, "series", "--check", "pde", "--lambda", "0.5", "--t", "1",
                       "--order", "12")
    assert code == 0
    monkeypatch.undo()
    (suite_result,) = [r for r in verification.run_suite("series")
                       if r.name == "s-pde-residual-lam-0.5"]
    (cli_result,) = reported
    assert float(cli_result.value).hex() == float(suite_result.value).hex()
    assert suite_result.line() in out.getvalue().splitlines()


@pytest.mark.parametrize("t", ["0", "0.0001", "0.12345"])
def test_series_pde_at_any_time(tmp_path, t):
    with redirect_stdout(io.StringIO()):
        assert run_cli(tmp_path, "series", "--check", "pde", "--t", t) == 0
    assert not (tmp_path / "series_failures.csv").exists()
    with open(tmp_path / "series_pde.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 33
    assert all(math.isfinite(float(row["value"])) for row in rows)


def test_series_failure_report_matches_verify_failures(tmp_path, monkeypatch):
    monkeypatch.setattr(verification.transforms, "pde_residual_rho",
                        lambda t, order: float("nan"))
    assert run_cli(tmp_path, "series", "--check", "rho", "--order", "8") == 1
    with open(tmp_path / "series_failures.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows == [["suite", "check", "value", "tolerance", "detail"],
                    ["series", "rho-pde-residual", "nan", "1e-06", "order 8, t=1"]]


@pytest.mark.parametrize("check", ["alpha", "rho", "mgf", "pde", "decomposition"])
def test_series_order_below_one_exits_2(tmp_path, capsys, check):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "series", "--check", check, "--order", "0")
    assert exc.value.code == 2
    assert "order must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("lam, check", [
    *((lam, check) for lam in ("1.5", "0", "nan", "inf") for check in ("pde", "decomposition")),
    ("1e-12", "decomposition"),
])
def test_series_lambda_outside_nested_range_exits_2(tmp_path, capsys, check, lam):
    # ProcessParams(lam, 0.5) with P <= Q is the one statement of the range;
    # the decomposition also has a floor, decomposition.LAMBDA_FLOOR
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "series", "--check", check, "--lambda", lam)
    assert exc.value.code == 2
    assert "lambda" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_series_decomposition_passes_at_its_lambda_floor(tmp_path, capsys):
    assert decomposition.LAMBDA_FLOOR == 1e-8
    assert run_cli(tmp_path, "series", "--check", "decomposition", "--lambda", "1e-8",
                   "--order", "12") == 0
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path / "below", "series", "--check", "decomposition",
                "--lambda", "9.99e-9", "--order", "12")
    assert exc.value.code == 2
    assert "lambda 9.99e-09 is below the decomposition's floor 1e-08" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["alpha", "rho", "mgf", "pde", "decomposition"])
@pytest.mark.parametrize("flag, value", [
    ("--t", "nan"), ("--t", "inf"), ("--t", "-1"),
    ("--lambda", "nan"), ("--lambda", "0"), ("--lambda", "-1"), ("--lambda", "inf"),
])
def test_series_rejects_a_bad_time_or_lambda_for_every_check(tmp_path, capsys, check, flag,
                                                             value):
    # each row echoes --lambda and --t, also where the check ignores them
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "series", "--check", check, flag, value)
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv", [
    ("--check", "mgf", "--t", "5", "--order", "256"),
    ("--check", "decomposition", "--lambda", "1", "--t", "5", "--order", "256"),
])
def test_series_checks_pass_at_large_order_and_time(tmp_path, argv):
    assert run_cli(tmp_path, "series", *argv) == 0
    assert not (tmp_path / "series_failures.csv").exists()


def test_moments_expansion_finite_at_large_order_and_time(tmp_path):
    assert run_cli(tmp_path, "moments", "--method", "expansion", "--t", "5",
                   "--order", "256") == 0
    with open(tmp_path / "moments.csv", newline="") as handle:
        values = [float(row["m_n"]) for row in csv.DictReader(handle)]
    assert len(values) == 257 and all(math.isfinite(v) for v in values)


def csv_fields_finite(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    values = []
    for row in rows:
        for field in row.values():
            try:
                values.append(float(field))
            except ValueError:
                continue
    return bool(rows) and all(math.isfinite(v) for v in values)


@pytest.mark.parametrize("command", [
    "moments --method closed-form --t 1 --order 512",
    "moments --method expansion --t 1 --order 600",
    "series --check mgf --t 1 --order 512",
])
def test_lambda_one_routes_finite_past_order_511(tmp_path, command):
    with redirect_stdout(io.StringIO()):
        assert run_cli(tmp_path, *command.split()) == 0
    (path,) = tmp_path.glob("*.csv")
    assert csv_fields_finite(path)


@pytest.mark.parametrize("command, out", [
    ("moments --method closed-form --t 1e300 --order 4", "moments.csv"),
    ("density --t 1e300", "density.csv"),
])
def test_lambda_one_routes_finite_at_huge_time(tmp_path, command, out):
    with redirect_stdout(io.StringIO()):
        assert run_cli(tmp_path, *command.split()) == 0
    assert csv_fields_finite(tmp_path / out)
    if out == "moments.csv":  # every h_k(2t) is 0: the arcsine law's C(2n, n) / 4^n
        with open(tmp_path / out, newline="") as handle:
            values = [row["m_n"] for row in csv.DictReader(handle)]
        assert values == ["1", "0.5", "0.375", "0.3125", "0.2734375"]


@pytest.mark.parametrize("command", [
    "moments --method closed-form --t 1e306 --order 256",
    "density --t 1e307",
])
def test_lambda_one_routes_past_the_laguerre_range_exit_2(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, *command.split())
    assert exc.value.code == 2
    assert "Laguerre argument k s is not finite" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


def test_s_system_theta_half_past_exp_range(tmp_path):
    # s_1 has no source at theta = 1/2, so e^t past t = 709.78 is never formed
    with redirect_stdout(io.StringIO()):
        assert run_cli(tmp_path, "s-system", "--t", "710", "--order", "2",
                       "--step", "10", "--samples", "72") == 0
    with open(tmp_path / "s_system.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows[-1]["t"] == "710"
    for row in rows:
        assert float(row["s_n"]) == pytest.approx(float(row["closed_form_if_any"]), rel=1e-12)


@pytest.mark.parametrize("argv", [
    # order 8 x t 88.5 = 708 is inside the source's range; RK4's sums overflow at t = 88
    ("s-system", "--theta", "0.75", "--t", "88.5", "--step", "1"),
    ("moments", "--method", "expansion", "--theta", "0.75", "--t", "88.5", "--order", "8",
     "--step", "1"),
])
def test_trace_system_past_float64_exits_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, *argv)
    assert exc.value.code == 2
    assert "state leaves the float64 range by t=88\n" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", [
    "moments --t 40 --method expansion --theta 0.3 --order 32",  # ran 22,021 steps first
    "s-system --theta 0.75 --t 100 --step 1",
    "moments --method expansion --theta 0.75 --t 100 --order 8 --step 1",
])
def test_a_trace_run_past_its_source_range_exits_2_before_stepping(tmp_path, capsys,
                                                                   monkeypatch, command):
    def no_step(*args):
        pytest.fail("the trace system was integrated")

    monkeypatch.setattr(special_functions, "rk4", no_step)
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, *command.split())
    assert exc.value.code == 2
    assert "leaves float64 past order x t = 709.78" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, table", [
    ("moments --t 22 --method expansion --theta 0.3 --order 32", "moments.csv"),
    ("s-system --theta 0.75 --order 1 --t 709 --step 0.1 --samples 2", "s_system.csv"),
])
def test_a_trace_run_inside_its_source_range_writes_its_table(tmp_path, command, table):
    assert run_cli(tmp_path, *command.split()) == 0
    assert "nan" not in (tmp_path / table).read_text()


@pytest.mark.parametrize("command", [
    "moments --t 1000 --step 5 --order 32",  # wrote m_1 = 1.2e227 and NaN past it
    "moments --t 20 --step 0.5 --order 32",  # wrote m_32 = -3.3e156
])
def test_a_hierarchy_step_past_rk4s_stability_interval_exits_2(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, *command.split())
    assert exc.value.code == 2
    assert "the moment hierarchy needs step x order <= 2.785" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("init, lam", [("p-le-q", "1"), ("p-ge-q", "1.5"), ("orthogonal", "1")])
def test_a_hierarchy_step_inside_rk4s_stability_interval_writes_moments(tmp_path, init, lam):
    # step x order = 2.56
    assert run_cli(tmp_path, "moments", "--t", "1000", "--step", "0.08", "--order", "32",
                   "--init", init, "--lambda", lam, "--theta", "0.4") == 0
    with open(tmp_path / "moments.csv", newline="") as handle:
        values = [float(row["m_n"]) for row in csv.DictReader(handle)]
    assert len(values) == 33
    assert all(0.0 <= m <= 1.0 for m in values)


@pytest.mark.parametrize("command", [
    "moments --t 1e12 --order 8",
    "s-system --t 1e12 --order 4",
    "series --check pde --t 1e12",
])
def test_integration_too_long_to_store_exits_2(tmp_path, capsys, command):
    # 1e15 steps, past the step limit of every run: refused before the first step
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, *command.split())
    assert exc.value.code == 2
    assert ("1e+15 steps of h=0.001 to t=1e+12: a run with read times takes at most "
            "9007199 steps" in capsys.readouterr().err)
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", [
    "moments --t 30 --order 32",
    "series --check pde --t 30",
])
def test_an_integrating_command_stores_only_the_state_it_reads(tmp_path, command):
    # storing each of the 30,001 steps took 8.25 MiB here
    cli.build_parser()
    tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()):
            assert run_cli(tmp_path, *command.split()) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_series_rho_past_float64_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "series", "--check", "rho", "--t", "10", "--order", "256")
    assert exc.value.code == 2
    assert "coefficient 225 exceeds the float64 range at t=10" in capsys.readouterr().err
    assert not (tmp_path / "series_rho.csv").exists()


def _check_values_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "check_values.py"
    spec = importlib.util.spec_from_file_location("check_values", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _suites(*suites):
    """A stand-in for ``run_suite("all")`` that runs (name, kwargs) pairs."""
    def run_suite(name):
        assert name == "all"
        return [r for suite, kwargs in suites for r in verification.run_suite(suite, **kwargs)]
    return run_suite


def test_check_values_script_prints_every_check_bit_for_bit(capsys, monkeypatch):
    module = _check_values_script()
    # catalan and the general-theta suite at the tests' oracle size stand in for every suite
    monkeypatch.setattr(module, "run_suite", _suites(
        ("catalan", {}), ("general-theta", {"dim": 8, "steps": 2, "trials": 2})))
    module.main()
    document = json.loads(capsys.readouterr().out)
    assert set(document) == {"checks", "oracle", "cli"}
    records = document["checks"]
    assert [(r["suite"], r["name"], r["passed"]) for r in records] == [
        ("catalan", "stationary-recurrence-n<=30", True),
        ("general-theta", "theta-half-sanity", True),
        ("general-theta", "expansion-vs-ode", True),
        ("general-theta", "bernoulli-oracle-within-budget", True)]
    expected = [None] + verification.run_suite("general-theta", dim=8, steps=2, trials=2)
    for record, result in zip(records, expected):
        assert set(record) == {"suite", "name", "passed", "value", "tolerance", "detail"}
        for key in ("value", "tolerance"):
            assert record[key] is None or float.fromhex(record[key]).hex() == record[key]
            if result is not None:
                assert record[key] == getattr(result, key).hex()

    # every benchmark command, with its outputs' digests and manifests' fields
    commands = document["cli"]
    assert sorted(commands) == sorted(module.CLI_COMMANDS) and len(commands) == 17
    assert all(r["exit"] == 0 and r["files"] for r in commands.values())
    assert all(set(m) == {"parameters", "seeds"}
               for r in commands.values() for m in r["manifests"].values())


def test_check_values_script_records_each_oracle_trial_of_every_run(capsys, monkeypatch):
    module = _check_values_script()
    # the oracle-mc workload's runs are the oracle suite's runs cut to its
    # trial count, so trials 0-1 of the suite's runs carry their bits
    sample = runpy.run_path(str(module.SAMPLE))
    suite = {name: param.default
             for name, param in inspect.signature(verification.suite_oracle).parameters.items()}
    assert sample["ORACLE_SEED"] == suite["seed"]
    assert {name: suite[name] for name in ("dim", "steps")} == \
        {name: sample["ORACLE_CONFIG"][name] for name in ("dim", "steps")}
    assert sample["ORACLE_CONFIG"]["trials"] <= suite["trials"]

    inner = orc.empirical_jacobi_moments
    monkeypatch.setattr(module, "CLI_COMMANDS", [])
    monkeypatch.setattr(module, "run_suite", _suites(
        ("oracle", {"dim": 4, "steps": 2, "trials": 3, "seed": 5}),
        ("general-theta", {"dim": 8, "steps": 2, "trials": 2})))
    module.main()
    assert orc.empirical_jacobi_moments is inner
    runs = json.loads(capsys.readouterr().out)["oracle"]
    configs = [
        orc.OracleConfig(dim=4, steps=2, trials=3, seed=5),
        orc.OracleConfig(dim=4, steps=2, trials=3, seed=6, mode="unitary"),
        orc.OracleConfig(dim=8, steps=2, trials=2, seed=11, theta=0.75,
                         mode="bernoulli_weight", orders=(1, 2, 3, 4)),
    ]
    assert len(runs) == len(configs)
    for record, config in zip(runs, configs):
        run = orc.empirical_jacobi_moments(config)
        assert record == {
            **{key: getattr(config, key) for key in ("mode", "seed", "dim", "steps", "trials")},
            "per_trial": [[float(x).hex() for x in row] for row in run.per_trial],
            "trial_drift": [x.hex() for x in run.trial_drift],
        }
        two = orc.empirical_jacobi_moments(replace(config, trials=2))
        assert record["per_trial"][:2] == [[float(x).hex() for x in row]
                                           for row in two.per_trial]


def test_check_values_script_names_a_command_whose_second_run_differs(capsys, monkeypatch):
    module = _check_values_script()
    # the commands run before any suite, so a difference fails in seconds
    monkeypatch.setattr(module, "run_suite", lambda name: pytest.fail("a suite ran"))
    run, runs = module._run, []

    def drifting(argv):
        code = run(argv)
        command = " ".join(argv[2:])
        if command == "words --n 8" and command in runs:
            (Path(argv[1]) / "word_counts.csv").write_text("drift\n")
        runs.append(command)
        return code

    monkeypatch.setattr(module, "_run", drifting)
    with pytest.raises(SystemExit) as exc:
        module.main()
    assert str(exc.value.code).endswith("differs: words --n 8")
    assert capsys.readouterr().out == ""
    assert runs == module.CLI_COMMANDS * 2


@pytest.mark.parametrize("command", [
    "moments --lambda 0.6 --t 1.0006",
    "series --check pde --t 1.0006",
    "series --check decomposition --lambda 0.6 --t 1.0007",
])
def test_time_off_the_step_grid_is_integrated_to(tmp_path, command):
    # the last RK4 step is a partial one that lands on --t, which the
    # route then reads back
    with redirect_stdout(io.StringIO()):
        assert run_cli(tmp_path, *command.split()) == 0
    assert all(csv_fields_finite(path) for path in tmp_path.glob("*.csv"))


def test_s_system_ends_on_an_off_grid_time(tmp_path):
    with redirect_stdout(io.StringIO()):
        assert run_cli(tmp_path, "s-system", "--t", "1.0006", "--order", "2",
                       "--samples", "2000") == 0
    with open(tmp_path / "s_system.csv", newline="") as handle:
        times = [float(row["t"]) for row in csv.DictReader(handle)]
    assert max(times) == 1.0006


@pytest.mark.parametrize("command", [
    "moments --method closed-form --t -1",
    "moments --method expansion --t -1",
    "moments --method closed-form --t nan",
    "moments --method closed-form --t inf",
    "moments --t inf",
    "density --t inf",
    "density --t nan",
    "oracle --t nan --dim 16 --steps 5 --trials 2",
    "series --check mgf --t inf",
    "series --check rho --t -1",
    "series --check rho --t nan",
    "series --check rho --t inf",
])
def test_time_outside_its_range_exits_2(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, *command.split())
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_rho_check_at_time_zero_passes(tmp_path):
    # the stencil at t = 0 reads rho at a negative time, so the range
    # check belongs to the command, not to rho_series
    with redirect_stdout(io.StringIO()):
        assert run_cli(tmp_path, "series", "--check", "rho", "--t", "0") == 0
