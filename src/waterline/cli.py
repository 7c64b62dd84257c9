"""Command-line front end.

Exit codes: 0 success, 1 input/schema error, 2 solver error.  The
``WATERLINE_SEED`` environment variable overrides ``--seed`` wherever a seed
is accepted.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import time

import click
import numpy as np

from .box import box_fill_rows, solve_box
from .core import _classify, finish, solve_p1_lower
from .errors import SchemaError, SizeLimit, WaterlineError
from .fair import solve_fair
from .io import (_finite_numbers, dumps, load_instance, load_result, problem_class,
                 result_to_dict, save_instance, save_result, write_json)
from .nested import solve_ascending
from .oracle import check_conditions, enumerate_box
from .problems import (BOX_STRATEGIES, AscendingProblem, BoxProblem,
                       FairProblem, FairSolution, SolverConfig)
from .scenario import (ScenarioSpec, build_instance, channel_gains, instance_bounds,
                       instance_channels)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(path: str):
    try:
        return load_instance(path)
    except OSError as exc:
        _fail(1, f"cannot read {path}: {exc}")
    except SchemaError as exc:
        _fail(1, str(exc))
    except WaterlineError as exc:
        _fail(1, str(exc))


def _seed(seed: int) -> int:
    env = os.environ.get("WATERLINE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            _fail(1, f"WATERLINE_SEED: expected an integer, got {env!r}")
    return seed


def _dispatch(problem, cfg: SolverConfig):
    if isinstance(problem, FairProblem):
        return solve_fair(problem, cfg), problem.mode
    if isinstance(problem, BoxProblem):
        return solve_box(problem, cfg), f"box:{cfg.box_strategy}"
    if isinstance(problem, AscendingProblem):
        return solve_ascending(problem, cfg), "nested"
    return solve_p1_lower(problem, cfg), "deactivation"


@click.group()
def main():
    """Water-filling power-allocation solvers, oracles, and scenarios."""


@main.command("solve")
@click.argument("instance", type=click.Path())
@click.option("--strategy", type=click.Choice(BOX_STRATEGIES), default="order",
              help="Box-solver strategy.")
@click.option("--tol", type=float, default=1e-9,
              help="Power tolerance as a fraction of the budget.")
@click.option("--out", type=click.Path(), default=None,
              help="Write the result JSON here instead of stdout.")
def cmd_solve(instance, strategy, tol, out):
    """Solve one instance file and emit a result document."""
    problem = _load(instance)
    try:
        cfg = SolverConfig(power_tolerance=tol, box_strategy=strategy)
    except WaterlineError as exc:
        _fail(1, str(exc))
    start = time.perf_counter()
    try:
        result, solver = _dispatch(problem, cfg)
        report = check_conditions(problem, result)
    except WaterlineError as exc:
        _fail(2, str(exc))
    wall = time.perf_counter() - start
    doc = result_to_dict(problem, result, solver=solver, strategy=strategy,
                         cfg=cfg, wall_time=wall, report=report)
    if out:
        save_result(doc, out)
        click.echo(f"wrote {out} (status {doc['status']})")
    else:
        click.echo(dumps(doc))


def _check_powers(powers, n: int) -> None:
    """Raise :class:`SchemaError` unless ``powers`` lists ``n`` finite numbers."""
    if not isinstance(powers, list) or len(powers) != n:
        raise SchemaError("powers", "shape does not match the instance")
    if not _finite_numbers(powers):
        raise SchemaError("powers", "every power must be a finite number")


def _rebuild_fair_solution(problem: FairProblem, doc: dict) -> FairSolution:
    """A fair result's powers, group totals and utilities, and t: the fields
    :func:`~waterline.oracle.check_conditions` reads; the rest stay empty."""
    powers = doc["powers"]
    if not isinstance(powers, list) or len(powers) != len(problem.groups):
        raise SchemaError("powers", "group count does not match the instance")
    for row, group in zip(powers, problem.groups):
        _check_powers(row, len(group))
    totals = [sum(row) for row in powers]
    utilities = [float(group.bind(total).eval(row).sum())
                 for group, row, total in zip(problem.group_banks, powers, totals)]
    return FairSolution(powers=powers, water_levels=[], group_totals=totals,
                        group_utilities=utilities, t=doc.get("t", min(utilities)),
                        active_sets=[], iterations=0, status="")


@main.command("verify")
@click.argument("instance", type=click.Path())
@click.argument("result", type=click.Path())
@click.option("--tol", type=float, default=1e-8, help="Residual tolerance.")
def cmd_verify(instance, result, tol):
    """Check a result file against the optimality conditions of its instance."""
    problem = _load(instance)
    try:
        doc = load_result(result)
    except (OSError, SchemaError) as exc:
        _fail(1, str(exc))
    if doc["problem_class"] != problem_class(problem):
        _fail(1, f"problem_class mismatch: instance is {problem_class(problem)}, "
                 f"result is {doc['problem_class']}")
    try:
        if isinstance(problem, FairProblem):
            allocation = _rebuild_fair_solution(problem, doc)
        else:
            allocation = doc["powers"]
            _check_powers(allocation, problem.n)
        report = check_conditions(problem, allocation, tolerance=tol)
    except SchemaError as exc:
        _fail(1, str(exc))
    except WaterlineError as exc:
        _fail(2, str(exc))
    for name, value in sorted(report.residuals.items()):
        flag = "n/a " if name in report.not_applicable else \
            ("pass" if value <= tol else "FAIL")
        click.echo(f"{flag}  {name} = {value:.3e}")
    click.echo(json.dumps({"residuals": report.residuals,
                           "tolerance": tol, "passed": report.passed}))
    sys.exit(0 if report.passed else 1)


@main.command("generate")
@click.option("--antennas", type=int, default=4)
@click.option("--taps", type=int, default=7)
@click.option("--decay", type=float, default=0.5)
@click.option("--subcarriers", type=int, default=256)
@click.option("--snr-db", type=float, default=10.0)
@click.option("--gamma", type=float, default=0.0,
              help="Lower bound as a multiple of the uniform share.")
@click.option("--tau", type=float, default=None,
              help="Upper bound as a multiple of the uniform share.")
@click.option("--realizations", type=int, default=1)
@click.option("--seed", type=int, default=0)
@click.option("--out-dir", type=click.Path(), default=".")
def cmd_generate(antennas, taps, decay, subcarriers, snr_db, gamma, tau,
                 realizations, seed, out_dir):
    """Generate MIMO-OFDM instance files (one per channel realization).

    Each file holds a box problem in the columnar layout: its objectives are
    one family name, inverse_mse, one array of a, and w and b as one number
    each (every subchannel has the same noise power); the bounds, when
    given, are one number each too (see README, "Instance format")."""
    try:
        spec = ScenarioSpec(antennas=antennas, taps=taps, decay=decay,
                            subcarriers=subcarriers, snr_db=snr_db,
                            gamma=gamma, tau=tau if tau is not None else math.inf,
                            realizations=realizations, seed=_seed(seed))
    except ValueError as exc:
        _fail(1, str(exc))
    os.makedirs(out_dir, exist_ok=True)
    for r in range(spec.realizations):
        save_instance(build_instance(spec, r),
                      os.path.join(out_dir, f"instance_{r:04d}.json"))
    click.echo(f"wrote {spec.realizations} instance file(s) to {out_dir}")


@main.command("compare")
@click.argument("instance", type=click.Path())
@click.option("--out", type=click.Path(), default=None,
              help="Write the CSV here instead of stdout.")
def cmd_compare(instance, out):
    """Run all four box strategies (plus the oracle when in range) on one instance."""
    problem = _load(instance)
    if not isinstance(problem, BoxProblem):
        _fail(1, "compare requires a box-class instance")
    try:
        oracle_value = enumerate_box(problem).objective_value
        oracle_col = f"{oracle_value!r}"
    except SizeLimit:
        oracle_value = None
        oracle_col = "out-of-range"
    rows = []
    for strategy in sorted(BOX_STRATEGIES):
        cfg = SolverConfig(box_strategy=strategy)
        start = time.perf_counter()
        try:
            alloc = solve_box(problem, cfg)
        except WaterlineError as exc:
            _fail(2, f"strategy {strategy}: {exc}")
        wall = time.perf_counter() - start
        rows.append((strategy, alloc, wall))
    reference = rows[0][1].powers
    best = max(r[1].objective_value for r in rows)
    writer_target = open(out, "w", newline="", encoding="utf-8") if out \
        else sys.stdout
    writer = csv.writer(writer_target)
    writer.writerow(["strategy", "objective", "objective_gap", "linf_vs_first",
                     "iterations", "wall_time", "oracle_gap"])
    for strategy, alloc, wall in rows:
        linf = max(abs(a - b) for a, b in zip(alloc.powers, reference))
        gap = best - alloc.objective_value
        oracle_gap = oracle_col if oracle_value is None else \
            repr(oracle_value - alloc.objective_value)
        writer.writerow([strategy, repr(alloc.objective_value), repr(gap),
                         repr(linf), alloc.iterations, f"{wall:.6f}", oracle_gap])
    if out:
        writer_target.close()
        click.echo(f"wrote {out}")


@main.command("sweep")
@click.option("--antennas", type=int, default=4)
@click.option("--taps", type=int, default=7)
@click.option("--decay", type=float, default=0.5)
@click.option("--subcarriers", type=int, default=256)
@click.option("--snr-list", default="0,5,10,15,20",
              help="Comma-separated SNR points in dB.")
@click.option("--gamma", type=float, default=0.0)
@click.option("--tau", type=float, default=None)
@click.option("--realizations", type=int, default=100)
@click.option("--seed", type=int, default=0)
@click.option("--strategy", type=click.Choice(BOX_STRATEGIES), default="order")
@click.option("--out", type=click.Path(), default=None,
              help="Write the CSV here instead of stdout.")
@click.option("--dump", type=click.Path(), default=None,
              help="Write one realization's full allocation as JSON here.")
def cmd_sweep(antennas, taps, decay, subcarriers, snr_list, gamma, tau,
              realizations, seed, strategy, out, dump):
    """Mean MSE versus SNR over many channel realizations."""
    try:
        snrs = [float(s) for s in snr_list.split(",") if s.strip()]
    except ValueError:
        _fail(1, f"snr-list: expected comma-separated numbers, got {snr_list!r}")
    if not snrs:
        _fail(1, "snr-list: no SNR points given")
    cfg = SolverConfig(box_strategy=strategy)
    seed = _seed(seed)
    specs = []
    for snr in snrs:
        try:
            specs.append(ScenarioSpec(antennas=antennas, taps=taps, decay=decay,
                                      subcarriers=subcarriers, snr_db=snr,
                                      gamma=gamma,
                                      tau=tau if tau is not None else math.inf,
                                      realizations=realizations, seed=seed))
        except ValueError as exc:
            _fail(1, str(exc))
    budgets = np.array([spec.budget for spec in specs])
    # The bounds depend only on the SNR points, gamma, tau and the channel
    # count: one (S, K) row each serves every realization.
    k = subcarriers * antennas
    lower, upper = map(np.array, zip(*(instance_bounds(s, k) for s in specs)))
    # BoxProblem's bound checks as arrays; a row that fails one, or lies near
    # the budget limit, is solved alone below.
    rows = ((np.isfinite(lower) & (lower >= 0) & (upper >= lower)).all(axis=1)
            & (lower.sum(axis=1) <= (1.0 - 1e-9) * budgets)).nonzero()[0]
    row_bounds = lower[rows], upper[rows], budgets[rows]
    row_of = {i: j for j, i in enumerate(rows.tolist())}  # SNR point -> batch row
    # Per SNR point: summed mean MSE, solves, solves with a bound hit, errors.
    mse, solved, hits, errors = ([0] * len(snrs) for _ in range(4))
    dump_doc = None
    for r in range(realizations):
        # The gains depend on neither the SNR nor the bounds: one draw and one
        # bank serve every SNR point, and the points are solved as one batch.
        gains = channel_gains(specs[0], r)
        batch = {}
        try:
            bank = instance_channels(specs[0], gains)
            fills = box_fill_rows(bank, *row_bounds, cfg)
            powers = np.array([fill[0] for fill in fills]).reshape(len(rows), k)
            values = bank.eval(powers).sum(axis=1).tolist()
            active = _classify(powers, *row_bounds[:2])[3]
            batch = row_of
        except WaterlineError:
            pass
        for i, spec in enumerate(specs):
            keep = dump and r == 0 and snrs[i] == snrs[-1]
            if i in batch:
                j = batch[i]
                objective, hit = values[j], not active[j].all()
                alloc = finish(bank, powers[j], lower[i], upper[i], *fills[j][1:]) \
                    if keep else None
            else:
                try:
                    alloc = solve_box(build_instance(spec, r, gains), cfg)
                except WaterlineError:
                    errors[i] += 1
                    continue
                objective = alloc.objective_value
                hit = bool(alloc.lower_set) or bool(alloc.upper_set)
            mse[i] += -objective / gains.size
            solved[i] += 1
            hits[i] += hit
            if keep:
                dump_doc = {"snr_db": snrs[i], "gamma": gamma, "tau": tau,
                            "powers": alloc.powers,
                            "lower_set": alloc.lower_set,
                            "upper_set": alloc.upper_set,
                            "budget": spec.budget}
    records = [(snr, gamma, tau if tau is not None else "", n, err,
                total / n if n else "", hit / n if n else "")
               for snr, total, n, hit, err in zip(snrs, mse, solved, hits, errors)]
    writer_target = open(out, "w", newline="", encoding="utf-8") if out \
        else sys.stdout
    writer = csv.writer(writer_target)
    writer.writerow(["snr_db", "gamma", "tau", "solved", "errors",
                     "mean_mse", "bound_active_fraction"])
    for row in records:
        writer.writerow([repr(x) if isinstance(x, float) else x for x in row])
    if out:
        writer_target.close()
        click.echo(f"wrote {out}")
    if dump and dump_doc is not None:
        write_json(dump_doc, dump)
        if out:
            click.echo(f"wrote {dump}")


if __name__ == "__main__":
    main()
