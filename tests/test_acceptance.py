"""Acceptance suite: one test per top-level criterion.

Each test prints a single PASS line when it completes (pytest raises on any
assertion failure, so a printed line implies the criterion held).
"""

import math
import random
import time
import zlib

from click.testing import CliRunner

from waterline import (
    BOX_STRATEGIES, ClusterLogCapacity, FairProblem, LogCapacity,
    NegativeDemand, SimplexProblem, SolverConfig, check_conditions,
    enumerate_box, enumerate_p1, grid_search, solve_ascending, solve_box,
    solve_cluster, solve_maxmin, solve_p1, solve_p1_lower)
from waterline.cli import main as cli_main

from conftest import (
    CLOSED_FORM_FAMILIES, FLAT_FAMILIES, enumerate_tight_caps, make_objective,
    random_ascending, random_box, random_simplex)

# Criterion-1 runs are shared with criteria 3 and 4.
_P1_RUNS = []


def _p1_runs():
    if _P1_RUNS:
        return _P1_RUNS
    for family in FLAT_FAMILIES:
        rng = random.Random(zlib.crc32(family.encode()) & 0xFFFF)
        for i in range(500):
            k = rng.randint(2, 6)
            problem = random_simplex(family, rng, k, with_lower=bool(i % 2))
            alloc = solve_p1_lower(problem)
            _P1_RUNS.append((problem, alloc, k))
    return _P1_RUNS


def test_criterion_1_oracle_equivalence_p1():
    start = time.perf_counter()
    runs = _p1_runs()
    for problem, alloc, _k in runs:
        oracle = enumerate_p1(problem)
        gap = abs(alloc.objective_value - oracle.objective_value)
        assert gap <= 1e-8 * (1.0 + abs(oracle.objective_value))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 (oracle equivalence P1/P1.1, {len(runs)} instances "
          f"across {len(FLAT_FAMILIES)} families in {elapsed:.1f}s): PASS")


def test_criterion_3_iteration_bound():
    for _problem, alloc, k in _p1_runs():
        assert len(alloc.water_levels) - 1 <= k - 1
        for a, b in zip(alloc.water_levels, alloc.water_levels[1:]):
            assert b > a
    print("\nACCEPTANCE 3 (deactivation rounds <= K-1, water level strictly "
          "increasing): PASS")


def test_criterion_4_condition_residuals():
    checked = 0
    for problem, alloc, _k in _p1_runs():
        if alloc.status != "optimal":
            continue
        report = check_conditions(problem, alloc, tolerance=1e-8)
        assert report.passed, report.residuals
        checked += 1
    rng = random.Random(4)
    for family in FLAT_FAMILIES:
        for _ in range(50):
            problem = random_box(family, rng, rng.randint(2, 8))
            alloc = solve_box(problem)
            if alloc.status != "optimal":
                continue
            report = check_conditions(problem, alloc, tolerance=1e-8)
            assert report.passed, report.residuals
            checked += 1
    print(f"\nACCEPTANCE 4 (condition residuals <= 1e-8 on {checked} "
          f"optimal allocations): PASS")


def test_criterion_2_four_way_box_agreement():
    rng = random.Random(2)
    count = 0
    for i in range(500):
        family = FLAT_FAMILIES[i % len(FLAT_FAMILIES)]
        k = rng.randint(2, 8)
        problem = random_box(family, rng, k)
        allocs = [solve_box(problem, SolverConfig(box_strategy=s))
                  for s in BOX_STRATEGIES]
        ref = allocs[0]
        for alloc in allocs[1:]:
            linf = max(abs(a - b) for a, b in zip(alloc.powers, ref.powers))
            assert linf <= 1e-6
            assert abs(alloc.objective_value - ref.objective_value) <= 1e-8
        if k <= 6:
            oracle = enumerate_box(problem)
            gap = abs(ref.objective_value - oracle.objective_value)
            assert gap <= 1e-8 * (1.0 + abs(oracle.objective_value))
        count += 1
    print(f"\nACCEPTANCE 2 (four-way box agreement on {count} instances, "
          f"enumeration check for K<=6): PASS")


def test_criterion_5_ascending_feasibility():
    rng = random.Random(5)
    enumerated = 0
    for i in range(500):
        family = CLOSED_FORM_FAMILIES[i % len(CLOSED_FORM_FAMILIES)]
        k = rng.randint(2, 6)
        problem = random_ascending(family, rng, k)
        alloc = solve_ascending(problem)
        running = 0.0
        for p, cap, lo, hi in zip(alloc.powers, problem.prefix_budgets,
                                  problem.lower_bounds, problem.upper_bounds):
            running += p
            assert running <= cap * (1.0 + 1e-9)
            assert lo - 1e-9 <= p <= hi + 1e-9
        report = check_conditions(problem, alloc, tolerance=1e-8)
        assert report.passed, (i, report.residuals)
        if k <= 5:
            best = enumerate_tight_caps(problem)
            assert abs(alloc.objective_value - best) <= 1e-8, \
                (family, k, alloc.objective_value, best)
            enumerated += 1
    assert enumerated > 0
    print(f"\nACCEPTANCE 5 (ascending optimality on 500 instances, every one "
          f"certified at 1e-8; {enumerated} with K <= 5 within 1e-8 of the "
          f"tight-cap enumeration): PASS")


def test_criterion_6_maxmin_equalization():
    # the closed-form instance: f1 = log(1+2p), f2 = log(1+p), P = 3
    problem = FairProblem([[LogCapacity(1, 2, 1)], [LogCapacity(1, 1, 1)]], 3.0)
    sol = solve_maxmin(problem)
    assert abs(sol.t - math.log(3.0)) <= 1e-8
    # micro instances against the grid oracle
    rng = random.Random(6)
    for i in range(12):
        family = CLOSED_FORM_FAMILIES[i % len(CLOSED_FORM_FAMILIES)]
        groups = [[make_objective(family, rng)
                   for _ in range(rng.randint(1, 2))]
                  for _ in range(rng.randint(1, 2))]
        micro = FairProblem(groups, rng.uniform(1.0, 5.0))
        sol = solve_maxmin(micro)
        for util, active in zip(sol.group_utilities, sol.active_sets):
            if active:
                assert abs(util - sol.t) <= 1e-6 * (1.0 + abs(sol.t))
        oracle = grid_search(micro)
        assert abs(sol.t - oracle.objective_value) <= \
            1e-5 * (1.0 + abs(oracle.objective_value))
    print("\nACCEPTANCE 6 (max-min equalization; closed-form t = log 3 "
          "within 1e-8; grid agreement 1e-5): PASS")


def test_criterion_7_cluster_degeneracies():
    # J = 1 reduces to the single-constraint solver
    group = [ClusterLogCapacity(1, 2, 0.1, 1.0),
             ClusterLogCapacity(1, 1, 0.1, 1.0)]
    sol = solve_cluster(FairProblem([group], 4.0, mode="cluster"))
    ref = solve_p1(SimplexProblem([o.bind(4.0) for o in group], 4.0))
    for a, b in zip(sol.powers[0], ref.powers):
        assert abs(a - b) <= 1e-8 * (1.0 + abs(b))
    # sigma_e^2 = 0 pools into the single-constraint solver
    groups = [[ClusterLogCapacity(1, 2, 0.0, 1.0)],
              [ClusterLogCapacity(1, 1, 0.0, 1.0)]]
    sol = solve_cluster(FairProblem(groups, 3.0, mode="cluster"))
    pooled = solve_p1(SimplexProblem(
        [LogCapacity(1, 2, 1), LogCapacity(1, 1, 1)], 3.0))
    assert abs(sol.powers[0][0] - pooled.powers[0]) <= 1e-8
    assert abs(sol.powers[1][0] - pooled.powers[1]) <= 1e-8
    print("\nACCEPTANCE 7 (cluster degeneracies J=1 and sigma_e^2=0 match "
          "the single-constraint solver within 1e-8): PASS")


def _run_sweep(runner, tmp_path, gamma, tau, name):
    out = str(tmp_path / name)
    result = runner.invoke(cli_main, [
        "sweep", "--antennas", "4", "--taps", "7", "--decay", "0.5",
        "--subcarriers", "32", "--realizations", "100",
        "--snr-list", "0,5,10,15,20", "--gamma", str(gamma),
        "--tau", str(tau), "--seed", "8", "--out", out])
    assert result.exit_code == 0, result.output
    rows = [line.split(",") for line in
            open(out).read().strip().splitlines()[1:]]
    return [(float(r[0]), float(r[5]), float(r[6])) for r in rows]


def test_criterion_8_sweep_trend(tmp_path):
    start = time.perf_counter()
    runner = CliRunner()
    tight = _run_sweep(runner, tmp_path, 0.4, 1.6, "tight.csv")
    loose = _run_sweep(runner, tmp_path, 0.1, 4.0, "loose.csv")
    for rows in (tight, loose):
        mses = [m for _s, m, _f in rows]
        assert all(a > b for a, b in zip(mses, mses[1:])), mses
    for (snr_t, mse_t, _), (snr_l, mse_l, _) in zip(tight, loose):
        assert snr_t == snr_l
        assert mse_l <= mse_t + 1e-15
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 8 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 8 (mean MSE strictly decreasing in SNR; looser "
          f"boxes never worse; {elapsed:.1f}s): PASS")


def test_criterion_9_bound_activity(tmp_path):
    runner = CliRunner()
    out = str(tmp_path / "activity.csv")
    result = runner.invoke(cli_main, [
        "sweep", "--antennas", "4", "--taps", "7", "--decay", "0.5",
        "--subcarriers", "32", "--realizations", "100",
        "--snr-list", "20", "--gamma", "0.4", "--tau", "1.6",
        "--seed", "8", "--out", out])
    assert result.exit_code == 0, result.output
    row = open(out).read().strip().splitlines()[1].split(",")
    fraction = float(row[6])
    assert fraction >= 0.5, fraction
    print(f"\nACCEPTANCE 9 (bound active in {fraction:.0%} of realizations "
          f"at SNR 20 dB): PASS")


def test_criterion_10_objective_contracts():
    rng = random.Random(10)
    for family in FLAT_FAMILIES:
        points_checked = 0
        while points_checked < 1000:
            obj = make_objective(family, rng)
            prev_p = None
            for _ in range(10):
                p = rng.uniform(0.01, 40)
                # round trip through the inverse rate
                back = obj.inverse_rate(obj.rate(p))
                assert not isinstance(back, NegativeDemand)
                assert abs(back - p) <= 1e-8 * (1.0 + p)
                # finite-difference agreement of the rate
                h = 1e-6 * (1.0 + p)
                fd = (obj.eval(p + h) - obj.eval(p - h)) / (2 * h)
                assert abs(obj.rate(p) - fd) <= 1e-5 * abs(fd)
                # monotonicity: higher power, higher value, lower rate
                if prev_p is not None:
                    lo, hi = sorted((prev_p, p))
                    if hi - lo > 1e-9:
                        assert obj.eval(hi) > obj.eval(lo)
                        assert obj.rate(hi) < obj.rate(lo)
                prev_p = p
                points_checked += 1
    print("\nACCEPTANCE 10 (objective contracts: round-trip, monotonicity, "
          "finite differences on 1000 points per family): PASS")
