"""Tests for the single-constraint solvers and their conditions."""

import math
import random
import zlib

import numpy as np
import pytest

from waterline import (
    BOX_STRATEGIES, BoxProblem, DomainError, InfeasibleBudget, LogCapacity,
    InverseMse, SimplexProblem, SolverConfig, SumInverseMse, SumLog,
    check_conditions, enumerate_p1, kkt_residual_p1, solve_ascending,
    solve_box, solve_p1, solve_p1_lower, solve_water_level)
from waterline.core import _classify, deactivation_loop, illinois_root, water_fill
from waterline.objectives import Channels, Objective

from conftest import (
    FLAT_FAMILIES, make_objective, random_ascending, random_box, random_simplex)


def test_two_channel_strong_weak():
    # strong channel takes everything when the budget is small
    problem = SimplexProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 3)], 1.0)
    alloc = solve_p1(problem)
    assert alloc.powers == pytest.approx([1.0, 0.0], abs=1e-12)
    assert alloc.active_set == [0]
    assert alloc.status == "optimal"


def test_symmetric_split():
    problem = SimplexProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)], 2.0)
    alloc = solve_p1(problem)
    assert alloc.powers == pytest.approx([1.0, 1.0], rel=1e-12)
    assert alloc.water_level == pytest.approx(0.5, rel=1e-12)


def test_closed_form_water_levels():
    # homogeneous log family: mu = sum(w) / (P + sum(b/a))
    objs = [LogCapacity(2, 1, 1), LogCapacity(1, 2, 1)]
    mu = solve_water_level(objs, 4.0)
    assert mu == pytest.approx(3.0 / (4.0 + 1.5), rel=1e-12)
    # homogeneous inverse-MSE family: mu = (sum sqrt(w/a) / (P + sum b/a))^2
    objs = [InverseMse(1, 1, 1), InverseMse(4, 1, 1)]
    mu = solve_water_level(objs, 2.0)
    assert mu == pytest.approx((3.0 / 4.0) ** 2, rel=1e-12)


def test_lower_bounds_respected():
    problem = SimplexProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 3)],
                             1.0, [0.0, 0.4])
    alloc = solve_p1_lower(problem)
    assert alloc.powers[1] == pytest.approx(0.4)
    assert alloc.powers[0] == pytest.approx(0.6)
    assert alloc.lower_set == [1]


def test_solve_p1_rejects_nonzero_lower_bounds():
    problem = SimplexProblem([LogCapacity(1, 1, 1)], 1.0, [0.5])
    with pytest.raises(DomainError):
        solve_p1(problem)


def test_infeasible_lower_bounds():
    with pytest.raises(InfeasibleBudget):
        SimplexProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)],
                       1.0, [0.7, 0.7])


def test_budget_fully_consumed_by_bounds():
    problem = SimplexProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)],
                             1.0, [0.5, 0.5])
    alloc = solve_p1_lower(problem)
    assert alloc.powers == pytest.approx([0.5, 0.5])
    assert alloc.status == "feasible"
    assert alloc.water_level is None


@pytest.mark.parametrize("family", FLAT_FAMILIES)
def test_oracle_equivalence_random(family):
    rng = random.Random(zlib.crc32(family.encode()) & 0xFFFF)
    for i in range(40):
        problem = random_simplex(family, rng, rng.randint(2, 6),
                                 with_lower=bool(i % 2))
        alloc = solve_p1_lower(problem)
        oracle = enumerate_p1(problem)
        assert alloc.objective_value == pytest.approx(
            oracle.objective_value, rel=1e-8)


@pytest.mark.parametrize("family", FLAT_FAMILIES)
def test_iteration_bound_and_monotone_water_level(family):
    rng = random.Random(zlib.crc32(family.encode()) & 0xFFF)
    for _ in range(40):
        k = rng.randint(2, 6)
        problem = random_simplex(family, rng, k)
        alloc = solve_p1_lower(problem)
        deactivation_rounds = len(alloc.water_levels) - 1
        assert deactivation_rounds <= k - 1
        for a, b in zip(alloc.water_levels, alloc.water_levels[1:]):
            assert b > a


def test_total_power_and_conditions():
    rng = random.Random(99)
    for family in FLAT_FAMILIES:
        problem = random_simplex(family, rng, 5, with_lower=True)
        alloc = solve_p1_lower(problem)
        assert alloc.total_power == pytest.approx(problem.budget, rel=1e-9)
        report = kkt_residual_p1(problem, alloc)
        assert report.passed, report.residuals


def test_conditions_flag_uniform_allocation():
    problem = SimplexProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 3)], 1.0)
    report = kkt_residual_p1(problem, [0.5, 0.5])
    assert not report.passed
    assert report.residuals["rate_spread"] > 1e-3


def test_conditions_flag_power_mismatch():
    problem = SimplexProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)], 2.0)
    report = kkt_residual_p1(problem, [0.5, 0.5])
    assert report.residuals["power_residual"] == pytest.approx(0.5)
    assert not report.passed


def test_conditions_flag_lower_bound_violation():
    # Channel 0 below its lower bound: the rate conditions alone pass it.
    problem = SimplexProblem([LogCapacity(1, 0.1, 1), LogCapacity(1, 1, 1)],
                             2.0, [1.0, 0.0])
    report = kkt_residual_p1(problem, [0.0, 2.0])
    assert report.residuals["bounds_violation"] == pytest.approx(1.0)
    assert not report.passed
    assert kkt_residual_p1(problem, solve_p1_lower(problem)).passed


def test_solver_config_validation():
    with pytest.raises(DomainError):
        SolverConfig(mu_tolerance=0.0)
    with pytest.raises(DomainError):
        SolverConfig(box_strategy="nope")


def _bank_instance(family, rng, k, infinite_rates=False):
    """K channels of one closed-form family with positive lower bounds; with
    ``infinite_rates`` every other channel is log_capacity with b = 0 and a
    zero lower bound, where the rate at the bound is infinite."""
    cls = LogCapacity if family == "log_capacity" else InverseMse
    w = rng.uniform(0.5, 2.0, k)
    a = 10.0 ** rng.uniform(-2.0, 2.0, k)
    b = rng.uniform(0.05, 2.0, k)
    budget = k * rng.uniform(0.5, 3.0)
    gamma = rng.uniform(0.01, 0.8, k) * budget / k
    if infinite_rates:
        b[::2] = 0.0
        gamma[::2] = 0.0
    channels = Channels([cls(*p) for p in zip(w, a, b)])
    return channels, gamma, budget


@pytest.mark.parametrize("family,infinite_rates",
                         [("log_capacity", False), ("log_capacity", True),
                          ("inverse_mse", False)],
                         ids=["log_capacity", "log_capacity_b0", "inverse_mse"])
def test_sorted_search_matches_deactivation_loop(family, infinite_rates):
    rng = np.random.default_rng(7)
    for k in (1, 2, 3, 5, 16, 64, 257, 1024):
        for _ in range(4):
            channels, gamma, budget = _bank_instance(family, rng, k, infinite_rates)
            powers, mu, levels, status = water_fill(channels, gamma, budget)
            loop_powers, loop_mu, _, loop_status = deactivation_loop(
                channels, gamma, budget)
            assert status == loop_status == "optimal"
            # One pass: a single water level, no deactivation rounds.
            assert levels == [mu]
            assert np.abs(powers - loop_powers).max() <= 1e-6
            assert abs(channels.eval(powers).sum() - channels.eval(loop_powers).sum()) <= 1e-8
            assert mu == pytest.approx(loop_mu, rel=1e-12)
            # Both leave an inactive channel exactly at its lower bound.
            assert np.array_equal(powers > gamma, loop_powers > gamma)


@pytest.mark.parametrize("cls", [LogCapacity, InverseMse])
def test_sorted_search_feasible_when_bounds_use_the_budget(cls):
    objs = [cls(1, 2, 1), cls(1, 1, 3), cls(2, 1, 0.5)]
    gamma = [0.3, 0.5, 0.2]
    alloc = solve_p1_lower(SimplexProblem(objs, 1.0, gamma))
    assert alloc.status == "feasible"
    assert alloc.powers == gamma
    assert alloc.water_level is None
    assert alloc.active_set == []


def test_illinois_root_ends_on_width_for_a_negative_root():
    # With tol = 0 only the bracket width can stop the search; its test must
    # hold on a bracket of negative numbers too.
    calls = []

    def h(x):
        calls.append(x)
        return 0.1 - math.exp(x)

    lo, hi = -10.0, -0.5
    rtol = 4.0 * np.finfo(float).eps
    root = illinois_root(h, lo, hi, h(lo), h(hi), 0.0, rtol)
    assert len(calls) <= 40
    assert root == pytest.approx(math.log(0.1), rel=1e-14)


def _assert_record_sets(problem, alloc):
    """The record's sets are the classification of its powers (a fixed
    channel counts as lower), and a single-level record has a water level
    exactly when a channel is interior.  Its water levels are Python floats."""
    gamma = np.array(problem.lower_bounds, dtype=float)
    tau = np.array(getattr(problem, "upper_bounds", [math.inf] * problem.n), dtype=float)
    fixed, lower, upper, active = _classify(np.array(alloc.powers), gamma, tau)
    assert alloc.active_set == np.flatnonzero(active).tolist()
    assert alloc.lower_set == np.flatnonzero(fixed | lower).tolist()
    assert alloc.upper_set == np.flatnonzero(upper).tolist()
    assert all(type(level) is float for level in alloc.water_levels)
    if not alloc.active_set:
        assert alloc.water_level is None
    elif not alloc.splits:  # a staircase of several blocks has no one level
        assert alloc.water_level is not None


def test_every_flat_record_classifies_its_powers():
    rng = random.Random(31)
    for family in FLAT_FAMILIES:
        for i in range(12):
            problem = random_simplex(family, rng, rng.randint(2, 6), with_lower=bool(i % 2))
            _assert_record_sets(problem, solve_p1_lower(problem))
            box = random_box(family, rng, rng.randint(2, 6))
            # A box with no room: the channel sits at both bounds.
            box = BoxProblem(box.channels, box.budget, box.lower_bounds,
                             box.upper_bounds[:-1] + box.lower_bounds[-1:])
            ascending = random_ascending(family, rng, rng.randint(2, 5))
            for strategy in BOX_STRATEGIES:
                cfg = SolverConfig(box_strategy=strategy)
                _assert_record_sets(box, solve_box(box, cfg))
                _assert_record_sets(ascending, solve_ascending(ascending, cfg))


def _count_numeric_object_calls(monkeypatch) -> list:
    """Record each call of the sum families' scalar ``rate`` and of the
    scalar numeric inversion."""
    calls = []
    for cls, name in ((SumLog, "rate"), (SumInverseMse, "rate"),
                      (Objective, "_demand_numeric")):
        def counted(self, *args, _original=getattr(cls, name), _name=name):
            calls.append(_name)
            return _original(self, *args)
        monkeypatch.setattr(cls, name, counted)
    return calls


def test_sum_families_solve_and_check_on_the_bank(monkeypatch):
    """The solver and checker evaluate sum families as arrays; the oracle
    still reads the objects."""
    rng = random.Random(31)
    problem = SimplexProblem([make_objective(FLAT_FAMILIES[i % 5], rng) for i in range(60)],
                             90.0, [rng.uniform(0, 0.5) for _ in range(60)])
    calls = _count_numeric_object_calls(monkeypatch)
    alloc = solve_p1_lower(problem)
    assert check_conditions(problem, alloc, tolerance=1e-8).passed
    assert alloc.status == "optimal" and len(alloc.water_levels) > 1
    assert calls == []
    small = SimplexProblem([make_objective(family, rng) for family in
                            ("sum_log", "sum_inverse_mse", "sum_log", "sum_inverse_mse")], 3.0)
    enumerate_p1(small)
    assert calls
