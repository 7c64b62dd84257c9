"""Tests for the ascending prefix-budget solver."""

import random
import zlib

import pytest

from waterline import (
    BOX_STRATEGIES, AscendingProblem, InfeasibleBudget, LogCapacity, SolverConfig,
    check_conditions, enumerate_box, grid_search, projected_gradient,
    solve_ascending, solve_box, BoxProblem)

from conftest import CLOSED_FORM_FAMILIES, enumerate_tight_caps, random_ascending

# Two blocks each.  In the first, the strong middle channel pulls channel 0
# into cap 1's block; in the second, caps 0 and 1 are equal.
STAIRCASES = [
    (AscendingProblem([LogCapacity(1, 1, 1), LogCapacity(1, 8, 1), LogCapacity(1, 1, 1)],
                      [1.5, 2.0, 6.0]), [0.5625, 1.4375, 4.0]),
    (AscendingProblem([LogCapacity(1, 4, 1), LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)],
                      [1.0, 1.0, 2.0]), [0.875, 0.125, 1.0]),
]


def test_two_channel_split_example():
    # relaxed solve gives (1,1), violating the first prefix budget of 0.5
    problem = AscendingProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)],
                               [0.5, 2.0])
    alloc = solve_ascending(problem)
    assert alloc.powers == pytest.approx([0.5, 1.5], abs=1e-9)
    assert alloc.splits == 1
    assert alloc.status == "optimal"
    oracle = grid_search(problem)
    assert alloc.objective_value == pytest.approx(
        oracle.objective_value, abs=1e-6)


def test_slack_prefixes_reduce_to_box():
    rng = random.Random(7)
    problem = random_ascending("log_capacity", rng, 4)
    budget = problem.prefix_budgets[-1]
    slack = AscendingProblem(problem.objectives, [budget] * 4,
                             problem.lower_bounds,
                             [None if u == float("inf") else u
                              for u in problem.upper_bounds])
    alloc = solve_ascending(slack)
    box = solve_box(BoxProblem(problem.objectives, budget,
                               problem.lower_bounds,
                               [None if u == float("inf") else u
                                for u in problem.upper_bounds]))
    assert alloc.splits == 0
    assert alloc.powers == pytest.approx(box.powers, abs=1e-9)


def test_single_split_matches_oracle_k3():
    problem = AscendingProblem(
        [LogCapacity(1, 1, 1), LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)],
        [0.4, 3.0, 3.0])
    alloc = solve_ascending(problem)
    assert alloc.splits == 1
    oracle = projected_gradient(problem)
    assert alloc.objective_value >= oracle.objective_value - 1e-8
    assert alloc.objective_value == pytest.approx(
        oracle.objective_value, rel=1e-6)


@pytest.mark.parametrize("strategy", BOX_STRATEGIES)
@pytest.mark.parametrize("problem,expected", STAIRCASES)
def test_two_block_staircases(problem, expected, strategy):
    alloc = solve_ascending(problem, SolverConfig(box_strategy=strategy))
    assert alloc.powers == pytest.approx(expected, abs=1e-9)
    assert (alloc.status, alloc.splits) == ("optimal", 1)
    assert check_conditions(problem, alloc, tolerance=1e-8).passed
    assert alloc.objective_value == pytest.approx(enumerate_tight_caps(problem), abs=1e-12)


def test_conditions_flag_a_level_that_rises():
    # Feasible, but 0.446 nats short: across the tight cap 0, channel 1's
    # rate 1.6 exceeds channel 0's 0.4, so power should move right.
    report = check_conditions(STAIRCASES[0][0], [1.5, 0.5, 4.0])
    assert report.residuals["level_order_violation"] == pytest.approx(1.2)
    assert not report.passed
    # After the last tight cap every cap is slack, so the level there is 0;
    # channel 1 could take more power.
    problem = AscendingProblem([LogCapacity(1, 1, 1)] * 2, [1.0, 3.0])
    report = check_conditions(problem, [1.0, 1.0])
    assert report.residuals["level_order_violation"] == pytest.approx(0.5)
    assert check_conditions(problem, [1.0, 2.0]).passed


def test_nonmonotone_prefixes_rejected():
    with pytest.raises(Exception):
        AscendingProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)],
                         [2.0, 1.0])


def test_prefix_infeasible_lower_bounds_rejected():
    with pytest.raises(InfeasibleBudget):
        AscendingProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)],
                         [0.5, 2.0], [0.8, 0.0])


@pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES)
def test_feasibility_random(family):
    rng = random.Random(zlib.crc32(family.encode()) & 0xFFFF)
    for _ in range(60):
        problem = random_ascending(family, rng, rng.randint(2, 6))
        alloc = solve_ascending(problem)
        running = 0.0
        for p, cap, lo, hi in zip(alloc.powers, problem.prefix_budgets,
                                  problem.lower_bounds, problem.upper_bounds):
            running += p
            assert running <= cap * (1 + 1e-9)
            assert lo - 1e-9 <= p <= hi + 1e-9
        report = check_conditions(problem, alloc)
        assert report.passed, report.residuals


def test_dominance_on_left_range():
    # after a split, the prefix allocation is channelwise <= the relaxed one
    problem = AscendingProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)],
                               [0.5, 2.0])
    relaxed = solve_box(BoxProblem(problem.objectives, 2.0))
    nested = solve_ascending(problem)
    assert nested.powers[0] <= relaxed.powers[0] + 1e-12


def test_conditions_flag_prefix_violation():
    problem = AscendingProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)],
                               [0.5, 2.0])
    report = check_conditions(problem, [1.0, 1.0])
    assert report.residuals["prefix_violation"] > 0.2
    assert not report.passed
