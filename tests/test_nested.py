"""Tests for the ascending prefix-budget solver."""

import math
import random
import warnings
import zlib

import numpy as np
import pytest

import waterline.nested
from waterline import (
    BOX_STRATEGIES, AscendingProblem, InfeasibleBudget, InverseMse, LogCapacity, SolverConfig,
    check_conditions, enumerate_box, grid_search, projected_gradient,
    solve_ascending, solve_box, BoxProblem)
from waterline.objectives import Channels

from conftest import CLOSED_FORM_FAMILIES, enumerate_tight_caps, make_objective, random_ascending

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


@pytest.mark.parametrize("strategy", BOX_STRATEGIES)
def test_block_whose_floors_fill_a_cap_takes_them(strategy):
    # The first two floors exceed cap 1 by 5e-13, inside the 1e-12 the
    # validation allows: the block rests at its floors, at the largest rate
    # there, and the rest of the budget goes to channel 2.
    objectives = [LogCapacity(1, 1, 1), LogCapacity(1, 2, 1), LogCapacity(1, 1, 1)]
    problem = AscendingProblem(objectives, [1.0, 1.0, 3.0], [1.0 + 5e-13, 0.0, 0.0])
    alloc = solve_ascending(problem, SolverConfig(box_strategy=strategy))
    assert alloc.powers[:2] == [1.0 + 5e-13, 0.0]
    assert alloc.powers[2] == pytest.approx(2.0, abs=1e-9)
    assert (alloc.status, alloc.splits) == ("optimal", 1)
    assert check_conditions(problem, alloc, tolerance=1e-8).passed


@pytest.mark.parametrize("strategy", BOX_STRATEGIES)
def test_block_whose_tau_pins_spend_it_above_a_subnormal_floor(strategy):
    # Channel 1 pins at tau and spends the first block's whole budget, which
    # leaves 0 for channel 0 against its subnormal floor: within rounding,
    # the floor spends what is left.
    params = [(1, 0.2, 0.05), (2.8123299750907003, 1, 0.05), (1, 0.2, 0.05),
              (3.06312762859778, 0.2, 0.557259845727554),
              (2.4570375742313826, 1.0132381092678449, 0.05), (0.2, 1, 0.05)]
    problem = AscendingProblem([LogCapacity(*p) for p in params], [0.2] + [0.5] * 5,
                               [5.562684646268003e-309] + [0.0] * 5,
                               [None, 0.5, 0.0, 0.0, 0.0, 0.0])
    alloc = solve_ascending(problem, SolverConfig(box_strategy=strategy))
    assert alloc.status == "optimal"
    assert check_conditions(problem, alloc, tolerance=1e-8).passed


def test_mixed_bank_blocks_agree_across_strategies():
    # Alternating log_capacity and inverse_mse channels (one log channel with
    # b = 0) under tight caps, as the benchmark's ascending files draw them:
    # every block is a mixed bank and takes its clamped demands at its exact
    # level, whatever the strategy.
    rng = np.random.default_rng(18)
    k = 24
    objectives = [(LogCapacity if i % 2 == 0 else InverseMse)(
        float(rng.uniform(0.5, 2.0)), 1e-3 + float(rng.exponential(1.0)),
        0.0 if i == 4 else 1.0) for i in range(k)]
    problem = AscendingProblem(objectives, np.cumsum(rng.uniform(0.5, 1.5, k)).tolist(),
                               None, rng.uniform(1.5, 4.0, k).tolist())
    allocs = [solve_ascending(problem, SolverConfig(box_strategy=s)) for s in BOX_STRATEGIES]
    assert allocs[0].splits > 1
    for strategy, alloc in zip(BOX_STRATEGIES, allocs):
        assert alloc.status == "optimal"
        assert check_conditions(problem, alloc, tolerance=1e-8).passed, strategy
        assert alloc.powers == pytest.approx(allocs[0].powers, abs=1e-9), strategy
        assert alloc.objective_value == pytest.approx(allocs[0].objective_value, abs=1e-10)


def _refuse(*args, **kwargs):
    raise AssertionError("a bank block searched for its level")


# Bank staircases for the exact block level: each edge case, on
# log_capacity/inverse_mse channels, as (objectives, caps, lower, upper).
_EXACT_LEVEL_CASES = {
    # b = 0 and gamma = 0: the channel joins at x = 0, with an infinite rate.
    "join-at-zero": ([LogCapacity(1, 2, 0), LogCapacity(1, 1, 1), InverseMse(1, 1, 1),
                      LogCapacity(2, 0.5, 0)], [0.3, 0.6, 2.5, 4.0], None, None),
    "infinite-tau": ([LogCapacity(1, 4, 1), InverseMse(2, 1, 0.5), LogCapacity(1, 1, 1)],
                     [0.5, 1.5, 4.0], [0.1, 0.0, 0.0], [None, 0.8, None]),
    # Channel 1 has gamma = tau; channels 2 and 3 are the same channel.
    "zero-width-and-tied": ([LogCapacity(1, 3, 1), LogCapacity(1, 1, 1), InverseMse(1, 2, 1),
                             InverseMse(1, 2, 1), LogCapacity(1, 1, 1)],
                            [0.8, 1.4, 1.9, 2.4, 5.0], [0.0, 0.4, 0.1, 0.1, 0.0],
                            [None, 0.4, 2.0, 2.0, None]),
    # The floors of channels 0 and 1 sum to cap 1 in rounding, not exactly;
    # then to one ulp below it, so that the first block's level lies where
    # channel 1 has risen above its floor by rounding.
    "floors-fill-a-cap": ([LogCapacity(1, 1, 1), LogCapacity(1, 2, 1), InverseMse(1, 1, 1)],
                          [1.0, 1.0, 3.0], [0.6, math.nextafter(0.4, 0.0), 0.0], None),
    "floors-short-of-a-cap": ([LogCapacity(1, 1, 1), LogCapacity(1, 2, 1), InverseMse(1, 1, 1)],
                              [1.0, 1.0, 3.0],
                              [0.6, math.nextafter(math.nextafter(0.4, 0.0), 0.0), 0.0], None),
    # Every cap binds: each block is one channel.
    "one-channel-blocks": ([LogCapacity(1, 8, 1), InverseMse(2, 5, 1), LogCapacity(1, 4, 1),
                            InverseMse(1, 5, 1)], [0.2, 0.4, 0.6, 0.8], None, None),
    # Cap 0 lies one ulp below tau, and the demand at the saturation point
    # rounds below both: no point binds, and the block ends there.
    "cap-between-tau-and-its-rounding": (
        [LogCapacity(1.1340308317964878, 1, 0.15380737517637963)],
        [0.9691644825584156], None, [0.9691644825584158]),
    "mixed-bank": ([(LogCapacity if i % 2 else InverseMse)(1.0 + 0.1 * i, 0.5 + 0.3 * i,
                                                           0.2 * (i % 3)) for i in range(8)],
                   [0.4, 0.9, 1.1, 1.6, 2.6, 2.7, 3.5, 6.0], [0.05] * 8,
                   [None, 1.0, 0.5, None, 0.8, 2.0, None, 1.5]),
}


@pytest.mark.parametrize("case", sorted(_EXACT_LEVEL_CASES))
def test_exact_block_levels_on_bank_edge_cases(case, monkeypatch):
    objectives, caps, lower, upper = _EXACT_LEVEL_CASES[case]
    problem = AscendingProblem(objectives, caps, lower, upper)
    monkeypatch.setattr(waterline.nested, "_level_search", _refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        allocs = [solve_ascending(problem, SolverConfig(box_strategy=s))
                  for s in BOX_STRATEGIES]
    for strategy, alloc in zip(BOX_STRATEGIES, allocs):
        assert alloc.status == "optimal"
        report = check_conditions(problem, alloc, tolerance=1e-8)
        assert report.passed, (strategy, report.residuals)
        assert alloc.powers == pytest.approx(allocs[0].powers, abs=1e-9), strategy
    if case == "one-channel-blocks":
        assert allocs[0].splits == problem.n - 1
    if problem.n <= 5:
        assert allocs[0].objective_value == pytest.approx(
            enumerate_tight_caps(problem), abs=1e-10)


def test_non_bank_blocks_warm_start_every_demand_after_the_first(monkeypatch):
    # A sum_log staircase searches each block's level; every demand call on
    # one channel set after its first starts from the last level's demands.
    rng = random.Random(31)
    problem = random_ascending("sum_log", rng, 6)
    calls = {}
    demand = Channels.demand

    def recorded(self, mu, start=None):
        calls.setdefault(id(self), (self, []))[1].append(start is not None)
        return demand(self, mu, start)

    monkeypatch.setattr(Channels, "demand", recorded)
    alloc = solve_ascending(problem, SolverConfig(box_strategy="set_a"))
    assert alloc.splits > 0
    assert sum(len(c) for _, c in calls.values()) > 2 * len(calls)
    for _, started in calls.values():
        assert all(started[1:]), started
    assert check_conditions(problem, alloc, tolerance=1e-8).passed


@pytest.mark.parametrize("excess", [1e-6, 1e-12], ids=["over_the_slack", "within_it"])
def test_post_solve_prefix_check_refuses_an_over_spent_block(monkeypatch, excess):
    # Each block of this log_capacity bank spends ``excess`` more than its
    # cap's room: past the check's 1e-9 relative slack, solve_ascending names
    # the first cap exceeded, and the certificate refuses the same powers;
    # within it, the solve returns and the certificate passes.
    problem, expected = STAIRCASES[0]
    bank_block = waterline.nested._bank_block
    spent = []

    def over_spent(*args, **kwargs):
        powers, *rest = bank_block(*args, **kwargs)
        powers = powers.copy()
        powers[0] += excess
        spent.extend(powers.tolist())
        return (powers, *rest)
    monkeypatch.setattr(waterline.nested, "_bank_block", over_spent)
    if excess > 1e-9:
        with pytest.raises(InfeasibleBudget, match="prefix constraint through channel 1 "
                                                   "violated after solve"):
            solve_ascending(problem)
        report = check_conditions(problem, spent, tolerance=1e-8)
        assert report.residuals["prefix_violation"] == pytest.approx(2 * excess / 6.0)
        assert not report.passed
    else:
        alloc = solve_ascending(problem)
        assert alloc.powers == spent
        assert check_conditions(problem, alloc, tolerance=1e-8).passed
    assert spent == pytest.approx([expected[0] + excess, expected[1], expected[2] + excess],
                                  abs=1e-12)


def _files_ascending(rng, k=64):
    """An ascending problem of the benchmark's file shape: alternating
    log_capacity and inverse_mse channels under tight caps, no floors."""
    objectives = [(LogCapacity if i % 2 == 0 else InverseMse)(
        float(rng.uniform(0.5, 2.0)), 1e-3 + float(rng.exponential(1.0)), 1.0)
        for i in range(k)]
    return AscendingProblem(objectives, np.cumsum(rng.uniform(0.5, 1.5, k)).tolist(),
                            None, rng.uniform(1.5, 4.0, k).tolist())


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` to count its calls; returns the list of counts."""
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("family", ["log_capacity", "inverse_mse", "mixed"])
def test_bank_staircase_runs_no_box_solve_and_at_most_one_take(family, monkeypatch):
    # Every block of a bank takes its demands at its exact level: no box
    # solve, and no per-block subset of the channels.
    fills = _count_calls(monkeypatch, waterline.nested, "box_fill")
    takes = _count_calls(monkeypatch, Channels, "take")
    rng = random.Random(zlib.crc32(family.encode()))
    solved = 0
    for seed in range(20):
        problem = _files_ascending(np.random.default_rng(seed), 16) if family == "mixed" \
            else random_ascending(family, rng, 6)
        del takes[:]
        alloc = solve_ascending(problem, SolverConfig(box_strategy=BOX_STRATEGIES[seed % 4]))
        assert len(takes) <= 1, (seed, len(takes))
        solved += alloc.splits > 0
    assert fills == []
    assert solved >= 5


@pytest.mark.parametrize("family", ["af_relay", "sum_log"])
def test_non_bank_staircase_runs_one_box_solve_per_block(family, monkeypatch):
    # With no bounds, no block rests at its floors or fits its upper bounds,
    # so each of the splits + 1 blocks is one box solve.
    fills = _count_calls(monkeypatch, waterline.nested, "box_fill")
    rng = random.Random(zlib.crc32(family.encode()))
    split = 0
    for _ in range(10):
        objectives = [make_objective(family, rng) for _ in range(5)]
        caps = np.cumsum([rng.uniform(0.1, 1.0) for _ in range(5)]).tolist()
        del fills[:]
        alloc = solve_ascending(AscendingProblem(objectives, caps))
        assert len(fills) == alloc.splits + 1
        split += alloc.splits > 0
    assert split >= 5


def _blocks_match_their_box_solves(problem, alloc):
    """Each block, cut at the caps the powers meet, holds the powers of its
    own box solve under ``order`` within 1e-9 times the last cap."""
    caps = np.array(problem.prefix_budgets)
    gamma = np.array(problem.lower_bounds)
    tau = np.array(problem.upper_bounds)
    powers = np.array(alloc.powers)
    ends = np.flatnonzero(np.cumsum(powers) >= caps - 1e-12 * caps[-1]) + 1
    start = 0
    for stop in sorted(set(ends.tolist()) | {problem.n}):
        budget = caps[stop - 1] - (caps[start - 1] if start else 0.0)
        expected = waterline.nested.box_fill(
            problem.channels.take(np.arange(start, stop)), gamma[start:stop],
            tau[start:stop], float(budget), SolverConfig(box_strategy="order"))[0]
        gap = np.abs(powers[start:stop] - expected).max()
        assert gap <= 1e-9 * caps[-1], (start, stop, gap)
        start = stop


def _bank_problems():
    # Criterion 5's generator, its bank families, then the benchmark's shape.
    rng = random.Random(5)
    for i in range(500):
        family = CLOSED_FORM_FAMILIES[i % len(CLOSED_FORM_FAMILIES)]
        problem = random_ascending(family, rng, rng.randint(2, 6))
        if family != "af_relay":
            yield problem
    for seed in range(50):
        yield _files_ascending(np.random.default_rng([30, seed]))


def test_bank_staircases_are_bit_identical_across_strategies():
    splits = 0
    for problem in _bank_problems():
        allocs = [solve_ascending(problem, SolverConfig(box_strategy=s))
                  for s in BOX_STRATEGIES]
        for alloc in allocs:
            assert alloc.powers == allocs[0].powers
            assert alloc.status == "optimal"
            assert check_conditions(problem, alloc, tolerance=1e-8).passed
        _blocks_match_their_box_solves(problem, allocs[0])
        splits += allocs[0].splits
    assert splits > 500


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
