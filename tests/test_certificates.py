"""The one-pass condition checks against the per-segment reference.

``reference_reports`` keeps the checkers that ran each box, ascending block
and fair group on its own; ``check_conditions`` now classifies and reads the
rates of every segment in one pass.  Both must give the same verdict and the
same residuals, on solved allocations and on perturbed ones, which fail.
"""

import math
import random
import zlib

import numpy as np
import pytest

from waterline import (
    CustomObjective, FairProblem, FairSolution, InverseMse, LogCapacity, Objective,
    check_conditions, solve_ascending, solve_box, solve_fair, solve_p1_lower)
from waterline.cli import _rebuild_fair_solution
from waterline.objectives import ClusterLogCapacity

from conftest import (
    CLOSED_FORM_FAMILIES, FLAT_FAMILIES, layout, random_ascending, random_box, random_simplex)
from reference_reports import assert_matches_reference


def _perturbed(powers, rng: random.Random, gamma, tau) -> list:
    """Powers moved by up to 5% of themselves (and 0.05 off a zero), kept
    inside their boxes."""
    return [min(max(p * (1.0 + rng.uniform(-0.05, 0.05)) + rng.uniform(0.0, 0.05), g), t)
            for p, g, t in zip(powers, gamma, tau)]


def _fair_perturbed(problem: FairProblem, solution: FairSolution,
                    rng: random.Random) -> FairSolution:
    rows = [_perturbed(row, rng, lo, hi) for row, lo, hi in
            zip(solution.powers, problem.lower_bounds, problem.upper_bounds)]
    return _rebuild_fair_solution(problem, {"powers": rows})


def _stratified_exponential(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-mean exponential gains, one draw from each of shape[-1] strata."""
    strata = np.argsort(rng.random(shape), axis=-1)
    return 1e-3 - np.log1p(-(strata + rng.random(shape)) / shape[-1])


def _fair_shaped(mode: str, seed: int) -> FairProblem:
    """4 groups of 64 channels on stratified exponential gains, a budget of
    one per channel: cluster-aware groups sharing one noise pair, or
    log_capacity groups, with upper bounds of 2 in ``maxmin_boxed``."""
    gains = _stratified_exponential(np.random.default_rng(seed), (4, 64)).tolist()
    if mode.startswith("cluster"):
        groups = [[ClusterLogCapacity(1.0, a, 0.05, 1.0) for a in row] for row in gains]
        return FairProblem(groups, 256.0, mode=mode)
    groups = [[LogCapacity(1.0, a, 1.0) for a in row] for row in gains]
    upper = [[2.0] * 64 for _ in gains] if mode == "maxmin_boxed" else None
    return FairProblem(groups, 256.0, upper_bounds=upper)


@pytest.mark.parametrize("mode", ["maxmin", "maxmin_boxed", "cluster", "cluster_maxmin"])
def test_fair_reports_match_the_reference_on_the_benchmark_shape(mode):
    rng = random.Random(mode)
    for seed in range(3):
        problem = _fair_shaped(mode, seed)
        solution = solve_fair(problem)
        assert check_conditions(problem, solution).passed
        assert_matches_reference(problem, solution)
        perturbed = _fair_perturbed(problem, solution, rng)
        assert not check_conditions(problem, perturbed).passed
        assert_matches_reference(problem, perturbed)


def _sqrt_objective(w: float, c: float) -> CustomObjective:
    """w*sqrt(p + c), in the object group."""
    return CustomObjective(lambda p: w * math.sqrt(p + c),
                           lambda p: 0.5 * w / math.sqrt(p + c) if p + c > 0 else math.inf,
                           domain_min=-c)


HAND_BUILT = {
    # Group 0 sits at its upper bounds, group 2 at its floor above t, and
    # group 1 mixes log_capacity and inverse_mse channels.
    "saturated_and_at_floor": dict(
        groups=[[LogCapacity(1, 0.2, 1), LogCapacity(1, 0.3, 1)],
                [LogCapacity(1, 1, 1), InverseMse(1, 1, 1)], [LogCapacity(1, 5, 1)]],
        budget=6.0, lower_bounds=[[0, 0], [0, 0], [3]],
        upper_bounds=[[0.5, 0.5], [None, None], [None]]),
    "all_at_floors": dict(
        groups=[[LogCapacity(1, 1, 1), LogCapacity(1, 2, 1)], [InverseMse(1, 1, 1)]],
        budget=2.0, lower_bounds=[[0.5, 0.5], [1.0]]),
    "mixed_log_inverse": dict(
        groups=[[LogCapacity(1, 2, 1), InverseMse(2, 0.5, 0.5), LogCapacity(0.5, 1, 2)],
                [InverseMse(1, 1, 1), InverseMse(0.5, 3, 1)]],
        budget=5.0, lower_bounds=[[0.1, 0.0, 0.2], [0.0, 0.3]],
        upper_bounds=[[0.8, 1.2, None], [2.0, None]]),
    "b0_zero_floor": dict(
        groups=[[LogCapacity(1, 2, 0), LogCapacity(1, 1, 1)],
                [LogCapacity(1, 1, 0.5), LogCapacity(0.5, 3, 1)]],
        budget=4.0, lower_bounds=[[0.0, 0.2], [0.1, 0.0]],
        upper_bounds=[[None, 1.0], [1.5, None]]),
    "cluster_b0": dict(
        groups=[[ClusterLogCapacity(1, 2, 0.2, 1), LogCapacity(1, 2, 0)],
                [ClusterLogCapacity(1, 1.5, 0.2, 1)]],
        budget=3.0, mode="cluster"),
    "cluster_maxmin_b0": dict(
        groups=[[ClusterLogCapacity(1, 2, 0.2, 1), LogCapacity(1, 2, 0)],
                [ClusterLogCapacity(1, 1.5, 0.2, 1)]],
        budget=3.0, mode="cluster_maxmin"),
    "cluster_large_floor": dict(
        groups=[[ClusterLogCapacity(1, 1, 0.1, 1), ClusterLogCapacity(2, 0.5, 0.1, 1)],
                [ClusterLogCapacity(1, 3, 0.3, 1)], [LogCapacity(1, 2, 1)]],
        budget=4.0, mode="cluster", lower_bounds=[[0.0, 0.0], [2.5], [0.0]]),
    "custom": dict(
        groups=[[LogCapacity(1, 2, 1), LogCapacity(1, 0.5, 1)],
                [_sqrt_objective(1.0, 0.5), LogCapacity(1, 1, 1)],
                [LogCapacity(2, 1, 1)]],
        budget=4.0, lower_bounds=[[0.0, 0.1], [0.0, 0.0], [0.2]]),
    "cluster_custom": dict(
        groups=[[ClusterLogCapacity(1, 2, 0.2, 1), _sqrt_objective(1.0, 0.5)],
                [ClusterLogCapacity(1, 1.5, 0.2, 1), ClusterLogCapacity(2, 1, 0.2, 1)]],
        budget=4.0, mode="cluster_maxmin"),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_fair_reports_match_the_reference_on_hand_built_groups(name):
    problem = FairProblem(**HAND_BUILT[name])
    solution = solve_fair(problem)
    assert solution.status == "optimal"
    assert check_conditions(problem, solution).passed
    assert_matches_reference(problem, solution)
    rng = random.Random(name)
    for _ in range(5):
        assert_matches_reference(problem, _fair_perturbed(problem, solution, rng))


def test_groups_beside_a_custom_objective_keep_their_bank_and_table():
    """The problem's bank holds its custom entry in an object group beside
    the log_capacity group; its group views hold that group in the one view
    with the custom entry, so the other groups' max-min tables and their
    rates run on arrays."""
    from waterline.fair import _bounds, _group_levels
    problem = FairProblem(**HAND_BUILT["custom"])
    assert layout(problem.bank.bind(0.0)) == [LogCapacity, Objective]
    views = [group.bind(0.0) for group in problem.group_banks]
    assert [layout(v) for v in views] == [[LogCapacity], [LogCapacity, Objective], [LogCapacity]]
    assert [v.family for v in views] == ["log_capacity", None, "log_capacity"]
    caps = [cap for _, cap in _group_levels(problem.bank.bind(0.0), *_bounds(problem),
                                            problem.offsets)]
    assert [cap is not None for cap in caps] == [True, False, True]
    cluster = FairProblem(**HAND_BUILT["cluster_custom"])
    assert [layout(g.bind(1.0)) for g in cluster.group_banks] == \
        [[LogCapacity, Objective], [LogCapacity]]


def _at(rows) -> FairSolution:
    """Powers ``rows`` with every group utility and t at 0: only the rate
    conditions, the spend and the bounds are read from them."""
    return FairSolution(powers=rows, water_levels=[], group_totals=[sum(r) for r in rows],
                        group_utilities=[0.0] * len(rows), t=0.0, active_sets=[],
                        iterations=0, status="")


@pytest.mark.parametrize("mode", ["maxmin", "cluster"])
def test_fair_reports_match_the_reference_on_hand_built_allocations(mode):
    """Allocations no solver returns: a b = 0 channel left at its zero floor
    (an infinite rate at its lower bound), groups with no channel interior
    and none at an upper bound, and a group whose channels are all fixed."""
    problem = FairProblem(**HAND_BUILT["b0_zero_floor"])
    if mode == "cluster":
        problem = FairProblem(problem.groups, problem.budget, mode="cluster",
                              lower_bounds=problem.lower_bounds)
    for rows in ([[0.0, 1.0], [1.5, 1.5]], [[0.0, 0.2], [1.5, 2.3]],
                 [[0.5, 1.0], [1.5, 0.0]], [[0.0, 0.2], [0.1, 0.0]]):
        assert_matches_reference(problem, _at(rows))
    upper = [[0.5, 0.5], [None]] if mode == "maxmin" else None
    fixed = FairProblem([[LogCapacity(1, 1, 1), LogCapacity(1, 2, 1)], [LogCapacity(1, 1, 1)]],
                        3.0, mode=mode, lower_bounds=[[0.5, 0.5], [0.0]], upper_bounds=upper)
    for rows in ([[0.5, 0.5], [2.0]], [[0.5, 0.5], [1.0]], [[0.5, 0.6], [0.0]]):
        assert_matches_reference(fixed, _at(rows))


def test_box_and_p1_reports_match_the_reference_on_criteria_1_and_2():
    perturb = random.Random(12)
    for family in FLAT_FAMILIES:
        rng = random.Random(zlib.crc32(family.encode()) & 0xFFFF)
        for i in range(100):
            problem = random_simplex(family, rng, rng.randint(2, 6), with_lower=bool(i % 2))
            powers = solve_p1_lower(problem).powers
            assert_matches_reference(problem, powers)
            assert_matches_reference(problem, _perturbed(
                powers, perturb, problem.lower_bounds, [math.inf] * problem.n))
    rng = random.Random(2)
    for i in range(500):
        problem = random_box(FLAT_FAMILIES[i % len(FLAT_FAMILIES)], rng, rng.randint(2, 8))
        powers = solve_box(problem).powers
        assert_matches_reference(problem, powers)
        assert_matches_reference(problem, _perturbed(
            powers, perturb, problem.lower_bounds, problem.upper_bounds))


def test_ascending_reports_match_the_reference_on_criterion_5():
    rng, perturb = random.Random(5), random.Random(55)
    for i in range(500):
        problem = random_ascending(CLOSED_FORM_FAMILIES[i % len(CLOSED_FORM_FAMILIES)],
                                   rng, rng.randint(2, 6))
        powers = solve_ascending(problem).powers
        assert_matches_reference(problem, powers)
        assert_matches_reference(problem, _perturbed(
            powers, perturb, problem.lower_bounds, problem.upper_bounds))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_a_power_that_is_not_finite_fails_every_certificate(bad):
    """A NaN compares as lying inside every box and an infinite power
    against an infinite bound gives NaN, so ``bounds_violation`` reads inf
    for any power that is not finite, under every problem class."""
    from waterline import AscendingProblem, BoxProblem, SimplexProblem
    objectives = [LogCapacity(1, 2, 1), LogCapacity(1, 1, 1)]
    for problem in (SimplexProblem(objectives, 2.0), BoxProblem(objectives, 2.0),
                    AscendingProblem(objectives, [1.5, 2.0])):
        report = check_conditions(problem, [1.0, bad])
        assert report.residuals["bounds_violation"] == math.inf and not report.passed
    problem = FairProblem([objectives, [LogCapacity(1, 1, 1)]], 3.0)
    solution = solve_fair(problem)
    solution.powers[1][0] = bad
    report = check_conditions(problem, solution)
    assert report.residuals["bounds_violation"] == math.inf and not report.passed


def test_fair_report_refuses_power_rows_that_do_not_match_the_groups():
    from waterline import DomainError
    problem = FairProblem([[LogCapacity(1, 2, 1), LogCapacity(1, 1, 1)],
                           [LogCapacity(1, 1, 1)]], 3.0)
    with pytest.raises(DomainError, match="power rows"):
        check_conditions(problem, _at([[1.0], [1.0, 1.0]]))
