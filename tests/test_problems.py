"""Validation of budgets and bounds at problem construction."""

import math
import random

import numpy as np
import pytest

from waterline import (
    BOX_STRATEGIES, AscendingProblem, BoxProblem, DomainError, FairProblem,
    InfeasibleBudget, LogCapacity, SimplexProblem, SolverConfig,
    check_conditions, solve_ascending, solve_box, solve_p1_lower)
from waterline.objectives import Channels

from conftest import (
    CLOSED_FORM_FAMILIES, layout, make_objective, random_ascending, random_box,
    random_simplex)

OBJS = [LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)]


def test_nan_upper_bound_rejected():
    with pytest.raises(DomainError, match="NaN"):
        BoxProblem(OBJS, 6.0, None, [math.nan, 5.0])


def test_infinite_budget_rejected():
    with pytest.raises(DomainError, match="finite"):
        BoxProblem(OBJS, math.inf, None, [1.0, None])
    with pytest.raises(DomainError, match="finite"):
        SimplexProblem(OBJS, math.inf)


def test_infinite_prefix_budget_rejected():
    with pytest.raises(DomainError, match="finite"):
        AscendingProblem(OBJS, [1.0, math.inf])


def test_fair_bounds_checked_in_the_same_place():
    with pytest.raises(DomainError, match="finite"):
        FairProblem([OBJS], math.inf)
    with pytest.raises(DomainError, match="NaN"):
        FairProblem([OBJS], 4.0, upper_bounds=[[math.nan, 1.0]])
    with pytest.raises(DomainError, match="finite"):
        FairProblem([OBJS], 4.0, lower_bounds=[[math.nan, 0.0]])
    with pytest.raises(DomainError, match="shapes"):
        FairProblem([OBJS], 4.0, lower_bounds=[[0.0, 0.0], [0.0]])


@pytest.mark.parametrize("build,error,message", [
    (lambda: BoxProblem(OBJS, 4.0, [2.0, 0.0], [1.0, None]),
     DomainError, "upper bound 1.0 below lower bound 2.0"),
    (lambda: BoxProblem(OBJS, 4.0, [2.0, 0.0], [1.0, math.nan]),
     DomainError, "upper bound 1.0 below lower bound 2.0"),
    (lambda: BoxProblem(OBJS, 4.0, [0.0, 2.0], [math.nan, 1.0]),
     DomainError, "upper bounds must be numbers or null, got NaN"),
    (lambda: BoxProblem(OBJS, 4.0, [0.0, -1.0]),
     DomainError, "lower bounds must be finite and nonnegative"),
    (lambda: SimplexProblem(OBJS, 4.0, [0.0, math.inf]),
     DomainError, "lower bounds must be finite and nonnegative"),
    (lambda: SimplexProblem(OBJS, 4.0, [0.0]),
     DomainError, "lower bound count does not match objective count"),
    (lambda: BoxProblem(OBJS, 4.0, None, [1.0]),
     DomainError, "upper bound count does not match objective count"),
    (lambda: BoxProblem(OBJS, 4.0, [3.0, 2.0]),
     InfeasibleBudget, "sum of lower bounds 5.0 exceeds budget 4.0"),
    (lambda: SimplexProblem(OBJS, 0.0),
     DomainError, "budget must be positive, got 0.0"),
    (lambda: SimplexProblem([], 1.0), DomainError, "need at least one objective"),
    (lambda: AscendingProblem(OBJS, [1.0]),
     DomainError, "prefix budget count does not match objective count"),
    (lambda: AscendingProblem(OBJS, [math.nan, 2.0]),
     DomainError, "prefix budgets must be positive"),
    (lambda: AscendingProblem(OBJS, [2.0, 1.0]),
     DomainError, "prefix budgets must be nondecreasing"),
    (lambda: AscendingProblem(OBJS + OBJS[:1], [1.0, 1.0, 3.0], [0.5, 0.6, 0.0]),
     InfeasibleBudget, "lower bounds through channel 1 exceed prefix budget 1.0"),
    (lambda: FairProblem([OBJS, OBJS[:1]], 4.0, upper_bounds=[[None, None], [-1.0]]),
     DomainError, "upper bound -1.0 below lower bound 0.0"),
])
def test_array_validator_keeps_each_error(build, error, message):
    """Each input raises the class and message the list checks raised."""
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message


def test_bounds_become_float_lists():
    problem = BoxProblem(OBJS, 4, np.array([1, 0]), np.array([np.inf, 2]))
    assert problem.lower_bounds == [1.0, 0.0] and problem.upper_bounds == [math.inf, 2.0]
    assert all(type(x) is float for x in problem.lower_bounds + problem.upper_bounds)
    problem = AscendingProblem(OBJS, (1, 3), None, [None, 1])
    assert problem.prefix_budgets == [1.0, 3.0]
    assert problem.upper_bounds == [math.inf, 1.0]


def test_lower_bound_sum_runs_left_to_right():
    # 1e-16 is below half an ulp of 1.0, so a running sum stays at 1.0; a
    # pairwise sum of the same bounds reaches 1 + 3e-12, past the tolerance.
    k = 30001
    lower = [1.0] + [1e-16] * (k - 1)
    assert float(np.sum(lower)) > 1.0 + 1e-12
    channels = Channels.from_arrays("log_capacity", np.ones(k), np.ones(k), np.ones(k))
    assert BoxProblem(channels, 1.0, lower).lower_bounds == lower


def test_problem_holds_one_bank():
    channels = Channels.from_arrays("inverse_mse", [1.0, 2.0], [0.5, 3.0], [1.0, 1.0])
    problem = BoxProblem(channels, 3.0)
    assert problem.channels is channels and problem.n == 2
    assert [(o.family, o.w, o.a, o.b) for o in problem.objectives] == \
        [("inverse_mse", 1.0, 0.5, 1.0), ("inverse_mse", 2.0, 3.0, 1.0)]
    listed = BoxProblem(OBJS, 3.0)
    assert listed.objectives == OBJS and layout(listed.channels) == [LogCapacity]


@pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES + ("mixed",))
def test_bank_built_problems_solve_bit_identically(family):
    """A problem built on ``Channels.from_arrays`` solves to the very
    Allocation, and checks to the very residuals, of the one built on the
    same objects; neither reads its objects."""
    rng = random.Random(31)
    fam = "log_capacity" if family == "mixed" else family
    listed = [random_simplex(fam, rng, 9, with_lower=True),
              random_box(fam, rng, 12), random_ascending(fam, rng, 10)]
    for problem in listed:
        if family == "mixed":
            problem.objectives = [make_objective(rng.choice(CLOSED_FORM_FAMILIES), rng)
                                  for _ in range(problem.n)]
        objs = problem.objectives
        bank = Channels.from_arrays([o.family for o in objs], *(
            [getattr(o, name) for o in objs] for name in "wab"))
        fields = {"lower_bounds": problem.lower_bounds}
        if isinstance(problem, AscendingProblem):
            twin = AscendingProblem(bank, problem.prefix_budgets,
                                    upper_bounds=problem.upper_bounds, **fields)
            solve = solve_ascending
        elif isinstance(problem, BoxProblem):
            twin = BoxProblem(bank, problem.budget,
                              upper_bounds=problem.upper_bounds, **fields)
            solve = solve_box
        else:
            twin = SimplexProblem(bank, problem.budget, **fields)
            solve = solve_p1_lower
        for strategy in BOX_STRATEGIES:
            cfg = SolverConfig(box_strategy=strategy)
            expected, got = solve(problem, cfg), solve(twin, cfg)
            assert got == expected
            assert check_conditions(twin, got).residuals == \
                check_conditions(problem, expected).residuals
        assert bank._objects is None
