"""Validation of budgets and bounds at problem construction."""

import math

import pytest

from waterline import (
    AscendingProblem, BoxProblem, DomainError, FairProblem, LogCapacity,
    SimplexProblem)

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
