"""Property tests (hypothesis, short profile from conftest.py)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from waterline import (  # noqa: E402
    FAIR_MODES, ClusterLogCapacity, FairProblem, InverseMse, LogCapacity,
    check_conditions, solve_fair)

_param = st.floats(0.2, 5.0)


def _objective(kind: str, draw):
    if kind == "log_capacity":
        return LogCapacity(draw(_param), draw(_param), draw(st.floats(0.05, 2.0)))
    if kind == "inverse_mse":
        return InverseMse(draw(_param), draw(_param), draw(st.floats(0.05, 2.0)))
    return ClusterLogCapacity(draw(_param), draw(_param), draw(st.floats(0.0, 0.5)),
                              draw(st.floats(0.5, 2.0)))


@st.composite
def fair_problems(draw):
    mode = draw(st.sampled_from(FAIR_MODES))
    kinds = ["log_capacity", "inverse_mse"]
    if mode != "maxmin":
        kinds.append("cluster_log_capacity")
    groups = [[_objective(draw(st.sampled_from(kinds)), draw)
               for _ in range(draw(st.integers(1, 3)))]
              for _ in range(draw(st.integers(2, 3)))]
    k = sum(len(g) for g in groups)
    budget = k * draw(st.floats(0.5, 3.0))
    # Lower bounds use at most 90% of the budget between them.
    lower = [[0.0] * len(g) for g in groups]
    if draw(st.booleans()):
        lower = [[draw(st.floats(0.0, 0.9)) * budget / k for _ in g] for g in groups]
    upper = None
    if mode == "maxmin" and draw(st.booleans()):
        upper = [[None if u is None else lo + u
                  for lo, u in zip(row, (draw(st.sampled_from([None, 0.5, 1.0, 3.0]))
                                         for _ in row))]
                 for row in lower]
    return FairProblem(groups, budget, mode=mode, lower_bounds=lower,
                       upper_bounds=upper)


@given(fair_problems())
def test_every_fair_mode_passes_its_conditions(problem):
    solution = solve_fair(problem)
    report = check_conditions(problem, solution, tolerance=1e-8)
    assert report.passed, report.residuals
