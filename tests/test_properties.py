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
    upper = None
    if mode == "maxmin" and draw(st.booleans()):
        upper = [[draw(st.sampled_from([None, 0.5, 1.0, 3.0])) for _ in g] for g in groups]
    return FairProblem(groups, budget, mode=mode, upper_bounds=upper)


@given(fair_problems())
def test_every_fair_mode_passes_its_conditions(problem):
    solution = solve_fair(problem)
    report = check_conditions(problem, solution, tolerance=1e-8)
    assert report.passed, report.residuals
