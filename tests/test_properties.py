"""Property tests (hypothesis, short profile from conftest.py)."""

import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
import numpy as np  # noqa: E402
from hypothesis import example, given, strategies as st  # noqa: E402

from waterline import (  # noqa: E402
    BOX_STRATEGIES, FAIR_MODES, AfRelay, AscendingProblem, BoxProblem,
    ClusterLogCapacity, FairProblem, InverseMse, LogCapacity, SolverConfig,
    SumInverseMse, SumLog, check_conditions, solve_ascending, solve_box, solve_fair)
from waterline.box import box_fill, box_fill_rows  # noqa: E402
from waterline.io import dumps  # noqa: E402
from waterline.objectives import Channels  # noqa: E402

from conftest import CLOSED_FORM_FAMILIES, FLAT_FAMILIES  # noqa: E402

_param = st.floats(0.2, 5.0)


def _objective(kind: str, draw):
    if kind == "log_capacity":
        return LogCapacity(draw(_param), draw(_param), draw(st.floats(0.05, 2.0)))
    if kind == "inverse_mse":
        return InverseMse(draw(_param), draw(_param), draw(st.floats(0.05, 2.0)))
    if kind == "af_relay":
        return AfRelay(draw(_param), draw(st.floats(0.1, 0.9)), draw(_param))
    if kind in ("sum_log", "sum_inverse_mse"):
        terms = draw(st.integers(1, 3))
        w, c, d = ([draw(_param) for _ in range(terms)] for _ in range(3))
        cls = SumLog if kind == "sum_log" else SumInverseMse
        return cls(w, draw(_param), draw(_param), c, d)
    return ClusterLogCapacity(draw(_param), draw(_param), draw(st.floats(0.0, 0.5)),
                              draw(st.floats(0.5, 2.0)))


@st.composite
def fair_problems(draw):
    mode = draw(st.sampled_from(FAIR_MODES))
    kinds = list(FLAT_FAMILIES)
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


@st.composite
def homogeneous_cluster_problems(draw):
    """Cluster-aware groups with one (sigma_e2, sigma_n2) each and zero
    floors, so every group's budget search reads its sorted table."""
    mode = draw(st.sampled_from(["cluster", "cluster_maxmin"]))
    groups = []
    for _ in range(draw(st.integers(2, 4))):
        sigma_e2, sigma_n2 = draw(st.floats(0.0, 0.5)), draw(st.floats(0.5, 2.0))
        groups.append([ClusterLogCapacity(draw(_param), draw(_param), sigma_e2, sigma_n2)
                       for _ in range(draw(st.integers(1, 12)))])
    k = sum(len(g) for g in groups)
    return FairProblem(groups, k * draw(st.floats(0.5, 3.0)), mode=mode)


@given(homogeneous_cluster_problems())
def test_homogeneous_cluster_modes_pass_their_conditions(problem):
    report = check_conditions(problem, solve_fair(problem), tolerance=1e-8)
    assert report.passed, report.residuals


def _bounds(draw, k: int, budget: float):
    """Lower and upper bounds; some channels have gamma = tau, some tau = inf."""
    lower = [draw(st.floats(0.0, 0.6)) * budget / k for _ in range(k)]
    upper = []
    for lo in lower:
        kind = draw(st.sampled_from(["fixed", "open", "box", "box"]))
        upper.append(lo if kind == "fixed" else None if kind == "open"
                     else lo + draw(st.floats(0.2, 2.5)) * budget / k)
    return lower, upper


def _assert_strategies_agree(problem, solve):
    allocs = [solve(problem, SolverConfig(box_strategy=s)) for s in BOX_STRATEGIES]
    ref = allocs[0]
    for strategy, alloc in zip(BOX_STRATEGIES, allocs):
        report = check_conditions(problem, alloc, tolerance=1e-8)
        assert report.passed, (strategy, report.residuals)
        assert max(abs(p - q) for p, q in zip(alloc.powers, ref.powers)) <= 1e-6, strategy
        assert abs(alloc.objective_value - ref.objective_value) <= 1e-8, strategy


@st.composite
def box_problems(draw):
    """Boxes of one flat family; some channels have gamma = tau, some tau = inf."""
    family = draw(st.sampled_from(FLAT_FAMILIES))
    k = draw(st.integers(2, 8))
    budget = k * draw(st.floats(0.5, 3.0))
    lower, upper = _bounds(draw, k, budget)
    return BoxProblem([_objective(family, draw) for _ in range(k)],
                      budget, lower, upper)


@given(box_problems())
def test_every_box_strategy_agrees_and_passes_its_conditions(problem):
    _assert_strategies_agree(problem, solve_box)


@st.composite
def ascending_problems(draw):
    """Ascending problems of one flat family.  Some consecutive caps are
    equal, and some caps equal the lower bounds' prefix sums."""
    family = draw(st.sampled_from(FLAT_FAMILIES))
    k = draw(st.integers(2, 6))
    lower, upper = _bounds(draw, k, 0.5 * k)
    caps, floor = [], 0.0
    for lo in lower:
        floor += lo
        step = draw(st.sampled_from([0.0, 0.0, 0.3, 1.0, 2.0]))
        caps.append(max(floor, (caps[-1] if caps else 0.2) + step))
    return AscendingProblem([_objective(family, draw) for _ in range(k)],
                            caps, lower, upper)


@given(ascending_problems())
def test_every_ascending_strategy_agrees_and_passes_its_conditions(problem):
    _assert_strategies_agree(problem, solve_ascending)


@st.composite
def box_rows(draw):
    """S box problems on one closed-form bank: rows with some infinite
    upper bounds, with none finite, with every upper bound inside the budget,
    and with lower bounds that use the whole budget."""
    family = draw(st.sampled_from(CLOSED_FORM_FAMILIES))
    k = draw(st.integers(1, 12))
    w, b = ([draw(_param) for _ in range(k)] for _ in range(2))
    a = [draw(st.floats(0.1, 0.9)) if family == "af_relay" else draw(_param)
         for _ in range(k)]
    gammas, taus, budgets = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["box", "open", "all_upper", "floor"]))
        budget = k * draw(st.floats(0.5, 3.0))
        gamma = np.array([draw(st.floats(0.0, 0.6)) * budget / k for _ in range(k)])
        tau = gamma + [draw(st.floats(0.2, 2.5)) * budget / k for _ in range(k)]
        if kind == "box":
            tau[[draw(st.booleans()) for _ in range(k)]] = np.inf
        elif kind == "open":
            tau[:] = np.inf
        elif kind == "all_upper":
            budget = float(tau.sum()) * draw(st.floats(1.0, 1.5))
        else:
            budget = float(gamma.sum())
        gammas.append(gamma)
        taus.append(tau)
        budgets.append(budget)
    return (Channels.from_arrays(family, w, a, b), np.array(gammas), np.array(taus),
            np.array(budgets))


@given(box_rows())
def test_row_search_matches_one_box_fill_per_row(rows):
    """box_fill_rows, whose order search runs every row at once, returns
    each row's box_fill powers bit for bit under every strategy."""
    bank, gamma, tau, budget = rows
    for strategy in BOX_STRATEGIES:
        cfg = SolverConfig(box_strategy=strategy)
        for i, (powers, _, iterations, status, levels) in enumerate(
                box_fill_rows(bank, gamma, tau, budget, cfg)):
            expected = box_fill(bank, gamma[i], tau[i], float(budget[i]), cfg)
            assert powers.tobytes() == expected[0].tobytes(), (strategy, i)
            assert (iterations, status, levels) == expected[2:], (strategy, i)


_EDGE_NUMBERS = (-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, 10**400, -10**400)
_numbers = st.one_of(st.floats(), st.integers(), st.sampled_from(_EDGE_NUMBERS),
                     st.floats(allow_nan=False).map(np.float64))
_json_leaves = st.one_of(_numbers, st.booleans(), st.none(), st.text(),
                         st.lists(_numbers), st.lists(st.floats(0.0, 10.0)),
                         st.lists(st.lists(st.floats(0.0, 10.0), min_size=1), min_size=1))
json_values = st.recursive(
    _json_leaves,
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20)


@given(json_values)
@example([-0.0, 5e-324, 1e308, 1, 2.5])
@example([1.5, 10**400])
@example([1.0, math.nan, math.inf, -math.inf])
@example({1: [2.0], None: {"x": 1}, 2.5: "y"})
@example({"é\n\"key\"": [True, False, None], "": {}, "x": []})
@example([np.float64(0.1), 0.1])
@example([[0.0, 1.25], [3, 1e-7]])
def test_dumps_matches_json_dumps(doc):
    assert dumps(doc) == json.dumps(doc, indent=2)
