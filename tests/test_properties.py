"""Property tests (hypothesis, short profile from conftest.py)."""

import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
import numpy as np  # noqa: E402
from hypothesis import assume, example, given, strategies as st  # noqa: E402

from waterline import (  # noqa: E402
    BOX_STRATEGIES, FAIR_MODES, AfRelay, AscendingProblem, BoxProblem,
    ClusterLogCapacity, FairProblem, InverseMse, LogCapacity, SimplexProblem, SolverConfig,
    SumInverseMse, SumLog, WaterlineError, check_conditions, solve_ascending, solve_box,
    solve_fair)
from waterline.box import box_fill, box_fill_rows  # noqa: E402
from waterline.cli import _rebuild_fair_solution  # noqa: E402
from waterline.core import deactivation_loop, water_fill  # noqa: E402
from waterline.nested import _block_levels  # noqa: E402
from waterline.io import dumps  # noqa: E402
from waterline.objectives import Channels  # noqa: E402

from conftest import CLOSED_FORM_FAMILIES, FLAT_FAMILIES  # noqa: E402
from reference_reports import assert_matches_reference  # noqa: E402

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


@given(fair_problems(), st.randoms(use_true_random=False))
def test_fair_reports_match_the_per_group_reference(problem, rng):
    """The one-pass fair report against the per-group reference, on the
    solved allocation and on one perturbed off it."""
    solution = solve_fair(problem)
    assert_matches_reference(problem, solution)
    rows = [[min(max(p * (1.0 + rng.uniform(-0.05, 0.05)), lo), hi)
             for p, lo, hi in zip(row, lows, highs)]
            for row, lows, highs in zip(solution.powers, problem.lower_bounds,
                                        problem.upper_bounds)]
    assert_matches_reference(problem, _rebuild_fair_solution(problem, {"powers": rows}))


def _transfer(problem: FairProblem, rows, source: tuple, sink: tuple):
    """Rows with delta moved from channel ``source`` to channel ``sink``
    (``(group, channel)`` each), delta half the room of the tighter one, so
    both end strictly inside their boxes; and delta."""
    (g, i), (h, j) = source, sink
    delta = 0.5 * min(rows[g][i] - problem.lower_bounds[g][i],
                      problem.upper_bounds[h][j] - rows[h][j])
    moved = [list(row) for row in rows]
    moved[g][i] -= delta
    moved[h][j] += delta
    return moved, delta


def _roomiest(problem: FairProblem, rows, groups, down: bool):
    """The channel of ``groups`` with the most room below (``down``) or above
    its power, as ``(room, (group, channel))``."""
    bounds = problem.lower_bounds if down else problem.upper_bounds
    return max(((p - b if down else b - p), (g, i)) for g in groups
               for i, (p, b) in enumerate(zip(rows[g], bounds[g])))


@given(fair_problems())
def test_fair_certificate_fails_an_optimum_with_power_moved(problem):
    """Soundness: move delta of power off a solved optimum and the check fails.

    Within a group (every mode), from the channel with the most room above
    its floor to the one with the most room below its cap: the group total
    and so its binding stay, and by concavity the utility lost, L, is at most
    delta times the gap between the two channels' new rates, both interior.
    Once L exceeds 4 * tol * delta * R, R the largest rate of a channel above
    its floor, that gap normalised by the group's largest interior rate
    exceeds tol.  Between groups (``maxmin``), from a group at the least
    utility t to another: once t drops by more than 10 * tol * (1 + |t| +
    |t'|), the receiving group, off its floor and not saturated, sits above
    the new least utility t' by more than tol, and no saturated group is
    within tol of t'."""
    tol = 1e-8
    solution = solve_fair(problem)
    assert check_conditions(problem, solution, tol).passed
    rows, totals = solution.powers, solution.group_totals
    for g, total in enumerate(totals):
        if len(rows[g]) < 2:
            continue
        down, source = _roomiest(problem, rows, [g], down=True)
        up, sink = max((problem.upper_bounds[g][i] - p, (g, i))
                       for i, p in enumerate(rows[g]) if i != source[1])
        moved, delta = _transfer(problem, rows, source, sink)
        if not delta > 1e-6 * problem.budget:
            continue
        channels = problem.group_banks[g].bind(total)
        before, after = channels.eval(rows[g]), channels.eval(moved[g])
        lost = float((before - after).sum())
        above = np.array(moved[g]) > np.array(problem.lower_bounds[g])
        largest = float(channels.rate(moved[g])[above].max())
        if lost > 4.0 * tol * delta * largest:
            report = check_conditions(problem, _rebuild_fair_solution(
                problem, {"powers": moved}), tol)
            assert not report.passed, (g, delta, lost, report.residuals)
    if problem.mode != "maxmin":
        return
    base = _rebuild_fair_solution(problem, {"powers": rows})
    least = int(np.argmin(base.group_utilities))
    _, source = _roomiest(problem, rows, [least], down=True)
    _, sink = _roomiest(problem, rows, [h for h in range(len(rows)) if h != least],
                        down=False)
    moved, delta = _transfer(problem, rows, source, sink)
    if not delta > 10.0 * tol * problem.budget:
        return
    after = _rebuild_fair_solution(problem, {"powers": moved})
    drop = base.t - after.group_utilities[least]
    if drop > 10.0 * tol * (1.0 + abs(base.t) + abs(after.t)):
        report = check_conditions(problem, after, tol)
        assert not report.passed, (drop, report.residuals)


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


@st.composite
def sorted_search_banks(draw):
    """P1.1 on a bank of log_capacity channels, of inverse_mse ones, or of
    both mixed; some channels have b = 0 and a zero lower bound, an
    infinite rate there."""
    kinds = draw(st.sampled_from([["log_capacity"], ["inverse_mse"],
                                  ["log_capacity", "inverse_mse"]]))
    k = draw(st.integers(1, 12))
    objs = [_objective(draw(st.sampled_from(kinds)), draw) for _ in range(k)]
    budget = k * draw(st.floats(0.5, 3.0))
    gamma = [draw(st.floats(0.0, 0.6)) * budget / k for _ in range(k)]
    for i in range(k):
        if draw(st.integers(0, 3)) == 0:
            objs[i] = type(objs[i])(objs[i].w, objs[i].a, 0.0)
            gamma[i] = 0.0
    return Channels(objs), np.array(gamma), budget


@given(sorted_search_banks())
def test_sorted_search_matches_the_deactivation_loop(bank):
    """water_fill's one sorted pass, on homogeneous and mixed banks alike,
    agrees with the deactivation loop and passes the P1.1 conditions."""
    channels, gamma, budget = bank
    powers, mu, levels, status = water_fill(channels, gamma, budget)
    loop_powers, loop_mu, _, loop_status = deactivation_loop(channels, gamma, budget)
    assert status == loop_status == "optimal" and levels == [mu]
    assert mu == pytest.approx(loop_mu, rel=1e-12)
    assert np.abs(powers - loop_powers).max() <= 1e-12 * budget
    problem = SimplexProblem(channels.objectives, budget, gamma.tolist())
    report = check_conditions(problem, powers.tolist(), tolerance=1e-8)
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
def bank_staircases(draw):
    """Ascending problems on a log_capacity/inverse_mse bank, mixed or not,
    bounded as :func:`box_problems`; some channels have b = 0 and a zero
    lower bound, a join point at x = 0."""
    kinds = draw(st.sampled_from([["log_capacity"], ["inverse_mse"],
                                  ["log_capacity", "inverse_mse"]]))
    k = draw(st.integers(1, 10))
    objs = [_objective(draw(st.sampled_from(kinds)), draw) for _ in range(k)]
    lower, upper = _bounds(draw, k, 0.5 * k)
    for i in range(k):
        if draw(st.integers(0, 3)) == 0:
            objs[i] = type(objs[i])(objs[i].w, objs[i].a, 0.0)
            lower[i] = 0.0
            upper[i] = None if upper[i] is None else max(upper[i], 0.1)
    caps, floor = [], 0.0
    for lo in lower:
        floor += lo
        caps.append(max(floor, (caps[-1] if caps else 0.0) + draw(st.floats(0.05, 1.5))))
    return AscendingProblem(objs, caps, lower, upper)


def _first_binding_level(binds) -> float:
    """1/x**2 at the least x > 0 with ``binds(x)``, for a ``binds`` that
    holds from some x on, by bisection to one ulp; infinite should it hold
    from x = 1e-150, 0 should it not hold below 1e150."""
    lo, hi = 1e-150, 1.0
    if binds(lo):
        return math.inf
    while not binds(hi):
        if hi > 1e150:
            return 0.0
        lo, hi = hi, 2.0 * hi
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if binds(mid) else (mid, hi)
    return hi ** -2.0


@given(bank_staircases())
@example(AscendingProblem([LogCapacity(1, 1, 1)] + [LogCapacity(1, 1, 0)] * 2,
                          [0.05, 0.1, 1.1], [5e-16, 0.0, 0.0], [5e-16, 0.1, 0.1]))
@example(AscendingProblem([LogCapacity(1, 1, 1), LogCapacity(2, 1, 0), LogCapacity(1, 1, 0)],
                          [0.05, 0.1, 1.1], None, [0.0, 0.1, 0.1]))
@example(AscendingProblem([LogCapacity(1.1340308317964878, 1, 0.15380737517637963)],
                          [0.9691644825584156], None, [0.9691644825584158]))
def test_exact_block_levels_match_a_bisection(problem):
    """Every suffix of the channels, taken as a block under the room its
    caps leave, has the level at which a bisection on x = 1/sqrt(mu) finds
    the first cap to bind, to 1e-12 relative.  Where a cap is met exactly
    over a range of levels (in the second example, channel 1 at tau fills
    cap 1 at every level up to 20), any level on that range will do; the
    bisection marks its ends, a cap reached or exceeded to rounding, and a
    cap is reached at the level.  (In the first example the excess over
    cap 1 reaches 0 only 5e-16 before it stays flat, where Illinois on the
    level stops 2.5e-4 off.  In the third, the cap lies between tau and the
    demand at tau's level, which rounds below both.)"""
    gamma, tau = np.array(problem.lower_bounds), np.array(problem.upper_bounds)
    caps, k = np.array(problem.prefix_budgets), problem.n
    level = _block_levels(problem.channels, gamma, tau)
    for start in range(k):
        g, t = gamma[start:], tau[start:]
        room = caps[start:] - (caps[start - 1] if start else 0.0)
        if (np.cumsum(g) - room).max() >= 0 or \
                (np.isfinite(t).all() and (np.cumsum(t) <= room).all()):
            continue
        rest = problem.channels.take(np.arange(start, k))

        def binds(x, slack):
            clamped = np.minimum(np.maximum(rest.demand(1.0 / (x * x)), g), t)
            return (np.cumsum(clamped) - room >= slack).any()

        tie = 1e-14 * room[-1]
        reached = _first_binding_level(lambda x: binds(x, -tie))
        exceeded = _first_binding_level(lambda x: binds(x, tie))
        mu = level(start, room)
        assert exceeded * (1 - 1e-12) <= mu <= reached * (1 + 1e-12), start
        assert binds(mu ** -0.5, -tie), start


# Channels whose solves may raise: b/a past the float range (the far boxes
# of tests/cli_cases/), and a log slope that underflows (steps_underflow.json).
_FAR = [("inverse_mse", 1e-310), ("log_capacity", 1e-310), ("log_capacity", 1e-200)]


@st.composite
def box_rows(draw, far=False):
    """S box problems on one closed-form bank, of one family or of
    log_capacity and inverse_mse channels mixed: rows with some infinite
    upper bounds, with none finite, with every upper bound inside the budget,
    and with lower bounds that use the whole budget.  With ``far``, the first
    or last channel of some log_capacity/inverse_mse banks is one of
    ``_FAR``, so that some rows raise."""
    family = draw(st.sampled_from(CLOSED_FORM_FAMILIES + ("mixed",)))
    k = draw(st.integers(1, 12))
    w, b = ([draw(_param) for _ in range(k)] for _ in range(2))
    a = [draw(st.floats(0.1, 0.9)) if family == "af_relay" else draw(_param)
         for _ in range(k)]
    if family == "mixed":
        family = [draw(st.sampled_from(["log_capacity", "inverse_mse"])) for _ in range(k)]
    if far and family != "af_relay" and draw(st.booleans()):
        family = [family] * k if isinstance(family, str) else family
        i = draw(st.sampled_from([0, k - 1]))
        (family[i], a[i]), w[i], b[i] = draw(st.sampled_from(_FAR)), 1.0, 1.0
        kinds = ["far", "box", "open", "all_upper", "floor"]
    else:
        kinds = ["box", "open", "all_upper", "floor"]
    gammas, taus, budgets = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(kinds))
        budget = k * draw(st.floats(0.5, 3.0))
        gamma = np.array([draw(st.floats(0.0, 0.6)) * budget / k for _ in range(k)])
        tau = gamma + [draw(st.floats(0.2, 2.5)) * budget / k for _ in range(k)]
        if kind == "box":
            tau[[draw(st.booleans()) for _ in range(k)]] = np.inf
        elif kind == "open":
            tau[:] = np.inf
        elif kind == "all_upper":
            budget = float(tau.sum()) * draw(st.floats(1.0, 1.5))
        elif kind == "far":  # the far channel i must spend part of its box
            budget = float(tau.sum() - tau[i] + gamma[i]) + \
                draw(st.floats(0.1, 0.9)) * float(tau[i] - gamma[i])
        else:
            budget = float(gamma.sum())
        gammas.append(gamma)
        taus.append(tau)
        budgets.append(budget)
    return (Channels.from_arrays(family, w, a, b), np.array(gammas), np.array(taus),
            np.array(budgets))


def _far_rows(objectives, gamma, tau, budgets):
    """``box_rows`` of the given channels, one row per budget."""
    s = len(budgets)
    return (Channels(objectives), np.tile(gamma, (s, 1)), np.tile(tau, (s, 1)),
            np.array(budgets))


@given(box_rows(far=True))
# Rows of the cli_cases steps_underflow box (set_a and set_b raise), and of
# the far inverse_mse box at tau 1.5 (every strategy raises) and [1.5, 3.0].
@example(_far_rows([LogCapacity(1, 1e-200, 1), AfRelay(1, 0.5, 1)], [0.0, 0.0],
                   [1.5, np.inf], [2.0, 1.0]))
@example(_far_rows([InverseMse(1, 1e-310, 1), LogCapacity(1, 1, 1)], [0.0, 0.0],
                   [1.5, 1.5], [2.0, 1.0]))
@example(_far_rows([InverseMse(1, 1e-310, 1), LogCapacity(1, 1, 1)], [0.0, 0.0],
                   [1.5, 3.0], [2.0, 1.0]))
def test_row_search_matches_one_box_fill_per_row(rows):
    """box_fill_rows, whose order search runs every row at once, returns
    each row's box_fill powers bit for bit under every strategy, and None
    exactly where box_fill raises: a row fails alone."""
    bank, gamma, tau, budget = rows
    for strategy in BOX_STRATEGIES:
        cfg = SolverConfig(box_strategy=strategy)
        for i, row in enumerate(box_fill_rows(bank, gamma, tau, budget, cfg)):
            try:
                expected = box_fill(bank, gamma[i], tau[i], float(budget[i]), cfg)
            except WaterlineError:
                assert row is None, (strategy, i)
                continue
            powers, _, iterations, status, levels = row
            assert powers.tobytes() == expected[0].tobytes(), (strategy, i)
            assert (iterations, status, levels) == expected[2:], (strategy, i)


@given(box_rows())
def test_event_search_rows_pass_their_conditions(rows):
    """On a log_capacity/inverse_mse bank, mixed or not, every row of the
    order batch passes the box conditions at 1e-8 and agrees with set_a to
    1e-12 of its budget."""
    bank, gamma, tau, budget = rows
    assume(bank.family != "af_relay")
    set_a = SolverConfig(box_strategy="set_a")
    for i, (powers, *_) in enumerate(box_fill_rows(bank, gamma, tau, budget)):
        if budget[i] <= 0:  # a floor row of zero lower bounds is no problem
            continue
        problem = BoxProblem(bank.objectives, float(budget[i]), gamma[i].tolist(),
                             [None if math.isinf(t) else t for t in tau[i].tolist()])
        report = check_conditions(problem, powers.tolist(), tolerance=1e-8)
        assert report.passed, (i, report.residuals)
        reference = box_fill(bank, gamma[i], tau[i], float(budget[i]), set_a)[0]
        assert np.abs(powers - reference).max() <= 1e-12 * budget[i], i


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
