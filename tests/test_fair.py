"""Tests for max-min, clustered, and combined group solvers."""

import math
import random
import tracemalloc
from functools import partial

import numpy as np
import pytest

from waterline import (
    BoxProblem, ClusterLogCapacity, DomainError, FairProblem, InverseMse, LogCapacity,
    SimplexProblem, SumLog, check_conditions, grid_search, solve_box,
    solve_cluster, solve_cluster_maxmin, solve_fair, solve_maxmin, solve_p1)
from waterline.objectives import Channels, ClusterChannels

from conftest import layout


def test_maxmin_symmetric_split():
    problem = FairProblem([[LogCapacity(1, 1, 1)], [LogCapacity(1, 1, 1)]], 2.0)
    sol = solve_maxmin(problem)
    assert sol.powers[0][0] == pytest.approx(1.0, rel=1e-8)
    assert sol.powers[1][0] == pytest.approx(1.0, rel=1e-8)
    assert sol.t == pytest.approx(math.log(2.0), rel=1e-8)


def test_maxmin_closed_form_instance():
    # f1 = log(1+2p), f2 = log(1+p), P = 3: optimum p = (1, 2), t = log 3
    problem = FairProblem([[LogCapacity(1, 2, 1)], [LogCapacity(1, 1, 1)]], 3.0)
    sol = solve_maxmin(problem)
    assert sol.t == pytest.approx(math.log(3.0), abs=1e-8)
    assert sol.powers[0][0] == pytest.approx(1.0, abs=1e-7)
    assert sol.powers[1][0] == pytest.approx(2.0, abs=1e-7)
    oracle = grid_search(problem)
    assert sol.t == pytest.approx(oracle.objective_value, abs=1e-5)


def test_maxmin_inverse_mse_groups():
    rng = random.Random(11)
    groups = [[InverseMse(rng.uniform(0.5, 2), rng.uniform(0.5, 2), 1.0)
               for _ in range(2)] for _ in range(2)]
    problem = FairProblem(groups, 4.0)
    sol = solve_maxmin(problem)
    assert abs(sol.group_utilities[0] - sol.group_utilities[1]) <= 1e-8
    assert sum(sol.group_totals) == pytest.approx(4.0, rel=1e-9)
    oracle = grid_search(problem)
    assert sol.t == pytest.approx(oracle.objective_value, abs=1e-5)
    report = check_conditions(problem, sol, tolerance=1e-6)
    assert report.passed, report.residuals


def test_maxmin_monotone_group_demand():
    # the inner map t -> demanded power is increasing (bisection validity)
    from waterline.fair import _group_mu_for_t
    group = [LogCapacity(1, 2, 1), LogCapacity(1, 1, 1)]
    demands = [_group_mu_for_t(Channels(group), np.zeros(2), np.full(2, np.inf), t)[3]
               for t in (0.2, 0.5, 1.0, 1.5)]
    assert all(a < b for a, b in zip(demands, demands[1:]))
    # and power demand decreases in the water level
    mus = (0.2, 0.5, 1.0, 2.0)
    powers = [sum(max(o.demand(mu), 0.0) for o in group) for mu in mus]
    assert all(a > b for a, b in zip(powers, powers[1:]))


def test_cluster_single_group_reduces_to_p1():
    group = [ClusterLogCapacity(1, 2, 0.1, 1.0), ClusterLogCapacity(1, 1, 0.1, 1.0)]
    problem = FairProblem([group], 4.0, mode="cluster")
    sol = solve_cluster(problem)
    ref = solve_p1(SimplexProblem([o.bind(4.0) for o in group], 4.0))
    assert sol.powers[0] == pytest.approx(ref.powers, rel=1e-8)
    assert sol.group_totals[0] == pytest.approx(4.0)


@pytest.mark.parametrize("mode", ["cluster", "cluster_maxmin"])
def test_cluster_modes_refuse_finite_upper_bounds(mode):
    # The cluster solvers have no upper-bound logic, so a finite tau is refused
    # instead of being ignored; null (infinite) bounds are still accepted.
    groups = [[ClusterLogCapacity(1, 2, 0.1, 1), ClusterLogCapacity(1, 1, 0.1, 1)],
              [ClusterLogCapacity(1, 1, 0.1, 1)]]
    with pytest.raises(DomainError):
        FairProblem(groups, 6.0, mode=mode, upper_bounds=[[0.5, 0.5], [None]])
    problem = FairProblem(groups, 6.0, mode=mode, upper_bounds=[[None, None], [None]])
    assert check_conditions(problem, solve_fair(problem)).passed


def test_cluster_no_csi_error_pools():
    groups = [[ClusterLogCapacity(1, 2, 0.0, 1.0)],
              [ClusterLogCapacity(1, 1, 0.0, 1.0)]]
    problem = FairProblem(groups, 3.0, mode="cluster")
    sol = solve_cluster(problem)
    pooled = solve_p1(SimplexProblem(
        [LogCapacity(1, 2, 1), LogCapacity(1, 1, 1)], 3.0))
    assert sol.powers[0][0] == pytest.approx(pooled.powers[0], rel=1e-8)
    assert sol.powers[1][0] == pytest.approx(pooled.powers[1], rel=1e-8)


def test_cluster_matches_grid_oracle():
    groups = [[ClusterLogCapacity(1, 2.0, 0.1, 1.0),
               ClusterLogCapacity(1, 0.8, 0.1, 1.0)],
              [ClusterLogCapacity(1, 1.5, 0.1, 1.0)]]
    problem = FairProblem(groups, 5.0, mode="cluster")
    sol = solve_cluster(problem)
    oracle = grid_search(problem)
    assert sum(sol.group_utilities) == pytest.approx(
        oracle.objective_value, abs=1e-6)
    assert sum(sol.group_totals) == pytest.approx(5.0, rel=1e-9)


def test_cluster_maxmin_symmetric():
    groups = [[ClusterLogCapacity(1, 1, 0.1, 1.0)],
              [ClusterLogCapacity(1, 1, 0.1, 1.0)]]
    problem = FairProblem(groups, 4.0, mode="cluster_maxmin")
    sol = solve_cluster_maxmin(problem)
    assert sol.group_totals[0] == pytest.approx(2.0, rel=1e-6)
    assert sol.group_totals[1] == pytest.approx(2.0, rel=1e-6)
    assert sol.group_utilities[0] == pytest.approx(sol.group_utilities[1],
                                                   rel=1e-8)


def test_cluster_maxmin_asymmetric_matches_grid():
    groups = [[ClusterLogCapacity(1, 2.0, 0.1, 1.0)],
              [ClusterLogCapacity(1, 0.7, 0.1, 1.0),
               ClusterLogCapacity(1, 1.2, 0.1, 1.0)]]
    problem = FairProblem(groups, 5.0, mode="cluster_maxmin")
    sol = solve_cluster_maxmin(problem)
    assert abs(sol.group_utilities[0] - sol.group_utilities[1]) <= 1e-6
    assert sum(sol.group_totals) == pytest.approx(5.0, rel=1e-8)
    oracle = grid_search(problem)
    assert sol.t == pytest.approx(oracle.objective_value, abs=1e-5)


def test_cluster_maxmin_no_csi_error_matches_maxmin():
    groups_c = [[ClusterLogCapacity(1, 2.0, 0.0, 1.0)],
                [ClusterLogCapacity(1, 1.0, 0.0, 1.0)]]
    sol_c = solve_cluster_maxmin(FairProblem(groups_c, 3.0, mode="cluster_maxmin"))
    groups_m = [[LogCapacity(1, 2, 1)], [LogCapacity(1, 1, 1)]]
    sol_m = solve_maxmin(FairProblem(groups_m, 3.0))
    assert sol_c.t == pytest.approx(sol_m.t, abs=1e-7)


def test_boxed_slack_boxes_match_unboxed():
    groups = [[LogCapacity(1, 2, 1)], [LogCapacity(1, 1, 1)]]
    plain = solve_maxmin(FairProblem(groups, 3.0))
    boxed = solve_maxmin(FairProblem(
        groups, 3.0, upper_bounds=[[100.0], [100.0]]))
    assert boxed.t == pytest.approx(plain.t, abs=1e-8)
    assert boxed.powers[0][0] == pytest.approx(plain.powers[0][0], abs=1e-6)


def test_boxed_single_group_matches_solve_box():
    objs = [LogCapacity(1, 1, 1), LogCapacity(1, 1, 0.5)]
    box = solve_box(BoxProblem(objs, 3.0, [0.2, 0.2], [2.0, 2.0]))
    sol = solve_maxmin(FairProblem(
        [objs], 3.0, lower_bounds=[[0.2, 0.2]], upper_bounds=[[2.0, 2.0]]))
    assert sol.powers[0] == pytest.approx(box.powers, abs=1e-8)


def test_boxed_tight_upper_bounds_respected():
    rng = random.Random(13)
    groups = [[InverseMse(rng.uniform(0.5, 2), rng.uniform(0.5, 2), 1.0)
               for _ in range(2)] for _ in range(2)]
    taus = [[0.6, 0.6], [5.0, 5.0]]
    problem = FairProblem(groups, 4.0, upper_bounds=taus)
    sol = solve_maxmin(problem)
    for row, tau_row in zip(sol.powers, taus):
        for p, tau in zip(row, tau_row):
            assert p <= tau + 1e-9
    assert sum(sol.group_totals) == pytest.approx(4.0, rel=1e-8)
    # groups not fully pinned still reach at least t
    for util, active in zip(sol.group_utilities, sol.active_sets):
        assert util >= sol.t - 1e-6 * (1 + abs(sol.t))


def test_boxed_all_upper_bounds_cover_budget():
    groups = [[LogCapacity(1, 1, 1)], [LogCapacity(1, 1, 1)]]
    problem = FairProblem(groups, 5.0, upper_bounds=[[1.0], [1.0]])
    sol = solve_maxmin(problem)
    assert sol.powers == [[1.0], [1.0]]
    assert sol.status == "optimal"


def test_conditions_flag_unequal_group_utilities():
    problem = FairProblem([[LogCapacity(1, 2, 1)], [LogCapacity(1, 1, 1)]], 3.0)
    sol = solve_maxmin(problem)
    # overwrite with the uniform split: utilities become unequal
    from waterline import FairSolution
    uniform = FairSolution(
        powers=[[1.5], [1.5]], water_levels=[None, None],
        group_totals=[1.5, 1.5],
        group_utilities=[math.log(4.0), math.log(2.5)],
        t=math.log(4.0), active_sets=[[0], [0]], iterations=1,
        status="feasible")
    report = check_conditions(problem, uniform, tolerance=1e-6)
    assert not report.passed
    assert report.residuals["utility_spread"] > 0.1


def test_cluster_binding_matches_scalar_bind_bit_for_bit():
    rng = random.Random(17)
    aware = [ClusterLogCapacity(rng.uniform(0.5, 2), rng.uniform(0.1, 5),
                                rng.choice([0.0, rng.uniform(0.01, 0.5)]),
                                rng.uniform(0.5, 2)) for _ in range(9)]
    mixed = aware[:3] + [LogCapacity(1, 2, 0.5), InverseMse(1, 1, 1)] + aware[3:]
    for group in (aware, mixed):
        clusters = ClusterChannels(group)
        for power in (0.0, 1e-9, 0.37, 4.0, 250.0):
            bound = clusters.bind(power)
            assert layout(bound) == ([LogCapacity] if group is aware else
                                     [LogCapacity, InverseMse])
            for i, obj in enumerate(group):
                ref = obj.bind(power) if hasattr(obj, "bind") else obj
                assert type(bound.objectives[i]) is type(ref)
                assert (bound.w[i], bound.a[i], bound.b[i]) == (ref.w, ref.a, ref.b)


MIXED_CLUSTER_GROUPS = [
    [ClusterLogCapacity(1, 2.0, 0.1, 1.0), LogCapacity(1, 1.5, 1.0),
     InverseMse(1, 1.2, 1.0), SumLog([1.0, 0.5], 1.0, 1.0, [1.0, 2.0], [1.0, 0.5])],
    [ClusterLogCapacity(1, 0.9, 0.1, 1.0), ClusterLogCapacity(1, 1.4, 0.2, 1.0)],
]


@pytest.mark.parametrize("mode", ["cluster", "cluster_maxmin"])
def test_mixed_cluster_group_solves_and_matches_grid(mode):
    problem = FairProblem(MIXED_CLUSTER_GROUPS, 5.0, mode=mode)
    sol = solve_fair(problem)
    report = check_conditions(problem, sol, tolerance=1e-8)
    assert report.passed, report.residuals
    assert sum(sol.group_totals) == pytest.approx(5.0, rel=1e-9)
    oracle = grid_search(problem)
    if mode == "cluster":
        assert sum(sol.group_utilities) == pytest.approx(
            oracle.objective_value, abs=1e-6)
    else:
        assert abs(sol.group_utilities[0] - sol.group_utilities[1]) <= 1e-6
        assert sol.t == pytest.approx(oracle.objective_value, abs=1e-5)


def test_conditions_flag_group_above_t_with_power_to_spare():
    # The optimum is p = (1, 2) at t = log 3; here group 0 keeps more than it
    # needs while group 1 sits below, and group 0 could give power away.
    problem = FairProblem([[LogCapacity(1, 2, 1)], [LogCapacity(1, 1, 1)]], 3.0)
    from waterline import FairSolution
    greedy = FairSolution(
        powers=[[1.5], [1.5]], water_levels=[None, None],
        group_totals=[1.5, 1.5],
        group_utilities=[math.log(4.0), math.log(2.5)],
        t=math.log(2.5), active_sets=[[0], [0]], iterations=1,
        status="optimal")
    report = check_conditions(problem, greedy, tolerance=1e-6)
    assert not report.passed
    assert report.residuals["utility_spread"] > 0.1
    # Claiming no active channels does not exempt a group from t.
    greedy.active_sets = [[], []]
    report = check_conditions(problem, greedy, tolerance=1e-6)
    assert report.residuals["utility_spread"] > 0.1
    # With room for every channel at its upper bound, stopping short of it
    # leaves power unspent.
    boxed = FairProblem([[LogCapacity(1, 1, 1)], [LogCapacity(1, 1, 1)]], 5.0,
                        upper_bounds=[[1.0], [1.0]])
    short = FairSolution(
        powers=[[0.5], [0.5]], water_levels=[None, None],
        group_totals=[0.5, 0.5], group_utilities=[math.log(1.5)] * 2,
        t=math.log(1.5), active_sets=[[0], [0]], iterations=1,
        status="feasible")
    report = check_conditions(boxed, short, tolerance=1e-6)
    assert report.residuals["power_residual"] == pytest.approx(0.2)


@pytest.mark.parametrize("case", ["floor", "capped", "all_upper"])
def test_conditions_accept_groups_above_t_that_cannot_give_way(case):
    one = LogCapacity(1, 1, 1)
    if case == "floor":
        # log(1 + p) >= 0 > -1/(1 + p): group 0 meets t at its minimum budget.
        problem = FairProblem([[one], [InverseMse(1, 1, 1)]], 2.0,
                              mode="cluster_maxmin")
    elif case == "capped":
        # Group 2 is saturated at its upper bound, so t cannot rise past its
        # utility and the budget it cannot take goes to the other groups.
        problem = FairProblem([[one] * 3, [one] * 2, [one]], 6.0,
                              upper_bounds=[[None] * 3, [None] * 2, [0.5]])
    else:
        # Every upper bound fits in the budget: all channels sit at tau.
        problem = FairProblem([[one] * 3, [one]], 4.0,
                              upper_bounds=[[0.5] * 3, [0.5]])
    sol = solve_fair(problem)
    assert max(sol.group_utilities) > sol.t + 0.1
    report = check_conditions(problem, sol, tolerance=1e-8)
    assert report.passed, report.residuals


def test_cluster_maxmin_group_meeting_t_at_its_floor_rests_there():
    # log(1 + p) >= 0 > -1/(1 + p): group 0 needs no power to reach t.
    problem = FairProblem([[LogCapacity(1, 1, 1)], [InverseMse(1, 1, 1)]], 2.0,
                          mode="cluster_maxmin")
    sol = solve_cluster_maxmin(problem)
    assert sol.powers[0] == [0.0]
    assert sol.active_sets[0] == []
    report = check_conditions(problem, sol, tolerance=1e-8)
    assert report.passed, report.residuals


def test_cluster_group_with_a_large_floor_gets_budget_above_it():
    # Group 0's floor exceeds its share of the budget.  Its marginal value of
    # budget at the floor is the rate at which its channel joins, not 0, so
    # it receives more than the floor.
    problem = FairProblem([[ClusterLogCapacity(1, 10, 0.1, 1)],
                           [ClusterLogCapacity(1, 0.5, 0.1, 1)]], 4.0,
                          mode="cluster", lower_bounds=[[2.5], [0.0]])
    sol = solve_cluster(problem)
    assert sol.powers[0][0] > 2.8
    assert sum(sol.group_utilities) == pytest.approx(
        grid_search(problem).objective_value, abs=1e-6)
    report = check_conditions(problem, sol, tolerance=1e-8)
    assert report.passed, report.residuals
    # Leaving group 0 at its floor passes every per-group residual, but its
    # marginal value of budget there exceeds group 1's.
    from waterline import FairSolution
    utils = [ClusterLogCapacity(1, 10, 0.1, 1).eval(2.5, 2.5),
             ClusterLogCapacity(1, 0.5, 0.1, 1).eval(1.5, 1.5)]
    stranded = FairSolution(
        powers=[[2.5], [1.5]], water_levels=[None, None], group_totals=[2.5, 1.5],
        group_utilities=utils, t=min(utils), active_sets=[[], [0]], iterations=1,
        status="optimal")
    report = check_conditions(problem, stranded, tolerance=1e-8)
    assert not report.passed
    assert report.residuals["marginal_spread"] > 0.2


def test_cluster_group_resting_at_its_floor_stays_feasible():
    # Group 0 rests just above a floor larger than its share of the budget;
    # spreading the bisection's residual over the whole totals would push it
    # below the floor.
    problem = FairProblem([[ClusterLogCapacity(1, 0.113, 0.1, 1)],
                           [ClusterLogCapacity(1, 6.17, 0.05, 1),
                            ClusterLogCapacity(1, 2.95, 0.12, 1)]], 5.75,
                          mode="cluster", lower_bounds=[[4.7], [0.0, 0.0]])
    sol = solve_cluster(problem)
    assert sol.powers[0][0] >= 4.7
    assert sum(sol.group_totals) == pytest.approx(5.75, rel=1e-12)
    report = check_conditions(problem, sol, tolerance=1e-8)
    assert report.passed, report.residuals


def _random_maxmin_group(rng: random.Random):
    """A log_capacity, inverse_mse or mixed group with zero-b channels at
    zero floors, lower bounds and finite upper bounds on some channels."""
    classes = rng.choice([[LogCapacity], [InverseMse], [LogCapacity, InverseMse]])
    capped = rng.choice([0.3, 1.0])  # the share of channels with a finite tau
    objs, gamma, tau = [], [], []
    for _ in range(rng.randint(1, 40)):
        b = 0.0 if rng.random() < 0.15 else rng.uniform(0.05, 2)
        g = 0.0 if b == 0.0 or rng.random() < 0.4 else rng.uniform(0, 1)
        objs.append(rng.choice(classes)(rng.uniform(0.2, 5), rng.uniform(0.2, 5), b))
        gamma.append(g)
        tau.append(g + rng.uniform(0.1, 2) if rng.random() < capped else math.inf)
    return Channels(objs), np.array(gamma), np.array(tau)


def _group_level(channels: Channels, gamma, tau):
    """One group's ``(level, cap)``, from the problem-wide table builder."""
    from waterline.fair import _group_levels
    return _group_levels(channels, gamma, tau, [0, len(gamma)])[0]


def _cluster_table(cluster: ClusterChannels, gamma):
    """One group's ``(at, at_price, at_target)``, or None, from the
    problem-wide table builder."""
    from waterline.fair import _cluster_tables
    return _cluster_tables(cluster, gamma, [0, len(gamma)])[0][0]


def test_exact_group_level_matches_bisection():
    from waterline import InfeasibleTarget
    from waterline.box import _classify
    from waterline.fair import _group_mu_for_t, _group_state
    rng = random.Random(23)
    outcomes = {"level": 0, "flat": 0, "floor": 0, "unreachable": 0}
    for _ in range(120):
        channels, gamma, tau = _random_maxmin_group(rng)
        table = _group_level(channels, gamma, tau)[0]

        def level(t):  # a table state leaves its powers to _group_state
            state = table(t)
            return state if state[1] is not None else \
                (state[0], *_group_state(channels, gamma, tau, state[0]))
        capped = np.isfinite(tau)
        rates = np.concatenate((channels.rate(gamma),
                                channels.rate(np.where(capped, tau, gamma))[capped]))
        finite = rates[np.isfinite(rates)]
        lo, hi = (1e-2 * finite.min(), 2 * finite.max()) if finite.size else (1e-2, 2)

        def utility(mu):
            return _group_state(channels, gamma, tau, mu)[1]
        targets = [utility(math.exp(rng.uniform(math.log(lo), math.log(hi))))
                   for _ in range(3)]
        # The utility where a channel saturates: flat beyond it when every
        # channel that joined is saturated.
        targets += [utility(r) for r in rng.sample(list(rates[len(gamma):]),
                                                   min(2, int(capped.sum())))]
        if np.isfinite(channels.rate(gamma)).all():  # else the floor utility is -inf
            targets.append(utility(None) - rng.uniform(0, 1))
        if capped.all():  # every channel at tau, and nothing above it
            targets += [utility(1e-300), utility(1e-300) + rng.uniform(0.01, 1)]
        else:
            if channels.family != "log_capacity":  # inverse_mse: bounded as mu -> 0
                targets.append(utility(1e-300) + rng.uniform(0.01, 1))
            if channels.family != "inverse_mse":  # log_capacity: beyond any float level
                targets.append(1e6)
        for t in targets:
            results = []
            for solve in (level, partial(_group_mu_for_t, channels, gamma, tau)):
                try:
                    results.append(solve(t))
                except InfeasibleTarget:
                    results.append(None)
            exact, reference = results
            assert (exact is None) == (reference is None)
            if reference is None:
                outcomes["unreachable"] += 1
                continue
            np.testing.assert_allclose(exact[1], reference[1], rtol=1e-10, atol=1e-12)
            if reference[0] is None:
                assert exact[0] is None
                outcomes["floor"] += 1
                continue
            if _classify(reference[1], gamma, tau)[3].any():
                assert exact[0] == pytest.approx(reference[0], rel=1e-12, abs=0)
                outcomes["level"] += 1
            else:  # no interior channel: the utility is flat in the level
                outcomes["flat"] += 1
    assert min(outcomes.values()) > 20, outcomes


@pytest.mark.parametrize("classes", [[LogCapacity], [InverseMse], [LogCapacity, InverseMse]],
                         ids=["log_capacity", "inverse_mse", "mixed"])
def test_group_level_on_tied_points(classes):
    # Zero-width boxes put a channel's join and saturation at one point, and
    # copies of a channel put their joins at one point: whatever the order of
    # a tie, the table's allocation is the level search's.
    from waterline.fair import _group_mu_for_t, _group_state
    rng = random.Random(53)
    for _ in range(40):
        objs, gamma, tau = [], [], []
        for _ in range(rng.randint(1, 8)):
            b = rng.choice([0.0, 0.5, 1.0])
            g = 0.0 if b == 0 else rng.choice([0.0, 0.25, 0.5])
            t = rng.choice([g, g + 0.5, math.inf]) if g or b else rng.choice([0.5, math.inf])
            for _ in range(rng.choice([1, 1, 2])):
                objs.append(rng.choice(classes)(rng.choice([1.0, 2.0]), rng.choice([1.0, 2.0]), b))
                gamma.append(g)
                tau.append(t)
        channels, gamma, tau = Channels(objs), np.array(gamma), np.array(tau)
        level = _group_level(channels, gamma, tau)[0]
        for mu in np.geomspace(1e-2, 1e2, 9).tolist():
            t = _group_state(channels, gamma, tau, mu)[1]
            state = level(t)
            powers = state[1] if state[1] is not None else \
                _group_state(channels, gamma, tau, state[0])[0]
            reference = _group_mu_for_t(channels, gamma, tau, t)[1]
            np.testing.assert_allclose(powers, reference, rtol=1e-10, atol=1e-12)


def test_group_search_ends():
    """A target above every utility the group reaches is InfeasibleTarget (the
    search stops before a level of 0), and a group above the target at every
    finite level rests at its floor with no water level."""
    from waterline import AfRelay, CustomObjective, InfeasibleTarget
    from waterline.fair import _group_mu_for_t
    relay = Channels([AfRelay(1.0, 0.5, 1.0), AfRelay(2.0, 0.3, 0.5)])
    top = -math.log(0.5) - 2.0 * math.log(0.7)  # sum of -w*log(1 - a), p -> inf
    with pytest.raises(InfeasibleTarget):
        _group_mu_for_t(relay, np.zeros(2), np.full(2, np.inf), top + 0.1)
    root = CustomObjective(math.sqrt, lambda p: 0.5 / math.sqrt(p) if p > 0 else math.inf)
    mu, powers, utility, total = _group_mu_for_t(
        Channels([root]), np.zeros(1), np.full(1, np.inf), -1.0)
    assert mu is None and powers.tolist() == [0.0] and (utility, total) == (0.0, 0.0)


@pytest.mark.parametrize("increasing", [True, False], ids=["increasing", "decreasing"])
def test_outer_search_width_stop_keeps_the_fitting_probe_next_to_the_step(increasing):
    """A total that steps over the budget at x = 0.5 leaves no probe within
    the tolerance, so the search stops on width.  Every fitting probe leaves
    the same budget over, and the tie goes to the one next to the step: the
    largest probe below 0.5 for a rising total, 0.5 itself for a falling one."""
    from waterline import SolverConfig
    from waterline.fair import _outer_search
    probed = []

    def evaluate(x):
        probed.append(x)
        return (2.0 if (x >= 0.5) == increasing else 0.0), x

    x, payload, evaluations = _outer_search(evaluate, 1.0, SolverConfig(), increasing,
                                            hi=1.0, lo=0.0)
    assert payload == x and evaluations == len(set(probed))
    assert evaluate(x)[0] <= 1.0
    if increasing:
        assert x == max(p for p in probed if p < 0.5)
        assert x > 0.5 - 1e-12
    else:
        assert x == 0.5


def test_group_search_rejects_a_target_above_tau_at_once(monkeypatch):
    """When every upper bound is finite, a target above the utility there
    raises InfeasibleTarget after one group evaluation (the floor), not after
    a search that halves to the end of the float range."""
    from waterline import AfRelay, InfeasibleTarget, fair
    group = Channels([AfRelay(1.0, 0.5, 1.0), AfRelay(0.8, 0.3, 1.2),
                      SumLog([1.0, 0.5], 1.0, 1.0, [1.0, 2.0], [1.0, 0.5])])
    gamma, tau = np.array([0.0, 0.2, 0.0]), np.array([1.0, 2.0, 1.5])
    top = float(group.eval(tau).sum())
    calls = []

    def counted(*args, _state=fair._group_state):
        calls.append(args[3])
        return _state(*args)
    monkeypatch.setattr(fair, "_group_state", counted)
    for t in (top + 1e-9, top + 1.0, 1e300):
        calls.clear()
        with pytest.raises(InfeasibleTarget):
            fair._group_mu_for_t(group, gamma, tau, t)
        assert calls == [None], calls
    # At the utility at tau the target is reached, every channel saturated.
    mu, powers, utility, _ = fair._group_mu_for_t(group, gamma, tau, top)
    assert mu is not None and utility >= top and powers.tolist() == tau.tolist()


def test_group_search_with_an_open_box_rejects_an_unreachable_target():
    """With an infinite upper bound no utility at tau caps the target, and
    the sum family's inversion gives up as the level halves: that is an
    InfeasibleTarget, not an InversionFailure.  A reachable target solves."""
    from waterline import AfRelay, InfeasibleTarget, fair
    group = Channels([AfRelay(1.0, 0.5, 1.0),
                      SumLog([1.0, 0.5], 1.0, 1.0, [1.0, 2.0], [1.0, 0.5])])
    gamma, tau = np.zeros(2), np.array([1.0, np.inf])
    for t in (1e3, 1e300):
        with pytest.raises(InfeasibleTarget):
            fair._group_mu_for_t(group, gamma, tau, t)
    mu, powers, utility, _ = fair._group_mu_for_t(group, gamma, tau, 50.0)
    assert mu is not None and utility >= 50.0
    assert powers[0] <= tau[0] and utility == pytest.approx(50.0, rel=1e-9)


def test_group_search_cost_without_a_table(monkeypatch):
    """An af_relay or sum_log group has no breakpoint table; a fixed target
    takes at most 20 group evaluations (a x4 bracket and bisection to 1e-15
    took about 55)."""
    from waterline import AfRelay, fair
    groups = [[AfRelay(1.0, 0.5, 1.0), AfRelay(0.8, 0.3, 1.2), AfRelay(1.5, 0.7, 0.5)],
              [SumLog([1.0, 0.5], 1.0, 1.0, [1.0, 2.0], [1.0, 0.5]),
               SumLog([0.7, 1.2], 2.0, 0.5, [1.0, 1.0], [1.0, 2.0])]]
    calls = []

    def counted(*args, _state=fair._group_state):
        calls.append(args[3])
        return _state(*args)
    monkeypatch.setattr(fair, "_group_state", counted)
    for group in groups:
        calls.clear()
        k = len(group)
        level, cap = _group_level(Channels(group), np.zeros(k), np.full(k, np.inf))
        assert cap is None
        mu, _, utility, _ = level(2.0)
        assert mu is not None and len(calls) <= 20, len(calls)
        assert utility == pytest.approx(2.0, rel=1e-12)


def _fixed_step_bisection(f, lo, hi, y, steps, increasing):
    """The group-budget search the memoised one replaced: ``steps`` halvings."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if (f(mid) < y) if increasing else (f(mid) > y):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("kind", ["utility", "marginal"])
def test_memoised_budget_search_matches_bisection(kind):
    from waterline.core import water_fill
    from waterline.fair import _MonotoneMap
    rng = random.Random(29)
    cluster = ClusterChannels([ClusterLogCapacity(1.0, rng.expovariate(1.0) + 1e-3,
                                                  0.05, 1.0) for _ in range(16)])
    gamma, budget = np.zeros(16), 64.0
    calls = {"bisection": 0, "memo": 0}

    def group_map(b):
        channels = cluster.bind(b)
        powers, mu, _, _ = water_fill(channels, gamma, b)
        if kind == "utility":
            return float(channels.eval(powers).sum())
        return mu + cluster.drag(powers, b)

    def counted(name):
        def f(b):
            calls[name] += 1
            return group_map(b)
        return f

    increasing = kind == "utility"
    steps = 100 if increasing else 80
    lo, hi = 1e-9 * budget / 4, budget
    memo = _MonotoneMap(counted("memo"), increasing)
    memo(lo), memo(hi)
    # Targets as the outer bisection produces them, homing in on f(0.3 * budget).
    y_lo, y_hi = sorted((group_map(lo), group_map(hi)))
    goal = group_map(0.3 * budget)
    for _ in range(40):
        y = 0.5 * (y_lo + y_hi)
        reference = _fixed_step_bisection(counted("bisection"), lo, hi, y, steps,
                                          increasing)
        assert memo.root(y, lo, hi) == pytest.approx(reference, rel=1e-12, abs=0)
        if y < goal:
            y_lo = y
        else:
            y_hi = y
    assert calls["memo"] < calls["bisection"] / 5, calls


def _table_groups():
    rng = random.Random(37)
    return {
        "single": [ClusterLogCapacity(1.5, 0.8, 0.1, 1.0)],
        # Equal a*w, with and without equal (w, a): the tied channels join together.
        "ties": [ClusterLogCapacity(1.0, 2.0, 0.05, 1.0)] * 3 + [
            ClusterLogCapacity(2.0, 1.0, 0.05, 1.0), ClusterLogCapacity(1.0, 0.5, 0.05, 1.0)],
        "uncoupled": [ClusterLogCapacity(rng.uniform(0.5, 2), rng.uniform(0.5, 2), 0.0, 1.3)
                      for _ in range(6)],
        "wide": [ClusterLogCapacity(10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-2, 2),
                                    0.2, 0.7) for _ in range(12)],
    }


@pytest.mark.parametrize("name", ["single", "ties", "uncoupled", "wide"])
def test_cluster_table_matches_water_fill(name):
    from waterline.core import water_fill
    group = _table_groups()[name]
    cluster, gamma = ClusterChannels(group), np.zeros(len(group))
    table = _cluster_table(cluster, gamma)[0]
    budget = 4.0 * len(group)
    for b in np.geomspace(1e-9 * budget, budget, 50).tolist():
        channels = cluster.bind(b)
        powers, mu, _, _ = water_fill(channels, gamma, b)
        marginal, utility, _ = table(b)
        assert marginal == pytest.approx(mu + cluster.drag(powers, b), rel=1e-12)
        # The table's utility is L_m - U_m*log(s*mu), whose rounding is a few
        # ulp of L_m: at the smallest budgets the 1e-12 absolute floor holds.
        assert utility == pytest.approx(float(channels.eval(powers).sum()),
                                        rel=1e-12, abs=1e-12)
    assert table(0.0) is None


@pytest.mark.parametrize("group,gamma", [
    ([ClusterLogCapacity(1, 2, 0.1, 1.0), ClusterLogCapacity(1, 1, 0.2, 1.0)], [0, 0]),
    ([ClusterLogCapacity(1, 2, 0.1, 1.0), ClusterLogCapacity(1, 1, 0.1, 2.0)], [0, 0]),
    ([ClusterLogCapacity(1, 2, 0.1, 1.0), ClusterLogCapacity(1, 1, 0.1, 1.0)], [0, 0.5]),
    ([ClusterLogCapacity(1, 2, 0.1, 1.0), LogCapacity(1, 1, 1)], [0, 0]),
])
def test_cluster_table_needs_one_noise_pair_zero_floors_and_aware_entries(group, gamma):
    assert _cluster_table(ClusterChannels(group), np.array(gamma, dtype=float)) is None


def _table_problem(mode: str, n_groups: int = 4, k: int = 64, seed: int = 3) -> FairProblem:
    """The fair benchmark's draw: groups of log_capacity channels (upper
    bounds of 2 in ``maxmin_boxed``) or of cluster-aware channels sharing
    one noise pair, a budget of one per channel."""
    gains = np.random.default_rng(seed).exponential(size=(n_groups, k)).tolist()
    if mode.startswith("cluster"):
        groups = [[ClusterLogCapacity(1.0, a, 0.05, 1.0) for a in row] for row in gains]
        return FairProblem(groups, float(n_groups * k), mode=mode)
    groups = [[LogCapacity(1.0, a, 1.0) for a in row] for row in gains]
    upper = [[2.0] * k] * n_groups if mode == "maxmin_boxed" else None
    return FairProblem(groups, float(n_groups * k), upper_bounds=upper)


@pytest.mark.parametrize("mode", ["cluster", "cluster_maxmin"])
def test_cluster_modes_call_water_fill_only_to_finish(mode, monkeypatch):
    # Four groups of 64 cluster-aware channels sharing one noise pair, as in
    # the fair benchmark: the group-budget searches read the sorted tables,
    # and water_fill runs only for the final powers (twice per group at most).
    import waterline.fair as fair
    problem, calls = _table_problem(mode), []
    kernel = fair.water_fill

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)
    monkeypatch.setattr(fair, "water_fill", counted)
    sol = solve_fair(problem)
    assert check_conditions(problem, sol, tolerance=1e-8).passed
    assert len(calls) <= 2 * problem.n_groups, len(calls)


@pytest.mark.parametrize("mode", ["maxmin", "maxmin_boxed", "cluster", "cluster_maxmin"])
def test_table_groups_run_no_memoised_search_and_no_box_fill(mode, monkeypatch):
    # On 4 x 64 table groups every outer evaluation reads the closed-form
    # inverses: no _MonotoneMap point is evaluated inside the outer search,
    # and max-min takes its t caps from the tables, with no box_fill.
    import waterline.fair as fair
    inside, evaluations, fills = [False], [], []
    call, search, fill = fair._MonotoneMap.__call__, fair._outer_search, fair.box_fill

    def counted_call(self, x):
        if inside[0]:
            evaluations.append(x)
        return call(self, x)

    def watched_search(*args, **kwargs):
        inside[0] = True
        try:
            return search(*args, **kwargs)
        finally:
            inside[0] = False
    monkeypatch.setattr(fair._MonotoneMap, "__call__", counted_call)
    monkeypatch.setattr(fair, "_outer_search", watched_search)
    monkeypatch.setattr(fair, "box_fill", lambda *a: fills.append(1) or fill(*a))
    problem = _table_problem(mode)
    sol = solve_fair(problem)
    assert check_conditions(problem, sol, tolerance=1e-8).passed
    assert sol.iterations > 1 and evaluations == [] and fills == []


def _tables_off(monkeypatch) -> None:
    """Send every group down the searches it takes without a table."""
    import waterline.fair as fair
    monkeypatch.setattr(fair, "_bank_points", lambda *args: None)


def _agreement_problems():
    rng = random.Random(43)
    for mode in ("maxmin", "maxmin_boxed", "cluster", "cluster_maxmin"):
        for seed in range(3):
            yield _table_problem(mode, n_groups=rng.randint(2, 4), k=rng.randint(1, 24),
                                 seed=seed)
    # b = 0 channels at zero floors, lower bounds, and groups of either family or both
    for classes in ([LogCapacity], [InverseMse], [LogCapacity, InverseMse]):
        for _ in range(4):
            groups, lower, upper = [], [], []
            for _ in range(rng.randint(2, 4)):
                k = rng.randint(1, 8)
                b = [0.0 if rng.random() < 0.2 else rng.uniform(0.05, 2) for _ in range(k)]
                groups.append([rng.choice(classes)(rng.uniform(0.2, 5), rng.uniform(0.2, 5), x)
                               for x in b])
                lower.append([0.0 if x == 0 else rng.uniform(0, 0.3) for x in b])
                upper.append([lo + rng.uniform(0.1, 2) if rng.random() < 0.5 else None
                              for lo in lower[-1]])
            budget = sum(map(sum, lower)) + rng.uniform(0.5, 3) * sum(map(len, groups))
            yield FairProblem(groups, budget, lower_bounds=lower, upper_bounds=upper)


def test_fair_modes_agree_with_the_tables_turned_off(monkeypatch):
    # The closed-form table inverses against the searches every group takes
    # without a table: _group_mu_for_t for max-min, _MonotoneMap over
    # water_fill for the cluster modes.
    problems = list(_agreement_problems())
    shipped = [solve_fair(problem) for problem in problems]
    _tables_off(monkeypatch)
    for problem, sol in zip(problems, shipped):
        reference = solve_fair(problem)
        assert sol.status == reference.status
        assert sol.t == pytest.approx(reference.t, rel=1e-12, abs=0)
        gap = max(abs(p - q) for row, ref in zip(sol.powers, reference.powers)
                  for p, q in zip(row, ref))
        assert gap <= 1e-12 * problem.budget, (problem.mode, gap)
        assert check_conditions(problem, sol, tolerance=1e-8).passed


def _bisected_maxmin_t(problem: FairProblem, lo: float, hi: float) -> float:
    """The largest t in ``[lo, hi]`` whose least-power group allocations fit
    the budget, by plain bisection on t over :func:`_group_mu_for_t` (no
    breakpoint table, no regula falsi).  The bracket is checked first."""
    from waterline import InfeasibleTarget
    from waterline.fair import _group_mu_for_t
    groups = [(Channels(g), np.array(lo, dtype=float), np.array(hi, dtype=float))
              for g, lo, hi in zip(problem.groups, problem.lower_bounds,
                                   problem.upper_bounds)]

    def fits(t):
        try:
            total = sum(_group_mu_for_t(*group, t)[3] for group in groups)
        except InfeasibleTarget:
            return False
        return total <= problem.budget * (1 + 1e-12)
    assert fits(lo) and not fits(hi)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def _random_boxed_maxmin(rng: random.Random, n_groups: int) -> FairProblem:
    """Groups of 1-3 log_capacity or inverse_mse channels with lower bounds
    and a mix of finite and infinite upper bounds."""
    cls = rng.choice([LogCapacity, InverseMse])
    groups = [[cls(rng.uniform(0.5, 2), rng.uniform(0.5, 2), rng.uniform(0.05, 2))
               for _ in range(rng.randint(1, 3))] for _ in range(n_groups)]
    k = sum(len(g) for g in groups)
    budget = k * rng.uniform(0.5, 3)
    lower = [[rng.uniform(0, 0.5) * budget / k for _ in g] for g in groups]
    upper = [[lo + rng.choice([0.3, 1.0, 2.0]) * budget / k if rng.random() < 0.6
              else None for lo in row] for row in lower]
    return FairProblem(groups, budget, lower_bounds=lower, upper_bounds=upper)


def test_boxed_maxmin_matches_references():
    # grid_search returns a feasible point, so t may not fall below it; its
    # last step, 1e-5 of the budget for two groups (1e-4 for three, and slow),
    # bounds the gap.  The bisection reference pins t down to 1e-6.
    rng = random.Random(31)
    for n in range(16):
        problem = _random_boxed_maxmin(rng, 3 if n % 3 == 0 else 2)
        sol = solve_maxmin(problem)
        assert check_conditions(problem, sol, tolerance=1e-8).passed
        reference = _bisected_maxmin_t(problem, sol.t - 1e-3, sol.t + 1e-3)
        assert sol.t == pytest.approx(reference, abs=1e-6)
        if problem.n_groups == 2 and n < 8:
            grid = grid_search(problem).objective_value
            assert grid - 1e-9 <= sol.t <= grid + 1e-4 * problem.budget


def test_conditions_flag_a_better_channel_left_at_its_lower_bound():
    # t = log 3 for both groups, but group 0 can reach it with less power by
    # splitting (1, 1) between its equal channels; the optimum t is 1.2069.
    one = LogCapacity(1, 1, 1)
    problem = FairProblem([[one, one], [one]], 4.0)
    from waterline import FairSolution
    split = FairSolution(
        powers=[[0.0, 2.0], [2.0]], water_levels=[None, None], group_totals=[2.0, 2.0],
        group_utilities=[math.log(3.0)] * 2, t=math.log(3.0), active_sets=[[1], [0]],
        iterations=1, status="optimal")
    report = check_conditions(problem, split, tolerance=1e-8)
    assert not report.passed
    assert report.residuals["lower_rate_violation"] == pytest.approx(2.0)
    sol = solve_maxmin(problem)
    assert sol.t == pytest.approx(1.2069, abs=1e-4)
    assert check_conditions(problem, sol, tolerance=1e-8).passed


# Max-min instances where a channel demands more than its upper bound at the
# unboxed t but less at the boxed optimum, with the t reached when that
# channel is held at its bound once it has hit it.
HELD_AT_TAU = [
    ([[LogCapacity(1, 2, 1.25)], [LogCapacity(1, 2.5, 1), LogCapacity(1, 1.5, 0.75)]],
     2.5, [[1.25], [0.25, 2.5]], (0, 0), 1.2964380),
    ([[LogCapacity(1, 2.5, 1), LogCapacity(1, 1.5, 0.75)],
      [LogCapacity(1, 0.5, 0.5), LogCapacity(1, 3.75, 0.75)]],
     5.5, [[None, 0.75], [None, 0.5]], (0, 1), 1.7567292),
]


@pytest.mark.parametrize("groups,budget,upper,held,held_t", HELD_AT_TAU)
def test_boxed_maxmin_takes_a_channel_back_below_its_upper_bound(
        groups, budget, upper, held, held_t):
    problem = FairProblem(groups, budget, upper_bounds=upper)
    sol = solve_maxmin(problem)
    assert check_conditions(problem, sol, tolerance=1e-8).passed
    assert sol.t == pytest.approx(
        _bisected_maxmin_t(problem, sol.t - 1e-3, sol.t + 1e-3), abs=1e-9)
    assert sol.t > held_t + 5e-6
    j, i = held
    assert sol.powers[j][i] < upper[j][i] - 1e-3


def test_conditions_flag_a_channel_held_at_its_upper_bound():
    # The second instance above with channel (0, 1) held at tau = 0.75: every
    # group reaches t, but that channel's rate at tau is below its group's level.
    groups, budget, upper = HELD_AT_TAU[1][:3]
    problem = FairProblem(groups, budget, upper_bounds=upper)
    from waterline import FairSolution
    powers = [[0.8359375, 0.75], [3.4140625, 0.5]]
    utils = [float(Channels(g).eval(p).sum()) for g, p in zip(groups, powers)]
    held = FairSolution(
        powers=powers, water_levels=[None, None], group_totals=[1.5859375, 3.9140625],
        group_utilities=utils, t=min(utils), active_sets=[[0], [0]], iterations=1,
        status="optimal")
    report = check_conditions(problem, held, tolerance=1e-8)
    assert not report.passed
    assert report.residuals["upper_rate_violation"] > 1e-3


def test_maxmin_extends_the_outer_bracket_downward():
    # Each group alone reaches t = log(1 + 1e-6); at t one below that the
    # three groups still ask for 3/e > 1, so the search steps down again.
    groups = [[LogCapacity(1, 1, 1e-6)] for _ in range(3)]
    problem = FairProblem(groups, 1.0)
    sol = solve_maxmin(problem)
    for row in sol.powers:
        assert row[0] == pytest.approx(1 / 3, rel=1e-9)
    assert sol.t == pytest.approx(math.log(1 / 3 + 1e-6), rel=1e-9)
    assert check_conditions(problem, sol, tolerance=1e-8).passed


@pytest.mark.parametrize("name", ["single", "ties", "uncoupled", "wide"])
def test_cluster_table_inverses_map_back_to_the_budget(name):
    # Below about 1e-3 of the budget the maps are flat to rounding: a one-ulp
    # change of the marginal moves B by more than 1e-12 of it, and the
    # utility's rounding is a few ulp of L_m.  There the table, read at the
    # budget an inverse returns, must give the value back.
    group = _table_groups()[name]
    at, at_price, at_target = _cluster_table(ClusterChannels(group), np.zeros(len(group)))
    budget = 4.0 * len(group)
    for b in np.geomspace(1e-3 * budget, budget, 50).tolist():
        marginal, utility, _ = at(b)
        assert at_price(marginal) == pytest.approx(b, rel=1e-12, abs=0)
        assert at_target(utility) == pytest.approx(b, rel=1e-12, abs=0)
    for b in np.geomspace(1e-9 * budget, budget, 50).tolist():
        marginal, utility, _ = at(b)
        assert at(at_price(marginal))[0] == pytest.approx(marginal, rel=1e-12, abs=0)
        assert at(at_target(utility))[1] == pytest.approx(utility, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("classes", [[LogCapacity], [InverseMse], [LogCapacity, InverseMse]],
                         ids=["log_capacity", "inverse_mse", "mixed"])
@pytest.mark.parametrize("capped", [True, False], ids=["finite_tau", "infinite_tau"])
def test_scalar_maxmin_total_matches_the_group_state(classes, capped):
    # At every event's utility and midway between two, the table's scalar
    # total is the clamped demands' sum, and the t cap maps it back to the
    # utility there.
    from waterline.fair import _group_state
    rng = random.Random(47)
    checked = 0
    for _ in range(8):
        objs = [rng.choice(classes)(rng.uniform(0.2, 5), rng.uniform(0.2, 5),
                                    0.0 if rng.random() < 0.15 else rng.uniform(0.05, 2))
                for _ in range(rng.randint(1, 30))]
        channels = Channels(objs)
        gamma = np.array([0.0 if o.b == 0 or rng.random() < 0.4 else rng.uniform(0, 1)
                          for o in objs])
        tau = gamma + (np.array([rng.uniform(0.1, 2) for _ in objs]) if capped else np.inf)
        level, cap = _group_level(channels, gamma, tau)
        assert cap is not None
        rates = np.concatenate((channels.rate(gamma), channels.rate(tau)))
        rates = np.unique(rates[np.isfinite(rates) & (rates > 0)])[::-1]
        events = [_group_state(channels, gamma, tau, r)[1] for r in rates.tolist()]
        for t in events + [0.5 * (x + y) for x, y in zip(events, events[1:])]:
            mu, powers, _, total = level(t)
            assert powers is None or mu is None  # a table group's powers come later
            powers, utility, reference = _group_state(channels, gamma, tau, mu)
            scale = max(1.0, float(np.abs(powers).sum()))
            assert total == pytest.approx(reference, rel=0, abs=1e-12 * scale)
            if mu is not None and total > gamma.sum():
                assert cap(total) == pytest.approx(utility, rel=1e-12, abs=1e-12)
                checked += 1
        if capped:  # spending more than tau: the utility at tau, not an ulp above it
            top = float(channels.eval(tau).sum())
            assert cap(float(tau.sum()) + 1.0) <= top
            assert level(cap(float(tau.sum()) + 1.0))[3] == pytest.approx(tau.sum(), rel=1e-12)
    assert checked > 100, checked


def test_group_search_warm_starts_every_demand_after_the_first(monkeypatch):
    # A sum_log group has no table: each level the search tries starts the
    # ragged Newton from the last level's demands.  Cold starts give the same
    # t and powers.
    from waterline import fair
    groups = [[SumLog([1.0, 0.5], 1.0, 1.0, [1.0, 2.0], [1.0, 0.5]),
               SumLog([0.7, 1.2], 2.0, 0.5, [1.0, 1.0], [1.0, 2.0])],
              [SumLog([2.0], 0.5, 1.0, [1.5], [0.5]),
               SumLog([1.0, 1.0, 0.5], 1.5, 2.0, [0.5, 1.0, 2.0], [2.0, 1.0, 0.5])]]
    problem = FairProblem(groups, 5.0, upper_bounds=[[None, 1.5], [None, None]])
    demand, starts = Channels.demand, []

    def recorded(self, mu, start=None):
        starts.append(start)
        return demand(self, mu, start)
    monkeypatch.setattr(Channels, "demand", recorded)
    channels = Channels(groups[0])
    mu, _, utility, _ = fair._group_mu_for_t(channels, np.zeros(2), np.array([np.inf, 1.5]), 2.0)
    assert mu is not None and utility == pytest.approx(2.0, rel=1e-12)
    assert len(starts) > 2 and starts[0] is None
    assert all(start is not None for start in starts[1:])
    warm = solve_maxmin(problem)
    monkeypatch.setattr(Channels, "demand", lambda self, mu, start=None: demand(self, mu))
    cold = solve_maxmin(problem)
    assert warm.t == pytest.approx(cold.t, rel=1e-12, abs=0)
    for row, ref in zip(warm.powers, cold.powers):
        np.testing.assert_allclose(row, ref, rtol=0, atol=1e-12 * problem.budget)
    assert check_conditions(problem, warm, tolerance=1e-8).passed


@pytest.mark.parametrize("mode", ["cluster", "cluster_maxmin"])
def test_cluster_channel_that_never_joins(mode):
    # Sorted by a*w, the second channel of group 0 has g = 9.9, and
    # sigma_e2*g >= 1: no finite group budget makes room for it, so the table
    # ends after the first segment, which runs on to B = inf.
    group = [ClusterLogCapacity(1, 10, 0.5, 1), ClusterLogCapacity(1, 0.1, 0.5, 1)]
    problem = FairProblem([group, [ClusterLogCapacity(1, 1, 0.5, 1)]], 4.0, mode=mode)
    sol = solve_fair(problem)
    assert check_conditions(problem, sol, tolerance=1e-8).passed
    assert sol.powers[0][1] == 0.0 and sol.powers[0][0] > 0.1
    at, at_price, at_target = _cluster_table(ClusterChannels(group), np.zeros(2))
    # As B grows, B/s tends to 1/sigma_e2 and the utility to log(a*w*(1/sigma_e2
    # + 1/a)) from below: no finite budget reaches a target above that, or a
    # price of 0.
    top = math.log(10 * (1 / 0.5 + 0.1))
    assert at(1e12)[1] == pytest.approx(top, rel=1e-9) and at(1e12)[1] < top
    assert at_target(top) > 1e12 and at_target(top + 1e-9) == math.inf
    assert at_price(0.0) == math.inf
    for b in (0.5, 4.0, 1e6):
        assert at_target(at(b)[1]) == pytest.approx(b, rel=1e-9)
        assert at_price(at(b)[0]) == pytest.approx(b, rel=1e-9)
    # Below the least marginal and utility, the inverses give budgets <= 0.
    assert at_price(2 * at(1e-300)[0]) < 0 and at_target(-1.0) < 0


def test_cluster_table_gives_up_where_the_level_leaves_the_float_range():
    # mu = U/(B + s*A) underflows to 0 when s*A overflows, and overflows when
    # B and s*A are subnormal; the map then returns None, and its caller runs
    # water_fill.  No instance reaching these budgets passes its certificate
    # (the rates leave the float range too), so the exit is checked here.
    at = _cluster_table(ClusterChannels([ClusterLogCapacity(1, 1e-10, 0.5, 1.0)]),
                        np.zeros(1))[0]
    assert at(1e300) is None and at(1.0) is not None
    at = _cluster_table(ClusterChannels([ClusterLogCapacity(1e8, 1e300, 0.5, 0.1)]),
                        np.zeros(1))[0]
    assert at(1e-305) is None and at(1e-290) is not None


def test_memoised_search_exact_hit_and_ulp_midpoint_without_a_table(monkeypatch):
    # Groups with lower bounds have no table.  The first target is a group's
    # utility at a stored budget (the exact hit), and at a power tolerance of
    # 1e-16 the outer search runs to a few ulp, where consecutive targets fall
    # inside a stored bracket already a few ulp wide (its midpoint).
    from waterline import SolverConfig
    import waterline.fair as fair
    outcomes, calls = [], []
    root, illinois = fair._MonotoneMap.root, fair.illinois_root

    def spied(self, y, low, high):
        before = len(calls)
        x = root(self, y, low, high)
        if len(calls) == before and low < x < high:
            outcomes.append("exact" if x in self.xs else "midpoint")
        return x
    monkeypatch.setattr(fair._MonotoneMap, "root", spied)
    monkeypatch.setattr(fair, "illinois_root", lambda *a: calls.append(1) or illinois(*a))
    groups = [[ClusterLogCapacity(1, 2, 0.1, 1), ClusterLogCapacity(1, 0.5, 0.1, 1)],
              [ClusterLogCapacity(1, 1, 0.2, 0.5)], [ClusterLogCapacity(2, 0.7, 0.1, 1)]]
    for mode, outcome in (("cluster_maxmin", "exact"), ("cluster", "midpoint")):
        outcomes.clear()
        problem = FairProblem(groups, 6.0, lower_bounds=[[0.2, 0.1], [0.3], [0.1]],
                              mode=mode)
        sol = solve_fair(problem, SolverConfig(power_tolerance=1e-16))
        assert check_conditions(problem, sol, tolerance=1e-8).passed
        assert outcome in outcomes, (mode, outcomes)


def test_maxmin_t_cap_of_groups_with_no_budget_above_their_floors():
    # The floors spend the budget: every group's t cap is its utility at its
    # floor, and the solution rests there.
    for cls in (LogCapacity, InverseMse):
        problem = FairProblem([[cls(1, 1, 1), cls(1, 2, 1)], [cls(1, 1, 1)]], 2.0,
                              lower_bounds=[[0.5, 0.5], [1.0]])
        sol = solve_maxmin(problem)
        assert sol.powers == [[0.5, 0.5], [1.0]]
        assert sol.t == pytest.approx(min(sol.group_utilities), rel=1e-15)
        assert check_conditions(problem, sol, tolerance=1e-8).passed
    # A b = 0 channel at a zero floor: its group's utility there is -inf.
    problem = FairProblem([[LogCapacity(1, 1, 1), LogCapacity(1, 2, 0)], [LogCapacity(1, 1, 1)]],
                          2.0, lower_bounds=[[0.5, 0.0], [1.5]])
    sol = solve_maxmin(problem)
    assert sol.powers == [[0.5, 0.0], [1.5]]
    assert sol.t == -math.inf
    assert check_conditions(problem, sol, tolerance=1e-8).passed


def test_outer_search_returns_the_low_end_when_the_budget_is_spent_there():
    """``_outer_search``'s early return at the low end: a given ``lo`` that
    spends the budget exactly, or spends more (the budget is met only beyond
    the bracket), a downward bracket whose first probe lands on the spending
    level, and a falling total (a price) whose ``lo`` spends the budget; each
    is returned after the two end probes."""
    from waterline import SolverConfig
    from waterline.fair import _outer_search

    def evaluate(x):  # the total rises with x and spends 1 at x = 1
        return x, -x
    for lo in (1.0, 1.5):
        assert _outer_search(evaluate, 1.0, SolverConfig(), True, hi=2.0, lo=lo) == \
            (lo, -lo, 2)
    assert _outer_search(evaluate, 1.0, SolverConfig(), True, hi=2.0) == (1.0, -1.0, 2)

    def falling(x):  # a price: the total falls with x and spends 1 at x = 3
        return 4.0 - x, x
    assert _outer_search(falling, 1.0, SolverConfig(), False, hi=3.5, lo=3.0) == (3.0, 3.0, 2)


def test_outer_search_raises_when_no_level_brings_the_total_down_to_the_budget():
    """With no ``lo``, the downward bracket doubles its step 200 times; a
    total above the budget at every level raises ``InfeasibleTarget``."""
    from waterline import InfeasibleTarget, SolverConfig
    from waterline.fair import _outer_search
    probed = []

    def evaluate(x):
        probed.append(x)
        return 2.0, None
    with pytest.raises(InfeasibleTarget, match="could not bracket"):
        _outer_search(evaluate, 1.0, SolverConfig(), True, hi=0.0)
    assert len(probed) == 201 and probed[-1] == -(2.0 ** 200 - 1.0)


def test_nan_power_fails_the_fair_certificate():
    """A NaN power must not pass the fair certificate: ``bounds_violation``
    is inf.  (The cluster max-min solver returned one at a budget of 1e308;
    see the float-range tests below.)"""
    problem = FairProblem([[ClusterLogCapacity(1, 1, 0.5, 1), ClusterLogCapacity(1, 2, 0.5, 1)],
                           [ClusterLogCapacity(1, 1.5, 0.5, 1)]], 4.0, mode="cluster_maxmin")
    solution = solve_cluster_maxmin(problem)
    assert check_conditions(problem, solution, tolerance=1e-8).passed
    solution.powers[1][0] = math.nan
    report = check_conditions(problem, solution, tolerance=1e-8)
    assert not report.passed
    assert report.residuals["bounds_violation"] == math.inf


def _scaled_groups(rng: random.Random):
    """Group sizes 1, 2 and 64 (and two more), each group's utilities scaled
    by 1e-6, 1 or 1e6, both ends in every problem."""
    sizes = [1, 2, 64, rng.randint(1, 8), rng.randint(1, 30)]
    scales = [1e-6, 1e6] + [rng.choice([1e-6, 1.0, 1e6]) for _ in sizes[2:]]
    order = list(range(len(sizes)))
    rng.shuffle(order)
    return [(sizes[i], scales[i]) for i in order]


def _batched_maxmin_problem(rng: random.Random):
    """Max-min groups side by side: ``log_capacity``, ``inverse_mse`` or
    mixed groups (b = 0 channels at zero floors, copied channels, zero-width
    boxes, finite and infinite upper bounds) and groups off the table
    (``af_relay`` or ``sum_log`` entries)."""
    from waterline import AfRelay
    groups = []
    for size, scale in _scaled_groups(rng):
        kind = rng.choice(["log", "inverse", "mixed", "mixed", "off"])
        classes = {"log": [LogCapacity], "inverse": [InverseMse]}.get(
            kind, [LogCapacity, InverseMse])
        objs, gamma, tau = [], [], []
        while len(objs) < size:
            if objs and rng.random() < 0.15:  # a copy of the last channel and its box
                objs.append(objs[-1])
                gamma.append(gamma[-1])
                tau.append(tau[-1])
                continue
            if kind == "off" and rng.random() < 0.5:
                objs.append(rng.choice([
                    AfRelay(scale * rng.uniform(0.5, 2), rng.uniform(0.1, 0.9), 1.0),
                    SumLog([scale], 1.0, 1.0, [rng.uniform(0.5, 2)], [1.0])]))
                b = 1.0
            else:
                b = 0.0 if rng.random() < 0.15 else rng.uniform(0.05, 2)
                objs.append(rng.choice(classes)(scale * rng.uniform(0.2, 5),
                                                rng.uniform(0.2, 5), b))
            g = 0.0 if b == 0 or rng.random() < 0.5 else rng.uniform(0, 0.5)
            gamma.append(g)
            tau.append(rng.choice([g, g + rng.uniform(0.1, 2), math.inf])
                       if g or b else rng.choice([0.5, math.inf]))
        groups.append((objs, np.array(gamma), np.array(tau), scale))
    return groups


def _near(got, want, scale: float) -> bool:
    """Within 1e-12 relative, or 1e-12 of the group's scale near zero."""
    return got == want or abs(got - want) <= 1e-12 * max(abs(want), scale)


def test_batched_maxmin_tables_match_the_per_group_reference():
    # One table over every group of a problem against the per-group tables
    # it replaced (tests/reference_reports.py), at many targets and totals.
    # A running sum taken over the whole problem, less each group's base,
    # would carry a 1e6 group's rounding into a 1e-6 group's sums.
    from waterline import InfeasibleTarget
    from waterline.fair import _group_levels, _group_state
    import reference_reports
    rng, checked = random.Random(61), {"level": 0, "cap": 0, "off": 0}
    for _ in range(12):
        groups = _batched_maxmin_problem(rng)
        offsets = np.cumsum([0] + [len(objs) for objs, *_ in groups])
        batched = _group_levels(Channels([o for objs, *_ in groups for o in objs]),
                                np.concatenate([g[1] for g in groups]),
                                np.concatenate([g[2] for g in groups]), offsets)
        for (objs, gamma, tau, scale), (level, cap) in zip(groups, batched):
            channels = Channels(objs)
            ref_level, ref_cap = reference_reports._group_level(channels, gamma, tau)
            assert (cap is None) == (ref_cap is None)
            if cap is None:
                checked["off"] += 1
                continue
            rates = np.concatenate((channels.rate(gamma), channels.rate(np.minimum(tau, 1e3))))
            rates = rates[np.isfinite(rates) & (rates > 0)]
            lo, hi = (rates.min() / 4, rates.max() * 4) if rates.size else (0.1, 10.0)
            targets = [_group_state(channels, gamma, tau, mu)[1]
                       for mu in np.geomspace(lo, hi, 15).tolist()]
            targets += [0.5 * (x + y) for x, y in zip(targets, targets[1:])]
            for t in targets:
                try:
                    want = ref_level(t)
                except InfeasibleTarget:
                    with pytest.raises(InfeasibleTarget):
                        level(t)
                    continue
                got = level(t)
                assert (got[0] is None) == (want[0] is None)
                if want[0] is not None:
                    assert _near(got[0], want[0], 0.0)
                assert _near(got[3], want[3], 1.0)
                checked["level"] += 1
            top = float(tau.sum()) if np.isfinite(tau).all() else gamma.sum() + 10.0 * len(objs)
            for total in np.linspace(gamma.sum(), top + 1.0, 25).tolist():
                got, want = cap(total), ref_cap(total)
                assert (math.isnan(got) and math.isnan(want)) or _near(got, want, scale)
                checked["cap"] += 1
    assert checked["off"] > 5 and min(checked["level"], checked["cap"]) > 500, checked


def _batched_cluster_groups(rng: random.Random):
    """Cluster groups side by side: one noise pair per group, copied entries,
    and groups off the table (two noise pairs, a ``log_capacity`` entry, or a
    floor)."""
    groups = []
    for size, scale in _scaled_groups(rng):
        e2, n2 = rng.choice([0.0, 0.05, 0.3]), rng.uniform(0.5, 2.0)
        objs = []
        while len(objs) < size:
            objs.append(objs[-1] if objs and rng.random() < 0.15 else ClusterLogCapacity(
                scale * rng.uniform(0.2, 5), rng.uniform(0.05, 5), e2, n2))
        gamma = np.zeros(size)
        off = rng.choice([None] * 4 + ["pair", "entry", "floor"])
        if off == "pair":
            objs[-1] = ClusterLogCapacity(scale, 1.0, e2 + 0.1, n2)
        elif off == "entry":
            objs[-1] = LogCapacity(scale, 1.0, 1.0)
        elif off == "floor":
            gamma[-1] = 0.1
        groups.append((objs, gamma, scale))
    return groups


def test_batched_cluster_tables_match_the_per_group_reference():
    from waterline.fair import _cluster_tables
    import reference_reports
    rng, checked = random.Random(67), {"at": 0, "off": 0}
    for _ in range(12):
        groups = _batched_cluster_groups(rng)
        offsets = np.cumsum([0] + [len(objs) for objs, *_ in groups])
        tables, _ = _cluster_tables(ClusterChannels([o for objs, *_ in groups for o in objs]),
                                    np.concatenate([g[1] for g in groups]), offsets)
        for (objs, gamma, scale), table in zip(groups, tables):
            reference = reference_reports._cluster_table(ClusterChannels(objs), gamma)
            assert (table is None) == (reference is None)
            if table is None:
                checked["off"] += 1
                continue
            for b in np.geomspace(1e-6, 1e3, 30).tolist():
                got, want = table[0](b), reference[0](b)
                assert (got is None) == (want is None)
                if want is None:
                    continue
                marginal, utility = want
                assert _near(got[0], marginal, 0.0) and _near(got[1], utility, scale)
                assert _near(table[1](marginal), reference[1](marginal), 0.0)
                assert _near(table[2](utility), reference[2](utility), 0.0)
                checked["at"] += 1
    assert checked["off"] > 5 and checked["at"] > 500, checked


@pytest.mark.parametrize("groups,upper,budget,expected", [
    ([[LogCapacity(1, 1, 0), LogCapacity(1, 1, 1)], [LogCapacity(1, 2, 1)]],
     [[0.0, None], [None]], 2.0, [[0.0, 2.0], [0.0]]),  # the repro
    ([[LogCapacity(1, 2, 1)], [LogCapacity(1, 1, 0), LogCapacity(1, 1, 1)]],
     [[1.0], [0.0, None]], 5.0, [[1.0], [0.0, 4.0]]),  # the first group saturates
    ([[LogCapacity(1, 1, 0), LogCapacity(1, 1, 1)], [LogCapacity(1, 2, 0), LogCapacity(1, 1, 1)]],
     [[0.0, None], [0.0, None]], 5.0, [[0.0, 5.0], [0.0, 0.0]]),  # no live group
], ids=["repro", "live_saturated", "all_dead"])
def test_maxmin_with_a_b0_channel_boxed_at_zero(groups, upper, budget, expected):
    # A b = 0 channel boxed at [0, 0] has utility -inf at its only power, so
    # t is -inf at every allocation: the budget above the floors goes to the
    # groups with headroom, in group order.  It had raised DomainError (log
    # argument <= 0).
    problem = FairProblem(groups, budget, upper_bounds=upper)
    sol = solve_maxmin(problem)
    assert sol.status == "optimal" and sol.t == -math.inf
    assert -math.inf in sol.group_utilities
    assert sum(sol.group_totals) == pytest.approx(budget, rel=1e-12)
    assert check_conditions(problem, sol, tolerance=1e-8).passed
    for row, ref in zip(sol.powers, expected):
        np.testing.assert_allclose(row, ref, rtol=1e-12, atol=1e-12)


def _finite_or_float_range(problem: FairProblem):
    """The solution when its powers are finite and pass at 1e-8; else the
    solve must raise a WaterlineError naming the float range."""
    from waterline import WaterlineError
    try:
        sol = solve_fair(problem)
    except WaterlineError as exc:
        assert "float range" in str(exc)
        return None
    assert all(math.isfinite(p) for row in sol.powers for p in row), sol.powers
    assert sol.status == "optimal" and not math.isnan(sol.t)
    assert check_conditions(problem, sol, tolerance=1e-8).passed
    return sol


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the drag's
@pytest.mark.parametrize("mode", ["cluster", "cluster_maxmin"])
def test_cluster_solvers_at_a_budget_near_the_float_range_end(mode):
    # Bound at 1e308, a group's level is subnormal and water_fill's level
    # overflowed to NaN (its quadratic's 4*Q*total); both modes had returned
    # NaN powers with status optimal.  The table's level stays finite.
    problem = FairProblem([[ClusterLogCapacity(1, 1, 0.5, 1), ClusterLogCapacity(1, 2, 0.5, 1)],
                           [ClusterLogCapacity(1, 1.5, 0.5, 1)]], 1e308, mode=mode)
    sol = _finite_or_float_range(problem)
    assert sol is not None and sum(sol.group_totals) == pytest.approx(1e308, rel=1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # on the way
@pytest.mark.parametrize("mode", ["cluster", "cluster_maxmin"])
def test_cluster_solvers_where_b_over_a_leaves_the_float_range(mode):
    # Bound at 5e299, a = 1e-10 gives b/a = s/a = 2.5e309: no level is
    # representable.  Both modes had returned optimal (NaN powers, or a NaN
    # t that did not spend the budget); they raise instead.
    group = [ClusterLogCapacity(1, 1e-10, 0.5, 1)]
    assert _finite_or_float_range(FairProblem([group, group], 1e300, mode=mode)) is None


@pytest.mark.parametrize("mode", ["maxmin", "cluster"])
def test_skewed_group_sizes_keep_the_tables_in_proportion_to_the_points(mode):
    # One group of 2,000 entries (boxed in max-min: 4,000 points) beside 300
    # one-entry groups.  Running sums in a layout padded to groups x the
    # longest group would hold 7 x 301 x 4,000 floats (67 MB) for max-min and
    # 3 x 301 x 2,000 (14 MB) for cluster; per point they take well under 8 MB.
    rng = np.random.default_rng(5)
    params = rng.uniform(0.5, 2.0, (2000, 2)).tolist()
    smalls = rng.uniform(0.5, 2.0, 300).tolist()
    if mode == "maxmin":
        groups = [[LogCapacity(w, a, 1.0) for w, a in params]]
        groups += [[LogCapacity(1.0, a, 1.0)] for a in smalls]
        problem = FairProblem(groups, 300.0, upper_bounds=[
            rng.uniform(0.5, 2.0, 2000).tolist()] + [[None]] * 300)
    else:
        groups = [[ClusterLogCapacity(w, a, 0.1, 1.0) for w, a in params]]
        groups += [[ClusterLogCapacity(1.0, a, 0.1, 1.0)] for a in smalls]
        problem = FairProblem(groups, 300.0, mode=mode)
    problem.bank  # built before the trace: the tables are what is measured
    tracemalloc.start()
    try:
        sol = solve_fair(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak
    assert sol.status == "optimal" and check_conditions(problem, sol, tolerance=1e-8).passed


@pytest.mark.parametrize("mode", ["maxmin", "maxmin_boxed", "cluster", "cluster_maxmin"])
def test_a_fair_op_sorts_once_and_builds_no_group_segment(mode, monkeypatch):
    # On the fair benchmark's 4 x 64 draw every group is a table group: one
    # _bank_points call builds the problem's table, and neither the solve nor
    # check_conditions builds a per-group segment of the bank.
    import waterline.fair as fair
    calls, points = [], fair._bank_points
    monkeypatch.setattr(fair, "_bank_points", lambda *a: calls.append(1) or points(*a))
    problem = _table_problem(mode)
    sol = solve_fair(problem)
    assert check_conditions(problem, sol, tolerance=1e-8).passed
    assert calls == [1]
    assert "group_banks" not in problem.__dict__ and "bank" in problem.__dict__
