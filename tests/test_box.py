"""Tests for the four box-constrained strategies."""

import math
import random
import zlib

import pytest

from waterline import (
    BOX_STRATEGIES, AscendingProblem, BoxProblem, DomainError, FairProblem,
    InfeasibleBudget, InverseMse, LogCapacity, ScenarioSpec, SimplexProblem,
    SolverConfig, build_instance, check_conditions, enumerate_box, grid_search,
    kkt_residual_box, solve_ascending, solve_box, solve_fair, solve_p1_lower)

from conftest import CLOSED_FORM_FAMILIES, FLAT_FAMILIES, make_objective, random_box

K3_EXAMPLE = BoxProblem(
    [LogCapacity(1, 1, 1), LogCapacity(1, 1, 0.5), LogCapacity(1, 1, 0.5)],
    6.0, [1.0, 0.0, 0.0], [1.0, 2.5, 2.5])


@pytest.mark.parametrize("strategy", BOX_STRATEGIES)
def test_k3_example(strategy):
    alloc = solve_box(K3_EXAMPLE, SolverConfig(box_strategy=strategy))
    assert alloc.powers == pytest.approx([1.0, 2.5, 2.5], abs=1e-9)


def test_k3_example_matches_enumeration():
    oracle = enumerate_box(K3_EXAMPLE)
    assert oracle.powers == pytest.approx([1.0, 2.5, 2.5], abs=1e-9)
    assert oracle.certified


@pytest.mark.parametrize("strategy", BOX_STRATEGIES)
def test_degenerate_box_pins_channel(strategy):
    # In the second input the gamma = tau channel 2 is pinned at its lower
    # bound first; it must not count against the budget twice.  In the third
    # tau exceeds the budget by three ulp, so the slack-budget branch does
    # not apply, yet at tau's own rate the demand rounds below the budget:
    # every case of order's search under-spends.  In the fourth, bisect's
    # bracket closes to one ulp while the total's step across it still
    # exceeds bisect's spend tolerance.
    budget, tau = 1.851135594294659, 1.8511355942946597
    assert tau - budget == 3 * math.ulp(budget)
    cases = [
        (BoxProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)],
                    3.0, [0.7, 0.0], [0.7, None]), [0.7, 2.3]),
        (BoxProblem([LogCapacity(1, 1, 1), LogCapacity(1, 2, 1), LogCapacity(1, 1, 2)],
                    3.0, [0.0, 0.5, 0.5], [None, 2.0, 0.5]), [1.0, 1.5, 0.5]),
        (BoxProblem([InverseMse(1.670516547120894, 0.10596608169924385,
                                1.3062240571612649)], budget, None, [tau]), [budget]),
        (BoxProblem([LogCapacity(1, 1, 1)], 1e-3, None, [1.0]), [1e-3]),
    ]
    for problem, expected in cases:
        alloc = solve_box(problem, SolverConfig(box_strategy=strategy))
        assert alloc.status == "optimal"
        assert alloc.powers == pytest.approx(expected, abs=1e-9)
        assert check_conditions(problem, alloc, tolerance=1e-8).passed


def test_conditions_flag_a_split_with_every_channel_at_a_bound():
    # No channel is interior, but channel 0 at its lower bound has rate 1
    # there while channel 1 sits at its upper bound with rate 1/3.
    problem = BoxProblem([LogCapacity(1, 1, 1)] * 2, 2.0, [0.0, 0.0], [None, 2.0])
    report = kkt_residual_box(problem, [0.0, 2.0])
    assert report.residuals["lower_rate_violation"] == pytest.approx(2 / 3)
    assert not report.passed
    assert kkt_residual_box(problem, solve_box(problem)).passed


@pytest.mark.parametrize("strategy", BOX_STRATEGIES)
def test_zero_width_box_passes_conditions(strategy):
    # Channel 1 has no room: it is fixed, so neither rate condition applies.
    problem = BoxProblem([LogCapacity(1, 1, 1)] * 2, 6.0,
                         [0.0, 1e-300], [10.0, 1e-300])
    alloc = solve_box(problem, SolverConfig(box_strategy=strategy))
    assert alloc.powers == pytest.approx([6.0, 1e-300], abs=1e-9)
    report = check_conditions(problem, alloc, tolerance=1e-8)
    assert report.passed, report.residuals


@pytest.mark.parametrize("strategy", BOX_STRATEGIES)
def test_slack_budget_returns_all_upper(strategy):
    problem = BoxProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)],
                         10.0, None, [2.0, 3.0])
    alloc = solve_box(problem, SolverConfig(box_strategy=strategy))
    assert alloc.powers == pytest.approx([2.0, 3.0])
    assert alloc.status == "optimal"
    assert alloc.upper_set == [0, 1]
    assert check_conditions(problem, alloc).passed
    # Stopping short of the upper bounds leaves power unspent.
    report = check_conditions(problem, [1.0, 1.5])
    assert report.residuals["power_residual"] == pytest.approx(0.25)


def test_infeasible_lower_bounds():
    with pytest.raises(InfeasibleBudget):
        BoxProblem([LogCapacity(1, 1, 1)], 1.0, [2.0], [3.0])


def test_inverted_bounds_rejected():
    with pytest.raises(DomainError):
        BoxProblem([LogCapacity(1, 1, 1)], 1.0, [2.0], [1.0])


@pytest.mark.parametrize("family", FLAT_FAMILIES)
def test_four_way_agreement_random(family):
    rng = random.Random(zlib.crc32(family.encode()) & 0xFFFF)
    for _ in range(30):
        problem = random_box(family, rng, rng.randint(2, 8))
        allocs = [solve_box(problem, SolverConfig(box_strategy=s))
                  for s in BOX_STRATEGIES]
        ref = allocs[0]
        for alloc in allocs[1:]:
            linf = max(abs(a - b) for a, b in zip(alloc.powers, ref.powers))
            assert linf <= 1e-6
            assert abs(alloc.objective_value - ref.objective_value) <= 1e-8


@pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES)
def test_matches_enumeration_random(family):
    rng = random.Random(zlib.crc32(family.encode()) & 0xFFF)
    for _ in range(25):
        problem = random_box(family, rng, rng.randint(2, 6))
        alloc = solve_box(problem)
        oracle = enumerate_box(problem)
        assert alloc.objective_value == pytest.approx(
            oracle.objective_value, rel=1e-8)


def test_conditions_pass_on_solved_instances(rng):
    for family in FLAT_FAMILIES:
        problem = random_box(family, rng, 5)
        alloc = solve_box(problem)
        report = kkt_residual_box(problem, alloc)
        assert report.passed, (family, report.residuals)


def test_conditions_flag_bound_violation():
    report = kkt_residual_box(K3_EXAMPLE, [0.5, 3.0, 2.5])
    assert report.residuals["bounds_violation"] > 0.4
    assert not report.passed


def test_bounds_always_respected(rng):
    for family in FLAT_FAMILIES:
        for _ in range(10):
            problem = random_box(family, rng, rng.randint(2, 6))
            for strategy in BOX_STRATEGIES:
                alloc = solve_box(problem, SolverConfig(box_strategy=strategy))
                for p, lo, hi in zip(alloc.powers, problem.lower_bounds,
                                     problem.upper_bounds):
                    assert p >= lo - 1e-9
                    assert p <= hi + 1e-9
                total_upper = sum(problem.upper_bounds)
                if math.isinf(total_upper) or total_upper > problem.budget:
                    assert alloc.total_power == pytest.approx(
                        problem.budget, rel=1e-8)


def _order_linear_scan(problem):
    """Reference for ``order``: test the cases one at a time, in order,
    with the objects' scalar demands, then solve the exit case's rest."""
    objs = problem.objectives
    gamma, tau = problem.lower_bounds, problem.upper_bounds
    k = problem.n

    def tau_rate(i):
        return 0.0 if math.isinf(tau[i]) else objs[i].rate(tau[i])

    def clamped_total(mu):
        return sum(min(max(demand(mu), g), t) for demand, g, t in boxes)

    boxes = [(o.demand, g, t) for o, g, t in zip(objs, gamma, tau)]
    order = sorted(range(k), key=lambda i: -tau_rate(i))
    for case in range(k):
        mu = tau_rate(order[case])
        if mu <= 0 or clamped_total(mu) >= problem.budget:
            break
    else:
        raise AssertionError("no case spends the budget")
    fixed, rest = order[:case], order[case:]
    powers = [0.0] * k
    for i in fixed:
        powers[i] = tau[i]
    sub = SimplexProblem([objs[i] for i in rest],
                         problem.budget - sum(tau[i] for i in fixed),
                         [gamma[i] for i in rest])
    for i, p in zip(rest, solve_p1_lower(sub).powers):
        powers[i] = p
    return powers, sum(o.eval(p) for o, p in zip(objs, powers))


@pytest.mark.parametrize("gamma,tau", [(0.4, 1.6), (0.0, 1.05), (0.9, 1.1)])
def test_order_matches_linear_scan_on_scenarios(gamma, tau):
    for snr_db in (-10, 0, 10, 20, 30):
        spec = ScenarioSpec(antennas=4, subcarriers=256, snr_db=snr_db,
                            gamma=gamma, tau=tau, seed=11)
        problem = build_instance(spec, 0)
        alloc = solve_box(problem, SolverConfig(box_strategy="order"))
        powers, value = _order_linear_scan(problem)
        assert max(abs(p - q) for p, q in zip(alloc.powers, powers)) <= 1e-6
        assert abs(alloc.objective_value - value) <= 1e-8


@pytest.mark.parametrize("families", [CLOSED_FORM_FAMILIES, ("sum_log",)],
                         ids=["mixed_closed_form", "sum_log"])
def test_order_matches_set_a(families):
    rng = random.Random(31)
    for _ in range(10):
        problem = random_box(families[0], rng, 12)
        objs = [make_objective(families[i % len(families)], rng)
                for i in range(problem.n)]
        problem = BoxProblem(objs, problem.budget, problem.lower_bounds,
                             problem.upper_bounds)
        order = solve_box(problem, SolverConfig(box_strategy="order"))
        ref = solve_box(problem, SolverConfig(box_strategy="set_a"))
        assert max(abs(p - q) for p, q in zip(order.powers, ref.powers)) <= 1e-6
        assert abs(order.objective_value - ref.objective_value) <= 1e-8


def test_internal_solves_build_no_box_problem(monkeypatch):
    # Ascending blocks, max-min caps and surplus, the grid oracle and the
    # P1.1 checker run the box solve on arrays they already hold.
    ascending = AscendingProblem(
        [LogCapacity(1, 1, 1), LogCapacity(1, 8, 1), LogCapacity(1, 1, 1)],
        [1.5, 2.0, 6.0])
    # Group 0 saturates at its cap, so group 1 takes the surplus.
    fair = FairProblem([[LogCapacity(1, 1, 1)], [LogCapacity(1, 1, 1)]], 6.0,
                       upper_bounds=[[0.5], [None]])
    simplex = SimplexProblem([LogCapacity(1, 1, 1), LogCapacity(1, 2, 1)], 2.0)
    built = []
    post_init = BoxProblem.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(BoxProblem, "__post_init__", counting)
    for strategy in BOX_STRATEGIES:
        alloc = solve_ascending(ascending, SolverConfig(box_strategy=strategy))
        assert alloc.splits == 1
    solution = solve_fair(fair)
    assert solution.group_totals == pytest.approx([0.5, 5.5], abs=1e-9)
    grid_search(fair)
    assert check_conditions(simplex, solve_p1_lower(simplex)).passed
    assert built == []
