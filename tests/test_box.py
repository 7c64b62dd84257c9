"""Tests for the four box-constrained strategies."""

import math
import random
import time
import zlib

import numpy as np
import pytest

from waterline import (
    BOX_STRATEGIES, AfRelay, AscendingProblem, BoxProblem, BracketFailure, CustomObjective,
    DomainError, FairProblem, InfeasibleBudget, InverseMse, LogCapacity, ScenarioSpec,
    SimplexProblem, SolverConfig, SumInverseMse, SumLog, build_instance, check_conditions,
    enumerate_box, grid_search, kkt_residual_box, solve_ascending, solve_box, solve_fair,
    solve_p1_lower)
from waterline import box
from waterline.box import box_fill_rows
from waterline.core import deactivation_loop
from waterline.objectives import Channels

from conftest import CLOSED_FORM_FAMILIES, FLAT_FAMILIES, make_objective, random_box, wide_box

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
def test_channel_whose_offset_leaves_the_float_range_is_pinned(strategy):
    # Channel 0's b/a overflows to inf: it demands -inf at every level, so
    # the closed-form level leaves it out of its sums and every strategy pins
    # it at 0, with no overflow warning, and spends the budget on channel 1.
    problem = BoxProblem([LogCapacity(1, 1e-310, 1.0), LogCapacity(1, 1, 1)], 2.0)
    alloc = solve_box(problem, SolverConfig(box_strategy=strategy))
    assert alloc.status == "optimal"
    assert alloc.powers == [0.0, 2.0]
    assert check_conditions(problem, alloc, tolerance=1e-8).passed


@pytest.mark.parametrize("strategy", BOX_STRATEGIES)
def test_degenerate_box_pins_channel(strategy):
    # In the second input the gamma = tau channel 2 is pinned at its lower
    # bound first; it must not count against the budget twice.  In the third
    # tau exceeds the budget by three ulp, so the slack-budget branch does
    # not apply, yet at tau's own rate the demand rounds below the budget.
    # In the fourth 1/mu - 1 = 1e-3 cancels: across bisect's last bracket, one
    # ulp wide at the default tolerance, the total steps by more than the
    # search's tolerance of 1e-16, and its last level over-spends by 7e-15 (by
    # 6e-8 at mu_tolerance 1e-3); the result is the closest level that
    # under-spends.  In the last two the floors fill the budget to rounding:
    # 0.1 + 0.2 is one ulp above 0.3, and then 5e-13 of it above.
    budget, tau = 1.851135594294659, 1.8511355942946597
    assert tau - budget == 3 * math.ulp(budget)
    over = [0.1 * (1 + 5e-13), 0.2 * (1 + 5e-13)]
    cases = [
        (BoxProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)],
                    3.0, [0.7, 0.0], [0.7, None]), [0.7, 2.3]),
        (BoxProblem([LogCapacity(1, 1, 1), LogCapacity(1, 2, 1), LogCapacity(1, 1, 2)],
                    3.0, [0.0, 0.5, 0.5], [None, 2.0, 0.5]), [1.0, 1.5, 0.5]),
        (BoxProblem([InverseMse(1.670516547120894, 0.10596608169924385,
                                1.3062240571612649)], budget, None, [tau]), [budget]),
        (BoxProblem([LogCapacity(1, 1, 1)], 1e-3, None, [1.0]), [1e-3]),
        (BoxProblem([LogCapacity(1, 1, 1)] * 2, 0.3, [0.1, 0.2], [1.0, 1.0]), [0.1, 0.2]),
        (BoxProblem([LogCapacity(1, 1, 1)] * 2, 0.3, over, [1.0, 1.0]), over),
    ]
    assert sum(over) / 0.3 - 1 == pytest.approx(5e-13, rel=1e-2)
    configs = [SolverConfig(box_strategy=strategy)]
    if strategy == "bisect":
        configs.append(SolverConfig(box_strategy=strategy, mu_tolerance=1e-3))
    for problem, expected in cases:
        for cfg in configs:
            alloc = solve_box(problem, cfg)
            assert alloc.status == "optimal"
            assert alloc.powers == pytest.approx(expected, abs=1e-9)
            assert check_conditions(problem, alloc, tolerance=1e-8).passed
            # Nothing over-spends beyond the level search's tolerance, bar
            # floors that already do.
            spend = max(problem.budget, sum(problem.lower_bounds))
            assert sum(alloc.powers) <= spend + 1e-4 * cfg.power_tolerance * problem.budget


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


def _assert_order_matches_set_a(problem):
    """``order`` passes the box conditions at 1e-8 and agrees with
    ``set_a`` to 1e-12 of the budget."""
    alloc = solve_box(problem, SolverConfig(box_strategy="order"))
    ref = solve_box(problem, SolverConfig(box_strategy="set_a"))
    assert alloc.status == "optimal"
    report = check_conditions(problem, alloc, tolerance=1e-8)
    assert report.passed, report.residuals
    gap = max(abs(p - q) for p, q in zip(alloc.powers, ref.powers))
    assert gap <= 1e-12 * problem.budget, gap
    return alloc


def _mixed(params):
    return [(LogCapacity if i % 2 else InverseMse)(*p) for i, p in enumerate(params)]


_PARAMS = [(1.0, 2.0, 0.5), (0.7, 1.3, 1.1), (1.6, 0.6, 0.3), (0.9, 0.8, 1.7),
           (1.2, 1.5, 0.9), (0.5, 1.1, 0.6)]

# Each case runs through the event search of order on a log/inverse bank.
_EVENT_CASES = {
    # gamma = tau: the join and saturation points coincide.
    "zero_width": BoxProblem(_mixed(_PARAMS), 6.0, [0.2, 0.5, 0.0, 0.4, 0.1, 0.3],
                             [0.2, 2.0, 0.0, 0.4, 3.0, None]),
    "all_open": BoxProblem(_mixed(_PARAMS), 5.0, [0.1, 0.0, 0.3, 0.2, 0.0, 0.1]),
    # Duplicated channels: every breakpoint is tied with another.
    "tied": BoxProblem([LogCapacity(1.0, 1.0, 0.5)] * 3 + [InverseMse(1.0, 2.0, 0.5)] * 3,
                       4.0, [0.1] * 6, [0.9] * 3 + [0.6] * 3),
    # b = 0 with gamma = 0: a demand that starts at the lower bound at mu = inf.
    "b0_gamma0": BoxProblem([LogCapacity(1.0, 2.0, 0.0), InverseMse(0.8, 1.5, 0.0),
                             LogCapacity(1.3, 0.7, 0.6), InverseMse(1.1, 0.9, 0.4)],
                            3.0, [0.0, 0.0, 0.2, 0.1], [1.0, None, 2.0, 0.3]),
    "mixed": BoxProblem(_mixed(_PARAMS), 3.0, [0.0, 0.1, 0.2, 0.0, 0.1, 0.0],
                        [0.5, 1.0, None, 0.8, 0.4, None]),
    # The running sum of w rounds to 0 before the infinite-tau events
    # (1e-20 + 1e-20 + 1 - 1): the first of them must still end the search.
    "cancelled_running_sum": BoxProblem(
        [LogCapacity(1e-20, 1.0, 0.0), LogCapacity(1.0, 1.0, 1.0), LogCapacity(1e-20, 1.0, 0.0)],
        3.0, None, [None, 1.0, None]),
    # The budget is an ulp below sum(tau), and no point's total reaches it
    # after rounding: every channel ends at a bound.
    "ulp_below_sum_tau": BoxProblem(
        [LogCapacity(1.7308641835916074, 0.8145564644119183, 1.8169037471088212),
         InverseMse(1.7118002178520817, 1.7031209227083848, 1.8661253420673234),
         LogCapacity(1.248220175514521, 1.414406093567778, 1.3415461209294817)],
        4.277987722769551, [0.09515133861681585, 0.25076085009195537, 0.46330960376731134],
        [1.9311685435941566, 0.4894690026523777, 1.8573501765230174]),
    # As above with tied saturation points.
    "tied_ulp_below_sum_tau": BoxProblem(
        [LogCapacity(1.9918804549972156, 1.8203197869945464, 1.7763008725866425)] * 2,
        0.9999999999999999, [0.1, 0.2], [0.5, 0.5]),
    "ulp_below_tau": BoxProblem(
        [LogCapacity(0.6848672795683585, 0.863815295797183, 1.40693007457764)],
        1.098113663835375, [0.3654981764892732], [1.0981136638353752]),
}


@pytest.mark.parametrize("name", _EVENT_CASES)
def test_order_event_search_edge_cases(name):
    problem = _EVENT_CASES[name]
    alloc = _assert_order_matches_set_a(problem)
    assert alloc.iterations == 1 and len(alloc.water_levels) <= 1


@pytest.mark.parametrize("family", ["log_capacity", "inverse_mse", "mixed"])
def test_order_event_search_passes_its_certificate_across_wide_ranges(family):
    """The paper's dynamic range: w in 1e-2..1e2, a in 1e-4..1e4, b in
    1e-4..1e2 (log-uniform), budgets K*(1e-3..1e3), K from 2 to 200."""
    rng = np.random.default_rng(zlib.crc32(family.encode()))
    for _ in range(40):
        k = int(rng.integers(2, 201))
        names = [family] * k if family != "mixed" else \
            rng.choice(["log_capacity", "inverse_mse"], k).tolist()
        w, a, b = (10 ** rng.uniform(lo, hi, k) for lo, hi in ((-2, 2), (-4, 4), (-4, 2)))
        budget = k * 10 ** rng.uniform(-3, 3)
        gamma = rng.uniform(0, 0.6, k) * budget / k
        tau = gamma + rng.uniform(0.2, 2.5, k) * budget / k
        tau[rng.random(k) < 0.2] = np.inf
        channels = Channels.from_arrays(names, w, a, b)
        _assert_order_matches_set_a(BoxProblem(
            channels.objectives, float(budget), gamma.tolist(),
            [None if math.isinf(t) else t for t in tau.tolist()]))


@pytest.mark.parametrize("families", [["inverse_mse"], ["log_capacity", "inverse_mse"]],
                         ids=["inverse_mse", "mixed"])
def test_order_on_a_log_inverse_bank_calls_no_water_fill(monkeypatch, families):
    """order on a log/inverse bank takes each row's level from one sort of
    its breakpoints: no water_fill and no probes, only the demands at the
    levels (one call for every row of a one-family bank, one per row of a
    mixed bank)."""
    rng = np.random.default_rng(3)
    k = 40
    channels = Channels.from_arrays(families * (k // len(families)),
                                    *rng.uniform(0.5, 2.0, (3, k)))
    gamma = rng.uniform(0.0, 0.05, (4, k))
    tau = gamma + rng.uniform(0.1, 1.0, (4, k))
    tau[1, ::3] = np.inf
    budget = np.array([5.0, 8.0, 3.0, 12.0])

    def refuse(*args, **kwargs):
        raise AssertionError("water_fill called")
    calls = []

    def counted(self, mu, start=None, _demand=Channels.demand):
        calls.append(np.shape(mu))
        return _demand(self, mu, start)
    monkeypatch.setattr(box, "water_fill", refuse)
    monkeypatch.setattr(Channels, "demand", counted)
    rows = box_fill_rows(channels, gamma, tau, budget)
    assert calls == ([(4, 1)] if len(families) == 1 else [()] * 4)
    for i, (powers, mu, iterations, status, levels) in enumerate(rows):
        assert (iterations, status, levels) == (1, "optimal", [mu])
        problem = BoxProblem(channels.objectives, float(budget[i]), gamma[i].tolist(),
                             [None if math.isinf(t) else t for t in tau[i].tolist()])
        assert check_conditions(problem, powers.tolist(), tolerance=1e-8).passed


def test_row_search_builds_the_bank_terms_once_per_batch(monkeypatch):
    """S rows on one mixed log/inverse bank read one set of bank terms: the
    divisors, b/a and the signed terms are built once, not once per row, and
    each row's powers are those of its own box_fill."""
    rng = np.random.default_rng(29)
    k, s = 48, 5
    channels = Channels.from_arrays(["log_capacity", "inverse_mse"] * (k // 2),
                                    *rng.uniform(0.5, 2.0, (3, k)))
    gamma = rng.uniform(0.0, 0.05, (s, k))
    tau = gamma + rng.uniform(0.1, 1.0, (s, k))
    tau[2, ::4] = np.inf
    budget = np.array([2.0, 4.0, 8.0, 16.0, 6.0])
    calls = []

    def counted(*args, _terms=box._bank_terms, **kwargs):
        calls.append(1)
        return _terms(*args, **kwargs)
    monkeypatch.setattr(box, "_bank_terms", counted)
    rows = box_fill_rows(channels, gamma, tau, budget)
    assert len(calls) == 1
    for i, (powers, *_) in enumerate(rows):
        assert powers.tobytes() == box.box_fill(
            channels, gamma[i], tau[i], float(budget[i]))[0].tobytes()


def test_set_b_on_a_p1_warm_starts_like_solve_p1_lower(monkeypatch):
    """A P1 posed as a box with no upper bounds: ``set_b`` runs one
    deactivation loop, whose rounds warm-start each other, so it makes as
    many ``demand`` calls as ``deactivation_loop`` on the same channels and
    gives the same powers; ``solve_p1_lower``'s tangent steps agree."""
    rng = np.random.default_rng(81)
    k, objs = 256, []
    for i in range(k):  # the benchmark's five-family P1 draw
        w, a, b = (float(x) for x in rng.uniform(0.5, 2.0, 3))
        if i % 5 < 2:
            objs.append((LogCapacity, InverseMse)[i % 5](w, a, b))
        elif i % 5 == 2:
            objs.append(AfRelay(w, float(rng.uniform(0.1, 0.9)), b))
        else:
            terms = [[float(x) for x in rng.uniform(0.5, 2.0, 3)] for _ in range(3)]
            objs.append((SumLog if i % 5 == 3 else SumInverseMse)(
                terms[0], a, b, terms[1], terms[2]))
    problem = SimplexProblem(objs, k * float(rng.uniform(1.0, 2.0)))
    calls = []

    def counted(self, mu, start=None, _demand=Channels.demand):
        calls.append(mu)
        return _demand(self, mu, start)
    monkeypatch.setattr(Channels, "demand", counted)
    ref = deactivation_loop(problem.channels, np.zeros(k), problem.budget)[0]
    ref_calls, calls[:] = len(calls), []
    alloc = solve_box(BoxProblem(objs, problem.budget),
                      SolverConfig(box_strategy="set_b"))
    assert len(calls) == ref_calls
    assert alloc.powers == ref.tolist()
    tangent = solve_p1_lower(problem).powers
    assert max(abs(p - q) for p, q in zip(tangent, alloc.powers)) <= 1e-12 * problem.budget


@pytest.mark.parametrize("first", [0, 1], ids=["inverse_mse_first", "log_capacity_first"])
def test_bisect_with_no_level_that_spends_at_most_the_budget(first):
    # a = 1e-310 puts the inverse_mse channel's b/a past the float range: its
    # demand is NaN at every level and rests at its floor, so every level
    # under-spends, and the search halves the level out of the float range.
    objs = [InverseMse(1, 1e-310, 1), LogCapacity(1, 1, 1)]
    problem = BoxProblem(objs if first == 0 else objs[::-1], 2.0, None, [1.5, 1.5])
    with pytest.raises(BracketFailure, match="could not bracket the water level from below"):
        solve_box(problem, SolverConfig(box_strategy="bisect"))


@pytest.mark.parametrize("first", [0, 1])
def test_bisect_rests_a_channel_past_the_float_range_at_its_floor(first):
    # At the far channel's tau 1.5 and the log channel's 3.0, the log channel
    # takes the budget, as order, set_a and set_b find.
    objs = [InverseMse(1, 1e-310, 1), LogCapacity(1, 1, 1)]
    tau = [1.5, 3.0]
    problem = BoxProblem(objs if first == 0 else objs[::-1], 2.0, None,
                         tau if first == 0 else tau[::-1])
    allocation = solve_box(problem, SolverConfig(box_strategy="bisect"))
    assert allocation.status == "optimal"
    assert allocation.powers == ([0.0, 2.0] if first == 0 else [2.0, 0.0])


@pytest.mark.parametrize("cls", [LogCapacity, InverseMse])
@pytest.mark.parametrize("first", [0, 1])
def test_set_b_where_the_budget_left_falls_to_a_channel_past_the_float_range(cls, first):
    # Once the log channel is pinned at tau, the budget left goes to a channel
    # whose b/a (and, for inverse_mse, w/a) leaves the float range: it demands
    # -inf at every level, so no positive level spends it.
    objs = [cls(1, 1e-310, 1.0), LogCapacity(1, 1, 1)]
    problem = BoxProblem(objs if first == 0 else objs[::-1], 2.0, None, [1.5, 1.5])
    with pytest.raises(BracketFailure, match="the water level leaves the float range"):
        solve_box(problem, SolverConfig(box_strategy="set_b"))


@pytest.mark.parametrize("first", [0, 1])
def test_set_a_where_the_budget_left_falls_to_a_channel_past_the_float_range(first):
    # As for set_b: once the log channel is pinned at tau, the budget left
    # goes to the inverse_mse channel whose w/a and b/a leave the float range.
    # Its join point is +inf, so no point of the P1.1 search is finite.
    objs = [InverseMse(1, 1e-310, 1), LogCapacity(1, 1, 1)]
    problem = BoxProblem(objs if first == 0 else objs[::-1], 2.0, None, [1.5, 1.5])
    with pytest.raises(BracketFailure, match="the water level leaves the float range"):
        solve_box(problem, SolverConfig(box_strategy="set_a"))


def _root_from_half():
    """2*sqrt(p - 0.5): a custom utility whose domain starts at 0.5, with an
    infinite rate there and no rate below it."""
    return CustomObjective(lambda p: 2.0 * math.sqrt(p - 0.5),
                           lambda p: 1.0 / math.sqrt(p - 0.5) if p != 0.5 else math.inf,
                           lambda p: -0.5 * (p - 0.5) ** -1.5, domain_min=0.5)


@pytest.mark.parametrize("strategy", BOX_STRATEGIES)
def test_box_with_a_domain_above_the_lower_bound(strategy):
    # bisect's highest level is the largest rate at the lower bounds, read at
    # the custom channel's domain edge (its rate is undefined at 0) and then
    # 1e-12 inside it, where the rate is finite.
    problem = BoxProblem([_root_from_half(), LogCapacity(1.0, 2.0, 1.0)], 3.0,
                         [0.0, 0.0], [None, 1.0])
    alloc = solve_box(problem, SolverConfig(box_strategy=strategy))
    assert alloc.status == "optimal"
    report = check_conditions(problem, alloc, tolerance=1e-8)
    assert report.passed, report.residuals


def test_bisect_with_an_infinite_rate_at_the_lower_bound():
    # log(a*p) with b = 0 has an infinite rate at p = 0 = gamma: bisect reads
    # the rate 1e-12 inside its domain for its highest level.
    problem = BoxProblem([LogCapacity(1.0, 2.0, 0.0), LogCapacity(1.0, 1.0, 1.0)],
                         2.0, None, [None, 1.5])
    alloc = solve_box(problem, SolverConfig(box_strategy="bisect"))
    assert alloc.status == "optimal"
    assert alloc.powers == pytest.approx([1.5, 0.5], abs=1e-9)
    report = check_conditions(problem, alloc, tolerance=1e-8)
    assert report.passed, report.residuals


_STEP_FAMILIES = ("af_relay", "sum_log", "sum_inverse_mse")


def test_order_off_the_bank_takes_the_tangent_steps_of_p1(monkeypatch):
    """Off a log/inverse bank, ``order`` runs P1.1's tangent steps with the
    upper bounds: no ``water_fill``, no ``demand``, and one rate-and-slope
    pass per step, counted as its iterations."""
    problem = random_box("af_relay", random.Random(5), 12)
    passes = []

    def refuse(*args, **kwargs):
        raise AssertionError("water_fill called")

    def counted(self, powers, _rate_slope=Channels.rate_slope):
        passes.append(len(self))
        return _rate_slope(self, powers)
    monkeypatch.setattr(box, "water_fill", refuse)
    monkeypatch.setattr(Channels, "demand", refuse)
    monkeypatch.setattr(Channels, "rate_slope", counted)
    alloc = solve_box(problem, SolverConfig(box_strategy="order"))
    monkeypatch.undo()
    assert alloc.status == "optimal" and alloc.iterations == len(passes) >= 1
    assert alloc.water_levels == [alloc.water_level]
    assert check_conditions(problem, alloc, tolerance=1e-8).passed


def test_order_tangent_steps_match_set_a():
    """600 boxes of af_relay and sum-family channels, K 2 to 16, with floors
    and finite and infinite upper bounds: ``order``'s tangent steps give
    ``set_a``'s powers to 1e-12 of the budget and its status."""
    rng = random.Random(7)
    for i in range(600):
        problem = random_box(_STEP_FAMILIES[i % 3], rng, rng.randint(2, 16))
        alloc = solve_box(problem, SolverConfig(box_strategy="order"))
        ref = solve_box(problem, SolverConfig(box_strategy="set_a"))
        assert alloc.status == ref.status
        gap = max(abs(p - q) for p, q in zip(alloc.powers, ref.powers))
        assert gap <= 1e-12 * problem.budget, (i, gap)


# The slope of the first channel, 1e-400/(1 + 1e-200*p)**2, underflows to 0.
_UNDERFLOW = BoxProblem([LogCapacity(1, 1e-200, 1), AfRelay(1, 0.5, 1)], 2.0, None, [1.5, None])


def test_order_hands_over_to_bisect_where_a_slope_underflows():
    # A level taken off the underflowing channel spends about 1e185 of the
    # budget of 2; bisect checks what it spends.
    alloc = solve_box(_UNDERFLOW, SolverConfig(box_strategy="order"))
    ref = solve_box(_UNDERFLOW, SolverConfig(box_strategy="bisect"))
    assert alloc.status == "optimal" and alloc.powers == ref.powers
    assert alloc.iterations == 1 + ref.iterations
    report = check_conditions(_UNDERFLOW, alloc, tolerance=1e-8)
    assert report.passed, report.residuals


@pytest.mark.parametrize("strategy", ["set_a", "set_b"])
def test_set_a_and_set_b_raise_where_a_slope_underflows(strategy):
    # Their P1.1 solve of both channels falls to the deactivation loop, whose
    # level spends about 1e185 of the budget of 2.
    with pytest.raises(BracketFailure, match="no water level spends the budget"):
        solve_box(_UNDERFLOW, SolverConfig(box_strategy=strategy))


def test_order_hands_over_to_bisect_at_the_step_cap(monkeypatch):
    problem = random_box("sum_log", random.Random(5), 12)
    assert solve_box(problem, SolverConfig(box_strategy="order")).iterations > 2
    monkeypatch.setattr("waterline.core._TANGENT_STEPS", 2)
    alloc = solve_box(problem, SolverConfig(box_strategy="order"))
    ref = solve_box(problem, SolverConfig(box_strategy="bisect"))
    assert alloc.powers == ref.powers and alloc.status == ref.status
    assert alloc.iterations == 2 + ref.iterations


def test_order_on_a_custom_objective_is_bisect():
    problem = BoxProblem([_root_from_half(), AfRelay(1.0, 0.5, 1.0)], 3.0,
                         [0.0, 0.0], [None, 1.0])
    alloc = solve_box(problem, SolverConfig(box_strategy="order"))
    ref = solve_box(problem, SolverConfig(box_strategy="bisect"))
    assert alloc.powers == ref.powers and alloc.iterations == ref.iterations


def test_order_past_the_float_range_reports_no_optimum():
    # Powers near 1e154 under a 1e170 budget: no level in the float range
    # spends it, so the result is feasible, not optimal.
    problem = BoxProblem([AfRelay(1, 0.5, 1), AfRelay(1, 0.5, 2)], 1e170, None,
                         [1e170, None])
    alloc = solve_box(problem, SolverConfig(box_strategy="order"))
    ref = solve_box(problem, SolverConfig(box_strategy="bisect"))
    assert alloc.status == ref.status == "feasible"
    assert alloc.powers == ref.powers


def test_order_fails_no_more_certificates_than_bisect_across_the_wide_range():
    """On 600 boxes of :func:`conftest.wide_box` (seed 3), count the
    ``optimal`` results that fail ``check_conditions`` at 1e-8: ``order``
    may not fail more of them than ``bisect``."""
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    problems = []
    while len(problems) < 600:
        problem = wide_box(rng)
        if problem is not None:
            problems.append(problem)
    failed = {"order": 0, "bisect": 0}
    for problem in problems:
        for strategy in failed:
            alloc = solve_box(problem, SolverConfig(box_strategy=strategy))
            if alloc.status == "optimal" and \
                    not check_conditions(problem, alloc, tolerance=1e-8).passed:
                failed[strategy] += 1
    elapsed = time.perf_counter() - start
    assert failed["order"] <= failed["bisect"], failed
    assert elapsed < 30.0, f"the wide draw took {elapsed:.1f}s"
