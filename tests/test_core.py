"""Tests for the single-constraint solvers and their conditions."""

import math
import random
import zlib

import numpy as np
import pytest

from waterline import (
    BOX_STRATEGIES, AfRelay, BoxProblem, BracketFailure, DomainError, InfeasibleBudget,
    LogCapacity, InverseMse, SimplexProblem, SolverConfig, SumInverseMse, SumLog,
    check_conditions, enumerate_p1, kkt_residual_p1, solve_ascending,
    solve_box, solve_p1, solve_p1_lower, solve_water_level)
from waterline.core import (
    _bank_terms, _breakpoint_level, _classify, _closed_form_mu, _level_search, deactivation_loop,
    illinois_root, water_fill)
from waterline.objectives import Channels, Objective

from conftest import (
    FLAT_FAMILIES, make_objective, random_ascending, random_box, random_simplex)


def test_two_channel_strong_weak():
    # strong channel takes everything when the budget is small
    problem = SimplexProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 3)], 1.0)
    alloc = solve_p1(problem)
    assert alloc.powers == pytest.approx([1.0, 0.0], abs=1e-12)
    assert alloc.active_set == [0]
    assert alloc.status == "optimal"


def test_symmetric_split():
    problem = SimplexProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)], 2.0)
    alloc = solve_p1(problem)
    assert alloc.powers == pytest.approx([1.0, 1.0], rel=1e-12)
    assert alloc.water_level == pytest.approx(0.5, rel=1e-12)


def test_closed_form_water_levels():
    # homogeneous log family: mu = sum(w) / (P + sum(b/a))
    objs = [LogCapacity(2, 1, 1), LogCapacity(1, 2, 1)]
    mu = solve_water_level(objs, 4.0)
    assert mu == pytest.approx(3.0 / (4.0 + 1.5), rel=1e-12)
    # homogeneous inverse-MSE family: mu = (sum sqrt(w/a) / (P + sum b/a))^2
    objs = [InverseMse(1, 1, 1), InverseMse(4, 1, 1)]
    mu = solve_water_level(objs, 2.0)
    assert mu == pytest.approx((3.0 / 4.0) ** 2, rel=1e-12)


def test_lower_bounds_respected():
    problem = SimplexProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 3)],
                             1.0, [0.0, 0.4])
    alloc = solve_p1_lower(problem)
    assert alloc.powers[1] == pytest.approx(0.4)
    assert alloc.powers[0] == pytest.approx(0.6)
    assert alloc.lower_set == [1]


def test_solve_p1_rejects_nonzero_lower_bounds():
    problem = SimplexProblem([LogCapacity(1, 1, 1)], 1.0, [0.5])
    with pytest.raises(DomainError):
        solve_p1(problem)


def test_infeasible_lower_bounds():
    with pytest.raises(InfeasibleBudget):
        SimplexProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)],
                       1.0, [0.7, 0.7])


def test_budget_fully_consumed_by_bounds():
    problem = SimplexProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)],
                             1.0, [0.5, 0.5])
    alloc = solve_p1_lower(problem)
    assert alloc.powers == pytest.approx([0.5, 0.5])
    assert alloc.status == "feasible"
    assert alloc.water_level is None


@pytest.mark.parametrize("family", FLAT_FAMILIES)
def test_oracle_equivalence_random(family):
    rng = random.Random(zlib.crc32(family.encode()) & 0xFFFF)
    for i in range(40):
        problem = random_simplex(family, rng, rng.randint(2, 6),
                                 with_lower=bool(i % 2))
        alloc = solve_p1_lower(problem)
        oracle = enumerate_p1(problem)
        assert alloc.objective_value == pytest.approx(
            oracle.objective_value, rel=1e-8)


@pytest.mark.parametrize("family", FLAT_FAMILIES)
def test_iteration_bound_and_monotone_water_level(family):
    rng = random.Random(zlib.crc32(family.encode()) & 0xFFF)
    for _ in range(40):
        k = rng.randint(2, 6)
        problem = random_simplex(family, rng, k)
        alloc = solve_p1_lower(problem)
        deactivation_rounds = len(alloc.water_levels) - 1
        assert deactivation_rounds <= k - 1
        for a, b in zip(alloc.water_levels, alloc.water_levels[1:]):
            assert b > a


def test_total_power_and_conditions():
    rng = random.Random(99)
    for family in FLAT_FAMILIES:
        problem = random_simplex(family, rng, 5, with_lower=True)
        alloc = solve_p1_lower(problem)
        assert alloc.total_power == pytest.approx(problem.budget, rel=1e-9)
        report = kkt_residual_p1(problem, alloc)
        assert report.passed, report.residuals


def test_conditions_flag_uniform_allocation():
    problem = SimplexProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 3)], 1.0)
    report = kkt_residual_p1(problem, [0.5, 0.5])
    assert not report.passed
    assert report.residuals["rate_spread"] > 1e-3


def test_conditions_flag_power_mismatch():
    problem = SimplexProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)], 2.0)
    report = kkt_residual_p1(problem, [0.5, 0.5])
    assert report.residuals["power_residual"] == pytest.approx(0.5)
    assert not report.passed


def test_conditions_flag_lower_bound_violation():
    # Channel 0 below its lower bound: the rate conditions alone pass it.
    problem = SimplexProblem([LogCapacity(1, 0.1, 1), LogCapacity(1, 1, 1)],
                             2.0, [1.0, 0.0])
    report = kkt_residual_p1(problem, [0.0, 2.0])
    assert report.residuals["bounds_violation"] == pytest.approx(1.0)
    assert not report.passed
    assert kkt_residual_p1(problem, solve_p1_lower(problem)).passed


def test_solver_config_validation():
    with pytest.raises(DomainError):
        SolverConfig(mu_tolerance=0.0)
    with pytest.raises(DomainError):
        SolverConfig(box_strategy="nope")


def _bank_instance(family, rng, k, infinite_rates=False):
    """K channels of one closed-form family, or of ``"mixed"`` ones that
    alternate ``log_capacity`` and ``inverse_mse``, with positive lower
    bounds; with ``infinite_rates`` some channels have b = 0 and a zero lower
    bound, where the rate at the bound is infinite: every other channel of a
    homogeneous bank, every third of a mixed one (so both families)."""
    classes = {"log_capacity": [LogCapacity], "inverse_mse": [InverseMse],
               "mixed": [LogCapacity, InverseMse]}[family]
    w = rng.uniform(0.5, 2.0, k)
    a = 10.0 ** rng.uniform(-2.0, 2.0, k)
    b = rng.uniform(0.05, 2.0, k)
    budget = k * rng.uniform(0.5, 3.0)
    gamma = rng.uniform(0.01, 0.8, k) * budget / k
    if infinite_rates:
        step = 3 if family == "mixed" else 2
        b[::step] = 0.0
        gamma[::step] = 0.0
    channels = Channels([classes[i % len(classes)](*p) for i, p in enumerate(zip(w, a, b))])
    return channels, gamma, budget


@pytest.mark.parametrize("family,infinite_rates",
                         [("log_capacity", False), ("log_capacity", True),
                          ("inverse_mse", False), ("mixed", False), ("mixed", True)],
                         ids=["log_capacity", "log_capacity_b0", "inverse_mse",
                              "mixed", "mixed_b0"])
def test_sorted_search_matches_deactivation_loop(family, infinite_rates):
    rng = np.random.default_rng(7)
    for k in (1, 2, 3, 5, 16, 64, 257, 1024):
        for _ in range(4):
            channels, gamma, budget = _bank_instance(family, rng, k, infinite_rates)
            powers, mu, levels, status = water_fill(channels, gamma, budget)
            loop_powers, loop_mu, _, loop_status = deactivation_loop(
                channels, gamma, budget)
            assert status == loop_status == "optimal"
            # One pass: a single water level, no deactivation rounds.
            assert levels == [mu]
            assert np.abs(powers - loop_powers).max() <= 1e-6
            assert abs(channels.eval(powers).sum() - channels.eval(loop_powers).sum()) <= 1e-8
            assert mu == pytest.approx(loop_mu, rel=1e-12)
            # Both leave an inactive channel exactly at its lower bound.
            assert np.array_equal(powers > gamma, loop_powers > gamma)


@pytest.mark.parametrize("infinite_rates", [False, True], ids=["mixed", "mixed_b0"])
def test_mixed_closed_form_level_matches_the_object_search(infinite_rates):
    """The quadratic level of a mixed log/inverse bank is the root that the
    objects' Illinois search finds."""
    rng = np.random.default_rng(11)
    cfg = SolverConfig(mu_tolerance=1e-14, power_tolerance=1e-14)
    for k in (2, 3, 8, 64):
        for _ in range(5):
            channels, _, budget = _bank_instance("mixed", rng, k, infinite_rates)
            mu = _closed_form_mu(channels, budget)
            assert type(mu) is float
            assert mu == pytest.approx(solve_water_level(channels.objectives, budget, cfg=cfg),
                                       rel=1e-12, abs=0)


def test_mixed_sorted_search_calls_demand_once(monkeypatch):
    """A mixed log/inverse P1.1 runs no level search: one demand call."""
    rng = np.random.default_rng(5)
    channels, gamma, budget = _bank_instance("mixed", rng, 64, True)
    calls = []

    def counted(self, *args, _demand=Channels.demand):
        calls.append(len(self))
        return _demand(self, *args)
    monkeypatch.setattr(Channels, "demand", counted)
    powers, mu, levels, status = water_fill(channels, gamma, budget)
    monkeypatch.undo()
    assert calls == [64]
    assert status == "optimal" and levels == [mu] and type(mu) is float
    problem = SimplexProblem(channels.objectives, budget, gamma.tolist())
    assert check_conditions(problem, powers.tolist(), tolerance=1e-8).passed


@pytest.mark.parametrize("cls", [LogCapacity, InverseMse])
def test_sorted_search_feasible_when_bounds_use_the_budget(cls):
    objs = [cls(1, 2, 1), cls(1, 1, 3), cls(2, 1, 0.5)]
    gamma = [0.3, 0.5, 0.2]
    alloc = solve_p1_lower(SimplexProblem(objs, 1.0, gamma))
    assert alloc.status == "feasible"
    assert alloc.powers == gamma
    assert alloc.water_level is None
    assert alloc.active_set == []


def test_illinois_root_ends_on_width_for_a_negative_root():
    # With tol = 0 only the bracket width can stop the search; its test must
    # hold on a bracket of negative numbers too.
    calls = []

    def h(x):
        calls.append(x)
        return 0.1 - math.exp(x)

    lo, hi = -10.0, -0.5
    rtol = 4.0 * np.finfo(float).eps
    root = illinois_root(h, lo, hi, h(lo), h(hi), 0.0, rtol)
    assert len(calls) <= 40
    assert root == pytest.approx(math.log(0.1), rel=1e-14)


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_level_search_stops_at_the_float_range(sign):
    # A residual of one sign everywhere: the bracket halves (negative) or
    # doubles (positive) until the next level would leave the float range,
    # and never tries a level of 0, one with an infinite reciprocal or inf.
    levels = []

    def h(mu):
        levels.append(mu)
        return sign
    with pytest.raises(BracketFailure):
        _level_search(h, 1e-12, 1e-14)
    assert all(0.0 < mu < math.inf and 1.0 / mu < math.inf for mu in levels)
    assert len(levels) > 1000


def _assert_record_sets(problem, alloc):
    """The record's sets are the classification of its powers (a fixed
    channel counts as lower), and a single-level record has a water level
    exactly when a channel is interior.  Its water levels are Python floats."""
    gamma = np.array(problem.lower_bounds, dtype=float)
    tau = np.array(getattr(problem, "upper_bounds", [math.inf] * problem.n), dtype=float)
    fixed, lower, upper, active = _classify(np.array(alloc.powers), gamma, tau)
    assert alloc.active_set == np.flatnonzero(active).tolist()
    assert alloc.lower_set == np.flatnonzero(fixed | lower).tolist()
    assert alloc.upper_set == np.flatnonzero(upper).tolist()
    assert all(type(level) is float for level in alloc.water_levels)
    if not alloc.active_set:
        assert alloc.water_level is None
    elif not alloc.splits:  # a staircase of several blocks has no one level
        assert alloc.water_level is not None


def test_every_flat_record_classifies_its_powers():
    rng = random.Random(31)
    for family in FLAT_FAMILIES:
        for i in range(12):
            problem = random_simplex(family, rng, rng.randint(2, 6), with_lower=bool(i % 2))
            _assert_record_sets(problem, solve_p1_lower(problem))
            box = random_box(family, rng, rng.randint(2, 6))
            # A box with no room: the channel sits at both bounds.
            box = BoxProblem(box.channels, box.budget, box.lower_bounds,
                             box.upper_bounds[:-1] + box.lower_bounds[-1:])
            ascending = random_ascending(family, rng, rng.randint(2, 5))
            for strategy in BOX_STRATEGIES:
                cfg = SolverConfig(box_strategy=strategy)
                _assert_record_sets(box, solve_box(box, cfg))
                _assert_record_sets(ascending, solve_ascending(ascending, cfg))


def _count_numeric_object_calls(monkeypatch) -> list:
    """Record each call of the sum families' scalar ``rate`` and of the
    scalar numeric inversion."""
    calls = []
    for cls, name in ((SumLog, "rate"), (SumInverseMse, "rate"),
                      (Objective, "_demand_numeric")):
        def counted(self, *args, _original=getattr(cls, name), _name=name):
            calls.append(_name)
            return _original(self, *args)
        monkeypatch.setattr(cls, name, counted)
    return calls


def test_sum_families_solve_and_check_on_the_bank(monkeypatch):
    """The solver and checker evaluate sum families as arrays; the oracle
    still reads the objects."""
    rng = random.Random(31)
    problem = SimplexProblem([make_objective(FLAT_FAMILIES[i % 5], rng) for i in range(60)],
                             90.0, [rng.uniform(0, 0.5) for _ in range(60)])
    calls = _count_numeric_object_calls(monkeypatch)
    alloc = solve_p1_lower(problem)
    assert check_conditions(problem, alloc, tolerance=1e-8).passed
    assert alloc.status == "optimal" and len(alloc.water_levels) > 1
    assert calls == []
    small = SimplexProblem([make_objective(family, rng) for family in
                            ("sum_log", "sum_inverse_mse", "sum_log", "sum_inverse_mse")], 3.0)
    enumerate_p1(small)
    assert calls


def _five_family_p1(seed: int, k: int = 256) -> SimplexProblem:
    """A K-channel P1 over the five flat families in turn, each sum channel
    with three terms, under a budget of 1 to 2 per channel."""
    rng = np.random.default_rng(seed)
    objs = []
    for i in range(k):
        w, a, b = (float(x) for x in rng.uniform(0.5, 2.0, 3))
        family = FLAT_FAMILIES[i % 5]
        if family == "af_relay":
            objs.append(AfRelay(w, float(rng.uniform(0.1, 0.9)), b))
        elif family.startswith("sum"):
            cls = SumLog if family == "sum_log" else SumInverseMse
            terms = [[float(x) for x in rng.uniform(0.5, 2.0, 3)] for _ in range(3)]
            objs.append(cls(terms[0], a, b, terms[1], terms[2]))
        else:
            objs.append((LogCapacity if family == "log_capacity" else InverseMse)(w, a, b))
    return SimplexProblem(objs, k * float(rng.uniform(1.0, 2.0)))


@pytest.mark.parametrize("seed", [1601, 1611, 1612])
def test_five_family_p1_level_search_cost(seed, monkeypatch):
    """Each deactivation round after the first opens its search at the last
    level, and the search runs on 1/mu: a K = 256 five-family P1 takes at
    most 22 bank demand evaluations, down from 31 to 36 for a cold doubling
    bracket and Illinois on mu."""
    problem = _five_family_p1(seed)
    calls = []

    def counted(self, *args, _demand=Channels.demand):
        calls.append(len(self))
        return _demand(self, *args)
    monkeypatch.setattr(Channels, "demand", counted)
    alloc = solve_p1_lower(problem)
    monkeypatch.undo()
    assert alloc.status == "optimal" and len(alloc.water_levels) > 1
    assert len(calls) <= 22, len(calls)
    assert all(a < b for a, b in zip(alloc.water_levels, alloc.water_levels[1:]))
    assert check_conditions(problem, alloc, tolerance=1e-8).passed
    # The objects' own scalar level search on the final active set.
    active = [problem.objectives[i] for i in alloc.active_set]
    idle = sum(p for i, p in enumerate(alloc.powers) if i not in set(alloc.active_set))
    mu = solve_water_level(active, problem.budget, idle, scale=problem.budget)
    assert abs(alloc.water_level - mu) <= 1e-12 * mu


def test_water_level_without_budget_left_raises():
    with pytest.raises(BracketFailure, match="no budget left"):
        solve_water_level([LogCapacity(1, 1, 1), InverseMse(1, 1, 1)], 2.0,
                          fixed_consumption=2.0)


@pytest.mark.parametrize("solve", [
    lambda channels, gamma, budget: _breakpoint_level(_bank_terms(channels), gamma, budget),
    lambda channels, gamma, budget: _breakpoint_level(_bank_terms(channels, upper=True),
                                                      gamma, budget, tau=gamma + 1.0),
    deactivation_loop,
], ids=["breakpoint_p1_lower", "breakpoint_box", "deactivation_loop"])
def test_floor_over_budget_raises_when_called_directly(solve):
    # The problem classes refuse such floors first; the kernels check again.
    channels = Channels([LogCapacity(1, 1, 1), InverseMse(1, 0.5, 1)])
    gamma = np.array([1.0, 1.5])
    with pytest.raises(InfeasibleBudget, match="exceeds budget"):
        solve(channels, gamma, 2.0)
