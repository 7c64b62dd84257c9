"""Tests for the single-constraint solvers and their conditions."""

import math
import random
import time
import warnings
import zlib

import numpy as np
import pytest

from waterline import (
    BOX_STRATEGIES, AfRelay, BoxProblem, BracketFailure, DomainError, InfeasibleBudget,
    LogCapacity, InverseMse, ScenarioSpec, SimplexProblem, SolverConfig, SumInverseMse, SumLog,
    check_conditions, enumerate_p1, kkt_residual_p1, solve_ascending,
    solve_box, solve_p1, solve_p1_lower, solve_water_level)
from waterline import box, core, scenario
from waterline.core import (
    _bank_terms, _breakpoint_level, _classify, _closed_form_mu, _level_search,
    _water_level_and_powers, deactivation_loop, finish, illinois_root, tangent_fill, water_fill)
from waterline.objectives import Channels, Objective

from conftest import (
    FLAT_FAMILIES, make_objective, random_ascending, random_box, random_simplex, wide_p1)


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


def _loop_allocation(problem: SimplexProblem):
    """``deactivation_loop`` on a P1.1, the loop ``set_b`` runs, as the
    record ``solve_p1_lower`` would build of it."""
    gamma = np.array(problem.lower_bounds, dtype=float)
    powers, mu, levels, status = deactivation_loop(problem.channels, gamma, problem.budget)
    return finish(problem.channels, powers, gamma, np.full(problem.n, np.inf), mu,
                  len(levels) or 1, status, levels)


def _count_passes(monkeypatch) -> dict:
    """Count the ``Channels`` ``demand`` and ``rate_slope`` calls."""
    calls = {"demand": 0, "rate_slope": 0}
    for name in calls:
        def counted(self, *args, _original=getattr(Channels, name), _name=name):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(Channels, name, counted)
    return calls


def _level_on_the_active_set(problem: SimplexProblem, alloc) -> float:
    """The objects' own scalar level search on the final active set."""
    active = [problem.objectives[i] for i in alloc.active_set]
    idle = sum(p for i, p in enumerate(alloc.powers) if i not in set(alloc.active_set))
    return solve_water_level(active, problem.budget, idle, scale=problem.budget)


def _sum_family_p1(rng: random.Random) -> SimplexProblem:
    return SimplexProblem([make_objective(FLAT_FAMILIES[i % 5], rng) for i in range(60)],
                          90.0, [rng.uniform(0, 0.5) for _ in range(60)])


def test_sum_families_solve_and_check_on_the_bank(monkeypatch):
    """The deactivation loop and the checker evaluate sum families as
    arrays; the oracle still reads the objects."""
    rng = random.Random(31)
    problem = _sum_family_p1(rng)
    calls = _count_numeric_object_calls(monkeypatch)
    alloc = _loop_allocation(problem)
    assert check_conditions(problem, alloc, tolerance=1e-8).passed
    assert alloc.status == "optimal" and len(alloc.water_levels) > 1
    assert calls == []
    small = SimplexProblem([make_objective(family, rng) for family in
                            ("sum_log", "sum_inverse_mse", "sum_log", "sum_inverse_mse")], 3.0)
    enumerate_p1(small)
    assert calls


def test_sum_families_take_tangent_steps_on_the_bank(monkeypatch):
    """``solve_p1_lower`` on the same five-family P1.1 with floors: tangent
    steps on the bank, no object call and no ``demand``."""
    problem = _sum_family_p1(random.Random(31))
    calls = _count_numeric_object_calls(monkeypatch)
    passes = _count_passes(monkeypatch)
    alloc = solve_p1_lower(problem)
    monkeypatch.undo()
    assert calls == [] and passes["demand"] == 0
    assert 1 <= passes["rate_slope"] <= 12 and alloc.iterations == passes["rate_slope"]
    assert alloc.status == "optimal" and alloc.water_levels == [alloc.water_level]
    assert check_conditions(problem, alloc, tolerance=1e-8).passed
    mu = _level_on_the_active_set(problem, alloc)
    assert abs(alloc.water_level - mu) <= 1e-12 * mu


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
    level, and the search runs on 1/mu: on a K = 256 five-family P1 the
    loop takes at most 22 bank demand evaluations, down from 31 to 36 for a
    cold doubling bracket and Illinois on mu."""
    problem = _five_family_p1(seed)
    calls = []

    def counted(self, *args, _demand=Channels.demand):
        calls.append(len(self))
        return _demand(self, *args)
    monkeypatch.setattr(Channels, "demand", counted)
    alloc = _loop_allocation(problem)
    monkeypatch.undo()
    assert alloc.status == "optimal" and len(alloc.water_levels) > 1
    assert len(calls) <= 22, len(calls)
    assert all(a < b for a, b in zip(alloc.water_levels, alloc.water_levels[1:]))
    assert check_conditions(problem, alloc, tolerance=1e-8).passed
    mu = _level_on_the_active_set(problem, alloc)
    assert abs(alloc.water_level - mu) <= 1e-12 * mu


@pytest.mark.parametrize("seed", [1601, 1611, 1612])
def test_five_family_p1_tangent_step_cost(seed, monkeypatch):
    """``solve_p1_lower`` on the same K = 256 five-family P1: no ``demand``
    call and at most 12 rate-and-slope passes, one per step, and the level
    of the objects' own search on the final active set."""
    problem = _five_family_p1(seed)
    passes = _count_passes(monkeypatch)
    alloc = solve_p1_lower(problem)
    monkeypatch.undo()
    assert passes["demand"] == 0
    assert passes["rate_slope"] <= 12 and alloc.iterations == passes["rate_slope"]
    assert alloc.status == "optimal" and alloc.water_levels == [alloc.water_level]
    assert check_conditions(problem, alloc, tolerance=1e-8).passed
    mu = _level_on_the_active_set(problem, alloc)
    assert abs(alloc.water_level - mu) <= 1e-12 * mu


def _assert_tangent_matches_the_loop(channels, gamma, budget):
    """``tangent_fill`` against ``deactivation_loop``: the steps do not give
    up, the powers agree within 1e-12 of the budget and the level within
    1e-12 relative, and the floors fill the budget for both or neither."""
    powers, mu, steps = tangent_fill(channels, gamma, budget)
    loop_powers, loop_mu, _, loop_status = deactivation_loop(channels, gamma, budget)
    assert powers is not None and steps >= 1
    assert np.abs(powers - loop_powers).max() <= 1e-12 * budget
    if loop_mu is None:
        assert mu is None and loop_status == "feasible"
    else:
        assert abs(mu - loop_mu) <= 1e-12 * loop_mu


def test_tangent_steps_match_the_deactivation_loop_on_criterion_1():
    """Criterion 1's draw: every flat family, K 2 to 6, floors on every
    other problem (the two closed-form banks run the steps here too)."""
    for family in FLAT_FAMILIES:
        rng = random.Random(zlib.crc32(family.encode()) & 0xFFFF)
        for i in range(500):
            problem = random_simplex(family, rng, rng.randint(2, 6), with_lower=bool(i % 2))
            _assert_tangent_matches_the_loop(
                problem.channels, np.array(problem.lower_bounds), problem.budget)


def test_tangent_steps_match_the_deactivation_loop_on_the_files_shape():
    for seed in range(50):
        problem = _five_family_p1(seed)
        _assert_tangent_matches_the_loop(problem.channels, np.zeros(problem.n), problem.budget)


def test_tangent_steps_fail_no_more_certificates_than_the_loop_across_the_wide_range():
    """On 1,500 draws of :func:`wide_p1` (seed 3), count the ``optimal``
    results that fail ``check_conditions`` at 1e-8: the tangent steps may
    not fail more of them than the deactivation loop.  The loop raises
    :class:`BracketFailure` where its last round misses the budget, which
    is no ``optimal`` result; the tangent steps may raise nowhere."""
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    problems = [p for p in (wide_p1(rng) for _ in range(1500)) if p is not None]
    failed = {"tangent": 0, "loop": 0}
    raised = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the loop's, past the float range
        for problem in problems:
            try:
                loop = _loop_allocation(problem)
            except BracketFailure:
                loop, raised = None, raised + 1
            for name, alloc in (("tangent", solve_p1_lower(problem)), ("loop", loop)):
                if alloc is not None and alloc.status == "optimal" and \
                        not check_conditions(problem, alloc, tolerance=1e-8).passed:
                    failed[name] += 1
    elapsed = time.perf_counter() - start
    assert len(problems) > 1300 and raised < 30
    assert failed["tangent"] <= failed["loop"], failed
    assert elapsed < 30.0, f"the wide draw took {elapsed:.1f}s"


@pytest.mark.parametrize("problem", [
    SimplexProblem([AfRelay(0.021372450937020546, 0.35375011953097313, 0.0013230669795866582),
                    LogCapacity(2.186928050504054, 0.0007104914863655294, 2.125971489338299)],
                   9.000202601614993e-06, [6.429503312683149e-07, 2.0973741030893122e-06]),
    SimplexProblem([LogCapacity(19.27116763491112, 0.08067072273122448, 59.31077594272831),
                    SumInverseMse([0.5139388839963113, 0.3036531873705704], 1, 1,
                                  [15.557184888470482, 22.907126914847357],
                                  [0.1312033639996562, 0.24012799681489425])],
                   1.7326496683845304e-06),
], ids=["af_relay_with_floors", "sum_inverse_mse"])
def test_tangent_steps_where_b_over_a_dwarfs_the_budget(problem):
    # b/a near 3e3 against budgets of 9e-6 and 1.7e-6: a level summed from
    # p + r/|r'| loses the budget's digits to b/a (power_residual 1.5e-8 and
    # 2.8e-8); kept as a correction to the last level, it does not.
    alloc = solve_p1_lower(problem)
    assert alloc.status == "optimal"
    report = check_conditions(problem, alloc, tolerance=1e-8)
    assert report.passed, report.residuals


@pytest.mark.parametrize("cls", [LogCapacity, InverseMse])
def test_tangent_steps_with_an_infinite_rate_at_the_floor(cls):
    # b = 0 at a zero floor: the first channel's rate is infinite at 0.  It
    # starts far above its demand, so its tangent falls below 0, and it
    # halves its power instead of stopping where its join level is NaN.
    problem = SimplexProblem([cls(1e-3, 1, 0), AfRelay(100, 0.5, 1),
                              SumLog([1], 1, 1, [1], [1])], 1e4)
    alloc = solve_p1_lower(problem)
    assert alloc.status == "optimal" and all(p > 0 for p in alloc.powers)
    assert check_conditions(problem, alloc, tolerance=1e-8).passed
    _assert_tangent_matches_the_loop(problem.channels, np.zeros(3), problem.budget)


def test_tangent_steps_hand_over_to_the_loop_at_the_step_cap(monkeypatch):
    problem = _five_family_p1(1601)
    monkeypatch.setattr("waterline.core._TANGENT_STEPS", 2)
    alloc = solve_p1_lower(problem)
    loop = _loop_allocation(problem)
    assert alloc.powers == loop.powers and alloc.water_levels == loop.water_levels
    assert alloc.iterations == 2 + loop.iterations


def test_tangent_steps_hand_over_to_the_loop_where_a_slope_underflows():
    # At the start point 5e199 the log_capacity slope -1/(1 + p)**2 is 0.
    problem = SimplexProblem([LogCapacity(1, 1, 1), AfRelay(1, 0.5, 1)], 1e200)
    alloc = solve_p1_lower(problem)
    loop = _loop_allocation(problem)
    assert alloc.powers == loop.powers and alloc.iterations == 1 + loop.iterations
    assert check_conditions(problem, alloc, tolerance=1e-8).passed


def _reference_loop(channels, gamma, budget, cfg=SolverConfig()):
    """The deactivation loop's rounds before the join levels, kept as the
    reference for the bank rounds: each round takes the active channels,
    solves their level and keeps those whose demand there exceeds the floor."""
    active = np.ones(len(channels), dtype=bool)
    act_idx, act, warm = np.arange(len(channels)), channels, None
    powers, water_levels = gamma.copy(), []
    while True:
        remaining = budget - float(gamma[~active].sum())
        if not act_idx.size or remaining <= cfg.power_tolerance * budget:
            return gamma.copy(), None, water_levels, "feasible"
        mu, act_powers = _water_level_and_powers(act, remaining, cfg, budget, warm)
        water_levels.append(mu)
        act_gamma = gamma[act_idx]
        keep = act_powers > act_gamma
        powers[act_idx] = np.where(keep, act_powers, act_gamma)
        if keep.all():
            return powers, mu, water_levels, "optimal"
        active[act_idx[~keep]] = False
        keep = keep.nonzero()[0]
        act_idx, act, warm = act_idx[keep], act.take(keep), (mu, act_powers[keep])


def _assert_loop_matches_the_reference(channels, gamma, budget):
    powers, mu, levels, status = deactivation_loop(channels, gamma, budget)
    ref_powers, ref_mu, ref_levels, ref_status = _reference_loop(channels, gamma, budget)
    assert powers.tobytes() == ref_powers.tobytes()
    assert (mu, levels, status) == (ref_mu, ref_levels, ref_status)
    return levels


def test_bank_rounds_match_the_reference_on_the_scenario_shape():
    """K = 1,024 scenario boxes: P1.1 on their floors, and ``set_b`` with
    their upper bounds, bit for bit as the reference loop gives them."""
    spec = ScenarioSpec(antennas=4, subcarriers=256, gamma=0.4, tau=1.6, realizations=3, seed=7)
    for problem in scenario.generate(spec):
        channels = problem.channels
        gamma = np.array(problem.lower_bounds, dtype=float)
        tau = np.array(problem.upper_bounds, dtype=float)
        assert len(_assert_loop_matches_the_reference(channels, gamma, problem.budget)) > 1
        set_b = box._STRATEGIES["set_b"](channels, gamma, tau, problem.budget, SolverConfig())
        ref = box._set_a(channels, gamma, tau, problem.budget, SolverConfig(), p1=_reference_loop)
        assert set_b[0].tobytes() == ref[0].tobytes() and set_b[1:] == ref[1:]


def test_bank_rounds_match_the_reference_on_mixed_banks():
    """300 mixed log/inverse banks, K 1 to 64, with b = 0 channels at zero
    floors."""
    rng = np.random.default_rng(33)
    rounds = 0
    for _ in range(300):
        channels, gamma, budget = _bank_instance("mixed", rng, int(rng.integers(1, 65)), True)
        rounds = max(rounds, len(_assert_loop_matches_the_reference(channels, gamma, budget)))
    assert rounds > 3


@pytest.mark.parametrize("first", [0, 1])
def test_bank_rounds_match_the_reference_with_an_infinite_offset(first):
    # a = 1e-310 puts channel 0's b/a past the float range: it never joins.
    objs = [LogCapacity(1, 1e-310, 1), InverseMse(1, 0.5, 1), LogCapacity(2, 1, 0.5)]
    channels = Channels(objs if first == 0 else objs[::-1])
    gamma = np.array([0.0, 0.3, 0.1] if first == 0 else [0.1, 0.3, 0.0])
    levels = _assert_loop_matches_the_reference(channels, gamma, 2.0)
    powers = deactivation_loop(channels, gamma, 2.0)[0]
    assert len(levels) == 2 and powers[2 * first] == 0.0


def test_bank_rounds_call_demand_once(monkeypatch):
    """The rounds on a bank compare join points with the level: one
    ``demand`` call, at the last level."""
    rng = np.random.default_rng(5)
    channels, gamma, budget = _bank_instance("mixed", rng, 64, True)
    gamma *= 3.0  # floors that pin channels over several rounds
    calls = []

    def counted(self, *args, _demand=Channels.demand):
        calls.append(len(self))
        return _demand(self, *args)
    monkeypatch.setattr(Channels, "demand", counted)
    powers, mu, levels, status = deactivation_loop(channels, gamma, budget)
    monkeypatch.undo()
    assert calls == [64]
    assert status == "optimal" and len(levels) > 2 and levels[-1] == mu
    problem = SimplexProblem(channels.objectives, budget, gamma.tolist())
    assert check_conditions(problem, powers.tolist(), tolerance=1e-8).passed


# set_a's per-round paths that take the unpinned channels: the lambdas are
# not water_fill or deactivation_loop, so _set_a runs them on Channels.take.
_GENERIC_P1 = {"set_a": lambda *args: water_fill(*args),
               "set_b": lambda *args: deactivation_loop(*args)}


def _assert_bank_path_matches_the_taken_channels(channels, gamma, tau, budget):
    """``set_a`` and ``set_b`` off the terms and join points built once, bit
    for bit as their P1.1 solves on the taken channels give them, and
    ``set_b`` as the reference loop gives it.  Returns the round counts."""
    rounds = []
    for name, generic in _GENERIC_P1.items():
        result = box._STRATEGIES[name](channels, gamma, tau, budget, SolverConfig())
        refs = [box._set_a(channels, gamma, tau, budget, SolverConfig(), p1=generic)]
        if name == "set_b":
            refs.append(box._set_a(channels, gamma, tau, budget, SolverConfig(),
                                   p1=_reference_loop))
        for ref in refs:
            assert result[0].tobytes() == ref[0].tobytes() and result[1:] == ref[1:]
        rounds.append(result[2])
    return rounds


def test_set_a_bank_path_matches_the_taken_channels_on_the_scenario_shape():
    """K = 1,024 scenario boxes, each over several ``set_a`` rounds."""
    spec = ScenarioSpec(antennas=4, subcarriers=256, gamma=0.4, tau=1.6, realizations=3, seed=11)
    for problem in scenario.generate(spec):
        rounds = _assert_bank_path_matches_the_taken_channels(
            problem.channels, np.array(problem.lower_bounds, dtype=float),
            np.array(problem.upper_bounds, dtype=float), problem.budget)
        assert min(rounds) > 2


def test_set_a_bank_path_matches_the_taken_channels_on_mixed_banks():
    """300 banks, K 1 to 64, of one family or of both in a random mix, with
    b = 0 channels at zero floors and infinite upper bounds; in a third of
    them one family's caps are tight, so that its channels are pinned first
    and the channels left hold one family."""
    rng = np.random.default_rng(41)
    rounds = 0
    for i in range(300):
        k = int(rng.integers(1, 65))
        family = rng.integers(0, 2, k) if i % 2 else np.full(k, i % 4 // 2)
        w, b = rng.uniform(0.5, 2.0, k), rng.uniform(0.05, 2.0, k)
        a = 10.0 ** rng.uniform(-2.0, 2.0, k)
        budget = k * rng.uniform(0.5, 3.0)
        gamma = rng.uniform(0.0, 0.8, k) * budget / k
        zero = rng.random(k) < 0.15
        b[zero], gamma[zero] = 0.0, 0.0
        tau = gamma + rng.uniform(0.0, 3.0, k) * budget / k
        if i % 3 == 0:
            tau[family == 0] = gamma[family == 0] + 1e-3
        tau[rng.random(k) < 0.2] = np.inf
        channels = Channels([(LogCapacity, InverseMse)[f](*p)
                             for f, p in zip(family, zip(w, a, b))])
        rounds = max(rounds, *_assert_bank_path_matches_the_taken_channels(
            channels, gamma, tau, budget))
    assert rounds > 3


@pytest.mark.parametrize("first", [0, 1])
def test_set_a_bank_path_matches_the_taken_channels_with_an_infinite_offset(first):
    # a = 1e-310 puts channel 0's b/a past the float range, so its join
    # point is infinite; the inverse_mse channel is pinned at its tau in the
    # first round, and the second round's channels are log_capacity alone.
    objs = [LogCapacity(1, 1e-310, 1), LogCapacity(1, 1, 1), InverseMse(1, 1, 1)]
    tau = np.array([np.inf, np.inf, 0.1])
    if first:
        objs, tau = objs[::-1], tau[::-1].copy()
    rounds = _assert_bank_path_matches_the_taken_channels(Channels(objs), np.zeros(3), tau, 2.0)
    assert rounds == [2, 2]
    powers = box._STRATEGIES["set_a"](Channels(objs), np.zeros(3), tau, 2.0, SolverConfig())[0]
    assert powers.tolist() == ([0.0, 1.9, 0.1] if first == 0 else [0.1, 1.9, 0.0])


_X = (math.sqrt(17.0) - 1.0) / 2.0  # x + x**2 = 4: the log and inverse channels spend 2


@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize("other,powers", [
    (InverseMse(1, 1, 1), [_X * _X - 1.0, _X - 1.0]),
    (LogCapacity(1, 2, 1), [0.75, 1.25]),
], ids=["inverse_mse", "log_capacity"])
def test_p1_where_a_join_point_is_inf_over_inf(first, other, powers):
    # a = 1e-310 puts channel 0's w/a and b/a past the float range: its join
    # point is +inf, not inf/inf = NaN, so it never joins, and the search
    # stops at the last finite point.  The floors do not spend the budget.
    objs = [InverseMse(1, 1e-310, 1), LogCapacity(1, 1, 1), other]
    problem = SimplexProblem(objs if first == 0 else objs[::-1], 2.0)
    alloc = solve_p1_lower(problem)
    assert alloc.status == "optimal"
    expected = [0.0, *powers]
    assert alloc.powers == pytest.approx(expected if first == 0 else expected[::-1], rel=1e-12)
    assert check_conditions(problem, alloc, tolerance=1e-8).passed


def test_breakpoint_search_with_no_finite_point_raises():
    # Every join point is +inf: no positive level spends the budget.
    channels = Channels([InverseMse(1, 1e-310, 1), LogCapacity(1, 1e-310, 1)])
    with pytest.raises(BracketFailure, match="the water level leaves the float range"):
        water_fill(channels, np.zeros(2), 1.0)


@pytest.mark.parametrize("strategy", ["set_a", "set_b"])
def test_set_a_builds_the_bank_once_per_box_solve(monkeypatch, strategy):
    """On a bank, one ``_bank_terms``, one ``_points`` (sorted for ``set_a``
    only) and no ``Channels.take`` per solve, over several rounds."""
    spec = ScenarioSpec(antennas=4, subcarriers=64, gamma=0.4, tau=1.6, realizations=1, seed=11)
    problem = next(iter(scenario.generate(spec)))
    calls = {"terms": 0, "sorts": 0, "points": 0, "take": 0}

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            calls["sorts"] += name == "points" and kwargs.get("sort", True)
            return original(*args, **kwargs)
        return counted
    monkeypatch.setattr(core, "_bank_terms", counting("terms", core._bank_terms))
    monkeypatch.setattr(core, "_points", counting("points", core._points))
    monkeypatch.setattr(Channels, "take", counting("take", Channels.take))
    gamma = np.array(problem.lower_bounds, dtype=float)
    tau = np.array(problem.upper_bounds, dtype=float)
    result = box._STRATEGIES[strategy](problem.channels, gamma, tau, problem.budget,
                                       SolverConfig())
    monkeypatch.undo()
    assert result[2] > 2 and result[3] == "optimal"
    assert calls == {"terms": 1, "points": 1, "sorts": int(strategy == "set_a"), "take": 0}


@pytest.mark.parametrize("problem", [
    SimplexProblem([AfRelay(1, 0.5, 1), AfRelay(1, 0.5, 2)], 1e170),
    SimplexProblem([LogCapacity(1, 1e-200, 1), AfRelay(1, 0.5, 1)], 2.0),
], ids=["level_below_the_float_range", "b_over_a_past_1e200"])
def test_loop_whose_last_round_misses_the_budget_raises(problem):
    # The tangent steps give up on a slope that underflows, and the loop's
    # level spends about 1e154 of 1e170, or 1e185 of 2: no optimum.  The
    # af_relay demand at a subnormal level overflows to inf with no warning.
    with pytest.raises(BracketFailure, match="no water level spends the budget"):
        solve_p1_lower(problem)


def test_tangent_steps_on_no_channels():
    assert tangent_fill(Channels([]), np.zeros(0), 1.0)[1:] == (None, 1)
    assert water_fill(Channels([]), np.zeros(0), 1.0)[1:] == (None, [], "feasible")


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
