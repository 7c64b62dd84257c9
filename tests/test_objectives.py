"""Contract tests for the objective families."""

import math
import random

import numpy as np
import pytest

from waterline import (
    BOX_STRATEGIES, FAMILIES, AfRelay, AscendingProblem, BoxProblem, ClusterLogCapacity,
    CustomObjective, DomainError, FairProblem, InverseMse, InversionFailure, LogCapacity,
    NegativeDemand, Objective, SimplexProblem, SolverConfig, SumInverseMse, SumLog,
    check_conditions, fair, objective_from_params, solve_ascending, solve_box, solve_cluster,
    solve_maxmin, solve_p1_lower)

from waterline.objectives import Channels, ClusterChannels, _SumFamily

from conftest import CLOSED_FORM_FAMILIES, FLAT_FAMILIES, layout, make_objective


@pytest.mark.parametrize("family", FLAT_FAMILIES)
def test_rate_is_positive_and_decreasing(family):
    rng = random.Random(1)
    for _ in range(20):
        obj = make_objective(family, rng)
        points = sorted(rng.uniform(0.001, 50) for _ in range(10))
        rates = [obj.rate(p) for p in points]
        assert all(r > 0 for r in rates)
        assert all(a > b for a, b in zip(rates, rates[1:]))


@pytest.mark.parametrize("family", FLAT_FAMILIES)
def test_eval_is_increasing_and_concave(family):
    rng = random.Random(2)
    for _ in range(20):
        obj = make_objective(family, rng)
        points = sorted(rng.uniform(0.001, 50) for _ in range(10))
        values = [obj.eval(p) for p in points]
        assert all(a < b for a, b in zip(values, values[1:]))
        slopes = [(v2 - v1) / (p2 - p1) for (p1, v1), (p2, v2)
                  in zip(zip(points, values), zip(points[1:], values[1:]))]
        assert all(s1 > s2 for s1, s2 in zip(slopes, slopes[1:]))


@pytest.mark.parametrize("family", FLAT_FAMILIES)
def test_inverse_rate_round_trip(family):
    rng = random.Random(3)
    for _ in range(50):
        obj = make_objective(family, rng)
        for _ in range(5):
            p = rng.uniform(0.01, 30)
            back = obj.inverse_rate(obj.rate(p))
            assert not isinstance(back, NegativeDemand)
            assert abs(back - p) <= 1e-8 * (1.0 + p)


@pytest.mark.parametrize("family", FLAT_FAMILIES)
def test_rate_matches_finite_difference(family):
    rng = random.Random(4)
    for _ in range(30):
        obj = make_objective(family, rng)
        p = rng.uniform(0.05, 20)
        h = 1e-6 * (1.0 + p)
        fd = (obj.eval(p + h) - obj.eval(p - h)) / (2 * h)
        assert abs(obj.rate(p) - fd) <= 1e-5 * abs(fd)


@pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES)
def test_rate_slope_matches_finite_difference(family):
    rng = random.Random(7)
    for _ in range(30):
        obj = make_objective(family, rng)
        p = rng.uniform(0.05, 20)
        h = 1e-6 * (1.0 + p)
        fd = (obj.rate(p + h) - obj.rate(p - h)) / (2 * h)
        assert obj.rate_slope(p) < 0
        assert abs(obj.rate_slope(p) - fd) <= 1e-5 * abs(fd)
    # At the edge of the log families' domain the slope is -inf.
    if family != "af_relay":
        assert type(obj)(1.0, 2.0, 0.0).rate_slope(0.0) == -math.inf


def test_log_capacity_known_values():
    obj = LogCapacity(w=2.0, a=3.0, b=1.0)
    assert obj.eval(1.0) == pytest.approx(2.0 * math.log(4.0))
    assert obj.rate(1.0) == pytest.approx(6.0 / 4.0)
    assert obj.demand(obj.rate(2.5)) == pytest.approx(2.5)
    # demand can be negative (signed closed form)
    assert obj.demand(obj.rate(0.0) * 2) < 0


def test_inverse_mse_known_values():
    obj = InverseMse(w=1.0, a=2.0, b=1.0)
    assert obj.eval(1.0) == pytest.approx(-1.0 / 3.0)
    assert obj.rate(1.0) == pytest.approx(2.0 / 9.0)
    assert obj.demand(obj.rate(4.0)) == pytest.approx(4.0)


def test_af_relay_demand_vanishes_at_zero_power_rate():
    obj = AfRelay(w=1.3, a=0.4, b=2.0)
    assert obj.demand(obj.rate(0.0)) == pytest.approx(0.0, abs=1e-12)
    assert obj.demand(2 * obj.rate(0.0)) < 0


def test_numeric_family_negative_demand_marker():
    obj = SumLog([1.0], 1.0, 1.0, [1.0], [1.0])
    mu_edge = obj.rate(0.0)
    res = obj.inverse_rate(2 * mu_edge)
    assert isinstance(res, NegativeDemand)
    assert res.value < 0
    assert obj.inverse_rate(obj.rate(3.0)) == pytest.approx(3.0, rel=1e-9)


def test_parameter_validation():
    with pytest.raises(DomainError):
        LogCapacity(w=-1.0, a=1.0, b=1.0)
    with pytest.raises(DomainError):
        InverseMse(w=1.0, a=0.0, b=1.0)
    with pytest.raises(DomainError):
        AfRelay(w=1.0, a=1.5, b=1.0)
    with pytest.raises(DomainError):
        SumLog([1.0, 1.0], 1.0, 1.0, [1.0], [1.0])
    with pytest.raises(DomainError):
        obj = LogCapacity(1.0, 1.0, 1.0)
        obj.demand(0.0)


def test_serialization_round_trip():
    rng = random.Random(5)
    for family in FLAT_FAMILIES:
        obj = make_objective(family, rng)
        clone = objective_from_params(obj.to_params())
        for p in (0.1, 1.0, 7.5):
            assert clone.eval(p) == obj.eval(p)
            assert clone.rate(p) == obj.rate(p)
    cluster = ClusterLogCapacity(1.0, 2.0, 0.1, 1.0)
    clone = objective_from_params(cluster.to_params())
    assert clone.eval(1.0, 3.0) == cluster.eval(1.0, 3.0)


def test_unknown_family_rejected():
    with pytest.raises(DomainError):
        objective_from_params({"family": "nope", "w": 1.0})


def test_cluster_bind_and_partial():
    obj = ClusterLogCapacity(w=1.0, a=2.0, sigma_e2=0.1, sigma_n2=1.0)
    bound = obj.bind(5.0)
    assert bound.eval(1.0) == pytest.approx(obj.eval(1.0, 5.0))
    # partial w.r.t. the cluster total matches a finite difference
    h = 1e-7
    fd = (obj.eval(1.0, 5.0 + h) - obj.eval(1.0, 5.0 - h)) / (2 * h)
    assert obj.cluster_partial(1.0, 5.0) == pytest.approx(fd, rel=1e-5)
    # no CSI error: utility independent of the cluster total
    clean = ClusterLogCapacity(w=1.0, a=2.0, sigma_e2=0.0, sigma_n2=1.0)
    assert clean.eval(1.0, 1.0) == clean.eval(1.0, 100.0)


def test_custom_objective_numeric_inverse():
    obj = CustomObjective(eval_fn=lambda p: math.log1p(p),
                          rate_fn=lambda p: 1.0 / (1.0 + p),
                          rate_slope_fn=lambda p: -1.0 / (1.0 + p) ** 2)
    assert obj.inverse_rate(obj.rate(4.0)) == pytest.approx(4.0, rel=1e-10)
    res = obj.inverse_rate(2.0)
    assert isinstance(res, NegativeDemand)


def _reciprocal(floor: float = 0.0, calls: list | None = None) -> CustomObjective:
    """Rate ``1/(1 + p) + floor``: Newton from p = 1 doubles p at each step."""
    def rate(p):
        if calls is not None:
            calls.append(p)
        return 1.0 / (1.0 + p) + floor
    return CustomObjective(lambda p: math.log1p(p) + floor * p, rate,
                           lambda p: -1.0 / (1.0 + p) ** 2)


def test_numeric_inverse_grows_its_bracket_past_newton():
    # Newton's 40 doublings stop near 2^41, short of the root near 1e15, so
    # the bisection rescue grows its bracket before it bisects.
    calls, mu = [], 1e-15
    obj = _reciprocal(calls=calls)
    p = obj.demand(mu)
    assert max(calls) > 2.0 ** 45
    assert abs(obj.rate(p) - mu) <= 1e-12 * mu


def test_numeric_inverse_gives_up_past_the_bracket_cap():
    # The rate stays above its floor, so the bracket never holds the root.
    obj = _reciprocal(floor=1e-300)
    with pytest.raises(InversionFailure, match=r"grew past 2\^60"):
        obj.demand(1e-300)


@pytest.mark.parametrize("slope", [
    None,                   # finite differences: 0.0 once the rate is flat to rounding
    lambda p: 0.0,
    lambda p: math.nan,
    lambda p: -math.inf,
], ids=["finite_difference", "zero", "nan", "infinite"])
def test_numeric_inverse_hands_a_degenerate_slope_to_the_bisection(slope):
    # The rate 0.5 + 1/(1 + p) falls to 0.5 only in the limit: Newton at
    # mu = 0.5 meets a slope it cannot divide by, and the bisection rescue
    # returns a power or gives up with InversionFailure, never a bare
    # ZeroDivisionError.
    obj = CustomObjective(lambda p: 0.5 * p + math.log1p(p),
                          lambda p: 0.5 + 1.0 / (1.0 + p), slope)
    try:
        p = obj.demand(0.5)
    except InversionFailure:
        return
    assert math.isfinite(p) and p > 0
    assert obj.rate(p) == pytest.approx(0.5, rel=1e-12)
    # Where the rate is not flat, the same objective still inverts.
    assert obj.rate(obj.demand(0.6)) == pytest.approx(0.6, rel=1e-12)


def test_eval_array_matches_scalar():
    rng = random.Random(6)
    for family in FLAT_FAMILIES:
        obj = make_objective(family, rng)
        points = np.array([0.1, 1.0, 3.0, 10.0])
        np.testing.assert_allclose(obj.eval_array(points),
                                   [obj.eval(float(p)) for p in points],
                                   rtol=1e-12)


def _scalar(objs, method, xs):
    return [getattr(o, method)(x) for o, x in zip(objs, xs)]


def _custom(obj):
    """``obj``'s functions as a custom objective, which joins the object group."""
    return CustomObjective(obj.eval, obj.rate, obj.rate_slope)


@pytest.mark.parametrize("families", [CLOSED_FORM_FAMILIES, ("inverse_mse",),
                                      ("custom", "log_capacity")],
                         ids=["mixed_bank", "single_bank", "objects"])
def test_channels_match_scalar_methods(families):
    rng = random.Random(8)
    objs = [_custom(make_objective("sum_log", rng)) if family == "custom"
            else make_objective(family, rng)
            for family in (families[i % len(families)] for i in range(12))]
    channels = Channels(objs)
    assert (layout(channels)[-1] is Objective) == ("custom" in families)
    powers = np.array([rng.uniform(0.0, 5.0) for _ in objs])
    for mu in (0.05, 0.7, 3.0):
        # Same operations in the same order: equal to the last bit.
        assert channels.demand(mu).tolist() == [o.demand(mu) for o in objs]
    mus = [rng.uniform(0.05, 3.0) for _ in objs]  # a level per channel
    assert channels.demand(np.array(mus)).tolist() == _scalar(objs, "demand", mus)
    assert channels.rate(powers).tolist() == _scalar(objs, "rate", powers.tolist())
    assert channels.eval(powers) == pytest.approx(
        _scalar(objs, "eval", powers.tolist()), rel=1e-14, abs=1e-14)
    index = [5, 0, 7]
    sub = channels.take(index)
    assert sub.objectives == [objs[i] for i in index]
    assert sub.rate(powers[index]).tolist() == \
        _scalar(sub.objectives, "rate", powers[index].tolist())


def _ragged_mix(rng: random.Random, n: int) -> list:
    """The five flat families in turn; the sum families with 1 to 5 terms."""
    objs = []
    for i in range(n):
        family = FLAT_FAMILIES[i % len(FLAT_FAMILIES)]
        if not family.startswith("sum"):
            objs.append(make_objective(family, rng))
            continue
        terms = 1 + (i // len(FLAT_FAMILIES)) % 5
        w, c, d = ([rng.uniform(0.5, 2) for _ in range(terms)] for _ in range(3))
        cls = SumLog if family == "sum_log" else SumInverseMse
        objs.append(cls(w, rng.uniform(0.5, 2), rng.uniform(0.5, 2), c, d))
    return objs


def _assert_demands(channels, objs, mu, start=None):
    hints = [None] * len(objs) if start is None else start.tolist()
    expected = np.array([o.demand(mu, h) for o, h in zip(objs, hints)])
    got = channels.demand(mu, start)
    assert (np.abs(got - expected) <= 1e-12 * (1.0 + np.abs(expected))).all(), \
        np.abs(got - expected).max()
    return expected


def _assert_rate_slope(channels, objs, powers):
    """``Channels.rate_slope`` against the objects' ``rate`` and ``rate_slope``."""
    rate, minus_slope = channels.rate_slope(powers)
    np.testing.assert_allclose(rate, _scalar(objs, "rate", powers.tolist()), rtol=1e-14)
    np.testing.assert_allclose(minus_slope, [-x for x in _scalar(
        objs, "rate_slope", powers.tolist())], rtol=1e-14)


def _assert_ragged_matches(channels, objs, powers):
    """Rates, rate slopes and utilities against the objects' scalar methods."""
    for method in ("rate", "eval"):
        np.testing.assert_allclose(getattr(channels, method)(powers),
                                   _scalar(objs, method, powers.tolist()), rtol=1e-12)
    _assert_rate_slope(channels, objs, powers)
    for cls, idx, args in channels._groups:
        if not cls.closed_form_inverse:
            at = np.arange(len(objs)) if idx is None else idx
            np.testing.assert_allclose(
                args[0].sums(powers[at])[1],
                [-objs[i].rate_slope(p) for i, p in zip(at.tolist(), powers[at].tolist())],
                rtol=1e-12)


@pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES)
def test_closed_form_bank_rate_slope_matches_the_objects(family):
    rng = random.Random(23)
    objs = [make_objective(family, rng) for _ in range(9)]
    _assert_rate_slope(Channels(objs), objs, np.array([rng.uniform(0, 5) for _ in objs]))


def test_ragged_bank_matches_the_objects():
    rng = random.Random(21)
    objs = _ragged_mix(rng, 50)
    channels = Channels(objs)
    assert layout(channels) == [LogCapacity, InverseMse, AfRelay, _SumFamily]
    assert channels.family is None
    powers = np.array([rng.uniform(0.0, 5.0) for _ in objs])
    _assert_ragged_matches(channels, objs, powers)
    numeric = [i for i, o in enumerate(objs) if o.family.startswith("sum")]
    rate0 = [objs[i].rate(0.0) for i in numeric]
    # The middle level leaves some numeric channels on the extrapolated
    # branch; the top one puts them all there.
    for mu in (0.05, 0.4, float(np.median(rate0)), 1.5 * max(rate0)):
        cold = _assert_demands(channels, objs, mu)
        _assert_demands(channels, objs, mu, start=cold * 1.1)
        _assert_demands(channels, objs, 0.9 * mu, start=cold)
    assert (cold[numeric] < 0).all()
    # From 1e30 the halving steps outlast the array Newton's 40, so most
    # numeric channels fall back to their objects' demand.
    _assert_demands(channels, objs, 0.4, start=np.full(len(objs), 1e30))
    index = rng.sample(range(len(objs)), 23)
    sub = channels.take(index)
    picked = [objs[i] for i in index]
    assert sub.objectives == picked
    _assert_ragged_matches(sub, picked, powers[index])
    start = _assert_demands(sub, picked, 0.3)
    _assert_demands(sub, picked, 0.35, start=start)
    # A bank without its objects rebuilds them, sums included.
    rebuilt = channels.with_a(channels.a).take(index)
    assert [o.to_params() for o in rebuilt.objectives] == [o.to_params() for o in picked]
    _assert_ragged_matches(rebuilt, picked, powers[index])


@pytest.mark.parametrize("family", ["sum_log", "sum_inverse_mse"])
def test_single_family_ragged_bank_matches_the_objects(family):
    rng = random.Random(22)
    objs = [make_objective(family, rng) for _ in range(9)]
    channels = Channels(objs)
    assert layout(channels) == [_SumFamily] and channels.family == family
    _assert_ragged_matches(channels, objs, np.array([rng.uniform(0, 5) for _ in objs]))
    start = _assert_demands(channels, objs, 0.5)
    _assert_demands(channels, objs, 0.6, start=start)
    assert len(channels.take([])) == 0


def test_cluster_group_with_sum_entries_binds_like_the_objects():
    rng = random.Random(23)
    group = [ClusterLogCapacity(1.0, 2.0, 0.1, 1.0), make_objective("sum_log", rng),
             ClusterLogCapacity(0.7, 0.4, 0.3, 0.5), make_objective("sum_inverse_mse", rng),
             LogCapacity(1.0, 1.5, 1.0), make_objective("sum_log", rng)]
    clusters = ClusterChannels(group)
    powers = np.array([rng.uniform(0, 3) for _ in group])
    for cluster_power in (0.0, 0.8, 6.0):
        bound = clusters.bind(cluster_power)
        assert layout(bound) == [LogCapacity, _SumFamily]
        refs = [o.bind(cluster_power) if hasattr(o, "bind") else o for o in group]
        _assert_ragged_matches(bound, refs, powers)
        _assert_demands(bound, refs, 0.3)


def _assert_bank_matches(channels, objs, rng):
    """Demand (cold and warm), rate and eval against the objects at 1e-12."""
    powers = np.array([rng.uniform(0, 4) for _ in objs])
    _assert_ragged_matches(channels, objs, powers)
    for mu in (0.2, 0.6, 3.0):
        _assert_demands(channels, objs, 1.1 * mu, start=_assert_demands(channels, objs, mu))


@pytest.mark.parametrize("kinds", [
    ("sum_inverse_mse", "sum_log", "sum_inverse_mse", "sum_log", "sum_log"),
    ("sum_log", "sum_log", "sum_inverse_mse", "sum_inverse_mse"),
    ("sum_inverse_mse",), ("sum_log",)],
    ids=["inverse_first", "log_first", "one_inverse", "one_log"])
def test_sum_only_bank_keeps_its_channel_order(kinds, monkeypatch):
    """Both sum families share one ragged group, log terms first; on a bank
    of sum channels alone that group is the only one, and its index puts
    each result back on its own channel."""
    rng = random.Random(24)
    objs = [make_objective(kind, rng) for kind in kinds]
    channels = Channels(objs)
    assert len(channels._groups) == 1
    _assert_bank_matches(channels, objs, rng)
    order = list(range(len(objs)))[::-1]
    _assert_bank_matches(channels.take(order), [objs[i] for i in order], rng)
    _assert_bank_matches(channels.with_a(channels.a * 1.5), [
        type(o)(o.w, 1.5 * o.a, o.b, o.c, o.d) for o in objs], rng)
    cluster = ClusterChannels(objs).bind(2.0)
    assert layout(cluster) == [_SumFamily]
    _assert_bank_matches(cluster, objs, rng)
    # The pooled cluster path runs water_fill once on every group's channels.
    seen = []

    def recorded(channels, *args, _fill=fair.water_fill):
        seen.append(channels)
        return _fill(channels, *args)
    monkeypatch.setattr(fair, "water_fill", recorded)
    problem = FairProblem([[o] for o in objs], 2.0 * len(objs), mode="cluster")
    solution = solve_cluster(problem)
    assert check_conditions(problem, solution, tolerance=1e-8).passed
    assert layout(seen[0]) == [_SumFamily] and len(seen[0]) == len(objs)
    _assert_bank_matches(seen[0], objs, rng)


def _beside_custom(rng: random.Random, k: int) -> list:
    """The five flat families in turn, with custom objectives (one wrapping a
    ``sum_log``, one a ``log_capacity``) at two places among them."""
    objs = [make_objective(FLAT_FAMILIES[i % len(FLAT_FAMILIES)], rng) for i in range(k)]
    objs[1], objs[k // 2] = (_custom(make_objective(family, rng))
                             for family in ("sum_log", "log_capacity"))
    return objs


def _unified_solve(kind: str, objs: list, rng: random.Random):
    """``(problem, solution, budget)`` of one problem kind on ``objs``, the
    bounds drawn from ``rng``."""
    k, budget = len(objs), 2.0 * len(objs)
    lower = [rng.uniform(0.0, 0.3) for _ in range(k)]
    if kind == "p1_lower":
        problem = SimplexProblem(objs, budget, lower)
        return problem, solve_p1_lower(problem), budget
    if kind == "ascending":
        caps = np.cumsum([2.0 + rng.uniform(-0.5, 0.5) for _ in range(k)]).tolist()
        problem = AscendingProblem(objs, caps, lower, [None] * (k - 2) + [1.5, None])
        return problem, solve_ascending(problem), caps[-1]
    if kind == "maxmin":
        problem = FairProblem([objs[:3], objs[3:5], objs[5:]], budget)
        return problem, solve_maxmin(problem), budget
    upper = [None] + [lo + rng.uniform(0.2, 2.0) for lo in lower[1:]]
    problem = BoxProblem(objs, k, lower, upper)
    return problem, solve_box(problem, SolverConfig(box_strategy=kind)), k


@pytest.mark.parametrize("kind", ("p1_lower",) + BOX_STRATEGIES + ("ascending", "maxmin"))
def test_a_custom_objective_beside_bank_families_solves_as_all_objects(kind):
    """Custom objectives join their own group beside the bank families: the
    solve passes its certificate and gives the powers of the same problem
    with every objective custom, on the objects alone."""
    objs = _beside_custom(random.Random(kind), 9)
    problem, solution, budget = _unified_solve(kind, objs, random.Random(1))
    channels = problem.bank.bind(0.0) if kind == "maxmin" else problem.channels
    assert layout(channels) == [LogCapacity, InverseMse, AfRelay, _SumFamily, Objective]
    assert check_conditions(problem, solution, tolerance=1e-8).passed
    wrapped = [_custom(o) for o in objs]
    reference, expected, _ = _unified_solve(kind, wrapped, random.Random(1))
    assert layout(reference.bank.bind(0.0) if kind == "maxmin" else reference.channels) == \
        [Objective]
    got, want = (np.ravel(np.concatenate(s.powers) if kind == "maxmin" else s.powers)
                 for s in (solution, expected))
    assert np.abs(got - want).max() <= 1e-12 * budget


def test_a_rebound_set_rebuilds_its_bank_objectives_and_keeps_the_custom_ones():
    """``bind`` rebanks the template with new ``a``: ``objectives`` then
    builds the bank entries from the arrays, at the bound ``a``, and hands
    back each custom entry's own object, also on a view taken from it."""
    rng = random.Random(25)
    custom = [_custom(make_objective("sum_log", rng)), _custom(make_objective("af_relay", rng))]
    group = [ClusterLogCapacity(1.0, 2.0, 0.1, 1.0), custom[0], LogCapacity(1.0, 1.5, 1.0),
             ClusterLogCapacity(0.7, 0.4, 0.3, 0.5), custom[1], make_objective("sum_log", rng)]
    clusters = ClusterChannels(group)
    for power in (0.0, 0.8, 6.0, np.linspace(0.5, 3.0, len(group))):
        bound = clusters.bind(power)
        assert layout(bound) == [LogCapacity, _SumFamily, Objective]
        at = np.broadcast_to(power, len(group)).tolist()
        refs = [o.bind(p) if hasattr(o, "bind") else o for o, p in zip(group, at)]
        objs = bound.objectives
        assert objs[1] is custom[0] and objs[4] is custom[1]
        for i in (0, 2, 3, 5):
            assert type(objs[i]) is type(refs[i])
            assert objs[i].to_params() == refs[i].to_params()
        assert objs[0].a == group[0].a / (group[0].sigma_e2 * at[0] + group[0].sigma_n2)
        index = [4, 0, 1, 5]
        view = bound.take(index)
        assert view.objectives == [objs[i] for i in index]
        rebuilt = clusters.bind(power).take(index).objectives  # no objects to take
        assert rebuilt[0] is custom[1] and rebuilt[2] is custom[0]
        assert [o.to_params() for o in (rebuilt[1], rebuilt[3])] == \
            [refs[0].to_params(), refs[5].to_params()]
        powers = np.array([rng.uniform(0.0, 3.0) for _ in index])
        np.testing.assert_allclose(view.rate(powers), [
            refs[i].rate(p) for i, p in zip(index, powers.tolist())], rtol=1e-12)


def test_channels_reject_out_of_domain_power():
    channels = Channels([LogCapacity(1, 1, 0.5), InverseMse(1, 1, 0.5)])
    with pytest.raises(DomainError):
        channels.rate(np.array([-1.0, 0.0]))
    with pytest.raises(DomainError):
        channels.eval(np.array([0.0, -1.0]))
    with pytest.raises(DomainError):
        channels.demand(0.0)


def _bank_of(objs):
    """The bank ``Channels.from_arrays`` builds from the objects' parameters."""
    return Channels.from_arrays([o.family for o in objs], [o.w for o in objs],
                                [o.a for o in objs], [o.b for o in objs])


@pytest.mark.parametrize("families", [("inverse_mse",), ("log_capacity",),
                                      ("af_relay",), CLOSED_FORM_FAMILIES],
                         ids=["inverse_mse", "log_capacity", "af_relay", "mixed"])
def test_bank_from_arrays_matches_channels_of_objects(families):
    rng = random.Random(12)
    objs = [make_objective(families[i % len(families)], rng) for i in range(15)]
    reference = Channels(objs)
    banks = [_bank_of(objs)]
    if len(families) == 1:
        banks.append(Channels.from_arrays(families[0], *(
            [getattr(o, name) for o in objs] for name in "wab")))
    powers = np.array([rng.uniform(0.0, 5.0) for _ in objs])
    for bank in banks:
        assert layout(bank) == layout(reference) and bank.family == reference.family
        for mu in (0.05, 0.7, 3.0):
            assert bank.demand(mu).tolist() == reference.demand(mu).tolist()
        assert bank.rate(powers).tolist() == reference.rate(powers).tolist()
        assert bank.eval(powers).tolist() == reference.eval(powers).tolist()
        index = [9, 2, 4]
        assert bank.take(index).rate(powers[index]).tolist() == \
            reference.take(index).rate(powers[index]).tolist()
        # Built on first read, with the same classes and floats.
        built = bank.objectives
        assert [type(o) for o in built] == [type(o) for o in objs]
        assert [(o.w, o.a, o.b) for o in built] == [(o.w, o.a, o.b) for o in objs]
        assert bank.objectives is built


@pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES)
@pytest.mark.parametrize("name", ["w", "a", "b"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0, 1.5])
def test_bank_checks_match_the_constructor(family, name, value):
    """Each value the scalar constructor refuses raises its DomainError from
    the bank, naming the channel; each value it accepts is accepted."""
    params = {"w": [1.0] * 4, "a": [0.5] * 4, "b": [1.0] * 4}
    params[name][2] = value
    try:
        expected = None
        FAMILIES[family](*(params[key][2] for key in "wab"))
    except DomainError as exc:
        expected = exc
    families = [family, "log_capacity", family, "inverse_mse"]
    for fam in (family, families):
        if expected is None:
            bank = Channels.from_arrays(fam, params["w"], params["a"], params["b"])
            assert getattr(bank.objectives[2], name) == value
            continue
        with pytest.raises(DomainError) as err:
            Channels.from_arrays(fam, params["w"], params["a"], params["b"])
        assert err.value.index == 2
        assert err.value.detail == str(expected)
        assert str(err.value) == f"objectives[2]: {expected}"


def test_bank_names_the_first_bad_channel():
    with pytest.raises(DomainError) as err:
        Channels.from_arrays("inverse_mse", [1.0, 1.0, -1.0, 1.0],
                             [1.0, 0.0, 1.0, 0.0], [1.0] * 4)
    assert err.value.index == 1 and "parameter a" in str(err.value)
    with pytest.raises(DomainError, match="closed-form"):
        Channels.from_arrays("sum_log", [1.0], [1.0], [1.0])
    with pytest.raises(DomainError, match="1-D"):
        Channels.from_arrays("log_capacity", [1.0, 1.0], [1.0], [1.0])
    with pytest.raises(DomainError, match="family count"):
        Channels.from_arrays(["log_capacity"], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
