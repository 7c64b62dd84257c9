"""Contract tests for the objective families."""

import math
import random

import numpy as np
import pytest

from waterline import (
    FAMILIES, AfRelay, ClusterLogCapacity, CustomObjective, DomainError,
    InverseMse, LogCapacity, NegativeDemand, SumInverseMse, SumLog,
    objective_from_params)

from waterline.objectives import Channels, ClusterChannels

from conftest import CLOSED_FORM_FAMILIES, FLAT_FAMILIES, make_objective


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
    """``obj``'s functions as a custom objective, which keeps the object path."""
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
    assert channels.banked == set(families).issubset(CLOSED_FORM_FAMILIES)
    powers = np.array([rng.uniform(0.0, 5.0) for _ in objs])
    for mu in (0.05, 0.7, 3.0):
        # Same operations in the same order: equal to the last bit.
        assert channels.demand(mu).tolist() == [o.demand(mu) for o in objs]
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


def _assert_ragged_matches(channels, objs, powers):
    """Rates, rate slopes and utilities against the objects' scalar methods."""
    for method in ("rate", "eval"):
        np.testing.assert_allclose(getattr(channels, method)(powers),
                                   _scalar(objs, method, powers.tolist()), rtol=1e-12)
    for cls, idx, args in channels._groups:
        if not cls.closed_form_inverse:
            at = np.arange(len(objs)) if idx is None else idx
            np.testing.assert_allclose(
                args[0].sums(powers[at])[1],
                [objs[i].rate_slope(p) for i, p in zip(at.tolist(), powers[at].tolist())],
                rtol=1e-12)


def test_ragged_bank_matches_the_objects():
    rng = random.Random(21)
    objs = _ragged_mix(rng, 50)
    channels = Channels(objs)
    assert channels.banked and channels.family is None and len(channels._groups) == 5
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
    assert channels.banked and channels.family == family
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
        assert bound.banked
        refs = [o.bind(cluster_power) if hasattr(o, "bind") else o for o in group]
        _assert_ragged_matches(bound, refs, powers)
        _assert_demands(bound, refs, 0.3)


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
        assert bank.banked and bank.family == reference.family
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
