"""Tests for the MIMO-OFDM instance generator."""

import math

import numpy as np
import pytest

from waterline import ScenarioSpec, build_instance, channel_gains, solve_box


def test_tap_variance_profile():
    spec = ScenarioSpec(taps=7, decay=0.5)
    profile = spec.tap_variances()
    expected = np.array([1, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625])
    np.testing.assert_allclose(profile, expected / expected.sum(), rtol=1e-12)
    assert profile.sum() == pytest.approx(1.0)


def test_single_tap_flat_channel():
    spec = ScenarioSpec(antennas=2, taps=1, subcarriers=8, seed=3)
    gains = channel_gains(spec, 0)
    # a single tap gives a frequency-flat response: every subcarrier equal
    np.testing.assert_allclose(gains, np.broadcast_to(gains[0], gains.shape),
                               rtol=1e-12)


def test_determinism_under_seed():
    spec = ScenarioSpec(subcarriers=16, realizations=3, seed=42)
    a = [channel_gains(spec, r) for r in range(3)]
    b = [channel_gains(spec, r) for r in range(3)]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    # different realizations differ
    assert not np.array_equal(a[0], a[1])


def test_mean_eigenvalue_sum_matches_antenna_count():
    spec = ScenarioSpec(antennas=4, taps=7, subcarriers=8, seed=0)
    totals = []
    for r in range(1000):
        gains = channel_gains(spec, r)
        totals.append(gains.sum(axis=1).mean())
    mean = float(np.mean(totals))
    assert abs(mean - spec.antennas) / spec.antennas <= 0.05


def test_budget_from_snr():
    spec = ScenarioSpec(antennas=4, snr_db=10.0)
    assert spec.budget == pytest.approx(40.0)
    assert ScenarioSpec(antennas=2, snr_db=0.0).budget == pytest.approx(2.0)


def test_instances_are_feasible_and_solvable():
    spec = ScenarioSpec(antennas=2, taps=3, subcarriers=4, snr_db=10.0,
                        gamma=0.4, tau=1.6, seed=5)
    problem = build_instance(spec, 0)
    assert sum(problem.lower_bounds) <= problem.budget
    alloc = solve_box(problem)
    assert alloc.status in ("optimal", "feasible")
    for p, lo, hi in zip(alloc.powers, problem.lower_bounds,
                         problem.upper_bounds):
        assert lo - 1e-12 <= p <= hi + 1e-12


def test_equal_bounds_force_uniform():
    spec = ScenarioSpec(antennas=2, taps=3, subcarriers=4, snr_db=10.0,
                        gamma=1.0, tau=1.0, seed=5)
    problem = build_instance(spec, 0)
    alloc = solve_box(problem)
    uniform = problem.budget / len(alloc.powers)
    assert alloc.powers == pytest.approx([uniform] * len(alloc.powers))


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(decay=0.0)
    with pytest.raises(ValueError):
        ScenarioSpec(gamma=2.0, tau=1.0)
    with pytest.raises(ValueError):
        ScenarioSpec(antennas=0)
    # snr_db = 4000 overflows the budget, and -4000 rounds it to 0.
    for field, value in [("gamma", math.nan), ("gamma", math.inf), ("tau", math.nan),
                         ("snr_db", math.nan), ("snr_db", math.inf), ("snr_db", 4000.0),
                         ("snr_db", -4000.0), ("noise_power", math.nan),
                         ("noise_power", math.inf)]:
        with pytest.raises(ValueError):
            ScenarioSpec(**{field: value})
    assert math.isinf(ScenarioSpec(tau=math.inf).tau)



def test_channel_gains_ignore_snr_bounds_and_noise():
    """The sweep draws each realization's gains once for every SNR point."""
    base = ScenarioSpec(antennas=3, taps=4, subcarriers=8, seed=11)
    reference = channel_gains(base, 2)
    for field, value in [("snr_db", -7.5), ("snr_db", 30.0), ("gamma", 0.9),
                         ("tau", 1.3), ("noise_power", 0.25), ("realizations", 9)]:
        spec = ScenarioSpec(**dict(vars(base), **{field: value}))
        np.testing.assert_array_equal(channel_gains(spec, 2), reference)


def test_instance_is_an_inverse_mse_bank():
    spec = ScenarioSpec(antennas=2, taps=3, subcarriers=4, snr_db=5.0,
                        gamma=0.4, tau=1.6, seed=5, noise_power=0.5)
    gains = channel_gains(spec, 1)
    problem = build_instance(spec, 1)
    assert problem.channels.family == "inverse_mse"
    assert problem.channels.a.tolist() == gains.ravel().tolist()
    # The objects the scenario built before it built banks, read lazily.
    assert [(o.w, o.a, o.b) for o in problem.objectives] == \
        [(0.5, float(g), 0.5) for g in gains.ravel()]
    uniform = spec.budget / gains.size
    assert problem.lower_bounds == [0.4 * uniform] * gains.size
    assert problem.upper_bounds == [1.6 * uniform] * gains.size
