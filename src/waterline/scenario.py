"""MIMO-OFDM instance generator.

Draws multipath channels with an exponentially decaying tap-power profile,
turns them into per-subcarrier eigenchannel gains, and wraps the gains into
box-constrained MSE-minimization problem instances.

Randomness contract: all draws come from ``numpy.random.default_rng``
(PCG64) seeded with ``SeedSequence([seed, realization_index])``, so
realizations are reproducible individually and in any order.  Tap draws are
circularly-symmetric complex Gaussians: real and imaginary parts are
independent ``normal(0, sqrt(variance/2))`` samples, drawn as one
``(2, taps, n, n)`` array per realization in C order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .objectives import Channels
from .problems import BoxProblem


@dataclass
class ScenarioSpec:
    antennas: int = 4
    taps: int = 7
    decay: float = 0.5
    subcarriers: int = 256
    snr_db: float = 10.0
    gamma: float = 0.0          # lower bound as a multiple of the uniform share
    tau: float = math.inf       # upper bound as a multiple of the uniform share
    realizations: int = 1
    seed: int = 0
    noise_power: float = 1.0

    def __post_init__(self):
        if min(self.antennas, self.taps, self.subcarriers) < 1:
            raise ValueError("antennas, taps, and subcarriers must be >= 1")
        if not (0.0 < self.decay <= 1.0):
            raise ValueError("decay must lie in (0, 1]")
        if not all(map(math.isfinite, (self.gamma, self.snr_db, self.noise_power))) \
                or math.isnan(self.tau):
            raise ValueError("gamma, snr_db and noise_power must be finite, "
                             "and tau a number")
        if self.gamma < 0 or self.tau < self.gamma:
            raise ValueError("need 0 <= gamma <= tau")
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        try:
            budget = self.budget
        except OverflowError:
            budget = math.inf
        if not 0.0 < budget < math.inf:
            raise ValueError(f"snr_db {self.snr_db} and noise_power {self.noise_power} "
                             f"give the budget {budget}; it must be positive and finite")

    @property
    def budget(self) -> float:
        """Total power from SNR = P / (antennas * noise_power)."""
        return self.antennas * self.noise_power * 10.0 ** (self.snr_db / 10.0)

    def tap_variances(self) -> np.ndarray:
        """Per-tap variance profile decay**l, normalized to sum to one."""
        prof = self.decay ** np.arange(self.taps)
        return prof / prof.sum()


def channel_gains(spec: ScenarioSpec, realization: int) -> np.ndarray:
    """Eigenchannel gains, shape (subcarriers, antennas).

    Each tap is an (antennas x antennas) complex Gaussian matrix whose entry
    variance is ``tap_variance / antennas``, so the expected sum of the
    per-subcarrier eigenvalues of H^H H is the number of antennas.
    """
    n = spec.antennas
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, realization]))
    variances = spec.tap_variances() / n
    sigma = np.sqrt(variances / 2.0)[:, None, None]
    draws = rng.normal(size=(2, spec.taps, n, n))
    taps = (draws[0] + 1j * draws[1]) * sigma
    freq = np.fft.fft(taps, n=spec.subcarriers, axis=0)  # (J, n, n)
    gram = np.conj(np.transpose(freq, (0, 2, 1))) @ freq
    gains = np.linalg.eigvalsh(gram)
    return np.maximum(gains.real, 0.0)


def instance_channels(spec: ScenarioSpec, gains: np.ndarray) -> Channels:
    """The ``inverse_mse`` bank of one realization's :func:`channel_gains`,
    ``a`` the gains and ``w = b`` the noise power: one bank for every SNR."""
    gains = gains.ravel()
    noise = np.full(gains.size, spec.noise_power, dtype=float)
    return Channels.from_arrays("inverse_mse", noise, gains, noise)


def instance_bounds(spec: ScenarioSpec, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bound arrays of a k-channel instance: ``gamma`` and
    ``tau`` (which may be infinite) times the uniform share."""
    uniform = spec.budget / k
    return (np.full(k, spec.gamma * uniform),
            np.full(k, math.inf if math.isinf(spec.tau) else spec.tau * uniform))


def build_instance(spec: ScenarioSpec, realization: int) -> BoxProblem:
    """One realization as a box-constrained sum-MSE minimization instance on
    :func:`instance_channels`."""
    channels = instance_channels(spec, channel_gains(spec, realization))
    return BoxProblem(channels, spec.budget, *instance_bounds(spec, len(channels)))


def generate(spec: ScenarioSpec) -> list[BoxProblem]:
    """All realizations of the scenario, reproducible under the seed."""
    return [build_instance(spec, r) for r in range(spec.realizations)]
