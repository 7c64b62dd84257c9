"""Water-level root finding and the simplex solvers (Algorithms for P1/P1.1).

``water_fill`` solves P1.1 on a :class:`~waterline.objectives.Channels` set
and picks its path from the channels' family:

* Homogeneous ``log_capacity`` and ``inverse_mse`` banks take the exact
  sorted search.  A falling water level meets the channels in descending
  order of their rate at the lower bound, so sorting once by that rate and
  taking cumulative sums of the closed-form numerator and denominator gives
  the water level of every candidate active set; the last one whose level
  lies below its own channels' rates is the optimum (the breakpoint search of
  Palomar & Fonollosa, IEEE TSP 2005, here on lower bounds).  O(K log K),
  one pass.
* Every other family (``af_relay``, mixed banks, ``sum_log``,
  ``sum_inverse_mse``, custom) keeps the deactivation loop.  It initializes
  every subchannel as active, solves the common-rate equation on the active
  set, and removes (pins at its lower bound) every channel whose
  unconstrained demand falls at or below that bound.  The loop shrinks the
  active set strictly each round, so it runs at most K-1 times and the water
  level increases strictly across rounds.

``solve_p1_lower`` is the public entry: it takes a validated
:class:`~waterline.problems.SimplexProblem`.  The box strategies' array
functions and the fair solvers call ``water_fill`` directly on channels
they have already checked; :func:`finish` builds the public
:class:`~waterline.problems.Allocation` of every flat solve.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import BracketFailure, DomainError, InfeasibleBudget
from .objectives import Channels, InverseMse, LogCapacity, Objective
from .problems import Allocation, SimplexProblem, SolverConfig

_DEFAULT_CFG = SolverConfig()
# Homogeneous families whose P1.1 water_fill solves by the sorted search.
SORTED_FAMILIES = ("log_capacity", "inverse_mse")


def _closed_form_mu(channels: Channels, budget: float) -> float | None:
    """Closed-form water level for homogeneous closed-form families."""
    if channels.family not in SORTED_FAMILIES:
        return None
    denom = budget + (channels.b / channels.a).sum()
    if denom <= 0:
        raise BracketFailure("budget below the reachable demand range")
    if channels.family == "log_capacity":
        return float(channels.w.sum() / denom)
    root = np.sqrt(channels.w / channels.a).sum() / denom
    return float(root * root)


def _water_level_and_powers(channels: Channels, budget: float,
                            cfg: SolverConfig = _DEFAULT_CFG,
                            scale: float | None = None):
    """Solve sum_k g_k(mu) = budget on the given channels.

    Returns ``(mu, powers)`` with signed powers as an array (negative entries
    mean the channel demands less than its domain edge at this water level).
    Each level trial warm-starts the numeric inversions at the last powers.
    """
    if not len(channels):
        raise BracketFailure("water level undefined on an empty active set")
    mu = _closed_form_mu(channels, budget)
    if mu is not None:
        return mu, channels.demand(mu)
    start = None

    def h(mu_val: float) -> float:
        nonlocal start
        start = channels.demand(mu_val, start)
        return float(start.sum()) - budget

    mu = _level_search(h, budget if scale is None else scale, cfg)
    return mu, channels.demand(mu, start)


def _level_search(h, scale: float, cfg: SolverConfig) -> float:
    """Root of the strictly decreasing residual ``h``: bracket it by doubling
    and halving from 1, then :func:`illinois_root`."""
    # Drive the residual well below the configured tolerance so that
    # independently configured strategies agree to much better than it.
    tol = 1e-4 * cfg.power_tolerance * max(abs(scale), 1e-30)
    mu_lo = mu_hi = 1.0
    h_lo = h(mu_lo)
    if h_lo < 0:
        for _ in range(1100):
            mu_lo *= 0.5
            h_lo = h(mu_lo)
            if h_lo >= 0:
                break
        else:
            raise BracketFailure("could not bracket the water level from below")
        mu_hi = 2.0 * mu_lo
        h_hi = h(mu_hi)
    else:
        h_hi = h_lo
        mu_hi = mu_lo
    growth = 0
    while h_hi > 0:
        mu_hi *= 2.0
        h_hi = h(mu_hi)
        growth += 1
        if growth > 64:
            raise BracketFailure("could not bracket the water level from above")
    if mu_lo == mu_hi:
        return mu_lo
    return illinois_root(h, mu_lo, mu_hi, h_lo, h_hi, tol, cfg.mu_tolerance * 1e-4)


def illinois_root(h, lo: float, hi: float, h_lo: float, h_hi: float,
                  tol: float, rtol: float) -> float:
    """Root of a decreasing residual ``h`` by Illinois-damped regula falsi.

    ``[lo, hi]`` brackets the root with ``h_lo = h(lo) >= 0 >= h(hi) = h_hi``.
    Stops at the first iterate with ``|h| <= tol`` or once the bracket is no
    wider than ``rtol * max(|lo|, |hi|)``, and returns the last iterate.  An increasing
    map is passed negated, which leaves every iterate the same.
    """
    side = 0
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        denom = h_hi - h_lo
        if denom == 0:
            mid = 0.5 * (lo + hi)
        else:
            mid = hi - h_hi * (hi - lo) / denom
            if not (lo < mid < hi):
                mid = 0.5 * (lo + hi)
        h_mid = h(mid)
        if abs(h_mid) <= tol:
            break
        if h_mid > 0:
            lo, h_lo = mid, h_mid
            if side == 1:
                h_hi *= 0.5
            side = 1
        else:
            hi, h_hi = mid, h_mid
            if side == -1:
                h_lo *= 0.5
            side = -1
        if hi - lo <= rtol * max(abs(lo), abs(hi)):
            break
    return mid


def solve_water_level(objectives: Sequence[Objective], budget: float,
                      fixed_consumption: float = 0.0,
                      cfg: SolverConfig = _DEFAULT_CFG,
                      scale: float | None = None) -> float:
    """Water level mu with sum_k g_k(mu) = budget - fixed_consumption.

    The level search of the solvers on the objects' own scalar ``demand``,
    so that the enumeration oracles built on it share no code with the array
    banks they certify.  A ``log_capacity`` or ``inverse_mse`` set takes its
    closed-form level."""
    remaining = budget - fixed_consumption
    if remaining <= 0:
        raise BracketFailure("no budget left for the active channels")
    objs = list(objectives)
    if {type(o) for o in objs} in ({LogCapacity}, {InverseMse}):
        return _closed_form_mu(Channels(objs), remaining)
    hints: list = [None] * len(objs)

    def h(mu_val: float) -> float:
        hints[:] = [obj.demand(mu_val, hint) for obj, hint in zip(objs, hints)]
        return float(np.sum(hints)) - remaining

    return _level_search(h, budget if scale is None else scale, cfg)


def solve_p1_lower(problem: SimplexProblem,
                   cfg: SolverConfig = _DEFAULT_CFG) -> Allocation:
    """P1.1 (budget plus per-channel lower bounds) for a validated problem."""
    channels = problem.channels
    gamma = np.array(problem.lower_bounds, dtype=float)
    powers, mu, water_levels, status = water_fill(channels, gamma, problem.budget, cfg)
    return finish(channels, powers, gamma, np.full(len(gamma), np.inf), mu,
                  len(water_levels) or 1, status, water_levels)


def water_fill(channels: Channels, gamma: np.ndarray, budget: float,
               cfg: SolverConfig = _DEFAULT_CFG):
    """P1.1 on ``channels`` with lower bounds ``gamma``; inputs unchecked.

    Returns ``(powers, mu, water_levels, status)``: the powers as an array,
    the final water level (None exactly when ``status`` is ``"feasible"``,
    the lower bounds using up the budget) and the level of every round.
    Homogeneous ``log_capacity`` and ``inverse_mse`` banks take the exact
    sorted search, a single round; every other family the deactivation loop.
    """
    if channels.family not in SORTED_FAMILIES:
        return deactivation_loop(channels, gamma, budget, cfg)
    floor = float(gamma.sum())
    if floor > budget * (1.0 + 1e-12):
        raise InfeasibleBudget("sum of lower bounds exceeds budget")
    k = len(channels)
    spare = budget - floor
    if spare <= cfg.power_tolerance * budget:
        return gamma.copy(), None, [], "feasible"
    # Channel i's demand is u_i/sqrt(mu) - offset_i (inverse_mse) or
    # u_i/mu - offset_i (log_capacity), so its rate at gamma_i is u_i/c_i
    # (squared for inverse_mse) with c_i = gamma_i + offset_i.  The top m
    # channels by rate are active at the level whose root is
    # sum(u)/(spare + sum(c)) over them; that root is a mediant of the
    # previous one and u_m/c_m, so the prefixes whose root lies below their
    # own last rate form an initial run, and the last of them is the optimum.
    offset = channels.b / channels.a
    log = channels.family == "log_capacity"
    u = channels.w if log else np.sqrt(channels.w / channels.a)
    c = gamma + offset
    order = np.argsort(c / u, kind="stable")
    c, u_sorted = c[order], u[order]
    root = np.cumsum(u_sorted) / (spare + np.cumsum(c))
    below = (root * c < u_sorted).nonzero()[0]
    if not below.size:  # spare lost to rounding against the strongest channel
        return deactivation_loop(channels, gamma, budget, cfg)
    active = np.zeros(k, dtype=bool)
    active[order[:below[-1] + 1]] = True
    # The level on the final active set, in the operations of the
    # deactivation loop's last round (_closed_form_mu).
    root = u[active].sum() / ((budget - float(gamma[~active].sum())) + offset[active].sum())
    mu = float(root) if log else float(root * root)
    powers = gamma.copy()
    powers[active] = channels.demand(mu)[active]
    return powers, mu, [mu], "optimal"


def deactivation_loop(channels: Channels, gamma: np.ndarray, budget: float,
                      cfg: SolverConfig = _DEFAULT_CFG):
    """P1.1 by the deactivation loop (any family); inputs unchecked.  Returns
    ``(powers, mu, water_levels, status)`` as :func:`water_fill`."""
    if gamma.sum() > budget * (1.0 + 1e-12):
        raise InfeasibleBudget("sum of lower bounds exceeds budget")
    k = len(channels)
    active = np.ones(k, dtype=bool)
    act_idx, act = np.arange(k), channels
    powers = gamma.copy()
    water_levels: list[float] = []

    while True:
        remaining = budget - float(gamma[~active].sum())
        if not act_idx.size or remaining <= cfg.power_tolerance * budget:
            return gamma.copy(), None, water_levels, "feasible"
        mu, act_powers = _water_level_and_powers(act, remaining, cfg, scale=budget)
        water_levels.append(mu)
        act_gamma = gamma[act_idx]
        keep = act_powers > act_gamma
        powers[act_idx] = np.where(keep, act_powers, act_gamma)
        if keep.all():
            return powers, mu, water_levels, "optimal"
        active[act_idx[~keep]] = False
        keep = keep.nonzero()[0]
        act_idx, act = act_idx[keep], act.take(keep)


def _classify(powers: np.ndarray, gamma: np.ndarray, tau: np.ndarray):
    """Masks ``(fixed, lower, upper, active)`` over the channels.

    A channel is fixed when its box has no room (tau - gamma within the
    1e-12 relative tolerance): it sits at both bounds, so neither rate
    condition applies to it.
    """
    slack = 1e-12 * (1.0 + gamma)
    fixed = tau - gamma <= slack
    lower = ~fixed & (powers <= gamma + slack)
    # tau - 1e-12 * (1 + tau), in a form that keeps an infinite tau infinite.
    upper = ~fixed & ~lower & (powers >= tau * (1.0 - 1e-12) - 1e-12)
    return fixed, lower, upper, ~(fixed | lower | upper)


def finish(channels: Channels, powers: np.ndarray, gamma: np.ndarray, tau: np.ndarray,
           mu: float | None, iterations: int, status: str = "optimal",
           water_levels: list[float] | None = None) -> Allocation:
    """The :class:`~waterline.problems.Allocation` record of a flat solve.

    Its sets are :func:`_classify` of the powers against the bounds ``gamma``
    and ``tau`` (infinite for P1.1), the classification the condition
    checkers use; a fixed channel counts as lower.  ``water_level`` is None
    when no channel is interior.
    """
    fixed, lower, upper, active = _classify(powers, gamma, tau)
    active_set = np.flatnonzero(active).tolist()
    return Allocation(
        powers=powers.tolist(), water_level=mu if active_set else None,
        active_set=active_set, lower_set=np.flatnonzero(fixed | lower).tolist(),
        upper_set=np.flatnonzero(upper).tolist(), iterations=iterations,
        objective_value=float(channels.eval(powers).sum()), status=status,
        water_levels=water_levels or [])


def solve_p1(problem: SimplexProblem,
             cfg: SolverConfig = _DEFAULT_CFG) -> Allocation:
    """Deactivation-loop solver for the zero-lower-bound problem (P1)."""
    if any(g != 0.0 for g in problem.lower_bounds):
        raise DomainError("solve_p1 requires all-zero lower bounds; "
                          "use solve_p1_lower")
    return solve_p1_lower(problem, cfg)

