"""Four interchangeable solvers for the box-constrained allocation problem.

Strategies (selected through ``SolverConfig.box_strategy``):

* ``set_a``  -- repeated lower-bound solves; channels that hit their upper
  bound are clamped there and removed with the budget shrunk accordingly.
* ``set_b``  -- the balanced dual-index variant that pins lower and upper
  violations alternately; guarded against oscillation by an iteration cap
  with a fall back to ``set_a``.
* ``bisect`` -- outer bisection on the water level with clamped demands.
* ``order``  -- the default.  Sorts channels by the rate at their upper
  bound, the order in which a falling water level meets them, and finds the
  first candidate upper-bound set whose water level spends the budget by
  binary search: the clamped total does not increase with the water level,
  so the test is monotone in the case index.  This is the exact sort-based
  breakpoint search of Palomar & Fonollosa (IEEE TSP 2005), O(K log K).
  It runs on rows: S problems that share one bank and differ in their
  bounds and budget (a sweep's SNR points) search together, each probe one
  (S, K) clamped-demand pass with per-row ``lo``/``hi``, and each row ends
  with its own P1.1 on the chosen set.  A single problem is the S = 1 case.

Each strategy is a private array function ``(channels, gamma, tau, budget,
cfg)``: set logic over index masks of a
:class:`~waterline.objectives.Channels` set and its bound arrays, with
demands, rates and utilities as numpy arrays when every channel is one of
the five serializable families (mixed or not), the objects' own methods
otherwise.  :func:`box_fill` solves on unchecked arrays
for every internal caller, and :func:`box_fill_rows` S problems on one bank;
:func:`solve_box`, the public entry, runs the same solve for a validated
problem and builds its record.

All four return identical allocations up to numeric tolerance; the
cross-strategy agreement is part of the acceptance suite.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import _classify, _water_level_and_powers, finish, water_fill
from .core import solve_p1_lower  # noqa: F401  (perfbench's tracer wraps this name)
from .objectives import BANK_FAMILIES, Channels
from .problems import (
    BOX_STRATEGIES, Allocation, BoxProblem, KktReport, SimplexProblem, SolverConfig)

_DEFAULT_CFG = SolverConfig()


def _clamped_demand(channels: Channels, mu: float, gamma: np.ndarray,
                    tau: np.ndarray) -> np.ndarray:
    """Demands at water level ``mu``, clipped into each channel's box."""
    return np.minimum(np.maximum(channels.demand(mu), gamma), tau)


def _set_a(channels: Channels, gamma: np.ndarray, tau: np.ndarray, budget: float,
           cfg: SolverConfig):
    """Algorithm built on the lower-bound solver with upper-bound clamping."""
    remaining = np.arange(len(channels))
    powers = np.zeros(len(channels))
    calls = 0
    while remaining.size:
        sub_powers, mu, _, _ = water_fill(channels.take(remaining), gamma[remaining],
                                          budget, cfg)
        calls += 1
        powers[remaining] = sub_powers
        hit = sub_powers >= tau[remaining]
        if not hit.any():
            break
        pinned = remaining[hit]
        powers[pinned] = tau[pinned]
        budget -= float(tau[pinned].sum())
        remaining = remaining[~hit]
    return powers, mu, calls, "optimal", []


def _set_b(channels: Channels, gamma: np.ndarray, tau: np.ndarray, budget: float,
           cfg: SolverConfig):
    """Balanced dual-index solver; falls back to set_a on oscillation.

    Every channel is free, pinned at gamma or pinned at tau: the masks
    ``at_gamma`` and ``at_tau`` never overlap.  Only free channels can
    violate a bound.
    """
    k = len(channels)
    at_gamma = np.zeros(k, dtype=bool)
    at_tau = np.zeros(k, dtype=bool)
    powers = gamma.copy()
    near_gamma = gamma + 1e-12 * (1.0 + gamma)
    mu: float | None = None

    def recompute():
        """Water-fill the free channels with the budget the pinned ones leave."""
        nonlocal mu
        free = ~(at_gamma | at_tau)
        if not free.any():
            return
        # Summed left to right: the violation tests compare powers with the
        # bounds to the last bit, so the rounding of this sum can change
        # which channels pin next.
        remaining = budget - (sum(gamma[at_gamma].tolist()) + sum(tau[at_tau].tolist()))
        if remaining <= cfg.power_tolerance * budget:
            powers[free] = gamma[free]
            at_gamma[free] = True
            return
        index = free.nonzero()[0]
        mu, powers[index] = _water_level_and_powers(
            channels.take(index), remaining, cfg, scale=budget)

    recompute()
    rounds = 0
    cap = 4 * k
    while True:
        free = ~(at_gamma | at_tau)
        lower_viol = free & (powers <= near_gamma)
        upper_viol = free & (powers >= tau)
        if not (lower_viol.any() or upper_viol.any()):
            break
        rounds += 1
        if rounds > cap:
            # Oscillation guard: the reset in the upper branch is not proven
            # cycle-free, so hand the instance to the sequential strategy.
            return _set_a(channels, gamma, tau, budget, cfg)
        if lower_viol.any():
            at_gamma |= lower_viol
            powers[lower_viol] = gamma[lower_viol]
        else:
            # Pin the upper violations and release every lower pin.
            at_tau |= upper_viol
            powers[upper_viol] = tau[upper_viol]
            at_gamma[:] = False
        recompute()
    return powers, mu, max(rounds, 1), "optimal", []


def _rate_inside(channels: Channels, powers: np.ndarray) -> np.ndarray:
    """Rates at ``powers`` moved up to each channel's domain edge; where the
    rate there is infinite (a log argument of 0), the rate 1e-12 inside."""
    if not channels.banked:  # the bank families' domains start at 0
        powers = np.maximum(powers, [obj.domain_min() for obj in channels.objectives])
    rates = channels.rate(powers)
    edge = np.isinf(rates).nonzero()[0]
    if edge.size:
        rates[edge] = channels.take(edge).rate(powers[edge] + 1e-12)
    return rates


def _bisect(channels: Channels, gamma: np.ndarray, tau: np.ndarray, budget: float,
            cfg: SolverConfig):
    """Outer bisection on the water level with per-channel clamping."""
    sigma = 1e-4 * cfg.power_tolerance * budget
    start = None

    def clamped_total(mu_val: float):
        nonlocal start  # the last level's demands warm-start the next
        start = channels.demand(mu_val, start)
        powers = np.minimum(np.maximum(start, gamma), tau)
        return powers, float(powers.sum())

    mu_max = float(_rate_inside(channels, gamma).max())
    finite = np.isfinite(tau).nonzero()[0]
    if finite.size:
        mu_min = float(_rate_inside(channels.take(finite), tau[finite]).min())
    else:
        mu_min = float(_rate_inside(channels, np.full(len(channels), budget)).min())
    # Force a valid bracket in case the initial guesses do not straddle P.
    for _ in range(200):
        if clamped_total(mu_min)[1] >= budget:
            break
        mu_min *= 0.5
    for _ in range(200):
        if clamped_total(mu_max)[1] <= budget:
            break
        mu_max *= 2.0

    best_powers, best_total = clamped_total(0.5 * (mu_min + mu_max))
    best_mu = 0.5 * (mu_min + mu_max)
    iterations = 0
    while abs(best_total - budget) > sigma:
        iterations += 1
        if best_total > budget:
            mu_min = best_mu
        else:
            mu_max = best_mu
        best_mu = 0.5 * (mu_min + mu_max)
        if not mu_min < best_mu < mu_max:
            # One ulp apart, still off by sigma: take the end that under-spends.
            best_mu = mu_max
            best_powers, best_total = clamped_total(best_mu)
            break
        best_powers, best_total = clamped_total(best_mu)
    spent = abs(best_total - budget) <= cfg.power_tolerance * budget
    return (best_powers, best_mu, max(iterations, 1),
            "optimal" if spent else "feasible", [])


def _order_rows(channels: Channels, gamma: np.ndarray, tau: np.ndarray,
                budget: np.ndarray, cfg: SolverConfig) -> list:
    """The order search on S rows of bounds (S, K) and budgets (S,) over one
    bank, one ``_order`` tuple per row.  S > 1 needs a bank of one
    closed-form family; with S = 1 each probe is warm-started at the last."""
    s, k = tau.shape
    finite = np.isfinite(tau)
    tau_rate = np.zeros((s, k))
    if channels.family not in BANK_FAMILIES:
        index = finite[0].nonzero()[0]
        tau_rate[0, index] = channels.take(index).rate(tau[0, index])
    elif finite.any():
        tau_rate[finite] = channels.rate(np.where(finite, tau, 1.0))[finite]
    order = np.argsort(-tau_rate, axis=1, kind="stable")
    # Case c of a row pins its order[:c] at tau; it exits when its water
    # level, the row's c-th largest tau-rate, spends the whole budget.  The
    # levels fall with c (infinite-tau channels have rate 0 and come last)
    # and the clamped total does not increase with the level, so the exit
    # test is monotone in c: a binary search per row, over [lo, hi).
    lo, hi, probes, budgets = [0] * s, [k] * s, [0] * s, budget.tolist()
    mid, mu, live, start = [0] * s, [0.0] * s, list(range(s)), None
    while live:
        for i in live:
            mid[i] = (lo[i] + hi[i]) // 2
            mu[i] = tau_rate.item(i, order.item(i, mid[i]))
        # One clamped-demand pass over every row; a finished row keeps its
        # last level, and a level of 0 exits whatever it spends.
        totals = budgets
        if max(mu) > 0:
            demand = start = channels.demand(mu[0], start) if s == 1 else \
                channels.demand(np.array([[m if m > 0 else 1.0] for m in mu]))
            totals = np.minimum(np.maximum(demand, gamma), tau).sum(axis=1).tolist()
        for i in live:
            probes[i] += 1
            if mu[i] <= 0 or totals[i] >= budgets[i]:
                hi[i] = mid[i]
            else:
                lo[i] = mid[i] + 1
        live = [i for i in live if lo[i] < hi[i]]
    # Every case under-spends only when every tau is finite and their sum
    # exceeds the budget by rounding: the last case leaves its channel the
    # budget the others do not take.
    out = []
    for i, case in enumerate(min(c, k - 1) for c in lo):
        fixed, rest = order[i, :case], order[i, case:]
        powers = np.empty(k)
        powers[fixed] = tau[i, fixed]
        powers[rest], mu, water_levels, _ = water_fill(
            channels.take(rest), gamma[i, rest],
            budgets[i] - float(tau[i, fixed].sum()), cfg)
        out.append((powers, mu, probes[i] + (len(water_levels) or 1), "optimal",
                    water_levels))
    return out


def _order(channels: Channels, gamma: np.ndarray, tau: np.ndarray, budget: float,
           cfg: SolverConfig):
    """The order search on one box problem: :func:`_order_rows` with S = 1."""
    return _order_rows(channels, gamma[None], tau[None], np.array([budget]), cfg)[0]


_STRATEGIES = dict(zip(BOX_STRATEGIES, (_set_a, _set_b, _bisect, _order)))


def _fill(channels: Channels, gamma: np.ndarray, tau: np.ndarray, budget: float,
          cfg: SolverConfig):
    """The all-upper allocation when every upper bound is finite and their sum
    fits the budget, else the configured strategy's result."""
    if np.isfinite(tau).all() and float(tau.sum()) <= budget:
        return tau.copy(), None, 1, "optimal", []
    return _STRATEGIES[cfg.box_strategy](channels, gamma, tau, budget, cfg)


def box_fill(channels: Channels, gamma: np.ndarray, tau: np.ndarray, budget: float,
             cfg: SolverConfig = _DEFAULT_CFG):
    """The box problem on bound arrays and a float budget by the configured
    strategy; inputs unchecked.  Returns ``(powers, mu, iterations, status,
    water_levels)``, ``mu`` None when no channel is interior, as in the
    record :func:`solve_box` builds.
    """
    powers, mu, iterations, status, water_levels = _fill(channels, gamma, tau, budget, cfg)
    if mu is not None and not _classify(powers, gamma, tau)[3].any():
        mu = None
    return powers, mu, iterations, status, water_levels


def box_fill_rows(channels: Channels, gamma: np.ndarray, tau: np.ndarray,
                  budget: np.ndarray, cfg: SolverConfig = _DEFAULT_CFG) -> list:
    """S box problems on one bank, bounds (S, K) and budgets (S,); inputs
    unchecked.  One ``(powers, mu, iterations, status, water_levels)`` per
    row, the tuple :func:`solve_box` finishes.  On a bank of one closed-form
    family the ``order`` search runs on every row that does not fit all its
    upper bounds at once; otherwise each row is solved alone."""
    if cfg.box_strategy != "order" or channels.family not in BANK_FAMILIES:
        return [_fill(channels, g, t, float(p), cfg) for g, t, p in zip(gamma, tau, budget)]
    # A row sum adds as the 1-D sum of _fill's test does.
    full = np.isfinite(tau).all(axis=1) & (tau.sum(axis=1) <= budget)
    search = iter(_order_rows(channels, gamma[~full], tau[~full], budget[~full], cfg))
    return [(t.copy(), None, 1, "optimal", []) if f else next(search)
            for f, t in zip(full.tolist(), tau)]


def solve_box(problem: BoxProblem,
              cfg: SolverConfig = _DEFAULT_CFG) -> Allocation:
    """The box problem by the configured strategy, for a validated problem;
    :func:`~waterline.core.finish` classifies the powers once, for the record."""
    gamma = np.array(problem.lower_bounds, dtype=float)
    tau = np.array(problem.upper_bounds, dtype=float)
    powers, mu, iterations, status, water_levels = _fill(
        problem.channels, gamma, tau, problem.budget, cfg)
    return finish(problem.channels, powers, gamma, tau, mu, iterations, status,
                  water_levels)


def _rate_conditions(channels: Channels, powers: np.ndarray, gamma: np.ndarray,
                    tau: np.ndarray):
    """``(mu_lo, mu_hi, lower_violation, upper_violation)`` of the box rate
    conditions, from the :func:`_classify` masks.

    ``mu_lo``/``mu_hi`` are the least and largest rate of the interior
    channels.  A channel at its lower bound may not have a rate there above
    ``mu_lo``, nor one at its upper bound a rate there below ``mu_hi``.  With
    no interior channel the lower-bound rates are held to the least
    upper-bound rate; with neither, nothing is checked and ``mu_lo`` and
    ``mu_hi`` are None.
    """
    _fixed, lower, upper, active = _classify(powers, gamma, tau)

    def rates(mask: np.ndarray, at: np.ndarray) -> np.ndarray:
        index = np.flatnonzero(mask)
        return channels.take(index).rate(at[index])

    active_rates, upper_rates = rates(active, powers), rates(upper, tau)
    if active_rates.size:
        mu_lo, mu_hi = float(active_rates.min()), float(active_rates.max())
    elif upper_rates.size:
        mu_lo = mu_hi = float(upper_rates.min())
    else:
        return None, None, 0.0, 0.0
    return (mu_lo, mu_hi, float(np.max(rates(lower, gamma) - mu_lo, initial=0.0)),
            float(np.max(mu_hi - upper_rates, initial=0.0)))


def _box_report(problem, upper, allocation, tolerance: float) -> KktReport:
    """Residuals of the four box optimality conditions under ``upper``."""
    powers = np.array(allocation.powers if isinstance(allocation, Allocation)
                      else allocation, dtype=float)
    gamma = np.array(problem.lower_bounds, dtype=float)
    tau = np.array(upper, dtype=float)
    mu_lo, mu_hi, lower, upper = _rate_conditions(problem.channels, powers, gamma, tau)
    residuals = {"rate_spread": 0.0 if mu_lo is None else mu_hi - mu_lo,
                 "lower_rate_violation": lower, "upper_rate_violation": upper}
    spend = problem.budget
    if np.isfinite(tau).all():
        # When every channel fits at its upper bound, that is the optimum.
        spend = min(spend, float(tau.sum()))
    residuals["power_residual"] = abs(float(powers.sum()) - spend) / problem.budget
    residuals["bounds_violation"] = float(max(
        0.0, (gamma - powers).max(), (powers - tau).max()))
    return KktReport(residuals=residuals, tolerance=tolerance)


def kkt_residual_box(problem: BoxProblem,
                     allocation: Allocation | list[float],
                     tolerance: float = 1e-8) -> KktReport:
    """Residuals of the four box optimality conditions."""
    return _box_report(problem, problem.upper_bounds, allocation, tolerance)


def kkt_residual_p1(problem: SimplexProblem,
                    allocation: Allocation | Sequence[float],
                    tolerance: float = 1e-8) -> KktReport:
    """Residuals of the P1/P1.1 conditions: P1.1 is the box with no upper
    bounds, so these are :func:`kkt_residual_box`'s."""
    return _box_report(problem, [np.inf] * problem.n, allocation, tolerance)
