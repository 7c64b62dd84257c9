"""Four interchangeable solvers for the box-constrained allocation problem.

Strategies (selected through ``SolverConfig.box_strategy``):

* ``set_a``  -- repeated lower-bound (P1.1) solves by
  :func:`~waterline.core.water_fill`; channels that hit their upper bound
  are clamped there and removed with the budget shrunk accordingly.  A
  log/inverse bank's join points and their order are built once per solve,
  and read at the unpinned channels (:func:`~waterline.core._take_bank`).
* ``set_b``  -- the same loop over :func:`~waterline.core.deactivation_loop`,
  which pins lower-bound violations round by round (on a log/inverse bank, a
  closed-form level per round against those join points, one ``demand`` pass).
* ``bisect`` -- the shared level search
  (:func:`~waterline.core._level_search`) on the total of the demands
  clamped into the boxes; the name is kept for files and the CLI.
* ``order``  -- the default: one sort of the points where each channel's
  demand reaches its lower and its upper bound gives the level's segment
  (the breakpoint search of Palomar & Fonollosa, IEEE TSP 2005).  On a
  ``log_capacity``/``inverse_mse`` bank, mixed or not, on exact demands,
  with the level in closed form (:func:`~waterline.core._breakpoint_level`);
  S problems on one bank (a sweep's SNR points) share the bank's terms and
  one demand pass.  On the other flat families, P1.1's tangent steps run it
  on tangent demands (:func:`~waterline.core.tangent_fill`); where they give
  up, and on a custom objective, ``bisect`` solves.

Each strategy is a private array function ``(channels, gamma, tau, budget,
cfg)``: set logic over index masks of a
:class:`~waterline.objectives.Channels` set and its bound arrays, with
demands, rates and utilities as numpy arrays, one call per family group.
:func:`box_fill` solves on unchecked arrays for every internal caller, and
:func:`box_fill_rows` S problems on one bank; :func:`solve_box`, the public
entry, runs the same solve for a validated problem and builds its record.

All four return identical allocations up to numeric tolerance; the
cross-strategy agreement is part of the acceptance suite.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    _bank_points, _bank_terms, _breakpoint_level, _classify, _level_search,
    _take_bank, deactivation_loop, finish, tangent_fill, water_fill)
from .core import solve_p1_lower  # noqa: F401  (perfbench's tracer wraps this name)
from .errors import WaterlineError
from .objectives import Channels
from .problems import (
    BOX_STRATEGIES, Allocation, BoxProblem, KktReport, SimplexProblem, SolverConfig)

_DEFAULT_CFG = SolverConfig()


def _set_a(channels: Channels, gamma: np.ndarray, tau: np.ndarray, budget: float,
           cfg: SolverConfig, p1=water_fill):
    """Repeated P1.1 solves by ``p1`` on the channels not pinned at tau: each
    round pins those that reach tau there and shrinks the budget by their
    tau.  Once the budget left exceeds the other channels' floors by no more
    than ``cfg.power_tolerance`` of the original, they sit at gamma.  Under
    ``water_fill`` or ``deactivation_loop`` a bank's join points are built once."""
    remaining = np.arange(len(channels))
    powers = gamma.copy()
    mu, calls, slack = None, 0, cfg.power_tolerance * budget
    bank = _bank_points(channels, gamma, sort=p1 is water_fill) \
        if p1 in (water_fill, deactivation_loop) else None
    while remaining.size and budget - float(gamma[remaining].sum()) > slack:
        sub_powers, mu, _, _ = p1(channels.take(remaining), gamma[remaining], budget, cfg) \
            if bank is None else p1(channels, gamma[remaining], budget, cfg,
                                    _take_bank(bank, remaining))
        calls += 1
        powers[remaining] = sub_powers
        hit = sub_powers >= tau[remaining]
        if not hit.any():
            break
        pinned = remaining[hit]
        powers[pinned] = tau[pinned]
        budget -= float(tau[pinned].sum())
        remaining = remaining[~hit]
    return powers, mu, max(calls, 1), "optimal", []


def _rate_inside(channels: Channels, powers: np.ndarray) -> np.ndarray:
    """Rates at ``powers`` moved up to each channel's domain edge; where the
    rate there is infinite (a log argument of 0), the rate 1e-12 inside."""
    if channels._custom() is not None:  # the bank families' domains start at 0
        powers = np.maximum(powers, [obj.domain_min() for obj in channels.objectives])
    rates = channels.rate(powers)
    edge = np.isinf(rates).nonzero()[0]
    if edge.size:
        rates[edge] = channels.take(edge).rate(powers[edge] + 1e-12)
    return rates


def _bisect(channels: Channels, gamma: np.ndarray, tau: np.ndarray, budget: float,
            cfg: SolverConfig):
    """The floors, if they fill the budget to ``cfg.power_tolerance``; else
    :func:`~waterline.core._level_search` on the clamped total minus the budget
    from the largest rate at the lower bounds, each level's demands
    warm-starting the next; iterations count its evaluations.  A stop on
    bracket width that over-spends beyond the search's tolerance takes the
    evaluation that under-spends least, which the bracket holds."""
    if budget - float(gamma.sum()) <= cfg.power_tolerance * budget:
        return gamma.copy(), None, 1, "optimal", []
    sigma = 1e-4 * cfg.power_tolerance * budget
    start, evals, last, under = None, 0, None, None

    def excess(mu_val: float) -> float:
        nonlocal start, evals, last, under
        # A demand past the float range is inf, which tau clamps; one of inf -
        # inf (a channel whose b/a leaves the float range, or a subnormal a·mu)
        # is NaN, which rests at the floor, as in nested and fair.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            start = channels.demand(mu_val, start)
        powers = np.minimum(np.fmax(start, gamma), tau)
        evals, last = evals + 1, (powers, mu_val, float(powers.sum()) - budget)
        if last[2] <= 0 and (under is None or last[2] > under[2]):
            under = last
        return last[2]

    _level_search(excess, sigma, 1e-4 * cfg.mu_tolerance,
                  float(_rate_inside(channels, gamma).max()))
    powers, mu, gap = last if last[2] <= sigma else under
    return (powers, mu, evals,
            "optimal" if abs(gap) <= cfg.power_tolerance * budget else "feasible", [])


def _order_rows(channels: Channels, gamma: np.ndarray, tau: np.ndarray,
                budget: np.ndarray, cfg: SolverConfig) -> list | None:
    """The order search on S rows (bounds (S, K), budgets (S,)) over a log/inverse
    bank, None for any other set: the bank's :func:`~waterline.core._bank_terms`
    once, then each row's :func:`~waterline.core._breakpoint_level` on them (an
    (S, 2K) table of the points costs more in fresh memory pages), then one
    ``demand`` pass at every level, clipped into the boxes at the interior
    channels; the others sit at the bound the search puts them at."""
    terms = _bank_terms(channels, upper=True)
    if terms is None:
        return None
    searches = [_breakpoint_level(terms, g, p, t, cfg)
                for g, t, p in zip(gamma, tau, budget.tolist())]
    mus = [search[0] for search in searches]
    rows = [i for i, mu in enumerate(mus) if mu is not None]
    powers = np.where([search[2] for search in searches], tau, gamma)
    if rows:  # a one-family bank takes a column of levels, a mixed one a level at a time
        levels = [mus[i] for i in rows]
        # A channel that never joins (b/a past the float range) demands inf - inf: not read.
        with np.errstate(over="ignore", invalid="ignore"):
            demand = channels.demand(np.array(levels)[:, None]) if channels.family else \
                np.array([channels.demand(mu) for mu in levels])
        powers[rows] = np.where([searches[i][1] for i in rows],
                                np.minimum(np.maximum(demand, gamma[rows]), tau[rows]),
                                powers[rows])
    return [(p, mu, 1, "optimal", [] if mu is None else [mu])
            for p, mu in zip(powers, mus)]


def _order(channels: Channels, gamma: np.ndarray, tau: np.ndarray, budget: float,
           cfg: SolverConfig):
    """The order search on one box problem: :func:`_order_rows` on a log/inverse
    bank, else P1.1's :func:`~waterline.core.tangent_fill` steps with the upper
    bounds, and :func:`_bisect`'s evaluations after them where they give up."""
    rows = _order_rows(channels, gamma[None], tau[None], np.array([budget]), cfg)
    if rows is not None:
        return rows[0]
    powers, mu, steps = tangent_fill(channels, gamma, budget, cfg, tau)
    if powers is not None:
        return powers, mu, steps, "optimal", [mu] if mu else []
    powers, mu, evals, status, water_levels = _bisect(channels, gamma, tau, budget, cfg)
    return powers, mu, steps + evals, status, water_levels


_STRATEGIES = dict(zip(BOX_STRATEGIES,
                       (_set_a, partial(_set_a, p1=deactivation_loop), _bisect, _order)))


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


def _fill_or_none(*args):
    """:func:`_fill`, or None where it raises a :class:`~waterline.errors.WaterlineError`."""
    try:
        return _fill(*args)
    except WaterlineError:
        return None


def box_fill_rows(channels: Channels, gamma: np.ndarray, tau: np.ndarray,
                  budget: np.ndarray, cfg: SolverConfig = _DEFAULT_CFG) -> list:
    """S box problems on one bank, bounds (S, K) and budgets (S,); inputs
    unchecked.  One ``(powers, mu, iterations, status, water_levels)`` per
    row, the tuple :func:`solve_box` finishes, or None where it raises a
    :class:`~waterline.errors.WaterlineError`.  On a ``log_capacity``/
    ``inverse_mse`` bank the ``order`` search runs at once on every row that
    does not fit all its upper bounds (:func:`_order_rows`: the bank's terms
    built once, then one sort per row); otherwise, and where one of those
    rows raises, each row is solved alone, so that rows fail alone."""
    # A row sum adds as the 1-D sum of _fill's test does.
    full = np.isfinite(tau).all(axis=1) & (tau.sum(axis=1) <= budget)
    try:
        search = _order_rows(channels, gamma[~full], tau[~full], budget[~full], cfg) \
            if cfg.box_strategy == "order" and not full.all() else None
    except WaterlineError:
        search = None
    if search is None:
        return [_fill_or_none(channels, g, t, float(p), cfg)
                for g, t, p in zip(gamma, tau, budget)]
    rows = iter(search)
    return [(t.copy(), None, 1, "optimal", []) if f else next(rows)
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


_WHOLE = np.zeros(1, dtype=np.intp)  # one segment: every channel


class _RateConditions(NamedTuple):
    """:func:`_rate_conditions` of each segment, one array entry per segment."""

    mu_lo: np.ndarray
    mu_hi: np.ndarray
    lower_violation: np.ndarray
    upper_violation: np.ndarray
    interior: np.ndarray  # some channel interior
    spread: np.ndarray    # mu_hi - mu_lo, 0 where no channel is interior

    def residuals(self, scale=1.0) -> dict[str, float]:
        """``rate_spread``, ``lower_rate_violation`` and
        ``upper_rate_violation``: the largest over the segments of each
        value divided by ``scale`` (one per segment, or one for all)."""
        return {name: float((value / scale).max()) for name, value in (
            ("rate_spread", self.spread), ("lower_rate_violation", self.lower_violation),
            ("upper_rate_violation", self.upper_violation))}


def _rate_conditions(channels: Channels, powers: np.ndarray, gamma: np.ndarray,
                     tau: np.ndarray, starts: np.ndarray = _WHOLE) -> _RateConditions:
    """The box rate conditions on each segment of the channels, whose first
    channels are ``starts``, in one pass: every problem class's certificate
    (one box, the blocks of an ascending staircase, the groups of a fair
    problem) reads its rate residuals from here.

    The channels are classified once, by :func:`~waterline.core._classify`,
    and each one's rate is evaluated once, at the one point its set reads:
    its power if interior, tau at its upper bound, gamma at its lower bound,
    and at no point if fixed (a b = 0 channel or a custom objective's domain
    edge may not bear a rate there).  In a segment with an ``interior``
    channel, ``mu_lo``/``mu_hi`` are the least and largest interior rate; a
    channel at its lower bound may not have a rate above ``mu_lo``, nor one
    at its upper bound a rate below ``mu_hi``.  With none interior,
    ``mu_lo`` is the largest rate at a lower bound (-inf with none) and
    ``mu_hi`` the least at an upper bound (inf with none), the levels the
    bounds admit, and the lower-bound rates are held to ``mu_hi``; with
    neither bound in use, nothing is checked.  Each segment is reduced by
    ``np.minimum.reduceat``/``np.maximum.reduceat``.
    """
    fixed, lower, upper, active = _classify(powers, gamma, tau)
    at = np.where(active, powers, np.where(upper, tau, gamma))
    if fixed.any():
        rates = np.zeros(len(at))
        read = np.flatnonzero(~fixed)
        rates[read] = channels.take(read).rate(at[read])
    else:
        rates = channels.rate(at)

    def reduce(op, mask, fill):
        return op.reduceat(np.where(mask, rates, fill), starts)

    interior = np.logical_or.reduceat(active, starts)
    floor = reduce(np.maximum, lower, -np.inf)
    ceiling = reduce(np.minimum, upper, np.inf)
    mu_lo = np.where(interior, reduce(np.minimum, active, np.inf), floor)
    mu_hi = np.where(interior, reduce(np.maximum, active, -np.inf), ceiling)
    held = np.where(interior, mu_lo, ceiling)  # what the lower-bound rates are held to
    with np.errstate(invalid="ignore"):  # inf - inf where a bound is not in use
        return _RateConditions(
            mu_lo, mu_hi,
            np.where(held < np.inf, np.maximum(floor - held, 0.0), 0.0),
            np.where(interior, np.maximum(mu_hi - ceiling, 0.0), 0.0),
            interior, np.where(interior, mu_hi - mu_lo, 0.0))


def _bounds_violation(powers: np.ndarray, gamma: np.ndarray, tau: np.ndarray) -> float:
    """The most a power lies outside its box, in power units; inf when a
    power is not finite (a NaN compares as lying inside every box)."""
    if not np.isfinite(powers).all():
        return math.inf
    return float(max(0.0, (gamma - powers).max(), (powers - tau).max()))


def _box_report(problem, upper, allocation, tolerance: float) -> KktReport:
    """Residuals of the four box optimality conditions under ``upper``."""
    powers = np.array(allocation.powers if isinstance(allocation, Allocation)
                      else allocation, dtype=float)
    gamma = np.array(problem.lower_bounds, dtype=float)
    tau = np.array(upper, dtype=float)
    residuals = _rate_conditions(problem.channels, powers, gamma, tau).residuals()
    spend = problem.budget
    if np.isfinite(tau).all():
        # When every channel fits at its upper bound, that is the optimum.
        spend = min(spend, float(tau.sum()))
    residuals["power_residual"] = abs(float(powers.sum()) - spend) / problem.budget
    residuals["bounds_violation"] = _bounds_violation(powers, gamma, tau)
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
