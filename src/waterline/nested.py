"""Box-bounded allocation under ascending prefix budgets, in one pass of a
rising water level.

Under caps ``sum_{k<=J} p_k <= P_J`` (``P_J`` nondecreasing) the optimum is a
staircase: blocks that end at binding caps, with a level that falls from
block to block (Padakandla & Sundaresan, SIAM J. Optim. 2009).  A block's
level is the least at which every later cap holds with the later demands
clamped into their boxes, the root of the largest excess over those caps;
the block ends at the last cap that binds there.  On a ``log_capacity``/
``inverse_mse`` bank the level is exact (:func:`_block_levels`) and the
block takes the bank's demands there, sliced and clamped into the boxes;
other families search the level and solve the block by the configured box
strategy.  The result is the optimum, so ``status`` is always ``"optimal"``.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .box import _rate_inside, box_fill
from .core import _bank_points, _classify, _level_search, _quadratic_level, finish
from .errors import BracketFailure, InfeasibleBudget
from .objectives import Channels
from .problems import Allocation, AscendingProblem, SolverConfig

_DEFAULT_CFG = SolverConfig()


def _block_levels(channels: Channels, gamma: np.ndarray, tau: np.ndarray):
    """A block's exact level from its first channel and its caps' room on a
    ``log_capacity``/``inverse_mse`` bank (None for any other set).  The largest
    prefix excess rises with x = 1/sqrt(mu): a binary search finds the first
    point of :func:`~waterline.core._bank_points` that binds a cap, before which
    each prefix's excess is Q*x**2 + U*x - C; the level is the largest root."""
    bank = _bank_points(channels, gamma, tau)
    if bank is None:
        return None
    ((q, u, _, offset, *_), (_, x, order), _), k = bank, len(gamma)
    keep = np.isfinite(x[order])  # an infinite tau never saturates
    points, owner = x[order][keep], order[keep] % k
    coef = np.array([np.zeros(k) if v is None else v for v in (q, u)] + [offset])

    def level(start: int, room: np.ndarray) -> float:
        g, t, j, st = gamma[start:], tau[start:], x[start:k], x[k + start:]
        qb, ub, off = coef[:, start:]
        xs = points[owner >= start].tolist()

        def binds(x_val: float) -> bool:
            with np.errstate(invalid="ignore"):  # inf - inf, as in excess below
                clamped = np.minimum(np.fmax((qb * x_val + ub) * x_val - off, g), t)
            return bool((np.cumsum(clamped) >= room).any())

        lo = bisect_left(xs, True, key=binds)
        # The segment before the first point that binds; x >= 0 before any.
        x_lo, x_hi = xs[lo - 1] if lo else 0.0, xs[lo] if lo < len(xs) else np.inf
        inside = (j <= x_lo) & (st >= x_hi)
        run = np.where(inside, coef[:, start:], 0.0)
        run[2] = np.where(inside, off, -np.where(st <= x_lo, t, g))
        run = run.cumsum(axis=1)
        run[2] += room  # each prefix's Q, U and C
        levels = _quadratic_level(*run[:, (run[0] + run[1] > 0) & (run[2] > 0)])
        # At or above the segment end's level, where with no root (rounding) a
        # cap binds; past the last point, only with every channel at a finite tau.
        mu = float(levels.max(initial=x_hi ** -2.0))
        if not (mu or x_lo):  # no finite point: no channel's b/a is in the float range
            raise BracketFailure("the water level leaves the float range")
        return mu or x_lo ** -2.0

    return level


def _bank_block(clamped: np.ndarray, mu: float, gamma: np.ndarray, tau: np.ndarray):
    """A bank block's ``(powers, level, iterations)``: its clamped demands at its
    exact level, the level only if a channel is interior (as ``box_fill``), one pass."""
    return clamped, mu if _classify(clamped, gamma, tau)[3].any() else None, 1


def solve_ascending(problem: AscendingProblem,
                    cfg: SolverConfig = _DEFAULT_CFG) -> Allocation:
    """One left-to-right pass of the rising level; a bank's blocks need no box solve."""
    k, channels = problem.n, problem.channels
    gamma = np.array(problem.lower_bounds, dtype=float)
    tau = np.array(problem.upper_bounds, dtype=float)
    caps = np.array(problem.prefix_budgets)
    tol = 1e-4 * cfg.power_tolerance * caps[-1]
    powers, water_levels = gamma.copy(), []
    iterations = splits = start = 0
    block_level = _block_levels(channels, gamma, tau)
    while True:
        g, t, suffix = gamma[start:], tau[start:], np.arange(start, k)
        room = caps[start:] - (caps[start - 1] if start else 0.0)
        if np.isfinite(t).all() and (np.cumsum(t) <= room).all():
            powers[start:] = t
            break
        rest, demand = None if block_level else channels.take(suffix), None

        # A channel whose b/a leaves the float range demands inf - inf = NaN at
        # every level: np.fmax puts it at its floor, where it stays.
        def excess(mu: float) -> np.ndarray:
            nonlocal demand  # the last level's demands warm-start the next
            with np.errstate(over="ignore", invalid="ignore"):
                demand = channels.demand(mu)[start:] if rest is None else rest.demand(mu, demand)
            return np.cumsum(np.minimum(np.fmax(demand, g), t)) - room

        # The largest excess over the caps falls as the level rises.  At the
        # largest rate at a lower bound every demand sits there: unless the
        # floors alone fill a cap (to rounding), the level lies below.
        if (np.cumsum(g) - room).max() >= 0:
            mu = float(_rate_inside(channels.take(suffix) if rest is None else rest, g).max())
        else:
            mu = block_level(start, room) if block_level else _level_search(
                lambda mu_val: float(excess(mu_val).max()), tol, 1e-4 * cfg.mu_tolerance,
                float(_rate_inside(rest, g).max()))
        over = excess(mu)
        stop = start + int(np.flatnonzero(over >= over.max() - tol)[-1]) + 1
        budget, block = room[stop - start - 1], (gamma[start:stop], tau[start:stop])
        if budget - block[0].sum() > cfg.power_tolerance * budget:
            if rest is None:
                clamped = np.minimum(np.fmax(demand[:stop - start], block[0]), block[1])
                powers[start:stop], level, calls = _bank_block(clamped, mu, *block)
            else:
                powers[start:stop], level, calls, _, _ = box_fill(
                    channels.take(suffix[:stop - start]), *block, float(budget), cfg)
            iterations += calls
            water_levels += [] if level is None else [level]
        if stop == k:
            break
        splits, start = splits + 1, stop

    mu = water_levels[0] if splits == 0 and water_levels else None
    result = finish(channels, powers, gamma, tau, mu, max(iterations, 1),
                    water_levels=water_levels)
    result.splits = splits
    over = np.flatnonzero(np.cumsum(result.powers) > caps * (1.0 + 1e-9))
    if over.size:
        raise InfeasibleBudget(
            f"prefix constraint through channel {over[0]} violated after solve")
    return result
