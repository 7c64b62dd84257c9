"""Box-bounded allocation under ascending prefix budgets, in one pass of a
rising water level.

Under caps ``sum_{k<=J} p_k <= P_J`` (``P_J`` nondecreasing) the optimum is a
staircase: blocks that end at binding caps, with a level that falls from
block to block (Padakandla & Sundaresan, SIAM J. Optim. 2009).  A block's
level is the least at which every later cap holds with the later demands
clamped into their boxes, the root of the largest excess over those caps;
the block ends at the last cap that binds there and is solved by the
configured box strategy.  The result is the optimum, so ``status`` is always
``"optimal"``.
"""

from __future__ import annotations

import numpy as np

from .box import _clamped_demand, _rate_inside, box_fill
from .core import _level_search, finish
from .errors import InfeasibleBudget
from .problems import Allocation, AscendingProblem, SolverConfig

_DEFAULT_CFG = SolverConfig()


def solve_ascending(problem: AscendingProblem,
                    cfg: SolverConfig = _DEFAULT_CFG) -> Allocation:
    """One left-to-right pass of the rising water level."""
    k, channels = problem.n, problem.channels
    gamma = np.array(problem.lower_bounds, dtype=float)
    tau = np.array(problem.upper_bounds, dtype=float)
    caps = np.array(problem.prefix_budgets)
    tol = 1e-4 * cfg.power_tolerance * caps[-1]
    powers, water_levels = gamma.copy(), []
    iterations = splits = start = 0
    while True:
        g, t, rest = gamma[start:], tau[start:], channels.take(np.arange(start, k))
        room = caps[start:] - (caps[start - 1] if start else 0.0)
        if np.isfinite(t).all() and (np.cumsum(t) <= room).all():
            powers[start:] = t
            break

        def excess(mu: float) -> np.ndarray:
            return np.cumsum(_clamped_demand(rest, mu, g, t)) - room

        # The largest excess over the caps falls as the level rises.  At the
        # largest rate at a lower bound every demand sits there: unless the
        # floors alone fill a cap (to rounding), the level lies below.
        mu = float(_rate_inside(rest, g).max())
        if (np.cumsum(g) - room).max() < 0:
            mu = _level_search(lambda mu_val: float(excess(mu_val).max()), tol,
                               1e-4 * cfg.mu_tolerance, mu)
        over = excess(mu)
        stop = start + int(np.flatnonzero(over >= over.max() - tol)[-1]) + 1
        budget = room[stop - start - 1]
        if budget - gamma[start:stop].sum() > cfg.power_tolerance * budget:
            powers[start:stop], level, calls, _, _ = box_fill(
                channels.take(np.arange(start, stop)), gamma[start:stop],
                tau[start:stop], float(budget), cfg)
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
