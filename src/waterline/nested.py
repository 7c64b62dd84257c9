"""Recursive solver for box-bounded allocation under ascending prefix budgets.

The chain of constraints ``sum_{k<=J} p_k <= P_J`` (with ``P_J``
nondecreasing) is handled by relaxation and splitting: solve the range as a
single box-constrained problem under its final budget; if some interior
prefix constraint is violated, split the range at the smallest violated
prefix and recurse on both halves.  The recursion is organized as an
explicit work-list of channel ranges, each carrying its own budget and the
prefix caps interior to it.

The result is always feasible.  It is globally optimal when no split or
exactly one split occurs; with more splits it is close-to-optimal but not
certified, which the ``status`` field reflects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .box import _finish, solve_box
from .errors import InfeasibleBudget
from .objectives import Channels
from .problems import Allocation, AscendingProblem, BoxProblem, SolverConfig

_DEFAULT_CFG = SolverConfig()


@dataclass
class _Range:
    lo: int                 # first channel index (inclusive)
    hi: int                 # last channel index (inclusive)
    caps: list[float]       # caps[j] bounds sum(p[lo..lo+j]); caps[-1] is the budget


def solve_ascending(problem: AscendingProblem,
                    cfg: SolverConfig = _DEFAULT_CFG) -> Allocation:
    """Work-list relaxation/splitting solver for ascending prefix budgets."""
    k = problem.n
    objs = list(problem.objectives)
    gamma = list(problem.lower_bounds)
    tau = list(problem.upper_bounds)

    powers = [0.0] * k
    water_levels: list[float] = []
    iterations = 0
    splits = 0

    work = [_Range(0, k - 1, list(problem.prefix_budgets))]
    while work:
        rng = work.pop()
        lo, hi, caps = rng.lo, rng.hi, rng.caps
        sub = BoxProblem(
            objectives=objs[lo:hi + 1],
            budget=caps[-1],
            lower_bounds=gamma[lo:hi + 1],
            upper_bounds=[None if math.isinf(t) else t for t in tau[lo:hi + 1]])
        alloc = solve_box(sub, cfg)
        iterations += alloc.iterations

        running = 0.0
        violated = None
        for j in range(len(caps) - 1):
            running += alloc.powers[j]
            if running > caps[j] * (1.0 + 1e-12):
                violated = j
                break
        if violated is None:
            for j, p in enumerate(alloc.powers):
                powers[lo + j] = p
            if alloc.water_level is not None:
                water_levels.append(alloc.water_level)
            continue

        splits += 1
        m = violated
        budget = caps[-1]
        # The left budget must leave the right subrange feasible with
        # respect to its lower bounds, under every surviving right prefix.
        left_budget = caps[m]
        gamma_right_running = 0.0
        for j in range(m + 1, len(caps)):
            gamma_right_running += gamma[lo + j]
            left_budget = min(left_budget, caps[j] - gamma_right_running)
        left_budget = min(left_budget, budget - gamma_right_running)
        left_caps = [min(c, left_budget) for c in caps[:m]] + [left_budget]
        right_caps = [c - left_budget for c in caps[m + 1:]]
        work.append(_Range(lo, lo + m, left_caps))
        work.append(_Range(lo + m + 1, hi, right_caps))

    full = BoxProblem(
        objectives=objs,
        budget=problem.prefix_budgets[-1],
        lower_bounds=gamma,
        upper_bounds=[None if math.isinf(t) else t for t in tau])
    mu = water_levels[0] if (splits == 0 and water_levels) else None
    result = _finish(full, Channels(objs), powers, mu, max(iterations, 1),
                     status="optimal" if splits <= 1 else "feasible",
                     water_levels=water_levels)
    result.splits = splits

    running = 0.0
    for j, cap in enumerate(problem.prefix_budgets):
        running += result.powers[j]
        if running > cap * (1.0 + 1e-9):
            raise InfeasibleBudget(
                f"prefix constraint through channel {j} violated after solve")
    return result
