"""Independent reference solvers and condition checkers.

These are deliberately slow and simple: exhaustive enumeration over active
sets or bound assignments, projected gradient ascent, and dense grid search.
They certify the fast solvers on small instances and back the ``verify`` and
``compare`` CLI commands.  None of them share search logic with the fast
algorithms; enumeration reuses only the scalar water-level root-finder,
whose monotone bracketing is not the error-prone part.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import solve_water_level, water_fill
from .box import (
    _bounds_violation, _rate_conditions, box_fill, kkt_residual_box, kkt_residual_p1)
from .errors import BracketFailure, DomainError, SizeLimit
from .problems import (
    MODE_CLUSTER, Allocation, AscendingProblem, BoxProblem, FairProblem,
    FairSolution, KktReport, SimplexProblem, SolverConfig)

_DEFAULT_CFG = SolverConfig()


@dataclass
class OracleResult:
    powers: list
    objective_value: float
    method: str
    candidates: int
    certified: bool


def _safe_eval(obj, p: float) -> float:
    try:
        return obj.eval(p)
    except DomainError:
        return -math.inf


def enumerate_p1(problem: SimplexProblem,
                 cfg: SolverConfig = _DEFAULT_CFG) -> OracleResult:
    """Certified optimum by trying every nonempty active set."""
    k = problem.n
    if k > 15:
        raise SizeLimit(f"enumeration supports at most 15 channels, got {k}")
    objs = list(problem.objectives)
    gamma = list(problem.lower_bounds)
    best_val, best_powers = -math.inf, None
    count = 0
    for mask in range(1, 1 << k):
        active = [i for i in range(k) if mask >> i & 1]
        fixed = sum(gamma[i] for i in range(k) if not mask >> i & 1)
        remaining = problem.budget - fixed
        if remaining <= 0:
            continue
        count += 1
        try:
            mu = solve_water_level([objs[i] for i in active], remaining,
                                   cfg=cfg, scale=problem.budget)
        except BracketFailure:
            continue
        powers = list(gamma)
        feasible = True
        for i in active:
            p = objs[i].demand(mu)
            if p < gamma[i] - 1e-12 * (1.0 + gamma[i]):
                feasible = False
                break
            powers[i] = max(p, gamma[i])
        if not feasible:
            continue
        value = sum(_safe_eval(o, p) for o, p in zip(objs, powers))
        if value > best_val:
            best_val, best_powers = value, powers
    return OracleResult(powers=best_powers, objective_value=best_val,
                        method="enumerate_p1", candidates=count, certified=True)


def enumerate_box(problem: BoxProblem,
                  cfg: SolverConfig = _DEFAULT_CFG) -> OracleResult:
    """Certified optimum over all lower/upper/interior bound assignments."""
    k = problem.n
    if k > 8:
        raise SizeLimit(f"box enumeration supports at most 8 channels, got {k}")
    objs = list(problem.objectives)
    gamma, tau = problem.lower_bounds, problem.upper_bounds
    budget = problem.budget
    tol = 1e-9 * (1.0 + budget)
    best_val, best_powers = -math.inf, None
    count = 0
    for assign in itertools.product("LUA", repeat=k):
        if any(assign[i] == "U" and math.isinf(tau[i]) for i in range(k)):
            continue
        fixed = sum(gamma[i] if assign[i] == "L" else
                    (tau[i] if assign[i] == "U" else 0.0) for i in range(k))
        active = [i for i in range(k) if assign[i] == "A"]
        count += 1
        powers = [gamma[i] if assign[i] == "L" else
                  (tau[i] if assign[i] == "U" else 0.0) for i in range(k)]
        if not active:
            if fixed > budget * (1.0 + 1e-9):
                continue
        else:
            remaining = budget - fixed
            if remaining <= 0:
                continue
            try:
                mu = solve_water_level([objs[i] for i in active], remaining,
                                       cfg=cfg, scale=budget)
            except BracketFailure:
                continue
            feasible = True
            for i in active:
                p = objs[i].demand(mu)
                if p < gamma[i] - tol or p > tau[i] + tol:
                    feasible = False
                    break
                powers[i] = min(max(p, gamma[i]), tau[i])
            if not feasible:
                continue
        value = sum(_safe_eval(o, p) for o, p in zip(objs, powers))
        if value > best_val:
            best_val, best_powers = value, powers
    return OracleResult(powers=best_powers, objective_value=best_val,
                        method="enumerate_box", candidates=count, certified=True)


def _problem_geometry(problem):
    """(objectives, lower, upper, prefix caps) for the generic oracles."""
    if isinstance(problem, AscendingProblem):
        caps = list(problem.prefix_budgets)
    else:
        caps = [math.inf] * (problem.n - 1) + [problem.budget]
    upper = getattr(problem, "upper_bounds", None)
    if upper is None:
        upper = [math.inf] * problem.n
    return list(problem.objectives), list(problem.lower_bounds), list(upper), caps


def _project(p: np.ndarray, gamma: np.ndarray, tau: np.ndarray,
             caps: list[float]) -> np.ndarray:
    """Alternating projections onto the box and each prefix halfspace."""
    x = p.copy()
    for _ in range(100):
        x = np.clip(x, gamma, tau)
        moved = False
        for j, cap in enumerate(caps):
            if math.isinf(cap):
                continue
            excess = x[:j + 1].sum() - cap
            if excess > 1e-15 * (1.0 + cap):
                x[:j + 1] -= excess / (j + 1)
                moved = True
        if not moved and np.all(x >= gamma - 1e-12) and np.all(x <= tau + 1e-12):
            break
    return np.clip(x, gamma, tau)


def projected_gradient(problem, cfg: SolverConfig = _DEFAULT_CFG,
                       max_iterations: int = 100_000) -> OracleResult:
    """Projected gradient ascent; uncertified but problem-agnostic."""
    objs, gamma, tau, caps = _problem_geometry(problem)
    k = len(objs)
    g = np.asarray(gamma, dtype=float)
    t = np.asarray(tau, dtype=float)

    def value(x: np.ndarray) -> float:
        return sum(_safe_eval(o, float(p)) for o, p in zip(objs, x))

    def grad(x: np.ndarray) -> np.ndarray:
        out = np.empty(k)
        for i, o in enumerate(objs):
            r = o.rate(float(x[i]))
            out[i] = min(r, 1e12)
        return out

    x = _project(g.copy(), g, t, caps)
    fx = value(x)
    limit = np.asarray(caps, dtype=float) * (1.0 + 1e-12)  # a trial over it is refused
    step = 1.0
    iters = 0
    for _ in range(max_iterations):
        iters += 1
        gr = grad(x)
        accepted = False
        for _ in range(60):
            cand = _project(x + step * gr, g, t, caps)
            fc = value(cand)
            if (fc >= fx or not math.isfinite(fx)) and not (np.cumsum(cand) > limit).any():
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        mapping = float(np.max(np.abs(cand - x))) / max(step, 1e-30)
        x, fx = cand, fc
        step = min(step * 1.5, 1e6)
        if mapping <= 1e-8:
            break
    x, fx = _pairwise_polish(x, fx, value, g, t, caps)
    return OracleResult(powers=[float(v) for v in x], objective_value=fx,
                        method="projected_gradient", candidates=iters,
                        certified=False)


def _pairwise_polish(x, fx, value, g, t, caps):
    """Feasible power transfers between coordinate pairs at shrinking steps.

    Cleans up residual error left by the alternating projection when the
    iterate sits on a constrained face.
    """
    k = len(x)
    caps_arr = np.asarray(caps, dtype=float)
    delta = 1e-2 * max(float(caps_arr[-1]), 1.0)
    while delta > 1e-13 * max(float(caps_arr[-1]), 1.0):
        improved = False
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                d = min(delta, float(x[i] - g[i]), float(t[j] - x[j]))
                if d <= 0.0:
                    continue
                cand = x.copy()
                cand[i] -= d
                cand[j] += d
                if np.any(np.cumsum(cand) > caps_arr * (1.0 + 1e-12)):
                    continue
                fc = value(cand)
                if fc > fx:
                    x, fx = cand, fc
                    improved = True
        if not improved:
            delta *= 0.5
    return x, fx


def _grid_axes(center, radius, resolution, lo, hi):
    axes = []
    for c, r, lo_i, hi_i in zip(center, radius, lo, hi):
        a = max(lo_i, c - r)
        b = min(hi_i, c + r)
        n = max(int(round((b - a) / resolution)) + 1, 2) if b > a else 1
        axes.append(np.linspace(a, b, min(n, 2001)))
    return axes


def grid_search(problem, cfg: SolverConfig = _DEFAULT_CFG) -> OracleResult:
    """Dense grid over the free variables with two 10x refinement rounds."""
    if isinstance(problem, FairProblem):
        return _grid_search_fair(problem, cfg)
    objs, gamma, tau, caps = _problem_geometry(problem)
    k = len(objs)
    d = k - 1
    if d > 3:
        raise SizeLimit(f"grid search supports at most 4 variables, got {k}")
    budget = caps[-1]
    lo = np.asarray(gamma[:d])
    hi = np.asarray([min(t, budget) for t in tau[:d]])
    evaluated = 0

    def batch_value(free_cols):
        """free_cols: list of d arrays; returns (values, last column)."""
        n = free_cols[0].shape[0] if d else 1
        cols = [np.asarray(c, dtype=float) for c in free_cols]
        rest = sum(cols) if d else np.zeros(1)
        last_cap = min(tau[-1], budget) if math.isfinite(tau[-1]) else budget
        last = np.minimum(budget - rest, last_cap)
        feasible = last >= gamma[-1] - 1e-12
        prefix = np.zeros(n)
        for j in range(k - 1):
            prefix = prefix + cols[j]
            if math.isfinite(caps[j]):
                feasible &= prefix <= caps[j] * (1.0 + 1e-12)
        vals = np.full(n, -np.inf)
        idx = np.nonzero(feasible)[0]
        if idx.size:
            total = np.zeros(idx.size)
            with np.errstate(divide="ignore", invalid="ignore"):
                for j in range(d):
                    total += objs[j].eval_array(cols[j][idx])
                total += objs[-1].eval_array(last[idx])
            total = np.where(np.isnan(total), -np.inf, total)
            vals[idx] = total
        return vals, last

    base_res = 1e-3 * budget if d <= 2 else 1e-2 * budget
    center = [(a + b) / 2 for a, b in zip(lo, hi)]
    radius = [(b - a) / 2 for a, b in zip(lo, hi)]
    best_val, best_point, best_last = -math.inf, list(center), 0.0
    res = base_res
    for _round in range(3):
        if d == 0:
            vals, last = batch_value([])
            evaluated += 1
            if vals[0] > best_val:
                best_val, best_point, best_last = float(vals[0]), [], float(last[0])
            break
        axes = _grid_axes(center, radius, res, lo, hi)
        mesh = np.meshgrid(*axes, indexing="ij")
        cols = [m.ravel() for m in mesh]
        vals, last = batch_value(cols)
        evaluated += vals.size
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_point = [float(c[i]) for c in cols]
            best_last = float(last[i])
        center = best_point
        radius = [2.0 * res] * d
        res /= 10.0
    powers = best_point + [best_last]
    return OracleResult(powers=powers, objective_value=best_val,
                        method="grid_search", candidates=evaluated,
                        certified=False)


def _grid_search_fair(problem: FairProblem,
                      cfg: SolverConfig = _DEFAULT_CFG) -> OracleResult:
    """Grid over group totals with exact inner single-group solves."""
    groups = problem.groups
    n_groups = len(groups)
    d = n_groups - 1
    if d > 3:
        raise SizeLimit("grid search supports at most 4 group totals")
    budget = problem.budget
    floors = [sum(row) for row in problem.lower_bounds]
    gammas = [np.array(row, dtype=float) for row in problem.lower_bounds]
    taus = [np.array(row, dtype=float) for row in problem.upper_bounds]
    heads = [sum(tau.tolist()) if np.isfinite(tau).all() else math.inf for tau in taus]
    is_min = problem.mode != MODE_CLUSTER
    clusters = problem.group_banks

    def group_utility(j: int, group_budget: float) -> float:
        if group_budget < floors[j]:
            return -math.inf
        group_budget = min(group_budget, heads[j])
        if group_budget <= 0:
            return -math.inf
        bound = clusters[j].bind(group_budget)
        if np.isfinite(taus[j]).any():
            powers = box_fill(bound, gammas[j], taus[j], float(group_budget), cfg)[0]
        else:
            powers = water_fill(bound, gammas[j], group_budget, cfg)[0]
        return float(bound.eval(powers).sum())

    def combined(totals) -> float:
        utils = [group_utility(j, b) for j, b in enumerate(totals)]
        return min(utils) if is_min else sum(utils)

    eps = 1e-9 * budget
    lo = [floors[j] + eps for j in range(d)]
    hi = [min(budget, heads[j]) for j in range(d)]
    center = [(a + b) / 2 for a, b in zip(lo, hi)]
    radius = [(b - a) / 2 for a, b in zip(lo, hi)]
    res = 1e-3 * budget if d <= 1 else 1e-2 * budget
    best_val, best_totals = -math.inf, None
    evaluated = 0
    for _round in range(3):
        axes = _grid_axes(center, radius, res, lo, hi) if d else []
        points = itertools.product(*axes) if d else [()]
        for pt in points:
            rest = sum(pt)
            last = budget - rest
            if last < floors[-1] - 1e-12:
                continue
            totals = list(pt) + [min(last, heads[-1])]
            val = combined(totals)
            evaluated += 1
            if val > best_val:
                best_val, best_totals = val, totals
        if d == 0:
            break
        center = best_totals[:d]
        radius = [2.0 * res] * d
        res /= 10.0
    return OracleResult(powers=best_totals, objective_value=best_val,
                        method="grid_search", candidates=evaluated,
                        certified=False)


def _ascending_report(problem: AscendingProblem, powers,
                      tolerance: float) -> KktReport:
    """Feasibility and the optimality conditions of the level staircase.

    The caps within ``tolerance * P_K`` of their prefix sums split the
    channels into segments, each a box problem with its own water level,
    whose rate conditions are checked in one :func:`~waterline.box._rate_conditions`
    pass.  The levels may not rise from segment to segment, and after the
    last tight cap the level is 0: ``level_order_violation`` is the most a
    segment's least admissible level exceeds the largest the segments before
    it admit.
    """
    powers = np.asarray(powers, dtype=float)
    gamma = np.array(problem.lower_bounds, dtype=float)
    tau = np.array(problem.upper_bounds, dtype=float)
    caps = np.array(problem.prefix_budgets)
    slack = caps - np.cumsum(powers)
    tight = slack <= tolerance * caps[-1]
    stops = np.flatnonzero(tight) + 1  # sorted and unique
    if not tight[-1]:
        stops = np.append(stops, problem.n)
    rates = _rate_conditions(problem.channels, powers, gamma, tau,
                             np.append(0, stops[:-1]))
    residuals = rates.residuals()
    residuals["level_order_violation"] = 0.0
    # With no interior channel, only the bounds limit the level: it is at
    # least the largest rate at a lower bound and at least 0.
    least = np.where(rates.interior, rates.mu_lo, np.maximum(rates.mu_lo, 0.0))
    level = math.inf
    for lo, hi, stop in zip(least.tolist(), rates.mu_hi.tolist(), stops.tolist()):
        level = level if tight[stop - 1] else 0.0
        residuals["level_order_violation"] = max(residuals["level_order_violation"],
                                                 lo - level)
        level = min(level, hi)
    residuals["prefix_violation"] = max(0.0, float(-slack.min()) / caps[-1])
    residuals["bounds_violation"] = _bounds_violation(powers, gamma, tau)
    return KktReport(residuals=residuals, tolerance=tolerance)


def _marginal_spread(problem: FairProblem, powers: np.ndarray, gamma: np.ndarray,
                     bound_at: np.ndarray, at_floor: np.ndarray) -> float:
    """Spread of the groups' marginal values of budget (cluster mode).

    A group's marginal is the largest rate of its channels above their lower
    bounds, bound at the group total, plus the interference drag; with no
    channel above its lower bounds, its largest rate at them.  Every group's
    rates come from one ``rate`` pass over the problem's bank, each channel
    bound at its group's total (``bound_at``, one per channel).  Groups above
    their floors must share the marginal.  A group within tolerance of its
    floor (``at_floor``, read from its total) may lie below the least of
    theirs but not above it.
    """
    bank, starts = problem.bank, problem.offsets[:-1]
    above = powers > gamma + 1e-9 * (1.0 + gamma)
    # A group with no channel above its lower bounds reads every rate at them.
    resting = ~np.logical_or.reduceat(above, starts)
    read = above | np.repeat(resting, np.diff(problem.offsets))
    rates = bank.bind(bound_at).rate(np.where(above, powers, gamma))
    drag = np.zeros(len(powers))
    drag[bank.index] = bank.partials(powers, bound_at)
    marginal = np.maximum.reduceat(np.where(read, rates, -np.inf), starts) + \
        np.add.reduceat(drag, starts)
    interior = marginal[~at_floor]
    if not interior.size:
        return 0.0
    finite = np.abs(marginal[np.isfinite(marginal)])
    return float((marginal.max() - interior.min()) / max(finite.max(initial=0.0), 1e-30))


def _fair_report(problem: FairProblem, solution: FairSolution,
                 tolerance: float) -> KktReport:
    """Residuals of the fair optimality conditions, checked in one pass over
    the problem's bank (:attr:`~waterline.problems.FairProblem.bank`): every
    group's entries bound at its total, and the box rate conditions of
    every group from one segmented
    :func:`~waterline.box._rate_conditions` call."""
    starts, sizes = problem.offsets[:-1], np.diff(problem.offsets)
    if [len(row) for row in solution.powers] != sizes.tolist():
        raise DomainError("power rows do not match the groups")
    flat = itertools.chain.from_iterable
    powers = np.fromiter(flat(solution.powers), float, int(problem.offsets[-1]))
    gamma = np.fromiter(flat(problem.lower_bounds), float, len(powers))
    tau = np.fromiter(flat(problem.upper_bounds), float, len(powers))
    totals = solution.group_totals
    bound_at = np.repeat(np.asarray(totals, dtype=float), sizes)
    not_applicable: list[str] = []

    # The box rate conditions within each group (its channels bound at the
    # group total), normalised by the group's largest interior rate or, when
    # no channel is interior, by its least rate at an upper bound.
    rates = _rate_conditions(problem.bank.bind(bound_at), powers, gamma, tau, starts)
    residuals = rates.residuals(np.maximum(np.abs(rates.mu_hi), 1e-30))
    # A saturated group has no channel interior or at its lower bound.
    saturated = (~rates.interior & (rates.mu_lo == -np.inf)).tolist()
    at_floor = np.asarray(totals) - np.add.reduceat(gamma, starts) <= \
        tolerance * problem.budget

    if problem.mode == MODE_CLUSTER:
        not_applicable.append("utility_spread")
        residuals["utility_spread"] = 0.0
        residuals["marginal_spread"] = _marginal_spread(
            problem, powers, gamma, bound_at, at_floor)
    else:
        not_applicable.append("marginal_spread")
        residuals["marginal_spread"] = 0.0
        # Every group reaches t, and a group may exceed t only when it has no
        # power to give up (its total within tolerance of its floor), or when
        # t cannot rise: some group at t is saturated, every channel at its
        # upper bound, so the rest is surplus.  Both are read from the powers,
        # not from the solution's own active sets.
        denom = 1.0 + abs(solution.t)
        gaps = [(util - solution.t) / denom for util in solution.group_utilities]
        capped = any(sat and abs(gap) <= tolerance for sat, gap in zip(saturated, gaps))
        spread = 0.0
        for gap, floor in zip(gaps, at_floor.tolist()):
            spread = max(spread, -gap if capped or floor else abs(gap))
        residuals["utility_spread"] = max(0.0, spread)

    spend = problem.budget
    if np.isfinite(tau).all():
        # When every channel fits at its upper bound, that is the optimum.
        spend = min(spend, float(tau.sum()))
    residuals["power_residual"] = abs(sum(totals) - spend) / problem.budget
    residuals["bounds_violation"] = _bounds_violation(powers, gamma, tau)
    return KktReport(residuals=residuals, tolerance=tolerance,
                     not_applicable=not_applicable)


def check_conditions(problem, allocation, tolerance: float = 1e-8) -> KktReport:
    """Evaluate every optimality/feasibility condition applicable to problem."""
    if isinstance(problem, FairProblem):
        return _fair_report(problem, allocation, tolerance)
    powers = allocation.powers if isinstance(allocation, (Allocation,)) \
        else [float(p) for p in allocation]
    if isinstance(problem, AscendingProblem):
        return _ascending_report(problem, powers, tolerance)
    if isinstance(problem, BoxProblem):
        return kkt_residual_box(problem, powers, tolerance)
    return kkt_residual_p1(problem, powers, tolerance)
