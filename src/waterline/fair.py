"""Solvers for grouped fairness problems.

Three couplings over groups of subchannels sharing one total budget:

* max-min fairness -- maximize the minimum group utility; solved by outer
  bisection on the common utility target t, with an inner per-group
  bisection for the water level that attains t at minimum power.
* clustered allocation -- each group's utilities depend on the group total
  through an interference term; solved by equalizing the marginal value of
  group budget across groups (water level plus the interference partials).
* combined -- max-min over clustered groups; outer bisection on t with an
  inner bisection for the group budget that attains t.

All three rely on monotonicity: group power demand decreases in the water
level and increases in the target utility, so every loop is a bracketed
bisection.

Every group runs on :class:`~waterline.objectives.Channels` arrays.  Max-min
groups are built once per solve and carry a boolean mask of the channels
pinned at their upper bound.  Cluster groups are
:class:`~waterline.objectives.ClusterChannels`, bound to each trial group
budget by one array expression; their group solves go straight to
:func:`~waterline.core.water_fill`, which takes the exact sorted search for
the homogeneous ``log_capacity`` banks that binding yields and keeps the
deactivation loop for groups that mix in other families.  The inputs were
validated once, by :class:`~waterline.problems.FairProblem`.
"""

from __future__ import annotations

import math

import numpy as np

from .box import solve_box
from .core import water_fill
from .errors import DomainError, InfeasibleTarget
from .objectives import Channels, ClusterChannels
from .problems import (
    MODE_CLUSTER, MODE_CLUSTER_MAXMIN, MODE_MAXMIN,
    BoxProblem, FairProblem, FairSolution, SolverConfig)

_DEFAULT_CFG = SolverConfig()


def _group_state(channels: Channels, gamma, tau, pinned, mu: float | None):
    """Powers/utility/total at water level mu (None = rest at lower bounds).

    Channels flagged in the boolean mask ``pinned`` sit at their upper bound.
    """
    free = gamma if mu is None else np.maximum(channels.demand(mu), gamma)
    powers = np.where(pinned, tau, free)
    return powers, float(channels.eval(powers).sum()), float(powers.sum())


def _group_mu_for_t(channels: Channels, gamma, tau, pinned, t: float):
    """Water level (and allocation) reaching group utility t at least power.

    Returns ``(mu, powers, utility, total)``; ``mu`` is None when the group
    already meets t resting at its lower bounds, or has no free channel.
    """
    free = ~pinned
    if not free.any():
        return (None, *_group_state(channels, gamma, tau, pinned, None))

    def phi(mu_val: float) -> float:
        return _group_state(channels, gamma, tau, pinned, mu_val)[1]

    if np.isfinite(channels.rate(gamma)[free]).all():
        floor = _group_state(channels, gamma, tau, pinned, None)
        if floor[1] >= t:
            return (None, *floor)

    mu_lo = mu_hi = 1.0
    if phi(1.0) > t:
        for _ in range(600):
            mu_lo = mu_hi
            mu_hi *= 4.0
            if phi(mu_hi) <= t:
                break
        else:
            # utility never drops to t: every free channel is clamped
            return (None, *_group_state(channels, gamma, tau, pinned, None))
    else:
        for _ in range(450):
            mu_hi = mu_lo
            mu_lo *= 0.25
            if phi(mu_lo) >= t:
                break
        else:
            raise InfeasibleTarget(
                f"group utility target {t} unreachable at any power")
    for _ in range(200):
        mu = 0.5 * (mu_lo + mu_hi)
        if phi(mu) >= t:
            mu_lo = mu
        else:
            mu_hi = mu
        if mu_hi - mu_lo <= 1e-15 * mu_hi:
            break
    mu = 0.5 * (mu_lo + mu_hi)
    return (mu, *_group_state(channels, gamma, tau, pinned, mu))


def _maxmin_engine(chans, budget, gammas, taus, pinned, cfg,
                   t_cap: float | None = None):
    """Outer bisection on the common utility target t.

    ``chans[j]``, ``gammas[j]``, ``taus[j]`` and the boolean mask
    ``pinned[j]`` describe group j.  Returns ``(t, states, iterations,
    surplus)`` where ``states[j]`` is the ``(mu, powers, utility, total)``
    tuple of group j and ``surplus`` flags that the utility cap was reached
    with budget left over.
    """
    n_groups = len(chans)
    floors = [float(np.where(pin, tau, gamma).sum())
              for gamma, tau, pin in zip(gammas, taus, pinned)]
    total_floor = sum(floors)

    t_his = []
    for j, channels in enumerate(chans):
        gamma, pin = gammas[j], pinned[j]
        pin_idx, free = np.flatnonzero(pin), np.flatnonzero(~pin)
        pin_power = taus[j][pin_idx]
        pin_util = float(channels.take(pin_idx).eval(pin_power).sum()) \
            if pin_idx.size else 0.0
        avail = budget - (total_floor - floors[j]) - float(pin_power.sum())
        free_floor = float(gamma[free].sum())
        if not free.size or avail <= free_floor * (1.0 + 1e-12) or avail <= 0:
            t_his.append(_group_state(channels, gamma, taus[j], pin, None)[1])
            continue
        alloc = water_fill(channels.take(free), gamma[free], avail, cfg)
        t_his.append(alloc.objective_value + pin_util)
    t_hi = min(t_his)
    if t_cap is not None:
        t_hi = min(t_hi, t_cap)

    def demand(t_val: float):
        states = [list(_group_mu_for_t(chans[j], gammas[j], taus[j], pinned[j], t_val))
                  for j in range(n_groups)]
        return states, sum(s[3] for s in states)

    states_hi, d_hi = demand(t_hi)
    iterations = 1
    if d_hi <= budget * (1.0 + 1e-12):
        return t_hi, states_hi, iterations, True

    gap = max(1.0, 0.5 * abs(t_hi))
    t_lo = t_hi - gap
    states_lo, d_lo = demand(t_lo)
    for _ in range(200):
        if d_lo <= budget:
            break
        gap *= 2.0
        t_lo -= gap
        states_lo, d_lo = demand(t_lo)
        iterations += 1
    else:
        raise InfeasibleTarget("could not bracket the common utility target")

    best_t, best_states = t_lo, states_lo
    lo, hi = t_lo, t_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        states, d = demand(mid)
        iterations += 1
        if abs(d - budget) <= cfg.power_tolerance * budget:
            best_t, best_states = mid, states
            break
        if d > budget:
            hi = mid
        else:
            lo = mid
            best_t, best_states = mid, states
        if hi - lo <= 1e-15 * (1.0 + abs(hi)):
            break
    return best_t, best_states, iterations, False


def _distribute_surplus(groups, budget, gammas, taus, states, cfg) -> None:
    """Hand leftover budget to groups with headroom without lowering anyone."""
    remaining = budget - sum(s[3] for s in states)
    for j, group in enumerate(groups):
        if remaining <= cfg.power_tolerance * budget:
            return
        tau = taus[j]
        head = float(tau.sum()) - states[j][3] if np.isfinite(tau).all() else math.inf
        give = min(remaining, head)
        if give <= cfg.power_tolerance * budget:
            continue
        lower = np.minimum(np.maximum(states[j][1], gammas[j]), tau)
        sub = BoxProblem(group, states[j][3] + give, lower.tolist(), tau.tolist())
        alloc = solve_box(sub, cfg)
        states[j] = [alloc.water_level, alloc.powers, alloc.objective_value,
                     sum(alloc.powers)]
        remaining = budget - sum(s[3] for s in states)


def _build_solution(problem: FairProblem, t, states, pinned, iterations,
                    status: str = "optimal") -> FairSolution:
    """``states[j]`` is group j's ``(mu, powers, utility, total)``;
    ``pinned[j]`` masks its channels pinned at the upper bound (None: none)."""
    powers, water_levels, totals, utilities, active_sets = [], [], [], [], []
    for j, (mu, pw, util, total) in enumerate(states):
        pw = np.asarray(pw, dtype=float)
        gamma = np.asarray(problem.lower_bounds[j], dtype=float)
        active = pw > gamma + 1e-12 * (1.0 + gamma)
        if pinned is not None:
            active &= ~pinned[j]
        powers.append(pw.tolist())
        water_levels.append(None if mu is None else float(mu))
        totals.append(float(total))
        utilities.append(float(util))
        active_sets.append(np.flatnonzero(active).tolist())
    return FairSolution(powers=powers, water_levels=water_levels,
                        group_totals=totals, group_utilities=utilities,
                        t=t, active_sets=active_sets,
                        iterations=iterations, status=status)


def _maxmin_groups(problem: FairProblem):
    """Per-group channels, lower and upper bound arrays and empty pin masks."""
    chans = [Channels(group) for group in problem.groups]
    gammas = [np.array(row, dtype=float) for row in problem.lower_bounds]
    taus = [np.array(row, dtype=float) for row in problem.upper_bounds]
    pinned = [np.zeros(len(group), dtype=bool) for group in problem.groups]
    return chans, gammas, taus, pinned


def solve_maxmin(problem: FairProblem,
                 cfg: SolverConfig = _DEFAULT_CFG) -> FairSolution:
    """Maximize the minimum group utility under the total budget."""
    if problem.mode != MODE_MAXMIN:
        raise DomainError(f"solve_maxmin requires maxmin mode, got {problem.mode!r}")
    if any(math.isfinite(t) for row in problem.upper_bounds for t in row):
        return solve_maxmin_boxed(problem, cfg)
    chans, gammas, taus, pinned = _maxmin_groups(problem)
    t, states, iterations, surplus = _maxmin_engine(
        chans, problem.budget, gammas, taus, pinned, cfg)
    if surplus:
        _distribute_surplus(problem.groups, problem.budget, gammas, taus,
                            states, cfg)
    return _build_solution(problem, t, states, pinned, iterations)


def solve_maxmin_boxed(problem: FairProblem,
                       cfg: SolverConfig = _DEFAULT_CFG) -> FairSolution:
    """Max-min fairness with per-channel box bounds (pin-and-resolve loop)."""
    if problem.mode != MODE_MAXMIN:
        raise DomainError(
            f"solve_maxmin_boxed requires maxmin mode, got {problem.mode!r}")
    groups, budget = problem.groups, problem.budget
    chans, gammas, taus, pinned = _maxmin_groups(problem)

    if all(np.isfinite(tau).all() for tau in taus) and \
            sum(float(tau.sum()) for tau in taus) <= budget:
        states = [[None, tau, float(channels.eval(tau).sum()), float(tau.sum())]
                  for channels, tau in zip(chans, taus)]
        t = min(s[2] for s in states)
        return _build_solution(problem, t, states, None, 1, status="feasible")

    floors = [float(gamma.sum()) for gamma in gammas]
    total_floor = sum(floors)
    t_caps = []
    for j, group in enumerate(groups):
        avail = budget - (total_floor - floors[j])
        if avail <= floors[j] * (1.0 + 1e-12) or avail <= 0:
            t_caps.append(_group_state(chans[j], gammas[j], taus[j], pinned[j],
                                       None)[1])
            continue
        sub = BoxProblem(group, avail, problem.lower_bounds[j], problem.upper_bounds[j])
        t_caps.append(solve_box(sub, cfg).objective_value)
    t_cap = min(t_caps)

    total_k = sum(len(g) for g in groups)
    iterations = 0
    t, states = t_cap, None
    for _ in range(cfg.outer_cap(total_k) + 1):
        t, states, its, _ = _maxmin_engine(chans, budget, gammas, taus, pinned,
                                           cfg, t_cap=t_cap)
        iterations += its
        new_pins = False
        for j, state in enumerate(states):
            hit = ~pinned[j] & (np.asarray(state[1]) >= taus[j])
            if hit.any():
                pinned[j] = pinned[j] | hit
                new_pins = True
        if not new_pins:
            break
    _distribute_surplus(groups, budget, gammas, taus, states, cfg)
    return _build_solution(problem, t, states, pinned, iterations)


def _cluster_solver(problem: FairProblem, cfg: SolverConfig):
    """``(clusters, gammas, solve_group)`` for a cluster-mode problem, where
    ``solve_group(j, b)`` solves group j bound to the group budget ``b``."""
    clusters = [ClusterChannels(group) for group in problem.groups]
    gammas = [np.array(row, dtype=float) for row in problem.lower_bounds]

    def solve_group(j: int, group_budget: float):
        return water_fill(clusters[j].bind(group_budget), gammas[j], group_budget, cfg)
    return clusters, gammas, solve_group


def solve_cluster(problem: FairProblem,
                  cfg: SolverConfig = _DEFAULT_CFG) -> FairSolution:
    """Split the budget across clusters whose utilities feel the group total."""
    if problem.mode != MODE_CLUSTER:
        raise DomainError(f"solve_cluster requires cluster mode, got {problem.mode!r}")
    groups, budget = problem.groups, problem.budget
    clusters, gammas, solve_group = _cluster_solver(problem, cfg)
    n_groups = len(groups)

    def finish(totals, iterations):
        states = []
        for j, total in enumerate(totals):
            alloc = solve_group(j, total)
            states.append([alloc.water_level, alloc.powers,
                           alloc.objective_value, total])
        t = min(s[2] for s in states)
        return _build_solution(problem, t, states, None, iterations)

    if n_groups == 1:
        return finish([budget], 1)
    if not any(cluster.coupled for cluster in clusters):
        # No interference coupling: the groups pool into one problem.
        pooled = ClusterChannels([o for group in groups for o in group])
        alloc = water_fill(pooled.bind(0.0), np.concatenate(gammas), budget, cfg)
        totals, pos = [], 0
        for group in groups:
            totals.append(sum(alloc.powers[pos:pos + len(group)]))
            pos += len(group)
        return finish(totals, alloc.iterations)

    b_min = 1e-9 * budget / n_groups

    def marginal(j: int, group_budget: float) -> float:
        """d(group utility)/d(group budget): water level + interference drag."""
        alloc = solve_group(j, group_budget)
        mu = alloc.water_level if alloc.water_level is not None else 0.0
        return mu + clusters[j].drag(alloc.powers, group_budget)

    def budget_at(j: int, nu: float) -> float:
        if marginal(j, budget) >= nu:
            return budget
        if marginal(j, b_min) <= nu:
            return b_min
        lo, hi = b_min, budget
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if marginal(j, mid) > nu:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    nu_lo = min(marginal(j, budget) for j in range(n_groups))
    nu_hi = max(marginal(j, b_min) for j in range(n_groups))
    totals = [budget / n_groups] * n_groups
    iterations = 0
    for _ in range(100):
        nu = 0.5 * (nu_lo + nu_hi)
        totals = [budget_at(j, nu) for j in range(n_groups)]
        total = sum(totals)
        iterations += 1
        if abs(total - budget) <= cfg.power_tolerance * budget:
            break
        if total > budget:
            nu_lo = nu
        else:
            nu_hi = nu
        if nu_hi - nu_lo <= 1e-14 * (1.0 + abs(nu_hi)):
            break
    scale = budget / sum(totals)
    return finish([b * scale for b in totals], iterations)


def solve_cluster_maxmin(problem: FairProblem,
                         cfg: SolverConfig = _DEFAULT_CFG) -> FairSolution:
    """Max-min over clustered groups: bisection on t over group budgets."""
    if problem.mode != MODE_CLUSTER_MAXMIN:
        raise DomainError(
            f"solve_cluster_maxmin requires cluster_maxmin mode, got {problem.mode!r}")
    budget, n_groups = problem.budget, problem.n_groups
    _, gammas, solve_group = _cluster_solver(problem, cfg)
    floors = [float(gamma.sum()) for gamma in gammas]
    total_floor = sum(floors)
    b_min = 1e-9 * budget / n_groups

    def utility(j: int, group_budget: float) -> float:
        return solve_group(j, group_budget).objective_value

    def budget_for_t(j: int, t_val: float) -> float:
        lo = floors[j] + b_min
        if utility(j, lo) >= t_val:
            return lo
        if utility(j, budget) <= t_val:
            return budget
        hi = budget
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if utility(j, mid) < t_val:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    t_hi = min(utility(j, budget - (total_floor - floors[j]))
               for j in range(n_groups))
    totals = [budget_for_t(j, t_hi) for j in range(n_groups)]
    iterations = 1
    if sum(totals) <= budget * (1.0 + 1e-12):
        t = t_hi
    else:
        gap = max(1.0, 0.5 * abs(t_hi))
        t_lo = t_hi - gap
        for _ in range(200):
            totals = [budget_for_t(j, t_lo) for j in range(n_groups)]
            iterations += 1
            if sum(totals) <= budget:
                break
            gap *= 2.0
            t_lo -= gap
        else:
            raise InfeasibleTarget("could not bracket the common utility target")
        t = t_lo
        for _ in range(200):
            mid = 0.5 * (t_lo + t_hi)
            trial = [budget_for_t(j, mid) for j in range(n_groups)]
            total = sum(trial)
            iterations += 1
            if abs(total - budget) <= cfg.power_tolerance * budget:
                t, totals = mid, trial
                break
            if total > budget:
                t_hi = mid
            else:
                t_lo = mid
                t, totals = mid, trial
            if t_hi - t_lo <= 1e-15 * (1.0 + abs(t_hi)):
                break

    states = []
    for j, total in enumerate(totals):
        alloc = solve_group(j, total)
        states.append([alloc.water_level, alloc.powers,
                       alloc.objective_value, total])
    return _build_solution(problem, t, states, None, iterations)


def solve_fair(problem: FairProblem,
               cfg: SolverConfig = _DEFAULT_CFG) -> FairSolution:
    """Dispatch on the fairness mode."""
    if problem.mode == MODE_MAXMIN:
        return solve_maxmin(problem, cfg)
    if problem.mode == MODE_CLUSTER:
        return solve_cluster(problem, cfg)
    return solve_cluster_maxmin(problem, cfg)
