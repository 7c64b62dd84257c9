"""Solvers for grouped fairness problems.

Three couplings over groups of subchannels sharing one total budget, each
adding one outer level over group budgets that are monotone in it:

* max-min fairness -- the common utility target t; each group takes the
  water level that attains t at minimum power, every channel's demand
  clamped into its box.
* clustered allocation -- each group's utilities depend on the group total
  through an interference term; the level is the price of group budget, and
  each group takes the budget at which its marginal value (water level plus
  the interference partials) falls to that price.
* combined -- max-min over clustered groups; each group takes the budget
  that attains t.

One search, :func:`_outer_search`, finds every outer level: Illinois regula
falsi on the summed group budgets, the single-level root find of the water
level itself.  A group with a breakpoint table answers each outer level
with one scalar, from one bisect and one formula:

* a max-min group's utility and total are closed form in its water level
  between the levels where its channels join (demand the lower bound) and
  saturate (a finite upper bound), so for a ``log_capacity``/
  ``inverse_mse`` bank, in any mix, the group total at t and the utility a
  total reaches (its t cap) are one table lookup and one formula each (a
  scalar search for t where both families are active), the powers built
  once at the final t (:func:`_group_level`); other families search the
  level (:func:`_group_mu_for_t`);
* a cluster group of cluster-aware entries with one (sigma_e2, sigma_n2)
  and zero floors inverts its budget map (to its marginal, or to its
  utility) in closed form between the budgets where its channels join
  (:func:`_cluster_table`); other cluster groups keep every point evaluated
  during the solve, and each new price or target is solved by Illinois
  regula falsi inside the tightest stored bracket (:class:`_MonotoneMap`).

Every group is a segment of the problem's one channel bank
(:attr:`~waterline.problems.FairProblem.group_banks`), built on the
problem's first read and shared with ``check_conditions``; only the bound
arrays are built per solve.  Max-min groups are its
:class:`~waterline.objectives.Channels`.  Cluster groups are
:class:`~waterline.objectives.ClusterChannels`, bound to a group budget by
one array expression and solved by :func:`~waterline.core.water_fill` (a
group with a table only at its final budget).  The inputs were validated
once, by :class:`~waterline.problems.FairProblem`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import partial

import numpy as np

from .box import box_fill
from .core import (
    _bank_points, _classify, _level_search, _quadratic_level, illinois_root, water_fill)
from .errors import BracketFailure, DomainError, InfeasibleTarget, InversionFailure
from .objectives import Channels, ClusterChannels
from .problems import (
    MODE_CLUSTER, MODE_CLUSTER_MAXMIN, MODE_MAXMIN,
    FairProblem, FairSolution, SolverConfig)

_DEFAULT_CFG = SolverConfig()
# Outer levels and group budgets are searched to a bracket of a few ulp, where
# the fixed-step bisections they replaced ended.
_ULP_WIDTH = 4.0 * np.finfo(float).eps
# A log table level above the float range takes the largest float level.
_LOG_MAX = math.log(np.finfo(float).max)


def _group_state(channels: Channels, gamma, tau, mu: float | None, demand=None):
    """Powers/utility/total at water level mu, each channel's demand (given,
    or computed) clamped into its box (None = rest at lower bounds)."""
    powers = gamma if mu is None else np.minimum(np.maximum(
        channels.demand(mu) if demand is None else demand, gamma), tau)
    return powers, float(channels.eval(powers).sum()), float(powers.sum())


def _group_mu_for_t(channels: Channels, gamma, tau, t: float):
    """Water level (and allocation) reaching group utility t at least power,
    by :func:`~waterline.core._level_search` on the utility minus t.

    Returns ``(mu, powers, utility, total)``; ``mu`` is None when the group
    meets t resting at its lower bounds, or exceeds it at every finite level.
    A t above the utility at finite upper bounds raises
    :class:`InfeasibleTarget` before any search.  This is the path of every
    group with no breakpoint table (not a ``log_capacity``/``inverse_mse``
    bank, see :func:`_group_level`), and the reference the table is tested against.
    """
    if np.isfinite(channels.rate(gamma)).all():
        floor = _group_state(channels, gamma, tau, None)
        if floor[1] >= t:
            return (None, *floor)
    if np.isfinite(tau).all() and (top := float(channels.eval(tau).sum())) < t:
        raise InfeasibleTarget(f"group utility target {t} above the utility {top} at tau")
    states, demand = {}, None

    def h(mu_val: float) -> float:
        nonlocal demand  # the last level's demands warm-start the next
        # Demands near the float range's end overflow; a search past them
        # gives up (InversionFailure) or ends on an infinite total.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            demand = channels.demand(mu_val, demand)
            states[mu_val] = _group_state(channels, gamma, tau, mu_val, demand)
        return states[mu_val][1] - t

    try:
        mu = _level_search(h, 0.0, _ULP_WIDTH)
    except (BracketFailure, InversionFailure):  # the level or a demand gave up
        if states and states[max(states)][1] > t:  # no level brings it down to t
            return (None, *_group_state(channels, gamma, tau, None))
        raise InfeasibleTarget(
            f"group utility target {t} unreachable at any power") from None
    if math.isinf(states[mu][2]):  # reached only by a demand beyond the float range
        raise InfeasibleTarget(f"group utility target {t} unreachable at a finite power")
    return (mu, *states[mu])  # a level the search evaluated


def _group_level(channels: Channels, gamma, tau):
    """``(level, cap)`` for one max-min group.

    ``level(t)`` is the group's state at target t as :func:`_group_mu_for_t`
    returns it, ``(mu, powers, utility, total)``; ``cap(total)`` is the
    utility the group reaches spending ``total`` above its floor, or NaN
    where the table does not give it (None: no table).

    A ``log_capacity``/``inverse_mse`` bank, in any mix, gets a table on the
    points of :func:`~waterline.core._bank_points`, where, as the level
    falls, a channel joins (demands gamma) and saturates (demands a finite
    tau).  Between two points the group total is ``P + Q/mu + U/sqrt(mu)``
    and the utility ``F + C - Q*log(mu) - U*sqrt(mu)``: ``Q``, ``U`` and
    ``C`` are signed prefix sums (+ at a join, - at a saturation) of q, u
    and q*log(a*w), ``P`` is sum(gamma) less those of the bounds plus b/a,
    and ``F`` sums the floor utilities of the channels not yet joined and the
    tau ones of those saturated.  Both rise from point to point (a tie reads
    the segment before it), so one bisect finds a target's or a total's
    segment.  There a total's level is
    :func:`~waterline.core._quadratic_level`, and a target's one formula, or
    :func:`~waterline.core._level_search` where both families are active; a
    table ``level`` returns ``(mu, None, None, total)``, its powers left to
    :func:`_group_state`.  A segment with no active channel is flat: every
    level in it gives the same powers.  A channel with an infinite rate (b =
    0, gamma = 0) sits at x = 0, always active.  Other groups, and a level
    outside the float range (above it, a ``log_capacity`` one takes the
    largest float), take :func:`_group_mu_for_t`.
    """
    bank = _bank_points(channels, gamma, tau)
    if bank is None:
        return partial(_group_mu_for_t, channels, gamma, tau), None
    (q, u, _, c, x, order), k = bank, len(gamma)
    zero = x == 0  # b = 0 at a zero bound: an infinite rate, a utility of -inf
    utils = np.concatenate((channels.eval(np.where(zero[:k], 1.0, gamma)),
                            channels.eval(np.where(zero[k:], 1.0, tau))))
    utils[zero] = -math.inf
    order = order[:int(np.isfinite(x).sum())]  # an infinite tau never saturates
    xs, who, joins, n0 = x[order], order % k, order < k, int(np.count_nonzero(zero))
    sign, ends = np.where(joins, 1.0, -1.0), utils[order]
    F = np.append(np.where(joins, ends, 0.0)[::-1].cumsum()[::-1], 0.0) + \
        np.append(0.0, np.where(joins, 0.0, ends).cumsum())
    qk, uk = (np.zeros(k) if v is None else v for v in (q, u))
    n_q, n_u, Q, U, C = np.append(np.zeros((5, 1)), np.cumsum(sign * np.stack(
        (qk > 0, uk > 0, qk, uk, qk * np.log(channels.a * channels.w)))[:, who], axis=1), 1)
    # Where no channel of a family is active its sums are 0, not a rounding residue.
    Q, FC, U = np.where(n_q > 0, Q, 0.0), F + np.where(n_q > 0, C, 0.0), np.where(n_u > 0, U, 0.0)
    P = float(gamma.sum()) - np.append(0.0, np.cumsum(sign * c[order]))
    at = np.searchsorted(xs, xs)  # a tied point reads the segment before the tie
    with np.errstate(all="ignore"):  # x = 0, and x**2 beyond the float range
        events = FC[at] + 2.0 * Q[at] * np.log(xs) - U[at] / xs
        totals = P[at] + (Q[at] * xs + U[at]) * xs
        mus = 1.0 / (xs * xs)
    events[:n0] = totals[:n0] = -math.inf
    FC, Q, U, P, events, totals, mus = (v.tolist() for v in (FC, Q, U, P, events, totals, mus))
    n, first = len(xs), int(np.searchsorted(xs, xs[0], side="right"))
    floor = None if n0 else (gamma, float(utils[:k].sum()), float(gamma.sum()))
    top = float(utils[k:].sum()) if np.isfinite(tau).all() else math.inf

    def level(t: float):
        if floor is not None and floor[1] >= t:
            return (None, *floor)
        m = max(bisect_left(events, t), first)
        fc, q_m, u_m = FC[m], Q[m], U[m]
        if not (q_m or u_m):  # flat: every channel that joined is saturated
            if t > top:
                raise InfeasibleTarget(f"group utility target {t} above the utility {top} at tau")
            mu = mus[m - 1]
        elif not u_m:
            mu = math.exp(min((fc - t) / q_m, _LOG_MAX))
        elif not q_m:
            root = (fc - t) / u_m
            if root <= 0:
                raise InfeasibleTarget(f"group utility target {t} unreachable at any power")
            mu = root * root
        else:  # both families: the utility falls with the level, from a finite guess
            guess = mus[min(m, n - 1)]
            try:
                mu = _level_search(lambda v: fc - q_m * math.log(v) - u_m * math.sqrt(v) - t,
                                   0.0, _ULP_WIDTH, guess if 0.0 < guess < math.inf else 1.0)
            except BracketFailure:
                mu = math.inf
        if not 0.0 < mu < math.inf:  # the level leaves the float range
            return _group_mu_for_t(channels, gamma, tau, t)
        return mu, None, None, P[m] + q_m / mu + u_m / math.sqrt(mu)

    def cap(total: float) -> float:
        m = max(bisect_left(totals, total), first)
        fc, q_m, u_m, spare = FC[m], Q[m], U[m], total - P[m]
        if not (q_m or u_m):  # flat: any level
            return min(fc, top)
        mu = _quadratic_level(q_m, u_m, spare) if spare > 0 else math.nan
        if not 0.0 < mu < math.inf:  # the level leaves the float range
            return math.nan
        return min(fc - q_m * math.log(mu) - u_m * math.sqrt(mu), top)
    return level, cap


def _outer_search(evaluate, budget: float, cfg: SolverConfig, increasing: bool,
                  hi: float, lo: float | None = None):
    """The outer level x at which the summed group budgets spend ``budget``.

    ``evaluate(x)`` returns ``(total, payload)``, the total monotone in x
    (``increasing`` for a target t, decreasing for a price).  Without ``lo``
    the bracket is found downward from ``hi``, doubling the gap and moving
    ``hi`` to each probe whose total exceeds the budget.  When the budget is
    spent at an end of the bracket, to within ``cfg.power_tolerance *
    budget``, or only beyond it, that end is returned.  Otherwise Illinois
    regula falsi (:func:`~waterline.core.illinois_root`) stops at the first
    probe within that tolerance, or on a bracket a few ulp wide, returning
    its end that fits the budget.  Returns ``(x, payload, evaluations)``,
    counting the calls of ``evaluate``.
    """
    tol = cfg.power_tolerance * budget
    sign = 1.0 if increasing else -1.0
    probes = {}  # x -> (h(x), payload)

    def h(x: float) -> float:
        """Budget left over at x, negated when the total decreases in x."""
        if x not in probes:
            total, payload = evaluate(x)
            probes[x] = (sign * (budget - total), payload)
        return probes[x][0]

    def done(x: float):
        return x, probes[x][1], len(probes)

    h_hi = h(hi)
    if h_hi >= -tol:
        return done(hi)
    if lo is None:
        gap = max(1.0, 0.5 * abs(hi))
        for _ in range(200):
            lo = hi - gap
            if h(lo) >= -tol:
                break
            hi, h_hi, gap = lo, h(lo), 2.0 * gap
        else:
            raise InfeasibleTarget("could not bracket the common utility target")
    h_lo = h(lo)
    if h_lo <= tol:
        return done(lo)
    x = illinois_root(h, lo, hi, h_lo, h_hi, tol, _ULP_WIDTH)
    if abs(h(x)) > tol:  # stopped on width: the end within the budget, ties to the root
        x = min((p for p, (hp, _) in probes.items() if sign * hp >= 0),
                key=lambda p: (sign * probes[p][0], -sign * p))
    return done(x)


def _distribute_surplus(chans, budget, gammas, taus, states, cfg) -> None:
    """Hand leftover budget to groups with headroom without lowering anyone."""
    remaining = budget - sum(s[3] for s in states)
    for j, channels in enumerate(chans):
        if remaining <= cfg.power_tolerance * budget:
            return
        tau = taus[j]
        head = float(tau.sum()) - states[j][3] if np.isfinite(tau).all() else math.inf
        give = min(remaining, head)
        if give <= cfg.power_tolerance * budget:
            continue
        lower = np.minimum(np.maximum(states[j][1], gammas[j]), tau)
        powers, mu, _, _, _ = box_fill(channels, lower, tau, states[j][3] + give, cfg)
        states[j] = [mu, powers, float(channels.eval(powers).sum()), sum(powers.tolist())]
        remaining = budget - sum(s[3] for s in states)


def _build_solution(problem: FairProblem, t, states, iterations) -> FairSolution:
    """``states[j]`` is group j's ``(mu, powers, utility, total)``."""
    powers, water_levels, totals, utilities, active_sets = [], [], [], [], []
    for j, (mu, pw, util, total) in enumerate(states):
        pw = np.asarray(pw, dtype=float)
        active = _classify(pw, np.asarray(problem.lower_bounds[j], dtype=float),
                           np.asarray(problem.upper_bounds[j], dtype=float))[3]
        powers.append(pw.tolist())
        water_levels.append(None if mu is None else float(mu))
        totals.append(float(total))
        utilities.append(float(util))
        active_sets.append(np.flatnonzero(active).tolist())
    return FairSolution(powers=powers, water_levels=water_levels,
                        group_totals=totals, group_utilities=utilities,
                        t=t, active_sets=active_sets,
                        iterations=iterations, status="optimal")


def solve_maxmin(problem: FairProblem,
                 cfg: SolverConfig = _DEFAULT_CFG) -> FairSolution:
    """Maximize the minimum group utility under the total budget.

    Each group's channels are clamped into their boxes, so one map takes a
    target t to every group's least-power allocation reaching it.  When every
    upper bound is finite and they fit the budget together, all channels sit
    at them; when the floors spend the budget (to ``cfg.power_tolerance``),
    at their floors, where a group with an infinite rate has utility -inf.
    Otherwise t is found by :func:`_outer_search` on the summed
    group demands, from the least utility a group reaches with the others at
    their floors (its box optimum, or its table's t cap), and budget left
    over at that cap goes to the groups with headroom.
    """
    if problem.mode != MODE_MAXMIN:
        raise DomainError(f"solve_maxmin requires maxmin mode, got {problem.mode!r}")
    budget = problem.budget
    # A max-min group holds no cluster-aware entry: bound, it is its channels.
    chans = [group.bind(0.0) for group in problem.group_banks]
    gammas = [np.array(row, dtype=float) for row in problem.lower_bounds]
    taus = [np.array(row, dtype=float) for row in problem.upper_bounds]

    floors = [float(gamma.sum()) for gamma in gammas]
    total_floor = sum(floors)
    at_tau = all(np.isfinite(tau).all() for tau in taus) and \
        sum(float(tau.sum()) for tau in taus) <= budget
    if at_tau or budget - total_floor <= cfg.power_tolerance * budget:
        # At tau, or at the floors; an infinite rate (b = 0 at 0) is utility -inf.
        states = [[None, p, float(channels.eval(p).sum())
                   if np.isfinite(channels.rate(p)).all() else -math.inf, float(p.sum())]
                  for channels, p in zip(chans, taus if at_tau else gammas)]
        return _build_solution(problem, min(s[2] for s in states), states, 1)

    groups = list(zip(chans, gammas, taus))
    levels = [_group_level(*group) for group in groups]
    t_caps = []
    for (channels, gamma, tau), (_, cap), floor in zip(groups, levels, floors):
        avail = budget - (total_floor - floor)
        t_cap = cap(avail) if cap else math.nan
        if math.isnan(t_cap):  # no table, or none at this total
            powers = box_fill(channels, gamma, tau, avail, cfg)[0]
            t_cap = float(channels.eval(powers).sum())
        t_caps.append(t_cap)

    def demand(t_val: float):
        states = [level(t_val) for level, _ in levels]
        return sum(s[3] for s in states), states

    t, states, iterations = _outer_search(demand, budget, cfg, True, min(t_caps))
    # A table group's powers are built once, at the final level.
    states = [list(s if s[1] is not None else (s[0], *_group_state(*group, s[0])))
              for s, group in zip(states, groups)]
    _distribute_surplus(chans, budget, gammas, taus, states, cfg)
    return _build_solution(problem, t, states, iterations)


class _MonotoneMap:
    """One group's monotone map ``x -> f(x)``, with every point evaluated
    during a solve kept, sorted by x.

    :meth:`root` finds ``f(x) = y`` by Illinois regula falsi inside the
    tightest bracket among the stored points, to a bracket of a few ulp or an
    exact hit.  The bracket is chosen by the sign of ``f - y``, so
    rounding-level non-monotonicity cannot break it.
    """

    __slots__ = ("fn", "sign", "xs", "fs")

    def __init__(self, fn, increasing: bool):
        self.fn = fn
        self.sign = -1.0 if increasing else 1.0
        self.xs: list[float] = []
        self.fs: list[float] = []

    def __call__(self, x: float) -> float:
        i = bisect_left(self.xs, x)
        if i < len(self.xs) and self.xs[i] == x:
            return self.fs[i]
        fx = self.fn(x)
        self.xs.insert(i, x)
        self.fs.insert(i, fx)
        return fx

    def root(self, y: float, low: float, high: float) -> float:
        """x in ``[low, high]`` with ``f(x) = y``, or the end of that range
        where f comes nearest to y."""
        if self.sign * (self(low) - y) <= 0:
            return low
        if self.sign * (self(high) - y) >= 0:
            return high
        sign, fs = self.sign, self.fs
        lo, hi = 0, len(fs) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if sign * (fs[mid] - y) > 0:
                lo = mid
            else:
                hi = mid
        x_lo, x_hi = self.xs[lo], self.xs[hi]
        h_hi = sign * (fs[hi] - y)
        if h_hi == 0:
            return x_hi
        if x_hi - x_lo <= _ULP_WIDTH * x_hi:
            return 0.5 * (x_lo + x_hi)
        return illinois_root(lambda x: sign * (self(x) - y), x_lo, x_hi,
                             sign * (fs[lo] - y), h_hi, 0.0, _ULP_WIDTH)


def _cluster_table(cluster: ClusterChannels, gamma):
    """``(at, at_price, at_target)`` for one cluster group, from a table
    sorted once; None when the group does not qualify.

    A group qualifies when every entry is cluster-aware, all share one
    (sigma_e2, sigma_n2) and gamma = 0.  Bound at B, entry i is
    ``log_capacity`` with a' = a_i/s, s = sigma_e2*B + sigma_n2, so the
    sorted search of :func:`~waterline.core.water_fill` orders the channels
    by 1/(a*w) at every B.  With the prefix sums U = sum(w), A = sum(1/a)
    and L = sum(w*log(a*w)) in that order, the first m channels are active
    while ``g_m = U_m/(a_m*w_m) - A_m < B/s`` (g is nondecreasing), at the
    level ``mu = U_m/(B + s*A_m)``.  Their powers spend B, so the marginal
    (level plus interference drag) is ``mu*sigma_n2/s`` and the utility
    ``L_m - U_m*log(s*mu)``: ``at(B)`` returns the two, or None at B <= 0 and
    where mu over- or underflows (the caller then runs ``water_fill``).

    ``at_price(nu)`` and ``at_target(t)`` return the group budget at which
    the marginal falls to nu or the utility reaches t.  B/s rises with B, so
    segment m ends where B/s reaches g_{m+1}, at B = sigma_n2*g/(1 -
    sigma_e2*g), or never once sigma_e2*g >= 1 (those channels never join).
    One bisect over the values at the segment ends, tabled once, finds the
    segment; there B is the positive root of the quadratic ``(B + s*A)*s =
    U*sigma_n2/nu``, or ``sigma_n2*y/(1 - sigma_e2*y)`` with the B/s ``y =
    U*exp((t - L)/U) - A``.  A value beyond the map's reach gives a budget
    <= 0 below it and math.inf (NaN on overflow) above it.
    """
    if cluster.index.size < len(gamma) or gamma.any() or \
            np.ptp(cluster.sigma_e2) or np.ptp(cluster.sigma_n2):
        return None
    e2, n2 = float(cluster.sigma_e2[0]), float(cluster.sigma_n2[0])
    aw = cluster.a * cluster.w
    order = np.argsort(1.0 / aw, kind="stable")
    w, a, aw = cluster.w[order], cluster.a[order], aw[order]
    U, A, L = np.cumsum(w), np.cumsum(1.0 / a), np.cumsum(w * np.log(aw))
    g = np.maximum.accumulate(U / aw - A)
    # The n segments up to the first join no budget reaches; the last runs on
    # to B = inf, where B/s tends to 1/sigma_e2 and the marginal to 0.
    n = int(np.argmax(np.append(e2 * g[1:] >= 1.0, True))) + 1
    y = np.append(g[1:n], 1.0 / e2 if e2 else math.inf)
    with np.errstate(over="ignore", divide="ignore"):  # log(0): an unbounded utility
        end = n2 * y[:-1] / (1.0 - e2 * y[:-1])
        s_end = e2 * end + n2
        neg_margin = (-U[:n - 1] * n2 / ((end + s_end * A[:n - 1]) * s_end)).tolist() + [0.0]
        utility_end = (L[:n] - U[:n] * np.log(U[:n] / (y + A[:n]))).tolist()
    g, U, A, L = g.tolist(), U.tolist(), A.tolist(), L.tolist()

    def at(budget: float):
        if budget <= 0:
            return None
        s = e2 * budget + n2
        m = max(bisect_left(g, budget / s), 1) - 1
        mu = U[m] / (budget + s * A[m])
        if not 0.0 < mu < math.inf:
            return None
        return mu * n2 / s, L[m] - U[m] * (math.log(s) + math.log(mu))

    def at_price(nu: float) -> float:
        if not nu > 0.0:  # the marginal stays above it at every budget
            return math.inf
        m = bisect_left(neg_margin, -nu)
        quad, lin, c = e2 * (1.0 + e2 * A[m]), n2 * (1.0 + 2.0 * e2 * A[m]), \
            n2 * (U[m] / nu - n2 * A[m])
        return 2.0 * c / (lin + math.sqrt(max(lin * lin + 4.0 * quad * c, 0.0)))

    def at_target(t: float) -> float:
        m = min(bisect_left(utility_end, t), n - 1)
        y = U[m] * math.exp(min((t - L[m]) / U[m], _LOG_MAX)) - A[m]
        return n2 * y / (1.0 - e2 * y) if e2 * y < 1.0 else math.inf
    return at, at_price, at_target


def _group_budget(inverse, memo: _MonotoneMap, y: float, low: float, high: float) -> float:
    """The group budget in ``[low, high]`` at which the group's map meets y:
    its table's closed-form ``inverse`` clamped into the range, or, with no
    table or a non-finite inverse, ``memo.root``."""
    budget = inverse(y) if inverse else math.nan
    return min(max(budget, low), high) if math.isfinite(budget) else memo.root(y, low, high)


def _cluster_solver(problem: FairProblem, cfg: SolverConfig):
    """``(clusters, gammas, tables, solve_group, finish)`` for a cluster mode.

    ``tables[j]`` is group j's :func:`_cluster_table` maps, or None;
    ``solve_group(j, b)`` solves group j bound to the group budget ``b`` by
    ``water_fill`` and returns ``(channels, powers, mu)``, the bound
    channels, the powers and the water level (None at the floor);
    ``finish(totals, iterations, t=None)`` solves every group at its final
    total and builds the solution, with ``t`` the least group utility unless
    given.
    """
    clusters = problem.group_banks
    gammas = [np.array(row, dtype=float) for row in problem.lower_bounds]
    tables = [_cluster_table(c, gamma) for c, gamma in zip(clusters, gammas)]

    def solve_group(j: int, group_budget: float):
        channels = clusters[j].bind(group_budget)
        powers, mu, _, _ = water_fill(channels, gammas[j], group_budget, cfg)
        return channels, powers, mu

    def finish(totals, iterations: int, t: float | None = None) -> FairSolution:
        states = []
        for j, total in enumerate(totals):
            channels, powers, mu = solve_group(j, total)
            states.append([mu, powers, float(channels.eval(powers).sum()), total])
        if t is None:
            t = min(s[2] for s in states)
        return _build_solution(problem, t, states, iterations)
    return clusters, gammas, tables, solve_group, finish


def solve_cluster(problem: FairProblem,
                  cfg: SolverConfig = _DEFAULT_CFG) -> FairSolution:
    """Split the budget across clusters whose utilities feel the group total.

    The price ν of group budget is found by :func:`_outer_search` on the
    summed group budgets, each the budget at which the group's marginal
    value (water level plus interference drag) falls to ν.
    """
    if problem.mode != MODE_CLUSTER:
        raise DomainError(f"solve_cluster requires cluster mode, got {problem.mode!r}")
    groups, budget = problem.groups, problem.budget
    clusters, gammas, tables, solve_group, finish = _cluster_solver(problem, cfg)
    n_groups = len(groups)

    if n_groups == 1:
        return finish([budget], 1)
    if not problem.bank.coupled:
        # No interference coupling: the groups pool into one problem.
        powers, _, water_levels, _ = water_fill(
            problem.bank.bind(0.0), np.concatenate(gammas), budget, cfg)
        parts = np.split(powers, problem.offsets[1:-1])
        return finish([sum(part.tolist()) for part in parts], len(water_levels) or 1)

    floors = [float(gamma.sum()) for gamma in gammas]
    total_floor = sum(floors)
    b_min = 1e-9 * budget / n_groups
    lows = [floor + b_min for floor in floors]

    def marginal(j: int, group_budget: float) -> float:
        """d(group utility)/d(group budget): water level + interference drag."""
        fast = tables[j] and tables[j][0](group_budget)
        if fast:
            return fast[0]
        channels, powers, mu = solve_group(j, group_budget)
        if mu is None:  # at the floor: the level where the first channel joins
            mu = float(channels.rate(gammas[j]).max())
        return mu + clusters[j].drag(powers, group_budget)

    marginals = [_MonotoneMap(partial(marginal, j), increasing=False)
                 for j in range(n_groups)]

    def spend(nu: float):
        totals = [_group_budget(table and table[1], m, nu, low, budget)
                  for table, m, low in zip(tables, marginals, lows)]
        return sum(totals), totals

    nu_lo = min(marginals[j](budget) for j in range(n_groups))
    nu_hi = max(marginals[j](lows[j]) for j in range(n_groups))
    _, totals, iterations = _outer_search(spend, budget, cfg, False, nu_hi, nu_lo)
    # Spread the residual over the budget above the floors.
    scale = (budget - total_floor) / (sum(totals) - total_floor)
    return finish([floor + (b - floor) * scale for floor, b in zip(floors, totals)],
                  iterations)


def solve_cluster_maxmin(problem: FairProblem,
                         cfg: SolverConfig = _DEFAULT_CFG) -> FairSolution:
    """Max-min over clustered groups: :func:`_outer_search` on the common
    target t over the group budgets that attain it."""
    if problem.mode != MODE_CLUSTER_MAXMIN:
        raise DomainError(
            f"solve_cluster_maxmin requires cluster_maxmin mode, got {problem.mode!r}")
    budget, n_groups = problem.budget, problem.n_groups
    clusters, gammas, tables, _, finish = _cluster_solver(problem, cfg)
    floors = [float(gamma.sum()) for gamma in gammas]
    total_floor = sum(floors)

    def utility(j: int, group_budget: float) -> float:
        fast = tables[j] and tables[j][0](group_budget)
        if fast:
            return fast[1]
        channels = clusters[j].bind(group_budget)
        if group_budget <= floors[j] and \
                not np.isfinite(channels.rate(gammas[j])).all():
            return -math.inf  # a channel with b = 0 rests at a zero floor
        powers = water_fill(channels, gammas[j], group_budget, cfg)[0]
        return float(channels.eval(powers).sum())

    utilities = [_MonotoneMap(partial(utility, j), increasing=True)
                 for j in range(n_groups)]

    def spend(t_val: float):
        totals = [_group_budget(table and table[2], u, t_val, floor, budget)
                  for table, u, floor in zip(tables, utilities, floors)]
        return sum(totals), totals

    t_hi = min(utilities[j](budget - (total_floor - floors[j]))
               for j in range(n_groups))
    t, totals, iterations = _outer_search(spend, budget, cfg, True, t_hi)
    return finish(totals, iterations, t)


def solve_fair(problem: FairProblem,
               cfg: SolverConfig = _DEFAULT_CFG) -> FairSolution:
    """Dispatch on the fairness mode."""
    if problem.mode == MODE_MAXMIN:
        return solve_maxmin(problem, cfg)
    if problem.mode == MODE_CLUSTER:
        return solve_cluster(problem, cfg)
    return solve_cluster_maxmin(problem, cfg)
