"""Solvers for grouped fairness problems.

Three couplings over groups of subchannels sharing one total budget, each
one outer level over group budgets monotone in it: max-min fairness (the
common utility target t, each group at the least power reaching it, every
demand clamped into its box), clustered allocation (utilities that feel
the group total through interference; the level is the price of group
budget, met by each group's marginal value) and both combined (max-min
over clustered groups).

One search, :func:`_outer_search`, finds every outer level; a table group
answers it from one bisect and one formula: max-min groups of
``log_capacity``/``inverse_mse`` channels (:func:`_group_levels`), cluster
groups of cluster-aware entries with one noise pair and zero floors
(:func:`_cluster_tables`).  A problem's tables come from one sort of its
points on :func:`~waterline.core._bank_points` over its bank
(:attr:`~waterline.problems.FairProblem.bank`), keyed by group, with running
sums restarting at each group; final powers from one ``demand`` pass, and
utilities from one ``eval`` (:func:`_build_solution`).  Other groups, their
channels taken alone, search their level (:func:`_group_mu_for_t`) or keep
the points they evaluate (:class:`_MonotoneMap`).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from functools import cache, partial

import numpy as np

from .box import box_fill
from .core import (
    _bank_points, _classify, _level_search, _quadratic_level, _term_mask, illinois_root,
    water_fill)
from .errors import BracketFailure, DomainError, InfeasibleTarget, InversionFailure
from .objectives import Channels, ClusterChannels
from .problems import (
    MODE_CLUSTER, MODE_CLUSTER_MAXMIN, MODE_MAXMIN,
    FairProblem, FairSolution, SolverConfig)

_DEFAULT_CFG = SolverConfig()
# Outer levels and group budgets are searched to a bracket of a few ulp.
_ULP_WIDTH = 4.0 * np.finfo(float).eps
# A log table level above the float range takes the largest float level.
_LOG_MAX = math.log(np.finfo(float).max)


def _bounds(problem: FairProblem):
    """``(gamma, tau)``: every group's lower and upper bounds, flat."""
    n = int(problem.offsets[-1])
    return tuple(np.fromiter(itertools.chain.from_iterable(rows), float, n)
                 for rows in (problem.lower_bounds, problem.upper_bounds))


def _grouped(order: np.ndarray, group: np.ndarray, n_groups: int):
    """``(order, row, col, counts, cuts)``: ``order`` stably sorted by
    ``group[order]`` (a radix sort, in the least type), each point's group and
    place in it, each group's count, and its first point (the end last)."""
    group = group.astype(np.min_scalar_type(n_groups))
    order = order[np.argsort(group[order], kind="stable")]
    row = group[order]
    counts = np.bincount(row, minlength=n_groups)
    first = np.cumsum(counts) - counts
    return order, row, np.arange(len(order)) - first[row], counts, first.tolist() + [len(order)]


def _running(ufunc, values: np.ndarray, cuts):
    """``ufunc.accumulate`` along the last axis of ``values`` (group r's points
    at ``cuts[r]:cuts[r + 1]``), one group's slice at a time: no group's sums
    take another's rounding, and nothing is larger than ``values``."""
    out = np.empty_like(values)
    for lo, hi in zip(cuts, cuts[1:]):
        ufunc.accumulate(values[..., lo:hi], -1, out=out[..., lo:hi])
    return out


def _group_state(channels: Channels, gamma, tau, mu: float | None, demand=None):
    """Powers/utility/total at water level mu, each channel's demand (given,
    or computed) clamped into its box (None = rest at lower bounds)."""
    powers = gamma if mu is None else np.minimum(np.maximum(
        channels.demand(mu) if demand is None else demand, gamma), tau)
    return powers, float(channels.eval(powers).sum()), float(powers.sum())


def _group_mu_for_t(channels: Channels, gamma, tau, t: float):
    """``(mu, powers, utility, total)`` reaching group utility t at least
    power, by :func:`~waterline.core._level_search` on the utility minus t;
    ``mu`` None at the lower bounds (t met there, or exceeded at every finite
    level).  A t above the utility at finite upper bounds raises at once."""
    if np.isfinite(channels.rate(gamma)).all():
        floor = _group_state(channels, gamma, tau, None)
        if floor[1] >= t:
            return (None, *floor)
    if np.isfinite(tau).all() and (top := float(channels.eval(tau).sum())) < t:
        raise InfeasibleTarget(f"group utility target {t} above the utility {top} at tau")
    states, demand = {}, None

    def h(mu_val: float) -> float:
        nonlocal demand  # the last level's demands warm-start the next
        # Demands overflow near the float range's end: the search gives up there.
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


def _group_levels(channels: Channels, gamma, tau, offsets):
    """``(level, cap)`` for every max-min group (flat channels and bounds,
    group j at ``offsets[j]:offsets[j + 1]``): ``level(t)``, the state at t as
    :func:`_group_mu_for_t` gives it (a table's powers None), and ``cap(total)``,
    the utility spending ``total`` (NaN off the table; None: no table).

    ``log_capacity``/``inverse_mse`` groups share one table on the
    :func:`~waterline.core._bank_points`, where, as the level falls, a channel
    joins (demands gamma) or saturates (a finite tau).  Between two points the
    total is ``P + Q/mu + U/sqrt(mu)`` and the utility ``F + C - Q*log(mu) -
    U*sqrt(mu)``, from signed running sums restarting at each group: Q, U and
    C of q, u and q*log(a*w), P of the bounds plus b/a, F of the utilities at
    the bounds.  Both rise along a group's points (a tie reads the segment
    before it): one bisect finds the segment, one formula the level (a scalar
    search for a target where both families are active).  Levels outside the
    float range, and other groups, take :func:`_group_mu_for_t`.
    """
    ends = np.asarray(offsets).tolist()
    spans, sizes = list(zip(ends[:-1], ends[1:])), np.subtract(ends[1:], ends[:-1])
    table = np.logical_and.reduceat(_term_mask(channels), ends[:-1])
    idx = np.flatnonzero(np.repeat(table, sizes))
    sub, gamma_t, tau_t = (channels, gamma, tau) if idx.size == len(gamma) else \
        (channels.take(idx), gamma[idx], tau[idx])
    bank = _bank_points(sub, gamma_t, tau_t) if idx.size else None

    search = cache(lambda lo, hi: partial(  # a group's channels taken once a solve
        _group_mu_for_t, channels.take(np.arange(lo, hi)), gamma[lo:hi], tau[lo:hi]))
    if bank is None:
        return [(search(lo, hi), None) for lo, hi in spans]
    ((q, u, *_), (c, x, order), _), k, width = bank, len(idx), sizes[table]
    bounds = np.append(0, np.cumsum(width)).tolist()  # each table group's channels in sub
    zero = x == 0  # b = 0 at a zero bound: an infinite rate, a utility of -inf
    utils = np.concatenate((sub.eval(np.where(zero[:k], 1.0, gamma_t)),
                            sub.eval(np.where(zero[k:], 1.0, tau_t))))
    utils[zero] = -math.inf
    capped = np.isfinite(tau_t)
    # Each group's floor total and utility and tau utility, as its own array sums them.
    ends_sum = np.stack((gamma_t, utils[:k], np.where(capped, utils[k:], 0.0)))
    floor_total, floor_util, tops = np.stack(
        [ends_sum[:, lo:hi].sum(-1) for lo, hi in zip(bounds, bounds[1:])], -1)
    tops[~np.logical_and.reduceat(capped, bounds[:-1])] = math.inf
    order, row, col, counts, cuts = _grouped(  # an infinite tau never saturates
        order[:int(np.isfinite(x).sum())], np.tile(np.repeat(np.arange(len(width)), width), 2),
        len(width))
    who, joins, xs = order % k, order < k, x[order]
    # Group r's running sums before point m (segment m) sit at first point + r + m.
    slot = np.arange(len(xs)) + row
    sign, ends_u = np.where(joins, 1.0, -1.0), utils[order]
    qk, uk = (np.zeros(k) if v is None else v for v in (q, u))
    sums = np.zeros((7, len(xs) + len(width)))
    sums[:, slot + 1] = _running(np.add, np.vstack((
        sign * np.stack((qk > 0, uk > 0, qk, uk, qk * np.log(sub.a * sub.w)))[:, who],
        sign * c[order], np.where(joins, 0.0, ends_u))), cuts)
    n_q, n_u, Q, U, C, spent, F = sums
    F[slot] += _running(np.add, np.where(joins, ends_u, 0.0)[::-1],  # joins still to come
                        [len(xs) - cut for cut in cuts[::-1]])[::-1]
    # Where no channel of a family is active its sums are 0, not a rounding residue.
    Q, FC, U = np.where(n_q > 0, Q, 0.0), F + np.where(n_q > 0, C, 0.0), np.where(n_u > 0, U, 0.0)
    P = np.repeat(floor_total, counts + 1) - spent
    tie = np.append(True, (xs[1:] != xs[:-1]) | (col[1:] == 0))
    at = np.maximum.accumulate(np.where(tie, np.arange(len(xs)), 0)) + row  # before the tie
    Q_at, U_at = Q[at], U[at]
    with np.errstate(all="ignore"):  # x = 0, and x**2 beyond the float range
        events = FC[at] + 2.0 * Q_at * np.log(xs) - U_at / xs
        totals = P[at] + (Q_at * xs + U_at) * xs
        mus = 1.0 / (xs * xs)
    events[xs == 0] = totals[xs == 0] = -math.inf
    n0, first = (np.bincount(row, weights=v, minlength=len(width)) for v in (
        xs == 0, xs == xs[cuts[:-1]][row]))  # zero points, and the first point's ties
    FC, Q, U, P, events, totals, mus = (v.tolist() for v in (FC, Q, U, P, events, totals, mus))

    def group_table(r: int, lo: int, hi: int):
        p0, n, first_r, top = cuts[r], int(counts[r]), int(first[r]), float(tops[r])
        base = p0 + r  # segment 0 of the group's running sums
        floor = None if n0[r] else (gamma[lo:hi], float(floor_util[r]), float(floor_total[r]))

        def level(t: float):
            if floor is not None and floor[1] >= t:
                return (None, *floor)
            m = max(bisect_left(events, t, p0, p0 + n) - p0, first_r)
            fc, q_m, u_m = FC[base + m], Q[base + m], U[base + m]
            if not (q_m or u_m):  # flat: every channel that joined is saturated
                if t > top:
                    raise InfeasibleTarget(
                        f"group utility target {t} above the utility {top} at tau")
                mu = mus[p0 + m - 1]
            elif not u_m:
                mu = math.exp(min((fc - t) / q_m, _LOG_MAX))
            elif not q_m:
                root = (fc - t) / u_m
                if root <= 0:
                    raise InfeasibleTarget(f"group utility target {t} unreachable at any power")
                mu = root * root
            else:  # both families: the utility falls with the level, from a finite guess
                guess = mus[p0 + min(m, n - 1)]
                try:
                    mu = _level_search(lambda v: fc - q_m * math.log(v) - u_m * math.sqrt(v) - t,
                                       0.0, _ULP_WIDTH, guess if 0.0 < guess < math.inf else 1.0)
                except BracketFailure:
                    mu = math.inf
            if not 0.0 < mu < math.inf:  # the level leaves the float range
                return search(lo, hi)(t)
            return mu, None, None, P[base + m] + q_m / mu + u_m / math.sqrt(mu)

        def cap(total: float) -> float:
            m = max(bisect_left(totals, total, p0, p0 + n) - p0, first_r)
            fc, q_m, u_m, spare = FC[base + m], Q[base + m], U[base + m], total - P[base + m]
            if not (q_m or u_m):  # flat: any level
                return min(fc, top)
            mu = _quadratic_level(q_m, u_m, spare) if spare > 0 else math.nan
            if not 0.0 < mu < math.inf:  # the level leaves the float range
                return math.nan
            return min(fc - q_m * math.log(mu) - u_m * math.sqrt(mu), top)
        return level, cap
    rows = itertools.count()  # the table groups' rows, in group order
    return [group_table(next(rows), lo, hi) if on else (search(lo, hi), None)
            for on, (lo, hi) in zip(table.tolist(), spans)]


def _demanded(channels: Channels, gamma, tau, offsets, levels) -> np.ndarray:
    """Flat powers: each group j with a level ``levels[j]`` demands it, clamped
    into the boxes (one ``demand`` pass); the others rest at gamma."""
    has, powers = np.array([mu is not None for mu in levels]), gamma.copy()
    if has.any():
        idx = np.flatnonzero(np.repeat(has, sizes := np.diff(offsets)))
        mu = np.repeat([mu for mu in levels if mu is not None], sizes[has])
        some = channels if idx.size == len(gamma) else channels.take(idx)
        powers[idx] = np.minimum(np.maximum(some.demand(mu), gamma[idx]), tau[idx])
    return powers


def _outer_search(evaluate, budget: float, cfg: SolverConfig, increasing: bool,
                  hi: float, lo: float | None = None):
    """``(x, payload, evaluations)``: the outer level x where the group
    budgets, ``evaluate(x) = (total, payload)`` monotone in x, spend
    ``budget``.  The bracket grows down from ``hi`` unless ``lo`` is given.
    An end that spends the budget to ``cfg.power_tolerance``, or past which
    it is spent, is returned; else Illinois regula falsi runs to that
    tolerance or a few ulp, returning the end that fits the budget."""
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


def _distribute_surplus(channels: Channels, budget, gamma, tau, powers, levels,
                        offsets, cfg) -> None:
    """Hand leftover budget to groups with headroom, in group order, without
    lowering anyone: ``powers`` (flat) and ``levels`` change in place."""
    ends, tol = np.asarray(offsets).tolist(), cfg.power_tolerance * budget
    totals = np.add.reduceat(powers, ends[:-1]).tolist()
    for j, (lo, hi) in enumerate(zip(ends[:-1], ends[1:])):
        if (remaining := budget - sum(totals)) <= tol:
            return
        head = tau[lo:hi].sum() - totals[j]  # inf with an infinite upper bound
        if (give := min(remaining, float(head))) <= tol:
            continue
        lower = np.minimum(np.maximum(powers[lo:hi], gamma[lo:hi]), tau[lo:hi])
        powers[lo:hi], levels[j], _, _, _ = box_fill(
            channels.take(np.arange(lo, hi)), lower, tau[lo:hi], totals[j] + give, cfg)
        totals[j] = sum(powers[lo:hi].tolist())


def _build_solution(problem: FairProblem, channels: Channels, gamma, tau, powers,
                    water_levels, iterations: int, t: float | None = None,
                    totals=None, resting: bool = False) -> FairSolution:
    """The solution of the flat ``powers``: utilities from one ``eval`` (-inf
    where ``resting`` puts a channel at an infinite rate), t the least
    unless given, active sets from one :func:`_classify`, totals the powers'
    sums unless given.  A power not finite or a NaN utility raises."""
    starts, ends = problem.offsets[:-1], problem.offsets.tolist()
    infinite = ~np.isfinite(channels.rate(powers)) if resting else None
    utilities = np.add.reduceat(channels.eval(
        powers if infinite is None else np.where(infinite, 1.0, powers)), starts)
    if resting:
        utilities[np.logical_or.reduceat(infinite, starts)] = -math.inf
    t = float(utilities.min()) if t is None else t
    if not np.isfinite(powers).all() or np.isnan(utilities).any() or math.isnan(t):
        raise BracketFailure("a group's water level leaves the float range")
    active = np.flatnonzero(_classify(powers, gamma, tau)[3])
    cuts, flat = np.searchsorted(active, ends).tolist(), powers.tolist()
    return FairSolution(
        powers=[flat[lo:hi] for lo, hi in zip(ends, ends[1:])],
        water_levels=[None if mu is None else float(mu) for mu in water_levels],
        group_totals=list(map(float, np.add.reduceat(powers, starts) if totals is None
                              else totals)),
        group_utilities=utilities.tolist(), t=t, iterations=iterations, status="optimal",
        active_sets=[(active[a:b] - lo).tolist() for a, b, lo in zip(cuts, cuts[1:], ends)])


def solve_maxmin(problem: FairProblem,
                 cfg: SolverConfig = _DEFAULT_CFG) -> FairSolution:
    """Maximize the minimum group utility under the total budget.

    All channels sit at finite upper bounds that fit the budget, or at floors
    that spend it (a group with an infinite rate there has utility -inf).  A
    channel fixed at an infinite rate (b = 0 boxed at [0, 0]) makes t -inf at
    every allocation: the surplus over the floors goes to groups with
    headroom, in group order.  Else :func:`_outer_search` finds t on the
    summed least-power demands, from the least t cap (a group's utility with
    the others at their floors); leftover budget goes to groups with headroom.
    """
    if problem.mode != MODE_MAXMIN:
        raise DomainError(f"solve_maxmin requires maxmin mode, got {problem.mode!r}")
    budget, offsets, ends = problem.budget, problem.offsets, problem.offsets.tolist()
    # A max-min group holds no cluster-aware entry: bound, it is its channels.
    channels = problem.bank.bind(0.0)
    gamma, tau = _bounds(problem)
    floors = np.add.reduceat(gamma, ends[:-1]).tolist()
    total_floor, fixed = sum(floors), tau <= gamma
    at_tau = np.isfinite(tau).all() and float(tau.sum()) <= budget
    if at_tau or budget - total_floor <= cfg.power_tolerance * budget or \
            fixed.any() and not np.isfinite(channels.rate(gamma)[fixed]).all():
        powers, water_levels = (tau if at_tau else gamma).copy(), [None] * problem.n_groups
        _distribute_surplus(channels, budget, gamma, tau, powers, water_levels, offsets, cfg)
        return _build_solution(problem, channels, gamma, tau, powers, water_levels, 1,
                               resting=True)

    levels = _group_levels(channels, gamma, tau, offsets)
    t_caps = []
    for (_, cap), lo, hi, floor in zip(levels, ends, ends[1:], floors):
        avail = budget - (total_floor - floor)
        t_cap = cap(avail) if cap else math.nan
        if math.isnan(t_cap):  # no table, or none at this total
            group = channels.take(np.arange(lo, hi))
            powers = box_fill(group, gamma[lo:hi], tau[lo:hi], avail, cfg)[0]
            t_cap = float(group.eval(powers).sum())
        t_caps.append(t_cap)

    def demand(t_val: float):
        states = [level(t_val) for level, _ in levels]
        return sum(s[3] for s in states), states

    t, states, iterations = _outer_search(demand, budget, cfg, True, min(t_caps))
    # The table groups' powers are built once, at the final levels.
    powers = _demanded(channels, gamma, tau, offsets,
                       [s[0] if s[1] is None else None for s in states])
    for s, lo, hi in zip(states, ends, ends[1:]):
        if s[1] is not None:
            powers[lo:hi] = s[1]
    water_levels = [s[0] for s in states]
    _distribute_surplus(channels, budget, gamma, tau, powers, water_levels, offsets, cfg)
    return _build_solution(problem, channels, gamma, tau, powers, water_levels, iterations, t)


class _MonotoneMap:
    """One group's monotone map ``x -> f(x)``, every point evaluated kept,
    sorted by x.  :meth:`root` finds ``f(x) = y`` by Illinois regula falsi
    in the tightest stored bracket (by the sign of ``f - y``, so rounding
    cannot break it), to a few ulp or an exact hit."""

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


def _cluster_tables(cluster: ClusterChannels, gamma, offsets):
    """``(tables, levels)`` for the cluster groups (bank and floors flat,
    group j at ``offsets[j]:offsets[j + 1]``): ``tables[j]`` is ``(at,
    at_price, at_target)``, None unless all entries are cluster-aware with
    one (sigma_e2, sigma_n2) and gamma = 0.

    Bound at B, such a group is ``log_capacity`` with a' = a/s, s =
    sigma_e2*B + sigma_n2, ordered by 1/(a*w) at every B: the join points of
    :func:`~waterline.core._bank_points` at B = 0.  With U = sum(w), A =
    sum(1/a), L = sum(w*log(a*w)) running in that order, the first m
    channels are active while ``g_m = U_m/(a_m*w_m) - A_m < B/s``, at ``mu =
    U_m/(B + s*A_m)``: ``at(B)`` gives the marginal ``mu*sigma_n2/s``, the
    utility ``L_m - U_m*log(s*mu)`` and the segment (None at B <= 0 or mu
    out of the float range).  Segment m ends at B = sigma_n2*g/(1 -
    sigma_e2*g), g = g_{m+1} (never once sigma_e2*g >= 1): ``at_price(nu)``
    and ``at_target(t)`` bisect the ends and solve ``(B + s*A)*s =
    U*sigma_n2/nu`` or take ``sigma_n2*y/(1 - sigma_e2*y)``, ``y =
    U*exp((t - L)/U) - A``.  ``levels(bound, totals)`` gives the final levels
    as ``water_fill`` does, ``sum(w)/(B + sum(b/a))`` on ``bound``, since far
    below b/a the powers cancel w/mu against b/a.
    """
    ends = np.asarray(offsets).tolist()
    sizes, n_entries = np.subtract(ends[1:], ends[:-1]), len(gamma)
    noise = np.full((2, n_entries), np.nan)  # NaN for an entry that is not cluster-aware
    noise[:, cluster.index] = cluster.sigma_e2, cluster.sigma_n2
    table = ~np.logical_or.reduceat(gamma != 0, ends[:-1]) & (np.minimum.reduceat(
        noise, ends[:-1], 1) == np.maximum.reduceat(noise, ends[:-1], 1)).all(0)
    idx = np.flatnonzero(np.repeat(table, sizes))
    bound = cluster.bind(0.0) if idx.size else None
    bank = idx.size and _bank_points(bound if idx.size == n_entries else bound.take(idx),
                                     np.zeros(idx.size))
    if not bank:
        return [None] * len(sizes), lambda bound, totals: [None] * len(sizes)
    width = sizes[table]
    order, row, col, _, cuts = _grouped(
        bank[1][2], np.repeat(np.arange(len(width)), width), len(width))
    pos = idx[order] if cluster.index.size == n_entries else \
        np.searchsorted(cluster.index, idx[order])  # the places among the aware entries
    w, a, e2, n2 = (v[pos] for v in (cluster.w, cluster.a, cluster.sigma_e2, cluster.sigma_n2))
    U, A, L = _running(np.add, np.stack((w, 1.0 / a, w * np.log(a * w))), cuts)
    g = _running(np.maximum, U / (a * w) - A, cuts)
    # n segments up to a join no budget reaches; the last runs on to B = inf.
    last, after = col == width[row] - 1, np.append(g[1:], 0.0)  # g of the next point
    n = np.minimum.reduceat(np.where(last | (e2 * after >= 1.0), col, len(order)), cuts[:-1]) + 1
    mid = col < n[row] - 1
    with np.errstate(all="ignore"):  # 1/0, log(0), and past the last segment, never read
        y = np.where(mid, after, 1.0 / e2)
        end = n2 * y / (1.0 - e2 * y)
        s_end = e2 * end + n2
        neg_margin = np.where(mid, -U * n2 / ((end + s_end * A) * s_end), 0.0).tolist()
        utility_end = (L - U * np.log(U / (y + A))).tolist()
    g, U, A, L = g.tolist(), U.tolist(), A.tolist(), L.tolist()

    def group_table(r: int):
        p0, k, n_r = cuts[r], int(width[r]), int(n[r])
        e2_r, n2_r = float(e2[p0]), float(n2[p0])

        def at(budget: float):
            if budget <= 0:
                return None
            s = e2_r * budget + n2_r
            m = max(bisect_left(g, budget / s, p0, p0 + k), p0 + 1) - 1
            mu = U[m] / (budget + s * A[m])
            if not 0.0 < mu < math.inf:
                return None
            return mu * n2_r / s, L[m] - U[m] * (math.log(s) + math.log(mu)), m

        def at_price(nu: float) -> float:
            if not nu > 0.0:  # the marginal stays above it at every budget
                return math.inf
            m = bisect_left(neg_margin, -nu, p0, p0 + n_r)
            quad, lin, c = e2_r * (1.0 + e2_r * A[m]), n2_r * (1.0 + 2.0 * e2_r * A[m]), \
                n2_r * (U[m] / nu - n2_r * A[m])
            return 2.0 * c / (lin + math.sqrt(max(lin * lin + 4.0 * quad * c, 0.0)))

        def at_target(t: float) -> float:
            m = min(bisect_left(utility_end, t, p0, p0 + n_r), p0 + n_r - 1)
            y = U[m] * math.exp(min((t - L[m]) / U[m], _LOG_MAX)) - A[m]
            return n2_r * y / (1.0 - e2_r * y) if e2_r * y < 1.0 else math.inf
        return at, at_price, at_target
    rows = itertools.count()  # the table groups' rows, in group order
    tables = [group_table(next(rows)) if on else None for on in table.tolist()]

    def levels(bound: Channels, totals):
        some = bound if idx.size == n_entries else bound.take(idx)
        with np.errstate(over="ignore"):  # past the float range: _build_solution raises
            offset = _running(np.add, (some.b / some.a)[order], cuts).tolist()
        return [(state := table and table[0](total)) and U[state[2]] / (total + offset[state[2]])
                for table, total in zip(tables, totals)]
    return tables, levels


def _spender(tables, inverse: int, maps, lows, budget: float):
    """``spend(y)``: ``(sum, totals)`` of each group's budget in ``[lows[j],
    budget]`` where its map meets y, by ``tables[j][inverse]`` or ``maps[j].root``."""
    def spend(y: float):
        totals = []
        for table, memo, low in zip(tables, maps, lows):
            b = table[inverse](y) if table else math.nan
            totals.append(min(max(b, low), budget) if math.isfinite(b) else
                          memo.root(y, low, budget))
        return sum(totals), totals
    return spend


def _group_fill(channels: Channels, gamma, budget: float, cfg: SolverConfig):
    """``water_fill`` on bound cluster entries; no finite join point names the group."""
    try:
        return water_fill(channels, gamma, budget, cfg)
    except BracketFailure:
        raise BracketFailure("a group's water level leaves the float range") from None


def _cluster_solver(problem: FairProblem, cfg: SolverConfig):
    """``(gamma, floors, tables, solve_group, finish)``: floors (flat, and each
    group's sum), the :func:`_cluster_tables` maps, ``solve_group(j, b)``
    (group j's :attr:`~waterline.problems.FairProblem.group_banks` entry bound
    at ``b`` and its ``water_fill`` powers and level), the solution ``finish``."""
    offsets, ends, sizes = problem.offsets, problem.offsets.tolist(), np.diff(problem.offsets)
    gamma, tau = _bounds(problem)
    floors = np.add.reduceat(gamma, ends[:-1]).tolist()
    tables, table_levels = _cluster_tables(problem.bank, gamma, offsets)

    def solve_group(j: int, group_budget: float):
        channels = problem.group_banks[j].bind(group_budget)
        return (problem.group_banks[j], channels,
                *_group_fill(channels, gamma[ends[j]:ends[j + 1]], group_budget, cfg)[:2])

    def finish(totals, iterations: int, t: float | None = None) -> FairSolution:
        bound = problem.bank.bind(np.repeat(np.asarray(totals, dtype=float), sizes))
        levels = table_levels(bound, totals)
        powers = _demanded(bound, gamma, tau, offsets, levels)
        for j, total in enumerate(totals):
            if levels[j] is None:
                _, _, powers[ends[j]:ends[j + 1]], levels[j] = solve_group(j, total)
        return _build_solution(problem, bound, gamma, tau, powers, levels, iterations, t, totals)
    return gamma, floors, tables, solve_group, finish


def solve_cluster(problem: FairProblem,
                  cfg: SolverConfig = _DEFAULT_CFG) -> FairSolution:
    """Split the budget across clusters whose utilities feel the group total:
    :func:`_outer_search` on the price ν of group budget, each group at the
    budget where its marginal value (level plus interference drag) is ν."""
    if problem.mode != MODE_CLUSTER:
        raise DomainError(f"solve_cluster requires cluster mode, got {problem.mode!r}")
    budget, n_groups, ends = problem.budget, problem.n_groups, problem.offsets.tolist()
    gamma, floors, tables, solve_group, finish = _cluster_solver(problem, cfg)

    if n_groups == 1:
        return finish([budget], 1)
    if not problem.bank.coupled:
        # No interference coupling: the groups pool into one problem.
        powers, _, water_levels, _ = _group_fill(problem.bank.bind(0.0), gamma, budget, cfg)
        return finish(np.add.reduceat(powers, ends[:-1]).tolist(), len(water_levels) or 1)

    total_floor = sum(floors)
    lows = [floor + 1e-9 * budget / n_groups for floor in floors]

    def marginal(j: int, group_budget: float) -> float:
        """d(group utility)/d(group budget): water level + interference drag."""
        fast = tables[j] and tables[j][0](group_budget)
        if fast:
            return fast[0]
        group, channels, powers, mu = solve_group(j, group_budget)
        if mu is None:  # at the floor: the level where the first channel joins
            mu = float(channels.rate(gamma[ends[j]:ends[j + 1]]).max())
        return mu + group.drag(powers, group_budget)

    marginals = [_MonotoneMap(partial(marginal, j), increasing=False) for j in range(n_groups)]
    spend = _spender(tables, 1, marginals, lows, budget)
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
    budget, n_groups, ends = problem.budget, problem.n_groups, problem.offsets.tolist()
    gamma, floors, tables, _, finish = _cluster_solver(problem, cfg)
    total_floor = sum(floors)

    def utility(j: int, group_budget: float) -> float:
        fast = tables[j] and tables[j][0](group_budget)
        if fast:
            return fast[1]
        channels, gamma_j = problem.group_banks[j].bind(group_budget), gamma[ends[j]:ends[j + 1]]
        if group_budget <= floors[j] and not np.isfinite(channels.rate(gamma_j)).all():
            return -math.inf  # a channel with b = 0 rests at a zero floor
        powers = _group_fill(channels, gamma_j, group_budget, cfg)[0]
        return float(channels.eval(powers).sum())

    utilities = [_MonotoneMap(partial(utility, j), increasing=True) for j in range(n_groups)]
    spend = _spender(tables, 2, utilities, floors, budget)
    t_hi = min(utilities[j](budget - (total_floor - floors[j])) for j in range(n_groups))
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
