"""The condition checkers as they were before the one-pass certificate:
each box, ascending block and fair group checked on its own, with its own
channel subsets, and every fair group's channels built from its objects.
Below them, the fair solvers' per-group tables as they were before one
table served every group of a problem: ``_group_level`` (one max-min group)
and ``_cluster_table`` (one cluster group).

They are kept verbatim as the reference the one-pass reports in
``waterline.box`` and ``waterline.oracle``, and the problem-wide tables in
``waterline.fair``, are compared against (``test_certificates.py``,
``test_properties.py`` and ``test_fair.py``).  Only the names changed:
``reference_conditions`` dispatches as ``check_conditions`` does.
"""

import math
from bisect import bisect_left
from functools import partial

import numpy as np

from waterline.core import _bank_points, _classify, _level_search, _quadratic_level
from waterline.errors import BracketFailure, InfeasibleTarget
from waterline.fair import _LOG_MAX, _ULP_WIDTH, _group_mu_for_t
from waterline.objectives import Channels, ClusterChannels
from waterline.oracle import check_conditions
from waterline.problems import (
    MODE_CLUSTER, Allocation, AscendingProblem, BoxProblem, FairProblem,
    FairSolution, KktReport)


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


def _ascending_report(problem: AscendingProblem, powers,
                      tolerance: float) -> KktReport:
    """Feasibility and the optimality conditions of the level staircase.

    The caps within ``tolerance * P_K`` of their prefix sums split the
    channels into segments, each a box problem with its own water level.  The
    levels may not rise from segment to segment, and after the last tight cap
    the level is 0: ``level_order_violation`` is the most a segment's least
    admissible level exceeds the largest the segments before it admit.
    """
    powers = np.asarray(powers, dtype=float)
    gamma = np.array(problem.lower_bounds, dtype=float)
    tau = np.array(problem.upper_bounds, dtype=float)
    caps = np.array(problem.prefix_budgets)
    slack = caps - np.cumsum(powers)
    tight = slack <= tolerance * caps[-1]
    channels = problem.channels
    residuals = dict.fromkeys(("rate_spread", "lower_rate_violation",
                               "upper_rate_violation", "level_order_violation"), 0.0)
    level, start = math.inf, 0
    for stop in np.union1d(np.flatnonzero(tight) + 1, problem.n).tolist():
        seg = np.arange(start, stop)
        p, g, t, sub = powers[seg], gamma[seg], tau[seg], channels.take(seg)
        mu_lo, mu_hi, lower_v, upper_v = _rate_conditions(sub, p, g, t)
        spread = 0.0 if mu_lo is None else mu_hi - mu_lo
        _fixed, lower, _upper, active = _classify(p, g, t)
        if not active.any():  # only the bounds limit the level
            lower = np.flatnonzero(lower)
            mu_lo = float(np.max(sub.take(lower).rate(g[lower]), initial=0.0))
            mu_hi = math.inf if mu_hi is None else mu_hi
        level = level if tight[stop - 1] else 0.0
        for name, value in zip(residuals, (spread, lower_v, upper_v, mu_lo - level)):
            residuals[name] = max(residuals[name], value)
        level, start = min(level, mu_hi), stop
    residuals["prefix_violation"] = max(0.0, float(-slack.min()) / caps[-1])
    residuals["bounds_violation"] = max(0.0, (gamma - powers).max(), (powers - tau).max())
    return KktReport(residuals=residuals, tolerance=tolerance)


def _marginal_spread(problem: FairProblem, solution: FairSolution,
                     clusters: list[ClusterChannels], tolerance: float) -> float:
    """Spread of the groups' marginal values of budget (cluster mode).

    A group's marginal is the largest rate of its channels above their lower
    bounds, bound at the group total, plus the interference drag.  Groups
    above their floors must share it.  A group within ``tolerance`` of its
    floor (read from its total) may lie below the least of theirs but not
    above it; with no channel above its lower bounds it uses its largest
    rate at them.
    """
    interior, resting = [], []
    for cluster, p, gamma, total in zip(clusters, solution.powers,
                                        problem.lower_bounds, solution.group_totals):
        p, gamma = np.array(p, dtype=float), np.array(gamma, dtype=float)
        bound = cluster.bind(total)
        above = p > gamma + 1e-9 * (1.0 + gamma)
        rate = bound.rate(p)[above].max() if above.any() else bound.rate(gamma).max()
        marginal = float(rate) + cluster.drag(p, total)
        at_floor = total - float(gamma.sum()) <= tolerance * problem.budget
        (resting if at_floor else interior).append(marginal)
    if not interior:
        return 0.0
    finite = [abs(m) for m in interior + resting if math.isfinite(m)]
    return (max(interior + resting) - min(interior)) / max(finite + [1e-30])


def _fair_report(problem: FairProblem, solution: FairSolution,
                 tolerance: float) -> KktReport:
    groups = problem.groups
    gammas, taus = problem.lower_bounds, problem.upper_bounds
    totals = solution.group_totals
    residuals: dict[str, float] = {}
    not_applicable: list[str] = []

    # The box rate conditions within each group (its channels bound at the
    # group total), normalised by the group's largest interior rate or, when
    # no channel is interior, by its least rate at an upper bound.
    rates = dict.fromkeys(("rate_spread", "lower_rate_violation",
                           "upper_rate_violation"), 0.0)
    saturated = []
    clusters = [ClusterChannels(group) for group in groups]
    for j, cluster in enumerate(clusters):
        p = np.array(solution.powers[j], dtype=float)
        gamma = np.array(gammas[j], dtype=float)
        tau = np.array(taus[j], dtype=float)
        _fixed, lower, _upper, active = _classify(p, gamma, tau)
        saturated.append(not (lower | active).any())
        mu_lo, mu_hi, lower_v, upper_v = _rate_conditions(
            cluster.bind(totals[j]), p, gamma, tau)
        if mu_lo is None:
            continue
        scale = max(abs(mu_hi), 1e-30)
        for name, value in zip(rates, (mu_hi - mu_lo, lower_v, upper_v)):
            rates[name] = max(rates[name], value / scale)
    residuals.update(rates)

    if problem.mode == MODE_CLUSTER:
        not_applicable.append("utility_spread")
        residuals["utility_spread"] = 0.0
        residuals["marginal_spread"] = _marginal_spread(
            problem, solution, clusters, tolerance)
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
        for j, gap in enumerate(gaps):
            at_floor = totals[j] - sum(gammas[j]) <= tolerance * problem.budget
            spread = max(spread, -gap if capped or at_floor else abs(gap))
        residuals["utility_spread"] = max(0.0, spread)

    spend = problem.budget
    if all(math.isfinite(x) for row in taus for x in row):
        # When every channel fits at its upper bound, that is the optimum.
        spend = min(spend, sum(sum(row) for row in taus))
    residuals["power_residual"] = abs(sum(totals) - spend) / problem.budget
    bounds_violation = 0.0
    for j in range(len(groups)):
        for i, p in enumerate(solution.powers[j]):
            bounds_violation = max(bounds_violation,
                                   gammas[j][i] - p, p - taus[j][i])
    residuals["bounds_violation"] = max(0.0, bounds_violation)
    return KktReport(residuals=residuals, tolerance=tolerance,
                     not_applicable=not_applicable)


def reference_conditions(problem, allocation, tolerance: float = 1e-8) -> KktReport:
    """``check_conditions`` by the per-segment checkers above."""
    if isinstance(problem, FairProblem):
        return _fair_report(problem, allocation, tolerance)
    powers = allocation.powers if isinstance(allocation, Allocation) \
        else [float(p) for p in allocation]
    if isinstance(problem, AscendingProblem):
        return _ascending_report(problem, powers, tolerance)
    upper = problem.upper_bounds if isinstance(problem, BoxProblem) else [np.inf] * problem.n
    return _box_report(problem, upper, powers, tolerance)


def assert_matches_reference(problem, allocation, tolerance: float = 1e-8) -> None:
    """``check_conditions`` gives the reference's verdict and ``not_applicable``,
    and every residual within 1e-12 * (1 + |reference|) of the reference's."""
    report = check_conditions(problem, allocation, tolerance)
    reference = reference_conditions(problem, allocation, tolerance)
    assert report.passed == reference.passed, (report.residuals, reference.residuals)
    assert report.not_applicable == reference.not_applicable
    assert report.residuals.keys() == reference.residuals.keys()
    for name, value in reference.residuals.items():
        got = report.residuals[name]
        assert got == value or abs(got - value) <= 1e-12 * (1.0 + abs(value)), \
            (name, got, value)


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
    ((q, u, *_), (c, x, order), _), k = bank, len(gamma)
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
