"""The condition checkers as they were before the one-pass certificate:
each box, ascending block and fair group checked on its own, with its own
channel subsets, and every fair group's channels built from its objects.

They are kept verbatim as the reference the one-pass reports in
``waterline.box`` and ``waterline.oracle`` are compared against
(``test_certificates.py`` and ``test_properties.py``).  Only the names
changed: ``reference_conditions`` dispatches as ``check_conditions`` does.
"""

import math

import numpy as np

from waterline.core import _classify
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
