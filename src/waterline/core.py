"""Water-level root finding and the simplex solvers (Algorithms for P1/P1.1).

``water_fill`` solves P1.1 on a :class:`~waterline.objectives.Channels` set
and picks its path from the channels' families:

* A bank of ``log_capacity`` and ``inverse_mse`` channels, in any mix, takes
  the exact sorted search.  At x = 1/sqrt(mu) channel i demands
  q_i*x**2 + u_i*x - b_i/a_i (``log_capacity``: q = w, u = 0;
  ``inverse_mse``: q = 0, u = sqrt(w/a)), which rises with x, so one sort
  of the points where the demands reach their bounds, and running sums of
  q, u and the offsets, give the clamped total at every point; the level is
  the positive root of a quadratic in x on the segment that spends the
  budget (:func:`_breakpoint_level`, which the box strategy ``order``
  shares with upper bounds).  O(K log K), one pass.
* Every other family (``af_relay``, ``sum_log``, ``sum_inverse_mse``,
  custom, and banks mixing them) keeps the deactivation loop.  It initializes
  every subchannel as active, solves the common-rate equation on the active
  set, and removes (pins at its lower bound) every channel whose
  unconstrained demand falls at or below that bound.  The loop shrinks the
  active set strictly each round, so it runs at most K-1 times and the water
  level increases strictly across rounds.  Each round's level search is an
  Illinois regula falsi on x = 1/mu (a ``log_capacity`` demand is linear in
  x); from round 2 its bracket opens at the last level, whose residual on the
  smaller set, the removed channels' sum of (lower bound - demand), is >= 0.

``solve_p1_lower`` is the public entry: it takes a validated
:class:`~waterline.problems.SimplexProblem`.  The box strategies' array
functions and the fair solvers call ``water_fill`` directly on channels
they have already checked; :func:`finish` builds the public
:class:`~waterline.problems.Allocation` of every flat solve.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import BracketFailure, DomainError, InfeasibleBudget
from .objectives import Channels, InverseMse, LogCapacity, Objective
from .problems import Allocation, SimplexProblem, SolverConfig

_DEFAULT_CFG = SolverConfig()


def _demand_terms(channels: Channels, c: np.ndarray | None = None):
    """``(q, u, x)`` for a bank of ``log_capacity`` and ``inverse_mse``
    channels, mixed or not; None for any other set.

    At x = 1/sqrt(mu) channel i demands q_i*x**2 + u_i*x - b_i/a_i: q = w,
    u = 0 for ``log_capacity`` and q = 0, u = sqrt(w/a) for ``inverse_mse``.
    ``q`` (``u``) is None when no channel is of that family.  Given ``c``,
    each channel's lower bound plus b/a, ``x`` holds the join points, where
    the demands reach the lower bounds: sqrt(c/q) or c/u, taken per family
    (the unified root 2c/(u + sqrt(u**2 + 4qc)) is 0/0 at c = 0).
    """
    groups = channels._groups if channels.banked else ()
    if not groups or not {g[0] for g in groups} <= {LogCapacity, InverseMse}:
        return None
    k = len(channels)
    terms = {LogCapacity: None, InverseMse: None}
    x = None if c is None or len(groups) == 1 else np.empty(k)
    for cls, idx, (w, a, _) in groups:
        log = cls is LogCapacity
        v = w if log else np.sqrt(w / a)
        if c is not None:
            join = (c if idx is None else c[idx]) / v
            if log:
                np.sqrt(join, out=join)
            if idx is None:
                x = join
            else:
                x[idx] = join
        if idx is None:
            terms[cls] = v
        else:  # zero on the other family's channels
            terms[cls] = np.zeros(k)
            terms[cls][idx] = v
    return terms[LogCapacity], terms[InverseMse], x


def _quadratic_level(q_sum, u_sum, total):
    """The level mu at which channels whose terms (:func:`_demand_terms`) sum
    to Q = ``q_sum`` and U = ``u_sum`` demand ``total`` plus their offsets:
    the positive root s = sqrt(mu) of total*s**2 - U*s - Q, in a form that
    does not cancel, squared as (Q + U*s)/total; with Q = 0, as s*s.  So a
    ``log_capacity`` bank's level is Q/total and an ``inverse_mse`` bank's
    (U/total)**2, each in the operations of its family's closed form.
    Floats give a float; arrays of equal shape, one level per entry."""
    sqrt = np.sqrt if isinstance(total, np.ndarray) else math.sqrt
    s = (u_sum + sqrt(u_sum * u_sum + 4.0 * q_sum * total)) / (2.0 * total)
    level = (q_sum + u_sum * s) / total
    if sqrt is np.sqrt:
        return np.where(q_sum != 0, level, s * s)
    return level if q_sum else s * s


def _bank_points(channels: Channels, gamma: np.ndarray, tau: np.ndarray | None = None):
    """``(q, u, offset, c, x, order)`` of a ``log_capacity``/``inverse_mse``
    bank (None for any other set): :func:`_demand_terms`' terms, b/a, the
    bounds plus b/a, the points x where the channels join (demand ``gamma``)
    then, given ``tau``, saturate, and their sorting order, stable without
    ``tau`` for P1.1's equal joins."""
    if not channels.banked:
        return None
    k, offset = len(gamma), channels.b / channels.a
    c = gamma + offset if tau is None else np.concatenate((gamma + offset, tau + offset))
    terms = _demand_terms(channels, c[:k])
    if terms is None:
        return None
    q, u, x = terms
    if tau is not None:
        x = np.concatenate((x, _demand_terms(channels, c[k:])[2]))
    return q, u, offset, c, x, np.argsort(x, kind="stable" if tau is None else "quicksort")


def _closed_form_mu(channels: Channels, budget: float) -> float | None:
    """Closed-form water level of a ``log_capacity``/``inverse_mse`` bank,
    mixed or not (None for any other set): at x = 1/sqrt(mu) the demands sum
    to Q*x**2 + U*x - sum(b/a), so the level is :func:`_quadratic_level` of
    the summed terms and the budget plus the offsets."""
    terms = _demand_terms(channels)
    if terms is None:
        return None
    denom = budget + (channels.b / channels.a).sum()
    if denom <= 0:
        raise BracketFailure("budget below the reachable demand range")
    q_sum, u_sum = (0.0 if v is None else float(v.sum()) for v in terms[:2])
    return _quadratic_level(q_sum, u_sum, float(denom))


def _water_level_and_powers(channels: Channels, budget: float,
                            cfg: SolverConfig = _DEFAULT_CFG,
                            scale: float | None = None, warm=None):
    """Solve sum_k g_k(mu) = budget on the given channels.

    Returns ``(mu, powers)`` with signed powers as an array (negative entries
    mean the channel demands less than its domain edge at this water level).
    Each level trial warm-starts the numeric inversions at the last powers,
    from ``warm = (mu, powers)``, a lower level's demands, when given.
    """
    if not len(channels):
        raise BracketFailure("water level undefined on an empty active set")
    mu = _closed_form_mu(channels, budget)
    if mu is not None:
        return mu, channels.demand(mu)
    last = (None, None) if warm is None else warm

    def h(mu_val: float) -> float:
        nonlocal last
        last = mu_val, channels.demand(mu_val, last[1])
        return float(last[1].sum()) - budget

    lo = None if warm is None else (warm[0], float(warm[1].sum()) - budget)
    # Were every demand proportional to 1/mu, lo's excess would give the level.
    bracket = (1.0,) if lo is None or lo[1] < 0 else (lo[0] * (budget + lo[1]) / budget, lo)
    tol = 1e-4 * cfg.power_tolerance * (budget if scale is None else scale)
    mu = _level_search(h, tol, 1e-4 * cfg.mu_tolerance, *bracket)
    return mu, last[1] if last[0] == mu else channels.demand(mu, last[1])


def _level_search(h, tol: float, rtol: float, guess: float = 1.0,
                  lo: tuple[float, float] | None = None) -> float:
    """Root of the strictly decreasing residual ``h``: bracket it from
    ``guess`` and ``lo = (mu, h(mu) >= 0)`` (the warm bracket, when known) by
    halving and doubling, then :func:`illinois_root` on x = 1/mu, ``h``
    passed negated (a ``log_capacity`` demand is linear in x), to ``|h| <=
    tol`` or a bracket of relative width ``rtol``.  The power-balance callers
    drive the residual to 1e-4 of the configured tolerances, so that
    independently configured strategies agree to much better than them.
    Raises :class:`BracketFailure` rather than try a level whose reciprocal
    is infinite, or an infinite level."""
    mu_hi, h_hi = guess, h(guess)
    mu_lo, h_lo = lo if lo is not None and h_hi < 0 else (mu_hi, h_hi)
    while h_lo < 0:
        mu_hi, h_hi, mu_lo = mu_lo, h_lo, 0.5 * mu_lo
        if math.isinf(1.0 / mu_lo):
            raise BracketFailure("could not bracket the water level from below")
        h_lo = h(mu_lo)
    while h_hi > 0:
        mu_lo, h_lo, mu_hi = mu_hi, h_hi, 2.0 * mu_hi
        if math.isinf(mu_hi):
            raise BracketFailure("could not bracket the water level from above")
        h_hi = h(mu_hi)
    if h_lo == 0 or h_hi == 0:
        return mu_lo if h_lo == 0 else mu_hi
    x = illinois_root(lambda x_val: -h(1.0 / x_val), 1.0 / mu_hi, 1.0 / mu_lo,
                      -h_hi, -h_lo, tol, rtol)
    return 1.0 / x


def illinois_root(h, lo: float, hi: float, h_lo: float, h_hi: float,
                  tol: float, rtol: float) -> float:
    """Root of a decreasing residual ``h`` by Illinois-damped regula falsi.

    ``[lo, hi]`` brackets the root with ``h_lo = h(lo) > 0 > h(hi) = h_hi``.
    Stops at the first iterate with ``|h| <= tol`` or once the bracket is no
    wider than ``rtol * max(|lo|, |hi|)``, and returns the last iterate.  An increasing
    map is passed negated, which leaves every iterate the same.
    """
    side = 0
    for _ in range(200):
        # h_hi - h_lo is never 0: each step stores a nonzero residual on its
        # own side, and the Illinois halving takes only the other end to 0.
        mid = hi - h_hi * (hi - lo) / (h_hi - h_lo)
        if not (lo < mid < hi):  # also a NaN residual
            mid = 0.5 * (lo + hi)
        h_mid = h(mid)
        if abs(h_mid) <= tol:
            break
        if h_mid > 0:
            lo, h_lo = mid, h_mid
            if side == 1:
                h_hi *= 0.5
            side = 1
        else:
            hi, h_hi = mid, h_mid
            if side == -1:
                h_lo *= 0.5
            side = -1
        if hi - lo <= rtol * max(abs(lo), abs(hi)):
            break
    return mid


def solve_water_level(objectives: Sequence[Objective], budget: float,
                      fixed_consumption: float = 0.0,
                      cfg: SolverConfig = _DEFAULT_CFG,
                      scale: float | None = None) -> float:
    """Water level mu with sum_k g_k(mu) = budget - fixed_consumption.

    The level search of the solvers on the objects' own scalar ``demand``,
    so that the enumeration oracles built on it share no code with the array
    banks they certify.  A set of ``log_capacity`` channels, or of
    ``inverse_mse`` ones, takes its closed-form level; a mix of the two runs
    the search, an independent reference for the banks' quadratic level."""
    remaining = budget - fixed_consumption
    if remaining <= 0:
        raise BracketFailure("no budget left for the active channels")
    objs = list(objectives)
    if {type(o) for o in objs} in ({LogCapacity}, {InverseMse}):
        return _closed_form_mu(Channels(objs), remaining)
    hints: list = [None] * len(objs)

    def h(mu_val: float) -> float:
        hints[:] = [obj.demand(mu_val, hint) for obj, hint in zip(objs, hints)]
        return float(np.sum(hints)) - remaining

    tol = 1e-4 * cfg.power_tolerance * (budget if scale is None else scale)
    return _level_search(h, tol, 1e-4 * cfg.mu_tolerance)


def solve_p1_lower(problem: SimplexProblem,
                   cfg: SolverConfig = _DEFAULT_CFG) -> Allocation:
    """P1.1 (budget plus per-channel lower bounds) for a validated problem."""
    channels = problem.channels
    gamma = np.array(problem.lower_bounds, dtype=float)
    powers, mu, water_levels, status = water_fill(channels, gamma, problem.budget, cfg)
    return finish(channels, powers, gamma, np.full(len(gamma), np.inf), mu,
                  len(water_levels) or 1, status, water_levels)


def water_fill(channels: Channels, gamma: np.ndarray, budget: float,
               cfg: SolverConfig = _DEFAULT_CFG):
    """P1.1 on ``channels`` with lower bounds ``gamma``; inputs unchecked.

    Returns ``(powers, mu, water_levels, status)``: the powers as an array,
    the final water level (None exactly when ``status`` is ``"feasible"``,
    the lower bounds using up the budget) and the level of every round.
    A bank of ``log_capacity`` and ``inverse_mse`` channels, mixed or not,
    takes :func:`_breakpoint_level` with no upper bounds, a single round
    with one ``demand`` call; every other set the deactivation loop.
    """
    search = _breakpoint_level(channels, gamma, budget, None, cfg)
    if search is None:
        return deactivation_loop(channels, gamma, budget, cfg)
    mu, active, _ = search
    if mu is None:
        return gamma.copy(), None, [], "feasible"
    powers = gamma.copy()
    powers[active] = channels.demand(mu)[active]
    return powers, mu, [mu], "optimal"


def _breakpoint_level(channels: Channels, gamma: np.ndarray, budget: float,
                      tau: np.ndarray | None = None, cfg: SolverConfig = _DEFAULT_CFG):
    """The water level of one problem on a ``log_capacity``/``inverse_mse``
    bank, mixed or not (None for any other set); inputs unchecked, ``tau``
    None for P1.1.  Returns ``(mu, active, upper)``: the level (None with no
    interior channel) and the masks of the interior channels and of those at
    tau (None for P1.1).  Running sums of q, u and the bounds plus b/a over
    the sorted :func:`_bank_points` give the clamped total at each; the first
    over the budget ends the level's segment, and the level is
    :func:`_quadratic_level` of the sums over the segment's interior
    channels, free of the running sums' rounding."""
    bank = _bank_points(channels, gamma, tau)
    if bank is None:
        return None
    floor = float(gamma.sum())
    if floor > budget * (1.0 + 1e-12):
        raise InfeasibleBudget("sum of lower bounds exceeds budget")
    k, spare, (q, u, offset, c, x, order) = len(gamma), budget - floor, bank
    if spare <= cfg.power_tolerance * budget:
        return None, np.zeros(k, dtype=bool), None if tau is None else np.zeros(k, dtype=bool)
    qe, ue = q, u
    if tau is not None:  # a saturation takes its channel's terms away
        np.negative(c[k:], out=c[k:])
        qe, ue = (None if v is None else np.concatenate((v, -v)) for v in (q, u))
    xs = x[order]
    # The points of an infinite tau come last; each over-spends.
    n = len(x) if tau is None else int(np.searchsorted(xs, np.inf))
    before = order[:n - 1]
    # The total above the lower bounds at each finite point after the first.
    excess = -c[before].cumsum()
    if qe is not None:
        excess += qe[before].cumsum() * (xs[1:n] * xs[1:n])
    if ue is not None:
        excess += ue[before].cumsum() * xs[1:n]
    over = (excess >= spare).nonzero()[0]
    # The points before the first over-spending one have passed; all of them,
    # every channel at a bound, when only rounding puts sum(tau) over budget.
    point = xs[over[0] if over.size else n - 1]
    joined = x[:k] <= point
    upper = None if tau is None else x[k:] <= point
    active = joined if tau is None else joined & ~upper
    if not active.any():
        return None, active, upper
    pinned = gamma[~joined].sum() + (0.0 if tau is None else tau[upper].sum())
    q_sum = 0.0 if q is None else float(q[active].sum())
    u_sum = 0.0 if u is None else float(u[active].sum())
    mu = _quadratic_level(q_sum, u_sum, float((budget - float(pinned)) + offset[active].sum()))
    return mu, active, upper


def deactivation_loop(channels: Channels, gamma: np.ndarray, budget: float,
                      cfg: SolverConfig = _DEFAULT_CFG):
    """P1.1 by the deactivation loop (any family); inputs unchecked.  Returns
    ``(powers, mu, water_levels, status)`` as :func:`water_fill`."""
    if gamma.sum() > budget * (1.0 + 1e-12):
        raise InfeasibleBudget("sum of lower bounds exceeds budget")
    k = len(channels)
    active = np.ones(k, dtype=bool)
    act_idx, act, warm = np.arange(k), channels, None
    powers = gamma.copy()
    water_levels: list[float] = []

    while True:
        remaining = budget - float(gamma[~active].sum())
        if not act_idx.size or remaining <= cfg.power_tolerance * budget:
            return gamma.copy(), None, water_levels, "feasible"
        mu, act_powers = _water_level_and_powers(act, remaining, cfg, budget, warm)
        water_levels.append(mu)
        act_gamma = gamma[act_idx]
        keep = act_powers > act_gamma
        powers[act_idx] = np.where(keep, act_powers, act_gamma)
        if keep.all():
            return powers, mu, water_levels, "optimal"
        active[act_idx[~keep]] = False
        keep = keep.nonzero()[0]
        # The level only rises: this one opens the next round's search.
        act_idx, act, warm = act_idx[keep], act.take(keep), (mu, act_powers[keep])


def _classify(powers: np.ndarray, gamma: np.ndarray, tau: np.ndarray):
    """Masks ``(fixed, lower, upper, active)`` over the channels.

    A channel is fixed when its box has no room (tau - gamma within the
    1e-12 relative tolerance): it sits at both bounds, so neither rate
    condition applies to it.
    """
    slack = 1e-12 * (1.0 + gamma)
    fixed = tau - gamma <= slack
    lower = ~fixed & (powers <= gamma + slack)
    # tau - 1e-12 * (1 + tau), in a form that keeps an infinite tau infinite.
    upper = ~fixed & ~lower & (powers >= tau * (1.0 - 1e-12) - 1e-12)
    return fixed, lower, upper, ~(fixed | lower | upper)


def finish(channels: Channels, powers: np.ndarray, gamma: np.ndarray, tau: np.ndarray,
           mu: float | None, iterations: int, status: str = "optimal",
           water_levels: list[float] | None = None) -> Allocation:
    """The :class:`~waterline.problems.Allocation` record of a flat solve.

    Its sets are :func:`_classify` of the powers against the bounds ``gamma``
    and ``tau`` (infinite for P1.1), the classification the condition
    checkers use; a fixed channel counts as lower.  ``water_level`` is None
    when no channel is interior.
    """
    fixed, lower, upper, active = _classify(powers, gamma, tau)
    active_set = np.flatnonzero(active).tolist()
    return Allocation(
        powers=powers.tolist(), water_level=mu if active_set else None,
        active_set=active_set, lower_set=np.flatnonzero(fixed | lower).tolist(),
        upper_set=np.flatnonzero(upper).tolist(), iterations=iterations,
        objective_value=float(channels.eval(powers).sum()), status=status,
        water_levels=water_levels or [])


def solve_p1(problem: SimplexProblem,
             cfg: SolverConfig = _DEFAULT_CFG) -> Allocation:
    """Deactivation-loop solver for the zero-lower-bound problem (P1)."""
    if any(g != 0.0 for g in problem.lower_bounds):
        raise DomainError("solve_p1 requires all-zero lower bounds; "
                          "use solve_p1_lower")
    return solve_p1_lower(problem, cfg)

