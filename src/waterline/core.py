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
  budget.  The bank's terms, which no bound or budget changes, are built
  once (:func:`_bank_terms`); each row of bounds then runs the search on
  them (:func:`_breakpoint_level`, which the box strategy ``order`` shares
  with upper bounds, one bank's terms for a batch of rows, and whose points
  :func:`_bank_points` gives the fair tables and the ascending blocks).
  O(K log K), one pass per row.
* Every other set of the five flat families takes the paper's dynamic-rate
  steps, each the breakpoint search on tangent demands (:func:`tangent_fill`,
  which ``order`` runs with upper bounds off the bank).
* A set holding a custom objective, whose rate need not be convex, or whose
  steps give up, takes the deactivation loop, as ``set_b`` does on every
  family.  It initializes every subchannel as active, solves the common-rate
  equation on the active set, and removes (pins at its lower bound) every
  channel whose unconstrained demand falls at or below that bound.  The loop
  shrinks the active set strictly each round, so it runs at most K-1 times
  and the water level increases strictly across rounds.  On a bank a channel
  is active while the level lies below its join level (its rate at its lower
  bound): a round is a closed-form level and one comparison with the join
  points, and one ``demand`` pass gives the powers.  Elsewhere each round's
  level search is an Illinois regula falsi on x = 1/mu (a ``log_capacity``
  demand is linear in x); from round 2 its bracket opens at the last level,
  whose residual on the smaller set, the removed channels' sum of (lower
  bound - demand), is >= 0.

``solve_p1_lower`` is the public entry: it takes a validated
:class:`~waterline.problems.SimplexProblem`.  The box strategies' array
functions and the fair solvers call ``water_fill`` directly on channels
they have already checked; :func:`finish` builds the public
:class:`~waterline.problems.Allocation` of every flat solve.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BracketFailure, DomainError, InfeasibleBudget
from .objectives import Channels, InverseMse, LogCapacity, Objective
from .problems import Allocation, SimplexProblem, SolverConfig

_DEFAULT_CFG = SolverConfig()
_TERM_FAMILIES = frozenset((LogCapacity, InverseMse))  # with demand terms: sorted, tabled
_TANGENT_STEPS = 64  # past this, tangent_fill gives up: P1.1 runs the loop, order bisect


def _term_mask(channels: Channels) -> np.ndarray:
    """Per channel, whether its group's family is one of :func:`_bank_terms`'."""
    mask = np.zeros(len(channels), dtype=bool)
    for cls, idx, _ in channels._groups:
        mask[slice(None) if idx is None else idx] = cls in _TERM_FAMILIES
    return mask


class _Terms(NamedTuple):
    """What the breakpoint search reads of a ``log_capacity``/``inverse_mse``
    bank, mixed or not, and no bound or budget changes: :func:`_bank_terms`
    builds it once per bank, and each row's :func:`_points` and
    :func:`_breakpoint_level` read it."""

    q: np.ndarray | None       # q, u and root as _bank_terms describes them
    u: np.ndarray | None
    root: np.ndarray | None
    offset: np.ndarray         # b/a
    divisor: np.ndarray        # w or sqrt(w/a), per channel
    # (q, u) over the 2K points of a search with upper bounds, joins then
    # saturations, signed: a saturation takes its channel's term away.
    signed: tuple | None


def _bank_terms(channels: Channels, upper: bool = False) -> _Terms | None:
    """The :class:`_Terms` of a bank of ``log_capacity`` and ``inverse_mse``
    channels, mixed or not, with the ``signed`` terms for searches with upper
    bounds when ``upper``; None for any other set.

    At x = 1/sqrt(mu) channel i demands q_i*x**2 + u_i*x - b_i/a_i: q = w,
    u = 0 for ``log_capacity`` and q = 0, u = sqrt(w/a) for ``inverse_mse``.
    ``q`` (``u``) is None when no channel is of that family; ``root``, None
    unless the bank is mixed, indexes its ``log_capacity`` channels.
    """
    groups = channels._groups
    if not groups or not {g[0] for g in groups} <= _TERM_FAMILIES:
        return None
    k, root = len(channels), None
    terms = {LogCapacity: None, InverseMse: None}
    with np.errstate(over="ignore"):  # w/a and b/a past the float range: the solvers raise
        for cls, idx, (w, a, _) in groups:
            v = w if cls is LogCapacity else np.sqrt(w / a)
            if idx is None:
                terms[cls] = v
            else:  # zero on the other family's channels
                terms[cls] = np.zeros(k)
                terms[cls][idx] = v
                root = idx if cls is LogCapacity else root
        offset = channels.b / channels.a
    q, u = terms[LogCapacity], terms[InverseMse]
    # q and u are 0 on the other family's channels: q + u adds exact zeros.
    divisor = u if q is None else q if u is None else q + u
    if u is not None and np.isinf(offset).any():  # w/a and b/a past the float range:
        divisor = np.where(np.isinf(offset), 1.0, divisor)  # a point of +inf, not inf/inf
    signed = tuple(None if v is None else np.concatenate((v, -v)) for v in (q, u)) \
        if upper else None
    return _Terms(q, u, root, offset, divisor, signed)


def _quadratic_level(q_sum, u_sum, total):
    """The level mu at which channels whose terms (:func:`_bank_terms`) sum
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


def _bank_points(channels: Channels, gamma: np.ndarray, tau=None, sort: bool = True):
    """``(terms, (c, x, order), index)`` of a ``log_capacity``/``inverse_mse``
    bank's every channel (None for any other set): its :func:`_bank_terms`,
    :func:`_points` of the bounds, and the channels' indices.  A channel whose
    b/a leaves the float range never joins: its point is +inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _bank_terms(channels)
        return terms and (terms, _points(terms, gamma, tau, sort=sort), np.arange(gamma.size))


def _points(terms: _Terms, gamma: np.ndarray, tau: np.ndarray | None = None,
            sort: bool = True):
    """``(c, x, order)`` of one row of bounds on a bank of ``terms``: the
    bounds plus b/a, the points x where the channels join (demand ``gamma``)
    then, given ``tau``, saturate, and, with ``sort``, their sorting order,
    stable without ``tau`` for P1.1's equal joins.  A join point is sqrt(c/q) or c/u, taken
    per family (the unified root 2c/(u + sqrt(u**2 + 4qc)) is 0/0 at c = 0)."""
    offset = terms.offset
    c = gamma + offset if tau is None else np.concatenate((gamma + offset, tau + offset))
    x = c / terms.divisor if tau is None else (c.reshape(2, -1) / terms.divisor).ravel()
    if terms.u is None:
        np.sqrt(x, out=x)
    elif terms.root is not None:  # a mixed bank: the joins, then any saturations
        for points in (x,) if tau is None else x.reshape(2, -1):
            points[terms.root] = np.sqrt(points[terms.root])
    return c, x, x.argsort(kind="stable" if tau is None else "quicksort") if sort else None


def _closed_form_mu(channels: Channels, budget: float) -> float | None:
    """:func:`_terms_level` of a log/inverse bank, mixed or not; None for any other set."""
    bank = _bank_terms(channels)
    return None if bank is None else _terms_level(bank.q, bank.u, bank.offset, budget)


def _terms_level(q, u, offset, budget: float) -> float:
    """The closed-form level at which bank channels (:func:`_bank_terms`' q,
    u and b/a ``offset``) spend ``budget``: their demands sum to Q*x**2 + U*x
    - sum(b/a), so :func:`_quadratic_level` of the sums.  A channel whose b/a
    leaves the float range demands -inf at every level: it is left out of
    the sums, and the deactivation loop pins it."""
    terms, total = (q, u), offset.sum()
    if math.isinf(total):
        keep = np.isfinite(offset)
        terms, total = [None if v is None else v[keep] for v in terms], offset[keep].sum()
    q_sum, u_sum = (0.0 if v is None else float(v.sum()) for v in terms)
    return _quadratic_level(q_sum, u_sum, float(budget + total))


def _water_level_and_powers(channels: Channels, budget: float,
                            cfg: SolverConfig = _DEFAULT_CFG,
                            scale: float | None = None, warm=None):
    """Solve sum_k g_k(mu) = budget on the given (nonempty) channels (a bank in closed form).

    Returns ``(mu, powers)`` with signed powers as an array (negative entries
    mean the channel demands less than its domain edge at this water level).
    Each level trial warm-starts the numeric inversions at the last powers,
    from ``warm = (mu, powers)``, a lower level's demands, when given.
    """
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
        mu = _closed_form_mu(Channels(objs), remaining)
        if not 0.0 < mu < math.inf:  # every channel's b/a past the float range
            raise BracketFailure("the water level leaves the float range")
        return mu
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
    powers, mu, water_levels, status, steps = _p1_fill(channels, gamma, problem.budget, cfg)
    return finish(channels, powers, gamma, np.full(len(gamma), np.inf), mu,
                  steps, status, water_levels)


def water_fill(channels: Channels, gamma: np.ndarray, budget: float,
               cfg: SolverConfig = _DEFAULT_CFG, bank=None):
    """P1.1 on ``channels`` with lower bounds ``gamma``; inputs unchecked.

    Returns ``(powers, mu, water_levels, status)``: the powers as an array,
    the final water level (None exactly when ``status`` is ``"feasible"``,
    the lower bounds using up the budget) and its one level (the loop's, one
    per round): by :func:`_breakpoint_level` on a ``log_capacity``/
    ``inverse_mse`` bank (or the ``bank`` :func:`_p1_fill` reads), else :func:`tangent_fill`,
    and the deactivation loop on a custom objective or where the steps give up."""
    return _p1_fill(channels, gamma, budget, cfg, bank)[:4]


def _p1_fill(channels: Channels, gamma: np.ndarray, budget: float, cfg: SolverConfig, bank=None):
    """:func:`water_fill`'s result and its iteration count: 1 on the bank,
    else the tangent steps, and the loop's rounds after them where they give
    up.  A ``bank`` (:func:`_take_bank`) gives the terms and sorted points."""
    terms, points, index = bank or _bank_points(channels, gamma) or (None,) * 3
    if terms is not None:
        mu, active, _ = _breakpoint_level(terms, gamma, budget, None, cfg, points)
        powers, steps = gamma.copy(), 1
        if mu is not None:  # a channel that never joins may overflow: not read
            with np.errstate(over="ignore", invalid="ignore"):
                powers[active] = channels.demand(mu)[index[active]]
    else:
        powers, mu, steps = tangent_fill(channels, gamma, budget, cfg)
        if powers is None:
            result = deactivation_loop(channels, gamma, budget, cfg)
            return (*result, steps + (len(result[2]) or 1))
    return powers, mu, [mu] if mu else [], "optimal" if mu else "feasible", steps


def tangent_fill(channels: Channels, gamma: np.ndarray, budget: float,
                 cfg: SolverConfig = _DEFAULT_CFG, tau: np.ndarray | None = None):
    """P1.1, or with ``tau`` the box, by the paper's dynamic rate on the five
    flat families: the step that P1.1 and ``order`` share; inputs unchecked.
    Returns ``(powers, mu, steps)``, mu None when the floors fill the budget
    and powers None where the steps give up: on a custom objective, after
    :data:`_TANGENT_STEPS`, at a level or powers not finite, or at a last
    level not positive.

    Near p, channel i's demand is linear in the level: p_i + (r_i - mu)/s_i,
    r_i its rate and s_i minus its slope.  Each step is ``order``'s search on
    these tangent demands, which join at J_i = r_i + s_i*(p_i - gamma_i) and
    saturate at J_i - s_i*(tau_i - gamma_i), a signed entry of the sums.  The
    sums find the segment; its level is taken anew from its interior channels
    and its saturated ones' tau - gamma, which the signed entries cancel.
    The rates are convex, so the level rises to mu*, as corrections to the
    last one: b/a does not cancel the budget.  A b = 0 channel at a zero
    floor halves its power where its tangent falls below it.  Stops once no
    power moves by 4 ulp of the budget or the level stops rising."""
    if channels._custom() is not None:  # a custom rate need not be convex
        return None, None, 0
    floor = float(gamma.sum())
    if floor > budget * (1.0 + 1e-12):
        raise InfeasibleBudget("sum of lower bounds exceeds budget")
    k, spare = len(gamma), budget - floor
    if not k or spare <= cfg.power_tolerance * budget:
        return gamma.copy(), None, 1
    edge = (gamma == 0) & (channels.b == 0)
    p, mu, halved, settled = gamma + spare / k, None, False, 4.0 * math.ulp(budget)
    n = k if tau is None else k + int(np.isfinite(tau).sum())  # an infinite tau's point sorts last
    room = tau - gamma if n > k else None
    with np.errstate(all="ignore"):  # a slope that underflows: the steps give up
        for step in range(1, _TANGENT_STEPS + 1):
            rate, slope = channels.rate_slope(p)
            inv = 1.0 / slope
            ref = float((rate * inv).sum() / inv.sum()) if mu is None else mu
            gap = (rate - ref) * inv                   # tangent demand at ref, minus p
            join = (rate - ref) + slope * (p - gamma)  # J - ref
            rise = gap + (p - gamma)
            points, entries, weights = join, rise, inv
            if n > k:
                points = np.concatenate((join, join - slope * room))
                entries, weights = np.concatenate((rise, room - rise)), np.concatenate((inv, -inv))
            order = points.argsort()[::-1][:n]
            excess, weight = entries[order].cumsum(), weights[order].cumsum()
            # The clamped tangent total above gamma at each point after the first.
            over = (excess[:-1] - points[order[1:]] * weight[:-1] >= spare).nonzero()[0]
            m = over[0] if over.size else n - 1
            if n == k:  # no saturation: the running sums' level, as without bounds
                delta = float((excess[m] - spare) / weight[m])
                new = np.maximum(gamma, p + (gap - delta * inv))
            else:  # the level from the segment's channels, free of the sums' cancelling
                passed = np.zeros(2 * k, dtype=bool)
                passed[order[:m + 1]] = True
                full, inner = passed[k:], passed[:k] & ~passed[k:]
                delta = float((rise[inner].sum() + room[full].sum() - spare) / inv[inner].sum())
                new = np.minimum(np.maximum(gamma, p + (gap - delta * inv)), tau)
            last, mu = mu, ref + delta
            if not (math.isfinite(mu) and np.isfinite(new).all()):  # a level <= 0 may rise yet
                break
            low = edge & (new <= gamma)
            new[low] = 0.5 * p[low]
            rising, halved = halved or last is None or mu > last, bool(low.any())
            moved, p = float(np.abs(new - p).max()), new
            if moved <= settled or not rising:
                return (p, mu, step) if mu > 0 else (None, None, step)
    return None, None, step


def _breakpoint_level(terms: _Terms, gamma: np.ndarray, budget: float,
                      tau: np.ndarray | None = None, cfg: SolverConfig = _DEFAULT_CFG,
                      points=None):
    """The water level of one problem (one row of bounds and its budget) on
    a ``log_capacity``/``inverse_mse`` bank, mixed or not, given the bank's
    :func:`_bank_terms` (built with ``upper`` for a ``tau``); inputs
    unchecked, ``tau`` None for P1.1.  Returns ``(mu, active, upper)``: the
    level (None with no interior channel) and the masks of the interior
    channels and of those at tau (None for P1.1).  Running sums of q, u and the bounds plus b/a over the row's sorted
    :func:`_points` give the clamped total at each, a saturation adding its
    channel's terms negated; the first over the budget ends the level's
    segment, and the level is :func:`_quadratic_level` of the sums over the
    segment's interior channels, free of the running sums' rounding.  With
    none interior, bounds that miss the budget raise :class:`BracketFailure`.  Only
    the points, their sort and the sums are the row's own work: rows on one
    bank (``box._order_rows``) share its terms, ``set_a``'s rounds ``points``."""
    floor = float(gamma.sum())
    if floor > budget * (1.0 + 1e-12):
        raise InfeasibleBudget("sum of lower bounds exceeds budget")
    k, spare = len(gamma), budget - floor
    if spare <= cfg.power_tolerance * budget:
        return None, np.zeros(k, dtype=bool), None if tau is None else np.zeros(k, dtype=bool)
    c, x, order = _points(terms, gamma, tau) if points is None else points
    q, u = (terms.q, terms.u) if tau is None else terms.signed
    if tau is not None:  # a saturation takes its channel's terms away
        np.negative(c[k:], out=c[k:])
    xs = x[order]
    # Infinite points (a channel that never joins, an infinite tau) come last.
    n = int(xs.searchsorted(np.inf))
    if not n:
        raise BracketFailure("the water level leaves the float range")
    before = order[:n - 1]
    # The total above the lower bounds at each finite point after the first.
    excess = -c[before].cumsum()
    if q is not None:
        excess += q[before].cumsum() * (xs[1:n] * xs[1:n])
    if u is not None:
        excess += u[before].cumsum() * xs[1:n]
    over = (excess >= spare).nonzero()[0]
    # The points before the first over-spending one have passed; all of them,
    # every channel at a bound, when only rounding puts sum(tau) over budget.
    point = xs[over[0] if over.size else n - 1]
    joined = x[:k] <= point
    upper = None if tau is None else x[k:] <= point
    active = joined if tau is None else joined & ~upper
    pinned = gamma[~joined].sum() + (0.0 if tau is None else tau[upper].sum())
    if not active.any():
        # Every channel at a bound: they spend the budget, unless the rest of
        # it falls to a channel that never joins (b/a past the float range).
        if abs(float(pinned) - budget) > cfg.power_tolerance * budget:
            raise BracketFailure("the water level leaves the float range")
        return None, active, upper
    q_sum = 0.0 if terms.q is None else float(terms.q[active].sum())
    u_sum = 0.0 if terms.u is None else float(terms.u[active].sum())
    total = float((budget - float(pinned)) + terms.offset[active].sum())
    return _quadratic_level(q_sum, u_sum, total), active, upper


def _take_bank(bank, index: np.ndarray):
    """:func:`_bank_points`' ``bank`` at the sorted ``index``, as the channels taken
    there give it, with no take; ``root`` and ``divisor``, for :func:`_points`, are None."""
    terms, (c, x, order), _ = bank
    q, u = (None if v is None else v[index] for v in terms[:2])
    if terms.root is not None:  # a family none holds is None; q is 0 off log_capacity
        q, u = (None, u) if not q.any() else (q, None) if q.all() else (q, u)
    if order is not None:  # a stable order filtered to a subset is the subset's own
        rank = np.full(len(x), -1)
        rank[index] = np.arange(index.size)
        order = (order := rank[order])[order >= 0]
    return _Terms(q, u, None, terms.offset[index], None, None), (c[index], x[index], order), index


def deactivation_loop(channels: Channels, gamma: np.ndarray, budget: float,
                      cfg: SolverConfig = _DEFAULT_CFG, bank=None):
    """P1.1 by the deactivation loop (any family); inputs unchecked.  Returns
    ``(powers, mu, water_levels, status)`` as :func:`water_fill`.  A bank's
    round keeps the channels whose join point (``bank``, or :func:`_bank_points`)
    lies below x = 1/sqrt(mu); :class:`BracketFailure` for its level not positive
    and finite, and for other powers off the budget by over its tolerance."""
    if gamma.sum() > budget * (1.0 + 1e-12):
        raise InfeasibleBudget("sum of lower bounds exceeds budget")
    k = len(gamma)
    active = np.ones(k, dtype=bool)
    act_idx, act, warm = np.arange(k), channels, None
    powers = gamma.copy()
    water_levels: list[float] = []
    terms, points, index = bank or _bank_points(channels, gamma, sort=False) or (None,) * 3
    if terms is not None:
        q, u, offset, joins = *terms[:2], terms.offset, points[1]

    while True:
        remaining = budget - float(gamma[~active].sum())
        if not act_idx.size or remaining <= cfg.power_tolerance * budget:
            return gamma.copy(), None, water_levels, "feasible"
        if terms is not None:
            mu = _terms_level(q, u, offset, remaining)
            if not 0.0 < mu < math.inf:
                raise BracketFailure("the water level leaves the float range")
            water_levels.append(mu)
            keep = joins < 1.0 / math.sqrt(mu)
            if keep.all():
                with np.errstate(over="ignore", invalid="ignore"):
                    powers[act_idx] = channels.demand(mu)[index[act_idx]]
                return powers, mu, water_levels, "optimal"
            active[act_idx] = keep
            act_idx, joins, offset = act_idx[keep], joins[keep], offset[keep]
            q, u = (None if v is None else v[keep] for v in (q, u))
            continue
        mu, act_powers = _water_level_and_powers(act, remaining, cfg, budget, warm)
        water_levels.append(mu)
        act_gamma = gamma[act_idx]
        keep = act_powers > act_gamma
        powers[act_idx] = np.where(keep, act_powers, act_gamma)
        if keep.all():
            if not abs(float(powers.sum()) - budget) <= cfg.power_tolerance * budget:
                raise BracketFailure("no water level spends the budget")
            return powers, mu, water_levels, "optimal"
        active[act_idx] = keep
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

