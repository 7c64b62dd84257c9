"""Problem instances, solver configuration, and solution records."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, InfeasibleBudget
from .objectives import Channels, ClusterChannels, ClusterLogCapacity, Objective

BOX_STRATEGIES = ("set_a", "set_b", "bisect", "order")


@dataclass(frozen=True)
class SolverConfig:
    mu_tolerance: float = 1e-10           # relative tolerance on water levels
    power_tolerance: float = 1e-9         # absolute fraction of the budget
    box_strategy: str = "order"

    def __post_init__(self):
        if self.mu_tolerance <= 0 or self.power_tolerance <= 0:
            raise DomainError("tolerances must be positive")
        if self.box_strategy not in BOX_STRATEGIES:
            raise DomainError(f"unknown box strategy: {self.box_strategy!r}")


def _validate_bounds(k: int, budget: float, lower, upper):
    """Checked ``(lower, upper)`` float lists for k channels under ``budget``.

    Every problem class validates its budget and bounds here.  ``None`` in
    ``upper`` (or ``upper`` itself None) means no upper bound.
    """
    if not math.isfinite(budget):
        raise DomainError(f"budget must be finite, got {budget}")
    lo = np.zeros(k) if lower is None else np.array(lower, dtype=float)
    if lo.shape != (k,):
        raise DomainError("lower bound count does not match objective count")
    if not np.isfinite(lo).all() or (lo < 0).any():
        raise DomainError("lower bounds must be finite and nonnegative")
    if upper is None:
        hi = np.full(k, math.inf)
    else:
        if not isinstance(upper, np.ndarray):  # float(None) would be NaN
            upper = [math.inf if x is None else x for x in upper]
        hi = np.array(upper, dtype=float)
        if hi.shape != (k,):
            raise DomainError("upper bound count does not match objective count")
    bad = np.isnan(hi) | (hi < lo)
    if bad.any():
        i = int(bad.argmax())
        if math.isnan(hi[i]):
            raise DomainError("upper bounds must be numbers or null, got NaN")
        raise DomainError(f"upper bound {hi[i]} below lower bound {lo[i]}")
    lower = lo.tolist()
    total = sum(lower)  # left to right; np.sum's pairwise rounding may differ
    if total > budget * (1.0 + 1e-12):
        raise InfeasibleBudget(f"sum of lower bounds {total} exceeds budget {budget}")
    return lower, hi.tolist()


def _channel_bank(cls):
    """Give a flat problem class its ``channels`` bank.

    The ``objectives`` argument is a :class:`~waterline.objectives.Channels`
    set or a sequence of objectives; assigning it builds ``channels``, and
    reading ``objectives`` gives the objects, built from the bank on first
    read when the problem was built from one.
    """
    def get_objectives(self) -> list:
        return self.channels.objectives

    def set_objectives(self, objectives) -> None:
        self.channels = objectives if isinstance(objectives, Channels) \
            else Channels(objectives)

    cls.objectives = property(get_objectives, set_objectives)
    cls.n = property(lambda self: len(self.channels))
    return cls


def _positive_budget(budget) -> float:
    budget = float(budget)
    if not (budget > 0):
        raise DomainError(f"budget must be positive, got {budget}")
    return budget


@_channel_bank
@dataclass
class SimplexProblem:
    """Sum-constrained allocation with optional per-channel lower bounds."""

    objectives: Channels | Sequence[Objective]
    budget: float
    lower_bounds: Sequence[float] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("need at least one objective")
        self.budget = _positive_budget(self.budget)
        self.lower_bounds, _ = _validate_bounds(
            self.n, self.budget, self.lower_bounds, None)


@_channel_bank
@dataclass
class BoxProblem:
    """Sum-constrained allocation with per-channel box bounds."""

    objectives: Channels | Sequence[Objective]
    budget: float
    lower_bounds: Sequence[float] | None = None
    upper_bounds: Sequence[float | None] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("need at least one objective")
        self.budget = _positive_budget(self.budget)
        self.lower_bounds, self.upper_bounds = _validate_bounds(
            self.n, self.budget, self.lower_bounds, self.upper_bounds)


@_channel_bank
@dataclass
class AscendingProblem:
    """Box-bounded allocation under a chain of nondecreasing prefix budgets."""

    objectives: Channels | Sequence[Objective]
    prefix_budgets: Sequence[float]
    lower_bounds: Sequence[float] | None = None
    upper_bounds: Sequence[float | None] | None = None

    def __post_init__(self):
        k = self.n
        if k < 1:
            raise DomainError("need at least one objective")
        caps = np.array(self.prefix_budgets, dtype=float)
        if caps.shape != (k,):
            raise DomainError("prefix budget count does not match objective count")
        if not (caps > 0).all():
            raise DomainError("prefix budgets must be positive")
        if (caps[1:] < caps[:-1]).any():
            raise DomainError("prefix budgets must be nondecreasing")
        self.prefix_budgets = caps.tolist()
        self.lower_bounds, self.upper_bounds = _validate_bounds(
            k, self.prefix_budgets[-1], self.lower_bounds, self.upper_bounds)
        # cumsum adds left to right, as a running sum does.
        over = np.flatnonzero(np.cumsum(self.lower_bounds) > caps * (1.0 + 1e-12))
        if over.size:
            raise InfeasibleBudget(f"lower bounds through channel {over[0]} exceed "
                                   f"prefix budget {self.prefix_budgets[over[0]]}")


MODE_MAXMIN = "maxmin"
MODE_CLUSTER = "cluster"
MODE_CLUSTER_MAXMIN = "cluster_maxmin"
FAIR_MODES = (MODE_MAXMIN, MODE_CLUSTER, MODE_CLUSTER_MAXMIN)


@dataclass
class FairProblem:
    """Grouped allocation: max-min fair, clustered, or both combined.

    ``bank`` holds every group's entries, in order, as one
    :class:`~waterline.objectives.ClusterChannels`; group j is entries
    ``offsets[j]:offsets[j + 1]`` of it, and ``group_banks[j]`` is that
    group as a segment of the bank.  Each is built on first read, once per
    problem, and shared by the solvers and the condition checks; a change
    to ``groups`` after that does not reach them.
    """

    groups: Sequence[Sequence[Objective | ClusterLogCapacity]]
    budget: float
    mode: str = MODE_MAXMIN
    lower_bounds: Sequence[Sequence[float]] | None = None
    upper_bounds: Sequence[Sequence[float]] | None = None

    def __post_init__(self):
        if self.mode not in FAIR_MODES:
            raise DomainError(f"unknown fairness mode: {self.mode!r}")
        self.budget = _positive_budget(self.budget)
        if not self.groups or any(len(g) < 1 for g in self.groups):
            raise DomainError("every group needs at least one objective")
        cluster_mode = self.mode in (MODE_CLUSTER, MODE_CLUSTER_MAXMIN)
        for group in self.groups:
            for obj in group:
                aware = getattr(obj, "cluster_aware", False)
                if cluster_mode and not aware and not isinstance(obj, Objective):
                    raise DomainError("cluster modes need Objective or cluster-aware entries")
                if not cluster_mode and aware:
                    raise DomainError("cluster-aware objectives require a cluster mode")
        sizes = [len(g) for g in self.groups]
        lower = [None] * len(sizes) if self.lower_bounds is None else self.lower_bounds
        upper = [None] * len(sizes) if self.upper_bounds is None else self.upper_bounds
        if len(lower) != len(sizes) or len(upper) != len(sizes):
            raise DomainError("bound shapes do not match group shapes")
        rows = [_validate_bounds(n, self.budget, lo, hi)
                for n, lo, hi in zip(sizes, lower, upper)]
        self.lower_bounds = [lo for lo, _ in rows]
        self.upper_bounds = [hi for _, hi in rows]
        if cluster_mode and any(math.isfinite(hi) for row in self.upper_bounds
                                for hi in row):
            raise DomainError("cluster modes do not support finite upper bounds")
        total_lower = sum(sum(row) for row in self.lower_bounds)
        if total_lower > self.budget * (1.0 + 1e-12):
            raise InfeasibleBudget("sum of lower bounds exceeds budget")

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @cached_property
    def bank(self) -> ClusterChannels:
        return ClusterChannels([obj for group in self.groups for obj in group])

    @cached_property
    def offsets(self) -> np.ndarray:
        return np.cumsum([0] + [len(group) for group in self.groups])

    @cached_property
    def group_banks(self) -> list[ClusterChannels]:
        ends = self.offsets.tolist()
        return [self.bank.segment(lo, hi) for lo, hi in zip(ends[:-1], ends[1:])]


@dataclass
class Allocation:
    """Solved powers plus the certificates the solvers emit alongside them.

    A P1/P1.1 solve's ``water_levels`` is ``[water_level]`` (empty when the
    lower bounds use up the budget) and ``iterations`` counts its passes: 1
    for the sorted search of ``log_capacity``/``inverse_mse`` sets, mixed or
    not, one per tangent step on the other flat families.  The deactivation
    loop (a set holding a custom objective, or steps that give up) lists
    one level per round and adds its rounds.  Box strategies count their own
    iterations (``order``: 1 on such a bank, as one pass, else its tangent
    steps, plus ``bisect``'s evaluations where they give up; ``set_a``
    and ``set_b``: their P1.1 solves, at least 1; ``bisect``: its level
    evaluations, one clamped ``demand`` pass each, at least 1).  An
    ascending solve is always ``"optimal"``; ``splits`` counts its blocks
    after the first (each starts past a binding prefix cap), and
    ``water_levels`` and ``iterations`` collect the blocks' box solves.  A
    block on a ``log_capacity``/``inverse_mse`` bank runs none: it counts one
    iteration, and lists its exact level when some channel is interior.

    Every flat record is built by :func:`waterline.core.finish`, whose sets
    classify the powers against the bounds as ``check_conditions`` does.
    ``water_level`` is None when no channel is interior, and for an
    ascending staircase of more than one block.
    """

    powers: list[float]
    water_level: float | None
    active_set: list[int]
    lower_set: list[int]
    upper_set: list[int]
    iterations: int
    objective_value: float
    status: str  # "optimal" | "feasible"
    water_levels: list[float] = field(default_factory=list)
    splits: int = 0

    @property
    def total_power(self) -> float:
        return sum(self.powers)


@dataclass
class FairSolution:
    """Grouped allocation result with per-group water levels.

    ``iterations`` counts the outer evaluations of the summed group budgets,
    bracket probes plus root steps (1 when every channel sits at a finite
    upper bound that the budget covers).
    """

    powers: list[list[float]]
    water_levels: list[float | None]
    group_totals: list[float]
    group_utilities: list[float]
    t: float
    active_sets: list[list[int]]
    iterations: int
    status: str

    @property
    def total_power(self) -> float:
        return sum(self.group_totals)


@dataclass
class KktReport:
    """Residuals of the applicable optimality/feasibility conditions."""

    residuals: dict[str, float]
    tolerance: float
    not_applicable: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(v <= self.tolerance for v in self.residuals.values())

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0
