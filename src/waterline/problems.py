"""Problem instances, solver configuration, and solution records."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import DomainError, InfeasibleBudget
from .objectives import ClusterLogCapacity, Objective

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
    """Checked ``(lower, upper)`` lists for k channels under ``budget``.

    Every problem class validates its budget and bounds here.
    """
    if not math.isfinite(budget):
        raise DomainError(f"budget must be finite, got {budget}")
    lower = [0.0] * k if lower is None else [float(x) for x in lower]
    if len(lower) != k:
        raise DomainError("lower bound count does not match objective count")
    if any((not math.isfinite(x)) or x < 0 for x in lower):
        raise DomainError("lower bounds must be finite and nonnegative")
    if upper is None:
        upper = [math.inf] * k
    else:
        upper = [math.inf if x is None else float(x) for x in upper]
        if len(upper) != k:
            raise DomainError("upper bound count does not match objective count")
    for lo, hi in zip(lower, upper):
        if math.isnan(hi):
            raise DomainError("upper bounds must be numbers or null, got NaN")
        if hi < lo:
            raise DomainError(f"upper bound {hi} below lower bound {lo}")
    if sum(lower) > budget * (1.0 + 1e-12):
        raise InfeasibleBudget(
            f"sum of lower bounds {sum(lower)} exceeds budget {budget}")
    return lower, upper


@dataclass
class SimplexProblem:
    """Sum-constrained allocation with optional per-channel lower bounds."""

    objectives: Sequence[Objective]
    budget: float
    lower_bounds: Sequence[float] | None = None

    def __post_init__(self):
        if len(self.objectives) < 1:
            raise DomainError("need at least one objective")
        self.budget = float(self.budget)
        if not (self.budget > 0):
            raise DomainError(f"budget must be positive, got {self.budget}")
        self.lower_bounds, _ = _validate_bounds(
            len(self.objectives), self.budget, self.lower_bounds, None)

    @property
    def n(self) -> int:
        return len(self.objectives)


@dataclass
class BoxProblem:
    """Sum-constrained allocation with per-channel box bounds."""

    objectives: Sequence[Objective]
    budget: float
    lower_bounds: Sequence[float] | None = None
    upper_bounds: Sequence[float] | None = None

    def __post_init__(self):
        if len(self.objectives) < 1:
            raise DomainError("need at least one objective")
        self.budget = float(self.budget)
        if not (self.budget > 0):
            raise DomainError(f"budget must be positive, got {self.budget}")
        self.lower_bounds, self.upper_bounds = _validate_bounds(
            len(self.objectives), self.budget, self.lower_bounds, self.upper_bounds)

    @property
    def n(self) -> int:
        return len(self.objectives)


@dataclass
class AscendingProblem:
    """Box-bounded allocation under a chain of nondecreasing prefix budgets."""

    objectives: Sequence[Objective]
    prefix_budgets: Sequence[float]
    lower_bounds: Sequence[float] | None = None
    upper_bounds: Sequence[float] | None = None

    def __post_init__(self):
        k = len(self.objectives)
        if k < 1:
            raise DomainError("need at least one objective")
        self.prefix_budgets = [float(x) for x in self.prefix_budgets]
        if len(self.prefix_budgets) != k:
            raise DomainError("prefix budget count does not match objective count")
        if any(not (x > 0) for x in self.prefix_budgets):
            raise DomainError("prefix budgets must be positive")
        for a, b in zip(self.prefix_budgets, self.prefix_budgets[1:]):
            if b < a:
                raise DomainError("prefix budgets must be nondecreasing")
        self.lower_bounds, self.upper_bounds = _validate_bounds(
            k, self.prefix_budgets[-1], self.lower_bounds, self.upper_bounds)
        running = 0.0
        for j, (lo, cap) in enumerate(zip(self.lower_bounds, self.prefix_budgets)):
            running += lo
            if running > cap * (1.0 + 1e-12):
                raise InfeasibleBudget(
                    f"lower bounds through channel {j} exceed prefix budget {cap}")

    @property
    def n(self) -> int:
        return len(self.objectives)


MODE_MAXMIN = "maxmin"
MODE_CLUSTER = "cluster"
MODE_CLUSTER_MAXMIN = "cluster_maxmin"
FAIR_MODES = (MODE_MAXMIN, MODE_CLUSTER, MODE_CLUSTER_MAXMIN)


@dataclass
class FairProblem:
    """Grouped allocation: max-min fair, clustered, or both combined."""

    groups: Sequence[Sequence[Objective | ClusterLogCapacity]]
    budget: float
    mode: str = MODE_MAXMIN
    lower_bounds: Sequence[Sequence[float]] | None = None
    upper_bounds: Sequence[Sequence[float]] | None = None

    def __post_init__(self):
        if self.mode not in FAIR_MODES:
            raise DomainError(f"unknown fairness mode: {self.mode!r}")
        self.budget = float(self.budget)
        if not (self.budget > 0):
            raise DomainError(f"budget must be positive, got {self.budget}")
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


@dataclass
class Allocation:
    """Solved powers plus the certificates the solvers emit alongside them.

    ``water_levels`` lists the water level of every round a P1/P1.1 solve
    ran and ``iterations`` counts those rounds (at least 1).  The exact
    sorted search of homogeneous ``log_capacity``/``inverse_mse`` solves is a
    single pass: ``water_levels == [water_level]`` and ``iterations == 1``
    (empty and 1 when the lower bounds use up the budget).  The deactivation
    loop of the other families lists one level per round.  Box strategies
    count their own iterations (``order``: binary-search probes plus the
    final P1.1 solve's count).  An ascending solve is always ``"optimal"``;
    ``splits`` counts its blocks after the first (each starts past a binding
    prefix cap), and ``water_levels`` and ``iterations`` collect the blocks'
    box solves.
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
