"""Shared random-instance factories for the test suite."""

import itertools
import math
import random

import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    settings = None
else:
    settings.register_profile("short", max_examples=50, deadline=None, derandomize=True)
    settings.register_profile("long", max_examples=500, deadline=None)

from waterline import (
    AfRelay, AscendingProblem, BoxProblem, InverseMse, LogCapacity,
    SimplexProblem, SumInverseMse, SumLog, solve_box)

FLAT_FAMILIES = ("log_capacity", "inverse_mse", "af_relay",
                 "sum_log", "sum_inverse_mse")
CLOSED_FORM_FAMILIES = ("log_capacity", "inverse_mse", "af_relay")


def layout(channels) -> list:
    """The family of each of a ``Channels`` set's groups, in group order."""
    return [group[0] for group in channels._groups]


def make_objective(family: str, rng: random.Random):
    if family == "log_capacity":
        return LogCapacity(rng.uniform(0.5, 2), rng.uniform(0.5, 2),
                           rng.uniform(0.05, 2))
    if family == "inverse_mse":
        return InverseMse(rng.uniform(0.5, 2), rng.uniform(0.5, 2),
                          rng.uniform(0.05, 2))
    if family == "af_relay":
        return AfRelay(rng.uniform(0.5, 2), rng.uniform(0.1, 0.9),
                       rng.uniform(0.5, 2))
    terms = rng.randint(1, 3)
    w = [rng.uniform(0.5, 2) for _ in range(terms)]
    c = [rng.uniform(0.5, 2) for _ in range(terms)]
    d = [rng.uniform(0.5, 2) for _ in range(terms)]
    cls = SumLog if family == "sum_log" else SumInverseMse
    return cls(w, rng.uniform(0.5, 2), rng.uniform(0.5, 2), c, d)


def random_simplex(family: str, rng: random.Random, k: int,
                   with_lower: bool = False) -> SimplexProblem:
    budget = k * rng.uniform(0.5, 3)
    lower = None
    if with_lower:
        lower = [rng.uniform(0, 0.5) * budget / k for _ in range(k)]
    return SimplexProblem([make_objective(family, rng) for _ in range(k)],
                          budget, lower)


def random_box(family: str, rng: random.Random, k: int,
               infinite_tau_prob: float = 0.2) -> BoxProblem:
    budget = k * rng.uniform(0.5, 3)
    lower = [rng.uniform(0, 0.6) * budget / k for _ in range(k)]
    upper = [lo + rng.uniform(0.2, 2.5) * budget / k
             if rng.random() > infinite_tau_prob else None
             for lo in lower]
    return BoxProblem([make_objective(family, rng) for _ in range(k)],
                      budget, lower, upper)


def random_ascending(family: str, rng: random.Random, k: int) -> AscendingProblem:
    base = rng.uniform(0.5, 2.0)
    lower = [rng.uniform(0, 0.3) * base for _ in range(k)]
    upper = [lo + rng.uniform(0.3, 2.0) * base
             if rng.random() > 0.3 else None for lo in lower]
    prefixes, running_gamma, slack = [], 0.0, 0.0
    for j in range(k):
        running_gamma += lower[j]
        slack += rng.uniform(0.1, 1.0) * base
        prefixes.append(running_gamma + slack)
    return AscendingProblem([make_objective(family, rng) for _ in range(k)],
                            prefixes, lower, upper)


def wide_p1(rng: np.random.Generator) -> SimplexProblem | None:
    """A P1.1 over ROADMAP item 3's ranges, or None when it holds no
    ``af_relay`` or sum channel: K 1 to 8, each channel's family drawn from
    the five; w in 1e-2..1e2, a in 1e-4..1e4, b in 1e-4..1e2, ``af_relay``'s a
    in 0.01..0.99, a sum channel's 1 to 3 terms with w, c, d in 1e-2..1e2 and
    a = b = 1; the budget in 1e-6..1e6, floors on half the problems (all
    log-uniform but ``af_relay``'s a and the floors)."""
    def draw(lo, hi):
        return float(10 ** rng.uniform(lo, hi))
    k = int(rng.integers(1, 9))
    families = rng.integers(0, 5, k).tolist()
    objs = []
    for family in families:
        if family == 0:
            objs.append(LogCapacity(draw(-2, 2), draw(-4, 4), draw(-4, 2)))
        elif family == 1:
            objs.append(InverseMse(draw(-2, 2), draw(-4, 4), draw(-4, 2)))
        elif family == 2:
            objs.append(AfRelay(draw(-2, 2), float(rng.uniform(0.01, 0.99)), draw(-4, 2)))
        else:
            n = int(rng.integers(1, 4))
            w, c, d = ([draw(-2, 2) for _ in range(n)] for _ in range(3))
            objs.append((SumLog if family == 3 else SumInverseMse)(w, 1, 1, c, d))
    budget = draw(-6, 6)
    lower = (rng.uniform(0, 0.5, k) * budget / k).tolist() if rng.random() < 0.5 else None
    return SimplexProblem(objs, budget, lower) if max(families) >= 2 else None


def wide_box(rng: np.random.Generator) -> BoxProblem | None:
    """A box over ROADMAP item 3's ranges, or None as :func:`wide_p1` gives:
    its channels, budget and floors, each upper bound the floor plus the
    per-channel share of the budget times 0.01..3."""
    problem = wide_p1(rng)
    if problem is None:
        return None
    share = problem.budget / problem.n
    tau = np.array(problem.lower_bounds) + share * rng.uniform(0.01, 3, problem.n)
    return BoxProblem(problem.objectives, problem.budget, problem.lower_bounds, tau.tolist())


def enumerate_tight_caps(problem: AscendingProblem) -> float:
    """Best objective over every pattern of tight prefix caps (small K).

    The caps a pattern marks tight end its blocks, and each block is the box
    problem under the budget its cap leaves, solved by ``solve_box``; the
    patterns whose powers keep every cap are compared.  At the optimum the
    caps it meets with equality end blocks that are box optima, so the best
    pattern is the optimum.
    """
    k, caps = problem.n, problem.prefix_budgets
    gamma, tau = problem.lower_bounds, problem.upper_bounds
    best = -math.inf
    for ends in itertools.product((False, True), repeat=k - 1):
        powers, start = [], 0
        for stop in [j + 1 for j, end in enumerate(ends) if end] + [k]:
            budget = caps[stop - 1] - (caps[start - 1] if start else 0.0)
            lower = gamma[start:stop]
            if budget <= sum(lower) * (1.0 + 1e-12):
                powers += lower
            else:
                powers += solve_box(BoxProblem(
                    problem.objectives[start:stop], budget, lower,
                    [None if math.isinf(t) else t for t in tau[start:stop]])).powers
            start = stop
        if (np.cumsum(powers) <= np.array(caps) * (1.0 + 1e-9)).all():
            best = max(best, sum(o.eval(p) for o, p in zip(problem.objectives, powers)))
    return best


def pytest_configure(config):
    # The short, derandomized profile unless --hypothesis-profile names another.
    if settings is not None and not config.getoption("--hypothesis-profile", None):
        settings.load_profile("short")


@pytest.fixture
def rng():
    return random.Random(20240817)
