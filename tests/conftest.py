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
