"""Small statistics helpers shared by the benchmark processes.

Percentiles use the nearest-rank rule, so every reported percentile is one
of the measured samples.  A tail percentile is only meaningful when enough
samples lie beyond it; ``beyond`` gives that count so the report can print
it next to the value.
"""

from __future__ import annotations

import math
from collections import Counter


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {q}")
    ordered = sorted(samples)
    return ordered[math.ceil(q * len(ordered)) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank q-quantile."""
    return n - math.ceil(q * n)


class Tally:
    """Ops attempted and failed, with failures counted by cause.

    A cause is an exception class name, ``check_failed`` (the output did not
    pass its check) or ``disagree`` (the output differs from a reference
    solve).  ``add(None)`` records a success.
    """

    def __init__(self):
        self.attempted = 0
        self.causes: Counter[str] = Counter()

    def add(self, cause: str | None) -> None:
        self.attempted += 1
        if cause is not None:
            self.causes[cause] += 1

    def merge(self, attempted: int, causes: dict) -> None:
        self.attempted += attempted
        self.causes.update(causes)

    @property
    def failed(self) -> int:
        return sum(self.causes.values())

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "causes": dict(sorted(self.causes.items()))}
