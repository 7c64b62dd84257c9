"""Concave per-subchannel utilities: value, marginal rate, and inverse rate.

Every family exposes three operations used by the solvers:

* ``eval(p)``      -- the utility value (maximization convention; MSE-type
  families are stored negated so all solvers maximize),
* ``rate(p)``      -- the marginal utility, strictly positive and strictly
  decreasing in ``p``,
* ``inverse_rate(mu)`` -- the power at which the marginal utility equals
  ``mu``.  Closed-form families return the signed value even when it is
  negative; numeric families return a :class:`NegativeDemand` marker in that
  regime.

Solvers use the internal ``demand(mu)`` accessor which is always a signed
float (for numeric families the negative branch is a linear extrapolation of
the rate below the domain edge; only its sign matters to the algorithms).
They read one :class:`Channels` set per solve.  A set of the five
serializable flat families is a bank of arrays, the sum families' demand one
Newton over all their channels; custom objectives keep the object path.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, InversionFailure

_INVERSION_MAX_GROWTH = 60  # bracket doubling cap: 2**60
_INVERSION_MAX_ITER = 200


class NegativeDemand:
    """Marker returned by numeric families when mu exceeds rate(edge).

    ``value`` carries the (extrapolated) signed power so callers that only
    need the sign can still compare against a lower bound.
    """

    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"NegativeDemand({self.value!r})"


def _check_finite_nonneg(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0:
        raise DomainError(f"parameter {name} must be finite and nonnegative, got {value}")
    return value


def _check_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        raise DomainError(f"parameter {name} must be finite and positive, got {value}")
    return value


# Array forms of the checks above, True where a parameter passes; the bank
# families' ``_bank_valid`` combine them as their constructors do.
def _positive(x: np.ndarray) -> np.ndarray:
    return np.isfinite(x) & (x > 0)


def _finite_nonneg(x: np.ndarray) -> np.ndarray:
    return np.isfinite(x) & (x >= 0)


def _valid_wab(w, a, b) -> np.ndarray:
    """Channels whose w, a > 0 and b >= 0 are finite (log_capacity, inverse_mse)."""
    return _positive(w) & _positive(a) & _finite_nonneg(b)


class Objective(ABC):
    """A real-valued, strictly increasing, strictly concave utility."""

    #: True when inverse_rate has a closed form (signed extrapolation exists).
    closed_form_inverse = False
    family = "custom"

    @abstractmethod
    def eval(self, p: float) -> float:
        """Utility at power ``p`` (maximization convention)."""

    @abstractmethod
    def rate(self, p: float) -> float:
        """Marginal utility f'(p), strictly decreasing in ``p``."""

    @abstractmethod
    def rate_slope(self, p: float) -> float:
        """Derivative of ``rate`` with respect to ``p`` (negative)."""

    def domain_min(self) -> float:
        """Lower edge of the admissible power domain (0 unless b = 0)."""
        return 0.0

    def demand(self, mu: float, hint: float | None = None) -> float:
        """Signed power solving rate(p) = mu; negative when mu > rate(edge)."""
        if mu <= 0:
            raise DomainError(f"rate target must be positive, got {mu}")
        return self._demand_numeric(mu, hint)

    def inverse_rate(self, mu: float) -> float | NegativeDemand:
        """Public inverse of ``rate``; see module docstring for semantics."""
        value = self.demand(mu)
        if not self.closed_form_inverse and value < self.domain_min():
            return NegativeDemand(value)
        return value

    # Numeric fallback: monotone bisection with a Newton warm start.
    def _demand_numeric(self, mu: float, hint: float | None = None) -> float:
        edge = self.domain_min()
        rate_edge = self.rate(max(edge, 0.0))
        if mu >= rate_edge:
            if mu == rate_edge:
                return edge
            # Linear extrapolation below the edge; sign is what solvers use.
            slope = self.rate_slope(edge)
            if not math.isfinite(slope) or slope >= 0:
                slope = -max(rate_edge, 1.0)
            return edge + (mu - rate_edge) / slope

        # Newton from the warm start; falls back to bracketed bisection.
        p = hint if hint is not None and hint > edge else edge + 1.0
        for _ in range(40):
            r = self.rate(p)
            s = self.rate_slope(p)
            step = (r - mu) / s
            p_new = p - step
            if p_new <= edge:
                p_new = 0.5 * (p + edge)
            if abs(p_new - p) <= 1e-13 * (1.0 + abs(p_new)):
                return p_new
            p = p_new
        # Bisection rescue over [edge, p_hi] with doubling bracket growth.
        p_hi = max(p, edge + 1.0)
        growth = 0
        while self.rate(p_hi) > mu:
            p_hi = 2.0 * p_hi + 1.0
            growth += 1
            if growth > _INVERSION_MAX_GROWTH:
                raise InversionFailure(
                    f"bracket for inverse rate grew past 2^{_INVERSION_MAX_GROWTH}"
                )
        p_lo = edge
        for _ in range(_INVERSION_MAX_ITER):
            mid = 0.5 * (p_lo + p_hi)
            if self.rate(mid) > mu:
                p_lo = mid
            else:
                p_hi = mid
            if p_hi - p_lo <= 1e-12 * (1.0 + p_hi):
                break
        return 0.5 * (p_lo + p_hi)

    def eval_array(self, p: np.ndarray) -> np.ndarray:
        """Vectorized ``eval`` used by the grid oracle."""
        return np.vectorize(self.eval)(p)

    def to_params(self) -> dict:
        raise NotImplementedError(f"{self.family} objectives do not serialize")


class _ClosedForm(Objective):
    """A family of parameters ``w, a, b`` whose inverse rate has a closed form."""

    closed_form_inverse = True

    def __init__(self, w: float, a: float, b: float):
        self.w = _check_positive("w", w)
        self.a = _check_positive("a", a)
        self.b = _check_finite_nonneg("b", b)

    def to_params(self) -> dict:
        return {"family": self.family, "w": self.w, "a": self.a, "b": self.b}

    _bank_valid = staticmethod(_valid_wab)


class LogCapacity(_ClosedForm):
    """f(p) = w * log(b + a*p): weighted capacity."""

    family = "log_capacity"

    def eval(self, p: float) -> float:
        arg = self.b + self.a * p
        if arg <= 0:
            raise DomainError(f"log argument {arg} <= 0 at p={p}")
        return self.w * math.log(arg)

    def rate(self, p: float) -> float:
        arg = self.b + self.a * p
        if arg < 0:
            raise DomainError(f"power {p} outside admissible domain")
        if arg == 0:
            return math.inf
        return self.w * self.a / arg

    def rate_slope(self, p: float) -> float:
        arg = self.b + self.a * p
        if arg <= 0:
            return -math.inf
        return -self.w * self.a * self.a / (arg * arg)

    def demand(self, mu: float, hint: float | None = None) -> float:
        if mu <= 0:
            raise DomainError(f"rate target must be positive, got {mu}")
        return self.w / mu - self.b / self.a

    def eval_array(self, p: np.ndarray) -> np.ndarray:
        return self.w * np.log(self.b + self.a * p)

    # Array forms of demand, rate and eval (and, from the base, of the
    # constructor's checks) over parameter arrays w, a, b, used by Channels;
    # each repeats the scalar formula operation for operation, so the results
    # agree to the last bit where no log is taken.
    @staticmethod
    def _bank_demand(w, a, b, mu):
        return w / mu - b / a

    @staticmethod
    def _bank_rate(w, a, b, p):
        arg = b + a * p
        if (arg < 0).any():
            raise DomainError("power outside admissible domain")
        with np.errstate(divide="ignore"):
            return w * a / arg

    @staticmethod
    def _bank_eval(w, a, b, p):
        arg = b + a * p
        if (arg <= 0).any():
            raise DomainError("log argument <= 0")
        return w * np.log(arg)


class InverseMse(_ClosedForm):
    """f(p) = -w / (b + a*p): weighted MSE, negated to a maximization."""

    family = "inverse_mse"

    def eval(self, p: float) -> float:
        arg = self.b + self.a * p
        if arg <= 0:
            raise DomainError(f"denominator {arg} <= 0 at p={p}")
        return -self.w / arg

    def rate(self, p: float) -> float:
        arg = self.b + self.a * p
        if arg < 0:
            raise DomainError(f"power {p} outside admissible domain")
        if arg == 0:
            return math.inf
        return self.w * self.a / (arg * arg)

    def rate_slope(self, p: float) -> float:
        arg = self.b + self.a * p
        if arg <= 0:
            return -math.inf
        return -2.0 * self.w * self.a * self.a / (arg ** 3)

    def demand(self, mu: float, hint: float | None = None) -> float:
        if mu <= 0:
            raise DomainError(f"rate target must be positive, got {mu}")
        return math.sqrt(self.w / (self.a * mu)) - self.b / self.a

    def eval_array(self, p: np.ndarray) -> np.ndarray:
        return -self.w / (self.b + self.a * p)

    @staticmethod
    def _bank_demand(w, a, b, mu):
        return np.sqrt(w / (a * mu)) - b / a

    @staticmethod
    def _bank_rate(w, a, b, p):
        arg = b + a * p
        if (arg < 0).any():
            raise DomainError("power outside admissible domain")
        with np.errstate(divide="ignore"):
            return w * a / (arg * arg)

    @staticmethod
    def _bank_eval(w, a, b, p):
        arg = b + a * p
        if (arg <= 0).any():
            raise DomainError("denominator <= 0")
        return -w / arg


class AfRelay(_ClosedForm):
    """f(p) = -w * log(1 - a*b*p / (1 + b*p)): dual-hop AF relaying capacity.

    Requires 0 < a < 1.  Equivalent increasing form:
    f(p) = w * [log(1 + b*p) - log(1 + b*(1-a)*p)].
    """

    family = "af_relay"

    def __init__(self, w: float, a: float, b: float):
        self.w = _check_positive("w", w)
        a = float(a)
        if not (0.0 < a < 1.0):
            raise DomainError(f"af_relay requires 0 < a < 1, got {a}")
        self.a = a
        self.b = _check_positive("b", b)

    def eval(self, p: float) -> float:
        if p < 0:
            raise DomainError(f"power {p} outside admissible domain")
        return self.w * (math.log1p(self.b * p) - math.log1p(self.b * (1.0 - self.a) * p))

    def rate(self, p: float) -> float:
        if p < 0:
            raise DomainError(f"power {p} outside admissible domain")
        d1 = 1.0 + self.b * p
        d2 = 1.0 + self.b * (1.0 - self.a) * p
        return self.w * self.a * self.b / (d1 * d2)

    def rate_slope(self, p: float) -> float:
        d1 = 1.0 + self.b * p
        d2 = 1.0 + self.b * (1.0 - self.a) * p
        num = self.b * d2 + self.b * (1.0 - self.a) * d1
        return -self.w * self.a * self.b * num / (d1 * d1 * d2 * d2)

    def demand(self, mu: float, hint: float | None = None) -> float:
        if mu <= 0:
            raise DomainError(f"rate target must be positive, got {mu}")
        a, b, w = self.a, self.b, self.w
        disc = a * a + 4.0 * w * (1.0 - a) * a * b / mu
        return (math.sqrt(disc) - (2.0 - a)) / (2.0 * (1.0 - a) * b)

    def eval_array(self, p: np.ndarray) -> np.ndarray:
        return self.w * (np.log1p(self.b * p) - np.log1p(self.b * (1.0 - self.a) * p))

    @staticmethod
    def _bank_valid(w, a, b):
        return _positive(w) & (0.0 < a) & (a < 1.0) & _positive(b)

    @staticmethod
    def _bank_demand(w, a, b, mu):
        one_minus_a = 1.0 - a
        disc = a * a + 4.0 * w * one_minus_a * a * b / mu
        return (np.sqrt(disc) - (2.0 - a)) / (2.0 * one_minus_a * b)

    @staticmethod
    def _bank_rate(w, a, b, p):
        if (p < 0).any():
            raise DomainError("power outside admissible domain")
        d1 = 1.0 + b * p
        d2 = 1.0 + b * (1.0 - a) * p
        return w * a * b / (d1 * d2)

    @staticmethod
    def _bank_eval(w, a, b, p):
        if (p < 0).any():
            raise DomainError("power outside admissible domain")
        return w * (np.log1p(b * p) - np.log1p(b * (1.0 - a) * p))


class _Ragged:
    """A bank's sum-family channels: term j of channel (w, a, b, c, d) as
    ``w_j``, ``a*c_j`` and ``b*d_j`` in flat arrays, channel after channel,
    ``sum_log`` terms first and ``sum_inverse_mse`` ones from ``cut`` on.
    ``owner`` gives each term's channel and ``starts`` each channel's first
    term, so a per-channel sum is one ``np.add.reduceat``; ``rate0`` and
    ``slope0`` serve ``demand``'s extrapolated branch."""

    __slots__ = ("w", "ac", "bd", "cut", "owner", "starts", "rate0", "slope0")

    def __init__(self, w, ac, bd, counts, cut):
        self.w, self.ac, self.bd, self.cut = w, ac, bd, cut
        self.owner = np.repeat(np.arange(len(counts)), counts)
        self.starts = np.cumsum(counts) - counts
        self.rate0, slope0 = self.sums(np.zeros(len(counts)))
        self.slope0 = np.where(np.isfinite(slope0) & (slope0 < 0), slope0,
                               -np.maximum(self.rate0, 1.0))

    def _sums(self, p, work):
        """Rows of per-channel rates and minus rate slopes at powers ``p``.
        A ``sum_inverse_mse`` term's rate is the ``sum_log`` one over its
        argument, and its slope term is doubled; ``work`` is (4, T) scratch."""
        rate, slope, arg, u = work
        np.multiply(np.take(p, self.owner, out=arg), self.bd, out=arg)
        arg += self.ac
        np.multiply(self.w, np.divide(self.bd, arg, out=u), out=rate)
        rate[self.cut:] /= arg[self.cut:]
        np.multiply(rate, u, out=slope)[self.cut:] *= 2.0
        return np.add.reduceat(work[:2], self.starts, axis=1)

    def sums(self, p):
        """Per-channel rates and rate slopes at the channels' powers ``p``."""
        rate, slope = self._sums(p, np.empty((4, len(self.w))))
        return rate, -slope

    def eval(self, p):
        arg = self.ac + self.bd * p[self.owner]
        if (arg <= 0).any():
            raise DomainError("utility argument <= 0")
        c, w = self.cut, self.w
        terms = (SumLog._utility(w[:c], arg[:c]), SumInverseMse._utility(w[c:], arg[c:]))
        return np.add.reduceat(np.concatenate(terms), self.starts)

    def demand(self, mu, start=None):
        """Signed demands at ``mu``: one Newton over every channel, step for
        step as :meth:`Objective._demand_numeric` from ``start`` (1 where it
        is None or not positive); NaN where 40 steps do not converge."""
        extrapolate = mu >= self.rate0
        out = np.where(extrapolate, 0.0 + (mu - self.rate0) / self.slope0, np.nan)
        live = ~extrapolate
        p = np.ones(len(out)) if start is None else np.where(start > 0, start, 1.0)
        new, work = np.empty_like(p), np.empty((4, len(self.w)))
        for _ in range(40):
            if not np.count_nonzero(live):
                break
            # The step p - (rate - mu) / slope and its stop test, in place.
            step, neg_slope = self._sums(p, work)
            step -= mu
            np.add(p, np.divide(step, neg_slope, out=step), out=new)
            np.multiply(p, 0.5, out=new, where=new <= 0)
            np.abs(np.subtract(new, p, out=step), out=step)
            done = live & (step <= 1e-13 * (1.0 + np.abs(new)))
            np.copyto(out, new, where=done)
            live ^= done
            p, new = new, p
        return out


def _take_terms(terms, index):
    """The flat ``(w, c, d, counts)`` terms, ``counts`` of them per channel,
    of the channels at ``index`` (None: every channel)."""
    w, c, d, counts = terms
    n = counts if index is None else counts[index]
    first = (np.cumsum(counts) - counts)[slice(None) if index is None else index]
    pos = np.arange(n.sum()) + np.repeat(first - (np.cumsum(n) - n), n)
    return w[pos], c[pos], d[pos], n


class _SumFamily(Objective):
    """f(p) = sum_j f_j(a*c_j + b*d_j*p), the training-based families."""

    def __init__(self, w: Sequence[float], a: float, b: float,
                 c: Sequence[float], d: Sequence[float]):
        self.w = [_check_positive("w_j", x) for x in w]
        self.a = _check_positive("a", a)
        self.b = _check_positive("b", b)
        self.c = [_check_positive("c_j", x) for x in c]
        self.d = [_check_positive("d_j", x) for x in d]
        if not (0 < len(self.w) == len(self.c) == len(self.d)):
            raise DomainError("w, c, d must have equal, nonzero lengths")

    def eval_array(self, p: np.ndarray) -> np.ndarray:
        total = np.zeros_like(p, dtype=float)
        for w, c, d in zip(self.w, self.c, self.d):
            total += self._utility(w, self.a * c + self.b * d * p)
        return total

    # Bank operations on a group's _Ragged terms.
    _bank_demand, _bank_eval = _Ragged.demand, _Ragged.eval
    _bank_rate = staticmethod(lambda terms, p: terms.sums(p)[0])

    def to_params(self) -> dict:
        return {"family": self.family, "w": list(self.w), "a": self.a,
                "b": self.b, "c": list(self.c), "d": list(self.d)}


class SumLog(_SumFamily):
    """f(p) = sum_j w_j * log(a*c_j + b*d_j*p): training mutual information."""

    family = "sum_log"

    def eval(self, p: float) -> float:
        total = 0.0
        for w, c, d in zip(self.w, self.c, self.d):
            arg = self.a * c + self.b * d * p
            if arg <= 0:
                raise DomainError(f"log argument {arg} <= 0 at p={p}")
            total += w * math.log(arg)
        return total

    def rate(self, p: float) -> float:
        total = 0.0
        for w, c, d in zip(self.w, self.c, self.d):
            total += w * self.b * d / (self.a * c + self.b * d * p)
        return total

    def rate_slope(self, p: float) -> float:
        total = 0.0
        for w, c, d in zip(self.w, self.c, self.d):
            bd = self.b * d
            total -= w * bd * bd / (self.a * c + bd * p) ** 2
        return total

    # A term's utility at its argument, over arrays (eval_array, _Ragged).
    _utility = staticmethod(lambda w, arg: w * np.log(arg))


class SumInverseMse(_SumFamily):
    """f(p) = -sum_j w_j / (a*c_j + b*d_j*p): training MSE, negated."""

    family = "sum_inverse_mse"

    def eval(self, p: float) -> float:
        total = 0.0
        for w, c, d in zip(self.w, self.c, self.d):
            arg = self.a * c + self.b * d * p
            if arg <= 0:
                raise DomainError(f"denominator {arg} <= 0 at p={p}")
            total -= w / arg
        return total

    def rate(self, p: float) -> float:
        total = 0.0
        for w, c, d in zip(self.w, self.c, self.d):
            bd = self.b * d
            total += w * bd / (self.a * c + bd * p) ** 2
        return total

    def rate_slope(self, p: float) -> float:
        total = 0.0
        for w, c, d in zip(self.w, self.c, self.d):
            bd = self.b * d
            total -= 2.0 * w * bd * bd / (self.a * c + bd * p) ** 3
        return total

    _utility = staticmethod(lambda w, arg: -w / arg)


class ClusterLogCapacity:
    """f(p, P_cluster) = w * log(1 + a*p / (sigma_e2*P_cluster + sigma_n2)).

    Cluster-aware capacity under imperfect CSI: the utility of one channel
    depends on the total power of its cluster through the interference term.
    ``bind(cluster_power)`` freezes the cluster total and yields an ordinary
    :class:`LogCapacity` objective usable by the single-constraint solvers.
    """

    family = "cluster_log_capacity"
    cluster_aware = True

    def __init__(self, w: float, a: float, sigma_e2: float, sigma_n2: float):
        self.w = _check_positive("w", w)
        self.a = _check_positive("a", a)
        self.sigma_e2 = _check_finite_nonneg("sigma_e2", sigma_e2)
        self.sigma_n2 = _check_positive("sigma_n2", sigma_n2)

    def interference(self, cluster_power: float) -> float:
        return self.sigma_e2 * cluster_power + self.sigma_n2

    def bind(self, cluster_power: float) -> LogCapacity:
        denom = self.interference(cluster_power)
        return LogCapacity(w=self.w, a=self.a / denom, b=1.0)

    def eval(self, p: float, cluster_power: float) -> float:
        return self.bind(cluster_power).eval(p)

    def cluster_partial(self, p: float, cluster_power: float) -> float:
        """Partial derivative of the utility with respect to the cluster total."""
        denom = self.interference(cluster_power)
        return -self.w * self.a * p * self.sigma_e2 / (denom * (denom + self.a * p))

    def to_params(self) -> dict:
        return {"family": self.family, "w": self.w, "a": self.a,
                "sigma_e2": self.sigma_e2, "sigma_n2": self.sigma_n2}


class CustomObjective(Objective):
    """User-supplied utility; inverse rate always numeric. Not serializable."""

    family = "custom"

    def __init__(self, eval_fn: Callable[[float], float],
                 rate_fn: Callable[[float], float],
                 rate_slope_fn: Callable[[float], float] | None = None,
                 domain_min: float = 0.0):
        self._eval = eval_fn
        self._rate = rate_fn
        self._slope = rate_slope_fn
        self._domain_min = float(domain_min)

    def domain_min(self) -> float:
        return self._domain_min

    def eval(self, p: float) -> float:
        return self._eval(p)

    def rate(self, p: float) -> float:
        return self._rate(p)

    def rate_slope(self, p: float) -> float:
        if self._slope is not None:
            return self._slope(p)
        h = 1e-7 * (1.0 + abs(p))
        lo = max(p - h, self._domain_min)
        return (self._rate(p + h) - self._rate(lo)) / (p + h - lo)


_BANK_CLASSES = (LogCapacity, InverseMse, AfRelay, SumLog, SumInverseMse)
_BANK_CODES = {cls.family: code for code, cls in enumerate(_BANK_CLASSES)}
#: The closed-form family names and their classes' positions in ``_BANK_CLASSES``.
BANK_FAMILIES = {f: c for f, c in _BANK_CODES.items() if _BANK_CLASSES[c].closed_form_inverse}


class Channels:
    """The objectives of one solve, with array-valued demand, rate and eval.

    When every objective is one of the five serializable flat families
    (mixing allowed), the set is a bank: one group per closed-form family
    present and one for both sum families, each operation a few array
    expressions per group.  A closed-form group holds its channels' ``w, a,
    b`` as arrays; the sum group holds the terms of every sum channel flat
    (:class:`_Ragged`; ``w`` is NaN there), one Newton loop per level.  A set
    with a custom objective calls the objects' methods, the object path.
    """

    __slots__ = ("_objects", "family", "w", "a", "b", "_codes", "_groups", "_terms")

    def __init__(self, objectives: Sequence[Objective]):
        self._objects = objs = list(objectives)
        kinds = set(map(type, objs))
        self.w = self.a = self.b = self._codes = self.family = self._terms = None
        self._groups: list = []
        if not (kinds and kinds.issubset(_BANK_CLASSES)):
            return
        n = len(objs)
        codes = None if len(kinds) == 1 else np.array(
            [_BANK_CLASSES.index(type(o)) for o in objs], dtype=np.int8)
        if not kinds.isdisjoint((SumLog, SumInverseMse)):
            sums = [o for o in objs if not o.closed_form_inverse]
            terms = tuple(np.array([x for o in sums for x in getattr(o, name)], dtype=float)
                          for name in "wcd") + (np.array(
                              [0 if o.closed_form_inverse else len(o.w) for o in objs]),)
            w = np.array([o.w if o.closed_form_inverse else math.nan for o in objs])
        else:
            terms, w = None, np.fromiter(map(attrgetter("w"), objs), float, n)
        self._set_bank(w, np.fromiter(map(attrgetter("a"), objs), float, n),
                       np.fromiter(map(attrgetter("b"), objs), float, n),
                       kinds.pop() if codes is None else None, codes, terms)

    @classmethod
    def from_arrays(cls, family, w, a, b, terms=None) -> Channels:
        """Bank channels from the parameter arrays ``w, a, b``.

        ``family`` is one family name for every channel, or a sequence of
        names, one per channel.  ``terms = (w, c, d, counts)`` holds the sum
        families' terms flat, channel after channel, with each channel's term
        count (0 for a closed-form one); a sum channel's ``w`` is not read.
        The parameters get the family constructors' checks as array tests: a
        value a constructor refuses raises its ``DomainError``, with ``index``
        at the first channel at fault.  The objects are built only if
        ``objectives`` is read.
        """
        w, a, b = (np.array(x, dtype=float) for x in (w, a, b))
        if not (w.ndim == 1 and w.shape == a.shape == b.shape):
            raise DomainError("w, a and b must be 1-D arrays of one length")
        n = len(w)
        names = BANK_FAMILIES if terms is None else _BANK_CODES
        try:
            if isinstance(family, str):
                single, codes = _BANK_CLASSES[names[family]], None
            else:
                single = None
                codes = np.array([names[f] for f in family], dtype=np.int8)
        except KeyError as exc:
            raise DomainError(f"not a {'flat' if terms else 'closed-form'} family: "
                              f"{exc.args[0]!r}") from None
        if codes is not None and len(codes) != n:
            raise DomainError("family count does not match the parameter arrays")
        bank = object.__new__(cls)
        bank._objects = None
        bad = np.zeros(n, dtype=bool)
        if terms is None:
            bank._set_bank(w, a, b, single, codes)
        else:
            counts = np.array(terms[3], dtype=np.intp)
            terms = tuple(np.array(x, dtype=float) for x in terms[:3]) + (counts,)
            is_sum = codes >= len(BANK_FAMILIES) if codes is not None else \
                not single.closed_form_inverse
            if counts.shape != (n,) or ((counts > 0) != is_sum).any() or \
                    {len(x) for x in terms[:3]} != {counts.sum()}:
                raise DomainError("term counts do not match the families")
            bad = is_sum & ~(_positive(a) & _positive(b))
            bad[np.repeat(np.arange(n), counts)[
                ~(_positive(terms[0]) & _positive(terms[1]) & _positive(terms[2]))]] = True
            with np.errstate(all="ignore"):  # a refused value may divide by 0
                bank._set_bank(w, a, b, single, codes, terms)
        for fam, idx, args in bank._groups:
            if fam.closed_form_inverse:
                bad[slice(None) if idx is None else idx] = ~fam._bank_valid(*args)
        if bad.any():
            i = int(bad.argmax())
            # The masks are the constructors' tests, so channel i is the first
            # whose constructor refuses it, and words the message.
            try:
                bank.objectives
            except DomainError as exc:
                raise DomainError(exc.detail, index=i) from None
        return bank

    def _set_bank(self, w, a, b, single: type | None, codes, terms=None) -> None:
        """Hold w, a, b and the sum families' flat ``terms`` in ``(family, index,
        args)`` groups, one per closed-form family present and one for the sum
        families; ``codes`` gives each channel's family when ``single`` is None."""
        self.w, self.a, self.b, self._codes, self._terms = w, a, b, None, terms
        present = [(single, None)]
        if single is None:
            classes = _BANK_CLASSES if terms else _BANK_CLASSES[:len(BANK_FAMILIES)]
            present = [(cls, idx) for code, cls in enumerate(classes)
                       if (idx := (codes == code).nonzero()[0]).size]
            if len(present) == 1:
                present = [(present[0][0], None)]
            else:
                self._codes = codes
        self.family = None if self._codes is not None else present[0][0].family
        self._groups = [(cls, idx, (w, a, b) if idx is None else (w[idx], a[idx], b[idx]))
                        for cls, idx in present if cls.closed_form_inverse]
        sums = present[len(self._groups):]  # the classes run in code order
        if sums:  # sum_log channels first
            idx = sums[0][1] if len(sums) == 1 else np.concatenate([i for _, i in sums])
            tw, tc, td, n = _take_terms(terms, idx)
            logs = len(n) if sums[-1][0] is SumLog else len(sums[0][1]) if sums[1:] else 0
            a, b = (a, b) if idx is None else (a[idx], b[idx])
            self._groups.append((_SumFamily, idx, (_Ragged(
                tw, np.repeat(a, n) * tc, np.repeat(b, n) * td, n, int(n[:logs].sum())),)))

    @property
    def banked(self) -> bool:
        """True when the operations run on the bank's arrays."""
        return self.w is not None

    @property
    def objectives(self) -> list:
        """The objectives, one per channel (built from the bank on first use
        when the channels came from ``with_a``)."""
        if self._objects is None:
            n = len(self)
            w, a, b = self.w.tolist(), self.a.tolist(), self.b.tolist()
            if self._terms is not None:
                cut = np.cumsum(self._terms[3])[:-1]
                cw, cc, cd = ([x.tolist() for x in np.split(t, cut)] for t in self._terms[:3])
            classes = [FAMILIES[self.family]] * n \
                if self._codes is None else [_BANK_CLASSES[c] for c in self._codes.tolist()]
            self._objects = [cls(w[i], a[i], b[i]) if cls.closed_form_inverse else
                             cls(cw[i], a[i], b[i], cc[i], cd[i])
                             for i, cls in enumerate(classes)]
        return self._objects

    def __len__(self) -> int:
        return len(self.w) if self.banked else len(self._objects)

    def take(self, index) -> Channels:
        """The channels at ``index`` (an integer array), in that order."""
        index = np.asarray(index, dtype=np.intp)
        objects = None if self._objects is None else \
            [self._objects[i] for i in index.tolist()]
        if not self.banked:
            return Channels(objects)
        sub = self._rebank(self.w[index], self.a[index], self.b[index], index)
        sub._objects = objects
        return sub

    def with_a(self, a: np.ndarray) -> Channels:
        """The same bank channels with the parameter ``a`` replaced."""
        return self._rebank(self.w, a, self.b)

    def _rebank(self, w, a, b, index=None) -> Channels:
        """Bank channels of this bank's families (at ``index``, when given)
        with the parameter arrays ``w, a, b``; their objects are built only
        if ``objectives`` is read."""
        sub = object.__new__(Channels)
        sub._objects = None
        terms = self._terms
        if terms is not None and index is not None:
            terms = _take_terms(terms, index)
        if self._codes is None:
            sub._set_bank(w, a, b, FAMILIES[self.family], None, terms)
        else:
            sub._set_bank(w, a, b, None,
                          self._codes if index is None else self._codes[index], terms)
        return sub

    def _apply(self, op: str, x, start=None) -> np.ndarray:
        if len(self._groups) == 1 and self._groups[0][1] is None:
            cls, _, args = self._groups[0]
            extra = () if start is None or cls.closed_form_inverse else (start,)
            return getattr(cls, op)(*args, x, *extra)
        scalar = np.ndim(x) == 0
        out = np.empty(len(self))
        for cls, idx, args in self._groups:
            extra = () if start is None or cls.closed_form_inverse else (start[idx],)
            out[idx] = getattr(cls, op)(*args, x if scalar else x[idx], *extra)
        return out

    def demand(self, mu: float, start: np.ndarray | None = None) -> np.ndarray:
        """Signed demands at water level ``mu``.

        ``start`` (one power per channel, such as the previous level's
        demands) warm-starts the sum families' array Newton, or on the object
        path each object's ``demand`` as its hint.  A channel the array Newton
        leaves unconverged takes its object's ``demand`` (bisection rescue).
        On a bank of one closed-form family ``mu`` may be a column of S
        levels, shape (S, 1); the demands are then (S, K), a row per level.
        """
        if (mu <= 0).any() if isinstance(mu, np.ndarray) else mu <= 0:
            raise DomainError(f"rate target must be positive, got {mu}")
        if not self.banked:
            hints = [None] * len(self) if start is None else start.tolist()
            return np.array([obj.demand(mu, h) for obj, h in zip(self._objects, hints)],
                            dtype=float)
        out = self._apply("_bank_demand", mu, start)
        if self._terms is not None:
            for i in np.isnan(out).nonzero()[0].tolist():
                out[i] = self.objectives[i].demand(mu, None if start is None else start[i])
        return out

    def rate(self, powers) -> np.ndarray:
        """Marginal utilities at ``powers`` (one per channel)."""
        if self.banked:
            return self._apply("_bank_rate", np.asarray(powers, dtype=float))
        return np.array([obj.rate(p) for obj, p in
                         zip(self._objects, np.asarray(powers, dtype=float).tolist())],
                        dtype=float)

    def eval(self, powers) -> np.ndarray:
        """Utilities at ``powers`` (one per channel)."""
        if self.banked:
            return self._apply("_bank_eval", np.asarray(powers, dtype=float))
        return np.array([obj.eval(p) for obj, p in
                         zip(self._objects, np.asarray(powers, dtype=float).tolist())],
                        dtype=float)


def _cluster_aware(obj) -> bool:
    return getattr(obj, "cluster_aware", False)


class ClusterChannels:
    """Entries of a fair problem, bound to their cluster power by arrays.

    Entries are :class:`ClusterLogCapacity` or ordinary objectives.
    ``bind(cluster_power)`` gives their :class:`Channels` at that cluster
    power: each cluster-aware entry becomes the ``log_capacity``
    channel ``w*log(1 + a'*p)`` with ``a' = a/(sigma_e2*P + sigma_n2)``, the
    operations of :meth:`ClusterLogCapacity.bind` run as one array expression
    over parameter arrays built here, once.  When every entry is
    cluster-aware, the template bank is built from those arrays, with no
    object per entry.  When the ordinary entries are flat families too (sum
    families included), the result is a bank; otherwise the entries bind
    through the objects and run on the object path.

    A :class:`~waterline.problems.FairProblem` holds one such bank over
    every group's entries, in order (:attr:`~waterline.problems.FairProblem.bank`),
    and reads each group as a :meth:`segment` of it.
    """

    def __init__(self, objectives: Sequence):
        self.objectives = list(objectives)
        flags = [_cluster_aware(o) for o in self.objectives]
        self.index = np.flatnonzero(np.array(flags, dtype=bool))
        aware = self.objectives if all(flags) else \
            [self.objectives[i] for i in self.index.tolist()]
        self.w, self.a, self.sigma_e2, self.sigma_n2 = (
            np.fromiter(map(attrgetter(name), aware), float, len(aware))
            for name in ("w", "a", "sigma_e2", "sigma_n2"))
        # Cluster-aware entries enter as log_capacity with b = 1; bind() sets their a.
        if self.index.size == len(self.objectives):
            self._template = Channels.from_arrays(
                "log_capacity", self.w, self.a / self.sigma_n2, np.ones(len(self.w)))
        else:
            self._template = Channels([o.bind(0.0) if aware else o
                                       for o, aware in zip(self.objectives, flags)]
                                      if self.index.size else self.objectives)

    @property
    def coupled(self) -> bool:
        """True when some entry's utility depends on the cluster power."""
        return bool((self.sigma_e2 > 0).any())

    def segment(self, start: int, stop: int) -> ClusterChannels:
        """Entries ``start:stop`` as a bank of their own, taken from this
        one's arrays and template, not rebuilt from the objects.  Its template
        is a bank whenever one built from those entries alone would be, even
        when this one's is not (a custom entry elsewhere)."""
        view = object.__new__(ClusterChannels)
        view.objectives = self.objectives[start:stop]
        lo, hi = np.searchsorted(self.index, (start, stop)).tolist()
        view.index = self.index[lo:hi] - start
        view.w, view.a, view.sigma_e2, view.sigma_n2 = (
            x[lo:hi] for x in (self.w, self.a, self.sigma_e2, self.sigma_n2))
        view._template = self._template.take(np.arange(start, stop))
        return view

    def bind(self, cluster_power) -> Channels:
        """The channels with the cluster power frozen at ``cluster_power``: one
        float for every entry, or an array of one per entry (each entry bound
        at its own group's total, when the bank spans several groups)."""
        if not self.index.size:
            return self._template
        if not self._template.banked:
            powers = np.broadcast_to(cluster_power, len(self.objectives)).tolist()
            return Channels([o.bind(p) if _cluster_aware(o) else o
                             for o, p in zip(self.objectives, powers)])
        a = self._template.a.copy()
        a[self.index] = self.a / (self.sigma_e2 * self._aware(cluster_power) + self.sigma_n2)
        return self._template.with_a(a)

    def _aware(self, cluster_power):
        """``cluster_power`` as the cluster-aware entries read it: a float as
        it is, one power per entry taken at ``index``."""
        return np.asarray(cluster_power)[self.index] if np.ndim(cluster_power) \
            else cluster_power

    def partials(self, powers, cluster_power) -> np.ndarray:
        """:meth:`ClusterLogCapacity.cluster_partial` of each cluster-aware
        entry, in ``index`` order, at ``powers`` (one per entry) and
        ``cluster_power`` (as :meth:`bind` takes it)."""
        p = np.asarray(powers, dtype=float)[self.index]
        denom = self.sigma_e2 * self._aware(cluster_power) + self.sigma_n2
        return -self.w * self.a * p * self.sigma_e2 / (denom * (denom + self.a * p))

    def drag(self, powers, cluster_power: float) -> float:
        """The group's interference drag: the sum of its :meth:`partials`."""
        return float(self.partials(powers, cluster_power).sum())


FAMILIES = {
    "log_capacity": LogCapacity,
    "inverse_mse": InverseMse,
    "af_relay": AfRelay,
    "sum_log": SumLog,
    "sum_inverse_mse": SumInverseMse,
    "cluster_log_capacity": ClusterLogCapacity,
}


def objective_from_params(params: dict):
    """Build an objective from its serialized parameter record."""
    record = dict(params)
    family = record.pop("family", None)
    if family not in FAMILIES:
        raise DomainError(f"unknown objective family: {family!r}")
    return FAMILIES[family](**record)
