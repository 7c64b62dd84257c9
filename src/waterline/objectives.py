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
    """One sum family's channels in a bank: term j of channel (w, a, b, c, d)
    as ``w_j``, ``a*c_j`` and ``b*d_j`` in flat arrays, channel after channel.
    ``owner`` gives each term's channel and ``starts`` each channel's first
    term, so a per-channel sum is one ``np.add.reduceat``; ``rate0`` and
    ``slope0`` serve ``demand``'s extrapolated branch."""

    __slots__ = ("cls", "w", "ac", "bd", "owner", "starts", "rate0", "slope0")

    def __init__(self, cls, w, ac, bd, counts):
        self.cls, self.w, self.ac, self.bd = cls, w, ac, bd
        self.owner = np.repeat(np.arange(len(counts)), counts)
        self.starts = np.cumsum(counts) - counts
        self.rate0, slope0 = self.sums(np.zeros(len(counts)))
        self.slope0 = np.where(np.isfinite(slope0) & (slope0 < 0), slope0,
                               -np.maximum(self.rate0, 1.0))

    def sums(self, p):
        """Per-channel rates and rate slopes at the channels' powers ``p``."""
        rate, slope = self.cls._terms(self.w, self.ac, self.bd, p[self.owner])
        return np.add.reduceat(rate, self.starts), np.add.reduceat(slope, self.starts)

    def eval(self, p):
        p = p[self.owner]
        if (self.ac + self.bd * p <= 0).any():
            raise DomainError("utility argument <= 0")
        return np.add.reduceat(self.cls._term_eval(self.w, self.ac, self.bd, p), self.starts)

    def demand(self, mu, start=None):
        """Signed demands at ``mu``: one Newton over every channel, step for
        step as :meth:`Objective._demand_numeric` from ``start`` (1 where it
        is None or not positive); NaN where 40 steps do not converge."""
        extrapolate = mu >= self.rate0
        out = np.where(extrapolate, 0.0 + (mu - self.rate0) / self.slope0, np.nan)
        live = ~extrapolate
        p = np.ones(len(out)) if start is None else np.where(start > 0, start, 1.0)
        for _ in range(40):
            if not np.count_nonzero(live):
                break
            rate, slope = self.sums(p)
            new = p - (rate - mu) / slope
            new = np.where(new <= 0, 0.5 * p, new)
            done = live & (np.abs(new - p) <= 1e-13 * (1.0 + np.abs(new)))
            np.copyto(out, new, where=done)
            live ^= done
            p = new
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
            total += self._term_eval(w, self.a * c, self.b * d, p)
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

    # Per-term rate and slope, and utility, over term arrays (_Ragged).
    @staticmethod
    def _terms(w, ac, bd, p):
        u = bd / (ac + bd * p)
        rate = w * u
        return rate, -rate * u

    @staticmethod
    def _term_eval(w, ac, bd, p):
        return w * np.log(ac + bd * p)


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

    @staticmethod
    def _terms(w, ac, bd, p):
        arg = ac + bd * p
        u = bd / arg
        rate = w * u / arg
        return rate, -2.0 * rate * u

    @staticmethod
    def _term_eval(w, ac, bd, p):
        return -w / (ac + bd * p)


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
#: The closed-form family names ``Channels.from_arrays`` takes, each mapped
#: to its class's position in ``_BANK_CLASSES``.
BANK_FAMILIES = {cls.family: code for code, cls in enumerate(_BANK_CLASSES)
                 if cls.closed_form_inverse}


class Channels:
    """The objectives of one solve, with array-valued demand, rate and eval.

    When every objective is one of the five serializable flat families
    (mixing allowed), the set is a bank: one group per family present, each
    operation a few array expressions per group.  A closed-form group holds
    its channels' ``w, a, b`` as arrays; a ``sum_log`` or ``sum_inverse_mse``
    group holds its terms flat (:class:`_Ragged`; ``w`` is NaN there).  A set
    with a custom objective calls the objects' methods, the object path.
    """

    __slots__ = ("_objects", "family", "w", "a", "b", "_codes", "_groups", "_terms")

    def __init__(self, objectives: Sequence[Objective]):
        self._objects = objs = list(objectives)
        kinds = {type(obj) for obj in objs}
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
            terms, w = None, np.fromiter((o.w for o in objs), float, n)
        self._set_bank(w, np.fromiter((o.a for o in objs), float, n),
                       np.fromiter((o.b for o in objs), float, n),
                       kinds.pop() if codes is None else None, codes, terms)

    @classmethod
    def from_arrays(cls, family, w, a, b) -> Channels:
        """Bank channels from the parameter arrays ``w, a, b``.

        ``family`` is one family name for every channel, or a sequence of
        names, one per channel; each is ``log_capacity``, ``inverse_mse`` or
        ``af_relay``.  The parameters get the family constructors' checks as
        array tests: a value a constructor refuses raises its
        ``DomainError``, with ``index`` at the first channel at fault.  The
        objects are built only if ``objectives`` is read.
        """
        w, a, b = (np.array(x, dtype=float) for x in (w, a, b))
        if not (w.ndim == 1 and w.shape == a.shape == b.shape):
            raise DomainError("w, a and b must be 1-D arrays of one length")
        n = len(w)
        try:
            if isinstance(family, str):
                single, codes = _BANK_CLASSES[BANK_FAMILIES[family]], None
            else:
                single = None
                codes = np.array([BANK_FAMILIES[f] for f in family], dtype=np.int8)
        except KeyError as exc:
            raise DomainError(f"not a closed-form family: {exc.args[0]!r}") from None
        if codes is not None and len(codes) != n:
            raise DomainError("family count does not match the parameter arrays")
        bank = object.__new__(cls)
        bank._objects = None
        bank._set_bank(w, a, b, single, codes)
        bad = np.zeros(n, dtype=bool)
        for fam, idx, args in bank._groups:
            bad[slice(None) if idx is None else idx] = ~fam._bank_valid(*args)
        if bad.any():
            i = int(bad.argmax())
            fam = single if codes is None else _BANK_CLASSES[codes[i]]
            # The masks are the constructor's tests, so channel i fails one;
            # the constructor words the message.
            try:
                fam(float(w[i]), float(a[i]), float(b[i]))
            except DomainError as exc:
                raise DomainError(exc.detail, index=i) from None
        return bank

    def _set_bank(self, w, a, b, single: type | None, codes, terms=None) -> None:
        """Hold w, a, b and the sum families' flat ``terms`` with one
        ``(family, index, args)`` group per family present; ``codes`` gives
        each channel's family when ``single`` is None."""
        self.w, self.a, self.b, self._codes, self._terms = w, a, b, None, terms
        if single is None:
            classes = _BANK_CLASSES if terms else _BANK_CLASSES[:len(BANK_FAMILIES)]
            present = [(cls, idx) for code, cls in enumerate(classes)
                       if (idx := (codes == code).nonzero()[0]).size]
            if len(present) == 1:
                single = present[0][0]
            else:
                self._codes = codes
                self._groups = [self._group(cls, idx) for cls, idx in present]
        if single is not None:
            self._groups = [self._group(single, None)]
        self.family = single.family if single is not None else None

    def _group(self, cls, idx) -> tuple:
        """The group of ``cls``'s channels at ``idx`` (None: all channels)."""
        w, a, b = (self.w, self.a, self.b) if idx is None else \
            (self.w[idx], self.a[idx], self.b[idx])
        if cls.closed_form_inverse:
            return cls, idx, (w, a, b)
        tw, tc, td, n = _take_terms(self._terms, idx)
        return cls, idx, (_Ragged(cls, tw, np.repeat(a, n) * tc, np.repeat(b, n) * td, n),)

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
                cw, cc, cd = (np.split(x, cut) for x in self._terms[:3])
            objects = [None] * n
            for cls, idx, _ in self._groups:
                for i in range(n) if idx is None else idx.tolist():
                    objects[i] = cls(w[i], a[i], b[i]) if cls.closed_form_inverse else \
                        cls(cw[i].tolist(), a[i], b[i], cc[i].tolist(), cd[i].tolist())
            self._objects = objects
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
            sub._set_bank(w, a, b, self._groups[0][0], None, terms)
        else:
            sub._set_bank(w, a, b, None,
                          self._codes if index is None else self._codes[index], terms)
        return sub

    def _apply(self, op: str, x, start=None) -> np.ndarray:
        if len(self._groups) == 1:
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
    """One group of a fair problem, bound to its cluster power by arrays.

    Entries are :class:`ClusterLogCapacity` or ordinary objectives.
    ``bind(cluster_power)`` gives the group's :class:`Channels` at that
    cluster power: each cluster-aware entry becomes the ``log_capacity``
    channel ``w*log(1 + a'*p)`` with ``a' = a/(sigma_e2*P + sigma_n2)``, the
    operations of :meth:`ClusterLogCapacity.bind` run as one array expression
    over parameter arrays built here, once.  When every entry is
    cluster-aware, the template bank is built from those arrays, with no
    object per entry.  When the ordinary entries are flat families too (sum
    families included), the result is a bank; otherwise the group binds
    through the objects and runs on the object path.
    """

    def __init__(self, objectives: Sequence):
        self.objectives = list(objectives)
        self.index = np.array([i for i, o in enumerate(self.objectives)
                               if _cluster_aware(o)], dtype=np.intp)
        aware = [self.objectives[i] for i in self.index.tolist()]
        self.w = np.array([o.w for o in aware], dtype=float)
        self.a = np.array([o.a for o in aware], dtype=float)
        self.sigma_e2 = np.array([o.sigma_e2 for o in aware], dtype=float)
        self.sigma_n2 = np.array([o.sigma_n2 for o in aware], dtype=float)
        # Cluster-aware entries enter as log_capacity with b = 1; bind() sets their a.
        if self.index.size == len(self.objectives):
            self._template = Channels.from_arrays(
                "log_capacity", self.w, self.a / self.sigma_n2, np.ones(len(self.w)))
        else:
            self._template = Channels([o.bind(0.0) if _cluster_aware(o) else o
                                       for o in self.objectives])

    @property
    def coupled(self) -> bool:
        """True when some entry's utility depends on the cluster power."""
        return bool((self.sigma_e2 > 0).any())

    def bind(self, cluster_power: float) -> Channels:
        """The group's channels with the cluster power frozen at ``cluster_power``."""
        if not self.index.size:
            return self._template
        if not self._template.banked:
            return Channels([o.bind(cluster_power) if _cluster_aware(o) else o
                             for o in self.objectives])
        a = self._template.a.copy()
        a[self.index] = self.a / (self.sigma_e2 * cluster_power + self.sigma_n2)
        return self._template.with_a(a)

    def drag(self, powers, cluster_power: float) -> float:
        """Sum of :meth:`ClusterLogCapacity.cluster_partial` over the
        cluster-aware entries at ``powers``."""
        p = np.asarray(powers, dtype=float)[self.index]
        denom = self.sigma_e2 * cluster_power + self.sigma_n2
        return float((-self.w * self.a * p * self.sigma_e2 /
                      (denom * (denom + self.a * p))).sum())


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
