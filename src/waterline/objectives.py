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
        rate_edge = self.rate(edge) if edge > 0 else self._rate_at_zero()
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

    def _rate_at_zero(self) -> float:
        return self.rate(0.0)

    def eval_array(self, p: np.ndarray) -> np.ndarray:
        """Vectorized ``eval`` used by the grid oracle."""
        return np.vectorize(self.eval)(p)

    def to_params(self) -> dict:
        raise NotImplementedError(f"{self.family} objectives do not serialize")


class LogCapacity(Objective):
    """f(p) = w * log(b + a*p): weighted capacity."""

    closed_form_inverse = True
    family = "log_capacity"

    def __init__(self, w: float, a: float, b: float):
        self.w = _check_positive("w", w)
        self.a = _check_positive("a", a)
        self.b = _check_finite_nonneg("b", b)

    def domain_min(self) -> float:
        return 0.0

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

    # Array forms of the constructor's checks and of demand, rate and eval
    # over parameter arrays w, a, b, used by Channels; each repeats the
    # scalar formula operation for operation, so the results agree to the
    # last bit where no log is taken.
    _bank_valid = staticmethod(_valid_wab)

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

    def to_params(self) -> dict:
        return {"family": self.family, "w": self.w, "a": self.a, "b": self.b}


class InverseMse(Objective):
    """f(p) = -w / (b + a*p): weighted MSE, negated to a maximization."""

    closed_form_inverse = True
    family = "inverse_mse"

    def __init__(self, w: float, a: float, b: float):
        self.w = _check_positive("w", w)
        self.a = _check_positive("a", a)
        self.b = _check_finite_nonneg("b", b)

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

    _bank_valid = staticmethod(_valid_wab)

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

    def to_params(self) -> dict:
        return {"family": self.family, "w": self.w, "a": self.a, "b": self.b}


class AfRelay(Objective):
    """f(p) = -w * log(1 - a*b*p / (1 + b*p)): dual-hop AF relaying capacity.

    Requires 0 < a < 1.  Equivalent increasing form:
    f(p) = w * [log(1 + b*p) - log(1 + b*(1-a)*p)].
    """

    closed_form_inverse = True
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

    def to_params(self) -> dict:
        return {"family": self.family, "w": self.w, "a": self.a, "b": self.b}


class SumLog(Objective):
    """f(p) = sum_j w_j * log(a*c_j + b*d_j*p): training mutual information."""

    family = "sum_log"

    def __init__(self, w: Sequence[float], a: float, b: float,
                 c: Sequence[float], d: Sequence[float]):
        self.w = [_check_positive("w_j", x) for x in w]
        self.a = _check_positive("a", a)
        self.b = _check_positive("b", b)
        self.c = [_check_positive("c_j", x) for x in c]
        self.d = [_check_positive("d_j", x) for x in d]
        if not (len(self.w) == len(self.c) == len(self.d)):
            raise DomainError("w, c, d must have equal lengths")

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

    def eval_array(self, p: np.ndarray) -> np.ndarray:
        total = np.zeros_like(p, dtype=float)
        for w, c, d in zip(self.w, self.c, self.d):
            total += w * np.log(self.a * c + self.b * d * p)
        return total

    def to_params(self) -> dict:
        return {"family": self.family, "w": list(self.w), "a": self.a,
                "b": self.b, "c": list(self.c), "d": list(self.d)}


class SumInverseMse(Objective):
    """f(p) = -sum_j w_j / (a*c_j + b*d_j*p): training MSE, negated."""

    family = "sum_inverse_mse"

    def __init__(self, w: Sequence[float], a: float, b: float,
                 c: Sequence[float], d: Sequence[float]):
        self.w = [_check_positive("w_j", x) for x in w]
        self.a = _check_positive("a", a)
        self.b = _check_positive("b", b)
        self.c = [_check_positive("c_j", x) for x in c]
        self.d = [_check_positive("d_j", x) for x in d]
        if not (len(self.w) == len(self.c) == len(self.d)):
            raise DomainError("w, c, d must have equal lengths")

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

    def eval_array(self, p: np.ndarray) -> np.ndarray:
        total = np.zeros_like(p, dtype=float)
        for w, c, d in zip(self.w, self.c, self.d):
            total -= w / (self.a * c + self.b * d * p)
        return total

    def to_params(self) -> dict:
        return {"family": self.family, "w": list(self.w), "a": self.a,
                "b": self.b, "c": list(self.c), "d": list(self.d)}


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


_BANK_CLASSES = (LogCapacity, InverseMse, AfRelay)
#: The closed-form family names a bank holds, each mapped to its class's
#: position in ``_BANK_CLASSES``.
BANK_FAMILIES = {cls.family: code for code, cls in enumerate(_BANK_CLASSES)}


class Channels:
    """The objectives of one solve, with array-valued demand, rate and eval.

    When every objective is a ``LogCapacity``, ``InverseMse`` or ``AfRelay``
    (mixing allowed), their ``w, a, b`` parameters are held as numpy arrays,
    the closed-form bank, and each operation is a few array expressions per
    family.  Otherwise every operation calls the objects' own methods; that
    is the path of the numeric and custom families.
    """

    __slots__ = ("_objects", "family", "w", "a", "b", "_codes", "_groups")

    def __init__(self, objectives: Sequence[Objective]):
        self._objects = list(objectives)
        kinds = {type(obj) for obj in self._objects}
        self.w = self.a = self.b = self._codes = self.family = None
        self._groups: list = []
        if kinds and kinds.issubset(_BANK_CLASSES):
            n = len(self._objects)
            codes = None if len(kinds) == 1 else np.array(
                [_BANK_CLASSES.index(type(o)) for o in self._objects], dtype=np.int8)
            self._set_bank(np.fromiter((o.w for o in self._objects), float, n),
                           np.fromiter((o.a for o in self._objects), float, n),
                           np.fromiter((o.b for o in self._objects), float, n),
                           kinds.pop() if codes is None else None, codes)

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
        for fam, idx, gw, ga, gb in bank._groups:
            bad[slice(None) if idx is None else idx] = ~fam._bank_valid(gw, ga, gb)
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

    def _set_bank(self, w, a, b, single: type | None, codes) -> None:
        """Hold w, a, b with one ``(family, index, w, a, b)`` group per family
        present; ``codes`` gives each channel's family when ``single`` is None."""
        self.w, self.a, self.b, self._codes = w, a, b, None
        if single is None:
            self._groups = []
            for code, cls in enumerate(_BANK_CLASSES):
                idx = (codes == code).nonzero()[0]
                if idx.size:
                    self._groups.append((cls, idx, w[idx], a[idx], b[idx]))
            if len(self._groups) == 1:
                single = self._groups[0][0]
            else:
                self._codes = codes
        if single is not None:
            self._groups = [(single, None, w, a, b)]
        self.family = single.family if single is not None else None

    @property
    def closed_form(self) -> bool:
        """True when the operations run on the bank's arrays."""
        return self.w is not None

    @property
    def objectives(self) -> list:
        """The objectives, one per channel (built from the bank on first use
        when the channels came from ``with_a``)."""
        if self._objects is None:
            objects = [None] * len(self)
            for cls, idx, w, a, b in self._groups:
                slots = range(len(self)) if idx is None else idx.tolist()
                for i, wi, ai, bi in zip(slots, w.tolist(), a.tolist(), b.tolist()):
                    objects[i] = cls(wi, ai, bi)
            self._objects = objects
        return self._objects

    def __len__(self) -> int:
        return len(self.w) if self.closed_form else len(self._objects)

    def take(self, index) -> Channels:
        """The channels at ``index`` (an integer array), in that order."""
        index = np.asarray(index, dtype=np.intp)
        objects = None if self._objects is None else \
            [self._objects[i] for i in index.tolist()]
        if not self.closed_form:
            sub = object.__new__(Channels)
            sub.w = sub.a = sub.b = sub._codes = sub.family = None
            sub._groups = []
        else:
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
        if self._codes is None:
            sub._set_bank(w, a, b, self._groups[0][0], None)
        else:
            sub._set_bank(w, a, b, None,
                          self._codes if index is None else self._codes[index])
        return sub

    def _apply(self, op: str, x) -> np.ndarray:
        if len(self._groups) == 1:
            cls, _, w, a, b = self._groups[0]
            return getattr(cls, op)(w, a, b, x)
        scalar = np.ndim(x) == 0
        out = np.empty(len(self))
        for cls, idx, w, a, b in self._groups:
            out[idx] = getattr(cls, op)(w, a, b, x if scalar else x[idx])
        return out

    def demand(self, mu: float, hints: list | None = None) -> np.ndarray:
        """Signed demands at water level ``mu``.

        ``hints`` (one entry per channel, updated in place) warm-starts the
        numeric inversions of the object path; the bank ignores it.
        """
        if mu <= 0:
            raise DomainError(f"rate target must be positive, got {mu}")
        if self.closed_form:
            return self._apply("_bank_demand", mu)
        if hints is None:
            return np.array([obj.demand(mu) for obj in self._objects], dtype=float)
        out = np.empty(len(self))
        for i, obj in enumerate(self._objects):
            p = obj.demand(mu, hint=hints[i])
            hints[i] = p if p > obj.domain_min() else None
            out[i] = p
        return out

    def rate(self, powers) -> np.ndarray:
        """Marginal utilities at ``powers`` (one per channel)."""
        if self.closed_form:
            return self._apply("_bank_rate", np.asarray(powers, dtype=float))
        return np.array([obj.rate(p) for obj, p in
                         zip(self._objects, np.asarray(powers, dtype=float).tolist())],
                        dtype=float)

    def eval(self, powers) -> np.ndarray:
        """Utilities at ``powers`` (one per channel)."""
        if self.closed_form:
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
    object per entry.  When the ordinary entries are closed-form families
    too, the result is a bank; otherwise the group binds through the objects
    and runs on the object path.
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
        if not self._template.closed_form:
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
