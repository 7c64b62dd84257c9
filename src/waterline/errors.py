"""Exception types shared across the solver package."""


class WaterlineError(Exception):
    """Base class for all package errors."""


class DomainError(WaterlineError):
    """A power value lies outside the admissible domain of an objective.

    ``index`` names the channel at fault when a check over a parameter array
    failed; the message then starts with ``objectives[index]``, and
    ``detail`` holds the rest of it.  ``parameter`` names the refused
    parameter (``"a"``, ``"c_j"``, ...) when a constructor check failed.
    """

    def __init__(self, detail: str, index: int | None = None,
                 parameter: str | None = None):
        self.detail, self.index, self.parameter = detail, index, parameter
        super().__init__(detail if index is None else f"objectives[{index}]: {detail}")


class InversionFailure(WaterlineError):
    """Numeric inversion of a rate function could not bracket a root."""


class BracketFailure(WaterlineError):
    """The water-level equation could not be bracketed (malformed objective)."""


class InfeasibleBudget(WaterlineError):
    """Constraint lower bounds exceed the available budget."""


class InfeasibleTarget(WaterlineError):
    """No common utility target can be met by any feasible allocation."""


class SizeLimit(WaterlineError):
    """Instance is too large for an exhaustive oracle."""


class SchemaError(WaterlineError):
    """An instance or result document violates the file schema."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
