"""Typed errors shared across the package."""


class MultiorderError(Exception):
    """Base class for all package errors."""


class InputError(MultiorderError, ValueError):
    """A caller-supplied value violates a documented precondition."""


class DimensionMismatchError(InputError):
    """An element or cell set does not match the ambient group dimension."""


class OutOfWindowError(MultiorderError, LookupError):
    """An order position or group element falls outside the known window."""


class MissingRuleError(InputError):
    """A tiling system has no rule for a shape at the requested level."""


class InvalidIncrementsError(InputError):
    """An increment sequence does not reconstruct to an injective window."""


class BudgetError(MultiorderError):
    """An exact enumeration would exceed the documented size budget."""


class ConsistencyError(MultiorderError):
    """Two routes that must agree structurally produced different results."""
