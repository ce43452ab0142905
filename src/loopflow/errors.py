"""Exception types shared across the library, and the rules that validate input."""

import math
import numbers


class GeometryError(Exception):
    """Base class for numerical / geometric failures at runtime."""


class DimensionMismatchError(GeometryError):
    """A point, vector, or class vector does not match the space dimension."""


class CoincidentPointsError(GeometryError):
    """An operation that needs a direction was given two equal points."""


class DegenerateTrajectoryError(GeometryError):
    """A geodesic segment or flow line passes through a cone point."""


class ResourceLimitError(GeometryError):
    """A combinatorial enumeration exceeded its configured cap."""


class NotSmoothCriticalError(GeometryError):
    """A second-order query was made at a configuration that is not a
    smooth critical point (cut pairs present, or the gradient is nonzero)."""


class NonGeodesicLimitError(GeometryError):
    """A flow limit could not be classified as a closed geodesic."""


class ClosureError(GeometryError):
    """A candidate loop descriptor fails to close up."""


class SpaceSupportError(GeometryError):
    """The operation is not defined on this geometry backend."""


class ValidationError(Exception):
    """A scenario file or input record violates its schema."""


def _real(v) -> bool:
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def count_rule(least: int):
    return (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= least,
            f"an integer >= {least}")


# a rule is (predicate, what it asks for)
POSITIVE = (lambda v: _real(v) and v > 0, "a finite positive number")
NONNEGATIVE = (lambda v: _real(v) and v >= 0, "a finite number >= 0")


def check_rule(rule, value, field: str) -> None:
    """Raise ``ValidationError`` naming ``field`` unless ``value`` obeys ``rule``."""
    ok, need = rule
    if not ok(value):
        raise ValidationError(f"{field}: expected {need}, got {value!r}")
