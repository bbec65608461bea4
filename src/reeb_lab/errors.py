"""Exception hierarchy, JSON helpers and record mixins shared by all
reeb_lab modules.

Every error raised on invalid input derives from ReebLabError so the CLI
can map it to exit code 2; audit failures get their own branch (exit 3).
"""

from __future__ import annotations

import json
import operator


class ReebLabError(Exception):
    """Base class for all validation and computation errors."""


class MalformedInput(ReebLabError):
    """A JSON input lacks a required key or holds a value of the wrong type."""


class InvalidParameter(ReebLabError, ValueError):
    """A constructor or a call got a value outside its domain.  It is also a
    ValueError, which is what these checks raised before they were typed."""


class WrongType(ReebLabError, TypeError):
    """A constructor or a call got an argument of the wrong type, or a
    keyword it does not take.  It is also a TypeError, which is what these
    checks raised before they were typed."""


# The three kinds a checked field can have.  A bool is an int, and so a real;
# numpy scalars and 0-d arrays of a bool, int or float dtype count as their
# Python kind.

def real(name: str, v):
    """v itself, unchanged, so that a Fraction stays exact.  WrongType for
    text, a complex number, an array of one or more dimensions, a numpy
    value of another dtype or anything else float() refuses;
    InvalidParameter when float() overflows."""
    try:
        if not (isinstance(v, (str, bytes, complex)) or getattr(v, "ndim", 0)
                or getattr(getattr(v, "dtype", None), "kind", "f") not in "biuf"):
            float(v)
            return v
    except OverflowError:
        raise InvalidParameter(f"{name} is too large for a float") from None
    except (TypeError, ValueError):
        pass
    raise WrongType(f"{name} must be a real number, got {v!r}")


def integer(name: str, v) -> int:
    """v as an int: what operator.index takes, or an integral float, as
    json_value takes a JSON integer.  WrongType for anything else, NaN and
    the infinities included."""
    try:
        return operator.index(v)
    except TypeError:
        if isinstance(v, float) and v.is_integer():
            return int(v)
    raise WrongType(f"{name} must be an integer, got {v!r}")


def reals(name: str, vs) -> tuple:
    """vs as a tuple of floats.  WrongType for text, which float() would
    parse and a loop would walk character by character, and for anything
    else that is not a sequence of reals (real)."""
    if not isinstance(vs, (str, bytes)):
        try:
            return tuple(float(real(name, v)) for v in vs)
        except TypeError:
            pass
    raise WrongType(f"{name} must be a sequence of reals, got {vs!r}")


# JSON types accepted for each field type; integral floats pass as ints, as
# JSON Schema's "integer" allows
_JSON_TYPES = {float: (int, float), int: (int, float), str: (str,), dict: (dict,),
               list: (list,), bool: (bool,)}


def json_field(obj, key: str, kind, where: str):
    """obj[key] converted to kind; MalformedInput when the key is missing or
    its value has another JSON type."""
    if not isinstance(obj, dict) or key not in obj:
        raise MalformedInput(f"{where}: missing key {key!r}")
    return json_value(obj[key], kind, f"{where}: {key!r}")


def json_value(value, kind, what: str):
    """value converted to kind; MalformedInput naming what when it has
    another JSON type."""
    if (not isinstance(value, _JSON_TYPES[kind])
            or (isinstance(value, bool) and kind is not bool)
            or (kind is int and isinstance(value, float) and not value.is_integer())):
        raise MalformedInput(f"{what} must be {kind.__name__}, got {json.dumps(value)}")
    return kind(value) if kind in (float, int) else value


def json_object(obj, keys, where: str) -> dict:
    """obj itself; MalformedInput when it is not a JSON object or holds a key
    outside keys, as the schemas' "additionalProperties": false demands."""
    json_value(obj, dict, where)
    for key in obj:
        if key not in keys:
            raise MalformedInput(f"{where}: unknown key {key!r}")
    return obj


def _json_data(value):
    """value as JSON data: an object with to_json gives its own, a tuple or
    list gives a list, and any other value passes through uncopied.  A
    record is a named tuple, so the to_json test comes first."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, (tuple, list)):
        return [_json_data(v) for v in value]
    return value


class JsonFields:
    """Mixin for a named tuple whose JSON object is its fields, by name, in
    field order.

    Every record and validating type of this package is a subclass of a
    collections.namedtuple, which is cheap to create at import.  Like any
    tuple, a record compares equal to a plain tuple of the same values and
    to another record of the same layout, unless its class says otherwise
    (the profile families and RecurrenceSolution do).  Assigning a field
    raises AttributeError.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {name: _json_data(value) for name, value in zip(self._fields, self)}


class Checked:
    """Mixin for a named tuple that checks its fields: a validating type.

    It checks them in __init__, when the tuple already holds them, or in
    __new__ where a field is converted before the tuple is built.  A radial
    profile converts a spline's knots to floats in __new__ and checks every
    field in __init__, its own family's last.  _make, and so _replace,
    builds through the constructor as well, so no instance skips the
    checks: a profile built directly or by _replace meets every check of
    build_profile, which only picks the family by name.  Values derived
    from the fields are kept as attributes, set with object.__setattr__ (a
    class that keeps some declares no __slots__); assigning or deleting any
    attribute later raises AttributeError, as assigning a field does."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


# -- symplectic linear algebra ------------------------------------------------

class OddDimension(ReebLabError):
    pass


class NotSymplectic(ReebLabError):
    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(f"form residual {residual:.3e} exceeds tol {tol:.1e}")


class NotUnipotent(ReebLabError):
    pass


class UnresolvedNormalForm(ReebLabError):
    """Normal-form counts could not be extracted unambiguously at tol."""


# -- index computations -------------------------------------------------------

class DegenerateEndpoint(ReebLabError):
    pass


class SamplingTooCoarse(ReebLabError):
    pass


class PathNotSplittable(ReebLabError):
    """Sampled path does not decompose into invariant symplectic 2-planes."""


class DimensionMismatch(ReebLabError):
    pass


class SupportOutOfRange(ReebLabError):
    """A local-homology support left [mu_hat - n + 1, mu_hat + n]."""


# -- Hamiltonian profiles and action functions --------------------------------

class ConvexityViolation(ReebLabError):
    """h''(r) = value is not positive."""

    def __init__(self, r: float, value: float):
        self.r = r
        self.value = value
        super().__init__(f"h''({r:.6g}) = {value:.3e} "
                         + ("< 0" if value < 0 else "is not positive"))


class SlopeMismatch(ReebLabError):
    pass


class JoinDiscontinuity(ReebLabError):
    pass


class PeriodOutOfRange(ReebLabError):
    pass


class ActionOutOfRange(ReebLabError):
    pass


class NotDominated(ReebLabError):
    pass


class SandwichViolated(ReebLabError):
    """A transfer map left its sandwich tau - lam h(r_max) <= f(tau) <= tau
    or failed to be monotone on its grid."""


class UncertifiedRegion(ReebLabError):
    pass


class BadGeometry(ReebLabError):
    pass


class MalformedTrace(ReebLabError):
    pass


# -- recurrence search --------------------------------------------------------

class IterateUnderflow(ReebLabError):
    pass


class HypothesisFailed(ReebLabError):
    pass


# -- model flows --------------------------------------------------------------

class DegenerateEllipsoid(ReebLabError):
    pass


# -- filtered complexes and barcodes ------------------------------------------

class MalformedGraph(ReebLabError):
    pass


class NotADifferential(ReebLabError):
    pass


class FiltrationViolation(ReebLabError):
    pass


# -- orbit-system audit -------------------------------------------------------

class ShellMarginNotFound(ReebLabError):
    """No positive shell margin fits all orbit levels inside (1, r_max)."""


class JOutOfRange(ReebLabError):
    pass


class AuditError(ReebLabError):
    """Branch for failures of the audit itself, not of input validation."""


class NotExcluded(AuditError):
    def __init__(self, message: str, context: dict):
        self.context = context
        super().__init__(message)


class AuditFailed(AuditError):
    def __init__(self, message: str, first_failure: "NotExcluded | None" = None):
        self.first_failure = first_failure
        super().__init__(message)


# -- planar fixed points ------------------------------------------------------

class FixedPointOnCircle(ReebLabError):
    pass
