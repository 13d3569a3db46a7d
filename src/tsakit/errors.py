"""Error taxonomy shared by every stage of the toolkit.

Two families matter to callers: bad input (``InvalidArgumentError`` and
subclasses, CLI exit code 1) and numerical breakdown
(``NumericalFailureError`` and subclasses, CLI exit code 2).  Input files
are read through ``read_text`` so that undecodable bytes are bad input too.
"""

import numpy as np


class TsaKitError(Exception):
    """Base class for everything raised deliberately by this package."""


class InvalidArgumentError(TsaKitError, ValueError):
    """A caller-supplied value violates a documented precondition."""


class FormatError(InvalidArgumentError):
    """A case, knowledge-base, or model document failed to parse."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def json_typed(value, kind: type, what: str, line=None):
    """A document's `value` if JSON holds it as `kind` (bool is not int), else a FormatError."""
    if type(value) is not kind:
        raise FormatError(f"{what} must be a JSON {kind.__name__}, got {value!r}", line=line)
    return value


_JSON_NUMBERS = frozenset((int, float))  # bool is a subclass of int, not a member


def json_real(value, what: str, ndim: int = 0, line=None):
    """A document's JSON number as a float, or its `ndim`-deep nested lists of
    numbers as a float array; a boolean or any other value is a FormatError."""
    if type(value) is list:
        if ndim == 1 and _JSON_NUMBERS.issuperset(map(type, value)):
            return np.array(value, dtype=float)
        if ndim > 1:
            return np.array([json_real(v, what, ndim - 1, line) for v in value])
    elif ndim == 0 and type(value) in _JSON_NUMBERS:
        return float(value)
    shape = "a " + "list of " * ndim + "JSON numbers" if ndim else "a JSON number"
    raise FormatError(f"{what} must be {shape}", line=line)


def require_count(value, what: str, minimum: int = 1) -> None:
    """InvalidArgumentError unless `value` is an integer (numpy integers too,
    booleans not) of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidArgumentError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidArgumentError(f"{what} must be at least {minimum}")


def read_text(path) -> str:
    """Whole contents of a UTF-8 text file; undecodable bytes are a FormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not UTF-8 text: {exc}") from None


class DegenerateLabelsError(InvalidArgumentError):
    """Training data contains fewer than two distinct classes."""


class SimplexViolationError(InvalidArgumentError):
    """Kernel mixture weights are not a probability vector."""


class DegenerateKnowledgeBaseError(InvalidArgumentError):
    """A generation plan discarded too many scenarios to be trusted."""


class NumericalFailureError(TsaKitError):
    """A numerical routine could not produce a finite, converged answer."""


class ReductionSingularError(NumericalFailureError):
    """The eliminated block of a network reduction is singular."""


class EquilibriumFailureError(NumericalFailureError):
    """Newton iteration on the power balance did not converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class IntegrationDivergedError(NumericalFailureError):
    """The integrator produced a non-finite state."""

    def __init__(self, message, last_finite_index=None):
        super().__init__(message)
        self.last_finite_index = last_finite_index
