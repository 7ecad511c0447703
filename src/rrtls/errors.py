"""Exception types shared by the estimation suites, the harness, and the CLI,
and the input rules every module checks its arguments with.

Each class carries a short machine-readable ``code`` that the CLI prints
alongside the message (estimator failures exit with status 3, configuration
and parse failures with status 2).

The four rules raise ``ValueError`` naming the argument and return the
checked value: :func:`check_integer` (an integer, numpy integers included,
bools not, never truncated), :func:`check_real` (a finite real >= 0, or
> 0), :func:`finite_array` and :func:`finite_vector`.  Callers that report
a model's invariants (``model.MeasurementModel`` and the builders) turn
that ``ValueError`` into :class:`ModelInvalidError`.
"""

import math
import numbers

import numpy as np


class RrtlsError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class ModelInvalidError(RrtlsError):
    """A measurement model violates its invariants (e.g. rank-deficient H)."""

    code = "model-invalid"


class SingularModelError(RrtlsError):
    """The design matrix is numerically rank deficient for a solve."""

    code = "singular-model"


class NonUniqueTlsError(RrtlsError):
    """The augmented matrix has no strictly smallest singular value."""

    code = "nonunique-tls"


class DegenerateSolutionError(RrtlsError):
    """The corrected system matrix is rank deficient; no parameter estimate."""

    code = "degenerate-solution"


class InsufficientDataError(RrtlsError):
    """A statistical verifier was given too few samples."""

    code = "insufficient-data"


class ConfigError(RrtlsError):
    """A configuration or input file could not be parsed or validated."""

    code = "config"


def check_integer(value, name: str, minimum: int) -> int:
    """``value`` as an ``int``; ``ValueError`` naming ``name`` unless it is
    an integer (numpy integers included, bools not) of at least
    ``minimum``, 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        kind = "positive" if minimum else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


def check_real(value, name: str, strict: bool = False) -> float:
    """``value`` as a ``float``; ``ValueError`` naming ``name`` unless it is
    a finite real (numpy scalars included; bools, strings, complex numbers
    and arrays not) that is >= 0, or > 0 when ``strict``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (0 < value if strict else 0 <= value) or not value < math.inf):
        raise ValueError(f"{name} must be finite and {'>' if strict else '>='} 0, got {value!r}")
    return float(value)


def finite_array(a, name: str, ndim: int) -> np.ndarray:
    """``a`` as a float array; ``ValueError`` naming ``name`` unless it has
    ``ndim`` axes and finite entries."""
    a = np.asarray(a, dtype=float)
    if a.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-D array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def finite_vector(a, name: str, n: int) -> np.ndarray:
    """``a`` as a float vector; ``ValueError`` naming ``name`` unless it has
    ``n`` entries, all finite."""
    v = np.asarray(a, dtype=float).reshape(-1)
    if v.shape[0] != n:
        raise ValueError(f"dimension mismatch: {name} has length {v.shape[0]}, expected {n}")
    return finite_array(v, name, 1)
