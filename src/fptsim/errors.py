"""Exception hierarchy for the fptsim package.

Every failure mode raised by the library is a subclass of :class:`FptsimError`
so callers can catch the whole family with one handler.  Each class carries
the exit code the command-line interface reports it with (``exit_code``):

* configuration problems (bad config files, invalid parameter combinations,
  unsupported requests) are user errors and map to exit code 2;
* runtime violations of the mathematical assumptions the sampler relies on
  (negative rejection intensities, intensity above the stated bound) map to
  exit code 3;
* failure to terminate within the configured iteration budget maps to exit
  code 4.
"""

from __future__ import annotations

__all__ = [
    "FptsimError",
    "ParameterError",
    "ConfigurationError",
    "DomainError",
    "SequencingError",
    "AssumptionViolation",
    "NonTerminationError",
]


class FptsimError(Exception):
    """Base class for all fptsim errors."""

    exit_code = 3


class ParameterError(FptsimError, ValueError):
    """A scalar argument is outside its documented domain."""

    exit_code = 2


class ConfigurationError(FptsimError, ValueError):
    """A configuration object is malformed or requests an unsupported combination."""

    exit_code = 2


class DomainError(FptsimError, ValueError):
    """A numerical evaluation left its valid domain (non-finite value, negative
    diffusion coefficient, failed inversion, log of a non-positive number)."""

    exit_code = 3


class SequencingError(FptsimError, RuntimeError):
    """An operation was invoked out of order (e.g. a spike applied before the
    previous one)."""

    exit_code = 2


class AssumptionViolation(FptsimError, RuntimeError):
    """A runtime check of a mathematical assumption failed.

    The sampler evaluates its rejection intensity at random points; every value
    must lie in ``[0, kappa]``.  A violation means the supplied bounds or rate
    functions are wrong for the problem at hand, and continuing would silently
    bias the output, so we abort instead.
    """

    exit_code = 3


class NonTerminationError(FptsimError, RuntimeError):
    """An iterative routine exceeded its iteration budget."""

    exit_code = 4
