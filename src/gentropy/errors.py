"""Semantic exception hierarchy.

Public functions never raise bare ``ValueError``; every contract violation
maps to one of the classes below so callers (and the CLI) can distinguish
bad inputs from genuine numerical findings.
"""

from __future__ import annotations


class GentropyError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(GentropyError, ValueError):
    """Inputs violate a constructor or operation contract."""


class DimensionMismatch(ValidationError):
    """Objects that must share a dimension do not."""


class TooLarge(ValidationError):
    """Combinatorial guard tripped (e.g. exhaustive enumeration past n=12)."""


class TooSmall(ValidationError):
    """Input below the minimum size an operation supports."""


class ParamOutOfDomain(ValidationError):
    """Entropy parameters outside their validated domain.

    Also covers coefficient-condition violations for series-defined
    functionals and non-positive shape parameters of the incomplete gamma.
    """


class ZeroUnsupported(GentropyError):
    """A zero probability reached a functional that does not admit zeros."""


class DeltaExceedsBound(GentropyError):
    """The logarithmic-exponent entropy was evaluated with delta > 1 + ln(n)."""


class NonFinite(GentropyError):
    """A functional evaluated to NaN or an infinity."""


class UserCallableError(GentropyError):
    """A user-supplied callable (of ``h_phi_custom``) raised."""


class NoDerivative(GentropyError):
    """No closed-form derivative of the per-term component is available."""


class BreakpointHit(NoDerivative):
    """Derivative requested exactly at a non-differentiable breakpoint."""


class UnsupportedPair(GentropyError):
    """The requested pair of functionals has no registered value transform."""


class DomainViolation(GentropyError):
    """A transform was applied outside the domain where it is defined."""


class TruncationCapHit(GentropyError):
    """Series evaluation hit the hard term cap before converging."""


class BadInverse(GentropyError):
    """A user-supplied function/inverse pair fails the round-trip check."""


class UnsupportedFormat(ValidationError):
    """Unknown serialization format requested."""
