"""Semantic exception hierarchy and the argument policy.

Public functions never raise bare ``ValueError``; every contract violation
maps to one of the classes below so callers (and the CLI) can distinguish
bad inputs from genuine numerical findings.

Every public entry point takes its outside arguments through two rules, and
neither truncates nor parses:

* :func:`_integer`, for a count, seed, dimension, index or grid density, takes
  an ``int`` by ``operator.index`` (numpy integers too) of at least a minimum.
  It refuses a float (``2.5``, ``3.0``), a str (``"3"``), a bool and a value
  below the minimum with ``ValidationError``, one above its maximum with ``TooLarge``.
* :func:`_number` (:func:`_numbers` for a list or tuple), for a real argument
  or parameter, takes a finite ``int`` or ``float``.  It refuses a str, a bool,
  ``nan`` and an infinity with ``ParamOutOfDomain``.  A refusal shows the value by :func:`_shown`.

A user's callable is called through one guard, :func:`_guarded`: what it raises is a
``UserCallableError``, chained from it, and one that is not callable is refused at entry.

Every JSON text crosses the package boundary by one rule too: :func:`_json_value`
reads it, refusing text that is not JSON or nests too deep with ``ValidationError``;
:func:`_json_text` and :func:`_json_document` write it strict (``NonFinite``), keys sorted.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

import json
import operator
import reprlib
import sys

import numpy as np


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
    """A user-supplied callable raised, or gave what is not a number (:func:`_guarded`)."""


class NoDerivative(GentropyError):
    """No closed-form derivative of the per-term component is available."""


class BreakpointHit(NoDerivative):
    """Derivative requested exactly at a non-differentiable breakpoint."""


class UnsupportedPair(GentropyError):
    """The requested pair of functionals has no registered value transform."""


class DomainViolation(GentropyError):
    """A map was applied outside the domain where it is defined."""


class TruncationCapHit(GentropyError):
    """Series evaluation hit the hard term cap before converging."""


class BadInverse(GentropyError):
    """A user-supplied function/inverse pair fails the round-trip check."""


class UnsupportedFormat(ValidationError):
    """Unknown serialization format requested."""


def _shown(value) -> str:
    """``repr(value)``, or ``reprlib``'s bounded one where lists, tuples and dicts nest past
    64 levels (as a deep JSON text may): that cannot exhaust the stack, but sorts dict keys."""
    level = [value]
    for _ in range(64):  # one level at a time: the items, keys and values of the last
        level = [item for v in level if isinstance(v, (list, tuple, dict))
                 for item in ([*v, *v.values()] if isinstance(v, dict) else v)]
        if not level:
            return repr(value)
    return reprlib.repr(value)


def _integer(name: str, value, minimum: int = 0, maximum: float = float("inf")) -> int:
    """``value`` as an int in [minimum, maximum], or a ``ValidationError`` (``TooLarge`` above)."""
    try:
        if isinstance(value, bool):
            raise TypeError
        out = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name!r} must be an integer, got {_shown(value)}") from None
    if out < minimum:
        raise ValidationError(f"{name!r} must be >= {minimum}, got {out}")
    if out > maximum:
        raise TooLarge(f"{name!r} must be <= {maximum}, got {out}")
    return out


def _number(name: str, value) -> float:
    """``value`` as a float when it is a finite int or float, not a bool."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (real and abs(value) <= sys.float_info.max):  # an int past it has no float
        raise ParamOutOfDomain(f"{name!r} must be a finite number, got {_shown(value)}")
    return float(value)


def _guarded(fn: Callable, label: str) -> Callable[[object], float]:
    """``fn`` on one value, as a float; what it raises is a ``UserCallableError`` naming
    ``label``.  A ``fn`` that is not callable is a ``ValidationError`` here, at entry."""
    if not callable(fn):
        raise ValidationError(f"{label} must be callable, got {_shown(fn)}")

    def call(v) -> float:
        try:
            return float(fn(v))
        except Exception as exc:
            raise UserCallableError(f"{label} raised {type(exc).__name__}: {exc}") from exc

    return call


def _numbers(name: str, values) -> tuple[float, ...]:
    """A list or tuple of :func:`_number` values, as a tuple of floats."""
    if not isinstance(values, (list, tuple)):
        raise ParamOutOfDomain(f"{name!r} must be a list of numbers, got {_shown(values)}")
    return tuple(_number(name, value) for value in values)


def _holds_bool(values) -> bool:
    """Whether a list or tuple, or one nested in it, holds a bool or ``np.bool_``."""
    return isinstance(values, (list, tuple)) and any(
        isinstance(x, (bool, np.bool_)) or _holds_bool(x) for x in values
    )


_ENCODERS: dict = {}  # json.dumps' encoder by indent, made once


def _json_value(text: str, what: str):
    """``json.loads(text)``; text that is not JSON, or nests too deep, is a ``ValidationError``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"bad {what} JSON: {exc}") from exc


def _json_text(value, indent: int | None = None) -> str:
    """``json.dumps(value, sort_keys=True, indent=indent, allow_nan=False)``, from one
    reused encoder per indent; a non-finite number raises :class:`NonFinite`."""
    if indent not in _ENCODERS:
        _ENCODERS[indent] = json.JSONEncoder(sort_keys=True, indent=indent, allow_nan=False)
    try:
        return _ENCODERS[indent].encode(value)
    except ValueError as exc:
        raise NonFinite(f"a JSON value is not finite: {exc}") from exc


def _json_document(
    payload: dict, key: str | None = None, items: Iterable[str] = ()
) -> Iterator[str]:
    """``payload``'s indent-2 text and a newline, its array ``key`` streamed from ``items``
    (level-2 texts, or runs joined by ``",\\n    "``); no string holds a raw newline."""
    items = iter(items)
    first = next(items, None)
    if first is None:
        yield _json_text(payload if key is None else {**payload, key: []}, 2) + "\n"
        return
    line = f"\n  {_json_text(key)}: [\n    0\n  ]"
    before, after = _json_text({**payload, key: [0]}, 2).split(line)
    opening, _, closing = line.rpartition("0")
    yield before + opening + first
    yield from map(",\n    ".__add__, items)
    yield closing + after + "\n"
