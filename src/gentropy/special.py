"""Special-function kernels used by the entropy catalog.

The upper incomplete gamma integral is computed with the classic split:
a regularized power series for x < a + 1 and a Lentz continued fraction
otherwise (cf. Numerical Recipes ch. 6), both run to relative tolerance
1e-12 with a 500-iteration cap.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Sequence

import math

import numpy as np

from .errors import NonFinite, ParamOutOfDomain, TruncationCapHit, ValidationError
from .errors import _guarded, _holds_bool, _number, _numbers

_GAMMA_RTOL = 1e-12
_GAMMA_MAX_ITER = 500

_SERIES_RTOL = 1e-14
_SERIES_CAP = 200

_Coeffs = Sequence[float] | Callable[[int], float]  # finite a_0..a_m, or k -> a_k


def _libm(fn: Callable[..., float], t: np.ndarray, *args: float) -> np.ndarray:
    """``fn``, a ``math`` function, at each element of the 1-d ``t`` (then ``args``), by ``map``:
    numpy's own ``log`` and ``expm1`` differ from libm's in the last bit at some points."""
    return np.fromiter(map(fn, t.tolist(), *map(repeat, args)), float, t.size)


def _lower_regularized_series(a: float, x: np.ndarray) -> np.ndarray:
    """P(a, x) over the prefactor, by power series; accurate for 0 < x < a + 1.
    Each step updates only the points still running: a point stops, keeping its
    sum, at the step where its own loop would break."""
    total, live, denom = np.empty(x.shape), np.arange(x.size), a
    term = partial = np.full(x.shape, 1.0 / a)
    for _ in range(_GAMMA_MAX_ITER):
        if not live.size:
            break
        denom += 1.0
        term = term * (x / denom)
        partial = partial + term
        done = np.abs(term) < np.abs(partial) * _GAMMA_RTOL
        if done.any():
            total[live[done]] = partial[done]
            live, x, term, partial = live[~done], x[~done], term[~done], partial[~done]
    total[live] = partial
    return total


def _upper_regularized_continued_fraction(a: float, x: np.ndarray) -> np.ndarray:
    """Q(a, x) over the prefactor, by modified Lentz continued fraction for
    every point at once, each step updating only the points still running;
    accurate for x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = np.full(x.shape, 1.0 / tiny)
    d = h = 1.0 / np.where(b != 0.0, b, tiny)
    out, live = np.empty(x.shape), np.arange(x.size)
    for i in range(1, _GAMMA_MAX_ITER + 1):
        if not live.size:
            break
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = 1.0 / np.where(np.abs(d) < tiny, tiny, d)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < _GAMMA_RTOL
        if done.any():
            out[live[done]] = h[done]
            live, b, c, d, h = live[~done], b[~done], c[~done], d[~done], h[~done]
    out[live] = h
    return out


def upper_incomplete_gamma(a: float, x: float | np.ndarray) -> float | np.ndarray:
    """The unnormalized tail integral of t**(a-1) * exp(-t) from x to infinity.

    Parameters
    ----------
    a : float
        Shape, strictly positive.  Above about 171.6, where the complete
        gamma passes the float range, :class:`NonFinite` is raised.
    x : float or array of float
        Lower limit, nonnegative (``x = 0`` gives the complete gamma), of an
        int or float dtype: a str, bytes or bool is refused, not parsed.  An
        array is evaluated elementwise in one pass and gives an array of its
        shape; a float gives a float.

    Notes
    -----
    Relative accuracy ~1e-12 over the supported domain; an independent
    quadrature oracle pins this down in the test suite.  Every point of an
    array gets the bits it gets alone.
    """
    if not _number("shape", a) > 0.0:
        raise ParamOutOfDomain(f"shape must be > 0, got {a!r}")
    try:
        points = np.asarray(x)
    except ValueError as exc:  # nested past numpy's 64 dimensions, or ragged
        raise ValidationError(f"lower limit must be a number or an array of them: {exc}") from exc
    if points.dtype.kind not in "iuf" or _holds_bool(x):  # no str, bytes or bool limit
        raise ValidationError(f"lower limit must be a real number, got {x!r}")
    flat = points.astype(float, copy=False).ravel()
    bad = flat[~((flat >= 0.0) & np.isfinite(flat))]
    if bad.size:
        raise ValidationError(f"lower limit must be finite and >= 0, got {bad[0].item()!r}")
    try:
        gamma_a = math.gamma(a) if a < 170.0 else math.exp(math.lgamma(a))
    except OverflowError:  # the complete gamma passes the float range
        raise NonFinite(f"the gamma function at shape {a!r} overflows the float range") from None
    # The prefactor exp(-x + a log x - lgamma(a)), by _libm; 0.0 at x = 0, with no log call.
    pre, t = np.zeros(flat.shape), flat[flat > 0.0]
    pre[flat > 0.0] = _libm(math.exp, -t + a * _libm(math.log, t) - math.lgamma(a))
    out = np.full(flat.shape, gamma_a)
    series, fraction = (flat > 0.0) & (flat < a + 1.0), flat >= a + 1.0
    out[series] = gamma_a * (1.0 - _lower_regularized_series(a, flat[series]) * pre[series])
    tail = _upper_regularized_continued_fraction(a, flat[fraction])
    out[fraction] = gamma_a * (pre[fraction] * tail)
    return float(out[0]) if points.ndim == 0 else out.reshape(points.shape)


def check_series_coefficients(coeffs: Sequence[float]) -> tuple[float, ...]:
    """Validate the dominance condition a_k > (k+1) * a_{k+1}, a_0 > 0, a_k >= 0.

    ``coeffs`` is a list or tuple of finite numbers.  A finite list is
    treated as zero-extended, so the last coefficient only needs to be
    nonnegative.
    """
    cleaned = _numbers("coeffs", coeffs)
    if len(cleaned) == 0:
        raise ParamOutOfDomain("coefficient list must be nonempty")
    if not cleaned[0] > 0.0:
        raise ParamOutOfDomain(f"leading coefficient must be > 0, got {cleaned[0]!r}")
    if any(c < 0.0 for c in cleaned):
        raise ParamOutOfDomain("coefficients must be nonnegative")
    for k in range(len(cleaned) - 1):
        if not cleaned[k] > (k + 1) * cleaned[k + 1]:
            raise ParamOutOfDomain(
                f"coefficient condition violated at k={k}: "
                f"{cleaned[k]!r} <= {(k + 1)} * {cleaned[k + 1]!r}"
            )
    return cleaned


def _horner(c: tuple[float, ...], t: np.ndarray) -> np.ndarray:
    """sum_k c_k t**k by ``numpy.polynomial.polynomial.polyval``'s own steps, bit for bit."""
    acc = c[-1] + t * 0
    for c_k in c[-2::-1]:
        acc = c_k + acc * t
    return acc


def _group_series(coeffs: _Coeffs, integral: bool) -> Callable[[np.ndarray], np.ndarray]:
    """Elementwise array map of G(t) (``integral``) or of G'(t) = sum_k a_k t**k.

    G(t) = sum_k a_k t**(k+1) / (k+1).  A finite coefficient sequence is
    validated and stored as floats here, and summed exactly by :func:`_horner`,
    ``polyval``'s own steps without the ``numpy.polynomial`` import that numpy
    makes on first use.  A callable ``k -> a_k`` is an infinite sequence of
    finite nonnegative terms (another raises ``ParamOutOfDomain``): each point stops once
    ``|term| <= 1e-14 * |partial sum|`` after its first term, with a hard cap
    of 200 terms (exceeding the cap raises).
    """
    if not callable(coeffs):
        a = check_series_coefficients(coeffs)
        if not integral:
            return lambda t: _horner(a, t)
        c = tuple(a_k / (k + 1) for k, a_k in enumerate(a))  # G(t) = t * sum c_k t^k
        return lambda t: t * _horner(c, t)

    coeffs = _guarded(coeffs, "universal_group coeffs")

    def series(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        total = np.zeros_like(t)
        power = t.copy() if integral else np.ones_like(t)  # t**(k+1) or t**k
        running = np.ones(t.shape, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(_SERIES_CAP):
                a_k = coeffs(k)
                if not 0.0 <= a_k < math.inf:  # negative, infinite or NaN
                    kind = "negative" if a_k < 0.0 else "not finite"
                    raise ParamOutOfDomain(f"coefficient a_{k} is {kind}: {a_k!r}")
                term = a_k * power / (k + 1 if integral else 1)
                total = np.where(running, total + term, total)
                if k > 0:
                    running &= ~(np.abs(term) <= _SERIES_RTOL * np.abs(total))
                if not running.any():
                    return total
                power *= t
        name = "G" if integral else "G'"
        raise TruncationCapHit(
            f"series for {name}({float(t[running][0])!r}) did not converge within "
            f"{_SERIES_CAP} terms"
        )

    return series


def universal_group_G(coeffs: _Coeffs, t: float) -> float:
    """Evaluate G(t) = sum_k a_k * t**(k+1) / (k+1).

    A finite coefficient sequence is summed exactly (it is a polynomial).
    A callable ``k -> a_k`` is treated as an infinite sequence: summation
    stops once ``|term| <= 1e-14 * |partial sum|``, with a hard cap of 200
    terms (exceeding the cap raises).
    """
    return float(_group_series(coeffs, integral=True)(np.array([_number("t", t)]))[0])


def universal_group_G_prime(coeffs: _Coeffs, t: float) -> float:
    """Evaluate G'(t) = sum_k a_k * t**k (same truncation rules as G)."""
    return float(_group_series(coeffs, integral=False)(np.array([_number("t", t)]))[0])
