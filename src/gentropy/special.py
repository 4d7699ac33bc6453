"""Special-function kernels used by the entropy catalog.

The upper incomplete gamma integral is computed with the classic split:
a regularized power series for x < a + 1 and a Lentz continued fraction
otherwise (cf. Numerical Recipes ch. 6), both run to relative tolerance
1e-12 with a 500-iteration cap.
"""

from __future__ import annotations

from typing import Callable, Sequence

import math

import numpy as np

from .errors import ParamOutOfDomain, TruncationCapHit, ValidationError

_GAMMA_RTOL = 1e-12
_GAMMA_MAX_ITER = 500

_SERIES_RTOL = 1e-14
_SERIES_CAP = 200

_Coeffs = Sequence[float] | Callable[[int], float]  # finite a_0..a_m, or k -> a_k


def _lower_regularized_series(a: float, x: float) -> float:
    """P(a, x) by power series; accurate for x < a + 1."""
    if x == 0.0:
        return 0.0
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_GAMMA_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _GAMMA_RTOL:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_regularized_continued_fraction(a: float, x: float) -> float:
    """Q(a, x) by modified Lentz continued fraction; accurate for x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _GAMMA_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_RTOL:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def upper_incomplete_gamma(a: float, x: float) -> float:
    """The unnormalized tail integral of t**(a-1) * exp(-t) from x to infinity.

    Parameters
    ----------
    a : float
        Shape, strictly positive.
    x : float
        Lower limit, nonnegative (``x = 0`` gives the complete gamma).

    Notes
    -----
    Relative accuracy ~1e-12 over the supported domain; an independent
    quadrature oracle pins this down in the test suite.
    """
    if not (a > 0.0) or not math.isfinite(a):
        raise ParamOutOfDomain(f"shape must be > 0, got {a!r}")
    if not (x >= 0.0) or not math.isfinite(x):
        raise ValidationError(f"lower limit must be finite and >= 0, got {x!r}")
    gamma_a = math.gamma(a) if a < 170.0 else math.exp(math.lgamma(a))
    if x == 0.0:
        return gamma_a
    if x < a + 1.0:
        return gamma_a * (1.0 - _lower_regularized_series(a, x))
    return gamma_a * _upper_regularized_continued_fraction(a, x)


def check_series_coefficients(coeffs: Sequence[float]) -> tuple[float, ...]:
    """Validate the dominance condition a_k > (k+1) * a_{k+1}, a_0 > 0, a_k >= 0.

    A finite list is treated as zero-extended, so the last coefficient only
    needs to be nonnegative.
    """
    cleaned = tuple(float(c) for c in coeffs)
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


def _group_series(coeffs: _Coeffs, integral: bool) -> Callable[[np.ndarray], np.ndarray]:
    """Elementwise array map of G(t) (``integral``) or of G'(t) = sum_k a_k t**k.

    G(t) = sum_k a_k t**(k+1) / (k+1).  A finite coefficient sequence is
    validated here and summed exactly (a polynomial, by Horner's rule).  A
    callable ``k -> a_k`` is an infinite sequence of nonnegative terms: each
    point stops once ``|term| <= 1e-14 * |partial sum|`` after its first
    term, with a hard cap of 200 terms (exceeding the cap raises).
    """
    if not callable(coeffs):
        a = np.asarray(check_series_coefficients(coeffs))
        if not integral:
            return lambda t: np.polynomial.polynomial.polyval(t, a)
        g_coeffs = a / np.arange(1.0, a.size + 1.0)  # G(t) = t * sum c_k t^k
        return lambda t: t * np.polynomial.polynomial.polyval(t, g_coeffs)

    def series(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        total = np.zeros_like(t)
        power = t.copy() if integral else np.ones_like(t)  # t**(k+1) or t**k
        running = np.ones(t.shape, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(_SERIES_CAP):
                a_k = float(coeffs(k))
                if a_k < 0.0:
                    raise ParamOutOfDomain(f"coefficient a_{k} is negative")
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
    return float(_group_series(coeffs, integral=True)(np.array([t], dtype=float))[0])


def universal_group_G_prime(coeffs: _Coeffs, t: float) -> float:
    """Evaluate G'(t) = sum_k a_k * t**k (same truncation rules as G)."""
    return float(_group_series(coeffs, integral=False)(np.array([t], dtype=float))[0])
