"""The entropy functional catalog.

Every functional here is of *trace form*: an inner per-state component
``phi`` summed over the distribution, optionally wrapped in an outer scalar
map ``h``::

    H(P) = h( sum_i phi(p_i) )        (h = identity when absent)

The catalog covers the classical measures (Shannon, Renyi, Tsallis,
Havrda-Charvat, ...), several multi-parameter families from nonextensive
statistical mechanics, and one deliberately pathological piecewise-linear
functional (``counterexample_HE``) that satisfies positivity, expandability,
symmetry and continuity yet *gains* value under state aggregation.  It is
shipped as a built-in fixture for the verification engine.

A family is declared by one row of ``_FAMILIES``: its parameter names,
checks (one-line rules plus a validator), default campaign samples and a
*form* binding the parameters to a functional.  The functional is a *form
record*: a frozen dataclass whose class names the kind and whose fields hold
the constants as plain floats and tuples, with ``phi`` and ``phi'`` its
methods.  The kinds are a power sum ``sum_i w_i x**e_i / divisor``
(:class:`_PowerSum`, ``phi'`` and ``phi''`` derived from its ``(w, e)``
terms), ``x g(-ln x)`` (:class:`_XGNegLog`), ``scale * x ln x / divisor``
(:class:`_XLogX`), piecewise linear (:class:`_PiecewiseLinear`), log1p
(:class:`_Hypoentropy`), incomplete gamma (:class:`_SCd`) and ``genetic``'s
literal polynomial (:class:`_Genetic`); ``h_phi_custom`` holds user callables
(:class:`_UserForm`).  A record whose phi would divide by 0.0, or read a constant
(its outer map's too) that is not finite, is refused at construction.  Its
``conforms`` names the structural axioms it satisfies: no other module keys on a family.

An outer map is one of the ``_OUTER`` kinds (identity, log, expm1 of a scaled
log, shift), named with its constants by the record's ``outer``; its h and h'
are each one form (:func:`_map`) whose array form calls ``math``'s functions
by ``map``, never numpy's twins, which differ in the last bit at some points.
:func:`_map_points` applies phi', h or h' to many points.

Parameter domains are validated at construction; zero-probability support is
declared per functional (``zero_safe``).  Natural logarithms throughout,
with two deliberate exceptions fixed by the defining formulas: ``nath`` uses
log base 2 and ``havrda_charvat`` carries the 2**(1-q) - 1 normalizer.
Conventions: 0*ln(0) := 0 and 0**a := 0 for a > 0.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import KW_ONLY, InitVar, dataclass, field
from functools import cache, partial
from itertools import chain
from types import SimpleNamespace
from typing import Any, Callable, Mapping

import math

import numpy as np

from .distributions import FiniteDistribution
from .errors import (
    BreakpointHit,
    DeltaExceedsBound,
    DomainViolation,
    NoDerivative,
    NonFinite,
    ParamOutOfDomain,
    UnsupportedPair,
    ValidationError,
    ZeroUnsupported,
    _number,
    _numbers,
)
from .errors import _guarded, _integer, _json_text, _json_value, _shown
from .special import _group_series, _libm, upper_incomplete_gamma

_LN2 = math.log(2.0)

ArrayFn = Callable[[np.ndarray], np.ndarray]
_Terms = tuple[tuple[float, float], ...]


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x * ln(x) extended by 0 at x <= 0."""
    out = np.zeros_like(x)
    mask = x > 0.0
    out[mask] = x[mask] * np.log(x[mask])
    return out


def _neg_log(x: np.ndarray) -> np.ndarray:
    """-ln(x), clipped at 0 so block sums a hair above 1 stay in-domain."""
    return np.maximum(-np.log(x), 0.0)


@dataclass(frozen=True)
class FunctionalDescriptor:
    """What a catalog entry exposes besides plain evaluation."""

    zero_safe: bool
    h_available: bool
    phi_prime_available: bool


@dataclass(frozen=True)
class _Functional:
    """The base of the form records, one frozen dataclass per form kind: its class names
    the kind, its fields hold the constants and ``phi`` and ``phi'`` are its methods.
    ``phi`` maps each entry on its own, so it can run once on many distributions laid
    end to end.  h and h' are the ``_OUTER`` kind that ``outer`` names (None for the
    identity).  A keyword ``phi``, ``phi_prime``, ``h`` or ``h_prime`` substitutes that
    map, as ``dataclasses.replace`` passes a test's fake.  The record is refused where
    phi would divide by 0.0 or phi or h read a constant that is not finite.
    """

    _: KW_ONLY
    phi: InitVar[ArrayFn | None] = None
    phi_prime: InitVar[ArrayFn | None] = None
    h: InitVar[Callable[[float], float] | None] = None
    h_prime: InitVar[Callable[[float], float] | None] = None
    conforms: frozenset[str] = field(default=frozenset(), repr=False)  # axioms it satisfies
    zero_safe = True
    phi_at_zero = 0.0
    breakpoints = ()
    outer = ("identity",)  # an ``_OUTER`` kind and its constants
    divisor = 1.0

    def __post_init__(self, *maps: Callable | None) -> None:
        if self.divisor == 0.0:
            raise ParamOutOfDomain(f"the form {self!r} divides by 0.0")
        for value in (self.divisor, *self._constants(), *self.outer[1:]):
            if not math.isfinite(value):
                raise ParamOutOfDomain(f"the form {self!r} reads {value!r}, which is not finite")
        from_outer = (None, None, *_OUTER[self.outer[0]](*self.outer[1:]))
        for name, given, derived in zip(("phi", "phi_prime", "h", "h_prime"), maps, from_outer):
            if given is not None or derived is not None:
                object.__setattr__(self, name, derived if given is None else given)

    def _constants(self) -> tuple[float, ...]:
        """The constants phi reads besides its divisor, worked out once it is nonzero."""
        return ()

    def check_n(self, n: int) -> None:
        """Vet the dimension before evaluation; every n passes unless the kind says otherwise."""


# ---------------------------------------------------------------------------
# Form kinds and the outer-map kinds
# ---------------------------------------------------------------------------

def _powers(x: np.ndarray, terms: _Terms, divisor: float) -> np.ndarray:
    """sum_i w_i x**e_i / divisor.

    Terms with w = +-1 are added or subtracted and x**1 is x itself, so the
    arithmetic is that of the literal formulas, bit for bit.
    """
    acc = None
    for w, e in terms:
        p = x if e == 1.0 else np.power(x, e)
        if acc is None:
            acc = p if w == 1.0 else w * p
        elif w == 1.0:
            acc = acc + p
        elif w == -1.0:
            acc = acc - p
        else:
            acc = acc + w * p
    return acc if divisor == 1.0 else acc / divisor


def _derive(terms: _Terms) -> _Terms:
    """Terms of the derivative: w x**e -> w e x**(e - 1)."""
    return tuple((w * e, e - 1.0) for w, e in terms if w * e != 0.0)


def _log_of_sum(y: float) -> float:
    """ln y for a component sum y; a sum that underflowed to 0.0 is a typed error."""
    if y == 0.0:
        raise NonFinite(f"the component sum is {y!r} (an underflow), and its log is not finite")
    return math.log(y)


# The math functions of a map's form, on one float and (by ``_libm``) on an array
_ON_FLOAT = SimpleNamespace(log=_log_of_sum, expm1=math.expm1, log1p=math.log1p, pow=math.pow)
_ON_ARRAY = SimpleNamespace(**{k: partial(_libm, getattr(math, k)) for k in vars(_ON_FLOAT)})


def _map(form: Callable, name: str) -> Callable[[float], float]:
    """``form(y, lib)`` as a map of one float (``lib`` is ``_ON_FLOAT``), with ``.array``, the
    map at each element of a 1-d array (``_ON_ARRAY``).  Outside its domain it raises
    ``DomainViolation`` (a log of 0.0, ``NonFinite``)."""

    def at(y, lib: SimpleNamespace = _ON_FLOAT):
        try:
            return form(y, lib)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainViolation(f"{name} is not defined at {y!r}: {exc}") from exc

    at.array = partial(at, lib=_ON_ARRAY)
    return at


def _outer(h: Callable, h_prime: Callable) -> tuple[Callable, Callable]:
    """(h, h') of an outer-map kind, from their forms (see :func:`_map`)."""
    return _map(h, "the outer map h"), _map(h_prime, "the outer map h'")


# Outer maps h by kind, each built from its constants as the pair (h, h').
_OUTER: dict[str, Callable[..., tuple[Callable | None, Callable | None]]] = {
    "identity": lambda: (None, None),
    "log": lambda c: _outer(lambda y, lib: lib.log(y) / c, lambda y, _: 1.0 / (c * y)),
    # expm1/log keep the s -> 1 neighborhood (the log-family limit) stable
    "expm1_log": lambda m, c: _outer(
        lambda y, lib: lib.expm1(m * lib.log(y)) / c, lambda y, lib: m / c * lib.pow(y, m - 1.0)
    ),
    "shift": lambda s: _outer(lambda y, _: y - s, lambda y, _: 1.0),
}
_IDENTITY = _outer(lambda y, _: y, lambda y, _: 1.0)  # (h, h') where a functional has no h


@dataclass(frozen=True)
class _PowerSum(_Functional):
    """phi(x) = sum_i w_i x**e_i / divisor with phi' derived from the terms.

    Terms with w = 0 drop, and one whose w e underflows to 0.0, which phi' would
    lose, is refused.  ``phi_at_zero`` defaults to 0 when every exponent is
    positive and to undefined otherwise.
    """

    terms: _Terms
    divisor: float = 1.0
    outer: tuple = ("identity",)
    zero_safe: bool = True
    phi_at_zero: float | None = None

    def __post_init__(self, *maps: Callable | None) -> None:
        terms = tuple((float(w), float(e)) for w, e in self.terms if w != 0.0)
        for w, e in terms:
            if w * e == 0.0 != e:
                raise ParamOutOfDomain(
                    f"phi' would lose the term {w!r} x**{e!r}: w * e underflows to 0.0"
                )
        object.__setattr__(self, "terms", terms)
        if self.phi_at_zero is None and all(e > 0.0 for _, e in terms):
            object.__setattr__(self, "phi_at_zero", 0.0)
        super().__post_init__(*maps)

    def _constants(self) -> tuple[float, ...]:
        return tuple(chain.from_iterable(self.terms + _derive(self.terms)))

    def phi(self, x: np.ndarray) -> np.ndarray:
        return _powers(x, self.terms, self.divisor)

    def phi_prime(self, x: np.ndarray) -> np.ndarray:
        return _powers(x, _derive(self.terms), self.divisor)


@dataclass(frozen=True)
class _XGNegLog(_Functional):
    """phi(x) = x g(-ln x), extended by 0 at x = 0; phi'(x) = (g - g')(-ln x).

    g is t**delta, whose dimension n must keep delta <= 1 + ln n, or, without a
    delta, the group series G of ``coeffs`` (:func:`special._group_series` checks them).
    """

    delta: float | None = None
    coeffs: tuple[float, ...] | Callable[[int], float] | None = None

    def __post_init__(self, *maps: Callable | None) -> None:
        if self.delta is None:
            g = tuple(_group_series(self.coeffs, integral) for integral in (False, True))
        else:
            terms = ((1.0, float(self.delta)),)  # t**delta
            g = tuple(partial(_powers, terms=t, divisor=1.0) for t in (_derive(terms), terms))
        object.__setattr__(self, "_g", g)  # (g', g), built once with the record
        super().__post_init__(*maps)

    def check_n(self, n: int) -> None:
        bound = 1.0 + math.log(n)
        if self.delta is not None and self.delta > bound:
            raise DeltaExceedsBound(
                f"s_delta with delta={self.delta!r} exceeds 1 + ln({n}) = {bound!r}"
            )

    def g(self, t: np.ndarray, integral: bool = True) -> np.ndarray:
        """g at ``t``, or g' where not ``integral``."""
        return self._g[integral](t)

    def phi(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        mask = x > 0.0
        out[mask] = x[mask] * self.g(_neg_log(x[mask]))
        return out

    def phi_prime(self, x: np.ndarray) -> np.ndarray:
        t = _neg_log(x)
        return self.g(t) - self.g(t, integral=False)


@dataclass(frozen=True)
class _XLogX(_Functional):
    """phi(x) = scale * x ln x / divisor, extended by 0 at x = 0; ``mirrored``
    adds the same term at 1 - x.  (x ln x)' = ln x + 1 gives phi'."""

    scale: float
    divisor: float = 1.0
    mirrored: bool = False

    def _scaled(self, v: np.ndarray) -> np.ndarray:
        v = self.scale * v
        return v if self.divisor == 1.0 else v / self.divisor

    def phi(self, x: np.ndarray) -> np.ndarray:
        return self._scaled(_xlogx(x) + _xlogx(1.0 - x) if self.mirrored else _xlogx(x))

    def phi_prime(self, x: np.ndarray) -> np.ndarray:
        return self._scaled(np.log(x) - np.log(1.0 - x) if self.mirrored else np.log(x) + 1.0)


@dataclass(frozen=True)
class _PiecewiseLinear(_Functional):
    """phi(x) = s_i x + b_i on the first piece i with x < knot_i (else the last);
    phi' = s_i, undefined at the knots."""

    knots: tuple[float, ...]
    slopes: tuple[float, ...]
    offsets: tuple[float, ...]

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self.knots

    def phi(self, x: np.ndarray) -> np.ndarray:
        *lines, last = (s * x + b for s, b in zip(self.slopes, self.offsets))
        return np.select([x < knot for knot in self.knots], lines, default=last)

    def phi_prime(self, x: np.ndarray) -> np.ndarray:
        slopes = self.slopes
        return np.select([x < k for k in self.knots], slopes[:-1], default=slopes[-1])


@dataclass(frozen=True)
class _Hypoentropy(_Functional):
    """phi(x) = c x - (1 + lam x) ln(1 + lam x) / lam with c = (1 + 1/lam) ln(1 + lam):
    c x spreads the constant c = sum_i c p_i over the states, so phi(0) = 0."""

    lam: float

    def _constants(self) -> tuple[float, ...]:
        return (1.0 / self.lam, (1.0 + 1.0 / self.lam) * math.log1p(self.lam))

    def phi(self, x: np.ndarray) -> np.ndarray:
        inverse, c = self._constants()
        return c * x - inverse * (1.0 + self.lam * x) * np.log1p(self.lam * x)

    def phi_prime(self, x: np.ndarray) -> np.ndarray:
        return self._constants()[1] - np.log1p(self.lam * x) - 1.0


@dataclass(frozen=True)
class _Genetic(_Functional):
    """phi(x) = x - 2x^2 + 2x^3 - x^4, written literally: as a power sum its bits would differ."""

    def phi(self, x: np.ndarray) -> np.ndarray:
        return x - x**2 - x**2 * (1.0 - x) ** 2

    def phi_prime(self, x: np.ndarray) -> np.ndarray:
        return 1.0 - 2.0 * x - 2.0 * x * (1.0 - x) * (1.0 - 2.0 * x)


@dataclass(frozen=True)
class _SCd(_Functional):
    """phi(x) = e Gamma(1 + d, 1 - c ln x) / divisor, the logs by ``_libm``, with the
    divisor 1 - c + c d; h = y - c / divisor.  phi(0) = 0 as Gamma(1+d, +inf) = 0."""

    c: float
    d: float
    zero_safe = False

    @property
    def divisor(self) -> float:
        return 1.0 - self.c + self.c * self.d

    @property
    def outer(self) -> tuple:
        return ("shift", self.c / self.divisor)

    def _constants(self) -> tuple[float, ...]:
        return (math.e / self.divisor, self.c / self.divisor)

    def phi(self, x: np.ndarray) -> np.ndarray:
        limits = 1.0 - self.c * _libm(math.log, np.asarray(x, dtype=float).ravel())
        gamma = upper_incomplete_gamma(1.0 + self.d, limits).reshape(np.shape(x))
        return self._constants()[0] * gamma

    def phi_prime(self, x: np.ndarray) -> np.ndarray:
        # d/dx Gamma(1+d, 1 - c ln x) = (c/x) (1 - c ln x)^d exp(-(1 - c ln x))
        u = 1.0 - self.c * np.log(x)
        return self._constants()[1] * np.power(x, self.c - 1.0) * np.power(u, self.d)


@dataclass(frozen=True)
class _UserForm(_Functional):
    """h_phi_custom's form: the user's phi, phi', h and h', each guarded, phi and phi'
    mapped point by point; a zero-safe phi(0) is the user's phi at 0.0."""

    zero_safe: bool = False
    phi_at_zero: float | None = None

    @classmethod
    def of(cls, params: dict) -> _UserForm:
        user = {
            name: _guarded(params[name], f"h_phi_custom {name}")
            for name in ("phi", "phi_prime", "h", "h_prime")
            if params.get(name) is not None
        }
        maps = {name: _pointwise(fn) if name.startswith("phi") else fn for name, fn in user.items()}
        zero_safe = bool(params.get("zero_safe", False))
        return cls(zero_safe, user["phi"](0.0) if zero_safe else None, **maps)


def _pointwise(fn: Callable[[float], float]) -> ArrayFn:
    """A map of one float as a map of each entry of an array."""
    return lambda x: np.array([fn(v) for v in np.asarray(x, dtype=float)])


def _four_power(eps: float, weights) -> tuple[_Terms, float]:
    """Terms and divisor of (w0 x^(1-2e) + w1 x^(1-e) + w2 x^(1+e) + w3 x^(1+2e)) / e."""
    exps = (1.0 - 2.0 * eps, 1.0 - eps, 1.0 + eps, 1.0 + 2.0 * eps)
    return tuple(zip(weights, exps)), eps


_S_IV_WEIGHTS = (1.0, -1.5, 1.5, -1.0)


def _abe_terms(k: float) -> tuple[_Terms, float]:
    """Terms and divisor of (x^(1/q) - x^q) / (q - 1/q) with q = sqrt(1 + k^2) + k."""
    q = math.sqrt(1.0 + k * k) + k
    # q - 1/q = 2k
    return ((1, 1.0 / q), (-1, q)), q - 1.0 / q


# ---------------------------------------------------------------------------
# Parameter checks that a one-line rule of the family table cannot express
# ---------------------------------------------------------------------------

def _no_checks(params: dict) -> None:
    pass


def _validate_group_entropy(params: dict) -> None:
    l, m, sigma = (_number(name, params[name]) for name in ("l", "m", "sigma"))
    k = _numbers("coeffs", params["coeffs"])
    if not (l.is_integer() and m.is_integer()):
        raise ParamOutOfDomain(f"group_entropy needs integers l and m, got l={l!r}, m={m!r}")
    if m - l <= 0:
        raise ParamOutOfDomain(f"group_entropy needs l < m, got l={l:g}, m={m:g}")
    if not (sigma > 0.0):
        raise ParamOutOfDomain(f"group_entropy needs sigma > 0, got {sigma!r}")
    if len(k) != m - l + 1:
        raise ParamOutOfDomain(
            f"group_entropy needs {m - l + 1:g} coefficients k_l..k_m, got {len(k)}"
        )
    if abs(sum(k)) > 1e-12:
        raise ParamOutOfDomain(f"group_entropy needs sum k_j = 0, got {sum(k)!r}")
    weighted = sum(j * kj for j, kj in zip(range(int(l), int(m) + 1), k))
    if abs(weighted - 1.0) > 1e-12:
        raise ParamOutOfDomain(
            f"group_entropy needs sum j*k_j = 1, got {weighted!r}"
        )
    if k[0] == 0.0 or k[-1] == 0.0:
        raise ParamOutOfDomain("group_entropy needs k_l != 0 and k_m != 0")


def _s_IV_concavity_gate(q: float, form: _PowerSum) -> _PowerSum:
    """``form``, s_IV's record at ``q``, once its phi'' is <= 1e-9 on the unit interval."""
    x = np.linspace(1.0 / 513.0, 512.0 / 513.0, 512)
    worst = float(_powers(x, _derive(_derive(form.terms)), form.divisor).max())
    if worst > 1e-9:
        raise ParamOutOfDomain(
            f"s_IV per-state component is not concave at q={q!r} "
            f"(max second derivative {worst:.3e} on the unit interval)"
        )
    return form


def _two_param_region_ok(r: float, k: float) -> bool:
    ak = abs(k)
    if ak < 0.5:
        return -ak <= r <= ak
    if ak < 1.0:
        return ak - 1.0 < r < 1.0 - ak
    return False


def _validate_nath(params: dict) -> None:
    lam = _number("lambda", params["lambda"])
    if lam == 1.0:
        if "alpha" in params:
            raise ParamOutOfDomain("nath with lambda = 1 takes tau, not alpha")
        tau = _number("tau", params["tau"])
        if not (tau < 0.0):
            raise ParamOutOfDomain(f"nath with lambda = 1 needs tau < 0, got {tau!r}")
    else:
        if "tau" in params:
            raise ParamOutOfDomain("nath with lambda != 1 takes alpha, not tau")
        alpha = _number("alpha", params["alpha"])
        if not (alpha > 0.0) or not (lam * (1.0 - alpha) > 0.0):
            raise ParamOutOfDomain(
                f"nath needs alpha > 0 and lambda*(1-alpha) > 0, got "
                f"alpha={alpha!r}, lambda={lam!r}"
            )


def _validate_h_phi_custom(params: dict) -> None:
    if not callable(params.get("phi")):
        raise ParamOutOfDomain("h_phi_custom needs a callable 'phi'")
    for name in ("h", "phi_prime", "h_prime"):
        if name in params and params[name] is not None and not callable(params[name]):
            raise ParamOutOfDomain(f"h_phi_custom parameter {name!r} must be callable")


# ---------------------------------------------------------------------------
# The family table
# ---------------------------------------------------------------------------

_Rule = tuple[str, Callable[..., bool], str]


@dataclass(frozen=True)
class _Family:
    """Catalog row: parameter contract, checks, form and campaign samples.

    Each rule ``(names, ok, requirement)`` reads the space-separated numeric
    parameters ``names`` and demands ``ok(*values)``; ``validate`` runs the
    checks no rule expresses.  ``samples`` are the default campaign's
    parameter sets.
    """

    required: tuple[str, ...]
    form: Callable[[dict], _Functional]
    rules: tuple[_Rule, ...] = ()
    validate: Callable[[dict], None] = _no_checks
    optional: tuple[str, ...] = ()
    samples: tuple[dict, ...] = ()


def _each(name: str, *values: float) -> tuple[dict, ...]:
    return tuple({name: value} for value in values)


_ORDER_RULE: _Rule = ("q", lambda q: q > 0.0 and q != 1.0, "q > 0, q != 1")
_MATHAI_RULE: _Rule = ("q", lambda q: q < 2.0 and q != 1.0, "q < 2, q != 1")

_FAMILIES: dict[str, _Family] = {
    "shannon": _Family((), lambda p: _XLogX(-1.0, conforms=frozenset(
        {"recursivity", "strong_additivity", "split_recursivity", "product_additivity"}
    )), samples=({},)),
    "renyi": _Family(("q",), lambda p: _PowerSum(
        ((1, p["q"]),), outer=("log", 1.0 - p["q"]), conforms=frozenset({"product_additivity"}),
    ), rules=(_ORDER_RULE,), samples=_each("q", 0.5, 2.0, 3.0)),
    "tsallis": _Family(("q",), lambda p: _PowerSum(
        # q = 0 would need the 0**0 convention
        ((1, p["q"]), (-1, 1)), 1.0 - p["q"], zero_safe=p["q"] > 0.0,
        conforms=frozenset({"product_pseudo_additivity", "escort_composability"}),
    ), rules=(("q", lambda q: q >= 0.0 and q != 1.0, "q >= 0, q != 1"),),
        samples=_each("q", 0.5, 2.0, 3.0)),
    "h_phi_custom": _Family(
        ("phi",), _UserForm.of, validate=_validate_h_phi_custom,
        optional=("h", "phi_prime", "h_prime", "zero_safe"),
    ),
    "genetic": _Family((), lambda p: _Genetic(), samples=({},)),
    "paired": _Family((), lambda p: _XLogX(-1.0, mirrored=True), samples=({},)),
    "hypoentropy": _Family(
        ("lambda",), lambda p: _Hypoentropy(float(p["lambda"])),
        rules=(("lambda", lambda lam: lam > 0.0, "lambda > 0"),),
        samples=_each("lambda", 0.5, 1.0, 5.0),
    ),
    "sharma_mittal_rs": _Family(("r", "s"), lambda p: _PowerSum(
        ((1, p["r"]),),
        outer=("expm1_log", (p["s"] - 1.0) / (p["r"] - 1.0), 1.0 - p["s"]),
    ), rules=(("r s", lambda r, s: r > 0.0 and r != 1.0 and s != 1.0,
               "r > 0, r != 1, s != 1"),),
        samples=({"r": 0.5, "s": 2.0}, {"r": 0.5, "s": 0.3}, {"r": 2.0, "s": 0.5})),
    "universal_group": _Family(
        ("coeffs",), lambda p: _XGNegLog(coeffs=p["coeffs"]),
        samples=_each("coeffs", (1.0,), (1.0, 0.4), (1.0, 0.4, 0.1)),
    ),
    "s_cd": _Family(("c", "d"), lambda p: _SCd(float(p["c"]), float(p["d"])), rules=(
        ("c", lambda c: 0.0 < c <= 1.0, "c in (0, 1]"),
        ("c d", lambda c, d: 1.0 - c + c * d != 0.0, "a nonzero normalizer 1 - c + c*d"),
        ("d", lambda d: d > -1.0, "d > -1"),  # the incomplete gamma's shape 1 + d is > 0
    ), samples=({"c": 0.5, "d": 1.0}, {"c": 0.8, "d": 0.5}, {"c": 1.0, "d": 2.0})),
    "s_delta": _Family(
        ("delta",), lambda p: _XGNegLog(delta=p["delta"]),
        rules=(("delta", lambda delta: delta > 0.0, "delta > 0"),),
        samples=_each("delta", 0.5, 1.0, 2.0),
    ),
    "borges_roditi": _Family(("a", "b"), lambda p: _PowerSum(
        ((1, p["b"]), (-1, p["a"])), p["a"] - p["b"],
        zero_safe=p["a"] > 0.0 and p["b"] > 0.0,
        # a or b at 0 leaves x**0 = 1 at x = 0 (breaking expandability); else 0
        phi_at_zero=((p["b"] == 0.0) - (p["a"] == 0.0)) / (p["a"] - p["b"]) or None,
    ), rules=(
        ("a b", lambda a, b: 0.0 <= a < 1.0 and 0.0 <= b < 1.0, "0 <= a, b < 1"),
        # The defining formula divides by a - b; the analytic a -> b limit is
        # deliberately not substituted.
        ("a b", lambda a, b: a != b, "a != b"),
    ),
        # concave-component samples: b(1-b) >= a(1-a); low-b corners stay
        # merge-monotone but lose uniform maximality
        samples=({"a": 0.7, "b": 0.3}, {"a": 0.8, "b": 0.3}, {"a": 0.9, "b": 0.4})),
    "group_entropy": _Family(("l", "m", "coeffs", "sigma"), lambda p: _PowerSum(
        # literal per-state reading of the double sum (see module notes)
        zip(p["coeffs"], -np.arange(int(p["l"]), int(p["m"]) + 1.0) * p["sigma"]),
        float(p["sigma"]), zero_safe=False,
    ), validate=_validate_group_entropy),
    "s_III": _Family(("q",), lambda p: _PowerSum(
        # x * (x^(2e) - 2 x^e + x^(-e)) / e, written on combined exponents
        *_four_power(1.0 - p["q"], (0.0, 1.0, -2.0, 1.0)),
    ), rules=(("q", lambda q: 2.0 / 3.0 < q < 1.0, "2/3 < q < 1"),),
        samples=_each("q", 0.7, 0.8, 0.9)),
    "s_IV": _Family(("q",), lambda p: _s_IV_concavity_gate(float(p["q"]), _PowerSum(
        *_four_power(1.0 - p["q"], _S_IV_WEIGHTS), zero_safe=False,
    )), rules=(("q", lambda q: 0.5 < q < 1.5 and q != 1.0, "1/2 < q < 3/2, q != 1"),),
        samples=_each("q", 0.75, 0.9, 1.2)),
    "three_param": _Family(("q", "alpha", "beta"), lambda p: _PowerSum(
        *_four_power(1.0 - p["q"], (
            p["alpha"],
            0.5 * (1.0 - 3.0 * p["alpha"] + p["beta"]),
            0.5 * (p["alpha"] - 1.0 - 3.0 * p["beta"]),
            p["beta"],
        )), zero_safe=False,
    ), rules=(
        ("q", lambda q: 0.5 < q < 1.5 and q != 1.0, "1/2 < q < 3/2, q != 1"),
        ("alpha", lambda alpha: 0.0 < alpha < 0.5, "0 < alpha < 1/2"),
        ("beta", lambda beta: -0.25 < beta < 0.0, "-1/4 < beta < 0"),
    ), samples=(
        {"q": 0.8, "alpha": 0.3, "beta": -0.1},
        {"q": 1.2, "alpha": 0.25, "beta": -0.2},
        {"q": 1.1, "alpha": 0.4, "beta": -0.05},
    )),
    "two_param": _Family(("r", "k"), lambda p: _PowerSum(
        ((1, 1.0 + p["r"] - p["k"]), (-1, 1.0 + p["r"] + p["k"])), 2.0 * p["k"],
        # r >= |k| keeps the bare p**(-k) factor of the defining formula bounded
        zero_safe=p["r"] - abs(p["k"]) >= 0.0,
    ), rules=(
        ("k", lambda k: k != 0.0, "k != 0 (formula divides by 2k)"),
        ("r k", _two_param_region_ok, "(r, k) inside the admissible region"),
    ), samples=({"r": 0.0, "k": 0.3}, {"r": 0.2, "k": 0.4}, {"r": -0.2, "k": 0.6})),
    "abe": _Family(
        ("k",), lambda p: _PowerSum(*_abe_terms(float(p["k"])), zero_safe=False),
        rules=(("k", lambda k: k != 0.0, "k != 0"),), samples=_each("k", -0.5, 0.3, 1.0),
    ),
    "kaniadakis": _Family(("k",), lambda p: _PowerSum(
        ((1, 1.0 - p["k"]), (-1, 1.0 + p["k"])), 2.0 * p["k"],
    ), rules=(("k", lambda k: -1.0 < k < 1.0 and k != 0.0, "-1 < k < 1, k != 0"),),
        samples=_each("k", 0.3, 0.5, -0.7)),
    "gamma_entropy": _Family(("gamma",), lambda p: _PowerSum(
        ((1, 1.0 - p["gamma"]), (-1, 1.0 + 2.0 * p["gamma"])), 3.0 * p["gamma"],
    ), rules=(
        ("gamma", lambda g: g != 0.0, "gamma != 0"),
        ("gamma", lambda g: _two_param_region_ok(0.5 * g, 1.5 * g),
         "(r, k) = (gamma/2, 3*gamma/2) inside the admissible region"),
    ), samples=_each("gamma", 0.2, 0.4, -0.3)),
    "nath": _Family(("lambda",), lambda p: (
        _XLogX(float(p["tau"]), _LN2) if p["lambda"] == 1.0  # shannon in bits, times -tau
        else _PowerSum(((1.0, p["alpha"]),), outer=("log", float(p["lambda"]) * _LN2))
    ), validate=_validate_nath, optional=("tau", "alpha"),
        samples=(
            {"tau": -1.0, "lambda": 1.0},
            {"alpha": 0.5, "lambda": 2.0},
            {"alpha": 2.0, "lambda": -1.0},
        ),
    ),
    "havrda_charvat": _Family(("q",), lambda p: _PowerSum(
        ((1, p["q"]), (-1, 1)), math.pow(2.0, 1.0 - p["q"]) - 1.0,
        conforms=frozenset({"product_pseudo_additivity"}),
    ), rules=(_ORDER_RULE,), samples=_each("q", 0.5, 2.0, 3.0)),
    "mathai_Mq": _Family(("q",), lambda p: _PowerSum(
        ((1, 2.0 - p["q"]), (-1, 1)), p["q"] - 1.0,
        conforms=frozenset({"product_pseudo_additivity"}),
    ), rules=(_MATHAI_RULE,), samples=_each("q", -0.5, 0.5, 1.5)),
    "mathai_Mq_star": _Family(("q",), lambda p: _PowerSum(
        ((1, 2.0 - p["q"]),), outer=("log", p["q"] - 1.0),
    ), rules=(_MATHAI_RULE,), samples=_each("q", 0.5, 1.5, 1.9)),
    "counterexample_HE": _Family((), lambda p: _PiecewiseLinear(
        (0.25, 0.5, 0.75), (1.0, 2.0, -2.0, -1.0), (0.0, -0.25, 1.75, 1.0),
    )),
}

CATALOG_IDS: tuple[str, ...] = tuple(_FAMILIES)


class EntropySpec:
    """A catalog identifier bound to validated parameters.

    Immutable and hashable; two specs are equal when id and parameters match.
    """

    __slots__ = ("_id", "_params", "_functional")

    def __init__(self, id: str, params: Mapping[str, Any] | None = None, **kw: Any):
        try:
            merged = {**dict(params or {}), **kw}
        except (TypeError, ValueError):  # what dict cannot take
            raise ValidationError(f"'params' must be a mapping, got {_shown(params)}") from None
        if not isinstance(id, str) or id not in _FAMILIES:
            raise ValidationError(
                f"unknown entropy id {_shown(id)}; known ids: {', '.join(CATALOG_IDS)}"
            )
        family = _FAMILIES[id]
        allowed = set(family.required) | set(family.optional)
        unknown = sorted(set(merged) - allowed)
        if unknown:
            raise ValidationError(f"unknown parameters for {id!r}: {unknown}")
        missing = sorted(set(family.required) - set(merged))
        if missing:
            raise ValidationError(f"missing parameters for {id!r}: {missing}")
        if isinstance(merged.get("coeffs"), list):
            merged["coeffs"] = tuple(merged["coeffs"])
        for names, ok, requirement in family.rules:
            values = [_number(name, merged[name]) for name in names.split()]
            if not ok(*values):
                got = ", ".join(f"{n}={v!r}" for n, v in zip(names.split(), values))
                raise ParamOutOfDomain(f"{id} needs {requirement}, got {got}")
        family.validate(merged)
        object.__setattr__(self, "_id", id)
        object.__setattr__(self, "_params", merged)
        object.__setattr__(self, "_functional", family.form(merged))

    def __setattr__(self, name, value):
        raise AttributeError("EntropySpec is immutable")

    @property
    def id(self) -> str:
        return self._id

    @property
    def params(self) -> dict[str, Any]:
        return dict(self._params)

    @property
    def functional(self) -> _Functional:
        return self._functional

    def descriptor(self) -> FunctionalDescriptor:
        f = self._functional
        return FunctionalDescriptor(
            zero_safe=f.zero_safe,
            h_available=f.h is not None,
            phi_prime_available=f.phi_prime is not None,
        )

    def label(self) -> str:
        """Deterministic short label, e.g. ``tsallis(q=2)``."""
        if not self._params:
            return self._id
        parts = []
        for key in sorted(self._params):
            value = self._params[key]
            if callable(value):
                value = "<callable>"
            elif isinstance(value, tuple):
                value = list(value)
            parts.append(f"{key}={value!r}")
        return f"{self._id}({', '.join(parts)})"

    def _key(self):
        items = []
        for key in sorted(self._params):
            value = self._params[key]
            items.append((key, id(value) if callable(value) else value))
        return (self._id, tuple(items))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EntropySpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"EntropySpec({self.label()})"


def spec_to_json(spec: EntropySpec) -> str:
    """Serialize as ``{"id": ..., "params": {...}}`` (callables rejected)."""
    _reject_callables(spec.id, spec.params)
    params = {
        key: (list(value) if isinstance(value, tuple) else value)
        for key, value in spec.params.items()
    }
    return _json_text({"id": spec.id, "params": params})


def spec_from_json(source: str | Mapping[str, Any]) -> EntropySpec:
    data = _json_value(source, "entropy") if isinstance(source, str) else source
    if not isinstance(data, Mapping) or "id" not in data:
        raise ValidationError('entropy JSON must be {"id": ..., "params": {...}}')
    spec_id = data["id"]
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ValidationError('"params" must be an object')
    _reject_callables(spec_id, params)
    return EntropySpec(spec_id, params)


def _reject_callables(spec_id: str, params: Mapping[str, Any]) -> None:
    if any(callable(value) for value in params.values()):
        raise ValidationError(f"{spec_id!r} holds callables and has no JSON form")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(spec: EntropySpec, dist: FiniteDistribution) -> float:
    """Evaluate the functional on a distribution.

    Raises
    ------
    ZeroUnsupported
        If the distribution contains zeros and the functional is not
        zero-safe.
    DeltaExceedsBound
        When the functional's dimension hook rejects ``dist.n`` (``s_delta``
        with delta > 1 + ln(n)).
    NonFinite
        If the value is NaN or infinite.
    DomainViolation
        If the component sum lies outside the outer map's domain, or h overflows there.
    UserCallableError
        If a callable of an ``h_phi_custom`` spec raises.
    """
    f = spec.functional
    p = dist.probs
    _admit(spec, dist.n, not f.zero_safe and bool(np.any(p == 0.0)))
    with np.errstate(all="ignore"):  # a sum past the float range is not finite: NonFinite
        return _outer_value(spec, float(np.sum(f.phi(p))))


def _admit(spec: EntropySpec, n: int, has_zero: bool) -> None:
    """The checks :func:`evaluate` makes before calling phi.

    ``has_zero`` tells whether the distribution holds a zero probability.
    """
    f = spec.functional
    if has_zero and not f.zero_safe:
        raise ZeroUnsupported(f"{spec.id} does not admit zero probabilities")
    f.check_n(n)


def _outer_value(spec: EntropySpec, total: float) -> float:
    """H from the component sum: h(total), or total itself when h is absent."""
    f = spec.functional
    value = float(f.h(total)) if f.h is not None else total
    if not math.isfinite(value):
        raise NonFinite(f"{spec.id} evaluates to {value!r} on this distribution")
    return value


def phi_component(spec: EntropySpec, x: float, n: int | None = None) -> float:
    """The per-state component phi at a point of [0, 1].

    At ``x = 0`` the analytic limit is returned when it exists (it makes
    expandability meaningful); a component that diverges or is undefined at 0
    raises, and a value that is not finite raises ``NonFinite``.  No component
    depends on the dimension: ``n``, an integer >= 1 where given, is ignored.
    """
    f = spec.functional
    if n is not None:
        _integer("n", n, minimum=1)
    if not (0.0 <= _number("x", x) <= 1.0):
        raise ValidationError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        if f.phi_at_zero is None:
            raise ZeroUnsupported(f"{spec.id} per-state component undefined at 0")
        return f.phi_at_zero
    with np.errstate(all="ignore"):  # past the float range: NonFinite, as in evaluate
        value = float(f.phi(np.array([float(x)]))[0])
    if not math.isfinite(value):
        raise NonFinite(f"{spec.id} per-state component is {value!r} at {x!r}")
    return value


def phi_prime(spec: EntropySpec, x: float) -> float:
    """Closed-form derivative of the per-state component on (0, 1).

    Piecewise components reject their breakpoints; a value not finite is ``NonFinite``.
    """
    return _at(spec, "phi_prime", _number("x", x))


def outer_map(spec: EntropySpec, y: float) -> float:
    """The outer wrapping map h (identity when the functional has none); a value that is not
    finite raises ``NonFinite``, as in :func:`evaluate`."""
    return _at(spec, "h", _number("y", y))


def outer_map_prime(spec: EntropySpec, y: float) -> float:
    """Derivative of the outer map (1 for plain sum forms)."""
    return _at(spec, "h_prime", _number("y", y))


def _at(spec: EntropySpec, name: str, x: float) -> float:
    """:func:`_map_points` at one point: its value, or its error raised."""
    values, failures = _map_points(spec, name, np.array([x]))
    if failures:
        raise failures[0]
    return float(values[0])


def _phi_prime_at(spec: EntropySpec, x: float) -> float:
    """phi' at one float, or the refusal of :func:`phi_prime` there."""
    f = spec.functional
    if f.phi_prime is None:
        raise NoDerivative(f"{spec.id} has no closed-form component derivative")
    if not (0.0 < x < 1.0):
        raise ValidationError(f"x must lie in (0, 1), got {x!r}")
    for b in f.breakpoints:
        if abs(x - b) < 1e-12:
            raise BreakpointHit(f"{spec.id} component is not differentiable at {b}")
    value = float(f.phi_prime(np.array([x]))[0])
    if not math.isfinite(value):
        raise NonFinite(f"{spec.id} component derivative is {value!r} at {x!r}")
    return value


def _map_points(spec: EntropySpec, name: str, points: np.ndarray) -> tuple[np.ndarray, dict]:
    """phi', H from a component sum, or h' (``name``: "phi_prime", "h" or "h_prime") at each
    of the 1-d float ``points``, by :func:`_map_array`; a point fails as :func:`phi_prime`,
    :func:`evaluate` or :func:`outer_map_prime` does there.  A missing h is the identity."""
    f = spec.functional
    if name == "h_prime":
        return _map_array(f.h_prime or _IDENTITY[1], points)
    at = partial(_outer_value if name == "h" else _phi_prime_at, spec)
    if name == "h":
        at.array = getattr(f.h or _IDENTITY[0], "array", None)
    elif f.phi_prime is not None:  # NaN where phi' refuses the point
        refused = ~((points > 0.0) & (points < 1.0))
        for b in f.breakpoints:
            refused |= np.abs(points - b) < 1e-12
        at.array = lambda t: np.where(refused, math.nan, f.phi_prime(t))
    return _map_array(at, points)


def _map_array(at: Callable, points: np.ndarray) -> tuple[np.ndarray, dict]:
    """``at``, a map of one float, at each of the 1-d float ``points``: the values, NaN where it
    raises, and each error (by :func:`_outcome`) by position, ascending; numpy's warnings are
    off.  Its ``.array``, if any, runs first and gives each point the bits ``at`` gives it; the
    points it leaves not finite, or all of them when it raises or is missing, go alone."""
    values = np.full(points.size, math.nan)
    with suppress(Exception), np.errstate(all="ignore"):  # Python's floats give no warnings
        values[:] = at.array(points)  # without one, or where it raises, every point goes alone
    alone = np.flatnonzero(~np.isfinite(values))
    with np.errstate(all="ignore"):  # ``at`` judges a value that is not finite
        outcomes = {i: _outcome(at, y) for i, y in zip(alone.tolist(), points[alone].tolist())}
    failures = {i: error for i, error in outcomes.items() if isinstance(error, Exception)}
    values[alone] = [math.nan if i in failures else value for i, value in outcomes.items()]
    return values, failures


def _outcome(fn, *args) -> object:
    """``fn(*args)``, or the exception it raises, kept with no traceback along its
    chain: the frames of one would keep the batch's arrays alive."""
    try:
        return fn(*args)
    except Exception as exc:
        error = exc
        while error is not None:
            error = error.with_traceback(None).__context__
        return exc


# ---------------------------------------------------------------------------
# Value transforms between functionals that are monotone images of each other
# ---------------------------------------------------------------------------

def _same(q: float) -> float:
    return q


# Forward pairs: (source id, target id) -> (kind, coefficient c from the
# source's q, target q).  The q maps are involutions, so a reverse source's q
# maps back as well.
_TRANSFORMS: dict[tuple[str, str], tuple[str, Callable, Callable]] = {
    ("tsallis", "renyi"): ("log1p", lambda q: 1.0 - q, _same),
    ("tsallis", "havrda_charvat"): (
        "scale", lambda q: (1.0 - q) / (math.pow(2.0, 1.0 - q) - 1.0), _same
    ),
    # the same functional under the order reindexing q -> 2 - q
    ("tsallis", "mathai_Mq"): ("scale", lambda q: 1.0, lambda q: 2.0 - q),
    ("mathai_Mq", "mathai_Mq_star"): ("log1p", lambda q: q - 1.0, _same),
}

TRANSFORM_PAIRS: tuple[tuple[str, str], ...] = tuple(_TRANSFORMS)

_TRANSFORM_FORMS = {  # kind -> (forward, reverse): v to c v or log1p(c v) / c, and back
    "scale": (lambda v, _, c: v * c, lambda v, _, c: v / c),
    "log1p": (lambda v, lib, c: lib.log1p(c * v) / c, lambda v, lib, c: lib.expm1(c * v) / c),
}


def _transform(source: EntropySpec, target_id: str) -> tuple[str, float, float, bool]:
    """Kind, coefficient, target q and direction of a registered pair."""
    for pair, forward in (((source.id, target_id), True), ((target_id, source.id), False)):
        if pair in _TRANSFORMS:
            kind, coefficient, target_q = _TRANSFORMS[pair]
            q = float(source.params["q"])
            return kind, coefficient(q if forward else target_q(q)), target_q(q), forward
    raise UnsupportedPair(f"no transform registered for {source.id!r} -> {target_id!r}")


def transform_between(source: EntropySpec, target_id: str, value: float) -> float:
    """Map a value of ``source`` to the matched ``target_id`` functional.

    Supported pairs (each direction): renyi <-> tsallis,
    tsallis <-> havrda_charvat, tsallis <-> mathai_Mq (order index maps to
    2 - q), mathai_Mq <-> mathai_Mq_star.  Every transform is strictly
    increasing on its domain and fixes 0.
    """
    return _transform_map(source, target_id)(_number("value", value))


def _transform_map(source: EntropySpec, target_id: str) -> Callable[[float], float]:
    """A registered pair's transform as a map (see :func:`_map`)."""
    kind, c, _, forward = _transform(source, target_id)
    return _map(partial(_TRANSFORM_FORMS[kind][not forward], c=c), f"the {kind} transform")


def matched_transform_target(source: EntropySpec, target_id: str) -> EntropySpec:
    """Build the target spec whose parameters match ``source`` for a transform."""
    return EntropySpec(target_id, q=_transform(source, target_id)[2])


# ---------------------------------------------------------------------------
# Shipped parameter samples for campaigns
# ---------------------------------------------------------------------------

_UNSTABLE_SAMPLES: tuple[tuple[str, dict], ...] = (
    # literal double-sum form; excluded from default campaigns
    ("group_entropy", {"l": -1, "m": 0, "coeffs": (-1.0, 1.0), "sigma": 0.5}),
)


def default_campaign_specs(include_unstable: bool = False) -> list[EntropySpec]:
    """The shipped campaign set: three parameter samples per parametric id.

    ``counterexample_HE`` is never part of it (it violates aggregation
    monotonicity by design and has its own dedicated suite), nor is
    ``h_phi_custom`` (no canonical parameters).  ``group_entropy`` joins
    only on request.  Each call returns a new list of specs built once per process.
    """
    return list(_campaign_specs(bool(include_unstable)))


@cache
def _campaign_specs(include_unstable: bool) -> tuple[EntropySpec, ...]:
    samples = [(spec_id, p) for spec_id, row in _FAMILIES.items() for p in row.samples]
    samples += _UNSTABLE_SAMPLES if include_unstable else ()
    return tuple(EntropySpec(spec_id, params) for spec_id, params in samples)
