"""Numerical certificates for merge-monotone structure.

Three grid-based checks certify (never prove) that a functional's per-state
component has the shape that makes state aggregation entropy-decreasing:

* :func:`check_slope_condition` - the component derivative never increases
  when the argument grows by a merge: phi'(x) >= phi'(x + p) on
  0 < x <= 0.5, 0 <= p <= 1 - x, together with phi(0) = 0.
* :func:`check_concavity` - the stronger sufficient condition phi'' <= 0.
* :func:`check_outer_map_pairing` - for wrapped forms h(sum phi), a
  consistent sign pattern: h' > 0 with phi'' < 0, or h' < 0 with phi'' > 0.

A grid certificate can in principle miss a violation between grid points;
densities are configurable and every certificate records its grid so a run
can be replayed byte-for-byte.

:func:`check_transform_consistency` samples instead: it checks that a
registered value transform maps one functional's values onto another's
and preserves their order.  It runs on the evaluation kernel of the campaign
engine, ``verify._VectorValues``, one kernel per functional over the same
draws, and raises what a walk over the samples in order meets first.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import math

import numpy as np

from .catalog import EntropySpec, _map_array, _map_points, _transform_map
from .catalog import matched_transform_target, phi_component
from .distributions import _dirichlet_rows, _freeze
from .errors import UnsupportedPair, _integer, _json_text
from .axioms import _SAMPLE_LIMIT, _kept
from .verify import _VectorValues, _kernel_plan

SLOPE_TOLERANCE = 1e-9
ZERO_TOLERANCE = 1e-12
CONCAVITY_RTOL = 1e-7
_BREAKPOINT_HALO = 1e-4
_FD_STEP = 1e-6
_GRID_LIMIT = 2000  # the densest grid a certificate takes: 4 million slope grid points


@dataclass(frozen=True)
class Witness:
    """A grid point exhibiting the worst violation found."""

    x: float
    p: float
    slope_at_x: float
    slope_at_x_plus_p: float


@dataclass(frozen=True)
class GridCertificate:
    """Outcome of one grid certification run."""

    spec: EntropySpec
    check: str
    grid_points: int
    max_violation: float
    witness: Witness | None
    passed: bool
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready form; a non-finite number (phi(0) undefined) is None."""
        return {
            "spec": self.spec.label(),
            "check": self.check,
            "grid_points": self.grid_points,
            "max_violation": _finite_or_none(self.max_violation),
            "witness": None
            if self.witness is None
            else {k: _finite_or_none(v) for k, v in asdict(self.witness).items()},
            "passed": self.passed,
            "detail": {key: _finite_or_none(v) for key, v in self.detail.items()},
        }

    def to_json(self) -> str:
        return _json_text(self.to_dict(), 2)


def _finite_or_none(value):
    if isinstance(value, list):  # a detail's range
        return list(map(_finite_or_none, value))
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _slope_function(spec: EntropySpec):
    """Vectorized phi'; closed form when available, else central differences."""
    f = spec.functional
    if f.phi_prime is not None:
        return f.phi_prime

    def fd(t: np.ndarray) -> np.ndarray:
        h = _FD_STEP * np.maximum(t, 1e-3)
        return (f.phi(t + h) - f.phi(t - h)) / (2.0 * h)

    return fd


def _component_zero_report(spec: EntropySpec) -> tuple[bool, float]:
    """Check phi(0) = 0."""
    try:
        value = phi_component(spec, 0.0)
    except Exception:
        return False, math.inf
    return abs(value) <= ZERO_TOLERANCE, abs(value)


def _slope_grid(g: int, breakpoints: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """The base points x left, how many points each keeps, and every kept x + p, where each x
    in (0, 0.5] meets p = (1 - x) k / g for k = 0..g, points near a breakpoint dropped."""
    base_arr = np.repeat(0.5 * np.arange(1, g + 1) / g, g + 1)
    shift_arr = base_arr + (1.0 - base_arr) * np.tile(np.arange(0, g + 1), g) / g
    keep = np.ones(base_arr.size, dtype=bool)
    for b in breakpoints:
        keep &= np.abs(base_arr - b) > _BREAKPOINT_HALO
        keep &= np.abs(shift_arr - b) > _BREAKPOINT_HALO
    counts = keep.reshape(g, g + 1).sum(axis=1)
    return base_arr[:: g + 1][counts > 0], counts[counts > 0], np.minimum(shift_arr[keep], 1.0)


@np.errstate(all="ignore")  # a grid point out of the float range is judged, not warned about
def check_slope_condition(spec: EntropySpec, grid_density: int = 200) -> GridCertificate:
    """Certify phi'(x) >= phi'(x+p) over the merge triangle, plus phi(0) = 0.

    The reported ``max_violation`` is the largest phi'(x+p) - phi'(x) seen on
    the grid (positive values are violations); a failed certificate carries
    the witnessing point and both slopes.  phi' runs once per base point x of
    ``_slope_grid`` (kept per density and breakpoints), repeated over its points.
    """
    g = _integer("grid_density", grid_density, minimum=10, maximum=_GRID_LIMIT)
    base, counts, shift_arr = _kept(_slope_grid, g, spec.functional.breakpoints)

    slope = _slope_function(spec)
    gaps = slope(shift_arr) - np.repeat(slope(base), counts)
    gaps = np.where(np.isnan(gaps), np.inf, gaps)  # not a number: no evidence, so worst
    worst = int(np.argmax(gaps))
    max_gap = float(gaps[worst])

    zero_ok, zero_dev = _component_zero_report(spec)
    passed = max_gap <= SLOPE_TOLERANCE and zero_ok
    witness = None
    if not passed:
        if max_gap > SLOPE_TOLERANCE:
            x = float(base[np.searchsorted(np.cumsum(counts), worst, side="right")])
            xp = float(shift_arr[worst])
            at_x, at_xp = slope(np.array([x, xp])).tolist()
            witness = Witness(x=x, p=xp - x, slope_at_x=at_x, slope_at_x_plus_p=at_xp)
        else:
            witness = Witness(x=0.0, p=0.0, slope_at_x=zero_dev, slope_at_x_plus_p=0.0)
    return GridCertificate(
        spec=spec,
        check="slope_condition",
        grid_points=int(shift_arr.size),
        max_violation=max(max_gap, 0.0 if zero_ok else zero_dev),
        witness=witness,
        passed=passed,
        detail={
            "grid_density": g,
            "tolerance": SLOPE_TOLERANCE,
            "component_zero_ok": zero_ok,
            "component_zero_deviation": zero_dev,
        },
    )


@np.errstate(all="ignore")
def check_concavity(spec: EntropySpec, grid_density: int = 200) -> GridCertificate:
    """Certify phi'' <= 0 by second differences on a uniform grid of (0, 1).

    Passing this implies passing :func:`check_slope_condition`; the converse
    does not hold (the slope condition only constrains increments).
    Stencils are allowed to straddle breakpoints of piecewise components:
    an upward slope jump is precisely what a positive second difference
    detects.
    """
    f = spec.functional
    g = _integer("grid_density", grid_density, minimum=10, maximum=_GRID_LIMIT)
    h = 1.0 / (g + 1)
    ts = h * np.arange(0, g + 2)
    values = np.empty(ts.size)
    start = 0
    if f.phi_at_zero is None:
        try:
            values[0] = float(f.phi(np.array([0.0]))[0])
        except Exception:
            start = 1  # component undefined at 0; check the interior only
    else:
        values[0] = f.phi_at_zero
    values[1:] = f.phi(ts[1:])

    second = values[start:-2] + values[start + 2 :] - 2.0 * values[start + 1 : -1]
    second = np.where(np.isfinite(second), second, np.inf)  # not finite: no evidence, so worst
    scale = max(1.0, float(np.max(np.abs(values[start:]))))
    worst = int(np.argmax(second))
    max_second = float(second[worst])
    passed = max_second < math.inf and max_second <= CONCAVITY_RTOL * scale
    witness = None
    if not passed:
        x = float(ts[start + 1 + worst])
        witness = Witness(
            x=x, p=h, slope_at_x=max_second, slope_at_x_plus_p=CONCAVITY_RTOL * scale
        )
    return GridCertificate(
        spec=spec,
        check="concavity",
        grid_points=int(second.size),
        max_violation=max_second,
        witness=witness,
        passed=passed,
        detail={"grid_density": g, "step": h, "scale": scale},
    )


_BRACKET = _freeze(np.concatenate([  # the uniform, then 1e-6 off state 0, on n = 2..12
    p for n in range(2, 13) for p in (np.full(n, 1 / n), [1 - (n - 1) * 1e-6] + [1e-6] * (n - 1))
]))
_BRACKET_CUTS = np.cumsum(np.repeat(np.arange(2, 13), 2))[:-1]


def _component_sum_bracket(spec: EntropySpec) -> tuple[float, float]:
    """Bracket the reachable range of sum_i phi(p_i) over n = 2..12.

    Uses the uniform and a near-degenerate distribution at each dimension;
    for the wrapped forms in the catalog the sum is monotone between those
    extremes.  phi runs once on all 22; ``np.sum`` adds each one's slice.
    """
    sums = [float(np.sum(part)) for part in np.split(spec.functional.phi(_BRACKET), _BRACKET_CUTS)]
    return min(sums), max(sums)


@np.errstate(all="ignore")
def check_outer_map_pairing(spec: EntropySpec, grid_density: int = 200) -> GridCertificate:
    """Certify a consistent (h', phi'') sign pattern for wrapped sum forms.

    Samples h' over the reachable range of the inner sum and phi'' (by second
    differences) over (0, 1); passes when either h' > 0 with phi'' < 0
    everywhere sampled, or h' < 0 with phi'' > 0 everywhere sampled.  A
    functional without an explicit outer map is treated as wrapped in the
    identity (h' = 1), so the check degenerates to a concavity test there.
    """
    f = spec.functional
    g = _integer("grid_density", grid_density, minimum=10, maximum=_GRID_LIMIT)
    lo, hi = _component_sum_bracket(spec)
    h_slopes, _ = _map_points(spec, "h_prime", np.linspace(lo, hi, g))  # NaN where h' refuses

    step = 1.0 / (g + 1)
    xs = step * np.arange(1, g + 1)
    inner = xs[(xs - step > 0.0) & (xs + step < 1.0)]
    second = (
        f.phi(inner - step) + f.phi(inner + step) - 2.0 * f.phi(inner)
    ) / step**2

    tol = 1e-12
    pattern_up = bool(np.all(h_slopes > 0.0) and np.all(second < tol))
    pattern_down = bool(np.all(h_slopes < 0.0) and np.all(second > -tol))
    passed = pattern_up or pattern_down
    witness = None
    max_violation = 0.0
    if not passed:
        # report the least sign-consistent pair of samples
        idx_h = int(np.argmin(np.abs(h_slopes)))
        idx_p = int(np.argmax(second))
        witness = Witness(
            x=float(inner[idx_p]),
            p=0.0,
            slope_at_x=float(second[idx_p]),
            slope_at_x_plus_p=float(h_slopes[idx_h]),
        )
        max_violation = float(max(np.max(second), 0.0))
    return GridCertificate(
        spec=spec,
        check="outer_map_pairing",
        grid_points=int(h_slopes.size + second.size),
        max_violation=max_violation,
        witness=witness,
        passed=passed,
        detail={
            "grid_density": g,
            "sum_range": [lo, hi],
            "pattern": "h_increasing_phi_concave"
            if pattern_up
            else ("h_decreasing_phi_convex" if pattern_down else "inconsistent"),
        },
    )


@dataclass(frozen=True)
class TransformConsistencyReport:
    """Outcome of the ordering-consistency check for a transform pair."""

    source: EntropySpec
    target: EntropySpec
    samples: int
    increasing_ok: bool
    ordering_ok: bool
    compared_pairs: int
    max_transform_residual: float
    passed: bool

    def to_dict(self) -> dict:
        labels = {"source": self.source.label(), "target": self.target.label()}
        return {**{item.name: getattr(self, item.name) for item in fields(self)}, **labels}


def check_transform_consistency(
    source: EntropySpec,
    target: EntropySpec,
    samples: int = 1000,
    rng_seed: int = 0,
) -> TransformConsistencyReport:
    """Verify a registered transform is increasing and order-preserving.

    Checks, over sampled distribution pairs: (a) the transform applied to the
    source value reproduces the target value; (b) the transform is strictly
    increasing across the sampled value range; (c) whichever of two
    distributions the source ranks higher, the target ranks higher too
    (differences below 1e-8 are not compared).
    """
    expected_target = matched_transform_target(source, target.id)
    if expected_target != target:
        raise UnsupportedPair(
            f"target parameters {target.label()} do not match the transform of "
            f"{source.label()} (expected {expected_target.label()})"
        )
    samples = _integer("samples", samples, minimum=1, maximum=_SAMPLE_LIMIT)
    rng = np.random.default_rng(_integer("rng_seed", rng_seed))
    widths = np.repeat(3 + np.arange(samples) % 6, 2)  # sample i: p then q, on 3 + i % 6 states
    draws = _dirichlet_rows(rng, widths, 1e-9)
    kernels = [_VectorValues([spec], draws, _kernel_plan(widths)) for spec in (source, target)]
    failures = [kernel.first_failure(strict=True) for kernel in kernels]
    # the walk stops at the first failing sample, its source before its target
    stop, failing = min(((v // 2, k) for k, v in enumerate(failures) if v is not None),
                        default=(samples, None))
    values, targets = (kernel.numbers[: 2 * stop] for kernel in kernels)
    mapped, refused = _map_array(_transform_map(source, target.id), values)
    if refused:  # the walk meets it before the kernels' first failure
        raise next(iter(refused.values()))
    if failing is not None:
        kernels[failing].raise_failure(failures[failing])

    (sp, sq), (tp, tq) = values.reshape(-1, 2).T, targets.reshape(-1, 2).T
    order = np.argsort(values, kind="stable")
    with np.errstate(all="ignore"):  # float64 arithmetic as Python's floats: no warnings
        max_residual = float(np.fmax.reduce(np.abs(mapped - targets), initial=0.0))
        compared = np.abs(sp - sq) > 1e-8
        ordering_ok = not np.any(compared & ((sp - sq) * (tp - tq) <= 0.0))
        rising = np.diff(values[order]) > 1e-12
        increasing_ok = not np.any(rising & ~(np.diff(mapped[order]) > 0.0))

    passed = increasing_ok and ordering_ok and max_residual <= 1e-10
    return TransformConsistencyReport(
        source=source,
        target=target,
        samples=samples,
        increasing_ok=increasing_ok,
        ordering_ok=ordering_ok,
        compared_pairs=int(np.count_nonzero(compared)),
        max_transform_residual=max_residual,
        passed=passed,
    )
