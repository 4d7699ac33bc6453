"""Residual checkers for the structural axioms of entropy functionals.

Each residual is the signed difference between the two sides of an identity;
a functional "satisfies" the axiom when the residual vanishes (to rounding)
on every admissible input.  Checkers *report*, they do not judge: a nonzero
residual for a functional that never claimed the axiom is expected, and the
built-in conformance table (:func:`expected_conforming`) lets campaigns
separate those from genuine regressions.

Axiom identifiers used throughout:

* ``positivity``, ``expandability``, ``symmetry``, ``continuity`` - the
  basic requirements probed by :func:`check_basic_axioms`.
* ``recursivity`` - merging the first two states costs the weighted
  entropy of their internal split.
* ``strong_additivity`` - joint entropy = marginal + expected row
  conditional entropy (rows of the joint matrix).
* ``split_recursivity`` - splitting the last state by an independent
  distribution adds its weighted entropy.
* ``product_additivity`` / ``product_pseudo_additivity`` - composition on
  independent products, H(P x Q) = H(P) + H(Q) + gamma H(P) H(Q).
* ``escort_composability`` - the general conditional composition with
  escort weights and a caller-supplied invertible aggregation map f.
  Only f = identity presets ship; the composition map of specific
  axiomatizations is never guessed.

The sampled probes (:func:`check_basic_axioms` and
:func:`check_product_composability`) run on the evaluation kernel of the
campaign engine, ``verify._VectorValues``.  A draw phase draws every
sample's randomness in batches and builds every vector the probe needs;
one kernel call evaluates them all, and a reduction walks the samples in
order.  The results, and any exception raised, are those of calling
``FiniteDistribution`` and ``evaluate`` sample by sample on the same
draws; the reference loops in ``tests/test_axioms.py`` pin this.  The
basic-axiom draws come from three child streams of the seed (bases,
permutations, padding positions), so what the kernel makes of one sample
never moves another's draws.  The product probe keeps its single stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import math

import numpy as np

from .catalog import EntropySpec, evaluate, outer_map_prime, phi_prime
from .distributions import (
    FiniteDistribution,
    JointDistribution,
    _dirichlet_interior,
    _flat_dirichlet,
    escort,
)
from .errors import (
    BadInverse,
    DimensionMismatch,
    NoDerivative,
    TooSmall,
    ValidationError,
    ZeroUnsupported,
)
from .verify import _INTERIOR_FLOOR, _Vector, _VectorValues

_CONTINUITY_EPS = 1e-8


@dataclass(frozen=True)
class AxiomResidual:
    """Worst-case residual of one axiom over a batch of sampled cases."""

    axiom_id: str
    max_abs_residual: float
    cases_run: int
    worst_case: dict | None
    budget: float | None = None
    expected_conforming: bool | None = None

    def to_dict(self) -> dict:
        return {
            "axiom_id": self.axiom_id,
            "max_abs_residual": self.max_abs_residual,
            "cases_run": self.cases_run,
            "worst_case": self.worst_case,
            "budget": self.budget,
            "expected_conforming": self.expected_conforming,
        }


# ---------------------------------------------------------------------------
# Conformance expectations
# ---------------------------------------------------------------------------

_STRUCTURAL_CONFORMANCE: dict[str, frozenset[str]] = {
    "shannon": frozenset(
        {"recursivity", "strong_additivity", "split_recursivity", "product_additivity"}
    ),
    "renyi": frozenset({"product_additivity"}),
    "tsallis": frozenset({"product_pseudo_additivity", "escort_composability"}),
    "havrda_charvat": frozenset({"product_pseudo_additivity"}),
    "mathai_Mq": frozenset({"product_pseudo_additivity"}),
}


def expected_conforming(spec: EntropySpec, axiom_id: str) -> bool:
    """Whether a zero residual is expected for this functional and axiom."""
    if axiom_id in ("positivity", "symmetry", "continuity"):
        return True
    if axiom_id == "expandability":
        return spec.functional.zero_safe
    return axiom_id in _STRUCTURAL_CONFORMANCE.get(spec.id, frozenset())


# gamma of H(P x Q) = H(P) + H(Q) + gamma H(P) H(Q), from the parameters.
_PSEUDO_ADDITIVITY_GAMMA: dict[str, Callable[[dict], float]] = {
    "shannon": lambda p: 0.0,
    "renyi": lambda p: 0.0,
    "tsallis": lambda p: 1.0 - float(p["q"]),
    "havrda_charvat": lambda p: math.pow(2.0, 1.0 - float(p["q"])) - 1.0,
    # the order reindexing q -> 2 - q turns 1 - q into q - 1
    "mathai_Mq": lambda p: float(p["q"]) - 1.0,
}


def pseudo_additivity_gamma(spec: EntropySpec) -> float | None:
    """The composition constant gamma making products compose, if known.

    Additive functionals return 0; functionals with no known product
    composition rule return None.
    """
    rule = _PSEUDO_ADDITIVITY_GAMMA.get(spec.id)
    return None if rule is None else rule(spec.params)


# ---------------------------------------------------------------------------
# Basic axioms (positivity, expandability, symmetry, continuity)
# ---------------------------------------------------------------------------

def _slope_budget(
    spec: EntropySpec, a: float, b: float, inner_sum: float, slope: float | None = None
) -> float:
    """A per-case Lipschitz allowance for the continuity probe.

    Mass is transferred between entries valued ``a`` and ``b``; the response
    is first-order bounded by the component slopes there times the outer-map
    slope, with a x50 allowance for curvature and rounding.  ``slope``, when
    given, is ``|phi'(a)| + |phi'(b)|``, already computed.
    """
    if slope is None:
        try:
            slope = abs(phi_prime(spec, a)) + abs(phi_prime(spec, b))
        except NoDerivative:
            slope = 0.0
    outer = abs(outer_map_prime(spec, inner_sum)) if spec.functional.h else 1.0
    return 50.0 * (1.0 + slope * max(outer, 1.0))


def _slopes(spec: EntropySpec, points: list[tuple[float, float]]) -> list[float | None]:
    """``|phi'(a)| + |phi'(b)|`` for every point pair, from one ``phi'`` call.

    None marks a pair where :func:`phi_prime` would raise (a point outside
    (0, 1) or at a breakpoint), or every pair when the batched call fails;
    the caller then asks :func:`phi_prime` itself.
    """
    f = spec.functional
    if f.phi_prime is None:  # phi_prime raises NoDerivative: no slope term
        return [0.0] * len(points)
    x = np.array(points, dtype=float).reshape(-1, 2)
    ok = (x > 0.0) & (x < 1.0)
    for b in f.breakpoints:
        ok &= ~(np.abs(x - b) < 1e-12)
    try:
        d = np.abs(f.phi_prime(x.ravel())).reshape(-1, 2)
    except Exception:
        return [None] * len(points)
    slope = (d[:, 0] + d[:, 1]).tolist()
    return [s if good else None for s, good in zip(slope, ok.all(axis=1).tolist())]


class _Draw(NamedTuple):
    """The draws of one basic-axiom sample.

    Kernel vector ``first`` is the base; the permuted, (for zero-safe
    functionals) zero-padded and continuity-shifted vectors follow it in
    that order.
    """

    probs: np.ndarray
    first: int
    permutation: np.ndarray
    position: int
    hi: int
    lo: int


_MAX_N = 6  # sample i has n = 2 + i % 5


def _padded(p: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Each row of ``p`` with a zero inserted before column ``at`` of that row."""
    column = np.arange(p.shape[1] + 1)
    source = np.minimum(column - (column > at[:, None]), p.shape[1] - 1)
    return np.where(column == at[:, None], 0.0, np.take_along_axis(p, source, axis=1))


def _draw_basic(
    spec: EntropySpec, samples: int, rng_seed: int
) -> tuple[list[_Draw], list[_Vector]]:
    """Draw phase of :func:`check_basic_axioms`: every sample's draws and vectors.

    Three child streams of ``SeedSequence(rng_seed)`` each draw one batch
    with a row per sample: the bases (flat Dirichlet draws from the first
    n of ``_MAX_N`` uniforms), the permutations (the ranks of the first n
    of ``_MAX_N`` uniforms) and the padding positions (uniform on 0..n).
    A base whose minimum is not above the floor is redrawn, in sample
    order, from the base stream after its batch.  So no draw depends on
    any value, and every sample gets all of its vectors.
    """
    f = spec.functional
    floor = 0.0 if f.zero_safe else _INTERIOR_FLOOR
    bases, perms, pads = map(np.random.default_rng, np.random.SeedSequence(rng_seed).spawn(3))
    dims = 2 + np.arange(samples) % 5
    u, w = bases.random((samples, _MAX_N)), perms.random((samples, _MAX_N))
    positions = pads.integers(0, dims + 1)
    groups = {n: np.flatnonzero(dims == n) for n in range(2, _MAX_N + 1)}
    probs = {n: _flat_dirichlet(u[rows, :n]) for n, rows in groups.items()}
    low = [
        (rows[j], n, j)
        for n, rows in groups.items()
        for j in np.flatnonzero(probs[n].min(axis=1) <= floor)
    ]
    for _, n, j in sorted(low):  # in sample order
        probs[n][j] = _dirichlet_interior(n, bases, floor)

    stride = 4 if f.zero_safe else 3
    draws: list[_Draw] = [None] * samples
    vectors: list[_Vector] = [None] * (stride * samples)
    for n, rows in groups.items():
        p, every = probs[n], np.arange(rows.size)
        perm = np.argsort(w[rows, :n], axis=1)
        order = np.argsort(p, axis=1)
        hi, lo = order[:, -1], order[:, -2]
        shifted = p.copy()
        shifted[every, hi] -= _CONTINUITY_EPS
        shifted[every, lo] += _CONTINUITY_EPS
        kinds = [p, np.take_along_axis(p, perm, axis=1)]
        kinds += [_padded(p, positions[rows])] if f.zero_safe else []
        kinds.append(shifted)
        for j, i in enumerate(rows.tolist()):
            first = stride * i
            vectors[first : first + stride] = [_Vector(0, kind[j], None) for kind in kinds]
            draws[i] = _Draw(p[j], first, perm[j], int(positions[i]), int(hi[j]), int(lo[j]))
    return draws, vectors


def _accepted(values: _VectorValues, v: int) -> float | None:
    """Vector ``v``'s value, or None where ``evaluate`` would raise on it."""
    try:
        value = values.value(v)
    except Exception:  # a raising phi on the per-vector path
        return None
    return value if type(value) is float else None


def _exact(spec: EntropySpec, values: _VectorValues, vectors: list[_Vector], v: int) -> float:
    """Vector ``v``'s value; where the kernel holds a reason, ``evaluate`` raises it."""
    value = values.value(v)
    if type(value) is float:
        return value
    return evaluate(spec, FiniteDistribution(vectors[v].probs))


def check_basic_axioms(
    spec: EntropySpec, samples: int = 1000, rng_seed: int = 0
) -> list[AxiomResidual]:
    """Probe positivity, expandability, symmetry and continuity by sampling.

    Never raises for in-domain specs: per-case evaluation errors (e.g. the
    dimension bound of ``s_delta``) simply reduce the case count.  A
    rejected permuted vector, or a slope budget that ``phi_prime`` refuses,
    raises what ``evaluate`` or ``phi_prime`` raise.  Every sample draws
    all of its vectors (see ``_draw_basic``), and those of a sample whose
    base is rejected go unused.
    """
    f = spec.functional
    draws, vectors = _draw_basic(spec, samples, rng_seed)
    values = _VectorValues([spec], vectors)
    accepted = []
    for d in draws:
        value = _accepted(values, d.first)
        if value is not None:
            accepted.append((d, value))
    slopes = _slopes(spec, [(d.probs[d.hi], d.probs[d.lo]) for d, _ in accepted])
    neg: list[tuple[float, dict]] = [(0.0, {})]
    sym: list[tuple[float, dict]] = [(0.0, {})]
    exp_: list[tuple[float, dict]] = [(0.0, {})]
    cont: list[tuple[float, float, dict]] = [(0.0, 1.0, {})]
    counts = {"positivity": 0, "symmetry": 0, "expandability": 0, "continuity": 0}

    for (d, value), slope in zip(accepted, slopes):
        p, v = d.probs, d.first + 1
        counts["positivity"] += 1
        if -value > neg[-1][0]:
            neg.append((-value, {"probs": p.tolist(), "value": value}))

        permuted = _exact(spec, values, vectors, v)
        counts["symmetry"] += 1
        gap = abs(value - permuted)
        if gap > sym[-1][0]:
            sym.append((gap, {"probs": p.tolist(), "permutation": d.permutation.tolist()}))

        if f.zero_safe:
            v += 1
            expanded = _accepted(values, v)
            if expanded is not None:
                counts["expandability"] += 1
                gap = abs(value - expanded)
                if gap > exp_[-1][0]:
                    exp_.append((gap, {"probs": p.tolist(), "position": d.position}))

        moved = _accepted(values, v + 1)
        if moved is None:
            continue
        counts["continuity"] += 1
        rate = abs(moved - value) / _CONTINUITY_EPS
        inner = values.total(d.first)
        budget = _slope_budget(spec, float(p[d.hi]), float(p[d.lo]), inner, slope)
        if rate / budget > cont[-1][0] / cont[-1][1]:
            cont.append((rate, budget, {"probs": p.tolist(), "rate": rate}))

    def residual(axiom: str, stack, budget=None) -> AxiomResidual:
        value, case = stack[-1][0], stack[-1][-1]
        return AxiomResidual(
            axiom_id=axiom,
            max_abs_residual=value,
            cases_run=counts[axiom],
            worst_case=case or None,
            budget=budget,
            expected_conforming=expected_conforming(spec, axiom),
        )

    results = [residual("positivity", neg)]
    if f.zero_safe:
        results.append(residual("expandability", exp_))
    results.extend([residual("symmetry", sym), residual("continuity", cont, cont[-1][1])])
    return results


def check_product_composability(
    spec: EntropySpec, samples: int = 1000, rng_seed: int = 0
) -> dict | None:
    """Worst |H(P x Q) - [H(P) + H(Q) + gamma H(P) H(Q)]| over sampled pairs.

    ``max(samples // 10, 1)`` pairs of interior draws, P on 3 states and Q
    on 4, from one generator seeded with ``rng_seed``.  Returns the residual
    entry of the ``axioms`` command, or None for a functional with no known
    composition constant gamma.  An evaluation error raises.
    """
    gamma = pseudo_additivity_gamma(spec)
    if gamma is None:
        return None
    rng = np.random.default_rng(rng_seed)
    cases = max(samples // 10, 1)
    vectors: list[_Vector] = []
    for _ in range(cases):
        left = _dirichlet_interior(3, rng, _INTERIOR_FLOOR)
        right = _dirichlet_interior(4, rng, _INTERIOR_FLOOR)
        product = np.outer(left, right).ravel()
        vectors += [_Vector(0, left, None), _Vector(0, right, None), _Vector(0, product, None)]
    values = _VectorValues([spec], vectors)
    worst = 0.0
    for v in range(0, len(vectors), 3):
        hl, hr, joint = (_exact(spec, values, vectors, v + k) for k in range(3))
        worst = max(worst, abs(joint - (hl + hr + gamma * hl * hr)))
    axiom = "product_additivity" if gamma == 0.0 else "product_pseudo_additivity"
    return {
        "axiom_id": axiom,
        "gamma": gamma,
        "max_abs_residual": worst,
        "cases_run": cases,
        "expected_conforming": expected_conforming(spec, axiom),
    }


# ---------------------------------------------------------------------------
# Structural residuals
# ---------------------------------------------------------------------------

def residual_recursivity(spec: EntropySpec, dist: FiniteDistribution) -> float:
    """H(p_1..p_n) - H(p_1+p_2, p_3..p_n) - (p_1+p_2) H(p_1/(p_1+p_2), p_2/(p_1+p_2))."""
    if dist.n < 3:
        raise TooSmall(f"recursivity residual needs n >= 3, got {dist.n}")
    p = dist.probs
    head = float(p[0] + p[1])
    if head <= 0.0:
        raise ZeroUnsupported("the first two entries have zero total mass")
    merged = FiniteDistribution(np.concatenate(([head], p[2:])))
    split = FiniteDistribution([p[0] / head, p[1] / head])
    return evaluate(spec, dist) - evaluate(spec, merged) - head * evaluate(spec, split)


def residual_strong_additivity(spec: EntropySpec, joint: JointDistribution) -> float:
    """H(cells) - H(row marginals) - sum_i w_i H(row_i / w_i)."""
    cells = joint.cells
    weights = cells.sum(axis=1)
    if np.any(weights <= 0.0):
        raise ZeroUnsupported("strong additivity requires positive row marginals")
    total = evaluate(spec, joint.flattened())
    marginal = evaluate(spec, FiniteDistribution(weights))
    conditional = sum(
        float(w) * evaluate(spec, FiniteDistribution(row / w))
        for row, w in zip(cells, weights)
    )
    return total - marginal - conditional


def residual_split_recursivity(
    spec: EntropySpec,
    outer: FiniteDistribution,
    inner: FiniteDistribution,
    m: int | None = None,
) -> float:
    """Residual of splitting the last state of ``outer`` by ``inner``.

    Compares H on (p_1, .., p_{m-1}, p_m q_1, .., p_m q_L) against
    H(outer) + p_m H(inner).
    """
    if m is None:
        m = outer.n
    if m != outer.n:
        raise DimensionMismatch(f"m={m} does not match the outer dimension {outer.n}")
    p = outer.probs
    tail = float(p[-1])
    if tail <= 0.0:
        raise ZeroUnsupported("the split state must have positive mass")
    combined = FiniteDistribution(np.concatenate((p[:-1], tail * inner.probs)))
    return (
        evaluate(spec, combined)
        - evaluate(spec, outer)
        - tail * evaluate(spec, inner)
    )


def residual_product_composability(
    spec: EntropySpec,
    left: FiniteDistribution,
    right: FiniteDistribution,
    gamma: float,
) -> float:
    """H(left x right) - [H(left) + H(right) + gamma H(left) H(right)].

    On independent products every conditional equals the other marginal, so
    the general composition reduces to this for any aggregation map and any
    escort exponent.
    """
    product = FiniteDistribution(np.outer(left.probs, right.probs).ravel())
    hl = evaluate(spec, left)
    hr = evaluate(spec, right)
    return evaluate(spec, product) - (hl + hr + gamma * hl * hr)


def _identity(x: float) -> float:
    return x


def residual_escort_composability(
    spec: EntropySpec,
    joint: JointDistribution,
    alpha: float,
    gamma: float,
    f: Callable[[float], float] | None = None,
    f_inverse: Callable[[float], float] | None = None,
) -> float:
    """Residual of the general escort composition on a joint matrix.

    The conditional aggregate is f^-1( sum_k w_k f(H(column_k / c_k)) ) with
    w the alpha-escort of the column marginals c; the residual is
    H(cells) - [H(c) + aggregate + gamma H(c) aggregate].

    ``f`` and ``f_inverse`` must be supplied together; they are round-trip
    checked at the probed values (tolerance 1e-10).  Only the identity preset
    ships, because the aggregation map of any specific axiomatization is a
    modeling choice this library refuses to guess.
    """
    if (f is None) != (f_inverse is None):
        raise ValidationError("supply both f and f_inverse, or neither")
    f = f or _identity
    f_inverse = f_inverse or _identity

    cells = joint.cells
    columns = cells.sum(axis=0)
    if np.any(columns <= 0.0):
        raise ZeroUnsupported("escort composition requires positive column marginals")
    marginal = FiniteDistribution(columns)
    weights = escort(marginal, alpha).probs

    conditional_values = []
    for k in range(cells.shape[1]):
        column = FiniteDistribution(cells[:, k] / columns[k])
        value = evaluate(spec, column)
        if abs(f_inverse(f(value)) - value) > 1e-10:
            raise BadInverse(
                f"f_inverse(f(x)) deviates from x by more than 1e-10 at x={value!r}"
            )
        conditional_values.append(value)

    aggregate = f_inverse(
        float(sum(w * f(v) for w, v in zip(weights, conditional_values)))
    )
    h_marginal = evaluate(spec, marginal)
    h_joint = evaluate(spec, joint.flattened())
    return h_joint - (h_marginal + aggregate + gamma * h_marginal * aggregate)
