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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import math

import numpy as np

from .catalog import EntropySpec, evaluate, outer_map_prime, phi_prime
from .distributions import (
    FiniteDistribution,
    JointDistribution,
    _dirichlet_interior,
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

def _slope_budget(spec: EntropySpec, a: float, b: float, inner_sum: float) -> float:
    """A per-case Lipschitz allowance for the continuity probe.

    Mass is transferred between entries valued ``a`` and ``b``; the response
    is first-order bounded by the component slopes there times the outer-map
    slope, with a x50 allowance for curvature and rounding.
    """
    try:
        slope = abs(phi_prime(spec, a)) + abs(phi_prime(spec, b))
    except NoDerivative:
        slope = 0.0
    outer = abs(outer_map_prime(spec, inner_sum)) if spec.functional.h else 1.0
    return 50.0 * (1.0 + slope * max(outer, 1.0))


def check_basic_axioms(
    spec: EntropySpec, samples: int = 1000, rng_seed: int = 0
) -> list[AxiomResidual]:
    """Probe positivity, expandability, symmetry and continuity by sampling.

    Never raises for in-domain specs: per-case evaluation errors (e.g. the
    dimension bound of ``s_delta``) simply reduce the case count.
    """
    rng = np.random.default_rng(rng_seed)
    f = spec.functional
    floor = 0.0 if f.zero_safe else 1e-6

    neg: list[tuple[float, dict]] = [(0.0, {})]
    sym: list[tuple[float, dict]] = [(0.0, {})]
    exp_: list[tuple[float, dict]] = [(0.0, {})]
    cont: list[tuple[float, float, dict]] = [(0.0, 1.0, {})]
    counts = {"positivity": 0, "symmetry": 0, "expandability": 0, "continuity": 0}

    for index in range(samples):
        n = 2 + index % 5
        p = _dirichlet_interior(n, rng, floor)
        dist = FiniteDistribution(p)
        try:
            value = evaluate(spec, dist)
        except Exception:
            continue

        counts["positivity"] += 1
        if -value > neg[-1][0]:
            neg.append((-value, {"probs": p.tolist(), "value": value}))

        perm = rng.permutation(n)
        permuted = evaluate(spec, FiniteDistribution(p[perm]))
        counts["symmetry"] += 1
        gap = abs(value - permuted)
        if gap > sym[-1][0]:
            sym.append((gap, {"probs": p.tolist(), "permutation": perm.tolist()}))

        if f.zero_safe:
            position = int(rng.integers(0, n + 1))
            padded = np.insert(p, position, 0.0)
            try:
                expanded = evaluate(spec, FiniteDistribution(padded))
            except Exception:
                expanded = None
            if expanded is not None:
                counts["expandability"] += 1
                gap = abs(value - expanded)
                if gap > exp_[-1][0]:
                    exp_.append((gap, {"probs": p.tolist(), "position": position}))

        order = np.argsort(p)
        hi, lo = int(order[-1]), int(order[-2])
        shifted = p.copy()
        shifted[hi] -= _CONTINUITY_EPS
        shifted[lo] += _CONTINUITY_EPS
        try:
            moved = evaluate(spec, FiniteDistribution(shifted))
        except Exception:
            continue
        counts["continuity"] += 1
        rate = abs(moved - value) / _CONTINUITY_EPS
        inner = float(np.sum(f.phi(p)))
        budget = _slope_budget(spec, float(p[hi]), float(p[lo]), inner)
        if rate / budget > cont[-1][0] / cont[-1][1]:
            cont.append((rate, budget, {"probs": p.tolist(), "rate": rate}))

    def residual(axiom: str, stack, budget=None) -> AxiomResidual:
        value, case = stack[-1][0], stack[-1][-1]
        return AxiomResidual(
            axiom_id=axiom,
            max_abs_residual=value,
            cases_run=max(counts[axiom], 1),
            worst_case=case or None,
            budget=budget,
            expected_conforming=expected_conforming(spec, axiom),
        )

    continuity = AxiomResidual(
        axiom_id="continuity",
        max_abs_residual=cont[-1][0],
        cases_run=max(counts["continuity"], 1),
        worst_case=cont[-1][2] or None,
        budget=cont[-1][1],
        expected_conforming=True,
    )
    results = [residual("positivity", neg)]
    if f.zero_safe:
        results.append(residual("expandability", exp_))
    results.extend([residual("symmetry", sym), continuity])
    return results


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
