"""Residual checkers for the structural axioms of entropy functionals.

Each residual is the signed difference between the two sides of an identity;
a functional "satisfies" the axiom when the residual vanishes (to rounding)
on every admissible input.  Checkers *report*, they do not judge: a nonzero
residual for a functional that never claimed the axiom is expected.  Each form
record states the axioms it satisfies (``conforms``), which :func:`expected_conforming`
reads, so campaigns can separate those residuals from genuine regressions.

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
campaign engine, ``verify._VectorValues``, with the draws taken as they are.
A draw phase draws every sample's randomness in batches; in the basic probe,
vectors read each distinct mass by id.  One kernel call evaluates them all,
and numpy reduces the values column by column.  The results, and any exception
raised, are those of calling ``FiniteDistribution`` and ``evaluate`` sample
by sample on the same draws; the reference loops in ``tests/test_axioms.py``
pin this.  The kernel's failure rule (``first_failure``) picks which of its
recorded errors escapes: in the basic probe each base gates the rest of its
sample and the permuted vector is strict (a ``GentropyError`` raises too);
in the product probe every vector is.  The basic-axiom draws come from three
child streams of the seed (bases, permutations, padding positions), so what
the kernel makes of one sample never moves another's draws.  The product
probe keeps its single stream.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import threading

import numpy as np

from .catalog import EntropySpec, _map_points, evaluate
from .distributions import (
    FiniteDistribution,
    JointDistribution,
    _dirichlet_interior,
    _dirichlet_rows,
    _flat_dirichlet,
    _freeze,
    escort,
)
from .errors import (
    BadInverse,
    NoDerivative,
    TooSmall,
    ValidationError,
    ZeroUnsupported,
    _guarded,
    _integer,
    _number,
)
from .verify import _INTERIOR_FLOOR, _VectorValues, _kernel_plan, _starts

_CONTINUITY_EPS = 1e-8
_SAMPLE_LIMIT = 10**6  # the most samples the axioms probes and the transform check take
_KEPT_INPUTS: dict = {}  # (build, *key) -> (input, bytes of its arrays), by use
_KEPT_LOCK = threading.Lock()  # held to read or change the store, not to build an input
_KEPT_BYTES = 2_000_000


def _clear_kept() -> None:  # empties the store
    with _KEPT_LOCK:
        _KEPT_INPUTS.clear()


def _kept(build, *key) -> tuple:
    """``build(*key)``, read-only: a spec-free input of ``classify`` or ``axioms``, mostly this
    module's probes' (hence the store's place).  Kept per (build, key) within ``_KEPT_BYTES`` of
    arrays, least recently used dropped first; one above half of that is built per call."""
    with _KEPT_LOCK:  # a hit becomes the last used
        if (held := _KEPT_INPUTS.pop((build, *key), None)) is not None:
            _KEPT_INPUTS[(build, *key)] = held
            return held[0]
    value = build(*key)  # two threads may both build one input: equal arrays, one kept
    if (size := sum(_freeze(array).nbytes for array in _arrays(value))) <= _KEPT_BYTES // 2:
        with _KEPT_LOCK:
            _KEPT_INPUTS[(build, *key)] = value, size
            while sum(held for _, held in _KEPT_INPUTS.values()) > _KEPT_BYTES:
                del _KEPT_INPUTS[next(iter(_KEPT_INPUTS))]
    return value


def _arrays(value) -> list[np.ndarray]:  # every array in value and its nested tuples and lists
    if isinstance(value, (tuple, list)):
        return [array for item in value for array in _arrays(item)]
    return [value] if isinstance(value, np.ndarray) else []


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
        return asdict(self)


# ---------------------------------------------------------------------------
# Conformance expectations
# ---------------------------------------------------------------------------

def expected_conforming(spec: EntropySpec, axiom_id: str) -> bool:
    """Whether a zero residual is expected for this functional and axiom."""
    if axiom_id in ("positivity", "symmetry", "continuity"):
        return True
    if axiom_id == "expandability":
        return spec.functional.zero_safe
    return axiom_id in spec.functional.conforms


def pseudo_additivity_gamma(spec: EntropySpec) -> float | None:
    """The composition constant gamma making products compose, if known.

    Additive functionals return 0, pseudo-additive ones their divisor d, as phi = (x**e - x) / d
    gives H(P x Q) = H(P) + H(Q) + d H(P) H(Q); those with no known composition return None.
    """
    f = spec.functional
    if "product_additivity" in f.conforms:
        return 0.0
    return float(f.divisor) if "product_pseudo_additivity" in f.conforms else None


# ---------------------------------------------------------------------------
# Basic axioms (positivity, expandability, symmetry, continuity)
# ---------------------------------------------------------------------------

def _budgets(spec: EntropySpec, extremes: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """A per-case Lipschitz allowance for the continuity probe, for every case: the component
    slopes at the entries ``extremes[c]`` that mass moves between, times the outer-map slope at
    the component sum ``inner[c]``, with a x50 allowance for curvature and rounding.  A case
    whose first refused slope is a ``NoDerivative`` (a breakpoint) has no slope term, as for a
    functional with no phi'; the first case with another refusal raises it, slopes first."""
    f = spec.functional
    slope, refused = np.zeros(len(extremes)), {}
    if f.phi_prime is not None:  # else phi_prime raises NoDerivative: no slope term
        d, failures = _map_points(spec, "phi_prime", extremes.ravel())
        with np.errstate(over="ignore"):  # past the float range: inf, as Python's floats give
            slope = np.abs(d[0::2]) + np.abs(d[1::2])
        first = {i // 2: error for i, error in reversed(failures.items())}  # a's before b's
        refused = {c: error for c, error in first.items() if not isinstance(error, NoDerivative)}
        slope[[c for c in first if c not in refused]] = 0.0
    outer = 1.0
    if f.h and f.h_prime:
        outer, failures = _map_points(spec, "h_prime", inner)
        outer, refused = np.abs(outer), {**failures, **refused}
    if refused:
        raise refused[min(refused)]
    with np.errstate(over="ignore"):
        return 50.0 * (1.0 + slope * np.maximum(outer, 1.0))


_MAX_N = 6  # sample i has n = 2 + i % 5


def _padded(p: np.ndarray, at: np.ndarray, fill: int) -> np.ndarray:
    """Each row of ``p`` with ``fill`` inserted before column ``at`` of that row."""
    column = np.arange(p.shape[1] + 1)
    source = np.minimum(column - (column > at[:, None]), p.shape[1] - 1)
    return np.where(column == at[:, None], fill, np.take_along_axis(p, source, axis=1))


class _BasicDraws(NamedTuple):
    """The draws of every basic-axiom sample, as columns.

    ``probs`` holds each mass once: from ``starts[i]`` sample i's base and two shifted
    entries, then, for zero-safe functionals, a 0.0 all padded vectors share.  Sample
    i's vectors read them by id, their lengths in row i of ``widths``: the base, the
    permuted, (zero-safe) the zero-padded and the continuity-shifted vector.
    """

    probs: np.ndarray
    widths: np.ndarray
    starts: np.ndarray
    permutations: np.ndarray  # sample i's is the first n of row i
    positions: np.ndarray  # of the padding zero
    extremes: np.ndarray  # each base's largest and second-largest entry
    plan: tuple  # the kernel plan of every vector, by mass id

    def base(self, i: int) -> np.ndarray:
        """Sample i's base vector."""
        return self.probs[self.starts[i] : self.starts[i] + self.widths[i, 0]]


def _draw_basic(zero_safe: bool, samples: int, rng_seed: int) -> _BasicDraws:
    """Draw phase of :func:`check_basic_axioms`: every sample's draws and vectors,
    kept per (``zero_safe``, ``samples``, ``rng_seed``) by ``_kept``.

    Three child streams of ``SeedSequence(rng_seed)`` each draw one batch
    with a row per sample: the bases (flat Dirichlet draws from the first
    n of ``_MAX_N`` uniforms), the permutations (the ranks of the first n
    of ``_MAX_N`` uniforms) and the padding positions (uniform on 0..n).
    A base whose minimum is not above the floor is redrawn, in sample
    order, from the base stream after its batch.  So no draw depends on
    any value, and every sample gets all of its vectors.  The masses and
    mass ids of one n are built as matrices and laid in one scatter each.
    """
    floor = 0.0 if zero_safe else _INTERIOR_FLOOR
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

    widths = dims[:, None] + np.array([0, 0, 1, 0] if zero_safe else [0, 0, 0])
    starts, first = _starts(dims + 2), _starts(widths.sum(axis=1))  # sample i's masses, ids
    flat, ids = np.zeros(dims.sum() + 2 * samples + zero_safe), np.empty(widths.sum(), np.intp)
    permutations, extremes = np.zeros((samples, _MAX_N), dtype=np.intp), np.empty((samples, 2))
    for n, rows in groups.items():
        p, every = probs[n], np.arange(rows.size)
        permutations[rows, :n] = perm = np.argsort(w[rows, :n], axis=1)
        order = np.argsort(p, axis=1)
        hi, lo = order[:, -1], order[:, -2]
        extremes[rows, 0], extremes[rows, 1] = p[every, hi], p[every, lo]
        own = starts[rows, None] + np.arange(n + 2)  # the base's ids, then the shifted entries'
        flat[own] = np.hstack([p, extremes[rows] + [-_CONTINUITY_EPS, _CONTINUITY_EPS]])
        base, shifted = own[:, :n], own[:, :n].copy()
        shifted[every, hi], shifted[every, lo] = own[:, n], own[:, n + 1]
        kinds = [base, np.take_along_axis(base, perm, axis=1)]
        kinds += [_padded(base, positions[rows], flat.size - 1)] if zero_safe else []
        laid = np.hstack([*kinds, shifted])
        ids[first[rows, None] + np.arange(laid.shape[1])] = laid
    plan = _kernel_plan(widths.ravel(), None, ids)
    return _BasicDraws(flat, widths, starts, permutations, positions, extremes, plan)


def _worst(score: np.ndarray) -> int | None:
    """Where a strict running maximum from 0 stops: the first maximum above 0,
    or None.  NaN never wins, as ``nan > m`` is false."""
    if not score.size:
        return None
    i = int(np.argmax(np.where(score > 0.0, score, 0.0)))
    return i if score[i] > 0.0 else None


def check_basic_axioms(
    spec: EntropySpec, samples: int = 1000, rng_seed: int = 0
) -> list[AxiomResidual]:
    """Probe positivity, expandability, symmetry and continuity by sampling.

    Never raises for in-domain specs: per-case evaluation errors (e.g. the
    dimension bound of ``s_delta``) simply reduce the case count.  A
    rejected permuted vector, an error that is not a ``GentropyError``, or
    a slope budget that ``phi_prime`` refuses, raises what ``evaluate`` or
    ``phi_prime`` raise, whichever a walk over the samples in order meets
    first.  Every sample draws all of its vectors (see ``_draw_basic``),
    and those of a sample whose base is rejected go unused.
    """
    samples = _integer("samples", samples, minimum=1, maximum=_SAMPLE_LIMIT)
    draws = _kept(_draw_basic, spec.functional.zero_safe, samples, _integer("rng_seed", rng_seed))
    values = _VectorValues([spec], draws.probs, draws.plan)
    stride = draws.widths.shape[1]
    numbers = values.numbers.reshape(samples, stride)  # NaN: rejected; a float is finite
    # each base gates its sample's other vectors; a rejected permuted vector raises
    failure = values.first_failure(stride, strict=np.tile(np.arange(stride) == 1, samples))
    raising = None if failure is None else failure // stride  # the samples before it run
    accepted = np.flatnonzero(~np.isnan(numbers[:raising, 0]))
    base = numbers[accepted, 0]
    moved = accepted[~np.isnan(numbers[accepted, -1])]
    budget = _budgets(spec, draws.extremes[moved], values.totals[stride * moved])
    with np.errstate(all="ignore"):  # past the float range: inf or NaN, as Python's floats give
        rate = np.abs(numbers[moved, -1] - numbers[moved, 0]) / _CONTINUITY_EPS
        score = rate / budget
    values.raise_failure(failure)

    def residual(axiom, cases, score, case, size=None, budgets=None) -> AxiomResidual:
        w = _worst(score)
        return AxiomResidual(
            axiom_id=axiom,
            max_abs_residual=0.0 if w is None else float((score if size is None else size)[w]),
            cases_run=int(cases.size),
            worst_case=None if w is None else {
                "probs": draws.base(cases[w]).tolist(), **case(int(cases[w]), w)
            },
            budget=None if budgets is None else 1.0 if w is None else float(budgets[w]),
            expected_conforming=expected_conforming(spec, axiom),
        )

    results = [residual("positivity", accepted, -base, lambda i, w: {"value": float(base[w])})]
    if spec.functional.zero_safe:
        expanded = numbers[accepted, 2]
        padded = ~np.isnan(expanded)
        results.append(residual(
            "expandability", accepted[padded], np.abs(base[padded] - expanded[padded]),
            lambda i, w: {"position": int(draws.positions[i])},
        ))
    results.append(residual(
        "symmetry", accepted, np.abs(base - numbers[accepted, 1]),
        lambda i, w: {"permutation": draws.permutations[i, : draws.widths[i, 0]].tolist()},
    ))
    results.append(residual(
        "continuity", moved, score, lambda i, w: {"rate": float(rate[w])},
        size=rate, budgets=budget,
    ))
    return results


def _product_pairs(cases: int, rng_seed: int) -> tuple[np.ndarray, tuple]:
    """Each case's P, Q (P first, from one generator) and P x Q end to end; their plan."""
    rng = np.random.default_rng(rng_seed)
    pairs = _dirichlet_rows(rng, np.tile([3, 4], cases), _INTERIOR_FLOOR).reshape(cases, 7)
    joint = (pairs[:, :3, None] * pairs[:, None, 3:]).reshape(cases, 12)  # np.outer's products
    return np.hstack([pairs, joint]).ravel(), _kernel_plan(np.tile([3, 4, 12], cases))


def check_product_composability(
    spec: EntropySpec, samples: int = 1000, rng_seed: int = 0
) -> dict | None:
    """Worst |H(P x Q) - [H(P) + H(Q) + gamma H(P) H(Q)]| over sampled pairs.

    ``max(samples // 10, 1)`` pairs of interior draws (``_product_pairs``, kept per
    pair count and seed), P on 3 states and Q on 4.  Returns the residual entry of
    the ``axioms`` command, or None for a functional with no known composition
    constant gamma.  An evaluation error raises.
    """
    samples = _integer("samples", samples, minimum=1, maximum=_SAMPLE_LIMIT)
    rng_seed, gamma = _integer("rng_seed", rng_seed), pseudo_additivity_gamma(spec)
    if gamma is None:
        return None
    cases = max(samples // 10, 1)
    values = _VectorValues([spec], *_kept(_product_pairs, cases, rng_seed))
    values.raise_failure(values.first_failure(strict=True))
    hl, hr, joint = values.numbers.reshape(cases, 3).T
    gap = np.abs(joint - (hl + hr + gamma * hl * hr))
    w = _worst(gap)
    axiom = "product_additivity" if gamma == 0.0 else "product_pseudo_additivity"
    return {
        "axiom_id": axiom,
        "gamma": gamma,
        "max_abs_residual": 0.0 if w is None else float(gap[w]),
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
) -> float:
    """Residual of splitting the last state of ``outer`` by ``inner``.

    Compares H on (p_1, .., p_{m-1}, p_m q_1, .., p_m q_L) against
    H(outer) + p_m H(inner), where m is ``outer.n``.
    """
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
    gamma = _number("gamma", gamma)
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
    gamma = _number("gamma", gamma)
    if (f is None) != (f_inverse is None):
        raise ValidationError("supply both f and f_inverse, or neither")
    f = _identity if f is None else _guarded(f, "escort f")
    f_inverse = _identity if f_inverse is None else _guarded(f_inverse, "escort f_inverse")

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
        if not abs(f_inverse(f(value)) - value) <= 1e-10:  # a NaN round trip fails too
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
