"""Finite discrete distributions and the constructions built on them.

A :class:`FiniteDistribution` is an immutable nonnegative vector summing to
one (tolerance 1e-9).  Zeros are permitted: some functionals in the catalog
admit them (and are invariant under inserting zero-probability states),
others reject them; each functional declares its own flag.

Everything here is a pure function of its inputs.  Randomized constructors
take an explicit integer seed and derive all state from it, so concurrent
use and replay are safe by construction.

Indices are 0-based everywhere, including serialized forms.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import json

import numpy as np

from .errors import DimensionMismatch, ValidationError, ZeroUnsupported

SUM_TOLERANCE = 1e-9


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class FiniteDistribution:
    """A probability vector on the finite state space {0..n-1}.

    Parameters
    ----------
    probs : sequence of float
        Nonnegative entries with ``|sum - 1| <= 1e-9``.  No silent
        normalization happens here; use :func:`from_weights` to normalize.
    """

    __slots__ = ("_probs",)

    def __init__(self, probs: Sequence[float] | np.ndarray):
        arr = np.asarray(probs, dtype=float).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("probs must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("probs must be finite")
        if np.any(arr < 0.0):
            raise ValidationError(f"negative probability: min entry {arr.min()}")
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")
        self._probs = _freeze(arr)

    @property
    def probs(self) -> np.ndarray:
        """The (read-only) probability vector."""
        return self._probs

    @property
    def n(self) -> int:
        """Support size (number of states, zeros included)."""
        return self._probs.size

    def __len__(self) -> int:
        return self._probs.size

    def __getitem__(self, i: int) -> float:
        return float(self._probs[i])

    def __iter__(self):
        return iter(self._probs.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteDistribution):
            return NotImplemented
        return self.n == other.n and bool(np.all(self._probs == other._probs))

    __hash__ = None  # mutable-free but equality is by value; not hashable

    def __repr__(self) -> str:
        return f"FiniteDistribution({self._probs.tolist()!r})"

    # -- serialization ---------------------------------------------------
    def to_json(self) -> str:
        """Serialize as ``{"probs": [...]}`` (floats round-trip exactly)."""
        return json.dumps({"probs": self._probs.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "FiniteDistribution":
        data = json.loads(text)
        if not isinstance(data, dict) or "probs" not in data:
            raise ValidationError('distribution JSON must be {"probs": [...]}')
        return cls(data["probs"])

    def to_csv(self) -> str:
        """One probability per line, shortest exact decimal form."""
        return "\n".join(repr(p) for p in self._probs.tolist()) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "FiniteDistribution":
        rows = [line.strip() for line in text.splitlines() if line.strip()]
        try:
            values = [float(row) for row in rows]
        except ValueError as exc:
            raise ValidationError(f"bad CSV probability row: {exc}") from exc
        return cls(values)


class JointDistribution:
    """An n-by-m matrix of cell probabilities summing to one.

    Row sums always form a valid marginal distribution; column sums form the
    other marginal.  Row conditionals are used by the strong-additivity
    residual, column conditionals by the escort-composability residuals.
    """

    __slots__ = ("_cells",)

    def __init__(self, cells: Sequence[Sequence[float]] | np.ndarray):
        arr = np.asarray(cells, dtype=float).copy()
        if arr.ndim != 2 or arr.size == 0:
            raise ValidationError("cells must be a nonempty 2-d matrix")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("cells must be finite")
        if np.any(arr < 0.0):
            raise ValidationError(f"negative cell: min entry {arr.min()}")
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValidationError(f"cells sum to {total!r}, not 1")
        self._cells = _freeze(arr)

    @property
    def cells(self) -> np.ndarray:
        return self._cells

    @property
    def shape(self) -> tuple[int, int]:
        return self._cells.shape

    def flattened(self) -> FiniteDistribution:
        """All cells read off as one long distribution."""
        return FiniteDistribution(self._cells.ravel())

    def row_marginal(self) -> FiniteDistribution:
        return FiniteDistribution(self._cells.sum(axis=1))

    def column_marginal(self) -> FiniteDistribution:
        return FiniteDistribution(self._cells.sum(axis=0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, JointDistribution):
            return NotImplemented
        return self.shape == other.shape and bool(np.all(self._cells == other._cells))

    __hash__ = None

    def __repr__(self) -> str:
        return f"JointDistribution({self._cells.tolist()!r})"


def from_weights(weights: Iterable[float]) -> FiniteDistribution:
    """Normalize nonnegative weights into a distribution.

    This is the only place normalization happens implicitly; constructors
    elsewhere validate the unit sum and reject.
    """
    arr = np.asarray(list(weights), dtype=float)
    if arr.size == 0:
        raise ValidationError("weights must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("weights must be finite")
    if np.any(arr < 0.0):
        raise ValidationError(f"negative weight: min entry {arr.min()}")
    total = float(arr.sum())
    if total <= 0.0:
        raise ValidationError("weights sum to zero")
    return FiniteDistribution(arr / total)


def coarse_grain(dist: FiniteDistribution, partition) -> FiniteDistribution:
    """Aggregate states: block i of the output is the sum of ``dist`` over it.

    ``partition`` must cover {0..n-1} for ``n = dist.n``; blocks are taken in
    the partition's canonical order.
    """
    if partition.ground_size != dist.n:
        raise DimensionMismatch(
            f"partition over {partition.ground_size} states cannot aggregate "
            f"a distribution of size {dist.n}"
        )
    p = dist.probs
    sums = np.array([p[list(block)].sum() for block in partition.blocks])
    return FiniteDistribution(sums)


def merge_pair(dist: FiniteDistribution, i: int, j: int) -> FiniteDistribution:
    """Merge states i and j: drop both entries and append their sum."""
    n = dist.n
    if not (0 <= i < n and 0 <= j < n):
        raise ValidationError(f"indices ({i}, {j}) out of range for size {n}")
    if i == j:
        raise ValidationError(f"cannot merge state {i} with itself")
    p = dist.probs
    kept = np.delete(p, [i, j])
    return FiniteDistribution(np.append(kept, p[i] + p[j]))


def escort(dist: FiniteDistribution, alpha: float) -> FiniteDistribution:
    """The alpha-escort reweighting p_k^alpha / sum_i p_i^alpha.

    ``alpha = 0`` requires a strictly positive distribution (the 0**0
    convention is deliberately avoided); ``alpha = 1`` is the identity.
    """
    if not (alpha >= 0.0):
        raise ValidationError(f"escort exponent must be >= 0, got {alpha!r}")
    p = dist.probs
    if alpha == 0.0 and np.any(p == 0.0):
        raise ZeroUnsupported("escort with alpha=0 requires all entries > 0")
    powered = np.power(p, alpha)
    return FiniteDistribution(powered / powered.sum())


def joint_from_conditionals(
    marginal: FiniteDistribution,
    conditionals: Sequence[FiniteDistribution],
) -> JointDistribution:
    """Assemble the joint with cell (i, k) = conditionals[k][i] * marginal[k].

    One conditional per state of ``marginal``, all of one common dimension m;
    the result is m-by-n and its column sums reproduce ``marginal`` exactly.
    """
    if len(conditionals) != marginal.n:
        raise DimensionMismatch(
            f"need {marginal.n} conditionals, got {len(conditionals)}"
        )
    dims = {cond.n for cond in conditionals}
    if len(dims) != 1:
        raise ValidationError(f"conditionals have mixed dimensions {sorted(dims)}")
    cols = [cond.probs * pk for cond, pk in zip(conditionals, marginal.probs)]
    return JointDistribution(np.stack(cols, axis=1))


def _flat_dirichlet(u: np.ndarray) -> np.ndarray:
    """One flat Dirichlet draw per row of uniforms on [0, 1): normalised exponentials.

    A 2-d ``u`` gives, row for row, the bits that each row alone would give.
    """
    e = -np.log1p(-u)
    return e / e.sum(axis=-1, keepdims=True)


def _dirichlet_interior(n: int, rng: np.random.Generator, floor: float = 0.0) -> np.ndarray:
    """Flat Dirichlet draw, redrawn until min entry exceeds ``floor``."""
    alpha = np.ones(n)
    while True:
        p = rng.dirichlet(alpha)
        if p.min() > floor:
            return p


def sample_dirichlet_uniform(n: int, rng_seed: int) -> FiniteDistribution:
    """Sample uniformly from the interior of the n-simplex (flat Dirichlet).

    Deterministic for a given seed; all entries strictly positive.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if n == 1:
        return FiniteDistribution([1.0])
    rng = np.random.default_rng(rng_seed)
    return FiniteDistribution(_dirichlet_interior(n, rng))
