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

import numpy as np

from .errors import DimensionMismatch, ValidationError, ZeroUnsupported
from .errors import _holds_bool, _integer, _json_text, _json_value, _number

SUM_TOLERANCE = 1e-9


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _checked_array(values, name: str, ndim: int, unit_sum: bool) -> np.ndarray:
    """``values`` as a new nonempty ``ndim``-d float array, finite and >= 0.

    Bool, str and bytes entries are refused, not taken as numbers: an array by
    its dtype, a list or tuple by its elements.  With ``unit_sum`` the entries
    must also sum to 1 within ``SUM_TOLERANCE``.
    """
    try:
        raw = np.asarray(values)
        if raw.dtype.kind == "b" or _holds_bool(values) or raw.dtype.kind in "OSU" and any(
            isinstance(x, (str, bytes, bool, np.bool_)) for x in raw.flat
        ):
            raise TypeError("got a bool, str or bytes entry")
        arr = raw.astype(float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be numbers: {exc}") from exc
    if arr.ndim != ndim or arr.size == 0:
        raise ValidationError(f"{name} must be a nonempty {ndim}-d array")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite")
    if np.any(arr < 0.0):
        raise ValidationError(f"{name} must be >= 0: min entry {arr.min()}")
    if unit_sum and abs(float(arr.sum()) - 1.0) > SUM_TOLERANCE:
        raise ValidationError(f"{name} sum to {float(arr.sum())!r}, not 1")
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
        self._probs = _freeze(_checked_array(probs, "probs", 1, unit_sum=True))

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
        return _json_text({"probs": self._probs.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "FiniteDistribution":
        data = _json_value(text, "distribution")
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
        self._cells = _freeze(_checked_array(cells, "cells", 2, unit_sum=True))

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
    arr = _checked_array(list(weights), "weights", 1, unit_sum=False)
    with np.errstate(over="ignore"):  # finite weights whose sum overflows are scaled
        arr = arr if np.isfinite(arr.sum()) else arr / arr.max()
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
    n, i, j = dist.n, _integer("i", i), _integer("j", j)
    if not (i < n and j < n):
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
    if not (_number("alpha", alpha) >= 0.0):
        raise ValidationError(f"escort exponent must be >= 0, got {alpha!r}")
    p = dist.probs
    if alpha == 0.0 and np.any(p == 0.0):
        raise ZeroUnsupported("escort with alpha=0 requires all entries > 0")
    powered = np.power(p, alpha)
    if not powered.sum() > 0.0:  # every power underflows
        powered = np.power(p / p.max(), alpha)
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


def _dirichlet_rows(rng: np.random.Generator, widths: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """``_dirichlet_interior(n, rng, floor)`` for each n of ``widths`` in turn, end to end, bit for
    bit (``dirichlet`` scales n exponentials by 1 / their sum in order).  At the first row at or
    below the floor, ``rng`` goes back, redraws the rows before it, then that row alone."""
    widths, out = np.asarray(widths, dtype=np.intp), [np.empty(0)]
    while widths.size:
        state, starts = rng.bit_generator.state, np.cumsum(widths) - widths
        e, acc = rng.standard_exponential(int(widths.sum())), np.zeros(widths.size)
        for j in range(int(widths.max())):  # term by term: np.sum pairs its terms from 8 on
            acc += np.where(j < widths, e[np.minimum(starts + j, e.size - 1)], 0.0)
        e *= np.repeat(1.0 / acc, widths)
        if not (low := np.flatnonzero(np.minimum.reduceat(e, starts) <= floor)).size:
            return np.concatenate(out + [e])
        rng.bit_generator.state = state
        rng.standard_exponential(int(starts[low[0]]))
        out += [e[: starts[low[0]]], _dirichlet_interior(int(widths[low[0]]), rng, floor)]
        widths = widths[low[0] + 1 :]
    return np.concatenate(out)


def _hasher(const: int, multiplier: int):
    """O'Neill's ``hashmix`` on uint32 columns; each call advances the hash constant."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value, const = value ^ const, const * multiplier & 0xFFFFFFFF
        value = value * const
        return value ^ value >> 16
    return hashmix


def _pcg64_states(entropies: Sequence[Sequence[int]]) -> list[dict]:
    """The ``state`` of ``PCG64(SeedSequence(entropy))`` per entropy, numpy's algorithm bit for
    bit: ``SeedSequence``'s pool hashing and ``generate_state(4, np.uint64)`` as uint32 columns
    over all entropies (one word count past four, else numpy refuses the ragged array), then
    PCG64's ``srandom`` step in 128-bit ints."""
    if not entropies:
        return []
    words = [[v >> k & 0xFFFFFFFF for v in e for k in range(0, max(v.bit_length(), 1), 32)]
             for e in entropies]
    entropy = np.array([w + [0] * (4 - len(w)) for w in words], np.uint32).T
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    def mix(x: np.ndarray, word: np.ndarray) -> np.ndarray:  # O'Neill's mix of x and hashmix(word)
        value = 0xCA01F9DD * x - 0x4973F715 * hashmix(word)
        return value ^ value >> 16
    pool = list(map(hashmix, entropy[:4]))
    for s in range(4):  # each pool word into the others, then each word past four
        pool = [p if d == s else mix(p, pool[s]) for d, p in enumerate(pool)]
    for word in entropy[4:]:
        pool = [mix(p, word) for p in pool]
    generate, out = _hasher(0x8B51F9DD, 0x58F38DED), []
    seeds = np.stack([generate(pool[i % 4]) for i in range(8)], axis=1).astype("<u4")
    for a, b, c, d in seeds.view("<u8").tolist():
        inc = ((c << 64 | d) << 1 | 1) % 2**128
        state = ((inc + (a << 64 | b)) * 0x2360ED051FC65DA44385DF649FCCF645 + inc) % 2**128
        out.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0})
    return out


def sample_dirichlet_uniform(n: int, rng_seed: int) -> FiniteDistribution:
    """Sample uniformly from the interior of the n-simplex (flat Dirichlet).

    Deterministic for a given seed; all entries strictly positive.
    """
    n, rng = _integer("n", n, minimum=1), np.random.default_rng(_integer("rng_seed", rng_seed))
    return FiniteDistribution(_dirichlet_interior(n, rng) if n > 1 else [1.0])
