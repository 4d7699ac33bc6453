"""Set partitions of {0..n-1} and the refinement (merging) order.

A partition here is a "way of aggregating states": coarse-graining a
distribution sums its entries over each block.  Partition B is *coarser*
than A (``is_refinement(A, B)`` is true) when B can be produced by merging
blocks of A; walking down that order is exactly repeated state aggregation.

Canonical form: blocks sorted by their minimum element, elements ascending.
That makes equality, hashing, enumeration order, and serialization
deterministic.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Iterator

import json

import numpy as np

from .errors import DimensionMismatch, TooSmall, TooLarge, ValidationError, _integer

ENUMERATION_LIMIT = 12  # Bell(12) = 4_213_597; beyond this exhaustive work explodes
LATTICE_LIMIT = 8  # the exhaustive oracles' limit; the partitions up to it are kept

_Blocks = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _identity_blocks(n: int) -> _Blocks:
    """The singleton blocks of {0..n-1}."""
    return tuple((i,) for i in range(n))


class Partition:
    """An ordered set partition of the ground set {0..ground_size-1}."""

    __slots__ = ("_blocks", "_ground_size")

    def __init__(self, blocks: Iterable[Iterable[int]], ground_size: int):
        ground_size = _integer("ground_size", ground_size, minimum=1)
        try:
            cleaned = [tuple(sorted(_integer("index", x) for x in block)) for block in blocks]
        except (TypeError, ValidationError) as exc:
            raise ValidationError(f"blocks must hold integer indices: {exc}") from exc
        if any(len(block) == 0 for block in cleaned):
            raise ValidationError("blocks must be nonempty")
        cleaned.sort(key=lambda block: block[0])
        flat = [x for block in cleaned for x in block]
        if len(flat) != len(set(flat)):
            raise ValidationError("blocks must be pairwise disjoint")
        if sorted(flat) != list(range(ground_size)):
            raise ValidationError(
                f"blocks must cover exactly 0..{ground_size - 1}"
            )
        self._blocks = tuple(cleaned)
        self._ground_size = ground_size

    @classmethod
    def _raw(cls, blocks: tuple[tuple[int, ...], ...], ground_size: int) -> "Partition":
        # Fast path for internally generated, already-canonical blocks.
        self = object.__new__(cls)
        object.__setattr__(self, "_blocks", blocks)
        object.__setattr__(self, "_ground_size", ground_size)
        return self

    def __setattr__(self, name, value):  # immutability guard for __slots__ path
        if hasattr(self, "_ground_size"):
            raise AttributeError("Partition is immutable")
        object.__setattr__(self, name, value)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return self._blocks

    @property
    def ground_size(self) -> int:
        return self._ground_size

    @property
    def k(self) -> int:
        """Number of blocks."""
        return len(self._blocks)

    def is_identity(self) -> bool:
        """True when every block is a singleton (nothing aggregated)."""
        return len(self._blocks) == self._ground_size

    @classmethod
    def identity(cls, n: int) -> "Partition":
        n = _integer("n", n, minimum=1)
        return cls._raw(_identity_blocks(n), n)

    @classmethod
    def total(cls, n: int) -> "Partition":
        n = _integer("n", n, minimum=1)
        return cls._raw((tuple(range(n)),), n)

    def block_of(self) -> list[int]:
        """Map each element to the index of its block."""
        owner = [0] * self._ground_size
        for b_index, block in enumerate(self._blocks):
            for x in block:
                owner[x] = b_index
        return owner

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return (
            self._ground_size == other._ground_size
            and self._blocks == other._blocks
        )

    def __hash__(self) -> int:
        return hash((self._ground_size, self._blocks))

    def __repr__(self) -> str:
        inner = ", ".join("{" + ", ".join(map(str, b)) + "}" for b in self._blocks)
        return f"Partition[{inner}]"

    # -- serialization ---------------------------------------------------
    def to_json(self) -> str:
        """Serialize as ``{"blocks": [[..], ..]}`` in canonical order."""
        return json.dumps({"blocks": [list(b) for b in self._blocks]})

    @classmethod
    def from_json(cls, text: str, ground_size: int | None = None) -> "Partition":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad partition JSON: {exc}") from exc
        blocks = data.get("blocks") if isinstance(data, dict) else None
        if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
            raise ValidationError('partition JSON must be {"blocks": [[..], ..]}')
        if ground_size is None:
            ground_size = sum(len(b) for b in blocks)
        return cls(blocks, ground_size)


def is_refinement(finer: Partition, coarser: Partition) -> bool:
    """True when ``coarser`` can be produced by merging blocks of ``finer``.

    Equivalently: every block of ``finer`` lies inside exactly one block of
    ``coarser``.  The relation is reflexive and transitive.
    """
    if finer.ground_size != coarser.ground_size:
        raise DimensionMismatch(
            f"ground sizes differ: {finer.ground_size} vs {coarser.ground_size}"
        )
    owner = coarser.block_of()
    for block in finer.blocks:
        first = owner[block[0]]
        if any(owner[x] != first for x in block[1:]):
            return False
    return True


def quotient_partition(finer: Partition, coarser: Partition) -> Partition:
    """The partition of ``finer``'s block indices induced by ``coarser``.

    Aggregating by ``finer`` and then by the quotient equals aggregating by
    ``coarser`` directly.  Requires ``is_refinement(finer, coarser)``.
    """
    if not is_refinement(finer, coarser):
        raise ValidationError("quotient requires the first partition to refine the second")
    owner = coarser.block_of()
    groups: dict[int, list[int]] = {}
    for b_index, block in enumerate(finer.blocks):
        groups.setdefault(owner[block[0]], []).append(b_index)
    return Partition(groups.values(), finer.k)


def bell_number(n: int) -> int:
    """Number of set partitions of an n-set (Bell triangle recurrence)."""
    n = _integer("n", n)
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of {0..n-1} exactly once, in canonical order.

    The order is lexicographic in the restricted-growth encoding (element i
    gets the label of its block, labels appear in first-use order), which
    coincides with canonical block form.  Guarded at n <= 12.  For n <= 8
    (``LATTICE_LIMIT``) they are built once per process from label rows and
    kept, so every call yields the same immutable ``Partition`` objects.
    """
    n = _integer("n", n, minimum=1)
    if n > ENUMERATION_LIMIT:
        raise TooLarge(
            f"exhaustive enumeration is limited to n <= {ENUMERATION_LIMIT} "
            f"(Bell({n}) = {bell_number(n)})"
        )
    yield from _kept_partitions(n) if n <= LATTICE_LIMIT else _walk(n)


@lru_cache(maxsize=LATTICE_LIMIT)
def _label_rows(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every partition of {0..n-1} (n <= 8) in enumeration order, read-only: its label
    row (restricted growth string), block bit masks (0 past the last), uint8, and block count."""
    labels, masks, k = np.zeros((1, n), np.uint8), np.eye(1, n, dtype=np.uint8), np.ones(1, np.intp)
    for m in range(1, n):  # state m joins each block of a row in turn, then a new one
        parent = np.repeat(np.arange(k.size), k + 1)
        label = np.arange(parent.size) - np.repeat(np.cumsum(k + 1) - k - 1, k + 1)
        labels, masks, k = labels[parent], masks[parent], k[parent] + (label == k[parent])
        labels[:, m] = label
        masks[np.arange(label.size), label] += 1 << m
    labels.flags.writeable = masks.flags.writeable = k.flags.writeable = False
    return labels, masks, k


@lru_cache(maxsize=LATTICE_LIMIT)
def _kept_partitions(n: int) -> tuple[Partition, ...]:
    """The partitions of :func:`_label_rows`, made in bulk as ``verify._records`` fills records."""
    _, masks, k = _label_rows(n)
    subsets, partitions = [()], list(map(object.__new__, repeat(Partition, k.size)))
    for x in range(n):  # subset s + 2**x is subset s and x
        subsets += [subset + (x,) for subset in subsets]
    subsets = np.fromiter(subsets, object, 2**n)
    deque(map(Partition._ground_size.__set__, partitions, repeat(n)), 0)
    for width in range(1, n + 1):  # blocks zipped from mask columns, one tuple per subset
        rows = np.flatnonzero(k == width)
        blocks = zip(*subsets[masks[rows, :width].T].tolist())
        deque(map(Partition._blocks.__set__, map(partitions.__getitem__, rows.tolist()), blocks), 0)
    return tuple(partitions)


def _walk(n: int) -> Iterator[Partition]:
    """The partitions of {0..n-1} in enumeration order, built as they are reached."""
    # Depth first over RGS prefixes, one label at a time: element x joins
    # each block of its prefix in turn, then opens a new one.
    stack: list[tuple[int, _Blocks]] = [(0, ())]
    while stack:
        x, prefix = stack.pop()
        grown = [prefix[:b] + (prefix[b] + (x,),) + prefix[b + 1 :] for b in range(len(prefix))]
        grown.append(prefix + ((x,),))
        if x == n - 1:
            for blocks in grown:
                yield Partition._raw(blocks, n)
        else:
            stack += [(x + 1, blocks) for blocks in reversed(grown)]


def pair_draw_width(n: int) -> int:
    """How many uniforms the pair sampler reads for one pair at dimension n."""
    return 2 * n + 1


def _runs(order: list[int], cuts: list[int]) -> _Blocks:
    """Canonical blocks of ``order`` cut before each position in ``cuts``."""
    bounds = [0, *sorted(cuts), len(order)]
    return tuple(sorted([tuple(sorted(order[a:b])) for a, b in zip(bounds, bounds[1:])]))


def _refinement_pair_blocks(n: int, u: list[float]) -> tuple[_Blocks, _Blocks]:
    """The pair sampler: canonical blocks of (finer, coarser), unvalidated.

    ``u`` holds ``pair_draw_width(n)`` uniforms on [0, 1) at fixed offsets,
    so a pair depends on nothing else.  k_A is uniform on [3, n] (u[0]) and
    k_B uniform on [2, k_A - 1] (u[1]).  The states are put in a uniformly
    random order, ranked by u[2 : n+2], and the n - 1 gaps of that order are
    ranked by u[n+2 : 2n+1].  The finer partition cuts the order at the
    k_A - 1 first-ranked gaps, the coarser at the k_B - 1 first-ranked.

    This is the law of merging uniformly random pairs of blocks from the
    singletons down to k_A blocks, and on down to k_B (Kingman's
    coalescent).  A random order cut at k - 1 uniformly chosen gaps gives a
    partition into k blocks of sizes lambda_1..lambda_k with probability
    ``k! (k-1)! (n-k)! prod(lambda_i!) / (n! (n-1)!)``, the random-merge law.
    Given the finer partition, its blocks appear in the order in a uniformly
    random order, and the first k_B - 1 gaps are a uniform subset of its
    k_A - 1 cuts; so the coarser is the same construction applied to the
    k_A blocks, as continued merging is.
    """
    k_a = 3 + int(u[0] * (n - 2))
    k_b = 2 + int(u[1] * (k_a - 2))
    order = sorted(range(n), key=u[2 : n + 2].__getitem__)
    gaps = sorted(range(1, n), key=u[n + 1 : 2 * n + 1].__getitem__)
    finer = _identity_blocks(n) if k_a == n else _runs(order, gaps[: k_a - 1])
    return finer, _runs(order, gaps[: k_b - 1])


def _random_refinement_pair(
    n: int, rng: np.random.Generator
) -> tuple[Partition, Partition]:
    finer, coarser = _refinement_pair_blocks(n, rng.random(pair_draw_width(n)).tolist())
    return Partition(finer, n), Partition(coarser, n)


def _pair_size(n) -> int:
    """``n`` as an int, refused when too small to hold a strict refinement pair."""
    n = _integer("n", n)
    if n < 3:
        raise TooSmall(f"refinement pairs with 2 <= k_B < k_A need n >= 3, got {n}")
    return n


def random_refinement_pair(n: int, rng_seed: int) -> tuple[Partition, Partition]:
    """Sample a strict refinement pair (A, B): B coarser, 2 <= k_B < k_A <= n.

    k_A is uniform on [3, n] and k_B on [2, k_A - 1].  A is a uniformly
    random order of the states cut at k_A - 1 uniformly chosen gaps, and B
    the same construction on the blocks of A: the law of merging uniformly
    random block pairs from the singletons (see ``_refinement_pair_blocks``).
    This covers the whole order but is *not* uniform over it; exhaustive
    enumeration exists for certainty at small n.
    """
    n = _pair_size(n)
    return _random_refinement_pair(n, np.random.default_rng(_integer("rng_seed", rng_seed)))
