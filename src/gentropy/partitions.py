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
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import accumulate, chain, islice, repeat
from typing import Iterable, Iterator

import gc

import numpy as np

from .errors import DimensionMismatch, TooSmall, TooLarge, ValidationError, _integer
from .errors import _json_text, _json_value

ENUMERATION_LIMIT = 12  # Bell(12) = 4_213_597; beyond this exhaustive work explodes
LATTICE_LIMIT = 8  # the exhaustive oracles' limit; the partitions up to it are kept


def _filled(cls, count: int, shared: dict, **columns) -> list:
    """``count`` objects of the slotted dataclass ``cls``, made without ``__init__``: a field takes
    its column's values (an iterable, one per object), else its value in ``shared``, else None,
    as ``cls(...)`` would take them.  Each field is set by one ``map`` of its slot's setter, with
    the collector paused (what a build makes stays in use) and then left as it was found."""
    if not count:  # a passing report's violations: nothing to build
        return []
    enabled = gc.isenabled()
    gc.disable()
    try:
        made = list(map(object.__new__, repeat(cls, count)))
        for name in (f.name for f in fields(cls)):
            values = columns.get(name, repeat(shared.get(name)))
            deque(map(getattr(cls, name).__set__, made, values), 0)
    finally:
        if enabled:
            gc.enable()
    return made


@dataclass(frozen=True)
class Partition:
    """An ordered set partition of the ground set {0..ground_size-1}; blocks: iterables of ints."""

    __slots__ = ("blocks", "ground_size")  # not slots=True, which refuses names by TypeError
    blocks: tuple[tuple[int, ...], ...]
    ground_size: int

    def __post_init__(self):
        ground_size = _integer("ground_size", self.ground_size, minimum=1)
        try:
            cleaned = [tuple(sorted(_integer("index", x) for x in block)) for block in self.blocks]
        except (TypeError, ValidationError) as exc:
            raise ValidationError(f"blocks must hold integer indices: {exc}") from exc
        if any(len(block) == 0 for block in cleaned):
            raise ValidationError("blocks must be nonempty")
        cleaned.sort(key=lambda block: block[0])
        flat = [x for block in cleaned for x in block]
        if len(flat) != len(set(flat)):
            raise ValidationError("blocks must be pairwise disjoint")
        if sorted(flat) != list(range(ground_size)):
            raise ValidationError(f"blocks must cover exactly 0..{ground_size - 1}")
        object.__setattr__(self, "blocks", tuple(cleaned))
        object.__setattr__(self, "ground_size", ground_size)

    def __reduce__(self):  # pickle and copy rebuild through the constructor, not setattr
        return type(self), (self.blocks, self.ground_size)

    @property
    def k(self) -> int:
        """Number of blocks."""
        return len(self.blocks)

    def is_identity(self) -> bool:
        """True when every block is a singleton (nothing aggregated)."""
        return len(self.blocks) == self.ground_size

    @classmethod
    def identity(cls, n: int) -> "Partition":
        n = _integer("n", n, minimum=1)
        return _filled(cls, 1, {"ground_size": n}, blocks=[tuple((i,) for i in range(n))])[0]

    @classmethod
    def total(cls, n: int) -> "Partition":
        n = _integer("n", n, minimum=1)
        return _filled(cls, 1, {"ground_size": n}, blocks=[(tuple(range(n)),)])[0]

    def block_of(self) -> list[int]:
        """Map each element to the index of its block."""
        owner = [0] * self.ground_size
        for b_index, block in enumerate(self.blocks):
            for x in block:
                owner[x] = b_index
        return owner

    def __repr__(self) -> str:
        inner = ", ".join("{" + ", ".join(map(str, b)) + "}" for b in self.blocks)
        return f"Partition[{inner}]"

    # -- serialization ---------------------------------------------------
    def to_json(self) -> str:
        """Serialize as ``{"blocks": [[..], ..]}`` in canonical order."""
        return _json_text({"blocks": [list(b) for b in self.blocks]})

    @classmethod
    def from_json(cls, text: str, ground_size: int | None = None) -> "Partition":
        data = _json_value(text, "partition")
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
        raise DimensionMismatch(f"ground sizes differ: {finer.ground_size} vs "
                                f"{coarser.ground_size}")
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
    for _ in range(n):  # a row opens with the last entry above, then adds each entry above
        row = list(accumulate(row, initial=row[-1]))
    return row[0]


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """An iterator over every partition of {0..n-1}, each once, in canonical order.

    The order is lexicographic in the restricted-growth encoding (element i
    gets the label of its block, labels appear in first-use order), which
    coincides with canonical block form.  ``n`` is checked at the call, guarded
    at n <= 12.  For n <= 8 (``LATTICE_LIMIT``) they are built once per process
    from label rows and kept, and the iterator is the kept tuple's: every call
    yields the same immutable ``Partition`` objects, with no generator frame per
    item.  A larger n is lazy: it grows each label row of n - 4 states by the last
    four and builds them anew, row by row, as the iterator is read.
    """
    n = _integer("n", n, minimum=1)
    if n > ENUMERATION_LIMIT:
        raise TooLarge(
            f"exhaustive enumeration is limited to n <= {ENUMERATION_LIMIT} "
            f"(Bell({n}) = {bell_number(n)})"
        )
    if n <= LATTICE_LIMIT:
        return iter(_kept_partitions(n))
    labels, masks, k = _label_rows(n - 4)
    wide = (np.pad(a, ((0, 0), (0, 4)))[:, None] for a in (labels, masks.astype(np.uint16)))
    grown = (_grow(*row, range(n - 4, n)) for row in zip(*wide, k[:, None]))
    return chain.from_iterable(_built(n, grown))


def _grow(labels, masks, k, states: range) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label rows, masks and block counts grown by each of ``states``, children in label order."""
    for m in states:  # state m joins each block of a row in turn, then a new one
        parent = np.repeat(np.arange(k.size), k + 1)
        label = np.arange(parent.size) - np.repeat(np.cumsum(k + 1) - k - 1, k + 1)
        labels, masks, k = labels[parent], masks[parent], k[parent] + (label == k[parent])
        labels[:, m] = label
        masks[np.arange(label.size), label] += 1 << m
    return labels, masks, k


@lru_cache(maxsize=LATTICE_LIMIT)
def _label_rows(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every partition of {0..n-1} (n <= 8) in enumeration order, read-only: its label
    row (restricted growth string), block bit masks (0 past the last), uint8, and block count."""
    root = np.zeros((1, n), np.uint8), np.eye(1, n, dtype=np.uint8), np.ones(1, np.intp)
    labels, masks, k = _grow(*root, range(1, n))
    labels.flags.writeable = masks.flags.writeable = k.flags.writeable = False
    return labels, masks, k


def _built(n: int, groups: Iterable[tuple[np.ndarray, ...]]) -> Iterator[list[Partition]]:
    """The partitions of each group of label rows, built in bulk from one subset table; a group is
    let go once the next is built, so the collector's count its build raised falls back unspent."""
    subsets = [()]
    for x in range(n):  # subset s + 2**x is subset s and x
        subsets += [subset + (x,) for subset in subsets]
    subsets = np.fromiter(subsets, object, 2**n)
    for _, masks, k in groups:
        blocks = chain.from_iterable(map(_row_blocks, [subsets], [masks], [k]))  # made in the fill
        partitions = _filled(Partition, k.size, {"ground_size": n}, blocks=blocks)
        yield partitions


def _row_blocks(subsets: np.ndarray, masks: np.ndarray, k: np.ndarray) -> list[tuple]:
    """Each row's blocks, by ``subsets`` of its masks, a block count at a time (run in the fill)."""
    blocks = np.empty(k.size, object)
    for width in range(k[0], k[-1] + 1):  # the first row has fewest blocks, the last most
        rows = np.flatnonzero(k == width)
        blocks[rows] = np.fromiter(zip(*subsets[masks[rows, :width].T].tolist()), object, rows.size)
    return blocks.tolist()


@lru_cache(maxsize=LATTICE_LIMIT)
def _kept_partitions(n: int) -> tuple[Partition, ...]:
    """The partitions of :func:`_label_rows`, made once and kept."""
    (partitions,) = _built(n, [_label_rows(n)])
    return tuple(partitions)


def pair_draw_width(n: int) -> int:
    """How many uniforms the pair sampler reads for one pair at dimension n."""
    return 2 * n + 1


def _random_refinement_pair(n: int, u: list[float]) -> tuple[int, ...]:
    """What a pair's ``pair_draw_width(n)`` uniforms decide, as that many ints: k_A (by
    u[0]), k_B (by u[1]), the states in order (ranked by u[2 : n+2]) and the n - 1 gaps
    of that order by rank (by u[n+2 : 2n+1]; gap g follows the order's state g).  The
    finer partition cuts the order at the k_A - 1 first gaps, the coarser at the k_B - 1
    first (:func:`_pair_labels`); the law is :func:`random_refinement_pair`'s."""
    k_a = 3 + int(u[0] * (n - 2))
    return (k_a, 2 + int(u[1] * (k_a - 2)), *sorted(range(n), key=u[2 : n + 2].__getitem__),
            *sorted(range(n - 1), key=u[n + 2 : 2 * n + 1].__getitem__))


def _pair_labels(n: int, draws: list[tuple[int, ...]]) -> np.ndarray:
    """The label rows of ``draws`` (:func:`_random_refinement_pair` at n), least unsigned
    dtype: row 2i is pair i's finer partition, 2i + 1 its coarser.  A row cuts the order at
    each gap ranked below its k - 1, and labels each run in order of its least state."""
    pairs = np.fromiter(chain.from_iterable(draws), np.intp, len(draws) * pair_draw_width(n))
    pairs = np.repeat(pairs.reshape(len(draws), -1), 2, axis=0)  # each pair's row, twice
    k, order, gaps = pairs[0::2, :2].reshape(-1, 1), pairs[:, 2 : n + 2], pairs[:, n + 2 :]
    np.put_along_axis(rank := np.empty_like(gaps), gaps, np.arange(n - 1)[None], axis=1)
    runs = np.hstack([np.ones((k.size, 1), bool), rank < k - 1]).ravel()  # where a run begins
    least = np.minimum.reduceat(order.ravel(), np.flatnonzero(runs))[np.cumsum(runs) - 1]
    np.put_along_axis(first := np.empty_like(order), order, least.reshape(order.shape), axis=1)
    label = np.cumsum(first == np.arange(n), axis=1) - 1
    return np.take_along_axis(label, first, axis=1).astype(np.min_scalar_type(n - 1))


def _label_blocks(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each label row's block count, each block's width and the rows' states block by
    block, end to end.  Labels equal to the table's width pad a row of fewer states.  One
    stable argsort of the flat table by (row, label) puts each row's blocks in order of
    least state, states ascending (canonical form), and its pads last, where they are cut."""
    count, width = labels.shape
    ids = labels + np.arange(0, count * (width + 1), width + 1)[:, None]  # pads: last bin
    tally = np.bincount(ids.ravel(), minlength=ids.size + count).reshape(count, width + 1)[:, :-1]
    order = np.argsort(ids, axis=None, kind="stable")
    states = order[labels.ravel()[order] < width] % width
    return np.count_nonzero(tally, axis=1), tally[tally > 0], states


def _canonical_blocks(labels: np.ndarray) -> list[tuple[tuple[int, ...], ...]]:
    """The canonical blocks of each label row (see :func:`_label_blocks`)."""
    counts, widths, states = (iter(a.tolist()) for a in _label_blocks(labels))
    blocks = iter([tuple(islice(states, w)) for w in widths])
    return [tuple(islice(blocks, k)) for k in counts]


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
    the same construction on the blocks of A (see ``_random_refinement_pair``).

    This is the law of merging uniformly random pairs of blocks from the
    singletons down to k_A blocks, and on down to k_B (Kingman's
    coalescent).  A random order cut at k - 1 uniformly chosen gaps gives a
    partition into k blocks of sizes lambda_1..lambda_k with probability
    ``k! (k-1)! (n-k)! prod(lambda_i!) / (n! (n-1)!)``, the random-merge law.
    Given the finer partition, its blocks appear in the order in a uniformly
    random order, and the first k_B - 1 gaps are a uniform subset of its
    k_A - 1 cuts; so the coarser is the same construction applied to the
    k_A blocks, as continued merging is.  This covers the whole order but is
    *not* uniform over it; exhaustive enumeration exists for certainty at small n.
    """
    n, rng = _pair_size(n), np.random.default_rng(_integer("rng_seed", rng_seed))
    pair = _random_refinement_pair(n, rng.random(pair_draw_width(n)).tolist())
    blocks = _canonical_blocks(_pair_labels(n, [pair]))
    return tuple(_filled(Partition, 2, {"ground_size": n}, blocks=blocks))
