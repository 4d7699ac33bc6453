"""Partition canonical form, refinement order, enumeration, and sampling."""

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import chain
import math

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from gentropy import (
    Partition,
    bell_number,
    enumerate_partitions,
    is_refinement,
    quotient_partition,
    random_refinement_pair,
)
from gentropy.errors import DimensionMismatch, TooLarge, TooSmall, ValidationError
from gentropy.partitions import (
    _canonical_blocks,
    _pair_labels,
    _random_refinement_pair,
    pair_draw_width,
)


def independent_bell(n):
    """Bell numbers by the binomial-sum recurrence (not the library's triangle)."""
    bells = [1]
    for m in range(n):
        bells.append(sum(math.comb(m, k) * bells[k] for k in range(m + 1)))
    return bells[n]


def test_canonical_form_sorts_blocks():
    part = Partition([[2], [1, 0]], 3)
    assert part.blocks == ((0, 1), (2,))


def test_partition_validation():
    with pytest.raises(ValidationError):
        Partition([[0, 1], [1, 2]], 3)  # overlap
    with pytest.raises(ValidationError):
        Partition([[0], [2]], 3)  # hole
    with pytest.raises(ValidationError):
        Partition([[0], []], 1)  # empty block


def test_a_partition_of_nothing_is_refused():
    """As ``Partition.identity(0)`` and ``enumerate_partitions(0)`` are: no entry
    point makes a partition of an empty ground set."""
    with pytest.raises(ValidationError, match="ground_size"):
        Partition([], 0)
    with pytest.raises(ValidationError, match="ground_size"):
        Partition.from_json('{"blocks": []}')
    with pytest.raises(ValidationError, match="ground_size"):
        Partition.from_json('{"blocks": []}', 0)
    assert Partition.from_json('{"blocks": [[0]]}') == Partition.identity(1)


@pytest.mark.parametrize("blocks", [[[0, 1.5], [2]], [[0, "1"], [2]], [0, 1, 2]])
def test_partition_rejects_what_is_not_an_integer_index(blocks):
    """1.5 is not read as 1, nor "1" as 1, and a bare index is not a block."""
    with pytest.raises(ValidationError):
        Partition(blocks, 3)
    assert Partition([[np.int64(1), 0], [2]], 3).blocks == ((0, 1), (2,))


def test_partition_immutable_and_hashable():
    part = Partition([[0, 1], [2]], 3)
    with pytest.raises(AttributeError):
        part._blocks = ()
    assert hash(part) == hash(Partition([[2], [0, 1]], 3))


def test_refinement_examples():
    singletons = Partition.identity(3)
    merged = Partition([[0, 1], [2]], 3)
    assert is_refinement(singletons, merged)
    assert is_refinement(merged, merged)
    assert not is_refinement(merged, Partition([[0], [1, 2]], 3))


def test_refinement_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        is_refinement(Partition.identity(3), Partition.identity(4))


def test_refinement_reflexive_transitive_exhaustive_n6():
    parts = list(enumerate_partitions(6))
    relation = np.zeros((len(parts), len(parts)), dtype=bool)
    for i, a in enumerate(parts):
        for j, b in enumerate(parts):
            relation[i, j] = is_refinement(a, b)
    assert relation.diagonal().all()  # reflexive
    closure = (relation.astype(int) @ relation.astype(int)) > 0
    assert not np.any(closure & ~relation)  # transitive


def test_quotient_composition():
    finer = Partition([[0, 1], [2], [3, 4]], 5)
    coarser = Partition([[0, 1, 2], [3, 4]], 5)
    quotient = quotient_partition(finer, coarser)
    assert quotient.blocks == ((0, 1), (2,))
    with pytest.raises(ValidationError):
        quotient_partition(coarser, finer)


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 5), (4, 15), (6, 203)])
def test_enumeration_counts_small(n, count):
    parts = list(enumerate_partitions(n))
    assert len(parts) == count
    assert len(set(parts)) == count  # exactly once each


def test_enumeration_matches_bell_up_to_12():
    for n in range(1, 13):
        expected = independent_bell(n)
        assert bell_number(n) == expected
        if n <= 10:
            assert sum(1 for _ in enumerate_partitions(n)) == expected


@pytest.mark.slow
def test_enumeration_matches_bell_11_12():
    for n in (11, 12):
        assert sum(1 for _ in enumerate_partitions(n)) == independent_bell(n)


def test_enumeration_guard():
    with pytest.raises(TooLarge):
        next(enumerate_partitions(13))
    with pytest.raises(ValidationError):
        next(enumerate_partitions(0))


@pytest.mark.parametrize("n", [2.5, 3.0, "3"])
def test_enumeration_and_bell_number_take_only_integers(n):
    """A non-integer n is refused before any partition is built."""
    with pytest.raises(ValidationError, match="integer"):
        next(enumerate_partitions(n))
    with pytest.raises(ValidationError, match="integer"):
        bell_number(n)


def test_numpy_integer_n_gives_int_ground_sizes():
    parts = list(enumerate_partitions(np.int64(4)))
    assert len(parts) == bell_number(np.int64(4)) == 15
    assert {type(part.ground_size) for part in parts} == {int}
    assert parts == list(enumerate_partitions(4))


@pytest.mark.parametrize("n", [8, 9])
def test_enumeration_repeats_itself(n):
    """n = 8 is built once from label rows and kept, and n = 9 is grown from
    them anew on each call; either way a second enumeration equals the first."""
    first, second = list(enumerate_partitions(n)), list(enumerate_partitions(n))
    assert first == second and len(first) == bell_number(n)
    assert [p.blocks for p in first] == [p.blocks for p in second]
    assert all(a is b for a, b in zip(first, second)) == (n <= 8)


def test_kept_partitions_are_immutable():
    part = list(enumerate_partitions(8))[100]
    blocks = part.blocks
    for name in ("_blocks", "_ground_size", "blocks", "extra"):
        with pytest.raises(AttributeError):
            setattr(part, name, ((0, 1, 2, 3, 4, 5, 6, 7),))
    assert list(enumerate_partitions(8))[100].blocks is blocks


def _recursive_enumeration(n):
    """Canonical blocks of every partition of {0..n-1}, by recursion over RGSs."""
    labels = [0] * n

    def rec(i, used):
        if i == n:
            blocks = [[] for _ in range(used)]
            for x, lab in enumerate(labels):
                blocks[lab].append(x)
            yield tuple(tuple(b) for b in blocks)
            return
        for label in range(used + 1):
            labels[i] = label
            yield from rec(i + 1, used + (1 if label == used else 0))

    yield from rec(1, 1)


@pytest.mark.parametrize("n", range(1, 11))
def test_enumeration_order_equals_a_recursive_reference(n):
    parts = list(enumerate_partitions(n))
    assert [part.blocks for part in parts] == list(_recursive_enumeration(n))
    assert {type(part) for part in parts} == {Partition}
    assert {part.ground_size for part in parts} == {n}


@pytest.mark.parametrize("n", range(1, 11))
def test_partitions_are_the_reference_with_plain_int_blocks(n):
    """Built from label rows (uint8 masks up to n = 8, grown uint16 ones past it),
    each partition equals the recursive reference's, and its blocks are tuples of
    exact ints: a numpy integer passes ``==`` but makes a lattice report fail to
    emit (``_blocks_texts`` sends it to ``_json_scalar``)."""
    built, reference = list(enumerate_partitions(n)), list(_recursive_enumeration(n))
    assert len(built) == len(reference) == bell_number(n)
    for part, blocks in zip(built, reference):
        assert part.blocks == blocks and type(part) is Partition
        assert type(part.blocks) is tuple and type(part.ground_size) is int
        assert all(type(block) is tuple for block in part.blocks)
        assert {type(x) for block in part.blocks for x in block} == {int}


def test_enumeration_canonical_order_deterministic():
    first = [p.blocks for p in enumerate_partitions(5)]
    second = [p.blocks for p in enumerate_partitions(5)]
    assert first == second
    assert first[0] == (tuple(range(5)),)  # all merged comes first
    assert first[-1] == tuple((i,) for i in range(5))  # identity comes last


def test_random_refinement_pair_contract():
    for seed in range(200):
        finer, coarser = random_refinement_pair(8, seed)
        assert is_refinement(finer, coarser)
        assert 2 <= coarser.k < finer.k <= 8


def test_random_refinement_pair_n3_shape():
    finer, coarser = random_refinement_pair(3, 5)
    assert finer == Partition.identity(3)
    assert coarser.k == 2


def test_random_refinement_pair_bounds_sweep():
    rows = np.random.default_rng(7).random((1000, pair_draw_width(8))).tolist()
    for finer, coarser in _pairs(8, rows):
        assert 2 <= len(coarser) < len(finer) <= 8


def _runs(order, cuts):
    """Canonical blocks of ``order`` cut before each position in ``cuts``."""
    bounds = [0, *sorted(cuts), len(order)]
    return tuple(sorted([tuple(sorted(order[a:b])) for a, b in zip(bounds, bounds[1:])]))


def _refinement_pair_blocks(n, u):
    """The reference pair sampler, one pair of tuples at a time: the canonical
    blocks of (finer, coarser) from the ``pair_draw_width(n)`` uniforms ``u``.
    The order of the states ranks u[2 : n+2] and the order of the gaps before
    positions 1..n-1 ranks u[n+2 : 2n+1]; the finer cuts at the first k_A - 1
    gaps, the coarser at the first k_B - 1."""
    k_a = 3 + int(u[0] * (n - 2))
    k_b = 2 + int(u[1] * (k_a - 2))
    order = sorted(range(n), key=u[2 : n + 2].__getitem__)
    gaps = sorted(range(1, n), key=u[n + 1 : 2 * n + 1].__getitem__)
    return _runs(order, gaps[: k_a - 1]), _runs(order, gaps[: k_b - 1])


def _pairs(n, rows):
    """The production sampler's (finer, coarser) blocks for each row of uniforms:
    the per-pair draw, the label rows of the batch and their canonical blocks."""
    labels = _pair_labels(n, [_random_refinement_pair(n, row) for row in rows])
    assert labels.dtype == (np.uint8 if n <= 256 else np.uint16)
    blocks = _canonical_blocks(labels)
    return list(zip(blocks[0::2], blocks[1::2]))


_BELOW_ONE = float(np.nextafter(1.0, 0.0))  # as u[0], draws k_A = n


@pytest.mark.parametrize("n", [*range(3, 41), 255, 256, 257])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(3, 9))
def test_label_rows_give_the_reference_blocks(n, seed, count):
    """Pair for pair, the label rows give the reference sampler's canonical
    blocks; rows 0 and 2 draw k_A = n, and rows 1 and 2 draw k_B = 2."""
    rows = np.random.default_rng(seed).random((count, pair_draw_width(n)))
    rows[[0, 2], 0], rows[[1, 2], 1] = _BELOW_ONE, 0.0
    pairs = _pairs(n, rows.tolist())
    assert pairs == [_refinement_pair_blocks(n, row) for row in rows.tolist()]
    assert [len(pairs[r][0]) for r in (0, 2)] == [n, n]
    assert [len(pairs[r][1]) for r in (1, 2)] == [2, 2]


def _merges(blocks):
    """Every merge of two blocks, in canonical form: each one of C(k, 2) equally likely."""
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            rest = blocks[:i] + blocks[i + 1 : j] + blocks[j + 1 :]
            yield tuple(sorted(rest + (tuple(sorted(blocks[i] + blocks[j])),)))


def _merge_step(law):
    """The law after one more merge of a uniformly random pair of blocks."""
    out = defaultdict(Fraction)
    for blocks, p in law.items():
        k = len(blocks)
        for merged in _merges(blocks):
            out[merged] += p / (k * (k - 1) // 2)
    return out


def _random_merge_law(n):
    """Exact law of (finer, coarser) when pairs are merged at random.

    k_A is uniform on [3, n] and k_B on [2, k_A - 1].  Starting from the
    singletons, uniformly random pairs of blocks merge down to k_A blocks,
    then on down to k_B: the sum over every merge sequence.
    """
    levels = {n: {tuple((i,) for i in range(n)): Fraction(1)}}
    for k in range(n - 1, 1, -1):
        levels[k] = _merge_step(levels[k + 1])
    joint = defaultdict(Fraction)
    for k_a in range(3, n + 1):
        for finer, p_finer in levels[k_a].items():
            law = {finer: Fraction(1)}
            for _ in range(k_a - 2):  # k_B = k_A - 1 down to 2
                law = _merge_step(law)
                for coarser, p_coarser in law.items():
                    joint[finer, coarser] += p_finer * p_coarser / ((n - 2) * (k_a - 2))
    return joint


def _chi_square(counts, probabilities, draws):
    return sum(
        (counts.get(cell, 0) - draws * float(p)) ** 2 / (draws * float(p))
        for cell, p in probabilities.items()
    )


def _sampled_pairs(n, draws, seed):
    """The production sampler's pairs of ``draws`` rows of uniforms, counted."""
    rows = np.random.default_rng(seed).random((draws, pair_draw_width(n))).tolist()
    batches = range(0, draws, 10_000)
    return Counter(chain.from_iterable(_pairs(n, rows[b : b + 10_000]) for b in batches))


@pytest.mark.parametrize("n", [4, 5])
def test_pair_sampler_has_the_random_merge_law(n):
    """200k draws against the exact law of merging random block pairs."""
    from scipy.stats import chi2

    law = _random_merge_law(n)
    assert sum(law.values()) == 1
    finer_law = defaultdict(Fraction)
    for (finer, _), p in law.items():
        finer_law[finer] += p
    for finer, p in finer_law.items():  # the closed form, times P(k_A = k)
        k = len(finer)
        assert p * (n - 2) == Fraction(
            math.factorial(k) * math.factorial(k - 1) * math.factorial(n - k)
            * math.prod(math.factorial(len(b)) for b in finer),
            math.factorial(n) * math.factorial(n - 1),
        )
    draws = 200_000
    counts = _sampled_pairs(n, draws, seed=n)
    assert set(counts) <= set(law)
    assert _chi_square(counts, law, draws) < chi2.ppf(0.999, len(law) - 1)


def test_pair_sampler_block_counts_are_uniform():
    """k_A uniform on [3, n]; k_B uniform on [2, k_A - 1] given k_A."""
    from scipy.stats import chi2

    n, draws = 8, 60_000
    counts = _sampled_pairs(n, draws, seed=1)
    k_a = Counter()
    k_b = defaultdict(Counter)
    for (finer, coarser), count in counts.items():
        k_a[len(finer)] += count
        k_b[len(finer)][len(coarser)] += count
    uniform = {k: Fraction(1, n - 2) for k in range(3, n + 1)}
    assert _chi_square(k_a, uniform, draws) < chi2.ppf(0.999, n - 3)
    for k, given in k_b.items():
        uniform = {j: Fraction(1, k - 2) for j in range(2, k)}
        assert set(given) == set(uniform)
        if k > 3:
            assert _chi_square(given, uniform, k_a[k]) < chi2.ppf(0.999, k - 3)


def test_random_refinement_pair_too_small():
    with pytest.raises(TooSmall):
        random_refinement_pair(2, 0)


def test_partition_json_round_trip():
    part = Partition([[0, 3], [1], [2, 4]], 5)
    assert Partition.from_json(part.to_json()) == part
