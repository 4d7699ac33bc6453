"""Distribution construction, aggregation, escort, joint, and sampling."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from gentropy import (
    FiniteDistribution,
    JointDistribution,
    Partition,
    coarse_grain,
    escort,
    from_weights,
    joint_from_conditionals,
    merge_pair,
    quotient_partition,
    random_refinement_pair,
    sample_dirichlet_uniform,
)
from gentropy.distributions import _dirichlet_interior, _dirichlet_rows
from gentropy.errors import DimensionMismatch, ValidationError, ZeroUnsupported


def test_from_weights_symmetric():
    assert from_weights([1, 1]).probs.tolist() == [0.5, 0.5]


def test_from_weights_normalizes():
    assert from_weights([2, 3, 5]).probs.tolist() == [0.2, 0.3, 0.5]


def test_from_weights_keeps_zero():
    assert from_weights([0, 4]).probs.tolist() == [0.0, 1.0]


def test_from_weights_scales_finite_weights_whose_sum_overflows():
    assert from_weights([1e308, 1e308]).probs.tolist() == [0.5, 0.5]
    thirds = from_weights([1e308, 0.0, 1e308, 1e308]).probs
    assert thirds == pytest.approx([1 / 3, 0.0, 1 / 3, 1 / 3])


@pytest.mark.parametrize(
    "weights", [[], [-1.0, 2.0], [0.0, 0.0], [float("nan"), 1.0]]
)
def test_from_weights_rejects(weights):
    with pytest.raises(ValidationError):
        from_weights(weights)


@pytest.mark.parametrize(
    "probs",
    [["0.5", "0.5"], [b"0.5", b"0.5"], [0.5, "0.5"], np.array(["0.5", "0.5"]),
     [Fraction(1, 2), "0.5"]],
)
def test_distribution_rejects_text_entries(probs):
    """JSON strings of numbers are not numbers, nor are bytes, for any input."""
    with pytest.raises(ValidationError, match="probs must be numbers"):
        FiniteDistribution(probs)
    with pytest.raises(ValidationError, match="cells must be numbers"):
        JointDistribution([probs])
    with pytest.raises(ValidationError, match="weights must be numbers"):
        from_weights(probs)
    assert FiniteDistribution([Fraction(1, 2), 0.5]).probs.tolist() == [0.5, 0.5]


def test_distribution_validates_sum():
    with pytest.raises(ValidationError):
        FiniteDistribution([0.5, 0.4])
    with pytest.raises(ValidationError):
        FiniteDistribution([0.5, -0.5, 1.0])
    FiniteDistribution([0.5, 0.5 + 5e-10])  # inside the 1e-9 budget


def test_distribution_immutable():
    dist = FiniteDistribution([0.5, 0.5])
    with pytest.raises(ValueError):
        dist.probs[0] = 0.3


def test_coarse_grain_block_sums():
    dist = FiniteDistribution([0.2, 0.3, 0.5])
    part = Partition([[0, 1], [2]], 3)
    assert coarse_grain(dist, part).probs.tolist() == [0.5, 0.5]


def test_coarse_grain_identity_exact():
    dist = FiniteDistribution([0.2, 0.3, 0.5])
    assert coarse_grain(dist, Partition.identity(3)) == dist


def test_coarse_grain_total():
    dist = FiniteDistribution([0.25] * 4)
    assert coarse_grain(dist, Partition.total(4)).probs.tolist() == [1.0]


def test_coarse_grain_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        coarse_grain(FiniteDistribution([0.5, 0.5]), Partition.identity(3))


def test_coarse_grain_transitive():
    """Aggregating by A then by the induced quotient equals aggregating by B."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(4, 9))
        p = rng.dirichlet(np.ones(n))
        dist = FiniteDistribution(p)
        labels_a = rng.integers(0, 3, size=n)
        blocks_a = [np.flatnonzero(labels_a == v).tolist() for v in set(labels_a)]
        finer = Partition(blocks_a, n)
        merge = {v: v % 2 for v in range(finer.k)}
        owner = finer.block_of()
        blocks_b = {}
        for x in range(n):
            blocks_b.setdefault(merge[owner[x]], []).append(x)
        coarser = Partition(blocks_b.values(), n)
        via_quotient = coarse_grain(
            coarse_grain(dist, finer), quotient_partition(finer, coarser)
        )
        direct = coarse_grain(dist, coarser)
        assert np.max(np.abs(via_quotient.probs - direct.probs)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 10), seed=st.integers(0, 2**32 - 1))
def test_coarse_grain_composes_through_the_quotient(n, seed):
    """Coarse-graining by A and then by B/A equals coarse-graining by B."""
    finer, coarser = random_refinement_pair(n, seed)
    dist = FiniteDistribution(np.random.default_rng(seed).dirichlet(np.ones(n)))
    via = coarse_grain(coarse_grain(dist, finer), quotient_partition(finer, coarser))
    direct = coarse_grain(dist, coarser)
    assert via.n == direct.n == coarser.k
    assert np.max(np.abs(via.probs - direct.probs)) <= 1e-14


def test_merge_pair_examples():
    assert merge_pair(FiniteDistribution([0.2, 0.3, 0.5]), 0, 1).probs.tolist() == [
        0.5,
        0.5,
    ]
    assert merge_pair(FiniteDistribution([0.5, 0.5]), 0, 1).probs.tolist() == [1.0]
    assert merge_pair(
        FiniteDistribution([0.1, 0.2, 0.3, 0.4]), 1, 3
    ).probs == pytest.approx([0.1, 0.3, 0.6], abs=1e-15)


def test_merge_pair_errors():
    dist = FiniteDistribution([0.5, 0.5])
    with pytest.raises(ValidationError):
        merge_pair(dist, 0, 2)
    with pytest.raises(ValidationError):
        merge_pair(dist, 1, 1)


def test_merge_pair_matches_coarse_grain():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(3, 8))
        p = rng.dirichlet(np.ones(n))
        i, j = rng.choice(n, size=2, replace=False)
        dist = FiniteDistribution(p)
        merged = merge_pair(dist, int(i), int(j))
        blocks = [[x] for x in range(n) if x not in (i, j)] + [[int(i), int(j)]]
        grained = coarse_grain(dist, Partition(blocks, n))
        assert sorted(merged.probs.tolist()) == pytest.approx(
            sorted(grained.probs.tolist()), abs=1e-15
        )


def test_escort_symmetry_and_identity():
    half = FiniteDistribution([0.5, 0.5])
    assert escort(half, 7.0) == half
    skew = FiniteDistribution([0.2, 0.8])
    assert escort(skew, 1.0) == skew


def test_escort_alpha_two():
    result = escort(FiniteDistribution([0.2, 0.8]), 2.0)
    assert result.probs == pytest.approx([1 / 17, 16 / 17], abs=1e-15)


def test_escort_uniform_fixed_point():
    uniform = FiniteDistribution([0.25] * 4)
    for alpha in (0.0, 0.5, 1.0, 3.0):
        assert escort(uniform, alpha).probs == pytest.approx([0.25] * 4, abs=1e-15)


@pytest.mark.parametrize("alpha", [2000.0, 1e5])
def test_escort_survives_powers_that_underflow(alpha):
    """Every power of the uniform underflows at these exponents, and 0.9**1e5 too."""
    uniform = FiniteDistribution([0.5, 0.5])
    assert escort(uniform, alpha) == uniform
    assert escort(FiniteDistribution([0.9, 0.1]), alpha).probs.tolist() == [1.0, 0.0]


def test_escort_zero_alpha_rejects_zeros():
    with pytest.raises(ZeroUnsupported):
        escort(FiniteDistribution([0.0, 1.0]), 0.0)


def test_joint_single_column():
    joint = joint_from_conditionals(
        FiniteDistribution([1.0]), [FiniteDistribution([0.3, 0.7])]
    )
    assert joint.cells[:, 0].tolist() == [0.3, 0.7]


def test_joint_independent_uniform():
    half = FiniteDistribution([0.5, 0.5])
    joint = joint_from_conditionals(half, [half, half])
    assert joint.cells.tolist() == [[0.25, 0.25], [0.25, 0.25]]


def test_joint_mixed():
    joint = joint_from_conditionals(
        FiniteDistribution([0.4, 0.6]),
        [FiniteDistribution([1.0, 0.0]), FiniteDistribution([0.5, 0.5])],
    )
    assert joint.cells.tolist() == [[0.4, 0.3], [0.0, 0.3]]


def test_joint_column_sums_reproduce_marginal():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        marginal = FiniteDistribution(rng.dirichlet(np.ones(n)))
        conds = [FiniteDistribution(rng.dirichlet(np.ones(m))) for _ in range(n)]
        joint = joint_from_conditionals(marginal, conds)
        assert np.max(np.abs(joint.cells.sum(axis=0) - marginal.probs)) <= 1e-12
        joint.row_marginal()  # any nonnegative unit-sum matrix has one


def test_joint_rejects_ragged():
    with pytest.raises(ValidationError):
        joint_from_conditionals(
            FiniteDistribution([0.5, 0.5]),
            [FiniteDistribution([1.0]), FiniteDistribution([0.5, 0.5])],
        )
    with pytest.raises(DimensionMismatch):
        joint_from_conditionals(
            FiniteDistribution([0.5, 0.5]), [FiniteDistribution([1.0, 0.0])]
        )


def test_dirichlet_degenerate_dimension():
    assert sample_dirichlet_uniform(1, 123).probs.tolist() == [1.0]


def test_dirichlet_deterministic():
    a = sample_dirichlet_uniform(5, 42)
    b = sample_dirichlet_uniform(5, 42)
    assert a == b
    assert sample_dirichlet_uniform(5, 43) != a


def test_dirichlet_strictly_positive():
    for seed in range(200):
        assert sample_dirichlet_uniform(4, seed).probs.min() > 0.0


def test_dirichlet_mean_matches_flat_simplex():
    """Seed sweep: per-coordinate mean of 10^4 draws within 0.01 of 1/3."""
    total = np.zeros(3)
    draws = 10_000
    for seed in range(draws):
        total += sample_dirichlet_uniform(3, seed).probs
    assert np.max(np.abs(total / draws - 1.0 / 3.0)) < 0.01


@pytest.mark.parametrize("floor", [1e-9, 0.02])  # at 0.02 most rows of 8 or more redraw
def test_batched_dirichlet_rows_equal_the_per_vector_draws(floor):
    """Rows of 1..12 states (``np.sum`` pairs its terms from 8 on): the same
    arrays, and the generator left where the per-vector loop leaves it."""
    for seed in range(300):
        widths = np.random.default_rng(seed + 1000).integers(1, 13, size=12)
        loop, batch = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = np.concatenate([_dirichlet_interior(n, loop, floor) for n in widths.tolist()])
        assert np.array_equal(_dirichlet_rows(batch, widths, floor), expected)
        assert batch.random() == loop.random()


def test_distribution_json_round_trip():
    dist = sample_dirichlet_uniform(6, 7)
    assert FiniteDistribution.from_json(dist.to_json()) == dist


def test_distribution_csv_round_trip():
    dist = sample_dirichlet_uniform(6, 9)
    assert FiniteDistribution.from_csv(dist.to_csv()) == dist
