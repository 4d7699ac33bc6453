"""Design counters of the source tree, held in the test suite.

The benchmark harness, ``perfbench/run.py``, reports the design counters of
ROADMAP aim 2.  These tests load it as it is, change nothing in it, and keep
the count of branches keyed on a spec id at zero: such a branch fails here,
not only in a benchmark note.  A gate keeps every sampled check on the
one evaluation kernel: none of them calls ``evaluate``.  The last gates count
the exhaustive oracles' work without timing it: a lattice and a corollary on
one (spec, distribution) run the kernel once, and each n's lattice shape, built
from label rows, equals the one the walked blocks give.
"""

from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np
import pytest

from gentropy import axioms, classify, verify
from gentropy.catalog import EntropySpec, matched_transform_target
from gentropy.distributions import FiniteDistribution
from gentropy.partitions import enumerate_partitions

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _harness():
    spec = spec_from_file_location("perfbench_run", RUN)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_branch_is_keyed_on_a_spec_id():
    assert _harness().spec_id_branches() == 0


def test_the_counter_sees_a_planted_branch(tmp_path):
    """The gate is not vacuous: a comparison of ``spec.id`` with a literal counts."""
    harness = _harness()
    (tmp_path / "planted.py").write_text(
        'def value(spec):\n    return 1.0 if spec.id == "s_delta" else 0.0\n'
    )
    harness.SRC = tmp_path
    assert harness.spec_id_branches() == 1


def test_every_sampled_check_runs_on_the_kernel(monkeypatch):
    """With ``evaluate`` raising wherever the checks could reach it, each still returns."""
    def refuse(*args):
        raise AssertionError("a sampled check called evaluate")

    for module in (verify, axioms, classify):
        monkeypatch.setattr(module, "evaluate", refuse, raising=False)
    tsallis = EntropySpec("tsallis", q=2.0)
    verify.run_monotonicity_campaign([tsallis], [3, 5], 4, 0)
    verify.max_entropy_check(tsallis, [3, 4], 4, 0)
    axioms.check_basic_axioms(tsallis, 20, 0)
    axioms.check_product_composability(tsallis, 20, 0)
    classify.check_transform_consistency(
        tsallis, matched_transform_target(tsallis, "renyi"), samples=20, rng_seed=0
    )
    with pytest.raises(AssertionError, match="called evaluate"):  # its pinned reference calls
        verify.counterexample_suite()


def test_one_lattice_pair_builds_one_value_table(monkeypatch):
    """An n = 8 lattice then corollary on one (spec, distribution) runs the
    kernel once; a second distribution runs it once more."""
    built = []
    kernel = verify._VectorValues

    def counting(*args, **kwargs):
        built.append(args[1])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(verify, "_VectorValues", counting)
    spec = EntropySpec("tsallis", q=2.0)
    for seed in (8, 9):
        dist = FiniteDistribution(np.random.default_rng(seed).dirichlet(np.ones(8)))
        verify.exhaustive_lattice_check(spec, dist)
        verify.corollary1_check(spec, dist)
        assert len(built) == seed - 7


def _flat_blocks_shape(n):
    """The lattice shape of n as it was derived from the walked blocks, before
    label rows: ``_flat_blocks`` and the (partition, merge, element) tensor."""
    partitions = [p.blocks for p in enumerate_partitions(n)]
    k, block_widths, elements = verify._flat_blocks(partitions)
    identity = k.size - 1
    edges = k * (k - 1) // 2
    rows = edges + (np.arange(k.size) < identity)
    first = verify._starts(rows)
    finer = np.repeat(np.arange(k.size), rows)
    coarser = np.empty_like(finer)
    kind = np.zeros_like(finer)
    labels = np.arange(block_widths.size) - np.repeat(verify._starts(k), k)
    rgs = np.zeros((k.size, n), dtype=np.intp)
    rgs[np.repeat(np.arange(k.size), n), elements] = np.repeat(labels, block_widths)
    weights = n ** np.arange(n - 1, -1, -1)
    codes = rgs @ weights
    for size in range(2, n + 1):
        parts = np.flatnonzero(k == size)
        i, j = np.triu_indices(size, 1)
        rgs_k = rgs[parts][:, None, :]
        merged = np.where(rgs_k == j[:, None], i[:, None], rgs_k) - (rgs_k > j[:, None])
        coarser[first[parts, None] + np.arange(i.size)] = np.searchsorted(codes, merged @ weights)
    vs_identity = (first + edges)[:identity]
    finer[vs_identity] = identity
    coarser[vs_identity] = np.arange(identity)
    kind[vs_identity] = np.where(k[:identity] == 1, 1, 2)
    bits = np.arange(1, 2**n)[:, None] >> np.arange(n) & 1
    sizes, masks = bits.sum(axis=1), np.add.reduceat(1 << elements, verify._starts(block_widths))
    subsets = verify._sum_plan(verify._starts(sizes), sizes, np.nonzero(bits)[1])
    plan = verify._kernel_plan(k[:-1], subsets, masks[:-n] - 1)
    return plan, (finer, coarser, kind, np.flatnonzero(kind))


def _same(a, b):
    """Equal nested tuples and lists of arrays, dtypes and shapes included."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


@pytest.mark.parametrize("n", range(1, 9))
def test_lattice_shape_from_label_rows_equals_the_one_from_walked_blocks(n, monkeypatch):
    monkeypatch.setattr(verify, "_LATTICE_SHAPES", {})
    verify.exhaustive_lattice_check(EntropySpec("shannon"), FiniteDistribution(np.full(n, 1 / n)))
    assert _same(verify._LATTICE_SHAPES[n], _flat_blocks_shape(n))
