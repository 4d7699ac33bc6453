"""Design counters of the source tree, held in the test suite.

The benchmark harness, ``perfbench/run.py``, reports the design counters of
ROADMAP aim 2.  These tests load it as it is, change nothing in it, and keep
the count of branches keyed on a spec id at zero: such a branch fails here,
not only in a benchmark note.  A last gate keeps every sampled check on the
one evaluation kernel: none of them calls ``evaluate``.
"""

from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import pytest

from gentropy import axioms, classify, verify
from gentropy.catalog import EntropySpec, matched_transform_target

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
