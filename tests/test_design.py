"""Design counters of the source tree, held in the test suite.

The benchmark harness, ``perfbench/run.py``, reports the design counters of
ROADMAP aim 2.  These tests load it as it is, change nothing in it, and keep
the count of branches keyed on a spec id at zero: such a branch fails here,
not only in a benchmark note.
"""

from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

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
