"""Design counters of the source tree, held in the test suite.

The benchmark harness, ``perfbench/run.py``, reports the design counters of
ROADMAP aim 2.  These tests load it as it is, change nothing in it, and keep
the count of branches keyed on a spec id at zero: such a branch fails here,
not only in a benchmark note.  A gate keeps every sampled check on the
one evaluation kernel: none of them calls ``evaluate``.  Another keeps the
catalog's maps on their array forms: where every point maps, none runs alone.
The last gates count the exhaustive oracles' work without timing it: a lattice
and a corollary on one (spec, distribution) run the kernel once, each n's
lattice shape, built from label rows, equals the one a recursive reference's
blocks give, and n <= 8 grows nothing past the kept table: with any other
growth refused, the partitions and both oracles at n = 8 keep their pinned
bytes.  The store of kept ``classify`` and ``axioms`` inputs (``axioms._kept``)
builds each input once per key in a pass over the specs, keeps it read-only
and stays bounded.  One more gate keeps every JSON text on ``errors``: only its
``_json_text`` lays out indent-2 JSON, only ``errors`` writes JSON, and only
``errors._json_value`` and ``verify.report_from_json`` parse it.  A syntax gate keeps
the source compiling on Python 3.10, the oldest that ``requires-python`` admits, and
a builder gate keeps every object made without ``__init__`` on ``partitions._filled``.
A record gate keeps every form record (a ``catalog._Functional`` subclass) built in its
kind class or a ``_FAMILIES`` row, and no bare ``_Functional`` built at all.
A family gate keeps every fact about a family in ``catalog``: no other module reads a
spec's parameters or keys a table on its id.
A walk gate keeps every partition walk of ``verify`` in ``_PartitionWalk``, the holder
a kept value table's walk waits in until its blocks are first read.
"""

from concurrent.futures import ThreadPoolExecutor
from itertools import chain
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path
import ast
import hashlib
import io
import json
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from gentropy import axioms, catalog, classify, partitions, verify
from gentropy.catalog import EntropySpec, default_campaign_specs, matched_transform_target
from gentropy.catalog import spec_from_json, spec_to_json
from gentropy.cli import main
from gentropy.distributions import FiniteDistribution, sample_dirichlet_uniform
from test_partitions import _recursive_enumeration

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


_LAYOUT_CONSTANT = re.compile(r"_[A-Z][A-Z_]*")  # a private upper-case name


_JSON_READERS = {("errors.py", "_json_value"), ("verify.py", "report_from_json")}


def _json_layouts(src: Path, exempt: str = "_json_text") -> list[str]:
    """Where a module reads or writes JSON by itself: a ``json.dumps`` or
    ``json.JSONEncoder`` call outside ``errors``, or one with an ``indent`` outside
    ``errors``' function ``exempt``; a ``json.loads`` or ``json.load`` call outside
    ``_JSON_READERS``; or a ``cli`` reference to a layout constant of ``verify``,
    through the module or imported by name."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        within = {  # each call's innermost enclosing function
            id(call): function.name
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for call in ast.walk(function)
        }
        modules = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and not node.module
            for alias in node.names
            if alias.name == "verify"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                function = within.get(id(node))
                indent = "indent" in [k.arg for k in node.keywords]
                writes = name in ("dumps", "JSONEncoder") and (
                    path.name != "errors.py" or indent and function != exempt)
                reads = name in ("loads", "load") and (path.name, function) not in _JSON_READERS
                if writes or reads:
                    found.append(f"{path.name}:{node.lineno}: {name}")
            names = []
            if path.name == "cli.py" and isinstance(node, ast.Attribute):
                names = [node.attr] if getattr(node.value, "id", None) in modules else []
            elif path.name == "cli.py" and isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names] if node.module == "verify" else []
            found += [f"cli.py:{node.lineno}: {n}" for n in names if _LAYOUT_CONSTANT.fullmatch(n)]
    return found


def test_only_json_text_lays_out_indented_json():
    """Every indent-2 JSON comes from ``errors._json_text``, every JSON text from
    ``errors``, and every parse from ``errors._json_value`` or ``verify.report_from_json``;
    ``cli`` reads none of ``verify``'s layout constants.  Without the exemption the gate
    finds the encoder that ``_json_text`` makes."""
    src = Path(verify.__file__).parent
    assert _json_layouts(src) == []
    assert [line.split(": ")[1] for line in _json_layouts(src, exempt="")] == ["JSONEncoder"]


def test_only_errors_and_verify_import_json():
    src = Path(verify.__file__).parent
    importers = {
        path.name
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and "json" in [alias.name for alias in node.names]
        or isinstance(node, ast.ImportFrom) and node.module == "json"
    }
    assert importers == {"errors.py", "verify.py"}


def test_the_json_layout_gate_sees_planted_layouts(tmp_path):
    """The gate is not vacuous: a module's own ``json.dumps(..., indent=2)``, its own
    compact ``json.dumps`` and ``json.loads``, and a ``cli`` read of a ``verify``
    layout constant all count."""
    (tmp_path / "planted.py").write_text(
        "import json\n\ndef text(value):\n    return json.dumps(value, indent=2)\n\n"
        "def compact(value):\n    return json.dumps(value)\n\n"
        "def value(text):\n    return json.loads(text)\n"
    )
    (tmp_path / "cli.py").write_text(
        "from . import verify as verify_mod\nfrom .verify import _PAD, _template\n\n"
        "SEPARATOR = verify_mod._SEPARATOR[2]\nTEMPLATE = verify_mod._template\n"
    )
    assert _json_layouts(tmp_path) == [
        "cli.py:2: _PAD", "cli.py:4: _SEPARATOR",
        "planted.py:4: dumps", "planted.py:7: dumps", "planted.py:10: loads",
    ]


def _past_310(source: str) -> list[int]:
    """The lines of ``source`` whose syntax Python 3.10 refuses: a star in a subscript's
    unparenthesized tuple (``a[b, *c]``, ``a[*c]``) or an ``except*``.  ``ast.parse``
    with ``feature_version=(3, 10)`` accepts both.  A subscript's tuple is unparenthesized
    where it starts at its first element."""
    found = []
    for node in ast.walk(ast.parse(source)):
        key = node.slice if isinstance(node, ast.Subscript) else None
        if isinstance(key, ast.Tuple) and any(isinstance(e, ast.Starred) for e in key.elts):
            if (key.lineno, key.col_offset) == (key.elts[0].lineno, key.elts[0].col_offset):
                found.append(node.lineno)
        found += [node.lineno] if type(node).__name__ == "TryStar" else []
    return sorted(found)


def test_the_source_compiles_on_python_3_10():
    src = Path(verify.__file__).parent
    found = {path.name: _past_310(path.read_text()) for path in sorted(src.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_3_10_gate_sees_planted_syntax():
    """The gate is not vacuous: it flags ``a[b, *c]``, ``a[*c]`` and ``except*``, and
    passes the parenthesized tuples that Python 3.10 takes."""
    planted = "a[b, *c]\na[*c]\na[(b, *c)]\na[(*c,)]\n"
    planted += "try:\n    pass\nexcept* ValueError:\n    pass\n"
    assert _past_310(planted) == [1, 2, 5]


def _hand_builds(src: Path) -> list[str]:
    """Where a module makes an object without ``__init__`` or fills a slot by its
    descriptor: an ``object.__new__`` or a ``__set__`` outside ``partitions._filled``."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        builder = {
            id(node)
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef) and path.name == "partitions.py"
            and function.name == "_filled"
            for node in ast.walk(function)
        }
        found += [
            f"{path.name}:{node.lineno}: {node.attr}"
            for node in sorted(ast.walk(tree), key=lambda node: getattr(node, "lineno", 0))
            if isinstance(node, ast.Attribute) and id(node) not in builder
            and (node.attr == "__set__" or node.attr == "__new__"
                 and getattr(node.value, "id", None) == "object")
        ]
    return found


def test_only_filled_builds_objects_without_init():
    """Every object made without ``__init__``, a ``Partition`` or a ``CaseRecord``,
    comes from ``partitions._filled``."""
    assert _hand_builds(Path(verify.__file__).parent) == []


def test_the_builder_gate_sees_planted_builds(tmp_path):
    """The gate is not vacuous: ``object.__new__`` and a slot setter count anywhere
    but in ``partitions._filled``, a ``_filled`` of another module included."""
    builder = (
        "def _filled(cls, count):\n    made = object.__new__(cls)\n"
        "    cls.slot.__set__(made, 1)\n    return made\n"
    )
    (tmp_path / "partitions.py").write_text(
        builder + "\ndef _raw(cls):\n    return object.__new__(cls)\n"
    )
    (tmp_path / "planted.py").write_text(
        builder + "\nSETTERS = [Record.kind.__set__]\nMADE = cls.__new__(cls)\n"
    )
    assert _hand_builds(tmp_path) == [
        "partitions.py:7: __new__",
        "planted.py:2: __new__", "planted.py:3: __set__", "planted.py:6: __set__",
    ]


def _record_builds(src: Path) -> list[str]:
    """Where a module builds a form record outside ``catalog``'s kind classes and its
    ``_FAMILIES`` rows, and every build of the bare base: a call of ``_Functional``,
    of a class ``catalog.py`` derives from it, or of such a class's attribute."""
    kinds = {"_Functional"}
    for node in ast.parse((src / "catalog.py").read_text()).body:
        if isinstance(node, ast.ClassDef) and {getattr(b, "id", None) for b in node.bases} & kinds:
            kinds.add(node.name)

    def built(call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in kinds:
            return f"{func.value.id}.{func.attr}"
        name = getattr(func, "id", getattr(func, "attr", None))
        return name if name in kinds else None

    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        homes = [
            node for node in tree.body if path.name == "catalog.py" and (
                isinstance(node, ast.ClassDef) and node.name in kinds
                or isinstance(node, (ast.Assign, ast.AnnAssign)) and "_FAMILIES" in [
                    getattr(target, "id", None)
                    for target in getattr(node, "targets", None) or [node.target]
                ]
            )
        ]
        allowed = {id(node) for home in homes for node in ast.walk(home)}
        found += [
            f"{path.name}:{node.lineno}: {name}"
            for node in sorted(ast.walk(tree), key=lambda node: getattr(node, "lineno", 0))
            if isinstance(node, ast.Call) and (name := built(node))
            and (id(node) not in allowed or name == "_Functional")
        ]
    return found


def test_form_records_are_built_only_by_kind_classes_and_family_rows():
    """Every functional is its form kind's record, built in a ``_FAMILIES`` row or by its
    kind class (``_UserForm.of``), and no record is a bare ``_Functional``."""
    assert _record_builds(Path(verify.__file__).parent) == []


def test_the_record_gate_sees_planted_builds(tmp_path):
    """The gate is not vacuous: a kind built by a helper, in another module or by a
    kind's attribute outside the homes counts, and a bare base counts anywhere."""
    (tmp_path / "catalog.py").write_text(
        "class _Functional:\n    pass\n\n"
        "class _Kind(_Functional):\n    def of(cls):\n        return _Other(1.0)\n\n"
        "class _Other(_Kind):\n    pass\n\n"
        "_FAMILIES: dict = {'a': lambda p: _Kind(), 'b': lambda p: _Functional()}\n\n"
        "def _helper():\n    return _Other(2.0)\n"
    )
    (tmp_path / "planted.py").write_text(
        "from . import catalog\n\nMADE = [catalog._Kind(), _Kind.of()]\n"
    )
    assert _record_builds(tmp_path) == [
        "catalog.py:11: _Functional", "catalog.py:14: _Other",
        "planted.py:3: _Kind", "planted.py:3: _Kind.of",
    ]


def _family_reads(src: Path) -> list[str]:
    """Where a module other than ``catalog`` reads a spec's parameters or keys a lookup on
    its id: any ``.params`` attribute, and an ``.id`` attribute in a subscript, in the
    arguments of a ``.get(...)`` or on the left of an ``in`` test."""

    def on_id(node: ast.AST) -> bool:
        return any(isinstance(n, ast.Attribute) and n.attr == "id" for n in ast.walk(node))

    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "catalog.py":
            continue
        tree = ast.parse(path.read_text())
        for node in sorted(ast.walk(tree), key=lambda n: (getattr(n, "lineno", 0),
                                                          getattr(n, "col_offset", 0))):
            if isinstance(node, ast.Attribute) and node.attr == "params":
                found.append(f"{path.name}:{node.lineno}: .params")
            elif isinstance(node, ast.Subscript) and on_id(node.slice):
                found.append(f"{path.name}:{node.lineno}: [.id]")
            elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get"
                  and any(on_id(arg) for arg in node.args)):
                found.append(f"{path.name}:{node.lineno}: .get(.id)")
            elif isinstance(node, ast.Compare) and on_id(node.left) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
            ):
                found.append(f"{path.name}:{node.lineno}: .id in")
    return found


def test_only_the_catalog_knows_a_family():
    """Every fact about a family (its axioms, its gamma) is read from its form record:
    outside ``catalog``, no module reads a spec's parameters or keeps a table keyed on
    its id.  ``perfbench``'s counter sees only comparisons of an id with a literal."""
    assert _family_reads(Path(verify.__file__).parent) == []


def test_the_family_gate_sees_planted_reads(tmp_path):
    """The gate is not vacuous: a parameter read and a subscript, ``.get`` or ``in`` test
    on an id count anywhere but in ``catalog.py``; an id passed to a call does not."""
    planted = (
        "def gamma(spec):\n    return TABLE[spec.id](spec.params)\n\n"
        "def known(spec):\n    return TABLE.get(spec.id, 0) if spec.id not in SKIP"
        " else PAIRS[(spec.id, 'renyi')]\n\n"
        "def fine(spec, other):\n    return lookup(spec.id), spec.id == other.id\n"
    )
    (tmp_path / "catalog.py").write_text(planted)
    (tmp_path / "planted.py").write_text(planted)
    assert _family_reads(tmp_path) == [
        "planted.py:2: [.id]", "planted.py:2: .params",
        "planted.py:5: .get(.id)", "planted.py:5: .id in", "planted.py:5: [.id]",
    ]


def _walk_references(path: Path) -> tuple[list[int], list[int]]:
    """The lines where a module names ``enumerate_partitions`` (a call, or the function
    passed on), inside ``_PartitionWalk`` and outside it; its import is no reference."""
    tree = ast.parse(path.read_text())
    holder = {
        id(node)
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "_PartitionWalk"
        for node in ast.walk(cls)
    }
    lines = sorted(
        (node.lineno, id(node) in holder)
        for node in ast.walk(tree)
        if getattr(node, "id", getattr(node, "attr", None)) == "enumerate_partitions"
    )
    return [at for at, inside in lines if inside], [at for at, inside in lines if not inside]


def test_verify_walks_the_partitions_only_in_its_pending_walk():
    """The exhaustive oracles enumerate partitions only where a kept table's walk
    waits for its first blocks read."""
    inside, outside = _walk_references(Path(verify.__file__))
    assert len(inside) == 1 and outside == []


def test_the_walk_gate_sees_planted_walks(tmp_path):
    """The gate is not vacuous: a call outside the holder, or the function passed on
    by name or as an attribute, counts; the import and the holder's own call do not."""
    planted = tmp_path / "verify.py"
    planted.write_text(
        "from .partitions import enumerate_partitions\n"
        "class _PartitionWalk:\n    def __getitem__(self, at):\n"
        "        return list(enumerate_partitions(self.n))[at]\n"
        "def _partition_values(n):\n    return list(enumerate_partitions(n))\n"
        "WALKS = map(enumerate_partitions, range(3)), partitions.enumerate_partitions(4)\n"
    )
    assert _walk_references(planted) == ([4], [6, 7, 7])


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


def test_where_every_point_maps_nothing_runs_point_by_point(monkeypatch):
    """With the mapper's per-point fallback raising, the probes and a small
    campaign over the 14 wrapped default specs, and a transform check, still
    return: the array forms map every phi', h, h' and transform point there."""
    def refuse(*args):
        raise AssertionError("a map ran point by point")

    monkeypatch.setattr(catalog, "_outcome", refuse)  # the mapper's call on one point
    wrapped = [spec for spec in default_campaign_specs() if spec.functional.h is not None]
    assert len(wrapped) == 14
    for spec in wrapped:
        axioms.check_basic_axioms(spec, 50, 0)
        classify.check_outer_map_pairing(spec)
    verify.run_monotonicity_campaign(wrapped, [3, 5], 4, 0)
    tsallis = EntropySpec("tsallis", q=2.0)
    classify.check_transform_consistency(
        tsallis, matched_transform_target(tsallis, "renyi"), samples=20, rng_seed=0
    )


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


def _flat_blocks(blocks):
    """Each partition's block count, each block's width and every element, end to end."""
    counts = np.fromiter(map(len, blocks), dtype=np.intp, count=len(blocks))
    block_widths = np.fromiter(map(len, chain.from_iterable(blocks)), dtype=np.intp)
    elements = np.fromiter(chain.from_iterable(chain.from_iterable(blocks)), dtype=np.intp)
    return counts, block_widths, elements


def _flat_blocks_shape(n):
    """The lattice shape of n as it was derived from the partitions' blocks, before
    label rows: ``_flat_blocks`` of the recursive reference's blocks (not the kept
    partitions, which are built from the label rows under test), the (partition,
    merge, element) tensor and each merge found by ``np.searchsorted`` of base-n codes."""
    k, block_widths, elements = _flat_blocks(list(_recursive_enumeration(n)))
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
    masks = np.add.reduceat(1 << elements, verify._starts(block_widths))
    plan = verify._kernel_plan(k[:-1], verify._subset_masses, masks[:-n] - 1)
    vs = np.flatnonzero(kind)  # the corollary's rows, and the identity's blocks
    corollary = finer[vs], coarser[vs], kind[vs], tuple((i,) for i in range(n))
    return plan, (finer, coarser, kind, corollary)


def _same(a, b):
    """Equal nested tuples and lists of arrays, dtypes and shapes included."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


@pytest.mark.parametrize("n", range(1, 9))
def test_lattice_shape_from_label_rows_equals_the_one_from_reference_blocks(n, monkeypatch):
    monkeypatch.setattr(verify, "_LATTICE_SHAPES", {})
    partitions._label_rows.cache_clear()
    verify.exhaustive_lattice_check(EntropySpec("shannon"), FiniteDistribution(np.full(n, 1 / n)))
    assert _same(verify._LATTICE_SHAPES[n], _flat_blocks_shape(n))


def test_n8_partitions_and_oracles_grow_only_the_kept_tables(monkeypatch):
    """Every cache cleared and any growth refused but the kept tables' own (from one
    state up to at most n = 8): ``gentropy partitions --n 8`` and both oracles at
    n = 8 still write their pinned bytes."""
    from test_cli import _PINNED_ORACLES, _HashingStdout

    grow, grown = partitions._grow, []

    def kept_only(labels, masks, k, states):
        if k.size != 1 or states.start != 1 or states.stop > partitions.LATTICE_LIMIT:
            raise AssertionError(f"grew {k.size} rows by states {states}")
        grown.append(states.stop)
        return grow(labels, masks, k, states)

    monkeypatch.setattr(partitions, "_grow", kept_only)
    monkeypatch.setattr(verify, "_LATTICE_SHAPES", {})
    monkeypatch.setattr(verify, "_KEPT_TABLE", (None,) * 6)
    partitions._label_rows.cache_clear()
    partitions._kept_partitions.cache_clear()
    sink = _HashingStdout()
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", sink)
        assert main(["partitions", "--n", "8"]) == 0
    assert sink.sha.hexdigest() == "86f795f124907e4c12da7041ae5b0ac57be7cfbc1d51d8acffa37d178c77343d"
    assert grown == [8]  # the n = 8 table, rebuilt from its root
    dist = sample_dirichlet_uniform(8, 0)
    for spec_json, *digests in _PINNED_ORACLES:
        spec = spec_from_json(json.dumps(spec_json))
        for check, digest in zip((verify.exhaustive_lattice_check, verify.corollary1_check), digests):
            assert hashlib.sha256(verify.emit_report(check(spec, dist))).hexdigest() == digest


def _certify_pass(monkeypatch):
    """``classify`` and ``axioms`` with default options for the 61 specs, stdout discarded."""
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", io.StringIO())
        for spec in default_campaign_specs() + [EntropySpec("counterexample_HE")]:
            main(["classify", "--entropy", spec_to_json(spec)])
            main(["axioms", "--entropy", spec_to_json(spec)])


def test_one_certify_pass_builds_each_kept_input_once_per_key(monkeypatch):
    """Two slope grids (with and without the counterexample's breakpoints), two
    basic-axiom draws (zero-safe or not) and one set of product pairs."""
    built = {}
    for module, name in ((classify, "_slope_grid"), (axioms, "_draw_basic"),
                         (axioms, "_product_pairs")):
        def counting(*key, build=getattr(module, name), name=name):
            built[name] = built.get(name, 0) + 1
            return build(*key)

        monkeypatch.setattr(module, name, counting)
    _certify_pass(monkeypatch)
    assert built == {"_slope_grid": 2, "_draw_basic": 2, "_product_pairs": 1}


def test_kept_inputs_are_read_only_and_bounded(monkeypatch):
    _certify_pass(monkeypatch)
    arrays = []
    for value, size in axioms._KEPT_INPUTS.values():
        arrays += axioms._arrays(value)
        assert size == sum(a.nbytes for a in axioms._arrays(value))
    assert len(axioms._KEPT_INPUTS) == 5 and len(arrays) > 20
    assert not any(a.flags.writeable for a in arrays)
    assert sum(size for _, size in axioms._KEPT_INPUTS.values()) < 2_000_000

    # other seeds' inputs push the least recently used out, within the bound
    for seed in range(1, 6):
        axioms.check_basic_axioms(EntropySpec("shannon"), 1000, seed)
        assert sum(size for _, size in axioms._KEPT_INPUTS.values()) <= axioms._KEPT_BYTES
        assert (axioms._draw_basic, True, 1000, seed) in axioms._KEPT_INPUTS
    assert (axioms._draw_basic, True, 1000, 0) not in axioms._KEPT_INPUTS


def test_an_input_above_its_cap_is_built_per_call_and_not_kept(monkeypatch):
    """A slope grid at density 1000 holds about 8 MB: each call builds its own."""
    built, build = [], classify._slope_grid
    monkeypatch.setattr(classify, "_slope_grid", lambda *key: built.append(key) or build(*key))
    for _ in range(2):
        classify.check_slope_condition(EntropySpec("shannon"), 1000)
    assert built == [(1000, ())] * 2 and not axioms._KEPT_INPUTS


def test_threads_share_the_store_safely():
    """Four threads, switching every microsecond, ask in turn for 16 inputs of 400 kB,
    so the store builds, keeps and drops inputs all the while, and a fifth empties it
    over and over: each call gets its own key's input, and the store stays within its
    bound."""
    def build(k):
        return (np.full(50_000, float(k)),)

    def ask(offset):
        keys = [(offset + i) % 16 for i in range(2000)]
        return all(axioms._kept(build, k)[0][0] == k for k in keys)

    def clear():
        for _ in range(500):
            time.sleep(1e-4)  # the store fills up between two clears
            axioms._clear_kept()
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=5) as pool:
            futures = [pool.submit(ask, offset) for offset in range(4)] + [pool.submit(clear)]
            assert all(future.result(timeout=120) for future in futures)
    finally:
        sys.setswitchinterval(interval)
    assert sum(size for _, size in axioms._KEPT_INPUTS.values()) <= axioms._KEPT_BYTES


def test_a_build_holds_back_no_read_of_a_kept_input():
    """The lock guards the store, not a build: while one thread builds an input,
    another reads a kept one."""
    building, release = threading.Event(), threading.Event()

    def build(k):
        if k:
            building.set()
            release.wait(timeout=60)
        return (np.full(3, float(k)),)

    axioms._kept(build, 0)
    with ThreadPoolExecutor(max_workers=2) as pool:
        slow = pool.submit(axioms._kept, build, 1)
        try:
            assert building.wait(timeout=60)
            assert pool.submit(axioms._kept, build, 0).result(timeout=10)[0][0] == 0.0
        finally:
            release.set()
        assert slow.result(timeout=60)[0][0] == 1.0
    assert set(axioms._KEPT_INPUTS) == {(build, 0), (build, 1)}


# Runs in a fresh interpreter that must leave ``numpy.ma`` unimported: numpy
# functions such as ``np.unique`` import it, which costs about 1 MB of peak RSS
# and 15 ms of start-up on every CLI call.
_TSALLIS = '{"id": "tsallis", "params": {"q": 2.0}}'
_FRESH_RUNS = {
    "verify --all": ["main(['verify', '--all', '--n', '3..5', '--cases', '2'])"],
    "classify and axioms": [f"main(['classify', '--entropy', '{_TSALLIS}'])",
                            f"main(['axioms', '--entropy', '{_TSALLIS}'])"],
    "n = 8 lattice and corollary": [
        "dist, spec = sample_dirichlet_uniform(8, 0), EntropySpec('shannon')",
        "assert exhaustive_lattice_check(spec, dist).passed",
        "assert corollary1_check(spec, dist).passed",
    ],
}


@pytest.mark.parametrize("run", list(_FRESH_RUNS))
def test_runs_leave_numpy_ma_unimported(run):
    from test_cli import _CHILD_ENV

    code = "\n".join((
        "import sys",
        "from gentropy import EntropySpec, corollary1_check, exhaustive_lattice_check",
        "from gentropy import sample_dirichlet_uniform",
        "from gentropy.cli import main",
        *_FRESH_RUNS[run],
        "print('numpy.ma' in sys.modules, file=sys.stderr)",
    ))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_CHILD_ENV, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "False"
