"""Outside-in span tracer for gentropy.

Timing wrappers are installed around the names that ``gentropy.verify``,
``gentropy.axioms``, ``gentropy.classify``, ``gentropy.catalog`` and
``gentropy.cli`` look up at call time, so nothing under ``src/`` changes.
Each wrapped call records one span: layer name, parent span, start, end and
one integer (elements, bytes, entries or partitions, depending on the layer).
Spans live in flat arrays in memory and are written out once at the end.

A span's self time is its duration minus the durations of its direct
children.  A name that the program no longer looks up is simply never
called and reports ``calls = 0``.

Which end-to-end figures each layer should move, on which workload, as
shares of unit time in a traced run at seed 0 (2-core x86 VM, Python 3.11,
numpy 2.4); a faster layer can save at most its share:

* ``campaign`` items_per_s and unit_ms: pair sampler 23 %, emission 20 %
  (which also sets peak_rss_mb), coarse_grain 18 %, engine self time 17 %,
  evaluate 10 %, Dirichlet draws 5 %, FiniteDistribution 5 %.
* ``lattice`` items_per_s and unit_ms: lattice self time 28 %, Partition
  construction 25 %, coarse_grain 19 %, records 11 %, evaluate 9 %,
  enumeration 3 %.  A sampler or emitter change should move nothing here.
* ``certify`` items_per_s and unit_ms: axioms self time 37 %,
  FiniteDistribution 26 %, evaluate 24 %, Dirichlet draws 8 %, incomplete
  gamma 2 % (concentrated in the s_cd specs, so it shows in unit_ms.tail),
  grid certificates 2 %.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
import importlib
import time

import numpy as np

# Catalog ids whose evaluation cost is reported one by one: the 22 ids of the
# default campaign catalog plus the built-in counterexample.
EVALUATE_IDS = (
    "shannon", "renyi", "tsallis", "genetic", "paired", "hypoentropy",
    "sharma_mittal_rs", "universal_group", "s_cd", "s_delta", "borges_roditi",
    "s_III", "s_IV", "three_param", "two_param", "abe", "kaniadakis",
    "gamma_entropy", "nath", "havrda_charvat", "mathai_Mq", "mathai_Mq_star",
    "counterexample_HE",
)

_EVALUATE = "catalog.evaluate"

_SHARED = {
    "Partition": "partitions.construct",
    "FiniteDistribution": "distributions.construct",
    "CaseRecord": "verify.record",
    "evaluate": _EVALUATE,
    "coarse_grain": "distributions.coarse_grain",
    "_dirichlet_interior": "distributions.dirichlet",
    "_random_refinement_pair": "partitions.pair_sampler",
    "enumerate_partitions": "partitions.enumerate",
}

# Module -> {name it looks up at call time: layer}.  ``cli`` reaches the
# verify functions through ``verify_mod.<name>``, so they are wrapped in verify.
LOOKED_UP = {
    "verify": {
        **_SHARED,
        "run_monotonicity_campaign": "verify.campaign",
        "exhaustive_lattice_check": "verify.lattice",
        "corollary1_check": "verify.corollary",
        "emit_report": "verify.emit",
    },
    "axioms": dict(_SHARED),
    "classify": dict(_SHARED),
    "catalog": {"upper_incomplete_gamma": "special.incgamma"},
    "cli": {
        **_SHARED,
        "check_slope_condition": "classify.slope",
        "check_concavity": "classify.concavity",
        "check_outer_map_pairing": "classify.pairing",
        "check_basic_axioms": "axioms.basic",
        "residual_product_composability": "axioms.product",
        "main": "cli",
    },
}


class _ClassSpan:
    """Times construction of a class while forwarding its attributes.

    Call sites such as ``Partition.identity(n)`` or
    ``FiniteDistribution.from_json(text)`` keep working through the proxy.
    """

    def __init__(self, cls, construct):
        self._cls = cls
        self._construct = construct

    def __call__(self, *args, **kwargs):
        return self._construct(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._cls, attr)


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.aux = array("q")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers --------------------------------------------------------
    def wrap(self, name, fn, aux=None, name_of=None):
        """Wrap ``fn`` so each call records one span.

        ``aux(args, result)`` gives the span's integer; ``name_of(args)``
        picks a per-call layer name id (used for per-id evaluation).
        """
        nid = self.name_id(name)
        names, parents, starts, ends, auxs = (
            self.name, self.parent, self.start, self.end, self.aux
        )
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid if name_of is None else name_of(args))
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            auxs.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if aux is not None:
                auxs[idx] = aux(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_iterator(self, name, fn):
        """Wrap a generator function: time each ``next``, not the creation."""
        nid = self.name_id(name)
        names, parents, starts, ends, auxs = (
            self.name, self.parent, self.start, self.end, self.aux
        )
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def iterate():
                while True:
                    idx = len(names)
                    names.append(nid)
                    parents.append(stack[-1])
                    starts.append(0.0)
                    ends.append(0.0)
                    auxs.append(0)
                    stack.append(idx)
                    t0 = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        t1 = clock()
                        stack.pop()
                        starts[idx] = t0
                        ends[idx] = t1
                    auxs[idx] = 1
                    yield item

            return iterate()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every name in ``LOOKED_UP`` in the modules that look it up.

        :meth:`uninstall` restores the originals; pair every install with one.
        """
        aux = {
            "evaluate": lambda args, result: args[1].n,
            "run_monotonicity_campaign": self._report_entries,
            "exhaustive_lattice_check": self._report_entries,
            "corollary1_check": self._report_entries,
            "emit_report": lambda args, result: len(result),
            "check_basic_axioms": lambda args, result: sum(r.cases_run for r in result),
        }
        evaluate_ids = {i: self.name_id(f"{_EVALUATE}:{i}") for i in EVALUATE_IDS}
        evaluate_other = self.name_id(f"{_EVALUATE}:other")
        replacements: dict[int, object] = {}
        for module_name, names in LOOKED_UP.items():
            module = importlib.import_module(f"gentropy.{module_name}")
            for attr, layer in names.items():
                original = getattr(module, attr, None)
                if original is None:
                    continue  # the program no longer looks this name up
                if id(original) not in replacements:
                    if isinstance(original, type):
                        wrapped = _ClassSpan(original, self.wrap(layer, original))
                    elif attr == "enumerate_partitions":
                        wrapped = self.wrap_iterator(layer, original)
                    elif attr == "evaluate":
                        wrapped = self.wrap(
                            layer, original, aux=aux[attr],
                            name_of=lambda args: evaluate_ids.get(args[0].id, evaluate_other),
                        )
                    else:
                        wrapped = self.wrap(layer, original, aux=aux.get(attr))
                    replacements[id(original)] = wrapped
                self._installed.append((module, attr, original))
                setattr(module, attr, replacements[id(original)])

    def _report_entries(self, args, result) -> int:
        entries = result.entries
        self.counters["verify.entries"] += len(entries)
        self.counters["verify.evaluated"] += sum(1 for e in entries if e.skipped is None)
        return len(entries)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # -- results ---------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "aux": np.frombuffer(self.aux, dtype=np.int64),
        }

    def write(self, path) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def calls(self) -> dict[str, int]:
        """Calls per wrapped layer, zero for a layer never called."""
        counts = np.bincount(self.arrays()["name"], minlength=len(self.names))
        out: dict[str, int] = defaultdict(int)
        for name, count in zip(self.names, counts):
            out[name.split(":")[0]] += int(count)
        return dict(out)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and costs, keyed by the benchmark's metric names."""
        spans = self.arrays()
        name, parent, aux = spans["name"], spans["parent"], spans["aux"]
        dur = spans["end"] - spans["start"]
        count = len(self.names)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        calls = np.bincount(name, minlength=count)
        total = np.bincount(name, weights=dur, minlength=count)
        self_time = np.bincount(name, weights=dur - child, minlength=count)
        aux_sum = np.bincount(name, weights=aux, minlength=count)

        def ids(prefix):
            return [i for i, n in enumerate(self.names) if n == prefix or n.startswith(prefix + ":")]

        def agg(prefix, table):
            return float(sum(table[i] for i in ids(prefix)))

        def per(numerator, denominator, scale=1.0):
            return numerator / denominator * scale if denominator else 0.0

        m: dict[str, float] = {}
        for layer in ("partitions.pair_sampler", "partitions.construct",
                      "distributions.dirichlet", "distributions.construct",
                      "distributions.coarse_grain", "catalog.evaluate",
                      "special.incgamma", "verify.record"):
            n_calls = agg(layer, calls)
            m[f"{layer}.calls"] = int(n_calls)
            m[f"{layer}.us_per_call"] = per(agg(layer, total), n_calls, 1e6)
        partitions = agg("partitions.enumerate", aux_sum)
        m["partitions.enumerate.partitions"] = int(partitions)
        m["partitions.enumerate.us_per_partition"] = per(
            agg("partitions.enumerate", total), partitions, 1e6
        )
        m["catalog.evaluate.elements_per_call"] = per(
            agg(_EVALUATE, aux_sum), agg(_EVALUATE, calls)
        )
        for spec_id in EVALUATE_IDS:
            i = self._ids[f"{_EVALUATE}:{spec_id}"]
            m[f"{_EVALUATE}.{spec_id}.us_per_call"] = per(total[i], calls[i], 1e6)
        for check in ("slope", "concavity", "pairing"):
            layer = f"classify.{check}"
            m[f"{layer}.ms_per_call"] = per(agg(layer, total), agg(layer, calls), 1e3)
        m["axioms.basic.self_ms_per_call"] = per(
            agg("axioms.basic", self_time), agg("axioms.basic", calls), 1e3
        )
        m["axioms.basic.cases"] = int(agg("axioms.basic", aux_sum))
        m["verify.campaign.self_us_per_case"] = per(
            agg("verify.campaign", self_time), agg("verify.campaign", aux_sum), 1e6
        )
        edges = agg("verify.lattice", aux_sum)
        m["verify.lattice.self_us_per_edge"] = per(agg("verify.lattice", self_time), edges, 1e6)
        m["verify.lattice.evals_per_edge"] = per(
            self._count_under(spans, ids(_EVALUATE), ids("verify.lattice")), edges
        )
        m["verify.entries"] = int(self.counters["verify.entries"])
        m["verify.useful_ratio"] = per(
            self.counters["verify.evaluated"], self.counters["verify.entries"]
        )
        m["verify.emit.s"] = per(agg("verify.emit", total), agg("verify.emit", calls))
        m["verify.emit.bytes"] = per(agg("verify.emit", aux_sum), agg("verify.emit", calls))
        m["cli.self_s"] = per(agg("cli", self_time), agg("cli", calls))
        return m

    @staticmethod
    def _count_under(spans, inner_ids, outer_ids) -> int:
        """Number of spans named in ``inner_ids`` with an ancestor in ``outer_ids``."""
        name, parent = spans["name"], spans["parent"]
        inner = np.flatnonzero(np.isin(name, inner_ids))
        outer = np.isin(name, outer_ids)
        found = np.zeros(inner.size, dtype=bool)
        cursor = parent[inner]
        while True:
            alive = cursor >= 0
            if not alive.any():
                return int(found.sum())
            found[alive] |= outer[cursor[alive]]
            cursor = np.where(alive, parent[np.maximum(cursor, 0)], -1)
