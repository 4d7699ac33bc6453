"""Run one benchmark workload in a fresh, single-threaded process.

Usage (normally started by ``run.py``)::

    python3 perfbench/worker.py --workload campaign --seed 0 --units 29 \
        --trace 0 --out perfbench/out/campaign-seed0-trace0

The worker times set-up (import, spec list, warm-up), then each unit of
work, and writes ``result.json`` into ``--out``.  ``--units 0`` measures
set-up only.  With ``--trace 1`` every unit runs traced, and the first
``--reference`` units also run untraced, back to back with their traced
run, so the two timings of the same units give the tracing overhead.
Campaign emissions
are written next to the result for ``run.py`` to check, outside the
worker, so that checking does not count towards the worker's peak memory.
"""

from __future__ import annotations

from pathlib import Path
import argparse
import gc
import hashlib
import io
import json
import platform
import random
import resource
import sys
import time
import traceback

from checks import strict_json

# Campaign: the north-star command at 5 cases per (spec, n) cell, so that a
# run holds many independent invocations; invocation i uses seed 1000*S + i.
CAMPAIGN_N = "3..8"
CAMPAIGN_N_VALUES = tuple(range(3, 9))
CAMPAIGN_CASES = 5
# Lattice: n = 8 (Bell(8) = 4140 partitions); unit i checks spec 3*i mod 61,
# so consecutive units visit a different family each, counterexample_HE
# included within the first 21.
LATTICE_N = 8
LATTICE_STRIDE = 3


def calibration_s() -> float:
    """Time one fixed chunk of interpreter and small-array work.

    The chunk mixes what the workloads spend their time on (small lists,
    tuples and dicts, tiny numpy reductions) but runs no gentropy code, so a
    change to the program never changes it.  Its time tracks the speed the
    shared host gives this process at that moment; ``run.py`` divides unit
    times by it.  The collector is off so that the program's heap size
    cannot leak into the figure.
    """
    import numpy as np

    x = np.arange(8.0)
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(3000):
            blocks = [[j] for j in range(8)]
            chunk = tuple(tuple(b) for b in blocks)
            acc += float(np.sum(x[[0, 2, 4]])) + len({"k": chunk, "i": i})
        return time.perf_counter() - t0
    finally:
        gc.enable()


def unit_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


class _Sink(io.TextIOBase):
    """Stand-in stdout that keeps, hashes and counts what the CLI writes."""

    def __init__(self):
        self.chunks: list[bytes] = []
        self.sha = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.sha.update(data)
        self.chunks.append(data)
        return len(text)

    def data(self) -> bytes:
        return b"".join(self.chunks)


def _cli_call(cli, argv) -> tuple[int | None, _Sink, str | None]:
    sink, saved = _Sink(), sys.stdout
    sys.stdout = sink
    try:
        return cli.main(argv), sink, None
    except Exception:  # a crashing call is a failed operation, not a crashed run
        return None, sink, traceback.format_exc(limit=4)
    finally:
        sys.stdout = saved


def _all_specs(catalog):
    return catalog.default_campaign_specs() + [catalog.EntropySpec("counterexample_HE")]


class Campaign:
    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        from gentropy import catalog, cli

        self.cli = cli
        self.specs = catalog.default_campaign_specs()
        _cli_call(cli, ["verify", "--all", "--n", "3..4", "--cases", "1", "--seed", str(self.seed)])

    def unit(self, index: int):
        seed = unit_seed(self.seed, index)
        argv = ["verify", "--all", "--n", CAMPAIGN_N, "--cases", str(CAMPAIGN_CASES),
                "--seed", str(seed)]
        t0 = time.perf_counter()
        code, sink, error = _cli_call(self.cli, argv)
        seconds = time.perf_counter() - t0
        data = sink.data()
        return seconds, len(self.specs) * len(CAMPAIGN_N_VALUES) * CAMPAIGN_CASES, {
            "seed": seed, "exit": code, "error": error,
            "sha256": sink.sha.hexdigest(), "bytes": len(data),
        }, data


class Lattice:
    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        from gentropy import catalog, distributions, verify

        self.verify, self.distributions = verify, distributions
        self.specs = _all_specs(catalog)
        dist = distributions.sample_dirichlet_uniform(5, self.seed)
        verify.exhaustive_lattice_check(self.specs[0], dist)
        verify.corollary1_check(self.specs[0], dist)

    def unit(self, index: int):
        spec = self.specs[(LATTICE_STRIDE * index) % len(self.specs)]
        dist = self.distributions.sample_dirichlet_uniform(LATTICE_N, unit_seed(self.seed, index))
        reports, error = [], None
        t0 = time.perf_counter()
        try:
            reports.append(self.verify.exhaustive_lattice_check(spec, dist))
            reports.append(self.verify.corollary1_check(spec, dist))
        except Exception:
            error = traceback.format_exc(limit=4)
        seconds = time.perf_counter() - t0
        checks = [
            {"spec": spec.label(), "kind": kind, "error": error if r is None else None,
             "entries": 0 if r is None else len(r.entries),
             "violations": 0 if r is None else len(r.violations)}
            for kind, r in zip(("lattice", "corollary"), reports + [None, None])
        ]
        return seconds, checks[0]["entries"], checks, None


class Certify:
    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        from gentropy import catalog, cli

        self.cli = cli
        self.specs = _all_specs(catalog)
        self.texts = [catalog.spec_to_json(spec) for spec in self.specs]
        self.orders: dict[int, list[int]] = {}
        _cli_call(cli, ["classify", "--entropy", self.texts[0]])
        _cli_call(cli, ["axioms", "--entropy", self.texts[0], "--samples", "20"])

    def unit(self, index: int):
        # Each pass visits every spec once, in an order drawn from the seed.
        npass, slot = divmod(index, len(self.specs))
        if npass not in self.orders:
            rng = random.Random(unit_seed(self.seed, npass))
            self.orders[npass] = rng.sample(range(len(self.specs)), len(self.specs))
        k = self.orders[npass][slot]
        label, text = self.specs[k].label(), self.texts[k]
        t0 = time.perf_counter()
        classify = _cli_call(self.cli, ["classify", "--entropy", text])
        axioms = _cli_call(
            self.cli,
            ["axioms", "--entropy", text, "--seed", str(unit_seed(self.seed, npass))],
        )
        seconds = time.perf_counter() - t0
        calls = []
        for command, (code, sink, error) in (("classify", classify), ("axioms", axioms)):
            try:
                strict_json(sink.data())
                strict = True
            except ValueError:
                strict = False
            calls.append({"spec": label, "command": command, "exit": code,
                          "error": error, "strict_json": strict})
        return seconds, 1, calls, None


WORKLOADS = {"campaign": Campaign, "lattice": Lattice, "certify": Certify}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--units", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    bench = WORKLOADS[args.workload](args.seed)
    bench.setup()
    setup_s = time.perf_counter() - t0

    import gentropy
    import numpy

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_s": setup_s, "setup_cal_s": [calibration_s() for _ in range(3)],
        "gentropy_file": gentropy.__file__,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "unit_s": [], "unit_items": [], "outputs": [],
        # calibration chunks: one before the first unit and one after each
        "cal_s": [calibration_s()] if args.units else [],
    }

    def run_unit(unit, index: int):
        gc.collect()  # each unit starts from the same heap state
        return unit(index)

    run = bench.unit
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        root = tracer.wrap("bench.unit", bench.unit)  # shared ancestor of a unit's spans
        result["reference_unit_s"], result["reference_outputs"] = [], []

        def traced_unit(index: int):
            tracer.install()
            try:
                return root(index)
            finally:
                tracer.uninstall()

        run = traced_unit

    for index in range(args.units):
        if tracer is not None and index < args.reference:
            # the same unit untraced and traced, back to back in alternating
            # order, so that drift in machine speed cancels from the overhead
            if index % 2 == 0:
                plain, traced = run_unit(bench.unit, index), run_unit(run, index)
            else:
                traced, plain = run_unit(run, index), run_unit(bench.unit, index)
            result["reference_unit_s"].append(plain[0])
            result["reference_outputs"].append(plain[2])
            seconds, items, output, data = traced
        else:
            seconds, items, output, data = run_unit(run, index)
        result["cal_s"].append(calibration_s())
        result["unit_s"].append(seconds)
        result["unit_items"].append(items)
        result["outputs"].append(output)
        if data is not None:  # campaign emissions, checked by run.py
            (args.out / f"campaign-{index}.json").write_bytes(data)
    if tracer is None and args.units and args.workload == "campaign":
        # same code, same seed: the first invocation must repeat byte for byte
        result["repeat_sha256"] = bench.unit(0)[2]["sha256"]
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["layer_calls"] = tracer.calls()
        result["spans"] = len(tracer.name)
        tracer.write(args.out / "spans.npz")
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
