"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

from pathlib import Path
import gc
import json
import sys

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

from gentropy import (  # noqa: E402
    EntropySpec,
    bell_number,
    cli,
    corollary1_check,
    default_campaign_specs,
    sample_dirichlet_uniform,
    verify,
)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_lattice_entry_formula(n):
    assert sum(checks.stirling2(n, k) for k in range(n + 1)) == bell_number(n)
    dist = sample_dirichlet_uniform(n, n)
    spec = EntropySpec("shannon")
    assert len(verify.exhaustive_lattice_check(spec, dist).entries) == checks.lattice_entry_count(n)
    assert len(corollary1_check(spec, dist).entries) == checks.corollary_entry_count(n)


def _campaign_bytes(argv) -> bytes:
    code, sink, error = worker._cli_call(cli, argv)
    assert code == 0 and error is None
    return sink.data()


def test_tracing_is_invisible_in_campaign_output():
    argv = ["verify", "--all", "--n", "3..5", "--cases", "2", "--seed", "11"]
    plain = _campaign_bytes(argv)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _campaign_bytes(argv)
        # class attributes still resolve through the construction proxies
        assert verify.Partition.identity(3).k == 3
        dist = sample_dirichlet_uniform(4, 0)
        verify.exhaustive_lattice_check(EntropySpec("tsallis", q=2.0), dist)
    finally:
        tracer.uninstall()
    assert traced == plain
    layers = tracer.layer_metrics()
    assert layers["partitions.pair_sampler.calls"] == 60 * 3 * 2
    assert layers["verify.emit.bytes"] == len(plain)
    assert layers["partitions.enumerate.partitions"] == bell_number(4)
    assert 0 < layers["verify.lattice.evals_per_edge"] < 1
    assert not hasattr(verify.evaluate, "__wrapped__")  # uninstall restored the originals


def test_campaign_check_catches_wrong_output():
    specs = default_campaign_specs()
    data = _campaign_bytes(["verify", "--all", "--n", "3..4", "--cases", "7", "--seed", "3"])
    assert checks.check_campaign_output(data, specs, (3, 4), 7) == (120, 0)
    assert checks.check_campaign_output(data, specs, (3, 4), 6) == (120, 120)

    report = json.loads(data)
    report["entries"][0]["value_finer"] *= 1 + 1e-9
    cells, failed = checks.check_campaign_output(json.dumps(report).encode(), specs, (3, 4), 7)
    assert failed == 1

    report = json.loads(data)
    del report["entries"][14]["probs"]
    assert checks.check_campaign_output(json.dumps(report).encode(), specs, (3, 4), 7) == (120, 1)

    report = json.loads(data)
    report["entries"][7]["margin"] = float("nan")
    assert checks.check_campaign_output(json.dumps(report).encode(), specs, (3, 4), 7) == (120, 120)


def test_calibration_leaves_the_collector_on():
    assert worker.calibration_s() > 0
    assert gc.isenabled()


def test_tail_keeps_ten_units_beyond():
    assert run._tail(list(range(1, 122 + 1)))[0] == 91
    assert run._tail(list(range(1, 21 + 1)))[0] == 52
    assert run._tail([3.0, 1.0, 2.0]) == (100, 3.0)


def test_benchmark_json_lists_every_layer_metric():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    names = set(run.layer_units())
    assert names == set(tracer.layer_metrics()) | {"trace.overhead_pct"}
