"""Value transforms between monotonically-related functionals."""

import math

import numpy as np
import pytest

from gentropy import (
    EntropySpec,
    FiniteDistribution,
    TRANSFORM_PAIRS,
    check_transform_consistency,
    evaluate,
    matched_transform_target,
    transform_between,
)
from gentropy import classify
from gentropy.distributions import _dirichlet_interior
from gentropy.errors import DomainViolation, UnsupportedPair


def test_tsallis_to_renyi_pinned():
    src = EntropySpec("tsallis", q=2.0)
    assert transform_between(src, "renyi", 0.5) == pytest.approx(
        math.log(2), abs=1e-14
    )


def test_transforms_fix_zero():
    for source_id, target_id in TRANSFORM_PAIRS:
        source = EntropySpec(source_id, q=1.5)
        assert transform_between(source, target_id, 0.0) == pytest.approx(
            0.0, abs=1e-15
        )
        target = matched_transform_target(source, target_id)
        back = transform_between(target, source_id, 0.0)
        assert back == pytest.approx(0.0, abs=1e-15)


def test_transform_round_trips():
    rng = np.random.default_rng(2)
    for source_id, target_id in TRANSFORM_PAIRS:
        for q in (0.5, 1.5):
            source = EntropySpec(source_id, q=q)
            target = matched_transform_target(source, target_id)
            for _ in range(50):
                # stay inside every pair's domain: q = 1.5 caps values at 2
                value = float(rng.uniform(0.0, 1.4))
                there = transform_between(source, target_id, value)
                back = transform_between(target, source_id, there)
                assert back == pytest.approx(value, rel=1e-12, abs=1e-12)


def test_renyi_tsallis_identity_thousand_cases():
    """Residual of the log transform against direct evaluation, 10^3 cases."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for index in range(1000):
        q = float(rng.uniform(0.1, 3.0))
        if abs(q - 1.0) < 1e-3:
            q = 1.5
        n = 2 + index % 6
        dist = FiniteDistribution(rng.dirichlet(np.ones(n)))
        tsallis = EntropySpec("tsallis", q=q)
        renyi = EntropySpec("renyi", q=q)
        mapped = transform_between(tsallis, "renyi", evaluate(tsallis, dist))
        worst = max(worst, abs(mapped - evaluate(renyi, dist)))
    assert worst <= 1e-10


def test_mathai_star_transform_cross_check():
    src = EntropySpec("mathai_Mq", q=1.5)
    dist = FiniteDistribution([0.5, 0.5])
    value = evaluate(src, dist)
    expected = math.log(1.0 + 0.5 * value) / 0.5
    assert transform_between(src, "mathai_Mq_star", value) == pytest.approx(
        expected, abs=1e-14
    )
    assert evaluate(EntropySpec("mathai_Mq_star", q=1.5), dist) == pytest.approx(
        expected, abs=1e-12
    )


def test_transform_domain_violation():
    src = EntropySpec("tsallis", q=3.0)
    with pytest.raises(DomainViolation):
        transform_between(src, "renyi", 1.0)  # 1 + (1-3)*1 <= 0


def test_unsupported_pairs():
    with pytest.raises(UnsupportedPair):
        transform_between(EntropySpec("shannon"), "renyi", 1.0)
    with pytest.raises(UnsupportedPair):
        matched_transform_target(EntropySpec("renyi", q=2.0), "havrda_charvat")


def test_consistency_reports_for_all_pairs():
    """Ordering preservation across the four registered transform edges."""
    for source_id, target_id in TRANSFORM_PAIRS:
        for q in (0.5, 1.5):
            source = EntropySpec(source_id, q=q)
            target = matched_transform_target(source, target_id)
            report = check_transform_consistency(source, target, samples=250, rng_seed=3)
            assert report.passed, report.to_dict()
            assert report.compared_pairs > 0


def test_consistency_rejects_mismatched_target():
    source = EntropySpec("tsallis", q=2.0)
    wrong = EntropySpec("renyi", q=0.5)
    with pytest.raises(UnsupportedPair):
        check_transform_consistency(source, wrong, samples=10, rng_seed=0)


def _reference_consistency(source, target, samples, rng_seed):
    """The check sample by sample: ``FiniteDistribution`` and ``evaluate`` on
    each draw, the transform on each source value, in the order of the walk."""
    rng = np.random.default_rng(rng_seed)
    values, max_residual, ordering_ok, compared = [], 0.0, True, 0
    for index in range(samples):
        n = 3 + index % 6
        p = FiniteDistribution(_dirichlet_interior(n, rng, 1e-9))
        q = FiniteDistribution(_dirichlet_interior(n, rng, 1e-9))
        sp, sq = evaluate(source, p), evaluate(source, q)
        tp, tq = evaluate(target, p), evaluate(target, q)
        max_residual = max(
            max_residual,
            abs(transform_between(source, target.id, sp) - tp),
            abs(transform_between(source, target.id, sq) - tq),
        )
        if abs(sp - sq) > 1e-8:
            compared += 1
            ordering_ok &= (sp - sq) * (tp - tq) > 0.0
        values += [sp, sq]
    ordered = sorted(values)
    increasing_ok = all(
        transform_between(source, target.id, b) > transform_between(source, target.id, a)
        for a, b in zip(ordered, ordered[1:])
        if b - a > 1e-12
    )
    return {
        "source": source.label(),
        "target": target.label(),
        "samples": samples,
        "increasing_ok": increasing_ok,
        "ordering_ok": ordering_ok,
        "compared_pairs": compared,
        "max_transform_residual": max_residual,
        "passed": increasing_ok and ordering_ok and max_residual <= 1e-10,
    }


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the outcome under comparison
        return type(exc), str(exc)


@pytest.mark.parametrize("source_id, target_id, q, samples, seed", [
    *((s, t, q, 40, 1) for pair in TRANSFORM_PAIRS for s, t in (pair, pair[::-1])
      for q in (0.5, 1.5)),
    ("renyi", "tsallis", 944.0, 7, 1),  # the kernel's NonFinite escapes
    ("tsallis", "renyi", 944.0, 250, 3),  # a transform's DomainViolation comes first
])
def test_consistency_equals_the_per_sample_walk(source_id, target_id, q, samples, seed):
    """The batched check returns, or raises, what the walk sample by sample does."""
    source = EntropySpec(source_id, q=q)
    target = matched_transform_target(source, target_id)
    expected = _outcome(lambda: _reference_consistency(source, target, samples, seed))
    report = _outcome(lambda: check_transform_consistency(source, target, samples, seed))
    assert (report if isinstance(report, tuple) else report.to_dict()) == expected


REPORT_KEYS = {
    "source", "target", "samples", "increasing_ok", "ordering_ok", "compared_pairs",
    "max_transform_residual", "passed",
}


def test_consistency_flags_a_decreasing_transform(monkeypatch):
    """A planted order-reversing transform fails the increasing check and the residual."""
    monkeypatch.setattr(classify, "_transform_map", lambda s, t: lambda v: -v)
    source = EntropySpec("tsallis", q=2.0)
    report = check_transform_consistency(
        source, matched_transform_target(source, "renyi"), samples=50, rng_seed=0
    )
    assert not report.increasing_ok and report.ordering_ok
    assert report.max_transform_residual > 1e-10 and not report.passed
    as_dict = report.to_dict()
    assert set(as_dict) == REPORT_KEYS
    assert as_dict["increasing_ok"] is False and as_dict["passed"] is False
    assert as_dict["samples"] == 50 and as_dict["source"] == source.label()


def test_consistency_flags_an_order_reversing_target(monkeypatch):
    """A target ranking every compared pair the other way fails the ordering check."""
    source = EntropySpec("tsallis", q=2.0)
    reversed_target = EntropySpec("h_phi_custom", phi=lambda x: x * x - x)  # -(x - x**2)
    monkeypatch.setattr(classify, "matched_transform_target", lambda s, t: reversed_target)
    monkeypatch.setattr(classify, "_transform_map", lambda s, t: lambda v: v)
    report = check_transform_consistency(source, reversed_target, samples=50, rng_seed=0)
    assert report.increasing_ok and not report.ordering_ok and not report.passed
    assert report.compared_pairs > 0
    assert set(report.to_dict()) == REPORT_KEYS
    assert report.to_dict()["ordering_ok"] is False
