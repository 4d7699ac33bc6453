"""Campaign engine: sampling, exhaustive oracle, determinism, emission."""

from dataclasses import replace
import json
import math

import numpy as np
import pytest

from gentropy import (
    EntropySpec,
    FiniteDistribution,
    Partition,
    coarse_grain,
    corollary1_check,
    counterexample_suite,
    emit_report,
    evaluate,
    exhaustive_lattice_check,
    max_entropy_check,
    report_from_json,
    run_monotonicity_campaign,
)
from gentropy.catalog import default_campaign_specs
from gentropy.distributions import _dirichlet_interior
from gentropy.errors import (
    GentropyError,
    NonFinite,
    TooLarge,
    UnsupportedFormat,
    UserCallableError,
)
from gentropy.partitions import _random_refinement_pair
from gentropy.verify import (
    _INTERIOR_FLOOR,
    CaseRecord,
    VerificationReport,
    _summarize,
)

SHANNON = EntropySpec("shannon")
HE = EntropySpec("counterexample_HE")


def test_campaign_passes_for_shannon():
    report = run_monotonicity_campaign([SHANNON], [3, 4, 5], 50, rng_seed=0)
    assert report.passed
    assert len(report.entries) == 150
    assert all(e.margin is not None and e.margin >= -1e-9 for e in report.entries)


def test_campaign_margin_zero_when_partitions_equal():
    """Aggregating by the same partition twice gives margin exactly zero."""
    dist = FiniteDistribution([0.1, 0.2, 0.3, 0.4])
    part = Partition([[0, 1], [2], [3]], 4)
    a = evaluate(SHANNON, coarse_grain(dist, part))
    assert a - a == 0.0


def test_campaign_shannon_merge_margin_formula():
    """The margin of a single merge is the classic two-entry log gap."""
    report = run_monotonicity_campaign([SHANNON], [3], 100, rng_seed=1)
    for entry in report.entries:
        if entry.skipped:
            continue
        p = np.asarray(entry.probs)
        finer = [sum(p[list(b)]) for b in entry.blocks_finer]
        coarser = [sum(p[list(b)]) for b in entry.blocks_coarser]

        def plogp(vals):
            return -sum(v * math.log(v) for v in vals if v > 0)

        assert entry.margin == pytest.approx(
            plogp(finer) - plogp(coarser), abs=1e-12
        )


def test_campaign_records_counterexample_violation():
    report = run_monotonicity_campaign([HE], [3, 4, 5, 6], 100, rng_seed=2)
    assert not report.passed
    assert len(report.violations) > 0
    worst = min(e.margin for e in report.violations)
    assert worst < -1e-3


def test_campaign_determinism_and_seed_sensitivity():
    specs = [SHANNON, EntropySpec("tsallis", q=2.0)]
    first = run_monotonicity_campaign(specs, [3, 4], 25, rng_seed=7)
    second = run_monotonicity_campaign(specs, [3, 4], 25, rng_seed=7)
    assert emit_report(first, "json") == emit_report(second, "json")
    third = run_monotonicity_campaign(specs, [3, 4], 25, rng_seed=8)
    assert emit_report(first, "json") != emit_report(third, "json")


def test_campaign_skip_accounting():
    """delta = 2 cannot be evaluated on 2-block aggregations: skipped, not failed."""
    spec = EntropySpec("s_delta", delta=2.0)
    report = run_monotonicity_campaign([spec], [3, 4], 100, rng_seed=3)
    assert report.passed
    skipped = [e for e in report.entries if e.skipped]
    assert skipped, "expected some skipped cases at k=2"
    assert all("DeltaExceedsBound" in e.skipped for e in skipped)
    summary = report.summary[0]
    assert summary.skipped == len(skipped)
    assert summary.cases == 200


def test_campaign_rejects_tiny_n():
    with pytest.raises(TooLarge):
        run_monotonicity_campaign([SHANNON], [2, 3], 5, rng_seed=0)


def test_margin_telescoping():
    """margin(identity -> B) = margin(identity -> A) + margin(A -> B)."""
    rng = np.random.default_rng(4)
    from gentropy import random_refinement_pair

    for seed in range(50):
        n = 6
        dist = FiniteDistribution(rng.dirichlet(np.ones(n)))
        finer, coarser = random_refinement_pair(n, seed)
        h_p = evaluate(SHANNON, dist)
        h_a = evaluate(SHANNON, coarse_grain(dist, finer))
        h_b = evaluate(SHANNON, coarse_grain(dist, coarser))
        assert (h_p - h_b) == pytest.approx((h_p - h_a) + (h_a - h_b), abs=1e-12)


# ---------------------------------------------------------------------------
# Exhaustive lattice oracle
# ---------------------------------------------------------------------------

def test_lattice_n2_single_edge():
    dist = FiniteDistribution([0.3, 0.7])
    report = exhaustive_lattice_check(SHANNON, dist)
    assert report.passed
    # identity -> total merge is the only aggregation; margin is H(P) itself
    total = [e for e in report.entries if e.kind == "total_merge"]
    assert len(total) == 1
    assert total[0].margin == pytest.approx(evaluate(SHANNON, dist), abs=1e-12)


def test_lattice_uniform4_all_margins_positive():
    report = exhaustive_lattice_check(SHANNON, FiniteDistribution([0.25] * 4))
    assert report.passed
    edges = [e for e in report.entries if e.kind == "covering_edge"]
    # merging two uniform cells strictly lowers the log-sum value
    assert all(e.margin > 0 for e in edges)
    assert report.metadata["min_margin"] > 0


def test_lattice_counterexample_finds_violating_edge():
    report = exhaustive_lattice_check(
        HE, FiniteDistribution([0.2, 0.25, 0.25, 0.3])
    )
    assert not report.passed
    assert any(e.margin < -1e-9 for e in report.violations)


def test_lattice_guard():
    with pytest.raises(TooLarge):
        exhaustive_lattice_check(SHANNON, FiniteDistribution([1.0 / 9] * 9))


def test_lattice_edge_count_n4():
    """15 partitions of a 4-set contribute sum-over-partitions C(k,2) edges."""
    report = exhaustive_lattice_check(SHANNON, FiniteDistribution([0.25] * 4))
    edges = [e for e in report.entries if e.kind == "covering_edge"]
    # k-block partition counts: S(4,k) = 1,7,6,1 for k=1..4
    expected = 1 * 0 + 7 * 1 + 6 * 3 + 1 * 6
    assert len(edges) == expected


def test_corollary_shannon_explicit_values():
    dist = FiniteDistribution([0.2, 0.3, 0.5])
    report = corollary1_check(SHANNON, dist)
    assert report.passed
    assert report.metadata["base_value"] == pytest.approx(
        1.029653014064573527415592, abs=1e-14
    )
    assert len(report.entries) == 4  # 5 partitions of a 3-set minus the identity


def test_corollary_counterexample_violation_at_named_partition():
    report = corollary1_check(HE, FiniteDistribution([0.2, 0.3, 0.5]))
    violating = {e.blocks_coarser for e in report.violations}
    assert ((0, 1), (2,)) in violating


# ---------------------------------------------------------------------------
# Counterexample suite and uniform maximality
# ---------------------------------------------------------------------------

def test_counterexample_suite_reproduces_everything():
    report = counterexample_suite()
    assert report.passed
    kinds = [e.kind for e in report.entries]
    assert kinds.count("pinned_value") == 4
    assert "monotonicity_violation" in kinds
    assert "uniform_maximality_violation" in kinds
    assert kinds.count("slope_witness") == 2
    assert report.metadata["violations_expected"] is True


def test_max_entropy_check_shannon():
    report = max_entropy_check(SHANNON, [4], samples=200, rng_seed=5)
    assert report.passed


def test_max_entropy_check_tsallis_thousand():
    report = max_entropy_check(
        EntropySpec("tsallis", q=2.0), [3], samples=1000, rng_seed=6
    )
    assert report.passed


def test_max_entropy_check_counterexample_violated():
    report = max_entropy_check(HE, [4], samples=50, rng_seed=7)
    assert not report.passed
    assert any(e.margin < -1e-9 for e in report.violations)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def test_emit_json_round_trip_lossless():
    report = run_monotonicity_campaign([SHANNON], [3], 10, rng_seed=9)
    blob = emit_report(report, "json")
    rebuilt = report_from_json(blob)
    assert emit_report(rebuilt, "json") == blob
    parsed = json.loads(blob)
    assert parsed["schema"] == 1
    assert parsed["seed"] == 9


def test_emit_csv_shape():
    report = run_monotonicity_campaign([SHANNON], [3], 5, rng_seed=10)
    lines = emit_report(report, "csv").decode().strip().splitlines()
    assert lines[0] == "spec,n,case,margin"
    assert len(lines) == 6
    spec, n, case, margin = lines[1].split(",")
    assert spec == "shannon" and n == "3" and case == "0"
    assert float(margin) >= 0.0


def test_emit_markdown_counterexample_full_precision():
    text = emit_report(counterexample_suite(), "markdown").decode()
    assert "| 1.3 |" in text
    assert "| 1.5 |" in text
    assert "| 1.0 |" in text
    assert "| 1.0499999999999998 |" in text  # full-precision shortest repr


def test_emit_empty_campaign():
    report = run_monotonicity_campaign([], [3], 5, rng_seed=0)
    assert report.passed
    parsed = json.loads(emit_report(report, "json"))
    assert parsed["entries"] == []
    assert parsed["summary"] == []


def test_emit_unknown_format():
    with pytest.raises(UnsupportedFormat):
        emit_report(counterexample_suite(), "yaml")


def test_non_finite_values_are_typed_skips_and_json_stays_strict():
    """A component yielding NaN is a recorded NonFinite skip, never a bare NaN."""
    nan_phi = EntropySpec("h_phi_custom", phi=lambda x: math.nan)
    with pytest.raises(NonFinite):
        evaluate(nan_phi, FiniteDistribution([0.5, 0.5]))
    report = run_monotonicity_campaign([nan_phi], [3, 4], 5, rng_seed=0)
    assert report.passed
    assert all(e.skipped.startswith("NonFinite") for e in report.entries)
    text = emit_report(report).decode("utf-8")
    json.loads(text, parse_constant=lambda token: pytest.fail(f"bare {token}"))


def test_user_callable_exceptions_become_recorded_skips():
    """An exception raised by a user outer map never aborts a campaign."""
    broken_h = EntropySpec("h_phi_custom", phi=lambda x: x * (1.0 - x), h=lambda y: 1 / 0)
    with pytest.raises(UserCallableError, match="ZeroDivisionError"):
        evaluate(broken_h, FiniteDistribution([0.5, 0.5]))
    report = run_monotonicity_campaign([broken_h], [3], 4, rng_seed=0)
    assert [e.skipped.split(":")[0] for e in report.entries] == ["UserCallableError"] * 4


# ---------------------------------------------------------------------------
# The batched campaign kernel against the per-case loop
# ---------------------------------------------------------------------------

def _reference_campaign(specs, n_values, cases_per_cell, rng_seed, tolerance=1e-9):
    """The per-case campaign loop: coarse_grain + evaluate for every case."""
    entries = []
    for s_index, spec in enumerate(specs):
        label = spec.label()
        floor = 0.0 if spec.functional.zero_safe else _INTERIOR_FLOOR
        for n in sorted(set(n_values)):
            for case in range(cases_per_cell):
                rng = np.random.default_rng(
                    np.random.SeedSequence([rng_seed, s_index, n, case])
                )
                p = _dirichlet_interior(n, rng, floor)
                dist = FiniteDistribution(p)
                finer, coarser = _random_refinement_pair(n, rng)
                common = dict(
                    kind="monotonicity",
                    spec=label,
                    n=n,
                    index=case,
                    probs=tuple(p.tolist()),
                    blocks_finer=finer.blocks,
                    blocks_coarser=coarser.blocks,
                )
                try:
                    value_finer = evaluate(spec, coarse_grain(dist, finer))
                    value_coarser = evaluate(spec, coarse_grain(dist, coarser))
                except GentropyError as exc:
                    skipped = f"{type(exc).__name__}: {exc}"
                    entries.append(CaseRecord(passed=True, skipped=skipped, **common))
                    continue
                margin = value_finer - value_coarser
                entries.append(
                    CaseRecord(
                        passed=margin >= -tolerance,
                        value_finer=value_finer,
                        value_coarser=value_coarser,
                        margin=margin,
                        **common,
                    )
                )
    return tuple(entries)


def _assert_matches_reference(specs, n_values, cases, seed):
    report = run_monotonicity_campaign(specs, n_values, cases, seed)
    expected = _reference_campaign(specs, n_values, cases, seed)
    assert report.entries == expected
    assert report.summary == _summarize(expected)


def test_campaign_kernel_equals_per_case_loop_exactly():
    """Every catalog family, n = 3..12 (pairwise sums past 8 entries), exact ==.

    The two h_phi_custom specs (a NaN component and a raising outer map)
    take the per-vector fallback between batched specs.
    """
    specs = default_campaign_specs(include_unstable=True) + [HE]
    specs[5:5] = [
        EntropySpec("h_phi_custom", phi=lambda x: math.nan),
        EntropySpec("h_phi_custom", phi=lambda x: x * (1.0 - x), h=lambda y: 1 / 0),
    ]
    for seed in (0, 1729):
        _assert_matches_reference(specs, range(3, 13), 3, seed)


def test_campaign_kernel_falls_back_when_batched_phi_raises():
    """A phi that fails on the batch is evaluated one vector at a time."""
    spec = EntropySpec("tsallis", q=2.0)
    phi = spec.functional.phi

    def small_only(x):
        if x.size > 12:
            raise FloatingPointError("batch refused")
        return phi(x)

    object.__setattr__(spec, "_functional", replace(spec.functional, phi=small_only))
    _assert_matches_reference([SHANNON, spec], [3, 4, 5], 4, 11)


# ---------------------------------------------------------------------------
# The indent-2 emitter against json.dumps
# ---------------------------------------------------------------------------

def _hand_built_report():
    record = CaseRecord(
        kind="hand",
        spec='quote " backslash \\ non-ASCII \u00fc \U0001d6fc',
        n=2,
        index=0,
        passed=False,
        probs=(0.25, 0.75),
        blocks_finer=((0,), (1,)),
        blocks_coarser=((0, 1),),
        value_finer=0.5,
        value_coarser=1e-300,
        margin=-1.0,
        note="tab\tnewline\n",
    )
    return VerificationReport("hand \u00e9", None, 1e-9, (record,), _summarize([record]))


def test_emit_json_equals_json_dumps():
    uniform4 = FiniteDistribution([0.1, 0.2, 0.3, 0.4])
    reports = [
        run_monotonicity_campaign(
            [EntropySpec("s_delta", delta=2.0), SHANNON, HE], [3, 4], 4, rng_seed=5
        ),
        run_monotonicity_campaign([], [3], 5, rng_seed=0),
        exhaustive_lattice_check(EntropySpec("tsallis", q=2.0), uniform4),
        corollary1_check(HE, uniform4),
        counterexample_suite(),
        max_entropy_check(HE, [3, 4], 6, rng_seed=2),
        _hand_built_report(),
    ]
    assert any(e.skipped for e in reports[0].entries)
    for report in reports:
        expected = json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False)
        assert emit_report(report, "json") == (expected + "\n").encode("utf-8")


def test_emit_json_rejects_non_finite_entry():
    record = CaseRecord(kind="hand", spec="x", n=3, index=0, passed=True, margin=math.nan)
    report = VerificationReport("nan", 0, 1e-9, (record,), summary=())
    with pytest.raises(NonFinite):
        emit_report(report, "json")
