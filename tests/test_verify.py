"""Campaign engine: sampling, exhaustive oracle, determinism, emission."""

from collections.abc import Sequence
from dataclasses import FrozenInstanceError, fields, replace
from functools import partial
from itertools import chain, islice
from operator import attrgetter
import copy
import csv
import hashlib
import io
import json
import math
import pickle
import sys
import threading
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from gentropy import (
    EntropySpec,
    FiniteDistribution,
    Partition,
    bell_number,
    check_basic_axioms,
    check_product_composability,
    coarse_grain,
    corollary1_check,
    counterexample_suite,
    emit_report,
    enumerate_partitions,
    evaluate,
    exhaustive_lattice_check,
    max_entropy_check,
    replay_case,
    report_from_json,
    run_monotonicity_campaign,
)
from gentropy.catalog import default_campaign_specs
from gentropy.cli import main as cli_main
from gentropy.distributions import _dirichlet_interior, sample_dirichlet_uniform
from gentropy.errors import (
    GentropyError,
    NonFinite,
    TooLarge,
    TooSmall,
    UnsupportedFormat,
    UserCallableError,
    ValidationError,
)
from gentropy.partitions import _kept_partitions, _label_blocks, _label_rows, pair_draw_width
from gentropy import errors, verify
from gentropy.verify import (
    _INTERIOR_FLOOR,
    CaseRecord,
    SpecSummary,
    VerificationReport,
    _checked,
    _summarize,
)
from test_partitions import _refinement_pair_blocks

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
    with pytest.raises(TooSmall):
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
    assert parsed["schema"] == 2
    assert parsed["metadata"]["sampler"] == 2
    assert parsed["seed"] == 9


@pytest.mark.parametrize("data, cause", [
    (b"{}", KeyError),
    (b"[]", TypeError),
    (b'{"entries": [{}], "summary": []}', KeyError),
    (b"not json", json.JSONDecodeError),
])
def test_report_from_json_refuses_what_is_not_a_report(data, cause):
    """Outside input that is no report's JSON is a typed error, chained from its cause."""
    with pytest.raises(ValidationError, match="not a report's JSON") as refused:
        report_from_json(data)
    assert type(refused.value.__cause__) is cause


def test_emit_csv_shape():
    report = run_monotonicity_campaign([SHANNON], [3], 5, rng_seed=10)
    lines = emit_report(report, "csv").decode().strip().splitlines()
    assert lines[0] == "spec,n,case,margin"
    assert len(lines) == 6
    spec, n, case, margin = lines[1].split(",")
    assert spec == "shannon" and n == "3" and case == "0"
    assert float(margin) >= 0.0
    # a label with a comma or a quote is quoted, so every row keeps 4 fields
    specs = [
        EntropySpec("sharma_mittal_rs", r=0.5, s=2.0),
        SHANNON,
        EntropySpec("universal_group", coeffs=[1.0, 0.4]),
    ]
    campaign = run_monotonicity_campaign(specs, [3], 2, rng_seed=10)
    text = emit_report(campaign, "csv").decode()
    assert '\n"sharma_mittal_rs(r=0.5, s=2.0)",3,0,' in text
    assert "\nshannon,3,0," in text  # a label that needs no quotes has none
    for report in (campaign, _hand_built_report()):
        rows = list(csv.reader(io.StringIO(emit_report(report, "csv").decode())))
        assert rows[0] == ["spec", "n", "case", "margin"]
        assert {len(row) for row in rows} == {4}
        assert [row[0] for row in rows[1:]] == [e.spec for e in report.entries]


def test_emit_markdown_counterexample_full_precision():
    text = emit_report(counterexample_suite(), "markdown").decode()
    assert "| 1.3 |" in text
    assert "| 1.5 |" in text
    assert "| 1.0 |" in text
    assert "| 1.0499999999999998 |" in text  # full-precision shortest repr


def test_emit_markdown_says_how_many_flagged_entries_it_leaves_out():
    report = exhaustive_lattice_check(HE, sample_dirichlet_uniform(6, 12))
    flagged = int(report.entries.violation.sum())
    assert flagged > 200
    lines = emit_report(report, "markdown").decode().splitlines()
    assert lines[-2:] == ["", f"{flagged - 200} of {flagged} flagged entries not shown."]
    assert sum(" | counterexample_HE | 6 | " in line for line in lines) == 200
    small = emit_report(counterexample_suite(), "markdown").decode()
    assert "not shown" not in small and small.endswith("|\n")


def test_emit_markdown_lists_failing_and_one_sided_rows_of_any_kind():
    """A row is listed when it fails, or when it has a finer value and no coarser
    one, whatever its kind; a passing row with both values, or neither, is not."""
    base = CaseRecord(kind="other", spec="x", n=2, index=0, passed=True)
    records = [
        replace(base, index=0, value_finer=0.5, note="one-sided"),
        replace(base, index=1, passed=False, value_finer=0.25, value_coarser=0.5, margin=-0.25),
        replace(base, index=2, value_finer=0.5, value_coarser=0.25, margin=0.25),
        replace(base, index=3, value_coarser=0.5),
        replace(base, index=4),
    ]
    report = VerificationReport("hand", 0, 1e-9, tuple(records), ())
    lines = emit_report(report, "markdown").decode().splitlines()
    listed = [line for line in lines if line.startswith("| other |")]
    assert listed == [
        "| other | x | 2 | 0 | 0.5 |  |  | one-sided |",
        "| other | x | 2 | 1 | 0.25 | 0.5 | -0.25 |  |",
    ]


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


def _boom(k):
    raise RuntimeError("boom")


@pytest.mark.parametrize("coeffs, reason", [
    (_boom, "RuntimeError: boom"),
    (lambda k: "x", "ValueError: could not convert string to float: 'x'"),
], ids=["raises", "not_a_number"])
def test_callable_coefficients_that_fail_become_recorded_skips(coeffs, reason):
    """A universal_group coefficient that raises, or is no number, skips its cases;
    ``evaluate`` raises ``UserCallableError``, chained from the user's error."""
    spec = EntropySpec("universal_group", coeffs=coeffs)
    with pytest.raises(UserCallableError, match="universal_group coeffs raised") as caught:
        evaluate(spec, FiniteDistribution([0.5, 0.5]))
    assert f"{type(caught.value.__cause__).__name__}: {caught.value.__cause__}" == reason
    report = run_monotonicity_campaign([SHANNON, spec], [3, 4], 3, rng_seed=0)
    text = f"UserCallableError: universal_group coeffs raised {reason}"
    assert report.summary[1].skip_reasons == ((text, 6),)
    assert report.summary[0].skipped == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_a_non_finite_callable_coefficient_is_a_counted_skip_reason(bad):
    """A universal_group coefficient that is NaN or infinite skips its cases, each counted
    under the error that names the coefficient, not a truncation at the term cap."""
    spec = EntropySpec("universal_group", coeffs=lambda k: bad if k == 2 else 0.5**k)
    report = run_monotonicity_campaign([SHANNON, spec], [3, 4], 3, rng_seed=0)
    text = f"ParamOutOfDomain: coefficient a_2 is not finite: {bad!r}"
    assert report.summary[1].skip_reasons == ((text, 6),)
    assert report.summary[0].skipped == 0


# ---------------------------------------------------------------------------
# The batched campaign kernel against the per-case loop
# ---------------------------------------------------------------------------

def _sampler2_rows(entropy, n, count, floor):
    """Sampler 2, one case at a time: each case's draw and pair uniforms.

    The cell's generator gives one row of uniforms per case, in case
    order; a draw is its first n uniforms as normalised exponentials, and
    one whose minimum is not above ``floor`` is redrawn from the case's
    child stream.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    for case in range(count):
        row = rng.random(n + pair_draw_width(n))
        e = -np.log1p(-row[:n])
        p = e / e.sum()
        if p.min() <= floor:
            child = np.random.SeedSequence(entropy, spawn_key=(case,))
            p = _dirichlet_interior(n, np.random.default_rng(child), floor)
        yield p, row[n:].tolist()


def _reference_campaign(specs, n_values, cases_per_cell, rng_seed, tolerance=1e-9):
    """The per-case campaign loop: coarse_grain + evaluate for every case.

    Returns the entries and each one's spec index.
    """
    entries, spec_indices = [], []
    for s_index, spec in enumerate(specs):
        label = spec.label()
        floor = 0.0 if spec.functional.zero_safe else _INTERIOR_FLOOR
        for n in sorted(set(n_values)):
            rows = _sampler2_rows([rng_seed, s_index, n], n, cases_per_cell, floor)
            for case, (p, pair_uniforms) in enumerate(rows):
                spec_indices.append(s_index)
                dist = FiniteDistribution(p)
                finer, coarser = (
                    Partition(blocks, n) for blocks in _refinement_pair_blocks(n, pair_uniforms)
                )
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
    return tuple(entries), spec_indices


def _reference_summary(records, spec_indices=None):
    """The summaries by a plain loop over the records: one per run of entries of
    one spec index, in entry order, labelled by its first entry; the worst case is
    the first entry with a margin that no later margin of its run is below."""
    runs = []
    for s, record in zip([0] * len(records) if spec_indices is None else spec_indices, records):
        if not runs or runs[-1][0][0] != s:
            runs.append([(s, record.spec), 0, 0, 0, {}, None])
        run = runs[-1]
        run[1] += 1
        if record.skipped is not None:
            run[3] += 1
            run[4][record.skipped] = run[4].get(record.skipped, 0) + 1
            continue
        run[2] += not record.passed
        if record.margin is not None and (run[5] is None or record.margin < run[5].margin):
            run[5] = record
    return tuple(
        SpecSummary(
            label, cases, violations, skipped,
            None if worst is None else worst.margin,
            None if worst is None else (s, worst.n, worst.index),
            tuple(sorted(reasons.items())),
        )
        for (s, label), cases, violations, skipped, reasons, worst in runs
    )


def _assert_matches_reference(specs, n_values, cases, seed):
    report = run_monotonicity_campaign(specs, n_values, cases, seed)
    expected, spec_indices = _reference_campaign(specs, n_values, cases, seed)
    assert report.entries == expected
    assert report.summary == _reference_summary(expected, spec_indices)


def test_campaign_kernel_equals_per_case_loop_exactly():
    """Every catalog family, n = 3..12 (pairwise sums past 8 entries), exact ==.

    The two h_phi_custom specs (a NaN component and a raising outer map)
    sit between catalog specs; both run batched, and all their cases skip.
    """
    specs = default_campaign_specs(include_unstable=True) + [HE]
    specs[5:5] = [
        EntropySpec("h_phi_custom", phi=lambda x: math.nan),
        EntropySpec("h_phi_custom", phi=lambda x: x * (1.0 - x), h=lambda y: 1 / 0),
    ]
    for seed in (0, 1729):
        _assert_matches_reference(specs, range(3, 13), 3, seed)


def _with_batch_refusing_phi(spec):
    """``spec`` with a phi that raises on more than 12 entries at once."""
    phi = spec.functional.phi

    def small_only(x):
        if x.size > 12:
            raise FloatingPointError("batch refused")
        return phi(x)

    object.__setattr__(spec, "_functional", replace(spec.functional, phi=small_only))
    return spec


def test_campaign_cases_do_not_depend_on_the_case_count():
    """Every cell's first 3 entries at --cases 3 are those at --cases 5."""
    specs = default_campaign_specs()
    short = run_monotonicity_campaign(specs, range(3, 7), 3, rng_seed=0).entries
    long = run_monotonicity_campaign(specs, range(3, 7), 5, rng_seed=0).entries
    assert len(short) == len(specs) * 4 * 3
    assert short == tuple(e for e in long if e.index < 3)


def test_floor_redraw_moves_no_other_case():
    """Case 581 of cell (seed 0, spec 0, n = 12) draws a minimum of 6.8e-7.

    Below the interior floor it is redrawn from its own child stream; every
    other case, and every case's pair, is what the unfloored draw gives.
    """
    floored = run_monotonicity_campaign([EntropySpec("s_cd", c=0.5, d=1.0)], [12], 600, 0)
    unfloored = run_monotonicity_campaign([SHANNON], [12], 600, 0)
    moved = []
    for a, b in zip(floored.entries, unfloored.entries):
        assert (a.blocks_finer, a.blocks_coarser) == (b.blocks_finer, b.blocks_coarser)
        if a.probs != b.probs:
            moved.append(a.index)
            assert min(a.probs) > _INTERIOR_FLOOR >= min(b.probs)
    assert moved == [581]
    child = np.random.SeedSequence([0, 0, 12], spawn_key=(581,))
    redraw = _dirichlet_interior(12, np.random.default_rng(child), _INTERIOR_FLOOR)
    assert floored.entries[581].probs == tuple(redraw.tolist())


def test_batched_draws_keep_every_case_independent():
    """Each n's draws are post-processed in one batch: here cells of two specs
    whose floors differ (1e-6 for s_cd, 0 for shannon) are stacked at n = 11
    and 12.  Every entry is still what ``replay_case`` rebuilds alone, the
    floored case (spec 0, n = 12, case 581) included."""
    specs = [EntropySpec("s_cd", c=0.5, d=1.0), SHANNON]
    report = run_monotonicity_campaign(specs, [11, 12], 600, 0)
    spec_indices = [0] * 1200 + [1] * 1200
    assert [e.spec for e in report.entries] == [specs[s].label() for s in spec_indices]
    for entry, s_index in zip(report.entries, spec_indices):
        assert replay_case(specs, s_index, entry.n, entry.index, 0) == entry
    floored = report.entries[600 + 581]
    assert (floored.n, floored.index) == (12, 581) and min(floored.probs) > _INTERIOR_FLOOR
    child = np.random.SeedSequence([0, 0, 12], spawn_key=(581,))
    redraw = _dirichlet_interior(12, np.random.default_rng(child), _INTERIOR_FLOOR)
    assert floored.probs == tuple(redraw.tolist())


def test_campaigns_in_two_threads_emit_the_bytes_of_sequential_runs(monkeypatch):
    """Two threads run ``verify --all --n 3..5 --cases 3`` with different seeds and
    take turns often: no generator is shared between the calls."""
    from gentropy import cli

    outputs, seeds = {}, {"a": (3, 5, 3), "b": (4, 6, 4)}

    def emit(report, fmt):  # each thread's bytes, by its name
        outputs[threading.current_thread().name].append(emit_report(report, fmt))

    monkeypatch.setattr(cli, "_emit", emit)

    def run(name):
        outputs[name] = []
        for seed in seeds[name]:
            argv = ["verify", "--all", "--n", "3..5", "--cases", "3", "--seed", str(seed)]
            outputs[name].append(cli.main(argv))

    def in_threads(together: bool) -> dict:
        outputs.clear()
        threads = [threading.Thread(target=run, args=(name,), name=name) for name in seeds]
        for thread in threads:
            thread.start()
            if not together:
                thread.join(timeout=120)
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        return dict(outputs)

    sequential, switch = in_threads(False), sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the threads take turns often
    try:
        assert in_threads(True) == sequential
    finally:
        sys.setswitchinterval(switch)
    assert sequential["a"][1::2] == sequential["b"][1::2] == [0, 0, 0]
    assert sequential["a"][0] == sequential["a"][4] != sequential["b"][0]


def _cli_json(capsys, *argv):
    from gentropy.cli import main

    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def test_replay_reproduces_every_worst_case(capsys):
    """Each summary's worst case replays, alone, to its report entry."""
    selection = ("--all", "--seed", "7")
    code, report = _cli_json(capsys, "verify", *selection, "--n", "3..6", "--cases", "4")
    assert code == 0
    entries = {(e["spec"], e["n"], e["index"]): e for e in report["entries"]}
    located = 0
    for s_index, summary in enumerate(report["summary"]):
        worst = summary["worst"]
        if worst is None:
            assert summary["skipped"] == summary["cases"]
            continue
        assert worst["spec_index"] == s_index
        coordinates = ("--spec-index", str(s_index), "--n", str(worst["n"]))
        coordinates += ("--case", str(worst["index"]))
        code, entry = _cli_json(capsys, "replay", *selection, *coordinates)
        assert code == 0
        assert entry == entries[summary["spec"], worst["n"], worst["index"]]
        assert entry["margin"] == summary["min_margin"]
        located += 1
    assert located == len(report["summary"])


def test_summary_counts_skips_per_reason_and_locates_the_worst_case():
    report = run_monotonicity_campaign(
        [SHANNON, EntropySpec("s_delta", delta=2.0), HE], [3, 4], 20, rng_seed=3
    )
    for s_index, summary in enumerate(report.summary):
        group = [e for e in report.entries if e.spec == summary.spec]
        reasons = {}
        for e in group:
            if e.skipped:
                reasons[e.skipped] = reasons.get(e.skipped, 0) + 1
        assert dict(summary.skip_reasons) == reasons
        assert summary.skipped == sum(reasons.values())
        spec_index, n, index = summary.worst
        worst = next(e for e in group if (e.n, e.index) == (n, index))
        assert spec_index == s_index
        assert worst.margin == summary.min_margin
    assert report.summary[1].skip_reasons  # n = 2 blocks exceed the s_delta bound
    assert report.summary[2].violations > 0
    assert report_from_json(emit_report(report)).summary == report.summary
    tied = [CaseRecord("hand", "x", 3, index, True, margin=0.0) for index in range(3)]
    assert _summarize(tied, [4, 5, 6])[0].worst == (4, 3, 0)  # the first of equal margins
    runs = _summarize(*_SUMMARY_CASES["interleaved_runs"])  # spec indices 0, 0, 1, 1, 0
    assert [s.worst for s in runs] == [(0, 3, 1), (1, 3, 3), (0, 3, 4)]


def _hand(spec, index, margin=None, skipped=None, passed=True):
    return CaseRecord("hand", spec, 3, index, passed, margin=margin, skipped=skipped)


_SUMMARY_CASES = {
    # an interleaved spec index: one summary per run, each with its own worst case
    "interleaved_runs": ([_hand("a", i, margin=m) for i, m in
                          enumerate((0.5, -1.0, 0.2, -2.0, -3.0))], [0, 0, 1, 1, 0]),
    "shared_label": ([_hand("a", i, margin=-float(i)) for i in range(4)], [0, 0, 1, 1]),
    "all_skipped": ([_hand("a", 0, margin=1.0), *(_hand("b", i, skipped=r) for i, r in
                     enumerate("yxy"))], [0, 1, 1, 1]),
    "tied": ([_hand("a", i, margin=m) for i, m in enumerate((1.0, -3.0, -3.0, 2.0, -3.0))],
             [2, 2, 2, 2, 2]),
}


@pytest.mark.parametrize("records, spec_indices", _SUMMARY_CASES.values(), ids=list(_SUMMARY_CASES))
def test_summarize_equals_a_per_entry_loop_on_hand_cases(records, spec_indices):
    assert _summarize(records, spec_indices) == _reference_summary(records, spec_indices)


_RUNS = st.lists(
    st.tuples(
        st.integers(0, 2),  # spec index
        st.sampled_from("ab"),  # label
        st.lists(st.tuples(
            st.sampled_from([None, None, "x", "y"]),  # skip reason
            st.booleans(),  # passed
            st.sampled_from([None, -2.0, -1.0, -1.0, 0.0, 0.5, 3]),  # margin
        ), min_size=1, max_size=8),
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(_RUNS)
def test_summarize_equals_a_per_entry_loop(runs):
    """Entries in runs of one spec index, with labels that may change inside a run
    or be shared across runs, skipped-only runs, margins of None and ties:
    ``_summarize`` gives what the loop gives."""
    rows = [(s, label, *row) for s, label, run in runs for row in run]
    records = [_hand(label, i, margin, skipped, passed)
               for i, (_, label, skipped, passed, margin) in enumerate(rows)]
    spec_indices = [s for s, *_ in rows]
    assert _summarize(records, spec_indices) == _reference_summary(records, spec_indices)
    assert _summarize(records) == _reference_summary(records)


_SUMMARY_SPECS = [*default_campaign_specs(), HE, EntropySpec("s_delta", delta=2.0)]


def _assert_one_summary_per_spec(report, labels, cases, spec_indices=None):
    """One summary per spec, in spec order, of ``cases`` entries each, as the loop gives."""
    assert [s.spec for s in report.summary] == labels
    assert [s.cases for s in report.summary] == [cases] * len(labels)
    assert report.summary == _reference_summary(report.entries, spec_indices)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_SUMMARY_SPECS), max_size=6),
       st.sets(st.integers(3, 6), min_size=1), st.integers(1, 3))
def test_campaign_gives_one_summary_per_spec(specs, n_values, cases):
    """Duplicated specs included: every spec is one run of its cells."""
    report = run_monotonicity_campaign(specs, n_values, cases, rng_seed=0)
    per_spec = cases * len(n_values)
    spec_indices = [k for k in range(len(specs)) for _ in range(per_spec)]
    _assert_one_summary_per_spec(report, [s.label() for s in specs], per_spec, spec_indices)


def test_oracles_give_one_summary_per_spec():
    dist = FiniteDistribution([0.1, 0.2, 0.3, 0.4])
    for report in (exhaustive_lattice_check(HE, dist), corollary1_check(HE, dist),
                   max_entropy_check(HE, [3, 4], 6, rng_seed=2), counterexample_suite()):
        _assert_one_summary_per_spec(report, [HE.label()], len(report.entries))


def test_case_record_is_a_frozen_value():
    """Slotted, yet frozen: replace, ==, hash, repr, pickle and deepcopy hold, and
    every assignment or deletion, of a field or of any other name, is refused as
    ``FrozenInstanceError`` (not the ``TypeError`` of slots=True on 3.10-3.13)."""
    record = CaseRecord(
        "hand", "x", 3, 0, True, probs=(0.5, 0.25, 0.25), blocks_finer=((0,), (1, 2)), margin=0.1
    )
    for name in ("margin", "extra"):  # a field or not, by assignment or by deletion
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 0.2)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert record.margin == 0.1 and not hasattr(record, "__dict__")
    moved = replace(record, index=1)
    assert (moved.index, moved.probs, moved.margin) == (1, record.probs, 0.1) and moved != record
    twin = CaseRecord(**{f.name: getattr(record, f.name) for f in fields(CaseRecord)})
    assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert copied == record and copied is not record and hash(copied) == hash(record)


def test_checked_rows_equal_records_built_one_at_a_time():
    """Evaluated rows, a skipped finer value (with a None or a str coarser
    one) and a skipped coarser value give what ``CaseRecord(...)`` gives.
    The value table holds every finer value, then every coarser one; a str
    stands for the error whose ``"Type: message"`` it is, one shared by equal strs."""
    tolerance = 1e-9
    rows = [
        (0.7, 0.5),
        (0.5, 0.5 + 1e-10),  # within tolerance
        (0.5, 0.6),  # a violation
        ("NonFinite: nan", None),  # the campaign's shape
        ("ZeroUnsupported: finer", "TooLarge: coarser"),  # the finer reason wins
        (0.3, "TooLarge: coarser"),
        (0.1 + 0.2, 0.3),  # a margin of one ulp
    ]
    finer, coarser = zip(*rows)
    probs = [(float(index), 1.0 - index) for index in range(len(rows))]
    values = finer + coarser
    numbers = np.array([v if type(v) is float else math.nan for v in values])
    made = {v: getattr(errors, v.split(": ")[0])(v.split(": ")[1]) for v in set(values)
            if type(v) is str}
    failures = {i: made[v] for i, v in enumerate(values) if type(v) is str}
    records = _checked(
        tolerance, numbers, failures, np.arange(len(rows)), len(rows) + np.arange(len(rows)),
        {"kind": "hand", "spec": "x", "n": 2}, index=range(len(rows)), probs=probs,
    )
    expected = []
    for index, (f, c) in enumerate(rows):
        common = dict(kind="hand", spec="x", n=2, index=index, probs=probs[index])
        reason = next((value for value in (f, c) if type(value) is str), None)
        if reason is not None:
            expected.append(CaseRecord(passed=True, skipped=reason, **common))
            continue
        margin = f - c
        expected.append(CaseRecord(
            passed=margin >= -tolerance, value_finer=f, value_coarser=c, margin=margin, **common
        ))
    assert tuple(records) == tuple(expected)
    assert [r.passed for r in records] == [True, True, False, True, True, True, True]
    assert records[-1].margin == 0.1 + 0.2 - 0.3 != 0.0
    for record in records:
        assert type(record.passed) is bool
        assert record.margin is None or type(record.margin) is float
    assert records[0].value_finer.hex() == finer[0].hex()  # the table's float bits, kept


class _ForwardingProxy:
    """A callable stand-in for a class that forwards its attributes, as a
    timing wrapper installed over the class's name in a module does."""

    def __init__(self, cls):
        self._cls = cls

    def __call__(self, *args, **kwargs):
        return self._cls(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._cls, attr)


def test_reports_stay_equal_with_case_record_behind_a_proxy(monkeypatch):
    """Records are built from the class itself, not from the module name."""
    dist = FiniteDistribution(np.random.default_rng(5).dirichlet(np.ones(5)))

    def reports():
        return (
            run_monotonicity_campaign([SHANNON, EntropySpec("s_delta", delta=2.0), HE], [3, 5], 4, 2),
            exhaustive_lattice_check(SHANNON, dist),
            corollary1_check(HE, dist),
            max_entropy_check(HE, [3, 4], 5, 1),
            counterexample_suite(),
        )

    expected = reports()
    monkeypatch.setattr(verify, "CaseRecord", _ForwardingProxy(verify.CaseRecord))
    assert reports() == expected


def _count_records(monkeypatch):
    """A list that gets the count of every bulk record build from now on."""
    built, records = [], verify._records

    def counting(count, shared, **columns):
        built.append(count)
        return records(count, shared, **columns)

    monkeypatch.setattr(verify, "_records", counting)
    return built


def test_summaries_verdicts_and_emission_build_no_record(monkeypatch, capsys):
    """Reports read their columns; ``violations`` builds one record per violation."""
    dist = FiniteDistribution(np.random.default_rng(6).dirichlet(np.ones(6)))
    built = _count_records(monkeypatch)
    assert cli_main(["verify", "--all", "--n", "3..5", "--cases", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["entries"]
    reports = [
        exhaustive_lattice_check(SHANNON, dist),
        corollary1_check(SHANNON, dist),
        run_monotonicity_campaign(default_campaign_specs(), range(3, 6), 3, rng_seed=0),
        exhaustive_lattice_check(HE, dist),
        corollary1_check(HE, dist),
        run_monotonicity_campaign([SHANNON, HE], range(3, 6), 3, rng_seed=0),
    ]
    for report in reports:
        assert len(report.entries) and report.summary
        assert report.metadata.get("min_margin", 0) is not None
        for fmt in ("json", "markdown", "csv"):
            emit_report(report, fmt)
    assert [report.passed for report in reports] == [True] * 3 + [False] * 3
    assert built == []
    for report in reports:
        violations = report.violations
        assert built[-1:] == [len(violations)] and all(not e.passed for e in violations)
    assert built[:3] == [0, 0, 0] and min(built[3:]) > 0


def _spy_column_reads(monkeypatch):
    """A list that gets the rows of every read of a deferred column from now
    on; reading a column whole reads a slice."""
    reads, take = [], verify._Lazy.take

    def spy(column, at):
        reads.append(at if isinstance(at, slice) else list(at))
        return take(column, at)

    monkeypatch.setattr(verify._Lazy, "take", spy)
    return reads


def test_oracle_verdicts_and_summaries_materialise_no_column(monkeypatch):
    """At n = 8, the checks, ``len``, ``passed``, the summaries and an empty
    ``violations`` read single rows at most; pickling keeps the columns
    deferred; HE's ``violations`` reads the violating rows alone."""
    dist = sample_dirichlet_uniform(8, 0)
    reads = _spy_column_reads(monkeypatch)
    for check in (exhaustive_lattice_check, corollary1_check):
        report = check(SHANNON, dist)
        assert len(report.entries) > 4000 and report.passed and report.summary[0].cases
        assert report.violations == () and report.summary[0].min_margin is not None
        copied = pickle.loads(pickle.dumps(report))
        lazy = [name for name, c in copied.entries._columns.items() if type(c) is verify._Lazy]
        assert len(lazy) >= 6 and copied.summary == report.summary
    assert reads and all(not isinstance(at, slice) and len(at) <= 1 for at in reads)
    report = exhaustive_lattice_check(HE, dist)
    del reads[:]
    violations = report.violations
    rows = np.flatnonzero(report.entries.violation).tolist()
    assert len(violations) == len(rows) > 0 and all(not v.passed for v in violations)
    assert len(reads) >= 6 and all(at == rows for at in reads)
    assert tuple(report.entries)[rows[0]] == violations[0]
    assert slice(None) in reads  # building every record reads the columns whole


def _walks(monkeypatch):
    """A list that grows by n each time the oracles walk the partitions of n."""
    walks, walk = [], verify.enumerate_partitions

    def counting(n):
        walks.append(n)
        return walk(n)

    monkeypatch.setattr(verify, "enumerate_partitions", counting)
    return walks


@pytest.mark.parametrize("n", range(1, 9))
def test_oracle_verdicts_walk_no_partition(n, monkeypatch):
    """``len``, ``passed``, the summaries, the metadata and an empty ``violations`` of a
    lattice and a corollary read no blocks, so neither walks the partitions."""
    walks, spec = _walks(monkeypatch), EntropySpec("shannon")  # a value table of its own
    dist = FiniteDistribution(np.random.default_rng(n).dirichlet(np.ones(n)))
    lattice, corollary = exhaustive_lattice_check(spec, dist), corollary1_check(spec, dist)
    for report in (lattice, corollary):
        assert len(report.entries) == sum(s.cases for s in report.summary)
        assert report.passed and report.violations == () and report.metadata["probs"]
    assert lattice.metadata["partitions"] == bell_number(n) == len(corollary.entries) + 1
    assert walks == []


_BLOCK_READS = {
    "emit": emit_report,
    "iteration": lambda report: list(report.entries),
    "index": lambda report: report.entries[-1],
    "to_dict": VerificationReport.to_dict,
    "eq": lambda report: report.entries == (),
    "he_violations": lambda report: report.violations,
}


@pytest.mark.parametrize("read", _BLOCK_READS.values(), ids=list(_BLOCK_READS))
def test_a_blocks_read_walks_once_per_kept_table(read, monkeypatch):
    """Every kind of blocks read walks the partitions of n once, shared by a lattice and
    a corollary on one (spec, distribution), however often either is read; another
    distribution walks once more.  The reads give what the reference walk gives."""
    walks, spec = _walks(monkeypatch), EntropySpec("counterexample_HE")
    for seed in (0, 1):
        dist = sample_dirichlet_uniform(5, seed)
        checks = [(exhaustive_lattice_check, _reference_lattice),
                  (corollary1_check, _reference_corollary)]
        reports = [check(spec, dist) for check, _ in checks]
        assert not reports[0].passed and walks == [5] * seed  # HE's violations are read
        for report, (_, reference) in zip(reports, checks):
            assert read(report) == read(report) == read(reference(spec, dist))
        assert walks == [5] * (seed + 1)


def test_an_unread_report_pickles_and_copies_with_its_walk_pending(monkeypatch):
    """A lattice or corollary pickled or deep-copied before its blocks are read
    carries its walk pending, and the copy emits the parent's bytes."""
    walks, spec = _walks(monkeypatch), EntropySpec("tsallis", q=2.0)
    dist = sample_dirichlet_uniform(6, 3)
    reports = [exhaustive_lattice_check(spec, dist), corollary1_check(spec, dist)]
    copies = [[pickle.loads(pickle.dumps(r)), copy.deepcopy(r)] for r in reports]
    for copied in chain.from_iterable(copies):
        assert copied.entries._columns["blocks_coarser"].source.blocks is None
    written = [[emit_report(copied) for copied in pair] for pair in copies]
    assert walks == [6] * 4  # each copy walks its own
    assert written == [[emit_report(report)] * 2 for report in reports]
    assert walks == [6] * 5  # the parents share one


def test_entries_are_a_read_only_sequence_of_records(monkeypatch):
    dist = FiniteDistribution([0.1, 0.2, 0.3, 0.4])
    expected = tuple(_reference_lattice(HE, dist).entries)
    assert all(type(e) is CaseRecord for e in expected)
    entries = exhaustive_lattice_check(HE, dist).entries
    assert isinstance(entries, Sequence) and not isinstance(entries, tuple)
    built = _count_records(monkeypatch)
    count = len(expected)
    assert len(entries) == count
    for i in (0, 5, count - 1, -1, -count):
        assert entries[i] == expected[i]
        assert entries[np.int64(i)] == expected[i]
    for i in (count, -count - 1):
        with pytest.raises(IndexError):
            entries[i]
    assert built == [1] * 10  # one record per int index
    with pytest.raises(TypeError):
        entries[0] = expected[0]
    assert type(entries[2:5]) is tuple and entries[2:5] == expected[2:5]
    assert entries[::-3] == expected[::-3] and entries[count:] == ()
    assert built[10:] == [count]  # the first slice builds them all, once
    assert list(entries) == list(expected) and tuple(entries) == expected
    assert entries[3] is entries[3] is next(islice(entries, 3, None))
    assert built[11:] == []
    assert entries == expected and expected == entries
    assert entries != expected[:-1] and expected[:-1] != entries
    assert entries != list(expected)
    assert entries == exhaustive_lattice_check(HE, dist).entries
    assert hash(entries) == hash(expected) and repr(entries) == repr(expected)
    assert expected[0] in entries and entries.index(expected[7]) == 7


_BLOCKS = ("blocks_finer", "blocks_coarser")
# The json, markdown and csv bytes of an HE campaign, as written when its
# blocks columns were tuples.
_HE_CAMPAIGN_DIGESTS = (
    "50521dcd2c94b96817c151b1f1cbf0d177766d002920cba7aeebeb8ad29387f4",
    "48f5ba4fe133c8dc986d16d05576b3c82b8d4eef08f7645d806703ed1c6d1314",
    "9affb8f4b84f1b1c2c3f3f97b6f10f71621a1f02e745a00ed02df0836f5b6c1b",
)


def test_reports_survive_pickle_copy_and_json(monkeypatch):
    """Every kind of report survives pickle, deepcopy and a JSON round trip.  A
    campaign's blocks columns stay label rows, unread, through pickle, deepcopy,
    ``passed``, ``summary`` and the JSON writer; its records, violations,
    ``to_dict()`` and decoded JSON give the reference sampler's tuples."""
    dist = FiniteDistribution(np.random.default_rng(4).dirichlet(np.ones(5)))
    specs = [SHANNON, EntropySpec("s_delta", delta=2.0), HE]
    reports = [
        run_monotonicity_campaign(specs, [3, 5], 4, 2),
        exhaustive_lattice_check(HE, dist),
        corollary1_check(SHANNON, dist),
        max_entropy_check(HE, [3, 4], 5, 1),
        counterexample_suite(),
        run_monotonicity_campaign([HE], [3, 4, 5, 6], 25, 2),
    ]
    campaign, reads, take = reports[0], [], verify._LabelRows.take
    monkeypatch.setattr(verify._LabelRows, "take", lambda c, at: reads.append(at) or take(c, at))
    written = emit_report(campaign)
    for copied in (pickle.loads(pickle.dumps(campaign)), copy.deepcopy(campaign), campaign):
        assert not copied.passed and copied.summary == campaign.summary
        assert emit_report(copied) == written
        assert [type(copied.entries._columns[name]) for name in _BLOCKS] == [verify._LabelRows] * 2
    assert reads == []
    expected, blocks = _reference_campaign(specs, [3, 5], 4, 2)[0], attrgetter(*_BLOCKS)
    for i in (0, 9, -1):
        assert blocks(campaign.entries[i]) == blocks(expected[i])
    assert list(map(blocks, campaign.violations)) == [blocks(e) for e in expected if not e.passed]
    # each column read at the three records, then at the violations: never whole
    assert len(reads) == 2 * 4 and not any(isinstance(at, slice) for at in reads)
    assert list(map(blocks, report_from_json(written).entries)) == list(map(blocks, expected))
    listed = [[[list(b) for b in part] for part in blocks(e)] for e in expected]
    assert [[e[name] for name in _BLOCKS] for e in campaign.to_dict()["entries"]] == listed
    written = [emit_report(reports[-1], f) for f in ("json", "markdown", "csv")]
    assert tuple(hashlib.sha256(w).hexdigest() for w in written) == _HE_CAMPAIGN_DIGESTS
    for report in reports:
        for copied in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
            assert copied == report and emit_report(copied) == emit_report(report)
        assert report_from_json(emit_report(report)) == report
        tuple(report.entries)  # once built, the copies still compare equal
        assert pickle.loads(pickle.dumps(report)) == report == copy.deepcopy(report)


def _per_row_label_blocks(labels):
    """``partitions._label_blocks`` as a per-row argsort and a padding mask: the
    reference that its one sort of the flat table must equal."""
    count, width = labels.shape
    ids = labels + np.arange(0, count * (width + 1), width + 1)[:, None]
    tally = np.bincount(ids.ravel(), minlength=ids.size + count).reshape(count, width + 1)[:, :-1]
    states = np.argsort(labels, axis=1, kind="stable")[np.arange(width) < tally.sum(1)[:, None]]
    return np.count_nonzero(tally, axis=1), tally[tally > 0], states


def _per_row_texts(labels):
    """Each label row's JSON array from its tuples and the template of its block
    sizes, one ``%`` per row: the reference of ``_LabelRows.texts``."""
    counts, widths, states = (iter(a.tolist()) for a in _per_row_label_blocks(labels))
    blocks = iter([tuple(islice(states, w)) for w in widths])
    rows = [tuple(islice(blocks, k)) for k in counts]
    return [verify._template(tuple(map(len, b))) % tuple(chain.from_iterable(b)) for b in rows]


def _label_table(rng, count, width, dtype):
    """``count`` pairs of restricted-growth rows of 1..width states, padded with width:
    a (count, 2, width) table as a campaign keeps, every state's chance of opening a
    block drawn per row, and some pairs repeated."""
    table = np.full((count, 2, width), width, dtype)
    for row in table.reshape(-1, width):
        fresh, blocks = rng.random(), 0
        for state in range(rng.integers(1, width + 1)):
            row[state] = blocks if blocks == 0 or rng.random() < fresh else rng.integers(blocks)
            blocks = max(blocks, row[state] + 1)
    return table[rng.integers(0, count, count)] if count > 1 else table


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 24),
    width=st.one_of(st.integers(1, 12), st.integers(13, 300)),
    wide=st.booleans(),
)
def test_label_rows_give_the_per_row_reference_blocks_and_texts(seed, count, width, wide):
    """One sort of the flat table gives the per-row argsort's blocks, and one join gives
    each row the text of its template, for uint8 and uint16 tables, padded rows and
    repeated ones, a strided column of rows and of one row; a memo already holding
    some rows' texts gives the same texts.  The writer builds neither tuples nor a
    template per row."""
    dtype = np.uint16 if wide or width > 255 else np.uint8
    table = _label_table(np.random.default_rng(seed), count, width, dtype)
    flat = table.reshape(-1, width)
    assert all(map(np.array_equal, _label_blocks(flat), _per_row_label_blocks(flat)))
    columns = (table[:, 0], table[:, 1], table[:1, 1])
    halves = [column[: len(column) // 2] for column in columns]
    expected = [(_per_row_texts(half), _per_row_texts(c)) for half, c in zip(halves, columns)]
    template, calls = verify._template, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_canonical_blocks", None)  # a call would fail
        patch.setattr(verify, "_template", lambda *a: calls.append(a) or template(*a))
        for column, half, (half_texts, texts) in zip(columns, halves, expected):
            memo = {}
            assert verify._LabelRows(half).texts(memo) == half_texts
            assert verify._LabelRows(column).texts(memo) == texts
            assert verify._LabelRows(column).texts(memo) == texts  # every row from the memo
    assert len(calls) <= 9  # at most one template a call, whatever its row count


def test_campaign_kernel_falls_back_when_batched_phi_raises():
    """A phi that fails on the batch is evaluated one vector at a time."""
    spec = _with_batch_refusing_phi(EntropySpec("tsallis", q=2.0))
    _assert_matches_reference([SHANNON, spec], [3, 4, 5], 4, 11)


def test_refused_batch_calls_phi_once_per_vector():
    """After the batch is refused, phi runs once on each vector alone."""
    spec = _with_batch_refusing_phi(EntropySpec("tsallis", q=2.0))
    phi, sizes = spec.functional.phi, []

    def counting(x):
        sizes.append(x.size)
        return phi(x)

    object.__setattr__(spec, "_functional", replace(spec.functional, phi=counting))
    report = run_monotonicity_campaign([spec], [3, 4, 5], 4, 11)
    assert sizes[0] > 12  # the refused batch
    assert len(sizes) == 1 + 2 * len(report.entries)


def test_raising_user_phi_falls_back_one_vector_at_a_time():
    """A user phi that raises on entries above 0.6 skips only the vectors holding one."""
    spec = EntropySpec("h_phi_custom", phi=lambda x: 1 / 0 if x > 0.6 else x * (1.0 - x))
    _assert_matches_reference([SHANNON, spec, HE], [3, 4, 5], 6, 2)
    assert max_entropy_check(spec, [3, 4], 8, 1) == _reference_max_entropy(spec, [3, 4], 8, 1)
    lattice, corollary = _assert_oracles_match_reference(
        spec, FiniteDistribution([0.4, 0.3, 0.2, 0.1])
    )
    assert 0 < lattice.summary[0].skipped < len(lattice.entries)
    assert 0 < corollary.summary[0].skipped < len(corollary.entries)


def _with_h_refusing_a_band(spec, refusal=ValueError, band=(0.6, 0.7)):
    """``spec`` (one with no outer map) whose h raises ``refusal`` on a total
    in ``band``, (0.6, 0.7) by default, or gives NaN when ``refusal`` is None.
    ``band`` is one (low, high) pair or a list of them.

    For shannon that default is some drawn vectors, but no uniform
    distribution at n >= 3 (ln 3 = 1.10) and not ``_BAND_SAFE`` itself.
    """
    assert spec.functional.h is None
    bands = band if isinstance(band, list) else [band]

    def picky(y):
        if any(low < y < high for low, high in bands):
            if refusal is None:
                return math.nan
            raise refusal(f"h refused {y!r}")
        return y

    object.__setattr__(spec, "_functional", replace(spec.functional, h=picky))
    return spec


_BAND_SAFE = FiniteDistribution([0.4, 0.3, 0.2, 0.1])  # H = 1.28; its (0.7, 0.3) is in the band


def _first_raise(fn, *args):
    """The type and message of what ``fn(*args)`` raises; it must raise."""
    with pytest.raises(Exception) as raised:
        fn(*args)
    return type(raised.value), str(raised.value)


@pytest.mark.parametrize(
    "path", [lambda spec: spec, _with_batch_refusing_phi], ids=["batched", "per_vector"]
)
def test_oracles_raise_what_the_reference_loops_raise_first(path):
    """An exception from h escapes each oracle as it escapes its per-case loop:
    the same type and message, from the same vector."""
    spec = path(_with_h_refusing_a_band(EntropySpec("shannon")))
    assert evaluate(spec, _BAND_SAFE) == evaluate(SHANNON, _BAND_SAFE)
    # a coarser value is refused in a case before the first refused finer one
    campaign = ([SHANNON, spec, HE], [3, 4, 5, 6], 2, 8)
    expected = _first_raise(_reference_campaign, *campaign)
    assert expected[0] is ValueError
    assert _first_raise(run_monotonicity_campaign, *campaign) == expected
    for oracle, reference in (
        (exhaustive_lattice_check, _reference_lattice),
        (corollary1_check, _reference_corollary),
    ):
        expected = _first_raise(reference, spec, _BAND_SAFE)
        assert expected[0] is ValueError
        assert _first_raise(oracle, spec, _BAND_SAFE) == expected
    expected = _first_raise(_reference_max_entropy, spec, [3, 4, 5], 8, 1)
    assert expected[0] is ValueError
    assert _first_raise(max_entropy_check, spec, [3, 4, 5], 8, 1) == expected
    # the base and some partitions are refused: the base is evaluated first
    spec = path(_with_h_refusing_a_band(EntropySpec("shannon"), band=(1.0, 1.3)))
    expected = _first_raise(_reference_corollary, spec, _BAND_SAFE)
    assert expected == (ValueError, f"h refused {evaluate(SHANNON, _BAND_SAFE)!r}")
    assert _first_raise(corollary1_check, spec, _BAND_SAFE) == expected
    # an n = 3 sample is refused, and n = 4's uniform (ln 4): the sample comes first
    spec = path(_with_h_refusing_a_band(EntropySpec("shannon"), band=[(0.5, 1.0), (1.38, 1.39)]))
    expected = _first_raise(_reference_max_entropy, spec, [3, 4], 8, 1)
    assert expected == (ValueError, "h refused 0.5752368685240639")
    assert _first_raise(max_entropy_check, spec, [3, 4], 8, 1) == expected



def test_lattice_raises_what_the_identity_alone_raises():
    """h refuses only the identity's component sum, which the lattice evaluates apart
    from its table of partition values: the error escapes as from the per-partition loop."""
    top = evaluate(SHANNON, _BAND_SAFE)
    spec = _with_h_refusing_a_band(EntropySpec("shannon"), band=(top - 1e-9, top + 1e-9))
    expected = _first_raise(_reference_lattice, spec, _BAND_SAFE)
    assert expected == (ValueError, f"h refused {top!r}")
    assert _first_raise(exhaustive_lattice_check, spec, _BAND_SAFE) == expected

def test_summary_keeps_specs_that_share_a_label_apart():
    """Two h_phi_custom specs share a label; each gets its own summary."""
    specs = [
        EntropySpec("h_phi_custom", phi=lambda x: x * (1.0 - x)),
        EntropySpec("h_phi_custom", phi=lambda x: math.nan),
    ]
    assert specs[0].label() == specs[1].label()
    report = run_monotonicity_campaign(specs, [3, 4], 4, rng_seed=0)
    assert len(report.summary) == 2
    kept, nan = report.summary
    assert (kept.cases, kept.skipped, nan.cases, nan.skipped) == (8, 0, 8, 8)
    assert kept.min_margin == min(e.margin for e in report.entries[:8])
    assert kept.worst[0] == 0
    assert nan.worst is None and nan.min_margin is None
    assert report_from_json(emit_report(report)).summary == report.summary


@pytest.mark.parametrize("call, args", [
    (run_monotonicity_campaign, ([SHANNON], [3], -1, 0)),
    (run_monotonicity_campaign, ([SHANNON], [3], 2, -1)),
    (replay_case, ([SHANNON], 0, 3, 0, -1)),
    (max_entropy_check, (SHANNON, [3], -1, 0)),
    (max_entropy_check, (SHANNON, [0, 3], 2, 0)),
    (check_basic_axioms, (SHANNON, -1, 0)),
    (check_basic_axioms, (SHANNON, 10, -1)),
    (check_product_composability, (SHANNON, 10, -1)),
])
def test_entry_points_reject_negative_seeds_and_counts(call, args):
    """The typed error, not numpy's bare ValueError, at the kernel's boundary."""
    with pytest.raises(ValidationError):
        call(*args)


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


def _mixed_report():
    """Full-shape campaign entries beside skipped, noted and odd-valued ones."""
    campaign = run_monotonicity_campaign(
        [EntropySpec("s_delta", delta=2.0), SHANNON], [3, 4], 3, rng_seed=5
    )
    full = next(e for e in campaign.entries if e.skipped is None)
    entries = list(campaign.entries) + [
        replace(full, note="noted"),
        replace(full, probs=()),
        replace(full, value_finer=1),
        replace(full, margin=np.float64(0.5)),
        replace(full, margin=1.5e308, value_coarser=1.5e308),
        replace(full, blocks_finer=None),
    ]
    assert any(e.skipped for e in entries)
    return VerificationReport("mixed", 5, 1e-9, tuple(entries), _summarize(entries))


def _typed_and_shaped_reports():
    """Hazards of a writer that memoises texts per column and formats rows by
    shape: an ``index`` column mixing ``1`` and ``True`` and an ``n`` column
    mixing ``3`` and ``3.0`` (equal keys, different texts), and rows that omit
    different sets of optional fields, within one chunk and across rows 1024
    and 2048."""
    full = CaseRecord(
        "hand", "x", 3, 1, True, probs=(0.5, 0.25, 0.25), blocks_finer=((0,), (1,), (2,)),
        blocks_coarser=((0, 1), (2,)), value_finer=1.0, value_coarser=0.5, margin=0.5,
        skipped="reason", note="noted",
    )
    typed = [replace(full, index=index, n=n) for index in (1, True) for n in (3, 3.0)]
    typed += [replace(full, index=True, n=3.0)] * 3 + [replace(full, index=1, n=3)] * 3
    optional = ("blocks_coarser", "blocks_finer", "margin", "note", "probs", "skipped")
    optional += ("value_coarser", "value_finer")
    shaped = [
        replace(full, index=r, **{name: None for k, name in enumerate(optional) if r % (k + 2) == 0})
        for r in range(2100)
    ]
    assert len({tuple(e.to_dict()) for e in shaped[1000:1048]}) > 8  # shapes around row 1024
    return [
        VerificationReport(campaign_id, 0, 1e-9, tuple(entries), _summarize(entries))
        for campaign_id, entries in (("typed", typed), ("shaped", shaped))
    ]


def test_emit_json_equals_json_dumps():
    uniform4 = FiniteDistribution([0.1, 0.2, 0.3, 0.4])
    mixed = _mixed_report()
    # every shape of the mixed report lies on both sides of rows 1024 and 2048
    repeated = list(mixed.entries) * (2100 // len(mixed.entries))
    reports = [
        mixed,
        VerificationReport("repeated", 5, 1e-9, tuple(repeated), _summarize(repeated)),
        exhaustive_lattice_check(HE, sample_dirichlet_uniform(7, 12)),
        run_monotonicity_campaign(
            [EntropySpec("s_delta", delta=2.0), SHANNON, HE], [3, 4], 4, rng_seed=5
        ),
        run_monotonicity_campaign([], [3], 5, rng_seed=0),
        exhaustive_lattice_check(EntropySpec("tsallis", q=2.0), uniform4),
        corollary1_check(HE, uniform4),
        counterexample_suite(),
        max_entropy_check(HE, [3, 4], 6, rng_seed=2),
        _hand_built_report(),
        *_typed_and_shaped_reports(),
    ]
    assert any(e.skipped for e in reports[1].entries)
    for report in reports:
        expected = json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False)
        assert emit_report(report, "json") == (expected + "\n").encode("utf-8")


def test_emit_json_of_one_case_campaigns_equals_json_dumps():
    """A campaign of one case per n keeps its blocks as label rows of one row each;
    they are written before anything reads them whole, as ``json.dumps`` writes them."""
    for specs, ns in (([SHANNON], [5]), ([SHANNON], [3]), ([HE], [3, 4, 257])):
        report = run_monotonicity_campaign(specs, ns, 1, rng_seed=0)
        written = emit_report(report, "json")
        expected = json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False)
        assert written == (expected + "\n").encode("utf-8")


def test_emit_json_writes_equal_blocks_of_other_types_apart():
    """Blocks ``(0, 1)`` and ``(0.0, 1.0)`` compare equal; in either row order
    each is written as ``json.dumps`` writes it."""
    blocks = [((0, 1),), ((0.0, 1.0),)]
    for order in ([0, 1], [1, 0]):
        records = [
            CaseRecord(kind="hand", spec="x", n=2, index=i, passed=True, blocks_coarser=blocks[b])
            for i, b in enumerate(order)
        ]
        report = VerificationReport("hand", None, 1e-9, tuple(records), _summarize(records))
        expected = json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False)
        assert emit_report(report) == (expected + "\n").encode("utf-8")
        written = [e["blocks_coarser"][0][0] for e in json.loads(emit_report(report))["entries"]]
        assert list(map(type, written)) == [(int, float)[b] for b in order]


def test_entry_schema_is_one_table_for_dict_writer_and_reader():
    """to_dict, the JSON writer and report_from_json agree field by field."""
    for report in (_mixed_report(), counterexample_suite()):
        written = json.loads(emit_report(report))
        assert written["entries"] == [entry.to_dict() for entry in report.entries]
        assert report_from_json(emit_report(report)) == report


def test_emit_json_rejects_non_finite_entry():
    record = CaseRecord(kind="hand", spec="x", n=3, index=0, passed=True, margin=math.nan)
    report = VerificationReport("nan", 0, 1e-9, (record,), summary=())
    with pytest.raises(NonFinite):
        emit_report(report, "json")
    # in a row of a later chunk, of a field written in bulk when all are finite
    campaign = run_monotonicity_campaign([SHANNON], [3, 4], 600, rng_seed=5)
    full = campaign.entries[1100]
    for bad in (math.nan, math.inf, -math.inf):
        for change in (
            {"value_finer": bad},
            {"margin": bad},
            {"probs": full.probs[:-1] + (bad,)},
        ):
            entries = list(campaign.entries)
            entries[1100] = replace(full, **change)
            with pytest.raises(NonFinite):
                emit_report(VerificationReport("bad", 0, 1e-9, tuple(entries), ()), "json")


def test_emit_json_refuses_a_container_where_a_scalar_goes():
    """A tuple, list or dict in a scalar field, or nested in a block, is a
    ``TypeError``, as a set is to ``json.dumps``: not written as an array or object.
    A margin is read as a float unless the row is skipped, so it rides on a skipped row."""
    base = CaseRecord(kind="hand", spec="x", n=2, index=0, passed=True)
    changes = [
        {field: bad}
        for bad in ((1, 2), [1, 2], {"a": 1})
        for field in ("note", "spec")
    ]
    changes += [{"skipped": "reason", "margin": bad} for bad in ((1, 2), [1, 2], {"a": 1})]
    changes += [{"blocks_coarser": ((nested,),)} for nested in ((0, 1), [0, 1])]
    changes += [{"blocks_finer": (((0, 1), 2),)}, {"probs": ((0.5, 0.5),)}]
    for change in changes:
        bad = replace(base, **change)
        for records in ([bad], [base, bad], [bad, replace(base, index=1)]):
            report = VerificationReport("hand", 0, 1e-9, tuple(records), ())
            with pytest.raises(TypeError):
                emit_report(report, "json")


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=60, deadline=None)
@given(
    payload=st.fixed_dictionaries({"b": _JSON_VALUES, "y": _JSON_VALUES}),
    values=st.lists(_JSON_VALUES, min_size=2, max_size=4),
    odd=st.text(min_size=1),
)
def test_json_document_is_json_dumps(payload, values, odd):
    """``_json_document`` writes ``json.dumps(..., sort_keys=True, indent=2)`` and a
    newline, its array key before, between or after the others with 0, 1 or many
    items; a non-finite float anywhere raises ``NonFinite``."""
    dumps = lambda value: json.dumps(value, sort_keys=True, indent=2)
    document = lambda *args: "".join(verify._json_document(*args))
    assert document(payload) == dumps(payload) + "\n"
    for key in {"a", "m", "z", odd} - set(payload):  # before, between and after "b" and "y"
        for items in (values[:0], values[:1], values):
            texts = [dumps(value).replace("\n", "\n    ") for value in items]
            assert document(payload, key, texts) == dumps({**payload, key: items}) + "\n"
    texts = [dumps(value).replace("\n", "\n    ") for value in values]
    for bad in (math.nan, math.inf, -math.inf):
        for spoiled in ({**payload, "b": bad}, {**payload, "y": [payload["y"], {"deep": [bad]}]}):
            for args in ((spoiled,), (spoiled, "m"), (spoiled, "m", texts)):
                with pytest.raises(NonFinite):
                    document(*args)


# ---------------------------------------------------------------------------
# The oracles on the batched kernel against the per-partition loops
# ---------------------------------------------------------------------------

def _merge_blocks(partition, i, j):
    blocks = list(partition.blocks)
    merged = tuple(sorted(blocks[i] + blocks[j]))
    rest = [b for idx, b in enumerate(blocks) if idx not in (i, j)]
    return Partition(rest + [merged], partition.ground_size)


def _reference_lattice(spec, dist, tolerance=1e-9):
    """The per-partition lattice loop: coarse_grain + evaluate per partition."""
    n = dist.n
    label = spec.label()
    partitions = list(enumerate_partitions(n))
    values, errors = {}, {}
    for part in partitions:
        try:
            values[part] = evaluate(spec, coarse_grain(dist, part))
        except GentropyError as exc:
            values[part] = None
            errors[part] = f"{type(exc).__name__}: {exc}"
    entries = []
    min_margin = math.inf

    def record(kind, finer, coarser):
        nonlocal min_margin
        common = dict(
            kind=kind,
            spec=label,
            n=n,
            index=len(entries),
            blocks_finer=finer.blocks,
            blocks_coarser=coarser.blocks,
        )
        if values[finer] is None or values[coarser] is None:
            reason = errors.get(finer) or errors.get(coarser)
            entries.append(CaseRecord(passed=True, skipped=reason, **common))
            return
        margin = values[finer] - values[coarser]
        min_margin = min(min_margin, margin)
        entries.append(
            CaseRecord(
                passed=margin >= -tolerance,
                value_finer=values[finer],
                value_coarser=values[coarser],
                margin=margin,
                **common,
            )
        )

    identity = Partition.identity(n)
    for part in partitions:
        for i in range(part.k):
            for j in range(i + 1, part.k):
                record("covering_edge", part, _merge_blocks(part, i, j))
        if part != identity:
            record("total_merge" if part.k == 1 else "vs_identity", identity, part)
    metadata = {
        "partitions": len(partitions),
        "probs": dist.probs.tolist(),
        "min_margin": None if math.isinf(min_margin) else min_margin,
    }
    return VerificationReport(
        f"lattice-n{n}", None, tolerance, tuple(entries), _reference_summary(entries), metadata
    )


def _reference_corollary(spec, dist, tolerance=1e-9):
    """The per-partition corollary loop."""
    n = dist.n
    label = spec.label()
    identity = Partition.identity(n)
    base = evaluate(spec, dist)
    entries = []
    for part in enumerate_partitions(n):
        if part == identity:
            continue
        common = dict(
            kind="total_merge" if part.k == 1 else "vs_identity",
            spec=label,
            n=n,
            index=len(entries),
            blocks_finer=identity.blocks,
            blocks_coarser=part.blocks,
        )
        try:
            value = evaluate(spec, coarse_grain(dist, part))
        except GentropyError as exc:
            entries.append(
                CaseRecord(passed=True, skipped=f"{type(exc).__name__}: {exc}", **common)
            )
            continue
        margin = base - value
        entries.append(
            CaseRecord(
                passed=margin >= -tolerance,
                value_finer=base,
                value_coarser=value,
                margin=margin,
                **common,
            )
        )
    metadata = {"probs": dist.probs.tolist(), "base_value": base}
    return VerificationReport(
        f"corollary-n{n}", None, tolerance, tuple(entries), _reference_summary(entries), metadata
    )


def _reference_max_entropy(spec, n_values, samples, rng_seed, tolerance=1e-9):
    """The per-sample uniform-maximality loop."""
    entries = []
    label = spec.label()
    floor = 0.0 if spec.functional.zero_safe else _INTERIOR_FLOOR
    n_list = sorted(set(n_values))
    for n in n_list:
        try:
            top = evaluate(spec, FiniteDistribution(np.full(n, 1.0 / n)))
        except GentropyError as exc:
            skipped = f"{type(exc).__name__}: {exc}"
            entries.append(
                CaseRecord(
                    kind="max_entropy", spec=label, n=n, index=0, passed=True, skipped=skipped
                )
            )
            continue
        rows = _sampler2_rows([rng_seed, n], n, samples, floor)
        for case, (p, _) in enumerate(rows):
            common = dict(
                kind="max_entropy", spec=label, n=n, index=case, probs=tuple(p.tolist())
            )
            try:
                value = evaluate(spec, FiniteDistribution(p))
            except GentropyError as exc:
                entries.append(
                    CaseRecord(passed=True, skipped=f"{type(exc).__name__}: {exc}", **common)
                )
                continue
            margin = top - value
            entries.append(
                CaseRecord(
                    passed=margin >= -tolerance,
                    value_finer=top,
                    value_coarser=value,
                    margin=margin,
                    **common,
                )
            )
    metadata = {"n_values": n_list, "samples": samples, "sampler": 2}
    return VerificationReport(
        "max-entropy", rng_seed, tolerance, tuple(entries), _reference_summary(entries), metadata
    )


def _assert_oracles_match_reference(spec, dist):
    """Both oracles equal their reference loops; returns both reports.

    When the reference corollary raises on its base value, the corollary
    must raise the same error, and ``None`` stands for its report.
    """
    lattice = exhaustive_lattice_check(spec, dist)
    assert lattice == _reference_lattice(spec, dist)
    try:
        expected = _reference_corollary(spec, dist)
    except GentropyError as exc:
        with pytest.raises(type(exc)) as raised:
            corollary1_check(spec, dist)
        assert str(raised.value) == str(exc)
        return lattice, None
    corollary = corollary1_check(spec, dist)
    assert corollary == expected
    return lattice, corollary


def _custom_specs():
    """Two user phis, which run batched, and a refused batch, which falls back."""
    return [
        EntropySpec("h_phi_custom", phi=lambda x: x * (1.0 - x), zero_safe=True),
        EntropySpec("h_phi_custom", phi=lambda x: x * (1.0 - x), h=lambda y: 1 / 0),
        _with_batch_refusing_phi(EntropySpec("tsallis", q=2.0)),
    ]


@pytest.mark.slow
def test_lattice_and_corollary_equal_per_partition_loops_exactly():
    """Every catalog family and counterexample_HE at n = 2..6, exact ==.

    The zero-holding distribution makes the identity fail for functionals
    that reject zeros while coarser partitions that merge the zero pass, and
    the corollary raise on its base value.
    """
    specs = default_campaign_specs(include_unstable=True) + [HE] + _custom_specs()
    for n in range(2, 7):
        for s_index, spec in enumerate(specs):
            rng = np.random.default_rng([n, s_index])
            _assert_oracles_match_reference(spec, FiniteDistribution(rng.dirichlet(np.ones(n))))
    for n in (3, 5):
        with_zero = FiniteDistribution(np.r_[0.0, np.arange(1.0, n)] / (n * (n - 1) / 2))
        for spec in specs:
            lattice, corollary = _assert_oracles_match_reference(spec, with_zero)
            if not spec.functional.zero_safe:
                assert corollary is None
                assert lattice.summary[0].skipped > 0
                if spec.id != "h_phi_custom":  # the custom one's h always raises
                    assert lattice.summary[0].skipped < len(lattice.entries)


def test_lattice_and_corollary_equal_per_partition_loops_at_n8():
    """At n = 8, including s_delta(3.0): the identity passes, k <= 7 is rejected."""
    dist = FiniteDistribution(np.random.default_rng(8).dirichlet(np.ones(8)))
    s_delta = EntropySpec("s_delta", delta=3.0)
    for spec in (SHANNON, HE):
        _assert_oracles_match_reference(spec, dist)
    lattice, corollary = _assert_oracles_match_reference(s_delta, dist)
    assert lattice.summary[0].skipped == len(lattice.entries)
    assert corollary.summary[0].skipped == len(corollary.entries) == bell_number(8) - 1


def test_lattice_and_corollary_cold_paths_equal_per_partition_loops_at_n8():
    """At n = 8 on a distribution holding a zero, the kernel's cold paths: which
    vectors hold the zero is gathered, a functional rejecting zeros runs phi on
    the subsets its kept vectors read, and the refused batch of the user specs
    falls back to phi per vector.  The corollary's entries hold the value of
    every non-identity partition, so it alone checks the fallback's values."""
    rng = np.random.default_rng(80)
    with_zero = FiniteDistribution(np.r_[0.0, rng.dirichlet(np.ones(7))])
    rejecting, refused = EntropySpec("abe", k=0.3), _custom_specs()[-1]
    lattice, corollary = _assert_oracles_match_reference(rejecting, with_zero)
    assert corollary is None and 0 < lattice.summary[0].skipped < len(lattice.entries)
    corollary = corollary1_check(refused, with_zero)
    assert corollary == _reference_corollary(refused, with_zero)
    assert corollary.summary[0].skipped == 0


def _kernel_runs(monkeypatch):
    """A list that grows by one each time the oracles run the evaluation kernel."""
    runs, kernel = [], verify._VectorValues

    def counting(*args, **kwargs):
        runs.append(args[1])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(verify, "_VectorValues", counting)
    return runs


@pytest.mark.parametrize("first", ["lattice", "corollary"])
def test_lattice_and_corollary_on_one_spec_and_distribution_share_one_table(first):
    """The second check of a pair reuses the first one's table: phi runs on the
    2**n - 1 subset masses in the first only, and on the n probabilities that
    each check evaluates unaggregated itself.  Both equal their references."""
    calls = []

    def counting(x):
        calls.append(x)
        return x * (1.0 - x)

    spec = EntropySpec("h_phi_custom", phi=counting, zero_safe=True)
    dist = FiniteDistribution(np.random.default_rng(61).dirichlet(np.ones(6)))
    checks = [(exhaustive_lattice_check, _reference_lattice),
              (corollary1_check, _reference_corollary)]
    if first == "corollary":
        checks.reverse()
    reports, counts = [], []
    for check, _ in checks:
        calls.clear()
        reports.append(check(spec, dist))
        counts.append(len(calls))
    assert counts == [2**6 - 1 + 6, 6]
    for report, (_, reference) in zip(reports, checks):
        assert report == reference(spec, dist)


def test_value_table_is_not_reused_across_specs_distributions_or_functionals(monkeypatch):
    """An equal but distinct spec, a distribution one ulp away and a spec whose
    functional was swapped are each evaluated anew, and equal their references."""
    runs = _kernel_runs(monkeypatch)
    dist = FiniteDistribution(np.random.default_rng(62).dirichlet(np.ones(5)))
    spec, twin = EntropySpec("tsallis", q=2.0), EntropySpec("tsallis", q=2.0)
    assert spec == twin and spec is not twin
    assert exhaustive_lattice_check(spec, dist) == _reference_lattice(spec, dist)
    assert corollary1_check(twin, dist) == _reference_corollary(twin, dist)
    assert len(runs) == 2
    probs = dist.probs.copy()
    probs[0] = np.nextafter(probs[0], 1.0)
    near = FiniteDistribution(probs)
    assert near.probs.tobytes() != dist.probs.tobytes()
    assert corollary1_check(twin, near) == _reference_corollary(twin, near)
    assert len(runs) == 3
    shannon = EntropySpec("shannon")
    assert exhaustive_lattice_check(shannon, _BAND_SAFE) == _reference_lattice(shannon, _BAND_SAFE)
    _with_h_refusing_a_band(shannon)  # the same object, another functional
    for oracle, reference in (
        (exhaustive_lattice_check, _reference_lattice),
        (corollary1_check, _reference_corollary),
    ):
        expected = _first_raise(reference, shannon, _BAND_SAFE)
        assert expected[0] is ValueError
        assert _first_raise(oracle, shannon, _BAND_SAFE) == expected
    assert len(runs) == 6


def test_kept_table_holds_no_identity_error_and_stays_read_only(monkeypatch):
    """On a zero-holding distribution abe rejects the identity: the lattice
    records that error, the corollary raises it on its base, and the lattice
    again equals its reference from the kept table, which never holds it.  A
    report built on a hit equals, to the byte, one built on a miss.  Once the
    blocks are read, the walk the table keeps is read-only, as its values are."""
    runs = _kernel_runs(monkeypatch)
    with_zero = FiniteDistribution(np.r_[0.0, np.random.default_rng(63).dirichlet(np.ones(5))])
    spec = EntropySpec("abe", k=0.3)
    lattice = exhaustive_lattice_check(spec, with_zero)
    assert lattice == _reference_lattice(spec, with_zero)
    expected = _first_raise(_reference_corollary, spec, with_zero)
    assert expected[0] is errors.ZeroUnsupported
    assert _first_raise(corollary1_check, spec, with_zero) == expected
    again = exhaustive_lattice_check(spec, with_zero)
    assert again == _reference_lattice(spec, with_zero) == lattice
    assert emit_report(again) == emit_report(lattice)
    assert len(runs) == 1
    *_, walk, numbers, failures = verify._KEPT_TABLE
    assert numbers.size not in failures and len(failures) < numbers.size
    assert walk.blocks is not None  # the emissions above read the blocks
    assert not walk.blocks.flags.writeable and not numbers.flags.writeable
    for kept in (numbers, walk[:]):
        with pytest.raises(ValueError):
            kept[0] = kept[1]


def test_a_refused_oracle_call_leaves_the_value_table_alone(monkeypatch):
    """A negative tolerance or n > 8 is refused before the table is read or filled."""
    spec, dist = EntropySpec("tsallis", q=2.0), FiniteDistribution([0.2, 0.3, 0.5])
    exhaustive_lattice_check(spec, dist)
    kept = verify._KEPT_TABLE

    def unreachable(*args):
        raise AssertionError("the value table was reached")

    monkeypatch.setattr(verify, "_partition_values", unreachable)
    nine = FiniteDistribution(np.full(9, 1 / 9))
    for oracle in (exhaustive_lattice_check, corollary1_check):
        with pytest.raises(errors.ParamOutOfDomain, match=">= 0"):
            oracle(spec, dist, tolerance=-1.0)
        with pytest.raises(errors.TooLarge):
            oracle(spec, nine)
    assert verify._KEPT_TABLE is kept


def test_lattice_entries_reading_one_value_share_its_float():
    """In each value column, a partition's value is one float object, whichever
    entries read it: a report read whole holds a float per partition, not per entry."""
    report = exhaustive_lattice_check(SHANNON, FiniteDistribution([0.1, 0.2, 0.3, 0.4]))
    for side in ("finer", "coarser"):
        first = {}
        for entry in report.entries:
            blocks, value = getattr(entry, f"blocks_{side}"), getattr(entry, f"value_{side}")
            assert first.setdefault(blocks, value) is value


def test_lattice_past_the_gamma_range_skips_every_entry():
    """s_cd's batched phi raises NonFinite at d = 200; phi alone on each vector
    raises it too, so every entry, the identity's included, is skipped."""
    spec = EntropySpec("s_cd", c=0.5, d=200)
    report = exhaustive_lattice_check(spec, FiniteDistribution([0.1, 0.2, 0.3, 0.4]))
    reasons = {entry.skipped for entry in report.entries}
    assert len(report.entries) == report.summary[0].skipped > 0
    assert reasons == {"NonFinite: the gamma function at shape 201.0 overflows the float range"}


@pytest.mark.slow
def test_oracles_equal_reference_loops_with_cold_and_warm_shapes(monkeypatch):
    """Each n is checked first with nothing kept for it, then again once its
    partitions and lattice shape are kept: the reports do not change."""
    monkeypatch.setattr(verify, "_LATTICE_SHAPES", {})
    monkeypatch.setattr(verify, "_KEPT_TABLE", (None,) * 6)
    _label_rows.cache_clear()
    _kept_partitions.cache_clear()
    specs = [SHANNON, HE, _custom_specs()[1]]  # the last one's h always raises
    for n in (8, 3, 8, 5, 3):
        dist = FiniteDistribution(np.random.default_rng(n).dirichlet(np.ones(n)))
        for spec in specs:
            _assert_oracles_match_reference(spec, dist)
    assert sorted(verify._LATTICE_SHAPES) == [3, 5, 8]


@pytest.mark.parametrize("n", range(1, 9))
def test_lattice_subset_table_decodes_blocks_and_sums_as_coarse_grain(n):
    """Each non-identity block reads the subset whose bit mask, less one, is its
    id; that subset holds the block's elements and its mass has coarse_grain's bits."""
    dist = FiniteDistribution(np.random.default_rng(n).dirichlet(np.ones(n)))
    exhaustive_lattice_check(SHANNON, dist)  # keeps the shape of n
    (subset_masses, _, _, (count, groups)), _ = verify._LATTICE_SHAPES[n]
    masses = subset_masses(dist.probs)
    block_rows = [None] * count  # each partition's row of subset ids, in partition order
    for rows, ids in groups:
        for row, subset_ids in zip(rows.tolist(), ids):
            block_rows[row] = subset_ids
    block_rows = np.concatenate([np.empty(0, np.intp), *block_rows])
    assert masses.size == 2**n - 1
    partitions = list(enumerate_partitions(n))[:-1]  # the identity is last
    blocks = [block for partition in partitions for block in partition.blocks]
    decoded = [tuple(e for e in range(n) if (s + 1) >> e & 1) for s in block_rows.tolist()]
    assert decoded == blocks
    expected = [coarse_grain(dist, partition).probs for partition in partitions]
    assert masses[block_rows].tobytes() == np.concatenate([np.empty(0), *expected]).tobytes()



def _old_subset_sums(probs):
    """Each subset's mass by the per-width column sums of ``_segment_sums``, subset s the one
    with bit mask s + 1: the lattice's masses before they were doubled."""
    n = probs.size
    bits = np.arange(1, 2**n)[:, None] >> np.arange(n) & 1
    sizes = bits.sum(axis=1)
    plan = verify._sum_plan(verify._starts(sizes), sizes, np.nonzero(bits)[1])
    return verify._segment_sums(probs, plan)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.integers(0, 7),
    point=st.booleans(),
)
def test_subset_masses_by_doubling_equal_the_segment_sums_bit_for_bit(n, seed, zeros, point):
    """The doubled masses have the bits of the in-order column sums below 8 states and of
    ``np.sum`` for all 8, with zero masses and point masses among the draws."""
    probs = np.random.default_rng(seed).dirichlet(np.ones(n))
    probs[: min(zeros, n - 1)] = 0.0
    if point:
        probs = np.eye(n)[seed % n]
    probs = FiniteDistribution(probs / probs.sum()).probs
    masses = verify._subset_masses(probs)
    assert masses.size == 2**n - 1
    assert masses.tobytes() == _old_subset_sums(probs).tobytes()
    assert masses[-1] == np.sum(probs)


def _no_failure_reports():
    dist = FiniteDistribution(np.random.default_rng(5).dirichlet(np.ones(5)))
    return [exhaustive_lattice_check(SHANNON, dist), corollary1_check(SHANNON, dist),
            exhaustive_lattice_check(HE, dist), max_entropy_check(SHANNON, [3, 4], 5, 0),
            run_monotonicity_campaign([SHANNON, HE], [3, 4], 4, rng_seed=0)]


def test_a_report_with_no_failure_has_no_skip_column_and_writes_as_its_records():
    """Without failures every entry's ``skipped`` is the shared None, and the report
    writes, reads back and unpickles as one built from its records."""
    for report in _no_failure_reports():
        assert "skipped" not in report.entries._columns
        assert not report.entries.skipped.any()
        assert all(entry.skipped is None for entry in report.entries)
        assert report.entries[len(report.entries) - 1].skipped is None
        assert all("skipped" not in entry for entry in report.to_dict()["entries"])
        assert all(s.skipped == 0 and s.skip_reasons == () for s in report.summary)
        from_records = VerificationReport(
            report.campaign_id, report.seed, report.tolerance, tuple(report.entries),
            report.summary, report.metadata)
        for format in ("json", "markdown", "csv"):
            assert emit_report(report, format) == emit_report(from_records, format)
        assert report_from_json(emit_report(report)) == report
        again = pickle.loads(pickle.dumps(report))
        assert again == report and emit_report(again) == emit_report(report)
        assert all(entry.skipped is None for entry in again.entries)


def test_a_report_with_failures_keeps_its_reasons():
    """A spec whose h always raises skips every lattice entry, each with its reason."""
    spec = _custom_specs()[1]
    dist = FiniteDistribution([0.1, 0.2, 0.3, 0.4])
    report = exhaustive_lattice_check(spec, dist)
    reason = "UserCallableError: h_phi_custom h raised ZeroDivisionError: division by zero"
    assert "skipped" in report.entries._columns
    assert report.entries.skipped.all()
    assert {entry.skipped for entry in report.entries} == {reason}
    assert report.summary[0].skip_reasons == ((reason, len(report.entries)),)
    assert report == _reference_lattice(spec, dist)
    again = pickle.loads(pickle.dumps(report))
    assert [entry.skipped for entry in again.entries] == [reason] * len(report.entries)
    assert emit_report(again) == emit_report(report)


def test_corollary_rows_are_kept_read_only_and_built_once_per_n(monkeypatch):
    """The corollary's rows and the identity's blocks are made with the lattice's, once per
    n, and every corollary at that n reads the same read-only arrays."""
    built = []
    lattice_rows = verify._lattice_rows
    monkeypatch.setattr(verify, "_LATTICE_SHAPES", {})
    monkeypatch.setattr(verify, "_lattice_rows", lambda n: built.append(n) or lattice_rows(n))
    reports = [corollary1_check(SHANNON, sample_dirichlet_uniform(5, seed)) for seed in range(3)]
    reports.append(exhaustive_lattice_check(SHANNON, sample_dirichlet_uniform(5, 3)))
    assert built == [5]
    finer, coarser, kind, (c_finer, c_coarser, c_kind, identity) = verify._LATTICE_SHAPES[5][1]
    assert identity == Partition.identity(5).blocks
    vs = np.flatnonzero(kind)
    for kept, expected in ((c_finer, finer[vs]), (c_coarser, coarser[vs]), (c_kind, kind[vs])):
        assert np.array_equal(kept, expected) and kept.dtype == np.intp
    for kept in (finer, coarser, kind, c_finer, c_coarser, c_kind):
        assert not kept.flags.writeable
        with pytest.raises(ValueError):
            kept[0] = kept[0]
    for report in reports[:3]:
        assert report.entries._columns["kind"].rows is c_kind
        assert report.entries._columns["blocks_coarser"].rows is c_coarser
        assert all(entry.blocks_finer is identity for entry in report.entries)


def test_a_warm_n8_oracle_pair_allocates_little_beyond_what_it_keeps():
    """After a warm-up, an n = 8 lattice+corollary pair on a new distribution peaks at most
    128 KiB above what it still holds after it, and each call 64 KiB above: no temporary is
    as long as the lattice's 32,476 rows (254 KiB of margins)."""
    for seed in range(2):
        dist = sample_dirichlet_uniform(8, seed)
        exhaustive_lattice_check(SHANNON, dist), corollary1_check(SHANNON, dist)
    dist, excess = sample_dirichlet_uniform(8, 2), {}
    tracemalloc.start()
    try:
        for calls in ((exhaustive_lattice_check, corollary1_check),
                      (exhaustive_lattice_check,), (corollary1_check,)):
            tracemalloc.reset_peak()
            reports = [check(SHANNON, dist) for check in calls]
            held, peak = tracemalloc.get_traced_memory()
            excess[len(calls), calls[0].__name__] = peak - held
            del reports
    finally:
        tracemalloc.stop()
    assert excess.pop((2, "exhaustive_lattice_check")) <= 128 * 1024
    assert max(excess.values()) <= 64 * 1024


_HARD_TERMS = {
    "signed_zeros": [-0.0, 0.0, -0.0],
    "cancellation": [1e16, -1e16, 1.0, -1.0, 3.0, 0.5, 1e-3, 2.0**-60],
    "subnormals": [5e-324, -5e-324, 2.5e-308, -1e-310, 2.2250738585072014e-308],
    "mixed": [1.0, -0.1, 0.7, -3.3, 1e-17, 2.0**53, -(2.0**53)],
}


@pytest.mark.parametrize("terms", _HARD_TERMS.values(), ids=list(_HARD_TERMS))
def test_segment_sums_equal_np_sum_per_row_bit_for_bit(terms):
    """Every width 1..12, rows drawn from terms where the order of addition
    shows in the bits: each sum is ``np.sum`` of its row alone.  Below 8 the
    rows are summed by column; this fails if numpy changes that order."""
    rng = np.random.default_rng(len(terms))
    widths = np.repeat(np.arange(1, 13), 40)
    values = rng.choice(np.array(terms + [-t for t in terms]), widths.sum())
    starts = verify._starts(widths)
    sums = verify._segment_sums(values, verify._sum_plan(starts, widths))
    expected = [np.sum(values[s : s + w]) for s, w in zip(starts.tolist(), widths.tolist())]
    assert sums.tobytes() == np.array(expected).tobytes()


def test_lattice_and_corollary_run_phi_once_per_subset_at_n8():
    """phi gets each of the 255 subset masses once per check, not the 16,999 block
    masses of the non-identity partitions: a batched phi in one call, the user
    callable of h_phi_custom in 255 calls; the identity's evaluate adds 8 entries."""
    sizes, calls = [], []
    tsallis = EntropySpec("tsallis", q=2.0)
    phi = tsallis.functional.phi

    def recording(x):
        sizes.append(np.size(x))
        return phi(x)

    def counting(x):
        calls.append(x)
        return x * (1.0 - x)

    object.__setattr__(tsallis, "_functional", replace(tsallis.functional, phi=recording))
    user = EntropySpec("h_phi_custom", phi=counting, zero_safe=True)
    dist = FiniteDistribution(np.random.default_rng(8).dirichlet(np.ones(8)))
    for check in (exhaustive_lattice_check, corollary1_check):
        sizes.clear(), calls.clear()
        check(tsallis, dist), check(user, dist)
        assert sorted(sizes) == [8, 2**8 - 1], check.__name__
        assert len(calls) == 2**8 - 1 + 8, check.__name__


def _reason(exc):
    return f"{type(exc).__name__}: {exc}"


def _value_or_reason(spec, dist):
    try:
        return evaluate(spec, dist)
    except GentropyError as exc:
        return _reason(exc)


@pytest.mark.slow
def test_partition_values_equal_per_partition_evaluate_for_every_family_at_n8():
    """One spec per family, HE and the user specs at n = 8: the kernel's table of
    non-identity partitions holds each per-partition ``evaluate`` value, equal
    by == and by sign bit, or its reason; an escaping exception is the same."""
    per_family = {}
    for spec in default_campaign_specs(include_unstable=True) + [HE]:
        per_family.setdefault(spec.id, spec)
    dist = FiniteDistribution(np.random.default_rng(88).dirichlet(np.ones(8)))
    partitions = list(enumerate_partitions(8))[:-1]  # the identity is last
    for spec in [*per_family.values(), *_custom_specs()]:
        try:
            expected = [_value_or_reason(spec, coarse_grain(dist, p)) for p in partitions]
        except Exception as exc:
            with pytest.raises(type(exc)):
                verify._partition_values(spec, dist)
            continue
        _, _, numbers, failures = verify._partition_values(spec, dist)
        values = [_reason(failures[v]) if v in failures else x
                  for v, x in enumerate(numbers.tolist())]
        assert [type(v) for v in values] == [type(v) for v in expected], spec.label()
        assert values == expected, spec.label()
        signs = [math.copysign(1.0, v) for v in values if type(v) is float]
        assert signs == [math.copysign(1.0, v) for v in expected if type(v) is float]


def test_max_entropy_check_equals_per_sample_loop_exactly():
    specs = [SHANNON, EntropySpec("tsallis", q=2.0), HE, EntropySpec("s_delta", delta=2.5)]
    specs += _custom_specs()
    for s_index, spec in enumerate(specs):
        assert max_entropy_check(spec, [3, 4, 5], 6, s_index) == _reference_max_entropy(
            spec, [3, 4, 5], 6, s_index
        )


# ---------------------------------------------------------------------------
# Lattice properties over random distributions
# ---------------------------------------------------------------------------

def _stirling2(n, k):
    """Partitions of an n-set into k blocks: S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def _plan_specs():
    """Shannon, Renyi, a dimension bound, HE and a user phi refusing batches."""
    def refusing(x):
        if np.size(x) > 12:
            raise FloatingPointError("batch refused")
        return x * (1.0 - x)

    return [
        SHANNON,
        EntropySpec("renyi", q=2.0),
        EntropySpec("s_delta", delta=3.0),
        HE,
        EntropySpec("h_phi_custom", phi=refusing, zero_safe=True),
    ]


def _same_outcomes(a, b):
    kinds = [(type(x), x.args if isinstance(x, Exception) else x) for x in a]
    return kinds == [(type(x), x.args if isinstance(x, Exception) else x) for x in b]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 8),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.integers(0, 2),
    spec_index=st.integers(0, len(_plan_specs()) - 1),
)
def test_kernel_plan_kept_per_n_gives_the_bits_of_one_built_per_call(n, seed, zeros, spec_index):
    """The lattice's kept plan reads the distribution once; a plan built for
    the call reads it tiled.  Values, numbers (NaN included) and totals agree."""
    spec = _plan_specs()[spec_index]
    probs = np.random.default_rng(seed).dirichlet(np.ones(n))
    probs[:zeros] = 0.0
    probs = FiniteDistribution(probs / probs.sum()).probs
    exhaustive_lattice_check(SHANNON, FiniteDistribution(np.full(n, 1.0 / n)))  # keeps the plan
    kept = verify._VectorValues([spec], probs, verify._LATTICE_SHAPES[n][0])
    counts, widths, elements = _label_blocks(_label_rows(n)[0][:-1])
    count = bell_number(n) - 1
    gather = elements + np.repeat(n * np.arange(count), n)  # vector v reads the v-th tile
    plan = verify._sum_plan(verify._starts(widths), widths, gather)
    sums = partial(verify._segment_sums, plan=plan)
    built = verify._VectorValues([spec], np.tile(probs, count), verify._kernel_plan(counts, sums))
    assert _same_outcomes(*([failures.get(v) for v in range(count)] for failures in (
        kept.failures, built.failures
    )))
    assert kept.numbers.tobytes() == built.numbers.tobytes()
    assert kept.totals.tobytes() == built.totals.tobytes()
    assert [v for v, e in sorted(kept.failures.items()) if not isinstance(e, GentropyError)] == [
        v for v, e in sorted(built.failures.items()) if not isinstance(e, GentropyError)
    ]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 6),
    seed=st.integers(0, 2**32 - 1),
    spec=st.sampled_from(
        [SHANNON, EntropySpec("tsallis", q=2.0), EntropySpec("renyi", q=0.5), HE]
    ),
)
def test_lattice_properties(n, seed, spec):
    """Each edge merges exactly two blocks, margins telescope, kinds count right."""
    dist = FiniteDistribution(np.random.default_rng(seed).dirichlet(np.ones(n)))
    report = exhaustive_lattice_check(spec, dist)
    assert all(e.skipped is None for e in report.entries)
    identity = tuple((i,) for i in range(n))
    vs_identity = {identity: 0.0}
    for entry in report.entries:
        if entry.kind != "covering_edge":
            assert entry.blocks_finer == identity
            vs_identity[entry.blocks_coarser] = entry.margin
    edges = [e for e in report.entries if e.kind == "covering_edge"]
    for edge in edges:
        finer, coarser = set(edge.blocks_finer), set(edge.blocks_coarser)
        gone, made = finer - coarser, coarser - finer
        assert len(gone) == 2 and len(made) == 1
        assert sorted(sum(gone, ())) == list(made.pop())
        expected = vs_identity[edge.blocks_coarser] - vs_identity[edge.blocks_finer]
        assert abs(edge.margin - expected) <= 1e-12
    kinds = [e.kind for e in report.entries]
    assert kinds.count("covering_edge") == sum(
        _stirling2(n, k) * k * (k - 1) // 2 for k in range(2, n + 1)
    )
    assert kinds.count("vs_identity") == sum(_stirling2(n, k) for k in range(2, n))
    assert kinds.count("total_merge") == 1
    assert len(vs_identity) == bell_number(n)
