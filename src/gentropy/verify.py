"""Campaign engine certifying that aggregation never increases entropy.

The central claim under test: for every functional in the catalog (with the
documented exclusions) and every pair of aggregation schemes where one
coarsens the other, the coarser entropy is no larger.  Campaigns sample
distributions and refinement pairs; the exhaustive oracle walks every
covering edge of the full partition order at small n.

Determinism contract: every case derives its random state from
(campaign seed, spec index, n, case index) only, so reports are identical
across runs and independent of execution order.  A per-case evaluation
error never aborts a campaign; the case is recorded as skipped with its
reason so coverage accounting stays honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import json
import math

import numpy as np

from .catalog import EntropySpec, evaluate, phi_prime
from .distributions import FiniteDistribution, _dirichlet_interior, coarse_grain
from .errors import GentropyError, NonFinite, TooLarge, UnsupportedFormat
from .partitions import Partition, _random_refinement_pair, enumerate_partitions

MARGIN_TOLERANCE = 1e-9
REPORT_SCHEMA = 1

_INTERIOR_FLOOR = 1e-6  # resampling floor for functionals that reject zeros


@dataclass(frozen=True)
class CaseRecord:
    """One checked case: inputs, both entropy values, and the margin.

    ``margin`` is H(finer aggregation) - H(coarser aggregation); negative
    beyond tolerance means a monotonicity violation.  ``skipped`` carries the
    error message when the functional could not be evaluated on this case.
    """

    kind: str
    spec: str
    n: int
    index: int
    passed: bool
    probs: tuple[float, ...] | None = None
    blocks_finer: tuple[tuple[int, ...], ...] | None = None
    blocks_coarser: tuple[tuple[int, ...], ...] | None = None
    value_finer: float | None = None
    value_coarser: float | None = None
    margin: float | None = None
    skipped: str | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        data = {
            "kind": self.kind,
            "spec": self.spec,
            "n": self.n,
            "index": self.index,
            "passed": self.passed,
        }
        if self.probs is not None:
            data["probs"] = list(self.probs)
        if self.blocks_finer is not None:
            data["blocks_finer"] = [list(b) for b in self.blocks_finer]
        if self.blocks_coarser is not None:
            data["blocks_coarser"] = [list(b) for b in self.blocks_coarser]
        if self.value_finer is not None:
            data["value_finer"] = self.value_finer
        if self.value_coarser is not None:
            data["value_coarser"] = self.value_coarser
        if self.margin is not None:
            data["margin"] = self.margin
        if self.skipped is not None:
            data["skipped"] = self.skipped
        if self.note is not None:
            data["note"] = self.note
        return data


@dataclass(frozen=True)
class SpecSummary:
    spec: str
    cases: int
    violations: int
    skipped: int
    min_margin: float | None

    def to_dict(self) -> dict:
        return {
            "spec": self.spec,
            "cases": self.cases,
            "violations": self.violations,
            "skipped": self.skipped,
            "min_margin": self.min_margin,
        }


@dataclass(frozen=True)
class VerificationReport:
    """A finished campaign: per-case records plus per-spec tallies."""

    campaign_id: str
    seed: int | None
    tolerance: float
    entries: tuple[CaseRecord, ...]
    summary: tuple[SpecSummary, ...]
    metadata: dict = field(default_factory=dict)

    @property
    def violations(self) -> tuple[CaseRecord, ...]:
        return tuple(e for e in self.entries if not e.passed and e.skipped is None)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "campaign_id": self.campaign_id,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "metadata": self.metadata,
            "summary": [s.to_dict() for s in self.summary],
            "entries": [e.to_dict() for e in self.entries],
        }


def _summarize(entries: Sequence[CaseRecord]) -> tuple[SpecSummary, ...]:
    order: list[str] = []
    buckets: dict[str, list[CaseRecord]] = {}
    for entry in entries:
        if entry.spec not in buckets:
            order.append(entry.spec)
            buckets[entry.spec] = []
        buckets[entry.spec].append(entry)
    out = []
    for label in order:
        group = buckets[label]
        margins = [e.margin for e in group if e.margin is not None and e.skipped is None]
        out.append(
            SpecSummary(
                spec=label,
                cases=len(group),
                violations=sum(
                    1 for e in group if not e.passed and e.skipped is None
                ),
                skipped=sum(1 for e in group if e.skipped is not None),
                min_margin=min(margins) if margins else None,
            )
        )
    return tuple(out)


def _finish(
    campaign_id: str,
    seed: int | None,
    tolerance: float,
    entries: list[CaseRecord],
    metadata: dict,
) -> VerificationReport:
    return VerificationReport(
        campaign_id=campaign_id,
        seed=seed,
        tolerance=tolerance,
        entries=tuple(entries),
        summary=_summarize(entries),
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# Randomized campaign
# ---------------------------------------------------------------------------

def run_monotonicity_campaign(
    specs: Sequence[EntropySpec],
    n_values: Iterable[int],
    cases_per_cell: int,
    rng_seed: int,
    tolerance: float = MARGIN_TOLERANCE,
    campaign_id: str = "monotonicity",
) -> VerificationReport:
    """Sample refinement pairs and check the coarser entropy never exceeds.

    For each (spec, n, case): a flat-Dirichlet distribution (interior-floored
    at 1e-6 for functionals rejecting zeros), a strict refinement pair
    (finer A, coarser B), and the assertion H(P^B) <= H(P^A) + tolerance.
    """
    n_list = sorted(set(int(n) for n in n_values))
    if any(n < 3 for n in n_list):
        raise TooLarge(f"refinement pairs need n >= 3, got {n_list}")
    entries: list[CaseRecord] = []
    for s_index, spec in enumerate(specs):
        label = spec.label()
        floor = 0.0 if spec.functional.zero_safe else _INTERIOR_FLOOR
        for n in n_list:
            for case in range(cases_per_cell):
                rng = np.random.default_rng(
                    np.random.SeedSequence([rng_seed, s_index, n, case])
                )
                p = _dirichlet_interior(n, rng, floor)
                dist = FiniteDistribution(p)
                finer, coarser = _random_refinement_pair(n, rng)
                try:
                    value_finer = evaluate(spec, coarse_grain(dist, finer))
                    value_coarser = evaluate(spec, coarse_grain(dist, coarser))
                except GentropyError as exc:
                    entries.append(
                        CaseRecord(
                            kind="monotonicity",
                            spec=label,
                            n=n,
                            index=case,
                            passed=True,
                            probs=tuple(p.tolist()),
                            blocks_finer=finer.blocks,
                            blocks_coarser=coarser.blocks,
                            skipped=f"{type(exc).__name__}: {exc}",
                        )
                    )
                    continue
                margin = value_finer - value_coarser
                entries.append(
                    CaseRecord(
                        kind="monotonicity",
                        spec=label,
                        n=n,
                        index=case,
                        passed=margin >= -tolerance,
                        probs=tuple(p.tolist()),
                        blocks_finer=finer.blocks,
                        blocks_coarser=coarser.blocks,
                        value_finer=value_finer,
                        value_coarser=value_coarser,
                        margin=margin,
                    )
                )
    return _finish(
        campaign_id,
        rng_seed,
        tolerance,
        entries,
        {
            "n_values": n_list,
            "cases_per_cell": cases_per_cell,
            "spec_count": len(specs),
            "interior_floor": _INTERIOR_FLOOR,
        },
    )


# ---------------------------------------------------------------------------
# Exhaustive small-n oracle
# ---------------------------------------------------------------------------

def _merge_blocks(partition: Partition, i: int, j: int) -> Partition:
    blocks = list(partition.blocks)
    merged = tuple(sorted(blocks[i] + blocks[j]))
    rest = [b for idx, b in enumerate(blocks) if idx not in (i, j)]
    return Partition(rest + [merged], partition.ground_size)


def exhaustive_lattice_check(
    spec: EntropySpec,
    dist: FiniteDistribution,
    tolerance: float = MARGIN_TOLERANCE,
) -> VerificationReport:
    """Walk every covering edge of the full partition order (n <= 8).

    For every partition A and every merge of two of its blocks into B this
    checks H(P^B) <= H(P^A); additionally every non-identity partition is
    compared against the identity (no aggregation at all).  The minimum
    margin over all edges is reported in the metadata.
    """
    n = dist.n
    if n > 8:
        raise TooLarge(f"exhaustive check is limited to n <= 8, got {n}")
    label = spec.label()
    partitions = list(enumerate_partitions(n))
    values: dict[Partition, float | None] = {}
    errors: dict[Partition, str] = {}
    for part in partitions:
        try:
            values[part] = evaluate(spec, coarse_grain(dist, part))
        except GentropyError as exc:
            values[part] = None
            errors[part] = f"{type(exc).__name__}: {exc}"

    entries: list[CaseRecord] = []
    index = 0
    min_margin = math.inf

    def record(kind: str, finer: Partition, coarser: Partition) -> None:
        nonlocal index, min_margin
        value_finer = values[finer]
        value_coarser = values[coarser]
        if value_finer is None or value_coarser is None:
            reason = errors.get(finer) or errors.get(coarser) or "evaluation failed"
            entries.append(
                CaseRecord(
                    kind=kind,
                    spec=label,
                    n=n,
                    index=index,
                    passed=True,
                    blocks_finer=finer.blocks,
                    blocks_coarser=coarser.blocks,
                    skipped=reason,
                )
            )
        else:
            margin = value_finer - value_coarser
            min_margin = min(min_margin, margin)
            entries.append(
                CaseRecord(
                    kind=kind,
                    spec=label,
                    n=n,
                    index=index,
                    passed=margin >= -tolerance,
                    blocks_finer=finer.blocks,
                    blocks_coarser=coarser.blocks,
                    value_finer=value_finer,
                    value_coarser=value_coarser,
                    margin=margin,
                )
            )
        index += 1

    identity = Partition.identity(n)
    for part in partitions:
        for i in range(part.k):
            for j in range(i + 1, part.k):
                record("covering_edge", part, _merge_blocks(part, i, j))
        if part != identity:
            record("total_merge" if part.k == 1 else "vs_identity", identity, part)

    return _finish(
        f"lattice-n{n}",
        None,
        tolerance,
        entries,
        {
            "partitions": len(partitions),
            "probs": dist.probs.tolist(),
            "min_margin": None if math.isinf(min_margin) else min_margin,
        },
    )


def corollary1_check(
    spec: EntropySpec,
    dist: FiniteDistribution,
    tolerance: float = MARGIN_TOLERANCE,
) -> VerificationReport:
    """Check H(P^B) <= H(P) for every non-identity aggregation B (n <= 8).

    The all-states merge (a single block) is tagged separately: the main
    refinement-pair statement requires at least two blocks, but the total
    merge is still a meaningful positivity check and is reported as its own
    kind rather than silently folded in.
    """
    n = dist.n
    if n > 8:
        raise TooLarge(f"exhaustive check is limited to n <= 8, got {n}")
    label = spec.label()
    identity = Partition.identity(n)
    base = evaluate(spec, dist)
    entries: list[CaseRecord] = []
    index = 0
    for part in enumerate_partitions(n):
        if part == identity:
            continue
        kind = "total_merge" if part.k == 1 else "vs_identity"
        try:
            value = evaluate(spec, coarse_grain(dist, part))
        except GentropyError as exc:
            entries.append(
                CaseRecord(
                    kind=kind,
                    spec=label,
                    n=n,
                    index=index,
                    passed=True,
                    blocks_finer=identity.blocks,
                    blocks_coarser=part.blocks,
                    skipped=f"{type(exc).__name__}: {exc}",
                )
            )
            index += 1
            continue
        margin = base - value
        entries.append(
            CaseRecord(
                kind=kind,
                spec=label,
                n=n,
                index=index,
                passed=margin >= -tolerance,
                blocks_finer=identity.blocks,
                blocks_coarser=part.blocks,
                value_finer=base,
                value_coarser=value,
                margin=margin,
            )
        )
        index += 1
    return _finish(
        f"corollary-n{n}",
        None,
        tolerance,
        entries,
        {"probs": dist.probs.tolist(), "base_value": base},
    )


# ---------------------------------------------------------------------------
# The built-in pathological functional
# ---------------------------------------------------------------------------

def counterexample_suite(tolerance: float = 1e-12) -> VerificationReport:
    """Reproduce the documented behavior of ``counterexample_HE`` exactly.

    Four pinned values, the aggregation-monotonicity violation
    H(0.2, 0.3, 0.5) = 1.3 < 1.5 = H(0.5, 0.5), the uniform-maximality
    violation H(uniform 4) = 1.0 < 1.05, and the slope jump (1 then 2)
    across the first kink of the piecewise component.
    """
    spec = EntropySpec("counterexample_HE")
    label = spec.label()
    entries: list[CaseRecord] = []
    index = 0

    pinned = (
        ((0.2, 0.3, 0.5), 1.3),
        ((0.5, 0.5), 1.5),
        ((0.25, 0.25, 0.25, 0.25), 1.0),
        ((0.2, 0.25, 0.25, 0.3), 1.05),
    )
    values = {}
    for probs, expected in pinned:
        got = evaluate(spec, FiniteDistribution(probs))
        values[probs] = got
        entries.append(
            CaseRecord(
                kind="pinned_value",
                spec=label,
                n=len(probs),
                index=index,
                passed=abs(got - expected) <= tolerance,
                probs=probs,
                value_finer=got,
                margin=got - expected,
                note=f"expected {expected!r}",
            )
        )
        index += 1

    fine = values[(0.2, 0.3, 0.5)]
    coarse = values[(0.5, 0.5)]
    entries.append(
        CaseRecord(
            kind="monotonicity_violation",
            spec=label,
            n=3,
            index=index,
            passed=fine < coarse,  # the violation must be present
            probs=(0.2, 0.3, 0.5),
            blocks_finer=Partition.identity(3).blocks,
            blocks_coarser=(((0, 1), (2,))),
            value_finer=fine,
            value_coarser=coarse,
            margin=fine - coarse,
            note="aggregating {0,1} increases the value: 1.3 -> 1.5",
        )
    )
    index += 1

    uniform = values[(0.25, 0.25, 0.25, 0.25)]
    tilted = values[(0.2, 0.25, 0.25, 0.3)]
    entries.append(
        CaseRecord(
            kind="uniform_maximality_violation",
            spec=label,
            n=4,
            index=index,
            passed=uniform < tilted,
            probs=(0.2, 0.25, 0.25, 0.3),
            value_finer=uniform,
            value_coarser=tilted,
            margin=uniform - tilted,
            note="the uniform distribution is not the maximizer: 1.0 < 1.05",
        )
    )
    index += 1

    for x, expected in ((0.1, 1.0), (0.3, 2.0)):
        slope = phi_prime(spec, x)
        entries.append(
            CaseRecord(
                kind="slope_witness",
                spec=label,
                n=1,
                index=index,
                passed=abs(slope - expected) <= tolerance,
                value_finer=slope,
                margin=slope - expected,
                note=f"component slope at x={x!r} expected {expected!r}",
            )
        )
        index += 1

    return _finish(
        "counterexample",
        None,
        tolerance,
        entries,
        {"violations_expected": True},
    )


def max_entropy_check(
    spec: EntropySpec,
    n_values: Iterable[int],
    samples: int,
    rng_seed: int,
    tolerance: float = MARGIN_TOLERANCE,
) -> VerificationReport:
    """Check H(uniform) >= H(P) for sampled P at each dimension.

    For ``counterexample_HE`` the known offending distribution at n = 4 is
    planted among the samples, so the report demonstrably contains at least
    one violation there.
    """
    entries: list[CaseRecord] = []
    label = spec.label()
    floor = 0.0 if spec.functional.zero_safe else _INTERIOR_FLOOR
    n_list = sorted(set(int(n) for n in n_values))
    for n in n_list:
        uniform = FiniteDistribution(np.full(n, 1.0 / n))
        try:
            top = evaluate(spec, uniform)
        except GentropyError as exc:
            entries.append(
                CaseRecord(
                    kind="max_entropy",
                    spec=label,
                    n=n,
                    index=0,
                    passed=True,
                    skipped=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        planted: list[np.ndarray] = []
        if spec.id == "counterexample_HE" and n == 4:
            planted.append(np.array([0.2, 0.25, 0.25, 0.3]))
        for case in range(samples):
            rng = np.random.default_rng(
                np.random.SeedSequence([rng_seed, n, case])
            )
            p = planted.pop(0) if planted else _dirichlet_interior(n, rng, floor)
            try:
                value = evaluate(spec, FiniteDistribution(p))
            except GentropyError as exc:
                entries.append(
                    CaseRecord(
                        kind="max_entropy",
                        spec=label,
                        n=n,
                        index=case,
                        passed=True,
                        probs=tuple(p.tolist()),
                        skipped=f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            margin = top - value
            entries.append(
                CaseRecord(
                    kind="max_entropy",
                    spec=label,
                    n=n,
                    index=case,
                    passed=margin >= -tolerance,
                    probs=tuple(p.tolist()),
                    value_finer=top,
                    value_coarser=value,
                    margin=margin,
                )
            )
    return _finish(
        "max-entropy",
        rng_seed,
        tolerance,
        entries,
        {"n_values": n_list, "samples": samples},
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def emit_report(report: VerificationReport, format: str = "json") -> bytes:
    """Serialize a report deterministically (identical reports, identical bytes).

    Formats: ``json`` (lossless, schema-versioned, strict: a non-finite
    number raises :class:`NonFinite`), ``markdown`` (human review), ``csv``
    (spec, n, case, margin rows for plotting).
    """
    if format == "json":
        try:
            text = json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False)
        except ValueError as exc:
            raise NonFinite(f"a report value is not finite: {exc}") from exc
        return (text + "\n").encode("utf-8")
    if format == "csv":
        lines = ["spec,n,case,margin"]
        for entry in report.entries:
            if entry.margin is not None:
                lines.append(
                    f"{entry.spec},{entry.n},{entry.index},{entry.margin!r}"
                )
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "markdown":
        lines = [
            f"# Campaign `{report.campaign_id}`",
            "",
            f"- seed: {report.seed!r}",
            f"- tolerance: {report.tolerance!r}",
            f"- entries: {len(report.entries)}",
            f"- violations: {len(report.violations)}",
            "",
            "| spec | cases | violations | skipped | min margin |",
            "| --- | --- | --- | --- | --- |",
        ]
        for s in report.summary:
            lines.append(
                f"| {s.spec} | {s.cases} | {s.violations} | {s.skipped} "
                f"| {'' if s.min_margin is None else repr(s.min_margin)} |"
            )
        flagged = [
            e
            for e in report.entries
            if not e.passed or e.kind in ("pinned_value", "slope_witness")
        ]
        if flagged:
            lines += [
                "",
                "| kind | spec | n | case | value (finer) | value (coarser) | margin | note |",
                "| --- | --- | --- | --- | --- | --- | --- | --- |",
            ]
            for e in flagged[:200]:
                lines.append(
                    f"| {e.kind} | {e.spec} | {e.n} | {e.index} "
                    f"| {'' if e.value_finer is None else repr(e.value_finer)} "
                    f"| {'' if e.value_coarser is None else repr(e.value_coarser)} "
                    f"| {'' if e.margin is None else repr(e.margin)} "
                    f"| {e.note or ''} |"
                )
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise UnsupportedFormat(f"unknown report format {format!r}")


def report_from_json(data: bytes | str) -> VerificationReport:
    """Rebuild a report from its JSON emission (lossless round-trip)."""
    obj = json.loads(data)
    entries = []
    for raw in obj["entries"]:
        entries.append(
            CaseRecord(
                kind=raw["kind"],
                spec=raw["spec"],
                n=raw["n"],
                index=raw["index"],
                passed=raw["passed"],
                probs=tuple(raw["probs"]) if "probs" in raw else None,
                blocks_finer=tuple(tuple(b) for b in raw["blocks_finer"])
                if "blocks_finer" in raw
                else None,
                blocks_coarser=tuple(tuple(b) for b in raw["blocks_coarser"])
                if "blocks_coarser" in raw
                else None,
                value_finer=raw.get("value_finer"),
                value_coarser=raw.get("value_coarser"),
                margin=raw.get("margin"),
                skipped=raw.get("skipped"),
                note=raw.get("note"),
            )
        )
    summary = tuple(
        SpecSummary(
            spec=raw["spec"],
            cases=raw["cases"],
            violations=raw["violations"],
            skipped=raw["skipped"],
            min_margin=raw["min_margin"],
        )
        for raw in obj["summary"]
    )
    return VerificationReport(
        campaign_id=obj["campaign_id"],
        seed=obj["seed"],
        tolerance=obj["tolerance"],
        entries=tuple(entries),
        summary=summary,
        metadata=obj["metadata"],
    )
