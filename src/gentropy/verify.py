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

A campaign runs in two phases.  The *draw phase* makes each case's rng
calls in a fixed order: a fresh generator from the seed coordinates, the
Dirichlet draw, then the merges of the pair sampler.  The *evaluate phase*
aggregates every distribution of the campaign by both of its partitions in
one gather, calls each functional's ``phi`` once on all of its
coarse-grained vectors laid end to end, and sums each vector's components.
Its results equal, bit for bit, those of ``coarse_grain`` and ``evaluate``
called case by case, because:

* every sum (block sums, vector totals) is taken over a group of segments
  of one width, as the rows of a C-contiguous matrix reduced with
  ``sum(axis=1)``: numpy's pairwise summation then runs on each row as it
  does on a 1-d array, which ``np.add.reduceat`` and ``np.bincount`` do not;
* the outer map ``h`` is applied to each total by the same scalar callable
  (``math.log``, ``math.expm1``), never by a vectorised numpy twin;
* the checks of ``FiniteDistribution``, ``Partition`` and ``evaluate`` run
  vectorised, and a failing vector gets the error the per-case path gives.

Functionals whose ``phi`` is not elementwise (``h_phi_custom``), and any
functional whose batched ``phi`` raises, fall back to ``coarse_grain`` and
``evaluate`` one vector at a time, so ``evaluate`` stays the definition of
a value.  Report bytes therefore depend on numpy's summation order: a
change to the kernel must keep the reference test in ``tests/test_verify.py``
passing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, NamedTuple, Sequence

import json
import math

import numpy as np

from .catalog import EntropySpec, _admit, _outer_value, evaluate, phi_prime
from .distributions import (
    SUM_TOLERANCE,
    FiniteDistribution,
    _dirichlet_interior,
    coarse_grain,
)
from .errors import GentropyError, NonFinite, TooLarge, UnsupportedFormat
from .partitions import Partition, _Blocks, enumerate_partitions
# The pair sampler, looked up per case under the name perfbench's tracer
# times as the sampler layer.
from .partitions import _refinement_pair_blocks as _random_refinement_pair

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
        return {**self._header(), "entries": [e.to_dict() for e in self.entries]}

    def _header(self) -> dict:
        """Everything in :meth:`to_dict` but the entries."""
        return {
            "schema": REPORT_SCHEMA,
            "campaign_id": self.campaign_id,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "metadata": self.metadata,
            "summary": [s.to_dict() for s in self.summary],
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
    cases = _draw_cases(specs, n_list, cases_per_cell, rng_seed)
    values = _CampaignValues(specs, cases)
    labels = [spec.label() for spec in specs]
    entries: list[CaseRecord] = []
    for c, case in enumerate(cases):
        value_finer = values.value(2 * c)
        value_coarser = values.value(2 * c + 1) if type(value_finer) is float else None
        common = dict(
            kind="monotonicity",
            spec=labels[case.spec_index],
            n=case.n,
            index=case.index,
            probs=tuple(case.probs.tolist()),
            blocks_finer=case.finer,
            blocks_coarser=case.coarser,
        )
        if type(value_coarser) is not float:
            skipped = value_coarser if value_coarser is not None else value_finer
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


class _Case(NamedTuple):
    """The draws of one campaign case."""

    spec_index: int
    n: int
    index: int
    probs: np.ndarray
    finer: _Blocks
    coarser: _Blocks


def _draw_cases(
    specs: Sequence[EntropySpec], n_list: list[int], cases_per_cell: int, rng_seed: int
) -> list[_Case]:
    """Draw phase: each case's rng calls, in the order the contract fixes."""
    cases = []
    for s_index, spec in enumerate(specs):
        floor = 0.0 if spec.functional.zero_safe else _INTERIOR_FLOOR
        for n in n_list:
            for index in range(cases_per_cell):
                rng = np.random.default_rng(
                    np.random.SeedSequence([rng_seed, s_index, n, index])
                )
                probs = _dirichlet_interior(n, rng, floor)
                finer, coarser = _random_refinement_pair(n, rng)
                cases.append(_Case(s_index, n, index, probs, finer, coarser))
    return cases


def _starts(widths: np.ndarray) -> np.ndarray:
    """Start of each segment when segments of these widths lie end to end."""
    return np.concatenate(([0], np.cumsum(widths)[:-1])).astype(np.intp)


def _segment_sums(values: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """``np.sum(values[s : s + w])`` for every segment, bit for bit.

    The segments of one width are the rows of a C-contiguous matrix, and
    ``sum(axis=1)`` runs numpy's pairwise summation on each row exactly as
    ``np.sum`` does on a 1-d array.
    """
    out = np.zeros(len(starts))
    for w in np.unique(widths):
        rows = np.flatnonzero(widths == w)
        out[rows] = values[starts[rows, None] + np.arange(w)].sum(axis=1)
    return out


def _segments_with(mask: np.ndarray, owner: np.ndarray, count: int) -> np.ndarray:
    """Which of ``count`` segments hold an element where ``mask`` is set."""
    return np.bincount(owner[mask], minlength=count) > 0


def _rejected(values: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Segments that ``FiniteDistribution`` would reject.

    A segment is rejected for an entry that is negative or not finite, or
    for a total further than ``SUM_TOLERANCE`` from 1.
    """
    owner = np.repeat(np.arange(len(starts)), widths)
    bad_entry = ~np.isfinite(values) | (values < 0.0)
    off = np.abs(_segment_sums(values, starts, widths) - 1.0) > SUM_TOLERANCE
    return _segments_with(bad_entry, owner, len(starts)) | off


def _skip_reason(exc: GentropyError) -> str:
    return f"{type(exc).__name__}: {exc}"


class _CampaignValues:
    """Evaluate phase: the entropy of every coarse-grained vector of a campaign.

    Vector ``2c`` is case ``c`` aggregated by its finer blocks and
    ``2c + 1`` by its coarser ones.  :meth:`value` gives a vector's entropy
    as a float, or as a str the reason ``coarse_grain`` or ``evaluate``
    would fail on it.
    """

    def __init__(self, specs: Sequence[EntropySpec], cases: list[_Case]):
        self._specs = specs
        self._cases = cases
        self._reasons: dict[int, str] = {}
        self._fallback = {s for s, spec in enumerate(specs) if not spec.functional.elementwise}
        if cases:
            sizes = np.array([case.n for case in cases], dtype=np.intp)
            probs = np.concatenate([case.probs for case in cases])
            for c in np.flatnonzero(_rejected(probs, _starts(sizes), sizes))[:1]:
                FiniteDistribution(cases[c].probs)  # raises as the per-case path did
            self._totals = self._phi_totals(*self._coarse_grain_all(probs, sizes))

    def value(self, v: int) -> float | str:
        case = self._cases[v // 2]
        spec = self._specs[case.spec_index]
        if case.spec_index in self._fallback:
            blocks = case.coarser if v % 2 else case.finer
            dist = FiniteDistribution(case.probs)
            try:
                return evaluate(spec, coarse_grain(dist, Partition._raw(blocks, case.n)))
            except GentropyError as exc:
                return _skip_reason(exc)
        if v in self._reasons:
            return self._reasons[v]
        try:
            return _outer_value(spec, float(self._totals[v]))
        except GentropyError as exc:
            return _skip_reason(exc)

    def _coarse_grain_all(
        self, probs: np.ndarray, sizes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every coarse-grained vector from one gather of block elements.

        ``probs`` holds the draws end to end, ``sizes`` their lengths.
        Returns the vectors laid end to end, with each one's start and
        width, and records the reason for each vector ``FiniteDistribution``
        would reject.
        """
        widths, block_widths, elements = [], [], []
        for case in self._cases:
            for blocks in (case.finer, case.coarser):
                widths.append(len(blocks))
                block_widths.extend(map(len, blocks))
                elements.extend(chain.from_iterable(blocks))
        widths = np.array(widths, dtype=np.intp)
        block_widths = np.array(block_widths, dtype=np.intp)
        elements = np.array(elements, dtype=np.intp)
        block_owner = np.repeat(np.arange(len(widths)), widths)
        element_owner = np.repeat(block_owner, block_widths)
        self._check_partitions(elements, element_owner, block_widths, block_owner, sizes)

        gathered = probs[elements + _starts(sizes)[element_owner // 2]]
        flat = _segment_sums(gathered, _starts(block_widths), block_widths)
        starts = _starts(widths)
        for v in np.flatnonzero(_rejected(flat, starts, widths)):
            try:
                FiniteDistribution(flat[starts[v] : starts[v] + widths[v]])
            except GentropyError as exc:
                self._reasons[int(v)] = _skip_reason(exc)
        return flat, starts, widths

    def _check_partitions(
        self,
        elements: np.ndarray,
        owner: np.ndarray,
        block_widths: np.ndarray,
        block_owner: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        """Raise what ``Partition`` raises on the first block tuple that is none.

        The blocks of a vector must be nonempty and hold each element of
        0..n-1 exactly once: n elements, all in range, none repeated.
        """
        vectors = 2 * len(sizes)
        n = np.repeat(sizes, 2)
        in_range = (elements >= 0) & (elements < n[owner])
        seen = np.bincount(
            owner * n.max() + np.where(in_range, elements, 0), minlength=vectors * n.max()
        )
        bad = (
            (np.bincount(owner, minlength=vectors) != n)
            | _segments_with(~in_range, owner, vectors)
            | (seen.reshape(vectors, -1) > 1).any(axis=1)
            | _segments_with(block_widths == 0, block_owner, vectors)
        )
        for v in np.flatnonzero(bad)[:1]:
            case = self._cases[v // 2]
            Partition(case.coarser if v % 2 else case.finer, case.n)

    def _phi_totals(
        self, flat: np.ndarray, starts: np.ndarray, widths: np.ndarray
    ) -> np.ndarray:
        """Each vector's component sum, one ``phi`` call per functional.

        A vector that ``evaluate`` would reject before calling phi gets its
        reason instead; a functional whose batched phi raises falls back to
        the per-vector path.
        """
        vectors = len(widths)
        has_zero = _segments_with(flat == 0.0, np.repeat(np.arange(vectors), widths), vectors)
        rejected = np.zeros(vectors, dtype=bool)
        rejected[list(self._reasons)] = True
        phis = np.zeros_like(flat)
        spec_of_vector = np.repeat([case.spec_index for case in self._cases], 2)
        bounds = np.searchsorted(spec_of_vector, np.arange(len(self._specs) + 1))
        for s, spec in enumerate(self._specs):
            lo, hi = bounds[s], bounds[s + 1]
            if lo == hi or s in self._fallback:
                continue
            for width, zero in set(zip(widths[lo:hi].tolist(), has_zero[lo:hi].tolist())):
                try:
                    _admit(spec, width, zero)
                except GentropyError as exc:
                    hit = (widths[lo:hi] == width) & (has_zero[lo:hi] == zero)
                    for v in lo + np.flatnonzero(hit & ~rejected[lo:hi]):
                        self._reasons[int(v)] = _skip_reason(exc)
                        rejected[v] = True
            ok = np.repeat(~rejected[lo:hi], widths[lo:hi])
            segment = slice(starts[lo], starts[hi - 1] + widths[hi - 1])
            try:
                phis[segment][ok] = spec.functional.phi(flat[segment][ok])
            except Exception:  # the per-vector path reproduces it exactly
                self._fallback.add(s)
        return _segment_sums(phis, starts, widths)


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

# The JSON layout is that of ``json.dumps(report.to_dict(), sort_keys=True,
# indent=2, allow_nan=False)``.  ``json.dumps`` still writes the small header;
# the entries, nearly all of the bytes, are written here from their fields,
# because ``indent`` sends ``json.dumps`` to its pure-Python encoder.

_ENTRIES_KEY = '\n  "entries": []'


def _json_scalar(value) -> str:
    """One value as ``json.dumps`` writes it; non-finite floats are rejected."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        raise NonFinite(f"a report value is not finite: {value!r}")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_PAD = tuple("\n" + "  " * level for level in range(8))
_SEPARATOR = tuple("," + pad for pad in _PAD)


def _json_array(items: Iterable[str], level: int) -> str:
    """Encoded items as an indent-2 array whose brackets sit at ``level``."""
    items = list(items)
    if not items:
        return "[]"
    return "[" + _PAD[level + 1] + _SEPARATOR[level + 1].join(items) + _PAD[level] + "]"


def _json_numbers(values, level: int = 3) -> str:
    """An array of scalars; an all-float array of finite values is encoded in bulk."""
    if set(map(type, values)) == {float}:
        items = list(map(float.__repr__, values))
        if not ("nan" in items or "inf" in items or "-inf" in items):
            return _json_array(items, level)
    return _json_array(map(_json_scalar, values), level)


def _json_blocks(blocks, level: int = 3) -> str:
    if set(map(type, chain.from_iterable(blocks))) == {int}:
        inner = (_json_array(map(int.__repr__, block), level + 1) for block in blocks)
    else:
        inner = (_json_numbers(block, level + 1) for block in blocks)
    return _json_array(inner, level)


# CaseRecord fields in sorted-key order: (name, encoder, written even if None)
_ENTRY_FIELDS = (
    ("blocks_coarser", _json_blocks, False),
    ("blocks_finer", _json_blocks, False),
    ("index", _json_scalar, True),
    ("kind", _json_scalar, True),
    ("margin", _json_scalar, False),
    ("n", _json_scalar, True),
    ("note", _json_scalar, False),
    ("passed", _json_scalar, True),
    ("probs", _json_numbers, False),
    ("skipped", _json_scalar, False),
    ("spec", _json_scalar, True),
    ("value_coarser", _json_scalar, False),
    ("value_finer", _json_scalar, False),
)


def _json_entry(entry: CaseRecord) -> str:
    fields = []
    for name, encode, always in _ENTRY_FIELDS:
        value = getattr(entry, name)
        if always or value is not None:
            fields.append(f'"{name}": {encode(value)}')
    return "    {\n      " + ",\n      ".join(fields) + "\n    }"


def _json_report(report: VerificationReport) -> str:
    try:
        head = json.dumps(
            {**report._header(), "entries": []}, sort_keys=True, indent=2, allow_nan=False
        )
    except ValueError as exc:
        raise NonFinite(f"a report value is not finite: {exc}") from exc
    if not report.entries:
        return head + "\n"
    before, after = head.split(_ENTRIES_KEY, 1)
    body = ",\n".join(map(_json_entry, report.entries))
    return "".join((before, '\n  "entries": [\n', body, "\n  ]", after, "\n"))


def emit_report(report: VerificationReport, format: str = "json") -> bytes:
    """Serialize a report deterministically (identical reports, identical bytes).

    Formats: ``json`` (lossless, schema-versioned, strict: a non-finite
    number raises :class:`NonFinite`), ``markdown`` (human review), ``csv``
    (spec, n, case, margin rows for plotting).
    """
    if format == "json":
        return _json_report(report).encode("utf-8")
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
