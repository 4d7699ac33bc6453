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
change to the kernel must keep the reference tests in
``tests/test_verify.py`` passing.

The oracles share the evaluate phase.  The lattice and corollary checks
hand it one vector per non-identity partition of the single enumeration
they make, and evaluate the identity (the distribution itself) with
``evaluate``; the lattice finds the coarser end of each covering edge by
arithmetic on restricted growth strings, so it builds no ``Partition`` and
calls no ``coarse_grain``.  ``max_entropy_check`` hands it its sampled
distributions with identity blocks, and evaluates the uniform one with
``evaluate``.  Each lattice or corollary call thus makes exactly one
``enumerate_partitions`` call, consumed in full, and at least one but far
fewer ``evaluate`` calls than it has edges; both names are looked up in
this module, where the benchmark's tracer times them.
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


def _checked(
    tolerance: float, value_finer: float | str, value_coarser: float | str | None, **fields
) -> CaseRecord:
    """The record of one check of H(finer) >= H(coarser).

    A value is a float, or a str the reason it could not be computed; the
    first such reason makes the case skipped.  ``fields`` are the record's
    identifying fields and inputs.
    """
    for value in (value_finer, value_coarser):
        if type(value) is str:
            return CaseRecord(passed=True, skipped=value, **fields)
    margin = value_finer - value_coarser
    return CaseRecord(
        passed=margin >= -tolerance,
        value_finer=value_finer,
        value_coarser=value_coarser,
        margin=margin,
        **fields,
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
    values = _VectorValues(
        specs,
        [
            _Vector(case.spec_index, case.probs, blocks)
            for case in cases
            for blocks in (case.finer, case.coarser)
        ],
    )
    labels = [spec.label() for spec in specs]
    entries: list[CaseRecord] = []
    for c, case in enumerate(cases):
        value_finer = values.value(2 * c)
        value_coarser = values.value(2 * c + 1) if type(value_finer) is float else None
        entries.append(
            _checked(
                tolerance,
                value_finer,
                value_coarser,
                kind="monotonicity",
                spec=labels[case.spec_index],
                n=case.n,
                index=case.index,
                probs=tuple(case.probs.tolist()),
                blocks_finer=case.finer,
                blocks_coarser=case.coarser,
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


class _Vector(NamedTuple):
    """A distribution to aggregate by canonical blocks, and the spec to evaluate."""

    spec_index: int
    probs: np.ndarray
    blocks: _Blocks


def _starts(widths: np.ndarray) -> np.ndarray:
    """Start of each segment when segments of these widths lie end to end."""
    return np.concatenate(([0], np.cumsum(widths)[:-1])).astype(np.intp)


def _segment_sums(values: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """``np.sum(values[s : s + w])`` for every segment, bit for bit.

    The segments of one width are the rows of a C-contiguous matrix, and
    ``sum(axis=1)`` runs numpy's pairwise summation on each row exactly as
    ``np.sum`` does on a 1-d array.  The widths are found with
    ``np.bincount``: ``np.unique`` would import ``numpy.ma`` on first use.
    """
    out = np.zeros(len(starts))
    for w in np.flatnonzero(np.bincount(widths)):
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


class _VectorValues:
    """Evaluate phase: the entropy of every coarse-grained vector of a batch.

    Vector ``v`` is ``vectors[v].probs`` aggregated by ``vectors[v].blocks``
    and evaluated under ``specs[vectors[v].spec_index]``; the vectors must
    be grouped by ascending spec index.  :meth:`value` gives a vector's
    entropy as a float, or as a str the reason ``coarse_grain`` or
    ``evaluate`` would fail on it.  A draw that ``FiniteDistribution``
    rejects, or blocks that ``Partition`` rejects, raise what they raise.
    """

    def __init__(self, specs: Sequence[EntropySpec], vectors: list[_Vector]):
        self._specs = specs
        self._vectors = vectors
        self._reasons: dict[int, str] = {}
        self._fallback = {s for s, spec in enumerate(specs) if not spec.functional.elementwise}
        if vectors:
            sizes = np.array([len(vector.probs) for vector in vectors], dtype=np.intp)
            probs = np.concatenate([vector.probs for vector in vectors])
            for v in np.flatnonzero(_rejected(probs, _starts(sizes), sizes))[:1]:
                FiniteDistribution(vectors[v].probs)  # raises as the per-case path did
            self._totals = self._phi_totals(*self._coarse_grain_all(probs, sizes))

    def value(self, v: int) -> float | str:
        vector = self._vectors[v]
        spec = self._specs[vector.spec_index]
        if vector.spec_index in self._fallback:
            dist = FiniteDistribution(vector.probs)
            try:
                return evaluate(spec, coarse_grain(dist, Partition._raw(vector.blocks, dist.n)))
            except GentropyError as exc:
                return _skip_reason(exc)
        if v in self._reasons:
            return self._reasons[v]
        try:
            return _outer_value(spec, float(self._totals[v]))
        except GentropyError as exc:
            return _skip_reason(exc)

    def total(self, v: int) -> float:
        """The component sum that gives vector ``v`` its value (the argument of h)."""
        vector = self._vectors[v]
        if vector.spec_index not in self._fallback:
            return float(self._totals[v])
        dist = FiniteDistribution(vector.probs)
        coarse = coarse_grain(dist, Partition._raw(vector.blocks, dist.n))
        return float(np.sum(self._specs[vector.spec_index].functional.phi(coarse.probs)))

    def _coarse_grain_all(
        self, probs: np.ndarray, sizes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every coarse-grained vector from one gather of block elements.

        ``probs`` holds the vectors' draws end to end, ``sizes`` their
        lengths.  Returns the coarse-grained vectors laid end to end, with
        each one's start and width, and records the reason for each vector
        ``FiniteDistribution`` would reject.
        """
        widths, block_widths, elements = [], [], []
        for vector in self._vectors:
            widths.append(len(vector.blocks))
            block_widths.extend(map(len, vector.blocks))
            elements.extend(chain.from_iterable(vector.blocks))
        widths = np.array(widths, dtype=np.intp)
        block_widths = np.array(block_widths, dtype=np.intp)
        elements = np.array(elements, dtype=np.intp)
        block_owner = np.repeat(np.arange(len(widths)), widths)
        element_owner = np.repeat(block_owner, block_widths)
        self._check_partitions(elements, element_owner, block_widths, block_owner, sizes)

        gathered = probs[elements + _starts(sizes)[element_owner]]
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
        n: np.ndarray,
    ) -> None:
        """Raise what ``Partition`` raises on the first block tuple that is none.

        The blocks of a vector must be nonempty and hold each element of
        0..n-1 exactly once: n elements, all in range, none repeated.
        """
        vectors = len(n)
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
            Partition(self._vectors[v].blocks, int(n[v]))

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
        spec_of_vector = np.array([vector.spec_index for vector in self._vectors])
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

def _partition_values(
    spec: EntropySpec, dist: FiniteDistribution
) -> tuple[list[_Blocks], list[float | str]]:
    """Every partition of ``dist.n``, and ``dist`` aggregated by each and evaluated.

    The partitions come in enumeration order as canonical blocks.  The
    identity comes last in that order and gets no value here: the callers
    evaluate ``dist`` itself.  A value is a float, or a str the reason
    ``coarse_grain`` or ``evaluate`` would fail.
    """
    partitions = [part.blocks for part in enumerate_partitions(dist.n)]
    values = _VectorValues(
        [spec], [_Vector(0, dist.probs, blocks) for blocks in partitions[:-1]]
    )
    return partitions, [values.value(v) for v in range(len(partitions) - 1)]


def _covering_targets(partitions: list[_Blocks], n: int) -> list[int]:
    """The coarser end of every covering edge, as an index into ``partitions``.

    Edges are listed partition by partition, and within one as the merges
    of its blocks i < j in lexicographic order.  In the restricted growth
    string (RGS) of a partition, element x carries the index of its block.
    Merging blocks i < j relabels j as i and lowers every label above j by
    one, which gives the RGS of the merged partition in canonical form.
    Read as base-n numbers, the RGSs of the enumeration ascend, so a merged
    partition's index is a ``np.searchsorted`` of its code.
    """
    k = np.array([len(blocks) for blocks in partitions], dtype=np.intp)
    block_widths = np.fromiter(map(len, chain.from_iterable(partitions)), dtype=np.intp)
    elements = np.fromiter(
        chain.from_iterable(chain.from_iterable(partitions)), dtype=np.intp, count=k.size * n
    )
    labels = np.arange(block_widths.size) - np.repeat(_starts(k), k)
    rgs = np.zeros((k.size, n), dtype=np.intp)
    rgs[np.repeat(np.arange(k.size), n), elements] = np.repeat(labels, block_widths)
    weights = n ** np.arange(n - 1, -1, -1)
    codes = rgs @ weights
    edges = k * (k - 1) // 2
    first_edge = _starts(edges)
    targets = np.zeros(edges.sum(), dtype=np.intp)
    for size in range(2, n + 1):
        rows = np.flatnonzero(k == size)
        i, j = np.triu_indices(size, 1)
        rgs_k = rgs[rows][:, None, :]  # (partition, merge, element)
        merged = np.where(rgs_k == j[:, None], i[:, None], rgs_k) - (rgs_k > j[:, None])
        targets[first_edge[rows, None] + np.arange(i.size)] = np.searchsorted(
            codes, merged @ weights
        )
    return targets.tolist()


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
    partitions, values = _partition_values(spec, dist)
    try:
        values.append(evaluate(spec, dist))
    except GentropyError as exc:
        values.append(_skip_reason(exc))
    identity = len(partitions) - 1
    targets = iter(_covering_targets(partitions, n))
    entries: list[CaseRecord] = []

    def record(kind: str, finer: int, coarser: int) -> None:
        entries.append(
            _checked(
                tolerance,
                values[finer],
                values[coarser],
                kind=kind,
                spec=label,
                n=n,
                index=len(entries),
                blocks_finer=partitions[finer],
                blocks_coarser=partitions[coarser],
            )
        )

    for part, blocks in enumerate(partitions):
        for _ in range(len(blocks) * (len(blocks) - 1) // 2):
            record("covering_edge", part, next(targets))
        if part != identity:
            record("total_merge" if len(blocks) == 1 else "vs_identity", identity, part)
    min_margin = min((e.margin for e in entries if e.margin is not None), default=math.inf)
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
    base = evaluate(spec, dist)
    partitions, values = _partition_values(spec, dist)
    identity = partitions[-1]
    entries: list[CaseRecord] = []
    for blocks, value in zip(partitions, values):
        entries.append(
            _checked(
                tolerance,
                base,
                value,
                kind="total_merge" if len(blocks) == 1 else "vs_identity",
                spec=label,
                n=n,
                index=len(entries),
                blocks_finer=identity,
                blocks_coarser=blocks,
            )
        )
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
    label = spec.label()
    floor = 0.0 if spec.functional.zero_safe else _INTERIOR_FLOOR
    n_list = sorted(set(int(n) for n in n_values))
    tops: list[tuple[int, float | str]] = []
    vectors: list[_Vector] = []
    for n in n_list:
        uniform = FiniteDistribution(np.full(n, 1.0 / n))
        try:
            tops.append((n, evaluate(spec, uniform)))
        except GentropyError as exc:
            tops.append((n, _skip_reason(exc)))
            continue
        identity = tuple((i,) for i in range(n))
        planted: list[np.ndarray] = []
        if spec.id == "counterexample_HE" and n == 4:
            planted.append(np.array([0.2, 0.25, 0.25, 0.3]))
        for case in range(samples):
            rng = np.random.default_rng(
                np.random.SeedSequence([rng_seed, n, case])
            )
            p = planted.pop(0) if planted else _dirichlet_interior(n, rng, floor)
            vectors.append(_Vector(0, p, identity))
    values = _VectorValues([spec], vectors)

    entries: list[CaseRecord] = []
    v = 0
    for n, top in tops:
        if type(top) is str:
            entries.append(
                _checked(tolerance, top, None, kind="max_entropy", spec=label, n=n, index=0)
            )
            continue
        for case in range(samples):
            entries.append(
                _checked(
                    tolerance,
                    top,
                    values.value(v),
                    kind="max_entropy",
                    spec=label,
                    n=n,
                    index=case,
                    probs=tuple(vectors[v].probs.tolist()),
                )
            )
            v += 1
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
