"""Campaign engine certifying that aggregation never increases entropy.

The central claim under test: for every functional in the catalog (with the
documented exclusions) and every pair of aggregation schemes where one
coarsens the other, the coarser entropy is no larger.  Campaigns sample
distributions and refinement pairs; the exhaustive oracle walks every
covering edge of the full partition order at small n.

Determinism contract (sampler 2): each (spec index, n) cell of a campaign
has one generator, seeded with ``SeedSequence([seed, spec index, n])``,
and draws one block of uniforms with a row of ``n + pair_draw_width(n)``
per case.  Row c holds all of case c's randomness: its first n uniforms
give the flat Dirichlet draw (normalised exponentials) and the rest the
refinement pair.  A draw whose minimum is not above the interior floor is
redrawn from the case's own child stream, ``SeedSequence([seed, spec
index, n], spawn_key=(c,))``.  So a case depends only on (seed, spec index,
n, c): not on ``cases_per_cell``, other cells or execution order, and
:func:`replay_case` rebuilds any one case alone.  A per-case evaluation
error never aborts a campaign; the case is recorded as skipped with its
reason so coverage accounting stays honest.

A campaign runs in two phases.  The *draw phase* draws each cell's block
and calls the pair sampler once per case, a pure function of the case's
row.  The *evaluate phase* aggregates every distribution of the campaign
by both of its partitions in one gather, calls each functional's ``phi``
once on all of its coarse-grained vectors laid end to end, and sums each
vector's components.  Its results equal, bit for bit, those of
``coarse_grain`` and ``evaluate`` called case by case, because:

* every sum (block sums, vector totals) is taken over a group of segments
  of one width, as the rows of a C-contiguous matrix reduced with
  ``sum(axis=1)``: numpy's pairwise summation then runs on each row as it
  does on a 1-d array, which ``np.add.reduceat`` and ``np.bincount`` do not;
* a vector with no blocks (the identity) is its draw, which is what
  aggregating by singletons gives;
* the outer map ``h`` is applied to each total by the same scalar callable
  (``math.log``, ``math.expm1``) in one comprehension, never by a
  vectorised numpy twin;
* its inputs are ones the per-case path accepts: every draw a vector
  ``FiniteDistribution`` accepts (a validated ``probs``, a sampler draw or
  a pinned vector) and every ``blocks`` the canonical blocks of a partition
  of its indices.  The kernel trusts this and repeats neither constructor's
  checks; the checks of ``evaluate`` run vectorised, and a vector they
  reject gets the reason ``evaluate`` gives;
* entries are built a column per ``CaseRecord`` field and made records in
  one bulk step (:func:`_records`); margins and verdicts come from numpy
  over whole columns, whose float64 subtraction and ``>=`` give the bits
  Python's floats do.

Any functional whose batched ``phi`` raises falls back to ``coarse_grain``
and ``evaluate`` one vector at a time, so ``evaluate`` stays the definition
of a value.  Report bytes therefore depend on numpy's summation order: a
change to the kernel must keep the reference tests in
``tests/test_verify.py`` passing.

The oracles share the evaluate phase.  The lattice and corollary checks
hand it one vector per non-identity partition of the single enumeration
they make, and evaluate the identity (the distribution itself) with
``evaluate``; the lattice finds the coarser end of each covering edge by
arithmetic on restricted growth strings, so it builds no ``Partition`` and
calls no ``coarse_grain``.  ``max_entropy_check`` draws one cell per n
with the campaign's row layout, seeded with ``SeedSequence([seed, n])``,
hands the draws to the kernel as they are, and evaluates the uniform
distribution with ``evaluate``.  Each lattice or corollary call thus makes
exactly one ``enumerate_partitions`` call, consumed in full, and at least
one but far fewer ``evaluate`` calls than it has edges; both names are
looked up in this module, where the benchmark's tracer times them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field, fields
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

import json
import math

import numpy as np

from .catalog import EntropySpec, _admit, _outer_value, evaluate, phi_prime
from .distributions import FiniteDistribution, _dirichlet_interior, _flat_dirichlet, coarse_grain
from .errors import GentropyError, NonFinite, TooLarge, UnsupportedFormat, ValidationError
from .partitions import Partition, _Blocks, enumerate_partitions, pair_draw_width
from .partitions import _require_pair_size
# The pair sampler, looked up per case under the name perfbench's tracer
# times as the sampler layer.
from .partitions import _refinement_pair_blocks as _random_refinement_pair

MARGIN_TOLERANCE = 1e-9
REPORT_SCHEMA = 2
SAMPLER = 2  # the draw layout of campaigns and max_entropy_check (see module doc)

_INTERIOR_FLOOR = 1e-6  # resampling floor for functionals that reject zeros
_WORST_KEYS = ("spec_index", "n", "index")  # SpecSummary.worst in JSON


@dataclass(frozen=True, slots=True)
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
        """The fields a JSON report writes (see ``_ENTRY_FIELDS``), tuples as lists."""
        return {name: _listed(value) for name, _, value in _written_fields(self)}


# The class and its slot setters, bound here so that a wrapper installed
# over the module name ``CaseRecord`` does not reach :func:`_records`.
_RECORD = CaseRecord
_RECORD_SETTERS = tuple((f.name, getattr(CaseRecord, f.name).__set__) for f in fields(CaseRecord))


def _records(count: int, **columns) -> list[CaseRecord]:
    """``count`` records, filled a field at a time from columns.

    A column is a list or an iterator with a value for each record; a value
    they all share is passed as ``itertools.repeat(value)``, and a field not
    named is None.  Each field is set by one ``map`` of its slot's setter,
    with none of ``__init__``'s per-record work: the columns must hold what
    ``CaseRecord(...)`` would be given.
    """
    records = list(map(object.__new__, repeat(_RECORD, count)))
    for name, setter in _RECORD_SETTERS:
        deque(map(setter, records, columns.get(name, repeat(None))), 0)
    return records


@dataclass(frozen=True)
class SpecSummary:
    """Per-spec tallies of a report.

    ``worst`` locates the entry that holds ``min_margin`` as (spec index,
    n, index), the coordinates :func:`replay_case` takes for a campaign
    entry; ``skip_reasons`` counts skipped entries per reason, by reason.
    """

    spec: str
    cases: int
    violations: int
    skipped: int
    min_margin: float | None
    worst: tuple[int, int, int] | None = None
    skip_reasons: tuple[tuple[str, int], ...] = ()

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "worst": None if self.worst is None else dict(zip(_WORST_KEYS, self.worst)),
            "skip_reasons": dict(self.skip_reasons),
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


def _summarize(
    entries: Sequence[CaseRecord], spec_indices: Sequence[int] | None = None
) -> tuple[SpecSummary, ...]:
    """One summary per spec, in order of first appearance.

    ``spec_indices`` gives each entry's spec index (all 0 when omitted, as
    for a single-spec report).  Entries are grouped by spec index and label,
    so two specs that share a label keep their own summaries; the worst
    case is the first entry holding the minimum margin.
    """
    buckets: dict[tuple[int, str], list[int]] = {}
    for i, entry in enumerate(entries):
        s_index = 0 if spec_indices is None else spec_indices[i]
        buckets.setdefault((s_index, entry.spec), []).append(i)
    out = []
    for (s_index, label), group in buckets.items():
        violations, min_margin, worst, reasons = 0, None, None, {}
        for i in group:
            e = entries[i]
            if e.skipped is not None:
                reasons[e.skipped] = reasons.get(e.skipped, 0) + 1
                continue
            violations += not e.passed
            if e.margin is not None and (min_margin is None or e.margin < min_margin):
                min_margin = e.margin
                worst = (s_index, e.n, e.index)
        out.append(
            SpecSummary(
                spec=label,
                cases=len(group),
                violations=violations,
                skipped=sum(reasons.values()),
                min_margin=min_margin,
                worst=worst,
                skip_reasons=tuple(sorted(reasons.items())),
            )
        )
    return tuple(out)


def _finish(
    campaign_id: str,
    seed: int | None,
    tolerance: float,
    entries: list[CaseRecord],
    metadata: dict,
    spec_indices: Sequence[int] | None = None,
) -> VerificationReport:
    return VerificationReport(
        campaign_id=campaign_id,
        seed=seed,
        tolerance=tolerance,
        entries=tuple(entries),
        summary=_summarize(entries, spec_indices),
        metadata=metadata,
    )


def _checked(tolerance: float, finer: Iterable, coarser: Iterable, **columns) -> list[CaseRecord]:
    """The records of checks of H(finer) >= H(coarser), one per row.

    A value is a float, or a str the reason it could not be computed; a
    row's first reason, finer before coarser, makes it skipped, with no
    values and no margin (a row skipped on its finer value may have None
    for its coarser one).  Margins and verdicts are taken in numpy, whose
    float64 subtraction and ``>= -tolerance`` give the bits the Python
    floats do.  ``columns`` are the records' other fields, as
    :func:`_records` takes them.
    """
    finer, coarser = list(finer), list(coarser)
    reasons = [f if type(f) is str else c if type(c) is str else None for f, c in zip(finer, coarser)]
    skipped = [row for row, reason in enumerate(reasons) if reason is not None]
    for row in skipped:  # zeros stand in for a skipped row's values, then go
        finer[row] = coarser[row] = 0.0
    margin = np.subtract(finer, coarser)
    passed = (margin >= -tolerance).tolist()
    margin = margin.tolist()
    for row in skipped:
        finer[row] = coarser[row] = margin[row] = None
        passed[row] = True
    columns.update(value_finer=finer, value_coarser=coarser, margin=margin, skipped=reasons)
    return _records(len(finer), passed=passed, **columns)


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
    _require_non_negative(cases_per_cell=cases_per_cell, rng_seed=rng_seed)
    n_list = _campaign_dimensions(n_values)
    cells = [(s_index, n, 0, cases_per_cell) for s_index in range(len(specs)) for n in n_list]
    entries, spec_indices = _campaign_entries(specs, cells, rng_seed, tolerance)
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
            "sampler": SAMPLER,
        },
        spec_indices,
    )


def replay_case(
    specs: Sequence[EntropySpec],
    spec_index: int,
    n: int,
    case: int,
    rng_seed: int,
    tolerance: float = MARGIN_TOLERANCE,
) -> CaseRecord:
    """Rebuild one campaign entry from its coordinates, drawing nothing else.

    The entry equals the one :func:`run_monotonicity_campaign` records for
    ``specs`` and ``rng_seed`` at (spec index, n, case), whatever
    ``cases_per_cell`` and ``n_values`` that campaign ran with.
    """
    if not 0 <= spec_index < len(specs):
        raise ValidationError(f"spec index {spec_index} is out of range for {len(specs)} specs")
    _require_non_negative(case=case, rng_seed=rng_seed)
    cells = [(spec_index, _campaign_dimensions([n])[0], case, 1)]
    return _campaign_entries(specs, cells, rng_seed, tolerance)[0][0]


def _require_non_negative(**counts: int) -> None:
    """Reject a negative seed or count here, not where numpy meets it."""
    for name, value in counts.items():
        if value < 0:
            raise ValidationError(f"{name} must be >= 0, got {value}")


def _campaign_dimensions(n_values: Iterable[int]) -> list[int]:
    n_list = sorted(set(int(n) for n in n_values))
    for n in n_list:
        _require_pair_size(n)
    return n_list


def _campaign_entries(
    specs: Sequence[EntropySpec],
    cells: list[tuple[int, int, int, int]],
    rng_seed: int,
    tolerance: float,
) -> tuple[list[CaseRecord], list[int]]:
    """The records of the cases of ``cells``, and each one's spec index.

    A cell is (spec index, n, first case, case count); cells must come in
    ascending spec index.  The draw phase draws one block of uniforms per
    cell and one pair per case; each case's two vectors go to the kernel.
    """
    spec_indices, dims, index, draws, pairs = [], [], [], [], []
    for s_index, n, first, count in cells:
        floor = 0.0 if specs[s_index].functional.zero_safe else _INTERIOR_FLOOR
        probs, pair_uniforms = _cell_draws([rng_seed, s_index, n], n, first, count, floor)
        pairs += [_random_refinement_pair(n, row) for row in pair_uniforms.tolist()]
        spec_indices += [s_index] * count
        dims += [n] * count
        index += range(first, first + count)
        draws.append(probs)
    values = _VectorValues(
        specs,
        np.concatenate([np.repeat(p, 2, axis=0).ravel() for p in draws] or [np.empty(0)]),
        np.repeat(np.array(dims, dtype=np.intp), 2),
        np.repeat(spec_indices, 2),
        [b for (f, c), n in zip(pairs, dims) for b in (None if len(f) == n else f, c)],
    )
    finer = values.values[0::2]
    coarser = [c if type(f) is float else None for f, c in zip(finer, values.values[1::2])]
    # what reading finer, then coarser, value by value would raise first
    for v in sorted(values.raised, key=lambda v: v % 2):
        if v % 2 == 0 or type(finer[v // 2]) is float:
            raise values.values[v]
    labels = [spec.label() for spec in specs]
    entries = _checked(
        tolerance,
        finer,
        coarser,
        kind=repeat("monotonicity"),
        spec=map(labels.__getitem__, spec_indices),
        n=dims,
        index=index,
        probs=(tuple(row) for p in draws for row in p.tolist()),
        blocks_finer=[f for f, _ in pairs],
        blocks_coarser=[c for _, c in pairs],
    )
    return entries, spec_indices


def _cell_draws(
    entropy: list[int], n: int, first: int, count: int, floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """Cases ``first..first+count-1`` of one cell: their draws and pair uniforms.

    The cell's generator is seeded with ``SeedSequence(entropy)`` and skips
    the rows of the cases before ``first``.  A draw whose minimum is not
    above ``floor`` is redrawn from the case's child stream, so that no
    other case moves.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    width = n + pair_draw_width(n)
    rng.bit_generator.advance(first * width)  # one 64-bit output per double
    u = rng.random((count, width))
    probs = _flat_dirichlet(u[:, :n])
    for c in np.flatnonzero(probs.min(axis=1) <= floor).tolist():
        child = np.random.SeedSequence(entropy, spawn_key=(first + c,))
        probs[c] = _dirichlet_interior(n, np.random.default_rng(child), floor)
    return probs, u[:, n:]


def _starts(widths: np.ndarray) -> np.ndarray:
    """Start of each segment when segments of these widths lie end to end."""
    return (np.cumsum(widths) - widths).astype(np.intp)


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


def _skip_reason(exc: GentropyError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _evaluated(spec: EntropySpec, dist: FiniteDistribution) -> float | str:
    """``evaluate(spec, dist)``, or the reason it fails."""
    try:
        return evaluate(spec, dist)
    except GentropyError as exc:
        return _skip_reason(exc)


class _VectorValues:
    """Evaluate phase: the entropy of every coarse-grained vector of a batch.

    The batch comes as columns.  Vector ``v`` is the next ``widths[v]``
    entries of ``probs``, aggregated by ``blocks[v]`` (None, or no
    ``blocks``: as it is) and evaluated under ``specs[spec_index[v]]``
    (``specs[0]`` without ``spec_index``); the vectors must be grouped by
    ascending spec index.  ``values[v]`` is its entropy as a float, or
    as a str the reason ``evaluate`` would fail on it, or the exception
    that escapes ``evaluate`` (from h, or from phi on the per-vector path);
    ``raised`` lists the last kind, and ``numbers`` holds the floats as an
    array, NaN elsewhere.  ``totals[v]`` is its component sum.

    Input contract: each draw is a vector ``FiniteDistribution`` accepts,
    and each ``blocks`` the canonical blocks of a partition of its indices.
    The kernel does not check either; its callers are the private draw
    phases of this module and of ``axioms``, which hand it validated
    ``FiniteDistribution.probs``, sampler draws and canonical blocks.
    """

    def __init__(
        self,
        specs: Sequence[EntropySpec],
        probs: np.ndarray,
        widths: np.ndarray,
        spec_index: np.ndarray | None = None,
        blocks: Sequence[_Blocks | None] | None = None,
    ):
        values = np.empty(len(widths), dtype=object)
        spec_index = np.zeros(len(widths), np.intp) if spec_index is None else spec_index
        blocks = [None] * len(widths) if blocks is None else blocks
        bounds = np.searchsorted(spec_index, np.arange(len(specs) + 1))
        rejected, self.totals, fallback = self._phi_totals(
            specs, bounds, values, *self._coarse_grain_all(probs, widths, blocks)
        )
        numbers, starts = np.full(len(widths), math.nan), _starts(widths)
        for s, spec in enumerate(specs):
            lo, hi = bounds[s], bounds[s + 1]
            if s in fallback:  # coarse_grain and evaluate, one vector at a time
                for v in range(lo, hi):
                    dist = FiniteDistribution(probs[starts[v] : starts[v] + widths[v]])
                    if blocks[v] is not None:
                        dist = coarse_grain(dist, Partition._raw(blocks[v], dist.n))
                    values[v] = _outcome(evaluate, spec, dist)
                    if type(values[v]) is float:
                        numbers[v] = values[v]
                        self.totals[v] = float(np.sum(spec.functional.phi(dist.probs)))
            elif lo < hi:
                kept = lo + np.flatnonzero(~rejected[lo:hi])
                values[kept], numbers[kept] = _outer_values(spec, self.totals[kept].tolist())
        self.values, self.numbers = values.tolist(), numbers
        unset = np.flatnonzero(np.isnan(numbers)).tolist()  # a float value is finite
        self.raised = [v for v in unset if isinstance(self.values[v], Exception)]

    @staticmethod
    def _coarse_grain_all(
        probs: np.ndarray, sizes: np.ndarray, blocks: Sequence[_Blocks | None]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every coarse-grained vector from one gather of block elements.

        ``probs`` holds the vectors' draws end to end, ``sizes`` their
        lengths.  Returns the coarse-grained vectors laid end to end, with
        each one's start and width.  A vector without blocks is copied as it
        is; only the others are gathered and summed.
        """
        grouped = [v for v, b in enumerate(blocks) if b is not None]
        if not grouped:
            return probs, _starts(sizes), sizes
        chosen = [blocks[v] for v in grouped]
        grouped = np.array(grouped, dtype=np.intp)
        widths = sizes.copy()
        widths[grouped] = list(map(len, chosen))
        block_widths = np.fromiter(map(len, chain.from_iterable(chosen)), dtype=np.intp)
        elements = np.fromiter(
            chain.from_iterable(chain.from_iterable(chosen)),
            dtype=np.intp,
            count=block_widths.sum(),
        )
        block_owner = np.repeat(np.arange(grouped.size), widths[grouped])
        element_owner = np.repeat(block_owner, block_widths)
        gathered = probs[elements + _starts(sizes)[grouped][element_owner]]
        flat = _segment_sums(gathered, _starts(block_widths), block_widths)
        if grouped.size < len(blocks):  # the vectors without blocks are their draws
            direct = np.ones(len(blocks), dtype=bool)
            direct[grouped] = False
            merged = np.empty(int(widths.sum()))
            merged[np.repeat(direct, widths)] = probs[np.repeat(direct, sizes)]
            merged[np.repeat(~direct, widths)] = flat
            flat = merged
        return flat, _starts(widths), widths

    @staticmethod
    def _phi_totals(
        specs: Sequence[EntropySpec],
        bounds: np.ndarray,
        values: np.ndarray,
        flat: np.ndarray,
        starts: np.ndarray,
        widths: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, set[int]]:
        """Each vector's component sum, one ``phi`` call per functional.

        A vector that ``evaluate`` would reject before calling phi is marked
        rejected and gets its reason in ``values``.  Also returns the
        functionals whose batched phi raises: they take the per-vector path.
        """
        vectors = len(widths)
        owner = np.repeat(np.arange(vectors), widths)
        has_zero = np.bincount(owner[flat == 0.0], minlength=vectors) > 0
        rejected = np.zeros(vectors, dtype=bool)
        phis = np.zeros_like(flat)
        fallback = set()
        for s, spec in enumerate(specs):
            lo, hi = bounds[s], bounds[s + 1]
            if lo == hi:
                continue
            for width, zero in set(zip(widths[lo:hi].tolist(), has_zero[lo:hi].tolist())):
                try:
                    _admit(spec, width, zero)
                except GentropyError as exc:
                    hit = lo + np.flatnonzero((widths[lo:hi] == width) & (has_zero[lo:hi] == zero))
                    rejected[hit] = True
                    values[hit] = _skip_reason(exc)
            ok = np.repeat(~rejected[lo:hi], widths[lo:hi])
            segment = slice(starts[lo], starts[hi - 1] + widths[hi - 1])
            try:
                phis[segment][ok] = spec.functional.phi(flat[segment][ok])
            except Exception:  # the per-vector path reproduces it exactly
                fallback.add(s)
        return rejected, _segment_sums(phis, starts, widths), fallback


def _outer_values(spec: EntropySpec, totals: list[float]) -> tuple[list, list[float]]:
    """``_outer_value`` of every total, and the floats among them (NaN elsewhere).

    h is applied by one comprehension; if it raises or gives a non-finite
    value, each total keeps its own outcome.
    """
    h = spec.functional.h
    try:
        mapped = totals if h is None else [float(h(total)) for total in totals]
    except Exception:  # each total's own outcome is taken below
        mapped = [math.nan]
    if np.isfinite(mapped).all():
        return mapped, mapped
    outcomes = [_outcome(_outer_value, spec, total) for total in totals]
    return outcomes, [v if type(v) is float else math.nan for v in outcomes]


def _outcome(fn, *args) -> object:
    """``fn(*args)``, or the reason it fails with a ``GentropyError``, or what it raises."""
    try:
        return fn(*args)
    except GentropyError as exc:
        return _skip_reason(exc)
    except Exception as exc:
        return exc


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
    ``evaluate`` would fail.  Only n <= 8 is enumerated.
    """
    if dist.n > 8:
        raise TooLarge(f"exhaustive check is limited to n <= 8, got {dist.n}")
    partitions = [part.blocks for part in enumerate_partitions(dist.n)]
    count = len(partitions) - 1
    values = _VectorValues(
        [spec], np.tile(dist.probs, count), np.full(count, dist.n), blocks=partitions[:-1]
    )
    for v in values.raised[:1]:
        raise values.values[v]
    return partitions, values.values


_LATTICE_KINDS = ("covering_edge", "total_merge", "vs_identity")


def _lattice_rows(partitions: list[_Blocks], n: int) -> tuple[np.ndarray, ...]:
    """Each lattice entry's finer and coarser partition index, and its kind.

    The kind indexes ``_LATTICE_KINDS``.  Entries come partition by
    partition: the covering edges that merge its blocks i < j, in
    lexicographic order, then (but for the identity, last) the partition
    against the identity.  In the restricted growth string (RGS) of a
    partition, element x carries the index of its block.  Merging blocks
    i < j relabels j as i and lowers every label above j by one, which gives
    the RGS of the merged partition in canonical form.  Read as base-n
    numbers, the RGSs of the enumeration ascend, so a merged partition's
    index is a ``np.searchsorted`` of its code.
    """
    k = np.fromiter(map(len, partitions), dtype=np.intp, count=len(partitions))
    identity = k.size - 1
    edges = k * (k - 1) // 2
    rows = edges + (np.arange(k.size) < identity)
    first = _starts(rows)
    finer = np.repeat(np.arange(k.size), rows)
    coarser = np.empty_like(finer)
    kind = np.zeros_like(finer)
    block_widths = np.fromiter(map(len, chain.from_iterable(partitions)), dtype=np.intp)
    elements = np.fromiter(
        chain.from_iterable(chain.from_iterable(partitions)), dtype=np.intp, count=k.size * n
    )
    labels = np.arange(block_widths.size) - np.repeat(_starts(k), k)
    rgs = np.zeros((k.size, n), dtype=np.intp)
    rgs[np.repeat(np.arange(k.size), n), elements] = np.repeat(labels, block_widths)
    weights = n ** np.arange(n - 1, -1, -1)
    codes = rgs @ weights
    for size in range(2, n + 1):
        parts = np.flatnonzero(k == size)
        i, j = np.triu_indices(size, 1)
        rgs_k = rgs[parts][:, None, :]  # (partition, merge, element)
        merged = np.where(rgs_k == j[:, None], i[:, None], rgs_k) - (rgs_k > j[:, None])
        coarser[first[parts, None] + np.arange(i.size)] = np.searchsorted(codes, merged @ weights)
    vs_identity = (first + edges)[:identity]
    finer[vs_identity] = identity
    coarser[vs_identity] = np.arange(identity)
    kind[vs_identity] = np.where(k[:identity] == 1, 1, 2)
    return finer, coarser, kind


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
    partitions, values = _partition_values(spec, dist)
    values.append(_evaluated(spec, dist))
    finer, coarser, kind = (column.tolist() for column in _lattice_rows(partitions, n))
    entries = _checked(
        tolerance,
        map(values.__getitem__, finer),
        map(values.__getitem__, coarser),
        kind=map(_LATTICE_KINDS.__getitem__, kind),
        spec=repeat(spec.label()),
        n=repeat(n),
        index=range(len(kind)),
        blocks_finer=map(partitions.__getitem__, finer),
        blocks_coarser=map(partitions.__getitem__, coarser),
    )
    report = _finish(
        f"lattice-n{n}",
        None,
        tolerance,
        entries,
        {"partitions": len(partitions), "probs": dist.probs.tolist()},
    )
    report.metadata["min_margin"] = report.summary[0].min_margin if report.summary else None
    return report


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
    partitions, values = _partition_values(spec, dist)
    base = evaluate(spec, dist)
    entries = _checked(
        tolerance,
        repeat(base, len(values)),
        values,
        kind=("total_merge" if len(blocks) == 1 else "vs_identity" for blocks in partitions),
        spec=repeat(spec.label()),
        n=repeat(n),
        index=range(len(values)),
        blocks_finer=repeat(partitions[-1]),
        blocks_coarser=partitions,
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
    pinned = {
        (0.2, 0.3, 0.5): 1.3,
        (0.5, 0.5): 1.5,
        (0.25, 0.25, 0.25, 0.25): 1.0,
        (0.2, 0.25, 0.25, 0.3): 1.05,
    }
    values = {probs: evaluate(spec, FiniteDistribution(probs)) for probs in pinned}
    fine = values[(0.2, 0.3, 0.5)]
    coarse = values[(0.5, 0.5)]
    uniform = values[(0.25, 0.25, 0.25, 0.25)]
    tilted = values[(0.2, 0.25, 0.25, 0.3)]
    kink_slopes = {0.1: 1.0, 0.3: 2.0}  # either side of the first kink
    slopes = {x: phi_prime(spec, x) for x in kink_slopes}
    rows = [
        *(
            dict(
                kind="pinned_value",
                n=len(probs),
                passed=abs(values[probs] - expected) <= tolerance,
                probs=probs,
                value_finer=values[probs],
                margin=values[probs] - expected,
                note=f"expected {expected!r}",
            )
            for probs, expected in pinned.items()
        ),
        dict(
            kind="monotonicity_violation",
            n=3,
            passed=fine < coarse,  # the violation must be present
            probs=(0.2, 0.3, 0.5),
            blocks_finer=Partition.identity(3).blocks,
            blocks_coarser=((0, 1), (2,)),
            value_finer=fine,
            value_coarser=coarse,
            margin=fine - coarse,
            note="aggregating {0,1} increases the value: 1.3 -> 1.5",
        ),
        dict(
            kind="uniform_maximality_violation",
            n=4,
            passed=uniform < tilted,
            probs=(0.2, 0.25, 0.25, 0.3),
            value_finer=uniform,
            value_coarser=tilted,
            margin=uniform - tilted,
            note="the uniform distribution is not the maximizer: 1.0 < 1.05",
        ),
        *(
            dict(
                kind="slope_witness",
                n=1,
                passed=abs(slopes[x] - expected) <= tolerance,
                value_finer=slopes[x],
                margin=slopes[x] - expected,
                note=f"component slope at x={x!r} expected {expected!r}",
            )
            for x, expected in kink_slopes.items()
        ),
    ]
    label = spec.label()
    entries = [CaseRecord(spec=label, index=index, **row) for index, row in enumerate(rows)]
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

    Each n is one cell of the campaign's row layout, seeded with
    ``SeedSequence([rng_seed, n])``.  For ``counterexample_HE`` the known
    offending distribution at n = 4 takes the place of sample 0, so the
    report demonstrably contains at least one violation there.
    """
    _require_non_negative(samples=samples, rng_seed=rng_seed)
    n_list = sorted(set(int(n) for n in n_values))
    if n_list and n_list[0] < 1:
        raise ValidationError(f"max_entropy_check needs n >= 1, got {n_list}")
    floor = 0.0 if spec.functional.zero_safe else _INTERIOR_FLOOR
    finer: list[float | str] = []
    n_column: list[int] = []
    index: list[int] = []
    drawn: list[np.ndarray] = []
    for n in n_list:
        top = _evaluated(spec, FiniteDistribution(np.full(n, 1.0 / n)))
        count = samples if type(top) is float else 1
        finer += [top] * count
        n_column += [n] * count
        index += range(count)
        if type(top) is float:
            probs, _ = _cell_draws([rng_seed, n], n, 0, samples, floor)
            if spec.id == "counterexample_HE" and n == 4 and samples:
                probs[0] = [0.2, 0.25, 0.25, 0.3]
            drawn.append(probs)
    # The rows whose uniform value is a float take the drawn vectors in order.
    values = _VectorValues(
        [spec],
        np.concatenate([p.ravel() for p in drawn] or [np.empty(0)]),
        np.concatenate([np.full(len(p), p.shape[1]) for p in drawn] or [np.empty(0, np.intp)]),
    )
    for v in values.raised[:1]:
        raise values.values[v]
    values, drawn = iter(values.values), chain.from_iterable(drawn)
    entries = _checked(
        tolerance,
        finer,
        [next(values) if type(top) is float else None for top in finer],
        kind=repeat("max_entropy"),
        spec=repeat(spec.label()),
        n=n_column,
        index=index,
        probs=[tuple(next(drawn).tolist()) if type(top) is float else None for top in finer],
    )
    return _finish(
        "max-entropy",
        rng_seed,
        tolerance,
        entries,
        {"n_values": n_list, "samples": samples, "sampler": SAMPLER},
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


def _finite_reprs(values) -> list[str] | None:
    """``float.__repr__`` of every value, or None unless all are finite floats.

    None also where finite values sum past the float range; callers then
    encode value by value.
    """
    try:
        texts = list(map(float.__repr__, values))
    except TypeError:  # a value that is not a float
        return None
    return texts if math.isfinite(sum(values)) else None


def _json_numbers(values, level: int = 3) -> str:
    """An array of scalars; an all-float array of finite values is encoded in bulk."""
    texts = _finite_reprs(values)
    return _json_array(map(_json_scalar, values) if texts is None else texts, level)


def _json_block(block, level: int = 4) -> str:
    if set(map(type, block)) == {int}:
        return _json_array(map(int.__repr__, block), level)
    return _json_numbers(block, level)


def _json_blocks(blocks, level: int = 3) -> str:
    return _json_array((_json_block(block, level + 1) for block in blocks), level)


def _as_is(value):
    return value


def _tuples(blocks) -> tuple[tuple, ...]:
    return tuple(map(tuple, blocks))


def _listed(value):
    """``value`` with every tuple in it, nested ones too, made a list."""
    return [_listed(item) for item in value] if isinstance(value, tuple) else value


# The entry schema: every CaseRecord field in sorted-key order, as
# (name, JSON encoder, written even if None, decoder of its JSON value).
_ENTRY_FIELDS = (
    ("blocks_coarser", _json_blocks, False, _tuples),
    ("blocks_finer", _json_blocks, False, _tuples),
    ("index", _json_scalar, True, _as_is),
    ("kind", _json_scalar, True, _as_is),
    ("margin", _json_scalar, False, _as_is),
    ("n", _json_scalar, True, _as_is),
    ("note", _json_scalar, False, _as_is),
    ("passed", _json_scalar, True, _as_is),
    ("probs", _json_numbers, False, tuple),
    ("skipped", _json_scalar, False, _as_is),
    ("spec", _json_scalar, True, _as_is),
    ("value_coarser", _json_scalar, False, _as_is),
    ("value_finer", _json_scalar, False, _as_is),
)


def _written_fields(entry: CaseRecord) -> Iterable[tuple[str, object, object]]:
    """(name, encoder, value) of each field a report writes for ``entry``."""
    for name, encode, always, _ in _ENTRY_FIELDS:
        value = getattr(entry, name)
        if always or value is not None:
            yield name, encode, value


def _entry_text(fields: Iterable[str]) -> str:
    return "    {\n      " + ",\n      ".join(fields) + "\n    }"


def _json_entry(entry: CaseRecord) -> str:
    return _entry_text(
        f'"{name}": {encode(value)}' for name, encode, value in _written_fields(entry)
    )


# A campaign case that was evaluated: every field but ``note`` and
# ``skipped``, with a nonempty ``probs`` (an array of one number a line).
_FULL_ENTRY = _entry_text(
    f'"{name}": ' + ("[" + _PAD[4] + "%s" + _PAD[3] + "]" if name == "probs" else "%s")
    for name, *_ in _ENTRY_FIELDS
    if name not in ("note", "skipped")
)


def _json_entries(entries: Sequence[CaseRecord]) -> Iterable[str]:
    """Each entry as :func:`_json_entry` writes it.

    A full-shape entry is written from one template, its floats encoded in
    bulk, and the encoding of each distinct blocks tuple, block, kind and
    spec label is made once per call (values that compare equal share it,
    as the records compare them).
    """
    memo: dict = {}

    def once(value, encode) -> str:
        text = memo.get(value)
        if text is None:
            text = memo[value] = encode(value)
        return text

    def blocks(value) -> str:  # as _json_blocks, each block encoded once too
        text = memo.get(value)
        if text is None:
            text = memo[value] = _json_array([once(block, _json_block) for block in value], 3)
        return text

    for e in entries:
        floats = None
        if (
            e.note is None and e.skipped is None and e.probs
            and e.blocks_coarser is not None and e.blocks_finer is not None
        ):
            floats = _finite_reprs((*e.probs, e.margin, e.value_coarser, e.value_finer))
        if floats is None:
            yield _json_entry(e)
            continue
        yield _FULL_ENTRY % (
            blocks(e.blocks_coarser),
            blocks(e.blocks_finer),
            _json_scalar(e.index),
            once(e.kind, _json_scalar),
            floats[-3],
            _json_scalar(e.n),
            _json_scalar(e.passed),
            _SEPARATOR[4].join(floats[:-3]),
            once(e.spec, _json_scalar),
            floats[-2],
            floats[-1],
        )


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
    # Joined a chunk at a time, so that only one chunk's entry strings, not
    # the whole report's, are alive beside the text joined so far (an entry
    # string is never empty, so "" marks the end).
    entries = _json_entries(report.entries)
    chunks = iter(lambda: ",\n".join(islice(entries, 1024)), "")
    body = ",\n".join(chunks)
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
    entries = [
        CaseRecord(
            **{
                name: decode(raw[name])
                for name, _, always, decode in _ENTRY_FIELDS
                if always or name in raw
            }
        )
        for raw in obj["entries"]
    ]
    summary = tuple(
        SpecSummary(
            **{
                **raw,
                "worst": None
                if raw.get("worst") is None
                else tuple(raw["worst"][key] for key in _WORST_KEYS),
                "skip_reasons": tuple(sorted(raw.get("skip_reasons", {}).items())),
            }
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
