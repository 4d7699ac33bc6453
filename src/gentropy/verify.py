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

A campaign runs in two phases.  The *draw phase* seeds all cells in one numpy pass
(``distributions._pcg64_states``: numpy's seeding bit for bit, so the contract and
``SAMPLER`` stay 2) and draws each cell's block, then works one pass per n: that n's draws
are normalised and floor-tested at once, the pair draw runs per case (a pure function of
its row), and one pass makes the pairs' label rows.  The *evaluate phase* aggregates every
distribution of the campaign by both of its partitions in one gather, calls each
functional's ``phi`` once on all of its coarse-grained vectors laid end to end, and sums
each vector's components.  Its results equal, bit for bit, those of ``coarse_grain`` and
``evaluate`` called case by case, because:

* every sum (block sums, vector totals) is taken over a group of segments
  of one width: below 8 column by column from 0.0, the order numpy's pairwise
  summation keeps there, and from 8 on as the rows of a C-contiguous matrix
  reduced with ``sum(axis=1)``, which sums each row as ``np.sum`` does;
* a batch has one plan (``_kernel_plan``): the draws as they are, in order or by
  id (the basic-axiom probe's vectors share their base's masses), their block sums
  (the identity's blocks are its singletons, and a one-element sum is that element),
  or the subset sums the lattice's vectors share, doubled state by state in order;
* h maps the totals by ``catalog._map_points``, whose array forms give each
  total the bits h gives it alone;
* its inputs are ones the per-case path accepts: every draw a vector
  ``FiniteDistribution`` accepts (a validated ``probs``, a sampler draw or
  a pinned vector) and every vector's blocks the canonical blocks of a
  partition of its indices.  The kernel trusts this and repeats neither
  constructor's checks; the checks of ``evaluate`` run vectorised, and a
  vector they reject records the error ``evaluate`` raises;
* entries are kept a column per ``CaseRecord`` field (``_Entries``), made
  records only when read themselves, in bulk by ``_records`` (``partitions._filled``,
  the one builder of objects made without ``__init__``); the columns ``_checked``
  makes stay arrays (``_Lazy``) until read whole, and margins and verdicts come
  from numpy, whose float64 ``-`` and ``>=`` give the bits Python's floats do.

When a functional's batched ``phi`` raises, ``phi`` runs once on each of
its vectors alone; a vector it fails on keeps that outcome, and the rest
go on as in the batch.  The per-case reference loops of the tests
(``coarse_grain`` and ``evaluate`` case by case) define every value, and
report bytes depend on numpy's summation order: a change to the kernel
must keep those reference tests passing.

The kernel records each vector's error as raised.  A ``GentropyError``
skips an entry, with the reason ``"Type: message"``; any other exception
escapes, and every batched check lets escape what its per-case loop meets
first by one rule, ``_VectorValues.first_failure``: the first vector, in
vector order, whose error is not a ``GentropyError`` (or is any error, where
the caller marks it strict), counted only when its gate, the first vector of
its group, is a float.  ``raise_failure`` raises that recorded error; no
value is derived twice.  A campaign case's finer vector gates its coarser
one; each n's uniform distribution gates that n's samples.  The oracles
share the evaluate phase: one vector per non-identity partition.  The
lattice evaluates the identity with ``evaluate`` after the kernel, last as
in the walk (so a lattice call keeps one ``evaluate`` call); the corollary
evaluates its base before it; a table reused (below) had raised nothing.
What depends on n alone is built once per n and kept read-only: each lattice
entry's partition indices and kind, by a dense table of mixed-radix codes of the
label rows (restricted growth strings) the kept partitions are built from; the
corollary's, the lattice's rows against the identity, with the identity's blocks;
and the kernel's plan: the 2**n - 1 subsets of the states, which every block reads
(their masses doubled state by state, ``_subset_masses``), and per partition width
a matrix of subset ids, so phi runs once per subset and a width's totals are one
gather.  The last (spec, distribution)'s value table is kept too.
``max_entropy_check`` draws one cell per n with the campaign's row layout, seeded
with ``SeedSequence([seed, n])``.  Every caller hands ``_checked`` the kernel's
float64 values (NaN where one failed), its errors by vector and each row's two
indices; only a batch with an error gets a ``skipped`` column, and without one
every entry's ``skipped`` is a shared None.  A kept table's blocks wait for their
first read, by either oracle, which makes one ``enumerate_partitions`` call,
consumed in full; a lattice call makes far fewer ``evaluate`` calls than it has
edges.  Both names are looked up in this module, where the benchmark's tracer
times them.  One JSON writer serves every report: it formats rows by shape, one
``%`` template for the rows of a chunk that write the same fields; a campaign's
label rows come first, those new to the report written by one ``"".join``
(``_LabelRows.texts``).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import FrozenInstanceError, dataclass, field, fields
from functools import lru_cache, partial
from itertools import chain, repeat
from operator import attrgetter, is_not

import csv
import io
import json
import math

import numpy as np

from .catalog import EntropySpec, _admit, _map_points, _outcome, evaluate, phi_prime
from .distributions import FiniteDistribution, _dirichlet_interior, _flat_dirichlet, _freeze
from .distributions import _pcg64_states
from .errors import GentropyError, ParamOutOfDomain, TooLarge, UnsupportedFormat
from .errors import ValidationError, _integer, _json_document, _json_text, _number
from .partitions import LATTICE_LIMIT, Partition, _label_rows, enumerate_partitions, pair_draw_width
from .partitions import _canonical_blocks, _filled, _label_blocks, _pair_labels, _pair_size
from .partitions import _random_refinement_pair  # the per-pair draw, looked up per case

MARGIN_TOLERANCE = 1e-9
REPORT_SCHEMA = 2
SAMPLER = 2  # the draw layout of campaigns and max_entropy_check (see module doc)

_INTERIOR_FLOOR = 1e-6  # resampling floor for functionals that reject zeros
_WORST_KEYS = ("spec_index", "n", "index")  # SpecSummary.worst in JSON
_MARGIN_ROWS = 4096  # margin rows whose coarser values ``_checked`` gathers at once (32 KiB)


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
        return _entry_dict(_entry_row(self))


# Every name is refused, a field or not: slots=True's own raise TypeError for others on 3.10-3.13
def _frozen(self, name, *value):
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


CaseRecord.__setattr__ = CaseRecord.__delattr__ = _frozen
_records = partial(_filled, CaseRecord)  # bound now: no wrapper over the name CaseRecord reaches it


class _Lazy:
    """A column kept as arrays: row r is ``source[rows[r]]`` (``source[r]``
    without ``rows``), or None where ``none[r]``.  ``_Entries`` makes it a
    list, and keeps that, when it is first read whole."""

    __slots__ = ("source", "rows", "none")

    def __init__(self, source: np.ndarray, rows: np.ndarray | None = None, none=None):
        self.source, self.rows, self.none = source, rows, none

    def take(self, at) -> list:
        """The values of the rows ``at``, an index sequence or a slice."""
        source, rows = self.source, self.rows
        if source.dtype.kind == "f" and rows is not None and rows.size > source.size:
            self.source = source = source.astype(object)  # rows share values: each made once
        values = source[at if rows is None else rows[at]]
        return (values if self.none is None else np.where(self.none[at], None, values)).tolist()


class _LabelRows(_Lazy):
    """A blocks column kept as label rows (``partitions._label_blocks``), made tuples when read."""

    __slots__ = ()

    def take(self, at) -> list:
        return _canonical_blocks(self.source[at])

    def texts(self, memo: dict) -> list[str]:
        """Each row's JSON array, made once per distinct row (``memo``: texts by row bytes): the
        fresh rows' states, each with the separator after it, joined once and cut at the NULs."""
        rows = np.ascontiguousarray(self.source)
        keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().tolist()
        fresh = [key for key in dict.fromkeys(keys) if key not in memo]
        rows = np.frombuffer(b"".join(fresh), rows.dtype).reshape(-1, rows.shape[1])
        counts, widths, states = _label_blocks(rows)
        after, last = np.zeros(states.size, np.intp), np.cumsum(widths) - 1
        after[last], after[last[np.cumsum(counts) - 1]] = 1, 2  # closing a block, then a row
        opening, inside, block, row = _template((2, 1)).split("%s")
        ends = inside, block, row + "\0" + opening  # a row's end holds a NUL, then the next row
        words = [str(state) + end for state in range(rows.shape[1]) for end in ends]
        text = opening + "".join(map(words.__getitem__, (3 * states + after).tolist()))
        memo.update(zip(fresh, text.split("\0")))
        return list(map(memo.__getitem__, keys))


class _Entries(Sequence):
    """A report's entries: a read-only sequence of ``CaseRecord`` kept as columns.

    ``columns`` (lists or ``_Lazy``) and ``shared`` are as :func:`_records` takes
    them; reports read them and the arrays ``skipped``, ``violation`` (not passed,
    not skipped) and ``margin``, NaN where an entry is skipped or has no margin.
    An int index builds one record; iterating or slicing builds all, once.
    """

    __slots__ = ("_columns", "_shared", "_built", "skipped", "violation", "margin")

    def __init__(self, columns, shared, skipped, violation, margin, built=None):
        self._columns, self._shared, self._built = columns, shared, built
        self.skipped, self.violation, self.margin = skipped, violation, margin

    @classmethod
    def of(cls, records: Iterable[CaseRecord]) -> _Entries:
        """``records`` as entries; entries are returned as they are."""
        if isinstance(records, _Entries):
            return records
        records = tuple(records)
        columns = {f.name: list(map(attrgetter(f.name), records)) for f in fields(CaseRecord)}
        skipped = np.array([reason is not None for reason in columns["skipped"]], dtype=bool)
        margin = np.array([math.nan if m is None or skip else float(m)
                           for m, skip in zip(columns["margin"], skipped.tolist())])
        violation = ~skipped & ~np.array(columns["passed"], dtype=bool)
        return cls(columns, {}, skipped, violation, margin, records)

    def __len__(self) -> int:
        return len(self.skipped)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._all()[key]
        return self._take([range(len(self))[key]])[0]

    def __iter__(self):
        return iter(self._all())

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, _Entries)):
            return self._all() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._all())

    def __repr__(self) -> str:
        return repr(self._all())

    def column(self, name: str) -> Sequence:
        """Every entry's value of the field ``name``, in entry order."""
        column = self._columns.get(name)
        if isinstance(column, _Lazy):  # read whole: made a list, kept
            column = self._columns[name] = column.take(slice(None))
        return [self._shared.get(name)] * len(self) if column is None else column

    def _at(self, name: str, rows: Sequence[int]) -> list:
        """The values of the field ``name`` at ``rows``."""
        column = self._columns.get(name)
        if column is None or not len(rows):
            return [self._shared.get(name)] * len(rows)
        return column.take(rows) if isinstance(column, _Lazy) else [column[r] for r in rows]

    def _take(self, rows: Sequence[int]) -> tuple[CaseRecord, ...]:
        """The records of ``rows``."""
        if self._built is not None:
            return tuple(map(self._built.__getitem__, rows))
        picked = {name: self._at(name, rows) for name in self._columns}
        return tuple(_records(len(rows), self._shared, **picked))

    def _all(self) -> tuple[CaseRecord, ...]:
        if self._built is None:
            columns = {name: self.column(name) for name in self._columns}
            self._built = tuple(_records(len(self), self._shared, **columns))
        return self._built


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
            "spec": self.spec,
            "cases": self.cases,
            "violations": self.violations,
            "skipped": self.skipped,
            "min_margin": self.min_margin,
            "worst": None if self.worst is None else dict(zip(_WORST_KEYS, self.worst)),
            "skip_reasons": dict(self.skip_reasons),
        }


@dataclass(frozen=True)
class VerificationReport:
    """A finished campaign: per-case records (held as ``_Entries``) plus per-spec tallies."""

    campaign_id: str
    seed: int | None
    tolerance: float
    entries: Sequence[CaseRecord]
    summary: tuple[SpecSummary, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "entries", _Entries.of(self.entries))

    @property
    def violations(self) -> tuple[CaseRecord, ...]:
        return self.entries._take(np.flatnonzero(self.entries.violation).tolist())

    @property
    def passed(self) -> bool:
        return not self.entries.violation.any()

    def to_dict(self) -> dict:
        rows = zip(*map(self.entries.column, _ENTRY_NAMES))
        return {**self._header(), "entries": list(map(_entry_dict, rows))}

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
    """One summary per run of entries, in entry order.

    ``spec_indices`` gives each entry's spec index (all 0 when omitted, as
    for a single-spec report).  A run starts at entry 0 and wherever the spec
    index changes; labels are display text two specs may share.  Each report this
    module builds gives a spec one run, labelled by its first entry.  The worst
    case is the first entry holding the run's least margin; a skipped one has none.
    """
    entries = _Entries.of(entries)
    s_index = None if spec_indices is None else np.asarray(spec_indices)
    change = False if s_index is None else s_index[1:] != s_index[:-1]
    starts = [0, *(np.flatnonzero(change) + 1).tolist()][: len(entries)]
    firsts = [0] * len(starts) if s_index is None else s_index[starts].tolist()
    runs = zip(firsts, entries._at("spec", starts), starts, starts[1:] + [len(entries)])
    summaries = []
    for s, label, start, stop in runs:
        run, margin = slice(start, stop), entries.margin[start:stop]
        reasons = Counter(entries._at("skipped", np.flatnonzero(entries.skipped[run]) + start))
        at, worst = int(margin.argmin()), None  # the first least margin, or the first NaN
        if math.isnan(margin[at]):  # NaN where an entry has no margin: the least of the rest
            at = int((margin == np.fmin.reduce(margin)).argmax())
        if not math.isnan(margin[at]):
            row = [start + at]
            (least,), (n,), (index,) = (entries._at(name, row) for name in ("margin", "n", "index"))
            worst = (s, n, index)
        summaries.append(SpecSummary(
            label, stop - start, int(np.count_nonzero(entries.violation[run])),
            sum(reasons.values()), None if worst is None else least, worst,
            (*sorted(reasons.items()),),
        ))
    return tuple(summaries)


def _finish(campaign_id: str, seed: int | None, tolerance: float, entries: Sequence[CaseRecord],
            metadata: dict, spec_indices: Sequence[int] | None = None) -> VerificationReport:
    summary = _summarize(entries, spec_indices)
    return VerificationReport(campaign_id, seed, tolerance, entries, summary, metadata)


def _tolerance(tolerance) -> None:
    """The one check of every oracle's tolerance, made at entry: a finite number, at least 0."""
    if _number("tolerance", tolerance) < 0.0:
        raise ParamOutOfDomain(f"'tolerance' must be >= 0, got {tolerance!r}")


def _lattice_n(dist: FiniteDistribution, tolerance) -> int:
    """An exhaustive oracle's n, at most ``LATTICE_LIMIT``, once its tolerance is checked."""
    if dist.n > LATTICE_LIMIT:
        raise TooLarge(f"exhaustive check is limited to n <= {LATTICE_LIMIT}, got {dist.n}")
    _tolerance(tolerance)
    return dist.n


def _checked(
    tolerance: float, numbers: np.ndarray, failures: dict, finer_rows: np.ndarray,
    coarser_rows: np.ndarray, shared: dict, **columns: Sequence
) -> _Entries:
    """The entries of checks of H(finer) >= H(coarser), one per row.

    ``numbers`` is a float64 table of finite values, NaN where a value could not
    be computed, and ``failures`` maps such an index to its error, whose text
    ``"Type: message"`` is the reason, written once per distinct error.  Row r
    compares the values at ``finer_rows[r]`` and ``coarser_rows[r]``; its
    first reason, finer before coarser, makes it skipped (its margin is NaN),
    with no values and no margin; without failures ``skipped`` is shared (None).
    Margins (the finer values gathered, the coarser ones subtracted ``_MARGIN_ROWS`` at
    a time: no temporary is as long as the rows) and verdicts are taken in numpy, whose
    float64 ``-`` and ``< -tolerance`` give the bits the Python floats do; the ``_Lazy``
    value columns read the table's floats.  ``columns`` are the entries' other fields,
    a sequence each, and ``shared`` those all share.
    """
    margin = numbers[finer_rows]
    for at in range(0, margin.size, _MARGIN_ROWS):
        margin[at : at + _MARGIN_ROWS] -= numbers[coarser_rows[at : at + _MARGIN_ROWS]]
    is_skipped, violation = np.isnan(margin), margin < -tolerance  # NaN: not a violation
    if failures:
        texts = {id(error): f"{type(error).__name__}: {error}" for error in failures.values()}
        reasons = np.empty(len(numbers), dtype=object)
        reasons[list(failures)] = [texts[id(error)] for error in failures.values()]
        at = np.where(np.isnan(numbers)[finer_rows], finer_rows, coarser_rows)
        columns["skipped"] = _Lazy(reasons, at, ~is_skipped)
    columns.update(
        value_finer=_Lazy(numbers, finer_rows, is_skipped),
        value_coarser=_Lazy(numbers, coarser_rows, is_skipped),
        margin=_Lazy(margin, None, is_skipped),
        passed=_Lazy(~violation),
    )
    return _Entries(columns, shared, is_skipped, violation, margin)


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
    No case, or no n, is a ``ValidationError``: a report would pass unchecked.
    """
    cases_per_cell = _integer("cases_per_cell", cases_per_cell, minimum=1)
    rng_seed = _integer("rng_seed", rng_seed)
    n_list = sorted({_pair_size(n) for n in n_values})
    if not n_list:
        raise ValidationError("'n_values' names no dimension")
    _tolerance(tolerance)
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
    spec_index = _integer("spec_index", spec_index)
    if spec_index >= len(specs):
        raise ValidationError(f"spec index {spec_index} is out of range for {len(specs)} specs")
    cells = [(spec_index, _pair_size(n), _integer("case", case), 1)]
    rng_seed = _integer("rng_seed", rng_seed)
    _tolerance(tolerance)
    return _campaign_entries(specs, cells, rng_seed, tolerance)[0][0]


def _campaign_entries(
    specs: Sequence[EntropySpec],
    cells: list[tuple[int, int, int, int]],
    rng_seed: int,
    tolerance: float,
) -> tuple[_Entries, list[int]]:
    """The entries of the cases of ``cells``, and each one's spec index.

    A cell is (spec index, n, first case, case count); cells must come in
    ascending spec index.  The draw phase is :func:`_draws`, one pair draw per case
    and one pass per n for its pairs' label rows; the kernel reads them and the draws.
    """
    floors = {s: 0.0 if specs[s].functional.zero_safe else _INTERIOR_FLOOR for s, *_ in cells}
    columns = np.array(cells, dtype=np.intp).reshape(-1, 4)
    spec_indices, dims = np.repeat(columns[:, :2], columns[:, 3], axis=0).T
    width, draws = int(dims.max(initial=0)), []  # each case's two label rows, padded by width
    table = np.full((dims.size, 2, width), width, np.min_scalar_type(width))
    for n, p, u in _draws([([rng_seed, s, n], n, first, k, floors[s]) for s, n, first, k in cells]):
        draws.append(p)
        pairs = _pair_labels(n, [_random_refinement_pair(n, row) for row in u.tolist()])
        table[dims == n, :, :n] = pairs.reshape(-1, 2, n)
    order = np.argsort(np.argsort(dims, kind="stable")).tolist()  # each case's row in the batches
    counts, block_widths, elements = _label_blocks(table.reshape(2 * dims.size, width))
    widths, starts = np.repeat(dims, 2), np.repeat(_starts(np.sort(dims))[order], 2)
    values = _VectorValues(
        specs,
        np.concatenate([p.ravel() for p in draws] or [np.empty(0)]),
        _kernel_plan(counts, partial(_segment_sums, plan=_sum_plan(  # block elements in the draws
            _starts(block_widths), block_widths, elements + np.repeat(starts, widths)))),
        np.repeat(spec_indices, 2),
    )
    values.raise_failure(values.first_failure(2))  # a case's finer vector gates its coarser
    labels = [spec.label() for spec in specs]
    rows = np.arange(len(values.numbers))
    spec_indices = spec_indices.tolist()
    entries = _checked(
        tolerance, values.numbers, values.failures, rows[0::2], rows[1::2],
        {"kind": "monotonicity"},
        spec=list(map(labels.__getitem__, spec_indices)),
        n=dims.tolist(),
        index=list(chain.from_iterable(range(first, first + count) for *_, first, count in cells)),
        probs=list(map([tuple(row) for p in draws for row in p.tolist()].__getitem__, order)),
        blocks_finer=_LabelRows(table[:, 0]),
        blocks_coarser=_LabelRows(table[:, 1]),
    )
    return entries, spec_indices


def _draws(
    cells: list[tuple[list[int], int, int, int, float]],
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Per n in ascending order: n, and the draws and pair uniforms of cases
    ``first..first+count-1`` of each cell (entropy, n, first, count, floor)
    of that n, stacked in cell order.

    A cell's generator, one PCG64 per call set to each cell's state, is seeded
    as by ``SeedSequence(entropy)``, skips the rows of the cases before ``first``
    and fills the cell's rows of its n's block; the rest is one pass per n.  A
    draw whose minimum is not above its cell's floor is redrawn from the case's
    child stream, so that no other case moves.
    """
    dims = np.array([n for _, n, *_ in cells], dtype=np.intp)
    states, rng = _pcg64_states([entropy for entropy, *_ in cells]), np.random.default_rng(0)
    for n in sorted(set(dims.tolist())):
        of_n = np.flatnonzero(dims == n).tolist()
        counts = [cells[c][3] for c in of_n]
        starts, u = _starts(counts), np.empty((sum(counts), n + pair_draw_width(n)))
        for c, start in zip(of_n, starts.tolist()):
            _, _, first, count, _ = cells[c]
            rng.bit_generator.state = states[c]
            if first:
                rng.bit_generator.advance(first * u.shape[1])  # one 64-bit output per double
            rng.random(out=u[start : start + count])
        probs = _flat_dirichlet(u[:, :n])  # row for row, the bits of each row alone
        floors = np.repeat([cells[c][4] for c in of_n], counts)
        for r in np.flatnonzero(probs.min(axis=1) <= floors).tolist():
            k = np.searchsorted(starts, r, side="right") - 1
            entropy, _, first, _, floor = cells[of_n[k]]
            child = np.random.SeedSequence(entropy, spawn_key=(first + r - int(starts[k]),))
            probs[r] = _dirichlet_interior(n, np.random.default_rng(child), floor)
        yield n, probs, u[:, n:]


def _starts(widths: np.ndarray) -> np.ndarray:
    """Start of each segment when segments of these widths lie end to end."""
    return (np.cumsum(widths) - widths).astype(np.intp)


def _sum_plan(starts: np.ndarray, widths: np.ndarray, into: np.ndarray | None = None) -> tuple:
    """The segment count and, per width (by ``np.bincount``: ``np.unique`` imports
    ``numpy.ma``), its rows and their index matrix, each index taken through ``into``."""
    groups = []
    for w in np.flatnonzero(np.bincount(widths)).tolist():
        rows = np.flatnonzero(widths == w)
        index = starts[rows, None] + np.arange(w)
        groups.append((rows, index if into is None else into[index]))
    return len(widths), groups


def _segment_sums(values: np.ndarray, plan: tuple) -> np.ndarray:
    """``np.sum(values[s : s + w])`` for every segment of a :func:`_sum_plan`, bit for bit.
    Below 8 elements numpy's pairwise sum adds in order from 0.0, as a width's columns are
    added here; from 8 on, ``sum(axis=1)`` sums each row of a width as ``np.sum`` does."""
    count, groups = plan
    out = np.zeros(count)
    for rows, index in groups:
        if index.shape[1] < 8:
            acc = np.zeros(rows.size)
            for column in index.T:
                acc += values[column]
            out[rows] = acc
        else:
            out[rows] = values[index].sum(axis=1)
    return out


def _subset_masses(probs: np.ndarray) -> np.ndarray:
    """Each nonempty subset's mass, subset s the one with bit mask s + 1 over n <= 8 states, as
    ``np.sum`` of its elements: by doubling, ``m[2**b : 2**(b+1)] = m[:2**b] + p[b]``, in order
    from 0.0 as numpy's pairwise sum adds below 8 elements; all n are ``np.sum``'s own."""
    masses = np.zeros(2**probs.size)
    for b, p in enumerate(probs.tolist()):
        masses[1 << b : 2 << b] = masses[: 1 << b] + p
    masses[-1] = probs.sum()  # at n = 8, in pairwise order
    return masses[1:]


def _kernel_plan(widths: np.ndarray, masses=None, ids=None) -> tuple:
    """A :class:`_VectorValues` plan, built here only: the function that makes the
    masses from ``probs`` (None: the draws are the masses), ``widths``, each vector's first
    mass and the totals' plan, a matrix of mass ids per width.  Vector v reads the next
    ``widths[v]`` masses, or with ``ids`` (every vector's mass ids, end to end) those ids,
    which vectors may share (the lattice's subsets, the basic probe's masses): no first mass."""
    starts = _starts(widths)
    return masses, widths, None if ids is not None else starts, _sum_plan(starts, widths, ids)


class _VectorValues:
    """Evaluate phase: the entropy of every coarse-grained vector of a batch.

    ``plan`` is a :func:`_kernel_plan`: vector ``v`` is ``widths[v]`` masses,
    the draws ``probs`` themselves or their sums by the plan (each vector's
    blocks, or the 2**n - 1 subsets the lattice's vectors share, so phi runs
    once per subset, not per block), evaluated under ``specs[spec_index[v]]``
    (``specs[0]`` without ``spec_index``); the vectors must be grouped by
    ascending spec index.  ``numbers[v]`` is its entropy as a float64, or NaN
    where ``failures[v]`` holds the exception: the ``GentropyError`` that
    ``evaluate`` would raise on it, or what escapes ``evaluate`` (from h, or
    from phi when a batched phi raises and phi is retried on each vector
    alone).  ``totals[v]`` is its component sum, 0.0 where phi was not reached.

    Input contract: each draw is a vector ``FiniteDistribution`` accepts,
    and each vector's blocks the canonical blocks of a partition of its indices.
    The kernel does not check either; its callers are the private draw
    phases of this module and of ``axioms``, which hand it validated
    ``FiniteDistribution.probs``, sampler draws and canonical blocks.
    """

    def __init__(
        self,
        specs: Sequence[EntropySpec],
        probs: np.ndarray,
        plan: tuple,
        spec_index: np.ndarray | None = None,
    ):
        coarse, widths, starts, sums = plan
        masses = probs if coarse is None else coarse(probs)
        spec_index = np.zeros(len(widths), np.intp) if spec_index is None else spec_index
        self._vectors, self.failures = (specs, spec_index, masses, widths, sums), {}
        bounds = np.searchsorted(spec_index, np.arange(len(specs) + 1))
        rejected, self.totals = self._phi_totals(bounds, starts)
        self.numbers = np.full(len(widths), math.nan)
        for s, spec in enumerate(specs):
            kept = bounds[s] + np.flatnonzero(~rejected[bounds[s] : bounds[s + 1]])
            self.numbers[kept], failed = _map_points(spec, "h", self.totals[kept])
            self.failures.update((int(kept[i]), failure) for i, failure in failed.items())

    def first_failure(self, group: int = 1, strict: bool | np.ndarray = False) -> int | None:
        """The first vector, in vector order, whose failure a per-case loop lets escape,
        or None.  A vector fails when its error is not a ``GentropyError``, or on any
        error where ``strict`` (a bool, or one per vector) is true.  Vectors come in groups
        of ``group``; the first of each gates the rest, which fail only if it is a float."""
        failing = {v for v, error in self.failures.items() if not isinstance(error, GentropyError)}
        failing.update(np.flatnonzero(strict & np.isnan(self.numbers)).tolist())
        for v in sorted(failing):
            if v % group == 0 or v - v % group not in self.failures:
                return v
        return None

    def raise_failure(self, v: int | None) -> None:
        """Raise the error recorded for vector ``v`` (none for None)."""
        if v is not None:
            raise self.failures[v]

    def _masses(self, v: int) -> np.ndarray:
        """Vector ``v``'s masses in block order: its row of its width's matrix."""
        _, _, masses, widths, (_, groups) = self._vectors
        rows, ids = next(group for group in groups if group[1].shape[1] == widths[v])
        return masses[ids[np.searchsorted(rows, v)]]

    @np.errstate(all="ignore")  # a sum past the float range is not finite: h's to refuse
    def _phi_totals(self, bounds: np.ndarray, starts: np.ndarray | None) -> tuple:
        """Which vectors phi did not reach, and each vector's component sum: phi
        runs once per functional on the masses its kept vectors read (from
        ``starts``, its vectors' segment; without, every mass), and a width's
        totals are one gather of those values and a ``sum(axis=1)``.

        A vector that ``evaluate`` would reject before calling phi is rejected
        with its error in ``failures``.  When a functional's batched phi
        raises, phi runs once on each of its vectors alone, and a vector on
        which it fails is rejected with its outcome (see :func:`_outcome`).
        """
        specs, _, masses, widths, (count, groups) = self._vectors
        zero, has_zero = masses == 0.0, np.zeros(count, dtype=bool)
        flagged = zero.any() and not all(spec.functional.zero_safe for spec in specs)
        for rows, ids in groups if flagged else ():  # _admit reads the flag only then
            has_zero[rows] = zero[ids].any(axis=1)
        rejected = np.zeros(count, dtype=bool)
        phis, alone = np.zeros_like(masses), {}  # alone: phi's outcome on a vector alone
        for s, spec in enumerate(specs):
            lo, hi = bounds[s], bounds[s + 1]
            if lo == hi:
                continue
            admission = 2 * widths[lo:hi] + has_zero[lo:hi]  # each (width, has_zero) once
            for code in np.flatnonzero(np.bincount(admission)).tolist():
                error = _outcome(_admit, spec, code // 2, code % 2 == 1)
                if error is not None:
                    hit = lo + np.flatnonzero(admission == code)
                    rejected[hit] = True
                    self.failures.update(dict.fromkeys(hit.tolist(), error))
            if starts is None:  # one functional, by mass id: the masses its kept vectors read
                used = np.zeros(masses.size, dtype=bool) if rejected.any() else slice(None)
                for rows, ids in groups if rejected.any() else ():
                    used[ids[~rejected[rows]]] = True
            elif rejected[lo:hi].any():  # its kept vectors' own masses
                used = starts[lo] + np.flatnonzero(np.repeat(~rejected[lo:hi], widths[lo:hi]))
            else:  # its vectors' own masses, laid end to end
                used = slice(starts[lo], starts[hi - 1] + widths[hi - 1])
            try:
                phis[used] = spec.functional.phi(masses[used])
            except Exception:  # each vector's own outcome, as evaluate meets it
                for v in (lo + np.flatnonzero(~rejected[lo:hi])).tolist():
                    outcome = _outcome(spec.functional.phi, self._masses(v))
                    if isinstance(outcome, Exception):
                        rejected[v], self.failures[v] = True, outcome
                    else:
                        alone[v] = outcome
        totals = _segment_sums(phis, (count, groups))
        for v, outcome in alone.items():  # as a batch holds it, summed
            totals[v] = np.broadcast_to(np.asarray(outcome, dtype=float), widths[v]).sum()
        totals[rejected] = 0.0
        return rejected, totals


# ---------------------------------------------------------------------------
# Exhaustive small-n oracle
# ---------------------------------------------------------------------------

def _partition_values(
    spec: EntropySpec, dist: FiniteDistribution
) -> tuple[_PartitionWalk, tuple, np.ndarray, dict]:
    """The blocks of every partition of ``dist.n``, the lattice's rows at n and a value table.

    The blocks wait in a :class:`_PartitionWalk`, walked when first read.  The rows (each
    entry's finer and coarser partition index and kind, then the corollary's: those of the
    entries against the identity, and its blocks) and the kernel's plan are built once per n
    from ``partitions._label_rows`` and kept read-only.  Its masses are the subsets'
    (:func:`_subset_masses`); a width's totals matrix holds its partitions' subset ids.
    The table, as ``_checked`` takes it, holds ``dist`` aggregated by each partition but
    the identity, the last: the callers evaluate and append it.  The last table whose
    kernel raised nothing is kept read-only with its walk, its spec and functional (held,
    compared by ``is``) and the bytes of ``dist.probs``; a call matching all three gets them
    with no kernel, and every call its own failure dict, so a walk runs at most once per
    kept table.
    """
    global _KEPT_TABLE
    n = dist.n
    if n not in _LATTICE_SHAPES:
        (_, masks, k), (finer, coarser, kind) = _label_rows(n), _lattice_rows(n)
        blocks = masks[:-1][masks[:-1] > 0].astype(np.intp) - 1
        plan = _kernel_plan(k[:-1], _subset_masses, blocks)  # the identity is last
        vs = np.flatnonzero(kind)  # the rows against the identity, the corollary's
        corollary = *map(_freeze, (finer[vs], coarser[vs], kind[vs])), Partition.identity(n).blocks
        _LATTICE_SHAPES[n] = plan, (*map(_freeze, (finer, coarser, kind)), corollary)
    plan, rows = _LATTICE_SHAPES[n]
    key, kept = (spec, spec.functional, dist.probs.tobytes()), _KEPT_TABLE
    if any(map(is_not, key[:2], kept)) or key[2] != kept[2]:
        values = _VectorValues([spec], dist.probs, plan)
        values.raise_failure(values.first_failure())
        values.numbers.flags.writeable = False
        kept = _KEPT_TABLE = *key, _PartitionWalk(n), values.numbers, values.failures
    *_, walk, numbers, failures = kept
    return walk, rows, numbers, dict(failures)


class _PartitionWalk:
    """The blocks of every partition of n, in enumeration order, read as an object array's rows:
    one ``enumerate_partitions`` call at the first read, kept read-only (copies wait apart)."""

    __slots__ = ("n", "blocks")
    dtype = np.dtype(object)  # as ``_Lazy.take`` reads a source

    def __init__(self, n: int):
        self.n, self.blocks = n, None

    def __getitem__(self, at) -> np.ndarray:
        if self.blocks is None:
            walk = map(attrgetter("blocks"), enumerate_partitions(self.n))
            self.blocks = np.fromiter(walk, object)
            self.blocks.flags.writeable = False
        return self.blocks[at]


_LATTICE_SHAPES: dict[int, tuple] = {}  # n -> (subset kernel plan, lattice rows), once per n
_LATTICE_KINDS = np.array(["covering_edge", "total_merge", "vs_identity"], dtype=object)
_KEPT_TABLE: tuple = (None,) * 6  # spec, functional, probs bytes, partition walk, numbers, failures


def _lattice_rows(n: int) -> tuple[np.ndarray, ...]:
    """Each lattice entry's finer and coarser partition index and kind (an index
    of ``_LATTICE_KINDS``), all intp, which ``_checked`` gathers by with no cast.
    A partition's code reads its label row (``partitions._label_rows``) as a
    mixed-radix number, state x weighing n!/(x+1)! (its label is at most x), so
    the codes are below n! and a dense table maps each to its partition.  Entries
    come partition by partition: the merges of its blocks i < j, in lexicographic
    order, then (but for the identity, last) the partition against the identity.
    A merge relabels j as i and lowers each label above j by one, to the code
    ``code - (j - i) * W_j - sum(W_L for L > j)``, W_L block L's states' weight.
    """
    labels, masks, k = _label_rows(n)
    weight = math.factorial(n) // np.cumprod(np.arange(1, n + 1))
    weights = ((np.arange(2**n)[:, None] >> np.arange(n) & 1) @ weight)[masks]  # W_L by mask
    above = weight.sum() - np.cumsum(weights, axis=1)  # every state is in one block
    count, codes, table = k.size, labels @ weight, np.empty(math.factorial(n), dtype=np.intp)
    table[codes] = np.arange(count)
    identity, edges = count - 1, k * (k - 1) // 2
    rows = edges + (np.arange(count) < identity)
    first, finer = _starts(rows), np.repeat(np.arange(count), rows)
    kind, coarser, pairs = np.zeros_like(finer), np.empty_like(finer), np.triu_indices(n, 1)
    for size in range(2, n + 1):  # the merges of that many blocks: the pairs with j < size
        parts, (i, j) = np.flatnonzero(k == size)[:, None], (a[pairs[1] < size] for a in pairs)
        merged = codes[parts] - (j - i) * weights[parts, j] - above[parts, j]
        coarser[first[parts] + np.arange(i.size)] = table[merged]
    vs_identity = (first + edges)[:identity]
    finer[vs_identity], coarser[vs_identity] = identity, np.arange(identity)
    kind[vs_identity] = np.where(k[:identity] == 1, 1, 2)
    return finer, coarser, kind


def exhaustive_lattice_check(
    spec: EntropySpec,
    dist: FiniteDistribution,
    tolerance: float = MARGIN_TOLERANCE,
) -> VerificationReport:
    """Walk every covering edge of the full partition order (n <= 8).

    For every partition A and every merge of two of its blocks into B this checks
    H(P^B) <= H(P^A); every non-identity partition is also compared against the identity
    (no aggregation at all).  The minimum margin over all edges is reported in the
    metadata, beside the partition count (from the kept label rows).  The entries'
    blocks are walked (``enumerate_partitions``) only when first read: ``passed``,
    ``summary``, ``metadata`` and ``len`` of the entries walk nothing.
    """
    n = _lattice_n(dist, tolerance)
    walk, (finer, coarser, kind, _), numbers, failures = _partition_values(spec, dist)
    identity = _outcome(evaluate, spec, dist)  # last, as in the walk
    if isinstance(identity, GentropyError):
        failures[numbers.size], identity = identity, math.nan
    elif isinstance(identity, Exception):
        raise identity
    entries = _checked(
        tolerance, np.append(numbers, identity), failures, finer, coarser,
        {"spec": spec.label(), "n": n},
        kind=_Lazy(_LATTICE_KINDS, kind),
        index=range(kind.size),
        blocks_finer=_Lazy(walk, finer),
        blocks_coarser=_Lazy(walk, coarser),
    )
    metadata = {"partitions": _label_rows(n)[2].size, "probs": dist.probs.tolist()}
    report = _finish(f"lattice-n{n}", None, tolerance, entries, metadata)
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
    kind rather than silently folded in.  The entries are the lattice's
    rows against the identity, in the same order and with the same kinds.
    """
    n = _lattice_n(dist, tolerance)
    base = evaluate(spec, dist)  # before the partitions, as partition by partition
    walk, (*_, (finer, coarser, kind, identity)), numbers, failures = _partition_values(spec, dist)
    entries = _checked(
        tolerance, np.append(numbers, base), failures, finer, coarser,
        {"spec": spec.label(), "n": n, "blocks_finer": identity},
        kind=_Lazy(_LATTICE_KINDS, kind),
        index=range(kind.size),
        blocks_coarser=_Lazy(walk, coarser),
    )
    metadata = {"probs": dist.probs.tolist(), "base_value": base}
    return _finish(f"corollary-n{n}", None, tolerance, entries, metadata)


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
    _tolerance(tolerance)
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
    return _finish("counterexample", None, tolerance, entries, {"violations_expected": True})


def max_entropy_check(
    spec: EntropySpec,
    n_values: Iterable[int],
    samples: int,
    rng_seed: int,
    tolerance: float = MARGIN_TOLERANCE,
) -> VerificationReport:
    """Check H(uniform) >= H(P) for sampled P at each dimension.

    Each n is one cell of the campaign's row layout, seeded with
    ``SeedSequence([rng_seed, n])``.  Every n draws its samples: a violation,
    such as ``counterexample_HE``'s at n = 4, is one the draws meet.  No
    sample, or no n, is a ``ValidationError``: a report would pass unchecked.
    """
    samples, rng_seed = _integer("samples", samples, minimum=1), _integer("rng_seed", rng_seed)
    n_list = sorted({_integer("n", n, minimum=1) for n in n_values})
    if not n_list:
        raise ValidationError("'n_values' names no dimension")
    _tolerance(tolerance)
    floor = 0.0 if spec.functional.zero_safe else _INTERIOR_FLOOR
    drawn = [p for _, p, _ in _draws([([rng_seed, n], n, 0, samples, floor) for n in n_list])]
    # each n's uniform distribution, then its samples, which it gates
    laid = [x for n, p in zip(n_list, drawn) for x in (np.full(n, 1.0 / n), p.ravel())]
    widths = np.repeat(np.array(n_list, dtype=np.intp), samples + 1)
    values = _VectorValues([spec], np.concatenate(laid or [np.empty(0)]), _kernel_plan(widths))
    values.raise_failure(values.first_failure(samples + 1))
    tops = (samples + 1) * np.arange(len(n_list))
    sampled = ~np.isnan(values.numbers[tops])
    counts = np.where(sampled, samples, 1)
    finer_rows = np.repeat(tops, counts)
    index = np.arange(finer_rows.size) - np.repeat(_starts(counts), counts)
    coarser_rows = finer_rows + np.where(np.repeat(sampled, counts), index + 1, 0)
    entries = _checked(
        tolerance, values.numbers, values.failures, finer_rows, coarser_rows,
        {"kind": "max_entropy", "spec": spec.label()},
        n=np.repeat(n_list, counts).tolist(),
        index=index.tolist(),
        probs=list(chain.from_iterable(
            map(tuple, p.tolist()) if s else [None] for p, s in zip(drawn, sampled.tolist())
        )),
    )
    metadata = {"n_values": n_list, "samples": samples, "sampler": SAMPLER}
    return _finish("max-entropy", rng_seed, tolerance, entries, metadata)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

# Every indent-2 JSON is ``errors._json_text``'s, ``json.dumps``' own layout.  A report's
# entries, nearly all of its bytes, reach :func:`_json_document` from :func:`_json_entries`:
# a chunk at a time, a row shape at a time, each field's values encoded at once into ``%``
# templates cut from that layout of zeros (no key holds a digit).

_CHUNK = 1024  # entries encoded together; only one chunk's field texts are alive
_MARKDOWN_ROWS = 200  # flagged entries a markdown report lists


def _scalar_text(value) -> str:
    """One value as :func:`_json_text` writes it; a tuple, list or dict is refused
    as ``json.dumps`` refuses a set, not written as an array or object."""
    if isinstance(value, (tuple, list, dict)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return _json_text(value)


@lru_cache(maxsize=4096)
def _template(shape: int | tuple[int, ...], level: int = 3) -> str:
    """An array at ``level`` with a ``%s`` per element: of ``shape`` elements,
    or of blocks of the sizes in ``shape``."""
    zeros = [0] * shape if isinstance(shape, int) else [[0] * k for k in shape]
    return _json_text(zeros, 2).replace("\n", "\n" + "  " * level).replace("0", "%s")


def _scalar_texts(column: Sequence, memo: dict) -> Sequence:
    """The values as ``%s`` formats them to read as :func:`_scalar_text` writes
    them: ints and finite floats as they are, and a column of one other type
    (not a float subclass: ``0.0 == -0.0``) encoded once per distinct value."""
    kinds = set(map(type, column))
    if kinds == {int} or kinds == {float} and math.isfinite(sum(column)):
        return column
    if len(kinds) == 1 and not isinstance(column[0], float):
        texts = {value: _scalar_text(value) for value in dict.fromkeys(column)}
        return list(map(texts.__getitem__, column))
    return list(map(_scalar_text, column))


def _blocks_texts(column: Sequence, memo: dict) -> list[str]:
    """Each blocks tuple's array, from the template of its block sizes; each
    distinct tuple is written once a report.

    Equal values share a text only while every element is an int: ``(0, 1)``
    and ``(0.0, 1.0)`` are equal, not written alike, so other chunks skip the memo.
    """
    ints = set(map(type, chain.from_iterable(chain.from_iterable(column)))) <= {int}
    fresh = [blocks for blocks in dict.fromkeys(column) if blocks not in memo] if ints else column
    templates = map(_template, map(tuple, map(map, repeat(len), fresh)))
    elements = map(tuple, map(chain.from_iterable, fresh))
    if not ints:
        return list(map(str.__mod__, templates, (tuple(map(_scalar_text, e)) for e in elements)))
    memo.update(zip(fresh, map(str.__mod__, templates, elements)))
    return list(map(memo.__getitem__, column))


def _probs_texts(column: Sequence, memo: dict) -> list[str]:
    """Each probs array, from the template of its length; tuples of finite
    floats are formatted as they are."""
    templates = map(_template, map(len, column))
    floats = set(map(type, chain.from_iterable(column))) <= {float}
    if floats and set(map(type, column)) == {tuple} and math.isfinite(sum(chain(*column))):
        return list(map(str.__mod__, templates, column))
    return list(map(str.__mod__, templates, (tuple(map(_scalar_text, p)) for p in column)))


def _as_is(value, memo=None):  # a decoder, and the encoder of texts made beforehand
    return value


def _tuples(blocks) -> tuple[tuple, ...]:
    return tuple(map(tuple, blocks))


def _listed(value):
    """``value`` with every tuple in it, nested ones too, made a list."""
    return [_listed(item) for item in value] if isinstance(value, tuple) else value


# The entry schema: every CaseRecord field in sorted-key order, as (name,
# column encoder, written even if None, decoder of its JSON value).  A column
# encoder takes a chunk of the field's column and the report's memo, and gives
# each row's text; a None row's text is never written.
_ENTRY_FIELDS = (
    ("blocks_coarser", _blocks_texts, False, _tuples),
    ("blocks_finer", _blocks_texts, False, _tuples),
    ("index", _scalar_texts, True, _as_is),
    ("kind", _scalar_texts, True, _as_is),
    ("margin", _scalar_texts, False, _as_is),
    ("n", _scalar_texts, True, _as_is),
    ("note", _scalar_texts, False, _as_is),
    ("passed", _scalar_texts, True, _as_is),
    ("probs", _probs_texts, False, tuple),
    ("skipped", _scalar_texts, False, _as_is),
    ("spec", _scalar_texts, True, _as_is),
    ("value_coarser", _scalar_texts, False, _as_is),
    ("value_finer", _scalar_texts, False, _as_is),
)


_ENTRY_NAMES = tuple(name for name, *_ in _ENTRY_FIELDS)
_entry_row = attrgetter(*_ENTRY_NAMES)  # a record's fields in that order


def _entry_dict(row: tuple) -> dict:
    fields = zip(_ENTRY_FIELDS, row)
    return {name: _listed(v) for (name, _, always, _), v in fields if always or v is not None}


@lru_cache(maxsize=None)  # one per set of written fields
def _row_shape(written: int) -> tuple[str, tuple[int, ...]]:
    """The fields whose bits are set in ``written``, and the text of an entry
    at level 2 writing them with a ``%s`` per field value."""
    fields = tuple(f for f in range(len(_ENTRY_NAMES)) if written >> f & 1)
    zeros = dict.fromkeys(map(_ENTRY_NAMES.__getitem__, fields), 0)
    return _json_text(zeros, 2).replace("\n", "\n    ").replace("0", "%s"), fields


def _json_entries(entries: _Entries) -> Iterable[str]:
    """The text of each chunk of entries, as ``json.dumps`` writes them at level 2.

    A chunk's rows are grouped by the set of fields each writes, and a group
    is formatted by one ``%`` template, each field's values encoded at once;
    a label-row column is written whole first.  The memo of block texts lasts
    the whole report.
    """
    memo = {}  # blocks texts, by blocks tuple or by label row bytes
    made = {name for name in _ENTRY_NAMES if type(entries._columns.get(name)) is _LabelRows}
    columns = [entries._columns[name].texts(memo) if name in made else entries.column(name)
               for name in _ENTRY_NAMES]
    encoders = [_as_is if name in made else encode for name, encode, *_ in _ENTRY_FIELDS]
    for start in range(0, len(entries), _CHUNK):
        chunk = [column[start : start + _CHUNK] for column in columns]
        count = len(chunk[0])
        written = np.zeros(count, np.intp)  # bit f is set where field f is written
        for f, ((_, _, always, _), column) in enumerate(zip(_ENTRY_FIELDS, chunk)):
            absent = 0 if always else column.count(None)
            if not absent:
                written |= 1 << f
            elif absent < count:
                written |= np.fromiter(map(is_not, column, repeat(None)), bool, count) << f
        rows = np.empty(count, dtype=object)
        for code in np.flatnonzero(np.bincount(written)).tolist():
            template, fields = _row_shape(code)
            at = np.flatnonzero(written == code)
            picked = [chunk[f] for f in fields]
            if at.size < count:
                picked = [list(map(column.__getitem__, at.tolist())) for column in picked]
            texts = [encoders[f](values, memo) for f, values in zip(fields, picked)]
            rows[at] = list(map(template.__mod__, zip(*texts)))
        yield ",\n    ".join(rows.tolist())


def emit_report(report: VerificationReport, format: str = "json") -> bytes:
    """Serialize a report deterministically (identical reports, identical bytes).

    Formats: ``json`` (lossless, schema-versioned, strict: a non-finite
    number raises :class:`NonFinite`), ``markdown`` (human review; it lists
    at most 200 flagged entries, failing or one-sided ones (a finer value and no
    coarser one), and says how many it leaves out), ``csv``
    (spec, n, case, margin rows for plotting, quoted as ``csv.writer`` does).
    """
    if format == "json":
        chunks = _json_entries(report.entries) if report.entries else ()
        return "".join(_json_document(report._header(), "entries", chunks)).encode("utf-8")
    entries = report.entries
    if format == "csv":
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(("spec", "n", "case", "margin"))
        rows = zip(*map(entries.column, ("spec", "n", "index", "margin")))
        writer.writerows((s, n, i, repr(m)) for s, n, i, m in rows if m is not None)
        return text.getvalue().encode("utf-8")
    if format == "markdown":
        lines = [
            f"# Campaign `{report.campaign_id}`",
            "",
            f"- seed: {report.seed!r}",
            f"- tolerance: {report.tolerance!r}",
            f"- entries: {len(entries)}",
            f"- violations: {int(entries.violation.sum())}",
            "",
            "| spec | cases | violations | skipped | min margin |",
            "| --- | --- | --- | --- | --- |",
        ]
        cell = lambda value: "" if value is None else repr(value)
        lines += [f"| {s.spec} | {s.cases} | {s.violations} | {s.skipped} | {cell(s.min_margin)} |"
                  for s in report.summary]
        names = "passed kind spec n index value_finer value_coarser margin note".split()
        # failing rows, and one-sided ones: a finer value and no coarser one
        flagged = [row for row in zip(*map(entries.column, names))
                   if not row[0] or row[5] is not None and row[6] is None]
        if flagged:
            lines += [
                "",
                "| kind | spec | n | case | value (finer) | value (coarser) | margin | note |",
                "| --- | --- | --- | --- | --- | --- | --- | --- |",
            ]
            for _, kind, spec, n, index, *values, note in flagged[:_MARKDOWN_ROWS]:
                values = " | ".join(map(cell, values))
                lines.append(f"| {kind} | {spec} | {n} | {index} | {values} | {note or ''} |")
            if len(flagged) > _MARKDOWN_ROWS:
                hidden = len(flagged) - _MARKDOWN_ROWS
                lines += ["", f"{hidden} of {len(flagged)} flagged entries not shown."]
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise UnsupportedFormat(f"unknown report format {format!r}")


def report_from_json(data: bytes | str) -> VerificationReport:
    """Rebuild a report from its JSON emission (lossless round-trip).  Input that is
    not such an emission is a ``ValidationError``, chained from what refused it."""
    try:
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
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ValidationError(f"not a report's JSON: {type(exc).__name__}: {exc}") from exc
