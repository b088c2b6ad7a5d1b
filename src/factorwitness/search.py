"""Exhaustive range verification with checkpointing and worker pools.

An even n evaluates the instances k = 1 .. i*, where i* = i*(n), its
first prime hit, is the least index with n - p_i prime: every nonvacuous
instance plus the one vacuous instance that makes every larger k vacuous.
Each span of consecutive even n is swept in two phases.

Phase 1, the first-hit scan (_first_hits), reads primality only and
returns i* per row.  Its head advances every row in lockstep over the
first odd primes, each step two ufuncs over a slice of one contiguous
window of odd cells, until few rows are alive; its tail gathers the
survivors' cells several primes at a time.  decompose_range reads the
deepest hit and the rows that never hit from the same array.

Phase 2 classifies each row from i* and f1 = lpf(n - 3), which for
consecutive even n is a stride-2 slice of the table, read in place.

  Easy rows.  If i* == 1 or f1 > p_{i*-1}, every k < i* is a strict
  witness with first witness index 1, since lpf(n - p_1) = f1 > p_{i*-1}
  >= p_k.  One lookup decides it: f1 >= bar[i*], where bar[1] = 0 and
  bar[s] = p_{s-1} + 1, a uint32 table as long as the span's deepest
  scan.  Such a row adds i* - 1 strict instances to histogram key 1
  and one vacuous instance, and the easy rows' extremes are (1, n0, 1)
  and (1, 1, n0, 1) for the least easy n0 with i* >= 2.

  Hard rows, the rest (9,519 of the 4,999,998 rows of [6, 10^7]), take one
  matrix pass: F_j = lpf(n - p_j) for j < i*, the running max
  M = cummax(F) classifies (n, k) by M_k against p_k (strict, equal or
  counterexample candidate), and the first witness index, the least j
  with F_j >= p_k, is the least j with M_j >= p_k, found by one
  searchsorted over the rows' M laid end to end.

A row with a hit holds no unit anomaly: n - p_{i*} is an odd prime, so
p_{i*} <= n - 3 < n - 1.  Only a row whose scan runs out of odd primes
below n without a hit, which takes a doctored table, can hit n - p_i = 1
(at its last instance); such a row takes the matrix over its instances.
A unit needs n = p_i + 1 for some i up to the span's deepest scan, so
the vectorised unit check runs on the rows with n <= p_deepest + 1
only, exactly those that can hold one (on an honest table only n up to
1,094, as no first hit up to 10^8 lies past p_182 = 1,093).  It covers
hit rows too, so a table that calls 1 prime breaks the outcome count
instead of passing unseen.  Two engine invariants are checked on every
span: the first witness indices agree with the classifier, and the
outcomes add up to the instances.

Work is split into spans of max(checkpoint_interval, DEFAULT_BLOCK_EVENS)
evens, the one unit of work: one task, serial or pooled, runs both phases
once over a span and yields a RangeSummary of its range, and spans are
merged (merge_summaries) strictly in ascending order whatever the worker
count, so summaries and their digests are worker-count independent.  The
checkpoint is saved after every merged span and holds the summary of the
covered prefix [n_min, x], so a resume restarts at x + 2 with any block
size or worker count, and a requested stop or a fail-fast error leaves
the prefix through the span it stopped on.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .conjecture import (
    EdgeCaseRecord,
    Family,
    classify_equality,
    equality_family,
    make_instance,
)
from .errors import (
    AnomalyFoundError,
    CheckpointMismatchError,
    ConfigurationError,
    CounterexampleFoundError,
    CoverageError,
    EngineError,
    PreconditionError,
    ReportFormatError,
    SweepInterrupted,
)
from .sieve import PrimeTable

DEFAULT_BLOCK_EVENS = 100_000
CHECKPOINT_VERSION = 3


@dataclass(frozen=True)
class RangeJob:
    """Parameters of one verification sweep over even n in [n_min, n_max]."""

    n_min: int
    n_max: int
    table_limit: int
    workers: int = 1
    # Even values per block: the unit of stop_after_blocks, and the least
    # span when it exceeds DEFAULT_BLOCK_EVENS.
    checkpoint_interval: int = DEFAULT_BLOCK_EVENS

    def __post_init__(self):
        if self.n_min % 2 or self.n_max % 2:
            raise ConfigurationError(
                f"range endpoints must be even, got [{self.n_min}, {self.n_max}]"
            )
        if self.n_min < 6:
            raise ConfigurationError(f"n_min must be >= 6, got {self.n_min}")
        if self.n_max < self.n_min:
            raise ConfigurationError(
                f"empty range: n_max {self.n_max} < n_min {self.n_min}"
            )
        if self.table_limit < self.n_max:
            raise ConfigurationError(
                f"table_limit {self.table_limit} cannot cover n_max {self.n_max}"
            )
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.checkpoint_interval < 1:
            raise ConfigurationError(
                f"checkpoint_interval must be >= 1, got {self.checkpoint_interval}"
            )

    def identity(self) -> dict:
        """Fields that must match for a checkpoint to be resumable.

        A checkpoint holds the summary of a prefix of the range, which no
        other field changes: merging is ordered, so a resume may change
        the worker count and the block size.
        """
        return {"n_min": self.n_min, "n_max": self.n_max}


@dataclass(frozen=True)
class RangeSummary:
    """Aggregated outcome of a sweep.

    Extremes: max_first_witness_index is (value, n, k) and
    max_witness_ratio is (fwi, k, n, k) holding the exact fraction fwi/k;
    ties prefer the lexicographically least (n, k).  The histogram maps
    each first witness index, exactly, to its count.  elapsed_seconds and
    evens_per_second are measurements, not results; canonical
    serialization drops them.
    """

    n_min: int
    n_max: int
    instances_evaluated: int
    vacuous_count: int
    strict_count: int
    equal_count: int
    counterexamples: tuple[tuple[int, int], ...]
    anomalies: tuple[tuple[int, int], ...]
    equality_cases: tuple[EdgeCaseRecord, ...]
    witness_index_histogram: dict[int, int]
    max_first_witness_index: tuple[int, int, int] | None
    max_witness_ratio: tuple[int, int, int, int] | None
    elapsed_seconds: float
    evens_per_second: float

    @property
    def counterexample_count(self) -> int:
        return len(self.counterexamples)

    @property
    def anomaly_count(self) -> int:
        return len(self.anomalies)

    @property
    def equality_count(self) -> int:
        return len(self.equality_cases)

    @property
    def clean(self) -> bool:
        return not self.counterexamples and not self.anomalies


@dataclass(frozen=True)
class WitnessStats:
    """Distribution of first witness indices over witnessed instances."""

    n_max: int
    witnessed_count: int
    histogram: dict[int, int]
    max_first_witness_index: tuple[int, int, int] | None
    max_witness_ratio: tuple[int, int, int, int] | None


@dataclass(frozen=True)
class DecompositionSweep:
    """Result of decomposing every even n in a range into two primes."""

    n_min: int
    n_max: int
    count: int
    failures: tuple[int, ...]
    max_scan: tuple[int, int] | None  # (deepest first-hit index, least such n)


# ---------------------------------------------------------------------------
# record schema
# ---------------------------------------------------------------------------

# The fields of each record kind after its "record" key, in emission
# order.  An equality case, a summary and witness stats take each field
# from the attribute of that name.  A CSV header is "record" plus the
# fields of the kinds it can hold, in this table's order.
TIMING_FIELDS = ("elapsed_seconds", "evens_per_second")  # optional
RECORD_FIELDS = {
    "counterexample": ("n", "k"),
    "anomaly": ("n", "i"),
    "equality_case": ("n", "k", "factors", "family", "r"),
    "summary": (
        "n_min", "n_max", "instances_evaluated", "vacuous_count", "strict_count",
        "equal_count", "counterexample_count", "anomaly_count", "equality_count",
        "witness_index_histogram", "max_first_witness_index", "max_witness_ratio",
        *TIMING_FIELDS,
    ),
    "witness_stats": (
        "n_max", "witnessed_count", "histogram", "max_first_witness_index",
        "max_witness_ratio",
    ),
}
SUMMARY_KINDS = ("equality_case", "anomaly", "counterexample", "summary")
PARTIAL_MARKER = "partial_output"


def _plain(value):
    """A field value as JSON data.

    Tuples become lists, maps get sorted string keys, enums their value.
    """
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return {str(key): c for key, c in sorted(value.items())}
    if isinstance(value, Enum):
        return value.value
    return value


def to_record(kind: str, source) -> dict:
    """The kind record of source, reading each field as an attribute."""
    return {
        "record": kind,
        **{name: _plain(getattr(source, name)) for name in RECORD_FIELDS[kind]},
    }


def summary_to_records(summary: RangeSummary, include_timing: bool = True) -> list[dict]:
    """Flatten a summary into its canonical record list (summary last).

    This is the only serialized form of a summary: record streams in
    either format, digests, manifests and checkpoints are all built from it.
    """
    records = [to_record("equality_case", rec) for rec in summary.equality_cases]
    for kind, pairs in (
        ("anomaly", summary.anomalies),
        ("counterexample", summary.counterexamples),
    ):
        records += [{"record": kind, **dict(zip(RECORD_FIELDS[kind], pair))} for pair in pairs]
    tail = to_record("summary", summary)
    if not include_timing:
        for name in TIMING_FIELDS:
            del tail[name]
    return records + [tail]


def summary_from_records(records: list) -> RangeSummary:
    """Rebuild the summary of a record list; the inverse of summary_to_records.

    Refuses, with ReportFormatError, a list holding the partial-output
    marker, one without a single summary record at its end, unknown kinds
    or fields, counts that disagree with the records or with each other,
    an equality case whose family tag its (n, k) contradicts, and
    malformed values.
    """
    try:
        return _summary_from_records(records)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ReportFormatError(f"malformed record: {exc!r}") from exc


def _int(value) -> int:
    """value itself if it is an int; a float, string or bool is refused."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _summary_from_records(records: list) -> RangeSummary:
    for rec in records:
        if not isinstance(rec, dict):
            raise ReportFormatError(f"record is not an object: {rec!r}")
        kind = rec.get("record")
        if kind == PARTIAL_MARKER:
            raise ReportFormatError("stream is marked partial; rerun the sweep")
        if kind not in SUMMARY_KINDS:
            raise ReportFormatError(f"unknown record type: {kind!r}")
        extra = rec.keys() - {"record", *RECORD_FIELDS[kind]}
        if extra:
            raise ReportFormatError(f"{kind} record has unknown fields {sorted(extra)}")
    if not records or records[-1]["record"] != "summary":
        raise ReportFormatError("incomplete stream: summary record missing or not last")
    *body, tail = records
    equality, anomalies, cex = [], [], []
    for rec in body:
        kind = rec["record"]
        if kind == "equality_case":
            case = EdgeCaseRecord(
                n=_int(rec["n"]),
                k=_int(rec["k"]),
                factors=tuple(_int(f) for f in rec["factors"]),
                family=Family(rec["family"]),
                r=None if rec["r"] is None else _int(rec["r"]),
            )
            family, r = equality_family(case.n, case.k)
            if (case.family, case.r) != (family, r):
                raise ReportFormatError(
                    f"equality case ({case.n}, {case.k}) is tagged "
                    f"{case.family.value} with r={case.r}, not {family.value} with r={r}"
                )
            equality.append(case)
        elif kind == "anomaly":
            anomalies.append((_int(rec["n"]), _int(rec["i"])))
        elif kind == "counterexample":
            cex.append((_int(rec["n"]), _int(rec["k"])))
        else:
            raise ReportFormatError("multiple summary records in one stream")
    for name, have in (
        ("equality_count", len(equality)),
        ("anomaly_count", len(anomalies)),
        ("counterexample_count", len(cex)),
    ):
        if have != tail[name]:
            raise ReportFormatError(
                f"summary claims {name}={tail[name]} but stream holds {have}"
            )
    fwi = tail["max_first_witness_index"]
    ratio = tail["max_witness_ratio"]
    summary = RangeSummary(
        n_min=_int(tail["n_min"]),
        n_max=_int(tail["n_max"]),
        instances_evaluated=_int(tail["instances_evaluated"]),
        vacuous_count=_int(tail["vacuous_count"]),
        strict_count=_int(tail["strict_count"]),
        equal_count=_int(tail["equal_count"]),
        counterexamples=tuple(sorted(cex)),
        anomalies=tuple(sorted(anomalies)),
        equality_cases=tuple(sorted(equality, key=lambda r: (r.n, r.k))),
        witness_index_histogram={
            int(key): _int(c) for key, c in tail["witness_index_histogram"].items()
        },
        max_first_witness_index=None if fwi is None else tuple(_int(x) for x in fwi),
        max_witness_ratio=None if ratio is None else tuple(_int(x) for x in ratio),
        elapsed_seconds=float(tail.get("elapsed_seconds") or 0.0),
        evens_per_second=float(tail.get("evens_per_second") or 0.0),
    )
    outcomes = (
        summary.vacuous_count + summary.strict_count + summary.equal_count
        + len(cex) + len(anomalies)
    )
    if summary.instances_evaluated != outcomes:
        raise ReportFormatError(
            f"summary claims {summary.instances_evaluated} instances "
            f"but its outcomes add up to {outcomes}"
        )
    if summary.equal_count != len(equality):
        raise ReportFormatError(
            f"summary claims equal_count={summary.equal_count} "
            f"but {len(equality)} equality cases"
        )
    witnessed = summary.strict_count + summary.equal_count
    if sum(summary.witness_index_histogram.values()) != witnessed:
        raise ReportFormatError(
            f"summary histogram does not add up to its {witnessed} witnessed instances"
        )
    return summary


# ---------------------------------------------------------------------------
# span sweep
# ---------------------------------------------------------------------------


def _better_fwi(a, b):
    """Pick the larger value; ties go to the least (n, k)."""
    if a is None:
        return b
    if b is None:
        return a
    if a[0] != b[0]:
        return a if a[0] > b[0] else b
    return a if (a[1], a[2]) <= (b[1], b[2]) else b


def _better_ratio(a, b):
    """Pick the larger fraction num/den; ties go to the least (n, k)."""
    if a is None:
        return b
    if b is None:
        return a
    lhs, rhs = a[0] * b[1], b[0] * a[1]
    if lhs != rhs:
        return a if lhs > rhs else b
    return a if (a[2], a[3]) <= (b[2], b[3]) else b


# Phase 1 costs on the 2-vCPU Xeon VM of perfbench/README.md, per 10^5
# rows at n ~ 5 * 10^6: a head step, two uint8 ufuncs over contiguous
# slices, takes ~7 us whether its rows are alive or not (a step on the
# stride-2 view of primality takes ~130 us); handing the survivors to
# the tail, one flatnonzero over a bool view of alive, ~45 us (~300 us
# over the uint8 array itself); one prime of the tail, an index array, a
# gather and a compress, ~5 ns per live row (~480 us per 10^5); a tail
# chunk ~5 us per call plus ~5 ns per cell.  Phase 2 (_sweep_run) then
# takes 0.9-1.6 ms per such span: the easy-row lookup, a take from bar,
# a compare and an and, ~300 us; its other row passes, each ~20-55 us,
# about as much again; the hard rows' matrix the rest.
#
# The head spans the first HEAD_PRIMES odd primes at most, so depth fits
# in uint8 and the window overhangs the rows by (p_64 - 3) / 2 = 155
# cells.  Up to 10^8 fewer than 1 row in 800 outlives p_64 = 313, so the
# stop rule below ends the head first everywhere but at small n.
HEAD_PRIMES = 64
# A head step costs what the tail pays for about rows / 70 live rows, so
# the head runs while more than rows / HEAD_MIN_ALIVE rows are alive.
# For 10^5-row blocks near 5 * 10^7 and 10^8, stopping below 1/8, 1/32,
# 1/64, 1/128 and 1/256 of the rows took 2.10, 1.46, 1.29, 1.15 and
# 1.15 ms per block (medians of 30).  Counting the live rows costs about
# a step, so the count is taken every HEAD_CHECK_STEPS steps.
HEAD_MIN_ALIVE = 128
HEAD_CHECK_STEPS = 4
# A tail chunk of 4096 cells, ~20 us of gathering, keeps the per-call
# cost to about a fifth while few cells lie past their row's hit: chunks
# of 2048, 4096 and 8192 cells took 1.25, 1.15 and 1.19 ms per block.
TAIL_CELLS = 4096


def _first_hits(table: PrimeTable, lo: int, hi: int) -> np.ndarray:
    """Phase 1: the first prime hit of every even n in [lo, hi].

    Returns first, one int64 per row: i* for a row with a hit, and 1 - i
    for a row that ran out of odd primes below it, or of the table's,
    after evaluating i - 1 instances without a hit.
    """
    primality = table.primality
    odd = table.odd_primes
    # The head below spans only the odd primes under lo, so a span that
    # starts at or below p_64 = 313 (the first span of a sweep from small
    # n) would send most of its rows to the tail.  Its rows from 314 on,
    # which have all HEAD_PRIMES primes below them, are scanned apart.
    if odd.size >= HEAD_PRIMES and lo <= odd[HEAD_PRIMES - 1] < hi:
        split = int(odd[HEAD_PRIMES - 1]) + 1
        return np.concatenate((_first_hits(table, lo, split - 2), _first_hits(table, split, hi)))
    rows = (hi - lo) // 2 + 1
    # Head: every row advances in lockstep over the first h odd primes,
    # those below lo among the first HEAD_PRIMES.  For consecutive even n,
    # n - p is a stride-2 run of odd values, so the odd cells the head
    # reads are inverted once into a contiguous window, of which step j
    # reads the slice starting at (p_h - p_j) / 2.  depth counts the
    # steps a row survived: a row that hit at step j has depth j - 1.
    h = int(np.searchsorted(odd[:HEAD_PRIMES], lo))
    alive = np.ones(rows, dtype=np.uint8)
    depth = np.zeros(rows, dtype=np.uint8)  # steps survived, <= HEAD_PRIMES
    i = 0
    if h:
        top = int(odd[h - 1])
        composite = (~primality[lo - top : hi - 2 : 2]).view(np.uint8)
        while i < h:
            c = (top - int(odd[i])) >> 1
            np.bitwise_and(alive, composite[c : c + rows], out=alive)
            np.add(depth, alive, out=depth)
            i += 1
            if i % HEAD_CHECK_STEPS == 0 and np.count_nonzero(alive) * HEAD_MIN_ALIVE < rows:
                break
    first = depth.astype(np.int64)
    first += 1
    act = lo + 2 * np.flatnonzero(alive.view(bool))
    # Tail: the survivors take up to TAIL_CELLS cells of primes at once,
    # one 2-D gather whose argmax is each row's first hit in the chunk.
    # One prime at a time where that is a single prime, or where the
    # chunk reaches the least live n and some rows run out of primes
    # below them (only at small n).
    while act.size:
        if i == odd.size:
            first[(act - lo) >> 1] = -i
            break
        w = min(max(TAIL_CELLS // act.size, 1), odd.size - i)
        ps = odd[i : i + w]
        if w > 1 and ps[-1] < act[0]:
            cells = primality[act[:, None] - ps]
            pos = cells.argmax(axis=1)
            hit = cells[np.arange(act.size), pos]
            first[(act[hit] - lo) >> 1] = i + 1 + pos[hit]
            act = act[~hit]
            i += w
            continue
        p = int(odd[i])
        i += 1
        if p >= act[0]:
            spent = act <= p
            first[(act[spent] - lo) >> 1] = 1 - i
            act = act[~spent]
            if act.size == 0:
                break
        hit = primality[act - p]
        first[(act[hit] - lo) >> 1] = i
        # compress copies the survivors faster than act[~hit] does.
        act = np.compress(~hit, act)
    return first


# A swept span: its summary without equality cases, and their (n, k).
_Block = tuple[RangeSummary, list[tuple[int, int]]]


def _sweep_run(table: PrimeTable, lo: int, hi: int) -> _Block:
    """Evaluate every instance of every even n in the span [lo, hi].

    Runs phase 1, then phase 2, over the whole span.  Returns its
    summary, without equality cases, and the (n, k) pairs of those cases,
    which the merging process classifies.
    """
    odd = table.odd_primes
    first = _first_hits(table, lo, hi)
    steps = np.abs(first)  # instances of each row
    found = first > 0
    deepest = int(steps.max())
    # A hit row of s instances is easy exactly when lpf(n - 3) >= bar[s].
    # Row r is n = lo + 2r, so lpf(n - 3) is a stride-2 slice of the table.
    bar = np.zeros(deepest + 2, dtype=np.uint32)
    bar[2:] = odd[:deepest] + 1
    f1 = table.lpf[lo - 3 : hi - 2 : 2]
    easy = found & (f1 >= bar.take(steps))
    # n - p_i = 1 needs n = p_i + 1 <= p_deepest + 1 = bar[-1], so only
    # the rows up to that n can hold a unit.
    cut = max(0, (min(int(bar[-1]), hi) - lo) // 2 + 1)
    unit = np.zeros(first.size, dtype=bool)
    unit[:cut] = lo + 2 * np.arange(cut) - odd[steps[:cut] - 1] == 1
    # The rest are the hard rows and the rows without a hit.  Every easy
    # row adds its i* - 1 strict instances and one vacuous one.
    rows = np.flatnonzero(~easy)
    instances = int(steps.sum())
    vacuous = int(np.count_nonzero(found))
    strict = instances - int(steps[rows].sum()) - (first.size - rows.size)
    hist = {1: strict} if strict else {}
    best_fwi = best_ratio = None
    multi = easy & (steps > 1)
    j = int(multi.argmax())
    if multi[j]:
        n0 = lo + 2 * j
        best_fwi, best_ratio = (1, n0, 1), (1, 1, n0, 1)
    units = np.flatnonzero(unit[:cut])
    anomaly_pairs = list(zip((lo + 2 * units).tolist(), steps[units].tolist()))

    # The hard rows take one matrix pass.  Row r holds instances k = 1 ..
    # count[r], all nonvacuous and free of units, and hn ascends, so the
    # row-major order of the cells is the (n, k) order that breaks ties
    # between extremes.
    rest = steps[rows] - (found[rows] | unit[rows])  # instances left to classify
    rows, count = rows[rest > 0], rest[rest > 0]
    equality_pairs: list[tuple[int, int]] = []
    cex_pairs: list[tuple[int, int]] = []
    if rows.size:
        hn = lo + 2 * rows
        width = int(count.max())
        p = odd[:width].astype(np.int64)
        r, col = np.nonzero(np.arange(width) < count[:, None])  # col = k - 1
        pk = p[col]
        f = np.zeros((hn.size, width), dtype=np.int64)
        f[r, col] = table.lpf[hn[r] - pk]
        run_max = np.maximum.accumulate(f, axis=1)
        m = run_max[r, col]
        gt, eq = m > pk, m == pk
        # The first witness index of (n, k), the least j with lpf(n - p_j) >= p_k,
        # is the least j with M_j >= p_k, as M is nondecreasing.  Row r is
        # offset by r * (limit + 1), above any lpf value, so the rows laid end
        # to end stay sorted and one search answers every cell.
        offset = table.limit + 1
        flat = (run_max + np.arange(hn.size)[:, None] * offset).ravel()
        pos = np.searchsorted(flat, pk + r * offset) - r * width
        witnessed = (pos >= 0) & (pos <= col)
        if not np.array_equal(witnessed, gt | eq):
            raise EngineError(
                f"span [{lo}, {hi}]: first witness indices disagree with the classifier"
            )
        lt = ~(gt | eq)
        strict += int(np.count_nonzero(gt))
        equality_pairs = list(zip(hn[r[eq]].tolist(), (col[eq] + 1).tolist()))
        cex_pairs = list(zip(hn[r[lt]].tolist(), (col[lt] + 1).tolist()))
        fwi = pos[witnessed] + 1
        if fwi.size:
            for ix, c in enumerate(np.bincount(fwi).tolist()):
                if c:
                    hist[ix] = hist.get(ix, 0) + c
            wn, wk = hn[r[witnessed]], col[witnessed] + 1
            # The first maximum is the least (n, k); equal fractions of
            # integers divide to equal doubles.
            j = int(fwi.argmax())
            best_fwi = _better_fwi(best_fwi, (int(fwi[j]), int(wn[j]), int(wk[j])))
            j = int((fwi / wk).argmax())
            ratio = (int(fwi[j]), int(wk[j]), int(wn[j]), int(wk[j]))
            best_ratio = _better_ratio(best_ratio, ratio)

    equal = len(equality_pairs)
    classified = vacuous + strict + equal + len(cex_pairs) + len(anomaly_pairs)
    if classified != instances:
        raise EngineError(
            f"span [{lo}, {hi}]: {classified} outcomes for {instances} instances"
        )
    summary = RangeSummary(
        n_min=lo,
        n_max=hi,
        instances_evaluated=instances,
        vacuous_count=vacuous,
        strict_count=strict,
        equal_count=equal,
        counterexamples=tuple(sorted(cex_pairs)),
        anomalies=tuple(sorted(anomaly_pairs)),
        equality_cases=(),
        witness_index_histogram=dict(sorted(hist.items())),
        max_first_witness_index=best_fwi,
        max_witness_ratio=best_ratio,
        elapsed_seconds=0.0,
        evens_per_second=0.0,
    )
    return summary, equality_pairs


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def checkpoint_save(path, job: RangeJob, agg: RangeSummary, elapsed: float) -> None:
    """Persist sweep progress atomically (write temp file, then rename).

    agg, the summary of the covered prefix [job.n_min, agg.n_max], is
    stored as its records.  A failed save leaves no temp file behind.
    """
    text = json.dumps({
        "format_version": CHECKPOINT_VERSION,
        "job": job.identity(),
        "elapsed": elapsed,
        "records": summary_to_records(agg, include_timing=False),
    }) + "\n"
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def checkpoint_resume(path, job: RangeJob) -> tuple[RangeSummary, float]:
    """Load progress for job: the covered prefix's summary and the seconds spent.

    A checkpoint of another job, one that cannot be read or decoded, and
    one whose records do not cover [job.n_min, x] for an even x <= job.n_max
    are refused the same way.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            state = json.load(fh)
        version = state.get("format_version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointMismatchError(
                f"{path}: checkpoint version {version}, expected {CHECKPOINT_VERSION}"
            )
        if state.get("job") != job.identity():
            raise CheckpointMismatchError(
                f"{path}: checkpoint belongs to job {state.get('job')}, "
                f"current job is {job.identity()}"
            )
        agg = summary_from_records(state["records"])
        elapsed = float(state["elapsed"])
    except (AttributeError, KeyError, OSError, ReportFormatError, TypeError, ValueError) as exc:
        raise CheckpointMismatchError(f"{path}: unreadable checkpoint: {exc}") from exc
    if agg.n_min != job.n_min or agg.n_max % 2 or not job.n_min <= agg.n_max <= job.n_max:
        raise CheckpointMismatchError(
            f"{path}: records cover [{agg.n_min}, {agg.n_max}], "
            f"not a prefix of the job's [{job.n_min}, {job.n_max}]"
        )
    return agg, elapsed


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

_SHARED_TABLE: PrimeTable | None = None


def _pool_sweep(span: tuple[int, int]) -> _Block:
    # Looks _sweep_run up in the forked worker's copy of this module.
    return _sweep_run(_SHARED_TABLE, *span)


def _block_bounds(n_min: int, n_max: int, evens_per_block: int) -> list[tuple[int, int]]:
    """Split even n in [n_min, n_max] into ascending blocks [lo, hi]."""
    step = 2 * evens_per_block
    return [(lo, min(lo + step - 2, n_max)) for lo in range(n_min, n_max + 1, step)]


def check_stop_request(checkpoint_path, stop_after_blocks: int | None) -> None:
    """Refuse, with ConfigurationError, a stop without a checkpoint or below one block."""
    if stop_after_blocks is None:
        return
    if not checkpoint_path:
        raise ConfigurationError("stop_after_blocks requires a checkpoint path")
    if stop_after_blocks < 1:
        raise ConfigurationError(f"stop_after_blocks must be >= 1, got {stop_after_blocks}")


def verify_range(
    table: PrimeTable,
    job: RangeJob,
    *,
    checkpoint_path=None,
    fail_fast: bool = False,
    stop_after_blocks: int | None = None,
) -> RangeSummary:
    """Run (or resume) the sweep described by job and return its summary.

    Each span of max(job.checkpoint_interval, DEFAULT_BLOCK_EVENS) evens
    is one task; spans merge in ascending order.
    checkpoint_path: the covered prefix's summary is saved there after
    every merged span; an existing file, once validated against job,
    resumes the sweep after its prefix.
    fail_fast: raise, after the save, as soon as a merged span holds a
    counterexample candidate or unit anomaly.
    stop_after_blocks: sweep only the next B blocks of checkpoint_interval
    evens, then raise SweepInterrupted, whose blocks_done counts the blocks
    covered from n_min; exists so interruption can be exercised on demand.
    A worker that dies raises EngineError.
    """
    if table.limit < job.table_limit:
        raise CoverageError(
            f"table covers [2, {table.limit}], job needs {job.table_limit}"
        )
    check_stop_request(checkpoint_path, stop_after_blocks)

    agg: RangeSummary | None = None
    elapsed_prior = 0.0
    if checkpoint_path and os.path.exists(checkpoint_path):
        agg, elapsed_prior = checkpoint_resume(checkpoint_path, job)
    start = job.n_min if agg is None else agg.n_max + 2
    end = job.n_max
    if stop_after_blocks is not None:
        end = min(end, start + 2 * job.checkpoint_interval * stop_after_blocks - 2)
    spans = _block_bounds(start, end, max(job.checkpoint_interval, DEFAULT_BLOCK_EVENS))
    t0 = time.perf_counter()

    def elapsed_now() -> float:
        return elapsed_prior + (time.perf_counter() - t0)

    def merge(swept: _Block) -> None:
        """Fold one swept span into agg and save; fail fast after the save."""
        nonlocal agg
        part, pairs = swept
        cases = [classify_equality(table, make_instance(table, n, k)) for n, k in sorted(pairs)]
        part = replace(part, equality_cases=tuple(cases))
        agg = part if agg is None else merge_summaries(agg, part)
        if checkpoint_path:
            checkpoint_save(checkpoint_path, job, agg, elapsed_now())
        if fail_fast and not agg.clean:
            if agg.counterexamples:
                raise CounterexampleFoundError(agg.counterexamples)
            raise AnomalyFoundError(agg.anomalies)

    if job.workers == 1 or len(spans) <= 1:
        for lo, hi in spans:
            merge(_sweep_run(table, lo, hi))
    else:
        # Imported here: these modules add ~1.3 MiB of resident memory,
        # which a serial sweep would pay for nothing.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        global _SHARED_TABLE
        _SHARED_TABLE = table
        pool = ProcessPoolExecutor(
            min(job.workers, len(spans)), mp_context=multiprocessing.get_context("fork")
        )
        try:
            for swept in pool.map(_pool_sweep, spans):
                merge(swept)
        except BrokenProcessPool as exc:
            raise EngineError(f"a sweep worker died: {exc}") from exc
        finally:
            # After an early exit, spans not yet started are dropped.
            pool.shutdown(cancel_futures=True)
            _SHARED_TABLE = None

    if agg.n_max < job.n_max:
        covered = (agg.n_max - job.n_min) // 2 + 1
        raise SweepInterrupted(checkpoint_path, -(-covered // job.checkpoint_interval))
    elapsed = elapsed_now()
    evens = (job.n_max - job.n_min) // 2 + 1
    summary = replace(
        agg,
        elapsed_seconds=elapsed,
        evens_per_second=evens / elapsed if elapsed > 0 else float("inf"),
    )
    if checkpoint_path and os.path.exists(checkpoint_path):
        os.unlink(checkpoint_path)
    return summary


def merge_summaries(a: RangeSummary, b: RangeSummary) -> RangeSummary:
    """Combine summaries of two adjacent ranges ([.., x], [x+2, ..])."""
    if b.n_min != a.n_max + 2:
        raise PreconditionError(
            f"ranges not adjacent: [{a.n_min}, {a.n_max}] then [{b.n_min}, {b.n_max}]"
        )
    hist = dict(a.witness_index_histogram)
    for key, c in b.witness_index_histogram.items():
        hist[key] = hist.get(key, 0) + c
    elapsed = a.elapsed_seconds + b.elapsed_seconds
    evens = (b.n_max - a.n_min) // 2 + 1
    return RangeSummary(
        n_min=a.n_min,
        n_max=b.n_max,
        instances_evaluated=a.instances_evaluated + b.instances_evaluated,
        vacuous_count=a.vacuous_count + b.vacuous_count,
        strict_count=a.strict_count + b.strict_count,
        equal_count=a.equal_count + b.equal_count,
        counterexamples=tuple(sorted(a.counterexamples + b.counterexamples)),
        anomalies=tuple(sorted(a.anomalies + b.anomalies)),
        equality_cases=tuple(
            sorted(a.equality_cases + b.equality_cases, key=lambda r: (r.n, r.k))
        ),
        witness_index_histogram=dict(sorted(hist.items())),
        max_first_witness_index=_better_fwi(
            a.max_first_witness_index, b.max_first_witness_index
        ),
        max_witness_ratio=_better_ratio(a.max_witness_ratio, b.max_witness_ratio),
        elapsed_seconds=elapsed,
        evens_per_second=evens / elapsed if elapsed > 0 else float("inf"),
    )


# ---------------------------------------------------------------------------
# derived sweeps
# ---------------------------------------------------------------------------


def _even_ceiling(n_max: int) -> int:
    return n_max - (n_max % 2)


def enumerate_edge_cases(table: PrimeTable, n_max: int, workers: int = 1):
    """All equality cases with n <= n_max, ascending by (n, k)."""
    hi = _even_ceiling(n_max)
    if hi < 6:
        return ()
    job = RangeJob(n_min=6, n_max=hi, table_limit=hi, workers=workers)
    return verify_range(table, job).equality_cases


def witness_statistics(table: PrimeTable, n_max: int, workers: int = 1) -> WitnessStats:
    """First-witness-index distribution over all instances with n <= n_max."""
    hi = _even_ceiling(n_max)
    if hi < 6:
        return WitnessStats(
            n_max=n_max,
            witnessed_count=0,
            histogram={},
            max_first_witness_index=None,
            max_witness_ratio=None,
        )
    job = RangeJob(n_min=6, n_max=hi, table_limit=hi, workers=workers)
    summary = verify_range(table, job)
    return WitnessStats(
        n_max=n_max,
        witnessed_count=summary.strict_count + summary.equal_count,
        histogram=summary.witness_index_histogram,
        max_first_witness_index=summary.max_first_witness_index,
        max_witness_ratio=summary.max_witness_ratio,
    )


def decompose_range(table: PrimeTable, n_min: int, n_max: int) -> DecompositionSweep:
    """Two-prime decompositions for every even n in [n_min, n_max].

    A projection of the sweep's first-hit scan (_first_hits), the
    vectorized form of goldbach_decompose's loop: per n only the
    existence and depth of the first hit are kept.  Any n whose scan
    exhausts the odd primes below it (first <= 0) lands in failures.

    The range is walked in the same ascending spans of
    DEFAULT_BLOCK_EVENS evens that verify_range uses by default, each
    scanned to completion before the next starts, so working memory is one
    span's arrays, however wide the range: a tracemalloc peak of 1.2 MiB
    per span at 10^7, and 1.5 MiB for the span at n = 6, which _first_hits
    scans in two pieces and joins.  Spans merge in order: failures are
    concatenated, and max_scan keeps the deepest first hit, the least n
    within a span (argmax) and the earlier span on a tie.
    """
    if n_min % 2 or n_max % 2:
        raise PreconditionError(
            f"range endpoints must be even, got [{n_min}, {n_max}]"
        )
    if n_min < 6 or n_max < n_min:
        raise PreconditionError(f"need 6 <= n_min <= n_max, got [{n_min}, {n_max}]")
    if n_max > table.limit:
        raise CoverageError(f"n_max={n_max} exceeds table limit {table.limit}")
    failures: list[int] = []
    max_scan: tuple[int, int] | None = None
    for lo, hi in _block_bounds(n_min, n_max, DEFAULT_BLOCK_EVENS):
        first = _first_hits(table, lo, hi)
        failures.extend((lo + 2 * np.flatnonzero(first <= 0)).tolist())
        j = int(first.argmax())  # the least n of the span's deepest hit
        if first[j] > 0 and (max_scan is None or first[j] > max_scan[0]):
            max_scan = (int(first[j]), lo + 2 * j)
    return DecompositionSweep(
        n_min=n_min,
        n_max=n_max,
        count=(n_max - n_min) // 2 + 1,
        failures=tuple(failures),
        max_scan=max_scan,
    )
