"""Exhaustive range verification with checkpointing and worker pools.

An even n evaluates the instances k = 1 .. i*, where i* = i*(n), its
first prime hit, is the least index with n - p_i prime: every nonvacuous
instance plus the one vacuous instance that makes every larger k vacuous.
Each span of consecutive even n is swept in two phases.  Every value
the sweep reads, n - p for an odd prime p, is odd, and the table holds
odd x only, in cell (x - 1) / 2, so the values n - p of consecutive
even n sit in consecutive cells.

Phase 1, the first-hit scan (_first_hits), reads primality only, from
the table's bits.  Its head advances every row in lockstep over the
first odd primes with live rows held as bits, 64 to a word: the bytes of
one window of cells, negated to mark the composite values, give its 8
bit phases, one shift of their little-endian uint16 pairs each, and each
step is one bitwise and of the last step's row set with a slice of a
phase, kept as that step's mask.  The head stops once few rows are
alive; its tail lists the survivors from the last mask's nonzero words
and gathers their cells, at (n - p) / 2 rounded down, several primes at
a time for their exact i*.  A row the head settled has i* equal to the
number of masks that hold it, so no per-row i* is built.  Both read the
odd primes from the table's small list, those below 2^16; a row alive
past all of them, which takes a doctored table, goes on in the full
list, which the table then builds, and so does phase 2.
decompose_range reads the rows that never hit and the deepest hit from
the tail, and from the last mask that lost a row.

Phase 2 reads the table's cells, each the odd-prime index J of a
largest prime factor capped at INDEX_CAP = 255 (J(3) = 1).  lpf(n - p_j)
>= p_k exactly when J(lpf(n - p_j)) >= k, so for every k below the cap
it compares a cell with k.  It classifies each row from i* and f1 =
min(J(lpf(n - 3)), INDEX_CAP), which for consecutive even n is a
contiguous slice of the table, read in place.  It computes i* only for
the rows that need it.

  Easy rows.  If f1 >= i*, every k < i* is a strict witness with first
  witness index 1, since J(lpf(n - p_1)) >= i* > k.  A row the head
  settled at step i* is not easy exactly when it is alive after step
  f1: one bit of mask f1.  A survivor is tested against its exact i*,
  and a capped f1 understates, so a row with i* > 255 at worst takes
  the exact flat pass.  Such a row adds i* - 1 strict instances and one
  vacuous one, which the popcounts of the masks add up, and the easy
  rows' extremes are (1, n0, 1) and (1, 1, n0, 1) for the least easy n0
  with i* >= 2.

  Hard rows, the rest (9,519 of the 4,999,998 rows of [6, 10^7]), take
  a flat pass over their instances, in chunks of rows of about
  PHASE2_CHUNK instances: F_j, the cell of n - p_j for j < i*, gathered
  at (n - p_j) / 2 rounded down and laid end to end, row r of a chunk
  lifted by r * 256, above any cell, so that one running max is every
  row's running max M.  M_k against k classifies (n, k) (strict, equal
  or counterexample candidate), and the first witness index, the least
  j with F_j >= k, is the least j with M_j >= k, found by one
  searchsorted over the lifted M.  A chunk whose largest k reaches the
  cap refills its capped F_j exactly and compares the factors with p_k
  instead, its rows lifted by r * (limit + 1); up to 2 * 10^9 only the
  rows with i* = 256, 277 and 283 take that.  M_k only grows with k, so
  a row whose M_w exceeds i* - 1, the largest k it is asked about, holds
  only strict instances past k = w, each with its first witness index
  at most w.  Most hard rows get there within a few columns, so each
  hard row of more than w = CLEAR_COLUMNS instances first gathers its
  first w columns, and one that clears takes the flat pass over those
  only: its instances past w are counted per column j from M_j, which,
  as the index of a prime, is the number of odd primes up to it.

A row with a hit holds no unit anomaly: n - p_{i*} is an odd prime, so
p_{i*} <= n - 3 < n - 1.  Only a row whose scan runs out of odd primes
below n without a hit, which takes a doctored table, can hit n - p_i = 1
(at its last instance); such a row takes the flat pass over its
instances.  A unit needs n = p_i + 1 for some i up to the span's deepest
scan, which the head's step count and the tail's scans bound, so the
vectorised unit check runs on the rows with n <= p_deepest + 1 only,
every row that can hold one, and only in a span that holds such rows
(on an honest table only n up to 1,094, as no first hit up to 10^8 lies
past p_182 = 1,093: the first span of a sweep from small n).  It covers
hit rows too, so a table that calls 1 prime breaks the outcome count
instead of passing unseen.  Two engine invariants are checked on every
span: the first witness indices agree with the classifier, and the
outcomes add up to the instances.

Work is split into spans of max(checkpoint_interval, DEFAULT_BLOCK_EVENS)
evens, at least 2^18, the one unit of work: one task, in the caller or
in a child, runs both phases once over a span and yields a RangeSummary
of its range, and spans are merged (merge_summaries) strictly in
ascending order whatever the worker count, so summaries and their
digests are worker-count independent.  W = min(workers, spans) workers
sweep them, and the caller is worker 0: it sweeps the spans i = 0
(mod W) itself and forks W - 1 children, which share the table
copy-on-write; child w pipes back spans w, w + W, ..., so the caller
reads span i from child i mod W.  A forked child starts cold, so the
caller's own spans cost no fork and no cold start, and one worker forks
nothing.  The checkpoint is saved after every merged span and holds the
summary of the covered prefix [n_min, x], so a resume restarts at x + 2
with any block size or worker count, and a requested stop or a
fail-fast error leaves the prefix through the span it stopped on.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import signal
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple, NoReturn

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
from .sieve import CELL_LPF, INDEX_CAP, PrimeTable, gather_bits

# Evens per span at least, and the default block size.  A span pays
# ~200 numpy calls, a merge and a checkpoint save whatever its width; at
# 2^18 rows its head's 65 masks take 2 MiB.
DEFAULT_BLOCK_EVENS = 1 << 18
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


# Costs on the 2-vCPU Xeon VM of perfbench/README.md, per span of 2^18
# rows near 5 * 10^6 and 5 * 10^7 (medians of 60 calls, 3 processes).
# Phase 1, 0.5-0.7 ms: the window's 8 bit phases from its byte pairs,
# ~55-75 us (unpacking it to bools and packing those 8 times took
# ~120-220 us); a head step, one and over 32 KB, ~2-4 us, and the count
# of live words every HEAD_CHECK_STEPS steps ~1-3 us; listing the
# survivors, ~20-40 us; the tail, ~65-160 us.  Phase 2 (the rest of
# _sweep_run, ~650-820 us): the masks' popcount, ~200-270 us;
# _hard_rows, ~165-250 us, most of it listing the 1,200-2,600
# candidates (the f1 test's flatnonzero listed 6,600-14,400 in ~200-480
# us), and their i*, ~40-100 us; the rest, mostly the flat pass.  That
# pass gathers every column of a hard row only when its running max over
# the first CLEAR_COLUMNS columns stays at or below its last k, which few
# rows do, so most of its cells are those first columns.
#
# The head spans the first HEAD_PRIMES odd primes at most, so the window
# overhangs the rows by (p_64 - 3) / 2 = 155 cells.  Near 10^8 about 1
# row in 700 outlives p_64 = 313.
HEAD_PRIMES = 64
# A head step costs what the tail pays for a few hundred live rows, so
# the head runs while more than rows / HEAD_MIN_ALIVE of its 64-row
# words hold a live row; near 5 * 10^6 it stops after 56 or 60 steps,
# and from ~5 * 10^7 it runs all 64.  decompose_range(table, 6, 10**8)
# took 0.139, 0.119, 0.121 and 0.123 s stopping below 1/512, 1/1024,
# 1/2048 and 1/4096 of the words (medians of 16 alternating runs in one
# process), and verify_range over [6, 10^8] with 1 worker 0.414, 0.392,
# 0.389 and 0.393 s (medians of 6).
HEAD_MIN_ALIVE = 1024
HEAD_CHECK_STEPS = 4
# A tail chunk of 4096 cells keeps the per-call cost small against the
# gathering: chunks of 2048, 4096, 8192 and 16384 cells took 0.127,
# 0.119, 0.131 and 0.124 s of decompose_range at 10^8, and 0.058, 0.056,
# 0.057 and 0.060 s of verify_range over [6, 10^7], the same within the
# VM's noise (medians of 16 alternating runs).
TAIL_CELLS = 4096
# Phase 2 tests its candidate rows this many at a time, and flat-passes
# its hard rows in chunks of about this many cells, so that the first
# span of a sweep from small n, which has the most candidates and the
# most hard rows that do not clear, peaks no higher than the others: its
# index arrays stay below the head's masks.
PHASE2_CHUNK = 1 << 13
# Phase 2 gathers this many leading cells of each hard row before its
# flat pass, and a row whose running max over them exceeds its last k
# takes the flat pass over them only.  Nearly every hard row clears by
# column 2; the few that clear later cost less in the full pass than one
# more gathered column of every hard row.  Not an option: any value gives
# the same summary, and 1 clears no hard row.
CLEAR_COLUMNS = 2

if hasattr(np, "bitwise_count"):

    def _popcount(masks: np.ndarray) -> int:
        """The set bits of packed row sets of whole 8-byte words."""
        counts = np.bitwise_count(masks.view("<u8")).ravel()
        # Blocks of 256 word counts sum exactly in uint16 (at most 256 * 64
        # = 16,384), ~3x faster than the default accumulator.
        whole = counts.size & ~255
        blocks = counts[:whole].reshape(-1, 256).sum(axis=1, dtype=np.uint16)
        return int(blocks.sum()) + int(counts[whole:].sum())

else:  # numpy < 2.0 has no popcount ufunc

    def _popcount(masks: np.ndarray) -> int:
        """The set bits of packed row sets of whole 8-byte words."""
        return int(np.count_nonzero(np.unpackbits(masks)))


def _set_bits(mask: np.ndarray) -> np.ndarray:
    """The positions of the set bits of a packed row set, ascending."""
    # Only the nonzero 64-row words are unpacked: a few in a thousand
    # rows outlive the head.  flatnonzero is ~7x faster over bools than
    # over uint8, and take ~15x faster than indexing rows of 8 bytes.
    nz = np.flatnonzero(mask.view("<u8"))
    bits = np.unpackbits(mask.view("<u8").take(nz).view(np.uint8), bitorder="little")
    bits = np.flatnonzero(bits.view(bool))
    return 64 * nz[bits >> 6] + (bits & 63)


def _least_bit(mask: np.ndarray) -> int:
    """The position of the least set bit of a packed row set, or -1."""
    words = mask.view("<u8")
    nz = np.flatnonzero(words)
    if not nz.size:
        return -1
    w = int(words[nz[0]])
    return 64 * int(nz[0]) + (w & -w).bit_length() - 1


class _Hits(NamedTuple):
    """The first prime hits of the rows of a span [lo, hi], row r being n = lo + 2r.

    head: the first row of the head.  The rows below it, at most the
    n <= p_HEAD_PRIMES of a span that starts there, are left to the tail.
    masks: uint8, one packed row set per head step taken plus one before
    the first.  Bit r - head of masks[s] (little bit order within a byte)
    is set iff row r >= head is alive after s steps, that is n - p_i is
    composite for every i <= s.  Bits past the last row are clear, and
    each row is a whole number of 8-byte words.
    rows: the rows the head left, ascending: those below head and those
    alive after its last step.
    first: int64, for each of rows, i* for a row with a hit, or 1 - i for
    a row that ran out of odd primes below it, or of the table's, after
    evaluating i - 1 instances without a hit.

    Every other row hit within the head, at i* = the number of masks[s],
    s < len(masks) - 1, that hold it.
    """

    head: int
    masks: np.ndarray
    rows: np.ndarray
    first: np.ndarray


def _first_hits(table: PrimeTable, lo: int, hi: int) -> _Hits:
    """Phase 1: the first prime hit of every even n in [lo, hi]."""
    odd = table.small_odd_primes
    rows = (hi - lo) // 2 + 1
    # The head below spans only the odd primes under its least n, so a
    # span that starts at or below p_64 = 313 (the first span of a sweep
    # from small n) would send most of its rows to the tail.  Its rows
    # from 314 on, which have all HEAD_PRIMES primes below them, take the
    # head, and the rows below go to the tail at once.
    head = 0
    if odd.size >= HEAD_PRIMES and lo <= odd[HEAD_PRIMES - 1] < hi:
        head = (int(odd[HEAD_PRIMES - 1]) + 1 - lo) >> 1
    base = lo + 2 * head
    width = rows - head
    # Head: every row advances in lockstep over the first h odd primes,
    # those below base among the first HEAD_PRIMES, 64 rows to a word.
    h = int(np.searchsorted(odd[:HEAD_PRIMES], base))
    masks = np.empty((h + 1, -(-width // 64) * 8), dtype=np.uint8)
    masks[0] = 0
    masks[0, : width >> 3] = 0xFF
    masks[0, width >> 3 :][:1] = (1 << (width & 7)) - 1
    s = 0
    if h:
        # Step j reads the cells of n - p_j, consecutive for consecutive
        # even n: the slice from c = (p_h - p_j) / 2 of one window of
        # cells from x = base - p_h on.  Its bytes, negated to mark the
        # composite x and read as little-endian uint16 pairs, give each of
        # its 8 bit phases by one shift and a cast to uint8, and step j
        # ands the bytes of phase c % 8 from c // 8 on.
        top = int(odd[h - 1])
        start, size = (base - top) >> 1, masks.shape[1]
        length = ((top - 3) >> 4) + size  # through step 1's slice, c = (p_h - 3) / 2
        window = table.odd_prime_bits[start >> 3 : (start >> 3) + length + 2]
        pairs = np.zeros(length + 2, dtype="<u2")  # zero past the table's last byte
        pairs[: window.size] = ~window
        pairs = pairs[:-1] | pairs[1:] << 8
        phases = np.empty((8, length), dtype=np.uint8)
        for b in range(8):
            o = (start & 7) + b  # the phase's bit offset in the window's first byte
            phases[b] = pairs[o >> 3 : (o >> 3) + length] >> (o & 7)
        words = masks.view("<u8")
        for c in ((top - odd[:h]) >> 1).tolist():
            np.bitwise_and(masks[s], phases[c & 7, c >> 3 : (c >> 3) + size], out=masks[s + 1])
            s += 1
            if s % HEAD_CHECK_STEPS == 0 and np.count_nonzero(words[s]) * HEAD_MIN_ALIVE < width:
                break
        del window, pairs, phases  # 0.3 MiB, not alive beside the tail's arrays
    masks = masks[: s + 1]
    low, left = np.arange(head), head + _set_bits(masks[s])
    first = (_tail(table, lo + 2 * low, 0), _tail(table, lo + 2 * left, s))
    return _Hits(head, masks, np.concatenate((low, left)), np.concatenate(first))


def _tail(table: PrimeTable, n: np.ndarray, i: int) -> np.ndarray:
    """The first hits (as in _Hits.first) of the ascending even n, none of
    which hit among the first i odd primes."""
    bits = table.odd_prime_bits
    odd = table.small_odd_primes
    first = np.empty(n.size, dtype=np.int64)
    act = n
    # The survivors take up to TAIL_CELLS cells of primes at once, one
    # 2-D gather at the cells n/2 - (p + 1)/2 of n - p, whose argmax is
    # each row's first hit in the chunk.  One prime at a time where that
    # is a single prime, or where the chunk reaches the least live n and
    # some rows run out of primes below them (only at small n).
    while act.size:
        if i == odd.size:
            # Rows alive past every odd prime below 2^16 take a doctored
            # table (the sieve's module docstring); they go on in every
            # odd prime of the table, listed here from its bits.
            odd = table.odd_primes_through(i + 1)
            if i == odd.size:
                first[np.searchsorted(n, act)] = -i
                break
        w = min(max(TAIL_CELLS // act.size, 1), odd.size - i)
        ps = odd[i : i + w]
        if w > 1 and ps[-1] < act[0]:
            cells = gather_bits(bits, (act >> 1)[:, None] - ((ps + 1) >> 1))
            pos = cells.argmax(axis=1)
            hit = cells[np.arange(act.size), pos]
            first[np.searchsorted(n, act[hit])] = i + 1 + pos[hit]
            act = act[~hit]
            i += w
            continue
        p = int(odd[i])
        i += 1
        if p >= act[0]:
            spent = act <= p
            first[np.searchsorted(n, act[spent])] = 1 - i
            act = act[~spent]
            if act.size == 0:
                break
        hit = gather_bits(bits, (act - p) >> 1)
        first[np.searchsorted(n, act[hit])] = i
        # compress copies the survivors faster than act[~hit] does.
        act = np.compress(~hit, act)
    return first


def _head_steps(hits: _Hits, rows: np.ndarray) -> np.ndarray:
    """i* of rows (int64, each >= hits.head) that hit within the head."""
    r = rows - hits.head
    masks = hits.masks[:-1]
    # In uint8: an int64 shift would make the (steps, rows) bit matrix 8x
    # larger, 0.45 MB for the 1,294 hard rows of the span at n = 6.
    return ((masks[:, r >> 3] >> (r & 7).astype(np.uint8)) & 1).sum(axis=0, dtype=np.int64)


def _deepest_hit(hits: _Hits) -> tuple[int, int] | None:
    """(i*, row) of the span's deepest first hit, its least row on a tie."""
    best = None
    if hits.first.size:
        j = int(hits.first.argmax())
        if hits.first[j] > 0:
            best = (int(hits.first[j]), int(hits.rows[j]))
    # A row the head settled at step s is in masks[s - 1] and not masks[s].
    masks = hits.masks
    for s in range(masks.shape[0] - 1, 0, -1):
        if best is not None and s < best[0]:
            break
        r = _least_bit(masks[s - 1] & ~masks[s])
        if r >= 0:
            if best is None or s > best[0] or hits.head + r < best[1]:
                best = (s, hits.head + r)
            break
    return best


def _hard_rows(hits: _Hits, f1: np.ndarray) -> np.ndarray:
    """The rows the head settled that are not easy, ascending; f1[r] is
    the cell of n - 3, min(J(lpf(n - 3)), INDEX_CAP)."""
    head, masks, done = hits.head, hits.masks, hits.masks.shape[0] - 1
    if done < 2:
        return np.zeros(0, dtype=np.int64)
    # Such a row is alive after step f1, so f1 < done (a row alive after
    # step done is a survivor), and if f1 > 15 it is alive after step 16.
    # The candidates, less head, are the set bits of that packed row set.
    # The bounds are Python ints, which compare in f1's own dtype.
    cand = np.zeros(masks.shape[1], dtype=np.uint8)
    packed = cand[: -(-(f1.size - head) // 8)]
    packed[:] = np.packbits(f1[head:] < done, bitorder="little")
    if done > 16:
        packed &= masks[16, : packed.size]
        packed |= np.packbits(f1[head:] <= 15, bitorder="little")
    r = _set_bits(cand)
    # PHASE2_CHUNK candidates at a time: the first span of a sweep from
    # small n, where lpf(n - 3) is often small, has the most.
    keep = np.empty(r.size, dtype=bool)
    for c in range(0, r.size, PHASE2_CHUNK):
        part = r[c : c + PHASE2_CHUNK]
        cells = f1[head:].take(part).astype(np.int64) * masks.shape[1] + (part >> 3)
        live = masks.ravel().take(cells) & ~masks[done].take(part >> 3)
        keep[c : c + PHASE2_CHUNK] = (live >> (part & 7).astype(np.uint8)) & 1
    return head + r[keep]


# A swept span: its summary without equality cases, and their (n, k).
_Block = tuple[RangeSummary, list[tuple[int, int]]]


def _sweep_run(table: PrimeTable, lo: int, hi: int) -> _Block:
    """Evaluate every instance of every even n in the span [lo, hi].

    Runs phase 1, then phase 2, over the whole span.  Returns its
    summary, without equality cases, and the (n, k) pairs of those cases,
    which the merging process classifies.
    """
    hits = _first_hits(table, lo, hi)
    head, masks = hits.head, hits.masks
    done = masks.shape[0] - 1  # head steps taken
    size = (hi - lo) // 2 + 1
    survivors = hits.rows.size - head
    # Rows the tail settled, or left without a hit, carry their counts.
    steps = np.abs(hits.first)
    found = hits.first > 0
    # A row the head settled at step s is in masks[0 .. s - 1], so the
    # popcounts of those masks add up its s instances; a survivor is in
    # all done of them and carries the rest in steps.
    instances = _popcount(masks[:done]) + int(steps.sum()) - done * survivors
    vacuous = size - int(np.count_nonzero(~found))
    deepest = max(done, int(steps.max(initial=0)))  # no row has more instances
    odd = table.odd_primes_through(deepest)  # listed from the bits only past the small list
    f1 = table.odd_lpf[(lo - 3) >> 1 : (hi - 1) >> 1]  # the cells of n - 3, in place

    # A hit row of s instances is easy exactly when f1 >= s; the rows the
    # head left are tested so.
    easy = found & (f1[hits.rows] >= steps)
    hard = _hard_rows(hits, f1)
    hard_steps = _head_steps(hits, hard)
    # The non-easy rows, ascending: the hard ones and those without a hit.
    rows = np.concatenate((hits.rows[~easy], hard))
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    rows_steps = np.concatenate((steps[~easy], hard_steps))[order]
    rows_found = np.concatenate((found[~easy], np.ones(hard.size, dtype=bool)))[order]
    # Every easy row adds its i* - 1 strict instances and one vacuous one.
    strict = instances - int(rows_steps.sum()) - (size - rows.size)
    hist = {1: strict} if strict else {}
    best_fwi = best_ratio = None
    # The least easy row with i* >= 2: among the rows the head left, and
    # among those it settled after step 1 less the hard ones.
    multi = hits.rows[easy & (steps > 1)]
    n0 = int(multi[0]) if multi.size else size
    if done > 1:
        later = masks[1] & ~masks[done]
        r = hard - head
        np.bitwise_and.at(later, r >> 3, ~(np.left_shift(1, r & 7).astype(np.uint8)))
        j = _least_bit(later)
        if j >= 0:
            n0 = min(n0, head + j)
    if n0 < size:
        n0 = lo + 2 * n0
        best_fwi, best_ratio = (1, n0, 1), (1, 1, n0, 1)

    # n - p_i = 1 needs n = p_i + 1 <= p_deepest + 1, so only the rows up
    # to that n can hold a unit, and only a span that starts at or below
    # it has any.  A row's last instance is vacuous if it has a hit, and
    # an anomaly if it is a unit.
    unit_top = int(odd[deepest - 1]) + 1 if deepest else 0
    cut = max(0, (min(unit_top, hi) - lo) // 2 + 1)
    anomaly_pairs: list[tuple[int, int]] = []
    spent = rows_found
    if cut:
        low_steps = np.zeros(cut, dtype=np.int64)
        low_steps[head:] = _head_steps(hits, np.arange(head, cut))
        left = hits.rows < cut
        low_steps[hits.rows[left]] = steps[left]
        units = np.flatnonzero(lo + 2 * np.arange(cut) - odd[low_steps - 1] == 1)
        anomaly_pairs = list(zip((lo + 2 * units).tolist(), low_steps[units].tolist()))
        spent = rows_found | np.isin(rows, units)

    # The non-easy rows take one flat pass over their instances k = 1 ..
    # count[r], all nonvacuous and free of units; the rows ascend, so the
    # order of the cells is the (n, k) order that breaks ties between
    # extremes.  The masks (2 MiB) are freed first, and the pass runs over
    # chunks of rows whose first cells lie in one PHASE2_CHUNK stretch, so
    # its dozen arrays stay small whatever the span's hard rows.
    del hits, masks
    rest = rows_steps - spent
    rows, count = rows[rest > 0], rest[rest > 0]
    # A row whose running max M_w over the cells of its first w =
    # CLEAR_COLUMNS columns exceeds count, the largest k it is asked
    # about, is cleared: its instances past w are strict, and the first
    # witness index of (n, k) is the least j with M_j >= k, so column j <=
    # w takes the k in (M_{j-1}, M_j], M_j - M_{j-1} of them clipped to
    # (w, count].  Only its columns k <= w take the flat pass.  A capped
    # M_j understates, but clears only a count below the cap, to which the
    # clip brings it.
    w = CLEAR_COLUMNS
    long = np.flatnonzero(count > w)
    if long.size:
        # run[j - 1] holds M_j, one column per row.
        run = np.maximum.accumulate(
            table.odd_lpf[(lo + 2 * rows[long] - odd[:w, None]) >> 1], axis=0
        )
        clear = run[-1] > count[long]
        long, run = long[clear], run[:, clear]
    if long.size:
        top = count[long]
        # kp[j] = clip(M_j, w, count), with M_0 = 0 in kp[0], and per[j -
        # 1] the instances past w with first witness index j.
        kp = np.full((w + 1, long.size), w, dtype=np.int64)
        kp[1:] = np.clip(run, w, top)
        per = np.diff(kp, axis=0)
        strict += int(top.sum()) - w * long.size
        for j, c in enumerate(per.sum(axis=1).tolist(), start=1):
            if c:
                hist[j] = hist.get(j, 0) + c
                jmax = j
        # The largest such index, in its least row, at its least k.
        r = int((per[jmax - 1] > 0).argmax())
        n = lo + 2 * int(rows[long[r]])
        best_fwi = _better_fwi(best_fwi, (jmax, n, int(kp[jmax - 1, r]) + 1))
        count[long] = w
    equality_pairs: list[tuple[int, int]] = []
    cex_pairs: list[tuple[int, int]] = []
    firsts = np.cumsum(count) - count
    cuts = np.searchsorted(firsts, np.arange(PHASE2_CHUNK, int(count.sum()), PHASE2_CHUNK)).tolist()
    for a, b in zip([0, *cuts], [*cuts, rows.size]):
        if a == b:
            continue
        hn, part = lo + 2 * rows[a:b], count[a:b]
        seg = np.repeat(np.arange(b - a), part)
        cell = np.arange(seg.size)
        start = (firsts[a:b] - firsts[a])[seg]  # the cell of (n, 1)
        col = cell - start  # k - 1
        value = hn[seg] - odd[col]  # n - p_k
        f = table.odd_lpf[value >> 1].astype(np.int64)
        if col.max() < INDEX_CAP - 1:
            # Every k is below the cap, so the cells compare with k
            # exactly, and row r is lifted by r * 256, above any cell.
            bar, ceiling = col + 1, INDEX_CAP + 1
        else:
            # Some k reaches the cap: the chunk refills its factors
            # exactly and compares them with p_k, row r lifted by r *
            # (limit + 1), above any factor.
            capped = np.flatnonzero(f == INDEX_CAP)
            f = CELL_LPF.take(np.minimum(f, INDEX_CAP - 1)).astype(np.int64)
            f[capped] = [table.exact_lpf(x) for x in value[capped].tolist()]
            bar, ceiling = odd[col].astype(np.int64), table.limit + 1
        # One running max over the rows laid end to end is each row's
        # running max M, lifted, and stays sorted for the first-witness
        # search.
        lift = seg * ceiling
        run = np.maximum.accumulate(f + lift)
        m = run - lift
        gt, eq = m > bar, m == bar
        # The first witness index of (n, k), the least j with lpf(n - p_j)
        # >= p_k, is the least j with M_j >= bar, as M is nondecreasing.
        pos = np.searchsorted(run, bar + lift)
        witnessed = (pos >= start) & (pos <= cell)
        if not np.array_equal(witnessed, gt | eq):
            raise EngineError(
                f"span [{lo}, {hi}]: first witness indices disagree with the classifier"
            )
        lt = ~(gt | eq)
        strict += int(np.count_nonzero(gt))
        equality_pairs += zip(hn[seg[eq]].tolist(), (col[eq] + 1).tolist())
        cex_pairs += zip(hn[seg[lt]].tolist(), (col[lt] + 1).tolist())
        fwi = (pos - start)[witnessed] + 1
        if fwi.size:
            for ix, c in enumerate(np.bincount(fwi).tolist()):
                if c:
                    hist[ix] = hist.get(ix, 0) + c
            wn, wk = hn[seg[witnessed]], col[witnessed] + 1
            # The first maximum is the least (n, k) of the chunk; equal
            # fractions of integers divide to equal doubles.
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

def _sweep_child(table: PrimeTable, spans: list, wfd: int, inherited: list) -> NoReturn:
    """In a forked child: pipe (True, block) per span to wfd, or (False,
    exception) and stop; leave by os._exit (no atexit handler, no flush)."""
    try:
        for fh in inherited:
            fh.close()
        with os.fdopen(wfd, "wb") as out:
            for lo, hi in spans:
                try:
                    reply = (True, _sweep_run(table, lo, hi))
                except Exception as exc:
                    reply = (False, exc)
                pickle.dump(reply, out)
                out.flush()
                if not reply[0]:
                    break
        os._exit(0)
    finally:
        os._exit(1)


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
    is one task; spans merge in ascending order.  Of W =
    min(job.workers, spans) workers the caller is worker 0: it sweeps
    spans i = 0 (mod W) itself and forks W - 1 children for the others.
    checkpoint_path: the covered prefix's summary is saved there after
    every merged span; an existing file, once validated against job,
    resumes the sweep after its prefix.
    fail_fast: raise, after the save, as soon as a merged span holds a
    counterexample candidate or unit anomaly.
    stop_after_blocks: sweep only the next B blocks of checkpoint_interval
    evens, then raise SweepInterrupted, whose blocks_done counts the blocks
    covered from n_min; exists so interruption can be exercised on demand.
    A span's error, the caller's or a child's, is raised here, and a child
    that dies raises EngineError.
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

    # The caller is worker 0 and sweeps spans 0, W, 2W, ... itself, warm;
    # child w (0 < w < W) pipes back spans w, w + W, ...
    width = min(job.workers, len(spans))
    pids, replies = [], []
    try:
        for w in range(1, width):
            r, wfd = os.pipe()
            replies.append(os.fdopen(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _sweep_child(table, spans[w::width], wfd, replies)
                pids.append(pid)
            finally:
                os.close(wfd)
        for i, span in enumerate(spans):
            if i % width == 0:
                merge(_sweep_run(table, *span))
                continue
            try:
                ok, value = pickle.load(replies[i % width - 1])
            except (EOFError, pickle.UnpicklingError) as exc:
                raise EngineError(f"a sweep worker died before span {span}") from exc
            if not ok:
                raise value
            merge(value)
    finally:
        for fh in replies:
            fh.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

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
    exhausts the odd primes below it (first <= 0) lands in failures;
    only the tail's rows can.  The deepest hit is the tail's, or the
    head's deepest step that settled a row, whichever is deeper.

    The range is walked in the same ascending spans of
    DEFAULT_BLOCK_EVENS evens that verify_range uses by default, each
    scanned to completion before the next starts, so working memory is one
    span's arrays, however wide the range: a tracemalloc peak of 2.6 MiB
    over [6, 10^7], the span at n = 6 included, most of it the head's 65
    masks (2.0 MiB).  Spans merge in order: failures are concatenated, and
    max_scan keeps the deepest first hit, the least n within a span and
    the earlier span on a tie.
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
        hits = _first_hits(table, lo, hi)
        failures.extend((lo + 2 * hits.rows[hits.first <= 0]).tolist())
        deepest = _deepest_hit(hits)
        if deepest is not None and (max_scan is None or deepest[0] > max_scan[0]):
            max_scan = (deepest[0], lo + 2 * deepest[1])
        del hits  # not alive beside the next span's
    return DecompositionSweep(
        n_min=n_min,
        n_max=n_max,
        count=(n_max - n_min) // 2 + 1,
        failures=tuple(failures),
        max_scan=max_scan,
    )
