"""Serialization of sweep results: NDJSON (primary), CSV (projection).

A record stream is complete iff its last record is the single summary
record; everything before it is the flat list of noteworthy instances
(equality cases, anomalies, counterexample candidates) in a canonical
order.  Both formats render the records of search.summary_to_records,
and parsing turns text back into records for search.summary_from_records,
so it reverses emission exactly.  A digest over the canonical timing-free
NDJSON form lets two runs be compared without caring about wall-clock
fields or output format.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone

# CPython's built-in sha256, as its random module takes _sha512: hashlib
# would load OpenSSL's libcrypto, 3.57 MiB resident beside numpy.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256

from .conjecture import DescentTrace, LemmaTrace
from .errors import ReportFormatError, ReportWriteError
from .search import (
    PARTIAL_MARKER,
    RECORD_FIELDS,
    SUMMARY_KINDS,
    RangeSummary,
    summary_from_records,
    summary_to_records,
)

NDJSON = "ndjson"
CSV = "csv"
FORMATS = (NDJSON, CSV)

# ---------------------------------------------------------------------------
# CSV cell codec: record values <-> cell text, keyed by column
# ---------------------------------------------------------------------------

_LIST_SEPARATORS = {"factors": ";", "max_first_witness_index": ":", "max_witness_ratio": ":"}
_MAP_COLUMNS = ("witness_index_histogram", "histogram")
_FLOAT_COLUMNS = ("elapsed_seconds", "evens_per_second")
_TEXT_COLUMNS = ("family",)


def _csv_columns(kinds) -> list[str]:
    columns = ["record"]
    for kind, fields in RECORD_FIELDS.items():
        if kind in kinds:
            columns += [name for name in fields if name not in columns]
    return columns


def _encode_cell(column: str, value) -> str:
    if value is None:
        return ""
    if column in _LIST_SEPARATORS:
        return _LIST_SEPARATORS[column].join(str(x) for x in value)
    if column in _MAP_COLUMNS:
        return ";".join(f"{key}:{c}" for key, c in value.items())
    if column in _FLOAT_COLUMNS:
        return repr(value)
    return str(value)


def _decode_cell(column: str, text: str):
    if column in _MAP_COLUMNS:
        pieces = (piece.split(":") for piece in text.split(";")) if text else ()
        return {key: int(c) for key, c in pieces}
    if text == "":
        return None
    if column in _LIST_SEPARATORS:
        return [int(x) for x in text.split(_LIST_SEPARATORS[column])]
    if column in _FLOAT_COLUMNS:
        return float(text)
    if column in _TEXT_COLUMNS:
        return text
    return int(text)


def _csv_records(text: str) -> list[dict]:
    """Records of a CSV stream; empty cells outside a kind's fields are absent."""
    rows = csv.reader(io.StringIO(text))
    header = next(rows, [])
    records = []
    for cells in rows:
        if not cells:
            continue
        if len(cells) != len(header):
            raise ReportFormatError(
                f"CSV line {rows.line_num} has {len(cells)} cells, header has {len(header)}"
            )
        fields = RECORD_FIELDS.get(cells[0], ())
        records.append(
            {"record": cells[0]}
            | {
                column: _decode_cell(column, cell)
                for column, cell in zip(header[1:], cells[1:])
                if cell or column in fields
            }
        )
    return records


# ---------------------------------------------------------------------------
# public render / emit / parse / digest
# ---------------------------------------------------------------------------


def _render(records: list[dict], fmt: str, kinds) -> str:
    if fmt == NDJSON:
        return "".join(
            json.dumps(rec, separators=(",", ":"), ensure_ascii=True) + "\n" for rec in records
        )
    if fmt == CSV:
        columns = _csv_columns(kinds)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_encode_cell(c, rec.get(c)) for c in columns] for rec in records)
        return buf.getvalue()
    raise ReportFormatError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def render_records(summary: RangeSummary, fmt: str = NDJSON, include_timing: bool = True) -> str:
    """The full record stream as one string."""
    return _render(summary_to_records(summary, include_timing), fmt, SUMMARY_KINDS)


def emit_records(summary: RangeSummary, fmt, dest, include_timing: bool = True) -> int:
    """Write the record stream of summary to dest; see write_records."""
    return write_records(summary_to_records(summary, include_timing), SUMMARY_KINDS, fmt, dest)


def write_records(records: list[dict], kinds, fmt, dest) -> int:
    """Write records to dest (path or text file object): every stream's writer.

    kinds, the record kinds the stream can hold, fix the CSV header.
    Returns the number of records written.  On an I/O failure a partial
    marker record is appended on a line of its own if at all possible and
    ReportWriteError is raised; a stream holding the marker never parses.
    """
    text = _render(records, fmt, kinds)
    own = isinstance(dest, (str, bytes, os.PathLike))
    if own:
        try:
            fh = open(dest, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise ReportWriteError(f"cannot open {dest!r} for writing: {exc}") from exc
    else:
        fh = dest
    try:
        fh.write(text)
        fh.flush()
        if own:
            fh.close()
    except OSError as exc:
        with contextlib.suppress(OSError, ValueError):  # ValueError: fh is closed
            # the marker on a line of its own, without a CSV header
            marker = _render([{"record": PARTIAL_MARKER}], fmt, kinds)
            fh.write("\n" + marker.splitlines(keepends=True)[-1])
            fh.flush()
        if own:
            with contextlib.suppress(OSError):
                fh.close()
        raise ReportWriteError(f"failed writing {fmt} records: {exc}") from exc
    return len(records)


def check_writable(*paths) -> None:
    """Refuse, with ReportWriteError, a path that could not be written.

    An existing path must be a writable file, a new one needs an existing,
    writable directory, and None and "-" (stdout) pass.  Nothing is
    created or truncated.
    """
    for path in paths:
        if path in (None, "-"):
            continue
        if os.path.isdir(path):
            raise ReportWriteError(f"cannot write {path!r}: it is a directory")
        target = path if os.path.exists(path) else os.path.dirname(os.path.abspath(path))
        if not os.access(target, os.W_OK):
            raise ReportWriteError(f"cannot write {path!r}: {target!r} is missing or not writable")


def parse_records(src, fmt: str = NDJSON) -> RangeSummary:
    """Parse a record stream back into its summary.

    src is the stream itself as a str, a path (os.PathLike or bytes), or
    a text file object.  Malformed streams raise ReportFormatError.
    """
    if isinstance(src, str):
        text = src
    elif isinstance(src, (bytes, os.PathLike)):
        try:
            with open(src, "r", encoding="utf-8", newline="") as fh:
                text = fh.read()
        except OSError as exc:
            raise ReportWriteError(f"cannot read records from {src!r}: {exc}") from exc
    else:
        text = src.read()
    try:
        if fmt == NDJSON:
            records = [json.loads(line) for line in text.split("\n") if line.strip()]
        elif fmt == CSV:
            records = _csv_records(text)
        else:
            raise ReportFormatError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    except (ValueError, csv.Error) as exc:
        raise ReportFormatError(f"bad {fmt} stream: {exc}") from exc
    return summary_from_records(records)


def canonical_bytes(summary: RangeSummary) -> bytes:
    """Timing-free NDJSON form; identical across runs and worker counts."""
    return render_records(summary, NDJSON, include_timing=False).encode("ascii")


def summary_digest(summary: RangeSummary) -> str:
    return sha256(canonical_bytes(summary)).hexdigest()


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    """Provenance sidecar for one emitted record stream."""

    tool_version: str
    created_utc: str
    job: dict
    record_count: int
    digest: str

    @classmethod
    def for_run(cls, tool_version: str, job_identity: dict, summary: RangeSummary) -> "RunManifest":
        return cls(
            tool_version=tool_version,
            created_utc=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            job=dict(job_identity),
            record_count=len(summary_to_records(summary, include_timing=False)),
            digest=summary_digest(summary),
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        raw = json.loads(text)
        return cls(**{f.name: raw[f.name] for f in fields(cls)})

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")


# ---------------------------------------------------------------------------
# proof trace rendering
# ---------------------------------------------------------------------------


def render_proof_trace(trace) -> str:
    """Human-readable transcript of a construction or decomposition."""
    if isinstance(trace, LemmaTrace):
        p_i = trace.n - trace.value
        head = (
            f"witness construction for (n={trace.n}, k={trace.k}), p_k = {trace.pk}\n"
            f"  i = {trace.i}: n - p_{trace.i} = {trace.n} - {p_i} = {trace.value}\n"
        )
        if not trace.used_bertrand:
            body = (
                f"  largest factor {trace.produced_prime} > p_k = {trace.pk};"
                f" take q = {trace.produced_prime}\n"
            )
        else:
            body = (
                f"  largest factor equals p_k exactly:"
                f" {trace.value} = {trace.m} * {trace.pk}, cofactor m = {trace.m} odd, >= 3\n"
                f"  hence 3 * {trace.pk} <= {trace.value} < {trace.n},"
                f" and the next prime {trace.produced_prime} < 2 * {trace.pk}"
                f" (Bertrand); take q = {trace.produced_prime}\n"
            )
        tail = (
            f"  conclusion: q = {trace.produced_prime} is prime with"
            f" {trace.pk} < {trace.produced_prime} < {trace.n}\n"
        )
        return head + body + tail
    if isinstance(trace, DescentTrace):
        return (
            f"two-prime decomposition of {trace.n}"
            f" ({trace.scanned} odd primes below it)\n"
            f"  first hit at i = {trace.i}: p_{trace.i} = {trace.p},"
            f" {trace.n} - {trace.p} = {trace.q} is prime\n"
            f"  {trace.n} = {trace.p} + {trace.q}\n"
        )
    raise ReportFormatError(f"cannot render a {type(trace).__name__}")
