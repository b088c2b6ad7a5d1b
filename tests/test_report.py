"""Record streams: emission, parsing, digests, manifests, trace rendering."""

import hashlib
import importlib.util
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from factorwitness import report
from factorwitness.conjecture import (
    construct_lemma_prime,
    evaluate_instance,
    goldbach_decompose,
    make_instance,
)
from factorwitness.errors import ReportFormatError, ReportWriteError
from factorwitness.report import (
    CSV,
    NDJSON,
    RunManifest,
    canonical_bytes,
    emit_records,
    parse_records,
    render_proof_trace,
    render_records,
    summary_digest,
    summary_to_records,
    write_records,
)
from factorwitness.search import RangeJob, to_record, verify_range, witness_statistics

from conftest import src_env


@pytest.fixture(scope="module")
def summary(table1m):
    return verify_range(table1m, RangeJob(n_min=6, n_max=2_000, table_limit=2_000))


def test_round_trip_ndjson(summary):
    text = render_records(summary, NDJSON)
    assert parse_records(text, NDJSON) == summary


def test_round_trip_csv(summary):
    text = render_records(summary, CSV)
    assert parse_records(text, CSV) == summary


def test_round_trip_via_file(summary, tmp_path):
    for fmt, name in ((NDJSON, "out.ndjson"), (CSV, "out.csv")):
        path = tmp_path / name
        count = emit_records(summary, fmt, path)
        assert count == len(summary_to_records(summary))
        assert parse_records(path, fmt) == summary


def test_round_trip_via_file_object(summary):
    buf = io.StringIO()
    emit_records(summary, NDJSON, buf)
    assert parse_records(io.StringIO(buf.getvalue()), NDJSON) == summary


def test_summary_record_is_last_and_unique(summary):
    lines = render_records(summary, NDJSON).splitlines()
    kinds = [json.loads(line)["record"] for line in lines]
    assert kinds[-1] == "summary"
    assert kinds.count("summary") == 1


def test_parse_rejects_missing_summary(summary):
    lines = render_records(summary, NDJSON).splitlines()
    with pytest.raises(ReportFormatError):
        parse_records("\n".join(lines[:-1]) + "\n", NDJSON)


def test_parse_rejects_duplicate_summary(summary):
    lines = render_records(summary, NDJSON).splitlines()
    with pytest.raises(ReportFormatError):
        parse_records("\n".join([lines[-1]] + lines) + "\n", NDJSON)


def test_parse_rejects_count_mismatch(summary):
    lines = render_records(summary, NDJSON).splitlines()
    # drop one equality record: the summary's equality_count now lies
    assert json.loads(lines[0])["record"] == "equality_case"
    with pytest.raises(ReportFormatError):
        parse_records("\n".join(lines[1:]) + "\n", NDJSON)


def test_parse_rejects_unknown_record(summary):
    text = '{"record":"mystery"}\n' + render_records(summary, NDJSON)
    with pytest.raises(ReportFormatError):
        parse_records(text, NDJSON)


def test_parse_rejects_partial_marker(summary):
    text = render_records(summary, NDJSON) + '{"record":"partial_output"}\n'
    with pytest.raises(ReportFormatError, match="partial"):
        parse_records(text, NDJSON)


def test_parse_rejects_bad_json():
    with pytest.raises(ReportFormatError):
        parse_records("not json at all\n", NDJSON)
    with pytest.raises(ReportFormatError):
        parse_records("", NDJSON)


def test_unknown_format(summary):
    with pytest.raises(ReportFormatError):
        render_records(summary, "xml")
    with pytest.raises(ReportFormatError):
        parse_records("x\n", "xml")


def test_digest_ignores_timing_and_format(summary):
    # Same range swept again: wall time differs, digest must not.
    again = parse_records(render_records(summary, CSV), CSV)
    assert again.elapsed_seconds == summary.elapsed_seconds
    assert summary_digest(again) == summary_digest(summary)
    stripped = parse_records(
        render_records(summary, NDJSON, include_timing=False), NDJSON
    )
    assert stripped.elapsed_seconds == 0.0
    assert summary_digest(stripped) == summary_digest(summary)
    assert canonical_bytes(stripped) == canonical_bytes(summary)


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="no built-in sha256 module in this interpreter",
)
def test_digest_loads_no_openssl(table1m):
    # The digest takes CPython's built-in sha256 (_sha2 from 3.12,
    # _sha256 before), so computing it loads no OpenSSL binding of its
    # own; the digest is hashlib's.  numpy 1.x imports numpy.random with
    # numpy, whose secrets -> hmac chain loads _hashlib first, so the
    # probe asserts only that factorwitness adds none.
    assert report.sha256.__module__ in ("_sha2", "_sha256")
    probe = (
        "import sys\n"
        "import numpy\n"
        "before = '_hashlib' in sys.modules\n"
        "from factorwitness import RangeJob, build_table, verify_range\n"
        "from factorwitness.report import summary_digest\n"
        "job = RangeJob(n_min=6, n_max=10**4, table_limit=10**4)\n"
        "print(summary_digest(verify_range(build_table(10**4), job))[:16])\n"
        "print(before, '_hashlib' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    job = RangeJob(n_min=6, n_max=10**4, table_limit=10**4)
    expected = hashlib.sha256(canonical_bytes(verify_range(table1m, job))).hexdigest()
    digest, before, after = proc.stdout.split()
    assert digest == expected[:16]
    assert after == before


def test_emit_write_failure_marks_partial(summary):
    class FlakyOnce(io.StringIO):
        def __init__(self):
            super().__init__()
            self.failed = False

        def write(self, text):
            if not self.failed and len(text) > 100:
                self.failed = True
                raise OSError("disk full")
            return super().write(text)

    dest = FlakyOnce()
    with pytest.raises(ReportWriteError):
        emit_records(summary, NDJSON, dest)
    assert '"partial_output"' in dest.getvalue()
    with pytest.raises(ReportFormatError, match="partial"):
        parse_records(dest.getvalue() or "x", NDJSON)


def test_emit_unwritable_path(summary, tmp_path):
    with pytest.raises(ReportWriteError):
        emit_records(summary, NDJSON, tmp_path / "no" / "such" / "dir" / "out")


def test_manifest_round_trip(summary):
    job = RangeJob(n_min=6, n_max=2_000, table_limit=2_000)
    manifest = RunManifest.for_run("0.1.0", job.identity(), summary)
    assert manifest.digest == summary_digest(summary)
    assert manifest.record_count == len(
        summary_to_records(summary, include_timing=False)
    )
    again = RunManifest.from_json(manifest.to_json())
    assert again == manifest


def test_manifest_write(summary, tmp_path):
    job = RangeJob(n_min=6, n_max=2_000, table_limit=2_000)
    manifest = RunManifest.for_run("0.1.0", job.identity(), summary)
    path = tmp_path / "manifest.json"
    manifest.write(path)
    assert RunManifest.from_json(path.read_text()) == manifest


def test_manifest_bytes_pinned(tmp_path):
    # Keys sorted, two-space indent, one trailing newline in the file.
    manifest = RunManifest(
        tool_version="0.1.0",
        created_utc="2026-01-02T03:04:05+00:00",
        job={"n_min": 6, "n_max": 1000},
        record_count=4,
        digest="ab" * 32,
    )
    text = (
        '{\n  "created_utc": "2026-01-02T03:04:05+00:00",\n'
        f'  "digest": "{"ab" * 32}",\n'
        '  "job": {\n    "n_max": 1000,\n    "n_min": 6\n  },\n'
        '  "record_count": 4,\n  "tool_version": "0.1.0"\n}'
    )
    assert manifest.to_json() == text
    manifest.write(tmp_path / "manifest.json")
    assert (tmp_path / "manifest.json").read_bytes() == (text + "\n").encode()
    assert RunManifest.from_json(text) == manifest


def test_render_lemma_traces(table1m):
    inst = make_instance(table1m, 98, 6)
    tr = construct_lemma_prime(table1m, inst, evaluate_instance(table1m, inst))
    text = render_proof_trace(tr)
    assert "98 - 3 = 95" in text
    assert "take q = 19" in text
    assert "17 < 19 < 98" in text
    assert "Bertrand" not in text

    inst = make_instance(table1m, 30, 2)
    tr = construct_lemma_prime(table1m, inst, evaluate_instance(table1m, inst))
    text = render_proof_trace(tr)
    assert "25 = 5 * 5" in text
    assert "Bertrand" in text
    assert "5 < 7 < 30" in text


def test_render_descent_trace(table1m):
    text = render_proof_trace(goldbach_decompose(table1m, 98))
    assert "98 = 19 + 79" in text
    assert "i = 7" in text


def test_render_rejects_unknown_type():
    with pytest.raises(ReportFormatError):
        render_proof_trace(object())


def _one_kind_stream(kind, rows, fmt):
    """The stream cli's edge-cases and stats write for rows of one kind."""
    out = io.StringIO()
    write_records([to_record(kind, row) for row in rows], (kind,), fmt, out)
    return out.getvalue()


def test_render_edge_cases_shapes(table1m):
    from factorwitness.search import enumerate_edge_cases

    cases = enumerate_edge_cases(table1m, 100)
    nd = _one_kind_stream("equality_case", cases, NDJSON)
    rows = [json.loads(line) for line in nd.splitlines()]
    assert [(r["n"], r["k"]) for r in rows] == [(12, 1), (30, 1), (30, 2), (84, 1)]
    cs = _one_kind_stream("equality_case", cases, CSV).splitlines()
    assert cs[0] == "record,n,k,factors,family,r"
    assert len(cs) == 5
    assert "30,2,3;5,known_30_2," in cs[3]


def test_render_stats_shapes(table1m):
    stats = witness_statistics(table1m, 100)
    rec = json.loads(_one_kind_stream("witness_stats", [stats], NDJSON))
    assert rec["record"] == "witness_stats"
    assert rec["histogram"] == {"1": 36, "2": 1}
    assert rec["max_first_witness_index"] == [2, 30, 2]
    lines = _one_kind_stream("witness_stats", [stats], CSV).splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("witness_stats,100,37,")


@pytest.mark.parametrize(
    "mangle",
    [
        lambda lines: ['{"record":"summary"}'],
        lambda lines: ["[1, 2]"] + lines,
        lambda lines: ["3"] + lines,
        lambda lines: [lines[0].replace('"k":', '"kk":')] + lines[1:],
        lambda lines: [lines[0].replace('"family":"', '"family":"x')] + lines[1:],
        lambda lines: [lines[0].replace('"factors":[', '"factors":7,"x":[')] + lines[1:],
        lambda lines: lines[:-1] + [lines[-1].replace('"n_min":6', '"n_min":"six"')],
        lambda lines: lines[:-1] + [lines[-1].replace('"equality_count":', '"equality_count":"')],
        lambda lines: lines[:-1] + ['{"record":"witness_stats"}', lines[-1]],
        lambda lines: lines[:-1] + [lines[-1].replace('"n_min":6', '"n_min":6.5')],
        lambda lines: [lines[0].replace('"n":12', '"n":"12"')] + lines[1:],
    ],
    ids=[
        "summary-fields-missing",
        "line-is-a-list",
        "line-is-a-number",
        "unknown-field",
        "unknown-family",
        "factors-not-a-list",
        "count-not-a-number",
        "count-is-a-string",
        "record-of-another-stream",
        "float-for-an-integer",
        "string-for-an-integer",
    ],
)
def test_parse_rejects_malformed_ndjson(summary, mangle):
    lines = render_records(summary, NDJSON).splitlines()
    with pytest.raises(ReportFormatError):
        parse_records("\n".join(mangle(lines)) + "\n", NDJSON)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda rows: [row[:12] + row[13:] for row in rows],  # equal_count column gone
        lambda rows: [rows[0]] + [rows[1][:4] + ["3;x"] + rows[1][5:]] + rows[2:],
        lambda rows: [rows[0]] + [rows[1][:2] + ["twelve"] + rows[1][3:]] + rows[2:],
        lambda rows: rows[:-1] + [rows[-1][:16] + ["1:2:3"] + rows[-1][17:]],
        lambda rows: rows[:-1] + [rows[-1][:16] + ["1"] + rows[-1][17:]],
        lambda rows: [rows[0]] + [rows[1] + ["extra"]] + rows[2:],
        lambda rows: [rows[0]] + [rows[1][:3] + ["7"] + rows[1][4:]] + rows[2:],
        lambda rows: [rows[0]] + [["mystery"] + rows[1][1:]] + rows[2:],
        lambda rows: rows[:1] + rows[2:],
        lambda rows: rows[:1],
    ],
    ids=[
        "summary-column-missing",
        "bad-factors-cell",
        "bad-integer-cell",
        "bad-histogram-piece",
        "histogram-piece-without-count",
        "row-too-long",
        "cell-outside-the-kind",
        "unknown-kind",
        "record-dropped",
        "header-only",
    ],
)
def test_parse_rejects_malformed_csv(summary, mangle):
    text = render_records(summary, CSV)
    rows = [line.split(",") for line in text.splitlines()]
    assert rows[0][12] == "equal_count"
    assert rows[0][4] == "factors" and rows[0][16] == "witness_index_histogram"
    assert rows[1][0] == "equality_case"
    assert parse_records(text, CSV) == summary
    mangled = "\n".join(",".join(row) for row in mangle(rows)) + "\n"
    with pytest.raises(ReportFormatError):
        parse_records(mangled, CSV)


def _relabel_first_case(records):
    # (12, 1) is 3**2 + 3; claim it is a novel case without an exponent.
    records[0].update(family="novel", r=None)


def _bump_histogram(records):
    records[-1]["witness_index_histogram"]["2"] += 1


# Each keeps the stream's shape and its record counts, so only the
# summary's arithmetic or the family rule can refuse it.
FALSE_SUMMARIES = {
    "vacuous-count-997": lambda records: records[-1].update(vacuous_count=997),
    "equal-count-off": lambda records: records[-1].update(
        equal_count=7, strict_count=2039
    ),
    "histogram-off": _bump_histogram,
    "family-relabelled": _relabel_first_case,
}


@pytest.mark.parametrize("falsify", FALSE_SUMMARIES.values(), ids=FALSE_SUMMARIES.keys())
def test_parse_rejects_a_false_summary(summary, falsify):
    assert (summary.n_min, summary.n_max, summary.vacuous_count) == (6, 2_000, 998)
    records = [json.loads(line) for line in render_records(summary, NDJSON).splitlines()]
    assert (records[0]["n"], records[0]["k"]) == (12, 1)
    falsify(records)
    text = "".join(json.dumps(rec) + "\n" for rec in records)
    with pytest.raises(ReportFormatError):
        parse_records(text, NDJSON)


def test_parse_takes_a_str_as_stream_text(table1m, tmp_path):
    # [100, 110] has no equality cases: its stream is the summary alone.
    bare = verify_range(table1m, RangeJob(n_min=100, n_max=110, table_limit=110))
    text = render_records(bare, NDJSON)
    assert text.count("\n") == 1
    assert parse_records(text.rstrip("\n"), NDJSON) == bare
    path = tmp_path / "bare.ndjson"
    path.write_text(text)
    assert parse_records(path, NDJSON) == bare
    assert parse_records(bytes(path), NDJSON) == bare
    with pytest.raises(ReportFormatError):
        parse_records(str(path), NDJSON)


def test_readme_library_imports():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(from factorwitness import \(.*?\))\n", readme, re.S)
    names = re.findall(r"\w+", block.group(1).split("(", 1)[1])
    assert "summary_to_records" in names
    namespace = {}
    exec(block.group(1), namespace)
    assert all(name in namespace for name in names)
