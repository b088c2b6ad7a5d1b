"""The program names the benchmark's tracer rebinds, exercised under it.

perfbench/rounds.py times a round by rebinding public module attributes
(Tracer.install) and sizes some spans from a call's positional path
argument.  A rename, or a signature change that moves such a path,
fails every traced round of the benchmark; this test fails first.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from factorwitness import report, search, sieve
from factorwitness.errors import SweepInterrupted

ROUNDS = Path(__file__).resolve().parent.parent / "perfbench" / "rounds.py"
N_MAX = 2_000
SPANS = (
    "sieve.build_table",
    "search.verify_range",
    "search.decompose_range",
    "search.checkpoint_save",
    "search.checkpoint_resume",
    "conjecture.classify_equality",
    "report.emit_records",
    "report.summary_digest",
)


@pytest.fixture
def rounds(monkeypatch):
    # rounds.py prepends the checkout's src to sys.path; keep that local.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_rounds", ROUNDS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_cover_a_resumed_sweep(rounds, tmp_path):
    originals = {name: getattr(search, name) for name in ("verify_range", "checkpoint_save")}
    tracer = rounds.Tracer()
    tracer.install()
    try:
        table = sieve.build_table(N_MAX)
        job = search.RangeJob(n_min=6, n_max=N_MAX, table_limit=N_MAX,
                              workers=1, checkpoint_interval=100)
        ckpt = tmp_path / "checkpoint.json"
        with pytest.raises(SweepInterrupted):
            search.verify_range(table, job, checkpoint_path=str(ckpt), stop_after_blocks=3)
        summary = search.verify_range(table, job, checkpoint_path=str(ckpt))
        records = tmp_path / "records.ndjson"
        report.emit_records(summary, "ndjson", str(records), include_timing=False)
        digest = report.summary_digest(summary)
        sweep = search.decompose_range(table, 6, N_MAX)
    finally:
        tracer.uninstall()
    assert {name: getattr(search, name) for name in originals} == originals

    totals = tracer.totals()
    assert [name for name in SPANS if totals.get(name, {}).get("calls", 0) < 1] == []
    assert totals["search.checkpoint_save"]["bytes"] > 0
    assert totals["report.emit_records"]["bytes"] == records.stat().st_size
    assert not ckpt.exists() and summary.clean and sweep.failures == ()
    whole = search.verify_range(table, search.RangeJob(n_min=6, n_max=N_MAX, table_limit=N_MAX))
    assert report.summary_digest(whole) == digest

    arrays = (table.odd_lpf, table.odd_prime_bits, table.small_odd_primes)
    assert rounds.table_mb(table) == sum(a.nbytes for a in arrays) / 2**20
