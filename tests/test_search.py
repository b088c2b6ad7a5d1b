"""Range sweeps: aggregation, determinism, checkpointing, derived queries."""

import dataclasses
import errno
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from factorwitness import bruteforce, search
from factorwitness.bruteforce import BruteOracle, trial_is_prime
from factorwitness.conjecture import (
    OutcomeKind,
    evaluate_instance,
    first_witness_index,
    make_instance,
)
from factorwitness.errors import (
    AnomalyFoundError,
    CheckpointMismatchError,
    ConfigurationError,
    CounterexampleFoundError,
    CoverageError,
    EngineError,
    PreconditionError,
    SweepInterrupted,
)
from factorwitness.report import (
    CSV,
    NDJSON,
    canonical_bytes,
    parse_records,
    render_records,
    summary_digest,
    summary_to_records,
)
from factorwitness.search import (
    DEFAULT_BLOCK_EVENS,
    HEAD_MIN_ALIVE,
    HEAD_PRIMES,
    TAIL_CELLS,
    RangeJob,
    _first_hits,
    _popcount,
    _set_bits,
    checkpoint_resume,
    decompose_range,
    enumerate_edge_cases,
    merge_summaries,
    verify_range,
    witness_statistics,
)
from factorwitness.sieve import CELL_LPF, INDEX_CAP, PrimeTable, build_table, unpack_bits

from conftest import (
    clear_bits,
    expand_hits,
    holds_only_its_fields,
    make_doctored,
    scalar_first_hits,
    src_env,
    table_digests,
)


def job_for(n_min, n_max, table, **kw):
    kw.setdefault("table_limit", max(n_max, 6))
    return RangeJob(n_min=n_min, n_max=n_max, **kw)


# -- job validation -----------------------------------------------------------


def test_job_validation():
    with pytest.raises(ConfigurationError):
        RangeJob(n_min=7, n_max=100, table_limit=100)
    with pytest.raises(ConfigurationError):
        RangeJob(n_min=6, n_max=101, table_limit=101)
    with pytest.raises(ConfigurationError):
        RangeJob(n_min=4, n_max=100, table_limit=100)
    with pytest.raises(ConfigurationError):
        RangeJob(n_min=100, n_max=6, table_limit=100)
    with pytest.raises(ConfigurationError):
        RangeJob(n_min=6, n_max=100, table_limit=50)
    with pytest.raises(ConfigurationError):
        RangeJob(n_min=6, n_max=100, table_limit=100, workers=0)
    with pytest.raises(ConfigurationError):
        RangeJob(n_min=6, n_max=100, table_limit=100, checkpoint_interval=0)


def test_verify_requires_coverage(table1m):
    job = RangeJob(n_min=6, n_max=100, table_limit=2_000_000)
    with pytest.raises(CoverageError):
        verify_range(table1m, job)


# -- frozen summaries ---------------------------------------------------------


def test_single_point_range(table1m):
    s = verify_range(table1m, job_for(6, 6, table1m))
    assert s.instances_evaluated == 1
    assert s.vacuous_count == 1
    assert s.strict_count == s.equal_count == 0
    assert s.witness_index_histogram == {}
    assert s.max_first_witness_index is None
    assert s.max_witness_ratio is None
    assert s.clean


def test_summary_6_to_100(table1m):
    s = verify_range(table1m, job_for(6, 100, table1m))
    assert s.instances_evaluated == 85
    assert s.vacuous_count == 48
    assert s.strict_count == 33
    assert s.equal_count == 4
    assert s.counterexamples == () and s.anomalies == ()
    assert [(r.n, r.k) for r in s.equality_cases] == [(12, 1), (30, 1), (30, 2), (84, 1)]
    assert s.witness_index_histogram == {1: 36, 2: 1}
    assert s.max_first_witness_index == (2, 30, 2)
    assert s.max_witness_ratio == (1, 1, 12, 1)


def test_summary_matches_oracle_2000(table1m, oracle10k):
    s = verify_range(table1m, job_for(6, 2_000, table1m))
    o = oracle10k.summarize(6, 2_000)
    assert summary_to_records(s, include_timing=False) == summary_to_records(
        o, include_timing=False
    )


def test_instance_count_identity(table1m):
    s = verify_range(table1m, job_for(6, 5_000, table1m))
    assert s.instances_evaluated == (
        s.vacuous_count
        + s.strict_count
        + s.equal_count
        + len(s.counterexamples)
        + len(s.anomalies)
    )


# -- determinism --------------------------------------------------------------


def test_block_size_is_invisible(table1m, monkeypatch):
    # A span is max(interval, DEFAULT_BLOCK_EVENS) evens; a default of 1
    # lets each interval cut [6, 2000] into spans of its own size.
    monkeypatch.setattr(search, "DEFAULT_BLOCK_EVENS", 1)
    digests = set()
    for interval in (7, 133, 1_000, DEFAULT_BLOCK_EVENS):
        s = verify_range(
            table1m, job_for(6, 2_000, table1m, checkpoint_interval=interval)
        )
        digests.add(canonical_bytes(s))
    assert len(digests) == 1


def test_worker_count_is_invisible(table1m, monkeypatch):
    monkeypatch.setattr(search, "DEFAULT_BLOCK_EVENS", 1)  # 10 spans of 200 evens
    base = verify_range(table1m, job_for(6, 4_000, table1m, checkpoint_interval=200))
    pooled = verify_range(
        table1m, job_for(6, 4_000, table1m, checkpoint_interval=200, workers=3)
    )
    assert canonical_bytes(base) == canonical_bytes(pooled)


# -- canonical digests --------------------------------------------------------

# Full sweeps [6, limit]: regression gates for any change to the tables
# or the sweep kernel.
CANONICAL = {
    1_000_000: (
        "528e467fde3190c5db61358c89de683a93261a5fca80523521e510a5dd43f387",
        3_104_370,
    ),
    10_000_000: (
        "225d9abb5eb2c50b0f0b2d4f4f70766e4896b3256b5231a6809d2a869995bbd7",
        37_323_350,
    ),
    # 16 equality cases; max_first_witness_index (5, 780622, 43).
    100_000_000: (
        "5370fac573ec2c1fcdeef11c4e508291ee486f6e665fd98efaf03250b7ee9f26",
        436_023_790,
    ),
}


@pytest.mark.parametrize("fixture", ["table1m", "table10m", "table100m"])
def test_canonical_digest(request, fixture):
    if fixture == "table100m":
        # Built here rather than as a session fixture, so that its
        # ~260 MiB are freed when the test ends.  test_sieve pins the
        # bytes of the 10^6 and 10^7 tables, and this the 10^8 one's.
        table = build_table(100_000_000)
        assert table_digests(table) == ("f456c99d8a1c3b5c", "564ab605d1482abc")
    else:
        table = request.getfixturevalue(fixture)
    s = verify_range(table, job_for(6, table.limit, table))
    assert (summary_digest(s), s.instances_evaluated) == CANONICAL[table.limit]
    if fixture == "table100m":
        # The decompose-1e8 benchmark's answer, on the same table.
        sweep = decompose_range(table, 6, 10**8)
        assert (sweep.count, sweep.failures, sweep.max_scan) == (
            49_999_998, (), (182, 60_119_912)
        )
        assert holds_only_its_fields(table)


# -- merging ------------------------------------------------------------------


def test_merge_adjacent_equals_whole(table1m):
    whole = verify_range(table1m, job_for(6, 3_000, table1m))
    left = verify_range(table1m, job_for(6, 1_500, table1m))
    right = verify_range(table1m, job_for(1_502, 3_000, table1m))
    merged = merge_summaries(left, right)
    assert canonical_bytes(merged) == canonical_bytes(whole)


def test_merge_rejects_gaps_and_overlap(table1m):
    a = verify_range(table1m, job_for(6, 100, table1m))
    b = verify_range(table1m, job_for(104, 200, table1m))
    with pytest.raises(PreconditionError):
        merge_summaries(a, b)  # gap at 102
    c = verify_range(table1m, job_for(100, 200, table1m))
    with pytest.raises(PreconditionError):
        merge_summaries(a, c)  # overlap at 100


def _ratio_summary(n_min, n_max, ratio):
    """A hand-built summary of [n_min, n_max] whose only witness has ratio."""
    return search.RangeSummary(
        n_min=n_min, n_max=n_max, instances_evaluated=1, vacuous_count=0,
        strict_count=1, equal_count=0, counterexamples=(), anomalies=(),
        equality_cases=(), witness_index_histogram={ratio[0]: 1},
        max_first_witness_index=(ratio[0], ratio[2], ratio[3]),
        max_witness_ratio=ratio, elapsed_seconds=0.0, evens_per_second=0.0,
    )


@pytest.mark.parametrize("larger_on_the_left", [True, False])
def test_merge_keeps_the_larger_witness_ratio(larger_on_the_left):
    # 3/2 > 4/3 although 4 > 3: merging compares the fractions fwi/k,
    # whichever of the two adjacent ranges holds the larger one.
    if larger_on_the_left:
        ratios = [(3, 2, 100, 2), (4, 3, 200, 3)]
    else:
        ratios = [(4, 3, 100, 3), (3, 2, 200, 2)]
    left = _ratio_summary(6, 100, ratios[0])
    right = _ratio_summary(102, 200, ratios[1])
    larger = ratios[0] if larger_on_the_left else ratios[1]
    assert merge_summaries(left, right).max_witness_ratio == larger


# -- checkpointing ------------------------------------------------------------


def test_interrupt_and_resume(table1m, tmp_path):
    ck = tmp_path / "sweep.ckpt"
    job = job_for(6, 20_000, table1m, checkpoint_interval=1_000)  # 10 blocks
    ref = verify_range(table1m, job)
    with pytest.raises(SweepInterrupted) as info:
        verify_range(table1m, job, checkpoint_path=ck, stop_after_blocks=4)
    assert info.value.blocks_done == 4
    assert ck.exists()
    resumed = verify_range(table1m, job, checkpoint_path=ck)
    assert canonical_bytes(resumed) == canonical_bytes(ref)
    assert not ck.exists()  # consumed on completion


def test_resume_may_change_workers(table1m, tmp_path):
    ck = tmp_path / "sweep.ckpt"
    job = job_for(6, 20_000, table1m, checkpoint_interval=1_000)
    ref = verify_range(table1m, job)
    with pytest.raises(SweepInterrupted):
        verify_range(table1m, job, checkpoint_path=ck, stop_after_blocks=5)
    wide = job_for(6, 20_000, table1m, checkpoint_interval=1_000, workers=2)
    resumed = verify_range(table1m, wide, checkpoint_path=ck)
    assert canonical_bytes(resumed) == canonical_bytes(ref)


def test_checkpoint_job_mismatch(table1m, tmp_path):
    # The checkpoint's identity is the range: another n_min or n_max is
    # refused, and another block size resumes after the same prefix.
    ck = tmp_path / "sweep.ckpt"
    job = job_for(6, 20_000, table1m, checkpoint_interval=1_000)
    with pytest.raises(SweepInterrupted):
        verify_range(table1m, job, checkpoint_path=ck, stop_after_blocks=2)
    for other in (job_for(6, 10_000, table1m), job_for(8, 20_000, table1m)):
        with pytest.raises(CheckpointMismatchError):
            verify_range(table1m, other, checkpoint_path=ck)
    shifted = job_for(6, 20_000, table1m, checkpoint_interval=2_000)
    resumed = verify_range(table1m, shifted, checkpoint_path=ck)
    assert canonical_bytes(resumed) == canonical_bytes(verify_range(table1m, job))


def test_checkpoint_rejects_corruption(table1m, tmp_path):
    ck = tmp_path / "sweep.ckpt"
    job = job_for(6, 20_000, table1m, checkpoint_interval=1_000)
    with pytest.raises(SweepInterrupted):
        verify_range(table1m, job, checkpoint_path=ck, stop_after_blocks=2)
    state = json.loads(ck.read_text())
    state["format_version"] = 999
    ck.write_text(json.dumps(state))
    with pytest.raises(CheckpointMismatchError):
        verify_range(table1m, job, checkpoint_path=ck)
    ck.write_text("{ mangled")
    with pytest.raises(CheckpointMismatchError):
        verify_range(table1m, job, checkpoint_path=ck)


def _drop_equality_record(state):
    kinds = [rec["record"] for rec in state["records"]]
    del state["records"][kinds.index("equality_case")]


@pytest.mark.parametrize(
    "corrupt",
    [
        _drop_equality_record,
        lambda state: state["records"][-1].pop("strict_count"),
        lambda state: state["records"][-1].update(witness_index_histogram=[1, 2]),
        lambda state: state["records"].insert(0, ["not", "an", "object"]),
        lambda state: state["records"][-1].update(n_min=8),
        lambda state: state["records"][-1].update(n_max=20_002),
        lambda state: state["records"][-1].update(n_max=16_005),
        lambda state: state["records"][-1].update(n_max=4),
        lambda state: state.update(format_version=2),
        lambda state: state.update(format_version=1),
        lambda state: state.update(records=[]),
    ],
    ids=[
        "equality-record-dropped",
        "summary-key-missing",
        "histogram-not-a-map",
        "record-not-an-object",
        "records-shift-n-min",
        "records-pass-n-max",
        "records-end-on-odd-n",
        "records-end-below-n-min",
        "version-2",
        "version-1",
        "no-records",
    ],
)
def test_checkpoint_refuses_corrupt_records(table1m, tmp_path, corrupt):
    # Two blocks of 4,000 evens: the checkpoint covers [6, 16004].
    ck = tmp_path / "sweep.ckpt"
    job = job_for(6, 20_000, table1m, checkpoint_interval=4_000)
    with pytest.raises(SweepInterrupted):
        verify_range(table1m, job, checkpoint_path=ck, stop_after_blocks=2)
    state = json.loads(ck.read_text())
    assert state.keys() == {"format_version", "job", "elapsed", "records"}
    assert state["format_version"] == 3 and state["job"] == {"n_min": 6, "n_max": 20_000}
    assert state["records"][-1]["n_max"] == 16_004
    assert sum(rec["record"] == "equality_case" for rec in state["records"]) == 8
    corrupt(state)
    ck.write_text(json.dumps(state))
    with pytest.raises(CheckpointMismatchError):
        verify_range(table1m, job, checkpoint_path=ck)


def test_checkpoint_holds_the_partial_summary(table1m, tmp_path):
    ck = tmp_path / "sweep.ckpt"
    job = job_for(6, 20_000, table1m, checkpoint_interval=1_000)
    with pytest.raises(SweepInterrupted):
        verify_range(table1m, job, checkpoint_path=ck, stop_after_blocks=4)
    part = verify_range(table1m, job_for(6, 8_004, table1m, checkpoint_interval=1_000))
    assert json.loads(ck.read_text())["records"] == summary_to_records(
        part, include_timing=False
    )


def test_stop_requires_checkpoint_path(table1m):
    job = job_for(6, 20_000, table1m, checkpoint_interval=1_000)
    with pytest.raises(ConfigurationError):
        verify_range(table1m, job, stop_after_blocks=2)


@pytest.mark.parametrize("blocks", [0, -1])
def test_stop_after_fewer_than_one_block_is_refused(table1m, tmp_path, blocks):
    ck = tmp_path / "sweep.ckpt"
    job = job_for(6, 20_000, table1m, checkpoint_interval=1_000)
    with pytest.raises(ConfigurationError):
        verify_range(table1m, job, checkpoint_path=ck, stop_after_blocks=blocks)
    assert not ck.exists()


def test_stop_beyond_end_completes(table1m, tmp_path):
    ck = tmp_path / "sweep.ckpt"
    job = job_for(6, 2_000, table1m, checkpoint_interval=1_000)  # 1 block
    s = verify_range(table1m, job, checkpoint_path=ck, stop_after_blocks=5)
    assert s.n_max == 2_000
    assert not ck.exists()


# -- spans: the one unit of sweeping, merging and saving ----------------------


@pytest.mark.parametrize(
    "interval, n_max, span_evens",
    [
        (1, 4_000, 300),  # 7 spans of 300 evens, the last of 198
        (7, 250_000, None),  # one span of 124,998 evens, less than 2^18
        (30_000, 10**6, None),  # 2 spans of 2^18 evens, the second partial
        (100_000, 10**6, None),  # the same 2 spans, in blocks of 10^5
        (200_000, 10**6, None),  # the same 2 spans, in blocks of 2 * 10^5
        (DEFAULT_BLOCK_EVENS, 10**6, None),  # one block per span
        (300_000, 10**6, None),  # 2 spans of 300,000 evens, above the default
    ],
)
def test_span_size_is_invisible(table1m, monkeypatch, interval, n_max, span_evens):
    ref = canonical_bytes(verify_range(table1m, job_for(6, n_max, table1m)))
    if span_evens:
        monkeypatch.setattr(search, "DEFAULT_BLOCK_EVENS", span_evens)
    s = verify_range(table1m, job_for(6, n_max, table1m, checkpoint_interval=interval))
    assert canonical_bytes(s) == ref
    if n_max == 10**6:
        assert summary_digest(s) == CANONICAL[n_max][0]


def test_checkpoint_once_per_span_and_on_stop(table1m, tmp_path, monkeypatch):
    # 15 blocks of 10^4 evens in spans of 10^5; a stop after 13 blocks
    # sweeps the span [6, 200004] and then only [200006, 260004], and the
    # resume the rest.
    monkeypatch.setattr(search, "DEFAULT_BLOCK_EVENS", 100_000)
    ck = tmp_path / "sweep.ckpt"
    job = job_for(6, 300_000, table1m, checkpoint_interval=10_000)
    ref = verify_range(table1m, job)
    saves = []
    save = search.checkpoint_save

    def counted_save(path, job, agg, *rest):
        saves.append(agg.n_max)
        save(path, job, agg, *rest)

    monkeypatch.setattr(search, "checkpoint_save", counted_save)
    with pytest.raises(SweepInterrupted) as info:
        verify_range(table1m, job, checkpoint_path=ck, stop_after_blocks=13)
    assert info.value.blocks_done == 13
    assert saves == [200_004, 260_004]
    part = verify_range(table1m, job_for(6, 260_004, table1m, checkpoint_interval=10_000))
    assert json.loads(ck.read_text())["records"] == summary_to_records(
        part, include_timing=False
    )
    resumed = verify_range(table1m, job, checkpoint_path=ck)
    assert saves == [200_004, 260_004, 300_000]
    assert canonical_bytes(resumed) == canonical_bytes(ref)


def test_resume_may_change_interval_and_workers(table1m, tmp_path, monkeypatch):
    # In spans of 10^5 evens, 20,000 blocks of 7 evens end at 280004,
    # inside the second span.  The resume sweeps on from 280006 in
    # 10^5-even blocks, and its blocks_done counts the blocks of the new
    # size that [6, 480004] takes.
    monkeypatch.setattr(search, "DEFAULT_BLOCK_EVENS", 100_000)
    ck = tmp_path / "sweep.ckpt"
    sevens = job_for(6, 10**6, table1m, checkpoint_interval=7, workers=2)
    with pytest.raises(SweepInterrupted) as info:
        verify_range(table1m, sevens, checkpoint_path=ck, stop_after_blocks=20_000)
    assert info.value.blocks_done == 20_000
    assert checkpoint_resume(ck, sevens)[0].n_max == 280_004
    job = job_for(6, 10**6, table1m, checkpoint_interval=100_000)
    with pytest.raises(SweepInterrupted) as info:
        verify_range(table1m, job, checkpoint_path=ck, stop_after_blocks=1)
    assert (info.value.blocks_done, checkpoint_resume(ck, job)[0].n_max) == (3, 480_004)
    resumed = verify_range(table1m, job, checkpoint_path=ck)
    assert summary_digest(resumed) == CANONICAL[10**6][0]


def test_checkpoint_of_the_whole_range_resumes_to_the_summary(table1m, tmp_path, monkeypatch):
    ck = tmp_path / "sweep.ckpt"
    job = job_for(6, 20_000, table1m)
    ref = verify_range(table1m, job)
    search.checkpoint_save(ck, job, ref, 2.5)

    def no_sweep(*args):
        raise AssertionError("a covered range was swept again")

    monkeypatch.setattr(search, "_sweep_run", no_sweep)
    resumed = verify_range(table1m, job, checkpoint_path=ck, stop_after_blocks=1)
    assert canonical_bytes(resumed) == canonical_bytes(ref)
    assert resumed.elapsed_seconds >= 2.5
    assert not ck.exists()


@pytest.mark.parametrize(
    "module, name, exc",
    [
        (os, "replace", OSError(errno.ENOSPC, "No space left on device")),
        (json, "dumps", TypeError("not JSON serializable")),
    ],
    ids=["rename-fails", "serialize-fails"],
)
def test_failed_checkpoint_save_leaves_no_temp_file(
    table1m, tmp_path, monkeypatch, module, name, exc
):
    def fault(*args, **kwargs):
        raise exc

    monkeypatch.setattr(module, name, fault)
    with pytest.raises(type(exc)):
        verify_range(table1m, job_for(6, 20_000, table1m), checkpoint_path=tmp_path / "ck")
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == []


def test_fail_fast_checkpoints_the_failing_block(table1m, tmp_path, monkeypatch):
    # In spans of 10^5 evens, n = 450,106 lies in the third span of five,
    # [400006, 600004].  Its first hit n - 3 is hidden and given largest
    # factor 1, so its instance k = 1 is a counterexample.  The checkpoint
    # covers the prefix through the end of that span.
    monkeypatch.setattr(search, "DEFAULT_BLOCK_EVENS", 100_000)
    n = 450_106
    doctored = make_doctored(table1m, not_prime=(n - 3,), lpf_overrides={n - 3: 1})
    ck = tmp_path / "sweep.ckpt"
    job = job_for(6, 10**6, doctored, checkpoint_interval=5_000)
    with pytest.raises(CounterexampleFoundError) as info:
        verify_range(doctored, job, checkpoint_path=ck, fail_fast=True)
    assert min(info.value.pairs) == (n, 1)
    agg, _ = checkpoint_resume(ck, job)
    assert agg.n_max == 600_004
    part = verify_range(doctored, job_for(6, 600_004, doctored))
    assert summary_to_records(agg, include_timing=False) == summary_to_records(
        part, include_timing=False
    )


@pytest.mark.parametrize("workers", [2, 3])
def test_pool_over_many_spans(table1m, tmp_path, workers, monkeypatch):
    # In spans of 10^5 evens, [6, 10^6] makes 5, more than either pool has
    # workers.  A stop after 23 blocks of 10^4 evens ends inside the third.
    monkeypatch.setattr(search, "DEFAULT_BLOCK_EVENS", 100_000)
    job = job_for(6, 10**6, table1m, checkpoint_interval=10_000, workers=workers)
    assert summary_digest(verify_range(table1m, job)) == CANONICAL[10**6][0]
    ck = tmp_path / "sweep.ckpt"
    with pytest.raises(SweepInterrupted) as info:
        verify_range(table1m, job, checkpoint_path=ck, stop_after_blocks=23)
    assert info.value.blocks_done == 23
    assert checkpoint_resume(ck, job)[0].n_max == 460_004
    resumed = verify_range(table1m, job, checkpoint_path=ck)
    assert summary_digest(resumed) == CANONICAL[10**6][0]



def test_pool_forks_after_a_threaded_build():
    # A table past 2**22 is sieved partly on threads; the sweep forks its
    # workers itself and starts no thread, so it must fork after the
    # build has joined its threads (from Python 3.12 a fork with live
    # threads warns, an error under -W error::DeprecationWarning).
    table = build_table(2**23)
    job = job_for(6, 10**6, table, workers=2)
    assert summary_digest(verify_range(table, job)) == CANONICAL[10**6][0]


def assert_no_child_left():
    # Every worker the sweep forked has been reaped.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [2, 3])
def test_pooled_span_error_reaches_the_caller(table1m, tmp_path, workers, monkeypatch):
    # In spans of 10^5 evens, [6, 10^6] makes 5; the third, [400006,
    # 600004], raises in whichever worker sweeps it.  The caller gets
    # that error, and the checkpoint holds the two spans before it.
    monkeypatch.setattr(search, "DEFAULT_BLOCK_EVENS", 100_000)
    sweep_run = search._sweep_run

    def fails_on_the_third_span(table, lo, hi):
        if lo == 400_006:
            raise EngineError(f"span [{lo}, {hi}] failed")
        return sweep_run(table, lo, hi)

    monkeypatch.setattr(search, "_sweep_run", fails_on_the_third_span)
    ck = tmp_path / "sweep.ckpt"
    job = job_for(6, 10**6, table1m, checkpoint_interval=10_000, workers=workers)
    with pytest.raises(EngineError) as info:
        verify_range(table1m, job, checkpoint_path=ck)
    assert type(info.value) is EngineError
    assert str(info.value) == "span [400006, 600004] failed"
    assert checkpoint_resume(ck, job)[0].n_max == 400_004
    assert_no_child_left()


def test_pooled_span_error_keeps_its_type(table1m, monkeypatch):
    # An error with its own constructor arguments, raised in a child on
    # its span [200006, 400004] (the caller sweeps spans 0, 2 and 4 of
    # the 5), crosses the pipe as a pickle and reaches the caller as itself.
    monkeypatch.setattr(search, "DEFAULT_BLOCK_EVENS", 100_000)
    sweep_run = search._sweep_run
    caller = os.getpid()

    def finds_a_counterexample(table, lo, hi):
        if lo == 200_006 and os.getpid() != caller:
            raise CounterexampleFoundError([(lo, 3), (lo + 2, 5)])
        return sweep_run(table, lo, hi)

    monkeypatch.setattr(search, "_sweep_run", finds_a_counterexample)
    job = job_for(6, 10**6, table1m, checkpoint_interval=10_000, workers=2)
    with pytest.raises(CounterexampleFoundError) as info:
        verify_range(table1m, job)
    assert type(info.value) is CounterexampleFoundError
    assert info.value.pairs == [(200_006, 3), (200_008, 5)]
    assert str(info.value) == (
        "counterexample candidates found: (n=200006, k=3), (n=200008, k=5)"
    )
    assert_no_child_left()


def test_caller_span_error_kills_the_child(table1m, tmp_path, monkeypatch):
    # With 2 workers the caller sweeps spans 0, 2 and 4 of the 5 itself.
    # Its own span [400006, 600004] raises there, and only there, while
    # the child still has span 3 to sweep: the child is killed and
    # reaped, and the checkpoint holds the two spans before it.
    monkeypatch.setattr(search, "DEFAULT_BLOCK_EVENS", 100_000)
    sweep_run = search._sweep_run
    caller = os.getpid()

    def fails_in_the_caller(table, lo, hi):
        if lo == 400_006 and os.getpid() == caller:
            raise EngineError(f"span [{lo}, {hi}] failed in the caller")
        return sweep_run(table, lo, hi)

    monkeypatch.setattr(search, "_sweep_run", fails_in_the_caller)
    ck = tmp_path / "sweep.ckpt"
    job = job_for(6, 10**6, table1m, checkpoint_interval=10_000, workers=2)
    with pytest.raises(EngineError, match=r"^span \[400006, 600004\] failed in the caller$"):
        verify_range(table1m, job, checkpoint_path=ck)
    assert checkpoint_resume(ck, job)[0].n_max == 400_004
    assert_no_child_left()


def test_pooled_fail_fast_raises_counterexample(sick_table, monkeypatch):
    # 10 spans of 200 evens; the first, which the caller sweeps itself,
    # holds n = 20, so the sweep stops while the child still has spans
    # to sweep.
    monkeypatch.setattr(search, "DEFAULT_BLOCK_EVENS", 1)
    job = job_for(6, 4_000, sick_table, checkpoint_interval=200, workers=2)
    with pytest.raises(CounterexampleFoundError) as info:
        verify_range(sick_table, job, fail_fast=True)
    assert (20, 3) in info.value.pairs
    assert_no_child_left()


def test_pooled_sweep_imports_no_process_pool():
    # The pool is forked by hand, so a pooled sweep imports neither
    # multiprocessing nor concurrent.futures' process pool.
    probe = (
        "import sys\n"
        "from factorwitness import RangeJob, build_table, verify_range\n"
        "job = RangeJob(n_min=6, n_max=10**6, table_limit=10**6, workers=2)\n"
        "verify_range(build_table(10**6), job)\n"
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_phase2_chunk_is_invisible(table1m, monkeypatch, chunk):
    # Phase 2 tests its candidate rows and flat-passes its hard rows
    # PHASE2_CHUNK at a time: chunks of any size give the same summary,
    # ties between extremes included, and the same equality pairs.
    spans = [(6, 20_000), (600_000, 640_000)]
    monkeypatch.setattr(search, "PHASE2_CHUNK", 1 << 40)
    whole = [search._sweep_run(table1m, lo, hi) for lo, hi in spans]
    monkeypatch.setattr(search, "PHASE2_CHUNK", chunk)
    assert [search._sweep_run(table1m, lo, hi) for lo, hi in spans] == whole


@pytest.mark.parametrize("columns", sorted({search.CLEAR_COLUMNS, 2, 3, 4, 5}))
def test_cleared_rows_are_invisible(table1m, sick_table, monkeypatch, columns):
    # A hard row whose running max over its first CLEAR_COLUMNS columns
    # exceeds its last p_k skips the flat pass past them.  With one column
    # no hard row clears (f1 > p_count would make it easy), so every row
    # takes the full flat pass; the summaries and equality pairs must
    # match it.  The spans hold the rows that clear only at column 4
    # (36,428, 304,268 and 416,848) and 5 (780,622), the equality rows 12,
    # 30, 84 and 246, and one-row spans whose largest first witness index
    # lies past the flat columns: 346 (f1 = 7, first witness index 2 from
    # k = 4 to its last k = 8) and 992, which clears at column 3.
    rows = (346, 992, 36_428, 304_268, 416_848, 780_622)
    spans = [(6, 20_000), (36_000, 40_000), (416_000, 418_000), (780_000, 782_000)]
    spans += [(n, n) for n in rows]
    # n = 20 with every n - p_i nonprime: on sick_table counterexample
    # candidates for k = 3 .. 6; on equal_tail its lpf(17) = 17 = p_6
    # sets M_k = 17 from column 1 on, so (20, 6) is an equality case.
    equal_tail = make_doctored(table1m, not_prime=(17, 15, 13, 9, 7, 3))
    runs = [(table1m, span) for span in spans]
    runs += [(table, span) for table in (sick_table, equal_tail) for span in ((6, 60), (20, 20))]
    monkeypatch.setattr(search, "CLEAR_COLUMNS", 1)
    full = [search._sweep_run(table, lo, hi) for table, (lo, hi) in runs]
    assert (20, 6) in full[-1][1]
    monkeypatch.setattr(search, "CLEAR_COLUMNS", columns)
    assert [search._sweep_run(table, lo, hi) for table, (lo, hi) in runs] == full


def test_first_span_peaks_no_higher_than_a_later_one(table10m):
    # The first span of a sweep from n = 6, where lpf(n - 3) is often
    # small, has the most phase-2 candidates and the most flat-pass
    # cells: it has the most hard rows, and the most whose running max
    # clears their last p_k only past the first CLEAR_COLUMNS columns,
    # or never.  Taken PHASE2_CHUNK at a time, their index arrays stay
    # below the head's window and masks, where every span peaks.
    spans = search._block_bounds(6, 10**7, DEFAULT_BLOCK_EVENS)
    near = next(span for span in spans if span[0] <= 5 * 10**6 <= span[1])
    peaks = []
    for lo, hi in (spans[0], near):
        search._sweep_run(table10m, lo, hi)
        tracemalloc.start()
        try:
            search._sweep_run(table10m, lo, hi)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


# -- failure surfacing --------------------------------------------------------


@pytest.fixture()
def sick_table(table1m):
    # n = 20 becomes a counterexample candidate at every k and finally a
    # unit anomaly at k = 7 (p_7 = 19 = n - 1).
    return make_doctored(
        table1m,
        not_prime=(17, 15, 13, 9, 7, 3),
        lpf_overrides={17: 3, 13: 3},
    )


def test_sweep_records_counterexamples_and_anomalies(sick_table):
    # factors for n=20 come out (3, 5, 3, 3, 7, 3): the running max 3, 5
    # meets p_k at k = 1, 2 (equality), falls short for k = 3..6
    # (counterexample candidates), and k = 7 hits 20 - 19 = 1.
    s = verify_range(sick_table, job_for(20, 20, sick_table))
    assert s.counterexamples == tuple((20, k) for k in range(3, 7))
    assert s.anomalies == ((20, 7),)
    assert s.equal_count == 2
    assert not s.clean
    assert s.instances_evaluated == 7


def test_anomalies_survive_streams_and_checkpoints(sick_table, monkeypatch, tmp_path):
    # Spans of 5 evens: stopped after 2, the checkpoint covers [6, 24]
    # and holds both anomalies and all four counterexample candidates.
    monkeypatch.setattr(search, "DEFAULT_BLOCK_EVENS", 1)
    job = job_for(6, 60, sick_table, checkpoint_interval=5)
    whole = verify_range(sick_table, job)
    assert whole.anomalies == ((6, 2), (20, 7))
    assert whole.counterexamples == tuple((20, k) for k in range(3, 7))
    for fmt in (NDJSON, CSV):
        assert parse_records(render_records(whole, fmt), fmt) == whole
    ck = tmp_path / "ck.json"
    with pytest.raises(SweepInterrupted):
        verify_range(sick_table, job, checkpoint_path=ck, stop_after_blocks=2)
    prefix, _ = checkpoint_resume(ck, job)
    assert prefix.n_max == 24
    assert (prefix.anomalies, prefix.counterexamples) == (
        whole.anomalies, whole.counterexamples
    )
    resumed = verify_range(sick_table, job, checkpoint_path=ck)
    assert canonical_bytes(resumed) == canonical_bytes(whole)


def scalar_sweep(table, lo, hi):
    """The summary fields of a sweep of [lo, hi], one instance at a time."""
    counts = Counter()
    pairs = {kind: [] for kind in OutcomeKind}
    hist = Counter()
    best_fwi = best_ratio = None
    for n in range(lo, hi + 1, 2):
        for k in range(1, table.count_odd_primes_below(n) + 1):
            inst = make_instance(table, n, k)
            out = evaluate_instance(table, inst)
            counts[out.kind] += 1
            pairs[out.kind].append((n, k))
            if out.is_witness:
                # The walk ascends in (n, k), so ties keep the least pair.
                fwi = first_witness_index(table, inst)
                hist[fwi] += 1
                if best_fwi is None or fwi > best_fwi[0]:
                    best_fwi = (fwi, n, k)
                if best_ratio is None or Fraction(fwi, k) > Fraction(*best_ratio[:2]):
                    best_ratio = (fwi, k, n, k)
            if out.kind in (OutcomeKind.VACUOUS, OutcomeKind.ANOMALY_UNIT):
                break
    return {
        "instances_evaluated": sum(counts.values()),
        "vacuous_count": counts[OutcomeKind.VACUOUS],
        "strict_count": counts[OutcomeKind.WITNESS_STRICT],
        "equal_count": counts[OutcomeKind.WITNESS_EQUAL],
        "counterexamples": tuple(pairs[OutcomeKind.COUNTEREXAMPLE_CANDIDATE]),
        "anomalies": tuple(pairs[OutcomeKind.ANOMALY_UNIT]),
        "equality_pairs": pairs[OutcomeKind.WITNESS_EQUAL],
        "witness_index_histogram": dict(hist),
        "max_first_witness_index": best_fwi,
        "max_witness_ratio": best_ratio,
    }


@pytest.mark.parametrize("evens_per_block", [5, 28])
def test_no_hit_row_inside_a_block_of_easy_rows(sick_table, monkeypatch, evens_per_block):
    # Under sick_table, 6 and 20 never hit (6 - 5 = 1 is a unit as
    # well), 12, 16, 18 and 30 are hard, and every other row of [6, 60]
    # is easy (i* == 1 or lpf(n - 3) > p_{i*-1}).  Spans of 5 and 28
    # evens put n = 20 inside [16, 24] and [6, 60].
    monkeypatch.setattr(search, "DEFAULT_BLOCK_EVENS", 1)
    s = verify_range(
        sick_table, job_for(6, 60, sick_table, checkpoint_interval=evens_per_block)
    )
    want = scalar_sweep(sick_table, 6, 60)
    assert want["anomalies"] == ((6, 2), (20, 7))
    assert [(r.n, r.k) for r in s.equality_cases] == want.pop("equality_pairs")
    assert {name: getattr(s, name) for name in want} == want


@pytest.fixture(scope="module")
def unit_at_the_cut():
    # Row 200 runs out of odd primes at 200 - p_45 = 200 - 199 = 1: every
    # prime 200 - p with p < 199 is hidden, so 200 = p_45 + 1 for the
    # deepest scan of any span holding it, the last row whose unit the
    # sweep checks.  Hiding 199 and giving it largest factor 5 makes the
    # next row hard: 202 first hits at 202 - 11 = 191 (i* = 4), and
    # lpf(202 - 3) = 5 is not above p_3 = 7.
    table = build_table(1_000)
    odd = table.small_odd_primes.tolist()
    partners = [200 - p for p in odd if p < 199 and table.is_prime(200 - p)]
    return make_doctored(table, not_prime=(*partners, 199), lpf_overrides={199: 5})


@pytest.mark.parametrize(
    "lo, hi",
    [(150, 202), (198, 202), (200, 202), (200, 200), (202, 220), (6, 260)],
)
def test_unit_check_reaches_the_deepest_scan(unit_at_the_cut, lo, hi):
    table = unit_at_the_cut
    first = np.array(expand_hits(_first_hits(table, lo, hi), lo, hi))
    if lo <= 200 <= hi:
        assert first[(200 - lo) // 2] == -45 and np.abs(first).max() == 45
        assert table.odd_prime(45) + 1 == 200
    if lo <= 202 <= hi:
        assert first[(202 - lo) // 2] == 4 and table.largest_prime_factor(199) == 5
    s = verify_range(table, job_for(lo, hi, table))
    want = scalar_sweep(table, lo, hi)
    assert ((200, 45) in want["anomalies"]) == (lo <= 200 <= hi)
    assert [(r.n, r.k) for r in s.equality_cases] == want.pop("equality_pairs")
    assert {name: getattr(s, name) for name in want} == want


def _hidden_partners(table, n, upto):
    """The primes n - p_i, i <= upto: hiding them delays n's first hit past p_upto."""
    return [n - p for p in table.small_odd_primes[:upto].tolist() if table.is_prime(n - p)]


@pytest.fixture(scope="module")
def hard_rows_past_the_head():
    # A row the head settled is hard exactly when it is alive after step
    # J, p_J = lpf(n - 3); rows alive after the head's last step are
    # decided from their exact i*.  Each row below has its partners
    # hidden through the step named, so it outlives the head's 64 steps
    # or hits at a chosen one:
    #   5950: 5947 = 19 * 313, J = 64, the head's last step; i* > 64, hard.
    #   5324: 5321 = 17 * 313, J = 64; hits at step 64 (5324 - 313 = 5011), easy.
    #   3128: 3125 = 5^5, J = 2; hard, and alive into the tail.
    #   3180: 3177 = 9 * 353, J = 70, past the head; i* > 70, hard.
    #   3886: 3883 = 11 * 353, J = 70; hits at step 68 (3886 - 347 = 3539), easy.
    table = build_table(8_000)
    hidden = {
        *_hidden_partners(table, 5950, 64),
        *_hidden_partners(table, 5324, 63),
        *_hidden_partners(table, 3128, 64),
        *_hidden_partners(table, 3180, 70),
        *_hidden_partners(table, 3886, 67),
    }
    assert not hidden & {5011, 3539}
    return make_doctored(table, not_prime=sorted(hidden))


@pytest.mark.parametrize("lo, hi", [(5300, 6000), (3100, 3900), (3100, 6000)])
def test_hard_rows_at_and_past_the_head_end(hard_rows_past_the_head, lo, hi):
    table = hard_rows_past_the_head
    first = dict(zip(range(lo, hi + 1, 2), scalar_first_hits(table, lo, hi)))
    for n, j, hard in [(5950, 64, True), (5324, 64, False), (3128, 2, True),
                       (3180, 70, True), (3886, 70, False)]:
        if lo <= n <= hi:
            assert table.largest_prime_factor(n - 3) == table.odd_prime(j)
            assert (first[n] > j) == hard and first[n] >= 64
    hits = _first_hits(table, lo, hi)
    if (hi - lo) // 2 + 1 < HEAD_MIN_ALIVE:  # the head stops only once no row is alive
        assert hits.masks.shape[0] - 1 == HEAD_PRIMES
    s = verify_range(table, job_for(lo, hi, table))
    want = scalar_sweep(table, lo, hi)
    assert [(r.n, r.k) for r in s.equality_cases] == want.pop("equality_pairs")
    assert {name: getattr(s, name) for name in want} == want


def test_no_hit_row_inside_the_head_window(table1m):
    # With the small list cut to its first 29 odd primes the head's 29
    # steps take every odd prime below 2^16, so a row below it alive after
    # them has no hit: 5000, whose partners are hidden, among the easy
    # rows of [4800, 5200].
    small = [2, *table1m.small_odd_primes[:29].tolist()]
    table = make_doctored(
        table1m, primes=small,
        not_prime=[5000 - p for p in small[1:] if table1m.is_prime(5000 - p)],
    )
    hits = _first_hits(table, 4_800, 5_200)
    assert hits.masks.shape[0] - 1 == 29
    assert 5000 in (4_800 + 2 * hits.rows[hits.first == -29]).tolist()
    s = verify_range(table, job_for(4_800, 5_200, table))
    want = scalar_sweep(table, 4_800, 5_200)
    assert [(r.n, r.k) for r in s.equality_cases] == want.pop("equality_pairs")
    assert {name: getattr(s, name) for name in want} == want


@pytest.mark.parametrize("n", [1002, 1000], ids=["settled", "survivor"])
def test_least_easy_row_skips_rows_that_are_not_easy(n):
    # The easy rows' extremes come from the least easy row with i* >= 2.
    # lpf(n - 3) = 1 makes n hard, with a counterexample candidate at
    # k = 1, so its (n, 1) is no witness: 1002 (i* = 2) is settled in the
    # head, and 1000, whose partners are hidden through p_64, survives it.
    table = build_table(2_000)
    hidden = _hidden_partners(table, n, 64) if n == 1000 else ()
    table = make_doctored(table, not_prime=hidden, lpf_overrides={n - 3: 1})
    s = verify_range(table, job_for(1000, 1100, table))
    want = scalar_sweep(table, 1000, 1100)
    assert (n, 1) in want["counterexamples"]
    assert [(r.n, r.k) for r in s.equality_cases] == want.pop("equality_pairs")
    assert {name: getattr(s, name) for name in want} == want


def test_fail_fast_raises_counterexample(sick_table):
    with pytest.raises(CounterexampleFoundError) as info:
        verify_range(sick_table, job_for(6, 100, sick_table), fail_fast=True)
    assert (20, 3) in info.value.pairs


def test_fail_fast_raises_anomaly(table1m):
    # Only the unit anomaly, no counterexample: hide 5 and 3 for n = 8
    # (its factors 5, 3 still reach p_k, so k = 1, 2 stay witnesses).
    doctored = make_doctored(table1m, not_prime=(5, 3))
    with pytest.raises(AnomalyFoundError) as info:
        verify_range(doctored, job_for(8, 8, doctored), fail_fast=True)
    assert info.value.pairs == [(8, 3)]


# Both engine invariants of the span sweep are broken through faulty
# tables, in a fresh interpreter so that the run under -O proves the
# checks are not asserts.
_INVARIANT_PROBE = """
import dataclasses
from factorwitness.errors import EngineError
from factorwitness.search import _sweep_run
from factorwitness.sieve import build_table

table = build_table(2_000)

# A cell above INDEX_CAP, which no honest table holds and a uint8 cell
# cannot, lifts the running max of the hard row n = 30 (30 - 5 = 25, cell
# 12) past the row offsets of the first-witness search (rows 256 apart),
# so the search and the classifier part ways on the next hard row.  The
# cells are widened to uint16 to hold it.
lpf = table.odd_lpf.astype("uint16")
lpf[12] = 300
try:
    _sweep_run(dataclasses.replace(table, odd_lpf=lpf), 6, 2_000)
except EngineError as exc:
    print("classifier:", exc)

# 1 marked prime counts n = 8, k = 3 (8 - 7 = 1) both as vacuous and as
# a unit anomaly once the earlier hits 5 and 3 are hidden (bits 0, 1
# and 2 of byte 0 hold x = 1, 3 and 5).
bits = table.odd_prime_bits.copy()
bits[0] = (int(bits[0]) & ~0b110) | 0b001
try:
    _sweep_run(dataclasses.replace(table, odd_prime_bits=bits), 8, 8)
except EngineError as exc:
    print("conservation:", exc)
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
def test_sweep_invariants_raise_engine_error(flags):
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _INVARIANT_PROBE],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["classifier", "conservation"]
    assert "disagree with the classifier" in lines[0]
    assert "4 outcomes for 3 instances" in lines[1]


# -- derived queries ----------------------------------------------------------


def test_enumerate_edge_cases_small(table1m):
    assert enumerate_edge_cases(table1m, 11) == ()
    cases = enumerate_edge_cases(table1m, 10_000)
    assert [(r.n, r.k) for r in cases] == [
        (12, 1),
        (30, 1),
        (30, 2),
        (84, 1),
        (246, 1),
        (732, 1),
        (2190, 1),
        (6564, 1),
    ]
    rs = [r.r for r in cases]
    assert rs == [2, 3, None, 4, 5, 6, 7, 8]


def test_witness_statistics_empty_and_oracle(table1m, oracle10k):
    empty = witness_statistics(table1m, 8)
    assert empty.histogram == {} and empty.witnessed_count == 0
    stats = witness_statistics(table1m, 10_000)
    want = oracle10k.stats(10_000)
    assert stats.histogram == want.histogram
    assert stats.witnessed_count == want.witnessed_count
    assert stats.max_first_witness_index == want.max_first_witness_index
    assert stats.max_witness_ratio == want.max_witness_ratio


def test_decompose_range_small(table1m, oracle10k):
    sweep = decompose_range(table1m, 6, 2_000)
    assert sweep.count == 998
    assert sweep.failures == ()
    # deepest first hit recomputed with the oracle
    best = None
    for n in range(6, 2_002, 2):
        _, _, i = oracle10k.goldbach_pair(n)
        if best is None or i > best[0]:
            best = (i, n)
    assert sweep.max_scan == best
    # A span that straddles p_64 = 313 scans its rows up to 312 apart from
    # the head's; from [6, 488] on the two parts tie at depth 10 (n = 308
    # and 488), and the least n must win.
    first = scalar_first_hits(table1m, 6, 600)
    for hi in range(314, 601, 2):
        depth = max(first[: (hi - 6) // 2 + 1])
        assert decompose_range(table1m, 6, hi).max_scan == (depth, 6 + 2 * first.index(depth))


def test_decompose_range_validation(table1m):
    with pytest.raises(PreconditionError):
        decompose_range(table1m, 6, 101)
    with pytest.raises(PreconditionError):
        decompose_range(table1m, 4, 100)
    with pytest.raises(CoverageError):
        decompose_range(table1m, 6, 2_000_000)


# -- the first-hit scan -------------------------------------------------------


def test_first_hits_match_scalar_scan_on_every_small_range(table1m):
    # Every [lo, hi] up to 400: the head is cut short where p_64 = 313 >=
    # lo, and rows with n <= p run out of odd primes below them.
    table = build_table(400)
    want = scalar_first_hits(table, 6, 400)
    for lo in range(6, 401, 2):
        for hi in range(lo, 401, 2):
            got = expand_hits(_first_hits(table, lo, hi), lo, hi)
            assert got == want[(lo - 6) // 2 : (hi - 6) // 2 + 1], (lo, hi)
    # Row counts about a byte and a word of the head's packed row sets,
    # from lo on both sides of p_64 = 313: spans from 300 and 312 straddle
    # it, and their head rows start at 314.  The head leaves the bits past
    # its last row clear (expand_hits checks), whatever the row count.
    for lo in (6, 300, 312, 314, 5_000, 777_776):
        for rows in (1, 7, 8, 9, 63, 64, 65):
            hi = lo + 2 * (rows - 1)
            got = expand_hits(_first_hits(table1m, lo, hi), lo, hi)
            assert got == scalar_first_hits(table1m, lo, hi), (lo, rows)
    for lo in (300, 400_000):  # 100,001 rows
        hi = lo + 200_000
        got = expand_hits(_first_hits(table1m, lo, hi), lo, hi)
        assert got == scalar_first_hits(table1m, lo, hi), lo


def test_first_hits_match_scalar_scan_across_the_head(table1m, table10m):
    p_head = int(table1m.small_odd_primes[HEAD_PRIMES - 1])
    assert p_head == 313
    for lo, hi in ((300, 330), (p_head - 1, p_head + 1), (p_head + 1, 5_000), (6, 20_000)):
        got = expand_hits(_first_hits(table1m, lo, hi), lo, hi)
        assert got == scalar_first_hits(table1m, lo, hi)
    top = (10**7 - 2 * DEFAULT_BLOCK_EVENS + 2, 10**7)
    assert expand_hits(_first_hits(table10m, *top), *top) == scalar_first_hits(table10m, *top)


def test_first_hits_rows_outlive_the_primes_inside_a_tail_chunk(table1m):
    # Only the 167 odd primes below 1000 are scanned below 2^16, where the
    # cut small list goes on at 65,537, and every prime of [29_000,
    # 31_000] is hidden, so about 500 rows stay alive after the head: too
    # few for single-prime steps, so they run out of primes inside a
    # chunk of several.
    hidden = [q for q in range(29_000, 31_001) if table1m.is_prime(q)]
    small = [2, *table1m.small_odd_primes[:167].tolist()]
    assert small[-1] == 997
    doctored = make_doctored(table1m, not_prime=hidden, primes=small)
    got = np.array(expand_hits(_first_hits(doctored, 28_000, 33_000), 28_000, 33_000))
    assert got.tolist() == scalar_first_hits(doctored, 28_000, 33_000)
    assert set(got[got <= 0].tolist()) == {-167}
    assert 400 <= np.count_nonzero(got <= 0) < TAIL_CELLS // 2


def unpacked_head(table, lo, hi, hits):
    """The masks, rows and first that _first_hits gives for [lo, hi],
    built for hits' head and step count from bools: the primality of each
    step's cells from sieve.unpack_bits, the live rows packed by np.packbits."""
    odd, bits = table.small_odd_primes, table.odd_prime_bits
    head, done = hits.head, hits.masks.shape[0] - 1
    rows = (hi - lo) // 2 + 1
    alive = np.ones((done + 1, rows - head), dtype=bool)
    for s in range(1, done + 1):
        cell = (lo + 2 * head - int(odd[s - 1])) >> 1  # of n - p_s at the first head row
        alive[s] = alive[s - 1] & ~unpack_bits(bits, cell, cell + rows - head)
    masks = np.zeros((done + 1, -(-(rows - head) // 64) * 8), dtype=np.uint8)
    packed = np.packbits(alive, axis=1, bitorder="little")
    masks[:, : packed.shape[1]] = packed
    left = np.concatenate((np.arange(head), head + np.flatnonzero(alive[done])))
    return masks, left, np.array(scalar_first_hits(table, lo, hi), dtype=np.int64)[left]


def assert_head_matches_unpacked(table, lo, hi):
    hits = _first_hits(table, lo, hi)
    masks, rows, first = unpacked_head(table, lo, hi, hits)
    assert np.array_equal(hits.masks, masks), (lo, hi)
    assert np.array_equal(hits.rows, rows) and np.array_equal(hits.first, first), (lo, hi)


def test_head_phases_match_unpacked_bits(table1m):
    # The head's 8 bit phases come from byte pairs of the window, whose
    # first cell, (base - p_h) / 2, lies at any of the 8 bit offsets of
    # its byte; a span from 200,314 + 2a starts its window at cell
    # 100,000 + a.  Row counts off a whole word leave a partial last word.
    p_head = int(table1m.small_odd_primes[HEAD_PRIMES - 1])
    for a in range(8):
        lo = 2 * (100_000 + a) + p_head + 1
        assert ((lo - p_head) >> 1) & 7 == a
        assert_head_matches_unpacked(table1m, lo, lo + 2 * (2_000 + 13 * a))
    # The first span of a sweep from small n, whose head starts at 314.
    for lo, hi in ((6, 20_000), (300, 5_000), (312, 314)):
        assert _first_hits(table1m, lo, hi).head > 0
        assert_head_matches_unpacked(table1m, lo, hi)
    # Tables below 1,000, whose every window reaches the last byte; the
    # one of 300 holds fewer odd primes than HEAD_PRIMES.
    for limit in (997, 300):
        small = build_table(limit)
        for lo in (6, 8, 100, 250, 298):
            assert_head_matches_unpacked(small, lo, limit - limit % 2)


@pytest.mark.parametrize("limit", [2**22 + d for d in range(-17, 18)])
def test_head_phases_at_the_table_end(limit):
    # A span that ends at the table's last even n reads its window's
    # byte pairs up to and past the table's last byte, which the head
    # pads with zeros.
    table = build_table(limit)
    hi = limit - limit % 2
    for rows in (1, 64, 1_000):
        assert_head_matches_unpacked(table, hi - 2 * (rows - 1), hi)


def flatnonzero_hard_rows(hits, f1, odd):
    """The rows the head settled that are not easy, by the rule that lists
    every row with f1 <= p_{done-1} by flatnonzero, f1 here the factor
    lpf(n - 3) itself: such a row is hard when alive after step J, p_J the
    least odd prime >= f1, and not after the head's last step."""
    done = hits.masks.shape[0] - 1
    if done < 2:
        return []
    r = np.flatnonzero(f1[hits.head :] <= odd[done - 2])
    j = np.searchsorted(odd, f1[hits.head :][r]) + 1

    def alive(s, r):
        return (hits.masks[s, r >> 3] >> (r & 7).astype(np.uint8)) & 1 == 1

    return (hits.head + r[alive(j, r) & ~alive(done, r)]).tolist()


def assert_hard_rows_match_flatnonzero(table, lo, hi):
    hits = _first_hits(table, lo, hi)
    f1 = table.odd_lpf[(lo - 3) >> 1 : (hi - 1) >> 1]
    # The factors the cells name; a capped cell's factor, p_255 or more,
    # lies past every step of the head.
    factors = CELL_LPF.take(np.minimum(f1, INDEX_CAP - 1))
    factors[f1 == INDEX_CAP] = np.iinfo(np.uint32).max
    odd = table.small_odd_primes
    want = flatnonzero_hard_rows(hits, factors, odd)
    assert search._hard_rows(hits, f1).tolist() == want, (lo, hi)
    return hits.masks.shape[0] - 1, len(want)


def test_hard_rows_match_flatnonzero_on_every_span(table10m):
    # Phase 2 lists its candidates, by their cells' indices, from packed
    # row sets: those with f1 < done alive after step 16, and every row
    # with f1 <= 15.
    spans = search._block_bounds(6, 10**7, DEFAULT_BLOCK_EVENS)
    found = [assert_hard_rows_match_flatnonzero(table10m, lo, hi) for lo, hi in spans]
    assert min(done for done, _ in found) > 16
    assert sum(hard for _, hard in found) > 0


@pytest.mark.parametrize("head_primes, min_alive", [
    (HEAD_PRIMES, 1), (1, HEAD_MIN_ALIVE), (2, HEAD_MIN_ALIVE), (16, HEAD_MIN_ALIVE),
    (17, HEAD_MIN_ALIVE),
])
def test_hard_rows_match_flatnonzero_when_the_head_stops_early(
    table1m, monkeypatch, head_primes, min_alive
):
    # A head that stops at or before step 16 skips the masks[16] cut.
    monkeypatch.setattr(search, "HEAD_PRIMES", head_primes)
    monkeypatch.setattr(search, "HEAD_MIN_ALIVE", min_alive)
    steps = set()
    for lo, hi in ((6, 200_000), (400_000, 600_000), (999_000, 10**6)):
        steps.add(assert_hard_rows_match_flatnonzero(table1m, lo, hi)[0])
    assert steps == ({4} if min_alive == 1 else {head_primes})
    small = build_table(997)
    for lo in (6, 100, 500):
        assert_hard_rows_match_flatnonzero(small, lo, 996)


@pytest.mark.parametrize("kind", ["empty", "full", "last-word", "sparse", "dense"])
def test_set_bits_match_unpacking(kind):
    # A packed row set of 2^18 rows, one span's, in 4,096 words.
    rng = np.random.default_rng(18)
    rows = np.zeros(1 << 18, dtype=bool)
    if kind == "full":
        rows[:] = True
    elif kind == "last-word":
        rows[rows.size - 64 + 37] = True
    elif kind == "sparse":
        rows[rng.choice(rows.size, 500, replace=False)] = True
    elif kind == "dense":
        rows = rng.random(rows.size) < 0.6
    mask = np.packbits(rows, bitorder="little")
    got = _set_bits(mask)
    assert got.tolist() == np.flatnonzero(np.unpackbits(mask, bitorder="little")).tolist()
    assert got.tolist() == np.flatnonzero(rows).tolist()


def test_popcount_is_exact_over_many_words():
    # 65,610 words, more than 2^16 and not a whole number of 256-word
    # blocks, every bit set; then random bits, and fewer than 256 words.
    words = 2 * (2**15 + 37)
    assert _popcount(np.full((2, 4 * words), 0xFF, dtype=np.uint8)) == 64 * words
    masks = np.random.default_rng(18).integers(0, 256, size=(3, 8 * 1000), dtype=np.uint8)
    assert _popcount(masks) == int(np.unpackbits(masks).sum())
    few = np.ascontiguousarray(masks[:, :80])
    assert _popcount(few) == int(np.unpackbits(few).sum())


def _merge_decompositions(a, b):
    """The merge rule of decompose_range's blocks, for two adjacent halves."""
    deeper = b.max_scan and (a.max_scan is None or b.max_scan[0] > a.max_scan[0])
    return (a.count + b.count, a.failures + b.failures, b.max_scan if deeper else a.max_scan)


@pytest.mark.parametrize(
    "fixture, n_max, max_scan",
    [("table1m", 10**6, (98, 503222)), ("table10m", 10**7, (132, 3807404))],
    ids=["table1m", "table10m"],
)
def test_decompose_range_pinned(request, fixture, n_max, max_scan):
    sweep = decompose_range(request.getfixturevalue(fixture), 6, n_max)
    assert sweep.count == (n_max - 6) // 2 + 1
    assert sweep.failures == ()
    assert sweep.max_scan == max_scan


def test_decompose_range_split_at_block_seams(table1m, monkeypatch):
    # In spans of 10^5 evens, the blocks of [6, 10^6] end at 200_004,
    # 400_004, ...; 503_222 is the deepest first hit.
    monkeypatch.setattr(search, "DEFAULT_BLOCK_EVENS", 100_000)
    whole = decompose_range(table1m, 6, 10**6)
    for x in (200_002, 200_004, 200_006, 400_004, 600_006, 503_220, 503_222):
        left = decompose_range(table1m, 6, x)
        right = decompose_range(table1m, x + 2, 10**6)
        assert _merge_decompositions(left, right) == (
            whole.count, whole.failures, whole.max_scan
        ), x
    # [642662, 850712] is two blocks whose deepest first hits tie at
    # depth 79, at both endpoints; the earlier block keeps it.
    assert decompose_range(table1m, 642_662, 850_712).max_scan == (79, 642_662)


def test_decompose_range_failures_in_two_blocks(table1m, monkeypatch):
    # Keep only the odd primes below 1000 in the small list (every n <=
    # 10^6 has its first hit by p_98 = 521; the list goes on at 65,537)
    # and hide every prime in two windows below 2^16, one in each of the
    # first two blocks of 10^4 evens.  Only n within 1000 above a window
    # can fail; the expected failures are rescanned by trial division.
    windows = ((9_000, 11_000), (29_000, 31_000))
    hidden = [q for lo, hi in windows for q in range(lo, hi + 1) if table1m.is_prime(q)]
    small = [2, *table1m.small_odd_primes[:167].tolist()]
    doctored = make_doctored(table1m, not_prime=hidden, primes=small)

    def visible_prime(v):
        return trial_is_prime(v) and not any(lo <= v <= hi for lo, hi in windows)

    expected = tuple(
        n
        for lo, hi in windows
        for n in range(lo + 4, hi + 1000, 2)
        if not any(visible_prime(n - p) for p in small[1:] if p < n)
    )
    monkeypatch.setattr(search, "DEFAULT_BLOCK_EVENS", 10_000)
    sweep = decompose_range(doctored, 6, 10**6)
    assert sweep.failures == expected
    span = 20_000
    assert {(n - 6) // span for n in expected} == {0, 1}
    assert sweep.count == 499_998


def test_top_of_range_matches_oracle(table10m, oracle10m):
    lo, hi = 10**7 - 2000, 10**7
    engine = verify_range(table10m, job_for(lo, hi, table10m))
    brute = oracle10m.summarize(lo, hi)
    for f in dataclasses.fields(engine):
        if f.name not in ("elapsed_seconds", "evens_per_second"):
            assert getattr(engine, f.name) == getattr(brute, f.name), f.name

    best = None
    for n in range(lo, hi + 1, 2):
        _, _, i = oracle10m.goldbach_pair(n)
        assert decompose_range(table10m, n, n).max_scan == (i, n)
        if best is None or i > best[0]:
            best = (i, n)
    sweep = decompose_range(table10m, lo, hi)
    assert (sweep.count, sweep.failures, sweep.max_scan) == (1001, (), best)


@pytest.mark.parametrize("evens_per_block", [1, 37, 250, 501])
def test_top_of_table1m_matches_oracle(table1m, oracle1m, monkeypatch, evens_per_block):
    # The top 501 evens of the 10^6 table, whose spans read the deepest
    # first hits and so the longest easy-row bounds; a span default of 1
    # puts span seams inside the window.
    lo, hi = 999_000, 10**6
    monkeypatch.setattr(search, "DEFAULT_BLOCK_EVENS", 1)
    job = job_for(lo, hi, table1m, checkpoint_interval=evens_per_block)
    engine = verify_range(table1m, job)
    brute = oracle1m.summarize(lo, hi)
    for f in dataclasses.fields(engine):
        if f.name not in ("elapsed_seconds", "evens_per_second"):
            assert getattr(engine, f.name) == getattr(brute, f.name), f.name


def test_exhaustion_of_prime_list_is_clean():
    # A table whose limit barely covers the range: when every prime hit
    # is hidden the scan runs clean out of odd primes (p_5 = 13 is the
    # last one <= 16) while the row is still alive; that must terminate
    # quietly, since all five valid instances were already evaluated.
    table = build_table(16)
    doctored = make_doctored(table, not_prime=(13, 11, 5, 3))
    s = verify_range(doctored, RangeJob(n_min=16, n_max=16, table_limit=16))
    assert s.instances_evaluated == 5
    assert s.strict_count == 4   # running max 13 beats p_1..p_4
    assert s.equal_count == 1    # and equals p_5 = 13
    assert s.clean


# -- the small prime list -----------------------------------------------------


def test_honest_sweeps_never_build_the_prime_list(monkeypatch):
    # The sweep reads the odd primes below 2^16 that the table stores;
    # no honest row scans past them, so none reads the bits past them
    # as primes (PrimeTable._chunks, which the forked workers inherit
    # patched).
    def past_the_small_list(table, stop):
        raise AssertionError(f"a sweep read the primes below cell {stop}")

    monkeypatch.setattr(PrimeTable, "_chunks", past_the_small_list)
    table = build_table(10**6)
    for workers in (1, 2):
        job = job_for(6, 10**6, table, workers=workers)
        assert summary_digest(verify_range(table, job)) == CANONICAL[10**6][0]
    assert decompose_range(table, 6, 10**6).max_scan == (98, 503222)
    assert len(enumerate_edge_cases(table, 10**6)) > 0
    assert witness_statistics(table, 10**6).witnessed_count > 0
    assert holds_only_its_fields(table)


def test_rows_asked_past_the_index_cap_refill_their_factors(table1m):
    # Hiding n - p_i for its first 260 odd primes asks n = 500,000 about
    # every k up to i* - 1 >= 260, past INDEX_CAP = 255, where a cell no
    # longer orders lpf(n - p_j) against p_k.  Its f1 is capped, so it is
    # no easy row and cannot clear; its flat-pass chunk refills the capped
    # cells exactly and compares factors with p_k.  The sweep of its span
    # must match the per-instance scalar path of conjecture.
    n, lo, hi = 500_000, 499_990, 500_010
    hidden = _hidden_partners(table1m, n, 260)
    table = make_doctored(table1m, not_prime=hidden)
    first = dict(zip(range(lo, hi + 1, 2), scalar_first_hits(table, lo, hi)))
    assert first[n] > 260 and table.odd_lpf[(n - 3) >> 1] == INDEX_CAP
    s = verify_range(table, job_for(lo, hi, table))
    want = scalar_sweep(table, lo, hi)
    assert [(r.n, r.k) for r in s.equality_cases] == want.pop("equality_pairs")
    assert {name: getattr(s, name) for name in want} == want
    assert s.instances_evaluated > 260


def test_scan_past_the_small_prime_list_is_exact():
    # Hide n - p for every odd prime p < 2^16: n = 150,214 then first
    # hits at p_6570 = 65,777, 29 primes past the small list, which the
    # sweep must list from the bits and read.  The primes it lists from
    # the doctored primality bits lack the hidden primes, all at least
    # n - 65,521 = 84,693, far past any prime the span reads.
    n, lo, hi = 150_214, 150_114, 150_314
    table = build_table(hi)
    hidden = {n - p for p in table.small_odd_primes.tolist()}
    doctored = PrimeTable(
        limit=table.limit,
        odd_lpf=table.odd_lpf,
        odd_prime_bits=clear_bits(table.odd_prime_bits, hidden),
        small_odd_primes=table.small_odd_primes,
    )
    engine = verify_range(doctored, job_for(lo, hi, doctored))
    sweep = decompose_range(doctored, lo, hi)
    first = scalar_first_hits(doctored, lo, hi)
    assert expand_hits(_first_hits(doctored, lo, hi), lo, hi) == first
    assert first[(n - lo) // 2] == 6_570 and doctored.odd_prime(6_570) == 65_777
    below = n - 65_521
    odd, honest = doctored.odd_primes_through(6_542), table.odd_primes_through(6_542)
    assert np.array_equal(odd[odd < below], honest[honest < below])
    assert holds_only_its_fields(doctored)

    # The brute-force oracle, with the same primes hidden from its trial
    # division.
    oracle = BruteOracle(hi)
    real_is_prime = bruteforce.trial_is_prime
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bruteforce, "trial_is_prime", lambda v: v not in hidden and real_is_prime(v))
        brute = oracle.summarize(lo, hi)
        pairs = [oracle.goldbach_pair(m) for m in range(lo, hi + 1, 2)]
    for f in dataclasses.fields(engine):
        if f.name not in ("elapsed_seconds", "evens_per_second"):
            assert getattr(engine, f.name) == getattr(brute, f.name), f.name
    assert first == [i for _, _, i in pairs]
    depth = max(first)
    assert sweep.failures == () and sweep.max_scan == (depth, lo + 2 * first.index(depth))
