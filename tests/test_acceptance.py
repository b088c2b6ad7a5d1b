"""End-to-end acceptance checks at full working scale.

Each test exercises one headline guarantee of the package and prints a
single ``criterion N: PASS/FAIL`` line (visible with ``pytest -rA``).
Expected values marked as derived were computed with the trial-division
oracle or by hand and then frozen here.
"""

from __future__ import annotations

import random
import time

import pytest

from factorwitness import cli
from factorwitness.conjecture import (
    Family,
    OutcomeKind,
    construct_lemma_prime,
    evaluate_instance,
    goldbach_decompose,
    make_instance,
)
from factorwitness.errors import ProofViolationError, SweepInterrupted
from factorwitness.report import NDJSON, parse_records, summary_digest
from factorwitness.search import (
    RangeJob,
    decompose_range,
    enumerate_edge_cases,
    verify_range,
    witness_statistics,
)

TEN_M = 10_000_000
ONE_M = 1_000_000


def _verdict(num: int, label: str, problems: list[str], detail: str = "") -> None:
    if problems:
        print(f"criterion {num}: FAIL ({label}) — " + "; ".join(problems))
    else:
        tail = f" — {detail}" if detail else ""
        print(f"criterion {num}: PASS ({label}){tail}")
    assert not problems, f"criterion {num}: " + "; ".join(problems)


def test_c1_exhaustive_sweep_clean_and_worker_invariant(tmp_path, capsys):
    problems: list[str] = []
    payload: dict[int, bytes] = {}
    slowest = 0.0
    for workers in (1, 8):
        out = tmp_path / f"sweep-w{workers}.ndjson"
        started = time.perf_counter()
        code = cli.run(
            [
                "verify",
                "--min", "6",
                "--max", str(TEN_M),
                "--workers", str(workers),
                "--output", str(out),
            ]
        )
        elapsed = time.perf_counter() - started
        slowest = max(slowest, elapsed)
        if code != 0:
            problems.append(f"exit code {code} with {workers} workers")
        if elapsed >= 600.0:
            problems.append(f"{workers}-worker run took {elapsed:.0f}s (budget 600s)")
        payload[workers] = out.read_bytes()
    capsys.readouterr()
    if payload[1] != payload[8]:
        problems.append("1-worker and 8-worker record streams differ")
    summary = parse_records(payload[1].decode("ascii"), NDJSON)
    if summary.counterexample_count:
        problems.append(f"{summary.counterexample_count} counterexample record(s)")
    if summary.anomaly_count:
        problems.append(f"{summary.anomaly_count} anomaly record(s)")
    if (summary.n_min, summary.n_max) != (6, TEN_M):
        problems.append(f"covered [{summary.n_min}, {summary.n_max}]")
    _verdict(
        1,
        f"sweep [6, {TEN_M}] clean, worker-invariant",
        problems,
        f"{summary.instances_evaluated} instances, digest {summary_digest(summary)[:16]}, "
        f"slowest run {slowest:.1f}s",
    )


def test_c2_equality_census_complete(table1m):
    problems: list[str] = []
    cases = enumerate_edge_cases(table1m, ONE_M)
    expected = {(3**r + 3, 1) for r in range(2, 13)} | {(30, 2)}
    got = {(c.n, c.k) for c in cases}
    if len(cases) != 12:
        problems.append(f"{len(cases)} records, expected 12")
    if got != expected:
        problems.append(f"pair set off: extra {sorted(got - expected)}, missing {sorted(expected - got)}")
    novel = [c for c in cases if c.family is Family.NOVEL]
    if novel:
        problems.append(f"{len(novel)} NOVEL record(s): {[(c.n, c.k) for c in novel]}")
    for c in cases:
        if c.k == 2:
            if c.family is not Family.KNOWN_30_2:
                problems.append(f"({c.n}, 2) classified {c.family}")
        elif c.family is not Family.POWER_OF_3_PLUS_3 or 3**c.r + 3 != c.n:
            problems.append(f"({c.n}, {c.k}) family {c.family}, r {c.r}")
    _verdict(2, f"equality census to {ONE_M}", problems, "12 records, 0 novel")


def test_c3_k1_outcomes_characterized_by_powers_of_3(table1m):
    # At k = 1 the only scanned value is n - 3; when it is composite the
    # outcome is forced: every factor is >= 3, so a witness always exists,
    # with equality exactly when n - 3 has no factor other than 3.
    problems: list[str] = []
    powers = {3**r + 3 for r in range(2, 13)}
    checked = equal_seen = 0
    for n in range(8, ONE_M + 1, 2):
        if table1m.is_prime(n - 3):
            continue
        out = evaluate_instance(table1m, make_instance(table1m, n, 1))
        checked += 1
        if out.kind is OutcomeKind.COUNTEREXAMPLE_CANDIDATE:
            problems.append(f"counterexample outcome at n = {n}")
            break
        if (out.kind is OutcomeKind.WITNESS_EQUAL) != (n in powers):
            problems.append(f"equality mismatch at n = {n}: {out.kind.value}")
            break
        if out.kind is OutcomeKind.WITNESS_EQUAL:
            equal_seen += 1
    if not problems and equal_seen != 11:
        problems.append(f"saw {equal_seen} equality outcomes, expected 11")
    _verdict(
        3,
        "k = 1 outcome forced by factor 3",
        problems,
        f"{checked} composite n - 3 values checked, {equal_seen} equalities",
    )


def test_c4_lemma_construction_sound_everywhere(table1m):
    problems: list[str] = []
    bertrand: set[tuple[int, int]] = set()
    witnesses = 0
    for n in range(6, 100_001, 2):
        k = 0
        while True:
            k += 1
            inst = make_instance(table1m, n, k)
            out = evaluate_instance(table1m, inst)
            if out.kind is OutcomeKind.VACUOUS:
                break
            if not out.is_witness:
                problems.append(f"({n}, {k}) is {out.kind.value}, not a witness")
                break
            witnesses += 1
            try:
                trace = construct_lemma_prime(table1m, inst, out)
            except ProofViolationError as exc:
                problems.append(f"({n}, {k}) raised proof violation: {exc}")
                break
            q = trace.produced_prime
            if not (table1m.is_prime(q) and inst.pk < q < n):
                problems.append(f"({n}, {k}) produced {q}, outside ({inst.pk}, {n})")
                break
            if trace.used_bertrand:
                bertrand.add((n, k))
        if problems:
            break
    required = {(12, 1), (30, 1), (30, 2), (84, 1)}
    if not problems and not required <= bertrand:
        problems.append(f"Bertrand branch missed {sorted(required - bertrand)}")
    _verdict(
        4,
        "prime construction on every witness to 100000",
        problems,
        f"{witnesses} witness instances, {len(bertrand)} via Bertrand",
    )


def test_c5_two_prime_decomposition_total(table10m, oracle10k):
    problems: list[str] = []
    sweep = decompose_range(table10m, 6, TEN_M)
    if sweep.failures:
        problems.append(f"{len(sweep.failures)} failures, first {sweep.failures[0]}")
    if sweep.count != (TEN_M - 6) // 2 + 1:
        problems.append(f"covered {sweep.count} values")
    spots = {6: (3, 3), 30: (7, 23), 98: (19, 79)}
    for n, pair in spots.items():
        trace = goldbach_decompose(table10m, n, verify=True)
        if (trace.p, trace.q) != pair:
            problems.append(f"{n} -> ({trace.p}, {trace.q}), expected {pair}")
        if (trace.p, trace.q, trace.i) != oracle10k.goldbach_pair(n):
            problems.append(f"{n} disagrees with oracle")
    _verdict(
        5,
        f"decomposition of every even n in [6, {TEN_M}]",
        problems,
        f"{sweep.count} decomposed, deepest scan {sweep.max_scan}",
    )


def test_c6_engine_matches_bruteforce_summary(table1m, oracle10k):
    problems: list[str] = []
    engine = verify_range(table1m, RangeJob(n_min=6, n_max=10_000, table_limit=10_000))
    brute = oracle10k.summarize(6, 10_000)
    timing = {"elapsed_seconds", "evens_per_second"}
    for field in type(engine).__dataclass_fields__:
        if field in timing:
            continue
        if getattr(engine, field) != getattr(brute, field):
            problems.append(
                f"{field}: engine {getattr(engine, field)!r} vs oracle {getattr(brute, field)!r}"
            )
    _verdict(
        6,
        "sweep summary equals trial-division recomputation on [6, 10000]",
        problems,
        f"{engine.instances_evaluated} instances, all non-timing fields equal",
    )


def test_c7_witness_index_statistics_deterministic(table1m, oracle10k):
    problems: list[str] = []
    stats = witness_statistics(table1m, ONE_M)
    again = witness_statistics(table1m, ONE_M)
    if not stats.histogram:
        problems.append("empty histogram")
    if stats != again:
        problems.append("two identical runs disagree")
    if witness_statistics(table1m, 10_000) != oracle10k.stats(10_000):
        problems.append("statistics at 10000 disagree with oracle")
    if stats.max_first_witness_index is None:
        problems.append("no maximum first-witness index reported")
        detail = ""
    else:
        value, n, k = stats.max_first_witness_index
        detail = (
            f"max first-witness index {value} at (n, k) = ({n}, {k}); "
            f"ratio peak {stats.max_witness_ratio}"
        )
    _verdict(7, f"witness-index statistics to {ONE_M}", problems, detail)


def test_c8_interrupted_runs_reproduce_digest(table1m, tmp_path):
    problems: list[str] = []
    job = RangeJob(n_min=6, n_max=ONE_M, table_limit=ONE_M, checkpoint_interval=25_000)
    straight = summary_digest(verify_range(table1m, job))
    evens = (ONE_M - 6) // 2 + 1
    blocks = -(-evens // 25_000)
    stops = sorted(random.Random(0x20260814).sample(range(1, blocks), 3))
    ckpt = tmp_path / "sweep.checkpoint"
    done = 0
    for stop in stops:
        with pytest.raises(SweepInterrupted) as caught:
            verify_range(table1m, job, checkpoint_path=ckpt, stop_after_blocks=stop - done)
        done = stop
        if caught.value.blocks_done != stop:
            problems.append(f"stopped after {caught.value.blocks_done} blocks, wanted {stop}")
    resumed = verify_range(table1m, job, checkpoint_path=ckpt)
    if summary_digest(resumed) != straight:
        problems.append("resumed digest differs from uninterrupted digest")
    if ckpt.exists():
        problems.append("checkpoint file not removed after completion")
    _verdict(
        8,
        "three interruptions and resume reproduce the digest",
        problems,
        f"stops at blocks {stops} of {blocks}, digest {straight[:16]}",
    )
