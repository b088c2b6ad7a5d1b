"""Property-based cross-checks between the engine and the oracle."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from factorwitness import search
from factorwitness.bruteforce import trial_smallest_factor
from factorwitness.conjecture import (
    construct_lemma_prime,
    evaluate_instance,
    first_witness_index,
    goldbach_decompose,
    make_instance,
)
from factorwitness.report import CSV, NDJSON, canonical_bytes, parse_records, render_records
from factorwitness.search import RangeJob, _first_hits, merge_summaries, verify_range

from conftest import expand_hits, scalar_first_hits

even_n = st.integers(min_value=3, max_value=5_000).map(lambda h: 2 * h)
values = st.integers(min_value=2, max_value=1_000_000)


@given(x=values)
def test_factorization_reconstructs(table1m, x):
    parts = table1m.factorize(x)
    prod = 1
    for p in parts:
        assert table1m.is_prime(p)
        prod *= p
    assert prod == x
    assert parts[0] == trial_smallest_factor(x)
    assert parts[-1] == table1m.largest_prime_factor(x)


@given(x=values)
def test_spf_lpf_bracket_all_factors(table1m, x):
    spf = table1m.factorize(x)[0]
    lpf = table1m.largest_prime_factor(x)
    assert spf == trial_smallest_factor(x)
    assert spf <= lpf
    assert x % spf == 0 and x % lpf == 0


@given(n=even_n, k=st.integers(min_value=1, max_value=40))
def test_engine_matches_oracle_per_instance(table1m, oracle10k, n, k):
    pk = oracle10k.odd_prime(k)
    if pk >= n:
        k = 1  # always valid: p_1 = 3 < 6 <= n
    got = evaluate_instance(table1m, make_instance(table1m, n, k))
    want = oracle10k.evaluate(n, k)
    assert got == want
    assert first_witness_index(
        table1m, make_instance(table1m, n, k)
    ) == oracle10k.first_witness_index(n, k)


@given(n=even_n, k=st.integers(min_value=1, max_value=40))
def test_constructed_prime_lands_in_open_interval(table1m, n, k):
    if table1m.odd_prime(k) >= n:
        k = 1
    inst = make_instance(table1m, n, k)
    out = evaluate_instance(table1m, inst)
    if out.is_witness:
        tr = construct_lemma_prime(table1m, inst, out)
        assert table1m.is_prime(tr.produced_prime)
        assert inst.pk < tr.produced_prime < n


@given(n=even_n)
def test_goldbach_matches_oracle(table1m, oracle10k, n):
    tr = goldbach_decompose(table1m, n, verify=True)
    assert (tr.p, tr.q, tr.i) == oracle10k.goldbach_pair(n)


@settings(max_examples=40, deadline=None)
@given(
    lo_h=st.integers(min_value=3, max_value=499_999),
    rows=st.integers(min_value=1, max_value=3_000),
)
def test_first_hits_match_scalar_scan(table1m, lo_h, rows):
    # Windows of [6, 10^6]: a small lo cuts the head short and sends its
    # rows through the tail's single steps; elsewhere the tail chunks.
    lo = 2 * lo_h
    hi = min(lo + 2 * (rows - 1), table1m.limit)
    assert expand_hits(_first_hits(table1m, lo, hi), lo, hi) == scalar_first_hits(table1m, lo, hi)


@settings(max_examples=25, deadline=None)
@given(
    lo_h=st.integers(min_value=3, max_value=1_000),
    span_h=st.integers(min_value=0, max_value=500),
    cut_h=st.integers(min_value=0, max_value=500),
)
def test_split_then_merge_is_identity(table1m, lo_h, span_h, cut_h):
    lo, hi = 2 * lo_h, 2 * (lo_h + span_h)
    whole = verify_range(table1m, RangeJob(n_min=lo, n_max=hi, table_limit=hi))
    if span_h == 0:
        return
    cut = lo + 2 * (cut_h % span_h)  # lo <= cut < hi, even
    left = verify_range(table1m, RangeJob(n_min=lo, n_max=cut, table_limit=cut))
    right = verify_range(table1m, RangeJob(n_min=cut + 2, n_max=hi, table_limit=hi))
    assert canonical_bytes(merge_summaries(left, right)) == canonical_bytes(whole)


@settings(max_examples=60, deadline=None)
@given(
    ends_h=st.lists(st.integers(min_value=3, max_value=5_000), min_size=2, max_size=2),
    evens_per_block=st.integers(min_value=1, max_value=300),
)
def test_sweep_matches_oracle_on_random_windows(table1m, oracle10k, ends_h, evens_per_block):
    # Small random spans put hard rows (those the easy-row lemma does
    # not settle) on span seams as well as inside spans.  A span is
    # max(interval, DEFAULT_BLOCK_EVENS) evens, so the default is lowered.
    lo, hi = 2 * min(ends_h), 2 * max(ends_h)
    job = RangeJob(n_min=lo, n_max=hi, table_limit=hi, checkpoint_interval=evens_per_block)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "DEFAULT_BLOCK_EVENS", 1)
        engine = verify_range(table1m, job)
    brute = oracle10k.summarize(lo, hi)
    for f in dataclasses.fields(engine):
        if f.name not in ("elapsed_seconds", "evens_per_second"):
            assert getattr(engine, f.name) == getattr(brute, f.name), f.name


@settings(max_examples=25, deadline=None)
@given(
    hi_h=st.integers(min_value=3, max_value=2_000),
    fmt=st.sampled_from([NDJSON, CSV]),
)
def test_emit_parse_round_trip(table1m, hi_h, fmt):
    hi = 2 * hi_h
    summary = verify_range(table1m, RangeJob(n_min=6, n_max=hi, table_limit=hi))
    assert parse_records(render_records(summary, fmt), fmt) == summary


@given(n=even_n, k=st.integers(min_value=1, max_value=40))
def test_outcome_fields_match_kind(table1m, n, k):
    if table1m.odd_prime(k) >= n:
        k = 1
    out = evaluate_instance(table1m, make_instance(table1m, n, k))
    populated = {
        name
        for name in ("i", "prime_hit", "factor", "factors")
        if getattr(out, name) is not None
    }
    expected = {
        "vacuous": {"i", "prime_hit"},
        "witness_strict": {"i", "factor"},
        "witness_equal": {"i"},
        "counterexample_candidate": {"factors"},
        "anomaly_unit": {"i"},
    }[out.kind.value]
    assert populated == expected
