"""Table construction and lookups."""

import dataclasses
import os
import random
import threading
import tracemalloc
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from factorwitness import sieve
from factorwitness.bruteforce import (
    trial_is_prime,
    trial_largest_factor,
    trial_smallest_factor,
)
from factorwitness.errors import (
    ConfigurationError,
    CoverageError,
    OutOfRangeError,
    PreconditionError,
)
from factorwitness.sieve import SEGMENT, build_table

from conftest import (
    digests,
    exact_odd_lpf,
    expand_table,
    holds_only_its_fields,
    odd_primality,
    table_digests,
)

# pi(x) reference points; classical values, double-checked against the
# bytearray oracle sieve in test_bruteforce.
PI = {10_000: 1_229, 100_000: 9_592, 1_000_000: 78_498}


def test_prime_counts(table1m):
    for x, want in PI.items():
        assert table1m.prime_count(x) == want
    assert table1m.prime_count() == PI[1_000_000]
    # odd primes exclude 2
    assert table1m.count_odd_primes_below(table1m.limit + 1) == PI[1_000_000] - 1


def test_small_prime_list(table1m):
    assert [table1m.odd_prime(k) for k in range(1, 9)] == [3, 5, 7, 11, 13, 17, 19, 23]
    assert table1m.is_prime(2)
    assert not table1m.is_prime(4)
    assert table1m.is_prime(999_983)


@pytest.mark.parametrize(
    "fixture, limit",
    [(None, 6), (None, 7), (None, 4 * SEGMENT), (None, 4 * SEGMENT + 1), ("table10m", None)],
)
def test_prime_list_is_the_primality_mask(request, fixture, limit):
    # The odd primes past the small list are listed from the bits in
    # chunks split at the multiples of SEGMENT odd cells: a limit of 4 *
    # SEGMENT ends at a seam, one more leaves a last chunk of one cell.
    table = request.getfixturevalue(fixture) if fixture else build_table(limit)
    chunks = list(table.odd_prime_chunks())
    assert all(chunk.dtype == np.uint32 for chunk in chunks)
    odd = np.concatenate(chunks)
    assert np.array_equal(odd, np.flatnonzero(expand_table(table)[1])[1:])
    assert np.array_equal(table.odd_primes_through(odd.size + 1), odd)
    # The stored small list is its prefix below 2^16.
    assert chunks[0] is table.small_odd_primes
    assert np.array_equal(table.small_odd_primes, odd[odd < sieve.SMALL_PRIME_BOUND])


def test_table_holds_odd_cells_only(table1m):
    # One uint8 capped index of the largest factor and one primality bit
    # per odd x, and the 6,541 uint32 odd primes below 2^16, and nothing
    # else.
    assert table1m.odd_lpf.dtype == np.uint8 and table1m.odd_prime_bits.dtype == np.uint8
    assert table1m.odd_lpf.size == 8 * table1m.odd_prime_bits.size == 500_000
    assert [f.name for f in dataclasses.fields(table1m)] == [
        "limit", "odd_lpf", "odd_prime_bits", "small_odd_primes"
    ]
    arrays = (table1m.odd_lpf, table1m.odd_prime_bits, table1m.small_odd_primes)
    assert sum(a.nbytes for a in arrays) == 500_000 + 62_500 + 4 * 6_541
    assert holds_only_its_fields(table1m)


def test_scalar_queries_at_the_small_list_seam():
    # The table keeps p_1 .. p_6541 = 65,521, the odd primes below 2^16,
    # and reads the primes past them from its bits.  Every query must
    # read the same on both sides of the seam, and keep nothing.
    primes = [x for x in range(2, 66_200) if trial_is_prime(x)]
    odd = primes[1:]
    assert odd[6_540] == 65_521 < sieve.SMALL_PRIME_BOUND < odd[6_541]
    ks = range(6_530, 6_561)
    table = build_table(10**6)
    assert [table.odd_prime(k) for k in ks] == odd[6_529:6_560]
    xs = range(65_000, 66_101)
    want = [
        (bisect_left(odd, x), bisect_right(primes, x),
         primes[bisect_right(primes, x)] if trial_is_prime(x) else None)
        for x in xs
    ]
    got = [
        (table.count_odd_primes_below(x), table.prime_count(x),
         table.next_prime(x) if table.is_prime(x) else None)
        for x in xs
    ]
    assert got == want
    assert holds_only_its_fields(table)


def _seam_values(limit):
    """x within 3 of 2^16 and of every multiple of 2^21 (the seams of the
    chunks of SEGMENT odd cells) up to limit."""
    centres = [sieve.SMALL_PRIME_BOUND, *range(2 * SEGMENT, limit + 1, 2 * SEGMENT)]
    return [x for c in centres for x in range(c - 3, c + 4) if 2 <= x <= limit]


def test_bit_queries_at_the_chunk_seams(table10m, oracle10m):
    # count_odd_primes_below, prime_count, odd_prime and next_prime read
    # the bits past the small list chunk by chunk, or in a window past p:
    # each must match the oracle around every seam a chunk or a window
    # can cross, and at the last small index and the first past it.
    table, primes = table10m, oracle10m.primes
    xs = _seam_values(table.limit)
    assert len(xs) == 7 * 5
    for x in xs:
        assert table.count_odd_primes_below(x) == bisect_left(primes, x) - 1, x
        assert table.prime_count(x) == bisect_right(primes, x), x
    ks = {6_541, 6_542}
    for x in xs:
        k = bisect_left(primes, x) - 1  # p_k is the last odd prime below x
        ks.update(range(max(k - 3, 1), k + 4))
    for k in sorted(ks):
        assert table.odd_prime(k) == oracle10m.odd_prime(k), k
        p = oracle10m.odd_prime(k)
        assert table.next_prime(p) == primes[bisect_right(primes, p)], p
    # Past a gap of 128 or more next_prime reads a second, wider window:
    # the gap of 130 after 5,518,687 ends on its first cell.
    wide = [(p, q) for p, q in zip(primes, primes[1:]) if q - p >= 128]
    assert len(wide) == 20 and (5_518_687, 5_518_817) in wide
    assert [table.next_prime(p) for p, _ in wide] == [q for _, q in wide]
    # list_primes, which lists the primes of a chunk, of a wave's base
    # primes and cofactors and of the small list, over every cell range
    # that starts within 3 cells of one seam (the table's first cell, the
    # small list's end at cell 2^15, a multiple of SEGMENT) and ends
    # within 3 cells of it or of the next one (the last the table's end).
    odd = np.array(oracle10m.odd_primes, dtype=np.uint32)
    cells = table.odd_lpf.size
    centres = [0, sieve.SMALL_PRIME_BOUND >> 1, *range(SEGMENT, cells, SEGMENT), cells]
    near = [[j for j in range(c - 3, c + 4) if 0 <= j <= cells] for c in centres]
    ranges = [
        (a, b) for here, there in zip(near, near[1:]) for a in here for b in here + there if a <= b
    ]
    assert len(centres) == 7 and len(ranges) == 402
    for a, b in ranges:
        got = sieve.list_primes(table.odd_prime_bits, a, b)
        want = odd[odd.searchsorted(2 * a + 1) : odd.searchsorted(2 * b + 1)]
        assert got.dtype == np.uint32 and np.array_equal(got, want), (a, b)
    assert holds_only_its_fields(table)


def test_factor_tables_against_trial_division(table1m):
    # Spot agreement on a large random sample; 10^5 draws over the full
    # domain, seeded for reproducibility.
    rng = random.Random(0xF4C708)
    for _ in range(100_000):
        x = rng.randrange(2, table1m.limit + 1)
        assert table1m.factorize(x)[0] == trial_smallest_factor(x)
        assert table1m.largest_prime_factor(x) == trial_largest_factor(x)


def test_factorize_reconstructs(table1m):
    rng = random.Random(1)
    for _ in range(2_000):
        x = rng.randrange(2, table1m.limit + 1)
        parts = table1m.factorize(x)
        prod = 1
        for p in parts:
            prod *= p
            assert table1m.is_prime(p)
        assert prod == x
        assert list(parts) == sorted(parts)
        assert parts[0] == trial_smallest_factor(x)
        assert parts[-1] == table1m.largest_prime_factor(x)


def test_prime_fixpoints(table1m):
    assert table1m.largest_prime_factor(997) == 997
    assert table1m.factorize(997) == (997,)


def test_next_prime(table1m):
    assert table1m.next_prime(2) == 3
    assert table1m.next_prime(17) == 19
    assert table1m.next_prime(7919) == 7927
    with pytest.raises(PreconditionError):
        table1m.next_prime(15)
    with pytest.raises(CoverageError):
        table1m.next_prime(999_983)  # largest prime under the limit


def test_odd_prime_indexing_errors(table1m):
    with pytest.raises(PreconditionError):
        table1m.odd_prime(0)
    with pytest.raises(CoverageError):
        table1m.odd_prime(PI[1_000_000])


def test_count_odd_primes_below(table1m):
    assert table1m.count_odd_primes_below(3) == 0
    assert table1m.count_odd_primes_below(4) == 1
    assert table1m.count_odd_primes_below(30) == 9
    assert table1m.count_odd_primes_below(98) == 24


def test_prime_list_searches_match_bisect(table1m, oracle1m):
    # Values far outside the table, 2**40 and negative ones included,
    # must neither wrap nor raise.
    primes = oracle1m.primes
    limit = table1m.limit
    for x in (-5, 0, 2, 3, 7919, 65_536, 65_537, 65_539, limit, limit + 1, 2**40):
        assert table1m.count_odd_primes_below(x) == max(bisect_left(primes, x) - 1, 0), x
        if 2 <= x <= limit:
            assert table1m.prime_count(x) == bisect_right(primes, x), x
    for p in (2, 3, 7919, 65_521, 65_537, 999_979):
        assert table1m.next_prime(p) == primes[bisect_right(primes, p)], p


def test_domain_bounds(table1m):
    for bad in (1, 0, -5, table1m.limit + 1):
        with pytest.raises(OutOfRangeError):
            table1m.largest_prime_factor(bad)
    with pytest.raises(PreconditionError):
        table1m.is_prime("97")


def test_build_validation():
    with pytest.raises(ConfigurationError):
        build_table(5)
    with pytest.raises(ConfigurationError):
        build_table(3_000_000_000)


def test_preflight_refuses_before_allocating(monkeypatch):
    monkeypatch.setattr(sieve, "available_memory_bytes", lambda: 1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match="MiB"):
            build_table(20_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_preflight_estimate():
    # 1 B and 1 bit per odd cell are the arrays a table keeps; the
    # estimate adds the build's or a scalar query's scratch.
    assert sieve.estimate_table_bytes(10**6) >= 500_000 + 62_500
    assert sieve.estimate_table_bytes(10**8) >= 5 * 10**7 + 6_250_000
    # No list of every prime (5,761,455 below 10^8) is counted.
    assert sieve.estimate_table_bytes(10**8) < 5 * 10**7 + 6_250_000 + 4 * 5_761_455
    limit = sieve.MAX_LIMIT
    cells = limit // 2
    assert sieve.estimate_table_bytes(limit) >= cells + cells // 8


def test_preflight_estimate_bounds_the_build():
    # Past the first wave of two segments, so that tracemalloc also sees
    # what the pool's threads allocate.  The build must fit the estimate,
    # and so must the scalar queries past the small list, which unpack
    # and list one chunk of SEGMENT cells at a time.
    limit = 2**23 + 1
    tracemalloc.start()
    try:
        table = build_table(limit)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        count = table.count_odd_primes_below(limit + 1)
        table.odd_prime(count)
        table.next_prime(table.odd_prime(count - 1))
        query_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build_peak <= sieve.estimate_table_bytes(limit)
    assert query_peak <= sieve.estimate_table_bytes(limit)


def test_memory_file_reader(tmp_path):
    (tmp_path / "memory.max").write_text("max\n")
    (tmp_path / "memory.current").write_text("1073741824\n")
    (tmp_path / "memory.stat").write_text("anon 4096\ninactive_file 8192\n")
    assert sieve._read_int(tmp_path / "memory.max") is None
    assert sieve._read_int(tmp_path / "memory.current") == 1 << 30
    assert sieve._read_int(tmp_path / "memory.stat", "inactive_file") == 8192
    assert sieve._read_int(tmp_path / "memory.stat", "active_file") is None
    assert sieve._read_int(tmp_path / "missing") is None


def test_cgroup_headroom_reads_v1_and_v2(tmp_path):
    v1 = tmp_path / "memory" / "box"
    v1.mkdir(parents=True)
    (v1 / "memory.limit_in_bytes").write_text(f"{4 << 30}\n")
    (v1 / "memory.usage_in_bytes").write_text(f"{3 << 30}\n")
    (v1 / "memory.stat").write_text("inactive_file 1\ntotal_inactive_file 4096\n")
    v2 = tmp_path / "job"
    v2.mkdir()
    (v2 / "memory.max").write_text(f"{2 << 30}\n")
    (v2 / "memory.current").write_text(f"{1 << 30}\n")
    (v2 / "memory.stat").write_text("total_inactive_file 1\ninactive_file 8192\n")
    groups = ["5:cpu,cpuacct:/job", "4:memory:/box", "1:name=systemd:/", "0::/job"]
    headroom = sieve._cgroup_headroom(groups, tmp_path)
    assert headroom == [(1 << 30) + 4096, (1 << 30) + 8192]
    assert sieve._cgroup_headroom(["7:cpuset,memory:/box"], tmp_path) == [(1 << 30) + 4096]
    (v2 / "memory.max").write_text("max\n")  # no v2 limit
    assert sieve._cgroup_headroom(["0::/job"], tmp_path) == []
    assert sieve._cgroup_headroom(["4:memory:/missing"], tmp_path) == []


def test_usable_cpus_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert sieve.usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert sieve.usable_cpus() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert sieve.usable_cpus() == 1


def test_preflight_admits_ten_million():
    available = sieve.available_memory_bytes()
    assert available is None or sieve.estimate_table_bytes(10**7) <= available


def _trial_factors(x):
    out = []
    while x > 1:
        out.append(trial_smallest_factor(x))
        x //= out[-1]
    return tuple(out)


def _assert_matches_trial_division(table, xs):
    for x in xs:
        assert table.largest_prime_factor(x) == trial_largest_factor(x), x
        assert table.is_prime(x) == trial_is_prime(x), x
        assert table.factorize(x) == _trial_factors(x), x


# The odd primes through p_257 = 1,627, by trial division.
_ODD_PRIMES = [p for p in range(3, 1_628, 2) if trial_is_prime(p)]


def _cell(largest):
    """min(J(largest), INDEX_CAP), J(p) the number of odd primes up to p:
    the cell of an odd x whose largest prime factor is largest."""
    return min(bisect_right(_ODD_PRIMES, largest), sieve.INDEX_CAP)


def test_cell_names_are_the_odd_primes_below_the_cap():
    assert len(_ODD_PRIMES) == 257 and _ODD_PRIMES[253:] == [1_613, 1_619, 1_621, 1_627]
    assert sieve.INDEX_CAP == 255
    assert sieve.CELL_LPF.dtype == np.uint32
    assert sieve.CELL_LPF.tolist() == [1, *_ODD_PRIMES[:254]]


# The largest factors at the index cap's seam: p_254 (the last a cell
# names), p_255 (the least a capped cell stands for), p_256 and p_257.
_CAP_SEAM = (1_613, 1_619, 1_621, 1_627)


def _past_the_cap(limit, seed):
    """x whose largest factor sits just below, at or past 2^16 and the
    index cap: 65,521 (the last prime below 2^16) and 65,537 (the first
    above it) times each odd m, the primes from 1,500 to 1,800 and just
    past 2^16, 2^a * 65,537, and a seeded sample of [2, limit]."""
    rng = random.Random(seed)
    return [
        *(q * m for q in (65_521, 65_537) for m in range(1, limit // q + 1, 2)),
        *(p for p in range(1_501, 1_800, 2) if trial_is_prime(p)),
        65_537, 65_539, 131_071,
        *(65_537 << a for a in range(1, (limit // 65_537).bit_length())),
        *(rng.randrange(2, limit + 1) for _ in range(3_000)),
    ]


def test_scalar_queries_are_exact_past_the_index_cap(table10m):
    # The cells hold min(J(lpf(x)), INDEX_CAP); the scalar queries read
    # past the cap through PrimeTable.exact_lpf, and the exact expansion
    # (conftest.exact_odd_lpf) rebuilds every cell.
    exact = exact_odd_lpf(table10m)
    for x in _past_the_cap(table10m.limit, 0xCA9):
        largest = trial_largest_factor(x)
        assert table10m.largest_prime_factor(x) == largest, x
        assert table10m.factorize(x) == _trial_factors(x), x
        if x & 1:
            assert table10m.odd_entry(x) == (trial_is_prime(x), largest), x
            assert table10m.odd_lpf[x >> 1] == _cell(largest), x
            assert exact[x >> 1] == largest, x
    # Each prime q of _CAP_SEAM times each odd m: the largest factor of
    # q * m is q or that of m, by trial division of m.
    for q in _CAP_SEAM:
        for m in range(1, table10m.limit // q + 1, 2):
            x, largest = q * m, max(q, trial_largest_factor(m) if m > 1 else 1)
            assert table10m.largest_prime_factor(x) == largest, x
            assert table10m.odd_lpf[x >> 1] == _cell(largest), x
            assert exact[x >> 1] == largest, x


def test_exact_lpf_divides_by_the_small_primes_through_the_square_root(table10m):
    # A capped composite x loses its least prime factors until what is
    # left is prime by its bit.  For 65,537 * 151 and 65,537 * 3^4 the
    # cofactor divides out in exact_lpf's loop over p_1 .. p_254;
    # 1,621^2, 1,619 * 1,621 and 3 * 1,621^2 have no factor there past
    # the 3, so their least factor past it comes from the small list up
    # to isqrt(x), that bound included: 1,621 for 1,621^2.
    x = 65_537 * 151
    assert x == 9_896_087 and x // 65_537 == 151
    cases = {
        x: 65_537, 65_537 * 3**4: 65_537, 1_621**2: 1_621, 1_619 * 1_621: 1_621,
        3 * 1_621**2: 1_621, 3 * 1_619**2: 1_619, 9_999_991: 9_999_991,
    }
    for x, largest in cases.items():
        assert table10m.odd_lpf[x >> 1] == sieve.INDEX_CAP, x
        assert table10m.exact_lpf(x) == largest == trial_largest_factor(x), x
    # A capped prime is its own largest factor, from its bit; p_254 is the
    # last prime a cell names.
    assert table10m.is_prime(9_999_991)
    assert table10m.odd_lpf[1_613 >> 1] == 254 and table10m.exact_lpf(1_613) == 1_613
    assert table10m.odd_lpf[1_613 * 3 >> 1] == 254 and table10m.exact_lpf(1_613 * 3) == 1_613


def test_tables_match_trial_division_exhaustively():
    # Every cell of every doubling segment [2^j, 2^(j+1)) up to 50,000,
    # and every even x between them through the scalar queries; x = limit
    # for an even and an odd limit.
    table = build_table(50_000)
    _assert_matches_trial_division(table, range(2, 50_001))
    _assert_matches_trial_division(build_table(50_001), [50_001])
    assert table.odd_lpf[0] == 0  # x = 1
    assert not odd_primality(table)[0]


def test_tables_match_trial_division_at_segment_seams(table10m):
    # Segments [lo, hi) follow build_table's rule, and the waves start at
    # the powers of 2 among them; check a window around every start (the
    # first covers x = 2, 3, 4) and the last cells, through the scalar
    # queries, the cells and the exact expansion.
    limit = table10m.limit
    exact = exact_odd_lpf(table10m)
    starts, lo = [], 2
    while lo <= limit:
        starts.append(lo)
        lo = min(2 * lo, lo + 2 * SEGMENT, limit + 1)
    assert starts[-1] > 2 * SEGMENT  # past the doubling starts
    windows = [range(max(2, s - 64), min(limit, s + 64) + 1) for s in starts]
    windows.append(range(limit - 64, limit + 1))
    for xs in windows:
        _assert_matches_trial_division(table10m, xs)
        for x in xs:
            if x & 1:
                largest = trial_largest_factor(x) if x > 1 else 1
                assert table10m.odd_lpf[x >> 1] == _cell(largest), x
                assert exact[x >> 1] == largest, x
    # The odd multiples q * m of each prime q of _CAP_SEAM with m within
    # 64 of s / q, for every start s: the cells that the strikes and
    # scatters of those primes' indices write on both sides of each seam.
    for s in starts[1:]:
        for q in _CAP_SEAM:
            below = [m for m in range(max(1, s // q - 64) | 1, s // q + 65, 2) if q * m <= limit]
            for x in (q * m for m in below):
                largest = trial_largest_factor(x)
                assert table10m.largest_prime_factor(x) == largest, x
                assert table10m.odd_lpf[x >> 1] == _cell(largest), x
                assert exact[x >> 1] == largest, x


def test_icbrt():
    for n in [*range(10_000), *(c**3 + d for c in range(22, 1300) for d in (-1, 0, 1))]:
        r = sieve._icbrt(n)
        assert r**3 <= n < (r + 1) ** 3, n


def test_tables_match_trial_division_where_the_split_moves(table10m):
    # A wave ending at end strikes with its base primes below
    # c = icbrt(end - 1) + 1 and lets the rest write only their
    # semiprimes: c is 162 for [2^21, 2^22) and 204 for [2^22, 2^23), so
    # a prime in [162, 204) writes semiprimes below 2^22 and strikes
    # above it.  Every odd x on both sides of that seam, its capped index
    # cell and its exact largest factor.
    assert [sieve._icbrt(end - 1) + 1 for end in (2**22, 2**23)] == [162, 204]
    lo, hi = 2**22 - 2**13, 2**22 + 2**14
    cells = slice(lo >> 1, hi >> 1)  # odd x = lo + 1, lo + 3, ... < hi
    lpf, primality = table10m.odd_lpf[cells].tolist(), odd_primality(table10m)[cells].tolist()
    for x, capped, prime in zip(range(lo + 1, hi, 2), lpf, primality):
        largest = trial_largest_factor(x)
        assert capped == _cell(largest), x
        assert table10m.largest_prime_factor(x) == largest, x
        assert prime == trial_is_prime(x), x


# sha256 prefixes of the largest factors' and the primality's bytes over
# every x in [0, limit] (conftest.expand_table), as a table over every
# integer held them.
PINNED_TABLE_BYTES = {
    "table1m": ("b4d3078b5f86878f", "1d8537de67d9eab4"),
    "table10m": ("6976b4a993421c9e", "ab158d028a45c741"),
}
# sha256 prefixes of the exact uint32 largest factors of the odd x
# (conftest.exact_odd_lpf, which also checks the stored index cells) and
# of the primality bits unpacked to one bool byte per odd x
# (conftest.table_digests), which are the odd x of the above;
# test_search.test_canonical_digest pins the 10^8 table's.
PINNED_ODD_BYTES = {
    "table1m": ("527061693fb14a78", "c4a6ae653a2c3e60"),
    "table10m": ("0538db4d39e0e54c", "a862af34ca022326"),
}


@pytest.mark.parametrize("name", sorted(PINNED_TABLE_BYTES))
def test_table_bytes_pinned(name, request):
    table = request.getfixturevalue(name)
    assert digests(*expand_table(table)) == PINNED_TABLE_BYTES[name]
    assert table_digests(table) == PINNED_ODD_BYTES[name]


# -- the packed primality -----------------------------------------------------


@pytest.mark.parametrize(
    "limit",
    [*range(6, 64), *(2**22 + d for d in (-17, -16, -15, -1, 0, 1, 15, 16, 17)), 2**23 + 1],
)
def test_prime_bits_layout(limit):
    # Cell j, x = 2j + 1, is bit j & 7 of byte j >> 3 in little bit
    # order, and the bits past the last cell are clear: the bytes are
    # np.packbits of the odd x's primality, which holds exactly where
    # lpf(x) = x > 1.  The limits below 64 end a table at every bit of
    # its first bytes, where the waves below 16 share byte 0; those
    # around 2^22 end it where the first wave of two segments starts,
    # and 2^23 + 1 just past that wave, whose segments run on threads
    # when two CPUs are usable.
    table = build_table(limit)
    lpf, primality = expand_table(table)
    x = np.arange(limit + 1)
    assert np.array_equal(primality, (lpf == x) & (x > 1))
    assert table.odd_prime_bits.dtype == np.uint8
    assert np.array_equal(table.odd_prime_bits, np.packbits(primality[1::2], bitorder="little"))
    if limit < 64:
        assert primality.tolist() == [x > 1 and trial_is_prime(x) for x in range(limit + 1)]


def test_bit_readers_match_the_unpacked_bits(table1m):
    # unpack_bits over ranges that start and stop at every bit of a
    # byte, empty ones included; gather_bits over an index array of any
    # shape and over one int cell.
    bits, want = table1m.odd_prime_bits, odd_primality(table1m)
    cells = want.size
    for start in [*range(17), 4_093, cells - 9]:
        for stop in range(start, min(start + 19, cells + 1)):
            got = sieve.unpack_bits(bits, start, stop)
            assert got.dtype == bool and np.array_equal(got, want[start:stop]), (start, stop)
    assert np.array_equal(sieve.unpack_bits(bits, 0, cells), want)
    rng = np.random.default_rng(23)
    for shape in [(0,), (1,), (999,), (37, 41)]:
        index = rng.integers(0, cells, shape)
        got = sieve.gather_bits(bits, index)
        assert got.dtype == bool and np.array_equal(got, want[index])
    assert [sieve.gather_bits(bits, j) for j in range(64)] == want[:64].tolist()


# -- the wave-parallel build --------------------------------------------------
#
# From 2 * SEGMENT = 2**21 on, a wave [2**k, 2**(k+1)) holds 2**(k-21)
# segments.  With two or more usable CPUs, a wave of two or more runs
# through the pool's map; every other wave runs on the calling thread.


@pytest.mark.parametrize(
    "limit",
    [2**k + d for k in (21, 22, 23) for d in (-1, 0, 1)]
    + [2**22 + 2 * SEGMENT - 1, 2**22 + 2 * SEGMENT + 1],
)
def test_wave_seams_are_prefixes(limit, table10m):
    table = build_table(limit)
    cells = (limit + 1) // 2
    assert np.array_equal(table.odd_lpf, table10m.odd_lpf[:cells])
    assert np.array_equal(odd_primality(table), odd_primality(table10m)[:cells])
    assert table.prime_count() == table10m.prime_count(limit)


@pytest.mark.parametrize("cpus", [1, 3])
def test_thread_count_is_invisible(cpus, monkeypatch):
    monkeypatch.setattr(sieve, "usable_cpus", lambda: cpus)
    assert table_digests(build_table(10**7)) == PINNED_ODD_BYTES["table10m"]


def test_build_leaves_no_thread_behind(monkeypatch):
    monkeypatch.setattr(sieve, "usable_cpus", lambda: 2)
    ran_on = set()
    sieve_segment = sieve._sieve_segment

    def recorded(*args):
        ran_on.add(threading.get_ident())
        sieve_segment(*args)

    monkeypatch.setattr(sieve, "_sieve_segment", recorded)
    before = threading.enumerate()
    build_table(2**23 + 1)
    assert len(ran_on) > 1  # the pool did run segments
    assert set(threading.enumerate()) == set(before)


@pytest.mark.parametrize(
    "limit, cpus",
    [(2**22 - 1, 2), (2**23 + 1, 1)],
    ids=["one-segment-waves", "one-cpu"],
)
def test_single_segment_waves_and_one_cpu_start_no_thread(limit, cpus, monkeypatch):
    monkeypatch.setattr(sieve, "usable_cpus", lambda: cpus)
    ran_on = []
    sieve_segment = sieve._sieve_segment

    def recorded(*args):
        ran_on.append(threading.current_thread())
        sieve_segment(*args)

    monkeypatch.setattr(sieve, "_sieve_segment", recorded)
    before = threading.enumerate()
    build_table(limit)
    assert ran_on and set(ran_on) == {threading.current_thread()}
    assert set(threading.enumerate()) == set(before)


def test_segment_error_propagates_and_joins_the_pool(monkeypatch):
    # Every segment of a wave of two or more runs on a pool thread and
    # fails; the one-segment waves before it run on the calling thread.
    monkeypatch.setattr(sieve, "usable_cpus", lambda: 2)
    failed = []
    sieve_segment = sieve._sieve_segment

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            failed.append(args[-2])
            raise RuntimeError("segment failed")
        sieve_segment(*args)

    monkeypatch.setattr(sieve, "_sieve_segment", failing)
    before = threading.enumerate()
    with pytest.raises(RuntimeError, match="segment failed"):
        build_table(2**23 + 1)
    assert failed
    assert set(threading.enumerate()) == set(before)


def _prefix_limits():
    """Limits where a segment's strikes can go wrong, up to 50,000.

    p^2 - 1, p^2 and p^2 + 1 put the limit around the first multiple an
    odd base prime strikes, and 2^k - 1, 2^k and 2^k + 1 around the
    doubling segment starts: a final segment that is short, one cell
    long, or holds no multiple of some base prime (an empty strike).
    c^3 - 1, c^3 and c^3 + 1 move the last wave's split between the base
    primes that strike and those that write only their semiprimes.
    """
    odd_primes = [p for p in range(3, 224) if trial_is_prime(p)]
    limits = set(range(6, 14))
    centres = [p * p for p in odd_primes] + [2**k for k in range(3, 16)]
    for centre in centres + [c**3 for c in range(2, 37)]:
        limits.update((centre - 1, centre, centre + 1))
    return sorted(limits)


@pytest.fixture(scope="module")
def table50k():
    return build_table(50_000)


@pytest.mark.parametrize("limit", _prefix_limits())
def test_table_is_a_prefix_of_a_larger_one(limit, table50k):
    table = build_table(limit)
    cells = (limit + 1) // 2
    assert np.array_equal(table.odd_lpf, table50k.odd_lpf[:cells])
    assert np.array_equal(odd_primality(table), odd_primality(table50k)[:cells])
    small = table.small_odd_primes
    assert np.array_equal(small, table50k.small_odd_primes[: small.size])
    assert table.prime_count() == table50k.prime_count(limit)
