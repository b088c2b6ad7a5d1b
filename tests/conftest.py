"""Shared fixtures: real tables at several scales, plus a doctoring tool.

Counterexample, anomaly, and proof-violation paths are unreachable with
honest numbers in the tested ranges, so tests drive them with tables
whose primality bits / factor entries / small prime list have been
deliberately falsified.  make_doctored builds such a table without mutating the
original (PrimeTable is frozen; arrays are copied on demand).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from bisect import bisect_left
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import factorwitness
from factorwitness.bruteforce import BruteOracle
from factorwitness.sieve import CELL_LPF, INDEX_CAP, SMALL_PRIME_BOUND, PrimeTable, build_table

# The property tests draw the same examples on every run, seeded from
# each test function (and so with no example database), so their cost
# and what they cover do not change from one run to the next.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def table1m() -> PrimeTable:
    return build_table(1_000_000)


@pytest.fixture(scope="session")
def table10m() -> PrimeTable:
    return build_table(10_000_000)


@pytest.fixture(scope="session")
def oracle10k() -> BruteOracle:
    return BruteOracle(10_000)


@pytest.fixture(scope="session")
def oracle1m() -> BruteOracle:
    return BruteOracle(1_000_000)


@pytest.fixture(scope="session")
def oracle10m() -> BruteOracle:
    return BruteOracle(10_000_000)


def src_env() -> dict:
    """This environment with the imported package's source first on PYTHONPATH,
    for tests that run the package in a fresh interpreter."""
    src = str(Path(factorwitness.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def clear_bits(bits: np.ndarray, xs) -> np.ndarray:
    """A copy of a table's odd_prime_bits with the bits of the odd xs clear."""
    bits = bits.copy()
    for x in xs:
        j = x >> 1
        bits[j >> 3] &= 0xFF ^ (1 << (j & 7))
    return bits


def make_doctored(
    table: PrimeTable,
    *,
    not_prime=(),
    lpf_overrides=None,
    primes=None,
) -> PrimeTable:
    """Copy of table with selected facts falsified.

    not_prime: odd values whose primality bit is forced off (the scan
    will treat them as composite; their lpf entries are untouched).
    lpf_overrides: {odd value: fake_largest_factor}, the fake 1 or an odd
    prime below p_255 = 1,619, which the table stores as its cell: 0 for
    1, the index J of the prime otherwise.
    primes: the sorted primes from 2 on whose odd ones below
    SMALL_PRIME_BOUND replace the small list; used to sabotage
    next_prime and to cut the scan short.  The table's odd primes then
    go on with those its bits hold from SMALL_PRIME_BOUND on, so a
    prime cut from the list stays out of the scan only below that bound.
    Without it the small list is table's, so a prime whose primality bit
    is forced off stays in it.  The table stores odd x only, in cell
    x >> 1, so an even value is refused.
    """
    for x in (*not_prime, *(lpf_overrides or ())):
        if x % 2 == 0:
            raise ValueError(f"the table stores odd values only, cannot doctor {x}")
    bits = clear_bits(table.odd_prime_bits, not_prime) if not_prime else table.odd_prime_bits
    lpf = table.odd_lpf
    if lpf_overrides:
        lpf = lpf.copy()
        for x, fake in lpf_overrides.items():
            cell = int(np.searchsorted(CELL_LPF, fake))
            if cell == INDEX_CAP or CELL_LPF[cell] != fake:
                raise ValueError(f"a cell cannot name the largest factor {fake}")
            lpf[x >> 1] = cell
    small = table.small_odd_primes
    if primes is not None:
        odd = np.asarray(primes, dtype=np.uint32)[1:]
        small = odd[odd < SMALL_PRIME_BOUND]
    return PrimeTable(
        limit=table.limit,
        odd_lpf=lpf,
        odd_prime_bits=bits,
        small_odd_primes=small,
    )


def holds_only_its_fields(table: PrimeTable) -> bool:
    """Whether the table's instance dict holds its four fields and nothing
    else: no query keeps a list or cache beside them."""
    return list(vars(table)) == [f.name for f in dataclasses.fields(table)]


def scalar_first_hits(table: PrimeTable, lo: int, hi: int) -> list[int]:
    """search._first_hits of [lo, hi], one row at a time.

    Row n scans the odd primes below n as goldbach_decompose does and
    records i* = i, or minus the instance count when no n - p_i is prime.
    """
    odd = table.odd_primes_through(table.count_odd_primes_below(hi)).tolist()
    out = []
    for n in range(lo, hi + 1, 2):
        scanned = bisect_left(odd, n)
        first = -scanned
        for i in range(scanned):
            if n - odd[i] > 1 and table.is_prime(n - odd[i]):
                first = i + 1
                break
        out.append(first)
    return out


def expand_hits(hits, lo: int, hi: int) -> list[int]:
    """The per-row first hits of a search._first_hits record of [lo, hi].

    Gives scalar_first_hits's form: i*, or minus the instance count of a
    row without a hit.  A row the head settled has i* equal to the number
    of its masks, the last excepted, that hold it.  Checks the record's
    shape on the way: each mask is a whole number of 8-byte words, the
    first holds every head row, each later one is a subset of the one
    before, no bit past the last row is set, and the rows the head left
    are exactly those below it and those alive after its last step.
    """
    rows = (hi - lo) // 2 + 1
    width = rows - hits.head
    masks = np.unpackbits(hits.masks, axis=1, bitorder="little").astype(bool)
    assert hits.masks.dtype == np.uint8 and hits.masks.shape[1] % 8 == 0
    assert 0 <= hits.head < rows and width <= masks.shape[1] < width + 64
    assert masks[0, :width].all() and not masks[:, width:].any()
    assert not (masks[1:] & ~masks[:-1]).any()
    assert hits.rows.tolist() == [
        *range(hits.head), *(hits.head + np.flatnonzero(masks[-1])).tolist()
    ]
    first = np.zeros(rows, dtype=np.int64)
    first[hits.head :] = masks[:-1, :width].sum(axis=0)
    first[hits.rows] = hits.first
    return first.tolist()


def exact_odd_lpf(table: PrimeTable) -> np.ndarray:
    """The exact largest prime factor of every odd x in [1, limit], uint32,
    rebuilt from the index cells without the table's scalar queries.

    A cell c below INDEX_CAP names CELL_LPF[c]; a capped odd x has a
    largest factor q >= p_255 = 1,619.  Each prime q of the table's bits
    from 1,619 through r = isqrt(limit), ascending, writes itself into
    the cells of its odd multiples, so each of those ends with its largest
    such factor.  An x has at most one prime factor q > r, and x = q * m
    with m <= limit / (r + 1): one scatter of those q into the cells q * m
    per odd m refills the rest.  Checks that every capped cell was
    refilled and no other overwritten, that is, that the stored cells are
    exactly min(J(lpf), INDEX_CAP), J(p) the number of odd primes up to p.
    """
    stored = table.odd_lpf
    first, root = 1_619, isqrt(table.limit)  # p_255, the least factor a capped cell stands for
    lpf = np.append(CELL_LPF, 0).astype(np.uint32).take(stored)  # 0 in the capped cells
    q = 2 * np.flatnonzero(odd_primality(table)[first >> 1 :]) + first
    split = np.searchsorted(q, root, side="right")
    for p in q[:split].tolist():
        lpf[(p - 1) >> 1 :: p] = p  # x = p * m, m odd
    q = q[split:]
    for m in range(1, table.limit // (root + 1) + 1, 2):
        x = q[: np.searchsorted(q, table.limit // m, side="right")]
        lpf[(x * m) >> 1] = x
    step = 1 << 20
    for c in range(0, lpf.size, step):
        exact = lpf[c : c + step]
        assert exact.all() and np.array_equal(exact >= first, stored[c : c + step] == INDEX_CAP)
    return lpf


def expand_table(table: PrimeTable) -> tuple[np.ndarray, np.ndarray]:
    """The table's largest factors and primality over every x in [0, limit].

    The odd cells, decoded and refilled past the cap (exact_odd_lpf), give odd x; an
    even x = 2^a * m, m odd, has lpf(x) = max(2, lpf(m)) and is prime iff
    x == 2.  lpf(0) = 0 and lpf(1) = 1, as a table over every integer held
    them.
    """
    odd = exact_odd_lpf(table)
    lpf = np.zeros(table.limit + 1, dtype=np.uint32)
    lpf[1::2] = odd
    a = 2
    while a <= table.limit:  # x = a * (2j + 1), from lpf(2j + 1)
        cells = lpf[a :: 2 * a]
        np.maximum(odd[: cells.size], 2, out=cells)
        a *= 2
    primality = np.zeros(table.limit + 1, dtype=bool)
    primality[1::2] = odd_primality(table)
    primality[2] = True
    return lpf, primality


def odd_primality(table: PrimeTable) -> np.ndarray:
    """The table's primality bits unpacked, one bool per odd x in [1, limit]."""
    cells = table.odd_lpf.size
    return np.unpackbits(table.odd_prime_bits, count=cells, bitorder="little").view(bool)


def digests(*arrays: np.ndarray) -> tuple[str, ...]:
    """sha256 prefixes of each array's tobytes()."""
    return tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in arrays)


def table_digests(table: PrimeTable) -> tuple[str, str]:
    """sha256 prefixes of the exact uint32 largest factors of the odd x
    (exact_odd_lpf) and of the primality bits unpacked to one bool byte
    per odd x."""
    return digests(exact_odd_lpf(table), odd_primality(table))
