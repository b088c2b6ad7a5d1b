"""Prime and factorization tables over a contiguous range [2, limit].

The engine's hot loops never factor anything at query time.  Instead a
single segmented sieve pass produces, for every x in [2, limit]:

  * lpf[x] -- the largest prime factor of x (x itself when x is prime),
  * primality[x] -- whether x is prime.

Each segment [lo, hi) is sieved into a segment-local smallest-factor
array by writing each base prime over its multiples in *descending* prime
order, so the last write at any composite is its smallest prime factor
s.  A cell no base prime reached is prime.  Segments keep hi <= 2*lo, so
the base primes p with p*p < hi lie below lo and are read from the
primality of segments already finished; no second sieve is needed.  For
the same reason the quotient x // s of a composite lies below lo, and
lpf[x] = max(s, lpf[x // s]) is a single gather (the segmented sieve of
Bays & Hudson, BIT 17, 1977).

Tables are uint32, so the supported ceiling is bounded by 2**32 - 1; the
practical ceiling here is memory (5 bytes per integer resident), so
build_table estimates its bytes first and refuses a limit that does not
fit in the memory available to the process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt, log
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, CoverageError, OutOfRangeError, PreconditionError

MIN_LIMIT = 6
MAX_LIMIT = 2_000_000_000  # uint32-safe with headroom; memory runs out first
# Cells per sieve segment once the doubling start is past.  Its 4 MiB
# scratch arrays, freed after each segment, also lift glibc's dynamic
# mmap threshold above the first-hit scan's per-step row arrays: with
# 1 << 18 the [6, 10^7] sweep that follows took 76k more page faults and
# ~25% longer (3 runs each, 2-vCPU Xeon VM).
SEGMENT = 1 << 20
# Bytes per segment cell held at once while a segment is sieved: the
# uint32 smallest-factor scratch, x, x // s and the lpf gather, and the
# bool prime mask.
_SEGMENT_CELL_BYTES = 17


def estimate_table_bytes(limit: int) -> int:
    """Upper estimate of the bytes build_table(limit) allocates.

    5 bytes per integer for lpf and primality, 8 per prime for the prime
    list (pi(x) < 1.25506 x / ln x; Rosser & Schoenfeld 1962) and one
    segment's scratch.
    """
    primes = int(1.25506 * limit / log(limit)) + 1
    return 5 * (limit + 1) + 8 * primes + _SEGMENT_CELL_BYTES * SEGMENT


def _read_int(path: Path, key: str | None = None) -> int | None:
    """The integer in path, or after key in its "key value" lines."""
    try:
        for line in path.read_text().splitlines():
            fields = line.split()
            if key is None:
                return int(fields[0])
            if fields and fields[0] == key:
                return int(fields[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


# (limit file, usage file, memory.stat key of reclaimable page cache)
_CGROUP_V2_FILES = ("memory.max", "memory.current", "inactive_file")
_CGROUP_V1_FILES = ("memory.limit_in_bytes", "memory.usage_in_bytes", "total_inactive_file")


def available_memory_bytes() -> int | None:
    """Bytes this process may still allocate, or None if nothing is known.

    The smaller of /proc/meminfo's MemAvailable and what the process's
    memory cgroup (v1 or v2) still allows.
    """
    figures = []
    kib = _read_int(Path("/proc/meminfo"), "MemAvailable:")
    if kib is not None:
        figures.append(kib * 1024)
    try:
        groups = Path("/proc/self/cgroup").read_text().splitlines()
    except OSError:
        groups = []
    figures += _cgroup_headroom(groups, Path("/sys/fs/cgroup"))
    return min(figures) if figures else None


def _cgroup_headroom(groups: list[str], root: Path) -> list[int]:
    """Bytes left under each memory limit named by /proc/self/cgroup lines.

    A v2 line ("0::/path") reads memory.max less memory.current under
    root/path; a v1 line ("N:memory:/path") reads memory.limit_in_bytes
    less memory.usage_in_bytes under root/memory/path.  Inactive page
    cache can be reclaimed, so it is not counted as used.  A v2 group
    without a limit ("max") adds nothing; an unlimited v1 group reads as
    a limit near 2**63 and so never decides the minimum.
    """
    figures = []
    for line in groups:
        controllers, _, path = line.partition(":")[2].partition(":")
        path = path.strip().lstrip("/")
        if controllers == "":
            group, (cap_file, used_file, cache_key) = root / path, _CGROUP_V2_FILES
        elif "memory" in controllers.split(","):
            group, (cap_file, used_file, cache_key) = root / "memory" / path, _CGROUP_V1_FILES
        else:
            continue
        cap = _read_int(group / cap_file)  # None when it reads "max"
        used = _read_int(group / used_file)
        if cap is not None and used is not None:
            cache = _read_int(group / "memory.stat", cache_key) or 0
            figures.append(cap - used + cache)
    return figures


@dataclass(frozen=True)
class PrimeTable:
    """Immutable primality and factor tables for integers in [2, limit]."""

    limit: int
    lpf: np.ndarray
    primality: np.ndarray
    odd_primes: np.ndarray
    _primes: np.ndarray = field(repr=False)

    # -- scalar queries -------------------------------------------------

    def _check(self, x: int) -> None:
        if not isinstance(x, (int, np.integer)):
            raise PreconditionError(f"expected an integer, got {type(x).__name__}")
        if x < 2 or x > self.limit:
            raise OutOfRangeError(f"{x} outside table domain [2, {self.limit}]")

    def is_prime(self, x: int) -> bool:
        self._check(x)
        return bool(self.primality[x])

    def largest_prime_factor(self, x: int) -> int:
        self._check(x)
        return int(self.lpf[x])

    def factorize(self, x: int) -> tuple[int, ...]:
        """Prime factors of x in nondecreasing order, with multiplicity."""
        self._check(x)
        out = []
        v = int(x)
        while v > 1:
            p = int(self.lpf[v])
            out.append(p)
            v //= p
        out.reverse()
        return tuple(out)

    def next_prime(self, p: int) -> int:
        """Smallest prime strictly greater than the prime p."""
        self._check(p)
        if not self.primality[p]:
            raise PreconditionError(f"next_prime needs a prime argument, got {p}")
        j = int(np.searchsorted(self._primes, p, side="right"))
        if j >= self._primes.size:
            raise CoverageError(f"no prime above {p} within limit {self.limit}")
        return int(self._primes[j])

    # -- odd prime indexing (1-based, p_1 = 3) --------------------------

    def odd_prime(self, k: int) -> int:
        if k < 1:
            raise PreconditionError(f"odd prime index must be >= 1, got {k}")
        if k > self.odd_primes.size:
            raise CoverageError(
                f"odd prime #{k} requested but table holds {self.odd_primes.size}"
            )
        return int(self.odd_primes[k - 1])

    def count_odd_primes_below(self, n: int) -> int:
        """Number of odd primes strictly less than n."""
        return int(np.searchsorted(self.odd_primes, n, side="left"))

    def prime_count(self, x: int | None = None) -> int:
        """pi(x): number of primes <= x (defaults to the full table)."""
        if x is None:
            return int(self._primes.size)
        self._check(x)
        return int(np.searchsorted(self._primes, x, side="right"))


def build_table(limit: int) -> PrimeTable:
    """Sieve [2, limit] in one segmented pass and return the table set."""
    if limit < MIN_LIMIT:
        raise ConfigurationError(f"limit must be >= {MIN_LIMIT}, got {limit}")
    if limit > MAX_LIMIT:
        raise ConfigurationError(f"limit must be <= {MAX_LIMIT}, got {limit}")
    need = estimate_table_bytes(limit)
    available = available_memory_bytes()
    if available is not None and need > available:
        raise ConfigurationError(
            f"a table for limit {limit} needs about {need >> 20} MiB, "
            f"but only {max(available, 0) >> 20} MiB of memory is available"
        )
    lpf = np.empty(limit + 1, dtype=np.uint32)
    lpf[:2] = (0, 1)  # a prime x reads lpf[x // x] = 1 below
    primality = np.zeros(limit + 1, dtype=bool)
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, lo + SEGMENT, limit + 1)
        spf_seg = np.zeros(hi - lo, dtype=np.uint32)
        # Descending: the smallest prime writes last and wins.  Starting
        # at p*p leaves each base prime itself unwritten, hence prime.
        for p in np.flatnonzero(primality[: isqrt(hi - 1) + 1])[::-1].tolist():
            start = max(p * p, -(-lo // p) * p)
            spf_seg[start - lo :: p] = p
        x = np.arange(lo, hi, dtype=np.uint32)
        prime = spf_seg == 0
        primality[lo:hi] = prime
        spf_seg[prime] = x[prime]
        np.maximum(spf_seg, lpf[x // spf_seg], out=lpf[lo:hi])
        lo = hi
    primes = np.flatnonzero(primality)
    return PrimeTable(
        limit=limit,
        lpf=lpf,
        primality=primality,
        odd_primes=primes[1:],
        _primes=primes,
    )
