"""Prime and factorization tables over a contiguous range [2, limit].

The engine's hot loops never factor anything at query time.  Instead a
single segmented sieve pass produces, for every odd x in [1, limit], in
cell j = (x - 1) / 2 of two arrays:

  * odd_lpf[j] -- the index J among the odd primes (J(3) = 1) of the
    largest prime factor of x (x itself when x is prime), capped at
    INDEX_CAP = 255, a uint8: min(J(lpf(x)), 255), and 0 for x = 1.
    CELL_LPF[c] is the factor that a cell c < INDEX_CAP names, 1 for
    c = 0 and p_c otherwise, so every cell below the cap is exact, and a
    capped cell stands for a factor of at least p_255 = 1,619;
  * odd_prime_bits -- whether x is prime, one bit per cell: bit j & 7 of
    byte j >> 3, in little bit order, the bits past the last cell clear
    (6.0 MiB at 10^8, where a bool per cell took 47.7 MiB).  Readers
    go through unpack_bits, which unpacks a cell range to bools,
    gather_bits, which reads the bits of given cells, or list_primes,
    which lists the primes of a cell range; the sweep's head reads a
    window of the bytes itself.

Only odd x are stored, the wheel of 2 (Pritchard, Acta Inf. 17, 1982),
because the scan reads only the odd values n - p_i.  The scalar
queries answer an even x = 2^a * m, m odd, from m: its largest prime
factor is max(2, lpf(m)), and it is prime exactly when x == 2.

Each segment [lo, hi) keeps hi <= 2*lo, so everything a segment reads
lies below lo, in segments already finished (the segmented sieve of
Bays & Hudson, BIT 17, 1977).  The sieve runs in doubling waves
[L, 2L): every segment of a wave reads only [2, L), so a wave's
segments, 2 * SEGMENT integers each once L reaches 2 * SEGMENT, are
independent.  A wave of two or more segments runs through one
Executor.map on a pool of usable_cpus() threads (numpy drops the
interpreter lock inside a strike, fill or compare ufunc of more than 500
cells); every other wave runs on the calling thread, so a table below
2**22, or any table on one CPU, starts no thread.  The pool is joined
before build_table returns.

Each cell of a segment starts at 0.  The odd base primes p (p*p < hi,
listed from the finished bits) split at c = icbrt(end - 1) + 1 of their
wave [L, end), so that c**3 > end - 1; c is at most 1,260 < p_255 at
MAX_LIMIT.  Each p below c strikes its odd multiples x = p*m >= p*p with
the cell max(J(p), cell(m)), as lpf(x) = max(p, lpf(m)) and J and the
cap keep order: one ufunc per prime that writes every p-th cell and
reads the cells of m contiguously.  That identity holds for every prime
p dividing x, not only the smallest, and m <= x/3 < lo is already final,
so every write is the cell's value and the primes strike in any order.
A composite x < end whose least prime factor p is at least c is p*q
with q prime and q >= p, so lpf(x) = q; every other multiple of such a
p has a prime factor below c, whose strike writes it.  So each p >= c
writes only its semiprimes, with q from the wave's list of odd primes
below end / c < L (its cofactors, listed likewise, so q's position in
the list is J(q) - 1): a gather and a scatter of min(J(q), INDEX_CAP) of
at most _SCATTER_PAIRS (p, q) pairs at a time, so a thread holds about
0.1 MiB of index arrays at any limit.  At 10^8 those primes write
3,764,915 cells in 955 scatters, where striking took 38,570 ufuncs over
19,100,976 cells, each write at a stride of 2p bytes and so mostly a
cache miss.  So every odd composite cell is written, with J >= 1, and
an odd x is prime exactly when its cell still holds 0, a contiguous
compare that each segment packs into its own bytes of odd_prime_bits;
then the prime cells take their capped index.  From lo = 16 on every
wave and segment starts at a multiple of 8 cells, so no two threads
write the same byte; the waves below 16 share byte 0 and run on the
calling thread.

Beside the two arrays the table keeps one more, the odd primes below
SMALL_PRIME_BOUND = 2^16 (6,541 of them, 26 KB), which is all that an
honest sweep reads: no first hit up to 10^8 lies past p_182 = 1,093, and
minimal Goldbach primes stay below 9,781 up to 4 * 10^18 (Oliveira e
Silva, Herzog & Pardi, Math. Comp. 83, 2014).  The table's odd primes
are that list followed by the primes the bits hold from there on, and no
other copy is kept: the scalar queries past the small list count or
list the bits, one chunk of SEGMENT cells at a time.  A sweep compares
lpf(n - p_j) only with p_k, and lpf >= p_k exactly when J(lpf) >= k, so
it compares the cells with k, exact for every k < INDEX_CAP; the scalar
queries read exact_lpf, which divides a capped composite by its least
prime factors until what is left is prime (each of them at most its
square root, below 2^16 for every x <= MAX_LIMIT).

The cofactors and products are uint32, so the supported ceiling is
bounded by 2**32 - 1; the practical ceiling here is memory (1 byte and
1 bit per odd integer resident, about 0.56 bytes per integer), so
build_table estimates its bytes first and refuses a limit that does not
fit in the memory available to the process.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from math import isqrt, log
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:  # no resource module (Windows)
    resource = None

from .errors import ConfigurationError, CoverageError, OutOfRangeError, PreconditionError

MIN_LIMIT = 6
MAX_LIMIT = 2_000_000_000  # uint32-safe with headroom; memory runs out first
# Odd cells per sieve segment once the doubling start is past (2 * SEGMENT
# integers), and per chunk of the scalar queries that read the bits.
SEGMENT = 1 << 20
# The table stores the odd primes below this bound; the scalar queries
# read the primes past it from the bits (module docstring).
SMALL_PRIME_BOUND = 1 << 16
# The largest value an odd_lpf cell holds, which every x whose largest
# prime factor is p_255 = 1,619 or more takes (module docstring).
INDEX_CAP = (1 << 8) - 1
# (p, q) pairs per semiprime scatter of a segment's large base primes,
# which caps a thread's scatter at 128 KiB at any limit.
_SCATTER_PAIRS = 1 << 12
# Bytes held per (p, q) pair of a semiprime scatter: the pair index and
# its prime's index (int64), q and the gathered p (uint32), q's capped
# index (uint8), and the multiply's cast of their product into the int64
# cell index.
_PAIR_BYTES = 33
# Cells per packed compare of a segment's primality: a 64 KiB bool chunk
# and its 8 KiB of bits, where one compare over a segment would allocate
# 1 MiB.
_PACK_CELLS = 1 << 16


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one.

    build_table runs this many threads, and decompose_range this many
    workers, the caller and forked children (search._run_spans); the CLI
    takes it as its default worker count.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity (macOS, Windows)
        return os.cpu_count() or 1


def _icbrt(n: int) -> int:
    """The integer cube root of n >= 0."""
    r = round(n ** (1 / 3))
    while r**3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


def _cell_lpf() -> np.ndarray:
    """1, then the odd primes p_1 .. p_254, uint32: the largest prime
    factor that each cell value below INDEX_CAP names."""
    flags = np.ones(1_620, dtype=bool)  # p_254 = 1,613 < 1,620 < 41^2
    flags[:3] = False
    flags[4::2] = False
    for p in range(3, 41, 2):
        flags[p * p :: 2 * p] = False
    return np.concatenate(([1], np.flatnonzero(flags)[: INDEX_CAP - 1])).astype(np.uint32)


CELL_LPF = _cell_lpf()
_CELL_PRIMES = tuple(CELL_LPF.tolist()[1:])  # p_1 .. p_254, for exact_lpf's loop


def _prime_count_bound(x: int) -> int:
    """An upper bound on pi(x) for x >= 2: pi(x) < 1.25506 x / ln x
    (Rosser & Schoenfeld 1962)."""
    return int(1.25506 * x / log(x)) + 1


def estimate_table_bytes(limit: int) -> int:
    """Upper estimate of the bytes a table for limit takes.

    1 byte and 1 bit per odd cell for odd_lpf and odd_prime_bits, plus
    the larger of two transients.  The build's: one wave's base primes
    and cofactors (the cofactors run up to limit / icbrt(limit)) as
    list_primes lists them, 12 B each (the int64 cells and their uint32
    copy), the cofactors' cells unpacked to bools (1 B per odd x up to
    there), and 40 B more for the Python int of a base prime that
    strikes; and on each of usable_cpus() threads, a segment's five
    int64 arrays over its large base primes, one scatter of
    _SCATTER_PAIRS pairs, and one packed compare of _PACK_CELLS cells
    (bools and bits).  A scalar query's past the small list: one
    SEGMENT chunk's bools and its primes as listed, at most 2y / ln y
    of the y = 2 * SEGMENT integers the chunk spans (Brun-Titchmarsh as
    Montgomery & Vaughan, Mathematika 20, 1973, proved it).  The small
    prime list (26 KB) fits in the bound's slack on pi.
    """
    base = _prime_count_bound(isqrt(limit))
    top = limit // _icbrt(limit)
    wave = 52 * base + 12 * _prime_count_bound(top) + (top >> 1) + 16
    thread = 40 * base + _PAIR_BYTES * _SCATTER_PAIRS + _PACK_CELLS + (_PACK_CELLS >> 3)
    query = SEGMENT + 12 * int(4 * SEGMENT / log(2 * SEGMENT))
    cells = (limit + 1) // 2
    table = cells + ((cells + 7) >> 3)
    return table + max(wave + usable_cpus() * thread, query)


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

    The least of /proc/meminfo's MemAvailable, what the process's memory
    cgroup (v1 or v2) still allows, and its soft address-space limit
    (RLIMIT_AS, as ulimit -v sets it) less the address space it already
    maps (VmSize in /proc/self/status), where the resource module exists.
    """
    figures = []
    kib = _read_int(Path("/proc/meminfo"), "MemAvailable:")
    if kib is not None:
        figures.append(kib * 1024)
    if resource is not None:
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            mapped = _read_int(Path("/proc/self/status"), "VmSize:") or 0
            figures.append(soft - mapped * 1024)
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


def _odd_part(x: int) -> int:
    """m of x = 2^a * m with m odd, for x >= 1."""
    return x >> ((x & -x).bit_length() - 1)


def unpack_bits(bits: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The bits of cells start .. stop - 1 of a packed bit array (cell j
    is bit j & 7 of byte j >> 3, little bit order) as a bool array."""
    skip = start & 7
    flags = np.unpackbits(bits[start >> 3 : (stop + 7) >> 3], bitorder="little")
    return flags[skip : skip + max(stop - start, 0)].view(bool)


def gather_bits(bits: np.ndarray, cells):
    """The bits of the given cells of a packed bit array (as unpack_bits
    reads them): a bool array for an integer index array of any shape, a
    bool for one integer cell."""
    if isinstance(cells, np.ndarray):
        flags = bits[cells >> 3]
        flags >>= cells.astype(np.uint8) & 7  # the cast keeps the low bits
        flags &= 1
        return flags.view(bool)
    return bool(bits.item(cells >> 3) >> (cells & 7) & 1)


def list_primes(bits: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The x = 2j + 1 of the set cells j of start .. stop - 1 of a packed
    primality bit array (as unpack_bits reads them), ascending, uint32."""
    primes = np.flatnonzero(unpack_bits(bits, start, stop)).astype(np.uint32)
    primes *= 2
    primes += 2 * start + 1
    return primes


@dataclass(frozen=True)
class PrimeTable:
    """Immutable primality and factor tables for integers in [2, limit].

    odd_lpf (uint8, the odd-prime indices of the largest prime factors,
    capped at INDEX_CAP) and odd_prime_bits (uint8, one bit per cell)
    hold odd x only, cell j standing for x = 2j + 1 (module docstring);
    the scalar queries take any x and answer exactly.  small_odd_primes
    holds the odd primes below SMALL_PRIME_BOUND, all of them when the
    limit is smaller.  The table's odd primes are small_odd_primes
    followed by the primes that odd_prime_bits holds from
    SMALL_PRIME_BOUND on.
    """

    limit: int
    odd_lpf: np.ndarray
    odd_prime_bits: np.ndarray
    small_odd_primes: np.ndarray

    def _chunks(self, stop: int):
        """The cell ranges [a, b) of the bits from SMALL_PRIME_BOUND on,
        below cell stop, split at the multiples of SEGMENT, so a caller
        unpacks one chunk's bools at a time."""
        a, stop = SMALL_PRIME_BOUND >> 1, min(stop, self.odd_lpf.size)
        while a < stop:
            b = min(a - a % SEGMENT + SEGMENT, stop)
            yield a, b
            a = b

    def odd_prime_chunks(self):
        """The table's odd primes, ascending, as uint32 arrays:
        small_odd_primes, then the primes of each chunk of the bits."""
        yield self.small_odd_primes
        for a, b in self._chunks(self.odd_lpf.size):
            yield list_primes(self.odd_prime_bits, a, b)

    def odd_primes_through(self, k: int) -> np.ndarray:
        """The odd primes from p_1 on, through p_k where the table holds
        k of them: the stored small list when it does, else every one."""
        small = self.small_odd_primes
        return small if k <= small.size else np.concatenate(list(self.odd_prime_chunks()))

    # -- scalar queries -------------------------------------------------

    def _check(self, x: int) -> None:
        if not isinstance(x, (int, np.integer)):
            raise PreconditionError(f"expected an integer, got {type(x).__name__}")
        if x < 2 or x > self.limit:
            raise OutOfRangeError(f"{x} outside table domain [2, {self.limit}]")

    def is_prime(self, x: int) -> bool:
        self._check(x)
        return gather_bits(self.odd_prime_bits, x >> 1) if x & 1 else x == 2

    def exact_lpf(self, x: int) -> int:
        """The largest prime factor of an odd x in [1, limit], unchecked.

        A cell below INDEX_CAP names it, CELL_LPF[cell].  A capped x is
        prime, or a composite whose largest factor q is p_255 = 1,619 or
        more: dividing out its least prime factor leaves q, so x is
        divided by its factors from p_1 to p_254 in turn until what is
        left is prime by its bit.  Past them what is left has only
        factors from 1,619 on, at most two up to MAX_LIMIT (1,619^3 >
        MAX_LIMIT): its least, at most isqrt(x) < 2^16, comes from the
        small list.  A random capped composite took 1.1 us at 10^6, 3.2
        us at 10^8 and 5-7 us at 10^9, where dividing by every small prime
        up to isqrt(x) took 5.5 us at 10^6 and 8.3 us at 10^8.
        """
        cell = self.odd_lpf.item(x >> 1)
        if cell < INDEX_CAP:
            return CELL_LPF.item(cell)
        x, bits = int(x), self.odd_prime_bits.item
        # The bit of odd x, as gather_bits reads it, without its call.
        if bits(x >> 4) >> (x >> 1 & 7) & 1:
            return x
        for p in _CELL_PRIMES:
            if x % p == 0:
                while x % p == 0:
                    x //= p
                if bits(x >> 4) >> (x >> 1 & 7) & 1:
                    return x
        small = self.small_odd_primes
        while not bits(x >> 4) >> (x >> 1 & 7) & 1:
            divisors = small[: small.searchsorted(isqrt(x), side="right")]
            divisors = divisors[x % divisors == 0]
            if not divisors.size:
                break  # no factor up to its root: prime, though its bit is clear
            x //= int(divisors[0])
        return x

    def largest_prime_factor(self, x: int) -> int:
        self._check(x)
        if x & 1:
            return self.exact_lpf(x)
        return max(2, self.exact_lpf(_odd_part(int(x))))

    def odd_entry(self, x: int) -> tuple[bool, int]:
        """(is_prime(x), largest_prime_factor(x)) for an odd x in [3, limit].

        x is not checked: this is for loops over many values already known
        to lie there, such as n - p for an odd prime p < n <= limit.  An x
        prime by its bit is its own largest factor, with no exact_lpf call,
        which a prime past p_254 would pay.
        """
        prime = gather_bits(self.odd_prime_bits, x >> 1)
        return prime, (x if prime else self.exact_lpf(x))

    def factorize(self, x: int) -> tuple[int, ...]:
        """Prime factors of x in nondecreasing order, with multiplicity."""
        self._check(x)
        m = _odd_part(int(x))
        out = []
        v = m
        while v > 1:
            p = self.exact_lpf(v)
            out.append(p)
            v //= p
        out += [2] * ((int(x) // m).bit_length() - 1)
        out.reverse()
        return tuple(out)

    def next_prime(self, p: int) -> int:
        """Smallest prime strictly greater than the prime p."""
        if not self.is_prime(p):
            raise PreconditionError(f"next_prime needs a prime argument, got {p}")
        p, small = int(p), self.small_odd_primes
        j = int(small.searchsorted(p, side="right"))
        if j < small.size:
            return int(small.item(j))
        # The bits past p and the small list, in windows that double from
        # 64 cells, so a call reads about as many bits as the prime gap.
        a, width, cells = max(p + 2, SMALL_PRIME_BOUND) >> 1, 64, self.odd_lpf.size
        while a < cells:
            flags = unpack_bits(self.odd_prime_bits, a, min(a + width, cells))
            if flags.any():
                return 2 * (a + int(flags.argmax())) + 1
            a, width = a + width, 2 * width
        raise CoverageError(f"no prime above {p} within limit {self.limit}")

    # -- odd prime indexing (1-based, p_1 = 3) --------------------------

    def odd_prime(self, k: int) -> int:
        if k < 1:
            raise PreconditionError(f"odd prime index must be >= 1, got {k}")
        small = self.small_odd_primes
        if k <= small.size:
            return int(small.item(k - 1))
        held = small.size
        for a, b in self._chunks(self.odd_lpf.size):
            count = int(np.count_nonzero(unpack_bits(self.odd_prime_bits, a, b)))
            if k <= held + count:
                return int(list_primes(self.odd_prime_bits, a, b)[k - held - 1])
            held += count
        raise CoverageError(f"odd prime #{k} requested but table holds {held}")

    def count_odd_primes_below(self, n: int) -> int:
        """Number of odd primes strictly less than n."""
        count = int(self.small_odd_primes.searchsorted(min(max(n, 0), SMALL_PRIME_BOUND)))
        bits = self.odd_prime_bits
        return count + sum(
            int(np.count_nonzero(unpack_bits(bits, a, b))) for a, b in self._chunks(n >> 1)
        )

    def prime_count(self, x: int | None = None) -> int:
        """pi(x): number of primes <= x (defaults to the full table)."""
        x = self.limit if x is None else x
        self._check(x)
        return 1 + self.count_odd_primes_below(int(x) + 1)


def _sieve_segment(
    odd_lpf: np.ndarray,
    odd_prime_bits: np.ndarray,
    small: list[int],
    large: np.ndarray,
    cofactors: np.ndarray,
    lo: int,
    hi: int,
) -> None:
    """Fill the odd cells of [lo, hi), reading only cells below lo.

    Needs lo even and hi <= 2*lo.
    The odd primes p with p*p < hi come split at some c with c**3 >= hi:
    small holds those below c, p_1 on, which strike, and large (uint32,
    ascending) the rest, which write only their semiprimes; cofactors
    (uint32, ascending) holds the odd primes from p_1 through (hi - 1) //
    c.  The
    strikes allocate nothing, a scatter at most _SCATTER_PAIRS pairs'
    worth of index arrays and the packing _PACK_CELLS cells' bools, so
    segments can run on threads.  The segment's bits are or-ed into
    odd_prime_bits, which so must start clear.
    """
    odd_lpf[lo >> 1 : hi >> 1] = 0  # odd x = lo + 1, lo + 3, ... < hi
    # Each small p = p_j strikes its odd multiples x = p*m >= p*p in the
    # segment with the cell max(j, cell(m)), as lpf(x) = max(p, lpf(m)):
    # every p-th cell, from the contiguous cells of m.  m <= x/3 < lo is
    # final, and every write is the cell's value, so the primes strike in
    # any order.  A segment holding no such multiple gets an empty out.
    for j, p in enumerate(small, start=1):
        m = max(p, -(-lo // p) | 1)  # the least odd m >= p with p*m >= lo
        out = odd_lpf[(p * m) >> 1 : hi >> 1 : p]
        np.maximum(odd_lpf[m >> 1 : (m >> 1) + out.size], j, out=out)
    # A composite x < hi <= c**3 whose least prime factor p is at least c
    # is p*q with q prime, q >= p, and lpf(x) = q; any other multiple of
    # a large p has a prime factor below c, whose strike writes it.  So
    # each large p writes only the cells p*q, for the q of cofactors in
    # [max(p, lo/p), (hi - 1)/p], in scatters of at most _SCATTER_PAIRS
    # (p, q) pairs: pair k belongs to the prime i with ends[i - 1] <= k <
    # ends[i], and its q is cofactors[shift[i] + k], so J(q) = shift[i] + k
    # + 1.
    if large.size:
        first = np.searchsorted(cofactors, np.maximum(large, (lo - 1) // large + 1))
        count = np.searchsorted(cofactors, (hi - 1) // large, side="right") - first
        np.maximum(count, 0, out=count)
        ends = np.cumsum(count)
        shift = first + count - ends
        pairs = int(ends[-1])
        for start in range(0, pairs, _SCATTER_PAIRS):
            k = np.arange(start, min(start + _SCATTER_PAIRS, pairs))
            i = np.searchsorted(ends, k, side="right")
            k += shift[i]
            q = cofactors[k]
            index = np.minimum(k, INDEX_CAP - 1).astype(np.uint8) + 1  # min(J(q), INDEX_CAP)
            np.multiply(large[i], q, out=k)  # p*q < hi, exact in uint32
            k >>= 1
            odd_lpf[k] = index
    # Every odd composite cell is written, with a value >= J(3) = 1, so a
    # prime's cell alone still holds 0, and so does cell 0 (x = 1), which
    # no segment writes.  Cells below lo are final, so the compare runs
    # from the first cell of the byte that holds cell lo >> 1, which is
    # that cell itself from lo = 16 on, and is or-ed in: the bits of cells
    # below lo stay.  Then each prime cell takes min(J(x), INDEX_CAP): a
    # subtract of the flags once every prime of the chunk is p_255 = 1,619
    # or past it (0 - 1 wraps to INDEX_CAP in uint8), 11 us a chunk where
    # a masked store took 80; a chunk that starts below that takes a masked
    # store of J(x), the count of set bits through x's cell.
    stop = hi >> 1
    for c in range((lo >> 1) & ~7, stop, _PACK_CELLS):
        chunk = odd_lpf[c : min(c + _PACK_CELLS, stop)]
        flags = chunk == 0
        if c == 0:
            flags[0] = False  # x = 1
        odd_prime_bits[c >> 3 : (c >> 3) + ((flags.size + 7) >> 3)] |= np.packbits(
            flags, bitorder="little"
        )
        if 2 * c + 1 > CELL_LPF[-1]:
            np.subtract(chunk, flags.view(np.uint8), out=chunk)
        else:
            index = np.cumsum(unpack_bits(odd_prime_bits, 0, c + chunk.size))[c:]
            np.copyto(chunk, np.minimum(index, INDEX_CAP), casting="unsafe", where=flags)


def _wave(odd_lpf: np.ndarray, odd_prime_bits: np.ndarray, end: int) -> partial:
    """_sieve_segment bound to the base primes of a wave that ends at end.

    The odd primes up to isqrt(end - 1) split at c = icbrt(end - 1) + 1,
    so c**3 > end - 1.  The large ones' cofactors, up to (end - 1) / c <
    end / 2, lie below the wave, in finished cells.
    """
    c = _icbrt(end - 1) + 1
    base = list_primes(odd_prime_bits, 1, (isqrt(end - 1) + 1) >> 1)
    split = int(np.searchsorted(base, c))
    cofactors = list_primes(odd_prime_bits, 1, ((end - 1) // c + 1) >> 1)
    small, large = base[:split].tolist(), base[split:]
    return partial(_sieve_segment, odd_lpf, odd_prime_bits, small, large, cofactors)


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
    cells = (limit + 1) >> 1  # odd x = 1, 3, ..., up to limit
    odd_lpf = np.empty(cells, dtype=np.uint8)
    odd_lpf[0] = 0  # x = 1, which no segment covers
    odd_prime_bits = np.zeros((cells + 7) >> 3, dtype=np.uint8)
    step = 2 * SEGMENT
    threads = usable_cpus()
    with ThreadPoolExecutor(threads) as pool:
        lo = 2
        while lo <= limit:
            # The wave [lo, end) reads only [2, lo), so its segments are
            # independent.  Only a wave of two or more runs on the pool.
            end = min(2 * lo, limit + 1)
            starts = range(lo, end, step)
            ends = [*starts[1:], end]  # each segment ends where the next starts
            run = pool.map if threads > 1 and len(starts) > 1 else map
            list(run(_wave(odd_lpf, odd_prime_bits, end), starts, ends))
            lo = end
    return PrimeTable(
        limit=limit,
        odd_lpf=odd_lpf,
        odd_prime_bits=odd_prime_bits,
        small_odd_primes=list_primes(odd_prime_bits, 1, min(cells, SMALL_PRIME_BOUND >> 1)),
    )
