"""Expected values computed without the factorwitness package.

Everything here uses its own odd-only sieve of Eratosthenes and plain
arithmetic, so agreement with the program's outputs is evidence rather
than an echo.  The first-hit pass computes, for every even n in
[6, n_max], i*(n): the least index i with n - p_i prime (p_1 = 3).  The
verify sweep evaluates exactly the instances k = 1 .. i*(n) of every n,
so its instance count must equal the sum of i*(n); the decomposition
sweep's deepest scan is the largest i*(n), at the least such n.
"""

from __future__ import annotations

import random
from math import isqrt

import numpy as np

# Odd primes below this bound are enough for every first hit up to 4e18
# (the largest minimal Goldbach prime there is 9781: Oliveira e Silva,
# Herzog & Pardi, Math. Comp. 83 (2014)).
SCAN_PRIME_BOUND = 10_000


def odd_sieve(limit: int) -> np.ndarray:
    """is_op[j] is True iff 2*j + 1 is prime, for 2*j + 1 <= limit."""
    is_op = np.ones((limit + 1) // 2, dtype=bool)
    is_op[0] = False
    for j in range(1, (isqrt(limit) - 1) // 2 + 1):
        if is_op[j]:
            p = 2 * j + 1
            is_op[p * p // 2 :: p] = False
    return is_op


def first_hit_pass(n_max: int, chunk: int = 1 << 18, dense_steps: int = 32):
    """(sum of i*(n), (max i*(n), least n attaining it)) over even n in [6, n_max].

    Works on n = 2m in chunks of m.  With c = (p + 1) // 2, the value
    n - p is the odd number 2(m - c) + 1, so the first steps test a
    contiguous slice of the sieve for the whole chunk; the rows still
    open after dense_steps are compacted and gathered.  The instance
    (n, i) exists while p_i < n, i.e. while c <= m.
    """
    if n_max < 6 or n_max % 2:
        raise ValueError(f"n_max must be even and >= 6, got {n_max}")
    is_op = odd_sieve(n_max)
    offsets = np.flatnonzero(is_op[: SCAN_PRIME_BOUND // 2]) + 1
    total = 0
    deepest = (0, 0)
    m_end = n_max // 2 + 1
    for m0 in range(3, m_end, chunk):
        m1 = min(m0 + chunk, m_end)
        open_rows = np.ones(m1 - m0, dtype=bool)
        last = None
        i = 0
        while i < dense_steps and m0 >= offsets[i]:
            c = int(offsets[i])
            i += 1
            total += int(np.count_nonzero(open_rows))
            hit = open_rows & is_op[m0 - c : m1 - c]
            if hit.any():
                last = (i, 2 * (m0 + int(hit.argmax())))
                open_rows &= ~hit
        rows = np.flatnonzero(open_rows) + m0
        while rows.size:
            if i >= offsets.size:
                raise RuntimeError(f"first hit beyond p < {SCAN_PRIME_BOUND}")
            c = int(offsets[i])
            i += 1
            rows = rows[rows >= c]
            total += rows.size
            hit = is_op[rows - c]
            if hit.any():
                last = (i, 2 * int(rows[hit.argmax()]))
                rows = rows[~hit]
        if last is not None and last[0] > deepest[0]:
            deepest = last
    return total, deepest


def odd_primes_upto(bound: int) -> list[int]:
    return [2 * int(j) + 1 for j in np.flatnonzero(odd_sieve(bound))]


def trial_prime(x: int) -> bool:
    if x < 2:
        return False
    if x % 2 == 0:
        return x == 2
    d = 3
    while d * d <= x:
        if x % d == 0:
            return False
        d += 2
    return True


def recheck_first_hit(n: int, depth: int) -> bool:
    """Trial division: n - p_i is composite for i < depth and prime at depth."""
    primes = odd_primes_upto(SCAN_PRIME_BOUND)
    if depth > len(primes) or primes[depth - 1] >= n:
        return False
    values = [n - p for p in primes[:depth]]
    return all(not trial_prime(v) for v in values[:-1]) and trial_prime(values[-1])


def equality_cases(n_max: int) -> list[dict]:
    """The known equality cases with n <= n_max, as emitted records.

    (3^r + 3, 1) for r >= 2: n - 3 = 3^r has 3 = p_1 as its only factor.
    (30, 2): 27 = 3^3 and 25 = 5^2 both top out at p_2 = 5.
    """
    cases = []
    r = 2
    while 3**r + 3 <= n_max:
        cases.append(
            {"record": "equality_case", "n": 3**r + 3, "k": 1, "factors": [3],
             "family": "power_of_3_plus_3", "r": r}
        )
        r += 1
    if n_max >= 30:
        cases.append(
            {"record": "equality_case", "n": 30, "k": 2, "factors": [3, 5],
             "family": "known_30_2", "r": None}
        )
    return sorted(cases, key=lambda rec: (rec["n"], rec["k"]))


def oracle_windows(seed: int, n_max: int, width: int = 1000) -> list[tuple[int, int]]:
    """[n_max - 2000, n_max] plus two seeded windows of `width` inside [6, n_max]."""
    rng = random.Random(seed)
    windows = [(n_max - 2000, n_max)]
    for _ in range(2):
        lo = 2 * rng.randrange(3, (n_max - width) // 2 + 1)
        windows.append((lo, lo + width))
    return windows


def sample_evens(seed: int, n_max: int, count: int = 200) -> list[int]:
    rng = random.Random(seed)
    return sorted({2 * rng.randrange(3, n_max // 2 + 1) for _ in range(count)})
