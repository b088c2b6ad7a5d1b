"""Slow, independent reference implementations for cross-checking.

Everything here recomputes from scratch: primality comes from a plain
bytearray sieve, factors from trial division, aggregation from direct
per-instance scans.  Nothing touches the numpy tables or the block sweep,
so agreement between this module and the engine is meaningful evidence.
Only the shared result vocabulary (outcome and summary dataclasses) is
imported.  Complexity is ignored on purpose; keep usage to small ranges.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from .conjecture import EdgeCaseRecord, Family, InstanceOutcome, OutcomeKind
from .errors import CoverageError, PreconditionError
from .search import RangeSummary, WitnessStats


def trial_is_prime(x: int) -> bool:
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


def trial_smallest_factor(x: int) -> int:
    if x < 2:
        raise PreconditionError(f"need x >= 2, got {x}")
    if x % 2 == 0:
        return 2
    d = 3
    while d * d <= x:
        if x % d == 0:
            return d
        d += 2
    return x


def trial_largest_factor(x: int) -> int:
    if x < 2:
        raise PreconditionError(f"need x >= 2, got {x}")
    largest = 1
    while x % 2 == 0:
        largest = 2
        x //= 2
    d = 3
    while d * d <= x:
        while x % d == 0:
            largest = d
            x //= d
        d += 2
    return x if x > 1 else largest


class BruteOracle:
    """Reference evaluator over [2, limit], built once per limit."""

    def __init__(self, limit: int):
        if limit < 6:
            raise PreconditionError(f"limit must be >= 6, got {limit}")
        self.limit = limit
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        d = 2
        while d * d <= limit:
            if sieve[d]:
                sieve[d * d :: d] = bytearray(len(sieve[d * d :: d]))
            d += 1
        self._sieve = sieve
        self.primes = [x for x in range(limit + 1) if sieve[x]]
        self.odd_primes = self.primes[1:]

    def is_prime(self, x: int) -> bool:
        if x < 0 or x > self.limit:
            raise CoverageError(f"{x} beyond oracle limit {self.limit}")
        return bool(self._sieve[x])

    def prime_count(self, x: int) -> int:
        return bisect_right(self.primes, x)

    def odd_prime(self, k: int) -> int:
        if not 1 <= k <= len(self.odd_primes):
            raise CoverageError(f"odd prime #{k} beyond oracle limit {self.limit}")
        return self.odd_primes[k - 1]

    # -- per-instance -----------------------------------------------------

    def _scan_factors(self, n: int, k: int):
        """("prime", j) | ("unit", j) | ("factors", [f_1..f_k])."""
        factors = []
        for j in range(1, k + 1):
            v = n - self.odd_prime(j)
            if v == 1:
                return ("unit", j, None)
            if trial_is_prime(v):
                return ("prime", j, v)
            factors.append(trial_largest_factor(v))
        return ("factors", None, factors)

    def evaluate(self, n: int, k: int) -> InstanceOutcome:
        pk = self.odd_prime(k)
        if n % 2 or n < 6 or pk >= n:
            raise PreconditionError(f"bad instance (n={n}, k={k})")
        shape, j, payload = self._scan_factors(n, k)
        if shape == "prime":
            return InstanceOutcome(kind=OutcomeKind.VACUOUS, i=j, prime_hit=payload)
        if shape == "unit":
            return InstanceOutcome(kind=OutcomeKind.ANOMALY_UNIT, i=j)
        factors = payload
        best = max(factors)
        if best > pk:
            for ix, factor in enumerate(factors, start=1):
                if factor > pk:
                    return InstanceOutcome(
                        kind=OutcomeKind.WITNESS_STRICT, i=ix, factor=factor
                    )
        if best == pk:
            return InstanceOutcome(
                kind=OutcomeKind.WITNESS_EQUAL, i=factors.index(pk) + 1
            )
        return InstanceOutcome(
            kind=OutcomeKind.COUNTEREXAMPLE_CANDIDATE, factors=tuple(factors)
        )

    def first_witness_index(self, n: int, k: int) -> int | None:
        pk = self.odd_prime(k)
        shape, _, factors = self._scan_factors(n, k)
        if shape != "factors":
            return None
        for ix, factor in enumerate(factors, start=1):
            if factor >= pk:
                return ix
        return None

    def classify_equality(self, n: int, k: int, factors) -> EdgeCaseRecord:
        if (n, k) == (30, 2):
            family, r = Family.KNOWN_30_2, None
        elif k == 1:
            x, r = n - 3, 0
            while x > 1 and x % 3 == 0:
                x //= 3
                r += 1
            if x == 1 and r >= 2:
                family = Family.POWER_OF_3_PLUS_3
            else:
                family, r = Family.NOVEL, None
        else:
            family, r = Family.NOVEL, None
        return EdgeCaseRecord(n=n, k=k, factors=tuple(factors), family=family, r=r)

    def goldbach_pair(self, n: int) -> tuple[int, int, int]:
        """(p, q, i) with p = p_i the least odd prime making n - p prime."""
        if n % 2 or n < 6:
            raise PreconditionError(f"need even n >= 6, got {n}")
        for ix, p in enumerate(self.odd_primes, start=1):
            if p >= n:
                break
            if trial_is_prime(n - p):
                return (p, n - p, ix)
        raise CoverageError(f"no two-prime decomposition found for {n}")

    # -- aggregation ------------------------------------------------------

    def summarize(self, n_min: int, n_max: int) -> RangeSummary:
        """Mirror of the sweep's aggregation, recomputed the slow way."""
        if n_min % 2 or n_max % 2 or n_min < 6 or n_max < n_min:
            raise PreconditionError(f"bad range [{n_min}, {n_max}]")
        if n_max > self.limit:
            raise CoverageError(f"{n_max} beyond oracle limit {self.limit}")
        instances = vacuous = strict = equal = 0
        equality: list[EdgeCaseRecord] = []
        cex: list[tuple[int, int]] = []
        anomalies: list[tuple[int, int]] = []
        hist: dict[int, int] = {}
        best_fwi = None
        best_ratio = None
        for n in range(n_min, n_max + 1, 2):
            factors: list[int] = []
            for k in range(1, len(self.odd_primes) + 1):
                pk = self.odd_prime(k)
                if pk >= n:
                    break
                v = n - pk
                instances += 1
                if v == 1:
                    anomalies.append((n, k))
                    break
                if trial_is_prime(v):
                    vacuous += 1
                    break
                factors.append(trial_largest_factor(v))
                best = max(factors)
                if best > pk:
                    strict += 1
                elif best == pk:
                    equal += 1
                    equality.append(self.classify_equality(n, k, factors))
                else:
                    cex.append((n, k))
                    continue
                fwi = next(
                    ix for ix, factor in enumerate(factors, start=1) if factor >= pk
                )
                hist[fwi] = hist.get(fwi, 0) + 1
                # Ties keep the first candidate, which in this (n, k)
                # ascending walk is the lexicographically least pair.
                if best_fwi is None or fwi > best_fwi[0]:
                    best_fwi = (fwi, n, k)
                if best_ratio is None or Fraction(fwi, k) > Fraction(
                    best_ratio[0], best_ratio[1]
                ):
                    best_ratio = (fwi, k, n, k)
        return RangeSummary(
            n_min=n_min,
            n_max=n_max,
            instances_evaluated=instances,
            vacuous_count=vacuous,
            strict_count=strict,
            equal_count=equal,
            counterexamples=tuple(sorted(cex)),
            anomalies=tuple(sorted(anomalies)),
            equality_cases=tuple(sorted(equality, key=lambda rec: (rec.n, rec.k))),
            witness_index_histogram=dict(sorted(hist.items())),
            max_first_witness_index=best_fwi,
            max_witness_ratio=best_ratio,
            elapsed_seconds=0.0,
            evens_per_second=0.0,
        )

    def stats(self, n_max: int) -> WitnessStats:
        hi = n_max - (n_max % 2)
        if hi < 6:
            return WitnessStats(
                n_max=n_max,
                witnessed_count=0,
                histogram={},
                max_first_witness_index=None,
                max_witness_ratio=None,
            )
        summary = self.summarize(6, hi)
        return WitnessStats(
            n_max=n_max,
            witnessed_count=summary.strict_count + summary.equal_count,
            histogram=summary.witness_index_histogram,
            max_first_witness_index=summary.max_first_witness_index,
            max_witness_ratio=summary.max_witness_ratio,
        )
