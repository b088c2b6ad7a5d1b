"""Single-instance evaluation of the large-factor witness property.

An instance is a pair (n, k) with n even, n >= 6, and p_k the k-th odd
prime (p_1 = 3) satisfying p_k < n.  The property under test: if none of
n - p_1, ..., n - p_k is prime, then some n - p_i has a prime factor
>= p_k.  Each instance lands in exactly one bucket:

  VACUOUS                  some n - p_i is itself prime; nothing to check
  WITNESS_STRICT           some n - p_i has a prime factor > p_k
  WITNESS_EQUAL            the factor bound is attained only with equality
  COUNTEREXAMPLE_CANDIDATE every n - p_i factors entirely below p_k
  ANOMALY_UNIT             some n - p_i equals 1 (no prime factor exists)

The two witness buckets feed a constructive step: from a witness one can
always name a prime strictly between p_k and n.  In the strict bucket the
large factor itself works.  In the equality bucket n - p_i = m * p_k with
m odd and m >= 3, so 3 * p_k <= n - p_i < n, and the next prime after p_k
is below 2 * p_k by Bertrand's postulate, hence below n.  Chaining that
over k = 1, 2, ... yields a two-prime decomposition of every even n >= 6
covered by the sweep (see goldbach_decompose).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain

from .errors import (
    CoverageError,
    GoldbachCounterexampleError,
    PreconditionError,
    ProofViolationError,
)
from .sieve import PrimeTable


class OutcomeKind(Enum):
    VACUOUS = "vacuous"
    WITNESS_STRICT = "witness_strict"
    WITNESS_EQUAL = "witness_equal"
    COUNTEREXAMPLE_CANDIDATE = "counterexample_candidate"
    ANOMALY_UNIT = "anomaly_unit"


class Family(Enum):
    """Classification of equality cases.

    POWER_OF_3_PLUS_3: k = 1 and n = 3**r + 3 for some r >= 2.  Then
    n - 3 = 3**r, whose only prime factor is p_1 itself.
    KNOWN_30_2: the isolated pair (30, 2); 30 - 3 = 27 and 30 - 5 = 25
    both top out at p_2 = 5.
    NOVEL: any other equality case.  None is known; finding one is a
    discovery, not an engine failure.
    """

    POWER_OF_3_PLUS_3 = "power_of_3_plus_3"
    KNOWN_30_2 = "known_30_2"
    NOVEL = "novel"


@dataclass(frozen=True)
class Instance:
    """A validated (n, k) pair together with p_k."""

    n: int
    k: int
    pk: int

    def __post_init__(self):
        if self.n < 6 or self.n % 2:
            raise PreconditionError(f"n must be even and >= 6, got {self.n}")
        if self.k < 1:
            raise PreconditionError(f"k must be >= 1, got {self.k}")
        if self.pk < 3 or self.pk % 2 == 0:
            raise PreconditionError(f"p_k must be an odd prime, got {self.pk}")
        if self.pk >= self.n:
            raise PreconditionError(
                f"instance needs p_k < n, got p_{self.k} = {self.pk} >= {self.n}"
            )


def make_instance(table: PrimeTable, n: int, k: int) -> Instance:
    """Build an Instance, resolving p_k from the table."""
    return Instance(n=n, k=k, pk=table.odd_prime(k))


@dataclass(frozen=True)
class InstanceOutcome:
    """Result of evaluating one instance.

    ``i`` is 1-based.  Which fields are populated depends on the kind:
    VACUOUS sets i (least index with n - p_i prime) and prime_hit;
    WITNESS_STRICT sets i (least index whose largest factor exceeds p_k)
    and factor; WITNESS_EQUAL sets i (least index attaining p_k exactly);
    COUNTEREXAMPLE_CANDIDATE sets factors, the full largest-factor list;
    ANOMALY_UNIT sets i with n - p_i == 1.
    """

    kind: OutcomeKind
    i: int | None = None
    prime_hit: int | None = None
    factor: int | None = None
    factors: tuple[int, ...] | None = None

    @property
    def is_witness(self) -> bool:
        return self.kind in (OutcomeKind.WITNESS_STRICT, OutcomeKind.WITNESS_EQUAL)


@dataclass(frozen=True)
class EdgeCaseRecord:
    """One equality case: the factor bound met but never beaten."""

    n: int
    k: int
    factors: tuple[int, ...]
    family: Family
    r: int | None  # exponent for the 3**r + 3 family, else None


@dataclass(frozen=True)
class LemmaTrace:
    """Audit trail of one constructive step from a witness instance."""

    n: int
    k: int
    pk: int
    i: int
    value: int  # n - p_i, the number carrying the large factor
    m: int | None  # cofactor in the equality branch, else None
    produced_prime: int
    used_bertrand: bool


@dataclass(frozen=True)
class DescentTrace:
    """Audit trail of one two-prime decomposition."""

    n: int
    scanned: int  # number of odd primes below n
    i: int  # 1-based index of the first hit
    p: int
    q: int


def _scan(table: PrimeTable, n: int, k: int):
    """Walk i = 1..k; classify the raw shape of the instance (n, k).

    Returns one of
      ("prime", i, n - p_i)   first i where n - p_i is prime
      ("unit", i)             first i where n - p_i == 1
      ("factors", [f_1..f_k]) no prime and no unit; f_i = lpf(n - p_i)
    """
    if n > table.limit:
        raise CoverageError(f"n={n} exceeds table limit {table.limit}")
    # Each v = n - p_j is odd and lies in [1, n], within the table, so
    # its entry is read unchecked.  The primes come one int at a time from
    # the memoryviews of the table's chunks: a list of goldbach_decompose's
    # 5,761,454 at 10^8 would take ~200 MiB for a walk that stops after a few.
    entry = table.odd_entry
    factors = []
    primes = chain.from_iterable(chunk.data for chunk in table.odd_prime_chunks())
    for j, p in zip(range(1, k + 1), primes):
        v = n - p
        if v == 1:
            return ("unit", j, None)
        prime, lpf = entry(v)
        if prime:
            return ("prime", j, v)
        factors.append(lpf)
    return ("factors", None, factors)


def _scan_instance(table: PrimeTable, inst: Instance):
    """_scan of inst, refused when the p_k it carries is not the table's."""
    pk = table.odd_prime(inst.k)
    if pk != inst.pk:
        raise PreconditionError(f"instance carries p_{inst.k} = {inst.pk}, table says {pk}")
    return _scan(table, inst.n, inst.k)


def evaluate_instance(table: PrimeTable, inst: Instance) -> InstanceOutcome:
    """Classify one instance.  See the module docstring for the buckets."""
    return _outcome(inst, _scan_instance(table, inst))


def _evaluate(table: PrimeTable, inst: Instance) -> InstanceOutcome:
    """evaluate_instance for an inst whose p_k was just read from table."""
    return _outcome(inst, _scan(table, inst.n, inst.k))


def _outcome(inst: Instance, scan) -> InstanceOutcome:
    """The bucket of inst from its _scan."""
    shape, j, payload = scan
    if shape == "prime":
        return InstanceOutcome(kind=OutcomeKind.VACUOUS, i=j, prime_hit=payload)
    if shape == "unit":
        return InstanceOutcome(kind=OutcomeKind.ANOMALY_UNIT, i=j)
    factors = payload
    best = max(factors)
    if best > inst.pk:
        i = next(ix for ix, f in enumerate(factors, start=1) if f > inst.pk)
        return InstanceOutcome(
            kind=OutcomeKind.WITNESS_STRICT, i=i, factor=factors[i - 1]
        )
    if best == inst.pk:
        i = factors.index(inst.pk) + 1
        return InstanceOutcome(kind=OutcomeKind.WITNESS_EQUAL, i=i)
    return InstanceOutcome(
        kind=OutcomeKind.COUNTEREXAMPLE_CANDIDATE, factors=tuple(factors)
    )


def first_witness_index(table: PrimeTable, inst: Instance) -> int | None:
    """Least i with lpf(n - p_i) >= p_k, or None.

    None covers three shapes: vacuous and unit instances (no factor list
    exists) and counterexample candidates (no factor reaches p_k).  Note
    the >= here: for statistics the equality hit counts as a witness
    position even when a later index beats the bound strictly.
    """
    shape, _, factors = _scan_instance(table, inst)
    if shape != "factors":
        return None
    for ix, f in enumerate(factors, start=1):
        if f >= inst.pk:
            return ix
    return None


def _power_of_3_exponent(x: int) -> int | None:
    """r such that x == 3**r with r >= 1, else None."""
    if x < 3:
        return None
    r = 0
    while x % 3 == 0:
        x //= 3
        r += 1
    return r if x == 1 else None


def equality_family(n: int, k: int) -> tuple[Family, int | None]:
    """The family of an equality case (n, k) and its exponent r, else None.

    A pure function of (n, k): record decoders re-derive it to check the
    tag a record carries.
    """
    if (n, k) == (30, 2):
        return Family.KNOWN_30_2, None
    if k == 1:
        r = _power_of_3_exponent(n - 3)
        if r is not None and r >= 2:
            return Family.POWER_OF_3_PLUS_3, r
    return Family.NOVEL, None


def classify_equality(table: PrimeTable, inst: Instance) -> EdgeCaseRecord:
    """Tag an equality-case instance with its family.

    Precondition: the instance actually evaluates to WITNESS_EQUAL.
    """
    shape, _, factors = _scan_instance(table, inst)
    if shape != "factors" or max(factors) != inst.pk:
        raise PreconditionError(
            f"(n={inst.n}, k={inst.k}) is not an equality case"
        )
    family, r = equality_family(inst.n, inst.k)
    return EdgeCaseRecord(
        n=inst.n, k=inst.k, factors=tuple(factors), family=family, r=r
    )


def construct_lemma_prime(
    table: PrimeTable, inst: Instance, outcome: InstanceOutcome
) -> LemmaTrace:
    """Name a prime strictly between p_k and n from a witness outcome.

    Every inequality the argument leans on is checked at runtime and
    raises ProofViolationError when false, so a passing run is itself a
    machine-checked instance of the proof.
    """
    if not outcome.is_witness:
        raise PreconditionError(f"cannot construct from a {outcome.kind.value} outcome")
    n, k, pk = inst.n, inst.k, inst.pk
    p_i = table.odd_prime(outcome.i)
    value = n - p_i
    actual = table.largest_prime_factor(value)

    if outcome.kind is OutcomeKind.WITNESS_STRICT:
        if actual != outcome.factor:
            raise PreconditionError(
                f"outcome carries factor {outcome.factor}, lpf({value}) = {actual}"
            )
        q = outcome.factor
        if not q > pk:
            raise PreconditionError(f"strict witness needs factor > p_k, got {q} <= {pk}")
        if not q < n:
            raise ProofViolationError(f"q <= n - p_i < n failed: q={q}, n={n}")
        produced, m, used_bertrand = q, None, False
    else:
        if actual != pk:
            raise PreconditionError(
                f"equality witness needs lpf(n - p_i) == p_k, lpf({value}) = {actual}"
            )
        m, rem = divmod(value, pk)
        if rem:
            raise ProofViolationError(f"p_k | n - p_i failed: {pk} does not divide {value}")
        # n - p_i is odd (even minus odd prime) and composite, and all its
        # factors are <= p_k with p_k present, so the cofactor is odd >= 3.
        if m % 2 == 0:
            raise ProofViolationError(f"m odd failed: {value} = {m} * {pk}")
        if m < 3:
            raise ProofViolationError(f"m >= 3 failed: {value} = {m} * {pk}")
        if not 3 * pk <= value:
            raise ProofViolationError(f"3 * p_k <= n - p_i failed: {3 * pk} > {value}")
        if not value < n:
            raise ProofViolationError(f"n - p_i < n failed: {value} >= {n}")
        nxt = table.next_prime(pk)
        if not nxt < 2 * pk:
            raise ProofViolationError(
                f"Bertrand step failed: next prime after {pk} is {nxt} >= {2 * pk}"
            )
        if not nxt < n:
            raise ProofViolationError(f"next prime {nxt} not below n = {n}")
        produced, used_bertrand = nxt, True

    if not (pk < produced < n) or not table.is_prime(produced):
        raise ProofViolationError(
            f"produced value {produced} is not a prime in (p_k, n) = ({pk}, {n})"
        )
    return LemmaTrace(
        n=n,
        k=k,
        pk=pk,
        i=outcome.i,
        value=value,
        m=m,
        produced_prime=produced,
        used_bertrand=used_bertrand,
    )


def goldbach_decompose(table: PrimeTable, n: int, verify: bool = False) -> DescentTrace:
    """Write even n >= 6 as p + q with p the least usable odd prime.

    Scans p_1, p_2, ... until n - p_i is prime.  If the scan exhausts
    every odd prime below n, the witness machinery is invoked on the
    deepest unit-free instance (n, K), K being the largest k with
    p_k <= n - 3, so every scanned value is an odd nonprime >= 3.  A
    witness then names a prime q with p_K < q < n; but every prime
    factor of the scanned values is at most n - 3, so q <= p_K by
    maximality — contradiction.  A non-witness is a counterexample to
    the underlying property.  Either way the failure raises
    GoldbachCounterexampleError carrying the evidence; no silent
    fallthrough exists.

    With verify=True the returned pair is re-checked by trial division,
    independently of the sieve tables.
    """
    if n % 2 or n < 6:
        raise PreconditionError(f"need even n >= 6, got {n}")
    if n > table.limit:
        raise CoverageError(f"n={n} exceeds table limit {table.limit}")
    scanned = table.count_odd_primes_below(n)
    shape, i, q = _scan(table, n, scanned)
    if shape == "prime":
        p = n - q
        if verify and not (_td_prime(p) and _td_prime(q) and p + q == n):
            raise ProofViolationError(f"decomposition {p} + {q} = {n} failed recheck")
        return DescentTrace(n=n, scanned=scanned, i=i, p=p, q=q)
    # No decomposition (a unit is n - 1 prime, the last value scanned):
    # derive the contradiction evidence from the deepest instance whose
    # scanned values are all >= 3 (p_k <= n - 3).
    k_deep = table.count_odd_primes_below(n - 2)
    inst = make_instance(table, n, k_deep)
    outcome = evaluate_instance(table, inst)
    if outcome.is_witness:
        trace = construct_lemma_prime(table, inst, outcome)
        raise GoldbachCounterexampleError(
            n,
            f"witness names prime {trace.produced_prime} in (p_{k_deep}, n), "
            f"contradicting maximality of p_{k_deep} = {inst.pk}",
            evidence=trace,
        )
    raise GoldbachCounterexampleError(
        n,
        f"instance (n={n}, k={k_deep}) is {outcome.kind.value}: "
        "the factor-witness property itself fails here",
        evidence=outcome,
    )


def _td_prime(x: int) -> bool:
    """Trial-division primality; used only for independent rechecks."""
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
