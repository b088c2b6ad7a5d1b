"""Instance evaluation, equality classification, and the constructive steps."""

import random

import pytest

from factorwitness.bruteforce import trial_is_prime, trial_largest_factor
from factorwitness.conjecture import (
    Family,
    Instance,
    OutcomeKind,
    classify_equality,
    construct_lemma_prime,
    evaluate_instance,
    first_witness_index,
    goldbach_decompose,
    make_instance,
    InstanceOutcome,
)
from factorwitness.errors import (
    CoverageError,
    GoldbachCounterexampleError,
    PreconditionError,
    ProofViolationError,
)
from factorwitness.sieve import PrimeTable

from conftest import make_doctored


# -- construction and validation --------------------------------------------


def test_instance_validation(table1m):
    inst = make_instance(table1m, 98, 6)
    assert (inst.n, inst.k, inst.pk) == (98, 6, 17)
    with pytest.raises(PreconditionError):
        Instance(n=7, k=1, pk=3)  # odd n
    with pytest.raises(PreconditionError):
        Instance(n=4, k=1, pk=3)  # below 6
    with pytest.raises(PreconditionError):
        Instance(n=10, k=0, pk=3)
    with pytest.raises(PreconditionError):
        Instance(n=10, k=3, pk=11)  # p_k >= n
    with pytest.raises(PreconditionError):
        Instance(n=10, k=1, pk=4)  # even "prime"


def test_evaluate_checks_table_consistency(table1m):
    with pytest.raises(PreconditionError):
        evaluate_instance(table1m, Instance(n=98, k=6, pk=19))  # p_6 is 17
    with pytest.raises(CoverageError):
        evaluate_instance(table1m, Instance(n=2_000_002, k=1, pk=3))


# -- outcome buckets ----------------------------------------------------------


def test_vacuous(table1m):
    out = evaluate_instance(table1m, make_instance(table1m, 100, 2))
    assert out.kind is OutcomeKind.VACUOUS
    assert (out.i, out.prime_hit) == (1, 97)
    assert not out.is_witness


def test_strict_witness(table1m):
    # 98 - 3 = 95 = 5 * 19 and 19 > p_6 = 17 already at i = 1
    out = evaluate_instance(table1m, make_instance(table1m, 98, 6))
    assert out.kind is OutcomeKind.WITNESS_STRICT
    assert (out.i, out.factor) == (1, 19)
    assert out.is_witness


def test_strict_reports_first_strict_index(table1m):
    # (150, 3): factors are lpf(147)=7, lpf(145)=29, lpf(143)=13 and
    # p_3 = 7.  The witness bound is first met at i = 1 (7 >= 7) but met
    # strictly only at i = 2; the strict outcome points at i = 2 so the
    # construction can take the factor itself.
    inst = make_instance(table1m, 150, 3)
    out = evaluate_instance(table1m, inst)
    assert out.kind is OutcomeKind.WITNESS_STRICT
    assert (out.i, out.factor) == (2, 29)
    assert first_witness_index(table1m, inst) == 1


def test_equality_witness(table1m):
    out = evaluate_instance(table1m, make_instance(table1m, 30, 2))
    assert out.kind is OutcomeKind.WITNESS_EQUAL
    assert out.i == 2
    out = evaluate_instance(table1m, make_instance(table1m, 12, 1))
    assert out.kind is OutcomeKind.WITNESS_EQUAL
    assert out.i == 1


def test_counterexample_candidate_via_doctored_factors(table1m):
    # Force every factor below p_k: pretend lpf(17) = lpf(13) = 3 and
    # hide all prime hits for n = 20.
    doctored = make_doctored(
        table1m,
        not_prime=(17, 15, 13, 9, 7, 3),
        lpf_overrides={17: 3, 13: 3},
    )
    out = evaluate_instance(doctored, make_instance(doctored, 20, 6))
    assert out.kind is OutcomeKind.COUNTEREXAMPLE_CANDIDATE
    assert out.factors == (3, 5, 3, 3, 7, 3)


def test_anomaly_unit_via_doctored_primality(table1m):
    # n = 8 with 5 and 3 "not prime": the scan reaches p_3 = 7 = n - 1.
    doctored = make_doctored(table1m, not_prime=(5, 3))
    out = evaluate_instance(doctored, make_instance(doctored, 8, 3))
    assert out.kind is OutcomeKind.ANOMALY_UNIT
    assert out.i == 3
    assert first_witness_index(doctored, make_instance(doctored, 8, 3)) is None


# -- first witness index ------------------------------------------------------


def test_first_witness_index_values(table1m):
    cases = {(98, 6): 1, (150, 3): 1, (992, 15): 3, (30, 2): 2, (12, 1): 1}
    for (n, k), want in cases.items():
        assert first_witness_index(table1m, make_instance(table1m, n, k)) == want
    # vacuous: no factor list exists
    assert first_witness_index(table1m, make_instance(table1m, 100, 2)) is None


# -- equality classification --------------------------------------------------


def test_classify_families(table1m):
    rec = classify_equality(table1m, make_instance(table1m, 12, 1))
    assert (rec.family, rec.r, rec.factors) == (Family.POWER_OF_3_PLUS_3, 2, (3,))
    rec = classify_equality(table1m, make_instance(table1m, 84, 1))
    assert (rec.family, rec.r) == (Family.POWER_OF_3_PLUS_3, 4)
    rec = classify_equality(table1m, make_instance(table1m, 30, 2))
    assert (rec.family, rec.r, rec.factors) == (Family.KNOWN_30_2, None, (3, 5))


def test_classify_novel_family_via_doctored_table(table1m):
    # No genuine NOVEL case is known; fabricate one at k = 2 by hiding
    # prime hits for n = 40 and capping the factors at p_2 = 5.
    doctored = make_doctored(
        table1m,
        not_prime=(37,),
        lpf_overrides={37: 5, 35: 5},
    )
    inst = make_instance(doctored, 40, 2)
    out = evaluate_instance(doctored, inst)
    assert out.kind is OutcomeKind.WITNESS_EQUAL
    rec = classify_equality(doctored, inst)
    assert rec.family is Family.NOVEL
    assert rec.r is None


def test_classify_rejects_non_equality(table1m):
    with pytest.raises(PreconditionError):
        classify_equality(table1m, make_instance(table1m, 98, 6))  # strict
    with pytest.raises(PreconditionError):
        classify_equality(table1m, make_instance(table1m, 100, 2))  # vacuous


# -- constructive step --------------------------------------------------------


def test_construct_strict(table1m):
    inst = make_instance(table1m, 98, 6)
    out = evaluate_instance(table1m, inst)
    tr = construct_lemma_prime(table1m, inst, out)
    assert (tr.i, tr.value, tr.produced_prime, tr.used_bertrand) == (1, 95, 19, False)
    assert tr.m is None
    assert inst.pk < tr.produced_prime < inst.n


def test_construct_equality_uses_bertrand(table1m):
    inst = make_instance(table1m, 30, 2)
    tr = construct_lemma_prime(table1m, inst, evaluate_instance(table1m, inst))
    assert (tr.i, tr.value, tr.m) == (2, 25, 5)
    assert (tr.produced_prime, tr.used_bertrand) == (7, True)

    inst = make_instance(table1m, 12, 1)
    tr = construct_lemma_prime(table1m, inst, evaluate_instance(table1m, inst))
    assert (tr.value, tr.m, tr.produced_prime, tr.used_bertrand) == (9, 3, 5, True)


def test_strict_factor_is_exact_past_the_cap(table10m):
    # n = x + 3 makes lpf(x) the factor of the instance (n, 1): the
    # table's cells name no factor past p_254 = 1,613, the reported factor
    # must not stop there, and construct_lemma_prime's checks hold it to
    # the exact value.
    rng = random.Random(0x5EED)
    xs = [q * m for q in (1_613, 1_619, 1_621, 65_521, 65_537) for m in range(3, 153, 2)]
    xs += [65_537, 65_539, 131_071, *(rng.randrange(3, 10**7 - 3, 2) for _ in range(2_000))]
    for x in xs:
        inst = make_instance(table10m, x + 3, 1)
        out = evaluate_instance(table10m, inst)
        if trial_is_prime(x):
            assert (out.kind, out.prime_hit) == (OutcomeKind.VACUOUS, x), x
            continue
        largest = trial_largest_factor(x)
        if largest == 3:
            assert out.kind is OutcomeKind.WITNESS_EQUAL, x
            continue
        assert (out.kind, out.i, out.factor) == (OutcomeKind.WITNESS_STRICT, 1, largest), x
        assert construct_lemma_prime(table10m, inst, out).produced_prime == largest, x


def test_construct_rejects_non_witness(table1m):
    inst = make_instance(table1m, 100, 2)
    out = evaluate_instance(table1m, inst)
    with pytest.raises(PreconditionError):
        construct_lemma_prime(table1m, inst, out)


def test_construct_rejects_mismatched_outcome(table1m):
    inst = make_instance(table1m, 98, 6)
    fake = InstanceOutcome(kind=OutcomeKind.WITNESS_STRICT, i=1, factor=23)
    with pytest.raises(PreconditionError):
        construct_lemma_prime(table1m, inst, fake)


def test_construct_detects_bertrand_failure(table1m):
    # Forge the prime list so the next prime after 5 is 11 (>= 2 * 5).
    primes = [2, 3, 5] + [p for p in table1m.small_odd_primes.tolist() if p >= 11]
    doctored = make_doctored(table1m, primes=primes)
    inst = make_instance(doctored, 30, 2)
    out = evaluate_instance(doctored, inst)
    assert out.kind is OutcomeKind.WITNESS_EQUAL
    with pytest.raises(ProofViolationError, match="Bertrand"):
        construct_lemma_prime(doctored, inst, out)


def test_construct_detects_degenerate_cofactor(table1m):
    # A fabricated equality outcome pointing at n - p_i = p_k itself:
    # lpf matches p_k, but the cofactor is 1 < 3.  (m even is impossible
    # outright: n even minus odd prime is odd.)
    inst = make_instance(table1m, 10, 2)
    fake = InstanceOutcome(kind=OutcomeKind.WITNESS_EQUAL, i=2)
    with pytest.raises(ProofViolationError, match="m >= 3"):
        construct_lemma_prime(table1m, inst, fake)


def test_construct_soundness_small_exhaustive(table1m):
    # Every witness instance with n <= 2000 produces a prime in (p_k, n).
    bertrand_pairs = set()
    for n in range(6, 2_002, 2):
        k = 0
        while True:
            k += 1
            if table1m.odd_prime(k) >= n:
                break
            inst = make_instance(table1m, n, k)
            out = evaluate_instance(table1m, inst)
            if out.kind is OutcomeKind.VACUOUS:
                # all larger k are vacuous too; move to the next n
                break
            if out.is_witness:
                tr = construct_lemma_prime(table1m, inst, out)
                assert table1m.is_prime(tr.produced_prime)
                assert inst.pk < tr.produced_prime < n
                if tr.used_bertrand:
                    bertrand_pairs.add((n, k))
    assert {(12, 1), (30, 1), (30, 2), (84, 1)} <= bertrand_pairs


# -- two-prime decomposition --------------------------------------------------


def test_goldbach_spot_values(table1m):
    for n, (p, q, i) in {6: (3, 3, 1), 30: (7, 23, 3), 98: (19, 79, 7)}.items():
        tr = goldbach_decompose(table1m, n, verify=True)
        assert (tr.p, tr.q, tr.i) == (p, q, i)
        assert tr.p + tr.q == n
    assert goldbach_decompose(table1m, 98).scanned == 24


def test_goldbach_reads_the_bits_once(table1m, monkeypatch):
    # The descent counts the odd primes below n from the bits past the
    # small list, and then walks the stored small list only: it neither
    # finds p_K nor lists a chunk of the bits.
    reads = []
    chunks = PrimeTable._chunks

    def counted(table, stop):
        reads.append(stop)
        return chunks(table, stop)

    monkeypatch.setattr(PrimeTable, "_chunks", counted)
    tr = goldbach_decompose(table1m, 999_998, verify=True)
    assert (tr.p, tr.q, tr.scanned) == (19, 999_979, 78_497)
    assert reads == [999_998 >> 1]


def test_goldbach_validation(table1m):
    with pytest.raises(PreconditionError):
        goldbach_decompose(table1m, 7)
    with pytest.raises(PreconditionError):
        goldbach_decompose(table1m, 4)
    with pytest.raises(CoverageError):
        goldbach_decompose(table1m, 2_000_002)


def test_goldbach_contradiction_with_witness_evidence(table1m):
    # Hide every prime hit for n = 20 but leave a large factor: the
    # descent must surface the constructed prime as the contradiction.
    doctored = make_doctored(
        table1m,
        not_prime=(17, 13, 7, 3),
        lpf_overrides={17: 19},
    )
    with pytest.raises(GoldbachCounterexampleError) as info:
        goldbach_decompose(doctored, 20)
    assert info.value.n == 20
    assert info.value.evidence.produced_prime == 19
    assert "contradicting maximality" in str(info.value)


def test_goldbach_contradiction_with_failed_property(table1m):
    # Same hiding, but all factors forced small: the underlying witness
    # property fails too, and the outcome itself is the evidence.
    doctored = make_doctored(
        table1m,
        not_prime=(17, 15, 13, 9, 7, 3),
        lpf_overrides={17: 3, 13: 3},
    )
    with pytest.raises(GoldbachCounterexampleError) as info:
        goldbach_decompose(doctored, 20)
    assert info.value.evidence.kind is OutcomeKind.COUNTEREXAMPLE_CANDIDATE
