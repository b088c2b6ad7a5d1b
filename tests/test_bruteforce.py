"""The reference implementations themselves, pinned to hand-worked values.

The oracle is what other tests trust, so its own tests avoid the engine
entirely: expectations here were computed by hand or are classical
constants.
"""

import pytest

from factorwitness.bruteforce import (
    BruteOracle,
    trial_is_prime,
    trial_largest_factor,
    trial_smallest_factor,
)
from factorwitness.conjecture import Family, OutcomeKind
from factorwitness.errors import CoverageError, PreconditionError


def test_trial_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for x in range(50):
        assert trial_is_prime(x) == (x in primes)
    assert trial_is_prime(7919)
    assert not trial_is_prime(7917)  # 3 * 7 * 13 * 29


def test_trial_factors():
    assert trial_smallest_factor(2) == 2
    assert trial_smallest_factor(91) == 7
    assert trial_smallest_factor(97) == 97
    assert trial_largest_factor(2) == 2
    assert trial_largest_factor(91) == 13
    assert trial_largest_factor(96) == 3
    assert trial_largest_factor(1024) == 2
    assert trial_largest_factor(95) == 19
    assert trial_largest_factor(999_983) == 999_983
    with pytest.raises(PreconditionError):
        trial_largest_factor(1)


def test_oracle_prime_counts(oracle10k):
    # classical values
    assert oracle10k.prime_count(10_000) == 1_229
    assert oracle10k.prime_count(100) == 25
    assert len(oracle10k.odd_primes) == 1_228
    assert oracle10k.odd_prime(1) == 3
    assert oracle10k.odd_prime(6) == 17
    with pytest.raises(CoverageError):
        oracle10k.odd_prime(1_229)


def test_oracle_evaluate_spots(oracle10k):
    out = oracle10k.evaluate(98, 6)
    assert out.kind is OutcomeKind.WITNESS_STRICT
    assert (out.i, out.factor) == (1, 19)
    out = oracle10k.evaluate(30, 2)
    assert (out.kind, out.i) == (OutcomeKind.WITNESS_EQUAL, 2)
    out = oracle10k.evaluate(100, 2)
    assert (out.kind, out.i, out.prime_hit) == (OutcomeKind.VACUOUS, 1, 97)
    assert oracle10k.first_witness_index(150, 3) == 1
    assert oracle10k.first_witness_index(100, 2) is None


def test_oracle_goldbach(oracle10k):
    assert oracle10k.goldbach_pair(6) == (3, 3, 1)
    assert oracle10k.goldbach_pair(30) == (7, 23, 3)
    assert oracle10k.goldbach_pair(98) == (19, 79, 7)


def test_oracle_summary_6_to_20_by_hand(oracle10k):
    # Worked by hand:
    #   n=6,8,10,14,16,20: n-3 prime, one vacuous instance each
    #   n=12: k=1 equality (9 = 3^2), k=2 vacuous (7)
    #   n=18: k=1 strict (15 has factor 5 > 3), k=2 vacuous (13)
    s = oracle10k.summarize(6, 20)
    assert s.instances_evaluated == 10
    assert s.vacuous_count == 8
    assert s.strict_count == 1
    assert s.equal_count == 1
    assert s.counterexamples == ()
    assert s.anomalies == ()
    assert [(r.n, r.k) for r in s.equality_cases] == [(12, 1)]
    assert s.equality_cases[0].family is Family.POWER_OF_3_PLUS_3
    assert s.witness_index_histogram == {1: 2}
    assert s.max_first_witness_index == (1, 12, 1)
    assert s.max_witness_ratio == (1, 1, 12, 1)


def test_oracle_validation(oracle10k):
    with pytest.raises(PreconditionError):
        oracle10k.evaluate(7, 1)
    with pytest.raises(PreconditionError):
        oracle10k.summarize(6, 7)
    with pytest.raises(CoverageError):
        oracle10k.summarize(6, 20_000)
    with pytest.raises(PreconditionError):
        BruteOracle(4)


def test_oracle_stats_floor(oracle10k):
    stats = oracle10k.stats(8)
    assert stats.histogram == {}
    assert stats.witnessed_count == 0
    assert stats.max_first_witness_index is None
