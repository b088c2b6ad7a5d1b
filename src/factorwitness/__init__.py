"""Verification engine for a large-prime-factor property of even numbers.

For every even n >= 6 and every index k with p_k < n (p_1 = 3 being the
first odd prime), either some n - p_i (1 <= i <= k) is prime, or some
n - p_i has a prime factor >= p_k.  This package evaluates single (n, k)
instances, sweeps ranges exhaustively, classifies the rare cases where
the factor bound is met only with equality, and chains witnesses into
explicit two-prime decompositions of even numbers.
"""

from .conjecture import (
    DescentTrace,
    EdgeCaseRecord,
    Family,
    Instance,
    InstanceOutcome,
    LemmaTrace,
    OutcomeKind,
    classify_equality,
    construct_lemma_prime,
    evaluate_instance,
    first_witness_index,
    goldbach_decompose,
    make_instance,
)
from .errors import (
    AnomalyFoundError,
    CheckpointMismatchError,
    ConfigurationError,
    CounterexampleFoundError,
    CoverageError,
    EngineError,
    GoldbachCounterexampleError,
    OutOfRangeError,
    PreconditionError,
    ProofViolationError,
    ReportFormatError,
    ReportWriteError,
    SweepInterrupted,
)
from .report import (
    RunManifest,
    canonical_bytes,
    emit_records,
    parse_records,
    render_proof_trace,
    summary_digest,
    summary_to_records,
)
from .search import (
    DecompositionSweep,
    RangeJob,
    RangeSummary,
    WitnessStats,
    decompose_range,
    enumerate_edge_cases,
    merge_summaries,
    verify_range,
    witness_statistics,
)
from .sieve import PrimeTable, build_table

__version__ = "0.1.0"

__all__ = [
    "AnomalyFoundError",
    "CheckpointMismatchError",
    "ConfigurationError",
    "CounterexampleFoundError",
    "CoverageError",
    "DecompositionSweep",
    "DescentTrace",
    "EdgeCaseRecord",
    "EngineError",
    "Family",
    "GoldbachCounterexampleError",
    "Instance",
    "InstanceOutcome",
    "LemmaTrace",
    "OutOfRangeError",
    "OutcomeKind",
    "PreconditionError",
    "PrimeTable",
    "ProofViolationError",
    "RangeJob",
    "RangeSummary",
    "ReportFormatError",
    "ReportWriteError",
    "RunManifest",
    "SweepInterrupted",
    "WitnessStats",
    "build_table",
    "canonical_bytes",
    "classify_equality",
    "construct_lemma_prime",
    "decompose_range",
    "emit_records",
    "enumerate_edge_cases",
    "evaluate_instance",
    "first_witness_index",
    "goldbach_decompose",
    "make_instance",
    "merge_summaries",
    "parse_records",
    "render_proof_trace",
    "summary_digest",
    "summary_to_records",
    "verify_range",
    "witness_statistics",
    "__version__",
]
