"""Command line front end.

Subcommands:
  verify      sweep a range of even n and emit the record stream
  edge-cases  list all equality cases up to a bound
  stats       first-witness-index distribution up to a bound
  goldbach    decompose one even n into two primes, with trace
  lemma       run the constructive step for one (n, k) instance
  selftest    cross-check the engine against brute-force reference code

Exit codes:
  0  success (including a clean sweep, and a requested early stop)
  1  internal failure or failed selftest
  2  bad arguments (including lemma's k with p_k >= n), mismatched
     checkpoint, or invalid configuration, including a prime table too
     large for the available memory
  4  I/O failure: a failed write, or an --output, --manifest or
     --checkpoint that could not be written, refused before the build
  5  counterexample candidate found
  6  unit anomaly found (some n - p_i equal to 1)

Every subcommand sizes its prime table by its request: the largest n it
uses (selftest by its own --limit).  Before allocating, the table build
compares its estimated bytes (1 byte and 1 bit per odd integer, about
0.56 per integer, plus build or query scratch; about 1,077 MiB, or 1.1
GiB, at --max 2000000000) with the memory available to the process
(MemAvailable, or a smaller cgroup v1 or v2 limit or address-space limit
as ulimit -v sets it) and refuses with exit 2 if the table would not
fit.  goldbach and lemma refuse an n below 6,
as they refuse an odd n, when they parse it.  verify, edge-cases and
stats check their other arguments before the build, so they too exit 2
without allocating.  An engine error the arguments cannot cause, such as
a table too small for its request, is internal and exits 1.

Every record stream goes to --output (default stdout) through one writer,
report.write_records; an interrupted file write ends with a partial_output
marker line that parsers reject.  Streams never contain timing, so
byte-identical reruns are expected; measurements land on stderr.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from math import prod

from . import __version__
from .bruteforce import BruteOracle, trial_largest_factor, trial_smallest_factor
from .conjecture import (
    Instance,
    _evaluate,
    construct_lemma_prime,
    evaluate_instance,
    goldbach_decompose,
    make_instance,
    OutcomeKind,
)
from .errors import (
    AnomalyFoundError,
    CheckpointMismatchError,
    ConfigurationError,
    CounterexampleFoundError,
    CoverageError,
    EngineError,
    GoldbachCounterexampleError,
    PreconditionError,
    ReportWriteError,
    SweepInterrupted,
)
from .report import (
    FORMATS,
    NDJSON,
    RunManifest,
    check_writable,
    emit_records,
    render_proof_trace,
    summary_digest,
    summary_to_records,
    write_records,
)
from .search import (
    DEFAULT_BLOCK_EVENS,
    RangeJob,
    check_stop_request,
    enumerate_edge_cases,
    to_record,
    verify_range,
    witness_statistics,
)
from .sieve import build_table, usable_cpus

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 4
EXIT_COUNTEREXAMPLE = 5
EXIT_ANOMALY = 6

WORKERS_ENV = "FACTORWITNESS_WORKERS"


def _even(text: str) -> int:
    value = int(text)
    if value % 2:
        raise argparse.ArgumentTypeError(f"{value} is odd; an even value is required")
    return value


def _even_n(text: str) -> int:
    """goldbach's and lemma's n: even and at least 6, as in the paper."""
    value = _even(text)
    if value < 6:
        raise argparse.ArgumentTypeError(f"{value} is below 6; an even n >= 6 is required")
    return value


def _resolve_workers(flag: int | None) -> int:
    """The worker count: the flag, else the environment, else the usable CPUs.

    Refuses, with ConfigurationError, a count below 1 from either source,
    so every sweeping subcommand refuses it before building its table.
    """
    if flag is not None:
        if flag < 1:
            raise ConfigurationError(f"workers must be >= 1, got {flag}")
        return flag
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ConfigurationError(f"{WORKERS_ENV}={env!r} is not an integer")
        if value < 1:
            raise ConfigurationError(f"{WORKERS_ENV} must be >= 1, got {value}")
        return value
    return usable_cpus()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorwitness",
        description="verify the large-prime-factor witness property of even numbers",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=FORMATS, default=NDJSON)
        p.add_argument("--output", metavar="PATH", default="-",
                       help="record stream destination (default: stdout)")

    p = sub.add_parser("verify", help="sweep all even n in [--min, --max]")
    p.add_argument("--min", type=_even, default=6)
    p.add_argument("--max", type=_even, required=True)
    p.add_argument("--workers", type=int, default=None,
                   help=f"worker processes (default: ${WORKERS_ENV} or the usable CPUs)")
    p.add_argument("--checkpoint", metavar="PATH", default=None,
                   help="save the covered prefix here after every span; resume after "
                        "it if present, with any interval or worker count")
    p.add_argument("--checkpoint-interval", type=int, default=DEFAULT_BLOCK_EVENS,
                   metavar="EVENS", help="even values per block, the unit of "
                   "--stop-after-blocks; a span is max(EVENS, %(default)s) (default %(default)s)")
    p.add_argument("--fail-fast", action="store_true",
                   help="abort on the first span containing a counterexample or anomaly")
    p.add_argument("--stop-after-blocks", type=int, default=None, metavar="B",
                   help="sweep B more blocks (B >= 1) of --checkpoint-interval evens, "
                        f"by default B x {DEFAULT_BLOCK_EVENS}, checkpoint and stop "
                        "(interruption drill)")
    p.add_argument("--manifest", metavar="PATH", default=None,
                   help="write a provenance manifest (digest, job, record count)")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    for name, what in (
        ("edge-cases", "list equality cases with n <= --max"),
        ("stats", "first-witness-index distribution for n <= --max"),
    ):
        p = sub.add_parser(name, help=what)
        p.add_argument("--max", type=int, required=True)
        p.add_argument("--workers", type=int, default=None)
        add_common(p)
        p.set_defaults(func=_cmd_query)

    p = sub.add_parser("goldbach", help="decompose one even n into two primes")
    p.add_argument("--n", type=_even_n, required=True)
    p.set_defaults(func=_cmd_goldbach)

    p = sub.add_parser("lemma", help="run the constructive step for (n, k)")
    p.add_argument("--n", type=_even_n, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_lemma)

    p = sub.add_parser("selftest", help="cross-check against brute-force reference code")
    p.add_argument("--limit", type=int, default=1_000_000)
    p.add_argument("--sample", type=int, default=100_000,
                   help="random integers to factor both ways (default %(default)s)")
    p.add_argument("--seed", type=int, default=2026)
    p.set_defaults(func=_cmd_selftest)

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    job = RangeJob(
        n_min=args.min,
        n_max=args.max,
        table_limit=args.max,
        workers=_resolve_workers(args.workers),
        checkpoint_interval=args.checkpoint_interval,
    )
    check_stop_request(args.checkpoint, args.stop_after_blocks)
    # Each checkpoint save writes the last path, then renames it over the
    # checkpoint, which so may be a read-only file but not a directory.
    if args.checkpoint and os.path.isdir(args.checkpoint):
        raise ReportWriteError(f"cannot write {args.checkpoint!r}: it is a directory")
    check_writable(
        args.output, args.manifest, args.checkpoint and f"{args.checkpoint}.tmp.{os.getpid()}"
    )
    table = build_table(args.max)
    t0 = time.perf_counter()
    summary = verify_range(
        table,
        job,
        checkpoint_path=args.checkpoint,
        fail_fast=args.fail_fast,
        stop_after_blocks=args.stop_after_blocks,
    )
    wall = time.perf_counter() - t0
    dest = sys.stdout if args.output in (None, "-") else args.output
    emit_records(summary, args.format, dest, include_timing=False)
    if args.manifest:
        RunManifest.for_run(__version__, job.identity(), summary).write(args.manifest)
    print(
        f"verified [{job.n_min}, {job.n_max}]: "
        f"{summary.instances_evaluated} instances, "
        f"{summary.counterexample_count} counterexample candidate(s), "
        f"{summary.anomaly_count} anomaly(ies), "
        f"{wall:.2f}s, digest {summary_digest(summary)[:16]}",
        file=sys.stderr,
    )
    if summary.counterexamples:
        return EXIT_COUNTEREXAMPLE
    if summary.anomalies:
        return EXIT_ANOMALY
    return EXIT_OK


def _cmd_query(args) -> int:
    """edge-cases and stats: one projection of the sweep of [6, --max]."""
    workers = _resolve_workers(args.workers)
    check_writable(args.output)
    table = build_table(max(args.max, 6))
    if args.command == "edge-cases":
        rows = enumerate_edge_cases(table, args.max, workers=workers)
        kind, found = "equality_case", f"{len(rows)} equality case(s)"
    else:
        rows = (witness_statistics(table, args.max, workers=workers),)
        kind, found = "witness_stats", f"{rows[0].witnessed_count} witnessed instance(s)"
    dest = sys.stdout if args.output in (None, "-") else args.output
    write_records([to_record(kind, row) for row in rows], (kind,), args.format, dest)
    print(f"{found} with n <= {args.max}", file=sys.stderr)
    return EXIT_OK


def _cmd_goldbach(args) -> int:
    table = build_table(args.n)
    trace = goldbach_decompose(table, args.n, verify=True)
    sys.stdout.write(render_proof_trace(trace))
    return EXIT_OK


def _cmd_lemma(args) -> int:
    table = build_table(args.n)
    # p_k is read from the bits once; the odd primes below n are counted
    # only to explain a refusal.
    try:
        pk = table.odd_prime(args.k)
    except CoverageError:  # no k-th odd prime in the table, so none below n
        pk = args.n
    if pk >= args.n:
        below = table.count_odd_primes_below(args.n)
        raise PreconditionError(
            f"instance needs p_k < n, but only {below} odd prime(s) lie below "
            f"{args.n}, got k={args.k}"
        )
    inst = Instance(n=args.n, k=args.k, pk=pk)
    outcome = _evaluate(table, inst)
    if outcome.kind is OutcomeKind.VACUOUS:
        sys.stdout.write(
            f"(n={args.n}, k={args.k}) is vacuous: n - p_{outcome.i} = "
            f"{outcome.prime_hit} is prime; nothing to construct\n"
        )
        return EXIT_OK
    if outcome.kind is OutcomeKind.COUNTEREXAMPLE_CANDIDATE:
        sys.stdout.write(
            f"(n={args.n}, k={args.k}) is a counterexample candidate: "
            f"largest factors {list(outcome.factors)} all below p_{args.k} = {inst.pk}\n"
        )
        return EXIT_COUNTEREXAMPLE
    if outcome.kind is OutcomeKind.ANOMALY_UNIT:
        sys.stdout.write(
            f"(n={args.n}, k={args.k}) hits the unit: n - p_{outcome.i} = 1\n"
        )
        return EXIT_ANOMALY
    trace = construct_lemma_prime(table, inst, outcome)
    sys.stdout.write(render_proof_trace(trace))
    return EXIT_OK


def _cmd_selftest(args) -> int:
    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        status = "ok" if ok else "FAIL"
        suffix = f" ({detail})" if detail and not ok else ""
        print(f"selftest: {name}: {status}{suffix}", file=sys.stderr)
        if not ok:
            failures += 1

    limit = max(args.limit, 10_000)
    table = build_table(limit)
    oracle = BruteOracle(min(limit, 100_000))

    check(
        "prime counts",
        table.prime_count(oracle.limit) == len(oracle.primes)
        and table.prime_count(10_000) == oracle.prime_count(10_000),
    )

    rng = random.Random(args.seed)
    sample = [rng.randrange(2, limit + 1) for _ in range(args.sample)]
    bad = 0
    for x in sample:
        parts = table.factorize(x)
        if (
            prod(parts) != x
            or parts[0] != trial_smallest_factor(x)
            or parts[-1] != trial_largest_factor(x)
        ):
            bad += 1
    check("factor tables vs trial division", bad == 0, f"{bad} mismatches")

    job = RangeJob(n_min=6, n_max=10_000, table_limit=limit, workers=1)
    engine_summary = verify_range(table, job)
    oracle_summary = oracle.summarize(6, 10_000)
    check(
        "range summary vs brute force",
        summary_to_records(engine_summary, include_timing=False)
        == summary_to_records(oracle_summary, include_timing=False),
    )

    sound = True
    for n in range(6, 2_002, 2):
        for k in range(1, 6):
            if table.odd_prime(k) >= n:
                break
            inst = make_instance(table, n, k)
            outcome = evaluate_instance(table, inst)
            if outcome.is_witness:
                trace = construct_lemma_prime(table, inst, outcome)
                if not (inst.pk < trace.produced_prime < n):
                    sound = False
    check("constructive step soundness (n <= 2000)", sound)

    return EXIT_OK if failures == 0 else EXIT_FAILURE


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except SweepInterrupted as exc:
        print(f"stopped on request: {exc}", file=sys.stderr)
        return EXIT_OK
    except (ConfigurationError, PreconditionError, CheckpointMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ReportWriteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CounterexampleFoundError, GoldbachCounterexampleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    except AnomalyFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANOMALY
    except EngineError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
