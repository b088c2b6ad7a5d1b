"""Benchmark command for factorwitness.

    python3 perfbench/run.py --workload verify-1e7 --seed 1 --seconds 30 --trace 0

Run from the repository root.  It repeats whole rounds of the workload,
each in a fresh process (perfbench/rounds.py), until --seconds have
passed, checks every round's outputs against values the benchmark
derives itself (perfbench/reference.py, the trial-division oracle,
sympy), and prints as its last line one JSON object:

    {"correct": ..., "attempted": rounds, "failed": rounds, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the
rounds).  With --trace 1 the rounds alternate between traced and
untraced runs (and, on the verify workloads, a traced run at the other
worker count); the metrics are the per-layer ones, and the spans go to
.perfbench/trace-<workload>-seed<seed>.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
BUDGET_S = 165.0  # no new cycle starts that would end later than this
ROUND_FIELDS = ("wall_s", "setup_s", "solve_s", "cpu_s", "peak_rss_mb")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "evens_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "sieve.build_s": "s",
    "sieve.table_mb": "MiB",
    "sieve.build_peak_rss_mb": "MiB",
    "search.verify_s": "s",
    "search.instances_per_s": "1/s",
    "search.instances": "count",
    "search.blocks": "count",
    "search.checkpoint_saves": "count",
    "search.checkpoint_save_s": "s",
    "search.checkpoint_bytes": "B",
    "search.checkpoint_resume_s": "s",
    "search.pool_speedup": "ratio",
    "search.decompose_s": "s",
    "search.decompose_depth": "count",
    "conjecture.classify_equality_calls": "count",
    "conjecture.classify_equality_s": "s",
    "report.emit_s": "s",
    "report.digest_s": "s",
    "report.stream_bytes": "B",
    "trace.wall_ratio": "ratio",
}


def load_program():
    """Import the package from ./src of this checkout, or return None."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import factorwitness
    except ImportError:
        return None
    if not Path(factorwitness.__file__).resolve().is_relative_to(ROOT / "src"):
        return None
    return factorwitness


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def kill_group(proc: subprocess.Popen) -> None:
    """Kill the round and any pool workers it left, then reap the round."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def run_round(spec: dict, timeout: float) -> dict:
    """Run one round in a fresh process group; kill the group on timeout."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rounds.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        kill_group(proc)
        return {"error": f"round exceeded {timeout:.0f} s and was killed"}
    except BaseException:
        kill_group(proc)
        raise
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": f"round exited {proc.returncode} without a result"}
    if "error" in result:
        sys.stderr.write(err)
    return result


def prefault(mib: int) -> None:
    """Write `mib` MiB once and free it.

    On a virtual machine the first touch of memory the guest has not used
    for a while is several times dearer than a later one (2.2 GiB took
    2.4 s cold and 0.5 s warm on the reference machine), so without this
    the first round of a run pays for whatever ran before it.
    """
    import numpy as np

    buf = np.ones(mib << 20, dtype=np.uint8)
    del buf


def cycle_kinds(wl: dict, trace: bool) -> list[tuple[str, int, bool]]:
    """(kind, workers, traced) of the rounds that make up one cycle."""
    if not trace:
        return [("plain", wl["workers"], False)]
    kinds = [("traced", wl["workers"], True), ("plain", wl["workers"], False)]
    if wl["alt_workers"]:
        kinds.append(("alt", wl["alt_workers"], True))
    return kinds


# ---------------------------------------------------------------------------
# expected values and output checks
# ---------------------------------------------------------------------------


class Expected:
    """What a correct round must report, derived without the engine."""

    def __init__(self, wl: dict, seed: int):
        import reference
        from factorwitness.bruteforce import BruteOracle

        self.wl = wl
        self.evens = (wl["n_max"] - 6) // 2 + 1
        self.instances, self.deepest = reference.first_hit_pass(wl["n_max"])
        self.oracle = BruteOracle(reference.SCAN_PRIME_BOUND)
        self.failures: list[str] = []
        self._fwi_ok: dict[tuple, list[str]] = {}
        if wl["kind"] == "verify":
            self.equality = reference.equality_cases(wl["n_max"])
            self.ratio = self._least_full_ratio()
            self.inputs = {"windows": reference.oracle_windows(seed, wl["n_max"])}
        else:
            if not reference.recheck_first_hit(self.deepest[1], self.deepest[0]):
                self.failures.append(f"trial division rejects deepest first hit {self.deepest}")
            self.inputs = {"sample": reference.sample_evens(seed, wl["n_max"]) + [self.deepest[1]]}
        self.digest = None

    def _least_full_ratio(self) -> list[int]:
        """Least (n, k) whose first witness index is k itself: ratio 1, the maximum."""
        o = self.oracle
        for n in range(6, 10_000, 2):
            k = 1
            while o.odd_prime(k) < n:
                if o.first_witness_index(n, k) == k:
                    return [k, k, n, k]
                k += 1
        raise RuntimeError("no instance with first witness index equal to k")

    def _check_fwi(self, fwi, hist) -> list[str]:
        from sympy import isprime

        key = tuple(fwi)
        if key not in self._fwi_ok:
            v, n, k = key
            bad = []
            if self.oracle.first_witness_index(n, k) != v:
                bad.append(f"oracle first witness index of ({n}, {k}) is not {v}")
            if any(isprime(n - self.oracle.odd_prime(i)) for i in range(1, k + 1)):
                bad.append(f"({n}, {k}) is vacuous, not a witness instance")
            top = max(int(b) for b in hist)
            if (v <= 64 and top != v) or top < v:
                bad.append(f"histogram tops out at {top}, extreme says {v}")
            self._fwi_ok[key] = bad
        return self._fwi_ok[key]

    def check_checks(self, r: dict) -> list[str]:
        if self.wl["stop_after"]:
            self.digest = r.get("uninterrupted_digest")
        return [f"{c['check']}: {c['detail']}" for c in r["checks"] if not c["ok"]]

    def check_round(self, r: dict) -> list[str]:
        if self.wl["kind"] == "decompose":
            bad = []
            if r["count"] != self.evens:
                bad.append(f"count {r['count']} != {self.evens} evens")
            if r["failure_count"]:
                bad.append(f"{r['failure_count']} failures, first {r['failures_head']}")
            if r["max_scan"] != list(self.deepest):
                bad.append(f"max_scan {r['max_scan']} != first-hit pass {list(self.deepest)}")
            return bad
        return self._check_verify(r)

    def _check_verify(self, r: dict) -> list[str]:
        wl = self.wl
        raw = Path(r["records"]).read_bytes()
        recs = [json.loads(line) for line in raw.decode("ascii").splitlines()]
        body, tail = recs[:-1], recs[-1]
        inst, vac = tail["instances_evaluated"], tail["vacuous_count"]
        strict, equal = tail["strict_count"], tail["equal_count"]
        hist = tail["witness_index_histogram"]
        expect = [
            (tail["record"] == "summary", "last record is not the summary"),
            ((tail["n_min"], tail["n_max"]) == (6, wl["n_max"]), "wrong range"),
            (tail["counterexample_count"] == 0 and tail["anomaly_count"] == 0,
             "summary is not clean"),
            (inst == vac + strict + equal, f"{inst} instances != vacuous + strict + equal"),
            (vac == self.evens, f"vacuous_count {vac} != {self.evens} evens"),
            (inst == self.instances, f"instances {inst} != sum of i*(n) {self.instances}"),
            (body == self.equality, "equality cases differ from (3^r + 3, 1) and (30, 2)"),
            (equal == tail["equality_count"] == len(self.equality), "equality count"),
            (sum(hist.values()) == strict + equal, "histogram total != witnessed instances"),
            (tail["max_witness_ratio"] == self.ratio,
             f"max_witness_ratio {tail['max_witness_ratio']} != {self.ratio}"),
            (hashlib.sha256(raw).hexdigest() == r["digest"],
             "emitted stream does not hash to summary_digest"),
        ]
        bad = [msg for ok, msg in expect if not ok]
        bad += self._check_fwi(tail["max_first_witness_index"], hist)
        if self.digest is None and not wl["stop_after"]:
            self.digest = r["digest"]
        if r["digest"] != self.digest:
            bad.append(f"digest {r['digest'][:16]} != uninterrupted {str(self.digest)[:16]}")
        if wl["stop_after"]:
            if r["interrupted_at"] != wl["stop_after"]:
                bad.append(f"stop on request after {r['interrupted_at']} blocks")
            if r["checkpoint_left"]:
                bad.append("checkpoint not removed after completion")
        return bad


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(rounds: list[dict]) -> dict:
    per = {
        "wall_s": [r["wall_s"] for r in rounds],
        "setup_s": [r["setup_s"] for r in rounds],
        "evens_per_s": [r["evens"] / r["solve_s"] for r in rounds],
        "cpu_s": [r["cpu_s"] for r in rounds],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
    }
    return {name: statistics.median(values) for name, values in per.items()}


def layer_values(r: dict) -> dict:
    layers = r["layers"]

    def get(span: str, key: str):
        return layers.get(span, {}).get(key, 0)

    verify_s = get("search.verify_range", "s")
    return {
        "sieve.build_s": get("sieve.build_table", "s"),
        "sieve.table_mb": r["table_mb"],
        "sieve.build_peak_rss_mb": r["build_peak_rss_mb"],
        "search.verify_s": verify_s,
        "search.instances_per_s": r["instances"] / verify_s if verify_s else 0.0,
        "search.instances": r["instances"],
        "search.blocks": r["blocks"],
        "search.checkpoint_saves": get("search.checkpoint_save", "calls"),
        "search.checkpoint_save_s": get("search.checkpoint_save", "s"),
        "search.checkpoint_bytes": get("search.checkpoint_save", "bytes"),
        "search.checkpoint_resume_s": get("search.checkpoint_resume", "s"),
        "search.decompose_s": get("search.decompose_range", "s"),
        "search.decompose_depth": r["max_scan"][0] if r.get("max_scan") else 0,
        "conjecture.classify_equality_calls": get("conjecture.classify_equality", "calls"),
        "conjecture.classify_equality_s": get("conjecture.classify_equality", "s"),
        "report.emit_s": get("report.emit_records", "s"),
        "report.digest_s": get("report.summary_digest", "s"),
        "report.stream_bytes": get("report.emit_records", "bytes"),
    }


def per_layer(done: list[tuple[str, int, dict]], wl: dict) -> dict:
    traced = [layer_values(r) for kind, _, r in done if kind == "traced"]
    # median_low: every value is one a round measured, so counts stay whole.
    out = {name: statistics.median_low(v[name] for v in traced) for name in traced[0]}
    by_workers: dict[int, list[float]] = {}
    for kind, workers, r in done:
        if kind in ("traced", "alt"):
            by_workers.setdefault(workers, []).append(r["solve_s"])
    if wl["alt_workers"] and 1 in by_workers and 2 in by_workers:
        out["search.pool_speedup"] = statistics.median(by_workers[1]) / statistics.median(by_workers[2])
    else:
        out["search.pool_speedup"] = 1.0  # decompose_range runs in one process
    walls = {kind: statistics.median(r["wall_s"] for k, _, r in done if k == kind)
             for kind in ("traced", "plain")}
    out["trace.wall_ratio"] = walls["traced"] / walls["plain"]
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds through run_round, which kills the running round.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if load_program() is None:
        print("factorwitness sources not found under ./src of this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from rounds import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}"
    work = OUT / f"{tag}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    expected = Expected(wl, args.seed)
    prefault(wl["peak_mib"])
    problems = list(expected.failures)
    kinds = cycle_kinds(wl, bool(args.trace))
    # A traced cycle already holds two or three rounds.  Plain runs make at
    # least two, so setup_s is a median even where one round fills --seconds.
    min_cycles = 1 if args.trace else 2
    done: list[tuple[str, int, dict]] = []
    attempted = failed = cycles = 0
    checks_pending = True
    t0 = time.monotonic()
    while True:
        for kind, workers, traced in kinds:
            spec = {"workload": args.workload, "workers": workers, "trace": traced,
                    "work": str(work), "checks": expected.inputs if checks_pending else None}
            r = run_round(spec, BUDGET_S + 10 - (time.monotonic() - started))
            attempted += 1
            if "error" in r:
                failed += 1
                continue
            try:
                if "checks" in r:
                    checks_pending = False
                    problems += expected.check_checks(r)
                problems += [f"round {attempted}: {p}" for p in expected.check_round(r)]
            except Exception as exc:  # malformed output is a wrong answer, not a crash
                problems.append(f"round {attempted}: output unreadable: {type(exc).__name__}: {exc}")
            done.append((kind, workers, r))
        cycles += 1
        now = time.monotonic()
        per_cycle = (now - t0) / cycles
        enough = now - t0 >= args.seconds and cycles >= min_cycles
        if enough or now - started + per_cycle > BUDGET_S:
            break
    shutil.rmtree(work, ignore_errors=True)

    if not {kind for kind, _, _ in done} >= {kind for kind, _, _ in kinds[:2]}:
        print(f"{failed} of {attempted} rounds failed; too few left to measure",
              file=sys.stderr)
        return 1
    if checks_pending:
        problems.append("seeded checks never ran")
    if args.trace:
        values, units = per_layer(done, wl), PER_LAYER
        spans = [{"round": i, "kind": kind, "workers": w, **s}
                 for i, (kind, w, r) in enumerate(done) for s in r.get("spans", [])]
        (OUT / f"trace-{tag}.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "spans": spans}) + "\n")
    else:
        values, units = end_to_end([r for _, _, r in done]), END_TO_END
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']!s:>22} {m['unit']}")
    line = json.dumps(result)
    rounds = [{"kind": kind, "workers": w, **{k: r[k] for k in ROUND_FIELDS}}
              for kind, w, r in done]
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(
        {**result, "problems": problems, "rounds": rounds}, indent=1) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
