"""One round of one workload, run in a fresh process.

    python3 perfbench/rounds.py '<json spec>'

run.py starts this script once per round, so every round pays its own
table build and its peak RSS is its own.  The spec names the workload,
the worker count, whether to trace, a work directory for the record
stream and checkpoint, and (in the first round of a run only) the seeded
inputs of the correctness checks that need the round's table.  The last
line of standard output is one JSON object with the measurements, the
outputs run.py checks, and, when traced, the spans.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

N7 = 10**7
N8 = 10**8
RESUME_INTERVAL = 10**4  # evens per block: 500 blocks over [6, 10^7]

# name -> range, worker count, block size, blocks before the requested stop,
# worker count of the traced comparison round, and the round's peak RSS.
WORKLOADS = {
    "verify-1e7": {"kind": "verify", "n_max": N7, "workers": 1,
                   "interval": None, "stop_after": None, "alt_workers": 2,
                   "peak_mib": 240},
    "verify-resume-1e7": {"kind": "verify", "n_max": N7, "workers": 2,
                          "interval": RESUME_INTERVAL, "stop_after": 250,
                          "alt_workers": 1, "peak_mib": 240},
    "decompose-1e8": {"kind": "decompose", "n_max": N8, "workers": 1,
                      "interval": None, "stop_after": None, "alt_workers": None,
                      "peak_mib": 2100},
}


def cpu_seconds() -> float:
    """User + system time of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and of any reaped child, in MiB.

    The process's own peak is VmHWM, not RUSAGE_SELF: Linux carries the
    parent's high-water mark into ru_maxrss across vfork + exec, which is
    how subprocess starts this script.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def table_mb(table) -> float:
    """Bytes of the table's distinct arrays (views counted once), in MiB."""
    seen = {}
    for f in dataclasses.fields(table):
        arr = getattr(table, f.name)
        if hasattr(arr, "nbytes"):
            base = arr if arr.base is None else arr.base
            seen[id(base)] = base.nbytes
    return sum(seen.values()) / 2**20


class Tracer:
    """Spans around calls to the program's public names.

    install() rebinds module attributes, so calls the program makes
    through its own module globals (verify_range -> checkpoint_save,
    classify_equality) are timed as well as the benchmark's direct calls.
    Nothing inside the program is edited.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, module, name: str, span_name: str, size_of=None):
        fn = getattr(module, name)

        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": span_name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if size_of is not None:
                    span["bytes"] = size_of(args)

        setattr(module, name, traced)
        self._saved.append((module, name, fn))

    def install(self):
        from factorwitness import report, search, sieve

        file_size = lambda idx: (lambda args: os.path.getsize(args[idx]))
        self._wrap(sieve, "build_table", "sieve.build_table")
        self._wrap(search, "verify_range", "search.verify_range")
        self._wrap(search, "decompose_range", "search.decompose_range")
        self._wrap(search, "checkpoint_save", "search.checkpoint_save", file_size(0))
        self._wrap(search, "checkpoint_resume", "search.checkpoint_resume")
        self._wrap(search, "classify_equality", "conjecture.classify_equality")
        self._wrap(report, "emit_records", "report.emit_records", file_size(2))
        self._wrap(report, "summary_digest", "report.summary_digest")

    def uninstall(self):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def totals(self) -> dict:
        """name -> {"calls", "s", "bytes"} summed over this round's spans."""
        out: dict[str, dict] = {}
        for span in self.spans:
            t = out.setdefault(span["name"], {"calls": 0, "s": 0.0, "bytes": 0})
            t["calls"] += 1
            t["s"] += span["end"] - span["start"]
            t["bytes"] += span.get("bytes", 0)
        return out


def verify_round(wl: dict, workers: int, work: Path):
    from factorwitness import report, search, sieve
    from factorwitness.errors import SweepInterrupted

    n_max = wl["n_max"]
    records = work / "records.ndjson"
    ckpt = work / "checkpoint.json"
    for stale in (records, ckpt):
        stale.unlink(missing_ok=True)
    extra = {"checkpoint_interval": wl["interval"]} if wl["interval"] else {}

    t0, c0 = time.perf_counter(), cpu_seconds()
    table = sieve.build_table(n_max)
    t1 = time.perf_counter()
    build_peak = peak_rss_mb()
    job = search.RangeJob(n_min=6, n_max=n_max, table_limit=n_max, workers=workers, **extra)
    interrupted_at = None
    if wl["stop_after"]:
        try:
            search.verify_range(table, job, checkpoint_path=str(ckpt),
                                stop_after_blocks=wl["stop_after"])
        except SweepInterrupted as exc:
            interrupted_at = exc.blocks_done
        summary = search.verify_range(table, job, checkpoint_path=str(ckpt))
    else:
        summary = search.verify_range(table, job)
    t2 = time.perf_counter()
    report.emit_records(summary, "ndjson", str(records), include_timing=False)
    digest = report.summary_digest(summary)
    t3, c1 = time.perf_counter(), cpu_seconds()

    out = {
        "wall_s": t3 - t0, "setup_s": t1 - t0, "solve_s": t2 - t1, "cpu_s": c1 - c0,
        "peak_rss_mb": peak_rss_mb(), "build_peak_rss_mb": build_peak,
        "table_mb": table_mb(table), "evens": (n_max - 6) // 2 + 1,
        "blocks": len(range(6, n_max + 1, 2 * job.checkpoint_interval)),
        "instances": summary.instances_evaluated, "digest": digest,
        "records": str(records), "interrupted_at": interrupted_at,
        "checkpoint_left": ckpt.exists(),
    }
    return out, table


def decompose_round(wl: dict, workers: int, work: Path):
    from factorwitness import search, sieve

    n_max = wl["n_max"]
    t0, c0 = time.perf_counter(), cpu_seconds()
    table = sieve.build_table(n_max)
    t1 = time.perf_counter()
    build_peak = peak_rss_mb()
    sweep = search.decompose_range(table, 6, n_max)
    t2, c1 = time.perf_counter(), cpu_seconds()

    out = {
        "wall_s": t2 - t0, "setup_s": t1 - t0, "solve_s": t2 - t1, "cpu_s": c1 - c0,
        "peak_rss_mb": peak_rss_mb(), "build_peak_rss_mb": build_peak,
        "table_mb": table_mb(table), "evens": (n_max - 6) // 2 + 1,
        "blocks": 0, "instances": 0,
        "count": sweep.count, "failure_count": len(sweep.failures),
        "failures_head": list(sweep.failures[:10]),
        "max_scan": list(sweep.max_scan) if sweep.max_scan else None,
    }
    return out, table


def seeded_checks(wl: dict, table, inputs: dict, out: dict) -> list[dict]:
    """Checks that need the round's table; run after the timed region.

    The resumed workload also stores the digest of an uninterrupted
    2-worker sweep in out, for run.py to hold every round's digest to.
    """
    from factorwitness import report, search
    from factorwitness.bruteforce import BruteOracle
    from sympy import isprime

    n_max = wl["n_max"]
    results = []
    if wl["kind"] == "verify":
        oracle = BruteOracle(n_max)
        for lo, hi in inputs["windows"]:
            job = search.RangeJob(n_min=lo, n_max=hi, table_limit=n_max, workers=1)
            engine = dataclasses.replace(search.verify_range(table, job),
                                         elapsed_seconds=0.0, evens_per_second=0.0)
            brute = oracle.summarize(lo, hi)
            diff = [f.name for f in dataclasses.fields(engine)
                    if getattr(engine, f.name) != getattr(brute, f.name)]
            results.append({"check": f"oracle window [{lo}, {hi}]", "ok": not diff,
                            "detail": f"fields differ: {diff}" if diff else ""})
        if wl["stop_after"]:
            job = search.RangeJob(n_min=6, n_max=n_max, table_limit=n_max, workers=2)
            out["uninterrupted_digest"] = report.summary_digest(search.verify_range(table, job))
    else:
        oracle = BruteOracle(10_000)
        for n in inputs["sample"]:
            got = search.decompose_range(table, n, n).max_scan
            p, q, i = oracle.goldbach_pair(n)
            ok = got == (i, n) and isprime(p) and isprime(q) and p + q == n
            results.append({"check": f"goldbach_pair({n})", "ok": ok,
                            "detail": f"engine {got}, oracle {(p, q, i)}"})
    return results


ROUNDS = {"verify": verify_round, "decompose": decompose_round}


def main(spec: dict) -> dict:
    wl = WORKLOADS[spec["workload"]]
    work = Path(spec["work"])
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    try:
        out, table = ROUNDS[wl["kind"]](wl, spec["workers"], work)
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        out["layers"] = tracer.totals()
        out["spans"] = tracer.spans
    if spec.get("checks"):
        try:
            out["checks"] = seeded_checks(wl, table, spec["checks"], out)
        except Exception as exc:  # a check that cannot run is a failed check
            out["checks"] = [{"check": "seeded checks", "ok": False,
                              "detail": f"{type(exc).__name__}: {exc}"}]
    return out


if __name__ == "__main__":
    try:
        result = main(json.loads(sys.argv[1]))
    except Exception as exc:  # reported to run.py as a failed operation
        import traceback

        traceback.print_exc()
        result = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(result))
