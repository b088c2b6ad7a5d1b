"""Exit codes, argument handling, and end-to-end command flows."""

import contextlib
import errno
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from factorwitness import cli, search, sieve
from factorwitness.errors import (
    AnomalyFoundError,
    ConfigurationError,
    CounterexampleFoundError,
    ProofViolationError,
)
from factorwitness.report import parse_records, summary_digest

from conftest import make_doctored, src_env


def run(*argv):
    return cli.run(list(argv))


# -- argument handling --------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    assert run() == cli.EXIT_USAGE
    capsys.readouterr()


def test_unknown_command(capsys):
    assert run("frobnicate") == cli.EXIT_USAGE
    capsys.readouterr()


def test_odd_bound_rejected(capsys):
    assert run("verify", "--max", "101") == cli.EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [("goldbach", "--n", "4"), ("goldbach", "--n", "0"), ("lemma", "--n", "4", "--k", "1")],
)
def test_n_below_six_is_refused_by_the_parser(argv, monkeypatch, capsys):
    # The parser refuses it as it refuses an odd n, naming --n rather
    # than the table's internal limit, and nothing is built.
    def no_build(limit):
        raise AssertionError("the table must not be built")

    monkeypatch.setattr(cli, "build_table", no_build)
    assert run(*argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"argument --n: {argv[2]} is below 6" in err
    assert "limit" not in err and "Traceback" not in err


def test_version(capsys):
    assert run("--version") == 0
    assert "factorwitness" in capsys.readouterr().out


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    capsys.readouterr()


def test_limit_below_max_rejected(capsys):
    # Tables are sized by the request; --limit is an unknown option.
    assert run("verify", "--max", "1000", "--limit", "500") == cli.EXIT_USAGE
    assert "unrecognized arguments: --limit" in capsys.readouterr().err


def test_table_beyond_memory_is_usage_error(monkeypatch, capsys):
    # The reader is faked, so the refusal comes before any allocation.
    monkeypatch.setattr(sieve, "available_memory_bytes", lambda: 1 << 30)
    assert run("verify", "--max", "2000000000") == cli.EXIT_USAGE
    assert "MiB of memory is available" in capsys.readouterr().err


@pytest.mark.skipif(
    sieve.resource is None or not os.path.exists("/proc/self/status"),
    reason="needs the resource module and /proc/self/status",
)
def test_address_space_limit_is_read_by_the_preflight():
    # A child of this test sets its own soft and hard RLIMIT_AS (as
    # ulimit -v does) to the address space that a fresh interpreter maps
    # once it has imported the command, plus 256 MiB: too little for a
    # 10^9 table (about 540 MiB), while MemAvailable and the cgroups may
    # allow it.  The preflight must refuse it with exit 2 and its line,
    # where the build would die of a MemoryError traceback.
    env = src_env()
    probe = subprocess.run(
        [sys.executable, "-c", "import factorwitness.cli; print(open('/proc/self/status').read())"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    mapped = next(
        int(line.split()[1]) for line in probe.stdout.splitlines() if line.startswith("VmSize:")
    )
    cap = (mapped + (256 << 10)) << 10

    def limit_address_space():
        resource = sieve.resource
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "factorwitness.cli", "verify", "--max", "1000000000"],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=limit_address_space,
    )
    assert proc.returncode == cli.EXIT_USAGE, proc.stderr
    assert "a table for limit 1000000000 needs about" in proc.stderr
    assert "MiB of memory is available" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--min", "4", "--max", "30000000"),
        ("verify", "--max", "30000000", "--workers", "0"),
        ("verify", "--max", "30000000", "--checkpoint-interval", "0"),
        ("verify", "--max", "30000000", "--stop-after-blocks", "3"),
        ("edge-cases", "--max", "30000000", "--workers", "0"),
        ("stats", "--max", "30000000", "--workers", "0"),
    ],
    ids=[
        "min-below-6", "no-workers", "no-interval", "stop-without-checkpoint",
        "edge-cases-no-workers", "stats-no-workers",
    ],
)
def test_verify_refuses_bad_arguments_before_the_build(monkeypatch, capsys, argv):
    # Also the other sweeping subcommands, edge-cases and stats.
    def no_build(limit):
        raise AssertionError(f"build_table({limit}) ran before the arguments were checked")

    monkeypatch.setattr(cli, "build_table", no_build)
    assert run(*argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_resolve_workers_precedence(monkeypatch):
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    assert cli._resolve_workers(4) == 4
    monkeypatch.setenv(cli.WORKERS_ENV, "2")
    assert cli._resolve_workers(None) == 2
    assert cli._resolve_workers(5) == 5  # flag beats environment
    monkeypatch.setenv(cli.WORKERS_ENV, "banana")
    with pytest.raises(ConfigurationError):
        cli._resolve_workers(None)
    monkeypatch.setenv(cli.WORKERS_ENV, "0")
    with pytest.raises(ConfigurationError):
        cli._resolve_workers(None)
    with pytest.raises(ConfigurationError):
        cli._resolve_workers(0)  # the flag is checked as strictly


def test_default_workers_are_the_usable_cpus(monkeypatch):
    # Not os.cpu_count(): a run pinned to fewer CPUs starts fewer workers.
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    monkeypatch.setattr(cli, "usable_cpus", lambda: 3)
    assert cli._resolve_workers(None) == 3


def test_bad_workers_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv(cli.WORKERS_ENV, "many")
    assert run("verify", "--max", "100") == cli.EXIT_USAGE
    capsys.readouterr()


# -- verify -------------------------------------------------------------------


def test_verify_stdout_parses(capsys):
    code = run("verify", "--max", "1000", "--workers", "1")
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK
    s = parse_records(captured.out, "ndjson")
    assert (s.n_min, s.n_max) == (6, 1000)
    assert s.clean
    assert s.elapsed_seconds == 0.0  # stream carries no timing
    assert "verified [6, 1000]" in captured.err


def test_verify_reruns_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    assert run("verify", "--max", "2000", "--workers", "1", "--output", str(out1)) == 0
    assert run("verify", "--max", "2000", "--workers", "2", "--output", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_csv_output(tmp_path):
    out = tmp_path / "out.csv"
    assert run(
        "verify", "--max", "1000", "--workers", "1",
        "--format", "csv", "--output", str(out),
    ) == 0
    s = parse_records(out, "csv")
    assert s.n_max == 1000


def test_verify_manifest(tmp_path):
    out = tmp_path / "out.ndjson"
    man = tmp_path / "manifest.json"
    assert run(
        "verify", "--max", "1000", "--workers", "1",
        "--output", str(out), "--manifest", str(man),
    ) == 0
    from factorwitness.report import RunManifest, summary_digest

    manifest = RunManifest.from_json(man.read_text())
    assert manifest.digest == summary_digest(parse_records(out, "ndjson"))
    assert manifest.job["n_max"] == 1000


def test_verify_unwritable_output(tmp_path, capsys):
    dest = tmp_path / "missing" / "out.ndjson"
    assert run("verify", "--max", "100", "--output", str(dest)) == cli.EXIT_IO
    capsys.readouterr()


def _no_build(limit):
    raise AssertionError(f"build_table({limit}) ran before the output paths were checked")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--output", "{missing}/out.ndjson"),
        ("verify", "--output", "{dir}"),
        ("verify", "--manifest", "{missing}/manifest.json"),
        ("verify", "--checkpoint", "{missing}/ck.json"),
        ("verify", "--checkpoint", "{dir}"),
        ("edge-cases", "--output", "{missing}/out.ndjson"),
        ("stats", "--format", "csv", "--output", "{missing}/out.csv"),
    ],
    ids=[
        "verify-output", "verify-output-is-a-directory", "verify-manifest",
        "verify-checkpoint", "verify-checkpoint-is-a-directory", "edge-cases-output",
        "stats-output",
    ],
)
def test_unwritable_destination_is_refused_before_the_build(
    monkeypatch, tmp_path, capsys, argv
):
    # The check creates and truncates nothing: the existing output file
    # keeps its bytes, and the missing directory stays missing.
    monkeypatch.setattr(cli, "build_table", _no_build)
    kept = tmp_path / "kept.ndjson"
    kept.write_text("earlier run\n")
    paths = {"missing": tmp_path / "missing", "dir": tmp_path}
    argv = [arg.format(**paths) for arg in argv]
    if "--output" not in argv:
        argv += ["--output", str(kept)]
    assert run(*argv, "--max", "30000000") == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.ndjson"]
    assert kept.read_text() == "earlier run\n"


def test_existing_writable_output_is_accepted(tmp_path, capsys):
    out = tmp_path / "out.ndjson"
    out.write_text("earlier run\n")
    assert run("stats", "--max", "100", "--output", str(out)) == cli.EXIT_OK
    assert json.loads(out.read_text())["histogram"] == {"1": 36, "2": 1}
    capsys.readouterr()


class _FailsHalfway(io.StringIO):
    """A stream whose first write stores half of its text, then fails."""

    failed = False

    def write(self, text):
        if self.failed:
            return super().write(text)
        self.failed = True
        super().write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
@pytest.mark.parametrize("command", ["edge-cases", "stats"])
def test_query_write_failure_leaves_the_partial_marker(capsys, command, fmt):
    # edge-cases and stats write through the writer verify uses: the
    # marker follows whatever half line went out, on a line of its own.
    assert run(command, "--max", "10000", "--format", fmt) == cli.EXIT_OK
    whole = capsys.readouterr().out
    out = _FailsHalfway()
    with contextlib.redirect_stdout(out):
        code = run(command, "--max", "10000", "--format", fmt)
    assert code == cli.EXIT_IO
    text = out.getvalue()
    head, marker = text.rsplit("\n", 2)[:2]
    assert whole.startswith(head) and text.endswith("\n")
    if fmt == "ndjson":
        assert json.loads(marker) == {"record": "partial_output"}
    else:
        header = whole.splitlines()[0].split(",")
        assert marker.split(",") == ["partial_output"] + [""] * (len(header) - 1)
    err = capsys.readouterr().err
    assert err.startswith(f"error: failed writing {fmt} records") and "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["verify", "edge-cases", "stats"])
def test_full_device_is_an_io_failure(capsys, command):
    # The write fails when the file is flushed; no traceback, exit 4.
    assert run(command, "--max", "100", "--output", "/dev/full") == cli.EXIT_IO
    err = capsys.readouterr().err
    assert "No space left on device" in err and "Traceback" not in err


def test_verify_checkpoint_stop_and_resume(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    out = tmp_path / "out.ndjson"
    code = run(
        "verify", "--max", "20000", "--workers", "1",
        "--checkpoint", str(ck), "--checkpoint-interval", "1000",
        "--stop-after-blocks", "3", "--output", str(out),
    )
    assert code == cli.EXIT_OK  # a requested stop is not a failure
    assert ck.exists()
    assert not out.exists()
    assert "stopped on request" in capsys.readouterr().err
    code = run(
        "verify", "--max", "20000", "--workers", "1",
        "--checkpoint", str(ck), "--checkpoint-interval", "1000",
        "--output", str(out),
    )
    assert code == cli.EXIT_OK
    assert not ck.exists()
    assert parse_records(out, "ndjson").n_max == 20000
    capsys.readouterr()


def test_read_only_checkpoint_file_is_resumed(tmp_path, capsys):
    # A save renames a new file over the checkpoint, so a read-only
    # checkpoint in a writable directory passes the pre-build check and
    # is resumed and replaced.
    ck = tmp_path / "ck.json"
    argv = (
        "verify", "--max", "20000", "--workers", "1", "--checkpoint", str(ck),
        "--checkpoint-interval", "1000", "--output", str(tmp_path / "out.ndjson"),
    )
    assert run(*argv, "--stop-after-blocks", "3") == cli.EXIT_OK
    ck.chmod(0o444)
    assert run(*argv, "--stop-after-blocks", "3") == cli.EXIT_OK
    assert ck.stat().st_mode & 0o200  # a new file took its place
    ck.chmod(0o444)
    assert run(*argv) == cli.EXIT_OK
    assert not ck.exists()
    assert parse_records(tmp_path / "out.ndjson", "ndjson").n_max == 20000
    capsys.readouterr()


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda records: records.pop(0),  # an equality case
        lambda records: records[-1].pop("n_max"),
    ],
    ids=["record-dropped", "key-missing"],
)
def test_verify_corrupt_checkpoint_is_usage_error(tmp_path, capsys, corrupt):
    ck = tmp_path / "ck.json"
    argv = ["verify", "--max", "20000", "--workers", "1",
            "--checkpoint", str(ck), "--checkpoint-interval", "1000"]
    assert run(*argv, "--stop-after-blocks", "9") == cli.EXIT_OK
    state = json.loads(ck.read_text())
    assert state["records"][0]["record"] == "equality_case"
    corrupt(state["records"])
    ck.write_text(json.dumps(state))
    capsys.readouterr()
    assert run(*argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "unreadable checkpoint" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "falsify",
    [
        lambda records: records[-1].update(vacuous_count=997),
        lambda records: records[0].update(family="novel", r=None),  # (12, 1)
    ],
    ids=["vacuous-count-997", "family-relabelled"],
)
def test_verify_checkpoint_with_a_false_summary_is_usage_error(tmp_path, capsys, falsify):
    # 998 evens per block: the checkpoint after one block holds [6, 2000].
    ck = tmp_path / "ck.json"
    argv = ["verify", "--max", "20000", "--workers", "1",
            "--checkpoint", str(ck), "--checkpoint-interval", "998"]
    assert run(*argv, "--stop-after-blocks", "1") == cli.EXIT_OK
    state = json.loads(ck.read_text())
    tail = state["records"][-1]
    assert (tail["n_max"], tail["vacuous_count"]) == (2000, 998)
    assert (state["records"][0]["n"], state["records"][0]["k"]) == (12, 1)
    falsify(state["records"])
    ck.write_text(json.dumps(state))
    capsys.readouterr()
    assert run(*argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "unreadable checkpoint" in err and "Traceback" not in err


@pytest.mark.parametrize("version", [1, 2])
def test_verify_refuses_an_old_checkpoint_format(tmp_path, capsys, version):
    # A version 2 checkpoint counted blocks done and named its block size
    # and table limit; version 3 holds only the covered prefix.
    ck = tmp_path / "ck.json"
    argv = ["verify", "--max", "20000", "--workers", "1",
            "--checkpoint", str(ck), "--checkpoint-interval", "1000"]
    assert run(*argv, "--stop-after-blocks", "2") == cli.EXIT_OK
    state = json.loads(ck.read_text())
    state.update(format_version=version, blocks_done=2)
    state["job"].update(table_limit=20000, checkpoint_interval=1000)
    ck.write_text(json.dumps(state))
    capsys.readouterr()
    assert run(*argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"checkpoint version {version}, expected 3" in err and "Traceback" not in err
    assert ck.exists()


@pytest.mark.parametrize("blocks", ["0", "-1"])
def test_verify_stop_after_fewer_than_one_block_is_usage_error(tmp_path, capsys, blocks):
    ck = tmp_path / "ck.json"
    code = run(
        "verify", "--max", "20000", "--workers", "1",
        "--checkpoint", str(ck), "--stop-after-blocks", blocks,
    )
    assert code == cli.EXIT_USAGE
    assert "stop_after_blocks must be >= 1" in capsys.readouterr().err
    assert not ck.exists()


def test_verify_checkpoint_mismatch(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    run(
        "verify", "--max", "20000", "--workers", "1",
        "--checkpoint", str(ck), "--checkpoint-interval", "1000",
        "--stop-after-blocks", "1", "--output", str(tmp_path / "o"),
    )
    code = run(
        "verify", "--max", "10000", "--workers", "1",
        "--checkpoint", str(ck), "--checkpoint-interval", "1000",
    )
    assert code == cli.EXIT_USAGE
    capsys.readouterr()


# -- failure exit codes (engine failures injected; real sweeps stay clean) ----


def test_counterexample_exit_code(monkeypatch, capsys):
    def boom(*a, **k):
        raise CounterexampleFoundError([(20, 3)])

    monkeypatch.setattr(cli, "verify_range", boom)
    assert run("verify", "--max", "100") == cli.EXIT_COUNTEREXAMPLE
    capsys.readouterr()


def test_anomaly_exit_code(monkeypatch, capsys):
    def boom(*a, **k):
        raise AnomalyFoundError([(8, 3)])

    monkeypatch.setattr(cli, "verify_range", boom)
    assert run("verify", "--max", "100") == cli.EXIT_ANOMALY
    capsys.readouterr()


def test_internal_error_exit_code(monkeypatch, capsys):
    def boom(*a, **k):
        raise ProofViolationError("3 < 2")

    monkeypatch.setattr(cli, "verify_range", boom)
    assert run("verify", "--max", "100") == cli.EXIT_FAILURE
    assert "internal error" in capsys.readouterr().err


def test_killed_worker_exits_one_and_leaves_a_resumable_checkpoint(
    monkeypatch, tmp_path, capsys
):
    # In spans of 10^5 evens, [6, 10^6] makes 5.  The forked worker that
    # takes any span but the first waits until the first span is merged
    # and checkpointed, then SIGKILLs itself.
    monkeypatch.setattr(search, "DEFAULT_BLOCK_EVENS", 100_000)
    ck = tmp_path / "ck.json"
    parent = os.getpid()
    sweep_run = search._sweep_run

    def dies_after_first_span(table, lo, hi):
        if lo != 6 and os.getpid() != parent:
            deadline = time.monotonic() + 60
            while not ck.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            os.kill(os.getpid(), signal.SIGKILL)
        return sweep_run(table, lo, hi)

    monkeypatch.setattr(search, "_sweep_run", dies_after_first_span)
    code = run(
        "verify", "--max", "1000000", "--workers", "2",
        "--checkpoint", str(ck), "--checkpoint-interval", "10000",
        "--output", str(tmp_path / "out.ndjson"),
    )
    err = capsys.readouterr().err
    assert code == cli.EXIT_FAILURE
    assert "sweep worker died" in err and "Traceback" not in err
    monkeypatch.undo()

    job = search.RangeJob(
        n_min=6, n_max=10**6, table_limit=10**6, checkpoint_interval=10_000
    )
    assert search.checkpoint_resume(ck, job)[0].n_max == 200_004
    summary = search.verify_range(sieve.build_table(10**6), job, checkpoint_path=ck)
    assert summary_digest(summary) == (
        "528e467fde3190c5db61358c89de683a93261a5fca80523521e510a5dd43f387"
    )


# Runs the CLI on argv[2:] with os.fork logging each child's pid to argv[1].
_FORK_LOGGER = """
import os, sys
from factorwitness import cli

fork = os.fork


def logged_fork():
    pid = fork()
    if pid:
        with open(sys.argv[1], "a") as fh:
            fh.write(f"{pid}\\n")
    return pid


os.fork = logged_fork
sys.exit(cli.run(sys.argv[2:]))
"""


def test_interrupted_pooled_sweep_leaves_no_worker_and_a_resumable_checkpoint(tmp_path):
    # SIGINT reaches the parent of a 3-worker [6, 10^8] sweep once its
    # first span is checkpointed.  The parent, worker 0, forked the other
    # two.  It dies of the signal, with its KeyboardInterrupt traceback,
    # but kills and reaps both children on the way out, and the
    # checkpoint resumes to the pinned digest.
    env = src_env()
    ck, pids = tmp_path / "ck", tmp_path / "pids"
    argv = ["verify", "--max", "100000000", "--checkpoint", str(ck), "--output", os.devnull]
    proc = subprocess.Popen(
        [sys.executable, "-c", _FORK_LOGGER, str(pids), *argv, "--workers", "3"],
        stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        while not ck.exists() and proc.poll() is None:
            time.sleep(0.001)
        proc.send_signal(signal.SIGINT)
        err = proc.communicate(timeout=120)[1]
    finally:
        proc.kill()
    assert proc.returncode == -signal.SIGINT and "KeyboardInterrupt" in err, err
    workers = [int(pid) for pid in pids.read_text().split()]
    assert len(workers) == 2
    for pid in workers:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    assert ck.exists()
    resumed = subprocess.run(
        [sys.executable, "-m", "factorwitness.cli", *argv, "--workers", "1"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert "digest 5370fac573ec2c1f" in resumed.stderr
    assert not ck.exists()


# -- failure exit codes from real results, through doctored tables -----------


@pytest.fixture()
def sick_table(table1m):
    # n = 20 is a counterexample candidate for k = 3..6 and hits the unit
    # at k = 7 (p_7 = 19); n = 6 hits it at k = 2 (6 - 5 = 1).
    return make_doctored(
        table1m, not_prime=(17, 15, 13, 9, 7, 3), lpf_overrides={17: 3, 13: 3}
    )


def test_verify_counterexamples_exit_five_after_the_stream(
    monkeypatch, tmp_path, capsys, sick_table
):
    monkeypatch.setattr(cli, "build_table", lambda limit: sick_table)
    out = tmp_path / "out.ndjson"
    code = run("verify", "--max", "60", "--workers", "1", "--output", str(out))
    assert code == cli.EXIT_COUNTEREXAMPLE
    assert "4 counterexample candidate(s), 2 anomaly(ies)" in capsys.readouterr().err
    s = parse_records(out, "ndjson")
    assert s.counterexamples == tuple((20, k) for k in range(3, 7))
    assert s.anomalies == ((6, 2), (20, 7))


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_verify_anomaly_alone_exits_six_after_the_stream(monkeypatch, capsys, table1m, fmt):
    # Hiding 5 and 3 leaves 8 - 7 = 1 as n = 8's first informative hit.
    doctored = make_doctored(table1m, not_prime=(5, 3))
    monkeypatch.setattr(cli, "build_table", lambda limit: doctored)
    code = run("verify", "--min", "8", "--max", "8", "--workers", "1", "--format", fmt)
    assert code == cli.EXIT_ANOMALY
    captured = capsys.readouterr()
    assert "0 counterexample candidate(s), 1 anomaly(ies)" in captured.err
    s = parse_records(captured.out, fmt)
    assert (s.anomalies, s.counterexamples, s.instances_evaluated) == (((8, 3),), (), 3)


@pytest.mark.parametrize(
    "k, code, line",
    [
        (3, cli.EXIT_COUNTEREXAMPLE, "(n=20, k=3) is a counterexample candidate: "
         "largest factors [3, 5, 3] all below p_3 = 7"),
        (7, cli.EXIT_ANOMALY, "(n=20, k=7) hits the unit: n - p_7 = 1"),
    ],
    ids=["counterexample", "unit"],
)
def test_lemma_exit_codes_from_a_doctored_table(monkeypatch, capsys, sick_table, k, code, line):
    monkeypatch.setattr(cli, "build_table", lambda limit: sick_table)
    assert run("lemma", "--n", "20", "--k", str(k)) == code
    assert capsys.readouterr().out == line + "\n"


# -- other subcommands --------------------------------------------------------


def test_edge_cases_output(capsys):
    assert run("edge-cases", "--max", "10000") == 0
    captured = capsys.readouterr()
    rows = [json.loads(line) for line in captured.out.splitlines()]
    assert [(r["n"], r["k"]) for r in rows] == [
        (12, 1), (30, 1), (30, 2), (84, 1),
        (246, 1), (732, 1), (2190, 1), (6564, 1),
    ]
    assert "8 equality case(s)" in captured.err


def test_edge_cases_below_family(capsys):
    assert run("edge-cases", "--max", "11") == 0
    captured = capsys.readouterr()
    assert captured.out == ""


def test_stats_output(capsys):
    assert run("stats", "--max", "100") == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["histogram"] == {"1": 36, "2": 1}
    assert rec["max_first_witness_index"] == [2, 30, 2]
    assert rec["max_witness_ratio"] == [1, 1, 12, 1]


# First 16 hex digits of the sha256 of each stream, pinned so that the
# NDJSON and CSV projections of the record schema cannot drift.
STREAM_HASHES = {
    "verify --max 20000 --workers 1": "de2b16454546dec8",
    "verify --max 20000 --workers 1 --format csv": "19465bee4b06484e",
    "edge-cases --max 10000": "67fd84458a84b52b",
    "edge-cases --max 10000 --format csv": "f3b2e1ac191dea8d",
    "stats --max 10000": "4d4a25aa0d41c94f",
    "stats --max 10000 --format csv": "e9500bff8726244c",
}


@pytest.mark.parametrize("argv", list(STREAM_HASHES))
def test_stream_bytes_pinned(argv, capsys):
    assert run(*argv.split()) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest()[:16] == STREAM_HASHES[argv]


# The same for the scalar commands past the table's 6,541 stored odd
# primes: goldbach's count of the odd primes below n, and lemma's p_k and
# Bertrand step, read the primality bits.
SCALAR_HASHES = {
    "goldbach --n 1000000": "5a211370f947af8f",
    "goldbach --n 10000000": "3a9e81d2f8086302",
    "lemma --n 1000000 --k 7000": "f8e6f2b1af678b4c",
    "lemma --n 1000000 --k 78497": "91f73d3752015f07",
}


@pytest.mark.parametrize("argv", list(SCALAR_HASHES))
def test_scalar_bytes_pinned(argv, capsys):
    assert run(*argv.split()) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest()[:16] == SCALAR_HASHES[argv]


def test_lemma_k_one_past_the_odd_primes_below_n(capsys):
    # 78,497 odd primes lie below 10^6, the last p_78497 = 999,983.
    assert run("lemma", "--n", "1000000", "--k", "78498") == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "only 78497 odd prime(s) lie below 1000000" in err
    assert "Traceback" not in err


def test_lemma_reads_the_bits_once(monkeypatch, capsys):
    # lemma finds p_k past the small list from the bits once, and counts
    # the odd primes below n only on a refusal; its scan hits at p_6 and
    # lists no chunk of the bits.
    reads = []
    chunks = sieve.PrimeTable._chunks

    def counted(table, stop):
        reads.append(stop)
        return chunks(table, stop)

    monkeypatch.setattr(sieve.PrimeTable, "_chunks", counted)
    assert run("lemma", "--n", "1000000", "--k", "78497") == cli.EXIT_OK
    assert capsys.readouterr().out == (
        "(n=1000000, k=78497) is vacuous: n - p_6 = 999983 is prime; nothing to construct\n"
    )
    assert reads == [500_000]
    assert run("lemma", "--n", "1000000", "--k", "78498") == cli.EXIT_USAGE
    assert reads == [500_000, 500_000, 500_000]


def test_goldbach_output(capsys):
    assert run("goldbach", "--n", "98") == 0
    out = capsys.readouterr().out
    assert "98 = 19 + 79" in out


def test_lemma_witness_output(capsys):
    assert run("lemma", "--n", "30", "--k", "2") == 0
    out = capsys.readouterr().out
    assert "Bertrand" in out
    assert "5 < 7 < 30" in out


def test_lemma_vacuous_output(capsys):
    assert run("lemma", "--n", "100", "--k", "2") == 0
    assert "vacuous" in capsys.readouterr().out


def _assert_lemma_refused(k, capsys):
    # Only 9 odd primes lie below 30: no instance (30, k) for k > 9.
    assert run("lemma", "--n", "30", "--k", str(k)) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: instance needs p_k < n" in err
    assert "Traceback" not in err


def test_lemma_invalid_k(capsys):
    _assert_lemma_refused(20, capsys)  # p_20 = 73 >= 30


def test_lemma_k_beyond_table(capsys):
    # Beyond every odd prime the table holds: still a usage error.
    _assert_lemma_refused(1_000_000, capsys)


def test_edge_cases_below_six(capsys):
    assert run("edge-cases", "--max", "5") == cli.EXIT_OK
    assert "0 equality case(s)" in capsys.readouterr().err


def test_selftest(capsys):
    assert run("selftest", "--limit", "20000", "--sample", "2000") == 0
    err = capsys.readouterr().err
    assert err.count(": ok") == 4
    assert "FAIL" not in err
