"""The distributed runtime: wire framing, the resumable task ledger,
loopback bit-equivalence against sequential execution, dispatch in task
order, the resilience ladder (worker loss, lease expiry, losing every
worker, no-worker degradation, coordinator crash + resume), and the
worker lines of ``/healthz``."""

import os
import pickle
import socket
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.baselines import binary_threshold_protocol
from repro.core import Multiset, decide
from repro.observability.live import TelemetryServer
from repro.observability.metrics import Metrics
from repro.observability.spans import SpanTracer, activate
from repro.runtime import distributed
from repro.runtime.distributed import (
    Coordinator,
    FrameDecoder,
    encode_frame,
    format_address,
    get_cluster,
    parse_address,
    send_frame,
    spawn_loopback_worker,
)
from repro.runtime.ledger import (
    TaskLedger,
    job_fingerprint,
    resolve_ledger,
    task_key,
)
from repro.runtime.pool import CANCELLED, RemoteTaskError, parallel_map

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Worker subprocesses import task functions by reference, so everything
#: below must stay module-level and picklable.


def square(x):
    return x * x


def boom(x):
    raise ValueError(f"boom {x}")


def marked_square(x, marker_dir):
    """Square ``x`` and leave a unique per-execution marker file, so
    tests can count how many times (and in which process) a task ran."""
    directory = Path(marker_dir)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"task{x}-{os.getpid()}-{os.urandom(4).hex()}").touch()
    return x * x


def slow_marked_square(x, marker_dir, delay):
    result = marked_square(x, marker_dir)
    time.sleep(delay)
    return result


def slow_square(x, delay):
    time.sleep(delay)
    return x * x


def exit_unless_home(x, home_pid):
    """Square ``x`` in the calling process; kill any other process that
    runs it, as a worker crash would."""
    if os.getpid() != home_pid:
        os._exit(1)
    return x * x


def stall_task_zero_once(x, marker_dir):
    """Task 0 sleeps (nearly) forever on its *first* execution; its
    re-execution — on the other worker, after the lease expires — returns
    immediately.  The flag lives on the shared filesystem, so loopback
    workers see each other's attempts.  Every other task is fast."""
    if x != 0:
        return x * x
    directory = Path(marker_dir)
    directory.mkdir(parents=True, exist_ok=True)
    flag = directory / "stall-0"
    if not flag.exists():
        flag.touch()
        time.sleep(120)
    return 0


def _spawn_workers(coordinator, count, *, wait=True, timeout=30.0):
    procs = [
        spawn_loopback_worker(
            coordinator.address, extra_pythonpath=[str(REPO_ROOT)]
        )
        for _ in range(count)
    ]
    if wait:
        deadline = time.monotonic() + timeout
        while coordinator.workers_alive() < count:
            if time.monotonic() > deadline:
                raise TimeoutError("loopback workers failed to connect")
            coordinator.poll()
            time.sleep(0.05)
    return procs


def _reap(coordinator, procs, timeout=15.0):
    coordinator.close()
    for proc in procs:
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.terminate()
            proc.wait(timeout=timeout)


def _shape(node):
    """A span tree stripped to its structure: (name, count, children)."""
    return (
        node.get("name"),
        node.get("count"),
        [_shape(child) for child in node.get("children", [])],
    )


# ----------------------------------------------------------------------
# Wire framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            message = {"type": "task", "id": 7, "args": (1, "x"), "blob": b"\x00" * 1000}
            send_frame(a, message)
            assert next(FrameDecoder().read(b)) == message
        finally:
            a.close()
            b.close()

    def test_decoder_handles_arbitrary_fragmentation(self):
        messages = [{"i": i, "payload": "x" * i} for i in range(5)]
        blob = b"".join(encode_frame(m) for m in messages)
        for chunk in (1, 3, 7, len(blob)):
            decoder = FrameDecoder()
            out = []
            for start in range(0, len(blob), chunk):
                out.extend(decoder.feed(blob[start : start + chunk]))
            assert out == messages

    def test_bad_magic_rejected(self):
        frame = encode_frame({"ok": True})
        corrupted = b"XXXX" + frame[4:]
        with pytest.raises(Exception):
            FrameDecoder().feed(corrupted)

    def test_oversized_length_rejected(self):
        header = struct.pack(">4sI", b"RPDF", 1 << 30)
        with pytest.raises(Exception):
            FrameDecoder().feed(header + b"\x00" * 16)

    def test_eof_mid_frame_returns_none(self):
        a, b = socket.socketpair()
        try:
            a.sendall(encode_frame({"k": 1})[:5])
            a.close()
            assert list(FrameDecoder().read(b)) == []
        finally:
            b.close()

    def test_parse_format_address(self):
        assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert parse_address(":0") == ("127.0.0.1", 0)
        assert format_address("10.0.0.1", 80) == "10.0.0.1:80"
        with pytest.raises(ValueError):
            parse_address("no-port")


# ----------------------------------------------------------------------
# Resumable ledger
# ----------------------------------------------------------------------
class TestLedger:
    def test_task_key_is_path_string(self):
        assert task_key(("decide", 5, 0)) == "decide/5/0"

    def test_record_and_reload(self, tmp_path):
        path = tmp_path / "job.ledger"
        ledger = TaskLedger(path, "fp1")
        ledger.record("a/0", {"v": 1})
        ledger.record("a/1", [1, 2])
        reloaded = TaskLedger(path, "fp1")
        assert "a/0" in reloaded and reloaded.get("a/1") == [1, 2]
        assert len(reloaded) == 2

    def test_rerecord_is_noop(self, tmp_path):
        path = tmp_path / "job.ledger"
        ledger = TaskLedger(path, "fp1")
        ledger.record("k", 1)
        size = path.stat().st_size
        ledger.record("k", 2)
        assert path.stat().st_size == size
        assert TaskLedger(path, "fp1").get("k") == 1

    def test_fingerprint_mismatch_ignored_and_rotated(self, tmp_path):
        path = tmp_path / "job.ledger"
        TaskLedger(path, "fp-old").record("k", "old")
        fresh = TaskLedger(path, "fp-new")
        assert len(fresh) == 0  # stale results never leak
        fresh.record("k", "new")
        assert path.with_suffix(".ledger.stale").exists()
        assert TaskLedger(path, "fp-new").get("k") == "new"

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "job.ledger"
        ledger = TaskLedger(path, "fp")
        ledger.record("k0", 0)
        ledger.record("k1", 1)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])  # crash mid-append
        survivor = TaskLedger(path, "fp")
        assert survivor.get("k0") == 0
        assert "k1" not in survivor

    def test_job_fingerprint_sees_everything(self):
        base = job_fingerprint(square, [("t", 0)], [(3,)])
        assert job_fingerprint(square, [("t", 0)], [(4,)]) != base
        assert job_fingerprint(square, [("u", 0)], [(3,)]) != base
        assert job_fingerprint(boom, [("t", 0)], [(3,)]) != base
        assert job_fingerprint(square, [("t", 0)], [(3,)]) == base

    def test_resolve_ledger_precedence(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
        assert resolve_ledger(square, [("t", 0)], [(1,)]) is None
        explicit = TaskLedger(tmp_path / "x.ledger", "fp")
        assert resolve_ledger(square, [("t", 0)], [(1,)], ledger=explicit) is explicit
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path))
        opened = resolve_ledger(square, [("t", 0)], [(1,)])
        assert opened is not None
        assert str(opened.path).startswith(str(tmp_path))

    def test_parallel_map_journals_and_resumes(self, tmp_path):
        tasks = [(i, str(tmp_path / "markers")) for i in range(4)]
        paths = [("grid", i) for i in range(4)]
        ledger_dir = tmp_path / "ledger"
        first = parallel_map(
            marked_square,
            tasks,
            jobs=1,
            paths=paths,
            ledger=resolve_ledger(
                marked_square, paths, tasks, directory=ledger_dir
            ),
        )
        markers = list((tmp_path / "markers").iterdir())
        assert first == [0, 1, 4, 9] and len(markers) == 4
        second = parallel_map(
            marked_square,
            tasks,
            jobs=1,
            paths=paths,
            ledger=resolve_ledger(
                marked_square, paths, tasks, directory=ledger_dir
            ),
        )
        assert second == first
        assert len(list((tmp_path / "markers").iterdir())) == 4  # no re-runs


# ----------------------------------------------------------------------
# Loopback equivalence (two real worker subprocesses)
# ----------------------------------------------------------------------
@pytest.fixture(scope="class")
def cluster():
    coordinator = get_cluster("127.0.0.1:0")
    procs = _spawn_workers(coordinator, 2)
    yield coordinator
    _reap(coordinator, procs)


class TestLoopbackEquivalence:
    def test_map_matches_sequential(self, cluster):
        tasks = [(i,) for i in range(12)]
        assert parallel_map(square, tasks, jobs=cluster.address) == [
            square(i) for i in range(12)
        ]

    def test_remote_exception_propagates(self, cluster):
        # Two tasks: a single one would run in-process, not on the cluster.
        with pytest.raises((ValueError, RemoteTaskError), match="boom"):
            parallel_map(boom, [(1,), (2,)], jobs=cluster.address)

    def test_span_tree_equals_jobs1(self, cluster):
        tasks = [(i,) for i in range(6)]
        labels = [f"task:{i}" for i in range(6)]

        sequential = SpanTracer()
        with activate(sequential):
            parallel_map(square, tasks, jobs=1, span_labels=labels)

        distributed = SpanTracer(metrics=Metrics())
        with activate(distributed):
            out = parallel_map(
                square, tasks, jobs=cluster.address, span_labels=labels
            )
        assert out == [i * i for i in range(6)]
        assert _shape(distributed.tree()) == _shape(sequential.tree())

    def test_decide_matches_jobs1(self, cluster):
        pp = binary_threshold_protocol(5)
        config = Multiset({"p0": 7})
        kwargs = dict(
            seed=3,
            attempts=4,
            max_interactions=200_000,
            convergence_window=20_000,
        )
        sequential = decide(pp, config, jobs=1, **kwargs)
        stats = {}
        verdict = decide(pp, config, jobs=cluster.address, stats=stats, **kwargs)
        assert verdict == sequential
        assert stats["launched"] == 4
        assert (
            stats["launched"]
            == stats["completed"] + stats["cancelled"] + stats["failed"]
        )

    def test_single_attempt_fills_stats(self, cluster):
        stats = {}
        verdict = decide(
            binary_threshold_protocol(5),
            Multiset({"p0": 7}),
            seed=3,
            attempts=1,
            jobs=cluster.address,
            stats=stats,
            max_interactions=200_000,
            convergence_window=20_000,
        )
        assert verdict is True
        assert stats["launched"] == stats["completed"] == 1

    def test_env_routes_decide_to_cluster(self, cluster, monkeypatch):
        pp = binary_threshold_protocol(5)
        config = Multiset({"p0": 7})
        kwargs = dict(
            seed=1, attempts=3, max_interactions=200_000,
            convergence_window=20_000,
        )
        sequential = decide(pp, config, jobs=1, **kwargs)
        monkeypatch.setenv("REPRO_JOBS", cluster.address)
        dispatched_before = cluster.metrics.counter("dist.dispatched").value
        assert decide(pp, config, **kwargs) == sequential
        assert cluster.metrics.counter("dist.dispatched").value > dispatched_before

    def test_dispatch_follows_task_order(self, cluster, tmp_path):
        marker_dir = tmp_path / "markers"
        tasks = [(i, str(marker_dir), 0.3) for i in range(4)]
        assert parallel_map(
            slow_marked_square, tasks, jobs=cluster.address
        ) == [i * i for i in range(4)]
        markers = sorted(marker_dir.iterdir(), key=lambda p: p.stat().st_mtime_ns)
        first_two = {int(p.name.split("-")[0][len("task"):]) for p in markers[:2]}
        assert first_two == {0, 1}

    def test_ledger_skips_journalled_tasks(self, cluster, tmp_path):
        tasks = [(i, str(tmp_path / "markers")) for i in range(6)]
        paths = [("grid", i) for i in range(6)]
        ledger_dir = tmp_path / "ledger"

        def open_ledger():
            return resolve_ledger(
                marked_square, paths, tasks, directory=ledger_dir
            )

        first = parallel_map(
            marked_square,
            tasks,
            jobs=cluster.address,
            paths=paths,
            ledger=open_ledger(),
        )
        assert first == [i * i for i in range(6)]
        executed = len(list((tmp_path / "markers").iterdir()))
        assert executed == 6
        before = cluster.metrics.counter("dist.ledger_hits").value
        second = parallel_map(
            marked_square,
            tasks,
            jobs=cluster.address,
            paths=paths,
            ledger=open_ledger(),
        )
        assert second == first
        assert len(list((tmp_path / "markers").iterdir())) == 6
        assert cluster.metrics.counter("dist.ledger_hits").value == before + 6


# ----------------------------------------------------------------------
# Resilience ladder
# ----------------------------------------------------------------------
class TestWorkerLoss:
    def test_killed_worker_requeues_to_survivor(self, tmp_path):
        coordinator = get_cluster("127.0.0.1:0")
        procs = _spawn_workers(coordinator, 2)
        try:
            # Kill one connected worker outright; its shard requeues to
            # the survivor mid-run and results are unchanged.
            procs[0].kill()
            procs[0].wait(timeout=15)
            tasks = [(i, str(tmp_path / "markers"), 0.05) for i in range(8)]
            results = parallel_map(
                slow_marked_square,
                tasks,
                jobs=coordinator.address,
                paths=[("kill", i) for i in range(8)],
            )
            assert results == [i * i for i in range(8)]
            assert coordinator.metrics.counter("dist.workers_lost").value >= 1
        finally:
            _reap(coordinator, procs)

    def test_lease_expiry_redispatches(self, tmp_path):
        coordinator = get_cluster("127.0.0.1:0")
        procs = _spawn_workers(coordinator, 2)
        try:
            tasks = [(i, str(tmp_path / "markers")) for i in range(4)]
            results = parallel_map(
                stall_task_zero_once,
                tasks,
                jobs=coordinator.address,
                paths=[("stall", i) for i in range(4)],
                timeout=2.0,
            )
            assert results == [i * i for i in range(4)]
            assert coordinator.metrics.counter("dist.lease_expired").value >= 1
        finally:
            for proc in procs:
                proc.kill()  # one holds a 120s sleep; don't wait politely
            coordinator.close()
            for proc in procs:
                proc.wait(timeout=15)


    def test_deadline_cancels_and_frees_workers(self):
        # Tasks that outlive the run's deadline come back cancelled; their
        # late results must free the workers for the next run.
        coordinator = get_cluster("127.0.0.1:0")
        procs = _spawn_workers(coordinator, 2)
        try:
            records = coordinator.run(
                slow_square,
                [(i, 4.0) for i in range(2)],
                paths=[("late", i) for i in range(2)],
                labels=["late:0", "late:1"],
                deadline=0.2,
            )
            assert [r.state for r in records] == [CANCELLED, CANCELLED]
            results = parallel_map(
                square, [(i,) for i in range(6)], jobs=coordinator.address
            )
            assert results == [i * i for i in range(6)]
            assert coordinator.metrics.counter("dist.degraded").value == 0
            # A late answer can land after that run, while the cluster idles.
            deadline = time.monotonic() + 15
            while any(w.current is not None for w in coordinator.workers):
                assert time.monotonic() < deadline, "a worker stayed busy"
                coordinator.poll()
                time.sleep(0.05)
        finally:
            _reap(coordinator, procs)


class TestDegradation:
    def test_no_workers_falls_back_in_process(self, monkeypatch):
        monkeypatch.setattr(distributed, "CONNECT_GRACE", 0.2)
        coordinator = get_cluster("127.0.0.1:0")
        try:
            metrics = Metrics()
            with activate(SpanTracer(metrics=metrics)):
                results = parallel_map(
                    square,
                    [(i,) for i in range(5)],
                    jobs=coordinator.address,
                )
            assert results == [i * i for i in range(5)]
            assert metrics.counter("dist.degraded").value == 1
        finally:
            coordinator.close()

    def test_no_workers_decide_falls_back(self, monkeypatch):
        monkeypatch.setattr(distributed, "CONNECT_GRACE", 0.2)
        coordinator = get_cluster("127.0.0.1:0")
        try:
            pp = binary_threshold_protocol(5)
            config = Multiset({"p0": 7})
            kwargs = dict(
                seed=3, attempts=4, max_interactions=200_000,
                convergence_window=20_000,
            )
            assert decide(pp, config, jobs=coordinator.address, **kwargs) == decide(
                pp, config, jobs=1, **kwargs
            )
            assert coordinator.metrics.counter("dist.degraded").value >= 1
        finally:
            coordinator.close()

    def test_closed_coordinator_still_answers(self):
        coordinator = Coordinator("127.0.0.1:0")
        coordinator.close()
        records = coordinator.run(square, [(1,)], paths=[("t", 0)], labels=["t"])
        assert [r.envelope["result"] for r in records] == [1]

    def test_losing_every_worker_finishes_here(self):
        # Each worker dies on its first task; the run finishes in-process.
        coordinator = get_cluster("127.0.0.1:0")
        procs = _spawn_workers(coordinator, 2)
        try:
            metrics = Metrics()
            tasks = [(i, os.getpid()) for i in range(4)]
            with activate(SpanTracer(metrics=metrics)):
                results = parallel_map(
                    exit_unless_home, tasks, jobs=coordinator.address
                )
            assert results == parallel_map(exit_unless_home, tasks, jobs=1)
            assert coordinator.metrics.counter("dist.workers_lost").value == 2
            assert metrics.counter("dist.degraded").value == 1
        finally:
            _reap(coordinator, procs)


class TestLiveness:
    def test_healthz_lists_handshaken_workers_only(self):
        coordinator = get_cluster("127.0.0.1:0")
        procs = _spawn_workers(coordinator, 1)
        bare = socket.create_connection((coordinator.host, coordinator.port))
        try:
            deadline = time.monotonic() + 15
            while len(coordinator.workers) < 2:  # the bare connection too
                assert time.monotonic() < deadline, "bare connect not accepted"
                coordinator.poll()
                time.sleep(0.05)
            assert coordinator.liveness()["alive"] == coordinator.workers_alive() == 1
            health = TelemetryServer(cluster=coordinator).render_health()
            ok, line = health.splitlines()
            assert ok == "ok" and line.startswith("worker 127.0.0.1:")
            assert f" pid={procs[0].pid} idle age=" in line
        finally:
            bare.close()
            _reap(coordinator, procs)


# ----------------------------------------------------------------------
# Coordinator crash + resume (the resumability acceptance test)
# ----------------------------------------------------------------------
_GRID_SCRIPT = """
import json, sys
from repro.runtime.distributed import get_cluster, spawn_loopback_worker, \\
    shutdown_clusters
from repro.runtime.pool import parallel_map

marker_dir, ledger_dir, repo_root = sys.argv[1:4]
import os
os.environ["REPRO_LEDGER_DIR"] = ledger_dir
coordinator = get_cluster("127.0.0.1:0")
proc = spawn_loopback_worker(coordinator.address, extra_pythonpath=[repo_root])
from tests.runtime.test_distributed import slow_marked_square
tasks = [(i, marker_dir, 0.4) for i in range(8)]
results = parallel_map(
    slow_marked_square,
    tasks,
    jobs=coordinator.address,
    paths=[("grid", i) for i in range(8)],
)
print("RESULTS " + json.dumps(results), flush=True)
shutdown_clusters()
proc.wait(timeout=30)
"""


class TestCoordinatorResume:
    def test_kill_midgrid_then_resume(self, tmp_path):
        """Kill the whole coordinator process partway through a journalled
        grid; a restarted run resumes from the ledger, re-executes only
        what the journal lost, and returns identical results."""
        marker_dir = tmp_path / "markers"
        ledger_dir = tmp_path / "ledger"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        )
        argv = [
            sys.executable,
            "-c",
            _GRID_SCRIPT,
            str(marker_dir),
            str(ledger_dir),
            str(REPO_ROOT),
        ]

        first = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
        )
        try:
            deadline = time.monotonic() + 120
            while True:
                done = len(list(marker_dir.iterdir())) if marker_dir.exists() else 0
                if done >= 3:
                    break
                if first.poll() is not None or time.monotonic() > deadline:
                    pytest.fail("grid finished or stalled before the kill")
                time.sleep(0.05)
        finally:
            first.kill()
            first.wait(timeout=15)

        ledgers = list(ledger_dir.glob("job-*.ledger"))
        assert len(ledgers) == 1
        journalled = TaskLedger(
            ledgers[0], ledgers[0].stem.replace("job-", "")
        )
        assert 0 < len(journalled) < 8  # genuinely mid-grid
        markers_before = {
            path.name for path in marker_dir.iterdir()
        }

        second = subprocess.run(
            argv, env=env, capture_output=True, text=True, timeout=300
        )
        assert second.returncode == 0, second.stderr
        line = [
            l for l in second.stdout.splitlines() if l.startswith("RESULTS ")
        ][-1]
        import json

        assert json.loads(line[len("RESULTS "):]) == [i * i for i in range(8)]

        # Journalled tasks were not re-executed: their original markers
        # are still the only ones, and every journalled key kept exactly
        # the result it had.
        markers_after = {path.name for path in marker_dir.iterdir()}
        assert markers_before <= markers_after
        for key, value in journalled.results.items():
            index = int(key.rsplit("/", 1)[1])
            assert value == index * index
            executions = [
                name for name in markers_after if name.startswith(f"task{index}-")
            ]
            originals = [
                name for name in markers_before if name.startswith(f"task{index}-")
            ]
            assert executions == originals  # no second execution
