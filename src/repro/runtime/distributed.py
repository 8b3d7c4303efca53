"""The TCP executor: a coordinator/worker runtime across hosts.

:mod:`repro.runtime.pool` defines the executor ``run`` that every
fan-out calls; this module implements it across machines.  A
*coordinator* (the calling process) deals independent tasks — Monte
Carlo ``decide`` attempts, experiment-grid cells — from one queue, in
task order, to any number of *workers* connected over TCP, and the
results are **bit-identical to sequential execution** because nothing
about a task depends on where or when it ran:

* tasks are addressed by their deterministic
  :class:`~repro.runtime.seeds.SeedTree` paths, never by scheduling
  order — any worker can run any task, twice if need be, and produce the
  same bytes;
* the caller reads the records in task order and adopts worker span
  payloads in task order, so distributed span trees structurally equal
  ``jobs=1`` trees (the same merge discipline as the process pool);
* completed ``(task_path, result)`` pairs are journalled to a resumable
  on-disk :class:`~repro.runtime.ledger.TaskLedger` keyed by provenance
  fingerprint, so a restarted coordinator re-executes only what is
  genuinely unfinished;
* workers warm compiled artifacts from the shared ``REPRO_CACHE_DIR``
  disk cache (cold Theorem-1 compile: seconds; warm disk hit:
  sub-millisecond), so fan-out never multiplies compilation.

Wire protocol (stdlib only — ``socket`` + ``selectors``): length-prefixed
pickle frames, magic + 4-byte big-endian length + payload.  Messages are
plain dicts with a ``"type"`` key; a result frame carries the task's
envelope (:func:`repro.runtime.pool.run_task`)::

    worker → coordinator   {"type": "hello", "pid", "host", "version"}
    coordinator → worker   {"type": "task", "id", "label", "trace", "fn", "args"}
    worker → coordinator   {"type": "result", "id", "result", "spans"}
                           {"type": "result", "id", "error", "error_text"}
    worker → coordinator   {"type": "heartbeat", "task"}     (only while busy)
    coordinator → worker   {"type": "bye"}

Functions cross the wire *by reference* (module-qualified name), so
workers must import the same code; arguments and results cross by value.

Resilience ladder (the same contract as the hardened pool — same
verdict, degraded speed):

1. a worker that disconnects or stops heartbeating mid-task loses its
   lease, and the task goes back to the front of the queue;
2. a task leased longer than its ``lease_timeout`` (default
   :data:`LEASE_TIMEOUT`) plus :data:`~repro.runtime.pool.OVERRUN_GRACE`
   goes back to the front of the queue too, while its holder keeps it
   (first result wins; duplicates are dropped — results are
   deterministic, so either copy is the right answer);
3. whenever no handshaken worker remains — none within
   :data:`CONNECT_GRACE`, every one lost, the coordinator closed, or
   ``run`` re-entered from a task running here — the unfinished tasks go
   to :func:`~repro.runtime.pool.run_here`, the call the process pool
   degrades to, so the answer is always the ``jobs=1`` answer.

``dist.*`` counters (dispatches, requeues, lease expiries, lost
workers, ledger hits, degradations) land on the cluster's own metrics
registry and on any ambient tracer registry, and worker liveness is
exposed on ``python -m repro serve``'s ``/healthz``.
"""

from __future__ import annotations

import os
import pickle
import selectors
import socket
import struct
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.observability import spans as _spans
from repro.observability.metrics import Metrics
from repro.runtime.ledger import TaskLedger
from repro.runtime.pool import (
    CANCELLED,
    DONE,
    LEASED,
    OVERRUN_GRACE,
    PENDING,
    TaskRecord,
    make_records,
    open_records,
    run_here,
    run_task,
    settle,
)

PROTOCOL_VERSION = 1

#: Frame layout: magic + 4-byte big-endian payload length + pickle payload.
_MAGIC = b"RPDF"
_HEADER = struct.Struct(">4sI")
#: Refuse absurd frames before allocating for them (a corrupted length
#: prefix must not look like a 4 GiB read).
MAX_FRAME = 256 * 1024 * 1024

#: A task's lease when ``run`` is given no ``lease_timeout``.
LEASE_TIMEOUT = 300.0
#: A busy worker heartbeats every :data:`HEARTBEAT_INTERVAL` seconds and
#: is presumed dead after :data:`HEARTBEAT_TIMEOUT` seconds of silence.
HEARTBEAT_INTERVAL = 2.0
HEARTBEAT_TIMEOUT = 15.0
#: How long ``run`` waits for a first worker before running the tasks here.
CONNECT_GRACE = 5.0
#: How long a worker keeps retrying its first connect to the coordinator.
CONNECT_RETRY = 10.0


class ProtocolError(RuntimeError):
    """The peer sent bytes that are not a valid frame."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(message: Dict[str, Any]) -> bytes:
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(_MAGIC, len(payload)) + payload


def send_frame(sock: socket.socket, message: Dict[str, Any]) -> None:
    sock.sendall(encode_frame(message))


class FrameDecoder:
    """Incremental frame decoder: the coordinator feeds it non-blocking
    reads, a worker reads its blocking socket through it."""

    def __init__(self) -> None:
        self._buffer = b""

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        self._buffer += data
        messages: List[Dict[str, Any]] = []
        while len(self._buffer) >= _HEADER.size:
            magic, length = _HEADER.unpack(self._buffer[: _HEADER.size])
            if magic != _MAGIC or length > MAX_FRAME:
                raise ProtocolError("bad frame header")
            end = _HEADER.size + length
            if len(self._buffer) < end:
                break
            messages.append(pickle.loads(self._buffer[_HEADER.size : end]))
            self._buffer = self._buffer[end:]
        return messages

    def read(self, sock: socket.socket) -> Iterator[Dict[str, Any]]:
        """The frames arriving on the blocking socket ``sock``, until EOF
        (a frame cut short by EOF is dropped)."""
        while True:
            data = sock.recv(1 << 20)
            if not data:
                return
            yield from self.feed(data)


def parse_address(addr: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (bare ``":port"`` binds
    loopback; a dispatch target must name both parts)."""
    host, sep, port = str(addr).rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"expected 'host:port', got {addr!r}")
    return (host or "127.0.0.1", int(port))


def format_address(host: str, port: int) -> str:
    return f"{host}:{port}"


class WorkerHandle:
    """Coordinator-side state of one connected worker."""

    __slots__ = ("sock", "peer", "decoder", "info", "ready", "last_seen", "current")

    def __init__(self, sock: socket.socket, peer: Tuple[str, int]):
        self.sock = sock
        self.peer = peer
        self.decoder = FrameDecoder()
        self.info: Dict[str, Any] = {}
        self.ready = False  # hello received
        self.last_seen = time.monotonic()
        self.current: Optional[TaskRecord] = None


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
class Coordinator:
    """Deal tasks to TCP workers from one queue, in task order, under
    leases.

    The coordinator owns a listening socket from construction; workers
    may connect at any time (including mid-run — they take the next
    queued task).  All socket handling is single-threaded inside
    :meth:`run`; between runs, connected workers are idle and silent
    (heartbeats flow only while a worker is busy), so no background
    thread is needed.
    """

    def __init__(self, bind: str = "127.0.0.1:0"):
        host, port = parse_address(bind)
        self.metrics = Metrics()
        self.workers: List[WorkerHandle] = []
        self._selector = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self._listener.setblocking(False)
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        self.host, self.port = self._listener.getsockname()[:2]
        self._io_lock = threading.Lock()  # run() vs idle poll() on the selector
        self._task_seq = 0  # globally unique ids: stale results never collide
        self._queue: deque = deque()  # the run's pending records, in task order
        self._running = False
        self._closed = False

    # -- public surface --------------------------------------------------
    @property
    def address(self) -> str:
        return format_address(self.host, self.port)

    def workers_alive(self) -> int:
        return sum(1 for w in self.workers if w.ready)

    def poll(self) -> None:
        """Accept pending connections and handshakes while idle.

        ``run()`` does this itself; between runs nobody drives the
        selector, so liveness probes and tests waiting for workers call
        this.  A no-op while a run is in flight (the selector is not
        thread-safe under concurrent ``select``) or after ``close()``.
        """
        if self._closed or not self._io_lock.acquire(blocking=False):
            return
        try:
            self._pump(0)
        finally:
            self._io_lock.release()

    def liveness(self) -> Dict[str, Any]:
        """A point-in-time snapshot of the handshaken workers (for
        ``/healthz``)."""
        self.poll()
        now = time.monotonic()
        workers = [
            {
                "peer": format_address(*w.peer),
                "pid": w.info.get("pid"),
                "busy": w.current is not None,
                "last_seen_age": round(now - w.last_seen, 3),
            }
            for w in list(self.workers)
            if w.ready
        ]
        return {"address": self.address, "alive": len(workers), "workers": workers}

    def close(self) -> None:
        """Dismiss the workers and release the listener."""
        if self._closed:
            return
        self._closed = True
        for worker in list(self.workers):
            try:
                send_frame(worker.sock, {"type": "bye"})
            except OSError:
                pass
            self._drop_worker(worker)
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        self._listener.close()
        self._selector.close()

    # -- metrics ---------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        """Count ``name`` here and on the ambient tracer's registry."""
        self.metrics.counter(name).inc(amount)
        tracer = _spans.current()
        if tracer is not None and tracer.metrics is not None:
            tracer.metrics.counter(name).inc(amount)

    # -- connection handling ---------------------------------------------
    def _accept(self) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            worker = WorkerHandle(sock, peer)
            self.workers.append(worker)
            self._selector.register(sock, selectors.EVENT_READ, worker)

    def _drop_worker(self, worker: WorkerHandle) -> None:
        if worker not in self.workers:
            return
        self.workers.remove(worker)
        try:
            self._selector.unregister(worker.sock)
        except (KeyError, ValueError):
            pass
        try:
            worker.sock.close()
        except OSError:
            pass
        if worker.ready and not self._closed:
            self._count("dist.workers_lost")
        record, worker.current = worker.current, None
        if record is not None and record.state == LEASED:
            # The worker died holding a lease: the task is pure, so it
            # goes back to the front of the queue for someone else.
            record.state = PENDING
            record.lease_start = None
            self._queue.appendleft(record)
            self._count("dist.requeued")

    def _read(self, worker: WorkerHandle) -> List[Dict[str, Any]]:
        try:
            data = worker.sock.recv(1 << 20)
        except (BlockingIOError, InterruptedError):
            return []
        except OSError:
            self._drop_worker(worker)
            return []
        if not data:
            self._drop_worker(worker)
            return []
        worker.last_seen = time.monotonic()
        try:
            return worker.decoder.feed(data)
        except (ProtocolError, pickle.UnpicklingError, EOFError):
            self._drop_worker(worker)
            return []

    # -- dispatch --------------------------------------------------------
    def _dispatch(self, worker: WorkerHandle, fn: Callable, trace: bool) -> None:
        """Lease the first pending record in the queue to an idle worker."""
        if worker.current is not None or not worker.ready:
            return
        while self._queue and self._queue[0].state != PENDING:
            self._queue.popleft()  # settled or cancelled since it was queued
        if not self._queue:
            return
        record = self._queue.popleft()
        message = {
            "type": "task",
            "id": record.id,
            "label": record.label,
            "trace": trace,
            "fn": fn,
            "args": record.args,
        }
        try:
            worker.sock.setblocking(True)
            try:
                send_frame(worker.sock, message)
            finally:
                worker.sock.setblocking(False)
        except OSError:
            # The send found the corpse before the select loop did.
            self._queue.appendleft(record)
            self._drop_worker(worker)
            return
        record.state = LEASED
        record.lease_start = time.monotonic()
        worker.current = record
        self._count("dist.dispatched")

    def _handle_frames(
        self, worker: WorkerHandle, messages: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Process control frames; return result frames for the caller."""
        results = []
        for message in messages:
            kind = message.get("type")
            if kind == "hello":
                worker.info = message
                if not worker.ready:
                    worker.ready = True
                    self._count("dist.workers_connected")
            elif kind == "heartbeat":
                pass  # last_seen already refreshed by the read itself
            elif kind == "result":
                # The answer frees its worker, even when it is a late one
                # for a run that has already ended.
                held = worker.current
                if held is not None and held.id == message.get("id"):
                    worker.current = None
                results.append(message)
            # unknown kinds are ignored: forward compatibility
        return results

    def _pump(self, timeout: float) -> List[Dict[str, Any]]:
        """One select round: accept connections, read every readable
        worker, and return the result frames that arrived."""
        results: List[Dict[str, Any]] = []
        for key, _ in self._selector.select(timeout=timeout):
            if key.data is None:
                self._accept()
            else:
                results.extend(self._handle_frames(key.data, self._read(key.data)))
        return results

    # -- the run loop -----------------------------------------------------
    def run(
        self,
        fn: Callable[..., Any],
        tasks: Sequence[Tuple],
        *,
        paths: Sequence[Sequence[Any]],
        labels: Sequence[str],
        trace: bool = False,
        ledger: Optional[TaskLedger] = None,
        early_stop: Optional[Callable[[List[TaskRecord]], bool]] = None,
        deadline: Optional[float] = None,
        lease_timeout: Optional[float] = None,
    ) -> List[TaskRecord]:
        """Execute ``fn(*task)`` for every task on the workers — the
        executor ``run`` of :mod:`repro.runtime.pool`.

        An idle worker takes the first pending task in task order.
        ``early_stop(records)`` — checked after every completion —
        cancels all not-yet-leased tasks when it returns true (leased ones
        are drained; their results still count).  A task leased longer
        than ``lease_timeout`` (default :data:`LEASE_TIMEOUT`) plus the
        grace is dispatched again; tasks unfinished at ``deadline`` plus
        the grace are cancelled.  Whatever is unfinished when no
        handshaken worker remains runs here, through
        :func:`~repro.runtime.pool.run_here`.
        """
        records = make_records(tasks, paths, labels, self._task_seq)
        self._task_seq += len(records)
        todo = open_records(records, ledger)
        if len(todo) < len(records):
            self._count("dist.ledger_hits", len(records) - len(todo))
        if not todo:
            return records
        deadline_at = time.monotonic() + deadline if deadline is not None else None

        def finish_here() -> None:
            rest = [r for r in todo if r.state in (PENDING, LEASED)]
            if rest:
                self._count("dist.degraded")
                run_here(
                    fn,
                    rest,
                    records,
                    trace=trace,
                    ledger=ledger,
                    early_stop=early_stop,
                    deadline_at=deadline_at,
                )

        if self._running:  # re-entered from a task running here, or another thread
            finish_here()
            return records
        with self._io_lock:
            self._running = True
            try:
                self._serve(fn, todo, records, trace, ledger, early_stop, deadline_at, lease_timeout)
                finish_here()
            finally:
                self._running = False
                self._queue.clear()
        return records

    def _serve(
        self,
        fn: Callable[..., Any],
        todo: List[TaskRecord],
        records: List[TaskRecord],
        trace: bool,
        ledger: Optional[TaskLedger],
        early_stop: Optional[Callable[[List[TaskRecord]], bool]],
        deadline_at: Optional[float],
        lease_timeout: Optional[float],
    ) -> None:
        """Deal ``todo`` to the workers until every record is settled or
        cancelled, or no handshaken worker is left."""
        give_up_at = deadline_at + OVERRUN_GRACE if deadline_at is not None else None
        lease = OVERRUN_GRACE + (lease_timeout if lease_timeout is not None else LEASE_TIMEOUT)
        self._queue = deque(todo)
        open_ids = {record.id: record for record in todo}

        def cancel(*states: str) -> None:
            for r in todo:
                if r.state in states:
                    r.state = CANCELLED
                    self._count("dist.cancelled")

        grace_end = time.monotonic() + CONNECT_GRACE
        while not (self._closed or self.workers_alive()) and time.monotonic() < grace_end:
            self._pump(grace_end - time.monotonic())
        stopped = False
        while self.workers_alive() and any(r.state in (PENDING, LEASED) for r in todo):
            if give_up_at is not None and time.monotonic() >= give_up_at:
                cancel(PENDING, LEASED)
                return
            for worker in list(self.workers):
                self._dispatch(worker, fn, trace)
            for message in self._pump(0.1):
                record = open_ids.get(message.get("id"))
                if record is None or record.state == DONE:
                    self._count("dist.duplicates")  # re-dispatch race
                    continue
                settle(record, message, "worker", ledger)
                self._count("dist.completed")
                if early_stop is not None and not stopped and early_stop(records):
                    stopped = True
                    cancel(PENDING)
            # Heartbeat staleness: a busy worker that has gone silent is
            # presumed dead; its lease goes back to the queue.
            now = time.monotonic()
            for worker in list(self.workers):
                if worker.current is not None and now - worker.last_seen > HEARTBEAT_TIMEOUT:
                    self._count("dist.heartbeat_expired")
                    self._drop_worker(worker)
            # Lease expiry: the worker is alive but the task has held its
            # lease too long — offer it again; first result wins and the
            # straggler's copy is dropped as a duplicate.
            for record in todo:
                if (
                    record.state == LEASED
                    and now - record.lease_start > lease
                    and record.redispatched < 2
                ):
                    record.redispatched += 1
                    record.lease_start = now
                    record.state = PENDING  # the holder may still answer
                    self._queue.appendleft(record)
                    self._count("dist.lease_expired")


# ----------------------------------------------------------------------
# Cluster registry (one coordinator per bound address, per process)
# ----------------------------------------------------------------------
_CLUSTERS: Dict[str, Coordinator] = {}
_CLUSTERS_LOCK = threading.Lock()


def get_cluster(addr: str) -> Coordinator:
    """The process-wide coordinator listening on ``addr`` (bound lazily on
    first use and reused by every subsequent dispatch to the same
    address, so workers stay connected across calls)."""
    key = format_address(*parse_address(addr))
    with _CLUSTERS_LOCK:
        coordinator = _CLUSTERS.get(key)
        if coordinator is None or coordinator._closed:
            coordinator = Coordinator(key)
            _CLUSTERS[key] = coordinator
            # An ephemeral bind (":0") is registered under its actual port
            # too, so `coordinator.address` round-trips through get_cluster.
            _CLUSTERS.setdefault(coordinator.address, coordinator)
        return coordinator


def active_cluster() -> Optional[Coordinator]:
    """The most recently created live coordinator (for ``/healthz``)."""
    with _CLUSTERS_LOCK:
        for coordinator in reversed(list(_CLUSTERS.values())):
            if not coordinator._closed:
                return coordinator
    return None


def shutdown_clusters() -> None:
    with _CLUSTERS_LOCK:
        for coordinator in _CLUSTERS.values():
            coordinator.close()
        _CLUSTERS.clear()


class Cluster:
    """The TCP executor behind a ``"host:port"`` target: the process-wide
    coordinator at ``addr`` runs the tasks."""

    def __init__(self, addr: str):
        self.addr = addr
        self.metrics = Metrics()

    def run(
        self, fn: Callable[..., Any], tasks: Sequence[Tuple], **kwargs: Any
    ) -> List[TaskRecord]:
        return get_cluster(self.addr).run(fn, tasks, **kwargs)


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
def run_worker(addr: str) -> int:
    """Connect to the coordinator at ``addr`` and execute tasks until it
    says goodbye or the connection ends.  Returns the number of tasks
    executed.

    The worker is a leaf of the fan-out tree: it pins ``REPRO_JOBS=1`` so
    task functions that consult the environment never nest pools, and it
    resolves compiled artifacts through the ordinary
    :mod:`~repro.runtime.cache` path — with a shared ``REPRO_CACHE_DIR``
    that is a sub-millisecond disk hit instead of a cold compile.
    Heartbeats flow only while a task is executing (from a side thread),
    which is exactly when the coordinator is listening.
    """
    os.environ["REPRO_JOBS"] = "1"
    host, port = parse_address(addr)
    sock = _connect_with_retry(host, port)
    send_lock = threading.Lock()
    current_id: List[Optional[int]] = [None]
    stop = threading.Event()

    def _heartbeats() -> None:
        while not stop.wait(HEARTBEAT_INTERVAL):
            task_id = current_id[0]
            if task_id is None:
                continue
            try:
                with send_lock:
                    send_frame(sock, {"type": "heartbeat", "task": task_id})
            except OSError:
                return

    with send_lock:
        send_frame(
            sock,
            {
                "type": "hello",
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "version": PROTOCOL_VERSION,
                "cache_dir": os.environ.get("REPRO_CACHE_DIR"),
            },
        )
    beat = threading.Thread(target=_heartbeats, daemon=True)
    beat.start()
    executed = 0
    try:
        for message in FrameDecoder().read(sock):
            kind = message.get("type")
            if kind == "bye":
                break
            if kind != "task":
                continue
            current_id[0] = message["id"]
            response = {
                "type": "result",
                "id": message["id"],
                **run_task(
                    message["fn"],
                    message["args"],
                    str(message.get("label", "task")),
                    bool(message.get("trace")),
                ),
            }
            current_id[0] = None
            with send_lock:
                send_frame(sock, response)
            executed += 1
    except (ProtocolError, pickle.UnpicklingError, EOFError, OSError):
        pass  # the coordinator is gone, or sent bytes that are not frames
    finally:
        stop.set()
        try:
            sock.close()
        except OSError:
            pass
    return executed


def _connect_with_retry(host: str, port: int) -> socket.socket:
    deadline = time.monotonic() + CONNECT_RETRY
    delay = 0.05
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(delay)
            delay = min(delay * 2, 1.0)


def spawn_loopback_worker(
    addr: str, *, extra_pythonpath: Sequence[str] = ()
) -> subprocess.Popen:
    """Start a ``python -m repro worker`` subprocess connected to
    ``addr`` — the loopback convenience used by ``repro coordinate
    --workers N``, the distributed benchmarks and the test suite.

    ``extra_pythonpath`` entries are prepended to the worker's
    ``PYTHONPATH`` (after ``src``), so tasks defined in test/benchmark
    modules unpickle by reference inside the worker.
    """
    worker_env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    parts = [src, *map(str, extra_pythonpath)]
    if worker_env.get("PYTHONPATH"):
        parts.append(worker_env["PYTHONPATH"])
    worker_env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--connect", addr],
        env=worker_env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
