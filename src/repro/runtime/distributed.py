"""The TCP executor: a coordinator/worker runtime across hosts.

:mod:`repro.runtime.pool` defines the executor ``run`` that every
fan-out calls; this module implements it across machines.  A
*coordinator* (the driver process) shards independent tasks — Monte
Carlo ``decide`` attempts, experiment-grid cells — over any number of
*workers* connected over TCP, with work stealing, and the results are
**bit-identical to sequential execution** because nothing about a task
depends on where or when it ran:

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

1. a worker that disconnects or stops heartbeating mid-task has its
   leased tasks requeued and re-dispatched to surviving workers;
2. a task leased longer than ``lease_timeout`` plus
   :data:`~repro.runtime.pool.OVERRUN_GRACE` is re-dispatched to another
   worker (first result wins; duplicates are dropped — results are
   deterministic, so either copy is the right answer);
3. when *no* workers remain (or none connect within ``connect_grace``),
   the remaining tasks run in-process — so the answer is always the
   ``jobs=1`` answer.

``dist.*`` counters (dispatches, steals, requeues, lease expiries, lost
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
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.observability import spans as _spans
from repro.observability.metrics import Metrics
from repro.runtime.ledger import TaskLedger
from repro.runtime.pool import (
    CANCELLED,
    DONE,
    LEASED,
    OVERRUN_GRACE,
    PENDING,
    InProcess,
    TaskRecord,
    make_records,
    open_records,
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


class ProtocolError(RuntimeError):
    """The peer sent bytes that are not a valid frame."""


class NoWorkersError(RuntimeError):
    """No workers connected within the grace period — callers degrade to
    the in-process pool."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(message: Dict[str, Any]) -> bytes:
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(_MAGIC, len(payload)) + payload


def send_frame(sock: socket.socket, message: Dict[str, Any]) -> None:
    sock.sendall(encode_frame(message))


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read exactly one frame from a blocking socket (``None`` on EOF)."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    magic, length = _HEADER.unpack(header)
    if magic != _MAGIC or length > MAX_FRAME:
        raise ProtocolError(f"bad frame header {header!r}")
    payload = _recv_exact(sock, length)
    if payload is None:
        return None
    return pickle.loads(payload)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class FrameDecoder:
    """Incremental decoder for the coordinator's non-blocking reads."""

    def __init__(self) -> None:
        self._buffer = b""

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        self._buffer += data
        messages: List[Dict[str, Any]] = []
        while len(self._buffer) >= _HEADER.size:
            magic, length = _HEADER.unpack(self._buffer[: _HEADER.size])
            if magic != _MAGIC or length > MAX_FRAME:
                raise ProtocolError("bad frame header from worker")
            end = _HEADER.size + length
            if len(self._buffer) < end:
                break
            messages.append(pickle.loads(self._buffer[_HEADER.size : end]))
            self._buffer = self._buffer[end:]
        return messages


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

    __slots__ = ("sock", "peer", "decoder", "info", "ready", "last_seen", "current", "queue")

    def __init__(self, sock: socket.socket, peer: Tuple[str, int]):
        self.sock = sock
        self.peer = peer
        self.decoder = FrameDecoder()
        self.info: Dict[str, Any] = {}
        self.ready = False  # hello received
        self.last_seen = time.monotonic()
        self.current: Optional[TaskRecord] = None
        self.queue: deque = deque()  # this worker's shard (steal target)


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
class Coordinator:
    """Shard tasks over TCP workers with work stealing and leases.

    The coordinator owns a listening socket from construction; workers
    may connect at any time (including mid-run — they join the pool and
    steal work).  All socket handling is single-threaded inside
    :meth:`run`; between runs, connected workers are idle and silent
    (heartbeats flow only while a worker is busy), so no background
    thread is needed.
    """

    def __init__(
        self,
        bind: str = "127.0.0.1:0",
        *,
        lease_timeout: float = 300.0,
        heartbeat_timeout: float = 15.0,
        connect_grace: float = 5.0,
    ):
        host, port = parse_address(bind)
        self.lease_timeout = lease_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.connect_grace = connect_grace
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
        self._requeued: deque = deque()
        self._sinks: List[Metrics] = []
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
            if self._running:
                return
            for key, _ in self._selector.select(timeout=0):
                if key.data is None:
                    self._accept()
                else:
                    self._handle_frames(key.data, self._read(key.data))
        finally:
            self._io_lock.release()

    def liveness(self) -> Dict[str, Any]:
        """A point-in-time worker liveness snapshot (for ``/healthz``)."""
        self.poll()
        now = time.monotonic()
        workers = []
        for w in list(self.workers):
            try:
                workers.append(
                    {
                        "peer": format_address(*w.peer),
                        "pid": w.info.get("pid"),
                        "busy": w.current is not None,
                        "last_seen_age": round(now - w.last_seen, 3),
                    }
                )
            except Exception:
                continue
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
            self._drop_worker(worker, requeue=False)
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        self._listener.close()
        self._selector.close()

    # -- metrics ---------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        self.metrics.counter(name).inc(amount)
        for sink in self._sinks:
            sink.counter(name).inc(amount)

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

    def _drop_worker(self, worker: WorkerHandle, *, requeue: bool = True) -> None:
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
        record = worker.current
        worker.current = None
        if record is not None and record.state == LEASED and requeue:
            # The worker died holding a lease: the task is pure, so it
            # simply goes back in the queue for someone else.
            record.state = PENDING
            record.lease_start = None
            self._requeued.append(record)
            self._count("dist.requeued")
        # Unstarted shard entries drain back through stealing: move them
        # to the global requeue so no task is stranded with a dead owner.
        while worker.queue:
            entry = worker.queue.popleft()
            if entry.state == PENDING:
                self._requeued.append(entry)

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

    # -- dispatch / stealing ---------------------------------------------
    def _next_record(self, worker: WorkerHandle) -> Optional[TaskRecord]:
        while self._requeued:
            record = self._requeued.popleft()
            if record.state == PENDING:
                return record
        while worker.queue:
            record = worker.queue.popleft()
            if record.state == PENDING:
                return record
        # Work stealing: raid the tail of the most-loaded sibling's shard
        # (the tail, so the owner keeps its own head-of-queue locality).
        victim = max(
            (w for w in self.workers if w is not worker and w.queue),
            key=lambda w: len(w.queue),
            default=None,
        )
        while victim is not None and victim.queue:
            record = victim.queue.pop()
            if record.state == PENDING:
                self._count("dist.steals")
                return record
        return None

    def _dispatch(self, worker: WorkerHandle, fn: Callable, trace: bool) -> bool:
        if worker.current is not None or not worker.ready:
            return False
        record = self._next_record(worker)
        if record is None:
            return False
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
            record.state = PENDING
            self._requeued.appendleft(record)
            self._drop_worker(worker)
            return False
        record.state = LEASED
        record.lease_start = time.monotonic()
        worker.current = record
        self._count("dist.dispatched")
        return True

    def _wait_for_workers(self, grace: float) -> None:
        deadline = time.monotonic() + max(0.0, grace)
        while True:
            if any(w.ready for w in self.workers):
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise NoWorkersError(
                    f"no workers connected to {self.address} within {grace:g}s"
                )
            for key, _ in self._selector.select(timeout=min(remaining, 0.1)):
                if key.data is None:
                    self._accept()
                else:
                    self._handle_frames(key.data, self._read(key.data))

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

    # -- local (degraded) execution --------------------------------------
    def _run_local(
        self, fn: Callable, record: TaskRecord, trace: bool, ledger: Optional[TaskLedger]
    ) -> None:
        self._count("dist.local_tasks")
        settle(record, run_task(fn, record.args, record.label, trace), "local", ledger)

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
        """Execute ``fn(*task)`` for every task, sharded across workers —
        the executor ``run`` of :mod:`repro.runtime.pool`.

        ``early_stop(records)`` — checked after every completion —
        cancels all not-yet-leased tasks when it returns true (leased ones
        are drained; their results still count).  A task leased longer
        than ``lease_timeout`` plus the grace is re-dispatched; tasks
        unfinished at ``deadline`` plus the grace are cancelled.  Raises
        :class:`NoWorkersError` before doing any work if no worker is
        available, so the caller can fall back to running in-process.
        """
        if self._closed:
            raise NoWorkersError(f"coordinator {self.address} is closed")
        if self._running:
            raise NoWorkersError("re-entrant distributed run")  # caller falls back
        lease = OVERRUN_GRACE + (
            lease_timeout if lease_timeout is not None else self.lease_timeout
        )
        give_up_at = (
            time.monotonic() + deadline + OVERRUN_GRACE if deadline is not None else None
        )
        records = make_records(tasks, paths, labels, self._task_seq)
        self._task_seq += len(records)
        todo = open_records(records, ledger)
        if len(todo) < len(records):
            self._count("dist.ledger_hits", len(records) - len(todo))
        if not todo:
            return records
        open_ids = {record.id: record for record in todo}

        def cancel(*states: str) -> None:
            for r in todo:
                if r.state in states:
                    r.state = CANCELLED
                    self._count("dist.cancelled")
            self._requeued.clear()

        # Ambient metrics sinks for dist.* counters (tracer registry).
        tracer = _spans.current()
        self._sinks = (
            [tracer.metrics]
            if tracer is not None and tracer.metrics is not None
            else []
        )
        self._io_lock.acquire()
        self._running = True
        try:
            self._wait_for_workers(self.connect_grace)
            # Contiguous sharding over the workers present at launch;
            # late joiners start empty and steal.
            ready = [w for w in self.workers if w.ready]
            shard = max(1, (len(todo) + len(ready) - 1) // len(ready))
            for i, worker in enumerate(ready):
                worker.queue = deque(todo[i * shard : (i + 1) * shard])
            for worker in ready:
                self._dispatch(worker, fn, trace)

            stopped = False
            while any(r.state in (PENDING, LEASED) for r in todo):
                if give_up_at is not None and time.monotonic() >= give_up_at:
                    cancel(PENDING, LEASED)
                    break
                events = self._selector.select(timeout=0.1)
                for key, _ in events:
                    if key.data is None:
                        self._accept()
                        continue
                    worker = key.data
                    for message in self._handle_frames(worker, self._read(worker)):
                        record = open_ids.get(message.get("id"))
                        if record is None or record.state == DONE:
                            self._count("dist.duplicates")  # re-dispatch race
                            continue
                        settle(record, message, "worker", ledger)
                        self._count("dist.completed")
                        if early_stop is not None and not stopped and early_stop(records):
                            stopped = True
                            cancel(PENDING)
                # Heartbeat staleness: a busy worker that has gone silent
                # is presumed dead; its lease requeues above.
                now = time.monotonic()
                for worker in list(self.workers):
                    if (
                        worker.current is not None
                        and now - worker.last_seen > self.heartbeat_timeout
                    ):
                        self._count("dist.heartbeat_expired")
                        self._drop_worker(worker)
                # Lease expiry: the worker is alive but the task has held
                # its lease too long — re-offer it elsewhere; first result
                # wins and the straggler's copy is dropped as a duplicate.
                for record in todo:
                    if (
                        record.state == LEASED
                        and record.lease_start is not None
                        and now - record.lease_start > lease
                        and record.redispatched < 2
                    ):
                        record.redispatched += 1
                        record.lease_start = now
                        record.state = PENDING  # re-queue; holder may still answer
                        self._requeued.append(record)
                        self._count("dist.lease_expired")
                for worker in list(self.workers):
                    self._dispatch(worker, fn, trace)
                # Everyone is gone: finish the job in-process (the same
                # degradation ladder as the hardened pool, one rung up).
                if not any(w.ready for w in self.workers):
                    remaining = [r for r in todo if r.state in (PENDING, LEASED)]
                    if remaining and not stopped:
                        self._count("dist.degraded")
                    for record in remaining:
                        if stopped:
                            # Post-verdict leftovers never ran anywhere:
                            # they are cancellations, not stragglers.
                            record.state = CANCELLED
                            self._count("dist.cancelled")
                            continue
                        self._run_local(fn, record, trace, ledger)
                        if early_stop is not None and early_stop(records):
                            stopped = True
                            cancel(PENDING)
        finally:
            self._running = False
            self._io_lock.release()
            self._sinks = []
            self._requeued.clear()
            for worker in self.workers:
                worker.queue = deque()
        return records


# ----------------------------------------------------------------------
# Cluster registry (one coordinator per bound address, per process)
# ----------------------------------------------------------------------
_CLUSTERS: Dict[str, Coordinator] = {}
_CLUSTERS_LOCK = threading.Lock()


def get_cluster(addr: str, **kwargs: Any) -> Coordinator:
    """The process-wide coordinator listening on ``addr`` (bound lazily on
    first use and reused by every subsequent dispatch to the same
    address, so workers stay connected across calls)."""
    key = format_address(*parse_address(addr))
    with _CLUSTERS_LOCK:
        coordinator = _CLUSTERS.get(key)
        if coordinator is None or coordinator._closed:
            coordinator = Coordinator(key, **kwargs)
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
    coordinator at ``addr`` runs the tasks; with no worker to run them the
    in-process executor does, and ``dist.degraded`` counts the fallback."""

    def __init__(self, addr: str):
        self.addr = addr
        self.metrics = Metrics()

    def run(
        self, fn: Callable[..., Any], tasks: Sequence[Tuple], **kwargs: Any
    ) -> List[TaskRecord]:
        coordinator = get_cluster(self.addr)
        try:
            return coordinator.run(fn, tasks, **kwargs)
        except NoWorkersError:
            coordinator.metrics.counter("dist.degraded").inc()
            tracer = _spans.current()
            if tracer is not None and tracer.metrics is not None:
                tracer.metrics.counter("dist.degraded").inc()
            return InProcess().run(fn, tasks, **kwargs)


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
def run_worker(
    addr: str,
    *,
    heartbeat: float = 2.0,
    max_tasks: Optional[int] = None,
    connect_retry: float = 10.0,
) -> int:
    """Connect to the coordinator at ``addr`` and execute tasks until it
    says goodbye (or ``max_tasks`` tasks have run).  Returns the number
    of tasks executed.

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
    sock = _connect_with_retry(host, port, connect_retry)
    send_lock = threading.Lock()
    current_id: List[Optional[int]] = [None]
    stop = threading.Event()

    def _heartbeats() -> None:
        while not stop.wait(heartbeat):
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
        while True:
            try:
                message = recv_frame(sock)
            except (ProtocolError, pickle.UnpicklingError, EOFError, OSError):
                break
            if message is None or message.get("type") == "bye":
                break
            if message.get("type") != "task":
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
            try:
                with send_lock:
                    send_frame(sock, response)
            except OSError:
                break
            executed += 1
            if max_tasks is not None and executed >= max_tasks:
                break
    finally:
        stop.set()
        try:
            sock.close()
        except OSError:
            pass
    return executed


def _connect_with_retry(host: str, port: int, window: float) -> socket.socket:
    deadline = time.monotonic() + max(0.0, window)
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
    addr: str,
    *,
    extra_pythonpath: Sequence[str] = (),
    env: Optional[Dict[str, str]] = None,
) -> subprocess.Popen:
    """Start a ``python -m repro worker`` subprocess connected to
    ``addr`` — the loopback convenience used by ``repro coordinate
    --workers N``, the distributed benchmarks and the test suite.

    ``extra_pythonpath`` entries are prepended to the worker's
    ``PYTHONPATH`` (after ``src``), so tasks defined in test/benchmark
    modules unpickle by reference inside the worker.
    """
    worker_env = dict(os.environ if env is None else env)
    src = str(_repo_src())
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


def _repo_src() -> str:
    from pathlib import Path

    return str(Path(__file__).resolve().parents[2])
