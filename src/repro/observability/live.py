"""Live telemetry: an in-process event bus, an HTTP/SSE server, and a
terminal ``top`` renderer.

The pieces compose as::

    metrics = Metrics()
    tracer = SpanTracer(metrics=metrics)
    bus = EventBus()
    observer = LiveObserver(bus)
    tracer.listener = bus.publish_span
    server = TelemetryServer(metrics=metrics, tracer=tracer, bus=bus)
    server.start()           # → http://127.0.0.1:<port>
    with activate(tracer):
        decide(..., observer=observer)   # any driver; spans + events stream
    server.stop()

Endpoints (all stdlib ``http.server``, no dependencies):

* ``/metrics`` — Prometheus text exposition of the shared registry;
* ``/events`` — Server-Sent Events stream: every non-hot trace event and
  every completed span, as JSON ``data:`` frames (hot per-step kinds are
  dropped at the observer so a long run cannot saturate the stream);
* ``/spans`` — the current aggregated span tree as JSON;
* ``/manifest`` — the run's provenance manifest (when one was attached);
* ``/healthz`` — liveness probe; the body is ``ok``.

``python -m repro serve`` wires this around a run; ``python -m repro
top`` consumes ``/events`` + ``/spans`` and renders a refreshing span
tree with event rates.
"""

from __future__ import annotations

import json
import queue
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional

from repro.observability import events as ev
from repro.observability.events import _jsonable
from repro.observability.metrics import Metrics
from repro.observability.observer import Observer
from repro.observability.spans import Span, SpanTracer


class EventBus:
    """Fan events out to any number of subscriber queues.

    Publishing never blocks the run: a subscriber that falls behind has
    its oldest events dropped (bounded queues, drop-oldest on overflow).
    """

    def __init__(self, *, maxsize: int = 1000):
        self.maxsize = maxsize
        self._subscribers: List["queue.Queue[Dict[str, Any]]"] = []
        self._lock = threading.Lock()
        self.published = 0
        self.dropped = 0

    def subscribe(self) -> "queue.Queue[Dict[str, Any]]":
        q: "queue.Queue[Dict[str, Any]]" = queue.Queue(maxsize=self.maxsize)
        with self._lock:
            self._subscribers.append(q)
        return q

    def unsubscribe(self, q: "queue.Queue[Dict[str, Any]]") -> None:
        with self._lock:
            try:
                self._subscribers.remove(q)
            except ValueError:
                pass

    def publish(self, payload: Dict[str, Any]) -> None:
        self.published += 1
        with self._lock:
            subscribers = list(self._subscribers)
        for q in subscribers:
            try:
                q.put_nowait(payload)
            except queue.Full:
                try:
                    q.get_nowait()  # drop the oldest, keep the stream fresh
                except queue.Empty:
                    pass
                try:
                    q.put_nowait(payload)
                except queue.Full:
                    self.dropped += 1

    def publish_span(self, span: Span) -> None:
        """A :class:`SpanTracer` ``listener``-compatible adapter."""
        self.publish({"kind": ev.SPAN, **span.to_dict()})


class LiveObserver(Observer):
    """Publish the trace-event stream onto an :class:`EventBus`.

    Hot per-step kinds (:data:`~repro.observability.events.HOT_KINDS`)
    are dropped here — batches, attempts, faults, stage completions and
    run summaries are the granularity a live view wants.
    """

    def __init__(self, bus: EventBus):
        self.bus = bus

    def record(self, kind: str, step: Optional[int], **data: Any) -> None:
        if kind in ev.HOT_KINDS:
            return
        payload: Dict[str, Any] = {"kind": kind, "step": step}
        for key, value in data.items():
            payload[key] = _jsonable(value)
        self.bus.publish(payload)


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to a :class:`TelemetryServer` via the server
    instance (``self.server.telemetry``)."""

    protocol_version = "HTTP/1.1"

    # -- helpers --------------------------------------------------------
    @property
    def telemetry(self) -> "TelemetryServer":
        return self.server.telemetry  # type: ignore[attr-defined]

    def _send(self, body: bytes, content_type: str, status: int = 200) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # quiet by default; the run's own output matters more

    # -- routes ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        path = self.path.split("?", 1)[0]
        try:
            if path == "/healthz":
                self._send(b"ok\n", "text/plain; charset=utf-8")
            elif path == "/metrics":
                text = self.telemetry.render_metrics()
                self._send(
                    text.encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif path == "/spans":
                tree = self.telemetry.render_spans()
                self._send(
                    json.dumps(tree, default=repr).encode("utf-8"),
                    "application/json",
                )
            elif path == "/manifest":
                manifest = self.telemetry.manifest
                if manifest is None:
                    self._send(b"{}\n", "application/json", status=404)
                else:
                    body = manifest.to_json().encode("utf-8")
                    self._send(body, "application/json")
            elif path == "/events":
                self._stream_events()
            else:
                self._send(b"not found\n", "text/plain; charset=utf-8", status=404)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response

    def _stream_events(self) -> None:
        telemetry = self.telemetry
        bus = telemetry.bus
        # Subscribe before the headers go out: a client that has seen them
        # must not miss a frame published right after.
        q = bus.subscribe()
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            self.end_headers()
            while not telemetry.stopping.is_set():
                try:
                    payload = q.get(timeout=0.5)
                except queue.Empty:
                    # SSE comment line as keepalive; also our chance to
                    # notice a vanished client or a stopping server.
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    continue
                frame = f"data: {json.dumps(payload, default=repr)}\n\n"
                self.wfile.write(frame.encode("utf-8"))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass
        finally:
            bus.unsubscribe(q)


class TelemetryServer:
    """Serve a run's metrics, spans and event stream over HTTP.

    ``port=0`` binds an ephemeral port; read :attr:`port` (or
    :attr:`url`) after :meth:`start`.  The server runs on daemon threads
    and :meth:`stop` shuts it down cleanly (open SSE streams notice the
    stop flag within their keepalive interval).
    """

    def __init__(
        self,
        *,
        metrics: Optional[Metrics] = None,
        tracer: Optional[SpanTracer] = None,
        bus: Optional[EventBus] = None,
        manifest: Any = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.metrics = metrics if metrics is not None else Metrics()
        self.tracer = tracer
        self.bus = bus if bus is not None else EventBus()
        self.manifest = manifest
        self.host = host
        self._requested_port = port
        self.stopping = threading.Event()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    # -- snapshot rendering (thread-safe-ish: both structures are only
    # appended/updated by the run thread; renders take the lock so a
    # scrape never sees a half-updated span list) -----------------------
    def render_metrics(self) -> str:
        with self._lock:
            return self.metrics.to_prometheus()

    def render_spans(self) -> Dict[str, Any]:
        with self._lock:
            if self.tracer is None:
                return {"name": "", "count": 0, "children": []}
            return self.tracer.tree()

    # -- lifecycle ------------------------------------------------------
    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "TelemetryServer":
        httpd = ThreadingHTTPServer((self.host, self._requested_port), _Handler)
        httpd.daemon_threads = True
        httpd.telemetry = self  # type: ignore[attr-defined]
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever, kwargs={"poll_interval": 0.1}, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self.stopping.set()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Terminal renderer (`python -m repro top`)
# ----------------------------------------------------------------------
def _render_tree(node: Dict[str, Any], lines: List[str], depth: int = 0) -> None:
    name = node.get("name") or "run"
    count = node.get("count", 0)
    seconds = node.get("seconds", 0.0)
    errors = node.get("errors", 0)
    suffix = f"  ×{count}" if count else ""
    if seconds:
        suffix += f"  {seconds:.3f}s"
    if errors:
        suffix += f"  !{errors}"
    lines.append(f"{'  ' * depth}{name}{suffix}")
    for child in node.get("children", []):
        _render_tree(child, lines, depth + 1)


def fetch_json(url: str, timeout: float = 5.0) -> Any:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def fetch_text(url: str, timeout: float = 5.0) -> str:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


def run_top(
    url: str,
    *,
    frames: Optional[int] = None,
    interval: float = 1.0,
    plain: bool = False,
    out: Optional[Callable[[str], None]] = None,
) -> int:
    """Poll a :class:`TelemetryServer` and render the live span tree.

    ``frames`` bounds the number of refreshes (``None`` = until the
    server goes away or the user interrupts); ``plain`` suppresses the
    ANSI clear-screen, which makes the output testable and log-friendly.
    Returns the number of frames rendered.
    """
    emit = out if out is not None else print
    url = url.rstrip("/")
    rendered = 0
    previous_events = 0.0
    previous_time: Optional[float] = None
    while frames is None or rendered < frames:
        try:
            tree = fetch_json(f"{url}/spans")
            metrics_text = fetch_text(f"{url}/metrics")
        except OSError:
            if rendered == 0:
                emit(f"repro top: cannot reach {url}")
                return 0
            break  # server finished — keep the last frame on screen
        now = time.perf_counter()
        interactions = 0.0
        for line in metrics_text.splitlines():
            if line.startswith("repro_interactions_total "):
                interactions = float(line.rsplit(" ", 1)[1])
                break
        rate = ""
        if previous_time is not None and now > previous_time:
            per_second = (interactions - previous_events) / (now - previous_time)
            rate = f"  ({per_second:,.0f} interactions/s)"
        previous_events, previous_time = interactions, now

        lines: List[str] = []
        if not plain:
            lines.append("\x1b[2J\x1b[H")  # clear screen, home cursor
        lines.append(f"repro top — {url}  interactions={interactions:,.0f}{rate}")
        _render_tree(tree, lines)
        emit("\n".join(lines))
        rendered += 1
        if frames is not None and rendered >= frames:
            break
        time.sleep(interval)
    return rendered
