"""Hierarchical spans: timed, nested units of work across processes.

A :class:`Span` is one timed operation (a compile, a decide attempt, a
cache lookup, a fault firing) with a *path* — a tuple of labels matching
the :class:`~repro.runtime.seeds.SeedTree` task-path convention — that
places it in the run's tree.  A :class:`SpanTracer` records spans; the
module-level context (:func:`activate` / :func:`current` / :func:`span`)
makes one tracer ambient so every layer can participate without new
keyword arguments on every driver.

Design constraints, mirroring the observer layer:

* **zero cost when off** — :func:`span`, :func:`begin` and :func:`finish`
  reduce to a single ``ContextVar.get`` returning ``None``.  Spans are
  created at *driver* granularity (per attempt, per compile, per cache
  lookup), never inside the per-interaction hot loops, so the fastpath's
  ``null_observer.overhead_ratio`` stays ≈ 1.0;
* **cross-process merge, deterministically** — spans created inside pool
  workers are serialised (:meth:`SpanTracer.to_payload`) back
  through ``parallel_map`` and ``decide`` and re-rooted on the caller
  with :meth:`SpanTracer.adopt`, the same shape as ``Metrics.merge``.
  :meth:`SpanTracer.structure` reduces the tree to names and counts only
  (no timings, no pids), which is the form the ``jobs=1`` ≡ ``jobs=N``
  determinism tests compare.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

Label = Any  # stringified on use; int indices and str labels both fine


class Span:
    """One timed operation.

    ``path`` is the full label path from the tree root (the last element
    is the span's own name); the parent is ``path[:-1]``.  ``attrs`` is a
    small JSON-serialisable payload (seed, hit/miss flag, fault kind…).
    """

    __slots__ = ("name", "path", "start", "end", "status", "attrs", "pid")

    def __init__(
        self,
        name: str,
        path: Tuple[str, ...],
        start: float,
        *,
        attrs: Optional[Dict[str, Any]] = None,
        pid: Optional[int] = None,
    ):
        self.name = name
        self.path = path
        self.start = start
        self.end: Optional[float] = None
        self.status: str = "open"
        self.attrs: Dict[str, Any] = attrs or {}
        self.pid = pid if pid is not None else os.getpid()

    @property
    def seconds(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "path": list(self.path),
            "start": self.start,
            "end": self.end,
            "seconds": self.seconds,
            "status": self.status,
            "attrs": self.attrs,
            "pid": self.pid,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "Span":
        span = cls(
            raw["name"],
            tuple(raw["path"]),
            raw.get("start", 0.0),
            attrs=dict(raw.get("attrs") or {}),
            pid=raw.get("pid"),
        )
        span.end = raw.get("end")
        span.status = raw.get("status", "ok")
        return span

    def __repr__(self) -> str:
        dur = f" {self.seconds:.6f}s" if self.seconds is not None else ""
        return f"Span({'/'.join(self.path)}{dur} {self.status})"


class SpanTracer:
    """Record a tree of spans, merge worker payloads, export the result.

    Parameters
    ----------
    root:
        Label path this tracer's spans hang under (usually empty; worker
        tracers are re-rooted by the coordinator's :meth:`adopt` instead).
    metrics:
        Optional :class:`~repro.observability.metrics.Metrics` registry;
        every completed or adopted span lands there as a
        ``span.<name>`` counter and a ``span.<name>.seconds`` histogram,
        which is what puts ``span.*`` stats into ``summarize()``.
    """

    def __init__(
        self,
        root: Sequence[Label] = (),
        *,
        metrics: Any = None,
    ):
        self.root: Tuple[str, ...] = tuple(str(p) for p in root)
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self.metrics = metrics
        self._clock = time.perf_counter

    # -- recording ------------------------------------------------------
    @property
    def current_path(self) -> Tuple[str, ...]:
        return self._stack[-1].path if self._stack else self.root

    def start(self, label: Label, **attrs: Any) -> Span:
        name = str(label)
        span = Span(name, self.current_path + (name,), self._clock(), attrs=attrs)
        self._stack.append(span)
        return span

    def end(self, span: Span, status: str = "ok") -> None:
        span.end = self._clock()
        span.status = status
        # Tolerate mismatched ends: pop until the span is gone (children
        # abandoned by an exception unwind are closed as errors).
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            top.end = span.end
            top.status = "error"
            self._record(top)
        self._record(span)

    def _record(self, span: Span) -> None:
        self.spans.append(span)
        if self.metrics is not None:
            self.metrics.counter(f"span.{span.name}").inc()
            if span.seconds is not None:
                self.metrics.histogram(f"span.{span.name}.seconds").observe(
                    span.seconds
                )

    @contextmanager
    def span(self, label: Label, **attrs: Any):
        span = self.start(label, **attrs)
        try:
            yield span
        except BaseException:
            self.end(span, status="error")
            raise
        else:
            self.end(span)

    def mark(self, label: Label, **attrs: Any) -> Span:
        """An instant (zero-duration) span — for point events like a pool
        retry or a fault firing whose duration is not the interesting part."""
        span = self.start(label, **attrs)
        self.end(span)
        return span

    # -- cross-process merge --------------------------------------------
    def to_payload(self) -> List[Dict[str, Any]]:
        """Completed spans as plain dicts, in completion order — the
        pickle-friendly form workers ship back to the coordinator."""
        return [span.to_dict() for span in self.spans]

    def adopt(
        self,
        payload: Iterable[Dict[str, Any]],
        prefix: Optional[Sequence[Label]] = None,
    ) -> None:
        """Fold a worker's exported spans into this tracer, re-rooting
        their paths under ``prefix`` (default: the current span path).

        Adoption order is the caller's iteration order; coordinators call
        this in task order, which is what keeps the merged tree
        deterministic regardless of worker scheduling.  ``None`` (a result
        that shipped no spans) is a no-op.
        """
        if not payload:
            return
        at = tuple(str(p) for p in (self.current_path if prefix is None else prefix))
        for raw in payload:
            span = Span.from_dict(raw)
            span.path = at + span.path
            self._record(span)

    # -- export ---------------------------------------------------------
    def tree(self) -> Dict[str, Any]:
        """The aggregated span tree: one node per distinct path, with
        call counts and total seconds, children sorted by name.

        Interior nodes that were never recorded as spans themselves
        (possible after adoption) are synthesised with zero counts.
        """
        nodes: Dict[Tuple[str, ...], Dict[str, Any]] = {}

        def node(path: Tuple[str, ...]) -> Dict[str, Any]:
            existing = nodes.get(path)
            if existing is None:
                existing = nodes[path] = {
                    "name": path[-1] if path else "",
                    "path": list(path),
                    "count": 0,
                    "errors": 0,
                    "seconds": 0.0,
                    "children": {},
                }
                if path:
                    node(path[:-1])["children"][path[-1]] = existing
            return existing

        root = node(())
        for span in self.spans:
            entry = node(span.path)
            entry["count"] += 1
            if span.status == "error":
                entry["errors"] += 1
            if span.seconds is not None:
                entry["seconds"] += span.seconds

        def finalise(entry: Dict[str, Any]) -> Dict[str, Any]:
            entry["children"] = [
                finalise(child)
                for _name, child in sorted(entry["children"].items())
            ]
            return entry

        return finalise(root)

    def structure(self) -> Any:
        """The timing- and pid-free shape of the tree: nested
        ``(name, count, children)`` tuples with children sorted by name.
        Two runs that did the same work — regardless of ``jobs`` — have
        equal structures."""

        def strip(entry: Dict[str, Any]) -> Tuple[str, int, tuple]:
            return (
                entry["name"],
                entry["count"],
                tuple(strip(child) for child in entry["children"]),
            )

        return strip(self.tree())

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.tree(), indent=indent, default=repr)

    def write_json(self, path) -> Any:
        from pathlib import Path

        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    def __len__(self) -> int:
        return len(self.spans)


# ----------------------------------------------------------------------
# Ambient tracer context
# ----------------------------------------------------------------------
_CURRENT: ContextVar[Optional[SpanTracer]] = ContextVar(
    "repro_span_tracer", default=None
)


def current() -> Optional[SpanTracer]:
    """The ambient tracer, or ``None`` when tracing is off."""
    return _CURRENT.get()


@contextmanager
def activate(tracer: SpanTracer):
    """Install ``tracer`` as the ambient tracer for the enclosed block."""
    token = _CURRENT.set(tracer)
    try:
        yield tracer
    finally:
        _CURRENT.reset(token)


class _NoopSpan:
    """Shared do-nothing context manager for the tracing-off path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NOOP = _NoopSpan()


def span(label: Label, **attrs: Any):
    """Ambient span context manager: a real span under the active tracer,
    a shared no-op otherwise."""
    tracer = _CURRENT.get()
    if tracer is None:
        return _NOOP
    return tracer.span(label, **attrs)


def begin(label: Label, **attrs: Any) -> Optional[Span]:
    """Open an ambient span without a ``with`` block (for functions whose
    body cannot be re-indented); pair with :func:`finish`.  Returns
    ``None`` — and costs one ``ContextVar.get`` — when tracing is off."""
    tracer = _CURRENT.get()
    if tracer is None:
        return None
    return tracer.start(label, **attrs)


def finish(span_: Optional[Span], status: str = "ok") -> None:
    """Close a span returned by :func:`begin` (no-op on ``None``)."""
    if span_ is None:
        return
    tracer = _CURRENT.get()
    if tracer is not None:
        tracer.end(span_, status)


def mark(label: Label, **attrs: Any) -> None:
    """Ambient instant span (no-op when tracing is off)."""
    tracer = _CURRENT.get()
    if tracer is not None:
        tracer.mark(label, **attrs)


def adopt(payload: Optional[Iterable[Dict[str, Any]]]) -> None:
    """Fold a worker span payload into the ambient tracer at the current
    path (no-op when tracing is off or the payload is empty)."""
    if not payload:
        return
    tracer = _CURRENT.get()
    if tracer is not None:
        tracer.adopt(payload)
