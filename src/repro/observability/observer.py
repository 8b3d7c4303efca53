"""The observer protocol: hooks every execution layer reports into.

Design constraints (see DESIGN.md → Observability):

* **zero-overhead null default** — drivers accept ``observer=None`` and
  guard every emission with a single ``is not None`` branch.  Passing
  :data:`NULL_OBSERVER` (or a bare :class:`Observer` / ``NullObserver``)
  is normalised to ``None`` by :func:`live` at run entry, so the null
  observer costs exactly as much as no observer at all;
* **one generic sink** — every named hook funnels into :meth:`Observer.record`,
  so recorders (:class:`~repro.observability.trace.TraceRecorder`) override a
  single method, while aggregators
  (:class:`~repro.observability.metrics.MetricsObserver`) override the named
  hooks they care about;
* **layer tagging** — hooks carry a ``layer`` argument
  (protocol/program/machine/pipeline) so one observer can watch a whole
  compiled stack at once.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.observability import events as ev


class Observer:
    """Base observer: all hooks are no-ops.

    ``snapshot_interval`` (when set to a positive int) asks instrumented
    drivers to call :meth:`on_snapshot` with the full configuration every
    that-many steps — ppsim-style sampled history.
    """

    snapshot_interval: Optional[int] = None

    # -- generic sink ---------------------------------------------------
    def record(self, kind: str, step: Optional[int], **data: Any) -> None:
        """Receive one structured event.  Default: drop it."""

    # -- run lifecycle --------------------------------------------------
    def on_run_start(self, layer: str, **data: Any) -> None:
        self.record(ev.RUN_START, 0, layer=layer, **data)

    def on_run_end(self, step: int, layer: str, **data: Any) -> None:
        self.record(ev.RUN_END, step, layer=layer, **data)

    # -- protocol layer -------------------------------------------------
    def on_interaction(
        self,
        step: int,
        transition: Any,
        pair: Any,
        productive: bool,
    ) -> None:
        self.record(
            ev.INTERACTION,
            step,
            layer=ev.LAYER_PROTOCOL,
            transition=transition,
            pair=pair,
            productive=productive,
        )

    def on_batch(
        self,
        step: int,
        *,
        kind: str,
        count: int,
        transition: Any = None,
        productive: int = 0,
    ) -> None:
        """``count`` scheduler steps reported as one event, ending at
        interaction index ``step``.  ``kind`` is ``"null_skip"`` (fast
        path: a geometric run of null steps, or a silent run's jump to its
        next fault), ``"multinomial"`` (batched engine: one transition's
        chunk of a sampled batch, or — with ``transition=None`` — the
        batch's null interactions) or ``"collision"`` (the single
        agent-reusing interaction closing a batch); ``productive`` is how
        many of the reported steps changed the configuration."""
        self.record(
            ev.BATCH,
            step,
            layer=ev.LAYER_PROTOCOL,
            batch=kind,
            count=count,
            transition=transition,
            productive=productive,
        )

    def on_scheduler_select(
        self,
        step: int,
        *,
        scheduler: str,
        null: bool,
        candidates: int = 0,
        weight: int = 0,
    ) -> None:
        self.record(
            ev.SCHEDULER,
            step,
            layer=ev.LAYER_PROTOCOL,
            scheduler=scheduler,
            null=null,
            candidates=candidates,
            weight=weight,
        )

    def on_silence_check(self, step: int, silent: bool) -> None:
        self.record(ev.SILENCE_CHECK, step, layer=ev.LAYER_PROTOCOL, silent=silent)

    # -- program / machine layers --------------------------------------
    def on_statement(self, step: int, kind: str, detail: Optional[str] = None) -> None:
        self.record(
            ev.STATEMENT, step, layer=ev.LAYER_PROGRAM, statement=kind, detail=detail
        )

    def on_instruction(self, step: int, ip: int, kind: str) -> None:
        self.record(ev.INSTRUCTION, step, layer=ev.LAYER_MACHINE, ip=ip, instruction=kind)

    def on_detect(
        self, step: int, register: str, nonzero: bool, answer: bool, layer: str
    ) -> None:
        self.record(
            ev.DETECT,
            step,
            layer=layer,
            register=register,
            nonzero=nonzero,
            answer=answer,
        )

    def on_restart(
        self,
        step: int,
        count: int,
        layer: str,
        registers: Optional[Dict[str, int]] = None,
    ) -> None:
        self.record(ev.RESTART, step, layer=layer, count=count, registers=registers)

    def on_hang(self, step: int, layer: str, register: Optional[str] = None) -> None:
        self.record(ev.HANG, step, layer=layer, register=register)

    def on_fault(self, step: int, kind: str, layer: str, **data: Any) -> None:
        """An injected fault (see :mod:`repro.resilience`) fired at the
        layer's step counter ``step``.  ``kind`` names the fault type
        (``corrupt``, ``reset``, ``drop``, ``duplicate``, ``unfair``)."""
        self.record(ev.FAULT, step, layer=layer, fault=kind, **data)

    # -- shared ---------------------------------------------------------
    def on_output_flip(self, step: int, output: Any, layer: str) -> None:
        self.record(ev.OUTPUT_FLIP, step, layer=layer, output=output)

    def on_snapshot(self, step: int, snapshot: Dict[Any, int], layer: str) -> None:
        self.record(ev.SNAPSHOT, step, layer=layer, configuration=snapshot)

    def on_attempt(self, attempt: int, seed: int) -> None:
        self.record(ev.ATTEMPT, 0, layer=ev.LAYER_PROTOCOL, attempt=attempt, seed=seed)

    # -- pipeline layer -------------------------------------------------
    def on_stage(self, name: str, seconds: float, **data: Any) -> None:
        self.record(
            ev.STAGE, None, layer=ev.LAYER_PIPELINE, stage=name, seconds=seconds, **data
        )


class NullObserver(Observer):
    """Explicit do-nothing observer.  :func:`live` strips it, so passing
    one is guaranteed to leave the instrumented hot loops untouched."""


#: Shared null instance, for callers who want an explicit default object.
NULL_OBSERVER = NullObserver()


def live(observer: Optional[Observer]) -> Optional[Observer]:
    """Normalise an ``observer=`` argument for a hot loop: ``None`` for
    anything with no behaviour (``None``, ``NullObserver``, a bare
    ``Observer``), the observer itself otherwise."""
    if observer is None or observer.__class__ in (Observer, NullObserver):
        return None
    return observer


class CompositeObserver(Observer):
    """Fan one event stream out to several observers (e.g. a
    :class:`TraceRecorder` and a :class:`MetricsObserver` at once)."""

    def __init__(self, *observers: Observer):
        self.observers: Sequence[Observer] = [
            obs for obs in (live(o) for o in observers) if obs is not None
        ]
        intervals = [
            o.snapshot_interval for o in self.observers if o.snapshot_interval
        ]
        self.snapshot_interval = min(intervals) if intervals else None

    def record(self, kind: str, step: Optional[int], **data: Any) -> None:
        for obs in self.observers:
            obs.record(kind, step, **data)

    def on_run_start(self, layer: str, **data: Any) -> None:
        for obs in self.observers:
            obs.on_run_start(layer, **data)

    def on_run_end(self, step: int, layer: str, **data: Any) -> None:
        for obs in self.observers:
            obs.on_run_end(step, layer, **data)

    def on_interaction(self, step, transition, pair, productive) -> None:
        for obs in self.observers:
            obs.on_interaction(step, transition, pair, productive)

    def on_batch(self, step, **kwargs) -> None:
        for obs in self.observers:
            obs.on_batch(step, **kwargs)

    def on_scheduler_select(self, step, **kwargs) -> None:
        for obs in self.observers:
            obs.on_scheduler_select(step, **kwargs)

    def on_silence_check(self, step, silent) -> None:
        for obs in self.observers:
            obs.on_silence_check(step, silent)

    def on_statement(self, step, kind, detail=None) -> None:
        for obs in self.observers:
            obs.on_statement(step, kind, detail)

    def on_instruction(self, step, ip, kind) -> None:
        for obs in self.observers:
            obs.on_instruction(step, ip, kind)

    def on_detect(self, step, register, nonzero, answer, layer) -> None:
        for obs in self.observers:
            obs.on_detect(step, register, nonzero, answer, layer)

    def on_restart(self, step, count, layer, registers=None) -> None:
        for obs in self.observers:
            obs.on_restart(step, count, layer, registers)

    def on_hang(self, step, layer, register=None) -> None:
        for obs in self.observers:
            obs.on_hang(step, layer, register)

    def on_fault(self, step, kind, layer, **data) -> None:
        for obs in self.observers:
            obs.on_fault(step, kind, layer, **data)

    def on_output_flip(self, step, output, layer) -> None:
        for obs in self.observers:
            obs.on_output_flip(step, output, layer)

    def on_snapshot(self, step, snapshot, layer) -> None:
        for obs in self.observers:
            obs.on_snapshot(step, snapshot, layer)

    def on_attempt(self, attempt, seed) -> None:
        for obs in self.observers:
            obs.on_attempt(attempt, seed)

    def on_stage(self, name, seconds, **data) -> None:
        for obs in self.observers:
            obs.on_stage(name, seconds, **data)
