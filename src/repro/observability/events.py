"""Structured trace events shared by every execution layer.

A :class:`TraceEvent` is a flat record ``(kind, step, data)``.  ``kind``
is one of the constants below, ``step`` is the layer's own step counter
(interactions for protocol simulation, primitive steps for programs and
machines, ``None`` for events with no natural position such as pipeline
stages), and ``data`` is a JSON-serialisable payload.

The ``layer`` key inside ``data`` identifies which execution layer emitted
the event; the same observer instance can therefore be threaded through a
protocol simulation, a program run, a machine run and the compilation
pipeline and still produce an unambiguous merged trace.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional

# --- event kinds --------------------------------------------------------
RUN_START = "run_start"  # a driver began sampling a run
RUN_END = "run_end"  # the driver stopped (with its summary statistics)
INTERACTION = "interaction"  # one protocol-level scheduler step
BATCH = "batch"  # many scheduler steps reported at once
SCHEDULER = "scheduler"  # scheduler-internal detail (candidate sets)
STATEMENT = "statement"  # program-level primitive statement dispatch
INSTRUCTION = "instruction"  # machine-level instruction dispatch
DETECT = "detect"  # a detect primitive resolved (any layer)
RESTART = "restart"  # a restart fired / the restart helper was entered
OUTPUT_FLIP = "output_flip"  # the output (flag or consensus) changed
SILENCE_CHECK = "silence_check"  # the simulator tested for silence
SNAPSHOT = "snapshot"  # sampled configuration / register snapshot
LEVEL = "level"  # Lipton level progression (derived from registers)
HANG = "hang"  # a move from an empty register hung the run
ATTEMPT = "attempt"  # decide() started a retry attempt
STAGE = "stage"  # a compilation-pipeline stage completed
FAULT = "fault"  # an injected fault fired (see repro.resilience)
TRUNCATED = "truncated"  # a bounded recorder started evicting events

# Layers, as used in the ``layer`` payload key.
LAYER_PROTOCOL = "protocol"
LAYER_PROGRAM = "program"
LAYER_MACHINE = "machine"
LAYER_PIPELINE = "pipeline"

ALL_KINDS = frozenset(
    {
        RUN_START,
        RUN_END,
        INTERACTION,
        BATCH,
        SCHEDULER,
        STATEMENT,
        INSTRUCTION,
        DETECT,
        RESTART,
        OUTPUT_FLIP,
        SILENCE_CHECK,
        SNAPSHOT,
        LEVEL,
        HANG,
        ATTEMPT,
        STAGE,
        FAULT,
        TRUNCATED,
    }
)

#: Per-step event kinds — the high-volume ones a recorder may want to drop.
#: ``BATCH`` is deliberately excluded: one batch event summarises many
#: steps, so keeping it preserves interaction accounting even in traces
#: that drop the per-step firehose.
HOT_KINDS = frozenset({INTERACTION, SCHEDULER, STATEMENT, INSTRUCTION})


@dataclass
class TraceEvent:
    """One structured observation."""

    kind: str
    step: Optional[int]
    data: Dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "step": self.step}
        for key, value in self.data.items():
            out[key] = _jsonable(value)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), default=repr)

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        raw = json.loads(line)
        kind = raw.pop("kind")
        step = raw.pop("step", None)
        return cls(kind=kind, step=step, data=raw)


def _jsonable(value: Any) -> Any:
    """Best-effort conversion to something ``json.dumps`` accepts.

    Protocol states may be tuples (the converted protocols use structured
    states), so mapping *keys* need stringifying too.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {
            key if isinstance(key, str) else repr(key): _jsonable(v)
            for key, v in value.items()
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return repr(value)


_LEVEL_REGISTER = re.compile(r"^[xy]b?(\d+)$")


def lipton_level(registers: Dict[str, int]) -> int:
    """The highest *active* level of a Section 6 register configuration:
    the largest ``i`` such that some register of ``Q_i = {x_i, x̄_i, y_i,
    ȳ_i}`` is nonempty (0 if none are, e.g. everything sits in ``R``).

    Registers that do not follow the Section 6 naming convention are
    ignored, so this is safe to call on arbitrary programs.
    """
    level = 0
    for name, count in registers.items():
        if count <= 0:
            continue
        match = _LEVEL_REGISTER.match(name)
        if match:
            level = max(level, int(match.group(1)))
    return level


def events_to_jsonl(events: Iterable[TraceEvent]) -> str:
    """Render events as one JSON object per line."""
    return "\n".join(event.to_json() for event in events)
