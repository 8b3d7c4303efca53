"""Pausing the cyclic garbage collector around bulk builds of acyclic data.

The compiled artefacts — the output-broadcast protocol, the fast path's
transition table, a table or pipeline unpickled from the disk cache —
are hundreds of thousands of tuples, none of which can ever be part of a
reference cycle.  While they are being built, the cycle detector keeps
re-traversing the growing heap, which cost about a third of each build.
Reference counting still frees everything built here; only the cycle
detector is held off until the build ends.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def gc_paused() -> Iterator[None]:
    """Disable cyclic GC for the block, then restore the caller's setting.

    Safe when nested (GC stays off until the outermost block exits) and
    on exceptions; a caller that had GC disabled finds it still disabled.
    The switch is process-wide: builds overlapping in two threads can
    only end the pause early, never leave GC off for a caller that had
    it on.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
