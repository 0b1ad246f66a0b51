"""A scoped pause of Python's cyclic garbage collector.

The batch kernels build large, purely acyclic structures (per-chunk lists,
lockset tables, vector clocks): reference counting frees all of it when a
kernel's core is dropped, so a collection during a kernel walk finds
nothing to free and only pays to traverse every live object.
:func:`gc_paused` switches the collector off for such a block and
restores the caller's state afterwards — also when the block raises.

The collector's switch is process-wide, so pauses are counted across
threads: the first to enter records whether collection was enabled, and
the last to leave restores exactly that.  A caller that had disabled the
collector finds it still disabled.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager

_lock = threading.Lock()
#: Pauses open right now, across all threads.
_depth = 0
#: Whether the collector was enabled when the outermost pause began.
_was_enabled = False


@contextmanager
def gc_paused():
    """Run the body with the cyclic collector disabled, then restore it."""
    global _depth, _was_enabled
    with _lock:
        if _depth == 0:
            _was_enabled = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _was_enabled:
                gc.enable()
