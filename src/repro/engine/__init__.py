"""``repro.engine`` — the single-pass multi-detector engine.

One trace walk feeds any number of incremental detector cores
(:class:`~repro.reporting.DetectorCore`); machine-backed cores replay one
prerecorded :class:`~repro.engine.tape.MachineTape` per machine
configuration on the batch and sharded walks.  See ``docs/architecture.md``
for where this sits in the layer stack.
"""

from repro.engine.session import EngineError, EngineSession
from repro.engine.shard import run_sharded
from repro.engine.tape import MachineTape

__all__ = [
    "EngineError",
    "EngineSession",
    "run_sharded",
    "MachineTape",
]
