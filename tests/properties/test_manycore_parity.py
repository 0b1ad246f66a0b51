"""Property test: the machine-backed keys agree on many-core machines.

``hard-default`` and ``hb-default`` read the simulated machine.  On the
scalar walk each core simulates its own :class:`~repro.sim.machine.Machine`
event by event; the batch and sharded walks replay one prerecorded
:class:`~repro.engine.tape.MachineTape` instead.  The golden files pin
both on workload traces and a handful of machine shapes.  This property
draws the machine too, over hand-built traces that do not come from the
workload generators (the strategy of ``test_lockmask_properties``):

* 4, 16 or 64 cores, on the snoopy bus or the directory fabric;
* the default 1 MiB L2, or an 8-line L2 that the lock bursts and
  line-spanning accesses overflow, so L2 displacement, its hooks and
  multi-copy back-invalidation run on every path.

Reports, cycles and stats must be identical on the scalar, batch and
sharded walks.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import detect_many
from repro.common.coltrace import ColumnarTrace
from repro.engine import run_sharded
from repro.harness.detectors import DetectorConfig

from tests.engine.test_batch_path import result_key
from tests.properties.test_lockmask_properties import lock_traces

#: The batch keys whose kernels replay a machine tape.
MACHINE_KEYS = ("hard-default", "hb-default")

#: An 8-line (one 8-way set) L2: small enough that a trace's lock burst and
#: spanning accesses displace lines other cores still hold.
SMALL_L2 = 256


@st.composite
def machines(draw) -> dict:
    """DetectorConfig machine overrides: cores x fabric x L2 size."""
    cores = draw(st.sampled_from((4, 16, 64)))
    fabric = draw(st.sampled_from(("snoopy", "directory")))
    return {
        "num_cores": cores,
        "coherence": fabric,
        "l2_size": draw(st.sampled_from((None, SMALL_L2))),
    }


@settings(max_examples=40, deadline=None)
@given(lock_traces(), machines())
def test_scalar_batch_sharded_agree_on_drawn_machines(trace, machine):
    configs = [DetectorConfig(key, **machine) for key in MACHINE_KEYS]
    scalar = [
        result_key(r) for r in detect_many(trace, configs, engine_path="scalar")
    ]
    cols = ColumnarTrace.from_events(trace)
    batch = [result_key(r) for r in detect_many(cols, configs, engine_path="batch")]
    assert batch == scalar
    sharded = [result_key(r) for r in run_sharded(cols, configs, jobs=1, shards=3)]
    assert sharded == scalar
