"""RandomScheduler draws exactly the stream of choice() plus randint().

``pick`` calls ``Random._randbelow`` directly instead of
``choice(list(runnable))`` and ``randint(min_burst, max_burst)``.  Every
pinned trace depends on that being the same stream, so the reference here
is a ``Random`` seeded identically and drawing through the public calls.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import derive_seed
from repro.threads.scheduler import RandomScheduler

BURSTS = [(1, 1), (1, 8), (1, 24), (3, 7), (2, 64), (16, 16), (1, 1000)]


def reference_picks(seed, min_burst, max_burst, lengths, bias=0.0):
    rng = random.Random(derive_seed("scheduler", seed))
    picks = []
    for n in lengths:
        runnable = list(range(100, 100 + n))
        if bias and n > 1 and rng.random() < bias:
            choice = runnable[0]
        else:
            choice = rng.choice(list(runnable))
        picks.append((choice, rng.randint(min_burst, max_burst)))
    return picks


def scheduler_picks(seed, min_burst, max_burst, lengths, bias=0.0):
    sched = RandomScheduler(
        seed=seed, min_burst=min_burst, max_burst=max_burst, bias=bias
    )
    return [sched.pick(list(range(100, 100 + n))) for n in lengths]


def test_private_draw_exists():
    # pick() leans on CPython's private Random._randbelow, which choice()
    # and randint() both call; if it goes, fail here by name.
    assert callable(getattr(random.Random, "_randbelow", None)), (
        "random.Random._randbelow is gone: RandomScheduler.pick must draw "
        "through choice() and randint() again"
    )


def test_every_length_and_burst_range():
    lengths = [n for n in range(1, 65) for _ in range(3)]
    for seed in (0, 1, "server", 12345):
        for min_burst, max_burst in BURSTS:
            assert scheduler_picks(seed, min_burst, max_burst, lengths) == (
                reference_picks(seed, min_burst, max_burst, lengths)
            ), (seed, min_burst, max_burst)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    bursts=st.sampled_from(BURSTS),
    lengths=st.lists(st.integers(min_value=1, max_value=64), max_size=200),
)
def test_same_stream(seed, bursts, lengths):
    min_burst, max_burst = bursts
    assert scheduler_picks(seed, min_burst, max_burst, lengths) == (
        reference_picks(seed, min_burst, max_burst, lengths)
    )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    bias=st.sampled_from([0.1, 0.5, 0.9]),
    lengths=st.lists(st.integers(min_value=1, max_value=64), max_size=100),
)
def test_biased_stream(seed, bias, lengths):
    assert scheduler_picks(seed, 1, 24, lengths, bias) == (
        reference_picks(seed, 1, 24, lengths, bias)
    )
