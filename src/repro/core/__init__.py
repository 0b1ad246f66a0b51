"""HARD: the paper's hardware lockset detector and its building blocks."""

from repro.core.bloom import BloomMapper, BloomVector, collision_probability
from repro.core.candidate import ChunkMeta, LineMeta
from repro.core.detector import LOCK_WORD_BYTES, HardCosts, HardDetector
from repro.core.lockregister import LockRegister
from repro.core.lstate import NO_OWNER, LState, Transition, transition

__all__ = [
    "BloomMapper",
    "BloomVector",
    "collision_probability",
    "ChunkMeta",
    "LineMeta",
    "LOCK_WORD_BYTES",
    "HardCosts",
    "HardDetector",
    "LockRegister",
    "NO_OWNER",
    "LState",
    "Transition",
    "transition",
]
