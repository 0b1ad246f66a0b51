"""Named detector configurations used throughout the evaluation.

The paper compares four configurations (Table 2):

* ``hard-default`` — HARD on the Table 1 machine: 16-bit BFVector, 32 B
  (line) granularity, candidate sets cached only;
* ``hard-ideal`` — the ideal lockset: exact sets, 4 B granularity,
  unbounded storage;
* ``hb-default`` — happens-before with line-granularity timestamps kept in
  the cache;
* ``hb-ideal`` — happens-before at 4 B granularity with unbounded storage.

The library adds ``software`` (the Eraser-style software lockset with
its cost model) and the post-HARD lockset×happens-before family, which
stands in for the paper's Section 7 hybrid future work: ``fasttrack``
(epoch-optimized exact happens-before), ``acculock`` (epoch + one
lockset per location) and ``multilock-hb`` (per-location reader/writer
lockset sets).  The conformance harness
(:mod:`repro.hybrids.conformance`) pins their lattice: fasttrack ≡
hb-ideal ⊆ acculock ⊆ multilock-hb ⊆ strict lockset.  Section 3.4's
directory protocol is not a separate detector: ``hard-default`` runs on
``coherence="directory"`` (:class:`~repro.sim.fabric.DirectoryFabric`),
and the ``l2_size`` knob sweeps the L2 displacement it is exposed to.

:class:`DetectorConfig` is the typed construction protocol: one frozen,
hashable, picklable dataclass captures a detector key plus every
sensitivity-study knob, and :func:`make_detector` /
:func:`config_signature` accept either the dataclass or the legacy
``key, **overrides`` form.  Every detector built here satisfies the
:class:`~repro.reporting.Detector` protocol: ``core()`` returns a
:class:`~repro.reporting.DetectorCore` with both the scalar ``step`` and
the batch ``step_batch`` walk.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.common.config import (
    BloomConfig,
    HappensBeforeConfig,
    HardConfig,
    MachineConfig,
)
from repro.common.errors import HarnessError
from repro.core.detector import HardDetector
from repro.hb.detector import HappensBeforeDetector
from repro.hb.fasttrack import FastTrackDetector
from repro.hb.ideal import IdealHappensBeforeDetector
from repro.hybrids.acculock import AccuLockDetector
from repro.hybrids.multilock import MultiLockHBDetector
from repro.lockset.exact import IdealLocksetDetector
from repro.lockset.software import SoftwareLocksetDetector
from repro.reporting import Detector

#: The four Table 2 configurations, in the paper's column order.
PAPER_DETECTORS = ("hard-default", "hard-ideal", "hb-default", "hb-ideal")

#: The post-HARD hybrid family plus its exact-HB baseline (PR 8).
HYBRID_DETECTORS = ("fasttrack", "acculock", "multilock-hb")

#: Every key :func:`make_detector` accepts.
DETECTOR_KEYS = (
    *PAPER_DETECTORS,
    "software",
    *HYBRID_DETECTORS,
)


@dataclass(frozen=True)
class DetectorConfig:
    """One detector configuration: a key plus the sensitivity-study knobs.

    Frozen (hashable, picklable) so a configuration can key caches and
    cross process boundaries unchanged — the parallel grid engine ships
    these to worker processes.  ``None`` means "the key's default", and a
    knob set to its key's default (:func:`knob_defaults`) is stored as
    ``None``: an explicit default and no override are one configuration,
    equal, with one cache signature.
    """

    key: str = "hard-default"
    granularity: int | None = None
    l2_size: int | None = None
    vector_bits: int | None = None
    barrier_reset: bool = True
    broadcast_updates: bool = True
    use_counter_register: bool = True
    num_cores: int | None = None
    coherence: str | None = None

    def __post_init__(self) -> None:
        for name, default in knob_defaults(self.key).items():
            if getattr(self, name) == default:
                object.__setattr__(self, name, None)

    def overrides(self) -> dict[str, object]:
        """The non-default knobs as ``make_detector`` keyword arguments."""
        out: dict[str, object] = {}
        for spec in fields(self):
            if spec.name == "key":
                continue
            value = getattr(self, spec.name)
            if value != spec.default:
                out[spec.name] = value
        return out

    def with_overrides(self, **overrides: object) -> "DetectorConfig":
        """A copy with the given knobs replaced."""
        return replace(self, **overrides)

    @classmethod
    def coerce(cls, config: "DetectorConfig | str", **overrides: object) -> "DetectorConfig":
        """Normalise either calling convention into one dataclass.

        Accepts a ready :class:`DetectorConfig` (no overrides allowed — the
        dataclass already carries every knob) or a key string with the
        legacy loose keyword overrides.
        """
        if isinstance(config, cls):
            if overrides:
                raise HarnessError(
                    "pass knobs inside DetectorConfig, not as extra overrides"
                )
            return config
        unknown = sorted(set(overrides) - set(KNOBS))
        if unknown:
            raise HarnessError(
                f"unknown detector knob {', '.join(map(repr, unknown))}; "
                f"expected one of {KNOBS}"
            )
        kwargs = {k: v for k, v in overrides.items() if v is not None}
        return cls(key=config, **kwargs)


#: Every knob a :class:`DetectorConfig` carries beyond its key.
KNOBS = tuple(spec.name for spec in fields(DetectorConfig) if spec.name != "key")

_MACHINE = MachineConfig()

#: The knobs whose default does not depend on the key.
_SHARED_DEFAULTS = {
    "l2_size": _MACHINE.l2.size_bytes,
    "num_cores": _MACHINE.num_cores,
    "coherence": _MACHINE.coherence,
    "vector_bits": BloomConfig().vector_bits,
}

#: Metadata granularity of the cache-resident keys; every other key runs
#: at 4 B.
_GRANULARITY = {
    "hard-default": HardConfig().granularity,
    "hb-default": HappensBeforeConfig().granularity,
}


def knob_defaults(key: str) -> dict[str, object]:
    """What each ``None`` knob of ``key`` means in :func:`make_detector`."""
    return {"granularity": _GRANULARITY.get(key, 4), **_SHARED_DEFAULTS}


def _machine_config(cfg: DetectorConfig) -> MachineConfig:
    """The simulated machine a cache-resident detector runs on.

    ``num_cores`` and ``coherence`` are the PR-10 scale-out axes: folding
    them here means every machine-backed detector (and therefore the tape
    recorder, whose cache key is the machine config's repr) sees them
    uniformly, and leaving them ``None`` reproduces the Table 1 platform
    byte for byte.
    """
    machine = MachineConfig()
    if cfg.num_cores is not None or cfg.coherence is not None:
        machine = machine.with_cores(
            cfg.num_cores if cfg.num_cores is not None else machine.num_cores,
            cfg.coherence,
        )
    if cfg.l2_size is not None:
        machine = machine.with_l2_size(cfg.l2_size)
    return machine


def make_detector(
    config: DetectorConfig | str = "hard-default", **overrides: object
) -> Detector:
    """Build a detector from a :class:`DetectorConfig` (or key + overrides).

    Knobs apply where meaningful: ``granularity`` to every detector,
    ``l2_size``, ``num_cores`` and ``coherence`` to the cache-resident
    (machine-backed) ones, ``vector_bits`` and the ablation switches to
    HARD only.
    """
    cfg = DetectorConfig.coerce(config, **overrides)
    key = cfg.key
    granularity = cfg.granularity or knob_defaults(key)["granularity"]
    if key == "hard-default":
        machine = _machine_config(cfg)
        hard = HardConfig(
            granularity=granularity,
            barrier_reset=cfg.barrier_reset,
            broadcast_updates=cfg.broadcast_updates,
            use_counter_register=cfg.use_counter_register,
        )
        if cfg.vector_bits is not None:
            hard = hard.with_vector_bits(cfg.vector_bits)
        return HardDetector(machine, hard, name=key)
    if key == "hard-ideal":
        return IdealLocksetDetector(
            granularity=granularity,
            barrier_reset=cfg.barrier_reset,
            name=key,
        )
    if key == "hb-default":
        machine = _machine_config(cfg)
        hb = HappensBeforeConfig(granularity=granularity)
        return HappensBeforeDetector(machine, hb, name=key)
    if key == "hb-ideal":
        return IdealHappensBeforeDetector(granularity=granularity, name=key)
    if key == "fasttrack":
        return FastTrackDetector(granularity=granularity, name=key)
    if key == "acculock":
        return AccuLockDetector(
            granularity=granularity,
            barrier_reset=cfg.barrier_reset,
            name=key,
        )
    if key == "multilock-hb":
        return MultiLockHBDetector(
            granularity=granularity,
            barrier_reset=cfg.barrier_reset,
            name=key,
        )
    if key == "software":
        machine = _machine_config(cfg)
        return SoftwareLocksetDetector(
            machine,
            granularity=granularity,
            barrier_reset=cfg.barrier_reset,
            name=key,
        )
    raise HarnessError(
        f"unknown detector key {key!r}; expected one of {DETECTOR_KEYS}"
    )


def config_signature(
    config: DetectorConfig | str, **overrides: object
) -> str:
    """A stable string identifying a detector configuration (cache key).

    Signatures are intentionally unchanged from the loose-kwargs era: a
    :class:`DetectorConfig` produces exactly the signature its equivalent
    ``key, **overrides`` call always did.
    """
    cfg = DetectorConfig.coerce(config, **overrides)
    # "v2" is a frozen literal of the signature format, no longer bumped:
    # verdict-cache keys hash the package source instead (see
    # repro.harness.tracecache.VERDICT_SOURCES).
    parts = [cfg.key, "v2"]
    knobs = cfg.overrides()
    for name in sorted(knobs):
        parts.append(f"{name}={knobs[name]}")
    return ";".join(parts)
