"""DetectorConfig's default rule: a knob at its key's default is no override."""

import pytest

from repro.common.errors import HarnessError
from repro.harness.detectors import (
    DETECTOR_KEYS,
    KNOBS,
    DetectorConfig,
    config_signature,
    knob_defaults,
    make_detector,
)


@pytest.mark.parametrize("key", DETECTOR_KEYS)
def test_explicit_defaults_are_the_bare_key(key):
    explicit = DetectorConfig(key, **knob_defaults(key))
    assert explicit == DetectorConfig(key)
    assert config_signature(explicit) == config_signature(key) == f"{key};v2"
    assert DetectorConfig(key).with_overrides(**knob_defaults(key)) == explicit
    assert DetectorConfig.coerce(key, **knob_defaults(key)) == explicit


@pytest.mark.parametrize("key", DETECTOR_KEYS)
def test_defaults_are_what_make_detector_builds(key):
    detector = make_detector(key)
    config = getattr(detector, "config", None)
    granularity = config.granularity if config is not None else detector.granularity
    assert granularity == knob_defaults(key)["granularity"]


def test_non_default_knob_stays_an_override():
    config = DetectorConfig("hard-ideal", granularity=32)
    assert config.granularity == 32
    assert config_signature(config) == "hard-ideal;v2;granularity=32"
    assert DetectorConfig("hard-default", granularity=32).granularity is None


def test_unknown_knob_names_the_valid_ones():
    with pytest.raises(HarnessError) as info:
        DetectorConfig.coerce("hard-default", bogus=1)
    message = str(info.value)
    assert "'bogus'" in message
    assert all(knob in message for knob in KNOBS)
