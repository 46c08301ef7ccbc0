"""The config dataclasses take any value of a numeric field or reject it by name."""

import math
import re
from dataclasses import fields
from typing import Optional, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irtkit.optim import TrainConfig
from irtkit.synth import SynthConfig
from irtkit.vi import VIConfig

NUMERIC = [(cls, f.name) for cls in (TrainConfig, VIConfig, SynthConfig)
           for f in fields(cls) if get_type_hints(cls)[f.name] in (int, float, Optional[int])]

VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -1, -0.5, True, False, 1.5, 2.0, "1", "x", None]),
    st.integers(-10**20, 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
)


def test_every_config_has_numeric_fields():
    assert {cls for cls, _ in NUMERIC} == {TrainConfig, VIConfig, SynthConfig}
    assert (SynthConfig, "exam_seed") in NUMERIC and (TrainConfig, "learning_rate") in NUMERIC


@settings(max_examples=700, deadline=None)
@given(target=st.sampled_from(NUMERIC), value=VALUES)
def test_numeric_field_constructs_or_is_rejected_by_name(target, value):
    cls, name = target
    try:
        cfg = cls(**{name: value})
    except ValueError as exc:
        assert re.match(rf"{name} must be\b", str(exc)), str(exc)
    else:
        assert getattr(cfg, name) is value
        assert not isinstance(value, (str, bool)) and (value is not None or name == "exam_seed")
        assert value is None or math.isfinite(value)
        if get_type_hints(cls)[name] is not float:
            assert value is None or isinstance(value, int)
