"""The report emitter writes what ``json.dumps(indent=2)`` writes.

The oracle is the standard library's encoder, run on a sanitised copy of
the same value: non-finite floats replaced by None and numpy scalars by the
Python values they hold, which is what the emitter writes for them.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solitonlab.report import _json_text


def _sanitised(obj):
    if isinstance(obj, dict):
        return {key: _sanitised(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitised(value) for value in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, float):
        return float(obj) if math.isfinite(obj) else None
    return obj


def _oracle(obj):
    return json.dumps(_sanitised(obj), indent=2, allow_nan=False) + "\n"


_FLOATS = st.floats() | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf, 1e308])
_TEXT = st.text(st.characters(codec="utf-8")) | st.sampled_from(["", "\x00\x1f\x7f", "é 😀", '"\\/\b\f\n\r\t'])
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**63, -(2**63) - 1, 10**40, -(10**40)])
    | _FLOATS
    | _TEXT
    | _FLOATS.map(np.float64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple) | st.dictionaries(_TEXT, inner, max_size=4)
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_emitter_writes_what_json_dumps_writes(value):
    assert _json_text(value) == _oracle(value)


@pytest.mark.parametrize(
    "value",
    [{}, [], {"a": {}, "b": [], "c": [{}, []]}, [[[]]], -0.0, 5e-324, "", None],
    ids=repr,
)
def test_empty_containers_and_edge_scalars(value):
    assert _json_text(value) == _oracle(value)


def test_non_finite_floats_are_null():
    doc = {"nan": math.nan, "inf": [math.inf, np.float64(-math.inf)]}
    assert json.loads(_json_text(doc)) == {"nan": None, "inf": [None, None]}


@pytest.mark.parametrize(
    "value",
    [np.zeros(3), {"residual": np.array([1.0])}, {1, 2}, [frozenset()], {1: "integer key"}, object()],
    ids=["ndarray", "nested ndarray", "set", "nested frozenset", "integer key", "object"],
)
def test_other_types_raise(value):
    with pytest.raises(TypeError):
        _json_text(value)
