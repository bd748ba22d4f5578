"""Malformed variants of the README instance never end in a traceback: main
returns a documented exit code, and 1 (a failed check) only from verify."""

import copy
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from conetheta.cli import main


def _c(re, im):
    return {"re": re, "im": im}


README = {
    "n": 2,
    "k": 1,
    "omega": [[_c(0.0, -1.0), _c(0.0, 0.0)], [_c(0.0, 0.0), _c(0.0, 2.0)]],
    "basis": {"n": 2, "k": 1, "N": [[1, 0], [0, 1]], "M": [[1, 0], [0, 1]]},
    "g": {"A": [[1, 0], [0, 1]], "B": [[2, 1], [1, 0]], "C": [[0, 0], [0, 0]], "D": [[1, 0], [0, 1]]},
    "characteristic": {"a": ["0", "1/2"], "delta": [1, 2]},
    "cone": {"generators": [[0, 1]], "shift": ["0", "0"]},
    "tolerances": {"sum": 1e-10, "identity": 1e-8, "fd": 1e-6},
    "seed": 32378,
}

COMMANDS = (
    ["eval"],
    ["transform"],
    ["split-basis"],
    ["verify", "--suite", "cocycle"],
)

#: bad scalars, records and matrices put in place of any part of the instance
BAD = st.sampled_from(
    [
        "x",
        "",
        "1/3",
        None,
        True,
        1.5,
        -1,
        0,
        3,
        2**63,
        -(2**63) - 1,
        10**400,
        1e300,
        math.inf,
        -math.inf,
        math.nan,
        [],
        {},
        [1, 2],
        [[1]],
        [[1, 2], [3]],
        [[0, 0], [0, 0]],
        _c(0.0, 1.0),
        {"re": "x", "im": 0},
    ]
)


@st.composite
def _variants(draw):
    """The README instance with one part, at any depth, replaced by a bad
    value or (in a record) deleted."""
    payload = copy.deepcopy(README)
    node, key = payload, draw(st.sampled_from(sorted(payload)))
    while isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
        node = node[key]
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
    if isinstance(node, dict) and draw(st.integers(0, 4)) == 0:
        del node[key]
    else:
        node[key] = draw(BAD)
    return payload


@pytest.fixture(scope="module")
def instance_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "i.json"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(payload=_variants(), command=st.sampled_from(COMMANDS))
def test_malformed_instance_exits_with_a_documented_code(instance_path, payload, command):
    instance_path.write_text(json.dumps(payload))
    code = main([command[0], "--instance", str(instance_path)] + command[1:])
    allowed = {0, 1, 2, 3, 4} if command[0] == "verify" else {0, 2, 3, 4}
    assert code in allowed
