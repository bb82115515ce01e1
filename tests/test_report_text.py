"""The report writer against json: the same bytes, streamed in small writes."""

import io
import json
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affinehecke.cli import _stream, emit


def json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def streamed(obj) -> str:
    fh = io.StringIO()
    _stream(obj, fh)
    return fh.getvalue()


# Keys and strings with quotes, backslashes, control characters, non-ASCII
# (astral too) and the template's own "%".
KEYS = st.sampled_from(["den", "exp", "num", "a%d", '"q"', "tab\t", "é", "\U0001d11e", ""])
INTS = st.integers() | st.sampled_from([2**64 + 1, -(2**70), 0, -1])
LEAVES = (
    st.none()
    | st.booleans()
    | INTS
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
# lists of dicts close to a polynomial's terms, so the template path runs
# and is left part way by a bool, an empty list or dict, or a float
TERM_VALUES = INTS | st.lists(INTS | st.booleans(), min_size=0, max_size=3) | st.booleans() | st.floats()
TERMS = st.lists(
    st.dictionaries(KEYS, TERM_VALUES, max_size=4) | st.dictionaries(st.sampled_from(["exp"]), INTS),
    max_size=6,
)
TREES = st.recursive(
    LEAVES | TERMS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(KEYS | st.text(), children, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(TREES)
@example([{}])
@example({"terms": [{"den": 1, "exp": [], "num": 1}]})
@example([{"den": 1, "exp": [2], "num": True}])
@example([1, True, 2])
@example({"rank": True, "box": 3})
@example((1, "a", [2, 3]))
@example([float("nan"), float("inf"), -float("inf"), -0.0, 1e-300])
@example({'k"\n\x01é\U0001d11e': 'v"\\\t\x1f é\U0001d11e'})
@example([{"a%d": 5, "%%": [1, 2]}])
@example({"x": [2**64 + 1, -(2**64)]})
def test_stream_gives_json_bytes(obj):
    assert streamed(obj) == json_text(obj)


@pytest.mark.parametrize(
    "obj",
    [Fraction(1, 2), [Fraction(1, 2)], [1, Fraction(1, 2)], {"a": [{"num": Fraction(1, 2)}]},
     {"records": [{"den": 1}, {1, 2}]}, complex(1, 2)],
)
def test_stream_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError):
        json_text(obj)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        streamed(obj)


class CountingSink:
    """A stream that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, s):
        self.chars += len(s)


def synthetic_report(n: int) -> dict:
    """A trace-shaped report with ``n`` records of four-term polynomials."""
    def poly(seed):
        return {
            "terms": [{"den": 1 + k % 3, "exp": [seed % 7 - k, k], "num": (-1) ** k * (seed + k)}
                      for k in range(4)],
            "vars": ["v1", "v2"],
        }
    return {
        "all_equal": True,
        "box": 9,
        "datum": "BnCn(2)",
        "records": [
            {"direct": poly(i), "equal": True, "in_negative_cone": i % 2 == 0,
             "partition": poly(i), "x": [i % 45 - 22, i // 45 - 22]}
            for i in range(n)
        ],
    }


def test_emit_holds_one_record_at_a_time(monkeypatch):
    report = synthetic_report(2000)
    length = len(json_text(report))
    sink = CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        emit(report, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars == length
    assert peak < length / 100, (peak, length)
