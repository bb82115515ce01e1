"""The report writer against json: the same bytes, streamed in small writes.

A ``LaurentPoly`` in a report stands for its JSON object, ``ref_obj``."""

import io
import json
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affinehecke.cli import _stream, emit
from affinehecke.coeffring import LaurentPoly

from test_coeffring import ref_obj


def plain(obj):
    """The tree with each polynomial replaced by its JSON object."""
    if isinstance(obj, LaurentPoly):
        return ref_obj(obj)
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


def json_text(obj) -> str:
    return json.dumps(plain(obj), sort_keys=True, indent=2) + "\n"


def streamed(obj) -> str:
    fh = io.StringIO()
    _stream(obj, fh)
    return fh.getvalue()


# Keys, strings and variable names with quotes, backslashes, control
# characters, non-ASCII (astral too) and a "%" that no template may read.
KEYS = st.sampled_from(["den", "exp", "num", "a%d", '"q"', "tab\t", "é", "\U0001d11e", ""])
INTS = st.integers() | st.sampled_from([2**64 + 1, -(2**70), 0, -1])
# polynomials in 0 to 4 variables named like keys, the zero polynomial too
POLYS = st.lists(KEYS, max_size=4).flatmap(
    lambda names: st.dictionaries(
        st.tuples(*[st.integers(-3, 3)] * len(names)),
        INTS | st.fractions(max_denominator=2**70),
        max_size=4,
    ).map(lambda terms: LaurentPoly(tuple(names), terms))
)
LEAVES = (
    st.none()
    | st.booleans()
    | INTS
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | POLYS
)
TREES = st.recursive(
    LEAVES,
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
@example([LaurentPoly(("v1",), {}), {"p": LaurentPoly(("a%d", "é"), {(1, -2): Fraction(-3, 7)})}])
@example(LaurentPoly(("v1", "v2"), {(0, 0): 2**70, (-1, 2): 1}))
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

    def flush(self):
        pass


def synthetic_report(n: int) -> dict:
    """A trace-shaped report with ``n`` records of four-term polynomials,
    held as ``LaurentPoly`` values as ``cmd_trace`` hands them to ``emit``."""
    def poly(seed):
        return LaurentPoly(
            ("v1", "v2"),
            {(seed % 7 - k, k): Fraction((-1) ** k * (seed + k), 1 + k % 3) for k in range(4)},
        )
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
