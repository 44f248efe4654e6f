"""``cpv.jsonwriter.write_json`` against ``json.dumps(doc, indent=2, sort_keys=True)``.

The writer serves ``--emit`` and ``--pretty``, and its bytes are the
contract: every case below must come out exactly as ``json`` writes it,
followed by a line break.
"""

from __future__ import annotations

import io
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpv.jsonwriter import write_json


def written(doc) -> str:
    fh = io.StringIO()
    write_json(doc, fh)
    return fh.getvalue()


def expected(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Every code point, lone surrogates included, and the characters JSON escapes.
STRINGS = st.text(st.characters(exclude_categories=())) | st.sampled_from([
    "", '"', "\\", '"\\"', "\x00\x1f\x7f", "\n\t\r\b\f", "é", "☃", "\U0001f600", "\ud800", "\udfff"
])
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, 1e16, 1e-7, math.nan, math.inf, -math.inf])
    | STRINGS
)
DOCS = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=6)
        | st.lists(inner, max_size=6).map(tuple)
        | st.dictionaries(STRINGS, inner, max_size=6)
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(DOCS)
def test_bytes_equal_json_dumps(doc):
    assert written(doc) == expected(doc)


@pytest.mark.parametrize(
    "doc",
    [
        [1, True, 1.0, "1", None, False, 0],
        {"a": True, "b": 1, "c": 1.0},
        [True, 1, 1.0, [1.0, True, 1], {"x": 1, "y": True}],
        {},
        [],
        {"": [], "é": {}, "a": [[], {}]},
        (1, ("a", ()), [()]),
        "top-level string",
        -0.0,
    ],
    ids=["equal-scalars", "equal-values", "equal-nested", "empty-object", "empty-array",
         "empty-key-and-members", "tuples", "string", "negative-zero"],
)
def test_explicit_cases(doc):
    # True == 1 == 1.0 with equal hashes: a memo keyed by value across types
    # would write one of them for another.
    assert written(doc) == expected(doc)


def chain(depth: int, kind: str):
    doc = 1
    for _ in range(depth):
        doc = [doc] if kind == "array" else {"a": doc}
    return doc


@pytest.mark.parametrize("kind", ["array", "object"])
def test_a_deep_chain(kind):
    assert written(chain(400, kind)) == expected(chain(400, kind))


@pytest.mark.parametrize("kind", ["array", "object"])
def test_deeper_than_json_goes(kind):
    # The writer keeps its own stack: a chain that exhausts json's recursion
    # at the default limit is still written.
    doc = chain(3 * sys.getrecursionlimit() // 2, kind)
    with pytest.raises(RecursionError):
        json.dumps(doc, indent=2, sort_keys=True)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(4 * limit)
    try:
        reference = expected(doc)
    finally:
        sys.setrecursionlimit(limit)
    assert written(doc) == reference


def test_written_in_chunks():
    # json.dump streams; so does the writer, and it holds no copy of the whole.
    doc = {"rows": [{"outcome": "x", "profile": [str(i), "a"]} for i in range(5000)]}
    class Chunks(list):
        write = list.append

    chunks = Chunks()
    write_json(doc, chunks)
    assert "".join(chunks) == expected(doc)
    assert len(chunks) > 4 and max(map(len, chunks)) < len(expected(doc)) // 4
