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


# Tables: arrays of objects with one key set, each value a string or an
# array of strings of one length per key, which the writer fills from one
# row template; and near misses, one row edited, which it walks instead.
# Keys holding "%" or NUL test the template's own escapes.
KEYS = STRINGS | st.sampled_from(["\x00", "%", "%s", "%%d", "profile"])
LABELS = st.integers() | st.floats(allow_nan=True) | st.booleans() | st.none()
NEAR_MISSES = (None, "missing key", "extra key", "label", "element label", "longer array",
               "empty array", "nested object")


@st.composite
def tables(draw):
    keys = draw(st.lists(KEYS, min_size=1, max_size=3, unique=True))
    widths = {key: draw(st.sampled_from([0, 1, 2, 3])) for key in keys}  # 0: a string
    value = {key: STRINGS if not w else st.lists(STRINGS, min_size=w, max_size=w)
             for key, w in widths.items()}
    rows = draw(st.lists(st.fixed_dictionaries(value), min_size=1, max_size=5))
    miss = draw(st.sampled_from(NEAR_MISSES))
    row, key = draw(st.sampled_from(rows)), draw(st.sampled_from(keys))
    if miss == "missing key":
        del row[key]
    elif miss == "extra key":
        row[draw(KEYS.filter(lambda k: k not in keys))] = draw(STRINGS)
    elif miss == "label":
        row[key] = draw(LABELS)
    elif miss == "element label" and widths[key]:
        row[key][draw(st.integers(0, widths[key] - 1))] = draw(LABELS)
    elif miss == "longer array" and widths[key]:
        row[key].append(draw(STRINGS))
    elif miss == "empty array":
        row[key] = []
    elif miss == "nested object":
        row[key] = {draw(STRINGS): draw(STRINGS)}
    place = draw(st.sampled_from(["document", "member", "element"]))
    return rows if place == "document" else {"rule": {"table": rows}} if place == "member" \
        else [rows, "x", rows]


@settings(max_examples=300, deadline=None)
@given(tables())
def test_tables_equal_json_dumps(doc):
    assert written(doc) == expected(doc)


def test_a_table_at_scale_is_written_in_chunks_of_rows():
    # 2^16 rows: the table goes out in several writes, none of more than
    # 1024 rows, and no write holds the whole table.
    doc = {"table": [{"outcome": f"o{i % 7}", "profile": [str(i), "é", "a\"b"]}
                     for i in range(1 << 16)]}

    class Writes(list):
        write = list.append

    writes = Writes()
    write_json(doc, writes)
    assert "".join(writes) == expected(doc)
    assert len(writes) > 1 and max(w.count('"outcome"') for w in writes) <= 1024
