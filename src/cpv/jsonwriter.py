"""The cpv-1 writer: indented JSON for ``--emit`` files and ``--pretty``
reports, and protocols as cpv-1 documents.

A command imports this module only when it writes one (``--emit`` of
``builtin``, ``synth`` and ``enumerate``, ``run`` and ``--pretty``), so
``check`` and ``validate``, which only read, never compile it.  It must not
import ``cpv.cli``: under ``python -m cpv.cli`` the running module is
``__main__``, and importing ``cpv.cli`` would compile and run it a second
time.  The schema name comes from ``cpv.core``.

Writing a rule or a report compiles no protocol module:
:func:`protocol_to_json` imports the query classes where it runs.  An
instance's document is built by ``cpv.mechanisms.instance_to_json``, since
only ``builtin`` writes one, so ``synth --emit`` and ``enumerate --emit``,
which write protocols alone, compile none of it.
"""

from __future__ import annotations

import os
import stat
from itertools import chain, compress, product
from json import dumps
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from cpv.core import SCHEMA, InputError, TypeSpace, mask_flags
from cpv.reader import _timed


class _Strings(dict):
    """str -> its JSON text, each encoded once; a key that is no str raises TypeError."""

    def __missing__(self, s):
        text = self[s] = encode_basestring_ascii(s)
        return text


def write_json(doc, fh) -> None:
    """Writes ``doc`` and a line break to ``fh``, the bytes of
    ``json.dump(doc, fh, indent=2, sort_keys=True)`` and ``fh.write("\\n")``.

    With ``indent`` set, ``json`` always runs its pure-Python encoder.  Here
    each distinct string is escaped once by the C encoder, an array of
    scalars or an object of those is written in one join, and a table (an
    array of objects with one key set, each value a string, or an array of
    strings of one length per key, such as ``rule.table``) is written from
    one ``%`` template per array, its rows filled and joined at C level.
    Only other containers are walked entry by entry, on an explicit stack.
    Object keys must be strings.  The output goes to ``fh`` in chunks, a
    table's at most 1024 rows each, so no copy of the whole document is held.
    """
    strings = _Strings()  # str keys alone, for True == 1 == 1.0 with equal hashes
    parts: list = []
    pads = ["\n"]  # pads[d]: a line break and the indent of depth d
    containers = (dict, list, tuple)

    def scalar(v) -> str:
        """The text of a value that is no container; ``json`` writes one
        that is no string as ``indent`` would, and refuses what it cannot."""
        return strings[v] if isinstance(v, str) else dumps(v)

    def text(v, depth: int):
        """The text of a scalar, of an array of scalars, or of an object whose
        values are those, at ``depth``; None for any other container."""
        if type(v) is str:
            return strings[v]
        if not isinstance(v, containers):
            return scalar(v)
        if not v:
            return "{}" if isinstance(v, dict) else "[]"
        if len(pads) == depth + 1:
            pads.append(pads[depth] + "  ")
        sep = "," + pads[depth + 1]
        if isinstance(v, dict):
            entries = []
            for k, x in sorted(v.items()):
                x = None if isinstance(x, dict) else text(x, depth + 1)
                if x is None:
                    return None
                entries.append(strings[k] + ": " + x)
            return "{" + pads[depth + 1] + sep.join(entries) + pads[depth] + "}"
        try:
            body = sep.join(map(strings.__getitem__, v))
        except TypeError:  # an entry that is no string
            if any(isinstance(x, containers) for x in v):
                return None
            body = sep.join(map(scalar, v))
        return "[" + pads[depth + 1] + body + pads[depth] + "]"

    stack: list = []  # per open container: its (head, entry) pairs, their depth, its close

    def open_(v, depth: int) -> None:
        """Opens a container that ``text`` leaves alone.  The head of an entry
        is the separator before it, the first one's the opening bracket, and
        its key."""
        sep = "," + pads[depth + 1]
        if isinstance(v, dict):
            items = sorted(v.items())
            heads, bracket = [sep + strings[k] + ": " for k, _ in items], "{"
            v = [x for _, x in items]
        else:
            heads, bracket = [sep] * len(v), "["
        heads[0] = bracket + heads[0][1:]
        stack.append((zip(heads, v), depth + 1, pads[depth] + ("}" if bracket == "{" else "]")))

    def table(v, depth: int) -> bool:
        """Writes ``v``, at ``depth``, if it is a table; False, having
        written nothing, for any other container.  The row template is the
        text of a sample row whose strings are NUL, each then made ``%s``."""
        # the keys of an object are no objects, so only an array passes
        if {*map(type, v)} != {dict} or {*map(len, v)} != {len(v[0])} or not v[0]:
            return False
        columns, sample = [], {}  # per key: its getter and array length, 0 for a string
        for key in sorted(v[0]):
            get = itemgetter(key)
            try:
                kinds = {*map(type, map(get, v))}
            except KeyError:  # a row with another key set of the same size
                return False
            width = len(v[0][key]) if kinds <= {list, tuple} else 0
            if "\0" in key or kinds != {str} and (
                not width or {*map(len, map(get, v))} != {width}
                or {*map(type, chain.from_iterable(map(get, v)))} != {str}
            ):
                return False
            columns.append((get, width))
            sample[key] = ["\0"] * width if width else "\0"
        row = text(sample, depth + 1).replace("%", "%%").replace('"\\u0000"', "%s")
        sep = "," + pads[depth + 1]
        parts.append("[" + sep[1:])
        for start in range(0, len(v), 1024):  # the strings of each column of 1024 rows
            rows = v[start:start + 1024]
            cells: list = []
            for get, width in columns:
                cells += zip(*map(get, rows)) if width else [map(get, rows)]
            texts = zip(*[map(strings.__getitem__, column) for column in cells])
            parts.append(sep * (start > 0) + sep.join(map(row.__mod__, texts)))
            fh.write("".join(parts))
            parts.clear()
        parts.append(pads[depth] + "]")
        return True

    stack.append((iter([("", doc)]), 0, ""))  # the document, as one entry at depth 0
    while stack:  # an explicit stack, so that no depth exhausts Python's
        entries, depth, closing = stack[-1]
        for head, x in entries:
            parts.append(head)
            t = text(x, depth)
            if t is not None:
                parts.append(t)
            elif not table(x, depth):
                open_(x, depth)
                break
            if len(parts) > 1024:
                fh.write("".join(parts))
                parts.clear()
        else:
            stack.pop()
            parts.append(closing)
    parts.append("\n")
    fh.write("".join(parts))


@_timed("emit")
def _emit(doc: dict, path: str) -> str:
    """Writes ``doc`` over ``path`` in place, cuts off any old tail and
    returns ``path``; timed as the emit part of the stderr line.

    Opening with truncation frees all of an old file's blocks, and where
    the filesystem discards freed blocks (ext4 mounted with ``discard``)
    the writer waits for that; a temporary file renamed over the target
    waits as long.  Rewritten in place, an unchanged document frees nothing.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8") as fh:
            write_json(doc, fh)
            if stat.S_ISREG(os.fstat(fd).st_mode):  # a pipe or a terminal cannot seek
                fh.truncate()
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None
    return path


# ---------------------------------------------------------------------------
# the cpv-1 documents


def _profiles_to_json(space: TypeSpace, mask: int) -> list:
    labels = product(*space.alphabets)  # every profile, in index order
    return list(map(list, compress(labels, mask_flags(mask, space.total))))


def protocol_to_json(protocol, phase=None) -> dict:
    """The cpv-1 document of a protocol.  The query classes are imported
    here, so that writing an instance compiles no protocol module."""
    from cpv.protocol import CountQuery, ElicitQuery

    space = protocol.space

    def labels(agent: int, types) -> list:
        return list(map(space.alphabets[agent].__getitem__, types))

    def query_json(query) -> dict:
        if isinstance(query, ElicitQuery):
            return {
                "kind": "elicit",
                "agent": query.agent + 1,
                "cells": [labels(query.agent, cell) for cell in query.cells],
            }
        if isinstance(query, CountQuery):
            if len(query.subsets) == 1:  # its counts as numbers
                return {
                    "kind": "count",
                    "subset": labels(0, query.subsets[0]),
                    "cells": [[c for (c,) in cell] for cell in query.cells],
                }
            return {
                "kind": "multicount",
                "subsets": [labels(0, sub) for sub in query.subsets],
                "cells": [[list(v) for v in cell] for cell in query.cells],
            }
        return {"kind": "extensional", "cells": [_profiles_to_json(space, m) for m in query.cells]}

    trees: list = [{} for _ in protocol.nodes]  # per node id, filled in place
    for node in protocol.nodes:
        if node.children:
            children: list = [None] * len(node.query.cells)
            for child_id, cell in zip(node.children, node.cell_of_child):
                children[cell] = trees[child_id]
            trees[node.id].update(query=query_json(node.query), children=children)
    doc = {
        "schema": SCHEMA,
        "space": {
            "agents": space.n,
            "alphabets": [list(a) for a in space.alphabets],
        },
        "tree": trees[0],
    }
    if protocol.universe != (1 << space.total) - 1:
        doc["universe"] = _profiles_to_json(space, protocol.universe)
    if phase is not None:
        doc["phase"] = list(phase)
    return doc
