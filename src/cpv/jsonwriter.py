"""The cpv-1 writer: instances and protocols as JSON documents, and
indented JSON, for ``--emit`` files and ``--pretty`` reports.

A command imports this module only when it writes one (``--emit`` of
``builtin``, ``synth`` and ``enumerate``, ``run`` and ``--pretty``), so
``check`` and ``validate``, which only read, never compile it.  It must not
import ``cpv.cli``: under ``python -m cpv.cli`` the running module is
``__main__``, and importing ``cpv.cli`` would compile and run it a second
time.  The model shapes and the schema name come from ``cpv.core``.
"""

from __future__ import annotations

import itertools
import os
import stat
from json.encoder import INFINITY, encode_basestring_ascii

from cpv.core import (
    MODEL_SHAPES,
    SCHEMA,
    DomainModel,
    InputError,
    Instance,
    TypeSpace,
    _entries,
    mask_flags,
)
from cpv.protocol import CountQuery, ElicitQuery, MultiCountQuery, Node, Protocol
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
    scalars or an object of those is written in one join, and only deeper
    containers are walked entry by entry, on an explicit stack.  Object keys
    must be strings.  The output goes to ``fh`` in chunks, so no copy of the
    whole document is held.
    """
    strings = _Strings()  # str keys alone, for True == 1 == 1.0 with equal hashes
    parts: list = []
    pads = ["\n"]  # pads[d]: a line break and the indent of depth d
    containers = (dict, list, tuple)

    def scalar(v) -> str:
        if isinstance(v, str):
            return strings[v]
        if v is None or v is True or v is False:
            return "null" if v is None else "true" if v else "false"
        if isinstance(v, int):
            return int.__repr__(v)
        if isinstance(v, float):
            if v != v:
                return "NaN"
            if v in (INFINITY, -INFINITY):
                return "Infinity" if v > 0 else "-Infinity"
            return float.__repr__(v)
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")

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

    t = text(doc, 0)
    if t is None:
        open_(doc, 0)
    else:
        parts.append(t)
    while stack:  # an explicit stack, so that no depth exhausts Python's
        entries, depth, closing = stack[-1]
        for head, x in entries:
            parts.append(head)
            t = text(x, depth)
            if t is None:
                open_(x, depth)
                break
            parts.append(t)
            if len(parts) > 1024:
                fh.write("".join(parts))
                parts.clear()
        else:
            stack.pop()
            parts.append(closing)
    parts.append("\n")
    fh.write("".join(parts))


def write(doc: dict, path: str) -> str:
    """Writes ``doc`` to ``path`` with :func:`_emit`, timed as the emit part
    of the stderr line; returns ``path``."""
    with _timed("emit"):
        _emit(doc, path)
    return path


def _emit(doc: dict, path: str) -> None:
    """Writes ``doc`` over ``path`` in place and cuts off any old tail.

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


# ---------------------------------------------------------------------------
# the cpv-1 documents


def _query_to_json(space: TypeSpace, query) -> dict:
    if isinstance(query, ElicitQuery):
        return {
            "kind": "elicit",
            "agent": query.agent + 1,
            "cells": [
                [space.alphabets[query.agent][t] for t in cell] for cell in query.cells
            ],
        }
    if isinstance(query, CountQuery):
        return {
            "kind": "count",
            "subset": [space.alphabets[0][t] for t in query.subset],
            "cells": [list(cell) for cell in query.cells],
        }
    if isinstance(query, MultiCountQuery):
        return {
            "kind": "multicount",
            "subsets": [[space.alphabets[0][t] for t in sub] for sub in query.subsets],
            "cells": [[list(v) for v in cell] for cell in query.cells],
        }
    return {"kind": "extensional", "cells": [_profiles_to_json(space, m) for m in query.cells]}


def _profiles_to_json(space: TypeSpace, mask: int) -> list:
    labels = itertools.product(*space.alphabets)  # every profile, in index order
    return list(map(list, itertools.compress(labels, mask_flags(mask, space.total))))


def _node_to_json(protocol: Protocol, node: Node) -> dict:
    if node.is_leaf:
        return {}
    children: list = [None] * len(node.query.cells)
    for child_id, cell in zip(node.children, node.cell_of_child):
        children[cell] = _node_to_json(protocol, protocol.nodes[child_id])
    return {
        "query": _query_to_json(protocol.space, node.query),
        "children": children,
    }


def protocol_to_json(protocol: Protocol, phase=None) -> dict:
    space = protocol.space
    doc = {
        "schema": SCHEMA,
        "space": {
            "agents": space.n,
            "alphabets": [list(a) for a in space.alphabets],
        },
        "tree": _node_to_json(protocol, protocol.root),
    }
    if protocol.universe != (1 << space.total) - 1:
        doc["universe"] = _profiles_to_json(space, protocol.universe)
    if phase is not None:
        doc["phase"] = list(phase)
    return doc


def instance_to_json(instance: Instance) -> dict:
    space, rule = instance.space, instance.rule
    doc: dict = {
        "schema": SCHEMA,
        "agents": space.n,
    }
    if space.common_alphabet:
        doc["alphabet"] = list(space.alphabets[0])
    else:
        doc["alphabets"] = [list(a) for a in space.alphabets]
    outcomes = doc["outcomes"] = list(rule.outcomes)
    doc["rule"] = {
        "table": [  # itertools.product lists the profiles in index order
            {"profile": list(labels), "outcome": outcomes[o]}
            for labels, o in zip(itertools.product(*space.alphabets), rule.table)
        ]
    }
    if rule.components is not None:
        doc["components"] = {
            lab: list(row) for lab, row in zip(rule.outcomes, rule.components)
        }
    if instance.model is not None:
        doc["model"] = _model_to_json(instance.model)
    if instance.universe is not None:
        doc["universe"] = _profiles_to_json(space, instance.universe.mask)
    return doc


def _model_to_json(model: DomainModel) -> dict:
    fields = ((key.rstrip("*"), shape) for key, shape in MODEL_SHAPES.items())
    return {
        key: _thaw(shape, v) for key, shape in fields if (v := getattr(model, key)) is not None
    }


def _thaw(shape, value):
    """A model field in the JSON form of its ``shape``: the inverse of
    ``cpv.reader._freeze``."""
    from fractions import Fraction

    if isinstance(shape, dict):
        return {k: _thaw(shape["*"], v) for k, v in value}
    if not isinstance(shape, str):
        return [_thaw(_entries(shape), v) for v in value]
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else str(value)
    return value
