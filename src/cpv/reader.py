"""The cpv-1 reader: the format table ``CPV1``, its checker, and the
loaders that build instances and bundles from checked documents.

Every document is checked against ``CPV1`` before anything is built from
it, so the loaders read fields known to be valid.  The exception is a
protocol tree: each of its nodes is checked against ``CPV1["node"]`` where
the build walk reaches it.  An input error is a ``LoadError`` naming the
JSON pointer (RFC 6901) of the field at fault.  ``load`` is timed as the
load part of the stderr line, and ``cpv.jsonwriter._emit`` as its emit part.

The long arrays of a file, the rows of ``rule.table`` and the profile lists
of universes and extensional cells, are read in whole columns, with C-level
passes and no Python call per entry.  ``_whole`` accepts an array of arrays
of labels, or of flat objects such as table rows, one type pass per field,
and leaves any other array to the per-entry shape walk.  ``_row_indices``
maps label rows to profile indices with ``TypeSpace.indices_of_rows``, one
agent column at a time, and the table scatters its outcome ids by those
indices.  A fast pass decides and a walk only names: where the column pass
refuses a row, the row walk names the first row at fault in document order,
by message and JSON pointer, and builds nothing; a walk that finds no fault
there is a bug.  A repeated profile is named from the indices themselves.

This is a module of its own, the counterpart of ``cpv.jsonwriter``, and
``cpv.cli`` imports it at start-up, since every command but ``builtin``
reads a file.  Without a bytecode cache every module a command loads is
compiled at its start, so the reader keeps only what reading a rule table
needs: the format table and its checker, the type space, the rule, its
universe and its model.  A file that holds a protocol, a bundle's
``protocol`` object or a protocol file, has its tree built in one walk by
``cpv.protocol``, which checks and decodes each node with ``cpv.treereader``
as it reaches it; ``load`` imports both then.  A rule named by
``rule.builtin`` loads the registry ``cpv.mechanisms`` and the module of the
built-in's family.  So ``validate`` of a rule table compiles neither
``cpv.protocol`` nor the tree reader.
Like the writer, it must not import ``cpv.cli``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from itertools import chain
from operator import itemgetter
from typing import Optional

from cpv.core import (
    MODEL_SHAPES,
    SCHEMA,
    ChoiceRule,
    DomainModel,
    InputError,
    Instance,
    LoadError,
    ProfileSet,
    ProtocolBundle,
    TypeSpace,
    _entries,
)

# ---------------------------------------------------------------------------
# the cpv-1 format

# The cpv-1 format, whole.  A document is checked against this table before
# anything is built from it, so the loaders below read fields known to be
# valid; a protocol tree is the exception, read as "any" and checked node by
# node as it is built.  A shape is one of:
#   "str", "int", "label" (a type label or a component: any JSON value but an
#   array or an object), "any", or "schema" (the string "cpv-1");
#   [shape]: an array;
#   {field: shape}: an object.  "field?" may be absent and "field*" may also be
#   null, which reads as absent; "*" stands for every field; others are ignored;
#   ("agents", shape): an array with one entry per agent;
#   ("types", shape): per agent, an array with one entry per type;
#   ("case", select, message): the entry that ``select(value)`` names;
#   the name of another entry.
# A tree node is an object without "query" (a leaf), or else a "node": a query
# and "children", a node or null per cell, each checked when it is reached.
# "agents" and "types" count in the document's own type space, so the entry
# "sized" is checked once that space is built.
# A space names "alphabet", shared by every agent, or else "alphabets", one per
# agent; _space_from_json counts the latter against "agents".
_SPACE = {"agents": "int", "alphabet?": ["label"], "alphabets?": [["label"]]}
_PROTOCOL = {"space?": _SPACE, "universe*": "universe", "tree": "any", "phase?": ["int"]}
CPV1 = {
    "instance": ("case", lambda v: _rule_form(v) + " instance", None),
    "builtin instance": {
        "schema": "schema", "rule": {"builtin": "str", "params*": "params"}, "protocol?": "protocol"
    },
    "table instance": {
        "schema": "schema", "rule": {"table": [{"profile": ["label"], "outcome": "str"}]},
        **_SPACE, "outcomes?": ["str"], "universe*": "universe", "protocol?": "protocol",
    },
    "sized": {"components?": {"*": ("agents", "label")}, "model*": "model"},
    "model": MODEL_SHAPES,
    "params": {
        "n?": "int", "k?": "int", "values?": ["label"], "objects?": ["str"], "order?": ["int"],
        "selection?": "str",
    },
    "universe": ("case", lambda v: {list: "profiles", dict: "factors"}.get(type(v)),
                 "expected profiles or factors"),
    "profiles": [["label"]],
    "factors": {"factors": [["label"]]},
    "protocol": _PROTOCOL,
    "protocol file": {"schema": "schema", **_PROTOCOL},
    "node": {"query": "query", "children?": ["any"]},
    "query": ("case", lambda v: type(v) is dict and f"{v.get('kind')} query",
              "expected a query of kind elicit, count, multicount or extensional"),
    "elicit query": {"agent": "int", "cells": [["label"]]},
    "count query": {"subset": ["label"], "cells": [["int"]]},
    "multicount query": {"subsets": [["label"]], "cells": [[["int"]]]},
    "extensional query": {"cells": [[["label"]]]},
}
_LEAVES = {  # name: (the JSON types it admits, the message for any other)
    "str": ({str}, "expected a string"),
    "int": ({int}, "expected an integer"),
    "label": ({str, int, float, bool, type(None)}, "expected a label, not an array or object"),
    "any": ({str, int, float, bool, type(None), list, dict}, ""),
}


def _rule_form(doc) -> str:
    rule = doc.get("rule") if type(doc) is dict else None
    return "builtin" if type(rule) is dict and "builtin" in rule else "table"


class _Bad(Exception):
    """A value off its shape; ``args``: a message, then pointer segments, innermost first."""


def _compile(shape):
    """The checker of ``shape``: ``check(value, type counts per agent)`` raises ``_Bad``."""
    if isinstance(shape, tuple):
        return _FORMS[shape[0]](*shape[1:])
    if isinstance(shape, list):
        return _array(shape[0])
    if isinstance(shape, dict):
        return _object(shape)
    if shape in CPV1:
        return _compile(CPV1[shape])
    return _schema if shape == "schema" else _leaf(*_LEAVES[shape])


def _schema(v, sizes) -> None:
    if v != SCHEMA:
        raise _Bad(f"unsupported schema, expected {SCHEMA!r}")


def _leaf(admits: set, message: str):
    def check(v, sizes):
        if type(v) not in admits:
            raise _Bad(message)

    return check


def _whole(item, entries) -> bool:
    """Whether every entry of ``entries()``, a fresh iterator at each call,
    is on ``item``, decided by one C-level type pass per field; false where
    ``item`` is not a leaf, an array of one, or an object of such fields,
    all required.  A missing field raises ``KeyError``."""
    if isinstance(item, list):
        return {list}.issuperset(map(type, entries())) and _whole(
            item[0], lambda: chain.from_iterable(entries())
        )
    if isinstance(item, dict):
        if any(key[-1] in "?*" for key in item) or not {dict}.issuperset(map(type, entries())):
            return False
        return all(_whole(shape, lambda get=itemgetter(key): map(get, entries()))
                   for key, shape in item.items())
    leaf = _LEAVES.get(item) if isinstance(item, str) else None
    return leaf is not None and leaf[0].issuperset(map(type, entries()))


def _array(item, per_agent=False, per_type=False):
    item = [item] if per_type else item
    inner = _compile(item)

    def check(v, sizes):
        if type(v) is not list:
            raise _Bad("expected an array")
        if per_agent and len(v) != len(sizes):
            raise _Bad(f"expected {len(sizes)} entries, one per agent")
        try:
            if not per_type and _whole(item, v.__iter__):
                return  # every entry checked in whole columns
        except KeyError:  # a missing field, which the walk names
            pass
        try:
            for i, x in enumerate(v):
                inner(x, sizes)
                if per_type and len(x) != sizes[i]:
                    raise _Bad(f"expected {sizes[i]} entries, one per type")
        except _Bad as bad:
            bad.args += (i,)
            raise

    return check


def _object(fields: dict):
    spec = [(key.rstrip("?*") or "*", key[-1], _compile(shape)) for key, shape in fields.items()]

    def check(v, sizes):
        if type(v) is not dict:
            raise _Bad("expected an object")
        try:
            for key, mark, inner in spec:
                if key == "*":
                    for key, x in v.items():  # so that a failure names its own key
                        inner(x, sizes)
                elif (x := v.get(key, v)) is not v and (x is not None or mark != "*"):
                    inner(x, sizes)  # v itself stands for an absent field
                elif mark not in "?*":
                    raise _Bad("missing field")
        except _Bad as bad:
            bad.args += (key,)
            raise

    return check


def _case(select, message: str):
    def check(v, sizes):
        name = select(v)
        if name not in _CHECKS:
            raise _Bad(message)
        _CHECKS[name](v, sizes)

    return check


_FORMS = {"case": _case, "agents": lambda item: _array(item, per_agent=True),
          "types": lambda item: _array(item, per_agent=True, per_type=True)}
_CHECKS = {name: _compile(name) for name in CPV1}
_MODEL = {key.rstrip("*"): shape for key, shape in MODEL_SHAPES.items()}  # by DomainModel field


def _check(name: str, doc, pointer: str, sizes: tuple = ()) -> None:
    """Raises a LoadError at the first place where ``doc``, the value at
    ``pointer`` (empty for a whole document), is off ``CPV1[name]``."""
    try:
        _CHECKS[name](doc, sizes)
    except _Bad as bad:
        at = "".join("/" + str(s).replace("~", "~0").replace("/", "~1") for s in bad.args[:0:-1])
        raise LoadError(pointer + at or "/", bad.args[0]) from None


@contextmanager
def _at(pointer):
    """Re-raises an input error of the block as a LoadError at ``pointer`` (or ``pointer()``)."""
    try:
        yield
    except LoadError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise LoadError(pointer() if callable(pointer) else pointer, str(exc)) from None


def _freeze(shape, value):
    """A model field as the model holds it: arrays as tuples, objects as sorted pairs."""
    if isinstance(shape, str):
        return value
    if isinstance(shape, dict):
        return tuple(sorted((k, _freeze(shape["*"], v)) for k, v in value.items()))
    return tuple(_freeze(_entries(shape), v) for v in value)


# ---------------------------------------------------------------------------
# loading

# Seconds spent in ``load`` and ``cpv.jsonwriter._emit`` since ``main``
# began, for the timing line on stderr; the rest of a command is its compute.
_SPENT = {"load": 0.0, "emit": 0.0}


@contextmanager
def _timed(key: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        _SPENT[key] += time.perf_counter() - start


def _parse(text: str, where: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        where = f"{where}: line {exc.lineno}, column {exc.colno}"
        raise LoadError("/", f"parse error in {where}") from None
    except ValueError:  # an integer longer than the interpreter converts
        raise LoadError("/", f"parse error in {where}: integer too long") from None
    except RecursionError:
        raise LoadError("/", f"nesting too deep in {where}") from None


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise LoadError("/", f"cannot read {path}: {exc}") from None
    return _parse(text, path)


def _space_from_json(doc, pointer) -> TypeSpace:
    n, key = doc["agents"], "alphabet" if "alphabet" in doc else "alphabets"
    with _at(f"{pointer}/{key}"):  # shared() refuses a huge n before repeating the alphabet
        if key == "alphabet":
            space = TypeSpace.shared(n, doc[key])
        else:
            space = TypeSpace(tuple(map(tuple, doc.get(key, ()))))
        if space.n != n:
            raise InputError(f"expected {n} alphabets")
        return space


def _row_indices(space: TypeSpace, rows: list, at: str) -> list[int]:
    """Profile indices of ``rows``, checked arrays of labels, from the column
    pass :meth:`TypeSpace.indices_of_rows`, which decides.  Where it refuses
    a row, the row walk names the first row at fault, at ``at.format(row)``,
    and builds nothing."""
    try:
        return list(space.indices_of_rows(rows))
    except (LookupError, TypeError):
        with _at(lambda: at.format(r)):
            for r, row in enumerate(rows):
                space.index_of_labels(row)
    raise AssertionError("the column pass refused rows that the row walk reads (bug)")


def _profiles_from_json(space: TypeSpace, profiles, pointer) -> ProfileSet:
    return ProfileSet.from_indices(space, _row_indices(space, profiles, pointer + "/{}"))


def _universe_from_json(spec, space, pointer) -> Optional[ProfileSet]:
    if spec is None:
        return None
    if not spec:  # an empty profile list: a product of nonempty factors is never empty
        raise LoadError(pointer, "universe is empty")
    if isinstance(spec, list):
        return _profiles_from_json(space, spec, pointer)
    if len(spec["factors"]) != space.n:
        raise LoadError(f"{pointer}/factors", f"expected {space.n} factors")
    factors: list[tuple] = []
    with _at(lambda: f"{pointer}/factors/{len(factors)}"):
        factors.extend(space.type_indices(i, labels) for i, labels in enumerate(spec["factors"]))
    with _at(f"{pointer}/factors"):
        return ProfileSet.from_factors(space, factors)


def _model_from_json(spec) -> Optional[DomainModel]:
    if spec is None:
        return None
    model = {k: _freeze(s, spec[k]) for k, s in _MODEL.items() if spec.get(k) is not None}
    values = model.get("values", ())
    if not all(type(v) is int for row in values for v in row):  # JSON integers are exact
        from fractions import Fraction

        with _at("/model/values"):
            model["values"] = tuple(
                tuple(v if type(v) is int else Fraction(str(v)) for v in row) for row in values
            )
    return DomainModel(**model)


def _table_from_json(space: TypeSpace, rows: list, ids: dict) -> list[int]:
    """Outcome ids by profile index from the checked rows of ``rule.table``,
    ``-1`` where no row names the profile; ``ids`` gains the outcome labels
    it lacks, in order of first appearance."""
    outcome = itemgetter("outcome")
    for label in dict.fromkeys(map(outcome, rows)):
        ids.setdefault(label, len(ids))
    keys = _row_indices(space, list(map(itemgetter("profile"), rows)), "/rule/table/{}/profile")
    table = [-1] * space.total
    # any() drains the map: __setitem__ returns None
    any(map(table.__setitem__, keys, map(ids.__getitem__, map(outcome, rows))))
    if table.count(-1) == space.total - len(rows):  # no profile written twice
        return table
    first: dict[int, int] = {}  # the row of each key's first writing
    r = next(r for r, k in enumerate(keys) if first.setdefault(k, r) != r)
    raise LoadError(f"/rule/table/{r}", "duplicate profile row")


def instance_from_json(doc) -> Instance:
    if type(doc) is dict and "rule" not in doc and type(doc.get("family")) is list:
        n = len(doc["family"])
        raise LoadError("/family", f"a family with {n} member{'s' * (n != 1)}, not an instance; "
                        "check each member on its own")
    _check("instance", doc, "")
    rule_spec = doc["rule"]
    if "builtin" in rule_spec:
        from cpv.mechanisms import BUILTIN_RULES

        name = rule_spec["builtin"]
        if name not in BUILTIN_RULES:
            raise LoadError("/rule/builtin", f"unknown builtin {name!r}")
        with _at("/rule/params"):
            built = BUILTIN_RULES[name](rule_spec.get("params") or {})
        if isinstance(built, list):
            raise LoadError("/rule/builtin", f"builtin {name!r} is a family; materialize it first")
        return built
    space = _space_from_json(doc, "")
    _check("sized", doc, "", space.sizes)
    ids = {lab: i for i, lab in enumerate(doc.get("outcomes", []))}
    if len(ids) < len(doc.get("outcomes", [])):
        raise LoadError("/outcomes", "duplicate outcome labels")
    table = _table_from_json(space, rule_spec["table"], ids)
    if -1 in table:
        labels = space.labels(space.profile(table.index(-1)))  # bounded: its first 64 labels
        raise LoadError("/rule/table", f"rule table is not total: missing {list(labels[:64])}"
                        f"{'...' * (len(labels) > 64)}")
    components = doc.get("components")
    if components is not None:
        for lab in ids:
            if lab not in components:
                raise LoadError("/components", f"no components for outcome {lab!r}")
        components = tuple(tuple(map(str, components[lab])) for lab in ids)
    rule = ChoiceRule(space, tuple(ids), tuple(table), components)
    universe = _universe_from_json(doc.get("universe"), space, "/universe")
    return Instance(rule, _model_from_json(doc.get("model")), universe)


@_timed("load")
def load(instance_path: str, protocol_path: str | None = None) -> ProtocolBundle:
    doc = _read_json(instance_path)
    instance = instance_from_json(doc)
    protocol, phase = None, None
    if "protocol" in doc or protocol_path is not None:
        from cpv.treereader import protocol_from_json
    if "protocol" in doc:
        protocol, phase = protocol_from_json(doc["protocol"], instance.space, "/protocol")
    if protocol_path is not None:
        pdoc = _read_json(protocol_path)
        _check("protocol file", pdoc, "")
        protocol, phase = protocol_from_json(pdoc, instance.space, "")
    universe = instance.universe
    if protocol is not None and universe is not None and protocol.universe != universe.mask:
        raise LoadError("/universe", "instance and protocol universes differ")
    return ProtocolBundle(instance, protocol, phase)

