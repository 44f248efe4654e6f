"""File formats, command dispatch, and machine-readable reports.

Interchange is JSON, schema version "cpv-1", whose reference is the table
``CPV1`` below: every document is checked against it before anything is
built from it.  Exit codes: 0 when the checked property holds / synthesis
succeeded / the run completed; 1 when a property fails or nonexistence is
proven (the witness or violation is printed as JSON on stdout); 2 on input
errors, which name the JSON pointer (RFC 6901) of the field at fault, or
on resource errors.  Reports are deterministic: stable key order, no
timestamps (timing goes to stderr).  Agent numbers in files are 1-based.

``--emit`` rewrites its target in place: an existing file keeps its inode
and mode, and only a tail beyond the new end is cut off.  A target that
cannot be written exits 2 with ``cannot write <path>: <reason>``.

The emitted format is a contract: indent 2, keys sorted, every character
outside ASCII escaped, and a line break at the end, the bytes of
``json.dump(doc, fh, indent=2, sort_keys=True)`` followed by ``"\\n"``.
``tests/test_builtin_golden.py`` pins them.  One writer,
``cpv.jsonwriter.write_json``, serves both ``--emit`` and ``--pretty``.
The stderr line splits the elapsed time into load, compute and emit.

Importing this module loads ``core`` and ``protocol`` only; each command
imports the modules it runs when it runs.  Without a bytecode cache every
module loaded is compiled at every start, so what only some commands run
lives elsewhere: the cpv-1 writer in ``cpv.jsonwriter`` (for ``--emit``,
``run`` and ``--pretty``), the protocol checks in ``cpv.privacy`` and the
rule-level checks and synthesis in ``cpv.synthesis`` (for ``check
--property corners|nonbossy`` and ``synth``).  So ``validate`` and
``check`` of CP, ICP, GCP or tatonnement compile neither ``cpv.synthesis``
nor the writer, and ``fractions`` is imported only for a model that holds
values.  Reports, failures included, are formatted here, so a ``check``
or ``synth`` without ``--emit`` imports no writer.

``check --property`` reads one table, ``_PROPERTIES``; its names, in order,
are the choices.  Per property: whether it needs a protocol; the check, which
imports its module, reads the loaded bundle and the report, may add to the
report and returns a ``core.Verdict``; the report key of a failure; and the
failure's JSON, from the type space and the violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
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
    ResourceError,
    TypeSpace,
    Verdict,
    Witness,
    _entries,
    product_factorization,
)
from cpv.protocol import (
    CountQuery,
    ElicitQuery,
    ExtensionalQuery,
    MultiCountQuery,
    NodeSpec,
    Protocol,
    build_from_spec,
    run_protocol,
    validate_phase,
    validate_protocol,
)

# ---------------------------------------------------------------------------
# the cpv-1 format

# The cpv-1 format, whole.  A document is checked against this table before
# anything is built from it, so the loaders below read fields known to be
# valid.  A shape is one of:
#   "str", "int", "label" (a type label or a component: any JSON value but an
#   array or an object), "any", or "schema" (the string "cpv-1");
#   [shape]: an array;
#   {field: shape}: an object.  "field?" may be absent and "field*" may also be
#   null, which reads as absent; "*" stands for every field; others are ignored;
#   ("agents", shape): an array with one entry per agent;
#   ("types", shape): per agent, an array with one entry per type;
#   ("case", select, message): the entry that ``select(value)`` names;
#   ("tree", shape): a protocol tree.  A node is an object without "query" (a
#   leaf) or with a query of the shape and "children", a node or null per cell;
#   the name of another entry.
# "agents" and "types" count in the document's own type space, so the entry
# "sized" is checked once that space is built.
# A space names "alphabet", shared by every agent, or else "alphabets", one per
# agent; _space_from_json counts the latter against "agents".
_SPACE = {"agents": "int", "alphabet?": ["label"], "alphabets?": [["label"]]}
_PROTOCOL = {
    "space?": _SPACE, "universe*": "universe", "tree": ("tree", "query"), "phase?": ["int"]
}
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


def _array(item, per_agent=False, per_type=False):
    item = [item] if per_type else item
    scalars = _LEAVES[item][0] if isinstance(item, str) and item in _LEAVES else ()
    inner = _compile(item)

    def check(v, sizes):
        if type(v) is not list:
            raise _Bad("expected an array")
        if per_agent and len(v) != len(sizes):
            raise _Bad(f"expected {len(sizes)} entries, one per agent")
        if scalars and scalars.issuperset(map(type, v)):
            return  # every entry checked in one pass
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


def _tree(query):
    queried = _object({"query": query, "children?": ["any"]})

    def check(v, sizes):
        stack = [(v, ())]  # an explicit stack, so that no depth exhausts Python's
        while stack:
            node, path = stack.pop()
            try:
                if type(node) is not dict:
                    raise _Bad("expected a node object")
                if "query" not in node:
                    if node.get("children"):
                        raise _Bad("children without a query")
                    continue
                queried(node, sizes)
                children = node.get("children", [])
                for i in reversed(range(len(children))):  # the first cell's subtree first
                    if children[i] is not None:
                        stack.append((children[i], (*path, "children", i)))
            except _Bad as bad:
                bad.args += tuple(reversed(path))
                raise

    return check


_FORMS = {"case": _case, "tree": _tree, "agents": lambda item: _array(item, per_agent=True),
          "types": lambda item: _array(item, per_agent=True, per_type=True)}
_CHECKS = {name: _compile(name) for name in CPV1}
_MODEL = {key.rstrip("*"): shape for key, shape in MODEL_SHAPES.items()}  # by DomainModel field


def _check(name: str, doc, sizes: tuple = ()) -> None:
    """Raises a LoadError at the first place where ``doc`` is off ``CPV1[name]``."""
    try:
        _CHECKS[name](doc, sizes)
    except _Bad as bad:
        at = "".join("/" + str(s).replace("~", "~0").replace("/", "~1") for s in bad.args[:0:-1])
        raise LoadError(at or "/", bad.args[0]) from None


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

# Seconds spent in ``load`` and ``_write`` since ``main`` began, for the
# timing line on stderr; the rest of a command is its compute.
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
    except RecursionError:
        raise LoadError("/", f"nesting too deep in {where}") from None


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _parse(fh.read(), path)
    except OSError as exc:
        raise LoadError("/", f"cannot read {path}: {exc}") from None


def _space_from_json(doc, pointer) -> TypeSpace:
    n, key = doc["agents"], "alphabet" if "alphabet" in doc else "alphabets"
    alphabets = (tuple(doc[key]),) * n if key == "alphabet" else tuple(map(tuple, doc.get(key, ())))
    with _at(f"{pointer}/{key}"):
        space = TypeSpace(alphabets)
        if space.n != n:
            raise InputError(f"expected {n} alphabets")
        return space


def _profiles_from_json(space: TypeSpace, profiles, pointer) -> ProfileSet:
    indices: list[int] = []  # on an error, those of the profiles before it
    with _at(lambda: f"{pointer}/{len(indices)}"):
        indices.extend(map(space.index_of_labels, profiles))
    return ProfileSet.from_indices(space, indices)


def _universe_from_json(spec, space, pointer) -> Optional[ProfileSet]:
    if spec is None:
        return None
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
    if "values" in model:
        from fractions import Fraction

        with _at("/model/values"):
            model["values"] = tuple(tuple(map(Fraction, map(str, row))) for row in model["values"])
    return DomainModel(**model)


def instance_from_json(doc) -> Instance:
    if type(doc) is dict and "rule" not in doc and type(doc.get("family")) is list:
        n = len(doc["family"])
        raise LoadError("/family", f"a family with {n} member{'s' * (n != 1)}, not an instance; "
                        "check each member on its own")
    _check("instance", doc)
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
    _check("sized", doc, space.sizes)
    ids = {lab: i for i, lab in enumerate(doc.get("outcomes", []))}
    if len(ids) < len(doc.get("outcomes", [])):
        raise LoadError("/outcomes", "duplicate outcome labels")
    table = [-1] * space.total
    r = 0
    with _at(lambda: f"/rule/table/{r}/profile"):
        for r, row in enumerate(rule_spec["table"]):
            k = space.index_of_labels(row["profile"])
            if table[k] != -1:
                raise LoadError(f"/rule/table/{r}", "duplicate profile row")
            table[k] = ids.setdefault(row["outcome"], len(ids))
    if -1 in table:
        labels = space.labels(space.profile(table.index(-1)))
        raise LoadError("/rule/table", f"rule table is not total: missing {list(labels)}")
    components = doc.get("components")
    if components is not None:
        for lab in ids:
            if lab not in components:
                raise LoadError("/components", f"no components for outcome {lab!r}")
        components = tuple(tuple(map(str, components[lab])) for lab in ids)
    rule = ChoiceRule(space, tuple(ids), tuple(table), components)
    universe = _universe_from_json(doc.get("universe"), space, "/universe")
    return Instance(rule, _model_from_json(doc.get("model")), universe)


def _query_from_json(space: TypeSpace, spec, pointer):
    kind, cells = spec["kind"], spec["cells"]
    if kind == "elicit":
        agent = spec["agent"] - 1
        if not 0 <= agent < space.n:
            raise LoadError(f"{pointer}/agent", "agent number out of range")
        with _at(f"{pointer}/cells"):
            return ElicitQuery(agent, tuple(space.type_indices(agent, c) for c in cells))
    if kind == "count":
        with _at(f"{pointer}/subset"):
            return CountQuery(space.type_indices(0, spec["subset"]), tuple(map(tuple, cells)))
    if kind == "multicount":
        with _at(f"{pointer}/subsets"):
            subsets = tuple(space.type_indices(0, sub) for sub in spec["subsets"])
        return MultiCountQuery(subsets, tuple(tuple(map(tuple, c)) for c in cells))
    sets = (_profiles_from_json(space, c, f"{pointer}/cells/{i}") for i, c in enumerate(cells))
    return ExtensionalQuery(tuple(s.mask for s in sets))


def _spec_from_json(space: TypeSpace, node, pointer) -> Optional[NodeSpec]:
    if node is None or "query" not in node:
        return None if node is None else NodeSpec()
    children = tuple(
        _spec_from_json(space, child, f"{pointer}/children/{i}")
        for i, child in enumerate(node.get("children", []))
    )
    return NodeSpec(_query_from_json(space, node["query"], f"{pointer}/query"), children)


def _protocol_from_json(doc, space: TypeSpace, pointer: str) -> tuple[Protocol, Optional[tuple]]:
    """Protocol and phase of the checked protocol object of a file or bundle at ``pointer``."""
    if "space" in doc and _space_from_json(doc["space"], f"{pointer}/space") != space:
        raise LoadError(f"{pointer}/space", "protocol and instance type spaces differ")
    universe = _universe_from_json(doc.get("universe"), space, f"{pointer}/universe")
    if universe is not None and universe.is_empty:
        raise LoadError(f"{pointer}/universe", "universe is empty")
    spec = _spec_from_json(space, doc["tree"], f"{pointer}/tree")
    protocol = build_from_spec(space, spec, universe)
    phase = tuple(doc["phase"]) if "phase" in doc else None
    if phase is not None:
        validate_phase(protocol, phase, f"{pointer}/phase")
    return protocol, phase


@_timed("load")
def load(instance_path: str, protocol_path: str | None = None) -> ProtocolBundle:
    doc = _read_json(instance_path)
    instance = instance_from_json(doc)
    protocol, phase = None, None
    if "protocol" in doc:
        protocol, phase = _protocol_from_json(doc["protocol"], instance.space, "/protocol")
    if protocol_path is not None:
        pdoc = _read_json(protocol_path)
        _check("protocol file", pdoc)
        protocol, phase = _protocol_from_json(pdoc, instance.space, "")
    universe = instance.universe
    if protocol is not None and universe is not None and protocol.universe != universe.mask:
        raise LoadError("/universe", "instance and protocol universes differ")
    return ProtocolBundle(instance, protocol, phase)


# ---------------------------------------------------------------------------
# reports and writing


def witness_to_json(space: TypeSpace, witness: Witness) -> dict:
    return {"factors": [list(f) for f in witness.labels(space)]}


def _write(doc: dict, path: str) -> str:
    """Writes ``doc`` to ``path`` with ``cpv.jsonwriter._emit``, timed as
    the emit part of the stderr line; returns ``path``."""
    with _timed("emit"):
        _cpv("jsonwriter")._emit(doc, path)
    return path


def _cpv(module: str):
    """The module ``cpv.<module>``, imported when a command first runs it."""
    return __import__(f"cpv.{module}", fromlist=["*"])


def _report(doc: dict, pretty: bool) -> None:
    if pretty:
        from cpv.jsonwriter import write_json

        write_json(doc, sys.stdout)
    else:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


# ---------------------------------------------------------------------------
# commands


def _cmd_validate(args) -> tuple[int, dict]:
    loaded = load(args.instance, args.protocol)
    doc = {"command": "validate", "instance": "ok"}
    if loaded.protocol is not None:
        if defects := validate_protocol(loaded.protocol):
            raise InputError("; ".join(defects))
        doc["protocol"] = "ok"
        doc["notes"] = list(loaded.protocol.notes)
    return 0, doc


def _tatonnement(b: ProtocolBundle, doc: dict) -> Verdict:
    """Tatonnement on the file's phase, or else on a discovered one."""
    tatonnement, rule, phase = _cpv("tatonnement"), b.instance.rule, b.phase
    if phase is None:
        phase = tatonnement.phase_discovery(b.protocol, rule)
        doc["discovered_phase"] = list(phase) if phase else None
        if phase is None:
            return Verdict(False, ("no initial phase with disjoint outcome reach", None))
    verdict = tatonnement.check_tatonnement(b.protocol, rule, phase)
    if not verdict.ok:  # where it fails: two end nodes, an uncovered leaf or an end node
        failure, at = verdict.violation
        if failure == "disjointness":
            doc["failure_at"] = {"nodes": list(at[:2]), "shared": at[2]}
        elif failure == "coverage":
            doc["failure_at"] = {"leaf": at}
        else:
            doc["failure_at"] = {"node": at[0], "violation": _cp_to_json(b.instance.space, at[1])}
    return verdict


def _labels(space: TypeSpace, profiles) -> list:
    return [list(space.labels(p)) for p in profiles]


def _cp_to_json(space: TypeSpace, v) -> dict:
    types = space.alphabets[v.agent]
    return {
        "agent": v.agent + 1, "types": [types[v.type_a], types[v.type_b]],
        "profiles": _labels(space, (v.profile_a, v.profile_b)), "leaves": [v.leaf_a, v.leaf_b],
        "shared": v.detail,
    }


def _corners_to_json(space: TypeSpace, v) -> dict:
    i, j = space.alphabets[v.agent_i], space.alphabets[v.agent_j]
    return {
        "agents": [v.agent_i + 1, v.agent_j + 1], "types_i": [i[t] for t in v.types_i],
        "types_j": [j[t] for t in v.types_j], "at": list(space.labels(v.rest)),
        "shared": v.shared_outcome, "fourth": v.fourth_outcome,
    }


def _nonbossy_to_json(space: TypeSpace, violation) -> dict:
    i, t, t2, profile, j = violation
    return {
        "agent": i + 1, "types": [space.alphabets[i][t], space.alphabets[i][t2]],
        "profile": list(space.labels(profile)), "affected": j + 1,
    }


def _osp_to_json(space: TypeSpace, violation) -> dict:
    node, agent, true_type, _ = violation
    return {"node": node, "agent": agent + 1, "true_type": space.alphabets[agent][true_type]}


_PROPERTIES = {  # the module docstring states its shape
    "cp": (
        True, lambda b, doc: _cpv("privacy").check_protocol_cp(b.protocol, b.instance.rule),
        "violation", _cp_to_json,
    ),
    "gcp": (
        True, lambda b, doc: _cpv("privacy").check_protocol_gcp(b.protocol, b.instance.rule),
        "violation", lambda space, v: {"node": v[0], "profiles": _labels(space, v[1])},
    ),
    "icp": (
        True, lambda b, doc: _cpv("privacy").check_protocol_icp(b.protocol, b.instance.rule),
        "violation", _cp_to_json,
    ),
    "tatonnement": (True, _tatonnement, "failure", lambda space, v: v[0]),
    "corners": (
        False, lambda b, doc: _cpv("synthesis").corners_scan(b.instance.rule, b.instance.universe),
        "violation", _corners_to_json,
    ),
    "nonbossy": (
        False, lambda b, doc: _cpv("synthesis").check_nonbossy(b.instance.rule),
        "violation", _nonbossy_to_json,
    ),
    **dict.fromkeys(("efficient", "ir", "stable", "sp"), (
        False, lambda b, doc: _cpv("mechanisms").check_rule_property(
            b.instance.rule, b.instance.model, doc["property"], b.instance.universe
        ),
        "counterexample", lambda space, example: example,
    )),
    "osp": (
        True, lambda b, doc: _cpv("mechanisms").check_protocol_osp(
            b.protocol, b.instance.rule, b.instance.model
        ),
        "violation", _osp_to_json,
    ),
}


def _cmd_check(args) -> tuple[int, dict]:
    loaded = load(args.instance, args.protocol)
    prop = args.property
    needs_protocol, check, key, to_json = _PROPERTIES[prop]
    if needs_protocol and loaded.protocol is None:
        raise InputError(f"property {prop!r} needs a protocol file")
    doc: dict = {"command": "check", "property": prop}
    verdict = check(loaded, doc)
    doc["holds"] = verdict.ok
    if not verdict.ok:
        doc[key] = to_json(loaded.instance.space, verdict.violation)
    return (0 if verdict.ok else 1), doc


def _cmd_synth(args) -> tuple[int, dict]:
    synthesis = _cpv("synthesis")
    loaded = load(args.instance)
    instance = loaded.instance
    factors = None
    if instance.universe is not None:
        factors = product_factorization(instance.space, instance.universe)
        if factors is None:
            raise InputError("synthesis needs a product universe")
    result = synthesis.synthesize_or_witness(instance.rule, factors)
    if isinstance(result, Protocol):
        doc = {
            "command": "synth",
            "result": "protocol",
            "nodes": len(result.nodes),
            "leaves": len(result.leaves()),
        }
        if args.emit:
            doc["emitted"] = _write(_cpv("jsonwriter").protocol_to_json(result), args.emit)
        return 0, doc
    minimized = synthesis.witness_minimize(instance.rule, result)
    doc = {
        "command": "synth",
        "result": "witness",
        "witness": witness_to_json(instance.space, result),
        "minimized": witness_to_json(instance.space, minimized),
    }
    return 1, doc


def _cmd_run(args) -> tuple[int, dict]:
    loaded = load(args.instance, args.protocol)
    if loaded.protocol is None:
        raise InputError("run needs a protocol")
    space = loaded.instance.space
    try:
        entries = json.loads(args.profile)
    except ValueError:
        entries = None
    if isinstance(entries, list) and len(entries) == space.n:  # the labels with these JSON texts
        labels = []
        for i, (alphabet, entry) in enumerate(zip(space.alphabets, entries)):
            named = [t for t in alphabet if json.dumps(t) == json.dumps(entry)]
            if not named:
                raise InputError(f"agent {i}: unknown type label {entry!r}")
            labels.append(named[0])
    else:
        labels = [s.strip() for s in args.profile.split(",")]
        if len(labels) == space.n:  # the string label equal to an entry, else the one it spells in JSON
            labels = [
                lab if lab in alphabet else next((t for t in alphabet if json.dumps(t) == lab), lab)
                for alphabet, lab in zip(space.alphabets, labels)
            ]
    profile = space.profile_of_labels(labels)
    path, leaf, outcome = run_protocol(loaded.protocol, profile, loaded.instance.rule)
    doc = {
        "command": "run",
        "path": [{"node": node, "query": query, "answer": pos} for node, query, pos in path],
        "leaf": leaf,
        "leaf_profiles": _cpv("jsonwriter")._profiles_to_json(
            space, loaded.protocol.nodes[leaf].label
        ),
        "outcome": outcome,
    }
    return 0, doc


def _cmd_enumerate(args) -> tuple[int, dict]:
    from cpv.search import drawn_kinds, exhaustive_cp_search

    loaded = load(args.instance)
    result = exhaustive_cp_search(
        loaded.instance.rule, args.queries, args.max_states, loaded.instance.universe
    )
    doc = {
        "command": "enumerate",
        "family": drawn_kinds(loaded.instance.space, args.queries),
        "queries": args.queries,
        "status": result.status,
        "states": result.states,
    }
    if result.status == "found":
        if args.emit:
            pdoc = _cpv("jsonwriter").protocol_to_json(result.protocol)
            doc["emitted"] = _write(pdoc, args.emit)
        doc["nodes"] = len(result.protocol.nodes)
        return 0, doc
    if result.status == "nonexistent":
        doc["result"] = "proven-nonexistent"
        return 1, doc
    raise ResourceError(f"search budget exhausted after {result.states} states")


def _cmd_builtin(args) -> tuple[int, dict]:
    from cpv.mechanisms import BUILTIN_PROTOCOLS, BUILTIN_RULES

    params = _parse(args.params, "--params") if args.params else {}
    _check("params", params)
    name = args.name
    table = BUILTIN_PROTOCOLS if name in BUILTIN_PROTOCOLS else BUILTIN_RULES
    if name not in table:
        raise InputError(f"unknown builtin {name!r}")
    with _at("/"):
        built = table[name](params)
    doc: dict = {"command": "builtin", "name": name}
    if table is BUILTIN_PROTOCOLS:
        doc.update(kind="protocol", nodes=len(built.protocol.nodes))
        doc["profiles"] = built.instance.space.total
    elif isinstance(built, list):
        doc.update(kind="family", members=len(built))
    else:
        doc.update(kind="rule", profiles=built.space.total, rows=len(built.rule.table))
    if args.emit:
        doc["emitted"] = _write(_builtin_to_json(built), args.emit)
    return 0, doc


def _builtin_to_json(built) -> dict:
    """The cpv-1 document of a built-in protocol bundle, family or rule."""
    writer = _cpv("jsonwriter")
    if isinstance(built, ProtocolBundle):
        out = writer.instance_to_json(built.instance)
        pdoc = writer.protocol_to_json(built.protocol, built.phase)
        out["protocol"] = {k: v for k, v in pdoc.items() if k not in ("schema", "space")}
        return out
    if isinstance(built, list):
        return {"schema": SCHEMA, "family": [writer.instance_to_json(b) for b in built]}
    return writer.instance_to_json(built)


# ---------------------------------------------------------------------------
# entry point


def __getattr__(name: str):
    """The writer functions that ``bench/spans.py`` ``TARGETS`` still names
    as ``cpv.cli`` attributes, from ``cpv.jsonwriter``; no other name."""
    if name in ("instance_to_json", "protocol_to_json", "_emit"):
        return getattr(_cpv("jsonwriter"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpv",
        description="verify, synthesize, and search contextually private protocols.",
    )
    parser.add_argument("--pretty", action="store_true", help="indent JSON reports")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load files and check structural invariants")
    p.add_argument("instance")
    p.add_argument("protocol", nargs="?")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("check", help="check a property of a rule or protocol")
    p.add_argument("--property", required=True, choices=list(_PROPERTIES))
    p.add_argument("instance")
    p.add_argument("protocol", nargs="?")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("synth", help="synthesize a private protocol or a witness")
    p.add_argument("instance")
    p.add_argument("--emit", help="write the protocol file here")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("run", help="walk a protocol on one profile")
    p.add_argument(
        "--profile", required=True,
        help="comma-separated type labels, a label that is not a string as JSON, e.g. 1 or "
        "null; or a JSON array of the labels, e.g. '[\"a,b\", \" c\"]'",
    )
    p.add_argument("instance")
    p.add_argument("protocol", nargs="?")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("enumerate", help="exhaustive implementability search")
    p.add_argument("--queries", default="elicit", help="elicit[,count][,multicount]")
    p.add_argument("--max-states", type=int, default=100_000)
    p.add_argument("--emit", help="write a found protocol here")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "builtin",
        help="materialize a built-in rule or protocol",
        description="materialize a built-in rule or protocol.  A protocol name "
        "wins over a rule name: serial_dictatorship emits the protocol bundle, "
        "and the rule alone is reachable through rule.builtin in an instance file.  "
        "A parameter the built-in does not take exits 2, here and in rule.params.",
    )
    p.add_argument("name")
    p.add_argument("--params", help="JSON object of parameters")
    p.add_argument("--emit", help="write the instance/bundle file here")
    p.set_defaults(func=_cmd_builtin)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _SPENT.update(load=0.0, emit=0.0)
    start = time.perf_counter()
    try:
        code, doc = args.func(args)
    except (ResourceError, RecursionError) as exc:
        _report({"error": str(exc), "kind": "resource"}, args.pretty)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        _report({"error": str(exc)}, args.pretty)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc["schema"] = SCHEMA
    _report(doc, args.pretty)
    load, emit = _SPENT["load"], _SPENT["emit"]
    total = time.perf_counter() - start
    print(f"elapsed: {total:.3f}s (load {load:.3f}s, compute {total - load - emit:.3f}s, "
          f"emit {emit:.3f}s)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
