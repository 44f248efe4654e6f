"""File formats, command dispatch, and machine-readable reports.

Interchange is JSON, schema version "cpv-1".  Exit codes: 0 when the
checked property holds / synthesis succeeded / the run completed; 1 when
a property fails or nonexistence is proven (the witness or violation is
printed as JSON on stdout); 2 on input or resource errors.  Reports are
deterministic: stable key order, no timestamps (timing goes to stderr).
Agent numbers in files are 1-based.

The environment variable ``CPV_THREADS`` is reserved: nothing runs in
parallel yet, so its value changes nothing, but a value that is not a
positive integer exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from typing import Optional

from cpv.core import (
    ChoiceRule,
    InputError,
    ProfileSet,
    ResourceError,
    TypeSpace,
    Witness,
    product_factorization,
    record,
)
from cpv.mechanisms import (
    BUILTIN_PROTOCOLS,
    BUILTIN_RULES,
    DomainModel,
    Instance,
    check_protocol_osp,
    check_rule_property,
)
from cpv.privacy import (
    check_nonbossy,
    check_protocol_cp,
    check_protocol_gcp,
    check_protocol_icp,
    corners_scan,
    synthesize_or_witness,
    witness_minimize,
)
from cpv.protocol import (
    CountQuery,
    ElicitQuery,
    ExtensionalQuery,
    MultiCountQuery,
    Node,
    NodeSpec,
    Protocol,
    build_from_spec,
    run_protocol,
    validate_protocol,
)
from cpv.search import QueryFamily, SearchBudget, exhaustive_cp_search
from cpv.tatonnement import check_tatonnement, phase_discovery

SCHEMA = "cpv-1"


class LoadError(InputError):
    def __init__(self, path: str, message: str) -> None:
        self.pointer = path
        super().__init__(f"{message} (at {path})")


# ---------------------------------------------------------------------------
# loading


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise LoadError("/", f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise LoadError(
            "/", f"parse error in {path}: line {exc.lineno}, column {exc.colno}"
        ) from None
    except RecursionError:
        raise LoadError("/", f"nesting too deep in {path}") from None


def _expect(doc, key, kind, pointer):
    if not isinstance(doc, dict):
        raise LoadError(pointer or "/", "expected an object")
    if key not in doc:
        raise LoadError(f"{pointer}/{key}", "missing field")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise LoadError(f"{pointer}/{key}", f"expected {kind.__name__}")
    return value


def _list_of(value, kind, pointer, what):
    """``value``, checked to be a list whose entries are ``kind``."""
    if not isinstance(value, list):
        raise LoadError(pointer, "expected list")
    for j, item in enumerate(value):
        if not isinstance(item, kind):
            raise LoadError(f"{pointer}/{j}", f"expected {what}")
    return value


def _check_schema(doc, pointer=""):
    if not isinstance(doc, dict):
        raise LoadError(pointer or "/", "expected an object")
    version = doc.get("schema")
    if version != SCHEMA:
        raise LoadError(f"{pointer}/schema", f"unsupported schema {version!r}")


def _alphabet_from_json(alphabet, pointer) -> tuple:
    if not isinstance(alphabet, list):
        raise LoadError(pointer, "expected list")
    for j, lab in enumerate(alphabet):
        if isinstance(lab, (list, dict)):
            raise LoadError(f"{pointer}/{j}", "expected a type label, not an array or object")
    return tuple(alphabet)


def _space_from_json(doc, pointer) -> TypeSpace:
    n = _expect(doc, "agents", int, pointer)
    if "alphabet" in doc:
        return TypeSpace.shared(n, _alphabet_from_json(doc["alphabet"], f"{pointer}/alphabet"))
    alphabets = _expect(doc, "alphabets", list, pointer)
    if len(alphabets) != n:
        raise LoadError(f"{pointer}/alphabets", f"expected {n} alphabets")
    return TypeSpace(
        tuple(_alphabet_from_json(a, f"{pointer}/alphabets/{i}") for i, a in enumerate(alphabets))
    )


def _profiles_from_json(space: TypeSpace, profiles, pointer) -> ProfileSet:
    """The profile set of a list of profiles, each a list of type labels."""
    if not isinstance(profiles, list):
        raise LoadError(pointer, "expected list")
    indices = []
    for j, labels in enumerate(profiles):
        if not isinstance(labels, list):
            raise LoadError(f"{pointer}/{j}", "expected a list of type labels")
        indices.append(space.index_of_labels(labels))
    return ProfileSet.from_indices(space, indices)


def _universe_from_json(doc, space, pointer) -> Optional[ProfileSet]:
    spec = doc.get("universe")
    if spec is None:
        return None
    if isinstance(spec, dict) and "factors" in spec:
        factors = _expect(spec, "factors", list, f"{pointer}/universe")
        if len(factors) != space.n:
            raise LoadError(f"{pointer}/universe/factors", f"expected {space.n} factors")
        factors = tuple(
            tuple(_type_index(space, i, lab, f"{pointer}/universe/factors/{i}") for lab in f)
            for i, f in enumerate(factors)
        )
        return ProfileSet.from_factors(space, factors)
    if isinstance(spec, list):
        return _profiles_from_json(space, spec, f"{pointer}/universe")
    raise LoadError(f"{pointer}/universe", "expected a profile list or factors")


def _model_from_json(doc) -> Optional[DomainModel]:
    spec = doc.get("model")
    if spec is None:
        return None
    kind = _expect(spec, "kind", str, "/model")

    def tuplify(x):
        if isinstance(x, list):
            return tuple(tuplify(v) for v in x)
        return x

    values = spec.get("values")
    if values is not None:
        try:
            values = tuple(tuple(Fraction(str(v)) for v in row) for row in values)
        except (TypeError, ValueError):
            raise LoadError("/model/values", "expected rows of numbers") from None
    capacities = spec.get("capacities")
    if capacities is not None:
        if not isinstance(capacities, dict):
            raise LoadError("/model/capacities", "expected an object")
        capacities = tuple(sorted(capacities.items()))
    type_scores = spec.get("type_scores")
    if type_scores is not None:
        pointer = "/model/type_scores"
        type_scores = tuple(
            tuple(
                tuple(sorted(d.items()))
                for d in _list_of(agent, dict, f"{pointer}/{i}", "an object of scores")
            )
            for i, agent in enumerate(_list_of(type_scores, list, pointer, "a list per agent"))
        )
    return DomainModel(
        kind=kind,
        objects=tuplify(spec.get("objects")),
        values=values,
        endowments=tuplify(spec.get("endowments")),
        capacities=capacities,
        type_prefs=tuplify(spec.get("type_prefs")),
        type_scores=type_scores,
        outcome_prefs=tuplify(spec.get("outcome_prefs")),
    )


def instance_from_json(doc) -> Instance:
    _check_schema(doc)
    rule_spec = _expect(doc, "rule", dict, "")
    if "builtin" in rule_spec:
        name = rule_spec["builtin"]
        if name not in BUILTIN_RULES:
            raise LoadError("/rule/builtin", f"unknown builtin {name!r}")
        built = BUILTIN_RULES[name](rule_spec.get("params", {}))
        if isinstance(built, list):
            raise LoadError(
                "/rule/builtin", f"builtin {name!r} is a family; materialize it first"
            )
        return built
    space = _space_from_json(doc, "")
    rows = _expect(rule_spec, "table", list, "/rule")
    outcomes = list(_list_of(doc.get("outcomes", []), str, "/outcomes", "an outcome label"))
    seen: dict[str, int] = {lab: i for i, lab in enumerate(outcomes)}
    table = [-1] * space.total
    for r, row in enumerate(rows):
        at = f"/rule/table/{r}"
        k = space.index_of_labels(_expect(row, "profile", list, at))
        lab = _expect(row, "outcome", str, at)
        if lab not in seen:
            seen[lab] = len(seen)
            outcomes.append(lab)
        if table[k] != -1:
            raise LoadError(f"/rule/table/{r}", "duplicate profile row")
        table[k] = seen[lab]
    missing = [k for k, x in enumerate(table) if x == -1]
    if missing:
        labels = space.labels(space.profile(missing[0]))
        raise LoadError("/rule/table", f"rule table is not total: missing {list(labels)}")
    components = None
    if "components" in doc:
        comp_doc = _expect(doc, "components", dict, "")
        components = []
        for lab in outcomes:
            if lab not in comp_doc:
                raise LoadError("/components", f"no components for outcome {lab!r}")
            row = comp_doc[lab]
            if not isinstance(row, list) or len(row) != space.n:
                raise LoadError(f"/components/{lab}", f"expected {space.n} entries")
            components.append(tuple(str(c) for c in row))
        components = tuple(components)
    rule = ChoiceRule(space, tuple(outcomes), tuple(table), components)
    return Instance(
        space, rule, _model_from_json(doc), _universe_from_json(doc, space, "")
    )


def _type_index(space: TypeSpace, agent: int, label, pointer: str) -> int:
    try:
        return space.label_index[agent][label]
    except (KeyError, TypeError):  # an unhashable label names no type
        raise LoadError(pointer, f"unknown type label {label!r}") from None


def _query_from_json(space: TypeSpace, spec, pointer):
    kind = _expect(spec, "kind", str, pointer)
    if kind == "elicit":
        agent = _expect(spec, "agent", int, pointer) - 1
        if not 0 <= agent < space.n:
            raise LoadError(f"{pointer}/agent", "agent number out of range")
        cells = tuple(
            tuple(_type_index(space, agent, lab, f"{pointer}/cells") for lab in cell)
            for cell in _cells_from_json(spec, pointer)
        )
        return ElicitQuery(agent, cells)
    if kind == "count":
        subset = tuple(
            _type_index(space, 0, lab, f"{pointer}/subset")
            for lab in _expect(spec, "subset", list, pointer)
        )
        cells = tuple(tuple(c) for c in _cells_from_json(spec, pointer))
        return CountQuery(subset, cells)
    if kind == "multicount":
        subsets = tuple(
            tuple(_type_index(space, 0, lab, f"{pointer}/subsets") for lab in sub)
            for sub in _list_of(
                _expect(spec, "subsets", list, pointer), list, f"{pointer}/subsets",
                "a list of type labels",
            )
        )
        cells = tuple(
            tuple(
                tuple(v)
                for v in _list_of(cell, list, f"{pointer}/cells/{c}", "a count vector")
            )
            for c, cell in enumerate(_cells_from_json(spec, pointer))
        )
        return MultiCountQuery(subsets, cells)
    if kind == "extensional":
        cells = tuple(
            _profiles_from_json(space, cell, f"{pointer}/cells/{c}").mask
            for c, cell in enumerate(_expect(spec, "cells", list, pointer))
        )
        return ExtensionalQuery(cells)
    raise LoadError(f"{pointer}/kind", f"unknown query kind {kind!r}")


def _cells_from_json(spec, pointer) -> list:
    return _list_of(_expect(spec, "cells", list, pointer), list, f"{pointer}/cells", "a cell list")


def _spec_from_json(space: TypeSpace, node, pointer) -> Optional[NodeSpec]:
    if node is None:
        return None
    if not isinstance(node, dict):
        raise LoadError(pointer, "expected a node object")
    if "query" not in node:
        if node.get("children"):
            raise LoadError(pointer, "children without a query")
        return NodeSpec()
    query = _query_from_json(space, node["query"], f"{pointer}/query")
    children = node.get("children", [])
    if not isinstance(children, list):
        raise LoadError(f"{pointer}/children", "expected list")
    children = tuple(
        _spec_from_json(space, child, f"{pointer}/children/{i}")
        for i, child in enumerate(children)
    )
    return NodeSpec(query, children)


def protocol_from_json(
    doc, space: TypeSpace | None, pointer: str = ""
) -> tuple[Protocol, Optional[tuple[int, ...]]]:
    """Protocol and phase of a protocol document found at ``pointer``: ``""``
    for a protocol file, ``"/protocol"`` for the object embedded in a bundle."""
    _check_schema(doc, pointer)
    if "space" in doc:
        own = _space_from_json(doc["space"], f"{pointer}/space")
        if space is not None and own.alphabets != space.alphabets:
            raise LoadError(f"{pointer}/space", "protocol and instance type spaces differ")
        space = own
    if space is None:
        raise LoadError(f"{pointer}/space", "protocol file needs a space or an instance")
    universe = _universe_from_json(doc, space, pointer)
    spec = _spec_from_json(space, _expect(doc, "tree", dict, pointer), f"{pointer}/tree")
    protocol = build_from_spec(space, spec, universe)
    phase = None
    if "phase" in doc:
        phase = tuple(_list_of(doc["phase"], int, f"{pointer}/phase", "a node id"))
    return protocol, phase


@record
class Loaded:
    instance: Instance
    protocol: Optional[Protocol] = None
    phase: Optional[tuple[int, ...]] = None


def load(instance_path: str, protocol_path: str | None = None) -> Loaded:
    doc = _read_json(instance_path)
    instance = instance_from_json(doc)
    protocol, phase = None, None
    if "protocol" in doc:
        protocol, phase = protocol_from_json(
            {"schema": doc["schema"], **_expect(doc, "protocol", dict, "")},
            instance.space,
            "/protocol",
        )
    if protocol_path is not None:
        pdoc = _read_json(protocol_path)
        protocol, phase = protocol_from_json(pdoc, instance.space)
    if protocol is not None and instance.universe is not None:
        if protocol.universe != instance.universe.mask:
            raise LoadError("/universe", "instance and protocol universes differ")
    return Loaded(instance, protocol, phase)


# ---------------------------------------------------------------------------
# serialization


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
    return {
        "kind": "extensional",
        "cells": [
            [list(space.labels(p)) for p in ProfileSet(space, mask).profiles()]
            for mask in query.cells
        ],
    }


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
        doc["universe"] = [
            list(space.labels(p)) for p in ProfileSet(space, protocol.universe).profiles()
        ]
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
    doc["outcomes"] = list(rule.outcomes)
    doc["rule"] = {
        "table": [
            {
                "profile": list(space.labels(space.profile(k))),
                "outcome": rule.outcomes[rule.table[k]],
            }
            for k in range(space.total)
        ]
    }
    if rule.components is not None:
        doc["components"] = {
            lab: list(row) for lab, row in zip(rule.outcomes, rule.components)
        }
    if instance.model is not None:
        doc["model"] = _model_to_json(instance.model)
    if instance.universe is not None:
        doc["universe"] = [
            list(space.labels(p)) for p in instance.universe.profiles()
        ]
    return doc


def _model_to_json(model: DomainModel) -> dict:
    def listify(x):
        if isinstance(x, tuple):
            return [listify(v) for v in x]
        if isinstance(x, Fraction):
            return str(x) if x.denominator != 1 else x.numerator
        return x

    out = {"kind": model.kind}
    for field_name in (
        "objects",
        "values",
        "endowments",
        "type_prefs",
        "outcome_prefs",
    ):
        value = getattr(model, field_name)
        if value is not None:
            out[field_name] = listify(value)
    if model.capacities is not None:
        out["capacities"] = {c: k for c, k in model.capacities}
    if model.type_scores is not None:
        out["type_scores"] = [
            [{c: s for c, s in scores} for scores in agent]
            for agent in model.type_scores
        ]
    return out


def witness_to_json(space: TypeSpace, witness: Witness) -> dict:
    return {"factors": [list(f) for f in witness.labels(space)]}


def _violation_to_json(space: TypeSpace, violation) -> dict:
    return {
        "agent": violation.agent + 1,
        "types": [
            space.alphabets[violation.agent][violation.type_a],
            space.alphabets[violation.agent][violation.type_b],
        ],
        "profiles": [
            list(space.labels(violation.profile_a)),
            list(space.labels(violation.profile_b)),
        ],
        "leaves": [violation.leaf_a, violation.leaf_b],
        "shared": violation.detail,
    }


# ---------------------------------------------------------------------------
# commands


def _emit(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report(doc: dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _cmd_validate(args) -> tuple[int, dict]:
    loaded = load(args.instance, args.protocol)
    doc = {"command": "validate", "instance": "ok"}
    if loaded.protocol is not None:
        report = validate_protocol(loaded.protocol)
        doc["protocol"] = "ok" if report.ok else list(report.defects)
        doc["notes"] = list(report.notes)
        if not report.ok:
            raise InputError("; ".join(report.defects))
    return 0, doc


def _protocol_checks(loaded: Loaded, prop: str) -> Protocol:
    if loaded.protocol is None:
        raise InputError(f"property {prop!r} needs a protocol file")
    return loaded.protocol


def _cmd_check(args) -> tuple[int, dict]:
    loaded = load(args.instance, args.protocol)
    instance = loaded.instance
    space, rule = instance.space, instance.rule
    prop = args.property
    doc: dict = {"command": "check", "property": prop}

    if prop in ("cp", "icp"):
        protocol = _protocol_checks(loaded, prop)
        verdict = (
            check_protocol_cp(protocol, rule)
            if prop == "cp"
            else check_protocol_icp(protocol, rule)
        )
        doc["holds"] = verdict.holds
        if not verdict.holds:
            doc["violation"] = _violation_to_json(space, verdict.violation)
        return (0 if verdict.holds else 1), doc
    if prop == "gcp":
        protocol = _protocol_checks(loaded, prop)
        verdict = check_protocol_gcp(protocol, rule)
        doc["holds"] = verdict.holds
        if not verdict.holds:
            doc["violation"] = {
                "node": verdict.node,
                "profiles": [list(space.labels(p)) for p in verdict.profiles],
            }
        return (0 if verdict.holds else 1), doc
    if prop == "tatonnement":
        protocol = _protocol_checks(loaded, prop)
        phase = loaded.phase
        if phase is None:
            phase = phase_discovery(protocol, rule)
            doc["discovered_phase"] = list(phase) if phase else None
            if phase is None:
                doc["holds"] = False
                doc["failure"] = "no initial phase with disjoint outcome reach"
                return 1, doc
        verdict = check_tatonnement(protocol, rule, phase)
        doc["holds"] = verdict.holds
        if not verdict.holds:
            doc["failure"] = verdict.failure
        return (0 if verdict.holds else 1), doc
    if prop == "osp":
        protocol = _protocol_checks(loaded, prop)
        if instance.model is None:
            raise InputError("obvious dominance needs a model")
        res = check_protocol_osp(protocol, rule, instance.model)
        doc["holds"] = res.ok
        if not res.ok:
            doc["violation"] = {
                "node": res.node,
                "agent": res.agent + 1,
                "true_type": space.alphabets[res.agent][res.true_type],
            }
        return (0 if res.ok else 1), doc
    if prop == "corners":
        region = instance.universe
        result = corners_scan(rule, region)
        doc["holds"] = result.ok
        if not result.ok:
            v = result.violation
            doc["violation"] = {
                "agents": [v.agent_i + 1, v.agent_j + 1],
                "types_i": [space.alphabets[v.agent_i][t] for t in v.types_i],
                "types_j": [space.alphabets[v.agent_j][t] for t in v.types_j],
                "at": list(space.labels(v.rest)),
                "shared": v.shared_outcome,
                "fourth": v.fourth_outcome,
            }
        return (0 if result.ok else 1), doc
    if prop == "nonbossy":
        result = check_nonbossy(rule)
        doc["holds"] = result.ok
        if not result.ok:
            i, t, t2, profile, j = result.violation
            doc["violation"] = {
                "agent": i + 1,
                "types": [space.alphabets[i][t], space.alphabets[i][t2]],
                "profile": list(space.labels(profile)),
                "affected": j + 1,
            }
        return (0 if result.ok else 1), doc
    if prop in ("efficient", "ir", "stable", "sp"):
        result = check_rule_property(rule, instance.model, prop)
        doc["holds"] = result.ok
        if not result.ok:
            doc["counterexample"] = result.counterexample
        return (0 if result.ok else 1), doc
    raise InputError(f"unknown property {prop!r}")


def _cmd_synth(args) -> tuple[int, dict]:
    loaded = load(args.instance)
    instance = loaded.instance
    factors = None
    if instance.universe is not None:
        factors = product_factorization(instance.space, instance.universe)
        if factors is None:
            raise InputError("synthesis needs a product universe")
    result = synthesize_or_witness(instance.rule, factors)
    if result.is_protocol:
        doc = {
            "command": "synth",
            "result": "protocol",
            "nodes": len(result.protocol.nodes),
            "leaves": len(result.protocol.leaves()),
        }
        if args.emit:
            _emit(protocol_to_json(result.protocol), args.emit)
            doc["emitted"] = args.emit
        return 0, doc
    minimized = witness_minimize(instance.rule, result.witness)
    doc = {
        "command": "synth",
        "result": "witness",
        "witness": witness_to_json(instance.space, result.witness),
        "minimized": witness_to_json(instance.space, minimized),
    }
    return 1, doc


def _cmd_run(args) -> tuple[int, dict]:
    loaded = load(args.instance, args.protocol)
    if loaded.protocol is None:
        raise InputError("run needs a protocol")
    space = loaded.instance.space
    labels = [s.strip() for s in args.profile.split(",")]
    profile = space.profile_of_labels(labels)
    transcript = run_protocol(loaded.protocol, profile, loaded.instance.rule)
    doc = {
        "command": "run",
        "path": [
            {"node": s.node, "query": s.query, "answer": s.answer}
            for s in transcript.steps
        ],
        "leaf": transcript.leaf,
        "leaf_profiles": [
            list(space.labels(p)) for p in transcript.leaf_label.profiles()
        ],
        "outcome": transcript.outcome,
    }
    return 0, doc


def _cmd_enumerate(args) -> tuple[int, dict]:
    loaded = load(args.instance)
    family = QueryFamily.parse(args.queries)
    budget = SearchBudget(max_states=args.max_states)
    result = exhaustive_cp_search(
        loaded.instance.rule, family, budget, loaded.instance.universe
    )
    doc = {
        "command": "enumerate",
        "queries": args.queries,
        "status": result.status,
        "states": result.states,
    }
    if result.status == "found":
        if args.emit:
            _emit(protocol_to_json(result.protocol), args.emit)
            doc["emitted"] = args.emit
        doc["nodes"] = len(result.protocol.nodes)
        return 0, doc
    if result.status == "nonexistent":
        doc["result"] = "proven-nonexistent"
        return 1, doc
    raise ResourceError(f"search budget exhausted after {result.states} states")


def _cmd_builtin(args) -> tuple[int, dict]:
    params = json.loads(args.params) if args.params else {}
    name = args.name
    doc: dict = {"command": "builtin", "name": name}
    if name in BUILTIN_PROTOCOLS:
        bundle = BUILTIN_PROTOCOLS[name](params)
        out = instance_to_json(bundle.instance)
        pdoc = protocol_to_json(bundle.protocol, bundle.phase)
        pdoc.pop("schema")
        pdoc.pop("space")
        out["protocol"] = pdoc
        doc["kind"] = "protocol"
        doc["nodes"] = len(bundle.protocol.nodes)
        doc["profiles"] = bundle.instance.space.total
        if args.emit:
            _emit(out, args.emit)
            doc["emitted"] = args.emit
        return 0, doc
    if name in BUILTIN_RULES:
        built = BUILTIN_RULES[name](params)
        if isinstance(built, list):
            out = {"schema": SCHEMA, "family": [instance_to_json(b) for b in built]}
            doc["kind"] = "family"
            doc["members"] = len(built)
        else:
            out = instance_to_json(built)
            doc["kind"] = "rule"
            doc["profiles"] = built.space.total
            doc["rows"] = len(built.rule.table)
        if args.emit:
            _emit(out, args.emit)
            doc["emitted"] = args.emit
        return 0, doc
    raise InputError(f"unknown builtin {name!r}")


# ---------------------------------------------------------------------------
# entry point


def _check_threads_env() -> None:
    """Validate the reserved ``CPV_THREADS``; nothing runs in parallel yet."""
    raw = os.environ.get("CPV_THREADS")
    if raw is None:
        return
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"CPV_THREADS must be an integer, got {raw!r}") from None
    if value < 1:
        raise InputError("CPV_THREADS must be positive")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpv",
        description="verify, synthesize, and search contextually private "
        "protocols.  The environment variable CPV_THREADS is reserved: nothing "
        "runs in parallel yet, but a value that is not a positive integer exits 2.",
    )
    parser.add_argument("--pretty", action="store_true", help="indent JSON reports")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load files and check structural invariants")
    p.add_argument("instance")
    p.add_argument("protocol", nargs="?")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("check", help="check a property of a rule or protocol")
    p.add_argument(
        "--property",
        required=True,
        choices=[
            "cp",
            "gcp",
            "icp",
            "tatonnement",
            "corners",
            "nonbossy",
            "efficient",
            "ir",
            "stable",
            "sp",
            "osp",
        ],
    )
    p.add_argument("instance")
    p.add_argument("protocol", nargs="?")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("synth", help="synthesize a private protocol or a witness")
    p.add_argument("instance")
    p.add_argument("--emit", help="write the protocol file here")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("run", help="walk a protocol on one profile")
    p.add_argument("--profile", required=True, help="comma-separated type labels")
    p.add_argument("instance")
    p.add_argument("protocol", nargs="?")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("enumerate", help="exhaustive implementability search")
    p.add_argument("--queries", default="elicit", help="elicit[,count][,multicount]")
    p.add_argument("--max-states", type=int, default=100_000)
    p.add_argument("--emit", help="write a found protocol here")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("builtin", help="materialize a built-in rule or protocol")
    p.add_argument("name")
    p.add_argument("--params", help="JSON object of parameters")
    p.add_argument("--emit", help="write the instance/bundle file here")
    p.set_defaults(func=_cmd_builtin)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        _check_threads_env()
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
    print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
