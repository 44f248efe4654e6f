"""The protocol half of the cpv-1 reader: query trees into protocols.

``cpv.reader.load`` imports this module only when a file holds a protocol,
a bundle's ``protocol`` object or a protocol file, so a command on a rule
table alone compiles neither this module nor :mod:`cpv.protocol`.  A tree
is checked, then built in one walk: ``cpv.reader.CPV1`` checks the
document before it gets here, and :func:`cpv.protocol.build_from_spec`
builds from the checked tree, calling :func:`_query_from_json` on each
query as its walk reaches the node.  An input error is a ``LoadError``
naming the JSON pointer of the field at fault; a defect of the tree as
built is a ``ProtocolDefect`` naming its node.  A phase read with a
protocol is checked here by :func:`validate_phase`, which the tatonnement
check runs too.
"""

from __future__ import annotations

from typing import Optional

from cpv.core import LoadError, TypeSpace
from cpv.protocol import (
    CountQuery,
    ElicitQuery,
    ExtensionalQuery,
    Protocol,
    build_from_spec,
)
from cpv.reader import _at, _profiles_from_json, _space_from_json, _universe_from_json


def _query_from_json(space: TypeSpace, spec, pointer):
    kind, cells = spec["kind"], spec["cells"]
    if kind == "elicit":
        agent = spec["agent"] - 1
        if not 0 <= agent < space.n:
            raise LoadError(f"{pointer}/agent", "agent number out of range")
        with _at(f"{pointer}/cells"):
            return ElicitQuery(agent, tuple(space.type_indices(agent, c) for c in cells))
    if kind == "count":  # one subset, its counts as numbers
        with _at(f"{pointer}/subset"):
            subset = space.type_indices(0, spec["subset"])
        return CountQuery((subset,), tuple(tuple((c,) for c in cell) for cell in cells))
    if kind == "multicount":
        with _at(f"{pointer}/subsets"):
            subsets = tuple(space.type_indices(0, sub) for sub in spec["subsets"])
        return CountQuery(subsets, tuple(tuple(map(tuple, c)) for c in cells))
    sets = (_profiles_from_json(space, c, f"{pointer}/cells/{i}") for i, c in enumerate(cells))
    return ExtensionalQuery(tuple(s.mask for s in sets))


def protocol_from_json(doc, space: TypeSpace, pointer: str) -> tuple[Protocol, Optional[tuple]]:
    """Protocol and phase of the checked protocol object of a file or bundle at ``pointer``."""
    if "space" in doc and _space_from_json(doc["space"], f"{pointer}/space") != space:
        raise LoadError(f"{pointer}/space", "protocol and instance type spaces differ")
    universe = _universe_from_json(doc.get("universe"), space, f"{pointer}/universe")
    protocol = build_from_spec(space, doc["tree"], universe, f"{pointer}/tree")
    phase = tuple(doc["phase"]) if "phase" in doc else None
    if phase is not None:
        validate_phase(protocol, phase, f"{pointer}/phase")
    return protocol, phase


def validate_phase(protocol: Protocol, node_ids, pointer: str = "/phase") -> tuple[int, ...]:
    """The end nodes (precedence-maximal members) of an initial phase, a
    precedence-convex node set holding the root.  Raises a :class:`LoadError`
    at ``pointer``, or at its first entry at fault, on an unknown id, then
    on an empty set, then on a set that is not convex, then on no root."""
    ids = tuple(node_ids)
    for pos, v in enumerate(ids):
        if not 0 <= v < len(protocol.nodes):
            raise LoadError(f"{pointer}/{pos}", f"unknown node id {v}")
    if not ids:
        raise LoadError(pointer, "phase must be nonempty")
    members = set(ids)
    for pos, w in enumerate(ids):
        gap: int | None = None
        v = protocol.nodes[w].parent
        while v != -1:
            if v not in members:
                gap = v
            elif gap is not None:
                message = f"convexity broken: node {gap} between members {v} and {w}"
                raise LoadError(f"{pointer}/{pos}", message)
            v = protocol.nodes[v].parent
    if 0 not in members:
        raise LoadError(pointer, "phase must contain the root")
    # in a convex set, a member with a member below it has a member child
    return tuple(sorted(v for v in members if members.isdisjoint(protocol.nodes[v].children)))
