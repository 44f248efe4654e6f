"""``cpv run``: walk a protocol on one profile.

Only ``run`` imports this module.  It reads the profile named on the
command line, walks the loaded protocol from the root to the leaf holding
it, and reports the path, the leaf, its profiles and the outcome.
"""

from __future__ import annotations

import json

from cpv.core import ChoiceRule, InputError, Profile, constant_on
from cpv.jsonwriter import _profiles_to_json
from cpv.protocol import (
    CountQuery,
    ElicitQuery,
    MultiCountQuery,
    Protocol,
    Query,
    _not_implemented,
)
from cpv.reader import load


def describe_query(query: Query) -> str:
    if isinstance(query, ElicitQuery):
        return f"elicit(agent {query.agent + 1})"
    if isinstance(query, CountQuery):
        return f"count(subset size {len(query.subset)})"
    if isinstance(query, MultiCountQuery):
        return f"multicount(l={len(query.subsets)})"
    return "extensional"


def run_protocol(
    protocol: Protocol, profile: Profile, rule: ChoiceRule
) -> tuple[list[tuple[int, str, int]], int, str]:
    """Walk the protocol on one profile: ``(path, leaf, outcome)``, where
    ``path`` lists ``(node id, describe_query(query), child position)`` for
    each query on the way, ``leaf`` is the id of the leaf reached and
    ``outcome`` the rule's outcome there.  Raises the failed implementation
    precondition when the rule is not constant on that leaf."""
    index = protocol.space.index(profile)
    if not (protocol.universe >> index) & 1:
        raise InputError("profile lies outside the protocol's universe")
    path = []
    v = protocol.nodes[0]
    while not v.is_leaf:
        for pos, c in enumerate(v.children):
            if (protocol.nodes[c].label >> index) & 1:
                path.append((v.id, describe_query(v.query), pos))
                v = protocol.nodes[c]
                break
        else:
            raise AssertionError("children partition the label")
    if not constant_on(rule, v.label):
        raise _not_implemented(v.id)
    return path, v.id, rule.outcomes[rule.table[(v.label & -v.label).bit_length() - 1]]


def run_command(args) -> tuple[int, dict]:
    """The report of ``cpv run`` and its exit code."""
    loaded = load(args.instance, args.protocol)
    if loaded.protocol is None:
        raise InputError("run needs a protocol")
    space = loaded.instance.space
    try:
        entries = json.loads(args.profile)
    except ValueError:
        entries = None
    if isinstance(entries, list) and len(entries) == space.n:
        # equal labels, as the loader names them
        profile = space.profile(space.index_of_labels(entries))
    else:
        labels = [s.strip() for s in args.profile.split(",")]
        if len(labels) == space.n:
            # the string label equal to an entry, else the one it spells in JSON
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
        "leaf_profiles": _profiles_to_json(space, loaded.protocol.nodes[leaf].label),
        "outcome": outcome,
    }
    return 0, doc
