"""Phases of a protocol and the price-finding/price-taking split.

A phase is a precedence-convex node set.  A protocol whose initial phase
ends in nodes with pairwise-disjoint reachable outcome sets, and whose
subtrees at those end nodes are contextually private on their labels, is
contextually private overall; `check_tatonnement` verifies the two
conditions and cross-checks the implication.  Both it and
`phase_discovery` need the protocol to implement the rule, and raise a
`PreconditionError` naming a non-constant leaf otherwise.
"""

from __future__ import annotations

import itertools

from cpv.core import ChoiceRule, Verdict
from cpv.privacy import _outcome_values, _unilateral_scan
from cpv.protocol import Protocol, outcome_reach, require_implements, validate_phase


def _overlapping(reach: dict[int, frozenset[int]], nodes):
    """The pairs of ``nodes`` whose outcome reach overlaps, in pair order."""
    for a, b in itertools.combinations(nodes, 2):
        if reach[a] & reach[b]:
            yield a, b


def check_tatonnement(protocol: Protocol, rule: ChoiceRule, node_ids) -> Verdict:
    """Verify the two-phase privacy conditions for an initial phase.

    (a) end nodes reach pairwise-disjoint outcome sets; (b) the subtree
    at each end node is contextually private for the rule restricted to
    its label.  Every leaf must lie below some end node, otherwise the
    phase cannot certify anything about the uncovered paths; that
    coverage requirement is reported as its own failure kind.  On
    success the full contextual-privacy check is asserted as an internal
    cross-check.  A violation reads ``(failure, detail)``, the failure being
    "disjointness", "coverage" or "subtree".
    """
    require_implements(protocol, rule)
    end = validate_phase(protocol, node_ids)

    reach = outcome_reach(protocol, rule)
    pair = next(_overlapping(reach, end), None)
    if pair is not None:
        a, b = pair
        return Verdict(False, ("disjointness", (a, b, rule.outcomes[min(reach[a] & reach[b])])))

    # a leaf lies below an end node iff its label lies inside the end node's
    covered = 0
    for v in end:
        covered |= protocol.nodes[v].label
    if covered != protocol.universe:
        uncovered = next(v for v in protocol.nodes if v.is_leaf and v.label & ~covered)
        return Verdict(False, ("coverage", uncovered.id))

    # each end node's subtree must be private for the rule on its label
    value = _outcome_values(rule)
    for v in end:
        violation = _unilateral_scan(protocol, value, protocol.nodes[v].label)
        if violation is not None:
            return Verdict(False, ("subtree", (v, violation)))

    if _unilateral_scan(protocol, value) is not None:
        raise AssertionError(
            "tatonnement conditions hold but the protocol is not contextually "
            "private (bug)"
        )
    return Verdict(True)


def phase_discovery(protocol: Protocol, rule: ChoiceRule):
    """Largest-step growth of an initial phase whose end set reaches
    pairwise-disjoint outcomes.

    Starts from the root's children and expands exactly the frontier
    nodes involved in an outcome overlap; returns the frontier plus all
    its ancestors once disjoint, or ``None`` when an overlapping leaf
    makes disjointness unattainable.  Subtree privacy is left to
    `check_tatonnement`.
    """
    require_implements(protocol, rule)
    reach = outcome_reach(protocol, rule)
    nodes = protocol.nodes
    phase, frontier = {0}, nodes[0].children  # nodes expanded; their other children
    while overlapping := {v for pair in _overlapping(reach, frontier) for v in pair}:
        if any(nodes[v].is_leaf for v in overlapping):
            return None
        phase |= overlapping
        frontier = [c for v in frontier for c in (nodes[v].children if v in overlapping else (v,))]
    return tuple(sorted(phase.union(frontier)))
