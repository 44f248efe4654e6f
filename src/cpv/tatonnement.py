"""Phases of a protocol and the price-finding/price-taking split.

A phase is a precedence-convex node set.  A protocol whose initial phase
ends in nodes with pairwise-disjoint reachable outcome sets, and whose
subtrees at those end nodes are contextually private on their labels, is
contextually private overall; `check_tatonnement` verifies the two
conditions and cross-checks the implication.
"""

from __future__ import annotations

from typing import Optional

from cpv.core import ChoiceRule, InputError, record
from cpv.privacy import _leaf_list, _outcome_values, _unilateral_scan, check_protocol_cp
from cpv.protocol import Protocol, implements, outcome_reach


@record
class Phase:
    nodes: frozenset[int]
    initial: bool
    end: tuple[int, ...]  # precedence-maximal members


@record
class PhaseReport:
    ok: bool
    defect: Optional[str] = None
    phase: Optional[Phase] = None


def validate_phase(protocol: Protocol, node_ids) -> PhaseReport:
    """Convexity check plus the initial flag and end set."""
    members = set(node_ids)
    for v in members:
        if not 0 <= v < len(protocol.nodes):
            raise InputError(f"unknown node id {v}")
    if not members:
        raise InputError("phase must be nonempty")
    for w in members:
        gap: Optional[int] = None
        v = protocol.nodes[w].parent
        while v != -1:
            if v not in members:
                gap = v
            elif gap is not None:
                return PhaseReport(
                    False,
                    f"convexity broken: node {gap} between members {v} and {w}",
                )
            v = protocol.nodes[v].parent
    has_member_below: set[int] = set()
    for w in members:
        v = protocol.nodes[w].parent
        while v != -1:
            has_member_below.add(v)
            v = protocol.nodes[v].parent
    end = tuple(sorted(v for v in members if v not in has_member_below))
    return PhaseReport(True, None, Phase(frozenset(members), 0 in members, end))


@record
class TatonnementVerdict:
    holds: bool
    failure: Optional[str] = None  # disjointness | coverage | subtree
    detail: object = None

    def __bool__(self) -> bool:
        return self.holds


def check_tatonnement(protocol: Protocol, rule: ChoiceRule, node_ids) -> TatonnementVerdict:
    """Verify the two-phase privacy conditions for an initial phase.

    (a) end nodes reach pairwise-disjoint outcome sets; (b) the subtree
    at each end node is contextually private for the rule restricted to
    its label.  Every leaf must lie below some end node, otherwise the
    phase cannot certify anything about the uncovered paths; that
    coverage requirement is reported as its own failure kind.  On
    success the full contextual-privacy check is asserted as an internal
    cross-check.
    """
    res = implements(protocol, rule)
    if not res:
        raise InputError("protocol does not implement the rule")
    report = validate_phase(protocol, node_ids)
    if not report.ok:
        raise InputError(report.defect)
    phase = report.phase
    if not phase.initial:
        raise InputError("phase must contain the root")

    reach = outcome_reach(protocol, rule)
    end = phase.end
    for a_pos in range(len(end)):
        for b_pos in range(a_pos + 1, len(end)):
            overlap = reach[end[a_pos]] & reach[end[b_pos]]
            if overlap:
                return TatonnementVerdict(
                    False,
                    "disjointness",
                    (end[a_pos], end[b_pos], rule.outcomes[min(overlap)]),
                )

    below: set[int] = set()
    stack = list(end)
    while stack:
        v = stack.pop()
        below.add(v)
        stack.extend(protocol.nodes[v].children)
    uncovered = [v.id for v in protocol.nodes if v.is_leaf and v.id not in below]
    if uncovered:
        return TatonnementVerdict(False, "coverage", uncovered[0])

    # each end node's subtree must be private for the rule on its label
    leaf, value = _leaf_list(protocol), _outcome_values(rule)
    for v in end:
        violation = _unilateral_scan(protocol, value, protocol.nodes[v].label, leaf)
        if violation is not None:
            return TatonnementVerdict(False, "subtree", (v, violation))

    if not check_protocol_cp(protocol, rule).holds:
        raise AssertionError(
            "tatonnement conditions hold but the protocol is not contextually "
            "private (bug)"
        )
    return TatonnementVerdict(True)


def phase_discovery(protocol: Protocol, rule: ChoiceRule):
    """Largest-step growth of an initial phase whose end set reaches
    pairwise-disjoint outcomes.

    Starts from the root's children and expands exactly the frontier
    nodes involved in an outcome overlap; returns the frontier plus all
    its ancestors once disjoint, or ``None`` when an overlapping leaf
    makes disjointness unattainable.  Subtree privacy is left to
    `check_tatonnement`.
    """
    res = implements(protocol, rule)
    if not res:
        raise InputError("protocol does not implement the rule")
    if protocol.root.is_leaf:
        return (0,)
    reach = outcome_reach(protocol, rule)
    frontier = sorted(protocol.root.children)
    while True:
        overlapping: set[int] = set()
        for i in range(len(frontier)):
            for j in range(i + 1, len(frontier)):
                if reach[frontier[i]] & reach[frontier[j]]:
                    overlapping.add(frontier[i])
                    overlapping.add(frontier[j])
        if not overlapping:
            phase: set[int] = set()
            for v in frontier:
                phase.add(v)
                u = protocol.nodes[v].parent
                while u != -1:
                    phase.add(u)
                    u = protocol.nodes[u].parent
            return tuple(sorted(phase))
        grown: list[int] = []
        for v in frontier:
            if v in overlapping:
                if protocol.nodes[v].is_leaf:
                    return None
                grown.extend(protocol.nodes[v].children)
            else:
                grown.append(v)
        frontier = sorted(grown)
