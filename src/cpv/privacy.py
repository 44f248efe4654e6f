"""Protocol-level contextual-privacy checks: CP, ICP and GCP.

A protocol for a rule is contextually private when any two profiles that
differ in one agent's type and reach *distinct* terminals map to distinct
outcomes.  The unilateral checks (CP, ICP, and the subtree checks of
tatonnement) decide on whole leaf masks whether a violating pair exists,
by counting the lines of each agent that the leaves meet, and scan pairs
only to name the first violation.  The pairs come from
:func:`cpv.core.unilateral_pairs`, so scan order, and with it the first
violation reported, is defined once.

``cpv check`` of CP, ICP, GCP and tatonnement imports this module, and so
do :mod:`cpv.search`, whose decider checks every protocol it finds with
:func:`check_protocol_cp`, and :mod:`cpv.synthesis`.  The decider with its
inseparability classes and witnesses (``synth`` and ``enumerate``) lives in
:mod:`cpv.search`, the corners and non-bossiness scans in
:mod:`cpv.synthesis`, so a protocol check compiles neither.
"""

from __future__ import annotations

from typing import Optional

from cpv.core import (
    ChoiceRule,
    InputError,
    Profile,
    TypeSpace,
    Verdict,
    record,
    unilateral_pairs,
)
from cpv.protocol import Protocol, outcome_reach, require_implements

# ---------------------------------------------------------------------------
# protocol-level checks


@record
class CpViolation:
    agent: int
    type_a: int
    type_b: int
    profile_a: Profile  # carries type_a for the agent
    profile_b: Profile
    leaf_a: int
    leaf_b: int
    detail: str  # the shared outcome (or component) that should have differed


def _leaf_list(protocol: Protocol) -> list[int]:
    """Leaf node id per profile index; -1 outside the universe."""
    leaf = [-1] * protocol.space.total
    for k, v in protocol.leaf_map().items():
        leaf[k] = v
    return leaf


def _unilateral_scan(protocol: Protocol, value, label: int | None = None) -> Optional[CpViolation]:
    """First unilateral pair inside ``label`` (the universe by default) that
    reaches distinct leaves with equal ``value[agent]``.

    ``value[agent]`` must be constant on every leaf, as it is once
    :func:`require_implements` holds.  :func:`_leaves_share_a_line` decides
    whether such a pair exists; only then is the first hit in
    :func:`cpv.core.unilateral_pairs` order found and reported, which
    makes reports deterministic.
    """
    space = protocol.space
    if label is None:
        label = protocol.universe
    pieces = [m for v in protocol.nodes if v.is_leaf and (m := v.label & label)]
    if not _leaves_share_a_line(space, pieces, value):
        return None
    leaf = _leaf_list(protocol)
    for k, agent, t2, k2 in unilateral_pairs(space, label, leaf, value):
        profile = space.profile(k)
        other = list(profile)
        other[agent] = t2
        return CpViolation(
            agent, profile[agent], t2, profile, tuple(other), leaf[k], leaf[k2],
            value[agent][k],
        )
    return None


def _leaves_share_a_line(space: TypeSpace, pieces: list[int], value) -> bool:
    """Whether two of the disjoint masks ``pieces`` with equal
    ``value[agent]`` meet a common line of the agent: the profiles that
    differ from one another in that agent's type only.

    ``value[agent]`` is read at each piece's lowest profile, so it must be
    constant on every piece.  The lines a piece meets are its projection
    onto the profiles where the agent has type 0: the union of the piece
    shifted down by ``t * stride`` for every type ``t``, cut to the digit
    fill.  Two pieces meet a common line exactly when a unilateral pair
    joins them, so no such pair exists iff, per agent and value, the
    projections of the pieces are disjoint: the lines their union meets
    number as many as the lines of each piece summed.
    """
    lows = [(m & -m).bit_length() - 1 for m in pieces]
    for agent, (stride, size, fill) in enumerate(
        zip(space.strides, space.sizes, space.digit_fills)
    ):
        vals, met = value[agent], {}
        shifts = range(stride, size * stride, stride)
        for m, low in zip(pieces, lows):
            lines = m
            for s in shifts:
                lines |= m >> s
            lines &= fill
            key = vals[low]
            seen = met.get(key, 0)
            if seen & lines:
                return True
            met[key] = seen | lines
    return False


def _outcome_values(rule: ChoiceRule) -> list[list[str]]:
    """Per-agent, per-profile outcome labels: what CP compares."""
    labels = [rule.outcomes[x] for x in rule.table]
    return [labels] * rule.space.n


def check_protocol_cp(protocol: Protocol, rule: ChoiceRule) -> Verdict:
    """Separated unilateral pairs must change the outcome; a violation is a
    :class:`CpViolation`."""
    require_implements(protocol, rule)
    violation = _unilateral_scan(protocol, _outcome_values(rule))
    return Verdict(violation is None, violation)


def check_protocol_icp(protocol: Protocol, rule: ChoiceRule) -> Verdict:
    """Separated unilateral pairs must change the deviator's own component;
    a violation is a :class:`CpViolation`."""
    if not rule.has_components:
        raise InputError("individual check needs per-agent outcome components")
    require_implements(protocol, rule)
    violation = _unilateral_scan(protocol, _own_components(rule))
    return Verdict(violation is None, violation)


def _own_components(rule: ChoiceRule) -> list[list[str]]:
    return [
        [rule.components[x][agent] for x in rule.table] for agent in range(rule.space.n)
    ]


def check_protocol_gcp(protocol: Protocol, rule: ChoiceRule) -> Verdict:
    """Separated profiles must change the outcome.

    Evaluated both ways: directly over terminal pairs, and through the
    characterization that every query's children reach pairwise-disjoint
    outcome sets.  The two must agree; disagreement is an internal bug.
    A violation reads ``(node, (profile, profile))``: the first query whose
    children reach overlapping outcomes, and two profiles at distinct
    leaves with one outcome.
    """
    require_implements(protocol, rule)
    space = protocol.space
    reach = outcome_reach(protocol, rule)

    by_definition = None  # first leaf pair sharing an outcome
    seen: dict[int, int] = {}
    for v in protocol.nodes:
        if not v.is_leaf:
            continue
        (x,) = reach[v.id]
        if x in seen:
            by_definition = tuple(
                space.profile((m & -m).bit_length() - 1) for m in (seen[x], v.label)
            )
            break
        seen[x] = v.label

    by_characterization = None
    for v in protocol.nodes:
        if v.is_leaf:
            continue
        if sum(len(reach[c]) for c in v.children) != len(reach[v.id]):
            by_characterization = v.id
            break

    if (by_definition is None) != (by_characterization is None):
        raise AssertionError(
            "group-privacy definition and characterization disagree (bug)"
        )
    if by_definition is None:
        return Verdict(True)
    return Verdict(False, (by_characterization, by_definition))


# ``bench/spans.py`` ``TARGETS`` still names these by their old home in this
# module; they are forwarded for it alone, each from the module that holds it.
_MOVED = {
    "corners_scan": "synthesis",
    "inseparability_classes": "search",
    "synthesize_or_witness": "search",
    "witness_minimize": "search",
    "witness_verify": "search",
}


def __getattr__(name: str):
    """The functions of ``_MOVED`` from their modules; no other name."""
    if name in _MOVED:
        return getattr(__import__(f"cpv.{_MOVED[name]}", fromlist=["*"]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
