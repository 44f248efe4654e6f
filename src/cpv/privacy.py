"""Protocol-level contextual privacy: the CP check and its unilateral kernel.

A protocol for a rule is contextually private when any two profiles that
differ in one agent's type and reach *distinct* terminals map to distinct
outcomes.  The unilateral checks (CP, ICP, and the subtree checks of
tatonnement) decide on whole leaf masks whether a violating pair exists,
by counting the lines of each agent that the leaves meet.  A fast pass
decides and a walk only names: pairs are scanned only to name the first
violation the kernel found, and a scan that finds none is a bug.  The
pairs come from :func:`unilateral_pairs`, so scan order, and with it the
first violation reported, is defined once.

``cpv check`` of CP and tatonnement imports this module, and so do
:mod:`cpv.variants` (ICP and GCP), :mod:`cpv.synthesis` and
:mod:`cpv.search`, whose decider checks a protocol it finds with
:func:`check_protocol_cp`.  The decider (``synth``, ``enumerate``) lives in
:mod:`cpv.search`, the corners and non-bossiness scans in
:mod:`cpv.synthesis` and the ICP and GCP checks in :mod:`cpv.variants`, so
a CP check compiles none of them.  Only :func:`check_protocol_cp` imports
:mod:`cpv.protocol`, so the corners scans compile no protocol module.
"""

from __future__ import annotations

import itertools
from typing import Optional

from cpv.core import ChoiceRule, Profile, TypeSpace, Verdict, mask_flags, record

# ---------------------------------------------------------------------------
# unilateral pairs


def unilateral_pairs(space: TypeSpace, inside: int, block=None, value=None):
    """Unilateral deviations ``(k, agent, t2, k2)`` inside the mask
    ``inside``: profile ``k2`` is ``k`` with the agent's type raised to ``t2``.

    This is the one scan order of every unilateral check: base index ``k``
    ascending, then agent ascending, then ``t2`` ascending.  A pair is
    yielded only if ``block[k2] != block[k]`` when a per-profile ``block``
    list is given, and if ``value[agent][k2] == value[agent][k]`` when
    per-agent, per-profile ``value`` lists are given.

    The protocol-level CP and ICP checks decide on whole leaf masks and
    call this only once a violation exists, so for them it fixes which
    violation is named first, not the verdict.
    """
    member = mask_flags(inside, space.total)
    axes = tuple(zip(range(space.n), space.strides, space.sizes))
    for k in itertools.compress(range(space.total), member):
        b = block[k] if block is not None else None
        for agent, stride, size in axes:
            vals = value[agent] if value is not None else None
            v = vals[k] if vals is not None else None
            k2 = k
            for t2 in range(k // stride % size + 1, size):
                k2 += stride
                if not member[k2]:
                    continue
                if block is not None and block[k2] == b:
                    continue
                if vals is not None and vals[k2] != v:
                    continue
                yield k, agent, t2, k2


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


def cp_to_json(space: TypeSpace, v: CpViolation) -> dict:
    """A CP or ICP violation as a report gives it."""
    types = space.alphabets[v.agent]
    return {
        "agent": v.agent + 1, "types": [types[v.type_a], types[v.type_b]],
        "profiles": [list(space.labels(p)) for p in (v.profile_a, v.profile_b)],
        "leaves": [v.leaf_a, v.leaf_b], "shared": v.detail,
    }


def _unilateral_scan(protocol, value, label: int | None = None) -> Optional[CpViolation]:
    """First unilateral pair inside ``label`` (the universe by default) that
    reaches distinct leaves with equal ``value[agent]``.

    ``value[agent]`` must be constant on every leaf, as it is once
    :func:`require_implements` holds.  :func:`_leaves_share_a_line` decides
    whether such a pair exists; only then is the first hit in
    :func:`unilateral_pairs` order found and reported, which
    makes reports deterministic.
    """
    space = protocol.space
    if label is None:
        label = protocol.universe
    pieces = [m for v in protocol.nodes if v.is_leaf and (m := v.label & label)]
    if not _leaves_share_a_line(space, pieces, value):
        return None
    leaf = protocol.leaf_map()
    for k, agent, t2, k2 in unilateral_pairs(space, label, leaf, value):
        profile = space.profile(k)
        other = list(profile)
        other[agent] = t2
        return CpViolation(
            agent, profile[agent], t2, profile, tuple(other), leaf[k], leaf[k2],
            value[agent][k],
        )
    raise AssertionError("leaves share a line but no unilateral pair joins them (bug)")


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


def check_protocol_cp(protocol, rule: ChoiceRule) -> Verdict:
    """Separated unilateral pairs must change the outcome; a violation is a
    :class:`CpViolation`."""
    from cpv.protocol import require_implements

    require_implements(protocol, rule)
    violation = _unilateral_scan(protocol, _outcome_values(rule))
    return Verdict(violation is None, violation)


def _own_components(rule: ChoiceRule) -> list[list[str]]:
    return [
        [rule.components[x][agent] for x in rule.table] for agent in range(rule.space.n)
    ]


# ``bench/spans.py`` ``TARGETS`` still names these by their old home in this
# module; they are forwarded for it alone, each from the module that holds it.
_MOVED = {
    "check_protocol_gcp": "variants",
    "check_protocol_icp": "variants",
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
