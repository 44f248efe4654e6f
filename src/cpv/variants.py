"""The individual and group variants of contextual privacy: ICP and GCP.

ICP asks of a separated unilateral pair that it change the deviator's own
component; it runs the CP kernel of :mod:`cpv.privacy` on those components.
GCP asks of any two separated profiles that they change the outcome.  Only
``cpv check --property icp|gcp`` imports this module, so a CP check and the
decider compile neither.
"""

from __future__ import annotations

from cpv.core import ChoiceRule, InputError, TypeSpace, Verdict
from cpv.privacy import _own_components, _unilateral_scan, cp_to_json
from cpv.protocol import Protocol, outcome_reach, require_implements

# An ICP violation is a CP violation, so ``cpv.check`` reads its JSON from
# here, as it reads each property's from the module that decides it.
__all__ = ["check_protocol_gcp", "check_protocol_icp", "cp_to_json", "gcp_to_json"]


def check_protocol_icp(protocol: Protocol, rule: ChoiceRule) -> Verdict:
    """Separated unilateral pairs must change the deviator's own component;
    a violation is a :class:`cpv.privacy.CpViolation`."""
    if not rule.has_components:
        raise InputError("individual check needs per-agent outcome components")
    require_implements(protocol, rule)
    violation = _unilateral_scan(protocol, _own_components(rule))
    return Verdict(violation is None, violation)


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


def gcp_to_json(space: TypeSpace, violation) -> dict:
    """A GCP violation as a report gives it."""
    node, profiles = violation
    return {"node": node, "profiles": [list(space.labels(p)) for p in profiles]}
