"""Golden first reports of the unilateral scans.

Every scan reports the first hit in a fixed order (profile index
ascending, then agent, then partner type ascending), so the exact report
is part of the contract.  These pin it for each check built on that scan.
"""

from __future__ import annotations

from cpv.core import ChoiceRule, ProfileSet, TypeSpace
from cpv.mechanisms import (
    ascending_elicitation_sp,
    double_auction_count,
    fig_shaded_3x3,
    second_price,
)
from cpv.privacy import CpViolation, check_protocol_cp
from cpv.synthesis import CornersViolation, check_nonbossy, corners_scan
from cpv.tatonnement import check_tatonnement
from cpv.variants import check_protocol_icp

from oracles import ObstructionEntry, obstruction_scan

ASCENDING_CP = CpViolation(
    agent=0,
    type_a=0,
    type_b=1,
    profile_a=(0, 0, 0),
    profile_b=(1, 0, 0),
    leaf_a=44,
    leaf_b=31,
    detail="winner=1,price=1",
)


def test_cp_first_violation():
    bundle = ascending_elicitation_sp(3, [1, 2, 3])
    verdict = check_protocol_cp(bundle.protocol, bundle.instance.rule)
    assert not verdict.ok
    assert verdict.violation == ASCENDING_CP


def test_icp_first_violation():
    bundle = double_auction_count(4, [1, 2, 3])
    rule = bundle.instance.rule
    assert check_protocol_cp(bundle.protocol, rule).ok
    verdict = check_protocol_icp(bundle.protocol, rule)
    assert verdict.violation == CpViolation(
        agent=0,
        type_a=0,
        type_b=1,
        profile_a=(0, 0, 2, 2),
        profile_b=(1, 0, 2, 2),
        leaf_a=11,
        leaf_b=22,
        detail="h=0,t=0",
    )


def test_tatonnement_subtree_failure():
    bundle = ascending_elicitation_sp(3, [1, 2, 3])
    verdict = check_tatonnement(bundle.protocol, bundle.instance.rule, (0,))
    assert not verdict.ok
    failure, detail = verdict.violation
    assert failure == "subtree"
    assert detail == (0, ASCENDING_CP)


def test_corners_first_violation():
    result = corners_scan(second_price(3, range(1, 7)).rule)
    assert result.violation == CornersViolation(
        agent_i=0,
        agent_j=1,
        types_i=(0, 1),
        types_j=(0, 1),
        rest=(0, 0, 2),
        shared_outcome="winner=3,price=2",
        fourth_outcome="winner=3,price=1",
    )


def test_nonbossy_first_violation():
    space = TypeSpace.shared(2, ("A", "B"))
    rule = ChoiceRule(space, ("o1", "o2"), (0, 0, 1, 1), (("p", "u"), ("p", "v")))
    assert check_nonbossy(rule).violation == (0, 0, 1, (0, 0), 1)


def test_obstruction_scan_entries():
    inst = fig_shaded_3x3()
    family = "elicit,count"
    report = obstruction_scan(inst.rule, ProfileSet.full(inst.space), family)
    assert report.nonconstant
    assert report.entries == (
        ObstructionEntry("elicit", "agent 1", ((0, 1, 2), (3, 4, 5, 6, 7, 8)), (1, 7)),
        ObstructionEntry("elicit", "agent 1", ((0, 1, 2, 3, 4, 5), (6, 7, 8)), (1, 7)),
        ObstructionEntry("elicit", "agent 1", ((0, 1, 2, 6, 7, 8), (3, 4, 5)), None),
        ObstructionEntry("elicit", "agent 2", ((0, 3, 6), (1, 2, 4, 5, 7, 8)), (6, 7)),
        ObstructionEntry("elicit", "agent 2", ((0, 1, 3, 4, 6, 7), (2, 5, 8)), (1, 2)),
        ObstructionEntry("elicit", "agent 2", ((0, 2, 3, 5, 6, 8), (1, 4, 7)), (1, 2)),
        ObstructionEntry("count", "{t1}", ((4, 5, 7, 8), (1, 2, 3, 6), (0,)), (1, 7)),
        ObstructionEntry("count", "{t1,t2}", ((8,), (2, 5, 6, 7), (0, 1, 3, 4)), (1, 7)),
        ObstructionEntry("count", "{t1,t3}", ((4,), (1, 3, 5, 7), (0, 2, 6, 8)), (1, 2)),
    )
