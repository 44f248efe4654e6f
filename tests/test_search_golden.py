"""Golden results of the exhaustive CP and OSP searches.

The searches visit states in a fixed order, so the status, the number of
states visited and the size of the protocol they build are part of the
contract.  These pin them on the paper's small instances.
"""

from __future__ import annotations

import pytest

from cpv.mechanisms import (
    fig_shaded_3x3,
    multicount_stable_matching,
    non_clinching,
    school_count_instance,
    serial_dictatorship,
)
from cpv.search import exhaustive_cp_search

from oracles import exhaustive_osp_search


def sd2():
    return serial_dictatorship(2, ("A", "B"), (0, 1))


def sd3():
    return serial_dictatorship(3, ("a", "b", "c"), (0, 1, 2))


def cp_sd2():
    return exhaustive_cp_search(sd2().rule, "elicit")


def cp_sd3():
    return exhaustive_cp_search(sd3().rule, "elicit")


def cp_school():
    inst = school_count_instance()
    return exhaustive_cp_search(inst.rule, "elicit,count", universe=inst.universe)


def cp_fig_shaded():
    return exhaustive_cp_search(fig_shaded_3x3().rule, "elicit")


def cp_multicount_matching():
    inst = multicount_stable_matching().instance
    return exhaustive_cp_search(inst.rule, "elicit,count,multicount", universe=inst.universe)


def osp_sd2():
    inst = sd2()
    return exhaustive_osp_search(inst.rule, inst.model)


def osp_sd3():
    inst = sd3()
    return exhaustive_osp_search(inst.rule, inst.model)


def osp_sd3_budget():
    inst = sd3()
    return exhaustive_osp_search(inst.rule, inst.model, max_states=5)


def osp_non_clinching():
    inst = non_clinching()
    return exhaustive_osp_search(inst.rule, inst.model)


# (search, status, states, nodes of the found protocol)
GOLDEN = [
    (cp_sd2, "found", 3, 3),
    (cp_sd3, "found", 11, 11),
    (cp_school, "nonexistent", 1, None),
    (cp_fig_shaded, "nonexistent", 2, None),
    (cp_multicount_matching, "found", 31, 31),
    (osp_sd2, "found", 3, 3),
    (osp_sd3, "found", 43, 43),
    (osp_sd3_budget, "budget_exhausted", 6, None),
    (osp_non_clinching, "nonexistent", 1, None),
]


@pytest.mark.parametrize(
    "search,status,states,nodes", GOLDEN, ids=[g[0].__name__ for g in GOLDEN]
)
def test_golden_search(search, status, states, nodes):
    result = search()
    assert result.status == status
    assert result.states == states
    if nodes is None:
        assert result.protocol is None
    else:
        assert len(result.protocol.nodes) == nodes
