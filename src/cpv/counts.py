"""Exact count queries: their fibres, and the count candidates of the decider.

One class, ``cpv.protocol.CountQuery``, asks for the count vector of l ≥ 1
type subsets; it is the cpv-1 kind ``count`` over one subset and
``multicount`` over any other number.  :func:`count_fibres` splits a label
by that vector; ``cpv.protocol.query_cell_masks`` imports this module when
a count query first splits a label.  :func:`count_query` picks the
decider's count split from the *blocks* of a state, the parts of the join
of every agent's inseparability classes on the common alphabet
(:func:`_blocks`).  By lemma 2 of :mod:`cpv.search` no count split passes
where elicitation is stuck, so the decider imports this module only for a
family without elicitation, and a protocol of elicitation queries alone
never compiles it.  It imports :mod:`cpv.search` only to draw blocks, so
reading a count protocol does not compile the decider.
"""

from __future__ import annotations

import itertools

from cpv.core import ChoiceRule, TypeSpace
from cpv.protocol import CountQuery, query_cell_masks


def count_fibres(space: TypeSpace, subsets, label: int) -> dict[tuple[int, ...], int]:
    """Count vector -> mask of the profiles in ``label`` with that vector.

    A dynamic programme over agents: each agent's types are grouped by the
    subsets holding them, and every nonempty partial fibre is split by the
    agent's groups, so the work is ``n`` times the number of vectors."""
    fibres = {(0,) * len(subsets): label}
    for agent in range(space.n):
        groups: dict[tuple[int, ...], list[int]] = {}
        for t in range(space.sizes[agent]):
            groups.setdefault(tuple(int(t in sub) for sub in subsets), []).append(t)
        masks = [(step, space.digit_mask(agent, types)) for step, types in groups.items()]
        grown: dict[tuple[int, ...], int] = {}
        for vector, fibre in fibres.items():
            for step, mask in masks:
                part = fibre & mask
                if part:
                    key = tuple(map(sum, zip(vector, step)))
                    grown[key] = grown.get(key, 0) | part
        fibres = grown
    return fibres


def exact_count_query(space: TypeSpace, subsets) -> CountQuery:
    """The count query answering the exact count of agents per type subset,
    one or more, with one cell per count vector in lexicographic order."""
    domain = itertools.product(range(space.n + 1), repeat=len(subsets))
    return CountQuery(tuple(subsets), tuple((v,) for v in domain))


def _blocks(rule: ChoiceRule, state: int) -> list[tuple[int, ...]]:
    """The parts of the join of every agent's inseparability classes on the
    state, each sorted, in the order of their smallest types; a type no
    agent holds there is a part of its own."""
    from cpv.search import UnionFind, inseparability_classes

    uf = UnionFind(rule.space.sizes[0])
    for agent in range(rule.space.n):
        for first, *rest in inseparability_classes(rule, state, agent):
            for t in rest:
                uf.union(first, t)
    blocks: dict[int, list[int]] = {}  # by root, the smallest type of its part
    for t in range(len(uf.parent)):
        blocks.setdefault(uf.find(t), []).append(t)
    return [tuple(b) for b in blocks.values()]


def count_query(rule: ChoiceRule, state: int, kinds: dict[str, str]):
    """The first count query of ``kinds`` that splits the state and passes
    the node test, or ``None``, drawn from the blocks of the state.

    Lemma 1: the count(S) split of a state is safe iff S is a union of
    blocks, and a split by the counts of several subsets iff each is.
    Proof: a pair differing in agent i's type, t against t', moves count(S)
    by [t∈S]−[t'∈S], so the split is safe iff no agent's class straddles S.

    The pick is the first safe query in the order the kinds are read in:
    ``count`` over the proper subsets holding type 0, by size, then
    lexicographically, and ``multicount`` over the pairs of two of them.  By
    lemma 1 these are unions holding B0, the block of type 0, and one varies
    on the state only if one of its blocks does; so the pick is B0, or else
    B0 joined with the smallest block whose count varies, and for a pair, B0
    with the first proper union after it that makes the pair vary.  With two
    blocks no such union exists, so ``multicount`` alone misses
    ``random_rule(677885673, 3, 4)``, which ``count`` finds; letting the
    ``multicount`` family draw single subsets too would mend that but change
    verdicts, so it is left to a change of its own.
    """
    space = rule.space
    first, *others = _blocks(rule, state)
    unions = [tuple(sorted(first + b)) for b in sorted(others, key=lambda b: (len(b), b))]
    unions = [u for u in unions if len(u) < space.sizes[0]]
    candidates = [(first,), *((u,) for u in unions)] if "count" in kinds else []
    if "multicount" in kinds:
        candidates += [(first, u) for u in unions]
    for subsets in candidates:
        query = exact_count_query(space, subsets)
        if sum(map(bool, query_cell_masks(space, query, state))) > 1:
            return query
    return None
