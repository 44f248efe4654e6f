"""Exhaustive contextually private protocol search for tiny instances.

:func:`exhaustive_cp_search` decides implementability over a query family
exactly, with :func:`cpv.synthesis.greedy_search`, the one decider, which
``cpv synth`` runs over elicitation alone.  A query passes the node test
of a state (a reachable profile set) when it separates no equal-outcome
unilateral pair inside it, which is equivalent to privacy of the finished
protocol: the earliest point of departure of any violating pair holds both
profiles.

Restriction lemma: won states are closed downward.  A protocol on a state
S gives one on every subset T of S (restrict each query to T and contract
those left with one nonempty cell), since a query that separates no
protected pair in a node separates none in a subset of it.  So a query
that passes the node test splits a won state into won states, and the
first candidate that passes is always a correct choice: nothing is undone.
A non-constant state where no candidate passes is lost, and with it every
set that holds it, the root included; that stuck state proves
nonexistence.  The decision builds one tree whose leaves partition the
root and whose inner nodes have two children or more, so it visits at most
2·|root|−1 states, and a found protocol has one node per state visited.
Past ``max_states`` states the search stops with the status
``budget_exhausted``; a bound below 1 is refused.  The AND-OR search that
backtracks over every candidate is kept as a reference in
``tests/oracles.py``, where the obviously strategyproof search over
multiway elicitation splits runs on it (ROADMAP item 3).

The family is the comma-joined ``--queries`` string of ``cpv enumerate``.
``_KINDS`` lists each kind a family may name with how it splits a state:
elicitation in two, counts (``count``, and ``multicount`` for the joint
counts of two type subsets) into their exact fibres.  Coarser groupings
of counts are expressible at the protocol level but are not enumerated
(ROADMAP item 1).  :func:`drawn_kinds` reads the string into the kinds
drawn on a space, with their splits, and refuses an unknown kind, an
empty family and a family that draws no kind there; the ``enumerate``
report names the family it decided by it.

Elicitation goes first: per agent, the class of its smallest present type,
the first safe one of its binary splits.  The count candidates follow, from
:func:`_family_queries` fed through :func:`_splits`, which keeps one query
per induced partition, and filtered by :func:`_separates_protected_pair`.
The protected pairs come from :func:`cpv.core.unilateral_pairs`, which
defines the scan order once; a leaking query reports the first pair it
separates in that order.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from cpv.core import (
    ChoiceRule,
    InputError,
    ProfileSet,
    TypeSpace,
    unilateral_pairs,
)
from cpv.protocol import (
    CountQuery,
    MultiCountQuery,
    Query,
    query_cell_masks,
)
from cpv.synthesis import SearchResult, greedy_search


# ---------------------------------------------------------------------------
# candidate queries


_KINDS = {"elicit": "binary", "count": "exact", "multicount": "exact"}


def drawn_kinds(space: TypeSpace, queries: str) -> dict[str, str]:
    """The kinds of query that the family ``queries``, comma-joined names
    of ``_KINDS``, draws on ``space``, in ``_KINDS`` order, each with how
    it splits a state.  Count kinds need a common alphabet.  Refuses an
    unknown kind, then an empty family, then a family that draws no kind
    on ``space``."""
    names = [s.strip() for s in queries.split(",") if s.strip()]
    for name in names:
        if name not in _KINDS:
            raise InputError(f"unknown query family {name!r}")
    if not names:
        raise InputError("at least one query family must be enabled")
    counts = space.common_alphabet
    kinds = {k: split for k, split in _KINDS.items() if k in names and (k == "elicit" or counts)}
    if not kinds:
        raise InputError(
            "the query family draws no query on this instance: count kinds need a common alphabet"
        )
    return kinds


def _family_queries(space: TypeSpace, kinds: dict[str, str]):
    """``(kind, queries)`` for each count kind of the :func:`drawn_kinds`
    ``kinds``, in order."""
    subsets = list(_canonical_subsets(tuple(range(space.sizes[0]))))
    if "count" in kinds:
        yield "count", (exact_count_query(space, (s,)) for s in subsets)
    if "multicount" in kinds:
        pairs = itertools.combinations(subsets, 2)
        yield "multicount", (exact_count_query(space, pair) for pair in pairs)


def exact_count_query(space: TypeSpace, subsets) -> CountQuery | MultiCountQuery:
    """The query answering the exact count of agents per type subset: a
    count query for one subset, a multi-count query for several, with one
    cell per count value or count vector."""
    if len(subsets) == 1:
        return CountQuery(subsets[0], tuple((c,) for c in range(space.n + 1)))
    domain = itertools.product(range(space.n + 1), repeat=len(subsets))
    return MultiCountQuery(tuple(subsets), tuple((v,) for v in domain))


def _canonical_subsets(values: tuple[int, ...]):
    """Nonempty proper subsets of ``values``, one per complement pair: the
    one holding ``values[0]``, by size, then lexicographically.  Fewer than
    two values have none."""
    anchor, rest = values[:1], values[1:]
    for r in range(len(rest)):
        for combo in itertools.combinations(rest, r):
            yield anchor + combo


def _splits(space: TypeSpace, state: int, queries: Iterable[Query]):
    """The candidate splits of a state, as ``(query, cells)``: each query
    that leaves at least two nonempty cells on it, with those cells, once
    per induced partition (the first query that induces it).  Identical
    children give identical subtrees, so a search loses nothing by the
    dedupe."""
    seen: set[frozenset[int]] = set()
    for query in queries:
        cells = tuple(m for m in query_cell_masks(space, query, state) if m)
        signature = frozenset(cells)
        if len(cells) >= 2 and signature not in seen:
            seen.add(signature)
            yield query, cells


# ---------------------------------------------------------------------------
# contextually private implementation search


def _same_outcome_pairs(rule: ChoiceRule, universe: int) -> list[tuple[int, int]]:
    space = rule.space
    pairs = unilateral_pairs(space, universe, value=[rule.table] * space.n)
    return [(k, k2) for k, _, _, k2 in pairs]


def _separates_protected_pair(cells: tuple[int, ...], pairs: list[tuple[int, int]], state: int):
    for a, b in pairs:
        if not ((state >> a) & 1 and (state >> b) & 1):
            continue
        for m in cells:
            in_a, in_b = (m >> a) & 1, (m >> b) & 1
            if in_a != in_b:
                return (a, b)
            if in_a:
                break
    return None


def exhaustive_cp_search(
    rule: ChoiceRule,
    queries: str = "elicit",
    max_states: int = 100_000,
    universe: ProfileSet | None = None,
) -> SearchResult:
    """Decide whether a contextually private protocol exists for the rule
    over the query family ``queries``, the comma-joined kinds that
    :func:`drawn_kinds` reads and refuses.  The protected pairs are listed
    only when a state reaches the count kinds."""
    space = rule.space
    kinds = drawn_kinds(space, queries)
    universe = ProfileSet.full(space) if universe is None else universe
    pairs = None

    def first_count_query(state: int) -> Query | None:
        nonlocal pairs
        if pairs is None:
            pairs = _same_outcome_pairs(rule, universe.mask)
        drawn = itertools.chain.from_iterable(q for _, q in _family_queries(space, kinds))
        for query, cells in _splits(space, state, drawn):
            if _separates_protected_pair(cells, pairs, state) is None:
                return query
        return None

    others = first_count_query if kinds.keys() - {"elicit"} else None
    return greedy_search(rule, universe, "elicit" in kinds, others, max_states)
