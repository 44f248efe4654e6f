"""Exhaustive contextually private protocol search for tiny instances.

The search, :func:`exhaustive_cp_search`, runs on :func:`_solve`, a
memoized AND-OR search that decides implementability exactly: a state
(reachable profile set) is won iff the rule is constant on it or some
candidate query splits it into won states.  Its one budget is
``max_states``: past that many states the search stops with the status
``budget_exhausted``; a bound below 1 is refused.  The obviously
strategyproof search over multiway elicitation splits is kept apart, as a
reference on the same engine in ``tests/oracles.py`` (ROADMAP item 3).

Contextual privacy is enforced incrementally: a query is a candidate only
if it separates no equal-outcome unilateral pair inside the state, which
is equivalent to privacy of the finished protocol (the earliest point of
departure of any violating pair contains both profiles).

The candidates come from one stream: :func:`_family_queries` fed through
:func:`_splits`, which keeps one query per induced partition.  Count
queries here answer with the exact count: a query for a type subset
splits a state into its count fibers.  Coarser groupings of counts are
expressible at the protocol level but are not enumerated (ROADMAP item
1).  The ``enumerate`` report names the family it decided: the
:func:`_drawn_kinds` of its instance; a family that draws no kind there
is refused.

The protected pairs come from :func:`cpv.core.unilateral_pairs`, which
defines the scan order once; a leaking query reports the first pair it
separates in that order.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Optional

from cpv.core import (
    ChoiceRule,
    InputError,
    ProfileSet,
    TypeSpace,
    constant_on,
    record,
    unilateral_pairs,
)
from cpv.privacy import check_protocol_cp
from cpv.protocol import (
    ElicitQuery,
    Protocol,
    Query,
    _canonical_subsets,
    build_protocol,
    exact_count_query,
    implements,
    query_cell_masks,
)


@record
class QueryFamily:
    allow_elicit: bool = True
    allow_count: bool = False
    allow_multicount: bool = False  # joint counts of two type subsets

    def __post_init__(self) -> None:
        if not (self.allow_elicit or self.allow_count or self.allow_multicount):
            raise InputError("at least one query family must be enabled")

    @classmethod
    def parse(cls, spec: str) -> QueryFamily:
        names = [s.strip() for s in spec.split(",") if s.strip()]
        allowed = {"elicit", "count", "multicount"}
        for name in names:
            if name not in allowed:
                raise InputError(f"unknown query family {name!r}")
        return cls(
            allow_elicit="elicit" in names,
            allow_count="count" in names,
            allow_multicount="multicount" in names,
        )


@record
class SearchResult:
    status: str  # found | nonexistent | budget_exhausted
    protocol: Optional[Protocol] = None
    states: int = 0

    @property
    def found(self) -> bool:
        return self.status == "found"


class _BudgetExhausted(Exception):
    pass


# ---------------------------------------------------------------------------
# candidate queries


def _drawn_kinds(space: TypeSpace, family: QueryFamily) -> dict[str, str]:
    """The kinds of query a search draws from the family on ``space``, each
    with how it splits a state: elicitation in two, counts into their exact
    fibres.  Count kinds need a common alphabet."""
    counts = space.common_alphabet
    drawn = (family.allow_elicit, counts and family.allow_count, counts and family.allow_multicount)
    grains = {"elicit": "binary", "count": "exact", "multicount": "exact"}
    return {kind: grain for (kind, grain), on in zip(grains.items(), drawn) if on}


def _family_queries(space: TypeSpace, state: int, family: QueryFamily):
    """``(kind, queries)`` for each of the :func:`_drawn_kinds`.  The count
    subsets are built only when a count kind is drawn."""
    kinds = _drawn_kinds(space, family)
    if "elicit" in kinds:
        yield "elicit", (
            ElicitQuery(agent, (subset, tuple(t for t in range(size) if t not in subset)))
            for agent, size in enumerate(space.sizes)
            for subset in _canonical_subsets(ProfileSet(space, state).projection(agent))
        )
    if kinds.keys() & {"count", "multicount"}:
        subsets = list(_canonical_subsets(tuple(range(space.sizes[0]))))
        if "count" in kinds:
            yield "count", (exact_count_query(space, (s,)) for s in subsets)
        if "multicount" in kinds:
            pairs = itertools.combinations(subsets, 2)
            yield "multicount", (exact_count_query(space, pair) for pair in pairs)


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
# the search engine


def _solve(
    rule: ChoiceRule,
    root: int,
    candidates: Callable[[int], Iterable[tuple[Query, tuple[int, ...]]]],
    max_states: int,
) -> SearchResult:
    """Memoized AND-OR search from the root state; three-valued, never
    silently wrong.

    A state is won when the rule is constant on it, or when some candidate
    ``(query, cells)`` from ``candidates(state)`` splits it into won
    states.  The memo keeps the winning query of each won state, and the
    protocol is built from it.  Every split strictly shrinks the state, so
    the recursion is no deeper than the root is large.  The CP search is
    the one search here; the OSP search in ``tests/oracles.py`` is a
    reference that runs on this engine too.
    """
    if max_states < 1:
        raise InputError("budget bounds must be positive")
    if not root:
        raise InputError("universe is empty")
    won: dict[int, Optional[Query]] = {}  # None where the rule is constant
    lost: set[int] = set()
    states_seen = 0

    def winnable(state: int) -> bool:
        nonlocal states_seen
        if state in won or state in lost:
            return state in won
        states_seen += 1
        if states_seen > max_states:
            raise _BudgetExhausted
        if constant_on(rule, state):
            won[state] = None
            return True
        for query, cells in candidates(state):
            if all(map(winnable, cells)):
                won[state] = query
                return True
        lost.add(state)
        return False

    try:
        ok = winnable(root)
    except _BudgetExhausted:
        return SearchResult("budget_exhausted", states=states_seen)
    if not ok:
        return SearchResult("nonexistent", states=states_seen)

    def step(label: int, _state):
        query = won[label]
        return None if query is None else (query, lambda c, m: None)

    protocol = build_protocol(rule.space, step, None, ProfileSet(rule.space, root))
    if not implements(protocol, rule):
        raise AssertionError("search result does not implement the rule (bug)")
    return SearchResult("found", protocol, states_seen)


def _root(space: TypeSpace, universe: ProfileSet | None) -> int:
    return (1 << space.total) - 1 if universe is None else universe.mask


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
    family: QueryFamily,
    max_states: int = 100_000,
    universe: ProfileSet | None = None,
) -> SearchResult:
    """Decide whether a contextually private protocol exists for the rule
    over the given query family.  A family that draws no kind of query on
    the rule's space is refused."""
    space = rule.space
    if not _drawn_kinds(space, family):
        raise InputError(
            "the query family draws no query on this instance: count kinds need a common alphabet"
        )
    root = _root(space, universe)
    pairs = _same_outcome_pairs(rule, root)

    def candidates(state: int):
        kinds = _family_queries(space, state, family)
        queries = itertools.chain.from_iterable(q for _, q in kinds)
        for query, cells in _splits(space, state, queries):
            if _separates_protected_pair(cells, pairs, state) is None:
                yield query, cells

    result = _solve(rule, root, candidates, max_states)
    if result.found and not check_protocol_cp(result.protocol, rule).ok:
        raise AssertionError("search found a protocol that is not contextually private (bug)")
    return result
