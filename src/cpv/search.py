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

The family is the comma-joined ``--queries`` string of ``cpv enumerate``.
``_KINDS`` lists each kind a family may name with how it splits a state:
elicitation in two, counts (``count``, and ``multicount`` for the joint
counts of two type subsets) into their exact fibres.  Coarser groupings
of counts are expressible at the protocol level but are not enumerated
(ROADMAP item 1).  :func:`drawn_kinds` reads the string into the kinds
drawn on a space, with their splits, and refuses an unknown kind, an
empty family and a family that draws no kind there; the ``enumerate``
report names the family it decided by it.

The candidates come from one stream: :func:`_family_queries` fed through
:func:`_splits`, which keeps one query per induced partition.

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
    CountQuery,
    ElicitQuery,
    MultiCountQuery,
    Protocol,
    Query,
    build_protocol,
    implements,
    query_cell_masks,
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


def _family_queries(space: TypeSpace, state: int, kinds: dict[str, str]):
    """``(kind, queries)`` for each of the :func:`drawn_kinds` ``kinds``.
    The count subsets are built only when a count kind is drawn."""
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
    queries: str = "elicit",
    max_states: int = 100_000,
    universe: ProfileSet | None = None,
) -> SearchResult:
    """Decide whether a contextually private protocol exists for the rule
    over the query family ``queries``, the comma-joined kinds that
    :func:`drawn_kinds` reads and refuses."""
    space = rule.space
    kinds = drawn_kinds(space, queries)
    root = _root(space, universe)
    pairs = _same_outcome_pairs(rule, root)

    def candidates(state: int):
        drawn = itertools.chain.from_iterable(q for _, q in _family_queries(space, state, kinds))
        for query, cells in _splits(space, state, drawn):
            if _separates_protected_pair(cells, pairs, state) is None:
                yield query, cells

    result = _solve(rule, root, candidates, max_states)
    if result.found and not check_protocol_cp(result.protocol, rule).ok:
        raise AssertionError("search found a protocol that is not contextually private (bug)")
    return result
