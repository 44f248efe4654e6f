"""Exhaustive oracles over protocol space for tiny instances.

Both searches run on one engine, :func:`_solve`, a memoized AND-OR search
that decides implementability exactly: a state (reachable profile set) is
won iff the rule is constant on it or some candidate query splits it into
won states.  The searches differ only in their candidates.  Their one
budget is ``max_states``: past that many states a search stops with the
status ``budget_exhausted``; a bound below 1 is refused.

Contextual privacy is enforced incrementally: a query is a candidate only
if it separates no equal-outcome unilateral pair inside the state, which
is equivalent to privacy of the finished protocol (the earliest point of
departure of any violating pair contains both profiles).  Obvious
strategyproofness is a test of each node on its own state alone, so
memoization over states is exact for it too.

Every search draws its candidates from one stream: :func:`_family_queries`
(or the OSP search's own partitions) fed through :func:`_splits`, which
keeps one query per induced partition.  Count queries here answer with the
exact count: a query for a type subset splits a state into its count
fibers.  Coarser groupings of counts are expressible at the protocol level
but are not enumerated (ROADMAP item 1).  The ``enumerate`` report names
the family it decided: the :func:`_drawn_kinds` of its instance.

The protected pairs come from :func:`cpv.core.unilateral_pairs`, which
defines the scan order once; a leaking query reports the first pair it
separates in that order.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Optional

from cpv.core import (
    ChoiceRule,
    DomainModel,
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


@record
class _Candidate:
    query: Query
    cell_masks: tuple[int, ...]  # nonempty cells on the state


def _nonempty_cells(space: TypeSpace, query: Query, state: int) -> tuple[int, ...]:
    return tuple(m for m in query_cell_masks(space, query, state) if m)


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
    """The candidate splits of a state: each query that leaves at least two
    nonempty cells on it, once per induced partition (the first query that
    induces it).  Identical children give identical subtrees, so the
    searches lose nothing by the dedupe; a scan that reports every kind
    calls this once per kind."""
    seen: set[frozenset[int]] = set()
    for query in queries:
        masks = _nonempty_cells(space, query, state)
        signature = frozenset(masks)
        if len(masks) >= 2 and signature not in seen:
            seen.add(signature)
            yield _Candidate(query, masks)


# ---------------------------------------------------------------------------
# the search engine


def _solve(
    rule: ChoiceRule,
    root: int,
    candidates: Callable[[int], Iterable[_Candidate]],
    max_states: int,
) -> SearchResult:
    """Memoized AND-OR search from the root state; three-valued, never
    silently wrong.

    A state is won when the rule is constant on it, or when some candidate
    from ``candidates(state)`` splits it into won states.  The memo keeps
    the winning candidate of each won state, and the protocol is built
    from it.  Every split strictly shrinks the state, so the recursion is
    no deeper than the root is large.
    """
    if max_states < 1:
        raise InputError("budget bounds must be positive")
    if not root:
        raise InputError("universe is empty")
    won: dict[int, Optional[_Candidate]] = {}  # None where the rule is constant
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
        for cand in candidates(state):
            if all(map(winnable, cand.cell_masks)):
                won[state] = cand
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
        cand = won[label]
        return None if cand is None else (cand.query, lambda c, m: None)

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


def _separates_protected_pair(cand: _Candidate, pairs: list[tuple[int, int]], state: int):
    for a, b in pairs:
        if not ((state >> a) & 1 and (state >> b) & 1):
            continue
        for m in cand.cell_masks:
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
    over the given query family."""
    space = rule.space
    root = _root(space, universe)
    pairs = _same_outcome_pairs(rule, root)

    def candidates(state: int):
        kinds = _family_queries(space, state, family)
        queries = itertools.chain.from_iterable(q for _, q in kinds)
        for cand in _splits(space, state, queries):
            if _separates_protected_pair(cand, pairs, state) is None:
                yield cand

    result = _solve(rule, root, candidates, max_states)
    if result.found and not check_protocol_cp(result.protocol, rule).ok:
        raise AssertionError("search found a protocol that is not contextually private (bug)")
    return result


# ---------------------------------------------------------------------------
# obviously strategyproof implementation search


def _all_partitions(items: tuple[int, ...]):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for blocks in _all_partitions(rest):
        yield ((first,),) + blocks
        for i in range(len(blocks)):
            yield tuple(
                ((first,) + blocks[j] if j == i else blocks[j])
                for j in range(len(blocks))
            )


def exhaustive_osp_search(
    rule: ChoiceRule,
    model: DomainModel,
    max_states: int = 100_000,
    universe: ProfileSet | None = None,
) -> SearchResult:
    """Decide whether an obviously strategyproof elicitation protocol
    implements the rule.  Candidates split one agent's present types into
    at least two blocks (absent types join the first) and pass the OSP
    node test."""
    from cpv.mechanisms import _osp_node_failure, check_protocol_osp, outcome_ids, outcome_ranks

    space = rule.space
    root = _root(space, universe)
    ranks = outcome_ranks(rule, model, outcome_ids(rule, root))

    def queries(state: int):
        for agent in range(space.n):
            present = ProfileSet(space, state).projection(agent)
            absent = tuple(t for t in range(space.sizes[agent]) if t not in present)
            for blocks in _all_partitions(present):
                if len(blocks) > 1:  # one block never splits; cheaper to skip here
                    cells = (blocks[0] + absent,) + blocks[1:]
                    yield ElicitQuery(agent, tuple(tuple(sorted(c)) for c in cells))

    def candidates(state: int):
        for cand in _splits(space, state, queries(state)):
            agent, masks = cand.query.agent, cand.cell_masks
            if _osp_node_failure(space, rule, ranks, agent, masks) is None:
                yield cand

    result = _solve(rule, root, candidates, max_states)
    if result.found and not check_protocol_osp(result.protocol, rule, model).ok:
        raise AssertionError("search found a protocol that is not obviously strategyproof (bug)")
    return result


# ---------------------------------------------------------------------------
# obstruction scan


@record
class ObstructionEntry:
    kind: str  # elicit | count | multicount
    detail: str
    partition: tuple[tuple[int, ...], ...]  # profile indices of the scanned set
    violation: Optional[tuple[int, int]]  # separated equal-outcome unilateral pair

    @property
    def safe(self) -> bool:
        return self.violation is None


@record
class ObstructionReport:
    entries: tuple[ObstructionEntry, ...]
    nonconstant: bool

    @property
    def holds(self) -> bool:
        """True when the set genuinely obstructs: the rule must be computed
        on it, yet every query separating any of its members leaks."""
        return self.nonconstant and all(not e.safe for e in self.entries)


def obstruction_scan(
    rule: ChoiceRule, region: ProfileSet, family: QueryFamily
) -> ObstructionReport:
    """Enumerate every family query that separates members of ``region``
    and return, per query, an equal-outcome unilateral pair it separates
    (or mark it safe)."""
    space = rule.space
    state = region.mask
    pairs = _same_outcome_pairs(rule, state)
    entries = []
    for kind, queries in _family_queries(space, state, family):
        for cand in _splits(space, state, queries):
            query = cand.query
            if kind == "elicit":
                detail = f"agent {query.agent + 1}"
            elif kind == "count":
                detail = "{" + ",".join(space.alphabets[0][t] for t in query.subset) + "}"
            else:
                detail = f"l={len(query.subsets)}"
            violation = _separates_protected_pair(cand, pairs, state)
            partition = tuple(tuple(ProfileSet(space, m).indices()) for m in cand.cell_masks)
            entries.append(ObstructionEntry(kind, detail, partition, violation))
    return ObstructionReport(tuple(entries), not constant_on(rule, state))
