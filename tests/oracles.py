"""Reference implementations that the tests compare ``cpv`` against.

Each is a slow or exhaustive procedure kept apart from the program, as
``bench/oracle.py`` keeps its own; none is reached from the command line.

- :func:`witness_oracle`, a brute force over every product set, read by
  c14 in ``test_acceptance.py``, ``test_privacy.py::TestWitnessOracle``
  and the search and corners-gap tests in ``test_search.py``.  ROADMAP
  item 11's count of where the corners test decides checks against it.
- :func:`separates_protected_pair`, the reference node test of contextual
  privacy: it walks the list of protected pairs, two profiles that differ
  in one agent's type and share the outcome, that :func:`same_outcome_pairs`
  builds, and returns the first pair a split separates.
  ``test_search.py::TestCountNodeTest`` checks lemma 1 of ``cpv.search``
  against it: a count split is safe iff its subsets are unions of the
  blocks that the decider's ``cpv.counts._blocks`` joins.
- :func:`solve`, the memoized AND-OR search that backtracks over every
  candidate of a state, and :func:`reference_cp_search`, the CP search on
  it over every query of a family that passes the pair test: the binary
  elicitation splits of :func:`elicit_queries` and the exact count and
  multi-count queries over every :func:`canonical_subsets` of the
  alphabet, which :func:`family_queries` streams kind by kind and
  :func:`distinct_splits` cuts into one split per induced partition.
  ``test_search.py::TestGreedyReference`` checks
  ``cpv.search.exhaustive_cp_search``, the one greedy decider of ``synth``
  and ``enumerate``, against it; :func:`protected_pair_classes`,
  the components of the protected pairs of a profile set, checks
  ``cpv.search.inseparability_classes``, the one class function, on
  product sets and on sets that are no products.
- :func:`exhaustive_osp_search` with :func:`_all_partitions`, the
  obviously strategyproof search over every multiway elicitation split,
  on :func:`solve`, read by c13, ``test_search.py::TestOspSearch``, the
  OSP rows of ``test_search_golden.py`` and ``test_outcome_ranks.py``.
  ROADMAP item 3's OSP node test in the one decider is checked against it.
- :func:`obstruction_scan` with :class:`ObstructionEntry` and
  :class:`ObstructionReport`, which lists every family query on a set
  with the protected pair it separates, read by c11,
  ``test_first_hits.py`` and ``test_search.py::TestObstructionScan``.
  ROADMAP item 4's per-candidate reasons are checked against it.
- :func:`instance_by_rows`, the cpv-1 row walk: a table instance read a
  row and a universe profile at a time, read by ``test_reader.py``.
  ROADMAP item 6's whole-column loader is checked against it.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Optional

from cpv import reader
from cpv.core import (
    ChoiceRule,
    DomainModel,
    InputError,
    Instance,
    LoadError,
    ProfileSet,
    ResourceError,
    TypeSpace,
    Witness,
    constant_on,
    outcome_ids,
    record,
)
from cpv.counts import exact_count_query
from cpv.privacy import check_protocol_cp, unilateral_pairs
from cpv.properties import _osp_node_failure, check_protocol_osp, outcome_ranks
from cpv.protocol import ElicitQuery, Query, build_protocol, implements, query_cell_masks
from cpv.search import SearchResult, drawn_kinds, witness_verify

# ---------------------------------------------------------------------------
# the protected-pair node test


def same_outcome_pairs(rule: ChoiceRule, universe: int) -> list[tuple[int, int]]:
    """The protected pairs inside ``universe``, in
    :func:`cpv.privacy.unilateral_pairs` order."""
    space = rule.space
    pairs = unilateral_pairs(space, universe, value=[rule.table] * space.n)
    return [(k, k2) for k, _, _, k2 in pairs]


def separates_protected_pair(cells: tuple[int, ...], pairs: list[tuple[int, int]], state: int):
    """The first of the ``pairs`` inside ``state`` whose profiles the
    disjoint ``cells`` put apart, or ``None``."""
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


# ---------------------------------------------------------------------------
# witness brute force


def witness_oracle(rule: ChoiceRule, cap: int = 1 << 20) -> Optional[Witness]:
    """Brute-force witness search over all product sets.

    Independent of the synthesis path: enumerates nonempty per-agent
    factors in ascending bitmask order and returns the first product set
    that verifies.  More than ``cap`` product sets is a resource error.
    """
    space = rule.space
    total = math.prod((1 << s) - 1 for s in space.sizes)
    if total > cap:
        raise ResourceError(f"{total} product sets exceed the cap {cap}")

    def bits_to_types(bits: int, size: int) -> tuple[int, ...]:
        return tuple(t for t in range(size) if bits >> t & 1)

    ranges = [range(1, 1 << s) for s in space.sizes]
    for combo in itertools.product(*ranges):
        factors = tuple(
            bits_to_types(b, s) for b, s in zip(combo, space.sizes)
        )
        w = Witness(factors)
        if witness_verify(rule, w):
            return w
    return None


# ---------------------------------------------------------------------------
# the AND-OR reference search


class _BudgetExhausted(Exception):
    pass


def solve(
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
    the recursion is no deeper than the root is large.
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


def root_mask(space: TypeSpace, universe: ProfileSet | None) -> int:
    return (1 << space.total) - 1 if universe is None else universe.mask


def canonical_subsets(values: tuple[int, ...]):
    """Nonempty proper subsets of ``values``, one per complement pair: the
    one holding ``values[0]``, by size, then lexicographically.  Fewer than
    two values have none."""
    anchor, rest = values[:1], values[1:]
    for r in range(len(rest)):
        for combo in itertools.combinations(rest, r):
            yield anchor + combo


def distinct_splits(space: TypeSpace, state: int, queries: Iterable[Query]):
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


def elicit_queries(space: TypeSpace, state: int):
    """The elicit-subset stream: per agent in order, one binary split of
    its present types per complement pair (absent types join the cell
    without the smallest present type)."""
    for agent, size in enumerate(space.sizes):
        for subset in canonical_subsets(ProfileSet(space, state).projection(agent)):
            yield ElicitQuery(agent, (subset, tuple(t for t in range(size) if t not in subset)))


def family_queries(space: TypeSpace, state: int, kinds: dict[str, str]):
    """``(kind, queries)`` for each drawn kind: the elicit-subset stream,
    then the exact count query of each canonical subset of the common
    alphabet, then that of each pair of them."""
    if "elicit" in kinds:
        yield "elicit", elicit_queries(space, state)
    subsets = list(canonical_subsets(tuple(range(space.sizes[0]))))
    if "count" in kinds:
        yield "count", (exact_count_query(space, (s,)) for s in subsets)
    if "multicount" in kinds:
        pairs = itertools.combinations(subsets, 2)
        yield "multicount", (exact_count_query(space, pair) for pair in pairs)


def reference_cp_search(
    rule: ChoiceRule,
    queries: str = "elicit",
    max_states: int = 100_000,
    universe: ProfileSet | None = None,
) -> SearchResult:
    """The contextually private search over every query of the family
    ``queries`` that passes the node test, on :func:`solve`."""
    space = rule.space
    kinds = drawn_kinds(space, queries)
    root = root_mask(space, universe)
    pairs = same_outcome_pairs(rule, root)

    def candidates(state: int):
        drawn = itertools.chain.from_iterable(q for _, q in family_queries(space, state, kinds))
        for query, cells in distinct_splits(space, state, drawn):
            if separates_protected_pair(cells, pairs, state) is None:
                yield query, cells

    result = solve(rule, root, candidates, max_states)
    if result.protocol and not check_protocol_cp(result.protocol, rule).ok:
        raise AssertionError("search found a protocol that is not contextually private (bug)")
    return result


def protected_pair_classes(rule: ChoiceRule, state: int, agent: int):
    """The agent's inseparability classes on any profile set, by brute
    force: every two profiles of the set that differ in the agent's type
    alone and share an outcome join their types, and the classes are the
    connected components.  They hold the types present in the set, each
    sorted, in the order of their smallest types."""
    space = rule.space
    members = [space.profile(k) for k in ProfileSet(space, state).indices()]
    joined: dict[int, set[int]] = {p[agent]: set() for p in members}
    for p, q in itertools.combinations(members, 2):
        others_equal = all(x == y for i, (x, y) in enumerate(zip(p, q)) if i != agent)
        if others_equal and rule.table[space.index(p)] == rule.table[space.index(q)]:
            joined[p[agent]].add(q[agent])
            joined[q[agent]].add(p[agent])
    classes, seen = [], set()
    for t in sorted(joined):
        if t not in seen:
            component, todo = set(), [t]
            while todo:
                u = todo.pop()
                if u not in component:
                    component.add(u)
                    todo.extend(joined[u])
            seen |= component
            classes.append(tuple(sorted(component)))
    return tuple(classes)


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
    node test.  The node test reads the node's state alone, so the memo
    over states is exact for it."""
    space = rule.space
    root = root_mask(space, universe)
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
        for query, masks in distinct_splits(space, state, queries(state)):
            if _osp_node_failure(space, rule, ranks, query.agent, masks) is None:
                yield query, masks

    result = solve(rule, root, candidates, max_states)
    if result.protocol and not check_protocol_osp(result.protocol, rule, model).ok:
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


def obstruction_scan(rule: ChoiceRule, region: ProfileSet, queries: str) -> ObstructionReport:
    """Enumerate every query of the family ``queries`` (as ``cpv enumerate
    --queries`` takes it) that separates members of ``region``
    and return, per query, an equal-outcome unilateral pair it separates
    (or mark it safe).  Every kind is scanned on its own, so two kinds
    that induce one partition are each listed."""
    space = rule.space
    state = region.mask
    pairs = same_outcome_pairs(rule, state)
    entries = []
    for kind, drawn in family_queries(space, state, drawn_kinds(space, queries)):
        for query, cells in distinct_splits(space, state, drawn):
            if kind == "elicit":
                detail = f"agent {query.agent + 1}"
            elif kind == "count":
                detail = "{" + ",".join(space.alphabets[0][t] for t in query.subsets[0]) + "}"
            else:
                detail = f"l={len(query.subsets)}"
            violation = separates_protected_pair(cells, pairs, state)
            partition = tuple(tuple(ProfileSet(space, m).indices()) for m in cells)
            entries.append(ObstructionEntry(kind, detail, partition, violation))
    return ObstructionReport(tuple(entries), not constant_on(rule, state))


# ---------------------------------------------------------------------------
# the cpv-1 row walk


def instance_by_rows(doc) -> Instance:
    """What ``cpv.reader.instance_from_json`` gives for ``doc``, a table
    instance without components or model, read one table row and one
    universe profile at a time through ``TypeSpace.index_of_labels``: the
    first row at fault is named by the reader's message and JSON pointer."""
    reader._check("instance", doc)
    space = reader._space_from_json(doc, "")
    reader._check("sized", doc, space.sizes)
    if "components" in doc or "model" in doc or "protocol" in doc:
        raise ValueError("the row walk reads table instances without components or model")
    ids = {lab: i for i, lab in enumerate(doc.get("outcomes", []))}
    if len(ids) < len(doc.get("outcomes", [])):
        raise LoadError("/outcomes", "duplicate outcome labels")
    table = [-1] * space.total
    r = 0
    with reader._at(lambda: f"/rule/table/{r}/profile"):
        for r, row in enumerate(doc["rule"]["table"]):
            k = space.index_of_labels(row["profile"])
            if table[k] != -1:
                raise LoadError(f"/rule/table/{r}", "duplicate profile row")
            table[k] = ids.setdefault(row["outcome"], len(ids))
    if -1 in table:
        labels = list(space.labels(space.profile(table.index(-1))))
        missing = repr(labels) if len(labels) <= 64 else repr(labels[:64]) + "..."
        raise LoadError("/rule/table", f"rule table is not total: missing {missing}")
    rule = ChoiceRule(space, tuple(ids), tuple(table))
    universe = doc.get("universe")
    if universe == []:
        raise LoadError("/universe", "universe is empty")
    if isinstance(universe, list):
        mask = 0
        for i, labels in enumerate(universe):
            with reader._at(f"/universe/{i}"):
                mask |= 1 << space.index_of_labels(labels)
        universe = ProfileSet(space, mask)
    elif universe is not None:
        universe = reader._universe_from_json(universe, space, "/universe")
    return Instance(rule, None, universe)
