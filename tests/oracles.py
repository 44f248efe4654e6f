"""Reference implementations that the tests compare ``cpv`` against.

Each is a slow or exhaustive procedure kept apart from the program, as
``bench/oracle.py`` keeps its own; none is reached from the command line.

- :func:`witness_oracle`, a brute force over every product set, read by
  c14 in ``test_acceptance.py``, ``test_privacy.py::TestWitnessOracle``
  and the search and corners-gap tests in ``test_search.py``.  ROADMAP
  item 11's count of where the corners test decides checks against it.
- :func:`exhaustive_osp_search` with :func:`_all_partitions`, the
  obviously strategyproof search over every multiway elicitation split,
  read by c13, ``test_search.py::TestOspSearch``, the OSP rows of
  ``test_search_golden.py`` and ``test_outcome_ranks.py``.  ROADMAP item
  3's OSP node test in the one search engine is checked against it.
- :func:`obstruction_scan` with :class:`ObstructionEntry` and
  :class:`ObstructionReport`, which lists every family query on a set
  with the protected pair it separates, read by c11,
  ``test_first_hits.py`` and ``test_search.py::TestObstructionScan``.
  ROADMAP item 4's per-candidate reasons are checked against it.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

from cpv.core import (
    ChoiceRule,
    DomainModel,
    ProfileSet,
    ResourceError,
    Witness,
    constant_on,
    outcome_ids,
    record,
)
from cpv.mechanisms import _osp_node_failure, check_protocol_osp, outcome_ranks
from cpv.privacy import witness_verify
from cpv.protocol import ElicitQuery
from cpv.search import (
    SearchResult,
    _family_queries,
    _root,
    _same_outcome_pairs,
    _separates_protected_pair,
    _solve,
    _splits,
    drawn_kinds,
)

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
        for query, masks in _splits(space, state, queries(state)):
            if _osp_node_failure(space, rule, ranks, query.agent, masks) is None:
                yield query, masks

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


def obstruction_scan(rule: ChoiceRule, region: ProfileSet, queries: str) -> ObstructionReport:
    """Enumerate every query of the family ``queries`` (as ``cpv enumerate
    --queries`` takes it) that separates members of ``region``
    and return, per query, an equal-outcome unilateral pair it separates
    (or mark it safe).  Every kind is scanned on its own, so two kinds
    that induce one partition are each listed."""
    space = rule.space
    state = region.mask
    pairs = _same_outcome_pairs(rule, state)
    entries = []
    for kind, drawn in _family_queries(space, state, drawn_kinds(space, queries)):
        for query, cells in _splits(space, state, drawn):
            if kind == "elicit":
                detail = f"agent {query.agent + 1}"
            elif kind == "count":
                detail = "{" + ",".join(space.alphabets[0][t] for t in query.subset) + "}"
            else:
                detail = f"l={len(query.subsets)}"
            violation = _separates_protected_pair(cells, pairs, state)
            partition = tuple(tuple(ProfileSet(space, m).indices()) for m in cells)
            entries.append(ObstructionEntry(kind, detail, partition, violation))
    return ObstructionReport(tuple(entries), not constant_on(rule, state))
