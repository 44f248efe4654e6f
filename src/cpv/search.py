"""The one decider of contextually private implementation: the greedy
engine, its candidate queries, inseparability classes and witnesses, and
the ``synth`` and ``enumerate`` commands that run it.

:func:`exhaustive_cp_search` decides implementability over a query family
exactly; ``cpv enumerate`` runs it over the family it is given and ``cpv
synth``, through :func:`synthesize_or_witness`, over elicitation alone.  A
query passes the node test of a state (a reachable profile set) when it
separates no equal-outcome unilateral pair inside it, which is equivalent
to privacy of the finished protocol: the earliest point of departure of
any violating pair holds both profiles.

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
2·|root|−1 states, and a found protocol has one node per state visited;
with the profile space capped at 2^20 profiles that is at most 2^21−1
states, so the search takes no bound of its own.  The AND-OR search that
backtracks over every candidate, the whole stream of count queries
included, is kept as a reference in ``tests/oracles.py``, where the
obviously strategyproof search over multiway elicitation splits runs on it
(ROADMAP item 3).

Two types of an agent are directly inseparable on a state when some fixed
opponent profile gives both, inside the state, one outcome; the transitive
closure partitions the agent's present types into inseparability classes.
A split of the agent passes the node test iff it is a union of classes, so
the engine splits by them, as Kushilevitz's decomposability test for
two-party privacy (*Privacy and Communication Complexity*, SIAM J.
Discrete Math. 1992) splits by classes of rows and columns.  A product set
on which the rule is non-constant while every agent's types fall in a
single class is a machine-checkable witness that no contextually private
sequential-elicitation protocol exists; the engine gives the stuck state's
factors as one when elicitation is in the family and that state is a
product set.

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
the first safe one of its binary splits.  Exact counts are decided from the
*blocks* of a state, the parts of the join of every agent's classes on the
common alphabet, by :func:`cpv.counts.count_query`; its docstring proves
lemma 1 (which count splits are safe) and gives the order of its picks.

Lemma 2: where elicitation is stuck, no count split passes.  Proof: each
agent's present types lie in one class, so in one block, and the count of
a union of blocks is constant.  So with elicitation drawn the count kinds
are never tried, and :mod:`cpv.counts` is never imported; the report still
names them.  The CP check of a found protocol imports :mod:`cpv.privacy`,
so a run that ends in a witness compiles neither.
"""

from __future__ import annotations

from typing import Optional

from cpv.core import (
    ChoiceRule,
    InputError,
    ProfileSet,
    TypeSpace,
    Witness,
    check_factors,
    constant_on,
    mask_flags,
    mask_indices,
    product_factorization,
    record,
)
from cpv.protocol import ElicitQuery, Protocol, build_protocol, implements, validate_protocol
from cpv.reader import load

# ---------------------------------------------------------------------------
# inseparability classes


class UnionFind:
    """Array union-find with path compression and a count of its classes."""

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))
        self.classes = size

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)
            self.classes -= 1


def inseparability_classes(rule: ChoiceRule, state: int, agent: int) -> tuple[tuple[int, ...], ...]:
    """Equivalence classes of the agent's types present in the profile-set
    mask ``state``, each sorted, in the order of their smallest types.

    Each of the agent's lines (the profiles that differ from one another
    in its type alone) that meets the state is read as a row of outcomes,
    one per present type.  An entry whose profile lies outside the state
    reads ``~position``, a value of its own, so it joins nothing.  Types
    sharing an outcome in some row are joined, and the union-find closure
    yields the partition.  Where every line is whole (on a product set)
    no entry is tested.  Equal rows give equal edges, so each distinct row
    is scanned once, and the scan stops once all types are joined.
    """
    space = rule.space
    if not 0 <= agent < space.n:
        raise InputError(f"unknown agent {agent}")
    stride, fill, table = space.strides[agent], space.digit_fills[agent], rule.table
    # per present type, the lines it meets, as their type-0 profiles
    met = [(t, m) for t in range(space.sizes[agent]) if (m := (state >> t * stride) & fill)]
    lines = 0
    for _, m in met:
        lines |= m
    bases = mask_indices(lines)
    columns = [[table[b + t * stride] for b in bases] for t, _ in met]
    for p, (_, m) in enumerate(met):
        if m != lines:
            flags = mask_flags(m, space.total)
            columns[p] = [x if flags[b] else ~p for b, x in zip(bases, columns[p])]
    uf = UnionFind(len(met))
    for row in set(zip(*columns)):
        if uf.classes <= 1:
            break
        fiber: dict[int, int] = {}
        for p, x in enumerate(row):
            q = fiber.setdefault(x, p)
            if q != p:
                uf.union(q, p)
    classes: dict[int, list[int]] = {}  # by root, the smallest position of its class
    for p, (t, _) in enumerate(met):
        classes.setdefault(uf.find(p), []).append(t)
    return tuple(map(tuple, classes.values()))


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


# ---------------------------------------------------------------------------
# the engine


@record
class SearchResult:
    status: str  # found | nonexistent
    protocol: Optional[Protocol] = None
    states: int = 0
    witness: Optional[Witness] = None  # the stuck state, when elicit is drawn and it is a product


class _Stuck(Exception):
    """Ends a run at the state, its one argument, where no candidate passes."""


def exhaustive_cp_search(
    rule: ChoiceRule, queries: str = "elicit", universe: ProfileSet | None = None
) -> SearchResult:
    """Decide whether a contextually private protocol implements the rule
    on ``universe`` (the whole space by default) over the query family
    ``queries``, the comma-joined kinds that :func:`drawn_kinds` reads and
    refuses, stepping each state once, in preorder.

    A state where the rule is constant is a leaf.  Otherwise it takes the
    first candidate that passes the node test: with elicitation, per agent
    in order, the inseparability class of the agent's smallest present type
    against the rest of its alphabet, if the agent has two classes, and no
    count split after it (lemma 2); without it, the count split that
    :func:`cpv.counts.count_query` picks from the blocks of the state.
    Where none passes, nonexistence is proven, and with elicitation drawn
    the witness is :func:`cpv.core.product_factorization` of the stuck
    state.  A found protocol is validated and checked to implement the rule
    and to be contextually private.
    """
    space = rule.space
    kinds = drawn_kinds(space, queries)
    universe = ProfileSet.full(space) if universe is None else universe
    if universe.is_empty:
        raise InputError("universe is empty")
    elicit = "elicit" in kinds
    if not elicit:  # with elicitation drawn no count split is tried (lemma 2)
        from cpv.counts import count_query
    states = 0

    def step(label: int, _state):
        nonlocal states
        states += 1
        if constant_on(rule, label):
            return None
        if elicit:
            for agent in range(space.n):
                classes = inseparability_classes(rule, label, agent)
                if len(classes) > 1:
                    first = classes[0]
                    rest = tuple(t for t in range(space.sizes[agent]) if t not in first)
                    return ElicitQuery(agent, (first, rest)), lambda _c, _m: None
        elif (query := count_query(rule, label, kinds)) is not None:
            return query, lambda _c, _m: None
        raise _Stuck(label)

    try:
        protocol = build_protocol(space, step, None, universe)
    except _Stuck as stuck:
        factors = product_factorization(space, ProfileSet(space, stuck.args[0])) if elicit else None
        return SearchResult("nonexistent", None, states, factors and Witness(factors))
    from cpv.privacy import check_protocol_cp

    if validate_protocol(protocol):
        raise AssertionError("decided protocol fails validation (bug)")
    if not implements(protocol, rule):
        raise AssertionError("decided protocol does not implement the rule (bug)")
    if not check_protocol_cp(protocol, rule).ok:
        raise AssertionError("decided protocol is not contextually private (bug)")
    return SearchResult("found", protocol, states)


# ---------------------------------------------------------------------------
# witnesses


def synthesize_or_witness(rule: ChoiceRule, root_factors=None) -> Protocol | Witness:
    """A contextually private sequential-elicitation protocol on the
    product set ``root_factors`` (the whole space by default), or a witness
    that none exists: :func:`exhaustive_cp_search` over elicitation alone,
    whose stuck state is a product set on which every
    agent's types form one inseparability class."""
    space = rule.space
    universe = None if root_factors is None else ProfileSet.from_factors(space, root_factors)
    result = exhaustive_cp_search(rule, "elicit", universe)
    return result.protocol or result.witness


def witness_verify(rule: ChoiceRule, witness: Witness) -> bool:
    """Re-derivation of the certificate: non-constant on the product set,
    and every agent's factor lies inside one inseparability class."""
    space = rule.space
    state = ProfileSet.from_factors(space, check_factors(space, witness.factors, "witness ")).mask
    if constant_on(rule, state):
        return False
    return all(len(inseparability_classes(rule, state, agent)) == 1 for agent in range(space.n))


def witness_minimize(rule: ChoiceRule, witness: Witness) -> Witness:
    """Greedy shrink of each factor while the certificate keeps verifying;
    the result is locally minimal and human-checkable."""
    if not witness_verify(rule, witness):
        raise InputError("cannot minimize: not a valid witness")
    factors = [list(f) for f in witness.factors]
    changed = True
    while changed:
        changed = False
        for agent in range(len(factors)):
            for t in list(factors[agent]):
                if len(factors[agent]) == 1:
                    break
                trial = [tuple(f) for f in factors]
                trial[agent] = tuple(x for x in factors[agent] if x != t)
                if witness_verify(rule, Witness(tuple(trial))):
                    factors[agent] = [x for x in factors[agent] if x != t]
                    changed = True
    return Witness(tuple(tuple(f) for f in factors))


# ---------------------------------------------------------------------------
# the synth and enumerate commands


def synth_command(args) -> tuple[int, dict]:
    """The report of ``cpv synth`` and its exit code; ``--emit`` writes a
    protocol found."""
    loaded = load(args.instance)
    instance = loaded.instance
    factors = None
    if instance.universe is not None:
        factors = product_factorization(instance.space, instance.universe)
        if factors is None:
            raise InputError("synthesis needs a product universe")
    result = synthesize_or_witness(instance.rule, factors)
    if isinstance(result, Protocol):
        doc = {
            "command": "synth",
            "result": "protocol",
            "nodes": len(result.nodes),
            "leaves": len(result.leaves()),
        }
        if args.emit:
            doc["emitted"] = _write_protocol(result, args.emit)
        return 0, doc
    minimized = witness_minimize(instance.rule, result)
    doc = {
        "command": "synth",
        "result": "witness",
        "witness": _witness_to_json(instance.space, result),
        "minimized": _witness_to_json(instance.space, minimized),
    }
    return 1, doc


def enumerate_command(args) -> tuple[int, dict]:
    """The report of ``cpv enumerate`` and its exit code; ``--emit`` writes
    a protocol found."""
    loaded = load(args.instance)
    result = exhaustive_cp_search(loaded.instance.rule, args.queries, loaded.instance.universe)
    doc = {
        "command": "enumerate",
        "family": drawn_kinds(loaded.instance.space, args.queries),
        "queries": args.queries,
        "status": result.status,
        "states": result.states,
    }
    if result.status == "nonexistent":
        doc["result"] = "proven-nonexistent"
        return 1, doc
    if args.emit:
        doc["emitted"] = _write_protocol(result.protocol, args.emit)
    doc["nodes"] = len(result.protocol.nodes)
    return 0, doc


def _witness_to_json(space: TypeSpace, witness: Witness) -> dict:
    return {"factors": [list(f) for f in witness.labels(space)]}


def _write_protocol(protocol: Protocol, path: str) -> str:
    """Writes the cpv-1 document of ``protocol`` to ``path``; returns ``path``."""
    from cpv import jsonwriter

    return jsonwriter.write(jsonwriter.protocol_to_json(protocol), path)
