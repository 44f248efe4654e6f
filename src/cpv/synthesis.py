"""Rule-level privacy: corners, inseparability classes, the greedy
decider, witnesses and non-bossiness.

Two types of an agent are directly inseparable on a product set when some
fixed opponent profile gives them equal outcomes; the transitive closure
partitions the agent's types into inseparability classes.  A product set
on which the rule is non-constant while every agent's types fall in a
single class is a machine-checkable witness that no contextually private
sequential-elicitation protocol exists.  :func:`greedy_search` splits by
these classes, as Kushilevitz's decomposability test for two-party
privacy splits by classes of rows and columns; it decides both ``cpv
synth`` and ``cpv enumerate``.

The corners scan decides one two-agent plane at a time whether a failing
square exists, and scans pairs only to name the first one; it and the
non-bossiness scan enumerate their pairs with
:func:`cpv.core.unilateral_pairs`, as the protocol-level checks of
:mod:`cpv.privacy` do.

``cpv check --property corners|nonbossy``, ``cpv synth`` and ``cpv
enumerate`` import this module; ``check`` of CP, ICP, GCP or tatonnement,
which read protocols only, never compile it.
"""

from __future__ import annotations

from typing import Callable, Optional

from cpv.core import (
    ChoiceRule,
    InputError,
    Profile,
    ProfileSet,
    TypeSpace,
    Verdict,
    Witness,
    check_factors,
    constant_on,
    mask_flags,
    mask_indices,
    product_factorization,
    product_indices,
    record,
    unilateral_pairs,
)
from cpv.privacy import _own_components, check_protocol_cp
from cpv.protocol import (
    ElicitQuery,
    Protocol,
    Query,
    build_protocol,
    implements,
    validate_protocol,
)


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


def _as_factors(rule: ChoiceRule, region) -> tuple[tuple[int, ...], ...]:
    if isinstance(region, ProfileSet):
        factors = product_factorization(rule.space, region)
        if factors is None:
            raise InputError("inseparability needs a product profile set")
        return factors
    return check_factors(rule.space, region)


def inseparability_classes(rule: ChoiceRule, region, agent: int) -> tuple[tuple[int, ...], ...]:
    """Equivalence classes of agent's types on a product set, each sorted,
    in the order of their smallest types.

    Direct edges come from the outcome fibers of each opponent row: the
    outcomes of the agent's types against one fixed opponent profile.
    Types sharing an outcome in some row are joined, and the union-find
    closure yields the partition.  Opponent profiles with equal rows give
    equal edges, so each distinct row is scanned once, and the scan stops
    once all types are joined.
    """
    factors = _as_factors(rule, region)
    space = rule.space
    if not 0 <= agent < space.n:
        raise InputError(f"unknown agent {agent}")
    types = factors[agent]
    table, stride = rule.table, space.strides[agent]
    bases = product_indices(space, factors[:agent] + ((0,),) + factors[agent + 1:])
    columns = [[table[b + t * stride] for b in bases] for t in types]
    uf = UnionFind(len(types))
    for row in set(zip(*columns)):
        if uf.classes <= 1:
            break
        fiber: dict[int, int] = {}
        for p, x in enumerate(row):
            q = fiber.setdefault(x, p)
            if q != p:
                uf.union(q, p)
    return _groups(map(uf.find, range(len(types))), types)


def _classes_on(rule: ChoiceRule, state: int, agent: int) -> tuple[tuple[int, ...], ...]:
    """:func:`inseparability_classes` on any profile set, given as a mask:
    the agent's types present in the state, two of them directly
    inseparable when some opponent profile gives both, inside the state,
    one outcome.  On a product state the two agree."""
    space = rule.space
    stride, size, table = space.strides[agent], space.sizes[agent], rule.table
    uf = UnionFind(size)
    present = [False] * size
    fiber: dict[tuple[int, int], int] = {}  # (opponent profile, outcome) -> first type
    for k in mask_indices(state):
        t = k // stride % size
        present[t] = True
        q = fiber.setdefault((k - t * stride, table[k]), t)
        if q != t:
            uf.union(q, t)
    types = [t for t in range(size) if present[t]]
    return _groups(map(uf.find, types), types)


def _groups(keys, types) -> tuple[tuple[int, ...], ...]:
    """``types`` grouped by their ``keys``, each group sorted, in the order
    of their smallest types."""
    groups: dict[int, list[int]] = {}
    for key, t in zip(keys, types):
        groups.setdefault(key, []).append(t)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values()))


# ---------------------------------------------------------------------------
# corners scan


@record
class CornersViolation:
    agent_i: int
    agent_j: int
    types_i: tuple[int, int]
    types_j: tuple[int, int]
    rest: Profile  # full profile; positions i and j give the (type_i, type_j) corner
    shared_outcome: str
    fourth_outcome: str


def corners_scan(rule: ChoiceRule, region: ProfileSet | None = None) -> Verdict:
    """Two-agent square test: three equal corners force the fourth.

    A fast necessary condition for contextual privacy; the first failing
    square in scan order is reported as a :class:`CornersViolation`.
    :func:`_some_plane_fails` decides whether one exists; only then are
    squares scanned.  A square on the unilateral pair ``(k, ki)`` and
    agent ``j`` lies in the pair's two rows along ``j``, tried only if
    :func:`_rows_may_fail` flags them, once per row pair.
    """
    space = rule.space
    if space.n < 2:
        return Verdict(True)
    universe = region.mask if region is not None else (1 << space.total) - 1
    member = mask_flags(universe, space.total)
    table = rule.table
    if not _some_plane_fails(space, table, member):
        return Verdict(True)
    # per agent i, the later agents j with their strides, sizes and the
    # row-pair flags, keyed by the row of k and the type ti2
    later = [
        [(j, space.strides[j], space.sizes[j], {}) for j in range(i + 1, space.n)]
        for i in range(space.n)
    ]
    for k, i, ti2, ki in unilateral_pairs(space, universe):
        for j, sj, size_j, may_fail in later[i]:
            tj = k // sj % size_j
            a = k - tj * sj
            flag = may_fail.get((a, ti2))
            if flag is None:
                flag = may_fail[a, ti2] = _rows_may_fail(
                    table, member, a, ki - k, sj, size_j
                )
            if not flag:
                continue
            for tj2 in range(tj + 1, size_j):
                d = (tj2 - tj) * sj
                if not member[k + d] or not member[ki + d]:
                    continue
                bad = _corner_defect(table[k], table[ki], table[k + d], table[ki + d])
                if bad is not None:
                    x, y = bad
                    profile = space.profile(k)
                    return Verdict(False, CornersViolation(
                        i, j, (profile[i], ti2), (tj, tj2), profile,
                        rule.outcomes[x], rule.outcomes[y],
                    ))
    return Verdict(True)


def _some_plane_fails(space: TypeSpace, table, member) -> bool:
    """Whether a square with exactly three equal corners lies in the
    region, decided per plane of agents ``i < j`` (other types fixed).

    A plane with a hole is decided on its row pairs.  In a whole plane,
    let ``S(v, c)`` be the types of ``i`` where column ``c`` gives ``v``.
    A failing square has ``v`` at rows ``r, s`` of column ``c`` and at
    ``r`` alone in ``d``: ``S(v, c)`` and ``S(v, d)`` meet and differ.
    Such sets, meeting at ``r`` with ``s`` in one only, give that square.
    So a plane fails iff two distinct sets for one ``v`` meet.
    """
    holey = 0 in member
    for i, (si, mi) in enumerate(zip(space.strides, space.sizes)):
        rows = range(0, mi * si, si)
        for j in range(i + 1, space.n):
            sj, mj = space.strides[j], space.sizes[j]
            factors = [(0,) if a in (i, j) else range(m) for a, m in enumerate(space.sizes)]
            for base in product_indices(space, factors):
                starts = range(base, base + mj * sj, sj)
                if holey and any(0 in member[c:c + mi * si:si] for c in starts):
                    if any(_rows_may_fail(table, member, base + r, s - r, sj, mj)
                           for r in rows for s in rows if r < s):
                        return True
                    continue
                sets = set()  # (v, S(v, c)) per distinct column
                for column in {table[c:c + mi * si:si] for c in starts}:
                    rows_of, bit = {}, 1
                    for x in column:
                        rows_of[x] = rows_of.get(x, 0) | bit
                        bit <<= 1
                    sets.update(rows_of.items())
                union = {}
                for x, m in sets:
                    if union.get(x, 0) & m:
                        return True
                    union[x] = union.get(x, 0) | m
    return False


def _rows_may_fail(table, member, a: int, shift: int, stride: int, size: int) -> bool:
    """Whether rows ``a`` and ``a + shift`` (profile ``a + c * stride`` for
    each type ``c`` of one agent, and that profile shifted), on the columns
    where both profiles are in the region, hold a square with exactly three
    equal corners.

    Such a square has one column whose two outcomes are equal, to ``v``
    say, and one whose two outcomes differ, one of them being ``v``.  So
    the rows hold one iff some value of an equal column is a value of an
    unequal column.
    """
    b, end = a + shift, a + size * stride
    cells = [
        (x, y)
        for x, y, p, q in zip(
            table[a:end:stride], table[b:end + shift:stride],
            member[a:end:stride], member[b:end + shift:stride],
        )
        if p and q
    ]
    equal = {x for x, y in cells if x == y}
    return bool(equal) and any(x in equal or y in equal for x, y in cells if x != y)


def _corner_defect(o00, o10, o01, o11):
    for three, fourth in (
        ((o00, o10, o01), o11),
        ((o00, o10, o11), o01),
        ((o00, o01, o11), o10),
        ((o10, o01, o11), o00),
    ):
        if three[0] == three[1] == three[2] != fourth:
            return three[0], fourth
    return None


# ---------------------------------------------------------------------------
# the greedy decider and witnesses


@record
class SearchResult:
    status: str  # found | nonexistent | budget_exhausted
    protocol: Optional[Protocol] = None
    states: int = 0
    witness: Optional[Witness] = None  # the stuck state, when it is a product set


class _Stop(Exception):
    """Ends a run with the status it names."""


def greedy_search(
    rule: ChoiceRule,
    universe: ProfileSet,
    elicit: bool = True,
    first_other: Callable[[int], Optional[Query]] | None = None,
    max_states: int | None = None,
) -> SearchResult:
    """Decide whether a contextually private protocol implements the rule
    on ``universe``, stepping each state once, in preorder.

    A state where the rule is constant is a leaf.  Otherwise it takes the
    first candidate that passes the node test: with ``elicit``, per agent
    in order, the inseparability class of the agent's smallest present type
    against the rest of its alphabet, if the agent has two classes; then
    ``first_other(state)``, the first passing query of the family's other
    kinds, or ``None``.  Where none passes, nonexistence is proven (see
    :mod:`cpv.search`), and the witness is the state's factors when it is a
    product set: product states carry their factors and are split by
    :func:`inseparability_classes`, other states by :func:`_classes_on`.
    A found protocol is validated and checked to implement the rule and to
    be contextually private.
    """
    if max_states is not None and max_states < 1:
        raise InputError("budget bounds must be positive")
    if universe.is_empty:
        raise InputError("universe is empty")
    space = rule.space
    states = 0
    stuck = None

    def step(label: int, factors):
        nonlocal states, stuck
        states += 1
        if max_states is not None and states > max_states:
            raise _Stop("budget_exhausted")
        if constant_on(rule, label):
            return None
        for agent in range(space.n) if elicit else ():
            classes = (_classes_on(rule, label, agent) if factors is None
                       else inseparability_classes(rule, factors, agent))
            if len(classes) > 1:
                first = classes[0]
                rest = tuple(t for t in range(space.sizes[agent]) if t not in first)
                kept = factors and (first, tuple(t for t in factors[agent] if t not in first))
                return ElicitQuery(agent, (first, rest)), (
                    lambda c, _m: kept and factors[:agent] + (kept[c],) + factors[agent + 1:]
                )
        query = first_other(label) if first_other is not None else None
        if query is None:
            stuck = factors
            raise _Stop("nonexistent")
        return query, lambda _c, _m: None

    try:
        root = product_factorization(space, universe)
        protocol = build_protocol(space, step, root, universe)
    except _Stop as stop:
        return SearchResult(stop.args[0], None, states, stuck and Witness(stuck))
    if validate_protocol(protocol):
        raise AssertionError("decided protocol fails validation (bug)")
    if not implements(protocol, rule):
        raise AssertionError("decided protocol does not implement the rule (bug)")
    if not check_protocol_cp(protocol, rule).ok:
        raise AssertionError("decided protocol is not contextually private (bug)")
    return SearchResult("found", protocol, states)


def synthesize_or_witness(rule: ChoiceRule, root_factors=None) -> Protocol | Witness:
    """A contextually private sequential-elicitation protocol on the
    product set ``root_factors`` (the whole space by default), or a witness
    that none exists: :func:`greedy_search` over elicitation alone, whose
    stuck state is a product set on which every agent's types form one
    inseparability class."""
    space = rule.space
    if root_factors is None:
        root_factors = tuple(tuple(range(s)) for s in space.sizes)
    result = greedy_search(rule, ProfileSet.from_factors(space, root_factors))
    return result.protocol or result.witness


def witness_verify(rule: ChoiceRule, witness: Witness) -> bool:
    """Re-derivation of the certificate: non-constant on the product set,
    and every agent's factor lies inside one inseparability class."""
    factors = check_factors(rule.space, witness.factors, "witness ")
    if constant_on(rule, ProfileSet.from_factors(rule.space, factors).mask):
        return False
    for agent in range(rule.space.n):
        if len(inseparability_classes(rule, factors, agent)) != 1:
            return False
    return True


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
# non-bossiness


def check_nonbossy(rule: ChoiceRule) -> Verdict:
    """No agent changes another's component while keeping her own.  A
    violation reads ``(agent, type, other type, profile, affected agent)``."""
    if not rule.has_components:
        raise InputError("non-bossiness needs per-agent outcome components")
    space = rule.space
    comps, table = rule.components, rule.table
    pairs = unilateral_pairs(space, (1 << space.total) - 1, value=_own_components(rule))
    for k, i, t2, k2 in pairs:
        ca, cb = comps[table[k]], comps[table[k2]]
        for j in range(space.n):
            if j != i and ca[j] != cb[j]:
                profile = space.profile(k)
                return Verdict(False, (i, profile[i], t2, profile, j))
    return Verdict(True)
