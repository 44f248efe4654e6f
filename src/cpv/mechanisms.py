"""Built-in rules and protocols, plus the economic property checks.

Auction payments are type values written as normalized fractions
(``str(Fraction(label))``: a type labelled ``1.5`` pays ``3/2``); other
payments and all scores are exact integers.  Nothing is a float, so
outcome equality is plain label identity.  Ties are broken
lexicographically by agent index throughout.

Individual rationality, stability and Pareto efficiency are each decided
by one per-profile test, ``_irrational``, ``_blocking``, ``_inefficient``:
given ``(model, profile, assignment)``, an outcome's per-agent components,
it returns the fields of its fault's counterexample, or ``None``.  The
checks scan profiles with them, and a rule family completes the
assignments that its tests admit at each profile (``_admissible``).
``sp`` has no such test, since a misreport moves along a line of
unilateral neighbours; auction efficiency keeps its own winner scan.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Optional

from cpv.core import (
    ChoiceRule,
    DomainModel,
    InputError,
    Instance,
    ProfileSet,
    ProtocolBundle,
    TypeSpace,
    Verdict,
    constant_on,
    mask_flags,
    mask_of_flags,
    outcome_ids,
)
from cpv.protocol import (
    CountQuery,
    ElicitQuery,
    MultiCountQuery,
    Protocol,
    build_protocol,
)


class UnsupportedProtocolError(InputError):
    """The operation supports a narrower protocol class than it was given."""


def _tabulate(space: TypeSpace, outcomes, model=None, universe=None) -> Instance:
    """The instance whose rule gives the profiles, in index order, the
    ``(label, components)`` pairs of ``outcomes``; outcome ids number the
    distinct pairs in order of first appearance."""
    ids: dict = {}
    table = tuple([ids.setdefault(outcome, len(ids)) for outcome in outcomes])
    labels, components = zip(*ids)
    return Instance(ChoiceRule(space, labels, table, components), model, universe)


# ---------------------------------------------------------------------------
# auctions


def auction_space(n: int, values) -> TypeSpace:
    labels = tuple(str(v) for v in values)
    if len(set(_numeric_values(labels))) != len(labels):
        raise InputError("auction type values must be distinct")
    return TypeSpace.shared(n, labels)


def _numeric_values(labels) -> tuple[Fraction, ...]:
    return tuple(map(Fraction, labels))


def _ranks(space: TypeSpace) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """Value rank of each type of an auction space (0 for the lowest value)
    and the price label of each rank: the value as a normalized fraction,
    so type ``1.5`` is priced ``3/2``.  The values are distinct, so the ranks
    are a permutation of the types and order them as the values do;
    ``itertools.product(rank, repeat=n)`` lists the profiles in index order,
    each as its types' ranks."""
    values = _numeric_values(space.alphabets[0])
    order = sorted(range(len(values)), key=values.__getitem__)
    rank = sorted(range(len(order)), key=order.__getitem__)  # the inverse of ``order``
    return tuple(rank), tuple(str(values[t]) for t in order)


def _auction_model(space: TypeSpace, kind: str = "auction", endowments=None) -> DomainModel:
    values = _numeric_values(space.alphabets[0])
    return DomainModel(kind=kind, values=(values,) * space.n, endowments=endowments)


def _sales(n: int, price, word: str):
    """Outcome of selling one unit to each of ``winners`` at the price of
    rank ``r``, memoized: a rule has few distinct outcomes."""

    @cache
    def sale(winners: tuple[int, ...], r: int):
        who = "+".join(str(i + 1) for i in winners)
        comps = tuple(f"q=1,t={price[r]}" if i in winners else "q=0,t=0" for i in range(n))
        return f"{word}={who},price={price[r]}", comps

    return sale


def kth_price(n: int, values, k: int) -> Instance:
    """Standard single-winner auction: highest type wins (lowest index on
    ties) and pays the k-th highest type."""
    if not 1 <= k <= n:
        raise InputError(f"k={k} needs 1 <= k <= n={n}")
    space = auction_space(n, values)
    rank, price = _ranks(space)
    sale = _sales(n, price, "winner")
    profiles = itertools.product(rank, repeat=n)
    outcomes = (sale((v.index(max(v)),), sorted(v)[-k]) for v in profiles)
    return _tabulate(space, outcomes, _auction_model(space))


def first_price(n: int, values) -> Instance:
    return kth_price(n, values, 1)


def second_price(n: int, values) -> Instance:
    if n < 2:
        raise InputError("second price needs at least 2 agents")
    return kth_price(n, values, 2)


def uniform_price(n: int, values, k: int) -> Instance:
    """k units: the k highest types win (lexicographic on ties) and each
    pays the (k+1)-th highest type."""
    if not 1 <= k < n:
        raise InputError(f"k={k} needs 1 <= k < n={n}")
    space = auction_space(n, values)
    rank, price = _ranks(space)
    sale = _sales(n, price, "winners")

    def outcome(v):
        ranked = sorted(range(n), key=lambda i: -v[i])
        return sale(tuple(sorted(ranked[:k])), v[ranked[k]])

    profiles = itertools.product(rank, repeat=n)
    return _tabulate(space, map(outcome, profiles), _auction_model(space))


def order_statistic_restriction(space: TypeSpace, k: int) -> ProfileSet:
    """Profiles of an auction space whose k-th and (k+1)-th highest types differ."""
    rank, _ = _ranks(space)
    keep = bytearray()
    for v in itertools.product(rank, repeat=space.n):
        ranked = sorted(v)
        keep.append(ranked[-k] != ranked[-k - 1])
    if not any(keep):
        raise InputError("order-statistic restriction leaves an empty space")
    return ProfileSet(space, mask_of_flags(keep))


# --- double auction ---------------------------------------------------------


def double_auction_walrasian(n: int, values, selection: str = "lower") -> Instance:
    """Uniform-price double auction.  Agents 1..n/2 are buyers, the rest
    sellers with one good each.  The price is an endpoint of the median
    interval of the type profile; agents strictly above the price hold a
    good afterwards, leftover goods stay with marginal sellers (then go
    to marginal buyers), lexicographically.
    """
    if n < 2 or n % 2:
        raise InputError("double auction needs an even number of agents")
    if selection not in ("lower", "upper"):
        raise InputError("price selection must be 'lower' or 'upper'")
    m = n // 2
    space = auction_space(n, values)
    rank, price = _ranks(space)
    endow = tuple([0] * m + [1] * m)
    marginal_order = (*range(m, n), *range(m))  # sellers, then buyers

    @cache
    def trade(r: int, held: frozenset):
        t = price[r]
        comps = tuple(
            f"h=1,t={t}" if i in held and not endow[i]
            else f"h=0,t=-{t}" if i not in held and endow[i]
            else f"h={int(i in held)},t=0"
            for i in range(n)
        )
        bits = "".join("1" if i in held else "0" for i in range(n))
        return f"p={t};h={bits}", comps

    def outcome(v):
        r = sorted(v)[m - 1 if selection == "lower" else m]
        above = [i for i in range(n) if v[i] > r]
        marginal = [i for i in marginal_order if v[i] == r]
        return trade(r, frozenset(above + marginal[: m - len(above)]))

    model = _auction_model(space, "double_auction", endow)
    return _tabulate(space, map(outcome, itertools.product(rank, repeat=n)), model)


# ---------------------------------------------------------------------------
# assignment domains


def _permutation_labels(objects) -> tuple[str, ...]:
    return tuple(
        ">".join(perm) for perm in itertools.permutations(objects)
    )


def assignment_space(n: int, objects) -> TypeSpace:
    """Types are the strict orders of ``objects``, each labelled by its
    objects joined with ``>``; so no object may repeat or hold ``>``."""
    for i, obj in enumerate(objects):
        if ">" in obj:
            raise InputError(f"object {obj!r} holds '>', which joins the objects of a type label")
        if obj in objects[:i]:
            raise InputError(f"object {obj!r} is listed twice")
    return TypeSpace.shared(n, _permutation_labels(objects))


def _prefs_from_labels(space: TypeSpace) -> tuple[tuple[tuple[str, ...], ...], ...]:
    return tuple(
        tuple(tuple(lab.split(">")) for lab in alpha) for alpha in space.alphabets
    )


def _assignment_outcome(assignment) -> str:
    """Label of the assignment giving agent ``i`` the object ``assignment[i]``."""
    return ",".join(f"{i + 1}:{obj}" for i, obj in enumerate(assignment))


def serial_dictatorship(n: int, objects, order) -> Instance:
    """Agents pick their favorite remaining object in the given order."""
    objects = tuple(objects)
    order = tuple(order)
    if sorted(order) != list(range(n)):
        raise InputError("order must be a permutation of the agents")
    if n > len(objects):
        raise InputError("need at least as many objects as agents")
    space = assignment_space(n, objects)
    prefs = _prefs_from_labels(space)

    def outcome(profile):
        remaining = list(objects)
        picks = [""] * n
        for agent in order:
            picks[agent] = min(remaining, key=prefs[agent][profile[agent]].index)
            remaining.remove(picks[agent])
        return _assignment_outcome(picks), tuple(picks)

    model = DomainModel(kind="assignment", objects=objects, type_prefs=prefs)
    return _tabulate(space, map(outcome, space.iter_profiles()), model)


def serial_dictatorship_protocol(instance: Instance, order) -> ProtocolBundle:
    """Each dictator is asked which remaining object is her favorite."""
    space = instance.space
    model = instance.model
    order = tuple(order)
    objects = model.objects

    def step(label: int, state):
        pos, taken = state
        if pos >= len(order):
            return None
        remaining = [c for c in objects if c not in taken]
        if len(remaining) < 2:
            return None
        agent = order[pos]
        cells = []
        for obj in remaining:
            cell = tuple(
                t
                for t in range(space.sizes[agent])
                if min(remaining, key=model.type_prefs[agent][t].index) == obj
            )
            cells.append(cell)
        nonempty = tuple(c for c in cells if c)
        kept_objects = [obj for obj, c in zip(remaining, cells) if c]
        query = ElicitQuery(agent, nonempty)

        def child_state(cell_index: int, _mask: int):
            return pos + 1, taken + (kept_objects[cell_index],)

        return query, child_state

    protocol = build_protocol(space, step, (0, ()), instance.universe)
    return ProtocolBundle(instance, protocol)


def fair_tiebreak_2x2() -> Instance:
    """Two agents, two objects; ties at (A,A) go to agent 1 and at (B,B)
    to agent 2, so three of the four profiles share an outcome."""
    space = TypeSpace.shared(2, ("A", "B"))
    prefs = tuple(
        tuple((lab, "B" if lab == "A" else "A") for lab in alpha)
        for alpha in space.alphabets
    )
    model = DomainModel(kind="assignment", objects=("A", "B"), type_prefs=prefs)
    outcomes = ("1:A,2:B", "1:B,2:A")  # x, x'
    rule = ChoiceRule(space, outcomes, (0, 0, 1, 0), (("A", "B"), ("B", "A")))  # AA AB BA BB
    return Instance(rule, model)


def fair_two_query_protocol(instance: Instance) -> ProtocolBundle:
    """Ask agent 1 her type, then agent 2; four singleton terminals."""
    space = instance.space

    def step(label: int, state: int):
        if state >= 2:
            return None
        query = ElicitQuery(state, ((0,), (1,)))
        return query, lambda c, m: state + 1

    return ProtocolBundle(instance, build_protocol(space, step, 0))


def efficient_completions_2x2() -> list[Instance]:
    """All efficient rules on the 2-agent/2-object space: each agent gets her
    favorite where they differ, either assignment where they agree."""
    base = fair_tiebreak_2x2()
    space, model = base.space, base.model
    return _completions(space, model, _admissible(space, model, (_inefficient,)))


# --- house assignment --------------------------------------------------------


def _two_houses() -> tuple[TypeSpace, DomainModel]:
    """The two-agent house space, agent ``i`` endowed with house ``h<i>``."""
    objects = ("h1", "h2")
    space = assignment_space(2, objects)
    model = DomainModel(
        kind="house", objects=objects, type_prefs=_prefs_from_labels(space), endowments=objects
    )
    return space, model


def house_ir_efficient_family() -> list[Instance]:
    """Every individually rational and efficient rule on the two-agent
    endowment instance."""
    space, model = _two_houses()
    return _completions(space, model, _admissible(space, model, (_inefficient, _irrational)))


def _admissible(space: TypeSpace, model: DomainModel, tests) -> list[list[tuple[str, ...]]]:
    """Per profile: the assignments of the model's objects, in
    ``itertools.permutations`` order, that no test in ``tests`` faults."""
    feasible = list(itertools.permutations(model.objects, space.n))
    return [
        [a for a in feasible if all(test(model, profile, a) is None for test in tests)]
        for profile in space.iter_profiles()
    ]


def _completions(space: TypeSpace, model: DomainModel, admissible) -> list[Instance]:
    """One instance per choice of an admissible assignment at every profile."""
    return [
        _tabulate(space, ((_assignment_outcome(a), a) for a in choice), model)
        for choice in itertools.product(*admissible)
    ]


# --- school choice -----------------------------------------------------------

_SCHOOL_SCORES = {"s1": 4, "s2'": 3, "s1'": 2, "s2": 1}


def _school_model(space: TypeSpace, read) -> DomainModel:
    """Schools a and b with one seat each; ``read(label)`` gives a type's
    preference order over the schools and its scores ``((school, score), ...)``."""
    types = [[read(lab) for lab in alpha] for alpha in space.alphabets]
    return DomainModel(
        kind="school",
        objects=("a", "b"),
        capacities=(("a", 1), ("b", 1)),
        type_prefs=tuple(tuple(prefs for prefs, _ in row) for row in types),
        type_scores=tuple(tuple(scores for _, scores in row) for row in types),
    )


def _scored_at_a(label: str):
    """A type that ranks school a first and is its score at a."""
    return ("a", "b"), (("a", _SCHOOL_SCORES[label]), ("b", 0))


def school_stable_family() -> list[Instance]:
    """Every stable rule on the two-student/two-school instance with score
    order s1 > s2' > s1' > s2 (types are the students' scores at school a,
    both students rank a first)."""
    space = TypeSpace((("s1", "s1'"), ("s2", "s2'")))
    model = _school_model(space, _scored_at_a)
    return _completions(space, model, _admissible(space, model, (_blocking,)))


def school_count_instance() -> Instance:
    """The stable school rule on a common four-score alphabet, restricted
    to the product where student 1 holds {s1, s1'} and student 2 holds
    {s2, s2'}; count queries over score subsets become available."""
    alphabet = ("s2", "s1'", "s2'", "s1")  # ascending score order
    space = TypeSpace.shared(2, alphabet)
    # student 1 gets a (outcome 0) iff she outscores student 2 there
    table = tuple(0 if t1 > t2 else 1 for t1, t2 in space.iter_profiles())
    rule = ChoiceRule(space, ("1:a,2:b", "1:b,2:a"), table, (("a", "b"), ("b", "a")))
    universe = ProfileSet.from_factors(
        space, (space.type_indices(0, ("s1", "s1'")), space.type_indices(1, ("s2", "s2'")))
    )
    return Instance(rule, _school_model(space, _scored_at_a), universe)


# --- stable matching with multi-count queries --------------------------------


def _school_type_labels():
    labels = []
    for pref in ("a>b", "b>a"):
        for sa in (1, 2):
            for sb in (1, 2):
                labels.append(f"{pref},a{sa},b{sb}")
    return tuple(labels)


def _parse_school_type(label: str):
    """Preference order and scores ``(("a", score), ("b", score))`` of a type."""
    pref, sa, sb = label.split(",")
    return tuple(pref.split(">")), (("a", int(sa[1:])), ("b", int(sb[1:])))


def _demand(school_type, cutoffs: dict[str, int]) -> Optional[str]:
    """The school a type picks among those whose cutoff its score meets, or None."""
    prefs, scores = school_type
    scores = dict(scores)
    return next((c for c in prefs if scores[c] >= cutoffs[c]), None)


_CUTOFF_GRID = [
    {"a": a, "b": b} for a in (1, 2) for b in (1, 2)
]  # lexicographically ascending; permissive first


def multicount_stable_matching() -> ProtocolBundle:
    """Cutoff search by market-clearing multi-count queries, then
    sequential choice among admitted schools; cutoffs are part of the
    outcome.  Two students, two single-seat schools, scores in {1, 2},
    restricted so that scores differ at each school."""
    labels = _school_type_labels()
    space = TypeSpace.shared(2, labels)
    types = [_parse_school_type(lab) for lab in labels]
    demands = [[_demand(school_type, cut) for school_type in types] for cut in _CUTOFF_GRID]
    inside = [
        all(x != y for x, y in zip(types[t1][1], types[t2][1]))
        for t1, t2 in space.iter_profiles()
    ]
    universe = ProfileSet(space, mask_of_flags(bytes(inside)))

    def outcome(profile, modeled: bool):
        if not modeled:
            return "unused", ("-", "-")
        for cut, demand in zip(_CUTOFF_GRID, demands):
            picks = tuple(demand[t] for t in profile)
            if None not in picks and picks[0] != picks[1]:  # the market clears
                return _assignment_outcome(picks) + f"|cut:a{cut['a']}b{cut['b']}", picks
        raise AssertionError("no clearing cutoff on the restricted space")

    model = _school_model(space, _parse_school_type)
    instance = _tabulate(space, map(outcome, space.iter_profiles(), inside), model, universe)
    rule = instance.rule

    def cells(demand, schools):
        return tuple(tuple(t for t, c in enumerate(demand) if c == school) for school in schools)

    domain = list(itertools.product(range(3), repeat=2))
    clear = tuple(v for v in domain if v[0] <= 1 and v[1] <= 1)
    rest = tuple(v for v in domain if v not in clear)
    clearing = [MultiCountQuery(cells(demand, "ab"), (clear, rest)) for demand in demands]
    picking = [
        [ElicitQuery(agent, tuple(filter(None, cells(demand, ("a", "b", None)))))
         for agent in range(2)]
        for demand in demands
    ]

    def step(label: int, state):
        pos, agent = state  # agent None: the cutoff search is at _CUTOFF_GRID[pos]
        if agent is None:
            if pos >= len(_CUTOFF_GRID):
                return None
            return clearing[pos], lambda c, m: (pos, 0) if c == 0 else (pos + 1, None)
        if agent >= 2 or constant_on(rule, label):
            return None
        return picking[pos][agent], lambda c, m: (pos, agent + 1)

    protocol = build_protocol(space, step, (0, None), universe)
    return ProtocolBundle(instance, protocol, suggested_count_phase(protocol))


# ---------------------------------------------------------------------------
# abstract two-type example with four distinct outcomes


def non_clinching() -> Instance:
    """Injective rule on a 2x2 space that is strategyproof, yet no move of
    a direct protocol can be obviously dominant."""
    space = TypeSpace.shared(2, ("lo", "hi"))
    outcomes = ("x1", "x2", "x3", "x4")
    rule = ChoiceRule(space, outcomes, (0, 1, 2, 3), tuple((x, x) for x in outcomes))
    prefs1 = (
        (("x1",), ("x3",), ("x2",), ("x4",)),  # type lo
        (("x4",), ("x2",), ("x3",), ("x1",)),  # type hi
    )
    prefs2 = (
        (("x1",), ("x2",), ("x3",), ("x4",)),
        (("x4",), ("x3",), ("x2",), ("x1",)),
    )
    model = DomainModel(kind="abstract", outcome_prefs=(prefs1, prefs2))
    return Instance(rule, model)


# ---------------------------------------------------------------------------
# named rule instances


def fig_shaded_3x3() -> Instance:
    """3x3 rule with one outcome, x, shared across the four cells (t1,t2),
    (t1,t3), (t3,t1), (t3,t2) and fresh outcomes elsewhere; the classic
    inseparability-chain picture."""
    space = TypeSpace.shared(2, ("t1", "t2", "t3"))
    outcomes = ("o1", "x", "o2", "o3", "o4", "o5")  # in order of first appearance
    return Instance(ChoiceRule(space, outcomes, (0, 1, 1, 2, 3, 4, 1, 1, 5)))


def appC_sp_restriction():
    """Second-price instance on nine types together with the 3x3x3 product
    set whose outcome tensor certifies impossibility without ties."""
    inst = second_price(3, list(range(9)))
    factors = ((5, 0, 2), (8, 7, 3), (6, 4, 1))
    return inst, tuple(tuple(sorted(f)) for f in factors)


# ---------------------------------------------------------------------------
# protocol builders for auctions


def _clock(space: TypeSpace, rule: ChoiceRule, cells):
    """Step function of a price clock.  At each level in turn, each agent in
    order is asked which of the level's cells ``cells[pos]`` of her alphabet
    holds her type.  State ``(pos, agent, last)`` asks ``agent`` at level
    ``pos``; the clock stops after level ``last``, at a level whose cells
    are ``None``, and once the rule is constant on the node's label."""
    queries = [
        None if split is None else [ElicitQuery(agent, split) for agent in range(space.n)]
        for split in cells
    ]

    def step(label: int, state):
        pos, agent, last = state
        if pos > last or queries[pos] is None or constant_on(rule, label):
            return None
        nxt = (pos, agent + 1, last) if agent + 1 < space.n else (pos + 1, 0, last)
        return queries[pos][agent], lambda c, m: nxt

    return step


def _ascending_cells(rank) -> list:
    """Per value rank ``r``, ascending: the cells (types ranked above ``r``,
    the rest), or ``None`` at the top rank, where no type is above."""
    cells = []
    for r in range(len(rank)):
        above = tuple(t for t, s in enumerate(rank) if s > r)
        rest = tuple(t for t, s in enumerate(rank) if s <= r)
        cells.append((above, rest) if above else None)
    return cells


def descending_first_price(n: int, values) -> ProtocolBundle:
    """Price clock falls through the type grid; at each price agents are
    asked in order whether their type equals it, and the first yes wins
    at that price."""
    inst = first_price(n, values)
    rank, _ = _ranks(inst.space)
    m = len(rank)
    levels = sorted(range(m), key=rank.__getitem__, reverse=True)
    step = _clock(inst.space, inst.rule, [((t,), (*range(t), *range(t + 1, m))) for t in levels])
    return ProtocolBundle(inst, build_protocol(inst.space, step, (0, 0, m - 1)))


def ascending_elicitation_sp(n: int, values) -> ProtocolBundle:
    """English-auction style elicitation for the second-price rule: each
    agent in turn is asked whether her type exceeds the clock level.
    Implements the rule but leaks losers' types."""
    inst = second_price(n, values)
    cells = _ascending_cells(_ranks(inst.space)[0])
    step = _clock(inst.space, inst.rule, cells)
    return ProtocolBundle(inst, build_protocol(inst.space, step, (0, 0, len(cells) - 1)))


def suggested_count_phase(protocol: Protocol) -> tuple[int, ...]:
    """Count/multi-count nodes plus their children: the price-finding
    prefix together with the roots it hands over to.  Falls back to the
    root-only phase when every counting query contracted away (a single
    clearing level on the restricted space)."""
    phase = set()
    for v in protocol.nodes:
        if isinstance(v.query, (CountQuery, MultiCountQuery)):
            phase.add(v.id)
            phase.update(v.children)
    if not phase:
        return (0,)
    return tuple(sorted(phase))


def count_ascending_price(k: int, n: int, values) -> ProtocolBundle:
    """Ascending market-clearing counts find the (k+1)-th highest type,
    then agents are asked in order whether they are above it. The type
    space is restricted so that the k-th and (k+1)-th highest differ."""
    return _count_clock(uniform_price(n, values, k), k)


def double_auction_count(n: int, values) -> ProtocolBundle:
    """Market-clearing counts find the price, then each agent reveals
    whether she is above it, which pins down all trades.  Restricted so
    the two median types differ."""
    return _count_clock(double_auction_walrasian(n, values, "lower"), n // 2)


def _count_clock(inst0: Instance, k: int) -> ProtocolBundle:
    """Clock over ascending levels: "are exactly k types above the level?"
    until yes, then each agent in order says whether she is above it.
    Restricted so that the k-th and (k+1)-th highest types differ."""
    space = inst0.space
    universe = order_statistic_restriction(space, k)
    inst = Instance(inst0.rule, inst0.model, universe)
    cells = _ascending_cells(_ranks(space)[0])
    clock = _clock(space, inst.rule, cells)

    def step(label: int, state):
        if len(state) == 3:  # the count said yes at this level: the clock asks
            return clock(label, state)
        pos = state[0]
        if cells[pos] is None:  # the top level: no type is above it
            return None
        query = count_equals_query(space, cells[pos][0], k)
        return query, lambda c, m: (pos, 0, pos) if c == 0 else (pos + 1,)

    protocol = build_protocol(space, step, (0,), universe)
    return ProtocolBundle(inst, protocol, suggested_count_phase(protocol))


def count_equals_query(space: TypeSpace, subset, value: int) -> CountQuery:
    """Binary count query: is |{i : type_i in subset}| equal to ``value``?"""
    others = tuple(c for c in range(space.n + 1) if c != value)
    return CountQuery(tuple(sorted(set(subset))), ((value,), others))


# ---------------------------------------------------------------------------
# rule properties


# The model fields that the checks of each kind read.
_READS = {
    "auction": ("values",), "double_auction": ("values",), "assignment": ("objects", "type_prefs"),
    "house": ("objects", "type_prefs", "endowments"),
    "school": ("objects", "capacities", "type_prefs", "type_scores"),
}


def _readable(rule: ChoiceRule, model: DomainModel) -> None:
    """Refuses a model, or a rule, that lacks what the checks of its kind read."""
    if model is None:
        raise InputError("property checks need a domain model")
    missing = [field for field in _READS.get(model.kind, ()) if getattr(model, field) is None]
    if missing:
        raise InputError(f"a {model.kind!r} model needs {', '.join(missing)} for its checks")
    if model.kind in _READS and not rule.has_components:
        raise InputError(f"checks of a {model.kind!r} model need per-agent outcome components")


def check_rule_property(
    rule: ChoiceRule, model: DomainModel, prop: str, universe: ProfileSet | None = None
) -> Verdict:
    """Decides ``prop`` on the profiles of ``universe`` (the whole space by
    default): only those profiles are scanned, a misreport counts only if
    its profile lies there too, and only the outcomes the rule takes there
    are ranked.  A violation is the counterexample as a report gives it."""
    _readable(rule, model)
    checks = {
        "efficient": _check_efficient,
        "ir": _check_ir,
        "stable": _check_stable,
        "sp": _check_sp,
    }
    if prop not in checks:
        raise InputError(f"unknown property {prop!r}")
    mask = (1 << rule.space.total) - 1 if universe is None else universe.mask
    return checks[prop](rule, model, mask)


def _scan(space: TypeSpace, mask: int):
    """``(index, profile)`` of each profile in the mask, ascending."""
    return itertools.compress(enumerate(space.iter_profiles()), mask_flags(mask, space.total))


def _first_fault(rule: ChoiceRule, mask: int, test) -> Verdict:
    """A per-profile ``test``'s verdict: the first fault in the mask, if any."""
    space = rule.space
    for k, profile in _scan(space, mask):
        fault = test(profile, rule.components[rule.table[k]])
        if fault is not None:
            return Verdict(False, {"profile": space.labels(profile), **fault})
    return Verdict(True)


def _check_efficient(rule: ChoiceRule, model: DomainModel, mask: int) -> Verdict:
    space = rule.space
    if model.kind == "auction":
        # Winners per outcome id, read once.  The winners are efficient iff
        # their values are the highest ones, which integer ranks of the
        # values decide as well as the values do.
        winners = {
            o: [i for i, c in enumerate(rule.components[o]) if _parse_auction_component(c)[0] == 1]
            for o in sorted(outcome_ids(rule, mask))
        }
        order = {v: r for r, v in enumerate(sorted({v for row in model.values for v in row}))}
        ranks = [[order[v] for v in row] for row in model.values]
        for k, profile in _scan(space, mask):
            v = [ranks[i][t] for i, t in enumerate(profile)]
            won = winners[rule.table[k]]
            if sorted(v[i] for i in won) != sorted(v)[len(v) - len(won):]:
                return Verdict(
                    False, {"profile": space.labels(profile), "winners": [i + 1 for i in won]}
                )
        return Verdict(True)
    if model.kind in ("assignment", "house"):
        return _first_fault(rule, mask, partial(_inefficient, model))
    raise InputError(f"efficiency is not defined for kind {model.kind!r}")


def _inefficient(model: DomainModel, profile, assignment) -> Optional[dict]:
    """``{"dominating": label}`` of the first assignment of the model's
    objects that Pareto-dominates ``assignment`` at the profile, or ``None``."""
    n = len(profile)
    ranks = [model.pref_rank(i, profile[i], assignment[i]) for i in range(n)]
    for b in itertools.permutations(model.objects, n):
        alt = [model.pref_rank(i, profile[i], b[i]) for i in range(n)]
        if all(x <= r for x, r in zip(alt, ranks)) and any(x < r for x, r in zip(alt, ranks)):
            return {"dominating": _assignment_outcome(b)}
    return None


def _check_ir(rule: ChoiceRule, model: DomainModel, mask: int) -> Verdict:
    if model.kind not in ("house", "auction"):
        raise InputError(f"individual rationality is not defined for kind {model.kind!r}")
    # every part of every outcome the mask reaches is judged once, in the
    # order (agent, type, outcome id), so a malformed one is refused first
    ids = sorted(outcome_ids(rule, mask))
    judged = {
        (i, t, c): _rational(model, i, t, c)
        for i, size in enumerate(rule.space.sizes) for t in range(size)
        for c in (rule.components[o][i] for o in ids)
    }
    test = partial(_irrational, model, rational=lambda _, *key: judged[key])
    return _first_fault(rule, mask, test)


def _rational(model: DomainModel, agent: int, t: int, component: str) -> bool:
    """Whether the agent of true type ``t`` weakly prefers ``component`` to
    her outside option: her endowment in a house model, utility 0 in an
    auction."""
    floor = _utility(model, agent, t, model.endowments[agent]) if model.kind == "house" else 0
    return _utility(model, agent, t, component) >= floor


def _irrational(model: DomainModel, profile, assignment, rational=_rational) -> Optional[dict]:
    """``{"agent": i}`` of the first agent ``i`` (from 1) whose part is not
    ``rational`` for her, :func:`_rational` or a table of it, or ``None``."""
    for i, (t, component) in enumerate(zip(profile, assignment)):
        if not rational(model, i, t, component):
            return {"agent": i + 1}
    return None


def _check_stable(rule: ChoiceRule, model: DomainModel, mask: int) -> Verdict:
    if model.kind != "school":
        raise InputError(f"stability is not defined for kind {model.kind!r}")
    return _first_fault(rule, mask, partial(_blocking, model))


def _blocking(model: DomainModel, profile, assignment) -> Optional[dict]:
    """``{"student": i, "school": c}`` of the first blocking pair, or ``None``:
    student ``i`` (from 1) prefers ``c`` to her school, and ``c`` has a free
    seat or a student it scores below her.  A student placed outside the
    schools (a profile outside the modeled region) blocks nothing."""
    capacities = dict(model.capacities)
    placed: dict[str, list[int]] = {}
    for i, own in enumerate(assignment):
        placed.setdefault(own, []).append(i)
    for i, own in enumerate(assignment):
        if own not in model.objects:
            continue
        own_rank = model.pref_rank(i, profile[i], own)
        for c in model.objects:
            if model.pref_rank(i, profile[i], c) >= own_rank:
                continue
            at_c = placed.get(c, [])
            if len(at_c) < capacities.get(c, 0):
                return {"student": i + 1, "school": c}
            my_score = model.score(i, profile[i], c)
            if any(model.score(j, profile[j], c) < my_score for j in at_c):
                return {"student": i + 1, "school": c}
    return None


def _parse_auction_component(comp: str) -> tuple[int, Fraction]:
    try:
        q_part, t_part = comp.split(",", 1)
        return int(q_part.split("=")[1]), Fraction(t_part.split("=")[1])
    except (ValueError, IndexError, ZeroDivisionError):
        raise InputError(f"malformed auction component {comp!r}") from None


def _check_sp(rule: ChoiceRule, model: DomainModel, mask: int) -> Verdict:
    space = rule.space
    ranks = outcome_ranks(rule, model, outcome_ids(rule, mask))
    # a profile outside the mask gets the extra outcome id ``last``, ranked last
    last = rule.outcome_count
    table = [o if m else last for o, m in zip(rule.table, mask_flags(mask, space.total))]
    for row in itertools.chain.from_iterable(ranks):
        row.append(last)
    for k, profile in _scan(space, mask):
        for i, t in enumerate(profile):
            row, stride = ranks[i][t], space.strides[i]
            start = k - t * stride  # the agent's reports run from here by stride
            reports = [row[o] for o in table[start : start + space.sizes[i] * stride : stride]]
            if min(reports) < reports[t]:
                lie = next(s for s, r in enumerate(reports) if r < reports[t])
                report = space.alphabets[i][lie]
                example = {"profile": space.labels(profile), "agent": i + 1, "report": report}
                return Verdict(False, example)
    return Verdict(True)


def _utility(model: DomainModel, agent: int, type_index: int, component: str):
    """What the agent of the given true type gets from ``component``, her
    part of an outcome: the quasilinear utility ``q*v - t`` in auction
    domains, minus the position of her object in her preference order in
    assignment, house and school domains."""
    if model.kind in ("auction", "double_auction"):
        q, t = _parse_auction_component(component)
        return q * model.values[agent][type_index] - t
    if model.kind in ("assignment", "house", "school"):
        return -model.pref_rank(agent, type_index, component)
    raise InputError(f"no outcome ranking available for kind {model.kind!r}")


def outcome_ranks(rule: ChoiceRule, model: DomainModel, ids) -> list[list[list]]:
    """``[agent][type][outcome id]``: the rank of each outcome id in ``ids``
    for the agent with that true type, ``None`` for the other ids.  Ranks
    are dense integers; smaller is better and ties share a rank.  They
    follow the model's outcome preferences when it has them (the position
    of the group holding the outcome's label), and :func:`_utility` of the
    agent's component otherwise."""
    _readable(rule, model)
    ids = sorted(ids)
    ranks = []
    for i, size in enumerate(rule.space.sizes):
        ranks.append([])
        for t in range(size):
            if model.outcome_prefs is None:
                key = [-_utility(model, i, t, rule.components[o][i]) for o in ids]
            else:
                groups = model.outcome_prefs[i][t]
                position = {label: r for r, group in enumerate(groups) for label in group}
                try:
                    key = [position[rule.outcomes[o]] for o in ids]
                except KeyError as exc:
                    missing = f"outcome {exc.args[0]!r} missing from agent {i + 1}'s preferences"
                    raise InputError(missing) from None
            dense = {v: r for r, v in enumerate(sorted(set(key)))}
            row = [None] * rule.outcome_count
            for o, v in zip(ids, key):
                row[o] = dense[v]
            ranks[i].append(row)
    return ranks


# ---------------------------------------------------------------------------
# obvious dominance


def check_protocol_osp(protocol: Protocol, rule: ChoiceRule, model: DomainModel) -> Verdict:
    """At every query the truthful cell's worst continuation must weakly
    beat every other cell's best continuation, under the mover's
    true-type ranking.  Elicitation protocols only.  A violation reads
    ``(node, agent, true type, deviating child)``."""
    space = protocol.space
    ranks = outcome_ranks(rule, model, outcome_ids(rule, protocol.universe))
    for v in protocol.nodes:
        if v.is_leaf:
            continue
        if not isinstance(v.query, ElicitQuery):
            raise UnsupportedProtocolError(
                f"node {v.id}: obvious dominance needs elicitation queries"
            )
        agent = v.query.agent
        masks = [protocol.nodes[c].label for c in v.children]
        failure = _osp_node_failure(space, rule, ranks, agent, masks)
        if failure is not None:
            true_t, pos = failure
            return Verdict(False, (v.id, agent, true_t, v.children[pos]))
    return Verdict(True)


def _osp_node_failure(space: TypeSpace, rule: ChoiceRule, ranks, agent: int, masks):
    """First (true type, deviating child position) at an elicitation node
    of ``agent`` whose children carry ``masks``, or ``None``; ``ranks`` is
    an :func:`outcome_ranks` table holding every outcome under the masks.

    True types are tried in ascending order; for each, the worst outcome of
    its own child must weakly beat the best outcome of every other child.
    """
    stride, size, table = space.strides[agent], space.sizes[agent], rule.table
    members = [list(ProfileSet(space, m).indices()) for m in masks]
    outcomes = [set(map(table.__getitem__, ks)) for ks in members]
    home: dict[int, int] = {}  # true type -> position of the child holding it
    for pos, ks in enumerate(members):
        for k in ks:
            home.setdefault(k // stride % size, pos)
    for true_t in sorted(home):
        row, own = ranks[agent][true_t], home[true_t]
        worst = max(row[table[k]] for k in members[own] if k // stride % size == true_t)
        for pos, outs in enumerate(outcomes):
            if pos != own and min(map(row.__getitem__, outs)) < worst:
                return true_t, pos
    return None


# ---------------------------------------------------------------------------
# registries for the command-line surface


def _require(params: dict, key: str):
    if key not in params:
        raise InputError(f"builtin parameter {key!r} is required")
    return params[key]


def _serial(n: int, objects, order=None, protocol: bool = False):
    """Serial dictatorship, or its bundle, with ``order`` numbered from 1."""
    order = tuple(range(n) if order is None else (i - 1 for i in order))
    instance = serial_dictatorship(n, objects, order)
    return serial_dictatorship_protocol(instance, order) if protocol else instance


# (name, builds a protocol bundle, builder, parameter names in argument
# order; a trailing "?" marks an optional one, passed only when given)
_BUILTINS = (
    ("serial_dictatorship", False, _serial, "n objects order?"),
    ("first_price", False, first_price, "n values"),
    ("second_price", False, second_price, "n values"),
    ("kth_price", False, kth_price, "n values k"),
    ("uniform_price", False, uniform_price, "n values k"),
    ("double_auction_walrasian", False, double_auction_walrasian, "n values selection?"),
    ("fair_tiebreak_2x2", False, fair_tiebreak_2x2, ""),
    ("fig2_instance", False, fig_shaded_3x3, ""),
    ("appC_sp_restriction", False, lambda: appC_sp_restriction()[0], ""),
    ("non_clinching", False, non_clinching, ""),
    ("efficient_completions_2x2", False, efficient_completions_2x2, ""),
    ("house_ir_efficient_family", False, house_ir_efficient_family, ""),
    ("school_stable_family", False, school_stable_family, ""),
    ("school_count_instance", False, school_count_instance, ""),
    ("serial_dictatorship", True, partial(_serial, protocol=True), "n objects order?"),
    ("descending_first_price", True, descending_first_price, "n values"),
    ("count_ascending_kplus1_price", True, count_ascending_price, "k n values"),
    ("double_auction_count", True, double_auction_count, "n values"),
    ("multicount_stable_matching", True, multicount_stable_matching, ""),
    ("ascending_elicitation_sp", True, ascending_elicitation_sp, "n values"),
    ("fair_two_query", True, lambda: fair_two_query_protocol(fair_tiebreak_2x2()), ""),
)


def _entry(build, names: str) -> Callable[[dict], object]:
    """Table entry: ``build`` called with the named parameters, each read
    once; a parameter it does not name is refused."""
    required = [key for key in names.split() if not key.endswith("?")]
    optional = [key[:-1] for key in names.split() if key.endswith("?")]
    taken = ", ".join(required + optional) or "no parameters"

    def entry(params: dict):
        untaken = params.keys() - {*required, *optional}
        if untaken:
            raise InputError(
                f"unknown builtin parameter {min(untaken)!r}; this builtin takes {taken}"
            )
        return build(
            *[_require(params, key) for key in required],
            **{key: params[key] for key in optional if key in params},
        )

    return entry


BUILTIN_RULES: dict[str, Callable[[dict], object]] = {
    name: _entry(build, names) for name, bundle, build, names in _BUILTINS if not bundle
}
BUILTIN_PROTOCOLS: dict[str, Callable[[dict], ProtocolBundle]] = {
    name: _entry(build, names) for name, bundle, build, names in _BUILTINS if bundle
}
