"""Built-in assignment, house and school rules, with the protocols that
implement them, and the paper's small abstract examples.

Types of an assignment space are strict orders of the objects; payments
and scores are exact integers.  Ties are broken lexicographically by agent
index.  A rule family completes the assignments that the per-profile tests
of :mod:`cpv.properties` admit at each profile (``_admissible``).  The
protocol builders import :mod:`cpv.protocol` where they build, so a rule
``builtin`` of this family compiles no protocol module.
"""

from __future__ import annotations

import itertools
from typing import Optional

from cpv.core import (
    ChoiceRule,
    DomainModel,
    InputError,
    Instance,
    ProfileSet,
    ProtocolBundle,
    TypeSpace,
    constant_on,
    mask_of_flags,
)
from cpv.mechanisms import _tabulate, suggested_count_phase

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
    from cpv.protocol import ElicitQuery, build_protocol

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


def _serial(n: int, objects, order=None, protocol: bool = False):
    """Serial dictatorship, or its bundle, with ``order`` numbered from 1."""
    order = tuple(range(n) if order is None else (i - 1 for i in order))
    instance = serial_dictatorship(n, objects, order)
    return serial_dictatorship_protocol(instance, order) if protocol else instance


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
    from cpv.protocol import ElicitQuery, build_protocol

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
    from cpv.properties import _inefficient

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
    from cpv.properties import _inefficient, _irrational

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
    from cpv.properties import _blocking

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
    from cpv.protocol import CountQuery, ElicitQuery, build_protocol

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
    clearing = [CountQuery(cells(demand, "ab"), (clear, rest)) for demand in demands]
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
# the paper's small abstract examples


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


def fig_shaded_3x3() -> Instance:
    """3x3 rule with one outcome, x, shared across the four cells (t1,t2),
    (t1,t3), (t3,t1), (t3,t2) and fresh outcomes elsewhere; the classic
    inseparability-chain picture."""
    space = TypeSpace.shared(2, ("t1", "t2", "t3"))
    outcomes = ("o1", "x", "o2", "o3", "o4", "o5")  # in order of first appearance
    return Instance(ChoiceRule(space, outcomes, (0, 1, 1, 2, 3, 4, 1, 1, 5)))
