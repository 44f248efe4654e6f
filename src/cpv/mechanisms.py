"""Built-in rules and protocols, plus the economic property checks.

Payments and scores are type labels or exact integers, never floats, so
outcome equality is plain label identity.  Ties are broken
lexicographically by agent index throughout.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Optional

from cpv.core import ChoiceRule, InputError, ProfileSet, TypeSpace, constant_on, record
from cpv.protocol import (
    CountQuery,
    ElicitQuery,
    MultiCountQuery,
    Protocol,
    build_protocol,
    count_equals_query,
)


class UnsupportedProtocolError(InputError):
    """The operation supports a narrower protocol class than it was given."""


@record
class DomainModel:
    """Economic side data; builders fill in what their domain defines."""

    kind: str  # auction | assignment | house | school | double_auction | abstract
    objects: tuple[str, ...] | None = None
    values: tuple[tuple[Fraction, ...], ...] | None = None  # [agent][type]
    endowments: tuple | None = None  # house: object labels; double auction: 0/1
    capacities: tuple[tuple[str, int], ...] | None = None
    type_prefs: tuple[tuple[tuple[str, ...], ...], ...] | None = None  # [agent][type]
    type_scores: tuple | None = None  # [agent][type] -> ((school, score), ...)
    outcome_prefs: tuple | None = None  # [agent][type] -> groups of outcome labels

    def pref_rank(self, agent: int, type_index: int, obj: str) -> int:
        order = self.type_prefs[agent][type_index]
        try:
            return order.index(obj)
        except ValueError:
            raise InputError(f"object {obj!r} missing from a preference order") from None

    def score(self, agent: int, type_index: int, school: str) -> int:
        for c, s in self.type_scores[agent][type_index]:
            if c == school:
                return s
        raise InputError(f"no score for school {school!r}")


@record
class Instance:
    space: TypeSpace
    rule: ChoiceRule
    model: DomainModel | None = None
    universe: ProfileSet | None = None


@record
class ProtocolBundle:
    instance: Instance
    protocol: Protocol
    phase: tuple[int, ...] | None = None  # suggested initial phase (node ids)


class _OutcomeTable:
    """Interns outcome labels and per-agent component rows in scan order."""

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.components: list[tuple[str, ...]] = []

    def add(self, label: str, components: tuple[str, ...] | None = None) -> int:
        if label not in self.ids:
            self.ids[label] = len(self.ids)
            self.components.append(components if components is not None else ())
        return self.ids[label]

    def freeze(self, space: TypeSpace, table: list[int], with_components: bool):
        outcomes = tuple(self.ids)
        comps = tuple(self.components) if with_components else None
        return ChoiceRule(space, outcomes, tuple(table), comps)


# ---------------------------------------------------------------------------
# auctions


def auction_space(n: int, values) -> TypeSpace:
    if len(set(values)) != len(values):
        raise InputError("auction type values must be distinct")
    return TypeSpace.shared(n, tuple(str(v) for v in values))


def _numeric_values(space: TypeSpace) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(
        tuple(Fraction(lab) for lab in alpha) for alpha in space.alphabets
    )


def _auction_model(space: TypeSpace) -> DomainModel:
    return DomainModel(kind="auction", values=_numeric_values(space))


def _winner_components(space: TypeSpace, winners: set[int], price_label: str):
    return tuple(
        f"q=1,t={price_label}" if i in winners else "q=0,t=0"
        for i in range(space.n)
    )


def kth_price(n: int, values, k: int) -> Instance:
    """Standard single-winner auction: highest type wins (lowest index on
    ties) and pays the k-th highest type."""
    if not 1 <= k <= n:
        raise InputError(f"k={k} needs 1 <= k <= n={n}")
    space = auction_space(n, values)
    vals = _numeric_values(space)
    table, out = [], _OutcomeTable()
    for profile in space.iter_profiles():
        v = [vals[i][t] for i, t in enumerate(profile)]
        winner = min(range(n), key=lambda i: (-v[i], i))
        price = sorted(v, reverse=True)[k - 1]
        price_label = str(price)
        label = f"winner={winner + 1},price={price_label}"
        table.append(out.add(label, _winner_components(space, {winner}, price_label)))
    return Instance(space, out.freeze(space, table, True), _auction_model(space))


def first_price(n: int, values) -> Instance:
    return kth_price(n, values, 1)


def second_price(n: int, values) -> Instance:
    return kth_price(n, values, 2)


def uniform_price(n: int, values, k: int) -> Instance:
    """k units: the k highest types win (lexicographic on ties) and each
    pays the (k+1)-th highest type."""
    if not 1 <= k < n:
        raise InputError(f"k={k} needs 1 <= k < n={n}")
    space = auction_space(n, values)
    vals = _numeric_values(space)
    table, out = [], _OutcomeTable()
    for profile in space.iter_profiles():
        v = [vals[i][t] for i, t in enumerate(profile)]
        ranked = sorted(range(n), key=lambda i: (-v[i], i))
        winners = set(ranked[:k])
        price = v[ranked[k]]
        price_label = str(price)
        label = (
            "winners=" + "+".join(str(i + 1) for i in sorted(winners))
            + f",price={price_label}"
        )
        table.append(out.add(label, _winner_components(space, winners, price_label)))
    return Instance(space, out.freeze(space, table, True), _auction_model(space))


def order_statistic_restriction(space: TypeSpace, k: int) -> ProfileSet:
    """Profiles whose k-th and (k+1)-th highest types differ."""
    vals = _numeric_values(space)
    indices = []
    for idx in range(space.total):
        profile = space.profile(idx)
        v = sorted((vals[i][t] for i, t in enumerate(profile)), reverse=True)
        if v[k - 1] != v[k]:
            indices.append(idx)
    if not indices:
        raise InputError("order-statistic restriction leaves an empty space")
    return ProfileSet.from_indices(space, indices)


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
    vals = _numeric_values(space)
    endow = tuple([0] * m + [1] * m)
    table, out = [], _OutcomeTable()
    for profile in space.iter_profiles():
        v = [vals[i][t] for i, t in enumerate(profile)]
        ranked = sorted(v, reverse=True)
        price = ranked[m] if selection == "lower" else ranked[m - 1]
        holders = [i for i in range(n) if v[i] > price]
        leftover = m - len(holders)
        marginal = [i for i in range(n) if v[i] == price]
        for i in sorted(marginal, key=lambda i: (endow[i] == 0, i)):
            if leftover == 0:
                break
            holders.append(i)
            leftover -= 1
        held = set(holders)
        price_label = str(price)
        bits = "".join("1" if i in held else "0" for i in range(n))
        comps = []
        for i in range(n):
            if endow[i] == 0 and i in held:
                comps.append(f"h=1,t={price_label}")
            elif endow[i] == 1 and i not in held:
                comps.append(f"h=0,t=-{price_label}")
            else:
                comps.append(f"h={1 if i in held else 0},t=0")
        table.append(out.add(f"p={price_label};h={bits}", tuple(comps)))
    model = DomainModel(
        kind="double_auction", values=vals, endowments=endow
    )
    return Instance(space, out.freeze(space, table, True), model)


# ---------------------------------------------------------------------------
# assignment domains


def _permutation_labels(objects) -> tuple[str, ...]:
    return tuple(
        ">".join(perm) for perm in itertools.permutations(objects)
    )


def assignment_space(n: int, objects) -> TypeSpace:
    return TypeSpace.shared(n, _permutation_labels(objects))


def _prefs_from_labels(space: TypeSpace) -> tuple[tuple[tuple[str, ...], ...], ...]:
    return tuple(
        tuple(tuple(lab.split(">")) for lab in alpha) for alpha in space.alphabets
    )


def _assignment_outcome(assignment: dict[int, str], n: int) -> str:
    return ",".join(f"{i + 1}:{assignment[i]}" for i in range(n))


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
    table, out = [], _OutcomeTable()
    for profile in space.iter_profiles():
        remaining = list(objects)
        assignment: dict[int, str] = {}
        for agent in order:
            pick = min(remaining, key=prefs[agent][profile[agent]].index)
            assignment[agent] = pick
            remaining.remove(pick)
        label = _assignment_outcome(assignment, n)
        comps = tuple(assignment[i] for i in range(n))
        table.append(out.add(label, comps))
    model = DomainModel(kind="assignment", objects=objects, type_prefs=prefs)
    return Instance(space, out.freeze(space, table, True), model)


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
    x, xp = "1:A,2:B", "1:B,2:A"
    out = _OutcomeTable()
    out.add(x, ("A", "B"))
    out.add(xp, ("B", "A"))
    table = [out.ids[x], out.ids[x], out.ids[xp], out.ids[x]]  # AA, AB, BA, BB
    prefs = tuple(
        tuple((lab, "B" if lab == "A" else "A") for lab in alpha)
        for alpha in space.alphabets
    )
    model = DomainModel(kind="assignment", objects=("A", "B"), type_prefs=prefs)
    return Instance(space, out.freeze(space, table, True), model)


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
    """All efficient rules on the 2-agent/2-object space: the off-diagonal
    profiles are forced, the two tie profiles are free."""
    base = fair_tiebreak_2x2()
    space, model = base.space, base.model
    x, xp = base.rule.outcomes
    completions = []
    for aa, bb in itertools.product((x, xp), repeat=2):
        out = _OutcomeTable()
        for lab in (x, xp):
            out.add(lab, tuple(lab.split(",")[i].split(":")[1] for i in range(2)))
        table = [out.ids[aa], out.ids[x], out.ids[xp], out.ids[bb]]
        completions.append(
            Instance(space, out.freeze(space, table, True), model)
        )
    return completions


# --- house assignment --------------------------------------------------------


def house_ir_efficient_family() -> list[Instance]:
    """Every individually rational and efficient rule on the two-agent
    endowment instance (each profile's admissible outcomes enumerated,
    then completed in all compatible ways)."""
    objects = ("h1", "h2")
    space = assignment_space(2, objects)
    prefs = _prefs_from_labels(space)
    endowments = ("h1", "h2")
    model = DomainModel(
        kind="house", objects=objects, type_prefs=prefs, endowments=endowments
    )
    feasible = _complete_assignments(2, objects)
    admissible_per_profile = []
    for profile in space.iter_profiles():
        efficient = [
            a
            for a in feasible
            if _pareto_dominator(a, feasible, profile, model.pref_rank) is None
        ]
        ir = [
            a
            for a in efficient
            if all(
                prefs[i][profile[i]].index(a[i])
                <= prefs[i][profile[i]].index(endowments[i])
                for i in range(2)
            )
        ]
        if not ir:
            raise AssertionError("IR+efficient admissible set is empty")
        admissible_per_profile.append(ir)
    return _completions(space, model, admissible_per_profile)


def keep_endowments_rule() -> Instance:
    """Everyone keeps her endowment regardless of reports."""
    objects = ("h1", "h2")
    space = assignment_space(2, objects)
    prefs = _prefs_from_labels(space)
    model = DomainModel(
        kind="house", objects=objects, type_prefs=prefs, endowments=("h1", "h2")
    )
    out = _OutcomeTable()
    xid = out.add("1:h1,2:h2", ("h1", "h2"))
    table = [xid] * space.total
    return Instance(space, out.freeze(space, table, True), model)


def _complete_assignments(n: int, objects) -> list[dict[int, str]]:
    return [
        dict(zip(range(n), combo))
        for combo in itertools.permutations(objects, n)
    ]


def _pareto_dominator(a, feasible, profile, rank):
    """The first assignment in ``feasible`` that Pareto-dominates ``a`` at
    the profile, or ``None``; ``rank(i, t, obj)`` is agent ``i``'s rank of
    ``obj`` at type ``t``, 0 being best."""
    n = len(profile)
    ranks = [rank(i, profile[i], a[i]) for i in range(n)]
    for b in feasible:
        alt = [rank(i, profile[i], b[i]) for i in range(n)]
        if all(x <= r for x, r in zip(alt, ranks)) and any(
            x < r for x, r in zip(alt, ranks)
        ):
            return b
    return None


def _completions(space: TypeSpace, model: DomainModel, admissible) -> list[Instance]:
    """One instance per choice of an admissible assignment at every profile."""
    family = []
    for choice in itertools.product(*admissible):
        out = _OutcomeTable()
        table = [
            out.add(_assignment_outcome(a, space.n), tuple(a[i] for i in range(space.n)))
            for a in choice
        ]
        family.append(Instance(space, out.freeze(space, table, True), model))
    return family


# --- school choice -----------------------------------------------------------

_SCHOOL_SCORES = {"s1": 4, "s2'": 3, "s1'": 2, "s2": 1}


def _stable_assignments(profile_scores: tuple[int, int]) -> list[dict[int, str]]:
    """Stable complete assignments when both students rank school a first
    and scores at a are as given; schools have one seat each."""
    out = []
    for a in ({0: "a", 1: "b"}, {0: "b", 1: "a"}):
        blocked = False
        for i in range(2):
            if a[i] == "b":  # prefers a; justified envy iff beaten seat is weaker
                j = 1 - i
                if profile_scores[i] > profile_scores[j]:
                    blocked = True
        if not blocked:
            out.append(a)
    return out


def school_stable_family() -> list[Instance]:
    """Every stable rule on the two-student/two-school instance with score
    order s1 > s2' > s1' > s2 (types are the students' scores at school a,
    both students rank a first)."""
    space = TypeSpace((("s1", "s1'"), ("s2", "s2'")))
    prefs = tuple(tuple(("a", "b") for _ in alpha) for alpha in space.alphabets)
    scores = tuple(
        tuple((("a", _SCHOOL_SCORES[lab]), ("b", 0)) for lab in alpha)
        for alpha in space.alphabets
    )
    model = DomainModel(
        kind="school",
        objects=("a", "b"),
        capacities=(("a", 1), ("b", 1)),
        type_prefs=prefs,
        type_scores=scores,
    )
    admissible = []
    for profile in space.iter_profiles():
        s = tuple(
            _SCHOOL_SCORES[space.alphabets[i][t]] for i, t in enumerate(profile)
        )
        stable = _stable_assignments(s)
        if not stable:
            raise AssertionError("no stable assignment")
        admissible.append(stable)
    return _completions(space, model, admissible)


def school_count_instance() -> Instance:
    """The stable school rule on a common four-score alphabet, restricted
    to the product where student 1 holds {s1, s1'} and student 2 holds
    {s2, s2'}; count queries over score subsets become available."""
    alphabet = ("s2", "s1'", "s2'", "s1")  # ascending score order
    space = TypeSpace.shared(2, alphabet)
    prefs = tuple(tuple(("a", "b") for _ in alphabet) for _ in range(2))
    scores = tuple(
        tuple((("a", _SCHOOL_SCORES[lab]), ("b", 0)) for lab in alphabet)
        for _ in range(2)
    )
    model = DomainModel(
        kind="school",
        objects=("a", "b"),
        capacities=(("a", 1), ("b", 1)),
        type_prefs=prefs,
        type_scores=scores,
    )
    out = _OutcomeTable()
    x = out.add("1:a,2:b", ("a", "b"))
    y = out.add("1:b,2:a", ("b", "a"))
    table = []
    for profile in space.iter_profiles():
        s = [_SCHOOL_SCORES[alphabet[t]] for t in profile]
        table.append(x if s[0] > s[1] else y)
    universe = ProfileSet.from_factors(
        space, ((alphabet.index("s1"), alphabet.index("s1'")),
                (alphabet.index("s2"), alphabet.index("s2'")))
    )
    return Instance(space, out.freeze(space, table, True), model, universe)


# --- stable matching with multi-count queries --------------------------------


def _school_type_labels():
    labels = []
    for pref in ("a>b", "b>a"):
        for sa in (1, 2):
            for sb in (1, 2):
                labels.append(f"{pref},a{sa},b{sb}")
    return tuple(labels)


def _parse_school_type(label: str):
    pref, sa, sb = label.split(",")
    return tuple(pref.split(">")), {"a": int(sa[1:]), "b": int(sb[1:])}


def _demand(label: str, cutoffs: dict[str, int]) -> Optional[str]:
    prefs, scores = _parse_school_type(label)
    admitted = [c for c in prefs if scores[c] >= cutoffs[c]]
    return admitted[0] if admitted else None


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
    prefs = tuple(
        tuple(_parse_school_type(lab)[0] for lab in labels) for _ in range(2)
    )
    scores = tuple(
        tuple(
            tuple(sorted(_parse_school_type(lab)[1].items())) for lab in labels
        )
        for _ in range(2)
    )
    model = DomainModel(
        kind="school",
        objects=("a", "b"),
        capacities=(("a", 1), ("b", 1)),
        type_prefs=prefs,
        type_scores=scores,
    )

    def distinct_scores(profile) -> bool:
        t1, t2 = (_parse_school_type(labels[t])[1] for t in profile)
        return t1["a"] != t2["a"] and t1["b"] != t2["b"]

    universe = ProfileSet.from_profiles(
        space, (p for p in space.iter_profiles() if distinct_scores(p))
    )

    def clearing_cutoff(profile) -> dict[str, int]:
        for cut in _CUTOFF_GRID:
            demands = [_demand(labels[t], cut) for t in profile]
            loads = {c: demands.count(c) for c in ("a", "b")}
            if all(loads[c] <= 1 for c in ("a", "b")) and all(demands):
                return cut
        raise AssertionError("no clearing cutoff on the restricted space")

    out = _OutcomeTable()
    table = []
    for profile in space.iter_profiles():
        if not ProfileSet(space, universe.mask).contains(profile):
            table.append(out.add("unused", ("-", "-")))
            continue
        cut = clearing_cutoff(profile)
        demands = [_demand(labels[t], cut) for t in profile]
        label = (
            _assignment_outcome(dict(enumerate(demands)), 2)
            + f"|cut:a{cut['a']}b{cut['b']}"
        )
        table.append(out.add(label, tuple(demands)))
    rule = out.freeze(space, table, True)
    instance = Instance(space, rule, model, universe)

    def clearing_query(cut: dict[str, int]) -> MultiCountQuery:
        t_a = tuple(i for i, lab in enumerate(labels) if _demand(lab, cut) == "a")
        t_b = tuple(i for i, lab in enumerate(labels) if _demand(lab, cut) == "b")
        domain = list(itertools.product(range(3), repeat=2))
        clear = tuple(v for v in domain if v[0] <= 1 and v[1] <= 1)
        rest = tuple(v for v in domain if v not in clear)
        return MultiCountQuery((t_a, t_b), (clear, rest))

    def step(label_mask: int, state):
        kind = state[0]
        if kind == "cut":
            pos = state[1]
            if pos >= len(_CUTOFF_GRID):
                return None
            cut = _CUTOFF_GRID[pos]
            query = clearing_query(cut)

            def child_state(cell_index: int, _mask: int):
                if cell_index == 0:
                    return "pick", cut, 0
                return "cut", pos + 1

            return query, child_state
        _, cut, agent = state
        if agent >= 2 or constant_on(rule, label_mask):
            return None
        cells_by_school = {}
        for t in range(len(labels)):
            cells_by_school.setdefault(_demand(labels[t], cut), []).append(t)
        cells = tuple(
            tuple(cells_by_school[c]) for c in ("a", "b", None) if c in cells_by_school
        )
        query = ElicitQuery(agent, cells)

        def child_state(cell_index: int, _mask: int):
            return "pick", cut, agent + 1

        return query, child_state

    protocol = build_protocol(space, step, ("cut", 0), universe)
    phase = suggested_count_phase(protocol)
    return ProtocolBundle(instance, protocol, phase)


# ---------------------------------------------------------------------------
# abstract two-type example with four distinct outcomes


def non_clinching() -> Instance:
    """Injective rule on a 2x2 space that is strategyproof, yet no move of
    a direct protocol can be obviously dominant."""
    space = TypeSpace.shared(2, ("lo", "hi"))
    out = _OutcomeTable()
    for x in ("x1", "x2", "x3", "x4"):
        out.add(x, (x, x))
    table = [0, 1, 2, 3]  # (lo,lo) (lo,hi) (hi,lo) (hi,hi)
    prefs1 = (
        (("x1",), ("x3",), ("x2",), ("x4",)),  # type lo
        (("x4",), ("x2",), ("x3",), ("x1",)),  # type hi
    )
    prefs2 = (
        (("x1",), ("x2",), ("x3",), ("x4",)),
        (("x4",), ("x3",), ("x2",), ("x1",)),
    )
    model = DomainModel(kind="abstract", outcome_prefs=(prefs1, prefs2))
    return Instance(space, out.freeze(space, table, True), model)


# ---------------------------------------------------------------------------
# named rule instances


def fig_shaded_3x3() -> Instance:
    """3x3 rule with one outcome shared across four cells and fresh
    outcomes elsewhere; the classic inseparability-chain picture."""
    space = TypeSpace.shared(2, ("t1", "t2", "t3"))
    shaded = {(0, 1), (0, 2), (2, 0), (2, 1)}
    out = _OutcomeTable()
    table = []
    fresh = 0
    for profile in space.iter_profiles():
        if profile in shaded:
            table.append(out.add("x"))
        else:
            fresh += 1
            table.append(out.add(f"o{fresh}"))
    return Instance(space, out.freeze(space, table, False))


def appC_sp_restriction():
    """Second-price instance on nine types together with the 3x3x3 product
    set whose outcome tensor certifies impossibility without ties."""
    inst = second_price(3, list(range(9)))
    factors = ((5, 0, 2), (8, 7, 3), (6, 4, 1))
    return inst, tuple(tuple(sorted(f)) for f in factors)


# ---------------------------------------------------------------------------
# protocol builders for auctions


def descending_first_price(n: int, values) -> ProtocolBundle:
    """Price clock falls through the type grid; at each price agents are
    asked in order whether their type equals it, and the first yes wins
    at that price."""
    inst = first_price(n, values)
    space, rule = inst.space, inst.rule
    by_value_desc = sorted(
        range(space.sizes[0]), key=lambda t: -Fraction(space.alphabets[0][t])
    )

    def step(label: int, state):
        level_pos, agent = state
        if level_pos >= len(by_value_desc) or constant_on(rule, label):
            return None
        level = by_value_desc[level_pos]
        rest = (*range(level), *range(level + 1, space.sizes[0]))
        query = ElicitQuery(agent, ((level,), rest))
        nxt = (level_pos, agent + 1) if agent + 1 < space.n else (level_pos + 1, 0)

        def child_state(cell_index: int, _mask: int):
            return nxt

        return query, child_state

    return ProtocolBundle(inst, build_protocol(space, step, (0, 0)))


def ascending_elicitation_sp(n: int, values) -> ProtocolBundle:
    """English-auction style elicitation for the second-price rule: each
    agent in turn is asked whether her type exceeds the clock level.
    Implements the rule but leaks losers' types."""
    inst = second_price(n, values)
    space, rule = inst.space, inst.rule
    by_value_asc = sorted(
        range(space.sizes[0]), key=lambda t: Fraction(space.alphabets[0][t])
    )

    def step(label: int, state):
        level_pos, agent = state
        if level_pos >= len(by_value_asc) or constant_on(rule, label):
            return None
        above = tuple(
            t
            for t in range(space.sizes[0])
            if Fraction(space.alphabets[0][t])
            > Fraction(space.alphabets[0][by_value_asc[level_pos]])
        )
        if not above:
            return None
        rest = tuple(t for t in range(space.sizes[0]) if t not in above)
        query = ElicitQuery(agent, (above, rest))
        nxt = (level_pos, agent + 1) if agent + 1 < space.n else (level_pos + 1, 0)

        def child_state(cell_index: int, _mask: int):
            return nxt

        return query, child_state

    return ProtocolBundle(inst, build_protocol(space, step, (0, 0)))


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
    if not 1 <= k < n:
        raise InputError(f"k={k} needs 1 <= k < n={n}")
    return _count_clock(uniform_price(n, values, k), k)


def double_auction_count(n: int, values) -> ProtocolBundle:
    """Market-clearing counts find the price, then each agent reveals
    whether she is above it, which pins down all trades.  Restricted so
    the two median types differ."""
    if n < 2 or n % 2:
        raise InputError("double auction needs an even number of agents")
    return _count_clock(double_auction_walrasian(n, values, "lower"), n // 2)


def _count_clock(inst0: Instance, k: int) -> ProtocolBundle:
    """Clock over ascending levels: "are exactly k types above the level?"
    until yes, then each agent in order says whether she is above it.
    Restricted so that the k-th and (k+1)-th highest types differ."""
    space = inst0.space
    universe = order_statistic_restriction(space, k)
    inst = Instance(space, inst0.rule, inst0.model, universe)
    rule = inst.rule
    by_value_asc = sorted(
        range(space.sizes[0]), key=lambda t: Fraction(space.alphabets[0][t])
    )

    def above_set(level: int):
        lv = Fraction(space.alphabets[0][level])
        return tuple(
            t for t in range(space.sizes[0]) if Fraction(space.alphabets[0][t]) > lv
        )

    def step(label: int, state):
        kind = state[0]
        if kind == "count":
            pos = state[1]
            if pos >= len(by_value_asc):
                return None
            level = by_value_asc[pos]
            above = above_set(level)
            if not above:
                return None
            query = count_equals_query(space, above, k)

            def child_state(cell_index: int, _mask: int):
                if cell_index == 0:
                    return "elicit", level, 0
                return "count", pos + 1

            return query, child_state
        _, level, agent = state
        if agent >= space.n or constant_on(rule, label):
            return None
        above = above_set(level)
        rest = tuple(t for t in range(space.sizes[0]) if t not in above)
        query = ElicitQuery(agent, (above, rest))

        def child_state(cell_index: int, _mask: int):
            return "elicit", level, agent + 1

        return query, child_state

    protocol = build_protocol(space, step, ("count", 0), universe)
    return ProtocolBundle(inst, protocol, suggested_count_phase(protocol))


# ---------------------------------------------------------------------------
# rule properties


@record
class PropertyResult:
    ok: bool
    counterexample: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.ok


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


def check_rule_property(rule: ChoiceRule, model: DomainModel, prop: str) -> PropertyResult:
    _readable(rule, model)
    checks = {
        "efficient": _check_efficient,
        "ir": _check_ir,
        "stable": _check_stable,
        "sp": _check_sp,
    }
    if prop not in checks:
        raise InputError(f"unknown property {prop!r}")
    return checks[prop](rule, model)


def _check_efficient(rule: ChoiceRule, model: DomainModel) -> PropertyResult:
    space = rule.space
    if model.kind == "auction":
        for k in range(space.total):
            profile = space.profile(k)
            comps = rule.components[rule.table[k]]
            winners = [i for i, c in enumerate(comps) if c.startswith("q=1")]
            won = sum(model.values[i][profile[i]] for i in winners)
            best = sum(
                sorted(
                    (model.values[i][profile[i]] for i in range(space.n)),
                    reverse=True,
                )[: len(winners)]
            )
            if won != best:
                return PropertyResult(
                    False, {"profile": space.labels(profile), "winners": winners}
                )
        return PropertyResult(True)
    if model.kind in ("assignment", "house"):
        feasible = _complete_assignments(space.n, model.objects)
        for k in range(space.total):
            profile = space.profile(k)
            current = {
                i: rule.components[rule.table[k]][i] for i in range(space.n)
            }
            b = _pareto_dominator(current, feasible, profile, model.pref_rank)
            if b is not None:
                return PropertyResult(
                    False,
                    {
                        "profile": space.labels(profile),
                        "dominating": _assignment_outcome(b, space.n),
                    },
                )
        return PropertyResult(True)
    raise InputError(f"efficiency is not defined for kind {model.kind!r}")


def _check_ir(rule: ChoiceRule, model: DomainModel) -> PropertyResult:
    space = rule.space
    if model.kind == "house":
        for k in range(space.total):
            profile = space.profile(k)
            for i in range(space.n):
                got = rule.components[rule.table[k]][i]
                if model.pref_rank(i, profile[i], got) > model.pref_rank(
                    i, profile[i], model.endowments[i]
                ):
                    return PropertyResult(
                        False, {"profile": space.labels(profile), "agent": i + 1}
                    )
        return PropertyResult(True)
    if model.kind == "auction":
        for k in range(space.total):
            profile = space.profile(k)
            for i in range(space.n):
                q, t = _parse_auction_component(rule.components[rule.table[k]][i])
                if q * model.values[i][profile[i]] - t < 0:
                    return PropertyResult(
                        False, {"profile": space.labels(profile), "agent": i + 1}
                    )
        return PropertyResult(True)
    raise InputError(f"individual rationality is not defined for kind {model.kind!r}")


def _check_stable(rule: ChoiceRule, model: DomainModel) -> PropertyResult:
    if model.kind != "school":
        raise InputError(f"stability is not defined for kind {model.kind!r}")
    space = rule.space
    capacities = dict(model.capacities)
    universe = range(space.total)
    for k in universe:
        profile = space.profile(k)
        comps = rule.components[rule.table[k]]
        placed: dict[str, list[int]] = {}
        for i in range(space.n):
            placed.setdefault(comps[i], []).append(i)
        for i in range(space.n):
            own = comps[i]
            if own not in model.objects:
                continue  # profile outside the modeled region
            own_rank = model.pref_rank(i, profile[i], own)
            for c in model.objects:
                if model.pref_rank(i, profile[i], c) >= own_rank:
                    continue
                seats = capacities.get(c, 0)
                at_c = placed.get(c, [])
                if len(at_c) < seats:
                    return PropertyResult(
                        False,
                        {"profile": space.labels(profile), "student": i + 1, "school": c},
                    )
                my_score = model.score(i, profile[i], c)
                if any(model.score(j, profile[j], c) < my_score for j in at_c):
                    return PropertyResult(
                        False,
                        {"profile": space.labels(profile), "student": i + 1, "school": c},
                    )
    return PropertyResult(True)


def _parse_auction_component(comp: str) -> tuple[int, Fraction]:
    try:
        q_part, t_part = comp.split(",", 1)
        return int(q_part.split("=")[1]), Fraction(t_part.split("=")[1])
    except (ValueError, IndexError, ZeroDivisionError):
        raise InputError(f"malformed auction component {comp!r}") from None


def _check_sp(rule: ChoiceRule, model: DomainModel) -> PropertyResult:
    space = rule.space
    rank = outcome_rank_fn(rule, model)
    for k in range(space.total):
        profile = space.profile(k)
        for i in range(space.n):
            stride = space.strides[i]
            truth = rank(i, profile[i], rule.table[k])
            for t2 in range(space.sizes[i]):
                if t2 == profile[i]:
                    continue
                k2 = k + (t2 - profile[i]) * stride
                if rank(i, profile[i], rule.table[k2]) < truth:
                    return PropertyResult(
                        False,
                        {
                            "profile": space.labels(profile),
                            "agent": i + 1,
                            "report": space.alphabets[i][t2],
                        },
                    )
    return PropertyResult(True)


def outcome_rank_fn(rule: ChoiceRule, model: DomainModel) -> Callable[[int, int, int], object]:
    """Rank of an outcome for an agent with a given true type; smaller is
    better, ties allowed.  Built from explicit outcome preferences when
    present, from own-assignment preferences otherwise, and from
    quasilinear utilities in auction domains."""
    _readable(rule, model)
    if model.outcome_prefs is not None:
        rank_tables = []
        for agent_prefs in model.outcome_prefs:
            per_type = []
            for groups in agent_prefs:
                table = {}
                for r, group in enumerate(groups):
                    for label in group:
                        table[label] = r
                per_type.append(table)
            rank_tables.append(per_type)

        def rank(agent: int, type_index: int, outcome_id: int):
            label = rule.outcomes[outcome_id]
            try:
                return rank_tables[agent][type_index][label]
            except KeyError:
                raise InputError(
                    f"outcome {label!r} missing from agent {agent + 1}'s preferences"
                ) from None

        return rank
    if model.kind in ("assignment", "house", "school"):
        def rank(agent: int, type_index: int, outcome_id: int):
            return model.pref_rank(agent, type_index, rule.components[outcome_id][agent])

        return rank
    if model.kind in ("auction", "double_auction"):
        def rank(agent: int, type_index: int, outcome_id: int):
            q, t = _parse_auction_component(rule.components[outcome_id][agent])
            return -(q * model.values[agent][type_index] - t)

        return rank
    raise InputError(f"no outcome ranking available for kind {model.kind!r}")


# ---------------------------------------------------------------------------
# obvious dominance


@record
class OspResult:
    ok: bool
    node: Optional[int] = None
    agent: Optional[int] = None
    true_type: Optional[int] = None
    deviation_child: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


def check_protocol_osp(protocol: Protocol, rule: ChoiceRule, model: DomainModel) -> OspResult:
    """At every query the truthful cell's worst continuation must weakly
    beat every other cell's best continuation, under the mover's
    true-type ranking.  Elicitation protocols only."""
    space = protocol.space
    rank = outcome_rank_fn(rule, model)
    for v in protocol.nodes:
        if v.is_leaf:
            continue
        if not isinstance(v.query, ElicitQuery):
            raise UnsupportedProtocolError(
                f"node {v.id}: obvious dominance needs elicitation queries"
            )
        agent = v.query.agent
        masks = [protocol.nodes[c].label for c in v.children]
        failure = _osp_node_failure(space, rule, rank, agent, masks)
        if failure is not None:
            true_t, pos = failure
            return OspResult(False, v.id, agent, true_t, v.children[pos])
    return OspResult(True)


def _osp_node_failure(space: TypeSpace, rule: ChoiceRule, rank, agent: int, masks):
    """First (true type, deviating child position) at an elicitation node
    of ``agent`` whose children carry ``masks``, or ``None``.

    True types are tried in ascending order; for each, the worst outcome of
    its own child must weakly beat the best outcome of every other child.
    """
    stride, size = space.strides[agent], space.sizes[agent]
    members = [list(ProfileSet(space, m).indices()) for m in masks]
    home: dict[int, int] = {}  # true type -> position of the child holding it
    for pos, ks in enumerate(members):
        for k in ks:
            home.setdefault(k // stride % size, pos)
    for true_t in sorted(home):
        own = home[true_t]
        worst = max(
            rank(agent, true_t, rule.table[k])
            for k in members[own]
            if k // stride % size == true_t
        )
        for pos, ks in enumerate(members):
            if pos == own:
                continue
            if min(rank(agent, true_t, rule.table[k]) for k in ks) < worst:
                return true_t, pos
    return None


# ---------------------------------------------------------------------------
# registries for the command-line surface


def _require(params: dict, key: str):
    if key not in params:
        raise InputError(f"builtin parameter {key!r} is required")
    return params[key]


def _order_param(params: dict, n: int):
    order = params.get("order", list(range(1, n + 1)))
    return tuple(i - 1 for i in order)


BUILTIN_RULES: dict[str, Callable[[dict], object]] = {
    "serial_dictatorship": lambda p: serial_dictatorship(
        _require(p, "n"), _require(p, "objects"), _order_param(p, _require(p, "n"))
    ),
    "first_price": lambda p: first_price(_require(p, "n"), _require(p, "values")),
    "second_price": lambda p: second_price(_require(p, "n"), _require(p, "values")),
    "kth_price": lambda p: kth_price(
        _require(p, "n"), _require(p, "values"), _require(p, "k")
    ),
    "uniform_price": lambda p: uniform_price(
        _require(p, "n"), _require(p, "values"), _require(p, "k")
    ),
    "double_auction_walrasian": lambda p: double_auction_walrasian(
        _require(p, "n"), _require(p, "values"), p.get("selection", "lower")
    ),
    "fair_tiebreak_2x2": lambda p: fair_tiebreak_2x2(),
    "fig2_instance": lambda p: fig_shaded_3x3(),
    "appC_sp_restriction": lambda p: appC_sp_restriction()[0],
    "non_clinching": lambda p: non_clinching(),
    "house_ir_efficient_family": lambda p: house_ir_efficient_family(),
    "school_stable_family": lambda p: school_stable_family(),
    "school_count_instance": lambda p: school_count_instance(),
}

BUILTIN_PROTOCOLS: dict[str, Callable[[dict], ProtocolBundle]] = {
    "serial_dictatorship": lambda p: serial_dictatorship_protocol(
        serial_dictatorship(
            _require(p, "n"), _require(p, "objects"), _order_param(p, _require(p, "n"))
        ),
        _order_param(p, _require(p, "n")),
    ),
    "descending_first_price": lambda p: descending_first_price(
        _require(p, "n"), _require(p, "values")
    ),
    "count_ascending_kplus1_price": lambda p: count_ascending_price(
        _require(p, "k"), _require(p, "n"), _require(p, "values")
    ),
    "double_auction_count": lambda p: double_auction_count(
        _require(p, "n"), _require(p, "values")
    ),
    "multicount_stable_matching": lambda p: multicount_stable_matching(),
    "ascending_elicitation_sp": lambda p: ascending_elicitation_sp(
        _require(p, "n"), _require(p, "values")
    ),
    "fair_two_query": lambda p: fair_two_query_protocol(fair_tiebreak_2x2()),
}
