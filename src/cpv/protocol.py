"""Query protocols: rooted trees whose node labels partition the type space.

Node labels are always derived from the root label and the query
descriptors, never stored independently, so label/query inconsistencies
cannot arise.  Cells that are empty on a node's label are pruned during
construction and recorded; queries left with a single nonempty cell are
contracted away (they transmit nothing).

A protocol read from a file is built by :func:`build_from_spec` straight
from its cpv-1 tree, in the one walk of :func:`build_protocol`, which checks
each node as it reaches it.

Every protocol-level privacy check starts with :func:`require_implements`,
which refuses a protocol that does not implement the rule and names a
non-constant leaf.

What only some commands run lives elsewhere: the fibres of count queries
in :mod:`cpv.counts`, imported when a count query first splits a label,
and the walk of ``cpv run`` in :mod:`cpv.run`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from cpv.core import (
    ChoiceRule,
    InputError,
    PreconditionError,
    ProfileSet,
    TypeSpace,
    Verdict,
    mask_indices,
    outcome_ids,
    record,
)


class ProtocolDefect(InputError):
    """A structural defect found while building or validating a protocol."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{message} at node {path}")


# ---------------------------------------------------------------------------
# queries


@record
class ElicitQuery:
    """Individual elicitation: cells partition agent ``agent``'s alphabet."""

    agent: int
    cells: tuple[tuple[int, ...], ...]

    def validate(self, space: TypeSpace, path: str = "?") -> None:
        if not 0 <= self.agent < space.n:
            raise ProtocolDefect(path, f"unknown agent {self.agent}")
        size = space.sizes[self.agent]
        for cell in self.cells:
            if cell and not (0 <= min(cell) and max(cell) < size):
                t = next(t for t in cell if not 0 <= t < size)
                raise ProtocolDefect(path, f"elicit type index {t} out of range")
        _check_partition(self.cells, range(space.sizes[self.agent]), path, "type")


@record
class CountQuery:
    """Cells partition {0..n}^l over the joint counts of l ``subsets`` of
    the common alphabet: a profile falls in the cell holding the number of
    agents whose type lies in each subset.  The cpv-1 kind ``count`` is the
    query over one subset, its counts named as numbers, and ``multicount``
    the query over any other number of subsets."""

    subsets: tuple[tuple[int, ...], ...]
    cells: tuple[tuple[tuple[int, ...], ...], ...]

    def validate(self, space: TypeSpace, path: str = "?") -> None:
        one = len(self.subsets) == 1
        if not space.common_alphabet:
            kind = "count" if one else "multi-count"
            raise ProtocolDefect(path, f"{kind} query requires a common alphabet")
        for sub in self.subsets:
            for t in sub:
                if not 0 <= t < space.sizes[0]:
                    raise ProtocolDefect(path, f"count subset type index {t} out of range")
        if one:  # each count as a number; a vector of another length in full
            cells = [[v[0] if len(v) == 1 else v for v in cell] for cell in self.cells]
            _check_partition(cells, range(space.n + 1), path, "count")
        else:
            domain = list(itertools.product(range(space.n + 1), repeat=len(self.subsets)))
            _check_partition(self.cells, domain, path, "count vector")


@record
class ExtensionalQuery:
    """Children given outright as profile-set masks over the full space."""

    cells: tuple[int, ...]

    def validate(self, space: TypeSpace, path: str = "?") -> None:
        for mask in self.cells:
            if mask < 0 or mask >> space.total:
                raise ProtocolDefect(path, "extensional cell outside profile space")


Query = ElicitQuery | CountQuery | ExtensionalQuery


def _check_partition(cells, domain, path: str, what: str) -> None:
    """Refuses ``cells`` unless they partition ``domain``, a range or a
    list, naming the first defect."""
    if len(cells) < 2:
        raise ProtocolDefect(path, f"query needs at least 2 cells")
    seen: set = set()
    for cell in cells:
        if not cell:
            raise ProtocolDefect(path, f"empty {what} cell")
        for v in cell:
            if v in seen:
                raise ProtocolDefect(path, f"overlap: {what} {v} in two cells")
            seen.add(v)
    missing = [v for v in domain if v not in seen]
    if missing:
        raise ProtocolDefect(path, f"non-exhaustive: {what} {missing[0]} in no cell")
    if len(seen) > len(domain):  # every value of the domain is seen, and more
        v = next(v for cell in cells for v in cell if v not in domain)
        raise ProtocolDefect(path, f"{what} {v} out of range")


def query_cell_masks(space: TypeSpace, query: Query, label: int, path: str = "?") -> list[int]:
    """Masks of ``label`` split by the query's cells, aligned to cell order.

    An intensional query is split with whole-mask operations: each cell
    takes ``label`` and the union of the fibres of its answers (the profiles
    giving that answer), except the largest cell, which takes what the
    other cells leave of ``label``.  This relies on the query's
    ``validate``: every possible answer lies in exactly one cell, and an
    elicit cell holds only types of the agent's alphabet (a count vector
    outside ``{0..n}^l`` has no fibre and adds nothing).
    """
    if isinstance(query, ExtensionalQuery):
        out = [label & mask for mask in query.cells]
        covered = 0
        for m in out:
            if covered & m:
                k = (covered & m).bit_length() - 1
                raise ProtocolDefect(path, f"overlap: profile {space.labels(space.profile(k))}")
            covered |= m
        if covered != label:
            k = (label & ~covered).bit_length() - 1
            raise ProtocolDefect(
                path, f"non-exhaustive: profile {space.labels(space.profile(k))} in no cell"
            )
        return out
    if isinstance(query, ElicitQuery):
        def fibre_union(cell) -> int:
            return space.digit_mask(query.agent, cell)
    else:  # a count query: its fibres come from the module of count queries
        from cpv.counts import count_fibres

        fibres = count_fibres(space, query.subsets, label)

        def fibre_union(cell) -> int:
            mask = 0
            for v in cell:
                mask |= fibres.get(v, 0)
            return mask

    cells = query.cells
    largest = max(range(len(cells)), key=lambda c: len(cells[c]))
    out = [0 if c == largest else label & fibre_union(cell) for c, cell in enumerate(cells)]
    rest = label
    for m in out:
        rest &= ~m
    out[largest] = rest
    return out


# ---------------------------------------------------------------------------
# protocol trees


@record
class Node:
    id: int
    parent: int  # -1 for the root
    label: int  # profile-set mask, derived
    query: Optional[Query]  # None at leaves
    children: tuple[int, ...]
    cell_of_child: tuple[int, ...]  # original cell index per child

    @property
    def is_leaf(self) -> bool:
        return not self.children


@record
class Protocol:
    space: TypeSpace
    universe: int  # root label mask; full space unless restricted
    nodes: tuple[Node, ...]
    notes: tuple[str, ...] = ()

    @property
    def root(self) -> Node:
        return self.nodes[0]

    def leaves(self) -> list[Node]:
        return [v for v in self.nodes if v.is_leaf]

    def leaf_map(self) -> list[int]:
        """Leaf node id per profile index; -1 outside the universe."""
        leaf = [-1] * self.space.total
        for v in self.leaves():
            for k in mask_indices(v.label):
                leaf[k] = v.id
        return leaf


# --- construction ----------------------------------------------------------

# A step function drives adaptive construction: given the current label mask
# and an opaque state, return None to stop (leaf) or a (query, child_state)
# pair.  The builder then validates the query, splits the label once with
# query_cell_masks, and calls child_state(cell_index, cell_mask) for every
# cell in cell order, empty cells included; it drops the states of empty
# cells.  A query left with one nonempty cell is contracted: the node is
# stepped again with that cell's state.
StepFn = Callable[[int, object], Optional[tuple[Query, Callable[[int, int], object]]]]


def build_protocol(
    space: TypeSpace,
    step: StepFn,
    state: object = None,
    universe: ProfileSet | None = None,
) -> Protocol:
    """Build the tree depth-first on an explicit stack; node ids come out
    in preorder.

    A note or defect names the path of the step that asked its query: the
    cell indices from the root, the kept cell's index included where a
    query is contracted.  For a tree read by :func:`build_from_spec` that is
    the path of the node in the file that holds the query.
    """
    root = ProfileSet.full(space).mask if universe is None else universe.mask
    if not root:
        raise InputError("universe is empty")
    rows: list[list] = []  # [parent, label, query, children, cells]
    notes: list[str] = []
    # (label, state, parent id, cell index, path)
    stack = [(root, state, -1, -1, "/tree")]
    while stack:
        label, state, parent, cell, path = stack.pop()
        while True:
            decision = step(label, state)
            if decision is None:
                query, kept = None, []
                break
            query, child_state = decision
            query.validate(space, path)
            masks = query_cell_masks(space, query, label, path)
            states = [child_state(c, m) for c, m in enumerate(masks)]
            kept = [(c, m, states[c]) for c, m in enumerate(masks) if m]
            for c, m in enumerate(masks):
                if not m:
                    notes.append(f"pruned empty cell {c} at {path}")
            if len(kept) > 1:
                break
            notes.append(f"contracted degenerate query at {path}")
            c, _, state = kept[0]
            path = f"{path}/{c}"
        rows.append([parent, label, query, [], []])
        node_id = len(rows) - 1
        if parent >= 0:
            rows[parent][3].append(node_id)
            rows[parent][4].append(cell)
        for c, m, child in reversed(kept):
            stack.append((m, child, node_id, c, f"{path}/{c}"))
    nodes = tuple(
        Node(i, r[0], r[1], r[2], tuple(r[3]), tuple(r[4]))
        for i, r in enumerate(rows)
    )
    return Protocol(space, root, nodes, tuple(notes))


def build_from_spec(
    space: TypeSpace, tree: object, universe: ProfileSet | None = None, pointer: str = "/tree"
) -> Protocol:
    """The protocol of ``tree``, a cpv-1 tree at ``pointer``.  The walk
    checks each node and decodes its query at its JSON pointer as it reaches
    the node, and refuses a subtree under a cell that is empty on the node's
    label without reading it."""
    from cpv.treereader import _node_query

    def step(label: int, state: object):
        node, at, path = state
        query = _node_query(space, node, at)
        if query is None:
            return None
        children = node.get("children", [])

        def child_state(cell: int, mask: int):
            if len(children) != len(query.cells):
                raise ProtocolDefect(path, f"{len(children)} children for {len(query.cells)} cells")
            child = children[cell]
            if (child is None) == bool(mask):
                raise ProtocolDefect(f"{path}/{cell}", "missing subtree for nonempty cell"
                                     if mask else "subtree attached to an empty cell")
            return child, f"{at}/children/{cell}", f"{path}/{cell}"

        return query, child_state

    return build_protocol(space, step, (tree, pointer, "/tree"), universe)


# --- validation -------------------------------------------------------------


def validate_protocol(protocol: Protocol) -> tuple[str, ...]:
    """The defects among the derived invariants: root label, partitions,
    nonempty labels, branching; none for a sound protocol.  Construction
    enforces these, so defects indicate a hand-assembled or corrupted value."""
    defects: list[str] = []
    if protocol.nodes[0].label != protocol.universe:
        defects.append("root label differs from the universe")
    for v in protocol.nodes:
        if not v.label:
            defects.append(f"empty label at node {v.id}")
        if v.is_leaf:
            continue
        if len(v.children) < 2:
            defects.append(f"interior node {v.id} has fewer than 2 children")
        union = 0
        for c in v.children:
            child = protocol.nodes[c]
            if union & child.label:
                defects.append(f"overlap at node {v.id}")
            union |= child.label
        if union != v.label:
            defects.append(f"non-exhaustive at node {v.id}")
    return tuple(defects)


# --- semantic relations -------------------------------------------------------


def implements(protocol: Protocol, rule: ChoiceRule) -> Verdict:
    """Whether the rule is constant on every terminal label.  A violation
    reads ``(leaf, (profile, profile))``: the first leaf where it is not,
    the leaf's lowest profile, and its lowest profile mapped to another
    outcome.

    Each leaf is tested in one pass at C level: its :func:`outcome_ids`
    hold a single element.
    """
    if rule.space != protocol.space:
        raise InputError("protocol and rule live on different type spaces")
    for v in protocol.nodes:
        if v.is_leaf and len(outcome_ids(rule, v.label)) > 1:
            first, *rest = mask_indices(v.label)
            other = next(k for k in rest if rule.table[k] != rule.table[first])
            space = protocol.space
            return Verdict(False, (v.id, (space.profile(first), space.profile(other))))
    return Verdict(True)


def require_implements(protocol: Protocol, rule: ChoiceRule) -> None:
    """The precondition of every protocol-level privacy check: raises a
    :class:`PreconditionError` naming a non-constant leaf unless the
    protocol implements the rule."""
    res = implements(protocol, rule)
    if not res:
        raise _not_implemented(res.violation[0])


def _not_implemented(leaf: int) -> PreconditionError:
    """The one wording of a failed implementation precondition."""
    return PreconditionError(
        f"protocol does not implement the rule (leaf {leaf} is non-constant)"
    )


def outcome_reach(protocol: Protocol, rule: ChoiceRule) -> dict[int, frozenset[int]]:
    """node id -> set of outcome ids reachable below it.

    Each leaf contributes the outcome of its lowest-index profile, so the
    protocol must implement the rule.
    """
    reach: dict[int, frozenset[int]] = {}
    for v in reversed(protocol.nodes):  # children carry larger preorder ids
        if v.is_leaf:
            reach[v.id] = frozenset({rule.table[(v.label & -v.label).bit_length() - 1]})
        else:
            reach[v.id] = frozenset().union(*(reach[c] for c in v.children))
    return reach

