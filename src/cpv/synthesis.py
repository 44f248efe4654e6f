"""Rule-level privacy scans: corners and non-bossiness.

The corners scan decides one two-agent plane at a time whether a failing
square (three equal corners and a fourth that differs) exists, and scans
pairs only to name the first one; it is a fast necessary condition for
contextual privacy, not a sufficient one.  It and the non-bossiness scan
enumerate their pairs with :func:`cpv.privacy.unilateral_pairs`, as the
protocol-level checks of :mod:`cpv.privacy` do.  Inseparability classes,
the decider and its witnesses live in :mod:`cpv.search`.

``cpv check --property corners|nonbossy`` imports this module; ``synth``,
``enumerate`` and ``check`` of CP, ICP, GCP or tatonnement never compile
it.
"""

from __future__ import annotations

from cpv.core import (
    ChoiceRule,
    InputError,
    Profile,
    ProfileSet,
    TypeSpace,
    Verdict,
    mask_flags,
    record,
)
from cpv.privacy import _own_components, unilateral_pairs

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


def corners_to_json(space: TypeSpace, v: CornersViolation) -> dict:
    """A corners violation as a report gives it."""
    i, j = space.alphabets[v.agent_i], space.alphabets[v.agent_j]
    return {
        "agents": [v.agent_i + 1, v.agent_j + 1], "types_i": [i[t] for t in v.types_i],
        "types_j": [j[t] for t in v.types_j], "at": list(space.labels(v.rest)),
        "shared": v.shared_outcome, "fourth": v.fourth_outcome,
    }


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


def product_indices(space: TypeSpace, factors) -> list[int]:
    """Profile indices of the product set ``factors``, in
    ``itertools.product(*factors)`` order.  The factors are not checked."""
    keys = [0]
    for f, stride in zip(factors, space.strides):
        keys = [k + t * stride for k in keys for t in f]
    return keys


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
# non-bossiness


def check_nonbossy(rule: ChoiceRule, region: ProfileSet | None = None) -> Verdict:
    """No agent changes another's component while keeping her own, in
    ``region`` or the whole space.  A violation reads ``(agent, type, other
    type, profile, affected agent)``."""
    if not rule.has_components:
        raise InputError("non-bossiness needs per-agent outcome components")
    space, comps, table = rule.space, rule.components, rule.table
    inside = region.mask if region is not None else (1 << space.total) - 1
    for k, i, t2, k2 in unilateral_pairs(space, inside, value=_own_components(rule)):
        ca, cb = comps[table[k]], comps[table[k2]]
        for j in range(space.n):
            if j != i and ca[j] != cb[j]:
                profile = space.profile(k)
                return Verdict(False, (i, profile[i], t2, profile, j))
    return Verdict(True)


def nonbossy_to_json(space: TypeSpace, violation) -> dict:
    """A non-bossiness violation as a report gives it."""
    i, t, t2, profile, j = violation
    return {
        "agent": i + 1, "types": [space.alphabets[i][t], space.alphabets[i][t2]],
        "profile": list(space.labels(profile)), "affected": j + 1,
    }
