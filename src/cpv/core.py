"""Finite type spaces, profiles, profile sets, choice rules, and the
instance records that bundle a rule with its model and universe.

Profiles are tuples of per-agent type indices.  A profile set is a dense
bitmask over the mixed-radix index space of a :class:`TypeSpace`; agent 0
is the most significant digit.  All values are immutable and every
operation is a pure function.

Type labels read from files become profile indices in whole columns:
:meth:`TypeSpace.indices_of_rows` indexes an array of label rows one agent
column at a time, with C-level passes and no Python call per row, and
:meth:`TypeSpace.index_of_labels` indexes one row and says what is wrong
with it.  The range checks of :meth:`ProfileSet.from_indices` and
:class:`ChoiceRule` likewise read ``min`` and ``max`` of the whole sequence,
and scan for an offender only to name it.

Every property check returns a :class:`Verdict`: ``ok``, and if that is
false, the first counterexample in the check's scan order as ``violation``,
in the shape that the check's docstring gives.  Validators return their
findings or raise.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from operator import itemgetter


class InputError(ValueError):
    """Malformed or out-of-contract input."""


class LoadError(InputError):
    """An input error at ``path``, a JSON pointer (RFC 6901) into the document read."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{message} (at {path})")


class PreconditionError(InputError):
    """A documented operation precondition does not hold."""


class ResourceError(RuntimeError):
    """The cap ``PROFILE_CAP`` was exceeded, by the profile count of a type
    space or by its agent count."""


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a :func:`record`."""


def record(cls):
    """Class decorator: ``cls`` becomes an immutable record of its fields.

    The fields are the names annotated in the class body, in order; a
    class attribute of the same name is the field's default.  Both are read
    once, here.  The installed methods are shared by every record and
    compile nothing per class: ``__init__`` binds positional and keyword
    arguments and defaults, then calls ``__post_init__`` if the class has
    one (which may set fields through ``object.__setattr__``); ``__eq__``
    and ``__hash__`` use the tuple of field values, and equality holds only
    between instances of the same class; ``__repr__`` reads
    ``Name(a=1, b=2)``; ``__setattr__`` and ``__delattr__`` raise
    :class:`FrozenRecordError`.  This is what
    ``dataclasses.dataclass(frozen=True)`` gives such a class, without the
    cost of generating its methods at import.
    """
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    cls._record_fields = fields
    cls._record_defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    cls._record_post_init = cls.__dict__.get("__post_init__")
    cls.__init__ = _record_init
    cls.__eq__ = _record_eq
    cls.__hash__ = _record_hash
    cls.__repr__ = _record_repr
    cls.__setattr__ = _record_setattr
    cls.__delattr__ = _record_delattr
    return cls


def _record_init(self, *args, **kwargs) -> None:
    cls = type(self)
    fields = cls._record_fields
    if kwargs or len(args) != len(fields):
        args = _record_bind(cls, args, kwargs)
    self.__dict__.update(zip(fields, args))
    if cls._record_post_init is not None:
        cls._record_post_init(self)


def _record_bind(cls, args: tuple, kwargs: dict) -> tuple:
    """All field values, in order, from arguments and defaults."""
    fields, name = cls._record_fields, cls.__qualname__
    if len(args) > len(fields):
        raise TypeError(
            f"{name}() takes {len(fields)} positional arguments but {len(args)} were given"
        )
    bound = dict(zip(fields, args))
    for key, value in kwargs.items():
        if key not in fields:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if key in bound:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
        bound[key] = value
    values = {**cls._record_defaults, **bound}
    missing = [f for f in fields if f not in values]
    if missing:
        raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
    return tuple([values[f] for f in fields])


def _record_values(self) -> tuple:
    values = self.__dict__
    return tuple([values[f] for f in self._record_fields])


def _record_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _record_values(self) == _record_values(other)


def _record_hash(self) -> int:
    return hash(_record_values(self))


def _record_repr(self) -> str:
    values = self.__dict__
    inner = ", ".join(f"{f}={values[f]!r}" for f in self._record_fields)
    return f"{type(self).__qualname__}({inner})"


def _record_setattr(self, name: str, value) -> None:
    raise FrozenRecordError(f"cannot assign to {name!r} of an immutable record")


def _record_delattr(self, name: str) -> None:
    raise FrozenRecordError(f"cannot delete {name!r} of an immutable record")


PROFILE_CAP = 1 << 20  # largest profile space a TypeSpace accepts

Profile = tuple[int, ...]


@record
class TypeSpace:
    """Per-agent finite type alphabets; the ambient product space."""

    alphabets: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if not self.alphabets:
            raise InputError("need at least one agent")
        for i, alpha in enumerate(self.alphabets):
            if not alpha:
                raise InputError(f"agent {i}: empty alphabet")
            if len(set(alpha)) != len(alpha):
                raise InputError(f"agent {i}: duplicate type labels")
        if self.total > PROFILE_CAP:  # the size itself may be too long to print
            raise ResourceError(f"profile space size exceeds cap {PROFILE_CAP}")

    @classmethod
    def shared(cls, n: int, alphabet: tuple[str, ...] | list[str]) -> TypeSpace:
        """All ``n`` agents draw types from one common alphabet; ``n`` above
        the profile cap is refused before any alphabet is repeated."""
        if n > PROFILE_CAP:
            raise ResourceError(f"agent count exceeds cap {PROFILE_CAP}")
        return cls(tuple(tuple(alphabet) for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.alphabets)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.alphabets)

    @cached_property
    def total(self) -> int:
        return math.prod(self.sizes)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        # agent 0 is the most significant mixed-radix digit
        out = [1] * self.n
        for i in range(self.n - 2, -1, -1):
            out[i] = out[i + 1] * self.sizes[i + 1]
        return tuple(out)

    @cached_property
    def common_alphabet(self) -> bool:
        return all(a == self.alphabets[0] for a in self.alphabets)

    @cached_property
    def label_index(self) -> tuple[dict, ...]:
        """Per agent, the map from type label to type index."""
        return tuple({lab: t for t, lab in enumerate(a)} for a in self.alphabets)

    @cached_property
    def digit_fills(self) -> tuple[int, ...]:
        """Per agent, the mask of the profiles in which that agent has type 0.

        The agent's digit repeats with period ``stride * size``; the mask is
        a run of ``stride`` ones at the bottom of every period, built as one
        product ``block * comb`` with ``comb`` holding one bit per period.
        Shifted left by ``t * stride`` it is the mask of type ``t``: the runs
        stay inside their periods.
        """
        out = []
        for size, stride in zip(self.sizes, self.strides):
            period = size * stride
            comb = int("1".rjust(period, "0") * (self.total // period), 2)
            out.append(((1 << stride) - 1) * comb)
        return tuple(out)

    def digit_mask(self, agent: int, types) -> int:
        """Mask of the profiles in which ``agent``'s type lies in ``types``."""
        fill, stride = self.digit_fills[agent], self.strides[agent]
        mask = 0
        for t in types:
            mask |= fill << (t * stride)
        return mask

    def check_profile(self, profile: Profile) -> None:
        if len(profile) != self.n:
            raise InputError(f"profile has {len(profile)} entries, expected {self.n}")
        for i, t in enumerate(profile):
            if not 0 <= t < self.sizes[i]:
                raise InputError(f"agent {i}: type index {t} out of range")

    def index(self, profile: Profile) -> int:
        self.check_profile(profile)
        return sum(t * s for t, s in zip(profile, self.strides))

    def profile(self, index: int) -> Profile:
        if not 0 <= index < self.total:
            raise InputError(f"profile index {index} out of range")
        out = []
        for size, stride in zip(self.sizes, self.strides):
            out.append((index // stride) % size)
        return tuple(out)

    def labels(self, profile: Profile) -> tuple[str, ...]:
        self.check_profile(profile)
        return tuple(self.alphabets[i][t] for i, t in enumerate(profile))

    def profile_of_labels(self, labels: list[str] | tuple[str, ...]) -> Profile:
        return self.profile(self.index_of_labels(labels))

    def index_of_labels(self, labels: list[str] | tuple[str, ...]) -> int:
        """Profile index of one type label per agent, checked."""
        if len(labels) != len(self.alphabets):
            raise InputError(f"profile has {len(labels)} labels, expected {self.n}")
        k = 0
        for i, (lookup, size, lab) in enumerate(zip(self.label_index, self.sizes, labels)):
            try:
                k = k * size + lookup[lab]
            except (KeyError, TypeError):  # an unhashable label names no type
                raise InputError(f"agent {i}: unknown type label {lab!r}") from None
        return k

    def indices_of_rows(self, rows):
        """Profile indices of ``rows``, arrays of one type label per agent,
        as a lazy map that runs no Python code per row.

        Each agent's column, ``map(itemgetter(i), rows)``, is looked up in a
        map from the agent's labels to type index times stride; a first
        column, of row lengths, gives 0.  The columns are zipped side by side
        and each row's offsets summed, so no iterator nests in another per
        agent and no agent count exhausts the C stack.  ``rows`` is read once
        per column, so it must be a sequence.  Consuming the map raises
        ``KeyError`` at a row whose length is not the agent count or at a
        label that names no type, and ``TypeError`` at an unhashable label;
        only :meth:`index_of_labels`, a row at a time, says which.
        """
        columns = [
            map({label: t * stride for t, label in enumerate(alphabet)}.__getitem__,
                map(itemgetter(i), rows))
            for i, (alphabet, stride) in enumerate(zip(self.alphabets, self.strides))
        ]
        return map(sum, zip(map({self.n: 0}.__getitem__, map(len, rows)), *columns))

    def type_indices(self, agent: int, labels) -> tuple[int, ...]:
        """Type indices of ``labels`` in ``agent``'s alphabet, checked."""
        try:
            return tuple(self.label_index[agent][lab] for lab in labels)
        except KeyError as exc:
            raise InputError(f"unknown type label {exc.args[0]!r}") from None

    def iter_profiles(self):
        return itertools.product(*(range(s) for s in self.sizes))


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")
_FLAG_DIGITS = bytes.maketrans(b"\0\1", b"01")


def mask_flags(mask: int, total: int) -> bytes:
    """Membership flags of a profile-set mask: byte ``k`` is 1 iff bit ``k`` is set."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES).ljust(total, b"\0")


def mask_of_flags(flags: bytes | bytearray) -> int:
    """Inverse of :func:`mask_flags`: bit ``k`` is set iff byte ``k`` is 1."""
    return int(flags[::-1].translate(_FLAG_DIGITS), 2)


def iter_mask(mask: int):
    """Profile indices in a mask, ascending, found by scanning its binary
    digits once (linear in the mask's length, however many bits are set)."""
    digits = bin(mask)[:1:-1]
    find = digits.find
    k = find("1")
    while k >= 0:
        yield k
        k = find("1", k + 1)


def mask_indices(mask: int) -> list[int]:
    """Profile indices in a mask, ascending, read at C level.

    A sparse mask (fewer than one bit in five set) is read from the runs of
    zeros before its set bits, the pieces of its reversed binary digits
    split at every 1: each index is the previous one plus its run plus one.
    A denser mask is read by compressing the index range with its flags.
    """
    total = mask.bit_length()
    if mask.bit_count() * 5 >= total:
        return list(itertools.compress(range(total), mask_flags(mask, total)))
    steps = map((1).__add__, map(len, bin(mask)[:1:-1].split("1")[:-1]))
    out = list(itertools.accumulate(steps, initial=-1))
    del out[0]
    return out


@record
class ProfileSet:
    """A subset of profiles as a dense bitmask over profile indices."""

    space: TypeSpace
    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> self.space.total:
            raise InputError("mask has bits outside the profile index space")

    @classmethod
    def full(cls, space: TypeSpace) -> ProfileSet:
        return cls(space, (1 << space.total) - 1)

    @classmethod
    def from_indices(cls, space: TypeSpace, indices) -> ProfileSet:
        keys, total = list(indices), space.total
        if keys and not 0 <= min(keys) <= max(keys) < total:  # then name the first
            raise InputError(f"profile index {next(k for k in keys if not 0 <= k < total)} "
                             "out of range")
        flags = bytearray(total)
        any(map(flags.__setitem__, keys, itertools.repeat(1)))  # __setitem__ returns None
        return cls(space, mask_of_flags(flags))

    @classmethod
    def from_factors(cls, space: TypeSpace, factors) -> ProfileSet:
        """Product set with per-agent type-index factors."""
        factors = check_factors(space, factors)
        mask = (1 << space.total) - 1
        for i, f in enumerate(factors):
            mask &= space.digit_mask(i, f)
        return cls(space, mask)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def indices(self):
        return iter(mask_indices(self.mask))

    def projection(self, agent: int) -> tuple[int, ...]:
        """Sorted type indices agent ``agent`` takes within this set."""
        space = self.space
        return tuple(
            t for t in range(space.sizes[agent]) if self.mask & space.digit_mask(agent, (t,))
        )


def product_factorization(space: TypeSpace, pset: ProfileSet):
    """Per-agent factors if ``pset`` is a product set, else ``None``.

    The candidate factors are the per-agent projections; the set is a
    product exactly when its cardinality matches the product of the
    projection sizes.
    """
    if pset.is_empty:
        raise InputError("cannot factor the empty set")
    factors = tuple(pset.projection(i) for i in range(space.n))
    if pset.size != math.prod(len(f) for f in factors):
        return None
    return factors


@record
class ChoiceRule:
    """Total map from profile indices to outcome ids.

    ``components``, when present, give each outcome's per-agent bundle;
    equal outcome ids therefore always carry equal per-agent components.
    """

    space: TypeSpace
    outcomes: tuple[str, ...]
    table: tuple[int, ...]
    components: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self) -> None:
        if len(set(self.outcomes)) != len(self.outcomes):
            raise InputError("duplicate outcome labels")
        if len(self.table) != self.space.total:
            raise InputError(
                f"rule table has {len(self.table)} rows, expected {self.space.total}"
            )
        table, count = self.table, len(self.outcomes)
        if not 0 <= min(table) <= max(table) < count:  # then name the first
            raise InputError(f"outcome id {next(x for x in table if not 0 <= x < count)} "
                             "out of range")
        if self.components is not None:
            if len(self.components) != len(self.outcomes):
                raise InputError("components must be given per outcome id")
            for row in self.components:
                if len(row) != self.space.n:
                    raise InputError("component row length must equal agent count")

    @property
    def outcome_count(self) -> int:
        return len(self.outcomes)

    @property
    def has_components(self) -> bool:
        return self.components is not None


def check_factors(space: TypeSpace, factors, what: str = "") -> tuple[tuple[int, ...], ...]:
    """Per-agent factors as sorted distinct type indices, checked once: one
    nonempty factor per agent, every type inside its agent's alphabet.

    The product-set scans index the rule table by arithmetic on these
    types, so an unchecked type would read another profile's outcome (or,
    if negative, wrap round the table).  ``what`` qualifies the messages.
    """
    factors = tuple(tuple(sorted(set(f))) for f in factors)
    if len(factors) != space.n:
        raise InputError(f"{what}factor count differs from agent count")
    for i, f in enumerate(factors):
        if not f:
            raise InputError(f"agent {i}: empty {what}factor")
        for t in f:
            if not 0 <= t < space.sizes[i]:
                raise InputError(f"agent {i}: {what}type index {t} out of range")
    return factors


def constant_on(rule: ChoiceRule, mask: int) -> bool:
    """True iff the rule takes at most one outcome on the profile-set mask."""
    table = rule.table
    keys = iter_mask(mask)
    first = table[next(keys, 0)]
    return all(table[k] == first for k in keys)


def outcome_ids(rule: ChoiceRule, mask: int) -> set[int]:
    """The outcome ids the rule takes on the profile-set mask, read in one
    pass at C level."""
    return set(map(rule.table.__getitem__, mask_indices(mask)))


@record
class Verdict:
    """Whether a property holds; if not, its first counterexample."""

    ok: bool
    violation: object = None

    def __bool__(self) -> bool:
        return self.ok


@record
class Witness:
    """Product set on which the rule is non-constant yet, for every agent,
    all factor types are inseparable.  Certifies that no contextually
    private sequential-elicitation protocol exists."""

    factors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "factors", tuple(tuple(sorted(set(f))) for f in self.factors)
        )

    def labels(self, space: TypeSpace) -> tuple[tuple[str, ...], ...]:
        return tuple(
            tuple(space.alphabets[i][t] for t in f)
            for i, f in enumerate(self.factors)
        )


# ---------------------------------------------------------------------------
# instances: what a file or a built-in gives the commands

SCHEMA = "cpv-1"

# The cpv-1 shape of each DomainModel field, in the shape language of
# ``cpv.reader.CPV1``, whose "model" entry this is; "field*" may be absent or
# null.  It lives here so that the reader in ``cpv.reader`` and the instance
# writer in ``cpv.mechanisms`` share it without importing each other.
MODEL_SHAPES = {  # values: numbers, or strings holding fractions
    "kind": "str", "objects*": ["str"], "values*": ("types", "label"),
    "endowments*": ("agents", "label"), "capacities*": {"*": "int"},
    "type_prefs*": ("types", ["str"]), "type_scores*": ("types", {"*": "int"}),
    "outcome_prefs*": ("types", [["str"]]),
}


def _entries(shape):
    """The shape of each entry of an array of ``shape``."""
    return [shape[1]] if isinstance(shape, tuple) and shape[0] == "types" else shape[-1]


@record
class DomainModel:
    """Economic side data; builders fill in what their domain defines."""

    kind: str  # auction | assignment | house | school | double_auction | abstract
    objects: tuple[str, ...] | None = None
    # [agent][type]: JSON integers as int, other numbers as Fraction; the
    # annotation stays unevaluated, so fractions is not imported
    values: tuple[tuple[int | Fraction, ...], ...] | None = None
    endowments: tuple | None = None  # house: object labels; double auction: 0/1
    capacities: tuple[tuple[str, int], ...] | None = None
    type_prefs: tuple[tuple[tuple[str, ...], ...], ...] | None = None  # [agent][type]
    type_scores: tuple | None = None  # [agent][type] -> ((school, score), ...)
    outcome_prefs: tuple | None = None  # [agent][type] -> groups of outcome labels


@record
class Instance:
    rule: ChoiceRule
    model: DomainModel | None = None
    universe: ProfileSet | None = None

    @property
    def space(self) -> TypeSpace:
        return self.rule.space


@record
class ProtocolBundle:
    # annotations stay unevaluated: cpv.protocol imports this module
    instance: Instance
    protocol: Protocol | None  # None where a loaded file holds no protocol
    phase: tuple[int, ...] | None = None  # suggested initial phase (node ids)
