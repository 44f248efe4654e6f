"""The registry of built-in rules and protocols, and ``cpv builtin``.

``_BUILTINS`` lists every built-in by name, with the family module that
builds it: :mod:`cpv.auctions` (the auction rules), :mod:`cpv.clocks` (the
auction clocks) or :mod:`cpv.matching` (assignment, house and school rules
with their protocols, and the small abstract examples).  This module
imports none of them at module level: an entry of ``BUILTIN_RULES`` or
``BUILTIN_PROTOCOLS`` imports its family when it first runs, so a command
compiles only the builders of the family it runs.  Only :mod:`cpv.clocks`
imports :mod:`cpv.protocol` at module level, so a rule ``builtin``
compiles no protocol module.  ``_tabulate`` and
:func:`suggested_count_phase` live here, where every family reaches them
without loading another.

``cpv builtin`` runs :func:`builtin_command`, and a file whose rule names a
built-in loads this module; so does an efficiency check that names a
dominating assignment, labelled as :mod:`cpv.matching` labels outcomes, and
no other command.  ``--emit``
writes the instance with :func:`instance_to_json`, which lives here, off
the path of ``synth --emit`` and ``enumerate --emit``, which write
protocols alone; a bundle's protocol is written by ``cpv.jsonwriter``.  The
economic property checks live in :mod:`cpv.properties`.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable

from cpv.core import (
    MODEL_SHAPES,
    SCHEMA,
    ChoiceRule,
    DomainModel,
    InputError,
    Instance,
    ProtocolBundle,
    TypeSpace,
    _entries,
)


def _tabulate(space: TypeSpace, outcomes, model=None, universe=None) -> Instance:
    """The instance whose rule gives the profiles, in index order, the
    ``(label, components)`` pairs of ``outcomes``; outcome ids number the
    distinct pairs in order of first appearance."""
    ids: dict = {}
    table = tuple([ids.setdefault(outcome, len(ids)) for outcome in outcomes])
    labels, components = zip(*ids)
    return Instance(ChoiceRule(space, labels, table, components), model, universe)


def suggested_count_phase(protocol) -> tuple[int, ...]:
    """Count nodes, over one subset or several, plus their children: the
    price-finding prefix together with the roots it hands over to.  Falls
    back to the root-only phase when every count query contracted away (a
    single clearing level on the restricted space)."""
    from cpv.protocol import CountQuery

    phase = set()
    for v in protocol.nodes:
        if isinstance(v.query, CountQuery):
            phase.add(v.id)
            phase.update(v.children)
    return tuple(sorted(phase)) or (0,)


# ---------------------------------------------------------------------------
# registries for the command-line surface


def _require(params: dict, key: str):
    if key not in params:
        raise InputError(f"builtin parameter {key!r} is required")
    return params[key]


# (name, builds a protocol bundle, family module, the builder read from that
# module, parameter names in argument order; a trailing "?" marks an
# optional one, passed only when given)
_BUILTINS = (
    ("serial_dictatorship", False, "matching", lambda m: m._serial, "n objects order?"),
    ("first_price", False, "auctions", lambda m: m.first_price, "n values"),
    ("second_price", False, "auctions", lambda m: m.second_price, "n values"),
    ("kth_price", False, "auctions", lambda m: m.kth_price, "n values k"),
    ("uniform_price", False, "auctions", lambda m: m.uniform_price, "n values k"),
    ("double_auction_walrasian", False, "auctions", lambda m: m.double_auction_walrasian,
     "n values selection?"),
    ("fair_tiebreak_2x2", False, "matching", lambda m: m.fair_tiebreak_2x2, ""),
    ("fig2_instance", False, "matching", lambda m: m.fig_shaded_3x3, ""),
    ("appC_sp_restriction", False, "auctions", lambda m: lambda: m.appC_sp_restriction()[0], ""),
    ("non_clinching", False, "matching", lambda m: m.non_clinching, ""),
    ("efficient_completions_2x2", False, "matching", lambda m: m.efficient_completions_2x2, ""),
    ("house_ir_efficient_family", False, "matching", lambda m: m.house_ir_efficient_family, ""),
    ("school_stable_family", False, "matching", lambda m: m.school_stable_family, ""),
    ("school_count_instance", False, "matching", lambda m: m.school_count_instance, ""),
    ("serial_dictatorship", True, "matching", lambda m: partial(m._serial, protocol=True),
     "n objects order?"),
    ("descending_first_price", True, "clocks", lambda m: m.descending_first_price, "n values"),
    ("count_ascending_kplus1_price", True, "clocks", lambda m: m.count_ascending_price,
     "k n values"),
    ("double_auction_count", True, "clocks", lambda m: m.double_auction_count, "n values"),
    ("multicount_stable_matching", True, "matching", lambda m: m.multicount_stable_matching, ""),
    ("ascending_elicitation_sp", True, "clocks", lambda m: m.ascending_elicitation_sp,
     "n values"),
    ("fair_two_query", True, "matching",
     lambda m: lambda: m.fair_two_query_protocol(m.fair_tiebreak_2x2()), ""),
)


def _entry(family: str, read, names: str) -> Callable[[dict], object]:
    """Table entry: the builder that ``read`` takes from the module
    ``cpv.<family>``, imported when the entry first runs, called with the
    named parameters, each read once; a parameter it does not name is
    refused."""
    required = [key for key in names.split() if not key.endswith("?")]
    optional = [key[:-1] for key in names.split() if key.endswith("?")]
    taken = ", ".join(required + optional) or "no parameters"

    def entry(params: dict):
        untaken = params.keys() - {*required, *optional}
        if untaken:
            raise InputError(
                f"unknown builtin parameter {min(untaken)!r}; this builtin takes {taken}"
            )
        build = read(__import__(f"cpv.{family}", fromlist=["*"]))
        return build(
            *[_require(params, key) for key in required],
            **{key: params[key] for key in optional if key in params},
        )

    return entry


BUILTIN_RULES: dict[str, Callable[[dict], object]] = {
    name: _entry(*row) for name, bundle, *row in _BUILTINS if not bundle
}
BUILTIN_PROTOCOLS: dict[str, Callable[[dict], ProtocolBundle]] = {
    name: _entry(*row) for name, bundle, *row in _BUILTINS if bundle
}


# ``bench/spans.py`` ``TARGETS`` still names this check by its old home in
# this module; it is forwarded from ``cpv.properties`` for it alone.
_MOVED = ("check_rule_property",)


def __getattr__(name: str):
    """The functions of ``_MOVED`` from ``cpv.properties``; no other name."""
    if name in _MOVED:
        from cpv import properties

        return getattr(properties, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def builtin_command(args) -> tuple[int, dict]:
    """The report of ``cpv builtin`` and its exit code; ``--emit`` writes
    the built instance, family or bundle."""
    from cpv.reader import _at, _check, _parse

    params = _parse(args.params, "--params") if args.params else {}
    _check("params", params, "")
    name = args.name
    table = BUILTIN_PROTOCOLS if name in BUILTIN_PROTOCOLS else BUILTIN_RULES
    if name not in table:
        raise InputError(f"unknown builtin {name!r}")
    with _at("/"):
        built = table[name](params)
    doc: dict = {"command": "builtin", "name": name}
    if table is BUILTIN_PROTOCOLS:
        doc.update(kind="protocol", nodes=len(built.protocol.nodes))
        doc["profiles"] = built.instance.space.total
    elif isinstance(built, list):
        doc.update(kind="family", members=len(built))
    else:
        doc.update(kind="rule", profiles=built.space.total, rows=len(built.rule.table))
    if args.emit:
        from cpv.jsonwriter import _emit

        doc["emitted"] = _emit(_builtin_to_json(built), args.emit)
    return 0, doc


def _builtin_to_json(built) -> dict:
    """The cpv-1 document of a built-in protocol bundle, family or rule."""
    if isinstance(built, ProtocolBundle):
        from cpv.jsonwriter import protocol_to_json

        out = instance_to_json(built.instance)
        pdoc = protocol_to_json(built.protocol, built.phase)
        out["protocol"] = {k: v for k, v in pdoc.items() if k not in ("schema", "space")}
        return out
    if isinstance(built, list):
        return {"schema": SCHEMA, "family": [instance_to_json(b) for b in built]}
    return instance_to_json(built)


def instance_to_json(instance: Instance) -> dict:
    """The cpv-1 document of an instance; its table rows are one template's
    rows for ``cpv.jsonwriter.write_json``."""
    space, rule = instance.space, instance.rule
    doc: dict = {
        "schema": SCHEMA,
        "agents": space.n,
    }
    if space.common_alphabet:
        doc["alphabet"] = list(space.alphabets[0])
    else:
        doc["alphabets"] = [list(a) for a in space.alphabets]
    outcomes = doc["outcomes"] = list(rule.outcomes)
    doc["rule"] = {
        "table": [  # itertools.product lists the profiles in index order
            {"profile": list(labels), "outcome": outcomes[o]}
            for labels, o in zip(itertools.product(*space.alphabets), rule.table)
        ]
    }
    if rule.components is not None:
        doc["components"] = {
            lab: list(row) for lab, row in zip(rule.outcomes, rule.components)
        }
    if instance.model is not None:
        doc["model"] = _model_to_json(instance.model)
    if instance.universe is not None:
        from cpv.jsonwriter import _profiles_to_json

        doc["universe"] = _profiles_to_json(space, instance.universe.mask)
    return doc


def _model_to_json(model: DomainModel) -> dict:
    fields = ((key.rstrip("*"), shape) for key, shape in MODEL_SHAPES.items())
    return {
        key: _thaw(shape, v) for key, shape in fields if (v := getattr(model, key)) is not None
    }


def _thaw(shape, value):
    """A model field in the JSON form of its ``shape``: the inverse of
    ``cpv.reader._freeze``."""
    from fractions import Fraction

    if isinstance(shape, dict):
        return {k: _thaw(shape["*"], v) for k, v in value}
    if not isinstance(shape, str):
        return [_thaw(_entries(shape), v) for v in value]
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else str(value)
    return value
