"""Command dispatch and machine-readable reports.

Interchange is JSON, schema version "cpv-1": ``cpv.reader`` holds its
reference table ``CPV1`` and the loaders, and ``cpv.jsonwriter`` the
writer.  Exit codes: 0 when the checked property holds / synthesis
succeeded / the run completed; 1 when a property fails or nonexistence is
proven (the witness or violation is printed as JSON on stdout); 2 on input
errors, which name the JSON pointer (RFC 6901) of the field at fault, or
on resource errors.  Reports are deterministic: stable key order, no
timestamps (timing goes to stderr).  Agent numbers in files are 1-based.

``--emit`` rewrites its target in place: an existing file keeps its inode
and mode, and only a tail beyond the new end is cut off.  A target that
cannot be written exits 2 with ``cannot write <path>: <reason>``.

The emitted format is a contract: indent 2, keys sorted, every character
outside ASCII escaped, and a line break at the end, the bytes of
``json.dump(doc, fh, indent=2, sort_keys=True)`` followed by ``"\\n"``.
``tests/test_builtin_golden.py`` pins them.  One writer,
``cpv.jsonwriter.write_json``, serves both ``--emit`` and ``--pretty``.
The stderr line splits the elapsed time into load, compute and emit.

Importing this module loads ``core``, ``protocol`` and ``reader`` only;
each command imports the modules it runs when it runs.  ``load`` is the
reader's, imported by name: the commands call it through this module's
namespace.  Without a bytecode cache every module loaded is compiled at
every start, so what only some commands run lives elsewhere: the cpv-1
writer in ``cpv.jsonwriter`` (for ``--emit``, ``run`` and ``--pretty``),
the protocol checks in ``cpv.privacy``, the decider with its witnesses in
``cpv.search`` (for ``synth`` and ``enumerate``) and the corners and
non-bossiness scans in ``cpv.synthesis`` (for ``check --property
corners|nonbossy``).  So ``validate`` and ``check`` of CP, ICP, GCP or
tatonnement compile none of ``cpv.search``, ``cpv.synthesis`` and the
writer, ``synth`` and ``enumerate`` do not compile ``cpv.synthesis``, and
``fractions`` is imported only for a model that holds values other than
integers.  Reports, failures included, are formatted here, so a ``check``
or ``synth`` without ``--emit`` imports no writer.

``check --property`` reads one table, ``_PROPERTIES``; its names, in order,
are the choices.  Per property: whether it needs a protocol; the check, which
imports its module, reads the loaded bundle and the report, may add to the
report and returns a ``core.Verdict``; the report key of a failure; and the
failure's JSON, from the type space and the violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from cpv.core import (
    SCHEMA,
    InputError,
    ProtocolBundle,
    ResourceError,
    TypeSpace,
    Verdict,
    Witness,
    product_factorization,
)
from cpv.protocol import Protocol, run_protocol, validate_protocol
from cpv.reader import _SPENT, _at, _check, _parse, _timed, load

# ---------------------------------------------------------------------------
# reports and writing


def witness_to_json(space: TypeSpace, witness: Witness) -> dict:
    return {"factors": [list(f) for f in witness.labels(space)]}


def _write(doc: dict, path: str) -> str:
    """Writes ``doc`` to ``path`` with ``cpv.jsonwriter._emit``, timed as
    the emit part of the stderr line; returns ``path``."""
    with _timed("emit"):
        _cpv("jsonwriter")._emit(doc, path)
    return path


def _cpv(module: str):
    """The module ``cpv.<module>``, imported when a command first runs it."""
    return __import__(f"cpv.{module}", fromlist=["*"])


def _report(doc: dict, pretty: bool) -> None:
    if pretty:
        from cpv.jsonwriter import write_json

        write_json(doc, sys.stdout)
    else:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


# ---------------------------------------------------------------------------
# commands


def _cmd_validate(args) -> tuple[int, dict]:
    loaded = load(args.instance, args.protocol)
    doc = {"command": "validate", "instance": "ok"}
    if loaded.protocol is not None:
        if defects := validate_protocol(loaded.protocol):
            raise InputError("; ".join(defects))
        doc["protocol"] = "ok"
        doc["notes"] = list(loaded.protocol.notes)
    return 0, doc


def _tatonnement(b: ProtocolBundle, doc: dict) -> Verdict:
    """Tatonnement on the file's phase, or else on a discovered one."""
    tatonnement, rule, phase = _cpv("tatonnement"), b.instance.rule, b.phase
    if phase is None:
        phase = tatonnement.phase_discovery(b.protocol, rule)
        doc["discovered_phase"] = list(phase) if phase else None
        if phase is None:
            return Verdict(False, ("no initial phase with disjoint outcome reach", None))
    verdict = tatonnement.check_tatonnement(b.protocol, rule, phase)
    if not verdict.ok:  # where it fails: two end nodes, an uncovered leaf or an end node
        failure, at = verdict.violation
        if failure == "disjointness":
            doc["failure_at"] = {"nodes": list(at[:2]), "shared": at[2]}
        elif failure == "coverage":
            doc["failure_at"] = {"leaf": at}
        else:
            doc["failure_at"] = {"node": at[0], "violation": _cp_to_json(b.instance.space, at[1])}
    return verdict


def _labels(space: TypeSpace, profiles) -> list:
    return [list(space.labels(p)) for p in profiles]


def _cp_to_json(space: TypeSpace, v) -> dict:
    types = space.alphabets[v.agent]
    return {
        "agent": v.agent + 1, "types": [types[v.type_a], types[v.type_b]],
        "profiles": _labels(space, (v.profile_a, v.profile_b)), "leaves": [v.leaf_a, v.leaf_b],
        "shared": v.detail,
    }


def _corners_to_json(space: TypeSpace, v) -> dict:
    i, j = space.alphabets[v.agent_i], space.alphabets[v.agent_j]
    return {
        "agents": [v.agent_i + 1, v.agent_j + 1], "types_i": [i[t] for t in v.types_i],
        "types_j": [j[t] for t in v.types_j], "at": list(space.labels(v.rest)),
        "shared": v.shared_outcome, "fourth": v.fourth_outcome,
    }


def _nonbossy_to_json(space: TypeSpace, violation) -> dict:
    i, t, t2, profile, j = violation
    return {
        "agent": i + 1, "types": [space.alphabets[i][t], space.alphabets[i][t2]],
        "profile": list(space.labels(profile)), "affected": j + 1,
    }


def _osp_to_json(space: TypeSpace, violation) -> dict:
    node, agent, true_type, _ = violation
    return {"node": node, "agent": agent + 1, "true_type": space.alphabets[agent][true_type]}


_PROPERTIES = {  # the module docstring states its shape
    "cp": (
        True, lambda b, doc: _cpv("privacy").check_protocol_cp(b.protocol, b.instance.rule),
        "violation", _cp_to_json,
    ),
    "gcp": (
        True, lambda b, doc: _cpv("privacy").check_protocol_gcp(b.protocol, b.instance.rule),
        "violation", lambda space, v: {"node": v[0], "profiles": _labels(space, v[1])},
    ),
    "icp": (
        True, lambda b, doc: _cpv("privacy").check_protocol_icp(b.protocol, b.instance.rule),
        "violation", _cp_to_json,
    ),
    "tatonnement": (True, _tatonnement, "failure", lambda space, v: v[0]),
    "corners": (
        False, lambda b, doc: _cpv("synthesis").corners_scan(b.instance.rule, b.instance.universe),
        "violation", _corners_to_json,
    ),
    "nonbossy": (
        False,
        lambda b, doc: _cpv("synthesis").check_nonbossy(b.instance.rule, b.instance.universe),
        "violation", _nonbossy_to_json,
    ),
    **dict.fromkeys(("efficient", "ir", "stable", "sp"), (
        False, lambda b, doc: _cpv("mechanisms").check_rule_property(
            b.instance.rule, b.instance.model, doc["property"], b.instance.universe
        ),
        "counterexample", lambda space, example: example,
    )),
    "osp": (
        True, lambda b, doc: _cpv("mechanisms").check_protocol_osp(
            b.protocol, b.instance.rule, b.instance.model
        ),
        "violation", _osp_to_json,
    ),
}


def _cmd_check(args) -> tuple[int, dict]:
    loaded = load(args.instance, args.protocol)
    prop = args.property
    needs_protocol, check, key, to_json = _PROPERTIES[prop]
    if needs_protocol and loaded.protocol is None:
        raise InputError(f"property {prop!r} needs a protocol file")
    doc: dict = {"command": "check", "property": prop}
    verdict = check(loaded, doc)
    doc["holds"] = verdict.ok
    if not verdict.ok:
        doc[key] = to_json(loaded.instance.space, verdict.violation)
    return (0 if verdict.ok else 1), doc


def _cmd_synth(args) -> tuple[int, dict]:
    search = _cpv("search")
    loaded = load(args.instance)
    instance = loaded.instance
    factors = None
    if instance.universe is not None:
        factors = product_factorization(instance.space, instance.universe)
        if factors is None:
            raise InputError("synthesis needs a product universe")
    result = search.synthesize_or_witness(instance.rule, factors)
    if isinstance(result, Protocol):
        doc = {
            "command": "synth",
            "result": "protocol",
            "nodes": len(result.nodes),
            "leaves": len(result.leaves()),
        }
        if args.emit:
            doc["emitted"] = _write(_cpv("jsonwriter").protocol_to_json(result), args.emit)
        return 0, doc
    minimized = search.witness_minimize(instance.rule, result)
    doc = {
        "command": "synth",
        "result": "witness",
        "witness": witness_to_json(instance.space, result),
        "minimized": witness_to_json(instance.space, minimized),
    }
    return 1, doc


def _cmd_run(args) -> tuple[int, dict]:
    loaded = load(args.instance, args.protocol)
    if loaded.protocol is None:
        raise InputError("run needs a protocol")
    space = loaded.instance.space
    try:
        entries = json.loads(args.profile)
    except ValueError:
        entries = None
    if isinstance(entries, list) and len(entries) == space.n:  # equal labels, as the loader names them
        profile = space.profile(space.index_of_labels(entries))
    else:
        labels = [s.strip() for s in args.profile.split(",")]
        if len(labels) == space.n:  # the string label equal to an entry, else the one it spells in JSON
            labels = [
                lab if lab in alphabet else next((t for t in alphabet if json.dumps(t) == lab), lab)
                for alphabet, lab in zip(space.alphabets, labels)
            ]
        profile = space.profile_of_labels(labels)
    path, leaf, outcome = run_protocol(loaded.protocol, profile, loaded.instance.rule)
    doc = {
        "command": "run",
        "path": [{"node": node, "query": query, "answer": pos} for node, query, pos in path],
        "leaf": leaf,
        "leaf_profiles": _cpv("jsonwriter")._profiles_to_json(
            space, loaded.protocol.nodes[leaf].label
        ),
        "outcome": outcome,
    }
    return 0, doc


def _cmd_enumerate(args) -> tuple[int, dict]:
    from cpv.search import drawn_kinds, exhaustive_cp_search

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
        doc["emitted"] = _write(_cpv("jsonwriter").protocol_to_json(result.protocol), args.emit)
    doc["nodes"] = len(result.protocol.nodes)
    return 0, doc


def _cmd_builtin(args) -> tuple[int, dict]:
    from cpv.mechanisms import BUILTIN_PROTOCOLS, BUILTIN_RULES

    params = _parse(args.params, "--params") if args.params else {}
    _check("params", params)
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
        doc["emitted"] = _write(_builtin_to_json(built), args.emit)
    return 0, doc


def _builtin_to_json(built) -> dict:
    """The cpv-1 document of a built-in protocol bundle, family or rule."""
    writer = _cpv("jsonwriter")
    if isinstance(built, ProtocolBundle):
        out = writer.instance_to_json(built.instance)
        pdoc = writer.protocol_to_json(built.protocol, built.phase)
        out["protocol"] = {k: v for k, v in pdoc.items() if k not in ("schema", "space")}
        return out
    if isinstance(built, list):
        return {"schema": SCHEMA, "family": [writer.instance_to_json(b) for b in built]}
    return writer.instance_to_json(built)


# ---------------------------------------------------------------------------
# entry point


# ``bench/spans.py`` ``TARGETS`` still names these writer functions as
# ``cpv.cli`` attributes; they are forwarded from ``cpv.jsonwriter`` for it alone.
_MOVED = ("instance_to_json", "protocol_to_json", "_emit")


def __getattr__(name: str):
    """The functions of ``_MOVED`` from ``cpv.jsonwriter``; no other name."""
    if name in _MOVED:
        return getattr(_cpv("jsonwriter"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpv",
        description="verify, synthesize, and search contextually private protocols.",
    )
    parser.add_argument("--pretty", action="store_true", help="indent JSON reports")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load files and check structural invariants")
    p.add_argument("instance")
    p.add_argument("protocol", nargs="?")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("check", help="check a property of a rule or protocol")
    p.add_argument("--property", required=True, choices=list(_PROPERTIES))
    p.add_argument("instance")
    p.add_argument("protocol", nargs="?")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("synth", help="synthesize a private protocol or a witness")
    p.add_argument("instance")
    p.add_argument("--emit", help="write the protocol file here")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("run", help="walk a protocol on one profile")
    p.add_argument(
        "--profile", required=True,
        help="comma-separated type labels, a label that is not a string as JSON, e.g. 1 or "
        "null; or a JSON array of the labels, e.g. '[\"a,b\", \" c\"]'",
    )
    p.add_argument("instance")
    p.add_argument("protocol", nargs="?")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("enumerate", help="decide implementability over a query family")
    p.add_argument("--queries", default="elicit", help="elicit[,count][,multicount]")
    p.add_argument("--emit", help="write a found protocol here")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "builtin",
        help="materialize a built-in rule or protocol",
        description="materialize a built-in rule or protocol.  A protocol name "
        "wins over a rule name: serial_dictatorship emits the protocol bundle, "
        "and the rule alone is reachable through rule.builtin in an instance file.  "
        "A parameter the built-in does not take exits 2, here and in rule.params.",
    )
    p.add_argument("name")
    p.add_argument("--params", help="JSON object of parameters")
    p.add_argument("--emit", help="write the instance/bundle file here")
    p.set_defaults(func=_cmd_builtin)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _SPENT.update(load=0.0, emit=0.0)
    start = time.perf_counter()
    try:
        code, doc = args.func(args)
    except (ResourceError, RecursionError) as exc:
        _report({"error": str(exc), "kind": "resource"}, args.pretty)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        _report({"error": str(exc)}, args.pretty)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc["schema"] = SCHEMA
    _report(doc, args.pretty)
    load, emit = _SPENT["load"], _SPENT["emit"]
    total = time.perf_counter() - start
    print(f"elapsed: {total:.3f}s (load {load:.3f}s, compute {total - load - emit:.3f}s, "
          f"emit {emit:.3f}s)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
