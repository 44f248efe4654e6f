"""Command dispatch and machine-readable reports.

Interchange is JSON, schema version "cpv-1": ``cpv.reader`` holds its
reference table ``CPV1`` and the loaders, and ``cpv.jsonwriter`` the
writer.  Exit codes: 0 when the checked property holds / synthesis
succeeded / the run completed; 1 when a property fails or nonexistence is
proven (the witness or violation is printed as JSON on stdout); 2 on input
errors, which name the JSON pointer (RFC 6901) of the field at fault, or
on resource errors.  A malformed command line is an input error too: exit 2
with ``{"error": ...}`` on stdout and ``error: ...`` on stderr.  Reports
are deterministic: stable key order, no timestamps (timing goes to
stderr).  Agent numbers in files are 1-based.

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

The command line is read against one table, ``_COMMANDS``.  Per command: the
handler, which takes the values by name as attributes; the help, whose first
line is the summary ``cpv --help`` lists; the positionals, in order, a name
ending in ``?`` optional; and the options, ``name: (default, choices)``, a
name ending in ``?`` optional, with ``choices`` None or the values allowed.
Options are the words that start with ``--``, named in full (a prefix is
refused); every other word is a positional.  ``--opt value`` and
``--opt=value`` both give a value, and only the second can give one that
starts with ``--``.  Options may come before or after the positionals,
``--`` ends the options, and ``--pretty`` comes before the command.  ``-h``
or ``--help`` prints the help of ``cpv``, or of the command before it, with
usage lines built from the table, and exits 0.  There is no ``argparse``: every command starts a fresh
interpreter, and importing it, with the ``gettext`` it pulls in, and
building its parsers cost about 5 ms of the 28 ms that ``cpv`` adds to a
bare interpreter start (two-core x86-64 VM, medians of 40 runs, CPU per
child, no bytecode cache for ``cpv``).
"""

from __future__ import annotations

import json
import sys
import time
from types import SimpleNamespace

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


_COMMANDS = {  # the module docstring states its shape
    "validate": (
        _cmd_validate, "load files and check structural invariants", ("instance", "protocol?"),
        {},
    ),
    "check": (
        _cmd_check, "check a property of a rule or protocol", ("instance", "protocol?"),
        {"property": (None, tuple(_PROPERTIES))},
    ),
    "synth": (
        _cmd_synth, "synthesize a private protocol or a witness\n--emit: write the protocol here",
        ("instance",), {"emit?": (None, None)},
    ),
    "run": (
        _cmd_run,
        "walk a protocol on one profile\n--profile: comma-separated type labels, a label that "
        "is not a string as JSON,\ne.g. 1 or null; or a JSON array of the labels, "
        "e.g. '[\"a,b\", \" c\"]'",
        ("instance", "protocol?"), {"profile": (None, None)},
    ),
    "enumerate": (
        _cmd_enumerate,
        "decide implementability over a query family\n"
        "--queries: elicit[,count][,multicount], elicit if not given\n"
        "--emit: write a found protocol here",
        ("instance",), {"queries?": ("elicit", None), "emit?": (None, None)},
    ),
    "builtin": (
        _cmd_builtin,
        "materialize a built-in rule or protocol\n"
        "--params: JSON object of parameters; --emit: write the instance or bundle here\n"
        "A protocol name wins over a rule name: serial_dictatorship emits the protocol\n"
        "bundle, and the rule alone is reachable through rule.builtin in an instance file.\n"
        "A parameter the built-in does not take exits 2, here and in rule.params.",
        ("name",), {"params?": (None, None), "emit?": (None, None)},
    ),
}


def _usage(command: str | None) -> str:
    """The help of ``cpv command``: its usage line, built from ``_COMMANDS``,
    and its help; or of ``cpv`` itself: each command's usage and summary."""
    lines = [] if command else ["usage: cpv [--pretty] COMMAND ...",
                                "--pretty: indent JSON reports"]
    for name in [command] if command else _COMMANDS:
        _, text, positionals, options = _COMMANDS[name]
        words = ["usage: cpv" if command else "\n  cpv", name]
        for option, (_, choices) in options.items():
            key = option.rstrip("?")
            word = f"--{key} " + ("{" + ",".join(choices) + "}" if choices else key.upper())
            words.append(word if option == key else f"[{word}]")
        words += [p if p[-1] != "?" else f"[{p[:-1]}]" for p in positionals]
        lines += [" ".join(words), text if command else "  " + text.partition("\n")[0]]
    return "\n".join(lines)


def _read_argv(argv: list, args: SimpleNamespace):
    """Reads ``argv`` against ``_COMMANDS`` into ``args``, one attribute per
    positional and option; returns the command's handler, or None once the
    help that ``-h`` or ``--help`` asks for is printed.  A malformed command
    line raises ``InputError``."""
    command, options, given = None, {}, []
    words = iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            return print(_usage(command))
        if command is None:
            if word == "--pretty":
                args.pretty = True
                continue
            if word not in _COMMANDS:
                raise InputError(f"unknown command {word!r}; "
                                 f"expected one of {', '.join(_COMMANDS)}")
            command, options = word, _COMMANDS[word][3]
            for key, (default, _) in options.items():
                setattr(args, key.rstrip("?"), default)
        elif word == "--":
            given += words
        elif word[:2] != "--":
            given.append(word)
        else:
            name, eq, value = word[2:].partition("=")
            key = name if name in options else name + "?"
            if key not in options or name[-1:] == "?":
                raise InputError(f"{command}: unknown option {word!r}")
            if not eq:
                value = next(words, "--")
                if value[:2] == "--":
                    raise InputError(f"{command}: option --{name} needs a value")
            choices = options[key][1]
            if choices and value not in choices:
                raise InputError(f"{command}: --{name} must be one of {', '.join(choices)}; "
                                 f"not {value!r}")
            setattr(args, name, value)
    if command is None:
        raise InputError(f"no command; expected one of {', '.join(_COMMANDS)}")
    func, _, names, _ = _COMMANDS[command]
    if len(given) > len(names):
        raise InputError(f"{command}: unexpected argument {given[len(names)]!r}")
    for name, value in zip(names, [*given, *[None] * len(names)]):
        setattr(args, name.rstrip("?"), value)
    for name in (*names, *options):
        if name[-1] != "?" and getattr(args, name) is None:
            raise InputError(f"{command}: missing {'--' * (name in options)}{name}")
    return func


def main(argv=None) -> int:
    args = SimpleNamespace(pretty=False)
    try:
        func = _read_argv(sys.argv[1:] if argv is None else argv, args)
        if func is None:
            return 0
        _SPENT.update(load=0.0, emit=0.0)
        start = time.perf_counter()
        code, doc = func(args)
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
