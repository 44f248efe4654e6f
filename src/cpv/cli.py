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

Importing this module loads ``core`` and ``reader`` only, and ``validate``
of a rule table loads nothing more.  Without a bytecode cache every module a
command loads is compiled at its start, at about 1.5 us an AST node
(two-core x86-64 VM), so a command imports only what it runs, when it runs
it, and each handler lives in a module on its own path:

- ``validate``: here.  A file holding a protocol loads ``cpv.treereader``
  and ``cpv.protocol``, and ``cpv.counts`` once a count query splits.
- ``check``: ``cpv.check``, which loads the module of its property:
  ``cpv.privacy`` (cp), ``cpv.variants`` (icp, gcp), ``cpv.tatonnement``,
  ``cpv.synthesis`` (corners, nonbossy) or ``cpv.properties`` (efficient,
  ir, stable, sp, osp).
- ``synth`` and ``enumerate``: ``cpv.search``, with ``cpv.privacy`` to
  check a protocol found and ``cpv.counts`` for a family without elicit.
- ``builtin``: ``cpv.mechanisms``; ``run``: ``cpv.run``.
- ``--emit``, ``run`` and ``--pretty``: the writer, ``cpv.jsonwriter``.

Reports, failures included, are formatted in those modules, so a ``check``
or ``synth`` without ``--emit`` imports no writer, and ``fractions`` is
imported only for a model that holds values other than integers.
``tests/test_imports.py`` pins these module sets and, per command of the
benchmark's workloads, the AST nodes of ``cpv`` it compiles.  ``load`` is
the reader's, imported by name: ``validate`` calls it through this module's
namespace.

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
usage lines built from the table, and exits 0.  There is no ``argparse``:
every command starts a fresh interpreter, and importing it, with the
``gettext`` it pulls in, and building its parsers cost about 5 ms of the
28 ms that ``cpv`` adds to a bare interpreter start (two-core x86-64 VM,
medians of 40 runs, CPU per child, no bytecode cache for ``cpv``).
"""

from __future__ import annotations

import json
import sys
import time
from types import SimpleNamespace

from cpv.core import SCHEMA, InputError, ResourceError
from cpv.reader import _SPENT, load

# ---------------------------------------------------------------------------
# reports


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
        if defects := _cpv("protocol").validate_protocol(loaded.protocol):
            raise InputError("; ".join(defects))
        doc["protocol"] = "ok"
        doc["notes"] = list(loaded.protocol.notes)
    return 0, doc


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


# The properties ``check`` decides, in the order of its help: the keys of
# ``cpv.check._PROPERTIES``, which only ``check`` imports.
_PROPERTY_NAMES = (
    "cp", "gcp", "icp", "tatonnement", "corners", "nonbossy", "efficient", "ir", "stable", "sp",
    "osp",
)

_COMMANDS = {  # the module docstring states its shape
    "validate": (
        _cmd_validate, "load files and check structural invariants", ("instance", "protocol?"),
        {},
    ),
    "check": (
        lambda args: _cpv("check").check_command(args), "check a property of a rule or protocol",
        ("instance", "protocol?"), {"property": (None, _PROPERTY_NAMES)},
    ),
    "synth": (
        lambda args: _cpv("search").synth_command(args),
        "synthesize a private protocol or a witness\n--emit: write the protocol here",
        ("instance",), {"emit?": (None, None)},
    ),
    "run": (
        lambda args: _cpv("run").run_command(args),
        "walk a protocol on one profile\n--profile: comma-separated type labels, a label that "
        "is not a string as JSON,\ne.g. 1 or null; or a JSON array of the labels, "
        "e.g. '[\"a,b\", \" c\"]'",
        ("instance", "protocol?"), {"profile": (None, None)},
    ),
    "enumerate": (
        lambda args: _cpv("search").enumerate_command(args),
        "decide implementability over a query family\n"
        "--queries: elicit[,count][,multicount], elicit if not given\n"
        "--emit: write a found protocol here",
        ("instance",), {"queries?": ("elicit", None), "emit?": (None, None)},
    ),
    "builtin": (
        lambda args: _cpv("mechanisms").builtin_command(args),
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
