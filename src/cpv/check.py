"""``cpv check``: one property of a rule, or of a protocol for it.

``_PROPERTIES`` holds per property: whether it needs a protocol; the module
``cpv.<name>`` that decides it, imported when the check runs; the check,
which takes that module, reads the loaded bundle and the report, may add to
the report and returns a ``core.Verdict``; the report key of a failure;
and the failure's JSON, from that module, the type space and the
violation, or None where the violation is its own JSON.  Its keys, in
order, are the choices of ``--property`` that ``cpv.cli`` lists.  Only
``check`` imports this module.
"""

from __future__ import annotations

from importlib import import_module

from cpv.core import InputError
from cpv.reader import load

_PROPERTIES = {  # the module docstring states its shape
    "cp": (
        True, "privacy", lambda m, b, doc: m.check_protocol_cp(b.protocol, b.instance.rule),
        "violation", lambda m, space, v: m.cp_to_json(space, v),
    ),
    "gcp": (
        True, "variants", lambda m, b, doc: m.check_protocol_gcp(b.protocol, b.instance.rule),
        "violation", lambda m, space, v: m.gcp_to_json(space, v),
    ),
    "icp": (
        True, "variants", lambda m, b, doc: m.check_protocol_icp(b.protocol, b.instance.rule),
        "violation", lambda m, space, v: m.cp_to_json(space, v),
    ),
    "tatonnement": (True, "tatonnement", lambda m, b, doc: m.check_bundle(b, doc), "failure", None),
    "corners": (
        False, "synthesis", lambda m, b, doc: m.corners_scan(b.instance.rule, b.instance.universe),
        "violation", lambda m, space, v: m.corners_to_json(space, v),
    ),
    "nonbossy": (
        False, "synthesis",
        lambda m, b, doc: m.check_nonbossy(b.instance.rule, b.instance.universe),
        "violation", lambda m, space, v: m.nonbossy_to_json(space, v),
    ),
    **dict.fromkeys(("efficient", "ir", "stable", "sp"), (
        False, "properties", lambda m, b, doc: m.check_rule_property(
            b.instance.rule, b.instance.model, doc["property"], b.instance.universe
        ),
        "counterexample", None,
    )),
    "osp": (
        True, "properties",
        lambda m, b, doc: m.check_protocol_osp(b.protocol, b.instance.rule, b.instance.model),
        "violation", lambda m, space, v: m.osp_to_json(space, v),
    ),
}


def check_command(args) -> tuple[int, dict]:
    """The report of ``cpv check`` and its exit code."""
    loaded = load(args.instance, args.protocol)
    prop = args.property
    needs_protocol, module, check, key, to_json = _PROPERTIES[prop]
    if needs_protocol and loaded.protocol is None:
        raise InputError(f"property {prop!r} needs a protocol file")
    doc: dict = {"command": "check", "property": prop}
    owner = import_module(f"cpv.{module}")
    verdict = check(owner, loaded, doc)
    doc["holds"] = verdict.ok
    if not verdict.ok:
        violation = verdict.violation
        doc[key] = to_json(owner, loaded.instance.space, violation) if to_json else violation
    return (0 if verdict.ok else 1), doc
