"""Per-layer spans recorded around the public entry points of ``cpv``.

The wrappers live in the benchmark, not in the program: :func:`install`
replaces each listed function in every ``cpv`` module namespace that holds
it (and each listed method on its class), and :func:`uninstall` puts the
originals back.  Hot leaf calls such as ``TypeSpace.index`` or ``cell_of``
are deliberately not wrapped, because a span per call would cost more than
the call.  A span records its name, start, end, parent and the command
(request) that caused it; a layer's self time is its spans' durations minus
the time covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# (module, attribute or Class.method, span key).  The key's first part is the
# layer; functions sharing a key are summed without double counting nesting.
TARGETS = (
    ("cpv.cli", "load", "cli.load"),
    ("cpv.cli", "instance_to_json", "cli.emit"),
    ("cpv.cli", "protocol_to_json", "cli.emit"),
    ("cpv.cli", "_emit", "cli.emit"),
    ("cpv.core", "ChoiceRule.__init__", "core.rule_init"),
    ("cpv.core", "ProfileSet.from_factors", "core.factor"),
    ("cpv.core", "ProfileSet.projection", "core.factor"),
    ("cpv.core", "product_factorization", "core.factor"),
    ("cpv.protocol", "build_protocol", "protocol.build"),
    ("cpv.protocol", "build_from_spec", "protocol.build"),
    ("cpv.protocol", "query_cell_masks", "protocol.cell_masks"),
    ("cpv.protocol", "Protocol.leaf_map", "protocol.leaf_map"),
    ("cpv.protocol", "implements", "protocol.implements"),
    ("cpv.protocol", "validate_protocol", "protocol.validate"),
    ("cpv.privacy", "check_protocol_cp", "privacy.cp_scan"),
    ("cpv.privacy", "check_protocol_icp", "privacy.cp_scan"),
    ("cpv.privacy", "check_protocol_gcp", "privacy.gcp"),
    ("cpv.privacy", "corners_scan", "privacy.corners"),
    ("cpv.privacy", "inseparability_classes", "privacy.inseparability"),
    ("cpv.privacy", "synthesize_or_witness", "privacy.synth"),
    ("cpv.privacy", "witness_minimize", "privacy.minimize"),
    ("cpv.privacy", "witness_verify", "privacy.witness_verify"),
    ("cpv.tatonnement", "check_tatonnement", "tatonnement.check"),
    ("cpv.tatonnement", "phase_discovery", "tatonnement.phase_discovery"),
    ("cpv.tatonnement", "outcome_reach", "tatonnement.reach"),
    ("cpv.search", "exhaustive_cp_search", "search.cp_search"),
    ("cpv.mechanisms", "check_rule_property", "mechanisms.property"),
)
BUILTIN_TABLES = ("BUILTIN_RULES", "BUILTIN_PROTOCOLS")
LAYERS = ("cli", "core", "protocol", "privacy", "tatonnement", "search", "mechanisms")

# Per-layer metrics: (name, unit, better).  Every traced run reports all of
# them; a layer a workload never enters reads 0.
TIMED_KEYS = (
    "cli.load", "cli.emit", "core.rule_init", "core.factor", "protocol.build",
    "protocol.cell_masks", "protocol.leaf_map", "protocol.implements",
    "protocol.validate", "privacy.cp_scan", "privacy.gcp", "privacy.corners",
    "privacy.inseparability", "privacy.synth", "privacy.minimize",
    "tatonnement.check", "tatonnement.phase_discovery", "tatonnement.reach",
    "search.cp_search", "mechanisms.builtin", "mechanisms.property",
)
METRICS = (
    [("cli.startup_s", "s", "lower")]
    + [(f"{k}_s", "s", "lower") for k in TIMED_KEYS]
    + [
        ("cli.load_errors", "count", "lower"),
        ("cli.bytes_read", "B", "lower"),
        ("protocol.nodes_built", "count", "lower"),
        ("protocol.cell_masks_calls", "count", "lower"),
        ("privacy.corners_profiles_per_s", "1/s", "higher"),
        ("privacy.inseparability_calls", "count", "lower"),
        ("privacy.witness_verify_calls", "count", "lower"),
        ("privacy.witness_accept_ratio", "ratio", "higher"),
        ("search.states", "count", "lower"),
        ("search.states_per_s", "1/s", "higher"),
    ]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [("trace.overhead_pct", "%", "lower")]
)


class Tracer:
    """Spans kept in memory; aggregates are rebuilt by :meth:`summary`."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, request, key, start, end)
        self.counts: dict[str, float] = {}
        self.request = 0
        self._next_id = 0
        self._stack: list[list] = []  # [id, key, start, child_time]

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, key: str, fn, args=(), kwargs=None, after=None, on_error=None):
        frame = [self._next_id, key, 0.0, 0.0]
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException as exc:
            self._close(frame, parent)
            if on_error is not None:
                on_error(self, exc)
            raise
        self._close(frame, parent)
        if after is not None:
            after(self, args, result)
        return result

    def _close(self, frame, parent) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[2]
        nested = any(f[1] == frame[1] for f in self._stack)
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((frame[0], parent, self.request, frame[1], frame[2], end))
        layer = frame[1].split(".")[0]
        self.count(f"{layer}.self_s", dur - frame[3])
        self.count(f"{frame[1]}.self", dur - frame[3])
        self.count(f"{frame[1]}.calls")
        if not nested:
            self.count(f"{frame[1]}_s", dur)

    def summary(self) -> dict[str, float]:
        """Per-layer metric values for the spans recorded since :meth:`reset`."""
        c = self.counts
        out = {name: 0.0 for name, _, _ in METRICS}
        for key in TIMED_KEYS:
            out[f"{key}_s"] = c.get(f"{key}_s", 0.0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = c.get(f"{layer}.self_s", 0.0)
        out["cli.load_errors"] = c.get("cli.load_errors", 0)
        out["cli.bytes_read"] = c.get("cli.bytes_read", 0)
        out["protocol.nodes_built"] = c.get("protocol.nodes_built", 0)
        out["protocol.cell_masks_calls"] = c.get("protocol.cell_masks.calls", 0)
        out["privacy.inseparability_calls"] = c.get("privacy.inseparability.calls", 0)
        verify_calls = c.get("privacy.witness_verify.calls", 0)
        out["privacy.witness_verify_calls"] = verify_calls
        # every minimize call first verifies its input; later passes are shrinks
        accepted = c.get("privacy.witness_verify.true", 0) - c.get("privacy.minimize.calls", 0)
        out["privacy.witness_accept_ratio"] = accepted / verify_calls if verify_calls else 0.0
        out["search.states"] = c.get("search.states", 0)
        if out["search.cp_search_s"]:
            out["search.states_per_s"] = out["search.states"] / out["search.cp_search_s"]
        if out["privacy.corners_s"]:
            out["privacy.corners_profiles_per_s"] = (
                c.get("privacy.corners_profiles", 0) / out["privacy.corners_s"]
            )
        return out

    def table(self) -> list[tuple[str, int, float, float]]:
        """(span key, calls, inclusive seconds, self seconds), by key."""
        keys = sorted({k[: -len(".calls")] for k in self.counts if k.endswith(".calls")})
        return [
            (k, int(self.counts[f"{k}.calls"]), self.counts.get(f"{k}_s", 0.0),
             self.counts.get(f"{k}.self", 0.0))
            for k in keys
        ]


# --- counters taken at span boundaries ----------------------------------------


def _count_load(tracer: Tracer, args, _result) -> None:
    for path in args[:2]:
        if path is not None:
            tracer.count("cli.bytes_read", os.path.getsize(path))


def _count_load_error(tracer: Tracer, exc: BaseException) -> None:
    if type(exc).__name__ == "LoadError":
        tracer.count("cli.load_errors")


def _count_nodes(tracer: Tracer, _args, protocol) -> None:
    tracer.count("protocol.nodes_built", len(protocol.nodes))


def _count_corners(tracer: Tracer, args, result) -> None:
    rule = args[0]
    region = args[1] if len(args) > 1 else None
    universe = region.mask if region is not None else (1 << rule.space.total) - 1
    if not result.ok:
        # the scan runs in profile-index order and stops at the violation
        k = rule.space.index(result.violation.rest)
        universe &= (1 << (k + 1)) - 1
    tracer.count("privacy.corners_profiles", universe.bit_count())


def _count_verify(tracer: Tracer, _args, ok) -> None:
    if ok:
        tracer.count("privacy.witness_verify.true")


def _count_states(tracer: Tracer, _args, result) -> None:
    tracer.count("search.states", result.states)


AFTER = {
    "load": _count_load,
    "build_protocol": _count_nodes,
    "corners_scan": _count_corners,
    "witness_verify": _count_verify,
    "exhaustive_cp_search": _count_states,
}
ON_ERROR = {"load": _count_load_error}


def _wrap(tracer: Tracer, fn, key: str, after=None, on_error=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.span(key, fn, args, kwargs, after, on_error)

    return wrapper


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target; returns the undo list for :func:`uninstall`."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "cpv" or n.startswith("cpv.")]
    undo: list[tuple] = []
    for module_name, attr, key in TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(tracer, raw.__func__, key))
            else:
                wrapped = _wrap(tracer, raw, key, AFTER.get(meth), ON_ERROR.get(meth))
            undo.append((cls, meth, raw))
            setattr(cls, meth, wrapped)
            continue
        original = getattr(owner, attr)
        wrapped = _wrap(tracer, original, key, AFTER.get(attr), ON_ERROR.get(attr))
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, name, original))
                    setattr(module, name, wrapped)
    mechanisms = importlib.import_module("cpv.mechanisms")
    for table_name in BUILTIN_TABLES:
        table = getattr(mechanisms, table_name)
        for name, ctor in list(table.items()):
            undo.append((table, name, ctor))
            table[name] = _wrap(tracer, ctor, "mechanisms.builtin")
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, name, original in reversed(undo):
        if isinstance(owner, dict):
            owner[name] = original
        else:
            setattr(owner, name, original)

