"""Indented JSON, for ``--emit`` files and ``--pretty`` reports.

``cpv.cli`` imports this module only when it writes one, so a command that
only reads and checks compiles none of it at start-up.
"""

from __future__ import annotations

from json.encoder import INFINITY, encode_basestring_ascii


class _Strings(dict):
    """str -> its JSON text, each encoded once; a key that is no str raises TypeError."""

    def __missing__(self, s):
        text = self[s] = encode_basestring_ascii(s)
        return text


def write_json(doc, fh) -> None:
    """Writes ``doc`` and a line break to ``fh``, the bytes of
    ``json.dump(doc, fh, indent=2, sort_keys=True)`` and ``fh.write("\\n")``.

    With ``indent`` set, ``json`` always runs its pure-Python encoder.  Here
    each distinct string is escaped once by the C encoder, an array of
    scalars or an object of those is written in one join, and only deeper
    containers are walked entry by entry, on an explicit stack.  Object keys
    must be strings.  The output goes to ``fh`` in chunks, so no copy of the
    whole document is held.
    """
    strings = _Strings()  # str keys alone, for True == 1 == 1.0 with equal hashes
    parts: list = []
    pads = ["\n"]  # pads[d]: a line break and the indent of depth d
    containers = (dict, list, tuple)

    def scalar(v) -> str:
        if isinstance(v, str):
            return strings[v]
        if v is None or v is True or v is False:
            return "null" if v is None else "true" if v else "false"
        if isinstance(v, int):
            return int.__repr__(v)
        if isinstance(v, float):
            if v != v:
                return "NaN"
            if v in (INFINITY, -INFINITY):
                return "Infinity" if v > 0 else "-Infinity"
            return float.__repr__(v)
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")

    def text(v, depth: int):
        """The text of a scalar, of an array of scalars, or of an object whose
        values are those, at ``depth``; None for any other container."""
        if type(v) is str:
            return strings[v]
        if not isinstance(v, containers):
            return scalar(v)
        if not v:
            return "{}" if isinstance(v, dict) else "[]"
        if len(pads) == depth + 1:
            pads.append(pads[depth] + "  ")
        sep = "," + pads[depth + 1]
        if isinstance(v, dict):
            entries = []
            for k, x in sorted(v.items()):
                x = None if isinstance(x, dict) else text(x, depth + 1)
                if x is None:
                    return None
                entries.append(strings[k] + ": " + x)
            return "{" + pads[depth + 1] + sep.join(entries) + pads[depth] + "}"
        try:
            body = sep.join(map(strings.__getitem__, v))
        except TypeError:  # an entry that is no string
            if any(isinstance(x, containers) for x in v):
                return None
            body = sep.join(map(scalar, v))
        return "[" + pads[depth + 1] + body + pads[depth] + "]"

    stack: list = []  # per open container: its (head, entry) pairs, their depth, its close

    def open_(v, depth: int) -> None:
        """Opens a container that ``text`` leaves alone.  The head of an entry
        is the separator before it, the first one's the opening bracket, and
        its key."""
        sep = "," + pads[depth + 1]
        if isinstance(v, dict):
            items = sorted(v.items())
            heads, bracket = [sep + strings[k] + ": " for k, _ in items], "{"
            v = [x for _, x in items]
        else:
            heads, bracket = [sep] * len(v), "["
        heads[0] = bracket + heads[0][1:]
        stack.append((zip(heads, v), depth + 1, pads[depth] + ("}" if bracket == "{" else "]")))

    t = text(doc, 0)
    if t is None:
        open_(doc, 0)
    else:
        parts.append(t)
    while stack:  # an explicit stack, so that no depth exhausts Python's
        entries, depth, closing = stack[-1]
        for head, x in entries:
            parts.append(head)
            t = text(x, depth)
            if t is None:
                open_(x, depth)
                break
            parts.append(t)
            if len(parts) > 1024:
                fh.write("".join(parts))
                parts.clear()
        else:
            stack.pop()
            parts.append(closing)
    parts.append("\n")
    fh.write("".join(parts))
