"""The three workloads: fixed lists of ``cpv`` commands with expected verdicts.

Each :class:`Cmd` carries a hand-written expected exit code and report
fields, taken from the paper's results (acceptance criteria c04, c05, c06,
c10, c12 and c14), and an optional oracle check that re-verifies the
reported artifact with :mod:`oracle`.

Sizes were chosen so that one pass of a workload takes a few seconds on a
two-core machine, which leaves room for two or more passes in a run:

* ``clock_verify`` judges given clock protocols: descending first price
  with n=3, m=20 (8 000 profiles) and the count clock for the (k+1)-th
  price with k=2, n=4, m=8 (4 096 profiles).  Every command reloads a
  multi-MB bundle and rebuilds its tree, so ``cli`` load, ``protocol``
  rebuild and cell masks, the ``privacy`` scans and ``tatonnement`` reach do
  the work.  The multi-count stable matching and count double auction
  bundles cannot be reloaded today (identical components under distinct
  outcome ids); their commands stay in as named known failures.
* ``rule_certify`` decides implementability from rule tables alone:
  corners as a full scan (first price, n=3, m=16) and as an early exit
  (second price, uniform price), greedy synthesis with an emitted protocol
  checked again by ``check cp`` (first price, m=20), and witness
  minimization (second price, m=20; uniform price n=4, k=2, m=6).
* ``random_search`` runs exhaustive search on seeded random two-agent
  rules from :mod:`gen` (25 to 64 profiles), then synthesis as a
  cross-check; many short commands also expose interpreter start-up.

``HOLDOUT_SEED`` is never used while the benchmark or a change is being
built; re-run a claimed gain on it before accepting the claim.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import gen
import oracle

WORKLOADS = ("clock_verify", "rule_certify", "random_search")
HOLDOUT_SEED = 90917

KNOWN_BUNDLE_DEFECT = "carry identical components but distinct ids"


@dataclass
class Cmd:
    """One ``python -m cpv.cli`` invocation and what it must print."""

    name: str
    argv: list[str]
    kind: str  # setup | check | synth | enumerate
    exit: tuple[int, ...] = (0,)
    report: dict = field(default_factory=dict)
    # oracle re-verification: (report, earlier reports by name) -> None
    verify: Optional[Callable[[dict, dict], None]] = None
    known: Optional[str] = None  # error text of a tolerated known defect


@dataclass
class Plan:
    setup: list[Cmd]
    verdicts: list[Cmd]


class Oracle:
    """Brute-force checks, cached by input file contents within one run."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self._done: dict = {}

    def _key(self, *paths) -> tuple:
        stamp = []
        for p in paths:
            if p is not None:
                with open(os.path.join(self.workdir, p), "rb") as fh:
                    stamp.append(hashlib.sha256(fh.read()).hexdigest())
        return tuple(paths) + tuple(stamp)

    def _once(self, key, check) -> None:
        if key not in self._done:
            try:
                check()
            except oracle.OracleError as exc:
                self._done[key] = exc
            else:
                self._done[key] = None
        if self._done[key] is not None:
            raise self._done[key]

    def _instance(self, path: str) -> oracle.Instance:
        return oracle.Instance.load(os.path.join(self.workdir, path))

    def _tree(self, inst, protocol: Optional[str]) -> oracle.Tree:
        return oracle.load_tree(inst, None if protocol is None else os.path.join(self.workdir, protocol))

    def protocol(self, instance: str, protocol: Optional[str] = None, prop: str = "cp"):
        """Verifier: the (bundled or emitted) protocol has property ``prop``."""

        def check():
            inst = self._instance(instance)
            oracle.verify_protocol(inst, self._tree(inst, protocol), prop)

        return lambda doc, _reports: self._once(self._key(instance, protocol) + (prop,), check)

    def violation(self, instance: str, protocol: Optional[str] = None):
        def verify(doc, _reports):
            inst = self._instance(instance)
            oracle.verify_violation(inst, self._tree(inst, protocol), doc["violation"])

        return verify

    def corners(self, instance: str):
        return lambda doc, _reports: oracle.verify_corners(
            self._instance(instance), doc["violation"]
        )

    def synth(self, instance: str, emitted: Optional[str] = None, agree_with: Optional[str] = None,
              family: str = "elicit"):
        """Verifier for a ``synth`` report: witness and minimized witness, or
        the emitted protocol; and agreement with an ``enumerate`` report."""

        def verify(doc, reports):
            if doc["result"] == "witness":
                inst = self._instance(instance)
                oracle.verify_witness(inst, doc["witness"]["factors"])
                oracle.verify_witness(inst, doc["minimized"]["factors"])
                inside = all(set(m) <= set(w) for m, w in zip(
                    doc["minimized"]["factors"], doc["witness"]["factors"]))
                if not inside:
                    raise oracle.OracleError("minimized witness is not inside the witness")
            elif emitted is not None:
                self.protocol(instance, emitted)(doc, reports)
            if agree_with is None:
                return
            found = reports[agree_with]["status"] == "found"
            if family == "elicit" and found != (doc["result"] == "protocol"):
                raise oracle.OracleError("enumerate and synth disagree on the elicit family")
            if family != "elicit" and not found and doc["result"] == "protocol":
                raise oracle.OracleError(
                    "count-family search proved nonexistence, yet synthesis found an elicit protocol")

        return verify


def _values(m: int) -> list[int]:
    return list(range(1, m + 1))


def _builtin(name: str, out: str, params: Optional[dict], report: dict) -> Cmd:
    argv = ["builtin", name, "--emit", out]
    if params is not None:
        argv[2:2] = ["--params", json.dumps(params, separators=(",", ":"))]
    return Cmd(f"builtin:{out}", argv, "setup", report={"emitted": out, **report})


def _check(prop: str, files: list[str], code: int = 0, verify=None, known=None) -> Cmd:
    report = {"holds": code == 0} if prop != "validate" else {"protocol": "ok"}
    argv = ["validate", *files] if prop == "validate" else ["check", "--property", prop, *files]
    return Cmd(f"{prop}:{'+'.join(files)}", argv, "check", (code,), report, verify, known)


def clock_verify(workdir: str, seed: int, smoke: bool) -> Plan:
    del seed  # the inputs are the paper's built-in clock protocols
    m_dfp, m_cap, m_aes = (4, 3, 3) if smoke else (20, 8, 10)
    o = Oracle(workdir)
    setup = [
        _builtin("descending_first_price", "dfp.json", {"n": 3, "values": _values(m_dfp)},
                 {"kind": "protocol", "profiles": m_dfp ** 3}),
        _builtin("count_ascending_kplus1_price", "cap.json",
                 {"k": 2, "n": 4, "values": _values(m_cap)}, {"kind": "protocol", "profiles": m_cap ** 4}),
        _builtin("ascending_elicitation_sp", "aes.json", {"n": 3, "values": _values(m_aes)},
                 {"kind": "protocol", "profiles": m_aes ** 3}),
        _builtin("multicount_stable_matching", "msm.json", None, {"kind": "protocol"}),
        _builtin("double_auction_count", "dac.json", {"n": 4, "values": [1, 2, 3]}, {"kind": "protocol"}),
    ]
    known = KNOWN_BUNDLE_DEFECT
    verdicts = [
        # c04: the descending clock implements first price with CP and ICP
        _check("validate", ["dfp.json"]),
        _check("cp", ["dfp.json"], verify=o.protocol("dfp.json")),
        _check("icp", ["dfp.json"], verify=o.protocol("dfp.json", prop="icp")),
        _check("gcp", ["dfp.json"], verify=o.protocol("dfp.json", prop="gcp")),
        _check("tatonnement", ["dfp.json"]),
        # c10: the count clock is private and a tatonnement
        _check("cp", ["cap.json"], verify=o.protocol("cap.json")),
        _check("gcp", ["cap.json"], verify=o.protocol("cap.json", prop="gcp")),
        _check("tatonnement", ["cap.json"]),
        _check("efficient", ["cap.json"]),
        # c05: no protocol is private for second price; the ascending one leaks
        _check("cp", ["aes.json"], 1, verify=o.violation("aes.json")),
        # c12: the multi-count cutoff search is private, a tatonnement, stable
        _check("validate", ["msm.json"], known=known),
        _check("cp", ["msm.json"], known=known),
        _check("gcp", ["msm.json"], known=known),
        _check("tatonnement", ["msm.json"], known=known),
        _check("stable", ["msm.json"], known=known),
        # c10: the count double auction is a valid bundle
        _check("validate", ["dac.json"], known=known),
    ]
    return Plan(setup, verdicts)


def rule_certify(workdir: str, seed: int, smoke: bool) -> Plan:
    del seed  # the inputs are the paper's built-in auction rules
    m_full, m_fp, m_sp, m_up = (4, 4, 4, 3) if smoke else (16, 20, 20, 6)
    o = Oracle(workdir)
    setup = [
        _builtin("first_price", "fp_full.json", {"n": 3, "values": _values(m_full)},
                 {"kind": "rule", "profiles": m_full ** 3}),
        _builtin("first_price", "fp.json", {"n": 3, "values": _values(m_fp)},
                 {"kind": "rule", "profiles": m_fp ** 3}),
        _builtin("second_price", "sp.json", {"n": 3, "values": _values(m_sp)},
                 {"kind": "rule", "profiles": m_sp ** 3}),
        _builtin("uniform_price", "up.json", {"n": 4, "k": 2, "values": _values(m_up)},
                 {"kind": "rule", "profiles": m_up ** 4}),
    ]
    verdicts = [
        # c04: first price is privately implementable, so corners holds throughout
        _check("corners", ["fp_full.json"]),
        Cmd("synth:fp.json", ["synth", "--emit", "fp_protocol.json", "fp.json"], "synth",
            report={"result": "protocol", "emitted": "fp_protocol.json"},
            verify=o.synth("fp.json", emitted="fp_protocol.json")),
        _check("cp", ["fp.json", "fp_protocol.json"], verify=o.protocol("fp.json", "fp_protocol.json")),
        # c05: second price fails corners at its first square and has a witness
        _check("corners", ["sp.json"], 1, verify=o.corners("sp.json")),
        Cmd("synth:sp.json", ["synth", "sp.json"], "synth", (1,), {"result": "witness"},
            o.synth("sp.json")),
        # c06: uniform price with n = k+2 has a witness
        _check("corners", ["up.json"], 1, verify=o.corners("up.json")),
        Cmd("synth:up.json", ["synth", "up.json"], "synth", (1,), {"result": "witness"},
            o.synth("up.json")),
    ]
    return Plan(setup, verdicts)


def random_search(workdir: str, seed: int, smoke: bool) -> Plan:
    """Writes the seed's rules into ``workdir``; the program sees only files."""
    rules = gen.generate(seed)
    if smoke:
        rules = [r for r in rules if r[0].startswith(("r00", "r04", "r07", "c01"))]
    o = Oracle(workdir)
    setup, verdicts = [], []
    for name, doc, meta in rules:
        path, emitted = f"{name}.json", f"{name}_protocol.json"
        with open(os.path.join(workdir, path), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        setup.append(Cmd(f"validate:{path}", ["validate", path], "setup", report={"instance": "ok"}))
        family, kind = meta["family"], meta["kind"]
        # c14 by construction: tree rules have a private elicitation
        # protocol and planted-corners rules have none.  Uniform rules, and
        # planted rules searched with counts, are decided by cross-checks.
        by_kind = {"tree": ((0,), {"status": "found"}), "planted": ((1,), {"status": "nonexistent"})}
        code, report = by_kind.get(kind if family == "elicit" or kind == "tree" else "", ((0, 1), {}))
        verdicts.append(Cmd(
            f"enumerate:{path}", ["enumerate", "--queries", family, "--emit", emitted, path],
            "enumerate", code, {"queries": family, **report},
            lambda doc, reports, path=path, emitted=emitted: (
                o.protocol(path, emitted)(doc, reports) if doc["status"] == "found" else None),
        ))
        verdicts.append(Cmd(
            f"synth:{path}", ["synth", "--emit", f"{name}_synth.json", path], "synth",
            by_kind.get(kind, ((0, 1),))[0],
            verify=o.synth(path, f"{name}_synth.json", f"enumerate:{path}", family),
        ))
        if kind == "tree":
            verdicts.append(_check("cp", [path, emitted], verify=o.protocol(path, emitted)))
    return Plan(setup, verdicts)


PLANS = {"clock_verify": clock_verify, "rule_certify": rule_certify, "random_search": random_search}
