"""Benchmark for the ``cpv`` command line: three workloads, verdicts checked.

Run from the root of a checkout::

    python3 bench/run.py --workload clock_verify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 20      # every workload
    python3 bench/run.py --selftest                        # smoke + oracle tamper tests

A workload is a fixed list of commands run one at a time (a closed loop
with one client, no threads).  With ``--trace 0`` each command is a
``python -m cpv.cli`` subprocess timed from outside; wall time is taken
around the child and CPU time and peak RSS from its ``wait4`` usage.  The
program's own ``elapsed:`` line is never read.  Reported times are scaled
by a reference loop timed through the run (see ``measure_end_to_end``); the
unscaled figures are printed and recorded beside them.  With ``--trace 1``
the same commands run in this process through ``cpv.cli.main(argv)``,
alternating plain passes with passes traced by :mod:`spans`, which gives the
per-layer numbers and the tracing overhead.

Every command's exit code and report are checked against the expected
table in :mod:`workloads`, its artifacts are re-verified by :mod:`oracle`,
and its stdout must hash the same on every repetition within a run.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Known failures named in :mod:`workloads` are
tolerated but counted in ``error_rate`` and ``cli.load_errors``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5  # setup_s is the median of this many full set-ups
MIN_PASSES = 2  # so that every verdict's stdout is compared at least once
STARTUP_PROBES = 5
COMMAND_TIMEOUT = 60.0
# Reported times are scaled to a machine on which the reference loop takes
# REFERENCE_S, about its time on an idle two-core x86-64 VM with Python 3.11.
REFERENCE_LOOP = 200_000
REFERENCE_S = 0.01

# (name, unit) of the end-to-end metrics every workload reports.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("check_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Printed in the summary for the workloads that exercise them.
EXTRA = (("synth_s", "s"), ("enumerate_s", "s"), ("error_rate", "ratio"), ("reference_s", "s"))


def reference_time() -> float:
    """Fastest of two runs of a fixed pure-Python loop: how fast the machine
    runs Python code right now."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


class CommandTimeout(Exception):
    pass


@dataclass
class Sample:
    kind: str
    wall: float
    cpu: float = 0.0
    rss_kb: int = 0


@contextlib.contextmanager
def _deadline(seconds: float, on_expiry):
    previous = signal.signal(signal.SIGALRM, lambda *_: on_expiry())
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _raise_timeout():
    raise CommandTimeout(f"no result within {COMMAND_TIMEOUT:.0f} s")


class Context:
    """Runs commands of one workload in one work directory and judges them."""

    def __init__(self, root: str, workdir: str) -> None:
        self.workdir = workdir
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.env.pop("CPV_THREADS", None)
        self.reports: dict[str, dict] = {}
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.known = 0
        self.failures: list[str] = []
        self._launcher: subprocess.Popen | None = None

    # --- execution -----------------------------------------------------------

    def spawn(self, args: list[str]) -> tuple[int, bytes, str, Sample, bool]:
        """``python <args>`` through the launcher; see :mod:`launch`."""
        if self._launcher is None:
            self._launcher = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "launch.py")], env=self.env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        out_path = os.path.join(self.workdir, ".stdout")
        err_path = os.path.join(self.workdir, ".stderr")
        request = {"argv": [sys.executable, *args], "cwd": self.workdir, "out": out_path,
                   "err": err_path, "timeout": COMMAND_TIMEOUT}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = json.loads(self._launcher.stdout.readline())
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read().decode("utf-8", "replace")
        sample = Sample("", reply["wall"], reply["cpu"], reply["rss_kb"])
        return reply["code"], stdout, stderr, sample, reply["timed_out"]

    def close(self) -> None:
        if self._launcher is not None:
            self._launcher.stdin.close()
            self._launcher.wait()
            self._launcher.stdout.close()
            self._launcher = None

    def run(self, cmd: workloads.Cmd) -> Sample:
        """``python -m cpv.cli`` in a subprocess, timed from outside."""
        code, stdout, stderr, sample, timed_out = self.spawn(["-m", "cpv.cli", *cmd.argv])
        sample.kind = cmd.kind
        self.judge(cmd, code, stdout, stderr, timed_out)
        return sample

    def call(self, cmd: workloads.Cmd, main) -> Sample:
        """``main(argv)`` in this process, timed around the call alone."""
        out, err = io.StringIO(), io.StringIO()
        timed_out = False
        here = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    with _deadline(COMMAND_TIMEOUT, _raise_timeout):
                        code = main(cmd.argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                except CommandTimeout:
                    code, timed_out = -1, True
                except Exception:
                    traceback.print_exc()
                    code = -1
                wall = time.perf_counter() - start
        finally:
            os.chdir(here)
        self.judge(cmd, code, out.getvalue().encode(), err.getvalue(), timed_out)
        return Sample(cmd.kind, wall)

    # --- verdicts ------------------------------------------------------------

    def judge(self, cmd: workloads.Cmd, code: int, stdout: bytes, stderr: str, timed_out: bool) -> None:
        self.attempted += 1
        problem = self._problem(cmd, code, stdout, stderr, timed_out)
        if problem == "known":
            self.known += 1
        elif problem is not None:
            self.failures.append(f"{cmd.name}: {problem}")

    def _problem(self, cmd, code, stdout, stderr, timed_out):
        if timed_out:
            return "timed out"
        if "Traceback (most recent call last)" in stderr:
            return "traceback: " + stderr.strip().splitlines()[-1]
        digest = hashlib.sha256(stdout).hexdigest()
        if self.digests.setdefault(cmd.name, digest) != digest:
            return "stdout differs from an earlier run of the same command"
        try:
            doc = json.loads(stdout.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            return "stdout holds no JSON report"
        if cmd.known is not None and code == 2 and cmd.known in doc.get("error", ""):
            return "known"
        if code not in cmd.exit:
            return f"exit {code}, expected {' or '.join(map(str, cmd.exit))} {doc.get('error', '')}"
        for key, want in cmd.report.items():
            if doc.get(key) != want:
                return f"report {key}={doc.get(key)!r}, expected {want!r}"
        if cmd.verify is not None:
            try:
                cmd.verify(doc, self.reports)
            except oracle.OracleError as exc:
                return f"oracle: {exc}"
            except (KeyError, TypeError, IndexError) as exc:
                return f"report cannot be verified: {exc!r}"
        self.reports[cmd.name] = doc
        return None


# --- measurement ---------------------------------------------------------------


def _passes(run_pass, deadline: float, min_passes: int, reserve=lambda: 0.0) -> list:
    """Repeat ``run_pass`` while another pass, plus the ``reserve()`` seconds
    still owed after the passes, is predicted to end by ``deadline``."""
    out = []
    while True:
        begin = time.perf_counter()
        out.append(run_pass())
        last = time.perf_counter() - begin
        if len(out) >= min_passes and time.perf_counter() + last + reserve() > deadline:
            return out


def _totals(samples: list[Sample]) -> dict[str, float]:
    out = {
        "wall_s": sum(s.wall for s in samples),
        "cpu_s": sum(s.cpu for s in samples),
        "peak_rss_mb": max(s.rss_kb for s in samples) / 1024,
    }
    for kind in ("check", "synth", "enumerate"):
        if any(s.kind == kind for s in samples):
            out[f"{kind}_s"] = sum(s.wall for s in samples if s.kind == kind)
    return out


def _scaled(sample: Sample, factor: float) -> Sample:
    return Sample(sample.kind, sample.wall * factor, sample.cpu * factor, sample.rss_kb)


def measure_end_to_end(ctx: Context, plan: workloads.Plan, deadline: float):
    """Per-pass series of every metric, the figure reported for each, the
    same figures unscaled, and the raw timings for the run record.

    A reference loop is timed right after every command, and the command's
    times are scaled by ``REFERENCE_S`` over that timing.  A reported figure
    is the median of its series: per-pass totals of scaled commands, or for
    ``setup_s`` ``SETUP_REPS`` scaled set-ups spread between the passes and
    counted in the time budget.  The machine this was built on is shared
    and its speed for Python code drifted by 10-70% over minutes, often for
    whole runs, and by +-25% within a run; the commands slowed down with the
    reference loop, so the scaled figure compares versions of ``cpv`` rather
    than moments of the machine.  Scaling by one reference per pass or per
    run instead gave two to four times the run-to-run spread on some
    workloads.
    """
    ctx.spawn(["-c", "import cpv.cli"])  # writes bytecode caches before timing
    # each set-up or pass: (samples, scaled samples, reference timings)
    setups: list[tuple[list[Sample], list[Sample], list[float]]] = []
    passes: list[tuple[list[Sample], list[Sample], list[float]]] = []

    def timed(cmds):
        samples, scaled, references = [], [], []
        for cmd in cmds:
            samples.append(ctx.run(cmd))
            references.append(reference_time())
            scaled.append(_scaled(samples[-1], REFERENCE_S / references[-1]))
        return samples, scaled, references

    def set_up():
        setups.append(timed(plan.setup))

    def run_pass():
        passes.append(timed(plan.verdicts))
        if len(setups) < SETUP_REPS:
            set_up()

    def owed():
        return (SETUP_REPS - len(setups)) * statistics.median(
            sum(s.wall for s in samples) for samples, _, _ in setups)

    set_up()
    _passes(run_pass, deadline, MIN_PASSES, owed)
    while len(setups) < SETUP_REPS:
        set_up()
    raw_series: dict[str, list] = {}
    series: dict[str, list] = {}
    for samples, scaled, _ in setups:
        raw_series.setdefault("setup_s", []).append(sum(s.wall for s in samples))
        series.setdefault("setup_s", []).append(sum(s.wall for s in scaled))
    for samples, scaled, _ in passes:
        for name, value in _totals(samples).items():
            raw_series.setdefault(name, []).append(value)
        for name, value in _totals(scaled).items():
            series.setdefault(name, []).append(value)
    series["reference_s"] = raw_series["reference_s"] = [
        r for _, _, references in setups + passes for r in references]
    series["error_rate"] = raw_series["error_rate"] = [
        (len(ctx.failures) + ctx.known) / ctx.attempted]
    values = {name: statistics.median(v) for name, v in series.items()}
    raw = {name: statistics.median(v) for name, v in raw_series.items()}
    record = {
        kind: [{"wall": [s.wall for s in samples], "cpu": [s.cpu for s in samples],
                "references": references} for samples, _, references in groups]
        for kind, groups in (("setups", setups), ("passes", passes))
    }
    return series, values, raw, record


def measure_layers(ctx: Context, plan: workloads.Plan, deadline: float, root: str):
    probes = []
    for _ in range(STARTUP_PROBES):
        code, _, stderr, sample, _ = ctx.spawn(["-c", "import cpv.cli"])
        if code != 0:
            raise RuntimeError(f"cannot import cpv.cli: {stderr.strip()}")
        probes.append(sample.wall)
    sys.path.insert(0, os.path.join(root, "src"))
    from cpv import cli

    tracer = spans.Tracer()
    commands = plan.setup + plan.verdicts

    def traced_main(argv):
        return tracer.span("cli.main", cli.main, (argv,))

    def run_pair():
        plain = sum(ctx.call(c, cli.main).wall for c in commands)
        tracer.reset()
        undo = spans.install(tracer)
        try:
            walls = []
            for tracer.request, c in enumerate(commands):
                walls.append(ctx.call(c, traced_main).wall)
        finally:
            spans.uninstall(undo)
        return plain, sum(walls), tracer.summary(), tracer.table()

    pairs = _passes(run_pair, deadline, 1)
    overhead = 100 * (statistics.median(p[1] for p in pairs) / statistics.median(p[0] for p in pairs) - 1)
    series: dict[str, list] = {}
    for _, _, summary, _ in pairs:
        summary["cli.startup_s"] = statistics.median(probes)
        summary["trace.overhead_pct"] = overhead
        for name, value in summary.items():
            series.setdefault(name, []).append(value)
    values = {name: statistics.median(v) for name, v in series.items()}
    return series, values, pairs[-1][3], tracer.spans, overhead


# --- reporting -----------------------------------------------------------------


def _stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _environment(root: str) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "cpv")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpv_commit": commit,
        "cpv_source_sha256": digest.hexdigest(),
    }


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    start = time.perf_counter()
    base = os.path.join(root, ".bench_build", "cpv-bench")
    workdir = os.path.join(base, f"{workload}-seed{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ctx = Context(root, workdir)
    try:
        plan = workloads.PLANS[workload](workdir, seed, smoke)
        table, span_list, overhead, samples = [], [], None, None
        deadline = start + seconds
        if trace:
            series, values, table, span_list, overhead = measure_layers(ctx, plan, deadline, root)
            raw = values
            wanted = [(name, unit) for name, unit, _ in spans.METRICS]
        else:
            series, values, raw, samples = measure_end_to_end(ctx, plan, deadline)
            wanted = list(END_TO_END) + [m for m in EXTRA if m[0] in series]
    finally:
        ctx.close()
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "run_s": time.perf_counter() - start,
        "trace": int(trace),
        "environment": _environment(root),
        "attempted": ctx.attempted,
        "failed": len(ctx.failures),
        "known_failures": ctx.known,
        "failures": ctx.failures,
        "trace_overhead_pct": overhead,
        "metrics": {
            name: {"unit": unit, "value": values[name], "unscaled": raw[name], **_stats(series[name])}
            for name, unit in wanted
        },
        "spans_table": table,
        "samples": samples,
    }
    records = os.path.join(base, "records")
    os.makedirs(records, exist_ok=True)
    stem = os.path.join(records, f"{workload}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if span_list:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for span in span_list:
                fh.write(json.dumps(dict(zip(("id", "parent", "request", "name", "start", "end"), span))) + "\n")
    return result


def print_result(result: dict) -> None:
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"run_s={result['run_s']:.1f} attempted={result['attempted']} failed={result['failed']} "
          f"known_failures={result['known_failures']} {json.dumps(result['environment'])}")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    if result["trace"]:
        print("   value: median over traced passes; series: one figure per traced pass")
    else:
        print("   value: median of the series; series: per-pass totals and set-ups of commands each\n"
              "   scaled by the reference time taken after it; unscaled: the median before scaling")
    print(f"   {'metric':32s} {'value':>12s} {'unit':6s} {'unscaled':>12s}   series: median, q1, q3, n")
    for name, m in result["metrics"].items():
        print(f"   {name:32s} {m['value']:12.6g} {m['unit']:6s} {m['unscaled']:12.6g}   "
              f"{m['median']:.6g}  {m['q1']:.6g}  {m['q3']:.6g}  n={m['n']}")
    if result["spans_table"]:
        print(f"   {'span':32s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
        for key, calls, total, self_time in result["spans_table"]:
            print(f"   {key:32s} {calls:8d} {total:10.4f} {self_time:10.4f}")


def _line(results: list[dict], prefix: bool) -> dict:
    metrics = {}
    for r in results:
        for name, m in r["metrics"].items():
            if r["trace"] or name in dict(END_TO_END) or prefix:
                key = f"{r['workload']}/{name}" if prefix else name
                metrics[key] = {"value": m["value"], "unit": m["unit"]}
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }


# --- self-test -----------------------------------------------------------------


def selftest(root: str) -> int:
    """Each workload at its smallest size, then tampered reports that the
    expected table and the oracle must reject."""
    ok = True
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_workload(root, workload, 1, 1, trace, smoke=True)
            print_result(result)
            ok &= result["failed"] == 0
    workdir = os.path.join(root, ".bench_build", "cpv-bench", f"selftest-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        ok &= _tamper_checks(root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def _tamper_checks(root: str, workdir: str) -> bool:
    plan = workloads.rule_certify(workdir, 1, smoke=True)
    ctx = Context(root, workdir)
    try:
        for cmd in plan.setup + plan.verdicts:
            ctx.run(cmd)
    finally:
        ctx.close()
    if ctx.failures:
        print("tamper: untampered smoke run failed:", ctx.failures)
        return False
    by_name = {c.name: c for c in plan.verdicts}
    synth = ctx.reports["synth:sp.json"]
    corners = ctx.reports["corners:sp.json"]
    cases = []
    bad = json.loads(json.dumps(synth))
    bad["minimized"]["factors"] = [f[:1] for f in bad["minimized"]["factors"]]  # rule constant
    cases.append(("witness shrunk to one profile", "synth:sp.json", bad))
    bad = json.loads(json.dumps(synth))
    bad["witness"]["factors"][0] = bad["witness"]["factors"][0][-1:]
    bad["witness"]["factors"][1] = bad["witness"]["factors"][1][:1]
    cases.append(("witness cut to separable factors", "synth:sp.json", bad))
    bad = json.loads(json.dumps(corners))
    v = bad["violation"]
    v["shared"], v["fourth"] = v["fourth"], v["shared"]
    cases.append(("corners square with swapped outcomes", "corners:sp.json", bad))
    bad = dict(ctx.reports["cp:fp.json+fp_protocol.json"], holds=False)
    cases.append(("flipped cp verdict", "cp:fp.json+fp_protocol.json", bad))
    path = os.path.join(workdir, "fp_protocol.json")
    with open(path, encoding="utf-8") as fh:
        tree = json.load(fh)
    tree["tree"]["children"].reverse()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tree, fh)
    cases.append(("emitted protocol with swapped subtrees", "cp:fp.json+fp_protocol.json",
                  ctx.reports["cp:fp.json+fp_protocol.json"]))
    ok = True
    for label, name, doc in cases:
        cmd = by_name[name]
        ctx.digests.pop(name, None)
        before = len(ctx.failures)
        code = 0 if doc.get("holds", doc.get("result") == "protocol") else 1
        ctx.judge(cmd, code, json.dumps(doc).encode(), "", False)
        rejected = len(ctx.failures) > before
        print(f"tamper: {label}: {'rejected' if rejected else 'ACCEPTED'}"
              + (f" ({ctx.failures[-1]})" if rejected else ""))
        ok &= rejected
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cpv", "cli.py")):
        print("bench: run from the root of a cpv checkout (src/cpv/cli.py not found)", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest(root)
    if not args.all and args.workload is None:
        parser.error("give --workload, --all or --selftest")
    names = workloads.WORKLOADS if args.all else (args.workload,)
    results = []
    for name in names:
        results.append(run_workload(root, name, args.seed, args.seconds, bool(args.trace)))
        print_result(results[-1])
    line = _line(results, prefix=args.all)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
