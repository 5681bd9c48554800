"""Benchmark of the congrlab CLI, one workload per invocation.

    python3 bench/run.py --workload catalog_sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all

Run from the root of a source checkout; the program is imported from
``src/`` and nothing is installed.  Each timed run is the real CLI in a
fresh process, started again and again for ``--seconds``; every run's
report is checked against the digest pinned in workloads.py.

--trace 0 reports the end-to-end metrics (medians over the runs): wall_s,
cpu_s and peak_rss_mb of the CLI process tree, read from wait4 on that one
child by bench/launch.py, and setup_s, the median time for a fresh process
to import congrlab.cli and parse the workload's arguments.

--trace 1 runs the same timed loop and then one traced run of the request
on one worker (bench/spans.py), and reports the per-layer metrics.

The last line of the output is one JSON object: correct, attempted, failed
and metrics.  ``--workload all`` runs every workload with both halves,
prints them, and rewrites BENCHMARK.json from workloads.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

import spans
from workloads import END_TO_END, RUN_SECONDS, WORKLOADS, layer_unit, manifest, per_layer_names

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

RUN_TIMEOUT_S = 60
SETUP_REPEATS = 7
SETUP_CODE = (
    "import sys\n"
    "from congrlab.cli import parse_config\n"
    "parse_config(sys.argv[1:], {})\n"
)


@dataclass
class Exit:
    status: int
    wall_s: Optional[float]  # None when the launcher left no result
    cpu_s: Optional[float]
    peak_rss_mb: Optional[float]
    timed_out: bool


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def child_env() -> dict:
    env = dict(os.environ)
    # cli._resolve_workers lets this override --workers without a word
    env.pop("CONGRLAB_WORKERS", None)
    env["PYTHONPATH"] = SRC
    return env


def spawn(cmd: list, stderr_path: str, timeout: float = RUN_TIMEOUT_S) -> Exit:
    """Run cmd through launch.py in a new process group; return what wait4 saw.

    wait4 on cmd gives its CPU and that of every descendant it reaped (the
    pool workers), and the peak RSS of the largest of them.  A command still
    running after `timeout` is killed with its whole process group.
    """
    result_path = os.path.join(OUT, "launch.result")
    if os.path.exists(result_path):
        os.remove(result_path)
    launcher = [sys.executable, "-S", os.path.join(BENCH, "launch.py"), result_path, *cmd]
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    timed_out = threading.Event()
    pid = os.posix_spawn(launcher[0], launcher, child_env(), file_actions=actions, setpgroup=0)

    def expire():
        timed_out.set()
        _kill_group(pid)

    timer = threading.Timer(timeout, expire)
    timer.start()
    try:
        _, status = os.waitpid(pid, 0)
    except BaseException:
        _kill_group(pid)
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
    try:
        with open(result_path) as handle:
            code, wall, cpu, rss = handle.read().split()
    except (OSError, ValueError):
        _kill_group(pid)
        launcher_code = os.waitstatus_to_exitcode(status)
        return Exit(launcher_code or -1, None, None, None, timed_out.is_set())
    if int(code) != 0:
        _kill_group(pid)  # pool workers a crashed CLI may have left behind
    return Exit(int(code), float(wall), float(cpu), int(rss) / 1024, timed_out.is_set())


def report_summary(data: bytes) -> dict:
    """pass/fail/skip counts and the anomaly count of a JSON or text report."""
    if data.startswith(b"{"):
        payload = json.loads(data)
        return {**payload["summary"], "anomalies": len(payload["anomalies"])}
    text = data.decode()
    found = re.search(r"^summary: pass=(\d+) fail=(\d+) skip=(\d+)$", text, re.M)
    if not found:
        return {}
    counts = dict(zip(("pass", "fail", "skip"), map(int, found.groups())))
    anomalies = text.rpartition("\nanomalies:")[2].strip()
    counts["anomalies"] = 0 if anomalies == "none" else len(anomalies.splitlines())
    return counts


def check_report(workload, path: str) -> Optional[str]:
    """None when the report matches the pinned digest and known answer."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        return f"no report: {exc}"
    digest = hashlib.sha256(data).hexdigest()
    if digest != workload.digest:
        return f"report sha256 {digest} != pinned {workload.digest}"
    if workload.summary is not None:
        summary = report_summary(data)
        if summary != workload.summary:
            return f"summary {summary} != known answer {workload.summary}"
    return None


@dataclass
class Measurement:
    runs: list = field(default_factory=list)  # Exit of each passing timed run
    setup: list = field(default_factory=list)
    attempted: int = 0  # every process started: probes, timed and traced runs
    errors: list = field(default_factory=list)
    layers: Optional[dict] = None
    span_stats: Optional[dict] = None

    def record(self, label: str, result: Exit, error: Optional[str]) -> bool:
        self.attempted += 1
        if error is None and result.timed_out:
            error = f"timed out after {RUN_TIMEOUT_S} s"
        elif error is None and result.status != 0:
            error = f"exit status {result.status}"
        if error is not None:
            self.errors.append(f"{label}: {error}")
        return error is None


def run_cli(workload, m: Measurement, cmd: list, label: str) -> Exit:
    report = os.path.join(OUT, f"{workload.name}.report")
    if os.path.exists(report):
        os.remove(report)
    result = spawn(cmd + ["-o", report], os.path.join(OUT, f"{workload.name}.stderr"))
    error = check_report(workload, report) if result.status == 0 else None
    if m.record(label, result, error) and label == "run":
        m.runs.append(result)
    return result


def measure(workload, seed: int, seconds: float, setup: bool, trace: bool) -> Measurement:
    os.makedirs(OUT, exist_ok=True)
    m = Measurement()
    argv = workload.argv_for(seed)
    probe = [sys.executable, "-c", SETUP_CODE, *argv]
    probe_err = os.path.join(OUT, f"{workload.name}.setup.stderr")
    # the first import writes the bytecode cache; later processes reuse it
    m.record("import", spawn(probe, probe_err), None)
    for _ in range(SETUP_REPEATS if setup else 0):
        result = spawn(probe, probe_err)
        if m.record("setup", result, None):
            m.setup.append(result.wall_s)

    start = time.perf_counter()
    while True:
        run_cli(workload, m, [sys.executable, "-m", "congrlab", *argv], "run")
        if time.perf_counter() - start >= seconds:
            break

    if trace:
        spans_path = os.path.join(OUT, f"{workload.name}.spans.json")
        cmd = [sys.executable, os.path.join(BENCH, "spans.py"), spans_path]
        result = run_cli(workload, m, cmd + workload.traced_argv_for(seed), "traced")
        if result.status == 0:
            with open(spans_path) as handle:
                payload = json.load(handle)
            m.span_stats = spans.span_stats(payload)
            m.layers = spans.layer_metrics(m.span_stats, payload["present"])
            m.layers["trace.spans"] = len(payload["spans"])
            walls = [r.wall_s for r in m.runs]
            m.layers["trace.overhead_s"] = (
                result.wall_s - statistics.median(walls) if walls else None
            )
    return m


def end_to_end(m: Measurement) -> dict:
    out = {}
    for name in ("wall_s", "cpu_s", "peak_rss_mb"):
        values = [getattr(r, name) for r in m.runs]
        out[name] = (statistics.median(values), len(values)) if values else (None, 0)
    out["setup_s"] = (statistics.median(m.setup), len(m.setup)) if m.setup else (None, 0)
    return out


def _fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def print_end_to_end(m: Measurement) -> None:
    medians = end_to_end(m)
    for name, (unit, bound) in END_TO_END.items():
        value, n = medians[name]
        print(f"  {name:<12} median {_fmt(value):>10} {unit:<3} n={n}  bound {bound:.0%}")
    print(f"  {'error_rate':<12} {len(m.errors)}/{m.attempted} failed")


def print_layers(m: Measurement) -> None:
    if m.layers is None:
        print("  traced run failed: no per-layer metrics")
        return
    for name in per_layer_names():
        print(f"  {name:<36} {_fmt(m.layers.get(name)):>12}")
    top = sorted(m.span_stats.items(), key=lambda kv: kv[1]["self_s"], reverse=True)[:3]
    print("  largest self time: " + ", ".join(f"{n} {st['self_s']:.3f} s" for n, st in top))


def result_line(m: Measurement, trace: bool) -> dict:
    if trace:
        values = m.layers or {}
        metrics = {
            name: {"value": values.get(name), "unit": layer_unit(name)}
            for name in per_layer_names()
        }
    else:
        medians = end_to_end(m)
        metrics = {
            name: {"value": medians[name][0], "unit": unit}
            for name, (unit, _) in END_TO_END.items()
        }
    return {
        "correct": not m.errors,
        "attempted": m.attempted,
        "failed": len(m.errors),
        "metrics": metrics,
    }


def environment() -> str:
    return (
        f"python {platform.python_version()}, "
        f"{len(os.sched_getaffinity(0))} usable cpus, {platform.machine()}"
    )


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through spawn, which kills the child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "congrlab", "cli.py")):
        print(f"bench: no congrlab sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        ok = True
        for workload in WORKLOADS.values():
            m = measure(workload, args.seed, args.seconds, setup=True, trace=True)
            print(f"{workload.name}: {' '.join(workload.argv_for(args.seed))}")
            print_end_to_end(m)
            print_layers(m)
            for error in m.errors:
                print(f"  FAILED {error}")
            ok = ok and not m.errors
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as handle:
            json.dump(manifest(), handle, indent=2)
            handle.write("\n")
        print(f"environment: {environment()}; wrote BENCHMARK.json")
        return 0 if ok else 1

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    m = measure(workload, args.seed, args.seconds, setup=not trace, trace=trace)
    print(f"{workload.name} seed={args.seed}: {' '.join(workload.argv_for(args.seed))}")
    print(f"environment: {environment()}")
    if trace:
        print_layers(m)
    else:
        print_end_to_end(m)
    for error in m.errors:
        print(f"FAILED {error}")
    print(json.dumps(result_line(m, trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
