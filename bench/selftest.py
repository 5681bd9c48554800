"""Self-test of the benchmark's tracer and manifest.

    python3 bench/selftest.py

Checks that a traced CLI run writes the same report bytes as an untraced
one, that every traced layer function produces spans, that a function a
refactor removed gives null metrics instead of a crash, and that
BENCHMARK.json is what workloads.py renders.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import sys

import run
import spans
from workloads import manifest

TINY = (
    ["scan", "--primes", "3..13", "--workers", "1"],
    ["lemmas", "--primes", "3..13", "--format", "csv", "--workers", "1"],
)


def traced_matches_untraced(failures: list) -> set:
    """Run each tiny request with and without tracing; return the span names seen."""
    seen = set()
    for index, argv in enumerate(TINY):
        plain = os.path.join(run.OUT, f"selftest{index}.report")
        traced = os.path.join(run.OUT, f"selftest{index}.traced.report")
        spans_path = os.path.join(run.OUT, f"selftest{index}.spans.json")
        stderr = os.path.join(run.OUT, "selftest.stderr")
        commands = (
            [sys.executable, "-m", "congrlab", *argv, "-o", plain],
            [sys.executable, os.path.join(run.BENCH, "spans.py"), spans_path, *argv, "-o", traced],
        )
        for cmd in commands:
            result = run.spawn(cmd, stderr)
            if result.status != 0:
                failures.append(f"{' '.join(cmd)}: exit status {result.status}")
                return seen
        with open(plain, "rb") as a, open(traced, "rb") as b:
            if a.read() != b.read():
                failures.append(f"{' '.join(argv)}: traced report differs from untraced")
        with open(spans_path) as handle:
            stats = spans.span_stats(json.load(handle))
        seen.update(name for name, entry in stats.items() if entry["calls"])
    return seen


def absent_function_is_null(failures: list) -> None:
    targets = {**spans.TARGETS, "congruences.no_such_function": None}
    tracer = spans.Tracer(targets)
    tracer.install()
    if "congruences.no_such_function" in tracer.present:
        failures.append("a missing function was reported present")
    metrics = {
        "gone_s": ("congruences.no_such_function", "s"),
        "gone_calls": ("congruences.no_such_function", "calls"),
        "judge_calls": ("verdicts.judge", "calls"),
    }
    stats = spans.span_stats(tracer.payload())
    values = spans.layer_metrics(stats, tracer.present, metrics)
    if values != {"gone_s": None, "gone_calls": None, "judge_calls": 0}:
        failures.append(f"absent-function metrics came out as {values}")


def manifest_is_current(failures: list) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        if json.load(handle) != manifest():
            failures.append("BENCHMARK.json differs from workloads.manifest()")


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    failures = []
    seen = traced_matches_untraced(failures)
    missing = sorted(set(spans.TARGETS) - seen)
    if missing:
        failures.append(f"no spans for {', '.join(missing)}")
    sys.path.insert(0, run.SRC)
    absent_function_is_null(failures)
    manifest_is_current(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "failed" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
