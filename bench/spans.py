"""Span tracer for one congrlab CLI process, and the per-layer metrics made from it.

Run as a script, it wraps every function in TARGETS in each ``congrlab.*``
module namespace that binds it, runs the CLI on the remaining arguments and,
at exit, writes the recorded spans as JSON:

    PYTHONPATH=src python3 bench/spans.py SPANS.json scan --primes 3..13

The wrappers live here, outside the program, so the program is measured as
it is.  A traced run must use ``--workers 1``: spans are kept in the memory
of one process, and pool workers would take theirs with them.

Importing this module does not import congrlab; the benchmark process only
uses ``span_stats`` and ``layer_metrics`` to turn a spans file into numbers.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Span name ("layer.qualname") -> how to read a count off each call, or None.
# No target calls itself, so a span's time never counts twice under one name.
TARGETS = {
    "cli.parse_config": None,
    "scanner.odd_primes_between": lambda args, result: len(result),
    "scanner.sieve_primes": None,
    "scanner._run_tasks": lambda args, result: len(args[1]),
    "scanner.run_scan": lambda args, result: len(result.records),
    "scanner.emit_report": lambda args, result: len(result),
    "bernoulli.warm_bernoulli_cache": lambda args, result: args[0],
    "bernoulli.bernoulli_mod": None,
    "bernoulli.check_bernoulli_power_sums": None,
    "harmonic.inverse_table": None,
    "harmonic.harmonic_table": lambda args, result: len(result.h),
    "harmonic.power_sum_table": None,
    "harmonic.check_reflection_identity": None,
    "harmonic.check_harmonic_congruences": None,
    "harmonic.check_power_sum_congruences": None,
    "congruences.binom_alpha_mod": None,
    "congruences.verify_case": None,
    "congruences.PrimeContext.central_binomial": None,
    "congruences.thm1_rhs": None,
    "verdicts.judge": None,
    "residues.residue_of_rational": None,
    "residues.valuation_of_difference": None,
}

# Per-layer metric -> (span name, statistic).  Statistics: "s" is the summed
# duration, "self_s" the summed duration minus the time direct child spans
# cover, "calls" the number of spans, "sum" and "max" the recorded counts.
# The unit of each metric is given in BENCHMARK.json.
LAYER_METRICS = {
    "bernoulli.warm_s": ("bernoulli.warm_bernoulli_cache", "s"),
    "bernoulli.warm_to": ("bernoulli.warm_bernoulli_cache", "max"),
    "bernoulli.mod_s": ("bernoulli.bernoulli_mod", "s"),
    "bernoulli.mod_calls": ("bernoulli.bernoulli_mod", "calls"),
    "bernoulli.power_sum_link_s": ("bernoulli.check_bernoulli_power_sums", "s"),
    "harmonic.harmonic_table_s": ("harmonic.harmonic_table", "s"),
    "harmonic.harmonic_table_calls": ("harmonic.harmonic_table", "calls"),
    "harmonic.table_entries": ("harmonic.harmonic_table", "sum"),
    "harmonic.reflection_s": ("harmonic.check_reflection_identity", "s"),
    "harmonic.power_sum_table_s": ("harmonic.power_sum_table", "s"),
    "harmonic.power_sum_table_calls": ("harmonic.power_sum_table", "calls"),
    "harmonic.inverse_table_s": ("harmonic.inverse_table", "s"),
    "harmonic.inverse_table_calls": ("harmonic.inverse_table", "calls"),
    "harmonic.harmonic_congruences_s": ("harmonic.check_harmonic_congruences", "s"),
    "harmonic.power_sum_congruences_s": ("harmonic.check_power_sum_congruences", "s"),
    "congruences.binom_alpha_mod_s": ("congruences.binom_alpha_mod", "s"),
    "congruences.binom_alpha_mod_calls": ("congruences.binom_alpha_mod", "calls"),
    "congruences.verify_case_s": ("congruences.verify_case", "s"),
    "congruences.verify_case_self_s": ("congruences.verify_case", "self_s"),
    "congruences.verify_case_calls": ("congruences.verify_case", "calls"),
    "congruences.central_binomial_s": ("congruences.PrimeContext.central_binomial", "s"),
    "congruences.thm1_rhs_s": ("congruences.thm1_rhs", "s"),
    "verdicts.judge_s": ("verdicts.judge", "s"),
    "verdicts.judge_calls": ("verdicts.judge", "calls"),
    "residues.residue_of_rational_s": ("residues.residue_of_rational", "s"),
    "residues.residue_of_rational_calls": ("residues.residue_of_rational", "calls"),
    "residues.valuation_s": ("residues.valuation_of_difference", "s"),
    "scanner.sieve_s": ("scanner.sieve_primes", "s"),
    "scanner.primes": ("scanner.odd_primes_between", "sum"),
    "scanner.tasks": ("scanner._run_tasks", "sum"),
    "scanner.run_tasks_s": ("scanner._run_tasks", "s"),
    "scanner.run_scan_self_s": ("scanner.run_scan", "self_s"),
    "scanner.records": ("scanner.run_scan", "sum"),
    "scanner.emit_report_s": ("scanner.emit_report", "s"),
    "scanner.report_bytes": ("scanner.emit_report", "sum"),
    "cli.parse_config_s": ("cli.parse_config", "s"),
}


def _count(count_of, args, result):
    if count_of is None:
        return None
    try:
        return count_of(args, result)
    except (AttributeError, IndexError, TypeError):
        return None


class Tracer:
    """Records (name index, start, end, parent index, count) per wrapped call."""

    def __init__(self, targets):
        self.names = list(targets)
        self.present = []
        self.spans = []
        self._stack = []
        self._targets = targets

    def _wrap(self, fn, index, count_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, _count(count_of, args, result))

        return traced

    def install(self) -> None:
        """Wrap each target wherever a congrlab module binds it.

        A target its defining module no longer has (renamed or deleted by a
        refactor) is left out of `present`; its metrics come out as null.
        """
        import congrlab.cli  # noqa: F401  (imports every layer)

        namespaces = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "congrlab" or name.startswith("congrlab.")
        ]
        for index, span_name in enumerate(self.names):
            layer, *path = span_name.split(".")
            owner = sys.modules.get(f"congrlab.{layer}")
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, path[-1], None)
            if not callable(original):
                continue
            wrapped = self._wrap(original, index, self._targets[span_name])
            self.present.append(span_name)
            if len(path) > 1:  # a method: the class is its only binding
                setattr(owner, path[-1], wrapped)
                continue
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def payload(self) -> dict:
        return {"names": self.names, "present": self.present, "spans": self.spans}

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.payload(), handle, separators=(",", ":"))


def span_stats(payload: dict) -> dict:
    """Per span name: calls, total and self seconds, count sum and max."""
    names = payload["names"]
    spans = payload["spans"]
    # a span's parent is the list position of the span open when it began
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {
        name: {"calls": 0, "s": 0.0, "self_s": 0.0, "sum": 0, "max": 0}
        for name in names
    }
    for (index, start, end, _, count), covered in zip(spans, child_time):
        entry = stats[names[index]]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - covered
        if count is not None:
            entry["sum"] += count
            entry["max"] = max(entry["max"], count)
    return stats


def layer_metrics(stats: dict, present, metrics=LAYER_METRICS) -> dict:
    """Per-layer metric values; None where the traced function was absent."""
    present = set(present)
    return {
        metric: stats[span][stat] if span in present else None
        for metric, (span, stat) in metrics.items()
    }


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: spans.py SPANS.json CONGRLAB-ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer(TARGETS)
    tracer.install()
    from congrlab.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
