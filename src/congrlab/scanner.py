"""Prime-range sweeps, parallel orchestration and report emission.

Work is fanned out one prime per unit: all cases and alpha values for a
prime share that prime's context (S_1, S_2, S_3, H_2, B_{p-3}, cached
binomials), which each worker builds from p alone.  Units are dispatched
largest prime first, because a unit's cost grows with p and the pool's last
chunk should be a cheap one.  Workers only read immutable inputs and
inherit nothing from the parent; results are merged and sorted by (case, p,
alpha) before emission, so a report is byte-identical no matter how many
workers produced it, in what order, or under which start method.
Residues are serialized as decimal strings because they routinely exceed
64 bits.
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .bernoulli import check_bernoulli_power_sums
from .congruences import CATALOG, PrimeContext, verify_case
from .harmonic import (
    check_harmonic_congruences,
    check_power_sum_congruences,
    check_reflection_identity,
)
from .residues import CongrlabError, Valuation
from .verdicts import FAIL, PASS, Verdict

__all__ = [
    "DEFAULT_ALPHA_SWEEP",
    "DEFAULT_PRIME_MAX",
    "DEFAULT_PRIME_MIN",
    "ScanConfig",
    "ScanReport",
    "UsageError",
    "emit_report",
    "odd_primes_between",
    "report_from_json",
    "run_lemma_suites",
    "run_scan",
    "sieve_primes",
]


class UsageError(CongrlabError):
    """Invalid configuration: bad flag values, unknown case ids, bad ranges."""


DEFAULT_PRIME_MIN = 3
DEFAULT_PRIME_MAX = 499

# Integer alphas -3..6 plus a spread of small rationals; covers the alpha = 2
# and alpha = 1/2 specializations and generic numerators/denominators.
DEFAULT_ALPHA_SWEEP = tuple(
    sorted(
        [Fraction(n) for n in range(-3, 7)]
        + [
            Fraction(1, 2),
            Fraction(-1, 2),
            Fraction(1, 3),
            Fraction(2, 3),
            Fraction(3, 2),
            Fraction(5, 2),
            Fraction(1, 4),
            Fraction(7, 3),
        ]
    )
)


def sieve_primes(limit: int) -> list:
    """All primes <= limit by a plain sieve of Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for n in range(2, int(limit**0.5) + 1):
        if flags[n]:
            start = n * n
            flags[start :: n] = bytearray(len(range(start, limit + 1, n)))
    return [n for n, ok in enumerate(flags) if ok]


def odd_primes_between(lo: int, hi: int) -> list:
    return [p for p in sieve_primes(hi) if p >= max(lo, 3)]


@dataclass(frozen=True)
class ScanConfig:
    """A validated scan request.

    `workers` and `output` are execution details: they affect where and how
    fast the report is produced, never its contents, and are therefore not
    echoed into the report.
    """

    command: str = "scan"  # "scan", "verify" or "lemmas"
    prime_min: int = DEFAULT_PRIME_MIN
    prime_max: int = DEFAULT_PRIME_MAX
    alphas: tuple = DEFAULT_ALPHA_SWEEP
    cases: tuple = ()  # empty means the whole catalog
    fmt: str = "text"
    output: Optional[str] = None
    workers: int = 1
    tightness: bool = False
    claimed_ranges: bool = False

    def validate(self) -> "ScanConfig":
        if self.command not in ("scan", "verify", "lemmas"):
            raise UsageError(f"unknown command {self.command!r}")
        if self.prime_min < 3:
            raise UsageError("prime range must start at 3 or above")
        if self.prime_max < self.prime_min:
            raise UsageError("empty prime range")
        if self.fmt not in ("text", "json", "csv"):
            raise UsageError(f"unknown output format {self.fmt!r}")
        if self.workers < 1:
            raise UsageError("worker count must be >= 1")
        for cid in self.cases:
            if cid not in CATALOG:
                raise UsageError(f"unknown congruence case {cid!r}")
        if not self.alphas:
            raise UsageError("empty alpha set")
        return self

    def case_ids(self) -> tuple:
        return self.cases if self.cases else tuple(CATALOG)

    def echo(self) -> dict:
        return {
            "command": self.command,
            "prime_min": self.prime_min,
            "prime_max": self.prime_max,
            "alphas": [str(a) for a in self.alphas],
            "cases": list(self.case_ids()) if self.command != "lemmas" else [],
            "tightness": self.tightness,
            "claimed_ranges": self.claimed_ranges,
        }


@dataclass
class ScanReport:
    config: dict
    records: list = field(default_factory=list)
    summary: dict = field(default_factory=lambda: {"pass": 0, "fail": 0, "skip": 0})
    anomalies: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.summary["fail"] > 0


def _scan_one_prime(task) -> list:
    p, case_ids, alphas, tightness, claimed = task
    cases = [CATALOG[cid] for cid in case_ids]
    extra = 1 if tightness else 0
    needed = [
        case.modulus_exponent(p) + extra
        for case in cases
        if p >= (case.claimed_min_p if claimed else case.min_p)
    ]
    ctx = PrimeContext(p, max(needed, default=1))
    out = []
    for case in cases:
        if case.alpha_mode == "none":
            out.append(verify_case(case, p, None, tightness, ctx, claimed))
        else:
            for alpha in alphas:
                out.append(verify_case(case, p, alpha, tightness, ctx, claimed))
    return out


def run_lemma_suites(p: int) -> list:
    """All harmonic-side verdict suites for one prime, plus the Bernoulli link."""
    return (
        check_reflection_identity(p)
        + check_harmonic_congruences(p)
        + check_power_sum_congruences(p)
        + check_bernoulli_power_sums(p)
    )


def _run_tasks(worker, tasks, workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        batches = [worker(task) for task in tasks]
    else:
        with multiprocessing.Pool(min(workers, len(tasks))) as pool:
            # tasks arrive in ascending p from the sieve and cost grows with
            # p, so hand out the dearest first; run_scan sorts the records
            batches = pool.map(worker, tasks[::-1])
    return [verdict for batch in batches for verdict in batch]


def _summarize(records) -> dict:
    counts = {"pass": 0, "fail": 0, "skip": 0}
    for record in records:
        counts[record.status] += 1
    return counts


def _find_anomalies(records, tightness: bool) -> list:
    """Failures, plus (under tightness) congruences holding one power higher."""
    out = []
    for record in records:
        if record.status == FAIL:
            out.append(record)
        elif (
            tightness
            and record.status == PASS
            and record.valuation is not None
            and record.valuation.value > record.m
        ):
            out.append(record)
    return out


def run_scan(config: ScanConfig) -> ScanReport:
    """Run the configured sweep and assemble the deterministic report."""
    config.validate()
    primes = odd_primes_between(config.prime_min, config.prime_max)

    if config.command == "lemmas":
        records = _run_tasks(run_lemma_suites, primes, config.workers)
    else:
        case_ids = config.case_ids()
        tasks = [
            (p, case_ids, config.alphas, config.tightness, config.claimed_ranges)
            for p in primes
        ]
        records = _run_tasks(_scan_one_prime, tasks, config.workers)

    records.sort(key=Verdict.sort_key)
    return ScanReport(
        config=config.echo(),
        records=records,
        summary=_summarize(records),
        anomalies=_find_anomalies(records, config.tightness),
    )


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _maybe(convert):
    """Apply `convert` to a present value; an absent one (None) stays None."""
    return lambda value: None if value is None else convert(value)


# The report's columns: (Verdict field, its JSON value, the field from that
# JSON value).  p and m stay JSON numbers; residues are decimal strings
# because they routinely exceed 64 bits; None is null in JSON and an empty
# cell in CSV and text.  CSV has every column but the last, the reason.
_COLUMNS = (
    ("case", str, str),
    ("p", int, int),
    ("alpha", _maybe(str), _maybe(Fraction)),
    ("m", _maybe(int), _maybe(int)),
    ("lhs", _maybe(str), _maybe(int)),
    ("rhs", _maybe(str), _maybe(int)),
    ("status", str, str),
    ("valuation", _maybe(str), _maybe(Valuation.parse)),
    ("reason", lambda reason: reason or None, lambda reason: reason or ""),
)
_CSV_COLUMNS = tuple(name for name, _, _ in _COLUMNS[:-1])


def _record_dict(v: Verdict) -> dict:
    return {name: to_json(getattr(v, name)) for name, to_json, _ in _COLUMNS}


def _record_cells(v: Verdict) -> list:
    """The record's JSON values as text in `_COLUMNS` order; None is ""."""
    cells = []
    for name, to_json, _ in _COLUMNS:
        value = to_json(getattr(v, name))
        cells.append("" if value is None else str(value))
    return cells


def _record_from_dict(d: dict) -> Verdict:
    return Verdict(**{name: from_json(d[name]) for name, _, from_json in _COLUMNS})


def emit_report(report: ScanReport, fmt: str) -> bytes:
    """Serialize a report as UTF-8 bytes with LF line endings."""
    if fmt == "json":
        return _emit_json(report)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        writer.writerows(_record_cells(v)[:-1] for v in report.records)
        return buf.getvalue().encode()
    if fmt == "text":
        return _emit_text(report)
    raise UsageError(f"unknown output format {fmt!r}")


# Records hold only scalars, so the C encoder can write each one with its
# indentation folded into the item separator; json.dumps(indent=2) would take
# the pure-Python encoder for all of them.  The bytes are those of
# json.dumps({"config": ..., "records": ..., ...}, indent=2) + "\n".
_encode_record = json.JSONEncoder(separators=(",\n      ", ": ")).encode


def _json_records(records) -> str:
    if not records:
        return "[]"
    body = ",\n".join(
        "    {\n      " + _encode_record(_record_dict(v))[1:-1] + "\n    }"
        for v in records
    )
    return "[\n" + body + "\n  ]"


def _emit_json(report: ScanReport) -> bytes:
    def nested(obj) -> str:
        return json.dumps(obj, indent=2).replace("\n", "\n  ")

    return (
        '{\n  "config": ' + nested(report.config)
        + ',\n  "records": ' + _json_records(report.records)
        + ',\n  "summary": ' + nested(report.summary)
        + ',\n  "anomalies": ' + _json_records(report.anomalies)
        + "\n}\n"
    ).encode()


def _emit_text(report: ScanReport) -> bytes:
    headers = [name for name, _, _ in _COLUMNS]
    rows = [_record_cells(v) for v in report.records]
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    s = report.summary
    lines.append("")
    lines.append(f"summary: pass={s['pass']} fail={s['fail']} skip={s['skip']}")
    if report.anomalies:
        lines.append("anomalies:")
        for v in report.anomalies:
            alpha = "" if v.alpha is None else f" alpha={v.alpha}"
            lines.append(
                f"  {v.case} p={v.p}{alpha} status={v.status} "
                f"m={v.m} valuation={v.valuation}"
            )
    else:
        lines.append("anomalies: none")
    return ("\n".join(lines) + "\n").encode()


def report_from_json(data: bytes) -> ScanReport:
    """Re-parse an emitted JSON report; inverse of emit_report(..., "json")."""
    payload = json.loads(data.decode())
    return ScanReport(
        config=payload["config"],
        records=[_record_from_dict(d) for d in payload["records"]],
        summary=payload["summary"],
        anomalies=[_record_from_dict(d) for d in payload["anomalies"]],
    )
