"""Prime-range sweeps, parallel orchestration and report emission.

Work is fanned out one prime per unit, which builds that prime's context
(its ingredient record and cached binomials) from its task and calls
`verify_case` once per case, with every alpha.  Before anything runs, each
prime gets a plan read off the request: its working exponent and the
binomials and other O(p) ingredients its cases read.  One cost model, in
factors of the product route, prices the plans and makes two choices.

The binomials take one of two routes.  On a wide enough range the parent
builds every prime's harmonic vector H_0 .. H_{D-1} mod p^D from one
remainder tree, checks the largest prime's against the product route, and
puts each vector in its prime's task; the unit reads each binomial off it
in O(D).  Otherwise (a single prime, say) the task carries no vector and
the unit multiplies an O(p) product per alpha.

The worker count is an upper bound: a pool of up to that many processes
starts only when the units' O(p) work outside the tree is above one
measured threshold, and otherwise the parent runs every unit itself and
never imports `multiprocessing`.  That work is the product-route binomials,
the other O(p) ingredients and, for `lemmas`, the suites; records and
per-unit overhead do not count, since a pool does not run them faster.  A
range served by the tree leaves each unit almost none of it, so such a
sweep runs in one process.  A pool takes the units largest prime first,
because a unit's cost grows with p and the last chunk should be a cheap
one.  Workers only read immutable inputs and inherit nothing from the
parent.  A pool worker sends its verdicts back as plain tuples, which
pickle cheaply, and the parent rebuilds each record once.

Each unit evaluates its alphas in ascending order and the units' records
are merged in ascending p, so a stable sort on case alone orders them by
(case, p, alpha), and a report is byte-identical no matter how many workers
produced it, in what order, or under which start method.  Residues are
serialized as decimal strings because they routinely exceed 64 bits.  A
report is written to its file a few hundred records at a time, so no
format ever holds a whole report as one str or bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _escape
from operator import itemgetter
from sys import intern
from typing import NamedTuple, Optional

from .bernoulli import check_bernoulli_power_sums
from .congruences import (
    CATALOG, FIXED_ALPHAS, SUMS, PrimeContext, binom_alpha_mod, verify_case
)
from .harmonic import (
    check_harmonic_congruences,
    check_power_sum_congruences,
    check_reflection_identity,
    harmonic_table,
    harmonic_vectors,
)
from .residues import CongrlabError, PrimePowerModulus, _valuation
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
    """The odd primes in [lo, hi], sieving only that segment."""
    lo = max(lo, 3)
    if hi < lo:
        return []
    flags = bytearray([1]) * (hi - lo + 1)
    for q in sieve_primes(math.isqrt(hi)):
        start = max(q * q, -(-lo // q) * q)
        flags[start - lo :: q] = bytes(len(range(start, hi + 1, q)))
    return [lo + i for i, ok in enumerate(flags) if ok]


@dataclass(frozen=True)
class ScanConfig:
    """A validated scan request.

    `workers` and `output` are execution details: they affect where and how
    fast the report is produced, never its contents, and are therefore not
    echoed into the report.  `workers` is the most processes a run may use;
    `run_scan` starts a pool only when the run's O(p) work outside the tree
    is above one measured threshold.
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
        if len(set(self.cases)) != len(self.cases):
            raise UsageError("repeated case")
        if not self.alphas:
            raise UsageError("empty alpha set")
        if len(set(self.alphas)) != len(self.alphas):
            raise UsageError("repeated alpha")
        if self.command == "lemmas" and self.tightness:
            # the suites judge at their own working moduli, not one power up
            raise UsageError("--tightness applies to scan and verify only")
        return self

    def case_ids(self) -> tuple:
        return self.cases if self.cases else tuple(CATALOG)

    def echo(self) -> dict:
        return {
            "command": self.command,
            "prime_min": self.prime_min,
            "prime_max": self.prime_max,
            "alphas": [str(a) for a in sorted(self.alphas)],
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


# The cost model, in factors of the product route.  One factor of
# `binom_alpha_mod` took 0.06-0.08 us at p = 10^4..10^6 on a 2-core sandbox
# (Python 3.11.7, one core per process), and 0.15 us at p = 10^2..10^5 in a
# later, busier series; the figures below timed in seconds use the latter.
#
# Route.  The tree costs about _TREE_FACTORS * D^2 * p_max^1.8 factors,
# whatever the range's lower end: `harmonic_vectors` for every prime
# 5..10^4 / 5..10^5 took 0.05 s / 3.0 s at D = 4 and 0.18 s / 12 s at D = 8,
# about 2e-10 s * D^2 * p_max^1.8.  The product route costs (binomials read
# + 1) * p factors at each prime, the one being its 1/(p-1)!.
_TREE_FACTORS = 2.5e-3

# A task runs each other O(p) pass its cases read once, at so many factors
# per k < p:
#   sums     the names in `congruences.SUMS`, one `power_sum_table` pass:
#            15 (2.3 us per k over the primes 3..2999);
#   central  the exact central binomial: 1 below p = 2000 (math.comb grows
#            past it: 18 at p = 10^5);
#   B        B_{p-3}, a pow of exponent p - 3 mod p^3 per k: b * d for b
#            bits of p and d 30-bit digits of p^3 (measured 5, 8, 24, 30
#            and 33 at p = 101, 499, 1999, 10007 and 100003).
# On the tree route a binomial is a few Horner steps, part of its record.
_PASS_FACTORS = {"sums": 15, "central": 1}  # B's depends on p

# The lemma suites at one prime took about 60 us * p + 4.5 ns * p^3 (0.5 ms
# at p = 3, 12 ms at 101, 47 ms at 199, 0.58 s at 499, best of three): so
# many factors per p and per p^3.
_LEMMA_FACTORS = (400, 0.03)

# Pool.  A run starts one only when the tasks' O(p) work above is more than
# _POOL_FACTORS.  Records, cases and per-task overhead do not count, since a
# pool does not run them faster.  At `--workers 1` against 2, the default
# scan (0.53 M factors) ran no faster pooled and took more CPU, while
# `scan --primes 3..999` (1.95 M) and `lemmas --primes 3..199` (4.3 M) ran
# about 10% faster.
_POOL_FACTORS = 1e6


class _Plan(NamedTuple):
    """What one prime's scan task will compute, read off the request alone."""

    p: int
    exponent: int  # the working exponent of p's context
    reads: int  # alphas at which they read C(alpha*p - 1, p - 1), at most
    ingredients: frozenset  # the other O(p) ingredients they read


def _plan(p: int, cases, alphas, tightness: bool, claimed: bool) -> _Plan:
    """p's plan.  Its context works at the most any applicable case needs."""
    applicable = [c for c in cases if p >= (c.claimed_min_p if claimed else c.min_p)]
    extra = 1 if tightness else 0
    names = {term.x for case in applicable for term in case.lhs + case.rhs}
    read = set(alphas) if "binom" in names else set()
    read.update(FIXED_ALPHAS[x] for x in names & FIXED_ALPHAS.keys())
    # the other O(p) passes their terms read; the `SUMS` share one
    passes = {"sums" if x in SUMS else x for x in names} & {"sums", "central", "B"}
    return _Plan(
        p,
        max((case.modulus_exponent(p) + extra for case in applicable), default=1),
        len(read),
        frozenset(passes),
    )


def _tree_pays(plans) -> bool:
    product = sum((plan.reads + 1) * plan.p for plan in plans if plan.reads)
    exponent = max(plan.exponent for plan in plans)
    return _TREE_FACTORS * exponent**2 * plans[-1].p ** 1.8 < product


def _factors(plan: _Plan, tree: bool) -> float:
    """One prime's O(p) scan work outside the tree, in product-route factors."""
    factors = sum(_PASS_FACTORS.get(x, 0) for x in plan.ingredients)
    if "B" in plan.ingredients:
        bits = plan.p.bit_length()
        factors += bits * -(-3 * bits // 30)
    if plan.reads and not tree:
        factors += plan.reads + 1
    return factors * plan.p


def _harmonic_vectors(plans) -> list:
    """Each prime's harmonic vector, from the remainder tree.

    A case that applies at p applies at every larger prime, so the largest
    prime reads a binomial if any does.  Its vector depends on every
    product along the tree's right spine, so its C(2p - 1, p - 1) is
    checked against the product route; a mismatch is an internal error.
    """
    primes, exponents = [plan.p for plan in plans], [plan.exponent for plan in plans]
    vectors = harmonic_vectors(primes, exponents)
    p, e = primes[-1], exponents[-1]
    tree = PrimeContext(p, e, vectors[-1]).ingredient("binom2")
    if tree != binom_alpha_mod(FIXED_ALPHAS["binom2"], PrimePowerModulus(p, e)):
        raise CongrlabError(f"harmonic vector mismatch at p={p}")
    return vectors


def _scan_one_prime(task) -> list:
    p, exponent, h, case_ids, alphas, tightness, claimed = task
    ctx = PrimeContext(p, exponent, h)
    return list(chain.from_iterable(
        verify_case(case, p, alphas, tightness, ctx, claimed) for case in case_ids
    ))


def run_lemma_suites(p: int) -> list:
    """All harmonic-side verdict suites for one prime, plus the Bernoulli link.

    The suites share one harmonic table, built at the highest modulus any of
    them works in: p^(p+2) for the reflection suite, p^6 for the power sums.
    Each reduces it to its own modulus.
    """
    table = harmonic_table(PrimePowerModulus(p, max(p + 2, 6)))
    return (
        check_reflection_identity(p, table)
        + check_harmonic_congruences(p, table)
        + check_power_sum_congruences(p, table)
        + check_bernoulli_power_sums(p, table)
    )


def _rows(worker, task) -> list:
    """`worker(task)`'s verdicts as tuples of ints and strings, which pickle
    cheaply: alpha as (numerator, denominator), valuation as (value, is_floor)."""
    return [
        (case, p, None if alpha is None else (alpha.numerator, alpha.denominator),
         m, lhs, rhs, status, val and tuple(val), reason)
        for case, p, alpha, m, lhs, rhs, status, val, reason in worker(task)
    ]


def _verdicts(rows) -> list:
    """The verdicts that `_rows` flattened, each in its row's place, as lean
    as `judge` makes them: the name interned, one residue for both sides of
    a pass, and one shared object per distinct valuation."""
    alphas = {None: None}
    for i, (case, p, alpha, m, lhs, rhs, status, val, reason) in enumerate(rows):
        if alpha not in alphas:
            alphas[alpha] = Fraction(*alpha)
        rows[i] = Verdict(
            intern(case), p, alphas[alpha], m, lhs, lhs if status == PASS else rhs,
            status, val and _valuation(*val), reason,
        )
    return rows


def _run_tasks(worker, tasks, workers: int) -> list:
    """Every task's verdicts, the tasks' batches in the order of `tasks`,
    from a pool of `workers` processes if that is more than one."""
    if workers <= 1:
        return [verdict for task in tasks for verdict in worker(task)]
    import multiprocessing  # only a pool needs it, so a serial run skips it

    with multiprocessing.Pool(workers) as pool:
        # tasks arrive in ascending p from the sieve and cost grows with p,
        # so hand out the dearest first and put the batches back after
        batches = pool.map(partial(_rows, worker), tasks[::-1])
    return [verdict for batch in reversed(batches) for verdict in _verdicts(batch)]


def _find_anomalies(records, tightness: bool) -> list:
    """Failures, plus (under tightness) congruences holding one power higher."""
    return [
        v for v in records
        if v.status == FAIL
        or (tightness and v.status == PASS and v.valuation.value > v.m)
    ]


def run_scan(config: ScanConfig) -> ScanReport:
    """Run the configured sweep and assemble the deterministic report."""
    config.validate()
    primes = odd_primes_between(config.prime_min, config.prime_max)

    if config.command == "lemmas":
        worker, tasks = run_lemma_suites, primes
        per_p, per_p3 = _LEMMA_FACTORS
        work = sum(per_p * p + per_p3 * p**3 for p in primes)
    else:
        case_ids, alphas = config.case_ids(), tuple(sorted(config.alphas))
        tightness, claimed = config.tightness, config.claimed_ranges
        cases = [CATALOG[cid] for cid in case_ids]
        plans = [_plan(p, cases, alphas, tightness, claimed) for p in primes]
        tree = any(plan.reads for plan in plans) and _tree_pays(plans)
        vectors = _harmonic_vectors(plans) if tree else [None] * len(plans)
        worker = _scan_one_prime
        tasks = [
            (plan.p, plan.exponent, h, case_ids, alphas, tightness, claimed)
            for plan, h in zip(plans, vectors)
        ]
        work = sum(_factors(plan, tree) for plan in plans)

    # the worker count is an upper bound: a pool of at most one worker per
    # task starts only where the O(p) work is enough to pay for it
    workers = min(config.workers, len(tasks)) if work > _POOL_FACTORS else 1
    records = _run_tasks(worker, tasks, workers)

    # stable: the records arrive in ascending p, and a (case, p) group comes
    # from one task with its alphas ascending
    records.sort(key=itemgetter(0))
    summary = {"pass": 0, "fail": 0, "skip": 0}
    for record in records:
        summary[record.status] += 1
    return ScanReport(
        config=config.echo(),
        records=records,
        summary=summary,
        anomalies=_find_anomalies(records, config.tightness),
    )


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


# The report's columns are the verdict's fields, in order.  In JSON, case,
# status and reason are strings; p and m are numbers; alpha ("a/b"), lhs,
# rhs (decimal, since residues routinely exceed 64 bits) and valuation ("v"
# or ">=v") are strings of their str().  Every value but case, p and status
# may be None, and so may an empty reason: null in JSON, an empty cell in
# CSV and text.  CSV has every column but the last, the reason.
_COLUMNS = Verdict._fields


# Records a piece.  Writing `lemmas --primes 3..199` as CSV (5.4 MB, rows of
# about 1 KB) peaked at 0.6 MB of allocations (tracemalloc) at 256 records a
# piece, 1.1 MB at 512 and 12.6 MB with the whole report in one piece.
_CHUNK = 256


def emit_report(report: ScanReport, fmt: str, out) -> int:
    """Write a report to the buffered binary file `out` as UTF-8 with LF
    line endings, `_CHUNK` records at a time; return the bytes written."""
    emit = {"json": _emit_json, "csv": _emit_csv, "text": _emit_text}.get(fmt)
    if emit is None:
        raise UsageError(f"unknown output format {fmt!r}")
    return sum(out.write(piece.encode()) for piece in emit(report))


def _joined(lines, sep: str = ""):
    """`lines` joined by `sep`, in pieces of `_CHUNK` lines."""
    lines, head = iter(lines), ""
    while piece := sep.join(islice(lines, _CHUNK)):
        yield head + piece
        head = sep


# One record as json.dumps(indent=2) lays it out inside the report; the
# strings that may need escaping go through the C escaper that json.dumps
# itself uses.  The bytes are those of
# json.dumps({"config": ..., "records": ..., ...}, indent=2) + "\n".
_JSON_RECORD = "    {\n" + ",\n".join(
    f'      "{name}": %s' for name in _COLUMNS
) + "\n    }"


def _json_records(records):
    """A record list as the report lays it out, in pieces.  An rhs that is
    its lhs (every passing record) reuses the lhs's string."""
    if not records:
        yield "[]"
        return
    yield "[\n"
    yield from _joined((
        _JSON_RECORD % (
            _escape(case), p, "null" if alpha is None else f'"{alpha!s}"',
            "null" if m is None else m, left,
            left if rhs is lhs else "null" if rhs is None else f'"{rhs}"',
            _escape(status), "null" if val is None else f'"{val!s}"',
            _escape(reason) if reason else "null",
        )
        for case, p, alpha, m, lhs, rhs, status, val, reason in records
        for left in ["null" if lhs is None else f'"{lhs}"']
    ), ",\n")
    yield "\n  ]"


def _emit_json(report: ScanReport):
    def nested(obj) -> str:
        return json.dumps(obj, indent=2).replace("\n", "\n  ")

    yield '{\n  "config": ' + nested(report.config) + ',\n  "records": '
    yield from _json_records(report.records)
    yield ',\n  "summary": ' + nested(report.summary) + ',\n  "anomalies": '
    yield from _json_records(report.anomalies)
    yield "\n}\n"


def _cells(records):
    """Each record's cells as strings, "" for None, in `_COLUMNS` order.

    An rhs equal to its lhs (every passing record) reuses the lhs's decimal
    string, and each distinct valuation is formatted once.
    """
    valuations = {None: ""}
    for case, p, alpha, m, lhs, rhs, status, val, reason in records:
        left = "" if lhs is None else str(lhs)
        shown = valuations.get(val)
        if shown is None:
            shown = valuations[val] = str(val)
        yield (
            case, str(p), "" if alpha is None else str(alpha),
            "" if m is None else str(m), left,
            left if rhs == lhs else "" if rhs is None else str(rhs),
            status, shown, reason or "",
        )


# A CSV row is a record less its reason, each cell as it is.  No cell needs
# quoting: alpha ("a/b"), the valuation ("v", ">=v") and the numbers hold
# no comma, quote or line break, and neither do the case ids, the lemma
# names and the three statuses (tests/test_scanner.py checks every name).
_CSV_ROW = ",".join(["%s"] * (len(_COLUMNS) - 1)) + "\n"


def _emit_csv(report: ScanReport):
    yield ",".join(_COLUMNS[:-1]) + "\n"
    yield from _joined(_CSV_ROW % cells[:-1] for cells in _cells(report.records))


def _emit_text(report: ScanReport):
    # the column widths need every row's cells before the first row goes out
    rows = list(_cells(report.records))
    widths = [max(map(len, column)) for column in zip(_COLUMNS, *rows)]
    row = "  ".join(f"%-{w}s" for w in widths)  # each cell left-justified
    yield (row % _COLUMNS).rstrip() + "\n"
    yield "  ".join("-" * w for w in widths) + "\n"
    yield from _joined((row % cells).rstrip() + "\n" for cells in rows)
    s = report.summary
    yield f"\nsummary: pass={s['pass']} fail={s['fail']} skip={s['skip']}\n"
    yield "anomalies:\n" if report.anomalies else "anomalies: none\n"
    yield from _joined(
        f"  {v.case} p={v.p}{'' if v.alpha is None else f' alpha={v.alpha}'} "
        f"status={v.status} m={v.m} valuation={v.valuation}\n"
        for v in report.anomalies
    )
