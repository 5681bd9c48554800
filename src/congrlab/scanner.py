"""Prime-range sweeps, parallel orchestration and report emission.

A scan runs in two phases.  First each prime gets a plan read off the
request alone: its working exponent and the ingredient names its cases
read.  A record holds C(alpha*p - 1, p - 1) as one polynomial in alpha, so
no plan depends on the alphas.  One cost model, in factors of the product
route, prices the plans and makes two choices up front: the route of every
record, and whether a pool runs the O(p) work.  Then each prime's
ingredient record (`congruences.prime_record`) is built in full, before
any case is evaluated.

Every record reads the binomial polynomial and S_1, S_2, S_3 and H_2 (by
Newton's identities) off a harmonic vector, which takes one of two routes.
On a wide enough range the parent builds every prime's vector H_0 ..
H_{D-1} mod p^D from one remainder tree, and the record reads it in O(D).
Otherwise (a single prime, say) the record interpolates the polynomial
modulo p^e from min(e, p) - 2 O(p) products, with e = D + 3 where it reads
a sum and D otherwise, and divides its coefficients by powers of -p.  The
tree pays where the products it saves cost more than it does, so a request
that reads only sums takes it too.  What is left per prime is O(p) work
outside the tree: B_{p-3} and the exact central binomial.

Every check that can stop a scan runs in the first phase, so the CLI has
not opened its output when one fails.  Each record checks its own central
binomial and its B_{p-3} as it is built, and the tree checks each prime's
product modulo p (`harmonic_vectors`).  The largest prime reads whatever
any prime reads, and its vector depends on every product along the tree's
right spine: there the tree's record is compared with the product route's,
name by name, the whole binomial polynomial included, so every alpha and
not only those requested, and its sums with one `power_sum_table` pass, the
one route to them that reads no vector (`_harmonic_vectors`).

The worker count is an upper bound: a pool of up to that many processes
starts only when the records' O(p) work outside the tree is above one
measured threshold, and otherwise the parent builds every record itself
and never imports `multiprocessing`.  A range served by the tree leaves
each record little of it, so such a sweep mostly runs in one process.  A
pool worker builds one prime's context; the pool takes the primes largest
first, because a record's cost grows with p and the last chunk should be a
cheap one.  Workers only read immutable inputs and inherit nothing from the
parent.

The second phase evaluates case-major: cases in id order, primes
ascending, alphas ascending, each (case, p) by `verify_case` over that
prime's one context, which holds its record and serves every case.  That is
the report's order, so a scan sorts nothing, and its records go straight to
`emit_report` from a generator that counts the summary and collects the
anomalies as they pass; a scan never holds its records.  A report is
therefore byte-identical no matter how many workers built the records, in
what order, or under which start method.

`lemmas` reports by lemma name, then p.  Each prime's suites run together,
in a pool worker or not, and make every internal check then; they return
one lemma record per prime (`harmonic.LemmaRecord`): its harmonic table,
S_1 .. S_{2p+1}, the reflection pairs' right sides, any mirror coefficient
off the table and B_{p-3}.  The parent holds these and no rows.  Each
family of lemma names is one rule beside its suite, and the records are a
generator that walks the sorted names and, for each, the primes ascending,
building each row from its prime's record and judging it as it is read.
So `lemmas` sorts names, not records, and holds no row or verdict.

Residues are serialized as decimal strings because they routinely exceed
64 bits.  A report is written to its file a few hundred records at a time,
so no format ever holds a whole report as one str or bytes; text, whose
column widths need every row, holds the rows' cells.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import islice
from json.encoder import encode_basestring_ascii as _escape
from operator import attrgetter
from typing import NamedTuple, Optional

from .bernoulli import LINK_ROWS, check_bernoulli_power_sums
from .congruences import (
    CATALOG, ROUTED, SUMS, PrimeContext, _vector_exponent, ingredients, prime_record,
    verify_case,
)
from .harmonic import (
    HARMONIC_ROWS,
    POWER_SUM_ROWS,
    REFLECTION_ROWS,
    LemmaRecord,
    check_harmonic_congruences,
    check_power_sum_congruences,
    check_reflection_identity,
    harmonic_table,
    harmonic_vectors,
    power_sum_table,
)
from .residues import CongrlabError, PrimePowerModulus
from .verdicts import FAIL, PASS, Verdict, judge, skip

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


class ScanConfig(NamedTuple):
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


class ScanReport:
    """A report: the request's echo, its records, their summary and anomalies.

    `records` is any iterable of verdicts.  `run_scan` makes it a generator
    that is read once and counts each record into `summary` and, if it is
    an anomaly, into `anomalies` as it passes; those two are complete only
    once the records have been read, as every emitter reads them first.
    """

    def __init__(self, config: dict, records, summary: dict, anomalies: list):
        self.config = config
        self.records = records
        self.summary = summary
        self.anomalies = anomalies

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
# about 2e-10 s * D^2 * p_max^1.8.  It saves each prime the product route's
# vector, about (n - 1) * p factors for n = min(e, p) (n - 2 values and
# their 1/(p-1)!), where e is m + 3 if the prime reads a sum.
_TREE_FACTORS = 2.5e-3

# A prime's record runs each other O(p) pass its cases read once, at so
# many factors per k < p:
#   central  the exact central binomial: 1 below p = 2000 (math.comb grows
#            past it: 18 at p = 10^5);
#   B        B_{p-3}, a pow of exponent p - 3 mod p^3 per k: b * d for b
#            bits of p and d 30-bit digits of p^3 (measured 5, 8, 24, 30
#            and 33 at p = 101, 499, 1999, 10007 and 100003).
_CENTRAL_FACTORS = 1  # B's depends on p

# The lemma suites at one prime took about 60 us * p + 4.5 ns * p^3 (0.5 ms
# at p = 3, 12 ms at 101, 47 ms at 199, 0.58 s at 499, best of three): so
# many factors per p and per p^3.
_LEMMA_FACTORS = (400, 0.03)

# Pool.  A run starts one only when its O(p) work above is more than
# _POOL_FACTORS.  Records, cases and per-task overhead do not count, since a
# pool does not run them faster.  At `--workers 1` against 2, the default
# scan (0.53 M factors) ran no faster pooled and took more CPU, while
# `scan --primes 3..999` (1.95 M) and `lemmas --primes 3..199` (4.3 M) ran
# about 10% faster.
_POOL_FACTORS = 1e6


class _Plan(NamedTuple):
    """What one prime's record will hold, read off the request alone."""

    p: int
    exponent: int  # the working exponent of p's record
    names: frozenset  # the ingredients its cases read


def _plans(primes, cases, tightness: bool, claimed: bool) -> list:
    """Each prime's plan.  Its record works at the most any applicable case
    needs, and primes that the same cases apply to share their names, so a
    long range holds one copy of them."""
    extra = 1 if tightness else 0
    shared, plans = {}, []
    for p in primes:
        applicable = [c for c in cases if c.skip_reason(p, claimed=claimed) is None]
        key = tuple(c.id for c in applicable)
        if key not in shared:
            shared[key] = ingredients(applicable)
        exponent = max((c.modulus_exponent(p) + extra for c in applicable), default=1)
        plans.append(_Plan(p, exponent, shared[key]))
    return plans


def _vector_work(plan: _Plan) -> float:
    """p's O(p) work that its harmonic vector saves: the product route's."""
    e = _vector_exponent(plan.names, plan.exponent)
    return (min(e, plan.p) - 1) * plan.p if e else 0


def _tree_pays(plans) -> bool:
    exponent = max(plan.exponent for plan in plans)
    tree = _TREE_FACTORS * exponent**2 * plans[-1].p ** 1.8
    return tree < sum(map(_vector_work, plans))


def _factors(plan: _Plan, tree: bool) -> float:
    """One prime's O(p) record work outside the tree, in product-route factors."""
    factors = _CENTRAL_FACTORS if "central" in plan.names else 0
    if "B" in plan.names:
        bits = plan.p.bit_length()
        factors += bits * -(-3 * bits // 30)
    return factors * plan.p + (0 if tree else _vector_work(plan))


def _harmonic_vectors(plans) -> list:
    """Each prime's harmonic vector, from the remainder tree.

    A case that applies at p applies at every larger prime, so the largest
    prime reads whatever any prime reads.  Its vector depends on every
    product along the tree's right spine, so there the record the vector
    gives is compared with the product route's, name by name, over every
    name the route computes (`ROUTED`) that the range reads: the whole
    polynomial for C(alpha*p - 1, p - 1), so every alpha, C(2p - 1, p - 1),
    and S_1, S_2, S_3 and H_2.  Both read the sums off a vector by Newton's
    identities, so S_1, S_2 and S_3 are also compared with one
    `power_sum_table` pass.  A mismatch is an internal error.
    """
    primes, exponents = [plan.p for plan in plans], [plan.exponent for plan in plans]
    vectors = harmonic_vectors(primes, exponents)
    last = plans[-1]
    modulus = PrimePowerModulus(last.p, last.exponent)
    names = last.names & ROUTED
    tree = prime_record(modulus, names, vectors[-1])
    for name, value in prime_record(modulus, names).items():
        if tree[name] != value:
            sums = "power sums off the " if name in SUMS else ""
            raise CongrlabError(f"{sums}harmonic vector mismatch at p={last.p}")
    sums = tuple(tree[x] for x in SUMS[:3] if x in tree)
    if sums and power_sum_table(modulus, 3) != sums:
        raise CongrlabError(f"power sums off the harmonic vector mismatch at p={last.p}")
    return vectors


def _prime_record(task) -> PrimeContext:
    """One prime's context over its ingredient record, built in full: its
    O(p) work in a scan."""
    plan, h = task
    modulus = PrimePowerModulus(plan.p, plan.exponent)
    return PrimeContext(modulus, prime_record(modulus, plan.names, h))


def _case_major(cases, contexts, alphas, tightness: bool, claimed: bool):
    """Every verdict of the scan: cases in id order, then primes ascending,
    then alphas ascending, each prime's one context shared by every case."""
    for case in sorted(cases, key=attrgetter("id")):
        for ctx in contexts:
            yield from verify_case(case, ctx.p, alphas, tightness, ctx, claimed)


def run_lemma_suites(p: int) -> LemmaRecord:
    """One prime's lemma record, every suite's internal checks run.

    The suites share one harmonic table, built at the highest modulus any of
    them works in: p^(p+2) for the reflection suite, p^6 for the power sums.
    Each reduces it to its own modulus as it builds its slice of the record.
    """
    table = harmonic_table(PrimePowerModulus(p, max(p + 2, 6)))
    return LemmaRecord(
        check_harmonic_congruences(p, table),
        *check_reflection_identity(p, table),
        sums=check_power_sum_congruences(p, table),
        b=check_bernoulli_power_sums(p),
    )


_LEMMA_FAMILIES = REFLECTION_ROWS + HARMONIC_ROWS + POWER_SUM_ROWS + LINK_ROWS


def _lemma_records(records: list, families=_LEMMA_FAMILIES):
    """The verdicts of every row `families` make of `records`, lemma records
    in ascending p, in report order: names sorted, and each name's primes
    ascending.  Each row is built from its prime's record, judged by
    `judge`, as every catalog verdict is, and let go as it is read.

    No family's text before its field is a prefix of another's, so sorting
    the families by that text, and each family's names, sorts every name.
    """
    for family in sorted(families, key=lambda f: f.name.partition("{")[0]):
        at = [
            (record, family.ks(record.p), record.table.modulus.with_exponent(
                family.exponent(record.p)
            ))
            for record in records
        ]
        ks = set().union(*(covered for _, covered, _ in at))
        for name, k in sorted((family.name.format(k), k) for k in ks):
            for record, covered, modulus in at:
                if k not in covered:
                    continue
                row = family.row(record, k, modulus)
                if isinstance(row, str):  # the reason it is skipped
                    yield skip(name, modulus.p, None, row)
                    continue
                yield judge(name, modulus.p, None, *row, modulus)


def _run_tasks(worker, tasks, workers: int) -> list:
    """`worker(task)` for every task, in the order of `tasks`, from a pool
    of `workers` processes if that is more than one."""
    if workers <= 1:
        return list(map(worker, tasks))
    import multiprocessing  # only a pool needs it, so a serial run skips it

    with multiprocessing.Pool(workers) as pool:
        # tasks arrive in ascending p from the sieve and cost grows with p,
        # so hand out the dearest first and put the results back after
        return pool.map(worker, tasks[::-1])[::-1]


def _tallied(records, summary: dict, anomalies: list, tightness: bool):
    """`records`, each counted into `summary` as it passes, and kept in
    `anomalies` if it failed or (under tightness) holds one power higher
    than stated."""
    for v in records:
        summary[v.status] += 1
        if v.status == FAIL or (
            tightness and v.status == PASS and v.valuation.value > v.m
        ):
            anomalies.append(v)
        yield v


def _pool_size(config: ScanConfig, tasks, work: float) -> int:
    """The worker count is an upper bound: a pool of at most one worker per
    task starts only where the O(p) work is enough to pay for it."""
    return min(config.workers, len(tasks)) if work > _POOL_FACTORS else 1


def run_scan(config: ScanConfig) -> ScanReport:
    """Build every prime's ingredients, running every check, and return the
    report, whose records are evaluated as they are read."""
    config.validate()
    primes = odd_primes_between(config.prime_min, config.prime_max)

    if config.command == "lemmas":
        per_p, per_p3 = _LEMMA_FACTORS
        workers = _pool_size(config, primes, sum(per_p * p + per_p3 * p**3 for p in primes))
        # every suite's checks run before this returns; each row is built,
        # judged and written as the emitter reads it
        records = _lemma_records(_run_tasks(run_lemma_suites, primes, workers))
    else:
        alphas = tuple(sorted(config.alphas))
        cases = [CATALOG[cid] for cid in config.case_ids()]
        plans = _plans(primes, cases, config.tightness, config.claimed_ranges)
        tree = bool(plans) and _tree_pays(plans)
        vectors = _harmonic_vectors(plans) if tree else [None] * len(plans)
        tasks = list(zip(plans, vectors))
        workers = _pool_size(config, tasks, sum(_factors(plan, tree) for plan in plans))
        contexts = _run_tasks(_prime_record, tasks, workers)
        records = _case_major(
            cases, contexts, alphas, config.tightness, config.claimed_ranges
        )

    summary, anomalies = {"pass": 0, "fail": 0, "skip": 0}, []
    records = _tallied(records, summary, anomalies, config.tightness)
    return ScanReport(config.echo(), records, summary, anomalies)


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
    """A record list as the report lays it out, in pieces, from `_cells`:
    an empty cell is null, an rhs that is its lhs reuses the lhs's string,
    and case, status and reason are escaped."""
    pieces = _joined((
        _JSON_RECORD % (
            _escape(case), p, f'"{alpha}"' if alpha else "null", m or "null",
            left, left if rhs is lhs else f'"{rhs}"' if rhs else "null",
            _escape(status), f'"{val}"' if val else "null",
            _escape(reason) if reason else "null",
        )
        for case, p, alpha, m, lhs, rhs, status, val, reason in _cells(records)
        for left in [f'"{lhs}"' if lhs else "null"]
    ), ",\n")
    first = next(pieces, None)
    if first is None:
        yield "[]"
        return
    yield "[\n" + first
    yield from pieces
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
    """Each record's cells as strings, "" for None, in `_COLUMNS` order:
    the one cell formatter of JSON, CSV and text.

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
