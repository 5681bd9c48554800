"""Configuration parsing, scanning, report emission and the CLI contract."""

import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import congrlab.cli
from congrlab import congruences, harmonic, scanner, verdicts
from congrlab import (
    CongrlabError,
    PrimePowerModulus,
    ScanConfig,
    ScanReport,
    Verdict,
    emit_report,
    residue_of_rational,
    run_scan,
)
from congrlab.cli import main, parse_config
from congrlab.congruences import SUMS, PrimeContext, ingredients, prime_record, verify_case
from congrlab.residues import Valuation
from congrlab.scanner import (
    DEFAULT_ALPHA_SWEEP,
    UsageError,
    odd_primes_between,
    sieve_primes,
)
from congrlab.verdicts import FAIL, PASS, SKIP
from oracles import (
    collected, csv_report, emitted, json_records, record_dict, text_report, verdicts_of,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def spy_pools(monkeypatch, force: bool = False) -> list:
    """The sizes of the pools the run starts, in order.

    With `force`, the scanner's pool threshold is -inf, so every run that
    may use more than one worker starts one: a test that exists to exercise
    the pool then cannot compare a serial run with a serial run.
    """
    started = []
    pool = multiprocessing.Pool

    def spy(processes=None, *args, **kwargs):
        started.append(processes)
        return pool(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", spy)
    if force:
        monkeypatch.setattr(scanner, "_POOL_FACTORS", -math.inf)
    return started


class TestSieve:
    def test_small(self):
        assert sieve_primes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_empty(self):
        assert sieve_primes(1) == []

    def test_odd_primes_between(self):
        assert odd_primes_between(3, 13) == [3, 5, 7, 11, 13]
        assert odd_primes_between(8, 12) == [11]
        assert 2 not in odd_primes_between(2, 10)

    @staticmethod
    def _ranges():
        rng = random.Random(20161)
        yield from ((lo, hi) for lo in range(60) for hi in range(60))
        for _ in range(300):
            yield tuple(sorted((rng.randrange(20_000), rng.randrange(20_000))))
        yield from [(3, 499), (5, 10_000)]

    def test_segment_sieve_matches_full_sieve(self):
        for lo, hi in self._ranges():
            expected = [q for q in sieve_primes(hi) if q >= max(lo, 3)]
            assert odd_primes_between(lo, hi) == expected, (lo, hi)

    def test_segment_sieve_memory_tracks_the_segment(self):
        # sieving all of [0, 10^6] would allocate about 1 MB of flags alone
        tracemalloc.start()
        try:
            primes = odd_primes_between(999_900, 1_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert primes == [999907, 999917, 999931, 999953, 999959, 999961, 999979, 999983]
        assert peak < 1 << 20


class TestParseConfig:
    def test_verify_single_case(self):
        cfg = parse_config(["verify", "--case", "thm1", "--p", "5", "--alpha", "2"], {})
        assert cfg.command == "verify"
        assert (cfg.prime_min, cfg.prime_max) == (5, 5)
        assert cfg.cases == ("thm1",)
        assert cfg.alphas == (Fraction(2),)
        assert cfg.workers == 1

    def test_scan_range_and_output(self):
        cfg = parse_config(
            ["scan", "--primes", "11..499", "--format", "json", "-o", "out.json"], {}
        )
        assert (cfg.prime_min, cfg.prime_max) == (11, 499)
        assert cfg.fmt == "json" and cfg.output == "out.json"
        assert cfg.cases == ()  # whole catalog
        assert cfg.alphas == DEFAULT_ALPHA_SWEEP

    def test_scan_single_alpha(self):
        cfg = parse_config(["scan", "--alpha", "1/7", "--primes", "7..7"], {})
        assert cfg.alphas == (Fraction(1, 7),)

    def test_defaults(self):
        cfg = parse_config(["scan"], {})
        assert (cfg.prime_min, cfg.prime_max) == (3, 499)
        assert cfg.fmt == "text" and cfg.output is None
        assert not cfg.tightness and not cfg.claimed_ranges
        assert cfg.workers >= 1

    def test_comma_separated_lists(self):
        # canonical order however spelled: the benchmark permutes both lists
        cfg = parse_config(
            ["scan", "--case", "morley,babbage", "--alpha", "2,1/2", "--primes", "5..7"],
            {},
        )
        assert cfg.cases == ("babbage", "morley")
        assert cfg.alphas == (Fraction(1, 2), Fraction(2))

    def test_workers_flag_overrides_env(self, monkeypatch):
        # eight CPUs, so no count below is clamped on a smaller machine; the
        # variable applies only where the flag is absent
        monkeypatch.setattr(congrlab.cli, "_available_cpus", lambda: 8)
        cfg = parse_config(["scan", "--workers", "3"], {"CONGRLAB_WORKERS": "5"})
        assert cfg.workers == 3
        assert parse_config(["scan"], {"CONGRLAB_WORKERS": "5"}).workers == 5
        assert parse_config(["scan", "--workers", "3"], {}).workers == 3
        # a given flag does not read the variable, so a bad one goes unseen
        cfg = parse_config(["scan", "--workers", "2"], {"CONGRLAB_WORKERS": "many"})
        assert cfg.workers == 2

    def test_workers_clamped_to_available_cpus(self):
        # resolves the count only; no pool is started
        cpus = congrlab.cli._available_cpus()
        assert congrlab.cli._resolve_workers(10**6, {}) == cpus
        assert congrlab.cli._resolve_workers(None, {}) == cpus
        env = {"CONGRLAB_WORKERS": str(10**6)}
        assert congrlab.cli._resolve_workers(None, env) == cpus
        assert congrlab.cli._resolve_workers(None, {"CONGRLAB_WORKERS": "1"}) == 1

    def test_library_worker_count_not_clamped(self):
        assert ScanConfig(workers=10**6).validate().workers == 10**6

    def test_lemmas_defaults(self):
        cfg = parse_config(["lemmas"], {})
        assert cfg.command == "lemmas"
        assert (cfg.prime_min, cfg.prime_max) == (3, 199)

    @pytest.mark.parametrize(
        "argv,env",
        [
            (["scan", "--primes", "nope"], {}),
            (["scan", "--primes", "5..3"], {}),
            (["scan", "--primes", "1..10"], {}),
            (["scan", "--case", "nonesuch"], {}),
            (["scan", "--alpha", "1/0"], {}),
            (["scan", "--workers", "0"], {}),
            (["scan"], {"CONGRLAB_WORKERS": "many"}),
            (["verify", "--case", "thm1", "--p", "4", "--alpha", "2"], {}),
            (["verify", "--case", "thm1", "--p", "2", "--alpha", "2"], {}),
        ],
    )
    def test_bad_configs_rejected(self, argv, env):
        with pytest.raises(UsageError):
            parse_config(argv, env)

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["scan", "--frobnicate"], {})
        assert exc.value.code == 2


class TestRunScan:
    def test_skip_below_case_range(self):
        cfg = ScanConfig(prime_min=3, prime_max=13, cases=("wolstenholme_rel70",))
        report = collected(run_scan(cfg))
        by_p = {v.p: v for v in report.records}
        assert by_p[3].status == SKIP and by_p[3].reason == "requires p >= 5"
        assert all(by_p[p].status == PASS for p in (5, 7, 11, 13))

    def test_non_p_integer_alpha_recorded(self):
        cfg = ScanConfig(
            prime_min=7, prime_max=7, alphas=(Fraction(1, 7),), cases=("thm1",)
        )
        report = collected(run_scan(cfg))
        assert report.summary == {"pass": 0, "fail": 0, "skip": 1}
        assert "7-integer" in report.records[0].reason

    def test_records_sorted_and_counted(self):
        cfg = ScanConfig(prime_min=3, prime_max=31, cases=("thm1", "babbage"))
        report = collected(run_scan(cfg))
        keys = [(v.case, v.p, v.alpha or 0) for v in report.records]
        assert keys == sorted(keys)
        counted = sum(report.summary.values())
        assert counted == len(report.records)

    def test_deterministic_across_workers(self, monkeypatch):
        started = spy_pools(monkeypatch, force=True)
        blobs = []
        for workers in (1, 2, 4):
            cfg = ScanConfig(prime_min=3, prime_max=61, workers=workers)
            blobs.append(emitted(run_scan(cfg), "json"))
        assert blobs[0] == blobs[1] == blobs[2]
        assert started == [2, 4]

    def test_lemmas_deterministic_across_workers(self, monkeypatch):
        # the pool takes its primes in the opposite order to the serial path
        started = spy_pools(monkeypatch, force=True)
        blobs = [
            emitted(
                run_scan(
                    ScanConfig(command="lemmas", prime_min=3, prime_max=47, workers=w)
                ),
                "json",
            )
            for w in (1, 2)
        ]
        assert blobs[0] == blobs[1]
        assert started == [2]

    def test_claimed_range_failure_is_anomalous(self):
        cfg = ScanConfig(
            prime_min=3,
            prime_max=3,
            cases=("rel38",),
            alphas=(Fraction(2),),
            claimed_ranges=True,
        )
        report = collected(run_scan(cfg))
        assert report.failed
        assert [v.case for v in report.anomalies] == ["rel38"]

    def test_tightness_flags_strengthened_congruences(self):
        cfg = ScanConfig(
            prime_min=5,
            prime_max=13,
            cases=("babbage", "wolstenholme_rel70"),
            tightness=True,
        )
        report = collected(run_scan(cfg))
        assert not report.failed
        # Babbage's mod p^2 congruence actually holds mod p^3 from p = 5 on
        assert {v.case for v in report.anomalies} == {"babbage"}
        assert all(v.valuation.value >= 3 for v in report.anomalies)

    def test_no_tightness_no_strengthening_anomalies(self):
        cfg = ScanConfig(prime_min=5, prime_max=13, cases=("babbage",))
        report = collected(run_scan(cfg))
        assert report.anomalies == []

    def test_lemma_command(self):
        cfg = ScanConfig(command="lemmas", prime_min=3, prime_max=13)
        report = collected(run_scan(cfg))
        assert not report.failed
        assert any(v.case.startswith("reflection.") for v in report.records)
        assert any(v.case.startswith("bernoulli.") for v in report.records)

    def test_validate_rejects_unknown_case(self):
        with pytest.raises(UsageError):
            run_scan(ScanConfig(cases=("nope",)))

    def test_lemmas_reject_tightness(self):
        # the suites judge at their own moduli, so one power up would list
        # every record that holds there as an anomaly
        with pytest.raises(UsageError, match="scan and verify only"):
            run_scan(ScanConfig(command="lemmas", prime_max=31, tightness=True))

    @pytest.mark.parametrize(
        "alphas", [(Fraction(2), Fraction(1, 2), Fraction(2)), (2, Fraction(2))]
    )
    def test_repeated_alpha_rejected(self, alphas):
        # a repeated alpha would give two identical records
        config = ScanConfig(prime_min=5, prime_max=5, cases=("rel26",), alphas=alphas)
        with pytest.raises(UsageError, match="repeated alpha"):
            config.validate()
        with pytest.raises(UsageError, match="repeated alpha"):
            run_scan(config)

    def test_repeated_case_rejected(self):
        # a repeated case would give each of its records twice
        config = ScanConfig(prime_min=7, prime_max=11, cases=("zhao", "zhao"))
        with pytest.raises(UsageError, match="repeated case"):
            config.validate()
        with pytest.raises(UsageError, match="repeated case"):
            run_scan(config)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_alphas_evaluated_in_ascending_order(self, monkeypatch, workers):
        # the (case, p) sort keeps each group in evaluation order
        started = spy_pools(monkeypatch, force=True)
        given = (Fraction(2), Fraction(-1, 2), 7, Fraction(1, 3), Fraction(0))
        ascending = tuple(sorted(given))
        cases = ("rel26", "thm1", "babbage")
        reports = [
            collected(run_scan(
                ScanConfig(
                    prime_min=3, prime_max=13, cases=cases, alphas=alphas, workers=workers
                )
            ))
            for alphas in (given, ascending)
        ]
        assert emitted(reports[0], "json") == emitted(reports[1], "json")
        assert reports[0].config["alphas"] == ["-1/2", "0", "1/3", "2", "7"]
        for case in ("rel26", "thm1"):
            for p in (3, 5, 7, 11, 13):
                group = [v.alpha for v in reports[0].records if (v.case, v.p) == (case, p)]
                assert group == list(ascending), (case, p)
                assert all(type(alpha) is Fraction for alpha in group)
        assert started == ([2, 2] if workers == 2 else [])


    def test_mixed_alpha_report_pinned(self):
        # every branch of `verify_case`'s alpha loop: the integer-only skip,
        # the non-p-integer skip (thm1 at 1/7, p = 7), a parametric case
        # below its range (coro_63_alpha below 11), a fixed case given four
        # alphas and thm1's exponent 6 at p = 7
        argv = [
            "scan", "--primes", "5..11", "--case",
            "morley,glaisher_rel74,thm1,coro_63_alpha", "--alpha", "1/7,1/2,-1,2",
            "--tightness", "--format", "json", "--workers", "1",
        ]
        report = collected(run_scan(parse_config(argv, {})))
        assert report.summary == {"pass": 21, "fail": 0, "skip": 18}
        assert {(v.case, v.p) for v in report.anomalies} == {("thm1", 5)}
        assert len(report.anomalies) == 4
        assert hashlib.sha256(emitted(report, "json")).hexdigest() == PINNED_MIXED_ALPHAS


# sha256 of the report of `test_mixed_alpha_report_pinned`
PINNED_MIXED_ALPHAS = "154257e6e9c045cb905eb5423f3f0b395f47bf74d6db222f7d538f8db3091b32"

# sha256 of the JSON reports of `scan --primes 3..47` and
# `lemmas --primes 3..47`, the same at any worker count
PINNED_JSON_3_47 = {
    "scan": "043fa64a62681de81ec21ea831af16e047858eaa9a3a5386824ccc96cd8ce4ac",
    "lemmas": "83cd985ad99edc60808393624d0930556f349ef15b7c31f93fbe1003283d5114",
}

# sha256 and length of `scan --primes 3..47 --tightness` as text and CSV, a
# report with alpha values, skip rows with reasons and anomalies
PINNED_3_47_TIGHTNESS = {
    "text": ("1225c6f2937833f90f8113a00ad886cbc6796c3420563d850f36153a5261855e", 222_078),
    "csv": ("0b0909b1d290d469b107c25b66c61c1572d27f537999f68e5bcf0ccba5e66906", 89_792),
}

# sha256 of `scan --primes 3..47 --tightness` as JSON, beside the text and
# CSV pins of PINNED_3_47_TIGHTNESS
PINNED_JSON_3_47_TIGHTNESS = "c4af30fd0ae584ac8198ad978aee9ee8e00e62265daf5d7604c801a13d19dccd"

# Each report of 3..47 in one format, as ((command, tightness), fmt) -> sha256
PINNED_START_METHOD_RUNS = {
    (("scan", False), "json"): PINNED_JSON_3_47["scan"],
    (("lemmas", False), "json"): PINNED_JSON_3_47["lemmas"],
    (("scan", True), "json"): PINNED_JSON_3_47_TIGHTNESS,
    **{(("scan", True), fmt): pin for fmt, (pin, _) in PINNED_3_47_TIGHTNESS.items()},
}

# Every run is too small for a pool to pay, so the script sets the pool
# threshold to -inf and counts the pools started.
_START_METHOD_RUN = """
import ast, hashlib, io, multiprocessing, sys
from congrlab import ScanConfig, emit_report, run_scan, scanner

multiprocessing.set_start_method(sys.argv[1])
scanner._POOL_FACTORS = float("-inf")
pool, started = multiprocessing.Pool, []
multiprocessing.Pool = lambda n: started.append(n) or pool(n)
for (command, tightness), fmt in ast.literal_eval(sys.argv[2]):
    config = ScanConfig(
        command=command, prime_min=3, prime_max=47, workers=2, tightness=tightness
    )
    report = io.BytesIO()
    emit_report(run_scan(config), fmt, report)
    print(command, tightness, fmt, hashlib.sha256(report.getvalue()).hexdigest())
print("pools", started)
"""


class TestStartMethods:
    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_reports_identical_under_every_start_method(self, method):
        # a worker that relied on state the parent set up before the pool
        # started would see none of it under spawn or forkserver; every
        # format streams the same bytes from a pool as from one process
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", _START_METHOD_RUN, method, repr(list(PINNED_START_METHOD_RUNS))],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        *lines, pools = result.stdout.splitlines()
        assert pools == f"pools {[2] * len(PINNED_START_METHOD_RUNS)}"
        pooled = {}
        for line in lines:
            command, tightness, fmt, digest = line.split()
            pooled[(command, tightness == "True"), fmt] = digest
        for ((command, tightness), fmt), pinned in PINNED_START_METHOD_RUNS.items():
            config = ScanConfig(
                command=command, prime_min=3, prime_max=47, tightness=tightness, workers=1
            )
            serial = hashlib.sha256(emitted(run_scan(config), fmt)).hexdigest()
            assert pooled[(command, tightness), fmt] == serial == pinned, (command, fmt)


_SERIAL_RUN = """
import io, sys
import congrlab.cli
from congrlab import ScanConfig, emit_report, run_scan

for command in ("scan", "lemmas"):
    config = ScanConfig(command=command, prime_min=3, prime_max=13, workers=1)
    emit_report(run_scan(config), "csv", io.BytesIO())
print(sorted(name for name in sys.modules if name.startswith("multiprocessing")))
"""


def test_serial_run_imports_no_pool():
    # a 1-worker run starts no pool, so it need not pay for importing one
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _SERIAL_RUN],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def two_cpus(monkeypatch):
    """A CLI run that may use two workers, on any host and environment."""
    monkeypatch.setattr(congrlab.cli, "_available_cpus", lambda: 2)
    monkeypatch.delenv("CONGRLAB_WORKERS", raising=False)


@pytest.mark.parametrize("command", ["scan", "lemmas"])
def test_small_runs_stay_in_one_process(monkeypatch, capsysbinary, command):
    # --workers is an upper bound: 3..47 is too little work to pay for a pool
    two_cpus(monkeypatch)
    calls = []
    monkeypatch.setattr(
        scanner, "_run_tasks", lambda worker, tasks, w: calls.append(w) or []
    )
    assert main([command, "--primes", "3..47", "--workers", "2"]) == 0
    assert calls == [1]


@pytest.mark.parametrize(
    "argv, pinned",
    [
        (
            ["scan", "--primes", "3..1999", "--format", "csv"],
            "108e0dbec11b05ab558d9d3be902a7d6a731d4c4d60d0c8a310bfcf4882492d9",
        ),
        (
            ["lemmas", "--primes", "3..199", "--format", "csv"],
            "997c668ec2f70429b0d34c0ab8ff128a1b82de53b2e88abdff9b782ef5a93e37",
        ),
    ],
    ids=["catalog", "lemmas"],
)
def test_pool_started_where_it_pays(monkeypatch, capsysbinary, argv, pinned):
    # the catalog to 1999 (its B_{p-3}) and the lemma suites do enough
    # O(p) work to pay
    two_cpus(monkeypatch)
    started = spy_pools(monkeypatch)
    assert main(argv + ["--workers", "2"]) == 0
    assert started == [2]
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == pinned


def test_default_catalog_scan_stays_in_one_process(monkeypatch, capsysbinary):
    # its records and cases are most of its work, and a pool does not run
    # them faster; the request the benchmark and CI pin
    two_cpus(monkeypatch)
    started = spy_pools(monkeypatch)
    argv = ["scan", "--primes", "3..499", "--format", "json", "--workers", "2"]
    assert main(argv) == 0
    assert started == []
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == (
        "5f489a1ea85ca9240778d38d2ebbe6460a595bb58f0487aecffa8bf716bde5ce"
    )


WOLSTENHOLME_SWEEP = ("--case", "wolstenholme_rel70", "--tightness")


@pytest.mark.parametrize(
    "argv, workers",
    [
        (["scan", "--primes", "3..97", "--tightness"], 1),
        (["scan", "--primes", "3..199"], 1),
        (["scan", "--primes", "3..499"], 1),
        (["lemmas", "--primes", "3..61"], 1),
        (["scan", "--primes", "5..10000", *WOLSTENHOLME_SWEEP], 1),
        (["scan", "--primes", "5..100000", *WOLSTENHOLME_SWEEP], 1),
        (["scan", "--primes", "16800..16900", *WOLSTENHOLME_SWEEP], 1),
        (["verify", "--case", "thm1", "--p", "10007"], 1),
        (["scan", "--primes", "3..999"], 1),
        (["scan", "--primes", "3..1999"], 2),
        (["scan", "--primes", "3..1999", "--case", "thm1"], 1),
        (["scan", "--primes", "3..2999", "--case", "zhao"], 1),
        (["lemmas", "--primes", "3..199"], 2),
        (["lemmas", "--primes", "200..300"], 2),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_pool_decided_from_the_work(monkeypatch, capsysbinary, argv, workers):
    # the decision alone: no tree is built and no task runs (3..47 is in
    # test_small_runs_stay_in_one_process).  On the tree route a prime's
    # sums and binomials come off its vector, so only B_{p-3}, the central
    # binomial and the lemma suites are worth a pool
    two_cpus(monkeypatch)
    calls = []
    monkeypatch.setattr(
        scanner, "harmonic_vectors", lambda primes, exponents: [None] * len(primes)
    )
    monkeypatch.setattr(
        scanner, "_run_tasks", lambda worker, tasks, w: calls.append(w) or []
    )
    assert main(argv + ["--workers", "2"]) == 0
    assert calls == [workers]


def test_verify_never_starts_a_pool(monkeypatch, capsysbinary):
    # one prime is one task, even where a pool would cost nothing
    two_cpus(monkeypatch)
    started = spy_pools(monkeypatch, force=True)
    assert main(["verify", "--case", "rel26", "--p", "499", "--workers", "2"]) == 0
    assert started == []
    assert b"summary: pass=18 fail=0 skip=0" in capsysbinary.readouterr().out


_CLI_RUN = """
import sys
import congrlab.cli

congrlab.cli._available_cpus = lambda: 2
code = congrlab.cli.main(sys.argv[1:])
print(sorted(name for name in sys.modules if name.startswith("multiprocessing")),
      file=sys.stderr)
sys.exit(code)
"""


def test_wolstenholme_sweep_runs_in_one_process():
    # the tree leaves each prime too little work to pay for a pool; the whole
    # CLI in a fresh process, on the request the benchmark and CI pin
    env = dict(os.environ)
    env.pop("CONGRLAB_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["scan", "--primes", "5..10000", "--case", "wolstenholme_rel70"]
    result = subprocess.run(
        [sys.executable, "-c", _CLI_RUN, *argv, "--tightness", "--workers", "2"],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == b"[]\n"
    assert hashlib.sha256(result.stdout).hexdigest() == (
        "4a936a947f2a8d520066d5359c5313ff5574a7e538097446741e4a378c2fbe4a"
    )


# `scan --primes 3..97 --claimed-ranges --tightness`: failures, skip
# reasons, floor and exact valuations, anomalies
CLAIMED_3_97 = ScanConfig(prime_min=3, prime_max=97, tightness=True, claimed_ranges=True)
PINNED_CLAIMED_3_97_JSON = "0c3c58b329046267b8ba2d64dfe4944f69624d60fb89e4ae0dec3a6a2dd3a29e"


class TestPoolRecords:
    """Records cross the pool as plain tuples and are rebuilt in the parent."""

    @pytest.fixture(scope="class")
    def reports(self):
        with pytest.MonkeyPatch.context() as monkeypatch:
            started = spy_pools(monkeypatch, force=True)
            reports = {
                w: collected(run_scan(CLAIMED_3_97._replace(workers=w))) for w in (1, 2)
            }
        assert started == [2]
        return reports

    def test_pooled_records_equal_serial_ones_field_by_field(self, reports):
        serial, pooled = reports[1].records, reports[2].records
        assert len(serial) == len(pooled) > 0
        for a, b in zip(serial, pooled):
            # tuple equality alone takes Fraction(2) for 2 and a Valuation
            # for a plain pair, so compare the types as well
            assert a == b
            assert [type(x) for x in a] == [type(x) for x in b], a
        assert reports[1].anomalies == reports[2].anomalies
        assert reports[1].summary == reports[2].summary

    @pytest.mark.parametrize("workers", [1, 2])
    def test_records_are_typed(self, reports, workers):
        report = reports[workers]
        floors = set()
        for v in report.records:
            assert type(v) is Verdict
            assert v.alpha is None or type(v.alpha) is Fraction
            if v.status == SKIP:
                assert (v.m, v.lhs, v.rhs, v.valuation) == (None,) * 4
                assert v.reason
                continue
            assert (type(v.m), type(v.lhs), type(v.rhs)) == (int, int, int)
            assert type(v.valuation) is Valuation
            assert type(v.valuation.value) is int
            assert type(v.valuation.is_floor) is bool
            floors.add(v.valuation.is_floor)
        assert floors == {True, False}
        assert report.summary["fail"] == 6
        assert len(report.anomalies) > report.summary["fail"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_records_equal_verify_case(self, reports, workers):
        contexts = {}
        for v in reports[workers].records:
            if v.p not in contexts:
                cases = [c for c in congruences.CATALOG.values() if v.p >= c.claimed_min_p]
                modulus = PrimePowerModulus(v.p, 8)
                record = prime_record(modulus, ingredients(cases))
                contexts[v.p] = PrimeContext(modulus, record)
            assert verify_case(v.case, v.p, [v.alpha], True, contexts[v.p], True)[0] == v

    @pytest.mark.parametrize("workers", [1, 2])
    def test_json_pinned(self, reports, workers):
        data = emitted(reports[workers], "json")
        assert hashlib.sha256(data).hexdigest() == PINNED_CLAIMED_3_97_JSON


def assert_lean(records) -> None:
    """A passing record holds one residue for both sides, and each distinct
    case name and valuation is one object shared by every record with it."""
    passes = [v for v in records if v.status == PASS]
    assert passes and all(v.rhs is v.lhs for v in passes)
    assert any(v.lhs > 256 for v in passes)  # past the small ints CPython shares
    for name in ("case", "valuation"):
        values = [getattr(v, name) for v in records]
        assert len({id(x) for x in values}) == len(set(values)), name


class TestLeanRecords:
    def test_serial_scan_records_are_lean(self):
        assert_lean(collected(run_scan(CLAIMED_3_97)).records)

    def test_serial_lemma_records_are_lean(self):
        config = ScanConfig(command="lemmas", prime_min=3, prime_max=61)
        assert_lean(collected(run_scan(config)).records)

    def test_pooled_lemma_records_are_lean(self, monkeypatch):
        # pickling shares nothing between batches, so the parent must
        started = spy_pools(monkeypatch, force=True)
        config = ScanConfig(command="lemmas", prime_min=200, prime_max=300, workers=2)
        report = collected(run_scan(config))
        assert started == [2]
        assert_lean(report.records)
        assert hashlib.sha256(emitted(report, "csv")).hexdigest() == (
            "37db05458bfb99e77a0b2faa753f5f3568b9bfc23f07d6074c4e62707081d9ce"
        )


class TestIngredientRecord:
    """Each O(p) pass of a record runs once per prime whose cases read it,
    on either route, before any case is evaluated."""

    def test_each_pass_runs_once_per_prime_that_reads_it(self, monkeypatch):
        def readers(names):
            return [
                p for p in odd_primes_between(3, 47)
                if any(
                    p >= case.min_p and names & {t.x for t in case.lhs + case.rhs}
                    for case in congruences.CATALOG.values()
                )
            ]

        for tree in (False, True):
            force_route(monkeypatch, tree)
            calls = {}
            for module, name in (
                (scanner, "power_sum_table"),
                (congruences, "bernoulli_pm3"),
                (congruences, "signed_central_binomial"),
            ):
                real, seen = getattr(module, name), calls.setdefault(name, [])

                def spy(arg, *rest, real=real, seen=seen):
                    seen.append(getattr(arg, "p", arg))  # a modulus or a prime
                    return real(arg, *rest)

                monkeypatch.setattr(module, name, spy)
            report = run_scan(ScanConfig(prime_min=3, prime_max=47, workers=1))
            evaluated = {name: list(seen) for name, seen in calls.items()}
            emitted(report, "csv")
            assert calls == evaluated, tree  # reading the records computes nothing
            # both routes read the sums off a vector; the tree route checks
            # them against one pass at the largest prime
            assert calls["power_sum_table"] == ([47] if tree else []), tree
            assert calls["bernoulli_pm3"] == readers({"B"}), tree
            assert calls["signed_central_binomial"] == readers({"central"}), tree
            assert 3 not in calls["bernoulli_pm3"] and 47 in calls["bernoulli_pm3"]
            monkeypatch.undo()


class TestOnePath:
    """One context per prime serves every case, and `verdicts.judge` judges
    every row that is not skipped, catalog and lemma alike."""

    def test_default_scan_builds_one_context_per_prime(self, monkeypatch):
        contexts, inverses = [], []
        init, rat = PrimeContext.__init__, PrimeContext.rat

        def counted_init(self, modulus, record):
            contexts.append(modulus.p)
            init(self, modulus, record)

        def counted_rat(self, q):
            known = len(self._inverses)
            residue = rat(self, q)
            inverses.append(len(self._inverses) - known)
            return residue

        monkeypatch.setattr(PrimeContext, "__init__", counted_init)
        monkeypatch.setattr(PrimeContext, "rat", counted_rat)
        report = collected(run_scan(ScanConfig()))
        assert report.summary == {"pass": 14626, "fail": 0, "skip": 2482}
        # a context per (case, p) built 2,726 and computed 5,914 inverses;
        # 929 when the denominator 1 of every integer coefficient took one
        assert contexts == odd_primes_between(3, 499)
        assert sum(inverses) == 835  # one per (p, denominator > 1)

    @pytest.mark.parametrize(
        "config",
        [
            ScanConfig(prime_min=3, prime_max=47, tightness=True),
            ScanConfig(command="lemmas", prime_min=3, prime_max=47),
        ],
        ids=["scan", "lemmas"],
    )
    def test_judge_judges_each_row_not_skipped(self, monkeypatch, config):
        judged, judge = [], verdicts.judge

        def counted(*args):
            judged.append(args[0])
            return judge(*args)

        monkeypatch.setattr(congruences, "judge", counted)
        monkeypatch.setattr(scanner, "judge", counted)
        report = collected(run_scan(config))
        assert report.summary["skip"] > 0
        assert judged == [v.case for v in report.records if v.status != SKIP]


class TestWolstenholmePrime:
    """Known answers at 16843, the first Wolstenholme prime (McIntosh 1995)."""

    B_CASES = {"wolstenholme_rel70", "morley", "glaisher_rel74"}

    @staticmethod
    def _anomalies(p):
        report = collected(run_scan(ScanConfig(prime_min=p, prime_max=p, tightness=True)))
        assert report.summary["fail"] == 0
        return {(v.case, v.alpha) for v in report.anomalies}

    def test_bernoulli_vanishes_mod_p_only_there(self):
        for p in (16843, 16829):
            b = prime_record(PrimePowerModulus(p, 2), {"B"})["B"]
            assert (b % p == 0) == (p == 16843), p

    def test_b_zero_mod_p_strengthens_the_catalog(self):
        found = self._anomalies(16843)
        assert {("wolstenholme_rel70", None), ("morley", None), ("babbage", None)} <= found
        assert {("glaisher_rel74", Fraction(n)) for n in range(1, 7)} <= found

    def test_ordinary_prime_only_universal_strengthenings(self):
        # babbage holds mod p^3 at every p >= 5 (Wolstenholme's theorem) and
        # glaisher_rel74 at n = 1 is C(p-1, p-1) = 1 exactly
        found = self._anomalies(16829)
        flagged = {(c, a) for c, a in found if c in self.B_CASES | {"babbage"}}
        assert flagged == {("babbage", None), ("glaisher_rel74", Fraction(1))}


def force_route(monkeypatch, tree: bool) -> list:
    """Force the binomial route; returns the list of harmonic_vectors calls."""
    calls = []
    build = scanner.harmonic_vectors

    def spy(primes, exponents):
        calls.append(len(primes))
        return build(primes, exponents)

    monkeypatch.setattr(scanner, "_tree_pays", lambda *args: tree)
    monkeypatch.setattr(scanner, "harmonic_vectors", spy)
    return calls


def count_product_route(monkeypatch) -> list:
    """Count binom_alpha_mod calls wherever the package binds it."""
    calls = []
    product = congruences.binom_alpha_mod

    def counted(*args, **kwargs):
        calls.append(args[1].p)
        return product(*args, **kwargs)

    monkeypatch.setattr(congruences, "binom_alpha_mod", counted)
    return calls


WOLSTENHOLME = ("wolstenholme_rel70",)


class TestBinomialRoutes:
    """Both routes give the same report; the cost model picks between them."""

    @pytest.mark.parametrize(
        "config, tree",
        [
            (ScanConfig(), True),
            (ScanConfig(prime_min=5, prime_max=10_000, cases=WOLSTENHOLME), True),
            (
                ScanConfig(
                    prime_min=1_000_003, prime_max=1_000_003, cases=WOLSTENHOLME
                ),
                False,
            ),
            (ScanConfig(prime_min=16_843, prime_max=16_843, tightness=True), False),
            (ScanConfig(prime_min=16_800, prime_max=16_900, cases=WOLSTENHOLME), False),
            (ScanConfig(cases=("rel34", "rel63")), True),
        ],
        ids=["catalog", "sweep", "one-prime", "16843", "narrow", "no-binomial"],
    )
    def test_route_chosen_from_the_request(self, monkeypatch, config, tree):
        built = []

        def no_vectors(primes, exponents):
            built.append(len(primes))
            return [None] * len(primes)

        monkeypatch.setattr(scanner, "harmonic_vectors", no_vectors)
        monkeypatch.setattr(scanner, "_run_tasks", lambda *args: [])
        run_scan(config)
        assert bool(built) == tree

    @pytest.mark.parametrize(
        "config",
        [
            ScanConfig(prime_min=3, prime_max=61, tightness=True),
            ScanConfig(prime_min=3, prime_max=31, tightness=True, claimed_ranges=True),
            ScanConfig(prime_min=101, prime_max=149, alphas=(Fraction(1, 3), 7)),
        ],
        ids=["catalog", "claimed", "late-start"],
    )
    def test_routes_give_identical_reports(self, monkeypatch, config):
        reports = {}
        for tree in (False, True):
            calls = force_route(monkeypatch, tree)
            reports[tree] = emitted(run_scan(config), "json")
            assert bool(calls) == tree
        assert reports[True] == reports[False]

    def test_known_answer_off_the_bottom_of_the_range(self, monkeypatch):
        # the first leaf is the whole product below 16811
        config = ScanConfig(
            prime_min=16_800, prime_max=16_900, cases=WOLSTENHOLME, tightness=True
        )
        reports = {}
        for tree in (False, True):
            calls = force_route(monkeypatch, tree)
            reports[tree] = run_scan(config)
            assert calls == ([9] if tree else [])  # 16811 .. 16889
        texts = {tree: emitted(r, "text") for tree, r in reports.items()}
        assert texts[True] == texts[False]
        assert [v.p for v in reports[True].anomalies] == [16_843]
        assert reports[True].summary == {"pass": 9, "fail": 0, "skip": 0}

    def test_wide_scan_runs_the_product_route_once(self, monkeypatch, capsysbinary):
        calls = count_product_route(monkeypatch)
        argv = ["scan", "--primes", "5..10000", "--case", "wolstenholme_rel70"]
        assert main(argv + ["--workers", "1"]) == 0
        # the cross-check at the largest prime: f(2) for the interpolation
        # modulo p^3, and f(3), which checks it
        assert calls == [9973, 9973]

    def test_sums_only_scan_takes_the_tree(self, monkeypatch, capsysbinary):
        # rel34 and rel63 read no binomial, but the tree saves each prime the
        # products of its vector; one power_sum_table pass is left, the check
        # at the largest prime
        built, sums = [], []
        vectors, table = scanner.harmonic_vectors, scanner.power_sum_table

        def tree(primes, exponents):
            built.append(len(primes))
            return vectors(primes, exponents)

        def sums_pass(modulus, n):
            sums.append(modulus.p)
            return table(modulus, n)

        monkeypatch.setattr(scanner, "harmonic_vectors", tree)
        monkeypatch.setattr(scanner, "power_sum_table", sums_pass)
        argv = ["scan", "--primes", "3..3000", "--case", "rel34,rel63", "--tightness"]
        assert main(argv + ["--format", "csv", "--workers", "1"]) == 0
        assert built == [429] and sums == [2999]
        # pinned at the parent commit, whose product route took 1.6 s
        assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == (
            "d5b73c8a8f06e2e07469e83ca5f542649dbdc54a4c10504dacee54e6dfcd825a"
        )

    def test_single_prime_builds_no_tree(self, monkeypatch, capsysbinary):
        def refuse(primes, exponents):
            raise AssertionError("a single prime built the tree")

        monkeypatch.setattr(scanner, "harmonic_vectors", refuse)
        argv = ["verify", "--case", "wolstenholme_rel70", "--p", "1000003"]
        assert main(argv) == 0
        assert b"summary: pass=1 fail=0 skip=0" in capsysbinary.readouterr().out

    @pytest.mark.parametrize("leaf_start", [1, 499, 991])
    def test_corrupted_leaf_fails_the_cross_check(self, monkeypatch, capsys, leaf_start):
        # each of 1, 499 and 991 opens one leaf of the tree over 5..1000, the
        # leaf of 5, 503 and 997; one t more there moves c_1 by a unit at
        # that prime, which its Fermat check sees
        self.corrupt_leaf(monkeypatch, leaf_start, 1)
        argv = ["scan", "--primes", "5..1000", "--case", "wolstenholme_rel70"]
        assert main(argv + ["--workers", "1"]) == 3
        p = {1: 5, 499: 503, 991: 997}[leaf_start]
        err = capsys.readouterr().err
        assert err == f"congrlab: internal error: Fermat check fails at p={p}\n"

    def test_fault_of_a_multiple_of_p_fails_the_cross_check(self, monkeypatch, capsys):
        # 997 t more in the largest prime's leaf leaves its c modulo 997 as
        # it was; the comparison with the product route sees it
        self.corrupt_leaf(monkeypatch, 991, 997)
        argv = ["scan", "--primes", "5..1000", "--case", "wolstenholme_rel70"]
        assert main(argv + ["--workers", "1"]) == 3
        err = capsys.readouterr().err
        assert err == "congrlab: internal error: harmonic vector mismatch at p=997\n"

    @pytest.mark.parametrize(
        "node, p",
        [("leaf", 79), ("up", 83), ("left", 193), ("right", 577), ("hand-off", 883)],
    )
    def test_fault_at_each_kind_of_tree_node(self, monkeypatch, capsys, tmp_path, node, p):
        # one t more at one node of the tree over the 166 primes 5..1000, off
        # its right spine, so the product route at 997 cannot see it: leaf
        # (73, 79); the up pass's product of leaves 0..19, which leaf 20's
        # prefix reads; node (41, 83)'s prefix for its left child (leaf 41
        # first); node (83, 124)'s for its right child (leaf 103 first); and
        # leaf 150's prefix times its leaf.  The first prime it reaches fails
        # its Fermat check
        def frame_of(name):
            frame = sys._getframe(2)
            while frame is not None and frame.f_code.co_name != name:
                frame = frame.f_back
            return {} if frame is None else frame.f_locals

        def at(name, lo, hi):
            f = frame_of(name)
            return (f.get("lo"), f.get("hi")) == (lo, hi)

        rising, times, real_divmod = harmonic._rising, harmonic._times_mod_t, divmod

        def moved_rising(lo, hi, d):
            c = rising(lo, hi, d)
            c[1] += (lo, hi) == (73, 79)
            return c

        nodes = {"up": ("up", 0, 20), "right": ("down", 83, 124), "hand-off": ("down", 150, 151)}

        def moved_times(a, b, d):
            c = times(a, b, d)
            c[1] += at(*nodes[node])
            return c

        def moved_divmod(x, m):
            q, r = real_divmod(x, m)
            return q, r + (at("down", 41, 83) and m == frame_of("down")["m_left"])

        if node == "leaf":
            monkeypatch.setattr(harmonic, "_rising", moved_rising)
        elif node == "left":
            monkeypatch.setattr(harmonic, "divmod", moved_divmod, raising=False)
        else:
            monkeypatch.setattr(harmonic, "_times_mod_t", moved_times)
        target = tmp_path / "report.txt"
        target.write_bytes(b"an earlier report\n")
        argv = ["scan", "--primes", "5..1000", "--case", "wolstenholme_rel70"]
        assert main(argv + ["--workers", "1", "-o", str(target)]) == 3
        error = f"Fermat check fails at p={p}"
        assert capsys.readouterr().err == f"congrlab: internal error: {error}\n"
        assert target.read_bytes() == b"an earlier report\n"

    @staticmethod
    def corrupt_leaf(monkeypatch, leaf_start, offset):
        rising = harmonic._rising

        def moved(lo, hi, d):
            c = rising(lo, hi, d)
            if lo == leaf_start:
                c[1] += offset
            return c

        monkeypatch.setattr(harmonic, "_rising", moved)


RECORD_KEYS = ["case", "p", "alpha", "m", "lhs", "rhs", "status", "valuation", "reason"]

# text that JSON must escape: quotes, backslashes, control characters,
# non-ASCII and lone surrogates, among any other characters
_TEXT = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é€😀\ud800') | st.characters(),
    max_size=12,
)
_RESIDUES = st.none() | st.integers(-(10**400), 10**400)
VERDICTS = st.builds(
    Verdict,
    case=_TEXT,
    p=st.integers(0, 10**30),
    alpha=st.none() | st.fractions(),
    m=st.none() | st.integers(0, 10**30),
    lhs=_RESIDUES,
    rhs=_RESIDUES,
    status=_TEXT,
    valuation=st.none() | st.builds(Valuation, st.integers(0, 100), st.booleans()),
    reason=_TEXT,
)


# text the csv module quotes or passes through: delimiters, quotes, line
# breaks, spaces and non-ASCII, among any other characters but surrogates,
# which UTF-8 cannot encode
_CSV_TEXT = st.text(
    st.sampled_from(',"\r\n \t\'é€😀') | st.characters(exclude_categories=("Cs",)),
    max_size=12,
)
# the same less what the csv module quotes, which no case id, lemma name or
# status holds (`TestEmission.test_no_emitted_name_needs_csv_quoting`)
_CSV_NAME = st.text(
    st.sampled_from(" \t'é€😀")
    | st.characters(exclude_categories=("Cs",), exclude_characters=',"\r\n'),
    max_size=12,
)


@st.composite
def csv_verdicts(draw):
    """Verdicts with free-text case, status and reason, every nullable field
    None or not, and residues to 10^400 whose two sides are often equal.
    Case and status need no CSV quoting; the reason, which CSV leaves out,
    may."""
    lhs = draw(_RESIDUES)
    return Verdict(
        case=draw(_CSV_NAME),
        p=draw(st.integers(0, 10**30)),
        alpha=draw(st.none() | st.fractions()),
        m=draw(st.none() | st.integers(0, 10**30)),
        lhs=lhs,
        rhs=lhs if draw(st.booleans()) else draw(_RESIDUES),
        status=draw(st.sampled_from([PASS, FAIL, SKIP]) | _CSV_NAME),
        # few values, so exact and floor valuations of one value meet
        valuation=draw(st.none() | st.builds(Valuation, st.integers(0, 3), st.booleans())),
        reason=draw(_CSV_TEXT),
    )


class TestEmission:
    def test_empty_report_json(self):
        cfg = ScanConfig(prime_min=3, prime_max=3, cases=("mestrovic80",))
        report = run_scan(cfg)  # single skip record
        payload = json.loads(emitted(report, "json"))
        assert payload["summary"] == {"pass": 0, "fail": 0, "skip": 1}
        assert payload["anomalies"] == []
        assert payload["config"]["prime_min"] == 3

    def test_csv_line_for_wolstenholme(self):
        cfg = ScanConfig(prime_min=5, prime_max=5, cases=("wolstenholme_rel70",))
        data = emitted(run_scan(cfg), "csv").decode()
        lines = data.splitlines()
        assert lines[0] == "case,p,alpha,m,lhs,rhs,status,valuation"
        assert lines[1] == "wolstenholme_rel70,5,,3,1,1,pass,>=3"

    def test_no_emitted_name_needs_csv_quoting(self):
        # `_emit_csv` writes case and status as they are, which is what the
        # csv module writes for text with no comma, quote or line break
        names = set(congruences.CATALOG) | {PASS, FAIL, SKIP}
        for p in (3, 5, 7, 11, 13, 31):
            names.update(v.case for v in verdicts_of(scanner.run_lemma_suites(p)))
        for name in names:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerow([name, None])
            assert buf.getvalue() == name + ",\n", name

    def test_text_contains_summary_and_anomalies(self):
        cfg = ScanConfig(prime_min=5, prime_max=5, cases=("morley",))
        text = emitted(run_scan(cfg), "text").decode()
        assert "summary: pass=1 fail=0 skip=0" in text
        assert "anomalies: none" in text
        assert text.endswith("\n") and "\r" not in text

    def test_json_round_trip(self):
        # every field of every record and anomaly can be read back from JSON
        report = collected(run_scan(ScanConfig(prime_min=3, prime_max=13, tightness=True)))
        assert report.anomalies and any(v.reason for v in report.records)
        payload = json.loads(emitted(report, "json"))
        assert payload["summary"] == report.summary

        def parsed(value, convert):
            return None if value is None else convert(value)

        for key in ("records", "anomalies"):
            verdicts = getattr(report, key)
            assert len(payload[key]) == len(verdicts)
            for d, v in zip(payload[key], verdicts):
                assert list(d) == RECORD_KEYS
                assert (d["case"], d["status"]) == (v.case, v.status)
                assert (int(d["p"]), parsed(d["m"], int)) == (v.p, v.m)
                assert parsed(d["lhs"], int) == v.lhs
                assert parsed(d["rhs"], int) == v.rhs
                assert parsed(d["alpha"], Fraction) == v.alpha
                assert d["valuation"] == parsed(v.valuation, str)
                assert d["reason"] == (v.reason or None)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_text_and_csv_pinned(self, monkeypatch, workers):
        started = spy_pools(monkeypatch, force=True)
        config = ScanConfig(prime_min=3, prime_max=47, tightness=True, workers=workers)
        report = collected(run_scan(config))
        assert started == ([2] if workers == 2 else [])
        for fmt, pinned in PINNED_3_47_TIGHTNESS.items():
            data = emitted(report, fmt)
            assert (hashlib.sha256(data).hexdigest(), len(data)) == pinned, fmt

    @pytest.mark.parametrize(
        "cfg",
        [
            ScanConfig(prime_min=24, prime_max=28),
            ScanConfig(prime_min=3, prime_max=11, tightness=True, claimed_ranges=True),
            ScanConfig(prime_min=3, prime_max=13, cases=("thm1", "rel34", "morley")),
        ],
        ids=["empty", "anomalies", "normal"],
    )
    def test_json_bytes_match_indented_dumps(self, cfg):
        report = collected(run_scan(cfg))
        payload = {
            "config": report.config,
            "records": [record_dict(v) for v in report.records],
            "summary": report.summary,
            "anomalies": [record_dict(v) for v in report.anomalies],
        }
        expected = json.dumps(payload, indent=2) + "\n"
        assert emitted(report, "json") == expected.encode()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(VERDICTS, max_size=4), st.lists(VERDICTS, max_size=2))
    def test_json_template_matches_the_encoder(self, records, anomalies):
        # strings that need escaping, huge residues, every field None or not
        report = ScanReport({"command": "scan"}, records, {"pass": 1}, anomalies)
        assert "".join(scanner._json_records(records)) == json_records(records)
        payload = {
            "config": report.config,
            "records": [record_dict(v) for v in records],
            "summary": report.summary,
            "anomalies": [record_dict(v) for v in anomalies],
        }
        expected = json.dumps(payload, indent=2) + "\n"
        assert emitted(report, "json") == expected.encode()

    def test_json_formats_a_passing_residue_once(self):
        # a pass holds one residue for both sides; its decimal string is
        # made once and written for both
        class Counted(int):
            calls = 0

            def __format__(self, spec):
                Counted.calls += 1
                return int.__repr__(self)

            def __str__(self):
                return self.__format__("")

        residue = Counted(6)
        record = Verdict("morley", 5, None, 3, residue, residue, PASS, Valuation(3, True))
        data = emitted(ScanReport({"command": "scan"}, [record], {"pass": 1}, []), "json")
        assert Counted.calls == 1
        assert b'"lhs": "6",\n      "rhs": "6",' in data

    @settings(max_examples=200, deadline=None)
    @given(st.lists(csv_verdicts(), max_size=4))
    def test_csv_template_matches_the_writer(self, records):
        report = ScanReport({"command": "scan"}, records, {"pass": 1}, [])
        assert emitted(report, "csv") == csv_report(records)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(csv_verdicts(), max_size=4), st.lists(csv_verdicts(), max_size=2))
    def test_text_template_matches_ljust(self, records, anomalies):
        summary = {"pass": 1, "fail": 2, "skip": 3}
        report = ScanReport({"command": "scan"}, records, summary, anomalies)
        assert emitted(report, "text") == text_report(report)

    @pytest.mark.parametrize(
        "cfg",
        [
            ScanConfig(command="lemmas", prime_min=3, prime_max=23),
            ScanConfig(prime_min=3, prime_max=23, tightness=True, claimed_ranges=True),
        ],
        ids=["lemmas", "anomalies"],
    )
    def test_csv_and_text_match_the_oracles(self, cfg):
        report = collected(run_scan(cfg))
        assert emitted(report, "csv") == csv_report(report.records)
        assert emitted(report, "text") == text_report(report)

    @pytest.mark.parametrize(
        "config, fmt, size, bound",
        [
            (ScanConfig(), "json", 3_701_999, 1 << 20),
            (ScanConfig(prime_max=997), "json", 6_640_498, 1 << 20),
            (
                ScanConfig(command="lemmas", prime_min=3, prime_max=199),
                "csv",
                5_442_609,
                5 << 19,
            ),
        ],
        ids=["default-scan-json", "scan-to-997-json", "lemmas-csv"],
    )
    def test_emission_memory_is_bounded(self, config, fmt, size, bound):
        # a few hundred records at a time, never the whole report at once,
        # and the peak counts `run_scan` too.  A scan's records are evaluated
        # as they are written, case by case from one record per prime, so no
        # record list is held.  `lemmas` holds one lemma record per prime and
        # builds and judges each of its 40,251 rows as it is written: 2.0 MiB,
        # where holding every row judged took 3.7 MiB, and its verdicts
        # sorted by name 7.0 MB
        discard = SimpleNamespace(write=len)
        tracemalloc.start()
        try:
            written = emit_report(run_scan(config), fmt, discard)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert written == size
        assert peak < bound

    def test_unknown_format_rejected(self):
        cfg = ScanConfig(prime_min=5, prime_max=5, cases=("babbage",))
        report = run_scan(cfg)
        out = io.BytesIO()
        with pytest.raises(UsageError):
            emit_report(report, "yaml", out)
        assert out.getvalue() == b""


SMALL_SCAN = ("scan", "--primes", "7..11")


class TestCliContract:
    def test_exit_zero_on_clean_scan(self, capsysbinary):
        code = main(["scan", "--primes", "5..13", "--case", "morley"])
        assert code == 0
        out = capsysbinary.readouterr().out
        assert b"summary:" in out

    def test_exit_one_on_failure(self, monkeypatch, capsysbinary):
        # one prime on the tree route, where n = min(m, p) = 3 < m = 6: the
        # record's polynomial is m long on both routes, so the cross-check
        # passes and the failure is the congruence's
        vectors = []
        build = scanner.harmonic_vectors
        monkeypatch.setattr(
            scanner, "harmonic_vectors",
            lambda primes, exponents: vectors.append(primes) or build(primes, exponents),
        )
        code = main(
            [
                "scan",
                "--primes",
                "3..3",
                "--case",
                "rel38",
                "--alpha",
                "2",
                "--claimed-ranges",
            ]
        )
        assert code == 1
        assert vectors == [[3]]
        out = capsysbinary.readouterr().out
        assert b"rel38 p=3 alpha=2 status=fail m=6 valuation=4\n" in out

    def test_exit_two_on_usage_error(self, capsys):
        assert main(["scan", "--primes", "banana"]) == 2
        assert "congrlab:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, error",
        [
            ([*SMALL_SCAN, "--alpha", "2,2"], "repeated alpha"),
            ([*SMALL_SCAN, "--alpha", "2,4/2"], "repeated alpha"),
            ([*SMALL_SCAN, "--alpha", "2", "--alpha", "1/2,2"], "repeated alpha"),
            (["verify", "--case", "thm1", "--p", "7", "--alpha", "2,2"], "repeated alpha"),
            ([*SMALL_SCAN, "--case", "zhao,zhao"], "repeated case"),
            ([*SMALL_SCAN, "--case", "zhao", "--case", "morley,zhao"], "repeated case"),
        ],
    )
    def test_exit_two_on_a_repeat(self, capsysbinary, argv, error):
        assert main(argv) == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err == f"congrlab: {error}\n".encode()

    @pytest.mark.parametrize(
        "argv, error",
        [
            ([*SMALL_SCAN, "--case", "zhao,all"], "--case all takes no other case id"),
            ([*SMALL_SCAN, "--case", "all", "--case", "all"],
             "--case all takes no other case id"),
            (["verify", "--case", "all", "--p", "7", "--alpha", "2"],
             "verify takes one catalog case id, got 'all'"),
            (["verify", "--case", "zhao,mcintosh", "--p", "11"],
             "verify takes one catalog case id, got 'zhao,mcintosh'"),
            (["verify", "--case", "nonesuch", "--p", "11"],
             "verify takes one catalog case id, got 'nonesuch'"),
        ],
    )
    def test_exit_two_on_a_bad_case_list(self, capsysbinary, argv, error):
        assert main(argv) == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err == f"congrlab: {error}\n".encode()

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["scan", "--case", ",", "--primes", "7..7", "--alpha", "2"],
             "--case names nothing"),
            ([*SMALL_SCAN, "--case", " , ", "--case", ""], "--case names nothing"),
            ([*SMALL_SCAN, "--alpha", ""], "--alpha names nothing"),
            ([*SMALL_SCAN, "--alpha", ",,"], "--alpha names nothing"),
            (["verify", "--case", "thm1", "--p", "7", "--alpha", ""],
             "--alpha names nothing"),
        ],
    )
    def test_exit_two_on_a_flag_naming_nothing(self, capsysbinary, argv, error):
        # an empty list is not the flag left out, which keeps its default
        assert main(argv) == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err == f"congrlab: {error}\n".encode()

    def test_case_all_on_its_own_is_the_catalog(self, capsysbinary):
        argv = [*SMALL_SCAN, "--alpha", "2", "--format", "json"]
        assert main([*argv, "--case", "all"]) == 0
        every = capsysbinary.readouterr().out
        assert main(argv) == 0
        assert capsysbinary.readouterr().out == every

    def test_exit_two_on_unwritable_output(self, capsys):
        code = main(
            ["scan", "--primes", "5..5", "--case", "babbage", "-o", "/nonexistent/x"]
        )
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_exit_three_on_internal_error(self, monkeypatch, capsys):
        def broken(config):
            raise CongrlabError("central binomial transfer mismatch at p=5")

        monkeypatch.setattr(congrlab.cli, "run_scan", broken)
        assert main(["scan", "--primes", "5..5", "--case", "morley"]) == 3
        err = capsys.readouterr().err
        assert err == "congrlab: internal error: central binomial transfer mismatch at p=5\n"

    @pytest.mark.parametrize(
        "error, line",
        [
            (MemoryError(), "MemoryError()"),
            (RuntimeError("no such ingredient"), "RuntimeError('no such ingredient')"),
        ],
        ids=["memory", "bug"],
    )
    def test_exit_three_on_any_other_exception(self, monkeypatch, capsys, error, line):
        # exit 1 would claim that a congruence failed
        def broken(config):
            raise error

        monkeypatch.setattr(congrlab.cli, "run_scan", broken)
        assert main(["scan", "--primes", "5..5", "--case", "morley"]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"congrlab: internal error: {line}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, broken, code",
        [
            (["scan", "--primes", "9..3"], None, 2),
            (["scan", "--primes", "5..5"], CongrlabError("mismatch at p=5"), 3),
            (["scan", "--primes", "5..5"], MemoryError(), 3),
        ],
        ids=["usage", "internal", "memory"],
    )
    def test_failed_run_leaves_output_untouched(
        self, monkeypatch, capsys, tmp_path, argv, broken, code
    ):
        def refuse(config):
            raise broken

        if broken is not None:
            monkeypatch.setattr(congrlab.cli, "run_scan", refuse)
        target = tmp_path / "report.txt"
        target.write_bytes(b"an earlier report\n")
        assert main(argv + ["--case", "morley", "-o", str(target)]) == code
        assert target.read_bytes() == b"an earlier report\n"

    @pytest.mark.parametrize(
        "argv, corrupt, error",
        [
            (
                ["scan", "--primes", "5..1000", "--case", "wolstenholme_rel70"],
                "vector",
                "Fermat check fails at p=503",
            ),
            (
                ["scan", "--primes", "3..1000", "--case", "rel34,rel63"],
                "H3",
                "power sums off the harmonic vector mismatch at p=997",
            ),
            (
                ["scan", "--primes", "3..1000", "--case", "rel34,rel63"],
                "table",
                "power sums off the harmonic vector mismatch at p=997",
            ),
            (
                ["scan", "--primes", "5..200", "--case", "coro_rel2"],
                "B",
                "B_98 fails Glaisher's S_2 congruence at p=101",
            ),
            (
                ["scan", "--primes", "5..200", "--case", "morley"],
                "central",
                "central binomial transfer mismatch at p=101",
            ),
            (
                ["lemmas", "--primes", "3..47"],
                "shift",
                "Taylor shift slot 3 is not exact at p=47",
            ),
            (
                ["lemmas", "--primes", "97..101"],
                "lemma-table",
                "Fermat check fails at p=101",
            ),
        ],
        ids=[
            "vector", "sums", "sums-table", "glaisher", "central", "lemma-shift",
            "lemma-table",
        ],
    )
    def test_failed_check_leaves_output_untouched(
        self, monkeypatch, capsys, tmp_path, argv, corrupt, error
    ):
        # each check runs while the records are filled, before -o opens; a
        # lemma suite's checks run while it builds its slice of the prime's
        # lemma record, and no row of any prime is built before -o opens
        if corrupt in ("vector", "lemma-table"):  # a tree leaf; the table's product
            rising = harmonic._rising
            where = (499, 503) if corrupt == "vector" else (1, 101)

            def off_by_one(lo, hi, d):
                c = rising(lo, hi, d)
                if (lo, hi) == where:
                    c[1] += 1
                return c

            monkeypatch.setattr(harmonic, "_rising", off_by_one)
        elif corrupt == "H3":  # read only through S_3
            build = scanner.harmonic_vectors

            def corrupted(primes, exponents):
                vectors = build(primes, exponents)
                h = vectors[-1]
                vectors[-1] = h[:3] + ((h[3] + 1) % primes[-1] ** exponents[-1],) + h[4:]
                return vectors

            monkeypatch.setattr(scanner, "harmonic_vectors", corrupted)
        elif corrupt == "table":  # the one route to the sums off no vector
            table = scanner.power_sum_table

            def s1_off(modulus, n):
                s1, *rest = table(modulus, n)
                return (s1 + 1, *rest)

            monkeypatch.setattr(scanner, "power_sum_table", s1_off)
        elif corrupt == "shift":  # the reflection suite's, at the largest prime
            shift = harmonic._shift_by_p

            def slot_off(s, p, pm):
                slots = shift(s, p, pm)
                if p == 47:
                    slots[3] += 1
                return slots

            monkeypatch.setattr(harmonic, "_shift_by_p", slot_off)
        else:
            name = {"B": "bernoulli_pm3", "central": "signed_central_binomial"}[corrupt]
            real = getattr(congruences, name)
            monkeypatch.setattr(
                congruences, name, lambda p: real(p) + (p == 101)
            )
        target = tmp_path / "report.txt"
        target.write_bytes(b"an earlier report\n")
        assert main(argv + ["--workers", "1", "-o", str(target)]) == 3
        assert capsys.readouterr().err == f"congrlab: internal error: {error}\n"
        assert target.read_bytes() == b"an earlier report\n"

    def test_product_route_runs_glaisher(self, monkeypatch, capsys, tmp_path):
        # one prime takes the product route, whose vector gives S_2 mod p^2
        # at carlitz's m = 4, so a B_{p-3} off by one is an internal error,
        # not a failed congruence (which exited 1)
        real = congruences.bernoulli_pm3
        monkeypatch.setattr(congruences, "bernoulli_pm3", lambda p: (real(p) + 1) % p**2)
        target = tmp_path / "report.txt"
        target.write_bytes(b"an earlier report\n")
        argv = ["verify", "--case", "carlitz", "--p", "10007", "-o", str(target)]
        assert main(argv) == 3
        error = "B_10004 fails Glaisher's S_2 congruence at p=10007"
        assert capsys.readouterr().err == f"congrlab: internal error: {error}\n"
        assert target.read_bytes() == b"an earlier report\n"

    @pytest.mark.parametrize(
        "name, alpha, j",
        [("binom", a, None) for a in DEFAULT_ALPHA_SWEEP]
        + [("binom", None, j) for j in range(7)]
        + [(x, None, None) for x in ("binom2", *SUMS)],
        ids=[f"binom-{a}" for a in DEFAULT_ALPHA_SWEEP]
        + [f"binom-c{j}" for j in range(7)]
        + ["binom2", *SUMS],
    )
    def test_each_name_of_the_tree_record_is_cross_checked(
        self, monkeypatch, capsys, tmp_path, name, alpha, j
    ):
        # one name of the largest prime's tree record off: the check against
        # its product record compares every name the route computes, and the
        # polynomial for C(alpha*p - 1, p - 1) whole, not C(2p - 1, p - 1)
        # alone.  binom-c{j} moves coefficient j of the polynomial (m = 7 at
        # p = 199).  binom-{alpha} asks for that alpha alone and moves the
        # polynomial by alpha' - alpha, which leaves its value at the one
        # alpha asked for as it was: the check covers every alpha.
        build = scanner.prime_record

        def corrupted(modulus, names, h=None):
            record = build(modulus, names, h)
            if h is not None and modulus.p == 199:
                if name != "binom":
                    record[name] += 1
                elif j is not None:
                    poly = list(record["binom"])
                    poly[j] = (poly[j] + 1) % modulus.pm
                    record["binom"] = tuple(poly)
                else:
                    c0, c1, *rest = record["binom"]
                    a = residue_of_rational(alpha, modulus)
                    record["binom"] = ((c0 - a) % modulus.pm, (c1 + 1) % modulus.pm, *rest)
            return record

        monkeypatch.setattr(scanner, "prime_record", corrupted)
        target = tmp_path / "report.txt"
        target.write_bytes(b"an earlier report\n")
        argv = ["scan", "--primes", "3..200", "--workers", "1", "-o", str(target)]
        if alpha is not None:
            argv += [f"--alpha={alpha}"]
        assert main(argv) == 3
        sums = "power sums off the " if name in SUMS else ""
        error = f"{sums}harmonic vector mismatch at p=199"
        assert capsys.readouterr().err == f"congrlab: internal error: {error}\n"
        assert target.read_bytes() == b"an earlier report\n"

    @pytest.mark.parametrize(
        "error, code, line",
        [
            (OSError(28, "No space left on device"), 2,
             "congrlab: cannot write report: [Errno 28] No space left on device\n"),
            (RuntimeError("bad cell"), 3,
             "congrlab: internal error: RuntimeError('bad cell')\n"),
        ],
        ids=["os-error", "bug"],
    )
    def test_error_while_emitting(self, monkeypatch, capsys, tmp_path, error, code, line):
        def broken(report, fmt, out):
            out.write(b"case,p")
            raise error

        monkeypatch.setattr(congrlab.cli, "emit_report", broken)
        target = tmp_path / "report.csv"
        argv = ["scan", "--primes", "5..5", "--case", "morley", "-o", str(target)]
        assert main(argv) == code
        assert capsys.readouterr().err == line
        assert target.read_bytes() == b"case,p"  # what was written before the error

    def test_argparse_exits_two_on_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--frobnicate"])
        assert exc.value.code == 2

    def test_report_written_to_file(self, tmp_path):
        target = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "--case",
                "thm1",
                "--p",
                "5",
                "--alpha",
                "2",
                "--format",
                "json",
                "-o",
                str(target),
            ]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        (record,) = payload["records"]
        assert record["lhs"] == record["rhs"] == "126"
        assert payload["config"]["command"] == "verify"

    def test_lemmas_cli(self, capsysbinary):
        code = main(["lemmas", "--primes", "3..7", "--format", "csv"])
        assert code == 0
        out = capsysbinary.readouterr().out.decode()
        assert out.startswith("case,p,alpha,m,lhs,rhs,status,valuation")

    def test_lemmas_tightness_is_a_usage_error(self, capsysbinary):
        code = main(["lemmas", "--primes", "3..31", "--tightness"])
        assert code == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err == b"congrlab: --tightness applies to scan and verify only\n"

    def test_skip_only_scan_exits_zero(self, capsysbinary):
        code = main(["scan", "--alpha", "1/7", "--primes", "7..7", "--case", "thm1"])
        assert code == 0
        assert b"skip" in capsysbinary.readouterr().out


# `python -u` makes sys.stdout.buffer a raw file, whose write may be short
_UNBUFFERED = [
    "-m", "congrlab", "scan", "--primes", "3..47", "--format", "json", "--workers", "1"
]


def unbuffered_cli(stderr=subprocess.PIPE) -> subprocess.Popen:
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, *_UNBUFFERED],
        env=env,
        stdout=subprocess.PIPE,
        stderr=stderr,
    )


def test_unbuffered_stdout_gets_every_byte():
    out, err = unbuffered_cli().communicate(timeout=120)
    assert err == b""
    assert hashlib.sha256(out).hexdigest() == PINNED_JSON_3_47["scan"]


class ShortWrites(io.FileIO):
    """A raw file that takes at most 4 KB a write, as a raw write may."""

    def write(self, data):
        return super().write(memoryview(data)[:4096])


def test_raw_stdout_gets_every_byte(monkeypatch, tmp_path):
    # sys.stdout as `python -u` sets it up, over a raw file that writes short
    target = tmp_path / "stdout"
    with ShortWrites(target, "w") as raw:
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, write_through=True))
        assert main(_UNBUFFERED[2:]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == PINNED_JSON_3_47["scan"]


@pytest.mark.parametrize("stderr", ["own-pipe", "stdout-pipe"])
def test_unbuffered_stdout_closed_early_exits_two(stderr):
    # the report (about 500 KB) is far more than a pipe holds.  Where stderr
    # is the same closed pipe, the diagnostic cannot be written either, and
    # the run still exits 2: not 1, a failed congruence, nor the
    # interpreter's 120 for a stream it could not flush at exit
    own = stderr == "own-pipe"
    child = unbuffered_cli(subprocess.PIPE if own else subprocess.STDOUT)
    assert child.stdout.read(20) == b'{\n  "config": {\n    '
    child.stdout.close()
    if own:
        err = child.stderr.read()
        child.stderr.close()
        assert err == b"congrlab: cannot write report: [Errno 32] Broken pipe\n"
    assert child.wait(timeout=120) == 2


def test_closed_stderr_leaves_the_exit_status():
    # a usage error whose diagnostic cannot be written still exits 2: not 1,
    # a failed congruence, nor the 120 the interpreter gives when its last
    # flush of a buffered stderr fails
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "congrlab", "scan", "--primes", "9..3"],
            env=env, stdout=subprocess.DEVNULL, stderr=write_end, timeout=120,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 2


# The report digests that the CI workflow pins and no other test checks,
# by the request's argv; each runs here in one process
PINNED_CI_REPORTS = {
    "lemmas-text-3..61": (
        ["lemmas", "--primes", "3..61"],
        "69ee75e90b76cc5c7a559fd6fbf4cf926fa9e32f85fc3156b118c1b23571c745",
    ),
    "text-3..97-tightness": (
        ["scan", "--primes", "3..97", "--tightness"],
        "439a02c0102c3e014125d8264600bf817afaaa1e33cb0270e3e7afd92e515aa6",
    ),
    "csv-3..199": (
        ["scan", "--primes", "3..199", "--format", "csv"],
        "990e2559e35b6cea1a37b2726fa508a55a2808bdc58dd827abb04e747f6ffd94",
    ),
    "verify-thm1-p7": (
        ["verify", "--case", "thm1", "--p", "7", "--tightness", "--format", "json"],
        "3aae42f55e59760c6729a82d91867aadf44f47817e98aea02a5ec218064434e0",
    ),
    "product-route-10007": (
        ["scan", "--primes", "10007..10009", "--tightness", "--format", "json"],
        "53419e8d04484eea5a1c8117c85c8b5a8c34610ad5df228c53f19ebed9298a2f",
    ),
    "lemmas-csv-300..400": (
        ["lemmas", "--primes", "300..400", "--format", "csv"],
        "d3d236c6a4c9ef1146174b7d4091c4b1f47996b702ef3a35903beff1eef375bc",
    ),
    "catalog-json-3..1999": (
        ["scan", "--primes", "3..1999", "--format", "json"],
        "f508a55c347543dd1c74b08daa004f1361b16f5a37f4ed94730854bbebcec3f8",
    ),
    "six-cases-3..20000": (
        [
            "scan", "--primes", "3..20000", "--tightness", "--format", "csv",
            "--case", "zhao,mcintosh,tauraso92,mestrovic80,rel34,rel63",
        ],
        "0f4e75da7522227839e846be4a6616fb69fb93d41e85559274e33100c5b72ae9",
    ),
    "lemmas-text-3..199": (
        ["lemmas", "--primes", "3..199"],
        "1dd3ad18ebfb142c05aae4778c19371768ec44787073466c3e4851140128ce4d",
    ),
}


@pytest.mark.parametrize("request_id", list(PINNED_CI_REPORTS))
def test_ci_pinned_report(tmp_path, request_id):
    # reports are identical at any worker count, so one worker checks the
    # pin of a pooled CI run too
    argv, pinned = PINNED_CI_REPORTS[request_id]
    target = tmp_path / "report"
    assert main(argv + ["--workers", "1", "-o", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == pinned
