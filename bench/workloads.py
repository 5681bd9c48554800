"""The benchmark's workloads and metrics; BENCHMARK.json is rendered from here.

Every workload is a closed, single-shot batch job: one CLI invocation in a
fresh process, so the process-lifetime Bernoulli cache is paid on every run.
No workload uses more than 2 pool workers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import spans

# The catalog's case ids and the default alpha sweep, spelled out so that the
# seed can permute them.  The CLI puts both lists back into canonical order,
# so the spelling never changes the report.
CASES = (
    "babbage", "wolstenholme_rel70", "morley", "glaisher_rel74",
    "glaisher_rel3", "glaisher1900_p4", "carlitz", "mcintosh", "zhao",
    "tauraso92", "tauraso93", "mestrovic80", "thm1", "rel30", "rel31", "rel26",
    "rel38", "rel36", "rel37", "coro_rel2", "rel34", "coro_rel5b", "coro_rel5",
    "coro_rel6b", "coro_rel6", "rel63", "coro_63_alpha", "coro_63_alpha2",
    "coro_63_half",
)
ALPHAS = (
    "-3", "-2", "-1", "-1/2", "0", "1/4", "1/3", "1/2", "2/3", "1", "3/2", "2",
    "7/3", "5/2", "3", "4", "5", "6",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple  # the CLI request, less the lists below
    lists: tuple  # (flag, items): explicit lists whose order the seed permutes
    digest: str  # sha256 of the report, pinned at the seed commit
    summary: Optional[dict] = None  # known answer: pass/fail/skip/anomalies

    def argv_for(self, seed: int) -> list:
        rng = random.Random(seed)
        out = list(self.argv)
        for flag, items in self.lists:
            order = list(items)
            rng.shuffle(order)
            # "--alpha=-3,..." so argparse does not take "-3" for a flag
            out.append(f"{flag}={','.join(order)}")
        return out

    def traced_argv_for(self, seed: int) -> list:
        """The same request on one worker, so every span lands in one process."""
        argv = self.argv_for(seed)
        at = argv.index("--workers")
        return argv[:at] + ["--workers", "1"] + argv[at + 2 :]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "catalog_sweep",
            "default scan, 29 cases x 18 alphas to p=499 on the 2-worker fork pool: "
            "harmonic tables, case evaluation, 3.7 MB JSON emission, serial Bernoulli warm",
            ("scan", "--primes", "3..499", "--format", "json", "--workers", "2"),
            (("--case", CASES), ("--alpha", ALPHAS)),
            "5f489a1ea85ca9240778d38d2ebbe6460a595bb58f0487aecffa8bf716bde5ce",
            {"pass": 14626, "fail": 0, "skip": 2482, "anomalies": 0},
        ),
        Workload(
            "lemma_suites",
            "lemma suites to p=199 on 1 worker: the reflection suite's harmonic tables "
            "mod p^(p+2) dominate, so a catalog-only table change must not move it",
            ("lemmas", "--primes", "3..199", "--format", "csv", "--workers", "1"),
            (),
            "997c668ec2f70429b0d34c0ab8ff128a1b82de53b2e88abdff9b782ef5a93e37",
        ),
        Workload(
            "wolstenholme_sweep",
            "1,227 primes to 10^4, one binomial case each on 2 workers: nearly all "
            "binom_alpha_mod, no harmonic or Bernoulli work, text emitter, tightness pass",
            ("scan", "--primes", "5..10000", "--tightness", "--workers", "2"),
            (("--case", ("wolstenholme_rel70",)),),
            "4a936a947f2a8d520066d5359c5313ff5574a7e538097446741e4a378c2fbe4a",
            {"pass": 1227, "fail": 0, "skip": 0, "anomalies": 0},
        ),
    )
}

RUN_SECONDS = 35

# name -> (unit, bound).  Lower is better for all of them.
END_TO_END = {
    "wall_s": ("s", 0.25),
    "cpu_s": ("s", 0.25),
    "peak_rss_mb": ("MB", 0.1),
    "setup_s": ("s", 0.25),
}

# Per-layer metrics made in run.py rather than from a span statistic.
TRACE_METRICS = ("trace.overhead_s", "trace.spans")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_to"):
        return "index"
    return "count"


def per_layer_names() -> list:
    return list(spans.LAYER_METRICS) + list(TRACE_METRICS)


def manifest() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": "lower", "bound": bound}
            for name, (unit, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": layer_unit(name), "better": "lower"}
            for name in per_layer_names()
        ],
    }
