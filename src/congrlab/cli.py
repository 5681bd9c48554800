"""Command-line front end.

Three subcommands share the report machinery:

  verify  -- one case at one prime (optionally one or more alpha values)
  scan    -- sweep a prime range over selected cases and the alpha set
  lemmas  -- run the harmonic/power-sum/Bernoulli verdict suites

Exit status is 0 when nothing failed, 1 when any congruence failed, 2 for
usage or I/O errors, and 3 for an internal error: a failed cross-check, an
exhausted resource such as memory, or a bug.  `run_scan` builds every
prime's ingredient record, and runs every cross-check, before it returns;
only then does the destination open, so a failed check leaves -o as it
was.  The records are evaluated as they stream to -o or stdout, and a
report left behind by exit 2 or 3 may be incomplete.

The worker count is an upper bound.  An explicit --workers flag sets it;
without one, CONGRLAB_WORKERS in the environment does, and either is
clamped to the CPUs this process may run on.  A run starts a pool of that many
workers (at most one per prime) only when its O(p) work outside the
remainder tree is above one measured threshold; otherwise it runs in this
process.  `verify` always does.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from typing import Mapping, Optional, Sequence

from .congruences import CATALOG
from .residues import CongrlabError, is_prime, parse_rational
from .scanner import (
    DEFAULT_ALPHA_SWEEP,
    DEFAULT_PRIME_MAX,
    DEFAULT_PRIME_MIN,
    ScanConfig,
    UsageError,
    emit_report,
    run_scan,
)

__all__ = ["build_parser", "main", "parse_config"]

_LEMMA_DEFAULT_MAX = 199


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congrlab",
        description="Exact verification of binomial/harmonic congruences "
        "modulo prime powers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument(
            "--format",
            choices=("text", "json", "csv"),
            default="text",
            help="report format (default: text)",
        )
        p.add_argument("-o", "--output", help="write the report to this path")
        p.add_argument(
            "--workers",
            type=int,
            help="the most worker processes to use, at most the CPUs this "
            "process may run on (default: CONGRLAB_WORKERS if set, else that "
            "many).  A pool starts only when the run's O(p) work outside the "
            "remainder tree is above one measured threshold",
        )
        p.add_argument(
            "--tightness",
            action="store_true",
            help="compare at one power higher so the reported valuation can "
            "expose congruences holding beyond their stated modulus",
        )

    scan = sub.add_parser("scan", help="sweep a prime range")
    scan.add_argument(
        "--primes",
        default=f"{DEFAULT_PRIME_MIN}..{DEFAULT_PRIME_MAX}",
        help="inclusive prime range A..B (default: %(default)s)",
    )
    scan.add_argument(
        "--case",
        action="append",
        help="catalog case id, repeatable or comma-separated, or all on its "
        "own (default: all)",
    )
    scan.add_argument(
        "--alpha",
        action="append",
        help='rational alpha "a/b", repeatable or comma-separated '
        "(default: the standard sweep set)",
    )
    scan.add_argument(
        "--claimed-ranges",
        action="store_true",
        help="apply each case from its claimed prime range instead of its "
        "verified one (may produce genuine failures)",
    )
    add_output_flags(scan)

    verify = sub.add_parser("verify", help="check a single case at one prime")
    verify.add_argument("--case", required=True, help="catalog case id")
    verify.add_argument("--p", required=True, type=int, help="odd prime")
    verify.add_argument(
        "--alpha",
        action="append",
        help="alpha value(s) for parametric cases (default: the sweep set)",
    )
    verify.add_argument(
        "--claimed-ranges",
        action="store_true",
        help="apply the case from its claimed prime range",
    )
    add_output_flags(verify)

    lemmas = sub.add_parser(
        "lemmas", help="run the harmonic and Bernoulli verdict suites"
    )
    lemmas.add_argument(
        "--primes",
        default=f"{DEFAULT_PRIME_MIN}..{_LEMMA_DEFAULT_MAX}",
        help="inclusive prime range A..B (default: %(default)s)",
    )
    add_output_flags(lemmas)

    return parser


def _parse_prime_range(text: str):
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise UsageError(f"--primes expects A..B, got {text!r}") from None
    return lo, hi


def _split_repeatable(values, flag: str) -> Optional[list]:
    """The names a repeatable flag gives, comma-separated or not, or None
    where the flag is absent; a flag given that names nothing is an error."""
    if values is None:
        return None
    names = [n for chunk in values for part in chunk.split(",") if (n := part.strip())]
    if not names:
        raise UsageError(f"{flag} names nothing")
    return names


def _parse_alphas(values) -> tuple:
    names = _split_repeatable(values, "--alpha")
    if names is None:
        return DEFAULT_ALPHA_SWEEP
    alphas = []
    for name in names:
        try:
            alphas.append(parse_rational(name))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    # ascending, however spelled; `ScanConfig.validate` rejects a repeat
    return tuple(sorted(alphas))


def _parse_cases(values) -> tuple:
    names = _split_repeatable(values, "--case")
    if names is None or names == ["all"]:
        return ()
    if "all" in names:
        raise UsageError("--case all takes no other case id")
    for name in names:
        if name not in CATALOG:
            raise UsageError(f"unknown congruence case {name!r}")
    # catalog order, however spelled; `ScanConfig.validate` rejects a repeat
    order = {cid: i for i, cid in enumerate(CATALOG)}
    return tuple(sorted(names, key=order.__getitem__))


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _resolve_workers(flag_value: Optional[int], env: Mapping[str, str]) -> int:
    """The worker count from the flag, the environment or the CPUs, clamped.

    Each worker is a separate process, so a count above the available CPUs
    only adds processes.
    """
    cpus = _available_cpus()
    raw = env.get("CONGRLAB_WORKERS")
    if flag_value is not None:
        workers = flag_value
    elif raw is not None:
        try:
            workers = int(raw)
        except ValueError:
            raise UsageError(f"CONGRLAB_WORKERS must be an integer, got {raw!r}")
    else:
        workers = cpus
    return min(workers, cpus)


def parse_config(argv: Sequence[str], env: Mapping[str, str]) -> ScanConfig:
    """Turn CLI arguments and the environment into a validated ScanConfig."""
    ns = build_parser().parse_args(list(argv))
    workers = _resolve_workers(ns.workers, env)
    if ns.command == "verify":
        if ns.p < 3 or ns.p % 2 == 0 or not is_prime(ns.p):
            raise UsageError(f"--p expects an odd prime, got {ns.p}")
        if ns.case not in CATALOG:
            raise UsageError(f"verify takes one catalog case id, got {ns.case!r}")
        lo = hi = ns.p
        cases = [ns.case]
        workers = 1
    else:
        lo, hi = _parse_prime_range(ns.primes)
        cases = getattr(ns, "case", None)
    return ScanConfig(
        command=ns.command,
        prime_min=lo,
        prime_max=hi,
        alphas=_parse_alphas(getattr(ns, "alpha", None)),
        cases=_parse_cases(cases),
        fmt=ns.format,
        output=ns.output,
        workers=workers,
        tightness=ns.tightness,
        claimed_ranges=getattr(ns, "claimed_ranges", False),
    ).validate()


def _open_output(path: Optional[str]):
    """The report's destination, a buffered binary file: `path` or stdout."""
    if path:
        return open(path, "wb")
    try:  # not sys.stdout.buffer, which `python -u` leaves raw: writes may be short
        return open(sys.stdout.fileno(), "wb", closefd=False)
    except io.UnsupportedOperation:  # a stdout held in memory
        return contextlib.nullcontext(sys.stdout.buffer)


def _say(message: str) -> None:
    """Write one diagnostic line to stderr.  One that cannot be written (a
    stderr closed early, say, or the same pipe as the report) is dropped,
    so it never changes the exit status: stderr is pointed at the null
    device, where the interpreter's last flush of it succeeds."""
    try:
        print(f"congrlab: {message}", file=sys.stderr, flush=True)
    except OSError:
        with contextlib.suppress(OSError, ValueError):
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stderr.fileno())
            os.close(null)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_config(argv, os.environ)
        report = run_scan(config)
        # the destination opens only now, so an error above leaves -o as it was
        try:
            with _open_output(config.output) as out:
                emit_report(report, config.fmt, out)
        except OSError as exc:
            _say(f"cannot write report: {exc}")
            return 2
    except UsageError as exc:
        _say(str(exc))
        return 2
    except CongrlabError as exc:
        _say(f"internal error: {exc}")
        return 3
    except Exception as exc:  # never exit 1, which means a congruence failed
        _say(f"internal error: {exc!r}")
        return 3
    return 1 if report.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
