"""The public API is consistent: every name the package declares resolves."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import congrlab

# __main__ runs the CLI on import, so it is not a library module
MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(congrlab.__path__, "congrlab.")
    if not info.name.endswith(".__main__")
)


def _package_imports():
    """(module, name) for every `from .module import name` in __init__.py."""
    tree = ast.parse(Path(congrlab.__file__).read_text())
    return [
        (f"congrlab.{node.module}", alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"


def test_package_imports_resolve():
    imports = _package_imports()
    assert imports
    for module_name, name in imports:
        assert hasattr(importlib.import_module(module_name), name), (module_name, name)
        assert hasattr(congrlab, name), name


# The names the README's Library section uses, and the error they raise;
# every other public name is imported from its module
ROOT_NAMES = {
    "CATALOG", "CongrlabError", "PrimeContext", "PrimePowerModulus", "ScanConfig",
    "ScanReport", "Verdict", "bernoulli_mod", "binom_alpha_mod", "emit_report",
    "ingredients", "prime_record", "residue_of_rational", "run_scan", "thm1_rhs",
    "verify_case",
}


def test_package_root_exports_the_documented_names():
    assert sorted(congrlab.__all__) == sorted(ROOT_NAMES)
    assert all(hasattr(congrlab, name) for name in congrlab.__all__)
    submodules = {name.rpartition(".")[2] for name in MODULES}
    public = {name for name in vars(congrlab) if not name.startswith("_")}
    assert public - submodules == ROOT_NAMES


@pytest.mark.parametrize(
    "owner, name",
    [
        (congrlab.harmonic, "DomainTooSmall"),
        (congrlab.harmonic.HarmonicTable, "value"),
        (congrlab.harmonic, "PowerSumTable"),
        (congrlab.Verdict, "passed"),
        (congrlab.Verdict, "failed"),
        (congrlab.Verdict, "skipped"),
        (congrlab.bernoulli, "bernoulli_pm3_faulhaber"),
        (congrlab.PrimeContext, "power_sums"),
        (congrlab.PrimeContext, "fill"),
        (congrlab.PrimeContext, "binom_w"),
        (congrlab.PrimeContext, "sums"),
        (congrlab.PrimeContext, "_h"),
        (congrlab.PrimeContext, "_binoms"),
        (congrlab.PrimeContext, "_fact_inv"),
    ],
    ids=[
        "DomainTooSmall", "HarmonicTable.value", "PowerSumTable",
        "Verdict.passed", "Verdict.failed", "Verdict.skipped",
        "bernoulli_pm3_faulhaber", "PrimeContext.power_sums",
        "PrimeContext.fill", "PrimeContext.binom_w", "PrimeContext.sums",
        "PrimeContext._h", "PrimeContext._binoms", "PrimeContext._fact_inv",
    ],
)
def test_deleted_api_stays_deleted(owner, name):
    # the lemma suites index a table's `h` tuple, zero-padded past H_{p-1},
    # and the power sums are a plain tuple, so no index check, past-the-end
    # query or wrapper class is left to export; a verdict's `status` is
    # compared with PASS, FAIL and SKIP, and a context's ingredients are
    # read through its one record, which `prime_record` builds: a context
    # holds no route state
    assert not hasattr(owner, name)
    assert not hasattr(congrlab, name)


def _bench_spans():
    """bench/spans.py, loaded by path; importing it imports no congrlab."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("span_name", sorted(_bench_spans().TARGETS))
def test_benchmark_span_targets_resolve(span_name):
    # the tracer's own lookup: congrlab.<layer>, then one attribute per
    # dotted part; a target it cannot resolve comes out as a null metric
    layer, *path = span_name.split(".")
    owner = importlib.import_module(f"congrlab.{layer}")
    for attr in path:
        owner = getattr(owner, attr, None)
    assert callable(owner), span_name


def test_cli_imports_no_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize: about 11 ms of
    # import and 1 MB of peak RSS in every process, pool workers included
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, congrlab.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
