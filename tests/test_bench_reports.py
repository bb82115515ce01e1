"""The benchmark's workloads, run in-process: each must exit 0 and pass the
benchmark's own report check (the report's oracle and its recorded sha256),
so a change that moves a report fails here before the benchmark rejects it.
The benchmark's helper scripts (the set-up probe and the micro-benchmarks)
run here too, so an API change that breaks them fails before a benchmark
run does."""

import importlib.util
import sys
from pathlib import Path

import pytest

from affinehecke.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


BENCH = load_script("run")


@pytest.mark.parametrize("name", sorted(BENCH.WORKLOADS))
def test_workload_report_matches_its_digest(name, tmp_path, capsys):
    wl = BENCH.WORKLOADS[name]
    argv = list(wl.argv) + (["--seed", "0"] if wl.seeded else [])
    code = main(argv)
    report = tmp_path / "report.json"
    report.write_bytes(capsys.readouterr().out.encode("utf-8"))
    assert code == 0
    assert BENCH.check_report(wl, 0, report) is None


@pytest.mark.parametrize("name", sorted(BENCH.WORKLOADS))
def test_setup_probe_builds_each_workload(name):
    load_script("setup_probe").main(list(BENCH.WORKLOADS[name].argv))


def test_micro_benchmarks_check_their_results():
    micro = load_script("micro")  # each metric raises SystemExit on a wrong result
    metrics = {**micro.coeffring_metrics(), **micro.weyl_metrics()}
    assert sorted(metrics) == [
        "coeffring.mul_binomial_us", "coeffring.mul_monomial_us", "weyl.factor_cold_ms",
    ]
    assert all(v > 0 for v in metrics.values())
