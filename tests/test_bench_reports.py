"""The benchmark's workloads, run in-process: each must exit 0 and pass the
benchmark's own report check (the report's oracle and its recorded sha256),
so a change that moves a report fails here before the benchmark rejects it."""

import importlib.util
import sys
from pathlib import Path

import pytest

from affinehecke.cli import main

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


BENCH = load_bench()


@pytest.mark.parametrize("name", sorted(BENCH.WORKLOADS))
def test_workload_report_matches_its_digest(name, tmp_path, capsys):
    wl = BENCH.WORKLOADS[name]
    argv = list(wl.argv) + (["--seed", "0"] if wl.seeded else [])
    code = main(argv)
    report = tmp_path / "report.json"
    report.write_bytes(capsys.readouterr().out.encode("utf-8"))
    assert code == 0
    assert BENCH.check_report(wl, 0, report) is None
