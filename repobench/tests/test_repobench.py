"""Tests of the benchmark itself: smoke, exact-count determinism, correctness gate.

Each test runs ``repobench/run.py`` at its minimal size (``--seconds 1``) in
a subprocess, so the whole module takes a few minutes::

    python -m pytest repobench/tests
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]

#: Counts a later change may cite as exact (they must repeat at one seed).
EXACT_COUNTS = ("sim.events", "network.packets", "mpi.messages", "parallel.tasks", "cache.flushes")

_runs: Dict[Tuple[str, int, int], dict] = {}


def bench(workload: str, trace: int, root: Path = ROOT, seed: int = 0) -> subprocess.CompletedProcess:
    command = [
        sys.executable, str(root / "repobench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=600)


def result(workload: str, trace: int, repeat: int = 0) -> dict:
    """The parsed result line of a passing run, memoized across tests."""
    key = (workload, trace, repeat)
    if key not in _runs:
        process = bench(workload, trace)
        assert process.returncode == 0, process.stderr[-4000:]
        _runs[key] = json.loads(process.stdout.strip().splitlines()[-1])
    return _runs[key]


def tree_digest() -> Dict[str, str]:
    """SHA-256 of every file in the checkout, bytecode caches aside."""
    digest = {}
    for path in sorted(ROOT.rglob("*")):
        relative = path.relative_to(ROOT)
        if path.is_file() and not {".git", "__pycache__"} & set(relative.parts):
            digest[str(relative)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_declared_metric_and_leaves_checkout_unchanged(workload):
    before = tree_digest()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        printed = result(workload, trace)
        assert printed["correct"] is True
        assert printed["failed"] == 0 and printed["attempted"] >= 1
        units = {name: metric["unit"] for name, metric in printed["metrics"].items()}
        assert units == {metric["name"]: metric["unit"] for metric in DECLARED[section]}
    for metric in DECLARED["end_to_end"]:
        assert result(workload, 0)["metrics"][metric["name"]]["value"] > 0
    assert tree_digest() == before


@pytest.mark.parametrize("workload", ["sim-mpi", "sim-network", "campaign"])
def test_traced_counts_repeat_exactly(workload):
    first, second = result(workload, 1), result(workload, 1, repeat=1)
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert any(first["metrics"][name]["value"] > 0 for name in EXACT_COUNTS)


def test_simulator_workloads_stress_different_layers():
    mpi, network = result("sim-mpi", 1)["metrics"], result("sim-network", 1)["metrics"]
    for name in ("mpi.events_per_msg", "network.packets_per_msg"):
        assert network[name]["value"] >= 3 * mpi[name]["value"], name


def _copy_checkout(target: Path, with_program: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", target)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "repobench", target / "repobench", ignore=ignore)
    if with_program:
        shutil.copytree(ROOT / "src", target / "src", ignore=ignore)
        (target / "results").mkdir()
        shutil.copy(ROOT / "results" / "paper_cache.json", target / "results")


def test_wrong_output_fails_the_run(tmp_path):
    _copy_checkout(tmp_path, with_program=True)
    oracle = tmp_path / "results" / "paper_cache.json"
    products = json.loads(oracle.read_text())
    products["baseline/mcb"] *= 1.0 + 1e-12
    oracle.write_text(json.dumps(products))
    process = bench("sim-mpi", 0, root=tmp_path)
    assert process.returncode == 1
    printed = json.loads(process.stdout.strip().splitlines()[-1])
    assert printed["correct"] is False and printed["failed"] >= 2


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    _copy_checkout(tmp_path, with_program=False)
    process = bench("sim-mpi", 0, root=tmp_path)
    assert process.returncode != 0
    assert process.stdout == ""
