"""Smoke test of the benchmark itself, at tiny problem sizes.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace=0, seed=1, cwd=BENCH.parent, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_listed_metric_is_emitted_with_its_unit(workload, trace):
    res = result(run(workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        emitted = res["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))


def test_twin_failure_is_counted_on_every_seed():
    first, second = (result(run("factorial_lift", seed=s)) for s in (1, 2))
    assert first["failed"] > 0
    assert first["failed"] / first["attempted"] == second["failed"] / second["attempted"]


def test_same_seed_gives_identical_outputs():
    def digest():
        out = run("prior_mc", seed=7).stdout
        return next(ln for ln in out.splitlines() if ln.startswith("# output digest"))

    assert digest() == digest()


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = run("exact_paper", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
