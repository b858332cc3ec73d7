"""Smoke tests of the benchmark at minimum size.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTED = ("count", "bytes")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "1",
         "--seconds", "0", "--max-jobs", "3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_appear_with_units(workload):
    out = result("--workload", workload, "--trace", "0")
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["attempted"] == 3
    assert units(out["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_appear_and_counts_repeat(workload):
    first, second = (result("--workload", workload, "--trace", "1")["metrics"]
                     for _ in range(2))
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counted = {n for n, m in first.items() if m["unit"] in COUNTED}
    assert {n: first[n]["value"] for n in counted} == {n: second[n]["value"] for n in counted}


def test_seed_changes_inputs_not_jobs():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import lagdde.cli  # noqa: F401  (cli_oracle uses lag.cli and lag.config)
    import workloads

    def build(seed, scratch):
        jobs = workloads.cli_oracle(sys.modules["lagdde"], seed, Path(scratch),
                                    ROOT / "configs").jobs
        return [j.name for j in jobs], sorted(p.read_text() for p in Path(scratch).glob("*.cfg"))

    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b, \
            tempfile.TemporaryDirectory() as c:
        names1, texts1 = build(1, a)
        names1_again, texts1_again = build(1, b)
        names_held_out, texts_held_out = build(1000, c)
    assert names1 == names1_again == names_held_out
    assert texts1 == texts1_again and texts1 != texts_held_out


# grid points per workload: N x equations x b; variants x N; shipped x
# commands + generated configs
GRID = {"linear_sweep": 19 * 3 * 3, "picard_feedback": 4 * 11 + 8, "cli_oracle": 2 * 3 + 15}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_jobs_and_known_failures_split_the_grid(workload, tmp_path):
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import lagdde.cli  # noqa: F401  (cli_oracle uses lag.cli and lag.config)
    import workloads

    build = getattr(workloads, workload)
    lag = sys.modules["lagdde"]
    timed, known = ([j.name for j in build(lag, 1, tmp_path, ROOT / "configs",
                                           known_failures=k).jobs]
                    for k in (False, True))
    assert timed and known and not set(timed) & set(known)
    assert len(set(timed + known)) == GRID[workload]


def test_no_result_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
