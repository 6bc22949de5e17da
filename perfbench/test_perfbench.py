"""Tests of the benchmark itself, at a tiny size.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from dpdlab import ila  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_each_workload_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert any(line.startswith(f"csv_sha256 {workload} ") for line in proc.stdout.splitlines())
    env = next(line for line in proc.stdout.splitlines() if line.startswith("env "))
    assert json.loads(env[4:])["seed"] == 3


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_gives_the_same_bytes_and_restores_the_program(workload, tmp_path):
    originals = {(m, a): getattr(sys.modules[f"dpdlab.{m}"], a) for m, a in tracer.FUNCTIONS}
    run_pass = workloads.make_pass(workload, 5, workloads.TINY, tmp_path)
    untraced = run_pass()
    t = tracer.Tracer()
    with t.installed():
        assert ila.run_ila is not originals[("ila", "run_ila")]
        traced = run_pass()
    assert traced == untraced
    assert t.missing == []
    assert t.calls["ila.run_ila"] >= 1
    for (m, a), func in originals.items():
        assert getattr(sys.modules[f"dpdlab.{m}"], a) is func


def test_tracer_counts_the_search_and_the_least_squares_fits(tmp_path):
    t = tracer.Tracer()
    arch = workloads.make_pass("arch-search", 0, workloads.TINY, tmp_path)
    poly = workloads.make_pass("poly-sweep", 0, workloads.TINY, tmp_path)
    with t.installed():
        arch()
    metrics = t.metrics()
    assert metrics["rvftdnn.search.candidates"][0] == 2
    assert metrics["rvftdnn.search.useful_ratio"][0] == 0.5
    assert metrics["training.epochs"][0] == 2 * workloads.TINY.max_epochs
    t = tracer.Tracer()
    with t.installed():
        poly()
    metrics = t.metrics()
    # 2 tap counts x 1 seed x 2 orders, one least-squares fit per cell
    assert metrics["mpm.ls_fit.calls"][0] == 4
    assert metrics["ila.run_ila.calls"][0] == 4
    assert metrics["training.train.calls"][0] == 0
    assert metrics["cell_s.mpm"][0] > 0.0


def test_rows_changed_compares_against_the_recorded_rows(tmp_path, monkeypatch):
    text = (ila.REPORT_HEADER + "\n"
            "agmpnn,high,7,3,3,309,171,2,-1.0,-2.0,-3.0\n"
            "agmpnn,high,7,3,3,309,171,2,-1.5,-2.0,-3.0\n"
            "mpm,high,7,3,,42,42,9,-1.0,-2.0,-3.0\n")
    recorded = tmp_path / "rows.csv"
    recorded.write_text("workload," + ila.REPORT_HEADER + "\n"
                        "ila-cells,agmpnn,high,7,3,3,309,171,2,-1.0,-2.0,-3.0\n"
                        "ila-cells,agmpnn,high,7,3,3,309,171,2,-1.4,-2.0,-3.0\n")
    monkeypatch.setattr(run, "BASELINE_ROWS", recorded)
    assert run.rows_changed("ila-cells", text) == (1, 2)
    assert run.rows_changed("poly-sweep", text) == (0, 0)


def test_recorded_rows_cover_every_workload():
    workloads_recorded = {line.split(",", 1)[0]
                          for line in run.BASELINE_ROWS.read_text().splitlines()[1:]}
    assert workloads_recorded == set(workloads.WORKLOADS)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "poly-sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
