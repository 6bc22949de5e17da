"""tools/pairs.py: paired benchmark runs of a parent and a change checkout.

The smoke test runs the benchmark, so it skips when the checkout has none.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PAIRS = ROOT / "tools" / "pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs_tool", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24}


def test_a_gain_is_claimable_only_on_nine_of_ten_pairs_beyond_the_parents_spread(pairs):
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.0]
    faster = [p - 1.0 for p in parent]
    assert pairs.verdict(WALL, parent, faster)["verdict"] == "claimable"
    # Two pairs lost: 8 of 10 is too few, however large the other gains.
    eight = faster[:8] + [p + 1.0 for p in parent[8:]]
    v = pairs.verdict(WALL, parent, eight)
    assert (v["wins"], v["losses"], v["ties"], v["verdict"]) == (8, 2, 0, "within bound")
    # Every pair won, but by less than the parent's interquartile range.
    assert pairs.verdict(WALL, parent, [p - 0.01 for p in parent])["verdict"] == "within bound"
    # Nine pairs are fewer than a claim needs.
    assert pairs.verdict(WALL, parent[:9], faster[:9])["verdict"] == "within bound"


def test_a_worse_median_beyond_the_bound_is_over_bound_by_the_metrics_better(pairs):
    v = pairs.verdict(WALL, [10.0, 10.0], [12.5, 12.5])
    assert (v["worse"], v["verdict"]) == (0.25, "over bound")
    nmse = {"name": "postinv_nmse_db", "unit": "dB", "better": "lower", "bound": 0.15}
    assert pairs.verdict(nmse, [-20.0], [-16.0])["verdict"] == "over bound"
    assert pairs.verdict(nmse, [-20.0], [-24.0])["worse"] == -0.2
    noisy = pairs.verdict(WALL, [5.0, 10.0, 15.0], [10.0, 10.0, 10.0])
    assert noisy["verdict"] == "unresolved"


def test_a_spread_wider_than_the_bound_resolves_when_every_change_run_is_better(pairs):
    parent = [5.0, 10.0, 15.0]
    assert pairs.verdict(WALL, parent, [4.0, 4.5, 4.9])["verdict"] == "better in every run"
    # One change run no better than the parent's best leaves it unresolved.
    assert pairs.verdict(WALL, parent, [4.0, 4.5, 5.0])["verdict"] == "unresolved"
    rows = {"name": "rows_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}
    assert pairs.verdict(rows, parent, [15.5, 16.0, 20.0])["verdict"] == "better in every run"
    assert pairs.verdict(rows, parent, [15.0, 16.0, 20.0])["verdict"] == "unresolved"


def test_pairs_runs_both_checkouts_and_prints_every_end_to_end_metric():
    if not (ROOT / "perfbench" / "run.py").is_file():
        pytest.skip("no perfbench/run.py in this checkout")
    proc = subprocess.run(
        [sys.executable, str(PAIRS), "--parent", str(ROOT), "--change", str(ROOT),
         "--workload", "poly-sweep", "--size", "tiny", "--pairs", "1", "--seconds", "0"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "pair 1/1: parent first, csv_sha256 " in proc.stderr
    rows = proc.stdout.splitlines()[2:]
    assert [row.split()[0] for row in rows] == ["setup_s", "wall_s", "postinv_nmse_db",
                                                "peak_rss_mb"]
    assert all(row.endswith(("within bound", "over bound", "unresolved", "better in every run"))
               for row in rows)
