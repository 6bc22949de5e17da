"""The three benchmark workloads and the warm-up cell that set-up runs.

Each workload is one closed loop with a single caller: a cell starts when the
previous one returns.  A pass returns the report CSV text the program itself
produced (`ila.reports_to_csv` or the `sweep-taps` output file), so every check
and quality metric reads the same bytes a user would see.

The program is reached only through module attributes looked up at call time
(`ila.run_ila`, `cli.dispatch`), so the tracer's wrappers see these calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from dpdlab import AgmpnnModel, TapWindow, TrainConfig, cli, count_params_actual, ila, preset
from dpdlab.rvftdnn import rvftdnn_param_count

WORKLOADS = ("ila-cells", "arch-search", "poly-sweep")

# Every workload runs at 7 taps on the high-drive preset.
WINDOW = TapWindow(pre_taps=6)
PRESET = "high"

# The acceptance tests' training recipe (lr 5e-3, batch 4, 150 epochs,
# patience 15).  `ila-cells` raises patience to the epoch budget so that a
# cell trains the same number of epochs whatever the seed: with patience 15 a
# warm-started mixture stops after 15 epochs on some seeds and runs all 150 on
# others, and a cell's time then says more about the seed than the code.
LEARNING_RATE = 5e-3
BATCH_SIZE = 4
PATIENCE = 15


@dataclass(frozen=True)
class Size:
    """How much work one pass does; `FULL` is the benchmark, `TINY` the tests'."""

    n_samples: int
    segment_len: int
    max_epochs: int
    cell_seeds: int               # cells per kind and seed count of the sweep
    max_candidates: int | None    # cap on the matched-budget grid (None: all)
    sweep_taps: tuple
    mpm_k_grid: tuple


FULL = Size(n_samples=16384, segment_len=1024, max_epochs=150, cell_seeds=3,
            max_candidates=None, sweep_taps=ila.DEFAULT_TAPS_LIST,
            mpm_k_grid=ila.DEFAULT_MPM_K_GRID)
TINY = Size(n_samples=2048, segment_len=512, max_epochs=2, cell_seeds=1,
            max_candidates=2, sweep_taps=(4, 7), mpm_k_grid=(1, 2))
SIZES = {"full": FULL, "tiny": TINY}


def expected_rows(name: str, size: Size) -> int:
    """Report rows one pass of a workload produces."""
    if name == "ila-cells":
        return 4 * size.cell_seeds
    if name == "arch-search":
        return 1
    return len(size.sweep_taps) * size.cell_seeds


def cell_seeds(seed: int, size: Size) -> list[int]:
    """The workload seed offsets cell seeds 1, 2, 3."""
    return [seed + i for i in range(1, size.cell_seeds + 1)]


def _recipe(size: Size, patience: int) -> TrainConfig:
    return TrainConfig(learning_rate=LEARNING_RATE, batch_size=BATCH_SIZE,
                       segment_len=size.segment_len, max_epochs=size.max_epochs,
                       patience=min(patience, size.max_epochs))


def warm_up(seed: int, size: Size) -> None:
    """The untimed warm-up cell of set-up: one memory-polynomial ILA cell.

    First calls into the program run much slower than later ones (lazy
    imports, BLAS start-up, page faults), so set-up pays for them once.
    """
    spec = ila.DpdModelSpec(kind="mpm", window=WINDOW, k_orders=3)
    ila.run_ila(preset(PRESET), PRESET, spec, seed + 1, n_samples=size.n_samples,
                cfg=_recipe(size, PATIENCE))


def matched_budget_grid(size: Size) -> tuple[tuple, tuple]:
    """The acceptance fixture's grid: rvftdnn widths whose parameter count is
    within 10 % of a (7 taps, K=3, M=3) agmpnn's actual count (171 -> 31 pairs)."""
    target = count_params_actual(AgmpnnModel.init(WINDOW, 3, 3))
    lo, hi = int(round(0.9 * target)), int(round(1.1 * target))
    widths = range(2, 25)
    grid = tuple((a, b) for a in widths for b in widths
                 if lo <= rvftdnn_param_count(WINDOW.n_taps, a, b) <= hi)
    return grid[:size.max_candidates], (lo, hi)


def _csv(values) -> str:
    return ", ".join(str(v) for v in values)


def make_pass(name: str, seed: int, size: Size, workdir: Path) -> Callable[[], str]:
    """Prepare a workload's inputs and return a function running one pass."""
    pa = preset(PRESET)
    if name == "ila-cells":
        cfg = _recipe(size, patience=size.max_epochs)
        specs = (
            ila.DpdModelSpec(kind="mpm", window=WINDOW, k_orders=3),
            ila.DpdModelSpec(kind="agmpnn", window=WINDOW, k_orders=3, n_experts=3),
            ila.DpdModelSpec(kind="agmpnn", window=WINDOW, k_orders=3, n_experts=3,
                             warm_start=False),
            ila.DpdModelSpec(kind="rvftdnn", window=WINDOW, n1=16, n2=16),
        )
        seeds = cell_seeds(seed, size)

        def run_ila_cells() -> str:
            reports = [ila.run_ila(pa, PRESET, spec, s, n_samples=size.n_samples, cfg=cfg)
                       for s in seeds for spec in specs]
            return ila.reports_to_csv(reports)
        return run_ila_cells

    if name == "arch-search":
        cfg = _recipe(size, patience=PATIENCE)
        grid, budget = matched_budget_grid(size)
        spec = ila.DpdModelSpec(kind="rvftdnn", window=WINDOW, search_grid=grid, budget=budget)

        def run_arch_search() -> str:
            report = ila.run_ila(pa, PRESET, spec, seed + 1, n_samples=size.n_samples, cfg=cfg)
            return ila.reports_to_csv([report])
        return run_arch_search

    if name == "poly-sweep":
        config = workdir / "poly-sweep.cfg"
        out = workdir / "poly-sweep.csv"
        # The default config except for the family and the seeds; at full size
        # the other values written here are the defaults.
        config.write_text(
            f"[signal]\nn_samples = {size.n_samples}\n"
            f"[train]\nsegment_len = {size.segment_len}\n"
            f"[sweep]\nfamilies = mpm\nseeds = {_csv(cell_seeds(seed, size))}\n"
            f"taps_list = {_csv(size.sweep_taps)}\nmpm_k_grid = {_csv(size.mpm_k_grid)}\n",
            encoding="utf-8")

        def run_poly_sweep() -> str:
            rc = cli.dispatch(["sweep-taps", "--config", str(config), "--out", str(out)])
            if rc != 0:
                raise RuntimeError(f"sweep-taps exited with code {rc}")
            return out.read_text(encoding="utf-8")
        return run_poly_sweep

    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
