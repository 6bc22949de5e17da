"""Record the report rows of one workload for cell seeds 1..N into
baseline_rows.csv, the reference that `ila.rows_changed` compares against.

Rows of the other workloads already in the file are kept.  A change that is
meant to leave every number as it was should show `ila.rows_changed = 0`;
record again only when a change is meant to move the numbers.

Usage (from the root of the repository):

    python3 perfbench/record_rows.py --workload poly-sweep --cell-seeds 63
"""

import argparse
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from dpdlab import ila  # noqa: E402

BASELINE_ROWS = HERE / "baseline_rows.csv"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--cell-seeds", type=int, required=True,
                   help="record cell seeds 1..N (rounded up to whole passes)")
    args = p.parse_args()

    size = workloads.FULL
    stride = 1 if args.workload == "arch-search" else size.cell_seeds
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(0, args.cell_seeds, stride):
            text = workloads.make_pass(args.workload, seed, size, Path(tmp))()
            rows.extend(f"{args.workload},{row}" for row in text.splitlines()[1:])
            print(f"{args.workload} seed {seed}: {len(rows)} rows", file=sys.stderr)

    kept = []
    if BASELINE_ROWS.is_file():
        kept = [line for line in BASELINE_ROWS.read_text(encoding="utf-8").splitlines()[1:]
                if not line.startswith(f"{args.workload},")]
    lines = ["workload," + ila.REPORT_HEADER] + kept + rows
    BASELINE_ROWS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
