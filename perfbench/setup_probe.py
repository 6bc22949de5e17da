"""Set-up probe: import dpdlab in a fresh interpreter and run the warm-up cell.

run.py starts this script several times and times each process from start to
exit, so `setup_s` covers interpreter start, `import dpdlab` and the slow first
calls into the program.

Usage: python3 perfbench/setup_probe.py SEED SIZE
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports dpdlab from the checkout)


if __name__ == "__main__":
    workloads.warm_up(int(sys.argv[1]), workloads.SIZES[sys.argv[2]])
