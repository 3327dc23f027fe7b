"""One fresh-process set-up of a benchmark workload, timed from outside.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Covers what every CLI user pays before the first command runs: interpreter
start, ``import ffl.cli`` and generating the workload's configs.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ffl.cli  # noqa: E402,F401
import workloads  # noqa: E402

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.write_configs(workloads.commands(workload, seed), workdir)
