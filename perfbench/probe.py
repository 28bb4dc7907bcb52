"""Set-up probe: import the program, warm up one workload, print `ready`.

`run.py` starts this script in a fresh interpreter several times and
times each start until the `ready` line arrives; the median is the
workload's `setup_s`.

    python3 perfbench/probe.py --workload NAME --seed N
"""

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.make(args.workload, args.seed).warm_up()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
