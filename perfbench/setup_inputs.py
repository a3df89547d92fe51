"""Build one workload's inputs from its seed into a directory.

run.py starts this script in a fresh interpreter several times and reports
the median wall time as setup_s: interpreter start, `import modone`, and the
inputs built and written.

    python3 perfbench/setup_inputs.py --workload cli_points --seed 1 --mode full --work DIR
"""

import argparse
import sys
from pathlib import Path

import checkout


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["full", "smoke"], required=True)
    p.add_argument("--work", required=True)
    args = p.parse_args(argv)
    checkout.import_modone()
    import workloads
    workloads.WORKLOADS[args.workload].build(args.seed, args.mode, Path(args.work))
    return 0


if __name__ == "__main__":
    sys.exit(main())
