"""One set-up sample: a fresh interpreter imports steercert and makes one warm-up call.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <workdir>
``run.py`` times this process from spawn to exit.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.warm_up(sys.argv[1], int(sys.argv[2]), sys.argv[3])
