#!/usr/bin/env python3
"""Run one fpboost benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stumps-64e --seed 0 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  BLAS and OpenMP are pinned to one thread
here, before numpy is imported, so the run times the program and not the
scheduler.
"""

import os
import sys

if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    from bench import main

    sys.exit(main())
