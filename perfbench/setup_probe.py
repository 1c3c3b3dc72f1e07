"""Time one fresh set-up of pdfactor: ``import pdfactor`` plus a warm-up.

Usage: ``python3 perfbench/setup_probe.py [WARMUP_JSON]``

WARMUP_JSON holds a list of matrices (lists of rows); each is factored and
verified at tol 1e-8, which fills the planar sweep cache the way a first
call does. Prints ``{"import_s": ..., "warmup_s": ...}`` on stdout.
"""

import json
import sys
import time


def main():
    t0 = time.perf_counter()
    import pdfactor

    import_s = time.perf_counter() - t0
    warmup_s = 0.0
    if len(sys.argv) > 1:
        import numpy as np

        with open(sys.argv[1], encoding="utf-8") as fh:
            mats = [np.array(m, dtype=float) for m in json.load(fh)]
        t1 = time.perf_counter()
        for A in mats:
            pdfactor.verify(pdfactor.factor_matrix(A), A, 1e-8)
        warmup_s = time.perf_counter() - t1
    print(json.dumps({"import_s": import_s, "warmup_s": warmup_s}))


if __name__ == "__main__":
    main()
