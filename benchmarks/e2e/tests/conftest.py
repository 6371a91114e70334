"""Harness tests: ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q``.

Not in the tier-1 ``testpaths``; they test the benchmark, not the program.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
E2E = os.path.dirname(HERE)
REPO = os.path.dirname(os.path.dirname(E2E))
for path in (os.path.join(REPO, "src"), E2E):
    if path not in sys.path:
        sys.path.insert(0, path)
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
