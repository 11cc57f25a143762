"""Fracture-risk pipeline: synthetic cohorts, voxel FE surrogate, risk models.

Importing femrisk before NumPy imports NumPy with OPENBLAS_NUM_THREADS=1,
then unsets the variable again.  NumPy's OpenBLAS reads its thread count
once, when it loads, so it starts with no worker thread; by default that
worker spins through the rest of `import numpy` and roughly doubles its
wall time on a 2-core host.  The library's thread count can still be
raised later (`scipy_openblas_set_num_threads64_`).  A caller who set
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS, or who imported
NumPy first, gets NumPy's own behaviour.
"""

import os
import sys

# The variables OpenBLAS reads for its thread count.  OPENBLAS_NUM_THREADS
# overrides OMP_NUM_THREADS, so setting it would hide a caller's value.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

if "numpy" not in sys.modules and not any(name in os.environ for name in _THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
