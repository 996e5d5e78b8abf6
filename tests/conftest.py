"""Test set-up shared by every test module.

A threaded BLAS splits its sums by the thread count, so the pinned
checkpoints and the learner band tests would give other bits on a host
with another core count.  OpenBLAS reads its thread count once, when numpy
is first imported, and a test module may import numpy before ``dialbench``
gets to pin it; so the count is pinned here, before any test module loads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
