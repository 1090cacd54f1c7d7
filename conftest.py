"""Test-session settings that must be in place before numpy is imported.

One BLAS thread: on a two-core host, two OpenBLAS threads make the small
dense eigendecompositions of the reference propagator and of the FID
tests several times slower. A value already set in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
