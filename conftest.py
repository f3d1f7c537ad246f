"""Test-session set-up shared by every test directory. pytest imports this
root file before collecting any test module, so before numpy is imported:
one BLAS thread keeps the timing bounds of the suite independent of other
load on the machine. A value already set in the environment wins."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
