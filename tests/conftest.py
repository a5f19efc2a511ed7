"""Test-suite settings shared by every test module.

BLAS and OpenMP run one thread, set here before numpy is first imported:
OpenBLAS splits some matrix-vector products by thread count, which moves
the last bits of wide Ridge predictions (the Zeng baseline's test RMSE),
and the byte manifests in tests/data were made with one thread, as the
benchmark runs.

Hypothesis runs a derandomized profile: the examples of each property test
are derived from the test itself, so every run of the suite tries the same
examples, and a failure seen once is seen again on a rerun.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hypothesis import settings  # noqa: E402

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
