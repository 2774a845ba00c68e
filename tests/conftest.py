"""Run the suite with one BLAS thread per process.

The bench tests start process pools; with default BLAS threads every
worker also starts one thread per core, they fight over the cores, and the
suite runs about twice as long with the same results. The variables only
take effect if they are set before numpy loads, so this file checks that
it runs first. A value already exported in the environment is kept.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

assert "numpy" not in sys.modules, (
    "numpy was imported before tests/conftest.py, so its BLAS thread settings "
    "do not apply; run the suite without plugins that import numpy"
)
