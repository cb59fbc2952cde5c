"""Locate the checkout's sources and pin the BLAS thread count.

Call ``prepare`` before anything imports numpy or qglnm.  The benchmark
always measures the ``src/qglnm`` of the checkout it sits in, never an
installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One process, one BLAS thread: the load never exceeds the cores, and
# numpy.linalg timings do not depend on what else runs on the machine.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSources(RuntimeError):
    pass


def prepare() -> None:
    """Put ``src`` first on the import path and set the BLAS thread count."""
    if not (SRC / "qglnm" / "__init__.py").is_file():
        raise MissingSources(f"no qglnm sources under {SRC}")
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qglnm

    if Path(qglnm.__file__).resolve().parent != SRC / "qglnm":
        raise MissingSources(f"qglnm was imported from {qglnm.__file__}, not from {SRC}")
