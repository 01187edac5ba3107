"""Process set-up shared by the benchmark scripts.

`pin()` must run before numpy is imported: OpenBLAS reads its thread count
once, at load time. It also puts the checkout's `src/` first on the import
path and refuses to run against any other copy of satguide, so a checkout
without sources fails instead of measuring an installed package.
"""

from __future__ import annotations

import os
import platform
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
FIXTURE_DIR = os.path.join(BENCH_DIR, "fixture")
OUT_DIR = os.path.join(BENCH_DIR, "out")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(Exception):
    """The checkout cannot be benchmarked (missing sources or fixture)."""


def pin():
    """Pin BLAS to one thread and import satguide from this checkout only."""
    if "numpy" in sys.modules:
        raise SetupError("numpy was imported before the BLAS thread pin")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    use_checkout_sources()


def use_checkout_sources():
    if not os.path.isfile(os.path.join(SRC, "satguide", "__init__.py")):
        raise SetupError(f"no satguide sources under {SRC}")
    sys.path.insert(0, SRC)
    import satguide

    where = os.path.dirname(os.path.abspath(satguide.__file__))
    if where != os.path.join(SRC, "satguide"):
        raise SetupError(f"satguide imported from {where}, not from {SRC}")


def describe() -> dict:
    """Machine and library facts recorded in every result."""
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError):  # older numpy: show_config has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }
