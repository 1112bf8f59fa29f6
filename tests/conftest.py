"""The platform key in the pytest header.

The bit-exact pins (model, corpus and report hashes) hold on one BLAS kernel
and one numpy SIMD level only, so the header names both: the numpy version,
the SIMD features numpy dispatches to on this CPU, and the core name of the
OpenBLAS library numpy ships. A lookup that fails prints `unknown`.
"""
import ctypes
from pathlib import Path

import numpy as np


def _simd_found() -> str:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f)) or "none"


def _openblas_core() -> str:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    (lib,) = libs.glob("libscipy_openblas*.so*")
    corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _or_unknown(lookup) -> str:
    try:
        return lookup()
    except Exception:  # a header line must never fail collection
        return "unknown"


def pytest_report_header(config):
    return (
        f"platform key: numpy {np.__version__}; SIMD {_or_unknown(_simd_found)}; "
        f"OpenBLAS core {_or_unknown(_openblas_core)}"
    )
