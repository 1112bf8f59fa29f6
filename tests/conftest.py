"""The platform key in the pytest header, and the golden pins that name it.

The bit-exact pins (model, corpus and report hashes) hold on one BLAS kernel
and one numpy SIMD level only, so the key names both: the numpy version, the
SIMD features numpy dispatches to on this CPU, and the core name of the
OpenBLAS library numpy ships. A lookup that fails prints `unknown`. Each
golden table records the key it was taken on, and assert_pinned names that
key and this run's in the message of a mismatch.
"""
import ctypes
from pathlib import Path

import numpy as np

# the platform key that GOLDEN_TRAIN, GOLDEN_CORPORA and the format-1 detect sha were taken on
GOLDEN_KEY = "numpy 2.4.6; SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR; OpenBLAS core SkylakeX"


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


def platform_key() -> str:
    return f"numpy {np.__version__}; SIMD {_or_unknown(_simd_found)}; OpenBLAS core {_or_unknown(_openblas_core)}"


def pytest_report_header(config):
    return f"platform key: {platform_key()}"


def assert_pinned(got: str, want: str, taken_on: str) -> None:
    """A golden value check whose failure names both platform keys."""
    assert got == want, f"got {got}, pinned {want} on platform key [{taken_on}]; this run: [{platform_key()}]"
