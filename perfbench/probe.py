"""Print, as JSON, where `haartest.cli` imports from and which numpy and BLAS it gets.

Run in a child process with the benchmark's environment, so that the
benchmark process itself never imports numpy or the package: its own peak
RSS would otherwise be counted in the peak RSS of every child it starts.
"""
from __future__ import annotations

import ctypes
import json


def blas_threads():
    """OpenBLAS's default thread count, asked from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> None:
    import haartest.cli
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    print(json.dumps({
        "haartest_file": haartest.cli.__file__,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_default_threads": blas_threads(),
    }))


if __name__ == "__main__":
    main()
