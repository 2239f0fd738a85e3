"""The OpenBLAS core (kernel family) that numpy's BLAS runs on.

OpenBLAS picks its kernels from the CPU when it loads, unless
``OPENBLAS_CORETYPE`` names a core.  Each kernel family rounds the partial
sums of a matrix product its own way, so the final-model digests in
``digests.json`` are pinned per core.  Print the name with

    python tests/openblas_core.py
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

# the name getter of numpy's bundled scipy-openblas build, then of a plain OpenBLAS
_GETTERS = ("scipy_openblas_get_corename64_", "openblas_get_corename")


def core_name() -> str | None:
    """The core name of the OpenBLAS that numpy bundles, or None when no
    library beside numpy has a name getter."""
    package = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(os.path.join(package, os.pardir, "numpy.libs", "*openblas*"))):
        library = ctypes.CDLL(path)  # the copy numpy loaded: dlopen of a loaded path returns it
        for getter in _GETTERS:
            name = getattr(library, getter, None)
            if name is not None:
                name.argtypes, name.restype = [], ctypes.c_char_p
                return name().decode()
    return None


if __name__ == "__main__":
    print(f"OpenBLAS core: {core_name()}")
