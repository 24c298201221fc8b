"""Set the thread count of the OpenBLAS numpy bundles, for one block.

metric._LU factors a W only while that library runs one thread (see the
metric module docstring). A test process runs as many as the machine
gives, so a test of the factored path pins one thread here, through the
library's own get and set calls, and the old count comes back after.
"""

import contextlib
import ctypes
import glob
import os

import numpy as np
import pytest


def _openblas():
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    found = glob.glob(os.path.join(libs, "libscipy_openblas64_*"))
    if not found:
        pytest.skip("numpy bundles no scipy-openblas here")
    lib = ctypes.CDLL(found[0])
    get = lib.scipy_openblas_get_num_threads64_
    put = lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextlib.contextmanager
def blas_threads(count):
    """Run the block at count BLAS threads; yields the count in effect."""
    get, put = _openblas()
    old = get()
    put(count)
    try:
        yield get()
    finally:
        put(old)
