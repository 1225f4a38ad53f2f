"""numpy's OpenBLAS on the calling thread only.

A product split over OpenBLAS's worker threads leaves the weights in a
worker's cache, where the optimizer step that writes them next must fetch
them back, and a dot product over more than about 10,000 entries is summed
in an order set by the thread count. The library is the one numpy's own
linear-algebra extension links, found through that extension's handle.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

import numpy.linalg

# numpy's linear-algebra extension: dlsym on it also searches its dependencies.
_LINALG = numpy.linalg._umath_linalg.__file__

# (get, set) thread-count symbols of each OpenBLAS build numpy ships or links.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def thread_api():
    """(get, set) thread-count functions of the OpenBLAS numpy links, found
    once; None where there is none (another BLAS, or a loader that does not
    search a library's dependencies)."""
    try:
        handle = ctypes.CDLL(_LINALG)
    except OSError:
        return None
    for get_name, set_name in _SYMBOLS:
        get, set_ = getattr(handle, get_name, None), getattr(handle, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with OpenBLAS on one thread, then restore the caller's
    count. The count is process-wide, so two Python threads must not be in
    the body at once: one could leave the caller on one thread for good."""
    api = thread_api()
    if api is None:
        yield
        return
    get, set_ = api
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)
