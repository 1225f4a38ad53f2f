"""The one-thread OpenBLAS context around training."""

import builtins
import ctypes
import ctypes.util

import pytest

from metareplay import blas


@pytest.fixture
def fake_api(monkeypatch):
    """A thread API that records the count; the caller's count is 3."""
    state = {"threads": 3}
    monkeypatch.setattr(blas, "thread_api",
                        lambda: (lambda: state["threads"],
                                 lambda n: state.__setitem__("threads", n)))
    return state


def test_one_thread_in_the_body_and_the_count_restored_on_return(fake_api):
    with blas.one_blas_thread():
        assert fake_api["threads"] == 1
    assert fake_api["threads"] == 3


def test_the_count_is_restored_when_the_body_raises(fake_api):
    with pytest.raises(RuntimeError, match="boom"), blas.one_blas_thread():
        assert fake_api["threads"] == 1
        raise RuntimeError("boom")
    assert fake_api["threads"] == 3


def test_the_real_count_is_one_in_the_body_and_restored():
    api = blas.thread_api()
    if api is None:
        pytest.skip("no OpenBLAS thread API found")
    get, _ = api
    before = get()
    with blas.one_blas_thread():
        assert get() == 1
    assert get() == before


def test_the_lookup_reads_no_proc_file(monkeypatch):
    """The library is found through numpy's own extension, on any OS."""
    real_open = builtins.open

    def no_proc(file, *args, **kwargs):
        if str(file).startswith("/proc/"):
            raise OSError(f"{file} is not readable here")
        return real_open(file, *args, **kwargs)

    if blas.thread_api() is None:
        pytest.skip("no OpenBLAS thread API found")
    monkeypatch.setattr(builtins, "open", no_proc)
    blas.thread_api.cache_clear()
    try:
        assert blas.thread_api() is not None
    finally:
        blas.thread_api.cache_clear()


@pytest.mark.parametrize("library", [ctypes.util.find_library("m"), "/nonexistent/libopenblas.so"],
                         ids=["none", "unloadable"])
def test_no_library_found_is_a_no_op(monkeypatch, library):
    real = blas.thread_api()
    before = real[0]() if real else None
    monkeypatch.setattr(blas, "_LINALG", library)
    blas.thread_api.cache_clear()
    try:
        assert blas.thread_api() is None
        with blas.one_blas_thread():
            assert (real[0]() if real else None) == before
    finally:
        blas.thread_api.cache_clear()  # the next lookup finds the real library again
