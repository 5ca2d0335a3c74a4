"""Suite-wide checks that run around every test."""

import os
import tracemalloc

import pytest


@pytest.fixture(autouse=True)
def no_child_left_unreaped():
    # a run with several workers forks them and must reap every one, also
    # when it fails; a child still running or a zombie fails the test
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process is still running" if pid == 0
                else f"child process {pid} ended but was not reaped")


def traced_peak(fn) -> int:
    """Traced peak bytes of a call of ``fn()``, after one warm-up call, so
    that first-call allocations are not counted."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def openblas(monkeypatch):
    """``openblas(lib)`` makes ``experiments._openblas()`` return ``lib``
    (None: no library) for the rest of the test.  The helpers that cache
    what they found in it are cleared around the test."""
    from rmsde import experiments

    helpers = (experiments._blas_threads, experiments._tridiagonal_solvers)

    def use(lib):
        monkeypatch.setattr(experiments, "_openblas", lambda: lib)
        for helper in helpers:
            helper.cache_clear()

    yield use
    for helper in helpers:  # before monkeypatch restores _openblas
        helper.cache_clear()
