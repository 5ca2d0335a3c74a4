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
