"""Suite-wide checks that run around every test."""

import os

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
