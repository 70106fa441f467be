import os
import threading

import pytest


@pytest.fixture(autouse=True)
def no_worker_left():
    """Fail a test that leaves a child process behind, running or unreaped,
    or a thread still running: every worker the package forks must be
    reaped, and every thread it starts joined, before its call returns."""
    threads = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in threads]
    if left:
        pytest.fail(f"the test left threads running: {', '.join(left)}")
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process behind: "
                + (f"pid {pid}, exited but not reaped" if pid else "still running"))
