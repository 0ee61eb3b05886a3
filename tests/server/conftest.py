"""Server-suite fixtures."""

import threading
import time

import pytest


def _transport_threads():
    return [thread.name for thread in threading.enumerate()
            if thread.name.startswith(("aio-loop", "aio-worker"))]


@pytest.fixture(autouse=True)
def no_stray_transport_threads():
    """A test that starts an event-loop server must shut it down: a leaked
    loop or worker thread outlives the test and serves the next one's
    federation.  Set up first, so it checks after every other fixture's
    teardown."""
    yield
    deadline = time.monotonic() + 2.0
    while _transport_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _transport_threads(), "event-loop server left running"
