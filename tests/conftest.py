"""Fixtures and helpers that the test modules share: pinning the number of
usable CPUs, which sets how many parts a scan or the verify battery is cut
into, and checking that every forked worker was reaped."""

import os

import pytest


def pin_cpus(monkeypatch, count):
    """Make the scan and the verify battery see ``count`` usable CPUs, so
    one part per CPU."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))


@pytest.fixture
def one_chunk(monkeypatch):
    # a worker's residual calls are lost to a counter in this process, so
    # the tests that count calls scan in one chunk, here
    pin_cpus(monkeypatch, 1)


def assert_no_child_left():
    # every worker was reaped: no child runs, and no zombie waits
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
