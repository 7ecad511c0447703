import threading

import pytest

import rrtls.harness


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves more threads alive than it started with,
    such as a chunk lane that some path (an exception included) never
    joins."""
    before = threading.active_count()
    yield
    after = threading.active_count()
    assert after <= before, f"{after - before} thread(s) left running: {threading.enumerate()}"


@pytest.fixture
def no_draws(monkeypatch):
    """Fail the test if the Monte Carlo engine draws any trial."""

    def refuse(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(rrtls.harness, "sample_ls", refuse)
    monkeypatch.setattr(rrtls.harness, "sample_tls", refuse)
