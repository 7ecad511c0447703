import pytest

import rrtls.harness


@pytest.fixture
def no_draws(monkeypatch):
    """Fail the test if the Monte Carlo engine draws any trial."""

    def refuse(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(rrtls.harness, "sample_ls", refuse)
    monkeypatch.setattr(rrtls.harness, "sample_tls", refuse)
