import numpy as np
import pytest

from oqsl import dynamics


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def take_rk4(monkeypatch):
    """A function that sends the Lindblad kernel at dimension d to the RK4
    route, lowering dynamics.EXACT_MAX_DIM below d if need be, and makes any
    later call of the exact route fail the test."""

    def fail(*args, **kwargs):
        raise AssertionError("the exact Lindblad route was taken")

    def take(dim):
        monkeypatch.setattr(dynamics, "EXACT_MAX_DIM", min(dynamics.EXACT_MAX_DIM, dim - 1))
        monkeypatch.setattr(dynamics, "_exact_chunks", fail)

    return take
