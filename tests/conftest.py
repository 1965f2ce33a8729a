import numpy as np
import pytest

from oqsl import audit, dynamics


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def take_stepper(monkeypatch):
    """A function that sends every grid the Taylor cells certify to them at
    every d, however few steps a cell spans (dynamics.CELL_MIN_STEPS = 0),
    and makes any later call of the exact Lindblad route fail the test."""

    def fail(*args, **kwargs):
        raise AssertionError("the exact Lindblad route was taken")

    def take():
        monkeypatch.setattr(dynamics, "CELL_MIN_STEPS", 0)
        monkeypatch.setattr(dynamics, "_exact_chunks", fail)

    return take


@pytest.fixture
def take_exact(monkeypatch):
    """A function that sends the Lindblad kernel at dimension d to the exact
    propagator: every step with h beta > 0 is stiff (dynamics.THETA = 0),
    dynamics.EXACT_MAX_DIM is raised to d if need be, and any later call of
    the Taylor cells fails the test."""

    def fail(*args, **kwargs):
        raise AssertionError("the Taylor cells were taken")

    def take(dim):
        monkeypatch.setattr(dynamics, "THETA", 0.0)
        monkeypatch.setattr(dynamics, "EXACT_MAX_DIM", max(dynamics.EXACT_MAX_DIM, dim))
        monkeypatch.setattr(dynamics, "_taylor_chunks", fail)

    return take


@pytest.fixture
def block_declares_units(monkeypatch):
    """Makes the audit's batched blocks declare the d^2 matrix units as probes
    of every trajectory, besides the probes of its bounds, so that a test
    can rebuild O(t) from them (oracles.samples_from_probes), and every read
    of dynamics.READS, so that it can compare each series."""

    def trajectories(gens, O0s, rhos, grid, probes, reads):
        d = gens[0].dim
        units = tuple(np.eye(d * d, dtype=complex).reshape(d * d, d, d))
        return dynamics.trajectories(gens, O0s, rhos, grid, [(*p, *units) for p in probes])

    monkeypatch.setattr(audit, "trajectories", trajectories)
