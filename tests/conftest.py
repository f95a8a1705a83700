import numpy as np
import pytest

from bcm1d import GridSpec, MediumSpec
from bcm1d.control import support_grid


@pytest.fixture(scope="session")
def coarse_grid():
    """Fast grid for unit tests; same CFL ratio as the reference setup."""
    return GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 500, 3.0)


@pytest.fixture(scope="session")
def coarse_support_grid(coarse_grid):
    """The coarse grid lengthened to the support grid of its controls, which
    vanish in its first and last three steps, as the transfer maps need."""
    return support_grid(coarse_grid)


@pytest.fixture(scope="session")
def coarse_grid_t5():
    """Coarse spacing but the full reference window T = 5."""
    return GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 500, 5.0)


@pytest.fixture(scope="session")
def mid_grid():
    """Half-reference resolution with the full window; identity-grade."""
    return GridSpec(-1.0, 1.0, 1.0 / 100, 1.0 / 1000, 5.0)


@pytest.fixture(scope="session")
def zero_medium(coarse_grid):
    return MediumSpec(0.0, np.zeros(coarse_grid.nx))


def smooth_sigma_dot(xs: np.ndarray) -> np.ndarray:
    """The smooth reference perturbation used across tests."""
    return (np.cos(np.pi * xs) + np.cos(2 * np.pi * xs)
            + np.cos(3 * np.pi * xs) + np.sin(4 * np.pi * xs) + 4.0)


def assert_quiet(traces, quiet: int) -> None:
    """Each series of ``traces`` is zero in its first and its last
    ``quiet`` steps and nonzero among the three steps next to them: the
    controls' quiet steps, counted to the step."""
    for tr in traces:
        for v in tr.values:
            last = len(v) - quiet
            assert not np.any(v[:quiet]) and not np.any(v[last:])
            assert np.any(v[quiet:quiet + 3]) and np.any(v[last - 3:last])
