import numpy as np
import pytest

from bcm1d import GridSpec, MediumSpec


@pytest.fixture(scope="session")
def coarse_grid():
    """Fast grid for unit tests; same CFL ratio as the reference setup."""
    return GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 500, 3.0)


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
