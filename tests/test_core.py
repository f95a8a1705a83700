import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcm1d import (
    BoundaryTrace,
    ConfigurationError,
    GridMismatchError,
    GridSpec,
    MediumSpec,
    discrete_sobolev_norm,
)
from bcm1d.identity import _pair


class TestGridSpec:
    def test_paper_grid_sizes(self):
        g = GridSpec(-1.0, 1.0, 1.0 / 250, 1.0 / 2500, 5.0)
        assert g.nx == 501
        assert g.nt == 25001
        assert g.half_index == 12500
        assert np.isclose(g.ts[g.half_index], 5.0)

    def test_non_integer_spacing_rejected(self):
        with pytest.raises(ConfigurationError):
            GridSpec(-1.0, 1.0, 0.3, 0.01, 3.0)
        with pytest.raises(ConfigurationError):
            GridSpec(-1.0, 1.0, 0.01, 0.7, 3.0)

    def test_short_window_rejected(self):
        # T must cover the domain length plus the extension width
        with pytest.raises(ConfigurationError):
            GridSpec(-1.0, 1.0, 0.01, 0.001, 2.5)

    @pytest.mark.parametrize("field", ["a", "b", "dx", "dt", "T"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_fields_rejected(self, field, bad):
        fields = dict(a=-1.0, b=1.0, dx=0.02, dt=0.002, T=3.0)
        fields[field] = bad
        with pytest.raises(ConfigurationError, match=f"^{field} must be finite"):
            GridSpec(**fields)


def _trace_from(grid, fa, fb):
    return BoundaryTrace.from_functions(grid, fa, fb)


class TestPairing:
    """The reflected pairing < x(t), y(2T - t) > over (0, T) x {a, b}."""

    def test_zero(self, coarse_grid):
        z = BoundaryTrace.zeros(coarse_grid)
        assert _pair(z, z, coarse_grid) == 0

    def test_constant_ones(self):
        g = GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 500, 5.0)
        ones = _trace_from(g, np.ones_like, np.ones_like)
        # two endpoints, unit integrand: 2 * T
        val = _pair(ones, ones, g)
        assert np.isclose(val, 2 * g.T, rtol=0, atol=1e-12)

    def test_linear_times_one_endpoint_a(self, coarse_grid):
        # integrand t on endpoint a only; trapezoid is exact on linear functions
        g1 = _trace_from(coarse_grid, lambda t: t, np.zeros_like)
        g2 = _trace_from(coarse_grid, np.ones_like, np.zeros_like)
        val = _pair(g1, g2, coarse_grid)
        assert np.isclose(val, coarse_grid.T**2 / 2, rtol=0, atol=1e-10)

    def test_quadratic_trapezoid_convergence(self):
        # t (2T - t) integrates to 2T^3/3 with trapezoid error T dt^2 / 6;
        # halving dt divides it by 4
        errs = []
        for dt in (1.0 / 500, 1.0 / 1000):
            g = GridSpec(-1.0, 1.0, 1.0 / 50, dt, 3.0)
            lin = _trace_from(g, lambda t: t, np.zeros_like)
            val = _pair(lin, lin, g)
            errs.append(abs(val - 2 * g.T**3 / 3))
        assert errs[1] > 0
        assert 3.9 <= errs[0] / errs[1] <= 4.1

    def test_bilinearity_concrete(self, coarse_grid):
        g1 = _trace_from(coarse_grid, np.sin, np.cos)
        g2 = _trace_from(coarse_grid, lambda t: t, lambda t: t**2)
        g3 = _trace_from(coarse_grid, np.cos, np.sin)
        a, b = 2.0 - 1.0j, 0.5 + 3.0j
        left = _pair(a * g1 + b * g2, g3, coarse_grid)
        right = (a * _pair(g1, g3, coarse_grid)
                 + b * _pair(g2, g3, coarse_grid))
        assert np.isclose(left, right, rtol=1e-13)
        left = _pair(g3, a * g1 + b * g2, coarse_grid)
        right = (a * _pair(g3, g1, coarse_grid)
                 + b * _pair(g3, g2, coarse_grid))
        assert np.isclose(left, right, rtol=1e-13)

    @given(
        data=st.lists(
            st.tuples(
                st.floats(-5, 5), st.floats(-5, 5),
                st.floats(-5, 5), st.floats(-5, 5),
            ),
            min_size=13, max_size=13,
        ),
        alpha=st.complex_numbers(max_magnitude=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_pairing_scaling_property(self, data, alpha):
        arr = np.asarray(data, dtype=float)
        g = GridSpec(-1.0, 1.0, 0.5, 0.5, 3.0)  # 13 samples
        g1 = BoundaryTrace(arr[:, 0], arr[:, 1], g.dt)
        g2 = BoundaryTrace(arr[:, 2], arr[:, 3], g.dt)
        base = _pair(g1, g2, g)
        for scaled in (_pair(alpha * g1, g2, g), _pair(g1, alpha * g2, g)):
            assert np.isclose(scaled, alpha * base, rtol=1e-12, atol=1e-12)

    def test_mismatched_traces_rejected(self, coarse_grid):
        z = BoundaryTrace.zeros(coarse_grid)
        short = BoundaryTrace(np.zeros(10), np.zeros(10), coarse_grid.dt)
        coarse = BoundaryTrace(z.values_a, z.values_b, 2 * coarse_grid.dt)
        for other in (short, coarse):
            with pytest.raises(GridMismatchError):
                _pair(z, other, coarse_grid)
            with pytest.raises(GridMismatchError):
                _pair(other, z, coarse_grid)


class TestSobolevNorm:
    def test_zero(self, coarse_grid):
        z = BoundaryTrace.zeros(coarse_grid)
        assert discrete_sobolev_norm(z, 2) == 0.0

    def test_constant_l2(self):
        g = GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 500, 5.0)
        c = 2.5
        tr = _trace_from(g, lambda t: c + 0 * t, lambda t: c + 0 * t)
        val = discrete_sobolev_norm(tr, 0)
        assert np.isclose(val, c * np.sqrt(2 * g.T), rtol=1e-12)

    def test_sine_h1_matches_closed_form(self):
        # ||sin||_{H^1(0,T)}^2 = int sin^2 + cos^2 = T
        g = GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 500, 5.0)
        tr = _trace_from(g, np.sin, np.zeros_like)
        val = discrete_sobolev_norm(tr, 1)
        assert np.isclose(val, np.sqrt(g.T), atol=5e-5)

    def test_invalid_order(self, coarse_grid):
        z = BoundaryTrace.zeros(coarse_grid)
        with pytest.raises(ValueError):
            discrete_sobolev_norm(z, 3)

    def test_even_length_rejected(self, coarse_grid):
        # a trace over (0, 2T) has 2T/dt + 1 samples; one sample short, it
        # has no middle sample at t = T to end the window
        ones = np.ones(coarse_grid.nt - 1)
        with pytest.raises(GridMismatchError, match="2T/dt \\+ 1 samples"):
            discrete_sobolev_norm(BoundaryTrace(ones, ones, coarse_grid.dt), 0)


class TestTraceAlgebra:
    def test_add_sub_scale(self, coarse_grid):
        g1 = _trace_from(coarse_grid, np.sin, np.cos)
        g2 = _trace_from(coarse_grid, np.cos, np.sin)
        s = g1 + g2
        d = (s - g2) - g1
        assert np.allclose(d.values_a, 0) and np.allclose(d.values_b, 0)
        sc = 2j * g1
        assert np.array_equal(sc.values_a, 2j * g1.values_a)

    def test_incompatible_addition_rejected(self, coarse_grid):
        g1 = BoundaryTrace.zeros(coarse_grid)
        g2 = BoundaryTrace(np.zeros(5), np.zeros(5), coarse_grid.dt)
        with pytest.raises(GridMismatchError):
            g1 + g2


class TestMediumSpec:
    @pytest.mark.parametrize("field", ["sigma_dot", "sigma_ddot"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_rejected(self, field, bad):
        samples = np.ones(11)
        samples[4] = bad
        fields = {"sigma_dot": np.ones(11), field: samples}
        with pytest.raises(ConfigurationError, match=f"{field} has non-finite"):
            MediumSpec(0.0, **fields)

    @pytest.mark.parametrize("sigma0", [np.nan, np.inf])
    def test_non_finite_background_rejected(self, sigma0):
        with pytest.raises(ConfigurationError, match="^sigma0 must be finite"):
            MediumSpec(sigma0, np.ones(11))

    @pytest.mark.parametrize("field", ["sigma_dot", "sigma_ddot"])
    @pytest.mark.parametrize("shape", [(), (11, 2)])
    def test_non_1d_samples_rejected(self, field, shape):
        fields = {"sigma_dot": np.ones(11), field: np.ones(shape)}
        with pytest.raises(ConfigurationError, match=f"{field} must be 1-D"):
            MediumSpec(0.0, **fields)

    def test_samples_stored_as_float_arrays(self):
        med = MediumSpec(0.0, [1, 2, 3], [0, 1, 0])
        assert med.sigma_dot.dtype == float and med.sigma_ddot.dtype == float
        assert MediumSpec(0.0, [1.0]).sigma_ddot is None

    def test_sigma_ddot_length_must_match_sigma_dot(self):
        with pytest.raises(ConfigurationError, match="sigma_ddot has 7 samples"):
            MediumSpec(0.0, np.ones(501), np.ones(7))
