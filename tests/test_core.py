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
    bilinear_time_boundary_pairing,
    discrete_sobolev_norm,
    reflect_trace,
)


class TestGridSpec:
    def test_paper_grid_sizes(self):
        g = GridSpec(-1.0, 1.0, 1.0 / 250, 1.0 / 2500, 5.0)
        assert g.nx == 501
        assert g.nt == 25001
        assert g.half_index == 12500
        assert np.isclose(g.ts[g.half_index], 5.0)
        assert np.isclose(g.cfl_number(1.0), 0.1)

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
    def test_zero(self, coarse_grid):
        z = BoundaryTrace.zeros(coarse_grid)
        assert bilinear_time_boundary_pairing(z, z, coarse_grid.T) == 0

    def test_constant_ones(self):
        g = GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 500, 5.0)
        ones = _trace_from(g, np.ones_like, np.ones_like)
        # two endpoints, unit integrand: 2 * T
        val = bilinear_time_boundary_pairing(ones, ones, g.T)
        assert np.isclose(val, 2 * g.T, rtol=0, atol=1e-12)

    def test_linear_times_one_endpoint_a(self, coarse_grid):
        # integrand t on endpoint a only; trapezoid is exact on linear functions
        g1 = _trace_from(coarse_grid, lambda t: t, np.zeros_like)
        g2 = _trace_from(coarse_grid, np.ones_like, np.zeros_like)
        val = bilinear_time_boundary_pairing(g1, g2, coarse_grid.T)
        assert np.isclose(val, coarse_grid.T**2 / 2, rtol=0, atol=1e-10)

    def test_quadratic_trapezoid_convergence(self):
        # t * t integrand has trapezoid error T dt^2 / 6; halving dt divides it by 4
        errs = []
        for dt in (1.0 / 500, 1.0 / 1000):
            g = GridSpec(-1.0, 1.0, 1.0 / 50, dt, 3.0)
            lin = _trace_from(g, lambda t: t, np.zeros_like)
            val = bilinear_time_boundary_pairing(lin, lin, g.T)
            errs.append(abs(val - g.T**3 / 3))
        assert errs[1] > 0
        assert 3.9 <= errs[0] / errs[1] <= 4.1

    def test_symmetry_and_bilinearity_concrete(self, coarse_grid):
        g1 = _trace_from(coarse_grid, np.sin, np.cos)
        g2 = _trace_from(coarse_grid, lambda t: t, lambda t: t**2)
        g3 = _trace_from(coarse_grid, np.cos, np.sin)
        p12 = bilinear_time_boundary_pairing(g1, g2, coarse_grid.T)
        p21 = bilinear_time_boundary_pairing(g2, g1, coarse_grid.T)
        assert p12 == p21
        a, b = 2.0 - 1.0j, 0.5 + 3.0j
        left = bilinear_time_boundary_pairing(a * g1 + b * g2, g3, coarse_grid.T)
        right = (a * bilinear_time_boundary_pairing(g1, g3, coarse_grid.T)
                 + b * bilinear_time_boundary_pairing(g2, g3, coarse_grid.T))
        assert np.isclose(left, right, rtol=1e-13)

    @given(
        data=st.lists(
            st.tuples(
                st.floats(-5, 5), st.floats(-5, 5),
                st.floats(-5, 5), st.floats(-5, 5),
            ),
            min_size=9, max_size=9,
        ),
        alpha=st.complex_numbers(max_magnitude=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_pairing_scaling_property(self, data, alpha):
        arr = np.asarray(data, dtype=float)
        dt = 0.25
        g1 = BoundaryTrace(arr[:, 0], arr[:, 1], dt)
        g2 = BoundaryTrace(arr[:, 2], arr[:, 3], dt)
        upto = dt * 8
        base = bilinear_time_boundary_pairing(g1, g2, upto)
        scaled = bilinear_time_boundary_pairing(alpha * g1, g2, upto)
        assert np.isclose(scaled, alpha * base, rtol=1e-12, atol=1e-12)

    def test_off_grid_upto_rejected(self, coarse_grid):
        z = BoundaryTrace.zeros(coarse_grid)
        for upto in (coarse_grid.dt * 0.5, coarse_grid.dt * 1.5):
            with pytest.raises(ValueError, match="not a multiple of dt"):
                bilinear_time_boundary_pairing(z, z, upto)

    def test_upto_window_edges(self, coarse_grid):
        g = coarse_grid
        ones = _trace_from(g, np.ones_like, np.ones_like)
        # t = 2T is the last sample; one step further leaves the window
        val = bilinear_time_boundary_pairing(ones, ones, 2 * g.T)
        assert np.isclose(val, 4 * g.T, rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match="outside the trace window"):
            bilinear_time_boundary_pairing(ones, ones, 2 * g.T + g.dt)
        with pytest.raises(ValueError, match="outside the trace window"):
            discrete_sobolev_norm(ones, 0, 2 * g.T + g.dt)

    def test_mismatched_traces_rejected(self, coarse_grid):
        z = BoundaryTrace.zeros(coarse_grid)
        other = BoundaryTrace(np.zeros(10), np.zeros(10), coarse_grid.dt)
        with pytest.raises(GridMismatchError):
            bilinear_time_boundary_pairing(z, other, coarse_grid.T)


class TestReflect:
    def test_constant_invariant(self, coarse_grid):
        c = _trace_from(coarse_grid, lambda t: 3.0 + 0 * t, lambda t: 3.0 + 0 * t)
        r = reflect_trace(c)
        assert np.array_equal(r.values_a, c.values_a)

    def test_linear_reflects_to_2T_minus_t(self, coarse_grid):
        lin = _trace_from(coarse_grid, lambda t: t, lambda t: t)
        r = reflect_trace(lin)
        assert np.isclose(r.values_a[0], 2 * coarse_grid.T)
        ts = coarse_grid.ts
        assert np.allclose(r.values_a, 2 * coarse_grid.T - ts, atol=1e-12)

    def test_involution(self, coarse_grid):
        rng = np.random.default_rng(7)
        g = BoundaryTrace(
            rng.standard_normal(coarse_grid.nt) + 1j * rng.standard_normal(coarse_grid.nt),
            rng.standard_normal(coarse_grid.nt),
            coarse_grid.dt,
        )
        rr = reflect_trace(reflect_trace(g))
        assert np.array_equal(rr.values_a, g.values_a)
        assert np.array_equal(rr.values_b, g.values_b)


class TestSobolevNorm:
    def test_zero(self, coarse_grid):
        z = BoundaryTrace.zeros(coarse_grid)
        assert discrete_sobolev_norm(z, 2, coarse_grid.T) == 0.0

    def test_constant_l2(self):
        g = GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 500, 5.0)
        c = 2.5
        tr = _trace_from(g, lambda t: c + 0 * t, lambda t: c + 0 * t)
        val = discrete_sobolev_norm(tr, 0, g.T)
        assert np.isclose(val, c * np.sqrt(2 * g.T), rtol=1e-12)

    def test_sine_h1_matches_closed_form(self):
        # ||sin||_{H^1(0,T)}^2 = int sin^2 + cos^2 = T
        g = GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 500, 5.0)
        tr = _trace_from(g, np.sin, np.zeros_like)
        val = discrete_sobolev_norm(tr, 1, g.T)
        assert np.isclose(val, np.sqrt(g.T), atol=5e-5)

    def test_invalid_order(self, coarse_grid):
        z = BoundaryTrace.zeros(coarse_grid)
        with pytest.raises(ValueError):
            discrete_sobolev_norm(z, 3, coarse_grid.T)


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
            MediumSpec(1.0, 0.0, **fields)

    @pytest.mark.parametrize("rho0,sigma0,field", [
        (np.nan, 0.0, "rho0"), (np.inf, 0.0, "rho0"),
        (1.0, np.nan, "sigma0"), (1.0, np.inf, "sigma0"),
    ])
    def test_non_finite_background_rejected(self, rho0, sigma0, field):
        with pytest.raises(ConfigurationError, match=f"^{field} must be finite"):
            MediumSpec(rho0, sigma0, np.ones(11))

    @pytest.mark.parametrize("field", ["sigma_dot", "sigma_ddot"])
    @pytest.mark.parametrize("shape", [(), (11, 2)])
    def test_non_1d_samples_rejected(self, field, shape):
        fields = {"sigma_dot": np.ones(11), field: np.ones(shape)}
        with pytest.raises(ConfigurationError, match=f"{field} must be 1-D"):
            MediumSpec(1.0, 0.0, **fields)

    def test_samples_stored_as_float_arrays(self):
        med = MediumSpec(1.0, 0.0, [1, 2, 3], [0, 1, 0])
        assert med.sigma_dot.dtype == float and med.sigma_ddot.dtype == float
        assert MediumSpec(1.0, 0.0, [1.0]).sigma_ddot is None

    def test_sigma_ddot_length_must_match_sigma_dot(self):
        with pytest.raises(ConfigurationError, match="sigma_ddot has 7 samples"):
            MediumSpec(1.0, 0.0, np.ones(501), np.ones(7))
