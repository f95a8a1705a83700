import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcm1d import (
    BoundaryTrace,
    ConfigurationError,
    FourierCoeffs,
    GridMismatchError,
    GridSpec,
    MediumSpec,
    ReconSettings,
)
from bcm1d.identity import ControlData, _pair, linearized_rhs

from oracles import discrete_sobolev_norm


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

    @pytest.mark.parametrize("dx, dt, ratio", [
        (5e-324, 0.002, r"\(b - a\)/dx"), (0.02, 5e-324, "T/dt"),
    ], ids=["dx", "dt"])
    def test_step_count_beyond_a_float_rejected(self, dx, dt, ratio):
        # the count overflows to inf, which round() cannot take
        with pytest.raises(ConfigurationError,
                           match=rf"^{ratio} = inf is not an integer$"):
            GridSpec(-1.0, 1.0, dx, dt, 3.0)

    def test_short_window_rejected(self):
        # T must cover the domain length plus the extension width
        with pytest.raises(ConfigurationError):
            GridSpec(-1.0, 1.0, 0.01, 0.001, 2.5)

    @pytest.mark.parametrize("dx, dt, message", [
        (0.02, 0.04, r"^CFL violated: dt / dx = 2.0000 > 1$"),
        (2.0, 1.5, "^grid too coarse: fewer than 3 steps to t = T$"),
        (2.0, 1.0, "^grid too coarse: 2 nodes, fewer than 3$"),
    ], ids=["cfl", "steps", "nodes"])
    def test_scheme_limits_rejected(self, dx, dt, message):
        with pytest.raises(ConfigurationError, match=message):
            GridSpec(-1.0, 1.0, dx, dt, 3.0)

    @pytest.mark.parametrize("field", ["a", "b", "dx", "dt", "T"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_fields_rejected(self, field, bad):
        fields = dict(a=-1.0, b=1.0, dx=0.02, dt=0.002, T=3.0)
        fields[field] = bad
        with pytest.raises(ConfigurationError, match=f"^{field} must be finite"):
            GridSpec(**fields)


def _with(field, value):
    """A GridSpec, MediumSpec or ReconSettings with ``field`` set to
    ``value``, the rest valid."""
    grid = dict(a=-1.0, b=1.0, dx=0.02, dt=0.002, T=3.0)
    if field == "sigma0":
        return MediumSpec(value, np.ones(3))
    if field in grid:
        return GridSpec(**{**grid, field: value})
    return ReconSettings(GridSpec(**grid), data_mode="nonlinear_difference",
                         **{field: value})


@pytest.mark.parametrize("field, value", [
    ("noise_eps", True), ("noise_eps", "0.1"), ("noise_eps", 1 + 0j),
    ("noise_eps", np.array([0.1])), ("eps_linearization", True),
    ("eps_linearization", np.array(1e-3)), ("T", "3"), ("dx", 0.02 + 0j),
    ("sigma0", True), ("sigma0", "0.1"),
])
def test_scalar_fields_refuse_what_is_not_a_real_number(field, value):
    # a bool would run as 0 or 1, and numpy would take the rest only to
    # fail later with an error of its own
    with pytest.raises(ConfigurationError,
                       match=f"^{field} must be a real number, got "):
        _with(field, value)


@pytest.mark.parametrize("field, value", [
    ("noise_eps", np.float32(0.1)), ("eps_linearization", 1),
    ("T", np.int64(3)), ("sigma0", np.float64(0.1)),
])
def test_scalar_fields_take_numpy_and_python_reals(field, value):
    assert getattr(_with(field, value), field) == value


@pytest.mark.parametrize("field, sign", [
    ("T", 1), ("a", -1), ("sigma0", 1), ("noise_eps", 1),
    ("eps_linearization", 1),
])
def test_scalar_fields_refuse_an_int_past_the_float_range(field, sign):
    # numpy would fail with an error of its own
    with pytest.raises(ConfigurationError) as exc:
        _with(field, sign * 10**400)
    message = str(exc.value)
    assert message == f"{field} must be finite, got an int past the float range"
    assert len(message) < 200


@pytest.mark.parametrize("N", [True, 2.0, np.float64(2.0), "2"],
                         ids=["bool", "float", "float64", "str"])
def test_fourier_coeffs_refuse_a_non_integer_N(N):
    # N = 2.0 was accepted, then failed inside synthesize
    message = re.escape(f"N must be an integer, got {N!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        FourierCoeffs(N, 0.0, np.ones(2), np.ones(2))


@pytest.mark.parametrize("a0", ["x", None, [1.0], np.array([1.0, 2.0]), True,
                                np.True_],
                         ids=["str", "None", "list", "array", "bool",
                              "numpy-bool"])
def test_fourier_coeffs_refuse_an_a0_that_is_not_one_number(a0):
    # each was accepted, then failed inside synthesize or ran as 1
    message = f"a0 must be a real or complex number, got {type(a0).__name__}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        FourierCoeffs(1, a0, [1.0], [1.0])


def _ends_from(grid, fa, fb):
    """The (2, nt) samples of fa at end a and fb at end b."""
    return np.stack((fa(grid.ts), fb(grid.ts)))


def _trace_from(grid, fa, fb):
    return BoundaryTrace(_ends_from(grid, fa, fb), grid.dt)


def _reflected(x, y, grid):
    """< x(t), y(2T - t) >: x's samples over (0, T) with y's over (T, 2T)."""
    nT = grid.half_index
    return _pair(x[:, :nT + 1], y[:, nT:], grid.dt)


class TestPairing:
    """The reflected pairing < x(t), y(2T - t) > over (0, T) x {a, b}."""

    def test_zero(self, coarse_grid):
        z = np.zeros((2, coarse_grid.nt))
        assert _reflected(z, z, coarse_grid) == 0

    def test_constant_ones(self):
        g = GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 500, 5.0)
        ones = _ends_from(g, np.ones_like, np.ones_like)
        # two endpoints, unit integrand: 2 * T
        val = _reflected(ones, ones, g)
        assert np.isclose(val, 2 * g.T, rtol=0, atol=1e-12)

    def test_linear_times_one_endpoint_a(self, coarse_grid):
        # integrand t on endpoint a only; trapezoid is exact on linear functions
        g1 = _ends_from(coarse_grid, lambda t: t, np.zeros_like)
        g2 = _ends_from(coarse_grid, np.ones_like, np.zeros_like)
        val = _reflected(g1, g2, coarse_grid)
        assert np.isclose(val, coarse_grid.T**2 / 2, rtol=0, atol=1e-10)

    def test_quadratic_trapezoid_convergence(self):
        # t (2T - t) integrates to 2T^3/3 with trapezoid error T dt^2 / 6;
        # halving dt divides it by 4
        errs = []
        for dt in (1.0 / 500, 1.0 / 1000):
            g = GridSpec(-1.0, 1.0, 1.0 / 50, dt, 3.0)
            lin = _ends_from(g, lambda t: t, np.zeros_like)
            val = _reflected(lin, lin, g)
            errs.append(abs(val - 2 * g.T**3 / 3))
        assert errs[1] > 0
        assert 3.9 <= errs[0] / errs[1] <= 4.1

    def test_bilinearity_concrete(self, coarse_grid):
        g1 = _ends_from(coarse_grid, np.sin, np.cos)
        g2 = _ends_from(coarse_grid, lambda t: t, lambda t: t**2)
        g3 = _ends_from(coarse_grid, np.cos, np.sin)
        a, b = 2.0 - 1.0j, 0.5 + 3.0j
        left = _reflected(a * g1 + b * g2, g3, coarse_grid)
        right = (a * _reflected(g1, g3, coarse_grid)
                 + b * _reflected(g2, g3, coarse_grid))
        assert np.isclose(left, right, rtol=1e-13)
        left = _reflected(g3, a * g1 + b * g2, coarse_grid)
        right = (a * _reflected(g3, g1, coarse_grid)
                 + b * _reflected(g3, g2, coarse_grid))
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
        g1, g2 = arr[:, :2].T, arr[:, 2:].T
        base = _reflected(g1, g2, g)
        for scaled in (_reflected(alpha * g1, g2, g),
                       _reflected(g1, alpha * g2, g)):
            assert np.isclose(scaled, alpha * base, rtol=1e-12, atol=1e-12)

    def test_mismatched_traces_rejected(self, coarse_grid):
        # the linearized identity checks each of the six traces it reads:
        # the first record's g and meas_t, and all four of the second's
        z = BoundaryTrace.zeros(coarse_grid)
        ok = ControlData(g=z, g_t=z, meas_t=z, meas_tt=z)
        short = BoundaryTrace(np.zeros((2, 10)), coarse_grid.dt)
        coarse = BoundaryTrace(z.values, 2 * coarse_grid.dt)
        slots = [(0, "g"), (0, "meas_t"), (1, "g"), (1, "g_t"), (1, "meas_t"),
                 (1, "meas_tt")]
        for other in (short, coarse):
            for record, field in slots:
                pair = [ok, ok]
                pair[record] = replace(ok, **{field: other})
                with pytest.raises(GridMismatchError, match="off the grid"):
                    linearized_rhs(*pair, 2j, coarse_grid)


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
        ones = np.ones((2, coarse_grid.nt - 1))
        with pytest.raises(GridMismatchError, match="2T/dt \\+ 1 samples"):
            discrete_sobolev_norm(BoundaryTrace(ones, coarse_grid.dt), 0)


class TestTraceDtype:
    """A trace keeps its data's dtype: float64 for real samples, complex128
    otherwise, in one (2, samples) array for both ends."""

    def test_real_samples_stay_real_without_a_copy(self):
        v = np.linspace(0.0, 1.0, 14).reshape(2, 7)
        tr = BoundaryTrace(v, 0.1)
        assert tr.values.dtype == np.float64
        assert tr.values is v

    def test_complex_samples_stay_complex(self):
        v = np.linspace(0.0, 1.0, 7) * (1.0 + 2.0j)
        tr = BoundaryTrace(np.stack((v, v.conj())), 0.1)
        assert tr.values.dtype == np.complex128
        assert np.array_equal(tr.values[1], v.conj())

    @pytest.mark.parametrize("v", [np.arange(7), np.arange(7, dtype=np.int8),
                                   np.arange(7) % 2 == 0,
                                   np.arange(7, dtype=np.float32)],
                             ids=["int64", "int8", "bool", "float32"])
    def test_ints_bools_and_narrow_floats_become_float64(self, v):
        tr = BoundaryTrace(np.stack((v, v)), 0.1)
        assert tr.values.dtype == np.float64
        assert np.array_equal(tr.values[0], v.astype(float))

    def test_mixed_ends_share_the_complex_dtype(self):
        # the ends as a pair of rows, one real and one complex
        re, im = np.ones(5), np.full(5, 1j)
        for ends in ((re, im), (im, re)):
            tr = BoundaryTrace(ends, 0.1)
            assert tr.values.dtype == np.complex128
            assert np.array_equal(tr.values, ends)

    def test_zeros_are_real(self, coarse_grid):
        z = BoundaryTrace.zeros(coarse_grid)
        assert z.values.dtype == np.float64
        assert z.values.shape == (2, coarse_grid.nt)

    @pytest.mark.parametrize("bad", [np.array(["a", "b"]),
                                     np.array([1.0, None], dtype=object),
                                     np.array(["2026-01-01"] * 2,
                                              dtype="datetime64[D]")],
                             ids=["str", "object", "datetime"])
    @pytest.mark.parametrize("end", ["values_a", "values_b"])
    def test_non_numeric_samples_rejected_by_name(self, bad, end):
        # the ends as a pair of rows, one numeric and one not
        ends = {"values_a": np.zeros(2), "values_b": np.zeros(2), end: bad}
        with pytest.raises(ConfigurationError, match="values has dtype"):
            BoundaryTrace((ends["values_a"], ends["values_b"]), 0.1)

    @pytest.mark.parametrize("bad", [np.array([["a", "b"]] * 2),
                                     np.array([[1.0, None]] * 2, dtype=object),
                                     np.array([["2026-01-01"] * 2] * 2,
                                              dtype="datetime64[D]")],
                             ids=["str", "object", "datetime"])
    def test_non_numeric_array_rejected_by_name(self, bad):
        with pytest.raises(ConfigurationError, match="values has dtype"):
            BoundaryTrace(bad, 0.1)

    @pytest.mark.parametrize("shape", [(7,), (3, 7), (2, 7, 1)],
                             ids=["one-end", "three-rows", "three-axes"])
    def test_values_not_of_two_rows_rejected_by_shape(self, shape):
        with pytest.raises(GridMismatchError,
                           match=re.escape(f"got {shape}")):
            BoundaryTrace(np.zeros(shape), 0.1)


class TestMediumSpec:
    @pytest.mark.parametrize("field", ["sigma_dot", "sigma_ddot"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_rejected(self, field, bad):
        samples = np.ones(11)
        samples[4] = bad
        fields = {"sigma_dot": np.ones(11), field: samples}
        with pytest.raises(ConfigurationError, match=f"{field} has non-finite"):
            MediumSpec(0.0, **fields)

    @pytest.mark.parametrize("field", ["sigma_dot", "sigma_ddot"])
    def test_complex_samples_rejected(self, field):
        # never cast to their real part
        fields = {"sigma_dot": np.ones(11), field: np.full(11, 1.0 + 0.5j)}
        with pytest.raises(ConfigurationError,
                           match=f"{field} is complex; the damping is real"):
            MediumSpec(0.0, **fields)

    @pytest.mark.parametrize("sigma0", [0.1 + 0.2j, np.complex128(0.5)])
    def test_complex_background_rejected(self, sigma0):
        # never compared with 0 as a complex number
        with pytest.raises(ConfigurationError,
                           match="^sigma0 is complex; the damping is real$"):
            MediumSpec(sigma0, np.ones(3))

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
