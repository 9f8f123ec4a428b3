"""Grid bookkeeping, transforms, projections, and norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cube_ball_mask,
    cube_friedrichs_truncate,
    cube_grad_norm_sq,
    cube_interpolation_gap,
    cube_k_sq_safe,
    cube_leray_project,
    cube_product_law_ratio,
    cube_sobolev_norm,
    cube_wavenumbers,
    gradient_part,
    hermitian_error,
    kernel_fill_speed_sq,
    l2_inner,
    linf_norm,
    pointwise_speed_sq,
    reference_divergence_error,
    reference_hermitian_error,
    reference_support_and_mean,
    reference_validate,
    remove_mean,
    whole_speed_sq,
    zeros_like,
)
from nsdamp.inequalities import interpolation_gap, product_law_ratio
from nsdamp.initial_conditions import random_solenoidal
from nsdamp.spectral import (
    GridSpec,
    SpectralField,
    _magnitudes,
    _speed_sq,
    divergence_error,
    friedrichs_truncate,
    grad_norm_sq,
    l2_norm,
    leray_project,
    lp_norm_physical,
    make_grid,
    sobolev_norm,
    to_physical,
    to_spectral,
)

TWO_PI = 2.0 * np.pi


def _random_field(grid, seed, solenoidal=False):
    rng = np.random.default_rng(seed)
    phys = rng.standard_normal((3,) + (grid.n_modes,) * 3)
    f = to_spectral(phys, grid)
    f = friedrichs_truncate(f)
    if solenoidal:
        f = remove_mean(leray_project(f))
    return f


class TestGridSpec:
    def test_cutoff_radius(self):
        grid = make_grid(8, TWO_PI)
        assert grid.cutoff_radius == pytest.approx(8.0 / 3.0)
        # wavenumber spacing scales inversely with the box
        big = make_grid(8, 4.0 * TWO_PI)
        assert big.cutoff_radius == pytest.approx(2.0 / 3.0)

    def test_ball_mask_membership(self):
        grid = make_grid(8, TWO_PI)
        mask = grid.ball_mask
        assert mask[0, 0, 0]
        assert mask[2, 1, 1]  # |xi| ~ 2.449 inside
        assert not mask[2, 2, 0]  # |xi| ~ 2.828 outside
        # reflection symmetry: -m in ball iff m is
        refl = mask
        for ax in range(3):
            refl = np.roll(np.flip(refl, axis=ax), 1, axis=ax)
        assert np.array_equal(mask, refl)

    def test_mode_numbers_are_integers(self):
        grid = make_grid(16, TWO_PI)
        assert grid.mode_numbers.dtype == np.int64
        assert grid.mode_numbers[1] == 1 and grid.mode_numbers[-1] == -1

    def test_invalid_grids_rejected(self):
        with pytest.raises(ValueError):
            make_grid(7, TWO_PI)
        with pytest.raises(ValueError):
            make_grid(8, -1.0)
        with pytest.raises(ValueError, match="box_length must be positive"):
            make_grid(16, 0.0)
        with pytest.raises(ValueError):
            make_grid(8, TWO_PI, cutoff_fraction=0.8)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0])
    def test_a_cutoff_radius_that_is_not_positive_and_finite_is_refused(self, radius):
        # a NaN radius passes every comparison against the dealiasing bound
        with pytest.raises(ValueError, match="cutoff_radius must be positive and finite"):
            GridSpec(n_modes=8, box_length=TWO_PI, cutoff_radius=radius)

    def test_a_field_holds_coefficients_of_its_grid_as_complex128(self):
        grid = make_grid(8, TWO_PI)
        with pytest.raises(ValueError, match=r"coefficient array has shape \(3, 8, 8\), expected"):
            SpectralField(grid, np.zeros((3, 8, 8), dtype=np.complex128))
        real = SpectralField(grid, np.ones(grid.shape))
        assert real.coeffs.dtype == np.complex128 and np.array_equal(real.coeffs, np.ones(grid.shape))
        with pytest.raises(ValueError, match="fields live on different grids"):
            real + SpectralField(make_grid(8, 2.0 * TWO_PI), np.ones(grid.shape))
        with pytest.raises(ValueError, match=r"samples have shape \(8, 8, 8\), expected \(3, 8, 8, 8\)"):
            to_spectral(np.zeros((8, 8, 8)), grid)


class TestTransforms:
    def test_cosine_coefficient_convention(self):
        # cos(3x) splits into half-amplitude coefficients at modes +-3
        grid = make_grid(16, TWO_PI)
        x = np.arange(16) * grid.box_length / 16
        phys = np.zeros((3, 16, 16, 16))
        phys[1] = np.cos(3.0 * x)[:, None, None]
        f = to_spectral(phys, grid)
        assert f.coeffs[1, 3, 0, 0] == pytest.approx(0.5, abs=1e-14)
        assert f.coeffs[1, -3, 0, 0] == pytest.approx(0.5, abs=1e-14)
        other = np.abs(f.coeffs).sum() - np.abs(f.coeffs[1, 3, 0, 0]) - np.abs(f.coeffs[1, -3, 0, 0])
        assert other < 1e-12

    def test_round_trip(self):
        grid = make_grid(16, 3.0)
        rng = np.random.default_rng(1)
        phys = rng.standard_normal((3, 16, 16, 16))
        back = to_physical(to_spectral(phys, grid))
        np.testing.assert_allclose(back, phys, atol=1e-13)

    def test_parseval(self):
        # physical quadrature of |u|^2 equals the coefficient norm
        for n in (8, 16, 32):
            grid = make_grid(n, TWO_PI)
            f = _random_field(grid, seed=n)
            phys = to_physical(f)
            quad = np.sum(phys**2) * grid.cell_volume
            assert abs(quad - l2_norm(f) ** 2) <= 1e-12 * quad


class TestProjection:
    def test_leray_single_mode(self):
        # x-directed unit coefficient at xi = (1, 1, 0) keeps only its
        # component orthogonal to xi
        grid = make_grid(8, TWO_PI)
        c = np.zeros(grid.shape, dtype=np.complex128)
        c[0, 1, 1, 0] = 1.0
        p = leray_project(SpectralField(grid, c))
        assert p.coeffs[0, 1, 1, 0] == pytest.approx(0.5)
        assert p.coeffs[1, 1, 1, 0] == pytest.approx(-0.5)
        assert p.coeffs[2, 1, 1, 0] == pytest.approx(0.0)

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_leray_has_the_bits_of_the_whole_gradient_part(self, n):
        # the in-place, component-by-component projection against c - xi (xi . c) / |xi|^2
        grid = make_grid(n, TWO_PI)
        rng = np.random.default_rng(n)
        c = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        want = c - gradient_part(c, cube_wavenumbers(grid), cube_k_sq_safe(grid))
        got = leray_project(SpectralField(grid, c.copy())).coeffs
        assert got.tobytes() == want.tobytes()

    def test_idempotent_and_divergence_free(self):
        grid = make_grid(16, TWO_PI)
        f = _random_field(grid, seed=3)
        once = leray_project(f)
        twice = leray_project(once)
        scale = np.abs(once.coeffs).max()
        assert np.abs(twice.coeffs - once.coeffs).max() <= 1e-12 * scale
        assert divergence_error(once) <= 1e-12 * scale

    def test_projection_commutes_with_truncation(self):
        grid = make_grid(16, TWO_PI)
        rng = np.random.default_rng(4)
        raw = SpectralField(
            grid,
            rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape),
        )
        a = friedrichs_truncate(leray_project(raw))
        b = leray_project(friedrichs_truncate(raw))
        assert np.abs(a.coeffs - b.coeffs).max() <= 1e-13 * np.abs(a.coeffs).max()

    def test_truncation_support(self):
        grid = make_grid(8, TWO_PI)
        rng = np.random.default_rng(5)
        raw = SpectralField(grid, rng.standard_normal(grid.shape).astype(complex))
        cut = friedrichs_truncate(raw)
        assert np.all(cut.coeffs[:, ~grid.ball_mask] == 0.0)
        np.testing.assert_array_equal(cut.coeffs[:, grid.ball_mask], raw.coeffs[:, grid.ball_mask])

    @pytest.mark.parametrize("radius", [float("nan"), -1.0])
    def test_truncation_refuses_a_radius_that_keeps_no_mode(self, radius):
        # every comparison with NaN is False, so a NaN radius would zero the field
        grid = make_grid(8, TWO_PI)
        with pytest.raises(ValueError, match="truncation radius must be nonnegative"):
            friedrichs_truncate(_random_field(grid, seed=6), radius)


class TestNorms:
    def test_sobolev_single_mode_scaling(self):
        # one mode at |xi| = k has H^s norm k^s times its L^2 norm
        grid = make_grid(16, TWO_PI)
        for s in (-2.0, -1.0, 0.6, 1.0, 2.0):
            norms = []
            for m in (1, 2):
                c = np.zeros(grid.shape, dtype=np.complex128)
                c[0, 0, m, 0] = 0.5
                c[0, 0, -m, 0] = 0.5
                f = SpectralField(grid, c)
                norms.append(sobolev_norm(f, s) / l2_norm(f))
            assert norms[1] / norms[0] == pytest.approx(2.0**s, rel=1e-12)

    def test_inhomogeneous_low_order_norm(self):
        # a single |xi| = 1 shell: (1 + 1)^(-2) on the squared norm
        grid = make_grid(8, TWO_PI)
        c = np.zeros(grid.shape, dtype=np.complex128)
        c[0, 0, 1, 0] = 0.5
        c[0, 0, -1, 0] = 0.5
        f = SpectralField(grid, c)
        h = sobolev_norm(f, -2.0, homogeneous=False)
        assert h == pytest.approx(0.5 * l2_norm(f), rel=1e-13)

    def test_homogeneous_norm_ignores_mean(self):
        grid = make_grid(8, TWO_PI)
        c = np.zeros(grid.shape, dtype=np.complex128)
        c[0, 0, 0, 0] = 3.0
        c[1, 0, 1, 0] = 0.5
        c[1, 0, -1, 0] = 0.5
        f = SpectralField(grid, c)
        g = remove_mean(SpectralField(grid, c.copy()))
        assert sobolev_norm(f, 1.0) == pytest.approx(sobolev_norm(g, 1.0), rel=1e-14)
        assert l2_norm(f) > l2_norm(g)

    def test_lp_norm_constant_magnitude_field(self):
        # u = c (sin y, 0, cos y) has |u| = c everywhere: ||u||_p = c L^(3/p)
        grid = make_grid(16, TWO_PI)
        c_amp = 1.7
        c = np.zeros(grid.shape, dtype=np.complex128)
        c[0, 0, 1, 0] = -0.5j * c_amp
        c[0, 0, -1, 0] = 0.5j * c_amp
        c[2, 0, 1, 0] = 0.5 * c_amp
        c[2, 0, -1, 0] = 0.5 * c_amp
        f = SpectralField(grid, c)
        L = grid.box_length
        for p in (2.0, 10.0 / 3.0, 13.0 / 3.0):
            assert lp_norm_physical(f, p) == pytest.approx(c_amp * L ** (3.0 / p), rel=1e-12)
        assert linf_norm(f) == pytest.approx(c_amp, rel=1e-12)
        assert grad_norm_sq(f) == pytest.approx(c_amp**2 * L**3, rel=1e-12)

    @pytest.mark.parametrize("p", [float("inf"), float("nan"), 0.5])
    def test_lp_norm_refuses_p_outside_one_to_infinity(self, p):
        # at p = inf the sum becomes inf ** 0 or 0 ** 0 = 1.0 for every field
        f = _random_field(make_grid(8, TWO_PI), seed=7)
        with pytest.raises(ValueError, match="p must be finite and >= 1"):
            lp_norm_physical(f, p)

    @pytest.mark.parametrize("homogeneous", [True, False])
    @pytest.mark.parametrize("s", [float("nan"), float("inf"), -float("inf")])
    def test_sobolev_norm_refuses_a_non_finite_order(self, s, homogeneous):
        # nan gave a nan norm, and inf a RuntimeWarning from inf * 0
        f = _random_field(make_grid(8, TWO_PI), seed=7)
        with pytest.raises(ValueError, match="Sobolev order s must be finite"):
            sobolev_norm(f, s, homogeneous)

    def test_inner_product_polarization(self):
        grid = make_grid(8, TWO_PI)
        f = _random_field(grid, seed=11)
        g = _random_field(grid, seed=12)
        lhs = l2_norm(f + g) ** 2
        rhs = l2_norm(f) ** 2 + 2.0 * l2_inner(f, g) + l2_norm(g) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSplitAndChecks:
    def test_error_detectors(self):
        grid = make_grid(8, TWO_PI)
        good = _random_field(grid, seed=31, solenoidal=True)
        assert hermitian_error(good) <= 1e-13
        assert divergence_error(good) <= 1e-13

        broken = good.copy()
        broken.coeffs[0, 1, 0, 0] += 0.25j
        assert hermitian_error(broken) > 1e-3
        assert divergence_error(broken) > 1e-3

    def test_validate_rejects_ball_leak(self):
        grid = make_grid(8, TWO_PI)
        f = zeros_like(grid)
        f.coeffs[0, 3, 3, 0] = 1.0  # |xi| ~ 4.24, outside the ball
        with pytest.raises(ValueError):
            f.validate()

    @staticmethod
    def _verdict(check, f):
        try:
            check(f)
        except ValueError as exc:
            return str(exc)
        return None

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(data=st.data())
    def test_validate_matches_the_full_cube_reference(self, data):
        # fields near the 1e-10 tolerances: asymmetric entries, Hermitian
        # out-of-ball pairs, a mean, a Hermitian longitudinal part, NaN or
        # inf, on a solenoidal or a zero base; the table-free validate()
        # must give the reference's verdict and message from the same bits
        n = data.draw(st.sampled_from([6, 8]), label="n")
        grid = make_grid(n, data.draw(st.sampled_from([TWO_PI, 5.0]), label="L"))
        if data.draw(st.booleans(), label="zero base"):
            c = np.zeros(grid.shape, dtype=np.complex128)
        else:
            seed = data.draw(st.integers(0, 20), label="seed")
            c = random_solenoidal(grid, seed=seed, amplitude=data.draw(
                st.sampled_from([1e-3, 1.0, 1e3]), label="amplitude")).coeffs
        unit = float(np.abs(c).max()) or 1.0
        inside = np.argwhere(grid.ball_mask)[1:]  # m = 0 excluded
        outside = np.argwhere(~grid.ball_mask)

        def draw_mode(modes, label):
            return tuple(modes[data.draw(st.integers(0, len(modes) - 1), label=label)])

        def any_mode():
            return tuple(data.draw(st.integers(0, n - 1), label="mode index") for _ in range(3))

        def mirror(m):
            return tuple((-np.array(m)) % n)

        for _ in range(data.draw(st.integers(0, 3), label="perturbations")):
            kind = data.draw(st.sampled_from(
                ["asymmetric", "outside pair", "mean", "longitudinal", "non-finite"]), label="kind")
            size = unit * 10.0 ** data.draw(st.floats(-12.0, -8.0), label="log10 size")
            z = size * np.exp(1j * data.draw(st.floats(0.0, 2.0 * np.pi), label="phase"))
            comp = data.draw(st.integers(0, 2), label="component")
            if kind == "asymmetric":
                c[(comp,) + any_mode()] += z
            elif kind == "outside pair":
                m = draw_mode(outside, "mode")
                c[(comp,) + m] += z
                c[(comp,) + mirror(m)] += np.conj(z)
            elif kind == "mean":
                c[comp, 0, 0, 0] += size
            elif kind == "longitudinal":
                m = draw_mode(inside, "mode")
                xi = cube_wavenumbers(grid)[(slice(None),) + m]
                along = xi / np.sqrt((xi**2).sum())
                c[(slice(None),) + m] += z * along
                c[(slice(None),) + mirror(m)] += np.conj(z) * along
            else:
                c[(comp,) + any_mode()] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="value")

        f = SpectralField(grid, c)
        assert self._verdict(SpectralField.validate, f) == self._verdict(reference_validate, f)
        with np.errstate(invalid="ignore"):  # inf - inf in the non-finite cases
            _, mean, beyond = _magnitudes(f)
            got = [hermitian_error(f), beyond, mean, divergence_error(f)]
            want = [reference_hermitian_error(f), *reference_support_and_mean(f),
                    reference_divergence_error(f)]
        np.testing.assert_array_equal(got, want)

    def test_remove_mean(self):
        grid = make_grid(8, TWO_PI)
        f = _random_field(grid, seed=41)
        f.coeffs[:, 0, 0, 0] = 2.0
        g = remove_mean(f)
        assert np.all(g.coeffs[:, 0, 0, 0] == 0.0)


class TestOneWavenumberRule:
    """The full-cube operators broadcast the axis wavenumbers; the grid keeps no cube."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(data=st.data())
    def test_operators_have_the_bits_of_the_meshgrid_tables(self, data):
        n = data.draw(st.sampled_from([4, 6, 8, 12, 16]), label="n")
        length = data.draw(st.floats(0.1, 100.0), label="L")
        fraction = data.draw(st.floats(0.05, 2.0 / 3.0), label="cutoff fraction")
        grid = make_grid(n, length, fraction)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        f, g = (SpectralField(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
                for _ in range(2))
        f, g = remove_mean(f), remove_mean(g)
        radius = grid.cutoff_radius

        assert np.array_equal(grid.ball_mask, cube_ball_mask(grid))
        assert np.array_equal(leray_project(f).coeffs, cube_leray_project(f).coeffs)
        for r in (radius, radius / 2.0):
            assert np.array_equal(friedrichs_truncate(f, r).coeffs, cube_friedrichs_truncate(f, r).coeffs)
        for s in (-2.0, -0.5, 0.0, 0.6, 1.0, 2.0):
            for homogeneous in (True, False):
                assert sobolev_norm(f, s, homogeneous) == cube_sobolev_norm(f, s, homogeneous)
        assert grad_norm_sq(f) == cube_grad_norm_sq(f)
        assert divergence_error(f) == reference_divergence_error(f)
        assert interpolation_gap(f) == cube_interpolation_gap(f)
        assert product_law_ratio(f, g) == cube_product_law_ratio(f, g)

    def test_the_operators_leave_only_mode_numbers_and_the_ball_on_the_grid(self):
        grid = make_grid(32, TWO_PI)
        f = _random_field(grid, seed=61, solenoidal=True)
        g = _random_field(grid, seed=62, solenoidal=True)
        leray_project(f)
        friedrichs_truncate(f)
        friedrichs_truncate(f, grid.cutoff_radius / 2.0)
        for homogeneous in (True, False):
            sobolev_norm(f, 0.6, homogeneous)
        grad_norm_sq(f)
        divergence_error(f)
        f.validate()
        interpolation_gap(f)
        product_law_ratio(f, g)
        assert grid.ball_mask.any()
        assert vars(grid).keys() == {"n_modes", "box_length", "cutoff_radius", "mode_numbers", "ball"}


class TestOneSpeedRule:
    """_speed_sq is the one |u|^2: the kernel's slab fill, the pointwise norms and lp_norm_physical."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(data=st.data())
    def test_the_rule_has_the_bits_of_the_three_forms_it_replaced(self, data):
        # grid values from subnormal to overflowing squares, on whole cubes
        # and on a slab of x-planes written into the slabs of buffers, as the
        # kernel passes them
        n = data.draw(st.sampled_from([4, 6, 8, 12, 16]), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        scale = 10.0 ** data.draw(st.sampled_from([-170, -3, 0, 3, 154, 160]), label="log10 scale")
        u = scale * rng.standard_normal((3, n, n, n))
        start = data.draw(st.integers(0, n - 1), label="slab start")
        xs = slice(start, data.draw(st.integers(start + 1, n), label="slab stop"))
        mag_sq, work = np.full((n, n, n), np.nan), np.full((3, n, n, n), np.nan)
        with np.errstate(over="ignore"):
            whole = _speed_sq(u)
            assert whole.tobytes() == whole_speed_sq(u).tobytes() == pointwise_speed_sq(u).tobytes()
            slab = _speed_sq(u[:, xs], out=mag_sq[xs], work=work[0, : xs.stop - xs.start])
            assert np.shares_memory(slab, mag_sq)
            assert slab.tobytes() == kernel_fill_speed_sq(u, xs).tobytes() == whole[xs].tobytes()


def test_field_arithmetic():
    grid = make_grid(8, TWO_PI)
    f = _random_field(grid, seed=51)
    g = _random_field(grid, seed=52)
    s = f + g
    d = s - g
    np.testing.assert_allclose(d.coeffs, f.coeffs, atol=1e-15)
    h = f * 2.0
    np.testing.assert_array_equal(h.coeffs, 2.0 * f.coeffs)
    c = f.copy()
    c.coeffs[0, 0, 0, 0] = 123.0
    assert f.coeffs[0, 0, 0, 0] != 123.0
