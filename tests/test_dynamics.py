"""Nonlinear terms against direct convolution, stepping, and the Duhamel split."""

import math

import numpy as np
import pytest

from oracles import (
    cubic_damping_hat,
    direct_advection,
    direct_pressure,
    linear_advection,
    project_hat,
)
from nsdamp.dynamics import (
    BlowupError,
    CFLError,
    SeparableTarget,
    SolverState,
    StepperConfig,
    advection,
    damping,
    manufactured_forcing,
    pressure_field,
    run,
    step,
    tendency,
)
from nsdamp.initial_conditions import random_solenoidal, shear_mode, taylor_green
from nsdamp.spectral import (
    PhysParams,
    SpectralField,
    friedrichs_truncate,
    hermitian_error,
    l2_inner,
    l2_norm,
    leray_project,
    lp_norm_physical,
    make_grid,
    remove_mean,
    to_spectral,
)

TWO_PI = 2.0 * np.pi


class TestBruteForce:
    """Pseudo-spectral products vs direct convolution sums on an 8^3 grid."""

    def test_advection_matches_direct_sum(self):
        grid = make_grid(8, TWO_PI)
        u = random_solenoidal(grid, seed=0)
        want = direct_advection(u)
        got = advection(u).coeffs
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-10 * scale

    def test_pressure_matches_direct_sum(self):
        grid = make_grid(8, TWO_PI)
        u = random_solenoidal(grid, seed=1)
        params = PhysParams(nu=1.0, alpha=1.0, beta=3.0)
        want = direct_pressure(u, alpha=1.0)
        got = pressure_field(u, params)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-10 * scale

    def test_pressure_without_damping(self):
        grid = make_grid(8, TWO_PI)
        u = random_solenoidal(grid, seed=2)
        params = PhysParams(nu=1.0, alpha=0.0, beta=3.0)
        want = direct_pressure(u, alpha=0.0)
        got = pressure_field(u, params)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def full_ball_field(grid, seed):
    """Random solenoidal zero-mean field filling the whole cutoff ball, so
    that products reach twice the cutoff and wrap around the grid."""
    noise = np.random.default_rng(seed).standard_normal(grid.shape)
    return remove_mean(leray_project(friedrichs_truncate(to_spectral(noise, grid))))


class TestAliasing:
    """Advection against the linear (non-wrapping) convolution, truncated to the ball.

    N = 6 and 12 are multiples of 3, where wrapped images of ball products
    can land on the boundary shell of the ball; N = 8 and 10 are not.
    """

    @pytest.mark.parametrize("n", [6, 8, 10, 12])
    def test_advection_is_alias_free(self, n):
        grid = make_grid(n, TWO_PI)
        u = full_ball_field(grid, seed=n)
        want = linear_advection(u)
        got = advection(u).coeffs
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


class TestOracleStep:
    """One IF-RK4 step of step() against one built from direct convolution sums."""

    @staticmethod
    def oracle_step(u, params, dt):
        grid = u.grid
        mask = grid.ball_mask
        e_half = np.exp(-params.nu * grid.k_sq * (dt / 2.0))
        e_full = e_half**2

        def rhs(c):
            field = SpectralField(grid, c)
            dmp = project_hat(mask * cubic_damping_hat(field, params.alpha), grid)
            dmp[:, 0, 0, 0] = 0.0
            return -(direct_advection(field) + dmp)

        c0 = u.coeffs
        n1 = rhs(c0)
        n2 = rhs(e_half * (c0 + (dt / 2.0) * n1))
        n3 = rhs(e_half * c0 + (dt / 2.0) * n2)
        n4 = rhs(e_full * c0 + dt * (e_half * n3))
        out = e_full * c0 + (dt / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)
        out = project_hat(mask * out, grid)
        out[:, 0, 0, 0] = 0.0
        return out

    @pytest.mark.parametrize("n", [8, 10])
    def test_step_matches_direct_sums(self, n):
        grid = make_grid(n, TWO_PI)
        params = PhysParams(nu=0.5, alpha=1.0, beta=3.0)
        u = random_solenoidal(grid, seed=n, amplitude=2.0)
        dt = 1e-2
        want = self.oracle_step(u, params, dt)
        got = step(SolverState(t=0.0, u=u, params=params), StepperConfig(dt=dt)).u.coeffs
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_snapshots_are_exact_state_space_fields(self):
        grid = make_grid(10, TWO_PI)
        u0 = full_ball_field(grid, seed=3)
        seen = []
        run(
            u0,
            PhysParams(nu=0.5, alpha=1.0, beta=4.0),
            StepperConfig(dt=5e-3),
            0.02,
            output_every=5e-3,
            hooks=(lambda snap, tracker: seen.append(snap),),
        )
        assert len(seen) == 5
        for snap in seen:
            c = snap.u.coeffs
            assert hermitian_error(snap.u) == 0.0
            assert np.all(c[:, ~grid.ball_mask] == 0.0)
            assert np.all(c[:, 0, 0, 0] == 0.0)


class TestDamping:
    def test_cubed_sine_coefficients(self):
        # for u = (sin y, 0, 0): |u|^2 u = sin^3 y = (3 sin y - sin 3y)/4,
        # whose exponential coefficients are -3i alpha/8 at +1 and +i alpha/8
        # at +3
        grid = make_grid(16, TWO_PI)
        u = shear_mode(grid)
        alpha = 0.7
        d = damping(u, alpha=alpha, beta=3.0)
        assert d.coeffs[0, 0, 1, 0] == pytest.approx(-3.0j * alpha / 8.0, rel=1e-13)
        assert d.coeffs[0, 0, 3, 0] == pytest.approx(1.0j * alpha / 8.0, rel=1e-13)
        rest = np.abs(d.coeffs).sum() - np.abs(d.coeffs[0, 0, [1, -1, 3, -3], 0]).sum()
        assert rest <= 1e-13

    def test_dissipation_pairing(self):
        # <damping(u), u> must equal alpha ||u||_{beta+1}^{beta+1} exactly
        # (same collocation samples on both sides)
        grid = make_grid(16, TWO_PI)
        u = random_solenoidal(grid, seed=5, amplitude=2.0)
        for alpha, beta in ((1.0, 4.0), (0.3, 10.0 / 3.0), (2.0, 3.0)):
            pair = l2_inner(damping(u, alpha, beta), u)
            direct = alpha * lp_norm_physical(u, beta + 1.0) ** (beta + 1.0)
            assert pair == pytest.approx(direct, rel=1e-12)

    def test_zero_alpha_and_validation(self):
        grid = make_grid(8, TWO_PI)
        u = random_solenoidal(grid, seed=6)
        assert np.all(damping(u, 0.0, 4.0).coeffs == 0.0)
        with pytest.raises(ValueError):
            damping(u, -1.0, 4.0)
        with pytest.raises(ValueError):
            damping(u, 1.0, 1.0)


class TestAdvection:
    def test_skew_symmetry(self):
        # the truncated advection term transfers energy but never creates it
        grid = make_grid(16, TWO_PI)
        u = random_solenoidal(grid, seed=7, amplitude=3.0)
        a = advection(u)
        assert abs(l2_inner(a, u)) <= 1e-12 * l2_norm(a) * l2_norm(u)

    def test_single_shear_mode_is_steady(self):
        # u = (sin y, 0, 0) advects nothing: div(u x u) has only a
        # d/dx(sin^2 y) entry, which is zero
        grid = make_grid(8, TWO_PI)
        a = advection(shear_mode(grid))
        assert np.abs(a.coeffs).max() <= 1e-15

    def test_taylor_green_advection_on_smallest_ball(self):
        # on the 8^3 grid the cutoff ball keeps only the gradient part of the
        # vortex's convective term, so the projected advection vanishes
        # exactly; on 16^3 the (2,2,0)-type products survive and it does not
        small = advection(taylor_green(make_grid(8, TWO_PI)))
        assert np.abs(small.coeffs).max() == 0.0
        big = advection(taylor_green(make_grid(16, TWO_PI)))
        assert np.abs(big.coeffs).max() > 1e-3

    def test_mean_mode_stays_zero(self):
        grid = make_grid(8, TWO_PI)
        u = random_solenoidal(grid, seed=8)
        a = advection(u)
        assert np.all(a.coeffs[:, 0, 0, 0] == 0.0)


class TestStepping:
    def test_heat_limit_exact(self):
        # alpha = 0 and a steady advection direction: the integrating factor
        # reproduces e^(-nu t) decay to roundoff, independent of dt
        grid = make_grid(8, TWO_PI)
        u0 = shear_mode(grid)
        nu = 0.8
        snaps = run(
            u0,
            PhysParams(nu=nu, alpha=0.0, beta=2.0),
            StepperConfig(dt=1e-2),
            1.0,
            output_every=1.0,
            track_duhamel=False,
        )
        want = math.exp(-nu * 1.0) * l2_norm(u0)
        assert l2_norm(snaps[-1].u) == pytest.approx(want, rel=1e-12)

    def test_reflection_equivariance(self):
        # x -> -x, u -> -u maps solutions to solutions; for a real field the
        # coefficient transform is plain negated conjugation
        grid = make_grid(8, TWO_PI)
        params = PhysParams(nu=0.5, alpha=1.0, beta=4.0)
        cfg = StepperConfig(dt=5e-3)

        def reflect(c):
            return -np.conj(c)

        u0 = random_solenoidal(grid, seed=9, amplitude=2.0)
        v0 = SpectralField(grid, reflect(u0.coeffs), solenoidal=True)
        a = run(u0, params, cfg, 0.05, output_every=0.05, track_duhamel=False)
        b = run(v0, params, cfg, 0.05, output_every=0.05, track_duhamel=False)
        want = reflect(a[-1].u.coeffs)
        got = b[-1].u.coeffs
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_grid_times_and_snapshot_schedule(self):
        grid = make_grid(8, TWO_PI)
        u0 = taylor_green(grid, amplitude=0.1)
        snaps = run(
            u0,
            PhysParams(nu=1.0, alpha=1.0, beta=4.0),
            StepperConfig(dt=5e-3),
            0.1,
            output_every=0.02,
            track_duhamel=False,
        )
        times = [s.t for s in snaps]
        assert times == [i * 4 * 5e-3 for i in range(6)]
        assert snaps[-1].t == 0.1
        assert snaps[-1].step_count == 20

    def test_off_grid_cadence_rejected(self):
        grid = make_grid(8, TWO_PI)
        u0 = taylor_green(grid, amplitude=0.1)
        params = PhysParams(nu=1.0, alpha=1.0, beta=4.0)
        with pytest.raises(ValueError):
            run(u0, params, StepperConfig(dt=0.02), 0.1, output_every=0.03)
        with pytest.raises(ValueError):
            run(u0, params, StepperConfig(dt=0.02), 0.11)

    def test_determinism_bitwise(self):
        grid = make_grid(8, TWO_PI)
        u0 = random_solenoidal(grid, seed=10)
        params = PhysParams(nu=1.0, alpha=1.0, beta=4.0)
        a = run(u0, params, StepperConfig(dt=5e-3), 0.1, track_duhamel=False)
        b = run(u0, params, StepperConfig(dt=5e-3), 0.1, track_duhamel=False)
        assert np.array_equal(a[-1].u.coeffs, b[-1].u.coeffs)
        assert a[-1].cum_visc == b[-1].cum_visc

    def test_cfl_refusal(self):
        grid = make_grid(8, TWO_PI)
        u0 = random_solenoidal(grid, seed=11, amplitude=1e3)
        state = SolverState(t=0.0, u=u0, params=PhysParams(nu=1.0, alpha=1.0, beta=4.0))
        with pytest.raises(CFLError):
            step(state, StepperConfig(dt=0.1))

    def test_blowup_detection(self):
        grid = make_grid(8, TWO_PI)
        u0 = random_solenoidal(grid, seed=12)
        u0.coeffs[0, 1, 0, 0] = np.nan
        state = SolverState(t=0.0, u=u0, params=PhysParams(nu=1.0, alpha=1.0, beta=4.0))
        with pytest.raises(BlowupError):
            step(state, StepperConfig(dt=1e-3))

    def test_accumulators_track_dissipation(self):
        grid = make_grid(8, TWO_PI)
        u0 = taylor_green(grid)
        end = run(
            u0,
            PhysParams(nu=1.0, alpha=1.0, beta=4.0),
            StepperConfig(dt=2e-3),
            0.2,
            track_duhamel=False,
        )[-1]
        assert end.cum_visc > 0.0 and end.cum_damp > 0.0
        no_damp = run(
            u0,
            PhysParams(nu=1.0, alpha=0.0, beta=4.0),
            StepperConfig(dt=2e-3),
            0.2,
            track_duhamel=False,
        )[-1]
        assert no_damp.cum_damp == 0.0

    def test_mean_mode_never_excited(self):
        grid = make_grid(8, TWO_PI)
        u0 = random_solenoidal(grid, seed=13)
        end = run(
            u0,
            PhysParams(nu=0.2, alpha=1.0, beta=4.0),
            StepperConfig(dt=5e-3),
            0.1,
            track_duhamel=False,
        )[-1]
        assert np.all(end.u.coeffs[:, 0, 0, 0] == 0.0)


class TestTendency:
    def test_steady_shear_tendency_is_pure_decay(self):
        # advection vanishes; at alpha = 0 the tendency is -nu |xi|^2 u
        grid = make_grid(8, TWO_PI)
        u = shear_mode(grid)
        state = SolverState(t=0.0, u=u, params=PhysParams(nu=2.0, alpha=0.0, beta=2.0))
        td = tendency(state)
        want = -2.0 * u.coeffs  # |xi| = 1 for the shear mode
        assert np.abs(td.coeffs - want).max() <= 1e-13


class TestDuhamel:
    def test_split_trivial_at_start_and_tracks_run(self):
        # note: a Taylor-Green IC would keep f at exactly zero here — its
        # advection term is a pure gradient on this small ball — so a generic
        # random field is the right probe
        grid = make_grid(8, TWO_PI)
        u0 = random_solenoidal(grid, seed=30, amplitude=2.0)
        seen = []

        def hook(snap, tracker):
            seen.append((snap.t, tracker.norms(), tracker.reconstruction_error(snap.u)))

        run(
            u0,
            PhysParams(nu=1.0, alpha=1.0, beta=4.0),
            StepperConfig(dt=2e-3),
            0.3,
            output_every=0.1,
            hooks=(hook,),
        )
        t0, (heat0, f0, g0), drift0 = seen[0]
        assert t0 == 0.0
        assert heat0 == pytest.approx(l2_norm(u0), rel=1e-13)
        assert f0 == 0.0 and g0 == 0.0 and drift0 == 0.0
        t1, (heat1, f1, g1), drift1 = seen[-1]
        assert heat1 < heat0  # pure heat part decays
        assert f1 > 0.0 and g1 > 0.0
        assert drift1 <= 1e-6

    def test_damping_only_flow_keeps_advection_part_empty(self):
        # single shear mode: advection is identically zero, so the f-part
        # of the split stays at roundoff while g accumulates the damping
        grid = make_grid(16, TWO_PI)
        u0 = shear_mode(grid)
        captured = []

        def hook(snap, tracker):
            captured.append(tracker.norms())

        run(
            u0,
            PhysParams(nu=1.0, alpha=2.0, beta=3.0),
            StepperConfig(dt=2e-3),
            0.2,
            output_every=0.2,
            hooks=(hook,),
        )
        _, f_end, g_end = captured[-1]
        assert f_end <= 1e-13
        assert g_end > 1e-4


class TestManufactured:
    def test_forced_run_follows_target(self):
        grid = make_grid(8, TWO_PI)
        params = PhysParams(nu=0.4, alpha=0.5, beta=5.0)
        target = SeparableTarget(
            taylor_green(grid, amplitude=0.3),
            lambda t: 1.0 + 0.4 * math.sin(2.0 * t),
            lambda t: 0.8 * math.cos(2.0 * t),
            params,
        )
        forcing = manufactured_forcing(target, params)
        snaps = run(
            target.field(0.0),
            params,
            StepperConfig(dt=1e-2),
            0.3,
            forcing=forcing,
            output_every=0.3,
            track_duhamel=False,
        )
        exact = target.field(0.3)
        err = l2_norm(snaps[-1].u - exact) / l2_norm(exact)
        assert err <= 1e-9

    def test_order_of_accuracy(self):
        grid = make_grid(8, TWO_PI)
        params = PhysParams(nu=0.4, alpha=0.5, beta=5.0)
        target = SeparableTarget(
            taylor_green(grid, amplitude=0.3),
            lambda t: 1.0 + 0.4 * math.sin(2.0 * t),
            lambda t: 0.8 * math.cos(2.0 * t),
            params,
        )
        forcing = manufactured_forcing(target, params)

        def err(dt):
            snaps = run(
                target.field(0.0),
                params,
                StepperConfig(dt=dt),
                0.4,
                forcing=forcing,
                output_every=0.4,
                track_duhamel=False,
            )
            exact = target.field(0.4)
            return l2_norm(snaps[-1].u - exact) / l2_norm(exact)

        e_coarse, e_fine = err(2e-2), err(1e-2)
        order = math.log2(e_coarse / e_fine)
        assert order >= 3.7

    def test_band_limit_guard(self):
        grid = make_grid(8, TWO_PI)
        params = PhysParams(nu=1.0, alpha=0.5, beta=5.0)
        bad = taylor_green(grid, amplitude=0.3)
        bad.coeffs[0, 3, 3, 0] = 1e-6  # outside the cutoff ball
        with pytest.raises(ValueError):
            SeparableTarget(bad, lambda t: 1.0, lambda t: 0.0, params)
