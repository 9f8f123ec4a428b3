"""Nonlinear terms against direct convolution, stepping, and the Duhamel split."""

import gc
import math
import re
import sys
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    cube_ball_mask,
    cube_k_sq,
    cube_manufactured_forcing,
    cubic_damping_hat,
    direct_advection,
    direct_pressure,
    full_cube_ball_tables,
    full_forward,
    full_inverse,
    hermitian_error,
    l2_inner,
    linear_advection,
    linf_norm,
    list_combine,
    list_form_step,
    project_hat,
    remove_mean,
    shear_mode,
    unfused_kernel,
)
from nsdamp import dynamics, spectral
from nsdamp.checkpoint import read_checkpoint, write_checkpoint
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
    trajectory,
)
from nsdamp.initial_conditions import random_solenoidal, taylor_green
from nsdamp.ledger import SeriesRecorder
from nsdamp.spectral import (
    PhysParams,
    SpectralField,
    _Ball,
    friedrichs_truncate,
    l2_norm,
    leray_project,
    lp_norm_physical,
    make_grid,
    to_spectral,
)

TWO_PI = 2.0 * np.pi


def full_ball_field(grid, seed):
    """Random solenoidal zero-mean field filling the whole cutoff ball, so
    that products reach twice the cutoff and wrap around the grid."""
    noise = np.random.default_rng(seed).standard_normal(grid.shape)
    return remove_mean(leray_project(friedrichs_truncate(to_spectral(noise, grid))))


class TestBruteForce:
    """Pseudo-spectral products vs direct convolution sums on small grids."""

    def test_advection_matches_direct_sum(self):
        grid = make_grid(8, TWO_PI)
        u = random_solenoidal(grid, seed=0)
        want = direct_advection(u)
        got = advection(u).coeffs
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-10 * scale

    @pytest.mark.parametrize("alpha", [1.0, 0.0])
    @pytest.mark.parametrize(
        "n,build",
        [(8, random_solenoidal), (6, full_ball_field), (10, full_ball_field)],
        ids=["half-ball-8", "full-ball-6", "full-ball-10"],
    )
    def test_pressure_matches_direct_sum(self, n, build, alpha):
        # ball-filling fields have products reaching twice the cutoff, which wrap
        grid = make_grid(n, TWO_PI)
        u = build(grid, seed=n + 1)
        want = direct_pressure(u, alpha=alpha)
        got = pressure_field(u, PhysParams(nu=1.0, alpha=alpha, beta=3.0))
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


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


class TestBallTransforms:
    """The pruned transforms of the stepper's ball against whole-spectrum irfftn and rfftn."""

    @staticmethod
    def check_against_full_transforms(grid, seed, n_blocks):
        ball = grid.ball
        rng = np.random.default_rng(seed)
        shape = (3, ball.k_sq.size)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        v[:, 0] = v[:, 0].real
        assert np.array_equal(ball.to_physical(v), full_inverse(ball, v))
        blocks = rng.standard_normal((n_blocks,) + grid.shape[1:])
        got, ref = ball.from_physical(blocks), full_forward(ball, blocks)
        n = grid.n_modes
        if n & (n - 1) == 0:  # per-pass 1/N factors are exact powers of two
            assert np.array_equal(got, ref)
        else:
            assert np.abs(got - ref).max() <= 2e-15 * np.abs(ref).max()

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        n=st.sampled_from([4, 6, 8, 10, 12, 16, 24, 32]),
        length=st.floats(0.5, 30.0),
        fraction=st.floats(0.25, 2.0 / 3.0, exclude_min=True),
        seed=st.integers(0, 2**31 - 1),
        n_blocks=st.sampled_from([3, 6, 9]),
    )
    def test_pruned_transforms_equal_full_ones(self, n, length, fraction, seed, n_blocks):
        self.check_against_full_transforms(make_grid(n, length, fraction), seed, n_blocks)

    def test_pruned_transforms_equal_full_ones_at_n64(self):
        self.check_against_full_transforms(make_grid(64, TWO_PI), seed=64, n_blocks=9)

    @pytest.mark.parametrize("n, planes", [(12, 5), (16, 3)])
    def test_short_last_slabs_give_the_bits_of_one_whole_slab(self, monkeypatch, n, planes):
        # slabs of 5 planes at N = 12 (5, 5, 2) and of 3 at N = 16 (five of 3,
        # then 1) end short; by default a slab is the whole grid at N <= 32
        grid = make_grid(n, TWO_PI)
        ball = grid.ball
        rng = np.random.default_rng(n)
        shape = (3, ball.k_sq.size)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        v[:, 0] = v[:, 0].real
        blocks = rng.standard_normal((6,) + grid.shape[1:])
        assert ball.slab == n
        whole = ball.to_physical(v), ball.from_physical(blocks)
        monkeypatch.setattr(spectral, "_SLAB", planes * n**2)
        thin = spectral._Ball(grid)  # a ball sizes its slab when it is built
        assert thin.slab == planes
        inverse, forward = thin.to_physical(v), thin.from_physical(blocks)
        assert np.array_equal(inverse, whole[0])
        assert np.array_equal(forward, whole[1])
        assert np.array_equal(inverse, full_inverse(ball, v))
        if n & (n - 1) == 0:  # per-pass 1/N factors are exact powers of two
            assert np.array_equal(forward, full_forward(ball, blocks))

    @pytest.mark.parametrize("op", ["advection", "damping", "tendency", "pressure_field", "step"])
    def test_operators_read_only_the_half_spectrum_ball_entries(self, op):
        # a non-Hermitian field with coefficients outside the ball gives the
        # bits of the Hermitian ball field built from its half-spectrum entries
        grid = make_grid(8, TWO_PI)
        params = PhysParams(nu=1.0, alpha=1.0, beta=4.0)
        rng = np.random.default_rng(8)
        c = 0.1 * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        ball = grid.ball
        apply = {
            "advection": lambda u: advection(u).coeffs,
            "damping": lambda u: damping(u, params.alpha, params.beta).coeffs,
            "tendency": lambda u: tendency(SolverState(t=0.0, u=u, params=params)).coeffs,
            "pressure_field": lambda u: pressure_field(u, params),
            "step": lambda u: step(SolverState(t=0.0, u=u, params=params), StepperConfig(dt=1e-3)).u.coeffs,
        }[op]
        u = SpectralField(grid, c)
        assert hermitian_error(u) > 0.1
        assert np.array_equal(apply(u), apply(SpectralField(grid, ball.expand(ball.gather(c)))))

    @pytest.mark.parametrize("n", [8, 16])
    def test_inverse_transforms_as_many_components_as_it_is_given(self, n):
        ball = make_grid(n, TWO_PI).ball
        rng = np.random.default_rng(n)
        shape = (3, ball.k_sq.size)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        v[:, 0] = v[:, 0].real
        whole = ball.to_physical(v)
        for rows in (1, 2, 3):
            assert np.array_equal(ball.to_physical(v[:rows]), whole[:rows])

    @pytest.mark.parametrize("n, planes", [(12, 5), (16, 3), (16, None)])
    @pytest.mark.parametrize("alpha, advect", [(1.0, True), (1.0, False), (0.0, True)])
    def test_kernel_slabs_give_the_bits_of_whole_blocks(self, monkeypatch, n, planes, alpha, advect):
        # slabs of 5 planes at N = 12 (5, 5, 2) and of 3 at N = 16 (five of 3,
        # then 1) end short; planes=None keeps the default, one slab
        if planes is not None:
            monkeypatch.setattr(spectral, "_SLAB", planes * n**2)
        grid = make_grid(n, TWO_PI)
        params = PhysParams(nu=0.5, alpha=alpha, beta=10.0 / 3.0)
        v = grid.ball.gather(random_solenoidal(grid, seed=n, amplitude=4.0).coeffs)
        kernel = dynamics._Kernel(grid, params, advect=advect)
        kernel(v)  # a warm call must not differ from the first
        got = kernel(v)
        assert len(kernel.products[0][0]) == (planes or n)
        want = unfused_kernel(grid, params, v, advect)
        for name, g, w in zip(got._fields, got, want):
            if w is None:
                assert g is None, name
            else:
                assert np.array_equal(g, w), name

    @pytest.mark.parametrize("n, planes", [(16, 3), (18, 4), (64, None)])
    @pytest.mark.parametrize("beta", [4.0, 10.0 / 3.0])
    def test_slab_workers_give_the_bits_of_one(self, monkeypatch, n, planes, beta):
        # six slabs of 3 planes at N = 16 and five of 4 at N = 18 end short
        # (N = 16 has no slab size that gives five); planes=None keeps the
        # real slab, 8 planes at N = 64: 1, 2 and 3 workers take them in runs
        if planes is not None:
            monkeypatch.setattr(spectral, "_SLAB", planes * n**2)
        grid = make_grid(n, TWO_PI)
        params = PhysParams(nu=0.5, alpha=1.0, beta=beta)
        v = grid.ball.gather(random_solenoidal(grid, seed=n, amplitude=4.0).coeffs)
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more workers than cores, switching often: a shared write would show
        try:
            for threads in ("1", "2", "3"):
                monkeypatch.setenv("NSD_THREADS", threads)
                kernel = dynamics._Kernel(grid, params)
                assert kernel.workers == int(threads)
                terms = kernel(v)
                calls.append((terms, kernel.u))
                assert len(kernel.slabs) == len(kernel.products) == int(threads)
                alone = dynamics._Kernel(grid, params)
                assert np.array_equal(alone.inverse(v), kernel.u)
        finally:
            sys.setswitchinterval(interval)
        (want, want_u), *others = calls
        for got, got_u in others:
            assert np.array_equal(got_u, want_u)
            for name, g, w in zip(want._fields, got, want):
                assert np.array_equal(g, w), name

    def test_slab_workers_run_in_the_callers_errstate(self, monkeypatch):
        # a worker takes a copy of the caller's context: the overflow of
        # |u|^(beta-1) at beta = 1000 is ignored on every worker, as on one
        monkeypatch.setenv("NSD_THREADS", "2")
        monkeypatch.setattr(spectral, "_SLAB", 8 * 16**2)
        grid = make_grid(16, TWO_PI)
        kernel = dynamics._Kernel(grid, PhysParams(nu=1.0, alpha=1.0, beta=1000.0))
        assert kernel.workers == 2
        v = grid.ball.gather(random_solenoidal(grid, seed=16, amplitude=1e3).coeffs)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = kernel(v)
        assert not np.isfinite(terms.damp_rate)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        n=st.integers(2, 32).map(lambda half: 2 * half),
        length=st.floats(0.5, 30.0),
        fraction=st.floats(0.25, 2.0 / 3.0, exclude_min=True),
    )
    def test_ball_tables_equal_the_full_cube_construction(self, n, length, fraction):
        # the ball is built from 1-D mode numbers over the half spectrum; its
        # entries and tables have the bits of those read off the full cube
        grid = make_grid(n, length, fraction)
        ball = grid.ball
        for name, want in full_cube_ball_tables(grid).items():
            got = getattr(ball, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("n", [4, 6, 16])
    def test_ball_tables_are_read_only(self, n):
        # threads share a grid, and with it its ball, so no table may be scratch space
        arrays = [a for a in vars(make_grid(n, TWO_PI).ball).values() if isinstance(a, np.ndarray)]
        assert len(arrays) >= 10
        assert not any(a.flags.writeable for a in arrays)

    def test_a_grid_and_its_ball_are_freed_together(self):
        # no cache and no reference from the ball back to its grid: once the
        # stepper and the ledger have used the ball, reference counting alone
        # frees a dropped grid
        grid = make_grid(8, TWO_PI)
        grid_ref = weakref.ref(grid)
        params = PhysParams(nu=1.0, alpha=1.0, beta=4.0)
        recorder = SeriesRecorder()
        gc.disable()
        try:
            snaps = list(trajectory(random_solenoidal(grid, seed=3), params, StepperConfig(dt=1e-3),
                                    2e-3, output_every=1e-3, hooks=(recorder,)))
            assert len(snaps) == len(recorder.energy) == 3 and "ball" in vars(grid)
            del grid, snaps
            assert grid_ref() is None
        finally:
            gc.enable()


class TestSnapshots:
    """A snapshot holds its ball vector and builds its field once, when asked."""

    def test_snapshot_field_is_built_once_from_its_vector(self, tmp_path):
        grid = make_grid(8, TWO_PI)
        params = PhysParams(nu=1.0, alpha=1.0, beta=4.0)
        snaps = run(random_solenoidal(grid, seed=5), params, StepperConfig(dt=1e-3), 2e-3,
                    output_every=1e-3)
        # a checkpoint of a snapshot whose field was never read has the bytes
        # of one written from a state built eagerly from the same vector
        eager = SolverState(t=snaps[-1].t, u=SpectralField(grid, grid.ball.expand(snaps[-1].vector)),
                            params=params)
        write_checkpoint(snaps[-1], tmp_path / "lazy.ckpt")
        write_checkpoint(eager, tmp_path / "eager.ckpt")
        assert (tmp_path / "lazy.ckpt").read_bytes() == (tmp_path / "eager.ckpt").read_bytes()
        for snap in snaps + [step(snaps[0], StepperConfig(dt=1e-3))]:
            assert not snap.vector.flags.writeable  # trajectory() steps on from this array
            assert snap.u is snap.u
            assert np.array_equal(snap.u.coeffs, grid.ball.expand(snap.vector))

    @pytest.mark.parametrize("steps", [0, 1, 3])
    def test_a_run_transforms_each_state_once(self, monkeypatch, steps):
        # four kernel calls a step and one inverse of the final state: each
        # snapshot's pointwise sums reuse the grid values of its first stage
        grid = make_grid(8, TWO_PI)
        u0 = random_solenoidal(grid, seed=7)
        calls = []
        inverse = _Ball.to_physical

        def counted(ball, *args, **kwargs):
            calls.append(ball)
            return inverse(ball, *args, **kwargs)

        monkeypatch.setattr(_Ball, "to_physical", counted)
        recorder = SeriesRecorder()
        snaps = run(u0, PhysParams(nu=1.0, alpha=1.0, beta=4.0), StepperConfig(dt=1e-3), steps * 1e-3,
                    output_every=1e-3, hooks=(recorder,))
        assert len(snaps) == len(recorder.decay) == steps + 1
        assert len(calls) == 4 * steps + 1

    def test_step_gives_the_bits_of_the_first_step_of_a_run(self):
        grid = make_grid(16, TWO_PI)
        params, cfg = PhysParams(nu=0.5, alpha=1.0, beta=10.0 / 3.0), StepperConfig(dt=2e-3)
        snaps = run(random_solenoidal(grid, seed=9, amplitude=3.0), params, cfg, 2e-3, output_every=2e-3)
        stepped = step(snaps[0], cfg)
        assert np.array_equal(stepped.vector, snaps[1].vector)
        assert (stepped.t, stepped.step_count, stepped.cum_visc, stepped.cum_damp) == (
            snaps[1].t, snaps[1].step_count, snaps[1].cum_visc, snaps[1].cum_damp)
        # the stepper's stage-1 grid values and step()'s own inverse give the same sums
        assert stepped.pointwise == snaps[1].pointwise

    def test_a_cfl_failure_yields_the_snapshot_before_the_failing_step(self):
        # a forced flow that grows as exp(3 t) outruns dt = 0.05 after a few steps
        grid = make_grid(8, TWO_PI)
        params, cfg = PhysParams(nu=0.4, alpha=0.5, beta=5.0), StepperConfig(dt=0.05)
        target = SeparableTarget(taylor_green(grid), lambda t: math.exp(3.0 * t),
                                 lambda t: 3.0 * math.exp(3.0 * t), params)
        seen = []
        steps = trajectory(target.field(0.0), params, cfg, 1.0, output_every=0.05,
                           hooks=(seen.append,), forcing=manufactured_forcing(target, params))
        snaps = []
        with pytest.raises(CFLError) as failure:
            for snap in steps:
                snaps.append(snap)
        assert 2 <= len(snaps) < 20 and seen == snaps
        last = snaps[-1]
        assert last.t == (len(snaps) - 1) * 0.05  # the failing step starts at the last snapshot
        assert f"|u|_inf = {linf_norm(last.u):g}" in str(failure.value)
        with pytest.raises(CFLError) as again:
            step(last, cfg)
        assert str(again.value) == str(failure.value)

    def test_state_built_from_a_field_keeps_it(self, tmp_path):
        # a field with an entry outside the ball keeps it, into the checkpoint too
        grid = make_grid(8, TWO_PI)
        c = random_solenoidal(grid, seed=6).coeffs.copy()
        c[:, 3, 0, 0] = 1.0  # |m| = 3 > R = 8/3
        u = SpectralField(grid, c)
        state = SolverState(t=0.0, u=u, params=PhysParams(nu=1.0, alpha=1.0, beta=4.0))
        assert state.u is u
        assert np.array_equal(state.vector, grid.ball.gather(c))
        assert state.vector is state.vector  # gathered once, at construction
        assert not state.vector.flags.writeable
        write_checkpoint(state, tmp_path / "s.ckpt")
        assert (tmp_path / "s.ckpt").read_bytes()[-c.nbytes:] == c.astype("<c16").tobytes()


class TestOracleStep:
    """One IF-RK4 step of step() against one built from direct convolution sums."""

    @staticmethod
    def oracle_step(u, params, dt):
        grid = u.grid
        mask = cube_ball_mask(grid)
        e_half = np.exp(-params.nu * cube_k_sq(grid) * (dt / 2.0))
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
            hooks=(seen.append,),
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

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        n=st.sampled_from([6, 8, 10, 12, 16]),
        length=st.floats(0.5, 30.0),
        fraction=st.floats(0.25, 2.0 / 3.0, exclude_min=True),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_projection_and_skew_symmetry_on_random_grids(self, n, length, fraction, seed):
        # L != 2 pi and cutoff fractions below 2/3 included
        grid = make_grid(n, length, fraction)
        noise = np.random.default_rng(seed).standard_normal(grid.shape)
        once = leray_project(friedrichs_truncate(to_spectral(noise, grid)))
        twice = leray_project(once)
        assert np.abs(twice.coeffs - once.coeffs).max() <= 1e-12 * np.abs(once.coeffs).max()
        try:
            u = random_solenoidal(grid, seed=seed)
        except ValueError:  # the ball of radius R/2 holds no mode but m = 0
            assume(False)
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
        v0 = SpectralField(grid, reflect(u0.coeffs))
        a = run(u0, params, cfg, 0.05, output_every=0.05)
        b = run(v0, params, cfg, 0.05, output_every=0.05)
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

    @pytest.mark.parametrize("times, name", [
        ({"t_end": math.nan}, "t_end - t_start"),
        ({"t_end": math.inf}, "t_end - t_start"),
        ({"t_start": math.nan}, "t_end - t_start"),
        ({"t_start": -math.inf}, "t_end - t_start"),
        ({"output_every": math.nan}, "output_every"),
        ({"output_every": math.inf}, "output_every"),
    ])
    def test_a_time_that_is_not_finite_is_refused_by_name(self, times, name):
        u0 = taylor_green(make_grid(8, TWO_PI), amplitude=0.1)
        params = PhysParams(nu=1.0, alpha=1.0, beta=4.0)
        times = {"t_end": 0.1, **times}
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be finite, got -?(nan|inf)$"):
            run(u0, params, StepperConfig(dt=0.02), **times)

    @pytest.mark.parametrize("slip, ok", [(0.9e-8, True), (-0.9e-8, True), (1.1e-8, False), (-1.1e-8, False)])
    def test_one_rule_puts_every_time_on_the_dt_grid(self, slip, ok):
        # the span, the cadence and the continuity ladder's times, within or
        # beyond 1e-8 of a multiple of dt, all by StepperConfig.steps
        cfg = StepperConfig(dt=0.02)
        for steps in (1, 5, 400):
            t = steps * 0.02 * (1.0 + slip)
            if ok:
                assert cfg.steps(t, "t") == steps
            else:
                with pytest.raises(ValueError, match=r"^t = .* is not a positive multiple of time.dt = 0.02$"):
                    cfg.steps(t, "t")
        for t in (0.0, -0.02, 1e-12, 0.009):
            with pytest.raises(ValueError, match="is not a positive multiple"):
                cfg.steps(t, "t")
        assert cfg.steps(1e300, "t") == round(1e300 / 0.02)
        with pytest.raises(ValueError, match="is not a positive multiple"):
            StepperConfig(dt=1e-300).steps(1e300, "t")  # 1e600 steps: t / dt overflows
        u0 = taylor_green(make_grid(8, TWO_PI), amplitude=0.1)
        params = PhysParams(nu=1.0, alpha=1.0, beta=4.0)
        for times in ({"t_end": 0.1 * (1.0 + slip)}, {"t_end": 0.1, "output_every": 0.04 * (1.0 + slip)}):
            if ok:
                assert run(u0, params, cfg, **times)[-1].step_count == 5
            else:
                with pytest.raises(ValueError, match="is not a positive multiple of time.dt"):
                    run(u0, params, cfg, **times)

    def test_determinism_bitwise(self):
        grid = make_grid(8, TWO_PI)
        u0 = random_solenoidal(grid, seed=10)
        params = PhysParams(nu=1.0, alpha=1.0, beta=4.0)
        a = run(u0, params, StepperConfig(dt=5e-3), 0.1)
        b = run(u0, params, StepperConfig(dt=5e-3), 0.1)
        assert np.array_equal(a[-1].u.coeffs, b[-1].u.coeffs)
        assert a[-1].cum_visc == b[-1].cum_visc

    def test_cfl_refusal(self):
        grid = make_grid(8, TWO_PI)
        u0 = random_solenoidal(grid, seed=11, amplitude=1e3)
        state = SolverState(t=0.0, u=u0, params=PhysParams(nu=1.0, alpha=1.0, beta=4.0))
        with pytest.raises(CFLError):
            step(state, StepperConfig(dt=0.1))

    def test_cfl_rate_that_overflows_is_refused(self):
        # |u|_inf^(beta-1) overflows a float at beta = 1000: the rate is inf, not an OverflowError
        grid = make_grid(8, TWO_PI)
        u0 = random_solenoidal(grid, seed=11, amplitude=1e3)
        state = SolverState(t=0.0, u=u0, params=PhysParams(nu=1.0, alpha=1.0, beta=1000.0))
        with np.errstate(over="ignore", invalid="ignore"):  # the kernel's |u|^(beta-1) is inf too
            with pytest.raises(CFLError, match=r"alpha \|u\|_inf\^\(beta-1\) = inf"):
                step(state, StepperConfig(dt=1e-3))

    def test_blowup_detection(self):
        grid = make_grid(8, TWO_PI)
        u0 = random_solenoidal(grid, seed=12)
        u0.coeffs[0, 1, 0, 0] = np.nan
        state = SolverState(t=0.5, u=u0, params=PhysParams(nu=1.0, alpha=1.0, beta=4.0))
        with pytest.raises(BlowupError, match=r"^non-finite field \(\|u\|_inf = nan\) at t = 0\.5$"):
            step(state, StepperConfig(dt=1e-3))

    @pytest.mark.parametrize(
        "entry,value,message",
        [
            ((1, 1, 0, 1), 0.3, r"Hermitian symmetry violated: relative error 1\.000e\+00"),
            ((2, 1, 0, 0), 0.3, "Hermitian symmetry violated"),
            ((0, 1, 1, 1), np.nan, "field contains non-finite coefficients"),
            ((0, 4, 4, 4), np.nan, "field contains non-finite coefficients"),
            ((0, 0, 0, 0), np.nan, "field contains non-finite coefficients"),
            ((2, 0, 1, 2), np.inf, "field contains non-finite coefficients"),
        ],
        ids=["hermitian-m3-positive", "hermitian-m3-zero", "nan-in-ball", "nan-outside-ball",
             "nan-mean", "inf"],
    )
    def test_bad_initial_field_refused_before_integrating(self, monkeypatch, entry, value, message):
        # validate() refuses each broken field before the stepper runs
        def integrate(*args):
            raise AssertionError("the stepper ran")

        monkeypatch.setattr(dynamics._Stepper, "advance", integrate)
        params, cfg = PhysParams(nu=1.0, alpha=1.0, beta=4.0), StepperConfig(dt=1e-3)
        u0 = random_solenoidal(make_grid(8, TWO_PI), seed=3)
        with pytest.raises(AssertionError, match="the stepper ran"):
            run(u0, params, cfg, 0.01)
        if np.isfinite(value):
            u0.coeffs[entry] += value
        else:
            u0.coeffs[entry] = value
        with pytest.raises(ValueError, match=message):
            run(u0, params, cfg, 0.01)

    def test_initial_field_outside_the_state_space_is_refused(self):
        # the start-up projects nothing: whatever validate() refuses, trajectory refuses
        grid = make_grid(8, TWO_PI)
        params, cfg = PhysParams(nu=1.0, alpha=1.0, beta=4.0), StepperConfig(dt=1e-3)
        u0 = random_solenoidal(grid, seed=3)
        along = np.array([1.0, 0.0, 1.0])  # parallel to xi at m = (1, 0, 1) and at -m
        bent = u0.copy()  # a part along xi, not Hermitian
        bent.coeffs[:, 1, 0, 1] += 0.3 * along
        bent.coeffs[:, 7, 0, 7] += 0.2j * along
        longitudinal = u0.copy()  # a part along xi, Hermitian
        longitudinal.coeffs[:, 1, 0, 1] += (0.3 + 0.2j) * along
        longitudinal.coeffs[:, 7, 0, 7] += (0.3 - 0.2j) * along
        leak = u0.copy()  # a Hermitian pair at m = +-(3, 3, 0), outside the ball
        leak.coeffs[2, 3, 3, 0] += 0.1 + 0.1j
        leak.coeffs[2, 5, 5, 0] += 0.1 - 0.1j
        for field, message in (
            (bent, "Hermitian symmetry violated"),
            (longitudinal, "field is not solenoidal"),
            (leak, "coefficients outside the cutoff ball are not zero"),
        ):
            with pytest.raises(ValueError, match=message):
                run(field, params, cfg, 0.0)

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("start", ["taylor-green", "random"])
    def test_restart_from_a_checkpoint_is_bitwise(self, tmp_path, n, start):
        # a snapshot is a state, so its checkpoint starts the same ball vector again
        grid = make_grid(n, TWO_PI)
        u0 = taylor_green(grid) if start == "taylor-green" else random_solenoidal(grid, seed=5)
        params, cfg = PhysParams(nu=1.0, alpha=1.0, beta=4.0), StepperConfig(dt=1e-3)
        cont = run(u0, params, cfg, 0.02, output_every=0.01)
        assert cont[1].t == 0.01
        path = tmp_path / "mid.ckpt"
        write_checkpoint(cont[1], path)
        resumed = read_checkpoint(path)
        tail = run(resumed.u, resumed.params, cfg, 0.02, t_start=resumed.t, output_every=0.01)
        assert tail[-1].t == cont[-1].t
        assert np.array_equal(tail[-1].vector, cont[-1].vector)

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("start", ["taylor-green", "random"])
    def test_a_snapshot_and_its_field_start_the_same_run(self, n, start):
        # trajectory takes a state's vector as it is and a field's ball
        # entries once validate() accepts them: from a mid-run snapshot and
        # from its .u the snapshots' vectors and energy records agree bit for bit
        grid = make_grid(n, TWO_PI)
        u0 = taylor_green(grid) if start == "taylor-green" else random_solenoidal(grid, seed=5)
        params, cfg = PhysParams(nu=1.0, alpha=1.0, beta=4.0), StepperConfig(dt=1e-3)
        mid = run(u0, params, cfg, 0.01, output_every=0.01)[-1]
        tails = []
        for initial in (mid, mid.u):
            rec = SeriesRecorder()
            snaps = run(initial, params, cfg, 0.02, t_start=mid.t, output_every=2e-3, hooks=(rec,))
            tails.append(([s.vector.tobytes() for s in snaps], rec.energy, rec.decay))
        assert len(tails[0][0]) == 6
        assert tails[0] == tails[1]

    def test_accumulators_track_dissipation(self):
        grid = make_grid(8, TWO_PI)
        u0 = taylor_green(grid)
        end = run(
            u0,
            PhysParams(nu=1.0, alpha=1.0, beta=4.0),
            StepperConfig(dt=2e-3),
            0.2,
        )[-1]
        assert end.cum_visc > 0.0 and end.cum_damp > 0.0
        no_damp = run(
            u0,
            PhysParams(nu=1.0, alpha=0.0, beta=4.0),
            StepperConfig(dt=2e-3),
            0.2,
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
        snaps = run(
            u0,
            PhysParams(nu=1.0, alpha=1.0, beta=4.0),
            StepperConfig(dt=2e-3),
            0.3,
            output_every=0.1,
        )
        heat0, f0, g0, drift0 = snaps[0].duhamel
        assert snaps[0].t == 0.0
        assert heat0 == pytest.approx(l2_norm(u0), rel=1e-13)
        assert f0 == 0.0 and g0 == 0.0 and drift0 == 0.0
        heat1, f1, g1, drift1 = snaps[-1].duhamel
        assert heat1 < heat0  # pure heat part decays
        assert f1 > 0.0 and g1 > 0.0
        assert drift1 <= 1e-6

    def test_damping_only_flow_keeps_advection_part_empty(self):
        # single shear mode: advection is identically zero, so the f-part
        # of the split stays at roundoff while g accumulates the damping
        grid = make_grid(16, TWO_PI)
        u0 = shear_mode(grid)
        snaps = run(
            u0,
            PhysParams(nu=1.0, alpha=2.0, beta=3.0),
            StepperConfig(dt=2e-3),
            0.2,
            output_every=0.2,
        )
        _, f_end, g_end, _ = snaps[-1].duhamel
        assert f_end <= 1e-13
        assert g_end > 1e-4

    def test_drift_guard_fires(self, monkeypatch):
        # a split whose damping part never advances stops matching the state
        finish = dynamics._Duhamel.finish

        def frozen_g(self):
            g = self.g
            finish(self)
            self.g = g

        monkeypatch.setattr(dynamics._Duhamel, "finish", frozen_g)
        u0 = random_solenoidal(make_grid(8, TWO_PI), seed=30, amplitude=2.0)
        with pytest.raises(BlowupError, match=r"Duhamel split drifted .* at t = 0\.01$"):
            run(u0, PhysParams(nu=1.0, alpha=1.0, beta=4.0), StepperConfig(dt=2e-3), 0.1,
                output_every=0.01)

    def test_no_split_under_forcing(self):
        grid = make_grid(8, TWO_PI)
        params = PhysParams(nu=0.4, alpha=0.5, beta=5.0)
        target = SeparableTarget(taylor_green(grid, amplitude=0.3), lambda t: 1.0, lambda t: 0.0, params)
        snaps = run(target.field(0.0), params, StepperConfig(dt=1e-2), 0.02,
                    forcing=manufactured_forcing(target, params))
        assert all(s.duhamel is None for s in snaps)


class TestLowStorageStep:
    @staticmethod
    def _vectors(rng, shape, count):
        """count random vectors of shape with signed zeros: a tenth of the entries zero in
        every vector (-0 in all of them at half of those), another tenth in each alone."""
        common = rng.random(shape) < 0.1
        negative = common & (rng.random(shape) < 0.5)
        out = []
        for _ in range(count):
            x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.uniform(-3, 3)
            for part in (x.real, x.imag):
                zeros = common | (rng.random(shape) < 0.1)
                part[zeros] = np.copysign(0.0, rng.standard_normal(int(zeros.sum())))
                part[negative] = -0.0
            out.append(x)
        return out

    @pytest.mark.parametrize("seed", range(6))
    def test_fold_gives_the_bits_of_the_whole_combination(self, seed):
        # the state's combination (dt) and the Duhamel parts' (-dt), folded
        # stage by stage, against the list form; signed zeros included
        rng = np.random.default_rng(seed)
        ball = make_grid(8, TWO_PI).ball
        dt = rng.uniform(1e-4, 0.1)
        e_half = np.exp(-rng.uniform(0.1, 2.0) * ball.k_sq * (dt / 2.0))
        e_full = e_half**2
        for h in (dt, -dt):
            x, *stages = self._vectors(rng, ball.k.shape, 5)
            fold = dynamics._Fold(e_full, 2.0 * e_half, h / 6.0)
            for s in stages:
                fold.add(s.copy())
            got = fold.finish(x)
            want = list_combine(x, stages, e_half, e_full, h)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, alpha", [(8, 1.0), (12, 1.0), (12, 0.0)])
    def test_step_gives_the_bits_of_the_list_form(self, n, alpha):
        # three steps of the stepper and its Duhamel split against steps that
        # keep every stage's terms and combine them whole at the end
        grid = make_grid(n, TWO_PI)
        params, dt = PhysParams(nu=0.7, alpha=alpha, beta=10.0 / 3.0), 2e-3
        v = grid.ball.gather(random_solenoidal(grid, seed=n, amplitude=3.0).coeffs)
        stepper = dynamics._Stepper(grid, params, StepperConfig(dt=dt))
        duhamel = dynamics._Duhamel(grid, v)
        want = (v, v, np.zeros_like(v), np.zeros_like(v))
        for i in range(3):
            got = stepper.advance(v, i * dt, stepper.kernel(v), duhamel)
            want = list_form_step(grid, params, dt, *want[:4])
            v = got[0]
            for name, g, w in zip(("v", "heat", "f", "g"), (v, duhamel.heat, duhamel.f, duhamel.g), want):
                assert g.tobytes() == w.tobytes(), (i, name)
            assert got[1:] == want[4:]


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
            )
            exact = target.field(0.4)
            return l2_norm(snaps[-1].u - exact) / l2_norm(exact)

        e_coarse, e_fine = err(2e-2), err(1e-2)
        order = math.log2(e_coarse / e_fine)
        assert order >= 3.7

    @pytest.mark.parametrize("kind", ["taylor-green", "random"])
    def test_the_forcing_is_the_cube_forcing_gathered_bit_for_bit(self, kind):
        # the temporal-order study's target, and a random one with beta = 10/3;
        # the ball vector at each time against the whole cube, gathered
        grid = make_grid(16, TWO_PI)
        params = PhysParams(nu=0.4, alpha=0.5, beta=5.0 if kind == "taylor-green" else 10.0 / 3.0)
        base = (taylor_green(grid, amplitude=0.3) if kind == "taylor-green"
                else random_solenoidal(grid, seed=11, amplitude=2.0))
        args = (lambda t: 1.0 + 0.4 * math.sin(2.0 * t), lambda t: 0.8 * math.cos(2.0 * t), params)
        target = SeparableTarget(base, *args)
        forcing, cube = manufactured_forcing(target, params), cube_manufactured_forcing(base, *args)
        for t in np.linspace(0.0, 0.5, 101):
            got = forcing(t)
            assert got.shape == (3, grid.ball.k_sq.size)
            assert got.tobytes() == grid.ball.gather(cube(t)).tobytes(), t
        assert target.vector.tobytes() == grid.ball.gather(base.coeffs).tobytes()
        assert np.array_equal(target.field(0.25).coeffs, (1.0 + 0.4 * math.sin(0.5)) * base.coeffs)

    def test_band_limit_guard(self):
        grid = make_grid(8, TWO_PI)
        params = PhysParams(nu=1.0, alpha=0.5, beta=5.0)
        bad = taylor_green(grid, amplitude=0.3)
        bad.coeffs[0, 3, 3, 0] = 1e-6  # outside the cutoff ball
        with pytest.raises(ValueError):
            SeparableTarget(bad, lambda t: 1.0, lambda t: 0.0, params)
