"""Energy accounting, decay diagnostics, and the CSV schema."""

import dataclasses

import numpy as np
import pytest

from oracles import (
    cube_low_shell_mask,
    field_state,
    full_cube_ledger,
    hermitian_error,
    shear_mode,
    trapezoid_energy_records,
)
from nsdamp.certificate import Check
from nsdamp.dynamics import (
    DuhamelNorms,
    SeparableTarget,
    StepperConfig,
    manufactured_forcing,
    run,
    trajectory,
)
from nsdamp.initial_conditions import random_solenoidal, taylor_green
from nsdamp.ledger import (
    CSV_COLUMNS,
    SeriesRecorder,
    check_energy_inequality,
    decay_snapshot,
    record_energy,
    write_series_csv,
)
from nsdamp.spectral import PhysParams, SpectralField, l2_norm, make_grid

TWO_PI = 2.0 * np.pi


def _short_run(n=8, dt=2e-3, t_end=0.2, alpha=1.0, beta=4.0, every=0.02):
    grid = make_grid(n, TWO_PI)
    u0 = taylor_green(grid)
    rec = SeriesRecorder()
    snaps = run(
        u0,
        PhysParams(nu=1.0, alpha=alpha, beta=beta),
        StepperConfig(dt=dt),
        t_end,
        output_every=every,
        hooks=(rec,),
    )
    return snaps, rec


class TestEnergyLedger:
    def test_residual_is_tiny_and_reported(self):
        snaps, rec = _short_run()
        baseline = rec.energy[0].baseline
        assert baseline == pytest.approx(l2_norm(snaps[0].u) ** 2, rel=1e-14)
        worst = max(abs(r.residual) for r in rec.energy)
        assert worst <= 1e-9 * baseline
        report = check_energy_inequality(rec.energy, 1e-6)
        assert report.check == Check("two-sided energy balance", worst, 1e-6 * baseline, True)
        assert report.check.passed

    def test_residual_shrinks_at_fourth_order(self):
        # halving dt must shrink the closure defect by roughly 2^4
        def final_residual(dt):
            _, rec = _short_run(dt=dt, every=0.2)
            return abs(rec.energy[-1].residual)

        r_coarse = final_residual(8e-3)
        r_fine = final_residual(4e-3)
        assert 8.0 <= r_coarse / r_fine <= 40.0

    def test_violation_is_reported_not_raised(self):
        _, rec = _short_run(t_end=0.04)
        doctored = list(rec.energy)
        bad = doctored[-1].__class__(
            t=doctored[-1].t,
            l2_sq=doctored[-1].l2_sq + 1.0,  # inject spurious energy
            cum_visc=doctored[-1].cum_visc,
            cum_damp=doctored[-1].cum_damp,
            residual=1.0,
            baseline=doctored[-1].baseline,
        )
        doctored[-1] = bad
        report = check_energy_inequality(doctored, 1e-6)
        assert not report.check.passed
        assert report.worst_t == bad.t
        assert report.check.value == 1.0

    def test_a_residual_below_the_budget_fails_as_one_above_it(self):
        # the truncated system balances exactly: energy lost beyond the budget
        # is as wrong as energy gained, and the largest |residual| is the value
        _, rec = _short_run(t_end=0.04)
        doctored = list(rec.energy)
        doctored[1] = dataclasses.replace(doctored[1], residual=-1.0)
        doctored[2] = dataclasses.replace(doctored[2], residual=0.5)
        report = check_energy_inequality(doctored, 1e-6)
        assert not report.check.passed
        assert (report.worst_t, report.check.value) == (doctored[1].t, 1.0)
        assert report.check.bound == 1e-6 * abs(doctored[0].baseline)

    def test_trapezoid_rebuild_matches_accumulators(self):
        # an independent quadrature from snapshot fields alone reproduces the
        # stage-accurate accumulators to the cadence's trapezoid error
        snaps, rec = _short_run(dt=1e-3, t_end=0.2, every=0.01)
        rebuilt = trapezoid_energy_records(snaps)
        got = rebuilt[-1]
        want = rec.energy[-1]
        assert got.cum_visc == pytest.approx(want.cum_visc, rel=5e-3)
        assert got.cum_damp == pytest.approx(want.cum_damp, rel=5e-3)
        assert abs(got.residual) <= 1e-2 * want.baseline

    def test_non_monotone_time_rejected(self):
        snaps, _ = _short_run(t_end=0.04)
        first = record_energy(snaps[0])
        with pytest.raises(ValueError, match="non-monotone"):
            record_energy(snaps[0], first)

    def test_restart_baseline_resets(self):
        snaps, _ = _short_run(t_end=0.04)
        later = snaps[-1]
        rec = record_energy(later)
        assert rec.residual == 0.0
        assert rec.baseline == pytest.approx(
            later.cum_visc + later.cum_damp + l2_norm(later.u) ** 2
        )

    def test_an_empty_series_is_refused(self):
        with pytest.raises(ValueError, match="^empty energy series$"):
            check_energy_inequality([], 1e-6)


class TestDecayDiagnostics:
    def test_constant_magnitude_field_fills_one_bucket(self):
        # u = c (sin y, 0, cos y) has |u| = c pointwise, so the rate lands
        # entirely in the |u| > 1 bucket for c > 1 and accumulates
        # c^beta L^3 per unit time under the trapezoid rule
        grid = make_grid(8, TWO_PI)
        c_amp, beta, dt = 2.0, 4.0, 0.125
        c = np.zeros(grid.shape, dtype=np.complex128)
        c[0, 0, 1, 0] = -0.5j * c_amp
        c[0, 0, -1, 0] = 0.5j * c_amp
        c[2, 0, 1, 0] = 0.5 * c_amp
        c[2, 0, -1, 0] = 0.5 * c_amp
        u = SpectralField(grid, c)
        params = PhysParams(nu=1.0, alpha=1.0, beta=beta)
        s0 = field_state(u, 0.0, params)
        s1 = field_state(u, dt, params)
        d0 = decay_snapshot(s0)
        d1 = decay_snapshot(s1, d0)
        want = c_amp**beta * grid.box_length**3 * dt
        assert d1.lbeta_E2 - d0.lbeta_E2 == pytest.approx(want, rel=1e-12)
        assert d1.lbeta_E1 == d0.lbeta_E1 == 0.0
        assert d0.linf == pytest.approx(c_amp, rel=1e-12)

    def test_low_amplitude_field_fills_other_bucket(self):
        grid = make_grid(8, TWO_PI)
        u = random_solenoidal(grid, seed=1, amplitude=0.05)
        params = PhysParams(nu=1.0, alpha=1.0, beta=4.0)
        s0 = field_state(u, 0.0, params)
        d0 = decay_snapshot(s0)
        d1 = decay_snapshot(field_state(u, 0.1, params), d0)
        assert d1.lbeta_E1 > 0.0
        assert d1.lbeta_E2 == 0.0

    def test_single_shell_low_norm_relation(self):
        # one |xi| = 1 shell: H^(-2) norm is exactly half the energy norm
        grid = make_grid(8, TWO_PI)
        u = random_solenoidal(grid, seed=2)  # not single-shell: sanity only
        params = PhysParams(nu=1.0, alpha=1.0, beta=4.0)

        d = decay_snapshot(field_state(shear_mode(grid), 0.0, params))
        assert d.hminus2 == pytest.approx(0.5 * l2_norm(shear_mode(grid)), rel=1e-12)
        d_rand = decay_snapshot(field_state(u, 0.0, params))
        assert d_rand.hminus2 < l2_norm(u)

    def test_duhamel_columns(self):
        _, rec = _short_run(t_end=0.04, every=0.02)
        first = rec.decay[0]
        assert first.heat_l2 == pytest.approx(np.sqrt(rec.energy[0].l2_sq), rel=1e-13)
        assert first.f_hminus2 == 0.0 and first.g_hminus2 == 0.0
        # a state that trajectory() did not produce carries no split: NaN placeholders
        grid = make_grid(8, TWO_PI)
        u = random_solenoidal(grid, seed=3)
        d = decay_snapshot(field_state(u, 0.0, PhysParams(1.0, 1.0, 4.0)))
        assert np.isnan(d.heat_l2) and np.isnan(d.f_hminus2) and np.isnan(d.g_hminus2)

    def test_frequency_split_norms_partition_energy(self):
        # random_solenoidal fills |xi| <= R/2, which reaches past |xi| = 1 from N = 32
        grid = make_grid(32, 8.0 * np.pi)
        u = random_solenoidal(grid, seed=4)
        d = decay_snapshot(field_state(u, 0.0, PhysParams(1.0, 1.0, 4.0)))
        assert d.w1_l2**2 + d.w2_l2**2 == pytest.approx(l2_norm(u) ** 2, rel=1e-12)
        assert d.w1_l2 > 0.0 and d.w2_l2 > 0.0
        # on this box modes 1..3 sit strictly below |xi| = 1, mode 4 does not
        assert cube_low_shell_mask(grid)[3, 0, 0]
        assert not cube_low_shell_mask(grid)[4, 0, 0]

    def test_a_snapshot_that_does_not_follow_its_accumulator_is_refused(self):
        grid = make_grid(8, TWO_PI)
        params = PhysParams(nu=1.0, alpha=1.0, beta=4.0)
        u = random_solenoidal(grid, seed=1, amplitude=0.5)
        d1 = decay_snapshot(field_state(u, 0.1, params))
        for t in (0.1, 0.05):
            with pytest.raises(ValueError, match=rf"non-monotone time: snapshot at t = {t!r} after t = 0.1"):
                decay_snapshot(field_state(u, t, params), d1)


class TestHooksAgainstFullCube:
    """The hooks read the ball vector; oracles.full_cube_ledger reads the whole cube."""

    @pytest.mark.parametrize("seed", [4, 5])
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_hooks_match_full_cube_formulas(self, n, seed):
        u0 = random_solenoidal(make_grid(n, 8.0 * np.pi), seed=seed)
        params = PhysParams(nu=1.0, alpha=1.0, beta=10.0 / 3.0)
        rec = SeriesRecorder()
        snaps = list(trajectory(u0, params, StepperConfig(dt=0.02), 0.1, output_every=0.02, hooks=(rec,)))
        want = full_cube_ledger(snaps)
        for e, d, ref in zip(rec.energy, rec.decay, want):
            for name in ("linf", "rate_e1", "rate_e2", "lbeta_E1", "lbeta_E2"):
                assert getattr(d, name) == ref[name], name
            assert e.l2_sq == pytest.approx(ref["l2_sq"], rel=1e-14, abs=0.0)
            for name in ("hminus2", "w1_l2", "w2_l2"):
                assert getattr(d, name) == pytest.approx(ref[name], rel=1e-14, abs=0.0), name
        assert len(want) == 6 and want[-1]["lbeta_E1"] > 0.0

    @pytest.mark.parametrize("hook", [record_energy, decay_snapshot], ids=lambda f: f.__name__)
    def test_hooks_read_only_the_half_spectrum_ball_entries(self, hook):
        # a non-Hermitian field with coefficients outside the ball gives the
        # bits of the Hermitian ball field built from its half-spectrum entries
        grid = make_grid(8, TWO_PI)
        rng = np.random.default_rng(8)
        c = 0.1 * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        ball = grid.ball
        params = PhysParams(nu=1.0, alpha=1.0, beta=4.0)
        split = DuhamelNorms(1.0, 2.0, 3.0, 0.0)

        def fold(coeffs):
            u = SpectralField(grid, coeffs)
            return hook(field_state(u, 0.1, params, cum_visc=0.5, cum_damp=0.25, duhamel=split))

        assert hermitian_error(SpectralField(grid, c)) > 0.1
        assert fold(c) == fold(ball.expand(ball.gather(c)))


class TestPointwiseFromTheStepper:
    """A run's snapshots carry the speed's sums from the stepper's stage-1 grid values."""

    @pytest.mark.parametrize("case", ["free", "zero-length", "forced"])
    def test_decay_rows_equal_those_of_states_built_from_the_fields(self, case):
        # snapshots at steps 0, 2 and 4 come with a next step, the final one at
        # step 5 without; a state built from a field takes its own inverse
        grid = make_grid(16, 8.0 * np.pi)
        params, cfg = PhysParams(nu=1.0, alpha=1.0, beta=10.0 / 3.0), StepperConfig(dt=0.02)
        u0, forcing = random_solenoidal(grid, seed=3, amplitude=2.0), None
        if case == "forced":
            target = SeparableTarget(u0, lambda t: 1.0 + t, lambda t: 1.0, params)
            forcing = manufactured_forcing(target, params)
        t_end = 0.0 if case == "zero-length" else 0.1
        rec = SeriesRecorder()
        snaps = run(u0, params, cfg, t_end, output_every=0.04, hooks=(rec,), forcing=forcing)
        assert [s.step_count for s in snaps] == ([0] if case == "zero-length" else [0, 2, 4, 5])
        prev = None
        for snap, row in zip(snaps, rec.decay, strict=True):
            state = field_state(snap.u, snap.t, params, duhamel=snap.duhamel)
            prev = decay_snapshot(state, prev)
            got, want = (np.array(dataclasses.astuple(d)).tobytes() for d in (prev, row))
            assert got == want  # bit for bit, the NaN Duhamel columns of the forced run too
            assert state.pointwise == snap.pointwise


class TestCsv:
    def test_schema_and_roundtrip(self, tmp_path):
        _, rec = _short_run(t_end=0.06, every=0.02)
        path = tmp_path / "series.csv"
        write_series_csv(path, rec.energy, rec.decay)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(rec.energy)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert data["t"][-1] == rec.energy[-1].t
        assert data["l2_sq"][0] == rec.energy[0].l2_sq
        assert data["cum_visc"][-1] == rec.energy[-1].cum_visc
        assert data["linf"][0] == rec.decay[0].linf

    def test_bitwise_determinism(self, tmp_path):
        _, rec_a = _short_run(t_end=0.06, every=0.02)
        _, rec_b = _short_run(t_end=0.06, every=0.02)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_series_csv(pa, rec_a.energy, rec_a.decay)
        write_series_csv(pb, rec_b.energy, rec_b.decay)
        assert pa.read_bytes() == pb.read_bytes()

    def test_misaligned_series_rejected(self, tmp_path):
        _, rec = _short_run(t_end=0.06, every=0.02)
        with pytest.raises(ValueError):
            write_series_csv(tmp_path / "x.csv", rec.energy, rec.decay[:-1])

    def test_rows_of_different_times_are_refused(self, tmp_path):
        _, rec = _short_run(t_end=0.06, every=0.02)
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="series misaligned at t = 0.02 vs 0.04"):
            write_series_csv(path, rec.energy, [rec.decay[0], *rec.decay[2:], rec.decay[1]])
        assert not path.exists()
