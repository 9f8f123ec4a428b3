"""Experiment drivers and the command-line harness."""

import gc
import hashlib
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cube_random_solenoidal,
    cube_taylor_green,
    inject_field,
    reference_energy_checks,
    reference_taper,
    shear_mode,
)
from report_checks import check_named, checks_named
from nsdamp import cli, dynamics, experiments, inequalities, spectral
from nsdamp.certificate import Certificate
from nsdamp.checkpoint import read_checkpoint, write_checkpoint
from nsdamp.cli import main
from nsdamp.config import ConfigError, canonical_text, config_from_mapping
from nsdamp.dynamics import SolverState, StepperConfig, run, trajectory
from nsdamp.experiments import (
    build_initial,
    continuity_experiment,
    decay_experiment,
    refinement_experiment,
    run_experiment,
    twin_experiment,
)
from nsdamp.initial_conditions import random_solenoidal, taylor_green
from nsdamp.ledger import EnergyRecord
from nsdamp.spectral import GridSpec, PhysParams, SpectralField, grad_norm_sq, l2_norm, make_grid

TWO_PI = 2.0 * np.pi
ROOT = Path(__file__).resolve().parent.parent


def _cfg(**over):
    m = {
        "grid.n_modes": 8,
        "grid.box_length": TWO_PI,
        "phys.nu": 1.0,
        "phys.alpha": 1.0,
        "phys.beta": 4.0,
        "time.dt": 2e-3,
        "time.t_end": 0.2,
        "time.output_every": 0.02,
        "ic.kind": "taylor-green",
    }
    m.update(over)
    return config_from_mapping(m)


class TestInjection:
    @pytest.mark.parametrize("coarse_n, fine_n", [(8, 16), (16, 32), (8, 32)])
    @pytest.mark.parametrize("box", [TWO_PI, 4.0 * TWO_PI])
    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.5])
    def test_ball_injection_equals_the_cube_reference(self, coarse_n, fine_n, box, fraction):
        # the driver's index map between the balls moves a vector's entries as
        # inject_field moves the expanded cube's coefficients, bit for bit
        coarse, fine = make_grid(coarse_n, box, fraction), make_grid(fine_n, box, fraction)
        rng = np.random.default_rng(coarse_n + fine_n)
        shape = coarse.ball.k.shape
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = fine.ball.gather(inject_field(SpectralField(coarse, coarse.ball.expand(v)), fine).coeffs)
        got = experiments._inject(v, experiments._injection(coarse, fine), fine)
        assert got.tobytes() == want.tobytes()

    def test_preserves_modes_and_norm(self):
        coarse = make_grid(8, TWO_PI)
        fine = make_grid(16, TWO_PI)
        u = random_solenoidal(coarse, seed=0)
        v = inject_field(u, fine)
        assert v.grid is fine
        assert l2_norm(v) == pytest.approx(l2_norm(u), rel=1e-14)
        # negative coarse modes land on the fine grid's negative side
        assert v.coeffs[0, -1, 0, 0] == u.coeffs[0, -1, 0, 0]
        assert v.coeffs[0, 2, -3, 1] == u.coeffs[0, 2, -3, 1]

    def test_rejects_bad_targets(self):
        coarse = make_grid(8, TWO_PI)
        u = random_solenoidal(make_grid(16, TWO_PI), seed=0)
        with pytest.raises(ValueError, match="coarser"):
            inject_field(u, coarse)
        with pytest.raises(ValueError, match="different boxes"):
            inject_field(random_solenoidal(coarse, seed=0), make_grid(16, 4.0 * np.pi))


class TestBuildInitial:
    def test_analytic_kinds(self):
        start = build_initial(_cfg())
        assert start.t == 0.0
        assert l2_norm(start.u) > 0.0
        u2 = build_initial(_cfg(**{"ic.kind": "random-solenoidal", "ic.seed": 3}))
        u3 = build_initial(_cfg(**{"ic.kind": "random-solenoidal", "ic.seed": 3}))
        assert np.array_equal(u2.vector, u3.vector)

    @pytest.mark.parametrize("n, box, seed", [(32, TWO_PI, 0), (32, TWO_PI, 1), (16, TWO_PI, 16),
                                              (32, 4.0 * TWO_PI, 7)])
    def test_the_start_is_the_cube_built_field(self, tmp_path, n, box, seed):
        # each kind's start expands to the field the cube construction builds:
        # the Taylor-Green corners set in the cube, the random field normalised
        # by the full-cube norm (which the ball's norm matches bitwise at these
        # grids and seeds), a checkpoint's field as read; and its vector is
        # those fields' ball entries, which a run from them reads, bit for bit
        over = {"grid.n_modes": n, "grid.box_length": box, "ic.seed": seed}
        grid = make_grid(n, box)
        path = tmp_path / "s.ckpt"
        write_checkpoint(SolverState(t=0.5, u=cube_random_solenoidal(grid, seed),
                                     params=PhysParams(nu=1.0, alpha=1.0, beta=4.0)), path)
        for kind, want in (("taylor-green", cube_taylor_green(grid)),
                           ("random-solenoidal", cube_random_solenoidal(grid, seed)),
                           ("checkpoint", read_checkpoint(path).u)):
            path_key = {"ic.path": str(path)} if kind == "checkpoint" else {}
            start = build_initial(_cfg(**over, **{"ic.kind": kind, **path_key}))
            assert start.t == (0.5 if kind == "checkpoint" else 0.0)
            assert start.grid == grid and not start.vector.flags.writeable
            # equal values: the zeros' signs differ where conj(0) or 0 * scale wrote them
            assert np.array_equal(start.u.coeffs, want.coeffs)
            assert start.vector.tobytes() == grid.ball.gather(want.coeffs).tobytes()

    def test_checkpoint_consistency_guard(self, tmp_path):
        grid = make_grid(8, TWO_PI)
        state = SolverState(
            t=0.5,
            u=random_solenoidal(grid, seed=1),
            params=PhysParams(nu=1.0, alpha=1.0, beta=4.0),
        )
        path = tmp_path / "s.ckpt"
        write_checkpoint(state, path)

        good = _cfg(**{"ic.kind": "checkpoint", "ic.path": str(path)})
        start = build_initial(good)
        assert start.t == 0.5
        assert np.array_equal(start.u.coeffs, state.u.coeffs)

        for key, over in (
            ("grid.n_modes", {"grid.n_modes": 16}),
            ("phys.nu", {"phys.nu": 0.5}),
            ("phys.beta", {"phys.beta": 5.0}),
        ):
            bad = _cfg(**{"ic.kind": "checkpoint", "ic.path": str(path), **over})
            with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
                build_initial(bad)

    def test_a_checkpoint_restart_validates_its_field_once(self, tmp_path, monkeypatch):
        # read_checkpoint validates the field; the run starts from the state's
        # vector and does not validate it again
        path = tmp_path / "s.ckpt"
        write_checkpoint(SolverState(t=0.5, u=random_solenoidal(make_grid(8, TWO_PI), seed=1),
                                     params=PhysParams(nu=1.0, alpha=1.0, beta=4.0)), path)
        calls = []
        validate = SpectralField.validate
        monkeypatch.setattr(SpectralField, "validate", lambda f: calls.append(f) or validate(f))
        result = run_experiment(_cfg(**{"ic.kind": "checkpoint", "ic.path": str(path),
                                        "time.t_end": 0.508}))
        assert result.passed and result.snapshots[0].t == 0.5
        assert len(calls) == 1

    @pytest.mark.parametrize("eps", [2e-13, 6e-13, 9.9e-13, 1.1e-12])
    def test_taylor_green_refuses_exactly_when_the_ball_lacks_its_modes(self, eps):
        # R = sqrt(3) (1 - eps) puts the eight modes (+-1, +-1, +-1) on the closed
        # ball's edge: inside for eps below 5e-13, outside above
        grid = GridSpec(n_modes=8, box_length=TWO_PI, cutoff_radius=math.sqrt(3.0) * (1.0 - eps))
        inside = bool(grid.ball_mask[1, 1, 1])
        assert inside == (eps < 5e-13)
        if inside:
            taylor_green(grid).validate()
        else:
            with pytest.raises(ValueError, match="Taylor-Green"):
                taylor_green(grid)


class TestRunExperiment:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = _cfg()
        a, b = tmp_path / "a", tmp_path / "b"
        res1 = run_experiment(cfg, out_dir=str(a))
        res2 = run_experiment(cfg, out_dir=str(b))
        assert res1.passed and res2.passed
        for name in ("series.csv", "final.ckpt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert res1.lines() == res2.lines()
        text = "\n".join(res1.lines())
        assert "grid.n_modes = 8" in text  # canonical config echo
        assert "verdict: pass" in text

    def test_unusable_out_dir_refused_before_integrating(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("integrated before checking out_dir")

        monkeypatch.setattr(experiments, "run", refuse)
        monkeypatch.setattr(experiments, "trajectory", refuse)
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with pytest.raises(OSError):
            run_experiment(_cfg(), out_dir=str(blocker))
        decay_cfg = _cfg(**{"grid.box_length": 8.0 * np.pi, "phys.beta": 10.0 / 3.0})
        with pytest.raises(OSError):
            decay_experiment(decay_cfg, out_dir=str(blocker))

    def test_undamped_config_refused_before_integrating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("integrated before checking alpha")

        monkeypatch.setattr(experiments, "trajectory", refuse)
        cfg = _cfg(**{"grid.box_length": 8.0 * np.pi, "phys.alpha": 0.0})
        with pytest.raises(ConfigError, match="continuity requires alpha > 0"):
            continuity_experiment(cfg, [0.2], t0=0.5)
        with pytest.raises(ConfigError, match="decay requires alpha > 0"):
            decay_experiment(cfg)

    def test_outputs_independent_of_blas_threads(self, tmp_path):
        # every norm is a fixed-order reduction, so no BLAS thread count
        # reaches the last bit of series.csv
        cfg = _cfg(
            **{
                "grid.n_modes": 32,
                "grid.box_length": 8.0 * np.pi,
                "phys.beta": 10.0 / 3.0,
                "time.dt": 0.02,
                "time.t_end": 0.1,
                "time.output_every": 0.02,
                "ic.kind": "random-solenoidal",
            }
        )
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(canonical_text(cfg))
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": threads}
            subprocess.run(
                [sys.executable, "-m", "nsdamp.cli", "run", str(cfg_path), "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=300,
            )
            digests.append([hashlib.sha256((out / name).read_bytes()).hexdigest()
                            for name in ("series.csv", "final.ckpt")])
        assert digests[0] == digests[1]


    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_a_residual_that_is_not_finite_fails_the_energy_balance(self, monkeypatch, value):
        # max() skipped a NaN residual that follows a larger finite one
        def corrupting(*args, hooks, **kwargs):
            snapshots = run(*args, hooks=hooks, **kwargs)
            energy = hooks[0].energy
            energy[2] = replace(energy[2], residual=1e-12)
            energy[5] = replace(energy[5], residual=value)
            return snapshots

        monkeypatch.setattr(experiments, "run", corrupting)
        res = run_experiment(_cfg())
        assert not res.passed
        lines = res.lines()
        bound = check_named(res, "two-sided energy balance").bound
        assert [line for line in lines if "energy" in line and line.startswith(("pass", "FAIL"))] == [
            f"FAIL two-sided energy balance: {value} against bound {bound:.6g}"]
        assert lines[-1] == "verdict: FAIL"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(baseline=st.one_of(st.just(0.0), st.floats(), st.floats(1e-3, 1e3)),
           factors=st.lists(st.one_of(st.floats(-2.0, 2.0), st.sampled_from([1.0, -1.0, 0.0]),
                                      st.sampled_from([math.nan, math.inf, -math.inf]), st.floats()),
                            min_size=1, max_size=8))
    def test_the_energy_balance_passes_exactly_when_the_two_old_checks_did(self, baseline, factors):
        # the one-sided inequality shared the balance's budget, so the balance
        # alone gives the verdict that the two gave together
        budget = experiments.ENERGY_TOL * abs(baseline) if baseline != 0.0 else experiments.ENERGY_TOL
        records = [EnergyRecord(t=0.01 * (i + 1), l2_sq=1.0, cum_visc=0.0, cum_damp=0.0,
                                residual=f * budget, baseline=baseline)
                   for i, f in enumerate(factors)]

        def replaying(*args, hooks, **kwargs):
            hooks[0].energy.extend(records)
            return [None] * len(records)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "run", replaying)
            res = run_experiment(_cfg())
        want = Certificate(reference_energy_checks(records, experiments.ENERGY_TOL), [])
        assert [c.name for c in res.certificate.checks] == ["two-sided energy balance"]
        assert res.passed == want.passed


class TestTwin:
    def test_zero_delta_bitwise(self):
        rep = twin_experiment(_cfg(), 0.0)
        assert rep.passed and check_named(rep, "bitwise zero difference").passed
        assert rep.w0_l2 == 0.0

    def test_small_delta_bound_holds(self):
        rep = twin_experiment(_cfg(), 1e-3)
        assert rep.passed
        assert rep.first_violation is None
        assert rep.constant == pytest.approx(2.0)  # alpha = 1, beta = 4
        assert 0.0 < check_named(rep, "separation bound").value <= 1.0
        assert rep.ratio_max <= 1.05
        assert rep.times.size == 11

    def test_streamed_pairs_match_two_run_lists(self):
        # 101 samples: several whole blocks and a partial last one
        cfg = _cfg(**{"time.output_every": 2e-3})
        rep = twin_experiment(cfg, 1e-3)
        u0 = build_initial(cfg).u
        pert = random_solenoidal(u0.grid, seed=cfg.ic_seed + 1, amplitude=1.0)
        base, twin = (
            run(u, cfg.phys(), cfg.stepper(), cfg.t_end, output_every=cfg.output_every)
            for u in (u0, u0 + pert * 1e-3)
        )
        times = np.array([s.t for s in base])
        # the driver's ball sums of the vectors' difference, and the full-cube norms of the fields'
        ball, volume = u0.grid.ball, u0.grid.volume
        sums = np.array([ball.norms_sq(b.vector - tw.vector, (None, ball.k_sq))
                         for b, tw in zip(base, twin)])
        w_l2 = np.array([math.sqrt(volume * w_sq) for w_sq in sums[:, 0]])
        w_grad = volume * sums[:, 1]
        full_l2 = np.array([l2_norm(b.u - tw.u) for b, tw in zip(base, twin)])
        full_grad = np.array([grad_norm_sq(b.u - tw.u) for b, tw in zip(base, twin)])
        np.testing.assert_allclose(w_l2, full_l2, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(w_grad, full_grad, rtol=1e-15, atol=0.0)
        cum_grad = np.concatenate(
            [[0.0], np.cumsum(0.5 * np.diff(times) * (w_grad[:-1] + w_grad[1:]))]
        )
        lhs = w_l2**2 + 2.0 * cum_grad
        rhs = 1.1 * w_l2[0] ** 2 * np.exp(2.0 * rep.constant * (times - times[0]))
        assert times.size == 101
        for got, want in ((rep.times, times), (rep.lhs, lhs), (rep.rhs, rhs)):
            assert got.tobytes() == want.tobytes()

    def test_rejects_bad_inputs(self):
        for delta in (-1.0, math.inf, math.nan):
            with pytest.raises(ConfigError, match="nonnegative and finite"):
                twin_experiment(_cfg(), delta)
        with pytest.raises(ConfigError, match="uniqueness requires beta > 3"):
            twin_experiment(_cfg(**{"phys.beta": 2.5}), 1e-3)

    def test_an_underflowing_delta_is_refused_before_integrating(self, monkeypatch):
        # u0 + 1e-320 p rounds back to u0: |w(0)| = 0 would make every margin 0/0
        def integrating(*args, **kwargs):
            raise AssertionError("trajectory called")

        monkeypatch.setattr(experiments, "trajectory", integrating)
        cfg = _cfg(**{"ic.kind": "random-solenoidal", "ic.seed": 3})
        with pytest.raises(ConfigError, match="delta = 1e-320"):
            twin_experiment(cfg, 1e-320)


    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_a_separation_that_is_not_finite_fails(self, monkeypatch, value):
        # lhs > rhs is False at a NaN, so no sample was a violation and the bound passed
        runs = []

        def corrupting(*args, **kwargs):
            runs.append(trajectory(*args, **kwargs))
            twin = len(runs) == 2
            return (SimpleNamespace(t=s.t, vector=np.full_like(s.vector, value))
                    if twin and s.step_count == 50 else s for s in runs[-1])

        monkeypatch.setattr(experiments, "trajectory", corrupting)
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 in the gradient weights
            rep = twin_experiment(_cfg(), 1e-3)
        assert not rep.passed
        assert any(line.startswith("FAIL separation bound: ") for line in rep.lines()), rep.lines()


class TestContinuity:
    def test_ladder_pass(self):
        cfg = _cfg(**{"time.dt": 2.5e-3})
        rep = continuity_experiment(cfg, [0.05, 0.025, 0.0125], t0=0.1)
        assert rep.passed
        for prefix in ("forward shift bound", "backward shift bound", "forward modulus", "shift bound"):
            assert all(c.passed for c in checks_named(rep, prefix))
        assert rep.epsilons == [0.05, 0.025, 0.0125]
        assert all(m > 0.0 for m in rep.moduli)

    @pytest.mark.parametrize(
        "eps,t0,fragment",
        [
            ([0.2], 0.1, r"\(0, t0\)"),  # eps >= t0
            ([0.1], 0.1, r"\(0, t0\)"),  # eps == t0
            ([0.013], 0.1, "multiple of time.dt"),  # off the dt grid
            ([0.05, 0.05], 0.1, "duplicate"),
            ([], 0.1, "at least one"),
            ([0.05], 0.1001, "multiple of time.dt"),  # t0 off the grid
        ],
    )
    def test_rejects_bad_ladders(self, eps, t0, fragment):
        cfg = _cfg(**{"time.dt": 2.5e-3})
        with pytest.raises(ConfigError, match=fragment):
            continuity_experiment(cfg, eps, t0=t0)

    @pytest.mark.parametrize("t0", [math.nan, -math.inf])
    def test_a_t0_that_is_not_finite_is_refused_by_name(self, t0):
        cfg = _cfg(**{"time.dt": 2.5e-3})
        with pytest.raises(ConfigError, match=r"^t0 must be finite, got -?(nan|inf)$"):
            continuity_experiment(cfg, [0.05], t0=t0)


    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_a_shift_that_is_not_finite_fails_its_checks(self, monkeypatch, value):
        # u(t0 + eps) at eps = 0.025 (step 40 + 10) reads NaN or inf
        def corrupting(*args, **kwargs):
            return (SimpleNamespace(t=s.t, step_count=50, grid=s.grid,
                                    vector=np.full_like(s.vector, value))
                    if s.step_count == 50 else s for s in trajectory(*args, **kwargs))

        monkeypatch.setattr(experiments, "trajectory", corrupting)
        cfg = _cfg(**{"time.dt": 2.5e-3})
        rep = continuity_experiment(cfg, [0.05, 0.025, 0.0125], t0=0.1)
        assert not rep.passed and not check_named(rep, "forward shift bound at eps = 0.025").passed
        lines = rep.lines()
        assert any(line.startswith("FAIL forward shift bound at eps = 0.025: ") for line in lines)
        assert any(line.startswith("FAIL forward modulus at eps = 0.0125 below eps = 0.025: ")
                   for line in lines), lines


class TestDecay:
    def test_validation_gates(self):
        with pytest.raises(ConfigError, match="beta >= 10/3"):
            decay_experiment(_cfg(**{"phys.beta": 3.0}))
        with pytest.raises(ConfigError, match="box_length"):
            decay_experiment(_cfg(**{"phys.beta": 4.0}))

    def test_a_zero_initial_energy_is_refused_before_integrating(self, monkeypatch):
        # at amplitude 1e-300 the squares underflow: ||u0||^2 = 0 makes every
        # threshold 0, and each check, the 5% crossing at t = 0 included, passed
        def integrating(*args, **kwargs):
            raise AssertionError("trajectory called")

        monkeypatch.setattr(experiments, "trajectory", integrating)
        cfg = _cfg(**{"grid.box_length": 8.0 * np.pi, "time.dt": 0.01, "time.output_every": 0.01,
                      "ic.amplitude": 1e-300})
        with pytest.raises(ConfigError, match=r"initial energy \|\|u0\|\|\^2 is 0"):
            decay_experiment(cfg)

    def test_short_run_structure(self, tmp_path):
        cfg = _cfg(
            **{
                "grid.box_length": 8.0 * np.pi,
                "phys.beta": 10.0 / 3.0,
                "time.dt": 0.05,
                "time.t_end": 2.0,
                "time.output_every": 0.25,
                "ic.kind": "random-solenoidal",
            }
        )
        rep = decay_experiment(cfg, out_dir=str(tmp_path / "d"))
        names = [check.name for check in rep.certificate.checks]
        assert names == [
            "energy monotone nonincreasing",
            "low-regularity norm nonincreasing over tail",
            "both frequency bands small by the end",
            "space-time accumulators plateau",
            "5% energy threshold crossed",
            "space-time accumulators never decrease",
            "space-time tail increments do not rise",
            "space-time last increment at most half the peak",
        ]
        # the horizon is deliberately too short to decay to 5%: the
        # monotonicity checks hold, the threshold check honestly fails
        by_name = {check.name: check.passed for check in rep.certificate.checks}
        assert by_name["energy monotone nonincreasing"]
        assert not by_name["5% energy threshold crossed"]
        assert not rep.passed
        assert (tmp_path / "d" / "series.csv").exists()


    @pytest.mark.parametrize("series, field, index, value, check", [
        ("energy", "l2_sq", 4, math.nan, "energy monotone nonincreasing"),
        # l2[0] = inf makes the slack inf too, so no rise exceeds it
        ("energy", "l2_sq", 0, math.inf, "energy monotone nonincreasing"),
        ("decay", "hminus2", 5, math.nan, "low-regularity norm nonincreasing over tail"),
        # the tail is records 4..8; an inf at its start only falls
        ("decay", "hminus2", 4, math.inf, "low-regularity norm nonincreasing over tail"),
        # a NaN final total read as 0, so the increment fraction was 0
        ("decay", "lbeta_E1", 8, math.nan, "space-time accumulators plateau"),
        # an inf at the final decile's start makes the increment -inf
        ("decay", "lbeta_E1", 7, math.inf, "space-time accumulators plateau"),
        # a NaN or inf total makes the peak of the increments so, and every taper bound with it
        ("decay", "lbeta_E2", 8, math.nan, "space-time last increment at most half the peak"),
        ("decay", "lbeta_E2", 3, math.inf, "space-time tail increments do not rise"),
    ])
    def test_a_check_fails_on_a_value_that_is_not_finite(self, monkeypatch, series, field, index,
                                                          value, check):
        # a comparison with NaN is False, and an inf can hide behind a slack or a
        # difference: each check fails outright on a value it reads that is not finite
        def corrupting(*args, hooks, **kwargs):
            yield from trajectory(*args, hooks=hooks, **kwargs)
            records = getattr(hooks[0], series)
            records[index] = replace(records[index], **{field: value})

        monkeypatch.setattr(experiments, "trajectory", corrupting)
        cfg = _cfg(**{"grid.box_length": 8.0 * np.pi, "phys.beta": 10.0 / 3.0, "time.dt": 0.05,
                      "time.t_end": 2.0, "time.output_every": 0.25, "ic.kind": "random-solenoidal"})
        with np.errstate(invalid="ignore", over="ignore"):  # the other checks read the value too
            rep = decay_experiment(cfg)
        assert len(rep.recorder.energy) == 9
        assert any(line.startswith(f"FAIL {check}: ") for line in rep.lines()), rep.lines()
        assert not rep.passed

    def test_accumulators_that_stay_zero_fail_the_plateau_and_the_taper(self, tmp_path, capsys):
        # at amplitude 1e-100 the energy is 1e-200, but every |u|^beta rate
        # underflows: the accumulators stay 0, and a zero total or peak
        # measured no plateau and no taper, so each of the four checks fails
        config = tmp_path / "faint.cfg"
        config.write_text("grid.n_modes = 8\ngrid.box_length = 25.132741228718345\nphys.alpha = 1.0\n"
                          "phys.beta = 3.3333333333333335\ntime.dt = 0.01\ntime.t_end = 0.2\n"
                          "ic.kind = random-solenoidal\nic.amplitude = 1e-100\n", encoding="utf-8")
        assert main(["decay", str(config), "--out", str(tmp_path / "d")]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "space-time |u|^beta mass: low-amplitude part 0.000000e+00, " \
               "high-amplitude part 0.000000e+00" in lines
        assert "FAIL space-time accumulators plateau: nan against bound 0.01" in lines
        for name in TAPER:
            assert f"FAIL {name}: 0 against bound nan" in lines, lines


#: the decay driver's taper checks, by the name its report prints
TAPER = ("space-time accumulators never decrease", "space-time tail increments do not rise",
         "space-time last increment at most half the peak")

#: the bound on the last increment when the peak is 1
HALF = 0.5 + 1e-9 * (1.0 + 1e-300)

SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1.7e308, math.nan, math.inf, -math.inf])


@st.composite
def totals_sequences(draw) -> np.ndarray:
    """Totals E1 + E2 of 1 to 12 snapshots: any floats, flat runs, steps that may fall and hold a
    NaN or inf, or a last increment at exactly 0.5 peak + slack or one ulp to either side."""
    kind = draw(st.sampled_from(["any", "flat", "steps", "boundary"]))
    if kind == "any":
        return np.array(draw(st.lists(st.floats(-1e3, 1e3) | SPECIAL, min_size=1, max_size=12)))
    if kind == "flat":
        return np.full(draw(st.integers(1, 12)), draw(st.floats(0.0, 1e3) | SPECIAL))
    if kind == "steps":
        steps = draw(st.lists(st.floats(-1.0, 10.0) | st.just(0.0), max_size=11))
        totals = np.cumsum([draw(st.floats(0.0, 10.0)), *steps])
        if draw(st.booleans()):
            totals[draw(st.integers(0, totals.size - 1))] = draw(SPECIAL)
        return totals
    # totals that end at exactly 0, so that the next total is the last increment, bit for bit
    steps = draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=10))
    totals = np.cumsum([0.0, *steps])
    totals -= totals[-1]
    peak = float(np.diff(totals).max(initial=0.0))
    bound = 0.5 * peak + 1e-9 * (peak + 1e-300)
    return np.append(totals, draw(st.sampled_from([np.nextafter(bound, -np.inf), bound,
                                                   np.nextafter(bound, np.inf)])))


class TestTaper:
    """The space-time accumulators' taper: three named checks of the decay driver."""

    @settings(max_examples=800, deadline=None, derandomize=True, database=None)
    @given(totals=totals_sequences())
    def test_the_checks_pass_exactly_when_the_reference_taper_does(self, totals):
        # where the totals never grow (a peak of 0) the reference passes a flat
        # run on bounds of 0 and 1e-309, but no taper was measured: all three fail
        with np.errstate(invalid="ignore", over="ignore"):
            checks = experiments._taper_checks(totals)
            try:
                want = reference_taper(totals).passed
            except ValueError:
                want = False
            flat = totals.size > 1 and float(np.diff(totals).max(initial=0.0)) == 0.0
        assert [c.name for c in checks] == list(TAPER)
        if flat:
            assert not any(c.passed for c in checks)
        else:
            assert all(c.passed for c in checks) == want

    @pytest.mark.parametrize("totals, passed", [
        ([], [False] * 3),
        ([2.0], [False] * 3),
        ([0.0] * 5, [False] * 3),
        ([0.0, 0.0, -1e-320], [False] * 3),
        # increments 1, then exactly 0.5 + slack, pass; one ulp more fails the last check alone
        ([-1.0, 0.0, HALF], [True] * 3),
        ([-1.0, 0.0, np.nextafter(HALF, np.inf)], [True, True, False]),
    ], ids=["none", "one", "zero", "never-grew", "at-bound", "ulp-over"])
    def test_hand_picked_totals(self, totals, passed):
        assert [c.passed for c in experiments._taper_checks(np.array(totals))] == passed

    @pytest.mark.parametrize("increments, check", [
        ([8.0, 4.0, 2.0, 1.0, -0.5, 0.4, 0.2, 0.1], TAPER[0]),
        ([8.0, 4.0, 2.0, 1.0, 0.5, 0.25, 0.1, 0.2], TAPER[1]),
        ([1.0] * 8, TAPER[2]),
    ], ids=["decrease", "rise", "last"])
    def test_a_taper_past_its_bound_prints_the_check_failing(self, monkeypatch, increments, check):
        # the run's totals replaced by ones whose increments break one condition only
        totals = np.cumsum([0.0, *increments])

        def retotalled(*args, hooks, **kwargs):
            yield from trajectory(*args, hooks=hooks, **kwargs)
            decay = hooks[0].decay
            decay[:] = [replace(d, lbeta_E1=float(t), lbeta_E2=0.0)
                        for d, t in zip(decay, totals, strict=True)]

        monkeypatch.setattr(experiments, "trajectory", retotalled)
        cfg = _cfg(**{"grid.box_length": 8.0 * np.pi, "phys.beta": 10.0 / 3.0, "time.dt": 0.05,
                      "time.t_end": 2.0, "time.output_every": 0.25, "ic.kind": "random-solenoidal"})
        rep = decay_experiment(cfg)
        lines = rep.lines()
        for name in TAPER:
            assert sum(line.startswith(f"{'FAIL' if name == check else 'pass'} {name}: ")
                       for line in lines) == 1, lines
        failing = [name for name in TAPER if any(line.startswith(f"FAIL {name}: ") for line in lines)]
        assert failing == [check], lines
        assert lines[-1] == "verdict: FAIL"


class TestMemory:
    """What the drivers and the stepper hold.

    The twin, continuity and decay drivers keep only what they certify; a
    snapshot that run_experiment keeps holds its ball vector, not a cube;
    the kernel works in buffers of its own, allocated at its first call.
    """

    @staticmethod
    def _cfg(steps: int, **over):
        return _cfg(
            **{
                "grid.n_modes": 16,
                "grid.box_length": 8.0 * np.pi,
                "phys.beta": 10.0 / 3.0,
                "time.dt": 0.02,
                "time.t_end": steps * 0.02,
                "time.output_every": 0.02,
                "ic.kind": "random-solenoidal",
                **over,
            }
        )

    @staticmethod
    def _peak(driver) -> int:
        tracemalloc.start()
        try:
            driver()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("name", ["decay", "twin", "continuity"])
    def test_peak_does_not_grow_with_snapshot_count(self, name):
        def driver(steps: int) -> None:
            # steps + 1 snapshots; the continuity ladder's t0 + eps is the last
            cfg, t0 = self._cfg(steps), steps // 2 + 1
            if name == "decay":
                decay_experiment(cfg)
            elif name == "twin":
                twin_experiment(cfg, 1e-3)
            else:
                continuity_experiment(cfg, [(steps - t0) * 0.02], t0=t0 * 0.02)

        driver(24)  # warm the per-grid caches outside the measurement
        peak_small, peak_large = self._peak(lambda: driver(24)), self._peak(lambda: driver(199))
        assert peak_large <= 1.5 * peak_small, (peak_small, peak_large)

    def test_retained_snapshots_hold_ball_vectors(self):
        # RunResult.snapshots keeps every snapshot; each holds its ball vector
        # (about a thirteenth of a cube at N = 16) while its field goes unread
        cube = 3 * 16**3 * 16
        run_experiment(self._cfg(24), None)  # warm the per-grid caches outside the measurement
        peak_small = self._peak(lambda: run_experiment(self._cfg(24), None))
        peak_large = self._peak(lambda: run_experiment(self._cfg(199), None))
        assert (peak_large - peak_small) / (200 - 25) < cube / 4, (peak_small, peak_large)

    @pytest.mark.parametrize("n", [16, 32])
    def test_a_warm_kernel_call_allocates_almost_nothing(self, n):
        # past its first call the kernel writes its terms into its own buffers
        # and allocates only the divergence's ball-sized temporaries
        grid = make_grid(n, TWO_PI)
        kernel = dynamics._Kernel(grid, PhysParams(nu=1.0, alpha=1.0, beta=4.0))
        v = grid.ball.gather(random_solenoidal(grid, seed=n).coeffs)
        kernel(v)
        assert self._peak(lambda: kernel(v)) < 6 * v.nbytes

    @pytest.mark.parametrize("n", [32, 64])
    def test_a_warm_step_allocates_at_most_nine_ball_vectors(self, n):
        # each stage is folded into the new state and the Duhamel parts as it
        # is evaluated, and the kernel's terms, the force and the stage states
        # live in buffers: a warm step, the new state included, peaks at 8.4
        # ball vectors at N = 32 and 7.1 at N = 64, where keeping every
        # stage's terms to the end of the step took 18.5 and 17.3
        grid = make_grid(n, TWO_PI)
        stepper = dynamics._Stepper(grid, PhysParams(nu=1.0, alpha=1.0, beta=4.0), StepperConfig(dt=1e-4))
        v = grid.ball.gather(random_solenoidal(grid, seed=n).coeffs)
        duhamel = dynamics._Duhamel(grid, v)
        for i in range(2):  # warm: two steps first; the kernel's buffers are built with the stepper
            v = stepper.advance(v, i * 1e-4, stepper.kernel(v), duhamel)[0]
        first = stepper.kernel(v)
        vectors = self._peak(lambda: stepper.advance(v, 2e-4, first, duhamel)) / v.nbytes
        assert vectors <= 9.0, vectors

    def test_the_kernels_two_line_arrays_share_one_buffer(self):
        # the inverse's x-line array and the forward's y-line array are never live together
        grid = make_grid(16, TWO_PI)
        kernel = dynamics._Kernel(grid, PhysParams(nu=1.0, alpha=1.0, beta=4.0))
        kernel(grid.ball.gather(random_solenoidal(grid, seed=16).coeffs))
        assert np.shares_memory(kernel.x_lines, kernel.y_lines)

    def test_a_run_builds_no_full_cube_table_of_its_grid(self, tmp_path, monkeypatch):
        # the ball comes from 1-D mode numbers, and validate(), the stepper,
        # the hooks, the drivers and the outputs read only the ball's tables:
        # a fresh run, a checkpoint-restarted run (its grid is the one the
        # checkpoint reader validated), a twin pair and the manufactured-
        # solution study of the refinement driver build none on their grids
        result = run_experiment(self._cfg(4), str(tmp_path))
        grids = [result.snapshots[-1].grid]
        restart = self._cfg(8, **{"ic.kind": "checkpoint", "ic.path": str(tmp_path / "final.ckpt")})
        grids.append(run_experiment(restart, None).snapshots[-1].grid)

        def recording(integrate):
            def call(initial, *args, **kwargs):
                grids.append(initial.grid)
                return integrate(initial, *args, **kwargs)
            return call

        monkeypatch.setattr(experiments, "trajectory", recording(trajectory))
        monkeypatch.setattr(experiments, "run", recording(run))
        twin_experiment(self._cfg(4), 1e-3)
        experiments._temporal_order_study()
        assert len(grids) == 2 + 2 + 3
        for grid in grids:
            assert vars(grid).keys() == {"n_modes", "box_length", "cutoff_radius", "mode_numbers", "ball"}

    def test_the_twin_and_continuity_drivers_expand_no_snapshot(self, monkeypatch):
        # they measure the snapshots' ball vectors: no snapshot builds its full field
        kept = []

        def recording(*args, **kwargs):
            for snap in trajectory(*args, **kwargs):
                kept.append(snap)
                yield snap

        monkeypatch.setattr(experiments, "trajectory", recording)
        twin_experiment(self._cfg(4), 1e-3)
        continuity_experiment(self._cfg(4), [0.02], t0=0.04)
        assert len(kept) == 2 * 5 + 4  # the twin pair to t = 0.08, the ladder to t0 + eps = 0.06
        assert all("u" not in vars(snap) for snap in kept)

    def test_a_first_kernel_call_holds_no_cube_of_product_blocks(self):
        # the products go, three blocks at a time, slab by slab into the
        # forward's z pass: building a kernel at N = 32 and its first call,
        # buffers included, peak at 2.24 cubes, where nine whole blocks and a
        # weight cube took 3.76
        n = 32
        grid = make_grid(n, TWO_PI)
        params = PhysParams(nu=1.0, alpha=1.0, beta=4.0)
        v = grid.ball.gather(random_solenoidal(grid, seed=n).coeffs)
        dynamics._Kernel(grid, params)(v)  # warm the per-grid caches outside the measurement
        cubes = self._peak(lambda: dynamics._Kernel(grid, params)(v)) / (3 * n**3 * 16)
        assert cubes <= 3.0, cubes

    def test_a_first_kernel_call_at_n64_streams_its_transforms(self, monkeypatch):
        # the transforms stream slab by slab: building a kernel at N = 64 on
        # two workers and its first call, buffers included, peak at 1.45
        # cubes (1.32 on one), where the whole (3, N, N, N/2 + 1) half
        # spectrum the kernel held took 1.81; each further worker adds its
        # two slabs, 0.13 cubes
        monkeypatch.setenv("NSD_THREADS", "2")
        n = 64
        grid = make_grid(n, TWO_PI)
        params = PhysParams(nu=1.0, alpha=1.0, beta=4.0)
        v = grid.ball.gather(random_solenoidal(grid, seed=n).coeffs)
        dynamics._Kernel(grid, params)(v)  # warm the per-grid caches outside the measurement
        cubes = self._peak(lambda: dynamics._Kernel(grid, params)(v)) / (3 * n**3 * 16)
        assert cubes <= 1.5, cubes

    def test_the_kernel_holds_no_half_spectrum_cube(self, monkeypatch):
        # each worker's slab of half spectrum is 8 of the 64 y-planes, and its
        # product slab 8 of the 64 y-planes of three blocks; no other array it
        # holds or views, but the grid values u, has a half-spectrum cube's size
        monkeypatch.setenv("NSD_THREADS", "3")
        n = 64
        grid = make_grid(n, TWO_PI)
        kernel = dynamics._Kernel(grid, PhysParams(nu=1.0, alpha=1.0, beta=4.0))
        kernel(grid.ball.gather(random_solenoidal(grid, seed=n).coeffs))
        cube = 3 * n * n * (n // 2 + 1)
        assert len(kernel.slabs) == len(kernel.planes) == len(kernel.products) == 3
        for slab, products in zip(kernel.slabs, kernel.products):
            assert slab.size == 3 * n * grid.ball.slab * (n // 2 + 1) == cube // 8
            assert products.size == 3 * grid.ball.slab * n * n == 3 * n**3 // 8
        held = [(name, a) for name, a in vars(kernel).items() if isinstance(a, np.ndarray)]
        held += [(f"{name}[{w}]", a) for name in ("slabs", "planes", "products")
                 for w, a in enumerate(getattr(kernel, name))]
        assert len(held) >= 15
        sizes = {name: max(a.size, 0 if a.base is None else a.base.size) for name, a in held}
        assert [name for name, size in sizes.items() if size >= cube] == ["u"], sizes

    def test_validate_takes_one_component_at_a_time(self):
        # magnitudes, Hermitian gap and powers one component at a time: 0.75
        # cubes at N = 32, where whole-array temporaries took 1.50
        n = 32
        u = random_solenoidal(make_grid(n, TWO_PI), seed=n)
        u.validate()  # warm the per-grid caches outside the measurement
        cubes = self._peak(u.validate) / (3 * n**3 * 16)
        assert cubes <= 1.0, cubes

    @pytest.mark.parametrize("beta", [4.0, 10.0 / 3.0])
    def test_pointwise_norms_form_the_speed_in_place(self, beta):
        # |u| in place, one work array and one mask: 0.35 cubes, where the
        # expressions written whole took 0.52
        n = 32
        grid = make_grid(n, TWO_PI)
        u = grid.ball.to_physical(grid.ball.gather(random_solenoidal(grid, seed=n).coeffs))
        cubes = self._peak(lambda: dynamics._pointwise_norms(u, grid.cell_volume, beta)) / (3 * n**3 * 16)
        assert cubes <= 0.4, cubes

    @pytest.mark.parametrize("n", [16, 32])
    def test_trajectory_start_up_holds_no_cube_temporaries(self, n):
        # a run of no steps allocates nothing cube-sized: the initial field
        # is read through its ball entries, the snapshot holds its ball
        # vector, and with no step to take no kernel is built (1.02 cubes in
        # all at N = 16, 0.75 at 32; 1.98 and 1.92 when the kernel's inverse
        # gave the pointwise sums, 2.95 and 2.89 with its buffers built
        # whole)
        u0 = random_solenoidal(make_grid(n, TWO_PI), seed=n)
        params, cfg = PhysParams(nu=1.0, alpha=1.0, beta=4.0), StepperConfig(dt=1e-3)
        next(trajectory(u0, params, cfg, 0.0))  # warm the per-grid caches outside the measurement
        cubes = self._peak(lambda: next(trajectory(u0, params, cfg, 0.0))) / (3 * n**3 * 16)
        assert cubes <= 2.5, cubes

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="older CPython keeps a call's arguments on the caller's stack")
    def test_the_initial_field_is_released_after_start_up(self):
        # only the start-up reads the initial field: trajectory and run drop
        # their references to it before the first snapshot, so reference
        # counting alone frees it
        params, cfg = PhysParams(nu=1.0, alpha=1.0, beta=4.0), StepperConfig(dt=1e-3)
        refs, dead = [], []

        def first_snapshot(snap):
            if not dead:
                dead.append(refs[-1]() is None)

        gc.disable()
        try:
            fields = [random_solenoidal(make_grid(8, TWO_PI), seed=1)]
            refs.append(weakref.ref(fields[0]))
            steps = trajectory(fields.pop(), params, cfg, 2e-3)
            next(steps)
            assert refs[-1]() is None

            fields.append(random_solenoidal(make_grid(8, TWO_PI), seed=2))
            refs.append(weakref.ref(fields[0]))
            run(fields.pop(), params, cfg, 2e-3, hooks=(first_snapshot,))
            assert dead.pop()
        finally:
            gc.enable()

    def test_no_driver_expands_a_field_before_its_first_snapshot(self, monkeypatch):
        # every driver starts, perturbs and injects ball vectors: until a
        # run's first snapshot, nothing has called _Ball.expand, the one way
        # to a full (3, N, N, N) field of a ball vector
        expanded, seen = [], []
        expand = spectral._Ball.expand

        def traced_expand(ball, v):
            expanded.append(v.shape)
            return expand(ball, v)

        def traced_trajectory(*args, **kwargs):
            steps = trajectory(*args, **kwargs)
            first = next(steps)
            seen.append(list(expanded))
            yield first
            yield from steps

        monkeypatch.setattr(spectral._Ball, "expand", traced_expand)
        monkeypatch.setattr(experiments, "trajectory", traced_trajectory)
        monkeypatch.setattr(experiments, "run", lambda *a, **k: list(traced_trajectory(*a, **k)))
        monkeypatch.setattr(experiments, "_temporal_order_study",
                            lambda: ([2e-2, 1e-2, 5e-3], [1e-6, 6e-8, 4e-9], [4.0, 4.0]))
        for kind in ("taylor-green", "random-solenoidal"):
            run_experiment(_cfg(**{"time.t_end": 4e-3, "ic.kind": kind}), None)
            decay_experiment(self._cfg(4, **{"ic.kind": kind}))
            continuity_experiment(self._cfg(4, **{"ic.kind": kind}), [0.02], t0=0.04)
            twin_experiment(_cfg(**{"time.t_end": 8e-3, "ic.kind": kind}), 1e-3)
            refinement_experiment(_cfg(**{"time.t_end": 4e-3, "ic.kind": kind}), [8, 16, 32])
        assert len(seen) == 2 * 8 and seen == [[]] * 16, seen
        assert not expanded  # and none of these drivers expands a field at all

class TestRefinement:
    def test_level_validation(self):
        with pytest.raises(ConfigError, match="at least 3"):
            refinement_experiment(_cfg(), [8, 16])
        with pytest.raises(ConfigError, match="must double"):
            refinement_experiment(_cfg(), [8, 16, 24])
        with pytest.raises(ConfigError, match="analytic"):
            refinement_experiment(
                _cfg(**{"ic.kind": "checkpoint", "ic.path": "x.ckpt"}), [8, 16, 32]
            )

    def test_band_limited_heat_flow_identical_across_levels(self):
        # alpha = 0 and a single shear mode: the solution never leaves the
        # coarsest band, so refinement changes nothing
        params = PhysParams(nu=1.0, alpha=0.0, beta=4.0)
        cfg = StepperConfig(dt=5e-3)
        u0 = shear_mode(make_grid(8, TWO_PI))
        finals = []
        for n in (8, 16, 32):
            grid = make_grid(n, TWO_PI)
            start = u0 if n == 8 else inject_field(u0, grid)
            finals.append(
                run(start, params, cfg, 0.2, output_every=0.2)[-1].u
            )
        for a, b in zip(finals, finals[1:]):
            diff = l2_norm(inject_field(a, b.grid) - b)
            assert diff <= 1e-10 * l2_norm(b)

    def test_driver_small_levels(self):
        cfg = _cfg(
            **{
                "phys.nu": 0.02,
                "phys.alpha": 0.5,
                "time.dt": 5e-3,
                "time.t_end": 0.25,
            }
        )
        rep = refinement_experiment(cfg, [8, 16, 32])
        assert rep.passed
        assert len(rep.diffs) == 2
        assert all(c.value >= 4.0 for c in checks_named(rep, "shrink factor"))
        assert min(c.value for c in checks_named(rep, "temporal order")) >= 3.7
        assert "refinement" in rep.lines()[0]


    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_a_temporal_order_that_is_not_finite_fails(self, monkeypatch, value):
        # min([4.0, nan]) is 4.0: the order line read "ok" and the verdict pass
        ladder, errors = [2e-2, 1e-2, 5e-3], [1e-6, 6e-8, 4e-9]
        monkeypatch.setattr(experiments, "_temporal_order_study",
                            lambda: (ladder, errors, [4.0, value]))
        cfg = _cfg(**{"phys.nu": 0.02, "phys.alpha": 0.5, "time.dt": 5e-3, "time.t_end": 0.02})
        rep = refinement_experiment(cfg, [8, 16, 32])
        assert all(c.passed for c in checks_named(rep, "shrink factor")) and not rep.passed
        lines = rep.lines()
        assert "pass temporal order from dt = 0.02 to 0.01: 4 against bound 3.7" in lines
        assert f"FAIL temporal order from dt = 0.01 to 0.005: {value} against bound 3.7" in lines
        assert lines[-1] == "verdict: FAIL"

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_an_inter_level_difference_that_is_not_finite_fails(self, monkeypatch, value):
        # |u_16(T) - u_32(T)| reads NaN or inf: the factor over it is inf or 0
        injected = []
        inject = experiments._inject

        def corrupting(v, index, fine):
            out = inject(v, index, fine)
            injected.append(fine.n_modes)
            if len(injected) == 4:  # after the two starts, the second difference's injection
                out[0, 1] = value
            return out

        monkeypatch.setattr(experiments, "_inject", corrupting)
        monkeypatch.setattr(experiments, "_temporal_order_study",
                            lambda: ([2e-2, 1e-2, 5e-3], [1e-6, 6e-8, 4e-9], [4.0, 4.0]))
        cfg = _cfg(**{"phys.nu": 0.02, "phys.alpha": 0.5, "time.dt": 5e-3, "time.t_end": 0.02})
        rep = refinement_experiment(cfg, [8, 16, 32])
        assert all(c.passed for c in checks_named(rep, "temporal order")) and not rep.passed
        name = "shrink factor |u_8(T) - u_16(T)| / |u_16(T) - u_32(T)|"
        assert any(line.startswith(f"FAIL {name}: ") for line in rep.lines()), rep.lines()
        assert injected == [16, 32, 16, 32]


class TestThreadCap:
    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("NSD_THREADS", "many")
        with pytest.raises(ConfigError, match="NSD_THREADS"):
            twin_experiment(_cfg(), 0.0)
        monkeypatch.setenv("NSD_THREADS", "0")
        with pytest.raises(ConfigError, match="positive"):
            twin_experiment(_cfg(), 0.0)

    def test_a_run_refuses_a_bad_cap(self, monkeypatch, tmp_path):
        # the kernel reads the cap when it is built, so a plain run refuses it
        # too, one slab or many, with exit 2
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(canonical_text(_cfg(**{"time.t_end": 0.004})))
        for raw, match in (("many", "NSD_THREADS must be an integer"), ("0", "must be positive")):
            monkeypatch.setenv("NSD_THREADS", raw)
            with pytest.raises(ConfigError, match=match):
                run_experiment(_cfg(**{"time.t_end": 0.004}))
            assert main(["run", str(cfg_file), "--out", str(tmp_path / "out")]) == 2

    def test_the_two_thread_levels_never_nest(self, monkeypatch):
        # the twin driver runs its two trajectories on pool threads; a kernel
        # there splits no slabs, so no more than the cap's threads, plus the
        # caller's, are ever alive while a kernel forms its products
        monkeypatch.setenv("NSD_THREADS", "2")
        monkeypatch.setattr(spectral, "_SLAB", 3 * 16**2)  # six slabs at N = 16
        seen = []
        products = dynamics._Kernel._products

        def counting(self, *args):
            seen.append(threading.active_count())
            return products(self, *args)

        monkeypatch.setattr(dynamics._Kernel, "_products", counting)
        cfg = _cfg(**{"grid.n_modes": 16, "time.t_end": 0.02, "time.output_every": 0.01})
        alone = threading.active_count()
        grid = cfg.grid()
        kernel = dynamics._Kernel(grid, cfg.phys())
        kernel(grid.ball.gather(taylor_green(grid).coeffs))
        assert kernel.workers == 2 and max(seen) == alone + 1  # the probe sees a kernel's worker
        seen.clear()
        twin_experiment(cfg, 1e-3)
        assert seen and max(seen) <= alone + 2, max(seen)

    def test_a_run_at_n64_gives_the_same_bytes_on_one_and_two_workers(self, monkeypatch, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(canonical_text(_cfg(**{
            "grid.n_modes": 64, "time.dt": 1e-3, "time.t_end": 2e-3, "time.output_every": 1e-3,
            "ic.kind": "random-solenoidal", "ic.seed": 7})))
        digests = []
        for threads in ("1", "2"):
            monkeypatch.setenv("NSD_THREADS", threads)
            out = tmp_path / threads
            assert main(["run", str(cfg_file), "--out", str(out)]) == 0
            digests.append([hashlib.sha256((out / name).read_bytes()).hexdigest()
                            for name in ("series.csv", "final.ckpt")])
        assert digests[0] == digests[1]

    def test_pool_jobs_run_in_the_callers_errstate(self, monkeypatch):
        # each job runs in a copy of the caller's context, as a kernel's slab
        # workers do; a fresh pool thread would run under NumPy's default errstate
        monkeypatch.setenv("NSD_THREADS", "2")
        with np.errstate(divide="raise"):
            with pytest.raises(FloatingPointError):
                spectral._parallel([lambda: None, lambda: np.ones(2) / np.zeros(2)])

    def test_serial_cap_matches_default(self, monkeypatch):
        cfg = _cfg(**{"time.t_end": 0.05})
        free = twin_experiment(cfg, 1e-3)
        monkeypatch.setenv("NSD_THREADS", "1")
        capped = twin_experiment(cfg, 1e-3)
        np.testing.assert_array_equal(free.lhs, capped.lhs)


#: a check line as the certificate prints it: a verdict word, the name, the value, the bound
CHECK_LINE = re.compile(r"^(pass|FAIL) (.+): (\S+) against bound (\S+)$")

#: a word that would state a verdict in a body line
CLAIM = re.compile(r"\b(pass|passed|ok|FAIL|True|False)\b|\[ok\]|\[FAIL\]")


class TestReportLayout:
    """Every subcommand prints its body, one line per check, and the verdict, through the same path."""

    DRIVERS = {"run": "run_experiment", "twin": "twin_experiment",
               "continuity": "continuity_experiment", "decay": "decay_experiment",
               "refine": "refinement_experiment", "verify": "_verify_report"}

    @pytest.mark.parametrize("argv", [
        ["run"], ["twin", "--delta", "1e-3"], ["twin", "--delta", "0"],
        ["continuity", "--t0", "0.05", "--eps", "0.02,0.01"], ["decay"],
        ["refine", "--levels", "8,16,32"], ["verify", "--fast"],
    ], ids=["run", "twin", "twin-0", "continuity", "decay", "refine", "verify"])
    def test_each_check_prints_once_between_the_body_and_the_verdict(self, tmp_path, monkeypatch,
                                                                     capsys, argv):
        command, *flags = argv
        reports = []

        def keeping(driver):
            def wrapped(*args, **kwargs):
                reports.append(driver(*args, **kwargs))
                return reports[-1]
            return wrapped

        name = self.DRIVERS[command]
        monkeypatch.setattr(cli, name, keeping(getattr(cli, name)))
        monkeypatch.setattr(experiments, "_temporal_order_study",
                            lambda: ([2e-2, 1e-2, 5e-3], [1e-6, 6e-8, 4e-9], [4.06, 3.91]))
        config = tmp_path / "exp.cfg"
        # on the 8 pi box at nu = 20 the energy falls below 5% by t = 2.4, within 40 steps
        decay = {"grid.box_length": 8.0 * np.pi, "phys.nu": 20.0, "phys.beta": 10.0 / 3.0,
                 "time.dt": 0.05, "time.t_end": 4.0, "time.output_every": 0.1,
                 "ic.kind": "random-solenoidal"}
        config.write_text(canonical_text(_cfg(**(decay if command == "decay" else {"time.t_end": 0.1}))))
        out = tmp_path / "out"
        head = [command] if command == "verify" else [command, str(config), "--out", str(out)]
        assert main(head + flags) == 0
        printed = capsys.readouterr().out.splitlines()
        (report,) = reports
        checks = report.checks if command == "verify" else report.certificate.checks
        lines = "\n".join(report.lines()).splitlines()  # the run's config echo is one entry
        assert printed == lines + ([] if command == "verify" else [f"outputs in {out}"])
        if command == "verify":
            assert not out.exists()  # verify writes no file
        else:
            assert (out / "report.txt").read_text(encoding="utf-8").splitlines() == lines

        body, shown, verdict = lines[: -len(checks) - 1], lines[-len(checks) - 1 : -1], lines[-1]
        assert verdict == "verdict: pass"
        parsed = [CHECK_LINE.match(line) for line in shown]
        assert all(parsed), shown
        assert [(m[1], m[2], float(m[3]), float(m[4])) for m in parsed] == [
            ("pass", c.name, float(f"{c.value:.6g}"), float(f"{c.bound:.6g}")) for c in checks]
        assert len({c.name for c in checks}) == len(checks)  # so each name prints once
        assert not any(CHECK_LINE.match(line) or CLAIM.search(line) for line in body), body
        if command == "decay":
            assert [line for line in body if "5%" in line] == ["energy fell below 5% of initial at t = 2.4"]


class TestCli:
    @pytest.fixture
    def cfg_file(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(
            "grid.n_modes = 8\n"
            "grid.box_length = 6.283185307179586\n"
            "phys.nu = 1.0\n"
            "phys.alpha = 1.0\n"
            "phys.beta = 4.0\n"
            "time.dt = 2e-3\n"
            "time.t_end = 0.1\n"
            "time.output_every = 0.02\n"
            "ic.kind = taylor-green\n"
            f"output.directory = {tmp_path / 'out'}\n"
        )
        return p

    def test_run_writes_outputs(self, tmp_path, cfg_file, capsys):
        assert main(["run", str(cfg_file)]) == 0
        out_dir = tmp_path / "out" / "run"
        for name in ("series.csv", "final.ckpt", "report.txt"):
            assert (out_dir / name).exists()
        assert "verdict: pass" in capsys.readouterr().out

    def test_verify_fast(self, capsys):
        assert main(["verify", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "monotonicity" in out and "young" in out
        assert not [line for line in out.splitlines() if line.endswith("()")]  # a suite without a note

    def test_a_zero_product_law_ratio_prints_the_check_failing_on_it(self, capsys, monkeypatch):
        # the check reads the smallest ratio: a zero one is its value, not the largest ratio
        ratio, calls = inequalities._product_ratio, []

        def zero_once(*args):
            calls.append(None)
            return 0.0 if len(calls) == 3 else ratio(*args)

        monkeypatch.setattr(inequalities, "_product_ratio", zero_once)
        assert main(["verify", "--fast"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL product-law: 0 against bound 0" in lines
        assert lines[-1] == "verdict: FAIL"

    def test_twin_and_out_override(self, tmp_path, cfg_file, capsys):
        override = tmp_path / "elsewhere"
        assert main(["twin", str(cfg_file), "--delta", "0", "--out", str(override)]) == 0
        assert (override / "report.txt").exists()
        assert "bitwise zero" in capsys.readouterr().out

    def test_continuity(self, tmp_path, cfg_file, capsys):
        assert main(["continuity", str(cfg_file), "--t0", "0.05", "--eps", "0.02,0.01"]) == 0
        assert "modulus" in capsys.readouterr().out

    @pytest.mark.parametrize("t0", ["nan", "-inf"])
    def test_a_t0_that_is_not_finite_is_malformed_input(self, cfg_file, capsys, t0):
        # refused by name before anything is integrated, not as a failed float conversion
        assert main(["continuity", str(cfg_file), f"--t0={t0}", "--eps", "0.01"]) == 2
        assert capsys.readouterr().err == f"error: t0 must be finite, got {float(t0)!r}\n"

    def test_overflowing_cfl_rate_is_a_failed_run(self, tmp_path, cfg_file, capsys):
        # alpha |u|_inf^(beta-1) overflows a float at beta = 1000: a CFLError, not a traceback
        steep = tmp_path / "steep.cfg"
        steep.write_text(cfg_file.read_text().replace("phys.beta = 4.0", "phys.beta = 1000.0")
                         + "ic.amplitude = 1000.0\n")
        with np.errstate(over="ignore", invalid="ignore"):  # the kernel's |u|^(beta-1) is inf too
            assert main(["run", str(steep)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("run failed: dt = ") and "Traceback" not in err

    def test_a_failed_run_names_its_time(self, tmp_path, cfg_file, capsys):
        # N = 8, dt = 0.01 and a random start at amplitude 400 break the CFL
        # budget at the first step
        fast = tmp_path / "fast.cfg"
        fast.write_text(cfg_file.read_text().replace("time.dt = 2e-3", "time.dt = 0.01")
                        .replace("ic.kind = taylor-green", "ic.kind = random-solenoidal")
                        + "ic.amplitude = 400.0\n")
        assert main(["run", str(fast)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("run failed: dt = 0.01 exceeds the stability budget"), err
        assert err.rstrip().endswith(") at t = 0"), err

    def test_a_zero_inter_level_difference_fails_refine(self, tmp_path, cfg_file, capsys):
        # at amplitude 1e-300 every level ends in the same state: a shrink factor
        # over a zero difference measures nothing, though inf >= 4 would hold
        faint = tmp_path / "faint.cfg"
        faint.write_text(cfg_file.read_text() + "ic.amplitude = 1e-300\n")
        assert main(["refine", str(faint), "--levels", "8,16,32"]) == 1
        out = capsys.readouterr().out
        assert "FAIL shrink factor |u_8(T) - u_16(T)| / |u_16(T) - u_32(T)|: inf" in out
        assert out.splitlines()[-2] == "verdict: FAIL"

    def test_an_internal_error_exits_3_on_one_line(self, cfg_file, capsys, monkeypatch):
        # an exception no exit code names is a bug, not a violated bound (1)
        def broken(*args, **kwargs):
            raise KeyError("snapshots")

        monkeypatch.setattr(cli, "run_experiment", broken)
        assert main(["run", str(cfg_file)]) == 3
        assert capsys.readouterr().err == "internal error: KeyError: 'snapshots'\n"

    def test_error_exit_codes(self, tmp_path, cfg_file, capsys, monkeypatch):
        assert main(["run", str(tmp_path / "missing.cfg")]) == 2
        assert main(["twin", str(cfg_file)]) == 2  # missing --delta
        assert main(["continuity", str(cfg_file), "--t0", "0.05", "--eps", "0.013"]) == 2
        assert main(["refine", str(cfg_file), "--levels", "8,12,16"]) == 2
        bad = tmp_path / "bad.cfg"
        bad.write_text("grid.n_modes = 7\n")
        assert main(["run", str(bad)]) == 2
        endless = tmp_path / "endless.cfg"
        endless.write_text(cfg_file.read_text().replace("time.t_end = 0.1", "time.t_end = inf"))
        assert main(["run", str(endless)]) == 2
        vacuous = tmp_path / "vacuous.cfg"  # growth constant 2^20000 / 2: inf
        vacuous.write_text(cfg_file.read_text().replace("phys.beta = 4.0", "phys.beta = 3.0001"))
        capsys.readouterr()
        assert main(["twin", str(vacuous), "--delta", "1e-3"]) == 2
        assert "growth constant" in capsys.readouterr().err
        steep = tmp_path / "steep.cfg"  # C = 8.0e59: exp(2 C t) overflows past t = 0
        steep.write_text(cfg_file.read_text().replace("phys.beta = 4.0", "phys.beta = 3.01"))
        with np.errstate(over="raise"):  # refused before any exp is taken
            assert main(["twin", str(steep), "--delta", "1e-3"]) == 2
            assert main(["continuity", str(steep), "--t0", "0.01", "--eps", "0.002,0.001"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all("growth factor exp(2 C t) overflows" in line for line in err)
        random = tmp_path / "random.cfg"  # u0 + 1e-320 p rounds back to u0: |w(0)| = 0
        random.write_text(cfg_file.read_text().replace("taylor-green", "random-solenoidal"))
        with np.errstate(divide="raise", invalid="raise"):  # refused before a 0/0 margin is formed
            assert main(["twin", str(random), "--delta", "1e-320"]) == 2
        assert "delta = 1e-320" in capsys.readouterr().err
        faint = tmp_path / "faint.cfg"  # ||u0||^2 underflows to 0: every decay threshold 0
        faint.write_text(cfg_file.read_text().replace("grid.box_length = 6.283185307179586",
                                                      "grid.box_length = 25.132741228718345")
                         + "ic.amplitude = 1e-300\n")
        assert main(["decay", str(faint)]) == 2
        assert "initial energy ||u0||^2 is 0" in capsys.readouterr().err
        forever = tmp_path / "forever.cfg"  # 1e303 steps: past 2^53 the step times repeat
        forever.write_text(cfg_file.read_text().replace("time.t_end = 0.1", "time.t_end = 1e300"))
        assert main(["run", str(forever)]) == 2
        assert "exceeds 2^53" in capsys.readouterr().err
        # an unusable --out is refused before anything is integrated or printed
        occupied = tmp_path / "occupied"
        occupied.write_text("")
        for command in (["run", str(cfg_file)], ["twin", str(cfg_file), "--delta", "0"]):
            for out in (occupied, occupied / "sub"):
                capsys.readouterr()
                assert main(command + ["--out", str(out)]) == 2
                captured = capsys.readouterr()
                assert captured.out == "" and captured.err.startswith("error: ")
        capsys.readouterr()
        # verify runs its sampling suites on the pool, so it refuses a bad cap too
        monkeypatch.setenv("NSD_THREADS", "0")
        assert main(["verify", "--fast"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: NSD_THREADS must be positive, got '0'\n"
