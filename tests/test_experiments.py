"""Experiment drivers and the command-line harness."""

import gc
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from nsdamp import cli, dynamics, experiments
from nsdamp.checkpoint import write_checkpoint
from nsdamp.cli import main
from nsdamp.config import ConfigError, canonical_text, config_from_mapping
from nsdamp.dynamics import SolverState, StepperConfig, run, trajectory
from nsdamp.experiments import (
    build_initial,
    continuity_experiment,
    decay_experiment,
    inject_field,
    refinement_experiment,
    run_experiment,
    twin_experiment,
)
from nsdamp.initial_conditions import random_solenoidal, shear_mode, taylor_green
from nsdamp.ledger import SeriesRecorder
from nsdamp.spectral import GridSpec, PhysParams, grad_norm_sq, l2_norm, make_grid

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
        u, t0 = build_initial(_cfg())
        assert t0 == 0.0
        assert l2_norm(u) > 0.0
        u2, _ = build_initial(_cfg(**{"ic.kind": "random-solenoidal", "ic.seed": 3}))
        u3, _ = build_initial(_cfg(**{"ic.kind": "random-solenoidal", "ic.seed": 3}))
        assert np.array_equal(u2.coeffs, u3.coeffs)

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
        u, t0 = build_initial(good)
        assert t0 == 0.5
        assert np.array_equal(u.coeffs, state.u.coeffs)

        for key, over in (
            ("grid.n_modes", {"grid.n_modes": 16}),
            ("phys.nu", {"phys.nu": 0.5}),
            ("phys.beta", {"phys.beta": 5.0}),
        ):
            bad = _cfg(**{"ic.kind": "checkpoint", "ic.path": str(path), **over})
            with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
                build_initial(bad)

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
        for name in ("series.csv", "final.ckpt", "report.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
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


class TestTwin:
    def test_zero_delta_bitwise(self):
        rep = twin_experiment(_cfg(), 0.0)
        assert rep.passed and rep.bitwise_zero
        assert rep.w0_l2 == 0.0

    def test_small_delta_bound_holds(self):
        rep = twin_experiment(_cfg(), 1e-3)
        assert rep.passed
        assert rep.first_violation is None
        assert rep.constant == pytest.approx(2.0)  # alpha = 1, beta = 4
        assert 0.0 < rep.margin_max <= 1.0
        assert rep.ratio_max <= 1.05
        assert rep.times.size == 11

    def test_streamed_pairs_match_two_run_lists(self):
        # 101 samples: several whole blocks and a partial last one
        cfg = _cfg(**{"time.output_every": 2e-3})
        rep = twin_experiment(cfg, 1e-3)
        u0, _ = build_initial(cfg)
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


class TestContinuity:
    def test_ladder_pass(self):
        cfg = _cfg(**{"time.dt": 2.5e-3})
        rep = continuity_experiment(cfg, [0.05, 0.025, 0.0125], t0=0.1)
        assert rep.passed
        assert rep.monotone and rep.bound_ok and rep.bounds_shrink
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
        names = [name for name, _, _ in rep.checks]
        assert names == [
            "energy monotone nonincreasing",
            "low-regularity norm nonincreasing over tail",
            "both frequency bands small by the end",
            "space-time accumulators plateau",
            "5% energy threshold crossed",
            "space-time report",
        ]
        # the horizon is deliberately too short to decay to 5%: the
        # monotonicity checks hold, the threshold check honestly fails
        by_name = {name: ok for name, ok, _ in rep.checks}
        assert by_name["energy monotone nonincreasing"]
        assert not by_name["5% energy threshold crossed"]
        assert not rep.passed
        assert (tmp_path / "d" / "series.csv").exists()
        assert (tmp_path / "d" / "report.txt").exists()


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
        for i in range(2):  # warm: the first step allocates the kernel's buffers
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
            held = vars(grid)
            assert "ball" in held
            assert not {"wavenumbers", "k_sq", "ball_mask", "low_shell_mask", "_k_sq_safe"} & held.keys()

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
        # forward's z pass: the first call at N = 32, buffers included, peaks
        # at 2.60 cubes, where nine whole blocks and a weight cube took 3.76
        n = 32
        grid = make_grid(n, TWO_PI)
        kernel = dynamics._Kernel(grid, PhysParams(nu=1.0, alpha=1.0, beta=4.0))
        v = grid.ball.gather(random_solenoidal(grid, seed=n).coeffs)
        dynamics._Kernel(grid, kernel.params)(v)  # warm the per-grid caches outside the measurement
        cubes = self._peak(lambda: kernel(v)) / (3 * n**3 * 16)
        assert cubes <= 3.0, cubes

    def test_a_first_kernel_call_at_n64_streams_its_transforms(self):
        # the transforms stream slab by slab: the first call at N = 64,
        # buffers included, peaks at 1.37 cubes, where the whole
        # (3, N, N, N/2 + 1) half spectrum the kernel held took 1.81
        n = 64
        grid = make_grid(n, TWO_PI)
        kernel = dynamics._Kernel(grid, PhysParams(nu=1.0, alpha=1.0, beta=4.0))
        v = grid.ball.gather(random_solenoidal(grid, seed=n).coeffs)
        dynamics._Kernel(grid, kernel.params)(v)  # warm the per-grid caches outside the measurement
        cubes = self._peak(lambda: kernel(v)) / (3 * n**3 * 16)
        assert cubes <= 1.5, cubes

    def test_the_kernel_holds_no_half_spectrum_cube(self):
        # its one slab of half spectrum is 8 of the 64 y-planes; no other array
        # it holds or views, but the grid values u, has a half-spectrum cube's size
        n = 64
        grid = make_grid(n, TWO_PI)
        kernel = dynamics._Kernel(grid, PhysParams(nu=1.0, alpha=1.0, beta=4.0))
        kernel(grid.ball.gather(random_solenoidal(grid, seed=n).coeffs))
        cube = 3 * n * n * (n // 2 + 1)
        assert kernel.slab.size == 3 * n * grid.ball.slab * (n // 2 + 1) == cube // 8
        held = [(name, a) for name, a in vars(kernel).items() if isinstance(a, np.ndarray)]
        assert len(held) >= 8
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
        # up to the first snapshot nothing cube-sized is allocated but the
        # kernel's buffers: the initial field is read through its ball
        # entries, the snapshot holds its ball vector, and its pointwise sums
        # come from the kernel's inverse, which allocates only its own
        # buffers (1.98 cubes in all at N = 16, 1.92 at 32; 2.15 and 2.09
        # before validate() took one component at a time, 2.9 when the
        # inverse allocated the forward's buffers too)
        u0 = random_solenoidal(make_grid(n, TWO_PI), seed=n)
        params, cfg = PhysParams(nu=1.0, alpha=1.0, beta=4.0), StepperConfig(dt=1e-3)
        next(trajectory(u0, params, cfg, 0.0))  # warm the per-grid caches outside the measurement
        cubes = self._peak(lambda: next(trajectory(u0, params, cfg, 0.0))) / (3 * n**3 * 16)
        assert cubes <= 2.5, cubes

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="older CPython keeps a call's arguments on the caller's stack")
    def test_the_initial_field_is_released_after_start_up(self, monkeypatch):
        # only the start-up reads the initial field: trajectory, run and
        # every driver drop their references to it (and the twin to its
        # perturbation) before the first snapshot, so reference counting
        # alone frees it
        params, cfg = PhysParams(nu=1.0, alpha=1.0, beta=4.0), StepperConfig(dt=1e-3)
        refs, dead = [], []

        def first_snapshot(snap):
            if not dead:
                dead.append(refs[-1]() is None)

        class Recorder(SeriesRecorder):
            def __call__(self, snap):
                first_snapshot(snap)
                super().__call__(snap)

        def traced_build(c):
            u0, t_start = build_initial(c)
            refs.append(weakref.ref(u0))
            return u0, t_start

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

            monkeypatch.setattr(experiments, "build_initial", traced_build)
            monkeypatch.setattr(experiments, "SeriesRecorder", Recorder)
            run_experiment(_cfg(**{"time.t_end": 4e-3, "ic.kind": "random-solenoidal"}), None)
            assert dead.pop()

            # each run's own field and the twin's perturbation are dead at the run's first snapshot
            def traced_solenoidal(*args, **kwargs):
                pert = random_solenoidal(*args, **kwargs)
                perts.append(weakref.ref(pert))
                return pert

            def traced_trajectory(initial, *args, **kwargs):
                ref = weakref.ref(initial)
                return checked(ref, trajectory(initial, *args, **kwargs))

            def checked(ref, steps):
                first = next(steps)
                dead.append(ref() is None and all(r() is None for r in perts))
                yield first
                yield from steps

            perts = []
            monkeypatch.setattr(experiments, "random_solenoidal", traced_solenoidal)
            monkeypatch.setattr(experiments, "trajectory", traced_trajectory)
            monkeypatch.setattr(experiments, "SeriesRecorder", SeriesRecorder)
            decay_experiment(self._cfg(4))
            continuity_experiment(self._cfg(4), [0.02], t0=0.04)
            # a Taylor-Green base: the other run may not have started, so its
            # field must not be among the random ones
            twin_experiment(_cfg(**{"time.t_end": 8e-3}), 1e-3)
            assert dead == [True] * 4 and len(perts) == 3
        finally:
            gc.enable()


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
        assert all(r >= 4.0 for r in rep.ratios)
        assert rep.observed_order >= 3.7
        assert "refinement" in rep.lines()[0]


class TestThreadCap:
    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("NSD_THREADS", "many")
        with pytest.raises(ConfigError, match="NSD_THREADS"):
            twin_experiment(_cfg(), 0.0)
        monkeypatch.setenv("NSD_THREADS", "0")
        with pytest.raises(ConfigError, match="positive"):
            twin_experiment(_cfg(), 0.0)

    def test_serial_cap_matches_default(self, monkeypatch):
        cfg = _cfg(**{"time.t_end": 0.05})
        free = twin_experiment(cfg, 1e-3)
        monkeypatch.setenv("NSD_THREADS", "1")
        capped = twin_experiment(cfg, 1e-3)
        np.testing.assert_array_equal(free.lhs, capped.lhs)


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

    def test_twin_and_out_override(self, tmp_path, cfg_file, capsys):
        override = tmp_path / "elsewhere"
        assert main(["twin", str(cfg_file), "--delta", "0", "--out", str(override)]) == 0
        assert (override / "report.txt").exists()
        assert "bitwise zero" in capsys.readouterr().out

    def test_continuity(self, tmp_path, cfg_file, capsys):
        assert main(["continuity", str(cfg_file), "--t0", "0.05", "--eps", "0.02,0.01"]) == 0
        assert "modulus" in capsys.readouterr().out

    def test_overflowing_cfl_rate_is_a_failed_run(self, tmp_path, cfg_file, capsys):
        # alpha |u|_inf^(beta-1) overflows a float at beta = 1000: a CFLError, not a traceback
        steep = tmp_path / "steep.cfg"
        steep.write_text(cfg_file.read_text().replace("phys.beta = 4.0", "phys.beta = 1000.0")
                         + "ic.amplitude = 1000.0\n")
        with np.errstate(over="ignore", invalid="ignore"):  # the kernel's |u|^(beta-1) is inf too
            assert main(["run", str(steep)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("run failed: dt = ") and "Traceback" not in err

    def test_a_zero_inter_level_difference_fails_refine(self, tmp_path, cfg_file, capsys):
        # at amplitude 1e-300 every level ends in the same state: a shrink factor
        # over a zero difference measures nothing, though inf >= 4 would hold
        faint = tmp_path / "faint.cfg"
        faint.write_text(cfg_file.read_text() + "ic.amplitude = 1e-300\n")
        assert main(["refine", str(faint), "--levels", "8,16,32"]) == 1
        out = capsys.readouterr().out
        assert ("|u_16(T) - u_32(T)| = 0.000000e+00: the finer difference must be positive "
                "and both finite: FAIL") in out
        assert out.splitlines()[-1] == "verdict: FAIL"

    def test_an_internal_error_exits_3_on_one_line(self, cfg_file, capsys, monkeypatch):
        # an exception no exit code names is a bug, not a violated bound (1)
        def broken(*args, **kwargs):
            raise KeyError("snapshots")

        monkeypatch.setattr(cli, "run_experiment", broken)
        assert main(["run", str(cfg_file)]) == 3
        assert capsys.readouterr().err == "internal error: KeyError: 'snapshots'\n"

    def test_error_exit_codes(self, tmp_path, cfg_file, capsys):
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
