"""Acceptance gate: every certified property at its contract tolerance.

Each test prints exactly one PASS/FAIL line (visible with -s or on failure)
and asserts the same condition, so this module doubles as a human-readable
checklist:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np

from oracles import direct_advection, direct_pressure, shear_mode
from report_checks import check_named, checks_named
from nsdamp.checkpoint import read_checkpoint, write_checkpoint
from nsdamp.config import config_from_mapping
from nsdamp.dynamics import StepperConfig, advection, pressure_field, run
from nsdamp.experiments import (
    continuity_experiment,
    decay_experiment,
    refinement_experiment,
    run_experiment,
    twin_experiment,
)
from nsdamp.initial_conditions import random_solenoidal, taylor_green
from nsdamp.inequalities import verify_suite
from nsdamp.ledger import SeriesRecorder
from nsdamp.spectral import (
    PhysParams,
    SpectralField,
    divergence_error,
    friedrichs_truncate,
    l2_norm,
    leray_project,
    make_grid,
    to_physical,
    to_spectral,
)

TWO_PI = 2.0 * np.pi


def _certify(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} - {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _mapping(**over):
    m = {
        "grid.n_modes": 32,
        "grid.box_length": TWO_PI,
        "phys.nu": 1.0,
        "phys.alpha": 1.0,
        "phys.beta": 4.0,
        "time.dt": 1e-3,
        "time.t_end": 1.0,
        "time.output_every": 0.01,
        "ic.kind": "taylor-green",
    }
    m.update(over)
    return config_from_mapping(m)


def test_01_energy_identity():
    # N = 32, beta = 4, alpha = 1, dt = 1e-3, T = 1, Taylor-Green start:
    # the budget must close to 1e-6 of the initial energy at every snapshot
    t0 = time.perf_counter()
    cfg = _mapping()
    rec = SeriesRecorder()
    run(
        taylor_green(cfg.grid()),
        cfg.phys(),
        cfg.stepper(),
        cfg.t_end,
        output_every=cfg.output_every,
        hooks=(rec,),
    )
    baseline = rec.energy[0].baseline
    worst = max(abs(r.residual) for r in rec.energy) / baseline
    elapsed = time.perf_counter() - t0
    _certify(
        "energy identity",
        worst <= 1e-6 and elapsed <= 120.0,
        f"worst |residual|/energy(0) = {worst:.3e} (tol 1e-6) over "
        f"{len(rec.energy)} snapshots in {elapsed:.0f} s (cap 120 s)",
    )


def test_02_heat_limit():
    # alpha = 0 with a single shear mode: the step is exactly the heat
    # semigroup, so the norm matches e^(-nu t) to 1e-8 at t = 1
    grid = make_grid(16, TWO_PI)
    u0 = shear_mode(grid)
    snaps = run(
        u0,
        PhysParams(nu=1.0, alpha=0.0, beta=2.0),
        StepperConfig(dt=1e-3),
        1.0,
        output_every=1.0,
    )
    got = l2_norm(snaps[-1].u)
    want = math.exp(-1.0) * l2_norm(u0)
    err = abs(got - want) / want
    _certify("heat limit", err <= 1e-8, f"relative norm error at t = 1: {err:.3e} (tol 1e-8)")


def test_03_twin_bound():
    # beta = 4, alpha = 1 (growth constant 2), delta = 1e-3, N = 32, T = 2:
    # separation bound with slack 1.1 at every sample; delta = 0 is bitwise
    cfg = _mapping(**{"time.dt": 2e-3, "time.t_end": 2.0})
    rep = twin_experiment(cfg, 1e-3)
    ok = (
        rep.passed
        and rep.first_violation is None
        and rep.times.size >= 200
        and rep.ratio_max <= 1.05
        and rep.constant == 2.0
    )
    rep0 = twin_experiment(cfg, 0.0)
    bitwise_zero = check_named(rep0, "bitwise zero difference").passed
    _certify(
        "twin separation bound",
        ok and bitwise_zero,
        f"max bound ratio {check_named(rep, 'separation bound').value:.3e} over {rep.times.size} "
        f"samples, norm ratio {rep.ratio_max:.3f} (cap 1.05); delta = 0 bitwise zero: {bitwise_zero}",
    )


def test_04_continuity_modulus():
    # eps ladder {0.2, 0.1, 0.05, 0.025} at t0 = 1: shift bound with slack
    # 1.1 both directions, modulus strictly decreasing down the ladder
    cfg = _mapping(**{"time.dt": 2.5e-3, "time.t_end": 1.2})
    rep = continuity_experiment(cfg, [0.2, 0.1, 0.05, 0.025], t0=1.0)
    moduli = ", ".join(f"{m:.3e}" for m in rep.moduli)
    failed = [check.name for check in rep.certificate.checks if not check.passed]
    _certify(
        "continuity modulus",
        rep.passed,
        f"moduli [{moduli}]; {len(rep.certificate.checks)} checks "
        f"{'passed' if rep.passed else 'FAILED: ' + ', '.join(failed)}",
    )


def test_05_large_time_decay():
    # beta = 10/3, alpha = 1, L = 8 pi, N = 32, unit-energy random start:
    # monotone energy, 5% threshold inside T = 20, tail-monotone H^(-2),
    # plateauing space-time accumulators
    t0 = time.perf_counter()
    cfg = _mapping(
        **{
            "grid.box_length": 8.0 * np.pi,
            "phys.beta": 10.0 / 3.0,
            "time.dt": 0.02,
            "time.t_end": 20.0,
            "time.output_every": 0.2,
            "ic.kind": "random-solenoidal",
            "ic.seed": 0,
        }
    )
    rep = decay_experiment(cfg)
    elapsed = time.perf_counter() - t0
    failed = [check.name for check in rep.certificate.checks if not check.passed]
    _certify(
        "large-time decay",
        rep.passed and rep.threshold_time is not None and rep.threshold_time <= 20.0 and elapsed <= 600.0,
        f"5% threshold at t = {rep.threshold_time}; all checks "
        f"{'passed' if rep.passed else 'FAILED: ' + ', '.join(failed)} in {elapsed:.0f} s (cap 600 s)",
    )


def test_06_oracle_suites():
    # full-size randomized suites within their floors and the 30 s budget
    t0 = time.perf_counter()
    rows = {r.name: r for r in verify_suite(seed=0, fast=False)}
    elapsed = time.perf_counter() - t0
    mono, young, interp = rows["monotonicity"], rows["young"], rows["interpolation"]
    ok = (
        mono.samples >= 100_000
        and mono.worst >= -1e-12
        and young.samples >= 100_000
        and young.worst >= -1e-12
        and interp.samples >= 1_000
        and interp.worst >= -1e-10
        and all(r.passed for r in rows.values())
        and elapsed <= 30.0
    )
    _certify(
        "inequality oracles",
        ok,
        f"monotonicity worst {mono.worst:.1e} on {mono.samples}, young worst "
        f"{young.worst:.1e} on {young.samples}, interpolation worst {interp.worst:.1e} "
        f"on {interp.samples}, in {elapsed:.1f} s (cap 30 s)",
    )


def test_07_operator_exactness():
    # Leray idempotence, divergence annihilation, cutoff/projection
    # commutation, Parseval: 1e-10 relative over 100 fields per grid
    worst = 0.0
    for n in (8, 16, 32):
        grid = make_grid(n, TWO_PI)
        rng = np.random.default_rng(n)
        for _ in range(100):
            raw = SpectralField(
                grid,
                rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape),
            )
            p1 = leray_project(raw)
            p2 = leray_project(p1)
            scale = np.abs(p1.coeffs).max()
            worst = max(worst, np.abs(p2.coeffs - p1.coeffs).max() / scale)
            worst = max(worst, divergence_error(p1) / scale)
            a = friedrichs_truncate(leray_project(raw))
            b = leray_project(friedrichs_truncate(raw))
            worst = max(worst, np.abs(a.coeffs - b.coeffs).max() / scale)
            phys = rng.standard_normal(grid.shape)
            f = to_spectral(phys, grid)
            quad = np.sum(to_physical(f) ** 2) * grid.cell_volume
            worst = max(worst, abs(quad - l2_norm(f) ** 2) / quad)
    _certify(
        "operator exactness",
        worst <= 1e-10,
        f"worst relative defect {worst:.3e} over 100 fields per grid (tol 1e-10)",
    )


def test_08_convergence_orders():
    # manufactured-solution temporal order >= 3.7; inter-level differences
    # shrink >= 4x per doubling across {16, 32, 64} at T = 0.5
    cfg = _mapping(
        **{
            "grid.n_modes": 16,
            "phys.nu": 0.02,
            "phys.alpha": 0.5,
            "time.dt": 5e-3,
            "time.t_end": 0.5,
        }
    )
    rep = refinement_experiment(cfg, [16, 32, 64])
    orders = [c.value for c in checks_named(rep, "temporal order")]
    _certify(
        "convergence orders",
        rep.passed,
        f"temporal order {float(np.min(orders)):.3f} (need 3.7); spatial shrink "
        f"{', '.join(f'{c.value:.1f}x' for c in checks_named(rep, 'shrink factor'))} (need 4x)",
    )


def test_09_brute_force_equivalence():
    # pseudo-spectral advection and pressure against direct convolution
    # sums on the 8^3 grid
    grid = make_grid(8, TWO_PI)
    u = random_solenoidal(grid, seed=42)
    adv_want = direct_advection(u)
    adv_got = advection(u).coeffs
    e_adv = np.abs(adv_got - adv_want).max() / np.abs(adv_want).max()
    params = PhysParams(nu=1.0, alpha=1.0, beta=3.0)
    p_want = direct_pressure(u, alpha=1.0)
    p_got = pressure_field(u, params)
    e_p = np.abs(p_got - p_want).max() / np.abs(p_want).max()
    _certify(
        "brute-force equivalence",
        e_adv <= 1e-10 and e_p <= 1e-10,
        f"advection defect {e_adv:.3e}, pressure defect {e_p:.3e} (tol 1e-10)",
    )


def test_10_restart_equivalence(tmp_path):
    # checkpoint at t0 = 0.5, resume, and compare with the continuous run
    # at t = 1 to 1e-12 relative
    cfg = _mapping(**{"time.dt": 2e-3, "time.output_every": 0.5})
    u0 = taylor_green(cfg.grid())
    cont = run(u0, cfg.phys(), cfg.stepper(), 1.0, output_every=0.5)
    mid = cont[1]
    assert abs(mid.t - 0.5) <= 1e-12
    path = tmp_path / "mid.ckpt"
    write_checkpoint(mid, path)
    resumed = read_checkpoint(path)
    tail = run(
        resumed.u,
        resumed.params,
        cfg.stepper(),
        1.0,
        t_start=resumed.t,
        output_every=0.5,
    )
    err = l2_norm(tail[-1].u - cont[-1].u) / l2_norm(cont[-1].u)
    _certify(
        "restart equivalence",
        err <= 1e-12,
        f"relative difference at t = 1 after restart at t = 0.5: {err:.3e} (tol 1e-12)",
    )
