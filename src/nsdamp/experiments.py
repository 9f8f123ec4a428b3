"""Experiment drivers: each one turns a certified property into a run.

A driver takes an ``ExperimentConfig`` (plus its own knobs), runs the solver,
checks the bound it exists to certify, and returns a report object with a
``passed`` flag and printable ``lines()``.  Violations are reported, not
raised; genuinely malformed inputs raise ``ConfigError``.

Independent jobs inside one driver (the two twin runs, refinement levels)
run on a thread pool; the FFT backend releases the GIL, so this scales on
multicore boxes and degrades to serial on one core.  NSD_THREADS caps the
pool.  Each job owns its state and writes nothing shared, so results are
bitwise independent of scheduling.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .checkpoint import read_checkpoint, write_checkpoint
from .config import ConfigError, ExperimentConfig, canonical_text, validate_for_experiment
from .dynamics import (
    SeparableTarget,
    SolverState,
    StepperConfig,
    manufactured_forcing,
    run,
    trajectory,
)
from .initial_conditions import random_solenoidal, taylor_green
from .inequalities import gronwall_constant
from .ledger import (
    SeriesRecorder,
    check_energy_inequality,
    lbeta_spacetime_report,
    write_series_csv,
)
from .spectral import GridSpec, PhysParams, SpectralField, l2_norm, make_grid

__all__ = [
    "RunResult",
    "TwinReport",
    "ContinuityReport",
    "DecayReport",
    "RefinementReport",
    "run_experiment",
    "twin_experiment",
    "continuity_experiment",
    "decay_experiment",
    "refinement_experiment",
    "inject_field",
    "build_initial",
]

ENERGY_TOL = 1e-6

#: samples each twin run advances per pool job before the pair is compared
_TWIN_BLOCK = 16


def _max_workers(n_jobs: int) -> int:
    raw = os.environ.get("NSD_THREADS")
    if raw is None:
        cap = os.cpu_count() or 1
    else:
        try:
            cap = int(raw)
        except ValueError:
            raise ConfigError(f"NSD_THREADS must be an integer, got {raw!r}") from None
        if cap < 1:
            raise ConfigError(f"NSD_THREADS must be positive, got {raw!r}")
    return max(1, min(n_jobs, cap))


def _parallel(jobs):
    """Run zero-argument callables on the thread pool, preserving order."""
    with ThreadPoolExecutor(max_workers=_max_workers(len(jobs))) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [f.result() for f in futures]


def inject_field(f: SpectralField, fine: GridSpec) -> SpectralField:
    """Embed a field into a finer grid (same box), matching mode numbers.

    The fine grid must hold every mode of the coarse one; unmatched fine
    modes are zero.  Used to start refinement levels from one coarse field
    and to difference states across levels.
    """
    if fine.n_modes < f.grid.n_modes:
        raise ValueError(
            f"cannot inject {f.grid.n_modes}^3 modes into a coarser {fine.n_modes}^3 grid"
        )
    if abs(fine.box_length - f.grid.box_length) > 1e-12 * f.grid.box_length:
        raise ValueError("grids cover different boxes")
    idx = f.grid.mode_numbers % fine.n_modes
    coeffs = np.zeros(fine.shape, dtype=np.complex128)
    coeffs[np.ix_(range(3), idx, idx, idx)] = f.coeffs
    return SpectralField(fine, coeffs)


def build_initial(cfg: ExperimentConfig) -> tuple[SpectralField, float]:
    """Initial field and start time for a config (checkpoint restarts resume)."""
    grid = cfg.grid()
    if cfg.ic_kind == "taylor-green":
        return taylor_green(grid, cfg.ic_amplitude), 0.0
    if cfg.ic_kind == "random-solenoidal":
        return random_solenoidal(grid, seed=cfg.ic_seed, amplitude=cfg.ic_amplitude), 0.0

    state = read_checkpoint(cfg.ic_path)
    g = state.grid
    if g.n_modes != grid.n_modes:
        raise ConfigError(
            f"grid.n_modes = {grid.n_modes} does not match checkpoint value {g.n_modes}"
        )
    for key, want, got in (
        ("grid.box_length", grid.box_length, g.box_length),
        ("grid.cutoff_fraction (via radius)", grid.cutoff_radius, g.cutoff_radius),
        ("phys.nu", cfg.nu, state.params.nu),
        ("phys.alpha", cfg.alpha, state.params.alpha),
        ("phys.beta", cfg.beta, state.params.beta),
    ):
        if abs(want - got) > 1e-12 * max(abs(want), abs(got), 1.0):
            raise ConfigError(f"{key} = {want!r} does not match checkpoint value {got!r}")
    return state.u, state.t


def _start_energy(f: SpectralField) -> float:
    """||f||^2 as a run's start measures it: over the ball entries of f, with m = 0 zeroed."""
    ball = f.grid.ball
    entries = ball.gather(f.coeffs)
    entries[:, 0] = 0.0
    return f.grid.volume * ball.norm_sq(entries)


def _write_report(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# plain run


@dataclass
class RunResult:
    config: ExperimentConfig
    snapshots: list[SolverState]
    recorder: SeriesRecorder
    passed: bool
    energy_line: str

    def lines(self) -> list[str]:
        last = self.recorder.energy[-1]
        return [
            "# run",
            "",
            canonical_text(self.config).rstrip(),
            "",
            f"snapshots: {len(self.snapshots)}",
            f"final t = {last.t:.6g}, |u|^2 = {last.l2_sq:.12e}",
            f"cumulative viscous dissipation = {last.cum_visc:.12e}",
            f"cumulative damping dissipation = {last.cum_damp:.12e}",
            self.energy_line,
            f"verdict: {'pass' if self.passed else 'FAIL'}",
        ]


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> RunResult:
    """Integrate per config, write series.csv / final.ckpt / report.txt.

    Passes when the run completes and the energy budget closes to the
    package tolerance at every snapshot.
    """
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    # the field is popped into the call, not named here, so that once the
    # run's start-up has read it nothing keeps it alive
    start = list(build_initial(cfg))
    t_start = start.pop()
    recorder = SeriesRecorder()
    snapshots = run(
        start.pop(),
        cfg.phys(),
        cfg.stepper(),
        cfg.t_end,
        t_start=t_start,
        output_every=cfg.output_every,
        hooks=(recorder,),
    )
    report = check_energy_inequality(recorder.energy, ENERGY_TOL)
    # two-sided check: the truncated system balances exactly, so a large
    # negative residual is as suspicious as a positive one
    worst_abs = max(abs(r.residual) for r in recorder.energy)
    scale = abs(recorder.energy[0].baseline) or 1.0
    balanced = worst_abs <= ENERGY_TOL * scale
    result = RunResult(
        config=cfg,
        snapshots=snapshots,
        recorder=recorder,
        passed=report.passed and balanced,
        energy_line=report.describe() + f"; worst |residual|/baseline = {worst_abs / scale:.3e}",
    )
    if out_dir is not None:
        write_series_csv(os.path.join(out_dir, "series.csv"), recorder.energy, recorder.decay)
        write_checkpoint(snapshots[-1], os.path.join(out_dir, "final.ckpt"))
        _write_report(os.path.join(out_dir, "report.txt"), result.lines())
    return result


# ---------------------------------------------------------------------------
# twin runs (uniqueness / stability)


@dataclass
class TwinReport:
    delta: float
    constant: float
    w0_l2: float
    times: np.ndarray
    lhs: np.ndarray  # |w|^2 + 2 int |grad w|^2
    rhs: np.ndarray  # 1.1 |w0|^2 exp(2 C t)
    ratio_max: float  # max |w| / (|w0| e^{C t})
    margin_max: float  # max lhs / rhs
    bitwise_zero: bool
    first_violation: float | None
    passed: bool

    def lines(self) -> list[str]:
        out = [
            "# twin separation",
            "",
            f"delta = {self.delta:g}, growth constant = {self.constant:.6g}",
            f"initial separation |w(0)| = {self.w0_l2:.6e}",
        ]
        if self.delta == 0.0:
            out.append(
                "identical seeds: difference is "
                + ("bitwise zero at every sample" if self.bitwise_zero else "NOT bitwise zero")
            )
        else:
            out.append(f"samples: {self.times.size}")
            out.append(f"max (|w|^2 + 2 int |grad w|^2) / bound = {self.margin_max:.6e}")
            out.append(f"max |w(t)| / (|w(0)| e^(C t)) = {self.ratio_max:.6e}")
            if self.first_violation is not None:
                out.append(f"FIRST VIOLATION at t = {self.first_violation:g}")
        out.append(f"verdict: {'pass' if self.passed else 'FAIL'}")
        return out


def twin_experiment(cfg: ExperimentConfig, delta: float) -> TwinReport:
    """Two runs from u0 and u0 + delta * (unit random solenoidal field).

    Certifies the exponential stability bound: with w the difference and
    C the growth constant for (alpha, beta),

        |w(t)|^2 + 2 int_0^t |grad w|^2 <= 1.1 |w(0)|^2 exp(2 C t).

    delta = 0 degenerates to a determinism check: the difference must be
    bitwise zero. A delta that is negative, not finite, or so small that
    the perturbed start rounds back to u0 is refused with ConfigError
    before anything is integrated.
    """
    if not 0.0 <= delta < math.inf:
        raise ConfigError(f"delta must be nonnegative and finite, got {delta!r}")
    u0, t_start = build_initial(cfg)
    validate_for_experiment(cfg, "twin", horizon=cfg.t_end - t_start)
    constant = gronwall_constant(cfg.alpha, cfg.beta)
    ball, volume = u0.grid.ball, u0.grid.volume
    pert = random_solenoidal(u0.grid, seed=cfg.ic_seed + 1, amplitude=1.0)
    u0_twin = u0 + pert * delta
    # |w(0)| as the comparison below takes it
    if delta > 0.0 and _start_energy(u0_twin - u0) == 0.0:
        raise ConfigError(f"delta = {delta!r} is too small: u0 + delta * p rounds to |w(0)| = 0, "
                          "where the bound reads 0/0")

    params, stepper = cfg.phys(), cfg.stepper()
    runs = [
        trajectory(u, params, stepper, cfg.t_end, t_start=t_start, output_every=cfg.output_every)
        for u in (u0, u0_twin)
    ]
    del u0, pert, u0_twin  # each run's start-up reads its field, then drops it

    # both runs advance one block of samples in parallel, then the block is
    # compared pair by pair, on the snapshots' ball vectors, and dropped
    rows, bitwise = [], True
    while True:
        base, twin = _parallel([lambda r=r: list(islice(r, _TWIN_BLOCK)) for r in runs])
        if not base:
            break
        for b, tw in zip(base, twin):
            w_sq, grad_sq = ball.norms_sq(b.vector - tw.vector, (None, ball.k_sq))
            rows.append((b.t, math.sqrt(volume * w_sq), volume * grad_sq))
            bitwise = bitwise and delta == 0.0 and np.array_equal(b.vector, tw.vector)
    times, w_l2, w_grad = np.array(rows).T
    cum_grad = np.concatenate(
        [[0.0], np.cumsum(0.5 * np.diff(times) * (w_grad[:-1] + w_grad[1:]))]
    )
    lhs = w_l2**2 + 2.0 * cum_grad
    tau = times - times[0]
    w0 = w_l2[0]
    rhs = 1.1 * w0**2 * np.exp(2.0 * constant * tau)

    if delta == 0.0:
        ratio_max = margin_max = 0.0
        first, passed = None, bitwise
    else:
        violations = lhs > rhs
        ratio_max = float((w_l2 / (w0 * np.exp(constant * tau))).max())
        margin_max = float((lhs / rhs).max())
        first = float(times[np.argmax(violations)]) if bool(violations.any()) else None
        passed = not bool(violations.any())
    return TwinReport(
        delta=delta,
        constant=constant,
        w0_l2=w0,
        times=times,
        lhs=lhs,
        rhs=rhs,
        ratio_max=ratio_max,
        margin_max=margin_max,
        bitwise_zero=bitwise,
        first_violation=first,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# continuity modulus


def _grid_index(t: float, dt: float, what: str) -> int:
    i = int(round(t / dt))
    if i <= 0 or abs(i * dt - t) > 1e-8 * max(abs(t), dt):
        raise ConfigError(f"{what} = {t!r} is not a positive multiple of time.dt = {dt!r}")
    return i


@dataclass
class ContinuityReport:
    t0: float
    epsilons: list[float]  # descending
    moduli: list[float]  # |u(t0+eps) - u(t0)|
    moduli_back: list[float]  # |u(t0-eps) - u(t0)|
    bounds: list[float]  # 1.1 * 2 (|u0|^2 - <u(eps), u0>) e^{2 C t0}
    constant: float
    monotone: bool
    bound_ok: bool
    bounds_shrink: bool
    passed: bool

    def lines(self) -> list[str]:
        out = [
            "# continuity modulus",
            "",
            f"t0 = {self.t0:g}, growth constant = {self.constant:.6g}",
            f"{'eps':>10} {'|shift fwd|':>14} {'|shift back|':>14} {'bound sqrt':>14}",
        ]
        for e, m, mb, b in zip(self.epsilons, self.moduli, self.moduli_back, self.bounds):
            out.append(f"{e:>10g} {m:>14.6e} {mb:>14.6e} {math.sqrt(b):>14.6e}")
        out.append(f"modulus strictly decreasing along the ladder: {self.monotone}")
        out.append(f"shift bound holds (both directions): {self.bound_ok}")
        out.append(f"bound shrinks toward zero with eps: {self.bounds_shrink}")
        out.append(f"verdict: {'pass' if self.passed else 'FAIL'}")
        return out


def continuity_experiment(
    cfg: ExperimentConfig, epsilons: list[float], t0: float
) -> ContinuityReport:
    """One run, keeping the snapshots the ladder reads; certifies the time-shift bound at t0.

    For each eps (all on the dt grid, 0 < eps < t0):

        |u(t0 +- eps) - u(t0)|^2 <= 1.1 * 2 (|u0|^2 - <u(eps), u0>) e^{2 C t0}

    and the forward modulus must decrease strictly along the eps ladder.
    Times are measured from the start of the run.
    """
    validate_for_experiment(cfg, "continuity", horizon=t0)
    if not epsilons:
        raise ConfigError("need at least one epsilon")
    eps_sorted = sorted(set(float(e) for e in epsilons), reverse=True)
    if len(eps_sorted) != len(epsilons):
        raise ConfigError(f"duplicate epsilons in {epsilons!r}")
    dt = cfg.dt
    i_t0 = _grid_index(t0, dt, "t0")
    indices = {0, i_t0}  # the start, t0, each eps and t0 +- eps
    for e in eps_sorted:
        if not 0.0 < e < t0:
            raise ConfigError(f"epsilon must lie in (0, t0); got eps = {e!r}, t0 = {t0!r}")
        i_e = _grid_index(e, dt, "eps")
        indices.update((i_e, i_t0 - i_e, i_t0 + i_e))
    stride = math.gcd(*indices)

    u0, t_start = build_initial(cfg)
    snapshots = trajectory(u0, cfg.phys(), cfg.stepper(), t_start + t0 + eps_sorted[0],
                           t_start=t_start, output_every=stride * dt)
    del u0  # the start-up reads it, then drops it
    by_index = {s.step_count: s for s in snapshots if s.step_count in indices}

    # the snapshots' ball vectors, measured with the ball's Parseval weights
    constant = gronwall_constant(cfg.alpha, cfg.beta)
    ball, volume = by_index[0].grid.ball, by_index[0].grid.volume
    v_start = by_index[0].vector
    v_t0 = by_index[i_t0].vector
    e0_sq = volume * ball.norm_sq(v_start)

    moduli, moduli_back, bounds = [], [], []
    for e in eps_sorted:
        i_e = _grid_index(e, dt, "eps")
        fwd = math.sqrt(volume * ball.norm_sq(by_index[i_t0 + i_e].vector - v_t0))
        back = math.sqrt(volume * ball.norm_sq(by_index[i_t0 - i_e].vector - v_t0))
        inner = volume * ball.inner(by_index[i_e].vector, v_start)
        bound = 1.1 * 2.0 * (e0_sq - inner) * math.exp(2.0 * constant * t0)
        moduli.append(fwd)
        moduli_back.append(back)
        bounds.append(bound)

    monotone = all(a > b for a, b in zip(moduli, moduli[1:]))
    bound_ok = all(
        m**2 <= b and mb**2 <= b for m, mb, b in zip(moduli, moduli_back, bounds)
    )
    bounds_shrink = all(a > b for a, b in zip(bounds, bounds[1:]))
    return ContinuityReport(
        t0=t0,
        epsilons=eps_sorted,
        moduli=moduli,
        moduli_back=moduli_back,
        bounds=bounds,
        constant=constant,
        monotone=monotone,
        bound_ok=bound_ok,
        bounds_shrink=bounds_shrink,
        passed=monotone and bound_ok and bounds_shrink,
    )


# ---------------------------------------------------------------------------
# large-time decay


@dataclass
class DecayReport:
    checks: list[tuple[str, bool, str]]
    threshold_time: float | None
    spacetime_lines: list[str]
    passed: bool
    recorder: SeriesRecorder = field(repr=False)

    def lines(self) -> list[str]:
        out = ["# large-time decay", ""]
        for name, ok, detail in self.checks:
            out.append(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")
        if self.threshold_time is not None:
            out.append(f"energy fell below 5% of initial at t = {self.threshold_time:g}")
        else:
            out.append("energy never fell below 5% of initial within the horizon")
        out.extend(self.spacetime_lines)
        out.append(f"verdict: {'pass' if self.passed else 'FAIL'}")
        return out


def decay_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> DecayReport:
    """Long run with full diagnostics; certifies the decay phenomenology.

    Checks: monotone nonincreasing energy, nonincreasing low-regularity norm
    over the run tail (last half), both frequency-split norms small by the
    end, the space-time damping accumulators plateauing (final-decile
    increment at most 1% of the total), and the 5%-energy threshold being
    crossed within the horizon. A start whose energy ||u0||^2 is zero, as
    the ledger takes it (an amplitude so small that its squares underflow),
    is refused with ConfigError before anything is integrated: every
    threshold would be 0 and every check pass.
    """
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    validate_for_experiment(cfg, "decay")
    u0, t_start = build_initial(cfg)
    if _start_energy(u0) == 0.0:  # as the first energy record takes it
        raise ConfigError("the initial energy ||u0||^2 is 0, "
                          "so every decay threshold would be 0 and pass vacuously")
    recorder = SeriesRecorder()
    snapshots = trajectory(u0, cfg.phys(), cfg.stepper(), cfg.t_end, t_start=t_start,
                           output_every=cfg.output_every, hooks=(recorder,))
    del u0  # the start-up reads it, then drops it
    for _ in snapshots:
        pass

    energy = recorder.energy
    diags = recorder.decay
    l2 = np.sqrt([r.l2_sq for r in energy])
    slack = 1e-12 * l2[0]

    checks: list[tuple[str, bool, str]] = []

    rises = np.diff(l2) > slack
    checks.append(
        (
            "energy monotone nonincreasing",
            not bool(rises.any()),
            f"max rise {float(np.diff(l2).max(initial=0.0)):.3e}",
        )
    )

    h = np.array([d.hminus2 for d in diags])
    tail = h[h.size // 2 :]
    tail_rises = np.diff(tail) > slack
    checks.append(
        (
            "low-regularity norm nonincreasing over tail",
            not bool(tail_rises.any()),
            f"max tail rise {float(np.diff(tail).max(initial=0.0)):.3e}",
        )
    )

    w1_final = diags[-1].w1_l2
    w2_final = diags[-1].w2_l2
    small = 0.05 * l2[0]
    checks.append(
        (
            "both frequency bands small by the end",
            w1_final <= small and w2_final <= small,
            f"w1 = {w1_final:.4e}, w2 = {w2_final:.4e}, threshold {small:.4e}",
        )
    )

    totals = np.array([d.lbeta_E1 + d.lbeta_E2 for d in diags])
    if totals[-1] > 0.0:
        decile_start = totals[int(round(0.9 * (totals.size - 1)))]
        decile_frac = (totals[-1] - decile_start) / totals[-1]
    else:
        decile_frac = 0.0
    checks.append(
        (
            "space-time accumulators plateau",
            decile_frac <= 0.01,
            f"final-decile increment fraction {decile_frac:.4e}",
        )
    )

    below = np.flatnonzero(l2 <= small)
    threshold_time = float(energy[below[0]].t) if below.size else None
    checks.append(
        (
            "5% energy threshold crossed",
            threshold_time is not None,
            f"at t = {threshold_time:g}" if threshold_time is not None else "never",
        )
    )

    try:
        sp = lbeta_spacetime_report(diags, energy, cfg.phys())
        spacetime_lines = [sp.describe()]
        spacetime_ok = True
    except ValueError as exc:
        spacetime_lines = [f"space-time report unavailable: {exc}"]
        spacetime_ok = False
    checks.append(("space-time report", spacetime_ok, spacetime_lines[0]))

    report = DecayReport(
        checks=checks,
        threshold_time=threshold_time,
        spacetime_lines=spacetime_lines,
        passed=all(ok for _, ok, _ in checks),
        recorder=recorder,
    )
    if out_dir is not None:
        write_series_csv(os.path.join(out_dir, "series.csv"), energy, diags)
        _write_report(os.path.join(out_dir, "report.txt"), report.lines())
    return report


# ---------------------------------------------------------------------------
# refinement / convergence


@dataclass
class RefinementReport:
    levels: list[int]
    diffs: list[float]  # |u_N(T) - u_2N(T)| between adjacent levels
    ratios: list[float]
    spatial_ok: bool
    dt_ladder: list[float]
    errors: list[float]
    orders: list[float]
    observed_order: float
    temporal_ok: bool
    passed: bool

    def lines(self) -> list[str]:
        out = ["# refinement", ""]
        for (na, nb), d in zip(zip(self.levels, self.levels[1:]), self.diffs):
            out.append(f"|u_{na}(T) - u_{nb}(T)| = {d:.6e}")
        out.append(
            "inter-level shrink factors: "
            + ", ".join(f"{r:.2f}" for r in self.ratios)
            + f" (need >= 4): {'ok' if self.spatial_ok else 'FAIL'}"
        )
        # a factor over a zero or non-finite difference measures nothing, so it cannot pass
        for na, nb, nc, d0, d1, r in zip(self.levels, self.levels[1:], self.levels[2:],
                                         self.diffs, self.diffs[1:], self.ratios):
            if not math.isfinite(r):
                out.append(f"no shrink factor from |u_{na}(T) - u_{nb}(T)| = {d0:.6e} to "
                           f"|u_{nb}(T) - u_{nc}(T)| = {d1:.6e}: the finer difference must be "
                           f"positive and both finite: FAIL")
        out.append("")
        for dt, e in zip(self.dt_ladder, self.errors):
            out.append(f"manufactured solution, dt = {dt:g}: rel error {e:.6e}")
        out.append(
            "observed temporal order: "
            + ", ".join(f"{o:.3f}" for o in self.orders)
            + f" (need >= 3.7): {'ok' if self.temporal_ok else 'FAIL'}"
        )
        out.append(f"verdict: {'pass' if self.passed else 'FAIL'}")
        return out


def _temporal_order_study() -> tuple[list[float], list[float], list[float]]:
    """Fixed manufactured-solution study isolating the time discretization.

    The target a(t) U solves the truncated system exactly under the closed
    -form forcing, so spatial error is identically zero and the measured
    error is pure time-integration error.  The dt ladder sits well above
    the roundoff floor so the Richardson estimate is clean.
    """
    grid = make_grid(16, 2.0 * np.pi)
    base = taylor_green(grid, amplitude=0.3)
    params = PhysParams(nu=0.4, alpha=0.5, beta=5.0)
    target = SeparableTarget(
        base,
        lambda t: 1.0 + 0.4 * math.sin(2.0 * t),
        lambda t: 0.8 * math.cos(2.0 * t),
        params,
    )
    forcing = manufactured_forcing(target, params)
    horizon = 0.5
    ladder = [2e-2, 1e-2, 5e-3]

    def _error(dt: float) -> float:
        snaps = run(
            target.field(0.0),
            params,
            StepperConfig(dt=dt),
            horizon,
            forcing=forcing,
            output_every=horizon,
        )
        exact = target.field(horizon)
        return l2_norm(snaps[-1].u - exact) / l2_norm(exact)

    errors = _parallel([lambda d=d: _error(d) for d in ladder])
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    return ladder, errors, orders


def refinement_experiment(cfg: ExperimentConfig, levels: list[int]) -> RefinementReport:
    """Inter-level convergence at fixed dt, plus the temporal-order study.

    Runs every level from the same coarse-grid initial field (injected into
    the finer grids) to t_end; adjacent final states are differenced on the
    finer grid.  Differences must shrink by at least 4x per doubling, and
    the manufactured-solution order must reach 3.7.
    """
    if len(levels) < 3:
        raise ConfigError(f"need at least 3 levels, got {levels!r}")
    for a, b in zip(levels, levels[1:]):
        if b != 2 * a:
            raise ConfigError(f"levels must double: {levels!r}")
    if cfg.ic_kind == "checkpoint":
        raise ConfigError("refinement requires an analytic initial condition")

    coarse_cfg = replace(cfg, n_modes=levels[0])
    u0_coarse, _ = build_initial(coarse_cfg)
    params, stepper = cfg.phys(), cfg.stepper()

    def _level(n: int) -> SpectralField:
        grid = make_grid(n, cfg.box_length, cfg.cutoff_fraction)
        u0 = u0_coarse if n == levels[0] else inject_field(u0_coarse, grid)
        snaps = run(
            u0,
            params,
            stepper,
            cfg.t_end,
            output_every=cfg.t_end,
        )
        return snaps[-1].u

    finals = _parallel([lambda n=n: _level(n) for n in levels])

    diffs = [
        l2_norm(inject_field(ua, ub.grid) - ub) for ua, ub in zip(finals, finals[1:])
    ]
    ratios = [d0 / d1 if d1 > 0.0 else math.inf for d0, d1 in zip(diffs, diffs[1:])]
    spatial_ok = all(math.isfinite(r) and r >= 4.0 for r in ratios)

    ladder, errors, orders = _temporal_order_study()
    observed = min(orders)
    temporal_ok = observed >= 3.7

    return RefinementReport(
        levels=list(levels),
        diffs=diffs,
        ratios=ratios,
        spatial_ok=spatial_ok,
        dt_ladder=ladder,
        errors=errors,
        orders=orders,
        observed_order=observed,
        temporal_ok=temporal_ok,
        passed=spatial_ok and temporal_ok,
    )
