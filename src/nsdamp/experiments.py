"""Experiment drivers: each one turns a certified property into a run.

A driver takes an ``ExperimentConfig`` (plus its own knobs), runs the solver,
checks the bound it exists to certify, and returns a report whose ``passed``
and ``lines()`` are its ``Certificate``'s: one ``Check`` per comparison, each
passing only on finite numbers (see ``certificate``).  Violations are
reported, not raised; genuinely malformed inputs, and configs outside a
driver's theorem, raise ``ConfigError`` before anything is integrated: each
driver checks its own preconditions.
The command line writes ``report.txt``; the drivers write only data.  They
start, perturb, inject and difference ball vectors (``SolverState.vector``,
measured by ``GridSpec.ball``'s sums) and build no full field.

Independent jobs inside one driver (the two twin runs, refinement levels
and the dt ladder) run on a thread pool (spectral._parallel); the FFT
backend releases the GIL, so this scales on multicore boxes and degrades
to serial on one core.  NSD_THREADS caps the pool, and also the crew of
slab workers a kernel keeps (see dynamics._Kernel); spectral._workers
gives every crew built inside a job one worker, so the levels never nest.
Each job owns its state and writes nothing shared, so results are bitwise
independent of scheduling.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .certificate import Certificate, Certified, Check, _refuse_unusable_directory
from .checkpoint import read_checkpoint, write_checkpoint
from .config import ConfigError, ExperimentConfig, canonical_text
from .dynamics import (
    SeparableTarget,
    SolverState,
    StepperConfig,
    manufactured_forcing,
    run,
    trajectory,
)
from .initial_conditions import _random_vector, _taylor_green_vector, taylor_green
from .inequalities import gronwall_constant
from .ledger import SeriesRecorder, check_energy_inequality, write_series_csv
from .spectral import GridSpec, PhysParams, _parallel, make_grid

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
    "build_initial",
]

ENERGY_TOL = 1e-6

#: samples each twin run advances per pool job before the pair is compared
_TWIN_BLOCK = 16

#: the largest x with exp(x) finite
_LOG_MAX = math.log(sys.float_info.max)

#: the decay experiment's floor on beta: the exponent of the embedding
#: ||u||_{L^(10/3)}^(10/3) <= C ||u||_L2^(4/3) ||grad u||_L2^2 in three dimensions
_EMBED_P = 10.0 / 3.0


def build_initial(cfg: ExperimentConfig) -> SolverState:
    """The start of a run per config, a state holding only its ball vector: at t = 0 for an analytic
    kind, else at the checkpoint's time, its field's entries (validated by the reader), m = 0 zeroed."""
    grid = cfg.grid()
    if cfg.ic_kind != "checkpoint":
        v = (_taylor_green_vector(grid, cfg.ic_amplitude) if cfg.ic_kind == "taylor-green"
             else _random_vector(grid, cfg.ic_seed, cfg.ic_amplitude))
        return SolverState(grid, v, 0.0, cfg.phys())

    state = read_checkpoint(cfg.ic_path)
    for key, want, got in (
        ("grid.n_modes", grid.n_modes, state.grid.n_modes),
        ("grid.box_length", grid.box_length, state.grid.box_length),
        ("grid.cutoff_fraction (via radius)", grid.cutoff_radius, state.grid.cutoff_radius),
        ("phys.nu", cfg.nu, state.params.nu),
        ("phys.alpha", cfg.alpha, state.params.alpha),
        ("phys.beta", cfg.beta, state.params.beta),
    ):
        if abs(want - got) > 1e-12 * max(abs(want), abs(got), 1.0):
            raise ConfigError(f"{key} = {want!r} does not match checkpoint value {got!r}")
    v = state.vector.copy()
    v[:, 0] = 0.0
    return SolverState(state.grid, v, state.t, state.params)


def _energetic_start(cfg: ExperimentConfig, vacuous: str) -> SolverState:
    """build_initial(cfg), refused with ConfigError when its energy ||u0||^2, as the ledger's first
    record takes it, is 0 (an amplitude so small that its squares underflow); vacuous says what
    would then pass."""
    start = build_initial(cfg)
    if start.grid.volume * start.grid.ball.norm_sq(start.vector) == 0.0:
        raise ConfigError(f"the initial energy ||u0||^2 is 0, so {vacuous}")
    return start


def _injection(coarse: GridSpec, fine: GridSpec) -> np.ndarray:
    """Positions in fine.ball of coarse.ball's entries (same box and cutoff): the one injection rule."""
    n, m = coarse.n_modes, fine.n_modes
    modes = coarse.mode_numbers[np.array(np.unravel_index(coarse.ball.full_index, (n, n, n)))]
    return np.searchsorted(fine.ball.full_index, np.ravel_multi_index(modes % m, (m, m, m)))


def _inject(v: np.ndarray, index: np.ndarray, fine: GridSpec) -> np.ndarray:
    """The ball vector of fine holding v's entries at index (an _injection), zero elsewhere."""
    out = np.zeros((3, fine.ball.k_sq.size), dtype=np.complex128)
    out[:, index] = v
    return out


# ---------------------------------------------------------------------------
# plain run


@dataclass
class RunResult(Certified):
    config: ExperimentConfig
    snapshots: list[SolverState]
    recorder: SeriesRecorder
    certificate: Certificate


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> RunResult:
    """Integrate per config; write series.csv and final.ckpt into out_dir when given.

    Passes when the run completes and the energy budget closes to the
    package tolerance at every snapshot, in both directions
    (ledger.check_energy_inequality). A start of zero energy is refused
    with ConfigError before anything is integrated, as in decay_experiment:
    the budget would be 0 and the balance pass on a ledger that measured
    nothing, as is (OSError) an out_dir that cannot become a directory.
    """
    if out_dir is not None:
        _refuse_unusable_directory(out_dir)
    # popped into the run: once its start-up copied it, nothing holds it
    start = [_energetic_start(cfg, "the energy balance would measure nothing and pass vacuously")]
    t_start = start[0].t
    recorder = SeriesRecorder()
    snapshots = run(start.pop(), cfg.phys(), cfg.stepper(), cfg.t_end, t_start=t_start,
                    output_every=cfg.output_every, hooks=(recorder,))
    energy = recorder.energy
    report = check_energy_inequality(energy, ENERGY_TOL)
    last = energy[-1]
    body = [
        "# run",
        "",
        canonical_text(cfg).rstrip(),
        "",
        f"snapshots: {len(snapshots)}",
        f"final t = {last.t:.6g}, |u|^2 = {last.l2_sq:.12e}",
        f"cumulative viscous dissipation = {last.cum_visc:.12e}",
        f"cumulative damping dissipation = {last.cum_damp:.12e}",
        f"worst energy residual at t = {report.worst_t:g} "
        f"(budget {report.tol:.1e} * baseline {report.baseline:.6g})",
    ]
    if out_dir is not None:
        write_series_csv(os.path.join(out_dir, "series.csv"), energy, recorder.decay)
        write_checkpoint(snapshots[-1], os.path.join(out_dir, "final.ckpt"))
    return RunResult(cfg, snapshots, recorder, Certificate([report.check], body))


# ---------------------------------------------------------------------------
# twin runs (uniqueness / stability)


def _growth_constant(cfg: ExperimentConfig, horizon: float, name: str) -> float:
    """The growth constant C of the uniqueness bound for the driver name, checked for its horizon.

    horizon is the longest time t over which the twin or continuity bound
    takes its factor exp(2 C t): the twin's span t_end - t_start, the
    continuity ladder's t0. nu = 1 (C is derived from alpha and beta
    alone), alpha > 0 and beta > 3 are required, and a C or a factor that
    overflows is refused, since every sample would then meet the bound.
    """
    if cfg.nu != 1.0:
        raise ConfigError(f"the {name} bound is derived for phys.nu = 1 only; got phys.nu = {cfg.nu!r}")
    if not cfg.alpha > 0.0:
        raise ConfigError(f"{name} requires alpha > 0")
    if not cfg.beta > 3.0:
        raise ConfigError("uniqueness requires beta > 3")
    constant = gronwall_constant(cfg.alpha, cfg.beta)
    if not math.isfinite(constant):
        raise ConfigError(f"growth constant (2/alpha)^(2/(beta-3))/2 overflows at alpha = "
                          f"{cfg.alpha!r}, beta = {cfg.beta!r}: the {name} bound is vacuous")
    if 2.0 * constant * horizon > _LOG_MAX:
        raise ConfigError(f"growth factor exp(2 C t) overflows by t = {horizon!r} at growth "
                          f"constant C = {constant:.3e}: the {name} bound is vacuous")
    return constant


@dataclass
class TwinReport(Certified):
    delta: float
    constant: float
    w0_l2: float
    times: np.ndarray
    lhs: np.ndarray  # |w|^2 + 2 int |grad w|^2
    rhs: np.ndarray  # 1.1 |w0|^2 exp(2 C t)
    ratio_max: float  # max |w| / (|w0| e^{C t})
    first_violation: float | None
    certificate: Certificate


def twin_experiment(cfg: ExperimentConfig, delta: float) -> TwinReport:
    """Two runs from u0 and u0 + delta * (unit random solenoidal field).

    Certifies the exponential stability bound: with w the difference and
    C the growth constant for (alpha, beta),

        |w(t)|^2 + 2 int_0^t |grad w|^2 <= 1.1 |w(0)|^2 exp(2 C t).

    Its check is the largest ratio of the two sides against 1, so a NaN
    side, which no comparison flags as a violation, fails it.
    delta = 0 degenerates to a determinism check: the difference must be
    bitwise zero. A delta that is negative, not finite, or so small that
    the perturbed start rounds back to u0 is refused with ConfigError
    before anything is integrated, as is a config that _growth_constant
    refuses for the span t_end - t_start.
    """
    if not 0.0 <= delta < math.inf:
        raise ConfigError(f"delta must be nonnegative and finite, got {delta!r}")
    start = build_initial(cfg)
    constant = _growth_constant(cfg, cfg.t_end - start.t, "twin")
    grid, ball, volume = start.grid, start.grid.ball, start.grid.volume
    v_twin = start.vector + _random_vector(grid, cfg.ic_seed + 1) * delta
    # |w(0)| as the comparison below takes it; both starts are zero at m = 0
    if delta > 0.0 and volume * ball.norm_sq(v_twin - start.vector) == 0.0:
        raise ConfigError(f"delta = {delta!r} is too small: u0 + delta * p rounds to |w(0)| = 0, "
                          "where the bound reads 0/0")

    params, stepper = cfg.phys(), cfg.stepper()
    runs = [
        trajectory(s, params, stepper, cfg.t_end, t_start=start.t, output_every=cfg.output_every)
        for s in (start, SolverState(grid, v_twin, start.t, params))
    ]
    del start, v_twin  # each run's start-up copies its vector

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

    body = [
        "# twin separation",
        "",
        f"delta = {delta:g}, growth constant = {constant:.6g}",
        f"initial separation |w(0)| = {w0:.6e}",
    ]
    if delta == 0.0:
        ratio_max = 0.0
        first = None
        check = Check("bitwise zero difference", float(w_l2.max()), 0.0, bitwise)
    else:
        violations = lhs > rhs
        ratio_max = float((w_l2 / (w0 * np.exp(constant * tau))).max())
        first = float(times[np.argmax(violations)]) if bool(violations.any()) else None
        check = Check("separation bound", float((lhs / rhs).max()), 1.0, not bool(violations.any()))
        body += [
            f"samples: {times.size}",
            f"max |w(t)| / (|w(0)| e^(C t)) = {ratio_max:.6e}",
        ]
        if first is not None:
            body.append(f"FIRST VIOLATION at t = {first:g}")
    return TwinReport(delta=delta, constant=constant, w0_l2=w0, times=times, lhs=lhs, rhs=rhs,
                      ratio_max=ratio_max, first_violation=first, certificate=Certificate([check], body))


# ---------------------------------------------------------------------------
# continuity modulus


@dataclass
class ContinuityReport(Certified):
    t0: float
    epsilons: list[float]  # descending
    moduli: list[float]  # |u(t0+eps) - u(t0)|
    moduli_back: list[float]  # |u(t0-eps) - u(t0)|
    bounds: list[float]  # 1.1 * 2 (|u0|^2 - <u(eps), u0>) e^{2 C t0}
    constant: float
    certificate: Certificate


def _falls(name: str, epsilons: list[float], values: list[float]) -> list[Check]:
    """Checks that values, one per eps of the descending ladder, fall strictly with eps."""
    return [Check(f"{name} at eps = {e1:g} below eps = {e0:g}", v1, v0, v0 > v1)
            for e0, e1, v0, v1 in zip(epsilons, epsilons[1:], values, values[1:])]


def continuity_experiment(
    cfg: ExperimentConfig, epsilons: list[float], t0: float
) -> ContinuityReport:
    """One run, keeping the snapshots the ladder reads; certifies the time-shift bound at t0.

    For each eps (all on the dt grid, 0 < eps < t0):

        |u(t0 +- eps) - u(t0)|^2 <= 1.1 * 2 (|u0|^2 - <u(eps), u0>) e^{2 C t0}

    and the forward modulus must decrease strictly along the eps ladder, as
    the bound must. Each comparison is one check; times are measured from
    the start of the run. A config that _growth_constant refuses for t0,
    or whose start has zero energy, is refused before anything is integrated.
    """
    constant = _growth_constant(cfg, t0, "continuity")
    if not epsilons:
        raise ConfigError("need at least one epsilon")
    eps_sorted = sorted(set(float(e) for e in epsilons), reverse=True)
    if len(eps_sorted) != len(epsilons):
        raise ConfigError(f"duplicate epsilons in {epsilons!r}")
    stepper = cfg.stepper()
    i_t0 = stepper.steps(t0, "t0")
    indices = {0, i_t0}  # the start, t0, each eps and t0 +- eps
    i_eps = []
    for e in eps_sorted:
        if not 0.0 < e < t0:
            raise ConfigError(f"epsilon must lie in (0, t0); got eps = {e!r}, t0 = {t0!r}")
        i_e = stepper.steps(e, "eps")
        i_eps.append(i_e)
        indices.update((i_e, i_t0 - i_e, i_t0 + i_e))
    stride = math.gcd(*indices)

    start = _energetic_start(cfg, "every shift bound would be 0 and pass vacuously")
    snapshots = trajectory(start, cfg.phys(), stepper, start.t + t0 + eps_sorted[0],
                           t_start=start.t, output_every=stride * cfg.dt)
    del start  # the start-up copies its vector
    by_index = {s.step_count: s for s in snapshots if s.step_count in indices}

    # the snapshots' ball vectors, measured with the ball's Parseval weights
    ball, volume = by_index[0].grid.ball, by_index[0].grid.volume
    v_start = by_index[0].vector
    v_t0 = by_index[i_t0].vector
    e0_sq = volume * ball.norm_sq(v_start)

    moduli, moduli_back, bounds, bound_checks = [], [], [], []
    for e, i_e in zip(eps_sorted, i_eps):
        fwd = math.sqrt(volume * ball.norm_sq(by_index[i_t0 + i_e].vector - v_t0))
        back = math.sqrt(volume * ball.norm_sq(by_index[i_t0 - i_e].vector - v_t0))
        inner = volume * ball.inner(by_index[i_e].vector, v_start)
        bound = 1.1 * 2.0 * (e0_sq - inner) * math.exp(2.0 * constant * t0)
        moduli.append(fwd)
        moduli_back.append(back)
        bounds.append(bound)
        bound_checks += [Check(f"{way} shift bound at eps = {e:g}", m**2, bound, m**2 <= bound)
                         for way, m in (("forward", fwd), ("backward", back))]

    body = [
        "# continuity modulus",
        "",
        f"t0 = {t0:g}, growth constant = {constant:.6g}",
        f"{'eps':>10} {'|shift fwd|':>14} {'|shift back|':>14} {'bound sqrt':>14}",
    ]
    for e, m, mb, b in zip(eps_sorted, moduli, moduli_back, bounds):
        body.append(f"{e:>10g} {m:>14.6e} {mb:>14.6e} {math.sqrt(b):>14.6e}")
    return ContinuityReport(
        t0=t0, epsilons=eps_sorted, moduli=moduli, moduli_back=moduli_back, bounds=bounds,
        constant=constant,
        certificate=Certificate(bound_checks + _falls("forward modulus", eps_sorted, moduli)
                                + _falls("shift bound", eps_sorted, bounds), body))


# ---------------------------------------------------------------------------
# large-time decay


@dataclass
class DecayReport(Certified):
    threshold_time: float | None
    certificate: Certificate
    recorder: SeriesRecorder = field(repr=False)


def _rises(x: np.ndarray) -> np.ndarray:
    """The steps x[i] - x[i - 1], led by x[0] - x[0]: 0, or NaN when x[0] is not finite,
    so that an inf first entry, which only falls to the next, still shows."""
    return np.diff(x, prepend=x[:1])


def _taper_checks(totals: np.ndarray) -> list[Check]:
    """The taper of the space-time accumulators, from their totals E1 + E2 at each snapshot.

    With peak the largest increment between snapshots and slack =
    1e-9 (peak + 1e-300): the least increment (0 at most) is at least
    -slack, the increments of the run tail (its last quarter, two at least)
    rise by at most slack (the largest rise, 0 at least, is the value), and
    the last is at most 0.5 peak + slack. Fewer than two totals leave one
    NaN increment, and a total that is not finite makes an increment or the
    peak so: every check that reads one fails. A peak of 0 (totals that
    never grew measured no taper) is taken as NaN, and all three fail.
    """
    increments = np.diff(totals) if totals.size > 1 else np.array([math.nan])
    peak = float(increments.max(initial=0.0)) or math.nan
    slack = 1e-9 * (peak + 1e-300)
    tail = increments[-max(2, increments.size // 4):]
    drop = float(increments.min(initial=0.0))
    rise = float(np.diff(tail).max(initial=0.0))
    last, half = float(tail[-1]), 0.5 * peak + slack
    return [
        Check("space-time accumulators never decrease", drop, -slack, drop >= -slack),
        Check("space-time tail increments do not rise", rise, slack, rise <= slack),
        Check("space-time last increment at most half the peak", last, half, last <= half),
    ]


def decay_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> DecayReport:
    """Long run with full diagnostics; certifies the decay phenomenology.

    Checks: monotone nonincreasing energy, nonincreasing low-regularity norm
    over the run tail (last half), both frequency-split norms small by the
    end, the space-time damping accumulators plateauing (final-decile
    increment at most 1% of the total; a zero total fails), the 5%-energy
    threshold being crossed within the horizon, and the accumulators'
    increments tapering (_taper_checks). The config must have alpha > 0,
    beta >= 10/3 (the embedding exponent) and box_length > 2 pi, so that
    some modes sit below |xi| = 1. A start whose energy ||u0||^2 is zero,
    as the ledger takes it (an amplitude so small that its squares
    underflow), is refused with ConfigError before anything is integrated:
    every threshold would be 0 and every check pass. series.csv goes into
    out_dir when given, checked as run_experiment checks it.
    """
    if out_dir is not None:
        _refuse_unusable_directory(out_dir)
    if not cfg.alpha > 0.0:
        raise ConfigError("decay requires alpha > 0")
    if cfg.beta < _EMBED_P - 1e-12:
        raise ConfigError("decay requires beta >= 10/3")
    if not cfg.box_length > 2.0 * math.pi:
        raise ConfigError("decay requires box_length > 2*pi (otherwise no modes sit below |xi| = 1)")
    start = _energetic_start(cfg, "every decay threshold would be 0 and pass vacuously")
    recorder = SeriesRecorder()
    snapshots = trajectory(start, cfg.phys(), cfg.stepper(), cfg.t_end, t_start=start.t,
                           output_every=cfg.output_every, hooks=(recorder,))
    del start  # the start-up copies its vector
    for _ in snapshots:
        pass

    energy = recorder.energy
    diags = recorder.decay
    l2 = np.sqrt([r.l2_sq for r in energy])
    slack = 1e-12 * l2[0]
    small = 0.05 * l2[0]

    rise = float(_rises(l2).max())
    h = np.array([d.hminus2 for d in diags])
    tail_rise = float(_rises(h[h.size // 2 :]).max())
    last = diags[-1]
    band = float(np.maximum(last.w1_l2, last.w2_l2))
    totals = np.array([d.lbeta_E1 + d.lbeta_E2 for d in diags])
    decile_start = totals[int(round(0.9 * (totals.size - 1)))]
    # a zero total accumulated nothing to plateau: NaN, as a total that is not finite makes it
    decile_frac = (totals[-1] - decile_start) / totals[-1] if totals[-1] != 0.0 else math.nan
    below = np.flatnonzero(l2 <= small)
    threshold_time = float(energy[below[0]].t) if below.size else None
    checks = [
        Check("energy monotone nonincreasing", rise, slack, rise <= slack),
        Check("low-regularity norm nonincreasing over tail", tail_rise, slack, tail_rise <= slack),
        Check("both frequency bands small by the end", band, small, band <= small),
        Check("space-time accumulators plateau", decile_frac, 0.01, decile_frac <= 0.01),
        Check("5% energy threshold crossed", float(l2.min()), small, threshold_time is not None),
        *_taper_checks(totals),
    ]

    body = [
        "# large-time decay",
        "",
        f"final frequency bands: w1 = {last.w1_l2:.4e}, w2 = {last.w2_l2:.4e}",
        f"energy fell below 5% of initial at t = {threshold_time:g}" if threshold_time is not None
        else "energy never fell below 5% of initial within the horizon",
        f"space-time |u|^beta mass: low-amplitude part {last.lbeta_E1:.6e}, "
        f"high-amplitude part {last.lbeta_E2:.6e}",
    ]
    if out_dir is not None:
        write_series_csv(os.path.join(out_dir, "series.csv"), energy, diags)
    return DecayReport(threshold_time, Certificate(checks, body), recorder)


# ---------------------------------------------------------------------------
# refinement / convergence


@dataclass
class RefinementReport(Certified):
    levels: list[int]
    diffs: list[float]  # |u_N(T) - u_2N(T)| between adjacent levels
    dt_ladder: list[float]
    errors: list[float]  # relative, of the manufactured solution at each dt
    certificate: Certificate


def _temporal_order_study() -> tuple[list[float], list[float], list[float]]:
    """Fixed manufactured-solution study isolating the time discretization.

    The target a(t) U solves the truncated system exactly under the closed
    -form forcing, so spatial error is identically zero and the measured
    error is pure time-integration error.  The dt ladder sits well above
    the roundoff floor so the Richardson estimate is clean.
    """
    grid = make_grid(16, 2.0 * np.pi)
    params = PhysParams(nu=0.4, alpha=0.5, beta=5.0)
    target = SeparableTarget(
        taylor_green(grid, amplitude=0.3),
        lambda t: 1.0 + 0.4 * math.sin(2.0 * t),
        lambda t: 0.8 * math.cos(2.0 * t),
        params,
    )
    forcing = manufactured_forcing(target, params)
    horizon = 0.5
    ladder = [2e-2, 1e-2, 5e-3]
    start = SolverState(grid, target.amplitude(0.0) * target.vector, 0.0, params)
    exact = target.amplitude(horizon) * target.vector

    def _error(dt: float) -> float:
        *_, last = run(start, params, StepperConfig(dt=dt), horizon, forcing=forcing,
                       output_every=horizon)
        return math.sqrt(grid.ball.norm_sq(last.vector - exact) / grid.ball.norm_sq(exact))

    errors = _parallel([lambda d=d: _error(d) for d in ladder])
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    return ladder, errors, orders


def refinement_experiment(cfg: ExperimentConfig, levels: list[int]) -> RefinementReport:
    """Inter-level convergence at fixed dt, plus the temporal-order study.

    Runs every level from the same coarse-grid initial field (injected into
    the finer grids) to t_end; adjacent final states are differenced on the
    finer grid.  Differences must shrink by at least 4x per doubling, and
    the manufactured-solution order must reach 3.7.  A start of zero energy
    is refused before anything is integrated.
    """
    if len(levels) < 3:
        raise ConfigError(f"need at least 3 levels, got {levels!r}")
    for a, b in zip(levels, levels[1:]):
        if b != 2 * a:
            raise ConfigError(f"levels must double: {levels!r}")
    if cfg.ic_kind == "checkpoint":
        raise ConfigError("refinement requires an analytic initial condition")

    start = _energetic_start(replace(cfg, n_modes=levels[0]),
                             "every level difference would be 0 and measure no convergence")
    params, stepper = cfg.phys(), cfg.stepper()
    grids = [start.grid] + [make_grid(n, cfg.box_length, cfg.cutoff_fraction) for n in levels[1:]]
    # each level's start is the previous level's, injected; each map serves a start and a difference
    maps = [_injection(a, b) for a, b in zip(grids, grids[1:])]
    starts = [start.vector]
    for grid, index in zip(grids[1:], maps):
        starts.append(_inject(starts[-1], index, grid))
    finals = _parallel([lambda g=g, v=v: run(SolverState(g, v, 0.0, params), params,
                                             stepper, cfg.t_end, output_every=cfg.t_end)[-1].vector
                        for g, v in zip(grids, starts)])
    diffs = [math.sqrt(g.volume * g.ball.norm_sq(_inject(va, index, g) - vb))
             for g, index, va, vb in zip(grids[1:], maps, finals, finals[1:])]
    # a factor over a zero finer difference is inf, and fails its check like a NaN one
    ratios = [d0 / d1 if d1 > 0.0 else math.inf for d0, d1 in zip(diffs, diffs[1:])]
    spatial = [Check(f"shrink factor |u_{na}(T) - u_{nb}(T)| / |u_{nb}(T) - u_{nc}(T)|", r, 4.0,
                     r >= 4.0)
               for na, nb, nc, r in zip(levels, levels[1:], levels[2:], ratios)]
    ladder, errors, orders = _temporal_order_study()
    temporal = [Check(f"temporal order from dt = {a:g} to {b:g}", o, 3.7, o >= 3.7)
                for a, b, o in zip(ladder, ladder[1:], orders)]

    body = ["# refinement", "",
            *(f"|u_{na}(T) - u_{nb}(T)| = {d:.6e}" for na, nb, d in zip(levels, levels[1:], diffs)),
            "",
            *(f"manufactured solution, dt = {dt:g}: rel error {e:.6e}" for dt, e in zip(ladder, errors))]
    return RefinementReport(levels=list(levels), diffs=diffs, dt_ladder=ladder, errors=errors,
                            certificate=Certificate(spatial + temporal, body))
