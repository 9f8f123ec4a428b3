"""Energy-budget accounting, decay diagnostics, and the snapshot CSV.

Everything here is a pure fold over solver snapshots: the stepper hands over
immutable states, each with the norms of its heat/f/g split, and this module
turns them into records, checks, and report rows.  The dissipation integrals
in ``EnergyRecord`` come straight from the accumulators the stepper integrates
alongside the field (scheme-order accurate).

The hooks ``record_energy`` and ``decay_snapshot`` read only a snapshot's
ball vector (``SolverState.vector``, the half-spectrum ball entries in the
layout of ``GridSpec.ball``) and its pointwise sums
(``SolverState.pointwise``, taken by the stepper from its stage-1 grid
values), so a snapshot of the stepper is never expanded to its full field
and never transformed again: weighted sums over the vector, one power
spectrum per ``decay_snapshot``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .certificate import Check, verdict_word
from .dynamics import DuhamelNorms, SolverState
from .spectral import _EMBED_P, PhysParams

__all__ = [
    "EnergyRecord",
    "EnergyInequalityReport",
    "DecayDiagnostics",
    "SpacetimeReport",
    "SeriesRecorder",
    "CSV_COLUMNS",
    "record_energy",
    "check_energy_inequality",
    "decay_snapshot",
    "lbeta_spacetime_report",
    "write_series_csv",
]


@dataclass(frozen=True)
class EnergyRecord:
    """One row of the energy budget.

    residual = l2_sq + cum_visc + cum_damp - baseline, where baseline is the
    budget total at the first record (for a fresh run, the initial energy).
    For the truncated system the budget balances exactly, so the residual
    measures nothing but time-integration and roundoff error.
    """

    t: float
    l2_sq: float
    cum_visc: float  # 2 nu * integral of ||grad u||^2 ds
    cum_damp: float  # 2 alpha * integral of ||u||^(beta+1) in L^(beta+1) ds
    residual: float
    baseline: float


@dataclass(frozen=True)
class EnergyInequalityReport:
    """The worst residual's check against the budget tol * |baseline|, and where it fell."""

    check: Check
    tol: float
    baseline: float
    worst_t: float

    @property
    def passed(self) -> bool:
        return self.check.passed

    def describe(self) -> str:
        return (
            f"energy inequality {verdict_word(self.passed)}: worst residual "
            f"{self.check.value:.3e} at t = {self.worst_t:g} "
            f"(budget {self.tol:.1e} * baseline {self.baseline:.6g})"
        )


def record_energy(state: SolverState, prev: EnergyRecord | None = None) -> EnergyRecord:
    """Extend the ledger by one snapshot, carrying the baseline forward.

    prev=None opens the ledger at this state: its budget total becomes the
    baseline and the residual is zero.
    """
    if prev is not None and state.t <= prev.t:
        raise ValueError(f"non-monotone time: snapshot at t = {state.t!r} after t = {prev.t!r}")
    ball = state.grid.ball
    l2_sq = state.grid.volume * ball.norm_sq(state.vector)
    total = l2_sq + state.cum_visc + state.cum_damp
    baseline = total if prev is None else prev.baseline
    return EnergyRecord(
        t=state.t,
        l2_sq=l2_sq,
        cum_visc=state.cum_visc,
        cum_damp=state.cum_damp,
        residual=total - baseline,
        baseline=baseline,
    )


def check_energy_inequality(series: Sequence[EnergyRecord], tol: float) -> EnergyInequalityReport:
    """Certify residual <= tol * baseline at every snapshot.

    A dissipative scheme can only lose energy to the budget, so a residual
    above the tolerance means the accounting (or the solver) is wrong.  A
    violation is returned as a failing report naming the worst time, not
    raised, so callers can fold many runs into one table.  The worst record
    is the first NaN residual if there is one, where max() would skip a NaN
    that follows a larger residual.
    """
    if not series:
        raise ValueError("empty energy series")
    worst = series[int(np.argmax([r.residual for r in series]))]
    baseline = series[0].baseline
    budget = tol * abs(baseline) if baseline != 0.0 else tol
    return EnergyInequalityReport(
        check=Check("energy inequality", worst.residual, budget, worst.residual <= budget),
        tol=tol,
        baseline=baseline,
        worst_t=worst.t,
    )


@dataclass(frozen=True)
class DecayDiagnostics:
    """Per-snapshot large-time diagnostics.

    lbeta_E1 / lbeta_E2 accumulate the space-time integral of |u|^beta split
    by the pointwise classification |u| <= 1 vs |u| > 1 on collocation
    samples (trapezoid in time at the snapshot cadence).  rate_e1 / rate_e2
    hold the instantaneous spatial integrals so the next snapshot can extend
    the quadrature; embed_ratio is the pointwise-in-time ratio
    ||u||_{L^{10/3}}^{10/3} / (||u||_{L^2}^{4/3} ||grad u||_{L^2}^2) whose
    running maximum calibrates the low-amplitude majorant.
    """

    t: float
    hminus2: float
    w1_l2: float
    w2_l2: float
    lbeta_E1: float
    lbeta_E2: float
    heat_l2: float
    f_hminus2: float
    g_hminus2: float
    linf: float
    rate_e1: float
    rate_e2: float
    embed_ratio: float


def decay_snapshot(state: SolverState, accum: DecayDiagnostics | None = None) -> DecayDiagnostics:
    """Fold one snapshot into the decay diagnostics.

    Pass accum=None to open the series (cumulative integrals start at zero).
    The rates, linf and the embedding mass come from state.pointwise, the
    norms from one power spectrum of state.vector. The heat/f/g norms come
    from state.duhamel and are NaN when it is None, keeping the CSV shape
    fixed.
    """
    grid = state.grid
    ball = grid.ball
    pointwise = state.pointwise
    multipliers = (None, ball.k_sq, ball.hminus2, ball.low_shell, ~ball.low_shell)
    l2_sq, gsq, hminus2_sq, w1_sq, w2_sq = (
        grid.volume * s for s in ball.norms_sq(state.vector, multipliers)
    )
    l2 = math.sqrt(l2_sq)
    denom = l2 ** (4.0 / 3.0) * gsq
    embed_ratio = pointwise.embed_mass / denom if denom > 1e-300 else 0.0

    if accum is None:
        lbeta_e1, lbeta_e2 = 0.0, 0.0
    else:
        if state.t <= accum.t:
            raise ValueError(
                f"non-monotone time: snapshot at t = {state.t!r} after t = {accum.t!r}"
            )
        half_dt = 0.5 * (state.t - accum.t)
        lbeta_e1 = accum.lbeta_E1 + half_dt * (accum.rate_e1 + pointwise.rate_e1)
        lbeta_e2 = accum.lbeta_E2 + half_dt * (accum.rate_e2 + pointwise.rate_e2)

    split = state.duhamel or DuhamelNorms(*[math.nan] * 4)

    return DecayDiagnostics(
        t=state.t,
        hminus2=math.sqrt(hminus2_sq),
        w1_l2=math.sqrt(w1_sq),
        w2_l2=math.sqrt(w2_sq),
        lbeta_E1=lbeta_e1,
        lbeta_E2=lbeta_e2,
        heat_l2=split.heat_l2,
        f_hminus2=split.f_hminus2,
        g_hminus2=split.g_hminus2,
        linf=pointwise.linf,
        rate_e1=pointwise.rate_e1,
        rate_e2=pointwise.rate_e2,
        embed_ratio=embed_ratio,
    )


@dataclass(frozen=True)
class SpacetimeReport:
    """Space-time integrability of |u|^beta, split by amplitude.

    majorant = embed_constant * sup_t ||u||^(4/3) * int ||grad u||^2
             + int int |u|^(beta+1),
    with embed_constant the empirical maximum of the per-snapshot embedding
    ratio -- a measured calibration, not an asserted universal constant.
    """

    l1: float
    l2: float
    embed_constant: float
    grad_integral: float
    damp_integral: float
    majorant: float
    dominated: bool
    peak_increment: float
    tail_increment: float

    @property
    def total(self) -> float:
        return self.l1 + self.l2

    def describe(self) -> str:
        return (
            f"space-time |u|^beta mass: low-amplitude part {self.l1:.6e}, "
            f"high-amplitude part {self.l2:.6e}; majorant {self.majorant:.6e} "
            f"(embedding constant {self.embed_constant:.4f}) "
            f"{'dominates' if self.dominated else 'DOES NOT dominate'}; "
            f"tail increment {self.tail_increment:.3e} vs peak {self.peak_increment:.3e}"
        )


def lbeta_spacetime_report(
    diags: Sequence[DecayDiagnostics],
    series: Sequence[EnergyRecord],
    params: PhysParams,
) -> SpacetimeReport:
    """Report the split space-time mass of |u|^beta and its energy majorant.

    Requires beta >= 10/3 (below that the low-amplitude part is not
    controlled by the energy budget) and alpha > 0 (the high-amplitude part
    is read off the damping accumulator).  Raises when the accumulators are
    non-finite or their increments fail to taper over the run tail; both
    conditions mean the run left the decaying regime the bound describes.
    """
    if params.beta < _EMBED_P - 1e-12:
        raise ValueError(f"space-time report requires beta >= 10/3, got beta = {params.beta!r}")
    if params.alpha <= 0.0:
        raise ValueError("space-time report requires alpha > 0 (damping accumulator is the majorant's second term)")
    if len(diags) < 2 or len(series) < 2:
        raise ValueError("need at least two snapshots to report space-time integrals")

    l1 = diags[-1].lbeta_E1
    l2 = diags[-1].lbeta_E2
    if not (math.isfinite(l1) and math.isfinite(l2)):
        raise ValueError(f"space-time accumulators are not finite: E1 = {l1!r}, E2 = {l2!r}")

    totals = np.array([d.lbeta_E1 + d.lbeta_E2 for d in diags])
    increments = np.diff(totals)
    peak = float(increments.max(initial=0.0))
    slack = 1e-9 * (peak + 1e-300)
    if float(increments.min(initial=0.0)) < -slack:
        raise ValueError("space-time accumulators decreased between snapshots")
    tail = increments[-max(2, increments.size // 4):]
    tapering = bool(np.all(np.diff(tail) <= slack)) and tail[-1] <= 0.5 * peak + slack
    if not tapering:
        raise ValueError(
            f"space-time increments do not taper over the run tail "
            f"(last {float(tail[-1]):.3e} vs peak {peak:.3e})"
        )

    embed_constant = max(d.embed_ratio for d in diags)
    grad_integral = series[-1].cum_visc / (2.0 * params.nu)
    damp_integral = series[-1].cum_damp / (2.0 * params.alpha)
    sup_l2_sq = max(r.l2_sq for r in series)
    majorant = embed_constant * sup_l2_sq ** (2.0 / 3.0) * grad_integral + damp_integral

    return SpacetimeReport(
        l1=l1,
        l2=l2,
        embed_constant=embed_constant,
        grad_integral=grad_integral,
        damp_integral=damp_integral,
        majorant=majorant,
        dominated=bool(l1 + l2 <= majorant * (1.0 + 1e-9) + 1e-300),
        peak_increment=peak,
        tail_increment=float(tail[-1]),
    )


class SeriesRecorder:
    """Snapshot hook that folds a run into energy and decay series in step."""

    def __init__(self) -> None:
        self.energy: list[EnergyRecord] = []
        self.decay: list[DecayDiagnostics] = []

    def __call__(self, snap: SolverState) -> None:
        energy, decay = (self.energy[-1], self.decay[-1]) if self.energy else (None, None)
        self.energy.append(record_energy(snap, energy))
        self.decay.append(decay_snapshot(snap, decay))


CSV_COLUMNS = (
    "t",
    "l2_sq",
    "cum_visc",
    "cum_damp",
    "residual",
    "hminus2",
    "w1_l2",
    "w2_l2",
    "lbeta_E1",
    "lbeta_E2",
    "heat_l2",
    "f_hminus2",
    "g_hminus2",
    "linf",
)


def write_series_csv(
    path,
    energy: Sequence[EnergyRecord],
    decay: Sequence[DecayDiagnostics],
) -> None:
    """Write one CSV row per snapshot (header mandatory, full double precision)."""
    if len(energy) != len(decay):
        raise ValueError(f"series length mismatch: {len(energy)} energy vs {len(decay)} decay rows")
    for e, d in zip(energy, decay):
        if e.t != d.t:
            raise ValueError(f"series misaligned at t = {e.t!r} vs {d.t!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for e, d in zip(energy, decay):
            row = (
                e.t, e.l2_sq, e.cum_visc, e.cum_damp, e.residual,
                d.hminus2, d.w1_l2, d.w2_l2, d.lbeta_E1, d.lbeta_E2,
                d.heat_l2, d.f_hminus2, d.g_hminus2, d.linf,
            )
            fh.write(",".join("%.17e" % v for v in row) + "\n")
