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

The decay verdict is not formed here: ``experiments.decay_experiment``
reads the accumulated ``lbeta_E1 + lbeta_E2`` totals and turns their taper
into named checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .certificate import Check, _write_atomic
from .dynamics import DuhamelNorms, SolverState

__all__ = [
    "EnergyRecord",
    "EnergyInequalityReport",
    "DecayDiagnostics",
    "SeriesRecorder",
    "CSV_COLUMNS",
    "record_energy",
    "check_energy_inequality",
    "decay_snapshot",
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
    """The largest |residual|'s check against the budget tol * |baseline|, and where it fell."""

    check: Check
    tol: float
    baseline: float
    worst_t: float


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
    """Certify |residual| <= tol * |baseline| (tol when the baseline is 0) at every snapshot.

    The truncated system balances exactly, so a residual of either sign
    beyond the budget means the accounting (or the solver) is wrong; the
    one-sided inequality residual <= budget follows.  A violation is
    returned as a failing report naming the worst time, not raised, so
    callers can fold many runs into one table.  The worst record is the
    first NaN residual if there is one, where max() would skip a NaN that
    follows a larger residual.
    """
    if not series:
        raise ValueError("empty energy series")
    worst = series[int(np.argmax(np.abs([r.residual for r in series])))]
    baseline = series[0].baseline
    budget = tol * abs(baseline) if baseline != 0.0 else tol
    size = abs(worst.residual)
    return EnergyInequalityReport(
        check=Check("two-sided energy balance", size, budget, size <= budget),
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
    the quadrature.  Every field is a column of series.csv except the rates.
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


def decay_snapshot(state: SolverState, accum: DecayDiagnostics | None = None) -> DecayDiagnostics:
    """Fold one snapshot into the decay diagnostics.

    Pass accum=None to open the series (cumulative integrals start at zero).
    The rates and linf come from state.pointwise, the norms from one power
    spectrum of state.vector. The heat/f/g norms come from state.duhamel and
    are NaN when it is None, keeping the CSV shape fixed.
    """
    grid = state.grid
    ball = grid.ball
    pointwise = state.pointwise
    hminus2_sq, w1_sq, w2_sq = (grid.volume * s for s in
                                ball.norms_sq(state.vector, (ball.hminus2, ball.low_shell, ~ball.low_shell)))

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
#: the columns an EnergyRecord holds; the decay row holds the rest
_ENERGY_COLUMNS = frozenset(f.name for f in fields(EnergyRecord))


def write_series_csv(
    path,
    energy: Sequence[EnergyRecord],
    decay: Sequence[DecayDiagnostics],
) -> None:
    """Write one CSV row per snapshot (header mandatory, full double precision), atomically."""
    if len(energy) != len(decay):
        raise ValueError(f"series length mismatch: {len(energy)} energy vs {len(decay)} decay rows")
    for e, d in zip(energy, decay):
        if e.t != d.t:
            raise ValueError(f"series misaligned at t = {e.t!r} vs {d.t!r}")

    def write(fh) -> None:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for e, d in zip(energy, decay):
            fh.write(",".join("%.17e" % getattr(e if c in _ENERGY_COLUMNS else d, c)
                              for c in CSV_COLUMNS) + "\n")

    _write_atomic(path, "w", write, "ascii")
