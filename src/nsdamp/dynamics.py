"""Truncated damped Navier-Stokes dynamics and its time integrator.

The evolved system, for a divergence-free field u supported in the cutoff
ball (J = sharp truncation to the ball, P = Leray projection):

    du/dt = -P J div(u x u) - alpha P J(|u|^(beta-1) u) + nu Laplacian u

Both nonlinear terms are evaluated pointwise in physical space and then
truncated and projected, so they stay inside the state space; the m = 0
component of the damping force is removed as well (comoving-frame choice,
keeping the velocity mean at zero; this leaves the energy budget untouched
because <damping, u> never sees the mean mode of the force).

Time stepping is classical RK4 applied after the exact integrating-factor
substitution v = exp(nu |xi|^2 t) u, so the viscous term is treated exactly
and only the nonlinearity is discretized. The two dissipation integrals
(2 nu int ||grad u||^2 and 2 alpha int int |u|^(beta+1)) ride along as
augmented scalar unknowns integrated by the same RK4 stage combination,
which keeps the discrete energy ledger accurate to the scheme's own order.

The stepper holds the state as a flat vector of the ball's coefficients in
the rfft half-spectrum layout (shape (3, n_ball), see _Ball) and moves to
physical space with real-to-complex transforms; everything spectral works
on those vectors only. Public arrays, snapshots, hooks and checkpoints stay
full (3, N, N, N) coefficient arrays: run() expands the state only at the
output cadence, and the expansion is Hermitian by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.fft as _fft

from .spectral import GridSpec, PhysParams, SpectralField, leray_project

__all__ = [
    "SolverState",
    "StepperConfig",
    "CFLError",
    "BlowupError",
    "DuhamelTracker",
    "advection",
    "damping",
    "tendency",
    "pressure_field",
    "step",
    "run",
    "SeparableTarget",
    "manufactured_forcing",
]

#: floor inside the CFL denominator, guarding the zero field.
_CFL_FLOOR = 1e-30

#: relative tolerance for "this time lies on the dt grid" checks.
_GRID_ALIGN_TOL = 1e-8

#: Duhamel reconstruction drift that aborts a run (roundoff sits near 1e-13).
_DUHAMEL_DRIFT_TOL = 1e-6


class CFLError(RuntimeError):
    """The requested step size violates the advective/damping CFL bound."""


class BlowupError(RuntimeError):
    """Non-finite values appeared during time stepping."""


@dataclass
class SolverState:
    """Solution snapshot: time, field, parameters, and the running dissipation integrals.

    cum_visc = 2 nu int_0^t ||grad u||^2 ds and
    cum_damp = 2 alpha int_0^t int |u|^(beta+1) dx ds,
    both integrated with the stepper's own RK4 quadrature from the start of
    the run this state belongs to.
    """

    t: float
    u: SpectralField
    params: PhysParams
    step_count: int = 0
    cum_visc: float = 0.0
    cum_damp: float = 0.0

    @property
    def grid(self) -> GridSpec:
        return self.u.grid

    def copy(self) -> "SolverState":
        return replace(self, u=self.u.copy())


@dataclass(frozen=True)
class StepperConfig:
    """Time-stepping knobs for the integrating-factor RK4 stepper: step size dt, CFL safety factor."""

    dt: float
    safety: float = 0.9

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not 0.0 < self.safety <= 1.0:
            raise ValueError(f"safety must lie in (0, 1], got {self.safety!r}")


# ---------------------------------------------------------------------------
# the ball in rfft layout


class _Ball:
    """The cutoff ball of one grid as flat indices into its rfft half spectrum.

    Entry j of a ball vector (shape (3, n_ball)) is the coefficient at flat
    position index[j] of a (3, N, N, N/2+1) rfft array: every ball mode with
    m3 > 0, and in the m3 = 0 plane one mode of each conjugate pair (m1 > 0,
    or m1 = 0 and m2 >= 0, so m = 0 is entry 0). The other half of the
    spectrum is the complex conjugate, written out by scatter() and
    expand(), so every array built from a ball vector is Hermitian by
    construction. The cutoff keeps |m3| <= N/3, so the Nyquist plane
    m3 = N/2 holds no entry. Parseval weights are 2 for every entry (it
    stands for itself and its conjugate) and 1 for m = 0.

    All arrays are read-only; nothing here is scratch space, so threads may
    share one instance.
    """

    def __init__(self, grid: GridSpec):
        n = grid.n_modes
        half = n // 2 + 1
        self.grid = grid
        self.rfft_shape = (3, n, n, half)
        m = grid.mode_numbers
        mx, my, mz = np.meshgrid(m, m, m[:half], indexing="ij")
        kept = grid.ball_mask[:, :, :half] & ((mz > 0) | (mx > 0) | ((mx == 0) & (my >= 0)))
        self.index = np.flatnonzero(kept)
        ix, iy, iz = np.unravel_index(self.index, (n, n, half))
        self.full_index = np.ravel_multi_index((ix, iy, iz), (n, n, n))
        conj = ((-ix) % n, (-iy) % n, (-iz) % n)
        self.conj_full_index = np.ravel_multi_index(conj, (n, n, n))[1:]
        self.plane = np.flatnonzero(iz == 0)[1:]  # m3 = 0 entries other than m = 0
        self.conj_plane_index = np.ravel_multi_index(
            (conj[0][self.plane], conj[1][self.plane], 0), (n, n, half)
        )
        self.k = grid.wavenumbers[:, ix, iy, iz]
        self.k_sq = grid.k_sq[ix, iy, iz]
        self.k_sq_safe = np.where(self.k_sq == 0.0, 1.0, self.k_sq)
        self.weight = np.full(self.index.size, 2.0)
        self.weight[0] = 1.0
        for arr in (self.index, self.full_index, self.conj_full_index, self.plane,
                    self.conj_plane_index, self.k, self.k_sq, self.k_sq_safe, self.weight):
            arr.flags.writeable = False

    def gather(self, coeffs: np.ndarray) -> np.ndarray:
        """Ball vector of a full (3, N, N, N) coefficient array (restriction to the ball)."""
        return np.take(coeffs.reshape(3, -1), self.full_index, axis=1)

    def expand(self, v: np.ndarray) -> np.ndarray:
        """Full (3, N, N, N) coefficients of a ball vector, zero outside the ball."""
        n = self.grid.n_modes
        out = np.zeros((3, n**3), dtype=np.complex128)
        out[:, self.full_index] = v
        out[:, self.conj_full_index] = np.conj(v[:, 1:])
        return out.reshape(self.grid.shape)

    def scatter(self, v: np.ndarray) -> np.ndarray:
        """rfft half spectrum (3, N, N, N/2+1) of a ball vector, ready for irfftn."""
        out = np.zeros((3, int(np.prod(self.rfft_shape[1:]))), dtype=np.complex128)
        out[:, self.index] = v
        out[:, self.conj_plane_index] = np.conj(v[:, self.plane])
        return out.reshape(self.rfft_shape)

    def norm_sq(self, v: np.ndarray, multiplier: np.ndarray | None = None) -> float:
        """sum over the full cube of multiplier(m) |c_m|^2 (no box volume factor)."""
        weight = self.weight if multiplier is None else self.weight * multiplier
        power = (v.real**2 + v.imag**2).sum(axis=0)
        return float(np.dot(weight, power))

    def project(self, v: np.ndarray) -> None:
        """Leray projection I - xi xi^T / |xi|^2 in place; m = 0 passes unchanged."""
        k = self.k
        dot = k[0] * v[0] + k[1] * v[1] + k[2] * v[2]
        dot /= self.k_sq_safe
        v -= k * dot[np.newaxis]


@lru_cache(maxsize=16)
def _ball(grid: GridSpec) -> _Ball:
    return _Ball(grid)


# ---------------------------------------------------------------------------
# the nonlinear kernel


class _NLTerms(NamedTuple):
    """One nonlinear right-hand-side evaluation on ball vectors."""

    total: np.ndarray  # -(advection + damping), projected, mean removed
    adv: np.ndarray | None  # -advection part, when the split was asked for
    damp: np.ndarray | None  # -damping part, when the split was asked for
    visc_rate: float  # 2 nu ||grad u||^2 at this state
    damp_rate: float  # 2 alpha sum |u_j|^(beta+1) dV at this state
    linf: float  # max pointwise |u| on the grid


_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_PAIR_INDEX = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 1): 3, (1, 2): 4, (2, 2): 5}


def _nonlinear(
    ball: _Ball,
    v: np.ndarray,
    params: PhysParams,
    *,
    split: bool = False,
    advect: bool = True,
) -> _NLTerms:
    """Evaluate -P J div(u x u) - alpha P J |u|^(beta-1) u on a ball vector, plus ledger rates.

    One inverse real-to-complex transform of the state, the products on the
    full physical grid, one forward transform of all product blocks, then
    the divergence, projection and mean removal on the ball entries.
    advect=False skips the advection term (total is then the damping part
    alone); split=True also returns the two parts separately.
    """
    grid = ball.grid
    n = grid.n_modes
    u = _fft.irfftn(ball.scatter(v), s=(n, n, n), axes=(1, 2, 3), norm="forward")
    mag_sq = u[0] ** 2 + u[1] ** 2 + u[2] ** 2
    linf = float(np.sqrt(float(mag_sq.max())))

    damped = params.alpha > 0.0
    pairs = _PAIRS if advect else ()
    blocks = np.empty((len(pairs) + 3 * damped, n, n, n))
    for b, (i, j) in enumerate(pairs):
        np.multiply(u[i], u[j], out=blocks[b])
    damp_rate = 0.0
    if damped:
        # |u|^(beta-1) u pointwise; 0^(beta-1) = 0 since beta > 1.
        weight = mag_sq ** ((params.beta - 1.0) / 2.0)
        damp_rate = 2.0 * params.alpha * float((weight * mag_sq).sum()) * grid.cell_volume
        weight *= params.alpha
        for i in range(3):
            np.multiply(weight, u[i], out=blocks[len(pairs) + i])

    hats = _fft.rfftn(blocks, axes=(1, 2, 3), norm="forward")
    hats = np.take(hats.reshape(len(blocks), -1), ball.index, axis=1)
    k = ball.k
    total = np.zeros_like(v)
    adv = dmp = np.zeros_like(v) if split else None
    if advect:
        adv = np.empty_like(v)
        for comp in range(3):
            acc = k[0] * hats[_PAIR_INDEX[tuple(sorted((comp, 0)))]]
            acc = acc + k[1] * hats[_PAIR_INDEX[tuple(sorted((comp, 1)))]]
            acc = acc + k[2] * hats[_PAIR_INDEX[tuple(sorted((comp, 2)))]]
            adv[comp] = 1j * acc
        ball.project(adv)
        # divergence form vanishes at m = 0 already; projection leaves that alone.
        total -= adv
    if damped:
        dmp = hats[len(pairs):]
        ball.project(dmp)
        dmp[:, 0] = 0.0  # comoving frame: drop the mean force
        total -= dmp

    visc_rate = 2.0 * params.nu * grid.volume * ball.norm_sq(v, ball.k_sq)
    if not split:
        return _NLTerms(total, None, None, visc_rate, damp_rate, linf)
    return _NLTerms(total, -adv, -dmp, visc_rate, damp_rate, linf)


# ---------------------------------------------------------------------------
# public operators


def advection(u: SpectralField) -> SpectralField:
    """Truncated, projected advection term P J div(u x u).

    The input is first restricted to the ball (its Hermitian part on the
    retained modes, as the stepper holds it), a no-op for fields of the
    state space. The tensor u x u is formed pointwise on the collocation
    grid, transformed, differentiated in coefficient space, sharply
    truncated, and projected. For solenoidal u this equals P J (u . grad u).
    """
    ball = _ball(u.grid)
    params = PhysParams(nu=1.0, alpha=0.0, beta=2.0)  # alpha=0: damping skipped
    terms = _nonlinear(ball, ball.gather(u.coeffs), params)
    return SpectralField(u.grid, ball.expand(-terms.total), solenoidal=True)


def damping(u: SpectralField, alpha: float, beta: float) -> SpectralField:
    """Truncated, projected damping force alpha |u|^(beta-1) u, mean mode removed.

    The input is first restricted to the ball (its Hermitian part on the
    retained modes, as the stepper holds it), a no-op for fields of the
    state space. The force is evaluated pointwise in physical space, then
    truncated and projected, and its m = 0 coefficient is dropped (the
    stepper's frame choice). Its inner product with a zero-mean u equals
    alpha times the collocation quadrature of |u|^(beta+1), hence is
    nonnegative: the term only dissipates.
    """
    if alpha < 0.0:
        raise ValueError(f"alpha must be nonnegative, got {alpha!r}")
    if not beta > 1.0:
        raise ValueError(f"beta must exceed 1, got {beta!r}")
    if alpha == 0.0:
        return SpectralField(u.grid, np.zeros_like(u.coeffs), solenoidal=True)
    ball = _ball(u.grid)
    params = PhysParams(nu=1.0, alpha=alpha, beta=beta)
    terms = _nonlinear(ball, ball.gather(u.coeffs), params, advect=False)
    return SpectralField(u.grid, ball.expand(-terms.total), solenoidal=True)


def tendency(state: SolverState) -> SpectralField:
    """Full right-hand side -advection - damping - nu |xi|^2 u.

    The field is first restricted to the ball (its Hermitian part on the
    retained modes, as the stepper holds it), a no-op for fields of the
    state space. The damping force enters with its mean mode removed (frame
    choice). The stepper never uses this assembled form: it treats the
    viscous part exactly through the integrating factor and discretizes
    only the rest.
    """
    ball = _ball(state.grid)
    v = ball.gather(state.u.coeffs)
    terms = _nonlinear(ball, v, state.params)
    out = terms.total - state.params.nu * ball.k_sq * v
    return SpectralField(state.grid, ball.expand(out), solenoidal=True)


def pressure_field(u: SpectralField, params: PhysParams) -> np.ndarray:
    """Pressure coefficients recovered from the truncated nonlinear terms.

    p = -(-Laplacian)^(-1) div(J div(u x u) + alpha J |u|^(beta-1) u), zero
    mean. grad p is exactly the non-solenoidal part of the truncated terms,
    so grad p + P(terms) = terms mode by mode.
    """
    grid = u.grid
    phys = _fft.ifftn(u.coeffs, axes=(1, 2, 3), norm="forward").real
    mag_sq = phys[0] ** 2 + phys[1] ** 2 + phys[2] ** 2

    blocks = [phys[i] * phys[j] for i, j in _PAIRS]
    if params.alpha > 0.0:
        weight = mag_sq ** ((params.beta - 1.0) / 2.0)
        blocks.extend(params.alpha * weight * phys[i] for i in range(3))
    hats = _fft.fftn(np.stack(blocks), axes=(1, 2, 3), norm="forward")

    k = grid.wavenumbers
    total = np.empty_like(u.coeffs)
    for comp in range(3):
        acc = k[0] * hats[_PAIR_INDEX[tuple(sorted((comp, 0)))]]
        acc = acc + k[1] * hats[_PAIR_INDEX[tuple(sorted((comp, 1)))]]
        acc = acc + k[2] * hats[_PAIR_INDEX[tuple(sorted((comp, 2)))]]
        total[comp] = 1j * acc
    if params.alpha > 0.0:
        total += hats[len(_PAIRS) : len(_PAIRS) + 3]
    total *= grid.ball_mask

    div = 1j * (k[0] * total[0] + k[1] * total[1] + k[2] * total[2])
    p_hat = -div / grid._k_sq_safe
    p_hat[0, 0, 0] = 0.0
    return p_hat


# ---------------------------------------------------------------------------
# integrating-factor RK4


class DuhamelTracker:
    """Running decomposition u(t) = e^(t Lap) v0 + f(t) + g(t).

    heat is the exact viscous semigroup applied to the initial field; f and g
    accumulate the advection and damping contributions with the same
    integrating-factor RK4 stage combination the solution itself uses, so
    heat + f + g rebuilds the state to roundoff at every step. All three are
    ball vectors in the stepper's rfft layout; the initial field is first
    restricted to the ball.
    """

    def __init__(self, initial: SpectralField):
        self.grid = initial.grid
        self._ball = _ball(initial.grid)
        self.heat = self._ball.gather(initial.coeffs)
        self.f = np.zeros_like(self.heat)
        self.g = np.zeros_like(self.heat)

    def advance(
        self,
        e_half: np.ndarray,
        e_full: np.ndarray,
        dt: float,
        adv_stages: Sequence[np.ndarray],
        damp_stages: Sequence[np.ndarray],
    ) -> None:
        a1, a2, a3, a4 = adv_stages
        d1, d2, d3, d4 = damp_stages
        self.heat = e_full * self.heat
        self.f = e_full * self.f + (dt / 6.0) * (
            e_full * a1 + 2.0 * e_half * (a2 + a3) + a4
        )
        self.g = e_full * self.g + (dt / 6.0) * (
            e_full * d1 + 2.0 * e_half * (d2 + d3) + d4
        )

    def norms(self) -> tuple[float, float, float]:
        """(||heat||_L2, ||f||_{H^-2}, ||g||_{H^-2})."""
        ball, volume = self._ball, self.grid.volume
        weight = (1.0 + ball.k_sq) ** -2
        heat_l2 = float(np.sqrt(volume * ball.norm_sq(self.heat)))
        f_h = float(np.sqrt(volume * ball.norm_sq(self.f, weight)))
        g_h = float(np.sqrt(volume * ball.norm_sq(self.g, weight)))
        return heat_l2, f_h, g_h

    def reconstruction_error(self, u: SpectralField) -> float:
        """Relative L2 gap between heat + f + g and the actual state (restricted to the ball)."""
        ball = self._ball
        target = ball.gather(u.coeffs)
        gap = float(np.sqrt(ball.norm_sq(self.heat + self.f + self.g - target)))
        denom = float(np.sqrt(ball.norm_sq(target)))
        return gap if denom == 0.0 else gap / denom


class _Stepper:
    """Integrating-factor RK4 on ball vectors for one (grid, params, dt) combination."""

    def __init__(
        self,
        grid: GridSpec,
        params: PhysParams,
        cfg: StepperConfig,
        forcing: Callable[[float], np.ndarray] | None = None,
    ):
        self.grid = grid
        self.ball = _ball(grid)
        self.params = params
        self.cfg = cfg
        self.forcing = forcing
        self.e_half = np.exp(-params.nu * self.ball.k_sq * (cfg.dt / 2.0))
        self.e_full = self.e_half**2

    def check_cfl(self, linf: float, dt: float) -> None:
        if not np.isfinite(linf):
            raise BlowupError(f"non-finite field (|u|_inf = {linf!r})")
        p = self.params
        rate = max(linf * self.grid.xi_max, p.alpha * linf ** (p.beta - 1.0), _CFL_FLOOR)
        if not np.isfinite(rate) or dt > self.cfg.safety / rate:
            raise CFLError(
                f"dt = {dt:g} exceeds the stability budget safety/rate = "
                f"{self.cfg.safety / rate if np.isfinite(rate) else 0.0:g} "
                f"(|u|_inf = {linf:g}, xi_max = {self.grid.xi_max:g}, "
                f"alpha |u|_inf^(beta-1) = {p.alpha * linf ** (p.beta - 1.0):g})"
            )

    def _rhs(self, v: np.ndarray, t: float, split: bool) -> _NLTerms:
        terms = _nonlinear(self.ball, v, self.params, split=split)
        if self.forcing is not None:
            terms = terms._replace(total=terms.total + self.ball.gather(self.forcing(t)))
        return terms

    def advance(
        self, v: np.ndarray, t: float, tracker: DuhamelTracker | None = None
    ) -> tuple[np.ndarray, float, float]:
        """One step from ball vector v at time t: (new v, visc increment, damp increment)."""
        dt = self.cfg.dt
        eh, ef = self.e_half, self.e_full
        split = tracker is not None

        n1 = self._rhs(v, t, split)
        self.check_cfl(n1.linf, dt)

        s2 = eh * (v + (dt / 2.0) * n1.total)
        n2 = self._rhs(s2, t + dt / 2.0, split)

        s3 = eh * v + (dt / 2.0) * n2.total
        n3 = self._rhs(s3, t + dt / 2.0, split)

        s4 = ef * v + dt * (eh * n3.total)
        n4 = self._rhs(s4, t + dt, split)

        vnew = ef * v + (dt / 6.0) * (
            ef * n1.total + 2.0 * eh * (n2.total + n3.total) + n4.total
        )
        self.ball.project(vnew)
        vnew[:, 0] = 0.0

        if tracker is not None:
            tracker.advance(eh, ef, dt, (n1.adv, n2.adv, n3.adv, n4.adv),
                            (n1.damp, n2.damp, n3.damp, n4.damp))

        # The stage evaluations already carry the dissipation rates at the
        # stage states, so the augmented RK4 quadrature is free.
        d_visc = (dt / 6.0) * (
            n1.visc_rate + 2.0 * (n2.visc_rate + n3.visc_rate) + n4.visc_rate
        )
        d_damp = (dt / 6.0) * (
            n1.damp_rate + 2.0 * (n2.damp_rate + n3.damp_rate) + n4.damp_rate
        )
        return vnew, d_visc, d_damp


def step(state: SolverState, cfg: StepperConfig) -> SolverState:
    """Advance one step of integrating-factor RK4.

    The state is first restricted to the ball (its Hermitian part on the
    retained modes), a no-op for fields of the state space. The viscous
    factor is exact; truncation and projection are applied inside every
    substage evaluation and once more to the combined output. Raises
    CFLError when dt exceeds safety / max(|u|_inf xi_max,
    alpha |u|_inf^(beta-1), 1e-30).
    """
    stepper = _Stepper(state.grid, state.params, cfg)
    ball = stepper.ball
    v, d_visc, d_damp = stepper.advance(ball.gather(state.u.coeffs), state.t)
    return SolverState(
        t=state.t + cfg.dt,
        u=SpectralField(state.grid, ball.expand(v), solenoidal=True),
        params=state.params,
        step_count=state.step_count + 1,
        cum_visc=state.cum_visc + d_visc,
        cum_damp=state.cum_damp + d_damp,
    )


def run(
    initial: SpectralField,
    params: PhysParams,
    cfg: StepperConfig,
    t_end: float,
    *,
    t_start: float = 0.0,
    output_every: float | None = None,
    hooks: Sequence[Callable[[SolverState, DuhamelTracker | None], None]] = (),
    forcing: Callable[[float], np.ndarray] | None = None,
    track_duhamel: bool = True,
) -> list[SolverState]:
    """Integrate from t_start to t_end, returning snapshots at the output cadence.

    t_end - t_start and output_every must sit on the dt grid (validated), and
    snapshots are scheduled by step index, so reruns and restarts land on
    bitwise-identical times. Hooks are called at every snapshot with the
    state and the Duhamel tracker (None when forcing is active, which makes
    the heat/f/g split meaningless). The final state is always a snapshot.
    Snapshots are exactly Hermitian, zero outside the ball and at m = 0.

    Raises BlowupError on non-finite values and CFLError on a stability
    violation; both carry the last healthy time in their message.
    """
    if t_end < t_start:
        raise ValueError(f"t_end = {t_end!r} precedes t_start = {t_start!r}")
    span = t_end - t_start
    n_steps = int(round(span / cfg.dt))
    if abs(n_steps * cfg.dt - span) > _GRID_ALIGN_TOL * max(span, cfg.dt):
        raise ValueError(
            f"t_end - t_start = {span!r} is not an integer multiple of dt = {cfg.dt!r}"
        )
    if output_every is None:
        stride = max(1, n_steps // 100) if n_steps else 1
    else:
        stride = int(round(output_every / cfg.dt))
        if stride < 1 or abs(stride * cfg.dt - output_every) > _GRID_ALIGN_TOL * output_every:
            raise ValueError(
                f"output_every = {output_every!r} is not a positive multiple of dt = {cfg.dt!r}"
            )

    grid = initial.grid
    field0 = leray_project(SpectralField(grid, initial.coeffs * grid.ball_mask))
    field0.coeffs[:, 0, 0, 0] = 0.0
    field0.validate(tol=1e-10)

    stepper = _Stepper(grid, params, cfg, forcing=forcing)
    ball = stepper.ball
    v = ball.gather(field0.coeffs)
    tracker = None
    if track_duhamel and forcing is None:
        tracker = DuhamelTracker(field0)
    cum_visc = cum_damp = 0.0

    def snapshot(i: int) -> SolverState:
        snap = SolverState(
            t=t_start + i * cfg.dt,  # exact grid time, no accumulation
            u=SpectralField(grid, ball.expand(v), solenoidal=True),
            params=params,
            step_count=i,
            cum_visc=cum_visc,
            cum_damp=cum_damp,
        )
        if tracker is not None:
            drift = tracker.reconstruction_error(snap.u)
            if drift > _DUHAMEL_DRIFT_TOL:
                raise BlowupError(
                    f"Duhamel split drifted from the state ({drift:.3e} relative) "
                    f"at t = {snap.t:g}"
                )
        for hook in hooks:
            hook(snap, tracker)
        return snap

    snapshots = [snapshot(0)]
    for i in range(1, n_steps + 1):
        v, d_visc, d_damp = stepper.advance(v, t_start + (i - 1) * cfg.dt, tracker)
        cum_visc += d_visc
        cum_damp += d_damp
        if not (np.isfinite(cum_visc) and np.isfinite(cum_damp)):
            raise BlowupError(f"non-finite values at t = {t_start + i * cfg.dt:g} (step {i})")
        if i % stride == 0 or i == n_steps:
            snapshots.append(snapshot(i))
    return snapshots


# ---------------------------------------------------------------------------
# manufactured solutions


class SeparableTarget:
    """Closed-form target u*(t) = a(t) U with U fixed, band-limited, solenoidal.

    a must stay positive and smooth; advection and damping then scale as
    a^2 and a^beta, so the forcing that makes u* an exact solution of the
    truncated system is a closed-form combination of precomputed fields.
    """

    def __init__(
        self,
        base: SpectralField,
        amplitude: Callable[[float], float],
        amplitude_rate: Callable[[float], float],
        params: PhysParams,
    ):
        base.validate(tol=1e-10)
        outside = base.coeffs[:, ~base.grid.ball_mask]
        scale = max(float(np.max(np.abs(base.coeffs))), 1e-300)
        if outside.size and float(np.max(np.abs(outside))) > 1e-13 * scale:
            raise ValueError("target not band-limited within grid")
        self.base = base.copy()
        self.amplitude = amplitude
        self.amplitude_rate = amplitude_rate
        self.params = params
        self._adv = advection(base).coeffs
        self._damp = damping(base, params.alpha, params.beta).coeffs
        self._visc = params.nu * base.grid.k_sq * base.coeffs

    def field(self, t: float) -> SpectralField:
        a = self.amplitude(t)
        return SpectralField(self.base.grid, a * self.base.coeffs, solenoidal=True)

    def forcing(self, t: float) -> np.ndarray:
        a = self.amplitude(t)
        if a <= 0.0:
            raise ValueError(f"amplitude must stay positive, got a({t}) = {a!r}")
        da = self.amplitude_rate(t)
        return (
            da * self.base.coeffs
            + a * a * self._adv
            + a**self.params.beta * self._damp
            + a * self._visc
        )


def manufactured_forcing(target: SeparableTarget, params: PhysParams) -> Callable[[float], np.ndarray]:
    """Forcing hook F(t) = d/dt u* + advection(u*) + damping(u*) + viscous(u*).

    With this hook passed to run(), the target solves the forced truncated
    system exactly and the numerical error isolates the time discretization.
    """
    if target.params != params:
        raise ValueError("target was precomputed for different physical parameters")
    return target.forcing
