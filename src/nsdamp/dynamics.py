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
augmented scalar unknowns folded by the same RK4 stage combination (_Fold),
which keeps the discrete energy ledger accurate to the scheme's own order.

The stepper holds the state as a flat vector of the ball's coefficients in
the rfft half-spectrum layout (shape (3, n_ball)) and moves to physical
space with real-to-complex transforms; everything spectral works on those
vectors only, and its transforms skip every FFT line that holds no ball
entry. The layout, with its tables, transforms and weighted sums, belongs
to the grid (GridSpec.ball, see spectral._Ball). trajectory(), the only
code that builds a stepper, starts from a state's vector or a field's ball
entries, and each snapshot holds the stepper's vector (SolverState.vector),
which the ledger's hooks read; every state, a snapshot or not, is built
from a ball vector by SolverState's one constructor. Full (3, N, N, N)
coefficient arrays are only where a field enters or leaves the public
API: a state's field, SolverState.u, is expanded from the vector on first
access, and the expansion is Hermitian by construction.

A snapshot also carries the collocation sums of its speed |u|
(SolverState.pointwise: the max and the |u|^beta sums split at |u| = 1),
the decay diagnostics' pointwise part. trajectory() runs
each step's first-stage kernel call before it yields the step's start
state, so the grid values that call transforms feed the snapshot too, and
the final state takes the kernel's inverse alone: a run transforms each
state once per stage and no more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .spectral import (_ALONE, ConfigError, GridSpec, PhysParams, SpectralField, _Ball,
                       _Crew, _magnitudes, _speed_sq, _workers)

__all__ = [
    "SolverState",
    "StepperConfig",
    "CFLError",
    "BlowupError",
    "DuhamelNorms",
    "PointwiseNorms",
    "advection",
    "damping",
    "tendency",
    "pressure_field",
    "trajectory",
    "run",
    "SeparableTarget",
    "manufactured_forcing",
]

#: floor inside the CFL denominator, guarding the zero field.
_CFL_FLOOR = 1e-30

#: fraction of the stability limit 1 / rate that a step may use.
_CFL_SAFETY = 0.9

#: relative tolerance of StepperConfig.steps, the one "this time lies on the dt grid" rule.
_GRID_ALIGN_TOL = 1e-8

#: Duhamel reconstruction drift that aborts a run (roundoff sits near 1e-13).
_DUHAMEL_DRIFT_TOL = 1e-6


class CFLError(RuntimeError):
    """The requested step size violates the advective/damping CFL bound."""


class BlowupError(RuntimeError):
    """Non-finite values appeared during time stepping."""


class DuhamelNorms(NamedTuple):
    """Norms of the split u(t) = e^(t Lap) u0 + f(t) + g(t) at one snapshot."""

    heat_l2: float  # ||e^(t Lap) u0||_L2
    f_hminus2: float  # ||f||_{H^-2}, f the advection part of the correction
    g_hminus2: float  # ||g||_{H^-2}, g the damping part
    drift: float  # relative L2 gap between heat + f + g and the state


class PointwiseNorms(NamedTuple):
    """Collocation sums of the speed |u| at one snapshot, dV the grid's cell volume."""

    linf: float  # max |u| over the grid points
    rate_e1: float  # sum of |u|^beta dV over the points with |u| <= 1
    rate_e2: float  # sum of |u|^beta dV over the points with |u| > 1


def _pointwise_norms(u: np.ndarray, dv: float, beta: float) -> PointwiseNorms:
    """The PointwiseNorms of grid values u, shape (3, N, N, N).

    |u|^2 is formed by _speed_sq in one (N, N, N) array, then |u| in place,
    raised to beta in place once the max is taken; one more such array
    holds each square, and one mask selects the points with |u| <= 1, then,
    inverted in place, the others. Every value and sum is that of the
    expressions written whole.
    """
    mag = _speed_sq(u)
    np.sqrt(mag, out=mag)
    linf = float(mag.max(initial=0.0))
    small = mag <= 1.0
    mag **= beta
    rate_e1 = dv * float(mag[small].sum())
    rate_e2 = dv * float(mag[np.logical_not(small, out=small)].sum())
    return PointwiseNorms(linf, rate_e1, rate_e2)


class SolverState:
    """Solution snapshot: time, ball vector, parameters, and the running dissipation integrals.

    cum_visc = 2 nu int_0^t ||grad u||^2 ds and
    cum_damp = 2 alpha int_0^t int |u|^(beta+1) dx ds,
    both integrated with the stepper's own RK4 quadrature from the start of
    the run this state belongs to. duhamel is None under forcing and for
    states that trajectory() did not produce.

    A state holds vector, its ball entries (3, n_ball) in the layout of
    grid.ball, made read-only here: for a snapshot, the stepper's own
    array. A field's state holds its entries, grid.ball.gather(u.coeffs).
    u, the full (3, N, N, N) field, and pointwise, the speed's collocation
    sums (PointwiseNorms: its max and its |u|^beta sums split at |u| = 1),
    are cached properties: u expands the vector on first access (snap.u is
    snap.u); pointwise is the one given, which trajectory() takes from the
    grid values the stepper computes anyway, or else is taken on first
    access from the pruned inverse transform of the vector.
    """

    def __init__(self, grid: GridSpec, vector: np.ndarray, t: float, params: PhysParams,
                 step_count: int = 0, cum_visc: float = 0.0, cum_damp: float = 0.0,
                 duhamel: DuhamelNorms | None = None, pointwise: PointwiseNorms | None = None):
        # read-only: trajectory() steps on from a snapshot's very array after the yield
        vector.flags.writeable = False
        self.grid, self.vector, self.t, self.params, self.step_count = grid, vector, t, params, step_count
        self.cum_visc, self.cum_damp, self.duhamel = cum_visc, cum_damp, duhamel
        if pointwise is not None:
            self.pointwise = pointwise

    @cached_property
    def u(self) -> SpectralField:
        """The field, (3, N, N, N) coefficients, expanded from the vector once, here."""
        return SpectralField(self.grid, self.grid.ball.expand(self.vector))

    @cached_property
    def pointwise(self) -> PointwiseNorms:
        """The speed's collocation sums; computed here, once, unless trajectory() supplied them."""
        grid = self.grid
        return _pointwise_norms(grid.ball.to_physical(self.vector), grid.cell_volume, self.params.beta)


@dataclass(frozen=True)
class StepperConfig:
    """Time-stepping knobs for the integrating-factor RK4 stepper: the step size dt.

    Every step checks dt against the CFL budget 0.9 / max(|u|_inf R,
    alpha |u|_inf^(beta-1), 1e-30), R the cutoff radius (_Stepper.check_cfl).
    """

    dt: float

    def __post_init__(self) -> None:
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")

    def steps(self, t: float, name: str) -> int:
        """The number of steps of dt in the time t, the argument name: the one dt-grid rule.

        t must be finite and lie within 1e-8 max(|t|, dt) of a positive
        multiple of dt; otherwise a ConfigError (a ValueError) names it,
        and names dt by its config key, time.dt.
        """
        if not math.isfinite(t):
            raise ConfigError(f"{name} must be finite, got {t!r}")
        ratio = t / self.dt
        n = round(ratio) if math.isfinite(ratio) else 0
        if n < 1 or abs(n * self.dt - t) > _GRID_ALIGN_TOL * max(abs(t), self.dt):
            raise ConfigError(f"{name} = {t!r} is not a positive multiple of time.dt = {self.dt!r}")
        return n


# ---------------------------------------------------------------------------
# the nonlinear kernel


class _NLTerms(NamedTuple):
    """One evaluation of the nonlinear kernel: ball vectors truncated, not projected.

    adv and damp are the kernel's buffers, overwritten by its next call.
    """

    adv: np.ndarray | None  # J div(u x u) = i xi . (u x u)-hat; None when advect=False
    damp: np.ndarray | None  # alpha J |u|^(beta-1) u; None when alpha = 0
    visc_rate: float  # 2 nu ||grad u||^2 at this state
    damp_rate: float  # 2 alpha sum |u_j|^(beta+1) dV at this state
    linf: float  # max pointwise |u| on the grid


#: the six products u_i u_j (i <= j), one block each ...
_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
#: ... and, per component i, the blocks of u_i u_0, u_i u_1, u_i u_2
_BLOCKS = ((0, 1, 2), (1, 3, 4), (2, 4, 5))


class _Kernel:
    """J div(u x u) and alpha J |u|^(beta-1) u of ball vectors, plus ledger rates.

    One pruned inverse transform of the state (inverse(), whose grid values
    stay in the buffer u until the next call), then the pruned forward
    transform of the product blocks, three at a time (the stress blocks of
    _PAIRS[:3], of _PAIRS[3:], then the damping blocks), by
    _Ball.from_slabs: slab by slab of y-planes, the three products are
    formed in a product buffer and handed to the forward's passes. The
    divergence follows on the ball entries. Nothing is projected:
    _project_terms does that for the stepper and the operators, and
    pressure_field takes the gradient part instead. advect=False skips the
    advection term.

    A slab is the ball's slab planes, the last maybe fewer: 8 at
    N = 64, the whole grid at N <= 32. Products are pointwise and each line
    is transformed on its own, so slabs give the bits of whole blocks;
    |u|^2 stays a full cube so that its max and sum keep their order.

    A call splits its slab loops over the kernel's crew (spectral._Crew),
    built with the buffers and kept for the kernel's life: one worker per
    slab, capped by spectral._workers when the kernel is built (a bad
    NSD_THREADS is refused then; one worker inside a driver's job). Each
    worker takes a contiguous run of slabs, the calling thread the first:
    the inverse's y and z passes, each slab followed by its |u|^2 fill,
    and per forward group the products, the z and x passes and the take
    of the y_lines; the x_lines' and the y_lines' passes split by runs of
    lines. The entry takes, the max and sum of |u|^2 and the divergence
    run on the calling thread, in their serial order, so every bit is
    that of one worker. A kernel of one worker runs on the calling thread
    alone (the crew _ALONE).

    Every array of an evaluation lives in a buffer of the instance, the
    terms it returns included: the grid values u and |u|^2, and per worker
    one slab of three product blocks (products) and one slab of half
    spectrum (slabs), held flat (the inverse's planes, a slab of x-planes
    m3 <= top, then the forward's z-pass output, a slab of y-planes shaped
    at each call); one line array (the inverse's x_lines, then the
    forward's y_lines, never live together), the blocks' ball
    coefficients and adv. No buffer has the size of a half-spectrum cube
    (3, N, N, N/2 + 1). damp is a view of the damping blocks'
    coefficients. So the terms of a call hold until the next call, which
    overwrites them: a caller folds them in first (the stepper does, see
    _Fold). The constructor allocates every buffer, the per-worker ones
    for its workers, and no call allocates one. Allocated and freed at
    each stage instead, they let the allocator trim the top of the heap
    and fault it back in at the next stage. The buffers are per-instance
    scratch: a kernel serves one call at a time, its workers each with
    their own slabs.
    """

    def __init__(self, grid: GridSpec, params: PhysParams, *, advect: bool = True):
        self.grid = grid
        self.ball = grid.ball
        self.params = params
        self.advect = advect
        self.damped = params.alpha > 0.0
        # the blocks, three to a forward transform; None stands for the damping blocks
        self.groups = ([_PAIRS[:3], _PAIRS[3:]] if advect else []) + ([None] if self.damped else [])
        ball, n, n_ball = self.ball, grid.n_modes, self.ball.k_sq.size
        self.workers = _workers(len(range(0, n, ball.slab)))
        self.crew = _Crew(self.workers) if self.workers > 1 else _ALONE
        self.u, self.mag_sq = np.empty((3, n, n, n)), np.empty((n, n, n))
        x_shape, y_shape = (3, n, ball.x_lines.shape[1]), (3, n, ball.y_m1.size)
        lines = np.empty(max(math.prod(x_shape), math.prod(y_shape)), dtype=np.complex128)
        self.x_lines = lines[: math.prod(x_shape)].reshape(x_shape)
        self.y_lines = lines[: math.prod(y_shape)].reshape(y_shape)
        self.hats = np.empty((3 * len(self.groups), n_ball), dtype=np.complex128)
        self.adv = np.empty((3, n_ball), dtype=np.complex128) if advect else None
        # per worker: flat, the inverse's planes at its head and, per call, the forward's spec slab
        plane_shape = (3, ball.slab, n, ball.top + 1)
        self.slabs = [np.empty(3 * n * ball.slab * (n // 2 + 1), dtype=np.complex128)
                      for _ in range(self.workers)]
        self.planes = [slab[: math.prod(plane_shape)].reshape(plane_shape) for slab in self.slabs]
        self.products = [np.empty((3, ball.slab, n, n)) for _ in range(self.workers)]

    def _products(self, group, ys: slice, w: int) -> np.ndarray:
        """The group's three blocks on the y-planes ys, formed in worker w's product buffer.

        The buffer has room for S planes of N^2 values per block; a slab of
        y-planes fills it as (N, S', N) arrays, whole (S', N) rows of each
        x-plane of u.
        """
        n, size = self.grid.n_modes, ys.stop - ys.start
        products = self.products[w].reshape(3, -1)[:, : n * size * n].reshape(3, n, size, n)
        u = self.u[:, :, ys]
        if group is not None:
            for b, (i, j) in enumerate(group):
                np.multiply(u[i], u[j], out=products[b])
            return products
        # alpha |u|^(beta-1) u; |u|^2 becomes |u|^(beta+1), which damp_rate sums. The weight
        # lives in products[2] until the last product overwrites it; 0^(beta-1) = 0 as beta > 1
        alpha, beta = self.params.alpha, self.params.beta
        weight, mag_sq = products[2], self.mag_sq[:, ys]
        np.power(mag_sq, (beta - 1.0) / 2.0, out=weight)
        mag_sq *= weight
        weight *= alpha
        for i in range(3):
            np.multiply(weight, u[i], out=products[i])
        return products

    def inverse(self, v: np.ndarray) -> np.ndarray:
        """The grid values of ball vector v, _Ball.to_physical(v), in the buffer u."""
        return self.ball.to_physical(v, out=self.u, lines=self.x_lines, planes=self.planes, crew=self.crew)

    def _fill(self, xs: slice, w: int) -> None:
        """|u|^2 on the x-planes xs by _speed_sq, worker w's product buffer holding each square.

        The inverse calls it on each slab of x-planes as it lands in u:
        they are contiguous in u, and still in cache.
        """
        _speed_sq(self.u[:, xs], out=self.mag_sq[xs], work=self.products[w][0, : xs.stop - xs.start])

    def __call__(self, v: np.ndarray) -> _NLTerms:
        ball, params, n = self.ball, self.params, self.grid.n_modes
        ball.to_physical(v, out=self.u, lines=self.x_lines, planes=self.planes, crew=self.crew,
                         then=self._fill)
        hats, mag_sq = self.hats, self.mag_sq
        linf = float(np.sqrt(float(mag_sq.max())))

        spec = [slab.reshape(3, n, ball.slab, n // 2 + 1) for slab in self.slabs]
        for g, group in enumerate(self.groups):
            ball.from_slabs(partial(self._products, group), 3, out=hats[3 * g : 3 * g + 3],
                            spec=spec, lines=self.y_lines, crew=self.crew)

        adv, damp = self.adv, None
        damp_rate = 0.0
        if self.advect:
            k = ball.k
            for comp, (b0, b1, b2) in enumerate(_BLOCKS):
                # 1j ((k0 h0 + k1 h1) + k2 h2), each operation in place in adv[comp]
                acc = np.multiply(k[0], hats[b0], out=adv[comp])
                np.add(acc, k[1] * hats[b1], out=acc)
                np.add(acc, k[2] * hats[b2], out=acc)
                np.multiply(1j, acc, out=acc)
        if self.damped:
            damp = hats[-3:]
            damp_rate = 2.0 * params.alpha * float(mag_sq.sum()) * self.grid.cell_volume
        visc_rate = 2.0 * params.nu * self.grid.volume * ball.norm_sq(v, ball.k_sq)
        return _NLTerms(adv, damp, visc_rate, damp_rate, linf)


def _project_terms(ball: _Ball, terms: _NLTerms, out: np.ndarray) -> np.ndarray:
    """Project the kernel's terms in place (damping mean dropped); out = -(adv + damp), returned.

    out is zeroed, then each term subtracted: 0 - x, not -x, so a zero term
    gives +0, as np.negative would not.
    """
    out.fill(0.0)
    if terms.adv is not None:
        ball.project(terms.adv)
        # divergence form vanishes at m = 0 already; projection leaves that alone.
        out -= terms.adv
    if terms.damp is not None:
        ball.project(terms.damp)
        terms.damp[:, 0] = 0.0  # comoving frame: drop the mean force
        out -= terms.damp
    return out


# ---------------------------------------------------------------------------
# public operators


def advection(u: SpectralField) -> SpectralField:
    """Truncated, projected advection term P J div(u x u).

    Only the ball's half-spectrum entries of u are read (see _Ball); the
    other half is taken as their conjugates and every other coefficient is
    ignored, a no-op for fields of the state space. The tensor u x u is
    formed pointwise on the collocation grid, transformed, differentiated
    in coefficient space, sharply truncated, and projected. For solenoidal
    u this equals P J (u . grad u).
    """
    ball = u.grid.ball
    params = PhysParams(nu=1.0, alpha=0.0, beta=2.0)  # alpha=0: damping skipped
    terms = _Kernel(u.grid, params)(ball.gather(u.coeffs))
    _project_terms(ball, terms, np.empty_like(terms.adv))
    return SpectralField(u.grid, ball.expand(terms.adv))


def damping(u: SpectralField, alpha: float, beta: float) -> SpectralField:
    """Truncated, projected damping force alpha |u|^(beta-1) u, mean mode removed.

    Only the ball's half-spectrum entries of u are read, as in advection.
    The force is evaluated pointwise in physical space, then truncated and
    projected, and its m = 0 coefficient is dropped (the stepper's frame
    choice). Its inner product with a zero-mean u equals alpha times the
    collocation quadrature of |u|^(beta+1), hence is nonnegative: the term
    only dissipates.
    """
    params = PhysParams(nu=1.0, alpha=alpha, beta=beta)
    if alpha == 0.0:
        return SpectralField(u.grid, np.zeros_like(u.coeffs))
    ball = u.grid.ball
    terms = _Kernel(u.grid, params, advect=False)(ball.gather(u.coeffs))
    _project_terms(ball, terms, np.empty_like(terms.damp))
    return SpectralField(u.grid, ball.expand(terms.damp))


def tendency(state: SolverState) -> SpectralField:
    """Full right-hand side -advection - damping - nu |xi|^2 u.

    Only the ball's half-spectrum entries of the field are read, as in
    advection. The damping force enters with its mean mode removed (frame
    choice). The stepper never uses this assembled form: it treats the
    viscous part exactly through the integrating factor and discretizes
    only the rest.
    """
    ball = state.grid.ball
    v = state.vector
    out = _project_terms(ball, _Kernel(state.grid, state.params)(v), np.empty_like(v))
    out -= state.params.nu * ball.k_sq * v
    return SpectralField(state.grid, ball.expand(out))


def pressure_field(u: SpectralField, params: PhysParams) -> np.ndarray:
    """Pressure coefficients (N, N, N) recovered from the truncated nonlinear terms.

    Only the ball's half-spectrum entries of u are read, as in advection.
    Then p = -(-Laplacian)^(-1) div(J div(u x u) + alpha J |u|^(beta-1) u),
    zero mean: grad p is exactly the non-solenoidal part of the truncated
    terms, so grad p + P(terms) = terms mode by mode. The same kernel
    evaluation feeds the stepper; here its terms are not projected.
    """
    ball = u.grid.ball
    terms = _Kernel(u.grid, params)(ball.gather(u.coeffs))
    force = terms.adv if terms.damp is None else terms.adv + terms.damp
    k = ball.k
    p = -1j * (k[0] * force[0] + k[1] * force[1] + k[2] * force[2]) / ball.k_sq_safe
    return ball.expand(p)


# ---------------------------------------------------------------------------
# integrating-factor RK4


class _Fold:
    """One integrating-factor RK4 combination of arrays, stage by stage.

    The result is e_full x + h (e_full s1 + (2 e_half) (s2 + s3) + s4), with
    e_half and e_full the viscous factors over dt/2 and dt and h = dt/6 (the
    state) or -dt/6 (the Duhamel parts, whose forces enter with a minus
    sign). The dissipation integrals feel no viscous factor: they fold as one
    2-vector with e_full = 1.0 and 2 e_half = 2.0, which multiply exactly.
    add() takes s1, s2, s3 and s4 as the stages produce them, so no stage
    term outlives the stage: e_full s1 starts the sum, s2 is held until s3
    arrives, then (2 e_half) (s2 + s3) and s4 are added; finish(x) scales
    the sum by h and adds e_full x last. Every operation takes its
    operands in the order of that expression, so the bits are those of
    forming it whole. Two arrays are allocated per combination: the sum,
    which finish() returns, and the held term, which takes e_full x.
    """

    def __init__(self, e_full: np.ndarray | float, two_e_half: np.ndarray | float, h: float):
        self.e_full, self.two_e_half, self.h = e_full, two_e_half, h
        self.stages = 0
        self.sum = self.held = None

    def add(self, s: np.ndarray) -> None:
        """Fold in the next stage's term s, which may be overwritten once this returns."""
        if self.stages == 0:
            self.sum = self.e_full * s
        elif self.stages == 1:
            self.held = s.copy()
        elif self.stages == 2:
            held = self.held
            np.add(held, s, out=held)
            np.multiply(self.two_e_half, held, out=held)
            np.add(self.sum, held, out=self.sum)
        else:
            np.add(self.sum, s, out=self.sum)
        self.stages += 1

    def finish(self, x: np.ndarray | float) -> np.ndarray:
        """The combination of x and the four stage terms, a new array."""
        total, held = self.sum, self.held
        np.multiply(self.h, total, out=total)
        np.multiply(self.e_full, x, out=held)
        return np.add(held, total, out=total)


class _Duhamel:
    """Running decomposition u(t) = e^(t Lap) u0 + f(t) + g(t) of the stepper's state.

    heat is the exact viscous semigroup applied to the initial ball vector
    v0; f and g accumulate the advection and damping contributions with the
    same integrating-factor RK4 combination the state itself uses, so
    heat + f + g rebuilds the state to roundoff at every step. A step opens
    with begin(), folds each stage's kernel terms with add() as the stepper
    evaluates them, and ends with finish(). The terms' projected forces
    P J div(u x u) and P J alpha |u|^(beta-1) u enter the state with a minus
    sign; their damp is None when alpha = 0, and g then stays zero.
    """

    def __init__(self, grid: GridSpec, v0: np.ndarray):
        self.ball = grid.ball
        self.volume = grid.volume
        self.heat = v0
        self.f = np.zeros_like(v0)
        self.g = np.zeros_like(v0)
        self.folds = None

    def begin(self, e_full: np.ndarray, two_e_half: np.ndarray, dt: float) -> None:
        # the forces enter with a minus sign; -dt applies it without negated copies
        self.folds = (_Fold(e_full, two_e_half, -dt / 6.0), _Fold(e_full, two_e_half, -dt / 6.0))

    def add(self, terms: _NLTerms) -> None:
        self.folds[0].add(terms.adv)
        if terms.damp is not None:
            self.folds[1].add(terms.damp)

    def finish(self) -> None:
        f, g = self.folds
        self.heat = f.e_full * self.heat
        self.f = f.finish(self.f)
        if g.stages:
            self.g = g.finish(self.g)
        self.folds = None

    def norms(self, v: np.ndarray) -> DuhamelNorms:
        """The split's norms, with its drift from the state's ball vector v."""
        ball, volume = self.ball, self.volume
        gap = float(np.sqrt(ball.norm_sq(self.heat + self.f + self.g - v)))
        denom = float(np.sqrt(ball.norm_sq(v)))
        return DuhamelNorms(
            heat_l2=float(np.sqrt(volume * ball.norm_sq(self.heat))),
            f_hminus2=float(np.sqrt(volume * ball.norm_sq(self.f, ball.hminus2))),
            g_hminus2=float(np.sqrt(volume * ball.norm_sq(self.g, ball.hminus2))),
            drift=gap if denom == 0.0 else gap / denom,
        )


class _Stepper:
    """Integrating-factor RK4 on ball vectors for one (grid, params, dt) combination.

    force is the buffer of the nonlinear right-hand side (_force); each
    stage state is formed in it too, since the stage's kernel reads the
    state before _force overwrites it.
    """

    def __init__(
        self,
        grid: GridSpec,
        params: PhysParams,
        cfg: StepperConfig,
        forcing: Callable[[float], np.ndarray] | None = None,
    ):
        self.grid = grid
        self.ball = grid.ball
        self.kernel = _Kernel(grid, params)
        self.params = params
        self.cfg = cfg
        self.forcing = forcing
        self.e_half = np.exp(-params.nu * self.ball.k_sq * (cfg.dt / 2.0))
        self.e_full = self.e_half**2
        self.two_e_half = 2.0 * self.e_half
        self.force = np.empty(self.ball.k.shape, dtype=np.complex128)

    def check_cfl(self, linf: float, t: float) -> None:
        """Refuse a stage at time t whose |u|_inf is not finite or needs a smaller dt."""
        if not np.isfinite(linf):
            raise BlowupError(f"non-finite field (|u|_inf = {linf!r}) at t = {t:g}")
        p = self.params
        radius = self.grid.cutoff_radius
        with np.errstate(over="ignore"):  # inf where Python floats raise OverflowError
            damp = float(p.alpha * np.float64(linf) ** (p.beta - 1.0)) if p.alpha > 0.0 else 0.0
        rate = max(linf * radius, damp, _CFL_FLOOR)
        if not np.isfinite(rate) or self.cfg.dt > _CFL_SAFETY / rate:
            raise CFLError(
                f"dt = {self.cfg.dt:g} exceeds the stability budget safety/rate = "
                f"{_CFL_SAFETY / rate if np.isfinite(rate) else 0.0:g} "
                f"(|u|_inf = {linf:g}, cutoff_radius = {radius:g}, "
                f"alpha |u|_inf^(beta-1) = {damp:g}) at t = {t:g}"
            )

    def _force(self, terms: _NLTerms, t: float) -> np.ndarray:
        """The right-hand side at time t in force: the kernel's terms, projected here, plus forcing(t)."""
        total = _project_terms(self.ball, terms, self.force)
        if self.forcing is not None:
            np.add(total, self.forcing(t), out=total)
        return total

    def advance(
        self, v: np.ndarray, t: float, n1: _NLTerms, duhamel: _Duhamel | None
    ) -> tuple[np.ndarray, float, float]:
        """One step from ball vector v at time t: (new v, visc increment, damp increment).

        n1 is the first stage's kernel evaluation, self.kernel(v), which the
        caller runs (trajectory() before it yields v's snapshot); duhamel is
        the run's split, None under forcing.

        Each stage is folded into the step as soon as it is evaluated: its
        force into the state's _Fold, its kernel terms into the Duhamel
        parts' (duhamel.add) and its two rates into the dissipation
        integrals' _Fold. Then the next stage state is formed in place in
        the force buffer, and the kernel and _force overwrite the stage's
        terms and force. So a step allocates a fixed number of ball vectors,
        whatever the horizon: each vector _Fold's two (the state's, whose
        sum is the new state, and with the Duhamel split f's and g's), the
        split's new heat, and short-lived temporaries (e_half v, e_full v,
        one-component terms).
        """
        dt = self.cfg.dt
        eh, ef = self.e_half, self.e_full
        state = _Fold(ef, self.two_e_half, dt / 6.0)
        # the stage evaluations carry the dissipation rates at the stage
        # states, so the augmented RK4 quadrature is free
        rates = _Fold(1.0, 2.0, dt / 6.0)
        if duhamel is not None:
            duhamel.begin(ef, self.two_e_half, dt)

        def fold(terms: _NLTerms, t: float) -> np.ndarray:
            k = self._force(terms, t)
            state.add(k)
            if duhamel is not None:
                duhamel.add(terms)
            rates.add(np.array([terms.visc_rate, terms.damp_rate]))
            return k

        k = fold(n1, t)
        self.check_cfl(n1.linf, t)
        # s2 = eh (v + dt/2 k1)
        np.multiply(dt / 2.0, k, out=k)
        np.add(v, k, out=k)
        np.multiply(eh, k, out=k)
        k = fold(self.kernel(k), t + dt / 2.0)
        # s3 = eh v + dt/2 k2
        np.multiply(dt / 2.0, k, out=k)
        np.add(eh * v, k, out=k)
        k = fold(self.kernel(k), t + dt / 2.0)
        # s4 = ef v + dt (eh k3)
        np.multiply(eh, k, out=k)
        np.multiply(dt, k, out=k)
        np.add(ef * v, k, out=k)
        fold(self.kernel(k), t + dt)

        vnew = state.finish(v)
        self.ball.project(vnew)
        vnew[:, 0] = 0.0
        if duhamel is not None:
            duhamel.finish()
        d_visc, d_damp = rates.finish(0.0).tolist()
        return vnew, d_visc, d_damp


def trajectory(
    initial: SpectralField | SolverState,
    params: PhysParams,
    cfg: StepperConfig,
    t_end: float,
    *,
    t_start: float = 0.0,
    output_every: float | None = None,
    hooks: Sequence[Callable[[SolverState], None]] = (),
    forcing: Callable[[float], np.ndarray] | None = None,
) -> Iterator[SolverState]:
    """Integrate from t_start to t_end, yielding snapshots at the output cadence.

    t_end - t_start must be zero or, as output_every must be, a positive
    multiple of dt; StepperConfig.steps refuses any other value, one that
    is not finite included, with a ConfigError (a ValueError) that names
    it. Snapshots are scheduled by step index, so reruns and restarts land
    on bitwise-identical times. Hooks are called with each snapshot before it
    is yielded; its duhamel is None when forcing is active, which makes the
    heat/f/g split meaningless. forcing(t) returns a ball vector (3, n_ball)
    in the layout of grid.ball, added as it is to each stage's projected
    right-hand side (manufactured_forcing gives one). The final state is
    always a snapshot.
    Snapshots are exactly Hermitian, zero outside the ball and at m = 0.
    The start is a state, whose vector is taken as it is (not its time or accumulators), or
    a field, taken by its ball entries once validate() accepts it (its ValueError refuses
    any other); m = 0 is zeroed on a copy. A snapshot, or its field, restarts bitwise.

    Each step's first-stage kernel call runs before its start state is
    yielded, and the snapshot's pointwise sums come from the grid values
    that call leaves in the kernel's buffer; the final snapshot runs the
    kernel's inverse alone. The projection, the forcing and the CFL check
    of that stage run in the step itself, after the yield. A run of no
    steps builds no kernel, and its snapshot takes its pointwise sums when
    they are first read.

    Nothing runs until the first snapshot is requested, and only the
    snapshot being yielded is held: a caller that keeps none integrates in
    memory independent of the horizon and the cadence. The reference to the
    start is dropped once its ball entries are read.

    Raises BlowupError on non-finite values or when the split's
    heat + f + g drifts from the state, and CFLError on a stability
    violation; each carries a time in its message.
    """
    span = t_end - t_start
    n_steps = cfg.steps(span, "t_end - t_start") if span else 0
    if output_every is None:
        stride = max(1, n_steps // 100)
    else:
        stride = cfg.steps(output_every, "output_every")

    grid = initial.grid
    if isinstance(initial, SolverState):
        v = initial.vector.copy()
    else:
        initial.validate()
        v = grid.ball.gather(initial.coeffs)
    v[:, 0] = 0.0
    del initial  # only its ball entries are needed from here on
    # the split before the kernel's buffers: built after them, its arrays raised the peak RSS of
    # a 4-step run at N = 64 by 2.7 MiB (where the allocator placed them)
    duhamel = _Duhamel(grid, v) if forcing is None else None
    # a run of no steps builds no stepper, so no kernel: its snapshot takes its pointwise sums when read
    stepper = _Stepper(grid, params, cfg, forcing=forcing) if n_steps else None
    kernel = None if stepper is None else stepper.kernel
    cum_visc = cum_damp = 0.0

    def start(i: int) -> _NLTerms | None:
        """Step i + 1's first-stage kernel terms (None past the last); kernel.u gets v's grid values."""
        if i < n_steps:
            return kernel(v)
        if kernel is not None:
            kernel.inverse(v)
        return None

    def snapshot(i: int) -> SolverState:
        t = t_start + i * cfg.dt  # exact grid time, no accumulation
        norms = None if duhamel is None else duhamel.norms(v)
        if norms is not None and norms.drift > _DUHAMEL_DRIFT_TOL:
            raise BlowupError(f"Duhamel split drifted from the state ({norms.drift:.3e} relative) "
                              f"at t = {t:g}")
        pointwise = None if kernel is None else _pointwise_norms(kernel.u, grid.cell_volume, params.beta)
        snap = SolverState(grid, v, t, params, i, cum_visc, cum_damp, norms, pointwise)
        for hook in hooks:
            hook(snap)
        return snap

    terms = start(0)
    yield snapshot(0)
    for i in range(1, n_steps + 1):
        v, d_visc, d_damp = stepper.advance(v, t_start + (i - 1) * cfg.dt, terms, duhamel)
        cum_visc += d_visc
        cum_damp += d_damp
        if not (np.isfinite(cum_visc) and np.isfinite(cum_damp)):
            raise BlowupError(f"non-finite values at t = {t_start + i * cfg.dt:g} (step {i})")
        terms = start(i)
        if i % stride == 0 or i == n_steps:
            yield snapshot(i)


def run(
    initial: SpectralField | SolverState,
    params: PhysParams,
    cfg: StepperConfig,
    t_end: float,
    *,
    t_start: float = 0.0,
    output_every: float | None = None,
    hooks: Sequence[Callable[[SolverState], None]] = (),
    forcing: Callable[[float], np.ndarray] | None = None,
) -> list[SolverState]:
    """Every snapshot of trajectory() with these arguments, as a list."""
    steps = trajectory(initial, params, cfg, t_end, t_start=t_start,
                       output_every=output_every, hooks=hooks, forcing=forcing)
    del initial  # trajectory drops it once start-up has read it
    return list(steps)


# ---------------------------------------------------------------------------
# manufactured solutions


class SeparableTarget:
    """Closed-form target u*(t) = a(t) U with U fixed, band-limited, solenoidal.

    a must stay positive and smooth; advection and damping then scale as
    a^2 and a^beta, so the forcing that makes u* an exact solution of the
    truncated system is a closed-form combination of four ball vectors
    (layout of GridSpec.ball), each taken once here: vector, U's ball
    entries, and the ball entries of U's advection, damping and viscous
    terms. U must pass validate() and vanish outside the ball to 1e-13
    relative; no full-cube table of the grid is read.
    """

    def __init__(
        self,
        base: SpectralField,
        amplitude: Callable[[float], float],
        amplitude_rate: Callable[[float], float],
        params: PhysParams,
    ):
        base.validate()
        scale, _, outside = _magnitudes(base)
        if outside > 1e-13 * max(scale, 1e-300):
            raise ValueError("target not band-limited within grid")
        self.grid = base.grid
        self.amplitude = amplitude
        self.amplitude_rate = amplitude_rate
        self.params = params
        ball = base.grid.ball
        self.vector = ball.gather(base.coeffs)
        # one kernel call gives both terms, projected in place, the damping mean dropped
        terms = _Kernel(self.grid, params)(self.vector)
        _project_terms(ball, terms, np.empty_like(self.vector))
        self._adv = terms.adv
        self._damp = np.zeros_like(self.vector) if terms.damp is None else terms.damp.copy()
        self._visc = (params.nu * ball.k_sq) * self.vector

    def field(self, t: float) -> SpectralField:
        """u*(t), expanded from a(t) vector."""
        return SpectralField(self.grid, self.grid.ball.expand(self.amplitude(t) * self.vector))

    def forcing(self, t: float) -> np.ndarray:
        """The forcing at time t, a ball vector (3, n_ball)."""
        a = self.amplitude(t)
        if a <= 0.0:
            raise ValueError(f"amplitude must stay positive, got a({t}) = {a!r}")
        da = self.amplitude_rate(t)
        return da * self.vector + a * a * self._adv + a**self.params.beta * self._damp + a * self._visc


def manufactured_forcing(target: SeparableTarget, params: PhysParams) -> Callable[[float], np.ndarray]:
    """Forcing hook F(t) = d/dt u* + advection(u*) + damping(u*) + viscous(u*), a ball vector.

    With this hook passed to run(), the target solves the forced truncated
    system exactly and the numerical error isolates the time discretization.
    """
    if target.params != params:
        raise ValueError("target was precomputed for different physical parameters")
    return target.forcing
