"""Fourier representation of periodic velocity fields and the operators acting on them.

Conventions, fixed once for the whole package:

* Fields live on the cube [0, L)^3 sampled at N points per axis. A velocity
  field is stored as three complex coefficient arrays c[k, m1, m2, m3] in
  standard FFT mode order (0, 1, ..., N/2-1, -N/2, ..., -1 per axis), with
  u(x) = sum_m c_m exp(i xi_m . x) and wavenumber xi_m = (2 pi / L) m.
* Real fields keep Hermitian symmetry c(-m) = conj(c(m)).
* Physical-space norms carry the Lebesgue measure of the box, so the discrete
  Parseval identity reads ||u||_L2^2 = L^3 sum_m |c_m|^2. Homogeneous Sobolev
  norms skip m = 0 (the mean carries no |xi|^s weight on the lattice).
* A sharp cutoff radius R <= (2/3) (2 pi / L) (N / 2), two thirds of the
  Nyquist wavenumber, accompanies every grid; it doubles as the dealiasing
  filter for the quadratic nonlinearity. For grid sizes not divisible by 3
  (in particular all powers of two) no aliased image of a product of two
  ball-supported modes lands back inside the closed ball, so products of
  truncated fields are alias-free on the retained modes.
* Each grid's cutoff ball is also a layout, GridSpec.ball: a flat vector of
  the ball's entries of the rfft half spectrum, with its wavenumber and
  H^-2 / unit-shell tables, pruned transforms and Parseval-weighted sums.
  The stepper evolves such vectors and the ledger's hooks read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

__all__ = [
    "GridSpec",
    "SpectralField",
    "PhysParams",
    "make_grid",
    "to_physical",
    "to_spectral",
    "leray_project",
    "friedrichs_truncate",
    "remove_mean",
    "sobolev_norm",
    "lp_norm_physical",
    "linf_norm",
    "l2_norm",
    "l2_inner",
    "grad_norm_sq",
    "divergence_error",
    "hermitian_error",
    "zeros_like",
]

#: relative slack on the |xi| <= R comparison so boundary shells are kept
#: regardless of how R was rounded ("closed ball" semantics in floats).
_BALL_TOL = 1e-12

#: relative tolerance of validate(), the one state-space check (trajectory's start-up calls it).
_STATE_TOL = 1e-10

#: exponent of the embedding ||u||_{L^(10/3)}^(10/3) <= C ||u||_L2^(4/3) ||grad u||_L2^2 in
#: three dimensions: the snapshots' pointwise mass and the decay diagnostics' floor on beta
_EMBED_P = 10.0 / 3.0

#: values per block in one slab of planes, the unit the ball's transforms stream in: three
#: blocks' slab is at most 768 KiB, so it is still in a 1-2 MiB L2 cache when the next pass reads it
_SLAB = 2**15


def _slabs(n: int, size: int) -> Iterator[slice]:
    """Consecutive slabs of size planes covering 0..N-1, the last maybe fewer."""
    return (slice(p, min(p + size, n)) for p in range(0, n, size))


def _in_ball(k_sq: np.ndarray | float, radius: float) -> np.ndarray | bool:
    """Which of the |xi|^2 values lie in the closed ball |xi| <= radius: the one membership rule."""
    return k_sq <= radius**2 * (1.0 + _BALL_TOL)


@dataclass(frozen=True)
class GridSpec:
    """Periodic cube discretization with a sharp spectral cutoff.

    Attributes:
        n_modes: samples per axis N (even, >= 4); modes satisfy |m_i| < N/2.
        box_length: side length L of the periodic box; refused when |xi|^2
            overflows at the (N/2, N/2, N/2) corner mode.
        cutoff_radius: radius R of the retained closed ball |xi| <= R; must
            not exceed the dealiasing bound (2/3) * (2 pi / L) * (N / 2).
    """

    n_modes: int
    box_length: float
    cutoff_radius: float

    def __post_init__(self) -> None:
        n, length, radius = self.n_modes, self.box_length, self.cutoff_radius
        if not isinstance(n, (int, np.integer)) or n < 4 or n % 2:
            raise ValueError(f"n_modes must be an even integer >= 4, got {n!r}")
        if not 0.0 < length < math.inf:
            raise ValueError(f"box_length must be positive and finite, got {length!r}")
        if not 0.0 < radius < math.inf:
            raise ValueError(f"cutoff_radius must be positive and finite, got {radius!r}")
        bound = (2.0 / 3.0) * (2.0 * np.pi / length) * (n / 2.0)
        if radius > bound * (1.0 + _BALL_TOL):
            raise ValueError(
                f"cutoff_radius {radius:g} exceeds the dealiasing bound "
                f"(2/3)*(2*pi/L)*(N/2) = {bound:g}"
            )
        # the largest |xi|^2, at the (N/2, N/2, N/2) corner, summed as in k_sq; float
        # arithmetic overflows to inf quietly, where the tables' numpy squares would warn
        corner = 2.0 * np.pi / length * (n // 2)
        corner *= corner
        if not math.isfinite(corner + corner + corner):
            raise ValueError(f"box_length {length!r} makes |xi|^2 overflow at the grid's corner mode")

    # Derived arrays are cached on first use; they depend only on the three
    # frozen scalars above, so caching is safe. The full-cube tables serve
    # leray_project, friedrichs_truncate and the full-cube norms; the ball,
    # validate(), and with them every driver, build none of them.

    @cached_property
    def mode_numbers(self) -> np.ndarray:
        """Integer mode index along one axis, in FFT order 0..N/2-1, -N/2..-1."""
        return np.rint(np.fft.fftfreq(self.n_modes, d=1.0 / self.n_modes)).astype(np.int64)

    def _axis_wavenumbers(self) -> np.ndarray:
        """xi along one axis, (2 pi / L) m in FFT order, shape (N,)."""
        return 2.0 * np.pi / self.box_length * self.mode_numbers

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """xi as an array of shape (3, N, N, N)."""
        k1 = self._axis_wavenumbers()
        kx, ky, kz = np.meshgrid(k1, k1, k1, indexing="ij")
        return np.stack([kx, ky, kz])

    @cached_property
    def k_sq(self) -> np.ndarray:
        """|xi|^2, shape (N, N, N)."""
        k = self.wavenumbers
        return k[0] ** 2 + k[1] ** 2 + k[2] ** 2

    @cached_property
    def ball_mask(self) -> np.ndarray:
        """Boolean mask of the retained closed ball |xi| <= cutoff_radius."""
        return _in_ball(self.k_sq, self.cutoff_radius)

    @cached_property
    def low_shell_mask(self) -> np.ndarray:
        """Boolean mask of |xi| < 1 (strict), the low-frequency block."""
        return self.k_sq < 1.0

    @cached_property
    def _k_sq_safe(self) -> np.ndarray:
        """|xi|^2 with the zero mode replaced by 1 (safe divisor)."""
        out = self.k_sq.copy()
        out[0, 0, 0] = 1.0
        return out

    @cached_property
    def ball(self) -> "_Ball":
        """The cutoff ball as entries of the rfft half spectrum (see _Ball)."""
        return _Ball(self)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        n = self.n_modes
        return (3, n, n, n)

    @property
    def volume(self) -> float:
        return self.box_length**3

    @property
    def cell_volume(self) -> float:
        return (self.box_length / self.n_modes) ** 3


def make_grid(n_modes: int, box_length: float, cutoff_fraction: float = 2.0 / 3.0) -> GridSpec:
    """Build a GridSpec from a cutoff fraction of the axis Nyquist wavenumber.

    cutoff_radius = cutoff_fraction * (2 pi / box_length) * (n_modes / 2).
    The fraction must lie in (0, 2/3]; 2/3 is the dealiasing limit for the
    quadratic term. GridSpec validates n_modes and box_length.
    """
    if not 0.0 < cutoff_fraction <= 2.0 / 3.0 + _BALL_TOL:
        raise ValueError(
            f"cutoff_fraction must lie in (0, 2/3], got {cutoff_fraction!r}"
        )
    radius = 0.0
    if box_length:  # a zero length must reach GridSpec's check, not divide by zero here
        radius = cutoff_fraction * (2.0 * np.pi / box_length) * (n_modes / 2.0)
    return GridSpec(n_modes=int(n_modes), box_length=float(box_length), cutoff_radius=radius)


@dataclass
class PhysParams:
    """Physical parameters: viscosity nu, damping strength alpha, damping exponent beta.

    The damping force is alpha |u|^(beta-1) u. alpha = 0 degenerates to plain
    Navier-Stokes (used by the heat-limit checks). Uniqueness-type experiments
    additionally need beta > 3 and the decay diagnostics beta >= 10/3; those
    floors are enforced by the experiments themselves.
    """

    nu: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.nu < math.inf:
            raise ValueError(f"nu must be positive and finite, got {self.nu!r}")
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be nonnegative and finite, got {self.alpha!r}")
        if not 1.0 < self.beta < math.inf:
            raise ValueError(f"beta must exceed 1 and be finite, got {self.beta!r}")


@dataclass
class SpectralField:
    """A three-component velocity field in coefficient space.

    coeffs has shape (3, N, N, N), dtype complex128. validate() checks that
    it lies in the solver's state space.
    """

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.coeffs.shape != self.grid.shape:
            raise ValueError(
                f"coefficient array has shape {self.coeffs.shape}, expected {self.grid.shape}"
            )
        if self.coeffs.dtype != np.complex128:
            self.coeffs = self.coeffs.astype(np.complex128)

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    # -- small arithmetic surface used by the experiments ------------------

    def _check_same_grid(self, other: "SpectralField") -> None:
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs)

    def validate(self) -> None:
        """Raise ValueError if any structural invariant is violated.

        Checks, each to 1e-10 relative to the coefficient scale: Hermitian
        symmetry, support inside the closed cutoff ball, zero mean, and
        solenoidality. Reads the ball's index tables and the 1-D axis
        wavenumbers, never a full-cube table of the grid. Its work arrays
        hold one component at a time (the magnitudes, the Hermitian gap,
        the power sums; the divergence is one component's size), so it
        peaks below one cube of coefficients; maxima are exact and sums
        run in the order of the whole-array expressions.
        """
        scale, mean, outside = _magnitudes(self)
        if scale == 0.0:
            return
        if not math.isfinite(scale):  # max propagates NaN and inf
            raise ValueError("field contains non-finite coefficients")
        herm = _hermitian_gap(self.coeffs) / scale
        if herm > _STATE_TOL:
            raise ValueError(f"Hermitian symmetry violated: relative error {herm:.3e}")
        if outside > _STATE_TOL * scale:
            raise ValueError("coefficients outside the cutoff ball are not zero")
        if mean > _STATE_TOL * scale:
            raise ValueError(f"mean mode is not zero (|c(0)| = {mean:.3e})")
        div = divergence_error(self)
        if div > _STATE_TOL:
            raise ValueError(f"field is not solenoidal: xi.u error is {div:.3e}")


def zeros_like(grid: GridSpec) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))


# ---------------------------------------------------------------------------
# transforms


def to_physical(f: SpectralField) -> np.ndarray:
    """Collocation samples of the field, shape (3, N, N, N), real.

    Inverse of to_spectral under the unit-amplitude convention: the inverse
    transform is the plain exponential sum. The field must be Hermitian,
    c(-m) = conj(c(m)), as every real field is: the real-to-complex inverse
    reads only the half spectrum m3 = 0..N/2 and takes the other half to be
    its conjugate.
    """
    n = f.grid.n_modes
    return np.fft.irfftn(f.coeffs[..., : n // 2 + 1], s=(n, n, n), axes=(1, 2, 3), norm="forward")


def to_spectral(samples: np.ndarray, grid: GridSpec) -> SpectralField:
    """Coefficients of sampled data (forward transform, 1/N^3 normalized).

    No truncation or projection is applied; compose with friedrichs_truncate
    and leray_project to land in the solver's state space. No path in the
    package calls it: fields truncated to the cutoff ball at once take the
    ball's pruned forward transform, GridSpec.ball.from_physical.
    """
    samples = np.asarray(samples)
    if samples.shape != grid.shape:
        raise ValueError(f"samples have shape {samples.shape}, expected {grid.shape}")
    coeffs = np.fft.fftn(samples, axes=(1, 2, 3), norm="forward")
    return SpectralField(grid, coeffs)


# ---------------------------------------------------------------------------
# Fourier-multiplier operators


def _project(c: np.ndarray, k: np.ndarray, k_sq_safe: np.ndarray) -> None:
    """Leray projection of c in place, for c and k of shape (3, ...): c -= xi (xi . c) / |xi|^2.

    k_sq_safe is |xi|^2 with the zero mode replaced by 1, where xi = 0
    leaves c unchanged. The gradient part is subtracted one component at a
    time, so no temporary has c's size. leray_project and _Ball.project
    both run it.
    """
    dot = k[0] * c[0]
    dot += k[1] * c[1]
    dot += k[2] * c[2]
    dot /= k_sq_safe
    for i in range(3):
        c[i] -= k[i] * dot


def leray_project(f: SpectralField) -> SpectralField:
    """Project onto divergence-free fields: multiply by I - xi xi^T / |xi|^2.

    Acts mode by mode; the zero mode passes through unchanged (the projector
    is the identity there). Idempotent, self-adjoint, and it commutes with
    any other Fourier multiplier, truncation included.
    """
    out = f.coeffs.copy()
    _project(out, f.grid.wavenumbers, f.grid._k_sq_safe)
    return SpectralField(f.grid, out)


def friedrichs_truncate(f: SpectralField, radius: float | None = None) -> SpectralField:
    """Zero every coefficient with |xi| > radius (closed ball kept).

    radius defaults to the grid's own cutoff_radius. Norm-nonincreasing and
    idempotent; at the grid's own radius it is the dealiasing filter.
    """
    if radius is None:
        radius = f.grid.cutoff_radius
    if radius < 0.0:
        raise ValueError(f"truncation radius must be nonnegative, got {radius!r}")
    return SpectralField(f.grid, f.coeffs * _in_ball(f.grid.k_sq, radius))


def remove_mean(f: SpectralField) -> SpectralField:
    """Zero the m = 0 coefficient (velocity frame choice)."""
    out = f.coeffs.copy()
    out[:, 0, 0, 0] = 0.0
    return SpectralField(f.grid, out)


# ---------------------------------------------------------------------------
# norms and inner products: every coefficient norm is one _weighted_sum over
# one _power spectrum, every collocation norm reads _speed_sq


def _power(c: np.ndarray) -> np.ndarray:
    """|c|^2 mode by mode, summed over the leading component axis.

    The components are added one at a time, each |c_i|^2 formed in one
    work array, so no temporary has the size of c; every value has the
    bits of (c.real**2 + c.imag**2).sum(axis=0).
    """
    power = c[0].real**2
    power += c[0].imag**2
    if len(c) > 1:
        term = np.empty_like(power)
        for comp in c[1:]:
            np.square(comp.real, out=term)
            term += comp.imag**2
            power += term
    return power


def _weighted_sum(power: np.ndarray, weight: np.ndarray | None = None) -> float:
    """sum_m weight(m) power(m) (the plain sum when weight is None), any mode layout."""
    if weight is None:
        return float(power.sum())
    return float((weight * power).sum())


def _sobolev_weight(k_sq: np.ndarray, s: float, homogeneous: bool) -> np.ndarray:
    """|xi|^(2s) with 0 at m = 0 (homogeneous), or (1 + |xi|^2)^s, from |xi|^2."""
    if not homogeneous:
        return (1.0 + k_sq) ** s
    return np.power(k_sq, s, out=np.zeros_like(k_sq), where=k_sq > 0.0)


def _speed_sq(f: SpectralField) -> np.ndarray:
    """|u|^2 = sum_i u_i^2 at the collocation points, shape (N, N, N)."""
    u = to_physical(f)
    return u[0] ** 2 + u[1] ** 2 + u[2] ** 2


def sobolev_norm(f: SpectralField, s: float, homogeneous: bool = True) -> float:
    """Sobolev norm of order s under the package Parseval convention.

    homogeneous: sqrt(L^3 sum_{m != 0} |xi|^(2s) |c|^2). The m = 0 term is
    skipped; for the zero-mean fields the solver works with, s = 0 is the
    L2 norm.
    inhomogeneous: sqrt(L^3 sum_m (1 + |xi|^2)^s |c|^2) (H^s, all modes).
    """
    weight = _sobolev_weight(f.grid.k_sq, s, homogeneous)
    total = _weighted_sum(_power(f.coeffs), weight)
    return float(np.sqrt(f.grid.volume * max(total, 0.0)))


def l2_norm(f: SpectralField) -> float:
    """Physical L2 norm, sqrt(L^3 sum |c|^2) (mean mode included)."""
    return float(np.sqrt(f.grid.volume * _weighted_sum(_power(f.coeffs))))


def l2_inner(f: SpectralField, g: SpectralField) -> float:
    """Real L2 inner product <f, g> = L^3 Re sum conj(c_f) c_g."""
    f._check_same_grid(g)
    a, b = f.coeffs, g.coeffs
    return float(f.grid.volume * (a.real * b.real + a.imag * b.imag).sum())


def grad_norm_sq(f: SpectralField) -> float:
    """||grad f||_L2^2 = L^3 sum |xi|^2 |c|^2."""
    return f.grid.volume * _weighted_sum(_power(f.coeffs), f.grid.k_sq)


def lp_norm_physical(f: SpectralField, p: float) -> float:
    """L^p norm of the pointwise magnitude by collocation quadrature.

    (sum_j |u(x_j)|^p dV)^(1/p) with dV the grid cell volume and |u| the
    Euclidean magnitude of the velocity vector. For p = 2 this matches the
    coefficient norm to roundoff (discrete Parseval).
    """
    if not p >= 1.0:
        raise ValueError(f"p must be >= 1, got {p!r}")
    total = float((_speed_sq(f) ** (p / 2.0)).sum()) * f.grid.cell_volume
    return float(total ** (1.0 / p))


def linf_norm(f: SpectralField) -> float:
    """Max pointwise Euclidean magnitude on the collocation grid."""
    return float(np.sqrt(float(_speed_sq(f).max())))


# ---------------------------------------------------------------------------
# diagnostics: one component at a time, so no temporary has the size of the cube


def _magnitudes(f: SpectralField) -> tuple[float, float, float]:
    """The largest |c| of f, the largest at m = 0 and the largest outside the cutoff ball.

    One np.abs pass per component; its ball entries (GridSpec.ball) are
    then zeroed in place, so the last maximum reads no full-cube mask.
    Each maximum is exact and np.max propagates NaN, so taking them
    component by component changes no bit.
    """
    ball, found = f.grid.ball, []
    for c in f.coeffs:
        mag = np.abs(c)
        flat = mag.reshape(-1)
        scale, mean = mag.max(), flat[0]
        flat[ball.full_index] = 0.0
        flat[ball.conj_full_index] = 0.0
        found.append((scale, mean, flat.max()))
    scale, mean, outside = np.max(found, axis=0).tolist()
    return scale, mean, outside


def _hermitian_gap(c: np.ndarray) -> float:
    """max over the modes of |c(m) - conj(c(-m))|, from one rolled copy of a component at a time."""
    gaps = []
    for comp in c:
        gap = np.roll(comp[::-1, ::-1, ::-1], shift=(1, 1, 1), axis=(0, 1, 2))
        np.conjugate(gap, out=gap)
        np.subtract(comp, gap, out=gap)
        gaps.append(np.abs(gap).max())
    return float(np.max(gaps))


def divergence_error(f: SpectralField) -> float:
    """Relative size of xi . u: ||xi.u||_l2 / (R ||u||_l2), 0 for the zero field."""
    k1, c = f.grid._axis_wavenumbers(), f.coeffs
    denom = f.grid.cutoff_radius * float(np.sqrt(_weighted_sum(_power(c))))
    if denom == 0.0:
        return 0.0
    # (k1 c0 + k2 c1) + k3 c2, summed in place
    div = k1[:, None, None] * c[0]
    div += k1[None, :, None] * c[1]
    div += k1[None, None, :] * c[2]
    return float(np.sqrt(_weighted_sum(_power(div[np.newaxis]))) / denom)


def hermitian_error(f: SpectralField) -> float:
    """Relative deviation from c(-m) = conj(c(m))."""
    scale = float(np.max(np.abs(f.coeffs)))
    if scale == 0.0:
        return 0.0
    return _hermitian_gap(f.coeffs) / scale


# ---------------------------------------------------------------------------
# the cutoff ball in rfft layout, the state vector of the stepper and the ledger


class _Ball:
    """The cutoff ball of one grid as entries of its rfft half spectrum.

    Entry j of a ball vector (shape (3, n_ball)) is the coefficient at mode
    full_index[j] of the (N, N, N) cube: every ball mode with m3 > 0, and in
    the m3 = 0 plane one mode of each conjugate pair (m1 > 0, or m1 = 0 and
    m2 >= 0, so m = 0 is entry 0). The other half of the spectrum is the
    complex conjugate, written out by expand() and to_physical(), so every
    array built from a ball vector is Hermitian by construction. The cutoff
    keeps |m3| <= N/3, so the Nyquist plane m3 = N/2 holds no entry. Parseval
    weights are 2 for every entry (it stands for itself and its conjugate)
    and 1 for m = 0.

    to_physical() and from_physical() visit only the planes m3 <= top, the
    x_lines (m2, m3) along x and the y_lines (m1, m3) along y that hold an
    entry, each pass in the order of pocketfft's irfftn and rfftn, as
    numpy.fft (NumPy >= 2) runs them. So they equal the full transforms:
    bitwise, except that at N not a power of two the forward's per-pass 1/N
    factors round differently from one 1/N^3 (about 4e-16 of the largest
    coefficient). The tests check them against SciPy's full transforms.

    Both stream slab by slab, so neither holds a half-spectrum cube. A
    slab is slab planes, fixed when the ball is built from _SLAB values per
    block (8 at N = 64, the whole grid at N <= 32), and the y_lines' gather
    table y_gather is built for it. The inverse's x pass leaves every
    x-plane independent, and each slab of x-planes takes its y and z
    passes into the grid values. The forward takes each slab of y-planes
    through its z and x passes and gathers the slab's part of the y_lines,
    whose y pass follows the last slab. from_slabs() takes the blocks one
    slab at a time from the caller, so the stepper's kernel forms its
    products a slab at a time and never holds a block cube;
    from_physical() passes slabs of whole blocks.

    Built once per grid, as GridSpec.ball, from the 1-D mode numbers
    broadcast over the (N, N, N/2 + 1) half spectrum, with |xi|^2 summed in
    the order of GridSpec.k_sq: membership and every table have the bits of
    the full-cube tables, which the ball never builds. It holds no
    reference back to its grid, so a grid and its ball are freed together.
    Every array is read-only; nothing here is scratch space, so threads may
    share one instance. to_physical() and from_slabs() take a caller's
    work arrays, each at most a slab of half spectrum or one line array
    (the stepper's kernel passes its own), and allocate those not given.
    """

    def __init__(self, grid: GridSpec):
        n = self.n_modes = grid.n_modes
        half = n // 2 + 1
        m, k1 = grid.mode_numbers, grid._axis_wavenumbers()
        # |xi|^2 on the half spectrum, summed in the order of GridSpec.k_sq, so
        # membership and every table below have the bits of the full-cube ones
        sq = k1**2
        k_sq = sq[:, None, None] + sq[None, :, None] + sq[None, None, :half]
        mx, my, mz = m[:, None, None], m[None, :, None], m[None, None, :half]
        kept = _in_ball(k_sq, grid.cutoff_radius) & ((mz > 0) | (mx > 0) | ((mx == 0) & (my >= 0)))
        entries = np.flatnonzero(kept)
        ix, iy, iz = np.unravel_index(entries, (n, n, half))
        self.full_index = np.ravel_multi_index((ix, iy, iz), (n, n, n))
        conj = ((-ix) % n, (-iy) % n, (-iz) % n)
        self.conj_full_index = np.ravel_multi_index(conj, (n, n, n))[1:]
        self.k = np.stack([k1[ix], k1[iy], k1[iz]])
        self.k_sq = k_sq.reshape(-1)[entries]
        self.k_sq_safe = np.where(self.k_sq == 0.0, 1.0, self.k_sq)
        self.hminus2 = _sobolev_weight(self.k_sq, -2.0, homogeneous=False)  # (1 + |xi|^2)^-2
        self.low_shell = self.k_sq < 1.0  # as GridSpec.low_shell_mask
        self.weight = np.full(ix.size, 2.0)
        self.weight[0] = 1.0
        self.top = int(iz.max())
        planes = self.top + 1
        # planes of N^2 values in a slab of about _SLAB values: 8 at N = 64, N at N <= 32
        self.slab = min(n, max(1, _SLAB // n**2))
        self.plane = np.flatnonzero(iz == 0)[1:]  # m3 = 0 entries other than m = 0
        # inverse: the x_lines hold every entry and m3 = 0 mirror; slot = m1 * len(x_lines) + line
        mirror_x, mirror_y = conj[0][self.plane], conj[1][self.plane]
        key = np.concatenate([iy * planes + iz, mirror_y * planes])
        lines, line = np.unique(key, return_inverse=True)
        self.x_lines = np.array(np.divmod(lines, planes))
        self.x_slot = ix * lines.size + line[: ix.size]
        self.x_mirror_slot = mirror_x * lines.size + line[ix.size:]
        # forward: the y_lines (m1, m3) hold every entry; slot = m2 * len(y_lines) + line
        lines, line = np.unique(ix * planes + iz, return_inverse=True)
        self.y_m1, self.y_m3 = np.divmod(lines, planes)
        self.y_slot = iy * lines.size + line
        # each y_line's mode on each y-plane of one component of a spec slab, (slab, len(y_lines))
        rows = half * np.arange(self.slab)
        self.y_gather = np.add.outer(rows, (self.slab * half) * self.y_m1 + self.y_m3)

        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False

    def gather(self, coeffs: np.ndarray) -> np.ndarray:
        """Ball vector of a full (3, N, N, N) coefficient array (restriction to the ball)."""
        return np.take(coeffs.reshape(3, -1), self.full_index, axis=1)

    def expand(self, v: np.ndarray) -> np.ndarray:
        """Full (..., N, N, N) coefficients of a ball vector (..., n_ball), zero outside the ball."""
        n = self.n_modes
        lead = v.shape[:-1]
        out = np.zeros(lead + (n**3,), dtype=np.complex128)
        out[..., self.full_index] = v
        out[..., self.conj_full_index] = np.conj(v[..., 1:])
        return out.reshape(lead + (n, n, n))

    def to_physical(self, v: np.ndarray, out=None, lines=None, planes=None) -> np.ndarray:
        """Grid values (k, N, N, N) of a ball vector (k, n_ball): ifft on x_lines, then slab by slab.

        Each slab of x-planes is zeroed in planes, takes its x_lines'
        values, and is transformed along y, then irfft along z straight
        into out. out, lines (k, N, len(x_lines)) and planes (k, slab, N,
        top + 1), when given, receive the result and the passes' work; by
        default all three are allocated.
        """
        n, comps = self.n_modes, len(v)
        if out is None:
            out = np.empty((comps, n, n, n))
        if lines is None:
            lines = np.empty((comps, n, self.x_lines.shape[1]), dtype=np.complex128)
        if planes is None:
            planes = np.empty((comps, self.slab, n, self.top + 1), dtype=np.complex128)
        lines[...] = 0.0
        flat = lines.reshape(comps, -1)
        flat[:, self.x_slot] = v
        flat[:, self.x_mirror_slot] = np.conj(v[:, self.plane])
        np.fft.ifft(lines, axis=1, norm="forward", out=lines)
        for xs in _slabs(n, self.slab):
            slab = planes[:, : xs.stop - xs.start]
            slab[...] = 0.0
            slab[:, :, self.x_lines[0], self.x_lines[1]] = lines[:, xs]
            np.fft.ifft(slab, axis=2, norm="forward", out=slab)
            np.fft.irfft(slab, n=n, axis=3, norm="forward", out=out[:, xs])
        return out

    def from_physical(self, blocks: np.ndarray) -> np.ndarray:
        """Ball entries (k, n_ball) of real blocks (k, N, N, N), by from_slabs; allocates its work.

        Each slab of y-planes is copied out contiguous (unless it is the
        whole grid), so that its z pass is one call rather than one per x-plane.
        """
        return self.from_slabs(lambda ys: np.ascontiguousarray(blocks[:, :, ys]), len(blocks))

    def from_slabs(self, values, comps: int, out=None, spec=None, lines=None) -> np.ndarray:
        """Ball entries (comps, n_ball) of real blocks that come slab by slab of y-planes.

        values(ys) gives the blocks on the y-planes ys, (comps, N, S', N), a
        view or a buffer of the caller's. Each slab takes the rfft along z
        into spec (comps, N, slab, N/2 + 1), the fft along x on its planes
        m3 <= top (a line along x lies within a y-plane), and gives its
        values on the y_lines to lines (comps, N, len(y_lines)), y along
        axis 1. After the last slab the y_lines take the fft along y and out
        (comps, n_ball) their ball entries. out, spec and lines are
        allocated unless given.
        """
        n, half = self.n_modes, self.n_modes // 2 + 1
        if out is None:
            out = np.empty((comps, self.k_sq.size), dtype=np.complex128)
        if spec is None:
            spec = np.empty((comps, n, self.slab, half), dtype=np.complex128)
        if lines is None:
            lines = np.empty((comps, n, self.y_m1.size), dtype=np.complex128)
        for ys in _slabs(n, self.slab):
            slab = spec[:, :, : ys.stop - ys.start]
            np.fft.rfft(values(ys), axis=3, norm="forward", out=slab)
            planes = slab[..., : self.top + 1]
            np.fft.fft(planes, axis=1, norm="forward", out=planes)
            # mode="clip": the default "raise" copies out before writing it; the rows ys
            # of lines are contiguous only within a component
            for c in range(comps):
                np.take(spec[c], self.y_gather[: ys.stop - ys.start], out=lines[c, ys], mode="clip")
        np.fft.fft(lines, axis=1, norm="forward", out=lines)
        return np.take(lines.reshape(comps, -1), self.y_slot, axis=1, out=out, mode="clip")

    def norm_sq(self, v: np.ndarray, multiplier: np.ndarray | None = None) -> float:
        """sum over the full cube of multiplier(m) |c_m|^2 (no box volume factor)."""
        return self.norms_sq(v, (multiplier,))[0]

    def norms_sq(self, v: np.ndarray, multipliers) -> list[float]:
        """norm_sq(v, multiplier) for each of the multipliers, from one power spectrum of v."""
        power = _power(v)
        return [_weighted_sum(power, self.weight if m is None else self.weight * m)
                for m in multipliers]

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """sum over the full cube of Re conj(a_m) b_m (no box volume factor), as l2_inner."""
        return _weighted_sum((a.real * b.real + a.imag * b.imag).sum(axis=0), self.weight)

    def project(self, v: np.ndarray) -> None:
        """Leray projection of ball vector v in place, by _project; m = 0 passes unchanged."""
        _project(v, self.k, self.k_sq_safe)
