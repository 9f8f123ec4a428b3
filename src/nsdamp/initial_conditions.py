"""Initial velocity fields, band-limited, solenoidal and zero-mean: expansions of ball vectors."""

from __future__ import annotations

import numpy as np

from .spectral import GridSpec, SpectralField, _in_ball

__all__ = ["taylor_green", "random_solenoidal"]


def _taylor_green_vector(grid: GridSpec, amplitude: float = 1.0) -> np.ndarray:
    """taylor_green's ball vector (3, n_ball)."""
    k0 = 2.0 * np.pi / grid.box_length
    sq = k0 * k0  # |xi|^2 of the eight modes, formed and summed as in the ball's tables
    if not _in_ball(sq + sq + sq, grid.cutoff_radius):
        raise ValueError("grid too coarse for the Taylor-Green modes: need cutoff_radius >= sqrt(3)*2*pi/L")
    # exact, no FFT roundoff: sin x cos y cos z has weight -i s1 / 8 at the corners (s1, s2, s3) =
    # (+-1, +-1, +-1), the second component +i s2 / 8; the ball holds the four with m3 = 1
    ball, n = grid.ball, grid.n_modes
    v = np.zeros(ball.k.shape, dtype=np.complex128)
    for s1 in (1, -1):
        for s2 in (1, -1):
            entry = ball.full_index == np.ravel_multi_index((s1 % n, s2 % n, 1), (n, n, n))
            v[0, entry] = -1j * amplitude * s1 / 8.0
            v[1, entry] = 1j * amplitude * s2 / 8.0
    return v


def taylor_green(grid: GridSpec, amplitude: float = 1.0) -> SpectralField:
    """Classical Taylor-Green vortex scaled to the box.

    u = A (sin kx cos ky cos kz, -cos kx sin ky cos kz, 0) with k = 2 pi / L.
    Lives on the eight modes (+-1, +-1, +-1); raises exactly when they are
    not entries of the grid's cutoff ball.
    """
    return SpectralField(grid, grid.ball.expand(_taylor_green_vector(grid, amplitude)))


def _noise(grid: GridSpec, seed: int, out: np.ndarray | None = None) -> np.ndarray:
    """Seeded white noise on the grid, (3, N, N, N): random_solenoidal's draw, into out when given."""
    return np.random.default_rng(seed).standard_normal(grid.shape, out=out)


def _solenoidal(grid: GridSpec, v: np.ndarray) -> None:
    """Truncate ball vectors v (..., 3, n_ball) to |xi| <= R/2, project them and zero m = 0, in place.

    Not normalized. random_solenoidal applies it to the ball vector of its
    noise; the oracle suites to a chunk of fields at once, which gives each
    field the bits it gets alone (every operation is entrywise).
    """
    ball = grid.ball
    v *= _in_ball(ball.k_sq, grid.cutoff_radius / 2.0)
    ball.project(np.moveaxis(v, -2, 0))
    v[..., 0] = 0.0


def _normalise(grid: GridSpec, v: np.ndarray, amplitude: float) -> None:
    """Scale ball vector v in place to the L2 norm amplitude, by its ball Parseval norm: the one rule."""
    norm = np.sqrt(grid.volume * grid.ball.norm_sq(v))
    if norm == 0.0:
        raise ValueError("random field collapsed to zero after projection")
    v *= amplitude / norm


def _random_vector(grid: GridSpec, seed: int, amplitude: float = 1.0) -> np.ndarray:
    """random_solenoidal's ball vector (3, n_ball)."""
    v = grid.ball.from_physical(_noise(grid, seed))
    _solenoidal(grid, v)
    _normalise(grid, v, amplitude)
    return v


def random_solenoidal(grid: GridSpec, seed: int, amplitude: float = 1.0) -> SpectralField:
    """Seeded random field: white noise, truncated to |xi| <= R/2, projected,
    zero-meaned, and normalized so the L2 norm equals `amplitude`.

    The half-radius support leaves room for the quadratic term to populate
    the rest of the ball before truncation bites.
    """
    return SpectralField(grid, grid.ball.expand(_random_vector(grid, seed, amplitude)))
