"""Initial velocity fields: all band-limited, solenoidal, and zero-mean."""

from __future__ import annotations

import numpy as np

from .spectral import _BALL_TOL, GridSpec, SpectralField, l2_norm

__all__ = ["taylor_green", "shear_mode", "random_solenoidal"]


def taylor_green(grid: GridSpec, amplitude: float = 1.0) -> SpectralField:
    """Classical Taylor-Green vortex scaled to the box.

    u = A (sin kx cos ky cos kz, -cos kx sin ky cos kz, 0) with k = 2 pi / L.
    Lives on the eight modes (+-1, +-1, +-1); raises if the grid's cutoff
    ball cannot hold them.
    """
    k0 = 2.0 * np.pi / grid.box_length
    if np.sqrt(3.0) * k0 > grid.cutoff_radius * (1.0 + 1e-12):
        raise ValueError(
            "grid too coarse for the Taylor-Green modes: need cutoff_radius >= sqrt(3)*2*pi/L"
        )
    # Exact coefficients: sin x cos y cos z expands into the eight corners
    # (+-1, +-1, +-1) with weight -i s1 / 8 (and +i s2 / 8 for the second
    # component), so the field is placed directly without FFT roundoff.
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                coeffs[0, s1, s2, s3] = -1j * amplitude * s1 / 8.0
                coeffs[1, s1, s2, s3] = 1j * amplitude * s2 / 8.0
    return SpectralField(grid, coeffs)


def shear_mode(grid: GridSpec, amplitude: float = 1.0) -> SpectralField:
    """Single-mode shear flow u = (A sin(2 pi y / L), 0, 0).

    Solenoidal by structure and annihilated by the advection term, so with
    alpha = 0 it evolves by the exact heat factor. Useful as a closed-form
    reference.
    """
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    coeffs[0, 0, 1, 0] = -0.5j * amplitude
    coeffs[0, 0, -1, 0] = 0.5j * amplitude
    return SpectralField(grid, coeffs)


def _solenoidal_ball(grid: GridSpec, seed: int) -> np.ndarray:
    """Ball vector of seeded white noise truncated to |xi| <= R/2, projected, m = 0 zeroed.

    Not normalized. random_solenoidal expands it; the oracle suites keep it.
    """
    ball = grid.ball
    v = ball.from_physical(np.random.default_rng(seed).standard_normal(grid.shape))
    v *= ball.k_sq <= (grid.cutoff_radius / 2.0) ** 2 * (1.0 + _BALL_TOL)
    ball.project(v)
    v[:, 0] = 0.0
    return v


def random_solenoidal(grid: GridSpec, seed: int, amplitude: float = 1.0) -> SpectralField:
    """Seeded random field: white noise, truncated to |xi| <= R/2, projected,
    zero-meaned, and normalized so the L2 norm equals `amplitude`.

    The half-radius support leaves room for the quadratic term to populate
    the rest of the ball before truncation bites.
    """
    f = SpectralField(grid, grid.ball.expand(_solenoidal_ball(grid, seed)))
    norm = l2_norm(f)
    if norm == 0.0:
        raise ValueError("random field collapsed to zero after projection")
    f.coeffs *= amplitude / norm
    return f
