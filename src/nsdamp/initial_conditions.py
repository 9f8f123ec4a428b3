"""Initial velocity fields: all band-limited, solenoidal, and zero-mean."""

from __future__ import annotations

import numpy as np

from .spectral import (
    GridSpec,
    SpectralField,
    friedrichs_truncate,
    l2_norm,
    leray_project,
    remove_mean,
)

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


def random_solenoidal(grid: GridSpec, seed: int, amplitude: float = 1.0) -> SpectralField:
    """Seeded random field: white noise, truncated to |xi| <= R/2, projected,
    zero-meaned, and normalized so the L2 norm equals `amplitude`.

    The half-radius support leaves room for the quadratic term to populate
    the rest of the ball before truncation bites.
    """
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(grid.shape)
    f = SpectralField(grid, grid.ball.expand(grid.ball.from_physical(noise)))
    f = friedrichs_truncate(f, grid.cutoff_radius / 2.0)
    f = remove_mean(leray_project(f))
    norm = l2_norm(f)
    if norm == 0.0:
        raise ValueError("random field collapsed to zero after projection")
    return SpectralField(grid, f.coeffs * (amplitude / norm))
