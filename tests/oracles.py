"""Direct-summation reference implementations for the nonlinear terms.

Most of these compute the circular convolutions that pointwise collocation
products are equivalent to, one coefficient pair at a time, with none of the
FFT machinery. ``linear_quadratic_convolution`` instead forms the exact
(non-wrapping) product, so comparing against it detects aliasing. Quadratic
cost in the mode count: only usable on tiny grids, which is the point — an
independent oracle for the pseudo-spectral path.
"""

import numpy as np


def _support(coeffs):
    return np.argwhere(np.abs(coeffs).sum(axis=0) > 0.0)


def quadratic_convolution(u):
    """conv[i, j] = spectral coefficients of the pointwise product u_i u_j."""
    grid = u.grid
    n = grid.n_modes
    c = u.coeffs
    conv = np.zeros((3, 3, n, n, n), dtype=np.complex128)
    support = _support(c)
    for a in support:
        ca = c[:, a[0], a[1], a[2]]
        for b in support:
            cb = c[:, b[0], b[1], b[2]]
            t = (a + b) % n
            conv[:, :, t[0], t[1], t[2]] += np.outer(ca, cb)
    return conv


def linear_quadratic_convolution(u):
    """conv[i, j] = ball coefficients of the exact product u_i u_j.

    Each pair of modes contributes at the signed sum of their mode numbers,
    kept only when that sum lies in the closed cutoff ball; nothing wraps
    around the grid, so no aliased image can enter.
    """
    grid = u.grid
    n = grid.n_modes
    m = grid.mode_numbers
    c = u.coeffs
    radius_sq = grid.cutoff_radius**2 * (1.0 + 1e-12)
    conv = np.zeros((3, 3, n, n, n), dtype=np.complex128)
    support = _support(c)
    for a in support:
        ca = c[:, a[0], a[1], a[2]]
        for b in support:
            t = m[a] + m[b]
            xi = 2.0 * np.pi / grid.box_length * t
            if xi[0] ** 2 + xi[1] ** 2 + xi[2] ** 2 > radius_sq:
                continue
            cb = c[:, b[0], b[1], b[2]]
            conv[:, :, t[0] % n, t[1] % n, t[2] % n] += np.outer(ca, cb)
    return conv


def cubic_damping_hat(u, alpha):
    """Spectral coefficients of alpha |u|^2 u by two nested convolutions.

    Exactly the beta = 3 damping force before truncation/projection; the
    cubic exponent is the one whose physical-space product is a polynomial
    in the coefficients, hence expressible as a convolution sum.
    """
    grid = u.grid
    n = grid.n_modes
    conv = quadratic_convolution(u)
    mag_sq_hat = conv[0, 0] + conv[1, 1] + conv[2, 2]
    c = u.coeffs
    out = np.zeros_like(c)
    support_u = _support(c)
    for s in np.argwhere(np.abs(mag_sq_hat) > 0.0):
        ms = mag_sq_hat[s[0], s[1], s[2]]
        for b in support_u:
            t = (s + b) % n
            out[:, t[0], t[1], t[2]] += ms * c[:, b[0], b[1], b[2]]
    return alpha * out


def project_hat(hat, grid):
    """Leray projection applied directly to a coefficient array."""
    k = grid.wavenumbers
    k_sq = grid.k_sq.copy()
    k_sq[0, 0, 0] = 1.0
    dot = k[0] * hat[0] + k[1] * hat[1] + k[2] * hat[2]
    return np.stack([hat[i] - k[i] * dot / k_sq for i in range(3)])


def divergence_hat(tensor_hat, grid):
    """d_i = i xi_j T[i, j] evaluated at each output mode."""
    k = grid.wavenumbers
    out = np.zeros(grid.shape, dtype=np.complex128)
    for i in range(3):
        for j in range(3):
            out[i] += 1j * k[j] * tensor_hat[i, j]
    return out


def direct_advection(u):
    """Reference for the truncated, projected advection term."""
    grid = u.grid
    div = divergence_hat(quadratic_convolution(u), grid)
    div *= grid.ball_mask
    return project_hat(div, grid)


def linear_advection(u):
    """Reference for the truncated, projected advection term, alias-free by construction."""
    return project_hat(divergence_hat(linear_quadratic_convolution(u), u.grid), u.grid)


def direct_pressure(u, alpha):
    """Reference for the pressure coefficients at beta = 3.

    p = -(-Lap)^(-1) div(total) with total the truncated advection-plus-
    damping coefficients, mean removed.
    """
    grid = u.grid
    total = divergence_hat(quadratic_convolution(u), grid)
    if alpha > 0.0:
        total = total + cubic_damping_hat(u, alpha)
    total *= grid.ball_mask
    k = grid.wavenumbers
    div = 1j * (k[0] * total[0] + k[1] * total[1] + k[2] * total[2])
    k_sq = grid.k_sq.copy()
    k_sq[0, 0, 0] = 1.0
    p_hat = -div / k_sq
    p_hat[0, 0, 0] = 0.0
    return p_hat
