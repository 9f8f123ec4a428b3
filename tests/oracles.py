"""Direct-summation reference implementations for the nonlinear terms.

Most of these compute the circular convolutions that pointwise collocation
products are equivalent to, one coefficient pair at a time, with none of the
FFT machinery. ``linear_quadratic_convolution`` instead forms the exact
(non-wrapping) product, so comparing against it detects aliasing. Quadratic
cost in the mode count: only usable on tiny grids, which is the point — an
independent oracle for the pseudo-spectral path.

``full_inverse`` and ``full_forward`` are the unpruned transforms of the
stepper's ball vectors: whole-spectrum ``irfftn`` and ``rfftn``, which the
pruned ``_Ball`` transforms must reproduce.

``unfused_kernel`` evaluates the stepper's nonlinear kernel with every
product block a whole array of its own, all of them formed before
``_Ball.from_physical`` transforms them, which the kernel's slab-by-slab
products must reproduce bit for bit.

``fftn_random_solenoidal``, ``fftn_random_band_limited`` and
``fftn_product_law_ratio`` build the seeded random fields and the
product-law ratio from the full ``fftn`` of the whole cube, which the
package's ball transforms and half-spectrum sums must reproduce.

``full_cube_ball_tables`` reads the cutoff ball's entries and tables off the
grid's full-cube wavenumber, |xi|^2 and mask tables, which the ball's own
construction from 1-D mode numbers must reproduce bit for bit.

``reference_validate``, ``reference_hermitian_error`` and
``reference_divergence_error`` are the state-space check as it read the
grid's full-cube mask and wavenumber tables, with a separate finiteness
pass, which the table-free ``SpectralField.validate`` must reproduce:
the same verdicts and messages from bitwise-equal measures.

``gradient_part`` is the gradient part xi (xi . c) / |xi|^2 formed as one
whole (3, ...) array, which ``leray_project`` and the stepper's in-place,
component-by-component projection must reproduce bit for bit when it is
subtracted from c.

``list_combine`` is the integrating-factor RK4 combination formed whole
from all four stage terms, and ``list_form_step`` is a step that keeps
every stage's force and kernel terms, as copies, until that combination
forms the new state and the Duhamel parts; the stepper, which folds each
stage in as it arrives, must reproduce both bit for bit.

``full_cube_ledger`` folds snapshots with the snapshot hooks' formulas over
the whole (3, N, N, N) coefficient cube, which the hooks' ball sums and
pruned inverse transform must reproduce.
"""

import numpy as np
import scipy.fft

from nsdamp.dynamics import _Kernel
from nsdamp.spectral import (
    SpectralField,
    friedrichs_truncate,
    l2_norm,
    leray_project,
    remove_mean,
)


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


def scatter(ball, v):
    """rfft half spectrum (3, N, N, N/2+1) of a ball vector: its entries and their m3 = 0 mirrors."""
    n = ball.n_modes
    ix, iy, iz = np.unravel_index(ball.full_index, (n, n, n))
    plane = np.flatnonzero(iz == 0)[1:]  # m = 0 is its own mirror
    out = np.zeros((3, n, n, n // 2 + 1), dtype=np.complex128)
    out[:, ix, iy, iz] = v
    out[:, (-ix[plane]) % n, (-iy[plane]) % n, 0] = np.conj(v[:, plane])
    return out


def full_cube_ball_tables(grid):
    """The ball's entry indices and per-entry tables, read off GridSpec's full (N, N, N) tables."""
    n = grid.n_modes
    half = n // 2 + 1
    m = grid.mode_numbers
    mx, my, mz = np.meshgrid(m, m, m[:half], indexing="ij")
    kept = grid.ball_mask[:, :, :half] & ((mz > 0) | (mx > 0) | ((mx == 0) & (my >= 0)))
    ix, iy, iz = np.unravel_index(np.flatnonzero(kept), (n, n, half))
    k_sq = grid.k_sq[ix, iy, iz]
    return {
        "full_index": np.ravel_multi_index((ix, iy, iz), (n, n, n)),
        "conj_full_index": np.ravel_multi_index(((-ix) % n, (-iy) % n, (-iz) % n), (n, n, n))[1:],
        "k": grid.wavenumbers[:, ix, iy, iz],
        "k_sq": k_sq,
        "k_sq_safe": np.where(k_sq == 0.0, 1.0, k_sq),
        "hminus2": (1.0 + k_sq) ** -2.0,
        "low_shell": grid.low_shell_mask[ix, iy, iz],
    }


def full_inverse(ball, v):
    """irfftn of the whole half spectrum of a ball vector."""
    n = ball.n_modes
    return scipy.fft.irfftn(scatter(ball, v), s=(n, n, n), axes=(1, 2, 3), norm="forward")


def full_forward(ball, blocks):
    """rfftn of real blocks (k, N, N, N) over the whole half spectrum, gathered at the ball entries."""
    n = ball.n_modes
    index = np.ravel_multi_index(np.unravel_index(ball.full_index, (n, n, n)), (n, n, n // 2 + 1))
    hats = scipy.fft.rfftn(blocks, axes=(1, 2, 3), norm="forward")
    return np.take(hats.reshape(len(blocks), -1), index, axis=1)


def unfused_kernel(grid, params, v, advect=True):
    """The kernel's (adv, damp, visc_rate, damp_rate, linf) from whole product blocks.

    The same pointwise formulas, in the same order, as the kernel, but each
    block is a full (N, N, N) array and all of them exist before the
    forward transform; adv is i xi_j (u_i u_j)-hat summed over j = 0, 1, 2.
    """
    ball = grid.ball
    u = ball.to_physical(v)
    mag_sq = (u[0] ** 2 + u[1] ** 2) + u[2] ** 2
    linf = float(np.sqrt(float(mag_sq.max())))
    pairs = [(i, j) for i in range(3) for j in range(i, 3)] if advect else []
    blocks = [u[i] * u[j] for i, j in pairs]
    damp_rate = 0.0
    if params.alpha > 0.0:
        weight = mag_sq ** ((params.beta - 1.0) / 2.0)
        damp_rate = 2.0 * params.alpha * float((mag_sq * weight).sum()) * grid.cell_volume
        blocks += [params.alpha * weight * u[i] for i in range(3)]
    hats = ball.from_physical(np.array(blocks))
    adv = damp = None
    if advect:
        def block(i, j):
            return hats[pairs.index((min(i, j), max(i, j)))]

        k = ball.k
        adv = np.stack([1j * (k[0] * block(i, 0) + k[1] * block(i, 1) + k[2] * block(i, 2))
                        for i in range(3)])
    if params.alpha > 0.0:
        damp = hats[len(pairs):]
    visc_rate = 2.0 * params.nu * grid.volume * ball.norm_sq(v, ball.k_sq)
    return adv, damp, visc_rate, damp_rate, linf


def gradient_part(c, k, k_sq_safe):
    """xi (xi . c) / |xi|^2 mode by mode, one array, for c and k of shape (3, ...).

    k_sq_safe is |xi|^2 with the zero mode replaced by 1.
    """
    dot = k[0] * c[0] + k[1] * c[1] + k[2] * c[2]
    dot /= k_sq_safe
    return k * dot[np.newaxis]


def list_combine(x, stages, e_half, e_full, dt):
    """e_full x + dt/6 (e_full s1 + 2 e_half (s2 + s3) + s4), from the four stage terms at once."""
    s1, s2, s3, s4 = stages
    return e_full * x + (dt / 6.0) * (e_full * s1 + 2.0 * e_half * (s2 + s3) + s4)


def list_form_step(grid, params, dt, v, heat, f, g):
    """One integrating-factor RK4 step of the state v and its Duhamel split (heat, f, g).

    Every stage's force and projected kernel terms are copies kept to the
    end of the step, where list_combine forms the new state (projected,
    m = 0 zeroed), f and g (with -dt) and the dissipation increments; the
    projection subtracts the whole gradient part at once. Returns
    (v, heat, f, g, d_visc, d_damp); g is returned as given when alpha = 0.
    """
    ball = grid.ball
    kernel = _Kernel(grid, params)
    e_half = np.exp(-params.nu * ball.k_sq * (dt / 2.0))
    e_full = e_half**2

    def project(x):
        x -= gradient_part(x, ball.k, ball.k_sq_safe)

    def stage(x):
        terms = kernel(x)
        adv = terms.adv.copy()
        damp = None if terms.damp is None else terms.damp.copy()
        force = np.zeros(ball.k.shape, dtype=np.complex128)
        project(adv)
        force -= adv
        if damp is not None:
            project(damp)
            damp[:, 0] = 0.0
            force -= damp
        return force, adv, damp, terms.visc_rate, terms.damp_rate

    s1 = stage(v)
    s2 = stage(e_half * (v + (dt / 2.0) * s1[0]))
    s3 = stage(e_half * v + (dt / 2.0) * s2[0])
    s4 = stage(e_full * v + dt * (e_half * s3[0]))
    stages = (s1, s2, s3, s4)

    def combine(part, x, e_half, e_full, dt):
        return list_combine(x, [s[part] for s in stages], e_half, e_full, dt)

    v_new = combine(0, v, e_half, e_full, dt)
    project(v_new)
    v_new[:, 0] = 0.0
    g_new = g if s1[2] is None else combine(2, g, e_half, e_full, -dt)
    return (v_new, e_full * heat, combine(1, f, e_half, e_full, -dt), g_new,
            combine(3, 0.0, 1.0, 1.0, dt), combine(4, 0.0, 1.0, 1.0, dt))


def fftn_random_solenoidal(grid, seed, amplitude=1.0):
    """random_solenoidal from the fftn of its noise: truncated to R/2, projected, mean removed, normalised."""
    noise = np.random.default_rng(seed).standard_normal(grid.shape)
    f = SpectralField(grid, scipy.fft.fftn(noise, axes=(1, 2, 3), norm="forward"))
    f = remove_mean(leray_project(friedrichs_truncate(f, grid.cutoff_radius / 2.0)))
    return f * (amplitude / l2_norm(f))


def fftn_random_band_limited(grid, rng):
    """The oracle suites' unprojected field from the fftn of its samples: truncated, mean removed, scaled."""
    samples = rng.standard_normal(grid.shape)
    f = friedrichs_truncate(SpectralField(grid, scipy.fft.fftn(samples, axes=(1, 2, 3), norm="forward")))
    return remove_mean(f) * float(rng.uniform(0.1, 10.0))


def fftn_product_law_ratio(f, g):
    """||f (x) g||_(H^-1/2) / (||f||_L2 ||grad g||_L2) with the fftn of the products over the whole cube."""
    grid = f.grid
    fp, gp = (scipy.fft.ifftn(h.coeffs, axes=(1, 2, 3), norm="forward").real for h in (f, g))
    c = scipy.fft.fftn(fp[:, None] * gp[None], axes=(2, 3, 4), norm="forward")
    power = (c.real**2 + c.imag**2).sum(axis=(0, 1))
    k_sq = grid.k_sq
    num = grid.volume * float((power[k_sq > 0.0] / np.sqrt(k_sq[k_sq > 0.0])).sum())
    f_sq = grid.volume * float((np.abs(f.coeffs) ** 2).sum())
    g_grad_sq = grid.volume * float((k_sq * np.abs(g.coeffs) ** 2).sum())
    return np.sqrt(num) / np.sqrt(f_sq * g_grad_sq)


def full_cube_ledger(states):
    """record_energy's l2_sq and decay_snapshot's norms and rates, from the whole cube.

    One dict per snapshot. The norms are weighted sums of |c|^2 over every
    mode; the rates sample the speed by irfftn of the half spectrum.
    """
    rows = []
    for s in states:
        grid, c = s.grid, s.u.coeffs
        n = grid.n_modes
        power = (c.real**2 + c.imag**2).sum(axis=0)

        def norm_sq(weight=1.0):
            return grid.volume * float((weight * power).sum())

        u = scipy.fft.irfftn(c[..., : n // 2 + 1], s=(n, n, n), axes=(1, 2, 3), norm="forward")
        mag = np.sqrt(u[0] ** 2 + u[1] ** 2 + u[2] ** 2)
        dv = grid.cell_volume
        small = mag <= 1.0
        powered = mag**s.params.beta
        row = {
            "t": s.t,
            "l2_sq": norm_sq(),
            "hminus2": np.sqrt(norm_sq((1.0 + grid.k_sq) ** -2.0)),
            "w1_l2": np.sqrt(norm_sq(grid.low_shell_mask)),
            "w2_l2": np.sqrt(norm_sq(~grid.low_shell_mask)),
            "linf": float(mag.max(initial=0.0)),
            "rate_e1": dv * float(powered[small].sum()),
            "rate_e2": dv * float(powered[~small].sum()),
            "lbeta_E1": 0.0,
            "lbeta_E2": 0.0,
        }
        embed_mass = dv * float((mag ** (10.0 / 3.0)).sum())
        denom = np.sqrt(norm_sq()) ** (4.0 / 3.0) * norm_sq(grid.k_sq)
        row["embed_ratio"] = embed_mass / denom if denom > 1e-300 else 0.0
        if rows:
            prev = rows[-1]
            half_dt = 0.5 * (s.t - prev["t"])
            row["lbeta_E1"] = prev["lbeta_E1"] + half_dt * (prev["rate_e1"] + row["rate_e1"])
            row["lbeta_E2"] = prev["lbeta_E2"] + half_dt * (prev["rate_e2"] + row["rate_e2"])
        rows.append(row)
    return rows


#: validate()'s relative tolerance
_STATE_TOL = 1e-10


def reference_divergence_error(f):
    """||xi.u||_l2 / (R ||u||_l2) from the grid's (3, N, N, N) wavenumber table."""
    k = f.grid.wavenumbers
    div = k[0] * f.coeffs[0] + k[1] * f.coeffs[1] + k[2] * f.coeffs[2]
    denom = f.grid.cutoff_radius * float(np.sqrt((f.coeffs.real**2 + f.coeffs.imag**2).sum(axis=0).sum()))
    if denom == 0.0:
        return 0.0
    return float(np.sqrt((div.real**2 + div.imag**2).sum()) / denom)


def reference_hermitian_error(f):
    """max |c(m) - conj(c(-m))| / max |c|, from one rolled copy and its conjugate."""
    c = f.coeffs
    rev = np.roll(c[:, ::-1, ::-1, ::-1], shift=(1, 1, 1), axis=(1, 2, 3))
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(c - np.conj(rev))) / scale)


def reference_support_and_mean(f):
    """(largest |c| outside the grid's ball_mask, largest |c(0)|)."""
    outside = f.coeffs[:, ~f.grid.ball_mask]
    return float(np.max(np.abs(outside))), float(np.max(np.abs(f.coeffs[:, 0, 0, 0])))


def reference_validate(f):
    """Raise ValueError with validate()'s message if f leaves the state space."""
    scale = float(np.max(np.abs(f.coeffs)))
    if scale == 0.0:
        return
    if not np.all(np.isfinite(f.coeffs)):
        raise ValueError("field contains non-finite coefficients")
    herm = reference_hermitian_error(f)
    if herm > _STATE_TOL:
        raise ValueError(f"Hermitian symmetry violated: relative error {herm:.3e}")
    outside, mean = reference_support_and_mean(f)
    if outside > _STATE_TOL * scale:
        raise ValueError("coefficients outside the cutoff ball are not zero")
    if mean > _STATE_TOL * scale:
        raise ValueError(f"mean mode is not zero (|c(0)| = {mean:.3e})")
    div = reference_divergence_error(f)
    if div > _STATE_TOL:
        raise ValueError(f"field is not solenoidal: xi.u error is {div:.3e}")
