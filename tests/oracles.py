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

``loop_interpolation_suite`` and ``loop_product_law_suite`` are the
interpolation and product-law suites drawing, transforming and measuring
one field at a time (``loop_random_band_limited``), which the suites'
chunked draws and transforms must reproduce row for row, bit for bit. Their
checks state the pass rules directly, ``worst >= floor`` and, for the product
law, the smallest ratio with every ratio finite and positive, which the
suites' checks must match.

``full_cube_ball_tables`` reads the cutoff ball's entries and tables off the
full-cube wavenumber, |xi|^2 and mask tables below, which the ball's own
construction from 1-D mode numbers must reproduce bit for bit.

``cube_wavenumbers``, ``cube_k_sq``, ``cube_k_sq_safe``, ``cube_ball_mask``
and ``cube_low_shell_mask`` are whole (N, N, N) tables built by
``np.meshgrid`` of the axis wavenumbers, apart from the package's broadcast
``spectral._wavenumbers``. The ``cube_*`` operators
(``cube_leray_project``, ``cube_friedrichs_truncate``, ``cube_sobolev_norm``,
``cube_grad_norm_sq``, ``cube_interpolation_gap``, ``cube_product_law_ratio``)
are the public full-cube operators with their |xi|^2 read off those tables,
which the package's operators must reproduce bit for bit.

``hermitian_error``, ``l2_inner``, ``linf_norm``, ``remove_mean``,
``shear_mode`` and ``zeros_like`` are small fields and field helpers that
only the tests read; ``linf_norm`` forms |u|^2 as one whole-array
expression of its own.

``kernel_fill_speed_sq``, ``pointwise_speed_sq`` and ``whole_speed_sq``
are the three forms |u|^2 took before ``spectral._speed_sq`` became the
one rule: the kernel's fill of a slab of x-planes, the pointwise norms'
in-place sum and the whole-array sum of ``lp_norm_physical``, which the
rule must reproduce bit for bit.

``reference_validate``, ``reference_hermitian_error`` and
``reference_divergence_error`` are the state-space check read off the
full-cube mask and wavenumber tables, with a separate finiteness
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
pruned inverse transform must reproduce. ``trapezoid_energy_records``
rebuilds the energy budget from the snapshots' full fields alone, by the
trapezoid rule at the cadence: the coarse, independent cross-check of the
stepper's accumulators.

``reference_energy_checks`` are the run's two energy checks as they stood
before the two-sided balance became the one energy rule: the one-sided
inequality of the worst residual and the two-sided balance relative to the
baseline, whose joint verdict ``ledger.check_energy_inequality``'s one check
must match.

``reference_taper`` is the decay report's taper test as it stood before it
became named checks: one rule that raises where the report refused and
otherwise returns the check the decay driver built on it, which
``experiments._taper_checks`` must match pass for pass.
``cube_manufactured_forcing`` is the manufactured-solution forcing formed
as a full (3, N, N, N) cube from four cube terms at every call, which
``SeparableTarget.forcing``'s ball vector must reproduce bit for bit once
gathered to the ball.

``inject_field`` embeds a field's coefficient cube in a finer grid's, mode
for mode, which the refinement driver's injection of ball vectors must
reproduce bit for bit. ``cube_taylor_green`` and ``cube_random_solenoidal``
are the initial fields built as cubes: the Taylor-Green corners set in the
cube, and the random field's ball vector expanded and normalised by the
full-cube L2 norm, which the ball-vector starts must reproduce.
"""

import numpy as np
import scipy.fft

from nsdamp.certificate import Check
from nsdamp.dynamics import _Kernel, advection, damping
from nsdamp.initial_conditions import _noise, _solenoidal
from nsdamp.inequalities import (
    _INTERPOLATION_ORDERS,
    OracleRow,
    _ball_sobolev_weights,
    _interpolation_sides,
    _norm,
    _product_ratio,
    _product_weight,
)
from nsdamp.ledger import EnergyRecord
from nsdamp.spectral import (
    SpectralField,
    _hermitian_gap,
    _in_ball,
    _power,
    friedrichs_truncate,
    grad_norm_sq,
    l2_norm,
    leray_project,
    lp_norm_physical,
    make_grid,
    to_physical,
)


def zeros_like(grid):
    """The zero field on grid."""
    return SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))


def remove_mean(f):
    """f with its m = 0 coefficient zeroed."""
    out = f.coeffs.copy()
    out[:, 0, 0, 0] = 0.0
    return SpectralField(f.grid, out)


def l2_inner(f, g):
    """Real L2 inner product <f, g> = L^3 Re sum conj(c_f) c_g."""
    f._check_same_grid(g)
    a, b = f.coeffs, g.coeffs
    return float(f.grid.volume * (a.real * b.real + a.imag * b.imag).sum())


def linf_norm(f):
    """Max pointwise Euclidean magnitude on the collocation grid."""
    u = to_physical(f)
    return float(np.sqrt(float((u[0] ** 2 + u[1] ** 2 + u[2] ** 2).max())))


def shear_mode(grid, amplitude=1.0):
    """Single-mode shear flow u = (A sin(2 pi y / L), 0, 0).

    Solenoidal by structure and annihilated by the advection term, so with
    alpha = 0 it evolves by the exact heat factor: a closed-form reference.
    """
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    coeffs[0, 0, 1, 0] = -0.5j * amplitude
    coeffs[0, 0, -1, 0] = 0.5j * amplitude
    return SpectralField(grid, coeffs)


def kernel_fill_speed_sq(u, xs):
    """|u|^2 on the x-planes xs as the kernel's slab fill formed it: squares added in place."""
    slab = np.square(u[0, xs])
    square = np.empty_like(slab)
    for i in (1, 2):
        slab += np.square(u[i, xs], out=square)
    return slab


def pointwise_speed_sq(u):
    """|u|^2 as the snapshots' pointwise norms formed it: u_0^2, then each square added in place."""
    mag = u[0] ** 2
    work = np.square(u[1])
    mag += work
    mag += np.square(u[2], out=work)
    return mag


def whole_speed_sq(u):
    """|u|^2 as lp_norm_physical formed it: one whole-array expression."""
    return u[0] ** 2 + u[1] ** 2 + u[2] ** 2


def hermitian_error(f):
    """Relative deviation from c(-m) = conj(c(m)), by the gap validate() measures."""
    scale = float(np.max(np.abs(f.coeffs)))
    if scale == 0.0:
        return 0.0
    return _hermitian_gap(f.coeffs) / scale


def cube_wavenumbers(grid):
    """xi as an array of shape (3, N, N, N), from np.meshgrid of the axis wavenumbers."""
    k1 = 2.0 * np.pi / grid.box_length * grid.mode_numbers
    kx, ky, kz = np.meshgrid(k1, k1, k1, indexing="ij")
    return np.stack([kx, ky, kz])


def cube_k_sq(grid):
    """|xi|^2, shape (N, N, N)."""
    k = cube_wavenumbers(grid)
    return k[0] ** 2 + k[1] ** 2 + k[2] ** 2


def cube_k_sq_safe(grid):
    """|xi|^2 with the zero mode replaced by 1 (safe divisor)."""
    out = cube_k_sq(grid)
    out[0, 0, 0] = 1.0
    return out


def cube_ball_mask(grid, radius=None):
    """Boolean mask of the closed ball |xi| <= radius (default the grid's cutoff), 1e-12 relative slack."""
    radius = grid.cutoff_radius if radius is None else radius
    return cube_k_sq(grid) <= radius**2 * (1.0 + 1e-12)


def cube_low_shell_mask(grid):
    """Boolean mask of |xi| < 1 (strict), the low-frequency block."""
    return cube_k_sq(grid) < 1.0


def _cube_power(c):
    return (c.real**2 + c.imag**2).sum(axis=0)


def _cube_sobolev_weight(k_sq, s, homogeneous):
    if not homogeneous:
        return (1.0 + k_sq) ** s
    return np.power(k_sq, s, out=np.zeros_like(k_sq), where=k_sq > 0.0)


def cube_leray_project(f):
    """c - xi (xi . c) / |xi|^2 from the (3, N, N, N) wavenumber table."""
    return SpectralField(f.grid, f.coeffs - gradient_part(f.coeffs, cube_wavenumbers(f.grid),
                                                          cube_k_sq_safe(f.grid)))


def cube_friedrichs_truncate(f, radius=None):
    """f with every coefficient outside the closed ball |xi| <= radius zeroed."""
    return SpectralField(f.grid, f.coeffs * cube_ball_mask(f.grid, radius))


def cube_sobolev_norm(f, s, homogeneous=True):
    """sqrt(L^3 sum w |c|^2), w = |xi|^(2s) off m = 0 or (1 + |xi|^2)^s, from the |xi|^2 table."""
    weight = _cube_sobolev_weight(cube_k_sq(f.grid), s, homogeneous)
    total = float((weight * _cube_power(f.coeffs)).sum())
    return float(np.sqrt(f.grid.volume * max(total, 0.0)))


def cube_grad_norm_sq(f):
    """L^3 sum |xi|^2 |c|^2 from the |xi|^2 table."""
    return f.grid.volume * float((cube_k_sq(f.grid) * _cube_power(f.coeffs)).sum())


def cube_interpolation_gap(f):
    """||f||_L2^(2/5) ||grad f||_L2^(3/5) - ||f||_(3/5) from the |xi|^2 table (0 for the zero field)."""
    l2, lhs, grad = (cube_sobolev_norm(f, s) for s in (0.0, 0.6, 1.0))
    if l2 == 0.0:
        return 0.0
    return l2 ** 0.4 * grad ** 0.6 - lhs


def cube_product_law_ratio(f, g):
    """||f (x) g||_(s = -1/2) / (||f||_L2 ||grad g||_L2), the products' half spectrum weighted from the table."""
    grid = f.grid
    n = grid.n_modes
    den = cube_sobolev_norm(f, 0.0) * cube_sobolev_norm(g, 1.0)
    weight = _cube_sobolev_weight(cube_k_sq(grid)[..., : n // 2 + 1], -0.5, homogeneous=True)
    weight[..., 1 : n // 2] *= 2.0  # these planes also stand for their conjugates
    prods = to_physical(f)[:, None] * to_physical(g)[None]
    c = np.fft.rfftn(prods.reshape(9, n, n, n), axes=(1, 2, 3), norm="forward")
    num_sq = grid.volume * float((weight * _cube_power(c)).sum())
    return float(np.sqrt(max(num_sq, 0.0)) / den)


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
    k = cube_wavenumbers(grid)
    k_sq = cube_k_sq_safe(grid)
    dot = k[0] * hat[0] + k[1] * hat[1] + k[2] * hat[2]
    return np.stack([hat[i] - k[i] * dot / k_sq for i in range(3)])


def divergence_hat(tensor_hat, grid):
    """d_i = i xi_j T[i, j] evaluated at each output mode."""
    k = cube_wavenumbers(grid)
    out = np.zeros(grid.shape, dtype=np.complex128)
    for i in range(3):
        for j in range(3):
            out[i] += 1j * k[j] * tensor_hat[i, j]
    return out


def direct_advection(u):
    """Reference for the truncated, projected advection term."""
    grid = u.grid
    div = divergence_hat(quadratic_convolution(u), grid)
    div *= cube_ball_mask(grid)
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
    total *= cube_ball_mask(grid)
    k = cube_wavenumbers(grid)
    div = 1j * (k[0] * total[0] + k[1] * total[1] + k[2] * total[2])
    k_sq = cube_k_sq_safe(grid)
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
    """The ball's entry indices and per-entry tables, read off the full (N, N, N) meshgrid tables."""
    n = grid.n_modes
    half = n // 2 + 1
    m = grid.mode_numbers
    mx, my, mz = np.meshgrid(m, m, m[:half], indexing="ij")
    kept = cube_ball_mask(grid)[:, :, :half] & ((mz > 0) | (mx > 0) | ((mx == 0) & (my >= 0)))
    ix, iy, iz = np.unravel_index(np.flatnonzero(kept), (n, n, half))
    k_sq = cube_k_sq(grid)[ix, iy, iz]
    return {
        "full_index": np.ravel_multi_index((ix, iy, iz), (n, n, n)),
        "conj_full_index": np.ravel_multi_index(((-ix) % n, (-iy) % n, (-iz) % n), (n, n, n))[1:],
        "k": cube_wavenumbers(grid)[:, ix, iy, iz],
        "k_sq": k_sq,
        "k_sq_safe": np.where(k_sq == 0.0, 1.0, k_sq),
        "hminus2": (1.0 + k_sq) ** -2.0,
        "low_shell": cube_low_shell_mask(grid)[ix, iy, iz],
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


def loop_random_band_limited(grid, rng, projected):
    """Ball vector of one random zero-mean field with a random scale in [0.1, 10), alone.

    projected: random_solenoidal's field before it is expanded, scaled by
    its ball norm. Otherwise white noise on the whole ball, not projected.
    """
    ball = grid.ball
    if projected:
        noise = np.random.default_rng(int(rng.integers(2**31))).standard_normal(grid.shape)
        v = ball.from_physical(noise)
        v *= _in_ball(ball.k_sq, grid.cutoff_radius / 2.0)
        ball.project(v)
        v[:, 0] = 0.0
        return v * (float(rng.uniform(0.1, 10.0)) / np.sqrt(grid.volume * ball.norm_sq(v)))
    v = ball.from_physical(rng.standard_normal((3,) + grid.shape[1:]))
    v[:, 0] = 0.0
    return v * float(rng.uniform(0.1, 10.0))


def loop_interpolation_suite(n_fields, seed):
    """interpolation_suite with each field drawn, transformed and measured alone."""
    rng = np.random.default_rng(seed)
    grids = [make_grid(8, 2.0 * np.pi), make_grid(16, 4.0 * np.pi)]
    weights = [_ball_sobolev_weights(grid, _INTERPOLATION_ORDERS) for grid in grids]
    worst = np.inf
    for i in range(n_fields):
        grid = grids[i % 2]
        v = loop_random_band_limited(grid, rng, projected=(i % 4 < 2))
        lhs, rhs = _interpolation_sides(_power(v), weights[i % 2], grid.volume)
        if rhs == 0.0:
            continue
        worst = min(worst, (rhs - lhs) / rhs)

    grid = grids[0]
    n = grid.n_modes
    v = np.zeros((3, grid.ball.k_sq.size), dtype=np.complex128)
    v[1, grid.ball.full_index == np.ravel_multi_index((1, 0, 0), (n, n, n))] = 0.5
    lhs, rhs = _interpolation_sides(_power(v), weights[0], grid.volume)
    worst = min(worst, (rhs - lhs) / rhs)
    return OracleRow(
        name="interpolation",
        samples=n_fields + 1,
        check=Check("interpolation", float(worst), -1e-10, worst >= -1e-10),
        note="gap relative to the product side",
    )


def loop_product_law_suite(n_pairs, seed):
    """product_law_suite with each field drawn and transformed, and each pair measured, alone."""
    rng = np.random.default_rng(seed)
    grid = make_grid(16, 2.0 * np.pi)
    ball = grid.ball
    l2_weight, grad_weight = _ball_sobolev_weights(grid, (0.0, 1.0))
    weight = _product_weight(grid)
    ratios = []
    for i in range(n_pairs):
        v = loop_random_band_limited(grid, rng, projected=(i % 2 == 0))
        w = loop_random_band_limited(grid, rng, projected=(i % 2 == 1))
        den = _norm(_power(v), l2_weight, grid.volume) * _norm(_power(w), grad_weight, grid.volume)
        ratios.append(_product_ratio(ball.to_physical(v), ball.to_physical(w), den, weight,
                                     grid.volume))
    arr = np.asarray(ratios)
    finite = bool(np.isfinite(arr).all()) and bool((arr > 0.0).all())
    return OracleRow(
        name="product-law",
        samples=n_pairs,
        check=Check("product-law", float(arr.min()), 0.0, finite),
        note=f"ratio range [{arr.min():.4f}, {arr.max():.4f}] (diagnostic, no asserted constant)",
    )


def fftn_product_law_ratio(f, g):
    """||f (x) g||_(H^-1/2) / (||f||_L2 ||grad g||_L2) with the fftn of the products over the whole cube."""
    grid = f.grid
    fp, gp = (scipy.fft.ifftn(h.coeffs, axes=(1, 2, 3), norm="forward").real for h in (f, g))
    c = scipy.fft.fftn(fp[:, None] * gp[None], axes=(2, 3, 4), norm="forward")
    power = (c.real**2 + c.imag**2).sum(axis=(0, 1))
    k_sq = cube_k_sq(grid)
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
        k_sq, low_shell = cube_k_sq(grid), cube_low_shell_mask(grid)

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
            "hminus2": np.sqrt(norm_sq((1.0 + k_sq) ** -2.0)),
            "w1_l2": np.sqrt(norm_sq(low_shell)),
            "w2_l2": np.sqrt(norm_sq(~low_shell)),
            "linf": float(mag.max(initial=0.0)),
            "rate_e1": dv * float(powered[small].sum()),
            "rate_e2": dv * float(powered[~small].sum()),
            "lbeta_E1": 0.0,
            "lbeta_E2": 0.0,
        }
        if rows:
            prev = rows[-1]
            half_dt = 0.5 * (s.t - prev["t"])
            row["lbeta_E1"] = prev["lbeta_E1"] + half_dt * (prev["rate_e1"] + row["rate_e1"])
            row["lbeta_E2"] = prev["lbeta_E2"] + half_dt * (prev["rate_e2"] + row["rate_e2"])
        rows.append(row)
    return rows


def reference_energy_checks(series, tol):
    """The one-sided energy inequality and the two-sided balance, as the run built them both.

    The first is the worst residual (the first NaN if any) against tol |baseline|
    (tol when the baseline is 0); the second the largest |residual| over |baseline|
    (1 when it is 0) against tol.
    """
    worst = series[int(np.argmax([r.residual for r in series]))]
    baseline = series[0].baseline
    budget = tol * abs(baseline) if baseline != 0.0 else tol
    worst_abs = float(np.max(np.abs([r.residual for r in series])))
    scale = abs(baseline) or 1.0
    return [Check("energy inequality", worst.residual, budget, worst.residual <= budget),
            Check("two-sided energy balance", worst_abs / scale, tol, worst_abs <= tol * scale)]


def reference_taper(totals):
    """The taper test of the space-time accumulators' totals E1 + E2, one snapshot each, as one rule.

    Raises ValueError where the decay report refused: fewer than two
    totals, a last total that is not finite (the report read E1 and E2 of
    the last snapshot, whose sum it is), an increment below -slack, or a
    run tail whose increments rise by more than slack or end above
    0.5 peak + slack, with peak the largest increment (0 at least) and
    slack = 1e-9 (peak + 1e-300). Otherwise returns the check the decay
    driver built: the last increment against the peak with its comparison
    taken as held, so it passes when both are finite.
    """
    if totals.size < 2:
        raise ValueError("need at least two snapshots to report space-time integrals")
    if not np.isfinite(totals[-1]):
        raise ValueError(f"space-time accumulators are not finite: {totals[-1]!r}")
    increments = np.diff(totals)
    peak = float(increments.max(initial=0.0))
    slack = 1e-9 * (peak + 1e-300)
    if float(increments.min(initial=0.0)) < -slack:
        raise ValueError("space-time accumulators decreased between snapshots")
    tail = increments[-max(2, increments.size // 4):]
    if not (bool(np.all(np.diff(tail) <= slack)) and tail[-1] <= 0.5 * peak + slack):
        raise ValueError("space-time increments do not taper over the run tail")
    return Check("space-time report", float(tail[-1]), peak, True)


def cube_manufactured_forcing(base, amplitude, amplitude_rate, params):
    """The forcing that makes a(t) base solve the truncated system, as a (3, N, N, N) cube at each t.

    base's coefficients and its advection, damping and viscous terms are
    held as cubes, and every call combines all four whole.
    """
    ball = base.grid.ball
    adv = advection(base).coeffs
    damp = damping(base, params.alpha, params.beta).coeffs
    visc = ball.expand((params.nu * ball.k_sq) * ball.gather(base.coeffs))

    def forcing(t):
        a, da = amplitude(t), amplitude_rate(t)
        return da * base.coeffs + a * a * adv + a**params.beta * damp + a * visc

    return forcing


#: validate()'s relative tolerance
_STATE_TOL = 1e-10


def reference_divergence_error(f):
    """||xi.u||_l2 / (R ||u||_l2) from the (3, N, N, N) wavenumber table."""
    k = cube_wavenumbers(f.grid)
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
    """(largest |c| outside the closed cutoff ball, largest |c(0)|)."""
    outside = f.coeffs[:, ~cube_ball_mask(f.grid)]
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


def trapezoid_energy_records(states):
    """Rebuild the budget from snapshots alone, trapezoid rule at the cadence.

    Independent of the stepper's internal accumulators: the dissipation rates
    2 nu ||grad u||^2 and 2 alpha ||u||^(beta+1) are re-evaluated from each
    snapshot field.  Quadrature error is O(cadence^2), so this is the coarse
    cross-check, not the primary ledger.
    """
    if not states:
        raise ValueError("empty snapshot sequence")
    times = [s.t for s in states]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("snapshot times must be strictly increasing")

    visc_rates = []
    damp_rates = []
    for s in states:
        p = s.params
        visc_rates.append(2.0 * p.nu * grad_norm_sq(s.u))
        if p.alpha > 0.0:
            damp_rates.append(2.0 * p.alpha * lp_norm_physical(s.u, p.beta + 1.0) ** (p.beta + 1.0))
        else:
            damp_rates.append(0.0)

    # the opening row too reads the full-cube norms, not the ledger's record_energy
    records = []
    cum_visc, cum_damp = states[0].cum_visc, states[0].cum_damp
    baseline = l2_norm(states[0].u) ** 2 + cum_visc + cum_damp
    for i in range(len(states)):
        if i:
            half_dt = 0.5 * (times[i] - times[i - 1])
            cum_visc += half_dt * (visc_rates[i - 1] + visc_rates[i])
            cum_damp += half_dt * (damp_rates[i - 1] + damp_rates[i])
        l2_sq = l2_norm(states[i].u) ** 2
        records.append(
            EnergyRecord(
                t=times[i],
                l2_sq=l2_sq,
                cum_visc=cum_visc,
                cum_damp=cum_damp,
                residual=l2_sq + cum_visc + cum_damp - baseline,
                baseline=baseline,
            )
        )
    return records


def inject_field(f, fine):
    """Embed a field into a finer grid (same box), matching mode numbers.

    The fine grid must hold every mode of the coarse one; unmatched fine
    modes are zero.
    """
    if fine.n_modes < f.grid.n_modes:
        raise ValueError(
            f"cannot inject {f.grid.n_modes}^3 modes into a coarser {fine.n_modes}^3 grid"
        )
    if abs(fine.box_length - f.grid.box_length) > 1e-12 * f.grid.box_length:
        raise ValueError("grids cover different boxes")
    idx = f.grid.mode_numbers % fine.n_modes
    coeffs = np.zeros(fine.shape, dtype=np.complex128)
    coeffs[np.ix_(range(3), idx, idx, idx)] = f.coeffs
    return SpectralField(fine, coeffs)


def cube_taylor_green(grid, amplitude=1.0):
    """The Taylor-Green field with its eight corner coefficients set in the cube."""
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                coeffs[0, s1, s2, s3] = -1j * amplitude * s1 / 8.0
                coeffs[1, s1, s2, s3] = 1j * amplitude * s2 / 8.0
    return SpectralField(grid, coeffs)


def cube_random_solenoidal(grid, seed, amplitude=1.0):
    """random_solenoidal's ball vector expanded to the cube, then normalised by the cube's L2 norm."""
    v = grid.ball.from_physical(_noise(grid, seed))
    _solenoidal(grid, v)
    f = SpectralField(grid, grid.ball.expand(v))
    f.coeffs *= amplitude / l2_norm(f)
    return f
