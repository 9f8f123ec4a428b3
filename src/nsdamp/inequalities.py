"""Standalone oracles for the pointwise and algebraic inequalities.

Each oracle evaluates an inequality gap (the side that should win minus the
other side) directly, independent of the solver, so a nonnegative gap over a
large adversarial sample certifies the estimate the solver's analysis leans
on.  The random suites use heavy-tailed magnitudes on purpose: the worst
roundoff in these estimates lives at the near-degenerate corners x ~ y and
|x| >> |y|, not at typical Gaussian samples.

Each suite returns an ``OracleRow`` that carries its ``Check``: the worst
observed gap against its floor.  ``verify_suite`` bundles the suites into one
table for the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificate import Check
from .initial_conditions import _noise, _normalise, _solenoidal
from .spectral import (
    GridSpec,
    SpectralField,
    _parallel,
    _power,
    _sobolev_weight,
    _wavenumbers,
    _weighted_sum,
    make_grid,
    sobolev_norm,
    to_physical,
)

__all__ = [
    "monotonicity_gap",
    "young_gap",
    "gronwall_constant",
    "interpolation_gap",
    "product_law_ratio",
    "OracleRow",
    "monotonicity_suite",
    "young_suite",
    "gronwall_suite",
    "interpolation_suite",
    "product_law_suite",
    "verify_suite",
]

_MAG_CAP = 100.0  # vector-component cap: keeps |x|^(beta+2) in double range
_TS_CAP = 1e3  # cap for the a^p / b^q values in the Young sampler
#: random fields per pruned transform in the interpolation and product-law suites
_CHUNK = 16
#: values per streamed draw of the samplers' pick uniforms and sign integers
_DRAW = 2**16


def monotonicity_gap(x, y, beta):
    """Gap of the vector monotonicity estimate behind the damping term.

    For the damping nonlinearity, <|x|^b x - |y|^b y, x - y> is bounded below
    by (|x|^b + |y|^b) |x - y|^2 / 2.  Expanding both sides, every cross term
    <x, y> cancels identically and the difference factorizes as

        gap = (|x|^b - |y|^b)(|x|^2 - |y|^2) / 2,

    which is how it is evaluated here: the two factors share a sign, so the
    subtraction never suffers the catastrophic cancellation the raw
    inner-product form hits when x ~ y.  (The tests cross-check this
    rearrangement against the raw form at moderate magnitudes.)

    Accepts single vectors or (n, d) batches; beta may be a scalar or an
    n-vector. Returns float for single vectors, an array for batches.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    beta_arr = np.asarray(beta, dtype=float)
    if np.any(beta_arr <= 0.0):
        raise ValueError(f"beta must be positive, got {beta!r}")
    a_sq = (x * x).sum(axis=-1)
    b_sq = (y * y).sum(axis=-1)
    a = np.sqrt(a_sq)
    b = np.sqrt(b_sq)
    gap = 0.5 * (a**beta_arr - b**beta_arr) * (a_sq - b_sq)
    if gap.ndim == 0:
        return float(gap)
    return gap


def young_gap(a, b, p, q):
    """Gap of the two-term convexity bound: a^p / p + b^q / q - a b.

    p and q must be conjugate (1/p + 1/q = 1 within 1e-12) and larger than 1;
    a and b nonnegative.  Scalar or elementwise on arrays.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any(a < 0.0) or np.any(b < 0.0):
        raise ValueError("a and b must be nonnegative")
    if np.any(p <= 1.0) or np.any(q <= 1.0):
        raise ValueError(f"exponents must exceed 1, got p = {p!r}, q = {q!r}")
    defect = np.abs(1.0 / p + 1.0 / q - 1.0)
    if np.any(defect > 1e-12):
        raise ValueError(
            f"exponents are not conjugate: |1/p + 1/q - 1| = {float(np.max(defect)):.3e}"
        )
    gap = a**p / p + b**q / q - a * b
    if gap.ndim == 0:
        return float(gap)
    return gap


def gronwall_constant(alpha, beta):
    """Growth constant (2/alpha)^(2/(beta-3)) / 2 in the twin-solution bound.

    Defined only for beta > 3: at beta = 3 the exponent blows up, which is
    exactly where the uniqueness argument loses its absorption step.
    Broadcasts over array inputs.
    """
    alpha_arr = np.asarray(alpha, dtype=float)
    beta_arr = np.asarray(beta, dtype=float)
    if np.any(beta_arr <= 3.0):
        raise ValueError(f"growth constant requires beta > 3, got beta = {beta!r}")
    if np.any(alpha_arr <= 0.0):
        raise ValueError(f"growth constant requires alpha > 0, got alpha = {alpha!r}")
    with np.errstate(over="ignore"):  # an overflow is inf, which callers refuse
        value = 0.5 * (2.0 / alpha_arr) ** (2.0 / (beta_arr - 3.0))
    if value.ndim == 0:
        return float(value)
    return value


def _require_zero_mean(f: SpectralField, what: str) -> None:
    mean_mag = float(np.abs(f.coeffs[:, 0, 0, 0]).max())
    scale = float(np.abs(f.coeffs).max())
    if mean_mag > 1e-12 * max(scale, 1.0):
        raise ValueError(f"{what} requires a zero-mean field")


#: Sobolev orders of the interpolation bound's three norms: L2, the s = 3/5 side, grad
_INTERPOLATION_ORDERS = (0.0, 0.6, 1.0)


def _norm(power: np.ndarray, weight: np.ndarray, volume: float) -> float:
    """sqrt(L^3 sum weight |c|^2), as sobolev_norm takes it, in any mode layout."""
    return float(np.sqrt(volume * max(_weighted_sum(power, weight), 0.0)))


def _interpolation_sides(power: np.ndarray, weights, volume: float) -> tuple[float, float]:
    """(lhs, rhs) of the interpolation bound from a power spectrum and its three
    weights (_INTERPOLATION_ORDERS, in any mode layout); (0, 0) for the zero field."""
    l2, lhs, grad = (_norm(power, w, volume) for w in weights)
    if l2 == 0.0:
        return 0.0, 0.0
    return lhs, l2 ** 0.4 * grad ** 0.6


def interpolation_gap(f: SpectralField) -> float:
    """Slack in the fractional interpolation bound used for the decay rate.

    Returns rhs - lhs for

        ||f||_(s = 3/5, homogeneous)  <=  ||f||_L2^(2/5) ||grad f||_L2^(3/5),

    nonnegative up to roundoff (it is a two-weight Holder bound on the
    spectral sums, with equality exactly on a single shell).  Zero field
    returns 0 by convention.
    """
    _require_zero_mean(f, "interpolation gap")
    k_sq = _wavenumbers(f.grid)[1]
    weights = [_sobolev_weight(k_sq, s, homogeneous=True) for s in _INTERPOLATION_ORDERS]
    lhs, rhs = _interpolation_sides(_power(f.coeffs), weights, f.grid.volume)
    return rhs - lhs


def _product_weight(grid: GridSpec) -> np.ndarray:
    """|xi|^-1 on the rfft half spectrum, doubled on the planes that stand for their conjugates."""
    n = grid.n_modes
    weight = _sobolev_weight(_wavenumbers(grid, n // 2 + 1)[1], -0.5, homogeneous=True)
    weight[..., 1 : n // 2] *= 2.0  # Parseval: these planes also stand for their conjugates
    return weight


def _product_ratio(fp: np.ndarray, gp: np.ndarray, den: float, weight: np.ndarray,
                   volume: float) -> float:
    """||fp (x) gp||_(s = -1/2) / den from the samples, with weight from _product_weight."""
    if den < 1e-300:
        raise ValueError("zero denominator: both fields must be nonzero")
    n = fp.shape[-1]
    prods = fp[:, None, :, :, :] * gp[None, :, :, :, :]
    c = np.fft.rfftn(prods.reshape(9, n, n, n), axes=(1, 2, 3), norm="forward")
    num_sq = volume * _weighted_sum(_power(c), weight)
    return float(np.sqrt(max(num_sq, 0.0)) / den)


def product_law_ratio(f: SpectralField, g: SpectralField) -> float:
    """Empirical constant in the product bound ||fg|| <= C ||f|| ||g||.

    Measures ||f (x) g||_(s = -1/2, homogeneous) / (||f||_L2 ||grad g||_L2)
    with f (x) g the full 3 x 3 tensor of pointwise component products,
    computed on the collocation grid and transformed back (so the ratio is a
    fixed-resolution diagnostic, aliasing included).  The constant is not
    asserted anywhere -- the suites only report that the ratio stays bounded
    across a random family.
    """
    f._check_same_grid(g)
    _require_zero_mean(f, "product-law ratio")
    _require_zero_mean(g, "product-law ratio")
    den = sobolev_norm(f, 0.0) * sobolev_norm(g, 1.0)
    return _product_ratio(to_physical(f), to_physical(g), den, _product_weight(f.grid),
                          f.grid.volume)


# ---------------------------------------------------------------------------
# sampling suites


@dataclass(frozen=True)
class OracleRow:
    """One row of the verification table: its sample count and note, and its check,
    the worst observed value against its floor."""

    name: str
    samples: int
    check: Check
    note: str = ""

    @property
    def worst(self) -> float:
        return self.check.value

    @property
    def passed(self) -> bool:
        return self.check.passed


def _row(name: str, samples: int, worst: float, floor: float, ok: bool,
         note: str = "") -> OracleRow:
    """A row whose check is worst against floor, ok the suite's comparison of the two."""
    return OracleRow(name, samples, Check(name, worst, floor, ok), note)


def _require_samples(count: int, name: str) -> None:
    if count < 1:
        raise ValueError(f"{name} must be at least 1, got {count!r}")


def _heavy_magnitudes(rng: np.random.Generator, shape, cap: float) -> np.ndarray:
    """Mixture of |normal| and capped inverse-uniform magnitudes.

    Draws shape normals, then shape uniforms, then shape pick uniforms, the
    picks _DRAW at a time, and forms the mixture in the normals' array. A
    pick takes one word of rng's stream, so the values and the generator's
    state afterwards are those of whole-array draws.
    """
    out = rng.standard_normal(shape)
    np.abs(out, out=out)
    inverse = rng.uniform(1e-8, 1.0, shape)
    np.divide(1.0, inverse, out=inverse)
    flat, flat_inverse = out.reshape(-1), inverse.reshape(-1)
    for start in range(0, flat.size, _DRAW):
        stop = min(start + _DRAW, flat.size)
        np.copyto(flat[start:stop], flat_inverse[start:stop], where=rng.random(stop - start) >= 0.5)
    return np.minimum(out, cap, out=out)


def _heavy_vectors(rng: np.random.Generator, n: int, width: int) -> np.ndarray:
    """(n, width) heavy-tailed magnitudes with random signs, the signs drawn first.

    The signs are drawn _DRAW at a time and kept as int8. They are drawn as
    int64, whose draws take 32-bit halves of the stream's words and keep the
    spare half in the generator (an int8 draw would take other bits), so the
    values and the stream are those of a whole-array draw.
    """
    signs = np.empty(n * width, dtype=np.int8)
    for start in range(0, signs.size, _DRAW):
        stop = min(start + _DRAW, signs.size)
        signs[start:stop] = rng.integers(0, 2, size=stop - start) * 2 - 1
    out = _heavy_magnitudes(rng, (n, width), _MAG_CAP)
    out *= signs.reshape(n, width)
    return out


def monotonicity_suite(n_samples: int = 100_000, seed: int = 0) -> OracleRow:
    """Worst monotonicity gap over heavy-tailed vectors in d = 1, 2, 3, 8.

    Random dimensions are realized by zeroing trailing components of
    width-8 vectors; the degenerate corners x = y, y = 0, y = -x, and
    y = permuted x (equal norms, distinct vectors) are forced explicitly
    rather than left to chance.
    """
    _require_samples(n_samples, "n_samples")
    rng = np.random.default_rng(seed)
    x = _heavy_vectors(rng, n_samples, 8)
    y = _heavy_vectors(rng, n_samples, 8)
    dims = rng.choice([1, 2, 3, 8], size=n_samples)
    mask = np.arange(8)[None, :] < dims[:, None]
    x *= mask
    y *= mask
    beta = rng.uniform(0.5, 6.0, n_samples)

    edge = max(1, n_samples // 100)
    y[:edge] = x[:edge]  # x = y
    y[edge : 2 * edge] = 0.0  # y = 0
    y[2 * edge : 3 * edge] = -x[2 * edge : 3 * edge]  # antipodal, |x| = |y|
    y[3 * edge : 4 * edge] = x[3 * edge : 4 * edge][:, ::-1]  # permuted, |x| = |y|

    gaps = monotonicity_gap(x, y, beta)
    worst = float(gaps.min())
    return _row("monotonicity", n_samples, worst, -1e-12, worst >= -1e-12)


def young_suite(n_samples: int = 100_000, seed: int = 0) -> OracleRow:
    """Worst Young gap over conjugate exponents, sampled in (a^p, b^q) space.

    Sampling t = a^p and s = b^q (capped) instead of a and b keeps both
    power evaluations in range even as q -> infinity, which the damping
    family q = (beta - 1)/(beta - 3) reaches as beta -> 3.  Half the samples
    use that family with beta in (3, 8]; the rest are generic conjugate
    pairs.  Equality rows (t = s) and zero rows are forced explicitly.
    """
    _require_samples(n_samples, "n_samples")
    rng = np.random.default_rng(seed)
    half = n_samples // 2

    p_gen = 1.0 + np.minimum(np.maximum(_heavy_magnitudes(rng, half, 64.0), 1e-6), 63.0)
    # log-uniform approach to beta = 3 (where q blows up), floored so p > 1 in float
    beta = 3.0 + 5.0 * 10.0 ** (-6.0 * rng.uniform(0.0, 1.0, n_samples - half))
    p_damp = (beta - 1.0) / 2.0
    p = np.concatenate([p_gen, p_damp])
    q = np.empty_like(p)
    q[:half] = p_gen / (p_gen - 1.0)
    q[half:] = (beta - 1.0) / (beta - 3.0)

    t = _heavy_magnitudes(rng, n_samples, _TS_CAP)
    s = _heavy_magnitudes(rng, n_samples, _TS_CAP)
    edge = max(1, n_samples // 100)
    s[:edge] = t[:edge]  # a^p = b^q: the equality case of the bound
    t[edge : 2 * edge] = 0.0
    s[2 * edge : 3 * edge] = 0.0
    a = t ** (1.0 / p)
    b = s ** (1.0 / q)

    gaps = young_gap(a, b, p, q)
    worst = float(gaps.min())
    return _row("young", n_samples, worst, -1e-12, worst >= -1e-12)


def gronwall_suite() -> OracleRow:
    """Monotonicity of the growth constant on a 32 x 32 parameter grid.

    Strictly decreasing in alpha everywhere, and strictly decreasing in beta
    wherever alpha < 2 (the base 2/alpha exceeds 1 there).  The worst margin
    is the smallest decrease between neighbours; it must stay positive.
    The note names the direction it lies along and gives the other's.
    """
    alphas = np.linspace(0.1, 4.0, 32)
    betas = np.linspace(3.05, 8.0, 32)
    grid = gronwall_constant(alphas[:, None], betas[None, :])
    margin_alpha = float((grid[:-1, :] - grid[1:, :]).min())
    below_two = alphas < 2.0
    margin_beta = float((grid[below_two, :-1] - grid[below_two, 1:]).min())
    (worst, axis), (other, other_axis) = sorted([(margin_alpha, "alpha"), (margin_beta, "beta")])
    return _row("gronwall-monotone", grid.size, worst, 0.0, worst > 0.0,
                f"check value along {axis}; min decrease along {other_axis} {other:.3e}")


class _RandomFields:
    """Random zero-mean fields of one grid, drawn one at a time and transformed _CHUNK at a time.

    draw() takes a field's white noise, then its scale in [0.1, 10), from
    rng; a projected field's noise is random_solenoidal's, from a drawn
    seed. take() returns the ball vectors (m, 3, n_ball) of the m fields
    drawn since the last take, from one pruned forward transform. A
    projected field is then _solenoidal's, scaled by its own ball norm;
    the others are the noise on the whole ball with m = 0 zeroed. Each
    transform line and operation acts on one field, so a field in a chunk
    has the bits it has alone.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.noise = np.empty((_CHUNK,) + grid.shape)
        self.projected: list[bool] = []
        self.scales: list[float] = []

    def draw(self, rng: np.random.Generator, projected: bool) -> None:
        out = self.noise[len(self.scales)]
        if projected:
            _noise(self.grid, int(rng.integers(2**31)), out=out)
        else:
            rng.standard_normal(self.grid.shape, out=out)
        self.projected.append(projected)
        self.scales.append(float(rng.uniform(0.1, 10.0)))

    def take(self) -> np.ndarray:
        grid, ball, m = self.grid, self.grid.ball, len(self.scales)
        v = ball.from_physical(self.noise[:m].reshape((3 * m,) + grid.shape[1:]))
        v = v.reshape(m, 3, -1)
        projected = np.array(self.projected)
        solenoidal = v[projected]
        _solenoidal(grid, solenoidal)
        v[projected] = solenoidal
        v[:, :, 0] = 0.0
        for field, scale, p in zip(v, self.scales, self.projected):
            if p:
                _normalise(grid, field, scale)
            else:
                field *= scale
        self.projected, self.scales = [], []
        return v


def _ball_sobolev_weights(grid: GridSpec, orders) -> list[np.ndarray]:
    """Parseval-weighted |xi|^(2s) on the grid's ball entries, one array per order s."""
    ball = grid.ball
    return [ball.weight * _sobolev_weight(ball.k_sq, s, homogeneous=True) for s in orders]


def interpolation_suite(n_fields: int = 1000, seed: int = 0) -> OracleRow:
    """Relative interpolation gap over random band-limited fields.

    Mixes solenoidal and unprojected fields on 8^3 and 16^3 grids, plus a
    single-shell field where the bound is an equality.  The gap is measured
    relative to the right-hand side; the floor is -1e-10.  The fields stay
    ball vectors throughout.
    """
    _require_samples(n_fields, "n_fields")
    rng = np.random.default_rng(seed)
    grids = [make_grid(8, 2.0 * np.pi), make_grid(16, 4.0 * np.pi)]
    weights = [_ball_sobolev_weights(grid, _INTERPOLATION_ORDERS) for grid in grids]
    fields = [_RandomFields(grid) for grid in grids]
    worst = np.inf
    for start in range(0, n_fields, 2 * _CHUNK):  # even starts: field i is entry (i - start) // 2
        chunk = range(start, min(start + 2 * _CHUNK, n_fields))
        for i in chunk:
            fields[i % 2].draw(rng, projected=(i % 4 < 2))
        vectors = [f.take() for f in fields[: len(chunk)]]  # a chunk of one field draws on grid 0 alone
        for i in chunk:
            v = vectors[i % 2][(i - start) // 2]
            lhs, rhs = _interpolation_sides(_power(v), weights[i % 2], grids[i % 2].volume)
            if rhs == 0.0:
                continue
            worst = min(worst, (rhs - lhs) / rhs)

    # single-shell equality case: cos(x) in the y component
    grid = grids[0]
    n = grid.n_modes
    v = np.zeros((3, grid.ball.k_sq.size), dtype=np.complex128)
    v[1, grid.ball.full_index == np.ravel_multi_index((1, 0, 0), (n, n, n))] = 0.5
    lhs, rhs = _interpolation_sides(_power(v), weights[0], grid.volume)
    worst = min(worst, (rhs - lhs) / rhs)

    return _row("interpolation", n_fields + 1, float(worst), -1e-10, worst >= -1e-10,
                "gap relative to the product side")


def product_law_suite(n_pairs: int = 200, seed: int = 0) -> OracleRow:
    """Spread of the product-law ratio across random pairs at fixed resolution.

    No universal constant is asserted -- the pass condition is only that the
    ratio stays finite and positive: the check is the smallest ratio against
    bound 0, holding when it is positive and the largest is finite, so a
    NaN ratio makes its value not finite.  The note gives the ratio range,
    so regressions in the product computation are visible.  The fields are
    ball vectors; only the products are transformed over the whole cube.
    """
    _require_samples(n_pairs, "n_pairs")
    rng = np.random.default_rng(seed)
    grid = make_grid(16, 2.0 * np.pi)
    ball = grid.ball
    l2_weight, grad_weight = _ball_sobolev_weights(grid, (0.0, 1.0))
    weight = _product_weight(grid)
    fields = _RandomFields(grid)
    ratios = []
    for start in range(0, n_pairs, _CHUNK // 2):
        for i in range(start, min(start + _CHUNK // 2, n_pairs)):
            fields.draw(rng, projected=(i % 2 == 0))
            fields.draw(rng, projected=(i % 2 == 1))
        vectors = fields.take()
        samples = ball.to_physical(vectors.reshape(-1, vectors.shape[-1]))
        samples = samples.reshape(vectors.shape[:2] + grid.shape[1:])
        for v, w, fp, gp in zip(vectors[::2], vectors[1::2], samples[::2], samples[1::2]):
            den = _norm(_power(v), l2_weight, grid.volume) * _norm(_power(w), grad_weight, grid.volume)
            ratios.append(_product_ratio(fp, gp, den, weight, grid.volume))
    smallest, largest = float(np.min(ratios)), float(np.max(ratios))
    return _row("product-law", n_pairs, smallest, 0.0, smallest > 0.0 and largest < np.inf,
                f"ratio range [{smallest:.4f}, {largest:.4f}] (diagnostic, no asserted constant)")


def verify_suite(seed: int = 0, fast: bool = False) -> list[OracleRow]:
    """All oracle suites in table order; fast mode trims the sample counts.

    The suites run as two _parallel jobs of about equal serial time: one
    runs monotonicity, Young, Gronwall and interpolation in that order, the
    other product law. So at most two suites overlap on any core count,
    and with NSD_THREADS=1 the two jobs run one after the other (a
    ConfigError when it is not a positive integer). Every row's bits are
    independent of the thread count.
    """
    scale = 10 if fast else 1
    rows, product_law = _parallel([
        lambda: [
            monotonicity_suite(100_000 // scale, seed=seed),
            young_suite(100_000 // scale, seed=seed),
            gronwall_suite(),
            interpolation_suite(1000 // scale, seed=seed),
        ],
        lambda: product_law_suite(200 // scale, seed=seed),
    ])
    return [*rows, product_law]
