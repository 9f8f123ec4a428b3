"""Inequality oracles: frozen hand values, degenerate corners, random suites."""

import re
import tracemalloc

import numpy as np
import pytest
from oracles import (
    cube_k_sq,
    fftn_product_law_ratio,
    fftn_random_band_limited,
    fftn_random_solenoidal,
    loop_interpolation_suite,
    loop_product_law_suite,
)

from nsdamp import inequalities, initial_conditions
from nsdamp.inequalities import (
    _CHUNK,
    _INTERPOLATION_ORDERS,
    _ball_sobolev_weights,
    _interpolation_sides,
    _norm,
    _product_ratio,
    _product_weight,
    _RandomFields,
    gronwall_constant,
    gronwall_suite,
    interpolation_gap,
    interpolation_suite,
    monotonicity_gap,
    monotonicity_suite,
    product_law_ratio,
    product_law_suite,
    verify_suite,
    young_gap,
    young_suite,
)
from nsdamp.initial_conditions import random_solenoidal
from nsdamp.spectral import SpectralField, _power, _sobolev_weight, make_grid


class TestMonotonicityGap:
    def test_hand_value(self):
        # x = (2, 0), y = (0, 1), beta = 2:
        # gap = (|x|^2 - |y|^2)(|x|^2 - |y|^2)/2 = (4 - 1)(4 - 1)/2
        assert monotonicity_gap([2.0, 0.0], [0.0, 1.0], 2.0) == pytest.approx(4.5)

    def test_matches_raw_inner_product_form(self):
        # the factorized evaluation must agree with the definition
        # <|x|^b x - |y|^b y, x - y> - (|x|^b + |y|^b)|x - y|^2 / 2
        rng = np.random.default_rng(0)
        x = rng.uniform(-3.0, 3.0, (500, 3))
        y = rng.uniform(-3.0, 3.0, (500, 3))
        beta = rng.uniform(0.5, 6.0, 500)
        ax = np.linalg.norm(x, axis=1)
        ay = np.linalg.norm(y, axis=1)
        lead = (ax**beta)[:, None] * x - (ay**beta)[:, None] * y
        raw = np.einsum("ij,ij->i", lead, x - y)
        raw -= 0.5 * (ax**beta + ay**beta) * np.einsum("ij,ij->i", x - y, x - y)
        got = monotonicity_gap(x, y, beta)
        np.testing.assert_allclose(got, raw, atol=1e-10)

    @pytest.mark.parametrize(
        "x,y",
        [
            ([1.0, 2.0], [1.0, 2.0]),  # x = y
            ([1.0, 2.0], [0.0, 0.0]),  # y = 0
            ([1.0, 2.0], [-1.0, -2.0]),  # antipodal, equal norms
            ([3.0, 4.0], [4.0, 3.0]),  # permuted, equal norms
        ],
    )
    def test_degenerate_pairs_nonnegative(self, x, y):
        g = monotonicity_gap(x, y, 3.0)
        assert g >= 0.0
        if np.linalg.norm(x) == np.linalg.norm(y):
            assert g == 0.0

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            monotonicity_gap([1.0], [0.5], 0.0)


class TestYoungGap:
    def test_hand_value(self):
        # a = 2, b = 1, p = q = 2: 2 + 1/2 - 2 = 1/2
        assert young_gap(2.0, 1.0, 2.0, 2.0) == pytest.approx(0.5)

    def test_equality_case(self):
        # equality iff a^p = b^q
        p, q = 3.0, 1.5
        a = 2.0
        b = a ** (p / q)
        assert young_gap(a, b, p, q) == pytest.approx(0.0, abs=1e-12)

    def test_damping_exponent_family(self):
        # the conjugate pair ((beta-1)/2, (beta-1)/(beta-3)) used by the
        # absorption step is accepted and nonnegative
        for beta in (3.5, 4.0, 6.0, 3.0 + 1e-5):
            p = (beta - 1.0) / 2.0
            q = (beta - 1.0) / (beta - 3.0)
            assert 1.0 / p + 1.0 / q == pytest.approx(1.0, abs=1e-13)
            g = young_gap(1.7, 0.3, p, q)
            assert g >= 0.0

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError, match="conjugate"):
            young_gap(1.0, 1.0, 2.0, 2.5)
        with pytest.raises(ValueError, match="exceed 1"):
            young_gap(1.0, 1.0, 1.0, np.inf)
        with pytest.raises(ValueError, match="nonnegative"):
            young_gap(-1.0, 1.0, 2.0, 2.0)


class TestGronwallConstant:
    def test_frozen_values(self):
        # (2/alpha)^(2/(beta-3)) / 2
        assert gronwall_constant(1.0, 4.0) == pytest.approx(2.0)
        assert gronwall_constant(2.0, 4.0) == pytest.approx(0.5)
        assert gronwall_constant(1.0, 5.0) == pytest.approx(1.0)
        assert gronwall_constant(8.0, 5.0) == pytest.approx(0.125)

    def test_monotone_in_alpha(self):
        alphas = np.linspace(0.1, 4.0, 40)
        c = gronwall_constant(alphas, 4.0)
        assert np.all(np.diff(c) < 0.0)

    def test_rejects_beta_at_threshold(self):
        with pytest.raises(ValueError, match="beta > 3"):
            gronwall_constant(1.0, 3.0)
        with pytest.raises(ValueError, match="alpha > 0"):
            gronwall_constant(0.0, 4.0)


class TestInterpolationGap:
    def test_single_shell_equality(self):
        # a field on one |xi| shell makes the interpolation exact
        grid = make_grid(8, 2.0 * np.pi)
        c = np.zeros(grid.shape, dtype=np.complex128)
        c[1, 1, 0, 0] = 0.5
        c[1, -1, 0, 0] = 0.5
        f = SpectralField(grid, c)
        assert abs(interpolation_gap(f)) <= 1e-12

    def test_two_shell_strictly_positive(self):
        grid = make_grid(8, 2.0 * np.pi)
        c = np.zeros(grid.shape, dtype=np.complex128)
        c[1, 1, 0, 0] = c[1, -1, 0, 0] = 0.5
        c[2, 2, 0, 0] = c[2, -2, 0, 0] = 0.25
        f = SpectralField(grid, c)
        assert interpolation_gap(f) > 0.0

    def test_random_fields_nonnegative(self):
        grid = make_grid(8, 2.0 * np.pi)
        for seed in range(20):
            f = random_solenoidal(grid, seed=seed)
            assert interpolation_gap(f) >= -1e-12

    def test_requires_zero_mean(self):
        grid = make_grid(8, 2.0 * np.pi)
        f = random_solenoidal(grid, seed=0)
        f.coeffs[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            interpolation_gap(f)


def test_product_law_ratio_finite_and_positive():
    grid = make_grid(16, 2.0 * np.pi)
    f = random_solenoidal(grid, seed=1)
    g = random_solenoidal(grid, seed=2)
    r = product_law_ratio(f, g)
    assert np.isfinite(r) and r > 0.0


def _random_band_limited(grid, rng, projected):
    """Ball vector of the suites' random field drawn alone, a chunk of one."""
    fields = _RandomFields(grid)
    fields.draw(rng, projected)
    return fields.take()[0]


@pytest.mark.parametrize("n", [8, 12, 16, 24, 32, 64])
def test_random_fields_equal_the_fftn_construction(n):
    # the package takes the ball's pruned forward transform of the noise; the
    # oracle transforms the whole cube with SciPy's fftn and then truncates
    grid = make_grid(n, 2.0 * np.pi)
    band_limited = _random_band_limited(grid, np.random.default_rng(n), projected=False)
    pairs = [
        (random_solenoidal(grid, seed=n), fftn_random_solenoidal(grid, seed=n)),
        (
            SpectralField(grid, grid.ball.expand(band_limited)),
            fftn_random_band_limited(grid, np.random.default_rng(n)),
        ),
    ]
    for got, ref in pairs:
        if n & (n - 1) == 0:  # per-pass 1/N factors are exact powers of two
            assert np.array_equal(got.coeffs, ref.coeffs)
        else:
            assert np.abs(got.coeffs - ref.coeffs).max() <= 1e-15 * np.abs(ref.coeffs).max()


@pytest.mark.parametrize("n", [8, 12, 16])
def test_product_law_ratio_equals_the_full_spectrum_sum(n):
    grid = make_grid(n, 2.0 * np.pi)
    rng = np.random.default_rng(n)
    for f, g in [
        (random_solenoidal(grid, seed=1), random_solenoidal(grid, seed=2)),
        (
            SpectralField(grid, grid.ball.expand(_random_band_limited(grid, rng, projected=False))),
            random_solenoidal(grid, seed=3),
        ),
    ]:
        ref = fftn_product_law_ratio(f, g)
        assert abs(product_law_ratio(f, g) - ref) <= 1e-15 * ref


@pytest.mark.parametrize("n", [8, 12, 16])
def test_the_suites_ball_sums_equal_the_public_functions(n):
    # the suites keep their fields as ball vectors; the public functions take
    # the expanded fields over the whole cube
    grid = make_grid(n, 2.0 * np.pi)
    ball, rng = grid.ball, np.random.default_rng(n)
    interpolation_weights = _ball_sobolev_weights(grid, _INTERPOLATION_ORDERS)
    cube_weights = [_sobolev_weight(cube_k_sq(grid), s, homogeneous=True) for s in _INTERPOLATION_ORDERS]
    l2_weight, grad_weight = _ball_sobolev_weights(grid, (0.0, 1.0))
    product_weight = _product_weight(grid)
    fields = _RandomFields(grid)  # one chunk of eight fields, as the suites draw them
    for projected in (True, False, True, False):
        fields.draw(rng, projected)
        fields.draw(rng, not projected)
    vectors = fields.take()
    for v, w in zip(vectors[::2], vectors[1::2]):
        f, g = (SpectralField(grid, ball.expand(x)) for x in (v, w))

        sides = _interpolation_sides(_power(v), interpolation_weights, grid.volume)
        ref = _interpolation_sides(_power(f.coeffs), cube_weights, grid.volume)
        assert np.allclose(sides, ref, rtol=1e-15, atol=0.0)
        assert abs((sides[1] - sides[0]) - interpolation_gap(f)) <= 1e-15 * ref[1]

        den = _norm(_power(v), l2_weight, grid.volume) * _norm(_power(w), grad_weight, grid.volume)
        ratio = _product_ratio(ball.to_physical(v), ball.to_physical(w), den, product_weight,
                               grid.volume)
        ref = product_law_ratio(f, g)
        assert abs(ratio - ref) <= 1e-15 * ref


def test_the_suites_never_touch_the_cube_operators(monkeypatch):
    # the suites' fields stay ball vectors: no cube truncation, projection,
    # mean removal or inverse transform on the way to any row
    def refuse(*args, **kwargs):
        raise AssertionError("an oracle suite called a full-cube operator")

    for module in (inequalities, initial_conditions):
        for name in ("friedrichs_truncate", "leray_project", "remove_mean", "to_physical"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    assert all(row.passed for row in verify_suite(0, fast=True))


def test_verify_suite_fast_all_pass():
    rows = verify_suite(seed=0, fast=True)
    names = [r.name for r in rows]
    assert names == ["monotonicity", "young", "gronwall-monotone", "interpolation", "product-law"]
    for row in rows:
        assert row.passed, f"{row.name}: worst {row.worst}"
        assert row.samples > 0


def test_the_gronwall_note_prints_only_the_other_directions_margin():
    # the check's value is the smaller of the two margins; the note names its
    # direction and prints the other's (the suite draws nothing: no seed)
    row = gronwall_suite()
    assert f"{row.check.value:.3e}" not in row.note
    assert re.fullmatch(r"check value along alpha; min decrease along beta \d\.\d{3}e[-+]\d\d", row.note)


def test_verify_suite_seed_stability():
    a = verify_suite(seed=7, fast=True)
    b = verify_suite(seed=7, fast=True)
    for ra, rb in zip(a, b):
        assert ra.worst == rb.worst


def _fields(row):
    return (row.name, row.samples, row.worst.hex(), row.check.bound, row.passed, row.note)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_the_chunked_suites_give_the_rows_of_one_field_at_a_time(monkeypatch, threads):
    # chunks of _CHUNK fields, the last one short, and a chunk of one field
    monkeypatch.setenv("NSD_THREADS", threads)
    assert 37 % _CHUNK and 2 * 21 % _CHUNK
    for seed in (0, 1, 7):
        for n_fields in (1, 37):
            assert _fields(interpolation_suite(n_fields, seed)) == _fields(
                loop_interpolation_suite(n_fields, seed))
        for n_pairs in (1, 21):
            assert _fields(product_law_suite(n_pairs, seed)) == _fields(
                loop_product_law_suite(n_pairs, seed))
        ref = [monotonicity_suite(10_000, seed), young_suite(10_000, seed), gronwall_suite(),
               loop_interpolation_suite(100, seed), loop_product_law_suite(20, seed)]
        assert [_fields(r) for r in verify_suite(seed, fast=True)] == [_fields(r) for r in ref]


@pytest.mark.parametrize("suite,name", [
    (monotonicity_suite, "n_samples"),
    (young_suite, "n_samples"),
    (interpolation_suite, "n_fields"),
    (product_law_suite, "n_pairs"),
])
@pytest.mark.parametrize("count", [0, -3])
def test_the_suites_refuse_fewer_than_one_sample(suite, name, count):
    # interpolation_suite(-3) passed with samples=-2; the others met an empty reduction
    with pytest.raises(ValueError, match=f"{name} must be at least 1, got {count}"):
        suite(count)


def test_verify_suite_peaks_at_the_monotonicity_suite(monkeypatch):
    # the vectorized suites run before the chunked ones go to the pool, so no
    # chunk buffer adds to the monotonicity suite's 37.4 MiB peak
    monkeypatch.setenv("NSD_THREADS", "2")
    peaks = []
    for call in (lambda: monotonicity_suite(100_000, seed=0), lambda: verify_suite(0, fast=False)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2**20, [p / 2**20 for p in peaks]
