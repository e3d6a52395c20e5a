"""Tests for weight-matrix construction, factors, and weighted norms."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal

from hmgn.errors import WeightVariantError
from hmgn.projection import GammaFactor
from hmgn.weights import (
    BandedW,
    BandedWinv,
    Identity,
    Masked,
    WeightSpec,
    ar_inverse_covariance,
    banded_winv_from_winv_bands,
    mask_missing,
    weighted_norm,
    _bands_to_ab_upper,
    _mul_upper,
    _mul_upper_t,
    whiten,
)

from _oracles import (
    ar_dense_covariance_oracle,
    banded_w_from_w_bands,
    mul_upper_broadcast_oracle,
    mul_upper_t_broadcast_oracle,
    weighted_norm_oracle,
)


def _random_c_bands(rng, n, p, diag_low=0.5, diag_high=2.0):
    """Random well-conditioned upper-triangular factor bands."""
    bands = [rng.uniform(diag_low, diag_high, n)]
    for d in range(1, p + 1):
        bands.append(rng.uniform(-0.4, 0.4, n - d))
    return bands


def _dense_upper(bands, n):
    m = np.zeros((n, n))
    for d, band in enumerate(bands):
        m += np.diag(band, k=d)
    return m


def _apply_winv(w, x):
    """W⁻¹·x through the Gram factor, the one owner of W⁻¹; the GLRR is an
    arbitrary order-1 vector, which W⁻¹ does not depend on."""
    return GammaFactor(np.array([1.0, -0.5]), w).apply_winv(x)


# ---------------------------------------------------------------------------
# ar_inverse_covariance
# ---------------------------------------------------------------------------


def test_ar0_unit_variance_is_identity():
    w = ar_inverse_covariance([], 1.0, 6)
    assert isinstance(w, Identity)
    assert_array_equal(w.to_dense(), np.eye(6))


def test_ar0_scaled_variance():
    w = ar_inverse_covariance([], 4.0, 5)
    assert_allclose(w.to_dense(), np.eye(5) / 4.0, rtol=1e-14)


def test_ar1_tridiagonal_pattern():
    phi, sigma2 = 0.5, 1.0
    w = ar_inverse_covariance([phi], sigma2, 5).to_dense()
    expect = np.zeros((5, 5))
    for i in range(5):
        expect[i, i] = (1 + phi**2) / sigma2
    expect[0, 0] = expect[4, 4] = 1.0 / sigma2
    for i in range(4):
        expect[i, i + 1] = expect[i + 1, i] = -phi / sigma2
    assert_allclose(w, expect, rtol=1e-12, atol=1e-14)
    # entries two or more off the diagonal vanish
    assert np.all(np.abs(np.triu(w, k=2)) < 1e-14)


@pytest.mark.parametrize("phi,sigma2", [(0.5, 1.0), (-0.8, 2.5), (0.95, 0.3)])
def test_ar1_matches_dense_inverse(phi, sigma2):
    n = 50
    sigma = np.fromfunction(
        lambda i, j: phi ** np.abs(i - j) * sigma2 / (1 - phi**2), (n, n)
    )
    w = ar_inverse_covariance([phi], sigma2, n).to_dense()
    assert_allclose(w, np.linalg.inv(sigma), rtol=1e-10, atol=1e-10)


def test_ar2_matches_impulse_response_oracle():
    # AR(1) to AR(3); the short lengths n ≤ 2p + 1 are where the boundary
    # block of W overlaps the filter rows on both sides
    rng = np.random.default_rng(31)
    for p in (1, 2, 3):
        for n in list(range(p + 1, 2 * p + 2)) + [30]:
            for _ in range(5):
                # stable by construction: a conjugate root pair (p ≥ 2) and a
                # real root (odd p), all inside the unit circle
                roots = []
                if p >= 2:
                    rho = rng.uniform(0.3, 0.9)
                    theta = rng.uniform(0.2, 3.0)
                    roots += [rho * np.exp(1j * theta), rho * np.exp(-1j * theta)]
                if p % 2:
                    roots.append(rng.uniform(-0.9, 0.9))
                phi = -np.real(np.poly(roots))[1:]
                sigma2 = rng.uniform(0.5, 2.0)
                sigma = ar_dense_covariance_oracle(phi, sigma2, n)
                w = ar_inverse_covariance(phi, sigma2, n).to_dense()
                assert_allclose(
                    w, np.linalg.inv(sigma), rtol=1e-8, atol=1e-8, err_msg=f"p={p} n={n}"
                )


def test_import_leaves_scipy_sparse_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import hmgn, sys; assert 'scipy.sparse' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_ar_rejects_unstable():
    with pytest.raises(ValueError):
        ar_inverse_covariance([1.2], 1.0, 10)
    with pytest.raises(ValueError):
        ar_inverse_covariance([0.5, 0.5], 1.0, 10)  # root at z = 1


def test_ar_rejects_short_series():
    with pytest.raises(ValueError):
        ar_inverse_covariance([0.5, 0.1], 1.0, 2)


def test_ar_rejects_bad_variance():
    with pytest.raises(ValueError):
        ar_inverse_covariance([0.5], 0.0, 10)


def test_ar_bandwidth_matches_order():
    w = ar_inverse_covariance([0.4, -0.2, 0.1], 1.0, 40)
    assert isinstance(w, BandedW)
    assert w.p == 3


# ---------------------------------------------------------------------------
# factor reconstruction
# ---------------------------------------------------------------------------


def test_ctc_reconstructs_w():
    rng = np.random.default_rng(5)
    for p in (0, 1, 3):
        n = 40
        c_bands = _random_c_bands(rng, n, p)
        w = BandedW(n, tuple(c_bands))
        c = _dense_upper(c_bands, n)
        assert_allclose(w.to_dense(), c.T @ c, rtol=1e-10)


def test_banded_w_from_w_bands_round_trip():
    rng = np.random.default_rng(6)
    n, p = 30, 2
    c_bands = _random_c_bands(rng, n, p)
    c = _dense_upper(c_bands, n)
    w_dense = c.T @ c
    w_bands = [np.diagonal(w_dense, offset=d).copy() for d in range(p + 1)]
    w = banded_w_from_w_bands(w_bands)
    assert_allclose(w.to_dense(), w_dense, rtol=1e-10, atol=1e-12)


def test_banded_w_rejects_indefinite():
    with pytest.raises(ValueError):
        banded_w_from_w_bands([np.array([1.0, -1.0, 1.0]), np.zeros(2)])


def test_banded_winv_dense():
    rng = np.random.default_rng(7)
    n, p = 20, 1
    chat_bands = _random_c_bands(rng, n, p)
    w = BandedWinv(n, tuple(chat_bands))
    chat = _dense_upper(chat_bands, n)
    assert_allclose(w.to_dense(), np.linalg.inv(chat.T @ chat), rtol=1e-9)
    assert_allclose(_apply_winv(w, np.eye(n)), chat.T @ chat, rtol=1e-12)


def test_banded_winv_from_winv_bands():
    rng = np.random.default_rng(8)
    n, p = 25, 1
    chat_bands = _random_c_bands(rng, n, p)
    chat = _dense_upper(chat_bands, n)
    winv_dense = chat.T @ chat
    winv_bands = [np.diagonal(winv_dense, offset=d).copy() for d in range(p + 1)]
    w = banded_winv_from_winv_bands(winv_bands)
    assert_allclose(w.to_dense(), np.linalg.inv(winv_dense), rtol=1e-9)


# ---------------------------------------------------------------------------
# mask_missing
# ---------------------------------------------------------------------------


def test_mask_identity_example():
    w = mask_missing(Identity(3), [True, False, True])
    assert_array_equal(w.to_dense(), np.diag([1.0, 0.0, 1.0]))


def test_mask_all_true_keeps_w():
    w0 = ar_inverse_covariance([0.5], 1.0, 6)
    w = mask_missing(w0, np.ones(6, dtype=bool))
    assert_allclose(w.to_dense(), w0.to_dense(), rtol=1e-14)


def test_mask_ar1_quadratic_form():
    rng = np.random.default_rng(11)
    w0 = ar_inverse_covariance([0.7], 1.3, 12)
    mask = np.ones(12, dtype=bool)
    mask[4] = False
    w = mask_missing(w0, mask)
    u = mask.astype(float)
    dense = u[:, None] * w0.to_dense() * u[None, :]
    for _ in range(10):
        x = rng.standard_normal(12)
        assert_allclose(
            weighted_norm(w, x), weighted_norm_oracle(x, dense), rtol=1e-12
        )


def test_mask_nesting_intersects():
    m1 = np.array([True, True, False, True])
    m2 = np.array([True, False, True, True])
    w = mask_missing(mask_missing(Identity(4), m1), m2)
    assert isinstance(w.inner, Identity)
    assert_array_equal(w.mask, m1 & m2)


def test_mask_rejects_banded_winv():
    w = BandedWinv(4, (np.ones(4),))
    with pytest.raises(WeightVariantError):
        mask_missing(w, [True, True, False, True])


def test_mask_length_mismatch():
    with pytest.raises(ValueError):
        mask_missing(Identity(3), [True, False])


def test_masked_seminorm_vanishes_off_support():
    w0 = ar_inverse_covariance([0.4], 1.0, 10)
    mask = np.array([True] * 4 + [False] * 3 + [True] * 3)
    w = mask_missing(w0, mask)
    x = np.zeros(10)
    x[4:7] = [3.0, -1.0, 2.0]  # supported only on unobserved entries
    assert weighted_norm(w, x) == 0.0
    rng = np.random.default_rng(3)
    for _ in range(5):
        assert weighted_norm(w, rng.standard_normal(10)) >= 0.0


# ---------------------------------------------------------------------------
# whiten / the Gram factor's W⁻¹
# ---------------------------------------------------------------------------


def test_identity_maps():
    w = Identity(4)
    x = np.array([1.0, -2.0, 3.0, 0.5])
    y = whiten(w, x)
    assert_array_equal(y, x)
    assert y is not x


def _layouts(rng, n, k):
    """An n×k block in C order, in Fortran order, as a strided column view
    (the layout of a basis), and as a vector."""
    wide = rng.standard_normal((n, 2 * k))
    return {
        "C": np.ascontiguousarray(wide[:, :k]),
        "F": np.asfortranarray(wide[:, :k]),
        "view": wide[:, :k],
        "vector": wide[:, 0].copy(),
    }


@pytest.mark.parametrize("n,k,p", [(7, 1, 0), (50, 4, 1), (997, 3, 2), (5000, 3, 1)])
def test_banded_product_runs_down_columns_bitwise(n, k, p):
    # M·x and Mᵀ·x, each against its band-broadcast form
    rng = np.random.default_rng(n + k + p)
    bands = _random_c_bands(rng, n, p)
    products = (
        (_mul_upper, mul_upper_broadcast_oracle),
        (_mul_upper_t, mul_upper_t_broadcast_oracle),
    )
    for name, x in _layouts(rng, n, k).items():
        for product, oracle in products:
            got, want = product(bands, x), oracle(bands, x)
            assert got.strides == want.strides, (product.__name__, name)
            assert got.tobytes() == want.tobytes(), (product.__name__, name)


def test_masked_identity_whitens_into_a_fresh_array():
    rng = np.random.default_rng(3)
    n, k = 40, 3
    mask = rng.random(n) < 0.8
    w = mask_missing(Identity(n), mask)
    for name, x in _layouts(rng, n, k).items():
        m = mask if x.ndim == 1 else mask[:, None]
        want = np.where(m, x, 0.0).copy()
        got = whiten(w, x)
        assert got.strides == want.strides, name
        assert got.tobytes() == want.tobytes(), name
        assert not np.shares_memory(got, x)
        got[...] = 7.0  # the caller's array is not an alias
        assert whiten(w, x).tobytes() == want.tobytes()


def test_banded_w_factor_norm():
    rng = np.random.default_rng(13)
    w = ar_inverse_covariance([0.5], 1.0, 15)
    dense = w.to_dense()
    c = _dense_upper(w.c_bands, 15)
    for _ in range(10):
        x = rng.standard_normal(15)
        cx = whiten(w, x)
        assert_allclose(float(cx @ cx), float(x @ dense @ x), rtol=1e-12)
        assert_allclose(cx, c @ x, rtol=1e-11, atol=1e-13)


def test_whiten_banded_winv_inverse_property():
    rng = np.random.default_rng(17)
    n, p = 18, 2
    chat_bands = _random_c_bands(rng, n, p)
    w = BandedWinv(n, tuple(chat_bands))
    chat = _dense_upper(chat_bands, n)
    for _ in range(8):
        x = rng.standard_normal(n)
        y = whiten(w, x)
        assert_allclose(chat.T @ y, x, rtol=1e-10, atol=1e-12)
    # the whitened norm equals the dense inverse route
    x = rng.standard_normal(n)
    y = whiten(w, x)
    assert_allclose(float(y @ y), float(x @ w.to_dense() @ x), rtol=1e-8, atol=1e-10)


def test_variant_mismatch_errors():
    class Unknown(WeightSpec):
        n = 8

    with pytest.raises(WeightVariantError):
        whiten(Unknown(), np.ones(8))
    with pytest.raises(WeightVariantError):
        whiten(Masked(Unknown(), np.ones(8, dtype=bool)), np.ones(8))
    # only Identity and BandedWinv carry W⁻¹ in banded form
    for w in (
        ar_inverse_covariance([0.5], 1.0, 8),
        mask_missing(Identity(8), np.ones(8, dtype=bool)),
    ):
        with pytest.raises(WeightVariantError):
            _apply_winv(w, np.ones(8))


def test_gamma_factor_winv_matches_dense_solve():
    rng = np.random.default_rng(23)
    n, p = 18, 2
    w = BandedWinv(n, tuple(_random_c_bands(rng, n, p)))
    for _ in range(8):
        x = rng.standard_normal(n)
        # ‖whiten(W⁻¹x)‖² = (W⁻¹x)ᵀW(W⁻¹x) = xᵀW⁻¹x
        y = whiten(w, _apply_winv(w, x))
        assert_allclose(
            float(y @ y), float(x @ _apply_winv(w, x)), rtol=1e-9, atol=1e-11
        )
    x = rng.standard_normal(n)
    assert_allclose(_apply_winv(w, x), np.linalg.solve(w.to_dense(), x), rtol=1e-9)
    # identity: a fresh copy, not an alias
    y = _apply_winv(Identity(n), x)
    assert_array_equal(y, x)
    assert y is not x


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        whiten(Identity(4), np.ones(5))


def test_whiten_matches_quadratic_form_all_variants():
    rng = np.random.default_rng(19)
    n = 16
    mask = rng.uniform(size=n) > 0.2
    outer = rng.uniform(size=n) > 0.2
    inner = ar_inverse_covariance([0.3], 1.0, n)
    variants = [
        Identity(n),
        ar_inverse_covariance([0.6, -0.2], 1.4, n),
        BandedWinv(n, tuple(_random_c_bands(rng, n, 1))),
        mask_missing(inner, mask),
        # built directly: mask_missing would flatten the nesting
        Masked(Masked(inner, mask), outer),
    ]
    for w in variants:
        dense = w.to_dense()
        for _ in range(6):
            x = rng.standard_normal(n)
            y = whiten(w, x)
            assert_allclose(
                float(y @ y), float(x @ dense @ x), rtol=1e-9, atol=1e-11
            )
            assert_allclose(weighted_norm(w, x), np.linalg.norm(y), rtol=1e-14)
    x = rng.standard_normal(n)
    assert_array_equal(whiten(variants[-1], x), whiten(Masked(inner, mask & outer), x))


def test_weighted_norm_examples():
    assert weighted_norm(Identity(2), np.array([3.0, 4.0])) == pytest.approx(5.0)
    w = mask_missing(Identity(2), [True, False])
    assert weighted_norm(w, np.array([3.0, 4.0])) == pytest.approx(3.0)


def test_matrix_right_hand_sides():
    rng = np.random.default_rng(23)
    n = 12
    xs = rng.standard_normal((n, 4))
    w = ar_inverse_covariance([0.5], 2.0, n)
    c = _dense_upper(w.c_bands, n)
    assert_allclose(whiten(w, xs), c @ xs, rtol=1e-11, atol=1e-13)
    mask = rng.uniform(size=n) > 0.3
    w_inv = BandedWinv(n, tuple(_random_c_bands(rng, n, 1)))
    variants = (Identity(n), w, w_inv, mask_missing(w, mask), mask_missing(Identity(n), mask))
    for v in variants:
        got = whiten(v, xs)
        for j in range(4):
            assert_allclose(got[:, j], whiten(v, xs[:, j]), rtol=1e-12)
    got = _apply_winv(w_inv, xs)
    for j in range(4):
        assert_allclose(got[:, j], _apply_winv(w_inv, xs[:, j]), rtol=1e-12)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_banded_winv_triangular_solves_match_dense(p):
    rng = np.random.default_rng(31 + p)
    n = 40
    bands = _random_c_bands(rng, n, p)
    if p > 0:
        # rows where the off-diagonal outweighs the diagonal: the old
        # general-band LU pivoted there
        rows = np.arange(0, n - 1, 3)
        bands[1][rows] = 2.5 * bands[0][rows] * rng.choice([-1.0, 1.0], rows.size)
    w = BandedWinv(n, tuple(bands))
    chat = _dense_upper(bands, n)
    assert np.any(np.abs(np.diag(chat, 1)) > np.abs(np.diag(chat)[:-1])) == (p > 0)
    xs = rng.standard_normal((n, 4))
    for x in (xs[:, 0], xs):
        want = np.linalg.solve(chat.T, x)
        got = whiten(w, x)
        assert got.shape == x.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    got = whiten(w, xs)
    for j in range(4):
        assert_allclose(got[:, j], whiten(w, xs[:, j]), rtol=1e-12)


def test_banded_winv_band_array_built_once():
    rng = np.random.default_rng(37)
    n, p = 30, 2
    bands = _random_c_bands(rng, n, p)
    w = BandedWinv(n, tuple(bands))
    ab = w.ab_upper
    assert ab.flags.f_contiguous and not ab.flags.writeable
    with pytest.raises(ValueError):
        ab[0, 0] = 1.0
    spec = {f.name: f for f in dataclasses.fields(w)}["ab_upper"]
    assert not spec.compare and not spec.repr and not spec.init
    # bitwise the solve on a band array rebuilt per call
    fresh = scipy.linalg.lapack.dtbtrs(
        _bands_to_ab_upper(w.chat_bands, n), np.ones(n), uplo="U", trans="T"
    )[0]
    assert whiten(w, np.ones(n)).tobytes() == fresh.tobytes()
    assert whiten(w, np.ones(n)).tobytes() == fresh.tobytes()  # not consumed


# ---------------------------------------------------------------------------
# cost scaling
# ---------------------------------------------------------------------------


def _min_runtimes(fs, reps=40):
    """Best time of each of ``fs`` over ``reps`` passes that alternate
    between them, so a spell of load on the box slows all of them."""
    best = [np.inf] * len(fs)
    for _ in range(reps):
        for i, f in enumerate(fs):
            t0 = time.perf_counter()
            f()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def test_whiten_cost_is_linear_in_n():
    rng = np.random.default_rng(29)
    p = 2
    n1 = 250_000
    w1 = BandedW(n1, tuple(_random_c_bands(rng, n1, p)))
    w4 = BandedW(4 * n1, tuple(_random_c_bands(rng, 4 * n1, p)))
    x1 = rng.standard_normal(n1)
    x4 = rng.standard_normal(4 * n1)
    whiten(w1, x1), whiten(w4, x4)  # warm-up
    t1, t4 = _min_runtimes([lambda: whiten(w1, x1), lambda: whiten(w4, x4)])
    ratio = t4 / t1
    assert 3.0 <= ratio <= 6.0, f"whiten scaling ratio {ratio:.2f} not linear"
