"""Tests for weighted projections: basis path, Gram path, VP Jacobian."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from hmgn import projection
from hmgn.errors import (
    GammaBreakdownError,
    RankDeficiencyError,
    WeightVariantError,
)
from hmgn.nullspace import nullspace_basis, rotated_spectrum
from hmgn.problems import build_known_minimum
from hmgn.projection import (
    GammaFactor,
    project_gamma,
    vp_jacobian,
    weighted_pinv_apply,
)
from hmgn.series import TimeSeries, apply_q_transpose, h_tau
from hmgn.weights import (
    BandedW,
    BandedWinv,
    Identity,
    Masked,
    ar_inverse_covariance,
    banded_winv_from_winv_bands,
    mask_missing,
    weighted_norm,
    whiten,
)

from _oracles import (
    basis_projection,
    fd_jacobian,
    gamma_projection_oracle,
    gram_oracle,
    gram_upper_fresh_products_oracle,
    q_matrix_oracle,
    vp_columns_block_oracle,
    vp_jacobian_dense_oracle,
    vp_jacobian_two_solve_oracle,
    weighted_projection_oracle,
    whitened_lstsq_oracle,
)


def random_tridiagonal_winv(n, rng):
    """Random diagonally dominant SPD tridiagonal W^-1 in banded form."""
    off = rng.uniform(-0.4, 0.4, n - 1)
    diag = 1.0 + np.abs(rng.uniform(0.0, 1.0, n))
    return banded_winv_from_winv_bands((diag, off))


def stable_glrr(r, rng):
    """Coefficients with characteristic roots well inside the unit circle."""
    roots = rng.uniform(0.2, 0.8, r) * np.exp(1j * rng.uniform(0, np.pi, r))
    poly = np.real(np.poly(roots))[::-1]  # ascending coefficients
    return poly / np.linalg.norm(poly)


# ---------------------------------------------------------------------------
# weighted_pinv_apply
# ---------------------------------------------------------------------------


def test_pinv_mean_projection():
    x = np.array([3.0, 1.0, 5.0, -1.0])
    z = np.full((4, 1), 0.5)
    res = weighted_pinv_apply(z, Identity(4), x)
    assert_allclose(res.projected, np.full(4, 2.0), atol=1e-14)


def test_pinv_orthonormal_idempotent():
    rng = np.random.default_rng(1)
    z, _ = np.linalg.qr(rng.standard_normal((30, 4)))
    x = rng.standard_normal(30)
    once = weighted_pinv_apply(z, Identity(30), x).projected
    assert_allclose(once, z @ (z.T @ x), atol=1e-12)
    twice = weighted_pinv_apply(z, Identity(30), once).projected
    assert_allclose(twice, once, atol=1e-12)


def test_pinv_matches_dense_normal_equations():
    rng = np.random.default_rng(7)
    n, k = 40, 3
    z = rng.standard_normal((n, k))
    x = rng.standard_normal(n)
    w = ar_inverse_covariance([0.5], 1.0, n)
    res = weighted_pinv_apply(z, w, x)
    want_proj, want_q = weighted_projection_oracle(z, w.to_dense(), x)
    assert_allclose(res.coefficients, want_q, rtol=1e-9, atol=1e-12)
    assert_allclose(res.projected, want_proj, rtol=1e-9, atol=1e-12)
    # W-orthogonality of the residual against the design columns
    assert np.max(np.abs(z.T @ (w.to_dense() @ (x - res.projected)))) <= 1e-9


def test_pinv_batch_columns_consistent():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((25, 2))
    xs = rng.standard_normal((25, 3))
    w = ar_inverse_covariance([0.3], 2.0, 25)
    batch = weighted_pinv_apply(z, w, xs)
    for j in range(3):
        single = weighted_pinv_apply(z, w, xs[:, j])
        assert_allclose(batch.coefficients[:, j], single.coefficients, rtol=1e-12)


def test_pinv_rank_deficiency_detected():
    rng = np.random.default_rng(3)
    col = rng.standard_normal(20)
    z = np.column_stack([col, 2.0 * col])
    with pytest.raises(RankDeficiencyError):
        weighted_pinv_apply(z, Identity(20), rng.standard_normal(20))


def _lstsq_weight(name, n, rng):
    if name == "identity":
        return Identity(n)
    if name == "banded_w":
        return ar_inverse_covariance([0.6, -0.2], 1.5, n)
    mask = np.ones(n, dtype=bool)
    mask[5:12] = False
    mask[rng.choice(n, 6, replace=False)] = False
    return mask_missing(Identity(n), mask)


def _lstsq_designs(rng, n):
    """Whitened-design candidates: a nullspace basis, as every projection
    has, and random blocks of 1 to 4 columns, as the deflated F̂ is."""
    yield nullspace_basis(rotated_spectrum(stable_glrr(4, rng), n)).z
    for k in range(1, 5):
        yield rng.standard_normal((n, k)) * rng.uniform(0.1, 10.0, k)


@pytest.mark.parametrize("weight", ["identity", "banded_w", "masked"])
def test_lstsq_factor_is_bitwise_the_scipy_kernel(weight):
    rng = np.random.default_rng(14)
    kind = {"identity": Identity, "banded_w": BandedW, "masked": Masked}[weight]
    for n in (50, 51, 200):
        w = _lstsq_weight(weight, n, rng)
        assert isinstance(w, kind)
        for z in _lstsq_designs(rng, n):
            zw = whiten(w, z)
            factor = projection._LstsqFactor(zw)
            for x in (rng.standard_normal(n), rng.standard_normal((n, 3)), z):
                xw = whiten(w, x)
                want = whitened_lstsq_oracle(zw, xw)
                assert np.array_equal(factor.solve(xw), want)
                assert np.array_equal(weighted_pinv_apply(z, w, x).coefficients, want)


def test_lstsq_factor_full_rank_beyond_cond_limit_is_rank_deficient():
    # σ_max/σ_min ≥ |r₁₁/r_kk| for every pivoted QR, so a design whose R
    # estimate passes 1e12 has σ_min/σ_max below 1e−12 as well: the factor
    # reports the lost rank straight from R's diagonal
    rng = np.random.default_rng(16)
    u, _ = np.linalg.qr(rng.standard_normal((30, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    zw = u @ np.diag([1.0, 3e-13]) @ v.T
    assert np.linalg.matrix_rank(zw, tol=0.0) == 2
    r_diag = np.abs(np.diag(scipy.linalg.qr(zw, mode="r", pivoting=True)[0]))
    assert r_diag[0] / r_diag[-1] > 1e12
    s = np.linalg.svd(zw, compute_uv=False)
    assert s[-1] < 1e-12 * s[0]
    xw = rng.standard_normal(30)
    with pytest.raises(np.linalg.LinAlgError):
        whitened_lstsq_oracle(zw, xw)
    with pytest.raises(RankDeficiencyError):
        projection._LstsqFactor(zw)


def test_lstsq_factor_rank_and_finiteness_errors():
    rng = np.random.default_rng(17)
    col = rng.standard_normal(20)
    with pytest.raises(RankDeficiencyError):
        projection._LstsqFactor(np.column_stack([col, -3.0 * col]))
    with pytest.raises(RankDeficiencyError):
        projection._LstsqFactor(np.zeros((20, 2)))
    with pytest.raises(ValueError):  # as solve_triangular on a wide R
        weighted_pinv_apply(rng.standard_normal((3, 5)), Identity(3), np.ones(3))
    z = rng.standard_normal((20, 3))
    x = rng.standard_normal(20)
    bad_z = z.copy()
    bad_z[4, 1] = np.nan
    bad_x = x.copy()
    bad_x[7] = np.nan
    with pytest.raises(ValueError):
        whitened_lstsq_oracle(bad_z, x)
    with pytest.raises(ValueError):
        projection._LstsqFactor(bad_z)
    with pytest.raises(ValueError):
        whitened_lstsq_oracle(z, bad_x)
    with pytest.raises(ValueError):
        projection._LstsqFactor(z).solve(bad_x)
    with pytest.raises(ValueError):
        weighted_pinv_apply(bad_z, Identity(20), x)


# ---------------------------------------------------------------------------
# basis path
# ---------------------------------------------------------------------------


def test_project_member_is_fixed():
    rng = np.random.default_rng(4)
    a = (1.0, -1.4, 0.5)
    z = nullspace_basis(rotated_spectrum(a, 50)).z
    x = z @ rng.standard_normal(2)
    res = basis_projection(a, Identity(50), x)
    assert np.linalg.norm(res.projected - x) <= 1e-10 * np.linalg.norm(x)


def test_project_constant_space_is_mean():
    x = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
    res = basis_projection((1.0, -1.0), Identity(5), x)
    assert_allclose(res.projected, np.full(5, x.mean()), atol=1e-12)


def test_projected_satisfies_glrr_and_idempotent():
    rng = np.random.default_rng(5)
    a = np.array([0.8, -1.9, 1.0, -0.3])
    n = 120
    w = ar_inverse_covariance([0.4], 1.0, n)
    x = rng.standard_normal(n)
    res = basis_projection(a, w, x)
    q = q_matrix_oracle(a, n)
    assert np.linalg.norm(q.T @ res.projected) <= 1e-8 * np.linalg.norm(
        res.projected
    )
    again = basis_projection(a, w, res.projected)
    assert np.linalg.norm(again.projected - res.projected) <= 1e-10 * np.linalg.norm(
        res.projected
    )


def test_residual_w_orthogonal_to_basis():
    rng = np.random.default_rng(6)
    a = (1.0, -0.7, 0.2)
    n = 80
    w = ar_inverse_covariance([0.6], 0.5, n)
    x = rng.standard_normal(n)
    res = basis_projection(a, w, x)
    z = nullspace_basis(rotated_spectrum(a, n)).z
    wd = w.to_dense()
    resid = x - res.projected
    xn = weighted_norm(w, x)
    for j in range(z.shape[1]):
        inner = float(z[:, j] @ (wd @ resid))
        assert abs(inner) <= 1e-9 * xn * weighted_norm(w, z[:, j])


def test_identity_weight_projector_symmetric():
    a = (1.0, -1.1, 0.4)
    n = 40
    cols = [
        basis_projection(a, Identity(n), e).projected
        for e in np.eye(n)
    ]
    p = np.column_stack(cols)
    assert np.linalg.norm(p - p.T) <= 1e-10


def test_masked_projection_ignores_unobserved():
    rng = np.random.default_rng(8)
    n = 60
    mask = np.ones(n, dtype=bool)
    mask[10:20] = False
    w = mask_missing(Identity(n), mask)
    a = (1.0, -1.2, 0.3)
    x = rng.standard_normal(n)
    x_tampered = x.copy()
    x_tampered[~mask] = rng.standard_normal((~mask).sum()) * 100.0
    p1 = basis_projection(a, w, x).projected
    p2 = basis_projection(a, w, x_tampered).projected
    assert_allclose(p1, p2, atol=1e-9)


def test_plain_projection_uses_the_plain_realization_bound():
    # a*² has a six-fold unit root: at N = 1000 its plain basis is about
    # 2.7e-4 from real, inside the plain mode's bound of 1e-2 that the
    # solvers apply too (the compensated bound 1e-9 would reject it)
    problem = build_known_minimum(1000)
    a2 = np.convolve(problem.a_star.coeffs, problem.a_star.coeffs)
    basis = nullspace_basis(rotated_spectrum(a2, 1000, "plain"))
    assert 1e-9 < basis.defect <= 1e-2
    x = problem.x.values
    res = basis_projection(a2, Identity(1000), x, mode="plain")
    want = basis.z @ (basis.z.T @ x)
    assert np.linalg.norm(res.projected - want) <= 1e-10 * np.linalg.norm(x)


# ---------------------------------------------------------------------------
# Gram path
# ---------------------------------------------------------------------------


def test_gamma_factor_reconstructs_gram():
    rng = np.random.default_rng(9)
    n = 24
    a = np.array([1.0, -0.9, 0.25])
    w = random_tridiagonal_winv(n, rng)
    factor = GammaFactor(a, w)
    q = q_matrix_oracle(a, n)
    gamma = q.T @ gram_oracle((1.0,), w.chat_bands, n) @ q  # Q(1) = I: Ĉᵀ Ĉ
    v = rng.standard_normal(n - 2)
    assert_allclose(factor.solve(v), np.linalg.solve(gamma, v), rtol=1e-8)


@pytest.mark.parametrize("p", [None, 0, 1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_gamma_factor_matches_dense_gram_all_lengths(r, p):
    # p = None is the identity weight, a single band of ones; the short
    # lengths N − r ≤ r + p leave the upper bands of Γ partly or wholly empty
    rng = np.random.default_rng(10 * r + (p or 0))
    a = stable_glrr(r, rng)
    p_eff = 0 if p is None else p
    lengths = list(range(max(r + 1, p_eff + 1), r + p_eff + 6)) + [200]
    for n in lengths:
        if p is None:
            w, bands = Identity(n), (np.ones(n),)
        else:
            bands = [rng.uniform(0.5, 2.0, n)]
            bands += [rng.uniform(-0.4, 0.4, n - d) for d in range(1, p + 1)]
            w = BandedWinv(n, tuple(bands))
        factor = GammaFactor(a, w)
        v = rng.standard_normal(n - r)
        want = np.linalg.solve(gram_oracle(a, bands, n), v)
        assert np.linalg.norm(factor.solve(v) - want) <= 1e-10 * np.linalg.norm(want)
        x = rng.standard_normal(n)
        winv = gram_oracle((1.0,), bands, n)  # Q(1) = I, so this is Ĉᵀ Ĉ
        want = gamma_projection_oracle(a, winv, x)
        got, _ = project_gamma(factor, x)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(x), n


def test_gamma_mean_projection_matches_basis():
    x = np.array([0.5, 1.5, -2.0, 4.0, 1.0, 0.0])
    got, _ = project_gamma(GammaFactor((1.0, -1.0), Identity(6)), x)
    want = basis_projection((1.0, -1.0), Identity(6), x).projected
    assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_gamma_matches_dense_formula(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 4))
    n = int(rng.integers(20, 100))
    a = stable_glrr(r, rng)
    x = rng.standard_normal(n)
    got, _ = project_gamma(GammaFactor(a, Identity(n)), x)
    want = gamma_projection_oracle(a, np.eye(n), x)
    assert_allclose(got, want, rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize("seed", range(5))
def test_gamma_matches_basis_path_banded_winv(seed):
    rng = np.random.default_rng(100 + seed)
    r = int(rng.integers(1, 4))
    n = int(rng.integers(30, 100))
    a = stable_glrr(r, rng)
    w = random_tridiagonal_winv(n, rng)
    x = rng.standard_normal(n)
    got, _ = project_gamma(GammaFactor(a, w), x)
    want = basis_projection(a, w, x).projected
    assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(x)


@pytest.mark.parametrize("shape", ["vector", "block"])
@pytest.mark.parametrize("weight", ["identity", "banded_winv"])
def test_gamma_factor_apply_chat_is_whitened_winv(weight, shape):
    # whiten(W, W⁻¹v) = Ĉ⁻ᵀĈᵀĈv = Ĉv, which apply_chat gives without a solve
    rng = np.random.default_rng(14)
    n = 50
    w = Identity(n) if weight == "identity" else random_tridiagonal_winv(n, rng)
    factor = GammaFactor((1.0, -0.9, 0.25), w)
    v = rng.standard_normal(n if shape == "vector" else (n, 3))
    got = factor.apply_chat(v)
    assert_allclose(got, whiten(w, factor.apply_winv(v)), rtol=1e-12)
    if weight == "identity":
        assert got is not v and not np.shares_memory(got, v)
        assert got.tobytes() == v.tobytes()


def test_gamma_rejects_masked_weights():
    w = mask_missing(Identity(30), np.ones(30, dtype=bool))
    with pytest.raises(WeightVariantError):
        project_gamma(GammaFactor((1.0, -0.5), w), np.ones(30))


def test_gamma_rejects_banded_w_without_inverse():
    w = ar_inverse_covariance([0.5], 1.0, 30)
    assert isinstance(w, BandedW)
    with pytest.raises(WeightVariantError):
        GammaFactor((1.0, -0.5), w)


def test_gamma_degrades_at_triple_unit_root():
    # the Gram matrix of a triple unit root is numerically singular at this
    # length: the factorization either breaks down outright or the output
    # violates its recurrence at least 100x worse than the stabilized basis
    a = (1.0, -3.0, 3.0, -1.0)
    n = 5000
    x = np.linspace(-1.0, 1.0, n) ** 2
    x = x / np.linalg.norm(x) + 1e-3 * np.sin(np.arange(n))
    q = q_matrix_oracle(a, n)
    basis_out = basis_projection(
        a, Identity(n), x, mode="compensated"
    ).projected
    basis_resid = np.linalg.norm(q.T @ basis_out)
    try:
        gamma_out, _ = project_gamma(GammaFactor(a, Identity(n)), x)
    except GammaBreakdownError:
        return
    gamma_resid = np.linalg.norm(q.T @ gamma_out)
    assert gamma_resid >= 1e2 * basis_resid


# ---------------------------------------------------------------------------
# vp_jacobian
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_vp_jacobian_matches_finite_differences(seed):
    rng = np.random.default_rng(200 + seed)
    r = int(rng.integers(1, 4))
    n = int(rng.integers(40, 200))
    a_raw = stable_glrr(r, rng)
    tau = int(np.argmax(np.abs(a_raw)) + 1)
    adot = np.delete(a_raw / -a_raw[tau - 1], tau - 1)
    w = random_tridiagonal_winv(n, rng)
    x = rng.standard_normal(n)

    jac = vp_jacobian(GammaFactor(h_tau(adot, tau), w), tau, x)

    def s_star(ad):
        return project_gamma(GammaFactor(h_tau(ad, tau), w), x)[0]

    want = fd_jacobian(s_star, adot, h=1e-6)
    assert np.linalg.norm(jac - want) <= 1e-4 * max(1.0, np.linalg.norm(want))


def _jacobian_case(r, weight, n=60):
    """(factor, τ, x, dense W⁻¹) at a stable order-r GLRR."""
    rng = np.random.default_rng(300 + 10 * r + (weight == "banded_winv"))
    a_raw = stable_glrr(r, rng)
    tau = int(np.argmax(np.abs(a_raw)) + 1)
    adot = np.delete(a_raw / -a_raw[tau - 1], tau - 1)
    if weight == "identity":
        w, bands = Identity(n), (np.ones(n),)
    else:
        w = random_tridiagonal_winv(n, rng)
        bands = w.chat_bands
    winv = gram_oracle((1.0,), bands, n)  # Q(1) = I, so this is Ĉᵀ Ĉ
    x = rng.standard_normal(n)
    return GammaFactor(h_tau(adot, tau), w), tau, x, winv


@pytest.mark.parametrize("weight", ["identity", "banded_winv"])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_vp_jacobian_matches_two_solve_and_dense_oracles(r, weight):
    # the merged one-batched-solve form against the earlier two-solve form
    # on the same factor, and against the unsimplified dense derivative
    factor, tau, x, winv = _jacobian_case(r, weight)
    jac = vp_jacobian(factor, tau, x)
    assert jac.shape == (x.size, r)
    for want in (
        vp_jacobian_two_solve_oracle(factor, tau, x, winv),
        vp_jacobian_dense_oracle(factor.coeffs, winv, tau, x),
    ):
        assert np.linalg.norm(jac - want) <= 1e-9 * np.linalg.norm(want)


def test_vp_jacobian_member_term_cancellation():
    # at a series that already satisfies the recurrence, the Jacobian term
    # carrying Q^T(a)x drops out: column j reduces to
    # -W^{-1} Q(a) Gamma^{-1} (window_j of x)
    rng = np.random.default_rng(11)
    a = np.array([0.56, -1.5, 1.0])  # roots 0.7, 0.8; tau = 2 pivot
    n = 40
    z = nullspace_basis(rotated_spectrum(a, n)).z
    x = z @ rng.standard_normal(2)
    tau = 2
    a_norm = a / -a[tau - 1]
    adot = np.delete(a_norm, tau - 1)
    factor = GammaFactor(h_tau(adot, tau), Identity(n))
    jac = vp_jacobian(factor, tau, x)

    q = q_matrix_oracle(h_tau(adot, tau), n)
    positions = [j for j in range(3) if j != tau - 1]
    for col, j in enumerate(positions):
        window = x[j : j + n - 2]
        want = -q @ factor.solve(window)
        assert_allclose(jac[:, col], want, atol=1e-10 * np.linalg.norm(x))


def test_vp_jacobian_columns_in_tangent_space():
    rng = np.random.default_rng(12)
    r, n = 2, 90
    a_raw = stable_glrr(r, rng)
    tau = int(np.argmax(np.abs(a_raw)) + 1)
    adot = np.delete(a_raw / -a_raw[tau - 1], tau - 1)
    a = h_tau(adot, tau)
    w = random_tridiagonal_winv(n, rng)
    x = rng.standard_normal(n)
    jac = vp_jacobian(GammaFactor(a, w), tau, x)
    a2 = np.convolve(a, a)
    q2 = q_matrix_oracle(a2, n)
    assert np.linalg.norm(q2.T @ jac) <= 1e-6 * np.linalg.norm(jac)


# ---------------------------------------------------------------------------
# reuse on the Gram route: carried g and direct banded LAPACK
# ---------------------------------------------------------------------------


def _gram_banded_case(weight, n=60):
    """(a, W, Γ in upper band storage) at a stable order-3 GLRR."""
    rng = np.random.default_rng(61 + (weight == "banded_winv"))
    a = stable_glrr(3, rng)
    if weight == "identity":
        w, bands = Identity(n), (np.ones(n),)
    else:
        w = random_tridiagonal_winv(n, rng)
        bands = w.chat_bands
    return a, w, projection._gram_upper(a, bands, n)


@pytest.mark.parametrize("weight", ["identity", "banded_winv"])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_vp_columns_from_the_carried_g_are_bitwise_the_recomputed(r, weight):
    factor, tau, x, _ = _jacobian_case(r, weight)
    pix, g = project_gamma(factor, x)
    fresh = factor.solve(apply_q_transpose(factor.coeffs, x))
    assert g.tobytes() == fresh.tobytes()
    recomputed = projection._vp_columns(factor, tau, x, pix)
    assert np.array_equal(projection._vp_columns(factor, tau, x, pix, g), recomputed)
    assert np.array_equal(vp_jacobian(factor, tau, x), factor.apply_winv(recomputed))
    # a columnwise batch projects and carries g column by column, whatever
    # the layout of the batch
    batch = np.stack([x, x[::-1], 2.0 * x], axis=1)
    for xs in (batch, np.asfortranarray(batch)):
        pix_b, g_b = project_gamma(factor, xs)
        assert pix_b.shape == xs.shape and g_b.shape == (x.size - r, 3)
        for col in range(3):
            v = xs[:, col]
            pix_v, g_v = project_gamma(factor, v)
            g_fresh = factor.solve(apply_q_transpose(factor.coeffs, v))
            assert g_b[:, col].tobytes() == g_fresh.tobytes() == g_v.tobytes()
            assert pix_b[:, col].tobytes() == pix_v.tobytes()


@pytest.mark.parametrize("weight", ["identity", "banded_winv"])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_vp_columns_are_bitwise_the_block_expressions(r, weight):
    # K assembled column by column in place against the whole-block form,
    # at every pivot, with and without the carried g; odd lengths put the
    # columns of a block off 16-byte boundaries
    rng = np.random.default_rng(70 + r + 10 * (weight == "banded_winv"))
    a = stable_glrr(r, rng)
    for n in (r + 2, 41, 401):
        if weight == "identity":
            w, bands = Identity(n), None
        else:
            w = random_tridiagonal_winv(n, rng)
            bands = w.chat_bands
        factor = GammaFactor(a, w)
        x = rng.standard_normal(n)
        pix, g = project_gamma(factor, x)
        inputs = {"x": x, "pix": pix, "g": g}
        kept = {name: v.tobytes() for name, v in inputs.items()}
        for tau in range(1, r + 2):
            for carried in (None, g):
                got = projection._vp_columns(factor, tau, x, pix, carried)
                want = vp_columns_block_oracle(factor, bands, tau, x, pix, carried)
                assert got.shape == (n, r) and got.flags.f_contiguous
                assert got.tobytes() == want.tobytes(), (n, tau, carried is None)
                for name, v in inputs.items():
                    assert v.tobytes() == kept[name], (name, n, tau)


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_gram_upper_is_bitwise_the_fresh_product_form(r, p):
    # the scratch-row products against a fresh array per product, down to
    # series with N − r ≤ r + p, where upper bands of Γ are partly or
    # wholly empty
    rng = np.random.default_rng(90 + 10 * r + p)
    a = stable_glrr(r, rng)
    for n in [*range(max(r + 1, p + 1), 2 * r + p + 3), 201]:
        bands = [rng.uniform(0.5, 2.0, n)]
        bands += [rng.uniform(-0.4, 0.4, n - d) for d in range(1, p + 1)]
        got = projection._gram_upper(a, tuple(bands), n)
        want = gram_upper_fresh_products_oracle(a, bands, n)
        assert got.strides == want.strides, n
        assert got.tobytes() == want.tobytes(), n


@pytest.mark.parametrize("weight", ["identity", "banded_winv"])
def test_gram_route_leaves_the_factor_unchanged(weight):
    # the factor holds no state of its own: projecting and taking the
    # Jacobian rebind none of its attributes and write into none of them
    factor, tau, x, _ = _jacobian_case(2, weight)

    def contents(value):
        if isinstance(value, np.ndarray):
            return value.tobytes()
        if isinstance(value, tuple):  # the bands of Ĉ
            return tuple(contents(v) for v in value)
        return value

    def attributes():
        return {name: (value, contents(value)) for name, value in vars(factor).items()}

    before = attributes()
    for call in (
        lambda: project_gamma(factor, x),
        lambda: project_gamma(factor, np.stack([x, x], axis=1)),
        lambda: vp_jacobian(factor, tau, x),
    ):
        call()
        after = attributes()
        assert after.keys() == before.keys()
        for name, (value, data) in before.items():
            assert after[name][0] is value, name
            assert after[name][1] == data, name


def test_gram_route_rejects_a_series_with_gaps():
    # the Gram route has no masked weights, so the 0.0 stored at a gap must
    # not be projected as an observation; a fully observed series is its
    # values bit for bit
    factor, tau, x, _ = _jacobian_case(2, "banded_winv")
    gapped = x.copy()
    gapped[[3, 17, 18, 40, 59]] = np.nan
    with pytest.raises(WeightVariantError):
        project_gamma(factor, TimeSeries(gapped))
    with pytest.raises(WeightVariantError):
        vp_jacobian(factor, tau, TimeSeries(gapped))
    masked = TimeSeries(x, mask=np.arange(x.size) != 5)
    with pytest.raises(WeightVariantError):
        project_gamma(factor, masked)
    full = TimeSeries(x)
    for got, want in zip(project_gamma(factor, full), project_gamma(factor, x)):
        assert got.tobytes() == want.tobytes()
    want = vp_jacobian(factor, tau, x)
    assert vp_jacobian(factor, tau, full).tobytes() == want.tobytes()


@pytest.mark.parametrize("weight", ["identity", "banded_winv"])
def test_gamma_factor_is_bitwise_the_scipy_banded_cholesky(weight):
    a, w, ab = _gram_banded_case(weight)
    factor = GammaFactor(a, w)
    chol = scipy.linalg.cholesky_banded(ab, lower=False)
    assert np.array_equal(factor._chol, chol)
    rng = np.random.default_rng(62)
    block = rng.standard_normal((ab.shape[1], 4))
    for v in (block[:, 0], block, np.asfortranarray(block)):
        want = scipy.linalg.cho_solve_banded((chol, False), v)
        assert np.array_equal(factor.solve(v), want)


def test_gamma_factor_error_contract():
    # a five-fold unit root breaks the factorization at N = 1000, as it
    # breaks scipy's
    a = (1.0, -5.0, 10.0, -10.0, 5.0, -1.0)
    ab = projection._gram_upper(np.asarray(a), (np.ones(1000),), 1000)
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.cholesky_banded(ab, lower=False)
    with pytest.raises(GammaBreakdownError, match="leading minor"):
        GammaFactor(a, Identity(1000))

    factor, _, x, _ = _jacobian_case(2, "banded_winv")
    bad = apply_q_transpose(factor.coeffs, x)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        factor.solve(bad)
    with pytest.raises(ValueError):
        factor.solve(np.stack([bad, bad], axis=1))
    with pytest.raises(ValueError):
        factor.solve(bad[:-1])
    x_bad = x.copy()
    x_bad[0] = np.inf
    with pytest.raises(ValueError):
        project_gamma(factor, x_bad)


def test_gamma_factor_rejects_a_non_finite_gram(monkeypatch):
    a, w, ab = _gram_banded_case("identity")
    ab[0, -1] = np.inf
    monkeypatch.setattr(projection, "_gram_upper", lambda *args: ab.copy())
    with pytest.raises(ValueError):
        GammaFactor(a, w)
