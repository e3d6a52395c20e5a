"""Tests for the circulant-FFT subspace machinery: grids, rotations, bases."""

from __future__ import annotations

import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import subspace_angles

from hmgn.errors import SpectrumDegeneracyError
import hmgn.nullspace
import hmgn.solvers
from hmgn.nullspace import (
    RotatedSpectrum,
    eval_poly_grid,
    fhat_matrix,
    find_rotation,
    nullspace_basis,
    rotated_spectrum,
)
from hmgn.problems import build_known_minimum
from hmgn.series import (
    GlrrVector,
    ModelComponent,
    apply_q_transpose,
    embed,
    generate_model_signal,
)
from hmgn.solvers import SolverConfig, fit
from hmgn.weights import Identity, _norm2, ar_inverse_covariance

from _oracles import (
    cgs2_oracle,
    comp_horner_oracle,
    fhat_columns_oracle,
    fhat_packed_oracle,
    find_rotation_oracle,
    full_grid_basis_oracle,
    gram_schmidt_cols,
    grid_min_abs_loop_oracle,
    poly_eval_oracle,
    q_matrix_oracle,
    recurrence_kernel_oracle,
    rotation_scan_oracle,
)

# well-scaled random GLRR coefficients, orders 1..4
glrr_arrays = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        min_size=r + 1,
        max_size=r + 1,
    ).filter(lambda c: max(abs(v) for v in c) > 1e-2)
)


def _rotated_grid(n, alpha):
    return np.exp(1j * (2.0 * np.pi * np.arange(n) / n - alpha))


# ---------------------------------------------------------------------------
# eval_poly_grid
# ---------------------------------------------------------------------------


def test_eval_poly_fourth_roots():
    # 1 - z at the 4th roots of unity
    got = eval_poly_grid((1.0, -1.0), 0.0, 4)
    assert_allclose(got, [0.0, 1.0 - 1.0j, 2.0, 1.0 + 1.0j], atol=1e-15)


def test_eval_poly_constant():
    got = eval_poly_grid((3.5, 0.0), 0.3, 16)
    assert_allclose(got, np.full(16, 3.5 + 0.0j), atol=1e-15)


@pytest.mark.parametrize("mode", ["plain", "compensated"])
def test_eval_poly_matches_naive_powers(mode):
    a = (0.7, -1.3, 0.25, 2.0)
    got = eval_poly_grid(a, 0.11, 64, mode)
    want = poly_eval_oracle(a, _rotated_grid(64, 0.11))
    assert_allclose(got, want, rtol=1e-12)


def test_grid_rotation_identity():
    # evaluating on the rotated grid equals evaluating the coefficient
    # polynomial at the rotated points directly
    a = np.array([1.0, -2.2, 0.8, 0.3])
    alpha = 4.2e-4
    got = eval_poly_grid(a, alpha, 128)
    want = np.polyval(a[::-1], _rotated_grid(128, alpha))
    assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_compensated_horner_near_triple_root():
    # (1-z)^3 collapses catastrophically near z = 1; the compensated
    # evaluation should match a 128-bit oracle to a couple of ulps while
    # the plain evaluation loses at least six digits
    a = (1.0, -3.0, 3.0, -1.0)
    n, alpha = 4096, 1e-5
    j = 0  # grid point closest to z = 1
    plain = eval_poly_grid(a, alpha, n, "plain")[j]
    comp = eval_poly_grid(a, alpha, n, "compensated")[j]

    # evaluate the polynomial exactly at the double-precision grid point the
    # implementation uses (the grid rounding itself is not under test)
    z_double = np.exp(1j * (2.0 * np.pi * j / n - alpha))
    with mpmath.workprec(128):
        z = mpmath.mpc(z_double.real, z_double.imag)
        exact = (1 - z) ** 3
        exact_c = complex(exact.real, exact.imag)

    scale = abs(exact_c)
    assert abs(comp - exact_c) <= 2 * np.spacing(scale)
    assert abs(plain - exact_c) >= 1e6 * np.spacing(scale)


# ---------------------------------------------------------------------------
# find_rotation
# ---------------------------------------------------------------------------


def test_rotation_avoids_unit_root():
    n = 8
    alpha = find_rotation((1.0, -1.0), n)
    assert alpha != 0.0
    assert -np.pi / n < alpha <= np.pi / n
    assert np.min(np.abs(eval_poly_grid((1.0, -1.0), alpha, n))) > 0.0


def test_rotation_no_unit_circle_roots():
    # |2 - z| >= 1 everywhere on the circle, so any rotation works
    alpha = find_rotation((2.0, -1.0), 32)
    assert np.min(np.abs(eval_poly_grid((2.0, -1.0), alpha, 32))) >= 1.0


def test_min_eigenvalue_scaling_double_root():
    # |lambda_min| * N^2 settles near pi^2 for the double unit root
    for k in range(6, 13):
        n = 2**k
        sp = rotated_spectrum((1.0, -2.0, 1.0), n)
        assert 9.0 <= sp.min_abs_eigenvalue * n**2 <= 10.5


@pytest.mark.parametrize(
    "t,a", [(1, (1.0, -1.0)), (2, (1.0, -2.0, 1.0)), (3, (1.0, -3.0, 3.0, -1.0))]
)
def test_min_eigenvalue_slope(t, a):
    logs = []
    for k in range(6, 11):
        n = 2**k
        sp = rotated_spectrum(a, n)
        logs.append((np.log(n), np.log(sp.min_abs_eigenvalue)))
    slope = np.polyfit([p[0] for p in logs], [p[1] for p in logs], 1)[0]
    assert abs(slope + t) <= 0.25


_UNIT_ROOTS = {
    "single": (1.0, -1.0),
    "double": (1.0, -2.0, 1.0),
    "triple": (1.0, -3.0, 3.0, -1.0),
    "six-fold": tuple(np.convolve((1.0, -3.0, 3.0, -1.0), (1.0, -3.0, 3.0, -1.0))),
}


def _compensated_min(a, n, alpha):
    return np.min(np.abs(eval_poly_grid(a, alpha, n, "compensated")))


@pytest.mark.parametrize("n", [1000, 5000])
@pytest.mark.parametrize("name", sorted(_UNIT_ROOTS))
def test_rotation_matches_dense_scan_on_unit_roots(name, n):
    a = _UNIT_ROOTS[name]
    alpha = find_rotation(a, n)
    assert -np.pi / n < alpha <= np.pi / n
    oracle = _compensated_min(a, n, rotation_scan_oracle(a, n))
    assert _compensated_min(a, n, alpha) >= 0.95 * oracle


def test_rotation_matches_dense_scan_on_random_coefficients():
    rng = np.random.default_rng(20180305)
    for _ in range(50):
        a = rng.standard_normal(int(rng.integers(2, 8)))
        n = int(rng.integers(16, 513))
        oracle = _compensated_min(a, n, rotation_scan_oracle(a, n))
        assert _compensated_min(a, n, find_rotation(a, n)) >= 0.95 * oracle


@pytest.mark.parametrize("name", sorted(_UNIT_ROOTS) + ["random"])
def test_rotation_grid_evaluations_bounded_by_order(monkeypatch, name):
    a = _UNIT_ROOTS.get(name, (0.7, -1.3, 0.25, 2.0, -0.4))
    calls = []
    inner = hmgn.nullspace._grid_min_abs

    def counting(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(hmgn.nullspace, "_grid_min_abs", counting)
    find_rotation(a, 5000)
    assert 1 <= len(calls) <= len(a)


def test_spectrum_carries_and_checks_its_inputs():
    sp = rotated_spectrum((1.0, -2.0, 1.0), 50, "compensated")
    assert (sp.n, sp.r, sp.mode) == (50, 2, "compensated")
    assert sp.coeffs.tolist() == [1.0, -2.0, 1.0]
    with pytest.raises(ValueError):
        sp.coeffs[0] = 0.0
    eig = np.ones(8)
    with pytest.raises(ValueError):
        RotatedSpectrum((1.0, -1.0), "exact", 0.1, eig)
    with pytest.raises(ValueError):
        RotatedSpectrum((1.0,), "plain", 0.1, eig)  # r = 0
    with pytest.raises(ValueError):
        RotatedSpectrum((1.0, -0.5, 0.2, 0.1, 0.3), "plain", 0.1, eig)  # r = N/2
    with pytest.raises(ValueError):
        rotated_spectrum((1.0, -0.5), 8, "exact")
    # the order is checked before the rotation search, which would raise
    # SpectrumDegeneracyError on a grid shorter than the coefficients
    with pytest.raises(ValueError):
        rotated_spectrum((1.0, -1.0, 0.0, 0.0, 0.0), 4)


def test_degenerate_grid_raises():
    with pytest.raises(SpectrumDegeneracyError):
        RotatedSpectrum((1.0, -1.0), "plain", 0.0, eval_poly_grid((1.0, -1.0), 0.0, 8))
    with pytest.raises(SpectrumDegeneracyError):
        find_rotation((1.0, -1.0, 0.0, 0.0, 0.0), 4)


# ---------------------------------------------------------------------------
# nullspace_basis
# ---------------------------------------------------------------------------


def test_constant_series_basis():
    basis = nullspace_basis(rotated_spectrum((1.0, -1.0), 5))
    col = basis.z[:, 0]
    assert_allclose(np.abs(col), np.full(5, 1 / np.sqrt(5)), atol=1e-12)
    assert _norm2(apply_q_transpose((1.0, -1.0), basis.z)) <= 1e-12


def test_affine_sequences_basis():
    basis = nullspace_basis(rotated_spectrum((1.0, -2.0, 1.0), 6))
    n = np.arange(6, dtype=float)
    want = gram_schmidt_cols(np.column_stack([np.ones(6), n]))
    angles = subspace_angles(basis.z, want)
    assert np.max(angles) <= 1e-10
    q = q_matrix_oracle((1.0, -2.0, 1.0), 6)
    assert np.linalg.norm(q.T @ basis.z) <= 1e-10


@pytest.mark.parametrize(
    "mode,angle_tol", [("plain", 1e-6), ("compensated", 1e-9)]
)
def test_quadratic_span_large_n(mode, angle_tol):
    n = 1000
    basis = nullspace_basis(rotated_spectrum((1.0, -3.0, 3.0, -1.0), n, mode))
    grid = np.arange(n, dtype=float)
    want = gram_schmidt_cols(np.column_stack([np.ones(n), grid, grid**2]))
    assert np.max(subspace_angles(basis.z, want)) <= angle_tol


def test_kernel_oracle_matches_polynomial_closed_forms():
    # the exact-arithmetic kernel the acceptance checks rely on: quadratics
    # for a*, polynomials of degree ≤ 5 (the known minimum's tangent basis)
    # for a*²
    n = 1000
    a = (1.0, -3.0, 3.0, -1.0)
    grid = np.arange(n, dtype=float)
    quadratics = gram_schmidt_cols(np.column_stack([np.ones(n), grid, grid**2]))
    z = recurrence_kernel_oracle(a, n)
    assert np.max(subspace_angles(z, quadratics)) <= 1e-12
    z2 = recurrence_kernel_oracle(a, n, squared=True)
    tangent = build_known_minimum(n).tangent_basis
    assert np.max(subspace_angles(z2, tangent)) <= 1e-12


def test_projector_invariant_to_basis_route():
    # plain and compensated assemble the basis differently; the projectors
    # they induce must agree
    a = (1.0, -0.9, 0.3, -0.4)
    zp = nullspace_basis(rotated_spectrum(a, 240, "plain")).z
    zc = nullspace_basis(rotated_spectrum(a, 240, "compensated")).z
    assert np.linalg.norm(zp @ zp.T - zc @ zc.T) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(a=glrr_arrays, n=st.integers(min_value=16, max_value=128))
# a subnormal leading coefficient overflows the companion matrix
@example(a=[1.0, 2.2250738585e-313], n=16)
def test_basis_orthonormal_and_annihilated(a, n):
    coeffs = GlrrVector(np.asarray(a))
    basis = nullspace_basis(rotated_spectrum(coeffs, n))
    r = coeffs.order
    assert basis.z.shape == (n, r)
    assert np.linalg.norm(basis.z.T @ basis.z - np.eye(r)) <= 1e-10
    q = q_matrix_oracle(coeffs.coeffs, n)
    assert np.linalg.norm(q.T @ basis.z) <= 1e-9 * max(
        1.0, np.linalg.norm(coeffs.coeffs)
    )


def test_basis_cost_scaling():
    a = (1.0, -0.5, 0.2, 0.1)
    sizes = (2048, 8192)
    # the sizes alternate, so a spell of load on the box slows both
    best = dict.fromkeys(sizes, np.inf)
    for rep in range(16):
        for n in sizes:
            t0 = time.perf_counter()
            nullspace_basis(rotated_spectrum(a, n))
            if rep:  # the first pass warms the grid tables
                best[n] = min(best[n], time.perf_counter() - t0)
    ratio = best[8192] / best[2048]
    assert ratio <= 5.5


#: ‖ZᵀZ − I‖_F of a basis taken as the real part of Z_c.  Plain mode
#: orthonormalizes Z_c itself, so Re Z_c is orthonormal to rounding plus
#: ‖Im Z_c‖² ≤ u.  Compensated mode re-evaluates A_g⁻¹·R_r·O_r, which is
#: orthonormal only to about u·κ(L_r), so its bound is that many times
#: u·κ(L_r): (z − 1)³ and (z − 1)³ + 1e-6 read at most 1.8·u·κ from N = 50
#: to 20000 (5.6e-8 = 1.3·u·κ for (z − 1)³ at N = 20000).
_REAL_PART_ORTH = {"plain": 1e-14, "compensated": 4.0}

#: ‖Im Z_c‖_F of a real twist's basis: the inverse FFT's rounding
_REAL_TWIST_DEFECT = 1e-14

_TRIPLE_ROOT = np.array([1.0, -3.0, 3.0, -1.0])


def _count_realizations(monkeypatch):
    """A list that grows by one at every SVD realization."""
    calls = []
    realize = hmgn.nullspace._realize_basis

    def counting(z_c, imag_tol):
        calls.append(z_c.shape)
        return realize(z_c, imag_tol)

    monkeypatch.setattr(hmgn.nullspace, "_realize_basis", counting)
    return calls


@pytest.mark.parametrize("mode", ["plain", "compensated"])
@pytest.mark.parametrize("n", [50, 200, 1000, 5000, 20000])
def test_real_part_basis_spans_the_svd_realization(monkeypatch, mode, n):
    # the known minimum's a* = (z − 1)³ and the benchmark's start a* + 1e-6;
    # forcing the SVD on the same Z_c isolates the realization
    for offset in (0.0, 1e-6):
        a = _TRIPLE_ROOT + offset
        spectrum = rotated_spectrum(a, n, mode)
        assert spectrum.real_twist
        calls = _count_realizations(monkeypatch)
        fast = nullspace_basis(spectrum)
        fast_route = not calls
        monkeypatch.setattr(hmgn.nullspace, "_SQRT_U", -1.0)
        svd = nullspace_basis(spectrum)
        monkeypatch.undo()
        # the real twist's Z_c is real up to the FFT's rounding in both
        # modes, so the real part is taken even where κ(L_r) = 3.8e8
        assert fast_route
        assert np.max(subspace_angles(fast.z, svd.z)) <= 1e-12
        for basis in (fast, svd):
            assert _norm2(apply_q_transpose(a, basis.z)) <= 1e-14
        assert fast.defect <= _REAL_TWIST_DEFECT
        orth = np.linalg.norm(fast.z.T @ fast.z - np.eye(3))
        if mode == "plain":
            assert orth <= _REAL_PART_ORTH[mode]
        else:
            l_rows = hmgn.nullspace._fourier_columns(n, 3) / spectrum.eigenvalues
            u_kappa = np.finfo(float).eps / 2 * np.linalg.cond(l_rows.T)
            assert orth <= _REAL_PART_ORTH[mode] * u_kappa


@pytest.mark.parametrize("smoke", [True, False])
def test_trend_long_fits_realize_no_basis_by_svd(monkeypatch, smoke):
    # every spectrum of these fits has a real twist, and a real twist's Z_c
    # is real up to the FFT's rounding in both modes
    import fit_digest

    calls = _count_realizations(monkeypatch)
    projections = []
    build = hmgn.solvers.nullspace_basis

    def counting_basis(spectrum):
        projections.append(spectrum.real_twist)
        return build(spectrum)

    monkeypatch.setattr(hmgn.solvers, "nullspace_basis", counting_basis)
    fits = fit_digest.workload_fits("trend-long", 100, smoke=smoke)
    assert all(not isinstance(result, str) for _, result in fits)
    assert len(projections) > 4 * len(fits) and all(projections)
    assert calls == []


#: the pairing shifts s, conj(ω_j) = ω_{(s − j) mod N}, of α₀ = s·π/N
_SHIFTS = [-1, 0, 1]


@pytest.mark.parametrize("shift", _SHIFTS)
def test_conjugate_pairing_completes_every_grid(shift):
    # the representatives, their reversed partners and the wrap of s = 1,
    # on every grid size up to 64 (odd sizes have one self-conjugate point
    # more or less than even ones)
    rng = np.random.default_rng(shift + 1)
    for n in range(3, 65):
        pairs = hmgn.nullspace._conjugate_pairs(n, shift)
        partner = (shift - np.arange(n)) % n
        assert sorted({min(j, partner[j]) for j in range(n)}) == sorted(
            min(j, partner[j]) for j in range(pairs.reps.start, pairs.reps.stop)
        )
        full = np.full((2, n), np.nan, dtype=complex)
        k = pairs.reps.stop - pairs.reps.start
        full[:, pairs.reps] = rng.standard_normal((2, k)) + 1j * rng.standard_normal((2, k))
        pairs.make_real(full[:, pairs.reps])
        pairs.complete(full)
        assert np.array_equal(full[:, partner], np.conj(full)), n


@pytest.mark.parametrize("mode", ["plain", "compensated"])
@pytest.mark.parametrize("n", [50, 51, 1000, 1001])
@pytest.mark.parametrize("shift", _SHIFTS)
def test_real_twist_eigenvalues_are_exactly_conjugate_symmetric(shift, n, mode):
    ns = hmgn.nullspace
    rng = np.random.default_rng(n + 7 * shift)
    alpha0 = shift * np.pi / n
    pairs = ns._conjugate_pairs(n, shift)
    partner = (shift - np.arange(n)) % n
    selfs = np.flatnonzero(partner == np.arange(n))
    assert tuple(selfs - pairs.reps.start) == pairs.self_conjugate
    grid = _rotated_grid(n, alpha0)
    assert np.abs(np.abs(grid[selfs].real) - 1.0).max(initial=0.0) <= 1e-15
    for a in [rng.standard_normal(r + 1) for r in range(1, 7)] + [_fold((-0.9, 1.0), 3)]:
        eig = ns._eigenvalues(a, alpha0, n, mode)
        assert np.array_equal(eig[partner], np.conj(eig))
        assert np.all(eig[selfs].imag == 0.0)
        # the representatives are the full-grid values, bitwise
        full = eval_poly_grid(a, alpha0, n, mode)
        reps = np.setdiff1d(np.arange(pairs.reps.start, pairs.reps.stop), selfs)
        assert eig[reps].tobytes() == full[reps].tobytes()
        assert eig[selfs].real.tobytes() == full[selfs].real.tobytes()
        spectrum = RotatedSpectrum(a, mode, alpha0, eig)
        assert spectrum.real_twist and spectrum._pairs is pairs


@pytest.mark.parametrize("mode", ["plain", "compensated"])
@pytest.mark.parametrize(
    "roots,n,shift",
    [(1.0, 1000, 1), (1.0, 999, 1), (-1.0, 999, 0), (-1.0, 2000, 1), (1.0, 2000, -1)],
)
def test_rotated_spectrum_of_a_real_twist_is_exactly_conjugate_symmetric(roots, n, shift, mode):
    # a t-fold root at 1 forbids α₀ = 0 and one at −1 on an odd grid
    # forbids π/N; (z − 1)⁵ at N = 2000 gets −π/N + 2 ulp
    a = _fold((-roots, 1.0), 5 if shift == -1 else 3)
    spectrum = rotated_spectrum(a, n, mode)
    assert hmgn.nullspace._pair_shift(n, spectrum.alpha0) == shift
    eig = spectrum.eigenvalues
    assert np.array_equal(eig[(shift - np.arange(n)) % n], np.conj(eig))


@pytest.mark.parametrize("n", [1999, 2999])
def test_rotation_scores_self_conjugate_points_by_the_real_part(n):
    # on an odd grid α₀ = π/N puts a point on the root −1 of (z − 1)⁵(z + 1);
    # plain Horner reads |g| = 3.9e-15 there, all of it imaginary, so by |g|
    # that rotation wins, and the real self-conjugate eigenvalue it would
    # get is 0 (plain) or 1.2e-30 (compensated)
    a = np.convolve(_fold((-1.0, 1.0), 5), (1.0, 1.0))
    kernel = recurrence_kernel_oracle(a, n)
    for mode, bound in (("plain", 1e-3), ("compensated", 1e-12)):
        spectrum = rotated_spectrum(a, n, mode)
        assert spectrum.min_abs_eigenvalue >= 1e-15
        basis = nullspace_basis(spectrum)
        assert np.max(subspace_angles(basis.z, kernel)) <= bound, mode


def _real_twist_cases(r):
    """(a, N, α₀) with α₀ on each pairing shift for order r: a t-fold root
    at 1 (the closed form places α₀ = π/N; None below), the same with
    α₀ = −π/N, and a t-fold root at −1 on an odd grid with α₀ = 0 (the
    closed form lands a few ulps off 0 for r ≤ 2)."""
    cases = []
    for n in (999, 1000):
        cases += [(_fold((-1.0, 1.0), r), n, None), (_fold((-1.0, 1.0), r), n, -np.pi / n)]
    return cases + [(_fold((1.0, 1.0), r), n, 0.0) for n in (999, 1001)]


@pytest.mark.parametrize("r", range(1, 7))
def test_real_twist_basis_matches_the_kernel_and_the_full_grid_construction(r):
    # the half-grid basis is in the accuracy class of the full-grid one:
    # within 4× its subspace angle to the exact kernel (plus 1e-13), in
    # both modes and for every pairing shift
    shifts = set()
    for a, n, alpha0 in _real_twist_cases(r):
        kernel = recurrence_kernel_oracle(a, n)
        for mode in ("plain", "compensated"):
            if alpha0 is None:
                spectrum = rotated_spectrum(a, n, mode)
            else:
                eig = hmgn.nullspace._eigenvalues(a, alpha0, n, mode)
                spectrum = RotatedSpectrum(a, mode, alpha0, eig)
            shifts.add(hmgn.nullspace._pair_shift(n, spectrum.alpha0))
            basis = nullspace_basis(spectrum)
            assert basis.defect <= _REAL_TWIST_DEFECT
            full = full_grid_basis_oracle(a, spectrum.alpha0, n, mode)
            err = np.max(subspace_angles(basis.z, kernel))
            full_err = np.max(subspace_angles(full, kernel))
            assert err <= 4.0 * full_err + 1e-13, (mode, n, spectrum.alpha0)
            if mode == "compensated":
                assert err <= 1e-13
    assert shifts == {0, 1, -1}


@pytest.mark.parametrize("r", range(1, 7))
def test_basis_layout_is_one_on_both_routes(monkeypatch, r):
    n = 64
    a = np.random.default_rng(r).standard_normal(r + 1)
    real = rotated_spectrum(a, n)
    # any rotation off the roots diagonalizes the circulant; one that is
    # not 0 or ±π/N makes the basis go through the SVD
    alpha0 = 0.3 * np.pi / n
    general = RotatedSpectrum(a, "plain", alpha0, eval_poly_grid(a, alpha0, n))
    assert real.real_twist and not general.real_twist
    calls = _count_realizations(monkeypatch)
    bases = []
    for spectrum, svd_calls in ((real, 0), (general, 1)):
        basis = nullspace_basis(spectrum)
        assert len(calls) == svd_calls
        z = basis.z
        assert z.shape == (n, r) and z.dtype == np.float64
        assert z.flags.f_contiguous and z.strides == (8, 8 * n)
        assert not z.flags.writeable
        bases.append(z)
    assert np.max(subspace_angles(*bases)) <= 1e-12


@pytest.mark.parametrize(
    "a", [(1.0, -1.8 + 0.3j, 1.0), (1.0 + 0.5j, -2.0, 1.0 - 0.25j)]
)
def test_complex_coefficients_are_rejected_where_they_enter(a):
    # a complex a has no real Z(a) and no real F̂
    eig = np.ones(50, dtype=complex)
    for enter in (
        lambda: rotated_spectrum(a, 50),
        lambda: rotated_spectrum(a, 50, "compensated"),
        lambda: eval_poly_grid(a, 0.0, 50),
        lambda: eval_poly_grid(a, 0.0, 50, "compensated"),
        lambda: find_rotation(a, 50),
        lambda: RotatedSpectrum(np.asarray(a), "plain", 0.0, eig),
    ):
        with pytest.raises(ValueError, match="must be real"):
            enter()


def test_basis_of_complex_coefficients_with_zero_imaginary_part():
    real = nullspace_basis(rotated_spectrum([1.0, -1.8, 1.0], 50))
    spectrum = rotated_spectrum(np.array([1.0, -1.8, 1.0], dtype=complex), 50)
    assert spectrum.coeffs.dtype == np.float64
    basis = nullspace_basis(spectrum)
    assert np.max(subspace_angles(basis.z, real.z)) <= 1e-13
    assert _norm2(apply_q_transpose((1.0, -1.8, 1.0), basis.z)) <= 1e-14
    q = q_matrix_oracle((1.0, -1.8, 1.0), 50)
    assert np.linalg.norm(q.T @ basis.z) <= 1e-14
    values = np.cos(0.4 * np.arange(50))
    want = fhat_matrix(rotated_spectrum([1.0, -1.8, 1.0], 50), values, 2)
    assert_allclose(fhat_matrix(spectrum, values, 2), want, rtol=0.0, atol=1e-12)


def _l_rows(a, n):
    """L_r = A_g⁻¹·R_r, one column per row (r×N): the input of
    ``nullspace_basis``'s Gram–Schmidt before its columns are de-phased."""
    spectrum = rotated_spectrum(a, n)
    return hmgn.nullspace._fourier_columns(n, spectrum.r) / spectrum.eigenvalues


def _check_cgs2_factor(l_rows):
    """Q, R̂ and L as N×r matrices, after the checks every input must pass."""
    q_rows, rhat = hmgn.nullspace._cgs2(l_rows)
    q, l_mat = q_rows.T, l_rows.T
    r = l_mat.shape[1]
    assert q_rows.shape == l_rows.shape and rhat.shape == (r, r)
    assert np.linalg.norm(q.conj().T @ q - np.eye(r)) <= 1e-14
    assert np.linalg.norm(q @ rhat - l_mat) <= 1e-15 * np.linalg.norm(l_mat)
    assert np.array_equal(rhat, np.triu(rhat))
    diag = np.diag(rhat)
    assert np.all(diag.imag == 0.0) and np.all(diag.real > 0.0)
    return diag.real, np.abs(np.diag(np.linalg.qr(l_mat, mode="r")))


@pytest.mark.parametrize("n,r", [(50, 4), (5000, 3), (20000, 4)])
def test_cgs2_factor_of_random_coefficients(n, r):
    a = np.random.default_rng(n + r).standard_normal(r + 1)
    diag, householder = _check_cgs2_factor(_l_rows(a, n))
    assert_allclose(diag, householder, rtol=1e-12, atol=0.0)


def test_cgs2_factor_of_triple_root_at_large_n():
    # κ(L_r) = 3.8e8 here, so κ·u ≈ 4e-8 stays well inside the two-pass
    # guarantee.  The smallest diagonal entry is itself conditioned like
    # κ·u: Householder's is 1.9e-9 from a long-double Gram–Schmidt
    # reference and this one 3.1e-10, so they are compared relative to the
    # largest entry.
    diag, householder = _check_cgs2_factor(_l_rows((1.0, -3.0, 3.0, -1.0), 20000))
    assert np.max(np.abs(diag - householder)) <= 1e-12 * np.max(householder)


# ---------------------------------------------------------------------------
# fhat_matrix
# ---------------------------------------------------------------------------


def test_fhat_zero_series():
    fhat = fhat_matrix(rotated_spectrum((1.0, -0.7), 40), np.zeros(40), tau=1)
    assert_allclose(fhat, np.zeros((40, 1)), atol=1e-14)


def test_fhat_constant_series_hand_case():
    # a = (1,-1), tau=1: K(tau) = {2}, M = -(second row of T_2(S))^T
    n = 30
    s = np.full(n, 2.5)
    fhat = fhat_matrix(rotated_spectrum((1.0, -1.0), n), s, tau=1)
    m = -embed(s, 2)[1, :].reshape(-1, 1)
    q = q_matrix_oracle((1.0, -1.0), n)
    assert np.linalg.norm(q.T @ fhat - m) <= 1e-10 * np.linalg.norm(m)


@pytest.mark.parametrize("seed", range(4))
def test_fhat_residual_random_rank_r(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 5))
    n = int(rng.integers(8 * r, 200))
    comps = [
        ModelComponent(
            poly=(1.0,),
            alpha=float(rng.uniform(-0.02, 0.0)),
            omega=float(rng.uniform(0.05, 0.45)),
            phi=float(rng.uniform(0, np.pi)),
        )
        for _ in range((r + 1) // 2)
    ]
    s = generate_model_signal(comps, n).values
    coeffs = rng.standard_normal(r + 1)
    while np.linalg.norm(coeffs) < 0.5:
        coeffs = rng.standard_normal(r + 1)
    tau = int(rng.integers(1, r + 2))
    fhat = fhat_matrix(rotated_spectrum(coeffs, n), s, tau=tau)
    rows = [j for j in range(r + 1) if j != tau - 1]
    m = -embed(s, r + 1)[rows, :].T
    q = q_matrix_oracle(coeffs, n)
    assert np.linalg.norm(q.T @ fhat - m) <= 1e-8 * max(1.0, np.linalg.norm(m))


def test_fhat_rejects_series_of_another_length():
    spectrum = rotated_spectrum((1.0, -0.5), 20)
    with pytest.raises(ValueError):
        fhat_matrix(spectrum, np.ones(21), tau=1)
    with pytest.raises(ValueError):
        fhat_matrix(spectrum, np.ones(19), tau=1)


def test_fhat_rejects_bad_shapes():
    with pytest.raises(ValueError):
        fhat_matrix(rotated_spectrum((1.0, -0.5, 0.2), 4), np.ones(4), tau=1)  # r >= N/2
    with pytest.raises(ValueError):
        fhat_matrix(rotated_spectrum((1.0, -0.5), 20), np.ones(20), tau=3)  # tau out of range


# ---------------------------------------------------------------------------
# grid tables: tabled constants must change no bit of any result
# ---------------------------------------------------------------------------


def _clear_grid_tables():
    hmgn.nullspace._unit_grid.cache_clear()
    hmgn.nullspace._fourier_columns.cache_clear()
    hmgn.nullspace._rotated_grid.cache_clear()
    hmgn.nullspace._untwist.cache_clear()


@pytest.mark.parametrize("n", [50, 997, 5000])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("rotated", [False, True])
def test_compensated_horner_matches_textbook_oracle(n, kind, rotated):
    rng = np.random.default_rng(n)
    if rotated:
        z = _rotated_grid(n, 0.37 * np.pi / n)
    else:
        z = hmgn.nullspace._unit_grid(n)
    for r in range(1, 7):
        coeffs = rng.standard_normal(r + 1)
        if kind == "complex":
            coeffs = coeffs + 1j * rng.standard_normal(r + 1)
        got = hmgn.nullspace._comp_horner(coeffs, z)
        assert got.tobytes() == comp_horner_oracle(coeffs, z).tobytes()
    # the cancellation regime the compensated mode exists for
    triple = (1.0, -3.0, 3.0, -1.0)
    got = hmgn.nullspace._comp_horner(triple, z)
    assert got.tobytes() == comp_horner_oracle(triple, z).tobytes()


@pytest.mark.parametrize("n", [50, 51, 200, 1000, 5000, 20000])
def test_rotation_batch_is_bitwise_the_candidate_loop(n):
    rng = np.random.default_rng(n + 2)
    base = hmgn.nullspace._unit_grid(n)
    half = np.pi / n
    cases = [np.asarray(a, dtype=float) for a in _UNIT_ROOTS.values()]
    cases += [rng.standard_normal(r + 1) for r in rng.integers(1, 6, size=20)]
    for coeffs in cases:
        alphas = rng.uniform(-half, half, size=coeffs.size)
        alphas[0] = half  # the half-spacing offset is always a candidate
        got = hmgn.nullspace._grid_min_abs(coeffs, base, alphas)
        assert got.tobytes() == grid_min_abs_loop_oracle(coeffs, base, alphas).tobytes()


def _fit_bytes(result):
    rows = [
        (row.tau, row.adot.tobytes(), row.small_step,
         np.array([row.objective, row.gamma, row.glrr_rel_residual]).tobytes())
        for row in result.trace.rows
    ]
    return (result.trace.termination, rows, result.signal.tobytes(),
            result.glrr.coeffs.tobytes(), result.tau, result.adot.tobytes())


@pytest.mark.parametrize("method", ["mgn", "s-mgn"])
@pytest.mark.parametrize("weight", ["identity", "ar0.5"])
def test_fit_identical_with_cold_and_warm_grid_tables(method, weight):
    n = 1000
    problem = build_known_minimum(n)
    w = Identity(n) if weight == "identity" else ar_inverse_covariance([0.5], 1.0, n)
    a0 = problem.a_star.coeffs + 1e-6

    def run():
        return _fit_bytes(fit(problem.x, w=w, config=SolverConfig(method=method), a0=a0))

    _clear_grid_tables()
    cold = run()
    assert hmgn.nullspace._unit_grid.cache_info().currsize >= 1
    assert run() == cold


def test_grid_tables_read_only_and_bounded():
    a = (1.0, -3.0, 3.0, -1.0)
    spectrum = rotated_spectrum(a, 200, "compensated")
    nullspace_basis(spectrum)
    for table in (
        hmgn.nullspace._unit_grid(200),
        hmgn.nullspace._fourier_columns(200, 3),
        spectrum.untwist,
    ):
        with pytest.raises(ValueError):
            table.flat[0] = 0.0
    for n in range(64, 64 + 2 * hmgn.nullspace._TABLE_SIZE):
        hmgn.nullspace._unit_grid(n)
    info = hmgn.nullspace._unit_grid.cache_info()
    assert info.currsize == info.maxsize == hmgn.nullspace._TABLE_SIZE


def test_untwist_conjugate_prefix_is_bitwise():
    # fhat_matrix twists by conj(T_N(−α₀))[:N−r] in place of T_{N−r}(α₀)
    rng = np.random.default_rng(7)
    twist = hmgn.nullspace._twist
    for _ in range(200):
        n = int(rng.integers(8, 20001))
        r = int(rng.integers(1, 7))
        alpha = float(rng.uniform(-np.pi / n, np.pi / n) * rng.choice([1.0, 1e3]))
        want = twist(n - r, alpha)
        assert np.conj(twist(n, -alpha)[: n - r]).tobytes() == want.tobytes()
        spectrum = RotatedSpectrum((1.0, -1.0), "plain", alpha, np.ones(n))
        assert spectrum.untwist.tobytes() == twist(n, -alpha).tobytes()


def test_grid_tables_shared_across_threads():
    a = np.array([1.0, -3.0, 3.0, -1.0]) + 1e-6
    sizes = (64, 97, 500, 5000)
    series = {n: np.cos(0.05 * np.arange(n)) + 1e-3 * np.arange(n) for n in sizes}

    def spectra():
        return {
            (n, mode): rotated_spectrum(a, n, mode)
            for n in sizes
            for mode in ("plain", "compensated")
        }

    def task(job, spectrum):
        kind, n, _ = job
        if kind == "basis":
            return nullspace_basis(spectrum).z.tobytes()
        return fhat_matrix(spectrum, series[n], 2).tobytes()

    jobs = [
        (kind, n, mode)
        for _ in range(3)
        for n in sizes
        for mode in ("plain", "compensated")
        for kind in ("basis", "fhat")
    ]
    random.Random(5).shuffle(jobs)

    _clear_grid_tables()
    shared = spectra()
    serial = [task(job, shared[job[1:]]) for job in jobs]

    _clear_grid_tables()
    shared = spectra()  # empty tables: the untwists are built in the pool
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(task, job, shared[job[1:]]) for job in jobs]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_rotation_tables_are_bitwise_the_direct_forms():
    # the rotated grid and the untwist T_N(−α₀) come from tables per (N, α);
    # each entry is the direct np.exp form byte for byte, so signed zeros
    # count too
    ns = hmgn.nullspace
    rng = np.random.default_rng(17)
    _clear_grid_tables()
    for n in (8, 50, 51, 1000, 5000):
        alphas = [0.0, -0.0, np.pi / n, -np.pi / n, np.float64(np.pi / n)]
        alphas += list(rng.uniform(-np.pi / n, np.pi / n, 3))
        for alpha in alphas * 2:  # the second pass reads the tables
            grid = _rotated_grid(n, alpha)
            assert ns._rotated_grid(n, float(alpha)).tobytes() == grid.tobytes()
            untwist = ns._twist(n, -float(alpha))
            assert ns._untwist(n, float(alpha)).tobytes() == untwist.tobytes()
            spectrum = RotatedSpectrum((1.0, -1.0), "plain", alpha, np.ones(n))
            assert spectrum.untwist.tobytes() == untwist.tobytes()
            coeffs = np.array([1.0, -2.0, 1.0]) + 1e-6
            assert np.array_equal(
                eval_poly_grid(coeffs, alpha, n), ns._plain_horner(coeffs, grid)
            )
            assert np.array_equal(
                eval_poly_grid(coeffs, alpha, n, "compensated"),
                ns._comp_horner(coeffs, grid),
            )
    assert ns._rotated_grid(50, np.pi / 50) is ns._rotated_grid(50, np.pi / 50)


def test_rotation_tables_read_only_and_bounded():
    ns = hmgn.nullspace
    _clear_grid_tables()
    for k in range(3 * ns._ROTATION_TABLE_SIZE):
        alpha = k * 1e-3
        for table in (ns._rotated_grid(100, alpha), ns._untwist(100, alpha)):
            with pytest.raises(ValueError):
                table.flat[0] = 0.0
    for cached in (ns._rotated_grid, ns._untwist):
        info = cached.cache_info()
        assert info.currsize == info.maxsize == ns._ROTATION_TABLE_SIZE


# ---------------------------------------------------------------------------
# earlier forms: the rotation search, the Gram–Schmidt factor and the F̂
# solve are bitwise what they were
# ---------------------------------------------------------------------------


def _assert_rotation_is_the_roots_form(a, n):
    """find_rotation(a, n) is bitwise the ``np.roots`` form, or both find
    every candidate on a root."""
    want = find_rotation_oracle(a, n)
    if want is None:
        with pytest.raises(SpectrumDegeneracyError):
            find_rotation(a, n)
        return
    got = find_rotation(a, n)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (a, n)


def _unit_circle_poly(rng, r):
    """Real coefficients of order r whose roots lie on or within 1e-3 of
    the unit circle, in conjugate pairs plus a real root for odd r."""
    roots = []
    for _ in range(r // 2):
        rho = 1.0 + rng.uniform(-1e-3, 1e-3) * rng.integers(0, 2)
        theta = rng.uniform(0.0, np.pi)
        roots += [rho * np.exp(1j * theta), rho * np.exp(-1j * theta)]
    if r % 2:
        roots.append(rng.choice([1.0, -1.0]))
    return np.atleast_1d(np.real(np.poly(roots)))[::-1].copy()


def test_rotation_is_bitwise_the_roots_form_on_random_polynomials():
    rng = np.random.default_rng(20181121)
    for k in range(600):
        r = int(rng.integers(1, 7))
        if k % 4 == 0:
            a = _unit_circle_poly(rng, r)
        elif k % 4 == 1:
            # roots at 0 as well, from zero low-order coefficients
            zeros = int(rng.integers(1, r + 1))
            a = np.concatenate([np.zeros(zeros), _unit_circle_poly(rng, r - zeros)])
        elif k % 4 == 2:
            a = rng.standard_normal(r + 1) * 10.0 ** rng.uniform(-3, 3, r + 1)
        else:
            a = rng.standard_normal(r + 1)
        n = int(rng.integers(r + 1, 700))
        _assert_rotation_is_the_roots_form(a, n)


def _fold(root_poly, t):
    out = np.array([1.0])
    for _ in range(t):
        out = np.convolve(out, root_poly)
    return out


_ADVERSARIAL_POLYS = {
    **{f"{t}-fold at 1": _fold((1.0, -1.0), t) for t in range(2, 6)},
    **{f"{t}-fold at -1": _fold((1.0, 1.0), t) for t in range(2, 6)},
    **{
        f"{t}-fold pair": _fold((1.0, -2.0 * np.cos(0.3), 1.0), t)
        for t in range(2, 4)
    },
    "root at 0": (0.0, 1.0, -1.0),
    "double root at 0": (0.0, 0.0, 1.0, -2.0, 1.0),
    "zero top": (1.0, -1.0, 0.0),
    "zero top two": (1.0, -2.0, 1.0, 0.0, 0.0),
    "roots at 1 and -1": (-1.0, 0.0, 1.0),
    "top below eps": (1.0, -2.0, 1.0, 1e-17),
    "top at eps": (1.0, -2.0, 1.0, 2.0**-52),
    "top above eps": (1.0, -2.0, 1.0, 2.0**-51),
    "subnormal top": (1.0, 2.2250738585e-313),
    "one nonzero": (0.0, 0.0, 3.0),
    "one nonzero inside": (0.0, 5.0, 0.0, 0.0),
    "constant": (2.0, 0.0),
}


@pytest.mark.parametrize("n", [9, 50, 1000, 5000])
@pytest.mark.parametrize("name", sorted(_ADVERSARIAL_POLYS))
def test_rotation_is_bitwise_the_roots_form_on_adversarial_polynomials(name, n):
    _assert_rotation_is_the_roots_form(_ADVERSARIAL_POLYS[name], n)


@pytest.mark.parametrize("r", range(1, 7))
@pytest.mark.parametrize("side", [0, 1])
def test_rotation_is_bitwise_the_roots_form_around_one_grid_block(r, side):
    # r distinct roots on the unit circle (conjugate pairs, and 1 for odd r)
    # forbid r rotations, so the search evaluates c = r + 1 candidates: c·N
    # fits one block or just does not
    angles = 0.2 + 2.0 * np.pi * np.arange(1, r // 2 + 1) / (r + 1)
    roots = np.concatenate([[1.0] * (r % 2), np.exp(1j * angles), np.exp(-1j * angles)])
    a = np.real(np.poly(roots))[::-1].copy()
    n = hmgn.nullspace._GRID_BLOCK // (r + 1) + side
    _assert_rotation_is_the_roots_form(a, n)
    base = hmgn.nullspace._unit_grid(n)
    alphas = np.linspace(-np.pi / n, np.pi / n, r + 1)
    got = hmgn.nullspace._grid_min_abs(a, base, alphas)
    assert got.tobytes() == grid_min_abs_loop_oracle(a, base, alphas).tobytes()


@pytest.mark.parametrize(
    "a", [(1.0, np.nan), (np.inf, 1.0), (1.0, -2.0, -np.inf), (np.nan, np.nan)]
)
def test_rotation_of_non_finite_coefficients_is_the_roots_form(a):
    # a NaN grid has no candidate off a root; an infinite one may pick a
    # rotation, and the spectrum then fails on its non-finite eigenvalues
    with np.errstate(invalid="ignore", over="ignore"):
        _assert_rotation_is_the_roots_form(a, 50)
        with pytest.raises(SpectrumDegeneracyError):
            rotated_spectrum(a, 50)
    if np.isnan(a).any():
        assert find_rotation_oracle(a, 50) is None


def _assert_fhat_is_its_oracle(spectrum, values, tau, rel=1e-11):
    """F̂ is bitwise the packed oracle for a real twist and the column
    oracle otherwise; a packed F̂ also agrees with the column oracle within
    ``rel`` relative.  Returns (F̂, the column oracle's F̂)."""
    got = fhat_matrix(spectrum, values, tau)
    args = (values, spectrum.untwist, spectrum.eigenvalues, spectrum.r, tau)
    columns = fhat_columns_oracle(*args)
    assert got.shape == columns.shape and got.flags.c_contiguous
    if spectrum.real_twist:
        assert got.tobytes() == fhat_packed_oracle(*args).tobytes()
        scale = max(np.linalg.norm(columns), np.finfo(float).tiny)
        assert np.linalg.norm(got - columns) <= rel * scale
    else:
        assert got.tobytes() == columns.tobytes()
    return got, columns


@pytest.mark.parametrize("n", [9, 50, 997, 5000])
@pytest.mark.parametrize("r", range(1, 5))
def test_fhat_is_bitwise_the_column_layout(r, n):
    if not r < n / 2:
        pytest.skip("order too large for the grid")
    rng = np.random.default_rng(10 * n + r)
    values = rng.standard_normal(n)
    for mode in ("plain", "compensated"):
        spectrum = rotated_spectrum(rng.standard_normal(r + 1), n, mode)
        for tau in range(1, r + 2):
            _assert_fhat_is_its_oracle(spectrum, values, tau)


def _poly_of_roots(roots):
    return np.real(np.poly(roots))[::-1].copy()


#: real coefficients whose closed-form rotation is neither 0 nor ±π/N: real
#: roots at 1 and −1 on an odd grid, or a root at 1 beside a unit-circle pair
_GENERAL_TWISTS = [
    ([1.0, -1.0], 9),
    ([1.0, -1.0], 997),
    ([1.0, np.exp(0.7j), np.exp(-0.7j)], 50),
    ([1.0, np.exp(1.3j), np.exp(-1.3j)], 5000),
    ([1.0, -1.0, np.exp(0.7j), np.exp(-0.7j)], 9),
    ([1.0, -1.0, np.exp(0.7j), np.exp(-0.7j)], 997),
]


@pytest.mark.parametrize("roots,n", _GENERAL_TWISTS)
def test_fhat_of_a_general_twist_is_bitwise_the_column_layout(roots, n):
    values = np.random.default_rng(n).standard_normal(n)
    for mode in ("plain", "compensated"):
        spectrum = rotated_spectrum(_poly_of_roots(roots), n, mode)
        assert not spectrum.real_twist
        for tau in range(1, spectrum.r + 2):
            _assert_fhat_is_its_oracle(spectrum, values, tau)


def test_fhat_of_a_gapped_series_reads_the_stored_values():
    n, r = 40, 2
    raw = np.cos(0.3 * np.arange(n))
    raw[[3, 17]] = np.nan
    spectrum = rotated_spectrum((1.0, -2.0 * np.cos(0.3), 1.0), n)
    assert spectrum.real_twist
    stored = hmgn.series.as_time_series(raw).values
    want = fhat_packed_oracle(stored, spectrum.untwist, spectrum.eigenvalues, r, 2)
    for s in (raw, list(raw), hmgn.series.TimeSeries(raw)):
        assert fhat_matrix(spectrum, s, 2).tobytes() == want.tobytes()
    _assert_fhat_is_its_oracle(spectrum, stored, 2)


def test_rotation_a_few_ulps_off_pi_over_n_is_a_real_twist():
    # the closed form returns −π/N + 2 ulp for (z − 1)⁵ at N = 2000
    n = 2000
    a = _poly_of_roots([1.0] * 5)
    spectrum = rotated_spectrum(a, n)
    half = 0.5 * (2.0 * np.pi / n)
    assert spectrum.alpha0 != -half and abs(spectrum.alpha0 + half) <= 4 * np.spacing(half)
    assert spectrum.real_twist
    compensated = rotated_spectrum(a, n, "compensated")
    assert compensated.real_twist
    values = np.random.default_rng(5).standard_normal(n)
    for tau in (1, 3, 6):
        # F̂ is about 5e12 here: the compensated solve is conditioned like
        # 1e-13 relative, and packing stays within that
        accurate, _ = _assert_fhat_is_its_oracle(compensated, values, tau)
        # the plain eigenvalues put both plain layouts 0.77 % off; packing
        # moves the plain F̂ by 8.5e-9 relative, far inside that error
        packed, columns = _assert_fhat_is_its_oracle(spectrum, values, tau, rel=1e-7)
        assert np.linalg.norm(packed - columns) <= 1e-5 * np.linalg.norm(columns - accurate)


@pytest.mark.parametrize(
    "alpha0,real",
    [
        (0.0, True),
        (np.pi / 50, True),
        (-np.pi / 50, True),
        (np.nextafter(-np.pi / 50, 0.0), True),
        (-np.pi / 50 + 4 * np.spacing(np.pi / 50), True),
        (-np.pi / 50 + 5 * np.spacing(np.pi / 50), False),
        (np.nextafter(0.0, 1.0), False),
        (0.5 * np.pi / 50, False),
    ],
)
def test_real_twist_is_e_to_the_i_n_alpha0_of_plus_or_minus_one(alpha0, real):
    a = np.array([1.0, -0.5, 0.2])
    eig = eval_poly_grid(a, alpha0, 50)
    assert RotatedSpectrum(a, "plain", alpha0, eig).real_twist is real


@pytest.mark.parametrize("n", [50, 997, 5000])
def test_cgs2_is_bitwise_its_earlier_form(n):
    rng = np.random.default_rng(n)
    cases = [_l_rows(rng.standard_normal(r + 1), n) for r in range(1, 6)]
    cases.append(_l_rows((1.0, -3.0, 3.0, -1.0), n))
    cases += [
        rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        for r in (1, 4, 6)
    ]
    for l_rows in cases:
        q, rhat = hmgn.nullspace._cgs2(l_rows)
        q_want, rhat_want = cgs2_oracle(l_rows)
        assert q.tobytes() == q_want.tobytes()
        assert rhat.tobytes() == rhat_want.tobytes()
