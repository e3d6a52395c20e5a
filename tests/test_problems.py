"""Tests for the benchmark problem constructions."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import subspace_angles

from hmgn.problems import (
    GAPPED_PRESET_GAPS,
    apply_gaps,
    build_known_minimum,
    gapped_preset,
    two_tone_signal,
    legendre_values,
    parse_gap_ranges,
)
from hmgn.series import glrr_residual

from _oracles import gram_schmidt_cols, q_matrix_oracle


# ---------------------------------------------------------------------------
# known-minimum family
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [13, 40, 250])
def test_noise_orthogonal_to_tangent_basis(n):
    p = build_known_minimum(n)
    noise = p.x.values - p.y_star.values
    assert np.linalg.norm(p.tangent_basis.T @ noise) <= 1e-10


@pytest.mark.parametrize("n", [13, 40, 250])
def test_solution_satisfies_recurrence(n):
    p = build_known_minimum(n)
    assert abs(np.linalg.norm(p.y_star.values) - 1.0) <= 1e-12
    assert np.linalg.norm(glrr_residual(p.y_star, p.a_star)) <= 1e-10
    assert tuple(p.a_star.coeffs) == (1.0, -3.0, 3.0, -1.0)


def test_tangent_basis_spans_low_degree_polynomials():
    n = 120
    p = build_known_minimum(n)
    grid = np.linspace(-1.0, 1.0, n)
    monomials = np.column_stack([grid**k for k in range(6)])
    oracle = gram_schmidt_cols(monomials)
    assert np.max(subspace_angles(p.tangent_basis, oracle)) <= 1e-8


def test_tangent_space_annihilated_by_squared_recurrence():
    # Z((a*)^2) contains the degree-<=5 polynomials: (a*)^2 is the 6th
    # finite difference
    n = 60
    p = build_known_minimum(n)
    a2 = np.array([1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0])
    q = q_matrix_oracle(a2, n)
    assert np.linalg.norm(q.T @ p.tangent_basis) <= 1e-8


def test_legendre_values_recurrence_degree4():
    grid = np.linspace(-1, 1, 7)
    vals = legendre_values(grid, 4)
    # P_4 = (35x^4 - 30x^2 + 3)/8
    assert_allclose(
        vals[:, 4], (35 * grid**4 - 30 * grid**2 + 3) / 8, atol=1e-13
    )


def test_legendre_values_reject_a_nonzero_imaginary_part():
    grid = np.linspace(-1, 1, 7)
    with pytest.raises(ValueError, match="must be real"):
        legendre_values(grid + 1j, 2)
    assert np.array_equal(legendre_values(grid.astype(complex), 2), legendre_values(grid, 2))


def test_known_minimum_rejects_short_series():
    with pytest.raises(ValueError):
        build_known_minimum(12)


# ---------------------------------------------------------------------------
# gapped preset
# ---------------------------------------------------------------------------


def test_preset_signal_formula():
    i = np.arange(1, 51)
    want = 0.9**i * np.cos(np.pi * i / 5) + 0.2 * 1.05**i * np.cos(
        np.pi * i / 12 + np.pi / 4
    )
    assert_allclose(two_tone_signal(), want, rtol=1e-10)


def test_preset_gap_placement():
    observed, signal = gapped_preset(seed=0)
    assert observed.n == 50
    assert not observed.mask[9:19].any()
    assert not observed.mask[34:39].any()
    assert observed.mask.sum() == 50 - 15
    assert signal.shape == (50,)


def test_preset_noise_is_seeded_and_scaled():
    obs1, signal = gapped_preset(seed=5)
    obs2, _ = gapped_preset(seed=5)
    assert_allclose(obs1.values, obs2.values, rtol=0, atol=0)
    obs3, _ = gapped_preset(seed=6)
    assert not np.allclose(obs1.values, obs3.values)
    # reconstruct the documented noise recipe
    rng = np.random.default_rng(5)
    noise = rng.standard_normal(50)
    want = signal + 0.2 * (noise / np.linalg.norm(noise)) * np.linalg.norm(signal)
    want = apply_gaps(want, GAPPED_PRESET_GAPS)
    observed = np.where(obs1.mask, obs1.values, np.nan)
    assert_allclose(observed[obs1.mask], want[obs1.mask], rtol=1e-12)


def test_gap_parsing():
    assert parse_gap_ranges("10-19,35-39") == ((10, 19), (35, 39))
    assert parse_gap_ranges("7") == ((7, 7),)
    with pytest.raises(ValueError):
        parse_gap_ranges("")
    with pytest.raises(ValueError):
        parse_gap_ranges("9-3")
    with pytest.raises(ValueError):
        parse_gap_ranges("0-4")


def test_apply_gaps_rejects_a_nonzero_imaginary_part():
    with pytest.raises(ValueError, match="must be real"):
        apply_gaps(np.ones(6) + 1e-300j, [(2, 3)])
    # an all-zero imaginary part is real
    out = apply_gaps(np.ones(6, dtype=complex), [(2, 3)])
    assert out.dtype == np.float64
    assert np.array_equal(out, [1.0, np.nan, np.nan, 1.0, 1.0, 1.0], equal_nan=True)


def test_apply_gaps_bounds():
    with pytest.raises(ValueError):
        apply_gaps(np.ones(20), [(18, 25)])
    out = apply_gaps(np.ones(20), [(1, 3)])
    assert np.isnan(out[:3]).all() and np.isfinite(out[3:]).all()
