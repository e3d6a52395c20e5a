"""Tests for the series/GLRR core: embedding, residuals, normalization, models."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import null_space

from hmgn.series import (
    GlrrVector,
    ModelComponent,
    TimeSeries,
    _series_values,
    apply_q,
    apply_q_transpose,
    as_time_series,
    embed,
    generate_model_signal,
    glrr_residual,
    h_tau,
    normalize_glrr,
    read_series_csv,
    write_series_csv,
)

from _oracles import (
    glrr_residual_oracle,
    hankel_oracle,
    model_rank,
    q_matrix_oracle,
)

# Strategy for well-scaled GLRR coefficient vectors (nonzero by construction).
glrr_arrays = st.integers(min_value=1, max_value=10).flatmap(
    lambda r: st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=r + 1,
        max_size=r + 1,
    ).filter(lambda c: max(abs(v) for v in c) > 1e-3)
)


# ---------------------------------------------------------------------------
# TimeSeries
# ---------------------------------------------------------------------------


def test_timeseries_basic():
    ts = TimeSeries([1.0, 2.0, 3.0])
    assert ts.n == 3
    assert not ts.has_missing
    assert_array_equal(ts.mask, [True, True, True])


def test_timeseries_nan_marks_missing():
    ts = TimeSeries([1.0, np.nan, 3.0])
    assert ts.has_missing
    assert_array_equal(ts.mask, [True, False, True])
    # stored value at the gap is a placeholder, not NaN
    assert np.isfinite(ts.values).all()


def test_timeseries_explicit_mask():
    ts = TimeSeries([1.0, 2.0, 3.0], mask=[True, False, True])
    assert_array_equal(ts.mask, [True, False, True])
    assert ts.values[1] == 0.0


def test_timeseries_mask_length_mismatch():
    with pytest.raises(ValueError):
        TimeSeries([1.0, 2.0], mask=[True])


def test_timeseries_empty():
    with pytest.raises(ValueError):
        TimeSeries([])


@pytest.mark.parametrize("shape", [(4,), (4, 1), (1, 4), (1, 4, 1)])
def test_timeseries_of_one_axis_is_flattened(shape):
    values = np.array([1.0, np.nan, 3.0, 4.0]).reshape(shape)
    mask = np.array([True, True, False, True]).reshape(shape)
    ts = TimeSeries(values, mask=mask)
    assert ts.n == 4
    assert_array_equal(ts.values, [1.0, 0.0, 0.0, 4.0])
    assert_array_equal(ts.mask, [True, False, False, True])


def test_timeseries_rejects_a_nonzero_imaginary_part():
    values = [1.0, 2.0 + 1e-300j, 3.0]
    for make in (TimeSeries, as_time_series, _series_values):
        with pytest.raises(ValueError, match="series values must be real"):
            make(values)
    with pytest.raises(ValueError, match="must be real"):
        embed(np.array(values), 2)
    # an all-zero imaginary part is real, NaN still marks a gap
    ts = TimeSeries(np.array([1.0, np.nan, 3.0], dtype=complex))
    assert ts.values.dtype == np.float64
    assert_array_equal(ts.values, [1.0, 0.0, 3.0])
    assert_array_equal(ts.mask, [True, False, True])


@pytest.mark.parametrize("shape", [(3, 4), (2, 2), (2, 1, 2)])
def test_timeseries_of_several_axes_is_rejected(shape):
    with pytest.raises(ValueError, match="one-dimensional"):
        TimeSeries(np.ones(shape))
    with pytest.raises(ValueError, match="one-dimensional"):
        TimeSeries(np.ones(math.prod(shape)), mask=np.ones(shape, dtype=bool))


def test_timeseries_immutable():
    ts = TimeSeries([1.0, 2.0])
    with pytest.raises(ValueError):
        ts.values[0] = 7.0


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------


def test_embed_small():
    assert_array_equal(embed([1, 2, 3], 2), [[1, 2], [2, 3]])


def test_embed_rank2_series():
    # (1,1,1,1,1,2) embeds to a 3x4 Hankel matrix with last column (1,1,2)
    t = embed([1, 1, 1, 1, 1, 2], 3)
    assert t.shape == (3, 4)
    assert_array_equal(t[:, -1], [1, 1, 2])
    assert np.linalg.matrix_rank(t) == 2


def test_embed_window_one_is_row():
    x = [3.0, 1.0, 4.0, 1.0]
    assert_array_equal(embed(x, 1), [x])


def test_embed_window_out_of_range():
    with pytest.raises(ValueError):
        embed([1, 2, 3], 4)
    with pytest.raises(ValueError):
        embed([1, 2, 3], 0)


@given(
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=40),
    st.data(),
)
def test_embed_matches_oracle_and_is_hankel(x, data):
    L = data.draw(st.integers(min_value=1, max_value=len(x)))
    t = embed(x, L)
    assert_array_equal(t, hankel_oracle(x, L))
    # constant anti-diagonals
    if t.shape[0] > 1 and t.shape[1] > 1:
        assert_array_equal(t[1:, :-1], t[:-1, 1:])


# ---------------------------------------------------------------------------
# glrr_residual / Q(a)
# ---------------------------------------------------------------------------


def test_residual_rank2_example():
    assert_allclose(glrr_residual([1, 1, 1, 1, 1, 2], [1, -1, 0]), np.zeros(4), atol=0)


def test_residual_linear_series():
    assert_allclose(glrr_residual([1, 2, 3, 4], [1, -2, 1]), np.zeros(2), atol=0)


def test_residual_geometric_series():
    assert_allclose(glrr_residual([1, 2, 4, 8], [2, -1]), np.zeros(3), atol=0)


def test_residual_order_too_large():
    with pytest.raises(ValueError):
        glrr_residual([1, 2], [1, 0, -1])


@given(glrr_arrays, st.data())
@settings(max_examples=60)
def test_residual_consistent_with_q_matrix(a, data):
    r = len(a) - 1
    n = data.draw(st.integers(min_value=r + 1, max_value=30))
    x = data.draw(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    res = glrr_residual(x, a)
    q = q_matrix_oracle(a, n)
    assert_allclose(res, q.T @ np.asarray(x), rtol=1e-12, atol=1e-9)
    assert_allclose(res, glrr_residual_oracle(x, a), rtol=1e-12, atol=1e-9)
    assert_array_equal(apply_q(a, np.eye(n - r)), q)


def test_apply_q_adjoint_pair():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(4)
    x = rng.standard_normal(12)
    v = rng.standard_normal(9)
    q = q_matrix_oracle(a, 12)
    assert_allclose(apply_q_transpose(a, x), q.T @ x, rtol=1e-12)
    assert_allclose(apply_q(a, v), q @ v, rtol=1e-12)
    # matrix right-hand sides work columnwise
    xs = rng.standard_normal((12, 3))
    assert_allclose(apply_q_transpose(a, xs), q.T @ xs, rtol=1e-12)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", [(12, 1), (12, 3), (200, 5)])
def test_apply_q_blocks_are_column_major_and_bitwise_the_stacked(shape, order):
    # each column of a block result is the vector result for that column,
    # written into a Fortran-ordered block in place of np.stack's C order
    rng = np.random.default_rng(8)
    a = rng.standard_normal(4)
    x = np.asarray(rng.standard_normal(shape), order=order)
    for apply, kernel, mode in (
        (apply_q_transpose, np.correlate, "valid"),
        (apply_q, np.convolve, "full"),
    ):
        got = apply(a, x)
        columns = [kernel(x[:, j], a, mode=mode) for j in range(shape[1])]
        stacked = np.stack(columns, axis=1)
        assert got.flags.f_contiguous
        assert np.array_equal(got, stacked)
        for j in range(shape[1]):
            assert np.array_equal(got[:, j], apply(a, x[:, j]))


def test_residual_vanishes_on_nullspace():
    # For S in the kernel of Q^T(a), the residual is zero to rounding.
    rng = np.random.default_rng(42)
    for _ in range(20):
        r = int(rng.integers(1, 6))
        n = int(rng.integers(2 * r + 2, 40))
        a = rng.standard_normal(r + 1)
        basis = null_space(q_matrix_oracle(a, n).T)
        s = basis @ rng.standard_normal(basis.shape[1])
        res = glrr_residual(s, a)
        assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(a) * max(
            np.linalg.norm(s), 1e-30
        )


# ---------------------------------------------------------------------------
# normalize_glrr / h_tau
# ---------------------------------------------------------------------------


def test_normalize_examples():
    tau, adot = normalize_glrr([2, -4, 2])
    assert tau == 2
    assert_allclose(adot, [0.5, 0.5])

    tau, adot = normalize_glrr([1, -3, 3, -1])
    assert tau == 2
    assert_allclose(adot, [1 / 3, 1, -1 / 3])

    tau, adot = normalize_glrr([0, -1])
    assert tau == 2
    assert_allclose(adot, [0.0])


def test_normalize_tie_breaks_to_smallest_index():
    tau, adot = normalize_glrr([1.0, -1.0, 0.5])
    assert tau == 1
    assert_allclose(h_tau(adot, tau), [-1.0, 1.0, -0.5])


def test_normalize_rejects_zero():
    with pytest.raises(ValueError):
        normalize_glrr([0.0, 0.0, 0.0])


def test_h_tau_examples():
    assert_array_equal(h_tau([2, 3], 2), [2, -1, 3])
    assert_array_equal(h_tau([], 1), [-1])


def test_h_tau_out_of_range():
    with pytest.raises(ValueError):
        h_tau([1.0], 3)
    with pytest.raises(ValueError):
        h_tau([1.0], 0)


@given(glrr_arrays, st.data())
@settings(max_examples=80)
def test_pivot_forms_are_bitwise_insert_and_delete(a, data):
    a = np.asarray(a, dtype=float)
    tau, adot = normalize_glrr(a)
    pivot = tau - 1
    want = np.delete((-1.0 / a[pivot]) * a, pivot)
    assert adot.tobytes() == want.tobytes()
    adot = a[1:]
    tau = data.draw(st.integers(min_value=1, max_value=a.size))
    assert h_tau(adot, tau).tobytes() == np.insert(adot, tau - 1, -1.0).tobytes()


@given(glrr_arrays)
@settings(max_examples=80)
def test_normalize_round_trip_collinear(a):
    tau, adot = normalize_glrr(a)
    full = h_tau(adot, tau)
    a = np.asarray(a, dtype=float)
    # pivot entry is -1 and dominates
    assert full[tau - 1] == -1.0
    assert np.max(np.abs(full)) == 1.0
    assert np.all(np.abs(full) <= 1.0)
    # collinear with the input: full a^T must be symmetric
    assert_allclose(np.outer(full, a), np.outer(a, full), rtol=1e-12, atol=1e-9)


def test_glrr_vector_validation():
    with pytest.raises(ValueError):
        GlrrVector(np.array([1.0]))
    with pytest.raises(ValueError):
        GlrrVector(np.zeros(3))
    v = GlrrVector(np.array([1.0, -2.0, 1.0]))
    assert v.order == 2


@pytest.mark.parametrize("shape", [(3,), (3, 1), (1, 3), (1, 3, 1)])
def test_glrr_coefficients_of_one_axis_are_flattened(shape):
    coeffs = np.array([1.0, -2.0, 1.0]).reshape(shape)
    assert_array_equal(GlrrVector(coeffs).coeffs, [1.0, -2.0, 1.0])
    assert coeffs.flags.writeable  # the vector froze a view, not the input
    assert_array_equal(glrr_residual(np.arange(5.0), coeffs), [0.0, 0.0, 0.0])


def test_glrr_coefficients_reject_a_nonzero_imaginary_part():
    coeffs = [1.0, -1.9 + 0.5j, 1.0]
    for use in (GlrrVector, normalize_glrr, lambda a: glrr_residual(np.ones(5), a)):
        with pytest.raises(ValueError, match="GLRR coefficients must be real"):
            use(coeffs)
    # an all-zero imaginary part is real
    v = GlrrVector(np.array([1.0, -1.9, 1.0], dtype=complex))
    assert v.coeffs.dtype == np.float64
    assert_array_equal(v.coeffs, [1.0, -1.9, 1.0])


def test_apply_q_transpose_rejects_a_nonzero_imaginary_part():
    # a complex list once raised a bare TypeError, a complex array lost its
    # imaginary part with only a ComplexWarning
    x = np.arange(6.0)
    for b, v in (
        ([1.0, -1.0 + 3j], x),
        (np.array([1.0, -1.0 + 3j]), x),
        ([1.0, -1.0], x + 1e-300j),
        ([1.0, -1.0], np.ones((6, 2)) + 2j),
    ):
        with pytest.raises(ValueError, match="must be real"):
            apply_q_transpose(b, v)
    # an all-zero imaginary part is real
    got = apply_q_transpose(np.array([1.0, -1.0], dtype=complex), x.astype(complex))
    assert_array_equal(got, apply_q_transpose([1.0, -1.0], x))


def test_apply_q_rejects_a_nonzero_imaginary_part():
    v = np.arange(5.0)
    for b, w in (
        ([1.0, -1.0 + 3j], v),
        ([1.0, -1.0], v + 1e-300j),
        ([1.0, -1.0], np.ones((5, 2)) + 2j),
    ):
        with pytest.raises(ValueError, match="must be real"):
            apply_q(b, w)
    got = apply_q(np.array([1.0, -1.0], dtype=complex), v.astype(complex))
    assert_array_equal(got, apply_q([1.0, -1.0], v))


def test_h_tau_rejects_a_nonzero_imaginary_part():
    for adot in ([0.5 + 1j, 0.25], np.array([0.5, 0.25 + 1e-300j])):
        with pytest.raises(ValueError, match="must be real"):
            h_tau(adot, 2)
    got = h_tau(np.array([0.5, 0.25], dtype=complex), 2)
    assert got.dtype == np.float64
    assert_array_equal(got, [0.5, -1.0, 0.25])


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 1, 2)])
def test_glrr_coefficients_of_several_axes_are_rejected(shape):
    coeffs = np.arange(1.0, 1.0 + math.prod(shape)).reshape(shape)
    with pytest.raises(ValueError, match="one-dimensional"):
        GlrrVector(coeffs)
    with pytest.raises(ValueError, match="one-dimensional"):
        normalize_glrr(coeffs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_glrr_coefficients_must_be_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        GlrrVector(np.array([1.0, bad, 1.0]))
    # the array-like path of every GLRR operation
    with pytest.raises(ValueError, match="finite"):
        normalize_glrr([1.0, bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        glrr_residual(np.ones(10), [1.0, bad, 1.0])


# ---------------------------------------------------------------------------
# model signals
# ---------------------------------------------------------------------------


def test_linear_signal_has_rank_two():
    # s_n = (b + a n) * sin(phi) with omega = 0: an affine-in-n signal
    comps = [ModelComponent(poly=(1.0, 0.5), alpha=0.0, omega=0.0, phi=math.pi / 2)]
    assert model_rank(comps) == 2
    s = generate_model_signal(comps, 20)
    n = np.arange(1, 21)
    assert_allclose(s.values, 1.0 + 0.5 * n, rtol=1e-12)
    assert np.linalg.matrix_rank(embed(s, 3)) == 2


def test_sine_signal_has_rank_two():
    comps = [ModelComponent(poly=(1.0,), alpha=0.0, omega=0.1, phi=0.3)]
    assert model_rank(comps) == 2
    s = generate_model_signal(comps, 30)
    t = embed(s, 4)
    sv = np.linalg.svd(t, compute_uv=False)
    assert np.sum(sv > 1e-8 * sv[0]) == 2


def test_two_component_rank_four_signal():
    # 0.9^i cos(pi i / 5) + 0.2 * 1.05^i cos(pi i / 12 + pi/4), a rank-4 signal
    comps = [
        ModelComponent(poly=(1.0,), alpha=math.log(0.9), omega=0.1, phi=math.pi / 2),
        ModelComponent(
            poly=(0.2,), alpha=math.log(1.05), omega=1.0 / 24.0, phi=3 * math.pi / 4
        ),
    ]
    assert model_rank(comps) == 4
    s = generate_model_signal(comps, 50)
    i = np.arange(1, 51)
    direct = 0.9**i * np.cos(np.pi * i / 5) + 0.2 * 1.05**i * np.cos(
        np.pi * i / 12 + np.pi / 4
    )
    assert_allclose(s.values, direct, rtol=1e-10)
    sv = np.linalg.svd(embed(s, 6), compute_uv=False)
    assert np.sum(sv > 1e-8 * sv[0]) == 4


def test_model_rank_counts_polynomial_degrees():
    comps = [
        ModelComponent(poly=(1.0, 2.0, 3.0), alpha=-0.1, omega=0.2, phi=0.0),  # 3*2
        ModelComponent(poly=(1.0,), alpha=0.0, omega=0.5, phi=1.0),  # 1*1
    ]
    assert model_rank(comps) == 7


def test_duplicate_alpha_omega_rejected():
    comps = [
        ModelComponent(poly=(1.0,), alpha=0.0, omega=0.1, phi=0.0),
        ModelComponent(poly=(2.0,), alpha=0.0, omega=0.1, phi=1.0),
    ]
    with pytest.raises(ValueError):
        generate_model_signal(comps, 10)


def test_degenerate_boundary_phase_rejected():
    with pytest.raises(ValueError):
        generate_model_signal(
            [ModelComponent(poly=(1.0,), alpha=0.0, omega=0.0, phi=0.0)], 10
        )
    with pytest.raises(ValueError):
        generate_model_signal(
            [ModelComponent(poly=(1.0,), alpha=0.1, omega=0.5, phi=0.0)], 10
        )


def test_component_validation():
    with pytest.raises(ValueError):
        ModelComponent(poly=(), alpha=0.0, omega=0.1)
    with pytest.raises(ValueError):
        ModelComponent(poly=(1.0,), alpha=0.0, omega=0.7)


@given(
    st.integers(min_value=0, max_value=2),
    st.floats(min_value=-0.05, max_value=0.05, allow_nan=False),
    st.floats(min_value=0.05, max_value=0.45, allow_nan=False),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)
@settings(max_examples=25, deadline=None)
def test_generated_signal_has_declared_rank(deg, alpha, omega, phi):
    poly = tuple([0.0] * deg + [1.0])
    comps = [ModelComponent(poly=poly, alpha=alpha, omega=omega, phi=phi)]
    rho = model_rank(comps)
    n = 2 * rho + 7
    s = generate_model_signal(comps, n)
    sv = np.linalg.svd(embed(s, rho + 1), compute_uv=False)
    assert np.sum(sv > 1e-8 * sv[0]) == rho


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    ts = TimeSeries([1.5, np.nan, -2.25, 0.0, np.nan])
    path = tmp_path / "series.csv"
    write_series_csv(path, ts)
    back = read_series_csv(path)
    assert_array_equal(back.mask, ts.mask)
    assert_array_equal(back.values, ts.values)


def test_csv_headerless(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("1.0\n2.0\nnan\n4.0\n")
    ts = read_series_csv(path)
    assert ts.n == 4
    assert_array_equal(ts.mask, [True, True, False, True])


def test_csv_with_header_and_gaps(tmp_path):
    path = tmp_path / "gapped.csv"
    path.write_text("value\n3.25\n\n1.0\n,ignored_extra\n")
    ts = read_series_csv(path)
    # blank physical lines are skipped; empty first cells are missing entries
    assert ts.n == 3
    assert_array_equal(ts.mask, [True, True, False])
    assert_allclose(ts.values[:2], [3.25, 1.0])


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        read_series_csv(path)


# ---------------------------------------------------------------------------
# _series_values: the stored values of as_time_series, bit for bit
# ---------------------------------------------------------------------------

_finite = np.array([0.5, -0.0, 3.0, -1e300, 5e-324])
_SERIES_INPUTS = {
    "finite": _finite,
    "strided": np.arange(10.0)[::3],
    "nan": np.array([1.0, np.nan, 2.0]),
    "inf": np.array([np.inf, 1.0, -np.inf]),
    "list": [1.0, 2.0, -0.0],
    "list with nan": [1.0, float("nan")],
    "ints": np.arange(4),
    "float32": np.array([0.1, 0.2], dtype=np.float32),
    "big-endian": np.array([0.25, -1.5], dtype=">f8"),
    "column": np.ones((3, 1)),
    "scalar": np.array(2.5),
    "series": TimeSeries(np.array([1.0, np.nan, 4.0])),
}


@pytest.mark.parametrize("name", sorted(_SERIES_INPUTS))
def test_series_values_are_the_time_series_values(name):
    x = _SERIES_INPUTS[name]
    got, want = _series_values(x), as_time_series(x).values
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # a TimeSeries is never built for a finite float64 vector
    assert (got is x) == (name in ("finite", "strided"))


@pytest.mark.parametrize("bad", [np.array([]), [], ["a", "b"], np.zeros((0, 2))])
def test_series_values_raise_as_time_series_does(bad):
    with pytest.raises(ValueError) as want:
        as_time_series(bad)
    with pytest.raises(ValueError) as got:
        _series_values(bad)
    assert str(got.value) == str(want.value)
