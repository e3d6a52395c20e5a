"""Tests for the solver loop: steps, line search, termination, full fits."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hmgn import projection, solvers, weights
from hmgn.errors import WeightVariantError
from hmgn.nullspace import nullspace_basis, rotated_spectrum
from hmgn.problems import build_known_minimum, gapped_preset
from hmgn.projection import (
    GammaFactor,
    project_gamma,
    weighted_pinv_apply,
)
from hmgn.series import (
    GlrrVector,
    apply_q_transpose,
    glrr_residual,
    h_tau,
    normalize_glrr,
)
from hmgn.solvers import (
    METHODS,
    SolverConfig,
    fit,
    initial_glrr,
    line_search,
    mgn_step,
    vpgn_step,
)
from hmgn.weights import (
    Identity,
    ar_inverse_covariance,
    banded_winv_from_winv_bands,
    mask_missing,
    weighted_norm,
    whiten,
)

from _oracles import (
    basis_projection,
    boundary_rows,
    fd_jacobian,
    gram_oracle,
    s_tau_oracle,
    vp_jacobian_two_solve_oracle,
)


def rank2_signal(n, damp=0.98, omega=0.12, phi=0.3):
    grid = np.arange(1, n + 1, dtype=float)
    return damp**grid * np.sin(2 * np.pi * omega * grid + phi)


def _problem(x, w, method="mgn"):
    """The per-fit problem ``fit`` builds for x under W with ``method``."""
    return solvers._Problem.of(x, w, SolverConfig(method=method))


# ---------------------------------------------------------------------------
# initial_glrr
# ---------------------------------------------------------------------------


def test_initial_glrr_annihilates_exact_series():
    x = rank2_signal(60)
    a = initial_glrr(x, 2)
    assert np.linalg.norm(glrr_residual(x, a)) <= 1e-8 * np.linalg.norm(x)


def test_initial_glrr_constant_series():
    a = initial_glrr(np.full(30, 4.0), 1)
    ratio = a.coeffs / a.coeffs[0]
    assert_allclose(ratio, [1.0, -1.0], atol=1e-10)


def test_initial_glrr_gapped_smoke():
    observed, _ = gapped_preset(seed=3)
    a = initial_glrr(observed, 4)
    assert a.coeffs.shape == (5,)
    assert np.all(np.isfinite(a.coeffs))
    assert np.linalg.norm(a.coeffs) > 0


def test_initial_glrr_needs_enough_points():
    with pytest.raises(ValueError):
        initial_glrr(np.ones(5), 2)


# ---------------------------------------------------------------------------
# mgn_step
# ---------------------------------------------------------------------------


def test_mgn_step_zero_at_member():
    rng = np.random.default_rng(0)
    a = np.array([0.5, -1.0, 0.3])
    tau = 2
    adot = np.delete(a, tau - 1)
    n = 50
    z = nullspace_basis(rotated_spectrum(a, n)).z
    x = z @ rng.standard_normal(2)
    delta, at = mgn_step(_problem(x, Identity(n)), adot, tau)
    assert np.linalg.norm(at.signal - x) <= 1e-9 * np.linalg.norm(x)
    assert np.linalg.norm(delta) <= 1e-9 * np.linalg.norm(adot)


@pytest.mark.parametrize("seed", range(6))
def test_mgn_step_matches_full_jacobian_direction(seed):
    # the step must coincide with the coefficient block of the Gauss-Newton
    # direction for the explicit 2r-parameter local parameterization
    rng = np.random.default_rng(300 + seed)
    r = int(rng.integers(1, 3))
    n = int(rng.integers(5 * (r + 1), 60))
    roots = rng.uniform(0.45, 0.9, r) * np.exp(1j * rng.uniform(0, np.pi, r))
    a = np.real(np.poly(roots))[::-1]
    tau, adot = normalize_glrr(a)
    a_full = h_tau(adot, tau)
    w = Identity(n)

    z = nullspace_basis(rotated_spectrum(a_full, n)).z
    x = z @ rng.standard_normal(r) + 0.05 * rng.standard_normal(n)

    delta, at = mgn_step(_problem(x, w), adot, tau)
    s_k = at.signal

    sdot = s_k[boundary_rows(tau, r, n)]
    z0 = z.copy()

    def param(p):
        return s_tau_oracle(p[:r], p[r:], tau, n, z0)

    point = np.concatenate([sdot, adot])
    jac = fd_jacobian(param, point, h=1e-7)
    full = np.linalg.lstsq(jac, x - s_k, rcond=None)[0]
    want = full[r:]
    assert np.linalg.norm(delta - want) <= 1e-4 * max(
        np.linalg.norm(want), 1e-12
    )


def test_mgn_step_stationary_at_known_minimum():
    problem = build_known_minimum(50)
    tau, adot = normalize_glrr(problem.a_star.coeffs)
    delta, _ = mgn_step(_problem(problem.x, Identity(50), "s-mgn"), adot, tau)
    assert np.linalg.norm(delta) <= 1e-6


# ---------------------------------------------------------------------------
# vpgn_step
# ---------------------------------------------------------------------------


def test_vpgn_step_zero_at_fixed_point():
    rng = np.random.default_rng(1)
    a = np.array([0.56, -1.5, 1.0])
    tau, adot = normalize_glrr(a)
    n = 40
    z = nullspace_basis(rotated_spectrum(a, n)).z
    x = z @ rng.standard_normal(2)
    delta, at = vpgn_step(_problem(x, Identity(n), "vpgn"), adot, tau)
    assert np.linalg.norm(at.signal - x) <= 1e-9 * np.linalg.norm(x)
    assert np.linalg.norm(delta) <= 1e-8 * np.linalg.norm(adot)


def test_vpgn_step_descends_on_noisy_instances():
    successes = 0
    trials = 100
    for seed in range(trials):
        rng = np.random.default_rng(1000 + seed)
        n = 60
        x = rank2_signal(
            n,
            damp=rng.uniform(0.95, 1.0),
            omega=rng.uniform(0.05, 0.3),
            phi=rng.uniform(0, np.pi),
        ) + 0.05 * rng.standard_normal(n)
        a0 = initial_glrr(x, 2)
        tau, adot = normalize_glrr(a0.coeffs)
        w = Identity(n)
        delta, at = vpgn_step(_problem(x, w, "vpgn"), adot, tau)
        before = weighted_norm(w, x - at.signal)
        moved = GammaFactor(h_tau(adot + 1e-3 * delta, tau), w)
        trial, _ = project_gamma(moved, x)
        after = weighted_norm(w, x - trial)
        if after < before:
            successes += 1
    assert successes >= 95


def _banded_step_case(r, weight, n=60):
    """(ȧ, τ, x, W, dense W⁻¹) at a stable order-r GLRR with a noisy x."""
    rng = np.random.default_rng(400 + 10 * r + (weight == "banded_winv"))
    roots = rng.uniform(0.2, 0.8, r) * np.exp(1j * rng.uniform(0, np.pi, r))
    a_raw = np.real(np.poly(roots))[::-1]
    tau, adot = normalize_glrr(a_raw)
    if weight == "identity":
        w, bands = Identity(n), (np.ones(n),)
    else:
        diag = 1.0 + rng.uniform(0.0, 1.0, n)
        w = banded_winv_from_winv_bands((diag, rng.uniform(-0.4, 0.4, n - 1)))
        bands = w.chat_bands
    return adot, tau, rng.standard_normal(n), w, gram_oracle((1.0,), bands, n)


@pytest.mark.parametrize("weight", ["identity", "banded_winv"])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_vpgn_step_matches_two_solve_direction(r, weight):
    # Δ from the whitened design ĈK against the weighted pseudoinverse of
    # the earlier two-solve Jacobian W⁻¹K
    adot, tau, x, w, winv = _banded_step_case(r, weight)
    factor = GammaFactor(h_tau(adot, tau), w)
    delta, at = vpgn_step(_problem(x, w, "vpgn"), adot, tau)
    s_k = at.signal
    assert s_k.tobytes() == project_gamma(factor, x)[0].tobytes()
    jac = vp_jacobian_two_solve_oracle(factor, tau, x, winv)
    want = weighted_pinv_apply(jac, w, x - s_k).coefficients
    assert np.linalg.norm(delta - want) <= 1e-6 * np.linalg.norm(want)


@pytest.mark.parametrize("r", [2, 4])
def test_vpgn_step_one_batched_solve_and_vector_whitening(r, monkeypatch):
    # a step at a handed-over Gram projection takes g and the whitened
    # residual from it: it solves Γ⁻¹ for one r-column batch and whitens
    # nothing
    adot, tau, x, w, _ = _banded_step_case(r, "banded_winv", n=200)
    problem = _problem(x, w, "vpgn")
    at = solvers._project(problem, h_tau(adot, tau))
    columns = []
    original_solve = GammaFactor.solve

    def counted_solve(self, v):
        columns.append(1 if np.ndim(v) == 1 else np.shape(v)[1])
        return original_solve(self, v)

    whitened = []
    original_whiten = weights.whiten

    def counted_whiten(w_, v):
        whitened.append(np.ndim(v))
        return original_whiten(w_, v)

    monkeypatch.setattr(GammaFactor, "solve", counted_solve)
    for module in (weights, projection, solvers):
        if getattr(module, "whiten", None) is original_whiten:
            monkeypatch.setattr(module, "whiten", counted_whiten)
    vpgn_step(problem, adot, tau, at)
    assert columns == [r]
    assert whitened == []


def _basis_iteration_case(weight):
    """(ȧ, τ, x, W) at a data-driven start whose first full step is taken."""
    if weight == "masked":
        x, _ = gapped_preset(0)
        w = mask_missing(Identity(x.n), x.mask)
        r = 4
    else:
        rng = np.random.default_rng(41)
        x = rank2_signal(80) + 0.05 * rng.standard_normal(80)
        if weight == "identity":
            w = Identity(80)
        else:
            w = ar_inverse_covariance([0.5], 1.0, 80)
        r = 2
    tau, adot = normalize_glrr(initial_glrr(x, r).coeffs)
    return adot, tau, x, w


@pytest.mark.parametrize("weight", ["identity", "banded_w", "masked"])
def test_basis_iteration_factors_two_designs_and_whitens_three_blocks(
    weight, monkeypatch
):
    # an mgn step at a handed-over projection plus one accepted trial: the
    # step factors the deflated F̂ and deflates with the kept factor of the
    # whitened basis, the trial factors its own basis
    adot, tau, x, w = _basis_iteration_case(weight)
    problem = _problem(x, w)
    at = solvers._project(problem, h_tau(adot, tau))
    factorizations = []
    original_geqp3 = projection._GEQP3

    def counted_geqp3(*args, lwork=None, **kwargs):
        if lwork != -1:  # not a workspace query
            factorizations.append(1)
        return original_geqp3(*args, lwork=lwork, **kwargs)

    blocks = []
    original_whiten = weights.whiten

    def counted_whiten(w_, v):
        if np.ndim(v) == 2:
            blocks.append(np.shape(v))
        return original_whiten(w_, v)

    monkeypatch.setattr(projection, "_GEQP3", counted_geqp3)
    for module in (weights, projection, solvers):
        if getattr(module, "whiten", None) is original_whiten:
            monkeypatch.setattr(module, "whiten", counted_whiten)
    delta, at = mgn_step(problem, adot, tau, at)
    gamma, _, small, trial, trials = line_search(
        problem, adot, delta, tau, at.signal, at.objective, None
    )
    assert (gamma, small, trials) == (1.0, False, 1) and trial is not None
    assert len(factorizations) == 2
    assert len(blocks) == 3


@pytest.mark.parametrize("weight", ["identity", "banded_winv"])
def test_vpgn_step_working_set_is_pinned(weight):
    # the tracemalloc peak of one Gram-route step at a handed-over
    # projection, as ``fit`` takes it, in blocks of N×r doubles.  The step
    # needs three blocks at once (K, the right-hand sides, their Γ⁻¹ solve)
    # besides vectors; the whole-block expressions of the columns hold 6.25
    n, r = 4000, 4
    rng = np.random.default_rng(404)
    tones = [
        np.array([1.0, -2.0 * math.cos(2.0 * math.pi * om), 1.0])
        for om in (0.013, 0.071)
    ]
    tau, adot = normalize_glrr(np.convolve(*tones) + 1e-4 * rng.standard_normal(r + 1))
    t = np.arange(n)
    x = np.cos(0.08 * t) + np.cos(0.45 * t + 1.0) + 0.3 * rng.standard_normal(n)
    if weight == "identity":
        w = Identity(n)
    else:
        w = banded_winv_from_winv_bands(
            (1.0 + rng.uniform(0.0, 1.0, n), rng.uniform(-0.4, 0.4, n - 1))
        )
    problem = _problem(x, w, "vpgn")
    at = solvers._project(problem, h_tau(adot, tau))
    vpgn_step(problem, adot, tau, at)  # caches filled outside the count
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        vpgn_step(problem, adot, tau, at)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * n * r * 8, peak / (n * r * 8)


def test_vpgn_step_rejects_masked_weights():
    w = mask_missing(Identity(30), np.ones(30, dtype=bool))
    with pytest.raises(WeightVariantError):
        vpgn_step(_problem(np.ones(30), w, "vpgn"), np.array([0.5]), 2)


# ---------------------------------------------------------------------------
# line_search
# ---------------------------------------------------------------------------


def _base_point(adot, tau, x, w):
    """(projected signal, objective) at ȧ, as ``fit`` hands them over."""
    s = basis_projection(h_tau(adot, tau), w, x).projected
    return s, weighted_norm(w, x - s)


def test_line_search_zero_direction_first_iteration():
    x = rank2_signal(30)
    w = Identity(30)
    tau, adot = normalize_glrr(initial_glrr(x, 2).coeffs)
    gamma, nxt, small, _, trials = line_search(
        _problem(x, w),
        adot,
        np.zeros(2),
        tau,
        *_base_point(adot, tau, x, w),
        None,
    )
    assert gamma == 1.0
    assert small
    assert trials == 1
    assert_allclose(nxt, adot)


def test_line_search_accepts_improving_full_step():
    rng = np.random.default_rng(2)
    n = 60
    x = rank2_signal(n) + 0.02 * rng.standard_normal(n)
    w = Identity(n)
    tau, adot = normalize_glrr(initial_glrr(x, 2).coeffs)
    # nudge away from the optimum so the Gauss-Newton step genuinely improves
    adot = adot + 0.05
    problem = _problem(x, w)
    delta, _ = mgn_step(problem, adot, tau)
    gamma, nxt, small, _, trials = line_search(
        problem,
        adot,
        delta,
        tau,
        *_base_point(adot, tau, x, w),
        None,
    )
    assert not small
    assert gamma == 1.0
    assert trials == 1
    assert_allclose(nxt, adot + delta)


@pytest.mark.parametrize("method", ["mgn", "vpgn"])
@pytest.mark.parametrize("case", ["compared", "small_step"])
def test_line_search_carries_what_the_accepted_trial_computed(case, method):
    # a trial accepted by the objective comparison and a small step taken
    # uncompared both carry the whitened residual and the objective, and on
    # the Gram route g = Γ⁻¹Qᵀx, each bitwise what the next base point would
    # compute
    rng = np.random.default_rng(2)
    n = 60
    x = rank2_signal(n) + 0.02 * rng.standard_normal(n)
    w = Identity(n)
    problem = _problem(x, w, method)
    tau, adot = normalize_glrr(initial_glrr(x, 2).coeffs)
    if case == "compared":
        adot = adot + 0.05
        step = mgn_step if method == "mgn" else vpgn_step
        delta, _ = step(problem, adot, tau)
    else:
        delta = np.zeros(2)
    gamma, _, small, trial, _ = line_search(
        problem, adot, delta, tau, *_base_point(adot, tau, x, w), None
    )
    assert (gamma, small) == (1.0, case == "small_step")
    assert np.array_equal(trial.residual_w, whiten(w, x - trial.signal))
    assert trial.objective == weighted_norm(w, x - trial.signal)
    if method == "vpgn":
        factor = trial.factor
        fresh = factor.solve(apply_q_transpose(factor.coeffs, x))
        assert np.array_equal(trial.g, fresh)
    else:
        assert trial.g is None


def test_line_search_exhausts_on_adversarial_direction():
    # at a converged point, a huge random direction increases the objective
    # for every trial step size
    rng = np.random.default_rng(3)
    n = 50
    x = rank2_signal(n)
    w = Identity(n)
    tau, adot = normalize_glrr(initial_glrr(x, 2).coeffs)
    delta = 50.0 * rng.standard_normal(2)
    gamma, nxt, small, _, _ = line_search(
        _problem(x, w),
        adot,
        delta,
        tau,
        *_base_point(adot, tau, x, w),
        1.0,
    )
    assert gamma == 0.0
    assert not small
    assert_allclose(nxt, adot)


def test_line_search_rejects_a_nonzero_imaginary_part():
    x = rank2_signal(30)
    w = Identity(30)
    tau, adot = normalize_glrr(initial_glrr(x, 2).coeffs)
    base = _base_point(adot, tau, x, w)
    with pytest.raises(ValueError, match="must be real"):
        line_search(_problem(x, w), adot, np.full(2, 1e-3j), tau, *base, None)


@pytest.mark.parametrize("rho", [1e-6, 1e-3, 1.0])
def test_line_search_stops_backtracking_at_the_noise_floor(rho, monkeypatch):
    # every trial moves the signal by ρ relative to the base point and raises
    # the objective; no trial is built once its change γ·ρ falls below ζ
    n = 20
    w = Identity(n)
    x = np.zeros(n)
    s_current = np.ones(n)
    calls = []

    def fake_project(*args, **kwargs):
        calls.append(1)
        signal = (1.0 + rho) * s_current
        residual_w = whiten(w, x - signal)
        return solvers._Projection(signal, residual_w, weighted_norm(w, x - signal))

    monkeypatch.setattr(solvers, "_project", fake_project)
    adot = np.array([0.5])
    gamma, nxt, small, trial, trials = line_search(
        _problem(x, w), adot, np.array([0.1]), 1,
        s_current, weighted_norm(w, x - s_current), 1.0,
    )
    expected = sum(
        1 for m in range(solvers._GAMMA_MIN_EXPONENT + 1)
        if 2.0**-m * rho >= solvers._ZETA
    )
    assert expected == {1e-6: 5, 1e-3: 15, 1.0: 17}[rho]
    assert (gamma, small, trial) == (0.0, False, None)
    assert len(calls) == trials == expected
    assert np.array_equal(nxt, adot)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_noiseless_fixed_point():
    x = rank2_signal(80)
    res = fit(x, r=2, config=SolverConfig(method="s-mgn"))
    assert np.linalg.norm(res.signal - x) <= 1e-8 * np.linalg.norm(x)
    assert res.iterations <= 2
    assert res.trace.termination in ("SmallStepStop", "StepZero")


@pytest.mark.parametrize("method", METHODS)
def test_fit_all_methods_recover_clean_signal(method):
    x = rank2_signal(80)
    res = fit(x, r=2, config=SolverConfig(method=method))
    assert np.linalg.norm(res.signal - x) <= 1e-7 * np.linalg.norm(x)


@pytest.mark.parametrize("method", METHODS)
def test_fit_rejects_non_finite_start(method):
    # before the rotation search or the Gram factor sees the coefficients
    x = rank2_signal(80)
    with pytest.raises(ValueError, match="finite"):
        fit(x, config=SolverConfig(method=method), a0=[1.0, np.nan, 1.0])


def test_fit_rejects_complex_start_and_data():
    # no imaginary part is dropped: a complex start once fitted from its
    # real part and ended SmallStepStop
    x = rank2_signal(80)
    with pytest.raises(ValueError, match="must be real"):
        fit(x, a0=[1.0, -1.9 + 0.5j, 1.0])
    with pytest.raises(ValueError, match="must be real"):
        fit(x + 1e-3j, r=2)
    # an all-zero imaginary part is real
    a0 = [1.0, -1.9, 1.0]
    want = fit(x, a0=a0)
    got = fit(np.asarray(x, dtype=complex), a0=np.asarray(a0, dtype=complex))
    assert got.signal.tobytes() == want.signal.tobytes()


def test_fit_known_minimum_smgn_n100():
    problem = build_known_minimum(100)
    a0 = GlrrVector(problem.a_star.coeffs + 1e-6)
    res = fit(problem.x, config=SolverConfig(method="s-mgn"), a0=a0)
    assert np.linalg.norm(res.signal - problem.y_star.values) <= 1e-6
    assert res.glrr_rel_residual <= 1e-8


def test_fit_scale_invariant_start():
    # scaling by a power of two is exact in floating point, so the whole
    # iterate sequence must be reproduced bit for bit
    rng = np.random.default_rng(4)
    x = rank2_signal(70) + 0.05 * rng.standard_normal(70)
    a0 = initial_glrr(x, 2)
    res1 = fit(x, config=SolverConfig(method="mgn"), a0=a0)
    res2 = fit(x, config=SolverConfig(method="mgn"), a0=GlrrVector(8.0 * a0.coeffs))
    assert len(res1.trace) == len(res2.trace)
    for row1, row2 in zip(res1.trace.rows, res2.trace.rows):
        assert row1.tau == row2.tau
        assert_allclose(row1.adot, row2.adot, rtol=0, atol=0)
    assert_allclose(res1.signal, res2.signal, rtol=0, atol=0)


def test_fit_trace_monotone_on_accepted_steps():
    rng = np.random.default_rng(5)
    x = rank2_signal(90) + 0.1 * rng.standard_normal(90)
    for method in ("mgn", "s-mgn"):
        res = fit(x, r=2, config=SolverConfig(method=method))
        objs = res.trace.objectives
        rows = res.trace.rows
        for k in range(len(objs) - 1):
            if not rows[k].small_step and rows[k].gamma > 0:
                assert objs[k + 1] <= objs[k]


def test_fit_feasibility_of_compensated_iterates():
    rng = np.random.default_rng(6)
    x = rank2_signal(200) + 0.05 * rng.standard_normal(200)
    res = fit(x, r=2, config=SolverConfig(method="s-mgn"))
    signal_norm = np.linalg.norm(res.signal)
    for row in res.trace.rows:
        assert row.glrr_rel_residual <= 1e-8 * max(signal_norm, 1.0)


def test_fit_max_iter_termination():
    rng = np.random.default_rng(7)
    x = rank2_signal(60) + 0.2 * rng.standard_normal(60)
    res = fit(x, r=2, config=SolverConfig(method="mgn", max_iter=3))
    assert res.trace.termination in ("MaxIter", "SmallStepStop", "StepZero")
    assert len(res.trace) <= 3


def test_fit_gapped_preset_masked_identity():
    observed, clean = gapped_preset(seed=3)
    res = fit(observed, r=4, config=SolverConfig(method="s-mgn"))
    assert res.trace.termination != "MaxIter"
    objs = res.trace.objectives
    assert objs[-1] <= objs[0]
    assert res.glrr_rel_residual <= 1e-8
    # fitted values exist at gap positions and track the clean signal
    assert np.all(np.isfinite(res.signal))
    rel_err = np.linalg.norm(res.signal - clean) / np.linalg.norm(clean)
    assert rel_err < 0.2


def test_fit_intersects_caller_mask_with_gaps():
    # the caller's mask hides samples 1-3 but not the gaps, which hold 0.0
    # in the stored values; they must stay out of the objective
    observed, clean = gapped_preset(seed=3)
    partial = np.ones(observed.n, dtype=bool)
    partial[1:4] = False
    config = SolverConfig(method="s-mgn")
    w_caller = mask_missing(Identity(observed.n), partial)
    w_both = mask_missing(Identity(observed.n), partial & observed.mask)
    got = fit(observed, r=4, w=w_caller, config=config)
    want = fit(observed, r=4, w=w_both, config=config)
    assert got.signal.tobytes() == want.signal.tobytes()
    assert got.glrr.coeffs.tobytes() == want.glrr.coeffs.tobytes()
    assert got.trace.objectives.tobytes() == want.trace.objectives.tobytes()
    assert np.linalg.norm(got.signal - clean) / np.linalg.norm(clean) < 0.2


@pytest.mark.parametrize("method", METHODS)
def test_fit_projects_once_per_base_point(method, monkeypatch):
    # every base point after the first is the trial the line search before
    # it accepted, so only the first step and the line-search trials project
    rng = np.random.default_rng(1)
    x = rank2_signal(80) + 0.5 * rng.standard_normal(80)
    calls = []
    for name in ("nullspace_basis", "project_gamma"):
        original = getattr(solvers, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(solvers, name, counted)
    config = SolverConfig(method=method)
    res = fit(x, r=2, config=config)

    assert {row.tau for row in res.trace.rows} == {res.tau}  # pivot never moves
    for row in res.trace.rows:
        if row.small_step:
            assert row.trials == 1
        elif row.gamma > 0.0:
            assert row.trials == round(-np.log2(row.gamma)) + 1
        else:
            assert 1 <= row.trials <= solvers._GAMMA_MIN_EXPONENT + 1
    assert len(calls) == 1 + sum(row.trials for row in res.trace.rows)


@pytest.mark.parametrize("max_iter", [200, 6, 24])
@pytest.mark.parametrize("method", METHODS)
def test_fit_whitens_each_residual_once(method, max_iter, monkeypatch):
    # whiten(W, x − s) exactly once per projection, that is 1 + Σ trials at
    # a fixed pivot, compared or taken as a small step: each serves the
    # objective and the step's right-hand side.  whiten(W, x) once per fit
    # on the basis route and never on the Gram route.  The fits take small
    # steps from row 18 on, so the cap of 24 cuts one short; the cap of 6
    # cuts the fit before its first small step.
    rng = np.random.default_rng(1)
    x = rank2_signal(80) + 0.5 * rng.standard_normal(80)
    residuals, series = [], []
    original = weights.whiten

    def counted(w_, v):
        if np.ndim(v) == 1:
            (series if np.array_equal(v, x) else residuals).append(1)
        return original(w_, v)

    for module in (weights, projection, solvers):
        if getattr(module, "whiten", None) is original:
            monkeypatch.setattr(module, "whiten", counted)
    res = fit(x, r=2, config=SolverConfig(method=method, max_iter=max_iter))

    rows = res.trace.rows
    assert {row.tau for row in rows} == {res.tau}  # pivot never moves
    assert len(residuals) == 1 + sum(row.trials for row in rows)
    assert len(series) == (0 if method == "vpgn" else 1)
    if max_iter == 24:
        assert rows[-1].small_step and rows[-1].gamma == 1.0


@pytest.mark.parametrize("method", ["mgn", "s-mgn"])
def test_fit_keeps_the_pivot_at_a_triple_unit_root(method):
    # a* = (1, −3, 3, −1) ties |a₂| and |a₃|: the rounding of each iterate
    # would flip τ between 2 and 3 if every iterate were re-normalized
    problem = build_known_minimum(1000)
    a0 = problem.a_star.coeffs + 1e-6
    res = fit(problem.x, a0=a0, config=SolverConfig(method=method))
    assert {row.tau for row in res.trace.rows} == {normalize_glrr(a0)[0]} == {res.tau}
    assert np.linalg.norm(res.signal - problem.y_star.values) <= 1e-5


@pytest.mark.parametrize("method", METHODS)
def test_fit_moves_the_pivot_once_a_coefficient_doubles_it(method):
    # the rank-1 series 0.3ⁿ has a = (0.3, −1); from (1, −0.9), τ = 1, the
    # free coefficient must grow past 2 and hand the pivot to a₂
    x = 0.3 ** np.arange(40)
    res = fit(x, a0=(1.0, -0.9), config=SolverConfig(method=method))
    taus = [row.tau for row in res.trace.rows]
    assert taus[0] == 1 and res.tau == 2
    assert all(np.max(np.abs(row.adot)) <= 2.0 for row in res.trace.rows)
    assert_allclose(res.glrr.coeffs, [0.3, -1.0], rtol=1e-8)
    assert np.linalg.norm(res.signal - x) <= 1e-12


@pytest.mark.parametrize("weight", ["gaps", "ar1"])
@pytest.mark.parametrize("method", ["vpgn", "s-vpgn"])
def test_fit_kernel_methods_reject_weights_without_banded_winv(method, weight):
    # a gapped series masks its weight, and an AR(1) inverse covariance is a
    # banded W: neither gives the Gram factor the banded W⁻¹ it needs
    observed, _ = gapped_preset(seed=3)
    if weight == "gaps":
        x, w = observed, None
    else:
        x = np.where(observed.mask, observed.values, 0.0)
        w = ar_inverse_covariance([0.5], 1.0, observed.n)
    with pytest.raises(WeightVariantError):
        fit(x, r=4, w=w, config=SolverConfig(method=method))


def test_fit_requires_rank_or_start():
    with pytest.raises(ValueError):
        fit(np.ones(20))


def test_fit_rank_start_mismatch():
    with pytest.raises(ValueError):
        fit(np.ones(20), r=3, a0=GlrrVector(np.array([1.0, -1.0])))


def test_solver_config_validates_method():
    with pytest.raises(ValueError):
        SolverConfig(method="newton")
    cfg = SolverConfig(method="S-VPGN")
    assert cfg.method == "s-vpgn"
    assert cfg.mode == "compensated"
    assert cfg.family == "vpgn"


def test_vector_norms_of_the_solver_are_linalg_norm():
    # fit and line_search take the norm of a real vector as √(v·v), which
    # is how np.linalg.norm computes it
    rng = np.random.default_rng(11)
    for size in range(1, 9):
        for scale in (1e-300, 1e-8, 1.0, 1e150):
            v = rng.standard_normal(size) * scale
            assert math.sqrt(v.dot(v)) == np.linalg.norm(v)
