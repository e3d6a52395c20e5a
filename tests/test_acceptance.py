"""Acceptance suite: one test per shipped guarantee.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL`` line before asserting,
so a ``pytest tests/test_acceptance.py -s`` run yields a human-readable
scorecard.  Several checks share the converged fits of the known-minimum
family (module-scoped fixtures); every solver trace produced here is also
collected so the final monotonicity audit sees all of them.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from hmgn.nullspace import nullspace_basis, rotated_spectrum
from hmgn.problems import build_known_minimum, gapped_preset
from hmgn.projection import GammaFactor, project_gamma
from hmgn.series import (
    GlrrVector,
    h_tau,
    normalize_glrr,
)
from hmgn.solvers import SolverConfig, _Problem, fit, mgn_step
from hmgn.weights import Identity, ar_inverse_covariance, banded_winv_from_winv_bands

from _oracles import (
    basis_projection,
    boundary_rows,
    fd_jacobian,
    q_matrix_oracle,
    recurrence_kernel_oracle,
    s_tau_oracle,
)

#: every solver trace produced by this module: (label, series length, trace)
TRACES = []

#: wall-clock seconds spent building the known-minimum fits
FIT_SECONDS = {}


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"acceptance {num}: {detail}"


def reeval_floor(n, objective):
    """Tolerated objective wobble from re-evaluating ‖X − S(a)‖_W at the next
    iterate: the projection is recomputed from scratch after renormalization,
    so consecutive trace rows can disagree by accumulated rounding even when
    the accepted trial was exactly non-increasing."""
    return 64.0 * np.finfo(float).eps * np.sqrt(n) * max(1.0, objective)


def random_glrr(rng, radius=(0.45, 0.9)):
    r = int(rng.integers(1, 3))
    roots = rng.uniform(*radius, r) * np.exp(1j * rng.uniform(0, np.pi, r))
    return np.real(np.poly(roots))[::-1], r


# ---------------------------------------------------------------------------
# shared fits
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def known_min_fits():
    """Converged fits of the polynomial known-minimum family, all methods."""
    start = time.monotonic()
    fits = {}
    for n in (20, 100, 1000):
        problem = build_known_minimum(n)
        a0 = GlrrVector(np.array(problem.a_star.coeffs) + 1e-6)
        for method in ("mgn", "s-mgn", "vpgn"):
            result = fit(
                problem.x, w=Identity(n), config=SolverConfig(method=method), a0=a0
            )
            fits[(n, method)] = (problem, result)
            TRACES.append((f"{method}@{n}", n, result.trace))
    FIT_SECONDS["known_min"] = time.monotonic() - start
    return fits


@pytest.fixture(scope="module")
def long_series_fits():
    """Image-space fits at N = 5000 in both evaluation modes."""
    problem = build_known_minimum(5000)
    a0 = GlrrVector(np.array(problem.a_star.coeffs) + 1e-6)
    fits = {}
    for method in ("mgn", "s-mgn"):
        result = fit(
            problem.x, w=Identity(5000), config=SolverConfig(method=method), a0=a0
        )
        fits[method] = result
        TRACES.append((f"{method}@5000", 5000, result.trace))
    return fits


@pytest.fixture(scope="module")
def gapped_fit():
    observed, signal = gapped_preset(seed=3)
    result = fit(observed, r=4, config=SolverConfig(method="s-mgn"))
    TRACES.append(("s-mgn@gapped50", 50, result.trace))
    return observed, signal, result


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_01_nullspace_annihilation_and_orthonormality():
    rng = np.random.default_rng(0)
    start = time.monotonic()
    worst_q = worst_orth = 0.0
    count = 0
    while count < 200:
        r = int(rng.integers(1, 7))
        n = int(rng.integers(4 * r + 8, 513))
        coeffs = rng.uniform(-2.0, 2.0, r + 1)
        if abs(coeffs[-1]) < 0.2 or np.max(np.abs(coeffs)) < 0.5:
            continue
        mode = "compensated" if count % 2 else "plain"
        basis = nullspace_basis(rotated_spectrum(GlrrVector(coeffs), n, mode=mode))
        q = q_matrix_oracle(coeffs, n)
        worst_q = max(worst_q, float(np.linalg.norm(q.T @ basis.z)))
        worst_orth = max(
            worst_orth, float(np.linalg.norm(basis.z.T @ basis.z - np.eye(r)))
        )
        count += 1
    elapsed = time.monotonic() - start
    ok = worst_q <= 1e-9 and worst_orth <= 1e-10 and elapsed < 30.0
    report(
        1,
        ok,
        f"200 random kernels: max|QᵀZ|={worst_q:.2e} (≤1e-9), "
        f"max|ZᵀZ-I|={worst_orth:.2e} (≤1e-10), {elapsed:.1f}s (<30s)",
    )


def test_02_projection_routes_cross_check():
    rng = np.random.default_rng(1)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        a, _ = random_glrr(rng)
        n = int(rng.integers(30, 501))
        w = banded_winv_from_winv_bands(
            (1.0 + np.abs(rng.uniform(0.5, 2.0, n)), rng.uniform(-0.4, 0.4, n - 1))
        )
        x = rng.standard_normal(n)
        via_basis = basis_projection(a, w, x).projected
        via_gamma, _ = project_gamma(GammaFactor(a, w), x)
        rel = np.linalg.norm(via_basis - via_gamma) / max(
            np.linalg.norm(via_basis), 1e-12
        )
        worst = max(worst, float(rel))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    report(
        2,
        ok,
        f"100 tridiagonal-W⁻¹ instances: max basis/Gram mismatch={worst:.2e} "
        f"(≤1e-8), {elapsed:.1f}s (<60s)",
    )


def test_03_step_matches_full_jacobian_direction():
    rng = np.random.default_rng(2)
    start = time.monotonic()
    worst = 0.0
    for _ in range(50):
        a, r = random_glrr(rng)
        n = int(rng.integers(5 * (r + 1), 61))
        tau, adot = normalize_glrr(a)
        z = nullspace_basis(rotated_spectrum(h_tau(adot, tau), n)).z
        x = z @ rng.standard_normal(r) + 0.05 * rng.standard_normal(n)
        problem = _Problem.of(x, Identity(n), SolverConfig(method="mgn"))
        delta, at = mgn_step(problem, adot, tau)
        s_k = at.signal

        z0 = z.copy()

        def param(p, tau=tau, n=n, z0=z0, r=r):
            return s_tau_oracle(p[:r], p[r:], tau, n, z0)

        point = np.concatenate([s_k[boundary_rows(tau, r, n)], adot])
        jac = fd_jacobian(param, point, h=1e-7)
        full = np.linalg.lstsq(jac, x - s_k, rcond=None)[0]
        rel = np.linalg.norm(delta - full[r:]) / max(
            np.linalg.norm(full[r:]), 1e-12
        )
        worst = max(worst, float(rel))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-4 and elapsed < 60.0
    report(
        3,
        ok,
        f"50 instances: max deviation of reduced step from full-Jacobian "
        f"direction={worst:.2e} (≤1e-4), {elapsed:.1f}s (<60s)",
    )


def test_04_parameterization_derivatives_stay_in_squared_kernel():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        a, r = random_glrr(rng)
        n = int(rng.integers(25, 61))
        tau, adot = normalize_glrr(a)
        a_tau = h_tau(adot, tau)
        a2 = np.convolve(a_tau, a_tau)
        q2 = q_matrix_oracle(a2, n)
        z0 = rng.standard_normal((n, r))
        sdot = rng.standard_normal(r)

        def param(p, tau=tau, n=n, z0=z0, r=r):
            return s_tau_oracle(p[:r], p[r:], tau, n, z0)

        # h balances central-difference truncation (h²) against u/h roundoff,
        # which the boundary-restriction inverse can amplify by ~1e6
        jac = fd_jacobian(param, np.concatenate([sdot, adot]), h=1e-5)
        for k in range(2 * r):
            v = jac[:, k]
            rel = np.linalg.norm(q2.T @ v) / max(np.linalg.norm(v), 1e-12)
            worst = max(worst, float(rel))
    ok = worst <= 1e-5
    report(
        4,
        ok,
        f"50 instances × 2r directions: max tangent leakage out of the "
        f"squared-recurrence kernel={worst:.2e} (≤1e-5)",
    )


def test_05_known_minimum_convergence(known_min_fits):
    worst_dist = worst_res = 0.0
    for n in (20, 100, 1000):
        _, result = known_min_fits[(n, "s-mgn")]
        problem = known_min_fits[(n, "s-mgn")][0]
        worst_dist = max(
            worst_dist, float(np.linalg.norm(result.signal - problem.y_star.values))
        )
        worst_res = max(worst_res, result.glrr_rel_residual)
    dists_1000 = {
        method: float(
            np.linalg.norm(
                known_min_fits[(1000, method)][1].signal
                - known_min_fits[(1000, method)][0].y_star.values
            )
        )
        for method in ("mgn", "s-mgn", "vpgn")
    }
    elapsed = FIT_SECONDS["known_min"]
    ok = (
        worst_dist <= 1e-6
        and worst_res <= 1e-8
        and dists_1000["mgn"] < dists_1000["vpgn"]
        and dists_1000["s-mgn"] < dists_1000["vpgn"]
        and elapsed < 300.0
    )
    report(
        5,
        ok,
        f"compensated fits: max dist={worst_dist:.2e} (≤1e-6), max recurrence "
        f"residual={worst_res:.2e} (≤1e-8); N=1000 distances "
        f"mgn={dists_1000['mgn']:.2e} s-mgn={dists_1000['s-mgn']:.2e} < "
        f"vpgn={dists_1000['vpgn']:.2e}; {elapsed:.0f}s (<300s)",
    )


def test_06_stationarity_certificate(known_min_fits):
    pytest.importorskip("mpmath")
    ratios = {}
    for (n, method), (problem, result) in known_min_fits.items():
        if method == "vpgn":
            continue  # image-space solutions only; see test_05 ordering
        residual = problem.x.values - result.signal
        # Z(a²) of the fitted GLRR, with g_a² formed exactly: at N = 1000 the
        # six-fold root makes this span hinge on the last bit of a²; a* in
        # pivot form, squared and solved in double, misses it by 1.8e-3 rad
        z2 = recurrence_kernel_oracle(result.glrr.coeffs, n, squared=True)
        ratios[(n, method)] = float(
            np.linalg.norm(z2.T @ residual) / np.linalg.norm(residual)
        )
    worst = max(ratios.values())
    detail = ", ".join(
        f"{method}@{n}={ratio:.2e}" for (n, method), ratio in sorted(ratios.items())
    )
    report(
        6,
        worst <= 1e-5,
        f"tangent component of residual in the exact kernel of a² (≤1e-5): {detail}",
    )


def test_07_conditioning_slopes():
    sizes = 2 ** np.arange(6, 13)
    slopes = {}
    for t, coeffs in ((1, (1.0, -1.0)), (2, (1.0, -2.0, 1.0)), (3, (1.0, -3.0, 3.0, -1.0))):
        mins = [
            rotated_spectrum(GlrrVector(coeffs), int(n), mode="compensated").min_abs_eigenvalue
            for n in sizes
        ]
        slopes[t] = float(np.polyfit(np.log(sizes), np.log(mins), 1)[0])
    ok = all(abs(slopes[t] + t) <= 0.25 for t in slopes)
    detail = ", ".join(f"t={t}: {s:.3f} (want −{t}±0.25)" for t, s in slopes.items())
    report(7, ok, f"smallest-eigenvalue decay slopes: {detail}")


def test_08_compensated_long_series_gain(long_series_fits):
    pytest.importorskip("mpmath")
    dist = {}
    for method, result in long_series_fits.items():
        # distance of S from Z(a) of its own GLRR, Z(a) from the exact
        # kernel; ‖QᵀS‖ cannot show it, since the smallest singular values of
        # Qᵀ are ≈ (π/N)³ and S itself is rounded to double
        z = recurrence_kernel_oracle(result.glrr.coeffs, 5000)
        s = result.signal
        dist[method] = float(np.linalg.norm(s - z @ (z.T @ s)) / np.linalg.norm(s))
    plain, comp = dist["mgn"], dist["s-mgn"]
    res_plain = long_series_fits["mgn"].glrr_rel_residual
    res_comp = long_series_fits["s-mgn"].glrr_rel_residual
    report(
        8,
        comp <= 1e-2 * plain,
        f"N=5000 distance of S from the exact kernel of its GLRR: "
        f"plain={plain:.2e}, compensated={comp:.2e}, ratio={plain / comp:.2f} "
        f"(need ≥100); recurrence residuals, not asserted: plain={res_plain:.2e}, "
        f"compensated={res_comp:.2e}",
    )


def test_09_step_cost_scaling():
    def step_at(n):
        known = build_known_minimum(n)
        w = ar_inverse_covariance([0.5], 1.0, n)
        tau, adot = normalize_glrr(np.array(known.a_star.coeffs) + 1e-6)
        # built once, outside the timed step, as fit builds it
        problem = _Problem.of(known.x, w, SolverConfig(method="s-mgn"))
        return lambda: mgn_step(problem, adot, tau)

    steps = {n: step_at(n) for n in (1000, 8000)}
    # the sizes alternate, so a spell of load on the box slows both
    best = dict.fromkeys(steps, np.inf)
    for k in range(14):
        for n, step in steps.items():
            t0 = time.perf_counter()
            step()
            if k >= 2:  # discard warm-up
                best[n] = min(best[n], time.perf_counter() - t0)
    t_small, t_large = best[1000], best[8000]
    ratio = t_large / t_small
    report(
        9,
        ratio <= 12.0,
        f"best step time: {t_small * 1e3:.1f}ms @1000 → {t_large * 1e3:.1f}ms "
        f"@8000, ratio={ratio:.2f} (≤12)",
    )


def test_10_gapped_series_fit(gapped_fit):
    observed, signal, result = gapped_fit
    rows = result.trace.rows
    worst_increase = max(
        (
            rows[k + 1].objective - rows[k].objective
            for k in range(len(rows) - 1)
        ),
        default=0.0,
    )
    floor = reeval_floor(observed.n, max(row.objective for row in rows))
    rel_error = float(
        np.linalg.norm(result.signal - signal) / np.linalg.norm(signal)
    )
    ok = (
        result.trace.termination != "MaxIter"
        and worst_increase <= floor
        and result.glrr_rel_residual <= 1e-8
        and rel_error < 0.2
    )
    report(
        10,
        ok,
        f"gapped fit: {len(rows)} iterations ({result.trace.termination}), "
        f"max objective increase={worst_increase:.1e} (floor {floor:.1e}), "
        f"recurrence residual={result.glrr_rel_residual:.1e} (≤1e-8), "
        f"signal error={rel_error:.3f} (<0.2)",
    )


def test_11_accepted_steps_never_increase_objective(
    known_min_fits, long_series_fits, gapped_fit
):
    checked = 0
    worst = -np.inf
    worst_label = "none"
    for label, n, trace in TRACES:
        rows = trace.rows
        for k in range(len(rows) - 1):
            if rows[k].gamma <= 0.0 or rows[k].small_step:
                continue
            excess = (
                rows[k + 1].objective
                - rows[k].objective
                - reeval_floor(n, rows[k].objective)
            )
            checked += 1
            if excess > worst:
                worst, worst_label = excess, label
    report(
        11,
        checked > 0 and worst <= 0.0,
        f"{checked} accepted steps across {len(TRACES)} traces: worst objective "
        f"excess={worst:.1e} ({worst_label}; ≤0 up to re-evaluation rounding)",
    )
