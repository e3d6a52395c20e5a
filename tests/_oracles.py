"""Slow, independent reference implementations used to freeze expected values.

Everything here is written as plain double loops over the defining formulas
and deliberately shares no code with the package.  Tests compare package
output against these oracles (or against values frozen from them).  The
exceptions are ``basis_projection``, the package's basis route composed from
its public building blocks, for tests that check that route itself, and
``banded_w_from_w_bands``, a ``BandedW`` built from the bands of W through
the package's banded Cholesky helper.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from hmgn.nullspace import nullspace_basis, rotated_spectrum
from hmgn.projection import weighted_pinv_apply
from hmgn.weights import BandedW, _chol_banded_or_raise


def hankel_oracle(x, L):
    """L x (N-L+1) trajectory matrix by explicit indexing."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros((L, n - L + 1))
    for i in range(L):
        for j in range(n - L + 1):
            out[i, j] = x[i + j]
    return out


def q_matrix_oracle(b, M):
    """M x (M-d) banded matrix of shifted copies of b, by explicit placement."""
    b = np.asarray(b, dtype=float)
    d = b.size - 1
    q = np.zeros((M, M - d))
    for j in range(M - d):
        for k in range(d + 1):
            q[j + k, j] = b[k]
    return q


def glrr_residual_oracle(x, a):
    """Component i = sum_j a_j x_{i+j-1}, by explicit double loop."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    r = a.size - 1
    out = np.zeros(x.size - r)
    for i in range(x.size - r):
        acc = 0.0
        for j in range(a.size):
            acc += a[j] * x[i + j]
        out[i] = acc
    return out


def model_rank(components):
    """Rank of a model signal: Σ_k (deg P_k + 1)·r_k.

    r_k = 2 for interior frequencies 0 < ω < 0.5 and 1 at the boundary
    values ω ∈ {0, 0.5}.
    """
    return sum(len(c.poly) * (2 if 0.0 < c.omega < 0.5 else 1) for c in components)


def basis_projection(a, w, x, mode="plain"):
    """Π_{Z(a),W}x through an orthonormal basis of Z(a) built in ``mode``."""
    basis = nullspace_basis(rotated_spectrum(a, np.shape(x)[0], mode))
    return weighted_pinv_apply(basis.z, w, x)


def banded_w_from_w_bands(w_bands):
    """BandedW from the upper bands of an SPD W itself (bands[d][i] = W[i,i+d])."""
    n = np.asarray(w_bands[0]).size
    return BandedW(n, tuple(_chol_banded_or_raise(w_bands, n, "weight matrix")))


def poly_eval_oracle(a, z):
    """g_a(z) = sum_k a_{k+1} z^k by naive power summation."""
    a = np.asarray(a)
    z = np.asarray(z)
    acc = np.zeros(np.shape(z), dtype=complex)
    for k in range(a.size):
        acc = acc + a[k] * z**k
    return acc


def comp_horner_oracle(coeffs, z):
    """Textbook compensated Horner (Graillat, Langlois & Louvet) at complex z.

    Every product is a Dekker two-product with its own Veltkamp splits and
    every sum a Knuth two-sum; the complex product is compensated
    componentwise and the rounding terms run through a plain Horner
    recurrence.  Returns (s_r + e_r) + i(s_i + e_i).
    """

    def two_sum(a, b):
        s = a + b
        bb = s - a
        return s, (a - (s - bb)) + (b - bb)

    def split(a):
        c = 134217729.0 * a  # 2**27 + 1
        hi = c - (c - a)
        return hi, a - hi

    def two_prod(a, b):
        p = a * b
        ah, al = split(a)
        bh, bl = split(b)
        return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)

    coeffs = np.asarray(coeffs)
    zr, zi = np.real(z).astype(float), np.imag(z).astype(float)
    sr = np.full_like(zr, np.real(coeffs[-1]))
    si = np.full_like(zr, np.imag(coeffs[-1]))
    er = np.zeros_like(zr)
    ei = np.zeros_like(zr)
    for k in range(coeffs.size - 2, -1, -1):
        p1, d1 = two_prod(sr, zr)
        p2, d2 = two_prod(si, zi)
        p3, d3 = two_prod(sr, zi)
        p4, d4 = two_prod(si, zr)
        rp, d5 = two_sum(p1, -p2)
        ip, d6 = two_sum(p3, p4)
        sr_new, d7 = two_sum(rp, float(np.real(coeffs[k])))
        si_new, d8 = two_sum(ip, float(np.imag(coeffs[k])))
        er_new = er * zr - ei * zi + (d1 - d2 + d5 + d7)
        ei_new = er * zi + ei * zr + (d3 + d4 + d6 + d8)
        sr, si, er, ei = sr_new, si_new, er_new, ei_new
    return (sr + er) + 1j * (si + ei)


def weighted_norm_oracle(x, w_dense):
    """sqrt(x^T W x) against an explicit dense W."""
    x = np.asarray(x, dtype=float)
    return float(np.sqrt(x @ (np.asarray(w_dense) @ x)))


def ar_dense_covariance_oracle(phi, sigma2, n, terms=4000):
    """Dense AR(p) autocovariance matrix via the truncated impulse response.

    gamma(k) = sigma2 * sum_j psi_j psi_{j+k}, psi the MA(inf) weights of
    the recursion.  Independent of any Lyapunov/Yule-Walker machinery.
    """
    phi = np.asarray(phi, dtype=float)
    p = phi.size
    psi = np.zeros(terms)
    psi[0] = 1.0
    for j in range(1, terms):
        acc = 0.0
        for k in range(min(p, j)):
            acc += phi[k] * psi[j - 1 - k]
        psi[j] = acc
    gamma = np.array(
        [sigma2 * float(np.dot(psi[: terms - k], psi[k:])) for k in range(n)]
    )
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = gamma[abs(i - j)]
    return out

def weighted_projection_oracle(z, w_dense, x):
    """(projected, q) minimizing ||x - Z q||_W via dense normal equations."""
    z = np.asarray(z, dtype=float)
    w = np.asarray(w_dense, dtype=float)
    x = np.asarray(x, dtype=float)
    gram = z.T @ w @ z
    q = np.linalg.solve(gram, z.T @ (w @ x))
    return z @ q, q


def gamma_projection_oracle(a, winv_dense, x):
    """(I - W^{-1} Q Gamma^{-1} Q^T) x with everything dense."""
    x = np.asarray(x, dtype=float)
    q = q_matrix_oracle(a, x.size)
    winv = np.asarray(winv_dense, dtype=float)
    gamma = q.T @ winv @ q
    return x - winv @ (q @ np.linalg.solve(gamma, q.T @ x))


def vp_jacobian_two_solve_oracle(factor, tau, x, winv_dense):
    """The two-solve form of the Gram-route VP Jacobian, as the package
    computed it before the merged form: column j is

        −W⁻¹QΓ⁻¹E_jᵀΠx − ΠW⁻¹E_j·g,  g = Γ⁻¹Qᵀx,

    with Πx and Π applied through their own Γ⁻¹ solves, 2r + 1 solve
    columns in all.  Γ⁻¹ is ``factor.solve`` (the same banded factor the
    package uses, so a difference measures the algebra alone); Q(a) and W⁻¹
    are dense.
    """
    x = np.asarray(x, dtype=float)
    coeffs = np.asarray(factor.coeffs, dtype=float)
    n, r = x.size, coeffs.size - 1
    q = q_matrix_oracle(coeffs, n)
    g = factor.solve(q.T @ x)
    pix = x - winv_dense @ (q @ g)
    positions = [j for j in range(r + 1) if j != tau - 1]
    windows = np.column_stack([pix[j : j + n - r] for j in positions])
    term1 = winv_dense @ (q @ factor.solve(windows))
    padded = np.zeros((n, r))
    for col, j in enumerate(positions):
        padded[j : j + n - r, col] = g
    wp = winv_dense @ padded
    term2 = wp - winv_dense @ (q @ factor.solve(q.T @ wp))
    return -term1 - term2


def vp_jacobian_dense_oracle(a, winv_dense, tau, x):
    """VP Jacobian as the product-rule derivative of Π(a)x, all dense.

    Π(a) = I − W⁻¹QΓ⁻¹Qᵀ with Γ = QᵀW⁻¹Q.  Moving the free coefficient at
    position j moves Q by E_j = Q(e_j), so

        ∂(Πx)/∂a_j = −W⁻¹E_jΓ⁻¹Qᵀx − W⁻¹QΓ⁻¹E_jᵀx
                     + W⁻¹QΓ⁻¹(E_jᵀW⁻¹Q + QᵀW⁻¹E_j)Γ⁻¹Qᵀx,

    with no simplification through Π.
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    n, r = x.size, a.size - 1
    q = q_matrix_oracle(a, n)
    gamma = q.T @ winv_dense @ q
    g = np.linalg.solve(gamma, q.T @ x)
    cols = []
    for j in range(r + 1):
        if j == tau - 1:
            continue
        unit = np.zeros(r + 1)
        unit[j] = 1.0
        e = q_matrix_oracle(unit, n)
        dgamma = e.T @ winv_dense @ q + q.T @ winv_dense @ e
        inner = -e.T @ x + dgamma @ g
        cols.append(-winv_dense @ (e @ g) + winv_dense @ (q @ np.linalg.solve(gamma, inner)))
    return np.column_stack(cols)


def gram_oracle(coeffs, chat_bands, n):
    """Dense Gamma = Q^T Chat^T Chat Q, with Chat placed entry by entry from
    its bands (chat_bands[d][i] = Chat[i, i+d]) and Q(coeffs) column by
    column."""
    coeffs = np.asarray(coeffs, dtype=float)
    r = coeffs.size - 1
    chat = np.zeros((n, n))
    for d, band in enumerate(chat_bands):
        for i in range(n - d):
            chat[i, i + d] = band[i]
    q = np.zeros((n, n - r))
    for j in range(n - r):
        for k in range(r + 1):
            q[j + k, j] = coeffs[k]
    cq = chat @ q
    return cq.T @ cq


def boundary_rows(tau, r, n):
    """0-based index set I(tau): first tau-1 and last r-tau+1 positions."""
    return list(range(tau - 1)) + list(range(n - (r - tau + 1), n))


def s_tau_oracle(sdot, adot, tau, n, z0):
    """Explicit local parameterization: S = G sdot, G = PZ0 (PZ0)_I^{-1}.

    P is the dense orthogonal projector onto the nullspace of Q^T(a) and
    Z0 a fixed reference basis evaluated once at the expansion point.
    """
    sdot = np.asarray(sdot, dtype=float)
    adot = np.asarray(adot, dtype=float)
    a = np.concatenate((adot[: tau - 1], [-1.0], adot[tau - 1 :]))
    q = q_matrix_oracle(a, n)
    piz = np.eye(n) - q @ np.linalg.solve(q.T @ q, q.T)
    z = piz @ np.asarray(z0, dtype=float)
    g = z @ np.linalg.inv(z[boundary_rows(tau, adot.size, n), :])
    return g @ sdot


def fd_jacobian(f, x0, h=1e-6):
    """Central-difference Jacobian of a vector function, column by column."""
    x0 = np.asarray(x0, dtype=float)
    cols = []
    for i in range(x0.size):
        step = np.zeros_like(x0)
        step[i] = h * (1.0 + abs(x0[i]))
        cols.append((f(x0 + step) - f(x0 - step)) / (2 * step[i]))
    return np.column_stack(cols)


def gram_schmidt_cols(cols):
    """Classical Gram-Schmidt orthonormalization of the columns."""
    cols = np.asarray(cols, dtype=float)
    out = []
    for j in range(cols.shape[1]):
        v = cols[:, j].copy()
        for u in out:
            v -= (u @ cols[:, j]) * u
        out.append(v / np.linalg.norm(v))
    return np.column_stack(out)


def rotation_scan_oracle(a, n, m=2048):
    """Rotation maximizing the plain-Horner min_j |g_a| over a dense scan.

    Scans m equispaced rotations in (−π/N, π/N]; returns the first best.
    """
    a = np.asarray(a, dtype=float)
    half = np.pi / n
    alphas = -half + 2.0 * half * np.arange(1, m + 1) / m
    base = np.exp(2j * np.pi * np.arange(n) / n)
    mins = []
    for start in range(0, m, 128):  # 128 rotations at a time bounds memory
        z = np.exp(-1j * alphas[start : start + 128])[:, None] * base[None, :]
        acc = np.full(z.shape, complex(a[-1]))
        for c in a[-2::-1]:
            acc = acc * z + c
        mins.append(np.min(np.abs(acc), axis=1))
    return float(alphas[int(np.argmax(np.concatenate(mins)))])


def recurrence_kernel_oracle(coeffs, n, squared=False, dps=60):
    """Orthonormal basis of Z(a) = {s : Σ_j a_j s_{i+j} = 0} in mpmath.

    The double coefficients are lifted exactly; with ``squared`` they are
    replaced by g_a² (products of doubles are exact at 60 digits).  The
    recurrence is run forward from d unit starts and the d sequences are
    orthonormalized by two-pass Gram-Schmidt; only the result is rounded
    to float64, so the span does not depend on how g_a² would round.
    """
    import mpmath

    with mpmath.workdps(dps):
        a = [mpmath.mpf(float(c)) for c in np.asarray(coeffs, dtype=float)]
        if squared:
            a2 = [mpmath.mpf(0)] * (2 * len(a) - 1)
            for i, ai in enumerate(a):
                for j, aj in enumerate(a):
                    a2[i + j] += ai * aj
            a = a2
        d = len(a) - 1
        cols = []
        for k in range(d):
            s = [mpmath.mpf(int(i == k)) for i in range(d)]
            for i in range(n - d):
                s.append(-mpmath.fsum(a[j] * s[i + j] for j in range(d)) / a[d])
            for _ in range(2):
                for u in cols:
                    c = mpmath.fdot(u, s)
                    s = [si - c * ui for si, ui in zip(s, u)]
            norm = mpmath.sqrt(mpmath.fdot(s, s))
            cols.append([si / norm for si in s])
        return np.array([[float(v) for v in col] for col in cols]).T


def whitened_lstsq_oracle(zw, xw):
    """q minimizing ‖xw − zw·q‖₂ through the scipy wrappers.

    Pivoted ``scipy.linalg.qr`` and ``solve_triangular``, raising
    ``np.linalg.LinAlgError`` once the R factor's condition estimate exceeds
    1e12.  The wrappers raise ``ValueError`` on a non-finite design or
    right-hand side.
    """
    q_mat, r_mat, piv = scipy.linalg.qr(zw, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r_mat))
    if diag[-1] == 0.0 or diag[0] / diag[-1] > 1e12:
        raise np.linalg.LinAlgError("weighted design lost column rank")
    y = scipy.linalg.solve_triangular(r_mat, q_mat.T @ xw)
    coeffs = np.empty_like(y)
    coeffs[piv] = y
    return coeffs


def grid_min_abs_loop_oracle(coeffs, base, alphas):
    """min_j |g_a| on the grid ``base`` rotated by each alpha: one plain
    Horner pass per rotation, in a loop over the rotations."""
    out = []
    for alpha in alphas:
        z = base * np.exp(-1j * alpha)
        acc = np.full(z.shape, complex(coeffs[-1]))
        for k in range(coeffs.size - 2, -1, -1):
            acc = acc * z + complex(coeffs[k])
        out.append(float(np.min(np.abs(acc))))
    return np.array(out)


# ---------------------------------------------------------------------------
# earlier forms of the basis route, kept to check later forms bit for bit
# ---------------------------------------------------------------------------


def find_rotation_oracle(coeffs, n):
    """The rotation α₀ of ``find_rotation`` as ``np.roots`` and numpy set
    operations on the candidate arrays give it; ``None`` where every
    candidate hits a root (the package raises there)."""
    coeffs = np.asarray(coeffs)
    if coeffs.dtype.kind not in "fc":
        coeffs = coeffs.astype(float)
    spacing = 2.0 * np.pi / n
    half = 0.5 * spacing
    cand = [half]
    mag = np.abs(coeffs)
    if np.all(np.isfinite(mag)) and mag.max() > 0.0:
        top = np.flatnonzero(mag > np.finfo(float).eps * mag.max())[-1]
        roots = np.roots(coeffs[top::-1])
        roots = roots[np.isfinite(roots) & (roots != 0)]
        near = roots[np.abs(np.log(np.abs(roots))) < spacing]
        forbidden = np.unique(np.mod(-np.angle(near), spacing))
        if forbidden.size:
            gaps = np.diff(np.append(forbidden, forbidden[0] + spacing))
            cand.extend(forbidden + 0.5 * gaps)
    wrapped = np.mod(np.asarray(cand) + half, spacing)
    wrapped[wrapped == 0.0] = spacing
    cand = wrapped - half
    base = np.exp(2j * np.pi * np.arange(n) / n)
    vals = grid_min_abs_loop_oracle(coeffs, base, cand)
    best = int(np.argmax(vals))
    if not vals[best] > 0.0:
        return None
    return float(cand[best])


def fhat_columns_oracle(values, untwist, eigenvalues, r, tau):
    """F̂ of ``fhat_matrix`` with M and the transforms held N×r, from the
    series values and the spectrum's untwist T_N(−α₀) and eigenvalues."""
    n = values.size
    m = np.empty((n - r, r), order="F")
    for col, j in enumerate(j for j in range(r + 1) if j != tau - 1):
        np.negative(values[j : j + n - r], out=m[:, col])
    m_ext = np.zeros((n, r), dtype=complex)
    m_ext[: n - r, :] = np.conj(untwist[: n - r])[:, None] * m
    y = np.fft.fft(m_ext, axis=0, norm="ortho") / eigenvalues[:, None]
    fhat = untwist[:, None] * np.fft.ifft(y, axis=0, norm="ortho")
    return np.ascontiguousarray(fhat.real)


def cgs2_oracle(l_rows):
    """Q and R̂ of ``nullspace._cgs2``, conjugating the finished columns
    afresh at every column."""
    r = l_rows.shape[0]
    q = np.empty_like(l_rows)
    rhat = np.zeros((r, r), dtype=complex)
    for k in range(r):
        v = l_rows[k]
        if k:
            done = q[:k]
            conj = done.conj()
            h = 0.0
            for _ in range(2):
                pass_h = np.add.reduce(conj * v, axis=1, keepdims=True)
                v = v - np.add.reduce(pass_h * done, axis=0)
                h = h + pass_h
            rhat[:k, k] = h[:, 0]
        parts = np.ravel(v.view(float))
        norm = float(np.sqrt(np.add.reduce(parts * parts)))
        rhat[k, k] = norm
        q[k] = v / norm
    return q, rhat


def mul_upper_broadcast_oracle(bands, x):
    """M·x for upper-triangular banded M, each band broadcast over the
    columns of a matrix x."""
    n = x.shape[0]
    out = np.zeros_like(x, dtype=float)
    for d, band in enumerate(bands):
        b = band if x.ndim == 1 else band[:, None]
        out[: n - d] += b * x[d:]
    return out


def mul_upper_t_broadcast_oracle(bands, x):
    """Mᵀ·x for upper-triangular banded M, each band broadcast over the
    columns of a matrix x."""
    n = x.shape[0]
    out = np.zeros_like(x, dtype=float)
    for d, band in enumerate(bands):
        b = band if x.ndim == 1 else band[:, None]
        out[d:] += b * x[: n - d]
    return out


def gram_upper_fresh_products_oracle(coeffs, chat_bands, n):
    """Γ = (ĈQ)ᵀ(ĈQ) in upper band storage, built band by band as
    ``_gram_upper`` builds it, but with every band product in a fresh
    array."""
    r = coeffs.size - 1
    p = len(chat_bands) - 1
    m = n - r
    mb = np.zeros((r + p + 1, m))
    for o in range(max(-p, 1 - m), r + 1):
        lo = max(0, -o)
        row = mb[o + p, lo:]
        for e in range(max(0, -o), min(p, r - o) + 1):
            row += coeffs[o + e] * chat_bands[e][lo + o : m + o]
    width = r + p
    ab = np.zeros((width + 1, m))
    for d in range(min(width, m - 1) + 1):
        band = ab[width - d, d:]
        for o in range(d - p, r + 1):
            band += mb[o + p, : m - d] * mb[o - d + p, d:]
    return ab


def vp_columns_block_oracle(factor, chat_bands, tau, x, pix, g=None):
    """K of ``_vp_columns`` from whole-block expressions: g zero-padded and
    Πx windowed into N×r and (N−r)×r blocks, W⁻¹ = ĈᵀĈ applied to the
    padded block with each band broadcast over its columns (``chat_bands``
    is None for W = I), and K = −padded − Q·Γ⁻¹(windows − QᵀW⁻¹·padded).
    Only the Γ⁻¹ solve is the factor's."""
    coeffs = factor.coeffs
    n, r = x.shape[0], factor.r
    m = n - r

    def q_t(v):
        return np.column_stack([np.correlate(col, coeffs, mode="valid") for col in v.T])

    def q(v):
        return np.column_stack([np.convolve(col, coeffs, mode="full") for col in v.T])

    if g is None:
        g = factor.solve(np.correlate(x, coeffs, mode="valid"))
    padded = np.zeros((n, r), order="F")
    windows = np.empty((m, r), order="F")
    for col, j in enumerate(j for j in range(r + 1) if j != tau - 1):
        padded[j : j + m, col] = g
        windows[:, col] = pix[j : j + m]
    if chat_bands is None:
        winv = padded.copy()
    else:
        chat = mul_upper_broadcast_oracle(chat_bands, padded)
        winv = mul_upper_t_broadcast_oracle(chat_bands, chat)
    rhs = windows - q_t(winv)
    return -padded - q(factor.solve(rhs))
