"""Independent routes that tests check the package's closed forms against.

They live with the tests, not in the package: nothing in splinesel calls
them, and each recomputes a package result by a different construction.
"""

import math

import numpy as np
from scipy.linalg import eigh, solveh_banded

from splinesel.criteria import (REFINE_LOG_TOL, Criterion, _log_derivs,
                                _screen, _values, loss_derivs)
from splinesel.errors import NumericError
from splinesel.geometry import _penalized_ab, reversal_beta
from splinesel.specfun import moment_set
from splinesel.spectrum import NEWTON_STEP_TOL, DesignSpectrum, _shrink, df, smooth


def gauss_hermite_expectation(g: float, fn, nodes: int = 64) -> float:
    """E[fn(Z)] for Z ~ Normal(g, 1) by fixed-node Gauss-Hermite quadrature.

    Cross-check companion for moment_set: exact for polynomial integrands up
    to degree 2*nodes - 1, a few digits short of that for integrands with a
    kink at zero (fractional powers of |z|).
    """
    x, w = np.polynomial.hermite.hermgauss(nodes)
    z = g + math.sqrt(2.0) * x
    vals = w * np.asarray(fn(z), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NumericError(f"gauss_hermite_expectation hit non-finite values at g={g}")
    return float(vals.sum() / math.sqrt(math.pi))


def eta_curve(c, spec, lam: float):
    """(eta_dot, eta_ddot, mu) on penalized components.

    eta_dot_i = -(p/(q lam)) a_i t_i^p with t_i = c_q b_i^(1/q);
    differentiating again via da/dlam = -ab/lam, db/dlam = ab/lam gives
    eta_ddot_i = (p/(q lam^2)) a_i t_i^p (1 + b_i - (p/q) a_i).
    mu_i = 1/t_i.
    """
    a, b = _penalized_ab(spec, lam)
    p, q = c.p, c.q
    t = c.c_q * b ** (1.0 / q)
    atp = a * t**p
    eta_dot = -(p / (q * lam)) * atp
    eta_ddot = p / (q * lam * lam) * atp * (1.0 + b - (p / q) * a)
    mu = 1.0 / t
    return eta_dot, eta_ddot, mu


def curvature_via_matrix(c, spec, lam: float) -> float:
    """Squared curvature from the defining Gram construction.

    gamma^2 = det(M) / (eta_dot' V eta_dot)^3 with V = diag(c_q^-(p+1)
    b^-(p+1)/q / p) and M the 2x2 Gram matrix of (eta_dot, eta_ddot) under
    V.  Agrees with geometry.curvature_sq to rounding.
    """
    _, b = _penalized_ab(spec, lam)
    eta_dot, eta_ddot, _ = eta_curve(c, spec, lam)
    p, q = c.p, c.q
    V = c.c_q ** (-(p + 1.0)) * b ** (-(p + 1.0) / q) / p
    m11 = float(np.sum(eta_dot * V * eta_dot))
    m12 = float(np.sum(eta_ddot * V * eta_dot))
    m22 = float(np.sum(eta_ddot * V * eta_ddot))
    det = m11 * m22 - m12 * m12
    return det / m11**3


def reversal_stat(c: Criterion, spec: DesignSpectrum, lam0: float, z) -> float:
    """R0(z) = l''(u) - beta l'(u) at the ideal smoothing parameter.

    u = |z|^(2/q); negative values mark the reversal region, where the
    criterion's local slope-curvature combination points away from lam0.
    """
    z = np.asarray(z, dtype=float)
    u = np.abs(z) ** (2.0 / c.q)
    ld, ldd = loss_derivs(c, spec, lam0, u)
    return ldd - reversal_beta(c, spec, lam0) * ld


def reversal_moments_closed_form(c, spec, g, lam0: float) -> tuple[float, float]:
    """(M, V) of the reversal statistic by the paper's closed form.

    With rho = (sum a^3 b^(-2/q)) / (sum a^2 b^(-2/q)), B = b^((p-1)/q), and
    w-moments at penalized g:

        M = (p/q^2)(p+q) c_q^(p-1) { (1/(p+q)) sum a^2 B
              + sum a B (a - rho)(c_q b^(1/q) E|z|^(2/q) - 1) }
        V = (p^2/q^4)(p+q)^2 c_q^(2p) sum a^2 b^(2p/q) (a - rho)^2 var w

    geometry.reversal_moments builds both from the affine form of R0
    instead; they agree to rounding.
    """
    a, b = _penalized_ab(spec, lam0)
    p, q = c.p, c.q
    wb = b ** (-2.0 / q)
    rho = float(np.sum(a**3 * wb) / np.sum(a**2 * wb))
    B = b ** ((p - 1.0) / q)
    m = moment_set(np.asarray(g, dtype=float)[spec.null_dim:], q)
    centered = c.c_q * b ** (1.0 / q) * m.m1 - 1.0
    M = (p / q**2) * (p + q) * c.c_q ** (p - 1.0) * (
        float(np.sum(a**2 * B)) / (p + q) + float(np.sum(a * B * (a - rho) * centered)))
    V = (p**2 / q**4) * (p + q) ** 2 * c.c_q ** (2.0 * p) * float(
        np.sum(a**2 * b ** (2.0 * p / q) * (a - rho) ** 2 * m.var_w))
    return M, V


def imhof_lower_tail(coeff, g, x: float) -> tuple[float, float]:
    """P(sum_j coeff_j z_j^2 < x) for independent z_j ~ Normal(g_j, 1), by
    Imhof's (1961) inversion integral; returns (probability, quad's error
    estimate on it).

    With l_j = coeff_j / max|coeff| and x scaled alike (the event is
    unchanged), P = 1/2 - (1/pi) int_0^inf sin(theta(u)) / (u rho(u)) du,
    theta(u) = (1/2) sum_j [arctan(l_j u) + g_j^2 l_j u / (1 + l_j^2 u^2)] - x u / 2,
    log rho(u) = (1/4) sum_j log(1 + l_j^2 u^2) + (1/2) sum_j g_j^2 l_j^2 u^2 / (1 + l_j^2 u^2).
    For q = 1, R0 = coeff . z^2 + base (geometry._r0_affine), so the
    reversal probability P(R0 < 0) is imhof_lower_tail(coeff, g, -base).
    """
    from scipy.integrate import quad

    scale = float(np.max(np.abs(coeff)))
    lam = np.asarray(coeff, dtype=float) / scale
    g2 = np.asarray(g, dtype=float) ** 2
    x = x / scale

    def integrand(u):
        lu = lam * u
        r = 1.0 + lu * lu
        theta = 0.5 * float(np.sum(np.arctan(lu) + g2 * lu / r)) - 0.5 * x * u
        log_rho = 0.25 * float(np.sum(np.log(r))) + 0.5 * float(np.sum(g2 * lu * lu / r))
        return math.sin(theta) / (u * math.exp(log_rho))

    value, err = quad(integrand, 0.0, math.inf, limit=500)
    return 0.5 - value / math.pi, err / math.pi


def curvature_denominator_closed_form(c, spec, lam: float, u) -> float:
    """The selection normalizer Q by the paper's closed form:

        sum a b^((p-1)/q) { (1/q) a + [ (1 + p/q) a - 2 ] (c_q b^(1/q) u - 1) }

    over penalized components.  oracle.curvature_denominator takes it from
    the criterion's log-lam derivatives instead; they agree to rounding.
    """
    a, b = _penalized_ab(spec, lam)
    up = np.asarray(u, dtype=float)[spec.null_dim:]
    p, q = c.p, c.q
    inner = a / q + ((1.0 + p / q) * a - 2.0) * (c.c_q * b ** (1.0 / q) * up - 1.0)
    return float(np.sum(a * b ** ((p - 1.0) / q) * inner))


def classic_statistics(spec: DesignSpectrum, lam: float, y, sigma: float,
                       omega: float = 1.0) -> tuple[float, float]:
    """Residual-based model statistics (cp, gcv) with inflation factor omega.

        cp  = ||y - f_hat||^2 + 2 omega sigma^2 df(lam) - n sigma^2
        gcv = ||y - f_hat||^2 / (1 - omega df(lam)/n)^2

    At omega = 1, minimizing cp over lam reproduces selection under the
    (2, 1) criterion applied to z = U'y/sigma.
    """
    if sigma <= 0:
        raise ValueError(f"classic_statistics requires sigma > 0, got {sigma}")
    if omega <= 0:
        raise ValueError(f"classic_statistics requires omega > 0, got {omega}")
    y = np.asarray(y, dtype=float)
    rss = float(np.sum((y - smooth(spec, lam, y)) ** 2))
    d = df(spec, lam)
    cp = rss + 2.0 * omega * sigma * sigma * d - spec.n * sigma * sigma
    shrink = 1.0 - omega * d / spec.n
    if shrink <= 0:
        raise ValueError(f"gcv undefined: omega * df = {omega * d:.6g} >= n = {spec.n}")
    gcv = rss / (shrink * shrink)
    return cp, gcv


def value_tables_reference(c: Criterion, b) -> tuple[np.ndarray, np.ndarray]:
    """(T, offset) of criterion c at the rows of shrunk fractions b, one
    expression per term.  criteria._value_tables forms the same table in
    place and must give these bits."""
    t = c.c_q * b ** (1.0 / c.q)
    if c.p == 1.0:
        return t, -np.sum(np.log(b), axis=-1) / c.q
    with np.errstate(divide="ignore"):  # t = 0 at lam = 0: expm1(-inf) = -1
        excess = np.expm1((c.p - 1.0) * np.log(t))
    return t**c.p, -np.sum((c.p / (c.p - 1.0)) * excess, axis=-1)


def decompose_reference(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K, k, U) of the design points x by the copying construction.

    K = Q R^{-1} Q' from the same band factors as spectrum.penalty_matrix,
    symmetrized out of place as 0.5 * (K + K'), and eigendecomposed by
    eigh on that matrix; k is clamped and U made C-ordered as
    spectrum.decompose does.  spectrum.penalty_matrix and
    spectrum.decompose symmetrize in place and hand LAPACK K's own buffer;
    both must give these bits.
    """
    n = len(x)
    h = np.diff(x)
    Q = np.zeros((n, n - 2))
    idx = np.arange(1, n - 1)
    Q[idx - 1, idx - 1] = 1.0 / h[idx - 1]
    Q[idx, idx - 1] = -1.0 / h[idx - 1] - 1.0 / h[idx]
    Q[idx + 1, idx - 1] = 1.0 / h[idx]
    band = np.zeros((2, n - 2))
    band[0] = (h[:-1] + h[1:]) / 3.0
    band[1, :-1] = h[1:-1] / 6.0
    K = Q @ solveh_banded(band, Q.T, lower=True)
    K = 0.5 * (K + K.T)
    k, U = eigh(K)
    k[:2] = 0.0
    k[2:] = np.maximum(k[2:], 0.0)
    return K, k, np.ascontiguousarray(U)


def log_lam_root_strict(x, lo, hi, g, h, slope, rows) -> np.ndarray:
    """The safeguarded Newton solve in log lam with the strict stop alone:
    a row stops once a step is below NEWTON_STEP_TOL (or its g is exactly
    zero), never on a predicted step.  g and h are given at the start x;
    otherwise as spectrum._log_lam_root."""
    step_old = hi - lo
    root = np.empty(len(rows))
    live = np.arange(len(rows))
    while len(live):
        lo = np.where(g < 0, x, lo)
        hi = np.where(g > 0, x, hi)
        step = np.divide(-g, h, out=np.full(len(live), np.inf), where=h > 0)
        newton = (lo <= x + step) & (x + step <= hi) & (np.abs(step) <= 0.5 * np.abs(step_old))
        step = np.where(newton, step, 0.5 * (lo + hi) - x) * (g != 0)
        x = x + step
        done = np.abs(step) < NEWTON_STEP_TOL
        root[live[done]] = np.exp(x[done])
        live, x, lo, hi, step_old = (v[~done] for v in (live, x, lo, hi, step))
        if len(live):
            g, h = slope(np.exp(x), rows[live])
    return root


def log_lam_root_strict_from_start(x, lo, hi, slope, rows) -> np.ndarray:
    """log_lam_root_strict with g and h evaluated at the start, in
    spectrum._log_lam_root's signature: lambdas_for_df with this solve in
    place of the package's is the strict df inverse."""
    return log_lam_root_strict(x, lo, hi, *slope(np.exp(x), rows), slope, rows)


def select_rows_reference(c: Criterion, spec: DesignSpectrum, U) -> tuple:
    """criteria._select_rows by the strict refinement: the screen's winner
    and downhill neighbour are tested with _log_derivs evaluated at both,
    and log_lam_root_strict starts at the winner.  The pick is the lower in
    value of winner and root, ties to the larger lam, where the package
    takes the root and compares no values.  The package's quadratic start
    and predicted-step stop must land within a few NEWTON_STEP_TOL of this
    pick.  Returns (lam_hat, df_hat, at_boundary), as _select_rows does."""
    nd = spec.null_dim
    kp, up = spec.k[nd:], U[:, nd:]

    def derivs(lams, rows):
        return _log_derivs(c, kp, up[rows], lams)

    coarse = _screen(c, spec, up)
    window = spec.window
    logs = np.log(window)
    rows = np.arange(coarse.shape[0])
    best = coarse.shape[1] - 1 - np.argmin(coarse[:, ::-1], axis=1)
    lam = window[best]
    value = coarse[rows, best]
    g, h = derivs(lam, rows)
    side = np.where(g < 0, best + 1, best - 1)
    bracketed = rows[(g != 0) & (side >= 0) & (side < len(window))]
    bracketed = bracketed[derivs(window[side[bracketed]], bracketed)[0] * g[bracketed] < 0]
    x = logs[best[bracketed]]
    lo = np.minimum(x, logs[side[bracketed]])
    hi = np.maximum(x, logs[side[bracketed]])
    root = log_lam_root_strict(x, lo, hi, g[bracketed], h[bracketed], derivs, bracketed)
    root_value = _values(c, kp, up[bracketed], root)
    coarse_value, coarse_lam = value[bracketed], lam[bracketed]
    take = (root_value < coarse_value) | ((root_value == coarse_value) & (root > coarse_lam))
    lam[bracketed[take]] = root[take]
    log_lam = np.log(lam)
    low = log_lam - logs[0] <= 2.0 * REFINE_LOG_TOL
    high = logs[-1] - log_lam <= 2.0 * REFINE_LOG_TOL
    flags = tuple("low-lambda" if at_low else "high-lambda" if at_high else "none"
                  for at_low, at_high in zip(low, high))
    return lam, _shrink(spec.k, lam)[0].sum(axis=1), flags
