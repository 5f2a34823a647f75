"""Independent routes that tests check the package's closed forms against.

They live with the tests, not in the package: nothing in splinesel calls
them, and each recomputes a package result by a different construction.
"""

import math

import numpy as np

from splinesel.errors import NumericError
from splinesel.geometry import _penalized_ab


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
