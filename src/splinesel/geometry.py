"""Geometric diagnostics of the criterion family.

Seen as estimating equations, the criteria trace curves through data space;
their statistical curvature measures how far each is from a straightforward
(exponential-family-like) problem, and the reversal statistic R0 detects
datasets on which the criterion's second-order behavior at the ideal
smoothing parameter flips sign, i.e. the criterion locally prefers moving
away from the optimum.  Low curvature and rare reversals go together.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import specfun
from ._rng import (
    replicate_block,
    replicate_normals,  # noqa: F401  bound here for perfbench/test_bench.py's tracer check
)
from .criteria import Criterion, loss_derivs
from .errors import NumericError
from .oracle import TruthSpectrum
from .spectrum import DesignSpectrum, weights

REVERSAL_MIN_REPLICATES = 1000  # the fewest draws reversal_probs_mc takes


@dataclass(frozen=True)
class ReversalSummary:
    """Normal approximation to the reversal probability at the ideal
    smoothing parameter lam0, for one criterion.

    M and V are the mean and variance of R0 (up to the positive factors
    lam0^2 and lam0^4 respectively, which cancel in the ratio); beta is the
    projection constant of R0.  M > 0 in well-behaved settings, so
    reversals are the lower tail of R0 and the approximation quantile
    T_n = -M/sqrt(V) is negative; prob_normal = Phi(T_n) approximates
    P(R0 < 0), which reversal_probs_mc estimates by Monte Carlo.
    """

    lam0: float
    beta: float
    M: float
    V: float
    T_n: float
    prob_normal: float


def normal_cdf(t: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-t / math.sqrt(2.0))


def _penalized_ab(spec: DesignSpectrum, lam: float):
    if lam <= 0:
        raise ValueError(f"geometry requires lam > 0, got {lam}")
    w = weights(spec, lam)
    nd = spec.null_dim
    return w.a[nd:], w.b[nd:]


def eta_curve(c: Criterion, spec: DesignSpectrum, lam: float):
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


def curvature_sq(c: Criterion, spec: DesignSpectrum, lam: float) -> float:
    """Squared statistical curvature, spectral-sum form.

    With B_i = b_i^((p-1)/q) and S_m = sum a^m B over penalized components:

        gamma^2 = ((p+q)^2 / (p c_q^(p-1))) ( S4/S2^2 - S3^2/S2^3 )

    Nonnegative by Cauchy-Schwarz; small curvature means the criterion
    behaves like a straight estimating equation near lam.
    """
    a, b = _penalized_ab(spec, lam)
    p, q = c.p, c.q
    B = b ** ((p - 1.0) / q)
    s2 = float(np.sum(a**2 * B))
    s3 = float(np.sum(a**3 * B))
    s4 = float(np.sum(a**4 * B))
    return (p + q) ** 2 / (p * c.c_q ** (p - 1.0)) * (s4 / s2**2 - s3**2 / s2**3)


def curvature_via_matrix(c: Criterion, spec: DesignSpectrum, lam: float) -> float:
    """Squared curvature from the defining Gram construction.

    gamma^2 = det(M) / (eta_dot' V eta_dot)^3 with V = diag(c_q^-(p+1)
    b^-(p+1)/q / p) and M the 2x2 Gram matrix of (eta_dot, eta_ddot) under
    V.  Agrees with curvature_sq to rounding; kept as the independent route
    that tests check curvature_sq against.
    """
    a, b = _penalized_ab(spec, lam)
    eta_dot, eta_ddot, _ = eta_curve(c, spec, lam)
    p, q = c.p, c.q
    V = c.c_q ** (-(p + 1.0)) * b ** (-(p + 1.0) / q) / p
    m11 = float(np.sum(eta_dot * V * eta_dot))
    m12 = float(np.sum(eta_ddot * V * eta_dot))
    m22 = float(np.sum(eta_ddot * V * eta_ddot))
    det = m11 * m22 - m12 * m12
    return det / m11**3


def reversal_beta(c: Criterion, spec: DesignSpectrum, lam0: float) -> float:
    """Projection constant beta removing the first-order direction from l''.

    beta = -(1/lam0) [ 2 - (1 + p/q) (sum a^3 b^(-2/q)) / (sum a^2 b^(-2/q)) ]
    over penalized components; the b-exponent is -2/q for every (p, q).
    """
    return _rho_beta(c, *_penalized_ab(spec, lam0), lam0)[1]


def _rho_beta(c: Criterion, a: np.ndarray, b: np.ndarray, lam0: float) -> tuple[float, float]:
    # rho = (sum a^3 b^(-2/q)) / (sum a^2 b^(-2/q)) and beta built from it.
    wb = b ** (-2.0 / c.q)
    rho = float(np.sum(a**3 * wb) / np.sum(a**2 * wb))
    return rho, -(2.0 - (1.0 + c.p / c.q) * rho) / lam0


def reversal_stat(c: Criterion, spec: DesignSpectrum, lam0: float, z) -> float:
    """R0(z) = l''(u) - beta l'(u) at the ideal smoothing parameter.

    u = |z|^(2/q); negative values mark the reversal region, where the
    criterion's local slope-curvature combination points away from lam0.
    """
    z = np.asarray(z, dtype=float)
    u = np.abs(z) ** (2.0 / c.q)
    ld, ldd = loss_derivs(c, spec, lam0, u)
    return ldd - reversal_beta(c, spec, lam0) * ld


def _r0_affine(c: Criterion, spec: DesignSpectrum, lam0: float):
    """R0 is affine in u: return (coeff on penalized u, constant).

    From the log-lam derivatives d1, d2 of the criterion (see
    criteria._log_derivs), R0 = (d2 - d1)/lam0^2 - beta d1/lam0.  With
    r = p/q and t = c_q b^(1/q) on the penalized components:

        coeff = r a t^p [(r a - b - 1)/lam0^2 - beta/lam0]
        base  = r sum a t^(p-1) [(1 - ((p-1)/q) a + b)/lam0^2 + beta/lam0]
    """
    a, b = _penalized_ab(spec, lam0)
    beta = _rho_beta(c, a, b, lam0)[1]
    p, q = c.p, c.q
    r = p / q
    lam2 = lam0 * lam0
    t = c.c_q * b ** (1.0 / q)
    atp1 = a * t ** (p - 1.0)
    coeff = r * atp1 * t * ((r * a - b - 1.0) / lam2 - beta / lam0)
    base = r * float(np.sum(atp1 * ((1.0 - ((p - 1.0) / q) * a + b) / lam2 + beta / lam0)))
    return coeff, base


def reversal_moments(criteria, spec: DesignSpectrum, truth: TruthSpectrum,
                     lam0: float) -> list[ReversalSummary]:
    """Mean/variance normal approximation to the reversal probability, for
    each criterion in a list.

    With rho = (sum a^3 b^(-2/q)) / (sum a^2 b^(-2/q)), B = b^((p-1)/q),
    and w-moments at the true g:

        M = (p/q^2)(p+q) c_q^(p-1) { (1/(p+q)) sum a^2 B
              + sum a B (a - rho)(c_q b^(1/q) E|z|^(2/q) - 1) }
        V = (p^2/q^4)(p+q)^2 c_q^(2p) sum a^2 b^(2p/q) (a - rho)^2 var w

    (common positive powers of lam0 dropped; they cancel in T_n).
    prob_normal = Phi(-M/sqrt(V)) approximates the lower-tail mass P(R0 < 0).
    The w-moments are computed once per distinct q and shared by the
    criteria that have it.
    """
    g = truth.g[spec.null_dim:]
    sets = {q: specfun.moment_set(g, q) for q in dict.fromkeys(c.q for c in criteria)}
    return [_reversal_moments_at(c, spec, lam0, sets[c.q]) for c in criteria]


def _reversal_moments_at(c: Criterion, spec: DesignSpectrum, lam0: float,
                         m: specfun.MomentSet) -> ReversalSummary:
    a, b = _penalized_ab(spec, lam0)
    p, q = c.p, c.q
    rho, beta = _rho_beta(c, a, b, lam0)
    B = b ** ((p - 1.0) / q)

    centered = c.c_q * b ** (1.0 / q) * m.m1 - 1.0
    M = (p / q**2) * (p + q) * c.c_q ** (p - 1.0) * (
        float(np.sum(a**2 * B)) / (p + q)
        + float(np.sum(a * B * (a - rho) * centered))
    )
    V = (p**2 / q**4) * (p + q) ** 2 * c.c_q ** (2.0 * p) * float(
        np.sum(a**2 * b ** (2.0 * p / q) * (a - rho) ** 2 * m.var_w)
    )
    if V <= 0:
        raise NumericError(f"reversal variance V = {V:.3e} is not positive")
    # M is the (positive) mean of R0, so reversals R0 < 0 are the lower
    # tail: the normal-approximation quantile is -M/sqrt(V), negative, with
    # magnitude growing in n as the reversal probability vanishes.
    t_n = -M / math.sqrt(V)
    return ReversalSummary(
        lam0=lam0, beta=beta, M=M, V=V,
        T_n=t_n, prob_normal=normal_cdf(t_n),
    )


def reversal_probs_mc(criteria, spec: DesignSpectrum, truth: TruthSpectrum, lam0: float,
                      replicates: int, seed: int) -> list[tuple[float, float]]:
    """Monte Carlo estimates of P(R0(z) < 0), with binomial standard errors,
    for each criterion on one shared set of draws.

    z ~ Normal(g, I) is keyed by (seed, n, replicate), not by criterion, so
    every criterion is evaluated on the same draws (common random numbers).
    Each chunk of draws is made once, in place; u = |z|^(2/q) is formed once
    per distinct q on the penalized components, and each criterion's affine
    R0 is evaluated on it.
    """
    if replicates < REVERSAL_MIN_REPLICATES:
        raise ValueError(f"reversal_probs_mc needs >= {REVERSAL_MIN_REPLICATES} replicates, "
                         f"got {replicates}")
    forms = [_r0_affine(c, spec, lam0) for c in criteria]
    by_q: dict[float, list[int]] = {}
    for i, c in enumerate(criteria):
        by_q.setdefault(c.q, []).append(i)
    nd = spec.null_dim
    hits = [0] * len(forms)
    chunk = 2000
    z = np.empty((min(chunk, replicates), spec.n))
    for start in range(0, replicates, chunk):
        stop = min(start + chunk, replicates)
        block = replicate_block(seed, spec.n, start, stop, out=z[:stop - start])
        block += truth.g
        for q, members in by_q.items():
            u = np.abs(block[:, nd:])
            u **= 2.0 / q
            for i in members:
                coeff, base = forms[i]
                hits[i] += int(np.sum(u @ coeff + base < 0.0))
            del u  # freed before the next q's u exists: one u per chunk at a time
    probs = [h / replicates for h in hits]
    return [(p, math.sqrt(max(p * (1.0 - p), 0.0) / replicates)) for p in probs]
