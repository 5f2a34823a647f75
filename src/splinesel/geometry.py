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
    replicate_normals,  # noqa: F401  bound here for perfbench/test_bench.py's tracer check
    spectral_blocks,
)
from .criteria import Criterion, _deriv_terms
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
    nd = spec.null_dim
    return tuple(v[nd:] for v in weights(spec, lam))


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


def reversal_beta(c: Criterion, spec: DesignSpectrum, lam0: float) -> float:
    """Projection constant beta removing the first-order direction from l''.

    beta = -(1/lam0) [ 2 - (1 + p/q) (sum a^3 b^(-2/q)) / (sum a^2 b^(-2/q)) ]
    over penalized components; the b-exponent is -2/q for every (p, q).
    """
    a, b = _penalized_ab(spec, lam0)
    wb = b ** (-2.0 / c.q)
    rho = float(np.sum(a**3 * wb) / np.sum(a**2 * wb))
    return -(2.0 - (1.0 + c.p / c.q) * rho) / lam0


def _r0_affine(c: Criterion, spec: DesignSpectrum, lam0: float, beta: float | None = None):
    """R0 is affine in u: return (coeff on penalized u, constant).

    From the log-lam derivatives d1, d2 of the criterion,
    lam0^2 R0 = d2 - d1 - beta lam0 d1.  With the affine terms
    (s, e, s0, c0) of criteria._deriv_terms:

        coeff = (p/q) s (e - 1 - beta lam0) / lam0^2
        base  = (p/q) [ (1 + beta lam0) s0 - c0 ] / lam0^2

    beta is reversal_beta at lam0, computed here unless the caller has it.
    """
    if beta is None:
        beta = reversal_beta(c, spec, lam0)
    bl = beta * lam0
    s, e, s0, c0 = _deriv_terms(c, spec.k[spec.null_dim:], lam0)
    scale = c.p / c.q / (lam0 * lam0)
    return scale * s * (e - 1.0 - bl), scale * float((1.0 + bl) * s0 - c0)


def reversal_moments(criteria, spec: DesignSpectrum, truth: TruthSpectrum,
                     lam0: float) -> list[ReversalSummary]:
    """Mean/variance normal approximation to the reversal probability, for
    each criterion in a list.

    R0 = coeff . w + base is affine in w = |z|^(2/q) (see _r0_affine), so
    with the w-moments at the true g

        M = lam0^2 E[R0] = lam0^2 (sum coeff E w + base)
        V = lam0^4 Var[R0] = lam0^4 sum coeff^2 var w

    prob_normal = Phi(-M/sqrt(V)) approximates the lower-tail mass P(R0 < 0);
    M or V not finite, or V <= 0, raises NumericError.  The w-moments are
    computed once per distinct q and shared by the criteria that have it.
    """
    g = truth.g[spec.null_dim:]
    sets = {q: specfun.moment_set(g, q) for q in dict.fromkeys(c.q for c in criteria)}
    return [_reversal_moments_at(c, spec, lam0, sets[c.q]) for c in criteria]


def _reversal_moments_at(c: Criterion, spec: DesignSpectrum, lam0: float,
                         m: specfun.MomentSet) -> ReversalSummary:
    beta = reversal_beta(c, spec, lam0)
    coeff, base = _r0_affine(c, spec, lam0, beta)
    lam2 = lam0 * lam0
    M = lam2 * (float(np.sum(coeff * m.m1)) + base)
    V = lam2 * lam2 * float(np.sum(coeff * coeff * m.var_w))
    if not (math.isfinite(M) and math.isfinite(V) and V > 0):
        raise NumericError(f"reversal moments M = {M:.3e}, V = {V:.3e} are not finite "
                           "with V > 0")
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
    Draws are made a block at a time into one buffer (spectral_blocks), so
    the working set is one block whatever the replicate count; u = |z|^(2/q)
    is formed once per distinct q on the penalized components, and each
    criterion's affine R0 is evaluated on it.
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
    for _, block in spectral_blocks(seed, spec.n, replicates, truth.g):
        for q, members in by_q.items():
            u = np.abs(block[:, nd:])
            u **= 2.0 / q
            for i in members:
                coeff, base = forms[i]
                hits[i] += int(np.sum(u @ coeff + base < 0.0))
            del u  # freed before the next q's u exists: one u per block at a time
    probs = [h / replicates for h in hits]
    return [(p, math.sqrt(max(p * (1.0 - p), 0.0) / replicates)) for p in probs]
