"""Special functions and moments of powers of noncentral Gaussians.

Everything downstream works in spectral coordinates where observations look
like Z ~ Normal(g, 1) and the selection criteria consume w = |Z|^(2/q).  This
module supplies the confluent hypergeometric function, fractional absolute
moments E|Z|^(2s), the normalizing constant c_q, the moment bundle needed by
the analytic variance/covariance approximations, and the closed-form
leading-order value of the spectral sums sum_i a^r b^s.  The series-based
functions take an array of arguments as readily as one scalar.
"""

from dataclasses import dataclass
import math

import numpy as np
from scipy.special import gammaln

from .errors import NumericError

_SQRT_PI = math.sqrt(math.pi)

# Series controls for kummer_m: hard term cap, and convergence declared once
# the relative contribution stays below _KUMMER_RTOL for three terms running.
_KUMMER_MAX_TERMS = 500
_KUMMER_RTOL = 1e-16


def log_gamma_and_beta(x: float, y: float) -> tuple[float, float]:
    """Return (log Gamma(x), B(x, y)) for strictly positive x, y.

    B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y), evaluated on the log scale so
    moderate arguments (up to ~50) keep full relative accuracy.
    """
    if x <= 0 or y <= 0:
        raise ValueError(f"log_gamma_and_beta requires x, y > 0, got ({x}, {y})")
    lg = float(gammaln(x))
    beta = math.exp(lg + float(gammaln(y)) - float(gammaln(x + y)))
    return lg, beta


def kummer_m(a: float, b: float, z: float | np.ndarray) -> float | np.ndarray:
    """Confluent hypergeometric function M(a, b, z) = sum_k (a)_k z^k / ((b)_k k!).

    z may be a scalar or an array; the series runs across the elements, each
    stopping at its own convergence point, and a scalar z returns a float.
    For z < 0 the series alternates and cancels badly, so it is evaluated
    through M(a, b, z) = exp(z) M(b - a, b, -z), whose terms are
    better-behaved.  b must not be a nonpositive integer.
    """
    if b <= 0 and b == math.floor(b):
        raise ValueError(f"kummer_m undefined for nonpositive integer b={b}")
    zf = np.asarray(z, dtype=float).ravel()
    neg = zf < 0
    # One series in (a, |z|), with b - a for a where z < 0, runs across the
    # elements; each leaves the active set once its relative term has stayed
    # below _KUMMER_RTOL for three terms running.
    a, x = np.where(neg, b - a, a), np.abs(zf)
    out = np.empty(zf.shape)
    idx = np.arange(zf.size)
    term, total = np.ones(zf.shape), np.ones(zf.shape)
    streak = np.zeros(zf.shape, dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(_KUMMER_MAX_TERMS):
            if not idx.size:
                break
            term *= (a + k) * x / ((b + k) * (k + 1))
            total += term
            small = np.abs(term) < _KUMMER_RTOL * np.maximum(np.abs(total), 1e-300)
            streak = np.where(small, streak + 1, 0)
            done = streak >= 3
            if done.any():
                out[idx[done]] = total[done]
                idx, a, x, term, total, streak = (
                    v[~done] for v in (idx, a, x, term, total, streak))
    if idx.size:
        raise NumericError(
            f"kummer_m series failed to converge within {_KUMMER_MAX_TERMS} terms "
            f"(a={a[0]}, b={b}, z={x[0]})"
        )
    # math.exp per element: np.exp can differ from it in the last bit.
    out[neg] *= [math.exp(v) for v in zf[neg]]
    return float(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))


def c_q(q: float) -> float:
    """Normalizing constant c_q = sqrt(pi) / (2^(1/q) Gamma(1/2 + 1/q)).

    Chosen so that c_q * E|Z|^(2/q) = 1 when Z is standard normal (g = 0).
    """
    if q < 1:
        raise ValueError(f"c_q requires q >= 1, got {q}")
    return _SQRT_PI / (2.0 ** (1.0 / q) * math.exp(float(gammaln(0.5 + 1.0 / q))))


def abs_moment(g: float | np.ndarray, s: float) -> float | np.ndarray:
    """E|Z|^(2s) for Z ~ Normal(g, 1), any real order s > -1/2.

    Equals (2^s / sqrt(pi)) Gamma(s + 1/2) M(-s, 1/2, -g^2/2); reduces to the
    familiar polynomial moments at integer s (s=1 gives 1 + g^2).  Elementwise
    over an array g.
    """
    if s <= -0.5:
        raise ValueError(f"abs_moment requires s > -1/2, got {s}")
    factor = 2.0**s / _SQRT_PI * math.exp(float(gammaln(s + 0.5)))
    return factor * kummer_m(-s, 0.5, -0.5 * g * g)


def signed_moment(g: float | np.ndarray, s: float) -> float | np.ndarray:
    """E[Z |Z|^(2s)] for Z ~ Normal(g, 1), s > -1; elementwise over an array g.

    The odd companion of abs_moment:
    g * (2^(s+1) Gamma(s + 3/2) / sqrt(pi)) M(-s, 3/2, -g^2/2).
    Vanishes at g = 0 by symmetry; s=1 recovers E[Z^3] = g^3 + 3g.
    """
    if s <= -1.0:
        raise ValueError(f"signed_moment requires s > -1, got {s}")
    factor = 2.0 ** (s + 1.0) / _SQRT_PI * math.exp(float(gammaln(s + 1.5)))
    return g * factor * kummer_m(-s, 1.5, -0.5 * g * g)


@dataclass(frozen=True)
class MomentSet:
    """Moments of w = |Z|^(2/q) for Z ~ Normal(g, 1).

    m1, m2 are the first two moments of w; the mixed moments pair w with Z
    and Z^2, and third_mixed = E[(Z^2 - g^2 - 1)(w - m1)^2] feeds the
    second-order variability approximation.  Each field is a float for a
    scalar g and an elementwise array for an array g.
    """

    g: float | np.ndarray
    q: float
    m1: float | np.ndarray
    m2: float | np.ndarray
    var_w: float | np.ndarray
    cov_z2_w: float | np.ndarray
    cov_z_w: float | np.ndarray
    third_mixed: float | np.ndarray


def moment_set(g: float | np.ndarray, q: float) -> MomentSet:
    """All moments of w = |Z|^(2/q) needed by the analytic approximations.

    q = 1 uses the exact quadratic-form identities (w = Z^2).  For q > 1
    every field still reduces to absolute/signed moments of Z, so the whole
    bundle is evaluated in closed form through the confluent hypergeometric
    series; no quadrature is involved.
    """
    if q < 1:
        raise ValueError(f"moment_set requires q >= 1, got {q}")
    if q == 1.0:
        g2 = g * g
        return MomentSet(
            g=g,
            q=q,
            m1=1.0 + g2,
            m2=g2 * g2 + 6.0 * g2 + 3.0,
            var_w=2.0 + 4.0 * g2,
            cov_z2_w=2.0 + 4.0 * g2,
            cov_z_w=2.0 * g,
            third_mixed=8.0 + 24.0 * g2,
        )
    s = 1.0 / q
    ez2 = 1.0 + g * g
    m1 = abs_moment(g, s)
    m2 = abs_moment(g, 2.0 * s)
    var_w = m2 - m1 * m1
    # z^2 w = |z|^(2(1+s)) and z^2 w^2 = |z|^(2(1+2s)): plain absolute moments.
    ez2w = abs_moment(g, 1.0 + s)
    ez2w2 = abs_moment(g, 1.0 + 2.0 * s)
    cov_z2_w = ez2w - ez2 * m1
    cov_z_w = signed_moment(g, s) - g * m1
    third = (ez2w2 - 2.0 * m1 * ez2w + m1 * m1 * ez2) - ez2 * var_w
    return MomentSet(
        g=g, q=q, m1=m1, m2=m2, var_w=var_w,
        cov_z2_w=cov_z2_w, cov_z_w=cov_z_w, third_mixed=third,
    )


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
    return float(vals.sum() / _SQRT_PI)


def asym_sum(r: float, s: float, n: int, lam: float) -> float:
    """Leading-order value of the spectral sum sum_i a_i^r b_i^s.

    For an equispaced design the sum over penalized components behaves like
    (1/4pi) B(r - 1/4, s + 1/4) (n/lam)^(1/4) as n/lam grows, which is what
    this returns.  Requires r > 1/4, s > -1/4, lam > 0.
    """
    if r <= 0.25 or s <= -0.25:
        raise ValueError(f"asym_sum requires r > 1/4 and s > -1/4, got ({r}, {s})")
    if lam <= 0:
        raise ValueError(f"asym_sum requires lam > 0, got {lam}")
    if n < 1:
        raise ValueError(f"asym_sum requires n >= 1, got {n}")
    _, beta = log_gamma_and_beta(r - 0.25, s + 0.25)
    return beta / (4.0 * math.pi) * (n / lam) ** 0.25
