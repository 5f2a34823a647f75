"""Special functions and moments of powers of noncentral Gaussians.

Everything downstream works in spectral coordinates where observations look
like Z ~ Normal(g, 1) and the selection criteria consume w = |Z|^(2/q).  This
module supplies the confluent hypergeometric function, fractional absolute
moments E|Z|^(2s), the normalizing constant c_q, the moment bundle needed by
the analytic variance/covariance approximations, and the closed-form
leading-order value of the spectral sums sum_i a^r b^s.  The series-based
functions take an array of arguments as readily as one scalar.  Log Gamma
comes from math.lgamma, so the module needs numpy only.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import NumericError

_SQRT_PI = math.sqrt(math.pi)

# Series controls for kummer_m: hard term cap, and convergence declared once
# the relative contribution stays below _KUMMER_RTOL for three terms running.
_KUMMER_MAX_TERMS = 500
_KUMMER_RTOL = 1e-16

# abs_moment and signed_moment take elements with |g| >= _QUADRATURE_MIN_ABS_G
# by the 40-node Gauss-Hermite sum below instead of the series, which
# needs ~g^2 / 2 terms and passes the term cap near |g| = 26.  There the kink
# of |z|^(2s) at zero sits where the Gaussian density is below 6e-15, and the
# sum is within 5e-16 of the exact moment up to |g| = 400; closer in, the
# kink costs it digits (6e-11 at |g| = 6).
_QUADRATURE_MIN_ABS_G = 8.0

# The 40-node Gauss-Hermite rule for E[f(Z)], Z ~ Normal(0, 1): the nodes and
# weights of numpy.polynomial.hermite_e.hermegauss(40), the weights divided by
# sqrt(2 pi), written as the repr of each float64, so no process imports
# numpy.polynomial or runs its eigensolve.  Shared read-only.
_HERMITE_NODES = np.array([
    -11.45337784154873, -10.481560534674266, -9.673556366934031, -8.949504543855554,
    -8.278940623659476, -7.646163764541462, -7.041738406453829, -6.459423377583767,
    -5.894805675372018, -5.344605445720086, -4.8062871920938735, -4.2778261563627495,
    -3.757559776168986, -3.24408873299987, -2.736208340465431, -2.232859218634872,
    -1.7330905906317213, -1.2360320047991582, -0.7408707252859305, -0.24683289602272435,
    0.24683289602272435, 0.7408707252859305, 1.2360320047991582, 1.7330905906317213,
    2.232859218634872, 2.736208340465431, 3.24408873299987, 3.757559776168986,
    4.2778261563627495, 4.8062871920938735, 5.344605445720086, 5.894805675372018,
    6.459423377583767, 7.041738406453829, 7.646163764541462, 8.278940623659476,
    8.949504543855554, 9.673556366934031, 10.481560534674266, 11.45337784154873,
])
_HERMITE_WEIGHTS = np.array([
    1.4618398738694013e-29, 4.820467940200815e-25, 1.4486094315515699e-21,
    1.1222752068271202e-18, 3.389853443248337e-16, 4.9680885291977655e-14,
    4.037638581695204e-12, 1.989118526027772e-10, 6.3258971885488815e-09,
    1.3603424215748782e-07, 2.0488974360814558e-06, 2.2211771432475887e-05,
    0.00017707292879924047, 0.0010558790169018135, 0.00477354488182336, 0.01653784414256941,
    0.044274555202276855, 0.09217657917006078, 0.14992111176357079, 0.19105900966199038,
    0.19105900966199038, 0.14992111176357079, 0.09217657917006078, 0.044274555202276855,
    0.01653784414256941, 0.00477354488182336, 0.0010558790169018135, 0.00017707292879924047,
    2.2211771432475887e-05, 2.0488974360814558e-06, 1.3603424215748782e-07,
    6.3258971885488815e-09, 1.989118526027772e-10, 4.037638581695204e-12,
    4.9680885291977655e-14, 3.389853443248337e-16, 1.1222752068271202e-18,
    1.4486094315515699e-21, 4.820467940200815e-25, 1.4618398738694013e-29,
])
_HERMITE_NODES.flags.writeable = _HERMITE_WEIGHTS.flags.writeable = False


def log_gamma_and_beta(x: float, y: float) -> tuple[float, float]:
    """Return (log Gamma(x), B(x, y)) for strictly positive x, y.

    B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y), evaluated on the log scale so
    moderate arguments (up to ~50) keep full relative accuracy.
    """
    if x <= 0 or y <= 0:
        raise ValueError(f"log_gamma_and_beta requires x, y > 0, got ({x}, {y})")
    lg = math.lgamma(x)
    beta = math.exp(lg + math.lgamma(y) - math.lgamma(x + y))
    return lg, beta


def kummer_m(a: float, b: float, z: float | np.ndarray) -> float | np.ndarray:
    """Confluent hypergeometric function M(a, b, z) = sum_k (a)_k z^k / ((b)_k k!).

    z may be a scalar or an array; the series runs across the elements, each
    stopping at its own convergence point, and a scalar z returns a float.
    For z < 0 the series alternates and cancels badly, so it is evaluated
    through M(a, b, z) = exp(z) M(b - a, b, -z), whose terms are
    better-behaved, unless a is a nonpositive integer: M is then a polynomial
    with terms >= 0 for z < 0, summed directly, as the transformed series
    would hit the term cap at large |z|.  b must not be a nonpositive integer.
    """
    if b <= 0 and b == math.floor(b):
        raise ValueError(f"kummer_m undefined for nonpositive integer b={b}")
    zf = np.asarray(z, dtype=float).ravel()
    flip = (zf < 0) & (a > 0 or a != math.floor(a))
    # One series in (a, z), with (b - a, -z) where z < 0 is transformed, runs
    # across the elements; each leaves the active set once its relative term
    # has stayed below _KUMMER_RTOL for three terms running.
    a, x = np.where(flip, b - a, a), np.where(flip, -zf, zf)
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
    out[flip] *= [math.exp(v) for v in zf[flip]]
    return float(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))


def c_q(q: float) -> float:
    """Normalizing constant c_q = sqrt(pi) / (2^(1/q) Gamma(1/2 + 1/q)).

    Chosen so that c_q * E|Z|^(2/q) = 1 when Z is standard normal (g = 0).
    """
    if q < 1:
        raise ValueError(f"c_q requires q >= 1, got {q}")
    return _SQRT_PI / (2.0 ** (1.0 / q) * math.exp(math.lgamma(0.5 + 1.0 / q)))


def abs_moment(g: float | np.ndarray, s: float) -> float | np.ndarray:
    """E|Z|^(2s) for Z ~ Normal(g, 1), any real order s > -1/2.

    Equals (2^s / sqrt(pi)) Gamma(s + 1/2) M(-s, 1/2, -g^2/2); reduces to the
    familiar polynomial moments at integer s (s=1 gives 1 + g^2).  Elementwise
    over an array g.
    """
    if s <= -0.5:
        raise ValueError(f"abs_moment requires s > -1/2, got {s}")
    factor = 2.0**s / _SQRT_PI * math.exp(math.lgamma(s + 0.5))
    return _by_size(g, lambda g: factor * kummer_m(-s, 0.5, -0.5 * g * g),
                    lambda z: np.abs(z) ** (2.0 * s))


def signed_moment(g: float | np.ndarray, s: float) -> float | np.ndarray:
    """E[Z |Z|^(2s)] for Z ~ Normal(g, 1), s > -1; elementwise over an array g.

    The odd companion of abs_moment:
    g * (2^(s+1) Gamma(s + 3/2) / sqrt(pi)) M(-s, 3/2, -g^2/2).
    Vanishes at g = 0 by symmetry; s=1 recovers E[Z^3] = g^3 + 3g.
    """
    if s <= -1.0:
        raise ValueError(f"signed_moment requires s > -1, got {s}")
    factor = 2.0 ** (s + 1.0) / _SQRT_PI * math.exp(math.lgamma(s + 1.5))
    return _by_size(g, lambda g: g * factor * kummer_m(-s, 1.5, -0.5 * g * g),
                    lambda z: z * np.abs(z) ** (2.0 * s))


def _by_size(g, series, integrand):
    # series(g) below _QUADRATURE_MIN_ABS_G in |g|, and at or above it the
    # Gauss-Hermite sum of E[integrand(Z)] for Z ~ Normal(g, 1); a scalar g
    # returns a float.
    far = np.abs(g) >= _QUADRATURE_MIN_ABS_G
    if not np.any(far):
        return series(g)
    gf = np.asarray(g, dtype=float)
    out = np.empty(gf.shape)
    out[~far] = series(gf[~far])
    out[far] = (integrand(gf[far][:, None] + _HERMITE_NODES) * _HERMITE_WEIGHTS).sum(axis=-1)
    return float(out) if np.ndim(g) == 0 else out


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
    bundle comes from abs_moment and signed_moment: the confluent
    hypergeometric series, or Gauss-Hermite quadrature at |g| >= 8.
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
