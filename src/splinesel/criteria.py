"""The unified two-parameter family of selection criteria and data-driven selection.

A criterion is indexed by (p, q) with p, q >= 1.  Writing b_i for the shrunk
fraction at smoothing parameter lam, t_i = c_q b_i^(1/q), and u_i = |z_i|^(2/q)
for the rotated data z, the criterion value is

    p > 1:  sum_i [ t_i^p u_i - (p/(p-1)) (t_i^(p-1) - 1) ]
    p = 1:  sum_i [ t_i u_i - (1/q) log b_i ]

summed over penalized components (k_i > 0); the null components contribute
constants for p > 1 and are undefined at p = 1.  The classical trio is
cp = (2, 1), gml = (1, 1), ee = (3/2, 3/2): all three are recovered exactly,
up to positive-affine transforms that leave the minimizer unchanged.

Selection minimizes the criterion over a degrees-of-freedom window: a coarse
screen over a df-equispaced grid whose log-lam gaps are capped at
MAX_LOG_GAP, then a safeguarded Newton solve for the root of the analytic
slope in log lam next to the screen's winner.
"""

from dataclasses import dataclass
from functools import partial
import math
import re

import numpy as np

from . import specfun
from .spectrum import DesignSpectrum, SmootherWeights, df, lambdas_for_df, smooth, weights

# Search window in degrees of freedom: just inside the interpolation end
# (df = n) and just above the null fit (df = 2), per-spectrum.
DF_WINDOW_LO = 2.1
DF_WINDOW_MARGIN = 0.5
COARSE_CANDIDATES = 201
# Largest log-lam gap left between neighbouring window points: where the
# df-equispaced grid is sparser (the smooth end), log-uniform points fill in.
MAX_LOG_GAP = 0.25
# A pick within 2 * REFINE_LOG_TOL (in log lam) of a window end is flagged.
REFINE_LOG_TOL = 1e-6
# The Newton solve stops once a step in log lam is smaller than this.
NEWTON_STEP_TOL = 1e-12


@dataclass(frozen=True)
class Criterion:
    """One member of the (p, q) family; c_q is cached at construction."""

    name: str
    p: float
    q: float
    c_q: float


def make_criterion(p: float, q: float, name: str | None = None) -> Criterion:
    if p < 1 or q < 1:
        raise ValueError(f"criterion requires p >= 1 and q >= 1, got ({p}, {q})")
    if name is None:
        name = f"p{p:g}q{q:g}"
    return Criterion(name=name, p=float(p), q=float(q), c_q=specfun.c_q(q))


CP = make_criterion(2.0, 1.0, "cp")
GML = make_criterion(1.0, 1.0, "gml")
EE = make_criterion(1.5, 1.5, "ee")

_BY_NAME = {c.name: c for c in (CP, GML, EE)}


def criterion_by_name(name: str) -> Criterion:
    """Look up cp/gml/ee, or parse a custom 'p<var>q<var>' id."""
    key = name.strip().lower()
    if key in _BY_NAME:
        return _BY_NAME[key]
    m = re.fullmatch(r"p([0-9.]+)q([0-9.]+)", key)
    if m:
        return make_criterion(float(m.group(1)), float(m.group(2)))
    raise ValueError(f"unknown criterion {name!r}")


@dataclass(frozen=True)
class SelectionResult:
    lam_hat: float
    df_hat: float
    loss: float
    at_boundary: str  # "none" | "low-lambda" | "high-lambda"


def loss(c: Criterion, w: SmootherWeights, u) -> float:
    """Criterion value at one smoothing parameter.

    u must be the full-length vector |z|^(2/q) (nonnegative); only its
    penalized entries matter.  For p = 1 the value diverges as lam -> 0, and
    lam = 0 itself is a domain error (log of zero).
    """
    u = np.asarray(u, dtype=float)
    if u.shape != w.a.shape:
        raise ValueError(f"u must have length {len(w.a)}, got shape {u.shape}")
    if np.any(u < 0):
        raise ValueError("u must be nonnegative")
    nd = w.null_dim
    b = w.b[nd:]
    up = u[nd:]
    if c.p == 1.0:
        if np.any(b <= 0):
            raise ValueError("p = 1 criterion undefined at lam = 0 (log of zero)")
        t = c.c_q * b ** (1.0 / c.q)
        return float(np.sum(t * up - np.log(b) / c.q))
    t = c.c_q * b ** (1.0 / c.q)
    return float(np.sum(t**c.p * up - (c.p / (c.p - 1.0)) * (t ** (c.p - 1.0) - 1.0)))


def _log_derivs(c: Criterion, kp: np.ndarray, up: np.ndarray,
                lam: float) -> tuple[float, float]:
    """First and second log-lam derivatives of the criterion, unchecked.

    kp and up are the penalized eigenvalues and entries of u.  With
    da/dlog lam = -ab, db/dlog lam = ab and t = c_q b^(1/q):

        dl/dlog lam   = (p/q) [ sum a t^p u - sum a t^(p-1) ]
        d2l/dlog lam2 = (p/q) [ sum a t^p ((p/q)a - b) u
                                - sum a t^(p-1) (((p-1)/q)a - b) ]
    """
    p, q = c.p, c.q
    denom = 1.0 + lam * kp
    a = 1.0 / denom
    b = lam * kp / denom
    t = c.c_q * b ** (1.0 / q)
    atp1 = a * t ** (p - 1.0)
    atpu = atp1 * t * up
    r = p / q
    d1 = r * (float(atpu.sum()) - float(atp1.sum()))
    d2 = r * (float(np.dot(atpu, r * a - b))
              - float(np.dot(atp1, ((p - 1.0) / q) * a - b)))
    return d1, d2


def loss_derivs(c: Criterion, spec: DesignSpectrum, lam: float, u) -> tuple[float, float]:
    """First and second lam-derivatives of the criterion at lam > 0.

    From the log-lam derivatives d1, d2 of the shared kernel:
    l' = d1 / lam and l'' = (d2 - d1) / lam^2.
    """
    if lam <= 0:
        raise ValueError(f"loss_derivs requires lam > 0, got {lam}")
    u = np.asarray(u, dtype=float)
    if u.shape != (spec.n,):
        raise ValueError(f"u must have length {spec.n}, got shape {u.shape}")
    nd = spec.null_dim
    d1, d2 = _log_derivs(c, spec.k[nd:], u[nd:], lam)
    return d1 / lam, (d2 - d1) / (lam * lam)


# --- search window ----------------------------------------------------------


@dataclass
class SelectionWindow:
    """Precomputed coarse grid for one spectrum, shared across replicates.

    lambdas ascend from df = n - 0.5 down to df = 2.1: the df-equispaced
    points plus log-uniform fill-ins wherever a log-lam gap exceeds
    MAX_LOG_GAP.  b is the (candidates x n) shrunk-fraction table.  Power
    tables per criterion are cached lazily since they do not depend on the
    data.
    """

    spec: DesignSpectrum
    lambdas: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self._powers: dict[tuple[float, float], tuple[np.ndarray, np.ndarray]] = {}

    def criterion_tables(self, c: Criterion) -> tuple[np.ndarray, np.ndarray]:
        """(T, offset): coarse losses are T @ u_penalized + offset."""
        key = (c.p, c.q)
        cached = self._powers.get(key)
        if cached is not None:
            return cached
        nd = self.spec.null_dim
        b = self.b[:, nd:]
        t = c.c_q * b ** (1.0 / c.q)
        if c.p == 1.0:
            T = t
            offset = -np.sum(np.log(b), axis=1) / c.q
        else:
            T = t**c.p
            offset = -np.sum((c.p / (c.p - 1.0)) * (t ** (c.p - 1.0) - 1.0), axis=1)
        self._powers[key] = (T, offset)
        return T, offset


def selection_window(spec: DesignSpectrum, candidates: int = COARSE_CANDIDATES) -> SelectionWindow:
    """Build the candidate grid for one spectrum.

    `candidates` df-equispaced points (both ends included, kept exactly),
    with log-uniform points inserted so no log-lam gap exceeds MAX_LOG_GAP.
    """
    targets = np.linspace(spec.n - DF_WINDOW_MARGIN, DF_WINDOW_LO, candidates)
    coarse = lambdas_for_df(spec, targets)
    logs = np.log(coarse)
    parts = [coarse[:1]]
    for i, gap in enumerate(np.diff(logs)):
        pieces = math.ceil(gap / MAX_LOG_GAP)
        if pieces > 1:
            parts.append(np.exp(np.linspace(logs[i], logs[i + 1], pieces + 1)[1:-1]))
        parts.append(coarse[i + 1:i + 2])
    lambdas = np.concatenate(parts)
    lk = lambdas[:, None] * spec.k[None, :]
    return SelectionWindow(spec=spec, lambdas=lambdas, b=lk / (1.0 + lk))


def _argmin_prefer_larger(values: np.ndarray) -> int:
    # np.argmin takes the first of tied minima; scanning the reversed array
    # makes ties resolve toward larger lam (ascending lam ordering).
    return len(values) - 1 - int(np.argmin(values[::-1]))


def _slope_root(derivs, lo: float, hi: float, x: float, g: float, h: float) -> float:
    """Root of the log-lam slope inside [lo, hi] by safeguarded Newton.

    The slope is negative at lo and positive at hi; x is one of the two
    ends, with slope g and curvature h there.  A Newton step that would
    leave the bracket, or that does not halve the previous step, becomes a
    bisection step.  Stops once a step is below NEWTON_STEP_TOL.
    """
    step_old = hi - lo
    while True:
        if g < 0:
            lo = x
        elif g > 0:
            hi = x
        else:
            return x
        step = -g / h if h > 0 else math.inf
        if not (lo <= x + step <= hi and abs(step) <= 0.5 * abs(step_old)):
            step = 0.5 * (lo + hi) - x
        x += step
        if abs(step) < NEWTON_STEP_TOL:
            return x
        step_old = step
        g, h = derivs(math.exp(x))


def minimize_on_window(window: SelectionWindow, coarse_values, objective,
                       derivs) -> tuple[float, float, str]:
    """The one scalar minimizer over the smoothing-parameter window.

    coarse_values holds the objective at every window point; ties resolve
    to the larger lam.  objective(lam) is the value and derivs(lam) the
    first and second derivatives in log lam.  Of the two pairs formed by
    the coarse winner and its neighbours, only the one on the downhill side
    of the winner's slope can hold a minimum; when the slope changes sign
    across it, a safeguarded Newton solve finds the root.  The pick is the
    lowest objective among the coarse winner and that root, ties again to
    the larger lam; it is flagged when it lies within 2 * REFINE_LOG_TOL of
    a window end.  Returns (lam, value, boundary flag).
    """
    lams = window.lambdas
    best = _argmin_prefer_larger(np.asarray(coarse_values))
    evaluated = [(float(coarse_values[best]), float(lams[best]))]
    g, h = derivs(float(lams[best]))
    side = best + 1 if g < 0 else best - 1
    if g != 0 and 0 <= side < len(lams) and derivs(float(lams[side]))[0] * g < 0:
        lo, hi = sorted((math.log(lams[best]), math.log(lams[side])))
        root = math.exp(_slope_root(derivs, lo, hi, math.log(lams[best]), g, h))
        evaluated.append((objective(root), root))

    value, lam = min(evaluated, key=lambda pair: (pair[0], -pair[1]))

    flag = "none"
    if math.log(lam) - math.log(lams[0]) <= 2.0 * REFINE_LOG_TOL:
        flag = "low-lambda"
    elif math.log(lams[-1]) - math.log(lam) <= 2.0 * REFINE_LOG_TOL:
        flag = "high-lambda"
    return lam, value, flag


def select(c: Criterion, spec: DesignSpectrum, z,
           window: SelectionWindow | None = None) -> SelectionResult:
    """Data-driven smoothing parameter: global minimizer of the criterion.

    z is the rotated data; u = |z|^(2/q) is formed internally.  The coarse
    screen is one table product over the window, and the refinement a
    Newton solve on the analytic log-lam slope (see minimize_on_window).
    Pass a prebuilt window when selecting for many replicates on one
    spectrum.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (spec.n,):
        raise ValueError(f"z must have length {spec.n}, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("z must be finite")
    if window is None:
        window = selection_window(spec)
    u = np.abs(z) ** (2.0 / c.q)
    nd = spec.null_dim
    T, offset = window.criterion_tables(c)
    lam, value, flag = minimize_on_window(
        window, T @ u[nd:] + offset,
        lambda l: loss(c, weights(spec, l), u),
        partial(_log_derivs, c, spec.k[nd:], u[nd:]),
    )
    return SelectionResult(lam_hat=lam, df_hat=df(spec, lam), loss=value, at_boundary=flag)


# --- classical statistics ---------------------------------------------------


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


def sigma_estimate(coeffs, M: int) -> float:
    """Noise-variance estimate from the M + 2 highest rotated components.

    coeffs is the rotated data U'y.  Returns the sum of its top M + 2
    squares divided by M - 2.  High components of a smooth signal are
    essentially zero, so for noisy data the estimate is close to sigma^2
    inflated by (M + 2)/(M - 2); the index/divisor asymmetry is intentional,
    matching the estimator this implements.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.shape[0]
    M = int(M)
    if not (5 <= M <= n - 5):
        raise ValueError(f"sigma_estimate requires 5 <= M <= n - 5, got M={M}, n={n}")
    tail = coeffs[n - 2 - M:]
    return float(np.sum(tail * tail) / (M - 2.0))


def default_sigma_m(n: int) -> int:
    """Default tail size for sigma_estimate: max(20, n/10), rounded."""
    return max(20, round(n / 10))
