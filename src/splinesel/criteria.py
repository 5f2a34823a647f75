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
slope in log lam next to the screen's winner.  The minimizer works on a
block of rows at once: the screen is one matrix product over the block and
the Newton solve runs on every bracketed row together (select_block);
scalar selection is a block of one.
"""

from dataclasses import dataclass, field
import math
import re

import numpy as np

from . import specfun
from .errors import ConfigError
from .spectrum import (DesignSpectrum, SmootherWeights, _log_lam_root, df,
                       lambdas_for_df, smooth)

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
# Replicates are selected in blocks of this many rows, counted from replicate
# 0.  A block bounds the working set at any replicate count, and a fixed
# block size fixes the shapes of the coarse screen's matrix products, whose
# rounding depends on shape, so a run's records depend only on its config.
BLOCK_ROWS = 64


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
_NUMBER = r"[0-9]+(?:\.[0-9]*)?|\.[0-9]+"


def criterion_by_name(name: str) -> Criterion:
    """Look up cp/gml/ee, or parse a custom 'p<var>q<var>' id (ConfigError if bad)."""
    key = name.strip().lower()
    if key in _BY_NAME:
        return _BY_NAME[key]
    m = re.fullmatch(rf"p({_NUMBER})q({_NUMBER})", key)
    if m is None or min(float(m.group(1)), float(m.group(2))) < 1:
        raise ConfigError(f"unknown criterion {name!r} (custom ids: p<P>q<Q>, P, Q >= 1)")
    return make_criterion(float(m.group(1)), float(m.group(2)))


@dataclass(frozen=True)
class SelectionResult:
    lam_hat: float
    df_hat: float
    loss: float
    at_boundary: str  # "none" | "low-lambda" | "high-lambda"


@dataclass(frozen=True)
class BlockSelection:
    """Per-row results of select_block, in the order of the block's rows."""

    lam_hat: np.ndarray
    df_hat: np.ndarray
    loss: np.ndarray
    at_boundary: tuple[str, ...]


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
    if c.p == 1.0 and np.any(b <= 0):
        raise ValueError("p = 1 criterion undefined at lam = 0 (log of zero)")
    T, offset = _value_tables(c, b)
    return float(T @ u[nd:] + offset)


def _value_tables(c: Criterion, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The one encoding of the criterion value (module docstring): a row of
    # penalized shrunk fractions b has value T @ u + offset at penalized u.
    # t^(p-1) - 1 is taken as expm1((p-1) log t): the direct difference
    # cancels to nothing as p approaches 1, where p/(p-1) blows it up.
    t = c.c_q * b ** (1.0 / c.q)
    if c.p == 1.0:
        return t, -np.sum(np.log(b), axis=-1) / c.q
    with np.errstate(divide="ignore"):  # t = 0 at lam = 0: expm1(-inf) = -1
        excess = np.expm1((c.p - 1.0) * np.log(t))
    return t**c.p, -np.sum((c.p / (c.p - 1.0)) * excess, axis=-1)


def _deriv_terms(c: Criterion, kp: np.ndarray, lam) -> tuple:
    """(s, e, s0, c0): the one encoding of the criterion's log-lam
    derivatives, affine in the penalized u, unchecked.

    kp holds the penalized eigenvalues; lam is a scalar or one value per row
    (components last).  From da/dlog lam = -ab, db/dlog lam = ab, with
    t = c_q b^(1/q), s = a t^p, e = (p/q) a - b, s0 = sum a t^(p-1) and
    c0 = sum a t^(p-1) (((p-1)/q) a - b):

        d1 = dl/dlog lam = (p/q) [ sum s u - s0 ]
        d2 = d2l/dlog lam2 = (p/q) [ sum s e u - c0 ]
    """
    # In place (out=, -=, *=): fewer block-sized allocations, the same values.
    p, q = c.p, c.q
    lk = np.asarray(lam, dtype=float)[..., None] * kp
    denom = 1.0 + lk
    a = 1.0 / denom
    b = np.divide(lk, denom, out=lk)
    t = c.c_q * b ** (1.0 / q)
    atp1 = a * t ** (p - 1.0)
    e = (p / q) * a
    e -= b
    w = np.multiply((p - 1.0) / q, a, out=a)
    w -= b
    w *= atp1
    return np.multiply(atp1, t, out=t), e, atp1.sum(axis=-1), w.sum(axis=-1)


def _log_derivs(c: Criterion, kp: np.ndarray, up: np.ndarray, lam) -> tuple:
    """(d1, d2): the first and second log-lam derivatives of the criterion at
    the penalized entries up of u, contracted from _deriv_terms, unchecked."""
    s, e, s0, c0 = _deriv_terms(c, kp, lam)
    su = np.multiply(s, up, out=s)
    r = c.p / c.q
    d1 = r * (su.sum(axis=-1) - s0)
    su *= e
    return d1, r * (su.sum(axis=-1) - c0)


def _values(c: Criterion, kp: np.ndarray, up: np.ndarray, lams: np.ndarray) -> np.ndarray:
    # Criterion value of each row of penalized u at its own lam.
    lk = lams[:, None] * kp
    T, offset = _value_tables(c, lk / (1.0 + lk))
    return (T * up).sum(axis=1) + offset


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
    d1, d2 = (float(d) for d in _log_derivs(c, spec.k[nd:], u[nd:], lam))
    return d1 / lam, (d2 - d1) / (lam * lam)


# --- search window ----------------------------------------------------------


@dataclass
class SelectionWindow:
    """Precomputed coarse grid for one spectrum, shared across replicates.

    lambdas ascend from df = n - 0.5 down to df = 2.1: the df-equispaced
    points plus log-uniform fill-ins wherever a log-lam gap exceeds
    MAX_LOG_GAP.  b is the (candidates x n) shrunk-fraction table.  Power
    tables per criterion are cached lazily since they do not depend on the
    data.  The spectrum owns its window (DesignSpectrum.window); the window
    keeps only its null_dim, so the two form no reference cycle.
    """

    null_dim: int
    lambdas: np.ndarray
    b: np.ndarray
    _powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def criterion_tables(self, c: Criterion) -> tuple[np.ndarray, np.ndarray]:
        """(T, offset): coarse losses are T @ u_penalized + offset."""
        key = (c.p, c.q)
        if key not in self._powers:
            self._powers[key] = _value_tables(c, self.b[:, self.null_dim:])
        return self._powers[key]


def selection_window(spec: DesignSpectrum) -> SelectionWindow:
    """Build the candidate grid for one spectrum.

    COARSE_CANDIDATES df-equispaced points (both ends included, kept exactly),
    with log-uniform points inserted so no log-lam gap exceeds MAX_LOG_GAP.
    """
    targets = np.linspace(spec.n - DF_WINDOW_MARGIN, DF_WINDOW_LO, COARSE_CANDIDATES)
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
    return SelectionWindow(null_dim=spec.null_dim, lambdas=lambdas, b=lk / (1.0 + lk))


def minimize_on_window(window: SelectionWindow, coarse_values, objective,
                       derivs) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """The one minimizer over the smoothing-parameter window, for a block of rows.

    coarse_values is (rows x window points): each row's objective at every
    window point; ties resolve to the larger lam.  objective(lams, rows) and
    derivs(lams, rows) evaluate row rows[i] at lams[i]: the value, and the
    first and second derivatives in log lam.  Per row, of the two pairs
    formed by the coarse winner and its neighbours, only the one on the
    downhill side of the winner's slope can hold a minimum; when the slope
    changes sign across it, a safeguarded Newton solve finds the root.

    The solve is spectrum._log_lam_root, the one Newton solve in log lam
    (the df inverse uses it too), run on all bracketed rows at once and
    started from the coarse winner's slope and curvature.  The pick is the
    lower of the coarse winner and the root, ties again to the larger lam;
    it is flagged when it lies within 2 * REFINE_LOG_TOL of a window end.
    Returns per-row (lam, value, boundary flag).
    """
    lams = window.lambdas
    logs = np.log(lams)
    coarse = np.asarray(coarse_values, dtype=float)
    rows = np.arange(coarse.shape[0])
    # np.argmin takes the first of tied minima; scanning each row reversed
    # makes ties resolve toward larger lam (ascending lam ordering).
    best = coarse.shape[1] - 1 - np.argmin(coarse[:, ::-1], axis=1)
    lam = lams[best]
    value = coarse[rows, best]
    g, h = derivs(lam, rows)
    side = np.where(g < 0, best + 1, best - 1)
    bracketed = rows[(g != 0) & (side >= 0) & (side < len(lams))]
    bracketed = bracketed[derivs(lams[side[bracketed]], bracketed)[0] * g[bracketed] < 0]

    x = logs[best[bracketed]]
    lo = np.minimum(x, logs[side[bracketed]])
    hi = np.maximum(x, logs[side[bracketed]])
    root = _log_lam_root(x, lo, hi, g[bracketed], h[bracketed], derivs, bracketed)

    root_value = objective(root, bracketed)
    coarse_value, coarse_lam = value[bracketed], lam[bracketed]
    take = (root_value < coarse_value) | ((root_value == coarse_value) & (root > coarse_lam))
    lam[bracketed[take]] = root[take]
    value[bracketed[take]] = root_value[take]

    log_lam = np.log(lam)
    low = log_lam - logs[0] <= 2.0 * REFINE_LOG_TOL
    high = logs[-1] - log_lam <= 2.0 * REFINE_LOG_TOL
    flags = tuple("low-lambda" if at_low else "high-lambda" if at_high else "none"
                  for at_low, at_high in zip(low, high))
    return lam, value, flags


def select_block(c: Criterion, spec: DesignSpectrum, Z) -> BlockSelection:
    """Data-driven smoothing parameters for a block of replicates at once.

    Z is (rows x n) rotated data, one replicate per row; u = |Z|^(2/q) is
    formed internally.  The coarse screen is one matrix product of the
    block with the window's criterion table, and the refinement one Newton
    solve over every bracketed row (see minimize_on_window).  The window is
    the spectrum's own, built on its first selection and reused by the rest.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] < 1 or Z.shape[1] != spec.n:
        raise ValueError(f"Z must be a nonempty (rows x {spec.n}) block, got shape {Z.shape}")
    if not np.all(np.isfinite(Z)):
        raise ValueError("z must be finite")
    return _select_rows(c, spec, np.abs(Z) ** (2.0 / c.q))


def select(c: Criterion, spec: DesignSpectrum, z) -> SelectionResult:
    """Data-driven smoothing parameter: global minimizer of the criterion.

    z is the rotated data of one replicate, selected as a block of one row
    (see select_block).
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (spec.n,):
        raise ValueError(f"z must have length {spec.n}, got shape {z.shape}")
    return _first(select_block(c, spec, z[None, :]))


def _first(block: BlockSelection) -> SelectionResult:
    return SelectionResult(lam_hat=float(block.lam_hat[0]), df_hat=float(block.df_hat[0]),
                           loss=float(block.loss[0]), at_boundary=block.at_boundary[0])


def _select_rows(c: Criterion, spec: DesignSpectrum, U: np.ndarray) -> BlockSelection:
    # Minimize the criterion at every row of full-length u over the window:
    # the table screen, then the Newton refinement on the exact value and
    # slope.  df is summed row by row exactly as df() sums it.
    window = spec.window
    nd = spec.null_dim
    kp, up = spec.k[nd:], U[:, nd:]
    T, offset = window.criterion_tables(c)
    lam, value, flags = minimize_on_window(
        window, up @ T.T + offset,
        lambda lams, rows: _values(c, kp, up[rows], lams),
        lambda lams, rows: _log_derivs(c, kp, up[rows], lams),
    )
    dfs = (1.0 / (1.0 + lam[:, None] * spec.k)).sum(axis=1)
    return BlockSelection(lam_hat=lam, df_hat=dfs, loss=value, at_boundary=flags)


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
