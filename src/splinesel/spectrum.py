"""Penalty construction and spectral decomposition for cubic smoothing splines.

The smoother is diagonalized once per design: the roughness penalty K for a
natural cubic spline on the design points is formed from its band-structured
factors, eigendecomposed as K = U diag(k) U', and everything downstream works
with the shrinkage weights a_i = 1/(1 + lam * k_i) in the rotated basis.
"""

from dataclasses import dataclass
from functools import cached_property
import hashlib
import logging
import math
import os
import re
import zipfile
from pathlib import Path

import numpy as np

from .errors import NumericError

log = logging.getLogger("splinesel")

CACHE_FORMAT_VERSION = 1
MIN_DESIGN_POINTS = 4  # the fewest points a design may have

# Eigenvalues below _NULL_CLAMP_EPS_MULT * eps * max(k) are treated as exact
# zeros; the penalty has rank n - 2, so more than two such values means the
# decomposition went wrong.  The threshold must track the eigensolver's
# absolute noise floor (~eps * max(k)): the smallest positive eigenvalue
# decays like 1/n while max(k) grows like n^3, so any fixed relative cutoff
# eventually swallows genuine spectrum (at n = 4096 the true k[2] is already
# ~4e-14 * max(k)).  A multiplier of 32 keeps > 30x separation on both sides
# for all supported n.
_NULL_CLAMP_EPS_MULT = 32.0


@dataclass(frozen=True)
class DesignGrid:
    """Strictly increasing design points, at least four of them."""

    x: np.ndarray

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class DesignSpectrum:
    """Eigendecomposition of the roughness penalty for one design.

    U is orthogonal with columns ordered by ascending eigenvalue k; the first
    null_dim = 2 eigenvalues are exactly zero (constant and linear functions
    are never penalized).  window is its selection window, built on first
    use and kept for the spectrum's lifetime.
    """

    n: int
    x: np.ndarray
    U: np.ndarray
    k: np.ndarray
    null_dim: int

    @cached_property
    def window(self):
        from . import criteria  # criteria imports this module

        return criteria.selection_window(self)


@dataclass(frozen=True)
class SmootherWeights:
    """Per-component shrinkage at one value of the smoothing parameter.

    a_i = 1/(1 + lam * k_i) is the retained fraction, b_i = 1 - a_i the
    shrunk fraction; b_i = lam * k_i * a_i identically.
    """

    lam: float
    a: np.ndarray
    b: np.ndarray
    null_dim: int


def build_design(kind: str, n: int | None = None, *, lo: float | None = None,
                 hi: float | None = None, dist: str | None = None,
                 points=None) -> DesignGrid:
    """Construct a design grid.

    kind "equispaced": n points lo + (i-1)(hi-lo)/(n-1), i = 1..n.
    kind "quantile":   x_i = G^{-1}((2i-1)/(2n)) for the named distribution,
                       dist one of "uniform(a,b)" or "normal(mu,sd)".
    kind "explicit":   takes the given points verbatim.
    """
    if kind == "equispaced":
        if n is None or lo is None or hi is None:
            raise ValueError("equispaced design needs lo, hi, and n")
        if n < MIN_DESIGN_POINTS:
            raise ValueError(f"design needs n >= {MIN_DESIGN_POINTS}, got {n}")
        if not hi > lo:
            raise ValueError(f"equispaced design needs hi > lo, got ({lo}, {hi})")
        x = np.linspace(float(lo), float(hi), n)
    elif kind == "quantile":
        if n is None or dist is None:
            raise ValueError("quantile design needs dist and n")
        if n < MIN_DESIGN_POINTS:
            raise ValueError(f"design needs n >= {MIN_DESIGN_POINTS}, got {n}")
        u = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
        x = _quantile_fn(dist)(u)
    elif kind == "explicit":
        if points is None:
            raise ValueError("explicit design needs points")
        x = np.asarray(points, dtype=float)
        if x.ndim != 1 or len(x) < MIN_DESIGN_POINTS:
            raise ValueError(f"explicit design needs a flat list of >= {MIN_DESIGN_POINTS} points")
    else:
        raise ValueError(f"unknown design kind {kind!r}")
    if not np.all(np.isfinite(x)):
        raise ValueError("design points must be finite")
    if not np.all(np.diff(x) > 0):
        raise ValueError("design points must be strictly increasing")
    return DesignGrid(x=x)


def _quantile_fn(dist: str):
    m = re.fullmatch(r"\s*(uniform|normal)\(\s*([^,]+)\s*,\s*([^)]+)\s*\)\s*", dist)
    if not m:
        raise ValueError(f"unknown distribution spec {dist!r}")
    name, p1, p2 = m.group(1), float(m.group(2)), float(m.group(3))
    if name == "uniform":
        if not p2 > p1:
            raise ValueError(f"uniform({p1},{p2}) needs upper > lower")
        return lambda u: p1 + (p2 - p1) * u
    if p2 <= 0:
        raise ValueError(f"normal({p1},{p2}) needs sd > 0")
    # ndtri is the standard normal quantile; ndtri(u) * sd + mu is the same
    # expression scipy.stats.norm.ppf evaluates, without importing scipy.stats.
    # It is imported here, so only a normal-quantile design loads scipy.special.
    from scipy.special import ndtri

    return lambda u: ndtri(u) * p2 + p1


def penalty_matrix(grid: DesignGrid) -> np.ndarray:
    """Dense roughness penalty K = Q R^{-1} Q' for a natural cubic spline.

    Q is the n x (n-2) second-difference matrix built from the gaps
    h_i = x_{i+1} - x_i, R the symmetric tridiagonal Gram matrix with
    diagonal (h_{i-1} + h_i)/3 and off-diagonal h_i/6.  R is eliminated by
    a banded Cholesky solve, never inverted densely.
    """
    # scipy.linalg is imported on a cache miss only: a warm cache never
    # builds a penalty.
    from scipy.linalg import solveh_banded

    x = grid.x
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
    return 0.5 * (K + K.T)


def decompose(grid: DesignGrid) -> DesignSpectrum:
    """Eigendecompose the penalty into an orthogonal basis and its spectrum.

    Dense symmetric solve, O(n^3); intended for designs up to a few thousand
    points.  The two zero eigenvalues of the rank-(n-2) penalty are clamped
    to exact zeros after the solve.
    """
    from scipy.linalg import eigh

    K = penalty_matrix(grid)
    try:
        k, U = eigh(K)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericError(f"penalty eigendecomposition failed: {exc}") from exc
    kmax = float(k[-1])
    if not math.isfinite(kmax) or kmax <= 0:
        raise NumericError("penalty spectrum is degenerate (no positive eigenvalues)")
    tiny = np.abs(k) < _NULL_CLAMP_EPS_MULT * np.finfo(float).eps * kmax
    if int(tiny.sum()) > 2:
        raise NumericError(
            f"penalty rank deficiency: {int(tiny.sum())} near-zero eigenvalues, expected 2"
        )
    k = k.copy()
    k[:2] = 0.0
    k[2:] = np.maximum(k[2:], 0.0)
    # LAPACK hands back U Fortran-ordered; the npz cache round-trips it
    # C-ordered, and BLAS matvec rounding depends on layout.  Normalize so
    # fresh and cache-loaded spectra give bit-identical products.
    return DesignSpectrum(n=grid.n, x=grid.x.copy(),
                          U=np.ascontiguousarray(U), k=k, null_dim=2)


def weights(spec: DesignSpectrum, lam: float) -> SmootherWeights:
    """Shrinkage weights a, b at smoothing parameter lam >= 0."""
    if lam < 0 or not math.isfinite(lam):
        raise ValueError(f"weights requires finite lam >= 0, got {lam}")
    denom = 1.0 + lam * spec.k
    a = 1.0 / denom
    b = lam * spec.k / denom
    return SmootherWeights(lam=float(lam), a=a, b=b, null_dim=spec.null_dim)


def df(spec: DesignSpectrum, lam: float) -> float:
    """Effective degrees of freedom tr(A_lam) = sum_i a_i.

    Strictly decreasing in lam, from n at lam = 0 down to null_dim.
    """
    if lam < 0 or not math.isfinite(lam):
        raise ValueError(f"df requires finite lam >= 0, got {lam}")
    return float(np.sum(1.0 / (1.0 + lam * spec.k)))


# The df inversion starts from df on _DF_GRID_POINTS log-lam points spanning
# lam = 1e-8 / k_max .. 1e8 / k_min (penalized k); a target beyond the grid
# is bracketed in closed form (lambdas_for_df).  Both root searches in log
# lam, the df inverse and selection's refinement, stop once a step is below
# NEWTON_STEP_TOL.
_DF_GRID_POINTS = 33
NEWTON_STEP_TOL = 1e-12


def _df_and_slope(k: np.ndarray, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # df = sum a and -d df / d log lam = sum a b, one row per lam.
    lk = lams[:, None] * k[None, :]
    a = 1.0 / (1.0 + lk)
    return a.sum(axis=1), (a * a * lk).sum(axis=1)


def _log_lam_root(x, lo, hi, g, h, slope, rows) -> np.ndarray:
    """The one safeguarded Newton solve in log lam, for many rows at once.

    Row i starts at x[i] inside its bracket [lo[i], hi[i]] with the function
    g[i] and its log-lam derivative h[i] there; g must rise through zero
    across the bracket.  slope(lams, rows) evaluates (g, h) of rows rows[j]
    at lams[j].  Rows drop out as they finish.  A Newton step that would
    leave the row's bracket, or that does not halve its previous step,
    becomes a bisection step; a row stops once a step is below
    NEWTON_STEP_TOL, or where its g is exactly zero.  Returns each row's
    root as lam.
    """
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


def lambdas_for_df(spec: DesignSpectrum, targets) -> np.ndarray:
    """Invert the monotone df map for many targets at once.

    Every target must lie strictly between null_dim and n.  Each target is
    bracketed by a cell of a coarse log-lam grid, started by linear
    interpolation in that cell, and solved for the root of target - df,
    whose log-lam slope is sum a b, by selection's safeguarded Newton solve
    (_log_lam_root).  With m penalized components, df lies between
    null_dim + m / (1 + lam k_max) and null_dim + m / (1 + lam k_min), so a
    target beyond a grid end is bracketed in closed form and started at the
    bracket's middle.  Targets are solved independently, so an element does
    not depend on the other targets.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 1:
        raise ValueError("df targets must be a flat list")
    nd = spec.null_dim
    bad = ~((nd < targets) & (targets < spec.n))
    if np.any(bad):
        raise ValueError(f"df target must lie in ({nd}, {spec.n}), got {targets[bad][0]}")
    k = spec.k
    kpos = k[nd:]
    grid = np.linspace(math.log(1e-8 / kpos[-1]), math.log(1e8 / kpos[0]), _DF_GRID_POINTS)
    grid_df, _ = _df_and_slope(k, np.exp(grid))
    # Cell j holds the target: grid_df[j] >= target > grid_df[j + 1].  Start
    # by linear interpolation of df in the cell.
    cell = np.sum(grid_df[:, None] >= targets[None, :], axis=0) - 1
    j = np.clip(cell, 0, _DF_GRID_POINTS - 2)
    lo, hi = grid[j], grid[j + 1]
    x = lo + (grid_df[j] - targets) / (grid_df[j] - grid_df[j + 1]) * (hi - lo)
    # Beyond a grid end, the df bound's lam at the target closes the bracket.
    # A spectrum whose df cannot reach a target (k not matching n) fails.
    m, excess = len(kpos), targets - nd
    low, high = cell < 0, cell == _DF_GRID_POINTS - 1
    if np.any(low & (excess >= m)):
        raise NumericError(f"lambdas_for_df cannot bracket df target {targets[low].max()}")
    lo[low] = np.log((m - excess[low]) / (excess[low] * kpos[-1]))
    hi[high] = np.log((m - excess[high]) / (excess[high] * kpos[0]))
    ends = low | high
    x[ends] = 0.5 * (lo[ends] + hi[ends])

    def slope(lams, rows):
        val, ab = _df_and_slope(k, lams)
        return targets[rows] - val, ab

    rows = np.arange(len(targets))
    g, h = slope(np.exp(x), rows)
    return _log_lam_root(x, lo, hi, g, h, slope, rows)


def smooth(spec: DesignSpectrum, lam: float, y) -> np.ndarray:
    """Apply the smoother: f_hat = U diag(a) U' y."""
    y = np.asarray(y, dtype=float)
    if y.shape != (spec.n,):
        raise ValueError(f"y must have length {spec.n}, got shape {y.shape}")
    w = weights(spec, lam)
    return spec.U @ (w.a * (spec.U.T @ y))


def rotate(spec: DesignSpectrum, v, sigma: float) -> np.ndarray:
    """Rotate into spectral coordinates: U'v / sigma."""
    if sigma <= 0:
        raise ValueError(f"rotate requires sigma > 0, got {sigma}")
    v = np.asarray(v, dtype=float)
    if v.shape != (spec.n,):
        raise ValueError(f"v must have length {spec.n}, got shape {v.shape}")
    return (spec.U.T @ v) / sigma


# --- disk cache -------------------------------------------------------------
# Layout: NumPy .npz with arrays format_version (scalar), n (scalar), x (n,),
# k (n,), U (n, n) row-major, null_dim (scalar).  One file per (design, n),
# named by a hash of the design points.  Writes go to a temporary file in the
# same directory that is renamed into place, so a crash never leaves a
# partial file under the final name.


class CacheFormatError(ValueError):
    """A readable cache file written under another format_version."""


# What a truncated or otherwise corrupt .npz raises on load.
_UNREADABLE = (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile)


def save_spectrum(spec: DesignSpectrum, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                format_version=np.int64(CACHE_FORMAT_VERSION),
                n=np.int64(spec.n),
                x=spec.x,
                k=spec.k,
                U=np.ascontiguousarray(spec.U),
                null_dim=np.int64(spec.null_dim),
            )
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_spectrum(path) -> DesignSpectrum:
    # Opened here so the handle is closed even when np.load rejects the file.
    with open(path, "rb") as fh, np.load(fh) as data:
        version = int(data["format_version"])
        if version != CACHE_FORMAT_VERSION:
            raise CacheFormatError(
                f"spectrum cache {path} has format_version {version}, "
                f"expected {CACHE_FORMAT_VERSION}"
            )
        spec = DesignSpectrum(
            n=int(data["n"]),
            x=data["x"],
            U=data["U"],
            k=data["k"],
            null_dim=int(data["null_dim"]),
        )
    n = spec.n
    if (spec.x.shape != (n,) or spec.k.shape != (n,) or spec.U.shape != (n, n)
            or spec.null_dim != 2):
        raise ValueError(f"spectrum cache {path} does not hold an n = {n} spectrum")
    if not all(np.all(np.isfinite(v)) for v in (spec.x, spec.k, spec.U)):
        raise ValueError(f"spectrum cache {path} holds non-finite values")
    return spec


def cache_key(grid: DesignGrid) -> str:
    digest = hashlib.sha256(grid.x.tobytes()).hexdigest()[:12]
    return f"spectrum_n{grid.n}_{digest}"


def cached_decompose(grid: DesignGrid, cache_dir) -> DesignSpectrum:
    """Decompose with a per-(design, n) disk cache.

    A hit is validated against the requested design points; simulations at
    many replicates then reuse one O(n^3) decomposition.  An unreadable
    file is a miss (logged and rebuilt); a format_version mismatch is an
    error.
    """
    path = Path(cache_dir) / (cache_key(grid) + ".npz")
    if path.exists():
        try:
            spec = load_spectrum(path)
        except CacheFormatError:
            raise
        except _UNREADABLE as exc:
            log.warning("unreadable spectrum cache %s (%s); rebuilding", path, exc)
        else:
            if spec.n == grid.n and np.array_equal(spec.x, grid.x):
                return spec
    spec = decompose(grid)
    save_spectrum(spec, path)
    return spec
