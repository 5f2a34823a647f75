"""Penalty construction and spectral decomposition for cubic smoothing splines.

The smoother is diagonalized once per design: the roughness penalty K for a
natural cubic spline on the design points is formed from its band-structured
factors, eigendecomposed as K = U diag(k) U', and everything downstream works
with the shrinkage weights a_i = 1/(1 + lam * k_i) in the rotated basis.
"""

from dataclasses import dataclass, replace
from functools import cached_property
import hashlib
import logging
import math
import mmap
import os
import re
import zipfile
from pathlib import Path

import numpy as np

from .errors import NumericError

log = logging.getLogger("splinesel")

CACHE_FORMAT_VERSION = 2
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

# Replicates are selected in blocks of this many rows, counted from replicate
# 0.  A block bounds the working set at any replicate count, and a fixed
# block size fixes the shapes of the coarse screen's matrix products, whose
# rounding depends on shape, so a run's records depend only on its config.
# Window-wide work that serves one row runs in slices of as many window
# points (_in_slices).
BLOCK_ROWS = 64


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
    are never penalized).  U is None in a spectrum that dropped its basis
    (oracle.setting's): it still serves every quantity of k and the rotated
    truth, but cannot rotate, smooth or be saved.  window is its
    selection window, the array of candidate lams, built on first use and
    kept for the spectrum's lifetime.
    tables maps a criterion's (p, q) to its (T, offset) table over the
    window, filled by criteria._criterion_table, and (p, q, j) to its
    derivative terms at window point j, filled by criteria._window_derivs.
    """

    n: int
    x: np.ndarray
    U: np.ndarray | None
    k: np.ndarray
    null_dim: int

    @cached_property
    def window(self) -> np.ndarray:
        from . import criteria  # criteria imports this module

        return criteria.selection_window(self)

    @cached_property
    def tables(self) -> dict:
        return {}


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


def _zeroed_map(shape: tuple[int, int]) -> np.ndarray:
    """A zero float64 array backed by its own private anonymous mapping.

    numpy backs arrays of 4 MiB or more with transparent huge pages, so a
    sparse array whose writes touch every 2 MiB page is fully resident.  In
    a mapping without huge pages only the 4 KiB pages written become
    resident, and reads of the rest map the kernel's shared zero page.  The
    mapping is released with the array.  Where mmap has no MAP_PRIVATE
    (Windows) this is np.zeros.
    """
    if not hasattr(mmap, "MAP_PRIVATE"):
        return np.zeros(shape)
    buf = mmap.mmap(-1, 8 * shape[0] * shape[1],
                    flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64).reshape(shape)


def penalty_matrix(grid: DesignGrid) -> np.ndarray:
    """Dense roughness penalty K = Q R^{-1} Q' for a natural cubic spline.

    Q is the n x (n-2) second-difference matrix built from the gaps
    h_i = x_{i+1} - x_i, R the symmetric tridiagonal Gram matrix with
    diagonal (h_{i-1} + h_i)/3 and off-diagonal h_i/6.  R is eliminated by
    a banded Cholesky solve, never inverted densely.  The build peaks at two
    dense n x n arrays, R^{-1}Q' and K, plus the pages of Q that its bands
    write.  K is symmetrized in its own buffer, which gives the same bits as
    0.5 * (K + K'); numpy copies K' for the sum, so that step holds two
    n x n arrays too.
    """
    # scipy.linalg is imported on a cache miss only: a warm cache never
    # builds a penalty.
    from scipy.linalg import solveh_banded

    x = grid.x
    n = len(x)
    h = np.diff(x)
    Q = _zeroed_map((n, n - 2))
    idx = np.arange(1, n - 1)
    Q[idx - 1, idx - 1] = 1.0 / h[idx - 1]
    Q[idx, idx - 1] = -1.0 / h[idx - 1] - 1.0 / h[idx]
    Q[idx + 1, idx - 1] = 1.0 / h[idx]
    band = np.zeros((2, n - 2))
    band[0] = (h[:-1] + h[1:]) / 3.0
    band[1, :-1] = h[1:-1] / 6.0
    K = Q @ solveh_banded(band, Q.T, lower=True)
    del Q
    K += K.T
    K *= 0.5
    return K


def decompose(grid: DesignGrid) -> DesignSpectrum:
    """Eigendecompose the penalty into an orthogonal basis and its spectrum.

    Dense symmetric solve, O(n^3); intended for designs up to a few thousand
    points.  The two zero eigenvalues of the rank-(n-2) penalty are clamped
    to exact zeros after the solve.
    """
    from scipy.linalg import eigh

    K = penalty_matrix(grid)
    try:
        # K is exactly symmetric, so K' is the same matrix, and Fortran-ordered:
        # LAPACK works in K's own buffer instead of a copy.
        k, U = eigh(K.T, overwrite_a=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericError(f"penalty eigendecomposition failed: {exc}") from exc
    del K  # overwritten by the solve; freed before U's C-ordered copy
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


def _shrink(k: np.ndarray, lam) -> tuple[np.ndarray, np.ndarray]:
    """(a, b): the one encoding of the shrinkage weights, unchecked.

    a = 1/(1 + lam k) is the retained fraction and b = lam k/(1 + lam k) the
    shrunk one, so a + b = 1 and b = lam k a.  lam is a scalar or one value
    per row (components last).  b is written into lam k's buffer and a into
    1 + lam k's, so a row block costs two allocations.
    """
    lk = np.asarray(lam, dtype=float)[..., None] * k
    denom = 1.0 + lk
    b = np.divide(lk, denom, out=lk)
    return np.divide(1.0, denom, out=denom), b


def _in_slices(fn, *args):
    """fn(*args), evaluated on BLOCK_ROWS consecutive entries of every arg
    at a time and joined along the last axis (each array of a tuple result
    on its own), so fn's temporaries hold BLOCK_ROWS entries, not all.

    fn must treat its entries independently: each entry's value then has
    the bits of the whole evaluation's.
    """
    parts = [fn(*(a[i:i + BLOCK_ROWS] for a in args))
             for i in range(0, len(args[0]) or 1, BLOCK_ROWS)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p, axis=-1) for p in zip(*parts))
    return np.concatenate(parts, axis=-1)


def weights(spec: DesignSpectrum, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Shrinkage weights (a, b) at smoothing parameter lam >= 0."""
    if lam < 0 or not math.isfinite(lam):
        raise ValueError(f"weights requires finite lam >= 0, got {lam}")
    return _shrink(spec.k, lam)


def df(spec: DesignSpectrum, lam: float) -> float:
    """Effective degrees of freedom tr(A_lam) = sum_i a_i.

    Strictly decreasing in lam, from n at lam = 0 down to null_dim.
    """
    if lam < 0 or not math.isfinite(lam):
        raise ValueError(f"df requires finite lam >= 0, got {lam}")
    return float(np.sum(_shrink(spec.k, lam)[0]))


# Both root searches in log lam, the df inverse and selection's refinement,
# stop a row once a step is below NEWTON_STEP_TOL, or once two short Newton
# steps in a row predict that the next would be below a tenth of it.
NEWTON_STEP_TOL = 1e-12
_SHORT_STEP = math.sqrt(NEWTON_STEP_TOL)


def _log_lam_root(x, lo, hi, slope, rows) -> np.ndarray:
    """The one safeguarded Newton solve in log lam, for many rows at once.

    Row i starts at x[i] inside its bracket [lo[i], hi[i]], across which its
    function g must rise through zero.  slope(lams, rows) evaluates g and
    its log-lam derivative h of rows rows[j] at lams[j], first at the
    starts.  Rows drop out as they finish.  A Newton step that would leave
    the row's bracket, or that does not halve its previous step, becomes a
    bisection step.  A row stops once a step is below NEWTON_STEP_TOL, where
    its g is exactly zero, or after two Newton steps d_prev, d with
    |d| <= sqrt(NEWTON_STEP_TOL) and 10 |d|^3 < NEWTON_STEP_TOL d_prev^2.
    Newton's error squares from step to step, d ~ K d_prev^2, so the step
    after d would be about K d^2 = |d|^3 / d_prev^2, under a tenth of
    NEWTON_STEP_TOL.  The ratio measures K only where the steps are short:
    after a long first step from a crude start (the df inverse's) it can
    fall well below the K that the next step sees.  Returns each row's root
    as lam.
    """
    step_old = hi - lo
    newton_old = np.zeros(len(rows), dtype=bool)
    root = np.empty(len(rows))
    live = np.arange(len(rows))
    g, h = slope(np.exp(x), rows)
    while len(live):
        lo = np.where(g < 0, x, lo)
        hi = np.where(g > 0, x, hi)
        step = np.divide(-g, h, out=np.full(len(live), np.inf), where=h > 0)
        newton = (lo <= x + step) & (x + step <= hi) & (np.abs(step) <= 0.5 * np.abs(step_old))
        step = np.where(newton, step, 0.5 * (lo + hi) - x) * (g != 0)
        x = x + step
        size = np.abs(step)
        done = (size < NEWTON_STEP_TOL) | (newton & newton_old & (size <= _SHORT_STEP)
                                           & (10.0 * size**3 < NEWTON_STEP_TOL * step_old**2))
        root[live[done]] = np.exp(x[done])
        live, x, lo, hi, step_old, newton_old = (v[~done] for v in (live, x, lo, hi, step,
                                                                     newton))
        if len(live):
            g, h = slope(np.exp(x), rows[live])
    return root


def lambdas_for_df(spec: DesignSpectrum, targets) -> np.ndarray:
    """Invert the monotone df map for many targets at once.

    Every target t must lie strictly between null_dim and n.  With m
    penalized k, null_dim + m / (1 + lam k_max) <= df <= null_dim + m / (1 +
    lam k_min), so log lam lies in [log((m - e) / (e k_max)),
    log((m - e) / (e k_min))] at df = t, e = t - null_dim.  df - null_dim
    roughly counts the penalized k below 1/lam, so each solve starts at
    -log of the floor(e)-th one, clipped into that bracket, and finds the
    root of t - df, whose log-lam slope is sum a b, by selection's
    safeguarded Newton solve (_log_lam_root).  Targets are solved
    independently, so an element does not depend on the other targets, and
    the live targets' df and slope are evaluated in slices (_in_slices).
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 1:
        raise ValueError("df targets must be a flat list")
    nd = spec.null_dim
    bad = ~((nd < targets) & (targets < spec.n))
    if np.any(bad):
        raise ValueError(f"df target must lie in ({nd}, {spec.n}), got {targets[bad][0]}")
    kpos = spec.k[nd:]
    # A spectrum whose df cannot reach a target (k not matching n) fails.
    m, excess = len(kpos), targets - nd
    if np.any(excess >= m):
        raise NumericError(f"lambdas_for_df cannot bracket df target {targets.max()}")
    lo = np.log((m - excess) / (excess * kpos[-1]))
    hi = np.log((m - excess) / (excess * kpos[0]))
    x = np.clip(-np.log(kpos[excess.astype(int)]), lo, hi)

    def part(lams, rows):
        a, b = _shrink(spec.k, lams)
        return targets[rows] - a.sum(axis=1), (a * b).sum(axis=1)

    def slope(lams, rows):
        return _in_slices(part, lams, rows)

    return _log_lam_root(x, lo, hi, slope, np.arange(len(targets)))


def smooth(spec: DesignSpectrum, lam: float, y) -> np.ndarray:
    """Apply the smoother: f_hat = U diag(a) U' y."""
    y = np.asarray(y, dtype=float)
    U = _basis(spec, "smooth")
    if y.shape != (spec.n,):
        raise ValueError(f"y must have length {spec.n}, got shape {y.shape}")
    return U @ (weights(spec, lam)[0] * rotate(spec, y, 1.0))


def rotate(spec: DesignSpectrum, v, sigma: float) -> np.ndarray:
    """Rotate a vector into spectral coordinates: U'v / sigma.

    The package's one route that applies U'.  It is the sum over U's
    BLOCK_ROWS-row blocks b of v[b] @ U[b], added in block order (_row_sum),
    so it has the same bits whether U is held or streamed from the cache a
    block at a time (cached_decompose's fold).  Up to BLOCK_ROWS points that
    is one v @ U.
    """
    if sigma <= 0:
        raise ValueError(f"rotate requires sigma > 0, got {sigma}")
    v = np.asarray(v, dtype=float)
    if v.shape != (spec.n,):
        raise ValueError(f"v must have length {spec.n}, got shape {v.shape}")
    return _row_sum(v, _row_blocks(_basis(spec, "rotate")), np.empty(spec.n)) / sigma


def _row_blocks(U: np.ndarray):
    """U's consecutive BLOCK_ROWS-row blocks, as views."""
    return (U[i:i + BLOCK_ROWS] for i in range(0, len(U), BLOCK_ROWS))


def _row_sum(v: np.ndarray, blocks, out: np.ndarray) -> np.ndarray:
    """out = v @ U, as the sum of v[b] @ U[b] over U's row blocks in the
    order blocks yields them; each block is used before the next is asked
    for, so a reader may yield every block in one buffer."""
    start = 0
    for block in blocks:
        stop = start + len(block)
        if start == 0:
            np.matmul(v[:stop], block, out=out)
        else:
            out += v[start:stop] @ block
        start = stop
    return out


def _basis(spec: DesignSpectrum, caller: str) -> np.ndarray:
    """spec.U, or a ValueError naming caller when the spectrum dropped it."""
    if spec.U is None:
        raise ValueError(f"{caller} needs the eigenbasis U, which this spectrum dropped; "
                         "build it with decompose or cached_decompose")
    return spec.U


# --- disk cache -------------------------------------------------------------
# Layout: NumPy .npz with arrays format_version (scalar), environment (a
# string, _numeric_environment's), n (scalar), x (n,), k (n,), U (n, n)
# row-major float64, null_dim (scalar).  One file per (design, n), named by
# a hash of the design points.  Writes go to a temporary file in the same
# directory that is renamed into place, so a crash never leaves a partial
# file under the final name.


class CacheFormatError(ValueError):
    """A readable cache file written under another format_version or
    numeric environment."""


# What a truncated or otherwise corrupt .npz raises on load.
_UNREADABLE = (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile)


def _blas_threads() -> int:
    """The BLAS thread count in effect, as OpenBLAS reads it at start-up:
    OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else one per CPU this
    process may run on, and never more threads than those CPUs."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count()) or 1
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return min(int(value), cpus)
    return cpus


def _numeric_environment() -> str:
    """What a spectrum's bits depend on besides the design: numpy's version,
    its BLAS build and the BLAS thread count in effect.  numpy (1.26 and
    later) keeps its build configuration in numpy.__config__.CONFIG, which
    `import numpy` loads."""
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    build = " ".join(str(blas.get(key, "")) for key in ("name", "version",
                                                        "openblas configuration"))
    return f"numpy {np.__version__}; blas {build}; threads {_blas_threads()}"


def save_spectrum(spec: DesignSpectrum, path) -> None:
    U = np.ascontiguousarray(_basis(spec, "save_spectrum"))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                format_version=np.int64(CACHE_FORMAT_VERSION),
                environment=np.str_(_numeric_environment()),
                n=np.int64(spec.n),
                x=spec.x,
                k=spec.k,
                U=U,
                null_dim=np.int64(spec.null_dim),
            )
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_basis(archive: zipfile.ZipFile, n: int, U: np.ndarray | None = None):
    """Yield the cached U's consecutive BLOCK_ROWS-row blocks, read from the
    archive's U member into U's own rows when U is given, else into one
    reused buffer.  The member must hold an (n, n) row-major float64 array;
    each block must be whole and finite, and the member must end with the
    last block, where zipfile checks its CRC.  A failed check raises one of
    _UNREADABLE."""
    with archive.open("U.npy") as fh:
        version = np.lib.format.read_magic(fh)
        header = {(1, 0): np.lib.format.read_array_header_1_0,
                  (2, 0): np.lib.format.read_array_header_2_0}.get(version)
        if header is None:
            raise ValueError(f"U has .npy format version {version}")
        shape, fortran_order, dtype = header(fh)
        if shape != (n, n) or fortran_order or dtype != np.float64:
            raise ValueError(f"U is a {shape} {dtype} array, not an ({n}, {n}) row-major float64")
        buf = np.empty((min(BLOCK_ROWS, n), n)) if U is None else None
        for start in range(0, n, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, n)
            block = buf[:stop - start] if U is None else U[start:stop]
            if fh.readinto(block) != block.nbytes:
                raise EOFError(f"U ends within rows {start}..{stop - 1}")
            if not np.isfinite(block).all():
                raise ValueError(f"U holds non-finite values in rows {start}..{stop - 1}")
            yield block
        if fh.read(1):
            raise ValueError("U has bytes past its last row")


def load_spectrum(path, *, fold=None) -> DesignSpectrum:
    """Read a cached spectrum, with U's rows streamed a block at a time.

    fold=None assembles U from its blocks.  fold=(v, out), with v an
    n-vector, never holds U: each block is folded into out = v @ U by
    rotate's blocked sum as it is read, and the spectrum comes back
    without U.  A file of another format_version or numeric environment
    raises CacheFormatError; one that is corrupt, or does not hold a
    finite n-point spectrum, raises one of _UNREADABLE.
    """
    # Opened here so the handle is closed even when np.load rejects the file.
    with open(path, "rb") as fh, np.load(fh) as data:
        version = int(data["format_version"])
        if version != CACHE_FORMAT_VERSION:
            raise CacheFormatError(
                f"spectrum cache {path} has format_version {version}, "
                f"expected {CACHE_FORMAT_VERSION}"
            )
        built, here = str(data["environment"]), _numeric_environment()
        if built != here:
            raise CacheFormatError(f"spectrum cache {path} was built under numeric "
                                   f"environment {built!r}, not {here!r}")
        n, x, k, null_dim = int(data["n"]), data["x"], data["k"], int(data["null_dim"])
        if x.shape != (n,) or k.shape != (n,) or null_dim != 2:
            raise ValueError(f"spectrum cache {path} does not hold an n = {n} spectrum")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(k))):
            raise ValueError(f"spectrum cache {path} holds non-finite values")
        if fold is None:
            U = np.empty((n, n))
            for _ in _read_basis(data.zip, n, U):
                pass
        else:
            U = None
            v, out = fold
            _row_sum(v, _read_basis(data.zip, n), out)
    return DesignSpectrum(n=n, x=x, U=U, k=k, null_dim=null_dim)


def cache_key(grid: DesignGrid) -> str:
    digest = hashlib.sha256(grid.x.tobytes()).hexdigest()[:12]
    return f"spectrum_n{grid.n}_{digest}"


def cached_decompose(grid: DesignGrid, cache_dir, *, fold=None) -> DesignSpectrum:
    """Decompose with a per-(design, n) disk cache.

    A hit is validated against the requested design points; simulations at
    many replicates then reuse one O(n^3) decomposition.  A file that is
    unreadable, or that was written under another format_version or
    numeric environment, is a miss (logged and rebuilt).  fold=(v, out)
    fills out with v @ U and returns the spectrum without U, as
    load_spectrum does; a miss folds the U it built, by the same blocked
    sum, after writing the whole spectrum to the cache.
    """
    path = Path(cache_dir) / (cache_key(grid) + ".npz")
    if path.exists():
        try:
            spec = load_spectrum(path, fold=fold)
        except CacheFormatError as exc:
            log.warning("stale spectrum cache %s (%s); rebuilding", path, exc)
        except _UNREADABLE as exc:
            log.warning("unreadable spectrum cache %s (%s); rebuilding", path, exc)
        else:
            if spec.n == grid.n and np.array_equal(spec.x, grid.x):
                return spec
    spec = decompose(grid)
    save_spectrum(spec, path)
    if fold is None:
        return spec
    v, out = fold
    _row_sum(v, _row_blocks(spec.U), out)
    return replace(spec, U=None)
