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
screen over lams from df = n - 0.5 to df = 2.1 in equal log-lam steps of at
most MAX_LOG_GAP, then a safeguarded Newton solve for the root of the
analytic slope in log lam next to the screen's winner.  That root, where the
winner and its downhill neighbour bracket one, is the pick: the screen only
ranks the window, and a criterion value is computed only where it is
reported (loss, and select's loss).  The winner's slope and
curvature and its downhill neighbour's slope are contracted from derivative
rows that the spectrum keeps per window point; the solve starts at the root
between the two of the quadratic those three values fix, and stops a row
once two short Newton steps predict the next below a tenth of
NEWTON_STEP_TOL, so a block costs about two derivative sweeps.  The
minimizer, _select_rows, takes a block of rows of u at once: the screen is
one matrix product over the block and the Newton solve runs on every
bracketed row together; select is a block of one, screened a slice of the
window at a time.  It is the package's one minimizer over the window and
its one numeric guard on selection (a screen value that is not finite
raises NumericError): a central lam is selection at u = E|z|^(2/q), and
the ideal lam is cp's (oracle.ideal_lambda).
"""

from dataclasses import dataclass
import math
import re

import numpy as np

from . import specfun
from .errors import ConfigError, NumericError
from .spectrum import (DesignSpectrum, _in_slices, _log_lam_root, _shrink, lambdas_for_df,
                       weights)

# Search window in degrees of freedom: just inside the interpolation end
# (df = n) and just above the null fit (df = 2), per-spectrum.
DF_WINDOW_LO = 2.1
DF_WINDOW_MARGIN = 0.5
# Largest log-lam step between neighbouring window points; the window takes
# equal steps no longer than this between its two df ends.
MAX_LOG_GAP = 0.2
# A pick within 2 * REFINE_LOG_TOL (in log lam) of a window end is flagged.
REFINE_LOG_TOL = 1e-6


@dataclass(frozen=True)
class Criterion:
    """One member of the (p, q) family; c_q is cached at construction."""

    name: str
    p: float
    q: float
    c_q: float


# The classical members' names; any other member is named p<p>q<q>.
_CLASSICAL = {(2.0, 1.0): "cp", (1.0, 1.0): "gml", (1.5, 1.5): "ee"}


def make_criterion(p: float, q: float) -> Criterion:
    """The (p, q) member, named by (p, q) alone, so one member has one name."""
    if p < 1 or q < 1:
        raise ValueError(f"criterion requires p >= 1 and q >= 1, got ({p}, {q})")
    p, q = float(p), float(q)
    return Criterion(name=_CLASSICAL.get((p, q), f"p{p:g}q{q:g}"), p=p, q=q, c_q=specfun.c_q(q))


CP = make_criterion(2.0, 1.0)
GML = make_criterion(1.0, 1.0)
EE = make_criterion(1.5, 1.5)

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
    """The pick of select, and loss()'s value of the criterion there."""

    lam_hat: float
    df_hat: float
    loss: float
    at_boundary: str  # "none" | "low-lambda" | "high-lambda"


def loss(c: Criterion, spec: DesignSpectrum, lam: float, u) -> float:
    """Criterion value at smoothing parameter lam >= 0.

    u must be the full-length vector |z|^(2/q) (nonnegative); only its
    penalized entries matter.  For p = 1 the value diverges as lam -> 0, and
    lam = 0 itself is a domain error (log of zero).  Evaluated as a block of
    one row, so select reports these bits at its pick.
    """
    nd = spec.null_dim
    b = weights(spec, lam)[1][nd:]
    u = np.asarray(u, dtype=float)
    if u.shape != (spec.n,):
        raise ValueError(f"u must have length {spec.n}, got shape {u.shape}")
    if np.any(u < 0):
        raise ValueError("u must be nonnegative")
    if c.p == 1.0 and np.any(b <= 0):
        raise ValueError("p = 1 criterion undefined at lam = 0 (log of zero)")
    return float(_values(c, spec.k[nd:], u[None, nd:], np.array([lam]))[0])


def _value_tables(c: Criterion, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The one encoding of the criterion value (module docstring): a row of
    # penalized shrunk fractions b has value T @ u + offset at penalized u.
    # t^(p-1) - 1 is taken as expm1((p-1) log t): the direct difference
    # cancels to nothing as p approaches 1, where p/(p-1) blows it up.
    # Formed in place, in two arrays the shape of b (t and the excess); each
    # step rounds as the one-expression form in tests/crosscheck.py does.
    t = b ** (1.0 / c.q)
    t *= c.c_q
    if c.p == 1.0:
        return t, -np.sum(np.log(b), axis=-1) / c.q
    with np.errstate(divide="ignore"):  # t = 0 at lam = 0: expm1(-inf) = -1
        excess = np.log(t)
        excess *= c.p - 1.0
        np.expm1(excess, out=excess)
    excess *= c.p / (c.p - 1.0)
    t **= c.p
    return t, -np.sum(excess, axis=-1)


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
    a, b = _shrink(kp, lam)
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
    return _contract(c, *_deriv_terms(c, kp, lam), up)


def _contract(c: Criterion, s, e, s0, c0, up: np.ndarray) -> tuple:
    # (d1, d2) from _deriv_terms' (s, e, s0, c0) at penalized u up, as the
    # docstring of _deriv_terms writes them; s is overwritten.
    su = np.multiply(s, up, out=s)
    r = c.p / c.q
    d1 = r * (su.sum(axis=-1) - s0)
    su *= e
    return d1, r * (su.sum(axis=-1) - c0)


def _values(c: Criterion, kp: np.ndarray, up: np.ndarray, lams: np.ndarray) -> np.ndarray:
    # Criterion value of each row of penalized u at its own lam.
    T, offset = _value_tables(c, _shrink(kp, lams)[1])
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


def selection_window(spec: DesignSpectrum) -> np.ndarray:
    """The candidate lams for one spectrum, ascending from df = n - 0.5 down
    to df = 2.1.

    The two ends are the df inverse's lams, kept exactly; between them the
    window takes ceil(span / MAX_LOG_GAP) equal steps in log lam.
    """
    ends = lambdas_for_df(spec, [spec.n - DF_WINDOW_MARGIN, DF_WINDOW_LO])
    lo, hi = np.log(ends)
    window = np.exp(np.linspace(lo, hi, math.ceil((hi - lo) / MAX_LOG_GAP) + 1))
    window[[0, -1]] = ends
    return window


def _criterion_table(c: Criterion, spec: DesignSpectrum) -> tuple[np.ndarray, np.ndarray]:
    # (T, offset) of c over the spectrum's window: coarse losses are
    # T @ u_penalized + offset.  Built by the first block of more than one
    # row that selects with c, and kept in spec.tables, since it does not
    # depend on the data; a block of one row is screened without it.
    key = (c.p, c.q)
    tables = spec.tables
    if key not in tables:
        tables[key] = _value_tables(c, _shrink(spec.k[spec.null_dim:], spec.window)[1])
    return tables[key]


def _window_derivs(c: Criterion, spec: DesignSpectrum, points: np.ndarray,
                   up: np.ndarray) -> tuple:
    # (d1, d2) of c at each row of penalized u up at its window point
    # points[i]: _log_derivs at window[points], with its bits.  The
    # _deriv_terms row of a window point does not depend on the data, so the
    # first row that needs it forms it alone, at the point's scalar lam, and
    # spec.tables keeps it under (p, q, point): one (s, e) pair of penalized
    # length per point touched, never a whole-window table.
    tables, kp = spec.tables, spec.k[spec.null_dim:]
    terms = []
    for j in points.tolist():
        key = (c.p, c.q, j)
        if key not in tables:
            tables[key] = _deriv_terms(c, kp, spec.window[j])
        terms.append(tables[key])
    s, e, s0, c0 = zip(*terms) if terms else ((), (), (), ())
    s, e = (np.array(a).reshape(len(terms), len(kp)) for a in (s, e))
    return _contract(c, s, e, np.array(s0), np.array(c0), up)


def select(c: Criterion, spec: DesignSpectrum, z) -> SelectionResult:
    """Data-driven smoothing parameter: global minimizer of the criterion.

    z is the rotated data of one replicate; u = |z|^(2/q) is selected as a
    block of one row by the package's one minimizer, and loss is the
    criterion's value at the pick, with loss()'s bits.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (spec.n,):
        raise ValueError(f"z must have length {spec.n}, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("z must be finite")
    U = np.abs(z[None, :]) ** (2.0 / c.q)
    lam_hat, df_hat, at_boundary = _select_rows(c, spec, U)
    nd = spec.null_dim
    return SelectionResult(lam_hat=float(lam_hat[0]), df_hat=float(df_hat[0]),
                           loss=float(_values(c, spec.k[nd:], U[:, nd:], lam_hat)[0]),
                           at_boundary=at_boundary[0])


def _screen(c: Criterion, spec: DesignSpectrum, up: np.ndarray) -> np.ndarray:
    # Each row of penalized u's criterion value at every window point.  A
    # block of several rows is screened against the criterion's whole table;
    # a block of one row, table slice by table slice (_in_slices), so no
    # table outlives a slice, with the bits of the row's whole-table product.
    # A block of several rows may round a row's product otherwise.
    def product(tables):
        T, offset = tables
        return up @ T.T + offset

    if len(up) == 1:
        kp = spec.k[spec.null_dim:]
        return _in_slices(lambda lams: product(_value_tables(c, _shrink(kp, lams)[1])),
                          spec.window)
    return product(_criterion_table(c, spec))


def _select_rows(c: Criterion, spec: DesignSpectrum, U: np.ndarray) -> tuple:
    # (lam_hat, df_hat, at_boundary): the one minimizer over the window, at
    # every row of full-length u.  The screen's values only rank the window
    # points.  Of the pairs the screen's winner forms with its neighbours,
    # only the downhill one can hold a minimum.  The winner's slope g and
    # curvature h and the neighbour's slope come from the window points'
    # memoized derivative rows (_window_derivs); where the slope changes
    # sign across the pair, _log_lam_root solves all bracketed rows at once,
    # each started at the root inside the pair of the quadratic in log lam
    # with those three values (at the winner where rounding leaves none
    # inside).  The pick is that root, or the winner where the pair
    # brackets none, flagged within 2 * REFINE_LOG_TOL of a window end.  df
    # is summed row by row exactly as df() sums it.  A screen value that is
    # not finite (u overflowed, or was nan or inf) raises NumericError.
    nd = spec.null_dim
    kp, up = spec.k[nd:], U[:, nd:]

    def derivs(lams, rows):
        return _log_derivs(c, kp, up[rows], lams)

    coarse = _screen(c, spec, up)
    finite = np.isfinite(coarse).all(axis=1)
    if not finite.all():
        raise NumericError(f"{c.name} criterion is not finite on the selection window "
                           f"in {len(finite) - np.count_nonzero(finite)} of {len(finite)} rows")
    window = spec.window
    logs = np.log(window)
    rows = np.arange(coarse.shape[0])
    # np.argmin takes the first of tied minima; scanning each row reversed
    # makes ties resolve toward larger lam (ascending lam ordering).
    best = coarse.shape[1] - 1 - np.argmin(coarse[:, ::-1], axis=1)
    lam = window[best]
    g, h = _window_derivs(c, spec, best, up)
    side = np.where(g < 0, best + 1, best - 1)
    bracketed = rows[(g != 0) & (side >= 0) & (side < len(window))]
    g_side = _window_derivs(c, spec, side[bracketed], up[bracketed])[0]
    crossed = g_side * g[bracketed] < 0
    bracketed, g_side = bracketed[crossed], g_side[crossed]

    x, x_side = logs[best[bracketed]], logs[side[bracketed]]
    start = _quadratic_root(x, x_side, g[bracketed], h[bracketed], g_side)
    lam[bracketed] = _log_lam_root(start, np.minimum(x, x_side), np.maximum(x, x_side),
                                   derivs, bracketed)

    log_lam = np.log(lam)
    low = log_lam - logs[0] <= 2.0 * REFINE_LOG_TOL
    high = logs[-1] - log_lam <= 2.0 * REFINE_LOG_TOL
    flags = tuple("low-lambda" if at_low else "high-lambda" if at_high else "none"
                  for at_low, at_high in zip(low, high))
    return lam, _shrink(spec.k, lam)[0].sum(axis=1), flags


def _quadratic_root(x, x_side, g, h, g_side) -> np.ndarray:
    # The root between x and x_side of the quadratic in log lam that takes
    # the value g with derivative h at x and the value g_side, of opposite
    # sign, at x_side; x where rounding puts neither of its roots between
    # the two.  With d = x_side - x, the quadratic is g + h t + a t^2 at
    # x + t, and its roots are t = q / a and t = g / q for
    # q = -(h + sign(h) sqrt(h^2 - 4 a g)) / 2, a form that loses no digits
    # to cancellation.
    d = x_side - x
    a = (g_side - g - h * d) / (d * d)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (h + np.copysign(np.sqrt(np.maximum(h * h - 4.0 * a * g, 0.0)), h))
        near, far = g / q, q / a
        t = np.where((0.0 <= near / d) & (near / d <= 1.0), near,
                     np.where((0.0 <= far / d) & (far / d <= 1.0), far, 0.0))
    return x + t


def sigma_estimate(coeffs, M: int):
    """Noise-variance estimate from the M + 2 highest rotated components.

    coeffs is rotated data, a vector or a (rows x n) block of them: U'y, or
    z = g + eps in the simulation lab, whose noise variance is 1.  Returns
    the sum of its top M + 2 squares divided by M - 2: a float for a vector,
    one value per row for a block (each row's bits equal its vector
    estimate).  High components of a smooth signal are essentially zero, so
    for noisy data the estimate is close to the noise variance inflated by
    (M + 2)/(M - 2); the index/divisor asymmetry is intentional, matching
    the estimator this implements.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.shape[-1]
    M = int(M)
    if not (5 <= M <= n - 5):
        raise ValueError(f"sigma_estimate requires 5 <= M <= n - 5, got M={M}, n={n}")
    tail = coeffs[..., n - 2 - M:]
    s2 = np.sum(tail * tail, axis=-1) / (M - 2.0)
    return float(s2) if coeffs.ndim == 1 else s2


def default_sigma_m(n: int) -> int:
    """Default tail size for sigma_estimate: max(20, n/10), rounded."""
    return max(20, round(n / 10))
