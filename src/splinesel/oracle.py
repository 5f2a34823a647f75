"""Truth-known quantities: risk curves, ideal and central smoothing parameters,
and the bias/covariance/variability decomposition of the extra prediction risk.

With the true curve in hand (simulation settings), the risk
R(lam) = sum_i (b_i^2 g_i^2 + a_i^2) is available in closed form.  Its
minimizer lam0 is the ideal smoothing parameter; the minimizer lam_c of the
expected criterion is where a given criterion is centered.  The gap between
selecting at lam_hat and sitting at lam0 decomposes into a deterministic bias
piece plus stochastic covariance and variability pieces, estimated here by
Monte Carlo and approximated analytically.
"""

from dataclasses import dataclass, asdict
import json
import math

import numpy as np

from . import specfun
from ._rng import replicate_block
from .criteria import (
    BLOCK_ROWS,
    Criterion,
    SelectionWindow,
    _select_rows,
    minimize_on_window,
    select,  # noqa: F401  bound here for perfbench/test_bench.py's tracer check
    select_block,
    selection_window,
)
from .errors import NumericError
from .spectrum import (DesignSpectrum, build_design, cached_decompose, decompose, df,
                       rotate, weights)

DECOMPOSITION_MIN_REPLICATES = 100  # the fewest draws decomposition_mc takes
RATE_MIN_SIZES = 4  # the fewest sample sizes rate_probes fits slopes through


@dataclass(frozen=True)
class TruthSpectrum:
    """True curve and its spectral image g = U'f / sigma."""

    f: np.ndarray
    sigma: float
    g: np.ndarray


def make_truth(spec: DesignSpectrum, f, sigma: float) -> TruthSpectrum:
    f = np.asarray(f, dtype=float)
    if f.shape != (spec.n,):
        raise ValueError(f"f must have length {spec.n}, got shape {f.shape}")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    return TruthSpectrum(f=f, sigma=float(sigma), g=rotate(spec, f, sigma))


def setting(design: dict, n: int, truth_gen, sigma: float,
            cache_dir=None) -> tuple[DesignSpectrum, TruthSpectrum]:
    """Spectrum and truth of one setting: the n-point grid of a design dict
    ({"kind": ..., plus that kind's fields}), decomposed through the disk
    cache when cache_dir is given, with truth_gen(grid) as the true curve."""
    grid = build_design(design["kind"], n, **{k: v for k, v in design.items() if k != "kind"})
    spec = cached_decompose(grid, cache_dir) if cache_dir else decompose(grid)
    return spec, make_truth(spec, truth_gen(grid), sigma)


@dataclass(frozen=True)
class LambdaPoint:
    """A located smoothing parameter with its degrees of freedom."""

    lam: float
    df: float
    at_boundary: str


def risk(spec: DesignSpectrum, truth: TruthSpectrum, lam: float) -> float:
    """Expected squared error in spectral scale: sum_i (b_i^2 g_i^2 + a_i^2).

    The sum runs over all n components; equals n at lam = 0 and tends to the
    null-space dimension plus the unsmoothable signal as lam -> infinity.
    """
    w = weights(spec, lam)
    return float(np.sum(w.b**2 * truth.g**2 + w.a**2))


def _risk_log_derivs(spec: DesignSpectrum, truth: TruthSpectrum, lam) -> tuple:
    # First and second log-lam derivatives of the risk at each lam (a
    # scalar or an array), from da = -ab and db = ab per unit log lam:
    # 2 sum ab(bg^2 - a) and 2 sum ab[(a - b)(bg^2 - a) + ab(g^2 + 1)];
    # null components give 0.
    lk = np.asarray(lam, dtype=float)[..., None] * spec.k
    denom = 1.0 + lk
    a = 1.0 / denom
    b = lk / denom
    g2 = truth.g**2
    ab = a * b
    e = b * g2 - a
    return 2.0 * (ab * e).sum(axis=-1), 2.0 * (ab * ((a - b) * e + ab * (g2 + 1.0))).sum(axis=-1)


def ideal_lambda(spec: DesignSpectrum, truth: TruthSpectrum,
                 window: SelectionWindow | None = None) -> LambdaPoint:
    """Risk-minimizing smoothing parameter over the selection window.

    Uses the selection minimizer on a block of one row: a coarse screen of
    the risk over the window rows, (b*b) @ g^2 + sum a^2 as one table
    product, then a safeguarded Newton solve on the exact risk's
    closed-form log-lam slope.
    A boundary winner is flagged, never clipped.
    """
    if window is None:
        window = selection_window(spec)
    b = window.b
    coarse = (b * b) @ (truth.g**2) + np.sum((1.0 - b) ** 2, axis=1)
    picked, _, flags = minimize_on_window(
        window, coarse[None, :],
        lambda lams, rows: np.array([risk(spec, truth, float(lam)) for lam in lams]),
        lambda lams, rows: _risk_log_derivs(spec, truth, lams),
    )
    lam = float(picked[0])
    return LambdaPoint(lam=lam, df=df(spec, lam), at_boundary=flags[0])


def _penalized_power(spec: DesignSpectrum, truth: TruthSpectrum, q: float) -> np.ndarray:
    # E|z|^(2/q) on the penalized components and 0 on the null ones, which
    # no criterion formula reads; a large null-space |g| would otherwise
    # run the series past its term cap.
    nd = spec.null_dim
    eu = np.zeros(spec.n)
    eu[nd:] = specfun.abs_moment(truth.g[nd:], 1.0 / q)
    return eu


def central_lambda(c: Criterion, spec: DesignSpectrum, truth: TruthSpectrum,
                   window: SelectionWindow | None = None) -> LambdaPoint:
    """Minimizer of the expected criterion: where selection is centered.

    The criterion is linear in u, so the expected criterion is the criterion
    evaluated at u = E|z|^(2/q), taken on the penalized components.  It is
    minimized exactly like data-driven selection, by the same table screen
    and Newton solve at that u.  For the (2, 1) member this lands on the
    ideal smoothing parameter.
    """
    return _central_at(c, spec, _penalized_power(spec, truth, c.q), window)


def _central_at(c: Criterion, spec: DesignSpectrum, eu: np.ndarray,
                window: SelectionWindow | None) -> LambdaPoint:
    # central_lambda at a precomputed E|z|^(2/q), shared by criteria of one
    # q: selection at u = eu as a block of one row.
    picked = _select_rows(c, spec, eu[None, :], window)
    return LambdaPoint(lam=float(picked.lam_hat[0]), df=float(picked.df_hat[0]),
                       at_boundary=picked.at_boundary[0])


@dataclass(frozen=True)
class DecompositionReport:
    """Monte Carlo decomposition of the extra prediction risk.

    extra_risk = E||g_hat(lam_hat) - g||^2 - R(lam0) splits into the
    deterministic bias_term = R(lam_c) - R(lam0), twice the covariance_term,
    and the variability_term; mc_standard_errors covers the three Monte
    Carlo estimates (covariance, variability, extra risk).  boundary_count
    is the number of replicates whose selection was boundary-flagged.
    """

    lambda0: float
    df0: float
    lambda_c: float
    df_c: float
    bias_term: float
    covariance_term: float
    variability_term: float
    extra_risk: float
    mc_replicates: int
    mc_standard_errors: tuple[float, float, float]
    boundary_count: int

    def to_json(self) -> str:
        payload = asdict(self)
        payload["mc_standard_errors"] = list(self.mc_standard_errors)
        return json.dumps(payload, indent=2)


def decomposition_mc(c: Criterion, spec: DesignSpectrum, truth: TruthSpectrum,
                     replicates: int, seed: int,
                     window: SelectionWindow | None = None) -> DecompositionReport:
    """Estimate the risk decomposition by Monte Carlo.

    Per replicate r, z = g + eps with eps keyed by (seed, n, r) -- the same
    draws for every criterion, so cross-criterion comparisons use common
    random numbers.  Replicates are selected BLOCK_ROWS at a time.  The bias
    term is computed exactly from the risk curve; covariance, variability,
    and the total extra risk are averaged over replicates with standard
    errors.
    """
    if replicates < DECOMPOSITION_MIN_REPLICATES:
        raise ValueError(f"decomposition_mc needs >= {DECOMPOSITION_MIN_REPLICATES} "
                         f"replicates, got {replicates}")
    if window is None:
        window = selection_window(spec)
    ideal = ideal_lambda(spec, truth, window)
    central = central_lambda(c, spec, truth, window)
    risk0 = risk(spec, truth, ideal.lam)
    bias = risk(spec, truth, central.lam) - risk0

    a_c = weights(spec, central.lam).a
    cov_s = np.empty(replicates)
    var_s = np.empty(replicates)
    extra_s = np.empty(replicates)
    boundary = 0
    buf = np.empty((min(BLOCK_ROWS, replicates), spec.n))
    for start in range(0, replicates, BLOCK_ROWS):
        block = slice(start, min(start + BLOCK_ROWS, replicates))
        Z = replicate_block(seed, spec.n, block.start, block.stop,
                            out=buf[:block.stop - block.start])
        Z += truth.g
        picked = select_block(c, spec, Z, window)
        boundary += sum(flag != "none" for flag in picked.at_boundary)
        ghat = 1.0 / (1.0 + picked.lam_hat[:, None] * spec.k) * Z
        gcen = a_c * Z
        cov_s[block] = ((gcen - truth.g) * (ghat - gcen)).sum(axis=1)
        var_s[block] = ((ghat - gcen) ** 2).sum(axis=1)
        extra_s[block] = ((ghat - truth.g) ** 2).sum(axis=1) - risk0

    root = math.sqrt(replicates)
    return DecompositionReport(
        lambda0=ideal.lam,
        df0=ideal.df,
        lambda_c=central.lam,
        df_c=central.df,
        bias_term=bias,
        covariance_term=float(cov_s.mean()),
        variability_term=float(var_s.mean()),
        extra_risk=float(extra_s.mean()),
        mc_replicates=replicates,
        mc_standard_errors=(
            float(cov_s.std(ddof=1) / root),
            float(var_s.std(ddof=1) / root),
            float(extra_s.std(ddof=1) / root),
        ),
        boundary_count=boundary,
    )


def curvature_denominator(c: Criterion, spec: DesignSpectrum, lam: float, u) -> float:
    """The normalizer Q_lam(u) of the first-order selection expansion.

    sum a b^((p-1)/q) { (1/q) a + [ (1 + p/q) a - 2 ] (c_q b^(1/q) u - 1) }
    over penalized components; at u with c_q b^(1/q) u = 1 it collapses to
    sum (1/q) a^2 b^((p-1)/q).
    """
    w = weights(spec, lam)
    nd = spec.null_dim
    a = w.a[nd:]
    b = w.b[nd:]
    up = np.asarray(u, dtype=float)[nd:]
    p, q = c.p, c.q
    B = b ** ((p - 1.0) / q)
    inner = a / q + ((1.0 + p / q) * a - 2.0) * (c.c_q * b ** (1.0 / q) * up - 1.0)
    return float(np.sum(a * B * inner))


def decomposition_approx(c: Criterion, spec: DesignSpectrum, truth: TruthSpectrum,
                         window: SelectionWindow | None = None) -> tuple[float, float]:
    """First-order analytic approximations to variability and covariance.

    Both come from linearizing the selection equation around the central
    smoothing parameter:

        variability = c_q^2/Q^2 { (sum a^2 b^2 (g^2+1)) (sum a^2 b^(2p/q) var w)
                                   + sum a^4 b^(2+2p/q) third_mixed }
        covariance  = (c_q/Q) sum a^2 b^(1+p/q) (a cov(z^2, w) - g cov(z, w))

    with all moments of w = |z|^(2/q) at the true g and Q the normalizer
    evaluated at u = E|z|^(2/q).  Approximate by construction; the Monte
    Carlo decomposition is the ground truth it is compared against.
    """
    central = central_lambda(c, spec, truth, window)
    w = weights(spec, central.lam)
    nd = spec.null_dim
    a = w.a[nd:]
    b = w.b[nd:]
    g = truth.g[nd:]
    p, q = c.p, c.q

    m = specfun.moment_set(g, q)
    Q = curvature_denominator(c, spec, central.lam, np.concatenate((np.zeros(nd), m.m1)))
    scale = float(np.sum(np.abs(a * b ** ((p - 1.0) / q))))
    if abs(Q) < 1e-12 * max(scale, 1e-300):
        raise NumericError(f"degenerate selection normalizer Q = {Q:.3e}")

    signal = float(np.sum(a**2 * b**2 * (g**2 + 1.0)))
    spread = float(np.sum(a**2 * b ** (2.0 * p / q) * m.var_w))
    skew = float(np.sum(a**4 * b ** (2.0 + 2.0 * p / q) * m.third_mixed))
    variability = c.c_q**2 / Q**2 * (signal * spread + skew)
    covariance = c.c_q / Q * float(
        np.sum(a**2 * b ** (1.0 + p / q) * (a * m.cov_z2_w - g * m.cov_z_w))
    )
    return variability, covariance


@dataclass(frozen=True)
class RateProbe:
    """Central smoothing parameters across sample sizes with fitted slopes."""

    rows: list[tuple[int, float, float]]  # (n, lam_c, df_c)
    slope_lambda: float
    slope_df: float
    excluded: list[int]  # n values dropped for boundary-flagged lam_c


def rate_probes(criteria, design: dict, n_list, truth_gen, sigma: float = 1.0,
                cache_dir=None) -> list[RateProbe]:
    """Track how each criterion's central smoothing parameter scales with n.

    For each n, builds the setting (see setting), its selection window and
    E|z|^(2/q) for each distinct q once, and locates every criterion's lam_c
    on them; boundary-flagged fits are excluded and reported.  Slopes are
    least squares of log lam_c and log df_c against log n.
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) < RATE_MIN_SIZES or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"rate_probes needs an increasing n list with >= {RATE_MIN_SIZES} values")
    rows: list[list[tuple[int, float, float]]] = [[] for _ in criteria]
    excluded: list[list[int]] = [[] for _ in criteria]
    for n in n_list:
        spec, truth = setting(design, n, truth_gen, sigma, cache_dir)
        window = selection_window(spec)
        powers = {q: _penalized_power(spec, truth, q)
                  for q in dict.fromkeys(c.q for c in criteria)}
        for c, fits, dropped in zip(criteria, rows, excluded):
            central = _central_at(c, spec, powers[c.q], window)
            if central.at_boundary != "none":
                dropped.append(n)
            else:
                fits.append((n, central.lam, central.df))
    probes = []
    for c, fits, dropped in zip(criteria, rows, excluded):
        if len(fits) < 2:
            raise NumericError(f"rate_probes ({c.name}): fewer than two interior fits, no slope")
        logn = np.log([r[0] for r in fits])
        probes.append(RateProbe(
            rows=fits,
            slope_lambda=float(np.polyfit(logn, np.log([r[1] for r in fits]), 1)[0]),
            slope_df=float(np.polyfit(logn, np.log([r[2] for r in fits]), 1)[0]),
            excluded=dropped,
        ))
    return probes
