"""Truth-known quantities: risk curves, ideal and central smoothing parameters,
and the bias/covariance/variability decomposition of the extra prediction risk.

With the true curve in hand (simulation settings), the risk
R(lam) = sum_i (b_i^2 g_i^2 + a_i^2) is available in closed form.  The
minimizer lam_c of the expected criterion is where a given criterion is
centered; the risk's minimizer lam0, the ideal smoothing parameter, is cp's
lam_c.  The gap between selecting at lam_hat and sitting at lam0 decomposes
into a deterministic bias piece plus stochastic covariance and variability
pieces, estimated here by Monte Carlo and approximated analytically.
"""

from dataclasses import dataclass, asdict
import json
import math

import numpy as np

from . import specfun
from ._rng import spectral_blocks
from .criteria import (
    CP,
    Criterion,
    _log_derivs,
    _select_rows,
    select,  # noqa: F401  bound here for perfbench/test_bench.py's tracer check
    selection_window,  # noqa: F401  bound here for perfbench/test_bench.py's tracer check
)
from .errors import NumericError
from .spectrum import (BLOCK_ROWS, DesignSpectrum, _in_slices, _shrink, build_design,
                       cached_decompose, rotate, weights)

DECOMPOSITION_MIN_REPLICATES = 100  # the fewest draws decomposition_mc takes
RATE_MIN_SIZES = 4  # the fewest sample sizes rate_probes fits slopes through


@dataclass(frozen=True)
class TruthSpectrum:
    """True curve and its spectral image g = U'f / sigma."""

    f: np.ndarray
    sigma: float
    g: np.ndarray


def make_truth(spec: DesignSpectrum, f, sigma: float) -> TruthSpectrum:
    f = _checked_truth(spec.n, f, sigma)
    return TruthSpectrum(f=f, sigma=float(sigma), g=rotate(spec, f, sigma))


def _checked_truth(n: int, f, sigma: float) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (n,):
        raise ValueError(f"f must have length {n}, got shape {f.shape}")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    return f


def setting(design: dict, n: int, truth: str, sigma: float,
            cache_dir=None) -> tuple[DesignSpectrum, TruthSpectrum]:
    """Spectrum and truth of one setting: the n-point grid of a design dict
    ({"kind": ..., plus that kind's fields}), decomposed through the disk
    cache (cached_decompose; cache_dir=None reads and writes no file), and
    the true curve that simlab.truth_curve reads from the truth id (a
    config's truth), evaluated before anything is decomposed.

    Once the truth is rotated, everything truth-known, Monte Carlo included
    (z = g + eps), reads only k and g, so the spectrum comes back without
    its basis (U is None).  A cached spectrum's U is folded into g as its
    rows are read and is never held whole; a miss folds the U it built,
    after writing it to the cache when there is one.  g has the same bits
    either way (rotate's blocked sum).
    """
    from .simlab import truth_curve  # simlab imports this module

    grid = build_design(design["kind"], n, **{k: v for k, v in design.items() if k != "kind"})
    f = _checked_truth(grid.n, truth_curve(truth, grid), sigma)
    fU = np.empty(grid.n)
    spec = cached_decompose(grid, cache_dir, fold=(f, fU))
    return spec, TruthSpectrum(f=f, sigma=float(sigma), g=fU / sigma)


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
    a, b = weights(spec, lam)
    return float(np.sum(b**2 * truth.g**2 + a**2))


def ideal_lambda(spec: DesignSpectrum, truth: TruthSpectrum) -> LambdaPoint:
    """Risk-minimizing smoothing parameter over the spectrum's selection window.

    It is cp's central lam: at u = E z^2 = 1 + g^2, cp's value is
    R(lam) + n - 2 null_dim (Mallows' identity), so both share one
    minimizer, located by selection's one-row screen and Newton solve.  A
    boundary winner is flagged, never clipped.
    """
    return central_lambda(CP, spec, truth)


def _penalized_power(spec: DesignSpectrum, truth: TruthSpectrum, q: float) -> np.ndarray:
    # E|z|^(2/q) on the penalized components and 0 on the null ones, which
    # no criterion formula reads, so no moment is taken there.  For q = 1 it
    # is E z^2 = 1 + g^2 exactly, the identity ideal_lambda rests on.
    nd = spec.null_dim
    g = truth.g[nd:]
    eu = np.zeros(spec.n)
    eu[nd:] = 1.0 + g**2 if q == 1 else specfun.abs_moment(g, 1.0 / q)
    return eu


def central_lambda(c: Criterion, spec: DesignSpectrum, truth: TruthSpectrum) -> LambdaPoint:
    """Minimizer of the expected criterion: where selection is centered.

    The criterion is linear in u, so the expected criterion is the criterion
    evaluated at u = E|z|^(2/q), taken on the penalized components.  It is
    minimized exactly like data-driven selection, by the same table screen
    and Newton solve at that u.  For cp, the (2, 1) member, the expected
    criterion is the risk plus n - 2 null_dim, so its central lam is the
    ideal one (ideal_lambda).
    """
    return _central_at(c, spec, _penalized_power(spec, truth, c.q))


def _central_at(c: Criterion, spec: DesignSpectrum, eu: np.ndarray) -> LambdaPoint:
    # central_lambda at a precomputed E|z|^(2/q), shared by criteria of one
    # q: selection at u = eu as a block of one row.
    lam, df, flags = _select_rows(c, spec, eu[None, :])
    return LambdaPoint(lam=float(lam[0]), df=float(df[0]), at_boundary=flags[0])


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
        return json.dumps(asdict(self), indent=2)


def decomposition_mc(c: Criterion, spec: DesignSpectrum, truth: TruthSpectrum,
                     replicates: int, seed: int) -> DecompositionReport:
    """Estimate the risk decomposition by Monte Carlo.

    Per replicate r, z = g + eps with eps keyed by (seed, n, r) -- the same
    draws for every criterion, so cross-criterion comparisons use common
    random numbers, drawn a block at a time (spectral_blocks); a block's
    u = |z|^(2/q) is written into one workspace, and its terms are summed
    in slices of rows (_in_slices).  The bias term is computed exactly from
    the risk curve; covariance, variability, and the total extra risk are
    averaged over replicates with standard errors.  A term that is not
    finite raises NumericError.
    """
    if replicates < DECOMPOSITION_MIN_REPLICATES:
        raise ValueError(f"decomposition_mc needs >= {DECOMPOSITION_MIN_REPLICATES} "
                         f"replicates, got {replicates}")
    ideal = ideal_lambda(spec, truth)
    central = central_lambda(c, spec, truth)
    risk0 = risk(spec, truth, ideal.lam)
    bias = risk(spec, truth, central.lam) - risk0

    a_c = weights(spec, central.lam)[0]

    def terms(lam_hat, Z):
        # Each row's covariance, variability and extra-risk terms.
        ghat = _shrink(spec.k, lam_hat)[0] * Z
        gcen = a_c * Z
        return (((gcen - truth.g) * (ghat - gcen)).sum(axis=1),
                ((ghat - gcen) ** 2).sum(axis=1),
                ((ghat - truth.g) ** 2).sum(axis=1) - risk0)

    cov_s = np.empty(replicates)
    var_s = np.empty(replicates)
    extra_s = np.empty(replicates)
    boundary = 0
    work = np.empty((min(BLOCK_ROWS, replicates), spec.n))  # u = |Z|^(2/q), block by block
    for start, Z in spectral_blocks(seed, spec.n, replicates, truth.g):
        block = slice(start, start + len(Z))
        u = np.abs(Z, out=work[:len(Z)])
        u **= 2.0 / c.q
        lam_hat, _, flags = _select_rows(c, spec, u)
        boundary += sum(flag != "none" for flag in flags)
        cov_s[block], var_s[block], extra_s[block] = _in_slices(terms, spec.n, lam_hat, Z)

    cov, var, extra = (float(s.mean()) for s in (cov_s, var_s, extra_s))
    if not all(map(math.isfinite, (bias, cov, var, extra))):
        raise NumericError(f"decomposition is not finite: bias {bias}, covariance {cov}, "
                           f"variability {var}, extra risk {extra}")
    root = math.sqrt(replicates)
    return DecompositionReport(
        lambda0=ideal.lam,
        df0=ideal.df,
        lambda_c=central.lam,
        df_c=central.df,
        bias_term=bias,
        covariance_term=cov,
        variability_term=var,
        extra_risk=extra,
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

    Q = (d2 - d1) / ((p/q) c_q^(p-1)) = lam^2 l''(u) / ((p/q) c_q^(p-1)),
    from the criterion's log-lam derivatives d1, d2 at u.  At u with
    c_q b^(1/q) u = 1 it collapses to sum (1/q) a^2 b^((p-1)/q) over the
    penalized components.
    """
    nd = spec.null_dim
    d1, d2 = _log_derivs(c, spec.k[nd:], np.asarray(u, dtype=float)[nd:], lam)
    return float(d2 - d1) / (c.p / c.q * c.c_q ** (c.p - 1.0))


def decomposition_approx(c: Criterion, spec: DesignSpectrum,
                         truth: TruthSpectrum) -> tuple[float, float]:
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
    nd = spec.null_dim
    g = truth.g[nd:]
    p, q = c.p, c.q
    m = specfun.moment_set(g, q)
    central = central_lambda(c, spec, truth)
    a, b = (v[nd:] for v in weights(spec, central.lam))
    Q = curvature_denominator(c, spec, central.lam, _penalized_power(spec, truth, q))
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


def rate_probes(criteria, design: dict, n_list, truth: str, sigma: float = 1.0,
                cache_dir=None) -> list[RateProbe]:
    """Track how each criterion's central smoothing parameter scales with n.

    For each n, builds the setting (see setting) and E|z|^(2/q) for each
    distinct q once, and locates every criterion's lam_c on them (the
    spectrum builds its selection window on first use, once per n);
    boundary-flagged fits are excluded and reported.  Slopes are least
    squares of log lam_c and log df_c against log n.
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) < RATE_MIN_SIZES or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"rate_probes needs an increasing n list with >= {RATE_MIN_SIZES} values")
    rows: list[list[tuple[int, float, float]]] = [[] for _ in criteria]
    excluded: list[list[int]] = [[] for _ in criteria]
    for n in n_list:
        spec, known = setting(design, n, truth, sigma, cache_dir)
        powers = {q: _penalized_power(spec, known, q)
                  for q in dict.fromkeys(c.q for c in criteria)}
        for c, fits, dropped in zip(criteria, rows, excluded):
            central = _central_at(c, spec, powers[c.q])
            if central.at_boundary != "none":
                dropped.append(n)
            else:
                fits.append((n, central.lam, central.df))
        del spec, known  # released before the next n's setting is built
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
