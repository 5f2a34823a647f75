"""Truth-known quantities: risk, ideal and central parameters, decompositions."""

import inspect
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from splinesel import (
    CP,
    EE,
    GML,
    NumericError,
    build_design,
    cached_decompose,
    central_lambda,
    decomposition_approx,
    decomposition_mc,
    decompose,
    ideal_lambda,
    lambdas_for_df,
    load_spectrum,
    loss,
    make_criterion,
    make_truth,
    rate_probes,
    risk,
    rotate,
    select,
    select_block,
    setting,
    truth_curve,
    weights,
)
import splinesel
from splinesel import criteria, oracle, simlab, specfun
from splinesel.oracle import curvature_denominator
from splinesel.spectrum import DesignSpectrum
from splinesel._rng import replicate_normals

from crosscheck import curvature_denominator_closed_form
from fresh import run_fresh


def section_curve(x):
    return np.sin(np.pi * (x + 1.0)) / (x / 2.0 + 1.0)


def section_curve_gen(grid):
    return section_curve(grid.x)


# --- truth construction -----------------------------------------------------


def test_make_truth_norm_invariant(spec61):
    f = section_curve(spec61.x)
    truth = make_truth(spec61, f, 2.0)
    assert np.linalg.norm(truth.g) == pytest.approx(np.linalg.norm(f) / 2.0, rel=1e-10)


def test_make_truth_validates(spec61):
    with pytest.raises(ValueError):
        make_truth(spec61, np.zeros(60), 1.0)
    with pytest.raises(ValueError):
        make_truth(spec61, np.zeros(61), 0.0)


@pytest.mark.parametrize("sigma", [math.nan, math.inf])
def test_make_truth_rejects_non_finite_sigma(spec61, sigma):
    with pytest.raises(ValueError, match="positive and finite"):
        make_truth(spec61, np.zeros(61), sigma)


@pytest.mark.parametrize("design", [
    {"kind": "equispaced", "lo": -1.0, "hi": 1.0},
    {"kind": "quantile", "dist": "normal(0,1)"},
])
def test_setting_matches_manual_construction(tmp_path, design, spec61):
    params = {k: v for k, v in design.items() if k != "kind"}
    grid = build_design(design["kind"], 61, **params)
    spec = decompose(grid)
    truth = make_truth(spec, section_curve(grid.x), 0.5)
    # The spectrum drops U once the truth is rotated.  With a cache, the
    # first call is the cold miss and the second the warm hit.
    for cache in (None, tmp_path, tmp_path):
        got_spec, got_truth = setting(design, 61, section_curve_gen, 0.5, cache)
        assert np.array_equal(got_spec.x, spec.x) and np.array_equal(got_spec.k, spec.k)
        assert got_spec.U is None
        assert np.array_equal(got_truth.f, truth.f)
        assert np.array_equal(got_truth.g, truth.g)
        assert got_truth.sigma == 0.5
    assert len(list(tmp_path.glob("*.npz"))) == 1
    assert np.array_equal(load_spectrum(next(tmp_path.glob("*.npz"))).U, spec.U)


def _design(kind: str, n: int) -> dict:
    if kind == "equispaced":
        return {"kind": "equispaced", "lo": -1.0, "hi": 1.0}
    if kind == "normal-quantile":
        return {"kind": "quantile", "dist": "normal(0,1)"}
    # Equispaced points on [-1, 1], each moved by up to a quarter gap.
    jitter = np.random.default_rng(n).uniform(-0.25, 0.25, n) * 2.0 / (n - 1)
    return {"kind": "explicit", "points": list(np.linspace(-1.0, 1.0, n) + jitter)}


@pytest.mark.parametrize("n", [61, 241, 961])
@pytest.mark.parametrize("kind", ["equispaced", "normal-quantile", "explicit"])
def test_streamed_truth_rotation_matches_held_basis(tmp_path, kind, n):
    # A cold miss folds the U it built into g, and a warm hit folds U's rows
    # as they stream from the cache.  Both give the bits of rotate on the
    # held basis, fresh or loaded, with or without a cache.
    design = _design(kind, n)
    grid = build_design(design["kind"], n, **{k: v for k, v in design.items() if k != "kind"})
    expect = rotate(decompose(grid), section_curve(grid.x), 0.7)
    cold_spec, cold = setting(design, n, section_curve_gen, 0.7, tmp_path)
    warm_spec, warm = setting(design, n, section_curve_gen, 0.7, tmp_path)
    held_spec = cached_decompose(grid, tmp_path)
    _, uncached = setting(design, n, section_curve_gen, 0.7)
    assert cold_spec.U is None and warm_spec.U is None and held_spec.U is not None
    assert np.array_equal(rotate(held_spec, warm.f, 0.7), expect)
    for truth in (cold, warm, uncached):
        assert np.array_equal(truth.g, expect)
        assert truth.sigma == 0.7
    assert np.array_equal(cold_spec.k, warm_spec.k) and np.array_equal(warm_spec.k, held_spec.k)


# Prints ru_maxrss (KiB) once the package is imported, then builds the
# n = 961 paper-fig3 setting through the cache in argv[1], or, when argv[2]
# is "keep", loads the spectrum with U (cached_decompose) and rotates the
# truth with it, and prints whether scipy.linalg (a rebuild) was loaded.
_SETTING_PEAK = """
import resource, sys
from functools import partial
from splinesel import build_design, cached_decompose, make_truth, oracle, simlab
cache, keep = sys.argv[1], sys.argv[2] == "keep"
design = {"kind": "equispaced", "lo": -1.0, "hi": 1.0}
truth_gen = partial(simlab.truth_curve, "paper-fig3")
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
if keep:
    grid = build_design("equispaced", 961, lo=-1.0, hi=1.0)
    spec = cached_decompose(grid, cache)
    truth = make_truth(spec, truth_gen(grid), 1.0)
else:
    spec, truth = oracle.setting(design, 961, truth_gen, 1.0, cache)
assert (spec.U is not None) == keep
print("scipy.linalg" in sys.modules)
"""


def _setting_peak_rise(cache, keep: str) -> int:
    """Bytes by which a warm n = 961 setting raises a fresh process's peak."""
    out, peak = run_fresh(_SETTING_PEAK, str(cache), keep)
    before, rebuilt = out.split()
    assert rebuilt == "False"
    return 1024 * (peak - int(before))


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
def test_warm_setting_never_holds_the_basis(tmp_path):
    # U is 8 n^2 bytes (7.4 MB at n = 961).  A warm setting reads it a block
    # of rows at a time and never holds it whole (its peak rose 1.8 MB,
    # zipfile's read buffers included); a load that keeps U does.
    n = 961
    run_fresh(_SETTING_PEAK, str(tmp_path), "keep")  # a cold build fills the cache
    assert _setting_peak_rise(tmp_path, "drop") < 8 * n * n / 2
    assert _setting_peak_rise(tmp_path, "keep") > 8 * n * n


# --- risk -------------------------------------------------------------------


def test_risk_at_zero_is_n(spec61, truth61):
    assert risk(spec61, truth61, 0.0) == pytest.approx(61.0, abs=1e-12)


def test_risk_pure_noise_heavy_smoothing_limit(spec61):
    truth = make_truth(spec61, np.zeros(61), 1.0)
    assert risk(spec61, truth, 1e14) == pytest.approx(2.0, abs=1e-9)


def test_risk_matches_monte_carlo(spec61, truth61):
    # Oracle: at 5 smoothing levels compare the closed form against the
    # empirical mean of ||a z - g||^2 over 20 000 Normal(g, I) draws.
    rng = np.random.default_rng(20240815)
    z = truth61.g + rng.standard_normal((20000, 61))
    for target_df in (30.0, 15.0, 8.0, 5.0, 3.0):
        (lam,) = lambdas_for_df(spec61, [target_df])
        a = weights(spec61, lam)[0]
        sq = np.sum((a * z - truth61.g) ** 2, axis=1)
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(risk(spec61, truth61, lam) - sq.mean()) <= 3.0 * se


@pytest.mark.parametrize("lam", [1e-3, 0.05, 1.0, 20.0])
def test_risk_identities(spec61, truth61, lam):
    a, b = weights(spec61, lam)
    g = truth61.g
    r = risk(spec61, truth61, lam)
    # squared-shrinkage form plus n recovers the risk
    cp_form = float(np.sum(b**2 * (g**2 + 1.0) - 2.0 * b)) + 61.0
    assert cp_form == pytest.approx(r, rel=1e-10)
    # eigenvalue-weighted rewrite via b = lam k a
    rewrite = lam * float(np.sum(a * b * spec61.k * g**2)) + float(np.sum(a**2))
    assert rewrite == pytest.approx(r, rel=1e-10)


@pytest.mark.parametrize("n", [61, 241, 961])
def test_risk_is_cp_at_expected_u(spectra, truths, n):
    # The identity ideal_lambda rests on (Mallows' C_p): at u = E z^2 =
    # 1 + g^2, cp's value is R(lam) + n - 2 null_dim over the whole window.
    # cp scales b by c_q(1) = 1 + delta, which moves its value by at most
    # 3 |delta| times its absolute terms; a sum of n terms rounds by at most
    # n eps times them.
    spec, truth = spectra[n], truths[n]
    nd = spec.null_dim
    u = 1.0 + truth.g**2
    bound = 3.0 * abs(specfun.c_q(1.0) - 1.0) + n * np.finfo(float).eps
    for lam in spec.window:
        b = weights(spec, lam)[1]
        r = risk(spec, truth, lam)
        gap = r - loss(CP, spec, lam, u) - (2 * nd - n)
        terms = r + float(np.sum((b**2 * u + 2.0 * b + 2.0)[nd:]))
        assert abs(gap) <= bound * terms, lam


# --- ideal smoothing parameter ----------------------------------------------


def test_ideal_lambda_brute_force(spec61, truth61):
    point = ideal_lambda(spec61, truth61)
    grid = np.exp(
        np.linspace(
            math.log(spec61.window[0]), math.log(spec61.window[-1]), 10001
        )
    )
    vals = np.array([risk(spec61, truth61, lam) for lam in grid])
    best = int(np.argmin(vals))
    step = math.log(grid[1]) - math.log(grid[0])
    assert abs(math.log(point.lam) - math.log(grid[best])) <= step
    assert point.at_boundary == "none"
    assert risk(spec61, truth61, point.lam) <= vals[best]


def test_ideal_lambda_pure_noise_hits_boundary(spec61):
    truth = make_truth(spec61, np.zeros(61), 1.0)
    point = ideal_lambda(spec61, truth)
    assert point.at_boundary == "high-lambda"


# --- central smoothing parameter --------------------------------------------


@pytest.mark.parametrize("n", [61, 241, 961])
def test_central_cp_is_ideal(spectra, truths, n):
    ideal = ideal_lambda(spectra[n], truths[n])
    central = central_lambda(CP, spectra[n], truths[n])
    assert abs(central.lam - ideal.lam) / ideal.lam <= 1e-12


def test_central_gml_matches_mean_selected_df(spectra, truths):
    # the central df is where selection is centered: it agrees with the
    # empirical mean of df_hat up to Monte Carlo error.  This is an
    # asymptotic-mean statement; n = 61 still carries a visible
    # finite-sample offset (mean 4.91 vs center 5.12, ~8 standard errors
    # at 1000 replicates), so the comparison runs at n = 241 where the
    # offset has decayed below the Monte Carlo resolution.
    n = 241
    central = central_lambda(GML, spectra[n], truths[n])
    dfs = np.empty(1000)
    for r in range(1000):
        z = truths[n].g + replicate_normals(9090, n, r, n)
        dfs[r] = select(GML, spectra[n], z).df_hat
    se = dfs.std(ddof=1) / math.sqrt(len(dfs))
    assert abs(dfs.mean() - central.df) <= 3.0 * se


@pytest.mark.parametrize("crit", [GML, EE])
def test_central_zeroes_expected_score(spec61, truth61, crit):
    # exact finite-n centering: the loss is linear in u, so the slope at
    # lam_c has mean zero over Normal(g, I) draws -- a Monte Carlo check of
    # the analytic E|z|^(2/q) chain that feeds central_lambda
    from splinesel.criteria import loss_derivs

    lam_c = central_lambda(crit, spec61, truth61).lam
    scores = np.empty(1000)
    for r in range(1000):
        z = truth61.g + replicate_normals(4321, 61, r, 61)
        u = np.abs(z) ** (2.0 / crit.q)
        scores[r] = loss_derivs(crit, spec61, lam_c, u)[0]
    se = scores.std(ddof=1) / math.sqrt(len(scores))
    assert abs(scores.mean()) <= 3.0 * se


def test_central_pure_noise_hits_boundary(spec61):
    truth = make_truth(spec61, np.zeros(61), 1.0)
    for crit in (CP, GML, EE):
        point = central_lambda(crit, spec61, truth)
        assert point.at_boundary == "high-lambda"


def counting(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_oracles_screen_with_one_table_product(monkeypatch, spec61, truth61):
    # The coarse screen is a table product over the window; only the Newton
    # refinement evaluates the exact loss, once at its root.  The ideal
    # lambda is a cp screen and never evaluates the risk.
    risk_calls = counting(monkeypatch, oracle, "risk")
    ideal_lambda(spec61, truth61)
    assert risk_calls == []
    loss_calls = counting(monkeypatch, criteria, "loss")
    for crit in (CP, GML, EE):
        loss_calls.clear()
        central_lambda(crit, spec61, truth61)
        assert len(loss_calls) <= 1


def _on_window(spec, lambdas):
    """A copy of spec whose selection window holds the given points."""
    copy = DesignSpectrum(n=spec.n, x=spec.x, U=spec.U, k=spec.k, null_dim=spec.null_dim)
    copy.__dict__["window"] = lambdas
    return copy


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("locate", [
    lambda spec, truth: ideal_lambda(spec, truth),
    lambda spec, truth: central_lambda(GML, spec, truth),
    lambda spec, truth: central_lambda(EE, spec, truth),
], ids=["ideal", "central-gml", "central-ee"])
def test_oracle_working_set_does_not_grow_with_window(spectra, truths, locate):
    # The one-row screens run BLOCK_ROWS window points at a time, so a
    # window of four times the points needs no more memory.
    spec, truth = spectra[961], truths[961]
    own = spec.window
    wide = np.geomspace(own[0], own[-1], 4 * len(own))
    base = _traced_peak(lambda: locate(_on_window(spec, own), truth))
    assert _traced_peak(lambda: locate(_on_window(spec, wide), truth)) <= 1.05 * base


@pytest.mark.parametrize("crit", [CP, GML, EE])
def test_central_ignores_large_null_space_signal(spec61, truth61, crit):
    # Adding 300 x moves only the null-space components of g (to |g| near
    # 1181 at n = 61), which no criterion formula reads: the central lambda
    # must not change, and no series runs on those components.
    f = section_curve(spec61.x) + 300.0 * spec61.x
    shifted = make_truth(spec61, f, 1.0)
    assert np.max(np.abs(shifted.g[:2])) > 1000.0
    base = central_lambda(crit, spec61, make_truth(spec61, section_curve(spec61.x), 1.0))
    moved = central_lambda(crit, spec61, shifted)
    assert moved.lam == pytest.approx(base.lam, rel=1e-6)
    assert moved.at_boundary == "none"


def stationarity_residual(c, spec, truth, lam):
    """Normal-equation residual of the expected criterion at lam.

    sum a b^(p/q) (c_q E|z|^(2/q) - 1) - [ sum a b^((p-1)/q) - sum a b^(p/q) ]
    over penalized components; zero at the central smoothing parameter.
    """
    nd = spec.null_dim
    a, b = (v[nd:] for v in weights(spec, lam))
    eu = specfun.abs_moment(truth.g[nd:], 1.0 / c.q)
    lhs = float(np.sum(a * b ** (c.p / c.q) * (c.c_q * eu - 1.0)))
    rhs = float(np.sum(a * b ** ((c.p - 1.0) / c.q)) - np.sum(a * b ** (c.p / c.q)))
    return lhs - rhs


@pytest.mark.parametrize("crit", [CP, GML, EE])
def test_stationarity_residual_vanishes_at_central(spec61, truth61, crit):
    lam_c = central_lambda(crit, spec61, truth61).lam
    res = stationarity_residual(crit, spec61, truth61, lam_c)
    res_lo = stationarity_residual(crit, spec61, truth61, 0.99 * lam_c)
    res_hi = stationarity_residual(crit, spec61, truth61, 1.01 * lam_c)
    assert res_lo * res_hi < 0
    assert abs(res) <= 1e-2 * max(abs(res_lo), abs(res_hi))


# --- risk decomposition -----------------------------------------------------


def test_decomposition_cp(spec61, truth61):
    report = decomposition_mc(CP, spec61, truth61, 1000, seed=777)
    risk0 = risk(spec61, truth61, report.lambda0)
    assert 0.0 <= report.bias_term <= 1e-9 * risk0
    assert report.mc_replicates == 1000
    # the three pieces reassemble the extra risk up to Monte Carlo error
    gap = report.bias_term + 2.0 * report.covariance_term + report.variability_term
    se_cov, se_var, se_extra = report.mc_standard_errors
    assert abs(gap - report.extra_risk) <= 3.0 * (2.0 * se_cov + se_var + se_extra)


def test_decomposition_bias_nonnegative(spec61, truth61):
    for crit in (GML, EE):
        report = decomposition_mc(crit, spec61, truth61, 200, seed=5)
        assert report.bias_term >= 0.0


def test_decomposition_gml_bias_grows(spectra, truths):
    ratios = []
    for n in (61, 241):
        report = decomposition_mc(
            GML, spectra[n], truths[n], 400, seed=42
        )
        ratios.append(report.bias_term / report.variability_term)
    assert ratios[1] > ratios[0]


def test_decomposition_replicate_floor(spec61, truth61):
    with pytest.raises(ValueError):
        decomposition_mc(CP, spec61, truth61, 99, seed=0)


def test_decomposition_report_json_fields(spec61, truth61):
    report = decomposition_mc(CP, spec61, truth61, 100, seed=1)
    payload = json.loads(report.to_json())
    assert set(payload) == {
        "lambda0",
        "df0",
        "lambda_c",
        "df_c",
        "bias_term",
        "covariance_term",
        "variability_term",
        "extra_risk",
        "mc_replicates",
        "mc_standard_errors",
        "boundary_count",
    }
    assert len(payload["mc_standard_errors"]) == 3


def test_decomposition_counts_boundary_picks():
    # At n = 31 on the demo curve a good share of selections hit a window
    # end; the report counts exactly the replicates select flags.
    grid = build_design("equispaced", 31, lo=-1.0, hi=1.0)
    spec = decompose(grid)
    truth = make_truth(spec, truth_curve("paper-fig3", grid), 1.0)
    report = decomposition_mc(GML, spec, truth, 200, seed=3)
    flagged = sum(
        select(GML, spec, truth.g + replicate_normals(3, 31, r, 31)).at_boundary != "none"
        for r in range(200)
    )
    assert report.boundary_count == flagged
    assert 0 < flagged < 200
    assert json.loads(report.to_json())["boundary_count"] == flagged


def test_normalizer_collapses_at_mean_response(spec61):
    # with u chosen so c_q b^(1/q) u = 1 the data-dependent summand drops out
    for crit in (CP, EE, make_criterion(2.5, 2.0)):
        lam = 0.4
        a, b = (v[2:] for v in weights(spec61, lam))
        u = np.zeros(61)
        u[2:] = 1.0 / (crit.c_q * b ** (1.0 / crit.q))
        got = curvature_denominator(crit, spec61, lam, u)
        expect = float(np.sum(a**2 * b ** ((crit.p - 1.0) / crit.q)) / crit.q)
        assert got == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("crit", (CP, GML, EE, make_criterion(2.5, 1.7), make_criterion(1.2, 3.0)),
                         ids=lambda c: c.name)
@pytest.mark.parametrize("n", [61, 241])
def test_normalizer_matches_paper_closed_form(spectra, truths, crit, n):
    # Q comes from the criterion's log-lam derivatives; the paper's closed
    # form is an independent route, at u = E|z|^(2/q) of the true g and at
    # a random u.
    spec, truth = spectra[n], truths[n]
    lam = central_lambda(crit, spec, truth).lam
    eu = np.concatenate((np.zeros(2), specfun.abs_moment(truth.g[2:], 1.0 / crit.q)))
    for u in (eu, np.random.default_rng(n).exponential(2.0, size=n)):
        assert curvature_denominator(crit, spec, lam, u) == pytest.approx(
            curvature_denominator_closed_form(crit, spec, lam, u), rel=1e-12)


def test_variability_approx_tracks_monte_carlo(spectra, truths):
    # The analytic variability comes from linearizing the selection
    # equation, so it is quantitative only while the selection spread is
    # small.  GML at n = 241 sits well inside that regime (sd of log
    # lam_hat ~ 0.5): the approximation lands within a few percent of the
    # Monte Carlo value, tested here at 25%.
    n = 241
    var_approx, _ = decomposition_approx(GML, spectra[n], truths[n])
    report = decomposition_mc(GML, spectra[n], truths[n], 2000, seed=99)
    assert var_approx == pytest.approx(report.variability_term, rel=0.25)


def test_variability_approx_cp_underestimates(spec61, truth61):
    # the (2, 1) member violates the linearization premise at n = 61
    # (sd of log lam_hat ~ 1.4), and the first-order value comes out at
    # roughly a third of the truth; pin the direction and the rough size
    # so a silent change in either side gets noticed
    var_approx, _ = decomposition_approx(CP, spec61, truth61)
    report = decomposition_mc(CP, spec61, truth61, 2000, seed=99)
    assert var_approx < 0.6 * report.variability_term
    assert var_approx > 0.15 * report.variability_term


# --- rate probe -------------------------------------------------------------


def test_asym_prediction_doubles_with_n():
    from splinesel import asym_sum

    for lam in (0.01, 1.0):
        ratio = asym_sum(1.0, 0.0, 1922, lam) / asym_sum(1.0, 0.0, 961, lam)
        assert ratio == pytest.approx(2.0 ** 0.25, rel=1e-12)


def test_rate_probe_slopes(cache_dir):
    design = {"kind": "equispaced", "lo": -1.0, "hi": 1.0}
    (probe,) = rate_probes(
        [CP], design, [61, 121, 241, 481], section_curve_gen, cache_dir=cache_dir
    )
    assert len(probe.rows) == 4
    assert probe.excluded == []
    ns = [row[0] for row in probe.rows]
    assert ns == [61, 121, 241, 481]
    # df grows slowly with n; the exact slope band is checked at acceptance
    assert 0.05 < probe.slope_df < 0.35
    assert probe.slope_lambda < 0.5


def test_rate_probe_validates():
    design = {"kind": "equispaced", "lo": -1.0, "hi": 1.0}
    with pytest.raises(ValueError):
        rate_probes([CP], design, [61, 121, 241], section_curve_gen)
    with pytest.raises(ValueError):
        rate_probes([CP], design, [61, 121, 121, 241], section_curve_gen)


def test_rate_probe_excludes_boundary_fits(cache_dir):
    design = {"kind": "equispaced", "lo": -1.0, "hi": 1.0}
    with pytest.raises(NumericError, match="interior"):
        rate_probes(
            [CP],
            design,
            [61, 81, 101, 121],
            lambda grid: np.zeros(grid.n),
            cache_dir=cache_dir,
        )


@pytest.mark.parametrize("amp,excluded_ee", [(1.0, []), (0.3, [31])])
def test_rate_probes_match_single_criterion_probes(cache_dir, amp, excluded_ee):
    # At amplitude 0.3 ee's lam_c sits on the boundary at n = 31 and is
    # excluded there, while cp and gml keep every n.
    design = {"kind": "equispaced", "lo": -1.0, "hi": 1.0}
    ns = [31, 41, 51, 61]

    def gen(grid):
        return amp * np.sin(np.pi * grid.x)

    crits = [CP, GML, EE]
    probes = rate_probes(crits, design, ns, gen, sigma=1.0, cache_dir=cache_dir)
    assert probes == [rate_probes([c], design, ns, gen, sigma=1.0, cache_dir=cache_dir)[0]
                      for c in crits]
    assert [p.excluded for p in probes] == [[], [], excluded_ee]


def test_rate_probes_builds_each_setting_and_window_once(cache_dir, monkeypatch):
    calls = []
    real_setting, real_window = oracle.setting, criteria.selection_window

    def counting_setting(design, n, *args):
        calls.append(("setting", n))
        return real_setting(design, n, *args)

    def counting_window(spec):
        calls.append(("window", spec.n))
        return real_window(spec)

    monkeypatch.setattr(oracle, "setting", counting_setting)
    monkeypatch.setattr(criteria, "selection_window", counting_window)
    design = {"kind": "equispaced", "lo": -1.0, "hi": 1.0}
    rate_probes([CP, GML, EE], design, [61, 81, 101, 121], section_curve_gen,
                cache_dir=cache_dir)
    assert calls == [(kind, n) for n in (61, 81, 101, 121) for kind in ("setting", "window")]


def test_rate_probes_compute_each_power_once_per_q(cache_dir, monkeypatch):
    # cp and gml share q = 1: one E|z|^(2/q) series per distinct q and n,
    # and every lam_c is the one central_lambda finds on its own.  For q = 1
    # the series is E z^2 = 1 + g^2 exactly, so only ee's q takes a moment.
    calls = []
    real = specfun.abs_moment

    def counting(g, s):
        calls.append(s)
        return real(g, s)

    design = {"kind": "equispaced", "lo": -1.0, "hi": 1.0}
    ns = [61, 81, 101, 121]
    monkeypatch.setattr(specfun, "abs_moment", counting)
    probes = rate_probes([CP, GML, EE], design, ns, section_curve_gen, cache_dir=cache_dir)
    assert calls == [1.0 / 1.5 for _ in ns]
    monkeypatch.undo()
    for c, probe in zip((CP, GML, EE), probes):
        expected = []
        for n in ns:
            spec, truth = setting(design, n, section_curve_gen, 1.0, cache_dir)
            central = central_lambda(c, spec, truth)
            expected.append((n, central.lam, central.df))
        assert probe.rows == expected


def test_rate_probes_names_the_criterion_without_a_slope(cache_dir):
    design = {"kind": "equispaced", "lo": -1.0, "hi": 1.0}
    with pytest.raises(NumericError, match=r"\(cp\).*interior"):
        rate_probes([CP, GML], design, [61, 81, 101, 121], lambda grid: np.zeros(grid.n),
                    cache_dir=cache_dir)


# --- the spectrum's own selection window ------------------------------------


def test_each_spectrum_builds_its_window_once(monkeypatch):
    # Every route that screens a window takes the spectrum's own: one build
    # per spectrum object, whichever route comes first.
    built = []
    real = criteria.selection_window

    def counting(spec):
        built.append(id(spec))
        return real(spec)

    monkeypatch.setattr(criteria, "selection_window", counting)
    grid = build_design("equispaced", 31, lo=-1.0, hi=1.0)
    specs = [decompose(grid), decompose(grid)]
    for spec in specs:
        truth = make_truth(spec, truth_curve("paper-fig3", grid), 1.0)
        z = truth.g + replicate_normals(5, 31, 0, 31)
        select(GML, spec, z)
        select_block(CP, spec, np.vstack([z, -z]))
        ideal_lambda(spec, truth)
        central_lambda(EE, spec, truth)
        decomposition_mc(GML, spec, truth, 100, seed=5)
        decomposition_approx(CP, spec, truth)
    assert built == [id(spec) for spec in specs]


def test_no_function_takes_a_window():
    takers = {f"{fn.__module__}.{fn.__qualname__}"
              for module in (criteria, oracle, simlab) for fn in vars(module).values()
              if inspect.isfunction(fn) and "window" in inspect.signature(fn).parameters}
    assert takers == set()
    public = [name for name in splinesel.__all__
              if inspect.isfunction(getattr(splinesel, name))
              and "window" in inspect.signature(getattr(splinesel, name)).parameters]
    assert public == []
