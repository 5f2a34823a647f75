"""Truth-known quantities: risk, ideal and central parameters, decompositions."""

import json
import math

import numpy as np
import pytest

from splinesel import (
    CP,
    EE,
    GML,
    NumericError,
    build_design,
    central_lambda,
    decomposition_approx,
    decomposition_mc,
    decompose,
    ideal_lambda,
    lambdas_for_df,
    make_criterion,
    make_truth,
    rate_probes,
    risk,
    select,
    selection_window,
    setting,
    truth_curve,
    weights,
)
from splinesel import criteria, oracle, specfun
from splinesel.oracle import _risk_log_derivs, curvature_denominator
from splinesel._rng import replicate_normals


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
    for cache in (None, tmp_path):
        got_spec, got_truth = setting(design, 61, section_curve_gen, 0.5, cache)
        assert np.array_equal(got_spec.x, spec.x)
        assert np.array_equal(got_spec.U, spec.U) and np.array_equal(got_spec.k, spec.k)
        assert np.array_equal(got_truth.f, truth.f)
        assert np.array_equal(got_truth.g, truth.g)
        assert got_truth.sigma == 0.5
    assert len(list(tmp_path.glob("*.npz"))) == 1


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
        a = weights(spec61, lam).a
        sq = np.sum((a * z - truth61.g) ** 2, axis=1)
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(risk(spec61, truth61, lam) - sq.mean()) <= 3.0 * se


@pytest.mark.parametrize("lam", [1e-3, 0.05, 1.0, 20.0])
def test_risk_identities(spec61, truth61, lam):
    w = weights(spec61, lam)
    g = truth61.g
    r = risk(spec61, truth61, lam)
    # squared-shrinkage form plus n recovers the risk
    cp_form = float(np.sum(w.b**2 * (g**2 + 1.0) - 2.0 * w.b)) + 61.0
    assert cp_form == pytest.approx(r, rel=1e-10)
    # eigenvalue-weighted rewrite via b = lam k a
    rewrite = lam * float(np.sum(w.a * w.b * spec61.k * g**2)) + float(np.sum(w.a**2))
    assert rewrite == pytest.approx(r, rel=1e-10)


@pytest.mark.parametrize("lam", [1e-3, 0.026, 1.0, 20.0])
def test_risk_log_derivs_match_finite_differences(spec61, truth61, lam):
    # the slope and curvature the minimizer's Newton solve runs on
    h = 1e-4
    r = [risk(spec61, truth61, lam * math.exp(k * h)) for k in (-1, 0, 1)]
    d1, d2 = _risk_log_derivs(spec61, truth61, lam)
    assert d1 == pytest.approx((r[2] - r[0]) / (2.0 * h), rel=1e-6, abs=1e-7)
    assert d2 == pytest.approx((r[2] - 2.0 * r[1] + r[0]) / h**2, rel=1e-4, abs=1e-5)


# --- ideal smoothing parameter ----------------------------------------------


def test_ideal_lambda_brute_force(spec61, truth61, window61):
    point = ideal_lambda(spec61, truth61, window61)
    grid = np.exp(
        np.linspace(
            math.log(window61.lambdas[0]), math.log(window61.lambdas[-1]), 10001
        )
    )
    vals = np.array([risk(spec61, truth61, lam) for lam in grid])
    best = int(np.argmin(vals))
    step = math.log(grid[1]) - math.log(grid[0])
    assert abs(math.log(point.lam) - math.log(grid[best])) <= step
    assert point.at_boundary == "none"
    assert risk(spec61, truth61, point.lam) <= vals[best]


def test_ideal_lambda_pure_noise_hits_boundary(spec61, window61):
    truth = make_truth(spec61, np.zeros(61), 1.0)
    point = ideal_lambda(spec61, truth, window61)
    assert point.at_boundary == "high-lambda"


# --- central smoothing parameter --------------------------------------------


@pytest.mark.parametrize("n", [61, 241])
def test_central_cp_is_ideal(spectra, truths, windows, n):
    ideal = ideal_lambda(spectra[n], truths[n], windows[n])
    central = central_lambda(CP, spectra[n], truths[n], windows[n])
    assert abs(central.lam - ideal.lam) / ideal.lam <= 1e-6


def test_central_gml_matches_mean_selected_df(spectra, truths, windows):
    # the central df is where selection is centered: it agrees with the
    # empirical mean of df_hat up to Monte Carlo error.  This is an
    # asymptotic-mean statement; n = 61 still carries a visible
    # finite-sample offset (mean 4.91 vs center 5.12, ~8 standard errors
    # at 1000 replicates), so the comparison runs at n = 241 where the
    # offset has decayed below the Monte Carlo resolution.
    n = 241
    central = central_lambda(GML, spectra[n], truths[n], windows[n])
    dfs = np.empty(1000)
    for r in range(1000):
        z = truths[n].g + replicate_normals(9090, n, r, n)
        dfs[r] = select(GML, spectra[n], z, window=windows[n]).df_hat
    se = dfs.std(ddof=1) / math.sqrt(len(dfs))
    assert abs(dfs.mean() - central.df) <= 3.0 * se


@pytest.mark.parametrize("crit", [GML, EE])
def test_central_zeroes_expected_score(spec61, truth61, window61, crit):
    # exact finite-n centering: the loss is linear in u, so the slope at
    # lam_c has mean zero over Normal(g, I) draws -- a Monte Carlo check of
    # the analytic E|z|^(2/q) chain that feeds central_lambda
    from splinesel.criteria import loss_derivs

    lam_c = central_lambda(crit, spec61, truth61, window61).lam
    scores = np.empty(1000)
    for r in range(1000):
        z = truth61.g + replicate_normals(4321, 61, r, 61)
        u = np.abs(z) ** (2.0 / crit.q)
        scores[r] = loss_derivs(crit, spec61, lam_c, u)[0]
    se = scores.std(ddof=1) / math.sqrt(len(scores))
    assert abs(scores.mean()) <= 3.0 * se


def test_central_pure_noise_hits_boundary(spec61, window61):
    truth = make_truth(spec61, np.zeros(61), 1.0)
    for crit in (CP, GML, EE):
        point = central_lambda(crit, spec61, truth, window61)
        assert point.at_boundary == "high-lambda"


def counting(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_oracles_screen_with_one_table_product(monkeypatch, spec61, truth61, window61):
    # The coarse screen is a table product over the window; only the Newton
    # refinement evaluates the exact risk or loss, once at its root.
    risk_calls = counting(monkeypatch, oracle, "risk")
    ideal_lambda(spec61, truth61, window61)
    assert len(risk_calls) <= 2
    loss_calls = counting(monkeypatch, criteria, "loss")
    for crit in (CP, GML, EE):
        loss_calls.clear()
        central_lambda(crit, spec61, truth61, window61)
        assert len(loss_calls) <= 1


@pytest.mark.parametrize("crit", [CP, GML, EE])
def test_central_ignores_large_null_space_signal(spec61, truth61, window61, crit):
    # Adding 300 x moves only the null-space components of g (to |g| near
    # 1181 at n = 61), which no criterion formula reads: the central lambda
    # must not change, and no series runs on those components.
    f = section_curve(spec61.x) + 300.0 * spec61.x
    shifted = make_truth(spec61, f, 1.0)
    assert np.max(np.abs(shifted.g[:2])) > 1000.0
    base = central_lambda(crit, spec61, make_truth(spec61, section_curve(spec61.x), 1.0),
                          window61)
    moved = central_lambda(crit, spec61, shifted, window61)
    assert moved.lam == pytest.approx(base.lam, rel=1e-6)
    assert moved.at_boundary == "none"


def stationarity_residual(c, spec, truth, lam):
    """Normal-equation residual of the expected criterion at lam.

    sum a b^(p/q) (c_q E|z|^(2/q) - 1) - [ sum a b^((p-1)/q) - sum a b^(p/q) ]
    over penalized components; zero at the central smoothing parameter.
    """
    w = weights(spec, lam)
    nd = spec.null_dim
    a = w.a[nd:]
    b = w.b[nd:]
    eu = specfun.abs_moment(truth.g[nd:], 1.0 / c.q)
    lhs = float(np.sum(a * b ** (c.p / c.q) * (c.c_q * eu - 1.0)))
    rhs = float(np.sum(a * b ** ((c.p - 1.0) / c.q)) - np.sum(a * b ** (c.p / c.q)))
    return lhs - rhs


@pytest.mark.parametrize("crit", [CP, GML, EE])
def test_stationarity_residual_vanishes_at_central(spec61, truth61, window61, crit):
    lam_c = central_lambda(crit, spec61, truth61, window61).lam
    res = stationarity_residual(crit, spec61, truth61, lam_c)
    res_lo = stationarity_residual(crit, spec61, truth61, 0.99 * lam_c)
    res_hi = stationarity_residual(crit, spec61, truth61, 1.01 * lam_c)
    assert res_lo * res_hi < 0
    assert abs(res) <= 1e-2 * max(abs(res_lo), abs(res_hi))


# --- risk decomposition -----------------------------------------------------


def test_decomposition_cp(spec61, truth61, window61):
    report = decomposition_mc(CP, spec61, truth61, 1000, seed=777, window=window61)
    risk0 = risk(spec61, truth61, report.lambda0)
    assert 0.0 <= report.bias_term <= 1e-9 * risk0
    assert report.mc_replicates == 1000
    # the three pieces reassemble the extra risk up to Monte Carlo error
    gap = report.bias_term + 2.0 * report.covariance_term + report.variability_term
    se_cov, se_var, se_extra = report.mc_standard_errors
    assert abs(gap - report.extra_risk) <= 3.0 * (2.0 * se_cov + se_var + se_extra)


def test_decomposition_bias_nonnegative(spec61, truth61, window61):
    for crit in (GML, EE):
        report = decomposition_mc(crit, spec61, truth61, 200, seed=5, window=window61)
        assert report.bias_term >= 0.0


def test_decomposition_gml_bias_grows(spectra, truths, windows):
    ratios = []
    for n in (61, 241):
        report = decomposition_mc(
            GML, spectra[n], truths[n], 400, seed=42, window=windows[n]
        )
        ratios.append(report.bias_term / report.variability_term)
    assert ratios[1] > ratios[0]


def test_decomposition_replicate_floor(spec61, truth61, window61):
    with pytest.raises(ValueError):
        decomposition_mc(CP, spec61, truth61, 99, seed=0, window=window61)


def test_decomposition_report_json_fields(spec61, truth61, window61):
    report = decomposition_mc(CP, spec61, truth61, 100, seed=1, window=window61)
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
    window = selection_window(spec)
    report = decomposition_mc(GML, spec, truth, 200, seed=3, window=window)
    flagged = sum(
        select(GML, spec, truth.g + replicate_normals(3, 31, r, 31), window).at_boundary != "none"
        for r in range(200)
    )
    assert report.boundary_count == flagged
    assert 0 < flagged < 200
    assert json.loads(report.to_json())["boundary_count"] == flagged


def test_normalizer_collapses_at_mean_response(spec61):
    # with u chosen so c_q b^(1/q) u = 1 the data-dependent summand drops out
    for crit in (CP, EE, make_criterion(2.5, 2.0)):
        lam = 0.4
        w = weights(spec61, lam)
        u = np.zeros(61)
        u[2:] = 1.0 / (crit.c_q * w.b[2:] ** (1.0 / crit.q))
        got = curvature_denominator(crit, spec61, lam, u)
        expect = float(
            np.sum(w.a[2:] ** 2 * w.b[2:] ** ((crit.p - 1.0) / crit.q)) / crit.q
        )
        assert got == pytest.approx(expect, rel=1e-12)


def test_variability_approx_tracks_monte_carlo(spectra, truths, windows):
    # The analytic variability comes from linearizing the selection
    # equation, so it is quantitative only while the selection spread is
    # small.  GML at n = 241 sits well inside that regime (sd of log
    # lam_hat ~ 0.5): the approximation lands within a few percent of the
    # Monte Carlo value, tested here at 25%.
    n = 241
    var_approx, _ = decomposition_approx(GML, spectra[n], truths[n], windows[n])
    report = decomposition_mc(GML, spectra[n], truths[n], 2000, seed=99, window=windows[n])
    assert var_approx == pytest.approx(report.variability_term, rel=0.25)


def test_variability_approx_cp_underestimates(spec61, truth61, window61):
    # the (2, 1) member violates the linearization premise at n = 61
    # (sd of log lam_hat ~ 1.4), and the first-order value comes out at
    # roughly a third of the truth; pin the direction and the rough size
    # so a silent change in either side gets noticed
    var_approx, _ = decomposition_approx(CP, spec61, truth61, window61)
    report = decomposition_mc(CP, spec61, truth61, 2000, seed=99, window=window61)
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
    real_setting, real_window = oracle.setting, oracle.selection_window

    def counting_setting(design, n, *args):
        calls.append(("setting", n))
        return real_setting(design, n, *args)

    def counting_window(spec):
        calls.append(("window", spec.n))
        return real_window(spec)

    monkeypatch.setattr(oracle, "setting", counting_setting)
    monkeypatch.setattr(oracle, "selection_window", counting_window)
    design = {"kind": "equispaced", "lo": -1.0, "hi": 1.0}
    rate_probes([CP, GML, EE], design, [61, 81, 101, 121], section_curve_gen,
                cache_dir=cache_dir)
    assert calls == [(kind, n) for n in (61, 81, 101, 121) for kind in ("setting", "window")]


def test_rate_probes_compute_each_power_once_per_q(cache_dir, monkeypatch):
    # cp and gml share q = 1: one E|z|^(2/q) series per distinct q and n,
    # and every lam_c is the one central_lambda finds on its own.
    calls = []
    real = specfun.abs_moment

    def counting(g, s):
        calls.append(s)
        return real(g, s)

    design = {"kind": "equispaced", "lo": -1.0, "hi": 1.0}
    ns = [61, 81, 101, 121]
    monkeypatch.setattr(specfun, "abs_moment", counting)
    probes = rate_probes([CP, GML, EE], design, ns, section_curve_gen, cache_dir=cache_dir)
    assert calls == [s for _ in ns for s in (1.0, 1.0 / 1.5)]
    monkeypatch.undo()
    for c, probe in zip((CP, GML, EE), probes):
        expected = []
        for n in ns:
            spec, truth = setting(design, n, section_curve_gen, 1.0, cache_dir)
            central = central_lambda(c, spec, truth, selection_window(spec))
            expected.append((n, central.lam, central.df))
        assert probe.rows == expected


def test_rate_probes_names_the_criterion_without_a_slope(cache_dir):
    design = {"kind": "equispaced", "lo": -1.0, "hi": 1.0}
    with pytest.raises(NumericError, match=r"\(cp\).*interior"):
        rate_probes([CP, GML], design, [61, 81, 101, 121], lambda grid: np.zeros(grid.n),
                    cache_dir=cache_dir)
