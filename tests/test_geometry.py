"""Curvature and reversal diagnostics of the criterion family."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

from splinesel import (
    CP,
    EE,
    GML,
    build_design,
    curvature_sq,
    curvature_via_matrix,
    decompose,
    ideal_lambda,
    make_criterion,
    make_truth,
    reversal_moments,
    reversal_probs_mc,
    reversal_stat,
    weights,
)
from splinesel._rng import replicate_normals
from splinesel.criteria import loss, loss_derivs
from splinesel.geometry import _r0_affine, eta_curve, normal_cdf, reversal_beta
from splinesel.specfun import abs_moment, moment_set

STANDARD_NS = (61, 121, 241, 481, 961)
CRITERIA = (CP, GML, EE)


@pytest.fixture(scope="module")
def lam0s(spectra, truths, windows):
    return {
        n: ideal_lambda(spectra[n], truths[n], windows[n]).lam for n in STANDARD_NS
    }


@pytest.fixture(scope="module")
def small_specs():
    out = {}
    for n in (20, 61, 121):
        out[n] = decompose(build_design("equispaced", n, lo=-1.0, hi=1.0))
    return out


# --- curvature --------------------------------------------------------------


def test_curvature_two_routes_agree(small_specs):
    rng = np.random.default_rng(2718)
    for _ in range(50):
        p, q = rng.uniform(1.0, 3.0, size=2)
        crit = make_criterion(p, q)
        lam = float(np.exp(rng.uniform(-5.0, 3.0)))
        spec = small_specs[int(rng.choice([20, 61, 121]))]
        direct = curvature_sq(crit, spec, lam)
        gram = curvature_via_matrix(crit, spec, lam)
        assert gram == pytest.approx(direct, rel=1e-8)


def test_curvature_nonnegative(small_specs):
    rng = np.random.default_rng(31)
    for _ in range(100):
        p, q = rng.uniform(1.0, 3.0, size=2)
        crit = make_criterion(p, q)
        lam = float(np.exp(rng.uniform(-5.0, 3.0)))
        spec = small_specs[int(rng.choice([20, 61]))]
        assert curvature_sq(crit, spec, lam) >= 0.0
        assert curvature_via_matrix(crit, spec, lam) >= 0.0


def test_eta_derivatives(spec61):
    rng = np.random.default_rng(8)
    for _ in range(6):
        p, q = rng.uniform(1.0, 3.0, size=2)
        crit = make_criterion(p, q)
        lam = float(np.exp(rng.uniform(-3.0, 2.0)))
        eta_dot, eta_ddot, mu = eta_curve(crit, spec61, lam)

        w = weights(spec61, lam)
        t = crit.c_q * w.b[2:] ** (1.0 / q)
        np.testing.assert_allclose(eta_dot, -(p / (q * lam)) * w.a[2:] * t**p,
                                   rtol=1e-12)
        np.testing.assert_allclose(mu, 1.0 / t, rtol=1e-12)

        h = 1e-5 * lam
        dot_hi = eta_curve(crit, spec61, lam + h)[0]
        dot_lo = eta_curve(crit, spec61, lam - h)[0]
        fd = (dot_hi - dot_lo) / (2.0 * h)
        np.testing.assert_allclose(eta_ddot, fd, rtol=1e-5)


def test_curvature_at_ideal_matches_published_values(spec61, lam0s):
    lam0 = lam0s[61]
    assert curvature_sq(CP, spec61, lam0) == pytest.approx(0.71, rel=0.10)
    assert curvature_sq(GML, spec61, lam0) == pytest.approx(0.08, rel=0.10)
    assert curvature_sq(EE, spec61, lam0) == pytest.approx(0.29, rel=0.10)


def test_curvature_ordering_and_decay(spectra, lam0s):
    per_crit = {}
    for crit in CRITERIA:
        vals = [curvature_sq(crit, spectra[n], lam0s[n]) for n in STANDARD_NS]
        per_crit[crit.name] = vals
        assert all(x > y for x, y in zip(vals, vals[1:]))
        slope = float(
            np.polyfit(np.log(STANDARD_NS), np.log(vals), 1)[0]
        )
        assert -0.27 <= slope <= -0.13
    for cp_v, gml_v, ee_v in zip(
        per_crit["cp"], per_crit["gml"], per_crit["ee"]
    ):
        assert cp_v > ee_v > gml_v


def test_geometry_domain_errors(spec61):
    with pytest.raises(ValueError):
        curvature_sq(CP, spec61, 0.0)
    with pytest.raises(ValueError):
        curvature_via_matrix(CP, spec61, -1.0)
    with pytest.raises(ValueError):
        reversal_stat(CP, spec61, 0.0, np.ones(61))


# --- reversal statistic -----------------------------------------------------


def test_reversal_stat_at_center_is_second_derivative(spec61):
    for crit in CRITERIA:
        lam = 0.3
        _, _, mu = eta_curve(crit, spec61, lam)
        z = np.zeros(61)
        z[2:] = mu ** (crit.q / 2.0)  # u = |z|^(2/q) lands exactly on mu
        u = np.abs(z) ** (2.0 / crit.q)
        ld, ldd = loss_derivs(crit, spec61, lam, u)
        assert abs(ld) <= 1e-9 * abs(ldd)
        assert reversal_stat(crit, spec61, lam, z) == pytest.approx(ldd, rel=1e-9)


def test_reversal_stat_finite_difference_oracle(spec61, truth61, lam0s):
    rng = np.random.default_rng(606)
    z = truth61.g + rng.standard_normal(61)
    lam0 = lam0s[61]
    u = z**2
    beta = reversal_beta(CP, spec61, lam0)

    h1 = 1e-5 * lam0
    fd1 = (
        loss(CP, weights(spec61, lam0 + h1), u)
        - loss(CP, weights(spec61, lam0 - h1), u)
    ) / (2.0 * h1)
    h2 = 1e-6 * lam0
    fd2 = (
        loss_derivs(CP, spec61, lam0 + h2, u)[0]
        - loss_derivs(CP, spec61, lam0 - h2, u)[0]
    ) / (2.0 * h2)
    reconstructed = fd2 - beta * fd1

    direct = reversal_stat(CP, spec61, lam0, z)
    assert direct == pytest.approx(reconstructed, rel=1e-6)
    assert math.copysign(1.0, direct) == math.copysign(1.0, reconstructed)


def test_reversal_stat_sign_invariance(spec61, lam0s):
    rng = np.random.default_rng(11)
    z = rng.standard_normal(61)
    for crit in CRITERIA:
        assert reversal_stat(crit, spec61, lam0s[61], z) == reversal_stat(
            crit, spec61, lam0s[61], -z
        )


def test_affine_form_matches_direct(spec61, lam0s):
    lam0 = lam0s[61]
    rng = np.random.default_rng(99)
    for crit in CRITERIA:
        coeff, base = _r0_affine(crit, spec61, lam0)
        for _ in range(5):
            z = rng.standard_normal(61) * 1.3
            u = np.abs(z[2:]) ** (2.0 / crit.q)
            assert float(u @ coeff + base) == pytest.approx(
                reversal_stat(crit, spec61, lam0, z), rel=1e-10
            )


def r0_affine_by_basis_vectors(c, spec, lam0):
    """Reference route: R0's affine coefficients read off by evaluating
    loss_derivs at u = 0 and at every penalized basis vector."""
    beta = reversal_beta(c, spec, lam0)

    def r0_of_u(u):
        ld, ldd = loss_derivs(c, spec, lam0, u)
        return ldd - beta * ld

    base = r0_of_u(np.zeros(spec.n))
    coeff = np.empty(spec.n - spec.null_dim)
    for j in range(spec.null_dim, spec.n):
        e = np.zeros(spec.n)
        e[j] = 1.0
        coeff[j - spec.null_dim] = r0_of_u(e) - base
    return coeff, base


@pytest.mark.parametrize("crit", CRITERIA + (make_criterion(1.0, 2.0),
                                             make_criterion(3.0, 1.0),
                                             make_criterion(1.2, 3.0)))
@pytest.mark.parametrize("n", [61, 241])
def test_affine_closed_form_matches_basis_vectors(spectra, lam0s, crit, n):
    lam0 = lam0s[n]
    coeff, base = _r0_affine(crit, spectra[n], lam0)
    ref_coeff, ref_base = r0_affine_by_basis_vectors(crit, spectra[n], lam0)
    assert base == pytest.approx(ref_base, rel=1e-10)
    # Each reference coefficient is a difference of two O(|base|) values, so
    # it carries an absolute rounding error on the scale of |base|.
    np.testing.assert_allclose(coeff, ref_coeff, rtol=1e-9, atol=1e-14 * abs(ref_base))


# --- reversal moments -------------------------------------------------------


def test_moments_pure_noise_collapse(spec61):
    # at g = 0 and q = 1 every E z^2 is 1, so the mean correction carries
    # the factor (b - 1) = -a; spell both moments out independently
    truth = make_truth(spec61, np.zeros(61), 1.0)
    lam = 0.5
    w = weights(spec61, lam)
    a, b = w.a[2:], w.b[2:]
    rho = float(np.sum(a**3 * b ** (-2.0)) / np.sum(a**2 * b ** (-2.0)))
    m_direct = 2.0 * np.sum(a**2 * b) - 6.0 * np.sum(a**2 * b * (a - rho))
    v_direct = 72.0 * np.sum(a**2 * b**4 * (a - rho) ** 2)

    (summary,) = reversal_moments([CP], spec61, truth, lam)
    assert summary.M == pytest.approx(m_direct, rel=1e-12)
    assert summary.V == pytest.approx(v_direct, rel=1e-12)


@pytest.mark.parametrize("crit", CRITERIA)
def test_moments_are_moments_of_the_statistic(spec61, truth61, lam0s, crit):
    # M and V carry fixed powers of lam0 relative to R0 itself; both must
    # be exact moments of the affine statistic
    lam0 = lam0s[61]
    (summary,) = reversal_moments([crit], spec61, truth61, lam0)

    eu = abs_moment(truth61.g, 1.0 / crit.q)
    ld, ldd = loss_derivs(crit, spec61, lam0, eu)
    r0_at_mean = ldd - reversal_beta(crit, spec61, lam0) * ld
    assert summary.M == pytest.approx(lam0**2 * r0_at_mean, rel=1e-10)

    coeff, _ = _r0_affine(crit, spec61, lam0)
    var_w = np.array([moment_set(g, crit.q).var_w for g in truth61.g[2:]])
    assert summary.V == pytest.approx(
        lam0**4 * float(np.sum(coeff**2 * var_w)), rel=1e-10
    )


def test_moments_match_monte_carlo(spec61, truth61, lam0s):
    lam0 = lam0s[61]
    (summary,) = reversal_moments([GML], spec61, truth61, lam0)
    coeff, base = _r0_affine(GML, spec61, lam0)
    rng = np.random.default_rng(515)
    z = truth61.g + rng.standard_normal((50000, 61))
    r0 = np.abs(z[:, 2:]) ** 2.0 @ coeff + base
    se_mean = r0.std(ddof=1) / math.sqrt(len(r0))
    assert abs(lam0**2 * r0.mean() - summary.M) <= 3.0 * lam0**2 * se_mean
    assert lam0**4 * r0.var(ddof=1) == pytest.approx(summary.V, rel=0.10)


def test_tail_quantile_negative_and_growing(spectra, truths, lam0s):
    for crit in CRITERIA:
        ts = [
            reversal_moments([crit], spectra[n], truths[n], lam0s[n])[0].T_n
            for n in STANDARD_NS
        ]
        assert all(t < 0 for t in ts)
        mags = [abs(t) for t in ts]
        assert all(x < y for x, y in zip(mags, mags[1:]))


def test_summary_consistency(spec61, truth61, lam0s):
    (s,) = reversal_moments([CP], spec61, truth61, lam0s[61])
    ((prob, se),) = reversal_probs_mc([CP], spec61, truth61, lam0s[61], 2000, seed=3)
    assert s.T_n == pytest.approx(-s.M / math.sqrt(s.V), rel=1e-12)
    assert s.prob_normal == pytest.approx(normal_cdf(s.T_n), abs=1e-15)
    assert 0.0 < s.prob_normal < 0.5
    assert 0.0 <= prob <= 1.0
    assert se > 0.0
    assert s.beta == reversal_beta(CP, spec61, lam0s[61])
    assert s.lam0 == lam0s[61]


# --- reversal probability ---------------------------------------------------


def test_normal_approximation_tracks_monte_carlo(spectra, truths, lam0s):
    n = 241
    crits = list(CRITERIA)
    moments = reversal_moments(crits, spectra[n], truths[n], lam0s[n])
    probs = reversal_probs_mc(crits, spectra[n], truths[n], lam0s[n], 10000, seed=17)
    for s, (prob, _) in zip(moments, probs):
        assert abs(s.prob_normal - prob) <= 0.05


def test_reversal_probability_ordering(spec61, truth61, lam0s):
    probs = {
        crit.name: prob for crit, (prob, _) in
        zip(CRITERIA, reversal_probs_mc(list(CRITERIA), spec61, truth61, lam0s[61], 10000, 29))
    }
    assert probs["cp"] > probs["gml"]
    assert probs["cp"] > probs["ee"]


@pytest.mark.parametrize("crits", [
    (CP, GML),  # shared q
    (CP, GML, EE),
    (EE, make_criterion(1.2, 2.5), CP),  # distinct q
    (GML, CP, GML),  # a repeated criterion
])
def test_reversal_probs_mc_matches_single_criterion_route(spec61, truth61, lam0s, crits):
    shared = reversal_probs_mc(list(crits), spec61, truth61, lam0s[61], 3000, 41)
    assert shared == [reversal_probs_mc([c], spec61, truth61, lam0s[61], 3000, 41)[0]
                      for c in crits]


@pytest.mark.parametrize("crits", [
    (CP, GML),  # shared q
    (EE, make_criterion(1.2, 2.5), CP),  # distinct q
    (GML, CP, GML),  # a repeated criterion
])
def test_reversal_moments_match_single_criterion_route(spec61, truth61, lam0s, crits):
    shared = reversal_moments(list(crits), spec61, truth61, lam0s[61])
    assert shared == [reversal_moments([c], spec61, truth61, lam0s[61])[0] for c in crits]


def test_reversal_probs_mc_partial_last_chunk(spec61, truth61, lam0s):
    # 2500 draws end on a 500-row chunk; the counts still come from the
    # same keyed draws as the reference route.
    (prob, se), = reversal_probs_mc([GML], spec61, truth61, lam0s[61], 2500, 8)
    coeff, base = _r0_affine(GML, spec61, lam0s[61])
    nd = spec61.null_dim
    z = np.array([truth61.g + replicate_normals(8, 61, r, 61) for r in range(2500)])
    hits = int(np.sum((np.abs(z[:, nd:]) ** 2.0) @ coeff + base < 0.0))
    assert prob == hits / 2500
    assert se == math.sqrt(prob * (1.0 - prob) / 2500)


def test_reversal_probs_mc_working_set_does_not_grow_with_criteria(spectra, truths, lam0s):
    # The draws and u = |z|^(2/q) are each held once per chunk, whatever the
    # number of criteria or distinct q.
    n = 241

    def peak(crits):
        tracemalloc.start()
        try:
            reversal_probs_mc(crits, spectra[n], truths[n], lam0s[n], 10000, 5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak([CP])
    assert peak([CP, GML, EE]) <= 1.05 * one


def test_reversal_prob_mc_degenerate_truth(spec61):
    truth = make_truth(spec61, np.zeros(61), 1.0)
    ((prob, se),) = reversal_probs_mc([CP], spec61, truth, 0.5, 1000, seed=1)
    assert 0.0 <= prob <= 1.0
    assert se >= 0.0


def test_reversal_prob_mc_replicate_floor(spec61, truth61, lam0s):
    with pytest.raises(ValueError):
        reversal_probs_mc([CP], spec61, truth61, lam0s[61], 999, seed=0)


def test_normal_cdf_against_scipy():
    for t in (-3.0, -1.96, -0.5, 0.0, 1.0, 2.5):
        assert normal_cdf(t) == pytest.approx(float(norm.cdf(t)), abs=1e-12)
