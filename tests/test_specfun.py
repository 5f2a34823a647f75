"""Special-function and moment tests.

Oracles: exact Gaussian moment identities, scipy's independent hyp1f1
implementation, seeded Monte Carlo at 1e7 samples for the fractional-power
moments, and Gauss-Hermite quadrature as a coarse cross-check.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaln, hyp1f1

import splinesel as ss
from splinesel.errors import NumericError
from splinesel.specfun import signed_moment

from crosscheck import gauss_hermite_expectation

SQRT_PI = math.sqrt(math.pi)


# --- log_gamma_and_beta -----------------------------------------------------


def test_gamma_half():
    lg, _ = ss.log_gamma_and_beta(0.5, 1.0)
    assert math.exp(lg) == pytest.approx(SQRT_PI, rel=1e-13)
    assert math.exp(lg) == pytest.approx(1.7724538509, rel=1e-9)


def test_beta_three_quarters_reflection():
    # B(3/4, 1/4) = Gamma(3/4)Gamma(1/4) = pi / sin(3 pi / 4) = pi sqrt(2)
    _, beta = ss.log_gamma_and_beta(0.75, 0.25)
    assert beta == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-12)
    assert beta == pytest.approx(4.4428829382, rel=1e-9)


def test_gamma_seven_sixths_constant():
    lg, _ = ss.log_gamma_and_beta(7.0 / 6.0, 1.0)
    gamma76 = math.exp(lg)
    assert gamma76 == pytest.approx(0.9277, abs=5e-5)
    const = SQRT_PI / (2.0 ** (2.0 / 3.0) * gamma76)
    # quoted to three decimals by truncation; true value 1.20357...
    assert const == pytest.approx(1.203, abs=1e-3)


def test_beta_identities_random():
    # Independent algebraic oracles on [1e-3, 50]: B(x,1) = 1/x, symmetry,
    # and the recurrence B(x+1,y) = B(x,y) x/(x+y).
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        x, y = np.exp(rng.uniform(np.log(1e-3), np.log(50.0), size=2))
        _, bxy = ss.log_gamma_and_beta(x, y)
        _, byx = ss.log_gamma_and_beta(y, x)
        assert bxy == pytest.approx(byx, rel=1e-12)
        _, bx1 = ss.log_gamma_and_beta(x, 1.0)
        assert bx1 == pytest.approx(1.0 / x, rel=1e-12)
        _, bnext = ss.log_gamma_and_beta(x + 1.0, y)
        assert bnext == pytest.approx(bxy * x / (x + y), rel=1e-12)


def test_beta_domain_errors():
    with pytest.raises(ValueError):
        ss.log_gamma_and_beta(0.0, 1.0)
    with pytest.raises(ValueError):
        ss.log_gamma_and_beta(1.0, -2.0)


# --- kummer_m ---------------------------------------------------------------


def test_kummer_terminating_cases():
    assert ss.kummer_m(0.0, 0.5, -3.0) == pytest.approx(1.0, rel=1e-15)
    assert ss.kummer_m(0.3, 1.7, 0.0) == pytest.approx(1.0, rel=1e-15)
    # a = -1 terminates after two terms: M(-1, 1/2, -z) = 1 + 2z.
    for z in (0.1, 0.5, 1.0, 3.0, 10.0):
        assert ss.kummer_m(-1.0, 0.5, -z) == pytest.approx(1.0 + 2.0 * z, rel=1e-13)


def test_kummer_interval_bound():
    # M(-2/3, 1/2, -1/2) is c_q E|Z|^(2/q) at q = 3/2, g = 1, so it obeys
    # 1 + g^2/q - (1/(6q))(1 - 1/q) g^4 <= M <= 1 + g^2/q.
    val = ss.kummer_m(-2.0 / 3.0, 0.5, -0.5)
    lo = 1.0 + 2.0 / 3.0 - (1.0 / 9.0) * (1.0 / 3.0)
    hi = 1.0 + 2.0 / 3.0
    assert lo <= val <= hi


def test_kummer_against_scipy():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = rng.uniform(-5.0, 5.0)
        b = rng.uniform(0.1, 8.0)
        z = rng.uniform(-100.0, 100.0)
        ours = ss.kummer_m(a, b, z)
        ref = float(hyp1f1(a, b, z))
        assert ours == pytest.approx(ref, rel=1e-10, abs=1e-280)


def test_kummer_errors():
    with pytest.raises(ValueError):
        ss.kummer_m(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ss.kummer_m(1.0, -2.0, 1.0)
    with pytest.raises(NumericError, match="500"):
        ss.kummer_m(0.3, 0.7, 5000.0)


# --- c_q --------------------------------------------------------------------


def test_cq_known_values():
    assert ss.c_q(1.0) == pytest.approx(1.0, rel=1e-14)
    assert ss.c_q(1.5) == pytest.approx(1.203, abs=1e-3)
    assert ss.c_q(2.0) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-13)
    with pytest.raises(ValueError):
        ss.c_q(0.99)


def test_cq_normalizes_central_moment():
    for q in (1.0, 1.2, 1.5, 2.0, 3.0, 7.5):
        assert ss.c_q(q) * ss.abs_moment(0.0, 1.0 / q) == pytest.approx(1.0, rel=1e-12)


# --- abs_moment / signed_moment ---------------------------------------------


def test_abs_moment_polynomial_identities():
    for g in (0.0, 0.3, 1.0, 2.5, -1.7):
        assert ss.abs_moment(g, 1.0) == pytest.approx(1.0 + g * g, rel=1e-12)
    # fourth and sixth noncentral moments
    assert ss.abs_moment(1.0, 2.0) == pytest.approx(10.0, rel=1e-12)
    assert ss.abs_moment(0.0, 3.0) == pytest.approx(15.0, rel=1e-12)
    g = 0.8
    assert ss.abs_moment(g, 2.0) == pytest.approx(g**4 + 6 * g**2 + 3, rel=1e-12)


def test_abs_moment_fractional_value_and_mc_oracle():
    closed = 2.0 ** (2.0 / 3.0) * math.exp(ss.log_gamma_and_beta(7.0 / 6.0, 1.0)[0]) / SQRT_PI
    val = ss.abs_moment(0.0, 2.0 / 3.0)
    assert val == pytest.approx(closed, rel=1e-12)
    # 0.8313 is itself a Monte Carlo 3-digit estimate of the true 0.83086
    assert val == pytest.approx(0.8313, abs=5e-4)
    rng = np.random.default_rng(123)
    z = rng.standard_normal(10_000_000)
    mc = float(np.mean(np.abs(z) ** (4.0 / 3.0)))
    assert val == pytest.approx(mc, rel=1e-3)


def test_abs_moment_even_and_increasing():
    for s in (0.3, 0.7, 1.4):
        vals = [ss.abs_moment(g, s) for g in (0.0, 0.4, 0.9, 1.5, 2.4, 4.0)]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
        for g in (0.2, 1.1, 3.0):
            assert ss.abs_moment(-g, s) == pytest.approx(ss.abs_moment(g, s), rel=1e-13)


def test_abs_moment_domain():
    with pytest.raises(ValueError):
        ss.abs_moment(1.0, -0.5)


def test_signed_moment_identities():
    for g in (0.0, 0.5, 1.3, -2.0):
        assert signed_moment(g, 0.0) == pytest.approx(g, abs=1e-13)
        assert signed_moment(g, 1.0) == pytest.approx(g**3 + 3 * g, rel=1e-12, abs=1e-13)
    assert signed_moment(0.0, 0.37) == 0.0
    with pytest.raises(ValueError):
        signed_moment(1.0, -1.0)


def test_integer_moments_exact_at_large_argument():
    # s = 1 is the q = 1 moment: M(-1, b, z) is a polynomial, summed
    # directly, so it holds to rounding however large |g| is.
    g = np.concatenate((np.linspace(-400.0, 400.0, 81), [0.3, -29.7, 33.1, 399.99]))
    assert ss.abs_moment(-400.0, 1.0) == pytest.approx(160001.0, rel=1e-15)
    np.testing.assert_allclose(ss.abs_moment(g, 1.0), 1.0 + g * g, rtol=1e-15, atol=0)
    np.testing.assert_allclose(signed_moment(g, 1.0), g**3 + 3.0 * g, rtol=1e-15, atol=0)


# --- math.lgamma against scipy's gammaln ------------------------------------
#
# specfun takes log Gamma from math.lgamma, which differs from
# scipy.special.gammaln in the last bits on most arguments.  Each Gamma-based
# factor is compared with the same expression built on gammaln: within 1e-15
# relative at the arguments the built-in criteria (q = 1 and 3/2) and the
# acceptance sums use, and within 5e-15 across the whole argument range (the
# measured maxima on these grids are 1.1e-15 for c_q, 1.5e-15 and 1.9e-15 for
# the moment factors and 4.4e-15 for the beta function).

GAMMA_GS = np.array([0.0, 0.3, 1.7, 4.0, -2.2])
BUILTIN_QS = (1.0, 1.5)
ASYM_RS = ((1.0, 0.0), (2.0, 0.0), (3.0, 1.0))


def gammaln_c_q(q):
    return SQRT_PI / (2.0 ** (1.0 / q) * math.exp(gammaln(0.5 + 1.0 / q)))


def gammaln_abs_moment(g, s):
    factor = 2.0**s / SQRT_PI * math.exp(gammaln(s + 0.5))
    return factor * ss.kummer_m(-s, 0.5, -0.5 * g * g)


def gammaln_signed_moment(g, s):
    factor = 2.0 ** (s + 1.0) / SQRT_PI * math.exp(gammaln(s + 1.5))
    return g * factor * ss.kummer_m(-s, 1.5, -0.5 * g * g)


def gammaln_asym_args(r, s):
    # log Gamma(x) and B(x, y) at the arguments asym_sum(r, s, ...) passes.
    x, y = r - 0.25, s + 0.25
    lg = float(gammaln(x))
    return lg, math.exp(lg + gammaln(y) - gammaln(x + y))


def max_rel_gap(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return float(np.max(np.abs(got - ref) / np.where(ref == 0.0, 1.0, np.abs(ref))))


def test_c_q_lgamma_matches_gammaln():
    for q in BUILTIN_QS:
        assert max_rel_gap(ss.c_q(q), gammaln_c_q(q)) <= 1e-15
    for q in np.linspace(1.0, 3.0, 401).tolist():
        assert max_rel_gap(ss.c_q(q), gammaln_c_q(q)) <= 5e-15


def test_moment_factors_lgamma_match_gammaln_at_builtin_orders():
    for q in BUILTIN_QS:
        s = 1.0 / q
        for order in (s, 2.0 * s, 1.0 + s, 1.0 + 2.0 * s):
            assert max_rel_gap(ss.abs_moment(GAMMA_GS, order),
                               gammaln_abs_moment(GAMMA_GS, order)) <= 1e-15
        assert max_rel_gap(signed_moment(GAMMA_GS, s),
                           gammaln_signed_moment(GAMMA_GS, s)) <= 1e-15


def test_moment_factors_lgamma_match_gammaln_over_order_range():
    # s in (-1/2, 3] for abs_moment and (-1, 3] for signed_moment.
    for s in np.linspace(-0.5, 3.0, 701)[1:].tolist():
        assert max_rel_gap(ss.abs_moment(GAMMA_GS, s), gammaln_abs_moment(GAMMA_GS, s)) <= 5e-15
    for s in np.linspace(-1.0, 3.0, 801)[1:].tolist():
        assert max_rel_gap(signed_moment(GAMMA_GS, s),
                           gammaln_signed_moment(GAMMA_GS, s)) <= 5e-15


def test_log_gamma_and_beta_lgamma_matches_gammaln():
    grid = [(r, s) for r in np.linspace(0.25, 4.0, 31)[1:].tolist()
            for s in np.linspace(-0.25, 3.0, 27)[1:].tolist()]
    for cases, rtol in ((ASYM_RS, 1e-15), (grid, 5e-15)):
        for r, s in cases:
            lg, beta = ss.log_gamma_and_beta(r - 0.25, s + 0.25)
            ref_lg, ref_beta = gammaln_asym_args(r, s)
            # An absolute gap in log Gamma is the relative gap in Gamma.
            assert abs(lg - ref_lg) <= rtol
            assert max_rel_gap(beta, ref_beta) <= rtol


# --- moment_set -------------------------------------------------------------


def test_moment_set_q1_closed_forms():
    for g in (0.0, 0.5, 1.0, 2.0, 5.0):
        m = ss.moment_set(g, 1.0)
        g2 = g * g
        assert m.m1 == pytest.approx(1.0 + g2, abs=1e-10)
        assert m.var_w == pytest.approx(2.0 + 4.0 * g2, abs=1e-10)
        assert m.cov_z2_w == pytest.approx(2.0 + 4.0 * g2, abs=1e-10)
        assert m.cov_z_w == pytest.approx(2.0 * g, abs=1e-10)
        assert m.third_mixed == pytest.approx(8.0 + 24.0 * g2, abs=1e-10)


def test_moment_set_q1_matches_general_path():
    # The q -> 1 limit of the fractional-power formulas must agree with the
    # quadratic closed forms; evaluate just off q = 1 to exercise that path.
    for g in (0.0, 0.7, 1.8):
        exact = ss.moment_set(g, 1.0)
        near = ss.moment_set(g, 1.0 + 1e-9)
        assert near.m1 == pytest.approx(exact.m1, rel=1e-7)
        assert near.var_w == pytest.approx(exact.var_w, rel=1e-6, abs=1e-6)
        assert near.cov_z2_w == pytest.approx(exact.cov_z2_w, rel=1e-6, abs=1e-6)
        assert near.cov_z_w == pytest.approx(exact.cov_z_w, rel=1e-6, abs=1e-6)
        assert near.third_mixed == pytest.approx(exact.third_mixed, rel=1e-5, abs=1e-5)


def test_moment_set_mc_oracle_q32():
    g, q = 0.7, 1.5
    m = ss.moment_set(g, q)
    rng = np.random.default_rng(2024)
    z = g + rng.standard_normal(10_000_000)
    w = np.abs(z) ** (2.0 / q)
    m1 = float(w.mean())
    assert m.m1 == pytest.approx(m1, rel=1e-3)
    assert m.m2 == pytest.approx(float((w * w).mean()), rel=1e-3)
    assert m.var_w == pytest.approx(float(w.var()), rel=2e-3)
    assert m.cov_z2_w == pytest.approx(
        float(np.mean((z * z - (1 + g * g)) * (w - m1))), rel=5e-3)
    assert m.cov_z_w == pytest.approx(float(np.mean((z - g) * (w - m1))), rel=5e-3)
    assert m.third_mixed == pytest.approx(
        float(np.mean((z * z - g * g - 1.0) * (w - m1) ** 2)), rel=2e-2, abs=2e-2)


def test_moment_set_gh_cross_check():
    # Quadrature is only good to a few digits for kinked integrands; use it
    # as an order-of-magnitude guard on an off-grid (g, q) pair.
    g, q = 1.3, 2.0
    m = ss.moment_set(g, q)
    gh_m1 = gauss_hermite_expectation(g, lambda z: np.abs(z) ** (2.0 / q))
    gh_m2 = gauss_hermite_expectation(g, lambda z: np.abs(z) ** (4.0 / q))
    assert m.m1 == pytest.approx(gh_m1, rel=1e-4)
    assert m.m2 == pytest.approx(gh_m2, rel=1e-4)


def test_moment_set_basic_properties():
    rng = np.random.default_rng(99)
    for _ in range(50):
        g = rng.uniform(-4.0, 4.0)
        q = rng.uniform(1.0, 4.0)
        m = ss.moment_set(g, q)
        assert m.var_w >= 0.0
        assert m.m1 > 0.0
        assert math.copysign(1.0, m.cov_z_w) == math.copysign(1.0, g) or g == 0


def test_moment_set_domain():
    with pytest.raises(ValueError):
        ss.moment_set(0.5, 0.8)


# --- asym_sum ---------------------------------------------------------------


def test_asym_sum_closed_value():
    # (r,s) = (1,0): B(3/4, 1/4) = pi sqrt(2), so at n/lam = 1e4 the value is
    # sqrt(2)/4 * 10.
    val = ss.asym_sum(1.0, 0.0, 10_000, 1.0)
    assert val == pytest.approx(math.sqrt(2.0) / 4.0 * 10.0, rel=1e-12)


def test_asym_sum_scaling_law():
    for (r, s) in ((1.0, 0.0), (2.0, 0.0), (1.5, 1.5)):
        v1 = ss.asym_sum(r, s, 500, 0.37)
        v2 = ss.asym_sum(r, s, 1000, 0.37)
        assert v2 / v1 == pytest.approx(2.0**0.25, rel=1e-12)


def test_asym_sum_domain():
    for bad in ((0.25, 0.0), (1.0, -0.25)):
        with pytest.raises(ValueError):
            ss.asym_sum(bad[0], bad[1], 100, 1.0)
    with pytest.raises(ValueError):
        ss.asym_sum(1.0, 0.0, 100, 0.0)
    with pytest.raises(ValueError):
        ss.asym_sum(1.0, 0.0, 0, 1.0)


def test_asym_sum_vs_direct_spectral_sum(spec_unit961):
    # The leading-order spectral-sum law is calibrated for a unit-length
    # design interval (on [lo, hi] the direct sums carry an extra factor
    # (hi - lo)^(3/4)).  Even there the s = 0 sums keep an O(1) deficit of
    # about -1 from the discreteness of the spectrum edge, so at
    # n/lam ~ 1e5 the agreement is ~25%, not a few percent.
    spec = spec_unit961
    lam = 0.01
    a = ss.weights(spec, lam)[0][2:]
    direct = float(np.sum(a * a))
    approx = ss.asym_sum(2.0, 0.0, 961, lam)
    assert approx == pytest.approx(direct, rel=0.35)


def test_asym_sum_error_decreases_along_sweep(spec_unit961):
    # Relative error vs the true spectrum must fall (up to 2% jitter) as
    # n/lam sweeps 1e2 -> 1e5 at fixed n = 961.
    spec = spec_unit961
    for (r, s) in ((1.0, 0.0), (2.0, 0.0), (3.0, 1.0)):
        errs = []
        for nl in (1e2, 1e3, 1e4, 1e5):
            lam = 961 / nl
            a, b = (v[2:] for v in ss.weights(spec, lam))
            direct = float(np.sum(a**r * b**s))
            errs.append(abs(ss.asym_sum(r, s, 961, lam) - direct) / direct)
        for e1, e2 in zip(errs, errs[1:]):
            assert e2 <= e1 + 0.02, f"(r,s)=({r},{s}) errors {errs}"


# --- array API against the scalar series --------------------------------------
#
# The reference route is the one-value-at-a-time series loop, with the
# moments composed from it exactly as the closed forms read; the array API
# must reproduce it bit for bit, element by element.

REF_GS = np.array([0.0, 0.3, -0.3, 2.0, -2.0, 7.0, -7.0, 25.0, -25.0])
REF_QS = (1.0, 1.5, 2.0, 3.0)


def ref_series(a, b, z):
    term = 1.0
    total = 1.0
    small_streak = 0
    for k in range(500):
        term *= (a + k) * z / ((b + k) * (k + 1))
        total += term
        if abs(term) < 1e-16 * max(abs(total), 1e-300):
            small_streak += 1
            if small_streak >= 3:
                return total
        else:
            small_streak = 0
    raise NumericError("reference series did not converge")


def ref_kummer(a, b, z):
    # Same branch as kummer_m: a nonpositive integer a sums the direct
    # polynomial, any other a transforms z < 0.
    if z < 0 and (a > 0 or a != math.floor(a)):
        return math.exp(z) * ref_series(b - a, b, -z)
    return ref_series(a, b, z)


def ref_quadrature(g, integrand):
    # Same branch as abs_moment and signed_moment at |g| >= 8: the 40-node
    # Gauss-Hermite sum of E[integrand(Z)], Z ~ Normal(g, 1).
    nodes, weights = np.polynomial.hermite_e.hermegauss(40)
    return float(np.sum(integrand(g + nodes) * (weights / math.sqrt(2.0 * math.pi))))


def ref_abs_moment(g, s):
    if abs(g) >= 8.0:
        return ref_quadrature(g, lambda z: np.abs(z) ** (2.0 * s))
    factor = 2.0**s / SQRT_PI * math.exp(ss.log_gamma_and_beta(s + 0.5, 1.0)[0])
    return factor * ref_kummer(-s, 0.5, -0.5 * g * g)


def ref_signed_moment(g, s):
    if abs(g) >= 8.0:
        return ref_quadrature(g, lambda z: z * np.abs(z) ** (2.0 * s))
    factor = 2.0 ** (s + 1.0) / SQRT_PI * math.exp(ss.log_gamma_and_beta(s + 1.5, 1.0)[0])
    return g * factor * ref_kummer(-s, 1.5, -0.5 * g * g)


def ref_moment_fields(g, q):
    """(m1, m2, var_w, cov_z2_w, cov_z_w, third_mixed) from the scalar route."""
    if q == 1.0:
        g2 = g * g
        return (1.0 + g2, g2 * g2 + 6.0 * g2 + 3.0, 2.0 + 4.0 * g2, 2.0 + 4.0 * g2,
                2.0 * g, 8.0 + 24.0 * g2)
    s = 1.0 / q
    ez2 = 1.0 + g * g
    m1 = ref_abs_moment(g, s)
    m2 = ref_abs_moment(g, 2.0 * s)
    var_w = m2 - m1 * m1
    ez2w = ref_abs_moment(g, 1.0 + s)
    ez2w2 = ref_abs_moment(g, 1.0 + 2.0 * s)
    third = (ez2w2 - 2.0 * m1 * ez2w + m1 * m1 * ez2) - ez2 * var_w
    return (m1, m2, var_w, ez2w - ez2 * m1, ref_signed_moment(g, s) - g * m1, third)


@pytest.mark.parametrize("q", REF_QS)
def test_array_kummer_and_moments_bitwise_match_scalar_series(q):
    s = 1.0 / q
    z = -0.5 * REF_GS * REF_GS
    for a, b in ((-s, 0.5), (-s, 1.5), (-1.0 - 2.0 * s, 0.5)):
        got = ss.kummer_m(a, b, z)
        assert got.tolist() == [ref_kummer(a, b, zi) for zi in z.tolist()]
        got_pos = ss.kummer_m(a, b, -z)
        assert got_pos.tolist() == [ref_kummer(a, b, zi) for zi in (-z).tolist()]
    assert ss.abs_moment(REF_GS, s).tolist() == [ref_abs_moment(g, s) for g in REF_GS.tolist()]
    assert ss.signed_moment(REF_GS, s).tolist() == [
        ref_signed_moment(g, s) for g in REF_GS.tolist()]
    m = ss.moment_set(REF_GS, q)
    fields = (m.m1, m.m2, m.var_w, m.cov_z2_w, m.cov_z_w, m.third_mixed)
    for i, g in enumerate(REF_GS.tolist()):
        assert [f[i] for f in fields] == list(ref_moment_fields(g, q))


def test_scalar_input_returns_float_equal_to_array_element():
    for fn in (ss.abs_moment, signed_moment):
        scalar = fn(-2.0, 0.75)
        assert type(scalar) is float
        assert scalar == fn(np.array([-2.0]), 0.75)[0]
    assert type(ss.kummer_m(0.3, 0.5, -4.0)) is float
    assert type(ss.moment_set(np.float64(0.7), 1.5).var_w) is float
    assert ss.kummer_m(0.3, 0.5, np.zeros((2, 3))).shape == (2, 3)
    assert ss.abs_moment(np.array([]), 0.5).shape == (0,)


def test_array_kummer_names_first_nonconvergent_element():
    # Only the elements past the term cap fail; the error names the first.
    with pytest.raises(NumericError, match=r"500 terms .*z=5000\.0"):
        ss.kummer_m(0.3, 0.7, np.array([1.0, 5000.0, 6000.0]))


@pytest.mark.parametrize("q", (1.0, 1.2, 1.5, 3.0))
def test_moments_match_high_precision_hyp1f1_at_large_g(q):
    # Every order moment_set takes, across the series (|g| < 8) and the
    # quadrature branch (|g| >= 8), out to |g| = 400, where the series alone
    # would need tens of thousands of terms.
    import mpmath  # imported here: without it this test fails, not the module

    g = np.array([0.0, 1.3, -4.0, 7.5, -7.99, 8.0, -8.0, 9.7, -26.0, 60.0, -150.5, 400.0])

    def exact(gi, order, odd):
        # (2^s / sqrt(pi)) Gamma(s + 1/2) M(-s, 1/2, -g^2/2), and its odd
        # companion g (2^(s+1) / sqrt(pi)) Gamma(s + 3/2) M(-s, 3/2, -g^2/2).
        with mpmath.workdps(40):
            s, b, x = mpmath.mpf(order), mpmath.mpf(1.5 if odd else 0.5), mpmath.mpf(gi)
            value = (2 ** (s + odd) / mpmath.sqrt(mpmath.pi) * mpmath.gamma(s + b)
                     * mpmath.hyp1f1(-s, b, -x * x / 2))
            return float(x * value if odd else value)

    s = 1.0 / q
    for order in (s, 2.0 * s, 1.0 + s, 1.0 + 2.0 * s):
        want = [exact(gi, order, False) for gi in g.tolist()]
        np.testing.assert_allclose(ss.abs_moment(g, order), want, rtol=1e-14, atol=0)
    want = [exact(gi, s, True) for gi in g.tolist()]
    np.testing.assert_allclose(signed_moment(g, s), want, rtol=1e-14, atol=0)


def test_quadrature_rule_literals_equal_hermegauss():
    # The Gauss-Hermite rule is held as literals, bit for bit the 40-node
    # hermegauss rule with its weights divided by sqrt(2 pi), and read-only.
    from splinesel import specfun

    nodes, weights = np.polynomial.hermite_e.hermegauss(40)
    assert specfun._HERMITE_NODES.tobytes() == nodes.tobytes()
    assert specfun._HERMITE_WEIGHTS.tobytes() == (weights / math.sqrt(2.0 * math.pi)).tobytes()
    assert not (specfun._HERMITE_NODES.flags.writeable or specfun._HERMITE_WEIGHTS.flags.writeable)
