"""Criterion family algebra, derivatives, and data-driven selection."""

import math

import numpy as np
import pytest

from splinesel import (
    CP,
    EE,
    GML,
    criterion_by_name,
    loss,
    loss_derivs,
    make_criterion,
    select,
    sigma_estimate,
    weights,
)
from splinesel.criteria import _criterion_table, default_sigma_m
from splinesel.errors import ConfigError

from crosscheck import classic_statistics


def rotated_dataset(spec, truth, seed):
    """Rotated observations z = g + eps for one seeded replicate."""
    rng = np.random.default_rng(seed)
    return truth.g + rng.standard_normal(spec.n)


# --- family construction ----------------------------------------------------


def test_named_instances():
    assert (CP.p, CP.q) == (2.0, 1.0)
    assert (GML.p, GML.q) == (1.0, 1.0)
    assert (EE.p, EE.q) == (1.5, 1.5)
    assert CP.c_q == pytest.approx(1.0, abs=1e-12)
    assert GML.c_q == pytest.approx(1.0, abs=1e-12)
    assert EE.c_q == pytest.approx(1.20357, abs=1e-5)


def test_make_criterion_validates():
    c = make_criterion(2.5, 1.5)
    assert c.name == "p2.5q1.5"
    with pytest.raises(ValueError):
        make_criterion(0.5, 1.0)
    with pytest.raises(ValueError):
        make_criterion(2.0, 0.0)


def test_criterion_by_name():
    assert criterion_by_name("cp") is CP
    assert criterion_by_name(" GML ") is GML
    assert criterion_by_name("ee") is EE
    # A member's name follows from (p, q): a custom id of a classical
    # member is that member.
    assert criterion_by_name("p2q1") == CP
    assert criterion_by_name("p1q1.0") == GML
    assert criterion_by_name("p1.50q1.5") == EE
    frac = criterion_by_name("P2.50q1.5")
    assert (frac.name, frac.p, frac.q) == ("p2.5q1.5", 2.5, 1.5)
    with pytest.raises(ValueError):
        criterion_by_name("aicc")


# --- loss algebra -----------------------------------------------------------


def test_cp_loss_closed_form(spec61):
    rng = np.random.default_rng(0)
    z = rng.standard_normal(61)
    u = z**2
    b = weights(spec61, 0.3)[1][2:]
    expect = np.sum(b**2 * u[2:] - 2.0 * b) + 2.0 * (61 - 2)
    assert loss(CP, spec61, 0.3, u) == pytest.approx(expect, rel=1e-12)


def test_gml_loss_closed_form(spec61):
    rng = np.random.default_rng(1)
    z = rng.standard_normal(61)
    u = z**2
    b = weights(spec61, 0.7)[1][2:]
    expect = np.sum(b * u[2:] - np.log(b))
    assert loss(GML, spec61, 0.7, u) == pytest.approx(expect, rel=1e-12)


def test_ee_loss_affine_form(spec61):
    # the two published shapes differ by a positive factor sqrt(c_q) and the
    # constant 3(n-2), so they share every minimizer
    rng = np.random.default_rng(2)
    z = rng.standard_normal(61)
    u = np.abs(z) ** (2.0 / 1.5)
    c = EE.c_q
    lams = np.logspace(-3, 1, 40)
    direct = []
    compact = []
    for lam in lams:
        b = weights(spec61, lam)[1][2:]
        direct.append(loss(EE, spec61, lam, u))
        compact.append(np.sum(c * b * u[2:] - 3.0 * b ** (1.0 / 3.0)))
    direct = np.array(direct)
    compact = np.array(compact)
    np.testing.assert_allclose(
        direct, math.sqrt(c) * compact + 3.0 * (61 - 2), rtol=1e-12
    )
    assert np.argmin(direct) == np.argmin(compact)


def test_loss_validates_input(spec61):
    with pytest.raises(ValueError):
        loss(CP, spec61, 0.5, -np.ones(61))
    with pytest.raises(ValueError):
        loss(CP, spec61, 0.5, np.ones(60))
    with pytest.raises(ValueError, match="log of zero"):
        loss(GML, spec61, 0.0, np.ones(61))
    assert math.isfinite(loss(CP, spec61, 0.0, np.ones(61)))


# --- derivatives ------------------------------------------------------------


@pytest.mark.parametrize("crit", [CP, GML, EE, make_criterion(2.5, 2.0)])
@pytest.mark.parametrize("lam", [0.01, 0.3, 5.0])
def test_loss_derivs_match_finite_differences(spec61, crit, lam):
    rng = np.random.default_rng(97)
    z = rng.standard_normal(61) * 1.5
    u = np.abs(z) ** (2.0 / crit.q)

    ld, ldd = loss_derivs(crit, spec61, lam, u)
    h = 1e-5 * lam
    fd1 = (
        loss(crit, spec61, lam + h, u)
        - loss(crit, spec61, lam - h, u)
    ) / (2.0 * h)
    assert ld == pytest.approx(fd1, rel=1e-6)

    # the second difference divides by h^2, so it needs a larger step to
    # stay above the roundoff floor eps * |loss| / h^2
    h2 = 1e-3 * lam
    fd2 = (
        loss(crit, spec61, lam + h2, u)
        - 2.0 * loss(crit, spec61, lam, u)
        + loss(crit, spec61, lam - h2, u)
    ) / (h2 * h2)
    assert ldd == pytest.approx(fd2, rel=1e-4)


@pytest.mark.parametrize("seed", range(6))
def test_first_derivative_estimating_equation_route(spec61, seed):
    # l' must equal -sum_i eta'_i (u_i - mu_i) with
    # eta'_i = -(p/(q lam)) a_i t_i^p and mu_i = 1/t_i
    rng = np.random.default_rng(300 + seed)
    p, q = rng.uniform(1.0, 3.0, size=2)
    crit = make_criterion(p, q)
    lam = float(np.exp(rng.uniform(-4, 2)))
    u = np.abs(rng.standard_normal(61)) ** (2.0 / q)

    a, b = (v[2:] for v in weights(spec61, lam))
    t = crit.c_q * b ** (1.0 / q)
    eta_dot = -(p / (q * lam)) * a * t**p
    mu = 1.0 / t
    expect = -np.sum(eta_dot * (u[2:] - mu))

    ld, _ = loss_derivs(crit, spec61, lam, u)
    assert ld == pytest.approx(expect, rel=1e-10)


def test_loss_derivs_domain(spec61):
    with pytest.raises(ValueError):
        loss_derivs(CP, spec61, 0.0, np.ones(61))
    with pytest.raises(ValueError):
        loss_derivs(CP, spec61, -1.0, np.ones(61))


# --- selection --------------------------------------------------------------


@pytest.mark.parametrize("crit", [CP, GML, EE])
def test_select_matches_brute_force_grid(spec61, truth61, crit):
    z = rotated_dataset(spec61, truth61, 20240)
    result = select(crit, spec61, z)

    u = np.abs(z) ** (2.0 / crit.q)
    grid = np.exp(
        np.linspace(
            math.log(spec61.window[0]), math.log(spec61.window[-1]), 10001
        )
    )
    vals = np.array([loss(crit, spec61, lam, u) for lam in grid])
    best = int(np.argmin(vals))
    step = math.log(grid[1]) - math.log(grid[0])

    assert abs(math.log(result.lam_hat) - math.log(grid[best])) <= step
    assert result.loss <= vals[best] + 1e-10 * abs(vals[best])
    assert result.df_hat == pytest.approx(
        float(np.sum(1.0 / (1.0 + result.lam_hat * spec61.k))), abs=1e-9
    )


def test_select_sign_invariance(spec61, truth61):
    z = rotated_dataset(spec61, truth61, 5150)
    for crit in (CP, GML, EE):
        r_pos = select(crit, spec61, z)
        r_neg = select(crit, spec61, -z)
        assert r_pos.lam_hat == r_neg.lam_hat
        assert r_pos.loss == r_neg.loss


def test_select_pure_noise(spec61):
    # constant-zero truth: heavy smoothing expected, runs must be replayable
    rng = np.random.default_rng(314)
    z = rng.standard_normal(61)
    for crit in (CP, GML, EE):
        first = select(crit, spec61, z)
        again = select(crit, spec61, z.copy())
        assert first == again
        assert first.df_hat < 10.0
        assert first.at_boundary == "high-lambda"


def test_select_validates_z(spec61):
    with pytest.raises(ValueError):
        select(CP, spec61, np.ones(60))
    bad = np.ones(61)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        select(CP, spec61, bad)


def test_gml_never_selects_zero(spec61, truth61):
    # p = 1 losses blow up as lam -> 0, so the minimizer stays positive
    for seed in range(5):
        z = rotated_dataset(spec61, truth61, 800 + seed)
        r = select(GML, spec61, z)
        assert r.lam_hat > 0


@pytest.mark.parametrize("crit", [CP, GML, EE, criterion_by_name("p3q1")])
def test_loss_matches_window_table_rows(spec61, crit):
    # One encoding of the criterion value: loss at each window lam equals
    # that row of the screen table.
    u = np.abs(np.random.default_rng(61).standard_normal(61) + 1.5) ** (2.0 / crit.q)
    T, offset = _criterion_table(crit, spec61)
    rows = T @ u[2:] + offset
    for lam, row in zip(spec61.window, rows):
        assert loss(crit, spec61, lam, u) == pytest.approx(row, rel=1e-13)


@pytest.mark.parametrize("name", ["bogus", "p1.2.3q1", "p0.5q1", "p2q0.99", "pq1", "p-2q1"])
def test_criterion_by_name_rejects_bad_ids_as_config_errors(name):
    with pytest.raises(ConfigError, match="criterion"):
        criterion_by_name(name)


# --- classical statistics ---------------------------------------------------


def test_classic_statistics_zero_residual(spec61):
    y = 3.0 - 2.0 * spec61.x  # invariant under the smoother at any lam
    sigma = 1.3
    lam = 0.8
    cp, gcv = classic_statistics(spec61, lam, y, sigma)
    d = float(np.sum(1.0 / (1.0 + lam * spec61.k)))
    assert cp == pytest.approx(2.0 * sigma**2 * d - 61 * sigma**2, abs=1e-8)
    assert gcv == pytest.approx(0.0, abs=1e-10)


def test_classic_statistics_interpolation_limit(spec61):
    rng = np.random.default_rng(3)
    y = rng.standard_normal(61)
    # at lam = 0 the trace equals n, so the gcv denominator vanishes
    with pytest.raises(ValueError):
        classic_statistics(spec61, 0.0, y, 1.0)
    # backing omega off the singular point leaves cp = (2 omega - 1) n sigma^2
    cp, _ = classic_statistics(spec61, 0.0, y, 1.0, omega=0.9)
    assert cp == pytest.approx((2 * 0.9 - 1.0) * 61, abs=1e-8)


def test_classic_statistics_validates(spec61):
    y = np.zeros(61)
    with pytest.raises(ValueError):
        classic_statistics(spec61, 1.0, y, 0.0)
    with pytest.raises(ValueError):
        classic_statistics(spec61, 1.0, y, 1.0, omega=-2.0)


def test_cp_argmin_matches_select(spec61, truth61):
    # minimizing the residual-form statistic over the candidate grid must
    # land in the bracket around the rotated-form minimizer
    z = rotated_dataset(spec61, truth61, 424242)
    y = truth61.sigma * (spec61.U @ z)
    vals = [
        classic_statistics(spec61, lam, y, truth61.sigma)[0]
        for lam in spec61.window
    ]
    best = int(np.argmin(vals))
    lo = spec61.window[max(best - 1, 0)]
    hi = spec61.window[min(best + 1, len(spec61.window) - 1)]

    r = select(CP, spec61, z)
    assert lo * (1 - 1e-12) <= r.lam_hat <= hi * (1 + 1e-12)


# --- noise variance estimation ----------------------------------------------


def test_sigma_estimate_pure_noise_oracle(spectra):
    # literal-formula target: tail sum of M + 2 squared components over M - 2
    spec = spectra[961]
    sigma2 = 4.0
    M = 200
    draws = [
        sigma_estimate(spec.U.T @ (2.0 * np.random.default_rng(seed).standard_normal(961)), M)
        for seed in range(500)
    ]
    target = sigma2 * (M + 2.0) / (M - 2.0)
    assert np.mean(draws) == pytest.approx(target, rel=0.05)


def test_sigma_estimate_smooth_signal(spectra):
    spec = spectra[961]
    f = np.sin(np.pi * (spec.x + 1.0)) / (spec.x / 2.0 + 1.0)
    assert sigma_estimate(spec.U.T @ f, 96) < 1e-10
    assert sigma_estimate(spec.U.T @ f, 200) < 1e-10


def test_sigma_estimate_domain(spec61):
    y = np.zeros(61)
    for M in (4, 57, 61, 100):
        with pytest.raises(ValueError):
            sigma_estimate(spec61.U.T @ y, M)


def test_sigma_estimate_matches_tail_projection(spectra):
    # Slicing U'y and projecting y onto the tail columns agree to rounding.
    spec = spectra[241]
    y = np.random.default_rng(4).standard_normal(241)
    M = 24
    tail = spec.U[:, spec.n - 2 - M:].T @ y
    direct = float(np.sum(tail * tail) / (M - 2.0))
    assert sigma_estimate(spec.U.T @ y, M) == pytest.approx(direct, rel=1e-12)


def test_sigma_estimate_block_rows_equal_vector_estimates(spectra):
    # A block gives one estimate per row, each the vector estimate's bits.
    spec = spectra[241]
    coeffs = np.random.default_rng(6).standard_normal((7, 241)) @ spec.U
    est = sigma_estimate(coeffs, 24)
    assert est.shape == (7,)
    assert [float(v) for v in est] == [sigma_estimate(row, 24) for row in coeffs]


def test_default_sigma_m():
    assert default_sigma_m(61) == 20
    assert default_sigma_m(300) == 30
    assert default_sigma_m(961) == 96
