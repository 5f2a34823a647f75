"""Design grids, the roughness penalty, and its eigendecomposition."""

from dataclasses import replace
import io
import logging
import math
import os
import sys
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline
from scipy.stats import norm

from splinesel import (
    DesignGrid,
    NumericError,
    build_design,
    cached_decompose,
    decompose,
    df,
    lambdas_for_df,
    load_spectrum,
    penalty_matrix,
    rotate,
    save_spectrum,
    smooth,
    weights,
)
from splinesel import criteria, spectrum
from splinesel.criteria import CP, DF_WINDOW_LO, DF_WINDOW_MARGIN, GML, _select_rows, select
from splinesel.spectrum import (BLOCK_ROWS, CACHE_FORMAT_VERSION, NEWTON_STEP_TOL,
                                DesignSpectrum, _numeric_environment, cache_key)

from crosscheck import decompose_reference, log_lam_root_strict_from_start
from fresh import run_fresh


# --- design construction ----------------------------------------------------


def test_equispaced_endpoints_and_spacing():
    grid = build_design("equispaced", 61, lo=-1.0, hi=1.0)
    assert grid.n == 61
    assert grid.x[0] == -1.0
    assert grid.x[-1] == 1.0
    assert np.allclose(np.diff(grid.x), 1.0 / 30.0, rtol=0, atol=1e-15)


def test_equispaced_five_points():
    grid = build_design("equispaced", 5, lo=0.0, hi=1.0)
    np.testing.assert_allclose(grid.x, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-16)


def test_quantile_uniform_four_points():
    grid = build_design("quantile", 4, dist="uniform(0,1)")
    np.testing.assert_allclose(grid.x, [1 / 8, 3 / 8, 5 / 8, 7 / 8], atol=1e-15)


def test_quantile_normal_matches_ppf():
    n = 10
    grid = build_design("quantile", n, dist="normal(2, 0.5)")
    u = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    np.testing.assert_array_equal(grid.x, norm.ppf(u, loc=2.0, scale=0.5))
    # symmetric placement around the location parameter
    np.testing.assert_allclose(grid.x + grid.x[::-1], 4.0, atol=1e-12)


def test_explicit_design_passthrough():
    pts = [0.0, 0.1, 0.4, 0.9, 2.0]
    grid = build_design("explicit", points=pts)
    np.testing.assert_array_equal(grid.x, pts)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="equispaced", n=3, lo=0.0, hi=1.0),
        dict(kind="equispaced", n=10, lo=1.0, hi=1.0),
        dict(kind="equispaced", n=10, lo=2.0, hi=1.0),
        dict(kind="equispaced", n=10),
        dict(kind="quantile", n=3, dist="uniform(0,1)"),
        dict(kind="quantile", n=10, dist="uniform(1,0)"),
        dict(kind="quantile", n=10, dist="normal(0,-1)"),
        dict(kind="quantile", n=10, dist="cauchy(0,1)"),
        dict(kind="quantile", n=10),
        dict(kind="explicit", points=[0.0, 1.0, 2.0]),
        dict(kind="explicit", points=[0.0, 2.0, 1.0, 3.0]),
        dict(kind="explicit", points=[0.0, 1.0, 1.0, 3.0]),
        dict(kind="explicit"),
        dict(kind="chebyshev", n=10),
    ],
)
def test_design_rejects_bad_input(kwargs):
    kind = kwargs.pop("kind")
    with pytest.raises(ValueError):
        build_design(kind, **kwargs)


# --- penalty matrix ---------------------------------------------------------


def test_penalty_annihilates_linear_functions():
    grid = build_design("equispaced", 61, lo=-1.0, hi=1.0)
    K = penalty_matrix(grid)
    scale = np.abs(K).max()
    ones = np.ones(grid.n)
    assert np.abs(K @ ones).max() <= 1e-9 * scale
    assert np.abs(K @ grid.x).max() <= 1e-9 * scale
    np.testing.assert_array_equal(K, K.T)


@pytest.mark.parametrize("seed", range(5))
def test_penalty_quadratic_form_is_roughness_integral(seed):
    # Oracle: y'Ky equals the integrated squared second derivative of the
    # natural cubic interpolant of (x, y).  The second derivative of that
    # interpolant is piecewise linear with knot values m_i, so the integral
    # has the closed form sum_i h_i (m_i^2 + m_i m_{i+1} + m_{i+1}^2) / 3.
    rng = np.random.default_rng(seed)
    x = np.cumsum(0.05 + rng.random(20))
    y = rng.standard_normal(20)
    grid = build_design("explicit", points=x)
    K = penalty_matrix(grid)

    cs = CubicSpline(x, y, bc_type="natural")
    m = cs(x, 2)
    h = np.diff(x)
    integral = np.sum(h * (m[:-1] ** 2 + m[:-1] * m[1:] + m[1:] ** 2) / 3.0)

    assert y @ K @ y == pytest.approx(integral, rel=1e-8)


# --- eigendecomposition -----------------------------------------------------


def test_decompose_invariants(spec61):
    n = spec61.n
    gram = spec61.U.T @ spec61.U
    assert np.abs(gram - np.eye(n)).max() <= 1e-8
    assert spec61.null_dim == 2
    assert spec61.k[0] == 0.0 and spec61.k[1] == 0.0
    assert np.all(np.diff(spec61.k) >= 0)
    assert int(np.sum(spec61.k > 0)) == n - 2

    grid = DesignGrid(x=spec61.x)
    K = penalty_matrix(grid)
    recon = (spec61.U * spec61.k) @ spec61.U.T
    assert np.abs(recon - K).max() <= 1e-6 * spec61.k[-1]


def test_null_columns_span_linear_functions(spec61):
    basis = spec61.U[:, :2]
    for target in (np.ones(spec61.n), spec61.x):
        coef, *_ = np.linalg.lstsq(basis, target, rcond=None)
        resid = target - basis @ coef
        assert np.abs(resid).max() <= 1e-6 * np.abs(target).max()


def test_decompose_minimal_design():
    spec = decompose(build_design("equispaced", 4, lo=0.0, hi=1.0))
    assert int(np.sum(spec.k == 0)) == 2
    assert int(np.sum(spec.k > 0)) == 2


@pytest.mark.parametrize("seed", range(4))
def test_decompose_random_designs(seed):
    rng = np.random.default_rng(1000 + seed)
    x = np.cumsum(0.05 + rng.random(12))
    spec = decompose(build_design("explicit", points=x))
    assert np.abs(spec.U.T @ spec.U - np.eye(12)).max() <= 1e-10
    assert int(np.sum(spec.k > 0)) == 10
    # smoothing leaves linear trends alone at any lam
    y = 0.7 - 1.3 * x
    for lam in (1e-3, 1.0, 1e4):
        np.testing.assert_allclose(smooth(spec, lam, y), y, atol=1e-8)


@pytest.mark.parametrize("grid", [
    *(build_design("equispaced", n, lo=-1.0, hi=1.0) for n in (5, 61, 241, 801)),
    build_design("explicit", points=np.cumsum(0.01 + np.random.default_rng(9).random(40))),
], ids=["equispaced-5", "equispaced-61", "equispaced-241", "equispaced-801", "explicit-40"])
def test_decompose_matches_copying_construction(grid):
    # Symmetrizing in place and solving in K's own buffer change no bit of
    # K, k or U.  At n = 801 Q is 5.1 MB, past numpy's 4 MiB huge-page
    # threshold, so the package's mapped Q and the reference's np.zeros Q
    # come from different allocators.
    K, k, U = decompose_reference(grid.x)
    spec = decompose(grid)
    assert np.array_equal(penalty_matrix(grid), K)
    assert np.array_equal(spec.k, k)
    assert np.array_equal(spec.U, U)
    assert spec.U.flags.c_contiguous


# Builds the n = 1921 penalty `calls` times after `warm` untimed builds and
# prints ru_maxrss (KiB) just before the timed ones.
_PENALTY_PEAK = """
import resource, sys
import numpy as np
import scipy.linalg  # penalty_matrix's own import, loaded before the baseline
from splinesel.spectrum import DesignGrid, penalty_matrix
warm, calls = map(int, sys.argv[1:])
grid = DesignGrid(x=np.linspace(-1.0, 1.0, 1921))
for _ in range(warm):
    penalty_matrix(grid)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
for _ in range(calls):
    penalty_matrix(grid)
"""


def _penalty_peak_rise(warm: int, calls: int) -> int:
    """Bytes by which `calls` builds raise the high-water mark."""
    out, peak, _ = run_fresh(_PENALTY_PEAK, str(warm), str(calls))
    return 1024 * (peak - int(out.split()[-1]))


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB; Q is mapped on Unix")
def test_penalty_build_peaks_at_two_dense_arrays():
    # R^{-1}Q' and K are dense; of Q's 28.1 MiB only the 4 KiB pages its
    # three bands write become resident (about 7.6 MiB).  A Q backed by
    # huge pages is almost fully resident, about 90 MiB in all.
    assert _penalty_peak_rise(0, 1) < 2.75 * 8 * 1921**2


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB; Q is mapped on Unix")
def test_penalty_build_releases_q_mapping():
    # Two builds bring glibc's heap to its steady state: the first raises
    # the mmap threshold, so the second's R^{-1}Q' is heap memory that stays
    # resident after it is freed.  From then on each build reaches the same
    # peak, and a mapping kept past its build would add Q's written pages,
    # about 7.6 MiB, per build.
    assert _penalty_peak_rise(2, 3) < 8 * 1921**2 / 4


def test_df_matches_dense_inverse_trace(spec61):
    # Oracle: sum_i 1/(1 + lam k_i) is the trace of (I + lam K)^{-1}.
    K = penalty_matrix(DesignGrid(x=spec61.x))
    eye = np.eye(spec61.n)
    for lam in (1e-4, 1e-2, 1.0, 1e2):
        trace = np.trace(np.linalg.inv(eye + lam * K))
        assert df(spec61, lam) == pytest.approx(trace, rel=1e-8)


# --- shrinkage weights ------------------------------------------------------


def test_weights_limits_and_identity(spec61):
    a0, b0 = weights(spec61, 0.0)
    np.testing.assert_array_equal(a0, 1.0)
    np.testing.assert_array_equal(b0, 0.0)

    j = 5
    a, b = weights(spec61, 1.0 / spec61.k[j])
    assert a[j] == pytest.approx(0.5, abs=1e-12)
    assert b[j] == pytest.approx(0.5, abs=1e-12)

    for lam in (1e-3, 1.0, 1e3):
        a, b = weights(spec61, lam)
        np.testing.assert_allclose(b, lam * spec61.k * a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a + b, 1.0, rtol=0, atol=1e-12)


def test_weights_rejects_bad_lambda(spec61):
    with pytest.raises(ValueError):
        weights(spec61, -1.0)
    with pytest.raises(ValueError):
        weights(spec61, math.inf)


# --- degrees of freedom -----------------------------------------------------


def test_df_limits(spec61):
    assert df(spec61, 0.0) == pytest.approx(61.0, abs=1e-12)
    assert df(spec61, 1e12) == pytest.approx(2.0, abs=1e-6)


def test_df_strictly_decreasing(spec61):
    lams = np.concatenate([[0.0], np.logspace(-8, 8, 50)])
    vals = [df(spec61, lam) for lam in lams]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("target", [3.0, 10.0, 60.0])
def test_lambda_for_df_round_trip(spec61, target):
    (lam,) = lambdas_for_df(spec61, [target])
    assert lam > 0
    assert df(spec61, lam) == pytest.approx(target, abs=1e-9)


def test_lambda_for_df_extremes(spec61):
    (lam,) = lambdas_for_df(spec61, [61.0 - 1e-3])
    assert 0 < lam < 1e-3

    (lam,) = lambdas_for_df(spec61, [2.5])
    assert math.isfinite(lam) and lam > 0
    assert df(spec61, lam) == pytest.approx(2.5, abs=1e-9)


@pytest.mark.parametrize("target", [1.5, 2.0, 61.0, 200.0])
def test_lambda_for_df_domain(spec61, target):
    with pytest.raises(ValueError):
        lambdas_for_df(spec61, [target])


@st.composite
def df_problems(draw):
    """A design (equispaced, normal-quantile, or explicit with nearly
    coincident points) and df targets in (2, n), some within 1e-6 of an end."""
    kind = draw(st.sampled_from(["equispaced", "quantile", "explicit"]))
    if kind == "equispaced":
        grid = build_design("equispaced", draw(st.integers(8, 150)), lo=-1.0, hi=1.0)
    elif kind == "quantile":
        mu = draw(st.floats(-5.0, 5.0))
        sd = draw(st.floats(0.1, 10.0))
        grid = build_design("quantile", draw(st.integers(8, 150)), dist=f"normal({mu}, {sd})")
    else:
        m = draw(st.integers(8, 80))
        jitter = draw(st.lists(st.floats(-0.3, 0.3), min_size=m, max_size=m))
        base = (np.arange(m) + np.array(jitter)) / m
        close = draw(st.integers(1, len(base) - 1))
        frac = draw(st.floats(1e-3, 1e-1))
        twins = base[:close] + frac * np.diff(base)[:close]
        grid = build_design("explicit", points=np.sort(np.concatenate([base, twins])))
    n = grid.n
    ends = draw(st.lists(st.floats(1e-9, 1e-6), max_size=2))
    inner = draw(st.lists(st.floats(2.0, float(n), exclude_min=True, exclude_max=True),
                          min_size=1, max_size=12))
    targets = inner + [2.0 + d for d in ends] + [n - d for d in ends]
    return decompose(grid), draw(st.permutations(targets))


@settings(max_examples=40, deadline=None)
@given(df_problems())
def test_lambdas_for_df_properties(problem):
    spec, targets = problem
    lams = lambdas_for_df(spec, targets)
    assert lams.shape == (len(targets),)
    kpos = spec.k[spec.null_dim:]
    m = len(kpos)
    for lam, target in zip(lams, targets):
        assert abs(df(spec, lam) - target) <= 1e-9
        # Inside the closed-form bracket from the df bounds
        # null_dim + m / (1 + lam k_max) <= df <= null_dim + m / (1 + lam k_min).
        e = target - spec.null_dim
        lo, hi = math.log((m - e) / (e * kpos[-1])), math.log((m - e) / (e * kpos[0]))
        assert lo <= math.log(lam) <= hi
        # One solver: a single-target call is the same computation.
        assert lambdas_for_df(spec, [target])[0] == lam
    # Targets further apart than twice the tolerance are strictly ordered.
    order = np.argsort(targets)
    for i, j in zip(order, order[1:]):
        if targets[j] - targets[i] > 2e-9:
            assert lams[j] < lams[i]


def test_lambdas_for_df_rejects_any_bad_target(spec61):
    with pytest.raises(ValueError, match="61"):
        lambdas_for_df(spec61, [3.0, 61.0])
    with pytest.raises(ValueError):
        lambdas_for_df(spec61, [[3.0, 4.0]])


def test_lambdas_for_df_fails_on_unreachable_target(spec61):
    # df can never reach n - 0.5 when k is one entry short of n: the
    # closed-form bracket does not exist, and the inverse says so.
    short = DesignSpectrum(n=61, x=spec61.x, U=spec61.U[:, :60], k=spec61.k[:60], null_dim=2)
    with pytest.raises(NumericError, match="cannot bracket"):
        lambdas_for_df(short, [60.5])


@pytest.mark.parametrize("n", [61, 241])
def test_lambdas_for_df_at_the_df_ends(n):
    # Targets within 1e-10 of either df end, past df at lam = 1e8 / k_min
    # and at lam = 1e-8 / k_max, are still bracketed by the closed-form df
    # bounds and solved.
    spec = decompose(build_design("equispaced", n, lo=-1.0, hi=1.0))
    kpos = spec.k[spec.null_dim:]
    low = [2.0 + 1e-12, 2.0 + 1e-10]
    high = [n - 1e-10, n - 1e-12]
    assert max(low) < df(spec, 1e8 / kpos[0])
    assert min(high) > df(spec, 1e-8 / kpos[-1])
    targets = low + high
    lams = lambdas_for_df(spec, targets)
    for lam, target in zip(lams, targets):
        assert 0 < lam < math.inf
        assert abs(df(spec, lam) - target) <= 1e-9
    assert lams[0] > lams[1] > lams[2] > lams[3]


@pytest.mark.parametrize("n", [61, 241, 961])
def test_lambdas_for_df_within_step_tol_of_strict_solve(monkeypatch, spectra, n):
    # The predicted-step stop ends a solve early, never by as much as
    # NEWTON_STEP_TOL in log lam: 201 df-equispaced targets and random ones
    # in the window's df range land within it of the solve that stops only
    # on a step below it.  Without the short-step condition, a long first step
    # mismeasured Newton's error constant and the stop strayed 1.8e-12 at
    # n = 961.  (Within about 0.05 of n, df's slope in log lam falls below
    # 0.05, and df's rounding alone moves its root by more than
    # NEWTON_STEP_TOL; no solve is held there.)
    spec = spectra[n]
    window_range = (DF_WINDOW_LO, n - DF_WINDOW_MARGIN)
    targets = np.concatenate([np.linspace(*window_range[::-1], 201),
                              np.random.default_rng(n).uniform(*window_range, 2000)])
    lams = lambdas_for_df(spec, targets)
    monkeypatch.setattr(spectrum, "_log_lam_root", log_lam_root_strict_from_start)
    strict = lambdas_for_df(spec, targets)
    assert np.max(np.abs(np.log(lams) - np.log(strict))) <= NEWTON_STEP_TOL


@pytest.mark.parametrize("n", [61, 961])
def test_lambdas_for_df_window_targets_match_single_solves(spectra, n):
    # 201 df-equispaced targets cross slice boundaries of the df and slope
    # evaluation at n = 961 (16 targets a slice) and fill one slice at
    # n = 61; each lam still has the bits of its single-target solve.
    spec = spectra[n]
    targets = np.linspace(n - DF_WINDOW_MARGIN, DF_WINDOW_LO, 201)
    assert len(targets) > 3 * BLOCK_ROWS
    lams = lambdas_for_df(spec, targets)
    assert lams.tolist() == [lambdas_for_df(spec, [t])[0] for t in targets]


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lambdas_for_df_working_set_does_not_grow_with_targets(spectra):
    # The live targets' df and slope are evaluated a slice of targets at a
    # time (16 at n = 961).  Ten times the targets then add only the
    # solver's few scalars per target: under 5% of one (added targets x n)
    # float64 table.
    spec = spectra[961]
    few, many = (np.linspace(960.5, 2.1, m) for m in (201, 2010))
    grown = (_traced_peak(lambda: lambdas_for_df(spec, many))
             - _traced_peak(lambda: lambdas_for_df(spec, few)))
    assert grown <= 0.05 * (len(many) - len(few)) * spec.n * 8


def test_df_inverse_and_selection_share_one_root_finder(monkeypatch, spec61):
    # The df inverse and selection's refinement are the one Newton solve in
    # log lam, one call per inversion and one per selected block.
    calls = []
    for module, caller in ((spectrum, "df"), (criteria, "select")):
        def counting(*args, real=module._log_lam_root, caller=caller):
            calls.append(caller)
            return real(*args)

        monkeypatch.setattr(module, "_log_lam_root", counting)
    spec = DesignSpectrum(n=61, x=spec61.x, U=spec61.U, k=spec61.k, null_dim=2)
    z = spec.U.T @ np.sin(3.0 * spec.x) / 0.3 + np.random.default_rng(4).standard_normal(61)
    select(GML, spec, z)  # builds the window: one df inversion
    _select_rows(CP, spec, np.abs(np.vstack([z, -z, 2.0 * z])) ** (2.0 / CP.q))
    select(CP, spec, z)
    lambdas_for_df(spec, [3.0, 10.0])
    assert calls == ["df", "select", "select", "select", "df"]


# --- smoothing and rotation -------------------------------------------------


def test_smooth_identity_at_zero(spec61):
    rng = np.random.default_rng(42)
    y = rng.standard_normal(61)
    np.testing.assert_allclose(smooth(spec61, 0.0, y), y, atol=1e-10)


def test_smooth_preserves_linear(spec61):
    y = 3.0 - 2.0 * spec61.x
    for lam in (1e-3, 1.0, 1e3):
        assert np.abs(smooth(spec61, lam, y) - y).max() <= 1e-8


def test_smooth_matches_dense_solve(spec61):
    # Oracle: U diag(a) U' y is (I + lam K)^{-1} y.
    rng = np.random.default_rng(7)
    y = np.sin(np.pi * (spec61.x + 1.0)) + 0.3 * rng.standard_normal(61)
    (lam,) = lambdas_for_df(spec61, [10.0])
    K = penalty_matrix(DesignGrid(x=spec61.x))
    direct = np.linalg.solve(np.eye(61) + lam * K, y)
    assert np.abs(smooth(spec61, lam, y) - direct).max() <= 1e-8


def test_smooth_rejects_wrong_length(spec61):
    with pytest.raises(ValueError):
        smooth(spec61, 1.0, np.zeros(60))


def test_rotate_recovers_basis_vector(spec61):
    sigma = 2.0
    j = 17
    z = rotate(spec61, sigma * spec61.U[:, j], sigma)
    expect = np.zeros(61)
    expect[j] = 1.0
    np.testing.assert_allclose(z, expect, rtol=0, atol=1e-10)


def test_rotate_is_isometry(spec61):
    rng = np.random.default_rng(11)
    y = rng.standard_normal(61)
    z = rotate(spec61, y, 1.5)
    assert np.sum(z**2) == pytest.approx(np.sum(y**2) / 1.5**2, rel=1e-10)


def test_rotate_rejects_bad_input(spec61):
    with pytest.raises(ValueError):
        rotate(spec61, np.zeros(61), 0.0)
    with pytest.raises(ValueError):
        rotate(spec61, np.zeros(61), -1.0)
    with pytest.raises(ValueError):
        rotate(spec61, np.zeros(60), 1.0)
    with pytest.raises(ValueError):
        rotate(spec61, np.zeros((3, 60)), 1.0)
    with pytest.raises(ValueError):
        rotate(spec61, np.zeros((2, 3, 61)), 1.0)


def test_rotate_vector_and_block(spec61):
    # A vector rotates to exactly U'v / sigma.  rotate takes vectors only:
    # replicates are drawn in spectral coordinates, so no block of rows is
    # ever rotated, and a block is refused.
    y = np.random.default_rng(12).standard_normal((5, 61))
    for row in y:
        assert np.array_equal(rotate(spec61, row, 0.7), (spec61.U.T @ row) / 0.7)
    with pytest.raises(ValueError, match=r"v must have length 61, got shape \(5, 61\)"):
        rotate(spec61, y, 0.7)


def test_rotate_without_basis_names_decompose(spec61):
    # A spectrum that dropped U fails with a ValueError, which the CLI
    # reports as a JSON error line, not with a TypeError from v @ None.
    with pytest.raises(ValueError,
                       match=r"rotate needs the eigenbasis U.*decompose or cached_decompose"):
        rotate(replace(spec61, U=None), np.zeros(61), 1.0)


def test_rotated_truth_carries_curvature(spec61, truth61):
    g = truth61.g
    assert np.sum(spec61.k[2:] * g[2:] ** 2) > 0


def test_smooth_equals_rotation_route(spec61):
    rng = np.random.default_rng(5)
    y = rng.standard_normal(61)
    sigma = 2.0
    via_rotation = sigma * (spec61.U @ (weights(spec61, 0.3)[0] * rotate(spec61, y, sigma)))
    np.testing.assert_allclose(smooth(spec61, 0.3, y), via_rotation, atol=1e-10)


def test_smooth_without_basis_names_decompose(spec61):
    with pytest.raises(ValueError,
                       match=r"smooth needs the eigenbasis U.*decompose or cached_decompose"):
        smooth(replace(spec61, U=None), 0.3, np.zeros(61))


# --- disk cache -------------------------------------------------------------


def test_save_load_round_trip(tmp_path, spec61):
    path = tmp_path / "spec.npz"
    save_spectrum(spec61, path)
    loaded = load_spectrum(path)
    assert loaded.n == 61
    assert loaded.null_dim == 2
    np.testing.assert_array_equal(loaded.x, spec61.x)
    np.testing.assert_array_equal(loaded.k, spec61.k)
    np.testing.assert_array_equal(loaded.U, spec61.U)


def test_load_rejects_version_mismatch(tmp_path, spec61):
    path = tmp_path / "stale.npz"
    np.savez(
        path,
        format_version=np.int64(999),
        n=np.int64(spec61.n),
        x=spec61.x,
        k=spec61.k,
        U=spec61.U,
        null_dim=np.int64(2),
    )
    with pytest.raises(ValueError, match="format_version"):
        load_spectrum(path)


def test_cached_decompose_reuses_and_revalidates(tmp_path):
    grid_a = build_design("equispaced", 8, lo=0.0, hi=1.0)
    grid_b = build_design("equispaced", 8, lo=0.0, hi=2.0)

    first = cached_decompose(grid_a, tmp_path)
    path_a = tmp_path / (cache_key(grid_a) + ".npz")
    assert path_a.exists()

    second = cached_decompose(grid_a, tmp_path)
    np.testing.assert_array_equal(first.U, second.U)
    np.testing.assert_array_equal(first.k, second.k)

    # distinct designs get distinct cache entries
    cached_decompose(grid_b, tmp_path)
    assert (tmp_path / (cache_key(grid_b) + ".npz")).exists()
    assert cache_key(grid_a) != cache_key(grid_b)

    # a stale file under the right name is detected by its stored design
    save_spectrum(decompose(grid_b), path_a)
    rebuilt = cached_decompose(grid_a, tmp_path)
    np.testing.assert_array_equal(rebuilt.x, grid_a.x)
    np.testing.assert_array_equal(load_spectrum(path_a).x, grid_a.x)


def test_save_spectrum_failure_keeps_previous_file(tmp_path, spec61, monkeypatch):
    path = tmp_path / "spec.npz"
    save_spectrum(spec61, path)
    before = path.read_bytes()

    def crash_mid_write(fh, **arrays):
        fh.write(before[:100])
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", crash_mid_write)
    with pytest.raises(OSError, match="disk full"):
        save_spectrum(spec61, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["spec.npz"]


def test_save_spectrum_without_basis_names_decompose(tmp_path, spec61):
    path = tmp_path / "cache" / "spec.npz"
    with pytest.raises(ValueError, match=r"save_spectrum needs the eigenbasis U.*"
                                         r"decompose or cached_decompose"):
        save_spectrum(replace(spec61, U=None), path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("damage", ["truncated", "empty", "garbage"])
def test_cached_decompose_rebuilds_unreadable_file(tmp_path, caplog, damage):
    grid = build_design("equispaced", 8, lo=0.0, hi=1.0)
    first = cached_decompose(grid, tmp_path)
    path = tmp_path / (cache_key(grid) + ".npz")
    data = path.read_bytes()
    path.write_bytes({"truncated": data[: len(data) // 2], "empty": b"",
                      "garbage": b"not a cache file"}[damage])
    with caplog.at_level(logging.WARNING, logger="splinesel"):
        rebuilt = cached_decompose(grid, tmp_path)
    assert "unreadable spectrum cache" in caplog.text
    np.testing.assert_array_equal(rebuilt.U, first.U)
    np.testing.assert_array_equal(load_spectrum(path).U, first.U)


@pytest.mark.parametrize("damage", ["short k and U", "x length", "null_dim", "nan in U"])
def test_cached_decompose_rebuilds_malformed_spectrum(tmp_path, caplog, damage):
    # A readable file whose arrays do not describe an n-point spectrum is
    # rebuilt; selecting on it would otherwise never finish.
    grid = build_design("equispaced", 31, lo=-1.0, hi=1.0)
    first = cached_decompose(grid, tmp_path)
    path = tmp_path / (cache_key(grid) + ".npz")
    fields = _cache_fields(first)
    if damage == "short k and U":
        fields.update(k=first.k[:30], U=first.U[:, :30])
    elif damage == "x length":
        fields.update(x=first.x[:30])
    elif damage == "null_dim":
        fields.update(null_dim=np.int64(3))
    else:
        U = first.U.copy()
        U[4, 7] = np.nan
        fields.update(U=U)
    np.savez(path, **fields)
    with pytest.raises(ValueError):
        load_spectrum(path)
    with caplog.at_level(logging.WARNING, logger="splinesel"):
        rebuilt = cached_decompose(grid, tmp_path)
    assert "unreadable spectrum cache" in caplog.text
    np.testing.assert_array_equal(rebuilt.k, first.k)
    np.testing.assert_array_equal(load_spectrum(path).U, first.U)


def _cache_fields(spec):
    """The arrays save_spectrum writes for spec, as np.savez keywords."""
    return dict(format_version=np.int64(CACHE_FORMAT_VERSION),
                environment=np.str_(_numeric_environment()), n=np.int64(spec.n),
                x=spec.x, k=spec.k, U=spec.U, null_dim=np.int64(spec.null_dim))


@pytest.mark.parametrize("field,value", [("format_version", np.int64(999)),
                                         ("environment", np.str_("numpy 0.0; blas none"))],
                         ids=["format_version", "environment"])
def test_cached_decompose_rebuilds_stale_file(tmp_path, caplog, field, value):
    # A file of another format_version, or one built under another numeric
    # environment (whose bits may differ), is a logged miss that is rebuilt
    # and rewritten under the current ones.
    grid = build_design("equispaced", 8, lo=0.0, hi=1.0)
    spec = decompose(grid)
    path = tmp_path / (cache_key(grid) + ".npz")
    np.savez(path, **{**_cache_fields(spec), field: value})
    with pytest.raises(ValueError, match=field):
        load_spectrum(path)
    with caplog.at_level(logging.WARNING, logger="splinesel"):
        rebuilt = cached_decompose(grid, tmp_path)
    assert "stale spectrum cache" in caplog.text and field in caplog.text
    np.testing.assert_array_equal(rebuilt.U, spec.U)
    with np.load(path) as data:
        assert int(data["format_version"]) == CACHE_FORMAT_VERSION
        assert str(data["environment"]) == _numeric_environment()


@pytest.mark.parametrize("env,threads", [
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 1),
    ({"OMP_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": "4096"}, None),
    ({}, None),
], ids=["openblas first", "omp", "empty openblas", "capped at cpus", "unset"])
def test_numeric_environment_names_blas_threads(monkeypatch, env, threads):
    # OpenBLAS reads OPENBLAS_NUM_THREADS, then OMP_NUM_THREADS, and runs on
    # no more threads than the CPUs it may use.
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    described = _numeric_environment()
    assert described.startswith(f"numpy {np.__version__}; blas ")
    assert described.endswith(f"; threads {threads or cpus}")


def test_stale_file_is_rejected_before_its_basis_is_read(tmp_path, monkeypatch):
    # A stale file is rejected before its U is read.
    grid = build_design("equispaced", 8, lo=0.0, hi=1.0)
    cached_decompose(grid, tmp_path)
    monkeypatch.setattr(spectrum, "_numeric_environment", lambda: "elsewhere")

    def no_read(*args, **kwargs):
        raise AssertionError("U read")

    monkeypatch.setattr(spectrum, "_read_basis", no_read)
    with pytest.raises(spectrum.CacheFormatError, match="elsewhere"):
        load_spectrum(tmp_path / (cache_key(grid) + ".npz"))


# --- streaming the cached basis ---------------------------------------------


def _u_member(path):
    """Offset of the U member's stored .npy bytes within a cache file: its
    local header is 30 bytes, then the name and extra field, whose lengths
    are the header's last two 16-bit fields."""
    with zipfile.ZipFile(path) as archive:
        at = archive.getinfo("U.npy").header_offset
    head = path.read_bytes()[at:at + 30]
    return at + 30 + int.from_bytes(head[26:28], "little") + int.from_bytes(head[28:], "little")


def _damage_u(path, spec, damage):
    """Rewrite the cache file at path with its U member damaged in its
    third row block (rows 128..191)."""
    if damage == "non-finite block":
        U = spec.U.copy()
        U[150, 7] = np.inf
        np.savez(path, **{**_cache_fields(spec), "U": U})
    elif damage == "bad crc":
        # One low mantissa bit of U[150, 7]: still finite, but not the
        # bytes the member's CRC was taken over.
        data = bytearray(path.read_bytes())
        # U's row-major data follows its .npy header, which ends in a newline.
        data[data.index(b"\n", _u_member(path)) + 1 + 8 * (150 * spec.n + 7)] ^= 1
        path.write_bytes(bytes(data))
    else:
        # A well-formed archive whose U member stops in the third block.
        npy = io.BytesIO()
        np.save(npy, spec.U)
        cut = len(npy.getvalue()) - 8 * spec.n * (spec.n - 150)
        fields = _cache_fields(spec)
        del fields["U"]
        np.savez(path, **fields)
        with zipfile.ZipFile(path, "a") as archive:
            archive.writestr("U.npy", npy.getvalue()[:cut])


@pytest.mark.parametrize("fold", [False, True], ids=["assembled", "folded"])
@pytest.mark.parametrize("damage", ["truncated block", "non-finite block", "bad crc"])
def test_damaged_basis_stream_is_rebuilt(tmp_path, caplog, damage, fold):
    # A U member that fails mid-stream is a logged miss, whether its rows
    # were being assembled into U or folded into v @ U; the rebuild equals
    # a fresh build, and so does the file it rewrites.
    grid = build_design("equispaced", 241, lo=-1.0, hi=1.0)
    fresh = decompose(grid)
    v = np.cos(3.0 * grid.x)
    path = tmp_path / (cache_key(grid) + ".npz")
    save_spectrum(fresh, path)
    _damage_u(path, fresh, damage)
    with pytest.raises(spectrum._UNREADABLE):
        load_spectrum(path)
    out = np.full(241, np.nan)
    with caplog.at_level(logging.WARNING, logger="splinesel"):
        rebuilt = cached_decompose(grid, tmp_path, fold=(v, out) if fold else None)
    assert "unreadable spectrum cache" in caplog.text
    np.testing.assert_array_equal(rebuilt.k, fresh.k)
    if fold:
        assert rebuilt.U is None
        assert np.array_equal(out, rotate(fresh, v, 1.0))
    else:
        np.testing.assert_array_equal(rebuilt.U, fresh.U)
    np.testing.assert_array_equal(load_spectrum(path).U, fresh.U)


def test_rotate_vector_is_the_blocked_row_sum(spectra):
    # A vector's rotation is sum_b v[b] @ U[b] over BLOCK_ROWS-row blocks,
    # added in block order; up to one block that is the single product.
    for n in (61, 241, 961):
        U = spectra[n].U
        v = np.random.default_rng(n).standard_normal(n)
        blocks = [v[i:i + BLOCK_ROWS] @ U[i:i + BLOCK_ROWS] for i in range(0, n, BLOCK_ROWS)]
        expect = blocks[0].copy()
        for part in blocks[1:]:
            expect += part
        assert np.array_equal(rotate(spectra[n], v, 0.3), expect / 0.3)
        if n <= BLOCK_ROWS:
            assert np.array_equal(rotate(spectra[n], v, 0.3), (v @ U) / 0.3)


def test_load_spectrum_forms_no_whole_basis_array(tmp_path, monkeypatch, spectra):
    # U's finiteness is checked a block at a time, so no n x n boolean array
    # is formed, and a folded load holds a few blocks of U, not all of it.
    n = 961
    path = tmp_path / "spec.npz"
    save_spectrum(spectra[n], path)
    shapes = []
    real = np.isfinite

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", recording)
    tracemalloc.start()
    try:
        load_spectrum(path, fold=(np.ones(n), np.empty(n)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(math.prod(shape) for shape in shapes) <= BLOCK_ROWS * n
    assert peak < 8 * n * n / 4


# --- the cache rule's slices ------------------------------------------------


def _sliced_results(monkeypatch, budget, spec, truth, path) -> list:
    """Every sliced route's output at one slice budget, as bytes or exact
    values: the row engine, select, the Monte Carlo decomposition, a folded
    cache load and the R0 values of every reversal block."""
    from splinesel import geometry, oracle
    from splinesel._rng import replicate_block

    monkeypatch.setattr(spectrum, "SLICE_ENTRIES", budget)
    spec = DesignSpectrum(n=spec.n, x=spec.x, U=spec.U, k=spec.k, null_dim=spec.null_dim)
    n, out = spec.n, []
    Z = truth.g + replicate_block(4, n, 0, BLOCK_ROWS)
    for c in (CP, GML, criteria.EE):
        lam, df_hat, flags = _select_rows(c, spec, np.abs(Z) ** (2.0 / c.q))
        out += [lam.tobytes(), df_hat.tobytes(), flags, select(c, spec, Z[3])]
    out.append(oracle.decomposition_mc(criteria.EE, spec, truth, 100, 5).to_json())
    fold = np.empty(n)
    load_spectrum(path, fold=(truth.f, fold))
    out.append(fold.tobytes())
    r0 = {}
    real = geometry._r0_values

    def recording(q, forms, zp):
        values = real(q, forms, zp)
        for i, v in enumerate(values):
            r0.setdefault((q, i), []).append(v)
        return values

    monkeypatch.setattr(geometry, "_r0_values", recording)
    lam0 = oracle.ideal_lambda(spec, truth).lam
    out.append(geometry.reversal_probs_mc([CP, GML, criteria.EE], spec, truth, lam0, 1000, 2))
    monkeypatch.setattr(geometry, "_r0_values", real)
    assert sorted(r0) == [(1.0, 0), (1.0, 1), (1.5, 0)]
    out += [np.concatenate(values).tobytes() for values in r0.values()]
    return out


@pytest.mark.parametrize("n", [61, 241, 961])
def test_results_do_not_depend_on_the_slice_budget(monkeypatch, spectra, truths, cache_dir, n):
    # The cache rule slices work, never changes it: with slices of 8 rows
    # (a budget below one row), the default budget and no slicing at all,
    # every route gives the same bits.
    path = cache_dir / (cache_key(build_design("equispaced", n, lo=-1.0, hi=1.0)) + ".npz")
    runs = [_sliced_results(monkeypatch, budget, spectra[n], truths[n], path)
            for budget in (0, spectrum.SLICE_ENTRIES, 10**12)]
    assert runs[0] == runs[1] == runs[2]


def test_rate_probes_do_not_depend_on_the_slice_budget(monkeypatch, spectra, cache_dir):
    from splinesel import oracle

    design = {"kind": "equispaced", "lo": -1.0, "hi": 1.0}
    runs = []
    for budget in (0, spectrum.SLICE_ENTRIES, 10**12):
        monkeypatch.setattr(spectrum, "SLICE_ENTRIES", budget)
        runs.append(oracle.rate_probes([CP, GML, criteria.EE], design, [61, 121, 241, 961],
                                       "paper-fig3", 1.0, cache_dir))
    assert runs[0] == runs[1] == runs[2]
