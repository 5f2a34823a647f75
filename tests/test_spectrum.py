"""Design grids, the roughness penalty, and its eigendecomposition."""

import logging
import math

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
from splinesel.criteria import CP, GML, select, select_block
from splinesel.spectrum import CACHE_FORMAT_VERSION, DesignSpectrum, cache_key


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


def test_df_matches_dense_inverse_trace(spec61):
    # Oracle: sum_i 1/(1 + lam k_i) is the trace of (I + lam K)^{-1}.
    K = penalty_matrix(DesignGrid(x=spec61.x))
    eye = np.eye(spec61.n)
    for lam in (1e-4, 1e-2, 1.0, 1e2):
        trace = np.trace(np.linalg.inv(eye + lam * K))
        assert df(spec61, lam) == pytest.approx(trace, rel=1e-8)


# --- shrinkage weights ------------------------------------------------------


def test_weights_limits_and_identity(spec61):
    w0 = weights(spec61, 0.0)
    np.testing.assert_array_equal(w0.a, 1.0)
    np.testing.assert_array_equal(w0.b, 0.0)

    j = 5
    w = weights(spec61, 1.0 / spec61.k[j])
    assert w.a[j] == pytest.approx(0.5, abs=1e-12)
    assert w.b[j] == pytest.approx(0.5, abs=1e-12)

    for lam in (1e-3, 1.0, 1e3):
        w = weights(spec61, lam)
        np.testing.assert_allclose(w.b, lam * spec61.k * w.a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w.a + w.b, 1.0, rtol=0, atol=1e-12)


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
    for lam, target in zip(lams, targets):
        assert abs(df(spec, lam) - target) <= 1e-9
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
    # bracket widening must give up rather than spin.
    short = DesignSpectrum(n=61, x=spec61.x, U=spec61.U[:, :60], k=spec61.k[:60], null_dim=2)
    with pytest.raises(NumericError, match="cannot bracket"):
        lambdas_for_df(short, [60.5])


@pytest.mark.parametrize("n", [61, 241])
def test_lambdas_for_df_beyond_the_grid(n):
    # The coarse grid spans lam = 1e-8 / k_max .. 1e8 / k_min; a target past
    # either end is bracketed by the closed-form df bounds.
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
    select_block(CP, spec, np.vstack([z, -z, 2.0 * z]))
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


def test_rotated_truth_carries_curvature(spec61, truth61):
    g = truth61.g
    assert np.sum(spec61.k[2:] * g[2:] ** 2) > 0


def test_smooth_equals_rotation_route(spec61):
    rng = np.random.default_rng(5)
    y = rng.standard_normal(61)
    sigma = 2.0
    w = weights(spec61, 0.3)
    via_rotation = sigma * (spec61.U @ (w.a * rotate(spec61, y, sigma)))
    np.testing.assert_allclose(smooth(spec61, 0.3, y), via_rotation, atol=1e-10)


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
    fields = dict(format_version=np.int64(CACHE_FORMAT_VERSION), n=np.int64(31),
                  x=first.x, k=first.k, U=first.U, null_dim=np.int64(2))
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


def test_cached_decompose_rejects_version_mismatch(tmp_path):
    grid = build_design("equispaced", 8, lo=0.0, hi=1.0)
    spec = decompose(grid)
    np.savez(tmp_path / (cache_key(grid) + ".npz"), format_version=np.int64(999),
             n=np.int64(8), x=spec.x, k=spec.k, U=spec.U, null_dim=np.int64(2))
    with pytest.raises(ValueError, match="format_version"):
        cached_decompose(grid, tmp_path)
