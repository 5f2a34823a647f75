"""The shared minimizer: gap-capped window, Newton refinement, block
selection, and the golden-section route it replaced, kept here as an
independent cross-check."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import splinesel as ss
from splinesel._rng import replicate_normals
from splinesel.criteria import (
    COARSE_CANDIDATES,
    DF_WINDOW_LO,
    DF_WINDOW_MARGIN,
    MAX_LOG_GAP,
    SelectionWindow,
    loss,
    select,
    select_block,
    selection_window,
)
from splinesel.spectrum import df, lambdas_for_df, weights

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def df_window(spec):
    """The 201-point df-equispaced window the golden-section route screens."""
    targets = np.linspace(spec.n - DF_WINDOW_MARGIN, DF_WINDOW_LO, COARSE_CANDIDATES)
    lams = lambdas_for_df(spec, targets)
    lk = lams[:, None] * spec.k[None, :]
    return SelectionWindow(spec=spec, lambdas=lams, b=lk / (1.0 + lk))


def golden_select(c, window, z, log_tol=1e-6):
    """Selection by the golden-section route: the coarse screen over a
    df_window, then golden section in log lam inside the winner's bracket.
    Returns (lam, loss)."""
    spec, lams = window.spec, window.lambdas
    T, offset = window.criterion_tables(c)
    u = np.abs(z) ** (2.0 / c.q)
    coarse = T @ u[spec.null_dim:] + offset
    best = len(coarse) - 1 - int(np.argmin(coarse[::-1]))

    def objective(log_lam):
        return loss(c, weights(spec, math.exp(log_lam)), u)

    lo = math.log(lams[max(best - 1, 0)])
    hi = math.log(lams[min(best + 1, len(lams) - 1)])
    evaluated = [(float(coarse[best]), float(lams[best]))]
    c1 = hi - _GOLDEN * (hi - lo)
    c2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = objective(c1), objective(c2)
    evaluated += [(f1, math.exp(c1)), (f2, math.exp(c2))]
    while hi - lo > log_tol:
        if f1 < f2:
            hi, c2, f2 = c2, c1, f1
            c1 = hi - _GOLDEN * (hi - lo)
            f1 = objective(c1)
            evaluated.append((f1, math.exp(c1)))
        else:
            lo, c1, f1 = c1, c2, f2
            c2 = lo + _GOLDEN * (hi - lo)
            f2 = objective(c2)
            evaluated.append((f2, math.exp(c2)))
    value, lam = min(evaluated, key=lambda pair: (pair[0], -pair[1]))
    return lam, value


SWEEP_CRITERIA = [ss.CP, ss.GML, ss.EE, ss.make_criterion(1.0, 2.0),
                  ss.make_criterion(3.0, 1.0), ss.make_criterion(1.2, 3.0)]


def _g(truths, n, truth):
    return truths[n].g if truth == "paper-fig3" else np.zeros(n)


@pytest.mark.parametrize("truth", ["paper-fig3", "zero"])
@pytest.mark.parametrize("n", [61, 241])
def test_select_never_worse_than_golden_section(spectra, truths, windows, n, truth):
    spec, window = spectra[n], windows[n]
    golden_window = df_window(spec)
    g = _g(truths, n, truth)
    for c in SWEEP_CRITERIA:
        for r in range(200):
            z = g + replicate_normals(2718, n, r, n)
            _, golden_loss = golden_select(c, golden_window, z)
            picked = select(c, spec, z, window)
            assert picked.loss <= golden_loss + 1e-12 * abs(golden_loss), (c.name, r)


@pytest.mark.parametrize("crit, n, truth, replicate", [
    (ss.GML, 61, "paper-fig3", 730),
    (ss.CP, 241, "zero", 115),
    (ss.CP, 241, "zero", 501),
])
def test_select_finds_minimum_hidden_in_wide_gap(spectra, truths, windows,
                                                 crit, n, truth, replicate):
    # On these draws the 201-point df-equispaced screen puts its winner in
    # the wrong basin; the gap-capped window does not.
    spec, window = spectra[n], windows[n]
    z = _g(truths, n, truth) + replicate_normals(11, n, replicate, n)
    picked = select(crit, spec, z, window)
    u = np.abs(z) ** (2.0 / crit.q)
    grid = np.exp(np.linspace(math.log(window.lambdas[0]),
                              math.log(window.lambdas[-1]), 10001))
    brute = min(loss(crit, weights(spec, lam), u) for lam in grid)
    assert picked.loss <= brute + 1e-10 * abs(brute)


def test_window_keeps_df_points_and_caps_log_gaps(spectra, windows):
    for n in (61, 241, 961):
        lams = windows[n].lambdas
        df_points = df_window(spectra[n]).lambdas
        assert np.all(np.isin(df_points, lams))
        assert lams[0] == df_points[0] and lams[-1] == df_points[-1]
        assert np.all(np.diff(np.log(lams)) <= MAX_LOG_GAP)
    assert [len(windows[n].lambdas) - COARSE_CANDIDATES for n in (61, 241, 961)] == [24, 49, 77]


def test_minimizer_leaves_no_reference_cycle():
    # A root finder that keeps its callable in a reference cycle would hold
    # the spectrum (through the objective's closure) until the cyclic
    # collector runs, raising peak memory on long runs.
    gc.disable()
    try:
        grid = ss.build_design("equispaced", 31, lo=-1.0, hi=1.0)
        spec = ss.decompose(grid)
        truth = ss.make_truth(spec, ss.truth_curve("paper-fig3", grid), 1.0)
        select(ss.GML, spec, truth.g + replicate_normals(3, 31, 0, 31))
        ss.ideal_lambda(spec, truth)
        ss.central_lambda(ss.EE, spec, truth)
        ref = weakref.ref(spec)
        del spec
        assert ref() is None
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def block_settings(spectra, truths, windows):
    """n -> (spec, window, golden df_window, demo-curve g) at n = 31 and 61."""
    grid = ss.build_design("equispaced", 31, lo=-1.0, hi=1.0)
    spec31 = ss.decompose(grid)
    g31 = ss.make_truth(spec31, ss.truth_curve("paper-fig3", grid), 1.0).g
    return {31: (spec31, selection_window(spec31), df_window(spec31), g31),
            61: (spectra[61], windows[61], df_window(spectra[61]), truths[61].g)}


@settings(max_examples=30)
@given(p=st.floats(1.0, 3.0), q=st.floats(1.0, 3.0), n=st.sampled_from([31, 61]),
       truth=st.sampled_from(["paper-fig3", "zero"]), rows=st.integers(1, 150),
       seed=st.integers(0, 2**32 - 1))
def test_select_block_rows_match_single_selection(block_settings, p, q, n, truth, rows, seed):
    spec, window, golden_window, g = block_settings[n]
    c = ss.make_criterion(p, q)
    mean = g if truth == "paper-fig3" else np.zeros(n)
    Z = mean + np.random.default_rng(seed).standard_normal((rows, n))
    block = select_block(c, spec, Z, window)
    assert block.lam_hat.shape == block.df_hat.shape == block.loss.shape == (rows,)
    assert len(block.at_boundary) == rows
    for i, z in enumerate(Z):
        _, golden_loss = golden_select(c, golden_window, z)
        assert block.loss[i] <= golden_loss + 1e-12 * abs(golden_loss), i
        one = select(c, spec, z, window)
        assert block.loss[i] == pytest.approx(one.loss, rel=1e-12, abs=0.0), i
        assert block.at_boundary[i] == one.at_boundary, i
        assert block.df_hat[i] == df(spec, block.lam_hat[i]), i


def test_select_block_validates_input(spec61, window61):
    with pytest.raises(ValueError, match="block"):
        select_block(ss.CP, spec61, np.ones(61), window61)
    with pytest.raises(ValueError, match="block"):
        select_block(ss.CP, spec61, np.ones((3, 60)), window61)
    with pytest.raises(ValueError, match="block"):
        select_block(ss.CP, spec61, np.ones((0, 61)), window61)
    bad = np.ones((3, 61))
    bad[2, 5] = np.inf
    with pytest.raises(ValueError, match="finite"):
        select_block(ss.CP, spec61, bad, window61)
