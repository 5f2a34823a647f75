"""The shared minimizer: log-uniform window, Newton refinement, block
selection, and the golden-section route it replaced, kept here as an
independent cross-check."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import splinesel as ss
from splinesel import criteria
from splinesel._rng import replicate_block, replicate_normals, spectral_blocks
from splinesel.criteria import (
    DF_WINDOW_LO,
    DF_WINDOW_MARGIN,
    MAX_LOG_GAP,
    _value_tables,
    loss,
    select,
    select_block,
)
from splinesel.spectrum import (BLOCK_ROWS, NEWTON_STEP_TOL, DesignSpectrum, _shrink, df,
                                lambdas_for_df)

from crosscheck import imhof_lower_tail, select_rows_reference, value_tables_reference
from fresh import run_fresh

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
DF_POINTS = 201


def df_window(spec):
    """The 201-point df-equispaced window the golden-section route screens."""
    targets = np.linspace(spec.n - DF_WINDOW_MARGIN, DF_WINDOW_LO, DF_POINTS)
    return lambdas_for_df(spec, targets)


def golden_select(c, spec, lams, z, log_tol=1e-6):
    """Selection by the golden-section route: the coarse screen over the
    df_window lams of spec, then golden section in log lam inside the
    winner's bracket.  Returns (lam, loss)."""
    T, offset = _value_tables(c, _shrink(spec.k[spec.null_dim:], lams)[1])
    u = np.abs(z) ** (2.0 / c.q)
    coarse = T @ u[spec.null_dim:] + offset
    best = len(coarse) - 1 - int(np.argmin(coarse[::-1]))

    def objective(log_lam):
        return loss(c, spec, math.exp(log_lam), u)

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
def test_select_never_worse_than_golden_section(spectra, truths, n, truth):
    spec = spectra[n]
    golden_window = df_window(spec)
    g = _g(truths, n, truth)
    for c in SWEEP_CRITERIA:
        for r in range(200):
            z = g + replicate_normals(2718, n, r, n)
            _, golden_loss = golden_select(c, spec, golden_window, z)
            picked = select(c, spec, z)
            assert picked.loss <= golden_loss + 1e-12 * abs(golden_loss), (c.name, r)


@pytest.mark.parametrize("crit, n, truth, replicate", [
    (ss.GML, 61, "paper-fig3", 730),
    (ss.CP, 241, "zero", 115),
    (ss.CP, 241, "zero", 501),
])
def test_select_finds_minimum_hidden_in_wide_gap(spectra, truths, crit, n, truth, replicate):
    # On these draws the 201-point df-equispaced screen puts its winner in
    # the wrong basin; the log-uniform window does not.
    spec = spectra[n]
    window = spec.window
    z = _g(truths, n, truth) + replicate_normals(11, n, replicate, n)
    picked = select(crit, spec, z)
    u = np.abs(z) ** (2.0 / crit.q)
    grid = np.exp(np.linspace(math.log(window[0]), math.log(window[-1]), 10001))
    brute = min(loss(crit, spec, lam, u) for lam in grid)
    assert picked.loss <= brute + 1e-10 * abs(brute)


def test_window_keeps_df_points_and_caps_log_gaps(spectra):
    # The window's ends are the df inverse's lams at its two df targets, bit
    # for bit; between them it takes the fewest equal log-lam steps that
    # MAX_LOG_GAP allows.
    for n in (61, 241, 961):
        lams = spectra[n].window
        ends = lambdas_for_df(spectra[n], [n - DF_WINDOW_MARGIN, DF_WINDOW_LO])
        assert lams[0] == ends[0] and lams[-1] == ends[1]
        steps = np.diff(np.log(lams))
        assert np.all(steps <= MAX_LOG_GAP)
        assert np.max(steps) - np.min(steps) <= 1e-13
        assert len(steps) == math.ceil(math.log(ends[1] / ends[0]) / MAX_LOG_GAP)
    assert [len(spectra[n].window) for n in (61, 241, 961)] == [102, 136, 171]


def test_minimizer_leaves_no_reference_cycle():
    # A root finder that keeps its callable in a reference cycle would hold
    # the spectrum (through the objective's closure) until the cyclic
    # collector runs, raising peak memory on long runs.  The spectrum keeps
    # its window and criterion tables as arrays, which cannot point back at
    # it.
    gc.disable()
    try:
        grid = ss.build_design("equispaced", 31, lo=-1.0, hi=1.0)
        spec = ss.decompose(grid)
        truth = ss.make_truth(spec, ss.truth_curve("paper-fig3", grid), 1.0)
        select(ss.GML, spec, truth.g + replicate_normals(3, 31, 0, 31))
        ss.ideal_lambda(spec, truth)
        ss.central_lambda(ss.EE, spec, truth)
        assert "window" in vars(spec)  # built by the first selection and kept
        ref = weakref.ref(spec)
        del spec
        assert ref() is None
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def block_settings(spectra, truths):
    """n -> (spec, golden df_window, demo-curve g) at n = 31 and 61."""
    grid = ss.build_design("equispaced", 31, lo=-1.0, hi=1.0)
    spec31 = ss.decompose(grid)
    g31 = ss.make_truth(spec31, ss.truth_curve("paper-fig3", grid), 1.0).g
    return {31: (spec31, df_window(spec31), g31),
            61: (spectra[61], df_window(spectra[61]), truths[61].g)}


@settings(max_examples=30)
@given(p=st.floats(1.0, 3.0), q=st.floats(1.0, 3.0), n=st.sampled_from([31, 61]),
       truth=st.sampled_from(["paper-fig3", "zero"]), rows=st.integers(1, 150),
       seed=st.integers(0, 2**32 - 1))
def test_select_block_rows_match_single_selection(block_settings, p, q, n, truth, rows, seed):
    spec, golden_window, g = block_settings[n]
    c = ss.make_criterion(p, q)
    mean = g if truth == "paper-fig3" else np.zeros(n)
    Z = mean + np.random.default_rng(seed).standard_normal((rows, n))
    block = select_block(c, spec, Z)
    assert block.lam_hat.shape == block.df_hat.shape == block.loss.shape == (rows,)
    assert len(block.at_boundary) == rows
    for i, z in enumerate(Z):
        _, golden_loss = golden_select(c, spec, golden_window, z)
        assert block.loss[i] <= golden_loss + 1e-12 * abs(golden_loss), i
        one = select(c, spec, z)
        assert block.loss[i] == pytest.approx(one.loss, rel=1e-12, abs=0.0), i
        assert block.at_boundary[i] == one.at_boundary, i
        assert block.df_hat[i] == df(spec, block.lam_hat[i]), i


def test_select_block_validates_input(spec61):
    with pytest.raises(ValueError, match="block"):
        select_block(ss.CP, spec61, np.ones(61))
    with pytest.raises(ValueError, match="block"):
        select_block(ss.CP, spec61, np.ones((3, 60)))
    with pytest.raises(ValueError, match="block"):
        select_block(ss.CP, spec61, np.ones((0, 61)))
    bad = np.ones((3, 61))
    bad[2, 5] = np.inf
    with pytest.raises(ValueError, match="finite"):
        select_block(ss.CP, spec61, bad)


def _fresh(spec):
    """A copy of spec with a window of its own, so no table is cached yet."""
    return DesignSpectrum(n=spec.n, x=spec.x, U=spec.U, k=spec.k, null_dim=spec.null_dim)


@pytest.mark.parametrize("n", [61, 241, 961])
@pytest.mark.parametrize("crit", [ss.CP, ss.GML, ss.EE, ss.criterion_by_name("p3q1")])
def test_one_row_screen_is_the_table_product(spectra, n, crit):
    # A block of one row is screened BLOCK_ROWS window points at a time, yet
    # every screen value has the bits of the whole table product.  The
    # window spans two slices at n = 61 and three at n = 241 and 961.
    spec = _fresh(spectra[n])
    assert len(spec.window) > BLOCK_ROWS
    u = np.abs(np.random.default_rng(n).standard_normal(n) + 1.5) ** (2.0 / crit.q)
    up = u[None, spec.null_dim:]
    screen = criteria._screen(crit, spec, up)
    assert spec.tables == {}
    T, offset = criteria._criterion_table(crit, spec)
    assert screen.tobytes() == (up @ T.T + offset).tobytes()


_TIED_ROW = """
import splinesel as ss
from splinesel._rng import replicate_block
grid = ss.build_design("equispaced", 961, lo=-1.0, hi=1.0)
spec = ss.decompose(grid)
g = ss.make_truth(spec, ss.truth_curve("paper-fig3", grid), 1.0).g
Z = g + replicate_block(11, 961, 2112, 2176)
block, single = ss.select_block(ss.EE, spec, Z), ss.select(ss.EE, spec, Z[2])
print(repr(float(block.lam_hat[2])), repr(single.lam_hat))
"""


def test_block_and_single_selection_agree_where_winner_and_root_tie():
    # ee at n = 961, replicate 2114 of seed 11 (row 2 of its 64-row block),
    # OpenBLAS on one thread (Haswell kernels): the screen's winner lies
    # 4.3e-8 from the Newton root in log lam, and the criterion's values
    # there tie to the last ulp.  The block's screen and a one-row screen
    # round the winner's value differently, so a pick that compared the
    # root's value with the winner's took the winner in one route and the
    # root in the other.  The pick compares no values: a bracketed root is
    # the pick in both routes, bit for bit.
    block, single = run_fresh(_TIED_ROW)[0].split()
    assert block == single


@pytest.mark.parametrize("n", [61, 241])
@pytest.mark.parametrize("name", ["cp", "gml", "ee"])
def test_block_single_and_loss_report_one_value(spectra, n, name):
    # The criterion's value is computed only where it is reported, by one
    # route: select_block's loss, select's loss and loss() at the pick are
    # the same bits on every row of a pure-noise block, boundary rows
    # included.
    c = ss.criterion_by_name(name)
    spec = spectra[n]
    Z = replicate_block(5, n, 0, BLOCK_ROWS)
    block = select_block(c, spec, Z)
    for i, z in enumerate(Z):
        u = np.abs(z) ** (2.0 / c.q)
        assert block.loss[i] == select(c, spec, z).loss, i
        assert block.loss[i] == loss(c, spec, block.lam_hat[i], u), i


def test_selection_computes_no_criterion_value(monkeypatch, tmp_path, spectra, truths,
                                               cache_dir):
    # Picking lam needs the screen's ranking and the slope, never a
    # criterion value: the campaign (known and estimated sigma), the Monte
    # Carlo decomposition, the rate probes and the ideal and central lam
    # all run with criteria._values raising.
    def refuse(*args):
        raise AssertionError("criterion value computed")

    monkeypatch.setattr(criteria, "_values", refuse)
    for sigma_mode in ("known", "estimated"):
        cfg = ss.SimConfig(design={"kind": "equispaced", "lo": -1.0, "hi": 1.0}, n_list=[61],
                           replicates=70, seed=3, criteria=["cp", "gml", "ee"],
                           truth="paper-fig3", sigma=1.0, sigma_mode=sigma_mode,
                           output_dir=str(tmp_path))
        assert len(list(ss.run_simulation(cfg))) == 3 * 70
    ss.decomposition_mc(ss.EE, spectra[61], truths[61], 100, 0)
    ss.rate_probes([ss.CP, ss.GML, ss.EE], {"kind": "equispaced", "lo": -1.0, "hi": 1.0},
                   [61, 121, 241, 481], lambda grid: ss.truth_curve("paper-fig3", grid),
                   cache_dir=cache_dir)
    ss.ideal_lambda(spectra[241], truths[241])
    ss.central_lambda(ss.GML, spectra[241], truths[241])
    with pytest.raises(AssertionError, match="criterion value"):
        select(ss.CP, spectra[61], truths[61].g)


@pytest.mark.parametrize("name", ["cp", "gml", "ee", "p1.2q2"])
def test_value_tables_in_place_match_reference(name, spec61):
    # The in-place table has the reference expression's bits, on window rows
    # and on the row at lam = 0 (b = 0, where p > 1 takes expm1(-inf) = -1),
    # and leaves b as it was.
    c = ss.criterion_by_name(name)
    kp = spec61.k[spec61.null_dim:]
    b = _shrink(kp, spec61.window)[1]
    if c.p > 1.0:
        b = np.vstack([_shrink(kp, 0.0)[1], b])
    before = b.copy()
    T, offset = _value_tables(c, b)
    T_ref, offset_ref = value_tables_reference(c, b)
    assert T.tobytes() == T_ref.tobytes()
    assert offset.tobytes() == offset_ref.tobytes()
    assert b.tobytes() == before.tobytes()


def test_only_multi_row_blocks_build_criterion_tables(monkeypatch, spec61, truth61):
    # A block of one row (select, and the central and ideal lambda) leaves
    # the spectrum without value tables; the first block of two builds its
    # criterion's table, and later blocks reuse that table: one build per
    # (p, q) per spectrum.  Blocks of every size keep the derivative rows
    # of the window points they touch, under (p, q, point).
    spec = _fresh(spec61)
    z = truth61.g + np.random.default_rng(3).standard_normal(61)

    def value_tables():
        return [key for key in spec.tables if len(key) == 2]

    select(ss.GML, spec, z)
    ss.central_lambda(ss.EE, spec, truth61)
    ss.ideal_lambda(spec, truth61)
    assert value_tables() == []
    assert {key[:2] for key in spec.tables} == {(c.p, c.q) for c in (ss.GML, ss.EE, ss.CP)}

    rows_tabled = []  # rows of every b tabled; a whole-window table has len(window)

    def spy(c, b):
        rows_tabled.append(b.shape[0])
        return _value_tables(c, b)

    monkeypatch.setattr(criteria, "_value_tables", spy)
    key = (ss.GML.p, ss.GML.q)
    select_block(ss.GML, spec, np.vstack([z, -z]))
    assert value_tables() == [key]
    table = spec.tables[key]
    select_block(ss.GML, spec, np.vstack([-z, 2.0 * z]))
    assert value_tables() == [key]
    assert spec.tables[key] is table
    assert rows_tabled.count(len(spec.window)) == 1


REFINE_CRITERIA = ["cp", "gml", "ee", "p1.2q2"]


@pytest.mark.parametrize("n", [61, 241, 961])
@pytest.mark.parametrize("name", REFINE_CRITERIA)
def test_refinement_matches_the_strict_reference(spectra, truths, n, name):
    # The quadratic start and the predicted-step stop land within 1e-12
    # relative of the strict refinement (winner start, stop only on a step
    # below NEWTON_STEP_TOL), with the same boundary flags, on the demo
    # curve and on pure noise.  The stop leaves a row once its next step is
    # predicted below a tenth of NEWTON_STEP_TOL, so every lam lands within
    # 0.3 NEWTON_STEP_TOL (measured: 1.1e-13 at most); a stop at a whole
    # NEWTON_STEP_TOL reached 9.9e-13.  The reference keeps the lower in
    # value of winner and root, so this also shows that comparing values
    # would change no pick on these rows.
    c = ss.criterion_by_name(name)
    spec = spectra[n]
    for g in (truths[n].g, np.zeros(n)):
        for start in range(0, 16 * BLOCK_ROWS, BLOCK_ROWS):
            Z = g + replicate_block(29, n, start, start + BLOCK_ROWS)
            picked = select_block(c, spec, Z)
            strict = select_rows_reference(c, spec, np.abs(Z) ** (2.0 / c.q))
            shift = np.max(np.abs(picked.lam_hat / strict.lam_hat - 1.0))
            assert shift <= 1e-12 and shift <= 0.3 * NEWTON_STEP_TOL, start
            assert picked.at_boundary == strict.at_boundary, start


@pytest.mark.parametrize("n", [61, 961])
@pytest.mark.parametrize("name", REFINE_CRITERIA)
def test_window_derivative_rows_have_log_derivs_bits(spectra, n, name):
    # Each memoized window row is _deriv_terms' row at that point, formed
    # alone, with the bits of the row-block evaluation; contracted with u,
    # the winner's slope and curvature and the neighbour's slope are
    # _log_derivs' own.
    c = ss.criterion_by_name(name)
    spec = _fresh(spectra[n])
    kp = spec.k[spec.null_dim:]
    rng = np.random.default_rng(n)
    points = np.concatenate([[0, len(spec.window) - 1],
                             rng.integers(0, len(spec.window), BLOCK_ROWS - 2)])
    up = np.abs(rng.standard_normal((BLOCK_ROWS, n - 2)) + 1.0) ** (2.0 / c.q)
    lams = spec.window[points]
    g, h = criteria._window_derivs(c, spec, points, up)
    g_ref, h_ref = criteria._log_derivs(c, kp, up, lams)
    assert g.tobytes() == g_ref.tobytes()
    assert h.tobytes() == h_ref.tobytes()
    assert sorted(spec.tables) == sorted({(c.p, c.q, j) for j in points.tolist()})
    terms = criteria._deriv_terms(c, kp, lams)
    for i, j in enumerate(points.tolist()):
        for row, block in zip(spec.tables[(c.p, c.q, j)], terms):
            assert np.asarray(row).tobytes() == block[i].tobytes(), (i, j)


@pytest.mark.parametrize("name", REFINE_CRITERIA)
def test_block_refines_in_two_derivative_sweeps(monkeypatch, spectra, truths, name):
    # The winner's and the neighbour's derivatives come from the window
    # rows, and the quadratic start leaves the Newton solve two sweeps of
    # the block's rows: a typical 64-row block at n = 241 evaluates
    # _log_derivs on 2 x 64 rows, where the strict refinement took about
    # 5 x 64.  A row that has not converged after two steps takes a third.
    c = ss.criterion_by_name(name)
    spec = spectra[241]
    rows = []

    def spy(c, kp, up, lam, real=criteria._log_derivs):
        rows.append(len(up))
        return real(c, kp, up, lam)

    monkeypatch.setattr(criteria, "_log_derivs", spy)
    per_block = []
    for start in range(0, 16 * BLOCK_ROWS, BLOCK_ROWS):
        rows.clear()
        select_block(c, spec, truths[241].g + replicate_block(1, 241, start, start + BLOCK_ROWS))
        per_block.append(sum(rows))
    assert np.median(per_block) <= 2 * BLOCK_ROWS
    assert max(per_block) <= 2.5 * BLOCK_ROWS


def test_window_memo_holds_one_row_pair_per_point_touched(monkeypatch, spectra, truths):
    # After decompose's 2000 ee replicates at n = 961, the spectrum keeps
    # the ee value table and one (s, e) pair of penalized length, in arrays
    # of its own, for each window point whose derivatives were asked for:
    # never a view into a larger array, never a whole-window table.
    spec = _fresh(spectra[961])
    m = spec.n - spec.null_dim
    touched = set()

    def spy(c, spec, points, up, real=criteria._window_derivs):
        touched.update((c.p, c.q, j) for j in points.tolist())
        return real(c, spec, points, up)

    monkeypatch.setattr(criteria, "_window_derivs", spy)
    ss.decomposition_mc(ss.EE, spec, truths[961], 2000, 0)
    rows = {key: terms for key, terms in spec.tables.items() if len(key) == 3}
    assert set(rows) == touched
    assert len(rows) < len(spec.window) // 4
    for s, e, s0, c0 in rows.values():
        for a in (s, e):
            assert a.shape == (m,) and a.base is None
        assert np.ndim(s0) == np.ndim(c0) == 0
    assert [key for key in spec.tables if len(key) == 2] == [(ss.EE.p, ss.EE.q)]


def test_slope_sign_law_is_the_selection_cdf(spectra, truths):
    # Where a row's criterion has one minimum, lam_hat <= lam exactly when
    # the log-lam slope d1(lam) >= 0.  For q = 1, d1 = (p/q)[sum s z^2 - s0]
    # with z = g + eps, so P(d1 >= 0) is one Imhof integral.  gml at n = 241
    # has almost no multimodal draws on the demo curve, and over 20,000
    # draws the empirical CDF of lam_hat lies within 4 SE of that law at its
    # 5, 25, 50, 75 and 95 % quantiles (measured: -1.13 to -0.13 SE).
    c, n, replicates = ss.GML, 241, 20000
    spec, g = spectra[n], truths[n].g
    lam_hat = np.concatenate([select_block(c, spec, z).lam_hat
                              for _, z in spectral_blocks(11, n, replicates, g)])
    nd = spec.null_dim
    for level in (0.05, 0.25, 0.5, 0.75, 0.95):
        lam = float(np.quantile(lam_hat, level))
        s, _, s0, _ = criteria._deriv_terms(c, spec.k[nd:], lam)
        law = 1.0 - imhof_lower_tail(s, g[nd:], float(s0))[0]
        se = math.sqrt(law * (1.0 - law) / replicates)
        assert abs(np.mean(lam_hat <= lam) - law) <= 4.0 * se, level
