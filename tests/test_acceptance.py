"""Acceptance gate: eight end-to-end checks, one printed verdict line each.

Every check prints "ACCEPTANCE k: PASS|FAIL - detail" before asserting, so
the verdict is visible in captured output either way (run with -s to see the
PASS lines too).  Reference constants are fixed reproduction targets with
their tolerances stated inline; Monte Carlo checks use fixed seeds declared
here and nowhere else.  Checks whose gates the implementation genuinely
cannot reach are asserted exactly as stated and left failing rather than
loosened.
"""

import math
import time

import numpy as np
import pytest

import splinesel as ss

# Campaigns once read a process-pool size from this variable; acceptance 8
# checks that a leftover setting cannot change runs.csv.
WORKERS_ENV_VAR = "SPLINESEL_WORKERS"

STANDARD_NS = (61, 121, 241, 481, 961)

CRITERIA = (("cp", ss.CP), ("gml", ss.GML), ("ee", ss.EE))

DESIGN = {"kind": "equispaced", "lo": -1.0, "hi": 1.0}


def verdict(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


@pytest.fixture(scope="module")
def lam0s(spectra, truths):
    """Ideal smoothing parameters for the standard designs, computed once."""
    return {n: ss.ideal_lambda(spectra[n], truths[n]) for n in spectra}


# 1. Deterministic curvature reference grid --------------------------------

CURVATURE_REFERENCE = {
    61: (0.71, 0.08, 0.29),
    121: (0.63, 0.07, 0.26),
    241: (0.57, 0.06, 0.23),
}


def test_acceptance_1_curvature_reference():
    t0 = time.perf_counter()
    worst = 0.0
    for n, refs in CURVATURE_REFERENCE.items():
        grid = ss.build_design("equispaced", n, lo=-1.0, hi=1.0)
        spec = ss.decompose(grid)
        truth = ss.make_truth(spec, ss.truth_curve("paper-fig3", grid), 1.0)
        lam0 = ss.ideal_lambda(spec, truth).lam
        for (_, c), ref in zip(CRITERIA, refs):
            dev = abs(ss.curvature_sq(c, spec, lam0) - ref) / ref
            worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.10 and elapsed < 60.0
    line = verdict(1, ok, f"squared-curvature grid at n=61/121/241, max rel dev "
                          f"{worst:.2%} (tol 10%), {elapsed:.1f}s (target <60s)")
    assert ok, line


# 2. Monte Carlo squared-error reference moments ---------------------------

SQERR_MEAN_REFERENCE = (6.22, 5.90, 5.89)  # n=61, (cp, gml, ee), tol 8%
SQERR_SD_REFERENCE = (4.81, 4.03, 4.04)    # n=61, (cp, gml, ee), tol 12%


def test_acceptance_2_sqerr_reference(tmp_path):
    cfg = ss.SimConfig(design=DESIGN, n_list=[61, 121, 241], replicates=1000,
                       seed=2024, criteria=["cp", "gml", "ee"],
                       truth="paper-fig3", sigma=1.0, output_dir=str(tmp_path))
    records = list(ss.run_simulation(cfg))
    mean = {}
    sd = {}
    for n in cfg.n_list:
        for name, _ in CRITERIA:
            vals = np.array([r.sqerr for r in records
                             if r.n == n and r.criterion == name])
            mean[n, name] = float(vals.mean())
            sd[n, name] = float(vals.std(ddof=1))

    mean_dev = max(abs(mean[61, name] - ref) / ref
                   for (name, _), ref in zip(CRITERIA, SQERR_MEAN_REFERENCE))
    sd_dev = max(abs(sd[61, name] - ref) / ref
                 for (name, _), ref in zip(CRITERIA, SQERR_SD_REFERENCE))
    spread = all(sd[n, "cp"] > sd[n, "gml"] and sd[n, "cp"] > sd[n, "ee"]
                 for n in cfg.n_list)
    ok = mean_dev <= 0.08 and sd_dev <= 0.12 and spread
    line = verdict(2, ok, f"1000-replicate sqerr moments at n=61: mean dev "
                          f"{mean_dev:.2%} (tol 8%), sd dev {sd_dev:.2%} "
                          f"(tol 12%), cp-sd largest at every n: {spread}")
    assert ok, line


# 3. Unbiased-risk criterion centers on the ideal parameter ----------------

SMOOTH_TRUTHS = ("paper-fig3", "cos(pi*x)*exp(x/2)", "sin(3*x) + 0.5*cos(7*x)")


def test_acceptance_3_risk_center_identity():
    worst = 0.0
    interior = True
    for expr in SMOOTH_TRUTHS:
        for n in (61, 241):
            grid = ss.build_design("equispaced", n, lo=-1.0, hi=1.0)
            spec = ss.decompose(grid)
            truth = ss.make_truth(spec, ss.truth_curve(expr, grid), 1.0)
            p0 = ss.ideal_lambda(spec, truth)
            pc = ss.central_lambda(ss.CP, spec, truth)
            worst = max(worst, abs(pc.lam - p0.lam) / p0.lam)
            interior &= 2.5 < p0.df < n / 2.0
    ok = worst <= 1e-6 and interior
    line = verdict(3, ok, f"cp central vs ideal on 3 smooth truths at "
                          f"n=61/241: max rel gap {worst:.2e} (tol 1e-6), "
                          f"all interior: {interior}")
    assert ok, line


# 4. Bias term comes to dominate the variability term ----------------------


def test_acceptance_4_bias_dominance(spectra, truths, lam0s):
    ns = (61, 241, 961)
    ratios = {}
    for name, c in (("gml", ss.GML), ("ee", ss.EE)):
        reports = [ss.decomposition_mc(c, spectra[n], truths[n], 2000, 0)
                   for n in ns]
        ratios[name] = [r.bias_term / r.variability_term for r in reports]
    monotone = all(a < b for seq in ratios.values()
                   for a, b in zip(seq, seq[1:]))

    cp_ok = True
    worst_cp = 0.0
    for n in ns:
        rep = ss.decomposition_mc(ss.CP, spectra[n], truths[n], 2000, 0)
        risk0 = ss.risk(spectra[n], truths[n], lam0s[n].lam)
        worst_cp = max(worst_cp, rep.bias_term / risk0)
        cp_ok &= rep.bias_term <= 1e-6 * risk0
    ok = monotone and cp_ok
    line = verdict(4, ok, "2000-replicate bias/variability ratios over "
                          "n=61/241/961: gml %s, ee %s (monotone: %s); "
                          "cp bias/risk0 max %.1e (tol 1e-6)" % (
                              "/".join(f"{v:.3f}" for v in ratios["gml"]),
                              "/".join(f"{v:.3f}" for v in ratios["ee"]),
                              monotone, worst_cp))
    assert ok, line


# 5. Spectral-sum asymptotics validator ------------------------------------


def test_acceptance_5_spectral_sum_asymptotics(spec_unit961):
    n = spec_unit961.n
    sweep = (1e2, 1e3, 1e4, 1e5)
    details = []
    all_ok = True
    for r, s in ((1.0, 0.0), (2.0, 0.0), (3.0, 1.0)):
        rels = []
        for ratio in sweep:
            lam = n / ratio
            w = ss.weights(spec_unit961, lam)
            direct = float(np.sum(w.a ** r * w.b ** s))
            rels.append(abs(ss.asym_sum(r, s, n, lam) - direct) / direct)
        decreasing = all(b < a for a, b in zip(rels, rels[1:]))
        endpoint = rels[-1] <= 0.05
        all_ok &= decreasing and endpoint
        details.append(f"({r:g},{s:g}) end {rels[-1]:.2%} "
                       f"decreasing={decreasing}")
    line = verdict(5, all_ok, "closed-form vs direct spectral sums at n=961, "
                              "n/lam=1e2..1e5 (tol: strict decrease, "
                              "endpoint <=5%): " + "; ".join(details))
    assert all_ok, line


# 6. Growth-rate probes ----------------------------------------------------


def test_acceptance_6_rate_slopes(spectra, truths, lam0s, cache_dir):
    df_slopes = {}
    for name, c in CRITERIA:
        (probe,) = ss.rate_probes([c], DESIGN, list(STANDARD_NS),
                                  lambda grid: ss.truth_curve("paper-fig3", grid),
                                  sigma=1.0, cache_dir=cache_dir)
        df_slopes[name] = probe.slope_df

    logn = np.log([n for n in STANDARD_NS])
    curv_slopes = {}
    for name, c in CRITERIA:
        logc = np.log([ss.curvature_sq(c, spectra[n], lam0s[n].lam)
                       for n in STANDARD_NS])
        curv_slopes[name] = float(np.polyfit(logn, logc, 1)[0])

    df_ok = all(abs(v - 0.20) <= 0.05 for v in df_slopes.values())
    curv_ok = all(abs(v + 0.20) <= 0.07 for v in curv_slopes.values())
    ok = df_ok and curv_ok
    line = verdict(6, ok, "slopes over n=61..961: central-df %s (tol 0.20"
                          "+/-0.05), curvature %s (tol -0.20+/-0.07)" % (
                              "/".join(f"{name}={v:.3f}" for name, v in df_slopes.items()),
                              "/".join(f"{name}={v:.3f}" for name, v in curv_slopes.items())))
    assert ok, line


# 7. Reversal probabilities: ordering and decay ----------------------------


def test_acceptance_7_reversal_probabilities(spectra, truths, lam0s):
    ns = (61, 241, 961)
    probs = {}
    t_negative = True
    for name, c in CRITERIA:
        row = []
        for n in ns:
            (rs,) = ss.reversal_moments([c], spectra[n], truths[n], lam0s[n].lam)
            ((prob, _),) = ss.reversal_probs_mc([c], spectra[n], truths[n],
                                                lam0s[n].lam, 10000, 0)
            t_negative &= rs.T_n < 0.0
            row.append(prob)
        probs[name] = row
    ordered = probs["cp"][0] > probs["ee"][0] > probs["gml"][0]
    decaying = all(seq[0] > seq[1] > seq[2] for seq in probs.values())
    ok = ordered and decaying and t_negative
    line = verdict(7, ok, "10000-draw reversal probabilities at n=61/241/961: "
                          + "; ".join(f"{name} " + "/".join(f"{p:.4f}" for p in probs[name])
                                      for name, _ in CRITERIA)
                          + f"; cp>ee>gml at 61: {ordered}, decaying: {decaying}, "
                            f"T_n<0 everywhere: {t_negative}")
    assert ok, line


# 8. Property suite rollup -------------------------------------------------


def test_acceptance_8_property_suite(spec61, truth61, window61, tmp_path,
                                     monkeypatch):
    checks = {}

    # closed-form moment identities at unit power ratio
    moment_ok = abs(ss.c_q(1.0) - 1.0) <= 1e-12
    for g in (0.0, 0.7, 2.5):
        exact = 1.0 + g * g
        moment_ok &= abs(ss.abs_moment(g, 1.0) - exact) <= 1e-10 * exact
    checks["moment identities"] = moment_ok

    # analytic criterion derivatives against finite differences
    rng = np.random.default_rng(42)
    z = truth61.g + rng.standard_normal(spec61.n)
    fd_ok = True
    for _, c in CRITERIA:
        u = np.abs(z) ** (2.0 / c.q)
        for lam in (0.005, 0.02, 0.1):
            d1, d2 = ss.loss_derivs(c, spec61, lam, u)
            h = 1e-5 * lam
            fd1 = (ss.loss(c, ss.weights(spec61, lam + h), u)
                   - ss.loss(c, ss.weights(spec61, lam - h), u)) / (2.0 * h)
            # wider step for the second difference: at h the quotient sits
            # on the roundoff floor eps|l|/h^2
            h2 = 1e-3 * lam
            lm, l0, lp = (ss.loss(c, ss.weights(spec61, lam + d), u)
                          for d in (-h2, 0.0, h2))
            fd2 = (lm - 2.0 * l0 + lp) / (h2 * h2)
            fd_ok &= abs(d1 - fd1) <= 1e-6 * abs(fd1)
            fd_ok &= abs(d2 - fd2) <= 1e-4 * abs(fd2)
    checks["derivatives vs finite differences"] = fd_ok

    # curvature via the direct route and the Gram-matrix route
    curv_ok = True
    for _, c in CRITERIA:
        for lam in (0.01, 0.1, 1.0):
            g1 = ss.curvature_sq(c, spec61, lam)
            g2 = ss.curvature_via_matrix(c, spec61, lam)
            curv_ok &= abs(g1 - g2) <= 1e-8 * abs(g1)
    checks["curvature two-route"] = curv_ok

    # spectrum invariants: orthogonality and penalty reconstruction
    gram = spec61.U.T @ spec61.U - np.eye(spec61.n)
    K = ss.penalty_matrix(ss.build_design("equispaced", 61, lo=-1.0, hi=1.0))
    recon = spec61.U @ np.diag(spec61.k) @ spec61.U.T - K
    checks["spectrum invariants"] = (
        float(np.abs(gram).max()) <= 1e-8
        and float(np.abs(recon).max()) <= 1e-6 * float(spec61.k.max()))

    # brute-force grid oracles for the selected and ideal parameters
    grid = np.exp(np.linspace(math.log(window61.lambdas[0]),
                              math.log(window61.lambdas[-1]), 4001))
    step = math.log(grid[1]) - math.log(grid[0])
    brute_ok = True
    for _, c in CRITERIA:
        picked = ss.select(c, spec61, z, window=window61)
        u = np.abs(z) ** (2.0 / c.q)
        vals = np.array([ss.loss(c, ss.weights(spec61, lam), u) for lam in grid])
        best = int(np.argmin(vals))
        brute_ok &= abs(math.log(picked.lam_hat) - math.log(grid[best])) <= step
        brute_ok &= picked.loss <= vals[best] + 1e-10 * abs(vals[best])
    risks = np.array([ss.risk(spec61, truth61, lam) for lam in grid])
    best = int(np.argmin(risks))
    p0 = ss.ideal_lambda(spec61, truth61, window=window61)
    brute_ok &= abs(math.log(p0.lam) - math.log(grid[best])) <= step
    brute_ok &= ss.risk(spec61, truth61, p0.lam) <= risks[best] + 1e-12 * risks[best]
    checks["brute-force oracles"] = brute_ok

    # worker-count determinism, byte for byte
    cfg = ss.SimConfig(design=DESIGN, n_list=[31], replicates=6, seed=7,
                       criteria=["cp", "gml", "ee"], truth="paper-fig3",
                       sigma=1.0, output_dir=str(tmp_path / "sim"))
    monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
    import splinesel.simlab as simlab
    a = tmp_path / "a.csv"
    simlab.write_runs_csv(ss.run_simulation(cfg), a)
    monkeypatch.setenv(WORKERS_ENV_VAR, "3")
    b = tmp_path / "b.csv"
    simlab.write_runs_csv(ss.run_simulation(cfg), b)
    checks["worker determinism"] = a.read_bytes() == b.read_bytes()

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    line = verdict(8, ok, f"{len(checks)} property groups"
                          + (f"; failing: {failed}" if failed else " all hold"))
    assert ok, line
