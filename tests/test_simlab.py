"""Simulation lab: configs, truth curves, campaign runs, tables, and the CLI."""

from dataclasses import astuple
import csv
import io
import json
import logging
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from splinesel import geometry, oracle, simlab, specfun, spectrum
from splinesel.cli import cli
from splinesel._rng import replicate_block
from splinesel.criteria import _select_rows, criterion_by_name, sigma_estimate
from splinesel.errors import ConfigError, NumericError
from splinesel.simlab import (
    RUNS_COLUMNS,
    RunRecord,
    SimConfig,
    emit_tables,
    parse_sigma_mode,
    read_runs_csv,
    run_simulation,
    spectra_cache_dir,
    truth_curve,
    write_runs_csv,
)
from splinesel.spectrum import (BLOCK_ROWS, _shrink, build_design, cache_key, cached_decompose,
                                load_spectrum)

from fresh import SRC, run_fresh
from test_spectrum import _cache_fields


def base_config(out_dir, **overrides):
    fields = dict(
        design={"kind": "equispaced", "lo": -1.0, "hi": 1.0},
        n_list=[61],
        replicates=10,
        seed=2024,
        criteria=["cp", "gml", "ee"],
        truth="paper-fig3",
        sigma=1.0,
        output_dir=str(out_dir),
    )
    fields.update(overrides)
    return SimConfig(**fields)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """One finished 10-replicate campaign at n=61, shared across tests."""
    out = tmp_path_factory.mktemp("campaign")
    cfg = base_config(out)
    records = list(run_simulation(cfg))
    return cfg, records


# --- truth curves -----------------------------------------------------------


def test_builtin_curve_values():
    grid = build_design("explicit", points=np.array([-1.0, -0.5, 0.0, 0.5, 1.0]))
    f = truth_curve("paper-fig3", grid)
    # sin(pi(x+1))/(x/2+1) at the five anchors: 0, 4/3, 0, -0.8, 0.
    assert f[0] == 0.0
    assert f[1] == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert abs(f[2]) < 1e-15
    assert f[3] == pytest.approx(-0.8, rel=1e-15)
    assert abs(f[4]) < 1e-15


def test_zero_and_linear_curves():
    grid = build_design("equispaced", 11, lo=-1.0, hi=1.0)
    assert np.all(truth_curve("zero", grid) == 0.0)
    f = truth_curve("linear( 2 , -0.5 )", grid)
    assert np.allclose(f, 2.0 - 0.5 * grid.x, rtol=0, atol=0)


def test_expression_curves():
    grid = build_design("equispaced", 17, lo=-1.0, hi=1.0)
    x = grid.x
    f = truth_curve("sin(pi*x)**2 + 1", grid)
    assert np.allclose(f, np.sin(np.pi * x) ** 2 + 1.0, rtol=1e-15)
    f = truth_curve("exp(-x**2) - cos(x)/e", grid)
    assert np.allclose(f, np.exp(-x**2) - np.cos(x) / np.e, rtol=1e-14)


@pytest.mark.parametrize("bad", [
    "linear(two, 3)",
    "import os",
    "__import__('os').getcwd()",
    "y + 1",
    "3.0",                     # scalar, not a vector over the grid
])
def test_bad_curves_rejected(bad):
    grid = build_design("equispaced", 9, lo=-1.0, hi=1.0)
    with pytest.raises(ConfigError):
        truth_curve(bad, grid)


def test_expression_matches_python_eval():
    # The whitelist evaluator computes exactly what Python's eval of the
    # same text does over the same names.
    grid = build_design("equispaced", 33, lo=-1.0, hi=1.0)
    text = "sin(pi*x) + 0.5*x**2 - exp(-abs(x))"
    names = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
             "log": np.log, "sqrt": np.sqrt, "abs": np.abs, "pi": np.pi, "e": np.e,
             "x": grid.x}
    expected = eval(text, {"__builtins__": {}}, names)
    assert np.array_equal(truth_curve(text, grid), expected)
    for text in ("-x % 0.3 + x // 0.25", "+x / e - 2**-3 * cos(tan(x))"):
        assert np.array_equal(truth_curve(text, grid),
                              eval(text, {"__builtins__": {}}, names))


@pytest.mark.parametrize("bad", [
    "x.__class__",
    "().__class__.__bases__[0]",
    "__import__('os')",
])
def test_cli_rejects_unsafe_truth_expressions(bad, tmp_path, capsys):
    code = cli(["curvature", "--n", "11", "--criteria", "gml", "--truth", bad,
                "--cache-dir", str(tmp_path / "spectra"),
                "--out", str(tmp_path / "t1.csv")])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


@pytest.mark.parametrize("bad", [
    "np.sin(x)", "sin(x, x)", "sin(x=x)", "[x][0]", "x if x else x",
    "lambda: x", "'x'", "9**9**9", "(x > 0) * x",
])
def test_truth_expressions_outside_whitelist_rejected(bad):
    grid = build_design("equispaced", 9, lo=-1.0, hi=1.0)
    x_before = grid.x.copy()
    with pytest.raises(ConfigError):
        truth_curve(bad, grid)
    assert np.array_equal(grid.x, x_before)


def test_nonfinite_curve_rejected():
    grid = build_design("equispaced", 9, lo=-1.0, hi=1.0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ConfigError, match="finite"):
            truth_curve("sqrt(x)", grid)


@pytest.mark.parametrize("config, argv", [
    # A built-in curve with a non-finite parameter.
    ({"truth": "linear(nan,1)"}, ["simulate", "--config", "sim.json"]),
    # paper-fig3 divides by x/2 + 1, which is zero at x = -2.
    (None, ["curvature", "--n", "61", "--design",
            '{"kind": "equispaced", "lo": -2, "hi": 1}']),
    # log of the negative half of the design.
    (None, ["rates", "--n", "61,121,241,481", "--criteria", "cp", "--truth", "log(x)"]),
])
def test_cli_nonfinite_truth_is_one_config_error(tmp_path, config, argv):
    # Every truth goes through the one finiteness check, before any spectrum
    # is built, and numpy's warnings do not reach stderr ahead of the error.
    import splinesel

    if config is not None:
        cfg = base_config(tmp_path / "out", **config)
        (tmp_path / "sim.json").write_text(json.dumps(vars(cfg)))
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(splinesel.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "splinesel"] + argv, capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    err = json.loads(lines[0])
    assert err["error"] == "config"
    assert "finite" in err["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == (["sim.json"] if config else [])


# --- config parsing ---------------------------------------------------------


def test_config_json_round_trip(tmp_path):
    cfg = base_config(tmp_path, sigma_mode="estimated:24")
    assert SimConfig.from_json(cfg.to_json()) == cfg


def test_config_defaults():
    payload = dict(design={"kind": "equispaced", "lo": 0.0, "hi": 1.0},
                   n_list=[31], replicates=2, seed=7,
                   criteria=["gml"], truth="zero", sigma=0.5)
    cfg = SimConfig.from_json(json.dumps(payload))
    assert cfg.sigma_mode == "known"
    assert cfg.output_dir == "out"


@pytest.mark.parametrize("text,fragment", [
    ("{not json", "not valid JSON"),
    ("[1, 2]", "JSON object"),
])
def test_config_malformed_json(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        SimConfig.from_json(text)


def test_config_unknown_and_missing_fields():
    payload = dict(design={"kind": "equispaced", "lo": 0.0, "hi": 1.0},
                   n_list=[31], replicates=2, seed=7,
                   criteria=["gml"], truth="zero", sigma=0.5)
    with pytest.raises(ConfigError, match="unknown config fields.*bogus"):
        SimConfig.from_json(json.dumps({**payload, "bogus": 1}))
    short = {k: v for k, v in payload.items() if k not in ("sigma", "truth")}
    with pytest.raises(ConfigError, match="missing config fields"):
        SimConfig.from_json(json.dumps(short))


@pytest.mark.parametrize("overrides,fragment", [
    (dict(n_list=[]), "n_list"),
    (dict(replicates=0), "replicates"),
    (dict(sigma=0.0), "sigma must be positive"),
    (dict(criteria=[]), "criteria"),
    (dict(design={"lo": 0.0}), "kind"),
    (dict(criteria=["bogus"]), "bogus"),
    (dict(sigma_mode="sometimes"), "sigma_mode"),
    (dict(n_list=[3, 31]), "integers >= 4"),
    (dict(n_list=[31, 61, 31]), "distinct"),
    (dict(design={"kind": "explicit", "points": list(range(50))}, n_list=[50, 61]),
     "explicit design has 50 points, so n must be 50, got n=61"),
    (dict(design={"kind": "equispaced", "lo": 1, "hi": -1}), "hi > lo"),
    (dict(design={"kind": "quantile", "dist": "gamma(1,2)"}), "unknown distribution"),
    (dict(design={"kind": "explicit", "points": [0.0, 1.0, 1.0, 2.0, 3.0]}, n_list=[5]),
     "strictly increasing"),
    (dict(design={"kind": "explicit", "points": [0.0, 1.0, 2.0, 3.0, math.inf]}, n_list=[5]),
     "must be finite"),
    (dict(truth="foo(x)"), "foo"),
    (dict(truth="log(x)"), r"truth curve .log\(x\)."),
    (dict(criteria=["cp", "gml", "CP"]), "each criterion once"),
])
def test_config_validation_errors(tmp_path, overrides, fragment):
    cfg = base_config(tmp_path, **overrides)
    with pytest.raises(ConfigError, match=fragment):
        cfg.validate()


def test_sigma_mode_forms():
    assert parse_sigma_mode("known", 100) == (False, 0, None)
    assert parse_sigma_mode("estimated", 300) == (True, 30, None)
    assert parse_sigma_mode("estimated", 61) == (True, 20, None)
    assert parse_sigma_mode("estimated:12", 61) == (True, 12, None)
    with pytest.raises(ConfigError):
        parse_sigma_mode("estimated:x", 61)


def test_sigma_mode_known_value_form():
    # The select command's --sigma names its known value; a config's
    # sigma_mode takes sigma from the config and has no such form.
    assert parse_sigma_mode("known:0.25", 61, known_value=True) == (False, 0, 0.25)
    assert parse_sigma_mode("estimated:12", 61, known_value=True) == (True, 12, None)
    with pytest.raises(ConfigError, match="needs a value"):
        parse_sigma_mode("known", 61, known_value=True)
    with pytest.raises(ConfigError, match=r"bad --sigma 'known:abc'"):
        parse_sigma_mode("known:abc", 61, known_value=True)
    with pytest.raises(ConfigError, match="sigma must be positive"):
        parse_sigma_mode("known:-1", 61, known_value=True)
    with pytest.raises(ConfigError, match=r"\(known \| estimated \| estimated:M\)"):
        parse_sigma_mode("known:0.25", 61)


@pytest.mark.parametrize("mode,n", [
    ("estimated:4", 61), ("estimated:57", 61), ("estimated:0", 61),
    ("estimated", 24), ("estimated:20", 24),
])
def test_sigma_mode_tail_range(mode, n):
    with pytest.raises(ConfigError, match="5 <= M <= n - 5"):
        parse_sigma_mode(mode, n)


def test_sigma_mode_checked_at_every_n(tmp_path):
    assert base_config(tmp_path, n_list=[61, 25], sigma_mode="estimated").validate()
    with pytest.raises(ConfigError, match="n=24"):
        base_config(tmp_path, n_list=[61, 24], sigma_mode="estimated").validate()
    with pytest.raises(ConfigError, match="n=61"):
        base_config(tmp_path, n_list=[121, 61], sigma_mode="estimated:100").validate()


# --- campaign runs ----------------------------------------------------------


def test_campaign_record_layout(campaign):
    cfg, records = campaign
    assert len(records) == 10 * 3
    expected = [(r, name) for r in range(10) for name in cfg.criteria]
    assert [(rec.replicate, rec.criterion) for rec in records] == expected
    for rec in records:
        assert rec.n == 61
        assert math.isfinite(rec.lambda_hat) and rec.lambda_hat > 0
        assert 2.0 < rec.df_hat < 61.0
        assert rec.sqerr >= 0.0
        assert rec.sqerr_response == rec.sqerr  # sigma = 1
        assert rec.at_boundary in ("none", "low-lambda", "high-lambda")
    assert any(rec.at_boundary == "none" for rec in records)


def test_campaign_populates_spectra_cache(campaign):
    cfg, _ = campaign
    cache = spectra_cache_dir(cfg)
    assert cache.is_dir()
    assert list(cache.glob("*.npz"))


def test_campaign_identical_data_across_criteria(campaign):
    # Every criterion sees the same replicate, so a sharper lambda_hat can
    # only come from the criterion itself; replicate draws must differ.
    _, records = campaign
    lams = {}
    for rec in records:
        lams.setdefault(rec.replicate, set()).add(rec.lambda_hat)
    per_rep = [rec.lambda_hat for rec in records if rec.criterion == "gml"]
    assert len(set(per_rep)) == len(per_rep)


@pytest.mark.parametrize("sigma_mode", ["known", "estimated"])
def test_campaign_picks_are_select_rows_picks(tmp_path, sigma_mode):
    # Replicate r's spectral data is z = g + eps_r, eps_r its replicate_block
    # row.  The lab forms |z|^(2/q) once per q for all its criteria; every
    # pick has the bits _select_rows gives |Z|^(2/q) for Z = z (known sigma)
    # or z / sqrt(sigma_estimate(z, M)) (estimated), and sqerr is
    # ||a z - g||^2.
    cfg = base_config(tmp_path, replicates=BLOCK_ROWS + 6, sigma=0.7, sigma_mode=sigma_mode,
                      criteria=["cp", "gml", "ee", "p1.2q2"])
    records = list(run_simulation(cfg))
    spec, truth = oracle.setting(cfg.design, 61, cfg.truth, cfg.sigma, spectra_cache_dir(cfg))
    estimated, M, _ = parse_sigma_mode(sigma_mode, 61)
    for lo in range(0, cfg.replicates, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, cfg.replicates)
        z = truth.g + replicate_block(cfg.seed, 61, lo, hi)
        Z = z / np.sqrt(sigma_estimate(z, M))[:, None] if estimated else z
        for ci, name in enumerate(cfg.criteria):
            c = criterion_by_name(name)
            lam_hat, _, flags = _select_rows(c, spec, np.abs(Z) ** (2.0 / c.q))
            sqerr = ((_shrink(spec.k, lam_hat)[0] * z - truth.g) ** 2).sum(axis=1)
            got = records[lo * 4 + ci:hi * 4:4]
            assert [r.lambda_hat for r in got] == lam_hat.tolist()
            assert [r.at_boundary for r in got] == list(flags)
            assert [r.sqerr for r in got] == sqerr.tolist()
            assert [r.sqerr_response for r in got] == (0.7 * 0.7 * sqerr).tolist()


@pytest.mark.parametrize("sigma_mode", ["known", "estimated"])
def test_runs_csv_identical_across_worker_counts(tmp_path, sigma_mode):
    # Two whole blocks and a partial one, written in (replicate, criterion)
    # order across the block seams.
    cfg = base_config(tmp_path / "w", n_list=[31], replicates=2 * BLOCK_ROWS + 37,
                      seed=77, sigma_mode=sigma_mode)
    path = tmp_path / "runs.csv"
    assert write_runs_csv(run_simulation(cfg), path) == 3 * cfg.replicates
    assert [(rec.replicate, rec.criterion) for rec in read_runs_csv(path)] == [
        (r, name) for r in range(cfg.replicates) for name in cfg.criteria]


def test_runs_csv_identical_fresh_or_cached(tmp_path):
    # A cold campaign writes every spectrum to the cache before its first
    # record and selects from what it reads back, so it writes the bytes of
    # a warm one.
    cfg = base_config(tmp_path / "w", n_list=[61, 241], replicates=BLOCK_ROWS + 6, seed=5)
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    write_runs_csv(run_simulation(cfg), cold)
    write_runs_csv(run_simulation(cfg), warm)
    assert cold.read_bytes() == warm.read_bytes()


def _simulate_at_threads(tmp_path, out_name: str, threads: int) -> subprocess.CompletedProcess:
    """simulate at n = 241 in a fresh process with BLAS on `threads` threads,
    writing to tmp_path/out_name (its spectrum cache included)."""
    import splinesel

    cfg = tmp_path / f"{out_name}.json"
    cfg.write_text(base_config(tmp_path / out_name, n_list=[241], replicates=BLOCK_ROWS,
                               seed=7).to_json())
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(splinesel.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    proc = subprocess.run([sys.executable, "-m", "splinesel", "simulate", "--config", str(cfg)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_cache_from_another_blas_thread_count_is_rebuilt(tmp_path):
    # A spectrum's bits depend on the BLAS thread count.  A cache written at
    # 2 threads is stale at 1, so a warm 1-thread run rebuilds it and writes
    # the bytes of a cold 1-thread run.
    _simulate_at_threads(tmp_path, "shared", 2)
    warm = _simulate_at_threads(tmp_path, "shared", 1)
    _simulate_at_threads(tmp_path, "cold", 1)
    runs = [(tmp_path / name / "runs.csv").read_bytes() for name in ("shared", "cold")]
    assert runs[0] == runs[1]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert ("stale spectrum cache" in warm.stderr) == (cpus > 1)


def test_collapsed_sigma_estimate_gives_error_records(tmp_path, monkeypatch, caplog):
    # Replicates whose noise-scale estimate is zero or not finite leave
    # their block; the rest of the block is selected as usual.
    cfg = base_config(tmp_path, n_list=[31], replicates=BLOCK_ROWS + 6, seed=8,
                      sigma_mode="estimated")
    clean = list(run_simulation(cfg))
    collapsed = {1: 0.0, BLOCK_ROWS + 2: math.inf}
    starts = iter(range(0, cfg.replicates, BLOCK_ROWS))
    real = simlab.sigma_estimate

    def collapse(coeffs, M):
        # One call per block: replace the estimates of the collapsed replicates.
        s2 = real(coeffs, M)
        start = next(starts)
        for r, value in collapsed.items():
            if start <= r < start + len(s2):
                s2[r - start] = value
        return s2

    monkeypatch.setattr(simlab, "sigma_estimate", collapse)
    with caplog.at_level(logging.WARNING, logger="splinesel"):
        records = list(run_simulation(cfg))
    assert [(r.replicate, r.criterion) for r in records] == [
        (r.replicate, r.criterion) for r in clean]
    for rec, ref in zip(records, clean):
        if rec.replicate in collapsed:
            assert rec.at_boundary == "error" and math.isnan(rec.lambda_hat)
        else:
            assert rec.at_boundary == ref.at_boundary
            assert rec.lambda_hat == pytest.approx(ref.lambda_hat, rel=1e-12)
    assert sum("noise-scale estimate is zero or not finite" in msg
               for msg in caplog.messages) == 2 * 3


def test_run_simulation_builds_one_window_per_n(tmp_path, monkeypatch):
    # Every block of an n selects on that n's spectrum, which builds its
    # window on the first block and keeps it for the rest.
    from splinesel import criteria

    built = []
    real = criteria.selection_window

    def counting(spec):
        built.append(spec.n)
        return real(spec)

    monkeypatch.setattr(criteria, "selection_window", counting)
    cfg = base_config(tmp_path, n_list=[31, 41], replicates=2 * BLOCK_ROWS + 3, seed=4)
    assert len(list(run_simulation(cfg))) == 2 * cfg.replicates * len(cfg.criteria)
    assert built == [31, 41]


@pytest.mark.parametrize("route", ["simulate", "curvature", "rates", "reversal"])
def test_one_setting_alive_at_a_time(tmp_path, monkeypatch, route):
    # When a command builds the next n's setting, the previous n's spectrum
    # and truth are already released.  simulate instead builds one setting
    # per n up front, largest n first, each without its basis, and releases
    # each once that n's records are out.
    alive = []
    real = oracle.setting

    def released(ns) -> bool:
        return all(ref() is None for n, refs in alive if n in ns for ref in refs)

    def tracking(*args, **kwargs):
        if route != "simulate":
            held = [n for n, refs in alive if any(ref() is not None for ref in refs)]
            assert held == [], f"setting of n={held} still alive"
        spec, truth = real(*args, **kwargs)
        alive.append((spec.n, (weakref.ref(spec), weakref.ref(truth))))
        return spec, truth

    monkeypatch.setattr(oracle, "setting", tracking)
    ns = [31, 41, 51, 61]
    design = {"kind": "equispaced", "lo": -1.0, "hi": 1.0}
    if route == "simulate":
        order = [41, 61, 31, 51]
        cfg = base_config(tmp_path, n_list=order, replicates=BLOCK_ROWS + 1)
        count = 0
        for rec in run_simulation(cfg):
            assert [n for n, _ in alive] == [61, 51, 41, 31]
            assert released(order[:order.index(rec.n)])
            assert not released([rec.n])
            count += 1
        assert count == 4 * cfg.replicates * len(cfg.criteria)
        assert released(order)
    elif route == "curvature":
        simlab.write_curvature_table(tmp_path / "table1.csv", ["cp", "gml"], design, ns,
                                     "paper-fig3", 1.0, tmp_path / "spectra")
    elif route == "rates":
        oracle.rate_probes([criterion_by_name("cp")], design, ns, "paper-fig3",
                           cache_dir=tmp_path / "spectra")
    else:
        assert cli(["reversal", "--n", "31,41,61", "--criteria", "cp", "--replicates", "1000",
                    "--cache-dir", str(tmp_path / "spectra"),
                    "--out", str(tmp_path / "reversal.csv")]) == 0
    assert len(alive) == {"simulate": 4, "curvature": 4, "rates": 4, "reversal": 3}[route]


_BASIS_COMMANDS = [
    ["spectrum", "--n", "31", "--cache-dir", "spectra"],
    ["simulate", "--config", "sim.json"],
    ["tables", "--config", "sim.json"],
    ["rates", "--n", "31,41,51,61", "--cache-dir", "spectra", "--out", "rates.csv"],
    ["reversal", "--n", "31,61", "--replicates", "1000", "--cache-dir", "spectra",
     "--out", "reversal.csv"],
    ["curvature", "--n", "31,61", "--cache-dir", "spectra", "--out", "curvature.csv"],
    ["decompose", "--n", "61", "--criterion", "ee", "--replicates", "100",
     "--cache-dir", "spectra", "--out", "decomposition.json"],
]


def test_no_command_keeps_the_basis(tmp_path, monkeypatch):
    # Every command's settings drop U once the truth is rotated, on cold
    # misses and warm hits alike: simulate draws its data in spectral
    # coordinates (z = g + eps) and rotates nothing.
    real = oracle.setting
    kept = []

    def recording(*args, **kwargs):
        spec, truth = real(*args, **kwargs)
        kept.append(spec.U is not None)
        return spec, truth

    monkeypatch.setattr(oracle, "setting", recording)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sim.json").write_text(
        base_config("out", n_list=[31, 61], replicates=4, seed=7).to_json())
    for _ in ("cold", "warm"):
        for argv in _BASIS_COMMANDS:
            kept.clear()
            assert cli(argv) == 0
            assert kept and not any(kept), argv[0]


def test_warm_simulate_reads_each_cache_file_once(tmp_path, monkeypatch):
    # A cold run builds every spectrum and reads none back; a warm run reads
    # each n's file once, largest n first, folding U into the truth's
    # rotation as it streams.
    loaded = []
    real = spectrum.load_spectrum

    def counting(path, **kwargs):
        spec = real(path, **kwargs)
        loaded.append((spec.n, spec.U is None))
        return spec

    monkeypatch.setattr(spectrum, "load_spectrum", counting)
    cfg = base_config(tmp_path, n_list=[31, 61, 41], replicates=BLOCK_ROWS + 1)
    cold = list(run_simulation(cfg))
    assert loaded == []
    assert list(run_simulation(cfg)) == cold
    assert loaded == [(61, True), (41, True), (31, True)]


# Prints ru_maxrss (KiB) once the package and numpy.random (the draws'
# generators, about 2 MB of modules a run imports on its first draw) are
# imported, then runs the config in argv[1] and prints whether scipy.linalg
# (a rebuild) was loaded.
_SIMULATE_PEAK = """
import resource, sys
import numpy.random
from splinesel import simlab
cfg = simlab.SimConfig.from_json(open(sys.argv[1]).read())
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
assert len(list(simlab.run_simulation(cfg))) == cfg.replicates * len(cfg.criteria)
print("scipy.linalg" in sys.modules)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
def test_warm_simulate_never_holds_the_basis(tmp_path):
    # U is 8 n^2 bytes (7.4 MB at n = 961).  A warm simulate streams it from
    # the cache into the truth's rotation and draws its data in spectral
    # coordinates, so it never holds U whole.  One replicate is a block of
    # one row, which builds no criterion table, so the rise is the setting
    # and selection's slices: 2.1 MB, where holding U would add 7.4 MB.
    n = 961
    cfg = tmp_path / "sim.json"
    cfg.write_text(base_config(tmp_path / "out", n_list=[n], replicates=1).to_json())
    run_fresh(_SIMULATE_PEAK, str(cfg))  # a cold build fills the cache
    out, peak, _ = run_fresh(_SIMULATE_PEAK, str(cfg))
    before, rebuilt = out.split()
    assert rebuilt == "False"
    assert 1024 * (peak - int(before)) < 8 * n * n / 2


def test_bad_sample_size_aborts_that_n_only(tmp_path, monkeypatch, caplog):
    cfg = base_config(tmp_path, n_list=[25, 31], replicates=2)
    real = oracle.setting

    def failing_at_25(design, n, *args, **kwargs):
        if n == 25:
            raise NumericError("eigendecomposition failed")
        return real(design, n, *args, **kwargs)

    monkeypatch.setattr(oracle, "setting", failing_at_25)
    with caplog.at_level(logging.ERROR, logger="splinesel"):
        records = list(run_simulation(cfg))
    assert {rec.n for rec in records} == {31}
    assert len(records) == 2 * 3
    assert any("aborted" in msg for msg in caplog.messages)


def _record_decompose(monkeypatch, failing_n=None) -> list[int]:
    """Wrap spectrum.decompose to record the n of each call, failing at
    failing_n; returns the list it appends to."""
    calls = []
    real = spectrum.decompose

    def recording(grid):
        calls.append(grid.n)
        if grid.n == failing_n:
            raise NumericError("penalty eigendecomposition failed")
        return real(grid)

    monkeypatch.setattr(spectrum, "decompose", recording)
    return calls


def test_missing_spectra_are_built_once_largest_first(tmp_path, monkeypatch):
    # A cold run builds every spectrum before the first record, largest n
    # first, and selects from what it wrote; a warm run builds nothing.  A
    # file that is unreadable, or stale (from another numeric environment),
    # is rebuilt the same way.
    cfg = base_config(tmp_path, n_list=[61, 241, 121], replicates=2)
    calls = _record_decompose(monkeypatch)

    def builds_then_records():
        records = run_simulation(cfg)
        first = next(records)
        built = list(calls)
        calls.clear()
        return built, [first, *records]

    def path(n):
        grid = build_design("equispaced", n, lo=-1.0, hi=1.0)
        return spectra_cache_dir(cfg) / (cache_key(grid) + ".npz")

    built, cold = builds_then_records()
    assert built == [241, 121, 61]
    assert builds_then_records() == ([], cold)
    for n in (61, 121):
        path(n).write_bytes(b"truncated")
    assert builds_then_records() == ([121, 61], cold)
    for n in (61, 241):
        fields = _cache_fields(load_spectrum(path(n)))
        np.savez(path(n), **{**fields, "environment": np.str_("numpy 0.0; blas none")})
    assert builds_then_records() == ([241, 61], cold)
    assert builds_then_records() == ([], cold)


def test_failed_build_is_tried_once_and_logged_once(tmp_path, monkeypatch, caplog):
    cfg = base_config(tmp_path, n_list=[61, 241, 121], replicates=2)
    calls = _record_decompose(monkeypatch, failing_n=121)
    with caplog.at_level(logging.ERROR, logger="splinesel"):
        records = list(run_simulation(cfg))
    assert calls == [241, 121, 61]
    assert {rec.n for rec in records} == {61, 241}
    assert [msg for msg in caplog.messages if "aborted" in msg] == [
        "n=121 aborted: penalty eigendecomposition failed"]


# Runs a cold campaign of 2 replicates into the output directory argv[1] at
# the comma-separated sample sizes argv[2].
_CAMPAIGN_PEAK = """
import sys
from splinesel import simlab
out, ns = sys.argv[1], [int(n) for n in sys.argv[2].split(",")]
cfg = simlab.SimConfig(design={"kind": "equispaced", "lo": -1.0, "hi": 1.0}, n_list=ns,
                       replicates=2, seed=2024, criteria=["cp", "gml", "ee"],
                       truth="paper-fig3", sigma=1.0, sigma_mode="estimated", output_dir=out)
for _ in simlab.run_simulation(cfg):
    pass
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
def test_cold_campaign_peaks_at_one_build_of_its_largest_n(tmp_path):
    # The n = 1921 build runs first, on a fresh heap, so the smaller n ahead
    # of it in n_list adds nothing to the peak (both about 128.8 MiB), and
    # neither does a cache whose files must all be rebuilt.
    _, alone, _ = run_fresh(_CAMPAIGN_PEAK, str(tmp_path / "alone"), "1921")
    _, both, _ = run_fresh(_CAMPAIGN_PEAK, str(tmp_path / "both"), "961,1921")
    assert both - alone < 1024  # KiB
    cached = sorted((tmp_path / "both" / "spectra").glob("*.npz"))
    assert len(cached) == 2
    for path in cached:
        os.truncate(path, path.stat().st_size // 2)
    _, damaged, _ = run_fresh(_CAMPAIGN_PEAK, str(tmp_path / "both"), "961,1921")
    assert damaged - alone < 1024  # KiB


def test_pure_noise_concentrates_at_smooth_boundary(tmp_path):
    # On pure noise 60-69 % of picks sit at the high-lambda end (20 000
    # replicates per criterion at seeds 7 and 8), so at 256 replicates "at
    # least half" holds with room to spare: 478-516 of 768 at seeds 5150, 1,
    # 2 and 3.
    cfg = base_config(tmp_path, truth="zero", replicates=256, seed=5150)
    records = list(run_simulation(cfg))
    assert len(records) == 256 * 3
    high = sum(rec.at_boundary == "high-lambda" for rec in records)
    assert high >= len(records) // 2
    assert np.median([rec.df_hat for rec in records]) < 4.0


def test_estimated_sigma_mode(tmp_path):
    known = base_config(tmp_path / "k", sigma=2.0, replicates=3, seed=31)
    est = base_config(tmp_path / "e", sigma=2.0, replicates=3, seed=31,
                      sigma_mode="estimated:20")
    rk = list(run_simulation(known))
    re_ = list(run_simulation(est))
    assert len(re_) == len(rk)
    for rec in re_:
        assert math.isfinite(rec.lambda_hat)
        assert rec.sqerr_response == pytest.approx(4.0 * rec.sqerr, rel=1e-15)
    # the plug-in noise scale is close to, but not exactly, the truth
    assert any(a.lambda_hat != b.lambda_hat for a, b in zip(rk, re_))


# --- runs.csv ---------------------------------------------------------------


def test_runs_csv_round_trip(campaign, tmp_path):
    _, records = campaign
    path = tmp_path / "runs.csv"
    assert write_runs_csv(records, path) == len(records)
    header = path.read_text().splitlines()[0]
    assert header.split(",") == RUNS_COLUMNS
    assert read_runs_csv(path) == records


def test_runs_csv_header_mismatch(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError, match="header"):
        read_runs_csv(path)


def test_runs_csv_blank_lines_are_skipped(campaign, tmp_path):
    _, records = campaign
    path = tmp_path / "runs.csv"
    write_runs_csv(records[:3], path)
    path.write_text(path.read_text().replace("\r\n", "\r\n\r\n"))
    assert read_runs_csv(path) == records[:3]


def _csv_module_bytes(header, rows) -> bytes:
    """What csv.writer writes for header and rows, floats at 17 digits."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    return out.getvalue().encode()


def test_csv_writer_has_the_csv_module_bytes(tmp_path):
    # _write_csv formats each row in one step; its bytes are csv.writer's
    # on every kind of field the package writes.
    records = [RunRecord(61, 0, "cp", 0.1, 5.25, 1e-300, -0.0, "none"),
               RunRecord(61, 0, "p1.2q2", math.inf, -math.inf, 2.0 / 3.0, 5e-324, "low-lambda"),
               RunRecord(121, 7, "ee", math.nan, math.nan, math.nan, math.nan, "error"),
               RunRecord(121, 7, "p3q1", np.float64(1e17 / 3.0), 2.0, 1.5e300, -1e-5,
                         "high-lambda")]
    path = tmp_path / "runs.csv"
    assert write_runs_csv(records, path) == len(records)
    assert path.read_bytes() == _csv_module_bytes(RUNS_COLUMNS, map(astuple, records))
    header = ["criterion", "n", "mean_sqerr", "sd_sqerr", "count"]
    rows = [["gml", 61, "", "", 0], ["ee", 241, np.float64(-0.0), 0.25, np.int64(12)],
            ("cp", 61, math.inf, -math.nan, 3)]
    assert simlab._write_csv(path, header, iter(rows)) == 3
    assert path.read_bytes() == _csv_module_bytes(header, rows)
    assert simlab._write_csv(path, header, []) == 0
    assert path.read_bytes() == _csv_module_bytes(header, [])


@pytest.mark.parametrize("row", [["a,b", 1], ['say "x"', 1], ["two\nlines", 1],
                                 ["cr\r", 1], [1, 2, 3]])
def test_csv_writer_refuses_fields_that_need_quoting(tmp_path, row):
    # A refused row fails the write: an earlier file keeps its bytes, and no
    # partial or temporary file is left beside it.
    path = tmp_path / "t.csv"
    path.write_bytes(b"earlier\r\n")
    with pytest.raises(AssertionError, match="fields free of quoting"):
        simlab._write_csv(path, ["a", "b"], [row])
    assert path.read_bytes() == b"earlier\r\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("row", [
    "61,0,cp,1.0",                    # four fields
    "61,0,cp,1.0,2.0,3.0,4.0",        # at_boundary missing
    "61,x,cp,1.0,2.0,3.0,4.0,none",   # non-numeric replicate
])
def test_cli_tables_malformed_runs_row_is_a_config_error(tmp_path, capsys, row):
    config = tmp_path / "sim.json"
    config.write_text(base_config(tmp_path).to_json())
    runs = tmp_path / "runs.csv"
    runs.write_text(",".join(RUNS_COLUMNS) + "\n61,0,cp,1,2,3,4,none\n\n" + row + "\n")
    assert cli(["tables", "--config", str(config), "--runs", str(runs)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    error = json.loads(err[0])
    assert error["error"] == "config" and f"{runs} line 4:" in error["message"]
    assert not (tmp_path / "table2.csv").exists()


# --- summary tables ---------------------------------------------------------


def test_emit_tables_outputs(campaign):
    cfg, records = campaign
    paths = emit_tables(records, cfg)
    assert set(paths) == {"table1", "table2", "fig4_hist", "df0_bars"}

    cache = spectra_cache_dir(cfg)
    grid = build_design("equispaced", 61, lo=-1.0, hi=1.0)
    spec = cached_decompose(grid, cache)
    truth = oracle.make_truth(spec, truth_curve(cfg.truth, grid), cfg.sigma)
    lam0 = oracle.ideal_lambda(spec, truth).lam

    rows = paths["table1"].read_text().splitlines()
    assert rows[0].split(",") == ["n", "cp", "gml", "ee"]
    vals = [float(tok) for tok in rows[1].split(",")[1:]]
    for v, name in zip(vals, cfg.criteria):
        direct = geometry.curvature_sq(criterion_by_name(name), spec, lam0)
        assert v == pytest.approx(direct, rel=1e-12)
    # loose pins on the known n=61 curvature landscape
    assert vals[0] == pytest.approx(0.6985, rel=1e-3)
    assert vals[1] == pytest.approx(0.0801, rel=2e-3)
    assert vals[2] == pytest.approx(0.2902, rel=1e-3)

    rows = paths["table2"].read_text().splitlines()
    assert rows[0].split(",") == ["criterion", "n", "mean_sqerr", "sd_sqerr", "count"]
    for line in rows[1:]:
        name, n_tok, mean_tok, sd_tok, count_tok = line.split(",")
        errs = np.array([r.sqerr for r in records if r.criterion == name])
        assert int(n_tok) == 61 and int(count_tok) == len(errs)
        assert float(mean_tok) == pytest.approx(errs.mean(), rel=1e-14)
        assert float(sd_tok) == pytest.approx(errs.std(ddof=1), rel=1e-14)

    rows = paths["fig4_hist"].read_text().splitlines()
    assert rows[0].split(",") == ["criterion", "n", "bin_lo", "bin_hi", "count"]
    mass = {}
    for line in rows[1:]:
        name, _, lo, hi, count = line.split(",")
        assert int(hi) == int(lo) + 1  # unit bins anchored at integers
        mass[name] = mass.get(name, 0) + int(count)
    assert mass == {"cp": 10, "gml": 10, "ee": 10}

    rows = paths["df0_bars"].read_text().splitlines()
    assert rows[0].split(",") == ["n", "lambda0", "df0"]
    n_tok, lam_tok, df_tok = rows[1].split(",")
    assert int(n_tok) == 61
    assert float(lam_tok) == pytest.approx(lam0, rel=1e-12)
    assert float(df_tok) == pytest.approx(oracle.ideal_lambda(spec, truth).df, rel=1e-12)


def test_emit_tables_empty_cell_warns(campaign, tmp_path, caplog):
    cfg, records = campaign
    kept = [r for r in records if r.criterion != "ee"]
    with caplog.at_level(logging.WARNING, logger="splinesel"):
        paths = emit_tables(kept, cfg, tmp_path)
    assert any("no usable records" in msg for msg in caplog.messages)
    for line in paths["table2"].read_text().splitlines()[1:]:
        name, _, mean_tok, sd_tok, count_tok = line.split(",")
        if name == "ee":
            assert (mean_tok, sd_tok, count_tok) == ("", "", "0")
        else:
            assert int(count_tok) == 10


def test_tables_name_criteria_in_canonical_form(tmp_path):
    # Cells, table1's header and the criterion columns use the names that
    # runs.csv records carry, whatever the case or spelling of the config ids.
    cfg = base_config(tmp_path, criteria=["CP", "P2.50q1.5"], replicates=4).validate()
    paths = emit_tables(run_simulation(cfg), cfg)
    assert paths["table1"].read_text().splitlines()[0] == "n,cp,p2.5q1.5"
    rows = [line.split(",") for line in paths["table2"].read_text().splitlines()[1:]]
    assert [(r[0], r[4]) for r in rows] == [("cp", "4"), ("p2.5q1.5", "4")]
    mass = {}
    for line in paths["fig4_hist"].read_text().splitlines()[1:]:
        name, _, _, _, count = line.split(",")
        mass[name] = mass.get(name, 0) + int(count)
    assert mass == {"cp": 4, "p2.5q1.5": 4}


@pytest.mark.parametrize("ids", [["cp", "p2q1"], ["ee", "gml", "p1.5q1.50"]])
def test_one_member_under_two_names_is_a_config_error(tmp_path, capsys, ids):
    # A custom id of a classical member names that member: listing both
    # would select twice and write the same records under two names.
    path = tmp_path / "sim.json"
    path.write_text(base_config(tmp_path / "out", criteria=ids).to_json())
    assert cli(["simulate", "--config", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (tmp_path / "out").exists()
    out = tmp_path / "rates.csv"
    assert cli(["rates", "--n", "31,45,61,91", "--criteria", ",".join(ids),
                "--cache-dir", str(tmp_path / "spectra"), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not out.exists()


# --- command line -----------------------------------------------------------


def select_input_csv(path, n=41, seed=8):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, n)
    y = np.sin(2.0 * np.pi * x) + 0.3 * rng.standard_normal(n)
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for xi, yi in zip(x, y):
            fh.write(f"{xi:.17g},{yi:.17g}\n")
    return path


def test_cli_spectrum(tmp_path, capsys):
    code = cli(["spectrum", "--n", "31", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "spectrum n=31" in out and "null_dim=2" in out
    assert list(tmp_path.glob("*.npz"))


def test_cli_spectrum_rebuilds_truncated_cache(tmp_path, capsys):
    assert cli(["spectrum", "--n", "31", "--cache-dir", str(tmp_path)]) == 0
    (path,) = tmp_path.glob("*.npz")
    path.write_bytes(path.read_bytes()[:200])
    capsys.readouterr()
    assert cli(["spectrum", "--n", "31", "--cache-dir", str(tmp_path)]) == 0
    assert "spectrum n=31" in capsys.readouterr().out
    assert len(path.read_bytes()) > 200


@pytest.mark.parametrize("module, args, code", [
    ("splinesel", ["spectrum", "--n", "8", "--cache-dir", "TMP"], 0),
    ("splinesel", ["spectrum", "--n", "8", "--cache-dir", "TMP",
                   "--design", '{"kind": "equispaced", "lo": 1, "hi": 0}'], 2),
    ("splinesel", ["no-such-command"], 2),
    ("splinesel.cli", [], 2),
])
def test_module_entry_points(tmp_path, module, args, code):
    import splinesel

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(splinesel.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", module] + [str(tmp_path) if a == "TMP" else a for a in args],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == code, proc.stderr
    if code == 1:
        assert json.loads(proc.stderr)["error"] == "ValueError"


@pytest.mark.parametrize("module", [
    # scipy.stats costs about half a second per process and nothing in the
    # package needs it.
    "scipy.stats",
    # scipy.linalg runs only on a spectrum cache miss (penalty solve and
    # eigendecomposition), so a warm-cache process need not import it.
    "scipy.linalg",
    # log Gamma comes from math.lgamma, and ndtri is imported only by a
    # normal-quantile design.
    "scipy.special",
    # Every command runs in one process; neither numpy nor scipy loads these.
    "multiprocessing",
    "concurrent.futures.process",
])
def test_cli_import_leaves_out(module):
    import splinesel

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(splinesel.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, splinesel.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Runs argv lists (JSON in argv[1]) through cli() in one interpreter and
# prints, after each group, the loaded modules of the scipy and
# numpy.polynomial packages on a line of their own that starts with
# "scipy-modules".
_SCIPY_PROBE = """
import json, sys
from splinesel.cli import cli
for group in json.loads(sys.argv[1]):
    for argv in group:
        assert cli(argv) == 0, argv
    loaded = sorted(m for m in sys.modules
                    if m.split(".")[0] == "scipy" or m.startswith("numpy.polynomial"))
    print("scipy-modules", json.dumps(loaded))
"""


def test_warm_cache_commands_load_no_scipy(tmp_path, spectra, cache_dir):
    # Nor numpy.polynomial: rates to n = 481 and reversal at n = 961 take
    # moments at |g| >= 8 on paper-fig3, by the literal Gauss-Hermite rule.
    # They read the spectra fixture's warm cache_dir (the CLI's default
    # design is the fixture's).
    import splinesel

    out_dir = tmp_path / "out"
    cache = str(out_dir / "spectra")
    for n in (31, 41, 51, 61):
        assert cli(["spectrum", "--n", str(n), "--cache-dir", cache]) == 0
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(base_config(out_dir, n_list=[31, 41], replicates=4, seed=3).to_json())
    model = ["--cache-dir", cache]
    warm = [
        ["simulate", "--config", str(cfg_path)],
        ["tables", "--config", str(cfg_path)],
        ["rates", "--n", "31,41,51,61", *model, "--out", str(tmp_path / "rates.csv")],
        ["reversal", "--n", "31", "--replicates", "1000", *model,
         "--out", str(tmp_path / "reversal.csv")],
        ["curvature", "--n", "31,41", *model, "--out", str(tmp_path / "curvature.csv")],
        ["decompose", "--n", "31", "--criterion", "ee", "--replicates", "100", *model,
         "--out", str(tmp_path / "decomposition.json")],
        ["rates", "--n", "61,121,241,481", "--cache-dir", str(cache_dir),
         "--out", str(tmp_path / "rates481.csv")],
        ["reversal", "--n", "961", "--replicates", "1000", "--cache-dir", str(cache_dir),
         "--out", str(tmp_path / "reversal961.csv")],
    ]
    # A cold cache still builds its spectrum, through the lazily imported
    # scipy.linalg; a normal-quantile design also imports scipy.special.ndtri.
    cold = ["spectrum", "--n", "31", "--cache-dir", str(tmp_path / "cold")]
    normal = ["spectrum", "--n", "31", "--cache-dir", str(tmp_path / "cold"),
              "--design", '{"kind": "quantile", "dist": "normal(0, 1)"}']
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(splinesel.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps([warm, [cold], [normal]])],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    after_warm, after_cold, after_normal = (
        json.loads(line.split(" ", 1)[1]) for line in proc.stdout.splitlines()
        if line.startswith("scipy-modules "))
    assert after_warm == []
    assert "scipy.linalg" in after_cold and "scipy.special" not in after_cold
    assert "scipy.special" in after_normal
    assert len(list((tmp_path / "cold").glob("*.npz"))) == 2
    assert (out_dir / "table1.csv").exists() and (tmp_path / "decomposition.json").exists()


def test_cli_select(tmp_path, capsys):
    path = select_input_csv(tmp_path / "data.csv")
    code = cli(["select", "--input", str(path), "--criterion", "gml",
                "--sigma", "known:0.3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "criterion=gml" in out and "lambda_hat=" in out

    code = cli(["select", "--input", str(path), "--criterion", "cp",
                "--sigma", "estimated"])
    out = capsys.readouterr().out
    assert code == 0
    assert "criterion=cp" in out


@pytest.mark.parametrize("rows,fragment", [
    ("a,b\n1,2\n", "columns x,y"),
    ("x,y\n0.0,1.0\n0.5,0.0\n1.0,1.0\n", "at least 5"),
    ("x,y\n0,1\n1,2\n2,abc\n3,1\n4,0\n", "line 4: x and y must be numbers"),
    ("x,y\n0,1\n1,2\n2,nan\n3,1\n4,0\n", "must be finite"),
    ("x,y\n0,1\n1,2\n1,3\n3,1\n4,0\n", "x values must be distinct, 1 repeats"),
])
def test_cli_select_rejects_bad_input(tmp_path, capsys, monkeypatch, rows, fragment):
    # Every rejection comes before the O(n^3) decomposition.
    def no_decompose(grid):
        raise AssertionError("decompose reached")

    monkeypatch.setattr("splinesel.cli.decompose", no_decompose)
    path = tmp_path / "data.csv"
    path.write_text(rows)
    code = cli(["select", "--input", str(path), "--criterion", "cp",
                "--sigma", "known:1.0"])
    err = capsys.readouterr().err
    assert code == 2
    assert json.loads(err)["error"] == "config"
    assert fragment in json.loads(err)["message"]


def test_cli_select_collapsed_noise_estimate_is_a_numeric_error(tmp_path):
    # y = 0 everywhere rotates to an exactly zero tail, and y = +-1e200 to a
    # tail whose squares overflow: sigma_estimate is 0 or inf, which the
    # command reports instead of dividing the data by it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for name, points, y in [("zero", 40, lambda i: "0"),
                            ("overflow", 200, lambda i: "1e200" if i % 2 else "-1e200")]:
        path = tmp_path / f"{name}.csv"
        path.write_text("x,y\n" + "".join(f"{i / (points - 1):.17g},{y(i)}\n"
                                          for i in range(points)))
        proc = subprocess.run(
            [sys.executable, "-m", "splinesel", "select", "--input", str(path),
             "--criterion", "cp", "--sigma", "estimated"],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
        assert proc.returncode == 1, name
        assert proc.stdout == "", name
        err = json.loads(proc.stderr.splitlines()[-1])  # a RuntimeWarning may come first
        assert err["error"] == "NumericError", name
        assert "noise-scale estimate is zero or not finite" in err["message"], name


def test_cli_select_missing_file(tmp_path, capsys):
    code = cli(["select", "--input", str(tmp_path / "nope.csv"),
                "--criterion", "cp", "--sigma", "known:1.0"])
    err = capsys.readouterr().err
    assert code == 1
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_cli_simulate_then_tables(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = base_config(out_dir, n_list=[31], replicates=4, seed=12)
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(cfg.to_json())

    code = cli(["simulate", "--config", str(cfg_path)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "12 records" in stdout
    assert (out_dir / "runs.csv").exists()

    code = cli(["tables", "--config", str(cfg_path)])
    stdout = capsys.readouterr().out
    assert code == 0
    for name in ("table1.csv", "table2.csv", "fig4_hist.csv", "df0_bars.csv"):
        assert (out_dir / name).exists()


def test_cli_failed_simulate_and_tables_keep_earlier_outputs(tmp_path, capsys, monkeypatch):
    # A command that fails part way, after its first n's rows are out,
    # leaves the earlier runs.csv and tables with their bytes and no
    # temporary file beside them.
    out_dir = tmp_path / "out"
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(base_config(out_dir, n_list=[31, 41], replicates=4, seed=12).to_json())
    assert cli(["simulate", "--config", str(cfg_path)]) == 0
    assert cli(["tables", "--config", str(cfg_path)]) == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}
    assert len(before) == 5

    def fail_at_41(c, spec, U, real=simlab._select_rows):
        if spec.n == 41:
            raise NumericError("criterion is not finite")
        return real(c, spec, U)

    monkeypatch.setattr(simlab, "_select_rows", fail_at_41)
    monkeypatch.setattr(oracle, "_select_rows", fail_at_41)
    for command in ("simulate", "tables"):
        assert cli([command, "--config", str(cfg_path)]) == 1, command
        assert {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()} == before
    capsys.readouterr()


def test_cli_malformed_config(tmp_path, capsys):
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text("{broken")
    code = cli(["simulate", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert json.loads(err)["error"] == "config"


@pytest.mark.parametrize("overrides", [
    dict(n_list=[61.5]),
    dict(replicates="2"),
    dict(design={"kind": "equispaced", "lo": -1.0, "hi": 1.0, "bogus": 3}),
    dict(seed=-1),
])
def test_cli_simulate_rejects_bad_config_values(tmp_path, capsys, overrides):
    payload = json.loads(base_config(tmp_path / "out").to_json())
    payload.update(overrides)
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(payload))
    code = cli(["simulate", "--config", str(cfg_path)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


@pytest.mark.parametrize("overrides", [
    dict(sigma_mode="estimated:1000"),
    dict(sigma_mode="estimated:2"),
    dict(sigma_mode="estimated:-5"),
    dict(sigma_mode="estimated", n_list=[61, 21]),
])
def test_cli_simulate_rejects_bad_sigma_mode(tmp_path, capsys, overrides):
    payload = json.loads(base_config(tmp_path / "out").to_json())
    payload.update(overrides)
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(payload))
    code = cli(["simulate", "--config", str(cfg_path)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (tmp_path / "out" / "runs.csv").exists()


@pytest.mark.parametrize("sigma", [
    "estimated:x", "estimated:3", "known:abc", "known:nan", "known:inf", "known",
])
def test_cli_select_rejects_bad_sigma(tmp_path, capsys, sigma):
    path = select_input_csv(tmp_path / "data.csv")
    code = cli(["select", "--input", str(path), "--criterion", "cp", "--sigma", sigma])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "config"


@pytest.mark.parametrize("argv", [
    ["reversal", "--n", "31", "--criteria", "gml", "--replicates", "1000", "--seed", "-1"],
    ["reversal", "--n", "31", "--criteria", "gml", "--replicates", "1000",
     "--seed", str(2**128)],
    ["decompose", "--n", "31", "--criterion", "gml", "--replicates", "100", "--seed", "-1"],
    ["curvature", "--n", "31", "--criteria", "cp", "--sigma", "nan"],
    ["curvature", "--n", "31", "--criteria", "cp", "--sigma", "0"],
    ["curvature", "--n", "31", "--criteria", "cp", "--sigma", "-1"],
    ["rates", "--n", "31,45,61,91", "--criteria", "gml", "--sigma", "inf"],
    ["reversal", "--n", "31", "--criteria", "gml", "--replicates", "1000",
     "--sigma", "nan"],
    ["decompose", "--n", "31", "--criterion", "gml", "--replicates", "100",
     "--sigma=-inf"],
])
def test_cli_seed_and_sigma_flags_share_config_checks(tmp_path, capsys, argv):
    out = tmp_path / "result"
    code = cli(argv + ["--cache-dir", str(tmp_path / "spectra"), "--out", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not out.exists()


@pytest.mark.parametrize("design", [
    '{"kind": "equispaced", "lo": -1, "hi": 1, "bogus": 3}',
    '{"kind": "equispaced", "lo": -1}',
    '{"kind": "grid", "lo": -1, "hi": 1}',
    '{"kind": "quantile", "dist": 3}',
    '{"kind": ["equispaced"]}',
    '{"kind": "equispaced", "lo": 1, "hi": -1}',
    '{"kind": "quantile", "dist": "gamma(1,2)"}',
])
def test_cli_design_flag_shares_config_check(tmp_path, capsys, design):
    code = cli(["spectrum", "--n", "8", "--design", design,
                "--cache-dir", str(tmp_path)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


@pytest.mark.parametrize("overrides", [
    dict(design={"kind": "equispaced", "lo": 1, "hi": -1}),
    dict(design={"kind": "explicit", "points": [0.0, 1.0, 2.0, 3.0, math.inf]}, n_list=[5]),
    dict(truth="foo(x)"),
])
def test_cli_bad_design_value_or_truth_is_a_config_error_before_any_work(
        tmp_path, capsys, overrides):
    # A value the config check can refute from the grid alone, with no
    # decomposition, fails simulate with exit 2 and writes nothing.
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps({**json.loads(base_config(tmp_path / "out").to_json()),
                                    **overrides}))
    assert cli(["simulate", "--config", str(cfg_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,fragment", [
    (["curvature", "--design", '{"kind": "equispaced", "lo": 1, "hi": -1}'], "hi > lo"),
    (["curvature", "--truth", "foo(x)"], "foo"),
    (["decompose", "--criterion", "cp", "--truth", "foo(x)"], "foo"),
])
def test_cli_bad_design_value_or_truth_decomposes_nothing(tmp_path, capsys, argv, fragment):
    extra = ["--criteria", "cp"] if argv[0] == "curvature" else []
    code = cli(argv + extra + ["--n", "31", "--cache-dir", str(tmp_path / "spectra"),
                               "--out", str(tmp_path / "result")])
    assert code == 2
    assert fragment in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "spectra").exists()


def explicit_design(size):
    return {"kind": "explicit", "points": [float(v) for v in np.linspace(-1.0, 1.0, size)]}


def test_cli_explicit_design_needs_its_point_count_as_n(tmp_path, capsys):
    # simulate and tables both refuse a config that would label records
    # from a 50-point design as n = 61 and 121; at n = 50 it runs.
    payload = json.loads(base_config(tmp_path / "out").to_json())
    payload.update(design=explicit_design(50), n_list=[61, 121], replicates=2)
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(payload))
    for command in ("simulate", "tables"):
        assert cli([command, "--config", str(cfg_path)]) == 2
        message = json.loads(capsys.readouterr().err)["message"]
        assert "explicit design has 50 points" in message
    assert not (tmp_path / "out").exists()
    payload.update(n_list=[50])
    cfg_path.write_text(json.dumps(payload))
    assert cli(["simulate", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    rows = (tmp_path / "out" / "runs.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"50"}


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", "61"],
    ["curvature", "--n", "61", "--criteria", "cp"],
    ["curvature", "--n", "7,61", "--criteria", "cp"],
    ["reversal", "--n", "61", "--criteria", "cp", "--replicates", "1000"],
    ["decompose", "--n", "61", "--criterion", "cp", "--replicates", "100"],
    ["rates", "--n", "7,21,31,41", "--criteria", "cp"],
])
def test_cli_n_flag_must_match_an_explicit_design(tmp_path, capsys, argv):
    out = tmp_path / "result"
    extra = [] if argv[0] == "spectrum" else ["--out", str(out)]
    code = cli(argv + ["--design", json.dumps(explicit_design(7)),
                       "--cache-dir", str(tmp_path / "spectra")] + extra)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "explicit design has 7 points" in err["message"]
    assert not out.exists()
    assert not (tmp_path / "spectra").exists()


def test_cli_curvature_at_an_explicit_design_size(tmp_path, capsys):
    out = tmp_path / "t1.csv"
    code = cli(["curvature", "--n", "7", "--criteria", "cp",
                "--design", json.dumps(explicit_design(7)),
                "--cache-dir", str(tmp_path / "spectra"), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert out.read_text().splitlines()[1].split(",")[0] == "7"


def test_cli_curvature(tmp_path, capsys):
    out = tmp_path / "t1.csv"
    code = cli(["curvature", "--n", "31", "--criteria", "cp,gml",
                "--cache-dir", str(tmp_path / "spectra"), "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.startswith("curvature wrote")
    rows = out.read_text().splitlines()
    assert rows[0] == "n,cp,gml"
    toks = rows[1].split(",")
    assert toks[0] == "31"
    assert float(toks[1]) > float(toks[2]) > 0.0


def test_cli_reversal(tmp_path, capsys):
    out = tmp_path / "rev.csv"
    code = cli(["reversal", "--n", "31", "--criteria", "gml",
                "--replicates", "1000", "--seed", "3",
                "--cache-dir", str(tmp_path / "spectra"), "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0].split(",")[:4] == ["criterion", "n", "lambda0", "beta"]
    toks = rows[1].split(",")
    assert toks[0] == "gml"
    t_stat, prob_normal = float(toks[6]), float(toks[7])
    assert t_stat < 0.0
    assert 0.0 < prob_normal < 0.5


def test_cli_reversal_builds_each_setting_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = oracle.ideal_lambda

    def counting(*args, **kwargs):
        calls.append(args[0].n)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "ideal_lambda", counting)
    out = tmp_path / "rev.csv"
    code = cli(["reversal", "--n", "31,41", "--criteria", "cp,gml",
                "--replicates", "1000", "--seed", "3",
                "--cache-dir", str(tmp_path / "spectra"), "--out", str(out)])
    assert code == 0
    assert calls == [31, 41]
    rows = [row.split(",")[:2] for row in out.read_text().splitlines()[1:]]
    assert rows == [["cp", "31"], ["cp", "41"], ["gml", "31"], ["gml", "41"]]


def test_cli_reversal_rows_match_per_criterion_summaries(tmp_path, capsys):
    cache = tmp_path / "spectra"
    out = tmp_path / "rev.csv"
    code = cli(["reversal", "--n", "31,61", "--criteria", "cp,gml,ee",
                "--replicates", "2500", "--seed", "12",
                "--cache-dir", str(cache), "--out", str(out)])
    assert code == 0
    design = {"kind": "equispaced", "lo": -1.0, "hi": 1.0}
    lines = ["criterion,n,lambda0,beta,mean,variance,t_stat,prob_normal,prob_mc,mc_se"]
    for name in ("cp", "gml", "ee"):
        c = criterion_by_name(name)
        for n in (31, 61):
            spec, truth = oracle.setting(design, n, "paper-fig3", 1.0, cache)
            lam0 = oracle.ideal_lambda(spec, truth).lam
            (rs,) = geometry.reversal_moments([c], spec, truth, lam0)
            ((prob, se),) = geometry.reversal_probs_mc([c], spec, truth, lam0, 2500, 12)
            lines.append(",".join([name, str(n)] + [
                f"{v:.17g}" for v in (rs.lam0, rs.beta, rs.M, rs.V, rs.T_n,
                                      rs.prob_normal, prob, se)]))
    assert out.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()


def test_cli_reversal_computes_one_moment_set_per_q(tmp_path, capsys, monkeypatch):
    # cp and gml share q = 1, so three criteria need two moment sets per n.
    calls = []
    real = specfun.moment_set

    def counting(g, q):
        calls.append((g.size, q))
        return real(g, q)

    monkeypatch.setattr(specfun, "moment_set", counting)
    code = cli(["reversal", "--n", "31,61", "--criteria", "cp,gml,ee",
                "--replicates", "1000", "--cache-dir", str(tmp_path / "spectra"),
                "--out", str(tmp_path / "rev.csv")])
    assert code == 0
    assert calls == [(n - 2, q) for n in (31, 61) for q in (1.0, 1.5)]


def test_cli_decompose(tmp_path, capsys):
    out = tmp_path / "dec.json"
    code = cli(["decompose", "--n", "31", "--criterion", "gml",
                "--replicates", "100", "--seed", "5",
                "--cache-dir", str(tmp_path / "spectra"), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["mc_replicates"] == 100
    assert payload["variability_term"] > 0.0


@pytest.mark.parametrize("argv", [
    ["reversal", "--n", "61", "--sigma", "1e-120", "--replicates", "1000", "--out", "out.csv"],
    ["reversal", "--n", "61", "--sigma", "1e-300", "--replicates", "1000", "--out", "out.csv"],
    ["decompose", "--n", "61", "--criterion", "ee", "--replicates", "100", "--sigma", "1e-300",
     "--out", "out.json"],
    ["simulate", "--config", "sim.json"],
    ["simulate", "--config", "ee-tiny.json"],
    ["simulate", "--config", "ee-huge.json"],
    ["select", "--input", "data.csv", "--criterion", "ee", "--sigma", "known:1e-300"],
    ["curvature", "--n", "61", "--sigma", "1e-160", "--out", "out.csv"],
    ["rates", "--n", "61,121,241,481", "--sigma", "1e-160", "--out", "out.csv"],
], ids=["reversal 1e-120", "reversal 1e-300", "decompose 1e-300", "simulate 1e-160",
        "simulate ee 1e-160", "simulate ee 1e200", "select 1e-300", "curvature 1e-160",
        "rates 1e-160"])
def test_cli_nonfinite_result_is_a_numeric_error(tmp_path, argv):
    # At so small a sigma the rotated truth g = U'f / sigma (or select's
    # data U'y / sigma) is huge: u = |z|^(2/q) overflows, and selection's
    # guard, or the reversal moments or decomposition terms, come out not
    # finite.  The command fails and writes no output file; simulate's
    # config asks for 3 replicates at n = 61 with sigma = 1e-160.  With ee
    # alone at that sigma u = |z|^(4/3) stays finite, but the squared error
    # overflows; at sigma = 1e200 the squared error is finite and its
    # response-scale twin sigma^2 sqerr is not.  It runs in a fresh
    # process, since numpy's RuntimeWarnings on the way there are errors in
    # this suite; the command runs with numpy's warnings off, so the JSON
    # error is the one line on stderr.
    (tmp_path / "sim.json").write_text(base_config(
        "run", replicates=3, sigma=1e-160).to_json())
    for name, sigma in (("ee-tiny.json", 1e-160), ("ee-huge.json", 1e200)):
        (tmp_path / name).write_text(base_config(
            "run", criteria=["ee"], replicates=3, sigma=sigma).to_json())
    x = np.linspace(-1.0, 1.0, 200)
    y = truth_curve("paper-fig3", build_design("explicit", points=x))
    y += 0.3 * np.random.default_rng(0).standard_normal(200)
    (tmp_path / "data.csv").write_text(
        "x,y\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(x, y)))
    inputs = {"sim.json", "ee-tiny.json", "ee-huge.json", "data.csv"}
    cache = [] if argv[0] in ("simulate", "select") else ["--cache-dir", "spectra"]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "splinesel", *argv, *cache],
                          cwd=tmp_path, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    error = json.loads(lines[0])
    assert error["error"] == "NumericError" and "not finite" in error["message"]
    written = {str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
               if p.is_file() and "spectra" not in p.parts}
    assert written == inputs


def test_cli_rates(tmp_path, capsys):
    cache = str(tmp_path / "spectra")
    out = tmp_path / "rates.csv"
    code = cli(["rates", "--n", "31,45,61,91", "--criteria", "gml",
                "--cache-dir", cache, "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0].split(",") == ["criterion", "n", "lambda_c", "df_c",
                                  "slope_lambda", "slope_df"]
    assert len(rows) == 5
    slope_df = float(rows[1].split(",")[5])
    assert 0.0 < slope_df < 0.5


def test_cli_rates_takes_ee_moments_at_large_signal(tmp_path, capsys):
    # At sigma = 0.3 this truth has penalized |g| near 30, where the Kummer
    # series alone passes its term cap; the moments take quadrature there.
    out = tmp_path / "rates.csv"
    code = cli(["rates", "--n", "61,121,241,481", "--truth", "exp(x)*sin(3*x)",
                "--sigma", "0.3", "--cache-dir", str(tmp_path / "spectra"), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [int(r[1]) for r in rows if r[0] == "ee"] == [61, 121, 241, 481]


def test_cli_rates_builds_each_setting_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = oracle.setting

    def counting(design, n, *args):
        calls.append(n)
        return real(design, n, *args)

    monkeypatch.setattr(oracle, "setting", counting)
    out = tmp_path / "rates.csv"
    code = cli(["rates", "--n", "31,45,61,91", "--criteria", "cp,gml,ee",
                "--cache-dir", str(tmp_path / "spectra"), "--out", str(out)])
    assert code == 0
    assert calls == [31, 45, 61, 91]
    rows = [row.split(",")[:2] for row in out.read_text().splitlines()[1:]]
    assert rows == [[c, str(n)] for c in ("cp", "gml", "ee") for n in (31, 45, 61, 91)]


def test_cli_rates_rows_match_per_criterion_central_lambda(tmp_path, capsys):
    cache = tmp_path / "spectra"
    out = tmp_path / "rates.csv"
    ns = (31, 45, 61, 91)
    code = cli(["rates", "--n", ",".join(map(str, ns)), "--criteria", "cp,gml,ee",
                "--cache-dir", str(cache), "--out", str(out)])
    assert code == 0
    design = {"kind": "equispaced", "lo": -1.0, "hi": 1.0}
    lines = ["criterion,n,lambda_c,df_c,slope_lambda,slope_df"]
    for name in ("cp", "gml", "ee"):
        c = criterion_by_name(name)
        fits = []
        for n in ns:
            spec, truth = oracle.setting(design, n, "paper-fig3", 1.0, cache)
            central = oracle.central_lambda(c, spec, truth)
            assert central.at_boundary == "none"
            fits.append((n, central.lam, central.df))
        logn = np.log(ns)
        slopes = [np.polyfit(logn, np.log([f[i] for f in fits]), 1)[0] for i in (1, 2)]
        lines += [",".join([name, str(n)] + [f"{v:.17g}" for v in (lam, dof, *slopes)])
                  for n, lam, dof in fits]
    assert out.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()


def test_cli_rates_with_large_null_space_signal(tmp_path, capsys):
    # A linear term of slope 300 puts |g| above 1000 on the null space,
    # which the central lambda never evaluates a moment on.
    out = tmp_path / "rates.csv"
    code = cli(["rates", "--n", "31,45,61,91", "--truth", "sin(pi*(x+1))/(x/2+1) + 300*x",
                "--cache-dir", str(tmp_path / "spectra"), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 1 + 3 * 4


@pytest.mark.parametrize("argv", [
    ["decompose", "--n", "31", "--criterion", "bogus", "--replicates", "100"],
    ["curvature", "--n", "31", "--criteria", "cp,bogus"],
    ["rates", "--n", "31,45,61,91", "--criteria", "p0.5q1"],
    ["reversal", "--n", "31", "--criteria", "p1.2.3q1", "--replicates", "1000"],
    ["curvature", "--n", "31", "--criteria", "gml,GML"],
    ["rates", "--n", "31,45,61,91", "--criteria", "cp,cp"],
    ["reversal", "--n", "31", "--criteria", "cp,gml,CP", "--replicates", "1000"],
])
def test_cli_bad_criterion_ids_are_config_errors(tmp_path, capsys, argv):
    out = tmp_path / "result"
    code = cli(argv + ["--cache-dir", str(tmp_path / "spectra"), "--out", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["reversal", "--n", "31", "--criteria", "gml", "--replicates", "10"],
    ["reversal", "--n", "31", "--criteria", "", "--replicates", "1000"],
    ["decompose", "--n", "31", "--criterion", "gml", "--replicates", "50"],
    ["decompose", "--n", "3", "--criterion", "gml", "--replicates", "100"],
    ["rates", "--n", "61,121", "--criteria", "gml"],
    ["rates", "--n", "121,61,241,481", "--criteria", "gml"],
    ["curvature", "--n", "3", "--criteria", "cp"],
    ["curvature", "--n", "", "--criteria", "cp"],
    ["curvature", "--n", "31,61,31", "--criteria", "cp"],
])
def test_cli_flags_below_a_minimum_are_config_errors(tmp_path, capsys, argv):
    out = tmp_path / "result"
    code = cli(argv + ["--cache-dir", str(tmp_path / "spectra"), "--out", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not out.exists()
    assert not (tmp_path / "spectra").exists()


def test_cli_select_bad_criterion_id_is_config_error(tmp_path, capsys):
    path = select_input_csv(tmp_path / "data.csv")
    assert cli(["select", "--input", str(path), "--criterion", "bogus"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


@pytest.mark.parametrize("argv", [
    ["bogus"],
    ["select", "--criterion", "cp"],        # missing required --input
    ["spectrum", "--n", "31", "--frob", "x"],
])
def test_cli_usage_errors_exit_two(argv, capsys):
    assert cli(argv) == 2
    capsys.readouterr()


def test_cli_help_exits_zero(capsys):
    assert cli(["--help"]) == 0
    assert "splinesel" in capsys.readouterr().out
