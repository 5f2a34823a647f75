"""Traced run: per-layer metrics of one workload.

The workload's command sequence runs twice with 1 worker (the pool cannot
be traced from outside): once plain, which gives the untraced wall time and
reference output bytes, and once under launch.py's tracer.  The traced
outputs must equal the plain ones byte for byte, which shows the wrappers
do not change the program.  Metric names are '<layer>.<quantity>', the
layer being the package module; each is defined in perfbench/README.md.
"""

import hashlib
import json
import os

import numpy as np

import checks
import harness
import spans
from spans import FunctionStats
import workloads

LAYERS = ("cli", "spectrum", "criteria", "oracle", "specfun", "geometry", "simlab", "rng")

COARSE_CANDIDATES = 201

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "spectrum.penalty_s": "s",
    "spectrum.decompose_s": "s",
    "spectrum.cache_save_s": "s",
    "spectrum.cache_misses": "count",
    "spectrum.cache_load_s": "s",
    "spectrum.cache_hits": "count",
    "spectrum.lambda_for_df_calls": "count",
    "spectrum.lambda_for_df_s": "s",
    "spectrum.weights_calls": "count",
    "spectrum.U_bytes": "B",
    "criteria.select_calls": "count",
    "criteria.select_s": "s",
    "criteria.select_p50_us": "us",
    "criteria.select_p99_us": "us",
    "criteria.loss_evals_per_select": "count",
    "criteria.coarse_flops": "flop",
    "criteria.boundary_frac": "ratio",
    "criteria.window_builds": "count",
    "criteria.window_s": "s",
    "oracle.ideal_calls": "count",
    "oracle.ideal_s": "s",
    "oracle.central_calls": "count",
    "oracle.central_s": "s",
    "oracle.rate_probe_self_s": "s",
    "oracle.decomposition_mc_self_s": "s",
    "specfun.abs_moment_calls": "count",
    "specfun.abs_moment_s": "s",
    "specfun.moment_set_calls": "count",
    "specfun.moment_set_s": "s",
    "geometry.curvature_s": "s",
    "geometry.reversal_moments_s": "s",
    "geometry.reversal_prob_mc_self_s": "s",
    "rng.draw_calls": "count",
    "rng.draw_s": "s",
    "simlab.run_simulation_self_s": "s",
    "simlab.write_runs_s": "s",
    "simlab.emit_tables_self_s": "s",
    "simlab.error_records": "count",
    "simlab.runs_csv_identical": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.uncovered_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.outputs_identical": "count",
    "trace.spans": "count",
}


def _file_bytes(workdir, names) -> dict:
    return {name: (workdir / name).read_bytes() if (workdir / name).is_file() else None
            for name in names}


def _selections_by_n(w, smoke: bool) -> dict[int, int]:
    size = w.size(smoke)
    counts: dict[int, int] = {}
    if "sim" in size:
        for n in size["sim"]["n_list"]:
            counts[n] = counts.get(n, 0) + size["sim"]["replicates"] * len(workloads.CRITERIA)
    if "decompose" in size:
        d = size["decompose"]
        counts[d["n"]] = counts.get(d["n"], 0) + d["replicates"]
    return counts


def _error_records(workdir) -> int:
    path = workdir / "out" / "runs.csv"
    if not path.is_file():
        return 0
    return sum(1 for row in checks.read_csv(path) if row["at_boundary"] == "error")


def _runs_csv_identical(workdir, deadline, reference) -> int:
    """1 when runs.csv of the identity config at its fixed seed has the
    recorded sha256."""
    idir = workdir / "identity"
    idir.mkdir()
    cfg = workloads.sim_config(workloads.IDENTITY_SEED, **workloads.IDENTITY_CONFIG)
    (idir / "sim.json").write_text(json.dumps(cfg))
    proc = harness.run_child("identity", harness.launch_argv(["simulate", "--config", "sim.json"]),
                         idir, harness.child_env(1), deadline)
    runs = idir / "out" / "runs.csv"
    if proc.code != 0 or not runs.is_file():
        return 0
    return int(hashlib.sha256(runs.read_bytes()).hexdigest() == reference["runs_csv_sha256"])


def layer_metrics(tables, stats, w, smoke: bool) -> dict[str, float]:
    def st(name: str) -> FunctionStats:
        return stats.get(name, FunctionStats())

    select = st("criteria.select")
    select_us = spans.durations(tables, "criteria.select") * 1e6
    imports = spans.durations(tables, spans.IMPORT_SPAN)
    misses = sum(len(spans.ids_under(t, "spectrum.decompose", "spectrum.cached_decompose"))
                 for t in tables)
    loss_in_select = sum(len(spans.ids_under(t, "criteria.loss", "criteria.minimize_on_window",
                                             "criteria.select")) for t in tables)
    draws_in_mc = sum(float(t.dur[spans.ids_under(t, "_rng.replicate_normals",
                                                  "geometry.reversal_prob_mc")].sum())
                      for t in tables)
    flops = sum(2 * COARSE_CANDIDATES * (n - 2) * count
                for n, count in _selections_by_n(w, smoke).items())
    m = {
        "cli.import_s": float(np.median(imports)) if len(imports) else 0.0,
        "spectrum.penalty_s": st("spectrum.penalty_matrix").incl_s,
        "spectrum.decompose_s": st("spectrum.decompose").self_s,
        "spectrum.cache_save_s": st("spectrum.save_spectrum").incl_s,
        "spectrum.cache_misses": misses,
        "spectrum.cache_load_s": st("spectrum.load_spectrum").incl_s,
        "spectrum.cache_hits": st("spectrum.cached_decompose").calls - misses,
        "spectrum.lambda_for_df_calls": st("spectrum.lambda_for_df").calls,
        "spectrum.lambda_for_df_s": st("spectrum.lambda_for_df").incl_s,
        "spectrum.weights_calls": st("spectrum.weights").calls,
        "spectrum.U_bytes": sum(8 * n * n for n in w.spectra_ns(smoke)),
        "criteria.select_calls": select.calls,
        "criteria.select_s": select.incl_s,
        "criteria.select_p50_us": float(np.percentile(select_us, 50)) if select.calls else 0.0,
        "criteria.select_p99_us": float(np.percentile(select_us, 99)) if select.calls else 0.0,
        "criteria.loss_evals_per_select": loss_in_select / select.calls if select.calls else 0.0,
        "criteria.coarse_flops": flops,
        "criteria.boundary_frac": select.flagged / select.calls if select.calls else 0.0,
        "criteria.window_builds": st("criteria.selection_window").calls,
        "criteria.window_s": st("criteria.selection_window").incl_s,
        "oracle.ideal_calls": st("oracle.ideal_lambda").calls,
        "oracle.ideal_s": st("oracle.ideal_lambda").incl_s,
        "oracle.central_calls": st("oracle.central_lambda").calls,
        "oracle.central_s": st("oracle.central_lambda").incl_s,
        "oracle.rate_probe_self_s": st("oracle.rate_probe").self_s,
        "oracle.decomposition_mc_self_s": st("oracle.decomposition_mc").self_s,
        "specfun.abs_moment_calls": st("specfun.abs_moment").calls,
        "specfun.abs_moment_s": st("specfun.abs_moment").incl_s,
        "specfun.moment_set_calls": st("specfun.moment_set").calls,
        "specfun.moment_set_s": st("specfun.moment_set").incl_s,
        "geometry.curvature_s": st("geometry.curvature_sq").incl_s,
        "geometry.reversal_moments_s": st("geometry.reversal_moments").incl_s,
        "geometry.reversal_prob_mc_self_s": st("geometry.reversal_prob_mc").incl_s - draws_in_mc,
        "rng.draw_calls": st("_rng.replicate_normals").calls,
        "rng.draw_s": st("_rng.replicate_normals").incl_s,
        "simlab.run_simulation_self_s": st("simlab.run_simulation").self_s,
        "simlab.write_runs_s": st("simlab.write_runs_csv").self_s,
        "simlab.emit_tables_self_s": st("simlab.emit_tables").self_s,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s.self_s for name, s in stats.items()
                                   if spans.layer_of(name) == layer)
    m["trace.spans"] = sum(len(t.dur) for t in tables)
    return m


def traced(w, workdir, seed, smoke, deadline, reference):
    if not w.cold:
        harness.probe(w, workdir, smoke, deadline)  # fill the spectrum cache
    plain = harness.run_pass(w, workdir, seed, smoke, 1, deadline)
    first = w.check(workdir, {p.label: p.code for p in plain}, seed, smoke, reference)
    plain_bytes = _file_bytes(workdir, w.result_files)

    spans_dir = workdir / "spans"
    spans_dir.mkdir()
    run_id = f"{w.name}-{seed}-{os.getpid()}"
    traced_procs = harness.run_pass(w, workdir, seed, smoke, 1, deadline, spans_dir, run_id)
    second = w.check(workdir, {p.label: p.code for p in traced_procs}, seed, smoke, reference)
    identical = all(v is not None for v in plain_bytes.values()) and \
        plain_bytes == _file_bytes(workdir, w.result_files)
    if not identical:
        second.fail(list(second.ops))

    tables = [spans.load_spans(path) for path in sorted(spans_dir.glob("*.npz"))]
    stats = spans.aggregate(tables)
    m = layer_metrics(tables, stats, w, smoke)
    m["simlab.error_records"] = _error_records(workdir)
    m["simlab.runs_csv_identical"] = _runs_csv_identical(workdir, deadline, reference)
    traced_wall = sum(p.wall_s for p in traced_procs)
    plain_wall = sum(p.wall_s for p in plain)
    covered = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = plain_wall
    m["trace.uncovered_s"] = traced_wall - covered
    m["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    m["trace.outputs_identical"] = int(identical)

    print("layer self time (share of traced wall):")
    for layer in LAYERS + ("trace.uncovered",):
        key = f"{layer}_s" if layer.startswith("trace") else f"{layer}.self_s"
        print(f"  {layer:<16} {m[key]:10.4f} s  {m[key] / traced_wall:7.2%}")
    for name, unit in PER_LAYER_UNITS.items():
        print(f"{name:<36} {m[name]:.6g} {unit}")
    attempted = first.attempted + second.attempted
    failed = first.failed + second.failed
    metrics = {name: {"value": float(m[name]), "unit": unit}
               for name, unit in PER_LAYER_UNITS.items()}
    return failed == 0, attempted, failed, metrics
