"""The benchmark's own tests, on the smoke-size workloads (about 2 minutes).

    python3 -m pytest perfbench/test_bench.py -q
"""

import importlib
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: v["unit"] for name, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == \
        [w.why for w in workloads.WORKLOADS.values()]


def _diagnostics_outputs(tmp_path) -> tuple[Path, dict]:
    w = workloads.WORKLOADS["diagnostics"]
    procs = harness.run_pass(w, tmp_path, 5, True, 1, time.monotonic() + 120)
    return tmp_path, {p.label: p.code for p in procs}


def test_output_check_rejects_perturbed_file(tmp_path):
    w = workloads.WORKLOADS["diagnostics"]
    reference = harness.load_reference()
    workdir, codes = _diagnostics_outputs(tmp_path)
    clean = w.check(workdir, codes, 5, True, reference)
    assert clean.attempted > 0 and clean.failed == 0

    rates = workdir / "rates.csv"
    lines = rates.read_text().splitlines()
    fields = lines[1].split(",")
    fields[2] = repr(float(fields[2]) * (1.0 + 1e-4))  # lambda_c of one row
    rates.write_text("\n".join([lines[0], ",".join(fields), *lines[2:]]) + "\n")
    curvature = workdir / "curvature.csv"
    curvature.write_text("\n".join(curvature.read_text().splitlines()[:-1]) + "\n")

    perturbed = w.check(workdir, codes, 5, True, reference)
    assert perturbed.attempted == clean.attempted
    assert perturbed.failed == 2
    failed_exit = w.check(workdir, {**codes, "reversal": 1}, 5, True, reference)
    assert failed_exit.failed == 2 + len(workloads.CRITERIA)


def test_sqerr_target_tolerates_seed_scatter_only():
    import numpy as np

    import checks

    rng = np.random.default_rng(0)
    reps = 1000
    base = {}
    for crit, mean in checks.SQERR_MEAN_61.items():
        sd = checks.SQERR_SD_61[crit]
        shape = (mean / sd) ** 2  # gamma draws with the target mean and sd
        for r, v in enumerate(rng.gamma(shape, mean / shape, reps)):
            base[61, r, crit] = float(v)
    assert checks.sqerr_cells_off_target(base, reps) == []
    shifted = {k: v * (1.3 if k[2] == "gml" else 1.0) for k, v in base.items()}
    assert checks.sqerr_cells_off_target(shifted, reps) == ["gml"]
    shrunk = {k: (v - 6.22) * 0.6 + 6.22 if k[2] == "cp" else v for k, v in base.items()}
    assert checks.sqerr_cells_off_target(shrunk, reps) == ["cp"]


def _public_bindings():
    out = {}
    for name in spans.MODULES:
        mod = importlib.import_module(f"splinesel.{name}")
        for attr, obj in vars(mod).items():
            if isinstance(obj, types.FunctionType):
                out[(name, attr)] = obj
    return out


def test_tracer_restores_original_functions():
    from splinesel import simlab, criteria, oracle, geometry

    before = _public_bindings()
    original_select = criteria.select
    tracer = spans.Tracer()
    replaced = tracer.install()
    try:
        assert replaced > 0
        for module in (simlab, criteria, oracle):
            assert module.select is not original_select
        assert geometry.replicate_normals.__wrapped__ is before[("geometry", "replicate_normals")]
        assert oracle.selection_window.__wrapped__ is before[("oracle", "selection_window")]
    finally:
        tracer.uninstall()
    assert _public_bindings() == before
    assert all(after is before[key] for key, after in _public_bindings().items())


def test_self_time_is_duration_minus_children(tmp_path):
    tracer = spans.Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_inner = tracer.wrap("x.inner", inner)
    tracer.wrap("x.outer", outer)()
    path = tmp_path / "spans.npz"
    tracer.dump(path, "test", "r1")
    stats = spans.aggregate([spans.load_spans(path)])
    outer_s, inner_s = stats["x.outer"], stats["x.inner"]
    assert outer_s.calls == inner_s.calls == 1
    assert inner_s.self_s == pytest.approx(inner_s.incl_s)
    assert outer_s.self_s == pytest.approx(outer_s.incl_s - inner_s.incl_s)
    assert 0.005 < outer_s.self_s < inner_s.self_s


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "campaign", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
