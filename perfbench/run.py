"""splinesel benchmark: time the paper's CLI workloads and check their outputs.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is taken from its src/
directory.  With --trace 0 the workload's command sequence is repeated for
about --seconds seconds after a set-up measurement, and the end-to-end
metrics are printed.  With --trace 1 the sequence runs once plain and once
traced, both with 1 worker, and the per-layer metrics are printed.  Every
pass checks its outputs.  Summary lines come first; the last line of stdout
is one JSON object with keys correct, attempted, failed and metrics.

--smoke switches to the small workload sizes used by the benchmark's own
tests.  Scratch files go to .bench_work/ in the checkout.
"""

import argparse
import hashlib
import json
import os
from pathlib import Path
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import numpy as np

from harness import ROOT, SRC, WORK, load_reference, probe, run_pass
import layers
from workloads import WORKLOADS

# Hard stop for one invocation, below the 180 s a run may take.
DEADLINE_S = 170.0
# Set-up probes: at least SETUP_MIN, then more while under SETUP_BUDGET_S
# seconds, up to SETUP_MAX; the median is reported.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 7, 6.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "ops_per_s": "1/s",
                    "cpu_s": "s", "peak_rss_mb": "MB"}


def tail_percentile(samples) -> tuple[float, float] | None:
    """Highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples above it."""
    n = len(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            ordered = sorted(samples)
            return pct, ordered[min(int(pct / 100.0 * n), n - 1)]
    return None


def describe(name: str, unit: str, samples) -> str:
    tail = tail_percentile(samples)
    tail_txt = (f"p{tail[0]:g} {tail[1]:.6g}" if tail
                else "tail n/a (needs >= 11 samples)")
    return (f"{name:<14} median {statistics.median(samples):.6g} {unit:<4} "
            f"{tail_txt}  n={len(samples)}")


def cpu_info() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": platform.processor()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache_root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_root.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            info[f"L{level}"] = size
    return info


def provenance(workload, seed: int) -> dict:
    commit = "unavailable (not a git checkout)"
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, check=True).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "splinesel").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    version = "unknown"
    for line in (SRC / "splinesel" / "__init__.py").read_text().splitlines():
        if line.startswith("__version__"):
            version = line.split("=", 1)[1].strip().strip("\"'")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit, "src_sha256": digest.hexdigest()[:16], "seed": seed,
        "workload": workload.name, "python": platform.python_version(),
        "splinesel": version, "numpy": np.__version__, "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": "1",
        "SPLINESEL_WORKERS": {"timed": workload.workers, "traced": 1},
        **cpu_info(),
    }


# --- timed runs --------------------------------------------------------------


def timed(w, workdir, seed, smoke, seconds, deadline, reference):
    if not w.cold:
        probe(w, workdir, smoke, deadline)  # fill the spectrum cache
    setup = []
    start = time.monotonic()
    while len(setup) < SETUP_MIN or (len(setup) < SETUP_MAX
                                     and time.monotonic() - start < SETUP_BUDGET_S):
        setup.append(probe(w, workdir, smoke, deadline))
    samples = {name: [] for name in END_TO_END_UNITS}
    samples["setup_s"] = [p.wall_s for p in setup]
    attempted = failed = 0
    setup_ok = all(p.code == 0 for p in setup)
    start = time.monotonic()
    last = 0.0
    while not samples["wall_s"] or (time.monotonic() - start + last <= seconds
                                    and time.monotonic() + last < deadline):
        procs = run_pass(w, workdir, seed, smoke, w.workers, deadline)
        ledger = w.check(workdir, {p.label: p.code for p in procs}, seed, smoke, reference)
        attempted += ledger.attempted
        failed += ledger.failed
        last = sum(p.wall_s for p in procs)
        samples["wall_s"].append(last)
        samples["cpu_s"].append(sum(p.cpu_s for p in procs))
        samples["peak_rss_mb"].append(max(p.rss_mb for p in procs))
        busy = sum(p.wall_s for p in procs if p.label in w.selecting)
        done = sum(ledger.completed(kind) for kind in w.selecting)
        samples["ops_per_s"].append(done / busy if busy > 0 else 0.0)
    for name, unit in END_TO_END_UNITS.items():
        print(describe(name, unit, samples[name]))
    print(f"failed_frac    {failed / max(attempted, 1):.6g} ({failed} of {attempted} operations)")
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return setup_ok and failed == 0, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "splinesel" / "__init__.py").is_file():
        print(f"no splinesel sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    reference = load_reference()
    workdir = WORK / w.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    print("provenance " + json.dumps(provenance(w, args.seed)))
    print(f"workload {w.name}: {w.why}")
    if args.trace:
        correct, attempted, failed, metrics = layers.traced(
            w, workdir, args.seed, args.smoke, deadline, reference)
    else:
        correct, attempted, failed, metrics = timed(
            w, workdir, args.seed, args.smoke, args.seconds, deadline, reference)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
