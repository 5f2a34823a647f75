"""Record reference.json: the deterministic outputs the checks compare with.

    python3 perfbench/record.py

Runs every workload once at its full and its smoke size (1 worker) and
stores, per output file, the deterministic values of each row, plus the
sha256 of runs.csv for the identity config.  Run it only at a commit whose
outputs are known to be right; the checks then hold later commits to it.
"""

import hashlib
import json
import shutil
import sys
import time

import checks
import harness
import workloads

SEED = workloads.IDENTITY_SEED


def main() -> int:
    reference = {}
    deadline = time.monotonic() + 3600.0
    for w in workloads.WORKLOADS.values():
        reference[w.name] = {}
        for size in ("full", "smoke"):
            workdir = harness.WORK / "record" / w.name / size
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            procs = harness.run_pass(w, workdir, SEED, size == "smoke", 1, deadline)
            bad = [p.label for p in procs if p.code != 0]
            if bad:
                print(f"{w.name}/{size}: {bad} failed; see {workdir}", file=sys.stderr)
                return 1
            reference[w.name][size] = {
                name.rsplit("/", 1)[-1]: checks.deterministic_values(workdir / name)
                for name in w.reference_files}
            print(f"recorded {w.name}/{size}", file=sys.stderr)
    idir = harness.WORK / "record" / "identity"
    shutil.rmtree(idir, ignore_errors=True)
    idir.mkdir(parents=True)
    cfg = workloads.sim_config(SEED, **workloads.IDENTITY_CONFIG)
    (idir / "sim.json").write_text(json.dumps(cfg))
    proc = harness.run_child("identity", harness.launch_argv(["simulate", "--config", "sim.json"]),
                         idir, harness.child_env(1), deadline)
    if proc.code != 0:
        print(f"identity simulate failed; see {idir}", file=sys.stderr)
        return 1
    reference["runs_csv_sha256"] = hashlib.sha256(
        (idir / "out" / "runs.csv").read_bytes()).hexdigest()
    harness.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
