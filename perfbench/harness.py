"""Processes of the benchmark: the workload commands, the set-up probe, and
the environment they run in.

Every process gets the checkout's src/ on PYTHONPATH, one OpenBLAS thread
and the workload's SPLINESEL_WORKERS; its wall time, CPU time and peak RSS
include the pool processes it waits for.
"""

from dataclasses import dataclass
import json
import os
from pathlib import Path
import shutil
import signal
import subprocess
import sys
import threading
import time

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"


@dataclass
class Proc:
    label: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


def child_env(workers: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["SPLINESEL_WORKERS"] = str(workers)
    return env


def run_child(label: str, argv: list[str], cwd: Path, env: dict, deadline: float) -> Proc:
    """Run one process to completion; wall, CPU and peak RSS include its
    waited-for children (the process pool)."""
    with open(cwd / f"{label}.stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.1),
                                os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Proc(label, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code)


def launch_argv(command: list[str], spans=None) -> list[str]:
    return [sys.executable, str(BENCH / "launch.py"), *(spans or []), *command]


def reset_cache(w, workdir: Path) -> None:
    shutil.rmtree(workdir / w.cache_dir, ignore_errors=True)


def run_pass(w, workdir: Path, seed: int, smoke: bool, workers: int, deadline: float,
             spans_dir: Path | None = None, run_id: str = "") -> list[Proc]:
    """The workload's command sequence once; traced when spans_dir is given."""
    if w.cold:
        reset_cache(w, workdir)
    w.prepare(workdir, seed, smoke)
    env = child_env(workers)
    procs = []
    for label, command in w.commands(seed, smoke):
        spans = None
        if spans_dir is not None:
            spans = ["--spans", str(spans_dir / f"{label}.npz"), w.name, run_id]
        procs.append(run_child(label, launch_argv(command, spans), workdir, env, deadline))
    return procs


def probe(w, workdir: Path, smoke: bool, deadline: float) -> Proc:
    if w.cold:
        reset_cache(w, workdir)
    ns = ",".join(str(n) for n in w.spectra_ns(smoke))
    argv = [sys.executable, str(BENCH / "probe.py"), w.cache_dir, ns]
    return run_child("probe", argv, workdir, child_env(w.workers), deadline)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
