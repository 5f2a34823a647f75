"""Run a snippet of Python in a fresh interpreter and read its peak RSS and
minor page faults.

Both come from os.wait4's rusage (ru_maxrss, the instrument perfbench's
harness uses, and ru_minflt), and the child sees the harness's environment:
OpenBLAS on one thread and the package's source tree first on PYTHONPATH.
"""

import os
import subprocess
import sys

import splinesel

SRC = os.path.dirname(os.path.dirname(splinesel.__file__))

# Runs argv[1:], then prints its ru_maxrss and ru_minflt from os.wait4 on a
# line of their own and exits with its code.  On exec, Linux starts a
# process's ru_maxrss at the high-water mark of the address space it
# replaces, which for a vforked child is its parent's; this small
# interpreter stands between the caller (a test run that may have grown
# large) and the measured child.
_WAIT4 = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = code = os.waitstatus_to_exitcode(status)
print(usage.ru_maxrss, usage.ru_minflt, flush=True)
sys.exit(code)
"""


def run_fresh(snippet: str, *args: str, timeout: float = 120.0) -> tuple[str, int, int]:
    """(stdout, ru_maxrss, ru_minflt) of `python -c snippet args...`; stderr
    joins stdout.

    ru_maxrss is in KiB on Linux; ru_minflt counts the minor page faults of
    the child (the interpreter start-up included).  A nonzero exit raises
    AssertionError with the child's output.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run([sys.executable, "-c", _WAIT4, sys.executable, "-c", snippet, *args],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                          env=env, timeout=timeout)
    assert proc.returncode == 0, proc.stdout
    out, _, usage = proc.stdout.rstrip("\n").rpartition("\n")
    maxrss, minflt = usage.split()
    return out, int(maxrss), int(minflt)
