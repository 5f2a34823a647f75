"""Run one `splinesel` command in this process, as the console script does.

    python3 perfbench/launch.py simulate --config sim.json
    python3 perfbench/launch.py --spans out.npz WORKLOAD RUN_ID simulate ...

The second form traces the command: it times the package import, wraps
the package's public functions (see spans.py), runs the command, restores
the functions and writes the spans to out.npz.  The package is found
through PYTHONPATH, which the benchmark points at the checkout's src/.
"""

import sys
import time


def main(argv: list[str]) -> int:
    if argv[:1] != ["--spans"]:
        sys.argv = ["splinesel", *argv]
        from splinesel.cli import main as splinesel_main
        splinesel_main()  # exits with the command's status

    spans_path, workload, run_id, *command = argv[1:]
    t0 = time.perf_counter()
    import splinesel.cli
    t1 = time.perf_counter()
    import spans  # after the timed import, so numpy is not preloaded for it

    tracer = spans.Tracer()
    tracer.record(spans.IMPORT_SPAN, t0, t1)
    tracer.install()
    sys.argv = ["splinesel", *command]
    try:
        splinesel.cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code or 0
    finally:
        tracer.uninstall()
        tracer.dump(spans_path, workload, run_id)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
