"""Set-up probe: what a fresh `splinesel` process does before its real work.

    python3 perfbench/probe.py CACHE_DIR N[,N...]

Imports the CLI (and with it the whole package), makes the equispaced
[-1, 1] spectrum of each n ready through the disk cache in CACHE_DIR (a
load when cached; penalty build, eigendecomposition and cache write when
not) and builds its selection window.  The benchmark times this process
from spawn to exit.
"""

import sys


def main(cache_dir: str, ns: str) -> None:
    import splinesel.cli  # noqa: F401  (the import a command pays)
    from splinesel import build_design, cached_decompose, selection_window

    for n in (int(tok) for tok in ns.split(",")):
        spec = cached_decompose(build_design("equispaced", n, lo=-1.0, hi=1.0), cache_dir)
        selection_window(spec)


if __name__ == "__main__":
    main(*sys.argv[1:])
