"""Output checks: parse what the commands wrote and compare it with references.

Deterministic outputs (no Monte Carlo in them) are compared with the values
recorded in reference.json at the commit that defined the benchmark, to a
relative tolerance RTOL plus an absolute floor ATOL.  Monte Carlo outputs
are compared with targets that do not depend on the seed, at a tolerance
set from their scatter across seeds.

Operations are tracked in a Ledger: one key per runs.csv record, decompose
replicate, or rates/reversal/curvature output row; a check that fails marks
the keys it covers as failed.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-6
ATOL = 1e-9

# Acceptance-2 reference moments of sqerr at n = 61 for (cp, gml, ee), with
# the acceptance tolerances.  Those tolerances hold at the acceptance seed
# but not at every seed: over seeds 0-29 at 1000 replicates the relative
# deviation of the sample mean from its target scattered with standard
# deviation up to SQERR_MEAN_SPREAD, and that of the sample sd up to
# SQERR_SD_SPREAD (cp sd as far as -16%).  A cell fails only when it misses
# its target by more than the acceptance tolerance and by more than
# MC_SIGMAS of those spreads, scaled to the replicate count.
SQERR_MEAN_61 = {"cp": 6.22, "gml": 5.90, "ee": 5.89}
SQERR_SD_61 = {"cp": 4.81, "gml": 4.03, "ee": 4.04}
SQERR_MEAN_TOL = 0.08
SQERR_SD_TOL = 0.12
SQERR_MEAN_SPREAD = 0.023
SQERR_SD_SPREAD = 0.052
SPREAD_REPLICATES = 1000
MC_SIGMAS = 5.0


class Ledger:
    """Operations attempted, each either passed or failed."""

    def __init__(self):
        self.ops: dict[tuple, bool] = {}

    def add(self, keys) -> None:
        for key in keys:
            self.ops.setdefault(key, False)

    def fail(self, keys) -> None:
        for key in keys:
            self.ops[key] = True

    def fail_where(self, pred) -> None:
        self.fail([key for key in self.ops if pred(key)])

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(self.ops.values())

    def completed(self, kind: str) -> int:
        return sum(1 for key, bad in self.ops.items() if key[0] == kind and not bad)


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# Deterministic columns of each output file, and how its rows are keyed.
_DETERMINISTIC = {
    "rates.csv": (("criterion", "n"), ("lambda_c", "df_c", "slope_lambda", "slope_df")),
    "reversal.csv": (("criterion", "n"),
                     ("lambda0", "beta", "mean", "variance", "t_stat", "prob_normal")),
    "curvature.csv": (("n",), None),
    "table1.csv": (("n",), None),
    "df0_bars.csv": (("n",), ("lambda0", "df0")),
}
_DECOMPOSITION_FIELDS = ("lambda0", "df0", "lambda_c", "df_c", "bias_term")


def deterministic_values(path) -> dict[str, list[float]]:
    """Row key -> the file's deterministic values, for the files above and
    decomposition.json."""
    path = Path(path)
    if path.name == "decomposition.json":
        report = json.loads(path.read_text())
        return {"decomposition": [float(report[f]) for f in _DECOMPOSITION_FIELDS]}
    key_cols, value_cols = _DETERMINISTIC[path.name]
    rows = read_csv(path)
    out = {}
    for row in rows:
        cols = value_cols or [c for c in row if c not in key_cols]
        out[",".join(row[c] for c in key_cols)] = [float(row[c]) for c in cols]
    return out


def close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def mismatched_keys(path, reference: dict[str, list[float]]) -> set[str]:
    """Reference row keys that are missing from the file or differ in value.

    An unreadable file mismatches every key.
    """
    try:
        got = deterministic_values(path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError):
        return set(reference)
    bad = set()
    for key, ref in reference.items():
        vals = got.get(key)
        if vals is None or len(vals) != len(ref) or not all(map(close, vals, ref)):
            bad.add(key)
    return bad


def sqerr_cells_off_target(records: dict[tuple, float], replicates: int) -> list[str]:
    """Criteria whose n = 61 sqerr mean or sd miss the acceptance-2 targets.

    records maps (n, replicate, criterion) -> sqerr.
    """
    scale = MC_SIGMAS * math.sqrt(SPREAD_REPLICATES / replicates)
    mean_tol = max(SQERR_MEAN_TOL, scale * SQERR_MEAN_SPREAD)
    sd_tol = max(SQERR_SD_TOL, scale * SQERR_SD_SPREAD)
    bad = []
    for crit, ref_mean in SQERR_MEAN_61.items():
        vals = np.array([records.get((61, r, crit), math.nan) for r in range(replicates)])
        if len(vals) < 2 or not np.all(np.isfinite(vals)):
            bad.append(crit)
            continue
        ref_sd = SQERR_SD_61[crit]
        if (abs(vals.mean() - ref_mean) > mean_tol * ref_mean
                or abs(vals.std(ddof=1) - ref_sd) > sd_tol * ref_sd):
            bad.append(crit)
    return bad
