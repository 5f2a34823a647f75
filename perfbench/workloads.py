"""The benchmark's workloads: the splinesel commands each one runs, in order,
and the checks on what they wrote.

Every workload is a closed loop with one client: its commands run one after
another, each as a fresh process, the way a user types them.  A workload
has a full size (the timed benchmark) and a smoke size (the benchmark's own
tests), which differ only in n lists and replicate counts.
"""

from dataclasses import dataclass
import json
import math
from pathlib import Path
from typing import Callable

import checks
from checks import Ledger

DESIGN = {"kind": "equispaced", "lo": -1.0, "hi": 1.0}
CRITERIA = ("cp", "gml", "ee")

# runs.csv of this config at this seed is recorded as a sha256 in
# reference.json; trace runs report whether the bytes still match.
IDENTITY_SEED = 2024
IDENTITY_CONFIG = {"n_list": [61, 121, 241], "replicates": 100, "sigma_mode": "known"}


def sim_config(seed: int, n_list, replicates: int, sigma_mode: str,
               output_dir: str = "out") -> dict:
    return {"design": DESIGN, "n_list": list(n_list), "replicates": replicates,
            "seed": seed, "criteria": list(CRITERIA), "truth": "paper-fig3",
            "sigma": 1.0, "sigma_mode": sigma_mode, "output_dir": output_dir}


def _csv_ints(ns) -> str:
    return ",".join(str(n) for n in ns)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    workers: int
    cold: bool                  # empty spectrum cache before every pass
    cache_dir: str              # relative to the workload directory
    full: dict
    smoke: dict
    result_files: tuple[str, ...]
    reference_files: tuple[str, ...]  # deterministic outputs held to reference.json
    selecting: tuple[str, ...]  # commands whose operations count toward ops_per_s
    make_commands: Callable[[dict, int, str], list[tuple[str, list[str]]]]
    check_outputs: Callable[[Ledger, Path, dict, dict, dict], None]

    def size(self, smoke: bool) -> dict:
        return self.smoke if smoke else self.full

    def spectra_ns(self, smoke: bool) -> list[int]:
        return sorted(set(self.size(smoke)["spectra"]))

    def prepare(self, workdir: Path, seed: int, smoke: bool) -> None:
        size = self.size(smoke)
        if "sim" in size:
            cfg = sim_config(seed, **size["sim"])
            (workdir / "sim.json").write_text(json.dumps(cfg, indent=2))

    def commands(self, seed: int, smoke: bool) -> list[tuple[str, list[str]]]:
        return self.make_commands(self.size(smoke), seed, self.cache_dir)

    def check(self, workdir: Path, codes: dict[str, int], seed: int, smoke: bool,
              reference: dict) -> Ledger:
        ref = reference[self.name]["smoke" if smoke else "full"]
        ledger = Ledger()
        self.check_outputs(ledger, workdir, codes, self.size(smoke), ref)
        return ledger


# --- commands --------------------------------------------------------------


def _campaign_commands(size, seed, cache):
    d = size["decompose"]
    return [
        ("simulate", ["simulate", "--config", "sim.json"]),
        ("tables", ["tables", "--config", "sim.json"]),
        ("decompose", ["decompose", "--n", str(d["n"]), "--criterion", d["criterion"],
                       "--replicates", str(d["replicates"]), "--seed", str(seed),
                       "--cache-dir", cache, "--out", "decomposition.json"]),
    ]


def _diagnostics_commands(size, seed, cache):
    crit = ",".join(CRITERIA)
    return [
        ("rates", ["rates", "--n", _csv_ints(size["rates"]), "--criteria", crit,
                   "--cache-dir", cache, "--out", "rates.csv"]),
        ("reversal", ["reversal", "--n", _csv_ints(size["reversal"]), "--criteria", crit,
                      "--replicates", str(size["reversal_draws"]), "--seed", str(seed),
                      "--cache-dir", cache, "--out", "reversal.csv"]),
        ("curvature", ["curvature", "--n", _csv_ints(size["curvature"]), "--criteria", crit,
                       "--cache-dir", cache, "--out", "curvature.csv"]),
    ]


def _simulate_tables_commands(size, seed, cache):
    return [
        ("simulate", ["simulate", "--config", "sim.json"]),
        ("tables", ["tables", "--config", "sim.json"]),
    ]


# --- checks ----------------------------------------------------------------


def _check_simulate(ledger: Ledger, workdir: Path, code: int, sim: dict,
                    sqerr_target: bool) -> dict[tuple, float]:
    """Ledger one op per expected runs.csv record; returns (n, rep, crit) -> sqerr."""
    keys = [("simulate", n, r, c) for n in sim["n_list"]
            for r in range(sim["replicates"]) for c in CRITERIA]
    ledger.add(keys)
    sqerr: dict[tuple, float] = {}
    try:
        rows = checks.read_csv(workdir / "out" / "runs.csv") if code == 0 else []
    except OSError:
        rows = []
    for row in rows:
        key = (int(row["n"]), int(row["replicate"]), row["criterion"])
        value = float(row["sqerr"])
        if row["at_boundary"] != "error" and math.isfinite(value):
            sqerr[key] = value
    ledger.fail([k for k in keys if k[1:] not in sqerr])
    if len(rows) != len(keys):
        ledger.fail(keys)
    if sqerr_target and 61 in sim["n_list"]:
        off = set(checks.sqerr_cells_off_target(sqerr, sim["replicates"]))
        ledger.fail([k for k in keys if k[1] == 61 and k[3] in off])
    return sqerr


def _check_tables(ledger: Ledger, workdir: Path, code: int, sim: dict,
                  sqerr: dict[tuple, float], ref: dict) -> None:
    """A table that disagrees fails the runs.csv records it summarises."""
    out = workdir / "out"
    if code != 0:
        ledger.fail_where(lambda k: k[0] == "simulate")
        return
    bad_n = set()
    for name in ("table1.csv", "df0_bars.csv"):
        bad_n |= {int(key) for key in checks.mismatched_keys(out / name, ref[name])}
    try:
        table2 = checks.read_csv(out / "table2.csv")
        hist = checks.read_csv(out / "fig4_hist.csv")
    except OSError:
        ledger.fail_where(lambda k: k[0] == "simulate")
        return
    for row in table2:
        n, crit = int(row["n"]), row["criterion"]
        vals = [v for (vn, _, vc), v in sqerr.items() if vn == n and vc == crit]
        mean = sum(vals) / len(vals) if vals else math.nan
        mean_ok = checks.close(float(row["mean_sqerr"] or "nan"), mean)
        if int(row["count"]) != len(vals) or not mean_ok:
            bad_n.add(n)
    for n in sim["n_list"]:
        for crit in CRITERIA:
            total = sum(int(r["count"]) for r in hist
                        if int(r["n"]) == n and r["criterion"] == crit)
            if total != sum(1 for (vn, _, vc) in sqerr if vn == n and vc == crit):
                bad_n.add(n)
    if len(table2) != len(sim["n_list"]) * len(CRITERIA):
        bad_n |= set(sim["n_list"])
    ledger.fail_where(lambda k: k[0] == "simulate" and k[1] in bad_n)


def _check_campaign(ledger, workdir, codes, size, ref):
    sqerr = _check_simulate(ledger, workdir, codes["simulate"], size["sim"], sqerr_target=True)
    _check_tables(ledger, workdir, codes["tables"], size["sim"], sqerr, ref)
    d = size["decompose"]
    keys = [("decompose", r) for r in range(d["replicates"])]
    ledger.add(keys)
    path = workdir / "decomposition.json"
    ok = codes["decompose"] == 0 and not checks.mismatched_keys(path, ref["decomposition.json"])
    if ok:
        report = json.loads(path.read_text())
        ok = (report["mc_replicates"] == d["replicates"]
              and all(math.isfinite(v) for v in (report["covariance_term"],
                                                 report["variability_term"],
                                                 report["extra_risk"])))
    if not ok:
        ledger.fail(keys)


def _check_rows(ledger, workdir, kind, code, expected, ref) -> list[dict]:
    """One op per expected row; rows missing or off their reference fail."""
    keys = [(kind, key) for key in expected]
    ledger.add(keys)
    if code != 0:
        ledger.fail(keys)
        return []
    path = workdir / f"{kind}.csv"
    ledger.fail([(kind, key) for key in checks.mismatched_keys(path, ref[path.name])])
    try:
        return checks.read_csv(path)
    except OSError:
        return []


def _check_diagnostics(ledger, workdir, codes, size, ref):
    pairs = lambda ns: [f"{c},{n}" for c in CRITERIA for n in ns]  # noqa: E731
    _check_rows(ledger, workdir, "rates", codes["rates"], pairs(size["rates"]), ref)
    rows = _check_rows(ledger, workdir, "reversal", codes["reversal"],
                       pairs(size["reversal"]), ref)
    prob = {f"{r['criterion']},{r['n']}": float(r["prob_mc"]) for r in rows}
    ledger.fail([("reversal", k) for k, p in prob.items() if not 0.0 <= p <= 1.0])
    if 61 in size["reversal"]:
        at61 = [prob.get(f"{c},61", math.nan) for c in ("cp", "ee", "gml")]
        if not at61[0] > at61[1] > at61[2]:
            ledger.fail([("reversal", f"{c},61") for c in CRITERIA])
    _check_rows(ledger, workdir, "curvature", codes["curvature"],
                [str(n) for n in size["curvature"]], ref)


def _check_large_cold(ledger, workdir, codes, size, ref):
    sqerr = _check_simulate(ledger, workdir, codes["simulate"], size["sim"], sqerr_target=False)
    _check_tables(ledger, workdir, codes["tables"], size["sim"], sqerr, ref)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="campaign",
            why=("per-replicate selection, the hot path, at n=61/121/241 and n=961 "
                 "on a warm cache with 1 worker: the plain single-process baseline"),
            workers=1, cold=False, cache_dir="out/spectra",
            full={"sim": {"n_list": [61, 121, 241], "replicates": 1000, "sigma_mode": "known"},
                  "decompose": {"n": 961, "criterion": "ee", "replicates": 2000},
                  "spectra": [61, 121, 241, 961]},
            smoke={"sim": {"n_list": [61], "replicates": 50, "sigma_mode": "known"},
                   "decompose": {"n": 61, "criterion": "ee", "replicates": 100},
                   "spectra": [61]},
            result_files=("out/runs.csv", "out/table1.csv", "out/table2.csv",
                          "out/fig4_hist.csv", "out/df0_bars.csv", "decomposition.json"),
            reference_files=("out/table1.csv", "out/df0_bars.csv", "decomposition.json"),
            selecting=("simulate", "decompose"),
            make_commands=_campaign_commands, check_outputs=_check_campaign,
        ),
        Workload(
            name="diagnostics",
            why=("rates, reversal and curvature at the acceptance sizes on a warm cache: "
                 "window rebuilds, Philox draws and specfun loops, and no select at all"),
            workers=1, cold=False, cache_dir="spectra",
            full={"rates": [61, 121, 241, 481, 961], "reversal": [61, 241, 961],
                  "reversal_draws": 10000, "curvature": [61, 121, 241, 481, 961],
                  "spectra": [61, 121, 241, 481, 961]},
            smoke={"rates": [31, 41, 51, 61], "reversal": [61], "reversal_draws": 1000,
                   "curvature": [31, 61], "spectra": [31, 41, 51, 61]},
            result_files=("rates.csv", "reversal.csv", "curvature.csv"),
            reference_files=("rates.csv", "reversal.csv", "curvature.csv"),
            selecting=("rates", "reversal", "curvature"),
            make_commands=_diagnostics_commands, check_outputs=_check_diagnostics,
        ),
        Workload(
            name="large-cold",
            why=("n=961/1921 on an empty cache with 2 workers and estimated sigma: "
                 "penalty, eigh and cache write, and the only process-pool path"),
            workers=2, cold=True, cache_dir="out/spectra",
            full={"sim": {"n_list": [961, 1921], "replicates": 100, "sigma_mode": "estimated"},
                  "spectra": [961, 1921]},
            smoke={"sim": {"n_list": [61, 121], "replicates": 10, "sigma_mode": "estimated"},
                   "spectra": [61, 121]},
            result_files=("out/runs.csv", "out/table1.csv", "out/table2.csv",
                          "out/fig4_hist.csv", "out/df0_bars.csv"),
            reference_files=("out/table1.csv", "out/df0_bars.csv"),
            selecting=("simulate",),
            make_commands=_simulate_tables_commands, check_outputs=_check_large_cold,
        ),
    )
}
