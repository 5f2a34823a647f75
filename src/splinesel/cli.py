"""Command-line front end.

Subcommands: spectrum, select, simulate, tables, curvature, reversal,
decompose, rates.  Exit status 0 on success, 1 on a runtime failure (a
machine-readable JSON error goes to stderr), 2 on a usage error (unknown
flags, malformed config).
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import geometry, oracle, simlab
from .criteria import criterion_by_name, select, sigma_estimate
from .errors import ConfigError, NumericError
from .simlab import SimConfig
from .spectrum import build_design, decompose, rotate

USAGE_EXIT = 2
FAILURE_EXIT = 1

DEFAULT_DESIGN = '{"kind": "equispaced", "lo": -1.0, "hi": 1.0}'


def _parse_design(text: str, ns: list[int], truth: str = "zero") -> dict:
    try:
        design = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--design is not valid JSON: {exc}") from exc
    for grid in simlab.check_design(design, ns):
        simlab.truth_curve(truth, grid)
    return design


def _parse_n_list(text: str) -> list[int]:
    try:
        ns = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}") from exc
    return simlab.check_n_list(ns, "--n")


def _add_common_model_flags(sub, default_out: str):
    sub.add_argument("--criteria", default="cp,gml,ee",
                     help="comma-separated criterion ids (default cp,gml,ee)")
    sub.add_argument("--truth", default="paper-fig3",
                     help="truth curve id or expression in x")
    sub.add_argument("--sigma", type=float, default=1.0, help="noise sd (default 1.0)")
    sub.add_argument("--design", default=DEFAULT_DESIGN,
                     help="design JSON (default equispaced on [-1, 1])")
    sub.add_argument("--cache-dir", default="spectra", help="spectrum cache directory")
    sub.add_argument("--out", default=default_out, help=f"output path (default {default_out})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splinesel",
        description="Smoothing-spline selection criteria, oracle diagnostics, "
                    "and the simulation lab.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("spectrum", help="build and cache a design spectrum")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--design", default=DEFAULT_DESIGN)
    s.add_argument("--cache-dir", default="spectra")

    s = subs.add_parser("select", help="pick a smoothing parameter for one dataset")
    s.add_argument("--input", required=True, help="CSV with columns x,y")
    s.add_argument("--criterion", required=True)
    s.add_argument("--sigma", default="known:1.0",
                   help="known:VALUE | estimated | estimated:M (default known:1.0)")

    s = subs.add_parser("simulate", help="run a simulation campaign")
    s.add_argument("--config", default="sim.json")

    s = subs.add_parser("tables", help="summarize a finished run into CSV tables")
    s.add_argument("--config", default="sim.json")
    s.add_argument("--runs", default=None,
                   help="runs.csv path (default <output_dir>/runs.csv)")
    s.add_argument("--out-dir", default=None, help="default <output_dir>")

    s = subs.add_parser("curvature", help="squared curvature at the ideal lambda")
    s.add_argument("--n", required=True, help="comma-separated sample sizes")
    _add_common_model_flags(s, "table1.csv")

    s = subs.add_parser("reversal", help="reversal-region diagnostics")
    s.add_argument("--n", required=True, help="comma-separated sample sizes")
    s.add_argument("--replicates", type=int, default=10000)
    s.add_argument("--seed", type=int, default=0)
    _add_common_model_flags(s, "reversal.csv")

    s = subs.add_parser("decompose", help="Monte Carlo extra-risk decomposition")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--criterion", required=True)
    s.add_argument("--replicates", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--truth", default="paper-fig3")
    s.add_argument("--sigma", type=float, default=1.0)
    s.add_argument("--design", default=DEFAULT_DESIGN)
    s.add_argument("--cache-dir", default="spectra")
    s.add_argument("--out", default="decomposition.json")

    s = subs.add_parser("rates", help="slopes of lambda_c and df_c against n")
    s.add_argument("--n", required=True,
                   help="comma-separated increasing sample sizes (>= 4)")
    _add_common_model_flags(s, "rates.csv")

    return parser


def _cmd_spectrum(args) -> str:
    design = _parse_design(args.design, simlab.check_n_list([args.n], "--n"))
    spec, _ = oracle.setting(design, args.n, "zero", 1.0, args.cache_dir)
    return (f"spectrum n={spec.n} null_dim={spec.null_dim} "
            f"k_max={spec.k.max():.6g} cached in {args.cache_dir}")


def _cmd_select(args) -> str:
    c = criterion_by_name(args.criterion)
    rows = []
    with open(args.input, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"x", "y"} <= set(reader.fieldnames):
            raise ConfigError(f"{args.input} must have columns x,y")
        for row in reader:
            try:
                rows.append((float(row["x"]), float(row["y"])))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{args.input} line {reader.line_num}: x and y must be "
                                  f"numbers, got {row['x']!r}, {row['y']!r}") from exc
    if len(rows) < 5:
        raise ConfigError("need at least 5 data rows")
    rows.sort()
    x = np.array([r[0] for r in rows])
    y = np.array([r[1] for r in rows])
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ConfigError(f"{args.input}: x and y must be finite (no nan or inf)")
    repeated = x[1:][np.diff(x) == 0]
    if len(repeated):
        raise ConfigError(f"{args.input}: x values must be distinct, {repeated[0]:g} repeats")
    spec = decompose(build_design("explicit", points=x))
    coeffs = rotate(spec, y, 1.0)
    estimated, M, sigma = simlab.parse_sigma_mode(args.sigma, spec.n, known_value=True)
    if estimated:
        s2 = sigma_estimate(coeffs, M)
        if not simlab.usable_sigma_estimate(s2):
            raise NumericError(f"{simlab.UNUSABLE_SIGMA_ESTIMATE} (sigma_estimate over the "
                               f"top {M + 2} rotated components)")
        sigma = float(np.sqrt(s2))
    picked = select(c, spec, coeffs / sigma)
    return (f"select criterion={c.name} n={spec.n} lambda_hat={picked.lam_hat:.8g} "
            f"df_hat={picked.df_hat:.4f} sigma={sigma:.6g} "
            f"at_boundary={picked.at_boundary}")


def _cmd_simulate(args) -> str:
    cfg = SimConfig.from_json(Path(args.config).read_text())
    out = Path(cfg.output_dir)
    runs_path = out / "runs.csv"
    count = simlab.write_runs_csv(simlab.run_simulation(cfg), runs_path)
    return f"simulate wrote {count} records to {runs_path}"


def _cmd_tables(args) -> str:
    cfg = SimConfig.from_json(Path(args.config).read_text())
    runs = Path(args.runs) if args.runs else Path(cfg.output_dir) / "runs.csv"
    records = simlab.read_runs_csv(runs)
    paths = simlab.emit_tables(records, cfg, args.out_dir)
    names = ", ".join(str(p) for p in paths.values())
    return f"tables wrote {names} from {len(records)} records"


def _model_inputs(args):
    ns = _parse_n_list(args.n)
    design = _parse_design(args.design, ns, args.truth)
    simlab.check_sigma(args.sigma)
    ids = [tok.strip() for tok in args.criteria.split(",") if tok.strip()]
    return design, ns, simlab.check_criteria(ids, "--criteria")


def _cmd_curvature(args) -> str:
    design, ns, criteria = _model_inputs(args)
    names = [c.name for c in criteria]
    simlab.write_curvature_table(args.out, names, design, ns, args.truth, args.sigma,
                                 args.cache_dir)
    return f"curvature wrote {Path(args.out)} for n={ns} criteria={names}"


def _cmd_reversal(args) -> str:
    design, ns, criteria = _model_inputs(args)
    simlab.check_seed(args.seed)
    if args.replicates < geometry.REVERSAL_MIN_REPLICATES:
        raise ConfigError(f"reversal needs --replicates >= {geometry.REVERSAL_MIN_REPLICATES}")
    # One setting, ideal lambda and set of draws per n, and one moment set
    # per distinct q, shared by every criterion; rows stay grouped by criterion.
    rows = [[] for _ in criteria]
    for n in ns:
        spec, truth = oracle.setting(design, n, args.truth, args.sigma, args.cache_dir)
        lam0 = oracle.ideal_lambda(spec, truth).lam
        moments = geometry.reversal_moments(criteria, spec, truth, lam0)
        probs = geometry.reversal_probs_mc(criteria, spec, truth, lam0,
                                           args.replicates, args.seed)
        for block, c, rs, (prob, se) in zip(rows, criteria, moments, probs):
            block.append([c.name, n, rs.lam0, rs.beta, rs.M, rs.V, rs.T_n,
                          rs.prob_normal, prob, se])
        del spec, truth  # released before the next n's setting is built
    simlab._write_csv(args.out, ["criterion", "n", "lambda0", "beta", "mean", "variance",
                                 "t_stat", "prob_normal", "prob_mc", "mc_se"],
                      (row for block in rows for row in block))
    return f"reversal wrote {Path(args.out)} ({args.replicates} draws per cell)"


def _cmd_decompose(args) -> str:
    design = _parse_design(args.design, simlab.check_n_list([args.n], "--n"), args.truth)
    simlab.check_sigma(args.sigma)
    simlab.check_seed(args.seed)
    if args.replicates < oracle.DECOMPOSITION_MIN_REPLICATES:
        raise ConfigError(f"decompose needs --replicates >= {oracle.DECOMPOSITION_MIN_REPLICATES}")
    c = criterion_by_name(args.criterion)
    spec, truth = oracle.setting(design, args.n, args.truth, args.sigma, args.cache_dir)
    report = oracle.decomposition_mc(c, spec, truth, args.replicates, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report.to_json())
    return (f"decompose wrote {out} (criterion={c.name} n={args.n} "
            f"bias={report.bias_term:.6g} var={report.variability_term:.6g})")


def _cmd_rates(args) -> str:
    design, ns, criteria = _model_inputs(args)
    if len(ns) < oracle.RATE_MIN_SIZES or ns != sorted(ns):
        raise ConfigError(f"rates needs >= {oracle.RATE_MIN_SIZES} increasing --n values")
    probes = oracle.rate_probes(criteria, design, ns, args.truth, sigma=args.sigma,
                                cache_dir=args.cache_dir)
    simlab._write_csv(args.out, ["criterion", "n", "lambda_c", "df_c",
                                 "slope_lambda", "slope_df"],
                      ([c.name, n, lam_c, df_c, probe.slope_lambda, probe.slope_df]
                       for c, probe in zip(criteria, probes) for n, lam_c, df_c in probe.rows))
    note = "; ".join(f"{c.name}: boundary at n={probe.excluded}"
                     for c, probe in zip(criteria, probes) if probe.excluded)
    return f"rates wrote {Path(args.out)} ({note or 'no boundary exclusions'})"


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "select": _cmd_select,
    "simulate": _cmd_simulate,
    "tables": _cmd_tables,
    "curvature": _cmd_curvature,
    "reversal": _cmd_reversal,
    "decompose": _cmd_decompose,
    "rates": _cmd_rates,
}


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through.
        return int(exc.code or 0)
    try:
        # A non-finite result reaches the user as one NumericError from the
        # package's guards, not as numpy's warnings ahead of it on stderr.
        with np.errstate(all="ignore"):
            print(_COMMANDS[args.command](args))
        return 0
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return USAGE_EXIT
    except (NumericError, ValueError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return FAILURE_EXIT


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
