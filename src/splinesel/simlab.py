"""End-to-end simulation lab: data generation, per-replicate selection,
and plot-ready summary tables.

A run is described by a single JSON-serializable config.  Each sample
size's design is decomposed once into the disk cache: a run first builds
every n's setting, largest n first, without its basis, and the cache's
reader rebuilds each spectrum that is missing, stale or unreadable there, so
its peak memory is one build of its largest n whatever the order of n_list
or the state of the cache.  Then, n by n in n_list order, every replicate's
spectral data is z = g + eps with eps keyed by (seed, n, replicate), the
law of U'y / sigma for y = f + sigma * eps' since U is orthogonal; the
identical z goes to every requested criterion, and one record per (n,
replicate, criterion) streams into runs.csv.  The campaign runs in one
process; replicates are selected in fixed blocks of BLOCK_ROWS counted from
replicate 0 (spectral_blocks), so a run's output depends only on its config.
"""

from dataclasses import MISSING, asdict, dataclass, fields
import ast
import csv
import itertools
import json
import logging
import math
import operator
import os
import re
from pathlib import Path

import numpy as np

from . import geometry, oracle
from ._rng import spectral_blocks
from .criteria import (
    Criterion,
    _select_rows,
    criterion_by_name,
    default_sigma_m,
    select,  # noqa: F401  bound here for perfbench/test_bench.py's tracer check
    sigma_estimate,
)
from .errors import ConfigError, NumericError
from .spectrum import (BLOCK_ROWS, MIN_DESIGN_POINTS, DesignGrid, DesignSpectrum, _in_slices,
                       _shrink, build_design)

log = logging.getLogger("splinesel")


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign; mirrors the JSON config document."""

    design: dict
    n_list: list[int]
    replicates: int
    seed: int
    criteria: list[str]
    truth: str
    sigma: float
    sigma_mode: str = "known"
    output_dir: str = "out"

    def validate(self) -> "SimConfig":
        check_n_list(self.n_list)
        if not _is_int(self.replicates) or self.replicates < 1:
            raise ConfigError(f"replicates must be an integer >= 1, got {self.replicates!r}")
        check_seed(self.seed)
        check_sigma(self.sigma)
        for field in ("truth", "sigma_mode", "output_dir"):
            if not isinstance(getattr(self, field), str):
                raise ConfigError(f"{field} must be a string")
        check_criteria(self.criteria)
        for grid in check_design(self.design, self.n_list):
            truth_curve(self.truth, grid)
            parse_sigma_mode(self.sigma_mode, grid.n)
        return self

    @classmethod
    def from_json(cls, text: str) -> "SimConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError("config must be a JSON object")
        extra = set(payload) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(payload)
        if missing:
            raise ConfigError(f"missing config fields: {sorted(missing)}")
        return cls(**payload).validate()

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_seed(seed) -> None:
    """Seeds, in configs and --seed flags, are integers in [0, 2**128)."""
    if not _is_int(seed) or not 0 <= seed < 2**128:
        raise ConfigError(f"seed must be an integer in [0, 2**128), got {seed!r}")


def check_n_list(n_list, name: str = "n_list") -> list[int]:
    """Sample sizes, in configs and --n flags, are a nonempty list of
    distinct integers >= MIN_DESIGN_POINTS."""
    if (not isinstance(n_list, list) or not n_list
            or not all(_is_int(n) and n >= MIN_DESIGN_POINTS for n in n_list)
            or len(set(n_list)) != len(n_list)):
        raise ConfigError(f"{name} must be a nonempty list of distinct integers >= "
                          f"{MIN_DESIGN_POINTS}, got {n_list!r}")
    return n_list


def check_criteria(ids, name: str = "criteria") -> list[Criterion]:
    """Criterion ids, in configs and --criteria flags, are a nonempty list
    naming each criterion once, compared in canonical form (so "CP" repeats
    "cp").  Returns the criteria."""
    if not isinstance(ids, list) or not ids or not all(isinstance(i, str) for i in ids):
        raise ConfigError(f"{name} must be a nonempty list of criterion ids")
    criteria = [criterion_by_name(i) for i in ids]
    if len({c.name for c in criteria}) != len(criteria):
        raise ConfigError(f"{name} must name each criterion once, got {ids!r}")
    return criteria


def check_sigma(sigma) -> float:
    """Noise sds, in configs and --sigma flags, are positive and finite."""
    if not _is_real(sigma) or not (math.isfinite(sigma) and sigma > 0):
        raise ConfigError(f"sigma must be positive and finite, got {sigma!r}")
    return sigma


# The fields each design kind takes besides "kind", with their types; the
# values themselves (hi > lo, a known dist, ...) are checked by build_design.
_DESIGN_FIELDS = {
    "equispaced": {"lo": _is_real, "hi": _is_real},
    "quantile": {"dist": lambda v: isinstance(v, str)},
    "explicit": {"points": lambda v: isinstance(v, list) and all(map(_is_real, v))},
}


def check_design(design, n_list) -> list[DesignGrid]:
    """Check a design object: a known kind with exactly that kind's fields,
    buildable at every sample size in n_list.  Returns the grid of each size.

    An explicit design has one size, its point count.  Shared by config
    validation and the CLI's --design flag, with the sizes of n_list or --n.
    A grid is built in O(n), so a bad value fails here, before any work.
    """
    if not isinstance(design, dict) or "kind" not in design:
        raise ConfigError("design must be an object with a 'kind' field")
    fields = _DESIGN_FIELDS.get(design["kind"]) if isinstance(design["kind"], str) else None
    if fields is None:
        raise ConfigError(
            f"unknown design kind {design['kind']!r} (one of {sorted(_DESIGN_FIELDS)})")
    given = set(design) - {"kind"}
    if given != set(fields):
        raise ConfigError(
            f"{design['kind']} design takes fields {sorted(fields)}: "
            f"unknown {sorted(given - set(fields))}, missing {sorted(set(fields) - given)}")
    for name, ok in fields.items():
        if not ok(design[name]):
            raise ConfigError(f"bad design field {name}: {design[name]!r}")
    if design["kind"] == "explicit":
        size = len(design["points"])
        bad = [n for n in n_list if n != size]
        if bad:
            raise ConfigError(f"explicit design has {size} points, so n must be {size}, "
                              f"got n={bad[0]}")
    values = {name: design[name] for name in fields}
    try:
        return [build_design(design["kind"], n, **values) for n in n_list]
    except ValueError as exc:
        raise ConfigError(f"bad {design['kind']} design: {exc}") from exc


def parse_sigma_mode(mode: str, n: int, *,
                     known_value: bool = False) -> tuple[bool, int, float | None]:
    """The one sigma-mode grammar -> (estimated?, M, sigma) at sample size n.

    'estimated' takes M = default_sigma_m(n) and 'estimated:M' its own M,
    the tail size of sigma_estimate, with 5 <= M <= n - 5.  A config's
    sigma_mode says 'known' and takes sigma from the config (None here).
    The select command's --sigma (known_value) says 'known:VALUE' instead,
    and sigma is VALUE, positive and finite.
    """
    if known_value and mode.startswith("known:"):
        try:
            sigma = float(mode.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad --sigma {mode!r}") from exc
        return False, 0, check_sigma(sigma)
    if mode == "known":
        if known_value:
            raise ConfigError("--sigma known needs a value: known:VALUE")
        return False, 0, None
    if mode == "estimated":
        M = default_sigma_m(n)
    elif mode.startswith("estimated:"):
        try:
            M = int(mode.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad sigma_mode {mode!r}") from exc
    else:
        raise ConfigError(f"bad sigma_mode {mode!r} (known | estimated | estimated:M)")
    if not 5 <= M <= n - 5:
        raise ConfigError(f"sigma_mode {mode!r} needs 5 <= M <= n - 5, got M={M} at n={n}")
    return True, M, None


UNUSABLE_SIGMA_ESTIMATE = "noise-scale estimate is zero or not finite"


def usable_sigma_estimate(s2):
    """The one rule for a usable sigma_estimate, per row of a block's
    estimates: finite and positive.  Others get UNUSABLE_SIGMA_ESTIMATE."""
    return np.isfinite(s2) & (s2 > 0)


_EXPR_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
}
_EXPR_CONSTS = {"pi": np.pi, "e": np.e}
_EXPR_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_EXPR_BINARY = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod, ast.Pow: operator.pow,
}
# Truth ids that name an expression; "x - x" is +0.0 at every finite x.
_NAMED_CURVES = {"paper-fig3": "sin(pi * (x + 1)) / (x / 2 + 1)", "zero": "x - x"}


def _eval_expr(node, x):
    """Evaluate a parsed truth expression node by node over a whitelist:
    numbers, x, pi, e, unary and binary arithmetic, and one-argument calls
    of _EXPR_FUNCS.  Anything else is a ConfigError."""
    if isinstance(node, ast.Constant) and _is_real(node.value):
        return node.value
    if isinstance(node, ast.Name) and (node.id == "x" or node.id in _EXPR_CONSTS):
        return x if node.id == "x" else _EXPR_CONSTS[node.id]
    if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_UNARY:
        return _EXPR_UNARY[type(node.op)](_eval_expr(node.operand, x))
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_BINARY:
        left, right = _eval_expr(node.left, x), _eval_expr(node.right, x)
        # Integer powers are exact in Python; refuse ones far past the float
        # range rather than spend unbounded time and memory on them.
        if (isinstance(node.op, ast.Pow) and _is_int(left) and _is_int(right)
                and abs(left) > 1 and right * math.log2(abs(left)) > 1100):
            raise ConfigError(f"integer power {ast.unparse(node)!r} is out of range")
        return _EXPR_BINARY[type(node.op)](left, right)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _EXPR_FUNCS and len(node.args) == 1 and not node.keywords):
        return _EXPR_FUNCS[node.func.id](_eval_expr(node.args[0], x))
    raise ConfigError(f"{ast.unparse(node)!r} is not allowed")


def truth_curve(curve_id: str, grid: DesignGrid) -> np.ndarray:
    """Evaluate a true curve, named by its id, on the design points.

    Built-ins: "paper-fig3" = sin(pi(x+1))/(x/2+1), "zero", and
    "linear(a,b)" = a + b x.  Anything else is read as an arithmetic
    expression in x: numbers, the constants pi and e, + - * / // % **, and
    the numpy functions sin/cos/tan/exp/log/sqrt/abs of one argument.  The
    two named curves are such expressions, read by the same evaluator.
    """
    x = grid.x
    m = re.fullmatch(r"linear\(\s*([^,]+)\s*,\s*([^)]+)\s*\)", curve_id)
    # Every curve goes through the one finiteness check below; numpy's
    # warnings on the way there would only precede the error on stderr.
    with np.errstate(all="ignore"):
        if m:
            try:
                a, b = float(m.group(1)), float(m.group(2))
            except ValueError as exc:
                raise ConfigError(f"bad linear(...) parameters in {curve_id!r}") from exc
            value = a + b * x
        else:
            try:
                expr = _NAMED_CURVES.get(curve_id, curve_id)
                value = _eval_expr(ast.parse(expr, mode="eval").body, x)
            except Exception as exc:  # ConfigError, SyntaxError, arithmetic errors
                raise ConfigError(f"cannot interpret truth curve {curve_id!r}: {exc}") from exc
    value = np.asarray(value, dtype=float)
    if value.shape != x.shape or not np.all(np.isfinite(value)):
        raise ConfigError(f"truth curve {curve_id!r} did not produce a finite vector")
    return value


@dataclass(frozen=True)
class RunRecord:
    """One selection outcome; sqerr is the spectral-scale squared error
    ||g_hat - g||^2 and sqerr_response = sigma^2 * sqerr its response-scale
    twin."""

    n: int
    replicate: int
    criterion: str
    lambda_hat: float
    df_hat: float
    sqerr: float
    sqerr_response: float
    at_boundary: str


RUNS_COLUMNS = [f.name for f in fields(RunRecord)]


def spectra_cache_dir(cfg: SimConfig) -> Path:
    return Path(cfg.output_dir) / "spectra"


def _replicate_records(spec: DesignSpectrum, g: np.ndarray, criteria: list[Criterion],
                       sigma: float, sigma_mode: tuple, start: int, z,
                       work: np.ndarray) -> list[RunRecord]:
    """Records of one block of replicates, start onwards, from their
    spectral data z (rows of g + eps); sigma_mode is parse_sigma_mode's
    result.  Each criterion selects the whole block at once, on z with known
    sigma and with an estimated one on z / sqrt(sigma_estimate(z, M)), whose
    divisor is sigma_hat / sigma; sigma enters only sqerr_response.
    u = |z|^(2/q) is written into work, the n's workspace of at least as
    many rows as z, once per distinct q (cp and gml share q = 1) for the
    package's one minimizer, _select_rows, whose guard raises NumericError
    on a block whose criterion is not finite; squared errors are summed in
    slices of rows (_in_slices), and one that is not finite, on either
    scale, raises NumericError too.  A replicate whose noise-scale estimate
    is not usable (usable_sigma_estimate) gets an error record per
    criterion."""
    estimated, M, _ = sigma_mode
    ok = np.ones(len(z), dtype=bool)
    if estimated:
        s2 = sigma_estimate(z, M)
        ok = usable_sigma_estimate(s2)
        if not ok.all():
            z = z[ok]
        scale = np.sqrt(s2[ok])[:, None]

    def sqerr(lam_hat, z):
        return ((_shrink(spec.k, lam_hat)[0] * z - g) ** 2).sum(axis=1)

    picks = [None] * len(criteria)
    if ok.any():
        u = work[:len(z)]
        for q in dict.fromkeys(c.q for c in criteria):
            if estimated:
                np.divide(z, scale, out=u)
                np.abs(u, out=u)
            else:
                np.abs(z, out=u)
            u **= 2.0 / q
            for i, c in enumerate(criteria):
                if c.q != q:
                    continue
                lam_hat, df_hat, flags = _select_rows(c, spec, u)
                with np.errstate(over="ignore", invalid="ignore"):
                    err = _in_slices(sqerr, spec.n, lam_hat, z)
                    response = sigma * sigma * err
                finite = np.isfinite(err) & np.isfinite(response)
                if not finite.all():
                    raise NumericError(
                        f"{c.name} squared error is not finite in "
                        f"{len(finite) - np.count_nonzero(finite)} of {len(finite)} rows")
                picks[i] = lam_hat, df_hat, err, response, flags

    index = np.cumsum(ok) - 1  # each good replicate's row among the selected ones
    out: list[RunRecord] = []
    for i, r in enumerate(range(start, start + len(ok))):
        for ci, c in enumerate(criteria):
            if ok[i]:
                (lam_hat, df_hat, err, response, flags), j = picks[ci], index[i]
                values = (float(lam_hat[j]), float(df_hat[j]),
                          float(err[j]), float(response[j]), flags[j])
            else:
                log.warning("replicate %d criterion %s failed: %s", r, c.name,
                            UNUSABLE_SIGMA_ESTIMATE)
                values = (math.nan, math.nan, math.nan, math.nan, "error")
            out.append(RunRecord(spec.n, r, c.name, *values))
    return out


def run_simulation(cfg: SimConfig):
    """Yield RunRecords for the whole campaign in deterministic order.

    Ordering is (n in cfg order, replicate, criterion in cfg order).  Every
    n's setting is built first, largest n first, without its basis (see
    oracle.setting): the cache's reader rebuilds every spectrum that is
    missing, stale or unreadable, and reads a valid file once.  Each n then
    selects from its setting, released once its records are out.  A spectrum
    failure aborts that n with one logged error; a replicate whose noise
    estimate is not usable yields an error-flagged record rather than
    disappearing, and selection's NumericError ends the run.
    """
    cfg.validate()
    cache = spectra_cache_dir(cfg)
    criteria = [criterion_by_name(name) for name in cfg.criteria]
    settings = {}
    for n in sorted(cfg.n_list, reverse=True):
        try:
            settings[n] = oracle.setting(cfg.design, n, cfg.truth, cfg.sigma, cache)
        except (ValueError, NumericError) as exc:
            settings[n] = str(exc)  # not the exception: its frames hold the build
    for n in cfg.n_list:
        built = settings.pop(n)
        if isinstance(built, str):
            log.error("n=%d aborted: %s", n, built)
            continue
        spec, truth = built
        sigma_mode = parse_sigma_mode(cfg.sigma_mode, n)
        work = np.empty((min(BLOCK_ROWS, cfg.replicates), n))
        for start, z in spectral_blocks(cfg.seed, n, cfg.replicates, truth.g):
            yield from _replicate_records(spec, truth.g, criteria, cfg.sigma, sigma_mode,
                                          start, z, work)
        del built, spec, truth, work  # released once this n's records are out


def _write_csv(path, header, rows) -> int:
    """Write a CSV of header and rows, creating its directory, with the
    bytes csv.writer writes: fields joined by commas, each line ended by
    \\r\\n.  Floats are written with 17 significant digits, so they
    round-trip exactly, and every other field as str.  A row is formatted
    in one step, by a format string kept per tuple of its field types.  No
    field the package writes needs quoting (a comma, a double quote, a line
    break, or an empty sole field), and each line is checked for that.  rows
    is consumed as it is written (a generator streams) into <name>.<pid>.tmp
    beside path, which replaces path only once every row is out: a run that
    fails leaves no file and an earlier one as it was.  Returns the row
    count."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    formats = {}
    commas = len(header) - 1
    count = 0
    try:
        with open(tmp, "w", newline="") as fh:
            for count, row in enumerate(itertools.chain([header], rows)):
                row = tuple(row)
                kinds = tuple(map(type, row))
                fmt = formats.get(kinds)
                if fmt is None:
                    fmt = formats[kinds] = ",".join(
                        "%.17g" if issubclass(kind, float) else "%s" for kind in kinds) + "\r\n"
                line = fmt % row
                assert (line.count(",") == commas and '"' not in line and line.count("\r") == 1
                        and line.count("\n") == 1 and len(line) > 2), \
                    f"{path}: {line!r} is not {commas + 1} fields free of quoting"
                fh.write(line)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return count


def write_runs_csv(records, path) -> int:
    return _write_csv(path, RUNS_COLUMNS, map(operator.attrgetter(*RUNS_COLUMNS), records))


def read_runs_csv(path) -> list[RunRecord]:
    """Read a runs.csv back; a row with the wrong field count or a value
    that does not parse as its RunRecord field's type is a ConfigError.
    Blank lines are skipped."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != RUNS_COLUMNS:
            raise ConfigError(f"{path} does not look like a runs.csv (header mismatch)")
        types = [f.type for f in fields(RunRecord)]
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != len(RUNS_COLUMNS):
                    raise ValueError(f"{len(row)} fields, expected {len(RUNS_COLUMNS)}")
                records.append(RunRecord(*(t(v) for t, v in zip(types, row))))
            except ValueError as exc:
                raise ConfigError(f"{path} line {reader.line_num}: {exc}") from exc
    return records


# --- summary tables ---------------------------------------------------------


def write_curvature_table(path, names, design: dict, n_list, truth: str, sigma: float,
                          cache_dir) -> dict[int, oracle.LambdaPoint]:
    """Write the curvature table (table1.csv): the squared curvature of each
    named criterion at the ideal smoothing parameter, one row per n.

    Each n's setting (see oracle.setting) is built, used and dropped in
    turn.  Returns the ideal point of each n.
    """
    criteria = [criterion_by_name(name) for name in names]
    ideal_points = {}

    def rows():
        for n in n_list:
            spec, known = oracle.setting(design, n, truth, sigma, cache_dir)
            ideal_points[n] = oracle.ideal_lambda(spec, known)
            yield [n] + [geometry.curvature_sq(c, spec, ideal_points[n].lam) for c in criteria]
            del spec, known  # released before the next n's setting is built

    _write_csv(path, ["n"] + [c.name for c in criteria], rows())
    return ideal_points


def emit_tables(records, cfg: SimConfig, out_dir=None) -> dict[str, Path]:
    """Write the four summary CSVs from a finished run.

    table1.csv:    squared curvature of each criterion at the ideal
                   smoothing parameter, one row per n (deterministic; see
                   write_curvature_table).
    table2.csv:    mean and sample sd of the spectral squared error per
                   (criterion, n) cell.
    fig4_hist.csv: df_hat histogram counts, unit-width bins anchored at
                   integers.
    df0_bars.csv:  ideal smoothing parameter and df per n.

    Criteria are named in canonical form (criterion_by_name(id).name), as
    runs.csv names them.  Cells with no usable records are emitted empty
    with a logged warning.
    """
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    paths = {name: out / f"{name}.csv" for name in ("table1", "table2", "fig4_hist", "df0_bars")}
    names = [c.name for c in check_criteria(cfg.criteria)]
    cells = {(name, n): [] for name in names for n in cfg.n_list}
    for r in records:  # a record outside every cell is dropped
        cells.get((r.criterion, r.n), []).append(r)
    ideal_points = write_curvature_table(paths["table1"], names, cfg.design, cfg.n_list,
                                         cfg.truth, cfg.sigma, spectra_cache_dir(cfg))

    def table2():
        for (name, n), cell in cells.items():
            vals = np.array([r.sqerr for r in cell if math.isfinite(r.sqerr)])
            if len(vals) == 0:
                log.warning("table2: no usable records for criterion=%s n=%d", name, n)
                yield [name, n, "", "", 0]
                continue
            sd = vals.std(ddof=1) if len(vals) > 1 else 0.0
            yield [name, n, float(vals.mean()), float(sd), len(vals)]

    def fig4_hist():
        for (name, n), cell in cells.items():
            vals = [r.df_hat for r in cell if math.isfinite(r.df_hat)]
            if not vals:
                log.warning("fig4_hist: no usable records for criterion=%s n=%d", name, n)
                yield [name, n, "", "", 0]
                continue
            lo = math.floor(min(vals))
            hi = max(math.ceil(max(vals)), lo + 1)
            counts, edges = np.histogram(vals, bins=np.arange(lo, hi + 1))
            for cnt, edge in zip(counts, edges[:-1]):
                yield [name, n, int(edge), int(edge) + 1, int(cnt)]

    _write_csv(paths["table2"], ["criterion", "n", "mean_sqerr", "sd_sqerr", "count"],
               table2())
    _write_csv(paths["fig4_hist"], ["criterion", "n", "bin_lo", "bin_hi", "count"],
               fig4_hist())
    _write_csv(paths["df0_bars"], ["n", "lambda0", "df0"],
               ([n, pt.lam, pt.df] for n, pt in ideal_points.items()))
    return paths
