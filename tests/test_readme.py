"""The README's Python examples run as written, its commands parse, and
the CSV columns it documents are the ones written."""

import inspect
import json
import re
import shlex
from pathlib import Path

import pytest

import splinesel
from splinesel.cli import build_parser, cli
from splinesel.simlab import RUNS_COLUMNS

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
COMMANDS = [line for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(),
                                         flags=re.S | re.M)
            for line in block.splitlines() if line.startswith("splinesel ")]


def test_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=lambda s: s.splitlines()[0])
def test_readme_python_block_runs(source, capsys):
    exec(compile(source, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_names_every_public_function():
    # The public API holds what the README documents: every function in
    # splinesel.__all__ is named there in code type, as `name` or `name(...`.
    text = README.read_text()
    missing = [name for name in splinesel.__all__
               if inspect.isfunction(getattr(splinesel, name))
               and not re.search(rf"`(?:[\w.]+\.)?{name}[`(]", text)]
    assert missing == []


def test_readme_has_command_examples():
    assert COMMANDS


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_parses(line):
    # Parsed only, never run: the flags in the examples must be the CLI's.
    argv = shlex.split(line, comments=True)[1:]
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"README command does not parse ({exc.code}): {line}")


def documented_columns() -> dict[str, list[str]]:
    """File name -> column list, from each `File formats` bullet that names
    CSV files before its colon and gives `columns `a, b, ...``."""
    section = README.read_text().split("## File formats\n", 1)[1].split("\n## ", 1)[0]
    columns = {}
    for bullet in section.split("\n- ")[1:]:
        head, _, body = bullet.partition(": ")
        found = re.search(r"columns(?: exactly)?\s+`([^`]+)`", body)
        for name in re.findall(r"`(\w+\.csv)`", head):
            columns[name] = [col.strip() for col in found.group(1).split(",")] if found else None
    return columns


@pytest.fixture(scope="module")
def written_headers(tmp_path_factory):
    """The header of every CSV written by one small run of each command."""
    tmp = tmp_path_factory.mktemp("headers")
    cache = str(tmp / "spectra")
    config = tmp / "sim.json"
    config.write_text(json.dumps({
        "design": {"kind": "equispaced", "lo": -1.0, "hi": 1.0}, "n_list": [31],
        "replicates": 2, "seed": 1, "criteria": ["cp", "gml", "ee"],
        "truth": "paper-fig3", "sigma": 1.0, "output_dir": str(tmp / "run")}))
    runs = [
        ["simulate", "--config", str(config)],
        ["tables", "--config", str(config)],
        ["curvature", "--n", "31,61", "--cache-dir", cache, "--out", str(tmp / "curvature.csv")],
        ["reversal", "--n", "31", "--replicates", "1000", "--cache-dir", cache,
         "--out", str(tmp / "reversal.csv")],
        ["rates", "--n", "31,41,51,61", "--cache-dir", cache, "--out", str(tmp / "rates.csv")],
    ]
    for argv in runs:
        assert cli(argv) == 0, argv
    paths = [*(tmp / "run").glob("*.csv"), *tmp.glob("*.csv")]
    return {p.name: p.read_text().splitlines()[0].split(",") for p in paths}


def test_readme_documents_each_csv_header(written_headers):
    assert written_headers["runs.csv"] == RUNS_COLUMNS
    assert documented_columns() == written_headers
