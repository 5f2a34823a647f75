"""Every module-level import in the package is used by the module that makes
it, re-exported to another package module, or marked `# noqa`."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "splinesel"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imports(tree: ast.Module):
    """(bound name, line) of each name a top-level import binds."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, alias.lineno


def _reexports() -> set[tuple[str, str]]:
    """(module, name) of each name one package module imports from another."""
    taken = set()
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                taken.update((node.module, alias.name) for alias in node.names)
    return taken


def _used(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names listed in __all__ are exports
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names.update(elt.value for elt in node.value.elts)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_are_used(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used, reexported = _used(tree), _reexports()
    unused = [f"{path.name}:{line}: {name}" for name, line in _imports(tree)
              if name not in used and (path.stem, name) not in reexported
              and "# noqa" not in lines[line - 1]]
    assert unused == []


def test_check_sees_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\nprint(sep)\n")
    used = _used(tree)
    assert [name for name, _ in _imports(tree) if name not in used] == ["math", "path"]


def _unreferenced_private_functions(trees: dict[str, ast.Module]) -> list[str]:
    """module.name of each private top-level function that no code in trees
    reads outside its own def (a call, or an attribute or name load)."""
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    unread = []
    for module, tree in trees.items():
        for fn in tree.body:
            if (not isinstance(fn, ast.FunctionDef) or not fn.name.startswith("_")
                    or fn.name.startswith("__")):
                continue
            own = {id(node) for node in ast.walk(fn)}
            read = any(
                id(node) not in own
                and ((isinstance(node, ast.Name) and node.id == fn.name)
                     or (isinstance(node, ast.Attribute) and node.attr == fn.name))
                for node in nodes)
            if not read:
                unread.append(f"{module}.{fn.name}")
    return unread


def test_private_functions_have_package_callers():
    # A private helper whose only caller is a test belongs in the tests.
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    assert _unreferenced_private_functions(trees) == []


def test_check_sees_a_private_function_without_a_caller():
    trees = {"a": ast.parse("def _used(): pass\ndef _self(): return _self()\n"
                            "def __dunder__(): pass\n"),
             "b": ast.parse("from .a import _used\nx = _used()\n")}
    assert _unreferenced_private_functions(trees) == ["a._self"]


# The names that describe the spectrum cache's files.  Only spectrum, whose
# cached_decompose reads and writes them, may use them; every other module
# reaches a cached spectrum through cached_decompose (or oracle.setting).
_CACHE_FILE_NAMES = {"cache_key", "_cache_path"}


def _cache_file_name_uses(trees: dict[str, ast.Module]) -> list[str]:
    """module.name of each import, name or attribute of _CACHE_FILE_NAMES
    outside spectrum."""
    uses = []
    for module, tree in trees.items():
        if module == "spectrum":
            continue
        for node in ast.walk(tree):
            name = (node.name if isinstance(node, ast.alias)
                    else node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in _CACHE_FILE_NAMES:
                uses.append(f"{module}.{name}")
    return uses


def test_only_spectrum_names_cache_files():
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    assert _cache_file_name_uses(trees) == []


def test_check_sees_a_cache_file_name_outside_spectrum():
    trees = {"spectrum": ast.parse("def cache_key(): pass\nkey = cache_key()\n"),
             "simlab": ast.parse("from .spectrum import _cache_path, rotate\n"),
             "cli": ast.parse("from . import spectrum\nkey = spectrum.cache_key\n")}
    assert _cache_file_name_uses(trees) == ["simlab._cache_path", "cli.cache_key"]


# Every Monte Carlo route draws its replicates' spectral data z = g + eps
# through _rng.spectral_blocks, so no other module draws replicate rows.
_DRAW = "replicate_block"


def _draw_callers(trees: dict[str, ast.Module]) -> list[str]:
    """Each module other than _rng that calls _DRAW, by name or attribute."""
    return [module for module, tree in trees.items() if module != "_rng"
            and any(isinstance(node, ast.Call)
                    and (getattr(node.func, "id", None) == _DRAW
                         or getattr(node.func, "attr", None) == _DRAW)
                    for node in ast.walk(tree))]


def test_only_rng_draws_replicate_rows():
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    assert _draw_callers(trees) == []


def test_check_sees_a_replicate_draw_outside_rng():
    trees = {"_rng": ast.parse("def replicate_block(): pass\nz = replicate_block()\n"),
             "oracle": ast.parse("from ._rng import replicate_block\nz = replicate_block()\n"),
             "simlab": ast.parse("from . import _rng\nz = _rng.replicate_block()\n"),
             "geometry": ast.parse("from ._rng import spectral_blocks\n")}
    assert _draw_callers(trees) == ["oracle", "simlab"]
