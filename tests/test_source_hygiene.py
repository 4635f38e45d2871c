"""Code nothing calls gets deleted: each module uses every name it imports, and
every private top-level name is referenced somewhere in the package.  Every name
a module exports in ``__all__`` is bound in it, so ``import *`` works."""

import ast
import importlib
from pathlib import Path

import pytest

SOURCES = {p.name: p.read_text(encoding="utf-8")
           for p in sorted((Path(__file__).parents[1] / "src" / "zenosim").glob("*.py"))}
TREES = {name: ast.parse(source) for name, source in SOURCES.items()}


def _loaded(tree) -> set[str]:
    """Names read in tree, as variables or as attributes."""
    return ({n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__.py"}))
def test_imports_are_used_and_private_names_referenced(module):
    tree = TREES[module]
    imported = {(a.asname or a.name).split(".")[0] for n in ast.walk(tree)
                if isinstance(n, (ast.Import, ast.ImportFrom))
                and getattr(n, "module", None) != "__future__"
                for a in n.names}
    assert sorted(imported - _loaded(tree)) == []
    defined = {t.id for n in tree.body if isinstance(n, (ast.Assign, ast.AnnAssign))
               for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
               if isinstance(t, ast.Name)}
    defined |= {n.name for n in tree.body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    everywhere = set().union(*map(_loaded, TREES.values()))
    assert sorted(name for name in defined
                  if name.startswith("_") and not name.startswith("__")
                  and name not in everywhere) == []


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__.py"}))
def test_every_exported_name_is_bound(module):
    mod = importlib.import_module(f"zenosim.{module.removesuffix('.py')}")
    assert sorted(name for name in getattr(mod, "__all__", ())
                  if not hasattr(mod, name)) == []


@pytest.mark.parametrize("module", ["analysis", "engines", "errors", "models", "spectral"])
def test_package_names_are_the_modules_exports(module):
    """``zenosim`` takes these modules' names by ``from .module import *`` alone, so each
    is listed once: in the module's ``__all__``, or for ``errors``, which has none, as
    its exception classes, its only public names.  Each is bound to the same object."""
    import zenosim
    assert [a.name for n in TREES["__init__.py"].body
            if isinstance(n, ast.ImportFrom) and n.module == module for a in n.names] == ["*"]
    mod = importlib.import_module(f"zenosim.{module}")
    names = getattr(mod, "__all__", [name for name in vars(mod) if not name.startswith("_")])
    if module == "errors":
        assert all(issubclass(getattr(mod, name), Exception) for name in names)
    assert names and [name for name in names
                      if getattr(zenosim, name, None) is not getattr(mod, name)] == []


@pytest.mark.parametrize("text", ["2**63", "strictly increasing"])
def test_each_range_fact_is_written_in_one_module(text):
    """The count bound and the order check each live in one module: every other
    module, the scenario schema too, calls that module's checker."""
    assert [name for name, source in SOURCES.items() if text in source] == ["engines.py"]


def test_magnitude_bound_written_once():
    """The domain bound 2**128 is one float literal, ``linalg.MAGNITUDE_BOUND``: no other
    module writes 2**128, 2**-128 or 2**256 as a number, so each reads the bound there."""
    from zenosim.linalg import MAGNITUDE_BOUND
    assert MAGNITUDE_BOUND == 2.0**128
    edges = {128, -128, 2.0**128, 2.0**-128, 2.0**256}
    assert [name for name, tree in TREES.items()
            if edges & {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
                        and type(n.value) in (int, float)}] == ["linalg.py"]


def test_magnitude_bound_compared_only_at_linalg_gates():
    """A Frobenius norm is bounded in ``linalg._bounded`` and an evaluator's argument in
    ``linalg._phases``: no other code squares the bound, and ``analysis`` calls the former."""
    assert {name: source.count("MAGNITUDE_BOUND * MAGNITUDE_BOUND")
            for name, source in SOURCES.items()
            if "MAGNITUDE_BOUND * MAGNITUDE_BOUND" in source} == {"linalg.py": 2}
    assert "MAGNITUDE_BOUND" not in SOURCES["analysis.py"]


def test_exponentials_written_only_in_phases_and_kick_matrices():
    """Every spectral phase passes ``linalg._phases``: besides it, ``np.exp(`` appears only
    in the Cayley rotation of ``linalg._cayley_eig`` and in the builders' kick matrices."""
    assert {name: source.count("np.exp(") for name, source in SOURCES.items()
            if "np.exp(" in source} == {"linalg.py": 2, "models.py": 3}


def test_hermitian_part_written_once():
    """Every (m + m†)/2 is ``linalg._hermitian_part``, which halves each term before it
    adds: no module writes ``0.5 * (``, a sum that overflows before it is halved."""
    assert [name for name, source in SOURCES.items() if "0.5 * (" in source] == []


def _csv_joins(node) -> int:
    return sum(isinstance(n, ast.Attribute) and n.attr == "join"
               and isinstance(n.value, ast.Constant) and n.value.value == ","
               for n in ast.walk(node))


def test_csv_cells_joined_in_one_writer():
    """Every CSV line ``zenosim run`` writes comes from ``cli._csv_lines``: no other code
    in ``cli.py`` joins cells with ``",".join``, so a second writer cannot come back."""
    assert [getattr(node, "name", "module level") for node in TREES["cli.py"].body
            if _csv_joins(node)] == ["_csv_lines"]


def test_coupling_generator_formed_once():
    """H + K H_c is formed in ``engines._continuous_generator`` alone, which checks and
    bounds it: no other code writes ``np.multiply.outer(``."""
    assert {name: source.count("np.multiply.outer(") for name, source in SOURCES.items()
            if "np.multiply.outer(" in source} == {"engines.py": 1}


def test_coupling_route_decided_in_the_builder():
    """H decides the continuous route, once, in ``engines._continuous_generator``: no other
    engine, ``_sample_continuous`` included, calls ``hermiticity_defect``."""
    assert [node.name for node in TREES["engines.py"].body
            if isinstance(node, ast.FunctionDef)
            and "hermiticity_defect" in _loaded(node)] == ["_continuous_generator"]
