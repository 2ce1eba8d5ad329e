"""The library holds only what the engine uses.

Every top-level function and class under src/confprod must be referenced
by code in src/ outside its own definition; a name that only the tests
read belongs with the tests' oracles (tests/formulas.py,
tests/dense_reference.py, tests/symbolic.py)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "confprod"


def unreferenced_names(root: Path) -> list[str]:
    """module.name of each top-level def or class that no Name or
    Attribute in root's modules reads, outside the definition itself; an
    import alone is not a reference."""
    definitions, references = {}, []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions[path.stem, node.name] = {id(inner) for inner in ast.walk(node)}
        references += [(path.stem, node.id if isinstance(node, ast.Name) else node.attr, id(node))
                       for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]
    return [f"{module}.{name}" for (module, name), inside in definitions.items()
            if not any(used == name and (where != module or node not in inside)
                       for where, used, node in references)]


def test_every_top_level_name_has_a_caller_in_src():
    assert unreferenced_names(SRC) == []


def test_the_scan_finds_a_name_only_its_own_body_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "from b import used\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
        "class Kept:\n    pass\n")
    (tmp_path / "b.py").write_text(
        "def used():\n    return a.Kept()\n\n"
        "def imported_only():\n    pass\n")
    (tmp_path / "c.py").write_text("from b import imported_only\n")
    assert unreferenced_names(tmp_path) == ["a.recursive", "b.imported_only"]
