"""Every public module-level function and class of the package has a user:
the package's own code, the benchmark, or the tests that compare a
production path against it."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rauzygasket"

# references that tests compare a production path against
REFERENCES = {
    "first_return": "the scalar walk that measures._first_returns is checked against",
    "cylinder_measure": "the Fraction chart mass that the integer cylinder walk is checked against",
    "path_probability": "the octant-relative mass N(q) / N(B q) of a winner cone",
    "read_points_binary": "reads what `points --format bin` writes",
}


def _used_names(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_definition_is_reached():
    defined = []  # (module, name)
    used = {}  # top-level statement -> the names it uses
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            used[stmt] = _used_names(stmt)
            is_def = isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            if path.name != "__init__.py" and is_def and not stmt.name.startswith("_"):
                defined.append((path.stem, stmt))
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    unreached = []
    for module, stmt in defined:
        name = stmt.name
        if any(name in names for other, names in used.items() if other is not stmt):
            continue
        if re.search(rf"\b{name}\b", bench) or name in REFERENCES:
            continue
        unreached.append(f"{module}.{name}")
    assert unreached == []
