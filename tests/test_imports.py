"""Import boundaries between the modules of `src/oalg`, read from the AST.

The oracles are independent of the closure engine they check, and only
the acceptance suite imports them (the command line reaches them through
its `selftest` command alone); `import oalg` does not load them.  The congruence and homomorphism
enumerators in `algebra`, and the separator search in `amalgam` that
calls them, reach the brute-force filters that check them by no chain of
imports.  No module imports a name it never uses, and no private helper
is left that nothing calls.
"""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "oalg"
ORACLE_USERS = {"selftest"}


def imported_modules(path: Path) -> set[str]:
    """Every `oalg.<module>` the file imports, however it is spelled."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                base = ".".join(filter(None, ["oalg", node.module]))
            out.add(base)
            out.update(f"{base}.{a.name}" for a in node.names)
    return out


def test_oracles_do_not_import_the_closure_engine():
    assert "oalg.closure" not in imported_modules(SRC / "oracles.py")


def test_oracles_import_only_the_classes_of_algebra():
    # A function of `algebra` (its compatibility test, say) would make an
    # oracle share the code it checks.
    imported = imported_modules(SRC / "oracles.py")
    assert {name for name in imported if name.startswith("oalg.algebra.")} == {
        "oalg.algebra.Homomorphism", "oalg.algebra.OrderedAlgebra"}


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.stem not in ORACLE_USERS | {"oracles"}],
                         ids=lambda p: p.stem)
def test_only_entry_points_import_the_oracles(path):
    assert "oalg.oracles" not in imported_modules(path)


def test_importing_the_package_leaves_the_oracles_unloaded():
    code = "import sys, oalg; print('oalg.oracles' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC.parents[1] / "src",
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_importing_the_command_line_leaves_the_oracles_unloaded():
    # `selftest` loads them when its command runs, not when the CLI loads.
    code = ("import sys, oalg.cli; print([m for m in ('oalg.selftest', 'oalg.oracles',"
            " 'oalg.generators') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC.parents[1] / "src",
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def reachable_modules(stem: str) -> set[str]:
    """The `oalg` modules a module imports, directly or through others."""
    seen: set[str] = set()
    todo = [stem]
    while todo:
        for name in imported_modules(SRC / f"{todo.pop()}.py"):
            parts = name.split(".")
            if (len(parts) >= 2 and parts[0] == "oalg" and parts[1] not in seen
                    and (SRC / f"{parts[1]}.py").exists()):
                seen.add(parts[1])
                todo.append(parts[1])
    return seen


@pytest.mark.parametrize("stem", ["algebra", "amalgam"])
def test_enumerators_never_reach_their_oracles(stem):
    assert "oracles" not in reachable_modules(stem)


def unused_imports(path: Path) -> list[str]:
    """The names the file imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


# The package namespace imports names only to re-export them.
@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"],
                         ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def unreferenced_private_helpers() -> list[str]:
    """The top-level `_name` functions and classes of `src/oalg` whose
    name is read nowhere in `src/oalg` outside their own definition."""
    statements = [(path, stmt) for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    names_in = [{node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
                for _, stmt in statements]
    return [f"{path.stem}.{stmt.name}" for path, stmt in statements
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and stmt.name.startswith("_") and not stmt.name.startswith("__")
            and not any(stmt.name in names for (_, other), names in zip(statements, names_in)
                        if other is not stmt)]


def test_every_private_helper_is_used():
    assert unreferenced_private_helpers() == []


def reads_name(path: Path, name: str) -> bool:
    """Whether the file reads `name`: bare, as an attribute, or imported."""
    return any(getattr(node, "id", None) == name or getattr(node, "attr", None) == name
               or isinstance(node, ast.alias) and node.name == name
               for node in ast.walk(ast.parse(path.read_text())))


def test_only_the_derivation_closures_call_the_closure_engine():
    # `closure._close` records a derivation for every pair; the plain
    # closures in `relations` run Warshall over bitmask rows instead.
    defined = {stmt.name for stmt in ast.parse((SRC / "relations.py").read_text()).body
               if isinstance(stmt, ast.FunctionDef)}
    assert not defined & {"close", "_close"}
    assert [p.stem for p in sorted(SRC.glob("*.py")) if reads_name(p, "_close")] == ["closure"]


def test_every_boundary_the_benchmark_tracer_wraps_exists():
    # The tracer looks each boundary up with `vars(owner)[attr]`, so a
    # deleted or renamed one breaks `perfbench/run.py --trace 1`.
    path = SRC.parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in tracing.BOUNDARIES if attr not in vars(owner)]
    assert missing == []
    assert "separator_candidates" in vars(tracing.amalgam)
