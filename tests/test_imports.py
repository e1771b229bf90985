"""Import boundaries between the modules of `src/oalg`, read from the AST.

The oracles are independent of the closure engine they check, and only
the entry points (the command line, the acceptance suite and the package
namespace) use them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "oalg"
ORACLE_USERS = {"cli", "selftest", "__init__"}


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


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.stem not in ORACLE_USERS | {"oracles"}],
                         ids=lambda p: p.stem)
def test_only_entry_points_import_the_oracles(path):
    assert "oalg.oracles" not in imported_modules(path)
