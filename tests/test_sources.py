"""The package and test modules as source: no top-level definition is shadowed."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "resonance_lab").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def shadowed(path: Path) -> list[str]:
    """The top-level function and class names that path defines more than once;
    a later definition replaces the earlier, so a shadowed test never runs."""
    seen, twice = set(), []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in seen:
                twice.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
            seen.add(node.name)
    return twice


def test_no_module_defines_a_top_level_name_twice():
    assert len(MODULES) > 10
    assert [name for path in MODULES for name in shadowed(path)] == []
