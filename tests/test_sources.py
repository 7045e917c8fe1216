"""The package and test modules as source: no top-level definition is
shadowed, and the deep marker marks hypothesis sweeps only."""

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


def decorators(path: Path) -> dict[str, list[str]]:
    """The top-level functions of path, each with its decorators' dotted names
    (`pytest.mark.deep`, `given`), called or not."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name: [ast.unparse(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list]
            for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_the_deep_marker_marks_hypothesis_sweeps_only():
    # -m deep --hypothesis-profile=deep raises the example budget, which a test
    # without @given does not read
    marked = {f"{path.name}::{name}": names for path in MODULES if path.parent.name == "tests"
              for name, names in decorators(path).items() if "pytest.mark.deep" in names}
    assert marked
    assert [name for name, names in marked.items() if "given" not in names] == []
