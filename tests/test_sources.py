"""The package and test modules as source: no top-level definition is
shadowed, and every test selector of the CI workflow selects a test."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "resonance_lab").glob("*.py"), *(ROOT / "tests").glob("*.py")])
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


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


def defined_tests(path: Path) -> list[str]:
    """The top-level test functions that path defines."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")]


def test_each_deep_sweep_selector_names_a_test():
    # a renamed test drops out of a -k selection without an error: each term
    # of each -k "a or b" of the deep sweep must be part of a test's name in
    # the file its command runs
    step = WORKFLOW.read_text().split("- name: Deep hypothesis sweep\n", 1)[1].split("- name:", 1)[0]
    selections = re.findall(r'pytest .*?(tests/\S+\.py) .*?-k "([^"]*)"', step)
    assert selections and len(selections) == step.count("python -m pytest")
    unmatched = [f"{path}: {term}" for path, expression in selections for term in expression.split(" or ")
                 if not any(term in name for name in defined_tests(ROOT / path))]
    assert unmatched == []
