"""The runtime is stdlib-only, and the package exports what it names.

Every ``src/twistlab/*.py`` is parsed, not imported: each import must be
relative, of ``twistlab`` itself, or of a standard-library module. Every
name in ``twistlab.__all__`` must resolve on the package.
"""

import ast
import sys
from pathlib import Path

import twistlab

SRC = Path(__file__).resolve().parent.parent / "src" / "twistlab"


def imported_modules(tree) -> list:
    """(line, top-level module) for every absolute import in the tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((node.lineno, a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.lineno, node.module.split(".")[0]))
    return out


def test_every_import_is_stdlib_or_twistlab():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, module in imported_modules(tree):
            assert module == "twistlab" or module in sys.stdlib_module_names, (
                f"{path.name}:{line} imports {module}")


def test_every_exported_name_resolves():
    assert len(twistlab.__all__) == len(set(twistlab.__all__))
    missing = [name for name in twistlab.__all__ if not hasattr(twistlab, name)]
    assert missing == []
