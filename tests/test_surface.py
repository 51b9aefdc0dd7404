"""The package surface: every name `ealab.__all__` lists resolves, and no
module imports a name it never reads."""

import ast
from pathlib import Path

import ealab

SRC = Path(__file__).resolve().parent.parent / "src" / "ealab"

#: (module, name) imports that no module reads, each with why it stays
UNUSED_ALLOWED = {
    ("trees", "mutate_mask"):
        "bench/tracer.py patches trees.mutate_mask by name (ROADMAP item 7)",
}


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            read |= {elt.value for elt in node.value.elts}   # re-exports
    return {(path.stem, name) for name in imported - read}


def test_all_names_resolve_once():
    names = ealab.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(ealab, name)] == []


def test_no_unused_imports():
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        unused |= _unused_imports(path)
    assert unused == set(UNUSED_ALLOWED)
