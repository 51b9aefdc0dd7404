"""The package surface: every name `ealab.__all__` lists resolves, no
module imports a name it never reads, each input rule is checked in one
place, each command-line flag is declared once, and the fitness-level
chain draws its offspring from one place."""

import ast
import re
from collections import Counter, defaultdict
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


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _is_dataclass(cls):
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in cls.decorator_list)


def test_validate_runs_only_at_construction():
    # a config or spec validates itself in __post_init__, so an instance is
    # valid and no caller checks it again
    stray = []
    for module, tree in _trees().items():
        allowed = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
                   for fn in cls.body
                   if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                   for node in ast.walk(fn)}
        stray += [f"{module}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", None) == "validate"
                  and id(node) not in allowed]
    assert stray == []


def _template(node):
    # a message with each f-string field written as {}
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in node.values)
    return node.value if isinstance(node, ast.Constant) else ast.unparse(node)


def test_each_config_error_message_raised_once():
    # a rule raised from two places is a rule written twice
    sites = defaultdict(list)
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "ConfigError"):
                sites[_template(node.exc.args[0])].append(f"{module}:{node.lineno}")
    assert {msg: where for msg, where in sites.items() if len(where) > 1} == {}


def test_each_cli_flag_declared_once():
    # a flag spelled out twice is a flag whose type or default can drift
    tree = _trees()["cli"]
    literals = Counter(node.value for node in ast.walk(tree)
                       if isinstance(node, ast.Constant) and isinstance(node.value, str)
                       and re.fullmatch(r"--[a-z][\w-]*", node.value))
    assert {flag: k for flag, k in literals.items() if k > 1} == {}
    table = next(node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "_FLAGS")
    names = Counter(key.value for key in table.keys)
    assert {name: k for name, k in names.items() if k > 1} == {}


def test_one_descent_call_site():
    # plus, comma and fairplus take one step: every group of offspring is
    # drawn by the same _descend call
    sites = [f"{module}:{node.lineno}" for module, tree in _trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_descend"]
    assert len(sites) == 1, sites
