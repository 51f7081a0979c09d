"""Static checks on the package source."""
import ast
from pathlib import Path

import catdks

SRC = Path(__file__).resolve().parents[1] / "src" / "catdks"


def module_imports(tree):
    """(bound name, line) of each module-level import in `tree`, except
    __future__ imports."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_no_unused_module_imports():
    # an import is used when some code in its module reads the name; the
    # names that __init__ re-exports through __all__ count as read
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        if path.name == "__init__.py":
            read |= set(catdks.__all__)
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in module_imports(tree) if name not in read]
    assert unused == []


def test_no_unused_parameters():
    # a parameter is used when its function's body, nested code included,
    # reads the name; dunder methods keep the signature their protocol gives
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or \
                    node.name.startswith("__") and node.name.endswith("__"):
                continue
            read = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store)}
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + \
                [a for a in (args.vararg, args.kwarg) if a is not None]
            unused += [f"{path.name}:{node.lineno}: {node.name}({a.arg})"
                       for a in params if a.arg not in read]
    assert unused == []


def test_cli_defaults_live_in_params():
    # a subcommand that reads `a.<name> or <constant>` keeps a default out of
    # _PARAMS, where the flag, the --config key and the default are resolved
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    fallbacks = [f"cli.py:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
                 if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or)
                 and isinstance(node.values[0], ast.Attribute)
                 and isinstance(node.values[0].value, ast.Name)
                 and node.values[0].value.id == "a"
                 and isinstance(node.values[-1], ast.Constant)]
    assert fallbacks == []


def test_no_unread_dataclass_fields():
    # a field of a @dataclass is read when some code in src, tests or
    # perfbench loads it as an attribute `.name`
    root = SRC.parents[1]
    read = {node.attr for folder in ("src", "tests", "perfbench")
            for path in sorted((root / folder).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                    for d in node.decorator_list):
                unread += [f"{path.name}:{stmt.lineno}: {node.name}.{stmt.target.id}"
                           for stmt in node.body if isinstance(stmt, ast.AnnAssign)
                           and stmt.target.id not in read]
    assert unread == []
