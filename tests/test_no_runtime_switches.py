"""Guard: the package reads no environment switch except ``REPRO_TRACE``.

Runtime escape hatches and cross-check flags are not kept in ``src/repro``:
alternative code paths kept only to check the real one live in the
test-only oracles of ``tests/oracle.py``. This scan fails on any
environment read that could bring one back.
"""

import ast
import pathlib

ALLOWED = {"REPRO_TRACE"}
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def env_reads(tree):
    """Yield ``(line, key)`` for every environment access in ``tree``;
    ``key`` is None unless the variable name is a string literal."""
    # names bound by ``from os import environ`` / ``getenv``
    aliases = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "os"
               for alias in node.names}
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}

    def literal(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name) and node.value.id == "os":
            name = node.attr
        elif isinstance(node, ast.Name) and node.id in aliases:
            name = aliases[node.id]
        else:
            continue
        if name not in ("environ", "getenv"):
            continue
        parent = parents.get(node)
        key = None
        if name == "getenv" and isinstance(parent, ast.Call) and parent.args:
            key = literal(parent.args[0])
        elif name == "environ" and isinstance(parent, ast.Subscript):
            key = literal(parent.slice)
        elif (name == "environ" and isinstance(parent, ast.Attribute)
              and parent.attr == "get"):
            call = parents.get(parent)
            if isinstance(call, ast.Call) and call.args:
                key = literal(call.args[0])
        yield node.lineno, key


def test_only_repro_trace_is_read_from_the_environment():
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no sources under {SRC}"
    offenders = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, key in env_reads(tree):
            if key not in ALLOWED:
                offenders.append(f"{path.relative_to(SRC)}:{line} ({key})")
    assert not offenders, (
        "environment reads outside the allowed set — keep alternative "
        f"paths as test-only oracles instead: {offenders}")


def test_scan_catches_every_read_form():
    forms = [
        'import os\nos.environ.get("REPRO_X", "1")',
        'import os\nos.environ["REPRO_X"]',
        'import os\nos.getenv("REPRO_X")',
        'from os import environ\nenviron.get("REPRO_X")',
        'from os import getenv as g\ng("REPRO_X")',
        'import os\nname = "REPRO_TRACE"\nos.environ.get(name)',
        'import os\n"REPRO_X" in os.environ',
    ]
    for source in forms:
        keys = [key for _line, key in env_reads(ast.parse(source))]
        assert keys and not set(keys) <= ALLOWED, source
    allowed = 'import os\nos.environ.get("REPRO_TRACE", "")'
    assert [key for _l, key in env_reads(ast.parse(allowed))] == [
        "REPRO_TRACE"]
