"""README's Python blocks against the package: the quick session runs,
every name a block imports exists, and a call that spells out an imported
function's arguments uses its parameter names, so the docs cannot keep
naming a removed API or an old signature."""

import ast
import contextlib
import importlib
import inspect
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def _imported_names() -> list[tuple[str, str | None]]:
    """(module, name) for every ``from module import name`` of the blocks,
    and (module, None) for every ``import module``."""
    found = []
    for block in _python_blocks():
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom):
                found += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(alias.name, None) for alias in node.names]
    return found


def test_readme_has_python_blocks_that_import_the_package():
    assert len(_python_blocks()) >= 2
    assert any(module.startswith("conetheta") for module, _ in _imported_names())


def test_quick_session_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_python_blocks()[0], str(README), "exec"), {})
    value, tail = out.getvalue().split()
    # the value the block's comment states, and a tail within its tolerance
    assert complex(value) == 1.0864348112122568
    assert 0 <= float(tail) < 1e-10


@pytest.mark.parametrize("module, name", _imported_names(), ids=lambda x: str(x))
def test_readme_import_resolves(module, name):
    mod = importlib.import_module(module)
    if name is not None:
        assert hasattr(mod, name), "%s has no %s" % (module, name)


def _calls() -> list[tuple[str, list[str | None], list[str]]]:
    """(name, positional argument names, keyword names) of every call in the
    blocks of a function they import; a positional argument that is not a
    bare name is None."""
    found = []
    for block in _python_blocks():
        tree = ast.parse(block)
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in imported:
                args = [a.id if isinstance(a, ast.Name) else None for a in node.args]
                found.append((node.func.id, args, [kw.arg for kw in node.keywords]))
    return found


def test_readme_calls_use_the_parameter_names():
    objects = {name: getattr(importlib.import_module(m), name) for m, name in _imported_names() if name}
    calls = _calls()
    assert {"determine_zeta", "modular_apply", "cone_sum"} <= {name for name, _, _ in calls}
    for name, args, keywords in calls:
        params = list(inspect.signature(objects[name]).parameters)
        assert len(args) <= len(params), name
        for arg, param in zip(args, params):
            assert arg in (None, param), "%s: README passes %s as %s" % (name, arg, param)
        assert set(keywords) <= set(params[len(args):]), name
