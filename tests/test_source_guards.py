"""Source guards: no exactness in src/sumprod rests on an `assert`, and
repfn reduces arrays mod p in one place.

`python -O` strips every `assert` statement and makes `__debug__` False,
so a check written either way vanishes from an optimised run. The first
guard parses every module of the package and names, as file:line, each
`assert` statement and each read of `__debug__`. The second names each
np.remainder call of repfn.py outside `_mod`.
"""

import ast
from pathlib import Path

import sumprod

SRC = Path(sumprod.__file__).resolve().parent


def stripped_checks(path: Path, root: Path) -> list:
    """file:line (relative to root) of each assert statement and each read
    of __debug__ in path, in line order."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Assert)
                   or isinstance(node, ast.Name) and node.id == "__debug__")
    return [f"{path.relative_to(root)}:{line}" for line in lines]


def test_guard_names_each_assert_and_debug_read(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("x = 1\nassert x\nif __debug__:\n    y = x\n"
                     "assert (x, 'no message')\nz = [__debug__]\n")
    assert stripped_checks(probe, tmp_path) == [
        "probe.py:2", "probe.py:3", "probe.py:5", "probe.py:6"]


def test_no_assert_or_debug_in_src():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [hit for path in files for hit in stripped_checks(path, SRC.parent)]
    assert not found, "checks that python -O strips: " + ", ".join(found)


def remainder_calls(path: Path, root: Path) -> list:
    """file:line (relative to root) of each np.remainder (or np.mod) call in
    path outside the function `_mod`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_mod"
              for node in ast.walk(fn)}
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr in ("remainder", "mod")
                   and isinstance(node.func.value, ast.Name)
                   and node.func.value.id == "np"
                   and id(node) not in inside)
    return [f"{path.relative_to(root)}:{line}" for line in lines]


def test_guard_names_each_remainder_outside_mod(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\n"
                     "def _mod(x, p):\n    return np.remainder(x, p)\n"
                     "y = np.remainder(5, 3)\nz = np.mod(5, 3) + 7 % 3\n")
    assert remainder_calls(probe, tmp_path) == ["probe.py:4", "probe.py:5"]


def test_repfn_reduces_arrays_only_through_mod():
    # `repfn._mod` takes x mod p by floor division, which numpy vectorises
    # where it does not vectorise `%`; every array reduction of the int
    # kernel goes through it
    found = remainder_calls(SRC / "repfn.py", SRC.parent)
    assert not found, "np.remainder outside repfn._mod: " + ", ".join(found)
