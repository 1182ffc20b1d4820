"""Source guards: no exactness in src/sumprod rests on an `assert`.

`python -O` strips every `assert` statement and makes `__debug__` False,
so a check written either way vanishes from an optimised run. This test
parses every module of the package and names, as file:line, each `assert`
statement and each read of `__debug__`.
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
