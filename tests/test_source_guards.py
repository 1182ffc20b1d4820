"""Source guards: no exactness in src/sumprod rests on an `assert`, repfn
reduces arrays mod p in one place, and only repfn touches its int kernel.

`python -O` strips every `assert` statement and makes `__debug__` False,
so a check written either way vanishes from an optimised run. The first
guard parses every module of the package and names, as file:line, each
`assert` statement and each read of `__debug__`. The second names each
np.remainder call of repfn.py outside `_mod`. The third names each
reference to the int kernel's internals outside repfn.py, so that one
module decides which inputs take the int64 paths. The fourth names each
call of the pair kernel `_sorted_table` in repfn.py outside `_table` and
`_collision_spectrum`, so that every route of a pair table is a step of
`_table` before its one kernel call. The fifth names each call of
`_check_level` in repfn.py outside `_finish_level`, so that every
transported level set is finished by that one helper.
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


# the int kernel's internals: the fast-path rule, its grids and tables,
# their mass check and reductions, and the heap release before large ones
KERNEL = ("_int_fast_ok", "_grid", "_sorted_table", "_bucket_table",
          "_check_mass", "_inverses", "_mod", "_release_heap")


def kernel_references(path: Path, root: Path) -> list:
    """file:line (relative to root) of each line of path that imports,
    reads or looks up as an attribute a name of KERNEL."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted({node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and node.id in KERNEL
                    or isinstance(node, ast.Attribute) and node.attr in KERNEL
                    or isinstance(node, ast.alias) and node.name in KERNEL})
    return [f"{path.relative_to(root)}:{line}" for line in lines]


def test_guard_names_each_kernel_reference(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .repfn import (_table,\n    _grid)\n"
                     "from . import repfn\n"
                     "x = repfn._mod(5, 3)  # _inverses\n"
                     "y = _table, '_sorted_table', _gridded\n"
                     "if _int_fast_ok: _check_mass(_release_heap)\n"
                     "z = repfn._bucket_table\n")
    assert kernel_references(probe, tmp_path) == [
        "probe.py:2", "probe.py:4", "probe.py:6", "probe.py:7"]


def test_only_repfn_touches_the_int_kernel():
    # which inputs take the int64 paths is decided in repfn alone: every
    # other module asks `_table`, `_in_grid`, `_membership_counts` or
    # `_collision_spectrum`
    files = sorted(path for path in SRC.rglob("*.py")
                   if path.name != "repfn.py")
    assert files
    found = [hit for path in files
             for hit in kernel_references(path, SRC.parent)]
    assert not found, "int kernel internals outside repfn.py: " + \
        ", ".join(found)


def kernel_calls(path: Path, root: Path) -> list:
    """file:line (relative to root) of each call of `_sorted_table` in path
    outside the functions `_table` and `_collision_spectrum`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef)
              and fn.name in ("_table", "_collision_spectrum")
              for node in ast.walk(fn)}
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name)
                   and node.func.id == "_sorted_table"
                   and id(node) not in inside)
    return [f"{path.relative_to(root)}:{line}" for line in lines]


def test_guard_names_each_kernel_call_outside_table(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def _table(a):\n    return _sorted_table(a)\n"
                     "def _collision_spectrum(x):\n"
                     "    return _sorted_table(x)\n"
                     "def _over(a):\n"
                     "    return _sorted_table(a), _sorted_table(a, 1)\n"
                     "f = _sorted_table  # a reference, not a call\n"
                     "y = _sorted_table(2)\n")
    assert kernel_calls(probe, tmp_path) == [
        "probe.py:6", "probe.py:6", "probe.py:8"]


def test_only_table_calls_the_pair_kernel():
    # every route of a pair table (the inverses or the discrete logs of a
    # div table, the half of a self table) rewrites the request in `_table`,
    # which then calls the kernel once; the collision spectrum's X x (Y+Z)
    # is the one other table
    found = kernel_calls(SRC / "repfn.py", SRC.parent)
    assert not found, "_sorted_table called outside _table: " + \
        ", ".join(found)


def level_checks(path: Path, root: Path) -> list:
    """file:line (relative to root) of each call of `_check_level` in path
    outside the function `_finish_level`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_finish_level"
              for node in ast.walk(fn)}
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name)
                   and node.func.id == "_check_level"
                   and id(node) not in inside)
    return [f"{path.relative_to(root)}:{line}" for line in lines]


def test_guard_names_each_level_check_outside_the_finish(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def _finish_level(x):\n    _check_level(x)\n"
                     "def _orbits(x):\n"
                     "    if x:\n        _check_level(x, 1)\n"
                     "    return _finish_level(x)\n"
                     "f = _check_level  # a reference, not a call\n"
                     "_check_level(2), _check_level(3)\n")
    assert level_checks(probe, tmp_path) == [
        "probe.py:5", "probe.py:8", "probe.py:8"]


def test_only_the_finish_checks_a_transported_level_set():
    # the log and orbit transports, and any later route, append r(0),
    # sort, check and wrap a level set in `_finish_level`
    found = level_checks(SRC / "repfn.py", SRC.parent)
    assert not found, "_check_level called outside _finish_level: " + \
        ", ".join(found)
