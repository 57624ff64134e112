"""Repository hygiene that the code itself cannot see."""
import ast
import shutil
import subprocess
from pathlib import Path

import pytest

from genjacobi import algebra

ROOT = Path(__file__).resolve().parents[1]
MATH_LAYER = ("kernel", "algebra", "jacobi", "genjacobi", "operators", "inner")


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          timeout=60)


def test_no_tracked_file_is_ignored():
    # a tracked file that .gitignore also lists is stale output or a dead rule
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    if _git("rev-parse", "--is-inside-work-tree").stdout.strip() != "true":
        pytest.skip("not a git work tree")
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == ""


def _imported_modules(path: Path) -> set:
    """Absolute names of the modules a genjacobi source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "genjacobi" if node.level else ""
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_math_layer_does_not_import_the_runner_layer():
    # the math modules produce polynomials and rationals; cases and
    # reports are built on top of them, never below
    for module in MATH_LAYER:
        imported = _imported_modules(ROOT / "src" / "genjacobi" / f"{module}.py")
        assert not imported & {"genjacobi.report", "genjacobi.verify"}, module


def test_math_layer_imports_no_private_name_from_a_sibling():
    # a helper two math modules share is public in the module that owns it
    for module in MATH_LAYER:
        path = ROOT / "src" / "genjacobi" / f"{module}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        private = [alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level
                   for alias in node.names if alias.name.startswith("_")]
        assert not private, (module, private)


def test_only_operators_imports_the_elementary_operators():
    # the math layer and the suites reach the four elementary operators through
    # operators' own table; inner states their endpoint values in closed form
    elementary = {"apply_L2", "apply_Ltilde", "apply_Lhat", "apply_Lfull"}
    for module in MATH_LAYER + ("verify",):
        if module != "operators":
            imported = _imported_modules(ROOT / "src" / "genjacobi" / f"{module}.py")
            assert not {name.rsplit(".", 1)[-1] for name in imported} & elementary, module


def _is_poly_constant(node, constants: set) -> bool:
    """node names one of algebra's Poly constants, or builds a Poly by a
    Poly(...) or Poly.<constructor>(...) call."""
    if isinstance(node, ast.Name):
        return node.id in constants
    if isinstance(node, ast.Attribute):
        return node.attr in constants
    if isinstance(node, ast.Call):
        func = node.func
        return ((isinstance(func, ast.Name) and func.id == "Poly")
                or (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and func.value.id == "Poly"))
    return False


def test_only_algebra_raises_a_poly_constant_to_a_power():
    # endpoint powers come from one cache, algebra.endpoint_weight; an
    # X_PLUS_1 ** k elsewhere would build a second, uncached copy
    constants = {name for name, value in vars(algebra).items()
                 if isinstance(value, algebra.Poly)}
    assert {"X_MINUS_1", "X_PLUS_1", "X2_MINUS_1"} <= constants
    for path in sorted((ROOT / "src" / "genjacobi").glob("*.py")):
        if path.name == "algebra.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        powers = [ast.unparse(node) for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                  and _is_poly_constant(node.left, constants)]
        assert not powers, (path.name, powers)


def test_every_imported_name_is_read():
    # an import no code reads is dead weight; a re-export counts as a
    # read when __all__ lists it
    for path in sorted((ROOT / "src" / "genjacobi").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound, read = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                read.update(ast.literal_eval(node.value))
        unread = bound - read
        assert not unread, path.name
