"""Repository hygiene that the code itself cannot see."""
import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from genjacobi import algebra
from genjacobi.cli import FORMATS
from genjacobi.operators import OPERATOR_KINDS, components

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "genjacobi"
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


def _defs_holding(match) -> set:
    """(file name, dotted def) of every def in src/genjacobi whose own body,
    not a nested def's, holds a node for which match(node) is true."""
    found = set()

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, path, f"{prefix}{child.name}.")
                continue
            if match(child):
                found.add((path.name, prefix.rstrip(".")))
            walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def _string(node) -> str:
    """The text of a string literal or an f-string piece; "" for any other node."""
    is_text = isinstance(node, ast.Constant) and isinstance(node.value, str)
    return node.value if is_text else ""


def test_only_the_term_walk_spells_a_monomial():
    # Poly.__str__ and the LaTeX renderer share Poly.render; a second walk
    # over the terms would spell x^k again (a string ending in x^ or x^{)
    spellers = _defs_holding(lambda node: _string(node).endswith(("x^", "x^{")))
    assert spellers == {("algebra.py", "Poly.render")}


def test_only_report_tabular_frames_a_latex_table():
    # the CLI tables and VerifyReport.to_latex share report.tabular
    framers = _defs_holding(lambda node: r"\begin{tabular}" in _string(node))
    assert framers == {("report.py", "tabular")}


def test_only_inner_products_reads_the_moment_vector():
    # the mass-augmented product has one Hankel product; gram_matrix and
    # inner_product score through it rather than keep a copy
    callers = _defs_holding(lambda node: isinstance(node, ast.Call) and "_moment_vector"
                            in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))
    assert callers == {("inner.py", "inner_products")}


def _calling(name: str):
    """A match for _defs_holding: a call of `name`, bare or as an attribute."""
    return lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_only_the_divergence_forms_spell_an_operators_data():
    # each operator's v, k, w, strip, factor and endpoint constants are one row
    # of operators.divergence_forms; the operators run it through one helper,
    # and inner's forms and closed endpoint values read the rows, so an
    # endpoint weight or constant spelled elsewhere would be a second copy
    weights = _defs_holding(_calling("endpoint_weight"))
    assert {d for d in weights if d[0] == "operators.py"} == {
        ("operators.py", "divergence_forms"), ("operators.py", "_apply_form")}
    assert {d for d in weights if d[0] == "inner.py"} == {("inner.py", "weight_poly")}
    assert _defs_holding(_calling("_conjugated")) == {("operators.py", "_apply_form")}
    assert not {d for d in _defs_holding(_calling("pochhammer")) if d[0] == "inner.py"}


def test_only_report_point_str_labels_a_mass_point():
    # every mass point's label is read from the Params it ran with; a second
    # spelling of its four keys could state other values than those that ran
    spellers = _defs_holding(lambda node: isinstance(node, ast.Call)
                             and "params_str" in (getattr(node.func, "id", None),
                                                  getattr(node.func, "attr", None))
                             and any(k.arg == "M" for k in node.keywords))
    assert spellers == {("report.py", "point_str")}


def test_only_a_run_builds_a_report():
    # a grid point returns a list of cases; run_suite merges them into the one
    # report, and verify_symmetry wraps one symmetry point for the acceptance tests
    builders = _defs_holding(lambda node: isinstance(node, ast.Call)
                             and "VerifyReport" in (getattr(node.func, "id", None),
                                                    getattr(node.func, "attr", None)))
    assert builders == {("verify.py", "run_suite"), ("verify.py", "verify_symmetry")}


def test_only_the_cli_reads_the_full_expansion():
    # the expansion cases read an operator's top term alone; the full
    # expansion serves operator-table (and the package's export)
    callers = _defs_holding(lambda node: isinstance(node, ast.Call)
                            and "top_term" in (getattr(node.func, "id", None),
                                               getattr(node.func, "attr", None)))
    assert callers == {("verify.py", "_expansion_cases")}
    readers = {path.name for path in PACKAGE.glob("*.py")
               if "expand_operator" in _names_read(path)}
    assert readers == {"cli.py", "__init__.py"}


def test_no_src_module_reads_globals():
    # functions and tables are reached by their names in code, never by a
    # string looked up in a module's namespace
    readers = {path.name for path in PACKAGE.glob("*.py") if "globals" in _names_read(path)}
    assert not readers


def test_verify_names_no_operator_in_its_own_text():
    # the suites name an operator by its components row, so no label in
    # verify.py restates one of the four names
    names = [row.name for row in components(0, 0)]
    holders = _defs_holding(lambda node: any(name in _string(node) for name in names))
    assert not {name for path, name in holders if path == "verify.py"}


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


# ---------------- src/ holds what the product reaches ----------------
#
# The product is the CLI: every command in every format, verify on the tiny
# grid, serially and with two workers, and four runs that exit 2.  A probe
# runs it in a fresh process under sys.setprofile, started before genjacobi is
# imported, so no lru cache warmed by an earlier test hides a cached
# function's body.  The profiler sees the parent process only; pool workers
# run the functions a serial run runs.

_WEIGHTS = ["--alpha", "1", "--beta", "2", "--bigm", "1/3", "--bign", "2"]
_TINY = ["--nmax", "2", "--alpha-max", "1", "--beta-max", "1", "--bigm", "1",
         "--bign", "1", "--seed", "0"]
_COMMANDS = {"poly": ["poly", "--n", "4", *_WEIGHTS],
             "gram": ["gram", "--nmax", "3", *_WEIGHTS],
             **{f"operator-table {kind}": ["operator-table", "--kind", kind, *_WEIGHTS]
                for kind in OPERATOR_KINDS},
             "verify": ["verify", *_TINY]}
PRODUCT_RUNS = {f"{name} {fmt}": [*argv, "--format", fmt]
                for name, argv in _COMMANDS.items() for fmt in FORMATS}
# a product run again with GENJACOBI_THREADS=2: the pool's report is the
# serial one, byte for byte
POOLED_RUN = "verify json"
# name -> (argv, GENJACOBI_THREADS)
EXIT_2_RUNS = {"decimal mass": (["verify", "--bigm", "0.5"], "1"),
               "negative index": (["poly", "--n", "-1"], "1"),
               "zero threads": (["verify", *_TINY], "0"),
               "negative mass, mass-free suite": (["verify", "--suite", "prop22",
                                                   "--bigm", "-1"], "1")}

_PROBE = r"""
import hashlib, io, json, os, sys
from contextlib import redirect_stderr, redirect_stdout

calls = set()

def profile(frame, event, arg):
    if event == "call":
        calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
from genjacobi.cli import main

def run(argv, threads):
    os.environ["GENJACOBI_THREADS"] = threads
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:          # argparse's usage errors
        code = exc.code
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()

argvs, errors = json.loads(sys.argv[1]), json.loads(sys.argv[2])
runs = {name: run(argv, "1") for name, argv in argvs.items()}
pooled = run(argvs[sys.argv[3]], "2")
errors = {name: run(argv, threads)[0] for name, (argv, threads) in errors.items()}
sys.setprofile(None)
package = os.path.dirname(os.path.realpath(sys.modules["genjacobi"].__file__))
reached = sorted((os.path.basename(f), line) for f, line in calls
                 if os.path.dirname(os.path.realpath(f)) == package)
print(json.dumps({"runs": runs, "pooled": pooled, "errors": errors, "reached": reached}))
"""

# sha256 of the stdout of each product run, taken before the test-only code
# left src/; the verify json digest is the tiny workload's
CLI_DIGESTS = {
    "poly plain": "b8f398ed7074667309c4753e8287dfbca2b90cc695dd5809730eb7fcffc3fd0c",
    "poly json": "7492b23ecc42b65cb61175b68d5f03d71bfbc2d6e7add29afa1c5b46d710466c",
    "poly csv": "ee95665f4a299ef973fb79ee11821f70deba6f355ff41db985f0ebc8bb277546",
    "poly latex": "c8e1f398d082f5f04c9d986f397557b90dd93af19cb0604f82eb3d5c5fd0334d",
    "gram plain": "5adfb217b92b5b9f85cdf3bec5b38d899150bf517e5a2d548b7b4de2a781677e",
    "gram json": "8649b6d35355d80974d5c4ca61b14679a4f0a6cbbf41f606212af2e06e519b37",
    "gram csv": "f046a0fa44de3328511dbc6dfdade20e380a05f3d0592e01670d5bbdcab39d7e",
    "gram latex": "ee0c1a704bc3c86247de090158e574fed5135002530676cf01e63fcfa8bd5b57",
    "operator-table L2 plain": "db50f2867caa01c444e09f3283a893799c8f8b33a2202308af370f95ccccffcb",
    "operator-table L2 json": "add2a855a9774a8ca0281f80436c6220510b3c3826043075a1bd78b71d7ef218",
    "operator-table L2 csv": "0333ee01a75fe851ac03767a64523d26e0bfee00fb9b05615c8a7cc2f99c5aea",
    "operator-table L2 latex": "a7c0ab8b7c15ecb0e31809b6f909959de15f73c2b56b8679071410a42fdbdd83",
    "operator-table Ltilde plain":
        "72a90ec86d7c783a833673b1506924fd99220bf75b4351767253890b81135c90",
    "operator-table Ltilde json":
        "617d239454d437933a1a84a144a83734ec1e2a777dfc382b7f4c0d3708fe5a1d",
    "operator-table Ltilde csv":
        "9545cea6769e12aa6dd0812a6ec873358e85619f2fbbb9c67a94e194c298ebb0",
    "operator-table Ltilde latex":
        "3a94ab3aa6481ccbd1cd965eb79804c06716bc07bda9647e41e39b5041343453",
    "operator-table Lhat plain":
        "4faa2b02e83972d49a3f44425fe4295033f76cd0bc469742d59d8e39cb1d5742",
    "operator-table Lhat json":
        "86359cf7fe6258a0aca30801a291043a63560fceeaf4a9de580fd6babba27321",
    "operator-table Lhat csv":
        "e245f757418b2fe7208ecfe5678e6cb069212a5f821cee7df5ed9b6c2589f381",
    "operator-table Lhat latex":
        "936b1c5198105c9f18a5230e2426b2a6635f8545b944bb92b8110c7701ad2ea7",
    "operator-table Lfull plain":
        "6a86b6df44c3b41b5ec252e2b5dd412500feb9beb648154eb20bc11d1efcbf5d",
    "operator-table Lfull json":
        "324c9bbbd79169b8722759ca9bb645d13f295ba072d7718957b80ee147b3462c",
    "operator-table Lfull csv":
        "0471848dd9c0a57a3e810a6c3da540786d5705eacd0b5ab0d9c39c48fb8cde48",
    "operator-table Lfull latex":
        "42c980b8857e8b1a2069bc847cf1ac5460b994d50aef7cbd6b5078b00208899c",
    "operator-table Combined plain":
        "bdd72fe69554d1770f479d8cfb2497a6fb23bf629422e03fedbfeb03a13e67c8",
    "operator-table Combined json":
        "5d691923dfbfe8c3b92253548697b577042510b4d22e8c81d589a102a2b21372",
    "operator-table Combined csv":
        "ed471c16e88919da3ad4af28667895128f4959d54712eae3e6d1012846157a2f",
    "operator-table Combined latex":
        "b078f7c7bbdf211b2a02f4d8b9bc1542ecad256200ad77ccea5d7cbabed49306",
    "verify plain": "1a35e46daca7bbc3672bb2686451d3a43ebedc93e176de1456b9e478eb58e67a",
    "verify json": "1865cc289c27d8cae23faf5c9fdfdb62f4c61020f83472d993d457df4ea61274",
    "verify csv": "3003fd0966187fc463a85fc0c444a94d6b6ab0258095f1f7bdb2e1b2c0d1fd8f",
    "verify latex": "e76cda1ee407c9554248609774262ab9664149d524fe70c58d3077738e94575a",
}

ACCEPTANCE = "the frozen tests/test_acceptance.py calls it"
TRACER = "perfbench/tracer.py wraps it (HOT)"
SCRIPT = "the console script in pyproject.toml"
# every function in src/ that the product never enters, and why it stays
UNREACHED = {
    "algebra.Poly.reflect": ACCEPTANCE,
    "genjacobi.Params.swapped": ACCEPTANCE,
    "jacobi.jacobi_recurrence": ACCEPTANCE,
    "inner.h_norm_integral": ACCEPTANCE,
    "verify.verify_symmetry": ACCEPTANCE,
    "operators.eigen_lambda2": ACCEPTANCE,
    "operators.eigen_high": ACCEPTANCE,
    "algebra.Poly.exact_div": TRACER,
    "inner.weighted_integral": TRACER,
    "inner.integrate": TRACER,
    "inner.bilinear_U": TRACER,
    "inner.bilinear_V": TRACER,
    "inner.bilinear_Vt": TRACER,
    "inner.bilinear_W": TRACER,
    "genjacobi.coeff_r": TRACER,
    "genjacobi.coeff_s": TRACER,
    "cli.entry": SCRIPT,
    "algebra.Poly.__setattr__": "the immutability guard",
    "algebra.Poly.__eq__": "the value protocol",
    "algebra.Poly.__hash__": "the value protocol",
    "algebra.Poly.__repr__": "NotDivisible messages render the divisor with it",
}


@pytest.fixture(scope="module")
def product_run():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(PRODUCT_RUNS),
                           json.dumps(EXIT_2_RUNS), POOLED_RUN],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _defined_functions() -> dict:
    """(file name, first line) -> dotted name of every def and lambda in
    src/genjacobi.  A decorated def is keyed by its first decorator's line,
    which is the co_firstlineno of its code object."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                first = (getattr(child, "decorator_list", None) or [child])[0]
                key = (path.name, first.lineno)
                # the profiler tells code objects apart by their first line only
                assert key not in found, f"{found.get(key)} and {name} start on one line"
                found[key] = f"{path.stem}.{prefix}{name}"
                walk(child, path, f"{prefix}{name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def test_src_defines_only_what_the_product_reaches(product_run):
    # a function no product run enters belongs in the tests that use it, or
    # nowhere, unless UNREACHED says why it stays
    reached = {tuple(key) for key in product_run["reached"]}
    unreached = sorted(name for key, name in _defined_functions().items()
                       if key not in reached)
    assert unreached == sorted(UNREACHED)


def test_cli_output_bytes_are_pinned(product_run):
    assert product_run["runs"] == {name: [0, digest] for name, digest in CLI_DIGESTS.items()}
    assert product_run["pooled"] == [0, CLI_DIGESTS[POOLED_RUN]]
    assert product_run["errors"] == {name: 2 for name in EXIT_2_RUNS}


def _names_read(path: Path) -> set:
    """Every name a file imports, reads or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_unreached_function_keeps_its_reason():
    tomllib = pytest.importorskip("tomllib")
    acceptance = _names_read(ROOT / "tests" / "test_acceptance.py")
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    hot = next(ast.literal_eval(node.value) for node in tracer.body
               if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "HOT")
    wrapped = {(module, attr) for module, attr, _ in hot}
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    scripts = set(pyproject["project"]["scripts"].values())
    for name, reason in UNREACHED.items():
        module, attr = name.split(".", 1)
        if reason == ACCEPTANCE:
            assert attr.rsplit(".", 1)[-1] in acceptance, name
        elif reason == TRACER:
            assert (module, attr) in wrapped, name
        elif reason == SCRIPT:
            assert f"genjacobi.{module}:{attr}" in scripts, name
