"""Every function and class defined in src/ is referenced from src/.

An AST scan collects the names of the functions, methods and classes that
src/quadclif defines, and every name src/quadclif reads, as a bare name
or as an attribute.  A definition whose name is never read (dunder
methods aside) has no caller in the package.  The few that stay are
listed here with their reason; deleting one removes it from the list, and
a new unreferenced definition fails the test until it gets a caller or a
line here.

A second scan keeps Z the only coefficient ring of src/: every
PolyRing(...) call passes ZZ as its field, and no name that src/ defines,
imports or reads is QQ or RationalField (the rationals are a test oracle,
in conftest).  A third keeps the Clifford engine generic: src/ proves it
once on generic blocks, and the engine over an instance's own blocks
(from_pencil, on linear_form_matrix) is a test oracle, in conftest, so
src/ names neither; the minus block has no engine, proof or evaluator of
its own.  A fourth keeps prop4.7's annihilator walk out of src/: the
relation count is the verdict, and the round trip of module lines is the
oracle, in conftest.  A fifth keeps one evaluation of a polynomial at a
point: exactalg.evaluator is defined once, every evaluation in src/ (the
fibers, d, the commutant, the curves at a point, the ring changes of the
symbolic identities) goes through it, and MultiPoly has no eval or subs.
A sixth keeps dataclasses out of src/: the records are namedtuples or
plain classes, so importing quadclif loads none of inspect, ast, dis and
tokenize, which dataclasses imports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quadclif"

# name -> why it stays without a caller in src/
UNREFERENCED = {
    "phi": "probed by bench/tracer.py (clifford.phi); tests",
    "tensor_product": "probed by bench/tracer.py (fiber.tensor); tests",
    "corner_algebra": "probed by bench/tracer.py (fiber.corner); tests",
    "mat_solve": "probed by bench/tracer.py (exactalg.solve); tests",
    "curve_points": "probed by bench/tracer.py (geometry.curve_points); tests",
    "center_basis": "probed by bench/tracer.py (fiber.center / fiber.radical); tests",
    "radical_dim": "probed by bench/tracer.py (fiber.center / fiber.radical); tests",
}


def unreferenced_definitions(root=SRC):
    defined, read = set(), set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {name for name in defined - read
            if not (name.startswith("__") and name.endswith("__"))}


def test_unreferenced_definitions_are_exactly_the_allowlist():
    assert unreferenced_definitions() == set(UNREFERENCED)


def test_the_scan_sees_a_dead_function(tmp_path):
    for path in SRC.rglob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"),
                                          encoding="utf-8")
    (tmp_path / "extra.py").write_text("def orphan():\n    return 1\n",
                                       encoding="utf-8")
    assert unreferenced_definitions(tmp_path) == set(UNREFERENCED) | {"orphan"}


FORBIDDEN_RINGS = {"QQ", "RationalField"}
PER_INSTANCE_ENGINE = {"from_pencil", "linear_form_matrix"}


def names_in(root, wanted):
    """(file, line, name) for every name in `wanted` that root defines,
    imports or reads, as a bare name or as an attribute."""
    out = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = (node.name,)
            elif isinstance(node, ast.Name):
                names = (node.id,)
            elif isinstance(node, ast.Attribute):
                names = (node.attr,)
            elif isinstance(node, ast.alias):
                names = (node.name, node.asname)
            out.update((path.name, node.lineno, name)
                       for name in names if name in wanted)
    return out


def coefficient_ring_violations(root=SRC):
    """(file, line, what) for every PolyRing call in root whose field is
    not the bare name ZZ, and every QQ or RationalField that root defines,
    imports or reads."""
    out = names_in(root, FORBIDDEN_RINGS)
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", getattr(func, "attr", None)) == "PolyRing":
                    field = node.args[0] if node.args else next(
                        (k.value for k in node.keywords if k.arg == "field"), None)
                    if not (isinstance(field, ast.Name) and field.id == "ZZ"):
                        out.add((path.name, node.lineno, "PolyRing field"))
    return out


def test_z_is_the_only_coefficient_ring_of_src():
    assert coefficient_ring_violations() == set()


def test_the_ring_scan_sees_a_rational_ring(tmp_path):
    (tmp_path / "extra.py").write_text(
        "from .exactalg import PolyRing\n"
        "from .oracles import QQ as Q\n"
        "class RationalField:\n    pass\n"
        "R = PolyRing(Q, ('t',))\n"
        "S = PolyRing(field=ring, variables=('t',))\n"
        "T = PolyRing(ZZ, ('t',))\n",
        encoding="utf-8")
    assert coefficient_ring_violations(tmp_path) == {
        ("extra.py", 2, "QQ"), ("extra.py", 3, "RationalField"),
        ("extra.py", 5, "PolyRing field"), ("extra.py", 6, "PolyRing field")}


def test_src_has_no_per_instance_engine():
    assert names_in(SRC, PER_INSTANCE_ENGINE) == set()


def test_the_engine_scan_sees_a_per_instance_engine(tmp_path):
    (tmp_path / "extra.py").write_text(
        "from .oracles import from_pencil as build\n"
        "def linear_form_matrix(P, side):\n"
        "    return P.linear_form_matrix(side)\n",
        encoding="utf-8")
    assert names_in(tmp_path, PER_INSTANCE_ENGINE) == {
        ("extra.py", 1, "from_pencil"), ("extra.py", 2, "linear_form_matrix"),
        ("extra.py", 3, "linear_form_matrix")}


ONE_SIDE_ENGINE = {"verify_swap", "swapped_central", "eval_element", "structure_terms"}
EVALUATOR_CALLERS = {
    "clifford_fiber", "side_fiber", "commutant_basis", "module_rep",
    "_d_square_check", "sample_invertible_points", "cubic_section_point",
    "transform_identity_check", "segre_identity_check"}


def test_src_has_one_side_engine_and_one_evaluator():
    from quadclif.clifford import VARIANTS

    assert names_in(SRC, ONE_SIDE_ENGINE) == set()
    assert set(VARIANTS) == {"plus", "ordinary", "super"}
    callers, definitions = set(), []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == "evaluator":
                definitions.append(path.name)
            if isinstance(node, ast.FunctionDef) and node.name in EVALUATOR_CALLERS:
                if any(isinstance(n, ast.Name) and n.id == "evaluator"
                       for n in ast.walk(node)):
                    callers.add(node.name)
    assert definitions == ["exactalg.py"]
    assert callers == EVALUATOR_CALLERS


def test_src_has_no_second_evaluation():
    assert names_in(SRC, {"eval", "subs"}) == set()


ANNIHILATOR_WALK = {"annihilator_line", "module_line_for",
                    "lines_proportional", "_ANNIHILATOR_LINES"}


def test_src_has_no_annihilator_walk():
    assert names_in(SRC, ANNIHILATOR_WALK) == set()


def imports_in(root, module):
    """(file, line) for every import of `module` or its submodules in root."""
    out = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(n == module or n.startswith(module + ".") for n in names):
                out.add((path.name, node.lineno))
    return out


def test_src_imports_no_dataclasses():
    assert imports_in(SRC, "dataclasses") == set()


def test_the_import_scan_sees_dataclasses(tmp_path):
    (tmp_path / "extra.py").write_text(
        "import json, dataclasses as dc\n"
        "from dataclasses import dataclass\n"
        "from .dataclasses import field\n"
        "import dataclassesx\n",
        encoding="utf-8")
    assert imports_in(tmp_path, "dataclasses") == {
        ("extra.py", 1), ("extra.py", 2)}
