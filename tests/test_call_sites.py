"""run_pipeline and delta_sweep take every grid-point value from one
evaluator, so sigmahat, lambda on hhat and the eps-delta constraint each
have one call site in pipeline.py, all in the same function. pipeline.py
reads h only off the histogram of smooth's count, so no float pass over
a dense h can come back. Every entry point shares one W-trick lift, so
the two stages that build it are called from pipeline.lift alone. And
every public function and method of the
package is called from the package itself: code that only tests reach
belongs in the tests. A method is called only through an attribute, so
a variable of the same name does not count as a call."""

import ast
from pathlib import Path

import ap3lab

SRC = Path(ap3lab.__file__).resolve().parent
PIPELINE = SRC / "pipeline.py"
OWNED = ("kernel_spectrum", "lambda_of_spectra", "bd.epsilon_delta_constraint")
# float passes over a dense function that h's statistics once took
DENSE_PASSES = ("lp_norm", "mean", "sup_norm", "level_set_size", "level_set_extract")
LIFT_STAGES = ("build_context", "build_sieved_function")

# Public names that no package code references, and why each stays.
UNREFERENCED = {
    # argparse calls it on a bad command line
    "error",
    # perfbench/spans.py wraps these by name; they go with the benchmark
    # revision that stops wrapping them (ROADMAP item 1)
    "inverse_transform",
    "level_set_extract",
    "spectral_lp_norm",
    "root_count_rho",
}


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return func.id if isinstance(func, ast.Name) else ""


def test_each_point_value_has_one_call_site_in_pipeline():
    tree = ast.parse(PIPELINE.read_text(encoding="utf-8"))
    sites = {name: [] for name in OWNED}
    for function in tree.body:
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and _callee(node) in sites:
                sites[_callee(node)].append(getattr(function, "name", None))
    assert all(len(owners) == 1 for owners in sites.values()), sites
    assert len({owners[0] for owners in sites.values()}) == 1, sites


def test_the_lift_is_built_in_pipeline_lift_alone():
    sites = {name: [] for name in LIFT_STAGES}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in tree.body:
            for node in ast.walk(function):
                if isinstance(node, ast.Call):
                    func = node.func  # f(...) or module.f(...)
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                    if name in sites:
                        sites[name].append(f"{path.stem}.{getattr(function, 'name', None)}")
    assert sites == {name: ["pipeline.lift"] for name in LIFT_STAGES}


def test_pipeline_makes_no_float_pass_over_a_dense_function():
    tree = ast.parse(PIPELINE.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func  # f(...), module.f(...) or value.method(...)
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in DENSE_PASSES:
                found.append(f"line {node.lineno}: {name}")
    assert found == []


def test_every_public_function_is_referenced_by_package_code():
    # a function counts as referenced by its name or as an attribute, a
    # method only as an attribute: a local variable of the same name does
    # not call it
    functions, methods, names, attributes = set(), set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            (methods if isinstance(node, ast.ClassDef) else functions).update(
                member.name
                for member in members
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not member.name.startswith("_")
            )
        if path.name != "__init__.py":
            names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            attributes |= {
                node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            }
    unreferenced = (functions - names - attributes) | (methods - attributes)
    assert sorted(unreferenced - UNREFERENCED) == []
    assert UNREFERENCED <= unreferenced
