"""run_pipeline and delta_sweep take every grid-point value from one
evaluator, so sigmahat, lambda on hhat and the eps-delta constraint each
have one call site in pipeline.py, all in the same function."""

import ast
from pathlib import Path

import ap3lab

PIPELINE = Path(ap3lab.__file__).resolve().parent / "pipeline.py"
OWNED = ("kernel_spectrum", "lambda_of_spectra", "bd.epsilon_delta_constraint")


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
