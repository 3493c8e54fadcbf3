"""Static guard: no decision in ``equispin`` may depend on a float.

The test walks the syntax tree of every module under ``src/equispin`` and
fails on a float or complex literal, a call to ``float`` or ``complex``, a
transcendental or floating function of ``math`` (``math.cos``, ``math.pi``,
``math.sqrt``, ...), and an import of ``mpmath``, ``decimal``, ``cmath`` or
``numpy``.  The functions of ``math`` that stay exact on integers and
fractions (``comb``, ``gcd``, ``isqrt``, ``lcm``, ``floor``, ...) are
allowed.  Only the functions in ``ALLOWED`` may break the rule:
``rigidity.numeric_estimate`` is the advisory estimate printed next to an
irrational spin number, which no decision reads.

Two tests check the same rule on the reports: over the seeded p = 3 and
large-p verdict corpora of ``perfbench/corpus.py`` no report holds a float,
and with ``numeric_estimate`` replaced by a constant every report is the same
but for the estimate fields and the note that quotes them.
"""

import ast
import json
import sys
from pathlib import Path

import pytest

from equispin import rigidity
from equispin.dataset import parse_dataset

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "equispin"
sys.path.insert(0, str(ROOT / "perfbench"))
from corpus import generate  # noqa: E402

ALLOWED = {("rigidity", "numeric_estimate")}

FLOAT_MODULES = {"mpmath", "decimal", "cmath", "numpy"}

# every name of the math module that is a float constant or returns a float
MATH_FLOAT = {
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "cbrt",
    "copysign", "cos", "cosh", "degrees", "dist", "e", "erf", "erfc", "exp",
    "exp2", "expm1", "fabs", "fmod", "frexp", "fsum", "gamma", "hypot", "inf",
    "isclose", "isfinite", "isinf", "isnan", "ldexp", "lgamma", "log", "log10",
    "log1p", "log2", "modf", "nan", "nextafter", "pi", "pow", "radians",
    "remainder", "sin", "sinh", "sqrt", "sumprod", "tan", "tanh", "tau", "ulp",
}


def float_uses(source: str, module: str) -> list[str]:
    """Every float use in ``source`` outside the allowed functions, as ``module:line: what``."""
    found: list[str] = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
            if (module, scope) in ALLOWED:
                return
        what = None
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            what = f"literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("float", "complex"):
            what = f"call to {node.func.id}"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in MATH_FLOAT
        ):
            what = f"math.{node.attr}"
        elif isinstance(node, ast.Import):
            bad = [a.name for a in node.names if a.name.split(".")[0] in FLOAT_MODULES]
            what = f"import {', '.join(bad)}" if bad else None
        elif isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split(".")[0]
            if root in FLOAT_MODULES:
                what = f"from {node.module} import"
            elif root == "math":
                bad = [a.name for a in node.names if a.name in MATH_FLOAT or a.name == "*"]
                what = f"from math import {', '.join(bad)}" if bad else None
        if what:
            found.append(f"{module}:{node.lineno}: {what}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_no_float_in_the_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [hit for path in modules for hit in float_uses(path.read_text(), path.stem)]
    assert found == []


def test_guard_catches_each_kind():
    source = """
import math
from math import sqrt
import numpy as np
from decimal import Decimal

def decide(x):
    return math.cos(x) > 0.5 and float(x) and math.pi and math.isqrt(x)

def numeric_estimate(value):
    import mpmath
    return mpmath.cos(0.25)
"""
    hits = [hit.split(": ", 1)[1] for hit in float_uses(source, "rigidity")]
    assert hits == [
        "from math import sqrt",
        "import numpy",
        "from decimal import",
        "math.cos",
        "literal 0.5",
        "call to float",
        "math.pi",
    ]
    # outside rigidity the allowed name is not allowed
    assert "import mpmath" in [hit.split(": ", 1)[1] for hit in float_uses(source, "cyclo")]


# -- the reports -------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_datasets(tmp_path_factory):
    """Every dataset of the seed-0 verdict-p3 and verdict-large-p corpora."""
    datasets = []
    for workload in ("verdict-p3", "verdict-large-p"):
        for op in generate(workload, 0, tmp_path_factory.mktemp(workload)):
            datasets.append(parse_dataset(Path(op["argv"][1]).read_bytes()))
    return datasets


def _floats(value, path="report") -> list[str]:
    if isinstance(value, float):
        return [path]
    if isinstance(value, dict):
        return [hit for key, v in value.items() for hit in _floats(v, f"{path}.{key}")]
    if isinstance(value, (list, tuple)):
        return [hit for i, v in enumerate(value) for hit in _floats(v, f"{path}[{i}]")]
    return []


def _without_estimates(report: dict) -> dict:
    """``report`` with every advisory estimate, and the note quoting it, blanked."""
    out = json.loads(json.dumps(report))
    for spin in [out["spin"]] + [entry["spin"] for entry in out["lift_sweep"] or ()]:
        spin["estimate"] = None
    for note in out["notes"]:
        if note["anchor"] == "rationality-hypothesis":
            note["detail"] = None
    return out


def test_no_report_holds_a_float(corpus_datasets):
    for dataset in corpus_datasets:
        report = rigidity.verdict_report(rigidity.verdict(dataset))
        assert _floats(report) == [], dataset


def test_reports_do_not_read_the_estimate(corpus_datasets, monkeypatch):
    real = [rigidity.verdict_report(rigidity.verdict(d)) for d in corpus_datasets]
    monkeypatch.setattr(rigidity, "numeric_estimate", lambda value, bits=80: "constant")
    constant = [rigidity.verdict_report(rigidity.verdict(d)) for d in corpus_datasets]
    # the corpora have irrational spin numbers, so the estimate was printed
    assert any(r["spin"]["estimate"] == "constant" for r in constant)
    for a, b in zip(real, constant):
        assert json.dumps(_without_estimates(a), sort_keys=True) == json.dumps(_without_estimates(b), sort_keys=True)
