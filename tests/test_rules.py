"""The verdict as facts and rules.

``rigidity.verdict`` reduces a dataset once to its ``ClassCounts``, then to
its ``Facts``, and evaluates three ordered tables of pure rules on them:
``VIOLATIONS``, then ``CONTRADICTIONS`` when no violation fires, and
``NOTES``.  These tests build facts and class counts by hand, with no
dataset, and run every rule on them; tie each anchor to exactly one rule, in
the source and in what the rules emit; check the README's rule table against
the ``Reason(...)`` calls of ``rigidity.py``; and pin that ``verdict`` has no
order-3 branch of its own and builds the class counts once.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import engineered_trivial_datasets, random_dataset
from test_nikulin import _nikulin
from test_rigidity import _nonsymplectic_quartic

from equispin import lefschetz, rigidity
from equispin.dataset import ClassCounts, ManifoldInvariants, class_counts, fermat_quartic
from equispin.lefschetz import KVector, spin_number_tuple
from equispin.rigidity import (
    CONTRADICTIONS,
    NOTES,
    VIOLATIONS,
    Facts,
    SpinClass,
    facts,
    verdict,
)

ROOT = Path(__file__).resolve().parent.parent
SOURCE = (ROOT / "src" / "equispin" / "rigidity.py").read_text()
TABLES = {"violation": VIOLATIONS, "contradiction": CONTRADICTIONS, "note": NOTES}
RULES = {rule.__name__: rule for table in TABLES.values() for rule in table}
# functions that build reasons for a rule rather than being one
THROUGH = {"check_k_constraints": "defect_constraints"}

K3 = ManifoldInvariants.k3()
NEGATIVE = SpinClass(True, Fraction(-1), "negative")
POSITIVE = SpinClass(True, Fraction(2), "positive")
ZERO = SpinClass(True, Fraction(0), "zero")
IRRATIONAL = SpinClass(False, None, "unknown-irrational", "-0.80194")


def reason_anchors(source: str) -> dict[str, set[str]]:
    """Each anchor literal of a ``Reason(...)`` call, with the functions it is written in."""
    found: dict[str, set[str]] = {}

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Reason":
            anchor = node.args[0]
            assert isinstance(anchor, ast.Constant) and isinstance(anchor.value, str), ast.dump(node)
            found.setdefault(anchor.value, set()).add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


ANCHORS = reason_anchors(SOURCE)


def _section(sigma, euler) -> dict:
    sigma, euler = Fraction(sigma), Fraction(euler)
    return {
        "sigma": sigma,
        "euler": euler,
        "b_plus": 3,
        "b_minus": 3 - sigma,
        "integral": sigma.denominator == 1 and euler.denominator == 1,
    }


def _facts(**fields) -> Facts:
    """The facts of the consistent trivial order-3 action with spin number -1, changed by ``fields``."""
    base = dict(
        p=3, manifold=K3, trivial=True, quotient_b_plus=3, spin=NEGATIVE, k=KVector(3, (0, 1, 1)),
        defect_error=None, fixed_euler=24, surface_sum=-10, has_surfaces=True, f1=0, f2=8,
        quotient=_section(-16, 24),
    )
    base.update(fields)
    return Facts(**base)


def _fired(f: Facts) -> dict[str, list[str]]:
    """The anchors each rule of the three tables yields on ``f``, for the rules that yield any."""
    out = {name: [reason.anchor for reason in rule(f)] for name, rule in RULES.items()}
    return {name: anchors for name, anchors in out.items() if anchors}


SCENARIOS = [
    pytest.param(
        _facts(),
        {
            "sw_vanishing_vs_parity": ["sw-vanishing", "sw-parity"],
            "mixed_fixed_set": ["mixed-fixed-set-bookkeeping"],
        },
        id="negative-one",
    ),
    pytest.param(
        _facts(spin=POSITIVE, k=KVector(3, (2, 0, 0)), surface_sum=-12, f1=4, f2=4),
        {
            "balanced_point_types": ["positive-vs-nonpositive-spin"],
            "mixed_fixed_set": ["mixed-fixed-set-bookkeeping"],
        },
        id="balanced",
    ),
    pytest.param(
        _facts(
            spin=POSITIVE, k=KVector(3, (2, 0, 0)), trivial=False, fixed_euler=6, surface_sum=0,
            has_surfaces=False, f1=6, f2=0, quotient=_section(-4, 12),
        ),
        {"nontrivial_action": ["nontrivial-action"]},
        id="fermat",
    ),
    pytest.param(
        _facts(
            p=5, trivial=False, spin=IRRATIONAL, k=None, defect_error="k_1 = 1/5 is not an integer",
            f1=None, f2=None, quotient=None,
        ),
        {
            "defect_integrality": ["defect-integrality"],
            "rationality_hypothesis": ["rationality-hypothesis"],
            "trace_schedule_ambiguity": ["trace-schedule-ambiguity"],
        },
        id="non-integral-p5",
    ),
    pytest.param(
        _facts(trivial=False, spin=ZERO, k=KVector(3, (3, 0, -1))),
        {"defect_constraints": ["defect-bound", "spin-zero-excluded"]},
        id="zero-spin",
    ),
    pytest.param(
        _facts(trivial=False, spin=POSITIVE, k=KVector(3, (1, 1, 0))),
        {"defect_constraints": ["nonnegative-spin-pattern"]},
        id="positive-pattern",
    ),
    pytest.param(
        _facts(trivial=False, k=KVector(3, (1, 2, 0))),
        {"defect_constraints": ["negative-spin-pattern", "negative-spin-pattern", "defect-tail-sum"]},
        id="negative-pattern",
    ),
    pytest.param(
        _facts(fixed_euler=2, f1=2, f2=0, quotient=_section(Fraction(-16, 3), Fraction(28, 3))),
        {
            "quotient_integrality": ["quotient-signature-integrality", "quotient-euler-integrality"],
            "trivial_action_p3": [
                "quotient-signature-trivial", "lefschetz-euler-trivial", "defect-bookkeeping",
            ],
            "sw_vanishing_vs_parity": ["sw-vanishing", "sw-parity"],
            "mixed_fixed_set": ["mixed-fixed-set-bookkeeping"],
        },
        id="non-integral-quotient",
    ),
    pytest.param(
        _facts(manifold=ManifoldInvariants(0, 5, -32, 44, True), quotient_b_plus=5,
               quotient=_section(-32, 44)),
        {},
        id="not-k3",
    ),
]


@pytest.mark.parametrize("f, want", SCENARIOS)
def test_hand_built_facts_run_every_rule(f, want):
    assert _fired(f) == want


def test_hand_built_facts_reach_every_rule_and_anchor():
    fired = [_fired(param.values[0]) for param in SCENARIOS]
    assert set().union(*fired) == set(RULES)
    assert {a for by_rule in fired for anchors in by_rule.values() for a in anchors} == set(ANCHORS)


def test_hand_built_facts_match_the_builder():
    negative_one = engineered_trivial_datasets()[1]
    assert facts(class_counts(negative_one), spin_number_tuple(negative_one)) == _facts()
    fermat = fermat_quartic()
    assert facts(class_counts(fermat), spin_number_tuple(fermat)) == SCENARIOS[2].values[0]


def _counts(p, trivial, quotient_b_plus, points, surfaces, betti) -> ClassCounts:
    return ClassCounts(p, K3, quotient_b_plus, trivial, points, surfaces, betti)


# class counts written out by hand, each beside the dataset it counts
HAND_COUNTED = [
    pytest.param(
        _counts(3, False, 3, (((1, 2, -1), 6),), (), (6, 0, 0)), fermat_quartic(), id="fermat"
    ),
    pytest.param(
        _counts(3, True, 3, (((1, 1, 1), 4), ((1, 2, -1), 4)), (((1, -1), -8), ((1, 1), -4)), (16, 0, 8)),
        engineered_trivial_datasets()[0],
        id="balanced",
    ),
    pytest.param(
        _counts(3, True, 3, (((1, 1, -1), 8),), (((1, 1), -10),), (16, 0, 8)),
        engineered_trivial_datasets()[1],
        id="negative-one",
    ),
    pytest.param(
        _counts(3, True, 3, (((1, 1, -1), 12), ((1, 1, 1), 4)), (((1, -1), -8),), (20, 0, 4)),
        engineered_trivial_datasets()[2],
        id="negative-four",
    ),
    pytest.param(
        _counts(5, False, 3, (((1, 4, -1), 2), ((2, 3, -1), 2)), (), (4, 0, 0)),
        _nikulin(5, [-1] * 4),
        id="nikulin-5",
    ),
    pytest.param(
        _counts(7, False, 3, (((1, 6, -1), 1), ((2, 5, -1), 1), ((3, 4, -1), 1)), (), (3, 0, 0)),
        _nikulin(7, [-1] * 3),
        id="nikulin-7",
    ),
] + [
    # the point (2, 2) is (1, 1) negated; the quartic curve has genus 3 and F.F = 4
    pytest.param(
        _counts(3, False, 1, (((1, 1, -eps_point), 1),), (((1, -eps_surface), 4),), (2, 6, 1)),
        _nonsymplectic_quartic(eps_point, eps_surface),
        id=f"quartic{eps_point:+d}{eps_surface:+d}",
    )
    for eps_point in (1, -1)
    for eps_surface in (1, -1)
]


@pytest.mark.parametrize("counts, dataset", HAND_COUNTED)
def test_hand_built_counts_give_the_facts_and_rules_of_their_dataset(counts, dataset):
    assert class_counts(dataset) == counts
    f = facts(counts, spin_number_tuple(counts))
    assert f == facts(class_counts(dataset), spin_number_tuple(dataset))
    v = verdict(dataset)
    violations = tuple(r for rule in VIOLATIONS for r in rule(f))
    assert v.reasons == (violations or tuple(r for rule in CONTRADICTIONS for r in rule(f)))
    assert v.notes == tuple(r for rule in NOTES for r in rule(f))
    assert (f.spin, f.k, f.quotient) == (v.spin, v.k, v.quotient)


def test_each_anchor_is_written_in_exactly_one_rule():
    assert len(RULES) == sum(len(table) for table in TABLES.values())
    for anchor, scopes in ANCHORS.items():
        owners = {THROUGH.get(scope, scope) for scope in scopes}
        assert len(owners) == 1 and owners <= RULES.keys(), (anchor, scopes)


def _corpus():
    rng = random.Random(20)
    out = engineered_trivial_datasets() + [fermat_quartic()]
    for p in (3, 3, 3, 5, 7):
        out += [random_dataset(rng, p=p, trivial=trivial) for trivial in (False, True) * 6]
    return out


def test_each_anchor_is_emitted_by_exactly_one_rule():
    emitters: dict[str, set[str]] = {}
    hand_built = [param.values[0] for param in SCENARIOS]
    for f in hand_built + [facts(class_counts(d), spin_number_tuple(d)) for d in _corpus()]:
        for name, anchors in _fired(f).items():
            for anchor in anchors:
                emitters.setdefault(anchor, set()).add(name)
    assert set(emitters) == set(ANCHORS)
    assert {anchor: len(names) for anchor, names in emitters.items()} == dict.fromkeys(ANCHORS, 1)


def test_verdict_is_the_tables_on_the_facts():
    for dataset in _corpus():
        v = verdict(dataset)
        f = facts(class_counts(dataset), spin_number_tuple(dataset))
        violations = tuple(r for rule in VIOLATIONS for r in rule(f))
        contradictions = tuple(r for rule in CONTRADICTIONS for r in rule(f))
        assert v.reasons == (violations or contradictions)
        assert v.notes == tuple(r for rule in NOTES for r in rule(f))
        # the Adams check runs only where the contradiction rules run
        assert v.vanishing == (None if violations else f.vanishing)


def test_verdict_has_no_order_three_branch():
    (node,) = [
        n for n in ast.parse(SOURCE).body if isinstance(n, ast.FunctionDef) and n.name == "verdict"
    ]
    assert not [c for c in ast.walk(node) if isinstance(c, ast.Constant) and c.value == 3]
    assert not [
        c for c in ast.walk(node) if isinstance(c, ast.Call) and getattr(c.func, "id", "") == "Reason"
    ]


def test_class_counts_built_once_per_verdict(monkeypatch):
    calls = []
    count = rigidity.class_counts

    def counted(dataset):
        calls.append(dataset)
        return count(dataset)

    monkeypatch.setattr(rigidity, "class_counts", counted)
    monkeypatch.setattr(lefschetz, "class_counts", counted)
    datasets = engineered_trivial_datasets() + [fermat_quartic()] + _corpus()
    for dataset in datasets:
        verdict(dataset)
    assert calls == datasets


# -- the README's table of rules ------------------------------------------------------


def readme_rules() -> dict[str, tuple[str, str]]:
    """``anchor -> (kind, rule)`` from the rows of README.md's "Verdict rules" table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Verdict rules\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip().strip("`") for cell in line.strip("|").split("|")]
            anchor, kind, rule = cells[:3]
            assert anchor not in rows, anchor
            rows[anchor] = (kind, rule)
    return rows


def test_readme_table_lists_the_reason_anchors():
    rows = readme_rules()
    assert set(rows) == set(ANCHORS)
    for anchor, (kind, rule) in rows.items():
        (scope,) = ANCHORS[anchor]
        assert rule == scope, anchor
        assert RULES[THROUGH.get(scope, scope)] in TABLES[kind], anchor
