"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is exact equality and every expected value is frozen here.
"""

import random
import time
from fractions import Fraction
from itertools import product

from equispin.cyclo import CyclotomicNumber, cyclotomic_polynomial, half_angle_csc
from equispin.dataset import (
    ManifoldInvariants,
    fermat_quartic,
)
from equispin.intlinalg import solve
from equispin.lefschetz import (
    KVector,
    k_vector,
    signature_quotient_p3,
    euler_quotient_p3,
    spin_number,
    spin_number_tuple,
    synthesize_spins,
)
from equispin.repring import (
    InstanceParameters,
    RepRingElement,
    adams_constraint_residual,
    adams_multiplier,
    one_minus_t_xi,
    solve_adams_kernel,
)
from equispin.rigidity import (
    CONSTRAINT_VIOLATION,
    CONTRADICTION,
    NO_OBSTRUCTION,
    enumerate_pseudofree_p3,
    verdict,
    verify_sw_vanishing,
)

from conftest import engineered_trivial_datasets, random_dataset
from oracles import spin_value

K3 = ManifoldInvariants.k3()


def report(criterion: str, started: float) -> None:
    print(f"PASS {criterion} ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_fermat_regression():
    started = time.perf_counter()
    fermat = fermat_quartic()
    assert spin_number(fermat, 1) == 2
    assert signature_quotient_p3(fermat) == -4
    quotient_b_minus = fermat.quotient_b_plus - signature_quotient_p3(fermat)
    assert quotient_b_minus == 7 and fermat.quotient_b_plus == 3
    assert euler_quotient_p3(fermat) == 12
    assert k_vector(spin_number_tuple(fermat)).k == (2, 0, 0)
    assert verdict(fermat).outcome == NO_OBSTRUCTION
    assert time.perf_counter() - started < 1.0
    report("criterion-1 fermat-regression", started)


def test_criterion_2_pseudofree_enumeration():
    started = time.perf_counter()
    assert enumerate_pseudofree_p3(1, False, K3) == [(0, 3)]
    assert enumerate_pseudofree_p3(3, False, K3) == [(0, 12), (3, 6), (6, 0)]
    assert enumerate_pseudofree_p3(3, True, K3) == []
    assert time.perf_counter() - started < 1.0
    report("criterion-2 pseudofree-enumeration", started)


def test_criterion_3_vanishing_instance():
    started = time.perf_counter()
    params = InstanceParameters(p=3, m_vector=(2, 2, 2), n_vector=(2, 1, 1), l=1, d=0)
    assert params.k_vector == (0, 1, 1)
    sigma = RepRingElement.sigma(3)
    one = RepRingElement.one(3)
    t = RepRingElement.t(3)
    candidate = sigma * (one - t) ** 5
    assert adams_constraint_residual(candidate, params, 2).is_zero()
    rep = verify_sw_vanishing(params, q=2)
    assert rep.kernel_rank == 1
    assert rep.kernel_spanned_by_expected
    assert rep.scalar_forced_zero
    assert rep.sw_value == 0
    assert time.perf_counter() - started < 1.0
    report("criterion-3 vanishing-instance", started)


def test_criterion_4_trivial_corpus_never_unobstructed():
    started = time.perf_counter()
    rng = random.Random(20260808)
    outcomes = {CONSTRAINT_VIOLATION: 0, CONTRADICTION: 0}
    corpus = list(engineered_trivial_datasets())
    for kind in ("isolated", "surfaces", "mixed"):
        for _ in range(166):
            corpus.append(random_dataset(rng, p=3, trivial=True, kind=kind))
    assert len(corpus) >= 500
    for dataset in corpus:
        assert dataset.violations() == []
        out = verdict(dataset).outcome
        assert out in outcomes, f"unexpected outcome {out}"
        outcomes[out] += 1
    assert outcomes[CONTRADICTION] >= 3  # the engineered ones reach the theorem
    report(
        f"criterion-4 trivial-corpus ({len(corpus)} datasets, "
        f"{outcomes[CONSTRAINT_VIOLATION]} violations, "
        f"{outcomes[CONTRADICTION]} contradictions)",
        started,
    )


def test_criterion_5_property_suites():
    started = time.perf_counter()
    rng = random.Random(5150)
    datasets = 0
    for p in (3, 5, 7):
        for _ in range(334):
            kind = rng.choice(("isolated", "surfaces", "mixed"))
            d = random_dataset(rng, p=p, kind=kind, max_points=6, max_surfaces=3)
            values = [spin_number(d, j) for j in range(1, p)]
            assert all(v.is_real() for v in values)
            for j in range(1, p):
                assert values[j - 1] == values[p - j - 1]
            if p == 3:
                assert values[0].reduced().is_rational()
            datasets += 1
    assert datasets >= 1000

    # Fourier round trip on random integer defect vectors summing to 2
    for p in (3, 5, 7):
        for _ in range(120):
            k = [rng.randint(-6, 6) for _ in range(p)]
            k[0] = 2 - sum(k[1:])
            kv = KVector(p, tuple(k))
            assert k_vector(synthesize_spins(kv)) == kv

    # first-twist identity under equal tail defects
    for p in (3, 5, 7):
        for k0 in range(-8, 3):
            if (2 - k0) % (p - 1) != 0:
                continue
            tail = (2 - k0) // (p - 1)
            kv = KVector(p, (k0,) + (tail,) * (p - 1))
            assert spin_value(synthesize_spins(kv), 1) == Fraction(p * k0 - 2, p - 1)
    report(f"criterion-5 property-suites ({datasets} datasets)", started)


def test_criterion_6_algebraic_identities():
    started = time.perf_counter()
    for p in (3, 5, 7):
        zp = CyclotomicNumber.zeta(p)
        prod = CyclotomicNumber.from_rational(1, p)
        for j in range(1, p):
            prod = prod * (1 + zp**j)
        assert prod == 1
    sigma = RepRingElement.sigma(3)
    base = sigma * (RepRingElement.one(3) - RepRingElement.t(3))
    for k in range(3):
        assert sigma * one_minus_t_xi(3, k) == base
    assert (half_angle_csc(1, 3) ** 2).reduced() == Fraction(4, 3)
    for n in range(1, 61):
        assert cyclotomic_polynomial(n).evaluate(CyclotomicNumber.zeta(n)).is_zero()
    report("criterion-6 algebraic-identities", started)


def _constraint_matrix(params: InstanceParameters, q: int):
    p = params.p
    total = params.truncation().total
    monomials = [(i, j) for i in range(total) for j in range(p)]
    index = {mon: r for r, mon in enumerate(monomials)}
    multiplier = adams_multiplier(params, q)
    columns = []
    for mon in monomials:
        beta = RepRingElement.monomial(p, *mon)
        residual = adams_constraint_residual(beta, params, q, multiplier)
        col = [0] * len(monomials)
        for key, c in residual.terms():
            col[index[key]] = c
        columns.append(col)
    rows = [[columns[c][r] for c in range(len(monomials))] for r in range(len(monomials))]
    return rows, monomials


def _box_solutions_meet_in_middle(rows, span=3):
    """All vectors with entries in [-span, span] annihilated by the matrix."""
    dim = len(rows[0])
    half = dim // 2
    values = range(-span, span + 1)
    left_cols = [[row[c] for row in rows] for c in range(half)]
    right_cols = [[row[c] for row in rows] for c in range(half, dim)]

    table: dict[tuple, list[tuple]] = {}
    for right in product(values, repeat=dim - half):
        key = tuple(
            -sum(col[r] * v for col, v in zip(right_cols, right))
            for r in range(len(rows))
        )
        table.setdefault(key, []).append(right)

    solutions = []
    for left in product(values, repeat=half):
        key = tuple(
            sum(col[r] * v for col, v in zip(left_cols, left)) for r in range(len(rows))
        )
        for right in table.get(key, ()):
            solutions.append(tuple(left) + right)
    return solutions


def _in_lattice(vector, basis) -> bool:
    if not basis:
        return all(v == 0 for v in vector)
    matrix = [[Fraction(b[r]) for b in basis] for r in range(len(vector))]
    coeffs = solve(matrix, [Fraction(v) for v in vector])
    return coeffs is not None and all(c.denominator == 1 for c in coeffs)


def test_criterion_7_kernel_oracle():
    started = time.perf_counter()
    instances = [
        InstanceParameters(p=3, m_vector=(1, 1, 0), n_vector=(0, 0, 0), l=1, d=0),
        InstanceParameters(p=3, m_vector=(1, 1, 1), n_vector=(1, 0, 0), l=1, d=0),
    ]
    for params in instances:
        rows, monomials = _constraint_matrix(params, 2)
        brute = _box_solutions_meet_in_middle(rows, span=3)
        kernel = solve_adams_kernel(params, 2)
        basis = []
        for element in kernel:
            vec = [0] * len(monomials)
            for idx, mon in enumerate(monomials):
                vec[idx] = element.coefficient(*mon)
            basis.append(vec)
        # every brute-force solution lies in the reported lattice
        for x in brute:
            assert _in_lattice(x, basis), f"brute solution {x} missed by the solver"
        # every reported basis vector solves the system (and, when inside
        # the box, is found by the brute force)
        box = set(brute)
        for vec in basis:
            assert all(
                sum(rows[r][c] * vec[c] for c in range(len(vec))) == 0
                for r in range(len(rows))
            )
            if all(abs(v) <= 3 for v in vec):
                assert tuple(vec) in box
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(f"criterion-7 kernel-oracle ({elapsed:.2f}s)", started)
