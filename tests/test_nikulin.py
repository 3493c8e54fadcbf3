"""Nikulin's symplectic actions of order 3, 5 and 7 on K3 as soundness fixtures.

A symplectic automorphism of prime order p fixes only isolated points, of
rotation type (a, p - a): six of (1, 2) at p = 3, (1, 4) and (2, 3) twice
each at p = 5, and one each of (1, 6), (2, 5) and (3, 4) at p = 7.  It acts
nontrivially on H^2 with invariant b+ equal to 3.  Of all 2^n spin-sign
choices, only epsilon = -1 at every point gives integral defects; it reads
spin number 2 and defects (2, 0, ..., 0), as a symplectic map fixes H^0(O)
and H^(0,2).  Each point's spin term is then its holomorphic Lefschetz term
1/|1 - zeta^a|^2.
"""

import itertools

import pytest

from equispin.cyclo import CyclotomicNumber
from equispin.dataset import FixedPointDataset, IsolatedPoint, ManifoldInvariants
from equispin.lefschetz import spin_number, spin_number_from_angles
from equispin.rigidity import NO_OBSTRUCTION, verdict

TYPES = {
    3: [(1, 2)] * 6,
    5: [(1, 4), (1, 4), (2, 3), (2, 3)],
    7: [(1, 6), (2, 5), (3, 4)],
}


def _nikulin(p: int, signs) -> FixedPointDataset:
    points = tuple(IsolatedPoint(a, b, eps) for (a, b), eps in zip(TYPES[p], signs))
    return FixedPointDataset(p, ManifoldInvariants.k3(), 3, False, isolated=points)


def _holomorphic_term(p: int, a: int) -> CyclotomicNumber:
    """``1/|1 - zeta^a|^2 = 1/((1 - zeta^a)(1 - zeta^-a))`` in ``Q(zeta_p)``."""
    z = CyclotomicNumber.zeta
    return ((1 - z(p, a)) * (1 - z(p, -a % p))).inverse()


@pytest.mark.parametrize("p", sorted(TYPES))
def test_all_negative_signs_pass_with_spin_number_two(p):
    v = verdict(_nikulin(p, [-1] * len(TYPES[p])))
    assert v.outcome == NO_OBSTRUCTION
    assert v.spin.rational and v.spin.value == 2
    assert v.k.k == (2,) + (0,) * (p - 1)


@pytest.mark.parametrize("p", sorted(TYPES))
def test_every_other_sign_choice_has_non_integral_defects(p):
    n = len(TYPES[p])
    others = [s for s in itertools.product((1, -1), repeat=n) if s != (-1,) * n]
    assert len(others) == 2**n - 1
    for signs in others:
        v = verdict(_nikulin(p, signs))
        assert "defect-integrality" in [r.anchor for r in v.reasons], signs


@pytest.mark.parametrize("p", sorted(TYPES))
def test_spin_terms_are_holomorphic_lefschetz_terms(p):
    dataset = _nikulin(p, [-1] * len(TYPES[p]))
    for point in dataset.isolated:
        alone = dataset._replace(isolated=(point,))
        want = _holomorphic_term(p, point.l_alpha)
        assert spin_number_from_angles(alone) == want
        assert spin_number(alone, 1) == want
    total = sum((_holomorphic_term(p, a) for a, _ in TYPES[p]), CyclotomicNumber.from_rational(0, p))
    assert total.reduced() == 2
