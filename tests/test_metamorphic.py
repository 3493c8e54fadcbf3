"""Metamorphic relations of the verdict pipeline, at p in {3, 5, 7, 11}.

* The fixed components form a set: listing the isolated points and the
  surfaces in another order leaves the ``verdict --format json`` report
  byte-identical.
* Passing from g to g^r: multiplying every half-weight residue mod 2p by an
  odd r prime to p gives the fixed-point data of the power.  Its spin
  numbers are ``Spin'(j) = Spin(r j)``, so its defects are those of g
  relabelled, ``k'[r i mod p] = k[i]``.  Odd r keeps the parity of
  ``a + b``, which the half-weight encoding carries.  g^r generates the same
  group action, so the verdict rules reach the same outcome, with the same
  reason anchors in the same order and the same set of note anchors.
"""

import random

import pytest

from conftest import engineered_trivial_datasets, random_dataset
from oracles import spin_value
from test_rigidity import P7_ORBIT_POINTS

from equispin.cli import main
from equispin.dataset import (
    FixedPointDataset,
    FixedSurface,
    IsolatedPoint,
    ManifoldInvariants,
    normalize_half_weights,
    to_json,
)
from equispin.lefschetz import spin_number, spin_number_tuple
from equispin.rigidity import CONTRADICTION, NO_OBSTRUCTION, verdict

PRIMES = (3, 5, 7, 11)
K3 = ManifoldInvariants.k3()
# the spin number of each Galois orbit in the orbit datasets; the sums of
# these shapes give integral defects, unlike most random data above p = 3
ORBIT_SHAPES = {5: (2,), 7: (-4, -4, -4)}


def _orbit(a: int, b: int, eps: int, p: int) -> list[IsolatedPoint]:
    """The Galois orbit of one isolated point, as p - 1 points.

    The point is encoded by its half weights ``(a + p [eps = 1], b)`` mod 2p;
    the automorphism ``z -> z^r`` of ``Q(z_2p)`` (r odd, prime to p) multiplies
    both, and a second weight pushed past p moves its shift to the first.
    """
    n = 2 * p
    first, second = a + (p if eps == 1 else 0), b
    out = []
    for r in range(1, p):
        odd = r if r % 2 else r + p
        aa, bb = odd * first % n, odd * second % n
        if bb > p:
            aa, bb = (aa + p) % n, bb - p
        out.append(IsolatedPoint(aa - p, bb, 1) if aa > p else IsolatedPoint(aa, bb, -1))
    return out


def _orbit_datasets(p: int) -> list[FixedPointDataset]:
    """Isolated points forming Galois orbits of the spin numbers ``ORBIT_SHAPES[p]``.

    The same points are flagged non-trivial and homologically trivial.
    """
    rng = random.Random(2000 + p)
    generators = [(a, b, eps) for a in range(1, p) for b in range(1, p) for eps in (1, -1)]
    points = []
    for value in ORBIT_SHAPES[p]:
        orbit = _orbit(*rng.choice(generators), p)
        while spin_number(FixedPointDataset(p, K3, 3, False, isolated=orbit), 1) != value:
            orbit = _orbit(*rng.choice(generators), p)
        points += orbit
    rng.shuffle(points)
    return [FixedPointDataset(p, K3, 3, trivial, isolated=points) for trivial in (False, True)]


def _datasets(p: int) -> list[FixedPointDataset]:
    rng = random.Random(1000 + p)
    out = [random_dataset(rng, p=p, trivial=trivial) for trivial in (False, True) * 3]
    if p == 3:
        out += engineered_trivial_datasets()
    if p == 7:
        points = tuple(IsolatedPoint(*pt) for pt in P7_ORBIT_POINTS)
        out += [FixedPointDataset(7, K3, 3, trivial, isolated=points) for trivial in (False, True)]
    if p in ORBIT_SHAPES:
        out += _orbit_datasets(p)
    return out


def _verdict_json(tmp_path, capsys, dataset: FixedPointDataset) -> str:
    path = tmp_path / "dataset.json"
    path.write_text(to_json(dataset), encoding="utf-8")
    assert main(["verdict", str(path), "--format", "json"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("p", PRIMES)
def test_permuting_components_keeps_report(p, tmp_path, capsys):
    rng = random.Random(p)
    for dataset in _datasets(p):
        want = _verdict_json(tmp_path, capsys, dataset)
        for _ in range(2):
            isolated, surfaces = list(dataset.isolated), list(dataset.surfaces)
            rng.shuffle(isolated)
            rng.shuffle(surfaces)
            permuted = dataset._replace(isolated=isolated, surfaces=surfaces)
            assert _verdict_json(tmp_path, capsys, permuted) == want


def _power(dataset: FixedPointDataset, r: int) -> FixedPointDataset:
    """The dataset with every half-weight residue multiplied by r mod 2p.

    A point whose second residue lands above p is moved by ``(a, b) -> (a +
    p, b + p)``, which keeps its term, so that ``b`` is again a rotation
    number in 1..p-1.
    """
    p = dataset.p
    points, surfaces = normalize_half_weights(dataset)
    isolated = []
    for pt in points:
        a, b = r * pt.a % (2 * p), r * pt.b % (2 * p)
        if b > p:
            a, b = (a + p) % (2 * p), b - p
        isolated.append(IsolatedPoint(a % p, b, 1 if a > p else -1))
    fixed = []
    for sf in surfaces:
        c = r * sf.c % (2 * p)
        fixed.append(FixedSurface(sf.self_intersection, sf.genus, c % p, -1 if c > p else 1))
    return dataset._replace(isolated=isolated, surfaces=fixed)


@pytest.mark.parametrize("p", PRIMES)
def test_power_relabels_spin_numbers_and_defects(p):
    odd_units = [r for r in range(1, 2 * p, 2) if r != p]
    for dataset in _datasets(p):
        assert _power(dataset, 1) == dataset
        spins = spin_number_tuple(dataset)
        for r in odd_units:
            power = _power(dataset, r)
            assert not power.violations()
            twisted = spin_number_tuple(power)
            for j in range(p):
                assert spin_value(twisted, j) == spin_value(spins, r * j % p)
            for i in range(p):
                assert twisted.defects[r * i % p] == spins.defects[i]


def test_datasets_reach_the_rules_above_three():
    # without the orbit datasets every p = 5 dataset stops at defect-integrality
    outcomes = {p: {verdict(d).outcome for d in _datasets(p)} for p in ORBIT_SHAPES}
    assert NO_OBSTRUCTION in outcomes[5]
    assert {NO_OBSTRUCTION, CONTRADICTION} <= outcomes[7]


@pytest.mark.parametrize("p", PRIMES)
def test_power_keeps_outcome_and_anchors(p):
    odd_units = [r for r in range(1, 2 * p, 2) if r != p]
    for dataset in _datasets(p):
        want = verdict(dataset)
        anchors = [reason.anchor for reason in want.reasons]
        notes = {note.anchor for note in want.notes}
        for r in odd_units:
            got = verdict(_power(dataset, r))
            assert got.outcome == want.outcome, r
            assert [reason.anchor for reason in got.reasons] == anchors, r
            assert {note.anchor for note in got.notes} == notes, r


@pytest.mark.parametrize("p", (3, 5))
def test_power_matches_the_literal_oracle(p):
    # the per-power evaluation in Q(zeta_2p), independent of the defect tables
    for dataset in _datasets(p)[:2]:
        for r in (p + 2, 2 * p - 1):
            assert spin_number(_power(dataset, r), 1) == spin_number(dataset, r % p)
