"""The record contract: every record is an immutable, value-compared named tuple.

Each record is checked for immutability, equality and hashing by value, a
working ``_replace``, and a ``repr`` equal to the one the earlier dataclass
version of the record printed.  ``InstanceParameters`` printed a trailing
``t_vector=(3, 0, 0)`` then; that field is gone, and so is its text.
"""

from fractions import Fraction

import pytest

from equispin.dataset import (
    FixedPointDataset,
    FixedSurface,
    HalfWeightPoint,
    HalfWeightSurface,
    IsolatedPoint,
    ManifoldInvariants,
)
from equispin.lefschetz import KVector, SpinNumberTuple
from equispin.repring import InstanceParameters, TruncationIdeal
from equispin.rigidity import Reason, RigidityVerdict, SpinClass, VanishingReport

K3 = ManifoldInvariants.k3()

# (make, the dataclass-era repr, a field change for _replace)
RECORDS = [
    pytest.param(
        ManifoldInvariants.k3,
        "ManifoldInvariants(b1=0, b_plus=3, signature=-16, euler=24, is_spin=True)",
        {"b_plus": 5},
        id="ManifoldInvariants",
    ),
    pytest.param(
        lambda: IsolatedPoint(1, 2, -1),
        "IsolatedPoint(l_alpha=1, l_beta=2, epsilon=-1)",
        {"epsilon": 1},
        id="IsolatedPoint",
    ),
    pytest.param(
        lambda: FixedSurface(-2, 0, 1, 1),
        "FixedSurface(self_intersection=-2, genus=0, l_theta=1, epsilon=1)",
        {"genus": 1},
        id="FixedSurface",
    ),
    pytest.param(
        lambda: FixedPointDataset(3, K3, 3, True, [IsolatedPoint(1, 2, -1)], [FixedSurface(-2, 0, 1, 1)]),
        "FixedPointDataset(p=3, manifold=ManifoldInvariants(b1=0, b_plus=3, signature=-16, "
        "euler=24, is_spin=True), quotient_b_plus=3, homologically_trivial=True, "
        "isolated=(IsolatedPoint(l_alpha=1, l_beta=2, epsilon=-1),), "
        "surfaces=(FixedSurface(self_intersection=-2, genus=0, l_theta=1, epsilon=1),))",
        {"quotient_b_plus": 1},
        id="FixedPointDataset",
    ),
    pytest.param(
        lambda: HalfWeightPoint(4, 2),
        "HalfWeightPoint(a=4, b=2)",
        {"a": 1},
        id="HalfWeightPoint",
    ),
    pytest.param(
        lambda: HalfWeightSurface(1, -2, 0),
        "HalfWeightSurface(c=1, self_intersection=-2, genus=0)",
        {"c": 4},
        id="HalfWeightSurface",
    ),
    pytest.param(
        lambda: SpinNumberTuple(3, (Fraction(2), Fraction(0), Fraction(0))),
        "SpinNumberTuple(p=3, defects=(Fraction(2, 1), Fraction(0, 1), Fraction(0, 1)))",
        {"defects": (Fraction(0), Fraction(1), Fraction(1))},
        id="SpinNumberTuple",
    ),
    pytest.param(
        lambda: KVector(3, [2, 0, 0]),
        "KVector(p=3, k=(2, 0, 0))",
        {"k": (0, 1, 1)},
        id="KVector",
    ),
    pytest.param(
        lambda: TruncationIdeal(3, [1, 0, 0]),
        "TruncationIdeal(p=3, m_vector=(1, 0, 0))",
        {"m_vector": (2, 2, 2)},
        id="TruncationIdeal",
    ),
    pytest.param(
        lambda: InstanceParameters(p=3, m_vector=(2, 1, 1), n_vector=(0, 1, 1), l=1),
        "InstanceParameters(p=3, m_vector=(2, 1, 1), n_vector=(0, 1, 1), l=1, d=0)",
        {"n_vector": (1, 0, 1)},
        id="InstanceParameters",
    ),
    pytest.param(
        lambda: SpinClass(rational=True, value=Fraction(-1), sign="negative"),
        "SpinClass(rational=True, value=Fraction(-1, 1), sign='negative', estimate=None)",
        {"sign": "zero"},
        id="SpinClass",
    ),
    pytest.param(
        lambda: Reason("sw-vanishing", "SW = 0"),
        "Reason(anchor='sw-vanishing', detail='SW = 0')",
        {"detail": "SW = 1"},
        id="Reason",
    ),
    pytest.param(
        lambda: VanishingReport(hypotheses_met=False, detail="k_0 > l"),
        "VanishingReport(hypotheses_met=False, detail='k_0 > l', q=None, kernel_rank=None, "
        "kernel_contains_expected=None, kernel_spanned_by_expected=None, "
        "scalar_forced_zero=None, sw_value=None)",
        {"kernel_rank": 1},
        id="VanishingReport",
    ),
    pytest.param(
        lambda: RigidityVerdict(
            "NoObstruction", (Reason("a", "b"),), (),
            SpinClass(False, None, "unknown-irrational", "0.5"),
            None, KVector(3, (2, 0, 0)), None, None,
        ),
        "RigidityVerdict(outcome='NoObstruction', reasons=(Reason(anchor='a', detail='b'),), "
        "notes=(), spin=SpinClass(rational=False, value=None, sign='unknown-irrational', "
        "estimate='0.5'), spins=None, k=KVector(p=3, k=(2, 0, 0)), quotient=None, "
        "vanishing=None)",
        {"outcome": "Contradiction"},
        id="RigidityVerdict",
    ),
]


@pytest.mark.parametrize("make, text, change", RECORDS)
class TestRecordContract:
    def test_immutable(self, make, text, change):
        record = make()
        name = next(iter(change))
        with pytest.raises(AttributeError):
            setattr(record, name, change[name])
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == make()

    def test_value_equality_and_hash(self, make, text, change):
        a, b = make(), make()
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a != a._replace(**change)

    def test_repr(self, make, text, change):
        assert repr(make()) == text

    def test_replace(self, make, text, change):
        record = make()
        changed = record._replace(**change)
        assert type(changed) is type(record)
        for name in record._fields:
            want = change[name] if name in change else getattr(record, name)
            assert getattr(changed, name) == want
        assert record == make()


class TestReplaceCoerces:
    """``_replace`` goes through the constructor's coercions and checks."""

    def test_dataset_components_become_tuples(self):
        d = FixedPointDataset(3, K3, 3, True)
        changed = d._replace(isolated=[IsolatedPoint(1, 2, -1)], surfaces=iter(()))
        assert changed.isolated == (IsolatedPoint(1, 2, -1),) and changed.surfaces == ()

    def test_k_vector(self):
        kv = KVector(3, (2, 0, 0))
        assert kv._replace(k=[0.0, 1, 1]).k == (0, 1, 1)
        with pytest.raises(ValueError, match="one entry per group element"):
            kv._replace(k=(1, 1))

    def test_truncation_ideal(self):
        with pytest.raises(ValueError, match="non-negative"):
            TruncationIdeal(3, (1, 0, 0))._replace(m_vector=(1, -1, 0))

    def test_instance_parameters(self):
        params = InstanceParameters(p=3, m_vector=(2, 1, 1), n_vector=(0, 1, 1), l=1)
        with pytest.raises(ValueError, match="bookkeeping"):
            params._replace(l=2)
        assert params._replace(m_vector=[2, 2, 1], n_vector=[0, 2, 1]).m_vector == (2, 2, 1)
