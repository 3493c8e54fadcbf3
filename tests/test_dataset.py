"""Dataset parsing, validation, serialization, class counts, and half-weight encoding."""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equispin.cyclo import PRIMALITY_BOUND
from equispin.dataset import (
    DatasetError,
    FixedPointDataset,
    FixedSurface,
    HalfWeightPoint,
    HalfWeightSurface,
    IsolatedPoint,
    ManifoldInvariants,
    canonical_json,
    class_counts,
    fermat_quartic,
    normalize_half_weights,
    parse_dataset,
    serialize_dataset,
    to_json,
)

FERMAT_DOC = {
    "p": 3,
    "manifold": {"b1": 0, "b_plus": 3, "signature": -16, "euler": 24, "is_spin": True},
    "quotient_b_plus": 3,
    "homologically_trivial": False,
    "isolated": [{"l_alpha": 1, "l_beta": 2, "epsilon": -1} for _ in range(6)],
    "surfaces": [],
}


class TestManifoldInvariants:
    def test_k3_preset_consistent(self):
        k3 = ManifoldInvariants.k3()
        assert k3.violations() == []
        assert k3.euler == 2 + k3.b_plus + k3.b_minus
        assert k3.b_minus == 19

    def test_rochlin(self):
        bad = ManifoldInvariants(b1=0, b_plus=3, signature=-8, euler=16, is_spin=True)
        assert any("divisible by 16" in v for v in bad.violations())

    def test_betti_consistency(self):
        bad = ManifoldInvariants(b1=0, b_plus=3, signature=-16, euler=20, is_spin=True)
        assert any("euler" in v for v in bad.violations())


class TestParsing:
    def test_fermat_document_valid(self):
        dataset = parse_dataset(json.dumps(FERMAT_DOC))
        assert dataset == fermat_quartic()

    def test_rotation_divisible_by_p(self):
        doc = dict(FERMAT_DOC, isolated=[{"l_alpha": 0, "l_beta": 1, "epsilon": 1}])
        with pytest.raises(DatasetError, match="divisible by p"):
            parse_dataset(json.dumps(doc))

    def test_trivial_requires_full_quotient(self):
        doc = dict(FERMAT_DOC, homologically_trivial=True, quotient_b_plus=1)
        with pytest.raises(DatasetError, match="quotient_b_plus equal to b_plus"):
            parse_dataset(json.dumps(doc))

    def test_unknown_keys_rejected(self):
        doc = dict(FERMAT_DOC, extra=1)
        with pytest.raises(DatasetError, match="unknown keys"):
            parse_dataset(json.dumps(doc))
        doc = dict(FERMAT_DOC, manifold=dict(FERMAT_DOC["manifold"], junk=2))
        with pytest.raises(DatasetError, match="unknown keys"):
            parse_dataset(json.dumps(doc))

    def test_bool_is_not_int(self):
        doc = dict(FERMAT_DOC, p=True)
        with pytest.raises(DatasetError, match="must be an integer"):
            parse_dataset(json.dumps(doc))

    def test_all_violations_reported(self):
        doc = dict(
            FERMAT_DOC,
            homologically_trivial=True,
            quotient_b_plus=1,
            isolated=[{"l_alpha": 3, "l_beta": 1, "epsilon": 2}],
        )
        try:
            parse_dataset(json.dumps(doc))
        except DatasetError as exc:
            assert len(exc.violations) >= 3
        else:
            pytest.fail("expected DatasetError")

    def test_trivial_k3_surface_constraints(self):
        doc = dict(
            FERMAT_DOC,
            homologically_trivial=True,
            quotient_b_plus=3,
            isolated=[],
            surfaces=[{"self_intersection": 2, "genus": 1, "l_theta": 1, "epsilon": 1}],
        )
        try:
            parse_dataset(json.dumps(doc))
        except DatasetError as exc:
            text = " ".join(exc.violations)
            assert "sphere" in text and "self-intersection" in text
        else:
            pytest.fail("expected DatasetError")

    def test_arbitrary_precision_integers(self):
        doc = dict(
            FERMAT_DOC,
            surfaces=[
                {
                    "self_intersection": -(10**30),
                    "genus": 0,
                    "l_theta": 1,
                    "epsilon": 1,
                }
            ],
        )
        dataset = parse_dataset(json.dumps(doc))
        assert dataset.surfaces[0].self_intersection == -(10**30)

    @pytest.mark.parametrize(
        "document", [b"\xff", b'{"p": ' + b"7" * 5000 + b"}", '{"p": ' + "7" * 5000 + "}"]
    )
    def test_undecodable_document_is_dataset_error(self, document):
        with pytest.raises(DatasetError, match="invalid JSON"):
            parse_dataset(document)

    def test_huge_prime_order_returns_fast(self):
        started = time.perf_counter()
        dataset = parse_dataset(json.dumps(dict(FERMAT_DOC, p=2**61 - 1, isolated=[])))
        assert time.perf_counter() - started < 0.1
        assert dataset.p == 2**61 - 1

    def test_order_past_primality_bound_rejected(self):
        doc = dict(FERMAT_DOC, p=PRIMALITY_BOUND + 2, isolated=[])
        with pytest.raises(DatasetError, match=str(PRIMALITY_BOUND)):
            parse_dataset(json.dumps(doc))

    def test_round_trip(self):
        text = json.dumps(FERMAT_DOC)
        assert to_json(parse_dataset(text)) == canonical_json(text)

    def test_serialize_parse_identity(self):
        dataset = fermat_quartic()
        assert parse_dataset(serialize_dataset(dataset)) == dataset


class TestHalfWeights:
    def test_point_conventions(self):
        d = FixedPointDataset(
            3,
            ManifoldInvariants.k3(),
            3,
            False,
            isolated=(IsolatedPoint(1, 1, -1), IsolatedPoint(1, 1, 1)),
            surfaces=(FixedSurface(-2, 0, 1, -1),),
        )
        points, surfaces = normalize_half_weights(d)
        assert points == (HalfWeightPoint(1, 1), HalfWeightPoint(4, 1))
        assert surfaces == (HalfWeightSurface(4, -2, 0),)

    def test_surface_plain_convention(self):
        d = FixedPointDataset(
            3,
            ManifoldInvariants.k3(),
            3,
            False,
            surfaces=(FixedSurface(-2, 0, 1, 1),),
        )
        _, surfaces = normalize_half_weights(d)
        assert surfaces == (HalfWeightSurface(1, -2, 0),)

    def test_residues_nonzero_mod_p(self):
        points, surfaces = normalize_half_weights(fermat_quartic())
        assert all(pt.a % 3 != 0 and pt.b % 3 != 0 for pt in points)


class TestClassCounts:
    def test_fermat(self):
        counts = class_counts(fermat_quartic())
        assert counts.points == (((1, 2, -1), 6),)
        assert (counts.surfaces, counts.betti, counts.fixed_euler) == ((), (6, 0, 0), 6)

    def test_mixed_fixed_set(self):
        d = FixedPointDataset(
            5,
            ManifoldInvariants.k3(),
            3,
            False,
            isolated=(IsolatedPoint(4, 3, 1), IsolatedPoint(1, 2, 1), IsolatedPoint(2, 1, -1)),
            surfaces=(FixedSurface(-2, 1, 1, 1), FixedSurface(3, 0, 4, -1), FixedSurface(0, 2, 2, 1)),
        )
        counts = class_counts(d)
        # (4, 3) is (1, 2) negated; the sign reads the raw rotation numbers
        assert counts.points == (((1, 2, -1), 1), ((1, 2, 1), 2))
        # l_theta = 4 is -1 mod 5; F.F adds up per class, a zero sum included
        assert counts.surfaces == (((1, -1), 1), ((2, 1), 0))
        assert (counts.betti, counts.fixed_euler, counts.surface_sum) == ((6, 6, 3), 3, 1)

    def test_permutation_invariant(self):
        d = fermat_quartic()._replace(isolated=(IsolatedPoint(1, 1, 1), IsolatedPoint(1, 2, -1)) * 3)
        reordered = d._replace(isolated=sorted(d.isolated))
        assert class_counts(d) == class_counts(reordered)


class TestTypeCounting:
    def test_fermat(self):
        assert class_counts(fermat_quartic()).p3_types == (6, 0)

    def test_empty(self):
        d = FixedPointDataset(3, ManifoldInvariants.k3(), 3, False)
        assert class_counts(d).p3_types == (0, 0)

    def test_sign_and_order_orbit(self):
        d = FixedPointDataset(
            3,
            ManifoldInvariants.k3(),
            3,
            False,
            isolated=(IsolatedPoint(1, 1, 1), IsolatedPoint(2, 2, 1)),
        )
        assert class_counts(d).p3_types == (0, 2)

    def test_invariance_under_swap_and_negation(self):
        k3 = ManifoldInvariants.k3()
        for la, lb in ((1, 2), (2, 1), (1, 1), (2, 2)):
            d = FixedPointDataset(
                3, k3, 3, False, isolated=(IsolatedPoint(la, lb, 1),)
            )
            swapped = FixedPointDataset(
                3, k3, 3, False, isolated=(IsolatedPoint(lb, la, 1),)
            )
            negated = FixedPointDataset(
                3, k3, 3, False,
                isolated=(IsolatedPoint((-la) % 3, (-lb) % 3, 1),),
            )
            counts = [class_counts(x) for x in (d, swapped, negated)]
            assert counts[0].p3_types == counts[1].p3_types == counts[2].p3_types

    def test_wrong_order(self):
        d = FixedPointDataset(5, ManifoldInvariants.k3(), 3, False)
        with pytest.raises(ValueError):
            class_counts(d).p3_types


# -- the input contract under fuzzing ---------------------------------------------
#
# Integers stay small, as in the documents the program is meant for; the
# huge-integer cases have their own tests above.

JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-40, 40), st.floats(allow_nan=False), st.text(max_size=4)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
NEAR_INTS = st.integers(-8, 30) | JSON_VALUES


def _object(values: dict):
    """Objects over the given keys, each present or not, plus the odd unknown key."""
    stray = st.dictionaries(st.sampled_from(["extra", "p"]), JSON_VALUES, max_size=1)
    known = st.fixed_dictionaries({}, optional=values)
    return st.tuples(stray, known).map(lambda pair: {**pair[0], **pair[1]})


def _components(names):
    entries = _object({name: NEAR_INTS for name in names}) | JSON_VALUES
    return st.lists(entries, max_size=3) | JSON_VALUES


NEAR_DOCUMENTS = _object(
    {
        "p": st.sampled_from([3, 5, 7, 9]) | NEAR_INTS,
        "manifold": _object(
            {
                "b1": NEAR_INTS,
                "b_plus": NEAR_INTS,
                "signature": NEAR_INTS,
                "euler": NEAR_INTS,
                "is_spin": st.booleans() | NEAR_INTS,
            }
        )
        | JSON_VALUES,
        "quotient_b_plus": NEAR_INTS,
        "homologically_trivial": st.booleans() | NEAR_INTS,
        "isolated": _components(["l_alpha", "l_beta", "epsilon"]),
        "surfaces": _components(["self_intersection", "genus", "l_theta", "epsilon"]),
    }
)


MANIFOLDS = [
    ManifoldInvariants.k3(),
    ManifoldInvariants(b1=0, b_plus=1, signature=0, euler=4, is_spin=True),
    ManifoldInvariants(b1=0, b_plus=2, signature=-8, euler=14, is_spin=False),
]


def _outcome(document):
    # any exception other than DatasetError propagates and fails the test
    try:
        return parse_dataset(document)
    except DatasetError as exc:
        return exc.violations


class TestInputContract:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.one_of(JSON_VALUES, NEAR_DOCUMENTS))
    def test_only_dataset_errors(self, document):
        outcome = _outcome(document)
        if not isinstance(document, str):  # a string is read as JSON text
            assert _outcome(json.dumps(document)) == outcome

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.data())
    def test_round_trip(self, data):
        p = data.draw(st.sampled_from([3, 5, 7, 11, 13]))
        trivial = data.draw(st.booleans())
        rotation = st.integers(1, p - 1)
        sign = st.sampled_from([1, -1])
        points = data.draw(st.lists(st.builds(IsolatedPoint, rotation, rotation, sign), max_size=4))
        self_intersection = st.integers(-10**20, 0 if trivial else 10**20)
        genus = st.just(0) if trivial else st.integers(0, 3)
        surfaces = data.draw(
            st.lists(st.builds(FixedSurface, self_intersection, genus, rotation, sign), max_size=3)
        )
        manifold = data.draw(st.sampled_from(MANIFOLDS))
        b_plus = manifold.b_plus
        qb = b_plus if trivial else data.draw(st.sampled_from(range(b_plus % 2, b_plus + 1, 2)))
        dataset = FixedPointDataset(p, manifold, qb, trivial, points, surfaces)
        text = to_json(dataset)
        assert parse_dataset(serialize_dataset(dataset)) == dataset
        assert to_json(parse_dataset(text)) == text
