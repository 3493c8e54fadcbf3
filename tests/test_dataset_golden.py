"""Exact parse errors: the ``DatasetError.violations`` list of each malformed document.

The table was recorded before the dataset schema was derived from the
record classes, and kept when those records became named tuples whose
``_fields`` and ``_kinds`` give the schema; any change to an error text, to
the order in which errors are reported, or to the point where parsing stops
fails here.  The documents together reach every message that
``parse_dataset`` and the ``violations`` methods can emit.  After an
intended change, print the new table with
``PYTHONPATH=src python tests/test_dataset_golden.py`` and paste it over
``GOLDEN``.
"""

import pytest

from equispin.dataset import DatasetError, parse_dataset

DROP = object()  # an override value that removes the key


def _with(base: dict, overrides: dict) -> dict:
    out = dict(base)
    for key, value in overrides.items():
        if value is DROP:
            out.pop(key, None)
        else:
            out[key] = value
    return out


def manifold(**overrides) -> dict:
    k3 = {"b1": 0, "b_plus": 3, "signature": -16, "euler": 24, "is_spin": True}
    return _with(k3, overrides)


def point(**overrides) -> dict:
    return _with({"l_alpha": 1, "l_beta": 2, "epsilon": -1}, overrides)


def surface(**overrides) -> dict:
    return _with({"self_intersection": -2, "genus": 0, "l_theta": 1, "epsilon": 1}, overrides)


def doc(**overrides) -> dict:
    base = {
        "p": 3,
        "manifold": manifold(),
        "quotient_b_plus": 3,
        "homologically_trivial": False,
        "isolated": [point()],
        "surfaces": [surface()],
    }
    return _with(base, overrides)


DOCUMENTS = {
    # -- not a JSON object
    "invalid-json-text": "{not json",
    "invalid-json-bytes": b"[1, 2",
    "document-list": [doc()],
    "document-number": 7,
    "document-json-string": '"p"',
    "document-null": None,
    # -- top-level keys
    "top-unknown": doc(extra=1),
    "top-unknown-several": doc(zeta=1, alpha=2),
    "top-missing-p": doc(p=DROP),
    "top-missing-manifold": doc(manifold=DROP),
    "top-empty": {},
    "top-unknown-and-missing": {"q": 3, "quotient_b_plus": 3},
    "top-lists-absent": doc(isolated=DROP, surfaces=DROP, p=9),
    # -- top-level types
    "p-string": doc(p="3"),
    "p-bool": doc(p=True),
    "p-float": doc(p=3.0),
    "quotient-null": doc(quotient_b_plus=None),
    "trivial-int": doc(homologically_trivial=1),
    "trivial-string": doc(homologically_trivial="true"),
    "top-all-mistyped": doc(p="3", quotient_b_plus=[3], homologically_trivial=0),
    # -- manifold
    "manifold-list": doc(manifold=[0, 3, -16, 24, True]),
    "manifold-null-after-mistyped-p": doc(manifold=None, p=3.5),
    "manifold-unknown": doc(manifold=manifold(b2=22)),
    "manifold-missing": doc(manifold=manifold(euler=DROP, b1=DROP)),
    "manifold-unknown-and-missing": doc(manifold=manifold(chi=24, euler=DROP)),
    "manifold-keys-and-mistyped-p": doc(p="3", manifold=manifold(euler=DROP)),
    "manifold-types-hidden-by-mistyped-p": doc(p=None, manifold=manifold(b1="0")),
    "manifold-b1-string": doc(manifold=manifold(b1="0")),
    "manifold-b-plus-bool": doc(manifold=manifold(b_plus=False)),
    "manifold-is-spin-int": doc(manifold=manifold(is_spin=1)),
    "manifold-all-mistyped": doc(
        manifold=manifold(b1=0.0, b_plus="3", signature=None, euler=[24], is_spin="yes")
    ),
    # -- component lists
    "isolated-null": doc(isolated=None),
    "isolated-object": doc(isolated={"0": point()}),
    "isolated-string": doc(isolated="[]"),
    "surfaces-number": doc(surfaces=4),
    "both-lists-bad": doc(isolated=True, surfaces="none"),
    "isolated-entry-list": doc(isolated=[[1, 2, -1]]),
    "surfaces-entry-null": doc(surfaces=[surface(), None]),
    "isolated-entry-unknown": doc(isolated=[point(sign=-1)]),
    "isolated-entry-missing": doc(isolated=[point(), point(epsilon=DROP)]),
    "surfaces-entry-unknown-and-missing": doc(surfaces=[surface(genus=DROP, g=0, z=1)]),
    "isolated-entry-bool": doc(isolated=[point(l_alpha=True)]),
    "surfaces-entry-mistyped": doc(surfaces=[surface(genus="0", l_theta=1.0, epsilon=None)]),
    "components-mixed-errors": doc(
        isolated=[point(), 5, point(l_beta="2"), point(x=1)],
        surfaces=[surface(epsilon=DROP), surface(self_intersection=-2.5)],
    ),
    "schema-errors-everywhere": doc(
        p="3",
        quotient_b_plus=True,
        manifold=manifold(signature="-16"),
        isolated=[point(epsilon="-1")],
        surfaces="x",
    ),
    "manifold-and-component-types": doc(
        manifold=manifold(is_spin=None), isolated=[point(l_beta=False)], surfaces=[[]]
    ),
    # -- invariants of the dataset
    "p-nine": doc(p=9),
    "p-two": doc(p=2),
    "p-one-negative": doc(p=-3),
    "b1-nonzero": doc(manifold=manifold(b1=2)),
    "b-plus-negative": doc(manifold=manifold(b_plus=-1, euler=16), quotient_b_plus=1),
    "euler-inconsistent": doc(manifold=manifold(euler=22)),
    "rochlin": doc(manifold=manifold(signature=-8, euler=16)),
    "not-spin-skips-rochlin": doc(manifold=manifold(is_spin=False, signature=-8, euler=20)),
    "quotient-out-of-range": doc(quotient_b_plus=5),
    "quotient-parity": doc(quotient_b_plus=2),
    "trivial-needs-full-quotient": doc(homologically_trivial=True, quotient_b_plus=1),
    "point-divisible": doc(isolated=[point(l_alpha=3), point(l_beta=0)]),
    "point-out-of-range": doc(isolated=[point(l_alpha=4, l_beta=-1)]),
    "point-epsilon": doc(isolated=[point(), point(epsilon=0)]),
    "surface-divisible": doc(surfaces=[surface(l_theta=-3)]),
    "surface-out-of-range": doc(surfaces=[surface(l_theta=5)]),
    "surface-genus-and-epsilon": doc(surfaces=[surface(genus=-1, epsilon=2)]),
    "trivial-k3-surface-genus": doc(
        homologically_trivial=True, surfaces=[surface(genus=1), surface()]
    ),
    "trivial-k3-surface-positive": doc(
        homologically_trivial=True, surfaces=[surface(self_intersection=2, genus=2)]
    ),
    "surface-out-of-range-nontrivial": doc(
        surfaces=[surface(self_intersection=2, genus=2, l_theta=7)]
    ),
    "invariants-everywhere": doc(
        manifold=manifold(b1=1, signature=-8),
        quotient_b_plus=4,
        homologically_trivial=True,
        isolated=[point(l_alpha=6, epsilon=3), point(l_beta=8)],
        surfaces=[surface(l_theta=0, genus=-2, self_intersection=1, epsilon=-2)],
    ),
    "p-seven-out-of-range": doc(p=7, isolated=[point(l_alpha=7, l_beta=13)]),
    "p-invalid-hides-the-rest": doc(p=15, manifold=manifold(b1=5), isolated=[point(l_alpha=0)]),
}


def _violations(document) -> list[str]:
    with pytest.raises(DatasetError) as info:
        parse_dataset(document)
    return info.value.violations


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_parse_errors_are_unchanged(name):
    assert _violations(DOCUMENTS[name]) == GOLDEN[name]


def test_every_document_is_pinned():
    assert sorted(GOLDEN) == sorted(DOCUMENTS)


GOLDEN = {
    'b-plus-negative': ['b_plus must be non-negative', 'quotient b_plus must lie in 0..b_plus with the same parity as b_plus'],
    'b1-nonzero': ['b1 must be 0'],
    'both-lists-bad': ['isolated must be a list', 'surfaces must be a list'],
    'components-mixed-errors': ['isolated[1] must be an object', 'isolated[2].l_beta must be an integer', "isolated[3]: unknown keys: ['x']", "surfaces[0]: missing keys: ['epsilon']", 'surfaces[1].self_intersection must be an integer'],
    'document-json-string': ['document must be a JSON object'],
    'document-list': ['document must be a JSON object'],
    'document-null': ['document must be a JSON object'],
    'document-number': ['document must be a JSON object'],
    'euler-inconsistent': ['euler characteristic inconsistent with b_plus and signature'],
    'invalid-json-bytes': ["invalid JSON: Expecting ',' delimiter: line 1 column 6 (char 5)"],
    'invalid-json-text': ['invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)'],
    'invariants-everywhere': ['b1 must be 0', 'euler characteristic inconsistent with b_plus and signature', 'signature of a spin manifold must be divisible by 16', 'quotient b_plus must lie in 0..b_plus with the same parity as b_plus', 'homologically trivial action requires quotient_b_plus equal to b_plus', 'isolated[0]: l_alpha: rotation number divisible by p', 'isolated[0]: epsilon must be +1 or -1', 'isolated[1]: l_beta: rotation number out of range 1..p-1', 'surfaces[0]: l_theta: rotation number divisible by p', 'surfaces[0]: genus must be non-negative', 'surfaces[0]: epsilon must be +1 or -1'],
    'isolated-entry-bool': ['isolated[0].l_alpha must be an integer'],
    'isolated-entry-list': ['isolated[0] must be an object'],
    'isolated-entry-missing': ["isolated[1]: missing keys: ['epsilon']"],
    'isolated-entry-unknown': ["isolated[0]: unknown keys: ['sign']"],
    'isolated-null': ['isolated must be a list'],
    'isolated-object': ['isolated must be a list'],
    'isolated-string': ['isolated must be a list'],
    'manifold-all-mistyped': ['manifold.b1 must be an integer', 'manifold.b_plus must be an integer', 'manifold.signature must be an integer', 'manifold.euler must be an integer', 'manifold.is_spin must be a boolean'],
    'manifold-and-component-types': ['manifold.is_spin must be a boolean', 'isolated[0].l_beta must be an integer', 'surfaces[0] must be an object'],
    'manifold-b-plus-bool': ['manifold.b_plus must be an integer'],
    'manifold-b1-string': ['manifold.b1 must be an integer'],
    'manifold-is-spin-int': ['manifold.is_spin must be a boolean'],
    'manifold-keys-and-mistyped-p': ['p must be an integer', "manifold: missing keys: ['euler']"],
    'manifold-list': ['manifold must be an object'],
    'manifold-missing': ["manifold: missing keys: ['b1', 'euler']"],
    'manifold-null-after-mistyped-p': ['p must be an integer', 'manifold must be an object'],
    'manifold-types-hidden-by-mistyped-p': ['p must be an integer'],
    'manifold-unknown': ["manifold: unknown keys: ['b2']"],
    'manifold-unknown-and-missing': ["manifold: unknown keys: ['chi']", "manifold: missing keys: ['euler']"],
    'not-spin-skips-rochlin': ['euler characteristic inconsistent with b_plus and signature'],
    'p-bool': ['p must be an integer'],
    'p-float': ['p must be an integer'],
    'p-invalid-hides-the-rest': ['p must be an odd prime'],
    'p-nine': ['p must be an odd prime'],
    'p-one-negative': ['p must be an odd prime'],
    'p-seven-out-of-range': ['isolated[0]: l_alpha: rotation number divisible by p', 'isolated[0]: l_beta: rotation number out of range 1..p-1'],
    'p-string': ['p must be an integer'],
    'p-two': ['p must be an odd prime'],
    'point-divisible': ['isolated[0]: l_alpha: rotation number divisible by p', 'isolated[1]: l_beta: rotation number divisible by p'],
    'point-epsilon': ['isolated[1]: epsilon must be +1 or -1'],
    'point-out-of-range': ['isolated[0]: l_alpha: rotation number out of range 1..p-1', 'isolated[0]: l_beta: rotation number out of range 1..p-1'],
    'quotient-null': ['quotient_b_plus must be an integer'],
    'quotient-out-of-range': ['quotient b_plus must lie in 0..b_plus with the same parity as b_plus'],
    'quotient-parity': ['quotient b_plus must lie in 0..b_plus with the same parity as b_plus'],
    'rochlin': ['signature of a spin manifold must be divisible by 16'],
    'schema-errors-everywhere': ['p must be an integer', 'quotient_b_plus must be an integer'],
    'surface-divisible': ['surfaces[0]: l_theta: rotation number divisible by p'],
    'surface-genus-and-epsilon': ['surfaces[0]: genus must be non-negative', 'surfaces[0]: epsilon must be +1 or -1'],
    'surface-out-of-range': ['surfaces[0]: l_theta: rotation number out of range 1..p-1'],
    'surface-out-of-range-nontrivial': ['surfaces[0]: l_theta: rotation number out of range 1..p-1'],
    'surfaces-entry-mistyped': ['surfaces[0].genus must be an integer', 'surfaces[0].l_theta must be an integer', 'surfaces[0].epsilon must be an integer'],
    'surfaces-entry-null': ['surfaces[1] must be an object'],
    'surfaces-entry-unknown-and-missing': ["surfaces[0]: unknown keys: ['g', 'z']", "surfaces[0]: missing keys: ['genus']"],
    'surfaces-number': ['surfaces must be a list'],
    'top-all-mistyped': ['p must be an integer', 'quotient_b_plus must be an integer', 'homologically_trivial must be a boolean'],
    'top-empty': ['missing key: p', 'missing key: manifold', 'missing key: quotient_b_plus', 'missing key: homologically_trivial'],
    'top-lists-absent': ['p must be an odd prime'],
    'top-missing-manifold': ['missing key: manifold'],
    'top-missing-p': ['missing key: p'],
    'top-unknown': ["unknown keys: ['extra']"],
    'top-unknown-and-missing': ["unknown keys: ['q']", 'missing key: p', 'missing key: manifold', 'missing key: homologically_trivial'],
    'top-unknown-several': ["unknown keys: ['alpha', 'zeta']"],
    'trivial-int': ['homologically_trivial must be a boolean'],
    'trivial-k3-surface-genus': ['surfaces[0]: fixed surface of a homologically trivial action must be a sphere'],
    'trivial-k3-surface-positive': ['surfaces[0]: fixed surface of a homologically trivial action must be a sphere', 'surfaces[0]: fixed surface of a homologically trivial action must have non-positive self-intersection'],
    'trivial-needs-full-quotient': ['homologically trivial action requires quotient_b_plus equal to b_plus'],
    'trivial-string': ['homologically_trivial must be a boolean'],
}


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in sorted(DOCUMENTS):
        print(f"    {name!r}: {_violations(DOCUMENTS[name])!r},")
    print("}")
