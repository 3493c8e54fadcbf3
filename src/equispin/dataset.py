"""Data model and validation for candidate cyclic actions on spin 4-manifolds.

A dataset lists the ambient manifold's invariants together with the fixed
set of the action: isolated points carrying two rotation numbers and a spin
sign, and fixed surfaces carrying a self-intersection number, genus, one
rotation number and a spin sign.  Parsing is strict: unknown keys are
rejected and every violated invariant is reported by name.

:func:`class_counts` reduces a dataset in one pass to the :class:`ClassCounts` that
the defect tables, the orbit space and the verdict's facts read.  The half-weight
encoding mod ``2p`` at the bottom serves the oracle :func:`equispin.lefschetz.spin_number`.
"""

from __future__ import annotations

import functools
import json
from collections import namedtuple

from .cyclo import PRIMALITY_BOUND, is_odd_prime


class DatasetError(ValueError):
    """Raised on schema or invariant violations; carries all of them."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ManifoldInvariants(namedtuple("ManifoldInvariants", "b1 b_plus signature euler is_spin")):
    __slots__ = ()
    _kinds = (int, int, int, int, bool)

    @staticmethod
    def k3() -> "ManifoldInvariants":
        """The homotopy K3 preset: signature -16, Euler number 24, b_plus 3."""
        return ManifoldInvariants(b1=0, b_plus=3, signature=-16, euler=24, is_spin=True)

    @property
    def b_minus(self) -> int:
        return self.b_plus - self.signature

    @property
    def is_homotopy_k3(self) -> bool:
        return self == _K3

    def violations(self) -> list[str]:
        out = []
        if self.b1 != 0:
            out.append("b1 must be 0")
        if self.b_plus < 0:
            out.append("b_plus must be non-negative")
        if self.euler != 2 + 2 * self.b_plus - self.signature:
            out.append("euler characteristic inconsistent with b_plus and signature")
        if self.is_spin and self.signature % 16 != 0:
            out.append("signature of a spin manifold must be divisible by 16")
        return out


_K3 = ManifoldInvariants.k3()


def _rotation(name: str, l: int, p: int) -> list[str]:
    """Violations of a rotation number, which must lie in 1..p-1."""
    if l % p == 0:
        return [f"{name}: rotation number divisible by p"]
    if not 0 < l < p:
        return [f"{name}: rotation number out of range 1..p-1"]
    return []


class IsolatedPoint(namedtuple("IsolatedPoint", "l_alpha l_beta epsilon")):
    __slots__ = ()
    _kinds = (int, int, int)

    def violations(self, p: int) -> list[str]:
        out = _rotation("l_alpha", self.l_alpha, p) + _rotation("l_beta", self.l_beta, p)
        if self.epsilon not in (1, -1):
            out.append("epsilon must be +1 or -1")
        return out


class FixedSurface(namedtuple("FixedSurface", "self_intersection genus l_theta epsilon")):
    __slots__ = ()
    _kinds = (int, int, int, int)

    def violations(self, p: int, trivial_k3: bool) -> list[str]:
        out = _rotation("l_theta", self.l_theta, p)
        if self.genus < 0:
            out.append("genus must be non-negative")
        if self.epsilon not in (1, -1):
            out.append("epsilon must be +1 or -1")
        if trivial_k3:
            if self.genus != 0:
                out.append("fixed surface of a homologically trivial action must be a sphere")
            if self.self_intersection > 0:
                out.append(
                    "fixed surface of a homologically trivial action must have "
                    "non-positive self-intersection"
                )
        return out


class FixedPointDataset(
    namedtuple(
        "FixedPointDataset",
        "p manifold quotient_b_plus homologically_trivial isolated surfaces",
        defaults=((), ()),
    )
):
    """The manifold, the quotient's b_plus, and the fixed components as tuples."""

    __slots__ = ()
    # None marks the nested object and the two component lists
    _kinds = (int, None, int, bool, None, None)

    def __new__(cls, p, manifold, quotient_b_plus, homologically_trivial, isolated=(), surfaces=()):
        return tuple.__new__(
            cls, (p, manifold, quotient_b_plus, homologically_trivial, tuple(isolated), tuple(surfaces))
        )

    @classmethod
    def _make(cls, iterable):
        # through __new__, so that _replace coerces as construction does
        return cls(*iterable)

    def violations(self) -> list[str]:
        out = []
        if self.p >= PRIMALITY_BOUND:
            out.append(f"p must be below {PRIMALITY_BOUND}, the bound of the fast primality test")
            return out
        if not is_odd_prime(self.p):
            out.append("p must be an odd prime")
            return out
        out.extend(self.manifold.violations())
        qb = self.quotient_b_plus
        if not (0 <= qb <= self.manifold.b_plus) or (self.manifold.b_plus - qb) % 2 != 0:
            out.append(
                "quotient b_plus must lie in 0..b_plus with the same parity as b_plus"
            )
        if self.homologically_trivial and qb != self.manifold.b_plus:
            out.append("homologically trivial action requires quotient_b_plus equal to b_plus")
        trivial_k3 = self.homologically_trivial and self.manifold.is_homotopy_k3
        for idx, pt in enumerate(self.isolated):
            if bad := pt.violations(self.p):
                out.extend(f"isolated[{idx}]: {v}" for v in bad)
        for idx, sf in enumerate(self.surfaces):
            if bad := sf.violations(self.p, trivial_k3):
                out.extend(f"surfaces[{idx}]: {v}" for v in bad)
        return out


@functools.cache
def _schema(cls) -> dict[str, type | None]:
    """Field name to JSON type for each field of ``cls``, in declaration order.

    The type is ``int`` or ``bool`` for a scalar field and None for a nested
    object or list, as the record's ``_kinds`` declares it.
    """
    return dict(zip(cls._fields, cls._kinds))


def _require(value, name: str, kind: type, errors: list[str]):
    # bool is an int subclass; compare types exactly
    if type(value) is not kind:
        errors.append(f"{name} must be {'a boolean' if kind is bool else 'an integer'}")
        return kind()
    return value


def _require_list(document: dict, key: str, errors: list[str]) -> list:
    # an absent key is an empty list; null, a number or a string is an error
    value = document.get(key, [])
    if not isinstance(value, (list, tuple)):
        errors.append(f"{key} must be a list")
        return []
    return value


def _check_keys(cls, item, errors: list[str], key: str, idx: int | None = None) -> bool:
    """Whether ``item`` is an object with exactly the fields of ``cls``; records why not."""
    names = _schema(cls).keys()
    if isinstance(item, dict) and item.keys() == names:
        return True
    prefix = key if idx is None else f"{key}[{idx}]"  # formatted only on a failure
    if not isinstance(item, dict):
        errors.append(f"{prefix} must be an object")
        return False
    unknown = item.keys() - names
    missing = names - item.keys()
    if unknown:
        errors.append(f"{prefix}: unknown keys: {sorted(unknown)}")
    if missing:
        errors.append(f"{prefix}: missing keys: {sorted(missing)}")
    return False


def _build(cls, item: dict, errors: list[str], key: str, idx: int | None = None):
    """``cls`` from an object whose keys passed :func:`_check_keys`; None if a type is wrong."""
    values = [item[n] for n in cls._fields]
    if tuple([type(v) for v in values]) == cls._kinds:  # from a list: see normalize_half_weights
        return cls._make(values)
    prefix = key if idx is None else f"{key}[{idx}]"  # formatted only on a failure
    for n, kind, value in zip(cls._fields, cls._kinds, values):
        _require(value, f"{prefix}.{n}", kind, errors)
    return None


def _parse_components(document: dict, key: str, cls, errors: list[str]) -> list:
    """The ``key`` list of ``document`` as ``cls`` objects.

    An entry reports its unknown, missing and mistyped keys in the
    declaration order of ``cls``.
    """
    out = []
    for idx, item in enumerate(_require_list(document, key, errors)):
        if _check_keys(cls, item, errors, key, idx):
            out.append(_build(cls, item, errors, key, idx))
    return out


def parse_dataset(document) -> FixedPointDataset:
    """Parse and validate a dataset from JSON text, UTF-8 bytes, or a dict.

    Key names and JSON types are the record fields and their ``_kinds``.  Raises
    :class:`DatasetError` carrying every schema and invariant violation
    found, each named individually, in declaration order.
    """
    try:
        if isinstance(document, bytes):
            document = document.decode("utf-8")
        if isinstance(document, str):
            document = json.loads(document)
    # also bytes that are not UTF-8, and integers past Python's digit limit
    except ValueError as exc:
        raise DatasetError([f"invalid JSON: {exc}"]) from exc
    if not isinstance(document, dict):
        raise DatasetError(["document must be a JSON object"])

    errors: list[str] = []
    unknown = document.keys() - _schema(FixedPointDataset).keys()
    if unknown:
        errors.append(f"unknown keys: {sorted(unknown)}")
    for name in FixedPointDataset._fields:
        if name not in FixedPointDataset._field_defaults and name not in document:
            errors.append(f"missing key: {name}")
    if errors:
        raise DatasetError(errors)

    schema = _schema(FixedPointDataset).items()
    scalars = {n: _require(document[n], n, kind, errors) for n, kind in schema if kind}
    man_doc = document["manifold"]
    _check_keys(ManifoldInvariants, man_doc, errors, "manifold")
    if errors:
        raise DatasetError(errors)
    manifold = _build(ManifoldInvariants, man_doc, errors, "manifold")
    points = _parse_components(document, "isolated", IsolatedPoint, errors)
    surfaces = _parse_components(document, "surfaces", FixedSurface, errors)
    if errors:
        raise DatasetError(errors)

    dataset = FixedPointDataset(manifold=manifold, isolated=points, surfaces=surfaces, **scalars)
    errors = dataset.violations()
    if errors:
        raise DatasetError(errors)
    return dataset


def serialize_dataset(dataset: FixedPointDataset) -> dict:
    """Canonical plain-dict form (inverse of :func:`parse_dataset`); component lists are tuples."""
    out = dataset._asdict()
    out["manifold"] = dataset.manifold._asdict()
    out["isolated"] = tuple(pt._asdict() for pt in dataset.isolated)
    out["surfaces"] = tuple(sf._asdict() for sf in dataset.surfaces)
    return out


def to_json(dataset: FixedPointDataset) -> str:
    """Byte-deterministic JSON text for a dataset."""
    return json.dumps(serialize_dataset(dataset), sort_keys=True, separators=(",", ":"))


def canonical_json(document) -> str:
    """Canonical JSON text of a raw document (used by the round-trip checks)."""
    if isinstance(document, (str, bytes)):
        document = json.loads(document)
    doc = dict(document)
    doc.setdefault("isolated", [])
    doc.setdefault("surfaces", [])
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def fermat_quartic() -> FixedPointDataset:
    """The degree-4 hypersurface example: six isolated points, no surfaces.

    The cyclic 3-group permutes three coordinates; all six fixed points have
    rotation type (1, 2) with spin sign -1, and the action is nontrivial on
    middle cohomology.
    """
    return FixedPointDataset(
        p=3,
        manifold=ManifoldInvariants.k3(),
        quotient_b_plus=3,
        homologically_trivial=False,
        isolated=tuple(IsolatedPoint(1, 2, -1) for _ in range(6)),
        surfaces=(),
    )


# -- class counts ------------------------------------------------------------------


class ClassCounts(namedtuple("ClassCounts", "p manifold quotient_b_plus trivial points surfaces betti")):
    """A dataset reduced to counts per fixed-component class, with its scalar data.

    ``points`` holds the sorted ``((a, b, s), count)`` pairs and ``surfaces`` the sorted
    ``((c, s), sum of F.F)`` pairs, with ``c < p/2``; ``betti`` is ``(b0, b1, b2)`` of the
    fixed set F.  The class key and its sign ``s`` are those of :mod:`equispin.lefschetz`.
    """

    __slots__ = ()

    @property
    def fixed_euler(self) -> int:
        """chi(F) = b0 - b1 + b2."""
        return self.betti[0] - self.betti[1] + self.betti[2]

    @property
    def surface_sum(self) -> int:
        """The sum of F.F over the fixed surfaces."""
        return sum(e for _, e in self.surfaces)

    @property
    def p3_types(self) -> tuple[int, int]:
        """``(f1, f2)`` at p = 3: the points with ``a b = 2`` and with ``a b = 1`` mod 3."""
        if self.p != 3:
            raise ValueError("quotient formulas are implemented for order 3 only")
        f1 = sum(n for (a, b, _), n in self.points if a * b % 3 == 2)
        return f1, sum(n for _, n in self.points) - f1


@functools.lru_cache(maxsize=None)
def _point_class(p: int, x: int, y: int, epsilon: int) -> tuple[int, int, int]:
    """``(a, b, s)``, ``a <= b`` and ``a + b <= p``; cached, as a corpus repeats few points."""
    a, b = min(sorted((x % p, y % p)), sorted((-x % p, -y % p)))
    return a, b, -1 if (x + y + (epsilon == 1)) % 2 else 1


def class_counts(dataset: FixedPointDataset) -> ClassCounts:
    """The :class:`ClassCounts` of a dataset, in one pass over its fixed set."""
    p = dataset.p
    points, surfaces, genus = {}, {}, 0
    for pt in dataset.isolated:
        key = _point_class(p, *pt)
        points[key] = points.get(key, 0) + 1
    for e, g, c, epsilon in dataset.surfaces:
        key = min(c % p, -c % p), -1 if (c + (epsilon == -1)) % 2 else 1
        surfaces[key] = surfaces.get(key, 0) + e
        genus += g
    n = len(dataset.surfaces)
    return ClassCounts(
        p, dataset.manifold, dataset.quotient_b_plus, dataset.homologically_trivial,
        tuple(sorted(points.items())), tuple(sorted(surfaces.items())),
        (len(dataset.isolated) + n, 2 * genus, n),
    )


# -- half-weight normalization ------------------------------------------------


class HalfWeightPoint(namedtuple("HalfWeightPoint", "a b")):
    """Rotation numbers and spin sign of an isolated point, jointly mod 2p."""

    __slots__ = ()


class HalfWeightSurface(namedtuple("HalfWeightSurface", "c self_intersection genus")):
    """Rotation number and spin sign of a fixed surface, jointly mod 2p."""

    __slots__ = ()


def normalize_half_weights(
    dataset: FixedPointDataset,
) -> tuple[tuple[HalfWeightPoint, ...], tuple[HalfWeightSurface, ...]]:
    """Encode every fixed component as residues mod ``2p``.

    Points: sign -1 keeps the raw rotation pair, sign +1 shifts the first
    rotation number by p.  Surfaces: sign +1 keeps the raw rotation number,
    sign -1 shifts it by p.  The residues stay nonzero mod p.
    """
    p = dataset.p
    # each tuple from a list: one built from a generator is shrunk after filling, and a
    # shrunk tuple that dies stays on CPython's free lists until a full collection
    points = tuple([
        HalfWeightPoint(pt.l_alpha + (p if pt.epsilon == 1 else 0), pt.l_beta)
        for pt in dataset.isolated
    ])
    surfaces = tuple([
        HalfWeightSurface(
            sf.l_theta + (p if sf.epsilon == -1 else 0), sf.self_intersection, sf.genus
        )
        for sf in dataset.surfaces
    ])
    return points, surfaces
