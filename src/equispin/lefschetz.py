"""Exact fixed-point formulas for the twisted Dirac index and quotients.

The spin number of the j-th power of the action is the Lefschetz
fixed-point sum (Atiyah-Bott) over the fixed set of the half-weight
encoding below.  All p - 1 of them are Galois conjugates of the first, so
the eigenspace defects ``k_i = (1/p) sum_j nu^(-i j) Spin(j)`` (``nu =
zeta_p``, slot 0 the full index ``-sigma/8``) are

    ``k_i = -sigma/(8p) + (1/p) Tr(nu^(-i) Spin(1))``,

a sum of small rational tables, one per class of fixed component as
:func:`~equispin.dataset.class_counts` counts them: ``T(p, a, b, s)`` per
isolated point and ``S(p, c, s)`` per unit of self-intersection of a fixed
surface, in the cotangent-sum style of Hirzebruch-Zagier.  Each table is
built once per class from the product of two ``1/(1 - nu^x)`` factors,
whose integer coefficients follow a Dedekind-sum recurrence in O(p) steps;
no field inversion, convolution or linear solve is involved.

A :class:`SpinNumberTuple` holds the defects as integer numerators over
``2 p^3``: realness and rationality are integer comparisons, integrality
(:func:`k_vector`) is divisibility, and a ``Fraction`` is built only for a
printed or raised value.  ``Spin(j) = sum_i k_i nu^(i j)`` is read off them
as power-basis coordinates at conductor p, with no field element built
(:meth:`SpinNumberTuple.coordinates`): since ``nu^(p-1) = -(1 + nu + ... +
nu^(p-2))``, the coordinate at ``nu^e`` (``e`` in ``0..p-2``) is ``k_(e/j) -
k_((p-1)/j)``, indices mod p, and ``Spin(0) = sum_i k_i``.  The per-power
evaluation in ``Q(zeta_2p)`` (:func:`spin_number`) and the trigonometric
formula (:func:`spin_number_from_angles`) stay as independent oracles.  The
order-3 quotient formulas give the orbit-space signature and Euler
characteristic as exact rationals.

The per-power oracle shifts each half-weight residue into the even-sum class
mod 2p, sign out front: only that class makes every twist real and symmetric
under ``j -> p - j``, as the index of a lift of order p demands.  The class key
keeps what the first power reads of it, the residues mod p and the sign.  A
point ``(l_alpha, l_beta, epsilon)`` has ``s = (-1)^(l_alpha + l_beta + [epsilon = +1])``
and the term ``-s nu^((a + b)(p + 1)/2) / ((1 - nu^a) (1 - nu^b))``, unchanged by
swapping ``a, b`` or negating both; negating one and flipping ``s`` keeps it too,
but not the G-signature type ``a b`` mod p, so the key does not fold that.  A
surface has ``c = l_theta`` up to sign, ``s = (-1)^(l_theta + [epsilon = -1])`` and,
per unit of F.F, the term ``-(s/2) nu^(c (p + 1)/2) (1 + nu^c) / (1 - nu^c)^2``.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction

from .cyclo import CyclotomicNumber, half_angle_cos, half_angle_csc
from .dataset import ClassCounts, FixedPointDataset, ManifoldInvariants, class_counts, normalize_half_weights


class NonIntegralDefectError(ValueError):
    """An eigenspace defect is not an integer: inconsistent dataset."""


def _even_class(p: int, x: int, parity: int) -> tuple[int, int]:
    """Shift ``x`` by p into the even-sum class mod 2p; returns ``(residue, sign)``."""
    return (x + p * parity) % (2 * p), -1 if parity else 1


@functools.lru_cache(maxsize=None)
def _point_term(p: int, j: int, a: int, b: int) -> CyclotomicNumber:
    """Contribution of one isolated point to the j-th spin number (oracle)."""
    n = 2 * p
    aa, sign = _even_class(p, a, (a + b) % 2)
    bb = b % n
    z = CyclotomicNumber.zeta
    prod = (z(n, j * aa % n) - z(n, -j * aa % n)) * (z(n, j * bb % n) - z(n, -j * bb % n))
    return -sign * prod.inverse()


@functools.lru_cache(maxsize=None)
def _surface_factor(p: int, j: int, c: int) -> CyclotomicNumber:
    """Per-unit-self-intersection contribution of a fixed surface (oracle)."""
    n = 2 * p
    cc, sign = _even_class(p, c, c % 2)
    z = CyclotomicNumber.zeta
    num = z(n, j * cc % n) + z(n, -j * cc % n)
    den = (z(n, j * cc % n) - z(n, -j * cc % n)) ** 2
    return sign * Fraction(-1, 2) * num * den.inverse()


# -- defect tables ---------------------------------------------------------------
#
# A component's first-power term V is kept as an integer vector x over the
# exponents of nu, V = (weight / (2 p^2)) sum_m x_m nu^m.  With z = zeta_2p
# and nu = z^2, z^x - z^(-x) = -z^(-x) (1 - nu^x), and each 1/(1 - nu^a) is
# -(1/p) times the vector r -> r at exponent a r, so a product of two is
# x_m = sum_r r ((b^-1 (m - a r)) mod p).  Shifting m by a moves r by one,
# which gives x_(m+a) = x_m + p(p - 1)/2 - p ((b^-1 (m + a)) mod p): the
# Dedekind-sum recurrence (Rademacher-Grosswald, Dedekind Sums, 1972).
# The table entry is (1/p) Tr(nu^(-i) V), and Tr(nu^e) is p - 1 at e = 0
# and -1 elsewhere.  Tables hold integer numerators over the shared
# denominator 2 p^3, so that summing them over a fixed set is integer
# addition, not Fraction arithmetic.


def _pair(p: int, a: int, b: int) -> list[int]:
    """``(-p / (1 - nu^a)) (-p / (1 - nu^b))`` as an exponent vector, in O(p) steps."""
    b_inv = pow(b, -1, p)
    half = p * (p - 1) // 2
    x = [0] * p
    m = 0
    value = sum(r * (-a * b_inv * r % p) for r in range(p))
    for _ in range(p):  # a is a unit, so m = 0, a, 2a, ... meets every residue once
        x[m] = value
        m = (m + a) % p
        value += half - p * (b_inv * m % p)
    return x


def _table(x: list[int], shift: int, weight: int) -> tuple[int, ...]:
    """Numerators over ``2 p^3`` of ``(1/p) Tr(nu^(-i) V)``.

    ``V = weight nu^shift x / (2 p^2)`` is the component's first-power term.
    """
    p = len(x)
    total = sum(x)
    return tuple(weight * (p * x[(i - shift) % p] - total) for i in range(p))


@functools.lru_cache(maxsize=None)
def _point_table(p: int, a: int, b: int, s: int) -> tuple[int, ...]:
    """Defect table ``T(p, a, b, s)`` of a point class, as numerators over ``2 p^3``."""
    return _table(_pair(p, a, b), (a + b) * (p + 1) // 2 % p, -2 * s)


@functools.lru_cache(maxsize=None)
def _surface_table(p: int, c: int, s: int) -> tuple[int, ...]:
    """Defect table ``S(p, c, s)`` of a surface class per unit of F.F, as numerators over ``2 p^3``."""
    sq = _pair(p, c, c)
    x = [sq[m] + sq[(m - c) % p] for m in range(p)]
    return _table(x, c * (p + 1) // 2 % p, -s)


def defect_vector(counts: ClassCounts) -> tuple[int, ...]:
    """Eigenspace defects ``(k_0, ..., k_{p-1})`` as integer numerators over ``2 p^3``, one table per class.

    The defects are integers for a consistent dataset; :func:`k_vector` checks that.
    """
    p = counts.p
    acc = [2 * p * p * spin_index(counts.manifold)] * p  # -sigma/(8p) over 2 p^3
    for (a, b, s), n in counts.points:
        acc = [x + n * t for x, t in zip(acc, _point_table(p, a, b, s))]
    for (c, s), e in counts.surfaces:
        if e:
            acc = [x + e * t for x, t in zip(acc, _surface_table(p, c, s))]
    return tuple(acc)


def spin_number(dataset: FixedPointDataset, j: int) -> CyclotomicNumber:
    """Spin number of the j-th power, summed term by term in ``Q(zeta_2p)``.

    The per-power oracle for the defect tables; :func:`spin_number_tuple`
    gives the same values from the defect vector.
    """
    p = dataset.p
    if not 1 <= j <= p - 1:
        raise ValueError("power must lie in 1..p-1")
    points, surfaces = normalize_half_weights(dataset)
    total = CyclotomicNumber.from_rational(0, 2 * p)
    for pt in points:
        total = total + _point_term(p, j, pt.a % (2 * p), pt.b % (2 * p))
    for sf in surfaces:
        if sf.self_intersection:
            total = total + sf.self_intersection * _surface_factor(p, j, sf.c % (2 * p))
    return total.reduced()


def spin_number_from_angles(dataset: FixedPointDataset) -> CyclotomicNumber:
    """Independent first-power evaluation from the literal trigonometric formula.

    Uses the exact half-angle constructors and the explicit spin signs:
    ``-(1/4) eps csc csc`` per point and ``(1/4) eps cos csc^2 <F,F>`` per
    surface.  Kept separate from :func:`spin_number` as a cross-check; the
    two must agree on every valid dataset.
    """
    p = dataset.p
    n = 4 * p
    total = CyclotomicNumber.from_rational(0, n)
    for pt in dataset.isolated:
        term = half_angle_csc(pt.l_alpha, p) * half_angle_csc(pt.l_beta, p)
        total = total + Fraction(-pt.epsilon, 4) * term
    for sf in dataset.surfaces:
        term = half_angle_cos(sf.l_theta, p) * half_angle_csc(sf.l_theta, p) ** 2
        total = total + Fraction(sf.epsilon * sf.self_intersection, 4) * term
    return total.reduced()


def spin_index(manifold: ManifoldInvariants) -> int:
    """The untwisted index ``-signature / 8``, an integer."""
    if not manifold.is_spin:
        raise ValueError("the index formula needs a spin manifold")
    if manifold.signature % 8 != 0:
        raise ValueError("signature must be divisible by 8")
    return -manifold.signature // 8


class SpinNumberTuple(namedtuple("SpinNumberTuple", "p defects denominator")):
    """Spin numbers of all powers, held as their defect vector over one denominator.

    The i-th defect is ``defects[i] / denominator``, with integer ``defects``.
    ``Spin(j) = sum_i k_i nu^(i j)``, so slot 0 is the full index
    ``-sigma/8``.  A value is read off the defects as its coordinates.
    """

    __slots__ = ()

    def coordinates(self, j: int) -> tuple[Fraction, ...]:
        """``Spin(j)`` in the power basis ``1, nu, ..., nu^(p-2)``: ``k_(e/j) - k_((p-1)/j)`` at ``nu^e``.

        ``Spin(0) = sum_i k_i`` sits at ``nu^0``; a value is rational when all other coordinates are 0.
        """
        p, k, d = self
        if j % p == 0:
            return (Fraction(sum(k), d),) + (0,) * (p - 2)
        step = pow(j, -1, p)
        last = k[(p - 1) * step % p]
        return tuple(Fraction(k[e * step % p] - last, d) for e in range(p - 1))

    def check(self) -> None:
        """Realness of every entry, hence symmetry under ``j -> p - j``: ``k_i = k_(p-i)``."""
        p, k, _ = self
        if k[1:] != k[:0:-1]:
            i = next(i for i in range(1, p) if k[i] != k[p - i])
            raise ValueError(f"spin numbers are not real: defects {i} and {p - i} differ")


def spin_number_tuple(source: FixedPointDataset | ClassCounts) -> SpinNumberTuple:
    """All spin numbers of a dataset or its class counts, with the realness check run."""
    counts = source if isinstance(source, ClassCounts) else class_counts(source)
    out = SpinNumberTuple(counts.p, defect_vector(counts), 2 * counts.p**3)
    out.check()
    return out


class KVector(namedtuple("KVector", "p k")):
    """Integer eigenspace defects ``(k_0, ..., k_{p-1})``; they sum to -sigma/8."""

    __slots__ = ()

    def __new__(cls, p, k):
        k = tuple(k)
        ints = tuple(map(int, k))
        if ints != k:  # equal by value exactly when every entry is an integer
            i = next(i for i, v in enumerate(k) if int(v) != v)
            raise ValueError(f"defect {i} is not an integer: {k[i]}")
        if len(ints) != p:
            raise ValueError("defect vector must have one entry per group element")
        return tuple.__new__(cls, (p, ints))

    @classmethod
    def _make(cls, iterable):
        # through __new__, so that _replace coerces and checks as construction does
        return cls(*iterable)

    @property
    def total(self) -> int:
        return sum(self.k)

    def shifted(self, q: int) -> "KVector":
        """Relabeling induced by multiplying the lift by a p-th root of unity."""
        p, k = self
        q %= p
        return tuple.__new__(KVector, (p, k[q:] + k[:q]))  # checked integers: no coercion


def k_vector(spins: SpinNumberTuple) -> KVector:
    """The integer eigenspace defects ``k_i = (1/p) sum_j nu^(-i j) Spin(j)`` of a tuple.

    Slot 0 carries the full index.  A defect is an integer when the
    denominator divides its numerator.  Raises :class:`NonIntegralDefectError`
    at the first defect that is not an integer: the candidate dataset is then
    inconsistent.
    """
    p, defects, d = spins
    for i, n in enumerate(defects):
        if n % d:
            raise NonIntegralDefectError(f"defect {i} is not an integer: {Fraction(n, d)}")
    return KVector(p, [n // d for n in defects])


def synthesize_spins(kv: KVector) -> SpinNumberTuple:
    """The spin-number tuple ``Spin(j) = sum_i k_i nu^(i j)`` of a defect vector.

    No realness check is run: any integer vector has a tuple.
    """
    return SpinNumberTuple(kv.p, kv.k, 1)


# -- order-3 quotient formulas ---------------------------------------------


def orbit_space_p3(counts: ClassCounts) -> dict:
    """Orbit-space section of an order-3 action: exact signature, Euler characteristic, b+, b-.

    ``3 sigma(X/G) = sigma(X) + (8/3) sum <F,F> + (2/3) (f1 - f2)``, with surface
    coefficient ``csc^2(pi/3) + csc^2(2pi/3) = 8/3``, and ``3 chi(X/G) = chi(X) +
    2 chi(F)``.  ``integral`` is whether both are integers; a non-integral value
    is itself an obstruction.
    """
    f1, f2 = counts.p3_types  # raises unless p = 3
    sigma = Fraction(3 * counts.manifold.signature + 8 * counts.surface_sum + 2 * (f1 - f2), 9)
    euler = Fraction(counts.manifold.euler + 2 * counts.fixed_euler, 3)
    return {
        "sigma": sigma,
        "euler": euler,
        "b_plus": counts.quotient_b_plus,
        "b_minus": counts.quotient_b_plus - sigma,
        "integral": sigma.denominator == 1 and euler.denominator == 1,
    }


def signature_quotient_p3(dataset: FixedPointDataset) -> Fraction:
    """The orbit-space signature of an order-3 action (:func:`orbit_space_p3`)."""
    return orbit_space_p3(class_counts(dataset))["sigma"]


def euler_quotient_p3(dataset: FixedPointDataset) -> Fraction:
    """The orbit-space Euler characteristic of an order-3 action (:func:`orbit_space_p3`)."""
    return orbit_space_p3(class_counts(dataset))["euler"]
