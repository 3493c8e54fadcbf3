"""Slow independent implementations the test suite checks the program against.

``integer_kernel`` is a unimodular column sweep: it tracks every column
operation in a square unimodular matrix, so its basis is saturated by
construction, but its entries grow without bound.  ``hermite_form``
canonicalises any basis of a lattice by a Euclidean row reduction that shares
no code with the program's, so two bases span the same lattice exactly when
their forms are equal.  ``normal_form_constraint_rows`` builds the Adams
constraint matrix with one ``normal_form`` call per basis monomial;
``candidate_vector`` and ``annihilates`` test the vanishing check's candidate
against a full matrix.  ``normal_form_layers`` builds the residual's t-layers
from two ``normal_form`` calls, and ``character_ring`` and ``trivial_block``
read a character's quotient ring and the trivial character's integer block
off them, as the rank check once did.  ``closed_form_rank`` is the Adams
kernel rank as a formula in ``(m, n, l, d)`` and ``q``, with no matrix at all.
``convolved_pair`` builds the product ``(-p/(1 - nu^a)) (-p/(1 - nu^b))`` that
the defect tables start from as an O(p^2) cyclic convolution of the two
factors' exponent vectors, as the tables once did.
``half_weight_point_table`` and ``half_weight_surface_table`` are the defect
tables keyed by the half-weight residues mod 2p, shifted into the even-sum
class, as the program built them before it keyed them by class.
``fraction_defect_vector``, ``fraction_k_vector`` and ``fraction_spin_class``
are the defect route with one ``Fraction`` per coordinate, as the program
took it before it kept the defects as integer numerators over ``2 p^3``:
integrality read off each denominator, rationality and coordinates by
``Fraction`` subtraction.

The last four work in the cyclotomic field, where the program reads the
defect vector instead.  ``spin_value`` builds ``Spin(j)`` of a spin-number
tuple as a field element at its minimal conductor, and ``spin_values`` all
of them.  ``field_estimate`` is the advisory estimate of any real field
element, summed over its power-basis coordinates in the same mpmath steps
as the program's.  ``classify_value`` classifies one spin number from its
value: a realness check, a reduction to the minimal conductor by a linear
solve, and a rationality test there.  ``fourier_inverse`` recovers the
defects ``(1/p) sum_j nu^(-i j) Spin(j)`` from a list of values by
multiplication in ``Q(zeta_p)``.

``tom_dieck_rhs`` and ``tom_dieck_product`` are the closed-form traces of
the fixed-element character, one twist at a time and over all twists, under
either exponent table (``schedule_sequential``, ``schedule_doubled``), and
``parity_obstruction`` is the 2-adic integrality check of their product.
The ``trace-schedule-ambiguity`` note and the ``defect-bound`` wording cite
them; no command computes them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from equispin.cyclo import CyclotomicNumber
from equispin.intlinalg import extended_gcd
from equispin.lefschetz import (
    KVector,
    NonIntegralDefectError,
    SpinNumberTuple,
    _even_class,
    _pair,
    _point_table,
    _surface_table,
    _table,
    spin_index,
)
from equispin.repring import (
    InstanceParameters,
    RepRingElement,
    adams_constraint_residual,
    adams_multiplier,
    normal_form,
)
from equispin.rigidity import SIGN_UNKNOWN, SpinClass, _rational_class, numeric_estimate


def integer_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Basis of the lattice ``{x in Z^n : A @ x = 0}`` for an integer matrix.

    The columns of ``A`` are reduced by unimodular column operations which
    are tracked in a square matrix ``U``; once a column of the reduced
    matrix is zero, the facing column of ``U`` is a kernel vector.  Because
    ``U`` is unimodular the returned vectors form a basis of the *full*
    kernel lattice (the saturation comes for free), so every integer kernel
    vector is an integer combination of the result.

    Each basis vector is sign-normalised so its first nonzero entry is
    positive; the order of the basis is deterministic.
    """
    if not rows:
        raise ValueError("matrix must have at least one row")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    nrows = len(rows)

    cols = [[rows[i][j] for i in range(nrows)] for j in range(ncols)]
    unim = [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]

    pivot = 0
    for r in range(nrows):
        if pivot == ncols:
            break
        sel = None
        for j in range(pivot, ncols):
            if cols[j][r] != 0:
                sel = j
                break
        if sel is None:
            continue
        for j in range(sel + 1, ncols):
            if cols[j][r] == 0:
                continue
            a, b = cols[sel][r], cols[j][r]
            g, x, y = extended_gcd(a, b)
            aa, bb = a // g, b // g
            c_sel, c_j = cols[sel], cols[j]
            u_sel, u_j = unim[sel], unim[j]
            # det [[x, -bb], [y, aa]] = (a*x + b*y)/g = 1, so this is unimodular
            cols[sel] = [x * s + y * t for s, t in zip(c_sel, c_j)]
            cols[j] = [aa * t - bb * s for s, t in zip(c_sel, c_j)]
            unim[sel] = [x * s + y * t for s, t in zip(u_sel, u_j)]
            unim[j] = [aa * t - bb * s for s, t in zip(u_sel, u_j)]
        cols[pivot], cols[sel] = cols[sel], cols[pivot]
        unim[pivot], unim[sel] = unim[sel], unim[pivot]
        pivot += 1

    basis = []
    for j in range(ncols):
        if all(v == 0 for v in cols[j]):
            vec = unim[j]
            lead = next((v for v in vec if v != 0), 0)
            if lead < 0:
                vec = [-v for v in vec]
            basis.append(vec)
    return basis


def hermite_form(basis: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form of the lattice spanned by ``basis``, zero rows dropped.

    Pivots are positive and each entry above a pivot lies in ``[0, pivot)``.
    """
    rows = [list(r) for r in basis if any(r)]
    out: list[list[int]] = []
    col = 0
    while rows:
        live = [r for r in rows if r[col]]
        if not live:
            col += 1
            continue
        # Euclid on the column: keep reducing by the row of smallest entry
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            head = live[0]
            for r in live[1:]:
                f = r[col] // head[col]
                r[:] = [u - f * v for u, v in zip(r, head)]
            live = [head] + [r for r in live[1:] if r[col]]
        head = live[0]
        if head[col] < 0:
            head[:] = [-v for v in head]
        for prev in out:
            f = prev[col] // head[col]
            prev[:] = [u - f * v for u, v in zip(prev, head)]
        out.append(head)
        rows = [r for r in rows if r is not head and any(r)]
        col += 1
    return out


def normal_form_constraint_rows(params: InstanceParameters, qs) -> list[list[int]]:
    """The Adams constraint matrix, one residual normal form per basis monomial."""
    p = params.p
    total = params.truncation().total
    monomials = [(i, j) for i in range(total) for j in range(p)]
    index = {mon: r for r, mon in enumerate(monomials)}
    columns = []
    for mon in monomials:
        beta = RepRingElement.monomial(p, *mon)
        col = []
        for q in qs:
            coords = [0] * len(monomials)
            residual = adams_constraint_residual(beta, params, q, adams_multiplier(params, q))
            for key, c in residual.terms():
                coords[index[key]] = c
            col.extend(coords)
        columns.append(col)
    return [list(row) for row in zip(*columns)]


def candidate_vector(p: int, total: int) -> list[int]:
    """``sigma (1-t)^(total-1)`` on the monomials ``t^i xi^j`` (index ``i*p + j``).

    Its coefficient at ``t^i xi^j`` is ``(-1)^i C(total-1, i)`` for every ``j``.
    """
    return [(-1) ** i * math.comb(total - 1, i) for i in range(total) for _ in range(p)]


def annihilates(rows: list[list[int]], vector: list[int]) -> bool:
    """Whether every row of the matrix has dot product 0 with ``vector``."""
    return not any(sum(a * b for a, b in zip(row, vector)) for row in rows)


def normal_form_layers(params: InstanceParameters, q: int) -> tuple[list, list]:
    """``(powers, products)`` of ``repring._residual_layers``, from ``normal_form``.

    ``powers[n]`` holds the layers of ``NF(t^n)`` for ``n <= max(q*(M-1), M)``
    and ``products[i]`` those of ``NF(t^i * multiplier)`` for ``i < M``, one
    list over ``xi`` powers per ``t`` power; ``NF(t^M)`` and the
    multiplier's form are normal forms of ring elements, and the rest follow
    by ``NF(t * f) = NF(t * NF(f))``.
    """
    p = params.p
    ideal = params.truncation()
    total = ideal.total

    def layers(element: RepRingElement) -> list[list[int]]:
        out = [[0] * p for _ in range(total)]
        for (i, j), c in element.terms():
            out[i][j] = c
        return out

    overflow = layers(normal_form(RepRingElement.monomial(p, total), ideal))

    def times_t(rows: list[list[int]]) -> list[list[int]]:
        out = [[0] * p] + rows[:-1]
        for b, a in enumerate(rows[-1]):
            out = [[u + a * layer[(j - b) % p] for j, u in enumerate(row)] for row, layer in zip(out, overflow)]
        return out

    powers = [layers(RepRingElement.one(p))]
    while len(powers) <= max(q * (total - 1), total):
        powers.append(times_t(powers[-1]))
    products = [layers(normal_form(adams_multiplier(params, q), ideal))]
    while len(products) < total:
        products.append(times_t(products[-1]))
    return powers, products


def character_ring(layers, ell: int, xi: int) -> tuple[list[int], list[int]]:
    """``NF(t^M)`` and the multiplier's form with ``xi`` set to ``xi`` modulo ``ell``."""
    powers, products = layers
    total = len(products)
    return tuple(
        [sum(c * pow(xi, j, ell) for j, c in enumerate(layer)) % ell for layer in form]
        for form in (powers[total], products[0])
    )


def trivial_block(params: InstanceParameters, q: int, layers) -> list[list[int]]:
    """The Adams matrix's block at the trivial character, on the ``t^i``, ``xi`` set to 1.

    ``T[a][i] = sum_b powers[q*i][a][b] - q^l sum_b products[i][a][b]``.
    """
    powers, products = layers
    total, scale = len(products), q ** params.l
    return [[sum(powers[q * i][a]) - scale * sum(products[i][a]) for i in range(total)] for a in range(total)]


def closed_form_rank(params: InstanceParameters, q: int) -> int:
    """The rank of the Adams kernel at exponent ``q``, in closed form.

    With ``m' = (m_0 - d, m_1, ...)``, ``M = sum m'``, ``N = sum n`` and ``f``
    the order of ``q`` modulo ``p``, the rank is ``p M`` at ``q = 1``,
    ``1 + ((p - 1)/f) #{i : m'_i - n_i > l}`` when ``p`` does not divide
    ``q``, and ``1 + (p - 1) sum_i min(m'_i, N - n_i)`` when it does.  At a
    character ``r != 0`` the quotient ring splits into local rings of length
    ``m'_i``, on which ``t -> t^q`` and the multiplier are triangular; along
    an orbit of length ``f`` their diagonal ratios multiply to 1.
    """
    p, n, l = params.p, params.n_vector, params.l
    m = params.truncation().m_vector
    if q == 1:
        return p * sum(m)
    if q % p:
        order = next(e for e in range(1, p) if pow(q, e, p) == 1)
        return 1 + (p - 1) // order * sum(1 for mi, ni in zip(m, n) if mi - ni > l)
    return 1 + (p - 1) * sum(min(mi, sum(n) - ni) for mi, ni in zip(m, n))


def convolved_pair(p: int, a: int, b: int) -> list[int]:
    """``(-p / (1 - nu^a)) (-p / (1 - nu^b))`` as an exponent vector in ``Z[nu]``.

    Each factor is the vector with coefficient r at exponent ``a r``; their
    product is the cyclic convolution of the two vectors: row i adds
    ``u[i]`` times v rotated by i.
    """
    u, v = [0] * p, [0] * p
    for r in range(p):
        u[a * r % p] = r
        v[b * r % p] = r
    out = [0] * p
    for i, x in enumerate(u):
        out = [acc + x * y for acc, y in zip(out, v[-i:] + v[:-i])]
    return out


def half_weight_point_table(p: int, a: int, b: int) -> tuple[int, ...]:
    """The defect table of a point with half-weight residues ``a, b`` mod 2p, over ``2 p^3``.

    The first-power term is ``-sign nu^((a' + b')/2) / ((1 - nu^a') (1 - nu^b'))``
    for the even-class residues ``a', b'``.
    """
    aa, sign = _even_class(p, a, (a + b) % 2)
    bb = b % (2 * p)
    return _table(_pair(p, aa % p, bb % p), (aa + bb) // 2, -2 * sign)


def half_weight_surface_table(p: int, c: int) -> tuple[int, ...]:
    """The defect table per unit of F.F of a surface with half-weight residue ``c``, over ``2 p^3``.

    The first-power factor is ``-(sign/2) nu^(c'/2) (1 + nu^c') / (1 - nu^c')^2``
    for the even-class residue ``c'``.
    """
    cc, sign = _even_class(p, c, c % 2)
    sq = _pair(p, cc % p, cc % p)
    return _table([sq[m] + sq[(m - cc) % p] for m in range(p)], cc // 2, -sign)


def spin_value(spins: SpinNumberTuple, j: int) -> CyclotomicNumber:
    """``Spin(j)`` of a tuple at its minimal conductor (1 or p): ``k_(e/j) - k_((p-1)/j)`` at ``nu^e``."""
    p, numerators, d = spins
    k = [Fraction(n, d) for n in numerators]
    if j % p == 0:
        return CyclotomicNumber.from_rational(sum(k))
    step = pow(j, -1, p)
    last = k[(p - 1) * step % p]
    coeffs = [k[e * step % p] - last for e in range(p - 1)]
    if not any(coeffs[1:]):
        return CyclotomicNumber.from_rational(coeffs[0])
    return CyclotomicNumber(p, coeffs)


def spin_values(spins: SpinNumberTuple) -> tuple[CyclotomicNumber, ...]:
    """Every ``Spin(j)``, ``j`` in ``0..p-1``, as :func:`spin_value` builds it."""
    return tuple(spin_value(spins, j) for j in range(spins.p))


def fraction_defect_vector(counts) -> tuple[Fraction, ...]:
    """The defects of class counts with one ``Fraction`` per coordinate.

    The tables summed, as :func:`~equispin.lefschetz.defect_vector` sums them,
    and each sum then divided by ``2 p^3``.
    """
    p = counts.p
    index = spin_index(counts.manifold)
    acc = [0] * p
    for (a, b, s), n in counts.points:
        acc = [x + n * t for x, t in zip(acc, _point_table(p, a, b, s))]
    for (c, s), e in counts.surfaces:
        if e:
            acc = [x + e * t for x, t in zip(acc, _surface_table(p, c, s))]
    denominator = 2 * p**3
    base = 2 * p * p * index  # -sigma/(8p) over 2 p^3
    return tuple(Fraction(base + x, denominator) for x in acc)


def fraction_k_vector(p: int, defects) -> KVector:
    """Integrality of ``Fraction`` defects read off their denominators, as a :class:`KVector`."""
    for i, value in enumerate(defects):
        if value.denominator != 1:
            raise NonIntegralDefectError(f"defect {i} is not an integer: {value}")
    return KVector(p, [int(v) for v in defects])


def fraction_spin_class(p: int, defects, j: int = 1, precision_bits: int = 80) -> SpinClass:
    """The :class:`SpinClass` of ``Spin(j)`` from ``Fraction`` defects; coordinates by subtraction."""
    k = defects
    if j % p == 0:
        return _rational_class(sum(k))
    if all(v == k[1] for v in k[2:]):
        return _rational_class(k[0] - k[1])
    step = pow(j, -1, p)
    last = k[(p - 1) * step % p]
    coordinates = tuple(k[e * step % p] - last for e in range(p - 1))
    return SpinClass(False, None, SIGN_UNKNOWN, numeric_estimate(coordinates, precision_bits))


def field_estimate(value: CyclotomicNumber, bits: int = 80) -> str:
    """Advisory floating estimate of a real cyclotomic value at any conductor, as a string."""
    import mpmath

    with mpmath.workprec(bits):
        acc = mpmath.mpf(0)
        n = value.conductor
        for idx, c in enumerate(value.coeffs):
            if c:
                acc += mpmath.mpf(c.numerator) / c.denominator * mpmath.cos(2 * mpmath.pi * idx / n)
        return mpmath.nstr(acc, max(6, bits * 3 // 10))


def classify_value(value: CyclotomicNumber, precision_bits: int = 80) -> SpinClass:
    """The :class:`SpinClass` of a real spin number, from its value in the field."""
    if not value.is_real():
        raise ValueError("spin numbers are real; got a non-real value")
    reduced = value.reduced()
    if reduced.is_rational():
        return _rational_class(reduced.to_rational())
    return SpinClass(
        rational=False,
        value=None,
        sign=SIGN_UNKNOWN,
        estimate=field_estimate(reduced, precision_bits),
    )


def fourier_inverse(values) -> tuple:
    """``(1/p) sum_j nu^(-i j) values[j]`` for each i, with ``p = len(values)``.

    Values are rationals or :class:`CyclotomicNumber` living at conductor p;
    an irrational result is None.
    """
    p = len(values)
    embedded = [
        v.reduced().embed(p) if isinstance(v, CyclotomicNumber) else CyclotomicNumber.from_rational(v, p)
        for v in values
    ]
    nu = CyclotomicNumber.zeta(p)
    out = []
    for i in range(p):
        acc = CyclotomicNumber.from_rational(0, p)
        for j, v in enumerate(embedded):
            acc = acc + nu ** ((-i * j) % p) * v
        acc = acc * Fraction(1, p)
        out.append(acc.to_rational() if acc.is_rational() else None)
    return tuple(out)


def schedule_sequential(i: int, j: int, p: int) -> int:
    """Exponent table running ``2j, 3j, ...`` with the final factor at ``-2j``."""
    if i == p - 1:
        return p - 2 * j
    return (i + 1) * j


def schedule_doubled(i: int, j: int, p: int) -> int:
    """Exponent table ``2ij`` throughout; agrees with the sequential one for p = 3."""
    return 2 * i * j


def tom_dieck_rhs(
    t_vector,
    k_vector,
    j: int,
    p: int,
    schedule=schedule_sequential,
) -> CyclotomicNumber:
    """Closed-form trace of the fixed-element character at the j-th twist.

    Evaluates, with ``nu`` a primitive p-th root of unity,

        ``2^(t0 - k0) * prod_i (1 + nu^(i j))^(t_i)
                       * prod_i (1 + nu^(schedule(i, j, p)))^(-k_i)``

    which bakes in the trace values ``-1`` and ``0`` of the two basic
    representations at the flat element.  The exponent table for the second
    product is configurable because the two natural readings disagree for
    ``p >= 5`` (they coincide for ``p = 3`` and always have the same product
    over all twists).  No pole can occur: ``1 + nu^e`` never vanishes for odd
    ``p``.
    """
    t_vector = tuple(t_vector)
    k_vector = tuple(k_vector)
    if len(t_vector) != p or len(k_vector) != p:
        raise ValueError("t and k vectors must have one entry per group element")
    if not 1 <= j <= p - 1:
        raise ValueError("twist index must lie in 1..p-1")
    nu = CyclotomicNumber.zeta(p)
    two = Fraction(2) ** (t_vector[0] - k_vector[0])
    value = CyclotomicNumber.from_rational(two, p)
    for i in range(1, p):
        if t_vector[i]:
            value = value * (1 + nu ** ((i * j) % p)) ** t_vector[i]
        if k_vector[i]:
            e = schedule(i, j, p) % p
            value = value * (1 + nu ** e) ** (-k_vector[i])
    return value


def tom_dieck_product(t_vector, k_vector, p: int, schedule=schedule_sequential) -> CyclotomicNumber:
    """Product of the trace values over all twists ``j = 1 .. p-1``."""
    out = CyclotomicNumber.from_rational(1, p)
    for j in range(1, p):
        out = out * tom_dieck_rhs(t_vector, k_vector, j, p, schedule)
    return out


def parity_obstruction(t_vector, k_vector, p: int) -> bool:
    """True when the trace product is incompatible with an integral character.

    The product over all twists must be ``2^(p-1)`` times an algebraic
    integer of the p-th cyclotomic field; its coordinates in the power basis
    are then integers.  A defect ``k_0 >= 3`` (with ``t_0 = 3``) drives the
    2-adic valuation negative and the check fails, which is exactly the
    mod-2 contradiction behind the defect bound.
    """
    prod = tom_dieck_product(t_vector, k_vector, p)
    scaled = prod * Fraction(1, 2 ** (p - 1))
    return any(c.denominator != 1 for c in scaled.coeffs)
