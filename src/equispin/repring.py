"""The representation ring of the circle times an odd-prime cyclic group.

Elements are Laurent polynomials in the circle variable ``t`` over the group
ring ``Z[xi]/(xi^p - 1)``, stored sparsely as ``{(t-exponent, xi-exponent):
coefficient}``.  The group ring is deliberately *not* collapsed to the
cyclotomic field: the sum ``sigma = 1 + xi + ... + xi^(p-1)`` is a zero
divisor here, and the quotient-ring structure below depends on it.

The module provides truncated quotient rings, Adams operations, the integer
kernel of the Adams constraint and its exact rank by characters of ``Z/p``,
the closed-form fixed-element trace values, and extraction of the
Seiberg-Witten integer from a reduced element.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from fractions import Fraction
from operator import mul

from .cyclo import CyclotomicNumber, is_odd_prime
from .intlinalg import certified_kernel, integer_kernel, kernel_mod, matmul_mod, poly_inverse_mod


class RepRingElement:
    """Sparse exact element of ``Z[t, t^-1][xi]/(xi^p - 1)``.

    Immutable; ``xi`` exponents are reduced mod ``p`` and zero coefficients
    are dropped, so equality is a dictionary comparison.
    """

    __slots__ = ("p", "_c")

    def __init__(self, p: int, coeffs=None):
        if not is_odd_prime(p):
            raise ValueError("group order must be an odd prime")
        canon: dict[tuple[int, int], int] = {}
        if coeffs:
            for (i, j), c in dict(coeffs).items():
                c = int(c)
                if c == 0:
                    continue
                key = (int(i), int(j) % p)
                canon[key] = canon.get(key, 0) + c
                if canon[key] == 0:
                    del canon[key]
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_c", canon)

    def __setattr__(self, name, value):
        raise AttributeError("RepRingElement is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "RepRingElement":
        return cls(p)

    @classmethod
    def one(cls, p: int) -> "RepRingElement":
        return cls(p, {(0, 0): 1})

    @classmethod
    def monomial(cls, p: int, t_exp: int = 0, xi_exp: int = 0, coeff: int = 1) -> "RepRingElement":
        return cls(p, {(t_exp, xi_exp): coeff})

    @classmethod
    def t(cls, p: int) -> "RepRingElement":
        return cls.monomial(p, t_exp=1)

    @classmethod
    def xi(cls, p: int, power: int = 1) -> "RepRingElement":
        return cls.monomial(p, xi_exp=power)

    @classmethod
    def sigma(cls, p: int) -> "RepRingElement":
        """The full group-ring sum ``1 + xi + ... + xi^(p-1)``."""
        return cls(p, {(0, j): 1 for j in range(p)})

    # -- inspection ---------------------------------------------------

    def terms(self):
        """Terms ``((i, j), c)`` in deterministic (t, xi) order."""
        return sorted(self._c.items())

    def coefficient(self, t_exp: int, xi_exp: int) -> int:
        return self._c.get((t_exp, xi_exp % self.p), 0)

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self):
        return bool(self._c)

    def t_degree(self) -> int:
        """Largest t-exponent with a nonzero coefficient (-1 when zero)."""
        return max((i for i, _ in self._c), default=-1)

    def t_valuation(self) -> int:
        """Smallest t-exponent with a nonzero coefficient (0 when zero)."""
        return min((i for i, _ in self._c), default=0)

    def support_is_group_constant(self) -> bool:
        """True when no genuine ``xi`` powers appear."""
        return all(j == 0 for _, j in self._c)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RepRingElement):
            if other.p != self.p:
                raise ValueError("group order mismatch")
            return other
        if isinstance(other, int):
            return RepRingElement(self.p, {(0, 0): other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._c)
        for k, c in other._c.items():
            out[k] = out.get(k, 0) + c
        return RepRingElement(self.p, out)

    __radd__ = __add__

    def __neg__(self):
        return RepRingElement(self.p, {k: -c for k, c in self._c.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.p
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self._c.items():
            for (i2, j2), c2 in other._c.items():
                key = (i1 + i2, (j1 + j2) % p)
                out[key] = out.get(key, 0) + c1 * c2
        return RepRingElement(p, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined in the group ring")
        result = RepRingElement.one(self.p)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            return self._c == ({(0, 0): other} if other else {})
        if not isinstance(other, RepRingElement):
            return NotImplemented
        return self.p == other.p and self._c == other._c

    # -- structure maps ---------------------------------------------------

    def adams(self, q: int) -> "RepRingElement":
        """The ring endomorphism ``t -> t^q``, ``xi -> xi^q``."""
        if q < 1:
            raise ValueError("Adams operations are indexed by positive integers")
        out: dict[tuple[int, int], int] = {}
        # distinct monomials can collide (xi^q wraps around), so accumulate
        for (i, j), c in self._c.items():
            key = (i * q, (j * q) % self.p)
            out[key] = out.get(key, 0) + c
        return RepRingElement(self.p, out)

    def specialize_xi_one(self) -> "RepRingElement":
        """Collapse the group variable: ``xi -> 1``."""
        out: dict[tuple[int, int], int] = {}
        for (i, _), c in self._c.items():
            key = (i, 0)
            out[key] = out.get(key, 0) + c
        return RepRingElement(self.p, out)

    def __repr__(self):
        if self.is_zero():
            return f"RepRingElement({self.p}, 0)"
        bits = []
        for (i, j), c in self.terms():
            term = str(c)
            if i:
                term += f"*t^{i}"
            if j:
                term += f"*x^{j}"
            bits.append(term)
        return f"RepRingElement({self.p}, {' + '.join(bits)})"


def one_minus_t_xi(p: int, i: int) -> RepRingElement:
    """The factor ``1 - t*xi^i``."""
    return RepRingElement(p, {(0, 0): 1, (1, i % p): -1})


class TruncationIdeal(namedtuple("TruncationIdeal", "p m_vector")):
    """The principal ideal generated by ``prod_i (1 - t*xi^i)^(m_i)``.

    The generator's top t-coefficient is ``(-1)^M * xi^s``, a unit of the
    group ring, so division yields a unique normal form of t-degree below
    ``M = sum(m_i)``.
    """

    __slots__ = ()

    def __new__(cls, p, m_vector):
        if not is_odd_prime(p):
            raise ValueError("group order must be an odd prime")
        m_vector = tuple(int(m) for m in m_vector)
        if len(m_vector) != p:
            raise ValueError("exponent vector must have one entry per group element")
        if any(m < 0 for m in m_vector):
            raise ValueError("exponents must be non-negative")
        return tuple.__new__(cls, (p, m_vector))

    @classmethod
    def _make(cls, iterable):
        # through __new__, so that _replace coerces and checks as construction does
        return cls(*iterable)

    @property
    def total(self) -> int:
        return sum(self.m_vector)

    @property
    def generator(self) -> RepRingElement:
        return _ideal_generator(self.p, self.m_vector)


@functools.lru_cache(maxsize=None)
def _ideal_generator(p: int, m_vector: tuple[int, ...]) -> RepRingElement:
    gen = RepRingElement.one(p)
    for i, m in enumerate(m_vector):
        if m:
            gen = gen * one_minus_t_xi(p, i) ** m
    return gen


def normal_form(element: RepRingElement, ideal: TruncationIdeal) -> RepRingElement:
    """The unique representative of t-degree below ``sum(m_i)``.

    Negative t-powers are first rewritten with ``t^-1 = (1 - generator)/t``,
    which holds modulo the ideal because the generator has constant term 1.
    """
    if element.p != ideal.p:
        raise ValueError("group order mismatch")
    total = ideal.total
    if total == 0:
        return RepRingElement.zero(element.p)
    gen = ideal.generator

    if element.t_valuation() < 0:
        element = _clear_negative_powers(element, gen)

    p = element.p
    top = gen.t_degree()
    lead_terms = [(j, c) for (i, j), c in gen._c.items() if i == top]
    assert len(lead_terms) == 1, "generator leading coefficient must be a monomial"
    lead_j, lead_c = lead_terms[0]
    assert lead_c in (1, -1)

    work = dict(element._c)
    while True:
        deg = max((i for i, _ in work), default=-1)
        if deg < total:
            break
        # cancel the whole top layer in one multiple of the generator
        layer = [(j, c) for (i, j), c in work.items() if i == deg]
        mult = RepRingElement(
            p, {(deg - top, (j - lead_j) % p): c * lead_c for j, c in layer}
        )
        reduced = RepRingElement(p, work) - mult * gen
        work = dict(reduced._c)
    return RepRingElement(p, work)


def _clear_negative_powers(element: RepRingElement, gen: RepRingElement) -> RepRingElement:
    p = element.p
    # h = (1 - gen)/t, exact since gen has constant term 1
    diff = RepRingElement.one(p) - gen
    assert all(i >= 1 for i, _ in diff._c)
    h = RepRingElement(p, {(i - 1, j): c for (i, j), c in diff._c.items()})
    out = RepRingElement.zero(p)
    for (i, j), c in element.terms():
        term = RepRingElement.monomial(p, max(i, 0), j, c)
        if i < 0:
            term = RepRingElement.monomial(p, 0, j, c) * h ** (-i)
        out = out + term
    return out


class InstanceParameters(namedtuple("InstanceParameters", "p m_vector n_vector l d", defaults=(0,))):
    """Dimension data for one run of the Adams-constraint machinery.

    ``m_vector`` and ``n_vector`` are the eigenspace dimensions of the two
    approximation spaces, ``l`` is half of ``b_plus - 1``, and ``d`` is the
    virtual dimension of the moduli space.  The bookkeeping identity
    ``l + sum(n) = sum(m) - 1 - d`` ties them together; the eigenspace
    defects are ``k_i = m_i - n_i``.
    """

    __slots__ = ()

    def __new__(cls, p, m_vector, n_vector, l, d=0):
        if not is_odd_prime(p):
            raise ValueError("group order must be an odd prime")
        m_vector = tuple(int(m) for m in m_vector)
        n_vector = tuple(int(n) for n in n_vector)
        if len(m_vector) != p or len(n_vector) != p:
            raise ValueError("dimension vectors must have one entry per group element")
        if any(m < 0 for m in m_vector) or any(n < 0 for n in n_vector):
            raise ValueError("dimensions must be non-negative")
        if l < 0:
            raise ValueError("l must be non-negative")
        if l + sum(n_vector) != sum(m_vector) - 1 - d:
            raise ValueError(
                "parameter bookkeeping violated: l + sum(n) must equal sum(m) - 1 - d"
            )
        if m_vector[0] < d:
            raise ValueError("m_0 must be at least the virtual dimension")
        return tuple.__new__(cls, (p, m_vector, n_vector, l, d))

    @classmethod
    def _make(cls, iterable):
        # through __new__, so that _replace coerces and checks as construction does
        return cls(*iterable)

    @property
    def k_vector(self) -> tuple[int, ...]:
        return tuple(m - n for m, n in zip(self.m_vector, self.n_vector))

    def truncation(self) -> TruncationIdeal:
        """Quotient ideal; for nonzero virtual dimension the first exponent drops by d."""
        m_eff = (self.m_vector[0] - self.d,) + self.m_vector[1:]
        return TruncationIdeal(self.p, m_eff)


def adams_multiplier(params: InstanceParameters, q: int) -> RepRingElement:
    """The product ``prod_i (1 + t xi^i + ... + t^(q-1) xi^(i(q-1)))^(n_i)``."""
    p = params.p
    out = RepRingElement.one(p)
    for i, n in enumerate(params.n_vector):
        if n:
            factor = RepRingElement(p, {(r, (i * r) % p): 1 for r in range(q)})
            out = out * factor ** n
    return out


def adams_constraint_residual(
    beta: RepRingElement,
    params: InstanceParameters,
    q: int,
    multiplier: RepRingElement | None = None,
) -> RepRingElement:
    """``psi^q(beta) - q^l * beta * multiplier`` reduced to normal form.

    A class realised by an actual equivariant map satisfies this identity,
    i.e. has residual zero, for every ``q >= 1``.
    """
    if multiplier is None:
        multiplier = adams_multiplier(params, q)
    ideal = params.truncation()
    return normal_form(beta.adams(q) - (q ** params.l) * beta * multiplier, ideal)


def _rotated(row: list[int], shift: int) -> list[int]:
    """The group-ring element ``row`` times ``xi^shift``: entry ``j`` moves to ``j + shift``."""
    cut = -shift % len(row)
    return row[cut:] + row[:cut]


def _residual_layers(params: InstanceParameters, q: int) -> tuple[list, list]:
    """The t-layers that the Adams residual at exponent ``q`` is built from.

    Returns ``(powers, products)``: ``powers[n]`` holds the layers of
    ``NF(t^n)`` for ``n <= max(q*(M-1), M)`` and ``products[i]`` those of
    ``NF(t^i * multiplier)`` for ``i < M``, with ``M`` the truncation total,
    one list over ``xi`` powers per ``t`` power.  The residual of
    ``t^i xi^j`` then has coordinate

        ``powers[q*i][a][(b - q*j) % p] - q^l * products[i][a][(b - j) % p]``

    at ``t^a xi^b``: multiplying by ``xi^j`` commutes with the normal form
    (``xi`` is a unit and the form is unique), so it only rotates ``xi``
    exponents.  Everything follows from the generator's layers: its top
    layer is the unit ``(-1)^M xi^s``, which gives ``NF(t^M)``, and
    ``NF(t * f) = NF(t * NF(f))`` reduces one layer, so each form follows
    from the previous one; the multiplier's form is built factor by factor
    by Horner's rule, ``f (1 + x + ... + x^(q-1)) = f + x (f + x (...))``
    with ``x = t xi^i``.
    """
    p = params.p
    m_vector = params.truncation().m_vector
    total = sum(m_vector)
    generator = [[1] + [0] * (p - 1)]
    for i, m in enumerate(m_vector):
        for _ in range(m):
            shifted = [[0] * p] + [_rotated(row, i) for row in generator]
            generator = [[u - v for u, v in zip(row, moved)] for row, moved in zip(generator + [[0] * p], shifted)]
    s = sum(i * m for i, m in enumerate(m_vector)) % p
    # t^M = -(-1)^M xi^(-s) (generator - (-1)^M xi^s t^M)
    sign = (-1) ** (total + 1)
    overflow = [[sign * c for c in _rotated(row, -s)] for row in generator[:total]]

    def times_t(layers: list[list[int]]) -> list[list[int]]:
        out = [[0] * p] + layers[:-1]
        for b, a in enumerate(layers[-1]):
            if a:
                out = [
                    [u + a * layer[(j - b) % p] for j, u in enumerate(row)]
                    for row, layer in zip(out, overflow)
                ]
        return out

    powers = [[[1] + [0] * (p - 1)] + [[0] * p for _ in range(total - 1)]]
    while len(powers) <= max(q * (total - 1), total):
        powers.append(times_t(powers[-1]))
    product = powers[0]
    for i, n in enumerate(params.n_vector):
        for _ in range(n):
            acc = product
            for _ in range(q - 1):
                acc = [[u + v for u, v in zip(row, _rotated(moved, i))] for row, moved in zip(product, times_t(acc))]
            product = acc
    products = [product]
    while len(products) < total:
        products.append(times_t(products[-1]))
    return powers, products


def _constraint_row(p: int, q: int, scale: int, layers, a: int, b: int) -> list[int]:
    """Row ``(a, b)`` of the Adams constraint matrix: the coordinate at ``t^a xi^b`` of each residual."""
    powers, products = layers
    row: list[int] = []
    for i in range(len(products)):
        power, product = powers[q * i][a], products[i][a]
        row.extend(power[(b - q * j) % p] - scale * product[(b - j) % p] for j in range(p))
    return row


def _constraint_rows(params: InstanceParameters, qs: tuple[int, ...]) -> list[list[int]]:
    """The Adams constraint matrix on the monomial basis ``t^i xi^j`` (index ``i*p + j``).

    Column ``(i, j)`` is the residual of ``t^i xi^j``, and one block of rows
    per exponent ``q`` holds its coordinates, read off
    :func:`_residual_layers`.
    """
    p = params.p
    total = params.truncation().total
    rows: list[list[int]] = []
    for q in qs:
        layers = _residual_layers(params, q)
        rows.extend(_constraint_row(p, q, q ** params.l, layers, a, b) for a in range(total) for b in range(p))
    return rows


def _residual(params: InstanceParameters, q: int, layers, vectors: list[list[int]]) -> list[list[list[int]]]:
    """Layers of the residual of each element with coordinates in ``vectors`` (index ``i*p + j``).

    The product of the constraint matrix with every vector at once, one row
    at a time, so the matrix is never held whole.  The vectors are packed
    into one integer per coordinate, their entries ``2^bits`` apart
    (Kronecker substitution), so that a row's products with all of them are
    one sum of small-by-large integer products.  One ``bits`` leaves room for
    every entry of every residual, which is unpacked in balanced digits.
    """
    p, scale = params.p, q ** params.l
    powers, products = layers
    total = len(products)
    width = max(max(map(abs, row)) for i in range(total) for row in powers[q * i] + products[i])
    height = max((max(map(abs, x)) for x in vectors), default=0)
    bits = (total * p * (1 + scale) * width * height).bit_length() + 2
    packed = [sum(v << (bits * k) for k, v in enumerate(column)) for column in zip(*vectors)]
    mask = (1 << bits) - 1
    out = [[[0] * p for _ in range(total)] for _ in vectors]
    for a in range(total):
        for b in range(p):
            entry = sum(map(mul, _constraint_row(p, q, scale, layers, a, b), packed))
            for residual in out:
                d = entry & mask
                d -= (d >> (bits - 1)) << bits
                residual[a][b] = d
                entry = (entry - d) >> bits
    return out


# -- exact kernel rank by characters of Z/p -----------------------------------

@functools.lru_cache(maxsize=None)
def _fourier_prime(p: int, index: int) -> int:
    """The ``index``-th prime ``ell = 1 (mod 2p)`` above 2^61."""
    ell = _fourier_prime(p, index - 1) if index else 2**61 // (2 * p) * (2 * p) + 1
    ell += 2 * p
    while not is_odd_prime(ell):
        ell += 2 * p
    return ell


def _fourier_primes(p: int):
    """The primes ``ell = 1 (mod 2p)`` above 2^61 in increasing order, found lazily."""
    return (_fourier_prime(p, index) for index in itertools.count())


def _root_of_unity(p: int, ell: int) -> int:
    """A primitive ``p``-th root of unity modulo the prime ``ell = 1 (mod p)``."""
    return next(w for w in (pow(g, (ell - 1) // p, ell) for g in itertools.count(2)) if w != 1)


def _character_ring(params: InstanceParameters, q: int, ell: int, xi: int) -> tuple[list[int], list[int]]:
    """``t^M`` and the multiplier at exponent ``q`` in ``F_ell[t]/(G)``, with ``xi`` set to ``xi``.

    ``G = prod_i (1 - t xi^i)^(m_i)``, ``m`` the truncation's exponents, and
    ``M = deg G``; both are reduced below degree ``M`` and listed lowest
    coefficient first.  They are built straight from ``(m, n)``: ``t^M =
    -(g_0 + ... + g_(M-1) t^(M-1)) / g_M``, and the multiplier is the product
    of the factors ``1 + x + ... + x^(q-1)``, ``x = xi^i t``, taken one at a
    time by Horner's rule with ``t^M`` folded back in.  The evaluation
    ``xi -> xi`` is a ring map that takes the ideal to ``(G)``, so this is
    the normal form's image there.
    """
    m_vector = params.truncation().m_vector
    xi_powers = [1]
    for _ in range(params.p - 1):
        xi_powers.append(xi_powers[-1] * xi % ell)
    g = [1]
    for c, m in zip(xi_powers, m_vector):
        for _ in range(m):
            g = [(u - c * v) % ell for u, v in zip(g + [0], [0] + g)]
    lead = pow(g[-1], -1, ell)
    top = [-v * lead % ell for v in g[:-1]]
    mu = [1] + [0] * (len(top) - 1)
    for c, n in zip(xi_powers, params.n_vector):
        for _ in range(n):
            acc = mu
            for _ in range(q - 1):
                carry = acc[-1]
                acc = [(u + c * (v + carry * w)) % ell for u, v, w in zip(mu, [0] + acc[:-1], top)]
            mu = acc
    return top, mu


def _character_kernel(params: InstanceParameters, q: int, ell: int) -> list[list[int]]:
    """Kernel of the Adams matrix modulo ``ell`` off the trivial character, on monomials.

    With ``w`` a primitive ``p``-th root of unity modulo ``ell``, write
    ``x[i*p + j] = sum_c y_c[i] w^(c*j)`` and read ``y_c`` as a polynomial
    in ``t``.  Setting ``xi = w^(-r)`` takes the quotient ring to
    ``R_r = F_ell[t]/(G_r)``, ``G_r = prod_i (1 - t w^(-r*i))^(m_i)``, and
    the constraint at character ``r`` becomes

        ``y_(q*r)(t^q) = q^l mu_r y_r``  in ``R_r``,

    ``mu_r`` the multiplier there: so character ``r`` meets only ``r`` and
    ``q*r``, and the matrix splits into blocks along the orbits of
    ``r -> q*r``.  All of ``R_r`` is known from ``t^M`` (which gives
    multiplication by ``t``) and ``mu_r``, both built straight from
    ``(m, n)`` by :func:`_character_ring`.

    When ``p`` does not divide ``q``, ``mu_r`` and ``G_r`` share no root, so
    ``mu_r`` is a unit of ``R_r``.  An orbit ``r_0, ..., r_(f-1)`` of a
    nonzero character then has ``y_(r_k) = S_k y_(r_(k+1))``, with ``S_k``
    the matrix of ``y -> y(t^q) / (q^l mu_(r_k))``, and its kernel is that of
    ``q^l mu_(r_0) - P S_1 ... S_(f-1)``, ``P`` the matrix of ``y -> y(t^q)``
    in ``R_(r_0)``, carried round the orbit: ``f - 1`` products of size M
    and one forward elimination of size M, instead of one of size ``f*M``;
    only a singular block is solved back for its kernel.  The trivial
    character is left to the caller.  When ``p`` divides ``q`` every
    character meets the trivial one, and all of them form one block,
    eliminated whole.
    """
    p, scale = params.p, pow(q, params.l, ell)
    total = params.truncation().total
    w = _root_of_unity(p, ell)
    w_powers = [pow(w, k, ell) for k in range(p)]
    unit = [1] + [0] * (total - 1)

    def columns(first: list[int], step: int, top: list[int]) -> list[list[int]]:
        """The matrix with columns ``first * t^(step*i)`` in ``R_r``, ``i < M``; ``top`` is ``t^M``."""
        cols = [first]
        while len(cols) < total:
            c = cols[-1]
            for _ in range(step):
                c = [(u + c[-1] * v) % ell for u, v in zip([0] + c[:-1], top)]
            cols.append(c)
        return [list(row) for row in zip(*cols)]

    def scaled(c: int) -> tuple[list[list[int]], list[list[int]]]:
        """The matrices of ``y -> q^l mu_c y`` and ``y -> y(t^q)`` in ``R_c``."""
        top, mu = _character_ring(params, q, ell, w_powers[-c % p])
        return columns([scale * v % ell for v in mu], 1, top), columns(unit, q, top)

    def step(c: int) -> list[list[int]]:
        """The matrix of ``y -> y(t^q) / (q^l mu_c)`` in ``R_c``: columns ``t^(q*i) / (q^l mu_c)``."""
        top, mu = _character_ring(params, q, ell, w_powers[-c % p])
        return columns(poly_inverse_mod([scale * v for v in mu], [-v for v in top] + [1], ell), q, top)

    blocks: list[dict[int, list[int]]] = []
    if q % p:
        seen = {0}
        for r in range(1, p):
            if r in seen:
                continue
            orbit = [r]
            while q * orbit[-1] % p != r:
                orbit.append(q * orbit[-1] % p)
            seen.update(orbit)
            steps = [step(c) for c in orbit[1:]]
            own, carried = scaled(r)
            for s in steps:
                carried = matmul_mod(carried, s, ell)
            for y in kernel_mod([[u - v for u, v in zip(a, b)] for a, b in zip(own, carried)], ell):
                block = {r: y}
                for c, s in zip(orbit[:0:-1], steps[::-1]):
                    y = [sum(map(mul, row, y)) % ell for row in s]
                    block[c] = y
                blocks.append(block)
    else:
        rows = []
        for r in range(p):
            own, moved = scaled(r)
            for a in range(total):
                row = [0] * (p * total)
                row[r * total:(r + 1) * total] = [-v for v in own[a]]
                row[:total] = [u + v for u, v in zip(row[:total], moved[a])]
                rows.append(row)
        for y in kernel_mod(rows, ell):
            blocks.append({c: y[c * total:(c + 1) * total] for c in range(p)})

    out = []
    for block in blocks:
        waves = [[w_powers[c * j % p] for c in block] for j in range(p)]
        out.append([sum(map(mul, row, wave)) % ell for row in zip(*block.values()) for wave in waves])
    return out


def _trivial_block(total: int, q: int, probe: list[int]) -> tuple[int, bool]:
    """Nullity of the trivial character's block, and whether it annihilates ``probe``.

    At ``xi = 1`` the constraint is ``L(y) = y(t^q) - q^l mu y`` on
    ``Z[t]/((1-t)^M)``, with ``mu = h^(sum n)`` and ``h = 1 + t + ... +
    t^(q-1)``, and ``probe`` lists the ``t``-coefficients of ``y``.  In the
    basis ``u^a``, ``u = 1 - t``, it is triangular: ``1 - t^q = u h`` gives
    ``L(u^a) = u^a (h^a - q^l h^(sum n))``, and ``h = q`` at ``u = 0``, so the
    diagonal is ``q^a - q^(l + sum n) = q^a - q^(M-1)``.  For ``q = 1`` the
    map is 0.  For ``q >= 2`` only the last diagonal entry vanishes, so the
    kernel over Q is the line of ``u^(M-1) = (1-t)^(M-1)``, which is
    primitive (its coefficient at ``t^0`` is 1): nullity 1, and ``probe``
    lies in the kernel exactly when it is ``probe[0]`` times that vector.
    """
    if q == 1:
        return total, True
    return 1, all(v == probe[0] * (-1) ** i * math.comb(total - 1, i) for i, v in enumerate(probe))


def adams_kernel_rank(params: InstanceParameters, q: int, sigma_probe: list[int]) -> tuple[int, bool]:
    """Exact rank of the Adams kernel at exponent ``q``, and whether ``sigma * probe`` lies in it.

    ``sigma_probe`` lists the ``t``-coefficients of ``probe`` (one per
    ``t``-power below the truncation total), and ``sigma * probe`` has
    coefficient ``probe[i]`` at every ``t^i xi^j``.  This gives the rank of
    the lattice :func:`solve_adams_kernel` returns, without the lattice, and
    without forming the constraint matrix: the matrix splits by characters
    of ``Z/p`` (see :func:`_character_kernel`).

    * When ``p`` does not divide ``q`` the trivial character is a block of
      its own, triangular in the basis ``(1-t)^a``, and its nullity (1, or
      ``M`` at ``q = 1``) is read off its diagonal (:func:`_trivial_block`).
      ``sigma * probe`` lives in that character, so its membership is
      decided there too.
    * The other characters are built straight from ``(m, n)`` over a prime
      ``ell = 1 (mod 2p)`` (:func:`_character_ring`), and each orbit block is
      eliminated modulo ``ell``, which bounds its nullity from above.  A
      bound of 0 decides the rank; when ``p`` divides ``q`` every character
      is in that one block, and a kernel of 0 holds no nonzero
      ``sigma * probe``.
    * Only a nonzero bound builds the residual layers
      (:func:`_residual_layers`).  The kernel modulo ``ell`` is carried back
      to the monomials and lifted to rationals by
      :func:`~equispin.intlinalg.certified_kernel`, over as many such primes
      as it takes and at most as many as Hadamard's bound calls for; the
      lifted vectors are checked exactly against the residual, and against
      having a trivial-character part.  When ``p`` divides ``q`` the
      membership of ``sigma * probe`` is checked against the residual too.
    """
    p, total = params.p, params.truncation().total
    first = _fourier_prime(p, 0)
    kernel = _character_kernel(params, q, first)
    if q % p:
        rank, contains = _trivial_block(total, q, sigma_probe)
        if not kernel:
            return rank, contains
    elif not kernel:
        # the block held every character, and a kernel of 0 holds no nonzero element
        return 0, not any(sigma_probe)

    layers = _residual_layers(params, q)
    powers, products = layers
    scale = q ** params.l
    if not q % p:
        rank = 0
        probe = [c for c in sigma_probe for _ in range(p)]
        contains = not any(map(any, _residual(params, q, layers, [probe])[0]))

    def in_kernel(vectors: list[list[int]]) -> bool:
        if q % p and any(sum(x[i * p:(i + 1) * p]) for x in vectors for i in range(total)):
            return False
        return not any(any(map(any, residual)) for residual in _residual(params, q, layers, vectors))

    # Each entry of the kernel's echelon form is a ratio of minors of the
    # matrix (with the sums over xi below it), under 2^bits by Hadamard's
    # bound.  Primes near 2^61 whose product passes 2^(2 bits + 1) then
    # reconstruct it, and at most 2 bits / 61 primes divide the two minors
    # whose vanishing spoils a prime, so the supply below always suffices.
    n = p * total
    width = max(max(map(abs, row)) for i in range(total) for row in powers[q * i] + products[i])
    bits = n * ((n * ((1 + scale) * width) ** 2).bit_length() // 2 + 1)
    lifted = certified_kernel(
        lambda ell: kernel if ell == first else _character_kernel(params, q, ell),
        in_kernel,
        itertools.islice(_fourier_primes(p), 4 * bits // 61 + 3),
    )
    return rank + len(lifted), contains


def solve_adams_kernel(params: InstanceParameters, q=2) -> list[RepRingElement]:
    """Integral basis of the kernel of the Adams constraint.

    ``q`` may be a single exponent or a sequence; with several exponents the
    constraint matrices are stacked, computing the intersection of the
    kernels.  The basis spans the full kernel lattice (saturated) and is
    its Hermite normal form on the monomials ``t^i xi^j`` ordered by ``(i, j)``,
    so it is unique for the kernel.
    """
    qs = (q,) if isinstance(q, int) else tuple(q)
    if not qs or any(x < 1 for x in qs):
        raise ValueError("Adams exponents must be positive integers")
    p = params.p
    kernel = integer_kernel(_constraint_rows(params, qs))
    return [RepRingElement(p, {divmod(r, p): v for r, v in enumerate(vec) if v}) for vec in kernel]


# -- closed-form trace values ------------------------------------------------


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


def extract_sw(beta: RepRingElement, m: int, d: int) -> int:
    """Coefficient of ``T^(m-d-1)`` (``T = 1 - t``): the invariant up to sign.

    ``beta`` must have the group variable already specialized away and be
    reduced modulo ``T^(m-d)``.  Support below degree ``m - d - 1`` in ``T``
    means the element is not of the mandated form and raises.
    """
    if not beta.support_is_group_constant():
        raise ValueError("specialize the group variable to 1 first")
    top = m - d - 1
    if top < 0:
        raise ValueError("truncation order must be positive")
    if beta.t_valuation() < 0 or beta.t_degree() >= m - d:
        raise ValueError("element is not reduced modulo T^(m-d)")
    poly = {i: c for (i, _), c in beta._c.items()}
    coeff_at = lambda r: sum(
        c * math.comb(i, r) * (-1) ** r for i, c in poly.items() if i >= r
    )
    for r in range(top):
        if coeff_at(r) != 0:
            raise ValueError(
                "element has support below the top truncation degree; "
                "not a multiple of T^(m-d-1)"
            )
    return coeff_at(top)
