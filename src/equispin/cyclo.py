"""Exact arithmetic in cyclotomic fields of arbitrary conductor.

A value is a vector of rationals in the power basis ``1, z, ..., z^(phi(n)-1)``
of ``Q(z_n)``, kept reduced modulo the n-th cyclotomic polynomial.  Equality,
realness and rationality are therefore plain coordinate checks.  Nothing in
this module touches floating point; advisory numeric estimates live in the
rigidity layer.

All values are immutable and safe to share between threads.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd

from .intlinalg import solve


def euler_phi(n: int) -> int:
    """Euler's totient."""
    if n < 1:
        raise ValueError("totient needs a positive integer")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    """Positive divisors of ``n`` in increasing order."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


# Miller-Rabin to the first 13 prime bases is a proof below the least strong
# pseudoprime to all of them, psi_13 (Sorenson & Webster, Math. Comp. 86, 2017).
PRIMALITY_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_TRIAL_LIMIT = 1024


def is_odd_prime(p: int) -> bool:
    """Whether ``p`` is an odd prime, decided exactly for every ``p``.

    Below 1024 (at most 16 divisions) and at or above :data:`PRIMALITY_BOUND`
    by trial division, which is slow only in the second case; in between by
    Miller-Rabin.
    """
    if p < 3 or p % 2 == 0:
        return False
    if p < _TRIAL_LIMIT or p >= PRIMALITY_BOUND:
        d = 3
        while d * d <= p:
            if p % d == 0:
                return False
            d += 2
        return True
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _MR_BASES:
        x = pow(a, odd, p)
        if x in (1, p - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class IntPolynomial:
    """Dense integer polynomial; coefficients listed lowest degree first.

    The zero polynomial has an empty coefficient tuple; otherwise the
    leading coefficient is nonzero.

    >>> IntPolynomial((1, 1, 1))  # 1 + x + x^2
    IntPolynomial((1, 1, 1))
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [int(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of an integer polynomial")
        result = IntPolynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "IntPolynomial"):
        """Quotient and remainder; every leading-coefficient division must be exact."""
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [0] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.coeffs[-1]
        while len(rem) - 1 >= d and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            q, r = divmod(rem[-1], lead)
            if r != 0:
                raise ValueError("inexact integer polynomial division")
            shift = len(rem) - 1 - d
            quo[shift] = q
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= q * c
        return IntPolynomial(quo), IntPolynomial(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def evaluate(self, x):
        """Horner evaluation; works for ints, Fractions and CyclotomicNumbers."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"IntPolynomial({self.coeffs!r})"


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, monic of degree phi(n).

    Computed by dividing ``x^n - 1`` by the cyclotomic polynomials of all
    proper divisors; the division is exact over the integers.
    """
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    poly = IntPolynomial((-1,) + (0,) * (n - 1) + (1,))
    for d in divisors(n)[:-1]:
        poly, rem = divmod(poly, cyclotomic_polynomial(d))
        assert rem.is_zero()
    return poly


@functools.lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows ``x^k mod Phi_n`` for ``k = phi(n) .. n-1``, as integer vectors.

    Exponents at or above ``n`` never occur because ``x^n = 1`` mod ``Phi_n``.
    """
    phi = euler_phi(n)
    mod = cyclotomic_polynomial(n).coeffs
    rows = []
    # x^phi = -(lower part of Phi), since Phi is monic
    current = [-c for c in mod[:phi]]
    rows.append(tuple(current))
    for _ in range(phi + 1, n):
        shifted = [0] + current[:-1]
        top = current[-1]
        if top:
            for i in range(phi):
                shifted[i] -= top * mod[i]
        current = shifted
        rows.append(tuple(current))
    return tuple(rows)


def _scatter(n: int, coeffs, k: int) -> list:
    """Exponent vector of length ``n`` with ``coeffs[i]`` added at slot ``i k mod n``."""
    out = [0] * n
    for i, c in enumerate(coeffs):
        if c:
            out[i * k % n] += c
    return out


def _reduce_coeffs(n: int, vec: list[Fraction]) -> tuple[Fraction, ...]:
    """Fold a coefficient list of any length into the power basis.

    Exponents are first reduced mod ``n`` (``x^n = 1`` modulo ``Phi_n``),
    then folded through the power table.  This is the only reader of
    :func:`_power_table`; every other change of exponents scatters into an
    exponent vector with :func:`_scatter` and folds it here.
    """
    phi = euler_phi(n)
    out = list(vec[:phi]) + [Fraction(0)] * max(0, phi - len(vec))
    if len(vec) > phi:
        table = _power_table(n)
        for k in range(phi, len(vec)):
            c = vec[k]
            if c:
                e = k % n
                if e < phi:
                    out[e] += c
                else:
                    row = table[e - phi]
                    for i in range(phi):
                        if row[i]:
                            out[i] += c * row[i]
    return tuple(out)


class CyclotomicNumber:
    """An exact element of ``Q(z_n)`` in power-basis coordinates.

    Arithmetic demands equal conductors (embed first with :meth:`embed`);
    plain ints and Fractions are lifted automatically.  Equality across
    different conductors compares the minimal-conductor forms.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        if conductor < 1:
            raise ValueError("conductor must be a positive integer")
        phi = euler_phi(conductor)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != phi:
            raise ValueError(f"expected {phi} coordinates at conductor {conductor}")
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicNumber is immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def zeta(n: int, power: int = 1) -> "CyclotomicNumber":
        """The root of unity ``z_n ** power``, the image of ``z_n`` under ``z -> z**power``."""
        return CyclotomicNumber(n, _reduce_coeffs(n, _scatter(n, (0, 1), power)))

    @staticmethod
    def from_rational(value, conductor: int = 1) -> "CyclotomicNumber":
        value = Fraction(value)
        phi = euler_phi(conductor)
        coeffs = [Fraction(0)] * phi
        coeffs[0] = value
        return CyclotomicNumber(conductor, coeffs)

    # -- helpers -----------------------------------------------------

    def _lift(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.conductor != self.conductor:
                raise ValueError(
                    f"conductor mismatch: {self.conductor} vs {other.conductor}; "
                    "embed into a common conductor first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.from_rational(other, self.conductor)
        return None

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return CyclotomicNumber(
            self.conductor, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.conductor, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return CyclotomicNumber(
            self.conductor, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (2 * len(a) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return CyclotomicNumber(self.conductor, _reduce_coeffs(self.conductor, out))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_n."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        phi_n = [Fraction(c) for c in cyclotomic_polynomial(self.conductor).coeffs]
        r0, r1 = phi_n, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]

        def deg(p):
            for i in range(len(p) - 1, -1, -1):
                if p[i] != 0:
                    return i
            return -1

        while True:
            d1 = deg(r1)
            if d1 <= 0:
                break
            d0 = deg(r0)
            if d0 < d1:
                r0, r1 = r1, r0
                s0, s1 = s1, s0
                continue
            factor = r0[d0] / r1[d1]
            shift = d0 - d1
            for i in range(d1 + 1):
                r0[i + shift] -= factor * r1[i]
            ls = len(s0)
            s0 = s0 + [Fraction(0)] * max(0, len(s1) + shift - ls)
            for i in range(len(s1)):
                s0[i + shift] -= factor * s1[i]
            if deg(r0) < d1:
                r0, r1 = r1, r0
                s0, s1 = s1, s0
        const = r1[deg(r1)] if deg(r1) == 0 else None
        if const is None or const == 0:
            raise ZeroDivisionError("value is not invertible")
        inv = [c / const for c in s1]
        return CyclotomicNumber(self.conductor, _reduce_coeffs(self.conductor, inv))

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        return lifted * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CyclotomicNumber.from_rational(1, self.conductor)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        if self.conductor == other.conductor:
            return self.coeffs == other.coeffs
        a, b = self.reduced(), other.reduced()
        return a.conductor == b.conductor and a.coeffs == b.coeffs

    # -- Galois action and structure ------------------------------------

    def galois(self, k: int) -> "CyclotomicNumber":
        """The automorphism ``z -> z**k``; ``k`` must be coprime to the conductor."""
        n = self.conductor
        if gcd(k % n, n) != 1:
            raise ValueError(f"{k} is not coprime to the conductor {n}")
        return CyclotomicNumber(n, _reduce_coeffs(n, _scatter(n, self.coeffs, k)))

    def conjugate(self) -> "CyclotomicNumber":
        if self.conductor <= 2:
            return self
        return self.galois(self.conductor - 1)

    def is_real(self) -> bool:
        return self.conjugate() == self

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational")
        return self.coeffs[0]

    # -- conductor changes ----------------------------------------------

    def embed(self, m: int) -> "CyclotomicNumber":
        """Value-preserving embedding into ``Q(z_m)``; ``m`` must be a multiple."""
        n = self.conductor
        if m % n != 0:
            raise ValueError(f"{m} is not a multiple of the conductor {n}")
        if m == n:
            return self
        return CyclotomicNumber(m, _reduce_coeffs(m, _scatter(m, self.coeffs, m // n)))

    def reduced(self) -> "CyclotomicNumber":
        """The same value at the smallest possible conductor."""
        n = self.conductor
        for d in divisors(n):
            if d == n:
                break
            sol = solve(_embedding_matrix(n, d), list(self.coeffs))
            if sol is not None:
                return CyclotomicNumber(d, sol)
        return self

    # -- misc ------------------------------------------------------------

    def __repr__(self):
        return f"CyclotomicNumber({self.conductor}, {self.coeffs!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{i}")
        return " + ".join(parts) + f"  (z = primitive {self.conductor}-th root)"


@functools.lru_cache(maxsize=None)
def _embedding_matrix(n: int, d: int) -> tuple[tuple[Fraction, ...], ...]:
    """Columns: the conductor-n coordinates of the power basis of ``Q(z_d)``."""
    cols = [CyclotomicNumber.zeta(n, (n // d) * i).coeffs for i in range(euler_phi(d))]
    phi_n = euler_phi(n)
    return tuple(tuple(col[r] for col in cols) for r in range(phi_n))


def _check_half_angle(l: int, p: int) -> None:
    if not is_odd_prime(p):
        raise ValueError("order must be an odd prime")
    if l % p == 0:
        raise ValueError("rotation number divisible by the group order")
    if not 0 < l < p:
        raise ValueError("rotation number must lie strictly between 0 and the order")


def half_angle_cos(l: int, p: int) -> CyclotomicNumber:
    """Exact ``cos(pi*l/p)`` at conductor ``4p``."""
    _check_half_angle(l, p)
    n = 4 * p
    z = CyclotomicNumber.zeta
    return (z(n, 2 * l % n) + z(n, -2 * l % n)) * Fraction(1, 2)


def half_angle_csc(l: int, p: int) -> CyclotomicNumber:
    """Exact ``csc(pi*l/p)`` at conductor ``4p``.

    Built from ``sin(pi*l/p) = (z2p^l - z2p^-l) / (2i)`` with ``i = z_4p^p``;
    the result passes :meth:`CyclotomicNumber.is_real`.
    """
    _check_half_angle(l, p)
    n = 4 * p
    z = CyclotomicNumber.zeta
    s = z(n, 2 * l % n) - z(n, -2 * l % n)
    return 2 * z(n, p) * s.inverse()
