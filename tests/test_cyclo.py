"""Cyclotomic arithmetic: construction, field axioms, Galois action, trig values."""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equispin.cyclo import (
    CyclotomicNumber,
    IntPolynomial,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    half_angle_cos,
    half_angle_csc,
    is_odd_prime,
)

Z = CyclotomicNumber.zeta
Q = CyclotomicNumber.from_rational


def random_value(rng, n, span=4):
    phi = euler_phi(n)
    return CyclotomicNumber(
        n, [Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(phi)]
    )


def _trial_division(n):
    return n >= 3 and n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))


class TestPrimality:
    def test_agrees_with_trial_division_below_1e5(self):
        assert [n for n in range(10**5) if is_odd_prime(n) != _trial_division(n)] == []

    def test_large_values(self):
        assert is_odd_prime(2**61 - 1)
        assert not is_odd_prime(2**61 + 1)
        # strong pseudoprimes to every prime base up to 23 and up to 37
        assert not is_odd_prime(3825123056546413051)
        assert not is_odd_prime(318665857834031151167461)


class TestCyclotomicPolynomial:
    def test_prime(self):
        assert cyclotomic_polynomial(3) == IntPolynomial((1, 1, 1))

    def test_one(self):
        assert cyclotomic_polynomial(1) == IntPolynomial((-1, 1))

    def test_twelve(self):
        # oracle: exact division of x^12 - 1 by the proper-divisor product
        product = IntPolynomial((1,))
        for d in divisors(12)[:-1]:
            product = product * cyclotomic_polynomial(d)
        x12 = IntPolynomial((-1,) + (0,) * 11 + (1,))
        quotient, rem = divmod(x12, product)
        assert rem.is_zero()
        assert cyclotomic_polynomial(12) == quotient == IntPolynomial((1, 0, -1, 0, 1))

    def test_monic_of_degree_phi(self):
        for n in range(1, 40):
            poly = cyclotomic_polynomial(n)
            assert poly.degree == euler_phi(n)
            assert poly.coeffs[-1] == 1

    def test_product_over_divisors(self):
        for n in (6, 12, 18, 30):
            product = IntPolynomial((1,))
            for d in divisors(n):
                product = product * cyclotomic_polynomial(d)
            assert product == IntPolynomial((-1,) + (0,) * (n - 1) + (1,))

    def test_root(self):
        for n in range(1, 61):
            assert cyclotomic_polynomial(n).evaluate(Z(n)).is_zero()


class TestArithmetic:
    def test_unit_product_p3(self):
        z = Z(3)
        assert (1 + z) * (1 + z**2) == 1

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_unit_product_all_twists(self, p):
        z = Z(p)
        prod = Q(1, p)
        for j in range(1, p):
            prod = prod * (1 + z**j)
        assert prod == 1

    def test_multiplicative_identity(self):
        rng = random.Random(11)
        for n in (3, 5, 12):
            x = random_value(rng, n)
            assert x * Q(1, n) == x

    def test_conductor_mismatch(self):
        with pytest.raises(ValueError, match="conductor mismatch"):
            Z(3) + Z(5)

    def test_inverse_of_zeta(self):
        for n in (3, 5, 8, 12):
            assert Z(n).inverse() == Z(n, n - 1)

    def test_inverse_unit(self):
        z = Z(3)
        assert (1 + z).inverse() == 1 + z**2

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            Q(0, 3).inverse()

    def test_negative_powers(self):
        z = Z(5)
        assert z**-1 == z**4
        assert (1 + z) ** -2 == ((1 + z) ** 2).inverse()

    def test_forced_rational(self):
        z = Z(3)
        assert z + z**2 == -1


class TestFieldAxioms:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([3, 4, 5, 12]),
        data=st.data(),
    )
    def test_ring_laws(self, n, data):
        phi = euler_phi(n)
        coeff = st.fractions(
            min_value=-4, max_value=4, max_denominator=3
        )
        vec = st.lists(coeff, min_size=phi, max_size=phi)
        a = CyclotomicNumber(n, data.draw(vec))
        b = CyclotomicNumber(n, data.draw(vec))
        c = CyclotomicNumber(n, data.draw(vec))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        if not a.is_zero():
            assert a * a.inverse() == 1

    def test_conjugation_involution_and_norm(self):
        rng = random.Random(13)
        for n in (3, 5, 7, 12):
            for _ in range(10):
                a = random_value(rng, n)
                assert a.conjugate().conjugate() == a
                assert (a * a.conjugate()).is_real()


class TestGalois:
    def test_identity(self):
        rng = random.Random(17)
        for n in (3, 5, 12):
            a = random_value(rng, n)
            assert a.galois(1) == a

    def test_defining_action(self):
        z = Z(3)
        assert (1 + z).galois(2) == 1 + z**2

    def test_conjugate_fixes_real_combination(self):
        for n in (5, 7, 12):
            z = Z(n)
            assert (z + z.inverse()).is_real()

    def test_not_coprime(self):
        with pytest.raises(ValueError):
            Z(6).galois(2)

    def test_ring_homomorphism(self):
        rng = random.Random(19)
        for n in (5, 12):
            ks = [k for k in range(1, n) if math.gcd(k, n) == 1]
            for _ in range(8):
                a, b = random_value(rng, n), random_value(rng, n)
                k = rng.choice(ks)
                assert (a * b).galois(k) == a.galois(k) * b.galois(k)
                assert (a + b).galois(k) == a.galois(k) + b.galois(k)

    def test_trace_is_rational(self):
        rng = random.Random(23)
        for n in (5, 7, 12):
            a = random_value(rng, n)
            trace = Q(0, n)
            for k in range(1, n + 1):
                if math.gcd(k, n) == 1:
                    trace = trace + a.galois(k)
            assert trace.is_rational()


class TestRealityAndRationality:
    def test_csc_squared(self):
        v = half_angle_csc(1, 3) ** 2
        assert v.reduced().to_rational() == Fraction(4, 3)

    def test_zeta3_neither(self):
        z = Z(3)
        assert not z.is_real()
        assert not z.is_rational()

    def test_to_rational_error(self):
        with pytest.raises(ValueError, match="not rational"):
            Z(3).to_rational()


class TestConductorChanges:
    def test_embed_then_reduce(self):
        rng = random.Random(29)
        for n, m in ((3, 12), (5, 20), (4, 8)):
            a = random_value(rng, n)
            assert a.embed(m).reduced() == a.reduced()

    def test_rational_reduces_to_one(self):
        v = CyclotomicNumber(12, [Fraction(4, 3), 0, 0, 0])
        r = v.reduced()
        assert r.conductor == 1
        assert r.to_rational() == Fraction(4, 3)

    def test_defining_embedding(self):
        assert Z(3).embed(12) == Z(12, 4)

    def test_not_a_multiple(self):
        with pytest.raises(ValueError):
            Z(3).embed(10)

    def test_equality_across_conductors(self):
        assert Z(3).embed(12) == Z(3)
        assert Q(Fraction(1, 2), 12) == Fraction(1, 2)


class TestHalfAngles:
    def test_cos_value(self):
        assert half_angle_cos(1, 3).reduced().to_rational() == Fraction(1, 2)

    def test_csc_squared_value(self):
        assert (half_angle_csc(1, 3) ** 2).reduced() == Fraction(4, 3)

    def test_all_real(self):
        for p in (3, 5, 7):
            for l in range(1, p):
                assert half_angle_csc(l, p).is_real()
                assert half_angle_cos(l, p).is_real()

    def test_p5_product(self):
        v = half_angle_csc(1, 5) * half_angle_csc(2, 5)
        assert v.is_real()
        assert (v * v).reduced().to_rational() == Fraction(16, 5)
        # high-precision numeric cross-check: csc(pi/5) csc(2pi/5) = 4/sqrt 5
        from oracles import field_estimate

        estimate = float(field_estimate(v, bits=120))
        assert abs(estimate - 4 / math.sqrt(5)) < 1e-12

    def test_pole(self):
        with pytest.raises(ValueError):
            half_angle_csc(3, 3)
        with pytest.raises(ValueError):
            half_angle_csc(0, 5)


@functools.lru_cache(maxsize=None)
def _x_power_mod(n: int, e: int) -> tuple[Fraction, ...]:
    """Power-basis coordinates of ``x^e mod Phi_n``, by integer polynomial division."""
    rem = (IntPolynomial((0,) * e + (1,)) % cyclotomic_polynomial(n)).coeffs
    return tuple(Fraction(c) for c in rem) + (Fraction(0),) * (euler_phi(n) - len(rem))


def _folded(n: int, terms) -> tuple[Fraction, ...]:
    """``sum c x^e mod Phi_n`` over ``(e, c)`` terms, one polynomial division per term."""
    out = [Fraction(0)] * euler_phi(n)
    for e, c in terms:
        out = [a + c * b for a, b in zip(out, _x_power_mod(n, e))]
    return tuple(out)


class TestPowerBasisFold:
    """The one fold against remainders of ``x^e`` modulo ``Phi_n`` (``IntPolynomial`` division)."""

    def test_zeta_is_the_remainder(self):
        for n in range(1, 61):
            for e in range(3 * n):
                assert Z(n, e).coeffs == _x_power_mod(n, e), (n, e)

    def test_galois_and_embed_are_summed_remainders(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(1, 60)
            a = random_value(rng, n)
            k = rng.choice([k for k in range(1, 2 * n + 1) if math.gcd(k, n) == 1])
            assert a.galois(k).coeffs == _folded(n, ((i * k, c) for i, c in enumerate(a.coeffs)))
            r = rng.randint(1, 4)
            assert a.embed(n * r).coeffs == _folded(
                n * r, ((i * r, c) for i, c in enumerate(a.coeffs))
            )
