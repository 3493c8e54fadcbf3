"""Spin numbers, defect vectors, class-keyed defect tables, and order-3 quotient invariants."""

import functools
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from equispin import cyclo, dataset, lefschetz
from equispin.cyclo import CyclotomicNumber

from equispin.dataset import (
    ClassCounts,
    FixedPointDataset,
    FixedSurface,
    IsolatedPoint,
    ManifoldInvariants,
    class_counts,
    fermat_quartic,
    normalize_half_weights,
)
from equispin.lefschetz import (
    KVector,
    NonIntegralDefectError,
    SpinNumberTuple,
    euler_quotient_p3,
    k_vector,
    orbit_space_p3,
    signature_quotient_p3,
    spin_index,
    spin_number,
    spin_number_from_angles,
    spin_number_tuple,
    synthesize_spins,
)

from conftest import random_dataset
from oracles import (
    convolved_pair,
    fourier_inverse,
    half_weight_point_table,
    half_weight_surface_table,
    spin_value,
    spin_values,
)

K3 = ManifoldInvariants.k3()
PRIMES_TO_31 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _one_point(p: int, point: IsolatedPoint):
    """The class key and the half-weight residues of a single isolated point."""
    d = FixedPointDataset(p, K3, 3, False, isolated=(point,))
    ((key, _),) = class_counts(d).points
    (half,), _ = normalize_half_weights(d)
    return key, half


def _one_surface(p: int, surface: FixedSurface):
    """The class key and the half-weight residue of a single fixed surface."""
    d = FixedPointDataset(p, K3, 3, False, surfaces=(surface,))
    ((key, _),) = class_counts(d).surfaces
    _, (half,) = normalize_half_weights(d)
    return key, half


class TestSpinNumber:
    def test_fermat_value(self):
        assert spin_number(fermat_quartic(), 1) == 2

    def test_empty_fixed_set(self):
        d = FixedPointDataset(3, K3, 3, False)
        assert spin_number(d, 1).is_zero()

    def test_single_sphere(self):
        d = FixedPointDataset(
            3, K3, 3, False, surfaces=(FixedSurface(-2, 0, 1, 1),)
        )
        assert spin_number(d, 1) == Fraction(-1, 3)

    def test_power_out_of_range(self):
        with pytest.raises(ValueError):
            spin_number(fermat_quartic(), 3)

    def test_agrees_with_literal_formula(self):
        rng = random.Random(61)
        for p in (3, 5, 7):
            for kind in ("isolated", "surfaces", "mixed"):
                d = random_dataset(rng, p=p, kind=kind)
                assert spin_number(d, 1) == spin_number_from_angles(d)


class TestSpinProperties:
    def test_realness_and_symmetry(self):
        rng = random.Random(67)
        for p in (3, 5, 7):
            for _ in range(15):
                d = random_dataset(rng, p=p)
                values = [spin_number(d, j) for j in range(1, p)]
                assert all(v.is_real() for v in values)
                for j in range(1, p):
                    assert values[j - 1] == values[p - j - 1]

    def test_p3_rationality(self):
        rng = random.Random(71)
        for _ in range(25):
            d = random_dataset(rng, p=3)
            assert spin_number(d, 1).reduced().is_rational()

    def test_tuple_checks_run(self):
        spins = spin_number_tuple(fermat_quartic())
        values = spin_values(spins)
        assert values[0] == 2
        assert values[1] == values[2] == 2


class TestSpinIndex:
    def test_k3(self):
        assert spin_index(K3) == 2

    def test_zero(self):
        assert spin_index(ManifoldInvariants(0, 3, 0, 8, True)) == 0

    def test_linearity(self):
        assert spin_index(ManifoldInvariants(0, 3, -32, 40, True)) == 4

    def test_requires_spin(self):
        with pytest.raises(ValueError, match="spin"):
            spin_index(ManifoldInvariants(0, 3, -16, 24, False))

    def test_signature_divisibility(self):
        with pytest.raises(ValueError, match="divisible by 8"):
            spin_index(ManifoldInvariants(0, 3, -12, 20, True))


def _inverted(values) -> SpinNumberTuple:
    """The tuple whose spin numbers are ``values``, by the field oracle's Fourier inversion."""
    return SpinNumberTuple(len(values), fourier_inverse(values))


class TestKVector:
    def test_uniform_spins(self):
        assert k_vector(_inverted([2, 2, 2])).k == (2, 0, 0)

    def test_negative_spins(self):
        assert k_vector(_inverted([2, -16, -16])).k == (-10, 6, 6)

    def test_non_integral(self):
        with pytest.raises(NonIntegralDefectError, match="defect 0 is not an integer: 4/3"):
            k_vector(_inverted([2, 1, 1]))

    def test_round_trip_on_random_vectors(self):
        rng = random.Random(73)
        for p in (3, 5, 7):
            for _ in range(40):
                k = [rng.randint(-6, 6) for _ in range(p)]
                k[0] = 2 - sum(k[1:])
                kv = KVector(p, tuple(k))
                assert k_vector(synthesize_spins(kv)) == kv

    def test_uniform_tail_identity(self):
        # with equal tail defects the first twist equals (p k0 - 2) / (p - 1)
        for p in (3, 5, 7):
            for k0 in range(-6, 3):
                if (2 - k0) % (p - 1) != 0:
                    continue
                tail = (2 - k0) // (p - 1)
                kv = KVector(p, (k0,) + (tail,) * (p - 1))
                value = spin_value(synthesize_spins(kv), 1)
                assert value == Fraction(p * k0 - 2, p - 1)

    def test_fermat(self):
        assert k_vector(spin_number_tuple(fermat_quartic())).k == (2, 0, 0)

    def test_shift(self):
        kv = KVector(3, (2, 0, 0))
        assert kv.shifted(1).k == (0, 0, 2)
        assert kv.shifted(2).k == (0, 2, 0)


class TestQuotients:
    def test_fermat(self):
        fermat = fermat_quartic()
        assert signature_quotient_p3(fermat) == -4
        assert euler_quotient_p3(fermat) == 12

    def test_free_action(self):
        d = FixedPointDataset(3, K3, 3, False)
        assert signature_quotient_p3(d) == Fraction(-16, 3)
        assert euler_quotient_p3(d) == 8

    def test_free_signature_not_integral(self):
        d = FixedPointDataset(3, K3, 1, False)
        assert signature_quotient_p3(d).denominator != 1

    def test_sphere_with_positive_square(self):
        d = FixedPointDataset(
            3, K3, 3, False, surfaces=(FixedSurface(6, 0, 1, 1),)
        )
        assert signature_quotient_p3(d) == 0

    def test_one_sphere_euler_not_integral(self):
        d = FixedPointDataset(
            3, K3, 3, False, surfaces=(FixedSurface(-2, 0, 1, 1),)
        )
        assert euler_quotient_p3(d) == Fraction(28, 3)
        assert euler_quotient_p3(d).denominator != 1

    def test_orbit_signature_equals_the_g_signature_formula(self):
        # (sigma + (8/3) sum F.F + (2/3) (f1 - f2)) / 3, term by term, on counts built by hand
        for sigma in (-32, -16, 0, 16):
            manifold = ManifoldInvariants(0, 3, sigma, 8 - sigma, True)
            for surface_sum in range(-6, 7):
                for f1 in range(13):
                    for f2 in range(13):
                        points = tuple([(key, n) for key, n in (((1, 1, 1), f2), ((1, 2, -1), f1)) if n])
                        counts = ClassCounts(
                            3, manifold, 3, False, points, (((1, 1), surface_sum),), (f1 + f2 + 1, 0, 1)
                        )
                        want = (
                            sigma + Fraction(8, 3) * surface_sum + Fraction(2, 3) * (f1 - f2)
                        ) / 3
                        assert orbit_space_p3(counts)["sigma"] == want

    def test_wrong_order(self):
        d = FixedPointDataset(5, K3, 3, False)
        with pytest.raises(ValueError):
            signature_quotient_p3(d)
        with pytest.raises(ValueError):
            euler_quotient_p3(d)


class TestOrderThreeIndexIdentity:
    def test_triple_defect_identity(self):
        # 3 k_0 = -sigma/8 + 2 Spin whenever the two tail defects agree
        rng = random.Random(79)
        hits = 0
        for _ in range(200):
            d = random_dataset(rng, p=3)
            spins = spin_number_tuple(d)
            try:
                kv = k_vector(spins)
            except NonIntegralDefectError:
                continue
            if kv.k[1] != kv.k[2]:
                continue
            hits += 1
            spin = spin_value(spins, 1).reduced().to_rational()
            assert 3 * kv.k[0] == 2 + 2 * spin
        assert hits > 0


def _trace_vector(p: int) -> list[Fraction]:
    """``Tr(zeta_2p^e)`` for e = 0..2p-1, as the sum of the Galois conjugates."""
    n = 2 * p
    units = [j for j in range(1, n) if gcd(j, n) == 1]
    zero = CyclotomicNumber.from_rational(0, n)
    return [
        sum((CyclotomicNumber.zeta(n, j * e) for j in units), zero).to_rational()
        for e in range(n)
    ]


class TestDefectTables:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_tables_match_trace_of_per_power_term(self, p):
        # T_i = (1/p) Tr(nu^(-i) point_term) and S_i likewise, for every point and surface
        n = 2 * p
        trace = _trace_vector(p)
        denominator = 2 * p**3

        def oracle(term):
            # nu^(-i) = zeta_2p^(-2i); the term is in conductor-2p coordinates
            return tuple(
                sum(c * trace[(m - 2 * i) % n] for m, c in enumerate(term.coeffs)) / p
                for i in range(p)
            )

        for eps in (1, -1):
            for la in range(1, p):
                for lb in range(1, p):
                    key, half = _one_point(p, IsolatedPoint(la, lb, eps))
                    got = tuple(Fraction(v, denominator) for v in lefschetz._point_table(p, *key))
                    assert got == oracle(lefschetz._point_term(p, 1, half.a, half.b)), key
            for lt in range(1, p):
                key, half = _one_surface(p, FixedSurface(-1, 0, lt, eps))
                got = tuple(Fraction(v, denominator) for v in lefschetz._surface_table(p, *key))
                assert got == oracle(lefschetz._surface_factor(p, 1, half.c)), key

    def test_class_tables_match_half_weight_tables(self):
        # every rotation pair and spin sign, against the tables keyed by half weights mod 2p
        for p in PRIMES_TO_31:
            for eps in (1, -1):
                for la in range(1, p):
                    for lb in range(1, p):
                        key, half = _one_point(p, IsolatedPoint(la, lb, eps))
                        want = half_weight_point_table(p, half.a, half.b)
                        assert lefschetz._point_table(p, *key) == want, (p, la, lb, eps)
                for lt in range(1, p):
                    key, half = _one_surface(p, FixedSurface(-1, 0, lt, eps))
                    want = half_weight_surface_table(p, half.c)
                    assert lefschetz._surface_table(p, *key) == want, (p, lt, eps)

    def test_table_residues_mod_p(self):
        # T_i = 2 p^2 (alpha + gamma i^2) and S_i = p^2 (s/12 + (s/c^2) i^2) mod p^3, at p >= 5
        for p in PRIMES_TO_31[1:]:
            inv = functools.partial(pow, exp=-1, mod=p)
            for s in (1, -1):
                for a in range(1, p):
                    for b in range(1, p):
                        alpha = -s * (a * inv(b) + b * inv(a)) * inv(24)
                        gamma = s * inv(2 * a * b)
                        for i, v in enumerate(lefschetz._point_table(p, a, b, s)):
                            assert v % (2 * p * p) == 0, (p, a, b, s, i)
                            assert (v // (2 * p * p) - alpha - gamma * i * i) % p == 0, (p, a, b, s, i)
                for c in range(1, p):
                    for i, v in enumerate(lefschetz._surface_table(p, c, s)):
                        assert v % (p * p) == 0, (p, c, s, i)
                        assert (v // (p * p) - s * inv(12) - s * inv(c * c) * i * i) % p == 0, (p, c, s, i)

    def test_defects_need_no_half_weights(self, monkeypatch):
        # the tables read class counts; the half-weight encoding serves the per-power oracle only
        rng = random.Random(127)
        corpus = [random_dataset(rng, p=p) for p in (3, 3, 5, 7, 11) for _ in range(8)]
        want = [spin_number_tuple(d) for d in corpus]

        def refuse(*args, **kwargs):
            raise AssertionError("half-weight encoding on the defect path")

        monkeypatch.setattr(dataset, "normalize_half_weights", refuse)
        monkeypatch.setattr(lefschetz, "normalize_half_weights", refuse)
        lefschetz._point_table.cache_clear()
        lefschetz._surface_table.cache_clear()
        assert [lefschetz.defect_vector(class_counts(d)) for d in corpus] == [w.defects for w in want]
        assert [spin_number_tuple(d) for d in corpus] == want

    def test_pair_matches_convolution(self):
        # the O(p) recurrence against the O(p^2) convolution oracle
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            for a in range(1, p):
                for b in range(1, p):
                    assert lefschetz._pair(p, a, b) == convolved_pair(p, a, b), (p, a, b)
        rng = random.Random(1009)
        for _ in range(20):
            a, b = rng.randrange(1, 1009), rng.randrange(1, 1009)
            assert lefschetz._pair(1009, a, b) == convolved_pair(1009, a, b), (a, b)

    def test_large_prime_table_is_linear_in_p(self):
        # an O(p^2) build of this one table takes seconds at p = 10007
        d = FixedPointDataset(10007, K3, 3, False, isolated=(IsolatedPoint(7, 3, 1),))
        lefschetz._point_table.cache_clear()
        started = time.perf_counter()
        defects = lefschetz.defect_vector(class_counts(d))
        assert time.perf_counter() - started < 0.5
        assert defects[0] == Fraction(-393408, 10007)

    def test_tuple_matches_per_power_oracle(self):
        rng = random.Random(83)
        for p, count in ((3, 12), (5, 12), (7, 8), (11, 3)):
            for _ in range(count):
                d = random_dataset(rng, p=p)
                spins = spin_number_tuple(d)
                values = spin_values(spins)
                assert values[0] == spin_index(d.manifold)
                for j in range(1, p):
                    assert values[j] == spin_number(d, j)
                    assert values[j].conductor == spin_number(d, j).conductor

    def test_k_vector_matches_fourier_inversion_of_oracle(self):
        rng = random.Random(89)
        for p in (3, 5, 7):
            for _ in range(15):
                d = random_dataset(rng, p=p)
                oracle = [spin_index(d.manifold)] + [spin_number(d, j) for j in range(1, p)]
                assert spin_number_tuple(d) == _inverted(oracle)

    def test_values_match_multiplied_sum(self):
        rng = random.Random(97)
        for p in (3, 5, 7):
            nu = CyclotomicNumber.zeta(p)
            for _ in range(10):
                kv = KVector(p, tuple(rng.randint(-6, 6) for _ in range(p)))
                spins = synthesize_spins(kv)
                for j in range(p):
                    acc = CyclotomicNumber.from_rational(0, p)
                    for i, k in enumerate(kv.k):
                        acc = acc + k * nu ** (i * j % p)
                    assert spin_value(spins, j) == acc
                    assert spin_value(spins, j).conductor == acc.reduced().conductor

    def test_round_trip_through_values(self):
        # inverts the built values, not the defects the tuple carries
        rng = random.Random(101)
        for p in (3, 5, 7):
            for _ in range(20):
                kv = KVector(p, tuple(rng.randint(-6, 6) for _ in range(p)))
                assert k_vector(_inverted(spin_values(synthesize_spins(kv)))) == kv

    def test_value_coordinates_match_the_folded_exponent_vector(self):
        # k_(e/j) - k_((p-1)/j) at nu^e, against the generic fold of k_i at exponent i j
        rng = random.Random(113)
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            for real in (True, False) * 3:
                d = [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, p))) for _ in range(p)]
                if real:
                    d = [d[min(i, p - i)] for i in range(p)]
                spins = SpinNumberTuple(p, tuple(d))
                for j in range(-1, p + 1):
                    want = cyclo._reduce_coeffs(p, cyclo._scatter(p, d, j))
                    assert spins.coordinates(j) == want, (p, j)
                    got = spin_value(spins, j)
                    if any(want[1:]):
                        assert (got.conductor, got.coeffs) == (p, want), (p, j)
                    else:
                        assert (got.conductor, got.coeffs) == (1, want[:1]), (p, j)
            flat = SpinNumberTuple(p, (Fraction(3),) + (Fraction(-1),) * (p - 1))
            assert all(flat.coordinates(j) == (4,) + (0,) * (p - 2) for j in range(1, p))

    def test_realness_check(self):
        spins = synthesize_spins(KVector(5, (2, 1, 0, 0, 0)))
        with pytest.raises(ValueError, match="not real"):
            spins.check()
