"""The exact Adams kernel rank by character blocks, against the Hermite kernel.

``adams_kernel_rank`` never forms the constraint matrix; ``integer_kernel`` on
``_constraint_rows`` is the oracle for its rank and for the membership and
span of the candidate generator.  The certificate that turns kernels modulo
primes into a proven rank is driven here through its two recovery paths.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from equispin.intlinalg import (
    certified_kernel,
    integer_kernel,
    kernel_mod,
    matmul_mod,
    poly_inverse_mod,
    rational_reconstruction,
)
from equispin.lefschetz import KVector
from equispin.repring import (
    InstanceParameters,
    _constraint_rows,
    _fourier_primes,
    _residual,
    _residual_layers,
    adams_kernel_rank,
)
from equispin.rigidity import derive_instance, verify_sw_vanishing

from oracles import annihilates, candidate_vector

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from corpus import ADAMS_OVER_CAP, ADAMS_POOLS  # noqa: E402

import test_rigidity  # noqa: E402


def _params(p, m, n, l=1, d=0):
    return InstanceParameters(p=p, m_vector=m, n_vector=n, l=l, d=d)


def _oracle(params, q):
    """(rank, contains, spanned) read off the saturated Hermite kernel."""
    rows = _constraint_rows(params, (q,))
    kernel = integer_kernel(rows)
    expected = candidate_vector(params.p, params.truncation().total)
    return len(kernel), annihilates(rows, expected), kernel in ([expected], [[-v for v in expected]])


def _fast(params, q):
    total = params.truncation().total
    # at p = 1 the candidate vector is its list of t-coefficients
    rank, contains = adams_kernel_rank(params, q, candidate_vector(1, total))
    return rank, contains, rank == 1 and contains


POOLS = [
    pytest.param(_params(3, m, n), id=f"p3-m{''.join(map(str, m))}-n{''.join(map(str, n))}")
    for pool in ADAMS_POOLS.values()
    for m, n in pool
] + [
    pytest.param(_params(p, m, n), id=f"probe-p{p}-dim{p * sum(m)}")
    for p, m, n in ADAMS_OVER_CAP
]


@pytest.mark.parametrize("params", POOLS)
def test_benchmark_instances_match_hermite_kernel(params):
    want = _oracle(params, 2)
    assert _fast(params, 2) == want
    report = verify_sw_vanishing(params)
    got = (report.kernel_rank, report.kernel_contains_expected, report.kernel_spanned_by_expected)
    assert got == want


@pytest.mark.parametrize("params", test_rigidity.TestCandidateMembership.INSTANCES)
@pytest.mark.parametrize("q", (2, 3))
def test_membership_instances_match_hermite_kernel(params, q):
    assert _fast(params, q) == _oracle(params, q)


def test_dimension_133_instance():
    params = _params(7, (1,) + (3,) * 6, (11,) + (1,) * 6)
    assert _fast(params, 2) == _oracle(params, 2) == (13, True, False)


@pytest.mark.parametrize(
    "params, ranks",
    [
        pytest.param(_params(3, (2, 2, 2), (2, 1, 1)), (18, 1, 13, 1, 1, 13), id="p3"),
        pytest.param(_params(5, (1, 2, 2, 2, 2), (3, 1, 1, 1, 1)), (45, 1, 1, 1, 37, 1), id="p5"),
    ],
)
def test_every_exponent_class(params, ranks):
    # q = 1 (mod p) makes every character a block of its own; q = 0 (mod p)
    # joins them all to the trivial one
    for q, rank in zip(range(1, 7), ranks):
        want = _oracle(params, q)
        assert want[0] == rank
        assert _fast(params, q) == want, q


@pytest.mark.parametrize("p, m, n", [(3, (2, 3, 3), (4, 1, 1)), (5, (1, 2, 2, 2, 2), (3, 1, 1, 1, 1))])
def test_residual_is_the_matrix_product(p, m, n):
    params = _params(p, m, n)
    for q in (2, p):
        rows = _constraint_rows(params, (q,))
        layers = _residual_layers(params, q)
        # entries up to 2^80 and of both signs, so the packed sums carry
        # across many digits
        for seed in range(3):
            x = [((seed * 7 + 3 * r * r) % 5 - 2) << (40 * seed) for r in range(len(rows[0]))]
            flat = [c for layer in _residual(params, q, layers, x) for c in layer]
            assert flat == [sum(a * b for a, b in zip(row, x)) for row in rows]


# -- the certificate --------------------------------------------------------------

PRIMES = [ell for ell, _ in zip(_fourier_primes(3), range(3))]


def _kernel_certificate(rows, primes):
    calls = []

    def residues(ell):
        calls.append(ell)
        return kernel_mod(rows, ell)

    def exact(x):
        return all(sum(a * b for a, b in zip(row, x)) == 0 for row in rows)

    return certified_kernel(residues, exact, primes), calls


def test_rank_drop_modulo_the_first_prime_restarts_the_lift():
    # nullity 2 modulo PRIMES[0], 1 over Q: the lift of (0, 1, 0) fails its
    # exact check, and the second prime lowers the bound and starts again
    rows = [[1, 0, 0], [0, PRIMES[0], 0]]
    assert len(kernel_mod(rows, PRIMES[0])) == 2
    kernel, calls = _kernel_certificate(rows, PRIMES)
    assert kernel == [[0, 0, 1]] and calls == PRIMES[:2]


def test_kernel_needing_two_primes_to_reconstruct():
    # the kernel (2^40 - 1, 2^40 + 1) has echelon form (1, (2^40 + 1)/(2^40 - 1)),
    # of 80-bit height, which one prime near 2^61 cannot reconstruct
    a, b = 2**40 + 1, 2**40 - 1
    rows = [[a, -b]]
    assert rational_reconstruction(a * pow(b, -1, PRIMES[0]), PRIMES[0]) != Fraction(a, b)
    kernel, calls = _kernel_certificate(rows, PRIMES)
    assert kernel == [[b, a]] and calls == PRIMES[:2]


def test_prime_of_larger_nullity_is_skipped_between_good_ones():
    a, b = 2**40 + 1, 2**40 - 1
    rows = [[a, -b, 0], [0, 0, PRIMES[1]]]
    kernel, calls = _kernel_certificate(rows, PRIMES)
    assert kernel == [[b, a, 0]] and calls == PRIMES


def test_rational_reconstruction():
    m = PRIMES[0]
    for want in (Fraction(0), Fraction(3, 7), Fraction(-5, 12), Fraction(123456789, 987654)):
        assert rational_reconstruction(want.numerator * pow(want.denominator, -1, m), m) == want
    # a denominator beyond sqrt(m/2) is out of reach
    assert rational_reconstruction(pow(2**31 + 11, -1, m), m) != Fraction(1, 2**31 + 11)


def test_kernel_mod_and_matmul_mod():
    ell = PRIMES[0]
    rows = [[2, 4, 6], [1, 1, 1]]
    assert kernel_mod(rows, ell) == [[1, ell - 2, 1]]
    assert matmul_mod(rows, [[1], [ell - 2], [1]], ell) == [[0], [0]]
    assert kernel_mod([[0, 0]], ell) == [[1, 0], [0, 1]]


def test_poly_inverse_mod():
    ell = PRIMES[0]
    rng = random.Random(5)

    def times_mod(a, b, g):
        prod = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                prod[i + j] += u * v
        for k in range(len(prod) - 1, len(g) - 2, -1):  # g is monic
            f = prod[k]
            for i, v in enumerate(g):
                prod[k - len(g) + 1 + i] -= f * v
        return [v % ell for v in prod[:len(g) - 1]]

    for degree in (1, 2, 5, 11):
        g = [rng.randrange(ell) for _ in range(degree)] + [1]
        a = [rng.randrange(ell) for _ in range(degree)]
        b = poly_inverse_mod(a, g, ell)
        assert len(b) == degree and times_mod(a, b, g) == [1] + [0] * (degree - 1)
    # t^2 - 1 = (t - 1)(t + 1) shares the factor t - 1 with t - 1
    with pytest.raises(ZeroDivisionError):
        poly_inverse_mod([-1, 1], [-1, 0, 1], ell)


# -- the pad of derive_instance --------------------------------------------------


@pytest.mark.parametrize(
    "p, k, want",
    [
        (3, (0, 1, 1), (1, True, True, True)),
        (3, (-2, 2, 2), (3, True, False, True)),
        (3, (-4, 3, 3), (3, True, False, True)),
        (5, (-2, 1, 1, 1, 1), (1, True, True, True)),
    ],
)
def test_check_does_not_depend_on_the_pad(p, k, want):
    for pad in (1, 2, 3):
        report = verify_sw_vanishing(derive_instance(KVector(p, k), l=1, pad=pad))
        got = (
            report.kernel_rank,
            report.kernel_contains_expected,
            report.kernel_spanned_by_expected,
            report.scalar_forced_zero,
        )
        assert got == want, pad
