"""The exact Adams kernel rank by character blocks, against the Hermite kernel.

``adams_kernel_rank`` never forms the constraint matrix; ``integer_kernel`` on
``_constraint_rows`` is the oracle for its rank and for the membership and
span of the candidate generator.  The character rings it builds from
``(m, n)``, its rule for the trivial block and its residual layers are checked
against the layers built from ``normal_form`` in ``oracles``.  The certificate
that turns kernels modulo primes into a proven rank is driven here through its
two recovery paths.  The closed form of the rank in ``oracles`` is checked
against ``adams_kernel_rank`` on the benchmark pools and on random instances.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from equispin import intlinalg, repring
from equispin.intlinalg import (
    _echelon_mod,
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
    _character_ring,
    _constraint_rows,
    _fourier_prime,
    _fourier_primes,
    _residual,
    _residual_layers,
    _root_of_unity,
    _trivial_block,
    adams_kernel_rank,
)
from equispin.rigidity import derive_instance, verify_sw_vanishing

from oracles import (
    annihilates,
    candidate_vector,
    character_ring,
    closed_form_rank,
    normal_form_layers,
    trivial_block,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from corpus import ADAMS_OVER_CAP, ADAMS_POOLS, generate  # noqa: E402

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


# the kernel ranks at q = 1, ..., 6
EXPONENT_CLASSES = [
    pytest.param(_params(3, (2, 2, 2), (2, 1, 1)), (18, 1, 13, 1, 1, 13), id="p3"),
    pytest.param(_params(5, (1, 2, 2, 2, 2), (3, 1, 1, 1, 1)), (45, 1, 1, 1, 37, 1), id="p5"),
]


@pytest.mark.parametrize("params, ranks", EXPONENT_CLASSES)
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
        # across many digits; the three vectors are packed together
        vectors = [
            [((seed * 7 + 3 * r * r) % 5 - 2) << (40 * seed) for r in range(len(rows[0]))] for seed in range(3)
        ]
        for x, residual in zip(vectors, _residual(params, q, layers, vectors)):
            flat = [c for layer in residual for c in layer]
            assert flat == [sum(a * b for a, b in zip(row, x)) for row in rows]


# -- the closed form of the rank, an oracle in tests only -------------------------


def test_closed_form_rank_on_benchmark_pools():
    instances = [_params(3, m, n) for pool in ADAMS_POOLS.values() for m, n in pool]
    assert len(instances) == 34
    for params in instances:
        assert closed_form_rank(params, 2) == _fast(params, 2)[0], params


@pytest.mark.parametrize("params, ranks", EXPONENT_CLASSES)
def test_closed_form_rank_on_every_exponent_class(params, ranks):
    got = [closed_form_rank(params, q) for q in range(1, 7)]
    assert got == [_fast(params, q)[0] for q in range(1, 7)] == list(ranks)


def _random_instance(rng: random.Random, p: int) -> InstanceParameters:
    """Dimensions ``m_i`` in 0..2, ``l`` in 0..2, ``d`` in {0, 1}, and ``n`` spread at random."""
    d, l = rng.choice((0, 1)), rng.randint(0, 2)
    while True:
        m = [rng.randint(0, 2) for _ in range(p)]
        m[0] = max(m[0], d)
        spare = sum(m) - 1 - d - l
        if spare >= 0:
            break
    n = [0] * p
    for _ in range(spare):
        n[rng.randrange(p)] += 1
    return _params(p, tuple(m), tuple(n), l=l, d=d)


def test_closed_form_rank_on_random_instances():
    rng = random.Random(16)
    cases = [(_random_instance(rng, p), q) for p in (3, 5, 7) for q in range(1, 10) for _ in range(9)]
    assert sum(q % params.p == 0 for params, q in cases) >= 27
    for params, q in cases:
        assert closed_form_rank(params, q) == _fast(params, q)[0], (params, q)


# -- the rings, the trivial block and the layers, against normal forms -----------

P5 = _params(5, (1, 2, 2, 2, 2), (3, 1, 1, 1, 1))
P7 = _params(7, (2, 1, 3, 1, 1, 1, 1), (2, 1, 0, 1, 1, 1, 1), l=2)

RING_CASES = (
    [pytest.param(case.values[0], (2,), id=case.id) for case in POOLS]
    + [
        pytest.param(params, (2, 3), id=f"membership-{i}")
        for i, params in enumerate(test_rigidity.TestCandidateMembership.INSTANCES)
    ]
    + [pytest.param(P5, range(1, 7), id="p5"), pytest.param(P7, range(1, 7), id="p7")]
)


@pytest.mark.parametrize("params, qs", RING_CASES)
def test_direct_rings_and_layers_match_normal_forms(params, qs):
    p = params.p
    for q in qs:
        layers = normal_form_layers(params, q)
        assert _residual_layers(params, q) == layers, q
        for index in (0, 1):
            ell = _fourier_prime(p, index)
            w = _root_of_unity(p, ell)
            for r in range(p):
                xi = pow(w, -r % p, ell)
                assert _character_ring(params, q, ell, xi) == character_ring(layers, ell, xi), (q, ell, r)


def trivial_block_cases(per_shape: int, seed: int = 0):
    """Random instances at p in {3, 5, 7}, l in {0, 1, 2}, d in {0, 1}, with every q <= 6 that p does not divide."""
    rng = random.Random(seed)
    for p in (3, 5, 7):
        for l in (0, 1, 2):
            for d in (0, 1):
                for _ in range(per_shape):
                    n_total = rng.randint(0, 4)
                    m, n = [0] * p, [0] * p
                    for _ in range(l + n_total + 1):
                        m[rng.randrange(p)] += 1
                    for _ in range(n_total):
                        n[rng.randrange(p)] += 1
                    m[0] += d
                    params = _params(p, tuple(m), tuple(n), l=l, d=d)
                    for q in range(1, 7):
                        if q % p:
                            yield params, q


def check_trivial_block(params, q, rng):
    total = params.truncation().total
    block = trivial_block(params, q, normal_form_layers(params, q))
    kernel = integer_kernel(block)
    candidate = candidate_vector(1, total)
    rank = _trivial_block(total, q, candidate)[0]
    assert rank == len(kernel)
    if q == 1:
        assert kernel == [[int(i == j) for j in range(total)] for i in range(total)]
    else:
        assert kernel == [candidate]
    bumped = list(candidate)
    bumped[rng.randrange(total)] += 1
    for probe in (candidate, [-3 * v for v in candidate], bumped, [0] * total, [rng.randint(-2, 2) for _ in candidate]):
        assert _trivial_block(total, q, probe) == (rank, annihilates(block, probe)), probe


def test_trivial_block_rule_matches_hermite_kernel():
    # a sample; trivial_block_cases(20) gives 1,800 cases
    rng = random.Random(1)
    for params, q in trivial_block_cases(2):
        check_trivial_block(params, q, rng)


def test_adams_sweep_builds_layers_only_to_certify(monkeypatch, tmp_path):
    built = []
    layers = repring._residual_layers

    def counted(params, q):
        built.append((params.m_vector, params.n_vector))
        return layers(params, q)

    def forbidden(rows):
        raise AssertionError("integer_kernel called")

    monkeypatch.setattr(repring, "_residual_layers", counted)
    monkeypatch.setattr(repring, "integer_kernel", forbidden)
    monkeypatch.setattr(intlinalg, "integer_kernel", forbidden)
    ranks = {}
    for op in generate("adams-sweep", 0, tmp_path):
        argv = op["argv"]
        m, n = (tuple(map(int, argv[argv.index(flag) + 1].split(","))) for flag in ("--m", "--n"))
        ranks[m, n] = verify_sw_vanishing(_params(3, m, n)).kernel_rank
    assert len(ranks) == 9
    assert built == [((0, 3, 6), (4, 0, 3))]
    assert {key for key, rank in ranks.items() if rank != 1} == {((0, 3, 6), (4, 0, 3))}
    assert ranks[(0, 3, 6), (4, 0, 3)] == 3


# -- the certificate --------------------------------------------------------------

PRIMES = [ell for ell, _ in zip(_fourier_primes(3), range(3))]


def _kernel_certificate(rows, primes):
    calls = []

    def residues(ell):
        calls.append(ell)
        return kernel_mod(rows, ell)

    def exact(vectors):
        return all(sum(a * b for a, b in zip(row, x)) == 0 for x in vectors for row in rows)

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


def test_kernel_mod_matches_reduced_echelon_form():
    # the kernel read off the reduced echelon form, one vector per free column
    ell = PRIMES[0]
    rng = random.Random(7)
    for nrows, ncols in ((1, 1), (3, 3), (4, 6), (6, 4), (9, 9)):
        for _ in range(20):
            rows = [[rng.randrange(3) for _ in range(ncols)] for _ in range(nrows)]
            if nrows > 1 and rng.random() < 0.5:  # force a dependent row
                rows[-1] = [u + 2 * v for u, v in zip(rows[0], rows[1])]
            pivots, reduced = _echelon_mod(rows, ell)
            want = []
            for f in (c for c in range(ncols) if c not in pivots):
                vec = [int(c == f) for c in range(ncols)]
                for col, row in zip(pivots, reduced):
                    vec[col] = -row[f] % ell
                want.append(vec)
            assert kernel_mod(rows, ell) == want, rows


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
