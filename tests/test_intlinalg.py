"""The integer kernel: its Hermite basis against the unimodular-sweep oracle,
and kernel, rank and saturation checks at Adams dimensions the oracle cannot
reach in reasonable time."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equispin.intlinalg import integer_kernel
from equispin.repring import InstanceParameters, _constraint_rows

from oracles import hermite_form
from oracles import integer_kernel as sweep_kernel

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from corpus import ADAMS_POOLS  # noqa: E402

POOL_INSTANCES = [
    pytest.param(m, n, id=f"dim{dim}-m{''.join(map(str, m))}-n{''.join(map(str, n))}")
    for dim, pool in ADAMS_POOLS.items()
    if dim <= 30
    for m, n in pool
]

# (p, m, n) at l = 1: dimensions 36, 45, 54 and the p = 7 instance of dimension 133
LARGE_INSTANCES = [
    pytest.param(3, (4, 4, 4), (4, 3, 3), id="dim36"),
    pytest.param(5, (1, 2, 2, 2, 2), (3, 1, 1, 1, 1), id="dim45"),
    pytest.param(3, (6, 6, 6), (6, 5, 5), id="dim54"),
    pytest.param(7, (1,) + (3,) * 6, (11,) + (1,) * 6, id="dim133"),
]


def _rank_mod(rows, modulus=2**61 - 1):
    """Rank over the prime field GF(modulus), a lower bound for the rank over Q."""
    rows = [[v % modulus for v in r] for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        sel = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = pow(rows[rank][col], -1, modulus)
        head = [v * inv % modulus for v in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [(u - f * v) % modulus for u, v in zip(rows[i], head)]
        rank += 1
    return rank


def test_rejects_empty_and_ragged():
    with pytest.raises(ValueError):
        integer_kernel([])
    with pytest.raises(ValueError):
        integer_kernel([[1, 2], [3]])


def test_small_cases():
    assert integer_kernel([[0, 0, 0]]) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert integer_kernel([[1, 0], [0, 1]]) == []
    # saturation: (1, 1) solves 2x - 2y = 0, not only (2, 2)
    assert integer_kernel([[2, -2]]) == [[1, 1]]
    assert integer_kernel([[6, 10, 15]]) == [[5, 0, -2], [0, 3, -2]]


@pytest.mark.parametrize("m, n", POOL_INSTANCES)
def test_pool_instances_match_sweep_oracle(m, n):
    rows = _constraint_rows(InstanceParameters(p=3, m_vector=m, n_vector=n, l=1), (2,))
    assert integer_kernel(rows) == hermite_form(sweep_kernel(rows))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda ncols: st.lists(
            st.lists(st.integers(-6, 6) | st.just(0), min_size=ncols, max_size=ncols),
            min_size=1,
            max_size=5,
        )
    )
)
def test_random_matrices_match_sweep_oracle(rows):
    assert integer_kernel(rows) == hermite_form(sweep_kernel(rows))


@pytest.mark.parametrize("p, m, n", LARGE_INSTANCES)
def test_large_instances_kernel_rank_and_saturation(p, m, n):
    rows = _constraint_rows(InstanceParameters(p=p, m_vector=m, n_vector=n, l=1), (2,))
    kernel = integer_kernel(rows)
    assert kernel and all(
        sum(a * x for a, x in zip(row, vec)) == 0 for vec in kernel for row in rows
    )
    # a Hermite basis is its own form, so its vectors are independent; with the
    # bound rank_Q(A) >= rank_mod(A) the count below pins the rank over Q
    assert hermite_form(kernel) == kernel
    assert len(kernel) == len(rows[0]) - _rank_mod(rows)
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    assert set(invariant_factors(sympy.Matrix(kernel), domain=sympy.ZZ)) == {1}
