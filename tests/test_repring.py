"""Representation-ring arithmetic, truncation, Adams kernels, trace values."""

import random
import time
from fractions import Fraction

import pytest

from equispin.cyclo import CyclotomicNumber
from equispin.repring import (
    InstanceParameters,
    RepRingElement,
    TruncationIdeal,
    _constraint_rows,
    adams_constraint_residual,
    extract_sw,
    normal_form,
    one_minus_t_xi,
    parity_obstruction,
    schedule_doubled,
    schedule_sequential,
    solve_adams_kernel,
    tom_dieck_product,
    tom_dieck_rhs,
)

from oracles import normal_form_constraint_rows

ONE = RepRingElement.one(3)
T = RepRingElement.t(3)
SIGMA = RepRingElement.sigma(3)


def random_element(rng, p=3, deg=5, terms=4, span=3):
    return RepRingElement(
        p,
        {
            (rng.randint(0, deg), rng.randint(0, p - 1)): rng.randint(-span, span)
            for _ in range(terms)
        },
    )


class TestRingArithmetic:
    def test_sigma_absorption(self):
        base = SIGMA * (ONE - T)
        for k in range(3):
            assert SIGMA * one_minus_t_xi(3, k) == base

    def test_multiplicative_identity(self):
        rng = random.Random(31)
        for _ in range(20):
            a = random_element(rng)
            assert a * ONE == a

    def test_difference_of_squares(self):
        assert (ONE - T) * (ONE + T) == ONE - T * T

    def test_group_order_mismatch(self):
        with pytest.raises(ValueError, match="order"):
            RepRingElement.one(3) + RepRingElement.one(5)

    def test_prop41_element_collapses(self):
        # sigma (1-t)^(m0-1) prod (1-t xi^i)^(m_i) == sigma (1-t)^(sum m - 1)
        for m in ((2, 2, 2), (1, 3, 2), (3, 0, 1)):
            lhs = SIGMA * (ONE - T) ** max(m[0] - 1, 0)
            for i in (1, 2):
                lhs = lhs * one_minus_t_xi(3, i) ** m[i]
            total = sum(m)
            assert lhs == SIGMA * (ONE - T) ** (total - 1)


class TestAdams:
    def test_basic_images(self):
        assert (ONE - T).adams(2) == ONE - T * T
        assert RepRingElement.monomial(3, 1, 1).adams(2) == RepRingElement.monomial(3, 2, 2)

    def test_homomorphism(self):
        rng = random.Random(37)
        for _ in range(40):
            a, b = random_element(rng), random_element(rng)
            for q in (1, 2, 3, 5):
                assert (a * b).adams(q) == a.adams(q) * b.adams(q)
                assert (a + b).adams(q) == a.adams(q) + b.adams(q)

    def test_identity(self):
        rng = random.Random(41)
        for _ in range(10):
            a = random_element(rng)
            assert a.adams(1) == a

    def test_wraparound_accumulates(self):
        # distinct group characters collapse under the p-th operation
        a = RepRingElement(3, {(1, 1): 1, (1, 2): 1})
        assert a.adams(3) == RepRingElement(3, {(3, 0): 2})


class TestNormalForm:
    IDEAL = TruncationIdeal(3, (2, 2, 2))

    def test_generator_reduces_to_zero(self):
        assert normal_form(self.IDEAL.generator, self.IDEAL).is_zero()

    def test_low_degree_unchanged(self):
        low = RepRingElement(3, {(3, 1): 5, (0, 0): -2})
        assert normal_form(low, self.IDEAL) == low

    def test_forced_t_equals_one(self):
        ideal = TruncationIdeal(3, (1, 0, 0))
        assert normal_form(T, ideal) == ONE

    def test_idempotent_and_additive(self):
        rng = random.Random(43)
        for _ in range(30):
            a = random_element(rng, deg=10)
            b = random_element(rng, deg=10)
            nf = lambda x: normal_form(x, self.IDEAL)
            assert nf(nf(a)) == nf(a)
            assert nf(a + b) == nf(nf(a) + nf(b))

    def test_multiples_of_generator_vanish(self):
        rng = random.Random(47)
        for _ in range(20):
            a = random_element(rng, deg=6)
            assert normal_form(a * self.IDEAL.generator, self.IDEAL).is_zero()

    def test_negative_powers(self):
        t_inverse = RepRingElement.monomial(3, -1, 0)
        nf = normal_form(t_inverse, self.IDEAL)
        assert nf.t_valuation() >= 0
        assert normal_form(nf * T, self.IDEAL) == ONE


class TestInstanceParameters:
    def test_bookkeeping_violation(self):
        with pytest.raises(ValueError, match="bookkeeping"):
            InstanceParameters(p=3, m_vector=(2, 2, 2), n_vector=(2, 2, 2), l=1, d=0)

    def test_k_vector(self):
        params = InstanceParameters(p=3, m_vector=(2, 2, 2), n_vector=(2, 1, 1), l=1, d=0)
        assert params.k_vector == (0, 1, 1)

    def test_nonzero_virtual_dimension_truncation(self):
        params = InstanceParameters(p=3, m_vector=(3, 2, 2), n_vector=(2, 1, 1), l=1, d=1)
        assert params.truncation().m_vector == (2, 2, 2)


class TestAdamsKernel:
    PARAMS = InstanceParameters(p=3, m_vector=(2, 2, 2), n_vector=(2, 1, 1), l=1, d=0)
    CANDIDATE = SIGMA * (ONE - T) ** 5

    def test_candidate_in_kernel(self):
        assert adams_constraint_residual(self.CANDIDATE, self.PARAMS, 2).is_zero()

    def test_zero_in_kernel(self):
        zero = RepRingElement.zero(3)
        assert adams_constraint_residual(zero, self.PARAMS, 2).is_zero()

    def test_kernel_rank_one_and_spanned(self):
        kernel = solve_adams_kernel(self.PARAMS, 2)
        assert len(kernel) == 1
        assert kernel[0] in (self.CANDIDATE, -self.CANDIDATE)

    def test_kernel_members_have_zero_residual(self):
        for params in (
            self.PARAMS,
            InstanceParameters(p=3, m_vector=(1, 2, 2), n_vector=(1, 1, 1), l=1, d=0),
            InstanceParameters(p=3, m_vector=(1, 3, 3), n_vector=(3, 1, 1), l=1, d=0),
        ):
            for q in (2, (2, 3)):
                for vec in solve_adams_kernel(params, q):
                    qs = (q,) if isinstance(q, int) else q
                    for single in qs:
                        assert adams_constraint_residual(vec, params, single).is_zero()

    def test_outside_span_maps_to_nonzero(self):
        kernel = solve_adams_kernel(self.PARAMS, 2)
        rng = random.Random(53)
        tried = 0
        while tried < 10:
            candidate = random_element(rng, deg=5, terms=5)
            candidate = normal_form(candidate, self.PARAMS.truncation())
            # skip (unlikely) members of the span
            if any(
                candidate == c * kernel[0]
                for c in range(-6, 7)
            ):
                continue
            tried += 1
            assert not adams_constraint_residual(candidate, self.PARAMS, 2).is_zero()

    def test_negative_regime_contains_candidate(self):
        # defects (-2, 2, 2): the kernel is larger but contains the collapsed form
        params = InstanceParameters(p=3, m_vector=(1, 3, 3), n_vector=(3, 1, 1), l=1, d=0)
        candidate = SIGMA * (ONE - T) ** 6
        assert adams_constraint_residual(candidate, params, 2).is_zero()
        kernel = solve_adams_kernel(params, 2)
        assert len(kernel) >= 1

    def test_invalid_adams_exponent(self):
        with pytest.raises(ValueError):
            solve_adams_kernel(self.PARAMS, 0)

    @pytest.mark.parametrize(
        "params",
        [
            PARAMS,
            InstanceParameters(p=3, m_vector=(1, 1, 0), n_vector=(0, 0, 0), l=1, d=0),
            InstanceParameters(p=3, m_vector=(3, 2, 2), n_vector=(2, 1, 1), l=1, d=1),
            InstanceParameters(p=3, m_vector=(1, 3, 3), n_vector=(3, 1, 1), l=1, d=0),
            InstanceParameters(p=5, m_vector=(3, 1, 1, 1, 1), n_vector=(2, 1, 1, 1, 1), l=0, d=0),
        ],
    )
    def test_matrix_by_linearity_matches_normal_form_build(self, params):
        for qs in ((1,), (2,), (3,), (2, 3)):
            assert _constraint_rows(params, qs) == normal_form_constraint_rows(params, qs)

    def test_dimension_133_within_three_seconds(self):
        # m = (1, 3, ..., 3): the unimodular column sweep ran past 30 s here
        params = InstanceParameters(p=7, m_vector=(1,) + (3,) * 6, n_vector=(11,) + (1,) * 6, l=1)
        started = time.perf_counter()
        kernel = solve_adams_kernel(params, 2)
        assert time.perf_counter() - started < 3.0
        assert len(kernel) == 13


class TestTomDieck:
    def test_defect_two_value(self):
        assert tom_dieck_rhs((3, 0, 0), (2, 0, 0), 1, 3) == 2

    def test_negative_regime_value(self):
        assert tom_dieck_rhs((3, 0, 0), (0, 1, 1), 1, 3) == 8

    def test_schedules_agree_for_p3(self):
        for j in (1, 2):
            for k in ((2, 0, 0), (0, 1, 1), (-2, 2, 2)):
                a = tom_dieck_rhs((3, 0, 0), k, j, 3, schedule_sequential)
                b = tom_dieck_rhs((3, 0, 0), k, j, 3, schedule_doubled)
                assert a == b

    def test_schedules_share_product_for_p5(self):
        t = (3, 0, 0, 0, 0)
        for k in ((2, 0, 0, 0, 0), (0, 1, 1, 1, 1), (-2, 1, 1, 1, 1)):
            pa = tom_dieck_product(t, k, 5, schedule_sequential)
            pb = tom_dieck_product(t, k, 5, schedule_doubled)
            assert pa == pb

    def test_product_value(self):
        # product over twists is 2^((p-1)(t0-k0)) exactly
        for p, k0 in ((3, 0), (3, 2), (5, 1), (7, -1)):
            t = (3,) + (0,) * (p - 1)
            k = (k0,) + (0,) * (p - 1)
            prod = tom_dieck_product(t, k, p).reduced()
            assert prod.to_rational() == Fraction(2) ** ((p - 1) * (3 - k0))

    def test_parity_flag(self):
        assert parity_obstruction((3, 0, 0), (3, 1, -2), 3)
        assert parity_obstruction((3, 0, 0, 0, 0), (4, 1, -1, -1, -1), 5)
        assert not parity_obstruction((3, 0, 0), (2, 0, 0), 3)
        assert not parity_obstruction((3, 0, 0), (0, 1, 1), 3)


class TestExtractSw:
    def test_multiple_of_top_power(self):
        # 3 T^3 for truncation T^4
        beta = 3 * (ONE - T) ** 3
        assert extract_sw(beta, 4, 0) == 3

    def test_zero(self):
        assert extract_sw(RepRingElement.zero(3), 4, 0) == 0

    def test_low_support_rejected(self):
        with pytest.raises(ValueError, match="support below"):
            extract_sw(ONE, 4, 0)

    def test_group_variable_must_be_flat(self):
        with pytest.raises(ValueError, match="group variable"):
            extract_sw(RepRingElement.xi(3), 4, 0)

    def test_forced_zero_scenario(self):
        # the vanishing argument produces the zero class; its invariant is 0
        assert extract_sw(0 * SIGMA.specialize_xi_one(), 6, 0) == 0

    def test_virtual_dimension_shift(self):
        beta = -2 * (ONE - T) ** 2
        assert extract_sw(beta, 4, 1) == -2
