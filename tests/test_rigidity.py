"""Verdict engine: classification, defect constraints, vanishing, enumeration."""

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from equispin.cyclo import CyclotomicNumber, half_angle_csc
from equispin.dataset import (
    FixedPointDataset,
    FixedSurface,
    IsolatedPoint,
    ManifoldInvariants,
    fermat_quartic,
    parse_dataset,
)
from equispin import cyclo, rigidity
from equispin.intlinalg import integer_kernel
from equispin.lefschetz import (
    KVector,
    SpinNumberTuple,
    k_vector,
    spin_index,
    spin_number,
    spin_number_tuple,
    synthesize_spins,
)
from equispin.repring import (
    InstanceParameters,
    RepRingElement,
    _constraint_rows,
    adams_constraint_residual,
)
from equispin.rigidity import (
    CONSTRAINT_VIOLATION,
    CONTRADICTION,
    NO_OBSTRUCTION,
    SIGN_NEGATIVE,
    SIGN_POSITIVE,
    SIGN_UNKNOWN,
    SpinClass,
    check_k_constraints,
    classify_spin,
    derive_instance,
    enumerate_pseudofree_p3,
    lift_sweep,
    verdict,
    verdict_report,
    verify_sw_vanishing,
)

from conftest import engineered_trivial_datasets, random_dataset
from oracles import annihilates, candidate_vector, classify_value

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from corpus import generate  # noqa: E402

K3 = ManifoldInvariants.k3()
PRIMES_TO_31 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _m15(p: int) -> FixedPointDataset:
    """16 points (1, 1, +1) and 32 points (1, 2, +1): integral defects at every p >= 5."""
    return FixedPointDataset(p, K3, 3, True, isolated=(IsolatedPoint(1, 1, 1),) * 16 + (IsolatedPoint(1, 2, 1),) * 32)


def _spin_class(*k: int) -> SpinClass:
    return classify_spin(synthesize_spins(KVector(len(k), k)))


class TestClassifySpin:
    def test_positive(self):
        cls = _spin_class(2, 0, 0)
        assert cls.rational and cls.sign == SIGN_POSITIVE and cls.value == 2

    def test_negative(self):
        cls = _spin_class(-10, 6, 6)
        assert cls.rational and cls.sign == SIGN_NEGATIVE and cls.value == -16

    def test_irrational(self):
        # csc(pi/5) csc(2 pi/5) = 4/sqrt(5) = (4/5)(1 + 2 nu + 2 nu^4)
        spins = SpinNumberTuple(5, (Fraction(4, 5), Fraction(8, 5), 0, 0, Fraction(8, 5)))
        cls = classify_spin(spins)
        assert not cls.rational and cls.sign == SIGN_UNKNOWN
        assert cls.estimate is not None and cls.estimate.startswith("1.78885")
        assert cls == classify_value(half_angle_csc(1, 5) * half_angle_csc(2, 5))

    def test_rejects_non_real(self):
        with pytest.raises(ValueError, match="real"):
            classify_value(CyclotomicNumber.zeta(3))


class TestKConstraints:
    POSITIVE = _spin_class(2, 0, 0)
    NEGATIVE = _spin_class(0, 1, 1)

    def test_trivial_pattern_clean(self):
        assert check_k_constraints(KVector(3, (2, 0, 0)), self.POSITIVE, 3) == []

    def test_bound_violation(self):
        reasons = check_k_constraints(KVector(3, (-10, 6, 6)), self.NEGATIVE, 3)
        assert any(r.anchor == "defect-bound" and "k_1 = 6" in r.detail for r in reasons)

    def test_negative_pattern_clean(self):
        assert check_k_constraints(KVector(3, (0, 1, 1)), self.NEGATIVE, 3) == []

    def test_positive_pattern_enforced(self):
        reasons = check_k_constraints(KVector(3, (0, 1, 1)), self.POSITIVE, 3)
        assert any(r.anchor == "nonnegative-spin-pattern" for r in reasons)

    def test_zero_excluded(self):
        zero = _spin_class(1, 1, 1)
        reasons = check_k_constraints(KVector(3, (2, 0, 0)), zero, 3)
        assert any(r.anchor == "spin-zero-excluded" for r in reasons)

    def test_other_quotient_rank_skipped(self):
        assert check_k_constraints(KVector(3, (-10, 6, 6)), self.NEGATIVE, 1) == []

    def test_pattern_exclusivity(self):
        # a violation-free vector matches exactly one sign regime
        for k in ((2, 0, 0), (0, 1, 1), (-2, 2, 2)):
            kv = KVector(3, k)
            clean_pos = check_k_constraints(kv, self.POSITIVE, 3) == []
            clean_neg = check_k_constraints(kv, self.NEGATIVE, 3) == []
            assert clean_pos != clean_neg


NON_REAL = SpinClass(rational=False, value=None, sign=SIGN_UNKNOWN)


def _real_shifts(sweep) -> list[int]:
    """The shifts whose first-twist value is real: the classified entries of a sweep."""
    return [q for q, _, cls in sweep if cls != NON_REAL]


class TestRealShifts:
    # two real shifts q1 != q2 make k symmetric about both centres, hence invariant
    # under translation by 2 (q2 - q1), a unit mod p: k is then constant

    def test_zero_one_or_p_real_shifts(self):
        rng = random.Random(131)
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            vectors = [[rng.randint(-3, 3) for _ in range(p)] for _ in range(6)]
            vectors += [[c] * p for c in (-1, 0, 2)]
            for centre in range(p):
                base = [rng.randint(-3, 3) for _ in range(p)]
                vectors.append([base[min((i - centre) % p, (centre - i) % p)] for i in range(p)])
            for k in vectors:
                sweep = lift_sweep(KVector(p, k))
                real = _real_shifts(sweep)
                assert real == [
                    q for q in range(p) if all(k[(q + i) % p] == k[(q - i) % p] for i in range(p))
                ]
                assert len(real) in (0, 1, p), (p, k)
                assert (len(real) == p) == (len(set(k)) == 1), (p, k)
                assert all(type(shifted) is KVector for _, shifted, _ in sweep)

    def test_verdict_has_one_real_shift_at_zero(self):
        # a K3 defect vector sums to 2, so it is never constant at p >= 3
        rng = random.Random(137)
        integral = engineered_trivial_datasets() + [fermat_quartic()] + [_m15(p) for p in PRIMES_TO_31[1:]]
        corpus = integral + [random_dataset(rng, p=p) for p in (3, 3, 5) for _ in range(20)]
        seen = 0
        for d in corpus:
            v = verdict(d)
            if v.k is not None:
                seen += 1
                assert _real_shifts(lift_sweep(v.k)) == [0]
        assert seen >= len(integral)


class TestLiftSweep:
    def test_fermat_shifts(self):
        sweep = lift_sweep(fermat_quartic())
        shifts = {entry[1].k for entry in sweep}
        assert shifts == {(2, 0, 0), (0, 0, 2), (0, 2, 0)}

    def test_totals_invariant(self):
        sweep = lift_sweep(fermat_quartic())
        assert all(entry[1].total == 2 for entry in sweep)

    def test_zero_shift_classifies_original(self):
        sweep = lift_sweep(fermat_quartic())
        q0 = next(entry for entry in sweep if entry[0] == 0)
        assert q0[2].sign == SIGN_POSITIVE and q0[2].value == 2

    @pytest.mark.parametrize("bits", [20, 200])
    def test_zero_shift_estimate_at_the_verdict_precision(self, bits):
        # 48 points at p = 5, integral defects (-6, -6, 10, 10, -6), irrational spin number
        v = verdict(_m15(5), bits)
        assert v.k.k == (-6, -6, 10, 10, -6) and not v.spin.rational
        assert lift_sweep(v.k, bits)[0][2] == v.spin
        report = verdict_report(v)
        assert report["lift_sweep"][0]["spin"] == report["spin"]


# a free order-3 action on a spin manifold with b+ = 9, signature -48, Euler number 68:
# no fixed point, so every defect is the index 6 over 3 and every shift is real
FREE_P3 = FixedPointDataset(3, ManifoldInvariants(0, 9, -48, 68, True), 3, False)


def _oracle_sweep(v, bits: int) -> list[dict] | None:
    """The report's ``lift_sweep`` section, built by the general sweep of ``v.k``."""
    if v.k is None:
        return None
    return [{"q": q, "k": list(kv.k), "spin": rigidity.spin_class_dict(cls)} for q, kv, cls in lift_sweep(v.k, bits)]


def _fixtures() -> list[FixedPointDataset]:
    """The golden datasets, every Nikulin sign choice and every non-symplectic quartic sign choice."""
    from test_cli_golden import DATASETS
    from test_nikulin import TYPES, _nikulin

    nikulin = [_nikulin(p, signs) for p, types in TYPES.items()
               for signs in itertools.product((1, -1), repeat=len(types))]
    quartics = [_nonsymplectic_quartic(a, b) for a in (1, -1) for b in (1, -1)]
    return list(DATASETS.values()) + nikulin + quartics


def _corpora(root: Path) -> list[FixedPointDataset]:
    """Every dataset of the seed-0 verdict-p3 and verdict-large-p corpora."""
    return [
        parse_dataset(Path(op["argv"][1]).read_bytes())
        for workload in ("verdict-p3", "verdict-large-p")
        for op in generate(workload, 0, root / workload)
    ]


class TestReportSweep:
    """The report writes the sweep from k and the verdict's class; the general sweep is its oracle."""

    def _check(self, datasets, bits=80) -> int:
        integral = 0
        for d in datasets:
            v = verdict(d, bits)
            assert verdict_report(v)["lift_sweep"] == _oracle_sweep(v, bits), d
            integral += v.k is not None
        return integral

    @pytest.mark.parametrize("bits", [20, 80])
    def test_fixtures(self, bits):
        assert self._check(_fixtures(), bits) > 0

    def test_benchmark_corpora(self, tmp_path):
        assert self._check(_corpora(tmp_path)) > 0

    def test_48_points_at_every_prime_to_31(self):
        assert self._check([_m15(p) for p in PRIMES_TO_31[1:]]) == len(PRIMES_TO_31) - 1

    def test_free_action_has_every_shift_real(self):
        v = verdict(FREE_P3)
        assert v.k.k == (2, 2, 2)
        assert _real_shifts(lift_sweep(v.k)) == [0, 1, 2]
        assert self._check([FREE_P3]) == 1

    def test_one_estimate_per_verdict(self, monkeypatch, tmp_path):
        calls = []
        estimate = rigidity.numeric_estimate

        def counted(coordinates, bits=80):
            calls.append(bits)
            return estimate(coordinates, bits)

        monkeypatch.setattr(rigidity, "numeric_estimate", counted)
        irrational = 0
        for d in [_m15(p) for p in PRIMES_TO_31[1:]] + _corpora(tmp_path):
            calls.clear()
            v = verdict(d)
            verdict_report(v)
            assert len(calls) == (0 if v.spin.rational else 1), d
            irrational += not v.spin.rational
        assert irrational >= len(PRIMES_TO_31) - 1


class TestVerifyProp41:
    def test_acceptance_instance(self):
        params = InstanceParameters(p=3, m_vector=(2, 2, 2), n_vector=(2, 1, 1), l=1, d=0)
        report = verify_sw_vanishing(params)
        assert report.hypotheses_met
        assert report.kernel_rank == 1
        assert report.kernel_spanned_by_expected
        assert report.scalar_forced_zero
        assert report.sw_value == 0

    def test_invariant_violation(self):
        with pytest.raises(ValueError):
            InstanceParameters(p=3, m_vector=(2, 2, 2), n_vector=(1, 1, 1), l=1, d=0)

    def test_trivial_pattern_not_covered(self):
        report = verify_sw_vanishing(derive_instance(KVector(3, (2, 0, 0))))
        assert not report.hypotheses_met
        assert "no conclusion" in report.detail

    def test_second_negative_regime(self):
        report = verify_sw_vanishing(derive_instance(KVector(3, (-2, 2, 2))))
        assert report.hypotheses_met
        assert report.kernel_contains_expected
        assert report.scalar_forced_zero and report.sw_value == 0

    def test_derive_instance_bookkeeping(self):
        params = derive_instance(KVector(3, (0, 1, 1)))
        assert params.k_vector == (0, 1, 1)
        assert params.l + sum(params.n_vector) == sum(params.m_vector) - 1


def _element(p: int, vector: list[int]) -> RepRingElement:
    """The element with coordinate ``vector[i*p + j]`` at ``t^i xi^j``."""
    return RepRingElement(p, {divmod(r, p): v for r, v in enumerate(vector) if v})


class TestCandidateMembership:
    # Adams dimension (p * truncation total) 9 to 45; the last two are the
    # dimension-36 and dimension-45 instances of the benchmark's probes
    INSTANCES = (
        InstanceParameters(p=3, m_vector=(2, 2, 2), n_vector=(2, 1, 1), l=1),
        InstanceParameters(p=3, m_vector=(1, 3, 3), n_vector=(3, 1, 1), l=1),
        InstanceParameters(p=3, m_vector=(2, 1, 1), n_vector=(0, 1, 1), l=0, d=1),
        InstanceParameters(p=5, m_vector=(1, 1, 1, 1, 1), n_vector=(2, 0, 0, 0, 0), l=1, d=1),
        InstanceParameters(p=3, m_vector=(4, 4, 4), n_vector=(4, 3, 3), l=1),
        InstanceParameters(p=5, m_vector=(1, 2, 2, 2, 2), n_vector=(3, 1, 1, 1, 1), l=1),
    )

    def test_candidate_vector_is_sigma_times_power(self):
        for p in (3, 5, 7):
            one_minus_t = RepRingElement.one(p) - RepRingElement.t(p)
            for total in range(1, 9):
                want = RepRingElement.sigma(p) * one_minus_t ** (total - 1)
                assert _element(p, candidate_vector(p, total)) == want, (p, total)

    def test_matrix_membership_matches_residual(self):
        rng = random.Random(113)
        for params in self.INSTANCES:
            p, total = params.p, params.truncation().total
            expected = candidate_vector(p, total)
            for q in (2, 3):
                rows = _constraint_rows(params, (q,))
                kernel = integer_kernel(rows)
                probes = [expected, [0] * len(expected)] + kernel[:3]
                probes.append([sum(rng.randint(-2, 2) * v[r] for v in kernel) for r in range(len(expected))])
                probes += [[rng.randint(-2, 2) for _ in expected] for _ in range(2)]
                for vec in probes:
                    want = adams_constraint_residual(_element(p, vec), params, q).is_zero()
                    assert annihilates(rows, vec) == want, (params, q, vec)
                assert annihilates(rows, expected)

    def test_perturbed_candidate_is_rejected(self):
        for params in self.INSTANCES:
            p, total = params.p, params.truncation().total
            rows = _constraint_rows(params, (2,))
            for r in (0, p * total // 2, p * total - 1):
                vec = candidate_vector(p, total)
                vec[r] += 1
                assert not annihilates(rows, vec), (params, r)
                assert not adams_constraint_residual(_element(p, vec), params, 2).is_zero()


class TestVanishingCache:
    @staticmethod
    def _count_kernels(monkeypatch) -> list[int]:
        """Record the Adams dimension of every rank computation the check runs."""
        calls = []
        rank = rigidity.adams_kernel_rank

        def counted(params, q, probe):
            calls.append(params.p * params.truncation().total)
            return rank(params, q, probe)

        monkeypatch.setattr(rigidity, "adams_kernel_rank", counted)
        return calls

    def test_shared_defect_vector_runs_kernel_once(self, monkeypatch):
        negative_one = engineered_trivial_datasets()[1]
        datasets = (
            negative_one,
            negative_one._replace(isolated=negative_one.isolated[::-1]),
            negative_one._replace(surfaces=negative_one.surfaces[::-1]),
        )
        calls = self._count_kernels(monkeypatch)
        verdicts = [verdict(d) for d in datasets]
        assert calls == [15]
        assert all(v.outcome == CONTRADICTION and v.k.k == (0, 1, 1) for v in verdicts)
        assert all(v.vanishing is verdicts[0].vanishing for v in verdicts)

    def test_direct_call_is_not_cached(self, monkeypatch):
        params = InstanceParameters(p=3, m_vector=(2, 2, 2), n_vector=(2, 1, 1), l=1)
        calls = self._count_kernels(monkeypatch)
        assert verify_sw_vanishing(params) == verify_sw_vanishing(params)
        assert calls == [18, 18]

    def test_report_same_with_cache_warm_and_cleared(self):
        rng = random.Random(127)
        datasets = engineered_trivial_datasets() + [
            random_dataset(rng, p=3, trivial=True) for _ in range(20)
        ]
        warm = [verdict_report(verdict(d)) for d in datasets]
        assert [verdict_report(verdict(d)) for d in datasets] == warm
        assert rigidity._vanishing_once.cache_info().currsize == 2
        rigidity._vanishing_once.cache_clear()
        assert [verdict_report(verdict(d)) for d in datasets] == warm


class TestEnumeration:
    def test_quotient_rank_three(self):
        assert enumerate_pseudofree_p3(3, False, K3) == [(0, 12), (3, 6), (6, 0)]

    def test_quotient_rank_one(self):
        assert enumerate_pseudofree_p3(1, False, K3) == [(0, 3)]

    def test_trivial_is_empty(self):
        assert enumerate_pseudofree_p3(3, True, K3) == []

    def test_congruence_always_holds(self):
        for qb in (1, 3):
            for f1, f2 in enumerate_pseudofree_p3(qb, False, K3):
                assert (f1 - f2) % 9 == 6

    def test_outputs_satisfy_quotient_integrality(self):
        # independent oracle: rebuild the orbit invariants from each pair
        for qb in (1, 3):
            for f1, f2 in enumerate_pseudofree_p3(qb, False, K3):
                sigma_q = Fraction(-16 + Fraction(2, 3) * (f1 - f2), 3)
                euler_q = Fraction(24 + 2 * (f1 + f2), 3)
                assert sigma_q.denominator == 1
                assert euler_q.denominator == 1
                b_plus = Fraction(euler_q - 2 + sigma_q, 2)
                assert b_plus == qb

    def test_unsupported_quotient(self):
        with pytest.raises(ValueError, match="unsupported"):
            enumerate_pseudofree_p3(2, False, K3)

    def test_requires_k3(self):
        other = ManifoldInvariants(0, 3, 0, 8, True)
        with pytest.raises(ValueError):
            enumerate_pseudofree_p3(3, False, other)


class TestVerdict:
    def test_fermat_no_obstruction(self):
        v = verdict(fermat_quartic())
        assert v.outcome == NO_OBSTRUCTION
        assert v.spin.value == 2
        assert v.k.k == (2, 0, 0)
        assert any(n.anchor == "nontrivial-action" for n in v.notes)

    def test_trivial_pseudofree_six_zero(self):
        d = FixedPointDataset(
            3, K3, 3, True, isolated=tuple(IsolatedPoint(1, 2, -1) for _ in range(6))
        )
        v = verdict(d)
        assert v.outcome == CONSTRAINT_VIOLATION
        assert any(r.anchor == "quotient-signature-trivial" for r in v.reasons)

    def test_engineered_negative_spin_contradiction(self):
        balanced, negative_one, negative_four = engineered_trivial_datasets()

        v = verdict(negative_one)
        assert v.outcome == CONTRADICTION
        assert [r.anchor for r in v.reasons] == ["sw-vanishing", "sw-parity"]
        assert v.spin.value == -1 and v.k.k == (0, 1, 1)
        assert v.vanishing.sw_value == 0

        v4 = verdict(negative_four)
        assert v4.outcome == CONTRADICTION
        assert v4.k.k == (-2, 2, 2)

    def test_engineered_balanced_contradiction(self):
        balanced = engineered_trivial_datasets()[0]
        v = verdict(balanced)
        assert v.outcome == CONTRADICTION
        assert [r.anchor for r in v.reasons] == ["positive-vs-nonpositive-spin"]
        assert v.spin.value == 2

    def test_contradiction_only_when_trivial(self):
        rng = random.Random(83)
        for _ in range(60):
            d = random_dataset(rng, p=3, trivial=False)
            assert verdict(d).outcome != CONTRADICTION

    def test_report_shape(self):
        report = verdict_report(verdict(fermat_quartic()))
        assert report["outcome"] == NO_OBSTRUCTION
        assert report["k_vector"] == [2, 0, 0]
        assert report["quotient"]["sigma"] == "-4"
        assert report["quotient"]["euler"] == "12"
        assert report["quotient"]["b_minus"] == "7"
        assert isinstance(report["reasons"], list)

    def test_non_integral_quotient_flagged(self):
        # one sphere on K3: both orbit invariants leave the integers
        d = FixedPointDataset(
            3, K3, 3, False, surfaces=(FixedSurface(-2, 0, 1, 1),)
        )
        v = verdict(d)
        assert v.outcome == CONSTRAINT_VIOLATION
        anchors = {r.anchor for r in v.reasons}
        assert "quotient-signature-integrality" in anchors
        assert "quotient-euler-integrality" in anchors

    def test_trivial_small_corpus_never_clean(self):
        rng = random.Random(89)
        for kind in ("isolated", "surfaces", "mixed"):
            for _ in range(25):
                d = random_dataset(rng, p=3, trivial=True, kind=kind)
                assert verdict(d).outcome in (CONSTRAINT_VIOLATION, CONTRADICTION)

    def test_irrational_spin_noted(self):
        rng = random.Random(97)
        seen = 0
        for _ in range(40):
            d = random_dataset(rng, p=5)
            v = verdict(d)
            if not v.spin.rational:
                seen += 1
                assert any(n.anchor == "rationality-hypothesis" for n in v.notes)
                assert v.outcome != CONTRADICTION
        assert seen > 0


# three Galois orbits of isolated points at p = 7, each of spin number -4 (total -12)
P7_ORBIT_POINTS = (
    (5, 2, 1), (5, 2, 1), (4, 3, 1), (4, 3, 1), (3, 4, 1), (5, 2, 1),
    (6, 1, 1), (1, 6, 1), (1, 6, 1), (6, 1, 1), (2, 5, 1), (6, 1, 1),
    (1, 6, 1), (3, 4, 1), (2, 5, 1), (3, 4, 1), (4, 3, 1), (2, 5, 1),
)


def _nonsymplectic_quartic(eps_point: int, eps_surface: int) -> FixedPointDataset:
    """The order-3 non-symplectic quartic x0^3 x1 + f4(x1, x2, x3) = 0, one spin-sign choice.

    The action multiplies x0 by a cube root of unity.  Its fixed set is the
    point (1:0:0:0) and the plane quartic curve x0 = 0 (genus 3, <F,F> = 4).
    """
    return FixedPointDataset(
        3,
        K3,
        1,
        False,
        isolated=(IsolatedPoint(2, 2, eps_point),),
        surfaces=(FixedSurface(4, 3, 1, eps_surface),),
    )


class TestNonSymplecticQuartic:
    @pytest.mark.parametrize(
        "eps_point, eps_surface, defect",
        [(1, 1, "8/9"), (-1, 1, "4/3"), (-1, -1, "4/9")],
    )
    def test_three_sign_choices_have_non_integral_defects(self, eps_point, eps_surface, defect):
        v = verdict(_nonsymplectic_quartic(eps_point, eps_surface))
        assert v.outcome == CONSTRAINT_VIOLATION
        assert [r.anchor for r in v.reasons] == ["defect-integrality"]
        assert v.reasons[0].detail.endswith(f"defect 0 is not an integer: {defect}")
        assert v.k is None and v.vanishing is None

    def test_one_sign_choice_has_no_obstruction(self):
        v = verdict(_nonsymplectic_quartic(1, -1))
        assert v.outcome == NO_OBSTRUCTION
        assert v.spin.rational and v.spin.value == -1 and v.spin.sign == SIGN_NEGATIVE
        assert v.k.k == (0, 1, 1)
        q = v.quotient
        assert (q["sigma"], q["euler"], q["b_plus"], q["b_minus"]) == (-2, 6, 1, 3)
        assert q["integral"]
        assert not any(r.anchor.startswith("sw-") for r in v.reasons + v.notes)
        report = verdict_report(v)
        assert report["reasons"] == [] and report["prop41"] is None
        assert [n["anchor"] for n in report["notes"]] == ["nontrivial-action"]


class TestDefectFirstClassification:
    def test_first_spin_class_matches_value_class(self):
        # every power, against the classification of the value in the field
        rng = random.Random(103)
        for p in (3, 5, 7):
            for _ in range(15):
                d = random_dataset(rng, p=p)
                spins = spin_number_tuple(d)
                index = CyclotomicNumber.from_rational(spin_index(d.manifold))
                assert classify_spin(spins, 0, 64) == classify_value(index, 64)
                assert classify_spin(spins, p, 64) == classify_value(index, 64)
                for j in range(1, p):
                    assert classify_spin(spins, j, 64) == classify_value(spin_number(d, j), 64), j

    def test_sweep_matches_multiplied_rotations(self):
        rng = random.Random(107)
        for p in (3, 5, 7):
            nu = CyclotomicNumber.zeta(p)
            for shape in ("random", "symmetric", "flat-tail") * 6:
                k = [rng.randint(-4, 4) for _ in range(p)]
                if shape == "symmetric":
                    k = [k[min(i, p - i)] for i in range(p)]
                elif shape == "flat-tail":
                    k = [k[0]] + [k[1]] * (p - 1)
                for q, shifted, cls in lift_sweep(KVector(p, tuple(k))):
                    value = CyclotomicNumber.from_rational(0, p)
                    for i, ki in enumerate(shifted.k):
                        value = value + ki * nu**i
                    if value.is_real():
                        assert cls == classify_value(value), (k, q)
                    else:
                        assert cls == SpinClass(rational=False, value=None, sign=SIGN_UNKNOWN)

    def test_verdict_needs_no_field_multiplication(self, monkeypatch, tmp_path):
        # every command of the golden table prints the same bytes with the field
        # arithmetic switched off, then with no field element built at all, and
        # every verdict with no lift sweep and no shifted defect vector; only the
        # oracles in the tests use them
        from test_cli_golden import GOLDEN, INVOCATIONS, _digest, _write_inputs

        def refuse(*args, **kwargs):
            raise AssertionError("field arithmetic on a command-line path")

        _write_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
                     "inverse", "reduced", "galois", "embed", "is_real"):
            monkeypatch.setattr(CyclotomicNumber, name, refuse)
        for name in ("_reduce_coeffs", "_power_table", "cyclotomic_polynomial"):
            monkeypatch.setattr(cyclo, name, refuse)
        assert {key: _digest(argv) for key, argv in INVOCATIONS.items()} == GOLDEN
        monkeypatch.setattr(CyclotomicNumber, "__init__", refuse)
        assert {key: _digest(argv) for key, argv in INVOCATIONS.items()} == GOLDEN
        monkeypatch.setattr(rigidity, "lift_sweep", refuse)
        monkeypatch.setattr(KVector, "shifted", refuse)
        verdicts = {key: argv for key, argv in INVOCATIONS.items() if argv[0] == "verdict"}
        assert {key: _digest(argv) for key, argv in verdicts.items()} == {key: GOLDEN[key] for key in verdicts}
