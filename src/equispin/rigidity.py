"""Constraint and verdict engine for homologically trivial cyclic actions.

A candidate fixed-point dataset is reduced once to its exact :class:`Facts`
(realness and twist symmetry of the spin numbers are checked on the way),
and every other necessary condition this toolkit knows is a pure rule on
them, in one of three ordered tables:

* ``VIOLATIONS``: integrality of the eigenspace-defect vector and the defect
  bounds, integrality of the orbit-space signature and Euler characteristic,
  and their rigidity under a homologically trivial action;
* ``CONTRADICTIONS``, run only when no violation fires: the vanishing theorem
  for the Seiberg-Witten integer of the trivial spin-c structure when the
  spin number is rational and negative, played against the parity fact that
  this integer is odd on a homotopy K3 surface (Morgan-Szabo);
* ``NOTES``: where the argument's hypotheses or readings are in doubt.

Outcomes: ``Contradiction`` (the rigidity argument completed against an
otherwise consistent dataset), ``ConstraintViolation`` (the dataset already
fails a necessary condition), ``NoObstruction``.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction

from .cyclo import IntPolynomial
from .dataset import ClassCounts, FixedPointDataset, ManifoldInvariants, class_counts
from .lefschetz import (
    KVector,
    NonIntegralDefectError,
    SpinNumberTuple,
    k_vector,
    orbit_space_p3,
    spin_number_tuple,
    synthesize_spins,
)
from .repring import InstanceParameters, adams_kernel_rank

CONTRADICTION = "Contradiction"
CONSTRAINT_VIOLATION = "ConstraintViolation"
NO_OBSTRUCTION = "NoObstruction"

SIGN_NEGATIVE = "negative"
SIGN_ZERO = "zero"
SIGN_POSITIVE = "positive"
SIGN_UNKNOWN = "unknown-irrational"


def numeric_estimate(coordinates, bits: int = 80) -> str:
    """Advisory floating estimate of a real value of ``Q(nu)``, ``nu = zeta_p``, as a string.

    ``coordinates`` are its p - 1 power-basis coordinates, as
    :meth:`~equispin.lefschetz.SpinNumberTuple.coordinates` gives them.  This
    is the only place the package leaves exact arithmetic; the result is for
    reports only and never feeds back into a decision.
    """
    import mpmath

    with mpmath.workprec(bits):
        acc = mpmath.mpf(0)
        n = len(coordinates) + 1
        for idx, c in enumerate(coordinates):
            if c:
                acc += mpmath.mpf(c.numerator) / c.denominator * mpmath.cos(2 * mpmath.pi * idx / n)
        return mpmath.nstr(acc, max(6, bits * 3 // 10))


class SpinClass(namedtuple("SpinClass", "rational value sign estimate", defaults=(None,))):
    """Exact rationality and sign classification of a spin number.

    ``value`` is the exact Fraction when rational; ``estimate`` is the
    advisory numeric string of an irrational value.
    """

    __slots__ = ()


# a first-twist value that is not real: nothing is known beyond its irrationality
_NON_REAL = SpinClass(rational=False, value=None, sign=SIGN_UNKNOWN)


def _rational_class(value: Fraction) -> SpinClass:
    sign = SIGN_ZERO if value == 0 else (SIGN_POSITIVE if value > 0 else SIGN_NEGATIVE)
    return SpinClass(rational=True, value=value, sign=sign)


def classify_spin(spins: SpinNumberTuple, j: int = 1, precision_bits: int = 80) -> SpinClass:
    """Classify ``Spin(j)`` by exact rationality and sign, read off the defect vector.

    ``Spin(0) = sum_i k_i``.  Every other ``Spin(j) = sum_i k_i nu^(i j)`` is a
    Galois conjugate of ``Spin(1)``, so it is rational exactly when ``k_1 =
    ... = k_(p-1)``, and its value is then ``k_0 - k_1``.  Only an irrational
    value's coordinates are read, for its advisory numeric estimate (sign
    ``unknown-irrational``); the exact pipeline never branches on it.
    """
    k = spins.defects
    if j % spins.p == 0:
        return _rational_class(sum(k))
    if all(v == k[1] for v in k[2:]):
        return _rational_class(k[0] - k[1])
    return SpinClass(
        rational=False,
        value=None,
        sign=SIGN_UNKNOWN,
        estimate=numeric_estimate(spins.coordinates(j), precision_bits),
    )


class Reason(namedtuple("Reason", "anchor detail")):
    """One checked inequality or equation, with the witnessed numbers."""

    __slots__ = ()


def check_k_constraints(kv: KVector, spin: SpinClass, quotient_b_plus: int) -> list[Reason]:
    """All defect-vector constraints violated by ``kv``; empty list when clean.

    Anchors ``defect-bound``, ``spin-zero-excluded``, ``nonnegative-spin-pattern``,
    ``negative-spin-pattern`` and ``defect-tail-sum``.  They assume the invariant part of the
    positive cone has rank 3 (``quotient_b_plus == 3``); with any other value none applies.
    """
    if quotient_b_plus != 3:
        return []
    p = kv.p
    out: list[Reason] = []
    for i, k in enumerate(kv.k):
        if k > 2:
            out.append(
                Reason(
                    "defect-bound",
                    f"k_{i} = {k} exceeds 2 (2-adic parity of the trace product "
                    "over all twists fails for any defect above 2)",
                )
            )
    if spin.sign == SIGN_ZERO:
        out.append(
            Reason(
                "spin-zero-excluded",
                "a zero spin number would force k_0 = 2/p, which is not an integer",
            )
        )
    if spin.rational and spin.sign == SIGN_POSITIVE:
        expected = (2,) + (0,) * (p - 1)
        if kv.k != expected:
            out.append(
                Reason(
                    "nonnegative-spin-pattern",
                    f"rational non-negative spin number forces defects {expected}, got {kv.k}",
                )
            )
    if spin.rational and spin.sign == SIGN_NEGATIVE:
        k0 = kv.k[0]
        tail = kv.k[1:]
        if k0 > 0:
            out.append(
                Reason(
                    "negative-spin-pattern",
                    f"rational negative spin number forces k_0 <= 0, got {k0}",
                )
            )
        if len(set(tail)) > 1:
            out.append(
                Reason(
                    "negative-spin-pattern",
                    f"rational negative spin number forces equal tail defects, got {tail}",
                )
            )
        elif tail and (2 - k0) % (p - 1) == 0 and tail[0] != (2 - k0) // (p - 1):
            out.append(
                Reason(
                    "negative-spin-pattern",
                    f"tail defects must equal (2 - k_0)/(p - 1) = {(2 - k0) // (p - 1)}, "
                    f"got {tail[0]}",
                )
            )
        head_sum = sum(kv.k[:-1])
        if head_sum != 2 - kv.k[-1] or head_sum < 0:
            out.append(
                Reason(
                    "defect-tail-sum",
                    f"k_0 + ... + k_(p-2) = {head_sum} must equal 2 - k_(p-1) "
                    f"= {2 - kv.k[-1]} and be non-negative",
                )
            )
    return out


def lift_sweep(
    source: FixedPointDataset | KVector, precision_bits: int = 80
) -> list[tuple[int, KVector, SpinClass]]:
    """Defect vectors and implied spin classes of all p alternative lifts.

    Multiplying the lift by a primitive p-th root of unity cyclically
    shifts the defects; each entry carries the shift, the shifted vector,
    and the classification of its implied first-twist value
    ``sum_i k_(q+i) nu^i``.  That value is real exactly when
    ``k_(q+i) = k_(q-i)`` for all i; a non-real one (the general case for a
    nonzero shift) is unclassifiable beyond irrationality.  A dataset is
    first reduced to its defect vector.  ``precision_bits`` sets the advisory
    estimates, as in :func:`classify_spin`.  The general sweep, for any
    integer vector; a verdict's report writes its entries from k (:func:`verdict_report`).
    """
    kv = source if isinstance(source, KVector) else k_vector(spin_number_tuple(source))
    p = kv.p
    out = []
    for q in range(p):
        shifted = kv.shifted(q)
        k = shifted.k
        if all(k[i] == k[p - i] for i in range(1, p)):
            cls = classify_spin(synthesize_spins(shifted), 1, precision_bits)
        else:
            cls = _NON_REAL
        out.append((q, shifted, cls))
    return out


def derive_instance(kv: KVector, l: int = 1, d: int = 0, pad: int = 1) -> InstanceParameters:
    """Minimal non-negative dimension vectors realizing a defect vector.

    ``m_i = max(k_i, 0) + pad`` and ``n_i = m_i - k_i``; the uniform pad
    keeps every dimension positive (the conclusion of the vanishing
    argument does not depend on the choice, only on the defects).
    """
    m = tuple(max(k, 0) + pad for k in kv.k)
    n = tuple(mi - ki for mi, ki in zip(m, kv.k))
    if kv.total != l + 1 + d:
        raise ValueError(
            f"defect vector sums to {kv.total}, incompatible with l = {l} and d = {d}"
        )
    return InstanceParameters(p=kv.p, m_vector=m, n_vector=n, l=l, d=d)


class VanishingReport(
    namedtuple(
        "VanishingReport",
        "hypotheses_met detail q kernel_rank kernel_contains_expected"
        " kernel_spanned_by_expected scalar_forced_zero sw_value",
        defaults=(None,) * 6,
    )
):
    """Outcome of the Adams-kernel verification for one parameter set.

    The fields after ``detail`` stay None when the hypotheses fail, and
    ``sw_value`` is None unless the scalar is forced to zero.
    """

    __slots__ = ()


def _scalar_constraint_poly(p: int, k_total: int, l: int) -> IntPolynomial:
    """Residual of the cofactor identity at the top Adams exponent, flat group variable.

    For the candidate ``a * sigma * (1-t)^(M-1)`` the cancelled identity at
    exponent ``q = p`` with the group variable sent to 1 reads
    ``a p (1 + t + ... + t^(p-1))^(sum k - 1) = a p^(l+1)``; the difference
    of the two sides is returned.  A nonzero polynomial forces ``a = 0``.
    """
    if k_total - 1 < 0:
        raise ValueError("defect total below 1; the cofactor identity degenerates")
    ones = IntPolynomial((1,) * p)
    return p * ones ** (k_total - 1) - IntPolynomial((p ** (l + 1),))


def verify_sw_vanishing(params: InstanceParameters, q: int = 2) -> VanishingReport:
    """Run the full vanishing verification on one parameter set.

    Steps: check the hypotheses (``k_0 <= l`` and equal tail defects); take
    the exact rank of the Adams kernel at exponent ``q`` character block by
    character block (:func:`~equispin.repring.adams_kernel_rank`), without
    the kernel lattice itself.  The trivial character's block is triangular
    in the basis ``(1-t)^a`` and is read off its diagonal; every other block
    is bounded modulo a prime, and a nonzero bound is certified by lifting
    its kernel to rationals and checking each vector exactly.  The predicted
    generator ``sigma (1-t)^(M-1)`` lives in the trivial character, so it
    lies in the kernel exactly when that block annihilates its
    ``t``-coefficients (the residual is linear and its normal form unique,
    so this is ``adams_constraint_residual(...).is_zero()``); it is
    primitive, so it spans the kernel exactly when it lies in it and the
    rank is 1.  Then run the top-exponent specialization that forces the
    remaining integer scalar to vanish, which pins the Seiberg-Witten integer
    of the trivial spin-c structure to 0.

    The Hermite basis of the kernel is still
    :func:`~equispin.repring.solve_adams_kernel`.
    """
    if q < 1:
        raise ValueError("Adams exponents must be positive integers")
    k = params.k_vector
    l = params.l
    if k[0] > l or len(set(k[1:])) > 1:
        return VanishingReport(
            hypotheses_met=False,
            detail=(
                f"hypotheses not met (need k_0 <= {l} and equal tail defects, "
                f"got {k}); no conclusion"
            ),
        )
    total = params.truncation().total
    # sigma (1-t)^(M-1) has coefficient (-1)^i C(M-1, i) at every t^i xi^j
    candidate = [(-1) ** i * math.comb(total - 1, i) for i in range(total)]
    rank, contains = adams_kernel_rank(params, q, candidate)
    # the candidate's coefficient at t^0 is 1, so it is primitive: it spans
    # the saturated kernel exactly when it lies in a kernel of rank 1
    spanned = rank == 1 and contains

    residual = _scalar_constraint_poly(params.p, sum(k), l)
    forced = not residual.is_zero()
    return VanishingReport(
        hypotheses_met=True,
        detail=(
            f"kernel rank {rank}; candidate generator "
            f"{'spans' if spanned else ('lies in' if contains else 'MISSES')} the kernel; "
            f"scalar {'forced to zero' if forced else 'not forced'} by the "
            "top-exponent specialization"
        ),
        q=q,
        kernel_rank=rank,
        kernel_contains_expected=contains,
        kernel_spanned_by_expected=spanned,
        scalar_forced_zero=forced,
        sw_value=0 if forced else None,
    )


def enumerate_pseudofree_p3(
    quotient_b_plus: int,
    homologically_trivial: bool,
    manifold: ManifoldInvariants,
) -> list[tuple[int, int]]:
    """All point-type counts ``(f1, f2)`` consistent with an order-3 pseudofree action.

    Brute force over the finite box ``0 <= f1, f2 <= 24`` (the Euler bound
    is generous), filtered by the linear relation
    ``4 f1 + 2 f2 = 9 quotient_b_plus - 3``, the mod-9 congruence
    ``f1 - f2 = 6 (mod 9)`` forced by integrality of the quotient
    signature, and, under homological triviality, the rigidity relation
    ``f1 - f2 = 3 sigma(X)``.
    """
    if not manifold.is_homotopy_k3:
        raise ValueError("the pseudofree enumeration is specific to homotopy K3 invariants")
    if quotient_b_plus not in (1, 3):
        raise ValueError("unsupported quotient b_plus (must be 1 or 3)")
    bound = 24
    target = 9 * quotient_b_plus - 3
    out = []
    for f1 in range(bound + 1):
        for f2 in range(bound + 1):
            if 4 * f1 + 2 * f2 != target:
                continue
            if (f1 - f2) % 9 != 6:
                continue
            if homologically_trivial and f1 - f2 != 3 * manifold.signature:
                continue
            out.append((f1, f2))
    return out


@functools.lru_cache(maxsize=None)
def _vanishing_once(params: InstanceParameters) -> VanishingReport:
    """:func:`verify_sw_vanishing` at ``q = 2``, run once per instance per process.

    The verdict path reaches few distinct instances (one per defect vector),
    and the report is immutable, so every later dataset reuses it.
    """
    return verify_sw_vanishing(params)


class Facts(
    namedtuple(
        "Facts",
        "p manifold trivial quotient_b_plus spin k defect_error"
        " fixed_euler surface_sum has_surfaces f1 f2 quotient",
    )
):
    """The exact aggregates that the verdict rules read, built from class counts alone.

    ``k`` is the defect vector, or None with :func:`k_vector`'s message in ``defect_error``.
    ``fixed_euler`` is chi(F) and ``surface_sum`` the sum of the F.F; ``f1``, ``f2`` and the
    :func:`orbit_space_p3` section ``quotient`` are None unless ``p == 3``.
    """

    __slots__ = ()

    @property
    def vanishing(self) -> VanishingReport | None:
        """The Adams-kernel check of the ``sw-*`` rules, once per defect vector; else None."""
        if self.trivial and self.spin.rational and self.spin.sign == SIGN_NEGATIVE:
            if self.k is not None and self.manifold.is_homotopy_k3:
                return _vanishing_once(derive_instance(self.k, l=(self.manifold.b_plus - 1) // 2))
        return None


def facts(counts: ClassCounts, spins: SpinNumberTuple, precision_bits: int = 80) -> Facts:
    """The :class:`Facts` of class counts whose spin numbers are ``spins``; no dataset is read."""
    try:
        kv, error = k_vector(spins), None
    except NonIntegralDefectError as exc:
        kv, error = None, str(exc)
    f1 = f2 = quotient = None
    if counts.p == 3:
        f1, f2 = counts.p3_types
        quotient = orbit_space_p3(counts)
    return Facts(
        p=counts.p, manifold=counts.manifold, trivial=counts.trivial,
        quotient_b_plus=counts.quotient_b_plus, spin=classify_spin(spins, 1, precision_bits),
        k=kv, defect_error=error, fixed_euler=counts.fixed_euler, surface_sum=counts.surface_sum,
        has_surfaces=counts.betti[2] > 0, f1=f1, f2=f2, quotient=quotient,
    )


# -- the verdict rules: each checks its hypotheses first, and yields nothing outside them


def defect_integrality(f: Facts) -> Iterator[Reason]:
    """``defect-integrality``; no hypotheses."""
    if f.k is None:
        yield Reason("defect-integrality",
                     f"Fourier inversion of the spin numbers is not integral: {f.defect_error}")


def defect_constraints(f: Facts) -> Iterator[Reason]:
    """:func:`check_k_constraints`; homotopy K3, integral defects."""
    if f.k is not None and f.manifold.is_homotopy_k3:
        yield from check_k_constraints(f.k, f.spin, f.quotient_b_plus)


def quotient_integrality(f: Facts) -> Iterator[Reason]:
    """``quotient-signature-integrality``, ``quotient-euler-integrality``; p = 3."""
    if f.p != 3:
        return
    sigma, euler = f.quotient["sigma"], f.quotient["euler"]
    if sigma.denominator != 1:
        yield Reason("quotient-signature-integrality", f"orbit-space signature {sigma} is not an "
                     "integer; no action with this fixed set exists")
    if euler.denominator != 1:
        yield Reason("quotient-euler-integrality",
                     f"orbit-space Euler characteristic {euler} is not an integer")


def trivial_action_p3(f: Facts) -> Iterator[Reason]:
    """``quotient-signature-trivial``, ``lefschetz-euler-trivial``; p = 3, trivial action.

    ``defect-bookkeeping`` as well, on a homotopy K3 with integral defects.
    """
    if f.p != 3 or not f.trivial:
        return
    sigma, euler, manifold = f.quotient["sigma"], f.quotient["euler"], f.manifold
    if sigma != manifold.signature:
        yield Reason("quotient-signature-trivial", "a homologically trivial action keeps the "
                     f"signature: orbit space gives {sigma}, manifold has {manifold.signature}")
    if euler != manifold.euler:
        yield Reason("lefschetz-euler-trivial", "a homologically trivial action forces the fixed "
                     f"set to have Euler characteristic {manifold.euler} (found {f.fixed_euler})")
    if f.k is not None and manifold.is_homotopy_k3:
        implied = 2 + Fraction(f.f1 - f.f2, 4)
        if implied != f.k.k[0]:
            yield Reason("defect-bookkeeping", "combined signature/index bookkeeping forces "
                         f"k_0 = 2 + (f1 - f2)/4 = {implied}, but the spin numbers give "
                         f"k_0 = {f.k.k[0]}")


def balanced_point_types(f: Facts) -> Iterator[Reason]:
    """``positive-vs-nonpositive-spin``; p = 3, trivial action, homotopy K3, integral defects."""
    if f.p == 3 and f.trivial and f.k is not None and f.manifold.is_homotopy_k3 and f.f1 == f.f2:
        yield Reason("positive-vs-nonpositive-spin", "balanced point types force k_0 = 2, hence "
                     "spin number 2; but with the type-determined signs the fixed set gives "
                     f"{Fraction(f.surface_sum, 6)} <= 0, and a spin number can never be 0")


def sw_vanishing_vs_parity(f: Facts) -> Iterator[Reason]:
    """``sw-vanishing``, ``sw-parity``; the hypotheses of :attr:`Facts.vanishing`."""
    vanishing = f.vanishing
    if vanishing is not None and vanishing.hypotheses_met and vanishing.scalar_forced_zero:
        yield Reason("sw-vanishing", "rational negative spin number forces the Seiberg-Witten "
                     "integer of the trivial spin-c structure to vanish "
                     f"(kernel rank {vanishing.kernel_rank}, scalar forced to zero)")
        yield Reason("sw-parity", "the Seiberg-Witten integer of the trivial spin-c structure "
                     "on a homotopy K3 surface is odd (Morgan-Szabo), so it cannot vanish")


def mixed_fixed_set(f: Facts) -> Iterator[Reason]:
    """``mixed-fixed-set-bookkeeping``; as ``defect-bookkeeping``, with a fixed surface."""
    if f.p == 3 and f.trivial and f.k is not None and f.manifold.is_homotopy_k3 and f.has_surfaces:
        yield Reason("mixed-fixed-set-bookkeeping", "the k_0 = 2 + (f1 - f2)/4 identity extends "
                     "the pseudofree bookkeeping to mixed fixed sets; it is applied as a "
                     "necessary condition, not re-derived independently")


def nontrivial_action(f: Facts) -> Iterator[Reason]:
    """``nontrivial-action``; p = 3, an action not flagged trivial, an integral orbit space."""
    if f.p == 3 and not f.trivial and f.quotient["integral"]:
        sigma, signature = f.quotient["sigma"], f.manifold.signature
        if sigma != signature:
            yield Reason("nontrivial-action", f"orbit-space signature {sigma} differs from "
                         f"{signature}, so the action is nontrivial on middle cohomology")


def rationality_hypothesis(f: Facts) -> Iterator[Reason]:
    """``rationality-hypothesis``; an irrational spin number."""
    if not f.spin.rational:
        yield Reason("rationality-hypothesis", "spin number is irrational; the rational-negative "
                     f"obstruction does not apply (advisory estimate {f.spin.estimate})")


def trace_schedule_ambiguity(f: Facts) -> Iterator[Reason]:
    """``trace-schedule-ambiguity``; p >= 5."""
    if f.p >= 5:
        yield Reason("trace-schedule-ambiguity", "the closed-form trace exponents admit two "
                     "readings for p >= 5; they agree on the product over all twists, which "
                     "is what the defect bound uses")


# the rule tables, each in report order
VIOLATIONS = (defect_integrality, defect_constraints, quotient_integrality, trivial_action_p3)
CONTRADICTIONS = (balanced_point_types, sw_vanishing_vs_parity)
NOTES = (mixed_fixed_set, nontrivial_action, rationality_hypothesis, trace_schedule_ambiguity)


class RigidityVerdict(
    namedtuple("RigidityVerdict", "outcome reasons notes spin spins k quotient vanishing")
):
    """Outcome of the full constraint pipeline with its reason chain.

    ``reasons`` and ``notes`` are tuples of :class:`Reason`; each field from
    ``spins`` on is None where the pipeline did not compute it.  The report
    writes the lift sweep from ``k`` and ``spin`` (:func:`verdict_report`).
    """

    __slots__ = ()


def verdict(dataset: FixedPointDataset, precision_bits: int = 80) -> RigidityVerdict:
    """The rule tables on a dataset's :class:`Facts`, ``CONTRADICTIONS`` only without a violation.

    ``Contradiction`` requires the homologically-trivial flag: it means the
    dataset is internally consistent but the two independent computations
    of the Seiberg-Witten integer (or of the spin number's sign) cannot be
    reconciled, which is the rigidity theorem in mechanized form.
    """
    counts = class_counts(dataset)
    spins = spin_number_tuple(counts)
    f = facts(counts, spins, precision_bits)
    outcome, vanishing = CONSTRAINT_VIOLATION, None
    reasons = tuple(reason for rule in VIOLATIONS for reason in rule(f))
    if not reasons:
        reasons = tuple(reason for rule in CONTRADICTIONS for reason in rule(f))
        outcome, vanishing = CONTRADICTION if reasons else NO_OBSTRUCTION, f.vanishing
    notes = tuple(reason for rule in NOTES for reason in rule(f))
    return RigidityVerdict(outcome, reasons, notes, f.spin, spins, f.k, f.quotient, vanishing)


# -- report serialization -----------------------------------------------------


def spin_class_dict(spin: SpinClass) -> dict:
    return {
        "rational": spin.rational,
        "value": str(spin.value) if spin.value is not None else None,
        "sign": spin.sign,
        "estimate": spin.estimate,
    }


def quotient_dict(quotient: dict) -> dict:
    """The ``quotient`` report section: :func:`orbit_space_p3` with its rationals as strings."""
    return {key: str(v) if isinstance(v, Fraction) else v for key, v in quotient.items()}


def vanishing_dict(report: VanishingReport) -> dict:
    """The ``prop41`` report section: every field of the report but the Adams exponent."""
    out = report._asdict()
    del out["q"]
    return out


def _sweep_dicts(kv: KVector, spin: SpinClass) -> list[dict]:
    """:func:`lift_sweep` of a real k whose Spin(1) has class ``spin``, as report entries.

    A real k is symmetric about 0, and a second centre would make it invariant under a
    translation that generates Z/p: its only real shift is q = 0, unless k is constant.
    """
    k = list(kv.k)
    constant = len(set(k)) == 1
    return [
        {"q": q, "k": k[q:] + k[:q], "spin": spin_class_dict(spin if constant or q == 0 else _NON_REAL)}
        for q in range(kv.p)
    ]


def verdict_report(v: RigidityVerdict) -> dict:
    """The machine-readable verdict report (JSON-compatible dict)."""
    return {
        "outcome": v.outcome,
        "spin": spin_class_dict(v.spin),
        "k_vector": list(v.k.k) if v.k is not None else None,
        "lift_sweep": _sweep_dicts(v.k, v.spin) if v.k is not None else None,
        "quotient": quotient_dict(v.quotient) if v.quotient else None,
        "prop41": vanishing_dict(v.vanishing) if v.vanishing else None,
        "reasons": [{"anchor": r.anchor, "detail": r.detail} for r in v.reasons],
        "notes": [{"anchor": r.anchor, "detail": r.detail} for r in v.notes],
    }
