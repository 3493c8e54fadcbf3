"""Exact equivariant index invariants for odd-prime cyclic actions on spin 4-manifolds.

The package computes, in exact arithmetic throughout: eigenspace-defect
vectors of a cyclic action as sums of per-component rational tables of its
fixed-point data, the spin numbers of all powers synthesized from them,
orbit-space signature and Euler characteristic for order 3, Adams-operation
constraints in truncated representation rings, and a verdict pipeline that
mechanizes the rigidity obstruction for homologically trivial actions on
homotopy K3 surfaces.
"""

from .cyclo import (
    CyclotomicNumber,
    IntPolynomial,
    cyclotomic_polynomial,
    half_angle_cos,
    half_angle_csc,
)
from .dataset import (
    ClassCounts,
    DatasetError,
    FixedPointDataset,
    FixedSurface,
    IsolatedPoint,
    ManifoldInvariants,
    class_counts,
    fermat_quartic,
    normalize_half_weights,
    parse_dataset,
    serialize_dataset,
    to_json,
)
from .lefschetz import (
    KVector,
    NonIntegralDefectError,
    SpinNumberTuple,
    k_vector,
    orbit_space_p3,
    spin_index,
    spin_number,
    spin_number_tuple,
    synthesize_spins,
)
from .repring import (
    InstanceParameters,
    RepRingElement,
    TruncationIdeal,
    normal_form,
    solve_adams_kernel,
)
from .rigidity import (
    VanishingReport,
    Reason,
    RigidityVerdict,
    SpinClass,
    check_k_constraints,
    classify_spin,
    enumerate_pseudofree_p3,
    lift_sweep,
    verdict,
    verify_sw_vanishing,
)

__version__ = "0.1.0"

__all__ = [
    "CyclotomicNumber",
    "IntPolynomial",
    "cyclotomic_polynomial",
    "half_angle_cos",
    "half_angle_csc",
    "ClassCounts",
    "DatasetError",
    "FixedPointDataset",
    "FixedSurface",
    "IsolatedPoint",
    "ManifoldInvariants",
    "class_counts",
    "fermat_quartic",
    "normalize_half_weights",
    "parse_dataset",
    "serialize_dataset",
    "to_json",
    "KVector",
    "NonIntegralDefectError",
    "SpinNumberTuple",
    "k_vector",
    "orbit_space_p3",
    "spin_index",
    "spin_number",
    "spin_number_tuple",
    "synthesize_spins",
    "InstanceParameters",
    "RepRingElement",
    "TruncationIdeal",
    "normal_form",
    "solve_adams_kernel",
    "VanishingReport",
    "Reason",
    "RigidityVerdict",
    "SpinClass",
    "check_k_constraints",
    "classify_spin",
    "enumerate_pseudofree_p3",
    "lift_sweep",
    "verdict",
    "verify_sw_vanishing",
]
