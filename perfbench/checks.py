"""Output checks for every benchmark operation.

Each check returns a list of problems; an empty list means the output is
accepted.  Verdict reports are checked against invariants that hold for
every valid homotopy-K3 dataset and against the independent trigonometric
oracle ``lefschetz.spin_number_from_angles`` for the first spin number.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from equispin.dataset import parse_dataset
from equispin.lefschetz import spin_number_from_angles

# -sigma/8 for the homotopy K3 surface: the eigenspace defects sum to it.
K3_DEFECT_TOTAL = 2


def _float_value(value) -> float:
    n = value.conductor
    return sum(float(c) * math.cos(2 * math.pi * i / n) for i, c in enumerate(value.coeffs))


def check_verdict(dataset_text: str, stdout: str) -> list[str]:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report does not parse: {exc}"]
    problems = []
    dataset = parse_dataset(dataset_text)
    k3 = dataset.manifold.is_homotopy_k3
    if k3 and dataset.homologically_trivial and report["outcome"] == "NoObstruction":
        problems.append("homologically trivial K3 dataset reported NoObstruction")
    kv = report["k_vector"]
    if kv is not None and k3 and sum(kv) != K3_DEFECT_TOTAL:
        problems.append(f"defect vector {kv} does not sum to {K3_DEFECT_TOTAL}")
    oracle = spin_number_from_angles(dataset)
    spin = report["spin"]
    if oracle.is_rational():
        if not spin["rational"] or Fraction(spin["value"]) != oracle.to_rational():
            problems.append(f"spin number {spin} differs from oracle {oracle.to_rational()}")
    else:
        want = _float_value(oracle)
        if spin["rational"] or not math.isclose(
            float(spin["estimate"]), want, rel_tol=1e-9, abs_tol=1e-9
        ):
            problems.append(f"spin number {spin} differs from oracle estimate {want!r}")
    return problems


def check_prop41(stdout: str) -> list[str]:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report does not parse: {exc}"]
    if not report["hypotheses_met"] or not report["kernel_contains_expected"]:
        return [f"kernel misses the expected generator: {report['detail']}"]
    # the expected generator is a nonzero kernel element
    if report["kernel_rank"] < 1:
        return [f"kernel rank {report['kernel_rank']} although it holds the generator"]
    return []


def check_batch(stdout: str, per_file: dict[str, str]) -> list[str]:
    """``verdict --batch`` reports must equal the per-file reports byte for byte."""
    try:
        results = json.loads(stdout)["results"]
    except (json.JSONDecodeError, KeyError) as exc:
        return [f"batch output does not parse: {exc}"]
    problems = []
    if sorted(entry["file"] for entry in results) != sorted(per_file):
        problems.append("batch output covers other files than the corpus")
    for entry in results:
        text = json.dumps(entry.get("report"), sort_keys=True, indent=2) + "\n"
        if per_file.get(entry["file"]) != text:
            problems.append(f"batch report for {entry['file']} differs from the per-file report")
    return problems
