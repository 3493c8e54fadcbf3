"""Seeded corpus generator for the equispin benchmark.

``generate(workload, seed, out_dir)`` writes the JSON datasets a workload
feeds to the program into ``out_dir/datasets`` and returns the list of
operations, one ``equispin`` argument vector each.  It imports nothing from
equispin: the Galois-orbit populations are built from the closed-form
half-angle formula evaluated in floating point, which only has to tell
which integer an orbit's spin number is.

Run as a script to write a corpus and its operation list for inspection:

    python3 perfbench/corpus.py verdict-large-p 0 /tmp/corpus
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

K3 = {"b1": 0, "b_plus": 3, "signature": -16, "euler": 24, "is_spin": True}

# -- verdict-p3 ----------------------------------------------------------------

# Files in one pass; the loop cycles over them, so caches are hot after the first.
P3_RANDOM_NONTRIVIAL = 108
P3_RANDOM_TRIVIAL = 108
P3_ENGINEERED = 24  # consistent trivial datasets that reach Contradiction

# -- verdict-large-p -------------------------------------------------------------

# Files per prime in one pass: (uniform random, Galois-orbit consistent).  The
# orbit datasets of one prime cost the same, so the counts are set for the
# median of a two-pass run to fall among the p = 7 orbit datasets and its
# tail sample among the p = 13 ones.
LARGE_P_MIX = {5: (4, 2), 7: (6, 12), 11: (4, 3), 13: (3, 6), 23: (1, 1)}

# Spin-number values of the orbits that make up one consistent dataset.  Each
# total s satisfies s = 2 (mod p), so Fourier inversion is integral and the
# verdict runs the full p-fold lift sweep.  The defect vector depends on s
# alone, so every dataset of one prime costs about the same.
ORBIT_SHAPES = {5: (2,), 7: (-4, -4, -4), 11: (-10, -10), 13: (-6, -6, -6, -6), 23: (-44,)}

# -- adams-sweep -------------------------------------------------------------

# (m, n) vectors at p = 3, l = 1 that meet the vanishing hypotheses (k_0 <= l,
# equal tail defects, sum k = 2), by Adams dimension 3 * sum(m).  Cost at the
# parent of the benchmark swings by 100x between instances of one dimension
# (the kernel's entries blow up on some and not on others), so each pool holds
# instances whose cost there lies within about 20 % of each other: the draw
# must not decide the sweep's cost.  Approximate cost on a 2-core x86 VM:
# 8, 12, 18, 70, 70 and 1000 ms.
ADAMS_POOLS = {
    18: [((2, 2, 2), (2, 1, 1)), ((1, 2, 3), (1, 1, 2)), ((1, 3, 2), (1, 2, 1)),
         ((2, 2, 2), (4, 0, 0)), ((2, 1, 3), (2, 0, 2))],
    21: [((2, 2, 3), (2, 1, 2)), ((2, 3, 2), (2, 2, 1)), ((1, 3, 3), (1, 2, 2)),
         ((2, 2, 3), (4, 0, 1)), ((1, 3, 3), (3, 1, 1))],
    24: [((2, 3, 3), (2, 2, 2)), ((3, 3, 2), (3, 2, 1)), ((2, 2, 4), (2, 1, 3)),
         ((2, 3, 3), (4, 1, 1)), ((3, 2, 3), (3, 1, 2)), ((2, 4, 2), (2, 3, 1))],
    27: [((4, 1, 4), (4, 0, 3)), ((2, 6, 1), (2, 5, 0)), ((3, 2, 4), (3, 1, 3)),
         ((0, 1, 8), (0, 0, 7)), ((1, 2, 6), (3, 0, 4)), ((1, 4, 4), (1, 3, 3)),
         ((0, 3, 6), (4, 0, 3))],
    30: [((2, 3, 5), (4, 1, 3)), ((1, 1, 8), (1, 0, 7)), ((1, 5, 4), (1, 4, 3)),
         ((5, 3, 2), (5, 2, 1)), ((0, 2, 8), (0, 1, 7)), ((5, 4, 1), (5, 3, 0)),
         ((3, 4, 3), (3, 3, 2))],
    33: [((0, 5, 6), (0, 4, 5)), ((2, 4, 5), (2, 3, 4)), ((0, 6, 5), (0, 5, 4)),
         ((2, 5, 4), (2, 4, 3))],
}

# Instances per dimension in one pass.  The counts put the median inside the
# dimension 27-30 group, and the tail inside the dimension 33 group once a run
# makes four or more passes.
ADAMS_PASS = {18: 1, 21: 1, 24: 2, 27: 3, 30: 2, 33: 3}

# Instances that do not finish within the per-operation cap at the parent of
# the benchmark.  They run once per run, outside the timed loop.
ADAMS_OVER_CAP = (
    (3, (4, 4, 4), (4, 3, 3)),
    (5, (1, 2, 2, 2, 2), (3, 1, 1, 1, 1)),
)


def _random_dataset(rng: random.Random, p: int, trivial: bool, kind: str) -> dict:
    """A random valid K3 dataset, drawn like the test suite's generator."""
    n_points = rng.randint(1, 12) if kind in ("isolated", "mixed") else 0
    n_surfaces = rng.randint(1, 5) if kind in ("surfaces", "mixed") else 0
    points = [
        {
            "l_alpha": rng.randint(1, p - 1),
            "l_beta": rng.randint(1, p - 1),
            "epsilon": rng.choice((1, -1)),
        }
        for _ in range(n_points)
    ]
    surfaces = [
        {
            "self_intersection": rng.randint(-6, 0 if trivial else 4),
            "genus": 0 if trivial else rng.randint(0, 2),
            "l_theta": rng.randint(1, p - 1),
            "epsilon": rng.choice((1, -1)),
        }
        for _ in range(n_surfaces)
    ]
    return _dataset(p, 3 if trivial else rng.choice((1, 3)), trivial, points, surfaces)


def _dataset(p, quotient_b_plus, trivial, points, surfaces) -> dict:
    return {
        "p": p,
        "manifold": dict(K3),
        "quotient_b_plus": quotient_b_plus,
        "homologically_trivial": trivial,
        "isolated": points,
        "surfaces": surfaces,
    }


def _pt(a, b, eps):
    return {"l_alpha": a, "l_beta": b, "epsilon": eps}


def _sf(e, g, c, eps):
    return {"self_intersection": e, "genus": g, "l_theta": c, "epsilon": eps}


# The three consistent homologically trivial p = 3 shapes (spin numbers 2, -1
# and -4); the last two run the Adams kernel at dimensions 15 and 21.
ENGINEERED_SHAPES = (
    ([_pt(1, 2, -1)] * 4 + [_pt(1, 1, -1)] * 4, [_sf(-2, 0, 1, 1)] * 4 + [_sf(-1, 0, 1, -1)] * 4),
    ([_pt(1, 1, 1)] * 8, [_sf(-1, 0, 1, -1)] * 6 + [_sf(-2, 0, 1, -1)] * 2),
    ([_pt(1, 1, 1)] * 12 + [_pt(1, 1, -1)] * 4, [_sf(-2, 0, 1, 1)] * 4),
)


def _engineered(rng: random.Random, index: int) -> dict:
    points, surfaces = (list(part) for part in ENGINEERED_SHAPES[index % len(ENGINEERED_SHAPES)])
    rng.shuffle(points)
    rng.shuffle(surfaces)
    return _dataset(3, 3, True, points, surfaces)


def point_spin(a: int, b: int, eps: int, p: int) -> float:
    """First-power spin contribution of one isolated point, ``-(eps/4) csc csc``."""
    return -eps / (4 * math.sin(math.pi * a / p) * math.sin(math.pi * b / p))


def _orbit(a: int, b: int, eps: int, p: int) -> list[dict]:
    """The Galois orbit of one isolated point, as p - 1 points.

    The point is encoded by its half weights ``(a + p [eps = 1], b)`` mod 2p;
    the automorphism ``z -> z^r`` of ``Q(z_2p)`` (r odd, prime to p) multiplies
    both, and a second weight pushed past p moves its shift to the first.
    """
    n = 2 * p
    first, second = a + (p if eps == 1 else 0), b
    out = []
    for r in range(1, p):
        odd = r if r % 2 else r + p
        aa, bb = odd * first % n, odd * second % n
        if bb > p:
            aa, bb = (aa + p) % n, bb - p
        out.append(_pt(aa - p, bb, 1) if aa > p else _pt(aa, bb, -1))
    return out


def orbits_by_value(p: int) -> dict[int, list[tuple[int, int, int]]]:
    """Generating points of every Galois orbit, grouped by the orbit's spin number."""
    out: dict[int, list[tuple[int, int, int]]] = {}
    for a in range(1, p):
        for b in range(1, p):
            for eps in (1, -1):
                total = sum(
                    point_spin(pt["l_alpha"], pt["l_beta"], pt["epsilon"], p)
                    for pt in _orbit(a, b, eps, p)
                )
                value = round(total)
                if abs(total - value) > 1e-6:
                    raise AssertionError(f"orbit of {(a, b, eps)} at p = {p} is not rational")
                out.setdefault(value, []).append((a, b, eps))
    return out


def _orbit_dataset(rng: random.Random, p: int, by_value) -> dict:
    points = []
    for value in ORBIT_SHAPES[p]:
        points.extend(_orbit(*rng.choice(by_value[value]), p))
    rng.shuffle(points)
    return _dataset(p, rng.choice((1, 3)), False, points, [])


def _write(out_dir: Path, name: str, document: dict) -> str:
    path = out_dir / name
    path.write_text(json.dumps(document, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _verdict_ops(entries, rng, out_dir: Path) -> list[dict]:
    """Shuffle the (population, dataset) entries, write them, and list the operations."""
    rng.shuffle(entries)
    ops = []
    for i, (population, document) in enumerate(entries):
        name = f"{i:04d}-{population}.json"
        path = _write(out_dir, name, document)
        ops.append(
            {"id": name, "population": population, "argv": ["verdict", path, "--format", "json"]}
        )
    return ops


def generate(workload: str, seed: int, out_dir: Path) -> list[dict]:
    """Write the workload's inputs under ``out_dir`` and return its operations."""
    rng = random.Random(f"{workload}:{seed}")
    datasets = out_dir / "datasets"
    datasets.mkdir(parents=True, exist_ok=True)
    if workload == "verdict-p3":
        entries = []
        for _ in range(P3_RANDOM_NONTRIVIAL):
            kind = rng.choice(("isolated", "surfaces", "mixed"))
            entries.append(("p3-random", _random_dataset(rng, 3, False, kind)))
        for _ in range(P3_RANDOM_TRIVIAL):
            kind = rng.choice(("isolated", "surfaces", "mixed"))
            entries.append(("p3-random-trivial", _random_dataset(rng, 3, True, kind)))
        for i in range(P3_ENGINEERED):
            entries.append(("p3-engineered", _engineered(rng, i)))
        return _verdict_ops(entries, rng, datasets)
    if workload == "verdict-large-p":
        entries = []
        for p, (n_random, n_orbit) in LARGE_P_MIX.items():
            by_value = orbits_by_value(p)
            for _ in range(n_random):
                entries.append((f"p{p}-random", _random_dataset(rng, p, False, "mixed")))
            for _ in range(n_orbit):
                entries.append((f"p{p}-orbit", _orbit_dataset(rng, p, by_value)))
        return _verdict_ops(entries, rng, datasets)
    if workload == "adams-sweep":
        ops = []
        for dim, count in ADAMS_PASS.items():
            for i in range(count):
                m, n = rng.choice(ADAMS_POOLS[dim])
                ops.append(_prop41_op(f"p3-dim{dim}", i, 3, m, n))
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def _prop41_op(population: str, index: int, p: int, m, n) -> dict:
    join = ",".join
    return {
        "id": f"{population}-{index}",
        "population": population,
        "argv": [
            "prop41", "--p", str(p), "--m", join(map(str, m)), "--n", join(map(str, n)),
            "--l", "1", "--format", "json",
        ],
    }


def over_cap_ops() -> list[dict]:
    """The adams-sweep instances that run past the cap at the benchmark's parent."""
    return [
        _prop41_op(f"p{p}-dim{len(m) * sum(m)}", 0, p, m, n) for p, m, n in ADAMS_OVER_CAP
    ]


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: corpus.py WORKLOAD SEED OUT_DIR")
    target = Path(sys.argv[3])
    operations = generate(sys.argv[1], int(sys.argv[2]), target)
    (target / "operations.json").write_text(json.dumps(operations, indent=1) + "\n")
    print(f"{len(operations)} operations written under {target}")
