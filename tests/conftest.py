"""Shared generators for randomized dataset corpora, and per-test cache isolation."""

from __future__ import annotations

import random

import pytest

from equispin import rigidity
from equispin.dataset import (
    FixedPointDataset,
    FixedSurface,
    IsolatedPoint,
    ManifoldInvariants,
)


@pytest.fixture(autouse=True)
def _fresh_vanishing_cache():
    """Start every test with an empty verdict-path vanishing cache.

    A test that patches the Adams kernel then sees its patch, instead of a
    report an earlier test left behind.
    """
    rigidity._vanishing_once.cache_clear()


def random_dataset(
    rng: random.Random,
    p: int = 3,
    trivial: bool = False,
    kind: str = "mixed",
    max_points: int = 12,
    max_surfaces: int = 5,
) -> FixedPointDataset:
    """A random valid K3 dataset of the requested fixed-set kind."""
    n_points = rng.randint(1, max_points) if kind in ("isolated", "mixed") else 0
    n_surfaces = rng.randint(1, max_surfaces) if kind in ("surfaces", "mixed") else 0
    points = tuple(
        IsolatedPoint(
            l_alpha=rng.randint(1, p - 1),
            l_beta=rng.randint(1, p - 1),
            epsilon=rng.choice((1, -1)),
        )
        for _ in range(n_points)
    )
    surfaces = tuple(
        FixedSurface(
            self_intersection=rng.randint(-6, 0 if trivial else 4),
            genus=0 if trivial else rng.randint(0, 2),
            l_theta=rng.randint(1, p - 1),
            epsilon=rng.choice((1, -1)),
        )
        for _ in range(n_surfaces)
    )
    return FixedPointDataset(
        p=p,
        manifold=ManifoldInvariants.k3(),
        quotient_b_plus=3 if trivial else rng.choice((1, 3)),
        homologically_trivial=trivial,
        isolated=points,
        surfaces=surfaces,
    )


def engineered_trivial_datasets() -> list[FixedPointDataset]:
    """Internally consistent homologically trivial datasets.

    These pass every bookkeeping check and reach the contradiction branches
    of the verdict pipeline (spin numbers 2, -1 and -4 respectively).
    """
    k3 = ManifoldInvariants.k3()
    balanced = FixedPointDataset(
        3, k3, 3, True,
        isolated=tuple(IsolatedPoint(1, 2, -1) for _ in range(4))
        + tuple(IsolatedPoint(1, 1, -1) for _ in range(4)),
        surfaces=tuple(FixedSurface(-2, 0, 1, 1) for _ in range(4))
        + tuple(FixedSurface(-1, 0, 1, -1) for _ in range(4)),
    )
    negative_one = FixedPointDataset(
        3, k3, 3, True,
        isolated=tuple(IsolatedPoint(1, 1, 1) for _ in range(8)),
        surfaces=tuple(FixedSurface(-1, 0, 1, -1) for _ in range(6))
        + tuple(FixedSurface(-2, 0, 1, -1) for _ in range(2)),
    )
    negative_four = FixedPointDataset(
        3, k3, 3, True,
        isolated=tuple(IsolatedPoint(1, 1, 1) for _ in range(12))
        + tuple(IsolatedPoint(1, 1, -1) for _ in range(4)),
        surfaces=tuple(FixedSurface(-2, 0, 1, 1) for _ in range(4)),
    )
    return [balanced, negative_one, negative_four]
