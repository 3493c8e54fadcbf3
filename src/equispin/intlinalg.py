"""Exact linear algebra over the integers and rationals.

The routines here are plain Python arithmetic on dense lists: no floating
point, no external solvers.  :func:`integer_kernel` gives the saturated
kernel lattice of an integer matrix in row Hermite normal form (Cohen, *A
Course in Computational Algebraic Number Theory*, section 2.4).  Its
elimination is fraction-free and divides every new row by its content, so
entries stay of the size of the matrix minors; the lattice is then cut down
by one divisibility condition per pivot row, in Hermite form between steps.
"""

from __future__ import annotations

import math
from fractions import Fraction


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``a*x + b*y = g = gcd(a, b)`` and ``g >= 0``."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _primitive(row: list[int]) -> list[int]:
    """``row`` divided by its content, the gcd of its entries."""
    g = math.gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def _hermite(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form of the lattice spanned by ``rows``, a nonempty list.

    Each column's entries are merged into one pivot row by extended-gcd row
    operations, which are unimodular; the pivot is made positive and the
    entries above it are reduced into ``[0, pivot)``.
    """
    out: list[list[int]] = []
    for col in range(len(rows[0])):
        live = [r for r in rows if r[col]]
        rows = [r for r in rows if not r[col]]
        if not live:
            continue
        head = live[0]
        for r in live[1:]:
            g, x, y = extended_gcd(head[col], r[col])
            a, b = head[col] // g, r[col] // g
            rows.append([a * v - b * u for u, v in zip(head, r)])
            head = [x * u + y * v for u, v in zip(head, r)]
        if head[col] < 0:
            head = [-v for v in head]
        for i, prev in enumerate(out):
            f = prev[col] // head[col]
            if f:
                out[i] = [u - f * v for u, v in zip(prev, head)]
        out.append(head)
    return out


def integer_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form of the lattice ``{x in Z^n : A @ x = 0}``.

    Elimination from the last column leftwards brings ``A`` to one row
    ``d_k x_k + sum_{j<k} a_kj x_j = 0`` per pivot column ``k``.  A sweep
    left to right then builds the lattice of partial kernel vectors: a free
    column adds a unit vector; a pivot column keeps the combinations whose
    row sum ``d_k`` divides (the kernel of the one row ``[c_1..c_s, d_k]``,
    ``c_i`` the sum on basis vector ``i``, read off the Hermite form of
    ``[[c | B], [d_k | 0]]``) and appends ``x_k``.

    The basis spans the *full* kernel lattice (saturated), so every integer
    kernel vector is an integer combination of it.  The Hermite form is
    unique for the lattice: rows ordered by the position of their first
    nonzero entry, which is positive and lies in a free column.
    """
    if not rows:
        raise ValueError("matrix must have at least one row")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")

    # every pending row is zero right of ``col``; pivot rows stop at their pivot
    pending = [_primitive(list(r)) for r in rows if any(r)]
    pivots: dict[int, list[int]] = {}
    for col in reversed(range(ncols)):
        live = [r for r in pending if r[col]]
        if live:
            head = min(live, key=lambda r: abs(r[col]))
            d = head[col]
            pending = [r for r in pending if not r[col]]
            for r in live:
                if r is not head:
                    c = r[col]
                    g = math.gcd(d, c)
                    r = [(d // g) * u - (c // g) * v for u, v in zip(r, head)]
                    if any(r):
                        pending.append(_primitive(r))
            pivots[col] = head
        for r in pending:
            r.pop()

    basis: list[list[int]] = []
    for col in range(ncols):
        row = pivots.get(col)
        if row is None:
            basis = [vec + [0] for vec in basis] + [[0] * col + [1]]
            continue
        d = abs(row[col])
        values = [sum(a * b for a, b in zip(row, vec)) % d for vec in basis]
        if any(values):
            lattice = _hermite([[c] + vec for c, vec in zip(values, basis)] + [[d] + [0] * col])
            basis = [vec[1:] for vec in lattice[1:]]
        basis = [vec + [-sum(a * b for a, b in zip(row, vec)) // row[col]] for vec in basis]
    return basis


def solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """One exact solution of ``matrix @ x = rhs``, or ``None`` if inconsistent.

    Gaussian elimination over ``Fraction``.  Underdetermined systems get
    their free variables set to zero, so the result is deterministic.
    """
    nrows = len(matrix)
    if nrows == 0:
        return []
    ncols = len(matrix[0])
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]

    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(ncols):
        sel = next((r for r in range(row, nrows) if aug[r][col] != 0), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[row])]
        pivots.append((row, col))
        row += 1
        if row == nrows:
            break

    for r in range(row, nrows):
        if aug[r][ncols] != 0:
            return None

    x = [Fraction(0)] * ncols
    for r, c in pivots:
        x[c] = aug[r][ncols]
    return x
