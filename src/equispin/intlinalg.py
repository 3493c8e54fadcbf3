"""Exact linear algebra over the integers and rationals.

The routines here are plain Python arithmetic on dense lists: no
pivot-size heuristics, no floating point, no external solvers.
"""

from __future__ import annotations

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


def integer_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Basis of the lattice ``{x in Z^n : A @ x = 0}`` for an integer matrix.

    The columns of ``A`` are reduced by unimodular column operations which
    are tracked in a square matrix ``U``; once a column of the reduced
    matrix is zero, the facing column of ``U`` is a kernel vector.  Because
    ``U`` is unimodular the returned vectors form a basis of the *full*
    kernel lattice (the saturation comes for free), so every integer kernel
    vector is an integer combination of the result.

    Each basis vector is sign-normalised so its first nonzero entry is
    positive; the order of the basis is deterministic.
    """
    if not rows:
        raise ValueError("matrix must have at least one row")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    nrows = len(rows)

    cols = [[rows[i][j] for i in range(nrows)] for j in range(ncols)]
    unim = [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]

    pivot = 0
    for r in range(nrows):
        if pivot == ncols:
            break
        sel = None
        for j in range(pivot, ncols):
            if cols[j][r] != 0:
                sel = j
                break
        if sel is None:
            continue
        for j in range(sel + 1, ncols):
            if cols[j][r] == 0:
                continue
            a, b = cols[sel][r], cols[j][r]
            g, x, y = extended_gcd(a, b)
            aa, bb = a // g, b // g
            c_sel, c_j = cols[sel], cols[j]
            u_sel, u_j = unim[sel], unim[j]
            # det [[x, -bb], [y, aa]] = (a*x + b*y)/g = 1, so this is unimodular
            cols[sel] = [x * s + y * t for s, t in zip(c_sel, c_j)]
            cols[j] = [aa * t - bb * s for s, t in zip(c_sel, c_j)]
            unim[sel] = [x * s + y * t for s, t in zip(u_sel, u_j)]
            unim[j] = [aa * t - bb * s for s, t in zip(u_sel, u_j)]
        cols[pivot], cols[sel] = cols[sel], cols[pivot]
        unim[pivot], unim[sel] = unim[sel], unim[pivot]
        pivot += 1

    basis = []
    for j in range(ncols):
        if all(v == 0 for v in cols[j]):
            vec = unim[j]
            lead = next((v for v in vec if v != 0), 0)
            if lead < 0:
                vec = [-v for v in vec]
            basis.append(vec)
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
