"""Exact linear algebra over the integers and rationals.

The routines here are plain Python arithmetic on dense lists: no floating
point, no external solvers.  :func:`integer_kernel` gives the saturated
kernel lattice of an integer matrix in row Hermite normal form (Cohen, *A
Course in Computational Algebraic Number Theory*, section 2.4).  Its
elimination is fraction-free and divides every new row by its content, so
entries stay of the size of the matrix minors; the lattice is then cut down
by one divisibility condition per pivot row, in Hermite form between steps.

The routines modulo a prime ``ell`` (:func:`kernel_mod`, :func:`matmul_mod`,
:func:`poly_inverse_mod`) work in the field of ``ell`` elements; a kernel
taken there bounds the nullity over Q from above, since rank can only drop
modulo ``ell``.  :func:`certified_kernel` closes the gap: it lifts kernels
taken modulo several primes to rationals by Chinese remaindering and
rational reconstruction, and keeps them only once every lifted vector passes
an exact check, so the count it returns is a proven lower bound that meets
the upper one.  :func:`kernel_mod` and the reduced echelon forms that
:func:`certified_kernel` compares both read one forward elimination.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul


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


def _forward_mod(rows: list[list[int]], ell: int) -> tuple[list[int], list[list[int]]]:
    """Forward elimination modulo the prime ``ell``: pivot columns and their rows' tails.

    ``tails[k]`` is pivot row ``k`` right of its pivot ``pivots[k]``, scaled
    so that the pivot is 1; each pivot row is dropped with its column.
    """
    rows = [[v % ell for v in r] for r in rows]
    pivots: list[int] = []
    tails: list[list[int]] = []
    for col in range(len(rows[0]) if rows else 0):
        # each row of ``rows`` is its suffix from ``col`` on; the prefix is 0
        k = next((k for k, r in enumerate(rows) if r[0]), None)
        if k is None:
            rows = [r[1:] for r in rows]
            continue
        head = rows.pop(k)
        inv = pow(head[0], -1, ell)
        tail = [v * inv % ell for v in head[1:]]
        rows = [[(u - r[0] * v) % ell for u, v in zip(r[1:], tail)] if r[0] else r[1:] for r in rows]
        pivots.append(col)
        tails.append(tail)
    return pivots, tails


def _echelon_mod(rows: list[list[int]], ell: int) -> tuple[list[int], list[list[int]]]:
    """Reduced row echelon form modulo the prime ``ell``: pivot columns and nonzero rows.

    The forward elimination's rows are reduced from the last one up: each
    later row is already zero at every other pivot column, so subtracting it
    clears one entry and leaves the others.
    """
    pivots, tails = _forward_mod(rows, ell)
    out: list[tuple[int, list[int]]] = []
    for col, tail in zip(reversed(pivots), reversed(tails)):
        row = [0] * col + [1] + tail
        for c, below in out:
            f = row[c]
            if f:
                row = row[:c] + [(u - f * v) % ell for u, v in zip(row[c:], below[c:])]
        out.append((col, row))
    return pivots, [row for _, row in reversed(out)]


def kernel_mod(rows: list[list[int]], ell: int) -> list[list[int]]:
    """Basis of ``{x : A @ x = 0}`` over the field of ``ell`` elements, ``ell`` prime.

    One vector per free column: 1 there, 0 at the other free columns, so the
    basis is determined by the kernel.  Only the free columns are solved
    back; a matrix with no free column returns ``[]``.
    """
    ncols = len(rows[0])
    pivots, tails = _forward_mod(rows, ell)
    taken = set(pivots)
    basis = []
    for f in (c for c in range(ncols) if c not in taken):
        vec = [0] * ncols
        vec[f] = 1
        for col, tail in zip(reversed(pivots), reversed(tails)):
            if col < f:
                vec[col] = -sum(map(mul, tail, vec[col + 1:])) % ell
        basis.append(vec)
    return basis


def matmul_mod(a: list[list[int]], b: list[list[int]], ell: int) -> list[list[int]]:
    """``a @ b`` modulo ``ell``."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) % ell for col in cols] for row in a]


def poly_inverse_mod(a: list[int], g: list[int], ell: int) -> list[int]:
    """``b`` with ``a*b = 1`` modulo the polynomial ``g`` over the field of ``ell`` elements.

    Polynomials are coefficient lists, lowest degree first, and ``b`` has
    ``deg g`` coefficients.  Extended Euclid, keeping ``r = u*a (mod g)`` for
    both remainders; raises ``ZeroDivisionError`` when ``a`` and ``g`` have
    a common factor.
    """

    def trim(f: list[int]) -> list[int]:
        while f and not f[-1]:
            f.pop()
        return f

    def minus_shifted(x: list[int], f: int, shift: int, y: list[int]) -> list[int]:
        """``x - f * t^shift * y``, without trailing zeros."""
        n = max(len(x), shift + len(y))
        y = [0] * shift + y + [0] * (n - shift - len(y))
        return trim([(u - f * v) % ell for u, v in zip(x + [0] * (n - len(x)), y)])

    r0, u0 = trim([v % ell for v in g]), []
    r1, u1 = trim([v % ell for v in a]), [1]
    while len(r1) > 1:
        inv = pow(r1[-1], -1, ell)
        while len(r0) >= len(r1):
            f, shift = r0[-1] * inv % ell, len(r0) - len(r1)
            r0, u0 = minus_shifted(r0, f, shift, r1), minus_shifted(u0, f, shift, u1)
        (r0, u0), (r1, u1) = (r1, u1), (r0, u0)
    if not r1:
        raise ZeroDivisionError(f"polynomial is not invertible modulo {ell}")
    c = pow(r1[0], -1, ell)
    return [c * v % ell for v in u1] + [0] * (len(g) - 1 - len(u1))


def rational_reconstruction(a: int, m: int) -> Fraction | None:
    """The fraction ``n/d`` with ``n = a*d (mod m)`` and ``|n|, d <= sqrt(m/2)``, if any.

    Such a fraction is unique; it is read off the extended Euclidean
    algorithm on ``(m, a)``, stopped at the first remainder within the bound
    (Wang's algorithm).  ``None`` when the cofactor there is out of bounds.
    """
    bound = math.isqrt(m // 2)
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1 > bound:
        f = r0 // r1
        r0, r1 = r1, r0 - f * r1
        s0, s1 = s1, s0 - f * s1
    if not 0 < abs(s1) <= bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _lift(residues: list[int], modulus: int) -> list[int] | None:
    """The vector reconstructed from ``residues``, times the lcm of its denominators."""
    fracs = []
    for v in residues:
        f = rational_reconstruction(v, modulus)
        if f is None:
            return None
        fracs.append(f)
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs]


def certified_kernel(residue_kernel, in_kernel, primes) -> list[list[int]]:
    """A basis, over Q, of an integer kernel known through its reductions modulo primes.

    ``residue_kernel(ell)`` spans the kernel's image modulo the prime ``ell``,
    which contains the reduction of the kernel over Q, so its dimension is an
    upper bound.  ``in_kernel(vectors)`` decides exactly whether every
    integer vector of a list lies in the kernel; it sees all the vectors of
    one lift at once, so that their check can share its set-up.  Primes are
    drawn from ``primes`` in turn:

    * each kernel modulo ``ell`` is put in reduced echelon form, and its key
      (dimension, pivot columns) compared with the least key seen.  A larger
      key marks a prime where the rank or a leading minor of the kernel
      dropped, and the prime is skipped; a smaller one restarts the lift;
    * the echelon forms of the primes of the least key are joined by Chinese
      remaindering, and each entry is reconstructed as a rational;
    * when the reconstructed vectors pass ``in_kernel``, the
      vectors are independent (one pivot each) and as many as the upper
      bound, so they span the kernel.  Otherwise the next prime is drawn.

    The returned vectors are integral, one per pivot column.  A supply of
    primes that runs out first raises ``RuntimeError``.
    """
    best = None
    for ell in primes:
        pivots, rows = _echelon_mod(residue_kernel(ell), ell)
        key = (len(rows), pivots)
        if best is not None and key > best:
            continue
        if key == best:
            inv = pow(modulus, -1, ell)
            residues = [
                [u + modulus * ((v - u) * inv % ell) for u, v in zip(old, new)]
                for old, new in zip(residues, rows)
            ]
            modulus *= ell
        else:
            best, residues, modulus = key, rows, ell
        # every vector is reconstructed before any is checked, as the check
        # costs far more than a failed reconstruction
        vectors = []
        for r in residues:
            vec = _lift(r, modulus)
            if vec is None:
                break
            vectors.append(vec)
        else:
            if in_kernel(vectors):
                return vectors
    raise RuntimeError("prime supply exhausted before the kernel was certified")
