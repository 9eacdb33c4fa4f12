"""Exact integer linear algebra on small matrices.

Everything here works over Z with Python's arbitrary-precision ints.
Matrices are lists of row lists.  Sizes stay tiny (a handful of unit-group
coordinates), so the plain row-reduction HNF is plenty.

The main consumer is subgroup arithmetic in finite abelian groups
presented as Z^r / diag(d_1..d_r): a subgroup generated by coordinate
vectors corresponds to the lattice spanned by those vectors together with
the relation rows d_i * e_i, and order / membership / intersection
questions become lattice questions.  Holding the relations, each such
lattice has full rank, so its HNF basis has n rows with row i's pivot in
column i (Cohen, *A Course in Computational Algebraic Number Theory*,
2.4): the index is the product of the diagonal, membership is one
division per column, and an intersection is the HNF of one block matrix
(``Lattice``).
"""

from __future__ import annotations

import math

from .errors import KidaError


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y and g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def hnf(mat: list[list[int]], ncols: int) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by ``mat``,
    whose rows have ``ncols`` entries.

    Returns the nonzero rows in echelon form: pivots positive, strictly
    increasing pivot columns, entries above each pivot reduced into
    [0, pivot).  The row span over Z is unchanged, and the output is the
    unique canonical basis of that lattice.
    """
    m = [list(row) for row in mat]
    rows = len(m)
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, rows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            if not m[i][c]:
                continue
            g, x, y = xgcd(m[r][c], m[i][c])
            ar, ai = m[r][c] // g, m[i][c] // g
            row_r, row_i = m[r], m[i]
            new_r = [x * row_r[j] + y * row_i[j] for j in range(ncols)]
            new_i = [-ai * row_r[j] + ar * row_i[j] for j in range(ncols)]
            m[r], m[i] = new_r, new_i
        if m[r][c] < 0:
            m[r] = [-v for v in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [m[i][j] - q * m[r][j] for j in range(ncols)]
        r += 1
        if r == rows:
            break
    return [row for row in m[:r] if any(row)]


class Lattice:
    """Full-rank sublattice of Z^n given by its HNF basis: n rows, row i
    with its pivot in column i.  Every lattice kida builds holds the
    relations d_i e_i of a finite group Z^n / diag(d), so it has full
    rank; a basis of fewer than n rows raises ``KidaError``.

    ``hermite=True`` trusts ``rows`` to be ``hnf`` output already and
    skips the reduction.
    """

    __slots__ = ("n", "basis")

    def __init__(self, rows: list[list[int]], n: int, hermite: bool = False):
        self.n = n
        self.basis = rows if hermite else hnf(rows, n)
        if len(self.basis) != n:
            raise KidaError(f"lattice of rank {len(self.basis)} in Z^{n} "
                            "is not of full rank")

    def det(self) -> int:
        """Index [Z^n : L], the product of the diagonal."""
        return math.prod(row[i] for i, row in enumerate(self.basis))

    def contains(self, vec) -> bool:
        """Reduce ``vec`` against the rows, row i at column i: what is left
        once every pivot divides is 0."""
        v = list(vec)
        for i, row in enumerate(self.basis):
            q, r = divmod(v[i], row[i])
            if r:
                return False
            if q:
                v = [x - q * y for x, y in zip(v, row)]
        return True

    def intersect(self, other: "Lattice") -> "Lattice":
        """L1 meet L2: if u B1 + v B2 = 0, then u B1 lies in both, so the
        rows of hnf([[B1, B1], [B2, 0]]) whose first half is 0 carry the
        meet's Hermite basis in their second half."""
        n = self.n
        rows = ([[*r, *r] for r in self.basis]
                + [[*r, *[0] * n] for r in other.basis])
        return Lattice([r[n:] for r in hnf(rows, 2 * n)[n:]], n,
                       hermite=True)


def subgroup_lattice(gens, orders) -> Lattice:
    """Lattice of the subgroup of prod Z/orders generated by ``gens``."""
    n = len(orders)
    rows = [list(g) for g in gens]
    rows += [[orders[i] if j == i else 0 for j in range(n)] for i in range(n)]
    return Lattice(rows, n)

