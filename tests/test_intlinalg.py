import itertools
import math
import random

import pytest

from kida.errors import KidaError
from kida.intlinalg import Lattice, hnf, subgroup_lattice, xgcd


def _spans(H, vec, cols):
    """Whether ``vec`` lies in the row span of the HNF rows ``H``: adding
    it leaves the canonical form unchanged.  No ``Lattice`` involved."""
    return hnf([list(r) for r in H] + [list(vec)], cols) == H


class TestXgcd:
    def test_identity(self):
        rng = random.Random(1)
        for _ in range(200):
            a, b = rng.randint(-500, 500), rng.randint(-500, 500)
            g, x, y = xgcd(a, b)
            assert g == a * x + b * y and g >= 0


class TestHnf:
    def test_canonical_and_span_preserving(self):
        rng = random.Random(2)
        for _ in range(200):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            M = [[rng.randint(-5, 5) for _ in range(cols)]
                 for _ in range(rows)]
            H = hnf(M, cols)
            # every original row is in the span of H, and H's rows are
            # combinations of M's: hnf of M with them added is H again
            for r in M:
                assert _spans(H, r, cols)
            assert hnf(M + H, cols) == H
            # canonical: another basis of the same span has the same form
            assert hnf(H, cols) == H
            N = [list(r) for r in M]
            rng.shuffle(N)
            if rows > 1:
                k = rng.randint(-3, 3)
                N[0] = [x + k * y for x, y in zip(N[0], N[1])]
            assert hnf(N, cols) == H

    def test_pivots_positive_echelon(self):
        H = hnf([[2, 4], [0, 6], [4, 2]], 2)
        pivots = [next(v for v in row if v) for row in H]
        assert all(v > 0 for v in pivots)


class TestLattice:
    def test_rank_deficient_basis_is_a_typed_error(self):
        for rows, n in (([[1, 0]], 2), ([[2, 4], [1, 2]], 2), ([], 1),
                        ([[0, 0, 3]], 3)):
            with pytest.raises(KidaError, match="not of full rank"):
                Lattice(rows, n)
        with pytest.raises(KidaError, match="not of full rank"):
            Lattice([[1, 0]], 2, hermite=True)
        assert Lattice([], 0).det() == 1

    def test_contains_matches_the_hnf_span(self):
        # full-rank lattices holding diag(d): membership by one division per
        # column against hnf(L + [v]) == hnf(L), over a box of vectors
        rng = random.Random(5)
        for _ in range(100):
            orders = [rng.choice([2, 3, 4, 6, 8, 9])
                      for _ in range(rng.randint(1, 3))]
            gens = [[rng.randrange(o) for o in orders]
                    for _ in range(rng.randint(0, 2))]
            L = subgroup_lattice(gens, orders)
            n = len(orders)
            for v in itertools.product(range(-2, 10), repeat=n):
                assert L.contains(v) is _spans(L.basis, v, n), (L.basis, v)
            # det is the index: L meets the box of Z^n / diag(d) in
            # prod(d) / det points
            box = itertools.product(*map(range, orders))
            assert (sum(map(L.contains, box)) * L.det()
                    == math.prod(orders)), L.basis


class TestSubgroupLattices:
    def test_intersection_product_formula(self):
        # |A meet B| * |A join B| = |A| * |B| in a finite abelian group
        rng = random.Random(3)
        for _ in range(200):
            orders = [rng.choice([2, 3, 4, 6, 8, 9])
                      for _ in range(rng.randint(1, 3))]
            n = len(orders)
            total = 1
            for o in orders:
                total *= o

            def rand_sub():
                gens = [[rng.randrange(o) for o in orders]
                        for _ in range(rng.randint(0, 2))]
                return subgroup_lattice(gens, orders)

            A, B = rand_sub(), rand_sub()
            a, b = total // A.det(), total // B.det()
            meet = A.intersect(B)
            join = Lattice(A.basis + B.basis, n)
            assert (total // meet.det()) * (total // join.det()) == a * b
            for row in meet.basis:
                assert A.contains(row) and B.contains(row)
            # and it is the meet: a vector of the box Z^n / diag(d) lies
            # in it iff it lies in A and in B
            for v in itertools.product(*map(range, orders)):
                assert meet.contains(v) is (A.contains(v) and B.contains(v))
