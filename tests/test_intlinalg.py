import itertools
import random

from kida.intlinalg import (Lattice, hnf, kernel, preimage_lattice,
                            subgroup_lattice, xgcd)


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
            lat = Lattice(M, cols)
            # every original row is in the span of H and vice versa
            for r in M:
                assert lat.contains(r)
            relat = Lattice(H, cols)
            for r in H:
                assert lat.contains(r)
            assert lat.key() == relat.key()

    def test_pivots_positive_echelon(self):
        H = hnf([[2, 4], [0, 6], [4, 2]], 2)
        pivots = [next(v for v in row if v) for row in H]
        assert all(v > 0 for v in pivots)


class TestKernel:
    def test_sound_and_complete(self):
        rng = random.Random(0)
        for _ in range(200):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            M = [[rng.randint(-6, 6) for _ in range(cols)]
                 for _ in range(rows)]
            K = kernel(M, cols)
            for v in K:
                prod = [sum(v[i] * M[i][j] for i in range(rows))
                        for j in range(cols)]
                assert not any(prod)
            rank_m = len(hnf([list(r) for r in M], cols))
            assert len(hnf([list(r) for r in K], rows)) == rows - rank_m

    def test_contains_every_kernel_vector_in_a_box(self):
        # equal rank alone would accept a finite-index sublattice
        rng = random.Random(4)
        for _ in range(60):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 3)
            M = [[rng.randint(-4, 4) for _ in range(cols)]
                 for _ in range(rows)]
            span = Lattice(kernel(M, cols), rows)
            for v in itertools.product(range(-3, 4), repeat=rows):
                if not any(sum(v[i] * M[i][j] for i in range(rows))
                           for j in range(cols)):
                    assert span.contains(v)


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

    def test_preimage_under_reduction(self):
        # map C_8 -> C_4 (mod 4): preimage of <2> has index 2
        target = subgroup_lattice([(2,)], (4,))
        amat = [[1]]   # generator of C_8 maps to generator of C_4
        pre = preimage_lattice(1, amat, target)
        pre = Lattice(pre.basis + [[8]], 1)
        assert 8 // pre.det() == 4   # {0,2,4,6} inside C_8
