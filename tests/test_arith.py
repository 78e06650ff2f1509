import math
import random
from fractions import Fraction
from math import inf

import pytest

from heckepairs.arith import (
    INFINITE_VALUATION,
    Lattice,
    Mat2,
    QuadInt,
    ResidueRing,
    closure,
    hnf_int,
    lattice_index,
    lattice_intersect,
    lattice_sum,
    rat_from_str,
    rat_to_str,
    smith_invariants,
    transform_lattice,
    val_p,
)
from heckepairs.errors import (BadDiscriminant, BoundReached, NotPrime, NotSublattice,
                               SingularBasis)
from heckepairs.grouppair import PairDescriptor

from oracles import (
    bfs_closure,
    lattice_box_points,
    quad_pow_mod,
    quotient_exponent,
    quotient_order,
    rectangular,
    scaled,
    span_points,
)

Z2 = Lattice.standard()
hnf = Lattice.from_basis


def rand_int_mat(rng, lo=-6, hi=6):
    while True:
        m = Mat2.of(*(rng.randint(lo, hi) for _ in range(4)))
        if m.det() != 0:
            return m


# ---------------------------------------------------------------------------
# hnf


def test_hnf_identity():
    assert hnf(Mat2.identity()) == Z2


def test_hnf_shear_basis():
    # columns (2,0),(1,1); canonical form verified against the box oracle
    lat = hnf(Mat2.of(2, 1, 0, 1))
    assert lat.basis().det() == 2
    assert lattice_box_points(lat, 4) == span_points((2, 0), (1, 1), 4)
    assert lat == Lattice(1, 1, 1, 2)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_hnf_diag_prime_already_canonical(p):
    lat = hnf(Mat2.diag(p, 1))
    assert (lat.a, lat.c, lat.d) == (p, 0, 1)


def test_hnf_rejects_singular():
    with pytest.raises(SingularBasis):
        hnf(Mat2.of(1, 2, 2, 4))


def test_hnf_idempotent_on_random_bases():
    rng = random.Random(7)
    for _ in range(200):
        m = rand_int_mat(rng)
        lat = hnf(m)
        assert hnf(lat.basis()) == lat
        # span is unchanged: oracle comparison on a window
        assert lattice_box_points(lat, 8) == span_points(
            (m.a, m.c), (m.b, m.d), 8
        )


def test_hnf_rational_basis():
    lat = hnf(Mat2.of(Fraction(1, 2), 0, 0, Fraction(1, 3)))
    # held over the least denominator 6 as (3, 0, 2)
    assert lat == Lattice(6, 3, 0, 2)
    assert lat.basis() == Mat2.of(Fraction(1, 2), 0, 0, Fraction(1, 3))


def _sympy_hnf(vectors):
    """(A, C, D) of the span of integer vectors, from sympy's Hermite form.

    sympy puts the matrix in upper triangular column form [[w11, w12],
    [0, w22]].  Fed the vectors with y written above x, its columns (w11, 0)
    and (w12, w22) read (0, w11) and (w22, w12) in (x, y), so the canonical
    basis (A, C), (0, D) used here is A = w22, C = w12, D = w11.
    """
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    w = hermite_normal_form(Matrix([[v[1] for v in vectors],
                                    [v[0] for v in vectors]]))
    assert w.shape == (2, 2)
    return (int(w[1, 1]), int(w[0, 1]), int(w[0, 0]))


def test_hnf_int_against_sympy():
    pytest.importorskip("sympy")
    rng = random.Random(23)
    for _ in range(150):
        a, b, c, d = (int(x) for x in rand_int_mat(rng, -30, 30).entries())
        assert hnf_int(a, b, c, d) == _sympy_hnf([(a, c), (b, d)])


def test_hnf_columns_against_sympy():
    # the sum of two rational lattices is the Hermite form of their four
    # concatenated basis columns
    pytest.importorskip("sympy")
    rng = random.Random(29)
    checked = 0
    while checked < 100:
        m1, m2 = (Mat2(*(Fraction(rng.randint(-12, 12), rng.randint(1, 6))
                         for _ in range(4))) for _ in range(2))
        if m1.det() == 0 or m2.det() == 0:
            continue
        vecs = [(m.a, m.c) for m in (m1, m2)] + [(m.b, m.d) for m in (m1, m2)]
        scale = math.lcm(*(x.denominator for v in vecs for x in v))
        ints = [(int(x * scale), int(y * scale)) for x, y in vecs]
        expected = tuple(Fraction(k, scale) for k in _sympy_hnf(ints))
        b = lattice_sum(hnf(m1), hnf(m2)).basis()
        assert (b.a, b.c, b.d) == expected
        checked += 1


def test_smith_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(31)
    for _ in range(60):
        m = rand_int_mat(rng, -9, 9)
        snf = smith_normal_form(sympy.Matrix(2, 2, [int(x) for x in m.entries()]),
                                domain=sympy.ZZ)
        assert smith_invariants(hnf(m)) == (abs(int(snf[0, 0])), abs(int(snf[1, 1])))


# ---------------------------------------------------------------------------
# intersections / sums / indices


def test_intersect_rectangular():
    l1 = rectangular(2, 1)
    l2 = rectangular(1, 3)
    assert lattice_intersect(l1, l2) == rectangular(2, 3)


def test_intersect_shear_oracle():
    l1 = hnf(Mat2.of(2, 1, 0, 1))
    l2 = rectangular(1, 2)
    meet = lattice_intersect(l1, l2)
    assert meet == rectangular(2, 2)
    assert lattice_box_points(meet, 8) == (
        lattice_box_points(l1, 8) & lattice_box_points(l2, 8)
    )


def test_intersect_idempotent():
    lat = hnf(Mat2.of(3, 0, 1, 5))
    assert lattice_intersect(lat, lat) == lat


def test_sum_coprime_scalars():
    assert lattice_sum(rectangular(2, 2), rectangular(3, 3)) == Z2


def test_sum_idempotent():
    lat = hnf(Mat2.of(4, 0, 1, 6))
    assert lattice_sum(lat, lat) == lat


def test_sum_rectangular():
    assert lattice_sum(rectangular(2, 1), rectangular(1, 2)) == Z2


def test_index_examples():
    assert lattice_index(Z2, rectangular(5, 1)) == 5
    assert lattice_index(Z2, hnf(Mat2.of(2, 1, 0, 1))) == 2
    assert lattice_index(Z2, rectangular(2, 2)) == 4


def test_index_requires_containment():
    with pytest.raises(NotSublattice):
        lattice_index(rectangular(2, 2), Z2)


def test_duality_identity_random():
    # det(L1 meet L2) * det(L1 + L2) = det(L1) * det(L2)
    rng = random.Random(11)
    for _ in range(150):
        l1 = hnf(rand_int_mat(rng))
        l2 = hnf(rand_int_mat(rng))
        if rng.random() < 0.3:
            l1 = scaled(l1, Fraction(1, rng.randint(1, 3)))
        meet = lattice_intersect(l1, l2)
        join = lattice_sum(l1, l2)
        det = [lat.basis().det() for lat in (meet, join, l1, l2)]
        assert det[0] * det[1] == det[2] * det[3]
        assert join.contains_lattice(l1) and join.contains_lattice(l2)
        assert l1.contains_lattice(meet) and l2.contains_lattice(meet)


def test_meet_join_small_dets_rigorous():
    # On small determinants the fundamental domains fit well inside the box,
    # so point-set equality pins the lattices exactly.
    rng = random.Random(13)
    from oracles import all_hnf_lattices

    lats = all_hnf_lattices(6)
    for _ in range(300):
        l1, l2 = rng.choice(lats), rng.choice(lats)
        meet = lattice_intersect(l1, l2)
        bound = 2 * int(l1.basis().det() * l2.basis().det())
        assert lattice_box_points(meet, bound) == (
            lattice_box_points(l1, bound) & lattice_box_points(l2, bound)
        )


# ---------------------------------------------------------------------------
# transforms


def test_transform_diag():
    assert transform_lattice(Mat2.diag(2, 1), Z2) == rectangular(2, 1)


def test_transform_identity():
    lat = hnf(Mat2.of(3, 0, 2, 4))
    assert transform_lattice(Mat2.identity(), lat) == lat


def test_transform_unimodular_fixes_z2():
    assert transform_lattice(Mat2.of(1, 1, 0, 1), Z2) == Z2


def test_transform_rejects_singular():
    with pytest.raises(SingularBasis):
        transform_lattice(Mat2.of(0, 0, 0, 0), Z2)


# ---------------------------------------------------------------------------
# smith invariants


def test_smith_examples():
    assert smith_invariants(rectangular(2, 2)) == (2, 2)
    assert smith_invariants(rectangular(5, 1)) == (1, 5)
    assert smith_invariants(hnf(Mat2.of(2, 1, 0, 1))) == (1, 2)


def test_smith_against_quotient_enumeration():
    rng = random.Random(17)
    for _ in range(40):
        lat = hnf(rand_int_mat(rng, -4, 4))
        d1, d2 = smith_invariants(lat)
        assert d2 % d1 == 0
        assert d1 * d2 == lattice_index(Z2, lat)
        assert d1 * d2 == quotient_order(lat)
        assert d2 == quotient_exponent(lat)


def test_smith_requires_integrality():
    with pytest.raises(NotSublattice):
        smith_invariants(scaled(Lattice.standard(), Fraction(1, 2)))


# ---------------------------------------------------------------------------
# valuations


def test_val_p_examples():
    assert val_p(Fraction(1, 3), 3) == -1
    assert val_p(9 * 2, 3) == 2
    assert val_p(0, 5) is INFINITE_VALUATION
    assert val_p(0, 5) == inf


def test_val_p_additivity():
    rng = random.Random(19)
    for _ in range(100):
        x = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        y = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        assert val_p(x * y, 2) == val_p(x, 2) + val_p(y, 2)


def test_val_p_rejects_composite():
    with pytest.raises(NotPrime):
        val_p(Fraction(1, 2), 6)


# ---------------------------------------------------------------------------
# quadratic integers


def test_quad_pow_examples():
    r = QuadInt(1, 1, 2)  # 1 + sqrt(2)
    assert quad_pow_mod(r, 0, 17) == QuadInt(1, 0, 2)
    assert quad_pow_mod(r, 2, 3) == QuadInt(0, 2, 2)  # (1+sqrt2)^2 = 3+2sqrt2
    assert quad_pow_mod(r, 4, 3) == QuadInt(2, 0, 2)


def test_quad_pow_is_homomorphism():
    rng = random.Random(23)
    r = QuadInt(2, 1, 3)
    for _ in range(60):
        a, b = rng.randint(0, 30), rng.randint(0, 30)
        s = rng.randint(2, 40)
        lhs = quad_pow_mod(r, a + b, s)
        rhs = (quad_pow_mod(r, a, s) * quad_pow_mod(r, b, s)).reduce_mod(s)
        assert lhs == rhs


def test_quad_rejects_bad_d():
    with pytest.raises(BadDiscriminant):
        QuadInt(1, 1, 5)  # 5 = 1 mod 4
    with pytest.raises(BadDiscriminant):
        QuadInt(1, 1, 12)  # not square-free


def test_quad_norm_multiplicative():
    x = QuadInt(3, 2, 2)
    y = QuadInt(1, 5, 2)
    assert (x * y).norm() == x.norm() * y.norm()


# ---------------------------------------------------------------------------
# residue rings and serialization


def test_residue_ring_matrix_ops():
    ring = ResidueRing(5)
    m = ring.reduce_mat((1, 2, 3, 4))
    inv = ring.mat_inv(m)
    assert ring.mat_mul(m, inv) == ring.identity_mat()


def test_residue_ring_closure():
    ring = ResidueRing(3)
    gens = [ring.reduce_mat((1, 1, 0, 1)), ring.reduce_mat((1, 0, 1, 1))]
    group = bfs_closure(ring, gens)
    assert len(group) == 24  # SL(2, Z/3)
    assert ring.close_under_mul(gens, None) == group


@pytest.mark.parametrize("pair", [
    PairDescriptor.planar_gl2(), PairDescriptor.quad_torus(2),
    PairDescriptor.quad_torus(3), PairDescriptor.quad_torus(7),
], ids=["gl2", "quad-d2", "quad-d3", "quad-d7"])
def test_chain_matches_closure(pair):
    # the chain's order is the size of the listed group, its listing is
    # that group with each member once, and its sifting test agrees with set
    # membership on members and on random matrices
    for s in range(1, 31):
        ring = ResidueRing(s)
        gens = [ring.reduce_mat(g) for g in pair.r_generators]
        group = bfs_closure(ring, gens)
        order, member, elements = ring.chain(gens, None)
        listed = list(elements)
        assert order == len(group) == len(listed), s
        assert set(listed) == group, s
        rng = random.Random(s)
        probes = [tuple(rng.randrange(s) for _ in range(4)) for _ in range(200)]
        probes += rng.sample(sorted(group), min(200, len(group)))
        assert all(member(m) == (m in group) for m in probes), s


def test_chain_matches_closure_on_other_groups():
    # subgroups fixing e1 or its line, whose stabilizers need the Schreier
    # generators of every generator, and random unit-determinant generators
    rng = random.Random(0)
    for s in range(2, 17):
        ring = ResidueRing(s)
        gen_sets = [[(1, 0, 0, -1)], [(1, 1, 0, 1), (1, 0, 0, -1)],
                    [(1, 0, 0, -1), (1, 2, 0, 1)], [(-1, 0, 0, 1), (1, 0, 1, 1)]]
        while len(gen_sets) < 10:
            m = tuple(rng.randrange(s) for _ in range(4))
            if math.gcd(ring.mat_det(m), s) == 1:
                gen_sets.append([m] + gen_sets[-1][:rng.randrange(2)])
        for gens in gen_sets:
            gens = [ring.reduce_mat(g) for g in gens]
            group = bfs_closure(ring, gens)
            order, member, elements = ring.chain(gens, None)
            listed = list(elements)
            assert order == len(group) == len(listed), (s, gens)
            assert set(listed) == group, (s, gens)
            probes = [tuple(rng.randrange(s) for _ in range(4)) for _ in range(100)]
            assert all(member(m) == (m in group) for m in probes), (s, gens)


@pytest.mark.parametrize("s", [6, 8, 9, 12, 16, 25])
def test_chain_order_against_sympy(s):
    # a second oracle: Schreier-Sims on the permutations of (Z/s)^2 that
    # the R generators induce (only the identity fixes e1 and e2)
    combinatorics = pytest.importorskip("sympy.combinatorics")
    ring = ResidueRing(s)
    gens = [ring.reduce_mat(g) for g in PairDescriptor.planar_gl2().r_generators]
    points = [(x, y) for x in range(s) for y in range(s)]
    index = {v: i for i, v in enumerate(points)}
    perms = [combinatorics.Permutation([index[ring.vec_apply(g, v)] for v in points])
             for g in gens]
    assert ring.chain(gens, None)[0] == combinatorics.PermutationGroup(perms).order()


def test_chain_stops_at_the_bound():
    # the orbit of e1 mod 7 has J_2(7) = 48 points
    ring = ResidueRing(7)
    gens = [ring.reduce_mat(g) for g in PairDescriptor.planar_gl2().r_generators]
    assert ring.chain(gens, 48)[0] == 672
    with pytest.raises(BoundReached, match="exceeded 47"):
        ring.chain(gens, 47)


def test_closure_counts_its_start():
    # the start is a reached point: a one-point orbit fits a bound of 1 and
    # not a bound of 0
    assert closure(0, lambda x: (x,), 1, "full") == {0}
    with pytest.raises(BoundReached, match="^full$"):
        closure(0, lambda x: (x,), 0, "full")
    with pytest.raises(BoundReached, match="^full$"):
        closure(0, lambda x: ((x + 1) % 3,), 2, "full")


def test_rat_round_trip():
    assert rat_to_str(Fraction(3, 1)) == "3"
    assert rat_to_str(Fraction(-7, 2)) == "-7/2"
    assert rat_from_str("-7/2") == Fraction(-7, 2)
    assert rat_from_str("4") == 4


def test_mat_serialization_round_trip():
    m = Mat2.of(Fraction(1, 2), 0, 3, Fraction(-4, 7))
    assert Mat2.from_lists(m.to_lists()) == m
