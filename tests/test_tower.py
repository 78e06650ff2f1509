import copy
import random
from fractions import Fraction

import pytest

from heckepairs.arith import Lattice, Mat2, ResidueRing, lattice_index, satisfies
from heckepairs.errors import (
    BoundReached,
    CertificateFailed,
    FamilyConditionViolated,
    NotComparable,
    NotSublattice,
)
from heckepairs.grouppair import PairDescriptor, ResidueSubgroup, index_r_cap_conj, slpm_order
from heckepairs.tower import (
    ConnectingMap,
    CosetFamily,
    EnvelopeLattice,
    TowerStage,
    _fixes_quotient,
    _primitive_int,
    _rel_conditions,
    _residue_core,
    build_stage,
    core_lattice,
    make_coset_family,
    make_envelope,
    triangle_commutes,
    verify_stage_invariants,
)

from oracles import (
    all_pairs_verify,
    elementwise_triangle,
    fraction_core_conditions,
    fraction_satisfies,
    r_image_by_closure,
    rectangular,
    residue_core_by_filter,
    scaled,
)

F = Fraction


@pytest.fixture(scope="module")
def pair():
    return PairDescriptor.planar_gl2(p=2)


@pytest.fixture(scope="module")
def stage1(pair):
    fam = make_coset_family(pair, [Mat2.diag(2, 1)])
    return build_stage(fam, make_envelope(fam))


@pytest.fixture(scope="module")
def stage2(pair):
    fam = make_coset_family(pair, [Mat2.diag(2, 1), Mat2.diag(4, 1)])
    return build_stage(fam, make_envelope(fam))


@pytest.fixture(scope="module")
def stage0(pair):
    fam = make_coset_family(pair, [])
    return build_stage(fam, make_envelope(fam))


@pytest.fixture(scope="module")
def stage_p3():
    fam = make_coset_family(PairDescriptor.planar_gl2(p=3), [Mat2.diag(3, 1)])
    return build_stage(fam, make_envelope(fam))


# ---------------------------------------------------------------------------
# families and envelopes


def test_family_empty_seed(pair):
    fam = make_coset_family(pair, [])
    assert len(fam.reps) == 1


def test_family_seed_within_r(pair):
    fam = make_coset_family(pair, [Mat2.of(1, 1, 0, 1)])
    assert len(fam.reps) == 1


def test_family_diag2(pair):
    fam = make_coset_family(pair, [Mat2.diag(2, 1)])
    # identity coset plus the double-coset orbit of size [R:R_q] = 3
    assert len(fam.reps) == 1 + index_r_cap_conj(pair, Mat2.diag(2, 1)) == 4


def test_family_validate_catches_broken(pair):
    broken = CosetFamily(pair, ((1, pair._canon_q_ints(1, 0, 0, 1)),
                                (1, pair._canon_q_ints(2, 0, 0, 1))))
    with pytest.raises(FamilyConditionViolated):
        broken.validate()


def test_envelope_trivial(pair):
    fam = make_coset_family(pair, [])
    assert make_envelope(fam).lattice == pair.m_lattice


def test_envelope_diag2(pair):
    fam = make_coset_family(pair, [Mat2.diag(2, 1)])
    assert make_envelope(fam).lattice == scaled(Lattice.standard(), F(1, 2))


def test_envelope_validation_rejects_small(pair):
    fam = make_coset_family(pair, [Mat2.diag(2, 1)])
    with pytest.raises(FamilyConditionViolated):
        EnvelopeLattice(pair.m_lattice).validate(fam)  # misses q^-1.M


def test_core_lattice_examples(pair):
    assert core_lattice(make_coset_family(pair, [])) == pair.m_lattice
    fam = make_coset_family(pair, [Mat2.diag(2, 1)])
    assert core_lattice(fam) == rectangular(2, 2)


def test_core_lattice_monotone(pair):
    small = core_lattice(make_coset_family(pair, [Mat2.diag(2, 1)]))
    big = core_lattice(
        make_coset_family(pair, [Mat2.diag(2, 1), Mat2.diag(4, 1)])
    )
    assert small.contains_lattice(big)


def test_core_residue_trivial_envelope(pair):
    fam = make_coset_family(pair, [])
    sub = build_stage(fam, EnvelopeLattice(pair.m_lattice)).r_core
    assert sub.level == 1 and len(sub.elements) == 1  # everything mod 1


def test_core_residue_level2(pair):
    fam = make_coset_family(pair, [])
    env = EnvelopeLattice(scaled(Lattice.standard(), F(1, 2)))
    env.validate(fam)
    sub = build_stage(fam, env).r_core
    assert sub.level == 2
    assert sub.elements == frozenset([(1, 0, 0, 1)])  # exactly r = 1 mod 2


def test_stage_level_diag2(pair):
    fam = make_coset_family(pair, [Mat2.diag(2, 1)])
    assert build_stage(fam, make_envelope(fam)).level == 4


# ---------------------------------------------------------------------------
# stages


def test_trivial_stage(stage0):
    assert stage0.order == 1
    assert stage0.m_index == 1 and stage0.r_index == 1


def test_stage_diag2_order(stage1):
    assert stage1.m_index == 4
    assert stage1.m_invariants == (2, 2)
    assert stage1.order == stage1.m_index * stage1.r_index
    assert stage1.order == len(list(stage1.elements()))


def test_stage_group_axioms(stage1):
    rng = random.Random(3)
    elems = list(stage1.elements())
    ident = stage1.identity()
    for _ in range(300):
        x, y, z = (rng.choice(elems) for _ in range(3))
        assert stage1.mul(stage1.mul(x, y), z) == stage1.mul(x, stage1.mul(y, z))
        assert stage1.mul(x, stage1.inv(x)) == ident


def test_stage_quotient_map_is_homomorphism(pair, stage1):
    # the reduction H -> (M/core) x| (R/core) respects products, and its
    # image generated from the H generators fills the whole stage
    rng = random.Random(5)
    gens = pair.h_generators()

    def random_h():
        h = pair.identity()
        for _ in range(rng.randint(0, 8)):
            h = pair.mul(h, rng.choice(gens))
        return h

    for _ in range(300):
        h1, h2 = random_h(), random_h()
        lhs = stage1.reduce_h_element(pair.mul(h1, h2))
        rhs = stage1.mul(stage1.reduce_h_element(h1), stage1.reduce_h_element(h2))
        assert lhs == rhs
    seen = {stage1.identity()}
    frontier = [stage1.identity()]
    reduced_gens = [stage1.reduce_h_element(g) for g in gens]
    while frontier:
        cur = frontier.pop()
        for g in reduced_gens:
            nxt = stage1.mul(g, cur)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert len(seen) == stage1.order


def test_stage_invariants_pass(pair, stage1, stage2):
    for st in (stage1, stage2):
        rep = verify_stage_invariants(st)
        assert rep["verdict"] == "pass"


def test_coset_family_bound(pair):
    # R and the 3 cosets of diag(2,1)R
    assert len(make_coset_family(pair, [Mat2.diag(2, 1)], 4).reps) == 4
    with pytest.raises(BoundReached, match="^coset family exceeded 3 cosets$"):
        make_coset_family(pair, [Mat2.diag(2, 1)], 3)
    # a scalar seed's left R-orbit is one coset: it fits a bound of 2, and
    # no bound that the family already fills
    assert len(make_coset_family(pair, [Mat2.diag(2, 2)], 2).reps) == 2
    with pytest.raises(BoundReached, match="^coset family exceeded 1 cosets$"):
        make_coset_family(pair, [Mat2.diag(2, 2), Mat2.diag(4, 4)], 1)
    with pytest.raises(BoundReached, match="^coset family exceeded 2 cosets$"):
        make_coset_family(pair, [Mat2.diag(2, 2), Mat2.diag(4, 4)], 2)


def test_stage_caps(pair):
    fam = make_coset_family(pair, [Mat2.diag(2, 1)])
    env = make_envelope(fam)
    with pytest.raises(BoundReached, match="^stage level 4 exceeds cap 2$"):
        build_stage(fam, env, conductor_cap=2)
    # the lower bound 4 |SL+-(2, Z/2)| = 24 passes the cap, but the columns
    # fit the bound, so the exact order is named
    with pytest.raises(BoundReached, match="^stage too large: order 192 exceeds cap 10$"):
        build_stage(fam, env, order_cap=10)


_D = Mat2.diag
# (p, seeds): gl2 over Q, Z[1/2], Z[1/3] and Z[1/5], stage levels 4 to 81
_CORE_STAGES = [
    (None, [_D(2, 1)]), (None, [_D(2, 1), _D(3, 1)]), (None, [_D(6, 1)]),
    (2, [_D(2, 1)]), (2, [Mat2.of(2, 1, 0, 1)]), (2, [_D(2, 1), _D(1, 2)]),
    (2, [_D(2, 1), _D(4, 1)]), (2, [Mat2.of(2, 1, 0, 1), Mat2.of(4, 1, 0, 1)]),
    (2, [_D(2, 1), _D(4, 1), _D(8, 1)]), (3, [_D(3, 1)]), (3, [_D(3, 1), _D(1, 3)]),
    (3, [_D(3, 1), _D(9, 1)]), (5, [_D(5, 1)]),
]


def _family_envelope(p, seeds):
    fam = make_coset_family(PairDescriptor.planar_gl2(p), seeds)
    return fam, make_envelope(fam)


@pytest.mark.parametrize("p, seeds", _CORE_STAGES,
                         ids=[f"{p}-{';'.join(map(str, s))}" for p, s in _CORE_STAGES])
def test_column_core_matches_filter_oracle(p, seeds):
    fam, env = _family_envelope(p, seeds)
    pair = fam.pair
    level, conds = _rel_conditions(fam, env)
    core = _residue_core(pair, level, conds, 100000)
    assert core == residue_core_by_filter(pair, level, conds)
    # the closed-form lower bound of the order, from the envelope (1/k)Z^2,
    # lies below the order that the core gives
    lat = env.lattice
    assert (lat.a, lat.c, lat.d) == (1, 0, 1) and level % lat.s == 0
    m_index = lattice_index(pair.m_lattice, core_lattice(fam))
    assert m_index * slpm_order(lat.s) <= m_index * (slpm_order(level) // len(core))


@pytest.mark.parametrize("p, seeds", [(2, [_D(2, 1)]), (2, [_D(2, 1), _D(4, 1)]),
                                      (3, [_D(3, 1), _D(9, 1)]), (7, [_D(49, 1)])])
def test_stage_order_lower_bound_before_any_walk(p, seeds, monkeypatch):
    # with a bound of 1 no first column may be solved: the stage is sized
    # by m_index |SL+-(2, Z/k)|, k the envelope's least denominator, alone,
    # and neither the chain nor the column loop runs
    fam, env = _family_envelope(p, seeds)
    lower = (lattice_index(fam.pair.m_lattice, core_lattice(fam))
             * slpm_order(env.lattice.s))
    monkeypatch.setattr(ResidueRing, "chain", None)
    with pytest.raises(BoundReached, match=f"^stage too large: order at least {lower} "
                                      f"exceeds cap {lower - 1}$"):
        build_stage(fam, env, order_cap=lower - 1, bound=1)
    with pytest.raises(BoundReached, match=" first columns mod .* exceed the bound 1$"):
        build_stage(fam, env, order_cap=lower, bound=1)


def test_stage_rejects_heisenberg():
    heis = PairDescriptor.heisenberg()
    with pytest.raises(FamilyConditionViolated):
        make_coset_family(heis, [])


def test_stage_quad_torus():
    quad = PairDescriptor.quad_torus(2)
    q = Mat2.of(3, 2, 1, 3)  # 3 + sqrt(2), norm 7
    fam = make_coset_family(quad, [q])
    st = build_stage(fam, make_envelope(fam))
    assert st.m_index == 7
    assert st.order == st.m_index * st.r_index
    assert verify_stage_invariants(st)["verdict"] == "pass"


# ---------------------------------------------------------------------------
# connecting maps


def test_connecting_identity(stage1):
    cm = ConnectingMap(stage1, stage1)
    rep = cm.verify()
    assert rep == {"homomorphism": True, "surjective": True,
                   "kernel_size": 1, "order_ratio": 1}


def test_connecting_fine_to_coarse(stage1, stage2):
    cm = ConnectingMap(stage2, stage1)
    rep = cm.verify()
    assert rep["homomorphism"] and rep["surjective"]
    assert rep["kernel_size"] == stage2.order // stage1.order


def test_connecting_requires_nesting(pair, stage1, stage2):
    with pytest.raises(NotComparable):
        ConnectingMap(stage1, stage2)  # wrong direction
    other = PairDescriptor.planar_gl2(p=3)
    fam3 = make_coset_family(other, [Mat2.diag(3, 1)])
    st3 = build_stage(fam3, make_envelope(fam3))
    with pytest.raises(NotComparable):
        ConnectingMap(st3, stage1)


def test_triangle_commutes(stage0, stage1, stage2):
    f21 = ConnectingMap(stage2, stage1)
    f10 = ConnectingMap(stage1, stage0)
    f20 = ConnectingMap(stage2, stage0)
    for x in stage2.elements():
        assert f10.apply(f21.apply(x)) == f20.apply(x)


def test_triangle_commutes_reads_tables_only(stage0, stage1, stage2,
                                             monkeypatch):
    calls = 0
    apply = ConnectingMap.apply

    def counted(self, elem):
        nonlocal calls
        calls += 1
        return apply(self, elem)

    monkeypatch.setattr(ConnectingMap, "apply", counted)
    assert triangle_commutes(ConnectingMap(stage2, stage1),
                             ConnectingMap(stage1, stage0)) is True
    assert calls == 0
    assert ConnectingMap(stage2, stage0).apply(stage2.identity()) == \
        stage0.identity() and calls == 1


def test_triangle_needs_maps_that_compose(stage0, stage1, stage2):
    with pytest.raises(NotComparable):
        triangle_commutes(ConnectingMap(stage2, stage1), ConnectingMap(stage2, stage0))


def test_composite_equals_direct_on_flag_tower(pair):
    fams = [make_coset_family(pair, seeds) for seeds in
            ([], [Mat2.diag(2, 1)], [Mat2.diag(2, 1), Mat2.diag(4, 1)])]
    stages = [build_stage(f, make_envelope(f)) for f in fams]
    for fine, coarse in ((2, 1), (1, 0), (2, 0)):
        rep = ConnectingMap(stages[fine], stages[coarse]).verify()
        assert rep["homomorphism"] and rep["surjective"]


def test_m_index_strictly_increases_along_power_seeds(pair):
    indices = []
    seeds = []
    for k in (1, 2, 3):
        seeds.append(Mat2.diag(2 ** k, 1))
        fam = make_coset_family(pair, list(seeds))
        indices.append(lattice_index(pair.m_lattice, core_lattice(fam)))
    assert indices == [4, 16, 64]
    assert all(a < b for a, b in zip(indices, indices[1:]))


def test_stage_conditions_well_defined_mod_level(pair, stage1):
    # membership in the residue core depends only on the class mod the
    # stage level, and the whole congruence kernel at that level belongs
    from heckepairs.tower import _rel_conditions

    level, conds = _rel_conditions(stage1.family, stage1.envelope)
    assert level == stage1.level
    rng = random.Random(21)
    for _ in range(100):
        a = tuple(rng.randint(-20, 20) for _ in range(4))
        e = tuple(rng.randint(-3, 3) for _ in range(4))
        b = tuple(x + level * y for x, y in zip(a, e))
        assert satisfies(a, conds) == satisfies(b, conds)
        kernel_elem = tuple(i + level * y
                            for i, y in zip((1, 0, 0, 1), e))
        assert satisfies(kernel_elem, conds)


def test_full_multiplication_table_matches_h(pair, stage1):
    # the quotient map from H onto the stage, compared on the full
    # multiplication table (stage order 192 <= 2000)
    gens = pair.h_generators()
    reps = {stage1.reduce_h_element(pair.identity()): pair.identity()}
    frontier = [pair.identity()]
    while frontier:
        h = frontier.pop()
        for g in gens:
            hg = pair.mul(g, h)
            key = stage1.reduce_h_element(hg)
            if key not in reps:
                reps[key] = hg
                frontier.append(hg)
    assert len(reps) == stage1.order
    items = sorted(reps.items(), key=lambda kv: str(kv[0]))
    for k1, h1 in items:
        for k2, h2 in items:
            assert stage1.reduce_h_element(pair.mul(h1, h2)) == \
                stage1.mul(k1, k2)


# ---------------------------------------------------------------------------
# integer kernels against their Fraction and element-wise oracles


def _random_residues(rng, level, count):
    """Integer residue lifts, negative entries included: half uniform, half
    near the identity (identity plus a multiple of a divisor of the level),
    so that conditions beyond the first one are reached."""
    divisors = [d for d in range(1, level + 1) if level % d == 0]
    out = []
    for i in range(count):
        if i % 2:
            out.append(tuple(rng.randint(-2 * level, 2 * level) for _ in range(4)))
        else:
            step = rng.choice(divisors)
            out.append(tuple(x + step * rng.randint(-3, 3)
                             for x in (1, 0, 0, 1)))
    return out


@pytest.mark.parametrize("name, seed", [("stage0", 40), ("stage1", 41),
                                        ("stage2", 42), ("stage_p3", 43)])
def test_satisfies_matches_fraction_oracle(request, name, seed):
    stage = request.getfixturevalue(name)
    level, conds = _rel_conditions(stage.family, stage.envelope)
    assert level == stage.level
    oracle = fraction_core_conditions(stage.family, stage.envelope)
    residues = _random_residues(random.Random(seed), level, 500)
    residues += sorted(r_image_by_closure(stage.pair, level))[:500]
    residues += sorted(stage.r_core.elements)
    members = 0
    for r in residues:
        got = satisfies(r, conds)
        assert got == fraction_satisfies(r, oracle), r
        members += got
    assert members >= len(stage.r_core.elements)


def test_connecting_verify_matches_all_pairs_oracle(stage0, stage1, stage2,
                                                    stage_p3):
    fam = make_coset_family(stage_p3.pair, [])
    p3_trivial = build_stage(fam, make_envelope(fam))
    for fine, coarse in ((stage1, stage0), (stage2, stage1), (stage2, stage0),
                         (stage1, stage1), (stage_p3, p3_trivial),
                         (stage_p3, stage_p3)):
        cm = ConnectingMap(fine, coarse)
        rep = cm.verify()
        assert rep == all_pairs_verify(cm)
        assert rep["homomorphism"] and rep["surjective"]


def test_triangle_matches_elementwise_oracle(stage0, stage1, stage2):
    for fine, mid, coarse in ((stage2, stage1, stage0), (stage2, stage2, stage1),
                              (stage1, stage1, stage0)):
        via, down = ConnectingMap(fine, mid), ConnectingMap(mid, coarse)
        direct = ConnectingMap(fine, coarse)
        assert triangle_commutes(via, down) is True
        assert elementwise_triangle(via, down, direct) is True


def _corrupt_coset_key(stage, residues, image=lambda key: key):
    """A copy of the stage that sends the first of ``residues`` that is not
    a coset key to the key of another coset, one of another image."""
    bad = copy.copy(stage)
    bad.coset_key_of = dict(stage.coset_key_of)
    residue = next(r for r in residues if r != stage.coset_key_of[r])
    old = image(stage.coset_key_of[residue])
    bad.coset_key_of[residue] = next(
        key for key in stage._sorted_rkeys if image(key) != old)
    return bad


def test_connecting_verify_catches_a_corrupted_coarse_stage(stage1, stage2):
    bad = _corrupt_coset_key(stage1, sorted(stage1.coset_key_of))
    cm = ConnectingMap(stage2, bad)
    assert all_pairs_verify(cm)["homomorphism"] is False
    assert cm.verify()["homomorphism"] is False
    # reducing through the intact stage1 misses the corrupted entry
    assert triangle_commutes(ConnectingMap(stage2, stage1),
                             ConnectingMap(stage1, bad)) is False
    assert elementwise_triangle(ConnectingMap(stage2, stage1),
                                ConnectingMap(stage1, bad), cm) is False
    # the R-axis reads the fine stage's residue keys directly: corrupt one it
    # reads, a product g_r r of a generator's r-part and a coset key, so that
    # its image in stage1 moves
    ring, down = stage2._ring, ConnectingMap(stage2, stage1)
    reached = [ring.mat_mul(g_r, r) for _, g_r in stage2.generators()
               for r in stage2._sorted_rkeys]
    bad = _corrupt_coset_key(stage2, reached, lambda key: down.apply(((0, 0), key)))
    cm = ConnectingMap(bad, stage1)
    assert cm.verify()["homomorphism"] is False
    assert cm.verify() == all_pairs_verify(cm)


def test_connecting_verify_mul_calls_bounded(stage1, stage2, monkeypatch):
    calls = 0

    def counting(mul):
        def counted(x, y):
            nonlocal calls
            calls += 1
            return mul(x, y)
        return counted

    for st in (stage1, stage2):
        monkeypatch.setattr(st, "mul", counting(st.mul))
    rep = ConnectingMap(stage2, stage1).verify()
    assert rep["homomorphism"] and rep["surjective"]
    # only the M-axis multiplies, once on each side; the R-axis reads residue
    # keys (491,520 calls when every element meets every generator)
    assert calls <= 2 * len(stage2.generators()) * len(stage2.m_elements) == 160


class _CountingDict(dict):
    """A dict that counts the entries read from it."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def _counting_keys(stage):
    """A copy of the stage whose coset-key table counts its reads."""
    counted = copy.copy(stage)
    counted.coset_key_of = _CountingDict(stage.coset_key_of)
    return counted


def test_connecting_verify_reads_each_coarse_key_once(stage1, stage2):
    # the R-axis right side phi(g_r) phi(r) depends on r only through its
    # coarse key: one coarse key read per distinct r-part g_r and coarse key
    # (4 x 48), against 4 x 3,072 if it were formed per fine key; the M-axis
    # reads one per coarse product (80 of the 160 products on both sides)
    coarse = _counting_keys(stage1)
    cm = ConnectingMap(stage2, coarse)
    coarse.coset_key_of.reads = 0
    rep = cm.verify()
    assert rep["homomorphism"] and rep["surjective"]
    gens = stage2.generators()
    g_rs = {g_r for _, g_r in gens}
    assert (len(g_rs), len(stage1._sorted_rkeys), len(stage2._sorted_rkeys)) == (4, 48, 3072)
    reads = coarse.coset_key_of.reads
    assert reads <= 2 * len(gens) * len(stage2.m_elements) + len(g_rs) * 48 == 352


def test_connecting_verify_into_stage0_reads_no_fine_key(stage0, stage1, stage2,
                                                         stage_p3):
    # stage 0 has order 1, so both factors are certified by their counts;
    # its one coarse key is the image of every fine key, so building the
    # map reads no coarse key either; the elementwise oracle agrees, and it
    # does read the fine keys
    fam = make_coset_family(stage_p3.pair, [])
    p3_trivial = build_stage(fam, make_envelope(fam))
    for stage, trivial in ((stage1, stage0), (stage2, stage0), (stage_p3, p3_trivial)):
        assert trivial.order == 1
        fine, coarse = _counting_keys(stage), _counting_keys(trivial)
        cm = ConnectingMap(fine, coarse)
        assert coarse.coset_key_of.reads == 0
        assert set(cm.phi_r) == set(stage._sorted_rkeys)
        rep = cm.verify()
        assert fine.coset_key_of.reads == 0
        assert rep == all_pairs_verify(cm)
        assert rep["homomorphism"] and rep["surjective"]
        assert fine.coset_key_of.reads > 0


def _two_key_stage(pair):
    """A level-2 stage whose R-factor has two elements: the image
    GL(2, Z/2) of R modulo its subgroup of order 3, over M / M = 0."""
    fam = make_coset_family(pair, [])
    env = EnvelopeLattice(scaled(Lattice.standard(), F(1, 2)))
    image = frozenset(r_image_by_closure(pair, 2))
    r_core = ResidueSubgroup(2, frozenset([(1, 0, 0, 1), (0, 1, 1, 1), (1, 1, 1, 0)]))
    return TowerStage(fam, env, core_lattice(fam), r_core, image)


def test_connecting_verify_compares_a_two_key_factor(pair, stage1):
    # the sign of GL(2, Z/2) = S_3 is a homomorphism onto two coset keys;
    # moving one residue to the other key breaks it, and only the
    # elementwise comparison of the R-axis can see that
    two = _two_key_stage(pair)
    assert (two.m_index, two.r_index, two.order) == (1, 2, 2)
    cm = ConnectingMap(stage1, two)
    assert cm.verify() == all_pairs_verify(cm)
    assert cm.verify()["homomorphism"] and cm.verify()["surjective"]
    bad = _corrupt_coset_key(two, sorted(two.coset_key_of))
    cm = ConnectingMap(stage1, bad)
    assert cm.verify()["homomorphism"] is False
    assert cm.verify() == all_pairs_verify(cm)


@pytest.mark.parametrize("p, seeds", [(None, []), (2, [_D(2, 1)]), (2, [_D(2, 1), _D(4, 1)]),
                                      (3, [_D(3, 1)]), (3, [_D(3, 1), _D(1, 3)])])
def test_one_chain_per_gl2_stage(p, seeds, monkeypatch):
    # the chain that certifies |SL+-(2, Z/level)| also lists the image:
    # one walk per accepted stage, at the stage level
    fam, env = _family_envelope(p, seeds)
    levels = []
    chain = ResidueRing.chain

    def counted(ring, gens, bound):
        levels.append(ring.modulus)
        return chain(ring, gens, bound)

    monkeypatch.setattr(ResidueRing, "chain", counted)
    stage = build_stage(fam, env)
    assert levels == [stage.level]
    monkeypatch.undo()
    assert set(stage.coset_key_of) == r_image_by_closure(fam.pair, stage.level)


@pytest.mark.parametrize("name", ["stage0", "stage1", "stage2", "stage_p3"])
def test_coset_keys_are_least_members(request, name):
    stage = request.getfixturevalue(name)
    ring = stage._ring
    for r, key in stage.coset_key_of.items():
        assert key == min(ring.mat_mul(r, c) for c in stage.r_core.elements)
    assert len(set(stage.coset_key_of.values())) == stage.r_index


def test_stage_rejects_corrupted_image(pair):
    fam = make_coset_family(pair, [Mat2.diag(2, 1)])
    env = make_envelope(fam)
    r_core = build_stage(fam, env).r_core
    image = frozenset(r_image_by_closure(pair, r_core.level))
    assert len(image) == 96 and len(r_core.elements) == 2
    dropped = min(image - r_core.elements)
    with pytest.raises(CertificateFailed):
        TowerStage(fam, env, core_lattice(fam), r_core, image - {dropped})


def test_stage_rejects_a_short_listing(pair, monkeypatch):
    # a listing that drops one stabilizer member, (1, 1; 0, 1) mod 4, falls
    # short of the chain order
    chain = ResidueRing.chain

    def dropping(ring, gens, bound):
        order, member, elements = chain(ring, gens, bound)
        return order, member, (m for m in elements if m != (1, 1, 0, 1))

    monkeypatch.setattr(ResidueRing, "chain", dropping)
    fam = make_coset_family(pair, [Mat2.diag(2, 1)])
    with pytest.raises(CertificateFailed, match="95 residues listed mod 4"):
        build_stage(fam, make_envelope(fam))


def test_integer_inputs_are_checked(pair):
    with pytest.raises(ValueError):
        _primitive_int(1, 2, 2, 4)
    # a stage takes its core as an integer triple only once its index in
    # M = Z^2 has certified that the core's denominator is 1
    fam = make_coset_family(pair, [])
    env = make_envelope(fam)
    r_core = build_stage(fam, env).r_core
    image = frozenset(r_image_by_closure(pair, r_core.level))
    with pytest.raises(NotSublattice):
        TowerStage(fam, env, scaled(Lattice.standard(), F(1, 2)), r_core, image)


def test_fixes_quotient_examples():
    # core 2Z x 2Z: r = 1 mod 2 acts trivially, a transvection does not
    assert _fixes_quotient((2, 0, 2), (3, 0, 2, 1))
    assert not _fixes_quotient((2, 0, 2), (1, 0, 1, 1))
    # core spanned by (2, 1) and (0, 2): (r - 1)e_1 = (2, 1) is in it,
    # (2, 0) is not
    assert _fixes_quotient((2, 1, 2), (3, 0, 1, 1))
    assert not _fixes_quotient((2, 1, 2), (3, 0, 0, 1))


def test_stage_layer_builds_no_fractions(pair, stage1, monkeypatch):
    # envelope, core lattice, stage assembly, invariants and the connecting
    # map all run on integers: not one Fraction is built on the p = 2
    # family of diag(2,1); diag(4,1)
    fam = make_coset_family(pair, [Mat2.diag(2, 1), Mat2.diag(4, 1)])
    built = 0
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    env = make_envelope(fam)
    core_lattice(fam)
    stage = build_stage(fam, env)
    assert verify_stage_invariants(stage)["verdict"] == "pass"
    assert ConnectingMap(stage, stage1).verify()["homomorphism"]
    monkeypatch.undo()
    assert built == 0
