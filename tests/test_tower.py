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
    reduce_h_element,
    residue_core_by_filter,
    scaled,
    stage_elements,
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
    assert stage1.order == len(stage_elements(stage1))


def test_stage_group_axioms(stage1):
    rng = random.Random(3)
    elems = stage_elements(stage1)
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
        lhs = reduce_h_element(stage1, pair.mul(h1, h2))
        rhs = stage1.mul(reduce_h_element(stage1, h1), reduce_h_element(stage1, h2))
        assert lhs == rhs
    seen = {stage1.identity()}
    frontier = [stage1.identity()]
    reduced_gens = [reduce_h_element(stage1, g) for g in gens]
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
    assert st.order == st.m_index * st.r_index == len(stage_elements(st))
    assert verify_stage_invariants(st)["verdict"] == "pass"
    # the keys of its listed and filtered image certify like the gl2 ones
    cm = ConnectingMap(st, st)
    assert cm.verify() == all_pairs_verify(cm)
    assert cm.verify()["homomorphism"] and cm.verify()["surjective"]


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
    for x in stage_elements(stage2):
        assert f10.apply(f21.apply(x)) == f20.apply(x)


def test_triangle_commutes_applies_on_generators_only(stage0, stage1, stage2,
                                                     monkeypatch):
    # the phi_m tables are compared entry by entry, and the three maps only
    # on the generators of the fine stage, never on its 49,152 elements
    calls = 0
    apply = ConnectingMap.apply

    def counted(self, elem):
        nonlocal calls
        calls += 1
        return apply(self, elem)

    monkeypatch.setattr(ConnectingMap, "apply", counted)
    assert triangle_commutes(ConnectingMap(stage2, stage1),
                             ConnectingMap(stage1, stage0)) is True
    assert calls == 3 * len(stage2.generators()) == 15
    assert ConnectingMap(stage2, stage0).apply(stage2.identity()) == \
        stage0.identity() and calls == 16


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
    reps = {reduce_h_element(stage1, pair.identity()): pair.identity()}
    frontier = [pair.identity()]
    while frontier:
        h = frontier.pop()
        for g in gens:
            hg = pair.mul(g, h)
            key = reduce_h_element(stage1, hg)
            if key not in reps:
                reps[key] = hg
                frontier.append(hg)
    assert len(reps) == stage1.order
    items = sorted(reps.items(), key=lambda kv: str(kv[0]))
    for k1, h1 in items:
        for k2, h2 in items:
            assert reduce_h_element(stage1, pair.mul(h1, h2)) == \
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
                         (stage1, stage1), (stage2, stage2), (stage_p3, p3_trivial),
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


def _with_core(stage, core, m_core=None):
    """The stage rebuilt with another residue core (and core lattice), of
    the same image order: a corrupted stage that is still a presentation."""
    return TowerStage(stage.family, stage.envelope, m_core or stage.m_core,
                      ResidueSubgroup(stage.level, frozenset(core)),
                      stage.r_index * len(stage.r_core.elements))


def test_connecting_verify_catches_a_corrupted_coarse_stage(stage1, stage2):
    # stage1 with its core {1, -1} mod 4 swapped for {1, (1, 0; 0, -1)}: a
    # subgroup of the same order that fixes M / core but is not normal, so
    # the reduction is no homomorphism onto its left cosets; the generator
    # (1, 0; 0, -1) is keyed by 1, so the oracle sees it on the generators
    bad = _with_core(stage1, [(1, 0, 0, 1), (1, 0, 0, 3)])
    assert bad.order == stage1.order
    assert verify_stage_invariants(bad)["r_core_normal_in_r"] is False
    cm = ConnectingMap(stage2, bad)
    rep = all_pairs_verify(cm)
    assert rep["homomorphism"] is False
    assert cm.verify() == rep
    # the core of stage1 holds -1, which does not lie in the corrupted core:
    # the reduction through the intact stage1 is refused
    with pytest.raises(NotComparable, match="fine residue core is not inside the coarse one"):
        ConnectingMap(stage1, bad)
    # a core lattice 2Z x 4Z is neither R-stable nor fixed by -1
    bad = _with_core(stage1, stage1.r_core.elements, rectangular(2, 4))
    assert verify_stage_invariants(bad) == {
        "m_core_r_stable": False, "r_core_acts_trivially_on_quotient": False,
        "r_core_normal_in_r": True, "verdict": "fail"}
    cm = ConnectingMap(stage2, bad)
    rep = all_pairs_verify(cm)
    assert rep["homomorphism"] is False
    assert cm.verify() == rep


def test_stage_checks_are_computed_once_per_stage(monkeypatch, stage1, stage2):
    # verify_stage_invariants and every ConnectingMap.verify into a stage
    # read the same three checks, computed on first use
    coarse = _with_core(stage1, stage1.r_core.elements)
    calls = []
    normal = ResidueSubgroup.is_normal_under
    monkeypatch.setattr(ResidueSubgroup, "is_normal_under",
                        lambda self, gens: calls.append(self) or normal(self, gens))
    assert verify_stage_invariants(coarse)["verdict"] == "pass"
    for _ in range(2):
        assert ConnectingMap(stage2, coarse).verify()["homomorphism"] is True
    assert verify_stage_invariants(coarse)["verdict"] == "pass"
    assert calls == [coarse.r_core]


# the chains of _CORE_STAGES whose stages below the default cap are not
# those of another chain here or the fixtures stage0, stage1 and stage2
# (diag(2,1);diag(4,1) over Z[1/2]), which the oracle tests above compare
_ORACLE_CHAINS = [(p, seeds) for p, seeds in _CORE_STAGES
                  if (p, seeds) not in ((None, [_D(2, 1), _D(3, 1)]), (2, [_D(2, 1)]),
                                        (2, [_D(2, 1), _D(4, 1)]),
                                        (2, [_D(2, 1), _D(4, 1), _D(8, 1)]),
                                        (3, [_D(3, 1), _D(9, 1)]))]


@pytest.mark.parametrize("p, seeds", _ORACLE_CHAINS,
                         ids=[f"{p}-{';'.join(map(str, s))}" for p, s in _ORACLE_CHAINS])
def test_structural_certificate_matches_elementwise_oracles(p, seeds):
    # every stage of the chain below the default cap, its self-map, its map
    # to the stage before, and the triangles through them: the certificate
    # by structure and generators equals the one over all elements
    pair, stages = PairDescriptor.planar_gl2(p), []
    for i in range(len(seeds) + 1):
        fam = make_coset_family(pair, seeds[:i])
        try:
            stages.append(build_stage(fam, make_envelope(fam)))
        except BoundReached:
            break
    maps = {}
    for i, fine in enumerate(stages):
        for j in {i, max(i - 1, 0)}:
            maps[i, j] = cm = ConnectingMap(fine, stages[j])
            assert cm.verify() == all_pairs_verify(cm)
            assert cm.verify()["homomorphism"] and cm.verify()["surjective"]
    for (i, j), via in maps.items():
        for k in {j, max(j - 1, 0)}:
            if (i, j) != (j, k):
                down, direct = maps[j, k], ConnectingMap(stages[i], stages[k])
                assert triangle_commutes(via, down) is True
                assert elementwise_triangle(via, down, direct) is True


@pytest.mark.parametrize("dropped", range(5))
def test_connecting_verify_surjectivity_reads_every_generator(stage1, stage2, dropped,
                                                              monkeypatch):
    # a fine stage whose generating set misses one coarse generator (the
    # M basis vectors, then the three R generators): the certificate must
    # not call the map onto, whichever generator it is
    gens = stage2.generators()
    assert len(gens) == 5
    gens[dropped] = stage2.identity()
    monkeypatch.setattr(stage2, "generators", lambda: list(gens))
    rep = ConnectingMap(stage2, stage1).verify()
    assert (rep["surjective"], rep["kernel_size"]) == (False, None)


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
    # only the M-axis multiplies, once on each side; the R-axis is certified
    # by structure (491,520 calls when every element meets every generator)
    assert calls <= 2 * len(stage2.generators()) * len(stage2.m_elements) == 160


def _counting_keys(monkeypatch, *stages):
    """Count the ``key`` calls of each stage, in a dict by stage."""
    counts = {}
    for st in stages:
        def counted(r, st=st, key=st.key):
            counts[st] = counts.get(st, 0) + 1
            return key(r)
        monkeypatch.setattr(st, "key", counted)
    return counts


def test_connecting_verify_keys_per_m_point_only(stage1, stage2, monkeypatch):
    # the R-axis forms no key: a key is formed per generator, and per
    # generator and m point on the M-axis (80 products on each side), on
    # neither side per residue coset (3,072 fine, 48 coarse)
    cm = ConnectingMap(stage2, stage1)
    counts = _counting_keys(monkeypatch, stage1, stage2)
    rep = cm.verify()
    assert rep["homomorphism"] and rep["surjective"]
    gens = len(stage2.generators())
    assert (gens, len(stage2.m_elements), stage2.r_index) == (5, 16, 3072)
    assert counts[stage2] <= gens * 16 + 2 * gens + 1
    assert counts[stage1] <= gens * 16 + 2 * gens + 1


def test_connecting_verify_into_stage0_compares_no_m_point(stage0, stage1, stage2,
                                                           stage_p3, monkeypatch):
    # stage 0 has order 1: both factors are certified by structure and
    # generators, with no product; the elementwise oracle agrees
    fam = make_coset_family(stage_p3.pair, [])
    p3_trivial = build_stage(fam, make_envelope(fam))
    for stage, trivial in ((stage1, stage0), (stage2, stage0), (stage_p3, p3_trivial)):
        assert trivial.order == 1
        cm = ConnectingMap(stage, trivial)
        with monkeypatch.context() as patch:
            patch.setattr(TowerStage, "mul", None)
            counts = _counting_keys(patch, stage, trivial)
            rep = cm.verify()
        # one key for the identity, one per R generator
        assert counts[stage] == 1 + len(stage.pair.r_generators)
        assert rep == all_pairs_verify(cm)
        assert rep["homomorphism"] and rep["surjective"]


def _two_key_stage(pair, core=((1, 0, 0, 1), (0, 1, 1, 1), (1, 1, 1, 0))):
    """A level-2 stage over M / M = 0 whose R-factor is the image GL(2, Z/2)
    of R modulo a subgroup ``core``: by default its subgroup of order 3,
    which leaves two coset keys."""
    fam = make_coset_family(pair, [])
    env = EnvelopeLattice(scaled(Lattice.standard(), F(1, 2)))
    image = r_image_by_closure(pair, 2)
    return TowerStage(fam, env, core_lattice(fam), ResidueSubgroup(2, frozenset(core)),
                      len(image))


def test_connecting_verify_compares_a_two_key_factor(pair, stage1):
    # the sign of GL(2, Z/2) = S_3 is a homomorphism onto two coset keys
    two = _two_key_stage(pair)
    assert (two.m_index, two.r_index, two.order) == (1, 2, 2)
    cm = ConnectingMap(stage1, two)
    assert cm.verify() == all_pairs_verify(cm)
    assert cm.verify()["homomorphism"] and cm.verify()["surjective"]
    # modulo the non-normal subgroup {1, (0, 1; 1, 0)} its three left cosets
    # take no group law: M / M = 0 leaves no M-axis, so only the normality
    # check sees it
    bad = _two_key_stage(pair, [(1, 0, 0, 1), (0, 1, 1, 0)])
    assert bad.r_index == 3
    cm = ConnectingMap(stage1, bad)
    assert cm.verify()["homomorphism"] is False
    assert cm.verify() == all_pairs_verify(cm)
    # a fine core that does not reduce into the coarse one: the order-3
    # core against the trivial core at the same level
    with pytest.raises(NotComparable, match="fine residue core is not inside the coarse one"):
        ConnectingMap(two, _two_key_stage(pair, [(1, 0, 0, 1)]))


def count_listing(monkeypatch):
    """Count ``ResidueRing.chain`` walks (their levels), the residues drawn
    from their listings and the ``list_group`` calls."""
    counts = {"levels": [], "drawn": 0, "list_group": 0}
    chain, list_group = ResidueRing.chain, ResidueRing.list_group

    def counted_chain(ring, gens, bound):
        counts["levels"].append(ring.modulus)
        order, member, elements = chain(ring, gens, bound)

        def drawn():
            for m in elements:
                counts["drawn"] += 1
                yield m

        return order, member, drawn()

    def counted_list(ring, chain):
        counts["list_group"] += 1
        return list_group(ring, chain)

    monkeypatch.setattr(ResidueRing, "chain", counted_chain)
    monkeypatch.setattr(ResidueRing, "list_group", counted_list)
    return counts


@pytest.mark.parametrize("p, seeds", [(None, []), (2, [_D(2, 1)]), (2, [_D(2, 1), _D(4, 1)]),
                                      (3, [_D(3, 1)]), (3, [_D(3, 1), _D(1, 3)])])
def test_one_chain_per_gl2_stage(p, seeds, monkeypatch):
    # the chain certifies |SL+-(2, Z/level)|, and nothing lists it: one walk
    # per accepted stage, at the stage level, with no residue drawn
    fam, env = _family_envelope(p, seeds)
    counts = count_listing(monkeypatch)
    stage = build_stage(fam, env)
    assert counts == {"levels": [stage.level], "drawn": 0, "list_group": 0}
    monkeypatch.undo()
    image = r_image_by_closure(fam.pair, stage.level)
    assert len({stage.key(r) for r in image}) == stage.r_index


@pytest.mark.parametrize("name", ["stage0", "stage1", "stage2", "stage_p3"])
def test_coset_keys_are_least_members(request, name):
    stage = request.getfixturevalue(name)
    ring, core = stage._ring, stage.r_core.elements
    image = r_image_by_closure(stage.pair, stage.level)
    for r in image:
        key = stage.key(r)
        # the key lies in the coset r.core and is its least member
        assert ring.mat_mul(ring.mat_inv(r), key) in core
        assert all(key <= ring.mat_mul(r, c) for c in core)
    assert len({stage.key(r) for r in image}) == stage.r_index


def test_stage_rejects_corrupted_image(pair):
    fam = make_coset_family(pair, [Mat2.diag(2, 1)])
    env = make_envelope(fam)
    r_core = build_stage(fam, env).r_core
    image = frozenset(r_image_by_closure(pair, r_core.level))
    assert len(image) == 96 and len(r_core.elements) == 2
    # an image order one short, as if a residue were dropped: the core's
    # order does not divide it
    with pytest.raises(CertificateFailed, match="^a residue core of 2 elements does not "
                                                "divide the image order 95$"):
        TowerStage(fam, env, core_lattice(fam), r_core, len(image) - 1)


def test_stage_rejects_a_short_chain(pair, monkeypatch):
    # a chain that drops the R generator (1, 0; 0, -1) walks SL(2, Z/4), of
    # order 48, short of |SL+-(2, Z/4)| = 96: the stage fails its certificate
    chain = ResidueRing.chain

    def dropping(ring, gens, bound):
        return chain(ring, [g for g in gens if g != ring.reduce_mat((1, 0, 0, -1))], bound)

    monkeypatch.setattr(ResidueRing, "chain", dropping)
    fam = make_coset_family(pair, [Mat2.diag(2, 1)])
    with pytest.raises(CertificateFailed, match=r"^the image of R mod 4 is not SL\+-\(2, Z/4\)$"):
        build_stage(fam, make_envelope(fam))


def test_integer_inputs_are_checked(pair):
    with pytest.raises(ValueError):
        _primitive_int(1, 2, 2, 4)
    # a stage takes its core as an integer triple only once its index in
    # M = Z^2 has certified that the core's denominator is 1
    fam = make_coset_family(pair, [])
    env = make_envelope(fam)
    r_core = build_stage(fam, env).r_core
    with pytest.raises(NotSublattice):
        TowerStage(fam, env, scaled(Lattice.standard(), F(1, 2)), r_core, 1)


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
