import random
from fractions import Fraction

import pytest

from heckepairs.arith import Lattice, Mat2, ResidueRing, unit_sign
from heckepairs.errors import (
    BoundReached,
    CertificateFailed,
    ConfigInvalid,
    DescriptorMismatch,
    NotInQ,
)
from heckepairs.grouppair import (
    PairDescriptor,
    ResidueSubgroup,
    check_record,
    downward_directed_report,
    hecke_indices_report,
    index_m_cap_conj,
    index_r_cap_conj,
    index_r_cap_conj_residue,
    index_r_coset_stab,
    m_cap_conj,
    r_image_chain,
    r_image_mod,
    reduced_stage_report,
    stabilizer_identities_report,
    worst_verdict,
)

from oracles import (
    close_with_inverses,
    fraction_r_q_index,
    r_image_by_closure,
    r_q_count_by_filter,
    rectangular,
    slpm_elements_mod,
    vector_orbit,
)

F = Fraction


@pytest.fixture(scope="module")
def gl2_z12():
    return PairDescriptor.planar_gl2(p=2)


@pytest.fixture(scope="module")
def gl2_q():
    return PairDescriptor.planar_gl2()


@pytest.fixture(scope="module")
def heis():
    return PairDescriptor.heisenberg()


@pytest.fixture(scope="module")
def quad2():
    return PairDescriptor.quad_torus(2)


def random_element(pair, rng):
    if pair.family == "heisenberg":
        n = (F(rng.randint(0, 5), rng.choice([1, 2, 3])),
             F(rng.randint(-6, 6), rng.choice([1, 2, 3, 4])))
        return pair.element(n, F(rng.randint(-6, 6), rng.choice([1, 2, 3])))
    while True:
        if pair.q_kind == "quad_torus":
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            q = Mat2.of(a, pair.d * b, b, a)
            if q.det() == 0:
                continue
        else:
            k = rng.randint(-2, 2)
            q = Mat2.of(*(rng.randint(-3, 3) for _ in range(4)))
            if pair.p is not None:
                q = Mat2.scalar(F(pair.p) ** k) * q
                det = q.det()
                if unit_sign(det, pair.p) is None:
                    continue
            elif q.det() == 0:
                continue
        den = rng.choice([1, 1, 2, 4]) if pair.p == 2 else rng.choice([1, 2, 3])
        n = (F(rng.randint(-8, 8), den), F(rng.randint(-8, 8), den))
        return pair.element(n, q)


# ---------------------------------------------------------------------------
# group law


def test_mul_examples(gl2_q):
    pair = gl2_q
    ident = pair.identity()
    x = pair.element((F(1), F(2)), Mat2.diag(2, 1))
    assert pair.mul(ident, x) == x and pair.mul(x, ident) == x
    a = pair.element((1, 0), Mat2.identity())
    b = pair.element((0, 1), Mat2.identity())
    assert pair.mul(a, b) == pair.element((1, 1), Mat2.identity())
    c = pair.element((0, 0), Mat2.diag(2, 1))
    t = pair.element((1, 0), Mat2.identity())
    assert pair.mul(c, t) == pair.element((2, 0), Mat2.diag(2, 1))


def test_inv_examples(gl2_q):
    pair = gl2_q
    assert pair.inv(pair.identity()) == pair.identity()
    assert pair.inv(pair.element((1, 0), Mat2.identity())) == \
        pair.element((-1, 0), Mat2.identity())
    assert pair.inv(pair.element((0, 0), Mat2.diag(2, 1))) == \
        pair.element((0, 0), Mat2.diag(F(1, 2), 1))


@pytest.mark.parametrize("fixture", ["gl2_z12", "gl2_q", "heis", "quad2"])
def test_group_axioms_random(fixture, request):
    pair = request.getfixturevalue(fixture)
    rng = random.Random(101)
    ident = pair.identity()
    for _ in range(1000):
        x, y, z = (random_element(pair, rng) for _ in range(3))
        assert pair.mul(pair.mul(x, y), z) == pair.mul(x, pair.mul(y, z))
        assert pair.mul(x, pair.inv(x)) == ident
        assert pair.mul(pair.inv(x), x) == ident


def test_descriptor_mismatch(gl2_q, heis):
    with pytest.raises(DescriptorMismatch):
        gl2_q.mul(gl2_q.identity(), heis.identity())


def test_element_validation(gl2_z12):
    with pytest.raises(NotInQ):
        gl2_z12.element((0, 0), Mat2.diag(3, 1))  # det 3 not a unit in Z[1/2]
    with pytest.raises(NotInQ):
        gl2_z12.element((F(1, 3), 0), Mat2.identity())  # 1/3 outside Z[1/2]


def test_in_h(gl2_q):
    pair = gl2_q
    assert pair.in_h(pair.identity())
    assert not pair.in_h(pair.element((F(1, 2), 0), Mat2.identity()))
    assert not pair.in_h(pair.element((0, 0), Mat2.diag(2, 1)))


def test_heisenberg_reduction(heis):
    x = heis.element((F(7, 2), F(3)), F(5, 2))
    assert x.n[0] == F(1, 2)  # first coordinate lives in Q/Z


# ---------------------------------------------------------------------------
# index computations


def test_m_cap_conj_examples(gl2_q):
    pair = gl2_q
    for p in (2, 3, 5):
        assert m_cap_conj(pair, Mat2.diag(p, 1)) == rectangular(p, 1)
    # q in R normalizes M
    assert m_cap_conj(pair, Mat2.of(1, 1, 0, 1)) == Lattice.standard()
    # expanding conjugate meets M in all of M
    assert m_cap_conj(pair, Mat2.diag(F(1, 2), 1)) == Lattice.standard()


def test_m_cap_conj_box_oracle(gl2_q):
    from oracles import lattice_box_points

    q = Mat2.diag(3, 1)
    lat = m_cap_conj(gl2_q, q)
    pts_m = lattice_box_points(Lattice.standard(), 8)
    pts_conj = lattice_box_points(rectangular(3, 1), 8)
    assert lattice_box_points(lat, 8) == pts_m & pts_conj


def test_index_r_cap_conj_trivial(gl2_z12):
    assert index_r_cap_conj(gl2_z12, Mat2.identity()) == 1
    assert index_r_cap_conj(gl2_z12, Mat2.of(1, 1, 0, 1)) == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_index_r_cap_conj_diag(p, gl2_q):
    # oracle: orbit-stabilizer count inside the exhaustive group mod p
    q = Mat2.diag(p, 1)
    assert index_r_cap_conj(gl2_q, q) == p + 1
    group = slpm_elements_mod(p)
    qinv = q.inv()
    stab = [r for r in group if (qinv * Mat2.of(*r) * q).is_integral()]
    assert len(group) % len(stab) == 0
    assert len(group) // len(stab) == p + 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_index_r_cap_conj_residue_agrees(p, gl2_q):
    q = Mat2.diag(p, 1)
    assert index_r_cap_conj_residue(gl2_q, q) == p + 1
    q2 = Mat2.of(1, 1, 0, 1) * Mat2.diag(p, 1)
    assert index_r_cap_conj_residue(gl2_q, q2) == index_r_cap_conj(gl2_q, q2)


_SHEAR = Mat2.of(1, 1, 0, 1)

# (p, q) with the level |det| of the integralized q at most 27: diagonal,
# sheared, non-integral, scalar and full (no zero entry) q over Z[1/2],
# Z[1/3], Z[1/5], and Q
_R_Q_CASES = [
    (2, Mat2.diag(4, 2)), (2, _SHEAR * Mat2.diag(4, 1)),
    (2, Mat2.diag(F(1, 2), 4)), (2, Mat2.scalar(2)),
    (3, Mat2.diag(27, 1)), (3, _SHEAR * Mat2.diag(9, 1)),
    (3, Mat2.diag(F(1, 3), 3)), (3, Mat2.scalar(3)), (3, Mat2.of(2, 1, 1, 2)),
    (5, Mat2.diag(5, 1)), (5, _SHEAR * Mat2.diag(5, 1)),
    (5, Mat2.diag(F(1, 5), 1)), (5, Mat2.of(3, 1, 1, 2)),
    (None, Mat2.diag(2, 3)), (None, _SHEAR * Mat2.diag(4, 3)),
    (None, Mat2.diag(F(2, 3), 1)), (None, Mat2.scalar(F(2, 3))),
    (None, Mat2.of(2, 1, 1, 3)),
]


@pytest.mark.parametrize("p, q", _R_Q_CASES, ids=[f"{p}-{q}" for p, q in _R_Q_CASES])
def test_index_r_cap_conj_residue_matches_fraction_oracle(p, q):
    pair = PairDescriptor.planar_gl2(p)
    assert pair.in_q(q)
    s, (a, b, c, d) = q.integralize()
    level = abs(a * d - b * c)
    assert level <= 27 and Mat2.of(a, b, c, d) == Mat2.scalar(s) * q
    index = index_r_cap_conj_residue(pair, q)
    assert index == fraction_r_q_index(r_image_by_closure(pair, level), q)
    assert index == index_r_cap_conj(pair, q)


_A, _B, _LOWER = Mat2.of(2, 1, 1, 1), Mat2.of(3, 1, 1, 1), Mat2.of(1, 0, 1, 1)

# (p, q) with levels from 2 to 40, none of them diagonal and many with
# first columns that meet a congruence no line can solve
_COLUMN_CASES = [
    (2, Mat2.diag(2, 1)), (2, _SHEAR * Mat2.diag(8, 1)),
    (2, _A * Mat2.diag(4, F(1, 2))), (2, _B * Mat2.diag(16, 1)),
    (2, Mat2.diag(F(1, 2), 4) * _LOWER), (2, _LOWER * Mat2.scalar(2) * _SHEAR * Mat2.diag(1, 2)),
    (3, Mat2.diag(3, 1)), (3, _LOWER * Mat2.diag(9, 1)),
    (3, _A * Mat2.diag(F(1, 3), 3) * _SHEAR), (3, Mat2.of(5, 2, 2, 1) * Mat2.diag(27, 1)),
    (3, Mat2.of(2, 1, 1, 2) * Mat2.diag(1, 3)),
    (None, Mat2.of(2, 1, 1, 3)), (None, Mat2.diag(5, 7) * _SHEAR),
    (None, _A * Mat2.diag(F(3, 2), 4)), (None, Mat2.of(4, 5, 1, 3) * Mat2.diag(2, 1)),
    (None, Mat2.of(8, 3, 0, 5)), (None, Mat2.of(4, 2, 2, 6)),
    (None, Mat2.scalar(F(2, 3)) * Mat2.of(3, 1, 1, 2)),
]


@pytest.mark.parametrize("p, q", _COLUMN_CASES,
                         ids=[f"{p}-{q}" for p, q in _COLUMN_CASES])
def test_column_count_matches_filter(p, q):
    pair = PairDescriptor.planar_gl2(p)
    s, (a, b, c, d) = q.integralize()
    assert pair.in_q(q) and 2 <= abs(a * d - b * c) <= 40
    assert index_r_cap_conj_residue(pair, q) == r_q_count_by_filter(pair, q)


def test_residue_index_checks_its_bounds_first(monkeypatch):
    # diag(49, 7) has level 343: 2 J_2(343) = 230,496 (first column, det)
    # pairs; the chain is not run above the bound
    pair, q = PairDescriptor.planar_gl2(7), Mat2.diag(49, 7)
    monkeypatch.setattr(ResidueRing, "chain", None)
    with pytest.raises(BoundReached, match="230496 first columns"):
        index_r_cap_conj_residue(pair, q, 1000)
    rep = hecke_indices_report(pair, [q], [])
    assert rep["verdict"] == "pass"
    assert rep["checks"][0]["outputs"] == {"index_m": 343, "index_r": 8}


def test_residue_index_needs_the_whole_image(monkeypatch, gl2_q):
    # the column count holds only for the image SL+-(2, Z/s)
    chain = ResidueRing.chain
    monkeypatch.setattr(ResidueRing, "chain",
                        lambda ring, gens, bound: (chain(ring, gens[:2], bound)[0], None))
    with pytest.raises(CertificateFailed, match="not SL"):
        index_r_cap_conj_residue(gl2_q, Mat2.diag(3, 1))


@pytest.mark.parametrize("kwargs, q_out, n_out", [
    # q above the conductor cap: the residue index is dropped, q passes
    ({"conductor_cap": 6}, {"index_m": 7, "index_r": 8}, {"index": 48}),
    # 96 first columns mod 7 above the bound: dropped the same way
    ({"coset_bound": 48}, {"index_m": 7, "index_r": 8}, {"index": 48}),
    # the orbit of n + M (48 points) passes the bound: n is inconclusive
    ({"coset_bound": 47}, {"index_m": 7, "index_r": 8},
     {"error": "orbit of n + M mod 7 exceeded 47"}),
    # the orbit of qR (8 cosets) passes it too: q is inconclusive
    ({"coset_bound": 7}, {"error": "orbit of [[7,0],[0,1]] exceeded 7"},
     {"error": "orbit of n + M mod 7 exceeded 7"}),
], ids=["conductor", "columns", "n-orbit", "q-orbit"])
def test_hecke_indices_bounds_split_by_call(gl2_q, kwargs, q_out, n_out):
    # a bound reached by the residue index drops it; one reached by an
    # orbit makes its record inconclusive
    rep = hecke_indices_report(gl2_q, [Mat2.diag(7, 1)], [(F(1, 7), F(0))], **kwargs)
    verdicts = ["inconclusive" if "error" in out else "pass" for out in (q_out, n_out)]
    assert [(c["name"], c["outputs"], c["verdict"]) for c in rep["checks"]] == [
        ("hecke_index_q", q_out, verdicts[0]), ("hecke_index_n", n_out, verdicts[1])]
    assert rep["verdict"] == max(verdicts, key=("pass", "inconclusive").index)


def test_orbits_of_n_stop_at_the_bound(gl2_q):
    # (1/7, 0) + M has an orbit of J_2(7) = 48 points
    assert index_r_coset_stab(gl2_q, (F(1, 7), F(0)), 48) == 48
    with pytest.raises(BoundReached, match=r"^orbit of n \+ M mod 7 exceeded 47$"):
        index_r_coset_stab(gl2_q, (F(1, 7), F(0)), 47)
    rep = hecke_indices_report(gl2_q, [], [(F(1, 7), F(0))], coset_bound=47)
    assert rep["verdict"] == "inconclusive"
    assert "exceeded 47" in rep["checks"][0]["outputs"]["error"]


@pytest.mark.parametrize("pair", [
    PairDescriptor.planar_gl2(p=2),
    PairDescriptor.quad_torus(2),
    PairDescriptor.quad_torus(3),
], ids=["gl2-z12", "quad-d2", "quad-d3"])
def test_r_image_mod_matches_closure_with_inverses(pair):
    # the image of R mod s, listed from its stabilizer chain, which steps
    # with the R generators alone (enough in a finite group); the oracle
    # also steps with their inverses
    for s in range(1, 17):
        ring = ResidueRing(s)
        gens = [ring.reduce_mat(g) for g in pair.r_generators]
        image = r_image_mod(pair, s, None)
        assert image == close_with_inverses(ring, gens), s
        assert len(image) == r_image_chain(pair, s, None)[0], s


def test_r_image_mod_order_closed_form(gl2_z12):
    # |SL+-(2, Z/s)| = c s^3 prod_{p | s} (1 - p^-2), c = 2 for s > 2,
    # c = 1 for s = 2, and 1 for s = 1: R = GL(2, Z) maps onto it
    for s in range(1, 25):
        order, rest, p = s ** 3, s, 2
        while rest > 1:
            if rest % p == 0:
                order = order // (p * p) * (p * p - 1)
                while rest % p == 0:
                    rest //= p
            p += 1
        order *= 2 if s > 2 else 1
        assert len(r_image_mod(gl2_z12, s, None)) == order, s
        assert r_image_chain(gl2_z12, s, None)[0] == order, s


def test_index_r_cap_conj_abelian(quad2, heis):
    q = Mat2.of(3, 2 * 1, 1, 3)
    assert index_r_cap_conj(quad2, q) == 1
    assert index_r_cap_conj(heis, F(1, 2)) == 1


def test_index_r_coset_stab(gl2_z12, gl2_q, heis):
    assert index_r_coset_stab(gl2_q, (F(1), F(2))) == 1
    for p in (2, 3, 5):
        # oracle: orbit of (1, 0) under the exhaustive mod-p group
        assert index_r_coset_stab(gl2_q, (F(1, p), F(0))) == p * p - 1
        orbit = vector_orbit(slpm_elements_mod(p), (1, 0), p)
        assert len(orbit) == p * p - 1
    assert index_r_coset_stab(gl2_z12, (F(1, 2), F(1, 2))) == 3
    assert len(vector_orbit(slpm_elements_mod(2), (1, 1), 2)) == 3
    for m in (1, 4, 6, 9):
        assert index_r_coset_stab(heis, (F(0), F(1, m))) == m


def test_index_r_coset_stab_depends_only_on_coset(gl2_z12):
    rng = random.Random(5)
    for _ in range(50):
        n = (F(rng.randint(-8, 8), 4), F(rng.randint(-8, 8), 2))
        shift = (n[0] + rng.randint(-3, 3), n[1] + rng.randint(-3, 3))
        assert index_r_coset_stab(gl2_z12, n) == index_r_coset_stab(gl2_z12, shift)


def test_m_cap_conj_index_heisenberg(heis):
    for den in (1, 2, 6):
        assert index_m_cap_conj(heis, F(1, den)) == den


# ---------------------------------------------------------------------------
# reports


def test_hecke_report_gl2(gl2_z12):
    rep = hecke_indices_report(
        gl2_z12,
        [Mat2.diag(2, 1)],
        [(F(1, 2), F(0))],
    )
    assert rep["verdict"] == "pass"
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["hecke_index_q"]["outputs"]["index_m"] == 2
    assert by_name["hecke_index_q"]["outputs"]["index_r"] == 3
    assert by_name["hecke_index_n"]["outputs"]["index"] == 3


def test_hecke_report_all_in_h(gl2_z12):
    rep = hecke_indices_report(
        gl2_z12, [Mat2.of(1, 1, 0, 1)], [(F(1), F(1))]
    )
    for c in rep["checks"]:
        for v in c["outputs"].values():
            assert v == 1


def test_hecke_report_heisenberg(heis):
    rep = hecke_indices_report(heis, [F(1, 3)], [(F(0), F(1, 6))])
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["hecke_index_n"]["outputs"]["index"] == 6
    assert rep["verdict"] == "pass"


def test_reduced_stage_example(gl2_q):
    stage = [Mat2.diag(2, 1), Mat2.diag(1, 2), Mat2.diag(4, 1)]
    rep = reduced_stage_report(gl2_q, stage)
    assert rep["m_index"] == 8
    assert rep["m_lattice"] == "[[4,0],[0,2]]"


def test_reduced_stage_trivial(gl2_q):
    rep = reduced_stage_report(gl2_q, [Mat2.identity()])
    assert rep["m_index"] == 1
    assert rep["verdict"] == "inconclusive"


def test_reduced_stage_nested_certifies(gl2_z12):
    first = reduced_stage_report(gl2_z12, [Mat2.diag(2, 1), Mat2.diag(1, 2)])
    second = reduced_stage_report(
        gl2_z12,
        [Mat2.diag(2, 1), Mat2.diag(1, 2), Mat2.diag(4, 1), Mat2.diag(1, 4)],
        prev=first,
    )
    assert second["verdict"] == "certified"


def test_reduced_stage_order_stops_at_the_bound(gl2_q):
    # level 7: the orbit of e1 has J_2(7) = 48 points, |SL+-(2, Z/7)| = 672
    stage = [Mat2.diag(7, 1), Mat2.diag(1, 7)]
    assert reduced_stage_report(gl2_q, stage, bound=48)["r_index"] == 672
    with pytest.raises(BoundReached, match="^orbit of e1 mod 7 exceeded 47 points$"):
        reduced_stage_report(gl2_q, stage, bound=47)


def test_reduced_quad_unit_acts_nontrivially(quad2):
    # the fundamental unit must stay visible at level 3
    rep = reduced_stage_report(quad2, [Mat2.of(1, 2, 1, 1)], level=3)
    assert rep["kernel_witnesses"] == []


def test_stab_identities(gl2_z12):
    pair = gl2_z12
    rng = random.Random(31)
    xs = [
        pair.element((F(1, 2), F(0)), Mat2.identity()),
        pair.element((0, 0), Mat2.diag(2, 1)),
        pair.element((F(1, 2), F(1, 2)), Mat2.diag(2, 1)),
    ]
    hs = [pair.identity(), pair.element((1, 0), Mat2.identity()),
          pair.element((0, 0), Mat2.of(1, 1, 0, 1)),
          pair.element((1, 1), Mat2.of(1, 0, 1, 1))]
    for _ in range(10):
        h = random_element(pair, rng)
        if pair.in_h(h):
            hs.append(h)
    rep = stabilizer_identities_report(pair, xs, hs)
    assert rep["verdict"] == "pass"


def test_stab_identities_specific(gl2_z12):
    pair = gl2_z12
    # h = ((1,0), I) lies in M, hence in H_n for n = (1/2, 0)
    x = pair.element((F(1, 2), F(0)), Mat2.identity())
    h = pair.element((1, 0), Mat2.identity())
    rep = stabilizer_identities_report(pair, [x], [h])
    rec = [c for c in rep["checks"] if c["name"] == "stab_identity"][0]
    assert rec["outputs"]["h_in_H_n"] == [True, True]
    # h = shear (1,1;0,1) moves n = (1/2, 0): (r - 1)n has second entry 1/2
    h2 = pair.element((0, 0), Mat2.of(1, 0, 1, 1))
    rep2 = stabilizer_identities_report(pair, [x], [h2])
    rec2 = [c for c in rep2["checks"] if c["name"] == "stab_identity"][0]
    assert rec2["outputs"]["h_in_H_n"] == [False, False]
    assert rep2["verdict"] == "pass"


def test_stab_identities_heisenberg(heis):
    rng = random.Random(37)
    xs = [heis.element((F(0), F(1, 6)), F(0)),
          heis.element((F(1, 2), F(1, 3)), F(1, 2))]
    hs = [heis.identity(), heis.element((0, 1), 0), heis.element((0, 0), 1),
          heis.element((0, 3), 2)]
    rep = stabilizer_identities_report(heis, xs, hs)
    assert rep["verdict"] == "pass"


@pytest.mark.parametrize("name", ["gl2_z12", "heis"])
def test_stab_identities_build_no_fractions(name, request, monkeypatch):
    # the identities are decided on the integer group law and integer
    # congruences: not one Fraction is built on the samples of pair verify
    from heckepairs.cli import _default_samples, _random_h_elements

    pair = request.getfixturevalue(name)
    qs, ns, _ = _default_samples(pair)
    one = F(0) if pair.family == "heisenberg" else Mat2.identity()
    xs = [pair.element((0, 0), q) for q in qs[:2]] + [pair.element(n, one) for n in ns[:2]]
    hs = _random_h_elements(pair, random.Random(0), 8)
    built = 0
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    rep = stabilizer_identities_report(pair, xs, hs)
    monkeypatch.undo()
    assert rep["verdict"] == "pass"
    assert built == 0


def test_stab_identities_fail_without_r_q_conditions(gl2_z12, monkeypatch):
    # q^-1 r q = (1, 1/2; 0, 1) for q = diag(2, 1) and the shear r, so h is
    # not in H_q; with no R_q congruences the right side would say it is,
    # so the right side is not the left side in disguise
    from heckepairs import grouppair

    x = gl2_z12.element((0, 0), Mat2.diag(2, 1))
    h = gl2_z12.element((0, 0), Mat2.of(1, 1, 0, 1))
    rec = stabilizer_identities_report(gl2_z12, [x], [h])["checks"][0]
    assert rec["outputs"]["h_in_H_q"] == [False, False]
    monkeypatch.setattr(grouppair, "_r_q_conditions", lambda *args: [])
    rep = stabilizer_identities_report(gl2_z12, [x], [h])
    assert rep["checks"][0]["outputs"]["h_in_H_q"] == [False, True]
    assert rep["verdict"] == "fail"
    assert any(c["verdict"] == "fail" for c in rep["checks"])


def test_residue_subgroup_not_normal_under_r(gl2_z12):
    # the stabilizer of (1, 0) mod 2 inside the mod-2 image of R
    image = slpm_elements_mod(2)
    stab = ResidueSubgroup(2, frozenset(r for r in image if (r[0], r[2]) == (1, 0)))
    gens = [tuple(e % 2 for e in g) for g in gl2_z12.r_generators]
    assert len(stab) == 2
    assert stab.is_normal_under(gens) is False  # stabilizer of a point
    assert ResidueSubgroup(2, frozenset(image)).is_normal_under(gens) is True


def test_check_record_rejects_bad_verdict():
    rec = check_record("c", "law", {}, {}, "inconclusive")
    assert rec["verdict"] == "inconclusive"
    with pytest.raises(ValueError):
        check_record("c", "law", {}, {}, "certified")


def test_worst_verdict():
    def recs(*verdicts):
        return [check_record("c", "law", {}, {}, v) for v in verdicts]

    assert worst_verdict([]) == "pass"
    assert worst_verdict(recs("pass", "pass")) == "pass"
    assert worst_verdict(recs("pass", "inconclusive")) == "inconclusive"
    assert worst_verdict(recs("inconclusive", "fail", "pass")) == "fail"


def test_downward_directed(gl2_q):
    rep = downward_directed_report(
        gl2_q, [Mat2.diag(2, 1), Mat2.diag(1, 2)]
    )
    assert rep["verdict"] == "pass"
    rec = rep["checks"][1]  # the (diag(2,1), diag(1,2)) pair
    assert rec["outputs"]["witness"] == "[[2,0],[0,2]]"


def test_downward_directed_mixed(gl2_q):
    q1 = Mat2.of(1, 1, 0, 1) * Mat2.diag(2, 1)
    q2 = Mat2.diag(3, 1)
    rep = downward_directed_report(gl2_q, [q1, q2])
    assert rep["verdict"] == "pass"
    rec = [c for c in rep["checks"]
           if c["inputs"]["q1"] != c["inputs"]["q2"]][0]
    assert rec["outputs"]["witness"] == "[[6,0],[0,6]]"


def test_downward_directed_identity(gl2_q):
    rep = downward_directed_report(gl2_q, [Mat2.identity(), Mat2.identity()])
    assert rep["verdict"] == "pass"
    assert rep["checks"][0]["outputs"]["witness"] == "[[1,0],[0,1]]"


def test_downward_directed_needs_scalars(heis):
    with pytest.raises(ValueError):
        downward_directed_report(heis, [F(1)])


# ---------------------------------------------------------------------------
# configuration round trip


def test_config_round_trip(gl2_z12, heis, quad2):
    for pair in (gl2_z12, heis, quad2):
        assert PairDescriptor.from_config(pair.to_config()) == pair


def test_config_rejects_bad_input():
    with pytest.raises(ConfigInvalid):
        PairDescriptor.from_config({"family": "nonsense"})
    with pytest.raises(ConfigInvalid):
        PairDescriptor.from_config({"family": "planar", "Q_kind": "full_gl2",
                                    "base_ring": "Z[1/p]", "p": 6})
    with pytest.raises(ConfigInvalid):
        PairDescriptor.from_config({"family": "planar"})
    for d in (5, 4, -1):
        with pytest.raises(ConfigInvalid):
            PairDescriptor.from_config({"family": "planar", "Q_kind": "quad_torus",
                                        "d": d})


def test_config_accepts_only_the_default_m_and_r(gl2_z12, heis):
    readme = {
        "family": "planar", "base_ring": "Z[1/p]", "p": 2, "Q_kind": "full_gl2",
        "M_basis": [["1", "0"], ["0", "1"]],
        "R_generators": [[["1", "1"], ["0", "1"]], [["1", "0"], ["1", "1"]],
                         [["1", "0"], ["0", "-1"]]],
    }
    assert PairDescriptor.from_config(readme) == gl2_z12
    # another basis of Z^2 is the same M
    assert PairDescriptor.from_config(
        {**readme, "M_basis": [["1", "1"], ["0", "1"]]}) == gl2_z12
    bad = [
        {**readme, "M_basis": [["1", "0"], ["0", "2"]]},
        {**readme, "M_basis": [["1", "0"], ["0", "0"]]},
        {**readme, "R_generators": readme["R_generators"][:2]},
        {**readme, "R_generators": [[["1", "1"], ["0", "1"]], [["1", "0"], ["0", "-1"]],
                                    [["1", "0"], ["2", "1"]], [["-1", "0"], ["0", "1"]]]},
        {"family": "heisenberg", "R_generators": ["2"]},
        {"family": "heisenberg", "M_basis": [["1", "0"], ["0", "1"]]},
    ]
    for cfg in bad:
        with pytest.raises(ConfigInvalid):
            PairDescriptor.from_config(cfg)
    assert PairDescriptor.from_config({"family": "heisenberg",
                                       "R_generators": ["1"]}) == heis


def test_conjugation_consistency_r_normalizes_m(gl2_q, quad2):
    for pair in (gl2_q, quad2):
        for g in pair.r_generators:
            assert m_cap_conj(pair, (1, g)) == pair.m_lattice


def test_n_meet_conjugate_of_h_is_transformed_lattice(gl2_z12):
    # For x = q.n, the translations inside xHx^-1 form exactly the lattice
    # q.M, whatever n is; membership is tested on the raw group law.
    from heckepairs.arith import transform_lattice

    pair = gl2_z12
    cases = [
        (Mat2.diag(2, 1), (F(1, 2), F(0))),
        (Mat2.of(1, 1, 0, 1) * Mat2.diag(2, 1), (F(1, 4), F(1, 2))),
        (Mat2.diag(F(1, 2), 1), (F(3, 4), F(1, 2))),
    ]
    for q, n in cases:
        x = pair.element(q.apply(n), q)
        qm = transform_lattice(q, pair.m_lattice)
        xi = pair.inv(x)
        for i in range(-8, 9):
            for j in range(-8, 9):
                v = (F(i, 4), F(j, 4))
                velem = pair.element(v, Mat2.identity())
                in_conj = pair.in_h(pair.mul(pair.mul(xi, velem), x))
                assert in_conj == qm.contains(v)
