"""Property tests for the integer group law, the canonical cosets, the
left cosets of a double coset, the stabilizer identities and the integer
lattice layer.

The oracles recompute products, inverses and membership in H with plain
``Fraction`` arithmetic from the ``.n``/``.q`` views of the elements, and
lattice sums, meets, images, indices and membership from Fraction bases,
so they share no code with the integer kernels under test.  The left
cosets inside HxH are checked against a search over the generators of H.
Convolution is checked against the product over all pairs of left
representatives, and on the degree-0 elements [HnH] against orbit sums in
the fixed-point algebra C[N/M]^R.
"""

from fractions import Fraction as F
from math import lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from heckepairs.arith import (  # noqa: E402
    Lattice,
    Mat2,
    lattice_index,
    lattice_intersect,
    lattice_sum,
    transform_lattice,
)
from heckepairs.cosets import (  # noqa: E402
    HeckeElement,
    _r_orbit,
    convolve,
    delta,
    double_coset,
    forget_double_cosets,
    l_of,
)
from heckepairs.errors import BoundReached  # noqa: E402
from heckepairs.grouppair import (  # noqa: E402
    GElem,
    PairDescriptor,
    _r_q_conditions,
    column_solutions,
    m_cap_conj,
    stabilizer_identities_report,
)

from oracles import (  # noqa: E402
    all_pairs_convolve,
    bfs_left_cosets,
    classical_hecke_product,
    coset_key,
    fraction_contains,
    fraction_index,
    fraction_intersect,
    fraction_stab_identity,
    fraction_sum,
    fraction_transform,
    fraction_triple,
    fixed_point_product,
    hnf_columns,
    r_image_by_closure,
    r_orbit_mod,
    r_q_member_count,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

GL2_Z12 = PairDescriptor.planar_gl2(p=2)
GL2_Q = PairDescriptor.planar_gl2()
QUAD2 = PairDescriptor.quad_torus(2)
HEIS = PairDescriptor.heisenberg()
PAIRS = {"gl2_z12": GL2_Z12, "gl2_q": GL2_Q, "quad2": QUAD2, "heis": HEIS}

small = st.integers(-9, 9)


def _mm(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


@st.composite
def z12_elements(draw):
    # q = s(t1) l(t2) (e1 2^i, b/2^m; 0, e2 2^j) s(t3) scaled by 2^k: entries
    # in Z[1/2] and determinant +-2^(i+j+2k), a unit of Z[1/2]
    def shear(t):
        return (F(1), F(t), F(0), F(1))

    def lower(t):
        return (F(1), F(0), F(t), F(1))

    signs = st.sampled_from([-1, 1])
    tri = (F(draw(signs) * 2 ** draw(st.integers(0, 3))),
           F(draw(small), 2 ** draw(st.integers(0, 3))),
           F(0), F(draw(signs) * 2 ** draw(st.integers(0, 3))))
    q = _mm(_mm(_mm(shear(draw(small)), lower(draw(small))), tri), shear(draw(small)))
    scale = F(2) ** draw(st.integers(-3, 3))
    q = tuple(x * scale for x in q)
    n = tuple(F(draw(small), 2 ** draw(st.integers(0, 4))) for _ in range(2))
    return GL2_Z12.element(n, Mat2(*q))


fractions = st.builds(F, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def q_elements(draw):
    q = tuple(draw(fractions) for _ in range(4))
    assume(q[0] * q[3] - q[1] * q[2] != 0)
    n = (draw(fractions), draw(fractions))
    return GL2_Q.element(n, Mat2(*q))


@st.composite
def quad_elements(draw):
    den = draw(st.integers(1, 6))
    a, b = draw(small), draw(small)
    assume((a, b) != (0, 0))
    q = Mat2(F(a, den), F(2 * b, den), F(b, den), F(a, den))
    return QUAD2.element((draw(fractions), draw(fractions)), q)


@st.composite
def heis_elements(draw):
    return HEIS.element((draw(fractions), draw(fractions)), draw(fractions))


ELEMENTS = {"gl2_z12": z12_elements(), "gl2_q": q_elements(),
            "quad2": quad_elements(), "heis": heis_elements()}


# ---------------------------------------------------------------------------
# Fraction oracles


def oracle_mul(pair, x, y):
    (a1, u1), q1 = x.n, x.q
    (a2, u2), q2 = y.n, y.q
    if pair is HEIS:
        return ((a1 + a2 + q1 * u2) % 1, u1 + u2), q1 + q2
    n = (a1 + q1.a * a2 + q1.b * u2, u1 + q1.c * a2 + q1.d * u2)
    return n, Mat2(*_mm(q1.entries(), q2.entries()))


def oracle_inv(pair, x):
    (a, u), q = x.n, x.q
    if pair is HEIS:
        return ((q * u - a) % 1, -u), -q
    det = q.a * q.d - q.b * q.c
    qi = Mat2(q.d / det, -q.b / det, -q.c / det, q.a / det)
    return (-(qi.a * a + qi.b * u), -(qi.c * a + qi.d * u)), qi


def oracle_in_h(pair, x):
    (a, u), q = x.n, x.q
    if pair is HEIS:
        return a % 1 == 0 and u.denominator == 1 and q.denominator == 1
    ints = all(v.denominator == 1 for v in (a, u) + q.entries())
    return ints and abs(q.a * q.d - q.b * q.c) == 1


def assert_least_denominator(x):
    q = x.q
    qs = (q,) if isinstance(q, F) else q.entries()
    assert x.s == lcm(*(v.denominator for v in x.n + qs))


# ---------------------------------------------------------------------------
# properties


@pytest.mark.parametrize("name", PAIRS)
@SETTINGS
@given(data=st.data())
def test_mul_inv_match_fraction_oracle(name, data):
    pair = PAIRS[name]
    x, y = data.draw(ELEMENTS[name]), data.draw(ELEMENTS[name])
    z = pair.mul(x, y)
    assert (z.n, z.q) == oracle_mul(pair, x, y)
    assert_least_denominator(z)
    xi = pair.inv(x)
    assert (xi.n, xi.q) == oracle_inv(pair, x)
    assert_least_denominator(xi)
    # equal elements have equal fields, whichever way they were made
    parsed = pair.element(z.n, z.q)
    assert parsed == z and hash(parsed) == hash(z)


@pytest.mark.parametrize("name", PAIRS)
@SETTINGS
@given(data=st.data())
def test_canon_coset_is_a_coset_key(name, data):
    pair = PAIRS[name]
    x = data.draw(ELEMENTS[name])
    c = pair.canon_coset(x)
    assert pair.canon_coset(c) == c
    for h in pair.h_generators():
        assert pair.canon_coset(pair.mul(x, h)) == c
    # c lies in xH
    y = pair.mul(pair.inv(x), c)
    assert oracle_in_h(pair, y)
    assert pair.in_h(y)


def unreduced(x, k):
    """x with its numerators and denominator times k: the same element, not
    over its least denominator."""
    return GElem(x.s * k, tuple(c * k for c in x.v), x.pair)


@pytest.mark.parametrize("name", PAIRS)
@SETTINGS
@given(data=st.data())
def test_fused_products_match_canon_of_mul(name, data):
    # each coset kernel of the pair on unreduced inputs: _product against
    # the Fraction product, canon_mul and _canon of _product against
    # canon_coset(mul(x, y)) and the Fraction coset key, _orbit_step and
    # _class of _product against the Fraction class key, and the planar
    # _canon_q_ints against the q-part of the coset key; the keys are
    # homogeneous, so any common factor gives the same result
    pair = PAIRS[name]
    x, y = (data.draw(st.one_of(ELEMENTS[name], st.just(MIXED[name])))
            for _ in range(2))
    xy = pair.mul(x, y)
    c = pair.canon_coset(xy)
    assert (c.s, c.v) == coset_key(xy)
    cls = coset_key(xy, cls=True)
    for k, l in ((1, 1), (data.draw(st.integers(2, 6)), data.draw(st.integers(1, 6)))):
        xk, yl = unreduced(x, k), unreduced(y, l)
        t, w = pair._product(xk.s, xk.v, yl.s, yl.v)
        z = pair._reduced(t, w)
        assert (z.n, z.q) == oracle_mul(pair, x, y)
        assert pair.canon_mul(xk, yl) == pair._canon(t, w) == (c.s, c.v)
        assert pair._orbit_step(xk.s, xk.v, yl.s, yl.v) == pair._class(t, w) == cls
        assert pair.canon_coset(xk) == pair.canon_coset(x)
        if pair is not HEIS:
            assert [F(e, t) for e in pair._canon_q_ints(*w[2:])] == list(c.q.entries())


def test_h_generators_lie_in_h():
    for pair in PAIRS.values():
        for h in pair.h_generators():
            assert oracle_in_h(pair, h)


@st.composite
def small_gl2_elements(draw, pair, diagonal, dens):
    # q = u1 diag(e1, e2) u2 with u1, u2 in GL(2, Z), so L(x) stays small
    unimodular = st.sampled_from([(1, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 1),
                                  (0, 1, 1, 0), (2, 1, 1, 1), (1, 0, 0, -1)])
    diag = (F(draw(diagonal)), F(0), F(0), F(draw(diagonal)))
    q = _mm(_mm(draw(unimodular), diag), draw(unimodular))
    n = tuple(F(draw(small), draw(dens)) for _ in range(2))
    return pair.element(n, Mat2(*q))


SMALL_ELEMENTS = {
    "gl2_z12": small_gl2_elements(GL2_Z12, st.sampled_from([1, -1, 2, F(1, 2), 4]),
                                  st.sampled_from([1, 2, 4])),
    "gl2_q": small_gl2_elements(GL2_Q, st.sampled_from([1, 2, 3, F(1, 2), F(2, 3)]),
                                st.sampled_from([1, 2, 3, 6])),
    "quad2": quad_elements(),
    "heis": heis_elements(),
}

# elements (n, q) with n outside M and q outside R
MIXED = {
    "gl2_z12": GL2_Z12.element((F(1, 2), F(3, 4)), Mat2.of(2, 1, 0, 1)),
    "gl2_q": GL2_Q.element((F(1, 3), 0), Mat2.of(F(2, 3), 0, 1, 1)),
    "quad2": QUAD2.element((F(1, 3), F(1, 2)), Mat2.of(3, 2, 1, 3)),
    "heis": HEIS.element((F(1, 2), F(1, 3)), F(5, 6)),
}


def check_left_cosets_against_bfs(x):
    """double_coset and l_of on a cold memo against the search over the
    generators of H; True when L(x) <= 500 and the check ran."""
    pair = x.pair
    forget_double_cosets(pair)
    try:
        degree = l_of(x, bound=500)
    except BoundReached:
        return False
    expected = bfs_left_cosets(x)
    assert degree == len(expected)
    assert set(double_coset(x).left_reps) == expected
    forget_double_cosets(pair)
    return True


@pytest.mark.parametrize("name", PAIRS)
@SETTINGS
@given(data=st.data())
def test_left_cosets_match_bfs_oracle(name, data):
    assume(check_left_cosets_against_bfs(data.draw(SMALL_ELEMENTS[name])))


@pytest.mark.parametrize("name", PAIRS)
def test_left_cosets_match_bfs_oracle_mixed(name):
    x = MIXED[name]
    pair = x.pair
    one = F(0) if pair is HEIS else Mat2.identity()
    assert not pair.in_h(pair.element(x.n, one))  # n outside M
    assert not pair.in_h(pair.element((0, 0), x.q))  # q outside R
    assert check_left_cosets_against_bfs(x)


def check_meet_box(x, box):
    """The integer box of M / (M meet qM) for x = (n, q) against the
    lattice M meet q.M (planar) or the denominator of q (heisenberg)."""
    if x.pair is HEIS:
        assert box == (1, x.q.denominator)
    else:
        lat = m_cap_conj(x.pair, x.q)
        assert (lat.s, lat.a, lat.d) == (1, *box)


@pytest.mark.parametrize("name", PAIRS)
@SETTINGS
@given(data=st.data())
def test_left_keys_are_canon_of_m_translates(name, data):
    # x and each class key k of its R-orbit yield the left cosets m.kH read
    # over the span of q_k, taken once: every key must be the full
    # canonical form of m.k, for m = (i, j) over the box of
    # M / (M meet q_k M), and that box, read from integers, must be the
    # box of the meet
    pair = PAIRS[name]
    x = data.draw(st.one_of(SMALL_ELEMENTS[name], st.just(MIXED[name])))
    try:
        _, orbit = _r_orbit(x, 500)
    except BoundReached:
        assume(False)
    k = data.draw(st.integers(2, 4))
    for s, (n0, n1, *q) in [(x.s, x.v)] + orbit:
        a, d = box = pair._meet_box(s, (n0, n1, *q))
        check_meet_box(GElem(s, (n0, n1, *q), pair), box)
        keys = pair._left_keys(s, (n0, n1, *q))
        assert keys == [pair._canon(s, (n0 + i * s, n1 + j * s, *q))
                        for i in range(a) for j in range(d)]
        # over a denominator that is not least
        assert pair._left_keys(k * s, (k * n0, k * n1, *(k * z for z in q))) == keys


# the modular function on the four pairs, from the orbit counts of l_of
# alone; products and inverses keep L within this bound or are skipped
DELTA_BOUND = 5000


def delta_or_skip(x):
    try:
        return delta(x, DELTA_BOUND)
    except BoundReached:
        assume(False)


@pytest.mark.parametrize("name", PAIRS)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_delta_is_a_character(name, data):
    # Delta(x) = L(x)/L(x^-1) is a homomorphism G -> Q_>0 (Tzanev, J.
    # Operator Theory 50, 2003; Kaliszewski-Landstad-Quigg, Proc. Edinb.
    # Math. Soc. 51, 2008)
    pair = PAIRS[name]
    x, y = data.draw(SMALL_ELEMENTS[name]), data.draw(SMALL_ELEMENTS[name])
    dx, dy = delta_or_skip(x), delta_or_skip(y)
    assert delta_or_skip(pair.mul(x, y)) == dx * dy
    assert delta_or_skip(pair.inv(x)) * dx == 1


@pytest.mark.parametrize("name", PAIRS)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_delta_closed_form(name, data):
    # Delta(n, q) = |det q| on the planar pairs, the norm of alpha on the
    # torus; on heisenberg Delta = 1, as G is generated by the divisible
    # groups N and Q, and Q_>0, free abelian, has no divisible subgroup
    # but 1.  The reciprocal 1/Delta is a character too, so only this
    # test tells the two apart.
    pair = PAIRS[name]
    x = data.draw(st.one_of(SMALL_ELEMENTS[name], st.just(MIXED[name])))
    assert delta_or_skip(x) == (1 if pair is HEIS else abs(x.q.det()))


@st.composite
def rational_bases(draw):
    m = Mat2(*(draw(fractions) for _ in range(4)))
    assume(m.det() != 0)
    return m


@SETTINGS
@given(m1=rational_bases(), m2=rational_bases(), q=rational_bases(),
       v=st.tuples(fractions, fractions), u=st.tuples(small, small))
def test_lattice_ops_match_fraction_oracle(m1, m2, q, v, u):
    l1, l2 = Lattice.from_basis(m1), Lattice.from_basis(m2)
    t1, t2 = (hnf_columns([(m.a, m.c), (m.b, m.d)]) for m in (m1, m2))
    assert fraction_triple(l1) == t1 and fraction_triple(l2) == t2
    join, meet = lattice_sum(l1, l2), lattice_intersect(l1, l2)
    assert fraction_triple(join) == fraction_sum(t1, t2)
    assert fraction_triple(meet) == fraction_intersect(t1, t2)
    image = transform_lattice(q, l1)
    assert fraction_triple(image) == fraction_transform(q, t1)
    assert transform_lattice(q.integralize(), l1) == image
    assert lattice_index(join, l1) == fraction_index(fraction_sum(t1, t2), t1)
    assert lattice_index(l2, meet) == fraction_index(t2, fraction_intersect(t1, t2))
    assert l1.contains(v) == fraction_contains(t1, v)
    w = m1.apply(u)  # a point of l1
    assert l1.contains(w) and fraction_contains(t1, w)


# ---------------------------------------------------------------------------
# stabilizer identities against their Fraction form

IDENTITIES = ("h_in_H_n", "h_in_H_q", "h_in_H_x_and_H_q")


def check_stab_report_against_oracle(pair, x, hs):
    """Every record of ``stabilizer_identities_report`` on [x] and hs
    against the Fraction oracle; returns the (identity, value) pairs seen."""
    rep = stabilizer_identities_report(pair, [x], hs)
    inside = [h for h in hs if pair.in_h(h)]
    outside = [h for h in hs if not pair.in_h(h)]
    by_name = {}
    for c in rep["checks"]:
        by_name.setdefault(c["name"], []).append(c)
    assert [c["inputs"] for c in by_name.get("stab_sample", [])] == \
        [{"h": str(h)} for h in outside]
    seen = set()
    idents = by_name.get("stab_identity", [])
    assert len(idents) == len(inside)
    for h, rec in zip(inside, idents):
        assert rec["inputs"] == {"h": str(h), "x": str(x)}
        expected = fraction_stab_identity(pair, x, h)
        assert rec["outputs"] == expected
        seen.update((k, v[0]) for k, v in expected.items())
    # with one x, the intersection over the samples is its H_x meet H_q
    xq = {rec["inputs"]["h"]: rec["outputs"]["h_in_H_x_and_H_q"] for rec in idents}
    for rec in by_name.get("stab_intersection", []):
        assert rec["outputs"]["membership"] == xq[rec["inputs"]["h"]]
    assert rep["verdict"] == ("fail" if outside else "pass")
    return seen


@st.composite
def stab_x_samples(draw, name):
    # a pure q, a pure n or a mixed element
    pair = PAIRS[name]
    x = draw(ELEMENTS[name])
    one = F(0) if pair is HEIS else Mat2.identity()
    return draw(st.sampled_from([pair.element((0, 0), x.q), pair.element(x.n, one), x]))


@st.composite
def h_words(draw, pair):
    h = pair.identity()
    for g in draw(st.lists(st.sampled_from(pair.h_generators()), max_size=6)):
        h = pair.mul(h, g)
    return h


@pytest.mark.parametrize("name", PAIRS)
@SETTINGS
@given(data=st.data())
def test_stab_identities_match_fraction_oracle(name, data):
    pair = PAIRS[name]
    x = data.draw(stab_x_samples(name))
    hs = data.draw(st.lists(h_words(pair), min_size=1, max_size=6))
    hs += data.draw(st.lists(ELEMENTS[name], max_size=2))  # mostly outside H
    check_stab_report_against_oracle(pair, x, hs)


@pytest.mark.parametrize("name", PAIRS)
def test_stab_identities_take_both_values(name):
    import random

    pair = PAIRS[name]
    x = MIXED[name]
    one = F(0) if pair is HEIS else Mat2.identity()
    xs = [pair.element((0, 0), x.q), pair.element(x.n, one), x]
    rng = random.Random(11)
    gens = pair.h_generators()
    hs = [pair.identity()]
    for _ in range(24):
        h = pair.identity()
        for _ in range(rng.randint(1, 6)):
            h = pair.mul(h, rng.choice(gens))
        hs.append(h)
    seen = set()
    for y in xs:
        seen |= check_stab_report_against_oracle(pair, y, hs)
    assert seen == {(k, v) for k in IDENTITIES for v in (True, False)}


# ---------------------------------------------------------------------------
# R_q by first columns

# the image of R mod s, listed once per s by ``r_image_by_closure``
_R_IMAGES = {}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(q=st.tuples(*[st.integers(-12, 12)] * 4))
def test_column_count_matches_filter_count(q):
    # the first-column count of R_q mod s = |det Q| <= 30 against a count
    # over the whole image listed by a BFS closure
    a, b, c, d = q
    s = abs(a * d - b * c)
    assume(1 <= s <= 30)
    if s not in _R_IMAGES:
        _R_IMAGES[s] = r_image_by_closure(GL2_Q, s)
    got = sum(s // m for *_, m in column_solutions(GL2_Q, s, _r_q_conditions(*q), 10 ** 5))
    assert got == r_q_member_count(_R_IMAGES[s], q)


# ---------------------------------------------------------------------------
# convolution

nonzero = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 4))


def draw_hecke_element(data, name, bound=200):
    """A combination of one or two double cosets of degree <= bound, with
    nonzero rational coefficients."""
    out = HeckeElement(PAIRS[name], {})
    for _ in range(data.draw(st.integers(1, 2))):
        x = data.draw(SMALL_ELEMENTS[name])
        try:
            l_of(x, bound)
        except BoundReached:
            assume(False)
        out = out + HeckeElement.char_fn(x, data.draw(nonzero))
    return out


@pytest.mark.parametrize("name", PAIRS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_convolve_matches_all_pairs_oracle(name, data):
    pair = PAIRS[name]
    forget_double_cosets(pair)
    f, g = draw_hecke_element(data, name), draw_hecke_element(data, name)
    assert convolve(f, g) == all_pairs_convolve(f, g)
    forget_double_cosets(pair)


# denominators of the points n of N/M, kept small enough that the R-orbits
# in (Z/D)^2 have at most about 200 points
DENOMINATORS = {"gl2_z12": [1, 2, 4, 8, 16], "gl2_q": [1, 2, 3, 4, 6, 8, 9, 12],
                "quad2": [1, 2, 3, 4, 6, 8, 12], "heis": [1, 2, 3, 4, 6, 12]}


@pytest.mark.parametrize("name", PAIRS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_convolve_degree_zero_matches_fixed_point_product(name, data):
    pair = PAIRS[name]
    one = F(0) if pair is HEIS else Mat2.identity()
    den = data.draw(st.sampled_from(DENOMINATORS[name]))
    points = st.tuples(st.integers(0, den - 1), st.integers(0, den - 1))

    def draw_terms():
        return [((F(a, den), F(b, den)), data.draw(nonzero))
                for a, b in data.draw(st.lists(points, min_size=1, max_size=2))]

    def element(terms):
        out = HeckeElement(pair, {})
        for n, c in terms:
            out = out + HeckeElement.char_fn(pair.element(n, one), c)
        return out

    def orbit(n):
        o = r_orbit_mod(pair, tuple(int(x * den) % den for x in n), den)
        return min(o), len(o)

    forget_double_cosets(pair)
    ft, gt = draw_terms(), draw_terms()
    for n, _ in ft + gt:  # L(n) is the length of the R-orbit of n + M
        assert l_of(pair.element(n, one)) == orbit(n)[1]
    got = {}
    for rep, c in convolve(element(ft), element(gt)).terms.items():
        assert rep.q == one  # the degree-0 elements form a subalgebra
        assert all((x * den).denominator == 1 for x in rep.n)
        key, length = orbit(rep.n)
        assert double_coset(rep).degree == length
        got[key] = (c, length)
    assert got == fixed_point_product(pair, ft, gt, den)
    forget_double_cosets(pair)


# ---------------------------------------------------------------------------
# the classical Hecke ring: for q in Delta_p = M_2(Z) meet GL(2, Z[1/p]),
# HqH = M x| RqR, and the [HqH] multiply like R(GL(2, Z), Delta_p)


def classical_element(pair, p, terms):
    """The combination of the [H diag(p^a, p^b) H] given as {(a, b): c}."""
    out = HeckeElement(pair, {})
    for (a, b), c in terms.items():
        out = out + HeckeElement.char_fn(pair.element((0, 0), Mat2.diag(p ** a, p ** b)), c)
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_classical_hecke_ring_identities(p):
    pair = PairDescriptor.planar_gl2(p=p)

    def t(a, b, c=1):
        return classical_element(pair, p, {(a, b): c})

    # Shimura 1971, Thm 3.24
    assert convolve(t(0, 1), t(0, 1)) == t(0, 2) + t(1, 1, p + 1)
    assert convolve(t(0, 1), t(0, 2)) == t(0, 3) + t(1, 2, p)
    for x in (t(0, 1), t(0, 2), t(1, 2)):
        assert convolve(t(1, 1), x) == convolve(x, t(1, 1))
    for f, g in (((0, 1), (0, 1)), ((0, 1), (0, 2)), ((1, 2), (0, 1)), ((0, 2), (1, 1))):
        assert convolve(t(*f), t(*g)) == classical_element(
            pair, p, classical_hecke_product(p, {f: 1}, {g: 1}))
    forget_double_cosets(pair)


@st.composite
def classical_terms(draw, spread):
    """One or two T(p^a, p^b), a <= 1 and b - a <= spread, with nonzero
    rational coefficients."""
    exps = st.tuples(st.integers(0, 1), st.integers(0, spread)).map(
        lambda e: (e[0], e[0] + e[1]))
    return {e: draw(nonzero) for e in draw(st.lists(exps, min_size=1, max_size=2))}


# p = 3 with b - a = 2 gives outputs of more than 10^5 left cosets
@pytest.mark.parametrize("p, spread", [(2, 2), (3, 1)])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_convolve_matches_classical_hecke_product(p, spread, data):
    pair = PairDescriptor.planar_gl2(p=p)
    f, g = data.draw(classical_terms(spread)), data.draw(classical_terms(spread))
    assert convolve(classical_element(pair, p, f), classical_element(pair, p, g)) == \
        classical_element(pair, p, classical_hecke_product(p, f, g))
