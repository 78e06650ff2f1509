import json
import random
import re
from fractions import Fraction

import pytest

from heckepairs.arith import Mat2
from heckepairs.cli import main
from heckepairs.cosets import (
    HeckeElement,
    _r_orbit,
    convolve,
    delta,
    double_coset,
    involution,
    l_of,
)
from heckepairs.errors import BoundReached, CertificateFailed
from heckepairs.grouppair import (
    PairDescriptor,
    index_m_cap_conj,
    index_r_cap_conj,
    index_r_coset_stab,
)

F = Fraction

# the message of l_of(diag(4, 1), bound=3), whose L is 24
DIAG4_OVER_3 = "^" + re.escape(
    "more than 3 left cosets in H.n=(0,0);q=[[4,0],[0,1]].H; "
    "the pair may not be Hecke at this element, or raise the bound") + "$"


@pytest.fixture(scope="module")
def gl2(request):
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


def random_h(pair, rng):
    h = pair.identity()
    gens = pair.h_generators()
    for _ in range(rng.randint(0, 6)):
        h = pair.mul(h, rng.choice(gens))
    return h


# ---------------------------------------------------------------------------
# left cosets, L, delta


def test_left_reps_in_h(gl2):
    x = gl2.element((1, 1), Mat2.of(1, 1, 0, 1))
    reps = double_coset(x).left_reps
    assert reps == (gl2.canon_coset(gl2.identity()),)


def test_left_reps_diag2(gl2):
    x = gl2.element((0, 0), Mat2.diag(2, 1))
    reps = double_coset(x).left_reps
    assert len(reps) == 6  # [M:M_q][R:R_q] = 2 * 3


def test_left_reps_pure_n(gl2):
    x = gl2.element((F(1, 2), 0), Mat2.identity())
    assert len(double_coset(x).left_reps) == 3  # [R:R_(n,M)] = 3


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (5, 1), (2, 5)],
                         ids=["2", "3", "5", "2^5"])
def test_l_value_two_methods(p, k):
    # q = diag(p^k, 1): [M:M_q] = p^k and [R:R_q] = p^k + p^(k-1)
    pair = PairDescriptor.planar_gl2(p=p)
    q = Mat2.diag(p ** k, 1)
    x = pair.element((0, 0), q)
    by_bfs = l_of(x)
    by_indices = index_m_cap_conj(pair, q) * index_r_cap_conj(pair, q)
    assert by_bfs == by_indices == p ** (2 * k - 1) * (p + 1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_l_pure_n_two_methods(p):
    pair = PairDescriptor.planar_gl2(p=p)
    n = (F(1, p), F(0))
    x = pair.element(n, Mat2.identity())
    assert l_of(x) == index_r_coset_stab(pair, n) == p * p - 1


def test_l_heisenberg(heis):
    for m in (1, 2, 5, 6):
        x = heis.element((0, F(1, m)), 0)
        assert l_of(x) == m
    for n in (1, 3, 4):
        x = heis.element((0, 0), F(1, n))
        assert l_of(x) == n == index_m_cap_conj(heis, F(1, n))


def test_l_quad_torus(quad2):
    # pure q in the torus: L = [M : M_q] since Q is abelian
    q = Mat2.of(3, 2 * 1, 1, 3)  # 3 + sqrt(2), norm 7
    x = quad2.element((0, 0), q)
    assert l_of(x) == index_m_cap_conj(quad2, q) == 7


def test_delta_examples(gl2):
    assert delta(gl2.identity()) == 1
    for p in (2, 3, 5):
        pair = PairDescriptor.planar_gl2(p=p)
        x = pair.element((0, 0), Mat2.diag(p, 1))
        assert delta(x) == p
        assert l_of(pair.inv(x)) == p + 1


def test_delta_multiplicative_inverse(gl2):
    rng = random.Random(3)
    for _ in range(10):
        h1, h2 = random_h(gl2, rng), random_h(gl2, rng)
        x = gl2.mul(h1, gl2.mul(gl2.element((F(1, 2), 0), Mat2.diag(2, 1)), h2))
        assert delta(x) * delta(gl2.inv(x)) == 1


def test_delta_constant_on_left_reps(gl2):
    x = gl2.element((F(1, 2), 0), Mat2.diag(2, 1))
    d = delta(x)
    for rep in double_coset(x).left_reps:
        assert delta(rep) == d


def test_left_strs_are_the_sorted_printed_reps(gl2, heis):
    # the q-part of the printed form is built once per class of the R-orbit:
    # H.diag(4,1).H has 6 classes of 4 left cosets each, and 6 printed q
    for x in (gl2.element((0, 0), Mat2.diag(4, 1)),
              gl2.element((F(1, 2), 0), Mat2.diag(4, 1)),
              gl2.element((F(1, 8), F(3, 16)), Mat2.of(2, 1, 0, 4)),
              heis.element((F(1, 2), F(1, 3)), F(5, 6))):
        dc = double_coset(x)
        assert dc.left_strs == tuple(map(str, dc.left_reps))
        assert list(dc.left_strs) == sorted(dc.left_strs)
        assert dc.key == str(dc.rep)
    assert len({s.split(";")[1] for s in double_coset(
        gl2.element((0, 0), Mat2.diag(4, 1))).left_strs}) == 6


def test_r_orbit_is_walked_on_small_class_keys(gl2):
    # x = (n, q) = ((1/8, 3/16), diag(64, 1)): the R-orbit of MxH has 3,072
    # classes and L(x) = 64 * 3,072.  The orbit holds each class's
    # canonical element, whose n is reduced mod M + qM, so no entry passes
    # 1,024; the elements r.x over the same walk reach 160,768
    x = gl2.element((F(1, 8), F(3, 16)), Mat2.diag(64, 1))
    m_index, orbit = _r_orbit(x, 200000)
    assert (m_index, len(orbit)) == (64, 3072)
    assert max(abs(e) for s, v in orbit for e in (s, *v)) <= 1024
    assert l_of(x, bound=200000) == 196608


def test_enumeration_bound(gl2):
    x = gl2.element((0, 0), Mat2.diag(4, 1))
    with pytest.raises(BoundReached, match=DIAG4_OVER_3):
        l_of(x, bound=3)


# ---------------------------------------------------------------------------
# canonical keys


def test_key_of_h_elements(gl2):
    ident_key = double_coset(gl2.identity()).key
    h = gl2.element((3, -2), Mat2.of(1, 0, 1, 1))
    assert double_coset(h).key == ident_key


def test_key_stable_under_rewriting(gl2):
    rng = random.Random(5)
    x = gl2.element((F(1, 2), 0), Mat2.diag(2, 1))
    key = double_coset(x).key
    for _ in range(100):
        y = gl2.mul(random_h(gl2, rng), gl2.mul(x, random_h(gl2, rng)))
        assert double_coset(y).key == key


def test_key_merges_equivalent_diagonals(gl2):
    x = gl2.element((0, 0), Mat2.diag(2, 1))
    y = gl2.element((0, 0), Mat2.diag(1, 2))
    assert double_coset(x).key == double_coset(y).key
    # explicit witness: permutation matrices lie in R
    w = Mat2.of(0, 1, 1, 0)
    assert gl2.in_h(gl2.element((0, 0), w))
    assert w * Mat2.diag(2, 1) * w == Mat2.diag(1, 2)


def test_key_separates_distinct_cosets(gl2):
    assert double_coset(gl2.element((0, 0), Mat2.diag(2, 1))).key != \
        double_coset(gl2.element((0, 0), Mat2.diag(4, 1))).key
    assert double_coset(gl2.element((F(1, 2), 0), Mat2.identity())).key != \
        double_coset(gl2.identity()).key


def test_key_heisenberg_rewriting(heis):
    rng = random.Random(7)
    x = heis.element((F(1, 2), F(1, 3)), F(5, 6))
    key = double_coset(x).key
    for _ in range(100):
        y = heis.mul(random_h(heis, rng), heis.mul(x, random_h(heis, rng)))
        assert double_coset(y).key == key


def test_key_quad_rewriting(quad2):
    rng = random.Random(9)
    x = quad2.element((F(1, 3), 0), Mat2.of(3, 2, 1, 3))
    key = double_coset(x).key
    for _ in range(60):
        y = quad2.mul(random_h(quad2, rng), quad2.mul(x, random_h(quad2, rng)))
        assert double_coset(y).key == key


# ---------------------------------------------------------------------------
# convolution and involution


def brute_convolve_coeff(pair, dca, dcb, target_rep):
    """Independent evaluation of (chi_a * chi_b)(x): count left reps y_i of
    HaH with y_i^-1 x inside HbH, membership tested against the coset list."""
    forms_b = set(dcb.left_reps)
    count = 0
    for yi in dca.left_reps:
        z = pair.mul(pair.inv(yi), target_rep)
        if pair.canon_coset(z) in forms_b:
            count += 1
    return count


def test_unit_is_identity(gl2):
    unit = HeckeElement.unit(gl2)
    f = HeckeElement.char_fn(gl2.element((0, 0), Mat2.diag(2, 1))) + \
        HeckeElement.char_fn(gl2.element((F(1, 2), 0), Mat2.identity()), F(3, 7))
    assert convolve(unit, f) == f
    assert convolve(f, unit) == f


def test_convolve_against_bruteforce(gl2):
    a = gl2.element((0, 0), Mat2.diag(2, 1))
    f = HeckeElement.char_fn(a)
    prod = convolve(f, f)
    dca = double_coset(a)
    assert prod.terms  # nonempty support
    total = 0
    for rep, coeff in prod.terms.items():
        expected = brute_convolve_coeff(gl2, dca, dca, rep)
        assert coeff == expected
        total += coeff * double_coset(rep).degree
    # mass check: sum over left cosets of (f*f) equals L(a)^2
    assert total == dca.degree ** 2


def test_convolve_heisenberg_bruteforce(heis):
    a = heis.element((0, F(1, 2)), F(1, 3))
    b = heis.element((F(1, 2), 0), F(1, 2))
    fa = HeckeElement.char_fn(a)
    fb = HeckeElement.char_fn(b)
    prod = convolve(fa, fb)
    dca, dcb = double_coset(a), double_coset(b)
    for rep, coeff in prod.terms.items():
        assert coeff == brute_convolve_coeff(heis, dca, dcb, rep)


def test_involution_examples(gl2):
    unit = HeckeElement.unit(gl2)
    assert involution(unit) == unit
    x = gl2.element((0, 0), Mat2.diag(2, 1))
    f = HeckeElement.char_fn(x)
    fi = involution(f)
    (rep, coeff), = fi.terms.items()
    assert coeff == 2  # delta(x)
    assert double_coset(rep).key == double_coset(gl2.inv(x)).key


def sample_elements(pair, rng, pool):
    out = []
    for _ in range(8):
        support = rng.sample(pool, rng.randint(1, 3))
        f = HeckeElement(pair, {})
        for x in support:
            f = f + HeckeElement.char_fn(
                x, Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            )
        out.append(f)
    return out


@pytest.mark.parametrize("family", ["gl2", "heis"])
def test_star_algebra_axioms(family, request):
    pair = request.getfixturevalue(family)
    rng = random.Random(11)
    if family == "gl2":
        pool = [
            pair.identity(),
            pair.element((0, 0), Mat2.diag(2, 1)),
            pair.element((F(1, 2), 0), Mat2.identity()),
            pair.element((F(1, 2), F(1, 2)), Mat2.diag(2, 1)),
            pair.element((0, 0), Mat2.scalar(2)),
        ]
    else:
        pool = [
            pair.identity(),
            pair.element((0, F(1, 2)), 0),
            pair.element((0, 0), F(1, 3)),
            pair.element((F(1, 2), F(1, 2)), F(1, 2)),
        ]
    elems = sample_elements(pair, rng, pool)
    unit = HeckeElement.unit(pair)
    for i, f in enumerate(elems):
        g = elems[(i + 3) % len(elems)]
        h = elems[(i + 5) % len(elems)]
        assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))
        assert involution(involution(f)) == f
        assert convolve(unit, f) == f
        assert convolve(f, unit) == f
        assert involution(convolve(f, g)) == convolve(involution(g), involution(f))


def test_convolution_bilinear(gl2):
    a = HeckeElement.char_fn(gl2.element((0, 0), Mat2.diag(2, 1)))
    b = HeckeElement.char_fn(gl2.element((F(1, 2), 0), Mat2.identity()))
    c = HeckeElement.char_fn(gl2.element((0, 0), Mat2.scalar(2)))
    lhs = convolve(a + b.scale(F(2, 3)), c)
    rhs = convolve(a, c) + convolve(b, c).scale(F(2, 3))
    assert lhs == rhs


def test_cache_does_not_change_results(gl2):
    # The double-coset memo lives on the pair instance.  Each result on a
    # fresh pair, whose memo starts empty, equals the one on a warmed pair.
    ops = [
        lambda x, y: double_coset(x),
        lambda x, y: delta(x),
        lambda x, y: convolve(HeckeElement.char_fn(x), HeckeElement.char_fn(y)),
        lambda x, y: involution(HeckeElement.char_fn(x) + HeckeElement.char_fn(y, 3)),
    ]

    def args(pair):
        return (pair.element((F(1, 2), 0), Mat2.diag(2, 1)),
                pair.element((0, 0), Mat2.diag(2, 1)))

    for op in ops:
        op(*args(gl2))
    for op in ops:
        assert op(*args(PairDescriptor.planar_gl2(p=2))) == op(*args(gl2))


def test_enumeration_bound_on_warm_memo():
    pair = PairDescriptor.planar_gl2(p=2)
    x = pair.element((0, 0), Mat2.diag(4, 1))
    with pytest.raises(BoundReached, match=DIAG4_OVER_3) as cold:
        l_of(x, bound=3)
    assert l_of(x) == 24
    with pytest.raises(BoundReached, match=DIAG4_OVER_3) as warm:
        l_of(x, bound=3)
    assert str(warm.value) == str(cold.value)
    assert l_of(x, bound=24) == 24


def count_canon_calls(pair):
    """Wrap pair._canon and pair.canon_mul, the two kernels that form a
    full canonical coset key (the memo lookups, canon_coset and every
    product convolve canonicalizes), so that each call is counted; returns
    the call list."""
    calls = []

    def counting(kernel):
        def wrapper(*args):
            calls.append(1)
            return kernel(*args)
        return wrapper

    pair._canon, pair.canon_mul = counting(pair._canon), counting(pair.canon_mul)
    return calls


def test_l_of_enumerates_no_left_coset():
    # L(diag(64,1)) = [M:M_q] [R:R_q] = 64 * 96; the only canon_coset call
    # is the memo lookup
    pair = PairDescriptor.planar_gl2(p=2)
    calls = count_canon_calls(pair)
    assert l_of(pair.element((0, 0), Mat2.diag(64, 1))) == 6144
    assert len(calls) <= 1


def test_double_coset_one_canon_call_per_left_coset():
    # the generator search over H made about 61,000 canon_coset calls here,
    # and one full canonical form per left coset made 6,144; each left
    # coset key is now read over its class's span, so the only canon_coset
    # call is the memo lookup
    pair = PairDescriptor.planar_gl2(p=2)
    calls = count_canon_calls(pair)
    assert double_coset(pair.element((0, 0), Mat2.diag(64, 1))).degree == 6144
    assert len(calls) <= 1


def test_double_coset_and_l_of_transform_no_lattice(monkeypatch):
    # the box of M / (M meet qM) is read from integers (hnf_meet), for x and
    # for every class of its R-orbit, with no Lattice image q.M
    import heckepairs.arith as arith
    import heckepairs.grouppair as grouppair

    calls = []

    def counting(*args):
        calls.append(args)
        return arith.transform_lattice(*args)

    for module in (arith, grouppair):
        monkeypatch.setattr(module, "transform_lattice", counting)
    pair = PairDescriptor.planar_gl2(p=3)
    x = pair.element((F(1, 3), 0), Mat2.of(9, 1, 0, 1))
    assert double_coset(x).degree == l_of(pair.inv(x)) * delta(x)
    assert l_of(pair.element((0, F(1, 9)), Mat2.diag(1, 27))) > 1
    assert calls == []


def test_l_of_bound_without_enumeration():
    pair = PairDescriptor.planar_gl2(p=2)
    calls = count_canon_calls(pair)
    with pytest.raises(BoundReached, match=DIAG4_OVER_3):
        l_of(pair.element((0, 0), Mat2.diag(4, 1)), bound=3)
    assert len(calls) <= 1


def test_dcoset_inverse_side_bound_names_the_inverse(capsys):
    # L(diag(1/2,1)) = 3 fits the bound, L of its inverse diag(2,1) is 6
    code = main(["dcoset", "--element", "[[1/2,0],[0,1]]", "--bound-cosets", "4"])
    record = json.loads(capsys.readouterr().out.splitlines()[1])
    assert code == 3
    assert record["outputs"]["error"] == (
        "more than 4 left cosets in H.n=(0,0);q=[[2,0],[0,1]].H; "
        "the pair may not be Hecke at this element, or raise the bound")


def test_convolve_canon_calls_bounded():
    # T4 * T4 for T4 = 1 on H.diag(4,1).H: one memo lookup for T4 and two
    # for the support, the 24 products diag(4,1).b_j that find the three
    # outputs, and 24 products y_i^-1 z per evaluation, two evaluations
    # per output as each has degree above 1: 1 + 2 + 24 + 3 * 48 = 171, as
    # convolve enumerates a missed output key with no second lookup.
    # Forming all 24 * 24 products y_i b_j would make about 1,600 calls
    pair = PairDescriptor.planar_gl2(p=2)
    calls = count_canon_calls(pair)
    t4 = HeckeElement.char_fn(pair.element((0, 0), Mat2.diag(4, 1)))
    convolve(t4, t4)
    assert 171 <= len(calls) <= 800


def corrupt_evaluation(pair, dca, dcb, z):
    """Patch pair.canon_mul so that one product y_i^-1 z that lies in HbH,
    for a left rep y_i of HaH, lands in H instead: the value of
    1_HaH * 1_HbH at the left coset z drops by one, and no other value
    changes."""
    in_b = {(y.s, y.v) for y in dcb.left_reps}
    yinv = next(w for w in map(pair.inv, dca.left_reps)
                if pair.canon_mul(w, z) in in_b)
    canon_mul, one = pair.canon_mul, pair.identity()
    pair.canon_mul = lambda a, b: ((one.s, one.v) if (a, b) == (yinv, z)
                                   else canon_mul(a, b))


def test_convolve_certificate_catches_a_wrong_product():
    # T2 * T2 has an output H.diag(1,4).H of degree 24; one wrong product
    # at the left coset where it is evaluated first breaks the spot check
    # at its second left coset
    pair = PairDescriptor.planar_gl2(p=2)
    x = pair.element((0, 0), Mat2.diag(2, 1))
    f = HeckeElement.char_fn(x)
    dc = double_coset(x)
    out = double_coset(pair.element((0, 0), Mat2.diag(1, 4)))
    assert out.rep in convolve(f, f).terms and out.degree == 24
    corrupt_evaluation(pair, dc, dc, out.rep)
    with pytest.raises(CertificateFailed, match="not constant"):
        convolve(f, f)


def test_convolve_degree_certificate_catches_a_wrong_product():
    # T2 * T2^-1 has the output H of degree 1, which the spot check never
    # sees a second time; a wrong product at H leaves only the degree
    # certificate to catch it
    pair = PairDescriptor.planar_gl2(p=2)
    x = pair.element((0, 0), Mat2.diag(2, 1))
    f = HeckeElement.char_fn(x)
    g = HeckeElement.char_fn(pair.inv(x))
    one = pair.identity()
    assert convolve(f, g).terms[one] == 6
    assert double_coset(one).degree == 1
    corrupt_evaluation(pair, double_coset(x), double_coset(pair.inv(x)), one)
    with pytest.raises(CertificateFailed, match="degree certificate"):
        convolve(f, g)


def test_hecke_element_json_round_trip(gl2):
    f = HeckeElement.char_fn(gl2.element((0, 0), Mat2.diag(2, 1)), F(5, 3)) + \
        HeckeElement.char_fn(gl2.element((F(1, 2), 0), Mat2.identity()), -2)
    data = f.to_json()
    assert HeckeElement.from_json(gl2, data) == f
