"""Independent brute-force oracles shared by the test suite.

Everything here avoids the code paths under test beyond the group law and
the coset key ``canon_coset``: points are enumerated from raw generators,
left cosets by a search over the generators of H, finite matrix groups
are built by exhaustive scans or BFS closures, and group indices are
recovered by direct counting.  ``all_pairs_convolve`` reads the double cosets of
``double_coset`` but forms every product of their left representatives;
``fixed_point_product`` uses none of the package beyond the R generators.
``coset_key`` is the Fraction reference of the coset kernels, and
``classical_hecke_product`` multiplies in the classical Hecke ring by
Shimura's recursion, with no group element at all.
``residue_core_by_filter`` filters the stabilizer chain's listing of the
image of R, the residue core that ``tower`` used before it solved the core
by first columns.  ``stage_elements`` lists a tower stage from that listing,
which the stage itself never makes, and ``all_pairs_verify`` and
``elementwise_triangle`` check connecting maps on every element of it.
"""

import functools
from fractions import Fraction
from math import floor, gcd, lcm

from heckepairs.arith import Lattice, Mat2, QuadInt, ResidueRing, mat_mul_int, satisfies
from heckepairs.cosets import HeckeElement, double_coset
from heckepairs.grouppair import r_image_chain


def rectangular(x, y) -> Lattice:
    """The lattice xZ x yZ."""
    return Lattice.from_basis(Mat2.diag(x, y))


def span_points(gen1, gen2, bound):
    """All integer-combination points of two independent generators with both
    coordinates in [-bound, bound], via an exact coefficient range."""
    g1 = (Fraction(gen1[0]), Fraction(gen1[1]))
    g2 = (Fraction(gen2[0]), Fraction(gen2[1]))
    basis = Mat2(g1[0], g2[0], g1[1], g2[1])
    inv = basis.inv()
    # |u1| <= (|inv.a| + |inv.b|) * bound, likewise for u2
    c1 = floor((abs(inv.a) + abs(inv.b)) * bound)
    c2 = floor((abs(inv.c) + abs(inv.d)) * bound)
    pts = set()
    for u1 in range(-c1, c1 + 1):
        for u2 in range(-c2, c2 + 1):
            x = u1 * g1[0] + u2 * g2[0]
            y = u1 * g1[1] + u2 * g2[1]
            if abs(x) <= bound and abs(y) <= bound:
                pts.add((x, y))
    return frozenset(pts)


def lattice_box_points(lat: Lattice, bound):
    """Points of a canonical-form lattice in [-bound, bound]^2, enumerated
    directly from the triangular basis.  The enumeration runs on the
    integer form over the lattice's denominator; points are Fractions only
    when that denominator is not 1."""
    s, a, c, d = lat.s, lat.a, lat.c, lat.d
    lim = floor(Fraction(bound) * s)
    pts = set()
    for i in range(-(lim // a), lim // a + 1):
        y0 = i * c
        for j in range(-((lim + y0) // d), (lim - y0) // d + 1):
            pts.add((i * a, y0 + j * d))
    if s != 1:
        pts = {(Fraction(x, s), Fraction(y, s)) for x, y in pts}
    return frozenset(pts)


def all_hnf_lattices(max_det):
    """Every integral lattice in canonical form with determinant <= max_det."""
    out = []
    for a in range(1, max_det + 1):
        for d in range(1, max_det // a + 1):
            for c in range(d):
                out.append(Lattice(1, a, c, d))
    return out


def quotient_order(lat: Lattice) -> int:
    """|Z^2 / L| by counting distinct residues of integer points."""
    assert Lattice.standard().contains_lattice(lat)
    n = lat.a * lat.d
    residues = set()
    for x in range(2 * n):
        for y in range(2 * n):
            residues.add(reduce_vector(lat, (Fraction(x), Fraction(y))))
    return len(residues)


def quotient_exponent(lat: Lattice) -> int:
    """Exponent of Z^2 / L: the lcm of the orders of the two unit vectors."""

    def order(v):
        k = 1
        while not lat.contains((Fraction(k * v[0]), Fraction(k * v[1]))):
            k += 1
        return k

    o1, o2 = order((1, 0)), order((0, 1))
    from math import lcm

    return lcm(o1, o2)


def reduce_vector(lat: Lattice, v):
    """Canonical representative of v modulo the lattice, in the fundamental
    box [0, a) x [0, d) of its Fraction basis [[a, 0], [c, d]]."""
    b = lat.basis()
    x, y = Fraction(v[0]), Fraction(v[1])
    k = x // b.a
    x, y = x - k * b.a, y - k * b.c
    y -= (y // b.d) * b.d
    return (x, y)


def scaled(lat: Lattice, k) -> Lattice:
    """The lattice |k|.L for a nonzero rational k, from the canonical form
    (s; a, c, d) directly: (s den; a num, c num, d num), made least."""
    k = abs(Fraction(k))
    assert k != 0
    s = lat.s * k.denominator
    a, c, d = (x * k.numerator for x in (lat.a, lat.c, lat.d))
    g = gcd(s, a, c, d)
    return Lattice(s // g, a // g, c // g, d // g)


# ---------------------------------------------------------------------------
# Fraction lattice oracles: a lattice is the Fraction triple (a, c, d) of
# its canonical basis [[a, 0], [c, d]], with a > 0, d > 0 and 0 <= c < d


def hnf_columns(vectors):
    """Canonical triple (a, c, d) of the Z-span of full-rank Fraction vectors."""
    scale = lcm(*(x.denominator for v in vectors for x in v))
    ints = [(int(v[0] * scale), int(v[1] * scale)) for v in vectors]
    ints = [v for v in ints if v != (0, 0)]

    # Combine columns until a single one carries the gcd of the first row.
    lead = None
    seconds = []
    for v in ints:
        if v[0] == 0:
            seconds.append(v[1])
        elif lead is None:
            lead = v
        else:
            g, x, y = _xgcd(lead[0], v[0])
            new = (g, x * lead[1] + y * v[1])
            # both columns reduced against the new lead stay in the span
            seconds.append(lead[1] - (lead[0] // g) * new[1])
            seconds.append(v[1] - (v[0] // g) * new[1])
            lead = new
    assert lead is not None, "rank-deficient span"
    a, c = lead
    if a < 0:
        a, c = -a, -c
    d = 0
    for t in seconds:
        d = gcd(d, t)
    assert d != 0, "rank-deficient span"
    return (Fraction(a, scale), Fraction(c % d, scale), Fraction(d, scale))


def _xgcd(a, b):
    """(g, x, y) with x a + y b = g = gcd(a, b) >= 0."""
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _xgcd(b, a % b)
    return (g, y, x - (a // b) * y)


def fraction_triple(lat: Lattice):
    """The Fraction triple of a lattice, read from its ``basis`` view."""
    b = lat.basis()
    return (b.a, b.c, b.d)


def _columns(t):
    a, c, d = t
    return [(a, c), (Fraction(0), d)]


def fraction_sum(t1, t2):
    return hnf_columns(_columns(t1) + _columns(t2))


def fraction_dual(t):
    """The dual {x : <x, v> in Z for all v}: the columns of the inverse
    transpose of the basis."""
    a, c, d = t
    dual = Mat2(a, c, Fraction(0), d).inv()
    return hnf_columns([(dual.a, dual.c), (dual.b, dual.d)])


def fraction_intersect(t1, t2):
    """(L1* + L2*)* = L1 meet L2."""
    return fraction_dual(fraction_sum(fraction_dual(t1), fraction_dual(t2)))


def fraction_transform(q: Mat2, t):
    return hnf_columns([q.apply(v) for v in _columns(t)])


def fraction_contains(t, v):
    a, c, d = t
    u1 = Fraction(v[0]) / a
    return u1.denominator == 1 and ((Fraction(v[1]) - u1 * c) / d).denominator == 1


def fraction_index(big, small):
    """[big : small] as the ratio of the covolumes a d."""
    ratio = (small[0] * small[2]) / (big[0] * big[2])
    assert ratio.denominator == 1
    return int(ratio)


def bfs_left_cosets(x, bound=100000):
    """The left cosets inside HxH, in the canonical form of ``canon_coset``,
    by breadth-first search: the orbit of xH under left multiplication by
    the generators of H and their inverses.  None when more than ``bound``."""
    pair = x.pair
    gens = pair.h_generators()
    start = pair.canon_coset(x)
    seen = {start}
    frontier = [start]
    while frontier:
        y = frontier.pop()
        for h in gens:
            z = pair.canon_coset(pair.mul(h, y))
            if z not in seen:
                if len(seen) >= bound:
                    return None
                seen.add(z)
                frontier.append(z)
    return seen


def all_pairs_convolve(f, g, bound=100000):
    """Convolution product f*g over every product of left representatives.

    For support double cosets with left reps {y_i} and {b_j}, each product
    y_i b_j lies in exactly one left coset, and f*g on a coset is the
    weighted number of (i, j) landing there.  The value must be constant on
    the left cosets of each output double coset, which is asserted."""
    pair = f.pair
    counts = {}
    for ra, ca in f.terms.items():
        dca = double_coset(ra, bound)
        for rb, cb in g.terms.items():
            dcb = double_coset(rb, bound)
            for yi in dca.left_reps:
                for bj in dcb.left_reps:
                    c = pair.canon_coset(pair.mul(yi, bj))
                    counts[c] = counts.get(c, 0) + ca * cb
    groups = {}
    for coset, value in counts.items():
        dc = double_coset(coset, bound)
        groups.setdefault(dc.rep, (dc, []))[1].append(value)
    terms = {}
    for rep, (dc, values) in groups.items():
        assert len(values) == dc.degree and len(set(values)) == 1, rep
        if values[0]:
            terms[rep] = values[0]
    return HeckeElement(pair, terms)


def r_orbit_mod(pair, v, D):
    """The R-orbit of v in (Z/D)^2 = (1/D)Z^2 / Z^2, with R acting through
    its integer generators: the matrices themselves in the planar families,
    and (1, r; 0, 1) on heisenberg's Q/Z x Q/Z."""
    if pair.family == "heisenberg":
        gens = [(1, r, 0, 1) for r in pair.r_generators]
    else:
        gens = list(pair.r_generators)
    seen, todo = {v}, [v]
    while todo:
        x, y = todo.pop()
        for a, b, c, d in gens:
            w = ((a * x + b * y) % D, (c * x + d * y) % D)
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def fixed_point_product(pair, f, g, D):
    """The product of sum c [HnH] over the terms (n, c) of f and of g in the
    fixed-point algebra C[N/M]^R, where [HnH] is the R-orbit sum of n + M.

    Every n lies in (1/D)Z^2; the sums run in (Z/D)^2 with ``r_orbit_mod``.
    Returns {min of the orbit: (coefficient, orbit length)} over the
    orbits with a nonzero coefficient."""
    def orbit_sum(terms):
        out = {}
        for n, coeff in terms:
            start = tuple(int(Fraction(x) * D) % D for x in n)
            for v in r_orbit_mod(pair, start, D):
                out[v] = out.get(v, 0) + Fraction(coeff)
        return out

    prod = {}
    for (x0, x1), cx in orbit_sum(f).items():
        for (y0, y1), cy in orbit_sum(g).items():
            w = ((x0 + y0) % D, (x1 + y1) % D)
            prod[w] = prod.get(w, 0) + cx * cy
    out = {}
    for w, coeff in prod.items():
        if w in out or not coeff:
            continue
        o = r_orbit_mod(pair, w, D)
        assert all(prod.get(v, 0) == coeff for v in o), w
        out[min(o)] = (coeff, len(o))
    return out


def slpm_elements_mod(s):
    """Exhaustive SL_+-(2, Z/s): every residue matrix with det = +-1 mod s."""
    if s == 1:
        return {(0, 0, 0, 0)}
    ok = {1 % s, (s - 1) % s}
    out = set()
    for a in range(s):
        for b in range(s):
            for c in range(s):
                for d in range(s):
                    if (a * d - b * c) % s in ok:
                        out.add((a, b, c, d))
    return out


def close_with_inverses(ring, gens):
    """Subgroup of GL(2, Z/s) generated by residue matrices, closed under
    both the generators and their inverses (no finiteness argument)."""
    steps = [tuple(g) for g in gens]
    steps += [ring.mat_inv(g) for g in steps]
    seen = {ring.identity_mat()}
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for g in steps:
            y = ring.mat_mul(g, x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def bfs_closure(ring, gens):
    """Multiplicative closure of 2x2 residue matrices (BFS); for invertible
    gens, the group they generate, as g^-1 is a power of g mod s."""
    s = ring.modulus
    gens = [tuple(g) for g in gens]
    seen = set(gens)
    seen.add(ring.identity_mat())
    frontier = list(seen)
    while frontier:
        new = []
        for g0, g1, g2, g3 in gens:
            for x0, x1, x2, x3 in frontier:
                y = ((g0 * x0 + g1 * x2) % s, (g0 * x1 + g1 * x3) % s,
                     (g2 * x0 + g3 * x2) % s, (g2 * x1 + g3 * x3) % s)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def r_image_by_closure(pair, s):
    """The image of R in GL(2, Z/s), listed by ``bfs_closure``."""
    ring = ResidueRing(s)
    return bfs_closure(ring, [ring.reduce_mat(g) for g in pair.r_generators])


def vector_orbit(mats, start, s):
    """Orbit of a vector in (Z/s)^2 under an explicit set of matrices."""
    orbit = set()
    frontier = [tuple(x % s for x in start)]
    orbit.add(frontier[0])
    while frontier:
        v = frontier.pop()
        for m in mats:
            w = ((m[0] * v[0] + m[1] * v[1]) % s, (m[2] * v[0] + m[3] * v[1]) % s)
            if w not in orbit:
                orbit.add(w)
                frontier.append(w)
    return orbit




def fraction_r_q_index(image, q):
    """[R : R_q] from the image of R modulo the level of q: with qi the
    integralized q, a residue r lies in R_q when qi^-1 r qi is integral,
    i.e. when qi^-1 maps r times each column of qi to an integral vector.
    qi^-1 is a Fraction matrix and r the integer lift of the residue.  As
    |det qi| qi^-1 is integral, integrality of qi^-1 w depends only on the
    integer vector w mod |det qi|, so it is computed once per class."""
    _, ints = q.integralize()
    qi = Mat2.of(*ints)
    qinv = qi.inv()
    s = int(abs(qi.det()))
    cols = [(int(qi.a), int(qi.c)), (int(qi.b), int(qi.d))]

    @functools.cache
    def maps_to_integral(w0, w1):
        x0, x1 = qinv.apply((Fraction(w0), Fraction(w1)))
        return x0.denominator == 1 and x1.denominator == 1

    count = sum(
        1 for r in image
        if all(maps_to_integral((r[0] * v0 + r[1] * v1) % s, (r[2] * v0 + r[3] * v1) % s)
               for v0, v1 in cols))
    assert len(image) % count == 0
    return len(image) // count


def fraction_core_conditions(family, envelope):
    """Residue-core conditions over Fraction: for each family rep t, the
    pair (t^-1, [(v, t.v)]) over the envelope generators v.  Conjugation
    ignores scalars, so each rep (s, numerators) is used as its numerator
    matrix."""
    b = envelope.lattice.basis()
    vs = [(b.a, b.c), (b.b, b.d)]
    reps = [Mat2.of(*t) for _, t in family.reps]
    return [(t.inv(), [(v, t.apply(v)) for v in vs]) for t in reps]


def fraction_satisfies(residue, conditions):
    """Whether (t^-1 r t - 1)v is integral for every condition, computed
    with Fraction matrices from an integer lift r of the residue."""
    lift = Mat2.of(*residue)
    for t_inv, pairs in conditions:
        for v, tv in pairs:
            moved = t_inv.apply(lift.apply(tv))
            if (moved[0] - v[0]).denominator != 1 \
                    or (moved[1] - v[1]).denominator != 1:
                return False
    return True


def residue_core_by_filter(pair, level, conditions):
    """The residue core of a stage as ``tower`` listed it before it solved
    the core by first columns: every residue of the image of R mod the stage
    level, listed (lazily) from the stabilizer chain, filtered by the
    stage's congruences (from ``tower._rel_conditions``)."""
    return frozenset(r for r in r_image_chain(pair, level, None)[2]
                     if satisfies(r, conditions))


def stage_elements(stage):
    """Every element (m, key) of a tower stage, each once: the box points of
    M / core against the keys (``stage.key``) of the image of R mod the
    stage level, listed from its stabilizer chain."""
    keys = sorted({stage.key(r) for r in r_image_chain(stage.pair, stage.level, None)[2]})
    assert len(keys) == stage.r_index
    return [(m, key) for m in stage.m_elements for key in keys]


def reduce_h_element(stage, h):
    """Image of an element h of H under the quotient map onto a stage: n
    reduced into the box of the core lattice (``reduce_vector``), and the
    key of q mod the stage level."""
    assert stage.pair.in_h(h)
    n0, n1 = reduce_vector(stage.m_core, h.n)
    return ((int(n0), int(n1)), stage.key(ResidueRing(stage.level).reduce_mat(h.v[2:])))


def all_pairs_verify(cm):
    """Connecting-map certificate over every (generator, element) pair:
    phi(g x) = phi(g) phi(x), and surjectivity by counting the image.  The
    elements come from ``stage_elements``, so neither check reads the
    structure that ``ConnectingMap.verify`` certifies by."""
    fine, coarse = cm.fine, cm.coarse
    phi = {x: cm.apply(x) for x in stage_elements(fine)}
    hom_ok = True
    for g in fine.generators():
        pg = cm.apply(g)
        for x, px in phi.items():
            if phi[fine.mul(g, x)] != coarse.mul(pg, px):
                hom_ok = False
                break
        if not hom_ok:
            break
    surjective = len(set(phi.values())) == coarse.order
    return {
        "homomorphism": hom_ok,
        "surjective": surjective,
        "kernel_size": fine.order // coarse.order if surjective else None,
        "order_ratio": fine.order // coarse.order,
    }


def elementwise_triangle(via, down, direct):
    """Whether down(via(x)) == direct(x) for every element x of the fine
    stage."""
    return all(down.apply(via.apply(x)) == direct.apply(x)
               for x in stage_elements(via.fine))


# ---------------------------------------------------------------------------
# stabilizer identities over Fraction: the membership tests on the parsed
# (n, q) views that ``stabilizer_identities_report`` used before it ran on
# integers


def _in_m(pair, n):
    n0, n1 = Fraction(n[0]), Fraction(n[1])
    if pair.family == "heisenberg":
        return n0 % 1 == 0 and n1.denominator == 1
    return n0.denominator == 1 and n1.denominator == 1


def _in_r(pair, q):
    if pair.family == "heisenberg":
        return isinstance(q, Fraction) and q.denominator == 1
    return (isinstance(q, Mat2) and pair.in_q(q) and q.is_integral()
            and abs(q.det()) == 1)


def _q_act(pair, q, n):
    """Action of q on n (conjugation inside G, written additively)."""
    if pair.family == "heisenberg":
        return ((n[0] + q * n[1]) % 1, n[1])
    return q.apply(n)


def _in_r_coset_stab(pair, n, r):
    """r n r^-1 in nM, i.e. r.n - n in M (r must already lie in R)."""
    if pair.family == "heisenberg":
        return (r * n[1]).denominator == 1
    rn = _q_act(pair, r, n)
    return _in_m(pair, (rn[0] - n[0], rn[1] - n[1]))


def _in_r_cap_conj(pair, q, r):
    """r in R meet qRq^-1."""
    if not _in_r(pair, r):
        return False
    if pair.q_is_abelian:
        return True
    return _in_r(pair, q.inv() * r * q)


def _conj_in_h(pair, x, h):
    """h in xHx^-1, i.e. x^-1 h x in H, for x = (v, q) and h = (m, r) given
    by their Fraction views.  In the planar families
    x^-1 h x = (q^-1 (m + (r - 1)v), q^-1 r q); in the heisenberg family,
    with v = (v0, v1) and m = (m0, m1), it is (m0 + r v1 - q m1, m1, r)."""
    (v0, v1), q = x
    (m0, m1), r = h
    if pair.family == "heisenberg":
        return _in_m(pair, (m0 + r * v1 - q * m1, m1)) and _in_r(pair, r)
    qinv = q.inv()
    w = qinv.apply((m0 + (r.a - 1) * v0 + r.b * v1, m1 + r.c * v0 + (r.d - 1) * v1))
    return _in_m(pair, w) and _in_r(pair, qinv * r * q)


def fraction_stab_identity(pair, x, h):
    """The outputs of the ``stab_identity`` record of (h, x) for h in H,
    over Fraction: each left side conjugates directly, each right side is
    the lattice/congruence description with M_q from the Fraction lattice
    oracles."""
    q, m, r = x.q, h.n, h.q
    heis = pair.family == "heisenberg"
    one = Fraction(0) if heis else Mat2.identity()
    n = _q_act(pair, -q if heis else q.inv(), x.n)  # x = q.n with this n
    lhs_n = _conj_in_h(pair, (n, one), (m, r))
    lhs_q = _conj_in_h(pair, ((0, 0), q), (m, r))
    lhs_xq = lhs_q and _conj_in_h(pair, (x.n, q), (m, r))
    rhs_n = _in_m(pair, m) and _in_r(pair, r) and _in_r_coset_stab(pair, n, r)
    if heis:
        rhs_q = _in_m(pair, m) and (q * m[1]).denominator == 1 and _in_r(pair, r)
        rhs_xq = rhs_q and (r * n[1]).denominator == 1
    else:
        std = (Fraction(1), Fraction(0), Fraction(1))
        in_m_cap = fraction_contains(
            fraction_intersect(std, fraction_transform(q, std)), m)
        rhs_q = in_m_cap and _in_r_cap_conj(pair, q, r)
        conj = q.inv() * r * q
        rhs_xq = in_m_cap and _in_r(pair, conj) and _in_r_coset_stab(pair, n, conj)
    return {"h_in_H_n": [lhs_n, rhs_n], "h_in_H_q": [lhs_q, rhs_q],
            "h_in_H_x_and_H_q": [lhs_xq, rhs_xq]}


def r_q_count_by_filter(pair, q):
    """[R : R_q] by listing: the image of R mod the level s = |det Q| of the
    integralized q = Q/t, listed by ``r_image_by_closure``, over the residues r
    in it with Q^-1 r Q integral, i.e. adj(Q) r Q = 0 mod s.  Shares no code
    with the stabilizer chain or the column count."""
    _, (a, b, c, d) = q.integralize()
    image = r_image_by_closure(pair, abs(a * d - b * c))
    member = r_q_member_count(image, (a, b, c, d))
    assert member and len(image) % member == 0
    return len(image) // member


def r_q_member_count(image, integral_q):
    """The number of residues r of ``image`` (mod s = |det Q|) in R_q for
    q = Q/t with Q = ``integral_q``: adj(Q) r Q = 0 mod s."""
    a, b, c, d = integral_q
    s = abs(a * d - b * c)
    return sum(1 for r in image if not any(
        z % s for z in mat_mul_int(mat_mul_int((d, -b, -c, a), r), (a, b, c, d))))


def quad_one(d: int) -> QuadInt:
    return QuadInt(1, 0, d)


def quad_pow_mod(r: QuadInt, k: int, s: int) -> QuadInt:
    """r**k with both coordinates reduced to [0, s), by repeated squaring."""
    if k < 0:
        raise ValueError("exponent must be non-negative")
    result = quad_one(r.d).reduce_mod(s)
    base = r.reduce_mod(s)
    while k:
        if k & 1:
            result = (result * base).reduce_mod(s)
        base = (base * base).reduce_mod(s)
        k >>= 1
    return result


# ---------------------------------------------------------------------------
# coset and class keys over Fraction: the slow reference of the coset
# kernels of ``kernels`` (``_canon``, ``_class`` and the kernels built on
# them), from the Fraction views of an element


def _quad_normal(d, unit, a, b):
    """(a', b') with a' + b' sqrt d the element of +-(a + b sqrt d) u^Z with
    positive real embedding and square in [|norm|, |norm| u^2), by exact
    ``sympy`` comparisons."""
    import sympy

    root = sympy.sqrt(d)
    m0, n0 = unit
    u = m0 + n0 * root
    u_inv = (m0 * m0 - d * n0 * n0) * (m0 - n0 * root)  # the norm of u is +-1
    beta = sympy.Rational(a.numerator, a.denominator) + \
        sympy.Rational(b.numerator, b.denominator) * root
    beta = beta if beta > 0 else -beta
    norm = abs(sympy.expand(beta * (beta.subs(root, -root))))
    while sympy.expand(beta ** 2) < norm:
        beta = sympy.expand(beta * u)
    while sympy.expand(beta ** 2) >= sympy.expand(norm * u ** 2):
        beta = sympy.expand(beta * u_inv)
    a, b = sympy.Rational(beta.subs(root, 0)), sympy.Rational(beta.coeff(root))
    return Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q))


def coset_key(x, cls=False):
    """The key (s, v) of the canonical element of xH, or with ``cls`` of
    MxH: q replaced by the canonical element q' of qR (the column form of q
    for gl2, the unit normal form for the quad torus, q mod 1 for
    heisenberg), n reduced into the box of the canonical basis of the
    lattice it moves by: q'M (with Z x 0 for heisenberg, in the order
    (n1, n0)), and M + q'M for the class."""
    pair = x.pair
    (n0, n1), q = x.n, x.q
    one, zero = Fraction(1), Fraction(0)
    if pair.family == "heisenberg":
        q = q % 1
        vectors, n0, n1 = [(one, q), (zero, one)], n1, n0
    else:
        if pair.q_kind == "quad_torus":
            a, b = _quad_normal(pair.d, pair.quad_unit, q.a, q.c)
            q = Mat2(a, pair.d * b, b, a)
        else:
            a, c, d = hnf_columns([(q.a, q.c), (q.b, q.d)])
            q = Mat2(a, zero, c, d)
        vectors = [(q.a, q.c), (q.b, q.d)]
    if cls:
        vectors += [(one, zero), (zero, one)]
    a, c, d = hnf_columns(vectors)
    k = floor(n0 / a)
    n0, n1 = n0 - k * a, (n1 - k * c) % d
    if pair.family == "heisenberg":
        n0, n1 = n1, n0
    y = pair.element((n0, n1), q)
    return y.s, y.v


# ---------------------------------------------------------------------------
# the classical Hecke ring R(GL(2, Z), Delta_p), Delta_p the integral
# matrices of p-power determinant (Shimura 1971, section 3.2)


def classical_hecke_product(p, f, g):
    """f g in R(GL(2, Z), Delta_p), for f and g given as {(a, b): c}, the
    combinations of T(p^a, p^b) = [GL(2, Z) diag(p^a, p^b) GL(2, Z)], a <= b.

    T(p^a, p^b) = T(p, p)^a T(1, p^(b-a)), T(p, p) is central, and by
    Shimura 1971, Thm 3.24, T(1, p) T(1, p^k) is T(1, p^(k+1)) + c_k T(p, p^k)
    with c_1 = p + 1 and c_k = p for k >= 2.  So T(1, p^k) is a polynomial
    in T(1, p) and T(p, p), read off by that recursion."""
    def add(x, y, scale=1, shift=0):
        out = dict(x)
        for (a, b), c in y.items():
            key = (a + shift, b + shift)
            out[key] = out.get(key, 0) + scale * c
        return {k: c for k, c in out.items() if c}

    def t1p(x):  # T(1, p) x
        out = {}
        for (a, b), c in x.items():
            out = add(out, {(a, b + 1): c})
            if b > a:
                out = add(out, {(a + 1, b): c * (p + 1 if b - a == 1 else p)})
        return out

    def t1pk(k, y):
        # T(1, p^k) y, by T(1, p^(j+1)) = T(1, p) T(1, p^j) - c_j T(p, p) T(1, p^(j-1))
        if k == 0:
            return y
        prev, cur = y, t1p(y)
        for j in range(1, k):
            prev, cur = cur, add(t1p(cur), prev, -(p + 1 if j == 1 else p), shift=1)
        return cur

    out = {}
    for (a, b), c in f.items():
        out = add(out, t1pk(b - a, g), c, shift=a)
    return out
