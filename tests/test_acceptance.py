"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime.  Every expected value is exact; runtime
budgets are part of the criteria."""

import random
import time
from fractions import Fraction
from math import gcd

import pytest

from heckepairs.arith import (
    Lattice,
    Mat2,
    QuadInt,
    lattice_intersect,
    lattice_sum,
)
from heckepairs.cosets import HeckeElement, convolve, delta, involution, l_of
from heckepairs.errors import BadDiscriminant
from heckepairs.families import (
    fundamental_unit,
    heis_orbit,
    quad_unit_data,
    slpm_surjectivity,
    split_global,
    split_padic,
    unit_image_gap,
)
from heckepairs.grouppair import (
    PairDescriptor,
    hecke_indices_report,
    index_m_cap_conj,
    index_r_cap_conj,
)
from heckepairs.tower import ConnectingMap, build_stage, make_coset_family, \
    make_envelope, verify_stage_invariants

from oracles import quad_pow_mod, slpm_elements_mod, stage_elements

F = Fraction


def _report(number: int, title: str, ok: bool, elapsed: float, limit: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} ({elapsed:.2f}s / limit {limit:.0f}s) "
          f"- {title}")
    assert ok, f"criterion {number} failed"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s"


def test_criterion_1_hecke_pair_verification():
    start = time.monotonic()
    pair = PairDescriptor.planar_gl2(p=2)
    qs = [Mat2.diag(2, 1), Mat2.diag(4, 2), Mat2.of(1, 1, 0, 1) * Mat2.diag(2, 1)]
    ns = [(F(1, 2), F(0)), (F(1, 4), F(1, 2))]
    rep = hecke_indices_report(pair, qs, ns)
    ok = rep["verdict"] == "pass"
    for check in rep["checks"]:
        for value in check["outputs"].values():
            ok = ok and isinstance(value, int) and value >= 1
    _report(1, "all stabilizer indices finite on the sampled pair", ok,
            time.monotonic() - start, 10.0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_criterion_2_double_coset_counts(p):
    start = time.monotonic()
    pair = PairDescriptor.planar_gl2(p=p)
    q = Mat2.diag(p, 1)
    x = pair.element((0, 0), q)
    bfs = l_of(x)
    product = index_m_cap_conj(pair, q) * index_r_cap_conj(pair, q)
    ok = bfs == product == p * (p + 1)
    ok = ok and delta(x) == p
    _report(2, f"L(diag({p},1)) = {p}({p}+1) by two methods, delta = {p}", ok,
            time.monotonic() - start, 30.0)


def _random_algebra_elements(pair, pool, rng, count=50):
    out = []
    for _ in range(count):
        support = rng.sample(pool, rng.randint(1, 3))
        f = HeckeElement(pair, {})
        for x in support:
            f = f + HeckeElement.char_fn(x, F(rng.randint(-5, 5), rng.randint(1, 4)))
        out.append(f)
    return out


def test_criterion_3_star_algebra_axioms():
    start = time.monotonic()
    rng = random.Random(2026)
    ok = True
    for family in ("gl2", "heis"):
        if family == "gl2":
            pair = PairDescriptor.planar_gl2(p=2)
            pool = [
                pair.identity(),
                pair.element((0, 0), Mat2.diag(2, 1)),
                pair.element((F(1, 2), 0), Mat2.identity()),
                pair.element((F(1, 2), F(1, 2)), Mat2.diag(2, 1)),
                pair.element((0, 0), Mat2.scalar(2)),
            ]
        else:
            pair = PairDescriptor.heisenberg()
            pool = [
                pair.identity(),
                pair.element((0, F(1, 2)), 0),
                pair.element((0, 0), F(1, 3)),
                pair.element((F(1, 2), F(1, 2)), F(1, 2)),
                pair.element((0, F(1, 3)), F(1, 2)),
            ]
        elems = _random_algebra_elements(pair, pool, rng)
        unit = HeckeElement.unit(pair)
        for i, f in enumerate(elems):
            g = elems[(i + 7) % len(elems)]
            h = elems[(i + 13) % len(elems)]
            ok = ok and convolve(convolve(f, g), h) == convolve(f, convolve(g, h))
            ok = ok and involution(involution(f)) == f
            ok = ok and convolve(unit, f) == f
            ok = ok and convolve(f, unit) == f
            ok = ok and involution(convolve(f, g)) \
                == convolve(involution(g), involution(f))
            if not ok:
                break
    _report(3, "star-algebra axioms exact on 50 seeded elements per family",
            ok, time.monotonic() - start, 120.0)


def test_criterion_4_tower_coherence():
    start = time.monotonic()
    pair = PairDescriptor.planar_gl2(p=2)
    seed_chain = [[], [Mat2.diag(2, 1)], [Mat2.diag(2, 1), Mat2.diag(4, 1)]]
    stages = []
    ok = True
    for seeds in seed_chain:
        fam = make_coset_family(pair, seeds)
        env = make_envelope(fam)
        st = build_stage(fam, env)
        ok = ok and verify_stage_invariants(st)["verdict"] == "pass"
        ok = ok and st.order == st.m_index * st.r_index
        stages.append(st)
    for fine, coarse in ((1, 0), (2, 1), (2, 0)):
        cert = ConnectingMap(stages[fine], stages[coarse]).verify()
        ok = ok and cert["homomorphism"] and cert["surjective"]
    via = ConnectingMap(stages[2], stages[1])
    down = ConnectingMap(stages[1], stages[0])
    direct = ConnectingMap(stages[2], stages[0])
    ok = ok and all(
        down.apply(via.apply(x)) == direct.apply(x) for x in stage_elements(stages[2])
    )
    _report(4, "tower stages verified, connecting maps surject, triangles "
               "commute", ok, time.monotonic() - start, 60.0)


def test_criterion_5_worked_example_values():
    start = time.monotonic()
    ok = fundamental_unit(2) == QuadInt(1, 1, 2)
    try:
        fundamental_unit(5)
        ok = False
    except BadDiscriminant:
        pass
    gap = unit_image_gap(2, 17)
    ok = ok and gap["proper"] is True
    data = quad_unit_data(2, 17)
    ok = ok and (4, 0) in data.full_units
    ok = ok and (4, 0) not in data.unit_image
    # the witness from the text: +-(1+sqrt2)^n never hits 4 mod 17
    r0 = fundamental_unit(2)
    for n in range(gap["unit_order"]):
        power = quad_pow_mod(r0, n, 17)
        ok = ok and (power.m, power.n) != (4, 0)
        ok = ok and ((-power.m) % 17, (-power.n) % 17) != (4, 0)
    # M meet xMx^-1 = nZ for the Heisenberg x with parameter 1/n: (0, b)
    # survives conjugation by x exactly when n | b
    heis = PairDescriptor.heisenberg()
    for n in range(1, 51):
        x = heis.element((0, 0), F(1, n))
        xi = heis.inv(x)
        ok = ok and all(
            heis.in_h(heis.mul(heis.mul(xi, heis.element((0, b), 0)), x)) == (b % n == 0)
            for b in range(-6 * n, 6 * n + 1))
    _report(5, "worked example values reproduced exactly", ok,
            time.monotonic() - start, 60.0)


def _random_padic_matrix(rng, p):
    while True:
        g = Mat2(*(F(rng.randint(-20, 20), p ** rng.randint(0, 4))
                   for _ in range(4)))
        det = g.det()
        if det == 0:
            continue
        num, den = abs(det).numerator, abs(det).denominator
        while num % p == 0:
            num //= p
        while den % p == 0:
            den //= p
        if num == 1 and den == 1:
            return g


def test_criterion_6_triangular_splitting_certificates():
    start = time.monotonic()
    ok = True
    for p in (2, 3):
        rng = random.Random(500 + p)
        for _ in range(500):
            g = _random_padic_matrix(rng, p)
            split = split_padic(g, p)  # certifies reassembly and valuations
            ok = ok and split.t * split.k == g
    rng = random.Random(600)
    for _ in range(500):
        while True:
            g = Mat2(*(F(rng.randint(-30, 30), rng.randint(1, 12))
                       for _ in range(4)))
            if g.det() != 0:
                break
        split = split_global(g)
        ok = ok and split.t * split.k == g and split.k.is_integral() \
            and abs(split.k.det()) == 1
    _report(6, "1500 triangular-unimodular splittings certified exactly", ok,
            time.monotonic() - start, 60.0)


def test_criterion_7_finite_unimodular_images():
    start = time.monotonic()
    ok = True
    for s in range(1, 17):
        rep = slpm_surjectivity(s)
        ok = ok and rep["match"]
        if s > 1:
            ok = ok and rep["target_size"] == len(slpm_elements_mod(s))
    _report(7, "generator closure equals all det +-1 residues for s <= 16",
            ok, time.monotonic() - start, 120.0)


def _int_box_points(lat, bound):
    assert lat.s == 1
    a, c, d = lat.a, lat.c, lat.d
    pts = set()
    for i in range(-(bound // a), bound // a + 1):
        x = i * a
        y0 = i * c
        lo = -((bound + y0) // d)
        for j in range(lo, (bound - y0) // d + 1):
            pts.add((x, y0 + j * d))
    return pts


def test_criterion_8_oracle_equivalence():
    start = time.monotonic()
    from oracles import all_hnf_lattices

    lats = all_hnf_lattices(12)
    box = 24
    points = {lat: _int_box_points(lat, box) for lat in lats}
    ok = True
    for i, l1 in enumerate(lats):
        for l2 in lats[i:]:
            meet = lattice_intersect(l1, l2)
            join = lattice_sum(l1, l2)
            ok = ok and _int_box_points(meet, box) == (points[l1] & points[l2])
            join_pts = _int_box_points(join, box)
            for lat in (l1, l2):
                # canonical entries are within the box
                for v in ((lat.a, lat.c), (0, lat.d)):
                    ok = ok and v in join_pts
            det = [lat.a * lat.d for lat in (meet, join, l1, l2)]
            ok = ok and det[0] * det[1] == det[2] * det[3]
        if not ok:
            break
    for s in range(1, 61):
        for z in range(s):
            for w in (0, 1, s - 1):
                orbit = heis_orbit(z, w, s)
                direct = {(z % s, (w + r * z) % s) for r in range(s)}
                ok = ok and orbit == direct
                ok = ok and len(orbit) == s // gcd(z if z else s, s)
        if not ok:
            break
    _report(8, "lattice ops match box enumeration (det <= 12); orbits match "
               "direct iteration (s <= 60)", ok, time.monotonic() - start, 120.0)
