import random
from fractions import Fraction

import pytest

from heckepairs import families
from heckepairs.arith import Mat2, QuadInt, val_p
from heckepairs.errors import (
    BadDiscriminant,
    BoundReached,
    CertificateFailed,
    DetNotAllowed,
)
from heckepairs.families import (
    TriangularSplit,
    _certify_padic,
    fundamental_unit,
    heis_orbit,
    quad_unit_data,
    slpm_surjectivity,
    split_global,
    split_padic,
    unit_image_gap,
    unit_order_mod,
)
from heckepairs.grouppair import PairDescriptor

from oracles import quad_pow_mod, slpm_elements_mod

F = Fraction


# ---------------------------------------------------------------------------
# quadratic units


def test_fundamental_unit_examples():
    assert fundamental_unit(2) == QuadInt(1, 1, 2)  # 1 + sqrt(2)
    assert fundamental_unit(3) == QuadInt(2, 1, 3)


def test_fundamental_unit_brute_force_minimal():
    # oracle: scan |m^2 - d n^2| = 1 with small coordinates; the fundamental
    # unit is the solution with the smallest real embedding > 1
    for d in (2, 3, 6, 7, 10):
        r0 = fundamental_unit(d)
        assert abs(r0.norm()) == 1
        best = None
        for n in range(1, 60):
            for m in range(1, 200):
                if abs(m * m - d * n * n) == 1:
                    if best is None or (m + n * d ** 0.5) < best[0]:
                        best = (m + n * d ** 0.5, m, n)
        assert (r0.m, r0.n) == best[1:]


def test_fundamental_unit_rejections():
    with pytest.raises(BadDiscriminant):
        fundamental_unit(5)  # 5 = 1 mod 4
    with pytest.raises(BadDiscriminant):
        fundamental_unit(12)  # not square-free
    with pytest.raises(BadDiscriminant):
        fundamental_unit(1)


def test_unit_order_examples():
    r0 = fundamental_unit(2)
    assert unit_order_mod(r0, 2) == 2  # (1+sqrt2)^2 = 3+2sqrt2 = 1 mod 2
    assert unit_order_mod(r0, 3) == 8
    assert unit_order_mod(QuadInt(1, 0, 2), 7) == 1


def test_unit_order_minimal():
    r0 = fundamental_unit(2)
    for s in (2, 3, 5, 17):
        n_s = unit_order_mod(r0, s)
        one = QuadInt(1 % s, 0, 2)
        assert quad_pow_mod(r0, n_s, s) == one
        for j in range(1, n_s):
            assert quad_pow_mod(r0, j, s) != one


def test_unit_image_gap_2_17():
    rep = unit_image_gap(2, 17)
    assert rep["proper"] is True
    assert rep["witness"] is not None
    # 4 is a unit mod 17 but not of the form +-(1+sqrt2)^n
    data = quad_unit_data(2, 17)
    assert (4, 0) in data.full_units
    assert (4, 0) not in data.unit_image
    for n in range(rep["unit_order"]):
        power = quad_pow_mod(fundamental_unit(2), n, 17)
        assert power != QuadInt(4, 0, 2)
        assert QuadInt((-power.m) % 17, (-power.n) % 17, 2) != QuadInt(4, 0, 2)


def test_unit_image_lagrange():
    for d, s in ((2, 17), (2, 5), (3, 7), (2, 2)):
        rep = unit_image_gap(d, s)
        assert rep["full_size"] % rep["image_size"] == 0


def test_unit_scan_checks_its_bound_first(monkeypatch):
    # the scan visits the 17^2 = 289 residue pairs mod 17; above the bound
    # neither the order of r0 nor any power or pair is computed
    assert quad_unit_data(2, 17, 289) == quad_unit_data(2, 17)
    steps = []
    monkeypatch.setattr(families, "unit_order_mod", lambda *a: steps.append(a))
    monkeypatch.setattr(QuadInt, "reduce_mod", lambda *a: steps.append(a))
    for scan in (quad_unit_data, unit_image_gap):
        with pytest.raises(BoundReached,
                           match="^289 residue pairs mod 17 exceed the bound 288$"):
            scan(2, 17, 288)
    assert steps == []


def test_unit_image_tiny_ring_exhaustive():
    rep = unit_image_gap(2, 2)
    # Z_2[sqrt 2] has 4 elements; units must have odd norm: m odd
    assert rep["full_size"] == 2
    assert rep["image_size"] == 2
    assert rep["proper"] is False


# ---------------------------------------------------------------------------
# splittings


def test_split_padic_examples():
    p = 2
    g = Mat2.diag(2, 1)
    s = split_padic(g, p)
    assert (s.t, s.k) == (Mat2.diag(2, 1), Mat2.identity())
    g = Mat2.of(0, 1, -1, 0)
    s = split_padic(g, p)
    assert s.t == Mat2.identity() and s.k == g
    g = Mat2.of(1, F(1, 2), 0, 1)
    s = split_padic(g, p)
    assert s.t == Mat2.of(F(1, 2), 0, 1, 2)
    assert s.k == Mat2.of(2, 1, -1, 0)


def test_split_padic_rejects():
    with pytest.raises(DetNotAllowed):
        split_padic(Mat2.diag(3, 1), 2)  # det 3 not a power of 2
    with pytest.raises(DetNotAllowed):
        split_padic(Mat2.of(F(1, 3), 0, 0, 3), 2)  # 1/3 outside Z[1/2]
    with pytest.raises(DetNotAllowed):
        split_padic(Mat2.of(1, 1, 1, 1), 2)  # singular


def test_certify_padic_rejects_a_split_that_does_not_reassemble():
    g = Mat2.of(1, F(1, 2), 0, 1)
    good = split_padic(g, 2)
    _certify_padic(g, good, 2)
    # every other certificate still holds: t is lower triangular with a
    # p-power diagonal, k is p-integral with determinant +-1
    bad = TriangularSplit(good.t, good.k * Mat2.of(1, 1, 0, 1))
    assert bad.t * bad.k != g
    with pytest.raises(CertificateFailed, match="reassemble"):
        _certify_padic(g, bad, 2)


def rand_padic_matrix(rng, p):
    # entries p^-a * integer with a <= 4, det forced into +-p^Z by rejection
    while True:
        entries = [
            F(rng.randint(-20, 20), p ** rng.randint(0, 4)) for _ in range(4)
        ]
        g = Mat2(*entries)
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


@pytest.mark.parametrize("p", [2, 3])
def test_split_padic_random_certificates(p):
    rng = random.Random(400 + p)
    for _ in range(500):
        g = rand_padic_matrix(rng, p)
        s = split_padic(g, p)  # split_padic certifies internally
        assert s.t * s.k == g
        assert abs(s.k.det()) == 1
        for x in s.k.entries():
            assert x == 0 or val_p(x, p) >= 0


def test_split_global_examples():
    g = Mat2.of(0, 1, -1, 0)
    s = split_global(g)
    assert s.t == Mat2.identity() and s.k == g
    g = Mat2.diag(6, 1)
    s = split_global(g)
    assert s.t == g and s.k == Mat2.identity()
    g = Mat2.of(1, F(1, 6), 0, 1)
    s = split_global(g)
    assert s.t * s.k == g
    assert s.k.is_integral() and abs(s.k.det()) == 1
    assert s.t.b == 0


def test_split_global_random_certificates():
    rng = random.Random(77)
    for _ in range(500):
        while True:
            g = Mat2(*(F(rng.randint(-30, 30), rng.randint(1, 12))
                       for _ in range(4)))
            if g.det() != 0:
                break
        s = split_global(g)
        assert s.t * s.k == g
        assert s.t.b == 0
        assert s.k.is_integral() and abs(s.k.det()) == 1


# ---------------------------------------------------------------------------
# finite unimodular images


def test_slpm_small_moduli():
    assert slpm_surjectivity(1)["image_size"] == 1
    rep2 = slpm_surjectivity(2)
    assert rep2["match"] and rep2["image_size"] == 6
    rep3 = slpm_surjectivity(3)
    assert rep3["match"] and rep3["image_size"] == 48


@pytest.mark.parametrize("s", list(range(2, 25)))
def test_slpm_matches_exhaustive_oracle(s):
    rep = slpm_surjectivity(s)
    assert rep["match"]
    assert rep["image_size"] == len(slpm_elements_mod(s))
    assert rep["contains_reflection"]


def test_slpm_size_cap():
    with pytest.raises(BoundReached,
                       match=r"^\|SL\+-\(2, Z/100\)\| = 1440000 exceeds the bound 100000$"):
        slpm_surjectivity(100)


# ---------------------------------------------------------------------------
# Heisenberg


def test_heis_conj_meet_index():
    # M meet xMx^-1 = nZ for the Heisenberg x with parameter 1/n: by the
    # group law, (0, b) survives conjugation by x exactly when n | b
    pair = PairDescriptor.heisenberg()
    for n in (1, 6, 2, 3, 5, 7):
        x = pair.element((0, 0), F(1, n))
        xi = pair.inv(x)
        for b in range(-6 * n, 6 * n + 1):
            conj = pair.mul(pair.mul(xi, pair.element((0, b), 0)), x)
            assert pair.in_h(conj) == (b % n == 0), (n, b)


def test_heis_orbit_examples():
    assert heis_orbit(0, 3, 7) == {(0, 3)}  # fixed point
    assert heis_orbit(2, 1, 6) == {(2, 1), (2, 3), (2, 5)}
    full = heis_orbit(5, 2, 6)  # z coprime to s sweeps the fiber
    assert full == {(5, w) for w in range(6)}


def test_heis_orbit_size_formula():
    from math import gcd

    for s in range(1, 61):
        for z in range(s):
            orbit = heis_orbit(z, 3, s)
            direct = {(z % s, (3 + r * z) % s) for r in range(s)}
            assert orbit == direct
            assert len(orbit) == s // gcd(z if z else s, s)
