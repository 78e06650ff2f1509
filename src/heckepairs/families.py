"""Concrete computations for the worked matrix and number-theoretic families:
triangular-times-unimodular splittings of GL2 elements, real quadratic unit
groups modulo s, finite images of the integer unimodular group, and the
rational Heisenberg orbit computations.

Finite images of R = GL(2, Z) and Heisenberg orbits have closed-form
sizes, checked against the enumeration bound before anything is walked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import (
    Mat2,
    QuadInt,
    _xgcd,
    check_discriminant,
    in_z_inv_p,
    is_prime,
    pell_fundamental,
    unit_sign,
    val_p,
)
from .errors import (
    BadDiscriminant,
    BoundReached,
    CertificateFailed,
    DetNotAllowed,
)
from .grouppair import DEFAULT_COSET_BOUND, PairDescriptor, r_image_chain, slpm_order

F = Fraction


# ---------------------------------------------------------------------------
# real quadratic units


def fundamental_unit(d: int) -> QuadInt:
    """Smallest unit > 1 of Z[sqrt(d)], by the continued-fraction search."""
    if d <= 1:
        raise BadDiscriminant(f"d = {d} must exceed 1")
    check_discriminant(d)
    m, n = pell_fundamental(d)
    return QuadInt(m, n, d)


def unit_order_mod(r0: QuadInt, s: int) -> int:
    """Multiplicative order of a unit in Z_s[sqrt(d)], by direct iteration.

    Minimality holds by construction: every smaller positive power is seen
    to differ from 1.
    """
    if s < 2:
        raise ValueError("modulus must be at least 2")
    if abs(r0.norm()) != 1:
        raise ValueError(f"{r0} is not a unit")
    one = QuadInt(1 % s, 0, r0.d)
    power = r0.reduce_mod(s)
    order = 1
    while power != one:
        power = (power * r0).reduce_mod(s)
        order += 1
    return order


@dataclass(frozen=True)
class QuadUnitData:
    """Unit-group data of Z_s[sqrt(d)]: the full unit group and the subgroup
    hit by the global units {+-r0^k}."""

    d: int
    r0: QuadInt
    s: int
    n_s: int
    unit_image: frozenset
    full_units: frozenset

    def __post_init__(self):
        if abs(self.r0.norm()) != 1:
            raise CertificateFailed(f"{self.r0} is not a unit")
        if not self.unit_image <= self.full_units:
            raise CertificateFailed("unit image is not inside the unit group")


def quad_unit_data(d: int, s: int, bound: int = DEFAULT_COSET_BOUND) -> QuadUnitData:
    """The unit data mod s, from a scan of the s^2 residue pairs (m, n),
    which are compared with ``bound`` first; the order of r0 mod s, the
    length of the power walk, is below their number."""
    r0 = fundamental_unit(d)
    if s * s > bound:
        raise BoundReached(f"{s * s} residue pairs mod {s} exceed the bound {bound}")
    n_s = unit_order_mod(r0, s)
    image = set()
    power = QuadInt(1 % s, 0, d)
    for _ in range(n_s):
        image.add((power.m, power.n))
        image.add(((-power.m) % s, (-power.n) % s))
        power = (power * r0).reduce_mod(s)
    full = set()
    for m in range(s):
        for n in range(s):
            if gcd((m * m - d * n * n) % s, s) == 1:
                full.add((m, n))
    return QuadUnitData(d, r0, s, n_s, frozenset(image), frozenset(full))


def unit_image_gap(d: int, s: int, bound: int = DEFAULT_COSET_BOUND) -> dict:
    """Compare the image of the global units with the full unit group mod s.

    The report carries a witness unit outside the image whenever the
    inclusion is proper.  The scan is bounded as in ``quad_unit_data``.
    """
    data = quad_unit_data(d, s, bound)
    proper = data.unit_image < data.full_units
    witness = min(data.full_units - data.unit_image) if proper else None
    if len(data.full_units) % len(data.unit_image):
        raise CertificateFailed("unit image order does not divide the group order")
    return {
        "d": d,
        "modulus": s,
        "unit_order": data.n_s,
        "image_size": len(data.unit_image),
        "full_size": len(data.full_units),
        "proper": proper,
        "witness": witness,
    }


# ---------------------------------------------------------------------------
# triangular * unimodular splittings


@dataclass(frozen=True)
class TriangularSplit:
    """Factorization g = t * k with t lower triangular and k unimodular in
    the relevant integrality sense."""

    t: Mat2
    k: Mat2


_ROT = Mat2.of(0, 1, -1, 0)  # order-4 rotation, det 1


def _split_lower(g: Mat2, p: int) -> TriangularSplit:
    # b = 0, so a and d are signed p-powers
    sa = unit_sign(g.a, p)
    sd = unit_sign(g.d, p)
    if sa is None or sd is None:
        raise CertificateFailed(f"diagonal of {g} is not a pair of signed powers of {p}")
    t = Mat2(abs(g.a), F(0), sa * g.c, abs(g.d))
    k = Mat2.diag(sa, sd)
    return TriangularSplit(t, k)


def split_padic(g: Mat2, p: int) -> TriangularSplit:
    """Split g = t * k with t lower triangular with +-p-power diagonal and k
    of determinant +-1 whose entries all have p-valuation >= 0.

    Entries of g must lie in Z[1/p] and det(g) must be +-p^j.  The three
    cases follow the shape of g: second column entry zero; first entry zero;
    both nonzero (rotating first when the valuations are ordered the wrong
    way around).
    """
    if not is_prime(p):
        raise DetNotAllowed(f"p = {p} is not prime")
    for x in g.entries():
        if not in_z_inv_p(x, p):
            raise DetNotAllowed(f"entry {x} is not in Z[1/{p}]")
    if unit_sign(g.det(), p) is None:
        raise DetNotAllowed(f"det {g.det()} is not a signed power of {p}")

    if g.b == 0:
        split = _split_lower(g, p)
    elif g.a == 0:
        inner = _split_lower(Mat2(g.b, F(0), g.d, -g.c), p)
        split = TriangularSplit(inner.t, inner.k * _ROT)
    else:
        m = val_p(g.a, p)
        n = val_p(g.b, p)
        if m < n:
            inner = split_padic(g * _ROT, p)
            split = TriangularSplit(inner.t, inner.k * _ROT.inv())
        else:
            pn = F(p) ** n
            v = g.b / pn
            t = Mat2(pn, F(0), g.d / v, g.a * g.d / pn - v * g.c)
            k = Mat2(g.a / pn, v, -1 / v, F(0))
            split = TriangularSplit(t, k)

    _certify_padic(g, split, p)
    return split


def _certify_padic(g: Mat2, split: TriangularSplit, p: int) -> None:
    t, k = split.t, split.k
    if t * k != g:
        raise CertificateFailed(f"{t} * {k} does not reassemble {g}")
    if t.b != 0:
        raise CertificateFailed(f"{t} is not lower triangular")
    if unit_sign(t.a, p) is None or unit_sign(t.d, p) is None:
        raise CertificateFailed(f"diagonal of {t} is not a pair of signed powers of {p}")
    if abs(k.det()) != 1:
        raise CertificateFailed(f"{k} does not have determinant +-1")
    for x in k.entries():
        if x != 0 and val_p(x, p) < 0:
            raise CertificateFailed(f"k entry {x} has negative valuation")


def split_global(g: Mat2) -> TriangularSplit:
    """Split a nonsingular rational g as t * k with t lower triangular and
    k an integer matrix of determinant +-1, by one integral column
    reduction of the first row."""
    if g.det() == 0:
        raise DetNotAllowed("matrix is singular")
    if g.is_integral() and abs(g.det()) == 1:
        split = TriangularSplit(Mat2.identity(), g)
    elif g.b == 0:
        split = TriangularSplit(g, Mat2.identity())
    else:
        scale = F(g.a.denominator * g.b.denominator // gcd(
            g.a.denominator, g.b.denominator
        ))
        aa, bb = int(g.a * scale), int(g.b * scale)
        # x*aa + y*bb = gg; U kills the top-right entry and has det 1
        gg, x, y = _xgcd(aa, bb)
        u = Mat2.of(x, -bb // gg, y, aa // gg)
        split = TriangularSplit(g * u, u.inv())
    t, k = split.t, split.k
    if t * k != g:
        raise CertificateFailed(f"{t} * {k} does not reassemble {g}")
    if t.b != 0 or t.a == 0 or t.d == 0:
        raise CertificateFailed(f"{t} is not invertible lower triangular")
    if not k.is_integral() or abs(k.det()) != 1:
        raise CertificateFailed(f"{k} is not integral of determinant +-1")
    return split


# ---------------------------------------------------------------------------
# finite images of the integer unimodular group


def slpm_surjectivity(s: int, bound: int = DEFAULT_COSET_BOUND) -> dict:
    """Compare the order of the group the standard unimodular generators
    generate mod s, from its stabilizer chain, with |SL+-(2, Z/s)|, checked
    against ``bound`` first.  The generators have det +-1, so the image lies
    in SL+-(2, Z/s), and equal orders make the two equal."""
    if s < 1:
        raise ValueError("modulus must be positive")
    target = slpm_order(s)
    if target > bound:
        raise BoundReached(f"|SL+-(2, Z/{s})| = {target} exceeds the bound {bound}")
    order, member, _ = r_image_chain(PairDescriptor.planar_gl2(), s, bound)
    return {
        "modulus": s,
        "image_size": order,
        "target_size": target,
        "match": order == target,
        "contains_reflection": member((1, 0, 0, -1)),
    }


# ---------------------------------------------------------------------------
# Heisenberg computations


def heis_orbit(z: int, w: int, s: int, bound: int = DEFAULT_COSET_BOUND) -> set:
    """Orbit {(z, w + r z mod s) : r in Z/s} of a residue pair under the
    integer translations.  Its size is s / gcd(z, s), which is checked
    against ``bound`` first; r then runs below the size only, as r z mod s
    has that period."""
    if s < 1:
        raise ValueError("modulus must be positive")
    size = s // gcd(z % s, s)  # gcd(0, s) = s covers z = 0
    if size > bound:
        raise BoundReached(f"orbit of ({z}, {w}) mod {s} has {size} points, "
                           f"above the bound {bound}")
    orbit = {(z % s, (w + r * z) % s) for r in range(size)}
    if len(orbit) != size:
        raise CertificateFailed(f"orbit of ({z}, {w}) mod {s} has size {len(orbit)}")
    return orbit
