"""Coset kernels: the canonical forms of left cosets xH and of classes
MxH, as one set of plain functions per family.

A key (s, v) is the element v/s of G (see ``grouppair.GElem``), over any
positive denominator s; every key a kernel returns is over the least one,
and a common factor of s and v gives the same key.  Each family has one
set, which ``PairDescriptor.__init__`` stores on the pair under these
names, so that no call tests the family:

* ``_product(s, v, t, w)``: the key of xy over s t, not reduced;
* ``_canon(s, v)``: the key of the canonical element of xH: q replaced
  by the canonical element q' of qR, and n reduced into the box
  (``_box``) of the lattice it moves by, q'M (with Z x 0 for heisenberg);
* ``_class(s, v)``: the key of the canonical element of MxH, the union of
  the m.xH over m in M: as ``_canon``, with n reduced mod M + q'M;
* ``_orbit_step(s, v, t, w)``: ``_class`` of ``_product``;
* ``_meet_box(s, v)``: (a, d) such that the points (i, j), 0 <= i < a,
  0 <= j < d, of M lie one in each class of M / (M meet qM); the meet
  is (1/s)(sZ^2 meet span q), so [M : M meet qM] = a d;
* ``_left_keys(s, v)``: the ``_canon`` keys of the left cosets m.xH in
  MxH, for m = (i, j) over that box, i outer: one span for all;
* ``canon_mul(x, y)``: ``_canon`` of the product of two elements, which
  must belong to one pair;
* ``_canon_q_ints(a, b, c, d)`` (planar): the numerators, over the same
  denominator, of the canonical element of qR for q = (a, b; c, d)/s.

The gl2 and heisenberg kernels, on the ``hecke mul`` and ``dcoset`` hot
paths, are written out in full: a call makes no Python call beyond
``hnf_int`` and ``hnf_sum``.  The slow reference they are tested against
is ``coset_key`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING

from .arith import hnf_int, hnf_meet, hnf_sum
from .errors import DescriptorMismatch

if TYPE_CHECKING:
    from .grouppair import GElem


def _box(n0: int, n1: int, a: int, c: int, d: int) -> tuple[int, int]:
    """The representative of (n0, n1) modulo the integer lattice with
    canonical form (a, c, d) in its box [0, a) x [0, d)."""
    k = n0 // a
    return n0 - k * a, (n1 - k * c) % d


def _check_pairs(x: GElem, y: GElem) -> None:
    if x.pair != y.pair:
        raise DescriptorMismatch("elements belong to different descriptors")


def _planar_product(s: int, v: tuple, t: int, w: tuple) -> tuple[int, tuple[int, ...]]:
    # (n/s + (q/s)(m/t), (q/s)(r/t)) over the denominator s*t
    n0, n1, a, b, c, d = v
    m0, m1, e, f, g, h = w
    return s * t, (
        n0 * t + a * m0 + b * m1, n1 * t + c * m0 + d * m1,
        a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h,
    )


def _planar_meet_box(s: int, v: tuple) -> tuple[int, int]:
    # q and its canonical element have one column span, as R lies in GL(2, Z)
    a, _, d = hnf_meet(s, 0, s, *hnf_int(*v[2:]))
    return a // s, d // s


def _planar_left_keys(s: int, n0: int, n1: int, q: tuple, span: tuple) -> list[tuple]:
    """The ``_left_keys`` of a planar class with canonical q-part q, whose
    column span has the canonical form ``span``."""
    a, c, d = span
    ma, _, md = hnf_meet(s, 0, s, a, c, d)
    out = []
    for i in range(ma // s):
        m0 = n0 + i * s
        k = m0 // a
        m0, m1 = m0 - k * a, n1 - k * c
        for j in range(md // s):
            v = (m0, (m1 + j * s) % d) + q
            g = gcd(s, *v)
            out.append((s, v) if g == 1 else (s // g, tuple([x // g for x in v])))
    return out


def _planar_key(s: int, n0: int, n1: int, q: tuple, lattice: tuple) -> tuple[int, tuple]:
    """The key of (n, q) over s with n reduced into the box of ``lattice``."""
    v = _box(n0, n1, *lattice) + q
    g = gcd(s, *v)
    return (s, v) if g == 1 else (s // g, tuple([x // g for x in v]))


# full matrix group: R = Q meet GL(2, Z), so qR <-> the column span of q,
# and the canonical q' = (A, 0; C, D) is its own column form (``hnf_int``)


def _gl2_canon(s: int, v: tuple) -> tuple[int, tuple[int, ...]]:
    n0, n1, a, b, c, d = v
    a, c, d = hnf_int(a, b, c, d)
    k = n0 // a
    v = (n0 - k * a, (n1 - k * c) % d, a, 0, c, d)
    g = gcd(s, *v)
    return (s, v) if g == 1 else (s // g, tuple([x // g for x in v]))


def _gl2_class(s: int, v: tuple) -> tuple[int, tuple[int, ...]]:
    n0, n1, a, b, c, d = v
    a, c, d = hnf_int(a, b, c, d)
    # M = Z^2 is (s, 0, s) over s
    ma, mc, md = hnf_sum(a, c, d, s, 0, s)
    k = n0 // ma
    v = (n0 - k * ma, (n1 - k * mc) % md, a, 0, c, d)
    g = gcd(s, *v)
    return (s, v) if g == 1 else (s // g, tuple([x // g for x in v]))


def _gl2_orbit_step(s: int, v: tuple, t: int, w: tuple) -> tuple[int, tuple[int, ...]]:
    n0, n1, a, b, c, d = v
    m0, m1, e, f, g, h = w
    st = s * t
    n0, n1 = n0 * t + a * m0 + b * m1, n1 * t + c * m0 + d * m1
    a, c, d = hnf_int(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    ma, mc, md = hnf_sum(a, c, d, st, 0, st)
    k = n0 // ma
    v = (n0 - k * ma, (n1 - k * mc) % md, a, 0, c, d)
    g = gcd(st, *v)
    return (st, v) if g == 1 else (st // g, tuple([x // g for x in v]))


def _gl2_left_keys(s: int, v: tuple) -> list[tuple]:
    n0, n1, a, b, c, d = v
    a, c, d = span = hnf_int(a, b, c, d)
    return _planar_left_keys(s, n0, n1, (a, 0, c, d), span)


def _gl2_canon_mul(x: GElem, y: GElem) -> tuple[int, tuple[int, ...]]:
    if x.pair is not y.pair:
        _check_pairs(x, y)
    s, (n0, n1, a, b, c, d) = x.s, x.v
    t, (m0, m1, e, f, g, h) = y.s, y.v
    st = s * t
    n0, n1 = n0 * t + a * m0 + b * m1, n1 * t + c * m0 + d * m1
    a, c, d = hnf_int(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    k = n0 // a
    v = (n0 - k * a, (n1 - k * c) % d, a, 0, c, d)
    g = gcd(st, *v)
    return (st, v) if g == 1 else (st // g, tuple([x // g for x in v]))


def _gl2_canon_q(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    a, c, d = hnf_int(a, b, c, d)
    return a, 0, c, d


# quadratic torus: q = (a, db; b, a) is a + b sqrt(d), R = {+-u^k}; these
# kernels take (d, u) first, bound by ``functools.partial``


def _quad_q(d: int, unit: tuple[int, int], a: int, b: int) -> tuple[int, int, int, int]:
    """The canonical element of qR for q = a + b*sqrt(d): the one with
    positive real embedding whose square lies in [|norm|, |norm| * u^2).
    A common denominator of a and b scales every compared quantity by the
    same positive square, so the numerators alone decide."""
    m0, n0 = unit

    def qmul(x, y):
        return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def sign(x, y=(0, 0)):
        # of x - y = a + b*sqrt(d), which has the sign of its term of
        # larger absolute value, as d is not a square
        a, b = x[0] - y[0], x[1] - y[1]
        return (a > 0) - (a < 0) if a * a > d * b * b else (b > 0) - (b < 0)

    beta = (a, b) if sign((a, b)) > 0 else (-a, -b)
    norm = (abs(a * a - d * b * b), 0)
    upper = qmul(norm, qmul(unit, unit))
    unit_inv = (m0, -n0) if m0 * m0 - d * n0 * n0 == 1 else (-m0, n0)
    while sign(qmul(beta, beta), norm) < 0:
        beta = qmul(beta, unit)
    while sign(qmul(beta, beta), upper) >= 0:
        beta = qmul(beta, unit_inv)
    a, b = beta
    return a, d * b, b, a


def _quad_canon(d: int, unit: tuple, s: int, v: tuple) -> tuple[int, tuple[int, ...]]:
    q = _quad_q(d, unit, v[2], v[4])
    return _planar_key(s, v[0], v[1], q, hnf_int(*q))


def _quad_class(d: int, unit: tuple, s: int, v: tuple) -> tuple[int, tuple[int, ...]]:
    q = _quad_q(d, unit, v[2], v[4])
    return _planar_key(s, v[0], v[1], q, hnf_sum(*hnf_int(*q), s, 0, s))


def _quad_orbit_step(d: int, unit: tuple, s: int, v: tuple, t: int,
                     w: tuple) -> tuple[int, tuple[int, ...]]:
    return _quad_class(d, unit, *_planar_product(s, v, t, w))


def _quad_left_keys(d: int, unit: tuple, s: int, v: tuple) -> list[tuple]:
    q = _quad_q(d, unit, v[2], v[4])
    return _planar_left_keys(s, v[0], v[1], q, hnf_int(*q))


def _quad_canon_mul(d: int, unit: tuple, x: GElem, y: GElem) -> tuple[int, tuple[int, ...]]:
    if x.pair is not y.pair:
        _check_pairs(x, y)
    return _quad_canon(d, unit, *_planar_product(x.s, x.v, y.s, y.v))


def _quad_canon_q(d: int, unit: tuple, a: int, b: int, c: int,
                  e: int) -> tuple[int, int, int, int]:
    return _quad_q(d, unit, a, c)


# heisenberg: v = (n0, n1, p) with 0 <= n0 < s, q = p/s and R = Z, so the
# canonical q' is p mod s; xH moves n by q'M + Z x 0, whose canonical form
# in the order (n1, n0) is (s, p', s) over s, and M + q'M + Z x 0 is
# (s, 0, gcd(s, p')) (``hnf_sum``), read off directly


def _heis_product(s: int, v: tuple, t: int, w: tuple) -> tuple[int, tuple[int, ...]]:
    a0, u0, p0 = v
    a1, u1, p1 = w
    st = s * t
    return st, ((a0 * t + a1 * s + p0 * u1) % st, u0 * t + u1 * s, p0 * t + p1 * s)


def _heis_canon(s: int, v: tuple) -> tuple[int, tuple[int, ...]]:
    n0, n1, p = v
    p %= s
    k = n1 // s
    v = ((n0 - k * p) % s, n1 - k * s, p)
    g = gcd(s, *v)
    return (s, v) if g == 1 else (s // g, tuple([x // g for x in v]))


def _heis_class(s: int, v: tuple) -> tuple[int, tuple[int, ...]]:
    n0, n1, p = v
    p %= s
    v = (n0 % gcd(s, p), n1 % s, p)
    g = gcd(s, *v)
    return (s, v) if g == 1 else (s // g, tuple([x // g for x in v]))


def _heis_orbit_step(s: int, v: tuple, t: int, w: tuple) -> tuple[int, tuple[int, ...]]:
    a0, u0, p0 = v
    a1, u1, p1 = w
    st = s * t
    p = (p0 * t + p1 * s) % st
    v = ((a0 * t + a1 * s + p0 * u1) % gcd(st, p), (u0 * t + u1 * s) % st, p)
    g = gcd(st, *v)
    return (st, v) if g == 1 else (st // g, tuple([x // g for x in v]))


def _heis_meet_box(s: int, v: tuple) -> tuple[int, int]:
    # M meet qM, in M = 0 x Z, is the multiples of the denominator of q
    return 1, s // gcd(s, v[2])


def _heis_left_keys(s: int, v: tuple) -> list[tuple]:
    n0, n1, p = v
    p %= s
    k = n1 // s
    n1 -= k * s
    out = []
    for j in range(s // gcd(s, p)):
        v = ((n0 - (k + j) * p) % s, n1, p)
        g = gcd(s, *v)
        out.append((s, v) if g == 1 else (s // g, tuple([x // g for x in v])))
    return out


def _heis_canon_mul(x: GElem, y: GElem) -> tuple[int, tuple[int, ...]]:
    if x.pair is not y.pair:
        _check_pairs(x, y)
    s, (a0, u0, p0) = x.s, x.v
    t, (a1, u1, p1) = y.s, y.v
    st = s * t
    n1 = u0 * t + u1 * s
    p = (p0 * t + p1 * s) % st
    k = n1 // st
    v = ((a0 * t + a1 * s + p0 * u1 - k * p) % st, n1 - k * st, p)
    g = gcd(st, *v)
    return (st, v) if g == 1 else (st // g, tuple([x // g for x in v]))


_GL2_KERNELS = {
    "_product": _planar_product, "_canon": _gl2_canon, "_class": _gl2_class,
    "_orbit_step": _gl2_orbit_step, "_meet_box": _planar_meet_box,
    "_left_keys": _gl2_left_keys, "canon_mul": _gl2_canon_mul,
    "_canon_q_ints": _gl2_canon_q,
}
# the quad torus keeps the planar product and meet box
_QUAD_KERNELS = {
    "_canon": _quad_canon, "_class": _quad_class, "_orbit_step": _quad_orbit_step,
    "_left_keys": _quad_left_keys, "canon_mul": _quad_canon_mul,
    "_canon_q_ints": _quad_canon_q,
}
_HEIS_KERNELS = {
    "_product": _heis_product, "_canon": _heis_canon, "_class": _heis_class,
    "_orbit_step": _heis_orbit_step, "_meet_box": _heis_meet_box,
    "_left_keys": _heis_left_keys, "canon_mul": _heis_canon_mul,
}
