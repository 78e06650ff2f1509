"""Exact arithmetic substrate: rationals, 2x2 matrices, planar lattices,
residue rings and real quadratic integers.

Everything here is immutable and exact; no floating point is used
anywhere.  Lattices, like group elements, are integers over one least
denominator, and their operations run on integers.  ``fractions.Fraction``
is used only to parse and print: in the ``Mat2`` view and the rational
helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, lcm

from .errors import (
    BadDiscriminant,
    BoundReached,
    CertificateFailed,
    NotPrime,
    NotSublattice,
    SingularBasis,
)

Rat = Fraction

#: Marker returned by :func:`val_p` for the valuation of zero.
#: Compares greater than every integer.
INFINITE_VALUATION = inf


# ---------------------------------------------------------------------------
# rationals


def rat_from_str(s: str) -> Rat:
    """Parse "num/den" (or plain "num") into an exact rational."""
    return Fraction(s.strip())


def rat_to_str(x: Rat) -> str:
    """Serialize exactly; the denominator is omitted when it is 1."""
    x = Fraction(x)
    return ratio_to_str(x.numerator, x.denominator)


def ratio_to_str(num: int, den: int) -> str:
    """``rat_to_str(Fraction(num, den))`` for den > 0, without the Fraction."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (valid far beyond any modulus used here)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def val_p(x: Rat | int, p: int) -> int | float:
    """p-adic valuation of a rational; ``INFINITE_VALUATION`` for x = 0."""
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    x = Fraction(x)
    if x == 0:
        return INFINITE_VALUATION

    def vp(n: int) -> int:
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    return vp(abs(x.numerator)) - vp(x.denominator)


def in_z_inv_p(x: Rat, p: int | None) -> bool:
    """Whether x lies in Z[1/p]; p = None stands for the ring Q."""
    if p is None:
        return True
    den = x.denominator
    while den % p == 0:
        den //= p
    return den == 1


def unit_sign(x: Rat, p: int | None) -> int | None:
    """The sign of x when x is a unit of Z[1/p], i.e. +-p^j (any nonzero x
    when p = None stands for Q); None otherwise."""
    if x == 0:
        return None
    if p is not None:
        num, den = abs(x.numerator), x.denominator
        while num % p == 0:
            num //= p
        while den % p == 0:
            den //= p
        if num != 1 or den != 1:
            return None
    return 1 if x > 0 else -1


# ---------------------------------------------------------------------------
# 2x2 matrices over Q


@dataclass(frozen=True)
class Mat2:
    """Immutable 2x2 rational matrix, row-major entries (a, b; c, d)."""

    a: Rat
    b: Rat
    c: Rat
    d: Rat

    @staticmethod
    def of(a, b, c, d) -> "Mat2":
        return Mat2(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    @staticmethod
    def identity() -> "Mat2":
        return _MAT2_ID

    @staticmethod
    def diag(x, y) -> "Mat2":
        return Mat2.of(x, 0, 0, y)

    @staticmethod
    def scalar(x) -> "Mat2":
        return Mat2.diag(x, x)

    def det(self) -> Rat:
        return self.a * self.d - self.b * self.c

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "Mat2":
        det = self.det()
        if det == 0:
            raise SingularBasis("matrix has determinant 0")
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def apply(self, v: tuple[Rat, Rat]) -> tuple[Rat, Rat]:
        """Matrix-vector product (column vector)."""
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in (self.a, self.b, self.c, self.d))

    def entries(self) -> tuple[Rat, Rat, Rat, Rat]:
        return (self.a, self.b, self.c, self.d)

    def integralize(self) -> tuple[int, tuple[int, int, int, int]]:
        """(s, (a, b, c, d)) with s the least common denominator of the
        entries and self = (a, b; c, d)/s, as in ``GElem``."""
        s = lcm(self.a.denominator, self.b.denominator, self.c.denominator,
                self.d.denominator)
        return s, tuple(x.numerator * (s // x.denominator) for x in self.entries())

    def to_lists(self) -> list[list[str]]:
        return [[rat_to_str(self.a), rat_to_str(self.b)],
                [rat_to_str(self.c), rat_to_str(self.d)]]

    @staticmethod
    def from_lists(rows) -> "Mat2":
        (a, b), (c, d) = rows
        return Mat2.of(Fraction(str(a)), Fraction(str(b)),
                       Fraction(str(c)), Fraction(str(d)))

    def __str__(self) -> str:
        return (f"[[{rat_to_str(self.a)},{rat_to_str(self.b)}],"
                f"[{rat_to_str(self.c)},{rat_to_str(self.d)}]]")


_MAT2_ID = Mat2.of(1, 0, 0, 1)


def mat_mul_int(x, y) -> tuple[int, int, int, int]:
    """Product of two integer 2x2 matrices (a, b, c, d)."""
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def mat_str(m) -> str:
    """The integer matrix (a, b, c, d) as ``Mat2`` prints it: [[a,b],[c,d]]."""
    return "[[{},{}],[{},{}]]".format(*m)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with x*a + y*b = g = gcd(a, b), g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


# ---------------------------------------------------------------------------
# lattices in Q^2


def hnf_int(a: int, b: int, c: int, d: int) -> tuple[int, int, int]:
    """Canonical column form (A, C, D) of the Z-span of the columns of the
    nonsingular integer matrix (a, b; c, d).

    The span projects onto gcd(a, b)Z in the first coordinate, and the lift
    x*(a, c) + y*(b, d) of that gcd is the first basis column; the second is
    (0, D) with A*D = |det|.  So A > 0, D > 0 and 0 <= C < D.
    """
    det = a * d - b * c
    if det == 0:
        raise SingularBasis("basis has determinant 0")
    g, x, y = _xgcd(a, b)
    dd = abs(det) // g
    return g, (x * c + y * d) % dd, dd


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice L in Q^2, held as integers over one denominator.

    ``s`` is the least positive integer with s.L inside Z^2, and (a, c, d)
    is the canonical column form of the integer lattice s.L (see
    ``hnf_int``): a > 0, d > 0, 0 <= c < d, so L has the basis
    [[a, 0], [c, d]]/s.  Both are unique, so two lattices are equal iff
    their fields coincide.  ``basis`` is the ``Mat2`` view.
    """

    s: int
    a: int
    c: int
    d: int

    @staticmethod
    def from_basis(basis: Mat2) -> "Lattice":
        """Canonicalize the Z-span of the columns of ``basis``."""
        s, ints = basis.integralize()
        return _lattice(s, *hnf_int(*ints))

    @staticmethod
    def standard() -> "Lattice":
        """The lattice Z^2."""
        return _STD_LATTICE

    def basis(self) -> Mat2:
        s = self.s
        return Mat2(Fraction(self.a, s), Fraction(0), Fraction(self.c, s),
                    Fraction(self.d, s))

    def _has(self, x: int, y: int, t: int) -> bool:
        """Whether (x, y)/t lies in the lattice: s(x, y)/t = u(a, c) + v(0, d)
        with integers u, v."""
        s, a = self.s, self.a
        if s * x % t or s * y % t:
            return False
        x, y = s * x // t, s * y // t
        return x % a == 0 and (y - x // a * self.c) % self.d == 0

    def contains(self, v) -> bool:
        """Whether the rational vector v (ints or Fractions) lies in the lattice."""
        (xn, xd), (yn, yd) = ((x.numerator, x.denominator) for x in v)
        t = lcm(xd, yd)
        return self._has(xn * (t // xd), yn * (t // yd), t)

    def contains_lattice(self, other: "Lattice") -> bool:
        return (self._has(other.a, other.c, other.s)
                and self._has(0, other.d, other.s))

    def __str__(self) -> str:
        a, c, d = (ratio_to_str(x, self.s) for x in (self.a, self.c, self.d))
        return f"[[{a},0],[{c},{d}]]"


def _lattice(s: int, a: int, c: int, d: int) -> Lattice:
    """The lattice whose canonical form over the denominator s is (a, c, d),
    brought to its least denominator."""
    g = gcd(s, a, c, d)
    return Lattice(s // g, a // g, c // g, d // g)


def _common(l1: Lattice, l2: Lattice):
    """(s, (a1, c1, d1), (a2, c2, d2)): both canonical forms over the
    common denominator s."""
    s = lcm(l1.s, l2.s)
    k1, k2 = s // l1.s, s // l2.s
    return s, (k1 * l1.a, k1 * l1.c, k1 * l1.d), (k2 * l2.a, k2 * l2.c, k2 * l2.d)


_STD_LATTICE = Lattice(1, 1, 0, 1)


def hnf_sum(a1: int, c1: int, d1: int,
            a2: int, c2: int, d2: int) -> tuple[int, int, int]:
    """Canonical form of the sum of two integer lattices given by their
    canonical forms (see ``hnf_int``).

    Its first coordinates are the multiples of g = gcd(a1, a2), reached by
    the lift x(a1, c1) + y(a2, c2) = (g, c).  Subtracting multiples of that
    lift leaves (0, c_i - (a_i/g) c), so the sum meets the second axis in
    the multiples of the gcd of those and d1, d2.
    """
    g, x, y = _xgcd(a1, a2)
    c = x * c1 + y * c2
    d = gcd(d1, d2, c1 - a1 // g * c, c2 - a2 // g * c)
    return g, c % d, d


def lattice_sum(l1: Lattice, l2: Lattice) -> Lattice:
    """Smallest lattice containing both arguments (``hnf_sum`` over a
    common denominator)."""
    s, t1, t2 = _common(l1, l2)
    return _lattice(s, *hnf_sum(*t1, *t2))


def hnf_meet(a1: int, c1: int, d1: int,
             a2: int, c2: int, d2: int) -> tuple[int, int, int]:
    """Canonical form of the meet of two integer lattices given by their
    canonical forms (see ``hnf_int``).

    (x, y) lies in (a, c, d) iff x = ua and y = uc mod d for an integer u.
    So the meet reaches the second axis in lcm(d1, d2)Z, and x = m.lcm(a1, a2)
    is a first coordinate iff y = m e1 mod d1 and y = m e2 mod d2 with
    e_i = (lcm(a1, a2)/a_i) c_i have a common solution, i.e. iff
    G = gcd(d1, d2) divides m(e1 - e2)."""
    a = lcm(a1, a2)
    e1, e2 = a // a1 * c1, a // a2 * c2
    g, x, _ = _xgcd(d1, d2)
    m = g // gcd(g, e1 - e2)
    # x d1 = g mod d2, so this y solves both congruences for the least m
    y = m * e1 + x * d1 * (m * (e2 - e1) // g)
    d = d1 // g * d2
    return m * a, y % d, d


def lattice_intersect(l1: Lattice, l2: Lattice) -> Lattice:
    """Intersection (``hnf_meet`` over a common denominator)."""
    s, t1, t2 = _common(l1, l2)
    return _lattice(s, *hnf_meet(*t1, *t2))


def lattice_index(big: Lattice, small: Lattice) -> int:
    """Index [big : small]; raises NotSublattice unless small is contained."""
    if not big.contains_lattice(small):
        raise NotSublattice(f"{small} is not contained in {big}")
    # the ratio of the covolumes a d / s^2
    num = small.a * small.d * big.s * big.s
    den = big.a * big.d * small.s * small.s
    if num % den:
        raise CertificateFailed(
            f"index of {small} in {big} is {ratio_to_str(num, den)}")
    return num // den


def transform_lattice(q, lat: Lattice) -> Lattice:
    """Image lattice q.L (conjugation action on a planar translation group).

    q is a ``Mat2`` or, in the form ``Mat2.integralize`` returns, a
    denominator t with integers (e, f, g, h) standing for (e, f; g, h)/t.
    """
    t, (e, f, g, h) = q.integralize() if isinstance(q, Mat2) else q
    a, c, d = lat.a, lat.c, lat.d
    return _lattice(t * lat.s,
                    *hnf_int(e * a + f * c, f * d, g * a + h * c, h * d))


def smith_invariants(lat: Lattice) -> tuple[int, int]:
    """Invariant factors (d1, d2) of Z^2 / L, with d1 | d2, for L inside Z^2.

    For a 2x2 integer matrix the first factor is the gcd of the entries and
    the second is |det| divided by it.
    """
    if lat.s != 1:
        raise NotSublattice("lattice is not contained in Z^2")
    d1 = gcd(lat.a, lat.c, lat.d)
    d2 = (lat.a * lat.d) // d1
    if d2 % d1:
        raise CertificateFailed(f"invariant factors {d1}, {d2} do not divide")
    return (d1, d2)


# ---------------------------------------------------------------------------
# residue rings Z/s


class ResidueRing:
    """Matrix and vector arithmetic over Z/s, with 2x2 matrices as 4-tuples."""

    def __init__(self, modulus: int):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        self.modulus = modulus

    def reduce_mat(self, m) -> tuple[int, int, int, int]:
        """The integer matrix (a, b, c, d) reduced mod s."""
        s = self.modulus
        return tuple(x % s for x in m)

    def mat_mul(self, x, y) -> tuple[int, int, int, int]:
        s = self.modulus
        return (
            (x[0] * y[0] + x[1] * y[2]) % s,
            (x[0] * y[1] + x[1] * y[3]) % s,
            (x[2] * y[0] + x[3] * y[2]) % s,
            (x[2] * y[1] + x[3] * y[3]) % s,
        )

    def mat_det(self, x) -> int:
        return (x[0] * x[3] - x[1] * x[2]) % self.modulus

    def identity_mat(self) -> tuple[int, int, int, int]:
        return (1 % self.modulus, 0, 0, 1 % self.modulus)

    def mat_inv(self, x) -> tuple[int, int, int, int]:
        s = self.modulus
        det = self.mat_det(x)
        g, u, _ = _xgcd(det, s)
        if g != 1:
            raise ValueError(f"matrix not invertible mod {s}")
        return ((x[3] * u) % s, (-x[1] * u) % s, (-x[2] * u) % s, (x[0] * u) % s)

    def vec_apply(self, m, v) -> tuple[int, int]:
        s = self.modulus
        return ((m[0] * v[0] + m[1] * v[1]) % s, (m[2] * v[0] + m[3] * v[1]) % s)

    def chain(self, gens, bound: int | None):
        """(order, member, elements) of the group G that invertible residue
        matrices generate, by a stabilizer chain on (Z/s)^2 (Sims): the orbit
        of e1 with a transversal u[x] (held as its second column and 1/det),
        and the stabilizer of e1, whose members (1, b; 0, d) are keyed by
        (b, d), re-closed at each new Schreier generator u[gx]^-1 g u[x]
        (Schreier's lemma).  |G| = |orbit| |stabilizer|; m is in G when
        u[m e1]^-1 m is in the stabilizer; ``elements`` lazily lists G as the
        products u[x] (1, b; 0, d).  BoundReached when either passes
        ``bound`` points."""
        s = self.modulus
        one = 1 % s
        steps = [(*g, _xgcd(self.mat_det(g), s)[1]) for g in gens]
        u, todo = {(one, 0): (0, one, one)}, [(one, 0)]
        stab, stab_gens = {(0, one)}, []

        def sift(x, w0, w1):  # the second column of u[x]^-1 (x | w)
            c0, c1, dinv = u[x]
            return dinv * (c1 * w0 - c0 * w1) % s, dinv * (x[0] * w1 - x[1] * w0) % s

        for x in todo:
            c0, c1, dinv = u[x]
            for g0, g1, g2, g3, ginv in steps:
                y = ((g0 * x[0] + g1 * x[1]) % s, (g2 * x[0] + g3 * x[1]) % s)
                w0, w1 = (g0 * c0 + g1 * c1) % s, (g2 * c0 + g3 * c1) % s
                if y not in u:  # a tree edge: u[y] = g u[x]
                    if bound is not None and len(u) >= bound:
                        raise BoundReached(f"orbit of e1 mod {s} exceeded {bound} points")
                    u[y] = (w0, w1, ginv * dinv % s)
                    todo.append(y)
                    continue
                h = sift(y, w0, w1)
                if h not in stab:
                    stab_gens.append(h)
                    stab = closure((0, one), lambda k: (
                        ((b + k[0] * d) % s, k[1] * d % s) for b, d in stab_gens), bound,
                        f"stabilizer of e1 mod {s} exceeded {bound} points")

        def member(m) -> bool:
            x = (m[0] % s, m[2] % s)
            return x in u and sift(x, m[1], m[3]) in stab

        elements = ((x0, (x0 * b + c0 * d) % s, x1, (x1 * b + c1 * d) % s)
                    for (x0, x1), (c0, c1, _) in u.items() for b, d in stab)
        return len(u) * len(stab), member, elements

    def close_under_mul(self, gens, bound: int | None) -> frozenset:
        """The group that invertible residue matrices generate, listed."""
        return self.list_group(self.chain(gens, bound))

    def list_group(self, chain) -> frozenset:
        """The group of a stabilizer chain (``chain``), certified by its order."""
        order, _, elements = chain
        group = frozenset(elements)
        if len(group) != order:
            raise CertificateFailed(f"{len(group)} residues listed mod {self.modulus}, "
                                    f"the chain order is {order}")
        return group


def closure(start, images, bound: int | None, message: str) -> set:
    """The points reached from start by repeatedly taking ``images`` (a
    point -> an iterable of points), start included; BoundReached(message)
    as soon as more than ``bound`` points would be reached, start too."""
    if bound is not None and bound < 1:
        raise BoundReached(message)
    seen, todo = {start}, [start]
    for x in todo:
        for y in images(x):
            if y not in seen:
                if bound is not None and len(seen) >= bound:
                    raise BoundReached(message)
                seen.add(y)
                todo.append(y)
    return seen


def satisfies(residue, conditions) -> bool:
    """Whether a residue matrix (r0, r1, r2, r3) meets every linear
    congruence (n, c0, c1, c2, c3, e): c0 r0 + c1 r1 + c2 r2 + c3 r3 = e mod n."""
    r0, r1, r2, r3 = residue
    for n, c0, c1, c2, c3, e in conditions:
        if (c0 * r0 + c1 * r1 + c2 * r2 + c3 * r3 - e) % n:
            return False
    return True


# ---------------------------------------------------------------------------
# real quadratic integers Z[sqrt(d)]


def is_square_free(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def check_discriminant(d: int) -> None:
    """Reject parameters for which Z[sqrt(d)] is not the ring to use."""
    if not is_square_free(d):
        raise BadDiscriminant(f"d = {d} is not square-free")
    if d % 4 == 1:
        raise BadDiscriminant(
            f"d = {d} is 1 mod 4; the quadratic ring Z[sqrt(d)] would not be "
            "maximal, so this parameter is rejected"
        )


@dataclass(frozen=True)
class QuadInt:
    """Element m + n*sqrt(d) of Z[sqrt(d)], d square-free and not 1 mod 4."""

    m: int
    n: int
    d: int

    def __post_init__(self):
        check_discriminant(self.d)

    def _check(self, other: "QuadInt") -> None:
        if self.d != other.d:
            raise ValueError("mixing quadratic rings with different d")

    def __mul__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        return QuadInt(
            self.m * other.m + self.d * self.n * other.n,
            self.m * other.n + self.n * other.m,
            self.d,
        )

    def __neg__(self) -> "QuadInt":
        return QuadInt(-self.m, -self.n, self.d)

    def norm(self) -> int:
        return self.m * self.m - self.d * self.n * self.n

    def reduce_mod(self, s: int) -> "QuadInt":
        return QuadInt(self.m % s, self.n % s, self.d)

    def __str__(self) -> str:
        return f"{self.m}+{self.n}*sqrt({self.d})"


def pell_fundamental(d: int) -> tuple[int, int]:
    """Smallest (m, n) with n >= 1 and |m^2 - d*n^2| = 1, i.e. the fundamental
    unit m + n*sqrt(d) > 1 of Z[sqrt(d)], by the continued fraction of sqrt(d).
    """
    if d < 2 or math.isqrt(d) ** 2 == d:
        raise BadDiscriminant(f"d = {d} admits no fundamental unit search")
    a0 = math.isqrt(d)
    m, q, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while True:
        if abs(h * h - d * k * k) == 1:
            return (h, k)
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n| by trial division."""
    n = abs(n)
    out = []
    k = 2
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            while n % k == 0:
                n //= k
        k += 1 if k == 2 else 2
    if n > 1:
        out.append(n)
    return out
