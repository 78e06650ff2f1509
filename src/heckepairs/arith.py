"""Exact arithmetic substrate: rationals, 2x2 matrices, planar lattices,
residue rings and real quadratic integers.

Everything here is immutable and exact: ``fractions.Fraction`` for
rationals, plain integers for the integer normal forms; no floating point
is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, lcm

from .errors import (
    BadDiscriminant,
    CertificateFailed,
    NotPrime,
    NotSublattice,
    SingularBasis,
    SizeCap,
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

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

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

    def denominator_lcm(self) -> int:
        return lcm(
            self.a.denominator,
            self.b.denominator,
            self.c.denominator,
            self.d.denominator,
        )

    def integralize(self) -> tuple[int, tuple[int, int, int, int]]:
        """(s, (a, b, c, d)) with s the least common denominator of the
        entries and self = (a, b; c, d)/s, as in ``GElem``."""
        s = self.denominator_lcm()
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


def _hnf_columns(vectors: list[tuple[Rat, Rat]]) -> tuple[Rat, Rat, Rat]:
    """Canonical column form (a, c, d) of the Z-span of the given vectors.

    The span must have full rank; the canonical basis is the columns
    (a, c), (0, d) with a > 0, d > 0 and 0 <= c < d.
    """
    scale = lcm(*(x.denominator for v in vectors for x in v)) if vectors else 1
    ints = [(int(v[0] * scale), int(v[1] * scale)) for v in vectors]
    ints = [v for v in ints if v != (0, 0)]

    # Combine columns until a single one carries the gcd of the first row.
    lead: tuple[int, int] | None = None
    seconds: list[int] = []
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
    if lead is None:
        raise SingularBasis("generators span a rank-deficient lattice")
    a, c = lead
    if a < 0:
        a, c = -a, -c
    d = 0
    for s in seconds:
        d = gcd(d, s)
    if d == 0:
        raise SingularBasis("generators span a rank-deficient lattice")
    c %= d
    return (Fraction(a, scale), Fraction(c, scale), Fraction(d, scale))


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice in Q^2 in canonical column form.

    The basis matrix is [[a, 0], [c, d]] (columns (a, c) and (0, d)) with
    a > 0, d > 0, 0 <= c < d.  Canonical form is unique, so two lattices
    are equal iff their fields coincide.
    """

    a: Rat
    c: Rat
    d: Rat

    @staticmethod
    def from_basis(basis: Mat2) -> "Lattice":
        """Canonicalize the Z-span of the columns of ``basis``."""
        scale, ints = basis.integralize()
        a, c, d = hnf_int(*ints)
        return Lattice(Fraction(a, scale), Fraction(c, scale), Fraction(d, scale))

    @staticmethod
    def from_vectors(vectors) -> "Lattice":
        vecs = [(Fraction(x), Fraction(y)) for x, y in vectors]
        return Lattice(*_hnf_columns(vecs))

    @staticmethod
    def standard() -> "Lattice":
        """The lattice Z^2."""
        return _STD_LATTICE

    @staticmethod
    def rectangular(x, y) -> "Lattice":
        """The lattice xZ x yZ."""
        return Lattice.from_basis(Mat2.diag(x, y))

    def basis(self) -> Mat2:
        return Mat2(self.a, Fraction(0), self.c, self.d)

    def det(self) -> Rat:
        return self.a * self.d

    def vectors(self) -> list[tuple[Rat, Rat]]:
        return [(self.a, self.c), (Fraction(0), self.d)]

    def contains(self, v: tuple[Rat, Rat]) -> bool:
        # v = u1*(a,c) + u2*(0,d) with integer u's
        u1 = Fraction(v[0]) / self.a
        if u1.denominator != 1:
            return False
        u2 = (Fraction(v[1]) - u1 * self.c) / self.d
        return u2.denominator == 1

    def contains_lattice(self, other: "Lattice") -> bool:
        return all(self.contains(v) for v in other.vectors())

    def reduce_vector(self, v: tuple[Rat, Rat]) -> tuple[Rat, Rat]:
        """Canonical representative of v modulo this lattice.

        Lands in the fundamental box [0, a) x [0, d).
        """
        x, y = Fraction(v[0]), Fraction(v[1])
        k = x // self.a
        x, y = x - k * self.a, y - k * self.c
        y -= (y // self.d) * self.d
        return (x, y)

    def dual(self) -> "Lattice":
        """The dual lattice {x : <x, v> in Z for all v in self}."""
        b = self.basis()
        # columns of transpose-inverse
        return Lattice.from_basis(Mat2(b.a, b.c, Fraction(0), b.d).inv())

    def scaled(self, k) -> "Lattice":
        k = Fraction(k)
        if k == 0:
            raise SingularBasis("scaling a lattice by 0")
        k = abs(k)
        return Lattice(self.a * k, (self.c * k) % (self.d * k), self.d * k)

    def __str__(self) -> str:
        return str(self.basis())


_STD_LATTICE = Lattice(Fraction(1), Fraction(0), Fraction(1))


def hnf(raw_basis: Mat2) -> Lattice:
    """Canonical lattice spanned by the columns of a nonsingular matrix."""
    return Lattice.from_basis(raw_basis)


def lattice_sum(l1: Lattice, l2: Lattice) -> Lattice:
    """Smallest lattice containing both arguments."""
    return Lattice.from_vectors(l1.vectors() + l2.vectors())


def lattice_intersect(l1: Lattice, l2: Lattice) -> Lattice:
    """Intersection, computed through duals: (L1* + L2*)* = L1 meet L2."""
    return lattice_sum(l1.dual(), l2.dual()).dual()


def lattice_index(big: Lattice, small: Lattice) -> int:
    """Index [big : small]; raises NotSublattice unless small is contained."""
    if not big.contains_lattice(small):
        raise NotSublattice(f"{small} is not contained in {big}")
    ratio = small.det() / big.det()
    if ratio.denominator != 1 or ratio <= 0:
        raise CertificateFailed(f"index of {small} in {big} is {ratio}")
    return int(ratio)


def transform_lattice(q: Mat2, lat: Lattice) -> Lattice:
    """Image lattice q . L (conjugation action on a planar translation group)."""
    if q.det() == 0:
        raise SingularBasis("transforming by a singular matrix")
    return Lattice.from_vectors([q.apply(v) for v in lat.vectors()])


def smith_invariants(lat: Lattice) -> tuple[int, int]:
    """Invariant factors (d1, d2) of Z^2 / L, with d1 | d2, for L inside Z^2.

    For a 2x2 integer matrix the first factor is the gcd of the entries and
    the second is |det| divided by it.
    """
    std = Lattice.standard()
    if not std.contains_lattice(lat):
        raise NotSublattice("lattice is not contained in Z^2")
    a, c, d = int(lat.a), int(lat.c), int(lat.d)
    d1 = gcd(a, gcd(c, d))
    d2 = (a * d) // d1
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

    def reduce_mat(self, m: Mat2) -> tuple[int, int, int, int]:
        s = self.modulus
        out = []
        for x in m.entries():
            if x.denominator != 1:
                raise ValueError(f"entry {x} is not integral")
            out.append(int(x) % s)
        return tuple(out)

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

    def close_under_mul(self, gens, bound: int | None = None) -> set:
        """Multiplicative closure of 2x2 residue matrices (BFS)."""
        gens = [tuple(g) for g in gens]
        seen = set(gens)
        seen.add(self.identity_mat())
        frontier = list(seen)
        while frontier:
            new = []
            for g in gens:
                for x in frontier:
                    y = self.mat_mul(g, x)
                    if y not in seen:
                        seen.add(y)
                        new.append(y)
                        if bound is not None and len(seen) > bound:
                            raise SizeCap(f"closure exceeded {bound} elements")
            frontier = new
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

    def conj(self) -> "QuadInt":
        return QuadInt(self.m, -self.n, self.d)

    def reduce_mod(self, s: int) -> "QuadInt":
        return QuadInt(self.m % s, self.n % s, self.d)

    def matrix(self) -> Mat2:
        """Multiplication-by-self matrix (a, db; b, a) on the (m, n) plane."""
        return Mat2.of(self.m, self.d * self.n, self.n, self.m)

    def __str__(self) -> str:
        return f"{self.m}+{self.n}*sqrt({self.d})"


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
