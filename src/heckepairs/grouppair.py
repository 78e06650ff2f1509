"""Pairs (G, H) = (N x| Q, M x| R) of semidirect products.

Three families are built in, each with its fixed M and R:

* planar, full matrix group: N = K^2 for K = Q or Z[1/p], M = Z^2, Q the
  invertible 2x2 matrices over K with a unit of K as determinant, and
  R = Q meet GL(2, Z);
* planar, quadratic torus: N = Q^2, M = Z^2, Q the nonzero elements of a
  real quadratic field acting as (a, db; b, a), and R its unit group;
* heisenberg: N = Q/Z x Q, M = {0} x Z, Q the rational translations
  (1, q; 0, 1) acting through the second coordinate, R the integer ones.

Group elements are written n*q, so (n1, q1)(n2, q2) = (n1 + q1.n2, q1 q2)
with N additive.  The group law, the R generators (integer 4-tuples, an
integer in the heisenberg family) and the membership tests of the
stabilizer identities run on integers over one common denominator (see
``GElem``); ``Fraction`` and ``Mat2`` appear only where elements and
sample q are parsed and printed, and in the ``GElem.n``/``GElem.q`` views
the tests read.

The coset layer (products, the canonical keys of left cosets xH and of
classes MxH, the left cosets of a class) runs on the per-family kernels of
``kernels``: ``PairDescriptor.__init__`` stores its family's set on the
pair once, as plain functions, so no call on the hot path tests the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, lcm

from .arith import (
    Lattice,
    Mat2,
    ResidueRing,
    _xgcd,
    check_discriminant,
    closure,
    in_z_inv_p,
    lattice_index,
    lattice_intersect,
    mat_mul_int,
    mat_str,
    pell_fundamental,
    prime_factors,
    rat_from_str,
    rat_to_str,
    ratio_to_str,
    satisfies,
    transform_lattice,
    unit_sign,
)
from .errors import (
    BadDiscriminant,
    BoundReached,
    CertificateFailed,
    ConfigInvalid,
    NotInQ,
    SingularBasis,
)
from .kernels import _GL2_KERNELS, _HEIS_KERNELS, _QUAD_KERNELS, _check_pairs

PLANAR = "planar"
HEISENBERG = "heisenberg"
FULL_GL2 = "full_gl2"
QUAD_TORUS = "quad_torus"
UNIPOTENT = "unipotent"

# default cap on an exhaustive coset or orbit enumeration
DEFAULT_COSET_BOUND = 100000

# the R generators of the full matrix family, as integer entries (a, b, c, d)
_GL2_STANDARD_GENS = ((1, 1, 0, 1), (1, 0, 1, 1), (1, 0, 0, -1))


class GElem:
    """Element n*q of G, held as integers over one positive denominator.

    ``v`` holds the numerators and ``s`` their least common denominator:
    (n0, n1, a, b, c, d) with n = (n0, n1)/s and q = (a, b; c, d)/s in the
    planar families, and (n0, n1, q) with 0 <= n0 < s in the heisenberg
    family, whose first coordinate lives in Q/Z.  As s is least, equal
    elements have equal fields.  Elements are made by the ``PairDescriptor``
    methods and serve as hash keys, so their fields are never reassigned.
    """

    __slots__ = ("s", "v", "pair")

    def __init__(self, s: int, v: tuple[int, ...], pair: "PairDescriptor"):
        self.s = s
        self.v = v
        self.pair = pair

    def __eq__(self, other):
        if not isinstance(other, GElem):
            return NotImplemented
        return (self.s == other.s and self.v == other.v
                and (self.pair is other.pair or self.pair == other.pair))

    def __hash__(self):
        return hash((self.s, self.v))

    @property
    def n(self) -> tuple[Fraction, Fraction]:
        return (Fraction(self.v[0], self.s), Fraction(self.v[1], self.s))

    @property
    def q(self):
        """The Q-part: a Mat2 in the planar families, a Fraction for heisenberg."""
        s, v = self.s, self.v
        if len(v) == 3:
            return Fraction(v[2], s)
        return Mat2(*(Fraction(x, s) for x in v[2:]))

    def __str__(self) -> str:
        return n_str(self.s, self.v) + q_str(self.s, self.v[2:])

    def __repr__(self) -> str:
        return f"GElem({self})"

    def to_json(self) -> dict:
        n0, n1, *q = [ratio_to_str(x, self.s) for x in self.v]
        return {"n": [n0, n1], "q": q[0] if len(q) == 1 else [q[:2], q[2:]]}


class PairDescriptor:
    """Concrete (N x| Q, M x| R) family with explicit generator sets.

    M and R are fixed by the family.  ``m_lattice`` and ``r_generators``
    are accepted only when they give those defaults, so that a configuration
    written by ``to_config`` reads back; anything else raises
    ``ConfigInvalid``, because the canonical cosets key qR by the column
    span of q, which is right only for M = Z^2 and R = Q meet GL(2, Z).
    """

    def __init__(
        self,
        family: str,
        base_ring: str = "Q",
        p: int | None = None,
        q_kind: str | None = None,
        d: int | None = None,
        m_lattice: Lattice | None = None,
        r_generators=None,
    ):
        if family not in (PLANAR, HEISENBERG):
            raise ConfigInvalid(f"unknown family {family!r}")
        if base_ring not in ("Q", "Z[1/p]"):
            raise ConfigInvalid(f"unknown base ring {base_ring!r}")
        if base_ring == "Z[1/p]":
            if p is None or p < 2:
                raise ConfigInvalid("base ring Z[1/p] needs a prime p")
            from .arith import is_prime

            if not is_prime(p):
                raise ConfigInvalid(f"p = {p} is not prime")
        self.family = family
        self.base_ring = base_ring
        self.p = p if base_ring == "Z[1/p]" else None
        self.d = None
        self.quad_unit: tuple[int, int] | None = None
        self._dcosets: dict = {}  # the double-coset memo of cosets.py

        if family == HEISENBERG:
            self.q_kind = UNIPOTENT
            self.m_lattice = None
            self.r_generators = (1,)
        else:
            if q_kind not in (FULL_GL2, QUAD_TORUS):
                raise ConfigInvalid(f"planar family needs Q kind, got {q_kind!r}")
            self.q_kind = q_kind
            self.m_lattice = Lattice.standard()
            if q_kind == QUAD_TORUS:
                if d is None:
                    raise ConfigInvalid("quad torus needs the parameter d")
                check_discriminant(d)
                if d < 2:
                    raise BadDiscriminant(f"d = {d}: only real quadratic tori supported")
                self.d = d
                self.quad_unit = pell_fundamental(d)
                m0, n0 = self.quad_unit
                self.r_generators = ((-1, 0, 0, -1), (m0, d * n0, n0, m0))
            else:
                self.r_generators = _GL2_STANDARD_GENS
        if m_lattice is not None and m_lattice != self.m_lattice:
            raise ConfigInvalid(
                f"M = {m_lattice} is not supported: the {family} family has a "
                "fixed M (Z^2 for planar pairs); omit M_basis")
        if r_generators is not None and tuple(r_generators) != self.r_generators:
            raise ConfigInvalid(
                "custom R generators are not supported: omit R_generators "
                "or list the family default")
        # the coset kernels, stored as plain functions: a bound method would
        # refer back to the pair
        if family == HEISENBERG:
            self.__dict__.update(_HEIS_KERNELS)
        else:
            self.__dict__.update(_GL2_KERNELS)
            if q_kind == QUAD_TORUS:
                self.__dict__.update({name: partial(f, d, self.quad_unit)
                                      for name, f in _QUAD_KERNELS.items()})

    # -- identity, comparison ------------------------------------------------

    def _key(self):
        return (self.family, self.base_ring, self.p, self.q_kind, self.d)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, PairDescriptor) and self._key() == other._key()

    def __hash__(self):
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = hash(self._key())
        return cached

    def __repr__(self):
        ring = self.base_ring if self.p is None else f"Z[1/{self.p}]"
        return f"PairDescriptor({self.family}, {self.q_kind}, {ring})"

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def planar_gl2(p: int | None = None) -> "PairDescriptor":
        ring = "Q" if p is None else "Z[1/p]"
        return PairDescriptor(PLANAR, ring, p, FULL_GL2)

    @staticmethod
    def quad_torus(d: int) -> "PairDescriptor":
        return PairDescriptor(PLANAR, "Q", None, QUAD_TORUS, d=d)

    @staticmethod
    def heisenberg() -> "PairDescriptor":
        return PairDescriptor(HEISENBERG)

    @staticmethod
    def from_config(cfg: dict) -> "PairDescriptor":
        try:
            family = cfg["family"]
            base_ring = cfg.get("base_ring", "Q")
            p = cfg.get("p")
            q_kind = cfg.get("Q_kind")
            d = cfg.get("d")
            m_lattice = None
            if cfg.get("M_basis") is not None:
                m_lattice = Lattice.from_basis(Mat2.from_lists(cfg["M_basis"]))
            r_generators = None
            if cfg.get("R_generators") is not None:
                if family == HEISENBERG:
                    r_generators = [rat_from_str(str(g)) for g in cfg["R_generators"]]
                else:
                    r_generators = [Mat2.from_lists(g).entries()
                                    for g in cfg["R_generators"]]
            return PairDescriptor(family, base_ring, p, q_kind, d, m_lattice, r_generators)
        except ConfigInvalid:
            raise
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError,
                SingularBasis, BadDiscriminant) as exc:
            raise ConfigInvalid(f"bad pair configuration: {exc}") from exc

    def to_config(self) -> dict:
        cfg = {"family": self.family, "base_ring": self.base_ring}
        if self.p is not None:
            cfg["p"] = self.p
        if self.family == PLANAR:
            cfg["Q_kind"] = self.q_kind
            if self.d is not None:
                cfg["d"] = self.d
            cfg["M_basis"] = self.m_lattice.basis().to_lists()
            cfg["R_generators"] = [[[str(a), str(b)], [str(c), str(d)]]
                                   for a, b, c, d in self.r_generators]
        else:
            cfg["R_generators"] = [str(g) for g in self.r_generators]
        return cfg

    # -- membership predicates on parsed values ----------------------------------

    def in_q(self, q) -> bool:
        if self.family == HEISENBERG:
            return isinstance(q, Fraction)
        if not isinstance(q, Mat2):
            return False
        if not all(in_z_inv_p(x, self.p) for x in q.entries()):
            return False
        if self.q_kind == QUAD_TORUS and not (q.a == q.d and q.b == self.d * q.c):
            return False
        return unit_sign(q.det(), self.p) is not None

    def in_n(self, n: tuple[Fraction, Fraction]) -> bool:
        if self.family == HEISENBERG:
            return True
        return in_z_inv_p(n[0], self.p) and in_z_inv_p(n[1], self.p)

    def in_h(self, x: GElem) -> bool:
        # the least denominator is 1 exactly when every coordinate is an
        # integer, and a heisenberg n0 in [0, 1) is then 0
        if x.s != 1:
            return False
        if self.family == HEISENBERG:
            return True
        _, _, a, b, c, d = x.v
        return abs(a * d - b * c) == 1

    @property
    def has_central_scalars(self) -> bool:
        return self.family == PLANAR

    @property
    def q_is_abelian(self) -> bool:
        return self.q_kind in (QUAD_TORUS, UNIPOTENT)

    # -- group operations --------------------------------------------------------

    def _reduced(self, s: int, v: tuple[int, ...]) -> GElem:
        """The element with numerators v over s > 0, brought to the least
        denominator.  A heisenberg n0 must already lie in [0, s)."""
        g = gcd(s, *v)
        if g != 1:
            s //= g
            v = tuple(x // g for x in v)
        return GElem(s, v, self)

    def element(self, n, q) -> GElem:
        """Parse and validate n*q given by rationals (and a Mat2 q if planar)."""
        n = (Fraction(n[0]), Fraction(n[1]))
        if self.family == HEISENBERG:
            q = Fraction(q)
            n = (n[0] % 1, n[1])
        if not self.in_q(q):
            raise NotInQ(f"{q} is not in Q for {self!r}")
        if not self.in_n(n):
            raise NotInQ(f"{n} is not in N for {self!r}")
        parts = n + ((q,) if self.family == HEISENBERG else q.entries())
        # the lcm of reduced denominators is already the least denominator
        s = lcm(*(x.denominator for x in parts))
        return GElem(s, tuple(x.numerator * (s // x.denominator) for x in parts), self)

    def identity(self) -> GElem:
        if self.family == HEISENBERG:
            return GElem(1, (0, 0, 0), self)
        return GElem(1, (0, 0, 1, 0, 0, 1), self)

    def mul(self, x: GElem, y: GElem) -> GElem:
        if x.pair is not y.pair:
            _check_pairs(x, y)
        return self._reduced(*self._product(x.s, x.v, y.s, y.v))

    def inv(self, x: GElem) -> GElem:
        s = x.s
        if self.family == HEISENBERG:
            a, u, p = x.v
            ss = s * s
            return self._reduced(ss, ((p * u - a * s) % ss, -u * s, -p * s))
        # (q/s)^-1 = s adj(q)/det(q) and -(q/s)^-1 (n/s) = -adj(q) n/det(q)
        n0, n1, a, b, c, d = x.v
        det = a * d - b * c
        sg = 1 if det > 0 else -1
        return self._reduced(abs(det), (
            sg * (b * n1 - d * n0), sg * (c * n0 - a * n1),
            sg * s * d, -sg * s * b, -sg * s * c, sg * s * a,
        ))

    def conj_in_h(self, x: GElem, h: GElem) -> bool:
        """h in xHx^-1, tested directly on the group law."""
        return self.in_h(self.mul(self.mul(self.inv(x), h), x))

    def r_elements(self) -> list[GElem]:
        """The generators of R, as elements (0, r) of H."""
        if self.family == HEISENBERG:
            return [GElem(1, (0, 0, g), self) for g in self.r_generators]
        return [GElem(1, (0, 0) + g, self) for g in self.r_generators]

    def h_generators(self) -> list[GElem]:
        """Generators of H = M x| R together with their inverses."""
        qid = self.identity().v[2:]
        vecs = ((0, 1),) if self.family == HEISENBERG else ((1, 0), (0, 1))
        out = []
        for v0, v1 in vecs:
            out.append(GElem(1, (v0, v1) + qid, self))
            out.append(GElem(1, (-v0, -v1) + qid, self))
        for r in self.r_elements():
            out += (r, self.inv(r))
        return out

    # -- canonical coset representatives ----------------------------------------

    def canon_coset(self, x: GElem) -> GElem:
        """Canonical element of the left coset xH, a hashable coset key."""
        return GElem(*self._canon(x.s, x.v), self)


def n_str(s: int, v: tuple[int, ...]) -> str:
    """The printed n-part, n=(n0,n1), of the element v/s."""
    return f"n=({ratio_to_str(v[0], s)},{ratio_to_str(v[1], s)})"


def q_str(s: int, q: tuple[int, ...]) -> str:
    """The printed q-part, ;q=p or ;q=[[a,b],[c,d]], of the numerators q over
    s; each entry prints reduced, so q prints the same over any denominator."""
    qs = [ratio_to_str(x, s) for x in q]
    return f";q={qs[0]}" if len(qs) == 1 else ";q=" + mat_str(qs)


# ---------------------------------------------------------------------------
# stabilizer subgroups at congruence level


@dataclass(frozen=True)
class ResidueSubgroup:
    """Subset of the image of R in GL(2, Z/level), certified to be a subgroup.

    As M = Z^2, membership conditions of the form (r - 1)n in M are
    integrality conditions mod level.
    """

    level: int
    elements: frozenset

    def __post_init__(self):
        ring = ResidueRing(self.level)
        if ring.identity_mat() not in self.elements:
            raise CertificateFailed("residue subgroup must contain the identity")
        for x in self.elements:
            if ring.mat_inv(x) not in self.elements:
                raise CertificateFailed(f"residue subgroup not closed under inverse at {x}")
            for y in self.elements:
                if ring.mat_mul(x, y) not in self.elements:
                    raise CertificateFailed("residue subgroup not closed under product")

    def __len__(self):
        return len(self.elements)

    def is_normal_under(self, gens) -> bool:
        ring = ResidueRing(self.level)
        for g in gens:
            gi = ring.mat_inv(g)
            for x in self.elements:
                if ring.mat_mul(ring.mat_mul(g, x), gi) not in self.elements:
                    return False
        return True


# ---------------------------------------------------------------------------
# index computations


def _r_gens_mod(pair: PairDescriptor, s: int):
    """R generators reduced mod s, without inverses: on each finite closure
    or orbit a generator permutes, its inverse is one of its powers."""
    ring = ResidueRing(s)
    return [ring.reduce_mat(g) for g in pair.r_generators]


def r_image_chain(pair: PairDescriptor, s: int, bound: int | None):
    """(order, member, elements) of the image of R in GL(2, Z/s), from its
    stabilizer chain (``ResidueRing.chain``)."""
    return ResidueRing(s).chain(_r_gens_mod(pair, s), bound)


def r_image_mod(pair: PairDescriptor, s: int, bound: int | None) -> frozenset:
    """Image of R in GL(2, Z/s), listed from its stabilizer chain
    (``ResidueRing.close_under_mul``).  Its one caller is
    ``tower.build_stage``, for the small image of a quad torus stage."""
    return ResidueRing(s).close_under_mul(_r_gens_mod(pair, s), bound)


def slpm_chain(pair: PairDescriptor, s: int, bound: int | None):
    """The chain (``r_image_chain``) of the gl2 image of R mod s, certified to be SL+-(2, Z/s)."""
    chain = r_image_chain(pair, s, bound)
    if chain[0] != slpm_order(s):
        raise CertificateFailed(f"the image of R mod {s} is not SL+-(2, Z/{s})")
    return chain


def jordan2(s: int) -> int:
    """J_2(s) = s^2 prod_{p | s} (1 - p^-2), the number of vectors of order s
    in (Z/s)^2."""
    count = s * s
    for p in prime_factors(s):
        count = count // (p * p) * (p * p - 1)
    return count


def slpm_order(s: int) -> int:
    """|SL+-(2, Z/s)| = c s J_2(s), c = 2 when s > 2 (det -1 doubles
    SL(2, Z/s)), else 1: a first column of SL(2, Z/s) is any vector of order
    s, and its second columns are a line of s points.  It is the order of
    the image of R = GL(2, Z), as SL(2, Z) -> SL(2, Z/s) is onto (Shimura
    1971, Lemma 1.38)."""
    return (2 if s > 2 else 1) * s * jordan2(s)


def column_solutions(pair: PairDescriptor, s: int, conditions, bound: int):
    """The residues of the gl2 image SL+-(2, Z/s) of R that meet linear
    congruences (n, c0, c1, c2, c3, e), n | s, by first columns: for a
    primitive (x0, x1) and e = +-1 the second columns of det e are
    (b0, d0) + t (x0, x1), on which the conditions are solved in turn (CRT)
    to t = t0 mod some m | s.  Yields (x0, x1, b, d, m) for the solutions
    (x0, b + j x0; x1, d + j x1), j = 0, m, 2m, ... < s.  The |SL+-(2, Z/s)|
    / s pairs ((x0, x1), e) are first compared with ``bound`` (BoundReached);
    each caller then certifies the image with ``slpm_chain``."""
    order = slpm_order(s)
    if order // s > bound:
        raise BoundReached(f"{order // s} first columns mod {s} exceed the bound {bound}")
    for x0 in range(s):
        for x1 in range(s):
            g, y0, y1 = _xgcd(x0, x1)
            unit, g_inv, _ = _xgcd(g, s)
            for e in {1 % s, -1 % s} if unit == 1 else ():  # (x0, x1) primitive mod s
                b0, d0 = -y1 * e * g_inv, y0 * e * g_inv  # x0 d0 - b0 x1 = e
                t0, m = 0, 1  # the t met so far: t0 mod m
                for n, c0, c1, c2, c3, rhs in conditions:
                    # at t = t0 + m k the condition reads beta m k = -alpha mod n
                    beta = c1 * x0 + c3 * x1
                    alpha = c0 * x0 + c1 * b0 + c2 * x1 + c3 * d0 + beta * t0 - rhs
                    h, z, _ = _xgcd(beta * m, n)
                    if alpha % h:
                        break
                    t0, m = (t0 - m * z * (alpha // h)) % (m * n // h), m * n // h
                else:
                    yield x0, x1, (b0 + t0 * x0) % s, (d0 + t0 * x1) % s, m


def m_cap_conj(pair: PairDescriptor, q) -> Lattice:
    """The lattice M meet q.M (planar families); q is a ``Mat2`` or its
    ``integralize()`` pair."""
    if pair.family != PLANAR:
        raise ValueError("m_cap_conj is defined for planar families only")
    return lattice_intersect(pair.m_lattice, transform_lattice(q, pair.m_lattice))


def index_m_cap_conj(pair: PairDescriptor, q) -> int:
    """[M : M meet qMq^-1]."""
    if pair.family == HEISENBERG:
        return Fraction(q).denominator
    return lattice_index(pair.m_lattice, m_cap_conj(pair, q))


def index_r_cap_conj(pair: PairDescriptor, q,
                     bound: int = DEFAULT_COSET_BOUND) -> int:
    """[R : R meet qRq^-1], as the orbit size of the coset qR under R.

    For the matrix families the coset qR is the column span of q, so the
    orbit is enumerated on canonical lattices, with the R generators alone
    as it is finite; abelian Q gives 1 directly.
    """
    if not pair.in_q(q):
        raise NotInQ(f"{q} is not in Q")
    if pair.q_is_abelian:
        return 1
    return len(closure(Lattice.from_basis(q), lambda lat: (
        transform_lattice((1, g), lat) for g in pair.r_generators), bound,
        f"orbit of {q} exceeded {bound}"))


def _r_q_conditions(a: int, b: int, c: int, d: int) -> list:
    """The congruences on r, in the form ``satisfies`` reads, that cut R_q
    out of R for q = Q/t with Q = (a, b; c, d) (planar families).

    With D = det Q and A = adj Q, q^-1 r q = A r Q / D is integral exactly
    when A r Q = 0 mod |D|, a condition on r mod |D|.  Entry (i, j) of A r Q
    is linear in the entries of r, one congruence per entry; those that
    every r meets are dropped.
    """
    s = abs(a * d - b * c)
    conditions = []
    for x, y in ((d, -b), (-c, a)):  # the rows of A
        for u, v in ((a, c), (b, d)):  # the columns of Q
            row = tuple(z % s for z in (x * u, x * v, y * u, y * v))
            if any(row):
                conditions.append((s, *row, 0))
    return conditions


def index_r_cap_conj_residue(pair: PairDescriptor, q, conductor_cap: int = 1000,
                             bound: int = DEFAULT_COSET_BOUND) -> int:
    """[R : R_q] recovered at congruence level s = |det| of the integralized q.

    Independent of the orbit method: R_q mod s (``_r_q_conditions``) is
    counted by first columns (``column_solutions``), s / m per class."""
    if pair.q_is_abelian:
        return 1
    _, (a, b, c, d) = q.integralize()
    s = abs(a * d - b * c)
    if s == 1:
        return 1
    if s > conductor_cap:
        raise BoundReached(f"conductor {s} exceeds cap {conductor_cap}")
    member = sum(s // m for *_, m in column_solutions(
        pair, s, _r_q_conditions(a, b, c, d), bound))
    order = slpm_chain(pair, s, bound)[0]
    if not member or order % member:
        raise CertificateFailed(
            f"{member} of {order} residues mod {s} lie in R_q: not a subgroup")
    return order // member


def index_r_coset_stab(pair: PairDescriptor, n, bound: int = DEFAULT_COSET_BOUND) -> int:
    """[R : stabilizer of n + M], the size of the R-orbit of n + M in N/M,
    for n a pair of rationals (ints or Fractions).  For gl2, whose image
    SL+-(2, Z/s) is transitive on the vectors of order s, the orbit has
    J_2(s) points, which is compared with ``bound`` before the walk."""
    (x0, s0), (x1, s1) = ((x.numerator, x.denominator) for x in n)
    if pair.family == HEISENBERG:
        return s1
    s = lcm(s0, s1)
    if s == 1:
        return 1
    message = f"orbit of n + M mod {s} exceeded {bound}"
    if pair.q_kind == FULL_GL2 and jordan2(s) > bound:
        raise BoundReached(message)
    v = (x0 * (s // s0) % s, x1 * (s // s1) % s)
    gens = _r_gens_mod(pair, s)
    ring = ResidueRing(s)
    return len(closure(v, lambda u: (ring.vec_apply(g, u) for g in gens), bound, message))


# ---------------------------------------------------------------------------
# verification reports


# verdicts of a check record, from best to worst
VERDICTS = ("pass", "inconclusive", "fail")


def check_record(name: str, law: str, inputs: dict, outputs: dict,
                 verdict: str) -> dict:
    """One check of a verification report."""
    if verdict not in VERDICTS:
        raise ValueError(f"unknown verdict {verdict!r}")
    return {
        "name": name,
        "law": law,
        "inputs": inputs,
        "outputs": outputs,
        "verdict": verdict,
    }


def worst_verdict(records) -> str:
    """The worst verdict among check records (fail, then inconclusive,
    then pass); "pass" when there are none."""
    return max((r["verdict"] for r in records), key=VERDICTS.index, default="pass")


def hecke_indices_report(pair: PairDescriptor, q_samples, n_samples,
                         coset_bound: int = DEFAULT_COSET_BOUND,
                         conductor_cap: int = 1000) -> dict:
    """Finiteness of [M:M_q], [R:R_q] and [R:R_(n,M)] on the given samples.

    All three families of indices finite is the sampled form of the Hecke
    condition for (G, H).
    """
    checks = []
    for q in q_samples:
        qs = str(q) if isinstance(q, Mat2) else rat_to_str(Fraction(q))
        try:
            out = {"index_m": index_m_cap_conj(pair, q),
                   "index_r": index_r_cap_conj(pair, q, bound=coset_bound)}
            verdict = "pass"
        except BoundReached as exc:  # the orbit of qR: inconclusive
            out, verdict = {"error": str(exc)}, "inconclusive"
        if verdict == "pass" and pair.family == PLANAR and pair.q_kind == FULL_GL2:
            try:
                out["index_r_residue"] = index_r_cap_conj_residue(
                    pair, q, conductor_cap, coset_bound)
                if out["index_r_residue"] != out["index_r"]:
                    verdict = "fail"
            except BoundReached:  # the conductor cap or the column bound: no residue
                pass
        checks.append(check_record("hecke_index_q", "[M:M_q] and [R:R_q] finite",
                                   {"q": qs}, out, verdict))
    for n in n_samples:
        nv = (Fraction(n[0]), Fraction(n[1]))
        ns = f"({rat_to_str(nv[0])},{rat_to_str(nv[1])})"
        try:
            out, verdict = {"index": index_r_coset_stab(pair, nv, coset_bound)}, "pass"
        except BoundReached as exc:
            out, verdict = {"error": str(exc)}, "inconclusive"
        checks.append(check_record("hecke_index_n", "[R:R_(n,M)] finite",
                                   {"n": ns}, out, verdict))
    return {"checks": checks, "verdict": worst_verdict(checks)}


def reduced_stage_report(pair: PairDescriptor, stage, level: int | None = None,
                         prev: dict | None = None,
                         bound: int = DEFAULT_COSET_BOUND) -> dict:
    """Finite-stage evidence for reducedness.

    Computes the intersection of M meet qMq^-1 over the stage and the image
    of R at a congruence level (its order by the stabilizer chain, bounded
    by ``bound``), whose residues other than the identity act nontrivially
    on (1/s)M / M.  The verdict is only "certified" when both indices are at
    least 2 and strictly grow relative to the previous (coarser) stage report.
    """
    if pair.family == HEISENBERG:
        m_index = 1
        for q in stage:
            m_index = lcm(m_index, Fraction(q).denominator)
        s = level if level is not None else max(m_index, 2)
        trivial = [str(g) for g in pair.r_generators if g % s == 0 and g != 0]
        r_index = s
        m_shape = f"{m_index}Z"
    else:
        lat = pair.m_lattice
        s = 1
        for q in stage:
            lat = lattice_intersect(lat, transform_lattice(q, pair.m_lattice))
            _, (a, b, c, d) = q.integralize()
            s = lcm(s, abs(a * d - b * c))
        m_index = lattice_index(pair.m_lattice, lat)
        if level is not None:
            s = level
        s = max(s, 1)
        ring = ResidueRing(s)
        ident = ring.identity_mat()
        trivial = [mat_str(g) for g in pair.r_generators
                   if ring.reduce_mat(g) == ident and g != (1, 0, 0, 1)]
        # the gl2 chain's orbit of e1 has J_2(s) points and its stabilizer at
        # most 2s: when 2s fits, the walk would stop at the bound like this
        if pair.q_kind == FULL_GL2 and 2 * s <= bound < jordan2(s):
            raise BoundReached(f"orbit of e1 mod {s} exceeded {bound} points")
        r_index = r_image_chain(pair, s, bound)[0]
        m_shape = str(lat)

    growing = prev is None or (
        m_index >= prev["m_index"]
        and r_index >= prev["r_index"]
        and (m_index > prev["m_index"] or r_index > prev["r_index"])
    )
    certified = (
        m_index >= 2
        and r_index >= 2
        and not trivial
        and growing
        and (prev is None or prev["verdict"] in ("certified", "inconclusive"))
    )
    return {
        "m_lattice": m_shape,
        "m_index": m_index,
        "r_index": r_index,
        "level": s,
        "kernel_witnesses": trivial,
        "verdict": "certified" if certified else "inconclusive",
    }


def _moves_into_m(r, n0: int, n1: int, t: int) -> bool:
    """Whether (r - 1)n lies in M = Z^2, for an integer matrix r and
    n = (n0, n1)/t: (r - 1)(n0, n1) = 0 mod t."""
    r0, r1, r2, r3 = r
    return ((r0 - 1) * n0 + r1 * n1) % t == 0 and (r2 * n0 + (r3 - 1) * n1) % t == 0


def stabilizer_identities_report(pair: PairDescriptor, x_samples, h_samples) -> dict:
    """Check the product forms of the stabilizer subgroups on samples.

    For x = q n and h = m r in H this compares direct conjugation tests
    against the lattice/congruence descriptions:
      * h in H_n        <->  r n r^-1 in nM
      * h in H_q        <->  m in M_q     and r in R_q
      * h in H_x meet H_q <-> m in M_q    and q^-1 r q in stab of n + M
    and, over the whole sample, membership in the intersection of all
    H_x meet H_q against the corresponding product of intersections.
    (m in M and r in R hold as h lies in H.)  The right sides run on
    integers: with n = (n0, n1)/t and q = Q/s, r n r^-1 in nM is
    (r - 1)(n0, n1) = 0 mod t, M_q = M meet qM is a lattice, r in R_q is
    the congruences of ``_r_q_conditions``, and q^-1 r q is then the integer
    matrix adj(Q) r Q / det Q.  In the heisenberg family, with q = p/s,
    r n r^-1 in nM is r n1 = 0 mod t and m in M_q is p m1 = 0 mod s.
    """
    heis = pair.family == HEISENBERG
    samples = []
    for x in x_samples:
        q_elem = pair._reduced(x.s, (0, 0) + x.v[2:])
        n_elem = pair.mul(pair.inv(q_elem), x)  # x = q.n with this n
        if heis:
            samples.append((x, q_elem, n_elem, None, None))
        else:
            qv = q_elem.v[2:]
            samples.append((x, q_elem, n_elem, m_cap_conj(pair, (q_elem.s, qv)),
                            _r_q_conditions(*qv)))
    checks = []
    inter_lhs_all = {}
    inter_rhs_all = {}
    for h in h_samples:
        if not pair.in_h(h):
            checks.append(check_record("stab_sample", "h in H", {"h": str(h)},
                                       {}, "fail"))
            continue
        # h lies in H, so it has the denominator 1
        m0, m1, *r = h.v
        lhs_all = True
        rhs_all = True
        for x, q_elem, n_elem, m_cap, r_q in samples:
            t, (n0, n1) = n_elem.s, n_elem.v[:2]
            lhs_n = pair.conj_in_h(n_elem, h)
            lhs_q = pair.conj_in_h(q_elem, h)
            lhs_xq = lhs_q and pair.conj_in_h(x, h)
            if heis:
                rhs_n = r[0] * n1 % t == 0
                rhs_q = q_elem.v[2] * m1 % q_elem.s == 0
                rhs_xq = rhs_q and rhs_n
            else:
                rhs_n = _moves_into_m(r, n0, n1, t)
                rhs_q = m_cap.contains((m0, m1)) and satisfies(r, r_q)
                rhs_xq = False
                if rhs_q:
                    a, b, c, d = q_elem.v[2:]
                    det = a * d - b * c
                    conj = mat_mul_int(mat_mul_int((d, -b, -c, a), r), (a, b, c, d))
                    rhs_xq = _moves_into_m([z // det for z in conj], n0, n1, t)
            lhs_all = lhs_all and lhs_xq
            rhs_all = rhs_all and rhs_xq
            ok = (lhs_n == rhs_n) and (lhs_q == rhs_q) and (lhs_xq == rhs_xq)
            checks.append(check_record(
                "stab_identity",
                "H_n = M R_(n,M); H_q = M_q R_q; H_qn meet H_q = M_q (q R_(n,M) q^-1 meet R)",
                {"h": str(h), "x": str(x)},
                {"h_in_H_n": [lhs_n, rhs_n], "h_in_H_q": [lhs_q, rhs_q],
                 "h_in_H_x_and_H_q": [lhs_xq, rhs_xq]},
                "pass" if ok else "fail",
            ))
        inter_lhs_all[str(h)] = lhs_all
        inter_rhs_all[str(h)] = rhs_all
    for key in inter_lhs_all:
        ok = inter_lhs_all[key] == inter_rhs_all[key]
        checks.append(check_record(
            "stab_intersection",
            "intersection over samples of H_x meet H_q equals the product of the parts",
            {"h": key},
            {"membership": [inter_lhs_all[key], inter_rhs_all[key]]},
            "pass" if ok else "fail",
        ))
    return {"checks": checks, "verdict": worst_verdict(checks)}


def _inv_denominator(q: Mat2) -> int:
    """The least common denominator of the entries of q^-1.  For q = Q/s,
    q^-1 = s adj(Q)/D with D = det Q, and the entries of adj(Q) have the gcd
    g of those of Q, so it is |D| / gcd(D, s g)."""
    s, (a, b, c, d) = q.integralize()
    det = a * d - b * c
    return abs(det) // gcd(det, s * gcd(a, b, c, d))


def downward_directed_report(pair: PairDescriptor, q_samples) -> dict:
    """For each pair of conjugates of M, exhibit a scalar conjugate inside both.

    Requires the descriptor to contain the central scalars (planar families).
    """
    if not pair.has_central_scalars:
        raise ValueError("descriptor has no central scalars")
    checks = []
    for i, q1 in enumerate(q_samples):
        for q2 in q_samples[i:]:
            lam = lcm(_inv_denominator(q1), _inv_denominator(q2))
            witness = (lam, 0, 0, lam)
            target = lattice_intersect(
                transform_lattice(q1, pair.m_lattice),
                transform_lattice(q2, pair.m_lattice),
            )
            ok = target.contains_lattice(transform_lattice((1, witness), pair.m_lattice))
            checks.append(check_record(
                "downward_directed",
                "scalar k with kM inside q1 M meet q2 M",
                {"q1": str(q1), "q2": str(q2)},
                {"witness": mat_str(witness), "contained": ok},
                "pass" if ok else "fail",
            ))
    return {"checks": checks, "verdict": worst_verdict(checks)}
