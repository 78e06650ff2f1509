"""Finite quotient stages of the completion of H = M x| R.

A stage is cut out by a pair (coset family, envelope lattice): the family is
a finite, two-sided R-stable union of cosets tR in Q, the envelope is a
lattice F with M <= F that contains t^-1.M for every family rep.  The stage
groups are M / (M meet all t.M) and the quotient of R by the residues whose
conjugate by every rep moves the envelope into M; their semidirect product
is the finite shadow of the completed H.

Planar families only (the envelope representation is a lattice in Q^2).
There M = Z^2.  Coset reps, lattices, quotients and the R generators are
all integers (over one least denominator where they are rational);
``Fraction`` appears only in the ``Mat2`` seeds that come in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

from .arith import (
    Lattice,
    ResidueRing,
    closure,
    lattice_index,
    lattice_intersect,
    lattice_sum,
    mat_mul_int,
    mat_str,
    satisfies,
    smith_invariants,
    transform_lattice,
)
from .errors import (
    ActionNotWellDefined,
    BoundReached,
    CertificateFailed,
    FamilyConditionViolated,
    NotComparable,
)
from .grouppair import DEFAULT_COSET_BOUND, PLANAR, QUAD_TORUS, PairDescriptor, \
    ResidueSubgroup, _r_gens_mod, column_solutions, r_image_mod, slpm_chain, slpm_order
from .kernels import _box

DEFAULT_CONDUCTOR_CAP = 10 ** 6
DEFAULT_ORDER_CAP = 200000


def _require_planar(pair: PairDescriptor) -> None:
    if pair.family != PLANAR:
        raise FamilyConditionViolated(
            "tower stages are represented with planar lattices; "
            f"family {pair.family!r} is not supported here"
        )


def _primitive_int(a: int, b: int, c: int, d: int
                   ) -> tuple[tuple[int, int, int, int], int]:
    """Divide a nonsingular integer matrix by the gcd of its entries.

    Returns (entries, det).  Scalar factors do not change conjugation, so
    all congruence conditions may be computed from this representative.
    """
    if a * d == b * c:
        raise ValueError(f"({a}, {b}; {c}, {d}) is singular")
    g = gcd(a, b, c, d)
    a, b, c, d = a // g, b // g, c // g, d // g
    return (a, b, c, d), a * d - b * c


def _inv(t):
    """t^-1 = s adj(q)/det(q) for t = (s, q), q integral, in the same form."""
    s, (a, b, c, d) = t
    det = a * d - b * c
    k = s if det > 0 else -s
    return abs(det), (k * d, -k * b, -k * c, k * a)


@dataclass(frozen=True)
class CosetFamily:
    """Finite union of cosets tR in Q, stable under R on both sides.

    ``reps`` holds one canonical representative per coset, as
    ``Mat2.integralize`` writes a matrix: (s, (a, b, c, d)) for
    (a, b; c, d)/s with s least, and (a, b, c, d) reduced by
    ``PairDescriptor._canon_q_ints``, the q-part of the coset key that
    ``PairDescriptor._canon`` forms.
    The identity coset is always present.
    """

    pair: PairDescriptor
    reps: tuple[tuple[int, tuple[int, int, int, int]], ...]

    def validate(self) -> None:
        pair = self.pair
        canon = pair._canon_q_ints
        rep_set = set(self.reps)
        if (1, canon(1, 0, 0, 1)) not in rep_set:
            raise FamilyConditionViolated("identity coset missing from the family")
        for g in pair.r_generators:
            for s, t in self.reps:
                if (s, canon(*mat_mul_int(g, t))) not in rep_set:
                    raise FamilyConditionViolated(
                        f"family is not left R-stable at generator {mat_str(g)}"
                    )
                if (s, canon(*mat_mul_int(t, g))) not in rep_set:
                    raise FamilyConditionViolated(
                        f"family is not right R-stable at generator {mat_str(g)}"
                    )


@dataclass(frozen=True)
class EnvelopeLattice:
    """Lattice F with M <= F, R-stable, absorbing the family's conjugates."""

    lattice: Lattice

    def validate(self, family: CosetFamily) -> None:
        pair = family.pair
        if not self.lattice.contains_lattice(pair.m_lattice):
            raise FamilyConditionViolated("envelope does not contain M")
        # finite index over M is automatic for two full-rank lattices
        for g in pair.r_generators:
            if transform_lattice((1, g), self.lattice) != self.lattice:
                raise FamilyConditionViolated(
                    f"envelope is not stable under the R generator {mat_str(g)}"
                )
        for t in family.reps:
            if not self.lattice.contains_lattice(
                transform_lattice(_inv(t), pair.m_lattice)
            ):
                raise FamilyConditionViolated(
                    f"envelope misses the conjugate of M by the inverse of "
                    f"the rep (s, numerators) = {t}"
                )


def make_coset_family(pair: PairDescriptor, seed_qs,
                      bound: int = DEFAULT_COSET_BOUND) -> CosetFamily:
    """Smallest two-sided R-stable coset family covering the seeds and R."""
    _require_planar(pair)
    canon = pair._canon_q_ints
    reps = {(1, canon(1, 0, 0, 1))}
    # each left R-orbit of cosets is finite, so the generators alone reach it
    for q in seed_qs:
        if not pair.in_q(q):
            raise FamilyConditionViolated(f"seed {q} is not in Q")
        s, ints = q.integralize()
        start = (s, canon(*ints))
        if start in reps:
            continue
        # reps is a union of left R-orbits, which the new one does not meet;
        # g is unimodular, so s stays the least denominator
        reps |= closure(start, lambda st: (
            (st[0], canon(*mat_mul_int(g, st[1]))) for g in pair.r_generators),
            bound - len(reps), f"coset family exceeded {bound} cosets")
    return CosetFamily(pair, tuple(sorted(reps)))


def make_envelope(family: CosetFamily) -> EnvelopeLattice:
    """Sum of M with every rep-conjugate t^-1.M, closed under the R-action."""
    pair = family.pair
    f = pair.m_lattice
    for t in family.reps:
        f = lattice_sum(f, transform_lattice(_inv(t), pair.m_lattice))
    # close under R: each pass only enlarges, and everything stays inside a
    # fixed (1/k)Z^2, so this terminates
    while True:
        grown = f
        for g in pair.r_generators:
            grown = lattice_sum(grown, transform_lattice((1, g), f))
        if grown == f:
            break
        f = grown
    return EnvelopeLattice(f)


def core_lattice(family: CosetFamily) -> Lattice:
    """Intersection of M with every rep-conjugate t.M (rep choice is
    irrelevant because R normalizes M)."""
    pair = family.pair
    lat = pair.m_lattice
    for t in family.reps:
        lat = lattice_intersect(lat, transform_lattice(t, pair.m_lattice))
    return lat


def _rel_conditions(family: CosetFamily, envelope: EnvelopeLattice):
    """Stage membership conditions, on integers.

    Returns (level, conditions): the stage level is k times the lcm of the
    rep determinants, so that every condition is well defined on residues
    mod the level.  A residue r belongs to the stage core iff
    (t^-1 r t - 1)v is integral for every rep t and envelope generator v.
    With t primitive integral, D = det t, A = adj t (so t^-1 = A/D) and k
    the least integer making w = k.v integral, that vector is
    (A r (t w) - D w) / (kD), so the condition is A r (t w) = D w mod k|D|.
    Each coordinate of it is linear in the entries of r: a condition is
    (n, c0, c1, c2, c3, e) meaning c0 r0 + c1 r1 + c2 r2 + c3 r3 = e mod n.
    The identity rep's conditions come first; conditions that every r
    meets are dropped.  The envelope generators are (a, c)/k and (0, d)/k
    for the envelope's canonical form (k; a, c, d), and k is least for them.
    """
    env = envelope.lattice
    k = env.s
    ws = [(env.a, env.c), (0, env.d)]
    ints = sorted((_primitive_int(*t) for _, t in family.reps),
                  key=lambda td: td[0] != (1, 0, 0, 1))
    dets = 1
    conds = {}
    for (a, b, c, d), det in ints:
        dets = lcm(dets, abs(det))
        n = k * abs(det)
        for w0, w1 in ws:
            u0, u1 = a * w0 + b * w1, c * w0 + d * w1
            # rows of A = (d, -b; -c, a) against r.u = (r0 u0 + r1 u1, r2 u0 + r3 u1)
            for x, y, e in ((d, -b, det * w0), (-c, a, det * w1)):
                row = tuple(z % n for z in (x * u0, x * u1, y * u0, y * u1, e))
                if any(row):
                    conds[(n, *row)] = None
    return k * dets, list(conds)


def _residue_core(pair: PairDescriptor, level: int, conditions, bound: int) -> frozenset:
    """The residue core of a gl2 stage, listed by first columns."""
    return frozenset((x0, (b + j * x0) % level, x1, (d + j * x1) % level)
                     for x0, x1, b, d, m in column_solutions(pair, level, conditions, bound)
                     for j in range(0, level, m))


def _fixes_quotient(core: tuple[int, int, int], residue) -> bool:
    """Whether the residue acts trivially on M / core: (r - 1)e_j lies in
    the core lattice (HNF triple a, c, d) for both unit vectors e_j."""
    a, c, d = core
    for x, y in ((residue[0] - 1, residue[2]), (residue[1], residue[3] - 1)):
        if x % a or (y - x // a * c) % d:
            return False
    return True


class TowerStage:
    """Finite quotient stage (M / core) x| (R / residue core), held as a
    presentation: the level, the residue core, the order of the image of R
    mod the level and the core lattice.  Nothing is listed.

    Elements are pairs (m, r) with m the point in the box [0, a) x [0, d)
    of a class modulo the core lattice (canonical form (a, c, d)) and r the
    key of its residue core coset r.core, its least member (``key``).
    """

    def __init__(self, family: CosetFamily, envelope: EnvelopeLattice,
                 m_core: Lattice, r_core: ResidueSubgroup, image_order: int):
        pair = family.pair
        self.pair = pair
        self.family = family
        self.envelope = envelope
        self.m_core = m_core
        self.r_core = r_core
        self.level = r_core.level
        # the index certifies m_core inside M = Z^2, i.e. its denominator is 1
        self.m_index = lattice_index(pair.m_lattice, m_core)
        self.r_index, rest = divmod(image_order, len(r_core.elements))
        if rest:
            raise CertificateFailed(f"a residue core of {len(r_core.elements)} elements "
                                    f"does not divide the image order {image_order}")
        self.order = self.m_index * self.r_index

        self._core = (m_core.a, m_core.c, m_core.d)
        self.m_invariants = smith_invariants(m_core)
        self._ring = ResidueRing(self.level)
        # the core members other than 1, the ones that can lower a key
        self._others = tuple(r_core.elements - {self._ring.identity_mat()})

        a, _, d = self._core
        self.m_elements = tuple((i, j) for i in range(a) for j in range(d))
        if len(self.m_elements) != self.m_index:
            raise CertificateFailed(
                f"{len(self.m_elements)} elements of M / core, expected {self.m_index}"
            )

    # -- group structure ----------------------------------------------------

    def key(self, r):
        """The key of the residue coset r.core, for r reduced mod the level:
        its least member min(r c for c in core), formed on demand; r itself
        when the core has one member."""
        s, low = self.level, r
        r0, r1, r2, r3 = r
        for c0, c1, c2, c3 in self._others:
            rc = ((r0 * c0 + r1 * c2) % s, (r0 * c1 + r1 * c3) % s,
                  (r2 * c0 + r3 * c2) % s, (r2 * c1 + r3 * c3) % s)
            if rc < low:
                low = rc
        return low

    def identity(self):
        return ((0, 0), self.key(self._ring.identity_mat()))

    def generators(self):
        """A generating set: the M basis vectors and the R generator cosets."""
        ident_r = self.key(self._ring.identity_mat())
        out = [(_box(1, 0, *self._core), ident_r), (_box(0, 1, *self._core), ident_r)]
        for g in _r_gens_mod(self.pair, self.level):
            out.append(((0, 0), self.key(g)))
        return out

    def act(self, rkey, mvec) -> tuple[int, int]:
        return _box(rkey[0] * mvec[0] + rkey[1] * mvec[1],
                    rkey[2] * mvec[0] + rkey[3] * mvec[1], *self._core)

    def mul(self, x, y):
        (m1, r1), (m2, r2) = x, y
        am = self.act(r1, m2)
        m = _box(m1[0] + am[0], m1[1] + am[1], *self._core)
        return (m, self.key(self._ring.mat_mul(r1, r2)))

    def inv(self, x):
        m, r = x
        ri = self._ring.mat_inv(r)
        am = self.act(ri, (-m[0], -m[1]))
        return (am, self.key(ri))

    @cached_property
    def checks(self) -> dict:
        """At the stage's congruence level: the residue core is normal under
        the R generators; the core lattice is fixed by the R generators;
        every residue core element moves every M generator by a core-lattice
        vector.  Computed once per stage, on first use."""
        pair = self.pair
        return {
            "r_core_normal_in_r": self.r_core.is_normal_under(
                _r_gens_mod(pair, self.level)),
            "m_core_r_stable": all(
                transform_lattice((1, g), self.m_core) == self.m_core
                for g in pair.r_generators
            ),
            "r_core_acts_trivially_on_quotient": all(
                _fixes_quotient(self._core, r) for r in self.r_core.elements
            ),
        }

    def summary(self) -> dict:
        return {
            "cosets_in_family": len(self.family.reps),
            "m_invariants": list(self.m_invariants),
            "m_index": self.m_index,
            "r_index": self.r_index,
            "order": self.order,
            "level": self.level,
        }


def build_stage(family: CosetFamily, envelope: EnvelopeLattice,
                conductor_cap: int = DEFAULT_CONDUCTOR_CAP,
                order_cap: int = DEFAULT_ORDER_CAP,
                bound: int = DEFAULT_COSET_BOUND) -> TowerStage:
    """Validate (family, envelope), then size, assemble and verify its
    finite stage.  The gl2 image of R is SL+-(2, Z/level): its core is
    solved by first columns, and once the stage fits ``order_cap`` one
    stabilizer chain certifies its order; it is never listed.  The quad
    torus image <-1, eps> is small, listed and filtered."""
    pair = family.pair
    _require_planar(pair)
    family.validate()
    envelope.validate(family)
    m_core = core_lattice(family)
    # the index certifies m_core inside M = Z^2, i.e. its denominator is 1
    m_index = lattice_index(pair.m_lattice, m_core)
    level, conditions = _rel_conditions(family, envelope)
    if level > conductor_cap:
        raise BoundReached(f"stage level {level} exceeds cap {conductor_cap}")
    gl2 = pair.q_kind != QUAD_TORUS
    if gl2:
        # an envelope (1/k)Z^2 puts the core in the kernel of reduction mod
        # k: a lower bound for the order when the columns are too many
        env, image_order = envelope.lattice, slpm_order(level)
        lower = m_index * slpm_order(env.s if (env.a, env.c, env.d) == (1, 0, 1) else 1)
        if lower > order_cap and image_order // level > bound:
            raise BoundReached(f"stage too large: order at least {lower} exceeds cap {order_cap}")
        members = _residue_core(pair, level, conditions, bound)
    else:
        image = r_image_mod(pair, level, bound)
        members = frozenset(r for r in image if satisfies(r, conditions))
        image_order = len(image)
    r_core = ResidueSubgroup(level, members)

    # the residue core must act trivially on M / core, else the semidirect
    # quotient would be ill-defined (a construction bug, not a user error)
    core = (m_core.a, m_core.c, m_core.d)
    for residue in members:
        if not _fixes_quotient(core, residue):
            raise ActionNotWellDefined(
                f"residue {residue} moves a unit vector outside the core lattice"
            )

    order = m_index * (image_order // len(members))
    if order > order_cap:
        raise BoundReached(f"stage too large: order {order} exceeds cap {order_cap}")
    if gl2:
        image_order = slpm_chain(pair, level, bound)[0]
    return TowerStage(family, envelope, m_core, r_core, image_order)


class ConnectingMap:
    """Reduction map between a finer and a coarser stage of the same pair.

    It sends (m, r) to (phi_m[m], the coarse key of r mod the coarse
    level): phi_m is a table, built once, from each box point of the fine
    M / core to its coarse box point; the R-part is a formula, with no
    table, well defined because the fine residue core reduces into the
    coarse one (checked here).
    """

    def __init__(self, fine: TowerStage, coarse: TowerStage):
        if fine.pair != coarse.pair:
            raise NotComparable("stages belong to different pairs")
        if coarse.level == 0 or fine.level % coarse.level != 0:
            raise NotComparable(
                f"levels {fine.level} and {coarse.level} are not nested"
            )
        if not coarse.m_core.contains_lattice(fine.m_core):
            raise NotComparable("fine core lattice is not inside the coarse one")
        reduce = coarse._ring.reduce_mat
        for r in fine.r_core.elements:
            if reduce(r) not in coarse.r_core.elements:
                raise NotComparable("fine residue core is not inside the coarse one")
        self.fine = fine
        self.coarse = coarse
        self.phi_m = {m: _box(*m, *coarse._core) for m in fine.m_elements}

    def apply(self, elem):
        m, rkey = elem
        coarse = self.coarse
        return (self.phi_m[m], coarse.key(coarse._ring.reduce_mat(rkey)))

    def verify(self) -> dict:
        """Homomorphism and surjectivity certificates, from the structure of
        the map.

        phi is reduction mod the coarse level followed by the quotient maps
        of the coarse stage.  Reduction is a ring map, so on the R-factor
        phi is a homomorphism when the fine residue core reduces into the
        coarse one (``__init__``) and the coarse core is normal; the action
        r.m passes to the quotients when the coarse core lattice is R-stable
        and the coarse core fixes M / core.  Those three are checked on the
        coarse stage (``TowerStage.checks``).  The M-axis is also compared
        elementwise: in (m1, r1)(m2, r2) = (m1 + r1.m2, r1 r2) the m-part
        depends on the second factor only through m2, so phi(g x) =
        phi(g) phi(x) is compared at x = (m, 1) for every generator g and
        every fine m, unless the coarse M / core has one element.  phi is
        onto when it sends each fine generator to the matching coarse one,
        as both lists (M basis, then the R generators) generate their stage.
        """
        fine, coarse, phi_m = self.fine, self.coarse, self.phi_m
        gens = fine.generators()
        images = [self.apply(g) for g in gens]
        hom_ok = all(coarse.checks.values())
        if hom_ok and coarse.m_index > 1:
            ident, cident = fine.identity()[1], coarse.identity()[1]
            hom_ok = all(
                phi_m[fine.mul(g, (m, ident))[0]] == coarse.mul(pg, (pm, cident))[0]
                for g, pg in zip(gens, images) for m, pm in phi_m.items())
        surjective = images == coarse.generators()
        return {
            "homomorphism": hom_ok,
            "surjective": surjective,
            "kernel_size": fine.order // coarse.order if surjective else None,
            "order_ratio": fine.order // coarse.order,
        }


def triangle_commutes(via: ConnectingMap, down: ConnectingMap) -> bool:
    """Whether reducing fine -> mid -> coarse along ``via`` and ``down``
    equals the direct reduction, the one map built here: the phi_m tables
    are compared entry by entry, and the three maps on the fine generators
    (all three are homomorphisms, so this pins the R-part down)."""
    if via.coarse is not down.fine:
        raise NotComparable("the two maps do not compose")
    direct = ConnectingMap(via.fine, down.coarse)
    return ({m: down.phi_m[v] for m, v in via.phi_m.items()} == direct.phi_m
            and all(down.apply(via.apply(g)) == direct.apply(g)
                    for g in via.fine.generators()))


def verify_stage_invariants(stage: TowerStage) -> dict:
    """Normality and action-triviality certificates for a stage
    (``TowerStage.checks``), with their verdict."""
    results = dict(stage.checks)
    results["verdict"] = "pass" if all(results.values()) else "fail"
    return results
