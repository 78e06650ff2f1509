"""Double cosets HxH, the degree L(x), the modular function, and the
*-algebra spanned by double-coset characteristic functions.

Enumeration follows the semidirect-product factorization of H = M x| R.
For x = (n, q), M moves xH within the class MxH, which holds the
[M : M meet qM] left cosets m.xH, and R permutes these classes, so L(x)
is [M : M meet qM] times the length of the R-orbit of MxH.  The orbit is
walked on the integer keys (s, v) of the canonical elements
k = (n_k, q_k) of its classes.  The work that depends only on the class
is done once per class: the span of the canonical q_k, the box of
M / (M meet q_k M), read from integers, and the printed q-part.  Each
left coset m.kH = (m + n_k, q_k)H then costs one reduction of m + n_k
over that span; ``l_of`` counts without enumerating a left coset.

Products use the structure constants of the algebra: HaH.HbH is the union
of the H a b_j H over the left reps b_j of HbH, and (1_HaH * 1_HbH)(z)
counts the left reps y_i of HaH with y_i^-1 z in HbH.  Each product is
certified by the degree character, sum c(out) L(out) = L(a) L(b), and by
a second evaluation of each output of degree > 1.  Coefficients are exact
rationals throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import rat_from_str, rat_to_str, Mat2
from .errors import BoundReached, CertificateFailed, DescriptorMismatch
from .grouppair import DEFAULT_COSET_BOUND, GElem, PairDescriptor, n_str, q_str


@dataclass(frozen=True)
class DoubleCoset:
    """A double coset HxH: canonical rep, left-coset reps, their printed forms."""

    rep: GElem
    left_reps: tuple[GElem, ...]
    left_strs: tuple[str, ...]

    @property
    def key(self) -> str:
        return self.left_strs[0]

    @property
    def degree(self) -> int:
        """L(x): the number of left cosets yH inside HxH."""
        return len(self.left_reps)


# Each pair keeps one memo, ``pair._dcosets``: canonical left coset key ->
# the DoubleCoset holding it, every double coset stored under all of its
# left cosets.  Only this module reads or writes it.  It is purely an
# optimization: results are the same whether it is warm or cold.


def _too_many(x: GElem, bound: int) -> BoundReached:
    return BoundReached(
        f"more than {bound} left cosets in H.{x}.H; "
        "the pair may not be Hecke at this element, or raise the bound"
    )


def _memo_lookup(x: GElem, bound: int) -> DoubleCoset | None:
    """The memo's double coset of x, if any, checked against the bound."""
    dc = x.pair._dcosets.get(x.pair._canon(x.s, x.v))
    if dc is not None and dc.degree > bound:
        raise _too_many(x, bound)
    return dc


def _r_orbit(x: GElem, bound: int) -> tuple[int, list[tuple]]:
    """[M : M meet qM] for x = (n, q) (``_meet_box``), and the keys (s, v)
    of the canonical elements of the classes in the R-orbit of MxH.

    The orbit is closed under the generators of R alone: it is finite, so
    each generator permutes it.  Raises once [M : M meet qM] times the
    number of classes passes the bound, that is once L(x) > bound.
    """
    pair, s, v = x.pair, x.s, x.v
    a, d = pair._meet_box(s, v)
    m_index = a * d
    if m_index > bound:
        raise _too_many(x, bound)
    step = pair._orbit_step
    gens = [(g.s, g.v) for g in pair.r_elements()]
    orbit = [pair._class(s, v)]
    seen = set(orbit)
    for t, w in orbit:
        for s, v in gens:
            # g.y lies in g.MyH = M.gy.H, as g normalizes M
            z = step(s, v, t, w)
            if z not in seen:
                if m_index * (len(seen) + 1) > bound:
                    raise _too_many(x, bound)
                seen.add(z)
                orbit.append(z)
    return m_index, orbit


def double_coset(x: GElem, bound: int = DEFAULT_COSET_BOUND) -> DoubleCoset:
    dc = _memo_lookup(x, bound)
    if dc is not None:
        return dc
    return _enumerate(x, bound)


def _enumerate(x: GElem, bound: int) -> DoubleCoset:
    """HxH from its R-orbit of classes, stored in the memo; x need not be
    canonical."""
    pair = x.pair
    m_index, orbit = _r_orbit(x, bound)
    left_keys = pair._left_keys
    printed = {}
    for k in orbit:
        # M meet q_k.M is r.(M meet qM) for q_k in r.q.R, so each class has
        # its own box; all its left cosets print the q of k
        q = q_str(k[0], k[1][2:])
        printed.update({key: n_str(*key) + q for key in left_keys(*k)})
    if len(printed) != m_index * len(orbit):
        raise CertificateFailed(
            f"{len(printed)} left cosets in H.{x}.H, not [M:M_q] = {m_index} "
            f"times the {len(orbit)} classes of the R-orbit")
    # printed forms are unique, so the pairs sort by them alone
    strs, keys = zip(*sorted(zip(printed.values(), printed)))
    reps = tuple(GElem(s, v, pair) for s, v in keys)
    dc = DoubleCoset(reps[0], reps, strs)
    memo = pair._dcosets
    if len(memo) > DEFAULT_COSET_BOUND:
        memo.clear()
    memo.update(dict.fromkeys(keys, dc))
    return dc


def forget_double_cosets(pair: PairDescriptor) -> None:
    """Empty the pair's double-coset memo.  The memo's elements refer back
    to the pair, so a pair dropped with a full memo lingers until a full
    garbage collection; a caller done with a pair can free it at once."""
    pair._dcosets.clear()


def l_of(x: GElem, bound: int = DEFAULT_COSET_BOUND) -> int:
    """L(x) = |HxH / H| = [M : M meet qM] times the length of the R-orbit of
    MxH, read from the memo when it holds HxH; no left coset is
    enumerated."""
    dc = _memo_lookup(x, bound)
    if dc is not None:
        return dc.degree
    m_index, orbit = _r_orbit(x, bound)
    return m_index * len(orbit)


def delta(x: GElem, bound: int = DEFAULT_COSET_BOUND) -> Fraction:
    """The modular function L(x) / L(x^-1), an exact rational."""
    return Fraction(l_of(x, bound), l_of(x.pair.inv(x), bound))


# ---------------------------------------------------------------------------
# the *-algebra


@dataclass
class HeckeElement:
    """Finite rational combination of double-coset characteristic functions.

    ``terms`` maps the canonical representative of each double coset in the
    support to its coefficient; zero coefficients are never stored.
    """

    pair: PairDescriptor
    terms: dict[GElem, Fraction] = field(default_factory=dict)

    @staticmethod
    def unit(pair: PairDescriptor) -> "HeckeElement":
        """The characteristic function of H, the identity of the algebra."""
        return HeckeElement.char_fn(pair.identity())

    @staticmethod
    def char_fn(x: GElem, coeff=1,
                bound: int = DEFAULT_COSET_BOUND) -> "HeckeElement":
        dc = double_coset(x, bound)
        coeff = Fraction(coeff)
        terms = {dc.rep: coeff} if coeff else {}
        return HeckeElement(x.pair, terms)

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if self.pair != other.pair:
            raise DescriptorMismatch("mixing Hecke elements of different pairs")
        terms = dict(self.terms)
        for rep, c in other.terms.items():
            terms[rep] = terms.get(rep, 0) + c
        return HeckeElement(self.pair, {r: c for r, c in terms.items() if c})

    def scale(self, c) -> "HeckeElement":
        c = Fraction(c)
        if not c:
            return HeckeElement(self.pair, {})
        return HeckeElement(self.pair, {r: c * v for r, v in self.terms.items()})

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + other.scale(-1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HeckeElement)
            and self.pair == other.pair
            and self.terms == other.terms
        )

    def to_json(self) -> dict:
        items = sorted(self.terms.items(), key=lambda kv: str(kv[0]))
        return {
            "terms": [
                {"rep": rep.to_json(), "coeff": rat_to_str(c)} for rep, c in items
            ]
        }

    @staticmethod
    def from_json(pair: PairDescriptor, data: dict,
                  bound: int = DEFAULT_COSET_BOUND) -> "HeckeElement":
        out = HeckeElement(pair, {})
        for item in data["terms"]:
            rep = parse_gelem_json(pair, item["rep"])
            out = out + HeckeElement.char_fn(rep, rat_from_str(item["coeff"]), bound)
        return out


def parse_gelem_json(pair: PairDescriptor, data: dict) -> GElem:
    n = (rat_from_str(str(data["n"][0])), rat_from_str(str(data["n"][1])))
    q = data["q"]
    if isinstance(q, str):
        q = rat_from_str(q)
    else:
        q = Mat2.from_lists(q)
    return pair.element(n, q)


def convolve(f: HeckeElement, g: HeckeElement,
             bound: int = DEFAULT_COSET_BOUND) -> HeckeElement:
    """Convolution product f*g, by the structure constants of the algebra.

    For support double cosets HaH and HbH with left reps {y_i} and {b_j},
    L(b) products a b_j find the output double cosets, and L(a) products
    y_i^-1 z give an output's value at its left coset z.  The degree L is a
    character of the algebra: ``CertificateFailed`` is raised unless the
    output values times their degrees sum to L(a) L(b), and each output of
    degree > 1 takes the same value at a second left coset.
    """
    if f.pair != g.pair:
        raise DescriptorMismatch("mixing Hecke elements of different pairs")
    pair = f.pair
    canon_mul, memo = pair.canon_mul, pair._dcosets
    # the support is checked against the bound before any output is
    support = [(double_coset(ra, bound), ca, double_coset(rb, bound), cb)
               for ra, ca in f.terms.items() for rb, cb in g.terms.items()]
    # the inverse left reps of each left factor and the left coset keys of
    # each right factor, once per call
    lefts = {dca.rep: dca for dca, _, _, _ in support}
    rights = {dcb.rep: dcb for _, _, dcb, _ in support}
    y_invs = {rep: [pair.inv(y) for y in dc.left_reps] for rep, dc in lefts.items()}
    in_bs = {rep: frozenset((y.s, y.v) for y in dc.left_reps) for rep, dc in rights.items()}
    terms: dict[GElem, Fraction] = {}
    for dca, ca, dcb, cb in support:
        a = dca.rep
        outputs: dict[GElem, DoubleCoset] = {}
        for bj in dcb.left_reps:
            key = canon_mul(a, bj)
            dc = memo.get(key)
            if dc is None:
                # the key is canonical: enumerate it without a second lookup
                dc = _enumerate(GElem(*key, pair), bound)
            elif dc.degree > bound:
                raise _too_many(GElem(*key, pair), bound)
            outputs.setdefault(dc.rep, dc)
        y_inv, in_b = y_invs[a], in_bs[dcb.rep]

        def value(z: GElem) -> int:
            return sum(canon_mul(yi, z) in in_b for yi in y_inv)

        coeff = ca * cb
        total = 0
        for rep, dc in outputs.items():
            n = value(rep)
            if dc.degree > 1 and value(dc.left_reps[1]) != n:
                raise CertificateFailed(
                    f"convolution value not constant on the double coset of {rep}")
            total += n * dc.degree
            terms[rep] = terms.get(rep, 0) + coeff * n
        if total != dca.degree * dcb.degree:
            raise CertificateFailed(
                f"degree certificate of H.{a}.H * H.{dcb.rep}.H: values "
                f"times degrees sum to {total}, not {dca.degree * dcb.degree}")
    return HeckeElement(pair, {rep: c for rep, c in terms.items() if c})


def involution(f: HeckeElement,
               bound: int = DEFAULT_COSET_BOUND) -> HeckeElement:
    """The *-involution: support moves to inverse cosets, weighted by the
    modular function so that the operation squares to the identity."""
    pair = f.pair
    terms: dict[GElem, Fraction] = {}
    for rep, c in f.terms.items():
        dc = double_coset(rep, bound)
        dci = double_coset(pair.inv(rep), bound)
        weight = Fraction(dc.degree, dci.degree)  # delta(rep)
        terms[dci.rep] = terms.get(dci.rep, 0) + c * weight
    return HeckeElement(pair, {r: c for r, c in terms.items() if c})
