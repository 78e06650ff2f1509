"""Seeded job lists for the four benchmark workloads.

Each workload is a fixed list of base jobs (the strata).  The seed only
picks, for every base job, an input that is equivalent in cost and in its
seed-invariant outputs (another representative of the same double coset,
another seed matrix of the same R-double coset, other positive
coefficients, other family parameters), and shuffles the order.  So every
seed runs the same work, and the per-job checks in ``checks.py`` can compare
seed-invariant outputs against ``reference.json``.

Nothing here imports ``heckepairs``: the inputs are built with plain
``Fraction`` arithmetic so that job generation neither depends on nor
exercises the program under test.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction as F

WORK_DIR = "bench/_work"

CONFIGS = {
    "gl2_p2": {"family": "planar", "base_ring": "Z[1/p]", "p": 2, "Q_kind": "full_gl2"},
    "gl2_p3": {"family": "planar", "base_ring": "Z[1/p]", "p": 3, "Q_kind": "full_gl2"},
    "gl2_p5": {"family": "planar", "base_ring": "Z[1/p]", "p": 5, "Q_kind": "full_gl2"},
    "gl2_Q": {"family": "planar", "base_ring": "Q", "Q_kind": "full_gl2"},
    "quad_d2": {"family": "planar", "Q_kind": "quad_torus", "d": 2},
    "heis": {"family": "heisenberg"},
}


def config_path(name: str) -> str:
    return f"{WORK_DIR}/{name}.json"


@dataclass
class Job:
    """One CLI invocation plus what the correctness gate needs to know."""

    slot: int                  # index in the base list; stable across seeds
    base: str                  # key of the base job in reference.json
    kind: str                  # which oracle applies (see checks.py)
    argv: list
    expect_exit: int = 0
    data: dict = field(default_factory=dict)   # oracle inputs


# ---------------------------------------------------------------------------
# exact 2x2 arithmetic for building equivalent inputs

Mat = tuple  # (a, b, c, d) of Fractions, row-major


def mat(a, b, c, d) -> Mat:
    return (F(a), F(b), F(c), F(d))


def mmul(x: Mat, y: Mat) -> Mat:
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def mvec(x: Mat, v) -> tuple:
    return (x[0] * v[0] + x[1] * v[1], x[2] * v[0] + x[3] * v[1])


def rat(x: F) -> str:
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def mat_text(m: Mat) -> str:
    return f"[[{rat(m[0])},{rat(m[1])}],[{rat(m[2])},{rat(m[3])}]]"


def vec_text(v) -> str:
    return f"({rat(v[0])},{rat(v[1])})"


# generators of R = GL(2, Z) and their inverses
_R_GENS = (mat(1, 1, 0, 1), mat(1, -1, 0, 1), mat(1, 0, 1, 1), mat(1, 0, -1, 1),
           mat(1, 0, 0, -1))
_ID = mat(1, 0, 0, 1)


def r_word(rng: random.Random, max_len: int = 2) -> Mat:
    m = _ID
    for _ in range(rng.randint(0, max_len)):
        m = mmul(m, rng.choice(_R_GENS))
    return m


def m_vec(rng: random.Random) -> tuple:
    return (F(rng.randint(-1, 1)), F(rng.randint(-1, 1)))


def planar_variant(rng: random.Random, n, q: Mat):
    """Another element of H (n, q) H: h1 (n, q) h2 with h_i = (m_i, r_i).

    A pure q stays pure (the m_i are dropped) and a pure translation stays
    a translation (r2 = r1^-1 is used through r.n), so the element keeps its
    kind and the oracles for that kind still apply.
    """
    r1 = r_word(rng)
    if n == (0, 0):
        return (F(0), F(0)), mmul(mmul(r1, q), r_word(rng))
    if q == _ID:
        rn = mvec(r1, n)
        m = m_vec(rng)
        return (rn[0] + m[0], rn[1] + m[1]), _ID
    r2 = r_word(rng)
    m1, m2 = m_vec(rng), m_vec(rng)
    qm2 = mvec(mmul(r1, q), m2)
    r1n = mvec(r1, n)
    return (m1[0] + r1n[0] + qm2[0], m1[1] + r1n[1] + qm2[1]), mmul(mmul(r1, q), r2)


def planar_text(n, q: Mat) -> str:
    if n == (0, 0):
        return mat_text(q)
    if q == _ID:
        return vec_text(n)
    return f"n={vec_text(n)};q={mat_text(q)}"


def heis_variant(rng: random.Random, n, q: F):
    """h1 (n, q) h2 for h_i = ((0, m_i), r_i) in H = M x| R of the
    Heisenberg family, with (n1, q1)(n2, q2) = ((n1_0 + n2_0 + q1 n2_1) mod 1,
    n1_1 + n2_1; q1 + q2)."""
    def mul(x, y):
        (a, u), s = x
        (b, v), t = y
        return (((a + b + s * v) % 1, u + v), s + t)

    h1 = ((F(0), F(rng.randint(-2, 2))), F(rng.randint(-2, 2)))
    h2 = ((F(0), F(rng.randint(-2, 2))), F(rng.randint(-2, 2)))
    return mul(mul(h1, ((F(n[0]), F(n[1])), F(q))), h2)


# ---------------------------------------------------------------------------
# degrees: cold BFS double cosets on planar gl2 pairs


def _diag(a, b) -> Mat:
    return mat(a, 0, 0, b)


_DEGREE_BASE = [
    # (config, n, q)
    ("gl2_p2", (0, 0), _diag(2, 1)),
    ("gl2_p2", (0, 0), _diag(1, 2)),
    ("gl2_p2", (0, 0), _diag(4, 1)),
    ("gl2_p2", (0, 0), _diag(4, 2)),
    ("gl2_p2", (0, 0), _diag(8, 1)),
    ("gl2_p2", (0, 0), _diag(16, 1)),
    ("gl2_p2", (F(1, 2), 0), _ID),
    ("gl2_p2", (0, F(1, 2)), _ID),
    ("gl2_p2", (F(1, 4), 0), _ID),
    ("gl2_p2", (F(1, 8), 0), _ID),
    ("gl2_p2", (F(1, 2), 0), _diag(2, 1)),
    ("gl2_p2", (0, F(1, 2)), _diag(1, 2)),
    ("gl2_p3", (0, 0), _diag(3, 1)),
    ("gl2_p3", (0, 0), _diag(1, 3)),
    ("gl2_p3", (0, 0), _diag(9, 1)),
    ("gl2_p3", (F(1, 3), 0), _ID),
    ("gl2_p3", (F(1, 9), 0), _ID),
    ("gl2_p3", (F(1, 3), 0), _diag(3, 1)),
    ("gl2_p5", (0, 0), _diag(5, 1)),
    ("gl2_p5", (F(1, 5), 0), _ID),
    ("gl2_p5", (0, F(1, 5)), _ID),
    ("gl2_Q", (0, 0), _diag(2, 1)),
    ("gl2_Q", (0, 0), _diag(1, 2)),
    ("gl2_Q", (0, 0), _diag(6, 1)),
    ("gl2_Q", (0, 0), _diag(3, 2)),
    ("gl2_Q", (F(1, 6), 0), _ID),
    ("gl2_Q", (F(1, 2), F(1, 3)), _ID),
    ("gl2_Q", (F(1, 3), 0), _ID),
    ("gl2_Q", (F(1, 2), 0), _diag(3, 1)),
]


def _degrees(rng: random.Random):
    jobs = []
    for cfg, n, q in _DEGREE_BASE:
        n = (F(n[0]), F(n[1]))
        kind = "pure_q" if n == (0, 0) else ("pure_n" if q == _ID else "mixed")
        vn, vq = planar_variant(rng, n, q)
        jobs.append(Job(len(jobs), f"{cfg}:{planar_text(n, q)}", kind,
                        ["dcoset", "--config", config_path(cfg),
                         "--element", planar_text(vn, vq)],
                        data={"config": cfg, "n": [rat(x) for x in vn],
                              "q": [rat(x) for x in vq]}))
    return jobs, {}


# ---------------------------------------------------------------------------
# algebra: hecke mul on small supports with seeded coefficients

_ALGEBRA_POOL = {
    # name: (config, n, q)
    "T2": ("gl2_p2", (0, 0), _diag(2, 1)),
    "T2t": ("gl2_p2", (0, 0), _diag(1, 2)),
    "N2": ("gl2_p2", (F(1, 2), 0), _ID),
    "N4": ("gl2_p2", (F(1, 4), 0), _ID),
    "X2": ("gl2_p2", (F(1, 2), 0), _diag(2, 1)),
    "T4": ("gl2_p2", (0, 0), _diag(4, 1)),
    "hq2": ("heis", (0, 0), F(1, 2)),
    "hq3": ("heis", (0, 0), F(1, 3)),
    "hq4": ("heis", (0, 0), F(1, 4)),
    "hn2": ("heis", (0, F(1, 2)), F(0)),
    "hn6": ("heis", (0, F(1, 6)), F(0)),
    "hx": ("heis", (0, F(1, 2)), F(1, 3)),
}

_ALGEBRA_BASE = [
    # (f support, g support)
    (("N2",), ("N2",)),
    (("N2",), ("T2",)),
    (("T2",), ("N2",)),
    (("N2",), ("N4",)),
    (("N4",), ("N4",)),
    (("T2",), ("T2",)),
    (("T2t",), ("T2t",)),
    (("N2",), ("T4",)),
    (("N2",), ("X2",)),
    (("X2",), ("N2",)),
    (("N2", "N4"), ("N2",)),
    (("T2t", "N2"), ("T2t",)),
    (("hq2",), ("hq2",)),
    (("hq3",), ("hq3",)),
    (("hq4",), ("hq4",)),
    (("hn2",), ("hn2",)),
    (("hn6",), ("hn6",)),
    (("hx",), ("hx",)),
    (("hq2",), ("hq3",)),
    (("hn2",), ("hq4",)),
    (("hq2", "hn2"), ("hq3",)),
    (("hq2", "hn6"), ("hx", "hq3")),
    (("hq4", "hn6"), ("hq2",)),
    (("hq3",), ("hn2", "hq2")),
]


def _coeff(rng: random.Random) -> F:
    # positive, so that no product coefficient cancels and every seed
    # convolves the same supports
    return F(rng.randint(1, 9), rng.randint(1, 4))


def rep_json(cfg: str, n, q) -> dict:
    """The ``rep`` of a term in a ``hecke mul`` element file."""
    if cfg == "heis":
        qj = rat(q)
    else:
        qj = [[rat(q[0]), rat(q[1])], [rat(q[2]), rat(q[3])]]
    return {"n": [rat(n[0]), rat(n[1])], "q": qj}


def _term_json(rng: random.Random, name: str, coeff: F) -> dict:
    cfg, n, q = _ALGEBRA_POOL[name]
    n = (F(n[0]), F(n[1]))
    variant = heis_variant if cfg == "heis" else planar_variant
    return {"rep": rep_json(cfg, *variant(rng, n, q)), "coeff": rat(coeff)}


def _algebra(rng: random.Random):
    jobs, files = [], {}
    for f_names, g_names in _ALGEBRA_BASE:
        cfg = _ALGEBRA_POOL[f_names[0]][0]
        slot = len(jobs)
        fc = [_coeff(rng) for _ in f_names]
        gc = [_coeff(rng) for _ in g_names]
        f_path = f"{WORK_DIR}/algebra/{slot}_f.json"
        g_path = f"{WORK_DIR}/algebra/{slot}_g.json"
        files[f_path] = {"terms": [_term_json(rng, nm, c) for nm, c in zip(f_names, fc)]}
        files[g_path] = {"terms": [_term_json(rng, nm, c) for nm, c in zip(g_names, gc)]}
        argv = ["hecke", "mul", "--f", f_path, "--g", g_path]
        if cfg != "gl2_p2":
            argv += ["--config", config_path(cfg)]
        jobs.append(Job(slot, f"{'+'.join(f_names)}*{'+'.join(g_names)}", "hecke", argv,
                        data={"f": list(f_names), "g": list(g_names),
                              "f_coeffs": [rat(c) for c in fc],
                              "g_coeffs": [rat(c) for c in gc]}))
    return jobs, files


# ---------------------------------------------------------------------------
# tower: stage chains, some capped below their last stage's order

# Builds that reach order 49,152 (diag(4,1) alone, or diag(2,1); diag(4,1)
# uncapped) are left out: that one memory-heavy job took a third of a pass,
# tracked the CPU-speed reference of run.py poorly and made jobs_per_s spread
# 7-9% from run to run.  The capped jobs still enumerate that stage before
# SizeCap rejects it.
_TOWER_BASE = [
    # (config, seed matrices, extra flags, expected exit); every entry is a
    # different chain, stage limit or cap, and each runs once per pass
    ("gl2_p2", (), [], 0),
    ("gl2_p2", (_diag(2, 1),), [], 0),
    ("gl2_p2", (_diag(1, 2),), [], 0),
    ("gl2_p2", (_diag(2, 1),), ["--stages", "0"], 0),
    ("gl2_p2", (_diag(2, 1),), ["--stage-order-max", "191"], 3),
    ("gl2_p2", (_diag(2, 1), _diag(1, 2)), [], 0),
    ("gl2_p2", (_diag(2, 1), _diag(1, 2)), ["--stages", "1"], 0),
    ("gl2_p2", (_diag(2, 1), _diag(1, 2)), ["--stage-order-max", "191"], 3),
    ("gl2_p2", (_diag(2, 1), _diag(4, 1)), ["--stages", "1"], 0),
    ("gl2_p2", (_diag(1, 2), _diag(1, 4)), ["--stages", "1"], 0),
    ("gl2_p2", (_diag(2, 1), _diag(4, 1)), ["--stage-order-max", "49151"], 3),
    ("gl2_p2", (_diag(2, 1), _diag(4, 1), _diag(8, 1)), ["--stage-order-max", "49151"], 3),
    ("gl2_p3", (), [], 0),
    ("gl2_p3", (_diag(3, 1),), [], 0),
    ("gl2_p3", (_diag(1, 3),), [], 0),
    ("gl2_p3", (_diag(3, 1),), ["--stages", "0"], 0),
    ("gl2_p3", (_diag(1, 3),), ["--stage-order-max", "11663"], 3),
    ("gl2_p3", (_diag(3, 1), _diag(1, 3)), [], 0),
    ("gl2_p3", (_diag(3, 1), _diag(1, 3)), ["--stages", "1"], 0),
    ("gl2_p3", (_diag(3, 1), _diag(9, 1)), ["--stages", "1"], 0),
    ("gl2_p3", (_diag(3, 1), _diag(9, 1)), ["--stage-order-max", "11663"], 3),
]


def _tower(rng: random.Random):
    jobs = []
    for cfg, seeds, extra, code in _TOWER_BASE:
        variants = [mmul(mmul(r_word(rng), q), r_word(rng)) for q in seeds]
        argv = ["tower", "build", "--config", config_path(cfg)]
        if variants:
            argv += ["--seed", ";".join(mat_text(q) for q in variants)]
        base = f"{cfg}:{';'.join(mat_text(q) for q in seeds)}:{' '.join(extra)}"
        jobs.append(Job(len(jobs), base, "tower", argv + extra, code))
    return jobs, {}


# ---------------------------------------------------------------------------
# verify: pair verification campaigns plus the family subcommands

_VERIFY_PAIRS = [
    # (config, extra flags); Z[1/3] runs with a conductor cap that skips its
    # level-27 residue index, which alone takes ~3.7 s and would otherwise
    # turn this short-job workload into a single-job one
    ("gl2_p2", []),
    ("gl2_p3", ["--conductor-max", "20"]),
    ("gl2_Q", []),
    ("quad_d2", []),
    ("heis", []),
]
# a family subcommand runs once per value of the parameter it is listed
# with, and once if it has none.  Moduli are fixed, because the cost
# follows them: a seeded modulus moved jobs across the median rank.
_PADIC_PRIMES = (2, 3, 5)
_SLPM_MODULI = tuple(range(2, 17))
_QUAD_D = (2, 3, 6, 7)
_QUAD_MOD = 20
_HEIS_MOD = 30


def _padic_matrix(rng: random.Random, p: int) -> Mat:
    """t k with t lower triangular with signed p-power diagonal and entries
    in Z[1/p], k in GL(2, Z): entries in Z[1/p], det a signed p-power."""
    t = mat(rng.choice((1, -1)) * F(p) ** rng.randint(-2, 2), 0,
            F(rng.randint(-9, 9), p ** rng.randint(0, 2)),
            rng.choice((1, -1)) * F(p) ** rng.randint(-2, 2))
    return mmul(t, r_word(rng, 3))


def _global_matrix(rng: random.Random) -> Mat:
    while True:
        m = tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4))
        if m[0] * m[3] - m[1] * m[2] != 0:
            return m


def _verify(rng: random.Random):
    jobs = []

    def add(base, kind, argv, **data):
        jobs.append(Job(len(jobs), base, kind, argv, data=data))

    # the sampled H elements, and with them the cost, follow the sampling
    # seed, so it is fixed rather than drawn from the workload seed
    for cfg, extra in _VERIFY_PAIRS:
        add(f"pair:{cfg}", "pair_verify",
            ["pair", "verify", "--config", config_path(cfg), "--seed", "1"] + extra)
    for p in _PADIC_PRIMES:
        g = _padic_matrix(rng, p)
        add("decompose:padic", "decompose",
            ["gl2", "decompose", "--p", str(p), "--matrix", mat_text(g)],
            p=p, matrix=mat_text(g))
    g = _global_matrix(rng)
    add("decompose:global", "decompose", ["gl2", "decompose", "--matrix", mat_text(g)],
        p=None, matrix=mat_text(g))
    for s in _SLPM_MODULI:
        add(f"slpm:{s}", "slpm", ["gl2", "slpm", "--mod", str(s)], s=s)
    for d in _QUAD_D:
        s = _QUAD_MOD
        add("quad", "quad_units",
            ["quad", "units", "--d", str(d), "--mod", str(s)], d=d, s=s)
    s = _HEIS_MOD
    z, w = rng.randrange(s), rng.randrange(s)
    add("heis_orbit", "heis_orbit",
        ["heis", "orbit", "--mod", str(s), "--z", str(z), "--w", str(w)],
        s=s, z=z, w=w)
    return jobs, {}


WORKLOADS = {
    "degrees": _degrees,
    "algebra": _algebra,
    "tower": _tower,
    "verify": _verify,
}


def make_jobs(workload: str, seed: int):
    """Job list (in base order, ``slot`` = position) and the execution
    order, both determined by the workload name and the seed."""
    rng = random.Random(f"{workload}:{seed}")
    jobs, files = WORKLOADS[workload](rng)
    order = list(range(len(jobs)))
    rng.shuffle(order)
    return jobs, files, order


def write_inputs(files: dict) -> None:
    """Write the pair configs and the jobs' element files at their fixed
    relative paths (the config path is part of every report header)."""
    os.makedirs(f"{WORK_DIR}/algebra", exist_ok=True)
    for name, cfg in CONFIGS.items():
        with open(config_path(name), "w") as fh:
            json.dump(cfg, fh, sort_keys=True)
    for path, content in files.items():
        with open(path, "w") as fh:
            json.dump(content, fh, sort_keys=True)
