"""Correctness gate for one job, run outside the timed span.

A job fails when its exit code is not the expected one, it raised, its
seed-invariant outputs differ from ``reference.json``, an independent oracle
disagrees, or (for the reference seed) its report's sha256 differs from the
checked-in digest.  ``check_job`` returns the list of reasons; empty means
the job passed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction as F
from math import gcd, isqrt

from workloads import CONFIGS, mmul

REFERENCE_SEED = 0


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def parse_report(text: str):
    """(records, summary) of a captured report: a header line, the records,
    the summary record, then the human summary line."""
    lines = text.splitlines()
    return [json.loads(line) for line in lines[1:-2]], json.loads(lines[-2])["summary"]


def invariant_digest(job, records) -> str | None:
    """Digest of the outputs that do not depend on the seed-chosen input
    representative, or None when the job kind has none."""
    if job.kind in ("pure_q", "pure_n", "mixed"):
        part = [r["outputs"] for r in records]
    elif job.kind == "tower":
        part = [[r["name"], r["outputs"], r["verdict"]] for r in records]
    elif job.kind == "pair_verify":
        # the sampled H elements follow --seed; the index, stage and
        # directedness checks use fixed samples
        part = [r for r in records if not r["name"].startswith("stabilizer.")]
    else:
        return None
    return sha256(json.dumps(part, sort_keys=True))


# ---------------------------------------------------------------------------
# independent oracles


def parse_mat(text: str):
    rows = text.replace(" ", "")[2:-2].split("],[")
    return tuple(F(x) for row in rows for x in row.split(","))


def _det(m):
    return m[0] * m[3] - m[1] * m[2]


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def slpm_size(s: int) -> int:
    """|SL+-2(Z/s)|: s^3 prod_{p|s} (1 - p^-2), doubled when -1 != 1 mod s."""
    if s == 1:
        return 1
    size = F(s) ** 3
    for p in _prime_factors(s):
        size *= 1 - F(1, p * p)
    return int(size) * (2 if s > 2 else 1)


def quad_unit_count(d: int, s: int) -> int:
    """|(Z[sqrt d]/s)^x| from the splitting type of each prime of s."""
    total = 1
    for p in _prime_factors(s):
        k = 0
        while s % p ** (k + 1) == 0:
            k += 1
        if d % p == 0 or p == 2:
            local = p * (p - 1)
        elif pow(d, (p - 1) // 2, p) == 1:
            local = (p - 1) ** 2
        else:
            local = p * p - 1
        total *= p ** (2 * (k - 1)) * local
    return total


def _fundamental_unit(d: int) -> tuple[int, int]:
    """(m, n) for the unit m + n sqrt(d) > 1 with the least n >= 1."""
    n = 1
    while True:
        for e in (-1, 1):
            m = isqrt(d * n * n + e)
            if m * m == d * n * n + e:
                return m, n
        n += 1


def quad_unit_image(d: int, s: int) -> tuple[int, int]:
    """(order of the fundamental unit mod s, size of {+-u^k} mod s)."""
    m, n = _fundamental_unit(d)
    one = (1 % s, 0)
    power, order, image = one, 0, set()
    while True:
        image.update({power, ((-power[0]) % s, (-power[1]) % s)})
        power = ((power[0] * m + d * power[1] * n) % s,
                 (power[0] * n + power[1] * m) % s)
        order += 1
        if power == one:
            return order, len(image)


def _p_power(x: F, p: int) -> bool:
    x = abs(x)
    for part in (x.numerator, x.denominator):
        while part % p == 0:
            part //= p
        if part != 1:
            return False
    return True


def _oracle_decompose(job, rec) -> list[str]:
    g = parse_mat(job.data["matrix"])
    t, k = parse_mat(rec["outputs"]["t"]), parse_mat(rec["outputs"]["k"])
    bad = []
    if mmul(t, k) != g:
        bad.append("t k != g")
    if t[1] != 0 or t[0] == 0 or t[3] == 0:
        bad.append("t not lower triangular and invertible")
    if abs(_det(k)) != 1:
        bad.append("det k != +-1")
    p = job.data["p"]
    if p is None:
        if any(x.denominator != 1 for x in k):
            bad.append("k not integral")
    else:
        if not (_p_power(t[0], p) and _p_power(t[3], p)):
            bad.append("diagonal of t not a signed p-power")
        if any(x.denominator % p == 0 for x in k):
            bad.append("k has an entry of negative p-valuation")
    return bad


def _oracle_degree(job, rec, hp) -> list[str]:
    out = rec["outputs"]
    bad = []
    if out["L"] != len(out["left_reps"]):
        bad.append("L != number of left reps")
    if F(out["delta"]) != F(out["L"], out["L_inverse"]):
        bad.append("delta != L / L_inverse")
    pair = hp.PairDescriptor.from_config(CONFIGS[job.data["config"]])
    n = tuple(F(x) for x in job.data["n"])
    if job.kind == "pure_q":
        q = hp.Mat2(*(F(x) for x in job.data["q"]))
        expected = hp.index_m_cap_conj(pair, q) * hp.index_r_cap_conj(pair, q)
        if out["L"] != expected:
            bad.append(f"L = {out['L']}, [M:M_q][R:R_q] = {expected}")
    elif job.kind == "pure_n":
        expected = hp.index_r_coset_stab(pair, n)
        if out["L"] != expected:
            bad.append(f"L = {out['L']}, [R:R_(n,M)] = {expected}")
    return bad


def _terms(items) -> dict:
    return {json.dumps(t["rep"], sort_keys=True): F(t["coeff"]) for t in items}


def _combine(parts) -> dict:
    """Sum of coefficient * {rep: value} maps."""
    out: dict = {}
    for coeff, terms in parts:
        for rep, value in terms.items():
            out[rep] = out.get(rep, F(0)) + coeff * F(value)
    return {rep: v for rep, v in out.items() if v}


def _oracle_hecke(job, records, algebra_ref) -> list[str]:
    by_name = {r["name"]: r for r in records}
    prod, assoc = by_name.get("hecke.product"), by_name.get("hecke.assoc")
    if prod is None or assoc is None:
        return ["missing hecke.product or hecke.assoc"]
    fc = [F(c) for c in job.data["f_coeffs"]]
    gc = [F(c) for c in job.data["g_coeffs"]]
    f, g = job.data["f"], job.data["g"]
    canon = algebra_ref["canon"]
    bad = []
    if _terms(prod["inputs"]["f"]["terms"]) != _combine(
            (c, {canon[a]: 1}) for c, a in zip(fc, f)):
        bad.append("f is not the canonical combination of its terms")
    expected = _combine((a_c * b_c, algebra_ref["products"][f"{a}*{b}"])
                        for a, a_c in zip(f, fc) for b, b_c in zip(g, gc))
    if _terms(prod["outputs"]["f*g"]["terms"]) != expected:
        bad.append("f*g differs from the bilinear combination of reference products")
    for key, names, coeffs in (("f^*", f, fc), ("g^*", g, gc)):
        star = _combine((c, algebra_ref["stars"][a]) for a, c in zip(names, coeffs))
        if _terms(prod["outputs"][key]["terms"]) != star:
            bad.append(f"{key} differs from the reference involution")
    if assoc["outputs"].get("equal") is not True:
        bad.append("hecke.assoc is not true")
    return bad


def _oracle(job, records, summary, reference, hp) -> list[str]:
    bad = []
    if job.kind in ("pure_q", "pure_n", "mixed"):
        bad += _oracle_degree(job, records[0], hp)
    elif job.kind == "hecke":
        bad += _oracle_hecke(job, records, reference["algebra"])
    elif job.kind == "tower":
        for r in records:
            out = r["outputs"]
            if "order" in out and out["order"] != out["m_index"] * out["r_index"]:
                bad.append(f"{r['name']}: order != m_index * r_index")
    elif job.kind == "pair_verify":
        if summary["fail"] or summary["inconclusive"]:
            bad.append(f"summary {summary}")
    elif job.kind == "decompose":
        bad += _oracle_decompose(job, records[0])
    elif job.kind == "slpm":
        out = records[0]["outputs"]
        if out["target_size"] != slpm_size(job.data["s"]) or not out["match"]:
            bad.append(f"slpm {out} vs |SL+-2| = {slpm_size(job.data['s'])}")
    elif job.kind == "quad_units":
        d, s = job.data["d"], job.data["s"]
        out = records[0]["outputs"]
        order, image = quad_unit_image(d, s)
        full = quad_unit_count(d, s)
        if (out["unit_order"], out["image_size"], out["full_size"],
                out["proper"]) != (order, image, full, image < full):
            bad.append(f"quad units {out} vs order {order}, image {image}, full {full}")
    elif job.kind == "heis_orbit":
        s, z, w = job.data["s"], job.data["z"], job.data["w"]
        out = records[0]["outputs"]
        orbit = sorted({(z % s, (w + r * z) % s) for r in range(s)})
        if out["size"] != s // gcd(z, s) or out["orbit"] != [list(o) for o in orbit]:
            bad.append("heis orbit differs from (z, w + zZ) mod s")
    return bad


def check_job(job, code, text, error, workload, seed, reference, hp) -> list[str]:
    """Reasons why this execution of ``job`` is wrong; empty if it is right."""
    if error is not None:
        return [f"raised {error}"]
    bad = []
    if code != job.expect_exit:
        bad.append(f"exit {code}, expected {job.expect_exit}")
    if seed == REFERENCE_SEED:
        want = reference["reports"][workload][job.slot]
        if sha256(text) != want:
            bad.append("report sha256 differs from the reference")
    try:
        records, summary = parse_report(text)
    except (ValueError, IndexError, KeyError) as exc:
        return bad + [f"unparsable report: {exc}"]
    digest = invariant_digest(job, records)
    if digest is not None and digest != reference["invariants"][workload][job.base]:
        bad.append("seed-invariant outputs differ from the reference")
    try:
        bad += _oracle(job, records, summary, reference, hp)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        bad.append(f"oracle could not read the report: {exc!r}")
    return bad
