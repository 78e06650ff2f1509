"""Command-line front end.

Subcommands: ``pair verify``, ``dcoset``, ``hecke mul``, ``tower build``,
``gl2 decompose``, ``gl2 slpm``, ``quad units``, ``heis orbit``.  Every
command emits a deterministic JSON-lines report (one record per check,
sorted) plus a short human summary on stdout.  Exit codes: 0 all checks
pass, 1 any check fails, 2 usage or configuration error, 3 no failures but
at least one check was inconclusive.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import Mat2, is_prime, rat_from_str, rat_to_str
from .cosets import (
    HeckeElement,
    convolve,
    double_coset,
    forget_double_cosets,
    involution,
    l_of,
)
from .errors import (
    BadDiscriminant,
    BoundReached,
    CertificateFailed,
    ConfigInvalid,
    DetNotAllowed,
    HeckePairsError,
    NotInQ,
)
from .families import (
    heis_orbit,
    slpm_surjectivity,
    split_global,
    split_padic,
    unit_image_gap,
)
from .grouppair import (
    DEFAULT_COSET_BOUND,
    HEISENBERG,
    PLANAR,
    QUAD_TORUS,
    PairDescriptor,
    check_record,
    downward_directed_report,
    hecke_indices_report,
    reduced_stage_report,
    stabilizer_identities_report,
    worst_verdict,
)
from .tower import DEFAULT_CONDUCTOR_CAP, DEFAULT_ORDER_CAP, ConnectingMap, build_stage, \
    make_coset_family, make_envelope, triangle_commutes, verify_stage_invariants

CONFIG_DIR_ENV = "HECKEPAIRS_CONFIG_DIR"


@dataclass
class RunConfig:
    """Bounds, sampling and output destination for one command run."""

    pair: PairDescriptor
    pair_source: str
    coset_enum_max: int = DEFAULT_COSET_BOUND
    conductor_max: int = DEFAULT_CONDUCTOR_CAP
    stage_order_max: int = DEFAULT_ORDER_CAP
    sample_count: int = 8
    seed: int = 0
    out: str | None = None

    def __post_init__(self):
        for name in ("coset_enum_max", "conductor_max", "stage_order_max",
                     "sample_count"):
            if getattr(self, name) <= 0:
                raise ConfigInvalid(f"bound {name} must be positive")


@dataclass
class Report:
    """Sorted check records plus summary counts; serializes to JSON lines."""

    command: str
    config: RunConfig
    records: list = field(default_factory=list)

    def add(self, name: str, law: str, inputs: dict, outputs: dict,
            verdict: str) -> None:
        self.records.append(check_record(name, law, inputs, outputs, verdict))

    def extend_from(self, prefix: str, module_report: dict) -> None:
        for check in module_report["checks"]:
            self.add(f"{prefix}.{check['name']}", check["law"],
                     check["inputs"], check["outputs"], check["verdict"])

    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "inconclusive": 0}
        for rec in self.records:
            counts[rec["verdict"]] += 1
        return counts

    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "inconclusive": 3}[worst_verdict(self.records)]

    def to_jsonl(self) -> str:
        head = {
            "command": self.command,
            "pair": self.config.pair_source,
            "seed": self.config.seed,
            "bounds": {
                "coset_enum_max": self.config.coset_enum_max,
                "conductor_max": self.config.conductor_max,
                "stage_order_max": self.config.stage_order_max,
            },
        }
        lines = [json.dumps(head, sort_keys=True)]
        for rec in sorted(self.records,
                          key=lambda r: (r["name"], json.dumps(r["inputs"],
                                                               sort_keys=True))):
            lines.append(json.dumps(rec, sort_keys=True, default=str))
        lines.append(json.dumps({"summary": self.summary()}, sort_keys=True))
        return "\n".join(lines) + "\n"

    def emit(self) -> None:
        text = self.to_jsonl()
        if self.config.out:
            with open(self.config.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        counts = self.summary()
        print(f"{self.command}: {counts['pass']} pass, {counts['fail']} fail, "
              f"{counts['inconclusive']} inconclusive")


# ---------------------------------------------------------------------------
# parsing helpers


def _resolve_config_path(path: str | None) -> str | None:
    if path is None:
        return None
    if not os.path.isabs(path) and not os.path.exists(path):
        base = os.environ.get(CONFIG_DIR_ENV)
        if base and os.path.exists(os.path.join(base, path)):
            return os.path.join(base, path)
    return path


def load_pair(path: str | None) -> tuple[PairDescriptor, str]:
    """Load the pair descriptor; without a config file the default is the
    full planar matrix family over Z[1/2]."""
    if path is None:
        return PairDescriptor.planar_gl2(p=2), "<default: planar gl2 over Z[1/2]>"
    path = _resolve_config_path(path)
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read pair config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"pair config {path} is not valid JSON: {exc}") from exc
    return PairDescriptor.from_config(cfg), path


def _parse_rats(parts, what: str, text: str) -> list[Fraction]:
    try:
        return [rat_from_str(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigInvalid(f"cannot parse {what} {text!r}: {exc}") from exc


def parse_matrix(text: str) -> Mat2:
    """Parse "[[a,b],[c,d]]" with exact rational entries."""
    body = text.replace(" ", "")
    if not (body.startswith("[[") and body.endswith("]]")):
        raise ConfigInvalid(f"cannot parse matrix {text!r}")
    rows = [row.split(",") for row in body[2:-2].split("],[")]
    if len(rows) != 2 or any(len(row) != 2 for row in rows):
        raise ConfigInvalid(f"cannot parse matrix {text!r}")
    return Mat2(*_parse_rats(rows[0] + rows[1], "matrix", text))


def parse_vector(text: str) -> tuple[Fraction, Fraction]:
    body = text.replace(" ", "")
    if not (body.startswith("(") and body.endswith(")")):
        raise ConfigInvalid(f"cannot parse vector {text!r}")
    parts = body[1:-1].split(",")
    if len(parts) != 2:
        raise ConfigInvalid(f"cannot parse vector {text!r}")
    return tuple(_parse_rats(parts, "vector", text))


def _require(ok: bool, message: str) -> None:
    """Reject an out-of-range command-line value as a usage error."""
    if not ok:
        raise ConfigInvalid(message)


def parse_element(pair: PairDescriptor, text: str):
    """Parse a group element: "n=(...);q=..." or a pure q / pure n shorthand."""
    body = text.strip()
    try:
        if body.startswith("n="):
            npart, qpart = body.split(";q=", 1)
            n = parse_vector(npart[2:])
            q = (rat_from_str(qpart) if pair.family == HEISENBERG
                 else parse_matrix(qpart))
            return pair.element(n, q)
        if body.startswith("[["):
            return pair.element((0, 0), parse_matrix(body))
        if body.startswith("("):
            q = Fraction(0) if pair.family == HEISENBERG else Mat2.identity()
            return pair.element(parse_vector(body), q)
        if pair.family == HEISENBERG:
            return pair.element((0, 0), rat_from_str(body))
    except NotInQ as exc:
        raise ConfigInvalid(f"element {text!r} is not in G: {exc}") from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigInvalid(f"cannot parse element {text!r}: {exc}") from exc
    raise ConfigInvalid(f"cannot parse element {text!r}")


def _default_samples(pair: PairDescriptor):
    """Deterministic sample elements used by ``pair verify``."""
    F = Fraction
    if pair.family == HEISENBERG:
        qs = [F(1, 2), F(1, 3), F(2, 3)]
        ns = [(F(0), F(1, 2)), (F(0), F(1, 6)), (F(1, 2), F(1, 3))]
        stages = [qs[:1], qs[:2]]
        return qs, ns, stages
    if pair.q_kind == QUAD_TORUS:
        d = pair.d
        root = Mat2.of(0, d, 1, 0)  # sqrt(d)
        one_plus = Mat2.of(1, d, 1, 1)  # 1 + sqrt(d)
        qs = [root, one_plus]
        ns = [(F(1, 2), F(0)), (F(1, 3), F(1, 3))]
        stages = [[root], [root, root * root]]
        return qs, ns, stages
    u = pair.p if pair.p is not None else 2
    shear = Mat2.of(1, 1, 0, 1)
    qs = [Mat2.diag(u, 1), Mat2.diag(u * u, u), shear * Mat2.diag(u, 1)]
    ns = [(F(1, u), F(0)), (F(1, u * u), F(1, u))]
    stages = [
        [Mat2.diag(u, 1), Mat2.diag(1, u)],
        [Mat2.diag(u, 1), Mat2.diag(1, u), Mat2.diag(u * u, 1),
         Mat2.diag(1, u * u)],
    ]
    return qs, ns, stages


def _random_h_elements(pair: PairDescriptor, rng: random.Random, count: int):
    gens = pair.h_generators()
    out = [pair.identity()]
    for _ in range(count):
        h = pair.identity()
        for _ in range(rng.randint(1, 6)):
            h = pair.mul(h, rng.choice(gens))
        out.append(h)
    return out


# ---------------------------------------------------------------------------
# commands


@contextlib.contextmanager
def _verdict_on_error(report: Report, name: str, law: str, inputs: dict):
    """Run the block, which adds its own records.  If it hits a bound
    (``BoundReached``), add one inconclusive record under (name, law,
    inputs) and go on after the block; if a certificate fails or an input
    is refused (``CertificateFailed``, ``DetNotAllowed``), one fail record."""
    try:
        yield
    except BoundReached as exc:
        report.add(name, law, inputs, {"error": str(exc)}, "inconclusive")
    except (CertificateFailed, DetNotAllowed) as exc:
        report.add(name, law, inputs, {"error": str(exc)}, "fail")


def cmd_pair_verify(cfg: RunConfig) -> Report:
    report = Report("pair verify", cfg)
    pair = cfg.pair
    rng = random.Random(cfg.seed)
    qs, ns, stages = _default_samples(pair)

    hecke = hecke_indices_report(pair, qs, ns, coset_bound=cfg.coset_enum_max,
                                 conductor_cap=cfg.conductor_max)
    report.extend_from("hecke", hecke)

    law = "conjugate cores shrink strictly along nested stages"
    inputs = {"stages": len(stages)}
    with _verdict_on_error(report, "reduced.tower", law, inputs):
        prev, stage_outputs = None, []
        for stage in stages:
            prev = reduced_stage_report(pair, stage, prev=prev, bound=cfg.coset_enum_max)
            stage_outputs.append({k: str(v) for k, v in prev.items()})
        report.add("reduced.tower", law, inputs, {"stages": stage_outputs},
                   "pass" if prev["verdict"] == "certified" else "inconclusive")

    x_samples = []
    for q in qs[:2]:
        x_samples.append(pair.element((0, 0), q))
    for n in ns[:2]:
        ident_q = Fraction(0) if pair.family == HEISENBERG else Mat2.identity()
        x_samples.append(pair.element(n, ident_q))
    h_samples = _random_h_elements(pair, rng, cfg.sample_count)
    report.extend_from("stabilizer",
                       stabilizer_identities_report(pair, x_samples, h_samples))

    if pair.has_central_scalars:
        report.extend_from("directed", downward_directed_report(pair, qs[:2]))
    return report


def cmd_dcoset(cfg: RunConfig, element_text: str) -> Report:
    report = Report("dcoset", cfg)
    pair = cfg.pair
    x = parse_element(pair, element_text)
    law = "degree and modular function of a double coset"
    inputs = {"element": str(x)}
    with _verdict_on_error(report, "dcoset", law, inputs):
        dc = double_coset(x, cfg.coset_enum_max)
        l_inverse = l_of(pair.inv(x), cfg.coset_enum_max)
        report.add("dcoset", law, inputs, {
            "left_reps": list(dc.left_strs),
            "L": dc.degree,
            "L_inverse": l_inverse,
            "delta": rat_to_str(Fraction(dc.degree, l_inverse)),
            "key": dc.key,
        }, "pass")
    return report


def cmd_hecke_mul(cfg: RunConfig, f_path: str, g_path: str) -> Report:
    report = Report("hecke mul", cfg)
    pair = cfg.pair

    def load(path):
        try:
            with open(path) as fh:
                return HeckeElement.from_json(pair, json.load(fh),
                                              cfg.coset_enum_max)
        except OSError as exc:
            raise ConfigInvalid(f"cannot read element file {path}: {exc}") from exc
        except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                ZeroDivisionError, NotInQ) as exc:
            raise ConfigInvalid(f"bad element file {path}: {exc}") from exc

    f, g = load(f_path), load(g_path)
    inputs = {"f": f.to_json(), "g": g.to_json()}
    with _verdict_on_error(report, "hecke.product", "convolution product",
                           inputs):
        fg = convolve(f, g, cfg.coset_enum_max)
        fs = involution(f, cfg.coset_enum_max)
        gs = involution(g, cfg.coset_enum_max)
        gf = convolve(g, f, cfg.coset_enum_max)
        assoc_lhs = convolve(fg, f, cfg.coset_enum_max)
        assoc_rhs = convolve(f, gf, cfg.coset_enum_max)
        report.add(
            "hecke.product", "convolution product", inputs,
            {"f*g": fg.to_json(), "f^*": fs.to_json(), "g^*": gs.to_json()},
            "pass",
        )
        report.add(
            "hecke.assoc", "(f*g)*f equals f*(g*f)", inputs,
            {"equal": assoc_lhs == assoc_rhs},
            "pass" if assoc_lhs == assoc_rhs else "fail",
        )
    return report


def cmd_tower_build(cfg: RunConfig, seed_text: str | None,
                    stages: int | None) -> Report:
    report = Report("tower build", cfg)
    pair = cfg.pair
    seeds = []
    if seed_text:
        seeds = [parse_matrix(part) for part in seed_text.split(";") if part]
    _require(pair.family == PLANAR, "tower stages are represented with planar "
             f"lattices; family {pair.family!r} is not supported here")
    for q in seeds:
        _require(pair.in_q(q), f"seed {q} is not in Q for {pair!r}")
    prefixes = [seeds[:i] for i in range(len(seeds) + 1)]
    if stages is not None:
        prefixes = prefixes[: stages + 1]
    built = []
    for i, prefix in enumerate(prefixes):
        st = None
        with _verdict_on_error(report, f"tower.stage_{i}", "stage construction",
                               {"seeds": [str(q) for q in prefix]}):
            fam = make_coset_family(pair, prefix, cfg.coset_enum_max)
            # a seed that adds no coset repeats the stage: reuse it
            st = built[-1] if built and fam.reps == built[-1].family.reps else build_stage(
                fam, make_envelope(fam), cfg.conductor_max, cfg.stage_order_max,
                cfg.coset_enum_max)
        if st is None:
            break
        built.append(st)
        inv = verify_stage_invariants(st)
        report.add(
            f"tower.stage_{i}",
            "stage order is the product of its two quotient orders; "
            "core normality and trivial core action hold",
            {"seeds": [str(q) for q in prefix]},
            {**st.summary(), "invariant_checks": inv},
            "pass" if inv["verdict"] == "pass" else "fail",
        )
    maps = [ConnectingMap(built[i], built[i - 1]) for i in range(1, len(built))]
    for i, cm in enumerate(maps, 1):
        cert = cm.verify()
        report.add(
            f"tower.connect_{i}_{i - 1}",
            "stage reduction is a surjective homomorphism",
            {"fine": built[i].summary()["order"],
             "coarse": built[i - 1].summary()["order"]},
            cert,
            "pass" if cert["homomorphism"] and cert["surjective"] else "fail",
        )
    for k in range(2, len(built)):
        fine, coarse = built[k], built[k - 2]
        commutes = triangle_commutes(maps[k - 1], maps[k - 2])
        report.add(
            f"tower.triangle_{k}_{k - 2}",
            "composite of stage reductions equals the direct reduction",
            {"fine": fine.summary()["order"], "coarse": coarse.summary()["order"]},
            {"commutes": commutes},
            "pass" if commutes else "fail",
        )
    return report


def cmd_gl2_decompose(cfg: RunConfig, p: int | None, matrix_text: str) -> Report:
    report = Report("gl2 decompose", cfg)
    _require(p is None or is_prime(p), f"--p {p} is not a prime")
    g = parse_matrix(matrix_text)
    law = "g = t k with t lower triangular and k unimodular"
    inputs = {"matrix": str(g), "p": p}
    with _verdict_on_error(report, "gl2.decompose", law, inputs):
        split = split_padic(g, p) if p is not None else split_global(g)
        outputs = {
            "t": str(split.t),
            "k": str(split.k),
            "reassembles": split.t * split.k == g,
            "det_k": rat_to_str(split.k.det()),
        }
        report.add("gl2.decompose", law, inputs, outputs, "pass")
    return report


def cmd_quad_units(cfg: RunConfig, d: int, modulus: int) -> Report:
    report = Report("quad units", cfg)
    _require(modulus >= 2, f"--mod must be at least 2, got {modulus}")
    law = ("global units map to a (possibly proper) subgroup of the units "
           "of the residue ring")
    inputs = {"d": d, "mod": modulus}
    with _verdict_on_error(report, "quad.units", law, inputs):
        try:
            rep = unit_image_gap(d, modulus, cfg.coset_enum_max)
        except BadDiscriminant as exc:
            raise ConfigInvalid(f"--d {d}: {exc}") from exc
        report.add("quad.units", law, inputs, rep, "pass")
    return report


def cmd_heis_orbit(cfg: RunConfig, modulus: int, z: int, w: int) -> Report:
    report = Report("heis orbit", cfg)
    _require(modulus >= 1, f"--mod must be at least 1, got {modulus}")
    law = "translation orbit of (z, w) is (z, w + zZ) mod s"
    inputs = {"mod": modulus, "z": z, "w": w}
    with _verdict_on_error(report, "heis.orbit", law, inputs):
        orbit = heis_orbit(z, w, modulus, cfg.coset_enum_max)
        report.add("heis.orbit", law, inputs,
                   {"orbit": sorted(map(list, orbit)), "size": len(orbit)},
                   "pass")
    return report


def cmd_slpm(cfg: RunConfig, modulus: int) -> Report:
    report = Report("gl2 slpm", cfg)
    _require(modulus >= 1, f"--mod must be at least 1, got {modulus}")
    law = "unimodular generators fill all det +-1 residues"
    with _verdict_on_error(report, "gl2.slpm", law, {"mod": modulus}):
        rep = slpm_surjectivity(modulus, cfg.coset_enum_max)
        report.add("gl2.slpm", law, {"mod": modulus}, rep,
                   "pass" if rep["match"] else "fail")
    return report


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(parser: argparse.ArgumentParser, rng_seed: bool = True) -> None:
    parser.add_argument("--config", help="pair descriptor JSON file")
    if rng_seed:
        parser.add_argument("--seed", type=int, default=0,
                            help="seed for deterministic sampling")
    parser.add_argument("--bound-cosets", type=int, default=DEFAULT_COSET_BOUND,
                        help="coset enumeration bound")
    parser.add_argument("--conductor-max", type=int, default=DEFAULT_CONDUCTOR_CAP)
    parser.add_argument("--stage-order-max", type=int, default=DEFAULT_ORDER_CAP)
    parser.add_argument("--samples", type=int, default=8)
    parser.add_argument("--out", help="write the JSON-lines report here")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="heckepairs",
        description="exact computations with Hecke pairs of semidirect products",
    )
    sub = top.add_subparsers(dest="command", required=True)

    pair = sub.add_parser("pair", help="pair-level verification")
    pair_sub = pair.add_subparsers(dest="subcommand", required=True)
    verify = pair_sub.add_parser("verify", help="run the verification campaign")
    _add_common(verify)

    dcoset = sub.add_parser("dcoset", help="double coset of one element")
    dcoset.add_argument("--element", required=True,
                        help='element, e.g. "n=(1/2,0);q=[[2,0],[0,1]]"')
    _add_common(dcoset)

    hecke = sub.add_parser("hecke", help="Hecke algebra operations")
    hecke_sub = hecke.add_subparsers(dest="subcommand", required=True)
    mul = hecke_sub.add_parser("mul", help="convolve two elements from JSON files")
    mul.add_argument("--f", required=True)
    mul.add_argument("--g", required=True)
    _add_common(mul)

    tower = sub.add_parser("tower", help="finite completion stages")
    tower_sub = tower.add_subparsers(dest="subcommand", required=True)
    build = tower_sub.add_parser("build", help="build nested stages from seeds")
    build.add_argument("--seed", dest="seed_elements",
                       help='semicolon-separated matrices, e.g. '
                            '"[[2,0],[0,1]];[[4,0],[0,1]]"')
    build.add_argument("--stages", type=int, help="limit the number of stages")
    _add_common(build, rng_seed=False)

    gl2 = sub.add_parser("gl2", help="matrix family computations")
    gl2_sub = gl2.add_subparsers(dest="subcommand", required=True)
    dec = gl2_sub.add_parser("decompose",
                             help="triangular times unimodular splitting")
    dec.add_argument("--p", type=int, help="prime for the p-local splitting")
    dec.add_argument("--matrix", required=True)
    _add_common(dec)
    slpm = gl2_sub.add_parser("slpm", help="finite unimodular image check")
    slpm.add_argument("--mod", type=int, required=True)
    _add_common(slpm)

    quad = sub.add_parser("quad", help="real quadratic unit computations")
    quad_sub = quad.add_subparsers(dest="subcommand", required=True)
    units = quad_sub.add_parser("units", help="unit image in the residue ring")
    units.add_argument("--d", type=int, required=True)
    units.add_argument("--mod", type=int, required=True)
    _add_common(units)

    heis = sub.add_parser("heis", help="Heisenberg family computations")
    heis_sub = heis.add_subparsers(dest="subcommand", required=True)
    orbit = heis_sub.add_parser("orbit", help="translation orbit mod s")
    orbit.add_argument("--mod", type=int, required=True)
    orbit.add_argument("--z", type=int, required=True)
    orbit.add_argument("--w", type=int, required=True)
    _add_common(orbit)

    return top


def _run(args) -> Report:
    pair, source = load_pair(getattr(args, "config", None))
    cfg = RunConfig(
        pair=pair,
        pair_source=source,
        coset_enum_max=args.bound_cosets,
        conductor_max=args.conductor_max,
        stage_order_max=args.stage_order_max,
        sample_count=args.samples,
        seed=getattr(args, "seed", 0),
        out=args.out,
    )
    try:
        if args.command == "pair":
            return cmd_pair_verify(cfg)
        if args.command == "dcoset":
            return cmd_dcoset(cfg, args.element)
        if args.command == "hecke":
            return cmd_hecke_mul(cfg, args.f, args.g)
        if args.command == "tower":
            return cmd_tower_build(cfg, args.seed_elements, args.stages)
        if args.command == "gl2" and args.subcommand == "decompose":
            return cmd_gl2_decompose(cfg, args.p, args.matrix)
        if args.command == "gl2" and args.subcommand == "slpm":
            return cmd_slpm(cfg, args.mod)
        if args.command == "quad":
            return cmd_quad_units(cfg, args.d, args.mod)
        if args.command == "heis":
            return cmd_heis_orbit(cfg, args.mod, args.z, args.w)
        raise ConfigInvalid(f"unknown command {args.command}")
    finally:
        forget_double_cosets(pair)  # break the pair <-> memo cycle now


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: building takes milliseconds, and a parser is a
    # cyclic structure that, rebuilt per call, lingers until a full garbage
    # collection.  Parsing does not change it.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        report = _run(args)
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HeckePairsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report.emit()
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
