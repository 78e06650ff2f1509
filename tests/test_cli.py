import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heckepairs import cli, grouppair, tower
from heckepairs.arith import Mat2, ResidueRing
from heckepairs.cli import main
from heckepairs.cosets import double_coset
from heckepairs.errors import BoundReached, CertificateFailed
from heckepairs.grouppair import PairDescriptor

from test_cosets import corrupt_evaluation
from test_tower import count_listing


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pair_verify_default_passes(capsys):
    code, out, _ = run(capsys, "pair", "verify")
    assert code == 0
    assert "0 fail" in out


def test_pair_verify_heisenberg(capsys, tmp_path):
    cfg = tmp_path / "heis.json"
    cfg.write_text(json.dumps({"family": "heisenberg"}))
    code, out, _ = run(capsys, "pair", "verify", "--config", str(cfg))
    assert code == 0
    assert "0 fail, 0 inconclusive" in out


def test_pair_verify_quad_torus(capsys, tmp_path):
    cfg = tmp_path / "quad.json"
    cfg.write_text(json.dumps({"family": "planar", "Q_kind": "quad_torus",
                               "d": 2}))
    code, out, _ = run(capsys, "pair", "verify", "--config", str(cfg))
    assert code == 0


def test_malformed_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code, _, err = run(capsys, "pair", "verify", "--config", str(cfg))
    assert code == 2
    assert "not valid JSON" in err


def test_bad_family_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"family": "nope"}))
    code, _, err = run(capsys, "pair", "verify", "--config", str(cfg))
    assert code == 2


def test_config_dir_env(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "pair.json"
    cfg.write_text(json.dumps({"family": "heisenberg"}))
    monkeypatch.setenv("HECKEPAIRS_CONFIG_DIR", str(tmp_path))
    code, _, _ = run(capsys, "dcoset", "--config", "pair.json",
                     "--element", "1/2")
    assert code == 0


def test_report_bytes_deterministic(capsys, tmp_path):
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    assert main(["pair", "verify", "--seed", "7", "--out", str(out1)]) == 0
    capsys.readouterr()
    assert main(["pair", "verify", "--seed", "7", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


# sha256 of the stdout of `pair verify --config <name>.json --seed <seed>
# --samples 20`, run from the directory holding the config (its relative
# path is part of the report header)
PAIR_VERIFY_DIGESTS = {
    ("gl2_p2", 0): "d9f27eb6fea7b76e31da9172b31f2f70ceb90235ea5d09dfc52560815c458c28",
    ("gl2_p2", 1): "8e11ba64515661450e51377a0b44e23914e3d5bd92b5ce4f30dafbce3f7fe0f5",
    ("gl2_p3", 0): "e54f79f7faf1ad4ef07bbd3effda8674a82c4162a6217fb6d15b2ac28d5ee7fb",
    ("gl2_p3", 1): "e9f62a2e4d6d222fa588025008136d1eedbbcd2843c24912251c455dd1bd73fb",
    # recorded when this run listed SL+-(2, Z/125), 3,750,000 elements
    ("gl2_p5", 0): "a3e24d261a96c6063615fbaf9b5bcc214eff272e0347d4aa98073daca88ccf9f",
    ("gl2_Q", 0): "6b00c5d056aa6deb800f01cb7af8cff4b3c613dedd407468d289528b611ff91b",
    ("gl2_Q", 1): "b97ea7062d1cf4d39b4e96747e27c7357a3439a1c036b6a5fed9af6e4d315d74",
    ("quad_d2", 0): "b3778e1bf03e77a248dc9122bf052ab3b485e26daf9706092fe70bf6f7e18efd",
    ("quad_d2", 1): "cd8b62cefbeb2040746a9a5e987930d5fc8507d207def59b7d2ccbdf7fb4c574",
    ("heis", 0): "6388c3303a1ca16ccc3d9d50ae7eef7d335caf6fd57b3a7e9dc0790548a66f91",
    ("heis", 1): "68085c2c291519c803348891c3bd4514baf7997cfd9b0afdaae46c132e2f9c1f",
}
PAIR_CONFIGS = {
    "gl2_p2": {"family": "planar", "base_ring": "Z[1/p]", "p": 2, "Q_kind": "full_gl2"},
    "gl2_p3": {"family": "planar", "base_ring": "Z[1/p]", "p": 3, "Q_kind": "full_gl2"},
    "gl2_p5": {"family": "planar", "base_ring": "Z[1/p]", "p": 5, "Q_kind": "full_gl2"},
    "gl2_Q": {"family": "planar", "base_ring": "Q", "Q_kind": "full_gl2"},
    "quad_d2": {"family": "planar", "Q_kind": "quad_torus", "d": 2},
    "heis": {"family": "heisenberg"},
}


@pytest.mark.parametrize("name, seed", sorted(PAIR_VERIFY_DIGESTS))
def test_pair_verify_report_bytes_pinned(capsys, tmp_path, monkeypatch, name, seed):
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.json").write_text(json.dumps(PAIR_CONFIGS[name]))
    extra = ["--conductor-max", "20"] if name == "gl2_p3" else []
    code, out, _ = run(capsys, "pair", "verify", "--config", f"{name}.json",
                       "--seed", str(seed), "--samples", "20", *extra)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == PAIR_VERIFY_DIGESTS[name, seed]


# sha256 of the stdout of each command, run from the directory holding
# gl2_p3.json; the capped chain exits 3 on its order-49,152 stage
TOWER_SLPM_DIGESTS = {
    ("tower", "build", "--seed", "[[2,0],[0,1]];[[1,0],[0,2]]"):
        (0, "62233067d6ba047218d4ef832e17a931999f1bd6895735b68951bff0349c544b"),
    ("tower", "build", "--seed", "[[2,0],[0,1]];[[4,0],[0,1]]",
     "--stage-order-max", "49151"):
        (3, "2c9e2a8a0b323f9e2c962442607608a3f4f8176a9d1c7d9f48cca554daf1c6ad"),
    ("tower", "build", "--config", "gl2_p3.json",
     "--seed", "[[3,0],[0,1]];[[1,0],[0,3]]"):
        (0, "c202d90d44137afbc3ff13ba71de5a5dbb07c7b9e4d79bbc99e30ef533a8ed1f"),
    ("gl2", "slpm", "--mod", "1"):
        (0, "9f884d7235676ecdbbbee09808da30cedc0faa5669402ab0d85b251e7509381c"),
    ("gl2", "slpm", "--mod", "2"):
        (0, "686ee039d37595fefb9177310d55eb033e47a61721eef850a2f5574db9dee17c"),
    ("gl2", "slpm", "--mod", "12"):
        (0, "df0c77626c06475d3f4675b957d0c1f9d115a4475c99c3d9b7ac23144dd9a5a6"),
    ("gl2", "slpm", "--mod", "16"):
        (0, "365557679a48e78d610e6f9c5dcbd19b40fb7c141e485aefab2d71b9b6dbe263"),
    ("gl2", "slpm", "--mod", "40"):
        (0, "d6be898b132e47269f76a237485528f84eebfbf63553e5ef9f4c946ca403a262"),
}


@pytest.mark.parametrize("argv", sorted(TOWER_SLPM_DIGESTS),
                         ids=lambda argv: " ".join(argv[:2] + argv[-2:]))
def test_tower_and_slpm_report_bytes_pinned(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gl2_p3.json").write_text(json.dumps(PAIR_CONFIGS["gl2_p3"]))
    code, out, _ = run(capsys, *argv)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == TOWER_SLPM_DIGESTS[argv]


def test_slpm_above_the_bound_exits_3_without_closing(capsys, monkeypatch):
    # |SL+-(2, Z/41)| = 137,760 exceeds the default bound of 100,000; the
    # stabilizer chain is the one way slpm reaches the image of R
    def boom(*args):
        raise AssertionError("ResidueRing.chain called")

    monkeypatch.setattr(ResidueRing, "chain", boom)
    code, out, _ = run(capsys, "gl2", "slpm", "--mod", "41")
    assert code == 3
    (rec,) = [json.loads(line) for line in out.splitlines()[1:-2]]
    assert rec["verdict"] == "inconclusive" and "137760" in rec["outputs"]["error"]
    code, _, _ = run(capsys, "gl2", "slpm", "--mod", "12", "--bound-cosets", "2303")
    assert code == 3


# sha256 and exit code of `pair verify --config gl2.json` with default flags,
# for gl2 over Z[1/p], recorded when the image of R was still listed by
# closure and the Z[1/97] orbit of (1/9409, 1/97) + M was walked to the bound
LARGE_PRIME_DIGESTS = {
    5: (0, "a89b44f361749026c0536e4512b15f29982f37114ff51cf8027db061ce18a1a4"),
    7: (0, "7041750b82997948e9b25cbb3d770611e27e67d0c244ed0cf70ac0415d479ba8"),
    97: (3, "24e6c076fd75896a7893512bbbde6655326d6d27ad5bc7e88347c37246eba0d0"),
}


@pytest.mark.parametrize("p", sorted(LARGE_PRIME_DIGESTS))
def test_pair_verify_large_primes_without_listing(capsys, tmp_path, monkeypatch, p):
    # the levels reach 125, 343 and 912,673: no chain lists its image of R,
    # and no orbit of n + M, of qR or of e1 (a chain's orbit) is walked up to
    # the bound of 100,000 points (for gl2 the orbits of n + M and e1 have
    # J_2(s) points, compared first)
    listed, walked = 0, []
    chain, closure = ResidueRing.chain, grouppair.closure

    def counting_chain(ring, gens, bound):
        # the chain's orbit walk visits the orbit of e1 up to the bound
        s = ring.modulus
        try:
            walked.append(len(closure(
                (1 % s, 0), lambda x: (ring.vec_apply(g, x) for g in gens), bound, "")))
        except BoundReached:
            walked.append(bound)
        order, member, elements = chain(ring, gens, bound)

        def counted():
            nonlocal listed
            for m in elements:
                listed += 1
                yield m

        return order, member, counted()

    def counting_closure(start, images, bound, message):
        try:
            points = closure(start, images, bound, message)
        except BoundReached:
            walked.append(bound)
            raise
        walked.append(len(points))
        return points

    monkeypatch.setattr(ResidueRing, "chain", counting_chain)
    monkeypatch.setattr(grouppair, "closure", counting_closure)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gl2.json").write_text(json.dumps(
        {"family": "planar", "base_ring": "Z[1/p]", "p": p, "Q_kind": "full_gl2"}))
    code, out, err = run(capsys, "pair", "verify", "--config", "gl2.json")
    assert err == ""
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == LARGE_PRIME_DIGESTS[p]
    assert listed == 0 and walked and max(walked) < 100000


@pytest.mark.parametrize("p, seeds, level, error", [
    (7, "[[49,0],[0,1]]", 2401,
     "stage too large: order at least 553420896 exceeds cap 200000"),
    (2, "[[2,0],[0,1]];[[4,0],[0,1]];[[8,0],[0,1]]", 64,
     "stage too large: order 12582912 exceeds cap 200000"),
    (3, "[[3,0],[0,1]];[[9,0],[0,1]]", 81,
     "stage too large: order 76527504 exceeds cap 200000"),
], ids=["p7-level2401", "p2-level64", "p3-level81"])
def test_tower_rejects_large_stages_without_listing(capsys, tmp_path, monkeypatch,
                                                    p, seeds, level, error):
    # the last stage is sized before any chain walks at its level, and its
    # order is rejected; no residue is listed at any level, as an accepted
    # gl2 stage only certifies the order of its image of R by one chain
    counts = count_listing(monkeypatch)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gl2.json").write_text(json.dumps(
        {"family": "planar", "base_ring": "Z[1/p]", "p": p, "Q_kind": "full_gl2"}))
    code, out, err = run(capsys, "tower", "build", "--config", "gl2.json", "--seed", seeds)
    assert (code, err) == (3, "")
    records = [json.loads(line) for line in out.splitlines()[1:-2]]
    stages = [r for r in records if r["name"].startswith("tower.stage_")]
    assert [r["verdict"] for r in stages] == ["pass"] * (len(stages) - 1) + ["inconclusive"]
    assert stages[-1]["name"] == f"tower.stage_{seeds.count(';') + 1}"
    assert stages[-1]["outputs"] == {"error": error}
    built = [r["outputs"]["level"] for r in stages[:-1]]
    assert counts == {"levels": built, "drawn": 0, "list_group": 0}
    assert level not in built


_LEVEL_64 = ["tower", "build", "--seed", "[[2,0],[0,1]];[[4,0],[0,1]];[[8,0],[0,1]]",
             "--stage-order-max", "20000000"]
_LEVEL_256 = ["tower", "build", "--seed",
              "[[2,0],[0,1]];[[4,0],[0,1]];[[8,0],[0,1]];[[16,0],[0,1]]",
              "--stage-order-max", "4000000000", "--bound-cosets", "200000"]


# sha256 of the stdout: the level-64 bytes were recorded when the stage
# listed its 393,216 residues of SL+-(2, Z/64); the level-256 stage, of
# order 3,221,225,472, could not be built then, and its bytes are recorded
# from the build that lists nothing
@pytest.mark.parametrize("argv, digest", [
    (_LEVEL_64, "c6d1b7d5258ebacddf567c1e6ecc06e0b995599f094416e15e21637b2d789f99"),
    (_LEVEL_256, "7091ba19174b43c44006948e33e36f350a964b89791447a492d361f2442da20b"),
], ids=["level64", "level256"])
def test_tower_builds_large_gl2_stages_without_listing(capsys, monkeypatch, argv, digest):
    counts = count_listing(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, err, hashlib.sha256(out.encode()).hexdigest()) == (0, "", digest)
    records = {r["name"]: r for r in map(json.loads, out.splitlines()[1:-2])}
    top = records[f"tower.stage_{argv[3].count(';') + 1}"]["outputs"]
    assert counts["drawn"] == counts["list_group"] == 0
    assert counts["levels"] == [1, 4, 16, 64, 256][:len(counts["levels"])]
    assert counts["levels"][-1] == top["level"]
    # the core is {1, (1 + L/2) 1} mod L at every level L past 1
    assert top["order"] == top["m_index"] * grouppair.slpm_order(top["level"]) // 2
    if top["level"] == 256:
        assert top["order"] == 3221225472


def test_slpm_above_40_within_the_bound_passes(capsys):
    code, out, _ = run(capsys, "gl2", "slpm", "--mod", "42")
    assert code == 0
    outputs = json.loads(out.splitlines()[1])["outputs"]
    assert outputs["image_size"] == outputs["target_size"] == 96768


def test_heis_orbit_above_the_bound_exits_3(capsys):
    code, out, _ = run(capsys, "heis", "orbit", "--mod", "1000000", "--z", "3",
                       "--w", "1")
    assert code == 3
    (rec,) = [json.loads(line) for line in out.splitlines()[1:-2]]
    assert rec["verdict"] == "inconclusive"
    # z = 500000 has an orbit of two points at the same modulus
    code, out, _ = run(capsys, "heis", "orbit", "--mod", "1000000",
                       "--z", "500000", "--w", "1")
    assert code == 0
    assert json.loads(out.splitlines()[1])["outputs"]["orbit"] == [
        [500000, 1], [500000, 500001]]


@pytest.mark.parametrize("argv", [
    ["tower", "build", "--seed", "[[1,x],[0,1]]"],
    ["tower", "build", "--seed", "[[3,0],[0,1]]"],
    ["gl2", "decompose", "--matrix", "[[1,1/0],[0,1]]"],
    ["dcoset", "--element", "[[3,0],[0,1]]"],
    ["dcoset", "--element", "(1/0,0)"],
    ["hecke", "mul", "--f", "{bad_n}", "--g", "{bad_n}"],
    ["hecke", "mul", "--f", "{bad_coeff}", "--g", "{bad_coeff}"],
    ["hecke", "mul", "--f", "{outside}", "--g", "{outside}"],
], ids=["seed-text", "seed-outside-q", "matrix-zero-den", "element-outside-g",
        "vector-zero-den", "element-file-n", "element-file-coeff",
        "element-file-outside-g"])
def test_bad_cli_input_exits_2(capsys, tmp_path, argv):
    # over the default Z[1/2]: det 3 is not a unit, so [[3,0],[0,1]] is
    # outside G; bad input is a usage error, never a traceback
    terms = {
        "bad_n": ({"n": ["1/0", "0"], "q": [["2", "0"], ["0", "1"]]}, "1"),
        "bad_coeff": ({"n": ["0", "0"], "q": [["2", "0"], ["0", "1"]]}, "x"),
        "outside": ({"n": ["0", "0"], "q": [["3", "0"], ["0", "1"]]}, "1"),
    }
    paths = {}
    for key, (rep, coeff) in terms.items():
        paths[key] = str(tmp_path / f"{key}.json")
        Path(paths[key]).write_text(json.dumps({"terms": [{"rep": rep, "coeff": coeff}]}))
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""


def test_gl2_decompose_failure_reports_the_parsed_matrix(capsys):
    # the fail record names the matrix as parsed, like the pass record
    code, out, _ = run(capsys, "gl2", "decompose", "--p", "2",
                       "--matrix", "[[6/2, 0], [0, 1]]")
    assert code == 1
    record = json.loads(out.splitlines()[1])
    assert record["verdict"] == "fail"
    assert record["inputs"] == {"matrix": "[[3,0],[0,1]]", "p": 2}


@pytest.mark.parametrize("key, value", [
    ("M_basis", [["1", "0"], ["0", "2"]]),
    ("R_generators", [[["1", "1"], ["0", "1"]], [["1", "0"], ["2", "1"]]]),
])
def test_custom_m_or_r_config_exits_2(capsys, tmp_path, key, value):
    cfg = tmp_path / "custom.json"
    cfg.write_text(json.dumps({"family": "planar", "base_ring": "Z[1/p]", "p": 2,
                               "Q_kind": "full_gl2", key: value}))
    code, out, err = run(capsys, "dcoset", "--config", str(cfg),
                         "--element", "[[2,0],[0,1]]")
    assert code == 2
    assert "not supported" in err and out == ""


@pytest.mark.parametrize("argv", [
    ["gl2", "slpm", "--mod", "0"],
    ["heis", "orbit", "--mod", "0", "--z", "1", "--w", "1"],
    ["quad", "units", "--d", "2", "--mod", "1"],
    ["quad", "units", "--d", "5", "--mod", "17"],
    ["gl2", "decompose", "--p", "4", "--matrix", "[[1,1/2],[0,1]]"],
], ids=["slpm-mod-0", "heis-mod-0", "quad-mod-1", "quad-d-5", "decompose-p-4"])
def test_out_of_range_arguments_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def test_dcoset_identity(capsys):
    code, out, _ = run(capsys, "dcoset", "--element", "(0,0)")
    assert code == 0
    record = json.loads(out.splitlines()[1])
    assert record["outputs"]["L"] == 1
    assert record["outputs"]["delta"] == "1"


def test_dcoset_diag2(capsys):
    code, out, _ = run(capsys, "dcoset", "--element", "[[2,0],[0,1]]")
    assert code == 0
    record = json.loads(out.splitlines()[1])
    assert record["outputs"]["L"] == 6
    assert record["outputs"]["L_inverse"] == 3
    assert record["outputs"]["delta"] == "2"
    assert len(record["outputs"]["left_reps"]) == 6


def test_dcoset_pure_translation(capsys):
    code, out, _ = run(capsys, "dcoset", "--element", "(1/2,0)")
    assert code == 0
    record = json.loads(out.splitlines()[1])
    assert record["outputs"]["L"] == 3


def test_dcoset_bound_inconclusive(capsys):
    code, out, _ = run(capsys, "dcoset", "--element", "[[4,0],[0,1]]",
                       "--bound-cosets", "3")
    assert code == 3


def test_dcoset_bad_element(capsys):
    code, _, err = run(capsys, "dcoset", "--element", "garbage")
    assert code == 2


def test_hecke_mul_unit(capsys, tmp_path):
    unit = {"terms": [{"rep": {"n": ["0", "0"], "q": [["1", "0"], ["0", "1"]]},
                       "coeff": "1"}]}
    f = {"terms": [{"rep": {"n": ["0", "0"], "q": [["2", "0"], ["0", "1"]]},
                    "coeff": "1"}]}
    fp, gp = tmp_path / "f.json", tmp_path / "g.json"
    fp.write_text(json.dumps(f))
    gp.write_text(json.dumps(unit))
    code, out, _ = run(capsys, "hecke", "mul", "--f", str(fp), "--g", str(gp))
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()[1:-2]]
    by_name = {r["name"]: r for r in records}
    prod = by_name["hecke.product"]["outputs"]["f*g"]
    assert prod == by_name["hecke.product"]["inputs"]["f"]
    assert by_name["hecke.assoc"]["outputs"]["equal"] is True


def test_hecke_mul_self(capsys, tmp_path):
    f = {"terms": [{"rep": {"n": ["0", "0"], "q": [["2", "0"], ["0", "1"]]},
                    "coeff": "1"}]}
    fp = tmp_path / "f.json"
    fp.write_text(json.dumps(f))
    code, out, _ = run(capsys, "hecke", "mul", "--f", str(fp), "--g", str(fp))
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()[1:-2]]
    by_name = {r["name"]: r for r in records}
    assert len(by_name["hecke.product"]["outputs"]["f*g"]["terms"]) >= 2


def test_hecke_mul_certificate_failure_is_a_fail_record(capsys, tmp_path,
                                                        monkeypatch):
    pair = PairDescriptor.planar_gl2(p=2)
    dc = double_coset(pair.element((0, 0), Mat2.diag(2, 1)))
    # one wrong product y_i^-1 z, at the left coset z where the output
    # H.diag(1,4).H of f*f is evaluated, breaks the spot check of f*f
    z = double_coset(pair.element((0, 0), Mat2.diag(1, 4))).rep
    corrupt_evaluation(pair, dc, dc, z)
    monkeypatch.setattr(cli, "load_pair", lambda path: (pair, "test pair"))
    f = {"terms": [{"rep": {"n": ["0", "0"], "q": [["2", "0"], ["0", "1"]]},
                    "coeff": "1"}]}
    fp = tmp_path / "f.json"
    fp.write_text(json.dumps(f))
    code, out, _ = run(capsys, "hecke", "mul", "--f", str(fp), "--g", str(fp))
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()[1:-2]]
    (rec,) = records
    assert rec["name"] == "hecke.product" and rec["verdict"] == "fail"
    assert "not constant" in rec["outputs"]["error"]
    assert not pair._dcosets  # the command empties the memo when it ends


def test_tower_family_above_the_bound_is_inconclusive(capsys, tmp_path):
    # diag(2,1) over Z[1/2] has a family of 4 cosets: R and the 3 of diag(2,1)R
    cfg = tmp_path / "gl2.json"
    cfg.write_text(json.dumps({"family": "planar", "base_ring": "Z[1/p]", "p": 2,
                               "Q_kind": "full_gl2"}))
    argv = ["tower", "build", "--config", str(cfg), "--seed", "[[2,0],[0,1]]"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    records = {r["name"]: r for r in map(json.loads, out.splitlines()[1:-2])}
    assert records["tower.stage_1"]["outputs"]["cosets_in_family"] == 4
    code, out, _ = run(capsys, *argv, "--bound-cosets", "3")
    assert code == 3
    stage0, stage1 = [json.loads(line) for line in out.splitlines()[1:-2]]
    assert (stage0["name"], stage0["verdict"]) == ("tower.stage_0", "pass")
    assert stage1 == {"inputs": {"seeds": ["[[2,0],[0,1]]"]}, "law": "stage construction",
                      "name": "tower.stage_1",
                      "outputs": {"error": "coset family exceeded 3 cosets"},
                      "verdict": "inconclusive"}


def test_tower_empty_seed(capsys):
    code, out, _ = run(capsys, "tower", "build")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()[1:-2]]
    assert len(records) == 1
    assert records[0]["outputs"]["order"] == 1


def test_tower_two_stages(capsys):
    code, out, _ = run(capsys, "tower", "build", "--seed",
                       "[[2,0],[0,1]];[[4,0],[0,1]]")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()[1:-2]]
    by_name = {r["name"]: r for r in records}
    for name, rec in by_name.items():
        if name.startswith("tower.stage_"):
            o = rec["outputs"]
            assert o["order"] == o["m_index"] * o["r_index"]
    assert by_name["tower.connect_2_1"]["outputs"]["surjective"] is True
    assert by_name["tower.triangle_2_0"]["outputs"]["commutes"] is True


def test_tower_builds_each_connecting_map_once(capsys, monkeypatch):
    # three stages: connect_1_0 and connect_2_1, reused by the triangle,
    # which builds only the direct map 2 -> 0
    built = []
    init = tower.ConnectingMap.__init__

    def counted(self, fine, coarse):
        built.append((fine.order, coarse.order))
        init(self, fine, coarse)

    monkeypatch.setattr(tower.ConnectingMap, "__init__", counted)
    code, _, _ = run(capsys, "tower", "build", "--seed", "[[2,0],[0,1]];[[4,0],[0,1]]")
    assert code == 0 and len(built) == len(set(built)) == 3


def test_tower_reuses_a_repeated_stage(capsys, tmp_path, monkeypatch):
    # over Z[1/3], diag(1,3) lies in the double coset of diag(3,1) and adds
    # no coset: stage 2 is stage 1, reused, so two stages are built, not
    # three, and the report keeps its pinned bytes
    argv = ("tower", "build", "--config", "gl2_p3.json",
            "--seed", "[[3,0],[0,1]];[[1,0],[0,3]]")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gl2_p3.json").write_text(json.dumps(PAIR_CONFIGS["gl2_p3"]))
    built = []
    build = cli.build_stage

    def counted(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(cli, "build_stage", counted)
    code, out, _ = run(capsys, *argv)
    assert [len(st.family.reps) for st in built] == [1, 5]
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == TOWER_SLPM_DIGESTS[argv]
    records = {r["name"]: r for r in map(json.loads, out.splitlines()[1:-2])}
    assert records["tower.stage_2"]["outputs"] == records["tower.stage_1"]["outputs"]
    assert records["tower.connect_2_1"]["outputs"]["kernel_size"] == 1


def test_tower_rebuilds_a_family_of_the_same_size(capsys, monkeypatch):
    # a stage is reused only for an equal family: here stage 2 gets the
    # family of diag(4,2), whose 4 cosets are not those of diag(2,1)
    family = cli.make_coset_family

    def swapped(pair, prefix, bound):
        return family(pair, [Mat2.diag(4, 2)] if len(prefix) == 2 else prefix, bound)

    built = []
    build = cli.build_stage

    def counted(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(cli, "make_coset_family", swapped)
    monkeypatch.setattr(cli, "build_stage", counted)
    code, out, _ = run(capsys, "tower", "build", "--seed", "[[2,0],[0,1]];[[1,0],[0,2]]")
    assert code == 0
    assert [(len(st.family.reps), st.order) for st in built] == [(1, 1), (4, 192), (4, 6144)]


def test_tower_residue_core_certificate_failure_is_a_fail_record(capsys,
                                                                monkeypatch):
    solve = tower.column_solutions

    def without_identity(pair, s, conditions, bound):
        # the solver's class of first column (1, 0) whose first solution is
        # the identity is dropped (at level 4 it holds the identity alone)
        return (sol for sol in solve(pair, s, conditions, bound)
                if sol[:4] != (1, 0, 0, 1))

    # a residue core without the identity is not a subgroup
    monkeypatch.setattr(tower, "column_solutions", without_identity)
    code, out, _ = run(capsys, "tower", "build", "--seed", "[[2,0],[0,1]]")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()[1:-2]]
    assert [(r["name"], r["verdict"]) for r in records] == [
        ("tower.stage_0", "pass"), ("tower.stage_1", "fail")]
    assert records[1]["outputs"] == {
        "error": "residue subgroup must contain the identity"}


def _matches_under_python_O(argv, tmp_path, capsys):
    """Run argv in-process and in a ``python -O`` subprocess; return both
    exit codes after checking that the report bytes are equal."""
    out_in, out_o = tmp_path / "in.jsonl", tmp_path / "o.jsonl"
    code = main(argv + ["--out", str(out_in)])
    capsys.readouterr()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "heckepairs.cli", *argv, "--out", str(out_o)],
        env=env, capture_output=True, timeout=120,
    )
    assert out_o.read_bytes() == out_in.read_bytes()
    return code, proc.returncode


def test_tower_build_under_python_O_matches(capsys, tmp_path):
    # the stage certificates are explicit checks, so they also run with
    # assert statements stripped; the report must not change
    for argv in (["tower", "build", "--seed", "[[2,0],[0,1]]"], _LEVEL_64):
        assert _matches_under_python_O(argv, tmp_path, capsys) == (0, 0)


@pytest.mark.parametrize("argv", [
    ["pair", "verify"],
    ["gl2", "decompose", "--p", "2", "--matrix", "[[1,1/2],[0,1]]"],
    ["dcoset", "--element", "[[16,0],[0,1]]"],
    ["hecke", "mul", "--f", "{f}", "--g", "{f}"],
    ["gl2", "slpm", "--mod", "12"],
], ids=["pair-verify", "gl2-decompose", "dcoset", "hecke-mul", "gl2-slpm"])
def test_certificates_under_python_O_match(capsys, tmp_path, argv):
    # index, lattice, splitting, left-coset count and convolution
    # certificates are explicit checks too
    f = {"terms": [
        {"rep": {"n": ["0", "0"], "q": [["2", "0"], ["0", "1"]]}, "coeff": "3/2"},
        {"rep": {"n": ["1/2", "0"], "q": [["1", "0"], ["0", "1"]]}, "coeff": "-2"}]}
    fp = tmp_path / "f.json"
    fp.write_text(json.dumps(f))
    argv = [a.format(f=fp) for a in argv]
    assert _matches_under_python_O(argv, tmp_path, capsys) == (0, 0)


def test_commands_leave_no_cyclic_garbage(capsys, tmp_path):
    # a reference cycle left by a job lives until a full collection and
    # raises the peak memory of a process that runs many jobs
    f = {"terms": [{"rep": {"n": ["0", "0"], "q": [["2", "0"], ["0", "1"]]},
                    "coeff": "1"}]}
    fp = tmp_path / "f.json"
    fp.write_text(json.dumps(f))
    commands = [
        ["dcoset", "--element", "[[2,0],[0,1]]"],
        ["hecke", "mul", "--f", str(fp), "--g", str(fp)],
        ["tower", "build", "--seed", "[[2,0],[0,1]]"],
        ["pair", "verify"],
    ]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in commands:
            assert main(argv) == 0
            capsys.readouterr()
            assert gc.collect() == 0, argv
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_tower_rejects_heisenberg_config(capsys, tmp_path):
    cfg = tmp_path / "heis.json"
    cfg.write_text(json.dumps({"family": "heisenberg"}))
    for seed in (["--seed", "[[2,0],[0,1]]"], []):
        code, out, err = run(capsys, "tower", "build", "--config", str(cfg), *seed)
        # a pair outside the planar model is a configuration error
        assert code == 2 and out == ""
        assert "family 'heisenberg' is not supported" in err


def test_gl2_decompose_examples(capsys):
    code, out, _ = run(capsys, "gl2", "decompose", "--p", "2",
                       "--matrix", "[[1,1/2],[0,1]]")
    assert code == 0
    record = json.loads(out.splitlines()[1])
    assert record["outputs"]["t"] == "[[1/2,0],[1,2]]"
    assert record["outputs"]["k"] == "[[2,1],[-1,0]]"


def test_gl2_decompose_global(capsys):
    code, out, _ = run(capsys, "gl2", "decompose",
                       "--matrix", "[[1,1/6],[0,1]]")
    assert code == 0


def test_gl2_decompose_rejects_bad_det(capsys):
    code, out, _ = run(capsys, "gl2", "decompose", "--p", "2",
                       "--matrix", "[[3,0],[0,1]]")
    assert code == 1


def test_quad_units_cli(capsys):
    code, out, _ = run(capsys, "quad", "units", "--d", "2", "--mod", "17")
    assert code == 0
    record = json.loads(out.splitlines()[1])
    assert record["outputs"]["proper"] is True
    assert record["outputs"]["full_size"] == 256
    assert record["outputs"]["image_size"] == 16


@pytest.mark.parametrize("argv, mod, bound", [
    (["--mod", "17", "--bound-cosets", "288"], 17, 288),
    (["--mod", "317"], 317, 100000),  # 317^2 = 100,489 pairs
], ids=["mod-17", "mod-317-default-bound"])
def test_quad_units_above_the_bound_is_inconclusive(capsys, argv, mod, bound):
    code, out, _ = run(capsys, "quad", "units", "--d", "2", *argv)
    assert code == 3
    (rec,) = [json.loads(line) for line in out.splitlines()[1:-2]]
    assert (rec["name"], rec["verdict"]) == ("quad.units", "inconclusive")
    assert rec["outputs"] == {
        "error": f"{mod * mod} residue pairs mod {mod} exceed the bound {bound}"}


def test_heis_orbit_cli(capsys):
    code, out, _ = run(capsys, "heis", "orbit", "--mod", "6", "--z", "2",
                       "--w", "1")
    assert code == 0
    record = json.loads(out.splitlines()[1])
    assert record["outputs"]["orbit"] == [[2, 1], [2, 3], [2, 5]]


def test_family_certificate_failure_is_a_fail_record(capsys, monkeypatch):
    def broken(*args):
        raise CertificateFailed("broken certificate")

    monkeypatch.setattr(cli, "unit_image_gap", broken)
    monkeypatch.setattr(cli, "heis_orbit", broken)
    for argv, name in ((["quad", "units", "--d", "2", "--mod", "17"], "quad.units"),
                       (["heis", "orbit", "--mod", "6", "--z", "2", "--w", "1"],
                        "heis.orbit")):
        code, out, _ = run(capsys, *argv)
        assert code == 1
        (rec,) = [json.loads(line) for line in out.splitlines()[1:-2]]
        assert rec["name"] == name and rec["verdict"] == "fail"
        assert rec["outputs"] == {"error": "broken certificate"}


def test_usage_error_exit_2(capsys):
    assert main(["bogus"]) == 2
