"""Rebuild bench/reference.json from the program in src/.

    python3 bench/make_reference.py

Records, for the reference seed, the sha256 of every job's report; for
every base job, the digest of its seed-invariant outputs; and for the
algebra pool, the canonical representatives, the products of single
characteristic functions and their involutions.  The invariant digests are
taken under two seeds and must agree, which checks that the seed only picks
equivalent inputs.  The report bytes are part of the CLI contract, so a
rebuild is needed only when that contract changes on purpose.
"""

from __future__ import annotations

import json
import os
import sys

import checks
import run
from workloads import _ALGEBRA_BASE, _ALGEBRA_POOL, WORK_DIR, WORKLOADS, config_path, \
    make_jobs, rep_json, write_inputs

CHECK_SEED = 1


def _report(main, argv) -> str:
    _, code, text, error = run.run_job(main, argv)
    if error is not None or code not in (0, 3):
        raise SystemExit(f"{argv} failed: exit {code}, {error}")
    return text


def _workload_reference(main, workload):
    reports, invariants = None, {}
    for seed in (checks.REFERENCE_SEED, CHECK_SEED):
        jobs, files, _ = make_jobs(workload, seed)
        write_inputs(files)
        texts = [_report(main, job.argv) for job in jobs]
        if seed == checks.REFERENCE_SEED:
            reports = [checks.sha256(t) for t in texts]
        for job, text in zip(jobs, texts):
            digest = checks.invariant_digest(job, checks.parse_report(text)[0])
            if digest is None:
                continue
            if invariants.setdefault(job.base, digest) != digest:
                raise SystemExit(f"{workload} {job.base}: outputs depend on the seed")
    return reports, invariants


def _unit_file(name: str) -> str:
    path = f"{WORK_DIR}/algebra/unit_{name}.json"
    with open(path, "w") as fh:
        json.dump({"terms": [{"rep": rep_json(*_ALGEBRA_POOL[name]), "coeff": "1"}]}, fh)
    return path


def _algebra_reference(main):
    """Products T_a * T_b and involutions of unit characteristic functions."""
    canon, products, stars = {}, {}, {}
    pairs = {(a, b) for f, g in _ALGEBRA_BASE for a in f for b in g}
    for a, b in sorted(pairs):
        argv = ["hecke", "mul", "--f", _unit_file(a), "--g", _unit_file(b)]
        cfg = _ALGEBRA_POOL[a][0]
        if cfg != "gl2_p2":
            argv += ["--config", config_path(cfg)]
        records = checks.parse_report(_report(main, argv))[0]
        prod = next(r for r in records if r["name"] == "hecke.product")
        for name, side, star in ((a, "f", "f^*"), (b, "g", "g^*")):
            canon[name] = json.dumps(prod["inputs"][side]["terms"][0]["rep"],
                                     sort_keys=True)
            stars[name] = {json.dumps(t["rep"], sort_keys=True): t["coeff"]
                           for t in prod["outputs"][star]["terms"]}
        products[f"{a}*{b}"] = {json.dumps(t["rep"], sort_keys=True): t["coeff"]
                                for t in prod["outputs"]["f*g"]["terms"]}
    return {"canon": canon, "products": products, "stars": stars}


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    _, cli = run.import_program()
    write_inputs({})
    reference = {"seed": checks.REFERENCE_SEED, "reports": {}, "invariants": {}}
    for workload in WORKLOADS:
        reports, invariants = _workload_reference(cli.main, workload)
        reference["reports"][workload] = reports
        reference["invariants"][workload] = invariants
        print(f"{workload}: {len(reports)} jobs, {len(invariants)} invariant digests")
    reference["algebra"] = _algebra_reference(cli.main)
    with open(os.path.join(run.BENCH_DIR, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
