"""Output checks and certificate scoring for the benchmark's maxlab runs.

A run counts as ok when the command exited 0, printed ``<command>: PASS``,
wrote every table its workload expects with the expected content, and
every CSV is byte-identical to the first run of the same invocation.

The certificate score is taken from outside the program: the
``verify-semigroup`` ensemble is rebuilt through the public
``build_ensemble`` from the config echoed in the manifest, each member's
spectrum is computed independently with ``numpy.linalg.eigvalsh`` on the
symmetrised matrix ``D^(1/2) L D^(-1/2)``, and every sector row's
``norm_lb`` at p = 2 is compared with the exact norm
``max_k |exp(-z lambda_k)|`` of the mu-normal operator ``exp(-z L)``.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import json
import math
import os

import numpy as np

# Nodes whose exact norm is below this are scored separately (``gap_tiny``):
# there the Boyd stop test's absolute 1e-15 term dominates the relative gap.
TINY_NORM = 1e-3
# A lower bound may exceed the exact norm only by roundoff.
LB_SLACK = 1e-9

SUITE_CRITERIA = 12


def csv_digests(prefix: str) -> dict:
    """sha256 of every ``<prefix>.<table>.csv``, keyed by table name."""
    digests = {}
    for path in sorted(glob.glob(glob.escape(prefix) + ".*.csv")):
        table = path[len(prefix) + 1:-len(".csv")]
        with open(path, "rb") as handle:
            digests[table] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def csv_bytes(prefix: str) -> int:
    return sum(os.path.getsize(p) for p in glob.glob(glob.escape(prefix) + ".*.csv"))


def read_table(prefix: str, table: str) -> list:
    with open(f"{prefix}.{table}.csv", newline="", encoding="ascii") as handle:
        return list(csv.DictReader(handle))


def read_json(path: str) -> dict:
    with open(path, encoding="ascii") as handle:
        return json.load(handle)


def exact_spectra(config: dict) -> list:
    """Eigenvalues of each ensemble member, computed apart from maxlab's solver."""
    from maxlab.semigroup import EnsembleSpec, build_ensemble

    ens = config["ensemble"]
    spec = EnsembleSpec(n=int(ens["n"]), count=int(ens["count"]), kind=str(ens["kind"]),
                        c=float(ens["c"]))
    spectra = []
    for member_seed, gen in build_ensemble(spec, int(config["seed"])):
        s = np.sqrt(gen.space.mu)
        m = (s[:, None] * np.asarray(gen.matrix)) / s[None, :]
        spectra.append((member_seed, np.linalg.eigvalsh(0.5 * (m + m.T))))
    return spectra


def score_sector(rows, spectra) -> dict:
    """Relative gaps ``(exact - lb) / exact`` of the p = 2 sector lower bounds.

    ``rows`` are the sector CSV rows as dicts; ``spectra`` is a list of
    ``(member_seed, eigenvalues)``.  Returns ``cert_gap`` (max gap over
    nodes with exact norm >= TINY_NORM), ``gap_tiny`` (max gap below it),
    the node counts, and ``violations``: rows whose bound exceeds the exact
    norm, or whose seed does not match the rebuilt member.
    """
    gaps, tiny, violations = [], [], 0
    for row in rows:
        if float(row["p"]) != 2.0:
            continue
        member_seed, lam = spectra[int(row["trial"])]
        if int(row["seed"]) != member_seed:
            violations += 1
            continue
        z = complex(float(row["z_re"]), float(row["z_im"]))
        exact = float(np.abs(np.exp(-z * lam)).max())
        lb = float(row["norm_lb"])
        if not (math.isfinite(lb) and lb <= exact * (1.0 + LB_SLACK)):
            violations += 1
            continue
        (gaps if exact >= TINY_NORM else tiny).append((exact - lb) / exact)
    return {
        "cert_gap": max(gaps, default=0.0),
        "gap_tiny": max(tiny, default=0.0),
        "nodes": len(gaps),
        "tiny_nodes": len(tiny),
        "violations": violations,
    }


def check_sector_probe(prefix: str) -> tuple[list, dict]:
    """Problems with a ``verify-semigroup`` output set, and its certificate score."""
    manifest = read_json(prefix + ".manifest.json")
    config = manifest["config"]
    contraction = read_table(prefix, "contraction")
    sector = read_table(prefix, "sector")
    problems = []
    if not manifest.get("passed"):
        problems.append("manifest says FAIL")
    if len(contraction) != int(config["ensemble"]["count"]) or \
            not all(row["pass"] == "true" for row in contraction):
        problems.append("contraction table incomplete or failing")
    probed = int(manifest["details"]["probed_members"])
    nodes = int(config["grids"]["n_radii"]) * int(config["grids"]["n_angles"])
    if len(sector) != probed * nodes * len(config["exponents"]["p"]):
        problems.append(f"sector table has {len(sector)} rows")
    score = score_sector(sector, exact_spectra(config))
    if score["violations"]:
        problems.append(f"{score['violations']} sector rows above the exact norm")
    if any(float(row["norm_lb"]) > 1.0 + 1e-9 for row in sector):
        problems.append("a sector lower bound exceeds 1")
    return problems, score


def check_suite(prefix: str) -> list:
    summary = read_json(prefix + ".summary.json")
    passed = [entry["passed"] for entry in summary["criteria"].values()]
    if not summary.get("passed") or len(passed) != SUITE_CRITERIA or not all(passed):
        return [f"summary shows {sum(passed)}/{len(passed)} criteria passed"]
    return []


def check_maximal(prefix: str) -> list:
    manifest = read_json(prefix + ".manifest.json")
    rows = read_table(prefix, "cemp")
    d_list = [int(d) for d in manifest["config"]["exponents"]["d"]]
    problems = []
    if not manifest.get("passed"):
        problems.append("manifest says FAIL")
    if [int(row["d"]) for row in rows] != d_list or \
            not all(0.0 < float(row["c_emp"]) < math.inf for row in rows):
        problems.append("cemp table incomplete or not positive")
    return problems


def check_output(kind: str, prefix: str) -> tuple[list, dict | None]:
    """Problems found in one run's artifacts; the sector score when there is one."""
    try:
        if kind == "suite":
            return check_suite(prefix), None
        if kind == "sector":
            return check_sector_probe(prefix)
        return check_maximal(prefix), None
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], None
