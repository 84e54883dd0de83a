"""The three benchmark workloads: what each runs and how its outputs are checked.

Every workload drives ``wrsp`` only through its public functions.  Running
a workload returns one observation per operation; checking compares each
observation against ``goldens.json`` (captured at the seed commit) or, for
inputs made from the benchmark seed, against an exact identity.

An operation is one CLI command, one claim at one level, one series export
or one density target.  It fails when it raises, exits non-zero, returns a
claim that is not passed, or produces output that does not check.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(HERE, "goldens.json")

WORKLOADS = ("cli-k123", "claims-k4", "density-k4")

# levels whose contexts each workload builds; their construction is set-up
LEVELS = {
    "cli-k123": (1, 2, 3),
    "claims-k4": (1, 2, 3, 4),
    "density-k4": (1, 2, 3, 4),
}

SERIES_KINDS = ("gamma", "lowerp", "frattini", "dimension", "power", "m")
DENSITY_K4_KINDS = ("gamma", "lowerp", "frattini", "dimension", "m")
SEEDED_TARGETS = 10


def wrsp_module(name: str):
    """A ``wrsp`` submodule.  Functions are looked up on it at call time so
    that the tracer's wrappers are the ones called."""
    return importlib.import_module(f"wrsp.{name}")


def _digest(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode("ascii")).hexdigest()[:16]


def _series_rows(rows) -> list:
    return [{"i": r["i"], "log_order": r["log_order"], "layer_shape": r["layer_shape"],
             "igs": _digest(r["igs"])} for r in rows]


def _rows_match(got: list, want: list) -> str | None:
    """None when the rows agree with the golden rows, else a reason.

    A golden layer shape "uncomputed" is an abelian layer the seed's coset
    census was too small for; any shape whose log equals the layer's log
    order is accepted there, and so is no shape."""
    if len(got) != len(want):
        return f"{len(got)} rows, golden has {len(want)}"
    for n, (g, w) in enumerate(zip(got, want)):
        for key in ("i", "log_order", "igs"):
            if g[key] != w[key]:
                return f"row {w['i']}: {key} differs"
        shape, golden = g["layer_shape"], w["layer_shape"]
        if golden == "nonabelian":
            ok = shape is None
        elif golden == "uncomputed":
            layer_log = w["log_order"] - (want[n + 1]["log_order"] if n + 1 < len(want) else 0)
            ok = shape is None or sum(q.bit_length() - 1 for q in shape) == layer_log
        else:
            ok = shape == golden
        if not ok:
            return f"row {w['i']}: layer_shape {shape}, golden {golden}"
    return None


def _operation(run) -> dict:
    """The observation ``run()`` returns, or the exception it raised: a
    crashed operation is a failed operation."""
    try:
        return run()
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- cli-k123 -----------------------------------------------------------------

def cli_commands() -> list[tuple[str, list[str]]]:
    """(operation name, argv without --out) for every CLI command at k = 1..3."""
    cmds = []
    for k in (1, 2, 3):
        ks = ["--k", str(k)]
        kinds = [kind for kind in SERIES_KINDS if kind != "power" or k <= 2]
        cmds.append((f"verify-k{k}", ["verify", *ks, "--all", "--format", "json"]))
        for kind in kinds:
            cmds.append((f"series-k{k}-{kind}", ["series", *ks, "--kind", kind]))
        for kind in kinds:
            cmds.append((f"density-k{k}-{kind}-Z",
                         ["density", *ks, "--kind", kind, "--target", "Z"]))
        cmds.append((f"export-presentation-k{k}", ["export-presentation", *ks, "--check"]))
    cmds.append(("oracle", ["oracle"]))
    return cmds


def run_cli_k123(seed: int, work: str) -> dict:
    main = wrsp_module("cli").main
    results = {}
    for name, argv in cli_commands():
        path = os.path.join(work, name + ".out")
        results[name] = _operation(lambda: {"code": main([*argv, "--out", path]),
                                            "path": path})
    return results


def observe_cli(name: str, path: str):
    """The checked content of one command's output file."""
    kind = name.split("-k")[0]
    if kind == "verify":
        with open(path, encoding="ascii") as fh:
            reports = json.load(fh)
        return sorted(r["claim_id"] for r in reports if r["status"] in ("pass", "sandwich-only"))
    if kind == "series":
        with open(path, encoding="ascii") as fh:
            return _series_rows(json.load(fh))
    if kind == "density":
        with open(path, encoding="ascii") as fh:
            return [[p["i"], p["num"], p["den"]] for p in json.load(fh)["points"]]
    return _file_digest(path)


def check_cli_k123(results: dict, goldens: dict) -> dict:
    failures = {}
    golden = goldens["cli-k123"]
    for name, _ in cli_commands():
        res = results.get(name)
        if res is None:
            failures[name] = "not run"
        elif "error" in res:
            failures[name] = res["error"]
        elif res["code"] != 0:
            failures[name] = f"exit code {res['code']}"
        else:
            try:
                got = observe_cli(name, res["path"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                failures[name] = f"unreadable output: {exc}"
                continue
            if name.startswith("series-"):
                why = _rows_match(got, golden[name])
            else:
                why = None if got == golden[name] else "output differs from golden"
            if why:
                failures[name] = why
    return failures


# -- claims-k4 ----------------------------------------------------------------

def run_claims_k4(seed: int, work: str, claim_ids=None) -> dict:
    claims = wrsp_module("claims")
    if claim_ids is None:
        claim_ids = load_goldens()["claims-k4"]

    def run_claim(cid):
        (res,) = claims.run_claims(4, [cid])
        return {"claim_id": res.claim_id, "passed": bool(res.passed),
                "summary": str(res.details.get("summary", ""))}

    return {cid: _operation(lambda: run_claim(cid)) for cid in claim_ids}


def check_claims_k4(results: dict, goldens: dict) -> dict:
    failures = {}
    for cid in goldens["claims-k4"]:
        res = results.get(cid)
        if res is None:
            failures[cid] = "not run"
        elif "error" in res:
            failures[cid] = res["error"]
        elif res["claim_id"] != cid or not res["passed"]:
            failures[cid] = f"not passed: {res['summary']}"
    return failures


# -- density-k4 ---------------------------------------------------------------

def seeded_masks(seed: int, d: int) -> list[list[int]]:
    """Central masks for the seeded targets; target j has 1 + j % 3 seeds."""
    rng = random.Random(seed)
    return [[rng.getrandbits(d) for _ in range(1 + j % 3)] for j in range(SEEDED_TARGETS)]


def run_density_k4(seed: int, work: str) -> dict:
    engine, subgroup = wrsp_module("engine"), wrsp_module("subgroup")
    series, spectra = wrsp_module("series"), wrsp_module("spectra")
    ctx = engine.get_context(4)
    results = {"tables": {}, "targets": {}}
    # phase 1: cold series builds plus their exported rows
    for kind in DENSITY_K4_KINDS:
        results["tables"][kind] = _operation(lambda: {"rows": _series_rows(
            series.series(ctx, series.SeriesKind(kind)).to_rows())})
    built = [kind for kind, obs in results["tables"].items() if "error" not in obs]
    # phase 2: the warm sweep of every target against every table
    targets = [("Z", lambda: subgroup.centre_block_subgroup(ctx)),
               ("H", lambda: subgroup.base_and_centre_subgroup(ctx))]
    for j, masks in enumerate(seeded_masks(seed, ctx.d)):
        seeds = [ctx.central_from_mask(m) for m in masks]
        targets.append((f"seeded-{j}", lambda s=seeds, j=j:
                        spectra.invariant_subspace(ctx, s, label=f"seeded-{j}").span))

    def sweep(label, make):
        target = make()
        per_kind = {}
        for kind in built:
            # looked up again, as a user exporting one target would: a cache hit
            table = series.series(ctx, series.SeriesKind(kind))
            seq = spectra.density_sequence(target, table, target_label=label)
            comp = spectra.complement_density(target, table)
            per_kind[kind] = {"points": [[p.i, p.num, p.den] for p in seq.points],
                              "complement": [list(c) for c in comp]}
        return {"log_order": target.log_order, "kinds": per_kind}

    for label, make in targets:
        results["targets"][label] = _operation(lambda: sweep(label, make))
    return results


def density_identity(res: dict) -> str | None:
    """complement_density(T)[i] == den_i - num_i and 0 <= num_i <= log|T|."""
    for kind, data in res["kinds"].items():
        comp = dict((i, v) for i, v in data["complement"])
        for i, num, den in data["points"]:
            if not 0 <= num <= res["log_order"]:
                return f"{kind} i={i}: num {num} outside 0..{res['log_order']}"
            if comp.get(i) != den - num:
                return f"{kind} i={i}: complement {comp.get(i)} != den - num = {den - num}"
    return None


def check_density_k4(results: dict, goldens: dict) -> dict:
    failures = {}
    golden = goldens["density-k4"]
    for kind in DENSITY_K4_KINDS:
        name = f"series-{kind}"
        res = results["tables"].get(kind)
        if res is None:
            failures[name] = "not run"
        elif "error" in res:
            failures[name] = res["error"]
        else:
            why = _rows_match(res["rows"], golden["tables"][kind])
            if why:
                failures[name] = why
    labels = ["Z", "H"] + [f"seeded-{j}" for j in range(SEEDED_TARGETS)]
    for label in labels:
        name = f"target-{label}"
        res = results["targets"].get(label)
        if res is None:
            failures[name] = "not run"
        elif "error" in res:
            failures[name] = res["error"]
        elif set(res["kinds"]) != set(DENSITY_K4_KINDS):
            failures[name] = "not swept against every table"
        else:
            why = density_identity(res)
            if why is None and label in golden["targets"]:
                points = {kind: data["points"] for kind, data in res["kinds"].items()}
                if points != golden["targets"][label]:
                    why = "num/den differ from golden"
            if why:
                failures[name] = why
    return failures


def operation_count(workload: str) -> int:
    if workload == "cli-k123":
        return len(cli_commands())
    if workload == "claims-k4":
        return len(load_goldens()["claims-k4"])
    return len(DENSITY_K4_KINDS) + 2 + SEEDED_TARGETS


RUN = {"cli-k123": run_cli_k123, "claims-k4": run_claims_k4, "density-k4": run_density_k4}
CHECK = {"cli-k123": check_cli_k123, "claims-k4": check_claims_k4,
         "density-k4": check_density_k4}


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="ascii") as fh:
        return json.load(fh)
