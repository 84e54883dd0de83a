"""Capture ``goldens.json`` from the code in ``src``.

The goldens were captured at the seed commit.  Run this again only when a
change alters an output on purpose, and say so in the change:

    PYTHONPATH=src python3 bench/capture_goldens.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import workloads


def main() -> int:
    from wrsp.claims import CLAIMS
    from wrsp.engine import get_context
    from wrsp.series import SeriesKind, series
    from wrsp.subgroup import commutator_subgroup

    def golden_rows(k, kind):
        """Golden rows: a missing layer shape is marked "nonabelian", or
        "uncomputed" when the layer is abelian."""
        table = series(get_context(k), SeriesKind(kind))
        rows = workloads._series_rows(table.to_rows())
        for row in rows:
            if row["layer_shape"] is None:
                sub, nxt = table.term(row["i"]), table.term(row["i"] + 1)
                abelian = nxt.contains_subgroup(commutator_subgroup(sub, sub))
                row["layer_shape"] = "uncomputed" if abelian else "nonabelian"
        return rows

    goldens = {}
    with tempfile.TemporaryDirectory(dir=workloads.HERE) as work:
        results = workloads.run_cli_k123(0, work)
        cli = {}
        for name, argv in workloads.cli_commands():
            if results[name].get("code") != 0:
                raise SystemExit(f"{name} failed: {results[name]}")
            if name.startswith("series-"):
                cli[name] = golden_rows(int(argv[2]), argv[4])
            else:
                cli[name] = workloads.observe_cli(name, results[name]["path"])
    goldens["cli-k123"] = cli

    claims = workloads.run_claims_k4(0, "", claim_ids=sorted(CLAIMS))
    failed = [cid for cid, res in claims.items() if not res.get("passed")]
    if failed:
        raise SystemExit(f"claims not passed at level 4: {failed}")
    goldens["claims-k4"] = sorted(claims)

    density = workloads.run_density_k4(0, "")
    goldens["density-k4"] = {
        "tables": {kind: golden_rows(4, kind) for kind in workloads.DENSITY_K4_KINDS},
        "targets": {label: {kind: data["points"] for kind, data in
                            density["targets"][label]["kinds"].items()}
                    for label in ("Z", "H")},
    }
    with open(workloads.GOLDENS_PATH, "w", encoding="ascii") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(workloads.GOLDENS_PATH)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
