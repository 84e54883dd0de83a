"""Command-line harness: claim verification, series and density exports.

Exit codes: 0 all selected checks pass, 1 a claim failed, 2 usage error.
Outputs are deterministic: identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .claims import run_claims, select_claims
from .engine import get_context, parse_element
from .oracle import oracle_report
from .presentation import DEFAULT_MAX_LEVEL, export_presentation, verify_presentation
from .series import SeriesKind, series
from .spectra import density_sequence, invariant_subspace
from .subgroup import (base_and_centre_subgroup, centre_block_subgroup,
                       full_group, trivial_subgroup)

USAGE_ERROR = 2

# the named density targets; --target seed reads --seed-file instead
TARGETS = {
    "Z": centre_block_subgroup,
    "H": base_and_centre_subgroup,
    "full": full_group,
    "trivial": trivial_subgroup,
}


class _OutError(Exception):
    """The --out file cannot be written: a usage error."""


def _check_out(path: str) -> None:
    """Raise _OutError when --out PATH cannot be written, before any work."""
    if not path:
        raise _OutError("--out needs a path")
    if os.path.isdir(path):
        raise _OutError(f"--out {path} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise _OutError(f"--out {path}: directory {parent} does not exist")


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise _OutError(f"cannot write --out {out}: {exc.strerror or exc}") from None


def _series_csv(table) -> str:
    lines = ["kind,k,i,log_order,layer_shape,igs"]
    for row in table.to_rows():
        shape = "x".join(str(q) for q in row["layer_shape"]) if row["layer_shape"] else ""
        if row["layer_shape"] is None:
            shape = "nonabelian"
        igs = ";".join(row["igs"])
        lines.append(f"{row['kind']},{row['k']},{row['i']},{row['log_order']},{shape},{igs}")
    return "\n".join(lines) + "\n"


def _series_json(table) -> str:
    return json.dumps(table.to_rows(), indent=2) + "\n"


def cmd_verify(args) -> int:
    if bool(args.claims) == args.all:
        print("error: choose either --claims or --all", file=sys.stderr)
        return USAGE_ERROR
    selectors = [s.strip() for chunk in args.claims for s in chunk.split(",") if s.strip()]
    if args.claims and not selectors:
        print("error: --claims names no claim", file=sys.stderr)
        return USAGE_ERROR
    try:
        ids = select_claims(selectors, args.k)
    except KeyError as exc:
        print(f"error: unknown claim selector {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    results = run_claims(args.k, ids)
    lines = [r.line() for r in results]
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - n_fail}/{len(results)} claims verified at level {args.k}")
    text = "\n".join(lines) + "\n"
    if args.format == "json":
        text = json.dumps(
            [{"claim_id": r.claim_id, "k": r.k, "status": r.status, "details": r.details}
             for r in results],
            indent=2, default=str) + "\n"
    _write(text, args.out)
    return 0 if n_fail == 0 else 1


def cmd_series(args) -> int:
    table = series(get_context(args.k), SeriesKind(args.kind))
    text = _series_csv(table) if args.format == "csv" else _series_json(table)
    _write(text, args.out)
    return 0


def _load_seed_target(ctx, path: str):
    seeds = []
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line.isascii():
                raise ValueError(f"seed file {path}, line {lineno}: not ASCII text")
            if not line or line.startswith("#"):
                continue
            try:
                el = parse_element(ctx, line)
            except ValueError as exc:
                raise ValueError(f"seed file {path}, line {lineno}: {exc}") from None
            if not el.is_central_block():
                raise ValueError(
                    f"seed file {path}, line {lineno}: seed is not in the centre block")
            seeds.append(el)
    return invariant_subspace(ctx, seeds, label=os.path.basename(path))


def cmd_density(args) -> int:
    ctx = get_context(args.k)
    if args.target in TARGETS:
        if args.seed_file is not None:
            print(f"error: --seed-file needs --target seed, not --target {args.target}",
                  file=sys.stderr)
            return USAGE_ERROR
        target, label = TARGETS[args.target](ctx), args.target
    else:  # seed
        if not args.seed_file:
            print("error: --target seed needs --seed-file PATH", file=sys.stderr)
            return USAGE_ERROR
        try:
            sub = _load_seed_target(ctx, args.seed_file)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        target, label = sub.span, sub.label
    table = series(ctx, SeriesKind(args.kind))
    seq = density_sequence(target, table, target_label=label)
    text = "\n".join(seq.to_csv_lines()) + "\n" if args.format == "csv" else seq.to_json()
    _write(text, args.out)
    return 0


def cmd_export_presentation(args) -> int:
    text = export_presentation(get_context(args.k))
    _write(text, args.out)
    if args.check:
        rep = verify_presentation(text)
        if not rep["ok"]:
            print("error: exported presentation failed self evaluation", file=sys.stderr)
            return 1
    return 0


def cmd_oracle(args) -> int:
    rep = oracle_report()
    table = rep["table"]
    lines = [
        f"elements {rep['oracle'].order}",
        f"table_equal {str(table['ok']).lower()} pairs {table['pairs_checked']}",
        "order_census " + " ".join(f"{o}:{c}" for o, c in sorted(rep["census"].items())),
        f"centre_size {len(rep['centre'])}",
    ]
    _write("\n".join(lines) + "\n", args.out)
    return 0 if table["ok"] else 1


# built on the first call, not at import, so that it binds the cmd_* functions
# as wrapped after import (bench/tracer.py)
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wrsp",
        description="exact engine and verification harness for the level-k "
                    "2-group tower")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_k(p):
        p.add_argument("--k", type=int, required=True, metavar="K",
                       help=f"level, 1..{DEFAULT_MAX_LEVEL}")
        p.add_argument("--deep", action="store_true",
                       help=f"allow level {DEFAULT_MAX_LEVEL} (slower)")

    p = sub.add_parser("verify", help="run structure claims")
    add_k(p)
    p.add_argument("--claims", action="append", default=[],
                   help="comma separated claim ids or prefixes")
    p.add_argument("--all", action="store_true", help="run every supported claim")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("series", help="export a filtration series")
    add_k(p)
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in SeriesKind])
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("density", help="export a density sequence")
    add_k(p)
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in SeriesKind])
    p.add_argument("--target", required=True,
                   choices=(*TARGETS, "seed"))
    p.add_argument("--seed-file", metavar="PATH")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("export-presentation",
                       help="write the power-commutator presentation")
    add_k(p)
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--check", action="store_true",
                   help="re-evaluate every relation in the engine")
    p.set_defaults(func=cmd_export_presentation)

    p = sub.add_parser("oracle", help="level-1 word-reduction cross check")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    k = getattr(args, "k", None)
    if k is not None:
        cap = DEFAULT_MAX_LEVEL if args.deep else DEFAULT_MAX_LEVEL - 1
        if not 1 <= k <= cap:
            hint = "" if args.deep else f" (use --deep for level {DEFAULT_MAX_LEVEL})"
            print(f"error: --k must be in 1..{cap}{hint}", file=sys.stderr)
            return USAGE_ERROR
    try:
        if args.out is not None:
            _check_out(args.out)
        return args.func(args)
    except _OutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
