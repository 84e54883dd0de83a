"""Logarithmic-density sequences of subgroups against the filtration series.

For a target subgroup and a descending series S_0 = G >= S_1 >= ... the
density point at index i is the exact rational

    log2 |target S_i : S_i|  /  log2 |G : S_i|

Finite truncations cannot certify limits, so sequences carry a tail-window
minimum as the lower-limit estimate and a window spread as the proper-limit
diagnostic; the cross-level trend of the top-level ratios is reported
separately.  Everything is exact integer and Fraction arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .engine import GroupContext
from .series import SeriesKind, SeriesTable
from .subgroup import (Subgroup, central_cap_logs, central_flag, intersect, normal_closure,
                       trivial_subgroup)


@dataclass(frozen=True)
class DensityPoint:
    i: int          # natural series index of the term
    num: int        # log2 |target S_i : S_i|
    den: int        # log2 |G : S_i|
    ratio: Fraction

    def as_row(self) -> dict:
        return {
            "i": self.i,
            "num": self.num,
            "den": self.den,
            "ratio_exact": f"{self.num}/{self.den}",
            "ratio_float": float(self.ratio),
        }


@dataclass(frozen=True)
class DensitySequence:
    kind: SeriesKind
    k: int
    target_label: str
    points: tuple[DensityPoint, ...]
    tail_window: int
    liminf_estimate: Fraction
    tail_spread: Fraction  # max - min over the window; 0 suggests a proper limit

    def to_obj(self) -> dict:
        return {
            "kind": self.kind.value,
            "k": self.k,
            "target": self.target_label,
            "tail_window": self.tail_window,
            "liminf_estimate": f"{self.liminf_estimate.numerator}/{self.liminf_estimate.denominator}",
            "tail_spread": f"{self.tail_spread.numerator}/{self.tail_spread.denominator}",
            "points": [p.as_row() for p in self.points],
        }

    def to_csv_lines(self) -> list[str]:
        lines = ["kind,k,i,num,den,ratio_exact,ratio_float"]
        for p in self.points:
            r = p.as_row()
            lines.append(
                f"{self.kind.value},{self.k},{p.i},{p.num},{p.den},"
                f"{r['ratio_exact']},{r['ratio_float']!r}"
            )
        return lines

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2) + "\n"


def _term_logs(target: Subgroup, table: SeriesTable) -> list[tuple[int, int, int]]:
    """(i, num, den) per term S_i: num = log2 |target S_i : S_i|, which is
    log |target| - log |target ^ S_i|, and den = log2 |G : S_i|.  Computed
    once per target and series kind and kept in the context's memo, so
    density_sequence and complement_density share one pass.

    A target inside the centre block (Z, the trivial group, a seed span)
    reads log |target ^ S_i| for every term off the series' central flag
    (subgroup module docstring, Central flag), built on first use and kept
    in the memo too, one per kind; any other target (H, the full group) is
    a suffix subgroup or G, which intersect() meets with each term by
    slicing its sequence.
    """
    ctx = target.ctx
    if ctx.k != table.k:
        raise ValueError("target and series live at different levels")

    def build():
        if all(m.is_central_block() for m in target.igs):
            flag = ctx.cached(("central_flag", table.kind), lambda: central_flag(table.terms))
            caps = central_cap_logs(target, flag)
        else:
            caps = [intersect(target, sub).log_order for sub in table.terms]
        return [(i, target.log_order - cap, ctx.log_order - sub.log_order)
                for (i, sub), cap in zip(table.indexed_terms(), caps)]

    return ctx.cached(("term_logs", target, table.kind), build)


def density_sequence(target: Subgroup, table: SeriesTable,
                     target_label: str = "target") -> DensitySequence:
    """The density points of target against table; the tail window is the
    last half of the points (at least one)."""
    points = [DensityPoint(i, num, den, Fraction(num, den))
              for i, num, den in _term_logs(target, table) if den]
    if not points:
        raise ValueError("series has no proper terms")
    tail_window = max(1, len(points) // 2)
    tail = [p.ratio for p in points[-tail_window:]]
    return DensitySequence(
        kind=table.kind, k=table.k, target_label=target_label,
        points=tuple(points), tail_window=tail_window,
        liminf_estimate=min(tail), tail_spread=max(tail) - min(tail),
    )


def complement_density(target: Subgroup, table: SeriesTable) -> list[tuple[int, int]]:
    """log2 |G : S_i target| = den - num per natural index, for normal target."""
    return [(i, den - num) for i, num, den in _term_logs(target, table)]


@dataclass(frozen=True)
class InvariantSubspace:
    """A shift-stable subspace of the centre block, automatically normal."""

    label: str
    span: Subgroup


def invariant_subspace(ctx: GroupContext, seeds, label: str = "seed") -> InvariantSubspace:
    """The normal closure of central seeds (the trivial group for none): y
    centralises the centre block, so it is the span of the seeds' x-shifts."""
    seeds = tuple(seeds)
    for s in seeds:
        if s.ctx.k != ctx.k:
            raise ValueError("seed lives at a different level")
        if not s.is_central_block():
            raise ValueError("seeds must lie in the centre block")
    span = normal_closure(seeds) if seeds else trivial_subgroup(ctx)
    return InvariantSubspace(label, span)
