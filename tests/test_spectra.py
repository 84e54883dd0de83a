"""Density sequences, complements and invariant subspaces."""

import random
from fractions import Fraction

import pytest

from conftest import enumerate_elements, is_normal, pair_gen, seeded_targets, square_gen
from wrsp import spectra as spectra_module
from wrsp.engine import GroupContext, get_context
from wrsp.series import SeriesKind, series
from wrsp.spectra import (
    complement_density,
    density_sequence,
    invariant_subspace,
)
from wrsp.subgroup import (
    base_and_centre_subgroup,
    centre_block_subgroup,
    close,
    full_group,
    trivial_subgroup,
)

# computed once and frozen: log2 |Z : gamma_i ^ Z| along the lower central
# series, cross-checked at level 2 against exhaustive enumeration
GAMMA_Z_INDEX = {
    2: [0, 1, 2, 3, 4, 7, 9, 10],
    3: [0, 1, 2, 4, 6, 8, 10, 13, 16, 21, 25, 29, 32, 34, 35, 36],
}


@pytest.mark.parametrize("k,num,den", [(1, 3, 6), (2, 10, 16), (3, 36, 47)])
def test_m_density_top_level(k, num, den):
    ctx = get_context(k)
    z = centre_block_subgroup(ctx)
    seq = density_sequence(z, series(ctx, SeriesKind.M), "Z")
    top = seq.points[-1]
    assert top.i == k
    assert (top.num, top.den) == (num, den)
    assert top.as_row()["ratio_exact"] == f"{num}/{den}"


def test_m_density_monotone_within_and_across_levels():
    tops = []
    for k in (1, 2, 3):
        ctx = get_context(k)
        z = centre_block_subgroup(ctx)
        seq = density_sequence(z, series(ctx, SeriesKind.M), "Z")
        ratios = [p.ratio for p in seq.points]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        tops.append(ratios[-1])
    assert tops == sorted(tops) and len(set(tops)) == 3


def test_density_trivial_and_full_targets(ctx2):
    gam = series(ctx2, SeriesKind.GAMMA)
    full = density_sequence(full_group(ctx2), gam, "full")
    assert all(p.ratio == 1 for p in full.points)
    triv = density_sequence(trivial_subgroup(ctx2), gam, "trivial")
    assert all(p.ratio == 0 for p in triv.points)
    assert triv.liminf_estimate == 0 and full.liminf_estimate == 1


@pytest.mark.parametrize("k", [2, 3])
def test_gamma_density_numerators_match_frozen_table(k):
    ctx = get_context(k)
    z = centre_block_subgroup(ctx)
    seq = density_sequence(z, series(ctx, SeriesKind.GAMMA), "Z")
    nums = {p.i: p.num for p in seq.points}
    for i in range(2, 2 * ctx.n + 1):
        assert nums[i] == GAMMA_Z_INDEX[k][i - 1], i


def test_gamma_density_cross_check_level2(ctx2):
    # the frozen table again, via generic enumeration instead of suffix cuts
    z = centre_block_subgroup(ctx2)
    gam = series(ctx2, SeriesKind.GAMMA)
    for i in range(1, 9):
        term = gam.term(i)
        count = sum(1 for g in enumerate_elements(term) if z.contains(g))
        log_cap = count.bit_length() - 1
        assert 1 << log_cap == count
        assert z.log_order - log_cap == GAMMA_Z_INDEX[2][i - 1]


def test_density_points_are_exact_rationals(ctx3):
    z = centre_block_subgroup(ctx3)
    seq = density_sequence(z, series(ctx3, SeriesKind.GAMMA), "Z")
    for p in seq.points:
        assert isinstance(p.ratio, Fraction)
        assert 0 <= p.num <= p.den
        assert p.ratio == Fraction(p.num, p.den)
    assert seq.tail_window == len(seq.points) // 2
    tail = [p.ratio for p in seq.points[-seq.tail_window:]]
    assert seq.liminf_estimate == min(tail)
    assert seq.tail_spread == max(tail) - min(tail)


def test_complement_density_values():
    for k in (2, 3):
        ctx = get_context(k)
        z = centre_block_subgroup(ctx)
        vals_p = dict(complement_density(z, series(ctx, SeriesKind.LOWER_P)))
        assert vals_p[1] == 0
        for j in range(2, k + 2):
            assert vals_p[j] == 2 * (j - 1)
        vals_d = dict(complement_density(z, series(ctx, SeriesKind.DIMENSION)))
        for j in range(2, min(3, k + 1) + 1):
            assert vals_d[j] == 2 * (j - 1)


def test_complement_density_full_target(ctx2):
    g = full_group(ctx2)
    vals = complement_density(g, series(ctx2, SeriesKind.GAMMA))
    assert all(v == 0 for _, v in vals)


def test_invariant_subspace_basics(ctx2):
    empty = invariant_subspace(ctx2, [], "empty")
    assert empty.span.is_trivial()
    orb = invariant_subspace(ctx2, [pair_gen(ctx2, 0, 1)], "near-pairs")
    assert orb.span.log_order == 4
    assert is_normal(orb.span)
    zfull = invariant_subspace(
        ctx2,
        [square_gen(ctx2, 0)] + [pair_gen(ctx2, i, j)
                                for i in range(4) for j in range(i + 1, 4)],
        "all",
    )
    assert zfull.span == centre_block_subgroup(ctx2)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_seed_spans_are_the_shift_closures_of_their_seeds(k):
    # invariant_subspace is normal_closure(seeds): the same span as closing
    # under x alone, and normal, for 1-3 random central masks per target
    ctx = get_context(k)
    rng = random.Random(k)
    for j in range(10):
        seeds = [ctx.central_from_mask(rng.getrandbits(ctx.d)) for _ in range(1 + j % 3)]
        span = invariant_subspace(ctx, seeds).span
        assert span == close(seeds, (ctx.x(),))
        assert is_normal(span)


def test_invariant_subspace_rejects_non_central(ctx2):
    with pytest.raises(ValueError):
        invariant_subspace(ctx2, [ctx2.y()], "bad")


def test_spectrum_sweep_nested_chain(ctx3):
    seeds = [pair_gen(ctx3, 0, 1), pair_gen(ctx3, 0, 2), pair_gen(ctx3, 0, 3),
             pair_gen(ctx3, 0, 4), square_gen(ctx3, 0)]
    chain = []
    acc = []
    for i, s in enumerate(seeds):
        acc.append(s)
        chain.append(invariant_subspace(ctx3, list(acc), f"chain{i}"))
    logs = [c.span.log_order for c in chain]
    assert logs == sorted(logs) and logs[-1] == centre_block_subgroup(ctx3).log_order
    table = series(ctx3, SeriesKind.M)
    tops = [density_sequence(c.span, table, c.label).points[-1].ratio for c in chain]
    assert tops == sorted(tops)
    assert tops[0] > 0 and tops[-1] == Fraction(36, 47)


def test_monotone_numerators_in_target(ctx2):
    small = invariant_subspace(ctx2, [pair_gen(ctx2, 0, 1)], "small").span
    z = centre_block_subgroup(ctx2)
    gam = series(ctx2, SeriesKind.GAMMA)
    small_seq = density_sequence(small, gam, "small")
    z_seq = density_sequence(z, gam, "Z")
    for a, b in zip(small_seq.points, z_seq.points):
        assert a.num <= b.num


def test_density_level_mismatch(ctx2, ctx3):
    with pytest.raises(ValueError):
        density_sequence(centre_block_subgroup(ctx3), series(ctx2, SeriesKind.GAMMA))


def test_density_sweep_builds_one_flag_per_level_and_kind(monkeypatch):
    # Z, H and 10 seed spans through both density functions against every
    # series: the central targets share one flag per (level, kind), kept in
    # the context's memo; H takes the intersect route
    built = []
    build = spectra_module.central_flag
    monkeypatch.setattr(spectra_module, "central_flag",
                        lambda terms: built.append(terms) or build(terms))
    for k in range(1, 5):
        ctx = GroupContext(k)
        targets = [centre_block_subgroup(ctx), base_and_centre_subgroup(ctx)]
        targets += seeded_targets(ctx, k)
        for kind in SeriesKind:
            table = series(ctx, kind)
            for t in targets:
                density_sequence(t, table)
                complement_density(t, table)
        flags = {key[1] for key in ctx._memo if isinstance(key, tuple) and key[0] == "central_flag"}
        assert flags == set(SeriesKind)
    assert len(built) == 4 * len(SeriesKind)


def test_density_and_complement_share_one_central_pass(monkeypatch):
    # one central_cap_logs call per (target, series kind), whichever of the
    # two density functions asks first
    ctx = GroupContext(3)
    calls = []
    cap_logs = spectra_module.central_cap_logs
    monkeypatch.setattr(spectra_module, "central_cap_logs",
                        lambda *args: calls.append(1) or cap_logs(*args))
    targets = [centre_block_subgroup(ctx)] + seeded_targets(ctx, 1)[:3]
    for target in targets:
        for kind in SeriesKind:
            table = series(ctx, kind)
            seq = density_sequence(target, table)
            comp = dict(complement_density(target, table))
            assert all(comp[p.i] == p.den - p.num for p in seq.points)
    assert len(calls) == len(targets) * len(SeriesKind)
