"""Acceptance criteria, one test per criterion, one printed line each.

Criterion 9 is split: 9a covers the construction-series density values and
passes; 9b asserts the centre-block index formula along the lower central
series for every index through 2^(k+1) at level 3, as stated.  That formula
describes the limit group: in the level-3 quotient it provably holds only
for indices up to 2^(k-1)+1 = 5 (the squares of the chain commutators start
falling one term deeper from index 5 on, shrinking the layers).  9b is
therefore expected to fail, and does; see the analysis in the repository
notes.  It is kept as stated rather than weakened.
"""

import random
import time

from conftest import double_product_rhs, project_to_wreath, random_element, scaffold_t
from wrsp.claims import CLAIMS, run_claims, select_claims
from wrsp.engine import commutator, get_context
from wrsp.oracle import build_oracle, compare_multiplication_tables
from wrsp.series import (
    SeriesKind,
    gamma_n_subgroups,
    lcs_generator_check,
    power_series,
    series,
)
from wrsp.spectra import density_sequence
from wrsp.subgroup import (
    agemo_mod_derived,
    base_and_centre_subgroup,
    centre_block_subgroup,
    close,
    intersect,
    join,
    trivial_subgroup,
)
from test_cli import run_cli


def _report(n, name, ok=True):
    print(f"ACCEPTANCE {n:>2}: {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_01_order_formula():
    budgets = {1: 1.0, 2: 1.0, 3: 60.0}
    for k in (1, 2, 3):
        ctx = get_context(k)
        t0 = time.time()
        sub = close([ctx.x(), ctx.y()])  # fresh closure, no cache
        elapsed = time.time() - t0
        want = k + (1 << (k + 1)) + (ctx.n * (ctx.n - 1)) // 2
        assert sub.log_order == want == {1: 6, 2: 16, 3: 47}[k]
        assert elapsed < budgets[k], f"level {k} closure took {elapsed:.1f}s"
    _report(1, "order formula 6/16/47 via generator closure")


def test_criterion_02_oracle_equivalence(ctx1):
    t0 = time.time()
    rep = compare_multiplication_tables(ctx1, build_oracle())
    elapsed = time.time() - t0
    assert rep["ok"] and rep["pairs_checked"] == 4096
    assert elapsed < 1.0, f"oracle comparison took {elapsed:.1f}s"
    _report(2, "level-1 engine table equals the word-reduction table")


def test_criterion_03_lower_central_series():
    t0 = time.time()
    for k in (1, 2, 3):
        rep = lcs_generator_check(get_context(k))
        assert rep["class"] == rep["class_expected"] == (1 << (k + 1)) - 1
        assert rep["ok"], [r for r in rep["per_index"] if not r["shape_match"]]
        assert rep["layer_log_sum"] == rep["log_order"]
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(3, "lower central series: classes, generator lists, shapes, sums")


def test_criterion_04_chain_square_lemmas():
    for k in (2, 3):
        ctx = get_context(k)
        gam = series(ctx, SeriesKind.GAMMA)
        n = ctx.n
        for i in range(n // 2 + 1, 2 * n + 1):
            assert gam.term(i + 1).contains(ctx.c(i) ** 2), ("i", k, i)
        for i in range(n + 1, 2 * n + 2):
            assert (ctx.c(i) ** 2).is_identity(), ("ii", k, i)
        for i in range(n + n // 2 + 1, 2 * n + 1):
            assert gam.term(i + 1).contains(ctx.c(i)), ("iii", k, i)
        for m in range(2, n + 1, 2):
            assert gam.term(n + m + 1).contains(ctx.cij(m, n)), ("m2k", k, m)
    _report(4, "chain square lemmas and the even double-chain lemma")


def test_criterion_05_lower_two_series():
    for k in (1, 2, 3):
        ctx = get_context(k)
        n = ctx.n
        tbl = series(ctx, SeriesKind.LOWER_P)
        gam = series(ctx, SeriesKind.GAMMA)
        assert tbl.length == 2 * n - 1
        assert tbl.term(2) == close([ctx.x() ** 2, ctx.y() ** 2]
                                    + list(gam.term(2).igs))
        for i in range(3, 2 * n + 1):
            gens = [ctx.x() ** (1 << (i - 1))]
            if 3 <= i <= n // 2 + 1:
                gens.append(ctx.c(i - 1) ** 2)
            gens = [g for g in gens if not g.is_identity()]
            want = close(gens + list(gam.term(i).igs)) \
                if (gens or gam.term(i).igs) else trivial_subgroup(ctx)
            assert tbl.term(i) == want, (k, i)
    _report(5, "lower 2-series lengths and closed forms")


def test_criterion_06_dimension_series():
    for k in (1, 2, 3):
        ctx = get_context(k)
        n = ctx.n
        tbl = series(ctx, SeriesKind.DIMENSION)
        gam = series(ctx, SeriesKind.GAMMA)
        assert tbl.length == 2 * n
        for i in range(2, 2 * n + 1):
            l = (i - 1).bit_length()
            half = (i + 1) // 2
            gens = [ctx.x() ** (1 << l)] + [g * g for g in gam.term(half).igs] \
                + list(gam.term(i).igs)
            gens = [g for g in gens if not g.is_identity()]
            closed = close(gens) if gens else trivial_subgroup(ctx)
            assert tbl.term(i) == closed, ("closed", k, i)
            gens2 = list(gam.term(i).igs) + [g * g for g in gam.term(half).igs]
            gens2 += [ctx.x() ** (1 << l), ctx.y() ** (1 << l)]
            for m in range(2, k + 3):
                nn = (i + (1 << m) - 1) >> m
                if nn >= 2:
                    gens2 += [g ** (1 << m) for g in gam.term(nn).igs]
            gens2 = [g for g in gens2 if not g.is_identity()]
            product = close(gens2) if gens2 else trivial_subgroup(ctx)
            assert tbl.term(i) == product, ("product", k, i)
    _report(6, "dimension series: recurrence = closed form = product form")


def test_criterion_07_exponent():
    for k in (1, 2):
        ctx = get_context(k)
        e = 1 << (k + 2)
        orders = [g.order() for g in ctx.all_elements()]
        assert max(orders) == e
        xy = ctx.x() * ctx.y()
        assert xy.order() == e
        assert xy ** (e // 2) == ctx.c(ctx.n) ** 2
        assert not (xy ** (e // 2)).is_identity()
    ctx = get_context(3)
    e = 32
    xy = ctx.x() * ctx.y()
    assert xy.order() == e
    assert xy ** 16 == ctx.c(8) ** 2 and not (xy ** 16).is_identity()
    rng = random.Random(0xACCE)
    maxo = 0
    for t in range(ctx.tmod):
        xs = ctx.x() ** t
        for _ in range(1250):
            h = ctx.element(0, rng.getrandbits(ctx.n), rng.getrandbits(ctx.d))
            maxo = max(maxo, (xs * h).order())
    assert maxo == e
    _report(7, "exponent 2^(k+2): exhaustive at small levels, sampled at 3")


def test_criterion_08_shift_identities_and_sandwiches(ctx3):
    # the 2-power shift identity for every in-range triple at level 3
    x = ctx3.x()
    for i in range(1, 17):
        for j in range(1, 17):
            zij = ctx3.zij(i, j)
            for t in range(0, 4):
                e = 1 << t
                lhs = commutator(zij, x ** e)
                rhs = ctx3.zij(i + e, j) * ctx3.zij(i, j + e) * ctx3.zij(i + e, j + e)
                assert lhs == rhs, (i, j, t)
    # double product for sampled pairs up to six shifts
    for (i, j) in ((1, 2), (2, 3), (2, 5), (3, 4), (5, 2)):
        w = ctx3.zij(i, j)
        for m in range(0, 7):
            assert w == double_product_rhs(ctx3, i, j, m), (i, j, m)
            w = commutator(w, x)
    # scaffold squares descend, at every level
    for k in (1, 2, 3):
        ctx = get_context(k)
        for n in range(1, k + 1):
            cur = gamma_n_subgroups(ctx, n)
            nxt = gamma_n_subgroups(ctx, n + 1)
            assert nxt.contains_subgroup(agemo_mod_derived(cur)), (k, n)
    # Frattini sandwich one level down
    for s, k in ((1, 2), (2, 3)):
        ctx = get_context(k)
        phi = series(ctx, SeriesKind.FRATTINI).term(s)
        j = (1 << s) + (1 << (s - 1)) - 1
        low = join(scaffold_t(ctx, s), intersect(series(ctx, SeriesKind.GAMMA).term(j),
                                                 centre_block_subgroup(ctx)))
        assert phi.contains_subgroup(low), (s, k)
        assert gamma_n_subgroups(ctx, s).contains_subgroup(phi), (s, k)
    # power sandwiches at level 3 certify both inclusions
    for i in (1, 2, 3):
        lower, exact, upper = power_series(ctx3, i)
        assert exact.contains_subgroup(lower), i
        assert upper.contains_subgroup(exact), i
    _report(8, "shift identities, scaffold descent, sandwiches")


def test_criterion_09a_density_values():
    tops = []
    for k, num, den in ((1, 3, 6), (2, 10, 16), (3, 36, 47)):
        ctx = get_context(k)
        z = centre_block_subgroup(ctx)
        seq = density_sequence(z, series(ctx, SeriesKind.M), "Z")
        top = seq.points[-1]
        assert (top.i, top.num, top.den) == (k, num, den)
        tops.append(top.ratio)
    assert tops == sorted(tops) and len(set(tops)) == 3
    _report("9a", "construction-series density 3/6 < 10/16 < 36/47")


def test_criterion_09b_remark_index_full_range_as_stated(ctx3):
    """As stated: the limit-group index formula for every i <= 2^(k+1) at
    level 3.  The formula is a statement about the limit group; inside the
    level-3 quotient it holds exactly for i <= 5 and then falls behind
    (for i >= 13 it even exceeds log2 |Z| = 36).  Expected to fail; kept
    unweakened.  The faithful-window version passes in the claim suite.
    """
    z = centre_block_subgroup(ctx3)
    gam = series(ctx3, SeriesKind.GAMMA)
    rows = []
    ok = True
    for i in range(1, 17):
        got = z.log_order - intersect(gam.term(i), z).log_order
        if i % 2 == 1:
            m = (i + 1) // 2
            want = m * (m - 1)
        else:
            m = i // 2
            want = m * (m - 1) + m
        rows.append((i, got, want))
        ok = ok and got == want
    _report("9b", "limit index formula for all i <= 16 at level 3", ok)
    assert ok, (
        "computed log2|Z : gamma_i ^ Z| diverges from the limit formula "
        "(i, computed, formula): " + ", ".join(map(str, rows))
    )


def test_remark_index_window_is_where_adjacent_levels_agree():
    """Why 9b fails, as a measured fact: the level-k and level-(k+1)
    remark-index tables agree exactly on the claim's faithful window
    i <= 2^(k-1) + 1 and differ at the next index, so a level-k value past
    the window is not yet the limit's."""
    tables = {k: [row["log_index"] for row in run_claims(k, ["remark-index"])[0].details["table"]]
              for k in (2, 3, 4, 5)}
    for k in (2, 3, 4):
        window = (1 << (k - 1)) + 1
        low, high = tables[k], tables[k + 1]
        assert low[:window] == high[:window], k
        assert low[window] != high[window], k


def _shuffle_family(k):
    ctx = get_context(k)
    subs = [base_and_centre_subgroup(ctx), centre_block_subgroup(ctx)]
    if k <= 2:
        for kind in (SeriesKind.GAMMA, SeriesKind.LOWER_P, SeriesKind.FRATTINI,
                     SeriesKind.DIMENSION, SeriesKind.M):
            subs.extend(series(ctx, kind).terms)
    else:
        gam = series(ctx, SeriesKind.GAMMA)
        subs.extend([gam.term(6), gam.term(10), gamma_n_subgroups(ctx, 2)])
    return ctx, [s for s in subs if s.igs]


def test_criterion_10_property_suites(tmp_path):
    # associativity: 1e5 random triples per level
    for k in (1, 2, 3):
        ctx = get_context(k)
        rng = random.Random(0xA550C + k)
        for _ in range(100_000):
            g, h, f = (random_element(ctx, rng) for _ in range(3))
            assert (g * h) * f == g * (h * f)
    # quotient map: 1e4 random pairs per level
    for k in (1, 2, 3):
        ctx = get_context(k)
        rng = random.Random(0x40E + k)
        for _ in range(10_000):
            g, h = random_element(ctx, rng), random_element(ctx, rng)
            assert project_to_wreath(g * h) == project_to_wreath(g) * project_to_wreath(h)
    # closure idempotence and canonicity: 100 shuffles per subgroup in the
    # designated family
    for k in (1, 2, 3):
        ctx, family = _shuffle_family(k)
        rng = random.Random(0x5F0 + k)
        for sub in family:
            gens = list(sub.igs)
            for _ in range(100):
                rng.shuffle(gens)
                assert close(gens) == sub
    # CLI determinism
    for argv in (
        ["series", "--k", "2", "--kind", "gamma", "--format", "csv"],
        ["density", "--k", "2", "--kind", "m", "--target", "Z"],
        ["verify", "--k", "1", "--all", "--format", "json"],
    ):
        c1, o1, _ = run_cli(argv)
        c2, o2, _ = run_cli(argv)
        assert (c1, o1) == (c2, o2) and c1 == 0
    _report(10, "associativity, quotient map, shuffle canonicity, determinism")


def test_full_claim_suite_over_all_levels():
    for k in (1, 2, 3, 4):
        results = run_claims(k, select_claims(None, k))
        bad = [r for r in results if not r.passed]
        assert not bad, [(r.claim_id, r.details) for r in bad]


def test_claim_suite_at_level5():
    # above the CLI's gate the claim runner still runs every claim but the
    # level-1 oracle (about 2 s); the values are level 5's data points
    results = {r.claim_id: r for r in run_claims(5, sorted(set(CLAIMS) - {"oracle-k1"}))}
    bad = [r for r in results.values() if not r.passed]
    assert not bad, [(r.claim_id, r.details) for r in bad]
    assert results["remark-index"].details["window"] == 17
    assert results["thm-m-density"].details["points"][-1]["ratio_exact"] == "528/565"
    assert results["lemma-exponent"].details["max_order"] == 128
    assert len(results["zij-table"].details["nonzero"]) == 496
    ctx = get_context(5)
    assert series(ctx, SeriesKind.DIMENSION).length == 64
    assert series(ctx, SeriesKind.LOWER_P).length == 63
