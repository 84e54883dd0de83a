"""Closure, sifting, membership, normal closures and subgroup arithmetic."""

import random
from functools import reduce as fold
from operator import mul, xor

import pytest

from conftest import (enumerate_elements, is_normal, leader_orders, random_element, seeded_targets,
                      span_cap_logs)
from wrsp import subgroup as subgroup_module
from wrsp.engine import GroupContext, commutator, get_context
from wrsp.series import SeriesKind, series
from wrsp.subgroup import (
    _lead,
    _reduce,
    _Tail,
    _top_exponent,
    UnsupportedExactIntersection,
    agemo_mod_derived,
    base_and_centre_subgroup,
    central_cap_logs,
    central_flag,
    centre_block_subgroup,
    close,
    commutator_subgroup,
    extend,
    full_group,
    intersect,
    join,
    layer_shape,
    normal_closure,
    pair_block_subgroup,
    trivial_subgroup,
)


def test_close_identity_is_trivial(ctx2):
    sub = close([ctx2.identity()])
    assert sub.log_order == 0 and sub.igs == ()
    assert sub.contains(ctx2.identity())
    assert not sub.contains(ctx2.y())


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_direct_subgroups_match_closure(k):
    # H, Z, the pair block and the trivial group are read straight off
    # their unit vectors; closing those generators must give the same
    ctx = get_context(k)
    n = ctx.n
    for start, direct in ((1, base_and_centre_subgroup(ctx)),
                          (1 + n, centre_block_subgroup(ctx)),
                          (1 + 2 * n, pair_block_subgroup(ctx))):
        gens = [ctx.base_gen(p - 1) if p <= n else ctx.central_from_mask(1 << (p - 1 - n))
                for p in range(start, ctx.total_positions)]
        closed = close(gens)
        assert direct == closed and direct.log_order == closed.log_order
    closed = close([ctx.identity()])
    direct = trivial_subgroup(ctx)
    assert direct == closed and direct.log_order == closed.log_order == 0


def test_close_requires_generators(ctx1):
    with pytest.raises(ValueError):
        close([])


@pytest.mark.parametrize("k,want", [(1, 6), (2, 16), (3, 47)])
def test_full_group_log_order(k, want):
    ctx = get_context(k)
    assert full_group(ctx).log_order == want


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_full_group_is_the_closure_of_x_and_y(k, monkeypatch):
    # full_group reads the group off the layout: on a fresh context it runs
    # no closure, and it equals the closure of the generators
    ctx = GroupContext(k)
    grow, calls = subgroup_module._grow, []
    monkeypatch.setattr(subgroup_module, "_grow",
                        lambda *args: calls.append(args) or grow(*args))
    g = full_group(ctx)
    assert calls == []
    want = close([ctx.x(), ctx.y()])
    assert g == want and g.log_order == want.log_order == ctx.log_order


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lagrange_consistency(k):
    ctx = get_context(k)
    sub = close([ctx.x(), ctx.y()])
    total = 1
    for r in leader_orders(sub):
        total *= r
    assert total == 1 << sub.log_order


@pytest.mark.parametrize("k,wantZ,wantH", [(1, 3, 5), (2, 10, 14), (3, 36, 44)])
def test_centre_and_base_subgroups(k, wantZ, wantH):
    ctx = get_context(k)
    x, y = ctx.x(), ctx.y()
    conjs = [y]
    for _ in range(1, ctx.n):
        conjs.append(conjs[-1].conj(x))
    gens = [c * c for c in conjs]
    gens += [commutator(conjs[i], conjs[j])
             for i in range(ctx.n) for j in range(i + 1, ctx.n)]
    z = close(gens)
    assert z.log_order == wantZ
    assert z == centre_block_subgroup(ctx)
    h = normal_closure([y])
    assert h.log_order == wantH
    assert h == base_and_centre_subgroup(ctx)
    assert close([ctx.c(i) for i in range(1, 2 * ctx.n + 1)]) == h


@pytest.mark.parametrize("k", [1, 2])
def test_membership_by_products(k):
    ctx = get_context(k)
    rng = random.Random(31 + k)
    h = base_and_centre_subgroup(ctx)
    for _ in range(100):
        g1 = ctx.element(0, rng.getrandbits(ctx.n), rng.getrandbits(ctx.d))
        g2 = ctx.element(0, rng.getrandbits(ctx.n), rng.getrandbits(ctx.d))
        assert h.contains(g1 * g2)
    assert not h.contains(ctx.x())


def test_membership_rejects_level_mismatch(ctx1, ctx2):
    for sub in (full_group(ctx2), trivial_subgroup(ctx2)):
        with pytest.raises(ValueError):
            sub.contains(ctx1.y())
        with pytest.raises(ValueError):
            sub.reduce(ctx1.y())
    with pytest.raises(ValueError):
        trivial_subgroup(ctx1).contains_subgroup(trivial_subgroup(ctx2))


def test_normal_closure_of_identity(ctx2):
    assert normal_closure([ctx2.identity()]).is_trivial()


def test_normal_closure_matches_commutator_route(ctx2):
    # [G, G] is the normal closure of [y, x], and gamma_2 is built from
    # the stated generator lists
    lhs = normal_closure([commutator(ctx2.y(), ctx2.x())])
    rhs = series(ctx2, SeriesKind.GAMMA).term(2)
    assert lhs == rhs


def _three_conjugator_closure(gens):
    """Reference normal closure: also closed under conjugation by x^-1."""
    ctx = gens[0].ctx
    return close(gens, conjugators=(ctx.x(), ctx.x().inverse(), ctx.y()))


def _ordered_pair_commutator_subgroup(a, b):
    """Reference [a, b]: every ordered pair of members, [u, u] included."""
    seeds = [commutator(u, v) for u in a.igs for v in b.igs]
    return _three_conjugator_closure(seeds)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_unordered_pairs_and_two_conjugators_match_references(k):
    # commutator_subgroup(s, s) visits each unordered pair once and
    # normal_closure conjugates by x and y only; on every term of every
    # series each must give what the ordered pairs and x, x^-1, y give
    ctx = get_context(k)
    for kind in SeriesKind:
        for s in series(ctx, kind).terms:
            if s.is_trivial():
                continue
            assert commutator_subgroup(s, s) == _ordered_pair_commutator_subgroup(s, s)
            seeds = [commutator(u, c) for u in s.igs for c in (ctx.x(), ctx.y())]
            assert normal_closure(seeds) == _three_conjugator_closure(seeds)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_mixed_pair_commutator_subgroups_match_reference(k):
    # for a != b, commutator_subgroup builds [a ^ Z, b] from b's top
    # exponent and [a, b ^ Z] from a's; pairs of terms of different series
    # cover one side without a top member (G or P_i against gamma_j) and,
    # from level 2 on, top members of different 2-adic value (P_i against
    # D_j, G against M_i)
    ctx = get_context(k)

    def inner(kind):
        return [s for s in series(ctx, kind).terms[1:] if not s.is_trivial()]

    g, gam, power, dim, m = full_group(ctx), *(inner(kind) for kind in (
        SeriesKind.GAMMA, SeriesKind.POWER, SeriesKind.DIMENSION, SeriesKind.M))
    pairs = ([(g, s) for s in m + gam[::2]] + [(p, d) for p in power for d in dim[::2]]
             + [(s, p) for s in gam[::3] for p in power[:2]])
    tops = [(_top_exponent(a), _top_exponent(b)) for a, b in pairs]
    assert any(bool(ta) != bool(tb) for ta, tb in tops)
    assert k == 1 or any(ta and tb and ta != tb for ta, tb in tops)
    for a, b in pairs:
        assert a is not b
        assert commutator_subgroup(a, b) == _ordered_pair_commutator_subgroup(a, b)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_central_gamma_terms_close_without_sifting(k, monkeypatch):
    # [a, G] for a lower central term inside the centre block is (1 + X)a,
    # which commutator_subgroup builds by shifting and reducing central
    # rows: no _reduce call
    ctx = get_context(k)
    calls = []
    sift = subgroup_module._reduce

    def counted(*args):
        calls.append(1)
        return sift(*args)

    terms = [s for s in series(ctx, SeriesKind.GAMMA).terms
             if not s.is_trivial() and all(m.is_central_block() for m in s.igs)]
    assert terms
    monkeypatch.setattr(subgroup_module, "_reduce", counted)
    for s in terms:
        del calls[:]
        got = commutator_subgroup(s, full_group(ctx))
        assert not calls, (s, len(calls))
        assert got == normal_closure([commutator(u, ctx.x()) for u in s.igs])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_closed_form_central_checks(k):
    # only the pairs of x with central members fail to commute in <Z, x>,
    # and central containment is read from the tail alone
    ctx = get_context(k)
    z, pairs = centre_block_subgroup(ctx), pair_block_subgroup(ctx)
    with pytest.raises(ValueError, match="not abelian"):
        layer_shape(extend(z, [ctx.x()]), trivial_subgroup(ctx))
    assert not pairs.contains_subgroup(z)
    assert z.contains_subgroup(pairs)


def _ordered_pair_layer_shape(s, t):
    """Reference layer shape: None unless every ordered pair of members
    commutes modulo t, else the invariants read off power ranks, each
    power subgroup closed from t's members afresh."""
    if not all(t.contains(commutator(u, v)) for u in s.igs for v in s.igs):
        return None
    logs = [s.log_order]
    while logs[-1] > t.log_order:
        e = 1 << len(logs)
        logs.append(close(list(t.igs) + [g ** e for g in s.igs]).log_order)
    ranks = [hi - lo for hi, lo in zip(logs, logs[1:])] + [0]
    return tuple(q for m in range(len(ranks) - 2, -1, -1)
                 for q in (2 << m,) * (ranks[m] - ranks[m + 1]))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_layer_shapes_match_all_ordered_pairs(k):
    # on a canonical sequence the pair loop visits the top member with
    # every later one and base members with base members only; the shape of
    # every layer, of G over every term and of every term over 1 must match
    # the all-ordered-pairs route (the derived subgroups are checked in
    # test_unordered_pairs_and_two_conjugators_match_references)
    ctx = get_context(k)
    for kind in SeriesKind:
        terms = series(ctx, kind).terms
        pairs = list(zip(terms, terms[1:]))
        pairs += [(terms[0], t) for t in terms[2:]] + [(s, terms[-1]) for s in terms[1:-2]]
        for s, t in pairs:
            try:
                shape = layer_shape(s, t)
            except ValueError:
                shape = None
            assert shape == _ordered_pair_layer_shape(s, t), (kind, s, t)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_extend_matches_close_on_series_layers(k):
    # extend(t, gens, C) against close(t.igs + gens, C) for each term t and
    # the members, the squares and a random element of the term above it
    ctx = get_context(k)
    rng = random.Random(5 * k)
    for kind in SeriesKind:
        terms = series(ctx, kind).terms
        for s, t in zip(terms, terms[1:]):
            for gens in (list(s.igs), [g ** 2 for g in s.igs], [random_element(ctx, rng)]):
                for conj in ((), (ctx.x(), ctx.y())):
                    got = extend(t, gens, conj)
                    want = close(list(t.igs) + gens, conj)
                    assert got.igs == want.igs and got.log_order == want.log_order


def _assert_reduced_tail(sub):
    tail = sub._table()[3]
    assert tail.pivots == sum(tail.rows)
    for q, row in tail.rows.items():
        assert q == row & -row
        assert not row & (tail.pivots ^ q), "a row has a bit at another row's pivot"


@pytest.mark.parametrize("k", [1, 2, 3])
def test_central_tails_stay_reduced(k):
    # close() back-substitutes its plain tail once, at the canonical pass:
    # every series term and every extend result is in reduced row-echelon form
    ctx = get_context(k)
    rng = random.Random(17 * k)
    for kind in SeriesKind:
        terms = series(ctx, kind).terms
        for t in terms:
            _assert_reduced_tail(t)
        for s, t in zip(terms, terms[1:]):
            for gens in (list(s.igs), [random_element(ctx, rng)]):
                for conj in ((), (ctx.x(), ctx.y())):
                    _assert_reduced_tail(extend(t, gens, conj))


def test_extend_edge_cases(ctx1, ctx2):
    h = base_and_centre_subgroup(ctx2)
    assert extend(h, []) is h
    assert extend(h, [ctx2.y()]) is h  # already a member
    assert extend(trivial_subgroup(ctx2), [ctx2.x()]) == close([ctx2.x()])
    with pytest.raises(ValueError):
        extend(h, [ctx1.x()])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_derived_structure(k):
    ctx = get_context(k)
    g = full_group(ctx)
    h = base_and_centre_subgroup(ctx)
    z = centre_block_subgroup(ctx)
    assert commutator_subgroup(g, trivial_subgroup(ctx)).is_trivial()
    assert commutator_subgroup(h, z).is_trivial()
    hh = commutator_subgroup(h, h)
    assert z.contains_subgroup(hh)
    assert hh == pair_block_subgroup(ctx)
    assert agemo_mod_derived(h) == z
    assert commutator_subgroup(h, g) == commutator_subgroup(g, h)


def test_agemo_examples(ctx1):
    g = full_group(ctx1)
    frat = agemo_mod_derived(g)
    assert g.log_order - frat.log_order == 2  # two-generated group
    assert agemo_mod_derived(trivial_subgroup(ctx1)).is_trivial()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_shuffled_generators_give_identical_sequences(k):
    ctx = get_context(k)
    rng = random.Random(17 * k)
    gens = [random_element(ctx, rng) for _ in range(5)] + [ctx.y()]
    base = close(gens)
    for _ in range(25):
        rng.shuffle(gens)
        assert close(gens) == base


def test_join_and_intersect_basics(ctx2):
    g = full_group(ctx2)
    z = centre_block_subgroup(ctx2)
    h = base_and_centre_subgroup(ctx2)
    assert intersect(h, g) == h
    assert intersect(g, z) == z
    assert join(z, h) == h
    assert join(trivial_subgroup(ctx2), z) == z
    assert intersect(z, trivial_subgroup(ctx2)).is_trivial()


def test_flat_intersection_agrees_with_enumeration(ctx2):
    rng = random.Random(12)
    z = centre_block_subgroup(ctx2)
    h = base_and_centre_subgroup(ctx2)
    for flat in (z, h, pair_block_subgroup(ctx2)):
        for _ in range(10):
            sub = normal_closure([random_element(ctx2, rng)])
            got = intersect(sub, flat)
            want = close([g for g in enumerate_elements(sub) if flat.contains(g)]
                         or [ctx2.identity()])
            assert got == want


def test_central_subspace_intersection(ctx3):
    rng = random.Random(8)
    z = centre_block_subgroup(ctx3)
    for _ in range(20):
        u = close([ctx3.central_from_mask(rng.getrandbits(ctx3.d)) for _ in range(4)]
                  + [ctx3.identity()])
        v = close([ctx3.central_from_mask(rng.getrandbits(ctx3.d)) for _ in range(4)]
                  + [ctx3.identity()])
        assert intersect(u, z) == u
        with pytest.raises(UnsupportedExactIntersection):
            intersect(u, v)


# -- references for the closure-free routes: the former implementations ----

def _reference_suffix_intersect(sub, start):
    """The members of sub with lead >= start, closed again."""
    ctx = sub.ctx
    kept = [m for m in sub.igs if _lead(ctx, m) >= start]
    return close(kept) if kept else trivial_subgroup(ctx)


def _reference_reduce(sub, members, g):
    """The position walk over members (lead -> member of sub): every leader
    in increasing position, central leaders one coordinate test each."""
    n = sub.ctx.n
    for p in sorted(members):
        L = members[p]
        if p == 0:
            if g.t and (g.t & -g.t) >= L.t:  # L.t is a power of two
                g = g * (L ** (-(g.t // L.t)))
        elif p <= n:
            if (g.a >> (p - 1)) & 1:
                g = g * L.inverse()
        elif (g.z >> (p - 1 - n)) & 1:
            g = g * L
    return g


def _all_terms(ctx):
    return [sub for kind in SeriesKind for sub in series(ctx, kind).terms]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_intersect_matches_closure_route(k):
    ctx = get_context(k)
    n = ctx.n
    flats = [(centre_block_subgroup(ctx), 1 + n), (base_and_centre_subgroup(ctx), 1),
             (pair_block_subgroup(ctx), 1 + 2 * n)]
    for sub in _all_terms(ctx):
        for flat, start in flats:
            want = _reference_suffix_intersect(sub, start)
            assert intersect(sub, flat) == want
            assert intersect(flat, sub) == want
            assert intersect(sub, flat).log_order == want.log_order


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_central_cap_logs_match_join_reference(k):
    # log |T ^ S| = log T + log A - log join(T, A), A = S ^ Z closed again
    ctx = get_context(k)
    n = ctx.n
    rng = random.Random(70 + k)

    def masks():
        return [ctx.central_from_mask(rng.getrandbits(ctx.d)) for _ in range(3)]

    targets = [centre_block_subgroup(ctx), trivial_subgroup(ctx)]
    targets += [close(masks(), conjugators=(ctx.x(),)) for _ in range(2)]
    targets += [close(masks()) for _ in range(2)]
    for kind in SeriesKind:
        terms = series(ctx, kind).terms
        centrals = [_reference_suffix_intersect(sub, 1 + n) for sub in terms]
        for t in targets:
            want = [t.log_order + a.log_order - join(t, a).log_order for a in centrals]
            assert central_cap_logs(t, central_flag(terms)) == want


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_central_flag_matches_span_reference(k):
    # the flag route against the span loop it replaced, on every series, on
    # the benchmark's seeded targets and on chains that are not whole series
    ctx = get_context(k)
    rng = random.Random(90 + k)
    targets = [centre_block_subgroup(ctx), trivial_subgroup(ctx), pair_block_subgroup(ctx)]
    targets += seeded_targets(ctx, 1) + seeded_targets(ctx, 2)
    targets += [close([ctx.central_from_mask(rng.getrandbits(ctx.d)) for _ in range(2)])]
    for kind in SeriesKind:
        terms = series(ctx, kind).terms
        for chain in (terms, terms[1:], terms[2:-1]):
            if chain:
                flag = central_flag(chain)
                for t in targets:
                    assert central_cap_logs(t, flag) == span_cap_logs(t, chain)


def test_central_flag_dims_and_levels(ctx2, ctx3):
    # dims are the tails' dimensions; a target of another level is refused
    terms = series(ctx3, SeriesKind.GAMMA).terms
    flag = central_flag(terms)
    assert flag.dims == [len(sub._table()[3].rows) for sub in terms]
    assert flag.dims[0] == ctx3.d and flag.dims[-1] == 0
    with pytest.raises(ValueError):
        central_cap_logs(centre_block_subgroup(ctx2), flag)


def test_central_cap_logs_rejects_non_central(ctx2):
    with pytest.raises(ValueError):
        central_cap_logs(base_and_centre_subgroup(ctx2),
                         central_flag(series(ctx2, SeriesKind.GAMMA).terms))


def test_central_span_matches_closure(ctx3):
    # close() on central masks keeps their span in reduced row-echelon form
    rng = random.Random(17)
    d = ctx3.d
    assert close([ctx3.central_from_mask(0)] * 2) == trivial_subgroup(ctx3)
    for size in range(1, 40):
        masks = [rng.getrandbits(d) for _ in range(size)]
        # dependent members: sums of earlier masks, repeats and zero
        masks += [masks[0] ^ masks[-1], masks[size // 2], 0]
        if size % 3 == 0:
            masks = [m & rng.getrandbits(d) for m in masks]  # sparse rows
        rng.shuffle(masks)
        got = close([ctx3.central_from_mask(m) for m in masks])
        assert got.log_order == len(got.igs)
        # reduced row-echelon: no row has a set bit at another row's pivot
        rows = [m.z for m in got.igs]
        pivots = [r & -r for r in rows]
        assert pivots == sorted(set(pivots))
        assert all(r & p == 0 for r in rows for p in pivots if p != r & -r)
        assert len(rows) == _rank(masks)


def _rank(masks):
    """GF(2) rank by plain elimination on the highest set bit."""
    basis = {}
    for m in masks:
        while m:
            top = m.bit_length()
            if top not in basis:
                basis[top] = m
                break
            m ^= basis[top]
    return len(basis)


@pytest.mark.parametrize("k", [3, 4])
def test_reduce_matches_position_walk(k):
    # 2,000 seeded elements, element j through every 16th series term from
    # term j mod 16: each term meets about 125 of them
    ctx = get_context(k)
    rng = random.Random(60 + k)
    terms = [(sub, {_lead(ctx, m): m for m in sub.igs}) for sub in _all_terms(ctx)]
    for j in range(2000):
        g = random_element(ctx, rng)
        for sub, members in terms[j % 16::16]:
            assert sub.reduce(g) == _reference_reduce(sub, members, g)


def _scrambled_table(sub, rng):
    """sub's table with the same pivots in plain echelon form: each central
    row XOR-ed with random deeper rows, each base member and the top member
    multiplied on the right by random deeper members."""
    ctx = sub.ctx
    top, base, pivots, tail = sub._table()
    rows = tail.rows
    plain = _Tail(fold(xor, _some(rng, [rows[p] for p in rows if p > q]), rows[q])
                  for q in rows)
    centrals = [ctx.central_from_mask(r) for r in rows.values()]
    scrambled = {}
    for q, m in base.items():
        m = fold(mul, _some(rng, [base[p] for p in base if p > q] + centrals), m)
        assert m.a & -m.a == q
        scrambled[q] = m
    if top is not None:
        top = fold(mul, _some(rng, list(base.values()) + centrals), top)
    return top, scrambled, pivots, plain


def _some(rng, items):
    """A random subset of items, in order."""
    return [x for x in items if rng.random() < 0.5]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_plain_table_sifts_canonically(k):
    # a sift depends only on the pivots of the table, not on whether its
    # rows are back-substituted (subgroup module docstring, Echelon tables)
    ctx = get_context(k)
    rng = random.Random(90 + k)
    changed = 0
    for sub in _all_terms(ctx):
        table = _scrambled_table(sub, rng)
        changed += table[3].rows != sub._table()[3].rows
        changed += table[1] != sub._table()[1]
        gs = [random_element(ctx, rng) for _ in range(8)]
        gs += [fold(mul, _some(rng, sub.igs), g) for g in gs[:2]]
        for g in gs:
            assert _reduce(ctx, *table, g) == sub.reduce(g)
    assert changed


@pytest.mark.parametrize("k", [2, 3])
def test_unsupported_exact_intersection_signal(k):
    ctx = get_context(k)
    a = normal_closure([ctx.c(4)])
    b = normal_closure([ctx.c(3)])
    with pytest.raises(UnsupportedExactIntersection):
        intersect(a, b)


def test_flat_intersection_exactness_invariant(ctx3):
    # log |S| = log |S ^ Z| + log of the wreath image of S, where the image
    # log is the relative-order sum over the non-central leaders
    rng = random.Random(23)
    z = centre_block_subgroup(ctx3)
    for _ in range(8):
        sub = normal_closure([random_element(ctx3, rng)])
        capz = intersect(sub, z)
        image_log = sub.log_order - capz.log_order
        noncentral = sum(
            r.bit_length() - 1
            for m, r in zip(sub.igs, leader_orders(sub))
            if not m.is_central_block()
        )
        assert noncentral == image_log


def test_layer_shape_basics(ctx1, ctx2):
    g1 = full_group(ctx1)
    assert layer_shape(g1, g1) == ()
    gam2_1 = series(ctx1, SeriesKind.GAMMA).term(2)
    assert layer_shape(g1, gam2_1) == (4, 2)
    g2 = full_group(ctx2)
    gam2_2 = series(ctx2, SeriesKind.GAMMA).term(2)
    assert layer_shape(g2, gam2_2) == (4, 4)
    shape = layer_shape(g2, gam2_2)
    assert sum(q.bit_length() - 1 for q in shape) == g2.log_order - gam2_2.log_order


def test_layer_shape_rejects_nonabelian(ctx2):
    g = full_group(ctx2)
    with pytest.raises(ValueError):
        layer_shape(g, trivial_subgroup(ctx2))


def test_layer_shape_rejects_non_subgroup(ctx2):
    h = base_and_centre_subgroup(ctx2)
    top = close([ctx2.x()])
    with pytest.raises(ValueError):
        layer_shape(h, top)


def test_normality_checks(ctx2):
    assert is_normal(centre_block_subgroup(ctx2))
    assert is_normal(base_and_centre_subgroup(ctx2))
    assert not is_normal(close([ctx2.y()]))
