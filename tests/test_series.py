"""Filtration series: lengths, closed forms, scaffolds and identities."""

import functools
import random
import sys
from math import comb

import pytest

import wrsp

from conftest import (
    WreathElement,
    commutator_with_group,
    double_product_rhs,
    is_normal,
    pair_gen,
    projection_map,
    random_element,
    scaffold_t,
    square_gen,
)
from wrsp import claims, engine
from wrsp import series as series_module
from wrsp import subgroup as subgroup_module
from wrsp.claims import run_claims
from wrsp.engine import commutator, get_context
from wrsp.series import (
    SeriesKind,
    _dimension_heads,
    _lower_2_heads,
    _power_generators,
    _weight_filtered_closure,
    commutator_identity_checks,
    exact_power_subgroup,
    expected_gamma_layer,
    gamma_n_subgroups,
    lcs_generator_check,
    power_expansion_check,
    power_series,
    projection_kernel,
    scaffold_heads,
    series,
    shift_identity_check,
    stated_gamma_generators,
)
from wrsp.subgroup import (
    agemo_mod_derived,
    centre_block_subgroup,
    close,
    commutator_subgroup,
    extend,
    full_group,
    intersect,
    join,
    layer_shape,
    noncentral_squares,
    normal_closure,
    trivial_subgroup,
)


# frozen level-1 tables, derived by hand from the defining relations
LEVEL1_LOGS = {
    SeriesKind.GAMMA: [6, 3, 2, 0],
    SeriesKind.LOWER_P: [6, 4, 2, 0],
    SeriesKind.DIMENSION: [6, 4, 2, 1, 0],
    SeriesKind.FRATTINI: [6, 4, 1, 0],
    SeriesKind.POWER: [6, 4, 1, 0],
    SeriesKind.M: [6, 0],
}


@pytest.mark.parametrize("kind", list(LEVEL1_LOGS))
def test_level_one_series_logs(ctx1, kind):
    tbl = series(ctx1, kind)
    assert [s.log_order for s in tbl.terms] == LEVEL1_LOGS[kind]


@pytest.mark.parametrize("k,want", [(1, 3), (2, 7), (3, 15)])
def test_nilpotency_class(k, want):
    assert series(get_context(k), SeriesKind.GAMMA).length == want


def test_level_two_gamma_layers(ctx2):
    tbl = series(ctx2, SeriesKind.GAMMA)
    layers = [a.log_order - b.log_order for a, b in zip(tbl.terms, tbl.terms[1:])]
    assert layers == [4, 2, 2, 2, 3, 2, 1]


@pytest.mark.parametrize("k", [1, 2])
def test_series_terms_are_normal(k):
    ctx = get_context(k)
    for kind in (SeriesKind.GAMMA, SeriesKind.LOWER_P, SeriesKind.FRATTINI,
                 SeriesKind.DIMENSION, SeriesKind.M):
        for sub in series(ctx, kind).terms:
            assert is_normal(sub)


@pytest.mark.parametrize("k", [1, 2])
def test_lcs_generator_check_small(k):
    rep = lcs_generator_check(get_context(k))
    assert rep["ok"], rep
    assert rep["layer_log_sum"] == rep["log_order"]


def test_stated_generators_level2_examples(ctx2):
    # stated lists specialised by hand at level 2
    names5 = stated_gamma_generators(ctx2, 5)
    assert names5 == [ctx2.c(5), ctx2.cij(2, 3), ctx2.cij(4, 1)]
    # the last layer's listed double chains are trivial by the even-m lemma,
    # so the surviving list is empty, matching the trivial term
    assert stated_gamma_generators(ctx2, 8) == []
    assert ctx2.cij(4, 4).is_identity()
    assert ctx2.cij(6, 2).is_identity()
    assert expected_gamma_layer(2, 5) == (2, 2, 2)
    assert expected_gamma_layer(2, 1) == (4, 4)


def _reference_gamma_layer(k, i):
    # the piecewise form, one branch per parity: the reference for the
    # floor expressions of expected_gamma_layer
    n = 1 << k
    half = n // 2
    if i == 1:
        return tuple(sorted((1 << k, 4), reverse=True))
    if 2 <= i <= half:
        count = (i - 2) // 2 if i % 2 == 0 else (i - 1) // 2
        return tuple(sorted((4,) + (2,) * count, reverse=True))
    if half + 1 <= i <= n:
        count = i // 2 if i % 2 == 0 else (i + 1) // 2
        return (2,) * count
    if n + 1 <= i <= n + half:
        count = (2 * n - i + 2) // 2 if i % 2 == 0 else (2 * n - i + 3) // 2
        return (2,) * count
    if n + half + 1 <= i <= 2 * n:
        count = (2 * n - i) // 2 if i % 2 == 0 else (2 * n - i + 1) // 2
        return (2,) * count
    raise ValueError("layer index out of range")


def _reference_remark_index(i):
    # m(m - 1) for odd i = 2m - 1, m(m - 1) + m for even i = 2m
    if i % 2 == 1:
        m = (i + 1) // 2
        return m * (m - 1)
    m = i // 2
    return m * (m - 1) + m


@pytest.mark.parametrize("k", range(1, 11))
def test_closed_forms_match_piecewise_references(k):
    n = 1 << k
    for i in range(1, 2 * n + 1):
        assert expected_gamma_layer(k, i) == _reference_gamma_layer(k, i), i
        assert claims.remark_index_formula(i) == _reference_remark_index(i), i
    for i in (0, 2 * n + 1):
        with pytest.raises(ValueError):
            expected_gamma_layer(k, i)


@pytest.mark.parametrize("k,want", [(1, 3), (2, 7), (3, 15)])
def test_lower2_length(k, want):
    assert series(get_context(k), SeriesKind.LOWER_P).length == want


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lower2_closed_forms(k):
    ctx = get_context(k)
    n = ctx.n
    tbl = series(ctx, SeriesKind.LOWER_P)
    gam = series(ctx, SeriesKind.GAMMA)
    x = ctx.x()
    assert tbl.term(2) == close([x ** 2, ctx.y() ** 2] + list(gam.term(2).igs))
    for i in range(3, 2 * n + 1):
        gens = [x ** (1 << (i - 1))]
        if 3 <= i <= n // 2 + 1:
            gens.append(ctx.c(i - 1) ** 2)
        gens = [g for g in gens if not g.is_identity()]
        want = close(gens + list(gam.term(i).igs)) if (gens or gam.term(i).igs) \
            else trivial_subgroup(ctx)
        assert tbl.term(i) == want, (k, i)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_lower2_product_form(k):
    """The lower exponent-2 central series in product form,
    lambda_i = prod_(j <= i) gamma_j^(2^(i-j)), agrees with the built terms
    for every i >= 2.  For 2 <= j <= i - 2 the factor is trivial, as
    gamma_j lies in the trivial-top part, of exponent 4.  The factor
    gamma_(i-1)^2 is gamma_i-modulo the squares of an igs, as
    [gamma_(i-1), gamma_(i-1)] <= gamma_i, and G^(2^(i-1)) is the normal
    closure of _power_generators(ctx, i - 1)."""
    ctx = get_context(k)
    gam, tbl = series(ctx, SeriesKind.GAMMA), series(ctx, SeriesKind.LOWER_P)
    for i in range(2, tbl.length + 2):
        gens = [u ** 2 for u in gam.term(i - 1).igs] + _power_generators(ctx, i - 1)
        assert extend(gam.term(i), gens, (ctx.x(), ctx.y())).igs == tbl.term(i).igs, i


@pytest.mark.parametrize("k,want", [(1, 4), (2, 8), (3, 16)])
def test_dimension_length(k, want):
    assert series(get_context(k), SeriesKind.DIMENSION).length == want


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dimension_closed_form_and_product_form(k):
    ctx = get_context(k)
    n = ctx.n
    tbl = series(ctx, SeriesKind.DIMENSION)
    gam = series(ctx, SeriesKind.GAMMA)
    x, y = ctx.x(), ctx.y()
    # certificate that the deeper agemo factors vanish: the trivial-top part
    # has exponent 4, and every later term sits inside it
    for m in gam.term(2).igs:
        assert (m ** 4).is_identity()
        assert m.t == 0
    for i in range(2, 2 * n + 1):
        l = (i - 1).bit_length()
        half = (i + 1) // 2
        gens = [x ** (1 << l)] + [g * g for g in gam.term(half).igs] \
            + list(gam.term(i).igs)
        gens = [g for g in gens if not g.is_identity()]
        closed = close(gens) if gens else trivial_subgroup(ctx)
        assert tbl.term(i) == closed, ("closed form", k, i)
        gens2 = list(gam.term(i).igs) + [g * g for g in gam.term(half).igs]
        gens2 += [x ** (1 << l), y ** (1 << l)]
        for m in range(2, k + 3):
            nn = (i + (1 << m) - 1) >> m
            if nn >= 2:
                gens2 += [g ** (1 << m) for g in gam.term(nn).igs]
        gens2 = [g for g in gens2 if not g.is_identity()]
        product = close(gens2) if gens2 else trivial_subgroup(ctx)
        assert tbl.term(i) == product, ("product form", k, i)


def _reference_lower2_terms(ctx):
    # the two-closure recurrence: P_i = ncl([P_{i-1}, G] + squares of P_{i-1})
    terms = [full_group(ctx)]
    while not terms[-1].is_trivial():
        prev = terms[-1]
        gens = list(commutator_with_group(prev).igs) + [g * g for g in prev.igs]
        gens = [g for g in gens if not g.is_identity()]
        terms.append(normal_closure(gens) if gens else trivial_subgroup(ctx))
    return terms


def _reference_dimension_terms(ctx):
    # the product recurrence: D_i = D_ceil(i/2)^2 prod_{j <= i/2} [D_j, D_{i-j}]
    terms = [full_group(ctx)]  # index 1
    while not terms[-1].is_trivial():
        i = len(terms) + 1
        gens = []
        for j in range(1, i // 2 + 1):
            gens.extend(commutator_subgroup(terms[j - 1], terms[i - j - 1]).igs)
        gens.extend(g * g for g in terms[(i + 1) // 2 - 1].igs)
        gens = [g for g in gens if not g.is_identity()]
        terms.append(normal_closure(gens) if gens else trivial_subgroup(ctx))
    return terms


REFERENCE_TERMS = {
    SeriesKind.LOWER_P: _reference_lower2_terms,
    SeriesKind.DIMENSION: _reference_dimension_terms,
}


# at level 5 the lower 2-series case takes about 2 s, but the from-scratch
# dimension reference alone takes 7-11 s, so that case stays at k <= 4
REFERENCE_CASES = [(kind, k) for kind in REFERENCE_TERMS for k in (1, 2, 3, 4)] \
    + [(SeriesKind.LOWER_P, 5)]


@pytest.mark.parametrize("kind,k", REFERENCE_CASES,
                         ids=[f"{kind.value}-{k}" for kind, k in REFERENCE_CASES])
def test_recurrence_matches_reference(kind, k):
    ctx = get_context(k)
    got = series(ctx, kind).terms
    want = REFERENCE_TERMS[kind](ctx)
    assert [s.igs for s in got] == [s.igs for s in want], (k, kind.value)


def test_frattini_series_descends_to_trivial(ctx3):
    tbl = series(ctx3, SeriesKind.FRATTINI)
    logs = [s.log_order for s in tbl.terms]
    assert logs[0] == 47 and logs[-1] == 0
    assert all(a > b for a, b in zip(logs, logs[1:]))
    assert ctx3.log_order - tbl.term(1).log_order == 2  # two-generated


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_frattini_layers_are_elementary_abelian(k):
    tbl = series(get_context(k), SeriesKind.FRATTINI)
    for i, sub in tbl.indexed_terms():
        nxt = tbl.term(i + 1)
        assert all(nxt.contains(g * g) for g in sub.igs)
        shape = tbl.layer(i)
        assert set(shape) <= {2}
        assert len(shape) == sub.log_order - nxt.log_order


def _is_abelian_layer(s, t):
    return all(t.contains(commutator(u, v)) for u in s.igs for v in s.igs)


def _census_shape(s, t):
    """Abelian invariants of s/t from the orders of all its cosets."""
    ctx = s.ctx
    reps = {ctx.identity()}
    frontier = [ctx.identity()]
    while frontier:
        nxt = []
        for r in frontier:
            for m in s.igs:
                c = t.reduce(r * m)
                if c not in reps:
                    reps.add(c)
                    nxt.append(c)
        frontier = nxt
    assert len(reps) == 1 << (s.log_order - t.log_order)
    exps = []
    for r in reps:
        m = 0
        while not t.contains(r):
            r, m = r * r, m + 1
        exps.append(m)
    # killed[m]: log of the number of cosets whose order divides 2^m, so
    # at_least[m] = killed[m] - killed[m - 1] invariants have order >= 2^m
    top = max(exps)
    killed = [sum(e <= m for e in exps).bit_length() - 1 for m in range(top + 2)]
    at_least = [None] + [killed[m] - killed[m - 1] for m in range(1, top + 2)]
    shape = []
    for m in range(1, top + 1):
        shape += [1 << m] * (at_least[m] - at_least[m + 1])
    return tuple(sorted(shape, reverse=True))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("kind", list(SeriesKind))
def test_layer_shape_matches_coset_census(k, kind):
    tbl = series(get_context(k), kind)
    checked = 0
    for i, sub in tbl.indexed_terms():
        nxt = tbl.term(i + 1)
        if not _is_abelian_layer(sub, nxt):
            with pytest.raises(ValueError):
                layer_shape(sub, nxt)
        elif sub.log_order - nxt.log_order <= 12:
            assert layer_shape(sub, nxt) == _census_shape(sub, nxt), (k, kind.value, i)
            checked += 1
    assert checked


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_series_layer_matches_layer_shape(k):
    # SeriesTable.layer skips the checks the series certifies; the public
    # layer_shape runs them all, so the two agree on every layer, and a
    # nonabelian layer raises in both
    ctx = get_context(k)
    nonabelian = 0
    for kind in SeriesKind:
        tbl = series(ctx, kind)
        for i, sub in tbl.indexed_terms():
            try:
                want = layer_shape(sub, tbl.term(i + 1))
            except ValueError:
                nonabelian += 1
                with pytest.raises(ValueError):
                    tbl.layer(i)
            else:
                assert tbl.layer(i) == want, (kind.value, i)
    assert nonabelian


STEP_LENGTHS = {SeriesKind.GAMMA: lambda n: 2 * n - 1, SeriesKind.LOWER_P: lambda n: 2 * n - 1,
                SeriesKind.DIMENSION: lambda n: 2 * n}
STEP_CASES = [(kind, k) for kind in STEP_LENGTHS for k in (2, 3, 4)]


@pytest.mark.parametrize("kind,k", STEP_CASES,
                         ids=[f"{kind.value}-{k}" for kind, k in STEP_CASES])
def test_steps_extend_gamma(kind, k, monkeypatch):
    # gamma is built from its stated generator lists, and the lower
    # 2-series and dimension terms from their closed forms over gamma_i:
    # no build derives an [a, G] or an [a, b], so none calls
    # commutator_subgroup or the closed-form central rows that start it
    ctx = engine.GroupContext(k)
    calls = []

    def counted(name):
        orig = getattr(wrsp.subgroup, name)

        def wrapper(*args):
            calls.append(name)
            return orig(*args)
        monkeypatch.setattr(wrsp.subgroup, name, wrapper)

    counted("commutator_subgroup")
    counted("_insert_commutator_rows")
    gamma = series(ctx, SeriesKind.GAMMA)
    tbl = series(ctx, kind)
    assert calls == []
    assert gamma.length == 2 * ctx.n - 1
    assert tbl.length == STEP_LENGTHS[kind](ctx.n)


def test_series_claims_build_no_subgroup(monkeypatch):
    # the stated lists and the closed forms are the series themselves, so
    # once the series and their layer shapes are known these claims close
    # no subgroup of their own
    ctx = engine.GroupContext(3)
    ids = ("prop-lcs-layers", "prop-lower2", "prop-dimension")
    monkeypatch.setattr(wrsp.series, "abelian_invariants",
                        functools.cache(wrsp.series.abelian_invariants))
    assert all(claims.CLAIMS[cid].runner(ctx)[0] for cid in ids)
    grown = []
    grow = wrsp.subgroup._grow
    monkeypatch.setattr(wrsp.subgroup, "_grow", lambda *args: grown.append(1) or grow(*args))
    assert all(claims.CLAIMS[cid].runner(ctx)[0] for cid in ids)
    assert grown == []


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_gamma_matches_reference_route(k):
    # every term is [a, G] of the one before, the normal closure of the
    # commutators of a's members with x and y
    terms = series(get_context(k), SeriesKind.GAMMA).terms
    for i, (prev, cur) in enumerate(zip(terms, terms[1:]), start=2):
        assert cur.igs == commutator_with_group(prev).igs, (k, i)


def test_gamma_certificate_catches_a_missing_generator(monkeypatch):
    # without c_5 the fifth layer is short, and c_4, in the fourth layer,
    # no longer commutes with x modulo it
    stated = wrsp.series.stated_gamma_generators
    monkeypatch.setattr(wrsp.series, "stated_gamma_generators",
                        lambda ctx, i: [g for g in stated(ctx, i) if g != ctx.c(5)])
    with pytest.raises(RuntimeError, match="lower central layer 4 is not central"):
        series(engine.GroupContext(2), SeriesKind.GAMMA)


def _patch_heads(monkeypatch, name, heads_at):
    """Build every closed form from heads_at(ctx, i, heads(ctx, i)) in place
    of heads(ctx, i), heads the series module's function of that name."""
    heads = getattr(wrsp.series, name)
    monkeypatch.setattr(wrsp.series, name, lambda ctx, i: heads_at(ctx, i, heads(ctx, i)))


@pytest.mark.parametrize("k,i", [(2, 3), (3, 3), (3, 5)])
def test_lower2_certificate_catches_a_missing_square(k, i, monkeypatch):
    _patch_heads(monkeypatch, "_lower_2_heads",
                 lambda ctx, j, heads: [h for h in heads if j != i or h != ctx.c(i - 1) ** 2])
    with pytest.raises(RuntimeError, match=f"closed form {i} misses a generator"):
        series(engine.GroupContext(k), SeriesKind.LOWER_P)


def test_dimension_certificate_catches_missing_squares(monkeypatch):
    # the closed forms with x^(2^l) alone miss y^2, a generator of G^2
    _patch_heads(monkeypatch, "_dimension_heads", lambda ctx, i, heads: heads[:1])
    for k in (2, 3, 4):
        with pytest.raises(RuntimeError, match="closed form 2 misses a generator of G\\^2$"):
            series(engine.GroupContext(k), SeriesKind.DIMENSION)


def test_dimension_certificate_catches_a_missing_power_of_x(monkeypatch):
    # without x^(2^l), D_2 still holds x^2 as the square of x, a member of
    # gamma_1, but D_4 misses x^4, a generator of G^4; at level 2 x^4 = 1,
    # so there the mutation changes no term
    def igs_texts():
        terms = series(engine.GroupContext(2), SeriesKind.DIMENSION).terms
        return [[m.text() for m in sub.igs] for sub in terms]

    want = igs_texts()
    _patch_heads(monkeypatch, "_dimension_heads", lambda ctx, i, heads: heads[1:])
    assert igs_texts() == want
    for k in (3, 4):
        with pytest.raises(RuntimeError, match="closed form 4 misses a generator of G\\^4$"):
            series(engine.GroupContext(k), SeriesKind.DIMENSION)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_dimension_build_forms_no_pair_commutators(k, monkeypatch):
    # Lazard's formula certifies the closed forms by membership alone: no
    # [D_m, D_m] is owed
    def refuse(*_args):
        raise AssertionError("the dimension build formed pair commutators")

    for module in (series_module, subgroup_module):
        if hasattr(module, "noncentral_commutators"):
            monkeypatch.setattr(module, "noncentral_commutators", refuse)
    assert series(engine.GroupContext(k), SeriesKind.DIMENSION).length == 2 << k


@pytest.mark.parametrize("k", [2, 3, 4])
def test_lower2_certificate_brackets_catch_a_short_gamma(k, monkeypatch):
    # every closed form built over gamma_(i+1) in place of gamma_i: P_2 then
    # lacks [x, y], a bracket of the heads of P_1, yet holds the squares of
    # G's members, so only the bracket part of the certificate sees it
    built = wrsp.series.series

    def shifted(ctx, kind):
        tbl = built(ctx, kind)
        if kind != SeriesKind.GAMMA:
            return tbl
        return tbl._replace(terms=tbl.terms[1:])
    monkeypatch.setattr(wrsp.series, "series", shifted)
    with pytest.raises(RuntimeError, match="closed form 2 misses a generator"):
        series(engine.GroupContext(k), SeriesKind.LOWER_P)


HEADS = {SeriesKind.LOWER_P: _lower_2_heads, SeriesKind.DIMENSION: _dimension_heads}


def _member_brackets(ctx, terms):
    """The [r, x], [r, y] over the nonidentity reductions r of terms[-1]'s
    members modulo gamma_(i-1), i = len(terms) + 1: with gamma_i they
    generate [terms[-1], G], whatever generators built terms[-1]."""
    prev = series(ctx, SeriesKind.GAMMA).term(len(terms))
    reps = [r for r in map(prev.reduce, terms[-1].igs) if not r.is_identity()]
    return [commutator(r, g) for r in reps for g in (ctx.x(), ctx.y())]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_head_brackets_match_member_brackets(k):
    # the series docstring's argument for lower-2, which holds for the
    # dimension heads too: the brackets of the heads of C_(i-1) generate
    # [C_(i-1), G] modulo gamma_i, as the brackets of all of its members do
    ctx = get_context(k)
    x, y = ctx.x(), ctx.y()
    gamma = series(ctx, SeriesKind.GAMMA)
    for kind, heads in HEADS.items():
        terms = series(ctx, kind).terms
        for i in range(2, len(terms) + 1):
            by_heads = [commutator(h, g) for h in heads(ctx, i - 1) for g in (x, y)]
            by_members = _member_brackets(ctx, list(terms[:i - 1]))
            assert extend(gamma.term(i), by_heads, (x, y)) \
                == extend(gamma.term(i), by_members, (x, y)), (kind.value, i)


@pytest.mark.parametrize("k", [4, 5])
def test_closed_forms_are_plain_products(k):
    # the paper's product gamma_i <heads> is already normal: a plain closure
    # without conjugators gives every built term (k <= 3 in
    # test_lower2_closed_forms and test_dimension_closed_form_and_product_form)
    ctx = get_context(k)
    gamma = series(ctx, SeriesKind.GAMMA)
    for kind, heads in HEADS.items():
        for i, term in series(ctx, kind).indexed_terms()[1:]:
            assert extend(gamma.term(i), heads(ctx, i)) == term, (kind.value, i)


def test_lcs_claims_level6(monkeypatch):
    # a private context cache, so the level-6 tables are freed afterwards
    monkeypatch.setattr(engine, "_CONTEXTS", {})
    results = run_claims(6, ["prop-lcs-class", "prop-lcs-layers"])
    assert [r.status for r in results] == ["pass", "pass"], [r.details for r in results]
    assert results[1].details["layer_log_sum"] == 2150


def _derived_subgroup_dimension_terms(ctx):
    # the step that builds [D_m, D_m] as its own normal closure: gamma_i
    # extended by the [r, x], [r, y] seeds, the squares of D_m and the igs of
    # commutator_subgroup(D_m, D_m)
    gamma = series(ctx, SeriesKind.GAMMA)
    terms = [full_group(ctx)]  # index 1
    while not terms[-1].is_trivial():
        seeds = _member_brackets(ctx, terms)
        dm = terms[len(terms) // 2]  # D_ceil(i/2), i = len(terms) + 1
        seeds += noncentral_squares(dm) + list(commutator_subgroup(dm, dm).igs)
        terms.append(extend(gamma.term(len(terms) + 1), seeds, (ctx.x(), ctx.y())))
    return terms


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_dimension_step_matches_derived_subgroup_step(k):
    ctx = get_context(k)
    got = series(ctx, SeriesKind.DIMENSION).terms
    want = _derived_subgroup_dimension_terms(ctx)
    assert [s.igs for s in got] == [s.igs for s in want]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_dimension_step_needs_no_central_top_pairs(k):
    # D_m has no top member, or its top exponent t is at least m, and for
    # every central row r of D_m, r + X^t r = [r, x^t] already lies in
    # [D_(i-1), G], the extension of gamma_i by the [r, x], [r, y] seeds
    # alone: lemma-gamma-sq argues the same way for the scaffolds' central
    # rows against their top members
    ctx = get_context(k)
    terms = series(ctx, SeriesKind.DIMENSION).terms
    rows = 0
    for i in range(2, len(terms) + 1):
        m = (i + 1) // 2
        dm = terms[m - 1]
        t = dm.igs[0].t if dm.igs else 0
        if not t:
            continue
        assert t >= m and t & (t - 1) == 0, (i, m, t)
        seeds = _member_brackets(ctx, list(terms[:i - 1]))
        bracket = extend(series(ctx, SeriesKind.GAMMA).term(i), seeds, (ctx.x(), ctx.y()))
        for r in dm.igs:
            if r.is_central_block():
                assert bracket.contains(ctx.central_from_mask(r.z ^ ctx.shift_central(r.z, t)))
                rows += 1
    assert rows


@pytest.mark.parametrize("k", [1, 2])
def test_power_series_exact(k):
    ctx = get_context(k)
    tbl = series(ctx, SeriesKind.POWER)
    assert tbl.term(k + 2).is_trivial()
    assert not tbl.term(k + 1).is_trivial()
    sq = tbl.term(1)
    assert gamma_n_subgroups(ctx, 1).contains_subgroup(sq)
    assert ctx.log_order - sq.log_order >= 2
    assert sq.contains_subgroup(series(ctx, SeriesKind.GAMMA).term(4))
    assert exact_power_subgroup(ctx, 1) == sq


# log orders of the 2-power subgroups P_0 = G, P_1, ... down to the trivial one
POWER_LOGS = {
    3: [47, 45, 38, 13, 1, 0],
    4: [156, 154, 147, 122, 25, 1, 0],
    5: [565, 563, 556, 531, 434, 49, 1, 0],
}


@pytest.mark.parametrize("k", sorted(POWER_LOGS))
def test_power_series_exact_logs(k):
    tbl = series(get_context(k), SeriesKind.POWER)
    assert [s.log_order for s in tbl.terms] == POWER_LOGS[k]
    # P_(k+1) is the last nontrivial term, so the exponent is 2^(k+2)
    assert tbl.length == k + 1


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_exponent_claim_builds_no_power_subgroup(k, monkeypatch):
    # exp(G) divides 2^(k+2) because g^(2^k) lies in H, of exponent 4, so
    # the claim needs the witness x*y alone
    def refuse(ctx, i):
        raise AssertionError("lemma-exponent built a 2-power subgroup")

    monkeypatch.setattr("wrsp.series.exact_power_subgroup", refuse)
    ok, details = claims.CLAIMS["lemma-exponent"].runner(engine.GroupContext(k))
    assert ok and details["max_order"] == 1 << (k + 2)


@pytest.mark.parametrize("k", [1, 2])
def test_power_subgroup_matches_exhaustive_sweep(k):
    # reference: the subgroup generated by every 2**i-th power in the group
    ctx = get_context(k)
    powers = [set() for _ in range(k + 2)]  # powers[i - 1]: all 2**i-th powers
    for g in ctx.all_elements():
        for got in powers:
            g = g * g
            got.add(g)
    for i, got in enumerate(powers, start=1):
        assert close(got) == exact_power_subgroup(ctx, i), (k, i)


def _power_subgroup_over_all_tops(ctx, i):
    """P_i from every nonzero top exponent t, not only t = 2^v: the class
    representatives w^e with a < 2^(2^v2(t)) and the norm images for each t,
    plus the squares of single and paired base generators for e = 2."""
    e = 1 << i
    gens = []
    for t in range(1, ctx.tmod):
        gens += [ctx.element(t, a, 0) ** e for a in range(1 << (t & -t))]
        for b in range(ctx.d):
            v = 1 << b
            for j in range(i):
                v ^= ctx.shift_central(v, t << j)
            gens.append(ctx.central_from_mask(v))
    if e == 2:
        gens += [ctx.element(0, (1 << u) | (1 << w), 0) ** 2
                 for u in range(ctx.n) for w in range(u, ctx.n)]
    return normal_closure(gens)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_power_subgroup_needs_only_top_exponents_two_to_the_v(k):
    # for odd u, g^e is a power of (g^u)^e, so the tops t = 2^v give all of P_i
    ctx = get_context(k)
    for i in range(1, k + 3):
        want = _power_subgroup_over_all_tops(ctx, i)
        assert exact_power_subgroup(ctx, i).igs == want.igs, (k, i)


def _norm_orbit_bits(ctx):
    """s_0 and c_(0,j), 1 <= j <= n/2: one central basis row per x-orbit."""
    return [0] + [ctx.n + engine.pair_slot(0, j, ctx.n) for j in range(1, ctx.n // 2 + 1)]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_power_subgroup_holds_the_dropped_generators(k):
    # the closed form once took x^(te) and the images of N_(t,e) for every
    # t = 2^v; x^(te) = (x^e)^t and N_(t,e) factors through N_(1,e), so
    # both lie in P_i built from x^e and the N_(1,e) images alone
    ctx = engine.GroupContext(k)
    for i in range(1, k + 3):
        e = 1 << i
        sub = exact_power_subgroup(ctx, i)
        for t in (1 << v for v in range(ctx.k)):
            assert sub.contains(ctx.element(t, 0, 0) ** e), (k, i, t)
            for b in _norm_orbit_bits(ctx):
                img = 1 << b
                for j in range(i):
                    img ^= ctx.shift_central(img, t << j)
                assert sub.contains(ctx.central_from_mask(img)), (k, i, t, b)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_power_norm_is_a_power_of_one_plus_the_shift(k):
    # N_(t,e) = sum_(j<e) X^(tj) = (1 + X)^(t(e-1)) for t = 2^v, e = 2^i,
    # with (1 + X) applied one shift_central(., 1) step at a time
    ctx = get_context(k)
    for i in range(1, k + 3):
        e = 1 << i
        for t in (1 << v for v in range(ctx.k)):
            for b in _norm_orbit_bits(ctx):
                norm = 0
                for j in range(e):
                    norm ^= ctx.shift_central(1 << b, t * j)
                stepped = 1 << b
                for _ in range(t * (e - 1)):
                    stepped ^= ctx.shift_central(stepped, 1)
                assert norm == stepped, (k, i, t, b)


@pytest.mark.parametrize("k", [2, 3])
def test_power_class_representatives(k):
    # on the wreath quotient, conjugation by the base sends (t, a) to
    # (t, a + (1 + shift^t) b); every class holds exactly one a < 2^(2^v2(t))
    ctx = get_context(k)
    base = [WreathElement(ctx, 0, b) for b in range(1 << ctx.n)]
    for t in range(1, ctx.tmod):
        bound = 1 << (t & -t)
        seen = set()
        for a in range(1 << ctx.n):
            if a in seen:
                continue
            w = WreathElement(ctx, t, a)
            orbit = {(b.inverse() * w * b).a for b in base}
            assert len([r for r in orbit if r < bound]) == 1, (k, t, a)
            seen |= orbit
        assert len(seen) == 1 << ctx.n


@pytest.mark.parametrize("k", [3, 4])
def test_random_powers_lie_in_power_subgroups(k):
    ctx = get_context(k)
    terms = series(ctx, SeriesKind.POWER).terms
    rng = random.Random(0x90 + k)
    for _ in range(200):
        g = random_element(ctx, rng)
        for i, sub in enumerate(terms[1:], start=1):
            g = g * g
            assert sub.contains(g), (k, i)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_power_sandwich_level3(ctx3, i):
    lower, exact, upper = power_series(ctx3, i)
    assert lower == series(ctx3, SeriesKind.GAMMA).term(1 << (i + 1))
    assert exact == series(ctx3, SeriesKind.POWER).term(i)
    assert exact.contains_subgroup(lower)
    assert upper.contains_subgroup(exact)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_power_subgroup_contains_witness_powers(k):
    # the 2**i-th powers of the group's igs and of every x^s y_j lie in P_i,
    # by membership alone
    ctx = get_context(k)
    witnesses = list(full_group(ctx).igs)
    witnesses += [ctx.x() ** s * ctx.base_gen(j)
                  for s in range(ctx.tmod) for j in range(ctx.n)]
    for i in range(1, k + 2):
        sub = exact_power_subgroup(ctx, i)
        for g in witnesses:
            assert sub.contains(g ** (1 << i)), (k, i, g.text())


@pytest.mark.parametrize("k", [2, 3, 4])
def test_m_series_kernels(k):
    ctx = get_context(k)
    tbl = series(ctx, SeriesKind.M)
    logs = [s.log_order for s in tbl.terms]
    want = [ctx.log_order]
    want += [ctx.log_order - get_context(i).log_order for i in range(1, k)]
    want += [0]
    assert logs == want
    for i in range(1, k):
        pi = projection_map(ctx, i)
        ker = projection_kernel(ctx, i)
        assert all(pi(m).is_identity() for m in ker.igs)


def test_m_series_logs_level5():
    tbl = series(get_context(5), SeriesKind.M)
    assert [s.log_order for s in tbl.terms] == [565, 559, 549, 518, 409, 0]


def test_m_series_logs_level6(monkeypatch):
    # a private context cache, so the level-6 tables are freed afterwards;
    # projection_kernel's order check certifies every term
    monkeypatch.setattr(engine, "_CONTEXTS", {})
    tbl = series(get_context(6), SeriesKind.M)
    assert [s.log_order for s in tbl.terms] == [2150, 2144, 2134, 2103, 1994, 1585, 0]


def _kernel_from_enumerated_generators(ctx, i):
    """The projection kernel from every folded generator: x^(2^i), and each
    base, square and pair generator times the inverse of its image under
    folding the indices mod 2^i."""
    fold = 1 << i
    gens = [ctx.x() ** fold]
    for u in range(fold, ctx.n):
        gens.append(ctx.base_gen(u) * ctx.base_gen(u % fold).inverse())
        gens.append(square_gen(ctx, u) * square_gen(ctx, u % fold))
    for u in range(ctx.n):
        for v in range(u + 1, ctx.n):
            uu, vv = u % fold, v % fold
            if (u, v) == (uu, vv):
                continue
            img = pair_gen(ctx, uu, vv) if uu != vv else ctx.identity()
            gens.append(pair_gen(ctx, u, v) * img)
    return normal_closure(gens)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_projection_kernel_matches_enumerated_generators(k):
    ctx = get_context(k)
    for i in range(1, k):
        want = _kernel_from_enumerated_generators(ctx, i)
        assert projection_kernel(ctx, i).igs == want.igs, (k, i)


def test_projection_is_homomorphism(ctx3):
    for i in (1, 2):
        pi = projection_map(ctx3, i)
        rng = random.Random(1234 + i)
        for _ in range(300):
            g, h = random_element(ctx3, rng), random_element(ctx3, rng)
            assert pi(g * h) == pi(g) * pi(h)


def test_projection_kernel_above_the_level_cap(monkeypatch):
    # the kernel's expected order comes from the level formula, not from a
    # context of the lower level: none gets built
    monkeypatch.setattr(engine, "_CONTEXTS", {})
    assert projection_kernel(get_context(3), 2).log_order == 47 - 16
    assert list(engine._CONTEXTS) == [3]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_scaffold_squares_descend(k):
    # the Phi route, a reference for lemma-gamma-sq's membership test
    ctx = get_context(k)
    for n in range(1, k + 1):
        cur = gamma_n_subgroups(ctx, n)
        nxt = gamma_n_subgroups(ctx, n + 1)
        assert nxt.contains_subgroup(agemo_mod_derived(cur))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_scaffolds_are_dimension_terms(k):
    # two independent builds: the scaffold from its definition, gamma_(2^n)
    # extended by its heads, and the dimension series from its closed forms;
    # gamma_n_subgroups returns the dimension term itself
    ctx = get_context(k)
    dim = series(ctx, SeriesKind.DIMENSION)
    for n in range(1, k + 2):
        scaffold = extend(series(ctx, SeriesKind.GAMMA).term(1 << n), scaffold_heads(ctx, n))
        assert scaffold == dim.term(1 << n), n
        assert gamma_n_subgroups(ctx, n) is dim.term(1 << n), n
    assert not any(isinstance(key, tuple) and key[0] == "scaffold" for key in ctx._memo)


def test_scaffold_normality_failure_is_named(monkeypatch):
    # a conjugate [x^e, y] outside c_(m+1)^2 gamma_e leaves the scaffold
    # not normal: gamma_n_subgroups refuses, and the claims reading it crash
    monkeypatch.setattr(engine, "_CONTEXTS", {})
    ctx = get_context(3)
    for kind in (SeriesKind.GAMMA, SeriesKind.DIMENSION, SeriesKind.POWER):
        series(ctx, kind)
    monkeypatch.setattr(series_module, "commutator", lambda a, b: commutator(a, b) * ctx.x())
    for n in range(1, 5):
        with pytest.raises(RuntimeError, match=f"scaffold {n} "):
            gamma_n_subgroups(ctx, n)
    for res in run_claims(3, ["lemma-gamma-sq", "thm-p-power"]):
        assert not res.passed
        assert res.details["summary"].startswith("error: RuntimeError: scaffold 1 ")
        assert "wrsp/series.py:" in res.details["summary"]


def test_scaffolds_and_gamma_sq_build_nothing(monkeypatch):
    # once the dimension series exists the scaffolds are lookups, and
    # lemma-gamma-sq tests its statement by membership alone
    monkeypatch.setattr(engine, "_CONTEXTS", {})
    ctx = get_context(3)
    series(ctx, SeriesKind.DIMENSION)

    def refuse(*_args, **_kwargs):
        raise AssertionError("a subgroup was built")

    for module in (series_module, claims, subgroup_module):
        for name in ("extend", "close", "normal_closure", "agemo_mod_derived",
                     "commutator_subgroup"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for n in range(1, 5):
        gamma_n_subgroups(ctx, n)
    assert claims._run_gamma_sq(ctx) == (True, {
        "summary": "squares of each scaffold subgroup land in the next one", "failures": []})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gamma_sq_names_a_scaffold_that_is_too_deep(n, monkeypatch):
    # with S_n one dimension term too deep, D_(2^n + 1), the squares of
    # S_(n-1) miss it: the claim fails and names n - 1, without crashing
    ctx = get_context(3)
    dim = series(ctx, SeriesKind.DIMENSION)
    monkeypatch.setattr(claims, "gamma_n_subgroups", lambda c, m: dim.term((1 << m) + (m == n)))
    [res] = run_claims(3, ["lemma-gamma-sq"])
    assert not res.passed
    assert res.details["failures"] == [n - 1]


def test_scaffold_intersection_values(ctx2, ctx3):
    # the limit formula 2 C(2^(s-1), 2) within the faithful window, and the
    # computed level-3 value for the record
    z2 = centre_block_subgroup(ctx2)
    got = z2.log_order - intersect(gamma_n_subgroups(ctx2, 2), z2).log_order
    assert got == 2  # 2 C(2,2)
    z3 = centre_block_subgroup(ctx3)
    got2 = z3.log_order - intersect(gamma_n_subgroups(ctx3, 2), z3).log_order
    assert got2 == 2
    got3 = z3.log_order - intersect(gamma_n_subgroups(ctx3, 3), z3).log_order
    assert got3 == 12  # 2 C(4,2)


def test_scaffold_decomposition(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        k = ctx.k
        z = centre_block_subgroup(ctx)
        gam = series(ctx, SeriesKind.GAMMA)
        lhs = intersect(gamma_n_subgroups(ctx, k), z)
        rhs = join(agemo_mod_derived(gam.term(1 << (k - 1))),
                   intersect(gam.term(1 << k), z))
        assert lhs == rhs


@pytest.mark.parametrize("s,k", [(1, 2), (2, 3)])
def test_frattini_sandwich(s, k):
    ctx = get_context(k)
    phi = series(ctx, SeriesKind.FRATTINI).term(s)
    gam = series(ctx, SeriesKind.GAMMA)
    j = (1 << s) + (1 << (s - 1)) - 1
    low = join(scaffold_t(ctx, s), intersect(gam.term(j), centre_block_subgroup(ctx)))
    assert phi.contains_subgroup(low)
    assert gamma_n_subgroups(ctx, s).contains_subgroup(phi)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_identity_checks(k):
    ctx = get_context(k)
    assert commutator_identity_checks(ctx)["square_commutator"]
    assert run_claims(k, ["lemma-double-product"])[0].passed
    shift, expansion = shift_identity_check(ctx), power_expansion_check(ctx)
    assert shift["power_shift"], shift["shift_failures"]
    assert expansion["power_expansion"], expansion["power_expansion_details"]


def _reference_power_shift(ctx):
    """Identity (c) over the full range i, j <= 2n: no pair is skipped."""
    x = ctx.x()
    for ii in range(1, 2 * ctx.n + 1):
        for jj in range(1, 2 * ctx.n + 1):
            for t in range(0, ctx.k + 1):
                e = 1 << t
                lhs = commutator(ctx.zij(ii, jj), x ** e)
                rhs = ctx.zij(ii + e, jj) * ctx.zij(ii, jj + e) * ctx.zij(ii + e, jj + e)
                if lhs != rhs:
                    return False
    return True


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_power_shift_matches_full_range(k):
    ctx = get_context(k)
    assert shift_identity_check(ctx)["power_shift"] == _reference_power_shift(ctx)
    # the pairs the report skips are trivial on both sides
    for ii in range(1, 2 * ctx.n + 1):
        for jj in range(ctx.n + 1, 2 * ctx.n + 1):
            assert ctx.zij(ii, jj).is_identity() and ctx.zij(jj, ii).is_identity()


def test_identity_checks_computed_once_per_level(ctx2):
    assert commutator_identity_checks(ctx2) is commutator_identity_checks(ctx2)
    assert shift_identity_check(ctx2) is shift_identity_check(ctx2)
    assert power_expansion_check(ctx2) is power_expansion_check(ctx2)
    # each check holds its own keys only
    assert commutator_identity_checks(ctx2) == {"square_commutator": True}


def _reference_square_commutator(ctx):
    """The square-commutator check as first written, its left side
    [y, x^(2^k)] formed and compared."""
    n = ctx.n
    lhs = commutator(ctx.y(), ctx.x() ** n)
    rhs = (ctx.c(n // 2 + 1) ** 2) * ctx.c(n + 1)
    modulus = series(ctx, SeriesKind.GAMMA).term(n + 2)
    return {"square_commutator": lhs.is_identity() and modulus.contains(rhs.inverse() * lhs)}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_square_commutator_matches_reference(k):
    ctx = get_context(k)
    assert commutator_identity_checks(ctx) == _reference_square_commutator(ctx)


def _reference_error_span(ctx, weight, lowest):
    """The power expansion error span from every z_(u,v) with
    lowest <= u < v <= 2n + 1."""
    top = 2 * ctx.n + 1
    gens = [ctx.zij(u, v) for u in range(lowest, top + 1)
            for v in range(max(u + 1, weight - u), top + 1)]
    return close(gens) if gens else trivial_subgroup(ctx)


def _reference_power_expansion(ctx):
    """The power expansion check as first written: both right sides as the
    full binomial products over l <= e, each error span from every z_(u,v)
    up to 2n + 1."""
    x, y = ctx.x(), ctx.y()
    d_ok = True
    details = []
    for r in range(1, ctx.k + 3):
        e = 1 << r
        lhs1 = (x * y) ** e
        rhs1 = (x ** e) * (y ** e)
        for l in range(2, e + 1):
            rhs1 = rhs1 * (ctx.c(l) ** comb(e, l))
        k1 = _reference_error_span(ctx, e, 1)
        ok1 = k1.contains(rhs1.inverse() * lhs1)
        lhs2 = commutator(x ** e, y)
        rhs2 = ctx.identity()
        term = commutator(x, y)
        for l in range(1, e + 1):
            rhs2 = rhs2 * (term ** comb(e, l))
            term = commutator(term, x)
        k2 = _reference_error_span(ctx, e + 2, 2)
        ok2 = k2.contains(rhs2.inverse() * lhs2)
        d_ok = d_ok and ok1 and ok2
        details.append({"r": r, "product_form": ok1, "commutator_form": ok2,
                        "error_log_first": k1.log_order, "error_log_second": k2.log_order})
    return {"power_expansion": d_ok, "power_expansion_details": details}


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_power_expansion_matches_reference(k):
    ctx = get_context(k)
    assert power_expansion_check(ctx) == _reference_power_expansion(ctx)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_normal_form_facts_behind_the_identity_checks(k):
    # x^(2^k) = 1, so [y, x^(2^k)] = 1; c_v is central-block for v > n, so
    # z_(u,v) = 1 there
    ctx = get_context(k)
    n = ctx.n
    assert (ctx.x() ** n).is_identity()
    for v in range(n + 1, 2 * n + 2):
        assert ctx.c(v).is_central_block(), (k, v)
        for u in range(1, 2 * n + 2):
            assert ctx.zij(u, v).is_identity(), (k, u, v)
    # Kummer: C(2^r, l) mod 4 is 2 at l = 2^(r-1), 1 at l = 2^r, else 0
    for r in range(1, k + 3):
        e = 1 << r
        assert {l: comb(e, l) % 4 for l in range(1, e + 1) if comb(e, l) % 4} == {
            e // 2: 2, e: 1}, r


def _weight_closure_over_full_quadrant(ctx, weight, include_cij):
    """The weight-filtered closure from every c_{u,v} and z_{u,v} of total
    weight at least the bound, not one double chain per u."""
    top = 2 * ctx.n + 1
    min_idx = 1 if include_cij else 2
    gens = []
    for u in range(min_idx, top + 1):
        for v in range(min_idx, top + 1):
            if u + v < weight:
                continue
            if include_cij and u >= 2:
                gens.append(ctx.cij(u, v))
            if u < v:
                gens.append(ctx.zij(u, v))
    return normal_closure(gens) if gens else trivial_subgroup(ctx)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_weight_closure_matches_full_quadrant(k):
    ctx = get_context(k)
    # beyond weight 2 top + 1 both generator lists are empty
    for weight in range(4 * ctx.n + 4):
        for lowest in (1, 2):
            want = _weight_closure_over_full_quadrant(ctx, weight, include_cij=lowest == 1)
            got = _weight_filtered_closure(ctx, weight, lowest)
            assert got.igs == want.igs, (k, weight, lowest)


def test_series_submodule_is_not_shadowed():
    assert wrsp.series is sys.modules["wrsp.series"]
    assert wrsp.series.series(get_context(1), SeriesKind.GAMMA).length == 3


def test_double_product_base_case(ctx2):
    # m = 0 is the empty shift: both sides are the pair commutator itself
    assert double_product_rhs(ctx2, 2, 3, 0) == ctx2.zij(2, 3)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_double_product_exhaustive(k):
    # reference for the structural certificate: the m-fold commutator,
    # formed one step at a time, against the double product for every
    # i < j <= n and 0 <= m <= 2n
    ctx = get_context(k)
    x = ctx.x()
    for i in range(1, ctx.n + 1):
        for j in range(i + 1, ctx.n + 1):
            w = ctx.zij(i, j)
            for m in range(2 * ctx.n + 1):
                assert w == double_product_rhs(ctx, i, j, m), (k, i, j, m)
                w = commutator(w, x)
    assert run_claims(k, ["lemma-double-product"])[0].passed


def test_double_product_claim_reads_the_one_step_shift(monkeypatch):
    # both shift claims rest on the one-step shift identity alone, so one
    # failing pair fails both and both report it
    real = shift_identity_check(get_context(2))
    assert real == {"shift_failures": [], "power_shift": True}
    rep = dict(real, power_shift=False, shift_failures=[[1, 2]])
    monkeypatch.setattr(claims, "shift_identity_check", lambda ctx: rep)
    shift, double = run_claims(2, ["cor-zij-shift", "lemma-double-product"])
    assert not shift.passed and not double.passed
    assert shift.details["failures"] == double.details["failures"] == [[1, 2]]


def test_square_commutator_claim_reads_its_own_check(monkeypatch):
    # eq-sq-comm alone reads the square-commutator check, so a failing
    # congruence fails it and leaves the shift and power expansion claims
    monkeypatch.setattr(claims, "commutator_identity_checks",
                        lambda ctx: {"square_commutator": False})
    passed = {r.claim_id: r.passed for r in run_claims(
        2, ["cor-zij-shift", "eq-power-expansion", "eq-sq-comm", "lemma-double-product"])}
    assert passed == {"cor-zij-shift": True, "eq-power-expansion": True,
                      "eq-sq-comm": False, "lemma-double-product": True}


def test_series_table_indexing(ctx2):
    tbl = series(ctx2, SeriesKind.GAMMA)
    assert tbl.term(1) == full_group(ctx2)
    assert tbl.term(100).is_trivial()
    with pytest.raises(ValueError):
        tbl.term(0)
    frat = series(ctx2, SeriesKind.FRATTINI)
    assert frat.term(0) == full_group(ctx2)


def test_scaffold_range_checks(ctx2):
    with pytest.raises(ValueError):
        gamma_n_subgroups(ctx2, 0)
    with pytest.raises(ValueError):
        gamma_n_subgroups(ctx2, 4)
    with pytest.raises(ValueError):
        power_series(ctx2, 0)
