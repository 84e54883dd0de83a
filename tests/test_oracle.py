"""The level-1 word-reduction oracle and its agreement with the engine."""

import inspect
import textwrap

import pytest

from conftest import enumerate_elements
from wrsp import engine
from wrsp import oracle as oracle_module
from wrsp.claims import run_claims
from wrsp.engine import Element, GroupContext
from wrsp.oracle import (
    OracleGroup,
    build_oracle,
    compare_multiplication_tables,
    oracle_index_of,
    reduce_word,
    word_of_form,
    X, Y0, Y1, S0, S1, C,
)
from wrsp.subgroup import centre_block_subgroup


def test_reduction_rules():
    assert reduce_word([Y0, Y0]) == (S0,)
    assert reduce_word([Y1, Y0]) == (Y0, Y1, C)
    assert reduce_word([X, X]) == ()
    assert reduce_word([Y0, X]) == (X, Y1)
    assert reduce_word([S1, S0]) == (S0, S1)
    assert reduce_word([C, Y0, X, X, C]) == (Y0,)


def test_word_closure_is_the_full_group():
    oracle = build_oracle()
    assert oracle.order == 64
    assert len(set(oracle.forms)) == 64


def test_order_census_and_centre():
    oracle = build_oracle()
    census = oracle.order_census()
    assert max(census) == 8
    assert census[1] == 1
    assert sum(census.values()) == 64
    assert len(oracle.centre()) == 4


def test_letter_walk_table_equals_pairwise_reduction():
    # reference: today's route, one reduction of each concatenation of two forms
    oracle = OracleGroup()
    seen, forms = oracle.index, oracle.forms
    reference = [[seen[reduce_word(u + v)] for v in forms] for u in forms]
    assert oracle.table == reference


def test_table_needs_one_reduction_per_form_and_letter(monkeypatch):
    # 2 generators and 64 x 6 letter products, those by x and y0 read off
    # the closure
    calls = []
    reduce = oracle_module.reduce_word

    def counting_reduce(word):
        calls.append(1)
        return reduce(word)

    monkeypatch.setattr(oracle_module, "reduce_word", counting_reduce)
    assert OracleGroup().order == 64
    assert len(calls) == 2 + 384


def test_letter_product_outside_the_closure_names_the_word(monkeypatch):
    # a reducer that leaves c c unreduced: the form c times the letter c
    # falls outside the closure of x and y0, which never forms c c
    reduce = oracle_module.reduce_word
    monkeypatch.setattr(oracle_module, "reduce_word",
                        lambda word: tuple(word) if tuple(word) == (C, C) else reduce(word))
    with pytest.raises(RuntimeError, match=r"letter product \(5, 5\)"):
        OracleGroup()


def _mutate_reduce_word(monkeypatch, old, new):
    """Install reduce_word with one line of its source replaced."""
    src = textwrap.dedent(inspect.getsource(reduce_word))
    assert src.count(old) == 1, old
    namespace = dict(vars(oracle_module))
    exec(src.replace(old, new), namespace)
    monkeypatch.setattr(oracle_module, "reduce_word", namespace["reduce_word"])


def _oracle_claim_on_a_fresh_context(monkeypatch):
    monkeypatch.setattr(engine, "_CONTEXTS", {})
    (res,) = run_claims(1, ["oracle-k1"])
    return res.status


def test_oracle_claim_fails_when_x_fixes_the_squares(monkeypatch):
    monkeypatch.setitem(oracle_module._X_CONJ, S0, S0)
    monkeypatch.setitem(oracle_module._X_CONJ, S1, S1)
    assert _oracle_claim_on_a_fresh_context(monkeypatch) == "fail"


def test_oracle_claim_fails_without_the_commutator_deposit(monkeypatch):
    # y1 y0 = y0 y1 c with the c dropped
    _mutate_reduce_word(monkeypatch, "[Y0, Y1, C]", "[Y0, Y1]")
    assert _oracle_claim_on_a_fresh_context(monkeypatch) == "fail"


def test_engine_table_equals_oracle_table(ctx1):
    oracle = build_oracle()
    rep = compare_multiplication_tables(ctx1, oracle)
    assert rep["ok"], rep
    assert rep["pairs_checked"] == 64 * 64


def test_table_comparison_catches_engine_faults(ctx1, monkeypatch):
    # one product with a central bit flipped, one outside the 64 elements
    x, y = ctx1.x(), ctx1.y()
    mul = GroupContext.mul

    def faulty(ctx, g, h):
        p = mul(ctx, g, h)
        if (g, h) == (x, y):
            return Element(ctx, p.t, p.a, p.z ^ 1)
        if (g, h) == (y, x):
            return Element(ctx, p.t, p.a, p.z | 1 << ctx.d)
        return p

    oracle = build_oracle()
    monkeypatch.setattr(GroupContext, "mul", faulty)
    rep = compare_multiplication_tables(ctx1, oracle)
    assert not rep["ok"]
    assert sorted(rep["mismatches"]) == sorted([(x.text(), y.text()), (y.text(), x.text())])


def test_table_comparison_reduces_each_engine_form_once(ctx1, monkeypatch):
    # the oracle's table holds every product; the comparison only checks
    # that each engine form is an oracle-canonical word
    oracle = build_oracle()
    calls = []
    reduce = oracle_module.reduce_word

    def counting_reduce(word):
        calls.append(1)
        return reduce(word)

    monkeypatch.setattr(oracle_module, "reduce_word", counting_reduce)
    assert compare_multiplication_tables(ctx1, oracle)["ok"]
    assert len(calls) <= 64


def test_engine_forms_inject_into_oracle(ctx1):
    oracle = build_oracle()
    seen = {oracle_index_of(oracle, g) for g in ctx1.all_elements()}
    assert len(seen) == 64


def test_oracle_centre_sits_in_the_centre_block(ctx1):
    oracle = build_oracle()
    z_idx = {oracle_index_of(oracle, g)
             for g in enumerate_elements(centre_block_subgroup(ctx1))}
    assert set(oracle.centre()) <= z_idx


def test_word_of_form_round_trip(ctx1):
    oracle = build_oracle()
    for g in ctx1.all_elements():
        w = word_of_form(g.t, g.a & 1, (g.a >> 1) & 1,
                         g.z & 1, (g.z >> 1) & 1, (g.z >> 2) & 1)
        assert reduce_word(w) == w
