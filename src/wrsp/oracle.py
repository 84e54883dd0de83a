"""Independent level-1 oracle: exhaustive word closure from the presentation.

Elements are canonical words over the six presentation generators
x, y0, y1, s0, s1, c (c is the commutator of y0 and y1).  Multiplication
concatenates letter sequences and reduces them by applying the defining
relations one at a time: pull every x to the front (conjugation swaps the
base and square indices), sort the base letters (an out-of-order swap
deposits c), let squares fall into the s letters, and cancel involutions.
No packed arithmetic, shift tables or correction tables are involved, so
agreement with the fast engine on all 64 x 64 products is a real check.

The multiplication table is built by right multiplication with letters:
right[l][i] is the index of reduce_word(forms[i] + (l,)), one short
reduction per form and letter (the closure already forms those for x
and y0), and table[i][j] follows i through right along the letters of
forms[j].  This is exact: every rewrite in reduce_word replaces a
subword with one equal in the presented group, so each step, and hence
the walk, ends at a canonical word equal to forms[i] forms[j] there,
just as reduce_word(forms[i] + forms[j]) does.
Two canonical words equal in the group are the same word once the 64
forms are distinct elements, and the engine comparison shows they are: it
maps them one-to-one onto a group of order 64 whose products match the
table, so the relations hold there.
"""

from __future__ import annotations

from .engine import Element, GroupContext, get_context

X, Y0, Y1, S0, S1, C = range(6)

_X_CONJ = {Y0: Y1, Y1: Y0, S0: S1, S1: S0, C: C}
_CENTRAL = (S0, S1, C)

_MAX_STEPS = 100_000


def reduce_word(word) -> tuple[int, ...]:
    """Canonical form (x^t y0^a0 y1^a1 s0^z0 s1^z1 c^z2) of a letter list."""
    w = list(word)
    for _ in range(_MAX_STEPS):
        changed = False
        for p in range(len(w) - 1):
            u, v = w[p], w[p + 1]
            if u == v:
                if u == X:
                    del w[p:p + 2]  # x has order 2 at level 1
                elif u == Y0:
                    w[p:p + 2] = [S0]
                elif u == Y1:
                    w[p:p + 2] = [S1]
                else:
                    del w[p:p + 2]  # central involution
                changed = True
                break
            if v == X and u != X:
                w[p], w[p + 1] = X, _X_CONJ[u]  # u x = x u^x
                changed = True
                break
            if u == Y1 and v == Y0:
                w[p:p + 2] = [Y0, Y1, C]  # y1 y0 = y0 y1 c
                changed = True
                break
            if u in _CENTRAL and v in (Y0, Y1):
                w[p], w[p + 1] = v, u  # centrals move right
                changed = True
                break
            if u in _CENTRAL and v in _CENTRAL and u > v:
                w[p], w[p + 1] = v, u
                changed = True
                break
        if not changed:
            return tuple(w)
    raise RuntimeError("word reduction did not terminate")


def word_of_form(t: int, a0: int, a1: int, z0: int, z1: int, z2: int) -> tuple[int, ...]:
    return tuple([X] * t + [Y0] * a0 + [Y1] * a1 + [S0] * z0 + [S1] * z1 + [C] * z2)


class OracleGroup:
    """The 64 canonical forms and their multiplication table, built from one
    reduction per form and letter (module docstring)."""

    def __init__(self):
        gens = {X: reduce_word([X]), Y0: reduce_word([Y0])}
        seen = {(): 0}
        forms: list[tuple[int, ...]] = [()]
        # right[l][i] is the index of forms[i] l; the breadth-first closure
        # under x and y0 (forms grows while it is read) fills their rows
        right = {l: [] for l in gens}
        for w in forms:
            for l, g in gens.items():
                prod = reduce_word(w + g)
                if prod not in seen:
                    seen[prod] = len(forms)
                    forms.append(prod)
                right[l].append(seen[prod])
        self.forms = forms
        self.index = seen

        def index_of(word):
            prod = reduce_word(word)
            if prod not in seen:
                raise RuntimeError(f"letter product {word} reduces to {prod}, "
                                   "outside the word closure")
            return seen[prod]

        for l in (Y1, S0, S1, C):
            right[l] = [index_of(w + (l,)) for w in forms]
        # column j: every i followed through right along the letters of forms[j]
        columns = []
        for v in forms:
            col = range(len(forms))
            for l in v:
                step = right[l]
                col = [step[i] for i in col]
            columns.append(col)
        # table[i][j] is the index of forms[i] forms[j]; index 0 is the identity
        self.table = [list(row) for row in zip(*columns)]

    @property
    def order(self) -> int:
        return len(self.forms)

    def order_census(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for i in range(self.order):
            o, cur = 1, i
            while cur:
                cur = self.table[cur][cur]
                o <<= 1
                if o > 64:
                    raise RuntimeError("oracle element order out of range")
            out[o] = out.get(o, 0) + 1
        return out

    def centre(self) -> list[int]:
        table = self.table
        return [i for i in range(self.order)
                if all(table[i][j] == table[j][i] for j in range(self.order))]


def build_oracle() -> OracleGroup:
    g = OracleGroup()
    if g.order != 64:
        raise RuntimeError(f"level-1 word closure found {g.order} elements, expected 64")
    return g


def oracle_report() -> dict:
    """The level-1 cross check, built once per process: the oracle, its
    table comparison with the engine, its order census and its centre."""
    def build():
        oracle = build_oracle()
        return {"oracle": oracle, "census": oracle.order_census(), "centre": oracle.centre(),
                "table": compare_multiplication_tables(get_context(1), oracle)}
    return get_context(1).cached("oracle", build)


def oracle_index_of(oracle: OracleGroup, g: Element) -> int:
    """Oracle index of an engine element via its normal-form word."""
    ctx = g.ctx
    if ctx.k != 1:
        raise ValueError("the oracle only covers level 1")
    w = word_of_form(
        g.t, g.a & 1, (g.a >> 1) & 1, g.z & 1, (g.z >> 1) & 1, (g.z >> 2) & 1,
    )
    canon = reduce_word(w)
    if canon != w:
        raise RuntimeError("engine normal form is not oracle-canonical")
    return oracle.index[canon]


def compare_multiplication_tables(ctx: GroupContext, oracle: OracleGroup) -> dict:
    """Full 64 x 64 comparison of engine products against the oracle table:
    each engine element is mapped to its oracle index once, keyed by its
    coordinates (t, a, z), and a product outside the 64 is a mismatch."""
    if ctx.k != 1:
        raise ValueError("the oracle only covers level 1")
    elements = list(ctx.all_elements())
    pos = {(g.t, g.a, g.z): oracle_index_of(oracle, g) for g in elements}
    if len(set(pos.values())) != 64:
        return {"ok": False, "reason": "engine forms are not pairwise distinct in the oracle"}
    columns = [(h, pos[h.t, h.a, h.z]) for h in elements]
    mul = ctx.mul
    mismatches = []
    for g in elements:
        row = oracle.table[pos[g.t, g.a, g.z]]
        for h, j in columns:
            p = mul(g, h)
            if row[j] != pos.get((p.t, p.a, p.z)):
                mismatches.append((g.text(), h.text()))
    return {"ok": not mismatches, "mismatches": mismatches[:4],
            "pairs_checked": len(elements) ** 2}
