"""The descending filtration series of the level-k groups.

Six kinds are supported: the lower central series, the lower 2-series, the
Frattini series, the dimension subgroup series, the 2-power series and the
construction series given by the kernels of the level projections.  Power
terms inside the recurrences are always evaluated modulo a subgroup that
contains the relevant derived subgroup, so closing generator powers is
exact.

The dimension series follows Lazard's recursion D_i = [D_{i-1}, G] D_m^2,
m = ceil(i/2).  The square subgroup D^2 = <g^2 : g in D> of any group D
contains [D, D], because [a, b] = a^-2 (a b^-1)^2 b^2, and D / [D, D] is
abelian, so D^2 = <u^2 : u in igs(D)> [D, D].  Each term is therefore one
normal closure of the commutators [u, x], [u, y] over igs(D_{i-1}), the
squares of igs(D_m) and the igs of [D_m, D_m].

The raw 2-power subgroups P_i = <g^e : g in G>, e = 2**i, have no such
reduction; they are built in closed form at every level.  Write g = w z
with w = (t, a, 0) and z = (0, 0, z) in the centre block Z, which is
abelian, normal and centralised by the trivial-top part H.  Then

    (w z)^e = w^e N_{t,e}(z),   N_{t,e}(z) = sum_{j<e} shift^(t j)(z),

and the norm map N_{t,e} is GF(2)-linear, so P_i is generated by the powers
w^e and the images of N.  Conjugating w by a base element b gives
(t, a + (1 + shift^t) b, z') for some z'; its e-th power differs from that
of (t, a + (1 + shift^t) b, 0) by a norm image, so the normal closure needs
one w per class of a modulo the image of 1 + shift^t.  In GF(2)[x]/(1+x)^n
that image is the ideal ((1+x)^(2^v)), v the 2-adic valuation of t, and
the rows a < 2^(2^v) (degree below 2^v) are a complement to it.  For t = 0
the norm vanishes and w lies in H, whose exponent is 4: its squares are
spanned by the squares of single and paired base generators, and its
fourth powers are trivial.

Of the nonzero top exponents only t = 2^v are needed.  Every g has 2-power
order, so for odd u the elements g and g^u generate the same cyclic
subgroup and g^e is a power of (g^u)^e.  With u the inverse of the odd
part of t modulo 2^k, g^u has top exponent 2^v, v the 2-adic valuation
of t.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb

from .engine import Element, GroupContext, commutator, get_context
from .subgroup import (
    Subgroup,
    agemo_mod_derived,
    close,
    commutator_subgroup,
    commutator_with_group,
    full_group,
    group_commutators,
    layer_shape,
    normal_closure,
    trivial_subgroup,
)


class SeriesKind(str, Enum):
    GAMMA = "gamma"
    LOWER_P = "lowerp"
    FRATTINI = "frattini"
    DIMENSION = "dimension"
    POWER = "power"
    M = "m"


@dataclass(frozen=True)
class SeriesTable:
    kind: SeriesKind
    k: int
    first_index: int
    terms: tuple[Subgroup, ...]  # terms[0] is the whole group, last is trivial

    @property
    def length(self) -> int:
        """Largest natural index with a nontrivial term."""
        last = self.first_index - 1
        for off, sub in enumerate(self.terms):
            if not sub.is_trivial():
                last = self.first_index + off
        return last

    def term(self, i: int) -> Subgroup:
        """Term with natural index i; indices beyond the table are trivial."""
        if i < self.first_index:
            raise ValueError(f"series starts at index {self.first_index}")
        off = i - self.first_index
        if off >= len(self.terms):
            return self.terms[-1]
        return self.terms[off]

    def indexed_terms(self) -> list[tuple[int, Subgroup]]:
        return [(self.first_index + off, sub) for off, sub in enumerate(self.terms)]

    def layer(self, i: int) -> tuple[int, ...]:
        return layer_shape(self.term(i), self.term(i + 1))

    def to_rows(self) -> list[dict]:
        rows = []
        for i, sub in self.indexed_terms():
            try:
                shape = list(self.layer(i))
            except ValueError:
                shape = None  # non-abelian layer
            rows.append({
                "kind": self.kind.value,
                "k": self.k,
                "i": i,
                "log_order": sub.log_order,
                "layer_shape": shape,
                "igs": [m.text() for m in sub.igs],
            })
        return rows


def series(ctx: GroupContext, kind: SeriesKind) -> SeriesTable:
    kind = SeriesKind(kind)
    return ctx.cached(("series", kind), lambda: _build_series(ctx, kind))


def _build_series(ctx: GroupContext, kind: SeriesKind) -> SeriesTable:
    first, step = _STEPS[kind]
    terms = [full_group(ctx)]
    while not terms[-1].is_trivial():
        nxt = step(ctx, terms)
        if not terms[-1].contains_subgroup(nxt):
            raise RuntimeError(f"{kind.value} series is not descending")
        terms.append(nxt)
    return SeriesTable(kind, ctx.k, first, tuple(terms))


def _squares(sub: Subgroup) -> list[Element]:
    return [g ** 2 for g in sub.igs]


def _lower_p_step(ctx: GroupContext, terms: list[Subgroup]) -> Subgroup:
    # P_i = P_{i-1}^2 [P_{i-1}, G] in one normal closure: [P_{i-1}, G] is the
    # normal closure of [u, x], [u, y] over the igs, and the square part
    # closes on generator squares because [P, P] <= [P, G]
    prev = terms[-1]
    return normal_closure(group_commutators(prev) + _squares(prev))


def _frattini_step(ctx: GroupContext, terms: list[Subgroup]) -> Subgroup:
    # Phi(P) = P^2 [P, P] is characteristic in P, and P is normal in G, so
    # Phi(P) is normal in G and a plain closure of [P, P] and the generator
    # squares is already the normal subgroup
    return agemo_mod_derived(terms[-1])


def _dimension_step(ctx: GroupContext, terms: list[Subgroup]) -> Subgroup:
    # D_i = [D_{i-1}, G] D_m^2 with m = ceil(i/2), in one normal closure;
    # D_m^2 = <u^2 : u in igs(D_m)> [D_m, D_m] (module docstring)
    i = len(terms) + 1  # terms[0] is D_1
    m = (i + 1) // 2
    dm = terms[m - 1]
    der = ctx.cached(("dimension_derived", m), lambda: commutator_subgroup(dm, dm))
    return normal_closure(group_commutators(terms[-1]) + _squares(dm) + list(der.igs))


# kind -> (natural index of the whole group, step from the terms built so
# far to the next term)
_STEPS = {
    SeriesKind.GAMMA: (1, lambda ctx, terms: commutator_with_group(terms[-1])),
    SeriesKind.LOWER_P: (1, _lower_p_step),
    SeriesKind.FRATTINI: (0, _frattini_step),
    SeriesKind.DIMENSION: (1, _dimension_step),
    SeriesKind.POWER: (0, lambda ctx, terms: exact_power_subgroup(ctx, len(terms))),
    SeriesKind.M: (0, lambda ctx, terms: (projection_kernel(ctx, len(terms))
                                         if len(terms) < ctx.k else trivial_subgroup(ctx))),
}


def exact_power_subgroup(ctx: GroupContext, i: int) -> Subgroup:
    """The subgroup generated by all 2**i-th powers, in closed form.

    With e = 2**i it is the normal closure of three sets (see the module
    docstring for the argument).  Only the top exponents t = 2^v, v < k,
    occur: for odd u, g^e is a power of (g^u)^e, and a suitable u makes the
    top exponent of g^u a power of 2.

    (a) w^e for w = (t, a, 0), t = 2^v and a < 2^t: one representative per
        class of (t, a) under conjugation by the base, since
        a + (1 + shift^t) b ranges over a coset of the ideal ((1+x)^(2^v));
    (b) the images N_{t,e}(bit) of the central basis under the norm map,
        from the identity (w z)^e = w^e N_{t,e}(z); they are computed from
        the central shift tables by doubling, N_{t,2m} = N_{t,m} +
        shift^(t m) N_{t,m}, without group multiplication;
    (c) for e = 2 only, the squares of the single and paired base
        generators, which span the squares of the trivial-top part; its
        exponent is 4, so for e >= 4 this set is empty.
    """
    if i < 1:
        raise ValueError("power index must be >= 1")

    def build():
        e = 1 << i
        gens = []
        for t in (1 << v for v in range(ctx.k)):
            gens += [ctx.element(t, a, 0) ** e for a in range(1 << t)]
            for b in range(ctx.d):
                img = 1 << b
                for j in range(i):
                    img ^= ctx.shift_central(img, t << j)
                gens.append(ctx.central_from_mask(img))
        if e == 2:
            gens += [ctx.element(0, (1 << u) | (1 << w), 0) ** 2
                     for u in range(ctx.n) for w in range(u, ctx.n)]
        return normal_closure(gens)

    return ctx.cached(("power", i), build)


def projection_map(ctx: GroupContext, i: int):
    """The level projection G_k -> G_i folding base indices mod 2**i."""
    if not 1 <= i <= ctx.k:
        raise ValueError("target level out of range")
    low = get_context(i)
    fold = 1 << i

    def pi(g: Element) -> Element:
        out = low.x() ** g.t
        a = g.a
        u = 0
        while a:
            if a & 1:
                out = out * low.base_gen(u % fold)
            a >>= 1
            u += 1
        z = g.z
        for u in range(ctx.n):
            if (z >> u) & 1:
                out = out * low.square_gen(u % fold)
        for u in range(ctx.n):
            for v in range(u + 1, ctx.n):
                if (z >> ctx.pair_bit[u][v]) & 1:
                    uu, vv = u % fold, v % fold
                    if uu != vv:
                        out = out * low.pair_gen(uu, vv)
        return out

    return pi


def projection_kernel(ctx: GroupContext, i: int) -> Subgroup:
    """Kernel of the level projection, the finite shadow of the i-th
    construction-series term; exactness certified by the order count."""
    if not 1 <= i < ctx.k:
        raise ValueError("kernel level must be strictly below the context level")

    def build():
        fold = 1 << i
        gens = [ctx.x() ** fold]
        for u in range(fold, ctx.n):
            gens.append(ctx.base_gen(u) * ctx.base_gen(u % fold).inverse())
            gens.append(ctx.square_gen(u) * ctx.square_gen(u % fold))
        for u in range(ctx.n):
            for v in range(u + 1, ctx.n):
                uu, vv = u % fold, v % fold
                if (u, v) == (uu, vv):
                    continue
                img = ctx.pair_gen(uu, vv) if uu != vv else ctx.identity()
                gens.append(ctx.pair_gen(u, v) * img)
        ker = normal_closure(gens)
        expected = ctx.log_order - get_context(i).log_order
        if ker.log_order != expected:
            raise RuntimeError(
                f"projection kernel to level {i} has log order {ker.log_order}, "
                f"expected {expected}"
            )
        return ker

    return ctx.cached(("kernel", i), build)


# -- the stated lower-central generator lists -------------------------------

def stated_gamma_generators(ctx: GroupContext, i: int) -> list[Element]:
    """The stated generating list of the i-th lower central term modulo the
    next one: the chain commutator c_i while it survives, plus the
    double-chain commutators c_{j, i-j} with j even and both coordinates in
    range."""
    n = ctx.n
    if i == 1:
        return [ctx.x(), ctx.y()]
    gens = []
    if i <= n + n // 2:
        gens.append(ctx.c(i))
    j = 2
    while j <= min(n, i - 1):
        if i - j <= n - 1:
            gens.append(ctx.cij(j, i - j))
        j += 2
    return gens


def expected_gamma_layer(k: int, i: int) -> tuple[int, ...]:
    """Predicted abelian invariants of the i-th lower central layer."""
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


def lcs_generator_check(ctx: GroupContext) -> dict:
    """Check every stated generator list and layer shape of the lower
    central series, and that the layer log orders sum to the group's."""
    table = series(ctx, SeriesKind.GAMMA)
    n = ctx.n
    per_index = []
    ok = True
    total = 0
    for i in range(1, 2 * n + 1):
        cur = table.term(i)
        nxt = table.term(i + 1)
        gens = stated_gamma_generators(ctx, i)
        regen = close(gens + list(nxt.igs)) if (gens or nxt.igs) else trivial_subgroup(ctx)
        gens_ok = regen == cur
        shape = layer_shape(cur, nxt)
        want = expected_gamma_layer(ctx.k, i)
        shape_ok = shape == want
        total += cur.log_order - nxt.log_order
        ok = ok and gens_ok and shape_ok
        per_index.append({
            "i": i,
            "generators_match": gens_ok,
            "shape": list(shape),
            "shape_expected": list(want),
            "shape_match": shape_ok,
            "layer_log": cur.log_order - nxt.log_order,
        })
    sum_ok = total == ctx.log_order
    class_ok = table.length == 2 * n - 1
    return {
        "ok": ok and sum_ok and class_ok,
        "class": table.length,
        "class_expected": 2 * n - 1,
        "layer_log_sum": total,
        "log_order": ctx.log_order,
        "per_index": per_index,
    }


# -- the power-series scaffolding subgroups ---------------------------------

@dataclass(frozen=True)
class GammaScaffold:
    """Images of the scaffolding subgroups used to bound power terms:
    gamma_n = <x^(2^n), c_i^2 for i >= 2^(n-1)> gamma_{2^n}, and t_n is
    generated by the same x-power and squares and the chains c_j for
    j >= 2^n."""

    n: int
    gamma_n: Subgroup
    t_n: Subgroup


def gamma_n_subgroups(ctx: GroupContext, n: int) -> GammaScaffold:
    if not 1 <= n <= ctx.k + 1:
        raise ValueError("scaffold level out of range")

    def build():
        top = 2 * ctx.n  # chains beyond the class bound are trivial
        heads = [ctx.x() ** (1 << n)]
        heads += [ctx.c(i) ** 2 for i in range(1 << (n - 1), top + 1)]
        gamma_2n = series(ctx, SeriesKind.GAMMA).term(1 << n)
        gamma_n = close(heads + list(gamma_2n.igs))
        t_n = close(heads + [ctx.c(j) for j in range(1 << n, top + 1)])
        return GammaScaffold(n, gamma_n, t_n)

    return ctx.cached(("scaffold", n), build)


@dataclass(frozen=True)
class SandwichReport:
    """The inclusions lower <= exact <= upper for a power term."""

    level: int          # the power index i, exact = the 2**i-th power subgroup
    lower: Subgroup     # the lower central term with index 2**(i+1)
    exact: Subgroup
    upper: Subgroup     # the scaffold subgroup gamma_i

    @property
    def verified(self) -> bool:
        return (self.exact.contains_subgroup(self.lower)
                and self.upper.contains_subgroup(self.exact))


def power_series(ctx: GroupContext, i: int) -> SandwichReport:
    """The exact power subgroup P_i between the lower central term with
    index 2**(i+1) and the scaffold subgroup gamma_i, at every level."""
    if i < 1:
        raise ValueError("power index must be >= 1")
    if i > ctx.k + 1:
        raise ValueError("sandwich level out of range")
    return SandwichReport(
        level=i,
        lower=series(ctx, SeriesKind.GAMMA).term(1 << (i + 1)),
        exact=exact_power_subgroup(ctx, i),
        upper=gamma_n_subgroups(ctx, i).gamma_n,
    )


# -- exact instances of the commutator expansion identities -----------------

def _binom_parity(n: int, r: int) -> int:
    # Kummer: C(n, r) is odd iff r's bits are a submask of n's
    if r < 0 or r > n:
        return 0
    return 1 if (r & n) == r else 0


def double_product_rhs(ctx: GroupContext, i: int, j: int, m: int) -> Element:
    """Product form for the m-fold commutator of z_{i,j} with x: the double
    product of z_{i+m-n, j+m-s+n} over 0 <= n <= s <= m with exponent
    C(m,s) C(s,n), reduced mod 2 since the factors are central involutions."""
    out = ctx.identity()
    for s in range(m + 1):
        for nn in range(s + 1):
            if _binom_parity(m, s) and _binom_parity(s, nn):
                out = out * ctx.zij(i + m - nn, j + m - s + nn)
    return out


def commutator_identity_checks(ctx: GroupContext) -> dict:
    """Exact element identities: the square-commutator congruence, the
    double-product expansion, its 2-power corollary, and the two power
    expansion congruences with their normal-closure error terms.  Computed
    once per level; several claims read the same report."""
    return ctx.cached("identity_checks", lambda: _identity_checks(ctx))


def _identity_checks(ctx: GroupContext) -> dict:
    k = ctx.k
    n = ctx.n
    x, y = ctx.x(), ctx.y()
    gamma_tbl = series(ctx, SeriesKind.GAMMA)
    report: dict = {"ok": True}

    # (a) [y, x^(2^k)] agrees with c_{2^(k-1)+1}^2 c_{2^k+1} modulo the
    # lower central term of index 2^k + 2
    lhs = commutator(y, x ** n)
    rhs = (ctx.c(n // 2 + 1) ** 2) * ctx.c(n + 1)
    modulus = gamma_tbl.term(n + 2)
    a_ok = lhs.is_identity() and modulus.contains(rhs.inverse() * lhs)
    report["square_commutator"] = a_ok

    # (b) the double-product expansion for sampled (i, j, m)
    samples = [(1, 2, 0), (1, 2, 1), (2, 3, 2), (1, 3, 3)]
    if k >= 3:
        samples += [(2, 5, 4), (3, 4, 5), (1, 2, 6), (5, 2, 3)]
    b_ok = True
    for (ii, jj, m) in samples:
        w = ctx.zij(ii, jj)
        for _ in range(m):
            w = commutator(w, x)
        if w != double_product_rhs(ctx, ii, jj, m):
            b_ok = False
            report.setdefault("double_product_failures", []).append([ii, jj, m])
    report["double_product"] = b_ok

    # (c) [z_{i,j}, x^(2^t)] = z_{i+2^t, j} z_{i, j+2^t} z_{i+2^t, j+2^t};
    # checked for i, j <= n only.  Once max(i, j) > n both sides are 1:
    # c_i has base row (1 + X)^(i-1) e_0 and (1 + X)^n = 1 + X^n = 0 on the
    # cyclic base, so c_i is central-block for i > n and z_{i,j} = 1, and
    # the same holds for every factor on the right, whose indices only grow
    # (the zij-table claim certifies z_{i,j} = 1 there through 2n + 1).
    # Only j >= i: every c_i lies in H, and [H, H] is the pair block, which
    # is elementary abelian, so z_{j,i} = z_{i,j}^-1 = z_{i,j} and the
    # identity for (j, i) is the one for (i, j)
    c_ok = True
    x_powers = [x ** (1 << t) for t in range(k + 1)]
    for ii in range(1, n + 1):
        for jj in range(ii, n + 1):
            zij = ctx.zij(ii, jj)
            for t, xe in enumerate(x_powers):
                e = 1 << t
                lhs = commutator(zij, xe)
                rhs = ctx.zij(ii + e, jj) * ctx.zij(ii, jj + e) * ctx.zij(ii + e, jj + e)
                if lhs != rhs:
                    c_ok = False
                    report.setdefault("shift_failures", []).append([ii, jj, t])
    report["power_shift"] = c_ok

    # (d) the two power expansion congruences at a = x, b = y
    d_ok = True
    details = []
    for r in range(1, k + 3):
        e = 1 << r
        # first congruence: (xy)^(2^r) against x^(2^r) y^(2^r) c_l^C(2^r, l)
        lhs1 = (x * y) ** e
        rhs1 = (x ** e) * (y ** e)
        for l in range(2, e + 1):
            rhs1 = rhs1 * (ctx.c(l) ** comb(e, l))
        disc1 = rhs1.inverse() * lhs1
        k1 = _weight_filtered_closure(ctx, e, include_cij=True)
        ok1 = k1.contains(disc1)
        # second congruence: [x^(2^r), y] against the [x,y,...] chain powers
        lhs2 = commutator(x ** e, y)
        d_chain = commutator(x, y)
        rhs2 = ctx.identity()
        term = d_chain
        for l in range(1, e + 1):
            rhs2 = rhs2 * (term ** comb(e, l))
            term = commutator(term, x)
        disc2 = rhs2.inverse() * lhs2
        k2 = _weight_filtered_closure(ctx, e + 2, include_cij=False)
        ok2 = k2.contains(disc2)
        d_ok = d_ok and ok1 and ok2
        details.append({"r": r, "product_form": ok1, "commutator_form": ok2,
                        "error_log_first": k1.log_order, "error_log_second": k2.log_order})
    report["power_expansion"] = d_ok
    report["power_expansion_details"] = details

    report["ok"] = a_ok and b_ok and c_ok and d_ok
    return report


def _weight_filtered_closure(ctx: GroupContext, weight: int, include_cij: bool) -> Subgroup:
    """Normal closure of the double-chain and pair-chain commutators of
    total weight at least the bound; this is the error subgroup of the
    power expansion congruences instantiated here (its power part is
    trivial because all these commutators are central involutions).  An
    empty generator list gives the trivial group."""

    def build():
        top = 2 * ctx.n + 1
        gens = []
        min_idx = 1 if include_cij else 2
        for u in range(min_idx, top + 1):
            for v in range(min_idx, top + 1):
                if u + v < weight:
                    continue
                if include_cij and u >= 2:
                    gens.append(ctx.cij(u, v))
                if u < v:  # z_{u,u} = 1, z_{v,u} = z_{u,v} (part (c) of _identity_checks)
                    gens.append(ctx.zij(u, v))
        return normal_closure(gens) if gens else trivial_subgroup(ctx)

    return ctx.cached(("weight_closure", weight, include_cij), build)
