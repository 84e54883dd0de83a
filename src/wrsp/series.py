"""The descending filtration series of the level-k groups.

Six kinds are supported: the lower central series, the lower 2-series, the
Frattini series, the dimension subgroup series, the 2-power series and the
construction series given by the kernels of the level projections.  Power
terms inside the recurrences are always evaluated modulo a subgroup that
contains the relevant derived subgroup, so closing generator powers is
exact.

Lower central series.  With S_i the stated list of layer i
(stated_gamma_generators, S_1 = {x, y}), the terms are plain closures
built bottom-up, C_(2n) = 1 and C_i = <S_i, C_(i+1)>, and the build
certifies [s, x], [s, y] in C_(i+1) for every s in S_i.  Each member of
S_i is a left-normed commutator of weight i (c_1 = y, c_j = [c_(j-1), x],
c_(j,l) = [c_j, y, x, ..(l-1).., x]), so C_i <= gamma_i.  By downward
induction C_(i+1) is normal, and C_i is generated modulo it by S_i,
central modulo it as G = <x, y>; so C_i is normal and [C_i, G] <= C_(i+1).
As C_1 = G, induction on i gives gamma_i <= C_i, so C_i = gamma_i.

Lower 2- and dimension series.  Each term is its closed form, certified
by its recurrence, P_i = [P_(i-1), G] P_(i-1)^2 or Lazard's
D_i = [D_(i-1), G] D_m^2, with m = ceil(i/2) and l the bit length of i - 1:

    P_i = gamma_i <x^(2^(i-1)), c_(i-1)^2 for i <= n/2 + 1>^G,
    D_i = gamma_i <x^(2^l), g^2 : g in gamma_m>^G.

Any group D has D^2 = <g^2 : g in D> >= [D, D], as [a, b] =
a^-2 (a b^-1)^2 b^2, so D^2 = <u^2 : u in igs(D)> [D, D]; and
[gamma_m, gamma_m] <= gamma_(2m) <= gamma_i, so the squares of gamma_m's
non-central members stand for the g^2 (a central one squares to 1).  Let
C_i be the closed form and R_i the recurrence applied to the C's before
it.  By induction from C_1 = G, C_i = R_i:

- C_i <= R_i: gamma_i <= [C_(i-1), G], and the other generators are
  squares of members of C_(i-1) or C_m (x^(2^(l-1)) generates C_m, as
  m - 1 has bit length l - 1).
- R_i <= C_i: C_i is normal, and the build certifies that it holds
  generators of R_i as a normal subgroup.  For normal subgroups of
  G = <x, y>, [AB, G] = [A, G][B, G], and for N = <R>^G, [N, G] is the
  normal closure of the [r, x], [r, y], r in R, as N is central modulo
  it.  C_(i-1) = gamma_(i-1) <H>^G, H its heads (shown after gamma), so
  [C_(i-1), G] = gamma_i <[h, x], [h, y] : h in H>^G (at i = 2, C_1 = G
  and these lie in gamma_2).  The squares are those of the non-central
  members of C_(i-1) or C_m.  [C_(i-1), C_(i-1)] <= [C_(i-1), G], and
  [C_m, C_m] is the normal closure of the commutators of C_m's members.
  A central member commutes with those of trivial top.  Paired with the
  top member, of exponent t = 2^v, a central row r gives (1 + X^t) r =
  (1 + X)^t r = [r, x, ..(t).., x], X the one-step central shift, in
  [D_(m+t-1), G].  Here t >= m, as the top member of C_m is x^(2^l')
  times an element of trivial top, l' the bit length of m - 1; and as
  i <= 2m, [D_(m+t-1), G] <= [D_(i-1), G], which the [h, x], [h, y] put
  in C_i.  So only the pairs of C_m's non-central members are tested.

Layers.  The gamma, lower 2-, dimension and Frattini recurrences all put
[S_i, S_i] in S_{i+1}: the first three contain [S_i, G], and Phi(S_i)
contains [S_i, S_i].  Those layers S_i / S_{i+1} are abelian, and
_build_series certifies S_{i+1} <= S_i for every kind, so
SeriesTable.layer reads their invariants without checking either fact.
The power and construction series have nonabelian layers (the level-2
power layer i = 1, the level-3 construction layers i = 0..2), so their
few layers per level go through layer_shape, which checks the abelian
quotient and also re-checks containment.

The raw 2-power subgroups P_i = <g^e : g in G>, e = 2**i, have no such
reduction; they are built in closed form at every level.  Write g = w z
with w = (t, a, 0) and z = (0, 0, z) in the centre block Z, which is
abelian, normal and centralised by the trivial-top part H.  Then

    (w z)^e = w^e N_{t,e}(z),   N_{t,e}(z) = sum_{j<e} shift^(t j)(z),

and the norm map N_{t,e} is GF(2)-linear, so P_i is the normal closure of
the powers w^e and the images of N.  Over GF(2), with X the one-step
shift and t = 2^v, (1 + X)^t = 1 + X^t and sum_{j<e} X^j = (1 + X)^(e-1),
so N_{t,e} = (1 + X^t)^(e-1) = (1 + X)^(t(e-1)), which factors through
N_{1,e} = (1 + X)^(e-1).  And N_{1,e}(z) = x^-e (x z)^e is a product of
e-th powers.  So the images of N_{1,e} hold those of every N_{t,e}.  The
normal closure conjugates by x, so a generator list that x permutes needs
one member per x-orbit:

- N_{1,e} commutes with the shift, so the images of s_0 and of c_{0,j},
  1 <= j <= n/2, give the images of the whole central basis.
- Conjugating w = (t, a, 0) by x gives (t, rot a, z'), and by a base
  element b gives (t, a + (1 + shift^t) b, z''); their e-th powers differ
  from those of (t, rot a, 0) and (t, a + (1 + shift^t) b, 0) by norm
  images.  With b = y_u the second moves a by e_u + e_(u+t).
- Write w_a = (t, a, 0) = x^t b_a.  Then Q(a) = x^(-te) w_a^e is a product
  of shifts of b_a inside H, which has class 2 with [H, H] <= Z central.
  As b_(a+a') = b_a b_a' corr(a, a'), reordering that product gives
  Q(a + a') = Q(a) Q(a') gamma(a, a') N_{t,e}(corr(a, a')), where gamma is
  a product of commutators and so bilinear in (a, a').  Each
  gamma(e_u, e_u') is read off the powers with a of weight at most 2, so
  by induction on the weight these powers and the norm images give every
  w_a^e = w_0^e Q(a).
- Up to rotation a row of weight 1 is e_0 and a row of weight 2 is
  e_0 + e_w with 1 <= w < n.  The base moves e_0 + e_w to e_0 + e_(w-t)
  and e_0 + e_t to 0, so the t + 1 rows a = 0, 1 and 1 | 1 << w with
  1 <= w < t give every power w^e.  The row a = 0 gives (x^t)^e =
  (x^e)^t, so x^e stands for it at every t.

For t = 0 the norm vanishes and w lies in H, whose exponent is 4: its
fourth powers are trivial, and its squares are spanned by the squares
(y_u y_v)^2 of single and paired base generators.  These are central, so
(y_v y_u)^2 = (y_u y_v)^2, and rotating by n - w moves {0, w} to
{n - w, 0}; so the x-conjugates of (y_0 y_w)^2 with w <= n/2 give them all.

Of the nonzero top exponents only t = 2^v are needed.  Every g has 2-power
order, so for odd u the elements g and g^u generate the same cyclic
subgroup and g^e is a power of (g^u)^e.  With u the inverse of the odd
part of t modulo 2^k, g^u has top exponent 2^v, v the 2-adic valuation
of t.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import count

from .engine import Element, GroupContext, commutator, level_log_order, pair_slot
from .subgroup import (
    Subgroup,
    abelian_invariants,
    agemo_mod_derived,
    close,
    extend,
    full_group,
    layer_shape,
    noncentral_commutators,
    noncentral_squares,
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
        """Largest natural index with a nontrivial term, the one before the
        last: _build_series stops at the first trivial term, so the last term
        is the only trivial one (term() relies on this too)."""
        return self.first_index + len(self.terms) - 2

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
        """layer_shape(S_i, S_(i+1)), without its checks for the kinds whose
        recurrence certifies an abelian layer (module docstring)."""
        s, t = self.term(i), self.term(i + 1)
        _, _, abelian = _STEPS[self.kind]
        return abelian_invariants(s, t) if abelian else layer_shape(s, t)

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
    first, build, _ = _STEPS[kind]
    terms = [full_group(ctx)]
    for nxt in build(ctx, terms):
        if not terms[-1].contains_subgroup(nxt):
            raise RuntimeError(f"{kind.value} series is not descending")
        terms.append(nxt)
        if nxt.is_trivial():
            break
    return SeriesTable(kind, ctx.k, first, tuple(terms))


def _stepwise(step):
    # the builder of a recurrence: each term from the terms built so far
    return lambda ctx, terms: (step(ctx, terms) for _ in count())


def _gamma_terms(ctx: GroupContext) -> list[Subgroup]:
    """gamma_2, ..., gamma_(2n) = 1 from the stated lists, bottom-up, each
    layer certified central (module docstring)."""
    x, y = ctx.x(), ctx.y()
    built = [trivial_subgroup(ctx)]  # C_(2n)
    for i in range(2 * ctx.n - 1, 0, -1):
        gens = stated_gamma_generators(ctx, i)
        if not all(built[-1].contains(commutator(s, g)) for s in gens for g in (x, y)):
            raise RuntimeError(f"lower central layer {i} is not central")
        if i > 1:  # C_1 = <x, y> is G, the first term of every table
            built.append(extend(built[-1], gens))
    return built[::-1]


def _certified(ctx: GroupContext, terms: list[Subgroup], heads, owed: list[Element]) -> Subgroup:
    """gamma_i <heads(ctx, i)>^G, i = len(terms) + 1, once it holds the
    [h, x], [h, y] over heads(ctx, i - 1) and the rest owed by its
    recurrence (module docstring)."""
    i, x, y = len(terms) + 1, ctx.x(), ctx.y()
    term = extend(series(ctx, SeriesKind.GAMMA).term(i), heads(ctx, i), (x, y))
    brackets = [commutator(h, g) for h in heads(ctx, i - 1) for g in (x, y)]
    if not all(map(term.contains, brackets + owed)):
        raise RuntimeError(f"closed form {i} misses a generator of its recurrence")
    return term


def _lower_2_heads(ctx: GroupContext, i: int) -> list[Element]:
    squares = [ctx.c(i - 1) ** 2] if 1 < i <= ctx.n // 2 + 1 else []
    return [ctx.x() ** (1 << (i - 1))] + squares


def _lower_2_term(ctx: GroupContext, terms: list[Subgroup]) -> Subgroup:
    # P_i over gamma_i, certified by [P_(i-1), G] P_(i-1)^2
    return _certified(ctx, terms, _lower_2_heads, noncentral_squares(terms[-1]))


def _frattini_step(ctx: GroupContext, terms: list[Subgroup]) -> Subgroup:
    # Phi(P) = P^2 [P, P] is characteristic in P, and P is normal in G, so
    # Phi(P) is normal in G and a plain closure of [P, P] and the generator
    # squares is already the normal subgroup
    return agemo_mod_derived(terms[-1])


def _dimension_heads(ctx: GroupContext, i: int) -> list[Element]:
    gamma_m = series(ctx, SeriesKind.GAMMA).term((i + 1) // 2)
    return [ctx.x() ** (1 << (i - 1).bit_length())] + noncentral_squares(gamma_m)


def _dimension_term(ctx: GroupContext, terms: list[Subgroup]) -> Subgroup:
    # D_i over gamma_i, certified by [D_(i-1), G] D_m^2, m = ceil(i/2)
    dm = terms[len(terms) // 2]
    owed = noncentral_squares(dm) + list(noncentral_commutators(dm, dm))
    return _certified(ctx, terms, _dimension_heads, owed)


# kind -> (natural index of the whole group, builder of the terms after it
# from the list of terms built so far, whether the recurrence makes every
# layer abelian)
_STEPS = {
    SeriesKind.GAMMA: (1, lambda ctx, terms: _gamma_terms(ctx), True),
    SeriesKind.LOWER_P: (1, _stepwise(_lower_2_term), True),
    SeriesKind.FRATTINI: (0, _stepwise(_frattini_step), True),
    SeriesKind.DIMENSION: (1, _stepwise(_dimension_term), True),
    SeriesKind.POWER: (0, lambda ctx, terms: (exact_power_subgroup(ctx, i) for i in count(1)),
                       False),
    SeriesKind.M: (0, lambda ctx, terms: [*(projection_kernel(ctx, i) for i in range(1, ctx.k)),
                                          trivial_subgroup(ctx)], False),
}


def exact_power_subgroup(ctx: GroupContext, i: int) -> Subgroup:
    """The subgroup generated by all 2**i-th powers, in closed form.

    With e = 2**i it is the normal closure of three lists with one member
    per x-orbit (see the module docstring for the argument).  Only the top
    exponents t = 2^v, v < k, occur: for odd u, g^e is a power of (g^u)^e,
    and a suitable u makes the top exponent of g^u a power of 2.

    (a) x^e, and w^e for w = (t, a, 0) with a = 1 and 1 | 1 << w for
        1 <= w < t: up to conjugation these and a = 0, whose power
        (x^t)^e = (x^e)^t is a power of x^e, are the rows of weight at
        most 2, and their powers give all the others;
    (b) N_{1,e}(s_0) and N_{1,e}(c_{0,j}) for 1 <= j <= n/2, from the
        identity (x z)^e = x^e N_{1,e}(z); N_{t,e} = (1 + X)^(t(e-1)) is
        N_{1,e} after (1 + X)^((t-1)(e-1)), so these images hold those of
        every t.  They are computed from the central shift tables by
        doubling, N_{1,2m} = N_{1,m} + shift^m N_{1,m}, without group
        multiplication;
    (c) for e = 2 only, (y_0 y_w)^2 for w <= n/2, whose x-conjugates span
        the squares of the trivial-top part; its exponent is 4, so for
        e >= 4 this list is empty.
    """
    if i < 1:
        raise ValueError("power index must be >= 1")
    e = 1 << i
    gens = [ctx.x() ** e]
    for b in [0] + [ctx.n + pair_slot(0, j, ctx.n) for j in range(1, ctx.n // 2 + 1)]:
        img = 1 << b
        for j in range(i):
            img ^= ctx.shift_central(img, 1 << j)
        gens.append(ctx.central_from_mask(img))
    for t in (1 << v for v in range(ctx.k)):
        gens += [ctx.element(t, a, 0) ** e for a in [1] + [1 | 1 << w for w in range(1, t)]]
    if e == 2:
        gens += [ctx.element(0, 1 | 1 << w, 0) ** 2 for w in range(ctx.n // 2 + 1)]
    return normal_closure(gens)


def projection_kernel(ctx: GroupContext, i: int) -> Subgroup:
    """Kernel of the level projection, the finite shadow of the i-th
    construction-series term: the normal closure K of x^(2^i) and
    y_(2^i) y_0^-1, both of which the projection kills.  Conjugating by x^u
    gives y_(u+2^i) = y_u modulo K, so G/K is generated by x of order
    dividing 2^i and y_0, ..., y_(2^i - 1) subject to the relations of
    level i, and |G/K| <= |G_i|.  The order check certifies that K is the
    whole kernel."""
    if not 1 <= i < ctx.k:
        raise ValueError("kernel level must be strictly below the context level")
    fold = 1 << i
    ker = normal_closure([ctx.x() ** fold, ctx.base_gen(fold) * ctx.base_gen(0).inverse()])
    expected = ctx.log_order - level_log_order(i)
    if ker.log_order != expected:
        raise RuntimeError(
            f"projection kernel to level {i} has log order {ker.log_order}, "
            f"expected {expected}"
        )
    return ker


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
    """Check every layer shape of the lower central series, and that the
    layer log orders sum to the group's; the stated generator lists hold by
    construction, as the series is built from them."""
    table = series(ctx, SeriesKind.GAMMA)
    n = ctx.n
    per_index = []
    for i in range(1, 2 * n + 1):
        shape, want = table.layer(i), expected_gamma_layer(ctx.k, i)
        per_index.append({
            "i": i,
            "shape": list(shape),
            "shape_expected": list(want),
            "shape_match": shape == want,
            "layer_log": table.term(i).log_order - table.term(i + 1).log_order,
        })
    total = sum(row["layer_log"] for row in per_index)
    shapes_ok = all(row["shape_match"] for row in per_index)
    return {
        "ok": shapes_ok and total == ctx.log_order and table.length == 2 * n - 1,
        "class": table.length,
        "class_expected": 2 * n - 1,
        "layer_log_sum": total,
        "log_order": ctx.log_order,
        "per_index": per_index,
    }


# -- the power-series scaffolding subgroups ---------------------------------

def scaffold_heads(ctx: GroupContext, n: int) -> list[Element]:
    """x^(2^n) and c_i^2 for 2^(n-1) <= i <= 2^(k+1), the class bound: what
    gamma_n and T_n add to their lower central and chain parts."""
    return [ctx.x() ** (1 << n)] + [ctx.c(i) ** 2 for i in range(1 << (n - 1), 2 * ctx.n + 1)]


def gamma_n_subgroups(ctx: GroupContext, n: int) -> Subgroup:
    """The scaffold subgroup gamma_n = <x^(2^n), c_i^2 for i >= 2^(n-1)>
    gamma_{2^n} that bounds the power terms, for 1 <= n <= k + 1."""
    if not 1 <= n <= ctx.k + 1:
        raise ValueError("scaffold level out of range")
    return ctx.cached(("scaffold", n), lambda: extend(
        series(ctx, SeriesKind.GAMMA).term(1 << n), scaffold_heads(ctx, n)))


def power_series(ctx: GroupContext, i: int) -> tuple[Subgroup, Subgroup, Subgroup]:
    """(lower, exact, upper): the exact power subgroup P_i, the lower central
    term with index 2**(i+1) meant to lie below it and the scaffold subgroup
    gamma_i meant to hold it, at every level; the caller checks the two
    inclusions."""
    if i < 1:
        raise ValueError("power index must be >= 1")
    if i > ctx.k + 1:
        raise ValueError("sandwich level out of range")
    return (series(ctx, SeriesKind.GAMMA).term(1 << (i + 1)),
            series(ctx, SeriesKind.POWER).term(i),
            gamma_n_subgroups(ctx, i))


# -- exact instances of the commutator expansion identities -----------------

def commutator_identity_checks(ctx: GroupContext) -> dict:
    """The square-commutator congruence alone, the key square_commutator:
    [y, x^(2^k)] agrees with c_(2^(k-1)+1)^2 c_(2^k+1) modulo the lower
    central term of index 2^k + 2.  In this group the left side is 1, as
    x^(2^k) = 1, so the check decides that the right side lies in that
    term.  The other identities are shift_identity_check and
    power_expansion_check.  The plural name stays because bench/tracer.py
    wraps this function by name (span series.identity_checks).  Computed
    once per level."""
    return ctx.cached("identity_checks", lambda: _square_commutator(ctx))


def _square_commutator(ctx: GroupContext) -> dict:
    """The top exponent is read mod 2^k, so x^(2^k) = 1 and the left side
    [y, x^(2^k)] is 1: the congruence holds iff the right side
    c_(n/2+1)^2 c_(n+1), n = 2^k, lies in gamma_(n+2)."""
    n = ctx.n
    rhs = (ctx.c(n // 2 + 1) ** 2) * ctx.c(n + 1)
    return {"square_commutator": series(ctx, SeriesKind.GAMMA).term(n + 2).contains(rhs)}


def shift_identity_check(ctx: GroupContext) -> dict:
    """The one-step shift identity for pair commutators, the keys
    shift_failures and power_shift.  It reads no series, so the two shift
    claims, which read only this check, build none.  Computed once per
    level."""
    return ctx.cached("shift_identity", lambda: _shift_identity(ctx))


def _shift_identity(ctx: GroupContext) -> dict:
    """The one-step shift identity
    [z_(i,j), x] = z_(i+1,j) z_(i,j+1) z_(i+1,j+1) for 1 <= i <= j <= n;
    the comment below argues it for the pairs with j < i (symmetry) and
    with max(i, j) > n (both sides are 1).

    The double-product expansion

        [z_(i,j), x, ..(m).., x] = prod z_(i+m-n', j+m-s+n')^(C(m,s) C(s,n'))

    over 0 <= n' <= s <= m, follows from it for every i, j and m.  The
    centre block Z is elementary abelian and normal, so on Z the map
    w -> [w, x] = w^-1 w^x = w shift(w) is GF(2)-linear.  Let A and B act
    on formal GF(2) sums of index pairs by A(i, j) = (i+1, j) and
    B(i, j) = (i, j+1), and let zeta be the linear map (i, j) -> z_(i,j).
    The one-step identity says [zeta(p), x] = zeta(T p), T = A + B + AB,
    for every pair, so [., x] zeta = zeta T on every sum, and m steps give
    zeta T^m.  A and B commute, so the binomial theorem gives

        T^m = sum_s C(m,s) (AB)^(m-s) (A+B)^s,
        (A+B)^s = sum_n' C(s,n') A^(s-n') B^n',

    and (AB)^(m-s) A^(s-n') B^n' (i, j) = (i+m-n', j+m-s+n'); the image of
    T^m (i, j) under zeta is the double product, with the exponents read
    mod 2 as the z's are central involutions.

    The 2-power shift identity [z_(i,j), x^(2^t)] = z_(i+2^t,j)
    z_(i,j+2^t) z_(i+2^t,j+2^t) is that expansion at m = 2^t.  With X the
    one-step shift, [w, x^m] = (1 + X^m) w and the m-fold commutator is
    (1 + X)^m w, and these agree for m = 2^t as C(2^t, j) is even for
    0 < j < 2^t.  By Lucas's theorem C(2^t, s) C(s, n') is odd only at
    (s, n') = (0, 0), (2^t, 0) and (2^t, 2^t), the three factors.  So the
    lemma-double-product and cor-zij-shift claims both read this check.
    """
    n = ctx.n
    x = ctx.x()
    # checked for i, j <= n only.  Once max(i, j) > n both sides are 1:
    # c_i has base row (1 + X)^(i-1) e_0 and (1 + X)^n = 1 + X^n = 0 on the
    # cyclic base, so c_i is central-block for i > n and z_{i,j} = 1, and
    # the same holds for every factor on the right, whose indices only grow
    # (the zij-table claim certifies z_{i,j} = 1 there through 2n + 1).
    # Only j >= i: every c_i lies in H, and [H, H] is the pair block, which
    # is elementary abelian, so z_{j,i} = z_{i,j}^-1 = z_{i,j} and the
    # identity for (j, i) is the one for (i, j)
    shift_failures = [[ii, jj] for ii in range(1, n + 1) for jj in range(ii, n + 1)
                      if commutator(ctx.zij(ii, jj), x)
                      != ctx.zij(ii + 1, jj) * ctx.zij(ii, jj + 1) * ctx.zij(ii + 1, jj + 1)]
    return {"shift_failures": shift_failures, "power_shift": not shift_failures}


def power_expansion_check(ctx: GroupContext) -> dict:
    """The two power expansion congruences with their normal-closure error
    terms, the keys power_expansion and power_expansion_details.  It reads
    no series, so eq-power-expansion, which reads only this check, builds
    none.  Computed once per level."""
    return ctx.cached("power_expansion", lambda: _power_expansion(ctx))


def _power_expansion(ctx: GroupContext) -> dict:
    """The two power expansion congruences at a = x, b = y, e = 2^r for
    1 <= r <= k + 2:

        (xy)^e = x^e y^e prod_(2<=l<=e) c_l^C(e,l)   mod K1(e),
        [x^e, y] = prod_(1<=l<=e) t_l^C(e,l)         mod K2(e),

    with t_l = [x, y, x, ..(l-1).., x] and K1, K2 the error spans of
    _weight_filtered_closure.  Every c_l and t_l has top exponent 0, so it
    lies in H, whose exponent is 4, and only C(e, l) mod 4 counts.  By
    Kummer's theorem v2(C(2^r, l)) = r - v2(l) for 1 <= l <= 2^r, so
    C(e, l) = 0 mod 4 except at l = e/2, where it is 2 mod 4, and at l = e,
    where it is 1.  So the right sides are x^e y^e c_(e/2)^2 c_e, with
    c_(e/2)^2 only when e >= 4 (the first product starts at l = 2), and
    t_(e/2)^2 t_e."""
    k = ctx.k
    x, y = ctx.x(), ctx.y()
    t = [ctx.identity(), commutator(x, y)]  # t[l] = t_l
    d_ok = True
    details = []
    for r in range(1, k + 3):
        e = 1 << r
        while len(t) <= e:
            t.append(commutator(t[-1], x))
        square = ctx.c(e // 2) ** 2 if e >= 4 else ctx.identity()
        rhs1 = x ** e * y ** e * square * ctx.c(e)
        k1 = _weight_filtered_closure(ctx, e, 1)
        ok1 = k1.contains(rhs1.inverse() * (x * y) ** e)
        rhs2 = t[e // 2] ** 2 * t[e]
        k2 = _weight_filtered_closure(ctx, e + 2, 2)
        ok2 = k2.contains(rhs2.inverse() * commutator(x ** e, y))
        d_ok = d_ok and ok1 and ok2
        details.append({"r": r, "product_form": ok1, "commutator_form": ok2,
                        "error_log_first": k1.log_order, "error_log_second": k2.log_order})
    return {"power_expansion": d_ok, "power_expansion_details": details}


def _weight_filtered_closure(ctx: GroupContext, weight: int, lowest: int) -> Subgroup:
    """The error subgroup of the power expansion congruences instantiated
    here: the span of the pair commutators z_{u,v}, lowest <= u < v, of
    total weight u + v at least the bound (lowest = 1 for the product form,
    2 for the commutator form).  They are central involutions, so there is
    no power part.

    The product form also admits the double chains c_{u,v}, u >= 2, of
    enough weight, but they add nothing: c_{u,1} = [c_u, y] = z_{u,1}, and
    c_{u,v} = [z_{u,1}, x, ..(v-1).., x] is by the double-product identity
    a product of z's of weight at least u + v.  The span is normal: y
    centralises the pair block, and [z_{i,j}, x] = z_{i+1,j} z_{i,j+1}
    z_{i+1,j+1} has factors of no smaller weight or lowest index (z_{u,u} =
    1, z_{v,u} = z_{u,v}, and z_{u,v} = 1 once v > n, as argued for
    shift_identity_check), so a plain closure is the normal closure.  Only
    v <= n is listed: c_v is central-block for v > n, so z_(u,v) = 1 there.
    An empty list gives the trivial group."""
    n = ctx.n
    gens = [ctx.zij(u, v) for u in range(lowest, n)
            for v in range(max(u + 1, weight - u), n + 1)]
    return close(gens) if gens else trivial_subgroup(ctx)
