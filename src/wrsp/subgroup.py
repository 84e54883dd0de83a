"""Subgroup arithmetic via induced generating sequences over a fixed chain.

Positions along the chain: 0 is the top exponent (relative order dividing
2**k), positions 1..n are the base coordinates and positions n+1..n+d the
central coordinates, each of relative order 2.  A subgroup is stored as a
fully reduced echelon sequence: strictly increasing leading positions,
normalised leading values, zeros at every deeper leader's position.

Reduction always multiplies on the right.  Right multiplication by a member
with leading position p never disturbs coordinates below p (the conjugation
in the product rule is driven by the right factor's top exponent, which is
zero for every leader except the one at position 0), so the reduced
sequence is canonical: it depends only on the subgroup, not on the
generators it was computed from.

Central tail.  The members led by central positions are pure central rows,
and in a canonical sequence they are in reduced row-echelon form: each row
has a pivot (its lowest set bit) and no row has a set bit at another row's
pivot.  So reduction modulo the tail XORs one row per set bit of
z & pivot_mask, in one pass.  close() keeps the form as it goes: a new
central row, already reduced, clears its pivot from the older rows.

Suffix lemma.  Let S have canonical sequence L and let s >= 1.  The members
of L led at s or deeper are the canonical sequence of the intersection of S
with the suffix subgroup of all elements whose coordinates below s vanish,
and, each having relative order 2, their number is its log order.  An
element of the intersection sifts through L using only those members:
right multiplication by a member led at p >= s keeps every coordinate
below p, so the element stays led at s or deeper.  So intersect() reads
the intersection with a suffix subgroup (or the full group) off L and never
closes; it raises for any other pair.  For a target T inside the centre
block Z, T ^ S = T ^ (S ^ Z), and the central tails of a descending chain
are nested, so central_cap_logs() reads log |T ^ S| for every term of a
series from one reduced tail, seeded with T and grown deepest term first.
"""

from __future__ import annotations

from bisect import insort
from collections import deque

from .engine import Element, GroupContext, commutator


class UnsupportedExactIntersection(RuntimeError):
    """Raised for an intersection with no exact structural route."""


def _v2(t: int) -> int:
    return (t & -t).bit_length() - 1


def _lead(ctx: GroupContext, g: Element) -> int:
    if g.t:
        return 0
    if g.a:
        return 1 + _v2(g.a)
    if g.z:
        return 1 + ctx.n + _v2(g.z)
    return ctx.total_positions


class _Tail:
    """The central rows of an induced sequence in reduced row-echelon form.

    rows maps each pivot (a one-bit mask, the lowest set bit of its row) to
    the row, and pivots is the union of the pivots.  No row has a set bit at
    another row's pivot, so XOR-ing a row in never changes another pivot
    bit, and reduction XORs one row per set bit of z & pivots.
    """

    __slots__ = ("pivots", "rows")

    def __init__(self, rows=()):
        """Start from rows already in reduced row-echelon form."""
        self.rows: dict[int, int] = {r & -r: r for r in rows}
        self.pivots = sum(self.rows)  # distinct one-bit keys: their union

    def reduce(self, z: int) -> int:
        hit = z & self.pivots
        rows = self.rows
        while hit:
            low = hit & -hit
            z ^= rows[low]
            hit ^= low
        return z

    def insert(self, z: int) -> None:
        """Add a nonzero row already reduced by the tail; its pivot is
        cleared from the older rows to keep the form reduced."""
        low = z & -z
        rows = self.rows
        for q, r in rows.items():
            if r & low:
                rows[q] = r ^ z
        rows[low] = z
        self.pivots |= low

    def elements(self, ctx: GroupContext) -> tuple[Element, ...]:
        return tuple(Element(ctx, 0, 0, self.rows[q]) for q in sorted(self.rows))


class Subgroup:
    """A subgroup held as a canonical induced generating sequence."""

    __slots__ = ("ctx", "igs", "log_order", "_tab")

    def __init__(self, ctx: GroupContext, igs: tuple[Element, ...], log_order: int):
        self.ctx = ctx
        self.igs = igs
        self.log_order = log_order
        self._tab = None

    # internal: sorted top and base leader positions, position -> member
    # map, and the central rows (already reduced in a canonical sequence)
    def _table(self):
        if self._tab is None:
            members = {_lead(self.ctx, m): m for m in self.igs if m.t or m.a}
            tail = _Tail(m.z for m in self.igs if not (m.t or m.a))
            self._tab = (sorted(members), members, tail)
        return self._tab

    def reduce(self, g: Element) -> Element:
        """Canonical coset representative of g modulo this subgroup."""
        if g.ctx.k != self.ctx.k:
            raise ValueError("element and subgroup live at different levels")
        return _reduce(self.ctx, *self._table(), g)

    def contains(self, g: Element) -> bool:
        return self.reduce(g).is_identity()

    def contains_subgroup(self, other: "Subgroup") -> bool:
        if other.ctx.k != self.ctx.k:
            raise ValueError("subgroups live at different levels")
        return all(self.contains(m) for m in other.igs)

    def leader_orders(self) -> list[int]:
        """Relative order of each member along the chain."""
        out = []
        for m in self.igs:
            if m.t:
                out.append(1 << (self.ctx.k - _v2(m.t)))
            else:
                out.append(2)
        return out

    def enumerate_elements(self) -> list[Element]:
        if self.log_order > 20:
            raise ValueError("enumeration is limited to subgroups of order 2**20 or less")
        els = [self.ctx.identity()]
        for m, r in zip(self.igs, self.leader_orders()):
            nxt = []
            for e in els:
                cur = e
                for _ in range(r):
                    nxt.append(cur)
                    cur = cur * m
            els = nxt
        return els

    def is_normal(self) -> bool:
        ctx = self.ctx
        for c in (ctx.x(), ctx.y()):
            for m in self.igs:
                if not self.contains(m.conj(c)):
                    return False
        return True

    def is_trivial(self) -> bool:
        return self.log_order == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.ctx.k == other.ctx.k and self.igs == other.igs

    def __hash__(self) -> int:
        return hash((self.ctx.k, self.igs))

    def __repr__(self) -> str:
        return f"Subgroup(k={self.ctx.k}, log_order={self.log_order})"


def _reduce(ctx: GroupContext, positions: list[int], members: dict, tail: _Tail,
            g: Element) -> Element:
    for p in positions:
        if p == 0:
            if g.t:
                L = members[0]
                v = _v2(L.t)  # leader normalised so that L.t == 1 << v
                if _v2(g.t) >= v:
                    g = g * (L ** (-(g.t >> v)))
        elif (g.a >> (p - 1)) & 1:
            g = g * ctx.inv(members[p])
    if g.z & tail.pivots:
        g = Element(ctx, g.t, g.a, tail.reduce(g.z))
    return g


def _normalize_top(ctx: GroupContext, h: Element) -> Element:
    v = _v2(h.t)
    u = h.t >> v
    if u == 1:
        return h
    return h ** pow(u, -1, 1 << (ctx.k - v))


def _push_obligations(ctx, members, positions, tail, new, queue, conjugators):
    """Queue what a new leader owes the closure: its relative-order power,
    its commutators with the other leaders and its conjugates.  The central
    block commutes with every element of trivial top exponent, so a central
    leader pairs only with the top leader and conjugators with a nonzero top
    exponent, and a base leader pairs only with the top and base leaders."""
    if not (new.t or new.a):
        others = [members[0]] if 0 in members else []
        conjugators = [c for c in conjugators if c.t]
    else:
        queue.append(new ** (1 << (ctx.k - _v2(new.t))) if new.t else new * new)
        others = [members[p] for p in positions]
        if new.t:
            others += [Element(ctx, 0, 0, r) for r in tail.rows.values()]
    for L in others:
        if L is not new:
            # [L, new] is the inverse of [new, L], so one of them suffices
            queue.append(commutator(new, L))
    for c in conjugators:
        queue.append(new.conj(c))


def close(gens, conjugators=()) -> Subgroup:
    """Canonical induced sequence for the subgroup generated by gens.

    With conjugators given, the result is additionally closed under
    conjugation by them (pass the group generators to get normal closures).
    """
    gens = list(gens)
    if not gens:
        raise ValueError("close needs at least one generator")
    ctx = gens[0].ctx
    for g in gens:
        if g.ctx.k != ctx.k:
            raise ValueError("generators live at different levels")

    positions: list[int] = []  # top and base leader positions, increasing
    members: dict[int, Element] = {}
    tail = _Tail()
    queue = deque(gens)
    while queue:
        g = queue.popleft()
        h = _reduce(ctx, positions, members, tail, g)
        if h.is_identity():
            continue
        if not (h.t or h.a):
            tail.insert(h.z)
        elif h.t:
            h = _normalize_top(ctx, h)
            old = members.get(0)
            members[0] = h
            if old is not None:
                # irreducible top coordinate: smaller 2-adic value replaces
                queue.append(old)
            else:
                positions.insert(0, 0)
        else:
            p = _lead(ctx, h)
            insort(positions, p)
            members[p] = h
        _push_obligations(ctx, members, positions, tail, h, queue, conjugators)

    # canonical pass: clear every deeper leader position, deep to shallow;
    # the central rows are already reduced
    for i in range(len(positions) - 1, -1, -1):
        p = positions[i]
        members[p] = _reduce(ctx, positions[i + 1:], members, tail, members[p])

    log = len(tail.rows)
    for p in positions:
        log += (ctx.k - _v2(members[p].t)) if p == 0 else 1
    return Subgroup(ctx, tuple(members[p] for p in positions) + tail.elements(ctx), log)


def trivial_subgroup(ctx: GroupContext) -> Subgroup:
    return Subgroup(ctx, (), 0)


def full_group(ctx: GroupContext) -> Subgroup:
    def build():
        got = close([ctx.x(), ctx.y()])
        if got.log_order != ctx.log_order:
            raise RuntimeError("closure of the two generators missed the full group")
        return got

    return ctx.cached("full", build)


def _suffix_subgroup(ctx: GroupContext, start: int, cache_key: str) -> Subgroup:
    """The unit vectors from start >= 1 on; they are already a canonical
    sequence, each of relative order 2."""
    def build():
        gens = []
        for p in range(start, ctx.total_positions):
            if p <= ctx.n:
                gens.append(ctx.base_gen(p - 1))
            else:
                gens.append(ctx.central_from_mask(1 << (p - 1 - ctx.n)))
        return Subgroup(ctx, tuple(gens), len(gens))

    return ctx.cached(cache_key, build)


def base_and_centre_subgroup(ctx: GroupContext) -> Subgroup:
    """All elements with trivial top exponent (index 2**k)."""
    return _suffix_subgroup(ctx, 1, "base_and_centre")


def centre_block_subgroup(ctx: GroupContext) -> Subgroup:
    """All elements with trivial top and base parts."""
    return _suffix_subgroup(ctx, 1 + ctx.n, "centre_block")


def pair_block_subgroup(ctx: GroupContext) -> Subgroup:
    """Span of the pair commutators, the derived subgroup of the base part."""
    return _suffix_subgroup(ctx, 1 + 2 * ctx.n, "pair_block")


def normal_closure(gens) -> Subgroup:
    """The normal closure of gens: their closure under conjugation by x and y.

    close() sifts the conjugate by each conjugator of every leader it
    inserts into the result H, and the leaders generate H, so H^x <= H.  H
    is finite, so H^x = H and H^(x^-1) = H: x^-1 is not needed.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("normal_closure needs at least one generator")
    ctx = gens[0].ctx
    return close(gens, conjugators=(ctx.x(), ctx.y()))


def join(a: Subgroup, b: Subgroup) -> Subgroup:
    if a.ctx.k != b.ctx.k:
        raise ValueError("subgroups live at different levels")
    gens = a.igs + b.igs
    if not gens:
        return trivial_subgroup(a.ctx)
    return close(gens)


def _commute_by_form(u: Element, v: Element) -> bool:
    """True when the normal form alone shows that u and v commute: both
    have trivial top part and one of them lies in the centre block."""
    return u.t == 0 and v.t == 0 and (u.a == 0 or v.a == 0)


def _commutators(us, vs):
    """The nontrivial [u, v] for u in us and v in vs, skipping the pairs
    that _commute_by_form settles.  When us is vs each unordered pair is
    visited once: [v, u] = [u, v]^-1 and [u, u] = 1."""
    for i, u in enumerate(us):
        for v in (vs[i + 1:] if us is vs else vs):
            if not _commute_by_form(u, v):
                c = commutator(u, v)
                if not c.is_identity():
                    yield c


def commutator_subgroup(a: Subgroup, b: Subgroup) -> Subgroup:
    """[a, b] for normal a, b: the normal closure of generator commutators."""
    if a.ctx.k != b.ctx.k:
        raise ValueError("subgroups live at different levels")
    seeds = list(_commutators(a.igs, b.igs))
    return normal_closure(seeds) if seeds else trivial_subgroup(a.ctx)


def group_commutators(a: Subgroup) -> list[Element]:
    """The nontrivial [u, x] and [u, y] for u in the igs of a; for normal a
    their normal closure is [a, G]."""
    return list(_commutators(a.igs, (a.ctx.x(), a.ctx.y())))


def commutator_with_group(a: Subgroup) -> Subgroup:
    """[a, G] using the two group generators on the right."""
    seeds = group_commutators(a)
    return normal_closure(seeds) if seeds else trivial_subgroup(a.ctx)


def agemo_mod_derived(s: Subgroup) -> Subgroup:
    """[s, s] joined with the squares of the members of s.

    Equals s^2 [s, s], the Frattini subgroup of s, because s is abelian
    modulo [s, s].
    """
    der = commutator_subgroup(s, s)
    gens = list(der.igs) + [g ** 2 for g in s.igs]
    return close(gens) if gens else trivial_subgroup(s.ctx)


def _suffix_start_of(sub: Subgroup) -> int | None:
    """Start position when sub is a full suffix-coordinate subgroup: a
    canonical sequence whose leads start at p0 >= 1 and number
    total_positions - p0 takes every position from p0 on, so its members
    are the unit vectors there."""
    ctx = sub.ctx
    if not sub.igs:
        return ctx.total_positions
    p0 = _lead(ctx, sub.igs[0])
    if p0 and len(sub.igs) == ctx.total_positions - p0:
        return p0
    return None


def _suffix_part(sub: Subgroup, start: int) -> Subgroup:
    """Exact intersection with the suffix subgroup from start >= 1, by the
    suffix lemma (module docstring)."""
    igs = sub.igs
    cut = 0
    while cut < len(igs) and _lead(sub.ctx, igs[cut]) < start:
        cut += 1
    return Subgroup(sub.ctx, igs[cut:], len(igs) - cut)


def intersect(a: Subgroup, b: Subgroup) -> Subgroup:
    """Exact intersection when one side is a full suffix-coordinate
    subgroup (the centre block, the trivial-top part, the pair block, the
    trivial group; by the suffix lemma) or the full group; neither closes.
    Any other pair, two centre-block subspaces included, raises
    UnsupportedExactIntersection at every level, because no verified fact
    needs it; central_cap_logs gives the orders a central density needs.
    """
    if a.ctx.k != b.ctx.k:
        raise ValueError("subgroups live at different levels")
    ctx = a.ctx
    if a.log_order == ctx.log_order:
        return b
    if b.log_order == ctx.log_order:
        return a
    for s, t in ((a, b), (b, a)):
        start = _suffix_start_of(t)
        if start is not None:
            return _suffix_part(s, start)
    raise UnsupportedExactIntersection(
        "unsupported-exact: generic intersection needs a "
        "suffix-coordinate or full side"
    )


def central_cap_logs(target: Subgroup, terms) -> list[int]:
    """log2 |target ^ S| for every term S of a descending chain, for a
    target T inside the centre block Z, in one pass over the chain.

    T ^ S = T ^ A with A = S ^ Z, the central tail of S (suffix lemma),
    and log |T ^ A| = dim T + dim A - dim(T + A).  The tails of a
    descending chain are nested, and so are the pivot sets of their reduced
    forms, so the rows of A with pivots new to it, added to the next deeper
    tail, span A.  One tail seeded with T's rows therefore takes, deepest
    term first, only those rows, and its size is then dim(T + A).
    """
    ctx = target.ctx
    if not all(m.is_central_block() for m in target.igs):
        raise ValueError("target does not lie in the centre block")
    span = _Tail(m.z for m in target.igs)
    deeper = 0  # the pivots of the deeper term's tail
    logs = []
    for sub in reversed(terms):
        if sub.ctx.k != ctx.k:
            raise ValueError("subgroups live at different levels")
        tail = sub._table()[2]
        for low, row in tail.rows.items():
            if not low & deeper:
                row = span.reduce(row)
                if row:
                    span.insert(row)
        deeper = tail.pivots
        logs.append(target.log_order + len(tail.rows) - len(span.rows))
    return logs[::-1]


def layer_shape(s: Subgroup, t: Subgroup) -> tuple[int, ...]:
    """Abelian invariants of A = s/t for t normal in s with abelian quotient,
    largest first.

    Read off the ranks of the power subgroups: A^(2^m) has preimage
    s^(2^m) t, the closure of t and the 2^m-th powers of the members of s
    (A is abelian), and with logs[m] = log|s^(2^m) t| the number of
    invariants above 2^m is logs[m] - logs[m+1].
    """
    ctx = s.ctx
    if t.ctx.k != ctx.k:
        raise ValueError("subgroups live at different levels")
    if not s.contains_subgroup(t):
        raise ValueError("second subgroup is not contained in the first")
    if not all(t.contains(c) for c in _commutators(s.igs, s.igs)):
        raise ValueError("quotient is not abelian")
    logs = [s.log_order]
    while logs[-1] > t.log_order:
        e = 1 << len(logs)
        logs.append(close(list(t.igs) + [g ** e for g in s.igs]).log_order)
    # ranks[m]: invariants above 2^m; those equal to 2^(m+1) are the drop
    ranks = [hi - lo for hi, lo in zip(logs, logs[1:])] + [0]
    invariants = ()
    for m in range(len(ranks) - 2, -1, -1):
        invariants += (2 << m,) * (ranks[m] - ranks[m + 1])
    return invariants
