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

Integer base step.  A base leader m = (0, b, w) has trivial top, so g m^-1
for g = (t, a, z) needs no conjugation: m^-1 = (0, b, w + corr(b, b)) and
the product is (t, a + b, z + w + corr(b, b) + corr(a, b)).  _reduce
applies these updates to the coordinates as integers and builds one
Element at the end; only the top leader's power takes the general product.

Echelon tables.  A table holds the top member, if any, the base members
keyed by the lowest set bit of their base row and the central rows keyed
by the lowest set bit of z, each keyed layer with a mask of its pivots.
close() keeps the layers in plain echelon form (distinct pivots, never
back-substituted), so a central row goes in without touching the others,
and its canonical pass back-substitutes once: the central rows, then the
base members deep to shallow, then the top member.  No output can change.
A sift settles the top coordinate by a power of the top member, leaving
one coset g'(S ^ H), H the normal subgroup of trivial top, and then the
unique element of it that is zero at every base and central leader
position (two such differ by an s in S ^ H, which if nontrivial is led at
one of those positions).  Right multiplication by a member led at p keeps
every coordinate below p and flips p, so a sift that takes the lowest
pivot hit and reads the hits again after each step reaches that element:
it depends only on the pivots, not on what the rows hold beyond them.

Suffix lemma.  Let S have canonical sequence L and let s >= 1.  The members
of L led at s or deeper are the canonical sequence of the intersection of S
with the suffix subgroup of all elements whose coordinates below s vanish,
and, each having relative order 2, their number is its log order.  An
element of the intersection sifts through L using only those members:
right multiplication by a member led at p >= s keeps every coordinate
below p, so the element stays led at s or deeper.  So intersect() reads
the intersection with a suffix subgroup (or the full group) off L and never
closes; it raises for any other pair.

Central flag.  For a target T inside the centre block Z, T ^ S = T ^ A
with A = S ^ Z, the central tail of S (suffix lemma).  The tails of a
descending chain are nested, and so are the pivot sets of their reduced
forms, so the rows of a tail with pivots new to it, added to the next
deeper tail, span it.  Taken deepest term first, those rows have distinct
pivots; completed by the unit vectors at the pivots no tail has, they are
an echelon basis b_0, b_1, ... of Z in which every tail A is spanned by
b_0, ..., b_(dim A - 1): a flag adapted to the chain.  A basis row is its
pivot plus higher bits, so one back-substitution, highest pivot first,
gives every unit vector's coordinates in the basis, read through chunk
tables of 4 bits.  In these coordinates A is the set of vectors supported
on [0, dim A).  Put T's rows, in coordinates, in echelon form keyed by top
bit: a sum of some of them has the largest of their distinct top bits, so
it lies in A exactly when each of them has its top bit below dim A, and
log |T ^ S| is the number of such rows.  central_flag() builds the basis
once per chain, and central_cap_logs() answers each target with one small
echelon pass over its rows.

Extension.  extend(B, gens, C) starts close()'s loop from a copy of the
table of a subgroup B closed under the conjugators C, so it sifts only the
new generators and their obligations.  close(B.igs + gens, C) run on B's
canonical sequence first inserts B's members unchanged (each is led below
the ones before it and already reduced at their positions) and rebuilds
B's table exactly, queueing what B's leaders owe: their powers, their
commutators and their conjugates, all of which lie in B.  The result of
close() is the canonical sequence of the subgroup generated by everything
it queues, whatever order it works through the queue in; taken first,
those obligations sift to the identity through B's table and change
nothing.  So B's leaders owe each other nothing, and extend's run is the
rest of close's; close(gens, C) itself is extend from the trivial group.

Central rows in closed form.  Write X for the one-step central shift, so
that a central row r = (0, 0, r) has r^x = X r.  The trivial-top part H
centralises the centre block Z, so r^(x^t u) = X^t r for u in H, and
[r, g] = r + X^t r for every g of top exponent t.  A central element sifts
through the central rows alone, so it lies in S exactly when S's tail
reduces its row to 0.  Three consequences:

(a) For normal a and b, A = a ^ Z is X-invariant, and the top exponent of
    every element of b is a multiple of t, that of b's top member (t = 0
    when it has none).  As 1 + X^(tj) = (1 + X^t)(1 + X^t + ... +
    X^(t(j-1))), [A, b] = (1 + X^t)A: the span of r + X^t r over the rows
    r of A, one shift and one reduce per row.  X commutes with 1 + X^t, so
    the span is X-invariant, and y centralises it: it is a normal subgroup
    whose leaders owe a closure nothing.  commutator_subgroup starts
    close()'s loop from it and sifts only the commutators among members
    outside Z.
(b) In a closure under a conjugator x^c with c odd, each central leader
    queues its conjugate X^c r, and X^c generates the group that X does (X
    has order n = 2^k on Z).  So when the queue is empty the span V of the
    central rows is X-invariant: a starting table's rows span the central
    part of a normal subgroup, and every other row's conjugate was sifted
    into V.  Then [r, g] = r + X^t r lies in V for the top member g, so a
    central leader owes the closure only its conjugates, and a new top
    member owes nothing to the central rows.
(c) The abelian check of a layer s/t checks the pairs of the top member
    with a central member r as r + X^t r reduced through t's tail, and its
    invariants extend t by no power of a central member, since r^e = 1 for
    e >= 2.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import NamedTuple

from .engine import Element, GroupContext, commutator, linear_chunk_tables


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
    """Central rows keyed by pivot (a one-bit mask, the row's lowest set
    bit), with pivots their union: in plain echelon form while close()
    grows them, reduced (no row has a bit at another row's pivot) after
    its canonical pass (module docstring, Echelon tables)."""

    __slots__ = ("pivots", "rows")

    def __init__(self, rows=()):
        """Start from rows with distinct lowest set bits."""
        self.rows: dict[int, int] = {r & -r: r for r in rows}
        self.pivots = sum(self.rows)  # distinct one-bit keys: their union

    def reduce(self, z: int) -> int:
        rows, pivots = self.rows, self.pivots
        hit = z & pivots
        while hit:
            z ^= rows[hit & -hit]
            hit = z & pivots
        return z

    def insert(self, z: int) -> None:
        """Add a nonzero row already reduced by the tail: its pivot is new."""
        low = z & -z
        self.rows[low] = z
        self.pivots |= low


class Subgroup:
    """A subgroup held as a canonical induced generating sequence."""

    __slots__ = ("ctx", "igs", "log_order", "_tab")

    def __init__(self, ctx: GroupContext, igs: tuple[Element, ...]):
        """igs is a canonical sequence, so it fixes the order: a top member,
        of exponent t = 2^v, has relative order 2^(k - v), every other
        member 2."""
        self.ctx = ctx
        self.igs = igs
        top = igs[0].t if igs else 0
        self.log_order = len(igs) + (ctx.k - _v2(top) - 1 if top else 0)
        self._tab = None

    # internal: the reduced echelon table (module docstring): top member or
    # None, base pivot -> member, base pivot mask, central rows
    def _table(self):
        if self._tab is None:
            igs = self.igs
            top = igs[0] if igs and igs[0].t else None
            base = {m.a & -m.a: m for m in igs if not m.t and m.a}
            tail = _Tail(m.z for m in igs if not (m.t or m.a))
            self._tab = (top, base, sum(base), tail)
        return self._tab

    def reduce(self, g: Element) -> Element:
        """Canonical coset representative of g modulo this subgroup."""
        if g.ctx.k != self.ctx.k:
            raise ValueError("element and subgroup live at different levels")
        return _reduce(self.ctx, *self._table(), g)

    def contains(self, g: Element) -> bool:
        return self.reduce(g).is_identity()

    def contains_subgroup(self, other: "Subgroup") -> bool:
        """Every member of other lies in self; a central member exactly when
        the tail reduces its row to 0 (module docstring)."""
        if other.ctx.k != self.ctx.k:
            raise ValueError("subgroups live at different levels")
        tail = self._table()[3]
        return all(not tail.reduce(m.z) if m.is_central_block() else self.contains(m)
                   for m in other.igs)

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


def _reduce(ctx: GroupContext, top, base: dict, pivots: int, tail: _Tail,
            g: Element) -> Element:
    """Sift g through a table; only base members with pivots in pivots act."""
    t = g.t
    if t and top is not None:
        v = _v2(top.t)  # leader normalised so that top.t == 1 << v
        if _v2(t) >= v:
            g = g * (top ** (-(t >> v)))
            t = g.t
    a, z = g.a, g.z
    corr = ctx.corr
    hit = a & pivots
    while hit:
        # g m^-1 for the base leader m = (0, b, w): integer base step
        m = base[hit & -hit]
        b = m.a
        z ^= m.z ^ corr(b, b) ^ corr(a, b)
        a ^= b
        hit = a & pivots
    if z & tail.pivots:
        z = tail.reduce(z)
    return Element(ctx, t, a, z)


def _normalize_top(ctx: GroupContext, h: Element) -> Element:
    v = _v2(h.t)
    u = h.t >> v
    if u == 1:
        return h
    return h ** pow(u, -1, 1 << (ctx.k - v))


def _push_obligations(ctx, top, base, tail, new, queue, conjugators, shifting):
    """Queue what a new leader owes the closure: its relative-order power,
    its commutators with the other leaders and its conjugates.  The central
    block commutes with every element of trivial top exponent, so a central
    leader pairs only with the top leader and conjugators with a nonzero top
    exponent, and a base leader pairs only with the top and base leaders.
    When shifting (a conjugator has odd top exponent), the central rows and
    the top leader owe each other nothing (module docstring, (b))."""
    others = [top] if top is not None else []
    if not (new.t or new.a):
        if shifting:
            others = []
        conjugators = [c for c in conjugators if c.t]
    else:
        queue.append(new ** ((1 << (ctx.k - _v2(new.t))) if new.t else 2))
        others += [base[q] for q in sorted(base)]
        if new.t and not shifting:
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
    It is extend from the trivial group (module docstring, Extension).
    """
    gens = list(gens)
    if not gens:
        raise ValueError("close needs at least one generator")
    return extend(trivial_subgroup(gens[0].ctx), gens, conjugators)


def extend(base: Subgroup, gens, conjugators=()) -> Subgroup:
    """close(base.igs + gens, conjugators) without re-deriving base.

    base must be a subgroup closed under the conjugators (module
    docstring, Extension).  Generators that base already contains are
    dropped; if none is left, base itself is the answer.
    """
    ctx = base.ctx
    top, members, pivots, tail = base._table()
    rest = []
    for g in gens:
        if g.ctx.k != ctx.k:
            raise ValueError("generator and subgroup live at different levels")
        h = _reduce(ctx, top, members, pivots, tail, g)
        if not h.is_identity():
            rest.append(h)
    if not rest:
        return base
    return _grow(ctx, top, dict(members), pivots, _Tail(tail.rows.values()),
                 rest, conjugators)


def _grow(ctx, top, base, pivots, tail, gens, conjugators) -> Subgroup:
    """Sift gens and their obligations into the table (top, base, pivots,
    tail) of a subgroup closed under the conjugators, in plain echelon
    form, then back-substitute once and return the canonical sequence of
    the result.  base and tail are updated in place."""
    shifting = any(c.t & 1 for c in conjugators)
    queue = deque(gens)
    while queue:
        g = queue.popleft()
        h = _reduce(ctx, top, base, pivots, tail, g)
        if h.is_identity():
            continue
        if not (h.t or h.a):
            tail.insert(h.z)
        elif h.t:
            h = _normalize_top(ctx, h)
            if top is not None:
                # irreducible top coordinate: smaller 2-adic value replaces
                queue.append(top)
            top = h
        else:
            low = h.a & -h.a
            base[low] = h
            pivots |= low
        _push_obligations(ctx, top, base, tail, h, queue, conjugators, shifting)

    # canonical pass: clear every deeper leader position, deep to shallow;
    # a central row is cleared above its pivot q
    rows = tail.rows
    for q in sorted(rows, reverse=True):
        rows[q] = tail.reduce(rows[q] ^ q) ^ q
    deeper = 0
    for q in sorted(base, reverse=True):
        base[q] = _reduce(ctx, None, base, deeper, tail, base[q])
        deeper |= q
    members = [base[q] for q in sorted(base)]
    if top is not None:
        members.insert(0, _reduce(ctx, None, base, pivots, tail, top))
    members += [Element(ctx, 0, 0, rows[q]) for q in sorted(rows)]
    return Subgroup(ctx, tuple(members))


def trivial_subgroup(ctx: GroupContext) -> Subgroup:
    return Subgroup(ctx, ())


def full_group(ctx: GroupContext) -> Subgroup:
    """The whole group: the suffix subgroup from position 0."""
    return _suffix_subgroup(ctx, 0, "full")


def _suffix_subgroup(ctx: GroupContext, start: int, cache_key: str) -> Subgroup:
    """The unit vectors from start on, already a canonical sequence: x (of
    relative order 2**k) at position 0, then the base and central ones, each
    of relative order 2."""
    def build():
        gens = []
        for p in range(start, ctx.total_positions):
            if p == 0:
                gens.append(ctx.x())
            elif p <= ctx.n:
                gens.append(ctx.base_gen(p - 1))
            else:
                gens.append(ctx.central_from_mask(1 << (p - 1 - ctx.n)))
        return Subgroup(ctx, tuple(gens))

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
    if a.log_order < b.log_order:
        a, b = b, a
    return extend(a, b.igs)


def _noncentral(s: Subgroup) -> list[Element]:
    """The members of s outside the centre block: its top and base members."""
    return [m for m in s.igs if m.t or m.a]


def noncentral_squares(s: Subgroup) -> list[Element]:
    """The squares of s's members outside the centre block; a central
    member squares to 1."""
    return [g ** 2 for g in _noncentral(s)]


def _top_exponent(s: Subgroup) -> int:
    """The top exponent of s's top member, 0 when it has none."""
    return s.igs[0].t if s.igs else 0


def _insert_commutator_rows(tail: _Tail, s: Subgroup, t: int) -> None:
    """Insert into a plain echelon tail the rows r + X^t r over the central
    rows r of s: for normal s they span [s ^ Z, b] for every normal b whose
    top member has exponent t (module docstring, (a))."""
    shift = s.ctx.shift_central
    for m in s.igs:
        if not (m.t or m.a):
            w = tail.reduce(m.z ^ shift(m.z, t))
            if w:
                tail.insert(w)


def noncentral_commutators(a: Subgroup, b: Subgroup):
    """The nontrivial [u, v] for the members u of a and v of b outside the
    centre block, the pairs that the closed form of (a) leaves.

    When a is b, each unordered pair is visited once ([v, u] = [u, v]^-1
    and [u, u] = 1): the top member with every base member and each base
    member with the later ones.
    """
    us = _noncentral(a)
    if b is a:
        pairs = ((u, v) for i, u in enumerate(us) for v in us[i + 1:])
    else:
        pairs = ((u, v) for u in us for v in _noncentral(b))
    for u, v in pairs:
        c = commutator(u, v)
        if not c.is_identity():
            yield c


def commutator_subgroup(a: Subgroup, b: Subgroup) -> Subgroup:
    """[a, b] for normal a, b: the normal closure of the commutators of
    their members.  Those with a central member span [a ^ Z, b][a, b ^ Z],
    which is built in closed form (module docstring, (a)); the closure
    starts from it and sifts the commutators of the other members."""
    if a.ctx.k != b.ctx.k:
        raise ValueError("subgroups live at different levels")
    ctx = a.ctx
    tail = _Tail()
    _insert_commutator_rows(tail, a, _top_exponent(b))
    if b is not a:
        _insert_commutator_rows(tail, b, _top_exponent(a))
    return _grow(ctx, None, {}, 0, tail, list(noncentral_commutators(a, b)), (ctx.x(), ctx.y()))


def agemo_mod_derived(s: Subgroup) -> Subgroup:
    """[s, s] joined with the squares of the members of s.

    Equals s^2 [s, s], the Frattini subgroup of s, because s is abelian
    modulo [s, s].
    """
    return extend(commutator_subgroup(s, s), noncentral_squares(s))


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
    return Subgroup(sub.ctx, igs[cut:])


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


class CentralFlag(NamedTuple):
    """A chain's central flag (module docstring, Central flag): chunk
    tables of 4 bits from a central row to its flag coordinates, and
    dim(S ^ Z) for every term S of the chain, in chain order."""

    k: int
    tables: list[list[int]]
    dims: list[int]


def central_flag(terms) -> CentralFlag:
    """The flag basis of the central tails of a descending chain, deepest
    term first, completed to a basis of Z by the unit vectors at the
    pivots no tail has, and the coordinates of every unit vector in it."""
    ctx = terms[0].ctx
    basis, dims = [], []
    deeper = 0  # the pivots of the deeper term's tail
    for sub in reversed(terms):
        if sub.ctx.k != ctx.k:
            raise ValueError("subgroups live at different levels")
        tail = sub._table()[3]
        basis += [row for low, row in tail.rows.items() if not low & deeper]
        deeper = tail.pivots
        dims.append(len(tail.rows))
    basis += [1 << q for q in range(ctx.d) if not deeper >> q & 1]
    # back-substitution, highest pivot first: a basis row is its pivot plus
    # higher bits, whose coordinates are known by then
    index = {row & -row: j for j, row in enumerate(basis)}
    coords = [0] * ctx.d  # coords[q]: the coordinates of unit vector q
    for q in reversed(range(ctx.d)):
        j = index[1 << q]
        c, rest = 1 << j, basis[j] ^ (1 << q)
        while rest:
            low = rest & -rest
            c ^= coords[low.bit_length() - 1]
            rest ^= low
        coords[q] = c
    return CentralFlag(ctx.k, linear_chunk_tables(coords, 4), dims[::-1])


def central_cap_logs(target: Subgroup, flag: CentralFlag) -> list[int]:
    """log2 |target ^ S| for every term S of the chain of flag, for a target
    T inside the centre block Z: the rows of T's echelon form in flag
    coordinates, keyed by top bit, whose top bit lies below dim(S ^ Z)
    (module docstring, Central flag)."""
    ctx = target.ctx
    if ctx.k != flag.k:
        raise ValueError("target and chain live at different levels")
    if not all(m.is_central_block() for m in target.igs):
        raise ValueError("target does not lie in the centre block")
    tables = flag.tables
    tops = {}  # 1 + top bit -> row, T's echelon form in flag coordinates
    for m in target.igs:
        # one table per 4 bits of z, from the 4 that hold its lowest bit
        c = ((m.z & -m.z).bit_length() - 1) >> 2
        z, v = m.z >> (4 * c), 0
        for tab in tables[c:]:
            if not z:
                break
            v ^= tab[z & 15]
            z >>= 4
        top = v.bit_length()
        while top in tops:
            v ^= tops[top]
            top = v.bit_length()
        tops[top] = v
    bounds = sorted(tops)
    return [bisect_right(bounds, dim) for dim in flag.dims]


def layer_shape(s: Subgroup, t: Subgroup) -> tuple[int, ...]:
    """Abelian invariants of A = s/t for t normal in s with abelian quotient,
    largest first; raises ValueError when t is not contained in s or the
    quotient is not abelian.  The quotient is abelian when every pair of
    members of s commutes modulo t; the pairs of the top member with a
    central member r are r + X^t r reduced through t's tail (module
    docstring, (c))."""
    if t.ctx.k != s.ctx.k:
        raise ValueError("subgroups live at different levels")
    if not s.contains_subgroup(t):
        raise ValueError("second subgroup is not contained in the first")
    tail, shift, top_t = t._table()[3], s.ctx.shift_central, _top_exponent(s)
    if not (all(t.contains(c) for c in noncentral_commutators(s, s))
            and all(not tail.reduce(m.z ^ shift(m.z, top_t))
                    for m in s.igs if m.is_central_block())):
        raise ValueError("quotient is not abelian")
    return abelian_invariants(s, t)


def abelian_invariants(s: Subgroup, t: Subgroup) -> tuple[int, ...]:
    """Abelian invariants of A = s/t, largest first, for t normal in s with
    abelian quotient; the caller certifies both, nothing here checks them.

    Read off the ranks of the power subgroups: A^(2^m) has preimage
    s^(2^m) t, t extended by the 2^m-th powers of the members of s (A is
    abelian), and with logs[m] = log|s^(2^m) t| the number of invariants
    above 2^m is logs[m] - logs[m+1].  For an elementary abelian layer
    every square lies in t, and no closure runs.  No power of a central
    member is extended, since r^e = 1 for e >= 2 (module docstring, (c)).
    """
    noncentral = _noncentral(s)
    logs = [s.log_order]
    while logs[-1] > t.log_order:
        e = 1 << len(logs)
        logs.append(extend(t, [g ** e for g in noncentral]).log_order)
    # ranks[m]: invariants above 2^m; those equal to 2^(m+1) are the drop
    ranks = [hi - lo for hi, lo in zip(logs, logs[1:])] + [0]
    invariants = ()
    for m in range(len(ranks) - 2, -1, -1):
        invariants += (2 << m,) * (ranks[m] - ranks[m + 1])
    return invariants
