import pathlib
import random
import sys
import time

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from wrsp.engine import commutator, get_context, pair_slot  # noqa: E402
from wrsp.spectra import invariant_subspace  # noqa: E402
from wrsp.subgroup import _Tail, close, normal_closure  # noqa: E402

_SESSION_T0 = time.time()


def random_element(ctx, rng):
    """An element of the level of ctx with every coordinate drawn from rng."""
    return ctx.element(rng.randrange(ctx.tmod), rng.getrandbits(ctx.n), rng.getrandbits(ctx.d))


# -- references for the tests: maps and products the package proves or
# certifies without building them

def pair_bit(ctx, i, j):
    """Central bit of the pair commutator c_{i,j}, i != j, in either order."""
    return ctx.n + pair_slot(min(i, j), max(i, j), ctx.n)


def square_gen(ctx, i):
    """The square s_i = y_i^2, the i-th central unit vector."""
    return ctx.central_from_mask(1 << i)


def pair_gen(ctx, i, j):
    """The pair commutator c_{i,j} = [y_i, y_j], i != j, in either order."""
    return ctx.central_from_mask(1 << pair_bit(ctx, i, j))


def leader_orders(sub):
    """Relative order of each member of sub's canonical sequence: 2**k / 2**v
    for a top member x^(2**v) u, 2 for every other."""
    k = sub.ctx.k
    return [1 << (k - ((m.t & -m.t).bit_length() - 1)) if m.t else 2 for m in sub.igs]


def enumerate_elements(sub):
    """Every element of sub, as products of powers of its members."""
    if sub.log_order > 20:
        raise ValueError("enumeration is limited to subgroups of order 2**20 or less")
    els = [sub.ctx.identity()]
    for m, r in zip(sub.igs, leader_orders(sub)):
        nxt = []
        for e in els:
            cur = e
            for _ in range(r):
                nxt.append(cur)
                cur = cur * m
        els = nxt
    return els


def commutator_with_group(a):
    """Reference [a, G] for a normal a other than the trivial group: the
    normal closure of the [u, x] and [u, y] over the members u of a."""
    ctx = a.ctx
    return normal_closure([commutator(u, g) for u in a.igs for g in (ctx.x(), ctx.y())])


def is_normal(sub):
    """Every member's conjugates by x and y lie in sub."""
    ctx = sub.ctx
    return all(sub.contains(m.conj(c)) for c in (ctx.x(), ctx.y()) for m in sub.igs)


class WreathElement:
    """Element of the quotient by the centre block: a pair (t, a)."""

    __slots__ = ("ctx", "t", "a")

    def __init__(self, ctx, t, a):
        self.ctx = ctx
        self.t = t
        self.a = a

    def __mul__(self, other):
        if self.ctx.k != other.ctx.k:
            raise ValueError("elements live at different levels")
        ctx = self.ctx
        return WreathElement(ctx, (self.t + other.t) & ctx.tmask,
                             ctx._rot(self.a, other.t) ^ other.a)

    def inverse(self):
        ctx = self.ctx
        t = (ctx.tmod - self.t) & ctx.tmask
        return WreathElement(ctx, t, ctx._rot(self.a, t))

    def is_identity(self):
        return self.t == 0 and self.a == 0

    def __eq__(self, other):
        if not isinstance(other, WreathElement):
            return NotImplemented
        return (self.ctx.k, self.t, self.a) == (other.ctx.k, other.t, other.a)

    def __hash__(self):
        return hash(("w", self.ctx.k, self.t, self.a))

    def __repr__(self):
        return f"w(x^{self.t} y:{self.a:x})"


def project_to_wreath(g):
    """Quotient map killing the centre block; a surjective homomorphism."""
    return WreathElement(g.ctx, g.t, g.a)


def projection_map(ctx, i):
    """The level projection G_k -> G_i folding base indices mod 2**i."""
    if not 1 <= i <= ctx.k:
        raise ValueError("target level out of range")
    low = get_context(i)
    fold = 1 << i

    def pi(g):
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
                out = out * square_gen(low, u % fold)
        for u in range(ctx.n):
            for v in range(u + 1, ctx.n):
                if (z >> pair_bit(ctx, u, v)) & 1:
                    uu, vv = u % fold, v % fold
                    if uu != vv:
                        out = out * pair_gen(low, uu, vv)
        return out

    return pi


def seeded_targets(ctx, seed):
    """The density benchmark's seeded targets: 10 seed spans, the j-th
    spanned by the x-shifts of 1 + j % 3 random central masks."""
    rng = random.Random(seed)
    masks = [[rng.getrandbits(ctx.d) for _ in range(1 + j % 3)] for j in range(10)]
    return [invariant_subspace(ctx, [ctx.central_from_mask(m) for m in ms]).span for ms in masks]


def span_cap_logs(target, terms):
    """log2 |target ^ S| for every term S of a descending chain, for a target
    T inside the centre block, by one span seeded with T's rows and grown,
    deepest term first, by the rows of each term's central tail with pivots
    new to it: its size is then dim(T + S ^ Z)."""
    span = _Tail(m.z for m in target.igs)
    deeper = 0  # the pivots of the deeper term's tail
    logs = []
    for sub in reversed(terms):
        tail = sub._table()[3]
        for low, row in tail.rows.items():
            if not low & deeper:
                row = span.reduce(row)
                if row:
                    span.insert(row)
        deeper = tail.pivots
        logs.append(target.log_order + len(tail.rows) - len(span.rows))
    return logs[::-1]


def double_product_rhs(ctx, i, j, m):
    """Product form for the m-fold commutator of z_{i,j} with x: the double
    product of z_{i+m-n, j+m-s+n} over 0 <= n <= s <= m with exponent
    C(m,s) C(s,n), reduced mod 2 since the factors are central involutions.
    By Kummer, C(a, b) is odd iff the bits of b are a submask of a's."""
    out = ctx.identity()
    for s in range(m + 1):
        for nn in range(s + 1):
            if s & m == s and nn & s == nn:
                out = out * ctx.zij(i + m - nn, j + m - s + nn)
    return out


def scaffold_t(ctx, s):
    """T_s from its definition: generated by x^(2^s), the squares c_i^2 for
    i >= 2^(s-1) and the chains c_j for j >= 2^s (chains beyond the class
    bound 2^(k+1) are trivial)."""
    top = 2 * ctx.n
    gens = [ctx.x() ** (1 << s)]
    gens += [ctx.c(i) ** 2 for i in range(1 << (s - 1), top + 1)]
    gens += [ctx.c(j) for j in range(1 << s, top + 1)]
    return close(gens)


@pytest.fixture(scope="session")
def ctx1():
    return get_context(1)


@pytest.fixture(scope="session")
def ctx2():
    return get_context(2)


@pytest.fixture(scope="session")
def ctx3():
    return get_context(3)


def pytest_sessionfinish(session, exitstatus):
    elapsed = time.time() - _SESSION_T0
    print(f"\nsuite wall clock: {elapsed:.1f}s")
