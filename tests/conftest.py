import pathlib
import sys
import time

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from wrsp.engine import get_context  # noqa: E402

_SESSION_T0 = time.time()


def random_element(ctx, rng):
    """An element of the level of ctx with every coordinate drawn from rng."""
    return ctx.element(rng.randrange(ctx.tmod), rng.getrandbits(ctx.n), rng.getrandbits(ctx.d))


# -- references for the tests: maps and products the package proves or
# certifies without building them

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
                out = out * low.square_gen(u % fold)
        for u in range(ctx.n):
            for v in range(u + 1, ctx.n):
                if (z >> ctx.pair_bit[u][v]) & 1:
                    uu, vv = u % fold, v % fold
                    if uu != vv:
                        out = out * low.pair_gen(uu, vv)
        return out

    return pi


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
