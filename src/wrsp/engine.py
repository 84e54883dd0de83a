"""Exact arithmetic for a tower of finite 2-groups built from cyclic shifts.

Level k describes the group generated by a top element x of order 2**k
together with n = 2**k base generators that x permutes cyclically.  Squares
of base generators and commutators of distinct base generators are central
involutions that commute with the whole base part, so every group element
has a unique normal form (t, a, z):

    t   exponent of x, an integer mod 2**k
    a   GF(2) row of width n, exponents of the base generators written in
        increasing index order
    z   GF(2) row of width d = n + C(n, 2): first the n squares s_i, then
        the C(n, 2) pair commutators c_{i,j} (i < j) in lexicographic order

Multiplication moves the right factor's x-power past the left factor's base
and central parts.  Reordering two base rows against each other deposits
the bilinear correction corr.  Conjugation by x^t shifts every index by t
mod n.  Split the base row at cut = n - t into lo = a mod 2^cut and
hi = a >> cut.  The shifted word is the row lo << t followed by the row hi
of wrapped bits, every one of which lies below every shifted bit, so
restoring increasing index order is the sort of those two rows:

    x^-t (a, z) x^t = ((lo << t) | hi,  shift^t(z) + corr(lo << t, hi)).

shift^t composes the shifts by 2^v of the set bits v of t, so a context
keeps k shift tables, one per 2^v.

Trivial-top elements.  The elements (0, a, z) form the subgroup H, of
index 2**k, and the elements (0, 0, z) its centre block Z.  Z commutes
with H, and a product in H, (0, a, z)(0, b, w) = (0, a + b, z + w +
corr(a, b)), deposits only a central row.  So H has class 2, [H, H] <= Z
is central in H, and every square (0, 0, corr(a, a)) is central of order
2: H has exponent 4.  Almost every product a closure forms has a factor
in H, and for those there are closed forms that skip the general product
rule.  For g = (0, a, z) and any h = (s, b, w) = x^s u with u = (0, b, w),
let (a', z') be the coordinates of x^-s g x^s, so that g^h = u^-1 v u for
v = (0, a', z').  In H, v u = u v [v, u] with the central
[v, u] = (0, 0, corr(a', b) + corr(b, a')), so u^-1 v u = v [v, u] and:

    g^-1     = (0, a, z + corr(a, a))
    g^h      = (0, a', z'' )  with  z'' = z' + corr(a', b) + corr(b, a')
    [g, h]   = g^-1 g^h = (0, a + a', z + z'' + corr(a, a) + corr(a, a'))
    g^2      = (0, 0, corr(a, a)),  g^3 = g^-1,  g^4 = 1.

When only h has trivial top, [g, h] = [h, g]^-1.  Only a pair of
elements that both have a nonzero top exponent takes the general route.

All vectors are packed into Python ints (bit i of a is the i-th base
exponent, bit j of z the j-th central coordinate).
"""

from __future__ import annotations


def level_log_order(k: int) -> int:
    """log2 of the order of level k: k top bits, n base and d central
    coordinates."""
    n = 1 << k
    return k + 2 * n + n * (n - 1) // 2


def pair_slot(i: int, j: int, n: int) -> int:
    """Lexicographic index of the unordered pair {i, j} with i < j."""
    return i * (n - 1) - i * (i - 1) // 2 + (j - i - 1)


def linear_chunk_tables(bit_images: list[int], width: int) -> list[list[int]]:
    """Lookup tables for the GF(2)-linear map bit b -> bit_images[b], one
    per chunk of width bits: the image of v is the XOR over chunks c of
    tabs[c][(v >> (width * c)) & (2**width - 1)]."""
    nbits = len(bit_images)
    size = 1 << width
    tabs = []
    for base in range(0, max(1, nbits), width):
        tab = [0] * size
        for chunk in range(1, size):
            low = chunk & -chunk
            src = base + low.bit_length() - 1
            img = bit_images[src] if src < nbits else 0
            tab[chunk] = tab[chunk ^ low] ^ img
        tabs.append(tab)
    return tabs


class GroupContext:
    """Parameters, lookup tables and the memo of named commutators, derived
    subgroups, series and reports for one level."""

    __slots__ = (
        "k", "n", "num_pairs", "d", "tmod", "tmask", "amask", "zmask",
        "log_order", "total_positions",
        "_ztabs", "_pairoff", "_hex_specs", "_memo",
    )

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("level k must be a positive integer")
        self.k = k
        n = 1 << k
        self.n = n
        self.num_pairs = n * (n - 1) // 2
        self.d = n + self.num_pairs
        self.tmod = 1 << k
        self.tmask = self.tmod - 1
        self.amask = (1 << n) - 1
        self.zmask = (1 << self.d) - 1
        self.log_order = level_log_order(k)
        self.total_positions = 1 + n + self.d

        # one-step index shift on the central block: s_i -> s_(i+1), and the pair
        # at bit n + pair_slot(i, j) -> (i + 1, j + 1), or (0, i + 1) if j = n - 1
        zshift = list(range(1, n)) + [0]
        for i in range(n - 1):
            for j in range(i + 1, n - 1):
                zshift.append(n + pair_slot(i + 1, j + 1, n))
            zshift.append(n + pair_slot(0, i + 1, n))

        # chunk tables of the shifts by 2^v, v < k, each the square of the last
        self._ztabs = []
        perm = zshift
        for _ in range(k):
            self._ztabs.append(linear_chunk_tables([1 << p for p in perm], 8))
            perm = [perm[p] for p in perm]

        # pair part of corr: the pairs (i, j), j > i, fill contiguous bits
        # from this offset on
        self._pairoff = [n + pair_slot(i, i + 1, n) for i in range(n)]

        # Element.text's format specs for a row of n and of num_pairs bits:
        # one hex digit per nibble, at least one
        self._hex_specs = tuple(f"0{max(1, (w + 3) // 4)}x" for w in (n, self.num_pairs))

        self._memo: dict = {}

    # -- packed coordinate operations ------------------------------------

    def _rot(self, a: int, t: int) -> int:
        if t == 0:
            return a
        n = self.n
        return ((a << t) | (a >> (n - t))) & self.amask

    def conj_by_x_power(self, a: int, z: int, t: int) -> tuple[int, int]:
        """Coordinates of x^-t (a, z) x^t, in closed form (module docstring)."""
        t &= self.tmask
        if t == 0:
            return a, z
        cut = self.n - t
        lo = (a & ((1 << cut) - 1)) << t
        hi = a >> cut
        return lo | hi, self.shift_central(z, t) ^ self.corr(lo, hi)

    def shift_central(self, z: int, t: int) -> int:
        """The central row z shifted by x^t: every index moves by t mod n.
        shift^t composes the shifts by 2^v of the set bits v of t."""
        t &= self.tmask
        v = 0
        while t:
            if t & 1:
                out = 0
                for tab in self._ztabs[v]:  # one table per byte of z
                    if not z:
                        break
                    out ^= tab[z & 255]
                    z >>= 8
                z = out
            t >>= 1
            v += 1
        return z

    def corr(self, a_left: int, a_right: int) -> int:
        """Central deposit from sorting the concatenation of two base rows:
        the squares a_left & a_right, and for each set bit i of a_right the
        pair commutators c_{i,j} of the left-row bits j > i, which land on
        contiguous bits as (a_left >> (i + 1)) << pair offset of i.

        corr is bilinear over GF(2): the squares term a_left & a_right is
        bilinear, and the pair part is a sum over the bits i of a_right of
        terms linear in a_left.  The early break skips only terms that are
        0: once a_left < 2^(i + 1), a_left >> (i' + 1) = 0 for this i and
        every later, higher bit i' of a_right."""
        res = a_left & a_right
        b = a_right
        off = self._pairoff
        while b:
            low = b & -b
            if a_left < low << 1:  # no left-row bit above this or later ones
                break
            b ^= low
            i = low.bit_length() - 1
            res ^= (a_left >> (i + 1)) << off[i]
        return res

    def mul(self, g: "Element", h: "Element") -> "Element":
        if g.ctx.k != h.ctx.k:
            raise ValueError("elements live at different levels")
        a1, z1 = g.a, g.z
        t2 = h.t
        if t2:
            a1, z1 = self.conj_by_x_power(a1, z1, t2)
        a2 = h.a
        return Element(self, (g.t + t2) & self.tmask, a1 ^ a2, z1 ^ h.z ^ self.corr(a1, a2))

    def conj_trivial_top(self, g: "Element", h: "Element") -> "Element":
        """h^-1 g h for g of trivial top exponent, in closed form (module
        docstring, Trivial-top elements)."""
        if g.ctx.k != h.ctx.k:
            raise ValueError("elements live at different levels")
        a, z = g.a, g.z
        if h.t:
            a, z = self.conj_by_x_power(a, z, h.t)
        b = h.a
        if b:
            z ^= self.corr(a, b) ^ self.corr(b, a)
        return Element(self, 0, a, z)

    def inv(self, g: "Element") -> "Element":
        t = g.t
        a, z = g.a, g.z
        if t:
            t = (self.tmod - t) & self.tmask
            a, z = self.conj_by_x_power(a, z, t)
        return Element(self, t, a, z ^ self.corr(a, a))

    # -- distinguished elements -------------------------------------------

    def identity(self) -> "Element":
        return Element(self, 0, 0, 0)

    def x(self) -> "Element":
        return Element(self, 1, 0, 0)

    def y(self) -> "Element":
        return Element(self, 0, 1, 0)

    def base_gen(self, i: int) -> "Element":
        if not 0 <= i < self.n:
            raise ValueError("base index out of range")
        return Element(self, 0, 1 << i, 0)

    def central_from_mask(self, zmask: int) -> "Element":
        if zmask & ~self.zmask:
            raise ValueError("central mask out of range")
        return Element(self, 0, 0, zmask)

    def element(self, t: int, a: int, z: int) -> "Element":
        if not 0 <= t < self.tmod:
            raise ValueError("top exponent out of range")
        if a & ~self.amask or z & ~self.zmask:
            raise ValueError("coordinate vector out of range")
        return Element(self, t, a, z)

    def all_elements(self):
        """Iterate over the whole group; only sensible for k <= 2."""
        if self.log_order > 20:
            raise ValueError("full enumeration is limited to levels of order 2**20 or less")
        for t in range(self.tmod):
            for a in range(1 << self.n):
                for z in range(1 << self.d):
                    yield Element(self, t, a, z)

    # -- named commutator chains ------------------------------------------

    def c(self, i: int) -> "Element":
        """Left-normed chain c_1 = y, c_i = [c_{i-1}, x]."""
        if i < 1:
            raise ValueError("chain index must be >= 1")
        if i == 1:
            return self.cached(("c", 1), self.y)
        return self.cached(("c", i), lambda: commutator(self.c(i - 1), self.x()))

    def cij(self, i: int, j: int) -> "Element":
        """c_{i,j} = [c_i, y, x, ..(j-1).., x]."""
        if i < 1 or j < 1:
            raise ValueError("chain indices must be >= 1")
        if j == 1:
            return self.cached(("cij", i, 1), lambda: commutator(self.c(i), self.y()))
        return self.cached(("cij", i, j), lambda: commutator(self.cij(i, j - 1), self.x()))

    def zij(self, i: int, j: int) -> "Element":
        """z_{i,j} = [c_i, c_j]."""
        if i < 1 or j < 1:
            raise ValueError("chain indices must be >= 1")
        return self.cached(("zij", i, j), lambda: commutator(self.c(i), self.c(j)))

    def cached(self, key, build):
        """The memo entry for key, made by build() on first use."""
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = build()
        return got

    def __repr__(self) -> str:
        return f"GroupContext(k={self.k})"


_CONTEXTS: dict[int, GroupContext] = {}


def get_context(k: int) -> GroupContext:
    """The one context of level k, so its tables and memo are built once."""
    if k not in _CONTEXTS:
        _CONTEXTS[k] = GroupContext(k)
    return _CONTEXTS[k]


class Element:
    """Immutable group element in canonical (t, a, z) form."""

    __slots__ = ("ctx", "t", "a", "z")

    def __init__(self, ctx: GroupContext, t: int, a: int, z: int):
        self.ctx = ctx
        self.t = t
        self.a = a
        self.z = z

    def __mul__(self, other: "Element") -> "Element":
        return self.ctx.mul(self, other)

    def inverse(self) -> "Element":
        return self.ctx.inv(self)

    def __pow__(self, e: int) -> "Element":
        if not self.t:  # exponent 4 (module docstring)
            e &= 3
            if e == 1:
                return self
            ctx = self.ctx
            a = self.a
            if e == 2:
                return Element(ctx, 0, 0, ctx.corr(a, a))
            if e == 3:
                return Element(ctx, 0, a, self.z ^ ctx.corr(a, a))
            return ctx.identity()
        base = self
        if e < 0:
            base = base.inverse()
            e = -e
        acc = self.ctx.identity()
        while e:
            if e & 1:
                acc = acc * base
            e >>= 1
            if e:
                base = base * base
        return acc

    def conj(self, h: "Element") -> "Element":
        """Conjugate self by h, that is h^-1 * self * h."""
        if not self.t:
            return self.ctx.conj_trivial_top(self, h)
        return h.inverse() * self * h

    def is_identity(self) -> bool:
        return self.t == 0 and self.a == 0 and self.z == 0

    def is_central_block(self) -> bool:
        """True for elements with trivial top and base part.

        Such elements commute with every element having trivial top part.
        """
        return self.t == 0 and self.a == 0

    def order(self) -> int:
        o = 1
        cur = self
        while not cur.is_identity():
            cur = cur * cur
            o <<= 1
            if o > (1 << (self.ctx.k + 3)):
                raise RuntimeError("element order exceeds the group exponent bound")
        return o

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (self.ctx.k, self.t, self.a, self.z) == (other.ctx.k, other.t, other.a, other.z)

    def __hash__(self) -> int:
        return hash((self.ctx.k, self.t, self.a, self.z))

    def text(self) -> str:
        """x^t y:... s:... c:..., the base row, the squares and the pairs in
        hex, one nibble per character, lowest coordinates first."""
        ctx, z = self.ctx, self.z
        base, pairs = ctx._hex_specs
        return (f"x^{self.t} y:{format(self.a, base)[::-1]} "
                f"s:{format(z & ctx.amask, base)[::-1]} c:{format(z >> ctx.n, pairs)[::-1]}")

    def __repr__(self) -> str:
        return self.text()


def _unhex_le(s: str, nbits: int) -> int:
    nnib = max(1, (nbits + 3) // 4)
    if len(s) != nnib:
        raise ValueError(f"expected {nnib} hex digits, got {len(s)}")
    v = 0
    for i, ch in enumerate(s):
        d = "0123456789abcdef".find(ch)
        if d < 0:
            raise ValueError(f"invalid hex digit {ch!r}")
        v |= d << (4 * i)
    if nbits and v >> nbits:
        raise ValueError("hex value has bits beyond the declared width")
    return v


def plain_decimal(text: str, bound: int | None = None) -> int | None:
    """The value of text in the decimal form text() writes, else None;
    int() would also take a sign, underscores, non-ASCII digits and leading
    zeros.  int() raises for more digits than the interpreter's conversion
    limit; such a plain decimal reads as bound, a value the caller rejects
    as out of range, or as None without a bound."""
    if text.isascii() and text.isdigit() and (text == "0" or text[0] != "0"):
        try:
            return int(text)
        except ValueError:
            return bound
    return None


def parse_element(ctx: GroupContext, text: str) -> Element:
    """Inverse of Element.text, bit exact."""
    parts = text.strip().split(" ")
    if len(parts) != 4 or not parts[0].startswith("x^"):
        raise ValueError(f"malformed element text: {text!r}")
    top = parts[0][2:]
    t = plain_decimal(top, ctx.tmod)
    if t is None:
        raise ValueError(f"malformed top exponent in {text!r}")
    fields = {}
    for part, tag in zip(parts[1:], ("y", "s", "c")):
        if not part.startswith(tag + ":"):
            raise ValueError(f"expected field {tag!r} in {text!r}")
        fields[tag] = part[len(tag) + 1:]
    if not 0 <= t < ctx.tmod:
        raise ValueError(f"top exponent {top} out of range for level {ctx.k}")
    a = _unhex_le(fields["y"], ctx.n)
    s = _unhex_le(fields["s"], ctx.n)
    c = _unhex_le(fields["c"], ctx.num_pairs)
    return ctx.element(t, a, (c << ctx.n) | s)


# -- commutators ------------------------------------------------------------

def commutator(g: Element, h: Element) -> Element:
    """Left-normed commutator g^-1 h^-1 g h, in closed form when either
    factor has trivial top exponent (module docstring)."""
    if g.t and h.t:
        return g.inverse() * h.inverse() * g * h
    if g.t:
        c = commutator(h, g)
        return Element(c.ctx, 0, c.a, c.z ^ c.ctx.corr(c.a, c.a))
    ctx = g.ctx
    a = g.a
    c = ctx.conj_trivial_top(g, h)
    return Element(ctx, 0, a ^ c.a, g.z ^ c.z ^ ctx.corr(a, a) ^ ctx.corr(a, c.a))
