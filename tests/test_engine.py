"""Normal-form arithmetic: hand-checked products, inverses, powers, chains."""

import random
import tracemalloc

import pytest

from conftest import pair_bit, pair_gen, project_to_wreath, random_element
from wrsp.claims import run_claims
from wrsp.engine import (
    GroupContext,
    commutator,
    get_context,
    parse_element,
)


def test_identity_and_generators(ctx1):
    e = ctx1.identity()
    x, y = ctx1.x(), ctx1.y()
    assert (e * e).is_identity()
    assert e * x == x and x * e == x
    assert e * y == y and y * e == y


def test_level_one_products_by_hand(ctx1):
    x, y = ctx1.x(), ctx1.y()
    assert y * y == ctx1.element(0, 0, 0b001)          # y^2 = s0
    assert (x * x).is_identity()                       # x has order 2
    assert y.inverse() == ctx1.element(0, 0b01, 0b001)  # y^-1 = y s0
    xy = x * y
    assert xy ** 2 == ctx1.element(0, 0b11, 0b100)     # base product plus pair
    assert xy ** 4 == ctx1.element(0, 0, 0b111)
    assert (xy ** 8).is_identity()
    assert ctx1.c(2) == ctx1.element(0, 0b11, 0b001)
    assert ctx1.c(3) == ctx1.c(2) ** 2                 # forced by the class bound
    assert ctx1.cij(2, 1) == pair_gen(ctx1, 0, 1)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_inverses_and_associativity_sampled(k):
    ctx = get_context(k)
    rng = random.Random(1000 + k)
    for _ in range(500):
        g, h, f = (random_element(ctx, rng) for _ in range(3))
        assert (g * g.inverse()).is_identity()
        assert (g.inverse() * g).is_identity()
        assert (g * h) * f == g * (h * f)


def _one_step_images(ctx):
    """Bit images of the one-step index shift of the central block, written
    out bit by bit: s_i -> s_(i+1) and c_(i,j) -> c_(i+1,j+1), mod n."""
    n = ctx.n
    images = {i: (i + 1) % n for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            images[pair_bit(ctx, i, j)] = pair_bit(ctx, (i + 1) % n, (j + 1) % n)
    return images


def _conj_by_x_stepwise(ctx, a, z, t):
    """x^-t (a, z) x^t by t single steps: each shifts z by one index and,
    when base index n-1 wraps round to 0, deposits the pair {0, i+1} for
    every other occupied base index i."""
    n = ctx.n
    images = _one_step_images(ctx)
    for _ in range(t):
        z = sum(1 << images[b] for b in range(ctx.d) if (z >> b) & 1)
        if (a >> (n - 1)) & 1:
            for i in range(n - 1):
                if (a >> i) & 1:
                    z ^= 1 << pair_bit(ctx, 0, i + 1)
        a = ((a << 1) | (a >> (n - 1))) & ctx.amask
    return a, z


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_conjugation_closed_form_matches_stepwise_rule(k):
    ctx = get_context(k)
    rng = random.Random(300 + k)
    for _ in range(2000):
        a, z, t = rng.getrandbits(ctx.n), rng.getrandbits(ctx.d), rng.randrange(ctx.tmod)
        assert ctx.conj_by_x_power(a, z, t) == _conj_by_x_stepwise(ctx, a, z, t)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_generator_orders(k):
    ctx = get_context(k)
    assert ctx.x().order() == 1 << k
    assert ctx.y().order() == 4
    assert (ctx.x() * ctx.y()).order() == 1 << (k + 2)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_power_witness_matches_chain_square(k):
    ctx = get_context(k)
    xy = ctx.x() * ctx.y()
    e = 1 << (k + 1)
    assert xy ** e == ctx.c(ctx.n) ** 2
    assert not (xy ** e).is_identity()
    assert (xy ** (2 * e)).is_identity()
    assert (xy ** 0).is_identity()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_conjugation_by_x_has_order_two_to_k(k):
    ctx = get_context(k)
    rng = random.Random(7 * k)
    x = ctx.x()
    for _ in range(50):
        g = random_element(ctx, rng)
        cur = g
        for _ in range(1 << k):
            cur = cur.conj(x)
        assert cur == g


def test_central_block_commutes():
    # [H, Z] = 1 and exp(H) = 4 through the general product rule, not the
    # closed-form commutator and powers that assume them: every central
    # unit against every base generator, and fourth powers of random
    # trivial-top elements, at levels 1..4
    for k in (1, 2, 3, 4):
        ctx = get_context(k)
        for b in range(ctx.d):
            z = ctx.central_from_mask(1 << b)
            for u in range(ctx.n):
                y = ctx.base_gen(u)
                assert ctx.mul(z, y) == ctx.mul(y, z), (k, b, u)
        rng = random.Random(55 + k)
        for _ in range(200):
            g = ctx.element(0, rng.getrandbits(ctx.n), rng.getrandbits(ctx.d))
            sq = ctx.mul(g, g)
            assert ctx.mul(sq, sq).is_identity(), (k, g)


def test_commutator_conventions(ctx2):
    rng = random.Random(4)
    g, h = random_element(ctx2, rng), random_element(ctx2, rng)
    assert commutator(g, h) == g.inverse() * h.inverse() * g * h
    assert commutator(g, ctx2.identity()).is_identity()
    assert commutator(g, h) == commutator(h, g).inverse()


def _shaped(ctx, rng, shape):
    """A random element whose t, a and z are nonzero exactly where shape
    says so."""
    t, a, z = shape
    return ctx.element(rng.randrange(1, ctx.tmod) if t else 0,
                       rng.randrange(1, 1 << ctx.n) if a else 0,
                       rng.randrange(1, 1 << ctx.d) if z else 0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_closed_forms_match_product_route(k):
    # commutator, conj and ** take closed forms when a factor has trivial
    # top; the reference is the general product rule, over all 8 x 8 shape
    # classes (each of t, a, z zero or nonzero)
    ctx = get_context(k)
    rng = random.Random(1500 + k)
    shapes = [(t, a, z) for t in (0, 1) for a in (0, 1) for z in (0, 1)]
    for gs in shapes:
        for hs in shapes:
            for _ in range(3):
                g, h = _shaped(ctx, rng, gs), _shaped(ctx, rng, hs)
                assert commutator(g, h) == g.inverse() * h.inverse() * g * h
                assert g.conj(h) == h.inverse() * g * h
        g = _shaped(ctx, rng, gs)
        for e in range(-8, 9):
            step = g if e >= 0 else g.inverse()
            want = ctx.identity()
            for _ in range(abs(e)):
                want = want * step
            assert g ** e == want
    other = get_context(1 if k > 1 else 2)
    for g in (ctx.y(), ctx.x()):
        for h in (other.y(), other.x()):
            for pair in ((g, h), (h, g)):
                with pytest.raises(ValueError):
                    commutator(*pair)
                with pytest.raises(ValueError):
                    pair[0].conj(pair[1])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_named_chain_membership_facts(k):
    ctx = get_context(k)
    n = ctx.n
    assert ctx.c(1) == ctx.y()
    for i in range(1, 2 * n + 2):
        ci = ctx.c(i)
        assert ci.t == 0
        if i >= n + 1:
            assert ci.a == 0
            assert (ci ** 2).is_identity()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_zij_symmetry_and_vanishing(k):
    ctx = get_context(k)
    n = ctx.n
    for i in range(1, 2 * n + 2):
        for j in range(1, 2 * n + 2):
            assert ctx.zij(i, j) == ctx.zij(j, i)
            assert (ctx.zij(i, j) * ctx.zij(j, i)).is_identity()
            if max(i, j) >= n + 1:
                assert ctx.zij(i, j).is_identity()
    assert ctx.zij(1, 1).is_identity()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_text_round_trip(k):
    # the identity, the all-ones rows in every field and random elements
    ctx = get_context(k)
    rng = random.Random(99 + k)
    ones = ctx.element(ctx.tmod - 1, ctx.amask, ctx.zmask)
    for g in [ctx.identity(), ones] + [random_element(ctx, rng) for _ in range(400)]:
        assert parse_element(ctx, g.text()) == g


def test_text_parse_rejects_garbage(ctx2):
    good = ctx2.y().text()
    for bad in (
        "nonsense",
        good + "x",
        good.replace("x^0", "x^9"),
        good.replace("y:", "q:"),
        "x^0 y:zz s:0 c:0",
        "x^0 y:1 s:0 c:",
        # int() takes a sign, underscores, non-ASCII digits, leading zeros
        good.replace("x^0", "x^+1"),
        good.replace("x^0", "x^-0"),
        good.replace("x^0", "x^0_1"),
        good.replace("x^0", "x^\u0661"),
        good.replace("x^0", "x^"),
        good.replace("x^0", "x^01"),
    ):
        with pytest.raises(ValueError):
            parse_element(ctx2, bad)


def test_context_mismatch_rejected(ctx1, ctx2):
    with pytest.raises(ValueError):
        ctx1.y() * ctx2.y()
    assert not (ctx1.y() == ctx2.y())


def test_level_gate():
    with pytest.raises(ValueError):
        get_context(0)
    assert get_context(3) is get_context(3)


def test_context_memory_level5():
    # one chunk table per shift by 2^v, v < k: about 6 MB at level 5
    tracemalloc.start()
    try:
        GroupContext(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20, peak


def test_level_four_smoke():
    ctx = get_context(4)
    rng = random.Random(44)
    for _ in range(40):
        g, h, f = (random_element(ctx, rng) for _ in range(3))
        assert (g * h) * f == g * (h * f)
        assert (g * g.inverse()).is_identity()
    assert ctx.log_order == 4 + 32 + 120
    assert (ctx.x() ** 16).is_identity()
    assert ctx.c(17).a == 0


def test_enumeration_is_canonical(ctx1):
    els = list(ctx1.all_elements())
    assert len(els) == 64
    assert len(set(els)) == 64


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_wreath_projection(k):
    ctx = get_context(k)
    rng = random.Random(21 + k)
    for _ in range(500):
        g, h = random_element(ctx, rng), random_element(ctx, rng)
        assert project_to_wreath(g * h) == project_to_wreath(g) * project_to_wreath(h)
        w = project_to_wreath(g)
        assert (w * w.inverse()).is_identity()
    assert project_to_wreath(ctx.x()) == project_to_wreath(ctx.element(1, 0, 0))
    z = ctx.central_from_mask(ctx.zmask)
    assert project_to_wreath(z).is_identity()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_wreath_certificate_matches_search(k):
    # reference: 2,000 random homomorphism pairs and a breadth-first census
    # of the image from the projected generators
    ctx = get_context(k)
    rng = random.Random(0xAB + k)
    hom_ok = True
    for _ in range(2000):
        g, h = random_element(ctx, rng), random_element(ctx, rng)
        if project_to_wreath(g * h) != project_to_wreath(g) * project_to_wreath(h):
            hom_ok = False
            break
    gens = [project_to_wreath(ctx.x()), project_to_wreath(ctx.y())]
    seen = {project_to_wreath(ctx.identity())}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                p = w * g
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    result = run_claims(k, ["wreath-quotient"])[0]
    assert result.details["image_log"] == len(seen).bit_length() - 1 == k + ctx.n
    assert result.passed == hom_ok


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_text_matches_three_field_format_and_round_trips(k):
    # the format text() had before its specs were kept per context: each
    # field in hex, at least one digit, lowest coordinates first (k = 1 has
    # a base row of 2 bits, narrower than one nibble)
    def hex_le(v, nbits):
        return format(v, f"0{max(1, (nbits + 3) // 4)}x")[::-1]

    ctx = get_context(k)
    rng = random.Random(k)
    elements = [random_element(ctx, rng) for _ in range(200)]
    elements += [ctx.identity(), ctx.element(ctx.tmask, ctx.amask, ctx.zmask)]
    for g in elements:
        old = "x^{} y:{} s:{} c:{}".format(g.t, hex_le(g.a, ctx.n), hex_le(g.z & ctx.amask, ctx.n),
                                           hex_le(g.z >> ctx.n, ctx.num_pairs))
        assert g.text() == old
        assert parse_element(ctx, g.text()) == g
