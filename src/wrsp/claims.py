"""Registry of verifiable structure claims and their runners.

Each claim has a stable identifier, a mathematical one-line statement, a
supported level range and a runner.  A runner is a pure function of the
level's GroupContext returning (ok, details), where details carries the
one-line "summary" and the recorded data.  run_claims calls the runners one
after another and builds every VerificationResult itself, passed, failed or
crashed, under the registered identifier; reports come in identifier order
for deterministic output.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction

from .engine import get_context
from .oracle import oracle_index_of, oracle_report
from .series import (
    SeriesKind,
    commutator_identity_checks,
    gamma_n_subgroups,
    lcs_generator_check,
    power_expansion_check,
    power_series,
    scaffold_heads,
    series,
    shift_identity_check,
)
from .spectra import complement_density, density_sequence
from .subgroup import (
    agemo_mod_derived,
    base_and_centre_subgroup,
    centre_block_subgroup,
    close,
    commutator_subgroup,
    extend,
    full_group,
    intersect,
    join,
    noncentral_commutators,
    noncentral_squares,
    normal_closure,
    pair_block_subgroup,
)

PASS = "pass"
FAIL = "fail"


@dataclass
class VerificationResult:
    claim_id: str
    k: int
    status: str
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def line(self) -> str:
        mark = {PASS: "PASS", FAIL: "FAIL"}[self.status]
        summary = self.details.get("summary", "")
        return f"{mark:5s}  {self.claim_id:24s} k={self.k}  {summary}"


@dataclass(frozen=True)
class ClaimSpec:
    claim_id: str
    statement: str
    k_min: int
    k_max: int | None  # None: no upper level
    runner: object

    def supports(self, k: int) -> bool:
        return self.k_min <= k <= (self.k_max or k)


# -- individual runners: the level's context -> (ok, details) ---------------

def _run_prop_order(ctx):
    # the closure certifies the order; full_group reads it off the layout
    got = close([ctx.x(), ctx.y()]).log_order
    want = ctx.k + (1 << (ctx.k + 1)) + (ctx.n * (ctx.n - 1)) // 2
    return got == want, {"summary": f"log2 order {got}, formula {want}",
                         "got": got, "want": want}


def _run_oracle(_ctx):
    # the word oracle exists at level 1 only, whatever level is asked for
    rep = oracle_report()
    census, centre = rep["census"], rep["centre"]
    ctx1 = get_context(1)
    z_idx = {oracle_index_of(rep["oracle"], ctx1.central_from_mask(z))
             for z in range(1 << ctx1.d)}
    ok = rep["table"]["ok"] and max(census) == 8 and set(centre) <= z_idx
    return ok, {"summary": f"64x64 table equal, max order {max(census)}, "
                           f"centre size {len(centre)}",
                "census": {str(o): c for o, c in sorted(census.items())},
                "table": rep["table"]}


def _run_remark_derived(ctx):
    """Squares of the trivial-top part H span the centre block Z, and [H, H]
    is the pair block, which lies in Z.  [H, Z] = 1 and exp(H) = 4 hold by
    the normal form, whose product on H is (0, a1 + a2, z1 + z2 + corr(a1,
    a2)): corr(a, 0) = corr(0, a) = 0, and (0, a, z)^2 = (0, 0, corr(a, a))
    is central of order 2."""
    h = base_and_centre_subgroup(ctx)
    hh = commutator_subgroup(h, h)
    ok = (hh == pair_block_subgroup(ctx)
          and extend(hh, noncentral_squares(h)) == centre_block_subgroup(ctx))
    return ok, {"summary": "squares of the trivial-top part span the centre block, "
                           "[H,Z]=1, exp(H)=4"}


def _run_exp2_i(ctx):
    n = ctx.n
    gam = series(ctx, SeriesKind.GAMMA)
    bad = [i for i in range(n // 2 + 1, 2 * n + 1) if not gam.term(i + 1).contains(ctx.c(i) ** 2)]
    return not bad, {"summary": f"c_i^2 in the next lower central term for i >= {n // 2 + 1}",
                     "failures": bad}


def _run_exp2_ii(ctx):
    n = ctx.n
    bad = [i for i in range(n + 1, 2 * n + 2) if not (ctx.c(i) ** 2).is_identity()]
    return not bad, {"summary": f"c_i^2 = 1 for i >= {n + 1}", "failures": bad}


def _run_exp2_iii(ctx):
    n = ctx.n
    gam = series(ctx, SeriesKind.GAMMA)
    bad = [i for i in range(n + n // 2 + 1, 2 * n + 1) if not gam.term(i + 1).contains(ctx.c(i))]
    return not bad, {"summary": f"c_i in the next lower central term for i >= {n + n // 2 + 1}",
                     "failures": bad}


def _run_cm2k(ctx):
    gam = series(ctx, SeriesKind.GAMMA)
    n = ctx.n
    bad = [m for m in range(2, n + 1, 2) if not gam.term(n + m + 1).contains(ctx.cij(m, n))]
    return not bad, {"summary": f"c_(m,{n}) lies {n}+m+1 deep for even m", "failures": bad}


def _run_lcs_class(ctx):
    tbl = series(ctx, SeriesKind.GAMMA)
    want = 2 * ctx.n - 1
    return tbl.length == want, {"summary": f"nilpotency class {tbl.length}, formula {want}"}


def _run_lcs_layers(ctx):
    rep = lcs_generator_check(ctx)
    bad = [row for row in rep["per_index"] if not row["shape_match"]]
    return rep["ok"], {"summary": f"all {len(rep['per_index'])} stated generator lists and "
                                  f"layer shapes match; layer logs sum to {rep['layer_log_sum']}",
                       "failures": bad[:4], "layer_log_sum": rep["layer_log_sum"]}


def remark_index_formula(i: int) -> int:
    """Predicted log2 |Z : (i-th lower central term ^ Z)| in the limit group."""
    return (i // 2) * ((i + 1) // 2)


def _run_remark_index(ctx):
    z = centre_block_subgroup(ctx)
    gam = series(ctx, SeriesKind.GAMMA)
    table = []
    window_ok = True
    window = (1 << (ctx.k - 1)) + 1  # the level-k faithful range of the formula
    for i in range(1, 2 * ctx.n + 1):
        got = z.log_order - intersect(gam.term(i), z).log_order
        want = remark_index_formula(i)
        table.append({"i": i, "log_index": got, "limit_formula": want})
        if i <= window and got != want:
            window_ok = False
    return window_ok, {"summary": f"limit formula reproduced for i <= {window}; "
                                  "full table recorded",
                       "window": window, "table": table}


def _run_exponent(ctx):
    """exp(G) = 2^(k+2) without the power series.  For any g, g^(2^k) has
    top exponent 2^k t = 0 mod 2^k, so it lies in the trivial-top part H,
    whose exponent is 4 by the normal form (remark-derived); so every order
    divides 2^(k+2), and the witness x*y of order exactly 2^(k+2) gives
    equality.  P_(k+2) is then the first trivial 2-power subgroup, which
    thm-p-power checks on the series itself."""
    xy = ctx.x() * ctx.y()
    e = 1 << (ctx.k + 2)
    witness_ok = ((xy ** e).is_identity()
                  and not (xy ** (e // 2)).is_identity()
                  and xy ** (e // 2) == ctx.c(ctx.n) ** 2)
    orders_ok = (ctx.x().order() == 1 << ctx.k and ctx.y().order() == 4)
    return witness_ok and orders_ok, {
        "summary": f"exponent {e} (first trivial 2-power subgroup), witness x*y of order {e}",
        "max_order": e}


def _run_lower2(ctx):
    # the build certifies each closed form by the recurrence (series module)
    tbl = series(ctx, SeriesKind.LOWER_P)
    return tbl.length == 2 * ctx.n - 1, {
        "summary": f"length {tbl.length} and closed forms for all indices"}


def _run_dimension(ctx):
    """The build certifies each closed form by Lazard's formula (series
    module docstring), so only the length is left to check.  The paper's
    product form, which adds y^(2^l) and the 2^m-th powers of
    gamma_ceil(i/2^m) for m >= 2 while that index is at least 2, equals the
    closed form, so it is not built: y and those gamma terms lie in the
    trivial-top part H, of exponent 4, so only y^2 (l = 1, i = 2) is not
    trivial, and it is the square of y, a member of gamma_1."""
    tbl = series(ctx, SeriesKind.DIMENSION)
    return tbl.length == 2 * ctx.n, {
        "summary": f"length {tbl.length}; recurrence = closed form"}


def _run_gamma_sq(ctx):
    """Phi(S_n) <= S_(n+1) for the scaffolds S_n = D_(2^n), by membership
    in the normal S_(n+1).  A central member r squares to 1 and commutes
    with the members of trivial top (H centralises Z), and with the top
    member x^e h, e = 2^n, h in H, [r, x^e h] = (1 + X)^e r (X the central
    shift) is [r, x, ..(e).., x], in D_(2e) as [D_j, G] <= D_(j+1)."""
    scaffolds = [gamma_n_subgroups(ctx, n) for n in range(1, ctx.k + 2)]
    bad = [n for n, (cur, nxt) in enumerate(zip(scaffolds, scaffolds[1:]), start=1)
           if not all(map(nxt.contains, noncentral_squares(cur) + list(noncentral_commutators(cur, cur))))]
    return not bad, {"summary": "squares of each scaffold subgroup land in the next one",
                     "failures": bad}


def _run_shift(ctx, summary: str):
    """Both shift claims read the one-step shift identity: it gives the
    m-fold shift for every m, and the 2-power shift identity is that at
    m = 2^t (the argument is in series._shift_identity)."""
    rep = shift_identity_check(ctx)
    return rep["power_shift"], {"summary": summary, "failures": rep["shift_failures"]}


def _run_sq_comm(ctx):
    return commutator_identity_checks(ctx)["square_commutator"], {
        "summary": "square-commutator congruence at the top 2-power"}


def _run_power_expansion(ctx):
    rep = power_expansion_check(ctx)
    return rep["power_expansion"], {
        "summary": "both power expansion congruences, error terms in the "
                   "weight-filtered closure",
        "details": rep["power_expansion_details"]}


def _run_zij_table(ctx):
    """z_(i,j) = [c_i, c_j] for i <= j only: the chains have trivial top, so
    z_(i,j) = (0, 0, corr(a_i, a_j) + corr(a_j, a_i)) = z_(j,i), and the
    support bound max(i, j) <= n and the weight bound are symmetric."""
    n = ctx.n
    gam = series(ctx, SeriesKind.GAMMA)
    ok = True
    nonzero = []
    for i in range(1, 2 * n + 2):
        for j in range(i, 2 * n + 2):
            z = ctx.zij(i, j)
            if z.is_identity():
                continue
            if i < j:
                nonzero.append([i, j])
            if j >= n + 1 or (i + j <= 2 * n and not gam.term(i + j).contains(z)):
                ok = False
    return ok, {"summary": f"{len(nonzero)} nonzero pair commutators: symmetric, supported "
                           f"below index {n + 1}, of weight at least i+j",
                "nonzero": nonzero}


def _run_m_density(ctx):
    z = centre_block_subgroup(ctx)
    seq = density_sequence(z, series(ctx, SeriesKind.M), "Z")
    n = ctx.n
    want = Fraction(n + n * (n - 1) // 2, ctx.log_order)
    top = seq.points[-1]
    ratios = [p.ratio for p in seq.points]
    ok = (top.i == ctx.k and top.ratio == want
          and all(a < b for a, b in zip(ratios, ratios[1:])))
    return ok, {"summary": f"top-level ratio {top.num}/{top.den}, increasing within the level",
                "points": [p.as_row() for p in seq.points]}


def _run_ld_complement(ctx):
    z = centre_block_subgroup(ctx)
    ok = True
    recorded = {}
    # the 2(j-1) law needs both the top 2-power and the wreath layer alive:
    # j <= k+1 steps for the lower 2-series, additionally j <= 3 for the
    # dimension series whose top part is x^(2^ceil(log2 j))
    for kind, window in ((SeriesKind.LOWER_P, ctx.k + 1),
                         (SeriesKind.DIMENSION, min(3, ctx.k + 1))):
        vals = dict(complement_density(z, series(ctx, kind)))
        recorded[kind.value] = sorted(vals.items())
        for j in range(1, min(window, max(vals)) + 1):
            if vals[j] != 2 * (j - 1):
                ok = False
    return ok, {"summary": "log index of S_j Z is twice the step count in the stable window",
                "values": recorded}


def _run_p_power(ctx):
    k = ctx.k
    z = centre_block_subgroup(ctx)
    gam = series(ctx, SeriesKind.GAMMA)
    tbl = series(ctx, SeriesKind.POWER)
    # the i = 1 sandwich below puts P_1 = tbl.term(1) between gamma_4 and the
    # scaffold gamma_1
    ok = tbl.term(k + 2).is_trivial() and ctx.log_order - tbl.term(1).log_order >= 2
    sandwiches = []
    for i in range(1, k + 1):
        lower, exact, upper = power_series(ctx, i)
        verified = exact.contains_subgroup(lower) and upper.contains_subgroup(exact)
        sandwiches.append({"i": i, "lower_log": lower.log_order,
                           "exact_log": exact.log_order,
                           "upper_log": upper.log_order,
                           "verified": verified})
        ok = ok and verified
    # scaffold-intersection indices: limit formula within the faithful window
    indices = []
    for s in range(1, k + 1):
        got = z.log_order - intersect(gamma_n_subgroups(ctx, s), z).log_order
        m = 1 << (s - 1)
        indices.append({"s": s, "log_index": got, "limit_formula": m * (m - 1)})
        if (1 << s) <= (1 << (k - 1)) + 1 and got != m * (m - 1):
            ok = False
    # decomposition of the level-k scaffold intersection; needs the squared
    # term inside the trivial-top part, so k >= 2
    if k >= 2:
        lhs = intersect(gamma_n_subgroups(ctx, k), z)
        rhs = join(agemo_mod_derived(gam.term(1 << (k - 1))),
                   intersect(gam.term(1 << k), z))
        ok = ok and lhs == rhs
    return ok, {"power_logs": [s.log_order for s in tbl.terms],
                "sandwiches": sandwiches, "scaffold_indices": indices,
                "summary": "exact power terms verified inside certified sandwiches"}


def _run_f_sandwich(ctx):
    """Phi_s, s = k - 1, between gamma_s and <T_s, gamma_j ^ Z>, j = 2^s +
    2^(s-1) - 1, where T_s is generated by the scaffold heads of gamma_s and
    the chains c_i, i >= 2^s: one extension of gamma_j ^ Z."""
    s = ctx.k - 1
    phi = series(ctx, SeriesKind.FRATTINI).term(s)
    upper = gamma_n_subgroups(ctx, s)
    j = (1 << s) + (1 << (s - 1)) - 1
    chains = [ctx.c(i) for i in range(1 << s, 2 * ctx.n + 1)]
    low = extend(intersect(series(ctx, SeriesKind.GAMMA).term(j), centre_block_subgroup(ctx)),
                 scaffold_heads(ctx, s) + chains)
    ok = phi.contains_subgroup(low) and upper.contains_subgroup(phi)
    return ok, {"summary": f"level-{s} Frattini term sits between the stated bounds "
                           f"inside level {ctx.k}",
                "lower_log": low.log_order, "phi_log": phi.log_order,
                "upper_log": upper.log_order}


def _run_wreath(ctx):
    """Structural certificate for the projection (t, a, z) -> (t, a).

    The (t, a) part of g * h is (t1 + t2, base(x^-t2 (a1, z1) x^t2) ^ a2) and
    the wreath product gives (t1 + t2, rot(a1, t2) ^ a2), so the projection
    is a homomorphism exactly when the base row of conj_by_x_power equals
    the rotation.  That base row is (lo << t) | hi, built from a alone, so
    z plays no part; both sides are GF(2)-linear in a, so the n base unit
    vectors for every t cover every pair.  The kernel is the centre block
    by the normal form, so the image has log order log|G| - log|Z|.  That
    difference is reported, not checked: both orders are read off the
    coordinate layout (k + n + d and d positions), so it is k + n by
    construction.
    """
    ok = all(ctx.conj_by_x_power(1 << b, 0, t)[0] == ctx._rot(1 << b, t)
             for t in range(ctx.tmod) for b in range(ctx.n))
    image_log = full_group(ctx).log_order - centre_block_subgroup(ctx).log_order
    return ok, {"summary": f"quotient map is a homomorphism onto 2^{ctx.k + ctx.n} "
                           "elements with the centre block as kernel",
                "image_log": image_log}


def _run_h_generation(ctx):
    h = base_and_centre_subgroup(ctx)
    via_closure = normal_closure([ctx.y()])
    chain = close([ctx.c(i) for i in range(1, 2 * ctx.n + 1)])
    return via_closure == h == chain, {
        "summary": "normal closure of y equals the span of the chain commutators"}


CLAIMS: dict[str, ClaimSpec] = {}


def _register(claim_id, statement, runner, k_min=1, k_max=None):
    CLAIMS[claim_id] = ClaimSpec(claim_id, statement, k_min, k_max, runner)


_register("prop-order", "log2 order equals k + 2^(k+1) + C(2^k, 2)", _run_prop_order)
_register("oracle-k1", "packed arithmetic equals word reduction on all 64x64 products", _run_oracle, k_max=1)
_register("remark-derived", "squares of the trivial-top part span the centre block; its exponent is 4", _run_remark_derived)
_register("lemma-exp2-i", "c_i^2 falls into the next lower central term from half the base width on", _run_exp2_i)
_register("lemma-exp2-ii", "c_i^2 vanishes beyond the base width", _run_exp2_ii)
_register("lemma-exp2-iii", "c_i falls into the next lower central term beyond 1.5x the base width", _run_exp2_iii)
_register("lemma-cm2k", "the double chain c_(m, 2^k) lies 2^k + m + 1 deep for even m", _run_cm2k)
_register("prop-lcs-class", "nilpotency class is 2^(k+1) - 1", _run_lcs_class)
_register("prop-lcs-layers", "stated generator lists and layer shapes; layer logs sum to the group log", _run_lcs_layers)
_register("remark-index", "centre-block index along the lower central series matches the limit formula in the faithful window", _run_remark_index)
_register("lemma-exponent", "group exponent is 2^(k+2), witnessed by x*y", _run_exponent)
_register("prop-lower2", "lower 2-series length and closed forms", _run_lower2)
_register("prop-dimension", "dimension series length and closed form", _run_dimension)
_register("lemma-gamma-sq", "scaffold subgroups square into their successors", _run_gamma_sq)
_register("lemma-double-product", "m-fold shift of a pair commutator equals the double product",
          lambda ctx: _run_shift(ctx, "double product for every in-range pair and every m, "
                                      "from the one-step shift identity"))
_register("cor-zij-shift", "2-power shift identity for pair commutators",
          lambda ctx: _run_shift(ctx, "2-power shift identity for all in-range pairs"))
_register("eq-sq-comm", "square-commutator congruence at the top 2-power", _run_sq_comm)
_register("eq-power-expansion", "power expansion congruences with certified error terms", _run_power_expansion)
_register("zij-table", "pair commutator table: symmetry, support and weight", _run_zij_table)
_register("thm-m-density", "construction-series density of the centre block at top level", _run_m_density)
_register("thm-ld-complement", "complement density along the lower 2- and dimension series", _run_ld_complement)
_register("thm-p-power", "2-power subgroups: exact terms inside certified sandwiches, with scaffold indices", _run_p_power)
_register("thm-f-sandwich", "Frattini term between its stated bounds, one level down", _run_f_sandwich, k_min=2)
_register("wreath-quotient", "quotient by the centre block is the wreath product", _run_wreath)
_register("h-generation", "normal closure of y equals the span of the chain commutators", _run_h_generation)


# convenience selector spellings
SELECTOR_ALIASES = {
    "power-series": "thm-p-power",
}


def select_claims(selectors: list[str] | None, k: int) -> list[str]:
    """Claim identifiers for a selector list (prefix matching), level aware.

    Raises KeyError for a selector that matches no registered claim and
    ValueError, naming the level ranges, for one whose claims all lie
    outside level k.
    """
    if not selectors:
        ids = [cid for cid, spec in CLAIMS.items() if spec.supports(k)]
        return sorted(ids)
    out = set()
    for sel in selectors:
        sel = SELECTOR_ALIASES.get(sel, sel)
        matched = [cid for cid in CLAIMS if cid == sel or cid.startswith(sel)]
        if not matched:
            raise KeyError(sel)
        supported = [cid for cid in matched if CLAIMS[cid].supports(k)]
        if not supported:
            ranges = ", ".join(f"{cid} supports k = {CLAIMS[cid].k_min}..{CLAIMS[cid].k_max or ''}"
                               for cid in matched)
            raise ValueError(f"no claim matching {sel!r} runs at level {k}: {ranges}")
        out.update(supported)
    return sorted(out)


def _crash_summary(exc: Exception) -> str:
    """error: <Type>: <message> at <file>:<line>, placed at the innermost
    traceback frame inside the package (run_claims itself at the latest)."""
    here = os.path.dirname(__file__)
    tb = where = exc.__traceback__
    while tb is not None:
        if os.path.dirname(tb.tb_frame.f_code.co_filename) == here:
            where = tb
        tb = tb.tb_next
    name = os.path.basename(where.tb_frame.f_code.co_filename)
    return f"error: {type(exc).__name__}: {exc} at {__package__}/{name}:{where.tb_lineno}"


def run_claims(k: int, claim_ids: list[str]) -> list[VerificationResult]:
    """One result per claim id, sorted by id: each runner gets the level's
    context, and a crashed runner is a failed claim."""
    results = []
    for cid in claim_ids:
        try:
            ok, details = CLAIMS[cid].runner(get_context(k))
            status = PASS if ok else FAIL
        except Exception as exc:
            status, details = FAIL, {"summary": _crash_summary(exc)}
        results.append(VerificationResult(cid, k, status, details))
    return sorted(results, key=lambda r: r.claim_id)
