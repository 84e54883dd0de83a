"""Line-based power-commutator presentation export for external cross-checks.

The format is plain ASCII, one declaration or relation per line, so any
computer algebra system can ingest it with a few lines of scripting:

    pcgroup level=2
    gen x
    gen y0
    ...
    rel x^4 = 1
    rel y0^2 = s0
    rel [y0,y1] = c_0_1
    rel y0^x = y1
    rel s0^x = s1
    rel c_0_1^x = c_1_2
    rel [s0,y0] = 1
    ...

Generator names: x, y<i>, s<i> and c_<i>_<j> with i < j.  The parser
rebuilds the level from the header and can evaluate every relation inside
the packed engine, which gives the round-trip self check.  It reads the
level and the exponents only in the plain ASCII decimal form the export
writes (no sign, underscore or leading zero), and the level only in
1..DEFAULT_MAX_LEVEL.
"""

from __future__ import annotations

from .engine import (
    Element,
    GroupContext,
    commutator,
    get_context,
    plain_decimal,
)
from .subgroup import full_group

# the highest level the parser reads, and the CLI admits with --deep
DEFAULT_MAX_LEVEL = 4


def _gen_names(n: int) -> list[str]:
    names = ["x"]
    names += [f"y{i}" for i in range(n)]
    names += [f"s{i}" for i in range(n)]
    names += [f"c_{i}_{j}" for i in range(n) for j in range(i + 1, n)]
    return names


def _gen_elements(ctx: GroupContext) -> dict[str, Element]:
    # the generators are the unit vectors, in the order of the coordinates
    out = dict(zip(_gen_names(ctx.n), full_group(ctx).igs))
    out["1"] = ctx.identity()
    return out


def _pair_name(i: int, j: int) -> str:
    i, j = min(i, j), max(i, j)
    return f"c_{i}_{j}"


def export_presentation(ctx: GroupContext) -> str:
    n = ctx.n
    lines = [f"pcgroup level={ctx.k}"]
    for name in _gen_names(n):
        lines.append(f"gen {name}")
    lines.append(f"rel x^{ctx.tmod} = 1")
    for i in range(n):
        lines.append(f"rel y{i}^2 = s{i}")
    for i in range(n):
        lines.append(f"rel s{i}^2 = 1")
    for i in range(n):
        for j in range(i + 1, n):
            lines.append(f"rel {_pair_name(i, j)}^2 = 1")
    for i in range(n):
        for j in range(i + 1, n):
            lines.append(f"rel [y{i},y{j}] = {_pair_name(i, j)}")
    for i in range(n):
        lines.append(f"rel y{i}^x = y{(i + 1) % n}")
    for i in range(n):
        lines.append(f"rel s{i}^x = s{(i + 1) % n}")
    for i in range(n):
        for j in range(i + 1, n):
            lines.append(f"rel {_pair_name(i, j)}^x = {_pair_name((i + 1) % n, (j + 1) % n)}")
    # the squares and pair commutators commute with the base generators and
    # with each other; conjugation by x is listed above
    centrals = [f"s{i}" for i in range(n)] + \
               [_pair_name(i, j) for i in range(n) for j in range(i + 1, n)]
    for cname in centrals:
        for i in range(n):
            lines.append(f"rel [{cname},y{i}] = 1")
    for a in range(len(centrals)):
        for b in range(a + 1, len(centrals)):
            lines.append(f"rel [{centrals[a]},{centrals[b]}] = 1")
    return "\n".join(lines) + "\n"


class PresentationError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_presentation(text: str) -> tuple[int, list[str], list[tuple]]:
    """Parse the export back into (level, generator names, relations).

    Relations come back as tuples: ("power", g, e, rhs), ("comm", g, h, rhs)
    or ("conj", g, rhs) for conjugation by x.  Every name in a relation
    is 1 or declared by an earlier gen line, and the gen lines list the
    level's generators in export order, no more and no fewer.
    """
    lines = text.splitlines()
    if not lines:
        raise PresentationError(1, "empty presentation")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "pcgroup" or not head[1].startswith("level="):
        raise PresentationError(1, f"bad header {lines[0]!r}")
    field = head[1].split("=", 1)[1]
    level = plain_decimal(field, DEFAULT_MAX_LEVEL + 1)
    if level is None:
        raise PresentationError(1, "level is not a plain decimal integer")
    if not 1 <= level <= DEFAULT_MAX_LEVEL:
        raise PresentationError(1, f"level {field} is outside 1..{DEFAULT_MAX_LEVEL}")
    want = _gen_names(1 << level)
    gens: list[str] = []
    declared = {"1"}
    rels: list[tuple] = []
    last_gen = 1
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "gen":
            if len(parts) != 2:
                raise PresentationError(lineno, "gen lines carry exactly one name")
            if len(gens) == len(want):
                raise PresentationError(
                    lineno, f"extra generator {parts[1]!r}: level {level} has {len(want)}")
            if parts[1] != want[len(gens)]:
                raise PresentationError(
                    lineno, f"generator {len(gens) + 1} of level {level} is "
                            f"{want[len(gens)]!r}, not {parts[1]!r}")
            gens.append(parts[1])
            last_gen = lineno
            declared.add(parts[1])
            continue
        if parts[0] != "rel" or len(parts) != 4 or parts[2] != "=":
            raise PresentationError(lineno, f"malformed relation {line!r}")
        lhs, rhs = parts[1], parts[3]
        if lhs.startswith("[") and lhs.endswith("]"):
            inner = lhs[1:-1].split(",")
            if len(inner) != 2:
                raise PresentationError(lineno, "commutator needs two arguments")
            rel = ("comm", inner[0], inner[1], rhs)
        elif "^" in lhs:
            base, exp = lhs.rsplit("^", 1)
            if exp == "x":
                rel = ("conj", base, rhs)
            else:
                e = plain_decimal(exp)
                if e is None:
                    raise PresentationError(lineno, f"bad exponent {exp!r}")
                rel = ("power", base, e, rhs)
        else:
            raise PresentationError(lineno, f"malformed relation {line!r}")
        for name in rel[1:]:
            if isinstance(name, str) and name not in declared:
                raise PresentationError(lineno, f"undeclared generator {name!r}")
        rels.append(rel)
    if len(gens) < len(want):
        raise PresentationError(last_gen + 1, f"level {level} has {len(want)} generators, "
                                              f"not {len(gens)}")
    return level, gens, rels


def verify_presentation(text: str) -> dict:
    """Rebuild the context from the export and evaluate every relation."""
    level, gens, rels = parse_presentation(text)
    ctx = get_context(level)
    env = _gen_elements(ctx)
    failures = []
    for rel in rels:
        if rel[0] == "power":
            _, base, e, rhs = rel
            ok = env[base] ** e == env[rhs]
        elif rel[0] == "comm":
            _, g, h, rhs = rel
            ok = commutator(env[g], env[h]) == env[rhs]
        else:
            _, base, rhs = rel
            ok = env[base].conj(ctx.x()) == env[rhs]
        if not ok:
            failures.append(rel)
    return {
        "level": level,
        "generators": len(gens),
        "relations": len(rels),
        "ok": not failures,
        "failures": failures[:8],
    }
