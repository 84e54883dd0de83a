"""Repository tooling checks: the benchmark tracer in bench/ wraps wrsp
functions by name from outside the package, so a run under it fails if one
of those names disappears; no module imports a name it never uses, nor
another module's private name; the package defines no function or class
that only tests reach; it reads every attribute a GroupContext holds; and
each claim runner builds only the series it reads and computes only the
commutator identity check it states."""

import ast
import os
import pathlib
import subprocess
import sys

from wrsp.claims import CLAIMS
from wrsp.engine import GroupContext

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _traced(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(ROOT / d) for d in ("src", "bench"))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave no cache files under bench/
    return subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


TRACED_RUN = """
import tracer
from wrsp.claims import run_claims

t = tracer.Tracer()
tracer.install(t)
results = run_claims(1, ["thm-p-power", "thm-ld-complement"])
print(*(r.status for r in results), t.calls["series.power_series"],
      t.calls["series.exact_power_subgroup"], t.calls["spectra.complement_density"])
"""


def test_bench_tracer_wraps_a_claim_run():
    proc = _traced(TRACED_RUN)
    assert proc.returncode == 0, proc.stderr
    *statuses, sandwiches, powers, complements = proc.stdout.split()
    assert statuses == ["pass", "pass"]
    assert int(sandwiches) >= 1 and int(powers) >= 1 and int(complements) >= 1


# claims whose closures extend a closed subgroup: a call routed through the
# traced close with an argument its wrapper lacks would make them fail
TRACED_EXTEND_RUN = """
import tracer
from wrsp.claims import run_claims

tracer.install(tracer.Tracer())
results = run_claims(2, ["prop-dimension", "prop-lower2", "lemma-gamma-sq", "prop-lcs-layers"])
print(*(r.status for r in results))
"""


def test_bench_tracer_runs_the_extending_claims():
    proc = _traced(TRACED_EXTEND_RUN)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["pass"] * 4


# the CLI parser binds the cmd_* functions: built before install, it would
# bind the unwrapped ones and no cli.* span would be recorded
TRACED_CLI_RUN = """
import tracer
from wrsp.cli import main

t = tracer.Tracer()
tracer.install(t)
codes = [main(["verify", "--k", "1", "--claims", "prop-order"]), main(["oracle"])]
print(*codes, t.calls["cli.verify"], t.calls["cli.oracle"])
"""


def test_bench_tracer_sees_cli_commands():
    proc = _traced(TRACED_CLI_RUN)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["0", "0", "1", "1"]


# the benchmark's set-up step: the import and the level 1..4 context builds
# do no oracle work; the oracle is built on the first oracle_report()
SETUP_RUN = """
import wrsp, wrsp.cli
from wrsp.engine import get_context

for k in range(1, 5):
    get_context(k)
print("oracle" in get_context(1)._memo)
"""


def test_setup_builds_no_oracle():
    proc = _traced(SETUP_RUN)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


# nor do they build a central flag; a density sweep builds one per series
# on first use
SETUP_FLAG_RUN = """
import wrsp, wrsp.cli
from wrsp.engine import get_context

print(any(isinstance(key, tuple) and key[0] == "central_flag"
          for k in range(1, 5) for key in get_context(k)._memo))
"""


def test_setup_builds_no_central_flag():
    proc = _traced(SETUP_FLAG_RUN)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


# the series each claim runner builds, read off the ("series", kind) memo
# keys of a fresh level-2 context: a runner that starts building a series
# it does not read shows here
CLAIM_SERIES = {cid: set() for cid in ("cor-zij-shift", "eq-power-expansion", "h-generation",
                                        "lemma-double-product", "lemma-exp2-ii", "lemma-exponent",
                                        "oracle-k1", "prop-order", "remark-derived",
                                        "wreath-quotient")}
CLAIM_SERIES.update({cid: {"gamma"} for cid in (
    "eq-sq-comm", "lemma-cm2k", "lemma-exp2-i", "lemma-exp2-iii",
    "prop-lcs-class", "prop-lcs-layers", "remark-index", "zij-table")})
CLAIM_SERIES.update({
    "lemma-gamma-sq": {"dimension", "gamma"},
    "prop-dimension": {"dimension", "gamma"},
    "prop-lower2": {"gamma", "lowerp"},
    "thm-f-sandwich": {"dimension", "frattini", "gamma"},
    "thm-ld-complement": {"dimension", "gamma", "lowerp"},
    "thm-m-density": {"m"},
    "thm-p-power": {"dimension", "gamma", "power"},
})


def _memo_keys_per_claim() -> dict:
    """The memo keys each claim runner leaves on a fresh level-2 context."""
    keys = {}
    for cid, spec in CLAIMS.items():
        ctx = GroupContext(2)
        ok, _ = spec.runner(ctx)
        assert ok, cid
        keys[cid] = set(ctx._memo)
    return keys


def test_each_claim_builds_only_the_series_it_reads():
    keys = _memo_keys_per_claim()
    got = {cid: {key[1].value for key in ks if isinstance(key, tuple) and key[0] == "series"}
           for cid, ks in keys.items()}
    assert got == CLAIM_SERIES
    # the scaffolds are the dimension terms D_(2^n), read off that series
    heads = {str(key[0] if isinstance(key, tuple) else key) for ks in keys.values() for key in ks}
    assert not [head for head in heads if head.startswith("scaffold")]


# the commutator identity checks each claim runner computes, by memo key:
# the square-commutator, shift and power expansion checks stand alone, so a
# claim that starts computing one it does not state shows here
IDENTITY_CHECKS = {"identity_checks", "shift_identity", "power_expansion"}
CLAIM_IDENTITY_CHECKS = {cid: set() for cid in CLAIMS}
CLAIM_IDENTITY_CHECKS.update({
    "eq-sq-comm": {"identity_checks"},
    "cor-zij-shift": {"shift_identity"},
    "lemma-double-product": {"shift_identity"},
    "eq-power-expansion": {"power_expansion"},
})


def test_each_claim_computes_only_the_identity_check_it_states():
    got = {cid: keys & IDENTITY_CHECKS for cid, keys in _memo_keys_per_claim().items()}
    assert got == CLAIM_IDENTITY_CHECKS


def _unused_imports(path: pathlib.Path) -> list[str]:
    """file:line name for every imported name the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__.py is exempt: its imports are the package's re-exports
    paths = sorted((ROOT / "src" / "wrsp").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = [hit for p in paths if p.name != "__init__.py" for hit in _unused_imports(p)]
    assert not unused, unused


def test_no_private_imports_across_modules():
    # a name one module shares with another is public; the underscore
    # marks what stays inside its own module
    hits = []
    for path in sorted((ROOT / "src" / "wrsp").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("wrsp")):
                hits += [f"{path.relative_to(ROOT)}:{node.lineno} {alias.name}"
                         for alias in node.names if alias.name.startswith("_")]
    assert not hits, hits


def _unreferenced_definitions(src: pathlib.Path) -> list[str]:
    """file:line name for every function or class (dunders exempt) that no
    module of the package names outside the definition's own body;
    __init__.py re-exports are not references."""
    defs, refs = [], {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((node.name, path, node.lineno, node.end_lineno))
            elif path.name != "__init__.py" and isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                refs.setdefault(name, []).append((path, node.lineno))
    return [f"{path.relative_to(ROOT)}:{lo} {name}" for name, path, lo, hi in defs
            if not (name.startswith("__") and name.endswith("__"))
            and not any(where != path or not lo <= line <= hi
                        for where, line in refs.get(name, ()))]


def test_no_definitions_only_tests_reach():
    unreferenced = _unreferenced_definitions(ROOT / "src" / "wrsp")
    assert not unreferenced, unreferenced


def _attributes_read(src: pathlib.Path) -> set[str]:
    """Attribute names the package loads anywhere outside GroupContext.__init__."""
    read = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skip = {id(n) for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and node.name == "GroupContext"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name == "__init__"
                for n in ast.walk(item)}
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load) and id(node) not in skip}
    return read


def test_every_context_slot_is_read_by_the_package():
    # a table that only tests read would still cost every context build
    read = _attributes_read(ROOT / "src" / "wrsp")
    unread = [name for name in GroupContext.__slots__ if name not in read]
    assert not unread, unread
