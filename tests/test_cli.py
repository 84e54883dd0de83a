"""CLI surface, presentation export, claim registry and determinism."""

import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

from conftest import pair_gen
from wrsp.claims import CLAIMS, run_claims, select_claims
from wrsp.cli import main
from wrsp.engine import get_context
from wrsp.presentation import (
    PresentationError,
    export_presentation,
    parse_presentation,
    verify_presentation,
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# every in-scope structure claim must have a registry entry
REQUIRED_CLAIM_IDS = [
    "prop-order",
    "oracle-k1",
    "remark-derived",
    "lemma-exp2-i", "lemma-exp2-ii", "lemma-exp2-iii",
    "lemma-cm2k",
    "prop-lcs-class", "prop-lcs-layers",
    "remark-index",
    "lemma-exponent",
    "prop-lower2",
    "prop-dimension",
    "lemma-gamma-sq",
    "lemma-double-product",
    "cor-zij-shift",
    "eq-sq-comm",
    "eq-power-expansion",
    "zij-table",
    "thm-m-density",
    "thm-ld-complement",
    "thm-p-power",
    "thm-f-sandwich",
    "wreath-quotient",
    "h-generation",
]


def test_registry_completeness():
    for cid in REQUIRED_CLAIM_IDS:
        assert cid in CLAIMS, cid
    assert set(CLAIMS) == set(REQUIRED_CLAIM_IDS)
    for spec in CLAIMS.values():
        assert spec.statement
        assert spec.k_min >= 1 and spec.supports(spec.k_min)
    # no claim repeats the CLI's level gate: only two have a range of their own
    assert {cid: (spec.k_min, spec.k_max) for cid, spec in CLAIMS.items()
            if (spec.k_min, spec.k_max) != (1, None)} == {"oracle-k1": (1, 1),
                                                          "thm-f-sandwich": (2, None)}


def test_selector_semantics():
    assert select_claims(["lemma-exp2"], 2) == [
        "lemma-exp2-i", "lemma-exp2-ii", "lemma-exp2-iii"]
    assert "oracle-k1" in select_claims(None, 1)
    assert "oracle-k1" not in select_claims(None, 2)
    with pytest.raises(KeyError):
        select_claims(["no-such-claim"], 2)
    with pytest.raises(ValueError, match="oracle-k1 supports k = 1..1"):
        select_claims(["oracle"], 2)


def test_run_claims_catches_runner_errors(monkeypatch):
    # a crash report names the exception type and its innermost place in
    # the package: run_claims itself for a runner defined outside it
    import wrsp.claims as cl
    from wrsp.subgroup import close
    spec = cl.CLAIMS["prop-order"]
    for runner, want in (
            (lambda ctx: (_ for _ in ()).throw(RuntimeError("boom")),
             r"error: RuntimeError: boom at wrsp/claims\.py:\d+"),
            (lambda ctx: close([]),
             r"error: ValueError: close needs at least one generator at wrsp/subgroup\.py:\d+")):
        monkeypatch.setitem(cl.CLAIMS, "prop-order",
                            cl.ClaimSpec("prop-order", spec.statement, 1, 4, runner))
        (res,) = run_claims(1, ["prop-order"])
        assert res.status == "fail"
        assert re.fullmatch(want, res.details["summary"])


def test_prop_order_reports_a_closure_that_misses_the_group(monkeypatch):
    # prop-order certifies the order with its own closure of x and y, not
    # with full_group, which reads the group off the layout
    import wrsp.claims as cl
    real = cl.close
    monkeypatch.setattr(cl, "close", lambda gens: real([g for g in gens if g != g.ctx.y()]))
    (res,) = run_claims(2, ["prop-order"])
    assert res.status == "fail"
    assert (res.details["got"], res.details["want"]) == (2, 16)
    assert res.details["summary"] == "log2 order 2, formula 16"


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_runner_meets_the_result_contract(k):
    # run_claims builds each result under the requested id and level from
    # the runner's (ok, details)
    ids = [cid for cid, spec in CLAIMS.items() if spec.supports(k)]
    for cid in ids:
        (res,) = run_claims(k, [cid])
        assert (res.claim_id, res.k, res.status) == (cid, k, "pass"), res.details
        assert isinstance(res.details["summary"], str)


def test_oracle_claim_builds_level_one_at_any_level():
    # the benchmark asks for the oracle claim at level 4
    (res,) = run_claims(4, ["oracle-k1"])
    assert (res.claim_id, res.k, res.status) == ("oracle-k1", 4, "pass")
    assert res.details["table"]["ok"]


def test_verify_all_level1():
    code, out, _ = run_cli(["verify", "--k", "1", "--all"])
    assert code == 0
    assert "prop-order" in out and "oracle-k1" in out


def test_verify_claim_prefix_level2():
    code, out, _ = run_cli(["verify", "--k", "2", "--claims", "lemma-exp2"])
    assert code == 0
    assert out.count("PASS") == 3


def test_verify_power_series_alias_passes():
    code, out, _ = run_cli(["verify", "--k", "3", "--claims", "power-series"])
    assert code == 0
    assert out.startswith("PASS   thm-p-power")


def test_density_trivial_target():
    code, out, _ = run_cli(["density", "--k", "2", "--kind", "gamma",
                            "--target", "trivial", "--format", "csv"])
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert rows and all(row.split(",")[3] == "0" for row in rows)


def test_verify_threads_env(monkeypatch):
    # WRSP_THREADS is not read: claims run serially, so output cannot depend on it
    argv = ["verify", "--k", "1", "--claims", "prop-order,h-generation"]
    plain = run_cli(argv)
    assert plain[0] == 0
    monkeypatch.setenv("WRSP_THREADS", "2")
    assert run_cli(argv) == plain


def test_usage_errors():
    assert run_cli(["verify", "--k", "2", "--claims", "bogus"])[0] == 2
    assert run_cli(["verify", "--k", "7", "--all"])[0] == 2
    # the engine builds any level, so the CLI alone refuses level 5, --deep or not
    assert (run_cli(["verify", "--k", "5", "--deep", "--all"])
            == (2, "", "error: --k must be in 1..4\n"))
    assert run_cli(["series", "--k", "2"])[0] == 2
    assert run_cli(["series", "--k", "4", "--kind", "power"])[0] == 2
    assert run_cli(["density", "--k", "2", "--kind", "m", "--target", "seed"])[0] == 2
    # a seed file with a named target would be ignored
    result = run_cli(["density", "--k", "1", "--kind", "gamma", "--target", "Z",
                      "--seed-file", "/nonexistent"])
    _assert_usage_error(result)
    assert "--seed-file" in result[2]
    assert run_cli(["no-such-command"])[0] == 2
    # verify runs nothing it was not asked for: a selection is required
    assert run_cli(["verify", "--k", "2"]) == (2, "", "error: choose either --claims or --all\n")
    # an empty selector list names no claim, with or without --all
    for selector in ("", ","):
        _assert_usage_error(run_cli(["verify", "--k", "1", "--claims", selector]))
        _assert_usage_error(run_cli(["verify", "--k", "1", "--claims", selector, "--all"]))
    # a registered claim asked for at a level it does not support is named
    # with its level range, not reported as unknown
    for k, selector, want in (("2", "oracle", "oracle-k1 supports k = 1..1"),
                              ("1", "thm-f", "thm-f-sandwich supports k = 2..")):
        result = run_cli(["verify", "--k", k, "--claims", selector])
        _assert_usage_error(result)
        assert want in result[2] and "unknown" not in result[2]


def test_claim_selectors_are_stripped():
    # a space after a comma is not part of the selector, and a list of
    # blanks names no claim
    code, out, _ = run_cli(["verify", "--k", "2", "--claims", "prop-order, lemma-exp2"])
    assert code == 0
    assert out.count("PASS") == 4 and "prop-order" in out
    for selector in (" ", " , "):
        result = run_cli(["verify", "--k", "1", "--claims", selector])
        _assert_usage_error(result)
        assert result[2] == "error: --claims names no claim\n"


def _assert_usage_error(result):
    code, out, err = result
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_out_path_checked_before_work(tmp_path, monkeypatch):
    import wrsp.cli as cli

    def refuse(*_):
        raise AssertionError("the command ran before --out was checked")

    monkeypatch.setattr(cli, "run_claims", refuse)
    monkeypatch.setattr(cli, "series", refuse)
    missing = tmp_path / "no-such-dir" / "out.txt"
    for argv in (["verify", "--k", "1", "--all"],
                 ["series", "--k", "1", "--kind", "m"],
                 ["oracle"]):
        _assert_usage_error(run_cli(argv + ["--out", str(missing)]))
        _assert_usage_error(run_cli(argv + ["--out", str(tmp_path)]))
    assert list(tmp_path.iterdir()) == []


def test_empty_path_values_are_usage_errors(monkeypatch):
    # an empty --out is no path at all, not a request for stdout, and an
    # empty --seed-file is still a seed file given with a named target
    import wrsp.cli as cli

    def refuse(*_):
        raise AssertionError("the command ran before --out was checked")

    for name in ("run_claims", "series", "export_presentation", "oracle_report"):
        monkeypatch.setattr(cli, name, refuse)
    for argv in (["verify", "--k", "1", "--all"],
                 ["series", "--k", "1", "--kind", "m"],
                 ["density", "--k", "1", "--kind", "m", "--target", "Z"],
                 ["export-presentation", "--k", "1"],
                 ["oracle"]):
        assert run_cli(argv + ["--out", ""]) == (2, "", "error: --out needs a path\n"), argv
    result = run_cli(["density", "--k", "1", "--kind", "gamma", "--target", "Z",
                      "--seed-file", ""])
    _assert_usage_error(result)
    assert "--seed-file needs --target seed" in result[2]


def test_out_path_that_cannot_be_opened_is_a_usage_error(tmp_path):
    # the directory exists, so the pre-check passes and the open itself fails
    # (ENAMETOOLONG, whatever the user's permissions)
    path = tmp_path / ("a" * 300)
    result = run_cli(["series", "--k", "1", "--kind", "gamma", "--out", str(path)])
    _assert_usage_error(result)
    assert result[2].startswith(f"error: cannot write --out {path}: ")
    assert list(tmp_path.iterdir()) == []


def test_non_ascii_seed_file_names_the_line(tmp_path, ctx2):
    seeds = tmp_path / "seeds.txt"
    seeds.write_bytes(pair_gen(ctx2, 0, 1).text().encode("ascii") + b"\n"
                      + "# caf\u00e9\n".encode("utf-8"))
    result = run_cli(["density", "--k", "2", "--kind", "m",
                      "--target", "seed", "--seed-file", str(seeds)])
    _assert_usage_error(result)
    assert "line 2" in result[2]


def test_series_csv_rows():
    code, out, _ = run_cli(["series", "--k", "2", "--kind", "gamma", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9  # header plus the eight terms down to the trivial one
    assert lines[0] == "kind,k,i,log_order,layer_shape,igs"


def test_series_json_lengths():
    code, out, _ = run_cli(["series", "--k", "1", "--kind", "dimension"])
    rows = json.loads(out)
    nontrivial = [r for r in rows if r["log_order"] > 0]
    assert max(r["i"] for r in nontrivial) == 4
    code, out, _ = run_cli(["series", "--k", "3", "--kind", "lowerp"])
    rows = json.loads(out)
    assert max(r["i"] for r in rows if r["log_order"] > 0) == 15


def test_density_csv_and_json():
    code, out, _ = run_cli(["density", "--k", "1", "--kind", "m",
                            "--target", "Z", "--format", "csv"])
    assert code == 0 and ",3,6,3/6," in out
    code, out, _ = run_cli(["density", "--k", "3", "--kind", "m", "--target", "Z"])
    obj = json.loads(out)
    assert obj["points"][-1]["ratio_exact"] == "36/47"
    code, out, _ = run_cli(["density", "--k", "2", "--kind", "gamma", "--target", "full"])
    obj = json.loads(out)
    assert all(p["num"] == p["den"] for p in obj["points"])


def test_density_seed_file(tmp_path, ctx2):
    good = tmp_path / "seeds.txt"
    good.write_text("# a shift orbit seed\n" + pair_gen(ctx2, 0, 1).text() + "\n",
                    encoding="ascii")
    code, out, _ = run_cli(["density", "--k", "2", "--kind", "m",
                            "--target", "seed", "--seed-file", str(good)])
    assert code == 0
    obj = json.loads(out)
    assert obj["points"][-1]["num"] == 4  # orbit of a near pair

    bad = tmp_path / "bad.txt"
    bad.write_text("x^0 y:0 s:0 c:zz\n", encoding="ascii")
    code, _, err = run_cli(["density", "--k", "2", "--kind", "m",
                            "--target", "seed", "--seed-file", str(bad)])
    assert code == 2 and "line 1" in err

    signed = tmp_path / "signed.txt"
    signed.write_text("# a sign on the top exponent\n"
                      + pair_gen(ctx2, 0, 1).text().replace("x^0", "x^+0") + "\n",
                      encoding="ascii")
    code, _, err = run_cli(["density", "--k", "2", "--kind", "m",
                            "--target", "seed", "--seed-file", str(signed)])
    assert code == 2 and "line 2" in err and "top exponent" in err

    # more digits than int() converts: a plain decimal out of range
    long_top = tmp_path / "long_top.txt"
    long_top.write_text(pair_gen(ctx2, 0, 1).text().replace("x^0", "x^" + "1" * 5000) + "\n",
                        encoding="ascii")
    code, _, err = run_cli(["density", "--k", "2", "--kind", "m",
                            "--target", "seed", "--seed-file", str(long_top)])
    assert code == 2 and "line 1" in err
    assert f"top exponent {'1' * 5000} out of range for level 2" in err

    noncentral = tmp_path / "noncentral.txt"
    noncentral.write_text(ctx2.y().text() + "\n", encoding="ascii")
    code, _, err = run_cli(["density", "--k", "2", "--kind", "m",
                            "--target", "seed", "--seed-file", str(noncentral)])
    assert code == 2 and "centre block" in err


@pytest.mark.parametrize("k,ngens", [(1, 6), (2, 15)])
def test_export_presentation_counts(k, ngens):
    code, out, _ = run_cli(["export-presentation", "--k", str(k), "--check"])
    assert code == 0
    gens = [line for line in out.splitlines() if line.startswith("gen ")]
    assert len(gens) == ngens


def test_presentation_round_trip(ctx2):
    text = export_presentation(ctx2)
    rep = verify_presentation(text)
    assert rep["ok"] and rep["level"] == 2
    level, gens, rels = parse_presentation(text)
    assert level == 2 and len(gens) == 15 and len(rels) == rep["relations"]


def test_presentation_parse_errors():
    with pytest.raises(PresentationError):
        parse_presentation("")
    with pytest.raises(PresentationError):
        parse_presentation("pcgroup level=x\n")
    with pytest.raises(PresentationError) as err:
        parse_presentation("pcgroup level=1\ngen x\nrel x = 1\n")
    assert "line 3" in str(err.value)
    # a relation may only name declared generators
    for text, line, name in (("pcgroup level=1\ngen x\nrel q^2 = 1\n", 3, "q"),
                             ("pcgroup level=1\ngen x\ngen y0\nrel [y0,zz] = 1\n", 4, "zz")):
        with pytest.raises(PresentationError) as err:
            verify_presentation(text)
        assert f"line {line}: undeclared generator '{name}'" == str(err.value)


def _level1_gen_lines():
    return [line for line in export_presentation(get_context(1)).splitlines()
            if line.startswith("gen ")]


def test_presentation_generator_name_mismatch_names_its_line():
    lines = _level1_gen_lines()
    lines[2] = "gen q"
    with pytest.raises(PresentationError) as err:
        verify_presentation("\n".join(["pcgroup level=1"] + lines) + "\n")
    assert str(err.value) == "line 4: generator 3 of level 1 is 'y1', not 'q'"


def test_presentation_extra_generator_names_its_line():
    lines = _level1_gen_lines() + ["gen y2", "gen y3"]
    with pytest.raises(PresentationError) as err:
        verify_presentation("\n".join(["pcgroup level=1"] + lines) + "\n")
    assert str(err.value) == "line 8: extra generator 'y2': level 1 has 6"


def test_presentation_short_generator_list_names_the_next_line():
    with pytest.raises(PresentationError) as err:
        verify_presentation("pcgroup level=2\ngen x\n")
    assert str(err.value) == "line 3: level 2 has 15 generators, not 1"
    text = "pcgroup level=1\ngen x\ngen y0\n\nrel y0^2 = 1\n"
    with pytest.raises(PresentationError) as err:
        parse_presentation(text)
    assert str(err.value) == "line 4: level 1 has 6 generators, not 2"


@pytest.mark.parametrize("header, message", [
    ("pcgroup level=\u0663", "level is not a plain decimal integer"),
    ("pcgroup level=+2", "level is not a plain decimal integer"),
    ("pcgroup level=0_2", "level is not a plain decimal integer"),
    ("pcgroup level=02", "level is not a plain decimal integer"),
    ("pcgroup level=0", "level 0 is outside 1..4"),
    ("pcgroup level=5", "level 5 is outside 1..4"),
    ("pcgroup level=9", "level 9 is outside 1..4"),
    # more digits than int() converts: a plain decimal out of range, with the line
    pytest.param("pcgroup level=" + "1" * 5000, f"level {'1' * 5000} is outside 1..4",
                 id="5000-digits"),
])
def test_presentation_header_level_is_plain_decimal_in_range(header, message):
    with pytest.raises(PresentationError) as err:
        verify_presentation(header + "\ngen x\n")
    assert str(err.value) == f"line 1: {message}"


@pytest.mark.parametrize("exp", ["+2", "-2", "0_2", "02", "\u0662",
                                 pytest.param("1" * 5000, id="5000-digits")])
def test_presentation_exponent_is_plain_decimal(exp):
    text = f"pcgroup level=1\ngen x\nrel x^{exp} = 1\n"
    with pytest.raises(PresentationError) as err:
        parse_presentation(text)
    assert str(err.value) == f"line 3: bad exponent {exp!r}"


# sha256 of `verify --k K --all --format json` (with --deep at K = 4): every
# claim's status and details are pinned byte for byte, so a change to a
# runner that alters its report must update the digest on purpose
VERIFY_JSON_SHA256 = {
    1: "4b2af64a13691349e10202e6d71bd1fb170c1069d58715a388e7da5d4710bd4e",
    2: "30f853effd066678287eaa274389955b132226bd3c4407f82c4c97a75a3d8f36",
    3: "2d11607ea1011cf37068368e7055aa62c5de41f790343785ea03a75bd841114e",
    4: "345297f24e5c7b822db891b6ae570be2c083c833d488ebf9af8facfdd54d3d15",
}


@pytest.mark.parametrize("k", sorted(VERIFY_JSON_SHA256))
def test_verify_json_is_pinned(k):
    code, out, _ = run_cli(["verify", "--k", str(k), "--all", "--format", "json"]
                           + (["--deep"] if k == 4 else []))
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == VERIFY_JSON_SHA256[k]


# sha256 of the six kinds' exports, gamma to m, concatenated in that order
# (with --deep at K = 4): `series --k K --kind KIND` and `density --k K
# --kind KIND --target Z`, pinned byte for byte like the verify report
EXPORT_KINDS = ("gamma", "lowerp", "frattini", "dimension", "power", "m")
EXPORT_SHA256 = {
    ("series", 1): "f41a035c780ed772882be54d893210caa16ef548e32deb3df691107205e85818",
    ("series", 2): "cab079af8324a7c5ba24714721b984b01906c7ab218ad80002a026a8b0441d37",
    ("series", 3): "d14ccb46b8ae6bff1fba0a4153bbe374ea8f255b393ab3e1a0fe4895045d0344",
    ("series", 4): "09aa6360bb1fb87d2eea26477b3683372e940d46bb242ea4f8b96ec4d6ac39d5",
    ("density", 1): "02d8865fa0ef29a7b24ce07c0f9c06b8dbe51917116db29529f58c5a86c2b6c3",
    ("density", 2): "28b0b2a9be3bdcb876173e2ba8f9e4b9c5cadb66e7407497b415052507518e25",
    ("density", 3): "68ff97741744b2285495af54d0af8b6f95ca3235146846e1a1c16671791c3af7",
    ("density", 4): "d3927d764ce7eceb8a2ffaea0ddd65cb12fd4a8636a8376df2bbd21c933f5355",
}


@pytest.mark.parametrize("command,k", sorted(EXPORT_SHA256))
def test_series_and_density_exports_are_pinned(command, k):
    digest = hashlib.sha256()
    for kind in EXPORT_KINDS:
        code, out, _ = run_cli([command, "--k", str(k), "--kind", kind]
                               + (["--target", "Z"] if command == "density" else [])
                               + (["--deep"] if k == 4 else []))
        assert code == 0
        digest.update(out.encode("ascii"))
    assert digest.hexdigest() == EXPORT_SHA256[command, k]


def test_oracle_command():
    code, out, _ = run_cli(["oracle"])
    assert code == 0
    assert "elements 64" in out and "table_equal true" in out


def test_oracle_built_once_for_claim_and_command(monkeypatch):
    # the claim and the command read one memoised report of a fresh context
    from wrsp import engine, oracle

    built = []
    build_oracle = oracle.build_oracle

    def counting_build():
        built.append(1)
        return build_oracle()

    monkeypatch.setattr(engine, "_CONTEXTS", {})
    monkeypatch.setattr(oracle, "build_oracle", counting_build)
    (res,) = run_claims(1, ["oracle-k1"])
    assert res.status == "pass"
    code, out, _ = run_cli(["oracle"])
    assert code == 0 and "table_equal true" in out
    assert len(built) == 1


def test_cli_outputs_are_deterministic(tmp_path):
    pairs = [
        ["series", "--k", "2", "--kind", "dimension"],
        ["series", "--k", "2", "--kind", "gamma", "--format", "csv"],
        ["density", "--k", "2", "--kind", "m", "--target", "Z"],
        ["verify", "--k", "1", "--all", "--format", "json"],
        ["export-presentation", "--k", "2"],
    ]
    for argv in pairs:
        c1, o1, _ = run_cli(argv)
        c2, o2, _ = run_cli(argv)
        assert (c1, o1) == (c2, o2)
        out_file = tmp_path / "out.txt"
        c3, _, _ = run_cli(argv + ["--out", str(out_file)])
        assert c3 == c1
        assert out_file.read_text(encoding="ascii") == o1
