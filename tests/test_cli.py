import json
import os
import subprocess
import sys
import time

import pytest

from conftest import golden
import depth_probe
from differential import CAPTURE_PROBES, HOIST_PROBES, KIND_PROBES, relation_premises
import orbi_forge
from orbi_forge import check_spec, corpus_source, parse_spec
from orbi_forge.cli import run
from orbi_forge.syntax import AtomApp, Const, Var
from orbi_forge.translate import translate_spec


@pytest.fixture()
def corpus_file(tmp_path):
    p = tmp_path / "eq.orbi"
    p.write_text(corpus_source(), encoding="utf-8")
    return str(p)


def test_check_corpus_exits_zero(corpus_file, capsys):
    assert run(["check", corpus_file]) == 0
    assert capsys.readouterr().err == ""


def test_translate_writes_output(corpus_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code = run(["translate", "--target", "ab", "--out-dir", str(out_dir), corpus_file])
    assert code == 0
    out = (out_dir / "eq.ab.out").read_text(encoding="utf-8")
    assert golden("ae_l.ab.golden").strip() in out
    assert golden("reflG.ab.golden").strip() in out


def test_translate_all_targets(corpus_file, tmp_path):
    for target in ("ab", "hy", "bel", "tw"):
        assert run(["translate", "--target", target, "--out-dir", str(tmp_path), corpus_file]) == 0
        assert (tmp_path / f"eq.{target}.out").exists()


def test_missing_input_is_usage_error(capsys):
    assert run(["check", "/nonexistent.orbi"]) == 2
    assert "no such input" in capsys.readouterr().err


def test_unwritable_output_is_usage_error(corpus_file, tmp_path, capsys):
    missing = tmp_path / "missing"
    assert run(["translate", "--target", "ab", "--out-dir", str(missing), corpus_file]) == 2
    usage = [line for line in capsys.readouterr().err.splitlines() if "[W-" not in line]
    assert len(usage) == 1 and usage[0].startswith(f"orbi: cannot write {missing}")
    assert not missing.exists()


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 2


def test_unknown_target_is_usage_error(corpus_file, capsys):
    assert run(["translate", "--target", "coq", corpus_file]) == 2


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(["--help"], 0, id="help"),
        pytest.param(["check", "--help"], 0, id="command-help"),
        pytest.param(["translate", "--target=ab", "--out-dir=OUT", "FILE"], 0, id="opt=value"),
        pytest.param(["check", "--", "FILE"], 0, id="double-dash"),
        pytest.param(["translate", "FILE", "--target", "ab", "--out-dir", "OUT"], 0, id="opts-last"),
        pytest.param(["translate", "--out-dir", "OUT", "FILE"], 2, id="no-target"),
        pytest.param(["check", "--bogus", "FILE"], 2, id="unknown-option"),
        pytest.param(["check"], 2, id="no-file"),
        pytest.param(["frob", "FILE"], 2, id="unknown-command"),
        pytest.param(["translate", "--target", "ab", "FILE", "--out-dir"], 2, id="option-without-value"),
    ],
)
def test_argv_contract(argv, code, corpus_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = [a.replace("OUT", str(out_dir)).replace("FILE", corpus_file) for a in argv]
    assert run(argv) == code
    out, err = capsys.readouterr()
    if "--help" in argv:
        assert out.startswith("usage:") and err == ""
    elif code == 2:
        # the usage, then one line that says what is wrong
        assert "usage:" in err and err.splitlines()[-1].startswith("orbi")
    else:
        assert "[E-" not in err
    assert (out_dir / "eq.ab.out").exists() is (code == 0 and argv[0] == "translate")


def test_argv_costs_under_100_calls(corpus_file, tmp_path, monkeypatch):
    # reading argv is one loop: no parser objects, no help formatting
    import orbi_forge.cli as cli

    events = []

    def profile(frame, event, arg):
        if event == "call" or event == "c_call":
            events.append(frame.f_code.co_name if event == "call" else arg)

    def parse_spec(text, parse=cli.parse_spec):
        sys.setprofile(None)
        return parse(text)

    monkeypatch.setattr(cli, "parse_spec", parse_spec)
    sys.setprofile(profile)
    try:
        code = cli.run(["translate", "--target", "ab", "--out-dir", str(tmp_path), corpus_file])
    finally:
        sys.setprofile(None)
    assert code == 0
    assert len(events) < 100, events


def test_bad_spec_reports_diagnostic_line(tmp_path, capsys):
    p = tmp_path / "bad.orbi"
    p.write_text("%% Syntax\nlam: tm ->.\n", encoding="utf-8")
    assert run(["check", str(p)]) == 1
    err = capsys.readouterr().err
    assert f"{p}:2:" in err
    assert "[E-PARSE]" in err


def test_structured_diagnostics(tmp_path, capsys):
    p = tmp_path / "bad.orbi"
    p.write_text("%% Syntax\nlam: tm ->.\n", encoding="utf-8")
    assert run(["check", "--structured", str(p)]) == 1
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert records[0]["code"] == "E-PARSE"
    assert records[0]["line"] == 2


_SHAPES_SIG = "%% Syntax\ntm: type.\nc: tm.\n\n%% Judgments\nj: tm -> type.\nk: tm -> type.\n\n"


@pytest.mark.parametrize(
    "body, decl, code",
    [
        pytest.param("%% Schemas\nschema xG = block (x:tm);\n", "schema", "E-EMPTY", id="schema"),
        pytest.param(
            "%% Schemas\nschema xG = block (x:tm);\n\n%% Definitions\n"
            "inductive R : {g:xG} prop =\n| R_nl: R []\n| R_cs: R [g] -> R [g, b:block (x:tm)];\n\n"
            "%% Directives\n%% wf [ab] in tm\n%% explicit [ab] in xG\n",
            "inductive",
            "E-EMPTY",
            id="relation",
        ),
        pytest.param(
            "%% Schemas\nschema xG = block (x:tm -> tm);\n\n"
            "%% Directives\n%% wf [ab] in tm\n%% explicit [ab] in xG\n",
            "schema",
            "E-SHAPE",
            id="higher-order-entry",
        ),
        pytest.param(
            "%% Schemas\nschema xG = block (x:tm, u:{y:tm} j y);\n", "schema", "E-SHAPE", id="pi-entry"
        ),
    ],
)
def test_translation_error_located_at_its_declaration(body, decl, code, tmp_path, capsys):
    p = tmp_path / "shape.orbi"
    text = _SHAPES_SIG + body
    p.write_text(text, encoding="utf-8")
    argv = ["translate", "--structured", "--target", "ab", "--out-dir", str(tmp_path), str(p)]
    assert run(argv) == 1
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    (error,) = [r for r in records if r["severity"] == "error"]
    assert error["code"] == code
    line = next(i for i, l in enumerate(text.splitlines(), 1) if l.startswith(decl))
    assert (error["line"], error["col"]) == (line, 1)


@pytest.mark.parametrize("target", ["ab", "hy"])
@pytest.mark.parametrize(
    "text, clause",
    [
        # G -> {x:A} B, with x not free in G, is the clause {x:A} G -> B; the
        # first passes check with lint's L3
        pytest.param(
            _SHAPES_SIG + "%% Rules\nr: j c -> {x:tm} j c.\n", "j c :- j c.", id="pi-after-premise"
        ),
        pytest.param(
            HOIST_PROBES["pi-after-premise"], "j (f M x) :- j M.", id="pi-after-schematic-premise"
        ),
        pytest.param(
            HOIST_PROBES["level0-arrow-after-premise"], "j (f M c) :- j M.", id="level0-arrow-after-premise"
        ),
        # a clause variable avoids the signature, as every generated name does
        pytest.param(
            HOIST_PROBES["rule-binder-named-like-constant"],
            "j (lam (x\\ c')) :- j c'.",
            id="binder-named-like-constant",
        ),
        # a Pi over a judgment is a premise, wherever it stands
        pytest.param(HOIST_PROBES["judgment-pi"], "j (f c c) :- j c.", id="judgment-pi"),
        pytest.param(
            HOIST_PROBES["judgment-pi-after-premise"],
            "j c :- j c, j (f c c).",
            id="judgment-pi-after-premise",
        ),
    ],
)
def test_rule_binder_is_a_clause_variable(text, clause, target, tmp_path, capsys):
    p = tmp_path / "rule.orbi"
    p.write_text(text, encoding="utf-8")
    assert run(["translate", "--target", target, "--out-dir", str(tmp_path), str(p)]) == 0
    assert "[E-" not in capsys.readouterr().err
    assert (tmp_path / f"rule.{target}.out").read_text(encoding="utf-8") == clause + "\n"


_INSIDE = (
    "[E-LEVEL] the kind 'type' cannot appear inside a type; "
    "a family may only be indexed by level-0 terms"
)
_FOUND_KIND = "[E-PARSE] expected a type, found a kind"


@pytest.mark.parametrize(
    "probe, diag, printed",
    [
        ("kind-family-domain", "6:1: " + _INSIDE, "j: (tm -> type) -> type."),
        ("kind-type-domain", "6:1: " + _INSIDE, "j: type -> type."),
        ("kind-pi-domain", "6:1: " + _INSIDE, "j: {x:tm -> type} type."),
        ("kind-rule-domain", "9:1: " + _INSIDE, "r: type -> j c0."),
        ("kind-parenthesised", None, "j: tm -> tm -> type."),
        ("kind-back-arrow", None, "j: tm -> type."),
        (
            "kind-vacuous-pi",
            "6:1: [L3] Pi-bound variable 'x' does not occur in the kind body",
            "j: {x:tm} type.",
        ),
        (
            "kind-vacuous-rule-pi",
            "9:1: [L3] Pi-bound variable 'x' does not occur in the body",
            "r: {x:tm} j c0.",
        ),
        (
            "kind-syntax-indexed",
            "3:1: [E-LEVEL] syntax-level family 'f' must have kind 'type'",
            "f: tm -> type.",
        ),
        (
            "kind-judgment-constant",
            "6:1: [E-LEVEL] only judgment (type family) declarations may appear in the "
            "Judgments section",
            "j: tm.",
        ),
        (
            "kind-rules-family",
            "9:1: [E-LEVEL] type families may not be declared in the Rules section",
            "r: j c0 -> type.",
        ),
        ("kind-block-entry", "9:23: " + _FOUND_KIND, None),
        ("kind-quantifier", "7:16: " + _FOUND_KIND, None),
    ],
)
def test_kind_positions(probe, diag, printed, tmp_path, capsys):
    # the diagnostic of each probe under check and lint, if any, and under
    # fmt its parse error or the declaration as printed
    p = tmp_path / "kind.orbi"
    p.write_text(KIND_PROBES[probe], encoding="utf-8")
    want = [f"{p}:{diag}"] if diag else []
    for cmd in ("check", "lint"):
        assert run([cmd, str(p)]) == (1 if diag and "[E-" in diag else 0), cmd
        assert capsys.readouterr().err.splitlines() == want, cmd
    assert run(["fmt", str(p)]) == (0 if printed else 1)
    out, err = capsys.readouterr()
    if printed:
        assert (out.splitlines()[-1], err) == (printed, "")
    else:
        assert err.splitlines() == want


def test_conflict_located_at_the_directive_completing_it(tmp_path, capsys):
    p = tmp_path / "conf.orbi"
    text = _SHAPES_SIG + (
        "%% Rules\nr: j c -> k c.\n\n%% Directives\n"
        "%% explicit [ab] in r\n%% wf [ab] in tm\n%% implicit [hy,ab] in r\n%% implicit [ab] in r\n"
    )
    p.write_text(text, encoding="utf-8")
    assert run(["check", str(p)]) == 1
    line = text.splitlines().index("%% implicit [hy,ab] in r") + 1
    assert capsys.readouterr().err == (
        f"{p}:{line}:1: [E-CONFLICT] rule r is marked both explicit and implicit for 'ab'\n"
    )


def test_lint_warnings_and_werror(tmp_path, capsys):
    p = tmp_path / "warn.orbi"
    p.write_text("%% Syntax\ntm: type.\nk: {x:tm} tm.\n", encoding="utf-8")
    assert run(["lint", str(p)]) == 0
    assert "[L3]" in capsys.readouterr().err
    assert run(["lint", "--werror", str(p)]) == 1


def test_fmt_is_a_fixpoint(corpus_file, tmp_path, capsys):
    assert run(["fmt", corpus_file]) == 0
    once = capsys.readouterr().out
    p = tmp_path / "fmt.orbi"
    p.write_text(once, encoding="utf-8")
    assert run(["fmt", str(p)]) == 0
    assert capsys.readouterr().out == once


def test_exit_codes_deterministic(corpus_file):
    assert run(["check", corpus_file]) == run(["check", corpus_file])


def test_color_env_respected(tmp_path, capsys, monkeypatch):
    p = tmp_path / "bad.orbi"
    p.write_text("%% Syntax\nlam: tm ->.\n", encoding="utf-8")
    monkeypatch.setenv("ORBI_COLOR", "always")
    run(["check", str(p)])
    assert "\x1b[31m" in capsys.readouterr().err
    monkeypatch.setenv("ORBI_COLOR", "never")
    run(["check", str(p)])
    assert "\x1b[31m" not in capsys.readouterr().err


def test_multiple_inputs_processed(tmp_path, capsys):
    good = tmp_path / "good.orbi"
    good.write_text(corpus_source(), encoding="utf-8")
    bad = tmp_path / "bad.orbi"
    bad.write_text("%% Syntax\nlam: tm ->.\n", encoding="utf-8")
    assert run(["check", str(good), str(bad)]) == 1
    err = capsys.readouterr().err
    assert "bad.orbi" in err and "good.orbi" not in err


@pytest.mark.parametrize("cmd", [["check"], ["lint"], ["fmt"], ["translate", "--target", "ab"]])
def test_non_utf8_input_is_an_encoding_diagnostic(cmd, tmp_path, capsys):
    bad = tmp_path / "bad.orbi"
    bad.write_bytes(b"tm: type.\r\nab \xff\n")
    good = tmp_path / "good.orbi"
    good.write_text(corpus_source(), encoding="utf-8")
    argv = cmd + ["--out-dir", str(tmp_path)] if cmd[0] == "translate" else cmd
    assert run(argv + ["--structured", str(bad), str(good)]) == 1
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert all(r["severity"] == "warning" for r in records if r["path"] == str(good))
    assert [r for r in records if r["path"] == str(bad)] == [
        {
            "path": str(bad),
            "line": 2,
            "col": 4,
            "code": "E-ENCODING",
            "severity": "error",
            "message": "input is not UTF-8: byte 0xff (invalid start byte)",
        }
    ]
    if cmd[0] == "translate":
        assert (tmp_path / "good.ab.out").exists()
        assert not (tmp_path / "bad.ab.out").exists()


@pytest.mark.parametrize("cmd", [["check"], ["lint"], ["fmt"], ["translate", "--target", "ab"]])
def test_leading_byte_order_mark_is_dropped(cmd, tmp_path, capsys):
    # a file saved with a UTF-8 byte-order mark behaves as it does without one
    runs = []
    for name, text in (("plain", corpus_source()), ("bom", "\ufeff" + corpus_source())):
        (tmp_path / name).mkdir()
        p = tmp_path / name / "eq.orbi"
        p.write_text(text, encoding="utf-8")
        argv = cmd + ["--out-dir", str(p.parent)] if cmd[0] == "translate" else cmd
        code = run(argv + [str(p)])
        out, err = capsys.readouterr()
        written = (p.parent / "eq.ab.out").read_bytes() if cmd[0] == "translate" else None
        runs.append((code, out, err.replace(str(p), "eq.orbi"), written))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_byte_order_mark_past_the_start_is_illegal(tmp_path, capsys):
    p = tmp_path / "bom.orbi"
    p.write_text("\ufeff\ufeff%% Syntax\ntm: type.\n", encoding="utf-8")
    assert run(["check", "--structured", str(p)]) == 1
    (record,) = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert (record["line"], record["col"], record["code"]) == (1, 1, "E-LEX")


_DEEP_RULE = "r: j " + "(s " * 1000 + "z" + ")" * 1000 + "."


@pytest.mark.parametrize("cmd", [["check"], ["lint"], ["fmt"], ["translate", "--target", "ab"]])
def test_deep_nesting_is_a_depth_diagnostic(cmd, tmp_path, capsys):
    deep = tmp_path / "deep.orbi"
    deep.write_text(
        "%% Syntax\nt: type.\nz: t.\ns: t -> t.\n\n%% Judgments\nj: t -> type.\n\n"
        f"%% Rules\n{_DEEP_RULE}\n",
        encoding="utf-8",
    )
    good = tmp_path / "good.orbi"
    good.write_text(corpus_source(), encoding="utf-8")
    argv = cmd + ["--out-dir", str(tmp_path)] if cmd[0] == "translate" else cmd
    assert run(argv + [str(deep), str(good)]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in err and "RecursionError" not in err
    assert [line for line in err.splitlines() if "[E-DEPTH]" in line] == [
        f"{deep}:1:1: [E-DEPTH] input nests too deeply to process"
    ]
    assert not [line for line in err.splitlines() if str(good) in line and "[E-" in line]
    if cmd[0] == "translate":
        assert (tmp_path / "good.ab.out").exists()
        assert not (tmp_path / "deep.ab.out").exists()
    if cmd[0] == "fmt":
        assert "%% Rules" in out


@pytest.mark.parametrize(
    "rule",
    [
        # a redex that mentions no schematic is typed before it is contracted,
        # so the untypable one ends in an E-TYPE at its rule, not in E-DEPTH
        r"r: j ((\x. x x) (\x. x x)) c0.",
    ],
)
def test_rule_ends_in_one_diagnostic(rule, tmp_path, capsys):
    p = tmp_path / "rule.orbi"
    p.write_text(
        f"%% Syntax\nt: type.\nc0: t.\n\n%% Judgments\nj: t -> t -> type.\n\n%% Rules\n{rule}\n",
        encoding="utf-8",
    )
    assert run(["check", str(p)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [f"{p}:9:1: [E-TYPE] cannot infer the type of a bare lambda"]


def test_level0_premise_as_arrow_or_pi_is_one_binder(tmp_path, capsys):
    # lf stores the arrow form as the Pi form: one exit code under every
    # command and one ab/hy clause; lint reads the source, so only the Pi
    # form's vacuous x gets L3
    sig = "%% Syntax\ntm: type.\nc: tm.\n\n%% Judgments\nj: tm -> type.\n\n%% Rules\n"
    out = ["--out-dir", str(tmp_path)]
    commands = [["check"], ["lint"], ["fmt"]]
    commands += [["translate", "--target", t, *out] for t in ("ab", "hy", "bel", "tw")]
    seen = []
    for rule in ("t: (tm -> j c) -> j c.", "t: ({x:tm} j c) -> j c."):
        p = tmp_path / "premise.orbi"
        p.write_text(sig + rule + "\n", encoding="utf-8")
        codes = [run(argv + [str(p)]) for argv in commands]
        capsys.readouterr()
        clauses = [(tmp_path / f"premise.{t}.out").read_text(encoding="utf-8") for t in ("ab", "hy")]
        run(["lint", str(p)])
        l3 = [line for line in capsys.readouterr().err.splitlines() if "[L3]" in line]
        seen.append((codes, clauses, l3))
    (arrow_codes, arrow_clauses, arrow_l3), (pi_codes, pi_clauses, pi_l3) = seen
    assert arrow_codes == pi_codes == [0] * 7
    assert arrow_clauses == pi_clauses
    assert "j c :- pi x\\ j c." in arrow_clauses[0]
    assert arrow_l3 == [] and len(pi_l3) == 1


def test_rule_used_as_term_is_no_clause(tmp_path, capsys):
    # a Pi-bound variable applied to a rule: no term is level-1, so a rule
    # is none, and ab writes no clause with it.  A variable of a level-1
    # type is no binder but a premise, which must end in a judgment
    p = tmp_path / "rule.orbi"
    p.write_text(
        "%% Syntax\nt: type.\nc0: t.\n\n%% Judgments\nj: t -> t -> type.\n\n%% Rules\n"
        "r0: {x:t} j x x.\nr1: j c0 c0 -> j c0 c0.\nr: {f: t -> t} j (f (r0 c0)) c0.\n",
        encoding="utf-8",
    )
    assert run(["check", str(p)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"{p}:11:1: [E-TYPE] rule 'r0' used as a term"]
    assert run(["translate", "--target", "ab", "--out-dir", str(tmp_path), str(p)]) == 1
    assert not (tmp_path / "rule.ab.out").exists()


def test_theorem_redex_discarding_a_divergent_argument_translates(tmp_path):
    # theorem terms are normalised without being typed
    p = tmp_path / "thm.orbi"
    p.write_text(
        "%% Syntax\ntm: type.\nc: tm.\n\n%% Judgments\nj: tm -> type.\n\n%% Rules\nr: j c.\n\n"
        "%% Theorems\ntheorem t: {M:tm} (\\x. c) ((\\y. y y) (\\y. y y)) = c;\n",
        encoding="utf-8",
    )
    assert run(["translate", "--target", "ab", "--out-dir", str(tmp_path), str(p)]) == 0
    assert "forall M, c = c." in (tmp_path / "thm.ab.out").read_text(encoding="utf-8")


# One-rule specs nested ``n`` levels deep, at about 90% of the depth each
# shape reached when the parser set the limits (493, 197, 491, 986 and 986
# levels), so that a walker that spends more stack per level shows here.  The
# parser sets none of them now (test_parser.py::test_deep_rules_parse).
# Re-probed on CPython 3.11 through ``check``, ``translate`` and ``fmt``, the
# first three shapes reach 494, 329 and 494 levels: the LF checker sets the
# limit of the first two (``lf._check``, and ``pretty.term_str`` in ``fmt``
# at the same 329 for the lambdas), the printer that of the redexes
# (``pretty.term_str`` in ``fmt``).  ``lf.check_tp`` walks an arrow or Pi
# chain in a loop, so it no longer limits the last two: both pass all seven
# commands at 1,000 levels, and the arrows at 10,000.  The Pi prefix, whose
# binders are all named ``x``, is slow to translate for ab and hy instead
# (``translate_rule`` primes each clash: 3 s at 1,000 levels).
_DEPTH_SIG = (
    "%% Syntax\ntm: type.\nc: tm.\napp: tm -> tm -> tm.\nlam: (tm -> tm) -> tm.\n\n"
    "%% Judgments\nj: tm -> type.\n\n%% Rules\n"
)


@pytest.mark.parametrize(
    "rule",
    [
        pytest.param("r: j " + "(app c " * 443 + "c" + ")" * 443 + ".", id="app-args"),
        pytest.param("r: j " + "(lam (\\x. " * 177 + "c" + "))" * 177 + ".", id="lam"),
        pytest.param("r: j " + "((\\x. x) " * 441 + "c" + ")" * 441 + ".", id="redexes"),
        pytest.param("r: " + "j M -> " * 887 + "j M.", id="arrow-schematic"),
        pytest.param("r: " + "{x:tm} " * 887 + "j x.", id="pi-prefix"),
        # families_in_tp follows a Pi domain's arrows in a loop
        pytest.param("r: {f: " + "tm -> " * 5000 + "tm} j c.", id="pi-domain-arrows"),
    ],
)
def test_deep_rule_shapes_exit_zero(rule, tmp_path, capsys):
    p = tmp_path / "deep.orbi"
    p.write_text(_DEPTH_SIG + rule + "\n", encoding="utf-8")
    out = ["--out-dir", str(tmp_path)]
    commands = [["check"], ["lint"], ["fmt"]]
    commands += [["translate", "--target", t, *out] for t in ("ab", "hy", "bel", "tw")]
    for argv in commands:
        assert run(argv + [str(p)]) == 0, argv
        assert "[E-" not in capsys.readouterr().err, argv


@pytest.mark.parametrize(
    "build",
    [depth_probe.SHAPES["((( … tm … ))) as a type"], depth_probe.pi_domain],
    ids=["type", "pi-domain"],
)
def test_types_in_deep_parentheses_pass_every_command(build):
    # the parser keeps a type's open parentheses and Π domains on a stack
    assert depth_probe.failures(build(10_000)) == []


def test_deeply_parenthesised_theorem_checks(tmp_path, capsys):
    # each level of parentheses costs the proposition parser two frames
    p = tmp_path / "deep.orbi"
    theorem = "theorem t: " + "(" * 400 + "a" + ")" * 400 + " = a;"
    p.write_text(f"%% Syntax\ntm: type.\na: tm.\n\n%% Theorems\n{theorem}\n", encoding="utf-8")
    assert run(["check", str(p)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "statement",
    [
        pytest.param("{M:tm} " * 3000 + "true", id="quantifiers"),
        pytest.param("true -> " * 3000 + "true", id="implications"),
        pytest.param("{M: " + "tm -> " * 5000 + "tm} true", id="quantifier-arrows"),
        pytest.param(
            " & ".join(["true"] * 3000) + " -> " + " || ".join(["true"] * 3000),
            id="conjunctions",
        ),
    ],
)
def test_long_theorem_checks(statement, tmp_path, capsys):
    # scope checking walks a proposition with an explicit stack, and the
    # printer folds a chain of one connective in a loop
    p = tmp_path / "long.orbi"
    text = f"%% Syntax\ntm: type.\n\n%% Theorems\ntheorem t: {statement};\n"
    p.write_text(text, encoding="utf-8")
    assert run(["check", str(p)]) == 0
    assert run(["fmt", str(p)]) == 0
    for target in ("ab", "hy", "bel", "tw"):
        assert run(["translate", "--target", target, "--out-dir", str(tmp_path), str(p)]) == 0
    assert capsys.readouterr().err == ""


def test_long_pi_chain_formats(tmp_path, capsys):
    # the printer names a chain's binders in one pass and prints it in a loop
    binders = " ".join(f"{{x{i}:t}}" for i in range(1000))
    text = f"%% Syntax\nt: type.\n\n%% Judgments\nj: t -> type.\n\n%% Rules\nr: {binders} j x0.\n"
    p = tmp_path / "flat.orbi"
    p.write_text(text, encoding="utf-8")
    assert run(["fmt", str(p)]) == 0
    assert capsys.readouterr() == (text, "")


def _flat_rule(n):
    binders = " ".join(f"{{x{i}:t}}" for i in range(n))
    return f"%% Syntax\nt: type.\n\n%% Judgments\nj: t -> type.\n\n%% Rules\nr: {binders} j x0.\n"


def _clashing_rule(n):
    # every binder is named x, so ab and hy prime each one
    return f"%% Syntax\nt: type.\n\n%% Judgments\nj: t -> type.\n\n%% Rules\nr: {'{x:t} ' * n}j x.\n"


def _long_kind(n):
    binders = " ".join(f"{{x{i}:t}}" for i in range(n))
    return (
        f"%% Syntax\nt: type.\nc: t.\n\n%% Judgments\nj: {binders} type.\n\n"
        f"%% Rules\nr: j{' c' * n}.\n"
    )


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(_flat_rule(1000), id="rule-1000"),
        pytest.param(_flat_rule(10000), id="rule-10000"),
        pytest.param(_long_kind(1000), id="kind-1000"),
        pytest.param(_clashing_rule(1000), id="clash-1000"),
        pytest.param(relation_premises(1000), id="premises-1000"),
        pytest.param(relation_premises(10000), id="premises-10000"),
    ],
)
def test_long_pi_chains_pass_every_command(text, tmp_path, capsys):
    # check_tp pushes the domains of a chain, a type's or a kind's, onto one
    # context in a loop, and a relation clause keeps its premises in a tuple
    p = tmp_path / "long.orbi"
    p.write_text(text, encoding="utf-8")
    out = ["--out-dir", str(tmp_path)]
    commands = [["check"], ["lint"], ["fmt"]]
    commands += [["translate", "--target", t, *out] for t in ("ab", "hy", "bel", "tw")]
    for argv in commands:
        assert run(argv + [str(p)]) == 0, argv
        assert "[E-" not in capsys.readouterr().err, argv


@pytest.mark.parametrize("target", ["ab", "hy"])
def test_clashing_pi_binders_translate_in_linear_time(target, tmp_path, capsys):
    # priming a binder resumes where the last binder of its hint stopped; a
    # call count cannot show this, since `in` on a list makes no call
    p = tmp_path / "clash.orbi"
    p.write_text(_clashing_rule(1000), encoding="utf-8")
    start = time.perf_counter()
    assert run(["translate", "--target", target, "--out-dir", str(tmp_path), str(p)]) == 0
    assert time.perf_counter() - start < 1.0
    assert "[E-" not in capsys.readouterr().err


_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_printed_diagnostic_has_a_location(tmp_path, capsys):
    # a diagnostic raised without a location gets that of its declaration
    # (OrbiError.at in lf, contexts and translate)
    from test_acceptance import _MUTANTS

    if _PERFBENCH not in sys.path:
        sys.path.append(_PERFBENCH)
    import workloads

    eq = corpus_source()
    inputs = [(desc, eq.replace(find, replace)) for desc, find, replace, _ in _MUTANTS]
    faulty = [f for f in workloads.rules(7).files if f.reject]
    assert sorted(f.reject for f in faulty) == sorted(fault[0] for fault in workloads.RULE_FAULTS)
    inputs += [(f.reject, f.text) for f in faulty]
    # rejected by translation only
    inputs += [
        ("implicit schema", eq.replace("%% explicit [hy,ab] in xG\n", "")),
        ("implicit relation parameter", eq.replace("%% explicit [hy,ab] in [g]\n", "")),
        (
            "premise over a judgment",
            "%% Syntax\ntm: type.\nc: tm.\n\n%% Judgments\nj: tm -> type.\nk: tm -> type.\n\n"
            "%% Rules\nr: ({D:j c} k c) -> k c.\n",
        ),
    ]
    p = tmp_path / "in.orbi"
    commands = [["check"]] + [
        ["translate", "--target", t, "--out-dir", str(tmp_path)] for t in ("ab", "bel")
    ]
    unplaced = []
    for name, text in inputs:
        p.write_text(text, encoding="utf-8")
        for argv in commands:
            run(argv + ["--structured", str(p)])
            diags = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
            if argv[-1] == "ab":
                assert any(d["severity"] == "error" for d in diags), name
            unplaced += [(name, argv[-1], d) for d in diags if d["line"] < 1]
    assert not unplaced


def test_open_rules_are_never_closed(corpus_file, tmp_path, monkeypatch, capsys):
    # check and translate read a rule's open body and schematic prefix, and
    # no rule is closed; only a rule written with a redex (or an arrow from a
    # level-0 domain) is rebuilt, once, into its stored form, with its
    # schematic occurrences still constants
    import orbi_forge.lf as lf

    if _PERFBENCH not in sys.path:
        sys.path.append(_PERFBENCH)
    import workloads

    stored = []
    rebuild = lf.rebuild
    monkeypatch.setattr(lf, "rebuild", lambda *args: stored.append(rebuild(*args)) or stored[-1])
    files = [corpus_file]
    for i, f in enumerate(f for f in workloads.rules(7).files if not f.reject):
        files.append(str(tmp_path / f"rules{i}.orbi"))
        (tmp_path / f"rules{i}.orbi").write_text(f.text, encoding="utf-8")
    assert len(files) == 17
    assert run(["check", *files]) == 0
    for target in ("ab", "hy", "bel", "tw"):
        assert run(["translate", "--target", target, "--out-dir", str(tmp_path), *files]) == 0
    assert "[E-" not in capsys.readouterr().err
    assert stored == []
    redex = tmp_path / "redex.orbi"
    redex.write_text(
        "%% Syntax\ntm: type.\n\n%% Judgments\nj: tm -> type.\n\n%% Rules\nr: j ((\\x. x) M).\n",
        encoding="utf-8",
    )
    assert run(["check", str(redex)]) == 0
    assert [tp.args for tp in stored] == [(Const("M"),)]


def test_checker_walks_no_shared_leaf(corpus_file, tmp_path, monkeypatch, capsys):
    # an argument-free atom is closed and normal, so lf hands none to a walk
    # (a walk's calls to itself are its own), and a bare schematic occurrence
    # already recorded at the identical type never reaches _schematic
    import orbi_forge.lf as lf

    if _PERFBENCH not in sys.path:
        sys.path.append(_PERFBENCH)
    import workloads

    leaves = []
    for name in ("normalize", "families_in_tp"):

        def recording(node, *rest, walk=getattr(lf, name), name=name):
            caller = sys._getframe(1).f_code
            if caller is not walk.__code__ and type(node) is AtomApp and not node.args:
                leaves.append((name, caller.co_name, node))
            return walk(node, *rest)

        monkeypatch.setattr(lf, name, recording)
    schematic, reached, repeated = lf._schematic, [], []

    def counting(sig, ctx, t, exp, holes):
        reached.append(t)
        if type(t) is Const and t.name in holes:
            repeated.append(t.name)
        return schematic(sig, ctx, t, exp, holes)

    monkeypatch.setattr(lf, "_schematic", counting)
    files = [corpus_file]
    for i, f in enumerate(f for f in workloads.rules(7).files if not f.reject):
        files.append(str(tmp_path / f"rules{i}.orbi"))
        (tmp_path / f"rules{i}.orbi").write_text(f.text, encoding="utf-8")
    assert run(["check", *files]) == 0
    assert "[E-" not in capsys.readouterr().err
    assert leaves == []
    assert reached and repeated == []


@pytest.mark.parametrize("target", ["ab", "hy"])
def test_emitter_walks_no_shared_leaf(target, corpus_file, tmp_path, monkeypatch, capsys):
    # a Const or Var leaf holds no lambda and no redex, so the emitter,
    # normalize's eta step and the printer, which reaches free through
    # syntax.last_uses when it prints a captured term again, hand none to
    # normalize or free (a walk's calls to itself are its own)
    import orbi_forge.lf as lf
    import orbi_forge.syntax as syntax
    import orbi_forge.translate as translate

    if _PERFBENCH not in sys.path:
        sys.path.append(_PERFBENCH)
    import workloads

    leaves = []
    walks = {"normalize": lf.normalize, "free": syntax.free}
    for module, name in (
        (translate, "normalize"),
        (lf, "normalize"),
        (translate, "free"),
        (lf, "free"),
        (syntax, "free"),
    ):

        def recording(node, *rest, walk=walks[name], name=name):
            caller = sys._getframe(1).f_code
            if caller is not walk.__code__ and type(node) in (Const, Var):
                leaves.append((name, caller.co_name, node))
            return walk(node, *rest)

        monkeypatch.setattr(module, name, recording)
    files = [corpus_file]
    for i, f in enumerate(f for f in workloads.rules(7).files if not f.reject):
        files.append(str(tmp_path / f"rules{i}.orbi"))
        (tmp_path / f"rules{i}.orbi").write_text(f.text, encoding="utf-8")
    assert len(files) == 17
    out = ["--out-dir", str(tmp_path)]
    assert run(["translate", "--target", target, *out, *files]) == 0
    assert "[E-" not in capsys.readouterr().err
    assert leaves == []


def test_printer_names_binders_without_a_scan(monkeypatch):
    # with no capture to mend, fmt and ab name each binder from its hint:
    # neither runs the exact rule's scans, telescope_names and last_uses.
    # A capture probe, whose ab term primes a lambda, runs them
    import orbi_forge.syntax as syntax

    if _PERFBENCH not in sys.path:
        sys.path.append(_PERFBENCH)
    import workloads

    pretty = sys.modules["orbi_forge.pretty"]  # the package's ``pretty`` is the function
    scans = []
    for module, name in ((pretty, "telescope_names"), (pretty, "last_uses"), (syntax, "last_uses")):

        def recording(*args, scan=getattr(module, name), name=name):
            scans.append(name)
            return scan(*args)

        monkeypatch.setattr(module, name, recording)
    texts = [corpus_source(), *(f.text for f in workloads.rules(7).files if not f.reject)]
    for text in texts:
        spec = parse_spec(text)
        pretty.spec_str(spec)
        translate_spec(check_spec(spec), "ab")
    assert scans == []
    translate_spec(check_spec(parse_spec(CAPTURE_PROBES["capture-head"])), "ab")
    assert scans


def test_importing_the_cli_leaves_json_out():
    # only --structured output needs json, and every run pays for imports
    code = "import sys, orbi_forge.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'json'))"
    src = os.path.dirname(os.path.dirname(orbi_forge.__file__))
    p = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert p.stdout.strip() == "[]"
