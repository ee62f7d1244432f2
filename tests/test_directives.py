import pytest

from helpers import check_all, make_spec, raises_code
from orbi_forge.directives import resolve


def test_resolve_corpus_ab(checked):
    ann = resolve(checked, "ab")
    assert ann.wf_families == frozenset({"tm"})
    assert ann.explicit_rules == frozenset({"de_l", "de_r"})
    assert ann.explicit_schemas == frozenset({"xG"})
    assert ann.explicit_relation_params == frozenset({("Rxa", "g"), ("Rda", "g")})
    assert ann.explicit_theorem_vars == frozenset(
        {("reflG", "M"), ("ceqG", "M"), ("reflR", "M"), ("ceqR", "M")}
    )


def test_resolve_corpus_hy(checked):
    ann = resolve(checked, "hy")
    assert ann.explicit_schemas == frozenset({"xG", "daG"})
    assert ann.explicit_rules == frozenset({"de_l", "de_r"})


def test_resolve_corpus_tw_is_empty(checked):
    ann = resolve(checked, "tw")
    assert ann.wf_families == frozenset()
    assert ann.explicit_rules == frozenset()
    assert ann.explicit_schemas == frozenset()
    assert ann.explicit_relation_params == frozenset()
    assert ann.explicit_theorem_vars == frozenset()


def test_resolve_bel_only_theorem_vars(checked):
    ann = resolve(checked, "bel")
    assert ann.wf_families == frozenset()
    assert {thm for thm, _ in ann.explicit_theorem_vars} == {"reflG", "ceqG", "reflR", "ceqR"}


def test_targets_resolve_independently(corpus_text):
    # adding a directive for hy must not change the ab table
    extended = corpus_text.replace(
        "%% explicit [hy] in daG", "%% explicit [hy] in daG\n%% explicit [hy] in xdG"
    )
    base = resolve(check_all(corpus_text), "ab")
    more = resolve(check_all(extended), "ab")
    assert base == more


def test_resolution_order_independent(corpus_text):
    lines = corpus_text.splitlines()
    start = lines.index("%% Directives") + 1
    block = [l for l in lines[start:] if l.startswith("%% ") and " in " in l]
    permuted = corpus_text
    for a, b in zip(block, reversed(block)):
        permuted = permuted.replace(a, "\x00" + b, 1)
    permuted = permuted.replace("\x00", "")
    assert resolve(check_all(permuted), "ab") == resolve(check_all(corpus_text), "ab")


def test_conflicting_directives_rejected(corpus_text):
    bad = corpus_text.replace("%% explicit [hy] in daG", "%% implicit [hy] in de_l")
    with raises_code("E-CONFLICT"):
        check_all(bad)


@pytest.mark.parametrize(
    "appended, code, line, message",
    [
        # hy is resolved first: its error sits at the hy directive, although
        # the ab directive of the same key comes first in the file
        pytest.param(
            "%% wf [ab] in nope\n%% wf [hy] in nope\n",
            "E-DEST",
            52,
            "wf destination 'nope' is not a declared type family",
            id="same-key-later-target",
        ),
        pytest.param(
            "%% wf [ab] in nope\n%% explicit [hy] in nada\n",
            "E-DEST",
            52,
            "unknown directive destination 'nada'",
            id="hy-error-first",
        ),
        pytest.param(
            "%% implicit [tw] in de_l\n%% implicit [hy] in de_l\n",
            "E-CONFLICT",
            52,
            "rule de_l is marked both explicit and implicit for 'hy'",
            id="conflict-at-completing-directive",
        ),
    ],
)
def test_directive_error_order_and_location(corpus_text, appended, code, line, message):
    # targets go hy, ab, bel, tw; within one, directives go in file order, and
    # an error sits at the directive being applied
    with raises_code(code) as exc:
        check_all(corpus_text + appended)
    assert (exc.value.loc.line, exc.value.message) == (line, message)


def test_unknown_dest(corpus_text):
    bad = corpus_text.replace("%% wf [hy,ab] in tm", "%% wf [hy,ab] in tmm")
    with raises_code("E-DEST"):
        check_all(bad)


def test_wf_dest_must_be_family(corpus_text):
    bad = corpus_text.replace("%% wf [hy,ab] in tm", "%% wf [hy,ab] in de_l")
    with raises_code("E-DEST"):
        check_all(bad)


def test_wf_dest_is_no_context_parameter():
    # a wf destination in brackets names a context parameter, never a family
    src = make_spec(syntax="tm: type.\nc: tm.", directives="%% wf [ab] in [tm]")
    with raises_code("E-DEST") as exc:
        check_all(src)
    assert exc.value.message == "wf destination 'tm' is not a declared type family"


@pytest.mark.parametrize("first, second", [("explicit", "implicit"), ("implicit", "explicit")])
def test_conflict_in_either_order(first, second):
    # the clash sits at the directive that completes it, whichever comes first
    src = make_spec(
        syntax="tm: type.\nc: tm.",
        judgments="j: tm -> type.",
        rules="r: j c.",
        directives=f"%% {first} [ab] in r\n%% {second} [ab] in r",
    )
    with raises_code("E-CONFLICT") as exc:
        check_all(src)
    assert exc.value.message == "rule r is marked both explicit and implicit for 'ab'"
    assert exc.value.loc.line == src.splitlines().index(f"%% {second} [ab] in r") + 1


def test_wf_dest_must_be_level0():
    src = make_spec(
        syntax="tm: type.\nc: tm.",
        judgments="j: tm -> type.",
        directives="%% wf [ab] in j",
    )
    with raises_code("E-LEVEL") as exc:
        check_all(src)
    assert exc.value.message == "wf predicate requested for non-level-0 family 'j'"
    assert exc.value.loc.line == src.splitlines().index("%% wf [ab] in j") + 1


@pytest.mark.parametrize(
    "judgments, schemas",
    [
        pytest.param("is_tm: tm -> type.", "", id="judgment"),
        pytest.param("j: tm -> type.", "schema is_tm = block (x:tm, u:j x);", id="schema"),
    ],
)
def test_wf_predicate_name_must_be_free(judgments, schemas):
    src = make_spec(
        syntax="tm: type.\nc: tm.",
        judgments=judgments,
        schemas=schemas,
        directives="%% wf [ab] in tm",
    )
    with raises_code("E-DUP") as exc:
        check_all(src)
    assert exc.value.message == "wf predicate 'is_tm' of family 'tm' clashes with a declared name"
    assert exc.value.loc.line == src.splitlines().index("%% wf [ab] in tm") + 1


def test_ambiguous_dest():
    src = make_spec(
        syntax="tm: type.\nc: tm.",
        judgments="j: tm -> type.",
        rules="M: j c.",
        directives="%% explicit [ab] in M",
        theorems="theorem t: {M:tm} [ |- j M];",
    )
    with raises_code("E-AMBIG"):
        check_all(src)
