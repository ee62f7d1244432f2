"""No command leaves cyclic garbage.

Every object a command makes is freed by reference counting when the command
returns, also when it rejects its input.  A reference cycle would wait for
the cyclic collector instead, whose pauses then land on whichever later
command crosses its threshold.
"""

import gc
import os
import sys

import pytest

from orbi_forge import corpus_source
from orbi_forge.cli import run

_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

COMMANDS = [["check"], ["lint"], ["fmt"]] + [
    ["translate", "--target", t] for t in ("ab", "hy", "bel", "tw")
]

# four faulty theorems after eq.orbi's own: an unknown schema, unbound terms
# in a judgment argument and in an equation, a relation given too many
# contexts, and an unknown judgment in an unbound context
_THEOREM_ERRORS = (
    "theorem bad: {g:noSuch}{M:tm} [g |- aeq (lam (\\x. app x foo)) M] & lam M = bar\n"
    "  || Rxa [g] [g] [g] || [h |- nosuch M];\n"
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Name -> path of each input: eq.orbi, a clean and a faulty generated
    rules file, a parse error and eq.orbi with theorem errors."""
    if _PERFBENCH not in sys.path:
        sys.path.append(_PERFBENCH)
    import workloads

    files = workloads.rules(7).files
    texts = {
        "eq": corpus_source(),
        "rules-clean": next(f.text for f in files if f.reject is None),
        "rules-faulty": next(f.text for f in files if f.reject and not f.parse_reject),
        "parse-error": "%% Syntax\ntm: type.\nc: tm (.\nd: .\n",
        "theorem-errors": corpus_source() + _THEOREM_ERRORS,
    }
    root = tmp_path_factory.mktemp("cycles")
    for name, text in texts.items():
        (root / f"{name}.orbi").write_text(text, encoding="utf-8")
    return {name: str(root / f"{name}.orbi") for name in texts}


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[-1])
@pytest.mark.parametrize(
    "name", ["eq", "rules-clean", "rules-faulty", "parse-error", "theorem-errors"]
)
def test_no_command_leaves_cyclic_garbage(inputs, name, argv, tmp_path, capsys):
    if argv[0] == "translate":
        argv = argv + ["--out-dir", str(tmp_path)]
    argv = argv + [inputs[name]]
    run(argv)  # warm-up: first-use caches such as codec lookups
    gc.collect()
    gc.disable()
    try:
        rc = run(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()
    # fmt rejects only the parse error; the other commands every faulty input
    accepted = name in ("eq", "rules-clean") or argv[0] == "fmt" and name != "parse-error"
    assert rc == (0 if accepted else 1)
    capsys.readouterr()
