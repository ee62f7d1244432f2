"""How deeply each nesting shape can go and still pass every command.

For each shape, a specification nested ``n`` levels deep is run through
``orbi_forge.cli.run`` in this process, at CPython's default recursion limit,
under ``check``, ``lint``, ``fmt`` and ``translate`` for each of the four
targets.  It passes at ``n`` when every command exits 0 with no error
diagnostic.  Run from the repository root:

    PYTHONPATH=src python tests/depth_probe.py

prints, for each shape, the deepest of 400, 1,000 and 10,000 levels that
passes, trying them from the shallowest and stopping at the first failure.
It uses the standard library only and gates nothing; the tests import its
shapes and ``failures``.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile

from orbi_forge.cli import run

LEVELS = (400, 1000, 10_000)
DEFAULT_LIMIT = 1000  # CPython's default recursion limit
TARGETS = ("ab", "hy", "bel", "tw")

_SIG = (
    "%% Syntax\ntm: type.\nc: tm.\napp: tm -> tm -> tm.\nlam: (tm -> tm) -> tm.\n\n"
    "%% Judgments\nj: tm -> type.\n\n"
)


def _rule(body: str) -> str:
    return f"{_SIG}%% Rules\nr: {body}.\n"


# name -> the specification nested ``n`` levels deep
SHAPES = {
    "(app c (app c …)) in a rule": lambda n: _rule("j " + "(app c " * n + "c" + ")" * n),
    "(lam (\\x. lam (\\x. …))) in a rule": lambda n: _rule(
        "j " + "(lam (\\x. " * n + "c" + "))" * n
    ),
    "((\\x. x) ((\\x. x) …)) in a rule": lambda n: _rule("j " + "((\\x. x) " * n + "c" + ")" * n),
    "((( … true … ))) in a theorem": lambda n: (
        "%% Syntax\ntm: type.\n\n%% Theorems\ntheorem t: " + "(" * n + "true" + ")" * n + ";\n"
    ),
    "((( … tm … ))) as a type": lambda n: (
        "%% Syntax\ntm: type.\nc: " + "(" * n + "tm" + ")" * n + ".\n"
    ),
    "{x:{x:{…} tm} tm} tm -> j c, a Π domain that is a Π chain": lambda n: _rule(
        "{x:" * n + "tm" + "} tm" * n + " -> j c"
    ),
}


def pi_domain(n: int) -> str:
    """A rule whose Π domain is ``tm`` in ``n`` parentheses."""
    return _rule("{x:" + "(" * n + "tm" + ")" * n + "} j x")


def failures(source: str) -> list[str]:
    """The commands under which ``source`` does not exit 0 with no error
    diagnostic, at the default recursion limit; their output is dropped."""
    commands = [["check"], ["lint"], ["fmt"]] + [["translate", "--target", t] for t in TARGETS]
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "deep.orbi")
        with open(path, "w", encoding="utf-8") as f:
            f.write(source)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(DEFAULT_LIMIT)
        try:
            for argv in commands:
                if argv[0] == "translate":
                    argv = argv + ["--out-dir", tmp]
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = run(argv + [path])
                if rc != 0 or "[E-" in err.getvalue():
                    failed.append(" ".join(argv[:3]))
        finally:
            sys.setrecursionlimit(limit)
    return failed


def deepest(shape: str) -> int | None:
    """The deepest of ``LEVELS`` at which ``shape`` passes, or None."""
    best = None
    for n in LEVELS:
        if failures(SHAPES[shape](n)):
            break
        best = n
    return best


def main() -> int:
    print(f"deepest of {', '.join(map(str, LEVELS))} levels passing every command")
    for shape in SHAPES:
        n = deepest(shape)
        print(f"{shape}: {'none' if n is None else n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
