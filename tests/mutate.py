"""Mutation analysis of ``src/``: which checks and branches do the tests pin?

Each mutant changes one site of a module of ``src/orbi_forge``, in a copy of
the repository in a temporary directory:

- a ``raise`` statement becomes ``pass``;
- the test of an ``if``, a ``while`` or a conditional expression, and each
  comprehension filter, becomes ``True``, and in another mutant ``False``
  (a test that already reads so is left out);
- an ``and`` or ``or`` loses its first operand.

A mutant is killed when tier-1 (``pytest -q -x``) fails on it, or else when
``tests/differential.py`` reports a differing record; a run that exceeds the
timeout or the memory cap counts as killed.  The unmutated copy must pass
both first.  One line per mutant says what killed it, and the survivors are
listed last, as ``module.py:line`` of the tree under test and the mutation.

    python tests/mutate.py                      # every module
    python tests/mutate.py translate lint.py    # the modules named

It is not part of tier-1 or CI: each mutant runs tier-1 and maybe the
differential, some 5 to 20 s.
"""

from __future__ import annotations

import ast
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join("src", "orbi_forge")
# one run of tier-1 or of the differential: a mutant that loops or grows
# without end is stopped by the timeout, or by a MemoryError at the cap
TIMEOUT = 120  # seconds
MEMORY = 1 << 29  # bytes of address space


_TESTED = {ast.If: "if", ast.While: "while", ast.IfExp: "ternary"}
_OPERATOR = re.compile(r"\b(?:and|or)\b\s*")


def sites(source: str) -> list:
    """(start, end, replacement, line, label) of each mutation of ``source``,
    in source order: the text from offset ``start`` to ``end`` is replaced."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for text in lines:
        starts.append(starts[-1] + len(text))

    def at(line, col):  # ``ast`` counts a column in UTF-8 bytes
        return starts[line - 1] + len(lines[line - 1].encode()[:col].decode())

    out = []
    for n in ast.walk(ast.parse(source)):
        tests = []
        if isinstance(n, ast.Raise):
            span = at(n.lineno, n.col_offset), at(n.end_lineno, n.end_col_offset)
            out.append((*span, "pass", n.lineno, "raise -> pass"))
        elif type(n) in _TESTED:
            tests.append((n.test, _TESTED[type(n)]))
        elif isinstance(n, ast.comprehension):
            tests += [(t, "filter") for t in n.ifs]
        elif isinstance(n, ast.BoolOp):
            # the first operand and its operator, up to the second operand or
            # the bracket that opens it
            first, second = n.values[0], n.values[1]
            gap = at(first.end_lineno, first.end_col_offset), at(second.lineno, second.col_offset)
            op = _OPERATOR.search(source, *gap)
            label = f"{type(n.op).__name__.lower()} without its first operand"
            out.append((at(n.lineno, n.col_offset), op.end(), "", n.lineno, label))
        for test, what in tests:
            for value in (True, False):
                if not (isinstance(test, ast.Constant) and test.value is value):
                    start = at(test.lineno, test.col_offset)
                    end = at(test.end_lineno, test.end_col_offset)
                    out.append((start, end, str(value), test.lineno, f"{what} -> {value}"))
    return sorted(out)


def mutate(source: str, start: int, end: int, text: str) -> str:
    """``source`` with its text from offset ``start`` to ``end`` replaced by
    ``text``, padded with newlines, where that still parses, so that every
    other line keeps its number."""
    padded = source[:start] + text + "\n" * source.count("\n", start, end) + source[end:]
    try:
        ast.parse(padded)
    except SyntaxError:  # a line break outside brackets
        return source[:start] + text + source[end:]
    return padded


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def _run(argv, cwd: str) -> subprocess.CompletedProcess | None:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(
            argv,
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT,
            preexec_fn=_cap_memory,
        )
    except subprocess.TimeoutExpired:
        return None


def verdict(tree: str) -> str:
    """What kills the mutant in ``tree``, or ``survives``."""
    tier1 = _run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"], tree)
    if tier1 is None:
        return "killed by tier-1 (timeout)"
    if tier1.returncode != 0:
        return "killed by tier-1"
    diff = _run([sys.executable, os.path.join("tests", "differential.py")], tree)
    if diff is None:
        return "killed by the differential (timeout)"
    if diff.returncode != 0 or "no record differs" not in diff.stdout:
        return "killed by the differential"
    return "survives"


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    package = os.path.join(ROOT, PACKAGE)
    modules = [n if n.endswith(".py") else n + ".py" for n in names]
    unknown = [m for m in modules if not os.path.isfile(os.path.join(package, m))]
    if unknown:
        print(f"no module {', '.join(unknown)} in {PACKAGE}", file=sys.stderr)
        return 2
    modules = modules or sorted(f for f in os.listdir(package) if f.endswith(".py"))
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "repo")
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
        shutil.copytree(ROOT, tree, ignore=ignore)
        base = verdict(tree)
        if base != "survives":  # then every mutant would read as killed
            print(f"the unmutated tree is {base}; no mutant run", file=sys.stderr)
            return 1
        for module in modules:
            path = os.path.join(tree, PACKAGE, module)
            with open(path, encoding="utf-8") as f:
                source = f.read()
            try:
                for start, end, text, line, label in sites(source):
                    with open(path, "w", encoding="utf-8") as f:
                        f.write(mutate(source, start, end, text))
                    what = verdict(tree)
                    print(f"{module}:{line} {label}: {what}", flush=True)
                    if what == "survives":
                        survivors.append(f"{module}:{line} {label}")
            finally:
                with open(path, "w", encoding="utf-8") as f:
                    f.write(source)
    print(f"{len(survivors)} surviving mutants" + "".join(f"\n  {s}" for s in survivors))
    return 0


if __name__ == "__main__":
    sys.exit(main())
