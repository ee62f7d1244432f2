"""Raise-deletion mutation analysis of ``src/``: which checks do the tests pin?

Each mutant replaces one ``raise`` statement of ``src/orbi_forge`` by ``pass``
(its line count kept), in a copy of the repository in a temporary directory.
A mutant is killed when tier-1 (``pytest -q -x``) fails on it, or else when
``tests/differential.py`` reports a differing record; a run that exceeds the
timeout counts as killed.  The unmutated copy must pass both first.  One
line per mutant says what killed it, and the survivors are listed last, as
``module.py:line`` of the tree under test.

    python tests/mutate.py

It is not part of tier-1 or CI: each mutant runs tier-1 and maybe the
differential, some 20 s.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join("src", "orbi_forge")
TIMEOUT = 900  # seconds for one run of tier-1 or of the differential


def raise_sites(source: str) -> list:
    """(line, col, end line, end col) of each ``raise`` in ``source``, in order."""
    sites = [
        (n.lineno, n.col_offset, n.end_lineno, n.end_col_offset)
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Raise)
    ]
    return sorted(sites)


def mutate(source: str, site) -> str:
    """``source`` with the raise at ``site`` replaced by ``pass``, padded with
    newlines so that every other statement keeps its line."""
    line, col, end_line, end_col = site
    lines = source.splitlines(keepends=True)
    head = "".join(lines[: line - 1]) + lines[line - 1][:col]
    tail = lines[end_line - 1][end_col:] + "".join(lines[end_line:])
    return head + "pass" + "\n" * (end_line - line) + tail


def _run(argv, cwd: str) -> subprocess.CompletedProcess | None:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(
            argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=TIMEOUT
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


def main() -> int:
    modules = sorted(f for f in os.listdir(os.path.join(ROOT, PACKAGE)) if f.endswith(".py"))
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
                for site in raise_sites(source):
                    with open(path, "w", encoding="utf-8") as f:
                        f.write(mutate(source, site))
                    what = verdict(tree)
                    print(f"{module}:{site[0]} {what}", flush=True)
                    if what == "survives":
                        survivors.append(f"{module}:{site[0]}")
            finally:
                with open(path, "w", encoding="utf-8") as f:
                    f.write(source)
    print(f"{len(survivors)} surviving raise mutants" + "".join(f"\n  {s}" for s in survivors))
    return 0


if __name__ == "__main__":
    sys.exit(main())
