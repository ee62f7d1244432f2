"""Batch command-line front end.

Exit codes: 0 success, 1 diagnostics at error level (or warnings under
--werror), 2 usage errors.  Diagnostics go to stderr as
``path:line:col: [CODE] message`` or as JSON records under --structured.
The grammar of argv is ``_USAGE``, read by one loop (``_read_argv``):
building an ``argparse`` parser took a third of a ``check`` of the corpus.
"""

from __future__ import annotations

import os
import sys

from orbi_forge.contexts import check_spec
from orbi_forge.errors import Diagnostic, OrbiError
from orbi_forge.lint import lint as run_lint
from orbi_forge.parser import parse_spec
from orbi_forge.pretty import spec_str
from orbi_forge.syntax import SYSTEMS, Loc
from orbi_forge.translate import translate_spec

_RED = "\x1b[31m"
_YELLOW = "\x1b[33m"
_RESET = "\x1b[0m"


def _use_color() -> bool:
    mode = os.environ.get("ORBI_COLOR", "auto")
    if mode == "always":
        return True
    if mode == "never":
        return False
    return sys.stderr.isatty()


def _emit(diags, path: str, structured: bool) -> None:
    if structured:
        import json  # only here: every run would pay for importing it

        for d in diags:
            print(json.dumps(d.to_json(path)), file=sys.stderr)
        return
    color = _use_color()
    for d in diags:
        line = d.render(path)
        if color:
            tint = _YELLOW if d.severity == "warning" else _RED
            line = line.replace(f"[{d.code}]", f"{tint}[{d.code}]{_RESET}", 1)
        print(line, file=sys.stderr)


_COMMANDS = ("check", "lint", "translate", "fmt")
_USAGE = f"""\
usage: orbi {{check,lint,fmt}} [--werror] [--structured] FILE...
       orbi translate --target {{{",".join(SYSTEMS)}}} [--out-dir DIR]
                      [--werror] [--structured] FILE...
"""
_HELP = f"""{_USAGE}
ORBI specification toolchain.  check and lint parse, type-check and validate
each FILE and print its lint warnings; translate also writes
<name>.<target>.out into --out-dir (default .); fmt pretty-prints it
canonically to stdout.  --werror fails on lint warnings, and --structured
prints diagnostics as JSON records.
"""


class _Args:
    """What an argv asks for: ``cmd``, the options as attributes (an option
    given twice keeps its last value) and the input files in ``inputs``."""

    target = None
    out_dir = "."
    werror = structured = False


class _UsageError(Exception):
    """An argv that ``run`` cannot act on; the message says why."""


def _read_argv(argv) -> _Args | None:
    """Read ``argv``; ``None`` for ``-h``/``--help``.  Options may come
    before or after the files, as ``--opt VALUE`` or ``--opt=VALUE``, and
    ``--`` ends them."""
    rest = iter(argv)
    args = _Args()
    args.cmd = next(rest, None)
    if args.cmd in ("-h", "--help"):
        return None
    if args.cmd not in _COMMANDS:
        raise _UsageError(f"unknown command {args.cmd!r}" if args.cmd else "no command given")
    valued = ("--target", "--out-dir") if args.cmd == "translate" else ()
    args.inputs = inputs = []
    for arg in rest:
        if arg == "--":
            inputs += rest
        elif arg in ("-h", "--help"):
            return None
        elif arg[:1] != "-" or arg == "-":
            inputs.append(arg)
        else:
            name, eq, value = arg.partition("=")
            if name in valued:
                value = value if eq else next(rest, None)
                if value is None:
                    raise _UsageError(f"option {name} needs a value")
            elif name in ("--werror", "--structured") and not eq:
                value = True
            else:
                raise _UsageError(f"unknown option {arg!r}")
            setattr(args, name[2:].replace("-", "_"), value)
    if args.cmd == "translate" and args.target not in SYSTEMS:
        bad = "translate needs --target" if args.target is None else f"unknown target {args.target!r}"
        raise _UsageError(f"{bad}; the targets are {', '.join(SYSTEMS)}")
    if not inputs:
        raise _UsageError("no input files given")
    return args


def _out_name(path: str, target: str) -> str:
    base = os.path.basename(path)
    if base.endswith(".orbi"):
        base = base[: -len(".orbi")]
    return f"{base}.{target}.out"


def _encoding_error(path: str) -> Diagnostic:
    """E-ENCODING at the first byte of ``path`` that is not UTF-8, located
    as the text reader would see it (universal newlines)."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        prefix = data[: e.start].decode("utf-8")
        lines = prefix.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        return Diagnostic(
            "E-ENCODING",
            f"input is not UTF-8: byte 0x{data[e.start]:02x} ({e.reason})",
            Loc(len(lines), len(lines[-1]) + 1),
        )
    return Diagnostic("E-ENCODING", "input is not UTF-8")  # the file changed meanwhile


def _write_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(text)
    os.replace(tmp, path)


def run(argv) -> int:
    try:
        args = _read_argv(argv)
    except _UsageError as e:
        print(f"{_USAGE}orbi: {e}", file=sys.stderr)
        return 2
    if args is None:
        sys.stdout.write(_HELP)
        return 0
    for path in args.inputs:
        if not os.path.isfile(path):
            print(f"orbi: no such input file: {path}", file=sys.stderr)
            return 2
    worst = 0
    for path in args.inputs:
        try:
            worst = max(worst, _run_file(path, args))
        except RecursionError:
            depth = Diagnostic("E-DEPTH", "input nests too deeply to process", Loc(1, 1))
            _emit([depth], path, args.structured)
            worst = max(worst, 1)
    return worst


def _run_file(path: str, args) -> int:
    """Run ``args.cmd`` on one input file; the exit code it calls for."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError:
        _emit([_encoding_error(path)], path, args.structured)
        return 1
    if text[:1] == "\ufeff":  # a byte-order mark
        text = text[1:]
    worst = 0
    try:
        spec = parse_spec(text)
        if args.cmd == "fmt":
            sys.stdout.write(spec_str(spec))
            return 0
        checked = check_spec(spec)
        warnings = run_lint(checked)
        if warnings:
            _emit(warnings, path, args.structured)
            if args.werror:
                worst = 1
        if args.cmd != "translate":
            return worst
        doc = translate_spec(checked, args.target)
    except OrbiError as e:
        _emit(e.diagnostics, path, args.structured)
        return 1
    if doc.warnings:
        _emit(doc.warnings, path, args.structured)
    out = os.path.join(args.out_dir, _out_name(path, args.target))
    try:
        _write_atomic(out, doc.render())
    except OSError as e:
        print(f"orbi: cannot write {out}: {e.strerror or e}", file=sys.stderr)
        return 2
    return worst


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
