"""Diagnostics and the error hierarchy used across the toolchain.

Every failure carries a stable machine-readable code so that batch tools can
assert on the class of rejection rather than on message text.
"""

from __future__ import annotations

from orbi_forge.syntax import Loc, NO_LOC, Record


class Diagnostic(Record):
    __slots__ = ("code", "message", "loc", "severity", "hint", "production")
    _defaults = (NO_LOC, "error", "", "")

    def render(self, path: str = "") -> str:
        prefix = f"{path}:" if path else ""
        return f"{prefix}{self.loc.line}:{self.loc.col}: [{self.code}] {self.message}"

    def to_json(self, path: str = "") -> dict:
        out = {
            "path": path,
            "line": self.loc.line,
            "col": self.loc.col,
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.hint:
            out["hint"] = self.hint
        if self.production:
            out["production"] = self.production
        return out


class OrbiError(Exception):
    """Base of all toolchain failures."""

    code = "E"

    def __init__(self, message: str, loc: Loc = NO_LOC, hint: str = ""):
        super().__init__(message)
        self.message = message
        self.loc = loc
        self.hint = hint

    def diagnostics(self) -> list[Diagnostic]:
        return [Diagnostic(self.code, self.message, self.loc, "error", self.hint)]


class LexError(OrbiError):
    code = "E-LEX"


class ParseError(OrbiError):
    code = "E-PARSE"

    def __init__(self, message, loc=NO_LOC, hint="", expected=(), production=""):
        super().__init__(message, loc, hint)
        self.expected = frozenset(expected)
        self.production = production

    def diagnostics(self):
        return [Diagnostic(self.code, self.message, self.loc, "error", self.hint, self.production)]


class SpecParseError(OrbiError):
    """Aggregate of every parse diagnostic recovered in one run."""

    code = "E-PARSE"

    def __init__(self, diags):
        self._diags = list(diags)
        first = self._diags[0]
        super().__init__(first.message, first.loc)

    def diagnostics(self):
        return list(self._diags)


class DirectiveError(OrbiError):
    code = "E-DIR"


class KindError(OrbiError):
    code = "E-KIND"


class LfTypeError(OrbiError):
    code = "E-TYPE"


class LevelError(OrbiError):
    code = "E-LEVEL"


class ReconstructionError(OrbiError):
    code = "E-RECON"


class DuplicateNameError(OrbiError):
    code = "E-DUP"


class UnboundVariableError(OrbiError):
    code = "E-UNBOUND"


class SchemaMismatchError(OrbiError):
    code = "E-SCHEMA"


class UnknownCtxVarError(OrbiError):
    code = "E-CTXVAR"


class UnknownSchemaError(OrbiError):
    code = "E-NO-SCHEMA"


class UnknownRelationError(OrbiError):
    code = "E-NO-RELATION"


class ArityError(OrbiError):
    code = "E-ARITY"


class UnknownDestError(OrbiError):
    code = "E-DEST"


class AmbiguousDestError(OrbiError):
    code = "E-AMBIG"


class ConflictingDirectivesError(OrbiError):
    code = "E-CONFLICT"


class UnsupportedShapeError(OrbiError):
    code = "E-SHAPE"


class EmptyRenderingError(OrbiError):
    code = "E-EMPTY"


class NoCtxInScopeError(OrbiError):
    code = "E-NOCTX"


class TheoremScopeError(OrbiError):
    """Collects every scope problem found in one theorem statement."""

    def __init__(self, diags):
        self._diags = list(diags)
        first = self._diags[0]
        super().__init__(first.message, first.loc)
        self.code = first.code

    def diagnostics(self):
        return list(self._diags)
