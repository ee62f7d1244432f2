"""Diagnostics, and the one exception that carries them.

Every diagnostic has a stable code (README lists them all), so that batch
tools can assert on the class of a rejection rather than on its message."""

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
    """A rejection of the input: the error diagnostics it carries, in order."""

    def __init__(self, code: str, message: str, loc: Loc = NO_LOC, hint="", production=""):
        super().__init__(message)
        self.diagnostics = (Diagnostic(code, message, loc, "error", hint, production),)

    @staticmethod
    def of(diags) -> OrbiError:
        """One error carrying every diagnostic of ``diags``."""
        e = OrbiError.__new__(OrbiError, diags[0].message)
        e.diagnostics = tuple(diags)
        return e

    code = property(lambda self: self.diagnostics[0].code)
    message = property(lambda self: self.diagnostics[0].message)
    loc = property(lambda self: self.diagnostics[0].loc)

    def at(self, loc: Loc) -> OrbiError:
        """Give every diagnostic that has no location ``loc``; returns ``self``."""
        out = ()
        for d in self.diagnostics:
            if d.loc.line == 0:
                d = Diagnostic(d.code, d.message, loc, d.severity, d.hint, d.production)
            out += (d,)
        self.diagnostics = out
        return self


class ParseError(OrbiError):
    """``E-PARSE``, caught by class where the parser backtracks or recovers."""

    def __init__(self, message: str, loc: Loc = NO_LOC, production: str = ""):
        # not through OrbiError.__init__: backtracking raises many of these
        Exception.__init__(self, message)
        self.diagnostics = (Diagnostic("E-PARSE", message, loc, "error", "", production),)
