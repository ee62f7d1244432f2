"""orbi-forge: parse, validate, lint, and translate ORBI specifications."""

from orbi_forge.contexts import CheckedSpec, check_spec
from orbi_forge.errors import Diagnostic, OrbiError
from orbi_forge.lf import Signature, check_signature, normalize
from orbi_forge.lint import lint
from orbi_forge.parser import parse_directive_line, parse_spec
from orbi_forge.pretty import pretty
from orbi_forge.syntax import OrbiSpec, spec_alpha_equal, subst
from orbi_forge.translate import TargetDoc, translate_spec

__version__ = "0.1.0"

__all__ = [
    "CheckedSpec",
    "Diagnostic",
    "OrbiError",
    "OrbiSpec",
    "Signature",
    "TargetDoc",
    "check_signature",
    "check_spec",
    "corpus_path",
    "corpus_source",
    "lint",
    "normalize",
    "parse_directive_line",
    "parse_spec",
    "pretty",
    "spec_alpha_equal",
    "subst",
    "translate_spec",
]


def corpus_source(name: str = "eq.orbi") -> str:
    """Text of a bundled corpus specification."""
    from importlib import resources  # here, so that importing the CLI does not load it

    return resources.files("orbi_forge").joinpath(f"corpus/{name}").read_text(encoding="utf-8")


def corpus_path(name: str = "eq.orbi") -> str:
    from importlib import resources

    return str(resources.files("orbi_forge").joinpath(f"corpus/{name}"))
