"""Independent reduction oracle on a named term representation.

Substitution here is by name with eager binder renaming, so agreement with
the index-based engine is meaningful evidence for both.
"""

import itertools
from dataclasses import dataclass

from orbi_forge.syntax import Const, Lam, Term, Var

_fresh = itertools.count()


@dataclass(frozen=True)
class NVar:
    name: str


@dataclass(frozen=True)
class NConst:
    name: str


@dataclass(frozen=True)
class NLam:
    name: str
    body: object


@dataclass(frozen=True)
class NApp:
    fn: object
    arg: object


def from_core(t: Term, env=()):
    if isinstance(t, Var):
        return NVar(env[-1 - t.index])
    if isinstance(t, Const):
        return NConst(t.name)
    if isinstance(t, Lam):
        name = f"v{next(_fresh)}"
        return NLam(name, from_core(t.body, tuple(env) + (name,)))
    return NApp(from_core(t.fn, env), from_core(t.arg, env))


def free_names(t, bound=frozenset()):
    if isinstance(t, NVar):
        return set() if t.name in bound else {t.name}
    if isinstance(t, NConst):
        return set()
    if isinstance(t, NLam):
        return free_names(t.body, bound | {t.name})
    return free_names(t.fn, bound) | free_names(t.arg, bound)


def nsubst(t, name, repl):
    if isinstance(t, NVar):
        return repl if t.name == name else t
    if isinstance(t, NConst):
        return t
    if isinstance(t, NLam):
        if t.name == name:
            return t
        if t.name in free_names(repl):
            fresh = f"v{next(_fresh)}"
            body = nsubst(t.body, t.name, NVar(fresh))
            return NLam(fresh, nsubst(body, name, repl))
        return NLam(t.name, nsubst(t.body, name, repl))
    return NApp(nsubst(t.fn, name, repl), nsubst(t.arg, name, repl))


def _step(t, eta):
    """One leftmost-outermost beta step, or with ``eta`` beta or eta step:
    ``\\x. f x`` is ``f`` when x is not free in ``f``."""
    if isinstance(t, NApp):
        if isinstance(t.fn, NLam):
            return nsubst(t.fn.body, t.fn.name, t.arg), True
        fn, changed = _step(t.fn, eta)
        if changed:
            return NApp(fn, t.arg), True
        arg, changed = _step(t.arg, eta)
        return NApp(t.fn, arg), changed
    if isinstance(t, NLam):
        body = t.body
        if eta and isinstance(body, NApp) and body.arg == NVar(t.name):
            if t.name not in free_names(body.fn):
                return body.fn, True
        body, changed = _step(body, eta)
        return NLam(t.name, body), changed
    return t, False


def nnormalize(t, fuel=10_000):
    """The beta-eta normal form of ``t``."""
    for _ in range(fuel):
        t, changed = _step(t, True)
        if not changed:
            return t
    raise RuntimeError("oracle ran out of fuel")


def beta_normal(t) -> bool:
    return not _step(t, False)[1]


def nalpha(a, b, m1=(), m2=()):
    m1, m2 = dict(m1), dict(m2)
    if isinstance(a, NVar) and isinstance(b, NVar):
        return m1.get(a.name, a.name) == m2.get(b.name, b.name)
    if isinstance(a, NConst) and isinstance(b, NConst):
        return a.name == b.name
    if isinstance(a, NLam) and isinstance(b, NLam):
        ticket = f"#{len(m1)}"
        return nalpha(a.body, b.body, {**m1, a.name: ticket}, {**m2, b.name: ticket})
    if isinstance(a, NApp) and isinstance(b, NApp):
        return nalpha(a.fn, b.fn, m1, m2) and nalpha(a.arg, b.arg, m1, m2)
    return False
