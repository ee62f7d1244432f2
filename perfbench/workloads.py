"""Seeded inputs of the benchmark's three workloads, each with its expected results.

Every input file carries what the compiler must do with it, worked out without
the compiler: the verdict (accepted, or rejected with a known first diagnostic
code), the diagnostics of an accepted file, and the exact text of each
``translate`` output.  ``fmt`` output has no text reference here; the harness
checks it by property (``run.Harness.prepare_fmt``).

* ``corpus``: the bundled ``eq.orbi``, checked against the frozen outputs in
  ``reference/``.
* ``scaled``: ``eq.orbi`` renamed into disjoint copies that share one set of
  section headers; its outputs are the renamed reference outputs, regrouped.
* ``rules``: a batch of specs over one small syntax whose rules come from
  hand-written templates that pair each ORBI rule with its Abella clause; a
  fixed share of the files carries one seeded fault with a known code.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

import oracle

TARGETS = ("ab", "hy", "bel", "tw")

_ID = re.compile(r"[A-Za-z][A-Za-z0-9_']*")
_QUOTED = re.compile(r"(['\"])([A-Za-z][A-Za-z0-9_']*)\1")  # a name as diagnostics quote it
_SEPARATOR = re.compile(
    r"^%% (Syntax|Judgments|Rules|Schemas|Definitions|Directives|Theorems)[ \t]*$", re.M
)
_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_']*|->|<-|\|\||\|-|[^\sA-Za-z0-9]")
_ITEM = re.compile(  # the first line of a declaration, schema, definition, theorem or directive
    r"^(?:[A-Za-z][A-Za-z0-9_']*\s*:|schema\s|inductive\s|theorem\s"
    r"|%%\s*(?:wf|explicit|implicit)\b)",
    re.M,
)


@dataclass
class InputFile:
    """One generated ``.orbi`` file and the results expected for it."""

    name: str
    text: str
    reject: str | None = None  # first diagnostic code of check/translate; None if accepted
    parse_reject: bool = False  # the fault is one the parser finds, so fmt rejects it too
    outputs: dict = field(default_factory=dict)  # target -> exact translate output
    diagnostics: dict = field(default_factory=dict)  # op -> [(code, message)] if accepted

    def expected_reject(self, op: str) -> str | None:
        if op == "fmt" and not self.parse_reject:
            return None
        return self.reject


@dataclass
class Workload:
    files: list

    def size(self) -> dict:
        """Stated input size, counted without the compiler."""
        return {
            "files": len(self.files),
            "lines": sum(f.text.count("\n") for f in self.files),
            "tokens": sum(count_tokens(f.text) for f in self.files),
            "decls": sum(len(_ITEM.findall(f.text)) for f in self.files),
            "faulty_files": sum(f.reject is not None for f in self.files),
        }


def count_tokens(text: str) -> int:
    """Tokens by a regex independent of the lexer: a ``%%`` line is one token,
    other ``%`` comments are dropped."""
    n = 0
    for line in text.split("\n"):
        if line.lstrip().startswith("%%"):
            n += 1
        else:
            n += len(_TOKEN.findall(line.split("%", 1)[0]))
    return n


def build(name: str, seed: int, root: str) -> Workload:
    ref = oracle.load_reference(root)
    if name == "corpus":
        return corpus(ref)
    if name == "scaled":
        return scaled(ref, seed)
    if name == "rules":
        return rules(seed)
    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------------ corpus


def corpus(ref: oracle.Reference) -> Workload:
    f = InputFile(
        "eq.orbi",
        ref.source,
        outputs=dict(ref.outputs),
        diagnostics={op: list(d) for op, d in ref.diagnostics.items()},
    )
    return Workload([f])


# ------------------------------------------------------------------ scaled

SCALED_COPIES = 30
_TAG_LEN = 4

# Every name eq.orbi declares, except schemas.  Anything else in its outputs
# (bound variables, list and context names, target keywords) is left alone.
EQ_NAMES = tuple(
    "tm app lam aeq deq ae_a ae_l de_a de_l de_l' de_r de_s de_t "
    "Rxa Rxa_nl Rxa_cs Rda Rda_nl Rda_cs reflG ceqG reflR ceqR".split()
)
EQ_SCHEMAS = ("xG", "xaG", "xdG", "daG")
EQ_WF_FAMILIES = ("tm",)

# How the blocks of eq's reference output for each target are grouped.  A
# ("blocks", n) group is n per-declaration blocks; the copies' blocks follow
# one another.  A ("section", n) group is one passed-through section that
# spans n blank-line-separated chunks; the copies' texts are joined by a
# newline into one block, as the scaled file's sections are.
EQ_LAYOUT = {
    "ab": (("blocks", 1), ("blocks", 8), ("blocks", 4), ("blocks", 2), ("blocks", 4)),
    "hy": (("blocks", 1), ("blocks", 8), ("blocks", 4), ("blocks", 2), ("blocks", 4)),
    "bel": (("section", 1),) * 4 + (("section", 2), ("blocks", 4)),
    "tw": (("section", 1),) * 5 + (("blocks", 4),),
}


def copy_names(tag: str) -> dict:
    """Rename map of one copy, derived names included: ``is_<fam>`` and the
    Hybrid ``nil_``/``cns_`` constructors, which drop the schema's trailing G."""
    names = {n: n + tag for n in EQ_NAMES}
    for s in EQ_SCHEMAS:
        stem = s[:-1]
        names[s] = stem + tag + "G"
        names["nil_" + stem] = "nil_" + stem + tag
        names["cns_" + stem] = "cns_" + stem + tag
    for fam in EQ_WF_FAMILIES:
        names["is_" + fam] = "is_" + fam + tag
    return names


def rename(text: str, names: dict) -> str:
    return _ID.sub(lambda m: names.get(m.group(0), m.group(0)), text)


def rename_quoted(message: str, names: dict) -> str:
    def sub(m):
        return m.group(1) + names.get(m.group(2), m.group(2)) + m.group(1)

    return _QUOTED.sub(sub, message)


def sections(source: str) -> list:
    """(section, body) pairs in source order; text before the first separator
    is dropped and each body is stripped of surrounding newlines."""
    marks = list(_SEPARATOR.finditer(source))
    out = []
    for i, m in enumerate(marks):
        end = marks[i + 1].start() if i + 1 < len(marks) else len(source)
        out.append((m.group(1), source[m.end() : end].strip("\n")))
    return out


def _tags(rng: random.Random, n: int) -> list:
    letters = "abcdefghijklmnopqrstuvwxyz"
    out = []
    for code in rng.sample(range(len(letters) ** _TAG_LEN), n):
        tag = ""
        for _ in range(_TAG_LEN):
            code, r = divmod(code, len(letters))
            tag += letters[r]
        out.append(tag)
    return out


def _regroup(chunks: list, layout, copies: list) -> str:
    blocks = []
    i = 0
    for mode, n in layout:
        group = "\n\n".join(chunks[i : i + n])
        i += n
        if mode == "section":
            blocks.append("\n".join(rename(group, c) for c in copies))
        else:
            for c in copies:
                blocks += [rename(chunk, c) for chunk in chunks[i - n : i]]
    if i != len(chunks):
        raise ValueError(f"layout covers {i} of {len(chunks)} reference blocks")
    return "\n\n".join(blocks) + "\n"


def scaled(ref: oracle.Reference, seed: int, n: int = SCALED_COPIES) -> Workload:
    rng = random.Random(seed)
    copies = [copy_names(tag) for tag in _tags(rng, n)]
    seen = set()
    for c in copies:
        if seen & set(c.values()):
            raise ValueError("copies of eq.orbi share a name")
        seen |= set(c.values())
    parts = [
        f"%% {sec}\n" + "\n".join(rename(body, c) for c in copies)
        for sec, body in sections(ref.source)
    ]
    outputs = {
        t: _regroup(ref.outputs[t][:-1].split("\n\n"), EQ_LAYOUT[t], copies) for t in TARGETS
    }
    diagnostics = {
        op: [(code, rename_quoted(msg, c)) for code, msg in diags for c in copies]
        for op, diags in ref.diagnostics.items()
    }
    text = "\n\n".join(parts) + "\n"
    return Workload([InputFile("scaled.orbi", text, outputs=outputs, diagnostics=diagnostics)])


# ------------------------------------------------------------------- rules

RULES_FILES = 24
RULES_PER_TEMPLATE = 3

RULES_SIGNATURE = """%% Syntax
t: type.
c0: t.
d0: t.
c1: t -> t.
d1: t -> t.
c2: t -> t -> t.
d2: t -> t -> t.
cb: (t -> t) -> t.
db: (t -> t) -> t.

%% Judgments
j: t -> t -> type.
k: t -> t -> type."""

# Fill-ins of equal shape, so that every seed costs the compiler the same.
_CHOICES = {
    "J": ("j", "k"),
    "Z": ("c0", "d0"),
    "U": ("c1", "d1"),
    "W": ("c2", "d2"),
    "B": ("cb", "db"),
}
_VAR_POOL = tuple(f"{a}{d}" for a in "ABCDEGHKLMNPQRSTVWY" for d in "0123456789")

# (ORBI rule, its Abella clause).  Schematic variables need Miller-pattern
# reconstruction; the clause is what translate emits for ab and hy without
# directives: eta-contracted arguments, pi-bound names made fresh per rule.
RULE_TEMPLATES = (
    ("{J1} {M} {M}", "{J1} {M} {M}."),
    (
        "{J1} {M} {N} -> {J2} {N} {P} -> {J3} ({W} {M} {P}) ({U} {N})",
        "{J3} ({W} {M} {P}) ({U} {N}) :- {J1} {M} {N}, {J2} {N} {P}.",
    ),
    (
        "{J1} ({U} ({U} {M})) ({W} {Z} {N}) -> {J2} ({W} ({U} {M}) {N}) {Z}",
        "{J2} ({W} ({U} {M}) {N}) {Z} :- {J1} ({U} ({U} {M})) ({W} {Z} {N}).",
    ),
    (
        "({{x:t}} {J1} x x -> {J2} ({F} x) ({G} x)) -> {J3} ({B} (\\x. {F} x)) ({B} (\\x. {G} x))",
        "{J3} ({B} {F}) ({B} {G}) :- pi x\\ {J1} x x => {J2} ({F} x) ({G} x).",
    ),
    (
        "({{x:t}} {J1} ({F} x) ({U} x)) -> {J2} {M} {M} -> {J3} ({B} (\\x. {F} x)) {M}",
        "{J3} ({B} {F}) {M} :- (pi x\\ {J1} ({F} x) ({U} x)), {J2} {M} {M}.",
    ),
    (
        "({{x:t}} {{y:t}} {J1} x y -> {J2} ({F} x y) ({F} y x)) -> "
        "{J3} ({B} (\\x. {B} (\\y. {F} x y))) {Z}",
        "{J3} ({B} (x\\ {B} ({F} x))) {Z} :- pi x\\ pi y\\ {J1} x y => {J2} ({F} x y) ({F} y x).",
    ),
    (
        "({{x:t}} {J1} x x -> {J2} ({F} x) x) -> ({{x:t}} {J3} ({G} x) ({F} x)) -> "
        "{J4} ({B} (\\x. {F} x)) ({B} (\\x. {G} x))",
        "{J4} ({B} {F}) ({B} {G}) :- (pi x\\ {J1} x x => {J2} ({F} x) x), "
        "(pi x'\\ {J3} ({G} x') ({F} x')).",
    ),
    (
        "{J1} {M} {N} -> ({{x:t}} {J2} ({F} x) ({W} x {M})) -> "
        "{J3} ({B} (\\x. {F} x)) ({W} {M} {N})",
        "{J3} ({B} {F}) ({W} {M} {N}) :- {J1} {M} {N}, (pi x\\ {J2} ({F} x) ({W} x {M})).",
    ),
)

# (first diagnostic code, found by the parser?, faulty rule).  "E-DUP" reuses
# the name of the file's first rule; "E-PARSE" drops the terminating '.'.
RULE_FAULTS = (
    ("E-RECON", False, "({{x:t}} {J1} ({F} ({U} x)) x) -> {J2} ({B} (\\x. {F} x)) {Z}."),
    ("E-UNBOUND", False, "jq {M} {N} -> {J1} {M} {N}."),
    ("E-KIND", False, "{J1} {M} {N} {M}."),
    ("E-TYPE", False, "{J1} ({U} {M} {N}) {M}."),
    ("E-LEVEL", False, "{J1} {M} {M} -> t."),
    ("E-DUP", False, "{J1} {M} {M}."),
    ("E-PARSE", True, "{J1} {M} {M}"),
    ("E-LEX", True, "{J1} {M} {M}?."),
)


def _fill(rng: random.Random) -> dict:
    env = {f"J{i}": rng.choice(_CHOICES["J"]) for i in range(1, 5)}
    for key in ("Z", "U", "W", "B"):
        env[key] = rng.choice(_CHOICES[key])
    for key, var in zip(("M", "N", "P", "F", "G"), rng.sample(_VAR_POOL, 5)):
        env[key] = var
    return env


def _rule_names(rng: random.Random, n: int) -> list:
    letters = "abcdefghijklmnopqrstuvwxyz"
    names = set()
    while len(names) < n:
        names.add("r" + "".join(rng.choice(letters) for _ in range(3)))
    out = sorted(names)
    rng.shuffle(out)
    return out


def rules(seed: int, n_files: int = RULES_FILES, per_template: int = RULES_PER_TEMPLATE):
    rng = random.Random(seed)
    faulty = dict(zip(rng.sample(range(n_files), len(RULE_FAULTS)), RULE_FAULTS))
    files = []
    for i in range(n_files):
        templates = list(RULE_TEMPLATES) * per_template
        rng.shuffle(templates)
        names = _rule_names(rng, len(templates))
        lines, clauses = [], []
        for name, (src, clause) in zip(names, templates):
            env = _fill(rng)
            lines.append(f"{name}: {src.format(**env)}.")
            clauses.append(clause.format(**env))
        f = InputFile(f"f{i:02d}.orbi", "")
        if i in faulty:
            code, parse_stage, src = faulty[i]
            mid = len(lines) // 2
            name = names[0] if code == "E-DUP" else names[mid]
            lines[mid] = f"{name}: {src.format(**_fill(rng))}"
            f.reject, f.parse_reject = code, parse_stage
        rule_text = "\n".join(lines)
        f.text = f"{RULES_SIGNATURE}\n\n%% Rules\n{rule_text}\n"
        if f.reject is None:
            clause_text = "\n\n".join(clauses) + "\n"
            passthrough = "\n\n".join(body for _, body in sections(f.text)) + "\n"
            f.outputs = {"ab": clause_text, "hy": clause_text}
            f.outputs.update(bel=passthrough, tw=passthrough)
        files.append(f)
    return Workload(files)
