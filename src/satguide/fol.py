"""First-order terms, literals, clauses and problems.

Everything here is plain immutable data. A clause is a disjunction of
literals; a literal is a possibly negated predicate application; terms are
variables or function applications. Equality is an ordinary binary
predicate named "=" (printed infix, no built-in equality reasoning).

The printed form of a clause is canonical: it round-trips through the
parser (a name that would not lex back as a name is printed quoted, so
`p('Foo')` never re-reads as `p(X)`) and its lexed token stream is
exactly what the tokenizer emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

FUNCTION = "function"
PREDICATE = "predicate"
VARIABLE = "variable"

ROLE_AXIOM = "axiom"
ROLE_NEGATED_CONJECTURE = "negated_conjecture"
ROLE_DERIVED = "derived"

EQ = "="


@dataclass(frozen=True, slots=True)
class Symbol:
    name: str
    kind: str  # function | predicate | variable
    arity: int

    def __post_init__(self):
        if not self.name:
            raise ValueError("symbol name must be nonempty")
        if self.kind == VARIABLE and self.arity != 0:
            raise ValueError(f"variable {self.name} must have arity 0")

    def __repr__(self):
        return f"{self.name}/{self.arity}:{self.kind[0]}"


def var_symbol(name: str) -> Symbol:
    return Symbol(name, VARIABLE, 0)


@dataclass(frozen=True, slots=True)
class Term:
    """A variable (kind=variable, no args) or a function application."""

    sym: Symbol
    args: tuple[Term, ...] = ()

    def __post_init__(self):
        if self.sym.kind == PREDICATE:
            raise ValueError(f"predicate {self.sym.name} used as a term")
        if len(self.args) != self.sym.arity:
            raise ValueError(
                f"{self.sym.name} expects {self.sym.arity} args, got {len(self.args)}"
            )

    @property
    def is_var(self) -> bool:
        return self.sym.kind == VARIABLE

    def __repr__(self):
        return term_str(self)


def Var(name: str) -> Term:
    return Term(var_symbol(name))


def App(sym: Symbol, *args: Term) -> Term:
    return Term(sym, tuple(args))


@dataclass(frozen=True, slots=True)
class Literal:
    pred: Symbol
    args: tuple[Term, ...]
    positive: bool = True

    def __post_init__(self):
        if self.pred.kind != PREDICATE:
            raise ValueError(f"{self.pred.name} is not a predicate")
        if len(self.args) != self.pred.arity:
            raise ValueError(
                f"{self.pred.name} expects {self.pred.arity} args, got {len(self.args)}"
            )

    def negated(self) -> Literal:
        return Literal(self.pred, self.args, not self.positive)

    @property
    def atom(self) -> tuple:
        return (self.pred, self.args)

    def __repr__(self):
        return literal_str(self)


@dataclass(eq=False)
class Clause:
    """A disjunction of literals with search bookkeeping.

    Identity is by `id` (clauses are never structurally compared through
    __eq__; redundancy checks go through explicit variant/subsumption
    tests). `age` is the creation ordinal used by FIFO selection; input
    clauses get age == id. `goal_descendant` marks clauses derived (possibly
    transitively) from the negated conjecture, which the SOS-flavored
    selection tiers prefer.
    """

    id: int
    literals: tuple[Literal, ...]
    role: str = ROLE_AXIOM
    age: int = -1
    parents: tuple[int, ...] = ()
    rule: str = "input"
    origin: str | None = None  # name of the input formula this came from
    goal_descendant: bool = False

    def __post_init__(self):
        if self.age < 0:
            self.age = self.id
        if self.role == ROLE_DERIVED and not self.parents:
            raise ValueError("derived clause needs parents")
        if self.role != ROLE_DERIVED and self.parents:
            raise ValueError("input clause cannot have parents")
        if self.role == ROLE_NEGATED_CONJECTURE:
            self.goal_descendant = True

    @property
    def is_empty(self) -> bool:
        return not self.literals

    def __repr__(self):
        return f"Clause[{self.id}]({clause_str(self)})"


@dataclass
class Problem:
    name: str
    axioms: list[Clause]
    negated_conjecture: list[Clause]
    signature: set[Symbol] = field(default_factory=set)

    def __post_init__(self):
        if not self.signature:
            self.signature = collect_signature(self.clauses())

    def clauses(self) -> list[Clause]:
        return self.axioms + self.negated_conjecture

    def conjecture_symbols(self) -> set[Symbol]:
        """Function and predicate symbols occurring in the negated conjecture."""
        syms = collect_signature(self.negated_conjecture)
        return {s for s in syms if s.kind != VARIABLE}


# ---------------------------------------------------------------------------
# traversal helpers


def term_symbols(t: Term):
    yield t.sym
    for a in t.args:
        yield from term_symbols(a)


def clause_symbols(c: Clause):
    for lit in c.literals:
        yield lit.pred
        for a in lit.args:
            yield from term_symbols(a)


def collect_signature(clauses) -> set[Symbol]:
    sig = set()
    for c in clauses:
        sig.update(clause_symbols(c))
    return sig


def symbol_counts(c: Clause) -> tuple[int, int]:
    """(function/predicate occurrences, variable occurrences)."""
    fp = v = 0
    for s in clause_symbols(c):
        if s.kind == VARIABLE:
            v += 1
        else:
            fp += 1
    return fp, v


# ---------------------------------------------------------------------------
# canonical printing

FALSE_TOKEN = "$false"


def term_tokens(t: Term) -> list[str]:
    if not t.args:
        return [t.sym.name]
    toks = [t.sym.name, "("]
    for i, a in enumerate(t.args):
        if i:
            toks.append(",")
        toks.extend(term_tokens(a))
    toks.append(")")
    return toks


def literal_tokens(lit: Literal) -> list[str]:
    if lit.pred.name == EQ:
        op = "=" if lit.positive else "!="
        return term_tokens(lit.args[0]) + [op] + term_tokens(lit.args[1])
    toks = [] if lit.positive else ["~"]
    toks.append(lit.pred.name)
    if lit.args:
        toks.append("(")
        for i, a in enumerate(lit.args):
            if i:
                toks.append(",")
            toks.extend(term_tokens(a))
        toks.append(")")
    return toks


def clause_tokens(c: Clause) -> list[str]:
    """The clause's printed symbol stream (names, ~, |, parens, commas)."""
    if c.is_empty:
        return [FALSE_TOKEN]
    toks: list[str] = []
    for i, lit in enumerate(c.literals):
        if i:
            toks.append("|")
        toks.extend(literal_tokens(lit))
    return toks


def _lexes_as_name(name: str) -> bool:
    """Would the lexer read `name` back as one name (or defined name)?"""
    if name[0] == "$":
        return all(ch.isalnum() or ch == "_" for ch in name[1:])
    first = name[0]
    starts_name = first.isalpha() or first.isdigit() or first == "_"
    return (starts_name and not first.isupper()
            and all(ch.isalnum() or ch == "_" for ch in name))


@lru_cache(maxsize=4096)
def printed_name(name: str) -> str:
    """A function or predicate name as the printers write it: bare when it
    lexes back as a name, quoted otherwise (`'Foo'`, `'a b'`), so that
    printing never turns a constant into a variable."""
    return name if _lexes_as_name(name) else f"'{name}'"


def term_str(t: Term) -> str:
    if t.sym.kind == VARIABLE:
        return t.sym.name
    name = printed_name(t.sym.name)
    if not t.args:
        return name
    return f"{name}({','.join(term_str(a) for a in t.args)})"


def literal_str(lit: Literal) -> str:
    if lit.pred.name == EQ:
        op = "=" if lit.positive else "!="
        return f"{term_str(lit.args[0])} {op} {term_str(lit.args[1])}"
    sign = "" if lit.positive else "~"
    name = printed_name(lit.pred.name)
    if not lit.args:
        return f"{sign}{name}"
    return f"{sign}{name}({','.join(term_str(a) for a in lit.args)})"


def clause_str(c: Clause) -> str:
    if c.is_empty:
        return FALSE_TOKEN
    return " | ".join(literal_str(lit) for lit in c.literals)


def problem_str(p: Problem) -> str:
    """TPTP text for a problem (cnf form only)."""
    lines = []
    for c in p.axioms:
        name = printed_name(c.origin or f"c{c.id}")
        lines.append(f"cnf({name}, axiom, ({clause_str(c)})).")
    for c in p.negated_conjecture:
        name = printed_name(c.origin or f"c{c.id}")
        lines.append(f"cnf({name}, negated_conjecture, ({clause_str(c)})).")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# variable normalization

@lru_cache(maxsize=1024)
def _namespace_var(prefix: str, i: int) -> Term:
    """The variable term `<prefix><i+1>`, shared by every clause renamed
    into that namespace."""
    return Var(f"{prefix}{i + 1}")


def normalize_variables(c: Clause, prefix: str = "V") -> Clause:
    """Rename variables to V1, V2, ... (or `prefix`1, ...) in order of
    first occurrence.

    Idempotent; structure is otherwise untouched, and ground subterms are
    shared with `c`. Returns `c` itself when nothing changes. With the
    default prefix this keeps the token vocabulary bounded regardless of
    source variable names; the search uses other prefixes to put clauses
    into disjoint namespaces (see `saturation`).
    """
    mapping: dict[str, Term] = {}

    def rename(t: Term) -> Term:
        if t.args:
            args = tuple([rename(a) for a in t.args])
            if all(a is b for a, b in zip(args, t.args)):
                return t
            return Term(t.sym, args)
        if t.sym.kind != VARIABLE:
            return t
        v = mapping.get(t.sym.name)
        if v is None:
            v = mapping[t.sym.name] = _namespace_var(prefix, len(mapping))
        return t if v.sym.name == t.sym.name else v

    lits = []
    changed = False
    for l in c.literals:
        args = tuple([rename(a) for a in l.args])
        if all(a is b for a, b in zip(args, l.args)):
            lits.append(l)
        else:
            lits.append(Literal(l.pred, args, l.positive))
            changed = True
    return replace(c, literals=tuple(lits)) if changed else c


def rename_clause_apart(c: Clause, suffix: str) -> Clause:
    """Rename every variable by appending `suffix` (standardize apart)."""

    def rename(t: Term) -> Term:
        if t.is_var:
            return Var(t.sym.name + suffix)
        return Term(t.sym, tuple(rename(a) for a in t.args))

    lits = tuple(
        Literal(l.pred, tuple(rename(a) for a in l.args), l.positive)
        for l in c.literals
    )
    return replace(c, literals=lits)


def canonical_key(c: Clause) -> tuple:
    """A hashable key that is equal for clauses that are syntactic variants.

    A key is a pair of tuples. The first is the clause's variable-blind
    projection: per literal, its polarity, its predicate name and then the
    preorder of its argument terms, with every variable written as "" and
    every other symbol as its name. Literals appear in the order of a
    stable sort of their projections. The second tuple numbers the
    variables in that order by first occurrence. One walk over the clause
    builds both. Within one signature a name has one arity (the parser
    rejects anything else), so the key determines the clause up to
    variable renaming. Used for duplicate detection; near-misses (variants
    whose literals sort differently because equal projections keep their
    input order) are safe, they just dedup less.
    """
    blinds = []
    occurrences = []
    for lit in c.literals:
        toks: list = [lit.positive, lit.pred.name]
        names: list[str] = []
        for a in lit.args:
            _blind_walk(a, toks, names)
        blinds.append(tuple(toks))
        occurrences.append(names)
    flat: list = []
    numbers: dict[str, int] = {}
    pattern = []
    for i in sorted(range(len(blinds)), key=blinds.__getitem__):
        flat.extend(blinds[i])
        for name in occurrences[i]:
            k = numbers.get(name)
            if k is None:
                k = numbers[name] = len(numbers)
            pattern.append(k)
    return tuple(flat), tuple(pattern)


def _blind_walk(t: Term, toks: list, names: list[str]) -> None:
    sym = t.sym
    if sym.kind == VARIABLE:
        toks.append("")
        names.append(sym.name)
        return
    toks.append(sym.name)
    for a in t.args:
        _blind_walk(a, toks, names)
