"""First-order terms, literals, clauses and problems.

Everything here is plain immutable data. A clause is a disjunction of
literals; a literal is a possibly negated predicate application; terms are
variables or function applications. Equality is an ordinary binary
predicate named "=" (printed infix, no built-in equality reasoning).

The printed form of a clause is canonical: it round-trips through the
parser (a name that would not lex back as a name is printed quoted, so
`p('Foo')` never re-reads as `p(X)`), and the lexed token stream of a
variable-normalized clause is exactly what the tokenizer emits.

Symbols are interned: one object per (name, kind, arity), compared by
identity. The recursive walks are module functions that take their state
as arguments, never nested functions: a nested function that calls
itself is a reference cycle (function -> closure cell -> function) that
only the cyclic garbage collector frees, and the search and the corpus
build run with that collector paused (see `saturation.collector_paused`).

Each job on a clause has one walk. `canonical_key` gives the duplicate
key and the symbol classes of a `SymbolRecord` together, and is how the
search keys every clause it admits and classifies it against the
problem's conjecture symbols, once; the search keeps one record per
distinct class string. `symbol_record` reuses the walk for callers
outside a search, which have no conjecture. `normalize_variables_twice`
renames a clause into two variable namespaces, and `normalize_variables`
is its one-namespace case.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

FUNCTION = "function"
PREDICATE = "predicate"
VARIABLE = "variable"

ROLE_AXIOM = "axiom"
ROLE_NEGATED_CONJECTURE = "negated_conjecture"
ROLE_DERIVED = "derived"

EQ = "="


_set = object.__setattr__
_new = object.__new__


def _immutable(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is immutable; cannot change {name!r}")


class Symbol:
    """A function, predicate or variable symbol; immutable and interned.

    `Symbol(name, kind, arity)` returns one shared object per triple, so
    two symbols are equal exactly when they are one object and compare by
    identity. A new triple is validated once, when it is first made. The
    hash is computed at that point too, and is the value a dataclass over
    (name, kind, arity) would give: `hash((name, kind, arity))`. Set and
    dict iteration orders so do not depend on how the hash is computed.
    Unpickling and copying give back the shared object.
    """

    __slots__ = ("name", "kind", "arity", "_hash")

    def __new__(cls, name: str, kind: str, arity: int):
        key = (name, kind, arity)
        sym = _symbols.get(key)
        if sym is not None:
            return sym
        if not name:
            raise ValueError("symbol name must be nonempty")
        if kind == VARIABLE and arity != 0:
            raise ValueError(f"variable {name} must have arity 0")
        sym = _new(cls)
        _set(sym, "name", name)
        _set(sym, "kind", kind)  # function | predicate | variable
        _set(sym, "arity", arity)
        _set(sym, "_hash", hash(key))
        _symbols[key] = sym
        return sym

    __setattr__ = __delattr__ = _immutable

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Symbol, (self.name, self.kind, self.arity)

    def __repr__(self):
        return f"{self.name}/{self.arity}:{self.kind[0]}"


_symbols: dict[tuple[str, str, int], Symbol] = {}  # (name, kind, arity) -> its symbol


def var_symbol(name: str) -> Symbol:
    return Symbol(name, VARIABLE, 0)


class Term:
    """A variable (kind=variable, no args) or a function application;
    immutable.

    `is_var` is stored, and the hash is computed once, at construction,
    with the value a dataclass over (sym, args) would give:
    `hash((sym, args))`.
    """

    __slots__ = ("sym", "args", "is_var", "_hash")

    def __init__(self, sym: Symbol, args: tuple[Term, ...] = ()):
        if sym.kind == PREDICATE:
            raise ValueError(f"predicate {sym.name} used as a term")
        if len(args) != sym.arity:
            raise ValueError(
                f"{sym.name} expects {sym.arity} args, got {len(args)}"
            )
        _set(self, "sym", sym)
        _set(self, "args", args)
        _set(self, "is_var", sym.kind == VARIABLE)
        _set(self, "_hash", hash((sym, args)))

    __setattr__ = __delattr__ = _immutable

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Term:
            return NotImplemented
        return (self._hash == other._hash and self.sym is other.sym
                and self.args == other.args)

    def __reduce__(self):
        return Term, (self.sym, self.args)

    def __repr__(self):
        return term_str(self)


def Var(name: str) -> Term:
    return Term(var_symbol(name))


def rebuild_term(sym: Symbol, args: tuple[Term, ...]) -> Term:
    """`Term(sym, args)` from parts that were already validated: the
    symbol of an existing application and as many arguments as it had.
    Skips the kind and arity checks; used by substitution and renaming."""
    t = _new(Term)
    _set(t, "sym", sym)
    _set(t, "args", args)
    _set(t, "is_var", False)
    _set(t, "_hash", hash((sym, args)))
    return t


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
        return rebuild_literal(self.pred, self.args, not self.positive)

    def __repr__(self):
        return literal_str(self)


# the slot setters of `Literal`: called directly, they skip the name
# lookup of `object.__setattr__` on the search's hottest constructor
_set_pred, _set_args, _set_positive = (
    Literal.pred.__set__, Literal.args.__set__, Literal.positive.__set__)


def rebuild_literal(pred: Symbol, args: tuple[Term, ...], positive: bool) -> Literal:
    """`Literal(pred, args, positive)` from the predicate of an existing
    literal and as many arguments as it had; skips the checks."""
    lit = _new(Literal)
    _set_pred(lit, pred)
    _set_args(lit, args)
    _set_positive(lit, positive)
    return lit


@dataclass(eq=False, slots=True)
class Clause:
    """A disjunction of literals with search bookkeeping.

    Identity is by `id` (clauses are never structurally compared through
    __eq__; redundancy checks go through explicit variant/subsumption
    tests). `id` is also the creation ordinal that FIFO selection reads:
    a search keeps the caller's ids in every mode and numbers above them.
    `goal_descendant` marks clauses derived (possibly transitively) from
    the negated conjecture, which the SOS-flavored selection tiers prefer.
    `symbols` caches the clause's `SymbolRecord` (see `symbol_record`),
    which in a search is shared with every clause of equal symbol
    classes; a renamed copy shares it, since renaming keeps every symbol
    class, and `dataclasses.replace` starts the copy without one.
    """

    id: int
    literals: tuple[Literal, ...]
    role: str = ROLE_AXIOM
    parents: tuple[int, ...] = ()
    rule: str = "input"
    origin: str | None = None  # name of the input formula this came from
    goal_descendant: bool = False
    symbols: SymbolRecord | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
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


def _clause(cid: int, literals: tuple[Literal, ...], role: str, parents: tuple[int, ...],
            rule: str, origin: str | None, goal_descendant: bool,
            symbols: SymbolRecord | None) -> Clause:
    """A `Clause` from fields that are valid by construction; skips
    `__post_init__`, as `rebuild_term` skips the term checks. Its callers
    are `derived_clause` and `build_problem`; every other caller goes
    through `Clause(...)` and its checks."""
    c = _new(Clause)
    c.id = cid
    c.literals = literals
    c.role = role
    c.parents = parents
    c.rule = rule
    c.origin = origin
    c.goal_descendant = goal_descendant
    c.symbols = symbols
    return c


def derived_clause(cid: int, literals: tuple[Literal, ...], parents: tuple[int, ...],
                   rule: str, goal_descendant: bool, symbols: SymbolRecord | None) -> Clause:
    """`Clause(cid, literals, ROLE_DERIVED, parents, rule, None,
    goal_descendant)` with `symbols` cached, from parts that need no
    checks: a derived clause with its parents. Used by the search."""
    return _clause(cid, literals, ROLE_DERIVED, parents, rule, None, goal_descendant, symbols)


@dataclass
class Problem:
    name: str
    axioms: list[Clause]
    negated_conjecture: list[Clause]

    @cached_property
    def signature(self) -> set[Symbol]:
        """Every symbol of the clauses, variables included; walked on
        first read, so a problem that is never searched never walks it."""
        return collect_signature(self.clauses())

    def clauses(self) -> list[Clause]:
        return self.axioms + self.negated_conjecture

    def conjecture_symbols(self) -> frozenset[Symbol]:
        """Function and predicate symbols occurring in the negated
        conjecture: the set a search classifies every clause against."""
        syms = collect_signature(self.negated_conjecture)
        return frozenset(s for s in syms if s.kind != VARIABLE)


def build_problem(name: str, axioms: list[tuple[str | None, Sequence[Literal]]],
                  negated_conjecture: list[tuple[str | None, Sequence[Literal]]]) -> Problem:
    """A problem from (origin, literals) pairs: the axioms, then the
    negated-conjecture clauses, numbered from 0 in that order: the ids
    every search of the problem, a cascade level's too, reports them by.

    The clauses are what `Clause(id, tuple(literals), role,
    origin=origin)` builds, without its checks: an input clause has no
    parents, and exactly the negated-conjecture clauses descend from the
    goal. Literals already in a tuple are kept as that tuple, so problems
    built from shared parts share their literals."""
    ax = [_clause(i, tuple(lits), ROLE_AXIOM, (), "input", origin, False, None)
          for i, (origin, lits) in enumerate(axioms)]
    ncs = [_clause(len(ax) + i, tuple(lits), ROLE_NEGATED_CONJECTURE, (), "input", origin,
                   True, None)
           for i, (origin, lits) in enumerate(negated_conjecture)]
    return Problem(name, ax, ncs)


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


# classes of a SymbolRecord, one per symbol occurrence
VAR_CLASS, CONJ_CLASS, OTHER_CLASS = 0, 1, 2
NO_CONJECTURE: frozenset[Symbol] = frozenset()


class SymbolRecord:
    """The symbol occurrences of the clauses with one class string.

    `classes` holds one byte per occurrence in `clause_symbols` order:
    VAR_CLASS for a variable, CONJ_CLASS for a function or predicate
    symbol of the conjecture, OTHER_CLASS for any other. A search
    classifies every clause it admits against its problem's conjecture
    symbols (`canonical_key`) and keeps one record per distinct class
    string, which every clause of the search with those classes shares;
    a record belongs to one search. `fp` and `vars` count the
    function/predicate and the variable occurrences. `folds` keeps the
    weights the conjecture-relative weight functions folded from the
    classes, one per distinct triple of class weights, so a fold is made
    once per class string, not once per clause.
    """

    __slots__ = ("classes", "fp", "vars", "folds")

    def __init__(self, classes: bytes):
        self.classes = classes
        self.vars = classes.count(VAR_CLASS)
        self.fp = len(classes) - self.vars
        self.folds: dict[tuple[float, float, float], float] = {}


def symbol_record(c: Clause) -> SymbolRecord:
    """The `SymbolRecord` cached on `c`; a clause without one, which only
    a caller outside a search has, is classified against no conjecture by
    the `canonical_key` walk and keeps that record."""
    rec = c.symbols
    if rec is None:
        rec = c.symbols = SymbolRecord(canonical_key(c.literals, NO_CONJECTURE)[1])
    return rec


# ---------------------------------------------------------------------------
# canonical printing

FALSE_TOKEN = "$false"


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


def term_str(t: Term, var=None) -> str:
    """`t` printed; `var`, when given, maps a variable's name to the name
    printed for it."""
    if t.is_var:
        return t.sym.name if var is None else var(t.sym.name)
    name = printed_name(t.sym.name)
    if not t.args:
        return name
    return f"{name}({','.join([term_str(a, var) for a in t.args])})"


def literal_str(lit: Literal, var=None) -> str:
    if lit.pred.name == EQ:
        op = "=" if lit.positive else "!="
        return f"{term_str(lit.args[0], var)} {op} {term_str(lit.args[1], var)}"
    sign = "" if lit.positive else "~"
    name = printed_name(lit.pred.name)
    if not lit.args:
        return f"{sign}{name}"
    # `term_str` of each argument, a variable or constant printed in line
    args = ",".join([(a.sym.name if var is None else var(a.sym.name)) if a.is_var
                     else term_str(a, var) if a.args else printed_name(a.sym.name)
                     for a in lit.args])
    return f"{sign}{name}({args})"


def clause_str(c: Clause, var=None) -> str:
    if c.is_empty:
        return FALSE_TOKEN
    return " | ".join([literal_str(lit, var) for lit in c.literals])


def normalized_str(c: Clause) -> str:
    """`clause_str(normalize_variables(c))` without the renamed copy:
    variables are named V1, V2, ... in order of first occurrence as the
    walk prints them."""
    names: dict[str, str] = {}

    def var(name: str) -> str:
        v = names.get(name)
        if v is None:
            v = names[name] = f"V{len(names) + 1}"
        return v

    return clause_str(c, var)


def unit_name(c: Clause) -> str:
    """The name of a clause's input unit: its origin, or `c<id>`."""
    return c.origin or f"c{c.id}"


def problem_str(p: Problem) -> str:
    """TPTP text for a problem (cnf form only)."""
    lines = []
    for c in p.axioms:
        lines.append(f"cnf({printed_name(unit_name(c))}, axiom, ({clause_str(c)})).")
    for c in p.negated_conjecture:
        lines.append(f"cnf({printed_name(unit_name(c))}, negated_conjecture, "
                     f"({clause_str(c)})).")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# variable normalization

@lru_cache(maxsize=1024)
def _namespace_var(prefix: str, i: int) -> Term:
    """The variable term `<prefix><i+1>`, shared by every clause renamed
    into that namespace."""
    return Var(f"{prefix}{i + 1}")


def _copy_with(c: Clause, literals: tuple[Literal, ...]) -> Clause:
    """`c` with other literals; a renaming keeps its symbol record."""
    copy = Clause(c.id, literals, c.role, c.parents, c.rule, c.origin, c.goal_descendant)
    copy.symbols = c.symbols
    return copy


def normalize_variables(c: Clause, prefix: str = "V") -> Clause:
    """Rename variables to V1, V2, ... (or `prefix`1, ...) in order of
    first occurrence.

    Idempotent; structure is otherwise untouched, and ground subterms are
    shared with `c`. Returns `c` itself when nothing changes. With the
    default prefix this keeps the token vocabulary bounded regardless of
    source variable names; the search uses other prefixes to put clauses
    into disjoint namespaces (see `saturation`). The walk is the one of
    `normalize_variables_twice`, with both namespaces the same.
    """
    return normalize_variables_twice(c, prefix, prefix)[0]


def normalize_variables_twice(c: Clause, first: str, second: str) -> tuple[Clause, Clause]:
    """`(normalize_variables(c, first), normalize_variables(c, second))`
    from one walk over `c`."""
    if c.is_empty:
        return c, c
    index: dict[str, int] = {}
    return tuple([c if _same(lits, c.literals) else _copy_with(c, lits)
                  for lits in zip(*[_rename_literal_twice(l, index, first, second)
                                    for l in c.literals])])


def _rename_literal_twice(l: Literal, index: dict[str, int], first: str,
                          second: str) -> tuple[Literal, Literal]:
    """`l` renamed into both namespaces, its leaf arguments in line."""
    if not l.args:
        return l, l
    args1, args2 = [], []
    for t in l.args:
        if t.is_var:
            name = t.sym.name
            i = index.get(name)
            if i is None:
                i = index[name] = len(index)
            a, b = _namespace_var(first, i), _namespace_var(second, i)
            args1.append(t if a.sym.name == name else a)
            args2.append(t if b.sym.name == name else b)
        elif t.args:
            a, b = _rename_twice(t, index, first, second)
            args1.append(a)
            args2.append(b)
        else:
            args1.append(t)
            args2.append(t)
    return tuple([l if _same(args, l.args) else rebuild_literal(l.pred, tuple(args), l.positive)
                  for args in (args1, args2)])


def _rename_twice(t: Term, index: dict[str, int], first: str, second: str) -> tuple[Term, Term]:
    """`t` renamed into both namespaces; `index` numbers the variables in
    order of first occurrence."""
    if t.is_var:
        name = t.sym.name
        i = index.get(name)
        if i is None:
            i = index[name] = len(index)
        a, b = _namespace_var(first, i), _namespace_var(second, i)
        return (t if a.sym.name == name else a), (t if b.sym.name == name else b)
    if not t.args:
        return t, t
    return tuple([t if _same(args, t.args) else rebuild_term(t.sym, args)
                  for args in zip(*[_rename_twice(a, index, first, second) for a in t.args])])


def _same(new: tuple, old: tuple) -> bool:
    return all(x is y for x, y in zip(new, old))


def rename_clause_apart(c: Clause, suffix: str) -> Clause:
    """Rename every variable by appending `suffix` (standardize apart)."""
    lits = tuple([
        rebuild_literal(l.pred, tuple([_rename_apart(a, suffix) for a in l.args]), l.positive)
        for l in c.literals
    ])
    return _copy_with(c, lits)


def _rename_apart(t: Term, suffix: str) -> Term:
    if t.is_var:
        return Var(t.sym.name + suffix)
    return rebuild_term(t.sym, tuple([_rename_apart(a, suffix) for a in t.args]))


def _sorted_key(blinds: list[tuple], occurrences: list[list[str]]) -> tuple:
    """The key of literals with these blind projections and variable
    occurrences: projections in stable sorted order, then the variables
    numbered by first occurrence in that order."""
    if len(blinds) == 1:
        flat, names = blinds[0], occurrences[0]
    elif len(blinds) == 2:
        if blinds[1] < blinds[0]:
            flat, names = blinds[1] + blinds[0], occurrences[1] + occurrences[0]
        else:
            flat, names = blinds[0] + blinds[1], occurrences[0] + occurrences[1]
    else:
        parts: list = []
        names = []
        for i in sorted(range(len(blinds)), key=blinds.__getitem__):
            parts.extend(blinds[i])
            names.extend(occurrences[i])
        flat = tuple(parts)
    if not names:
        return flat, ()
    numbers: dict[str, int] = {}
    return flat, tuple([numbers.setdefault(name, len(numbers)) for name in names])


def canonical_key(literals: tuple[Literal, ...],
                  conj: frozenset[Symbol]) -> tuple[tuple, bytes]:
    """A hashable key that is equal for clauses with these literals that
    are syntactic variants, and the `classes` of their `SymbolRecord`
    against `conj`, from one walk.

    A key is a pair of tuples. The first is the clause's variable-blind
    projection: per literal, its polarity, its predicate name and then the
    preorder of its argument terms, with every variable written as "" and
    every other symbol as its name. Literals appear in the order of a
    stable sort of their projections. The second tuple numbers the
    variables in that order by first occurrence. Within one signature a
    name has one arity (the parser rejects anything else), so the key
    determines the clause up to variable renaming. Used for duplicate
    detection; near-misses (variants whose literals sort differently
    because equal projections keep their input order) are safe, they just
    dedup less.

    The projections and the classes visit the same preorder, so one pass
    over the terms gives both; the classes stay in literal order, the key
    sorts its literals afterwards.
    """
    blinds = []
    occurrences = []
    classes = bytearray()
    for lit in literals:
        pred = lit.pred
        toks: list = [lit.positive, pred.name]
        names: list[str] = []
        classes.append(CONJ_CLASS if pred in conj else OTHER_CLASS)
        for t in lit.args:  # `_key_walk`, one level inlined
            sym = t.sym
            if t.is_var:
                toks.append("")
                names.append(sym.name)
                classes.append(VAR_CLASS)
            else:
                toks.append(sym.name)
                classes.append(CONJ_CLASS if sym in conj else OTHER_CLASS)
                if t.args:
                    _key_walk(t.args, conj, toks, names, classes)
        blinds.append(tuple(toks))
        occurrences.append(names)
    return _sorted_key(blinds, occurrences), bytes(classes)


def _key_walk(args: tuple[Term, ...], conj: frozenset[Symbol], toks: list,
              names: list[str], classes: bytearray) -> None:
    for t in args:
        sym = t.sym
        if t.is_var:
            toks.append("")
            names.append(sym.name)
            classes.append(VAR_CLASS)
        else:
            toks.append(sym.name)
            classes.append(CONJ_CLASS if sym in conj else OTHER_CLASS)
            if t.args:
                _key_walk(t.args, conj, toks, names, classes)
