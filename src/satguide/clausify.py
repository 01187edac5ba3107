"""Clausification: FOF formula trees to clausal normal form.

Pipeline: optional negation, implication/equivalence elimination, negation
normal form, implicit universal closure, standardizing variables apart,
skolemization (deterministic fresh symbols sk1, sk2, ... in clausification
order), distribution of | over &, clause splitting.

Distribution has no definitional (Tseitin) step, so a short formula can
have an exponential clausal form: a chain `p0 <=> p1 <=> ... <=> p6` has
335,877 clauses. `distribute` refuses a formula whose clausal form would
pass `MAX_FORMULA_CLAUSES` before it builds the clause list that would.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fol import (
    FUNCTION,
    Literal,
    Symbol,
    Term,
    Var,
)


# The most clauses the clausal form of one formula may have. A chain of six
# `<=>` has 2,619, one of seven 335,877, which take seconds to build, and
# longer ones exhaust memory; no formula the tests parse comes near.
MAX_FORMULA_CLAUSES = 10_000


class ClausalFormTooLarge(ValueError):
    """A formula whose clausal form would have more than
    `MAX_FORMULA_CLAUSES` clauses."""


# -- formula trees -----------------------------------------------------------


@dataclass(frozen=True)
class FAtom:
    lit: Literal


@dataclass(frozen=True)
class FNot:
    f: object


@dataclass(frozen=True)
class FAnd:
    a: object
    b: object


@dataclass(frozen=True)
class FOr:
    a: object
    b: object


@dataclass(frozen=True)
class FImpl:
    a: object
    b: object


@dataclass(frozen=True)
class FIff:
    a: object
    b: object


@dataclass(frozen=True)
class FForall:
    var: str
    body: object


@dataclass(frozen=True)
class FExists:
    var: str
    body: object


@dataclass(frozen=True)
class FTrue:
    pass


@dataclass(frozen=True)
class FFalse:
    pass


class SkolemNamer:
    """Deterministic sk<N> names, fresh with respect to a signature.

    The signature dict is shared with the parser so skolems introduced for
    one unit cannot collide with symbols appearing later in the input.
    """

    def __init__(self, by_name: dict[str, Symbol] | None = None):
        self.by_name = by_name if by_name is not None else {}
        self.counter = 0

    def fresh(self, arity: int) -> Symbol:
        while True:
            self.counter += 1
            name = f"sk{self.counter}"
            if name not in self.by_name:
                break
        sym = Symbol(name, FUNCTION, arity)
        self.by_name[name] = sym
        return sym


# -- transformation passes ----------------------------------------------------


def eliminate_connectives(f):
    """Rewrite => and <=> in terms of ~, &, |."""
    match f:
        case FImpl(a, b):
            return FOr(FNot(eliminate_connectives(a)), eliminate_connectives(b))
        case FIff(a, b):
            ea, eb = eliminate_connectives(a), eliminate_connectives(b)
            return FAnd(FOr(FNot(ea), eb), FOr(FNot(eb), ea))
        case FNot(g):
            return FNot(eliminate_connectives(g))
        case FAnd(a, b):
            return FAnd(eliminate_connectives(a), eliminate_connectives(b))
        case FOr(a, b):
            return FOr(eliminate_connectives(a), eliminate_connectives(b))
        case FForall(v, body):
            return FForall(v, eliminate_connectives(body))
        case FExists(v, body):
            return FExists(v, eliminate_connectives(body))
        case _:
            return f


def to_nnf(f, positive: bool = True):
    """Push negations to the atoms. Input must be connective-free."""
    match f:
        case FAtom(lit):
            return FAtom(lit) if positive else FAtom(lit.negated())
        case FNot(g):
            return to_nnf(g, not positive)
        case FAnd(a, b):
            node = FAnd if positive else FOr
            return node(to_nnf(a, positive), to_nnf(b, positive))
        case FOr(a, b):
            node = FOr if positive else FAnd
            return node(to_nnf(a, positive), to_nnf(b, positive))
        case FForall(v, body):
            node = FForall if positive else FExists
            return node(v, to_nnf(body, positive))
        case FExists(v, body):
            node = FExists if positive else FForall
            return node(v, to_nnf(body, positive))
        case FTrue():
            return FTrue() if positive else FFalse()
        case FFalse():
            return FFalse() if positive else FTrue()
        case _:
            raise TypeError(f"unexpected formula node {f!r}")


def free_variables(f, bound=frozenset()) -> list[str]:
    """Free variable names in order of first occurrence."""
    out: list[str] = []
    _free_walk(f, set(bound), out)
    return out


# The walks are module functions that take their state as arguments: a
# nested function that calls itself is a reference cycle.


def _free_walk(f, bound, out: list[str]) -> None:
    match f:
        case FAtom(lit):
            for a in lit.args:
                _term_vars(a, bound, out)
        case FNot(g):
            _free_walk(g, bound, out)
        case FAnd(a, b) | FOr(a, b):
            _free_walk(a, bound, out)
            _free_walk(b, bound, out)
        case FForall(v, body) | FExists(v, body):
            _free_walk(body, bound | {v}, out)
        case _:
            pass


def _term_vars(t: Term, bound, out: list[str]) -> None:
    if t.is_var:
        if t.sym.name not in bound and t.sym.name not in out:
            out.append(t.sym.name)
    else:
        for a in t.args:
            _term_vars(a, bound, out)


def _substitute(t: Term, env: dict[str, Term]) -> Term:
    if t.is_var:
        return env.get(t.sym.name, t)
    return Term(t.sym, tuple(_substitute(a, env) for a in t.args))


def skolemize(f, skolems: SkolemNamer):
    """Standardize apart and skolemize an NNF formula; drops quantifiers.

    Universal variables are renamed to fresh X1, X2, ...; each existential
    becomes a skolem function of the universals in scope.
    """
    closure = free_variables(f)
    for v in reversed(closure):
        f = FForall(v, f)
    return _skolem_walk(f, {}, (), skolems, [0])


def _skolem_walk(f, env: dict[str, Term], universals: tuple[Term, ...],
                 skolems: SkolemNamer, var_counter: list[int]):
    match f:
        case FAtom(lit):
            args = tuple(_substitute(a, env) for a in lit.args)
            return FAtom(Literal(lit.pred, args, lit.positive))
        case FAnd(a, b):
            return FAnd(_skolem_walk(a, env, universals, skolems, var_counter),
                        _skolem_walk(b, env, universals, skolems, var_counter))
        case FOr(a, b):
            return FOr(_skolem_walk(a, env, universals, skolems, var_counter),
                       _skolem_walk(b, env, universals, skolems, var_counter))
        case FForall(v, body):
            var_counter[0] += 1  # universals become X1, X2, ...
            x = Var(f"X{var_counter[0]}")
            return _skolem_walk(body, {**env, v: x}, universals + (x,), skolems, var_counter)
        case FExists(v, body):
            sk = skolems.fresh(len(universals))
            return _skolem_walk(body, {**env, v: Term(sk, universals)}, universals,
                                skolems, var_counter)
        case FTrue() | FFalse():
            return f
        case _:
            raise TypeError(f"unexpected node in NNF {f!r}")


def distribute(f) -> list[list[Literal]]:
    """Quantifier-free NNF to a list of clauses (lists of literals); raises
    `ClausalFormTooLarge` before it builds more than `MAX_FORMULA_CLAUSES`."""
    match f:
        case FAtom(lit):
            return [[lit]]
        case FTrue():
            return []
        case FFalse():
            return [[]]
        case FAnd(a, b):
            left, right = distribute(a), distribute(b)
            _check_clause_count(len(left) + len(right))
            return left + right
        case FOr(a, b):
            left, right = distribute(a), distribute(b)
            if not left or not right:  # a disjunct is valid
                return []
            _check_clause_count(len(left) * len(right))
            return [ca + cb for ca in left for cb in right]
        case _:
            raise TypeError(f"unexpected node after skolemization {f!r}")


def _check_clause_count(n: int) -> None:
    if n > MAX_FORMULA_CLAUSES:
        raise ClausalFormTooLarge(
            f"clausal form of over {MAX_FORMULA_CLAUSES} clauses ({n} at one connective)")


def _dedup(lits: list[Literal]) -> list[Literal]:
    seen = set()
    out = []
    for l in lits:
        key = (l.pred, l.args, l.positive)
        if key not in seen:
            seen.add(key)
            out.append(l)
    return out


def clausify(formula, negate: bool = False, skolems: SkolemNamer | None = None) -> list[tuple[Literal, ...]]:
    """Full pipeline; returns literal tuples (the parser wraps them in Clauses)."""
    if skolems is None:
        skolems = SkolemNamer()
    f = FNot(formula) if negate else formula
    f = eliminate_connectives(f)
    f = to_nnf(f)
    f = skolemize(f, skolems)
    return [tuple(_dedup(lits)) for lits in distribute(f)]
