"""Robinson unification with occurs check, plus one-way matching.

Substitutions are dicts mapping variable names to Terms: a variable
symbol is fixed by its name, since its kind and arity are, and a name is
hashed in C where a Symbol is hashed by a Python call. Bindings may chain
(X -> Y, Y -> f(a)); `walk` and `apply_sub` follow chains.
"""

from __future__ import annotations

from .fol import Literal, Term, rebuild_literal, rebuild_term

Substitution = dict[str, Term]


def walk(t: Term, sub: Substitution) -> Term:
    """Follow variable bindings until a non-variable or unbound variable."""
    while t.is_var:
        bound = sub.get(t.sym.name)
        if bound is None:
            return t
        t = bound
    return t


def occurs(name: str, t: Term, sub: Substitution) -> bool:
    """Does the variable `name` occur in `t` under `sub`?"""
    t = walk(t, sub)
    if t.is_var:
        return t.sym.name == name
    return any(occurs(name, a, sub) for a in t.args)


def _unify(stack: list[tuple[Term, Term]], sub: Substitution) -> Substitution | None:
    """Unify every pair on `stack`, last first, extending `sub`.

    A pair's argument pairs go on top of the stack, so each pair is
    solved completely before the one below it. Pairs that are one object
    need nothing. The occurs check runs only when a variable is bound to
    a compound term: a constant or an unbound variable cannot contain it.
    """
    get = sub.get
    pop, extend = stack.pop, stack.extend
    while stack:
        a, b = pop()
        if a is b:
            continue
        while a.is_var:
            bound = get(a.sym.name)
            if bound is None:
                break
            a = bound
        while b.is_var:
            bound = get(b.sym.name)
            if bound is None:
                break
            b = bound
        if a is b:
            continue
        if a.is_var:
            name = a.sym.name
            if b.is_var:
                if b.sym.name == name:
                    continue
            elif b.args and occurs(name, b, sub):
                return None
            sub[name] = b
        elif b.is_var:
            if a.args and occurs(b.sym.name, a, sub):
                return None
            sub[b.sym.name] = a
        elif a.sym is not b.sym:
            return None
        else:
            extend(zip(a.args, b.args))
    return sub


def unify_atoms(l1: Literal, l2: Literal, sub: Substitution | None = None) -> Substitution | None:
    """The most general unifier of two literals' atoms that extends `sub`,
    ignoring polarity, or None.

    The argument pairs are solved left to right, each completely before
    the next. Pairs of leaves (variables and constants) are solved here,
    as `_unify` would solve them; at the first pair that holds a compound
    term, before or after following the bindings, this pair and the rest
    go to `_unify`.
    """
    if l1.pred is not l2.pred:
        return None
    if sub is None:
        sub = {}
    get = sub.get
    args1, args2 = l1.args, l2.args
    for i, a in enumerate(args1):
        b = args2[i]
        if a is b:
            continue
        while a.is_var:
            bound = get(a.sym.name)
            if bound is None:
                break
            a = bound
        while b.is_var:
            bound = get(b.sym.name)
            if bound is None:
                break
            b = bound
        if a.args or b.args:
            stack = list(zip(args1[i + 1 :], args2[i + 1 :]))
            stack.reverse()
            stack.append((a, b))
            return _unify(stack, sub)
        if a is b:
            continue
        if a.is_var:
            name = a.sym.name
            if not b.is_var or b.sym.name != name:
                sub[name] = b
        elif b.is_var:
            sub[b.sym.name] = a
        elif a.sym is not b.sym:
            return None
    return sub


def apply_sub(t: Term, sub: Substitution) -> Term:
    """`t` under `sub`; subterms that do not change are shared, and `t`
    itself comes back when nothing in it changes. A changed term is
    rebuilt from validated parts, without the constructor's checks."""
    if t.is_var:
        bound = sub.get(t.sym.name)
        return t if bound is None else apply_sub(bound, sub)
    args = t.args
    if not args:
        return t
    new = tuple([apply_sub(a, sub) for a in args])
    for x, y in zip(new, args):
        if x is not y:
            return rebuild_term(t.sym, new)
    return t


def apply_sub_literals(lits, sub: Substitution) -> tuple[Literal, ...]:
    """`lits` under `sub`: each literal whose arguments all stay as they
    are comes back itself, as `apply_sub` does for a term. Variable and
    constant arguments are handled in line; a variable bound to a leaf
    that `sub` leaves as it is (a constant or an unbound variable) takes
    that leaf as it is."""
    get = sub.get
    out = []
    for lit in lits:
        new = []
        changed = False
        for a in lit.args:
            if a.is_var:
                bound = get(a.sym.name)
                if bound is not None:
                    if bound.args or (bound.is_var and bound.sym.name in sub):
                        bound = apply_sub(bound, sub)
                    a = bound
                    changed = True
            elif a.args:
                b = apply_sub(a, sub)
                if b is not a:
                    a = b
                    changed = True
            new.append(a)
        out.append(rebuild_literal(lit.pred, tuple(new), lit.positive) if changed else lit)
    return tuple(out)


# -- one-way matching (for subsumption) ---------------------------------------


def _match(stack: list[tuple[Term, Term]], sub: Substitution) -> Substitution | None:
    """Extend `sub` in place so that pattern[sub] == target for every
    (pattern, target) pair on `stack`; targets are fixed."""
    get = sub.get
    pop, extend = stack.pop, stack.extend
    while stack:
        p, t = pop()
        if p.is_var:
            name = p.sym.name
            bound = get(name)
            if bound is None:
                sub[name] = t
            elif bound is not t and bound != t:
                return None
        elif t.is_var or p.sym is not t.sym:
            return None
        else:
            extend(zip(p.args, t.args))
    return sub


def match_literals(pattern: Literal, target: Literal, sub: Substitution | None = None) -> Substitution | None:
    """A copy of `sub` extended so that pattern[sub] == target, or None,
    for two literals of the same predicate and sign; target is fixed."""
    if pattern.positive != target.positive or pattern.pred is not target.pred:
        return None
    stack = list(zip(pattern.args, target.args))
    stack.reverse()
    return _match(stack, {} if sub is None else dict(sub))
