"""Curried parse trees for the tree-structured embedding models.

`clause_tree` builds the input the tree towers read (`models.embed_tree`)
in one walk over the clauses: nested tuples `(kind, child, ...)`, with
leaves `(LEAF, token id)`. All applications are curried: f(a,b) becomes
apply(apply(f,a),b), so every internal node has a fixed child count
(`CHILD_COUNT`: apply/or/and 2, not 1). `and` only appears when joining
the clauses of a negated conjecture.
"""

from __future__ import annotations

from .fol import Clause, Literal, Term, normalize_variables

APPLY = "apply"
OR = "or"
AND = "and"
NOT = "not"
LEAF = "leaf"

CHILD_COUNT = {APPLY: 2, OR: 2, AND: 2, NOT: 1}


def clause_tree(clauses: list[Clause], lookup) -> tuple:
    """The tree of a list of clauses, leaf ids from `lookup` (symbol name
    to token id): each clause's variables renamed V1, V2, ... and its
    literals left-folded under `or`, the clauses left-folded under `and`.
    An empty clause, or an empty list, is the `$false` leaf.

    Every node is a new tuple, so no two nodes share an `id`: the tree
    towers memoise a node's value by `id`, and a shared leaf would be
    evaluated, and its gradient summed, once for all its occurrences.
    """
    node = None
    for c in clauses:
        tree = _clause(normalize_variables(c), lookup)
        node = tree if node is None else (AND, node, tree)
    return (LEAF, lookup("$false")) if node is None else node


def _clause(c: Clause, lookup) -> tuple:
    if c.is_empty:
        return (LEAF, lookup("$false"))
    node = _literal(c.literals[0], lookup)
    for lit in c.literals[1:]:
        node = (OR, node, _literal(lit, lookup))
    return node


def _literal(lit: Literal, lookup) -> tuple:
    node = _applied(lit.pred.name, lit.args, lookup)
    return node if lit.positive else (NOT, node)


def _applied(name: str, args: tuple[Term, ...], lookup) -> tuple:
    node = (LEAF, lookup(name))
    for arg in args:
        node = (APPLY, node, _applied(arg.sym.name, arg.args, lookup))
    return node
