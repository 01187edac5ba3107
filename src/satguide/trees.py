"""Curried parse trees for the tree-structured embedding models.

All applications are curried: f(a,b) becomes apply(apply(f,a),b), so every
internal node has a fixed child count (apply/or/and: 2, not: 1). Leaves
are symbol names. `and` only appears when joining the clauses of a
negated conjecture.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fol import Clause, Literal, Term, normalize_variables

APPLY = "apply"
OR = "or"
AND = "and"
NOT = "not"
LEAF = "leaf"

CHILD_COUNT = {APPLY: 2, OR: 2, AND: 2, NOT: 1}


@dataclass(frozen=True)
class TreeNode:
    kind: str
    children: tuple["TreeNode", ...] = ()
    symbol: str | None = None  # leaves only

    def __post_init__(self):
        if self.kind == LEAF:
            if self.symbol is None or self.children:
                raise ValueError("leaf needs a symbol and no children")
        elif len(self.children) != CHILD_COUNT[self.kind]:
            raise ValueError(f"{self.kind} node needs {CHILD_COUNT[self.kind]} children")


def leaf(symbol: str) -> TreeNode:
    return TreeNode(LEAF, symbol=symbol)


def term_tree(t: Term) -> TreeNode:
    node = leaf(t.sym.name)
    for arg in t.args:
        node = TreeNode(APPLY, (node, term_tree(arg)))
    return node


def literal_tree(lit: Literal) -> TreeNode:
    node = leaf(lit.pred.name)
    for arg in lit.args:
        node = TreeNode(APPLY, (node, term_tree(arg)))
    if not lit.positive:
        node = TreeNode(NOT, (node,))
    return node


def clause_parse_tree(c: Clause, normalize: bool = True) -> TreeNode:
    """Binary tree for one clause; literals are left-folded under `or`."""
    if normalize:
        c = normalize_variables(c)
    if c.is_empty:
        return leaf("$false")
    node = literal_tree(c.literals[0])
    for lit in c.literals[1:]:
        node = TreeNode(OR, (node, literal_tree(lit)))
    return node


def conjecture_tree(clauses: list[Clause]) -> TreeNode:
    """Negated-conjecture clauses joined by `and` nodes (left fold)."""
    if not clauses:
        return leaf("$false")
    node = clause_parse_tree(clauses[0])
    for c in clauses[1:]:
        node = TreeNode(AND, (node, clause_parse_tree(c)))
    return node

