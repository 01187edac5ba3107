"""Curried parse trees for the recursive models."""

import pytest

from satguide.fol import Clause
from satguide.parser import parse_clause_text, parse_tptp
from satguide.trees import (
    AND,
    APPLY,
    LEAF,
    NOT,
    OR,
    TreeNode,
    clause_parse_tree,
    conjecture_tree,
)


def clause_of(text):
    return Clause(0, parse_clause_text(text))


def tree_leaves(node: TreeNode) -> list[str]:
    if node.kind == LEAF:
        return [node.symbol]
    return [s for ch in node.children for s in tree_leaves(ch)]


def contains_kind(node: TreeNode, kind: str) -> bool:
    return node.kind == kind or any(contains_kind(ch, kind) for ch in node.children)


def node_count(node: TreeNode) -> int:
    return 1 + sum(node_count(ch) for ch in node.children)


def test_currying_binary_application():
    tree = clause_parse_tree(clause_of("p(a,b)"))
    # apply(apply(p,a),b)
    assert tree.kind == APPLY
    assert tree.children[0].kind == APPLY
    assert tree.children[0].children[0].symbol == "p"
    assert tree.children[0].children[1].symbol == "a"
    assert tree.children[1].symbol == "b"


def test_negated_literal():
    tree = clause_parse_tree(clause_of("~p(a)"))
    assert tree.kind == NOT
    assert tree.children[0].kind == APPLY


def test_or_fold_left():
    tree = clause_parse_tree(clause_of("p | q | r"))
    assert tree.kind == OR
    assert tree.children[0].kind == OR
    assert tree.children[1].symbol == "r"


def test_conjecture_and_nodes():
    p = parse_tptp(
        "cnf(g1, negated_conjecture, (~p(a)))."
        "cnf(g2, negated_conjecture, (~q(b))).",
    )
    tree = conjecture_tree(p.negated_conjecture)
    assert tree.kind == AND
    assert not contains_kind(clause_parse_tree(p.negated_conjecture[0]), AND)


def test_variables_normalized_in_tree():
    tree = clause_parse_tree(clause_of("p(Y, X, Y)"))
    assert tree_leaves(tree) == ["p", "V1", "V2", "V1"]


def test_node_count_structure():
    # node count = leaves + apply nodes (sum of arities) + or/not nodes
    cases = [
        ("p(a,b)", 3 + 2 + 0),          # leaves p,a,b; 2 applies
        ("~p(a)", 2 + 1 + 1),            # not node on top
        ("p(a) | q", 2 + 1 + 1 + 1),     # or + leaf q
        ("p(g(a),b)", 4 + 3),            # applies: p gets 2, g gets 1
    ]
    for text, expected in cases:
        tree = clause_parse_tree(clause_of(text))
        assert node_count(tree) == expected, text


def test_child_counts_validated():
    with pytest.raises(ValueError):
        TreeNode(APPLY, (TreeNode(LEAF, symbol="a"),))
    with pytest.raises(ValueError):
        TreeNode(LEAF)


def test_empty_clause_tree():
    tree = clause_parse_tree(Clause(0, ()))
    assert tree.kind == LEAF and tree.symbol == "$false"
