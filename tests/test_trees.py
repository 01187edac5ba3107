"""Curried parse trees for the recursive models."""

from satguide.fol import Clause
from satguide.parser import parse_clause_text, parse_tptp
from satguide.trees import AND, APPLY, CHILD_COUNT, LEAF, NOT, OR, clause_tree


def clause_of(text, cid=0):
    return Clause(cid, parse_clause_text(text))


def tree(*texts):
    """The tree of the clauses `texts`, with symbol names as leaf ids."""
    return clause_tree([clause_of(t, i) for i, t in enumerate(texts)], lambda name: name)


def leaf(name):
    return (LEAF, name)


def nodes_of(node) -> list[tuple]:
    if node[0] == LEAF:
        return [node]
    return [node] + [n for child in node[1:] for n in nodes_of(child)]


def test_currying_binary_application():
    assert tree("p(a,b)") == (APPLY, (APPLY, leaf("p"), leaf("a")), leaf("b"))


def test_currying_nested_term():
    g_a = (APPLY, leaf("g"), leaf("a"))
    assert tree("p(g(a),b)") == (APPLY, (APPLY, leaf("p"), g_a), leaf("b"))


def test_constant_and_propositional_atom_are_leaves():
    assert tree("q") == leaf("q")
    assert tree("p(a)") == (APPLY, leaf("p"), leaf("a"))


def test_negated_literal():
    assert tree("~p(a)") == (NOT, (APPLY, leaf("p"), leaf("a")))


def test_or_fold_left():
    assert tree("p | ~q | r") == (OR, (OR, leaf("p"), (NOT, leaf("q"))), leaf("r"))


def test_conjecture_and_nodes():
    p = parse_tptp(
        "cnf(g1, negated_conjecture, (~p(a)))."
        "cnf(g2, negated_conjecture, (~q(b)))."
        "cnf(g3, negated_conjecture, (r | s)).",
    )
    not_pa = (NOT, (APPLY, leaf("p"), leaf("a")))
    not_qb = (NOT, (APPLY, leaf("q"), leaf("b")))
    assert clause_tree(p.negated_conjecture, lambda name: name) == \
        (AND, (AND, not_pa, not_qb), (OR, leaf("r"), leaf("s")))
    assert clause_tree(p.negated_conjecture[:1], lambda name: name) == not_pa


def test_variables_normalized_in_tree():
    # each clause is renamed on its own: q's Z is V1 again, not V3
    p_yxy = (APPLY, (APPLY, (APPLY, leaf("p"), leaf("V1")), leaf("V2")), leaf("V1"))
    assert tree("p(Y, X, Y)", "q(Z)") == (AND, p_yxy, (APPLY, leaf("q"), leaf("V1")))


def test_empty_clause_tree():
    assert clause_tree([Clause(0, ())], lambda name: name) == leaf("$false")
    assert clause_tree([], lambda name: name) == leaf("$false")
    assert tree("p", "$false") == (AND, leaf("p"), leaf("$false"))


def test_leaf_ids_come_from_lookup():
    ids = {"p": 4, "a": 7}
    assert clause_tree([clause_of("p(a) | p(b)")], lambda name: ids.get(name, 1)) == \
        (OR, (APPLY, (LEAF, 4), (LEAF, 7)), (APPLY, (LEAF, 4), (LEAF, 1)))


def test_node_count_structure():
    # node count = leaves + apply nodes (sum of arities) + or/not nodes
    cases = [
        ("p(a,b)", 3 + 2 + 0),          # leaves p,a,b; 2 applies
        ("~p(a)", 2 + 1 + 1),            # not node on top
        ("p(a) | q", 2 + 1 + 1 + 1),     # or + leaf q
        ("p(g(a),b)", 4 + 3),            # applies: p gets 2, g gets 1
    ]
    for text, expected in cases:
        assert len(nodes_of(tree(text))) == expected, text


def test_child_counts_validated():
    # the tree towers size each kind's weights by CHILD_COUNT
    for node in nodes_of(tree("~p(f(X), g(a, Y)) | q(Y) | ~r", "s(b)", "$false")):
        if node[0] != LEAF:
            assert len(node) - 1 == CHILD_COUNT[node[0]], node
        else:
            assert len(node) == 2


def test_every_node_is_a_distinct_object():
    # the tree towers memoise by id(node): a repeated symbol must still be
    # a node of its own
    nodes = nodes_of(tree("p(a,a) | p(a,a)", "p(a,a)"))
    assert len(nodes) == 17
    assert len({id(n) for n in nodes}) == len(nodes)
