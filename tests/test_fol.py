"""Terms, literals, clauses, printing, normalization."""

import copy
import pickle

import pytest

from satguide.fol import (
    FUNCTION,
    PREDICATE,
    ROLE_DERIVED,
    Clause,
    Literal,
    Problem,
    Symbol,
    Term,
    Var,
    canonical_key,
    clause_str,
    collect_signature,
    normalize_variables,
    normalize_variables_twice,
    normalized_str,
    printed_name,
    problem_str,
    symbol_record,
)
from satguide.parser import lex, parse_tptp

from oracles import clause_tokens


def lit(pred, *args, positive=True):
    return Literal(Symbol(pred, PREDICATE, len(args)), args, positive)


def c(name):
    return Term(Symbol(name, "function", 0))


def f(name, *args):
    return Term(Symbol(name, "function", len(args)), args)


class TestSymbolInterning:
    def test_equal_triples_give_one_object(self):
        s = Symbol("f", FUNCTION, 2)
        assert Symbol("f", FUNCTION, 2) is s
        assert Symbol("f", FUNCTION, 1) is not s
        assert Symbol("f", PREDICATE, 2) is not s
        assert Symbol("g", FUNCTION, 2) is not s

    def test_hash_is_the_triples(self):
        assert hash(Symbol("f", FUNCTION, 2)) == hash(("f", FUNCTION, 2))

    def test_pickle_and_copy_give_the_shared_object(self):
        s = Symbol("f", FUNCTION, 2)
        assert pickle.loads(pickle.dumps(s)) is s
        assert copy.copy(s) is s and copy.deepcopy(s) is s
        t = pickle.loads(pickle.dumps(f("f", Var("X"), c("a"))))
        assert t.sym is s and t.args[1].sym is Symbol("a", FUNCTION, 0)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Symbol("f", FUNCTION, 2).name = "g"


class TestInvariants:
    def test_variable_arity(self):
        with pytest.raises(ValueError):
            Symbol("X", "variable", 2)

    def test_empty_name(self):
        with pytest.raises(ValueError):
            Symbol("", "function", 0)

    def test_bad_symbol_is_not_interned(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                Symbol("Y", "variable", 1)

    def test_term_arity_checked(self):
        s = Symbol("f", "function", 2)
        with pytest.raises(ValueError):
            Term(s, (c("a"),))

    def test_literal_arity_checked(self):
        with pytest.raises(ValueError):
            Literal(Symbol("p", PREDICATE, 2), (c("a"),), True)

    def test_derived_needs_parents(self):
        with pytest.raises(ValueError):
            Clause(1, (lit("p", c("a")),), role="derived")

    def test_input_cannot_have_parents(self):
        with pytest.raises(ValueError):
            Clause(1, (lit("p", c("a")),), role="axiom", parents=(0,))

    def test_negated_conjecture_is_goal_descendant(self):
        cl = Clause(0, (lit("p", c("a")),), role="negated_conjecture")
        assert cl.goal_descendant


class TestPrinting:
    def test_clause_str(self):
        cl = Clause(0, (lit("p", Var("X")), lit("q", Var("X"), positive=False)))
        assert clause_str(cl) == "p(X) | ~q(X)"

    def test_empty_clause(self):
        assert clause_str(Clause(0, ())) == "$false"

    def test_equality_infix(self):
        cl = Clause(0, (lit("=", c("a"), c("b")),))
        assert clause_str(cl) == "a = b"
        cl2 = Clause(0, (lit("=", c("a"), c("b"), positive=False),))
        assert clause_str(cl2) == "a != b"

    def test_tokens_match_lexed_print(self):
        cl = Clause(
            0,
            (
                lit("p", f("g", Var("X"), c("a"))),
                lit("=", Var("X"), c("b"), positive=False),
                lit("q", positive=False),
            ),
        )
        printed = clause_str(normalize_variables(cl))
        lexed = [text for kind, text in lex(printed) if kind != "end"]
        assert clause_tokens(cl) == lexed
        assert "X" not in clause_tokens(cl) and "V1" in clause_tokens(cl)

    def test_symbol_counts(self):
        cl = Clause(0, (lit("p", f("g", Var("X"), c("a"))),))
        rec = symbol_record(cl)
        assert (rec.fp, rec.vars) == (3, 1)  # p, g, a / X


class TestNormalize:
    def test_first_occurrence_order(self):
        cl = Clause(0, (lit("p", Var("Y"), Var("X"), Var("Y")),))
        assert clause_str(normalize_variables(cl)) == "p(V1,V2,V1)"

    def test_ground_unchanged(self):
        cl = Clause(0, (lit("p", c("a")),))
        assert normalize_variables(cl) is cl

    def test_idempotent(self):
        cl = Clause(0, (lit("q", Var("Z"), Var("W")),))
        once = normalize_variables(cl)
        twice = normalize_variables(once)
        assert clause_str(once) == clause_str(twice) == "q(V1,V2)"

    def test_already_normal_is_noop(self):
        cl = Clause(0, (lit("q", Var("V1")),))
        assert clause_str(normalize_variables(cl)) == "q(V1)"

    def test_preserves_structure_up_to_renaming(self):
        cl = Clause(0, (lit("p", Var("A"), f("g", Var("B"))), lit("r", Var("A"))))
        norm = normalize_variables(cl)
        assert clause_str(norm) == "p(V1,g(V2)) | r(V1)"

    def test_printed_without_a_copy(self):
        cl = Clause(0, (lit("p", Var("B"), f("g", Var("A"), c("a"))), lit("r", Var("B"))))
        assert normalized_str(cl) == clause_str(normalize_variables(cl)) == \
            "p(V1,g(V2,a)) | r(V1)"
        assert normalized_str(Clause(1, ())) == "$false"

    def test_two_namespaces_in_one_walk(self):
        cl = Clause(3, (lit("p", Var("P2"), f("g", Var("G1"), c("a"))), lit("r", Var("P2"))),
                    role=ROLE_DERIVED, parents=(1, 2))
        kept, given = normalize_variables_twice(cl, "P", "G")
        assert clause_str(kept) == "p(P1,g(P2,a)) | r(P1)"
        assert clause_str(given) == "p(G1,g(G2,a)) | r(G1)"
        assert (kept.id, kept.parents, given.role) == (3, (1, 2), ROLE_DERIVED)
        ground = Clause(0, (lit("p", c("a")),))
        assert normalize_variables_twice(ground, "P", "G") == (ground, ground)


def key_of(*literals):
    return canonical_key(literals, frozenset())[0]


class TestCanonicalKey:
    def test_variants_share_key(self):
        assert key_of(lit("p", Var("X")), lit("q", Var("Y"))) == \
            key_of(lit("q", Var("A")), lit("p", Var("B")))

    def test_distinct_clauses_differ(self):
        assert key_of(lit("p", Var("X")), lit("p", Var("X"))) != \
            key_of(lit("p", Var("X")), lit("p", Var("Y")))

    def test_one_walk_gives_key_and_classes(self):
        conj = frozenset([Symbol("q", PREDICATE, 1), Symbol("a", FUNCTION, 0)])
        cl = Clause(0, (lit("q", f("g", Var("X"), c("a"))), lit("p", Var("Y"))))
        key, classes = canonical_key(cl.literals, conj)
        # literals sorted by projection, variables numbered in that order
        assert key == ((True, "p", "", True, "q", "g", "", "a"), (0, 1))
        assert classes == bytes([1, 2, 0, 1, 2, 0])
        # outside a search a clause is classified against no conjecture
        assert symbol_record(cl).classes == bytes([2, 2, 0, 2, 2, 0])


class TestProblem:
    def test_signature_collected(self):
        p = parse_tptp("cnf(a, axiom, (p(f(X), a))).", name="sig")
        names = {(s.name, s.kind) for s in p.signature}
        assert ("p", "predicate") in names
        assert ("f", "function") in names
        assert ("a", "function") in names
        assert ("X", "variable") in names

    def test_signature_walked_on_first_read(self):
        p = parse_tptp("cnf(a, axiom, (p(f(X), a))).", name="sig")
        assert "signature" not in vars(p)
        assert p.signature is p.signature
        assert p.signature == collect_signature(p.clauses())

    def test_conjecture_symbols_exclude_variables(self):
        p = parse_tptp(
            "cnf(a, axiom, (p(a))). cnf(g, negated_conjecture, (~q(X))).",
            name="cs",
        )
        names = {s.name for s in p.conjecture_symbols()}
        assert names == {"q"}

    def test_round_trip_via_print(self):
        text = """
        cnf(a1, axiom, (p(X) | ~q(g(X,a)))).
        cnf(a2, axiom, (a = b)).
        cnf(g1, negated_conjecture, (~p(b))).
        """
        p1 = parse_tptp(text, name="rt")
        printed = problem_str(p1)
        p2 = parse_tptp(printed, name="rt")
        assert problem_str(p2) == printed

    def test_names_that_would_not_lex_back_are_quoted(self):
        # unquoted, p('Foo') printed as p(Foo) and re-parsed as p(X)
        text = """
        cnf(a1, axiom, (p('Foo') | ~q('a b', X))).
        cnf('Goal', negated_conjecture, (~p(Y))).
        """
        p1 = parse_tptp(text, name="quoted")
        printed = problem_str(p1)
        assert "p('Foo')" in printed and "'a b'" in printed
        p2 = parse_tptp(printed, name="quoted")
        assert p2.signature == p1.signature
        assert problem_str(p2) == printed
        assert [c.origin for c in p2.clauses()] == ["a1", "Goal"]

    def test_bare_names_stay_bare(self):
        for name in ("a", "p_1", "0", "sk1", "$true"):
            assert printed_name(name) == name
        for name in ("Foo", "X", "a b", "f(x)"):
            assert printed_name(name) == f"'{name}'"

    def test_corpus_prints_unquoted_and_round_trips(self):
        from satguide.corpus import desk_corpus

        for item in desk_corpus(0):
            p = item.problem
            names = {s.name for s in p.signature if s.kind != "variable" and s.name != "="}
            names |= {c.origin for c in p.clauses()}
            assert all(printed_name(n) == n for n in names), item.name
            printed = problem_str(p)
            assert problem_str(parse_tptp(printed, name=item.name)) == printed
