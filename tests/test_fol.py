"""Terms, literals, clauses, printing, normalization."""

import pytest

from satguide.fol import (
    PREDICATE,
    Clause,
    Literal,
    Problem,
    Symbol,
    Term,
    Var,
    canonical_key,
    clause_str,
    clause_tokens,
    normalize_variables,
    printed_name,
    problem_str,
    symbol_counts,
)
from satguide.parser import lex, parse_tptp


def lit(pred, *args, positive=True):
    return Literal(Symbol(pred, PREDICATE, len(args)), args, positive)


def c(name):
    return Term(Symbol(name, "function", 0))


def f(name, *args):
    return Term(Symbol(name, "function", len(args)), args)


class TestInvariants:
    def test_variable_arity(self):
        with pytest.raises(ValueError):
            Symbol("X", "variable", 2)

    def test_empty_name(self):
        with pytest.raises(ValueError):
            Symbol("", "function", 0)

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
        printed = clause_str(cl)
        lexed = [t.text for t in lex(printed) if t.kind != "end"]
        assert clause_tokens(cl) == lexed

    def test_symbol_counts(self):
        cl = Clause(0, (lit("p", f("g", Var("X"), c("a"))),))
        assert symbol_counts(cl) == (3, 1)  # p, g, a / X


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


class TestCanonicalKey:
    def test_variants_share_key(self):
        c1 = Clause(0, (lit("p", Var("X")), lit("q", Var("Y"))))
        c2 = Clause(1, (lit("q", Var("A")), lit("p", Var("B"))))
        assert canonical_key(c1) == canonical_key(c2)

    def test_distinct_clauses_differ(self):
        c1 = Clause(0, (lit("p", Var("X")), lit("p", Var("X"))))
        c2 = Clause(1, (lit("p", Var("X")), lit("p", Var("Y"))))
        assert canonical_key(c1) != canonical_key(c2)


class TestProblem:
    def test_signature_collected(self):
        p = parse_tptp("cnf(a, axiom, (p(f(X), a))).", name="sig")
        names = {(s.name, s.kind) for s in p.signature}
        assert ("p", "predicate") in names
        assert ("f", "function") in names
        assert ("a", "function") in names
        assert ("X", "variable") in names

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
