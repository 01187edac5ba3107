"""Unification, resolution, factoring, subsumption."""

import pytest

from satguide.fol import Clause, Literal, PREDICATE, Symbol, Term, Var, clause_str
from satguide.parser import parse_clause_text
from satguide.rules import (
    factor,
    is_tautology,
    is_variant,
    resolve,
    standardized_apart,
    subsumes,
)
from satguide.unify import apply_sub, clause_variables, match_terms, unify_terms


def clause_of(text, cid=0):
    return Clause(cid, parse_clause_text(text))


def strs(literal_tuples):
    return sorted(clause_str(Clause(0, lits) if lits else Clause(0, ())) for lits in literal_tuples)


def c(name):
    return Term(Symbol(name, "function", 0))


def f(name, *args):
    return Term(Symbol(name, "function", len(args)), args)


class TestUnify:
    def test_var_binds_constant(self):
        sub = unify_terms(Var("X"), c("a"))
        assert apply_sub(Var("X"), sub) == c("a")

    def test_function_decomposition(self):
        sub = unify_terms(f("g", Var("X"), c("b")), f("g", c("a"), Var("Y")))
        assert apply_sub(Var("X"), sub) == c("a")
        assert apply_sub(Var("Y"), sub) == c("b")

    def test_occurs_check(self):
        assert unify_terms(Var("X"), f("g", Var("X"))) is None

    def test_clash(self):
        assert unify_terms(c("a"), c("b")) is None

    def test_chained_bindings(self):
        sub = unify_terms(Var("X"), Var("Y"))
        sub = unify_terms(Var("Y"), c("a"), sub)
        assert apply_sub(Var("X"), sub) == c("a")

    def test_match_is_one_way(self):
        assert match_terms(Var("X"), f("g", c("a"))) is not None
        assert match_terms(f("g", c("a")), Var("X")) is None

    def test_match_consistency(self):
        assert match_terms(f("g", Var("X"), Var("X")), f("g", c("a"), c("b"))) is None


class TestResolve:
    def test_unit_resolution(self):
        out = resolve(clause_of("p(X)"), clause_of("~p(a) | q(a)", 1))
        assert strs(out) == ["q(a)"]

    def test_unification_failure(self):
        assert resolve(clause_of("p(a)"), clause_of("~p(b)", 1)) == []

    def test_standardize_apart_gives_empty_clause(self):
        # p(X) against ~p(f(X)): after renaming apart the atoms unify
        out = resolve(*standardized_apart(clause_of("p(X)"), clause_of("~p(f(X))", 1)))
        assert len(out) == 1 and out[0] == ()

    def test_shared_variable_is_one_variable(self):
        # resolve renames nothing: X shared by both clauses is one variable
        assert resolve(clause_of("p(X)"), clause_of("~p(f(X))", 1)) == []

    def test_standardized_apart_copies_are_disjoint(self):
        a, b = standardized_apart(clause_of("p(X) | q(Y)"), clause_of("~p(X)", 1))
        assert not clause_variables(a) & clause_variables(b)
        assert is_variant(a, clause_of("p(X) | q(Y)"))

    def test_multiple_resolvents(self):
        out = resolve(clause_of("p(a) | p(b)"), clause_of("~p(X)", 1))
        assert len(out) == 2

    def test_self_resolution(self):
        cl = clause_of("p(X) | ~p(f(X))")
        out = resolve(*standardized_apart(cl, cl))
        assert out  # p(X) vs ~p(f(X')) unifies after renaming


class TestFactor:
    def test_merge_under_substitution(self):
        out = factor(clause_of("p(X) | p(a)"))
        assert strs(out) == ["p(a)"]

    def test_no_unifiable_pair(self):
        assert factor(clause_of("p(a) | q(a)")) == []

    def test_shared_variable(self):
        out = factor(clause_of("p(X) | p(Y) | q(X)"))
        assert "p(Y) | q(Y)" in strs(out) or "p(X) | q(X)" in strs(out)

    def test_opposite_polarity_not_factored(self):
        assert factor(clause_of("p(X) | ~p(Y)")) == []


class TestSubsumes:
    def test_unit_subsumes_superset_instance(self):
        assert subsumes(clause_of("p(X)"), clause_of("p(a) | q(b)", 1))

    def test_ground_does_not_subsume_general(self):
        assert not subsumes(clause_of("p(a)"), clause_of("p(X)", 1))

    def test_injective_matching(self):
        # p(X) | p(Y) does not subsume p(a): two literals need two targets
        assert not subsumes(clause_of("p(X) | p(Y)"), clause_of("p(a)", 1))

    def test_same_clause_subsumes_itself(self):
        assert subsumes(clause_of("p(X) | q(X)"), clause_of("p(Y) | q(Y)", 1))

    def test_polarity_respected(self):
        assert not subsumes(clause_of("p(X)"), clause_of("~p(a)", 1))

    def test_shared_variable_names_need_no_renaming(self):
        # matching binds only the pattern's variables, never the target's
        assert subsumes(clause_of("p(X,Y)"), clause_of("p(Y,X)", 1))
        assert subsumes(clause_of("p(X,Y)"), clause_of("p(Y,a)", 1))
        assert not subsumes(clause_of("p(X,X)"), clause_of("p(X,Y)", 1))

    def test_shared_binding_across_literals(self):
        assert subsumes(clause_of("p(X) | q(X)"), clause_of("p(a) | q(a) | r(b)", 1))
        assert not subsumes(clause_of("p(X) | q(X)"), clause_of("p(a) | q(b)", 1))


class TestVariantAndTautology:
    def test_variant(self):
        assert is_variant(clause_of("p(X) | q(Y)"), clause_of("p(A) | q(B)", 1))

    def test_not_variant_when_collapsed(self):
        assert not is_variant(clause_of("p(X) | p(Y)"), clause_of("p(Z) | p(Z)", 1))

    def test_tautology(self):
        assert is_tautology(clause_of("p(a) | ~p(a)"))
        assert not is_tautology(clause_of("p(a) | ~p(b)"))
        assert not is_tautology(clause_of("p(X) | ~p(a)"))
