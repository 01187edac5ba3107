"""Clausification against a propositional truth-table oracle."""

import itertools

import numpy as np
import pytest

from satguide import clausify as cl
from satguide.fol import PREDICATE, Clause, Literal, Symbol, clause_str
from satguide.parser import parse_tptp


def clauses_of(formula, negate=False):
    return [Clause(i, lits) for i, lits in enumerate(cl.clausify(formula, negate=negate))]


def atom(name):
    return cl.FAtom(Literal(Symbol(name, PREDICATE, 0), (), True))


class TestPipeline:
    def test_implication(self):
        p = parse_tptp("fof(a, axiom, ![X]: (p(X) => q(X))).")
        assert [clause_str(c) for c in p.axioms] == ["~p(X1) | q(X1)"]

    def test_ground_skolemization(self):
        p = parse_tptp("fof(a, axiom, ?[X]: p(X)).")
        assert [clause_str(c) for c in p.axioms] == ["p(sk1)"]

    def test_negated_universal_yields_skolem_constant(self):
        clauses = clauses_of(
            cl.FForall("X", atom_of_var("p", "X")), negate=True
        )
        assert [clause_str(c) for c in clauses] == ["~p(sk1)"]

    def test_no_duplicates_within_clause(self):
        f = cl.FOr(atom("p"), atom("p"))
        clauses = clauses_of(f)
        assert [clause_str(c) for c in clauses] == ["p"]

    def test_distribution(self):
        # p | (q & r) -> (p|q) & (p|r)
        f = cl.FOr(atom("p"), cl.FAnd(atom("q"), atom("r")))
        strs = sorted(clause_str(c) for c in clauses_of(f))
        assert strs == ["p | q", "p | r"]

    def test_true_false_constants(self):
        assert clauses_of(cl.FTrue()) == []
        clauses = clauses_of(cl.FFalse())
        assert len(clauses) == 1 and clauses[0].is_empty

    def test_skolem_arity_matches_universal_depth(self):
        p = parse_tptp("fof(a, axiom, ![X]: ![Y]: ?[Z]: r(X, Y, Z)).")
        assert clause_str(p.axioms[0]) == "r(X1,X2,sk1(X1,X2))"


def atom_of_var(pred, var):
    from satguide.fol import Var

    return cl.FAtom(Literal(Symbol(pred, PREDICATE, 1), (Var(var),), True))


def eval_formula(f, env):
    match f:
        case cl.FAtom(lit):
            return env[lit.pred.name] == lit.positive
        case cl.FNot(g):
            return not eval_formula(g, env)
        case cl.FAnd(a, b):
            return eval_formula(a, env) and eval_formula(b, env)
        case cl.FOr(a, b):
            return eval_formula(a, env) or eval_formula(b, env)
        case cl.FImpl(a, b):
            return (not eval_formula(a, env)) or eval_formula(b, env)
        case cl.FIff(a, b):
            return eval_formula(a, env) == eval_formula(b, env)
        case cl.FTrue():
            return True
        case cl.FFalse():
            return False
    raise TypeError(f)


def eval_clauses(clauses, env):
    out = True
    for c in clauses:
        val = False
        for lit in c.literals:
            val = val or (env[lit.pred.name] == lit.positive)
        out = out and val
    return out


def random_formula(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.25:
        return atom(atoms[rng.integers(len(atoms))])
    k = rng.integers(5)
    if k == 0:
        return cl.FNot(random_formula(rng, atoms, depth - 1))
    a = random_formula(rng, atoms, depth - 1)
    b = random_formula(rng, atoms, depth - 1)
    return [cl.FAnd, cl.FOr, cl.FImpl, cl.FIff][k - 1](a, b)


class TestTruthTableOracle:
    """Quantifier-free clausification is an equivalence transformation;
    check it against brute-force truth tables."""

    def test_random_propositional_formulas(self):
        rng = np.random.default_rng(11)
        names = ["p", "q", "r", "s"]
        for _ in range(120):
            f = random_formula(rng, names, 4)
            clauses = clauses_of(f)
            for values in itertools.product([False, True], repeat=len(names)):
                env = dict(zip(names, values))
                assert eval_formula(f, env) == eval_clauses(clauses, env)

    def test_negated_formulas(self):
        rng = np.random.default_rng(13)
        names = ["p", "q", "r"]
        for _ in range(60):
            f = random_formula(rng, names, 3)
            clauses = clauses_of(f, negate=True)
            for values in itertools.product([False, True], repeat=len(names)):
                env = dict(zip(names, values))
                assert (not eval_formula(f, env)) == eval_clauses(clauses, env)


class TestStructuralInvariants:
    def test_no_nested_structure_in_output(self):
        # every output is a flat literal tuple by construction; spot-check
        # that quantified, nested input yields only literals
        p = parse_tptp(
            "fof(a, axiom, ![X]: ((p(X) & ?[Y]: r(X,Y)) => ~(q(X) <=> p(X)))).",
        )
        for c in p.axioms:
            for lit in c.literals:
                assert isinstance(lit, Literal)

    def test_standardize_apart_across_conjuncts(self):
        p = parse_tptp("fof(a, axiom, (![X]: p(X)) & (![X]: q(X))).")
        strs = {clause_str(c) for c in p.axioms}
        assert strs == {"p(X1)", "q(X2)"}


class TestClauseBound:
    @staticmethod
    def conjunction(prefix, n):
        f = atom(f"{prefix}0")
        for i in range(1, n):
            f = cl.FAnd(f, atom(f"{prefix}{i}"))
        return f

    def test_distribute_refuses_past_the_bound(self, monkeypatch):
        # at the bound the clauses are built; past it, by a product or a
        # sum, the connective is refused
        monkeypatch.setattr(cl, "MAX_FORMULA_CLAUSES", 12)
        assert len(cl.distribute(cl.FOr(self.conjunction("a", 3),
                                        self.conjunction("b", 4)))) == 12
        assert len(cl.distribute(self.conjunction("a", 12))) == 12
        for over in (cl.FOr(self.conjunction("a", 13), atom("b")),
                     cl.FOr(self.conjunction("a", 2), self.conjunction("b", 7)),
                     self.conjunction("a", 13)):
            with pytest.raises(cl.ClausalFormTooLarge, match="over 12 clauses"):
                cl.distribute(over)
