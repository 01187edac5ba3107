"""TPTP parsing: the supported subset, errors, includes, the depth bound,
the clausal-form bound."""

import time
import tracemalloc

import pytest

from satguide.clausify import MAX_FORMULA_CLAUSES
from satguide.fol import clause_str, problem_str
from satguide.parser import (
    MAX_FORMULA_DEPTH,
    MAX_TERM_DEPTH,
    ParseError,
    parse_clause_text,
    parse_tptp,
)


class TestCnf:
    def test_two_literal_axiom(self):
        p = parse_tptp("cnf(c1, axiom, (p(X) | ~q(X))).")
        assert len(p.axioms) == 1
        assert len(p.axioms[0].literals) == 2
        assert clause_str(p.axioms[0]) == "p(X) | ~q(X)"

    def test_atomic_conjecture_negated(self):
        p = parse_tptp("fof(g, conjecture, p(a)).")
        assert len(p.negated_conjecture) == 1
        assert clause_str(p.negated_conjecture[0]) == "~p(a)"

    def test_unbalanced_paren_is_syntax_error(self):
        with pytest.raises(ParseError) as err:
            parse_tptp("cnf(c1, axiom, (p(X,Y)).")
        assert "line 1" in str(err.value)

    def test_unknown_role(self):
        with pytest.raises(ParseError) as err:
            parse_tptp("cnf(c1, nonsense, (p(a))).")
        assert "unknown role" in str(err.value)

    def test_arity_conflict(self):
        with pytest.raises(ParseError) as err:
            parse_tptp("cnf(c1, axiom, (p(a))). cnf(c2, axiom, (p(a,b))).")
        assert "reused" in str(err.value)

    def test_kind_conflict(self):
        with pytest.raises(ParseError):
            parse_tptp("cnf(c1, axiom, (p(a))). cnf(c2, axiom, (q(p(a)))).")

    def test_false_clause(self):
        p = parse_tptp("cnf(c, axiom, $false).")
        assert p.axioms[0].is_empty

    def test_equality_and_disequality(self):
        p = parse_tptp("cnf(c, axiom, (a = b | c != d)).")
        lits = p.axioms[0].literals
        assert lits[0].positive and not lits[1].positive
        assert lits[0].pred.name == "="

    def test_double_negation(self):
        p = parse_tptp("cnf(c, axiom, (~~p(a))).")
        assert p.axioms[0].literals[0].positive

    def test_hypothesis_role_becomes_axiom(self):
        p = parse_tptp("cnf(c, hypothesis, (p(a))).")
        assert p.axioms[0].role == "axiom"

    def test_error_location_column(self):
        with pytest.raises(ParseError) as err:
            parse_tptp("cnf(c1, axiom, (p(X) & q(X))).")
        assert err.value.line == 1
        assert err.value.col > 1

    @pytest.mark.parametrize("name", ["=", "$true", "''", "("])
    def test_bad_unit_name_rejected_at_its_token(self, name):
        with pytest.raises(ParseError) as err:
            parse_tptp(f"cnf(a, axiom, p(a)).\ncnf({name}, axiom, p(b)).")
        assert "expected unit name" in str(err.value)
        assert (err.value.line, err.value.col) == (2, 5)

    def test_integer_and_quoted_unit_names_accepted(self):
        p = parse_tptp("cnf(42, axiom, p(a)). cnf('a b', axiom, p(b)).")
        assert [c.origin for c in p.axioms] == ["42", "a b"]


class TestPositions:
    def test_column_after_multiline_block_comment(self):
        with pytest.raises(ParseError) as err:
            parse_tptp("cnf(a,axiom,p(a)).\n/* x\n  y */ cnf(b, axiom, @).")
        assert "unexpected character '@'" in str(err.value)
        assert (err.value.line, err.value.col) == (3, 22)

    def test_newline_inside_quoted_name_counts(self):
        with pytest.raises(ParseError) as err:
            parse_tptp("cnf('a\nb', axiom, @).")
        assert (err.value.line, err.value.col) == (2, 12)

    def test_end_of_input_after_trailing_comment(self):
        with pytest.raises(ParseError) as err:
            parse_tptp("cnf(a, axiom, p(a) % open")
        assert "found ''" in str(err.value)
        assert (err.value.line, err.value.col) == (1, 26)

    def test_conflict_located_at_reused_symbol(self):
        with pytest.raises(ParseError) as err:
            parse_tptp("cnf(a, axiom, p(f(a))).\n cnf(b, axiom, q(f)).")
        assert "'f' reused as function/0" in str(err.value)
        assert (err.value.line, err.value.col) == (2, 18)


class TestFof:
    def test_implication(self):
        p = parse_tptp("fof(a, axiom, ![X]: (p(X) => q(X))).")
        assert clause_str(p.axioms[0]) == "~p(X1) | q(X1)"

    def test_existential_skolemized(self):
        p = parse_tptp("fof(a, axiom, ?[X]: p(X)).")
        assert clause_str(p.axioms[0]) == "p(sk1)"

    def test_negated_universal_conjecture(self):
        p = parse_tptp("fof(g, conjecture, ![X]: p(X)).")
        assert clause_str(p.negated_conjecture[0]) == "~p(sk1)"

    def test_skolem_function_of_universals(self):
        p = parse_tptp("fof(a, axiom, ![X]: ?[Y]: r(X, Y)).")
        assert clause_str(p.axioms[0]) == "r(X1,sk1(X1))"

    def test_equivalence_two_clauses(self):
        p = parse_tptp("fof(a, axiom, p <=> q).")
        strs = sorted(clause_str(c) for c in p.axioms)
        assert strs == ["~p | q", "~q | p"]

    def test_conjunction_splits(self):
        p = parse_tptp("fof(a, axiom, p & q).")
        assert len(p.axioms) == 2

    def test_free_variables_universally_closed(self):
        p = parse_tptp("fof(a, axiom, p(X) => p(X)).")
        # tautology; the point is that it parses and closes X
        assert len(p.axioms[0].literals) == 2

    def test_skolems_fresh_against_signature(self):
        p = parse_tptp("cnf(c, axiom, (q(sk1))). fof(a, axiom, ?[X]: p(X)).")
        sk = clause_str(p.axioms[1])
        assert sk == "p(sk2)"

    def test_multiple_conjectures_conjoined(self):
        p = parse_tptp("fof(g1, conjecture, p(a)). fof(g2, conjecture, q(a)).")
        # ~(p & q) = ~p | ~q: one clause with two literals
        assert len(p.negated_conjecture) == 1
        assert clause_str(p.negated_conjecture[0]) == "~p(a) | ~q(a)"

    def test_cnf_conjecture_rejected(self):
        with pytest.raises(ParseError):
            parse_tptp("cnf(g, conjecture, (p(a))).")

    def test_cnf_conjecture_located_at_its_unit(self):
        with pytest.raises(ParseError) as err:
            parse_tptp("cnf(a, axiom, p).\n\ncnf(g, conjecture, q).")
        assert (err.value.line, err.value.col) == (3, 8)


class TestInclude:
    def test_single_level_include(self, tmp_path):
        (tmp_path / "ax.p").write_text("cnf(a, axiom, (p(a))).\n")
        text = "include('ax.p').\ncnf(g, negated_conjecture, (~p(a))).\n"
        p = parse_tptp(text, include_dir=str(tmp_path))
        assert len(p.axioms) == 1 and len(p.negated_conjecture) == 1

    def test_nested_include_rejected(self, tmp_path):
        (tmp_path / "inner.p").write_text("cnf(a, axiom, (p(a))).\n")
        (tmp_path / "outer.p").write_text("cnf(b, axiom, (q(a))).\ninclude('inner.p').\n")
        with pytest.raises(ParseError) as err:
            parse_tptp("include('outer.p').", include_dir=str(tmp_path))
        assert "'outer.p'" in str(err.value)
        assert (err.value.line, err.value.col) == (2, 1)

    def test_include_without_dir_located_at_its_unit(self):
        with pytest.raises(ParseError) as err:
            parse_tptp("cnf(a, axiom, p).\n  include('ax.p').")
        assert "include('ax.p') with no include dir" in str(err.value)
        assert (err.value.line, err.value.col) == (2, 3)


class TestClauseText:
    def test_round_trip(self):
        lits = parse_clause_text("p(V1,g(V2)) | ~q(V1) | V1 != V2")
        assert len(lits) == 3

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_clause_text("p(a) q(b)")

    def test_comments_ignored(self):
        p = parse_tptp("% header\ncnf(c, axiom, (p(a))). % trailing\n")
        assert len(p.axioms) == 1


class TestRoundTripCorpus:
    def test_generated_corpus_round_trips(self):
        from satguide.corpus import desk_corpus

        for item in desk_corpus(0)[::7]:
            printed = problem_str(item.problem)
            reparsed = parse_tptp(printed, name=item.name)
            assert problem_str(reparsed) == printed, item.name


def _nested(depth: int) -> str:
    """`f(...f(a)...)`, a term of depth `depth`."""
    return "f(" * (depth - 1) + "a" + ")" * (depth - 1)


# (text, offset of the outermost nested term): an atom counts as one
# level, and the sides of an equation are terms
DEEP = [
    (lambda d: f"cnf(deep, axiom, p({_nested(d - 1)})).", 17),
    (lambda d: f"cnf(deep, axiom, {_nested(d)} = b).", 17),
    (lambda d: f"fof(deep, conjecture, ![X]: q({_nested(d - 1)}, X)).", 28),
]


class TestDepth:
    @pytest.mark.parametrize("depth", [MAX_TERM_DEPTH - 1, MAX_TERM_DEPTH])
    @pytest.mark.parametrize("make, _", DEEP)
    def test_depth_up_to_the_bound_parses(self, make, _, depth):
        assert len(parse_tptp(make(depth)).clauses()) == 1

    @pytest.mark.parametrize("depth", [MAX_TERM_DEPTH + 1, 10 * MAX_TERM_DEPTH])
    @pytest.mark.parametrize("make, start", DEEP)
    def test_deeper_is_refused_at_the_first_term_past_the_bound(self, make, start, depth):
        with pytest.raises(ParseError) as err:
            parse_tptp(make(depth))
        assert f"term nested deeper than {MAX_TERM_DEPTH}" in str(err.value)
        # each level adds "f(": the token at level MAX_TERM_DEPTH + 1
        assert (err.value.line, err.value.col) == (1, start + 1 + 2 * MAX_TERM_DEPTH)

    def test_clause_text_is_bounded_too(self):
        assert parse_clause_text(f"p({_nested(MAX_TERM_DEPTH - 1)})")
        with pytest.raises(ParseError):
            parse_clause_text(f"p({_nested(10 * MAX_TERM_DEPTH)})")


# fof formulas of depth d, each with the column of the token where the
# parser finds depth MAX_FORMULA_DEPTH + 1 ("fof(deep, axiom, " is 17 wide)
FOF_DEEP = {
    "parentheses": (lambda d: "(" * (d - 1) + "p" + ")" * (d - 1), 18 + MAX_FORMULA_DEPTH),
    "negations": (lambda d: "~" * (d - 1) + "p", 18 + MAX_FORMULA_DEPTH),
    "quantifiers": (lambda d: "![X]: " * (d - 1) + "q(X)", 18 + 6 * MAX_FORMULA_DEPTH),
    # a chain is nested to the left: the operator that makes it too deep
    "disjunction": (lambda d: " | ".join(["p"] * d), 18 + 4 * MAX_FORMULA_DEPTH - 2),
    "implications": (lambda d: " => ".join(["p"] * d), 18 + 5 * MAX_FORMULA_DEPTH),
}


class TestFormulaDepth:
    @staticmethod
    def _unit(make, depth):
        return f"fof(deep, axiom, {make(depth)})."

    @pytest.mark.parametrize("depth", [MAX_FORMULA_DEPTH - 1, MAX_FORMULA_DEPTH])
    @pytest.mark.parametrize("shape", FOF_DEEP)
    def test_depth_up_to_the_bound_parses(self, shape, depth):
        make, _ = FOF_DEEP[shape]
        assert parse_tptp(self._unit(make, depth)).clauses()

    @pytest.mark.parametrize("depth", [MAX_FORMULA_DEPTH + 1, 10 * MAX_FORMULA_DEPTH])
    @pytest.mark.parametrize("shape", FOF_DEEP)
    def test_deeper_is_refused_where_it_gets_too_deep(self, shape, depth):
        make, col = FOF_DEEP[shape]
        with pytest.raises(ParseError) as err:
            parse_tptp(self._unit(make, depth))
        assert f"formula nested deeper than {MAX_FORMULA_DEPTH}" in str(err.value)
        assert (err.value.line, err.value.col) == (1, col)

    def test_bound_holds_with_the_deepest_term_inside(self):
        # both bounds at once still leave the parser and clausifier stack room
        atom = f"q({_nested(MAX_TERM_DEPTH - 1)})"
        deep = "(" * (MAX_FORMULA_DEPTH - 1) + "~" + atom + ")" * (MAX_FORMULA_DEPTH - 1)
        with pytest.raises(ParseError, match="formula nested deeper"):
            parse_tptp(f"fof(deep, axiom, {deep}).")
        deep = "(" * (MAX_FORMULA_DEPTH - 1) + atom + ")" * (MAX_FORMULA_DEPTH - 1)
        assert len(parse_tptp(f"fof(deep, conjecture, {deep}).").clauses()) == 1



def _iff_chain(n: int) -> str:
    return " <=> ".join(f"p{i}" for i in range(n))


def _conjunction(prefix: str, n: int) -> str:
    return "(" + " & ".join(f"{prefix}{i}" for i in range(n)) + ")"


class TestClausalFormBound:
    @pytest.mark.parametrize("n, clauses", [(4, 21), (5, 133), (6, 2619)])
    def test_short_chains_clausify_whole(self, n, clauses):
        assert len(parse_tptp(f"fof(a, axiom, {_iff_chain(n)}).").clauses()) == clauses

    @pytest.mark.parametrize("role", ["axiom", "conjecture"])
    @pytest.mark.parametrize("n", [7, 12])
    def test_longer_chains_are_refused_at_their_unit(self, n, role):
        # 335,877 clauses at n = 7: refused before they are built, so in
        # little time and memory
        text = (f"cnf(c, axiom, q).\nfof(b, {role}, q).\n"
                f"  fof(a, {role}, {_iff_chain(n)}).")
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as err:
                parse_tptp(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 10
        assert peak < 16 << 20
        assert f"clausal form of over {MAX_FORMULA_CLAUSES} clauses" in str(err.value)
        # conjectures are conjoined and negated together: the first one's unit
        assert (err.value.line, err.value.col) == ((3, 3) if role == "axiom" else (2, 1))

    def test_the_bound_is_inclusive(self):
        # 100 x 100 clauses are the bound; one more, by a product or a sum,
        # is refused
        square = f"{_conjunction('a', 100)} | {_conjunction('b', 100)}"
        assert len(parse_tptp(f"fof(a, axiom, {square}).").clauses()) == MAX_FORMULA_CLAUSES
        for over in (f"{_conjunction('a', 73)} | {_conjunction('b', 137)}",
                     f"({square}) & c"):
            with pytest.raises(ParseError, match=f"over {MAX_FORMULA_CLAUSES} clauses"):
                parse_tptp(f"fof(a, axiom, {over}).")

    def test_refused_in_an_included_file_where_it_stands(self, tmp_path):
        (tmp_path / "big.ax").write_text(f"fof(x, axiom, q).\nfof(y, axiom, {_iff_chain(7)}).\n")
        with pytest.raises(ParseError, match="clausal form") as err:
            parse_tptp("include('big.ax').\nfof(g, conjecture, q).", include_dir=str(tmp_path))
        assert (err.value.line, err.value.col) == (2, 1)


def _shape(f) -> str:
    """A fof formula tree in prefix form, atoms by predicate name."""
    from satguide import clausify as cl

    if isinstance(f, cl.FAtom):
        return f.lit.pred.name
    if isinstance(f, (cl.FForall, cl.FExists)):
        return f"{type(f).__name__[1:].lower()} {f.var}: {_shape(f.body)}"
    if isinstance(f, cl.FNot):
        return f"not({_shape(f.f)})"
    name = {cl.FAnd: "and", cl.FOr: "or", cl.FImpl: "impl", cl.FIff: "iff"}[type(f)]
    return f"{name}({_shape(f.a)}, {_shape(f.b)})"


@pytest.mark.parametrize("text, shape", [
    ("a | b & c", "or(a, and(b, c))"),
    ("a & b | c", "or(and(a, b), c)"),
    ("a & b & c", "and(and(a, b), c)"),
    ("a | b | c", "or(or(a, b), c)"),
    ("a => b => c", "impl(a, impl(b, c))"),
    ("a | b => c & d", "impl(or(a, b), and(c, d))"),
    ("a => b & c => d", "impl(a, impl(and(b, c), d))"),
    ("a <=> b => c", "iff(a, impl(b, c))"),
    ("a => b <=> c", "iff(impl(a, b), c)"),
    ("a <=> b <~> c", "not(iff(iff(a, b), c))"),
    ("~a & ~~b", "and(not(a), not(not(b)))"),
    ("![X]: p(X) & q", "and(forall X: p, q)"),
    ("?[X, Y]: (p(X) | q) => r", "impl(exists X: exists Y: or(p, q), r)"),
])
def test_fof_connectives_bind_by_precedence(text, shape):
    from satguide.parser import _Parser

    [(_, _, _, formula)] = _Parser(f"fof(u, axiom, {text}).", {}).parse_units()
    assert _shape(formula) == shape
