"""TPTP-subset parser: cnf/fof annotated formulas.

Supported roles: axiom, hypothesis, definition, lemma, theorem (all read
as axioms), conjecture (negated then clausified), negated_conjecture.
Equality appears infix (`s = t`, `s != t`) and becomes the ordinary
binary predicate "=". `include('file').` is resolved one level deep.

A text whose units are all flat cnf units takes a fast path: one
regular-expression match per unit, each anchored where the last one
ended. A flat unit is `cnf(name, role, (lit | ... | lit)).`, the body
parenthesised or not, where each literal is an optionally negated
predicate over variables and constants, and only spaces, tabs and line
breaks stand between tokens. `fol.problem_str` prints a problem in this
form when its terms are flat, its names need no quotes and it has no
equality and no empty clause. Any other text goes whole, from its start,
to the lexer and the recursive-descent parser: `fof`, `include`, nested
terms, `=`, `$false`, comments, quoted names, a symbol conflict, a bad
role or trailing input. So every `ParseError` comes from the recursive
parser.

The lexer is one regular-expression scan over the text, and tokens are
(kind, text) pairs. Errors carry the line and column of the offending
token, worked out from its offset only when the error is raised. A symbol
reused with a different arity or kind is an error anywhere in the input,
and so is a term nested deeper than `MAX_TERM_DEPTH` or a fof formula
nested deeper than `MAX_FORMULA_DEPTH`. A fof unit whose clausal form
would pass `clausify.MAX_FORMULA_CLAUSES` is an error at its first token.
"""

from __future__ import annotations

import os
import re

from . import clausify as cl
from .fol import (
    EQ,
    FUNCTION,
    PREDICATE,
    Literal,
    Problem,
    Symbol,
    Term,
    Var,
    build_problem,
    rebuild_literal,
    var_symbol,
)

AXIOM_LIKE_ROLES = {"axiom", "hypothesis", "definition", "lemma", "theorem", "plain"}
KNOWN_ROLES = AXIOM_LIKE_ROLES | {"conjecture", "negated_conjecture"}

# The deepest term or atom the parser accepts. A variable, a constant and
# a propositional atom have depth 1; `f(t1, ..., tn)` and `p(t1, ..., tn)`
# have one more than their deepest argument, and the two sides of an
# equation are terms. Term walks across the system recurse once per level,
# and a search on an input about 360 deep runs out of stack, so this keeps
# well below that and leaves derived terms room to grow. The fast path
# reads atoms of depth at most 2, so the bound holds on both paths.
MAX_TERM_DEPTH = 200

# The deepest fof formula the parser accepts. An atom, `$true` and `$false`
# have depth 1; `~f`, a parenthesised `(f)` and each variable a quantifier
# binds add one to the depth of f; a binary connective has one more than
# its deeper operand, and a chain `a | b | c` is `(a | b) | c`. The parser
# recurses at most twice per level, and the clausifier's walks once per
# level, so the bound keeps both, with a term of `MAX_TERM_DEPTH` inside,
# well inside the stack.
MAX_FORMULA_DEPTH = 200

# binary fof connectives by precedence, loosest first; `=>` groups to the
# right, the others to the left
_FOF_PRECEDENCE = {"<=>": 1, "<~>": 1, "=>": 2, "|": 3, "&": 4}


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


# A token is a (kind, text) pair; kind is name | var | defined | punct | end.
# The text of a quoted name is what stands between its quotes.
Token = tuple[str, str]

# Whitespace is " \t\r\n" only (not `\s`); `%` comments run to the end of
# the line; `/* */` comments do not nest.
_SKIP = r"(?:[ \t\r\n]+|%[^\n]*|/\*.*?\*/)*"
_SKIP_RE = re.compile(_SKIP, re.DOTALL)
# One match per token: the token, then the whitespace and comments up to
# the next one. The last match is the empty end of the text. A word that
# does not start with an ASCII letter, digit or `_` goes to the `word`
# group, whose first character is checked in Python: `\w` also takes
# characters such as `½` that may go on a word but not start one. `bad` is
# any other character.
_TOKEN_RE = re.compile(r"""(?:
    (<=>|<~>|=>|!=|[()\[\],.:|&~!?=])   # punct, two-character ones first
  | ([A-Z]\w*)                          # var
  | ([a-z0-9_]\w*)                      # name
  | (\$\w*)                             # defined
  | ('[^']*')                           # quoted name
  | (\w+)                               # word
  | (/\*|.)                             # bad: an open comment is unterminated
  | \Z)""" + _SKIP, re.VERBOSE | re.DOTALL)


def lex(text: str) -> list[Token]:
    """The tokens of `text`, ending with ("end", "")."""
    toks: list[Token] = []
    add = toks.append
    start = _SKIP_RE.match(text).end()
    for punct, var, name, defined, quoted, word, bad in _TOKEN_RE.findall(text, start):
        if punct:
            add(("punct", punct))
        elif name:
            add(("name", name))
        elif var:
            add(("var", var))
        elif defined:
            add(("defined", defined))
        elif quoted:
            add(("name", quoted[1:-1]))
        elif word and (word[0].isalpha() or word[0].isdigit()):
            add(("var" if word[0].isupper() else "name", word))
        elif word or bad:
            raise _lex_error(text, len(toks), word, bad)
        else:
            add(("end", ""))
    return toks


def token_positions(text: str) -> list[tuple[int, int]]:
    """(line, column) of each token `lex` returns for `text`, worked out
    from the offsets of a second scan. Only errors need them."""
    out = []
    line, line_start, last = 1, 0, 0
    for m in _TOKEN_RE.finditer(text, _SKIP_RE.match(text).end()):
        at = m.start()
        newlines = text.count("\n", last, at)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", last, at) + 1
        out.append((line, at - line_start + 1))
        last = at
    return out


def _lex_error(text: str, index: int, word: str, bad: str) -> ParseError:
    if bad == "/*":
        message = "unterminated comment"
    elif bad == "'":
        message = "unterminated quoted name"
    else:
        message = f"unexpected character {(word or bad)[0]!r}"
    return ParseError(message, *token_positions(text)[index])


def _symbol(symbols: dict[str, Symbol], name: str, kind: str, arity: int) -> Symbol | None:
    """The symbol `name` as a kind/arity, entered in `symbols` on first
    use; None when `symbols` already has `name` as another kind or arity."""
    sym = symbols.get(name)
    if sym is None:
        sym = symbols[name] = Symbol(name, kind, arity)
    elif sym.kind != kind or sym.arity != arity:
        return None
    return sym


class _Parser:
    """Recursive descent over the tokens of one text. `symbols` maps each
    name to its symbol; reusing a name with another kind or arity is an
    error. Positions are token indices, turned into a line and column
    only for an error."""

    def __init__(self, text: str, symbols: dict[str, Symbol],
                 include_dir: str | None = None, included: str | None = None):
        self.text = text
        self.toks = lex(text)
        self.pos = 0
        self.symbols = symbols
        self.include_dir = include_dir
        self.included = included  # the include file this text was read from
        self.starts: list[int] = []  # the first token of each unit read

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> str:
        """The text of the current token."""
        return self.toks[self.pos][1]

    def peek_kind(self) -> str:
        return self.toks[self.pos][0]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def error(self, message: str, at: int) -> ParseError:
        """A ParseError located at token number `at`."""
        return ParseError(message, *token_positions(self.text)[at])

    def expect(self, text: str):
        found = self.next()[1]
        if found != text:
            raise self.error(f"expected {text!r}, found {found!r}", self.pos - 1)

    def fail(self, msg: str):
        raise self.error(msg, self.pos)

    def symbol(self, name: str, kind: str, arity: int, at: int) -> Symbol:
        """The symbol `name` as a kind/arity; token `at` locates a conflict."""
        sym = _symbol(self.symbols, name, kind, arity)
        if sym is None:
            sym = self.symbols[name]
            raise self.error(
                f"symbol {name!r} reused as {kind}/{arity}, "
                f"previously {sym.kind}/{sym.arity}",
                at,
            )
        return sym

    # -- annotated formulas ------------------------------------------------

    def parse_units(self) -> list[tuple[str, str, str, object]]:
        """Returns (lang, name, role, payload) tuples; payload is a literal
        tuple list for cnf and a formula tree for fof. `starts` gets the
        index of each unit's first token, to locate a later error."""
        units = []
        while self.peek_kind() != "end":
            self.starts.append(self.pos)
            text = self.peek()
            if text == "include":
                units.append(self.parse_include())
                continue
            if text not in ("cnf", "fof"):
                self.fail(f"expected cnf/fof/include, found {text!r}")
            lang = self.next()[1]
            self.expect("(")
            kind, name = self.next()
            if kind not in ("name", "var") or not name:
                raise self.error("expected unit name", self.pos - 1)
            self.expect(",")
            role = self.next()[1]
            if role not in KNOWN_ROLES:
                raise self.error(f"unknown role {role!r}", self.pos - 1)
            if lang == "cnf" and role == "conjecture":
                raise self.error("cnf units cannot carry role 'conjecture'; "
                                 "use negated_conjecture", self.pos - 1)
            self.expect(",")
            if lang == "cnf":
                payload: object = self.parse_cnf_formula()
            else:
                payload = self.parse_fof_formula()[0]
            self.expect(")")
            self.expect(".")
            units.append((lang, name, role, payload))
        return units

    def parse_include(self):
        at = self.pos
        self.expect("include")
        self.expect("(")
        kind, path = self.next()
        if kind != "name":
            raise self.error("expected file name", self.pos - 1)
        self.expect(")")
        self.expect(".")
        if self.included is not None:
            raise self.error(f"nested include not supported (in {self.included!r})", at)
        if self.include_dir is None:
            raise self.error(f"include({path!r}) with no include dir", at)
        return ("include", path, "", None)

    # -- cnf ---------------------------------------------------------------

    def parse_cnf_formula(self) -> list[Literal]:
        # TPTP cnf_formula: a disjunction, optionally in one pair of parens.
        wrapped = self.peek() == "("
        if wrapped:
            self.next()
        lits = []
        if self.peek() == "$false":
            self.next()
        else:
            lits.append(self.parse_literal())
            while self.peek() == "|":
                self.next()
                lits.append(self.parse_literal())
        if wrapped:
            self.expect(")")
        return lits

    def parse_literal(self) -> Literal:
        positive = True
        while self.peek() == "~":
            self.next()
            positive = not positive
        return self._finish_atom(positive)

    def _finish_atom(self, positive: bool) -> Literal:
        at = self.pos
        if self.peek_kind() in ("name", "var", "defined"):
            term = self.parse_term(allow_predicate=True)
        else:
            self.fail(f"expected atom, found {self.peek()!r}")
        op, op_at = self.peek(), self.pos
        if op in ("=", "!="):
            self.next()
            rhs = self.parse_term()
            lhs = self._as_term(term)
            eq = self.symbol(EQ, PREDICATE, 2, op_at)
            pos = positive if op == "=" else not positive
            return Literal(eq, (lhs, self._as_term(rhs)), pos)
        return self._as_predicate(term, at, positive)

    def _as_term(self, parsed) -> Term:
        if isinstance(parsed, Term):
            return parsed
        name, args, at = parsed
        return Term(self.symbol(name, FUNCTION, len(args), at), tuple(args))

    def _as_predicate(self, parsed, at: int, positive: bool) -> Literal:
        if isinstance(parsed, Term):
            if parsed.is_var:
                raise self.error("variable used as atom", at)
            raise self.error(
                f"symbol {parsed.sym.name!r} reused as predicate, "
                f"previously {parsed.sym.kind}/{parsed.sym.arity}",
                at,
            )
        name, args, _ = parsed
        return Literal(self.symbol(name, PREDICATE, len(args), at), tuple(args), positive)

    def parse_term(self, allow_predicate: bool = False, depth: int = 1):
        """Returns a Term for variables and committed functions, or an
        undecided (name, args, token index) triple the caller resolves to a
        function or predicate symbol. `depth` is the term's nesting level,
        1 for an atom or for a side of an equation."""
        at = self.pos
        if depth > MAX_TERM_DEPTH:
            raise self.error(f"term nested deeper than {MAX_TERM_DEPTH}", at)
        kind, name = self.next()
        if kind == "var":
            return Var(name)
        if kind not in ("name", "defined") or not name:  # '' names nothing
            raise self.error(f"expected term, found {name!r}", at)
        args: list[Term] = []
        if self.peek() == "(":
            self.next()
            args.append(self.parse_term(depth=depth + 1))
            while self.peek() == ",":
                self.next()
                args.append(self.parse_term(depth=depth + 1))
            self.expect(")")
        if allow_predicate:
            return (name, args, at)
        return Term(self.symbol(name, FUNCTION, len(args), at), tuple(args))

    # -- fof ---------------------------------------------------------------
    # Each method takes the depth `level` at which its formula starts and
    # returns (formula, the depth of its deepest part); see MAX_FORMULA_DEPTH.

    def _check_formula_depth(self, depth: int, at: int) -> None:
        if depth > MAX_FORMULA_DEPTH:
            raise self.error(f"formula nested deeper than {MAX_FORMULA_DEPTH}", at)

    def parse_fof_formula(self, level: int = 1, min_precedence: int = 1):
        """A formula of binary connectives no looser than `min_precedence`
        over unary formulas, by precedence climbing."""
        f, reach = self.parse_fof_unary(level)
        while _FOF_PRECEDENCE.get(self.peek(), 0) >= min_precedence:
            at = self.pos
            op = self.next()[1]
            precedence = _FOF_PRECEDENCE[op]
            rhs, rhs_reach = self.parse_fof_formula(
                level + 1, precedence if op == "=>" else precedence + 1)
            reach = max(reach + 1, rhs_reach)  # f is now an operand
            self._check_formula_depth(reach, at)
            if op == "<=>":
                f = cl.FIff(f, rhs)
            elif op == "<~>":
                f = cl.FNot(cl.FIff(f, rhs))
            elif op == "=>":
                f = cl.FImpl(f, rhs)
            elif op == "|":
                f = cl.FOr(f, rhs)
            else:
                f = cl.FAnd(f, rhs)
        return f, reach

    def parse_fof_unary(self, level: int):
        self._check_formula_depth(level, self.pos)
        text = self.peek()
        if text == "~":
            self.next()
            f, reach = self.parse_fof_unary(level + 1)
            return cl.FNot(f), reach
        if text in ("!", "?"):
            self.next()
            self.expect("[")
            names = [self._quantified_var()]
            while self.peek() == ",":
                self.next()
                names.append(self._quantified_var())
            self.expect("]")
            self.expect(":")
            body, reach = self.parse_fof_unary(level + len(names))
            for name in reversed(names):
                body = cl.FForall(name, body) if text == "!" else cl.FExists(name, body)
            return body, reach
        if text == "(":
            self.next()
            f, reach = self.parse_fof_formula(level + 1)
            self.expect(")")
            return f, reach
        if text == "$true":
            self.next()
            return cl.FTrue(), level
        if text == "$false":
            self.next()
            return cl.FFalse(), level
        return cl.FAtom(self._finish_atom(True)), level

    def _quantified_var(self) -> str:
        kind, name = self.next()
        if kind != "var":
            raise self.error(f"expected variable, found {name!r}", self.pos - 1)
        return name


# -- the flat cnf fast path --------------------------------------------------

_WS = r"[ \t\r\n]*"
_NAME = r"[a-z0-9_]\w*"     # a predicate or constant, as the lexer reads a name
_WORD = r"[A-Za-z0-9_]\w*"  # a name or, led by an uppercase letter, a variable
_ATOM = rf"{_NAME}(?:{_WS}\({_WS}{_WORD}(?:{_WS},{_WS}{_WORD})*{_WS}\))?"
_LITERAL = rf"(?:~{_WS})*{_ATOM}"
# name, role, the optional parenthesis and the literals of one flat unit,
# with the whitespace after it; no word can end early, since what follows
# a word is never a word character
_FLAT_UNIT_RE = re.compile(
    rf"cnf{_WS}\({_WS}({_WORD}){_WS},{_WS}(\w+){_WS},{_WS}"
    rf"(\()?{_WS}({_LITERAL}(?:{_WS}\|{_WS}{_LITERAL})*){_WS}(?(3)\)){_WS}"
    rf"\){_WS}\.{_WS}")
# the negations, predicate and argument text of each literal of a body
# that `_FLAT_UNIT_RE` matched
_FLAT_LITERAL_RE = re.compile(rf"(~[~ \t\r\n]*)?({_NAME})(?:{_WS}\(([^)]*)\))?")
_WS_RE = re.compile(_WS)


def _flat_cnf(text: str):
    """The (axioms, negated conjecture) lists `build_problem` takes, when
    every unit of `text` is a flat cnf unit and its symbols agree; None
    otherwise, so that the recursive parser reads the whole text.

    Symbols resolve through a name table and `_symbol`'s check, as in
    `_Parser.symbol`.
    Terms are immutable, so each distinct argument list is read once and
    its terms are shared by every literal that repeats it."""
    symbols: dict[str, Symbol] = {}
    arg_lists: dict[str, tuple[Term, ...]] = {"": ()}  # argument text -> terms
    axioms: list[tuple[str, list[Literal]]] = []
    neg_conj: list[tuple[str, list[Literal]]] = []
    match_unit, literals = _FLAT_UNIT_RE.match, _FLAT_LITERAL_RE.findall
    at, end = _WS_RE.match(text).end(), len(text)
    while at < end:
        m = match_unit(text, at)
        if m is None:
            return None
        name, role, _, body = m.groups()
        if role in AXIOM_LIKE_ROLES:
            target = axioms
        elif role == "negated_conjecture":
            target = neg_conj
        else:
            return None
        lits = []
        for negations, pred, arg_text in literals(body):
            args = arg_lists.get(arg_text)
            if args is None:
                args = arg_lists[arg_text] = _flat_args(arg_text, symbols)
                if args is None:
                    return None
            sym = symbols.get(pred)
            if sym is None or sym.kind != PREDICATE or sym.arity != len(args):
                sym = _symbol(symbols, pred, PREDICATE, len(args))
                if sym is None:
                    return None
            lits.append(rebuild_literal(sym, args, not negations.count("~") % 2))
        target.append((name, lits))
        at = m.end()
    return axioms, neg_conj


def _flat_args(arg_text: str, symbols: dict[str, Symbol]) -> tuple[Term, ...] | None:
    """The variables and constants of a flat atom's argument text; None
    when a constant's name is already another kind or arity."""
    args = []
    for word in arg_text.split(","):
        word = word.strip(" \t\r\n")
        if word[0].isupper():
            args.append(Term(var_symbol(word)))
        else:
            sym = _symbol(symbols, word, FUNCTION, 0)
            if sym is None:
                return None
            args.append(Term(sym))
    return tuple(args)


def parse_tptp(text: str, name: str = "problem", include_dir: str | None = None) -> Problem:
    """Parse TPTP text into a Problem (everything clausified).

    CNF units become clauses directly. FOF units run through the
    clausifier; a `conjecture` unit is negated first (multiple conjecture
    units are conjoined before negation). Clause ids are assigned in input
    order, axioms first, negated-conjecture clauses after. A text of flat
    cnf units takes the fast path; any other goes to `_parse_recursive`.
    """
    flat = _flat_cnf(text)
    if flat is not None:
        return build_problem(name, *flat)
    return _parse_recursive(text, name, include_dir)


def _parse_recursive(text: str, name: str, include_dir: str | None = None) -> Problem:
    """`parse_tptp` through the lexer and the recursive-descent parser."""
    symbols: dict[str, Symbol] = {}
    top = _Parser(text, symbols, include_dir)
    expanded = []  # (unit, the parser that read it, its first token)
    for unit, at in zip(top.parse_units(), top.starts):
        if unit[0] == "include":
            with open(os.path.join(include_dir, unit[1])) as fh:
                inner = _Parser(fh.read(), symbols, include_dir, unit[1])
            expanded.extend((u, inner, a) for u, a in zip(inner.parse_units(), inner.starts))
        else:
            expanded.append((unit, top, at))

    skolems = cl.SkolemNamer(symbols)
    axioms: list[tuple[str, list[Literal]]] = []
    neg_conj: list[tuple[str, list[Literal]]] = []
    # (name, formula, parser, first token), conjoined and negated at the end
    conjectures = []
    for (lang, uname, role, payload), parser, at in expanded:
        if lang == "cnf":
            lits = payload
            if role in AXIOM_LIKE_ROLES:
                axioms.append((uname, lits))
            else:  # negated_conjecture: the parser rejects cnf conjectures
                neg_conj.append((uname, lits))
        else:
            if role == "conjecture":
                conjectures.append((uname, payload, parser, at))
                continue
            clause_lits = _clausify(payload, False, skolems, parser, at)
            target = neg_conj if role == "negated_conjecture" else axioms
            for lits in clause_lits:
                target.append((uname, lits))

    if conjectures:
        uname, formula, parser, at = conjectures[0]
        for _, f, _, _ in conjectures[1:]:
            formula = cl.FAnd(formula, f)
        for lits in _clausify(formula, True, skolems, parser, at):
            neg_conj.append((uname, lits))

    return build_problem(name, axioms, neg_conj)


def _clausify(formula, negate: bool, skolems: cl.SkolemNamer,
              parser: _Parser, at: int) -> list[tuple[Literal, ...]]:
    """`clausify.clausify`, with a clausal form past its bound refused as a
    `ParseError` at token `at` of `parser`, the start of the unit."""
    try:
        return cl.clausify(formula, negate=negate, skolems=skolems)
    except cl.ClausalFormTooLarge as exc:
        raise parser.error(str(exc), at) from None


def parse_clause_text(text: str) -> tuple[Literal, ...]:
    """Parse a bare printed clause like `p(X) | ~q(a)` or `$false`."""
    parser = _Parser(text, {})
    lits = parser.parse_cnf_formula()
    if parser.peek_kind() != "end":
        parser.fail(f"trailing input {parser.peek()!r}")
    return tuple(lits)
