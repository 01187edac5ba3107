"""Word-level vocabulary and clause tokenization.

Tokens are the clause's printed symbol stream: predicate/function/variable
names, `~`, `|`, `=`, `!=`, parentheses and commas. Indices 0-2 are
reserved: PAD=0, OOV=1, SEP=2. The vocabulary file is plain text, one
token per line, line number = index.

`tokenize` walks a clause once and emits vocabulary ids as it goes: it
builds no token strings and makes no `lookup` call per token. A symbol's
id is one dict read of its name; the ids of the variables `V1, V2, ...`,
the punctuation and `$false` are cached on the `Vocabulary`, and `add`
drops that cache.
"""

from __future__ import annotations

import hashlib

from .fol import EQ, FALSE_TOKEN, Clause, Term
from .parser import lex

PAD = 0
OOV = 1
SEP = 2
RESERVED = ["<pad>", "<oov>", "<sep>"]

DEFAULT_MAX_LEN = 512

# the tokens a clause prints besides its symbols, in the order of
# `Vocabulary.marks`
MARKS = ("|", "~", "=", "!=", "(", ",", ")", FALSE_TOKEN)


class Vocabulary:
    def __init__(self, tokens: list[str] | None = None):
        self.tokens = list(RESERVED)
        if tokens is not None:
            if tokens[: len(RESERVED)] != RESERVED:
                raise ValueError("vocabulary must start with PAD/OOV/SEP")
            self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        self._marks: tuple[int, ...] | None = None
        self._variable_ids: list[int] = []

    def __len__(self) -> int:
        return len(self.tokens)

    def add(self, token: str) -> int:
        if token not in self.index:
            self.index[token] = len(self.tokens)
            self.tokens.append(token)
            self._marks = None
            self._variable_ids = []
        return self.index[token]

    def lookup(self, token: str) -> int:
        return self.index.get(token, OOV)

    @property
    def marks(self) -> tuple[int, ...]:
        """The ids of the `MARKS` tokens, in that order."""
        if self._marks is None:
            self._marks = tuple(self.lookup(t) for t in MARKS)
        return self._marks

    def variable_id(self, n: int) -> int:
        """The id of `V{n + 1}`, the name of a clause's (n + 1)-th variable."""
        ids = self._variable_ids
        while len(ids) <= n:
            ids.append(self.lookup(f"V{len(ids) + 1}"))
        return ids[n]

    def to_text(self) -> str:
        return "\n".join(self.tokens) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Vocabulary":
        lines = text.rstrip("\n").split("\n")
        return cls(lines)

    def save(self, path: str):
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path: str) -> "Vocabulary":
        with open(path) as fh:
            return cls.from_text(fh.read())

    @property
    def hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()


def tokenize(c: Clause, vocab: Vocabulary, max_len: int = DEFAULT_MAX_LEN) -> list[int]:
    """Map a clause to the vocabulary indices of its printed token stream
    (names, `~`, `|`, `=`, `!=`, parentheses and commas), variables
    numbered V1, V2, ... in order of first occurrence during the walk
    itself, as in the lexed print of `fol.normalize_variables(c)`. Unknown
    symbols become OOV; anything beyond max_len is cut at the tail.

    The arguments of an atom are walked here, and only nested terms and
    the sides of an equality in `_term_ids`: almost every atom is flat, and
    a call per atom made the walk about a third slower. (So did
    `enumerate`, hence the separator flags.)
    """
    bar, neg, eq, neq, lpar, comma, rpar, false = marks = vocab.marks
    if not c.literals:
        return [false][:max_len]
    get = vocab.index.get
    ids: list[int] = []
    add = ids.append
    variables: dict[str, int] = {}  # variable name -> id of its V<n>
    after_first = False
    for lit in c.literals:
        if after_first:
            add(bar)
        after_first = True
        name = lit.pred.name
        args = lit.args
        if name == EQ:
            _term_ids(args, eq if lit.positive else neq, vocab, get, variables, marks, add)
            continue
        if not lit.positive:
            add(neg)
        add(get(name, OOV))
        if not args:
            continue
        add(lpar)
        after_arg = False
        for t in args:
            if after_arg:
                add(comma)
            after_arg = True
            if t.is_var:
                v = variables.get(t.sym.name)
                if v is None:
                    v = variables[t.sym.name] = vocab.variable_id(len(variables))
                add(v)
            else:
                add(get(t.sym.name, OOV))
                if t.args:
                    add(lpar)
                    _term_ids(t.args, comma, vocab, get, variables, marks, add)
                    add(rpar)
        add(rpar)
    return ids[:max_len]


def _term_ids(terms: tuple[Term, ...], sep: int, vocab: Vocabulary, get,
              variables: dict[str, int], marks: tuple[int, ...], add) -> None:
    """`tokenize`'s walk of `terms`, with the id `sep` between two. A
    module function that takes its state as arguments: a nested function
    that calls itself is a reference cycle."""
    after_first = False
    for t in terms:
        if after_first:
            add(sep)
        after_first = True
        if t.is_var:
            v = variables.get(t.sym.name)
            if v is None:
                v = variables[t.sym.name] = vocab.variable_id(len(variables))
            add(v)
        else:
            add(get(t.sym.name, OOV))
            if t.args:
                add(marks[4])
                _term_ids(t.args, marks[5], vocab, get, variables, marks, add)
                add(marks[6])


def tokenize_conjecture(
    clauses: list[Clause], vocab: Vocabulary, max_len: int = DEFAULT_MAX_LEN
) -> list[int]:
    """Negated-conjecture clauses joined by the SEP token (sequence models);
    each clause numbers its variables from V1."""
    if len(clauses) == 1:  # a clause scored in the search
        return tokenize(clauses[0], vocab, max_len)
    ids: list[int] = []
    for i, c in enumerate(clauses):
        if i:
            ids.append(SEP)
        ids.extend(tokenize(c, vocab, max_len))
    return ids[:max_len]


def tokenize_texts(texts: list[str], vocab: Vocabulary, max_len: int = DEFAULT_MAX_LEN) -> list[int]:
    """Token ids for pre-printed clause texts joined by SEP."""
    ids: list[int] = []
    for i, text in enumerate(texts):
        if i:
            ids.append(SEP)
        ids.extend(map(vocab.lookup, text_tokens(text)))
    return ids[:max_len]


def text_tokens(text: str) -> list[str]:
    """Lex a printed clause back into its token strings."""
    return [t for _, t in lex(text)[:-1]]
