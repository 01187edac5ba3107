"""Word-level vocabulary and clause tokenization.

Tokens are the clause's printed symbol stream: predicate/function/variable
names, `~`, `|`, `=`, `!=`, parentheses and commas. Indices 0-2 are
reserved: PAD=0, OOV=1, SEP=2. The vocabulary file is plain text, one
token per line, line number = index.
"""

from __future__ import annotations

import hashlib

from .fol import Clause, clause_tokens
from .parser import lex

PAD = 0
OOV = 1
SEP = 2
RESERVED = ["<pad>", "<oov>", "<sep>"]

DEFAULT_MAX_LEN = 512


class Vocabulary:
    def __init__(self, tokens: list[str] | None = None):
        self.tokens = list(RESERVED)
        if tokens is not None:
            if tokens[: len(RESERVED)] != RESERVED:
                raise ValueError("vocabulary must start with PAD/OOV/SEP")
            self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def add(self, token: str) -> int:
        if token not in self.index:
            self.index[token] = len(self.tokens)
            self.tokens.append(token)
        return self.index[token]

    def lookup(self, token: str) -> int:
        return self.index.get(token, OOV)

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
    """Map a clause to the vocabulary indices of its printed token stream,
    variables numbered V1, V2, ... in order of first occurrence (see
    `fol.clause_tokens`). Unknown symbols become OOV; anything beyond
    max_len is cut at the tail.
    """
    return [vocab.lookup(t) for t in clause_tokens(c)][:max_len]


def tokenize_conjecture(
    clauses: list[Clause], vocab: Vocabulary, max_len: int = DEFAULT_MAX_LEN
) -> list[int]:
    """Negated-conjecture clauses joined by the SEP token (sequence models);
    each clause numbers its variables from V1."""
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
