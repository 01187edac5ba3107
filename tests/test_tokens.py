"""Vocabulary files and clause tokenization."""

import pytest

from satguide.corpus import desk_corpus
from satguide.fol import clause_str, normalize_variables
from satguide.parser import parse_clause_text, parse_tptp
from satguide.saturation import SearchConfig, prove
from satguide.tokens import (
    OOV,
    PAD,
    RESERVED,
    SEP,
    Vocabulary,
    text_tokens,
    tokenize,
    tokenize_conjecture,
    tokenize_texts,
)

from oracles import clause_tokens


def clause_of(text):
    from satguide.fol import Clause

    return Clause(0, parse_clause_text(text))


def vocab_of(*tokens):
    v = Vocabulary()
    for t in tokens:
        v.add(t)
    return v


class TestVocabulary:
    def test_reserved_indices(self):
        v = Vocabulary()
        assert v.tokens[:3] == RESERVED
        assert PAD == 0 and OOV == 1 and SEP == 2

    def test_add_and_lookup(self):
        v = vocab_of("p", "(", ")")
        assert v.lookup("p") == 3
        assert v.lookup("unknown") == OOV

    def test_file_round_trip(self, tmp_path):
        v = vocab_of("~", "p", "(", ")", "V1")
        path = tmp_path / "vocab.txt"
        v.save(str(path))
        v2 = Vocabulary.load(str(path))
        assert v2.tokens == v.tokens
        assert v2.hash == v.hash

    def test_line_number_is_index(self, tmp_path):
        v = vocab_of("alpha", "beta")
        path = tmp_path / "vocab.txt"
        v.save(str(path))
        lines = path.read_text().splitlines()
        assert lines[3] == "alpha" and lines[4] == "beta"

    def test_bad_reserved_header_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["x", "y", "z"])


class TestTokenize:
    def test_direct_lookup(self):
        c = clause_of("~q(V1)")
        v = vocab_of("~", "q", "(", "V1", ")")
        assert tokenize(c, v) == [3, 4, 5, 6, 7]

    def test_oov_position(self):
        c = clause_of("~q(V1)")
        v = vocab_of("~", "(", "V1", ")")  # no 'q'
        assert tokenize(c, v)[1] == OOV

    def test_truncation(self):
        c = clause_of(" | ".join(f"p(c{i})" for i in range(200)))
        v = Vocabulary()
        for t in clause_tokens(c):
            v.add(t)
        assert len(tokenize(c, v, max_len=17)) == 17

    def test_length_equals_printed_symbol_count(self):
        texts = [
            "p(V1,g(V2)) | ~q(V1)",
            "a = b | c != d",
            "$false",
            "p | q | r",
        ]
        for text in texts:
            c = clause_of(text)
            v = Vocabulary()
            for t in clause_tokens(c):
                v.add(t)
            assert len(tokenize(c, v, max_len=10_000)) == len(text_tokens(text)), text


class TestNormalizingWalk:
    def test_ids_of_the_normalized_printed_clause(self):
        """`tokenize` numbers variables during its own walk; the ids are those
        of the lexed print of `normalize_variables(c)`, on every input clause
        of the corpus and every clause a short search processes."""
        problems = {item.name: item.problem for item in desk_corpus(0)}
        clauses = [c for p in problems.values() for c in p.clauses()]
        result = prove(problems["flood023"], SearchConfig(max_processed=150))
        clauses += result.state.processed
        vocab = Vocabulary()
        printed = [text_tokens(clause_str(normalize_variables(c))) for c in clauses]
        for tokens in printed[::3]:  # leave some symbols and variables OOV
            for t in tokens:
                vocab.add(t)
        for c, tokens in zip(clauses, printed):
            want = [vocab.lookup(t) for t in tokens]
            assert tokenize(c, vocab, 10_000) == want
            assert tokenize(c, vocab, 9) == want[:9]


class TestConjectureJoining:
    def test_sep_between_clauses(self):
        p = parse_tptp(
            "cnf(g1, negated_conjecture, (~p(a)))."
            "cnf(g2, negated_conjecture, (~q(b))).",
        )
        v = vocab_of("~", "p", "q", "(", ")", "a", "b")
        ids = tokenize_conjecture(p.negated_conjecture, v)
        assert ids.count(SEP) == 1
        sep_at = ids.index(SEP)
        assert sep_at == 5  # ~ p ( a ) SEP ~ q ( b )

    def test_tokenize_texts_matches(self):
        v = vocab_of("~", "p", "q", "(", ")", "a", "b")
        ids = tokenize_texts(["~p(a)", "~q(b)"], v)
        assert ids[5] == SEP and len(ids) == 11


class TestIdWalk:
    """`tokenize` emits ids from its own walk; they must be `lookup` over
    the printed token stream (`oracles.clause_tokens`), cut at max_len."""

    @staticmethod
    def reference(c, vocab, max_len=10_000):
        return [vocab.lookup(t) for t in clause_tokens(c)][:max_len]

    def test_every_corpus_clause(self):
        clauses = [c for seed in range(4) for item in desk_corpus(seed)
                   for c in item.problem.clauses()]
        vocab = Vocabulary()
        for c in clauses[::5]:  # leave some symbols and variables OOV
            for t in clause_tokens(c):
                vocab.add(t)
        for c in clauses:
            assert tokenize(c, vocab, 10_000) == self.reference(c, vocab)
            assert tokenize(c, vocab, 7) == self.reference(c, vocab, 7)

    def test_equality_false_quoted_and_oov(self):
        texts = ["f(X, g(Y)) = X | a != b | ~p(X)", "X = Y", "$false",
                 "p('Foo', 'a b', X) | ~'Q r'(c)", "unknown(X) | p(zz(X, Y), Y)"]
        vocab = vocab_of("p", "f", "=", "!=", "|", "~", "(", ")", ",", "V1", "Foo",
                         "$false", "a b")
        for text in texts:
            c = clause_of(text)
            assert tokenize(c, vocab) == self.reference(c, vocab), text
        assert tokenize(clause_of("$false"), vocab) == [vocab.lookup("$false")]
        assert tokenize(clause_of("$false"), Vocabulary()) == [OOV]

    def test_longer_than_max_len(self):
        c = clause_of(" | ".join(f"p(X{i}, c{i})" for i in range(150)))
        vocab = Vocabulary()
        for t in clause_tokens(c)[:400]:
            vocab.add(t)
        for max_len in (0, 1, 17, 512, 10_000):
            assert tokenize(c, vocab, max_len) == self.reference(c, vocab, max_len)
        assert len(tokenize(c, vocab)) == 512

    def test_more_than_a_hundred_variables(self):
        c = clause_of(" | ".join(f"p(X{i}, f(Y{i}, X{i}))" for i in range(130)))
        vocab = vocab_of(*[f"V{n}" for n in range(1, 120, 3)], "p", "f", "(")
        assert tokenize(c, vocab, 10_000) == self.reference(c, vocab)
        assert vocab.variable_id(259) == OOV and vocab.variable_id(0) == vocab.lookup("V1")

    def test_add_refreshes_cached_ids(self):
        c = clause_of("p(X) | ~q(Y, X)")
        vocab = vocab_of("p", "q")
        assert tokenize(c, vocab) == self.reference(c, vocab)
        for t in ("|", "V2", "~", "(", ",", ")", "V1"):
            vocab.add(t)
            assert tokenize(c, vocab) == self.reference(c, vocab), t
