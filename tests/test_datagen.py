"""Trace extraction, labeling, splitting, vocabulary building."""

import json
from dataclasses import fields, replace

import pytest

from satguide.corpus import chain_problem, desk_corpus
from satguide.datagen import (
    ProofTrace,
    TraceClause,
    TrainingExample,
    balance_eval_set,
    build_vocabulary,
    config_hash,
    generate_traces,
    label_examples,
    read_examples,
    read_traces,
    split_by_conjecture,
    trace_problem,
    write_examples,
    write_traces,
)
from satguide.parser import parse_tptp
from satguide.saturation import SearchConfig
from satguide.tokens import OOV

import oracles


def trace_config(**kw):
    kw.setdefault("max_processed", 2_000)
    return SearchConfig(**kw)


def provable_problem():
    return parse_tptp(
        "cnf(a, axiom, (p(a)))."
        "cnf(b, axiom, (q(b)))."
        "cnf(g, negated_conjecture, (~p(a))).",
        name="prov",
    )


class TestTraces:
    def test_provable_problem_has_used_clause(self):
        trace = trace_problem(provable_problem(), trace_config())
        assert trace.status == "Unsatisfiable"
        assert any(c.used for c in trace.clauses)

    def test_unprovable_problem_emits_nothing(self):
        p = parse_tptp(
            "cnf(a, axiom, (p(a))). cnf(g, negated_conjecture, (~q(b))).",
            name="sat",
        )
        trace = trace_problem(p, trace_config())
        assert trace.status == "Satisfiable"
        assert trace.clauses == []
        assert label_examples(trace) == []

    def test_used_implies_processed(self):
        chain = chain_problem("t", "rel0", ["c0", "c1", "c2"], 2)
        trace = trace_problem(chain, trace_config())
        for c in trace.clauses:
            if c.used:
                assert c.processed

    def test_traces_deterministic(self, tmp_path):
        problems = [c.problem for c in desk_corpus(0)[:6]]
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_traces(generate_traces(problems, trace_config(), seed=5), str(a))
        write_traces(generate_traces(problems, trace_config(), seed=5), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_trace_file_round_trip(self, tmp_path):
        chain = chain_problem("t", "rel0", ["c0", "c1", "c2"], 2)
        traces = (generate_traces([provable_problem()], trace_config(), seed=1)
                  + generate_traces([chain], trace_config(max_processed=1)))
        assert [t.status for t in traces] == ["Unsatisfiable", "ResourceOut"]
        assert [t.resource for t in traces] == [None, "processed"]
        path = tmp_path / "t.jsonl"
        write_traces(traces, str(path))
        loaded = read_traces(str(path))
        assert loaded == traces

    def test_config_hash_covers_every_limit(self):
        # every field but `record_selections`, which changes no search
        base_config = trace_config(max_wall_ms=None)
        base = config_hash(base_config)
        changes = {"schedule": "1*fifo", "max_processed": 7, "max_generated": 5,
                   "max_wall_ms": 30_000, "max_clause_literals": 12}
        assert set(changes) == {f.name for f in fields(SearchConfig)} - {"record_selections"}
        for name, value in changes.items():
            assert config_hash(replace(base_config, **{name: value})) != base, name
        assert config_hash(replace(base_config, record_selections=True)) == base

    def test_crash_recorded_not_fatal(self):
        class Boom:
            name = "boom"

            def __getattr__(self, attr):
                raise RuntimeError("nope")

        traces = generate_traces([Boom(), provable_problem()], trace_config())
        assert traces[0].status == "Error(RuntimeError: nope)"
        assert traces[1].status == "Unsatisfiable"


def make_trace(n_used=3, n_unused=2, n_unprocessed=5):
    clauses = []
    cid = 0
    for _ in range(n_used):
        clauses.append(TraceClause(cid, f"p(c{cid})", "axiom", True, True))
        cid += 1
    for _ in range(n_unused):
        clauses.append(TraceClause(cid, f"q(c{cid})", "axiom", True, False))
        cid += 1
    for _ in range(n_unprocessed):
        clauses.append(TraceClause(cid, f"r(c{cid})", "derived", False, False))
        cid += 1
    return ProofTrace("prob", "Unsatisfiable", "hash", ["~goal(a)"], clauses)


class TestLabeling:
    def test_direct_labels(self):
        examples = label_examples(make_trace(3, 2, 0))
        assert sum(e.label for e in examples) == 3
        assert sum(1 for e in examples if e.label == 0) == 2
        kinds = {e.negative_kind for e in examples if e.label == 0}
        assert kinds == {"processed_unused"}

    def test_star_mode_ratio(self):
        examples = label_examples(make_trace(3, 2, 5), star_mode=True, star_ratio=1.0)
        sampled = [e for e in examples if e.negative_kind == "sampled_unprocessed"]
        assert len(sampled) == 2  # floor(1.0 * 2 processed negatives)

    def test_star_mode_all_used(self):
        # zero processed negatives: ratio yields zero sampled extras
        examples = label_examples(make_trace(3, 0, 5), star_mode=True, star_ratio=1.0)
        assert all(e.label == 1 for e in examples)

    def test_star_mode_only_adds(self):
        base = label_examples(make_trace(3, 2, 5), star_mode=False, seed=3)
        star = label_examples(make_trace(3, 2, 5), star_mode=True, seed=3)
        base_keys = [(e.clause_id, e.label) for e in base]
        star_keys = [(e.clause_id, e.label) for e in star]
        assert star_keys[: len(base_keys)] == base_keys
        assert len(star) >= len(base)

    def test_provenance_fields(self):
        examples = label_examples(make_trace(1, 1, 0))
        for e in examples:
            assert e.problem == "prob"
            assert e.conj_texts == ["~goal(a)"]


class TestSplit:
    def _examples(self, n_problems, per=3):
        out = []
        for i in range(n_problems):
            for j in range(per):
                out.append(TrainingExample(f"p(c{j})", ["~g"], j % 2, f"prob{i}", j))
        return out

    def test_ten_conjectures_nine_one(self):
        split = split_by_conjecture(self._examples(10), 0.9, seed=0)
        assert len(split.train_conjectures) == 9
        assert len(split.eval_conjectures) == 1

    def test_examples_follow_their_conjecture(self):
        examples = self._examples(10)
        split = split_by_conjecture(examples, 0.9, seed=1)
        train, evals = split.partition(examples)
        assert {e.problem for e in train} == split.train_conjectures
        assert {e.problem for e in evals} == split.eval_conjectures
        assert not (split.train_conjectures & split.eval_conjectures)

    def test_split_deterministic(self):
        examples = self._examples(20)
        a = split_by_conjecture(examples, 0.9, seed=7)
        b = split_by_conjecture(examples, 0.9, seed=7)
        assert a == b
        c = split_by_conjecture(examples, 0.9, seed=8)
        assert a != c


class TestVocabulary:
    def test_frequency_then_lexicographic(self):
        examples = [
            TrainingExample("p(a) | p(b)", ["q(a)"], 1, "x", 0),
            TrainingExample("q(b)", ["q(a)"], 0, "x", 1),
        ]
        vocab = build_vocabulary(examples)
        # parens 5x; a,q 3x (lexicographic tie); b,p 2x; '|' once
        assert vocab.tokens[3:] == ["(", ")", "a", "q", "b", "p", "|"]

    def test_tie_breaks_lexicographic(self):
        examples = [TrainingExample("p(a) | q(a)", [], 1, "x", 0)]
        vocab = build_vocabulary(examples)
        # p and q both appear once: p sorts first
        assert vocab.tokens.index("p") < vocab.tokens.index("q")

    def test_eval_only_symbol_is_oov(self):
        train = [TrainingExample("p(a)", ["q(a)"], 1, "x", 0)]
        vocab = build_vocabulary(train)
        from satguide.tokens import tokenize_texts

        ids = tokenize_texts(["zebra(a)"], vocab)
        assert ids[0] == OOV

    def test_empty_training_set(self):
        vocab = build_vocabulary([])
        assert len(vocab) == 3  # reserved only

    def test_vocabulary_bytes_deterministic(self, tmp_path):
        examples = [
            TrainingExample("p(a) | q(b)", ["~r(c)"], 1, "x", 0),
            TrainingExample("r(c)", ["~r(c)"], 0, "y", 1),
        ]
        p1, p2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        build_vocabulary(examples).save(str(p1))
        build_vocabulary(list(examples)).save(str(p2))
        assert p1.read_bytes() == p2.read_bytes()


def test_vocabulary_agrees_with_lexing_every_example():
    # examples of one problem share its conjecture texts; counting each
    # distinct text once, times its occurrences, gives the same vocabulary
    problems = [item.problem for item in desk_corpus(0)
                if item.family in ("chain", "flood", "membership")][:12]
    traces = generate_traces(problems, trace_config(max_processed=300))
    examples = [e for i, t in enumerate(traces)
                for e in label_examples(t, star_mode=True, seed=i)]
    assert len(examples) > 300
    assert len({e.problem for e in examples}) > 5
    vocab, ref = build_vocabulary(examples), oracles.build_vocabulary(examples)
    assert vocab.tokens == ref.tokens and vocab.hash == ref.hash


class TestBalance:
    def _examples(self, pos, neg):
        out = []
        for i in range(pos):
            out.append(TrainingExample("p(a)", ["g"], 1, "x", i))
        for i in range(neg):
            out.append(TrainingExample("q(a)", ["g"], 0, "x", 1000 + i))
        return out

    def test_downsample_majority(self):
        balanced = balance_eval_set(self._examples(100, 300), seed=0)
        assert sum(e.label for e in balanced) == 100
        assert len(balanced) == 200

    def test_already_balanced_unchanged(self):
        balanced = balance_eval_set(self._examples(5, 5), seed=0)
        assert len(balanced) == 10

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            balance_eval_set(self._examples(0, 5), seed=0)

    def test_label_soundness_recheckable_from_trace(self):
        # every positive example's clause id is a used clause in its trace
        chain = chain_problem("ls", "rel1", ["c0", "c1", "c2", "c3"], 3)
        trace = trace_problem(chain, trace_config())
        examples = label_examples(trace)
        used_ids = {c.id for c in trace.clauses if c.used}
        for e in examples:
            if e.label == 1:
                assert e.clause_id in used_ids


class TestExampleFiles:
    def test_round_trip(self, tmp_path):
        examples = [
            TrainingExample("p(a)", ["~q(b)"], 1, "x", 3),
            TrainingExample("q(b)", ["~q(b)"], 0, "y", 4, "processed_unused"),
        ]
        path = tmp_path / "ex.jsonl"
        write_examples(examples, str(path))
        assert read_examples(str(path)) == examples

    def test_older_format_rejected_with_hint(self, tmp_path):
        # rows written before the token fields were dropped
        row = {"clause_text": "p(a)", "conj_texts": ["~q(b)"], "label": 1,
               "problem": "x", "clause_id": 3, "negative_kind": None,
               "clause_tokens": [5, 6], "conj_tokens": [[7]]}
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(ValueError, match="clause_tokens, conj_tokens.*--examples-out"):
            read_examples(str(path))
