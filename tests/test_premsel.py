"""Premise ranking and the top-k cascade."""

from dataclasses import replace

import hashlib
import json

import numpy as np
import pytest

import satguide.guidance as guidance
import satguide.premsel as premsel
from oracles import misnamed_ids, printed_premise_ids
from satguide.corpus import chain_problem, desk_corpus, junk_distractors, plain_distractors
from satguide.datagen import TrainingExample, build_vocabulary
from satguide.fol import clause_str, normalize_variables
from satguide.guidance import ClauseScorer, GuidanceConfig, guided_prove
from satguide.neural.models import ModelConfig, init_model
from satguide.premsel import (
    RankedPremises,
    cascade_prove,
    clamp_levels,
    premise_groups,
    rank_premises,
)
from satguide.parser import parse_tptp
from satguide.saturation import RESOURCE_OUT, SAT, SearchConfig, UNSAT, verify_proof_detailed
from satguide.tokens import Vocabulary, text_tokens


def problem_with_premises(n_chain=4, n_dx=6):
    consts = [f"c{i}" for i in range(n_chain + 1)]
    return chain_problem("pp", "rel0", consts, n_chain,
                         plain_distractors(list(range(n_dx))))


def scorer_for(problem, seed=0, batch_size=32):
    examples = [
        TrainingExample(clause_str(normalize_variables(c)), ["~g"], 1, "x", c.id)
        for c in problem.clauses()
    ]
    vocab = build_vocabulary(examples)
    model = init_model(
        ModelConfig(arch="cnn", vocab_size=len(vocab), dim=8, hidden=8, seed=seed),
        vocab_hash=vocab.hash,
    )
    rng = np.random.default_rng(seed + 3)
    for p in model.params.values():
        p.data = rng.uniform(-0.3, 0.3, p.data.shape)
    model.quantize()
    return ClauseScorer(model, vocab, problem, batch_size)


class TestRanking:
    def test_scores_sorted_descending(self):
        problem = problem_with_premises()
        ranking = rank_premises(problem, scorer_for(problem))
        scores = [ranking.scores[name] for name in ranking.order]
        assert scores == sorted(scores, reverse=True)

    def test_every_premise_once(self):
        problem = problem_with_premises()
        ranking = rank_premises(problem, scorer_for(problem))
        groups = premise_groups(problem)
        assert sorted(ranking.order) == sorted(name for name, _ in groups)

    def test_constant_score_preserves_input_order(self):
        problem = problem_with_premises()
        scorer = scorer_for(problem)
        for name in ("comb.1.w", "comb.1.b", "comb.2.w", "comb.2.b"):
            scorer.model.params[name].data[:] = 0
        ranking = rank_premises(problem, scorer)
        assert ranking.order == [name for name, _ in premise_groups(problem)]

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        problem = problem_with_premises()
        with pytest.raises(ValueError, match="batch_size"):
            rank_premises(problem, scorer_for(problem, batch_size=batch_size))

    def test_empty_premises(self):
        problem = parse_tptp("cnf(g, negated_conjecture, (~p(a))).")
        scorer = scorer_for(problem)
        ranking = rank_premises(problem, scorer)
        assert ranking.order == []


MULTI = """
fof(both, axiom, ![X, Y]: ((p(X) => q(Y, X)) & (r(Y) | ~s(X, f(Y))) & t(a) & t(Y))).
fof(iff, axiom, ![X]: (p(X) <=> ~q(X, X))).
cnf(single, axiom, (u(Z, Z, a))).
fof(goal, conjecture, ?[X]: q(X, a)).
"""


class TestPremiseInputs:
    @pytest.mark.parametrize("max_len", [512, 9])
    def test_ids_equal_printed_and_lexed_ids(self, monkeypatch, max_len):
        """Every premise group of desk_corpus(0) and of MULTI gets, from its
        clauses, the token ids its printed and re-lexed clauses give. The
        corpus premises are all one clause each; MULTI's are not."""
        corpus = [item.problem for item in desk_corpus(0)] + [parse_tptp(MULTI, name="multi")]
        vocab = Vocabulary()
        for i, problem in enumerate(corpus):
            for c in problem.clauses()[i % 2 :: 2]:  # half the tokens stay OOV
                for token in text_tokens(clause_str(normalize_variables(c))):
                    vocab.add(token)
        model = init_model(ModelConfig(arch="cnn", vocab_size=len(vocab), dim=4, hidden=4,
                                       max_len=max_len), vocab.hash)
        seen = []
        inner = guidance.tokenize_conjecture

        def spy(clauses, vocab, max_len):
            seen.append(inner(clauses, vocab, max_len))
            return seen[-1]

        monkeypatch.setattr(guidance, "tokenize_conjecture", spy)
        sizes = []
        for problem in corpus:
            groups = [clauses for _, clauses in premise_groups(problem)]
            scorer = ClauseScorer(model, vocab, problem)
            del seen[:]
            scorer.premise_vectors(groups)
            assert seen == [printed_premise_ids(cs, vocab, max_len) for cs in groups]
            sizes += map(len, groups)
        assert len(sizes) > 5_000 and sizes[-3:] == [4, 2, 1]


class TestClamping:
    def test_levels_clamped_and_deduped(self):
        assert clamp_levels((32, 64, 128, 256), 10) == [10]
        assert clamp_levels((32, 64, 128, 256), 70) == [32, 64, 70]
        assert clamp_levels((32, 64, 128, 256), 500) == [32, 64, 128, 256]


class TestCascade:
    def test_stops_at_first_success(self):
        problem = problem_with_premises(n_chain=3, n_dx=4)
        names = [name for name, _ in premise_groups(problem)]
        # relevant premises at the front of the ranking
        relevant = [n for n in names if n.startswith("pp_")]
        rest = [n for n in names if not n.startswith("pp_")]
        ranking = RankedPremises(relevant + rest, {n: 0.0 for n in names})
        cascade = cascade_prove(problem, ranking, (4, 8, 64), 600)
        assert cascade.result.status == UNSAT
        assert cascade.level_used == 4
        assert cascade.levels_attempted == [4]  # later levels never attempted
        assert len(premise_groups(cascade.result.state.problem)) == 4

    def test_essential_premise_at_rank_boundary(self):
        # an essential premise ranked just past the first level: level 1
        # fails, level 2 succeeds, reported level is the second one
        problem = chain_problem("rb", "rel1", ["c0", "c1", "c2"], 2)
        names = [name for name, _ in premise_groups(problem)]
        essential = "rb_trans"
        others = [n for n in names if n != essential]
        order = others[:2] + [essential] + others[2:]
        ranking = RankedPremises(order, {n: 0.0 for n in names})
        cascade = cascade_prove(problem, ranking, (2, 3), 400)
        assert cascade.level_used == 3
        assert [t["level"] for t in cascade.transcript] == [2, 3]
        assert cascade.transcript[0]["status"] != UNSAT

    def test_subset_proof_verifies_against_full_problem(self):
        problem = problem_with_premises(n_chain=3, n_dx=8)
        scorer = scorer_for(problem)
        ranking = rank_premises(problem, scorer)
        cascade = cascade_prove(problem, ranking, (24,), 600)
        assert cascade.result.status == UNSAT
        assert verify_proof_detailed(cascade.result.proof, problem)[0]

    def test_monotone_levels(self):
        problem = problem_with_premises()
        ranking = rank_premises(problem, scorer_for(problem))
        k_small = set(ranking.order[:4])
        k_big = set(ranking.order[:8])
        assert k_small <= k_big

    @pytest.mark.parametrize("levels", [(-5,), (0,), (4, 0, 8), ()])
    def test_levels_below_one_rejected(self, levels):
        problem = problem_with_premises()
        names = [name for name, _ in premise_groups(problem)]
        ranking = RankedPremises(names, {n: 0.0 for n in names})
        with pytest.raises(ValueError, match="at least 1"):
            cascade_prove(problem, ranking, levels, 100)

    def test_unprovable_returns_last_attempt(self):
        problem = chain_problem("np", "rel2", ["c0", "c1", "c2"], 2,
                                transitive=False)
        names = [name for name, _ in premise_groups(problem)]
        ranking = RankedPremises(names, {n: 0.0 for n in names})
        cascade = cascade_prove(problem, ranking, (1, 2), 100)
        assert cascade.level_used is None
        assert cascade.result.status != UNSAT

    def test_subset_saturation_is_resource_out(self):
        # q(a) and ~q(X) | p(X) refute ~p(a); either premise alone saturates
        problem = parse_tptp("cnf(a, axiom, (q(a))). cnf(b, axiom, (~q(X) | p(X))). "
                             "cnf(g, negated_conjecture, (~p(a))).")
        ranking = RankedPremises(["a", "b"], {"a": 0.0, "b": 0.0})
        cascade = cascade_prove(problem, ranking, (1,), 100)
        assert cascade.result.status == RESOURCE_OUT
        assert cascade.result.resource == "premises"
        assert cascade.transcript[0]["status"] == RESOURCE_OUT
        cascade = cascade_prove(problem, ranking, (1, 2), 100)
        assert [t["status"] for t in cascade.transcript] == [RESOURCE_OUT, UNSAT]
        sat = parse_tptp("cnf(a, axiom, (q(a))). cnf(g, negated_conjecture, (~p(a))).")
        full = cascade_prove(sat, RankedPremises(["a"], {"a": 0.0}), (1,), 100)
        assert full.result.status == SAT  # every premise in: saturation counts

    def test_limits_pass_through_with_split_budgets(self, monkeypatch):
        configs = []
        inner = premsel.prove

        def spy(sub, config):
            configs.append(config)
            return inner(sub, config)

        monkeypatch.setattr(premsel, "prove", spy)
        problem = chain_problem("rb", "rel1", ["c0", "c1", "c2"], 2)
        names = [name for name, _ in premise_groups(problem)]
        ranking = RankedPremises(names[1:] + names[:1], {n: 0.0 for n in names})
        limits = SearchConfig(max_wall_ms=60_000, max_clause_literals=3,
                              max_generated=5_000, record_selections=True)
        cascade = cascade_prove(problem, ranking, (1, 2, 3), 300, limits=limits)
        assert configs and len(configs) == len(cascade.transcript)
        for config in configs:
            assert config == replace(limits, max_processed=100, max_wall_ms=20_000)
        assert cascade.result.selections is not None

    def test_deterministic_transcript(self):
        problem = problem_with_premises(4, 6)
        scorer1 = scorer_for(problem, seed=4)
        scorer2 = scorer_for(problem, seed=4)
        r1 = rank_premises(problem, scorer1)
        r2 = rank_premises(problem, scorer2)
        assert r1.order == r2.order and r1.ranking_hash == r2.ranking_hash
        # a bad ranking can pick transitivity without its facts, which
        # self-resolves into ever-longer clauses; the generated cap keeps
        # the failing levels cheap
        limits = SearchConfig(max_generated=2_000)
        c1 = cascade_prove(problem, r1, (4, 12), 400, limits=limits)
        c2 = cascade_prove(problem, r2, (4, 12), 400, limits=limits)
        assert c1.transcript == c2.transcript


    def test_level_keeps_conjecture(self):
        problem = problem_with_premises()
        ranking = RankedPremises(["pp_fact0"], {"pp_fact0": 0.0})
        level = cascade_prove(problem, ranking, (1,), 100).result.state.problem
        assert level.name == "pp@top1"
        assert level.negated_conjecture == problem.negated_conjecture
        assert [c.origin for c in level.axioms] == ["pp_fact0"]

    def test_level_keeps_caller_ids(self):
        # a level is a selection of the caller's clauses, in input order
        problem = problem_with_premises()
        names = [name for name, _ in premise_groups(problem)]
        top = ["pp_fact3", "dx1_fact", "dx0_rule"]
        ranking = RankedPremises(top + [n for n in names if n not in top],
                                 {n: 0.0 for n in names})
        level = cascade_prove(problem, ranking, (3,), 100).result.state.problem
        assert level.clauses() == [c for c in problem.clauses()
                                   if c.role != "axiom" or c.origin in top]
        assert [c.origin for c in level.axioms] == ["dx0_rule", "dx1_fact", "pp_fact3"]


# status, premise_level and transcript of the 88 runs of
# test_premsel_levels_keep_caller_ids, as they were when every level
# renumbered its clauses from 0
PREMSEL_RUNS_DIGEST = "b80da86a7963cf47"


def test_premsel_levels_keep_caller_ids(fixture_cnn):
    """Every premsel problem of desk_corpus(0) and desk_corpus(1) at two
    level sets: each selected input id and each input proof leaf names the
    caller's clause, no clause the search adds takes a caller's id, and
    every search is the one it was when levels were numbered from 0."""
    model, vocab = fixture_cnn
    limits = SearchConfig(max_processed=800, max_generated=30_000, record_selections=True)
    digest = hashlib.sha256()
    runs = selected = 0
    for seed in (0, 1):
        for item in desk_corpus(seed):
            if "premsel" not in item.tags:
                continue
            for levels in ((4, 8, 16, 32), (32, 64, 128, 256)):
                result = guided_prove(item.problem, GuidanceConfig(
                    mode="cascade", model=model, vocab=vocab, premsel_levels=levels), limits)
                assert misnamed_ids(item.problem, result) == [], (item.name, levels)
                runs += 1
                selected += sum(result.state.clauses[cid].rule == "input"
                                for cid in result.selections)
                digest.update(json.dumps([item.name, seed, levels, result.status,
                                          result.info["premise_level"],
                                          result.info["transcript"]]).encode())
    assert (runs, selected) == (88, 2112)
    assert digest.hexdigest()[:16] == PREMSEL_RUNS_DIGEST
