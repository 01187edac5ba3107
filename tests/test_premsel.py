"""Premise ranking and the top-k cascade."""

from dataclasses import replace

import numpy as np
import pytest

import satguide.premsel as premsel
from satguide.corpus import chain_problem, junk_distractors, plain_distractors
from satguide.datagen import TrainingExample, build_vocabulary
from satguide.fol import clause_str, normalize_variables
from satguide.guidance import ClauseScorer
from satguide.neural.models import ModelConfig, init_model
from satguide.premsel import (
    RankedPremises,
    cascade_prove,
    clamp_levels,
    premise_groups,
    rank_premises,
    subset_problem,
)
from satguide.parser import parse_tptp
from satguide.saturation import RESOURCE_OUT, SAT, SearchConfig, UNSAT, verify_proof


def problem_with_premises(n_chain=4, n_dx=6):
    consts = [f"c{i}" for i in range(n_chain + 1)]
    return chain_problem("pp", "rel0", consts, n_chain,
                         plain_distractors(list(range(n_dx))))


def scorer_for(problem, seed=0):
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
    return ClauseScorer(model, vocab, problem)


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

    def test_empty_premises(self):
        problem = parse_tptp("cnf(g, negated_conjecture, (~p(a))).")
        scorer = scorer_for(problem)
        ranking = rank_premises(problem, scorer)
        assert ranking.order == []


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
        attempts = []

        def prover(sub, budget):
            attempts.append(len(premise_groups(sub)))
            from satguide.saturation import prove

            return prove(sub, SearchConfig(max_processed=budget))

        cascade = cascade_prove(problem, ranking, (4, 8, 64), 600, prover=prover)
        assert cascade.result.status == UNSAT
        assert cascade.level_used == 4
        assert attempts == [4]  # later levels never attempted

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
        assert verify_proof(cascade.result.proof, problem)

    def test_monotone_levels(self):
        problem = problem_with_premises()
        ranking = rank_premises(problem, scorer_for(problem))
        k_small = set(ranking.order[:4])
        k_big = set(ranking.order[:8])
        assert k_small <= k_big

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


class TestSubsetProblem:
    def test_subset_keeps_conjecture(self):
        problem = problem_with_premises()
        sub = subset_problem(problem, {"pp_trans"})
        assert len(sub.negated_conjecture) == len(problem.negated_conjecture)
        assert all((c.origin or "") == "pp_trans" for c in sub.axioms)

    def test_ids_reassigned_densely(self):
        problem = problem_with_premises()
        sub = subset_problem(problem, {"pp_trans", "pp_fact0"})
        ids = [c.id for c in sub.clauses()]
        assert ids == list(range(len(ids)))
