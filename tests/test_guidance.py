"""Neural guidance: caching, batching, modes, and the switch."""

import numpy as np
import pytest

from satguide.corpus import chain_problem, desk_corpus, junk_distractors
from satguide.datagen import build_vocabulary, TrainingExample
from satguide.fol import Clause, clause_str, normalize_variables
import satguide.guidance as guidance
from satguide.guidance import (
    ClauseScorer,
    GuidanceConfig,
    NeuralWeightFn,
    build_schedule,
    guided_prove,
    switched_prove,
)
from satguide.neural.models import TOWER_CONJ, ModelConfig, init_model
from satguide.parser import parse_clause_text, parse_tptp
from satguide.saturation import SAT, SearchConfig, UNSAT, prove
from satguide.tokens import Vocabulary


def tiny_problem():
    return parse_tptp(
        "cnf(a, axiom, (p(a)))."
        "cnf(b, axiom, (~p(X) | q(X)))."
        "cnf(c, axiom, (r(b)))."
        "cnf(g, negated_conjecture, (~q(a))).",
        name="tiny",
    )


def vocab_for(problem):
    examples = [
        TrainingExample(clause_str(normalize_variables(c)),
                        [clause_str(normalize_variables(nc)) for nc in problem.negated_conjecture],
                        1, problem.name, c.id)
        for c in problem.clauses()
    ]
    return build_vocabulary(examples)


def model_for(vocab, seed=0, constant=False):
    model = init_model(
        ModelConfig(arch="cnn", vocab_size=len(vocab), dim=8, hidden=8, seed=seed),
        vocab_hash=vocab.hash,
    )
    if constant:
        for name in ("comb.1.w", "comb.1.b", "comb.2.w", "comb.2.b"):
            model.params[name].data[:] = 0
    else:
        rng = np.random.default_rng(seed + 17)
        for p in model.params.values():
            p.data = rng.uniform(-0.3, 0.3, p.data.shape)
        model.quantize()
    return model


def clause_of(text, cid):
    return Clause(cid, parse_clause_text(text))


def flooded():
    junk = junk_distractors(list(range(6)), "rel0", "c0")
    return chain_problem("sw_flood", "rel0", [f"c{i}" for i in range(5)], 4, junk)


class TestScorer:
    def test_vocab_hash_mismatch_rejected(self):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        other = Vocabulary()
        other.add("p")
        model = model_for(vocab)
        with pytest.raises(ValueError):
            ClauseScorer(model, other, problem)

    def test_conjecture_embedded_once(self, monkeypatch):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        towers = []
        for name in ("embed_sequence", "embed_sequences"):
            inner = getattr(guidance, name)

            def spy(ids, model, tower, *rest, _inner=inner):
                towers.append(tower)
                return _inner(ids, model, tower, *rest)

            monkeypatch.setattr(guidance, name, spy)
        scorer = ClauseScorer(model_for(vocab), vocab, problem)
        for cid in range(5):
            scorer.score_clause(clause_of("p(a)", cid))
        assert towers.count(TOWER_CONJ) == 1 and len(towers) == 6
        assert scorer.conj_evals == 1

    def test_cache_hit_skips_evaluation(self):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        scorer = ClauseScorer(model_for(vocab), vocab, problem)
        c = clause_of("p(a)", 7)
        p1 = scorer.score_clause(c)
        evals = scorer.clause_evals
        p2 = scorer.score_clause(c)
        assert p1 == p2 and scorer.clause_evals == evals

    def test_batching_is_ceiling_division(self):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        scorer = ClauseScorer(model_for(vocab), vocab, problem, batch_size=32)
        clauses = [clause_of(f"p(a) | q(c{i})", 100 + i) for i in range(100)]
        scorer.score_batch(clauses)
        assert scorer.batch_calls == 4  # ceil(100/32)
        assert scorer.clause_evals == 100

    def test_all_cached_means_zero_evaluations(self):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        scorer = ClauseScorer(model_for(vocab), vocab, problem)
        clauses = [clause_of("q(a)", 3), clause_of("r(b)", 4)]
        scorer.score_batch(clauses)
        calls = scorer.batch_calls
        scorer.score_batch(clauses)
        assert scorer.batch_calls == calls

    def test_batch_size_does_not_change_scores(self):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        clauses = [clause_of(f"q(c{i}) | p(a)", 50 + i) for i in range(20)]
        results = {}
        for bs in (1, 64):
            scorer = ClauseScorer(model_for(vocab), vocab, problem, batch_size=bs)
            scorer.score_batch(clauses)
            results[bs] = [scorer.cache[c.id] for c in clauses]
        assert results[1] == results[64]

    def test_scores_are_probabilities(self):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        scorer = ClauseScorer(model_for(vocab), vocab, problem)
        p = scorer.score_clause(clause_of("p(X) | q(f(X))", 9))
        assert 0.0 < p < 1.0


class TestNeuralWeightFn:
    def test_higher_probability_ranks_first(self):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        scorer = ClauseScorer(model_for(vocab), vocab, problem)
        scorer.cache[1] = 0.9
        scorer.cache[2] = 0.2
        fn = NeuralWeightFn(scorer)
        k1 = fn.key(clause_of("p(a)", 1))
        k2 = fn.key(clause_of("q(a)", 2))
        assert k1 < k2  # -0.9 < -0.2

    def test_constant_model_orders_by_id(self):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        config = GuidanceConfig(mode="pure", model=model_for(vocab, constant=True),
                                vocab=vocab)
        sched = build_schedule(config, problem)
        for cid, text in [(5, "p(b)"), (3, "q(b)"), (9, "r(a)")]:
            sched.insert(clause_of(text, cid))
        order = [sched.pop_next().id for _ in range(3)]
        assert order == [3, 5, 9]

    def test_key_is_negated_probability(self):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        scorer = ClauseScorer(model_for(vocab), vocab, problem)
        tier, weight = NeuralWeightFn(scorer).key(clause_of("p(a)", 4))
        assert tier == 0 and -1.0 < weight < 0.0
        assert weight == -scorer.cache[4]


class TestModes:
    def test_auto_mode_never_evaluates_network(self, monkeypatch):
        def no_scorer(*args, **kwargs):
            raise AssertionError("auto mode built a clause scorer")

        monkeypatch.setattr(guidance, "ClauseScorer", no_scorer)
        result = guided_prove(tiny_problem(), GuidanceConfig(mode="auto"),
                              SearchConfig(max_processed=100))
        assert result.status == UNSAT
        assert "network_evals" not in result.info

    def test_pure_mode_uses_only_the_network(self):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        config = GuidanceConfig(mode="pure", model=model_for(vocab), vocab=vocab)
        result = guided_prove(problem, config, SearchConfig(max_processed=100))
        assert result.status == UNSAT
        assert result.info["network_evals"] > 0

    def test_pure_mode_requires_model(self):
        with pytest.raises(ValueError):
            GuidanceConfig(mode="pure")

    def test_hybrid_cycle_length(self):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        config = GuidanceConfig(mode="hybrid", model=model_for(vocab), vocab=vocab)
        # 1 NN pick + the full cycle of the classical schedule
        for classical, cycle in (("auto", 12), ("1*fifo,2*symcount(2,1)", 4)):
            sched = build_schedule(config, problem, classical)
            assert sched.cycle_length == cycle
            assert isinstance(sched.entries[0].fn, NeuralWeightFn)

    def test_auto_mode_honours_schedule(self):
        problem = flooded()
        runs = {}
        for spec in ("auto", "1*fifo", "1*symcount(2,1)"):
            limits = SearchConfig(schedule=spec, max_processed=60, record_selections=True)
            runs[spec] = guided_prove(problem, GuidanceConfig(mode="auto"), limits)
            assert runs[spec].selections == prove(problem, limits).selections
        assert len({tuple(r.selections) for r in runs.values()}) == 3

    def test_pure_mode_rejects_schedule(self):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        config = GuidanceConfig(mode="pure", model=model_for(vocab), vocab=vocab)
        with pytest.raises(ValueError):
            guided_prove(problem, config, SearchConfig(schedule="1*fifo"))

    def test_every_mode_honours_clause_size_cap(self):
        # the only resolvent, q(a) | r(a), is over the cap: saturation is
        # lossy, so it proves nothing
        problem = parse_tptp(
            "cnf(a, axiom, (p(a) | q(a))). cnf(b, axiom, (~p(X) | r(X)))."
            "cnf(g, negated_conjecture, (~s(a))).", name="capped")
        vocab = vocab_for(problem)
        model = model_for(vocab)
        for mode in ("auto", "pure", "hybrid", "switched"):
            config = GuidanceConfig(mode=mode, model=None if mode == "auto" else model,
                                    vocab=vocab)
            assert guided_prove(problem, config, SearchConfig()).status == SAT
            capped = guided_prove(problem, config, SearchConfig(max_clause_literals=1))
            assert (capped.status, capped.resource) == ("ResourceOut", "clause_size"), mode

    def test_hybrid_proves_and_counts_evals(self):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        config = GuidanceConfig(mode="hybrid", model=model_for(vocab), vocab=vocab)
        result = guided_prove(problem, config, SearchConfig(max_processed=200))
        assert result.status == UNSAT
        assert "network_evals" in result.info


class TestSwitched:
    def test_zero_phase1_budget_equals_auto(self):
        for problem in [tiny_problem(), flooded()]:
            vocab = vocab_for(problem)
            for spec in ("auto", "1*symcount(2,1)"):
                limits = SearchConfig(schedule=spec, max_processed=400,
                                      record_selections=True)
                auto = prove(problem, limits)
                config = GuidanceConfig(mode="switched", model=model_for(vocab),
                                        vocab=vocab, phase1_budget=0, total_budget=400)
                switched = switched_prove(problem, config, limits)
                assert switched.status == auto.status
                assert switched.selections == auto.selections
                assert switched.info["evals_final"] == 0

    def test_no_network_evaluations_after_switch(self):
        problem = flooded()
        vocab = vocab_for(problem)
        config = GuidanceConfig(mode="switched", model=model_for(vocab), vocab=vocab,
                                phase1_budget=10, total_budget=2000)
        result = switched_prove(problem, config, SearchConfig())
        if result.info["finished_in_phase"] == 2:
            assert result.info["evals_final"] == result.info["evals_at_switch"]

    def test_phase1_processed_within_budget(self):
        problem = flooded()
        vocab = vocab_for(problem)
        for budget in (0, 5, 17):
            config = GuidanceConfig(mode="switched", model=model_for(vocab),
                                    vocab=vocab, phase1_budget=budget,
                                    total_budget=2000)
            result = switched_prove(problem, config, SearchConfig())
            assert result.info["phase1_processed"] <= budget

    def test_state_continuity_processed_monotone(self):
        problem = flooded()
        vocab = vocab_for(problem)
        config = GuidanceConfig(mode="switched", model=model_for(vocab), vocab=vocab,
                                phase1_budget=10, total_budget=2000,
                                )
        result = switched_prove(problem, config, SearchConfig(record_selections=True))
        # selections never repeat: the switch reuses the same state
        assert len(result.selections) == len(set(result.selections))
        assert result.processed_count == len(result.selections)

    def test_budget_validation(self):
        vocab = Vocabulary()
        model = init_model(ModelConfig(arch="cnn", vocab_size=3, dim=4), vocab_hash="")
        with pytest.raises(ValueError):
            GuidanceConfig(mode="switched", model=model, vocab=vocab,
                           phase1_budget=10, total_budget=10)

    def test_finishes_in_phase1_when_easy(self):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        config = GuidanceConfig(mode="switched", model=model_for(vocab), vocab=vocab,
                                phase1_budget=50, total_budget=100)
        result = switched_prove(problem, config, SearchConfig())
        assert result.status == UNSAT
        assert result.info["finished_in_phase"] == 1


class TestCacheTransparency:
    def test_warm_cache_does_not_change_selection(self):
        problem = chain_problem("cache_t", "rel1", ["c0", "c1", "c2", "c3"], 3)
        vocab = vocab_for(problem)
        model = model_for(vocab)

        def run(cache):
            scorer_holder = []

            def factory(p):
                scorer = ClauseScorer(model, vocab, p)
                scorer.cache = cache
                scorer_holder.append(scorer)
                from satguide.heuristics import SelectionSchedule

                return SelectionSchedule([(1, NeuralWeightFn(scorer))])

            cfg = SearchConfig(max_processed=25, record_selections=True,
                               schedule_factory=factory)
            result = prove(problem, cfg)
            return result.selections, scorer_holder[0]

        cold_selections, cold_scorer = run({})
        # every score already cached: selection order must be identical and
        # no further network evaluation happens
        warm_selections, warm_scorer = run(cold_scorer.cache)
        assert warm_selections == cold_selections
        assert warm_scorer.clause_evals == 0
