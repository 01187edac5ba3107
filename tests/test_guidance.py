"""Neural guidance: scoring, batching, modes, and the switch."""

import numpy as np
import pytest

from satguide.corpus import chain_problem, desk_corpus, junk_distractors
from satguide.datagen import build_vocabulary, TrainingExample
from satguide.fol import Clause, clause_str, normalize_variables
import satguide.guidance as guidance
import satguide.saturation as saturation
from satguide.guidance import (
    ClauseScorer,
    GuidanceConfig,
    build_schedule,
    guided_prove,
)
from satguide.neural.models import TOWER_CONJ, ModelConfig, init_model
from satguide.parser import parse_clause_text, parse_tptp
from satguide.saturation import RESOURCE_OUT, SAT, SearchConfig, UNSAT, prove
from satguide.tokens import Vocabulary

from oracles import switched_prove_rebuilt


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
    junk = junk_distractors(list(range(6)), "rel0")
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
            scorer.score_batch([clause_of("p(a)", cid)])
        assert towers.count(TOWER_CONJ) == 1 and len(towers) == 6

    def test_batching_is_ceiling_division(self):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        scorer = ClauseScorer(model_for(vocab), vocab, problem, batch_size=32)
        clauses = [clause_of(f"p(a) | q(c{i})", 100 + i) for i in range(100)]
        assert len(scorer.score_batch(clauses)) == 100
        assert scorer.batch_calls == 4  # ceil(100/32)
        assert scorer.clause_evals == 100

    def test_batch_size_does_not_change_scores(self):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        clauses = [clause_of(f"q(c{i}) | p(a)", 50 + i) for i in range(20)]
        results = {}
        for bs in (1, 64):
            scorer = ClauseScorer(model_for(vocab), vocab, problem, batch_size=bs)
            results[bs] = scorer.score_batch(clauses)
        assert results[1] == results[64]

    def test_scores_are_probabilities(self):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        scorer = ClauseScorer(model_for(vocab), vocab, problem)
        [p] = scorer.score_batch([clause_of("p(X) | q(f(X))", 9)])
        assert 0.0 < p < 1.0


class TestNeuralWeightFn:
    def test_higher_probability_ranks_first(self):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        scorer = ClauseScorer(model_for(vocab), vocab, problem)
        scorer.score_batch = lambda clauses: [0.9, 0.2]
        k1, k2 = scorer.batch_keys([clause_of("p(a)", 1), clause_of("q(a)", 2)])
        assert k1 < k2  # -0.9 < -0.2

    def test_constant_model_orders_by_id(self):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        config = GuidanceConfig(mode="pure", model=model_for(vocab, constant=True),
                                vocab=vocab)
        sched = build_schedule(config, problem, "auto")
        for cid, text in [(5, "p(b)"), (3, "q(b)"), (9, "r(a)")]:
            sched.insert(clause_of(text, cid))
        order = [sched.pop_next().id for _ in range(3)]
        assert order == [3, 5, 9]

    def test_key_is_negated_probability(self):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        scorer = ClauseScorer(model_for(vocab), vocab, problem)
        [(tier, weight)] = scorer.batch_keys([clause_of("p(a)", 4)])
        assert tier == 0 and -1.0 < weight < 0.0
        assert weight == -scorer.score_batch([clause_of("p(a)", 4)])[0]


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

    @pytest.mark.parametrize("mode", ["pure", "hybrid", "switched"])
    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, mode, batch_size):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        config = GuidanceConfig(mode=mode, model=model_for(vocab), vocab=vocab,
                                batch_size=batch_size)
        with pytest.raises(ValueError, match="batch_size"):
            guided_prove(problem, config, SearchConfig(max_processed=100))

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
            assert sum(e.weight for e in sched.entries) == cycle
            assert isinstance(sched.entries[0].fn, ClauseScorer)

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


@pytest.mark.parametrize("phase1_budget", [None, 30, 200])
def test_switched_handoff_matches_rebuilt_reference(phase1_budget, fixture_cnn):
    # the hand-off retires the network entry and keeps the classical
    # rankings; the reference rebuilds the classical schedule and re-keys
    # every live clause. Same searches: with the fixture CNN, every one of
    # the 42 floods proves in phase 1 under the default budget (400) and
    # under 200, and reaches phase 2 under 30 (33 of them prove there).
    model, vocab = fixture_cnn
    limits = SearchConfig(max_processed=600, max_wall_ms=None, record_selections=True)
    config = GuidanceConfig(mode="switched", model=model, vocab=vocab,
                            phase1_budget=phase1_budget)
    floods = [item.problem for item in desk_corpus(0)
              if item.tags & {"guidance", "guidance_hard"}]
    assert len(floods) == 42
    switched = 0
    for problem in floods:
        got = guided_prove(problem, config, limits)
        want = switched_prove_rebuilt(problem, config, limits)
        assert (got.status, got.resource, got.processed_count, got.generated_count) \
            == (want.status, want.resource, want.processed_count, want.generated_count)
        assert got.selections == want.selections, problem.name
        assert got.info == want.info, problem.name
        switched += got.info["finished_in_phase"] == 2
    assert switched == {None: 0, 30: 42, 200: 0}[phase1_budget]


class TestSwitched:
    def test_zero_phase1_budget_equals_auto(self):
        for problem in [tiny_problem(), flooded()]:
            vocab = vocab_for(problem)
            for spec in ("auto", "1*symcount(2,1)"):
                limits = SearchConfig(schedule=spec, max_processed=400,
                                      record_selections=True)
                auto = prove(problem, limits)
                config = GuidanceConfig(mode="switched", model=model_for(vocab),
                                        vocab=vocab, phase1_budget=0)
                switched = guided_prove(problem, config, limits)
                assert switched.status == auto.status
                assert switched.selections == auto.selections
                assert switched.info["network_evals"] == 0

    def test_no_network_evaluations_after_switch(self):
        problem = flooded()
        vocab = vocab_for(problem)
        config = GuidanceConfig(mode="switched", model=model_for(vocab), vocab=vocab,
                                phase1_budget=10)
        result = guided_prove(problem, config, SearchConfig(max_processed=2000))
        if result.info["finished_in_phase"] == 2:
            assert result.info["network_evals"] == result.info["evals_at_switch"]

    def test_phase1_processed_within_budget(self):
        problem = flooded()
        vocab = vocab_for(problem)
        for budget in (0, 5, 17):
            config = GuidanceConfig(mode="switched", model=model_for(vocab),
                                    vocab=vocab, phase1_budget=budget)
            result = guided_prove(problem, config, SearchConfig(max_processed=2000))
            assert result.info["phase1_processed"] <= budget

    def test_state_continuity_processed_monotone(self):
        problem = flooded()
        vocab = vocab_for(problem)
        config = GuidanceConfig(mode="switched", model=model_for(vocab), vocab=vocab,
                                phase1_budget=10)
        result = guided_prove(problem, config,
                              SearchConfig(max_processed=2000, record_selections=True))
        # selections never repeat: the switch reuses the same state
        assert len(result.selections) == len(set(result.selections))
        assert result.processed_count == len(result.selections)

    def test_budget_validation(self):
        # phase 1 must end before the totals, which are the search limits
        vocab = Vocabulary()
        model = init_model(ModelConfig(arch="cnn", vocab_size=3, dim=4), vocab_hash="")
        for phase1, limits in (({"phase1_budget": 10}, SearchConfig(max_processed=10)),
                               ({"phase1_budget": 25}, SearchConfig(max_processed=10)),
                               ({"phase1_ms": 500}, SearchConfig(max_wall_ms=500))):
            config = GuidanceConfig(mode="switched", model=model, vocab=vocab, **phase1)
            with pytest.raises(ValueError):
                guided_prove(tiny_problem(), config, limits)

    @pytest.mark.parametrize("option", ["phase1_budget", "phase1_ms"])
    def test_negative_phase1_rejected(self, option):
        model = init_model(ModelConfig(arch="cnn", vocab_size=3, dim=4), vocab_hash="")
        with pytest.raises(ValueError, match=f"{option} must be at least 0"):
            GuidanceConfig(mode="switched", model=model, vocab=Vocabulary(), **{option: -5})
        GuidanceConfig(mode="switched", model=model, vocab=Vocabulary(), **{option: 0})

    @pytest.mark.parametrize("mode", ["auto", "pure", "hybrid"])
    @pytest.mark.parametrize("option", ["phase1_budget", "phase1_ms"])
    def test_phase1_outside_switched_rejected(self, mode, option):
        model = init_model(ModelConfig(arch="cnn", vocab_size=3, dim=4), vocab_hash="")
        with pytest.raises(ValueError, match=f"{option} sets switched mode's phase 1"):
            GuidanceConfig(mode=mode, model=model, vocab=Vocabulary(), **{option: 5})

    @pytest.mark.parametrize("mode,picks", [("pure", 7), ("pure", 0), ("auto", 2),
                                            ("hybrid", 0), ("switched", -1)])
    def test_hybrid_nn_picks_it_cannot_honour_rejected(self, mode, picks):
        # other than 1 only where a classical schedule takes the picks, and
        # never below 1: a pure search would ignore it, and a weight of 0
        # would fail only when the schedule is built, in every cell
        model = init_model(ModelConfig(arch="cnn", vocab_size=3, dim=4), vocab_hash="")
        with pytest.raises(ValueError, match="hybrid_nn_picks"):
            GuidanceConfig(mode=mode, model=None if mode == "auto" else model,
                           vocab=Vocabulary(), hybrid_nn_picks=picks)

    @pytest.mark.parametrize("mode", ["Pure", "hybrid ", "", "premsel"])
    def test_unknown_mode_rejected(self, mode):
        # an unnamed mode used to run the hybrid schedule
        model = init_model(ModelConfig(arch="cnn", vocab_size=3, dim=4), vocab_hash="")
        with pytest.raises(ValueError, match=f"mode must be one of auto, pure, hybrid, "
                                             f"switched, got {mode!r}"):
            GuidanceConfig(mode=mode, model=model, vocab=Vocabulary())

    @pytest.mark.parametrize("mode", ["hybrid", "switched"])
    def test_hybrid_nn_picks_weigh_the_network_entry(self, mode):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        config = GuidanceConfig(mode=mode, model=model_for(vocab), vocab=vocab,
                                hybrid_nn_picks=3)
        assert build_schedule(config, problem, "auto").entries[0].weight == 3

    def test_finishes_in_phase1_when_easy(self):
        problem = tiny_problem()
        vocab = vocab_for(problem)
        config = GuidanceConfig(mode="switched", model=model_for(vocab), vocab=vocab,
                                phase1_budget=50)
        result = guided_prove(problem, config, SearchConfig(max_processed=100))
        assert result.status == UNSAT
        assert result.info["finished_in_phase"] == 1

    @pytest.mark.parametrize("phase1_ms", [None, 30_000])
    def test_wall_budget_keeps_processed_limit(self, phase1_ms):
        # wall budgets must not lift the processed cap in either mode
        problem = flooded()
        vocab = vocab_for(problem)
        limits = SearchConfig(max_processed=5, max_wall_ms=60_000)
        for mode in ("hybrid", "switched"):
            config = GuidanceConfig(mode=mode, model=model_for(vocab), vocab=vocab,
                                    phase1_ms=phase1_ms if mode == "switched" else None)
            result = guided_prove(problem, config, limits)
            assert (result.status, result.resource) == (RESOURCE_OUT, "processed")
            assert result.processed_count == 5

    def test_wall_total_is_split_two_to_one(self, monkeypatch):
        # a wall limit alone, no processed cap: phase 1 must end at 2/3 of the
        # wall total and phase 2 must run. A fake clock that advances 5 ms
        # per reading makes the run the same on any machine.
        class Clock:
            now = 0.0

            def monotonic(self):
                self.now += 0.005
                return self.now

        clock = Clock()
        monkeypatch.setattr(saturation, "time", clock)
        problem = chain_problem("big", "rel0", [f"c{i}" for i in range(12)], 11,
                                junk_distractors(list(range(40)), "rel0"))
        vocab = vocab_for(problem)
        config = GuidanceConfig(mode="switched", model=model_for(vocab), vocab=vocab)
        result = guided_prove(problem, config,
                              SearchConfig(max_processed=None, max_wall_ms=1500))
        assert result.info["finished_in_phase"] == 2
        assert 0 < result.info["phase1_processed"] < result.processed_count
        assert result.info["network_evals"] == result.info["evals_at_switch"]
        assert (result.status, result.resource) == (RESOURCE_OUT, "time")

    def test_processed_total_is_split_two_to_one(self):
        # a processed limit alone, no wall limit: phase 1 gets 2/3 of it
        problem = flooded()
        vocab = vocab_for(problem)
        config = GuidanceConfig(mode="switched", model=model_for(vocab), vocab=vocab)
        result = guided_prove(problem, config,
                              SearchConfig(max_processed=30, max_wall_ms=None))
        assert result.info["phase1_processed"] == 20
        assert result.info["finished_in_phase"] == 2
        assert result.info["network_evals"] == result.info["evals_at_switch"]

