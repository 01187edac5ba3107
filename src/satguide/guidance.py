"""Neural guidance for clause selection: pure, hybrid and switched modes.

The trained scorer becomes one more weight function: clause -> -p(useful),
so the existing lowest-is-best rankings select the most promising clause.
The negated-conjecture embedding is computed once per proof attempt;
clause scores are cached by id (they depend only on clause + conjecture)
and evaluated in batches as the selection loop first needs them.

Switched mode runs a hybrid phase under a budget, then hands the same
proof state (processed set, queues, counters) to the classical schedule
of the search limits (Auto by default); no network evaluation happens
after the switch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .fol import Clause, Problem, normalize_variables
from .heuristics import SelectionSchedule, WeightFunction, parse_schedule
from .neural import tensor as T
from .neural.models import (
    SEQ_ARCHS,
    ModelParams,
    TOWER_CLAUSE,
    TOWER_CONJ,
    combiner_logit,
    embed_sequence,
    embed_sequences,
    embed_tree,
    index_tree,
)
from .saturation import (
    PROOF_FOUND,
    RESOURCE_OUT,
    SAT,
    SATURATED,
    UNSAT,
    ProveResult,
    Saturation,
    SearchConfig,
    prove,
)
from .tokens import Vocabulary, tokenize, tokenize_conjecture
from .trees import clause_parse_tree, conjecture_tree

MODE_AUTO = "auto"
MODE_PURE = "pure"
MODE_HYBRID = "hybrid"
MODE_SWITCHED = "switched"


@dataclass
class GuidanceConfig:
    mode: str = MODE_AUTO
    model: ModelParams | None = None
    vocab: Vocabulary | None = None
    hybrid_nn_picks: int = 1
    batch_size: int = 32
    # budgets are processed-clause counts unless the *_ms variants are set
    phase1_budget: int | None = None
    total_budget: int | None = None
    phase1_ms: int | None = None
    total_ms: int | None = None

    def __post_init__(self):
        if self.mode != MODE_AUTO and self.model is None:
            raise ValueError(f"mode {self.mode!r} requires a model")
        if self.mode == MODE_SWITCHED:
            if self.phase1_budget is not None and self.total_budget is not None:
                if self.phase1_budget >= self.total_budget:
                    raise ValueError("switched mode needs phase1_budget < total_budget")
            if self.phase1_ms is not None and self.total_ms is not None:
                if self.phase1_ms >= self.total_ms:
                    raise ValueError("switched mode needs phase1_ms < total_ms")

    def describe(self) -> dict:
        return {
            "mode": self.mode,
            "hybrid_nn_picks": self.hybrid_nn_picks,
            "batch_size": self.batch_size,
            "phase1_budget": self.phase1_budget,
            "total_budget": self.total_budget,
            "phase1_ms": self.phase1_ms,
            "total_ms": self.total_ms,
            "model": self.model.config.arch if self.model else None,
        }


class ClauseScorer:
    """Per-problem scoring context: one conjecture embedding, one cache."""

    def __init__(self, model: ModelParams, vocab: Vocabulary, problem: Problem,
                 batch_size: int = 32):
        if model.vocab_hash and model.vocab_hash != vocab.hash:
            raise ValueError(
                "vocabulary hash mismatch between the model checkpoint and "
                "the tokenizer vocabulary"
            )
        self.model = model
        self.vocab = vocab
        self.batch_size = batch_size
        self.cache: dict[int, float] = {}  # clause id -> probability, never stale
        self.max_len = model.config.max_len
        self.batch_calls = 0
        self.clause_evals = 0
        self.conj_evals = 0
        self._sequence = model.config.arch in SEQ_ARCHS
        with T.no_grad():
            if self._sequence:
                seq = tokenize_conjecture(problem.negated_conjecture, vocab, self.max_len)
                self.v_nc = embed_sequence(seq.tokens, model, TOWER_CONJ)
            else:
                tree = conjecture_tree(problem.negated_conjecture)
                self.v_nc = embed_tree(index_tree(tree, vocab.lookup), model, TOWER_CONJ)
        self.conj_evals += 1

    def _embed_clause(self, c: Clause) -> T.Tensor:
        if self._sequence:
            seq = tokenize(normalize_variables(c), self.vocab, self.max_len)
            return embed_sequence(seq.tokens, self.model, TOWER_CLAUSE)
        tree = clause_parse_tree(c)
        return embed_tree(index_tree(tree, self.vocab.lookup), self.model, TOWER_CLAUSE)

    def score_clause(self, c: Clause) -> float:
        if c.id not in self.cache:
            self.score_batch([c])
        return self.cache[c.id]

    def probability(self, vec: T.Tensor) -> float:
        """p(useful | embedded clause or premise, conjecture): the sigmoid of
        the combiner logit. The one scoring function of guided search and
        premise ranking."""
        with T.no_grad():
            logit = combiner_logit(vec, self.v_nc, self.model)
            return float(T.sigmoid(logit).data.reshape(-1)[0])

    def score_batch(self, clauses: list[Clause]):
        """Score the uncached clauses, in order, batch_size at a time.

        Sequence towers evaluate a whole chunk at once; padded positions
        are masked after every layer so each row is bit-identical to a
        lone evaluation, and the combiner runs per clause. Batch size is
        therefore amortization only, never a change in the math.
        """
        pending = [c for c in clauses if c.id not in self.cache]
        for start in range(0, len(pending), self.batch_size):
            chunk = pending[start : start + self.batch_size]
            self.batch_calls += 1
            with T.no_grad():
                if self._sequence:
                    ids = [
                        tokenize(normalize_variables(c), self.vocab, self.max_len).tokens
                        for c in chunk
                    ]
                    vecs = embed_sequences(ids, self.model, TOWER_CLAUSE)
                    for i, c in enumerate(chunk):
                        self.cache[c.id] = self.probability(T.constant(vecs.data[i]))
                        self.clause_evals += 1
                else:
                    for c in chunk:
                        self.cache[c.id] = self.probability(self._embed_clause(c))
                        self.clause_evals += 1


class NeuralWeightFn(WeightFunction):
    """-p(useful | clause, conjecture) as a lowest-is-best weight."""

    lazy = True
    name = "nn"

    def __init__(self, scorer: ClauseScorer):
        self.scorer = scorer

    def key(self, c: Clause) -> tuple[int, float]:
        return (0, -self.scorer.score_clause(c))

    def batch_keys(self, clauses: list[Clause]) -> list[tuple[int, float]]:
        self.scorer.score_batch(clauses)
        return [(0, -self.scorer.cache[c.id]) for c in clauses]


def build_schedule(config: GuidanceConfig, problem: Problem, classical: str = "auto",
                   scorer_out: list | None = None) -> SelectionSchedule:
    """Schedule for one guided proof attempt.

    Pure is a single neural ranking; hybrid (and switched, in its first
    phase) interleaves `hybrid_nn_picks` neural picks into the full cycle
    of the `classical` schedule spec.
    """
    scorer = ClauseScorer(config.model, config.vocab, problem, config.batch_size)
    if scorer_out is not None:
        scorer_out.append(scorer)
    nn = NeuralWeightFn(scorer)
    if config.mode == MODE_PURE:
        return SelectionSchedule([(1, nn)])
    classic = parse_schedule(classical, problem.conjecture_symbols())
    return SelectionSchedule([(config.hybrid_nn_picks, nn),
                              *((e.weight, e.fn) for e in classic.entries)])


def guided_prove(problem: Problem, gconfig: GuidanceConfig,
                 limits: SearchConfig | None = None) -> ProveResult:
    """Entry point dispatching on guidance mode.

    Auto is the classical search under `limits`, schedule included. Hybrid
    and switched take their classical entries from `limits.schedule`;
    pure selects by the network alone, so it rejects any other schedule.
    """
    limits = limits or SearchConfig()
    if gconfig.mode == MODE_SWITCHED:
        return switched_prove(problem, gconfig, limits)
    if gconfig.mode == MODE_PURE and limits.schedule != SearchConfig.schedule:
        raise ValueError(f"pure mode selects by the network alone and cannot "
                         f"use schedule {limits.schedule!r}")
    if gconfig.total_budget is not None:
        limits = replace(limits, max_processed=gconfig.total_budget)
    if gconfig.total_ms is not None:
        limits = replace(limits, max_wall_ms=gconfig.total_ms)
    if gconfig.mode == MODE_AUTO:
        result = prove(problem, limits)
    else:
        scorers: list[ClauseScorer] = []
        result = prove(problem, replace(limits, schedule_factory=lambda p: build_schedule(
            gconfig, p, limits.schedule, scorers)))
        result.info["network_evals"] = scorers[0].clause_evals
        result.info["batch_calls"] = scorers[0].batch_calls
    result.info["guidance"] = gconfig.describe()
    return result


def switched_prove(problem: Problem, gconfig: GuidanceConfig,
                   limits: SearchConfig | None = None) -> ProveResult:
    """Hybrid phase under a budget, then the classical schedule alone on
    the same proof state.

    Default budget split is 2:1 (phase 1 : phase 2) of the total. With a
    clause-denominated budget the phase-1 processed count is capped
    exactly; zero network evaluation happens after the switch.
    """
    limits = limits or SearchConfig()
    t0 = time.monotonic()

    total_budget = gconfig.total_budget
    if total_budget is None and gconfig.total_ms is None:
        total_budget = limits.max_processed
    phase1_budget = gconfig.phase1_budget
    if phase1_budget is None and total_budget is not None and gconfig.phase1_ms is None:
        phase1_budget = (2 * total_budget) // 3

    total_deadline = None
    if gconfig.total_ms is not None:
        total_deadline = t0 + gconfig.total_ms / 1000.0
    elif limits.max_wall_ms is not None:
        total_deadline = t0 + limits.max_wall_ms / 1000.0
    phase1_deadline = total_deadline
    if gconfig.phase1_ms is not None:
        phase1_deadline = t0 + gconfig.phase1_ms / 1000.0

    scorers: list[ClauseScorer] = []
    hybrid = replace(gconfig, mode=MODE_HYBRID)
    # phase caps are passed to run() directly
    config = replace(limits, max_processed=None, schedule_factory=lambda p: build_schedule(
        hybrid, p, limits.schedule, scorers))
    state = Saturation(problem, config)
    info = {"guidance": gconfig.describe()}

    if state.empty_clause_id is not None:
        result = state.result(UNSAT, t0)
        result.info.update(info)
        return result

    outcome = state.run(max_processed=phase1_budget, deadline=phase1_deadline)
    scorer = scorers[0]
    info["phase1_processed"] = state.steps
    info["evals_at_switch"] = scorer.clause_evals

    if outcome in (PROOF_FOUND, SATURATED):
        info["finished_in_phase"] = 1
        result = state.result(_terminal_status(state, outcome), t0)
        result.info.update(info)
        return result

    # switch: same processed set and counters, classical-only rankings
    state.resource = None
    old = state.schedule
    fresh = parse_schedule(limits.schedule, problem.conjecture_symbols())
    for cid in old.drain_ids():
        fresh.insert(old.alive[cid])
    state.schedule = fresh
    info["finished_in_phase"] = 2

    outcome = state.run(max_processed=total_budget, deadline=total_deadline)
    info["evals_final"] = scorer.clause_evals
    if outcome == "limit":
        result = state.result(RESOURCE_OUT, t0)
    else:
        result = state.result(_terminal_status(state, outcome), t0)
    result.info.update(info)
    return result


def _terminal_status(state: Saturation, outcome: str) -> str:
    if outcome == PROOF_FOUND:
        return UNSAT
    if state.lossy:
        state.resource = "clause_size"
        return RESOURCE_OUT
    return SAT
