"""Neural guidance for proof search: pure, hybrid, switched and cascade modes.

The scorer is the network's weight function: `ClauseScorer` keys a
clause by -p(useful), so the existing lowest-is-best rankings select the
most promising clause. The negated-conjecture embedding is computed once
per proof attempt; a clause is scored once, in the batch its schedule
entry keys at its turn, so no score is kept. `ClauseScorer.embed` builds
and embeds every inference input: clauses, the conjecture and `premsel`'s
premises.

`guided_prove` runs every mode under one `SearchConfig`. Switched mode
runs one proof state twice: a hybrid phase under phase-1 caps, then the
classical entries alone (Auto by default), with their rankings, under the
search limits, which are so the totals of both phases; no network
evaluation happens after the switch. Cascade mode ranks the premises by
the network and runs `premsel`'s top-k cascade of unguided searches, one
per entry of `premsel_levels` (`premsel.DEFAULT_LEVELS` when it is None);
every other mode refuses levels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import premsel
from .fol import Clause, Problem
from .heuristics import SelectionSchedule, WeightFunction, parse_schedule
from .neural import tensor as T
from .neural.models import (
    SEQ_ARCHS,
    ModelParams,
    TOWER_CLAUSE,
    TOWER_CONJ,
    combiner_logit,
    embed_sequences,
    embed_tree,
)
from .saturation import (
    LIMIT,
    ProveResult,
    Saturation,
    SearchConfig,
    prove,
)
from .tokens import Vocabulary, tokenize_conjecture
from .trees import clause_tree

# unused here; bench/tracing.py spans these names in this module
from .neural.models import embed_sequence  # noqa: F401
from .tokens import tokenize  # noqa: F401

MODE_AUTO = "auto"
MODE_PURE = "pure"
MODE_HYBRID = "hybrid"
MODE_SWITCHED = "switched"
MODE_CASCADE = "cascade"
MODES = (MODE_AUTO, MODE_PURE, MODE_HYBRID, MODE_SWITCHED, MODE_CASCADE)


@dataclass
class GuidanceConfig:
    mode: str = MODE_AUTO
    model: ModelParams | None = None
    vocab: Vocabulary | None = None
    hybrid_nn_picks: int = 1
    batch_size: int = 32
    # switched mode's phase 1, in processed clauses or wall ms; the totals
    # of both phases are the search limits
    phase1_budget: int | None = None
    phase1_ms: int | None = None
    # cascade mode's premise counts, one proof attempt each; None is
    # premsel.DEFAULT_LEVELS in cascade mode
    premsel_levels: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {', '.join(MODES)}, got {self.mode!r}")
        for name in ("model", "vocab"):
            if self.mode != MODE_AUTO and getattr(self, name) is None:
                raise ValueError(f"mode {self.mode!r} requires a {name}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.hybrid_nn_picks < 1:
            raise ValueError(f"hybrid_nn_picks must be at least 1, got {self.hybrid_nn_picks}")
        if self.hybrid_nn_picks != 1 and self.mode not in (MODE_HYBRID, MODE_SWITCHED):
            raise ValueError(f"hybrid_nn_picks interleaves network picks into a classical "
                             f"schedule; mode {self.mode!r} has none")
        for name in ("phase1_budget", "phase1_ms"):
            value = getattr(self, name)
            if value is not None and self.mode != MODE_SWITCHED:
                raise ValueError(f"{name} sets switched mode's phase 1; "
                                 f"mode {self.mode!r} has none")
            if value is not None and value < 0:
                raise ValueError(f"{name} must be at least 0, got {value}")
        if self.premsel_levels is not None and self.mode != MODE_CASCADE:
            raise ValueError(f"premsel_levels needs mode {MODE_CASCADE!r}; "
                             f"mode {self.mode!r} has no levels")
        if self.mode == MODE_CASCADE:
            self.premsel_levels = tuple(premsel.DEFAULT_LEVELS if self.premsel_levels is None
                                        else self.premsel_levels)
            premsel.check_levels(self.premsel_levels)

    def check_limits(self, limits: SearchConfig) -> None:
        """Raise ValueError when this mode cannot run under the search
        limits `limits`: pure mode under any schedule but the default, or
        switched mode with a phase 1 that would not end before the totals."""
        if self.mode == MODE_PURE and limits.schedule != SearchConfig.schedule:
            raise ValueError(f"pure mode selects by the network alone and cannot "
                             f"use schedule {limits.schedule!r}")
        if None not in (self.phase1_budget, limits.max_processed) \
                and self.phase1_budget >= limits.max_processed:
            raise ValueError("switched mode needs phase1_budget < max_processed")
        if None not in (self.phase1_ms, limits.max_wall_ms) \
                and self.phase1_ms >= limits.max_wall_ms:
            raise ValueError("switched mode needs phase1_ms < max_wall_ms")

    def describe(self) -> dict:
        return {
            "mode": self.mode,
            "hybrid_nn_picks": self.hybrid_nn_picks,
            "batch_size": self.batch_size,
            "phase1_budget": self.phase1_budget,
            "phase1_ms": self.phase1_ms,
            "premsel_levels": (list(self.premsel_levels) if self.mode == MODE_CASCADE
                               else None),
            "model": self.model.config.arch if self.model else None,
        }


class ClauseScorer(WeightFunction):
    """The network's weight function for one problem: -p(useful | clause,
    conjecture), lowest-is-best, from one conjecture embedding. `embed` is
    the one inference encoder."""

    def __init__(self, model: ModelParams, vocab: Vocabulary, problem: Problem,
                 batch_size: int = 32):
        if model.vocab_hash and model.vocab_hash != vocab.hash:
            raise ValueError(
                "vocabulary hash mismatch between the model checkpoint and "
                "the tokenizer vocabulary"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {batch_size}")
        self.model = model
        self.vocab = vocab
        self.batch_size = batch_size
        self.max_len = model.config.max_len
        self.batch_calls = 0  # `probabilities` calls
        self.network_evals = 0  # rows they scored: clauses and premises
        self._sequence = model.config.arch in SEQ_ARCHS
        self.v_nc = self.embed([problem.negated_conjecture], TOWER_CONJ)

    def embed(self, clause_lists: list[list[Clause]], tower: str = TOWER_CLAUSE) -> T.Tensor:
        """[B, dim]: one `tower` embedding per list of clauses, batch_size
        lists at a time. A list is one input: SEP-joined token ids for
        sequence models, an `and`-joined tree for tree models (so their
        clause tower takes one-clause lists only). Packed sequence rows
        round as `models.embed_sequences` describes."""
        rows = [np.zeros((0, self.model.config.dim))]  # no lists: a [0, dim] batch
        with T.no_grad():
            for start in range(0, len(clause_lists), self.batch_size):
                chunk = clause_lists[start : start + self.batch_size]
                if self._sequence:
                    rows.append(embed_sequences(
                        [tokenize_conjecture(cs, self.vocab, self.max_len) for cs in chunk],
                        self.model, tower).data)
                else:
                    rows += [embed_tree(clause_tree(cs, self.vocab.lookup),
                                        self.model, tower).data[None]
                             for cs in chunk]
        return T.constant(np.concatenate(rows))

    def premise_vectors(self, groups: list[list[Clause]]) -> T.Tensor:
        """[G, dim]: one clause-tower embedding per premise, a group of
        clauses. Sequence models embed the group as one SEP-joined input;
        tree models embed each clause and max-pool elementwise over the
        group."""
        if self._sequence:
            return self.embed(groups)
        vecs = self.embed([[c] for cs in groups for c in cs])
        return T.segment_max(vecs, T.Segments([len(cs) for cs in groups]))

    def probabilities(self, vecs: T.Tensor) -> list[float]:
        """p(useful | embedded clause or premise, conjecture) for each row of
        `vecs` [B, dim]: the sigmoid of the combiner logit. The one scoring
        function of guided search and premise ranking, and the one place
        that counts network evaluations.

        The combiner sees [B, 1, 2*dim] rows, so numpy evaluates each row
        with the same one-row product as a lone row: every probability is
        bit-identical whatever B is. (A [B, 2*dim] product would go through
        a matrix-matrix BLAS call, which rounds differently.) An empty
        batch returns [] and counts no call.
        """
        if not len(vecs.data):
            return []
        self.batch_calls += 1
        self.network_evals += len(vecs.data)
        with T.no_grad():
            rows = vecs.data[:, None, :]
            conj = np.broadcast_to(self.v_nc.data, rows.shape)
            logits = combiner_logit(T.constant(rows), T.constant(conj), self.model)
            return T.sigmoid_array(logits.data).reshape(-1).tolist()

    def score_batch(self, clauses: list[Clause]) -> list[float]:
        """p(useful) for each clause, in order, batch_size at a time: one
        `embed` and one combiner call per chunk.

        The combiner and the tree towers give every clause the same bits
        whatever the batch size. A sequence chunk is embedded packed, so a
        clause's score can depend on its chunk in the BLAS cases that
        `models.embed_sequences` lists.
        """
        probs: list[float] = []
        for start in range(0, len(clauses), self.batch_size):
            chunk = clauses[start : start + self.batch_size]
            probs += self.probabilities(self.embed([[c] for c in chunk]))
        return probs

    def batch_keys(self, clauses: list[Clause]) -> list[tuple[int, float]]:
        return [(0, -p) for p in self.score_batch(clauses)]


def build_schedule(config: GuidanceConfig, problem: Problem,
                   classical: str) -> SelectionSchedule:
    """Schedule for one guided proof attempt; its first entry is the network's.

    Pure is a single neural ranking; every other mode (hybrid, and switched
    in its first phase) interleaves `hybrid_nn_picks` neural picks into the
    full cycle of the `classical` schedule spec.
    """
    nn = ClauseScorer(config.model, config.vocab, problem, config.batch_size)
    if config.mode == MODE_PURE:
        return SelectionSchedule([(1, nn)])
    classic = parse_schedule(classical)
    return SelectionSchedule([(config.hybrid_nn_picks, nn),
                              *((e.weight, e.fn) for e in classic.entries)])


def guided_prove(problem: Problem, gconfig: GuidanceConfig,
                 limits: SearchConfig | None = None) -> ProveResult:
    """Prove `problem` under `limits` in any guidance mode.

    Auto is the classical search under `limits`, schedule included. Hybrid
    and switched take their classical entries from `limits.schedule`;
    pure selects by the network alone, so it rejects any other schedule.

    Switched mode runs the hybrid schedule under `limits` capped at
    `phase1_budget` processed clauses and `phase1_ms` wall ms (without
    either, 2/3 of each total there is). If it stops at a limit, the
    network's entry retires, the classical entries keep their rankings of
    every live clause, and the same state runs on under `limits` itself.

    Cascade mode ranks the premises, then runs `premsel.cascade_prove`
    under `limits` split across `premsel_levels`; `info` carries the
    proving `premise_level` (or None), the `ranking_hash` and the
    `transcript` of the levels, whose counts the result's add up.
    """
    limits = limits or SearchConfig()
    gconfig.check_limits(limits)
    mode = gconfig.mode
    if mode == MODE_AUTO:
        result = prove(problem, limits)
    elif mode == MODE_CASCADE:
        scorer = ClauseScorer(gconfig.model, gconfig.vocab, problem, gconfig.batch_size)
        cascade = premsel.cascade_prove(problem, premsel.rank_premises(problem, scorer),
                                        gconfig.premsel_levels, limits.max_processed,
                                        limits=limits)
        result = cascade.result
        result.info.update(premise_level=cascade.level_used,
                           ranking_hash=cascade.ranking_hash,
                           transcript=cascade.transcript)
    else:
        schedule = build_schedule(gconfig, problem, limits.schedule)
        scorer = schedule.entries[0].fn
        if mode != MODE_SWITCHED:
            result = prove(problem, limits, schedule)
        else:
            budget, ms = gconfig.phase1_budget, gconfig.phase1_ms
            if budget is None and ms is None:
                budget, ms = (None if total is None else 2 * total // 3
                              for total in (limits.max_processed, limits.max_wall_ms))
            phase1 = replace(limits,
                             max_processed=limits.max_processed if budget is None else budget,
                             max_wall_ms=limits.max_wall_ms if ms is None else ms)
            state = Saturation(problem, phase1, schedule)
            outcome = state.run()
            info = {"phase1_processed": len(state.processed),
                    "evals_at_switch": scorer.network_evals,
                    "finished_in_phase": 1}
            if outcome == LIMIT:
                schedule.retire_first()
                state.config = limits
                info["finished_in_phase"] = 2
                outcome = state.run()
            result = state.result(outcome)
            result.info.update(info)
    if mode != MODE_AUTO:
        result.info.update(network_evals=scorer.network_evals,
                           batch_calls=scorer.batch_calls)
    result.info["guidance"] = gconfig.describe()
    return result
