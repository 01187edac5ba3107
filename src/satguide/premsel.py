"""Premise ranking and the growing top-k cascade of proof attempts.

Premises are whole input formulas (clause groups sharing an origin name),
scored against the negated conjecture with the pairwise scorer. The
cascade tries the top 32, 64, 128, 256 premises in turn (clamped to the
number available, duplicates dropped) and stops at the first proof; the
processed-clause budget and the wall limit are split evenly across the
levels. A level that saturates a strict subset of the premises proves
nothing about the problem, so it ends as ResourceOut.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from .fol import Clause, Problem, clause_str, normalize_variables
from .guidance import ClauseScorer
from .neural import tensor as T
from .neural.models import TOWER_CLAUSE, embed_sequence, embed_tree, index_tree
from .neural.models import combiner_logit  # noqa: F401  a span target of bench/tracing.py
from .saturation import RESOURCE_OUT, SAT, ProveResult, SearchConfig, UNSAT, prove
from .tokens import tokenize_texts
from .trees import clause_parse_tree

DEFAULT_LEVELS = (32, 64, 128, 256)


@dataclass
class RankedPremises:
    order: list[str]  # origin names, best first
    scores: dict[str, float]

    @property
    def ranking_hash(self) -> str:
        payload = ",".join(self.order)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class CascadeResult:
    result: ProveResult
    level_used: int | None
    levels_attempted: list[int]
    transcript: list[dict] = field(default_factory=list)
    ranking_hash: str = ""


def premise_groups(problem: Problem) -> list[tuple[str, list[Clause]]]:
    """Axiom clauses grouped by their input formula, in input order."""
    order: list[str] = []
    groups: dict[str, list[Clause]] = {}
    for c in problem.axioms:
        name = c.origin or f"c{c.id}"
        if name not in groups:
            groups[name] = []
            order.append(name)
        groups[name].append(c)
    return [(name, groups[name]) for name in order]


def rank_premises(problem: Problem, scorer: ClauseScorer) -> RankedPremises:
    """Score each premise against the negated conjecture; sort descending,
    ties keeping input order.

    Sequence models see the premise's clauses as one SEP-joined token
    stream. Tree models embed each clause through the clause tower and
    pool elementwise-max over the group (clause trees carry no `and`).
    """
    groups = premise_groups(problem)
    scores: dict[str, float] = {}
    with T.no_grad():
        for name, clauses in groups:
            if scorer.model.config.arch in ("cnn", "wavenet"):
                texts = [clause_str(normalize_variables(c)) for c in clauses]
                ids = tokenize_texts(texts, scorer.vocab, scorer.max_len)
                vec = embed_sequence(ids, scorer.model, TOWER_CLAUSE)
            else:
                vecs = [
                    embed_tree(
                        index_tree(clause_parse_tree(c), scorer.vocab.lookup),
                        scorer.model,
                        TOWER_CLAUSE,
                    )
                    for c in clauses
                ]
                vec = vecs[0] if len(vecs) == 1 else T.max_time(T.stack(vecs))
            scores[name] = scorer.probability(vec)
    order = sorted(range(len(groups)), key=lambda i: (-scores[groups[i][0]], i))
    return RankedPremises([groups[i][0] for i in order], scores)


def subset_problem(problem: Problem, origins: set[str], name_suffix: str = "") -> Problem:
    """Sub-problem with only the selected premises plus the conjecture."""
    axioms = []
    next_id = 0
    for c in problem.axioms:
        if (c.origin or f"c{c.id}") in origins:
            axioms.append(Clause(next_id, c.literals, role=c.role, origin=c.origin))
            next_id += 1
    ncs = []
    for c in problem.negated_conjecture:
        ncs.append(Clause(next_id, c.literals, role=c.role, origin=c.origin))
        next_id += 1
    return Problem(problem.name + name_suffix, axioms, ncs)


def clamp_levels(levels, n_premises: int) -> list[int]:
    """Clamp to the premise count, dropping duplicates after clamping."""
    out: list[int] = []
    for lv in levels:
        k = min(lv, n_premises)
        if k not in out:
            out.append(k)
    return out


def cascade_prove(problem: Problem, ranking: RankedPremises,
                  levels=DEFAULT_LEVELS, total_budget: int = 2000,
                  prover=None, limits: SearchConfig | None = None) -> CascadeResult:
    """Attempt the top-k subsets in growing order; stop at the first proof.

    `prover(subproblem, budget)` runs one attempt; the default is the
    unguided prover under `limits`, with the per-level processed-clause
    budget and the per-level share of the wall limit.
    """
    limits = limits or SearchConfig()
    eff_levels = clamp_levels(levels, len(ranking.order))
    n_levels = max(1, len(eff_levels))
    per_level = max(1, total_budget // n_levels)

    if prover is None:
        wall_ms = None if limits.max_wall_ms is None else max(1, limits.max_wall_ms // n_levels)

        def prover(sub: Problem, budget: int) -> ProveResult:
            return prove(sub, replace(limits, max_processed=budget, max_wall_ms=wall_ms))

    transcript = []
    last: ProveResult | None = None
    for k in eff_levels:
        top = set(ranking.order[:k])
        sub = subset_problem(problem, top, f"@top{k}")
        res = prover(sub, per_level)
        if res.status == SAT and k < len(ranking.order):
            res = replace(res, status=RESOURCE_OUT, resource="premises")
        transcript.append(
            {"level": k, "status": res.status, "processed": res.processed_count,
             "generated": res.generated_count}
        )
        last = res
        if res.status == UNSAT:
            return CascadeResult(res, k, [t["level"] for t in transcript],
                                 transcript, ranking.ranking_hash)
    return CascadeResult(last, None, [t["level"] for t in transcript],
                         transcript, ranking.ranking_hash)

