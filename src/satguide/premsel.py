"""Premise ranking and the growing top-k cascade of proof attempts.

Premises are whole input formulas (clause groups sharing an origin name),
scored against the negated conjecture with the pairwise scorer, which
embeds them straight from their clauses (`ClauseScorer.premise_vectors`).
The cascade tries the top 32, 64, 128, 256 premises in turn (clamped to
the number available, duplicates dropped; no level, or one below 1, is an
error) and stops at the first proof; the processed-clause budget, if
any, and the wall limit are split evenly across the levels. A level
that saturates a strict subset of the premises proves nothing about the
problem, so it ends as ResourceOut.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from .fol import Clause, Problem, build_problem
from .guidance import ClauseScorer
from .saturation import RESOURCE_OUT, SAT, ProveResult, SearchConfig, UNSAT, prove

# unused here; bench/tracing.py spans these names in this module
from .neural.models import combiner_logit, embed_sequence  # noqa: F401
from .tokens import tokenize_texts  # noqa: F401

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

    `ClauseScorer.premise_vectors` embeds the premises straight from their
    clauses, scorer.batch_size premises at a time, and one combiner call
    scores them all.
    """
    groups = premise_groups(problem)
    probs = scorer.probabilities(scorer.premise_vectors([cs for _, cs in groups]))
    scores = {name: p for (name, _), p in zip(groups, probs)}
    order = sorted(range(len(groups)), key=lambda i: (-scores[groups[i][0]], i))
    return RankedPremises([groups[i][0] for i in order], scores)


def subset_problem(problem: Problem, origins: set[str], name_suffix: str = "") -> Problem:
    """Sub-problem with only the selected premises plus the conjecture."""
    axioms = [(c.origin, c.literals) for c in problem.axioms
              if (c.origin or f"c{c.id}") in origins]
    return build_problem(problem.name + name_suffix, axioms,
                         [(c.origin, c.literals) for c in problem.negated_conjecture])


def clamp_levels(levels, n_premises: int) -> list[int]:
    """Clamp to the premise count, dropping duplicates after clamping."""
    out: list[int] = []
    for lv in levels:
        k = min(lv, n_premises)
        if k not in out:
            out.append(k)
    return out


def _share(total: int | None, n: int) -> int | None:
    return None if total is None else max(1, total // n)


def cascade_prove(problem: Problem, ranking: RankedPremises,
                  levels=DEFAULT_LEVELS, total_budget: int | None = 2000,
                  limits: SearchConfig | None = None) -> CascadeResult:
    """Attempt the top-k subsets in growing order; stop at the first proof.

    Each level runs the unguided prover under `limits`, with an even share
    of `total_budget` processed clauses (None: no cap per level) and of
    the wall limit.
    """
    if not levels or min(levels) < 1:
        raise ValueError(f"cascade needs one or more levels, each at least 1, "
                         f"got {tuple(levels)}")
    limits = limits or SearchConfig()
    eff_levels = clamp_levels(levels, len(ranking.order))
    n_levels = len(eff_levels)
    level_limits = replace(limits, max_processed=_share(total_budget, n_levels),
                           max_wall_ms=_share(limits.max_wall_ms, n_levels))

    transcript = []
    for k in eff_levels:
        top = set(ranking.order[:k])
        sub = subset_problem(problem, top, f"@top{k}")
        res = prove(sub, level_limits)
        if res.status == SAT and k < len(ranking.order):
            res = replace(res, status=RESOURCE_OUT, resource="premises")
        transcript.append(
            {"level": k, "status": res.status, "processed": res.processed_count,
             "generated": res.generated_count}
        )
        if res.status == UNSAT:
            return CascadeResult(res, k, [t["level"] for t in transcript],
                                 transcript, ranking.ranking_hash)
    return CascadeResult(res, None, [t["level"] for t in transcript],
                         transcript, ranking.ranking_hash)

