"""Premise ranking and the growing top-k cascade of proof attempts.

Premises are whole input formulas (clause groups sharing an origin name),
scored against the negated conjecture with the pairwise scorer, which
embeds them straight from their clauses (`ClauseScorer.premise_vectors`).
The cascade tries the top 32, 64, 128, 256 premises in turn (clamped to
the number available, duplicates dropped; no level, or one below 1, is an
error) and stops at the first proof; the processed-clause budget, if
any, and the wall limit are split evenly across the levels. A level is
the caller's axiom clauses of its top k premises, in input order, and
the negated conjecture, so a cascade result names the caller's clauses
by their ids, as every mode does. A level that saturates a strict subset
of the premises proves nothing about the problem, so it ends as
ResourceOut. `guidance.guided_prove` runs both in its `cascade` mode,
under `DEFAULT_LEVELS` unless `GuidanceConfig.premsel_levels` names
others.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from .fol import Clause, Problem, unit_name
from .saturation import RESOURCE_OUT, SAT, ProveResult, SearchConfig, UNSAT, prove

# unused here; bench/tracing.py spans these names in this module
from .neural.models import combiner_logit, embed_sequence  # noqa: F401
from .tokens import tokenize_texts  # noqa: F401

if TYPE_CHECKING:
    from .guidance import ClauseScorer

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
    groups: dict[str, list[Clause]] = {}
    for c in problem.axioms:
        groups.setdefault(unit_name(c), []).append(c)
    return list(groups.items())


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
    return RankedPremises(sorted(scores, key=lambda name: -scores[name]), scores)


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


def check_levels(levels) -> None:
    if not levels or min(levels) < 1:
        raise ValueError(f"premsel_levels must be one or more levels, each at least 1, "
                         f"got {tuple(levels)}")


def cascade_prove(problem: Problem, ranking: RankedPremises,
                  levels=DEFAULT_LEVELS, total_budget: int | None = 2000,
                  limits: SearchConfig | None = None) -> CascadeResult:
    """Attempt the top-k premises in growing order; stop at the first proof.

    Each level runs the unguided prover under `limits`, with an even share
    of `total_budget` processed clauses (None: no cap per level) and of
    the wall limit. The result is the last level's, with its processed,
    generated and wall counts summed over every level tried.
    """
    check_levels(levels)
    limits = limits or SearchConfig()
    eff_levels = clamp_levels(levels, len(ranking.order))
    n_levels = len(eff_levels)
    level_limits = replace(limits, max_processed=_share(total_budget, n_levels),
                           max_wall_ms=_share(limits.max_wall_ms, n_levels))

    transcript, wall_ms = [], 0
    for k in eff_levels:
        top = set(ranking.order[:k])
        level = Problem(f"{problem.name}@top{k}",
                        [c for c in problem.axioms if unit_name(c) in top],
                        problem.negated_conjecture)
        res = prove(level, level_limits)
        if res.status == SAT and k < len(ranking.order):
            res = replace(res, status=RESOURCE_OUT, resource="premises")
        transcript.append(
            {"level": k, "status": res.status, "processed": res.processed_count,
             "generated": res.generated_count}
        )
        wall_ms += res.wall_ms
        if res.status == UNSAT:
            break
    total = replace(res, processed_count=sum(t["processed"] for t in transcript),
                    generated_count=sum(t["generated"] for t in transcript),
                    wall_ms=wall_ms)
    return CascadeResult(total, k if res.status == UNSAT else None,
                         [t["level"] for t in transcript], transcript,
                         ranking.ranking_hash)
