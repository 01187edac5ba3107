"""Experiment harness: corpus runs, aggregates, union stats, curve files.

A report is line-delimited: one record per (problem, method) cell and a
trailing summary block holding aggregates plus the resolved config. The
aggregates are always recomputable from the records; `check_report`
recomputes and compares. Wall-clock fields are written as 0 unless
`record_walltime` is set, keeping report bytes reproducible under fixed
seeds and clause-denominated budgets.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

from .datagen import TrainingExample
from .fol import Problem
from .guidance import ClauseScorer, GuidanceConfig, guided_prove
from .neural.models import ModelParams
from .neural.train import accuracy as pair_accuracy
from .neural.train import prepare_pairs
from .premsel import cascade_prove, rank_premises
from .saturation import SearchConfig, UNSAT
from .tokens import Vocabulary

PC_BUCKETS = (1_000, 10_000, 100_000, None)  # None = no limit


@dataclass
class MethodConfig:
    id: str
    guidance: GuidanceConfig
    premsel_levels: tuple[int, ...] | None = None  # enables the cascade
    premsel_budget: int = 2000


@dataclass
class ProblemRecord:
    problem: str
    method: str
    status: str
    processed: int
    generated: int
    wall_ms: int
    guidance_mode: str
    premise_level: int | None = None

    @property
    def proved(self) -> bool:
        return self.status == UNSAT


@dataclass
class ExperimentReport:
    records: list[ProblemRecord] = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)


def _bucket_name(limit: int | None) -> str:
    return "inf" if limit is None else str(limit)


def compute_aggregates(records: list[ProblemRecord]) -> dict:
    """Percent proved per PC bucket and the union matrix, per method."""
    methods = sorted({r.method for r in records})
    by_method = {m: [r for r in records if r.method == m] for m in methods}
    percent = {}
    proved_sets = {}
    for m, recs in by_method.items():
        n = len(recs)
        proved_sets[m] = sorted(r.problem for r in recs if r.proved)
        percent[m] = {}
        for limit in PC_BUCKETS:
            ok = sum(
                1 for r in recs
                if r.proved and (limit is None or r.processed <= limit)
            )
            percent[m][_bucket_name(limit)] = round(100.0 * ok / n, 4) if n else 0.0
    union_all = sorted(set().union(*proved_sets.values())) if proved_sets else []
    pairwise = {}
    for a in methods:
        for b in methods:
            if a < b:
                pairwise[f"{a}|{b}"] = len(set(proved_sets[a]) | set(proved_sets[b]))
    uniques = {}
    for m in methods:
        others = set()
        for o in methods:
            if o != m:
                others.update(proved_sets[o])
        uniques[m] = len([p for p in proved_sets[m] if p not in others])
    return {
        "methods": methods,
        "percent_proved": percent,
        "proved_counts": {m: len(v) for m, v in proved_sets.items()},
        "union_total": len(union_all),
        "pairwise_union": pairwise,
        "unique_proofs": uniques,
    }


def run_corpus(problems: list[Problem], methods: list[MethodConfig],
               limits: SearchConfig | None = None,
               record_walltime: bool = False,
               seed: int = 0) -> ExperimentReport:
    """Every (problem, method) cell under identical limits.

    A method whose guidance cannot run under `limits` raises ValueError
    before any cell runs. Per-cell crashes become records with status
    Error(...), the run continues.
    """
    limits = limits or SearchConfig()
    for method in methods:
        if not method.premsel_levels:  # the cascade runs no guided search
            method.guidance.check_limits(limits)
    report = ExperimentReport()
    report.config = {
        "seed": seed,
        "record_walltime": record_walltime,
        "limits": asdict(limits),
        "methods": {
            m.id: {**m.guidance.describe(),
                   "premsel_levels": list(m.premsel_levels) if m.premsel_levels else None,
                   "premsel_budget": m.premsel_budget if m.premsel_levels else None}
            for m in methods
        },
        "n_problems": len(problems),
    }
    for method in methods:
        for problem in problems:
            t0 = time.monotonic()
            try:
                record = _run_cell(problem, method, limits)
            except Exception as exc:
                record = ProblemRecord(problem.name, method.id,
                                       f"Error({type(exc).__name__}: {exc})", 0, 0, 0,
                                       method.guidance.mode)
            if not record_walltime:
                record.wall_ms = 0
            else:
                record.wall_ms = int((time.monotonic() - t0) * 1000)
            report.records.append(record)
    report.aggregates = compute_aggregates(report.records)
    return report


def _run_cell(problem: Problem, method: MethodConfig, limits: SearchConfig) -> ProblemRecord:
    if method.premsel_levels:
        scorer = ClauseScorer(method.guidance.model, method.guidance.vocab, problem,
                              method.guidance.batch_size)
        ranking = rank_premises(problem, scorer)
        cascade = cascade_prove(problem, ranking, method.premsel_levels,
                                method.premsel_budget, limits=limits)
        res = cascade.result
        return ProblemRecord(problem.name, method.id, res.status,
                             res.processed_count, res.generated_count, res.wall_ms,
                             method.guidance.mode, cascade.level_used)
    res = guided_prove(problem, method.guidance, limits)
    return ProblemRecord(problem.name, method.id, res.status, res.processed_count,
                         res.generated_count, res.wall_ms, method.guidance.mode)


def accuracy_eval(model: ModelParams, balanced_examples: list[TrainingExample],
                  vocab: Vocabulary) -> float:
    """Fraction of balanced examples with (score > 0.5) == label."""
    pairs = prepare_pairs(balanced_examples, vocab, model.config)
    return pair_accuracy(pairs, model)


def union_stats(report: ExperimentReport) -> dict:
    """Union statistics across the methods of one report."""
    agg = compute_aggregates(report.records)
    return {
        "per_method": agg["proved_counts"],
        "pairwise_union": agg["pairwise_union"],
        "union_total": agg["union_total"],
        "unique_proofs": agg["unique_proofs"],
    }


def curve_limits(max_processed: int) -> list[int]:
    """Log-spaced processed-clause limits: 1, 2, 5 per decade."""
    out = []
    base = 1
    while base <= max(max_processed, 10):
        for k in (1, 2, 5):
            v = k * base
            out.append(v)
        base *= 10
    return out


def emit_curves(report: ExperimentReport) -> dict[str, list[tuple[int, float]]]:
    """Per method, (PC limit, percent unproved) rows for external plotting."""
    methods = sorted({r.method for r in report.records})
    highest = max((r.processed for r in report.records if r.proved), default=10)
    limits = curve_limits(highest)
    curves = {}
    for m in methods:
        recs = [r for r in report.records if r.method == m]
        n = len(recs)
        rows = []
        for limit in limits:
            proved = sum(1 for r in recs if r.proved and r.processed <= limit)
            unproved_pct = 100.0 * (n - proved) / n if n else 100.0
            rows.append((limit, round(unproved_pct, 4)))
        curves[m] = rows
    return curves


def write_curve_files(report: ExperimentReport, out_dir: str):
    import os

    os.makedirs(out_dir, exist_ok=True)
    for method, rows in emit_curves(report).items():
        path = os.path.join(out_dir, f"curve_{method}.txt")
        with open(path, "w") as fh:
            fh.write("# pc_limit percent_unproved\n")
            for limit, pct in rows:
                fh.write(f"{limit} {pct}\n")


# -- report files -----------------------------------------------------------------


def write_report(report: ExperimentReport, path: str):
    with open(path, "w") as fh:
        for r in report.records:
            fh.write(json.dumps({"type": "record", **asdict(r)}, sort_keys=True) + "\n")
        summary = {
            "type": "summary",
            "aggregates": report.aggregates,
            "config": report.config,
        }
        fh.write(json.dumps(summary, sort_keys=True) + "\n")


def read_report(path: str) -> ExperimentReport:
    report = ExperimentReport()
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            kind = rec.pop("type")
            if kind == "record":
                report.records.append(ProblemRecord(**rec))
            else:
                report.aggregates = rec["aggregates"]
                report.config = rec["config"]
    return report


def check_report(report: ExperimentReport) -> bool:
    """Recompute every aggregate from the raw records and compare."""
    fresh = compute_aggregates(report.records)
    return json.loads(json.dumps(fresh)) == json.loads(json.dumps(report.aggregates))
