"""Experiment harness: corpus runs, aggregates, union stats, curve files.

A method is a `GuidanceConfig` under an id, and each cell is one
`guided_prove` call under the experiment's limits, whatever the mode
(a cascade cell splits them across its levels). A report is
line-delimited: one record per (problem, method) cell and a trailing
summary block holding aggregates plus the resolved config. The
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
from .guidance import GuidanceConfig, guided_prove
from .neural.models import ModelParams
from .neural.train import accuracy as pair_accuracy
from .neural.train import prepare_pairs
from .saturation import SearchConfig, UNSAT
from .tokens import Vocabulary

PC_BUCKETS = (1_000, 10_000, 100_000, None)  # None = no limit


@dataclass
class ProblemRecord:
    problem: str
    method: str
    status: str
    processed: int
    generated: int
    wall_ms: int
    guidance_mode: str
    premise_level: int | None = None  # cascade mode: the level that proved it

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
    percent, proved_sets = {}, {}
    for m in methods:
        recs = [r for r in records if r.method == m]
        proved_sets[m] = {r.problem for r in recs if r.proved}
        percent[m] = {_bucket_name(limit): round(100.0 * sum(
            1 for r in recs if r.proved and (limit is None or r.processed <= limit)
        ) / len(recs), 4) for limit in PC_BUCKETS}
    return {
        "methods": methods,
        "percent_proved": percent,
        "proved_counts": {m: len(s) for m, s in proved_sets.items()},
        "union_total": len(set().union(*proved_sets.values())),
        "pairwise_union": {f"{a}|{b}": len(proved_sets[a] | proved_sets[b])
                           for a in methods for b in methods if a < b},
        "unique_proofs": {m: len(s.difference(*(proved_sets[o] for o in methods if o != m)))
                          for m, s in proved_sets.items()},
    }


def run_corpus(problems: list[Problem], methods: dict[str, GuidanceConfig],
               limits: SearchConfig | None = None,
               record_walltime: bool = False) -> ExperimentReport:
    """Every (problem, method) cell under identical limits, one method id
    each.

    A method that cannot run under `limits` raises ValueError before any
    cell runs. Per-cell crashes become records with status Error(...),
    the run continues.
    """
    limits = limits or SearchConfig()
    for guidance in methods.values():
        guidance.check_limits(limits)
    report = ExperimentReport()
    report.config = {
        "record_walltime": record_walltime,
        "limits": asdict(limits),
        "methods": {method: guidance.describe() for method, guidance in methods.items()},
        "n_problems": len(problems),
    }
    for method, guidance in methods.items():
        for problem in problems:
            t0 = time.monotonic()
            try:
                record = _run_cell(problem, method, guidance, limits)
            except Exception as exc:
                record = ProblemRecord(problem.name, method,
                                       f"Error({type(exc).__name__}: {exc})", 0, 0, 0,
                                       guidance.mode)
            if not record_walltime:
                record.wall_ms = 0
            else:
                record.wall_ms = int((time.monotonic() - t0) * 1000)
            report.records.append(record)
    report.aggregates = compute_aggregates(report.records)
    return report


def _run_cell(problem: Problem, method: str, guidance: GuidanceConfig,
              limits: SearchConfig) -> ProblemRecord:
    res = guided_prove(problem, guidance, limits)
    return ProblemRecord(problem.name, method, res.status, res.processed_count,
                         res.generated_count, res.wall_ms, guidance.mode,
                         res.info.get("premise_level"))


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
    out, base = [], 1
    while base <= max(max_processed, 10):
        out += [base, 2 * base, 5 * base]
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
        unproved = [sum(1 for r in recs if not (r.proved and r.processed <= limit))
                    for limit in limits]
        curves[m] = [(limit, round(100.0 * k / len(recs), 4))
                     for limit, k in zip(limits, unproved)]
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
