"""Training data from proof traces: labeling, splitting, vocabulary.

A trace records, for one problem run under one fixed prover
configuration, every processed clause (with its used-in-proof flag) plus
a seeded sample of clauses that were generated but never processed.
Positives are the used processed clauses; negatives the unused ones, and
optionally ("star mode") a sample of never-processed clauses on top.

The train/eval split is by conjecture: every example follows its
problem, so the evaluation set shares no conjecture with training.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .fol import Problem, normalized_str
from .saturation import SearchConfig, UNSAT, prove
from .tokens import Vocabulary, text_tokens


@dataclass
class TraceClause:
    id: int
    text: str
    role: str
    processed: bool
    used: bool


@dataclass
class ProofTrace:
    problem: str
    status: str
    config_hash: str
    conjecture: list[str]  # printed negated-conjecture clauses
    clauses: list[TraceClause] = field(default_factory=list)
    resource: str | None = None  # the limit that stopped a ResourceOut search


@dataclass
class TrainingExample:
    clause_text: str
    conj_texts: list[str]
    label: int
    problem: str
    clause_id: int
    negative_kind: str | None = None  # processed_unused | sampled_unprocessed


@dataclass
class DatasetSplit:
    train_conjectures: set[str]
    eval_conjectures: set[str]

    def partition(self, examples: list[TrainingExample]):
        train = [e for e in examples if e.problem in self.train_conjectures]
        evals = [e for e in examples if e.problem in self.eval_conjectures]
        return train, evals


def config_hash(config: SearchConfig) -> str:
    """Hash of every setting that can change the search; recording the
    selections changes none."""
    payload = asdict(config)
    del payload["record_selections"]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


UNPROCESSED_CAP = 512  # never-processed clauses sampled into a trace


def trace_problem(problem: Problem, config: SearchConfig, seed: int = 0) -> ProofTrace:
    """Run the prover once and record the labeled clause-level outcome."""
    result = prove(problem, config)
    conj = [normalized_str(c) for c in problem.negated_conjecture]
    trace = ProofTrace(problem.name, result.status, config_hash(config), conj,
                       resource=result.resource)
    if result.status != UNSAT:
        return trace
    state = result.state
    used_ids = result.proof.used_ids
    for c in state.processed:
        trace.clauses.append(
            TraceClause(c.id, normalized_str(c), c.role, True, c.id in used_ids)
        )
    leftover_ids = sorted(state.schedule.alive)
    if leftover_ids:
        rng = np.random.default_rng(seed)
        take = min(UNPROCESSED_CAP, len(leftover_ids))
        picks = sorted(rng.choice(len(leftover_ids), size=take, replace=False))
        for i in picks:
            c = state.schedule.alive[leftover_ids[i]]
            trace.clauses.append(TraceClause(c.id, normalized_str(c), c.role, False, False))
    return trace


def generate_traces(corpus: list[Problem], baseline: SearchConfig,
                    seed: int = 0) -> list[ProofTrace]:
    """One trace per problem; per-problem failures become non-proof traces."""
    traces = []
    for i, problem in enumerate(corpus):
        try:
            traces.append(trace_problem(problem, baseline, seed + i))
        except Exception as exc:  # record, don't abort the corpus run
            traces.append(
                ProofTrace(problem.name, f"Error({type(exc).__name__}: {exc})",
                           config_hash(baseline), [])
            )
    return traces


def label_examples(trace: ProofTrace, star_mode: bool = False,
                   star_ratio: float = 1.0, seed: int = 0) -> list[TrainingExample]:
    """Positives/negatives from one proof trace.

    Star mode additionally samples floor(star_ratio * #processed-negatives)
    of the recorded never-processed clauses as extra negatives.
    """
    if trace.status != UNSAT:
        return []
    out = []
    unprocessed = [c for c in trace.clauses if not c.processed]
    n_neg = 0
    for c in trace.clauses:
        if not c.processed:
            continue
        if c.used:
            out.append(TrainingExample(c.text, trace.conjecture, 1, trace.problem, c.id))
        else:
            n_neg += 1
            out.append(
                TrainingExample(c.text, trace.conjecture, 0, trace.problem, c.id,
                                negative_kind="processed_unused")
            )
    if star_mode and unprocessed:
        want = min(int(star_ratio * n_neg), len(unprocessed))
        rng = np.random.default_rng(seed)
        picks = sorted(rng.choice(len(unprocessed), size=want, replace=False)) if want else []
        for i in picks:
            c = unprocessed[i]
            out.append(
                TrainingExample(c.text, trace.conjecture, 0, trace.problem, c.id,
                                negative_kind="sampled_unprocessed")
            )
    return out


def split_by_conjecture(examples: list[TrainingExample], fraction: float = 0.9,
                        seed: int = 0) -> DatasetSplit:
    """Shuffle conjectures with the seed; the first 90% go to training."""
    names = []
    seen = set()
    for e in examples:
        if e.problem not in seen:
            seen.add(e.problem)
            names.append(e.problem)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(names))
    cut = int(fraction * len(names))
    train = {names[i] for i in order[:cut]}
    evals = {names[i] for i in order[cut:]}
    return DatasetSplit(train, evals)


def build_vocabulary(train_examples: list[TrainingExample]) -> Vocabulary:
    """Token frequency order (ties lexicographic) over the training side only.

    Each distinct text is lexed once and its tokens counted as often as
    the text occurs: the examples of one problem share its conjecture.
    """
    occurrences: dict[str, int] = {}
    for e in train_examples:
        for text in [e.clause_text, *e.conj_texts]:
            occurrences[text] = occurrences.get(text, 0) + 1
    counts: dict[str, int] = {}
    for text, n in occurrences.items():
        for tok in text_tokens(text):
            counts[tok] = counts.get(tok, 0) + n
    vocab = Vocabulary()
    for tok in sorted(counts, key=lambda t: (-counts[t], t)):
        vocab.add(tok)
    return vocab


def balance_eval_set(examples: list[TrainingExample], seed: int = 0) -> list[TrainingExample]:
    """Downsample the majority class to a 50-50 split (seeded)."""
    pos = [e for e in examples if e.label == 1]
    neg = [e for e in examples if e.label == 0]
    if not pos or not neg:
        raise ValueError("both classes must be nonempty to balance")
    rng = np.random.default_rng(seed)
    if len(pos) > len(neg):
        keep = set(rng.choice(len(pos), size=len(neg), replace=False))
        pos = [e for i, e in enumerate(pos) if i in keep]
    elif len(neg) > len(pos):
        keep = set(rng.choice(len(neg), size=len(pos), replace=False))
        neg = [e for i, e in enumerate(neg) if i in keep]
    out = pos + neg
    return sorted(out, key=lambda e: (e.problem, e.clause_id, e.label))


# -- file formats ---------------------------------------------------------------


def write_traces(traces: list[ProofTrace], path: str):
    """JSONL: a header line then one line per clause, per trace."""
    with open(path, "w") as fh:
        for t in traces:
            head = {
                "type": "trace",
                "problem": t.problem,
                "status": t.status,
                "config_hash": t.config_hash,
                "conjecture": t.conjecture,
                "n_clauses": len(t.clauses),
                "resource": t.resource,
            }
            fh.write(json.dumps(head, sort_keys=True) + "\n")
            for c in t.clauses:
                fh.write(json.dumps({"type": "clause", **asdict(c)}, sort_keys=True) + "\n")


def read_traces(path: str) -> list[ProofTrace]:
    traces: list[ProofTrace] = []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["type"] == "trace":
                traces.append(
                    ProofTrace(rec["problem"], rec["status"], rec["config_hash"],
                               rec["conjecture"], resource=rec.get("resource"))
                )
            else:
                rec.pop("type")
                traces[-1].clauses.append(TraceClause(**rec))
    return traces


def write_examples(examples: list[TrainingExample], path: str):
    with open(path, "w") as fh:
        for e in examples:
            fh.write(json.dumps(asdict(e), sort_keys=True) + "\n")


def read_examples(path: str) -> list[TrainingExample]:
    """Examples written by `write_examples`; a row with fields this version
    does not know (an older file format) raises ValueError."""
    known = {f.name for f in fields(TrainingExample)}
    out = []
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            unknown = sorted(set(row) - known)
            if unknown:
                raise ValueError(
                    f"{path}: unknown example fields {', '.join(unknown)}; the file has "
                    f"an older format, write it again with `satguide train --examples-out`")
            out.append(TrainingExample(**row))
    return out
