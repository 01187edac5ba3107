"""The benchmark's inputs, attempts and correctness gate.

Three workloads, each a closed loop with one client: the next attempt
starts when the previous one has returned.

* prove_auto: unguided Auto, `parse_tptp` then `prove`, on every chain,
  membership, pigeonhole, group, satchain and mini problem plus the 30
  moderate floods (148 attempts a pass). The search core does the work;
  the network is never called.
* prove_guided: the frozen fixture CNN in pure and hybrid mode on the 42
  guidance floods, plus premise ranking and the 32/64/128/256 cascade on
  the 22 premsel problems (106 attempts a pass). Searches are short, so
  scoring and ranking carry a large share.
* learn: traces of the `train` problems, star-mode labels, split,
  vocabulary, pair preparation, a fixed number of Adam steps and the
  balanced held-out evaluation. The only workload with a backward pass.

The program sees only the TPTP text of each generated problem. Every
limit counts clauses, never wall time, so verdicts and counts do not
depend on machine load.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import math
import os
from dataclasses import dataclass, field

import satguide.datagen as datagen
import satguide.guidance as guidance
import satguide.parser as parser
import satguide.premsel as premsel
import satguide.saturation as saturation
from satguide.corpus import desk_corpus
from satguide.fol import problem_str
from satguide.neural.checkpoint import load_checkpoint_file, save_checkpoint
from satguide.neural.models import ModelConfig, init_model
from satguide.saturation import RESOURCE_OUT, SAT, UNSAT, SearchConfig, verify_proof_detailed
from satguide.tokens import Vocabulary

import env

# `satguide.neural.train` the module is shadowed by `train` the function in
# the package namespace
train = importlib.import_module("satguide.neural.train")

WORKLOADS = ("prove_auto", "prove_guided", "learn")

LIMITS = SearchConfig(max_processed=1200, max_generated=30_000,
                      max_clause_literals=12, max_wall_ms=None,
                      record_selections=True)
TRACE_LIMITS = SearchConfig(schedule="auto", max_processed=2500,
                            max_generated=150_000, max_wall_ms=None,
                            record_selections=True)
CASCADE_LEVELS = (32, 64, 128, 256)
CASCADE_BUDGET = 800
TRAIN_STEPS = 400
RECIPE_SEED = 0

ROOT_SPAN = "bench.attempt"

AUTO_FAMILIES = ("chain", "membership", "pigeonhole", "group", "satchain", "mini")
TRAIN_FAMILIES = ("chain", "membership", "pigeonhole", "group", "flood", "mini")
POOL_CORPORA = 4
REFERENCE_SEED = 0


@dataclass
class Input:
    name: str
    mode: str  # auto | pure | hybrid | cascade | trace
    text: str
    expected: str
    group: str  # inputs of one group are spread evenly over a pass


@dataclass
class Fixture:
    model: object
    vocab: Vocabulary


@dataclass
class Outcome:
    """What one attempt returned, kept after its search state is dropped."""

    status: str
    processed: int
    generated: int
    record: dict  # the attempt's contribution to the search digest
    problem: object = None
    proof: object = None
    evals: int = 0
    batch_calls: int = 0
    chars: int = 0
    verdict: str = ""  # solved | unsolved | failed, set by the gate
    reason: str | None = None


# -- set-up -----------------------------------------------------------------------


def expected_status(tags: set[str]) -> str:
    return SAT if "sat" in tags else UNSAT


def load_fixture() -> Fixture:
    """The committed CNN and vocabulary, checked against SHA256SUMS."""
    with open(os.path.join(env.FIXTURE_DIR, "SHA256SUMS")) as fh:
        sums = dict(reversed(line.split()) for line in fh if line.strip())
    for name, digest in sums.items():
        with open(os.path.join(env.FIXTURE_DIR, name), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                raise env.SetupError(f"fixture {name} does not match SHA256SUMS")
    vocab = Vocabulary.load(os.path.join(env.FIXTURE_DIR, "vocab.txt"))
    model = load_checkpoint_file(os.path.join(env.FIXTURE_DIR, "cnn.sgnn"),
                                 expected_vocab_hash=vocab.hash)
    return Fixture(model, vocab)


def _size(item) -> tuple[int, int]:
    clauses = item.problem.clauses()
    return len(clauses), sum(len(c.literals) for c in clauses)


def build_inputs(workload: str, seed: int) -> list[Input]:
    """The workload's problems for this seed, as TPTP text.

    The seed's problems come from `desk_corpus(seed)` ...
    `desk_corpus(seed + POOL_CORPORA - 1)`. Each family takes one problem
    per problem of that family in `desk_corpus(REFERENCE_SEED)`: the
    unused one closest to it in size. Every seed so gets the same mix of
    problem sizes, while the problems themselves (symbols, constants,
    which premises) change with the seed. Plain draws from one corpus
    moved the slowest attempts by 20% from seed to seed.
    """
    reference = desk_corpus(REFERENCE_SEED)
    corpora = [desk_corpus(seed + j) for j in range(POOL_CORPORA)]
    out = []

    def take(keep, mode: str, group: str):
        pool = [(_size(item), j, pos, item)
                for j, corpus in enumerate(corpora)
                for pos, item in enumerate(corpus) if keep(item)]
        for target in sorted(_size(item) for item in reference if keep(item)):
            best = min(range(len(pool)), key=lambda k: (
                abs(pool[k][0][0] - target[0]) + abs(pool[k][0][1] - target[1]),
                pool[k][1:3]))
            _, j, _, item = pool.pop(best)
            out.append(Input(f"{item.name}@{seed + j}", mode, problem_str(item.problem),
                             expected_status(item.tags), group))

    if workload == "prove_auto":
        for fam in AUTO_FAMILIES:
            take(lambda it, fam=fam: it.family == fam, "auto", fam)
        take(lambda it: "guidance" in it.tags, "auto", "flood")
    elif workload == "prove_guided":
        for mode in ("pure", "hybrid"):
            for tag in ("guidance", "guidance_hard"):
                take(lambda it, tag=tag: tag in it.tags, mode, mode)
        take(lambda it: "premsel" in it.tags, "cascade", "cascade")
    elif workload == "learn":
        for fam in TRAIN_FAMILIES:
            take(lambda it, fam=fam: it.family == fam and "train" in it.tags, "trace", "trace")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def setup(workload: str, seed: int) -> tuple[list[Input], Fixture]:
    """Everything a run needs before its first attempt; timed as setup_s."""
    return build_inputs(workload, seed), load_fixture()


def first_of_each_group(inputs: list[Input], n: int) -> list[Input]:
    """A small slice that still holds every kind of attempt."""
    taken: dict[str, int] = {}
    out = []
    for inp in inputs:
        if taken.get(inp.group, 0) < n:
            taken[inp.group] = taken.get(inp.group, 0) + 1
            out.append(inp)
    return out


def interleave(inputs: list[Input]) -> list[Input]:
    """Spread each group evenly over the pass, so that any prefix of a
    pass holds a representative mix of cheap and expensive attempts."""
    sizes: dict[str, int] = {}
    for inp in inputs:
        sizes[inp.group] = sizes.get(inp.group, 0) + 1
    seen: dict[str, int] = {}
    keyed = []
    for pos, inp in enumerate(inputs):
        k = seen.get(inp.group, 0)
        seen[inp.group] = k + 1
        keyed.append(((k + 0.5) / sizes[inp.group], pos, inp))
    return [inp for _, _, inp in sorted(keyed, key=lambda t: t[:2])]


# -- attempts ---------------------------------------------------------------------
#
# Each attempt function covers exactly the work that is timed: parsing the
# TPTP text and searching. Proof checking happens afterwards, untimed.


def _selection_hash(selections) -> str | None:
    if selections is None:
        return None
    return hashlib.sha256(",".join(map(str, selections)).encode()).hexdigest()[:16]


def attempt_prove(inp: Input, fixture: Fixture) -> Outcome:
    problem = parser.parse_tptp(inp.text, inp.name)
    if inp.mode == "auto":
        result = saturation.prove(problem, LIMITS)
    else:
        g = guidance.GuidanceConfig(mode=inp.mode, model=fixture.model, vocab=fixture.vocab)
        result = guidance.guided_prove(problem, g, LIMITS)
    return Outcome(
        result.status, result.processed_count, result.generated_count,
        {"status": result.status, "processed": result.processed_count,
         "generated": result.generated_count,
         "selections": _selection_hash(result.selections)},
        problem, result.proof,
        evals=result.info.get("network_evals", 0),
        batch_calls=result.info.get("batch_calls", 0),
        chars=len(inp.text),
    )


def attempt_cascade(inp: Input, fixture: Fixture) -> Outcome:
    problem = parser.parse_tptp(inp.text, inp.name)
    scorer = guidance.ClauseScorer(fixture.model, fixture.vocab, problem, batch_size=32)
    ranking = premsel.rank_premises(problem, scorer)
    casc = premsel.cascade_prove(problem, ranking, CASCADE_LEVELS, CASCADE_BUDGET,
                                 limits=LIMITS)
    return Outcome(
        casc.result.status,
        sum(t["processed"] for t in casc.transcript),
        sum(t["generated"] for t in casc.transcript),
        {"status": casc.result.status, "ranking": casc.ranking_hash,
         "level_used": casc.level_used, "transcript": casc.transcript},
        problem, casc.result.proof, chars=len(inp.text),
    )


def run_attempt(inp: Input, fixture: Fixture) -> Outcome:
    if inp.mode == "cascade":
        return attempt_cascade(inp, fixture)
    return attempt_prove(inp, fixture)


# -- correctness gate --------------------------------------------------------------


def judge(outcome: Outcome, expected: str) -> Outcome:
    """Set the verdict: solved, unsolved (out of budget) or failed.

    A wrong verdict, an error, or an `Unsatisfiable` whose proof the
    verifier rejects is a failure. `ResourceOut` is merely unsolved.
    """
    if outcome.verdict == "failed":  # raised before it returned a status
        pass
    elif outcome.status == RESOURCE_OUT:
        outcome.verdict = "unsolved"
    elif outcome.status != expected:
        outcome.verdict, outcome.reason = "failed", f"status {outcome.status}, expected {expected}"
    elif outcome.status == UNSAT:
        if outcome.proof is None:
            outcome.verdict, outcome.reason = "failed", "Unsatisfiable without a proof"
        else:
            ok, why = verify_proof_detailed(outcome.proof, outcome.problem)
            outcome.verdict = "solved" if ok else "failed"
            outcome.reason = None if ok else f"proof rejected: {why}"
    else:
        outcome.verdict = "solved"
    outcome.problem = outcome.proof = None  # keep memory flat over a run
    return outcome


def failed_outcome(exc: Exception) -> Outcome:
    status = f"Error({type(exc).__name__}: {exc})"
    return Outcome(status, 0, 0, {"status": status}, verdict="failed", reason=status)


# -- learn ------------------------------------------------------------------------


class SearchCapture:
    """Replace `datagen.prove` for the duration of a `with` block to keep
    each trace search's counts and proof; `generate_traces` itself
    returns only the labeled trace."""

    def __init__(self):
        self.results: list = []

    def __enter__(self):
        self._inner = datagen.prove

        def prove(problem, config=None):
            result = self._inner(problem, config)
            self.results.append((problem, result))
            return result

        datagen.prove = prove
        return self

    def __exit__(self, *exc):
        datagen.prove = self._inner
        return False


@dataclass
class LearnResult:
    outcomes: list[Outcome] = field(default_factory=list)
    intervals: list[tuple[float, float]] = field(default_factory=list)  # trace attempts
    phases: dict[str, tuple[float, float]] = field(default_factory=dict)
    heldout_acc: float = math.nan
    examples: int = 0
    record: dict = field(default_factory=dict)
    failure: str | None = None

    def busy_s(self) -> float:
        """Unscaled time of the timed regions of the pass."""
        return sum(t1 - t0 for t0, t1 in [*self.intervals, *self.phases.values()])


def learn_pass(inputs: list[Input], clock, span=None, tick=None) -> LearnResult:
    """One trace -> train -> evaluate pipeline.

    `tick()` runs between timed regions (the yardstick samples there) and
    `span(name)` wraps each timed region when tracing. Trace outcomes come
    back unjudged, so that proof checking stays out of the timed regions.
    """
    span = span or (lambda name: contextlib.nullcontext())
    tick = tick or (lambda: None)
    out = LearnResult()
    traces = []
    for i, inp in enumerate(inputs):
        tick()
        with SearchCapture() as cap:
            t0 = clock()
            with span(ROOT_SPAN):
                problem = parser.parse_tptp(inp.text, inp.name)
                traces.extend(datagen.generate_traces([problem], TRACE_LIMITS, seed=i))
            out.intervals.append((t0, clock()))
        trace = traces[-1]
        if len(cap.results) != 1:
            out.outcomes.append(failed_outcome(RuntimeError(f"trace status {trace.status}")))
            continue
        problem, result = cap.results[0]
        out.outcomes.append(Outcome(
            trace.status, result.processed_count, result.generated_count,
            {"status": trace.status, "processed": result.processed_count,
             "generated": result.generated_count,
             "selections": _selection_hash(result.selections),
             "clauses": len(trace.clauses)},
            problem, result.proof, chars=len(inp.text)))

    @contextlib.contextmanager
    def phase(name):
        tick()
        t0 = clock()
        yield
        out.phases[name] = (t0, clock())

    with phase("label"), span(ROOT_SPAN):
        examples = []
        for i, t in enumerate(traces):
            examples.extend(datagen.label_examples(t, star_mode=True, star_ratio=1.0,
                                                   seed=100 + i))
        split = datagen.split_by_conjecture(examples, 0.9, seed=RECIPE_SEED)
        train_ex, eval_ex = split.partition(examples)
        vocab = datagen.build_vocabulary(train_ex)
        eval_bal = datagen.balance_eval_set(eval_ex, seed=RECIPE_SEED)
    out.examples = len(examples)

    with phase("prepare"), span(ROOT_SPAN):
        mconfig = ModelConfig(arch="cnn", vocab_size=len(vocab), dim=32, hidden=64,
                              seed=RECIPE_SEED)
        model = init_model(mconfig, vocab.hash)
        train_pairs = train.prepare_pairs(train_ex, vocab, mconfig)
        eval_pairs = train.prepare_pairs(eval_bal, vocab, mconfig)

    with phase("train"), span(ROOT_SPAN):
        # no eval pairs: train() then scores only its last batch, and the
        # held-out evaluation is timed on its own below
        model, _ = train.train(train_pairs, [], model,
                               train.TrainConfig(steps=TRAIN_STEPS, batch_size=32, lr=1e-3,
                                                 eval_every=TRAIN_STEPS, seed=RECIPE_SEED))

    with phase("eval"), span(ROOT_SPAN):
        out.heldout_acc = train.accuracy(eval_pairs, model)
    tick()

    if not (math.isfinite(out.heldout_acc) and 0.0 <= out.heldout_acc <= 1.0):
        out.failure = f"held-out accuracy {out.heldout_acc!r}"
    out.record = {
        "examples": len(examples), "vocab": vocab.hash[:16],
        "model": hashlib.sha256(save_checkpoint(model)).hexdigest()[:16],
        "heldout_acc": repr(out.heldout_acc),
    }
    return out


# -- digest -----------------------------------------------------------------------


def digest(records: list) -> str:
    """Hash over attempt records in input order; time is never part of it."""
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps(rec, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
