"""Command-line interface.

Subcommands: prove, trace, train, eval-acc, experiment, premsel, verify,
report. Experiments are driven by one declarative JSON config plus flag
overrides; every report embeds the resolved config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from . import datagen
from .corpus import corpus_by_tag, desk_corpus
from .fol import problem_str
from .guidance import MODES, ClauseScorer, GuidanceConfig, guided_prove
from .harness import (
    MethodConfig,
    accuracy_eval,
    check_report,
    read_report,
    run_corpus,
    union_stats,
    write_curve_files,
    write_report,
)
from .neural.checkpoint import load_checkpoint_file, save_checkpoint_file
from .neural.models import ModelConfig, ModelParams, init_model
from .neural.train import TrainConfig, prepare_pairs, train
from .parser import parse_tptp
from .premsel import DEFAULT_LEVELS, cascade_prove, rank_premises
from .saturation import SearchConfig, derivation_lines, szs_line, verify_proof_detailed
from .tokens import Vocabulary


def _load_problem(path: str):
    with open(path) as fh:
        text = fh.read()
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_tptp(text, name=name, include_dir=os.path.dirname(path) or ".")


def _limits_from_args(args) -> SearchConfig:
    return SearchConfig(
        schedule=args.schedule,
        max_processed=args.max_processed,
        max_wall_ms=args.timeout_ms,
    )


def _load_model(model_path: str, vocab_path: str) -> tuple[ModelParams, Vocabulary]:
    """(model, vocab) from a checkpoint and the vocabulary it was trained
    with; a vocabulary whose hash differs from the checkpoint's is an error."""
    vocab = Vocabulary.load(vocab_path)
    return load_checkpoint_file(model_path, expected_vocab_hash=vocab.hash), vocab


def _guidance_from_args(args) -> GuidanceConfig:
    model = vocab = None
    if args.model:
        model, vocab = _load_model(args.model, args.vocab)
    return GuidanceConfig(
        mode=args.mode,
        model=model,
        vocab=vocab,
        phase1_budget=args.phase1_budget,
        batch_size=args.batch_size,
    )


def cmd_prove(args) -> int:
    problem = _load_problem(args.problem)
    result = guided_prove(problem, _guidance_from_args(args), _limits_from_args(args))
    print(szs_line(result, problem.name))
    print(f"% processed={result.processed_count} generated={result.generated_count} "
          f"wall_ms={result.wall_ms}")
    if args.derivation and result.proof:
        for line in derivation_lines(result.proof):
            print(line)
    return 0


def cmd_verify(args) -> int:
    problem = _load_problem(args.problem)
    result = guided_prove(problem, _guidance_from_args(args), _limits_from_args(args))
    print(szs_line(result, problem.name))
    if not result.proof:
        print("% no proof to verify")
        return 1
    ok, reason = verify_proof_detailed(result.proof, problem)
    print(f"% proof verification: {'PASS' if ok else 'FAIL ' + str(reason)}")
    return 0 if ok else 1


def _corpus_from_spec(spec: dict):
    _known(spec, _CORPUS_KEYS, "corpus")
    if "dir" in spec:
        _known(spec, {"dir"}, "dir corpus")  # seed, tags and families would do nothing
        problems = []
        for fname in sorted(os.listdir(spec["dir"])):
            if fname.endswith(".p") or fname.endswith(".tptp"):
                problems.append(_load_problem(os.path.join(spec["dir"], fname)))
        return problems
    corpus = desk_corpus(spec.get("seed", 0))
    if spec.get("tags"):
        keep = set(spec["tags"])
        corpus = [c for c in corpus if c.tags & keep]
    if spec.get("families"):
        fams = set(spec["families"])
        corpus = [c for c in corpus if c.family in fams]
    return [c.problem for c in corpus]


def cmd_trace(args) -> int:
    problems = _corpus_from_spec({"seed": args.seed, "tags": args.tags.split(",") if args.tags else None})
    config = SearchConfig(schedule="auto", max_processed=args.max_processed,
                          max_wall_ms=args.timeout_ms)
    traces = datagen.generate_traces(problems, config, seed=args.seed)
    datagen.write_traces(traces, args.out)
    proved = sum(1 for t in traces if t.status == "Unsatisfiable")
    print(f"wrote {len(traces)} traces ({proved} proofs) to {args.out}")
    return 0


def cmd_train(args) -> int:
    traces = datagen.read_traces(args.traces)
    examples = []
    for i, t in enumerate(traces):
        examples.extend(datagen.label_examples(t, star_mode=args.star, seed=args.seed + i))
    split = datagen.split_by_conjecture(examples, args.split_fraction, args.seed)
    train_ex, eval_ex = split.partition(examples)
    vocab = datagen.build_vocabulary(train_ex)
    vocab.save(args.vocab_out)
    eval_bal = datagen.balance_eval_set(eval_ex, args.seed) if eval_ex else []
    if args.examples_out:
        datagen.write_examples(eval_bal, args.examples_out)
    mconfig = ModelConfig(arch=args.arch, vocab_size=len(vocab), dim=args.dim,
                          hidden=args.hidden, seed=args.seed)
    model, metrics = train(
        prepare_pairs(train_ex, vocab, mconfig), prepare_pairs(eval_bal, vocab, mconfig),
        init_model(mconfig, vocab.hash),
        TrainConfig(steps=args.steps, batch_size=args.batch_size, lr=args.lr,
                    seed=args.seed, log_path=args.metrics_log),
    )
    save_checkpoint_file(model, args.out)
    last = metrics[-1] if metrics else {}
    print(f"trained {args.arch} on {len(train_ex)} examples "
          f"({len(eval_bal)} balanced eval); final {last}")
    return 0


def cmd_eval_acc(args) -> int:
    model, vocab = _load_model(args.model, args.vocab)
    examples = datagen.read_examples(args.examples)
    balanced = datagen.balance_eval_set(examples, args.seed)
    acc = accuracy_eval(model, balanced, vocab)
    print(f"balanced accuracy: {acc:.4f} over {len(balanced)} examples")
    return 0


# experiment-config keys: `limits` takes every SearchConfig field; a method
# entry takes every GuidanceConfig field, with `model` and `vocab` as file
# paths, plus its own id and cascade levels; a corpus is a directory of
# problem files or the bundled corpus, filtered by tag and family
_EXPERIMENT_KEYS = {"corpus", "limits", "methods", "record_walltime"}
_CORPUS_KEYS = {"dir", "seed", "tags", "families"}
_LIMIT_KEYS = {f.name for f in fields(SearchConfig)}
_GUIDANCE_KEYS = {f.name for f in fields(GuidanceConfig)} - {"model", "vocab"}
_METHOD_KEYS = _GUIDANCE_KEYS | {"id", "model", "vocab", "premsel_levels"}


def _known(entry: dict, allowed: set[str], where: str) -> dict:
    unknown = sorted(set(entry) - allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys {unknown}; allowed: {sorted(allowed)}")
    return entry


def cmd_experiment(args) -> int:
    with open(args.config) as fh:
        spec = json.load(fh)
    _known(spec, _EXPERIMENT_KEYS, "experiment")
    problems = _corpus_from_spec(spec.get("corpus", {}))
    limits = SearchConfig(**_known(spec.get("limits", {}), _LIMIT_KEYS, "limits"))
    methods = []
    for m in spec["methods"]:
        _known(m, _METHOD_KEYS, f"method {m.get('id')!r}")
        model = vocab = None
        if m.get("model"):
            model, vocab = _load_model(m["model"], m["vocab"])
        g = GuidanceConfig(model=model, vocab=vocab,
                           **{k: v for k, v in m.items() if k in _GUIDANCE_KEYS})
        methods.append(MethodConfig(
            id=m["id"], guidance=g,
            premsel_levels=tuple(m["premsel_levels"]) if m.get("premsel_levels") else None,
        ))
    report = run_corpus(problems, methods, limits,
                        record_walltime=spec.get("record_walltime", False))
    report.config["experiment_config"] = spec
    write_report(report, args.out)
    print(f"wrote report for {len(problems)} problems x {len(methods)} methods to {args.out}")
    for m, pct in report.aggregates["percent_proved"].items():
        print(f"  {m}: {pct}")
    return 0


def cmd_premsel(args) -> int:
    problem = _load_problem(args.problem)
    model, vocab = _load_model(args.model, args.vocab)
    scorer = ClauseScorer(model, vocab, problem, args.batch_size)
    ranking = rank_premises(problem, scorer)
    levels = tuple(int(x) for x in args.levels.split(","))
    cascade = cascade_prove(problem, ranking, levels, args.budget,
                            limits=SearchConfig(max_wall_ms=args.timeout_ms))
    print(szs_line(cascade.result, problem.name))
    print(f"% ranking_hash={cascade.ranking_hash} level_used={cascade.level_used}")
    for entry in cascade.transcript:
        print(f"%   level={entry['level']} status={entry['status']} "
              f"processed={entry['processed']}")
    return 0


def cmd_report(args) -> int:
    report = read_report(args.report)
    ok = check_report(report)
    print(f"aggregate consistency: {'PASS' if ok else 'FAIL'}")
    stats = union_stats(report)
    print(json.dumps(stats, indent=2, sort_keys=True))
    if args.curves:
        write_curve_files(report, args.curves)
        print(f"curve files written to {args.curves}")
    return 0 if ok else 1


def cmd_dump_corpus(args) -> int:
    corpus = desk_corpus(args.seed)
    if args.tag:
        corpus = corpus_by_tag(corpus, args.tag)
    os.makedirs(args.out, exist_ok=True)
    for item in corpus:
        with open(os.path.join(args.out, item.name + ".p"), "w") as fh:
            fh.write(problem_str(item.problem))
    print(f"wrote {len(corpus)} problems to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="satguide",
                                 description="Saturation prover with learned clause selection")
    sub = ap.add_subparsers(dest="command", required=True)

    def common_prove_args(p):
        # in switched mode these two limits are the totals of both phases
        p.add_argument("--max-processed", type=int, default=20_000, dest="max_processed")
        p.add_argument("--timeout-ms", type=int, default=60_000, dest="timeout_ms")
        p.add_argument("--mode", default="auto", choices=MODES)
        p.add_argument("--model", default=None)
        p.add_argument("--vocab", default=None)
        p.add_argument("--schedule", default="auto",
                       help="classical schedule spec: the whole schedule in auto "
                            "mode, the classical entries in hybrid and switched "
                            "mode; pure mode rejects anything but auto")
        p.add_argument("--phase1-budget", type=int, default=None, dest="phase1_budget")
        p.add_argument("--batch-size", type=int, default=32, dest="batch_size")

    p = sub.add_parser("prove", help="prove one TPTP problem")
    p.add_argument("problem")
    common_prove_args(p)
    p.add_argument("--derivation", action="store_true")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("verify", help="prove and check the proof")
    p.add_argument("problem")
    common_prove_args(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("trace", help="generate labeled proof traces")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tags", default="train")
    p.add_argument("--max-processed", type=int, default=5_000, dest="max_processed")
    p.add_argument("--timeout-ms", type=int, default=None, dest="timeout_ms",
                   help="wall limit per problem; off by default, so that "
                        "traces depend on clause limits only")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("train", help="train a scorer from traces")
    p.add_argument("--traces", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vocab-out", required=True, dest="vocab_out")
    p.add_argument("--arch", default="cnn",
                   choices=["cnn", "wavenet", "tree_rnn", "tree_lstm"])
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--hidden", type=int, default=128)
    p.add_argument("--steps", type=int, default=2_000)
    p.add_argument("--batch-size", type=int, default=32, dest="batch_size")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--star", action="store_true")
    p.add_argument("--split-fraction", type=float, default=0.9, dest="split_fraction")
    p.add_argument("--metrics-log", default=None, dest="metrics_log")
    p.add_argument("--examples-out", default=None, dest="examples_out",
                   help="write the balanced eval examples (for eval-acc)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval-acc", help="balanced accuracy of a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--examples", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_eval_acc)

    p = sub.add_parser("experiment", help="run a corpus experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("premsel", help="premise-ranked cascade proving")
    p.add_argument("problem")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--levels", default=",".join(str(x) for x in DEFAULT_LEVELS))
    p.add_argument("--budget", type=int, default=2_000,
                   help="processed clauses, split evenly across the levels")
    p.add_argument("--batch-size", type=int, default=32, dest="batch_size")
    p.add_argument("--timeout-ms", type=int, default=60_000, dest="timeout_ms",
                   help="wall limit, split evenly across the levels")
    p.set_defaults(fn=cmd_premsel)

    p = sub.add_parser("report", help="check and summarize a report file")
    p.add_argument("report")
    p.add_argument("--curves", default=None)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("dump-corpus", help="write the bundled corpus as TPTP files")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tag", default=None)
    p.set_defaults(fn=cmd_dump_corpus)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
