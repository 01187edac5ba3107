"""Command-line interface.

Subcommands: prove, verify, trace, train, eval-acc, experiment, report,
dump-corpus. `prove` and `verify` share one option set and run every
guidance mode, the premise cascade included, through `guided_prove`.
Experiments are driven by one declarative JSON config; every report
embeds the resolved config. A subcommand raises what it refuses or fails
at; `main` alone turns it into an SZS status.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from . import datagen
from .corpus import desk_corpus
from .fol import problem_str
from .guidance import MODE_AUTO, MODE_CASCADE, MODES, GuidanceConfig, guided_prove
from .harness import (
    check_report,
    read_report,
    run_corpus,
    union_stats,
    write_curve_files,
    write_report,
)
from .neural.checkpoint import load_checkpoint_file, save_checkpoint_file
from .neural.models import ModelConfig, ModelParams, init_model
from .neural.train import TrainConfig, accuracy, prepare_pairs, train
from .parser import ParseError, parse_tptp
from .saturation import SearchConfig, derivation_lines, szs_line, verify_proof_detailed
from .tokens import Vocabulary


def _problem_name(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _load_problem(path: str):
    with open(path) as fh:
        text = fh.read()
    return parse_tptp(text, name=_problem_name(path), include_dir=os.path.dirname(path) or ".")


class Failures(Exception):
    """Several inputs that failed at once: (name, exception) pairs, each
    reported under its own name."""

    def __init__(self, failures: list[tuple[str, Exception]]):
        super().__init__(failures)
        self.failures = failures


def _limits_from_args(args) -> SearchConfig:
    return SearchConfig(schedule=args.schedule, max_processed=args.max_processed,
                        max_wall_ms=args.timeout_ms)


def _load_model(model_path: str, vocab_path: str) -> tuple[ModelParams, Vocabulary]:
    """(model, vocab) from a checkpoint and the vocabulary it was trained
    with; a vocabulary whose hash differs from the checkpoint's is an error."""
    if vocab_path is None:
        raise ValueError("--model needs --vocab, the vocabulary it was trained with")
    vocab = Vocabulary.load(vocab_path)
    return load_checkpoint_file(model_path, expected_vocab_hash=vocab.hash), vocab


def _guidance(mode: str = MODE_AUTO, model: str | None = None, vocab: str | None = None,
              **settings) -> GuidanceConfig:
    """The GuidanceConfig of `settings`, with its model and vocabulary
    loaded from the files `model` and `vocab`. Auto mode calls no network,
    so it refuses both files."""
    if mode == MODE_AUTO and (model or vocab):
        raise ValueError(f"mode {MODE_AUTO!r} calls no network; a model or vocab "
                         f"needs a guided mode")
    params, vocabulary = _load_model(model, vocab) if model else (None, None)
    return GuidanceConfig(mode=mode, model=params, vocab=vocabulary, **settings)


def _run_configs(args) -> tuple[GuidanceConfig, SearchConfig]:
    """The guidance and limits of a prove or verify run, checked together."""
    levels = None if args.levels is None else [int(x) for x in args.levels.split(",")]
    gconfig = _guidance(args.mode, args.model, args.vocab, phase1_budget=args.phase1_budget,
                        batch_size=args.batch_size, premsel_levels=levels)
    limits = _limits_from_args(args)
    gconfig.check_limits(limits)
    return gconfig, limits


def _guided_run(args):
    """Run the problem of a prove or verify run and print its SZS line,
    then, in cascade mode, the ranking and one line per level tried. The
    problem and result; the options are checked before the problem file
    is read."""
    configs = _run_configs(args)
    problem = _load_problem(args.problem)
    result = guided_prove(problem, *configs)
    print(szs_line(result, problem.name))
    if configs[0].mode == MODE_CASCADE:
        print(f"% ranking_hash={result.info['ranking_hash']} "
              f"level_used={result.info['premise_level']}")
        for entry in result.info["transcript"]:
            print(f"%   level={entry['level']} status={entry['status']} "
                  f"processed={entry['processed']}")
    return problem, result


def cmd_prove(args) -> int:
    result = _guided_run(args)[1]
    print(f"% processed={result.processed_count} generated={result.generated_count} "
          f"wall_ms={result.wall_ms}")
    if args.derivation and result.proof:
        for line in derivation_lines(result.proof):
            print(line)
    return 0


def cmd_verify(args) -> int:
    problem, result = _guided_run(args)
    if not result.proof:
        print("% no proof to verify")
        return 1
    ok, reason = verify_proof_detailed(result.proof, problem)
    print(f"% proof verification: {'PASS' if ok else 'FAIL ' + str(reason)}")
    return 0 if ok else 1


def _corpus_from_spec(spec: dict):
    """The problems of a corpus spec; a directory with files that do not
    parse raises one `Failures` that names every such file. A spec that
    could select no problem, or only by accident, is refused: a `dir`
    that is not a string, a `seed` that is not an integer, and a `tags`
    or `families` filter that is not a list of strings or names one the
    bundled corpus does not have."""
    _known(spec, _CORPUS_KEYS, "corpus")
    if "dir" in spec:
        _known(spec, {"dir"}, "dir corpus")  # seed, tags and families would do nothing
        if not isinstance(spec["dir"], str):  # os.listdir(None) reads the working directory
            raise ValueError(f"corpus dir must be a path, got {spec['dir']!r}")
        problems, failures = [], []
        for fname in sorted(os.listdir(spec["dir"])):
            if fname.endswith((".p", ".tptp")):
                path = os.path.join(spec["dir"], fname)
                try:
                    problems.append(_load_problem(path))
                except ParseError as err:
                    failures.append((_problem_name(path), err))
        if failures:
            raise Failures(failures)
        return problems
    seed = spec.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"corpus seed must be an integer, got {seed!r}")
    corpus = desk_corpus(seed)
    corpus = _filtered(corpus, spec.get("tags"), "tags", lambda c: c.tags)
    corpus = _filtered(corpus, spec.get("families"), "families", lambda c: {c.family})
    return [c.problem for c in corpus]


def _filtered(corpus, names, key: str, values):
    """The problems of `corpus` whose `values` meet the `key` filter
    `names`, or all of them when `names` is None. A filter that is not a
    list of strings, or names something no problem has, is refused with
    the names the corpus knows."""
    if names is None:
        return corpus
    if not isinstance(names, list) or not names or not all(isinstance(n, str) for n in names):
        raise ValueError(f"corpus {key} must be a nonempty list of strings, got {names!r}")
    keep, known = set(names), set().union(*map(values, corpus))
    if keep - known:
        raise ValueError(f"unknown corpus {key} {sorted(keep - known)}; known: {sorted(known)}")
    return [c for c in corpus if values(c) & keep]


def cmd_trace(args) -> int:
    config = _limits_from_args(args)
    problems = _corpus_from_spec({"seed": args.seed, "tags": args.tags.split(",") if args.tags else None})
    with open(args.out, "w") as fh:  # an --out it cannot write is refused before any search
        traces = datagen.generate_traces(problems, config, seed=args.seed)
        datagen.dump_traces(traces, fh)
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
    eval_bal = datagen.balance_eval_set(eval_ex, args.seed) if eval_ex else []
    mconfig = ModelConfig(arch=args.arch, vocab_size=len(vocab), dim=args.dim,
                          hidden=args.hidden, seed=args.seed)
    train_pairs = prepare_pairs(train_ex, vocab, mconfig)
    if not train_pairs:  # refused before any file is written
        raise ValueError("no training pairs")
    vocab.save(args.vocab_out)
    if args.examples_out:
        datagen.write_examples(eval_bal, args.examples_out)
    model, metrics = train(
        train_pairs, prepare_pairs(eval_bal, vocab, mconfig), init_model(mconfig, vocab.hash),
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
    acc = accuracy(prepare_pairs(balanced, vocab, model.config), model)
    print(f"balanced accuracy: {acc:.4f} over {len(balanced)} examples")
    return 0


# experiment-config keys: `limits` takes every SearchConfig field; a method
# entry takes every GuidanceConfig field, with `model` and `vocab` as file
# paths, plus its own id; a corpus is a directory of problem files or the
# bundled corpus, filtered by tag and family
_EXPERIMENT_KEYS = {"corpus", "limits", "methods", "record_walltime"}
_CORPUS_KEYS = {"dir", "seed", "tags", "families"}
_LIMIT_KEYS = {f.name for f in fields(SearchConfig)}
_METHOD_KEYS = {f.name for f in fields(GuidanceConfig)} | {"id"}


def _known(entry: dict, allowed: set[str], where: str) -> dict:
    if not isinstance(entry, dict):
        raise ValueError(f"{where} must be a JSON object, got {entry!r}")
    unknown = sorted(set(entry) - allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys {unknown}; allowed: {sorted(allowed)}")
    return entry


def cmd_experiment(args) -> int:
    """Run the experiment in the config file `args.config`. A refused
    config raises ValueError or OSError before any cell runs."""
    with open(args.config) as fh:
        spec = json.load(fh)
    _known(spec, _EXPERIMENT_KEYS, "experiment")
    problems = _corpus_from_spec(spec.get("corpus", {}))
    limits = SearchConfig(**_known(spec.get("limits", {}), _LIMIT_KEYS, "limits"))
    methods = {}
    for m in spec.get("methods", []):
        if not isinstance(m, dict):
            raise ValueError(f"method must be a JSON object, got {m!r}")
        settings = dict(_known(m, _METHOD_KEYS, f"method {m.get('id')!r}"))
        method = settings.pop("id", None)
        if method is None:
            raise ValueError(f"method {m} has no id")
        if method in methods:
            raise ValueError(f"method id {method!r} is used twice")
        methods[method] = _guidance(**settings)
    if not methods:
        raise ValueError("the experiment config names no methods")
    report = run_corpus(problems, methods, limits,
                        record_walltime=spec.get("record_walltime", False))
    report.config["experiment_config"] = spec
    write_report(report, args.out)
    print(f"wrote report for {report.config['n_problems']} problems x "
          f"{len(report.config['methods'])} methods to {args.out}")
    for m, pct in report.aggregates["percent_proved"].items():
        print(f"  {m}: {pct}")
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
    problems = _corpus_from_spec({"seed": args.seed, "tags": [args.tag] if args.tag else None})
    os.makedirs(args.out, exist_ok=True)
    for problem in problems:
        with open(os.path.join(args.out, problem.name + ".p"), "w") as fh:
            fh.write(problem_str(problem))
    print(f"wrote {len(problems)} problems to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="satguide",
                                 description="Saturation prover with learned clause selection")
    sub = ap.add_subparsers(dest="command", required=True)

    def common_prove_args(p):
        # in switched mode these two limits are the totals of both phases;
        # cascade mode splits them evenly across its levels
        p.add_argument("--max-processed", type=int, default=20_000, dest="max_processed")
        p.add_argument("--timeout-ms", type=int, default=60_000, dest="timeout_ms")
        p.add_argument("--mode", default="auto", choices=MODES)
        p.add_argument("--model", default=None)
        p.add_argument("--vocab", default=None)
        p.add_argument("--schedule", default="auto",
                       help="classical schedule spec: the whole schedule in auto "
                            "mode and of each cascade level, the classical "
                            "entries in hybrid and switched mode; pure mode "
                            "rejects anything but auto")
        p.add_argument("--phase1-budget", type=int, default=None, dest="phase1_budget")
        p.add_argument("--batch-size", type=int, default=32, dest="batch_size")
        p.add_argument("--levels", default=None,
                       help="cascade mode's premise counts, comma-separated, "
                            "one proof attempt each; other modes refuse it")

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
    p.set_defaults(fn=cmd_trace, schedule="auto")  # traces are always searched under auto

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


# the SZS status of a failure, by the first class in this table it is an
# instance of: a text that does not parse, then an option or file refused
_STATUS_OF = ((ParseError, "SyntaxError"), ((ValueError, OSError), "InputError"))


def main(argv=None) -> int:
    """Run one subcommand. Whatever it raises ends the run with exit code 1
    and an SZS status, then the reason on the line below: one status named
    for the problem of prove and verify and for the subcommand otherwise,
    or one per input that `Failures` names."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as err:
        problem = getattr(args, "problem", None)
        failures = err.failures if isinstance(err, Failures) else [
            (_problem_name(problem) if problem else args.command, err)]
        for name, failure in failures:
            status = next((s for cls, s in _STATUS_OF if isinstance(failure, cls)), "Error")
            print(f"% SZS status {status} for {name}")
            print(f"% {failure}" if status != "Error"
                  else f"% {type(failure).__name__}: {failure}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
