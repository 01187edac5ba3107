"""Train the frozen CNN that the `prove_guided` workload scores with.

Same recipe as the acceptance suite's trained model: traces of the
`train`-tagged problems of `desk_corpus(0)`, star-mode labels, a 90/10
split by conjecture, a dim-32/hidden-64 CNN and 2000 Adam steps at batch
32, keeping the best held-out snapshot. Every limit counts clauses, so
the result does not depend on machine speed.

    python3 bench/make_fixture.py           # rewrite bench/fixture/*
    python3 bench/make_fixture.py --check   # exit 1 unless it reproduces them

With BLAS pinned to one thread a rerun gives the committed files byte for
byte; `SHA256SUMS` holds their hashes, which the benchmark checks on load.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import env

CHECKPOINT = "cnn.sgnn"
VOCAB = "vocab.txt"
SUMS = "SHA256SUMS"
SEED = 0


def build() -> dict[str, bytes]:
    from satguide.corpus import desk_corpus
    from satguide.datagen import (
        balance_eval_set,
        build_vocabulary,
        generate_traces,
        label_examples,
        split_by_conjecture,
    )
    from satguide.neural.checkpoint import save_checkpoint
    from satguide.neural.models import ModelConfig, init_model
    from satguide.neural.train import TrainConfig, prepare_pairs, train
    from satguide.saturation import SearchConfig

    corpus = desk_corpus(SEED)
    problems = [c.problem for c in corpus if "train" in c.tags]
    limits = SearchConfig(schedule="auto", max_processed=2500,
                          max_generated=150_000, max_wall_ms=None)
    traces = generate_traces(problems, limits, seed=SEED)
    examples = []
    for i, t in enumerate(traces):
        examples.extend(label_examples(t, star_mode=True, star_ratio=1.0,
                                       seed=100 + i))
    split = split_by_conjecture(examples, 0.9, seed=SEED)
    train_ex, eval_ex = split.partition(examples)
    vocab = build_vocabulary(train_ex)
    eval_bal = balance_eval_set(eval_ex, seed=SEED)
    mconfig = ModelConfig(arch="cnn", vocab_size=len(vocab), dim=32, hidden=64,
                          seed=SEED)
    model = init_model(mconfig, vocab.hash)
    best, _ = train(
        prepare_pairs(train_ex, vocab, mconfig),
        prepare_pairs(eval_bal, vocab, mconfig),
        model,
        TrainConfig(steps=2000, batch_size=32, lr=1e-3, eval_every=250, seed=SEED),
    )
    return {CHECKPOINT: save_checkpoint(best), VOCAB: vocab.to_text().encode()}


def sums_text(files: dict[str, bytes]) -> str:
    return "".join(f"{hashlib.sha256(data).hexdigest()}  {name}\n"
                   for name, data in sorted(files.items()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the committed files instead of writing")
    args = ap.parse_args(argv)
    env.pin()
    files = build()
    files_sums = sums_text(files)
    if args.check:
        same = True
        for name, data in [*files.items(), (SUMS, files_sums.encode())]:
            with open(os.path.join(env.FIXTURE_DIR, name), "rb") as fh:
                ok = fh.read() == data
            print(f"{name}: {'identical' if ok else 'DIFFERS'}")
            same = same and ok
        return 0 if same else 1
    os.makedirs(env.FIXTURE_DIR, exist_ok=True)
    for name, data in files.items():
        with open(os.path.join(env.FIXTURE_DIR, name), "wb") as fh:
            fh.write(data)
    with open(os.path.join(env.FIXTURE_DIR, SUMS), "w") as fh:
        fh.write(files_sums)
    print(files_sums, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
