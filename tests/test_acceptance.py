"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
The trained-model criteria share one session-scoped fixture (trace
generation + training happen once).
"""

import time

import numpy as np
import pytest

from satguide.corpus import desk_corpus
from satguide.datagen import (
    balance_eval_set,
    build_vocabulary,
    generate_traces,
    label_examples,
    split_by_conjecture,
    write_traces,
)
from satguide.fol import clause_str, normalize_variables
from satguide.guidance import ClauseScorer, GuidanceConfig, guided_prove
from satguide.harness import (
    compute_aggregates,
    run_corpus,
    write_report,
)
from satguide.heuristics import FifoWeightFn, SelectionSchedule, SymbolCountWeightFn
from satguide.neural.checkpoint import load_checkpoint, save_checkpoint
from satguide.neural.models import (
    ModelConfig,
    PairInput,
    init_model,
    loss_and_grads,
)
from satguide.neural import tensor as T
from satguide.neural.train import TrainConfig, accuracy, batch_scores, prepare_pairs, train
from satguide.parser import parse_clause_text
from satguide.premsel import cascade_prove, clamp_levels, rank_premises
from satguide.saturation import SAT, SearchConfig, UNSAT, prove, verify_proof_detailed

from oracles import bfs_saturate

pytestmark = pytest.mark.slow

SEED = 0


def report_line(criterion: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion:2d} {name:<28s} {status}  {detail}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


@pytest.fixture(scope="session")
def corpus():
    return desk_corpus(SEED)


@pytest.fixture(scope="session")
def trace_config():
    return SearchConfig(schedule="auto", max_processed=2500, max_wall_ms=30_000,
                        max_generated=150_000)


@pytest.fixture(scope="session")
def trained(corpus, trace_config):
    """Traces -> labels -> 90/10 split -> vocabulary -> dim-32 CNN."""
    problems = [c.problem for c in corpus if "train" in c.tags]
    traces = generate_traces(problems, trace_config, seed=SEED)
    examples = []
    for i, t in enumerate(traces):
        # sampled-unprocessed negatives teach the scorer about clause
        # shapes the baseline schedule never selects
        examples.extend(label_examples(t, star_mode=True, star_ratio=1.0,
                                       seed=100 + i))
    split = split_by_conjecture(examples, 0.9, seed=SEED)
    train_ex, eval_ex = split.partition(examples)
    vocab = build_vocabulary(train_ex)
    eval_bal = balance_eval_set(eval_ex, seed=SEED)

    mconfig = ModelConfig(arch="cnn", vocab_size=len(vocab), dim=32, hidden=64,
                          seed=SEED)
    model = init_model(mconfig, vocab.hash)
    train_pairs = prepare_pairs(train_ex, vocab, mconfig)
    eval_pairs = prepare_pairs(eval_bal, vocab, mconfig)
    best, metrics = train(
        train_pairs, eval_pairs, model,
        TrainConfig(steps=2000, batch_size=32, lr=1e-3, eval_every=250, seed=SEED),
    )
    return {
        "model": best,
        "vocab": vocab,
        "metrics": metrics,
        "eval_balanced": eval_bal,
        "traces": traces,
        "examples": examples,
    }


# -- 1: soundness --------------------------------------------------------------


def test_criterion_1_soundness(corpus, trained):
    t0 = time.time()
    limits = SearchConfig(max_processed=2000, max_wall_ms=15_000,
                          max_generated=120_000)
    failures = []
    proofs = 0
    for item in corpus:
        result = prove(item.problem, limits)
        if result.proof is not None:
            proofs += 1
            ok, reason = verify_proof_detailed(result.proof, item.problem)
            if not ok:
                failures.append((item.name, "auto", reason))
    # guided modes on a slice of the corpus
    model, vocab = trained["model"], trained["vocab"]
    guided_slice = [c for c in corpus if c.tags & {"guidance", "guidance_hard"}][:12]
    guided_slice += [c for c in corpus if c.family == "chain"][:8]
    for mode in ("pure", "hybrid", "switched"):
        for item in guided_slice:
            if mode == "switched":
                g = GuidanceConfig(mode=mode, model=model, vocab=vocab,
                                   phase1_budget=800)
            else:
                g = GuidanceConfig(mode=mode, model=model, vocab=vocab)
            result = guided_prove(item.problem, g,
                                  SearchConfig(max_processed=1200,
                                               max_generated=40_000,
                                               max_clause_literals=12,
                                               max_wall_ms=15_000))
            if result.proof is not None:
                proofs += 1
                ok, reason = verify_proof_detailed(result.proof, item.problem)
                if not ok:
                    failures.append((item.name, mode, reason))
    took = time.time() - t0
    report_line(
        1, "soundness", not failures and proofs >= 150 and took < 600,
        f"{proofs} proofs verified over {len(corpus)} problems, "
        f"{len(failures)} failures, {took:.0f}s",
    )


# -- 2: oracle equivalence -------------------------------------------------------


def test_criterion_2_oracle_equivalence(corpus):
    t0 = time.time()
    minis = [item for item in corpus if "small_oracle" in item.tags]
    assert len(minis) >= 30
    assert all(len(m.problem.clauses()) <= 12 for m in minis)
    disagreements = []
    for item in minis:
        expected = bfs_saturate(item.problem)
        got = prove(item.problem, SearchConfig(schedule="1*fifo", max_processed=None,
                                               max_wall_ms=None,
                                               max_generated=2_000_000))
        if got.status != expected:
            disagreements.append((item.name, expected, got.status))
    took = time.time() - t0
    report_line(
        2, "oracle equivalence", not disagreements and took < 120,
        f"{len(minis)} instances, {len(disagreements)} disagreements, {took:.0f}s",
    )


# -- 3: round-robin exactness -----------------------------------------------------


def test_criterion_3_round_robin():
    from satguide.fol import Clause

    sched = SelectionSchedule([(1, FifoWeightFn()), (4, SymbolCountWeightFn(2, 1))])
    next_id = 0
    picks = 0
    while picks < 10_000:
        while len(sched) < 6:
            sched.insert(Clause(next_id, parse_clause_text(f"p(c{next_id})")))
            next_id += 1
        sched.pop_next()
        picks += 1
    ok = sched.pick_counts == [2_000, 8_000]
    report_line(3, "round-robin exactness", ok, f"pick counts {sched.pick_counts}")


# -- 4: gradient checks ------------------------------------------------------------


def _gradcheck(arch, **kw):
    cfg = ModelConfig(arch=arch, vocab_size=12, dim=4, hidden=6, seed=3, **kw)
    model = init_model(cfg)
    rng = np.random.default_rng(7)
    for p in model.params.values():
        p.data = rng.uniform(-0.3, 0.3, p.data.shape)
    model.quantize()
    if arch in ("cnn", "wavenet"):
        # packed end to end, so every tap near a row's end meets the next
        # row, a one-token row and an empty one
        batch = [PairInput(clause=[3, 4, 5, 6, 10], conj=[7, 8, 9], label=1),
                 PairInput(clause=[6, 5, 11, 4], conj=[3, 9, 2, 8], label=0),
                 PairInput(clause=[9], conj=[0, 0], label=1)]
    else:
        t1 = ("or", ("apply", ("leaf", 3), ("leaf", 4)),
              ("not", ("apply", ("leaf", 5), ("leaf", 6))))
        t2 = ("and", ("apply", ("leaf", 7), ("leaf", 8)), ("not", ("leaf", 9)))
        batch = [PairInput(clause=t1, conj=t2, label=1),
                 PairInput(clause=("not", ("leaf", 4)), conj=t2, label=0)]
    _, grads = loss_and_grads(batch, model, train_mode=False)
    h = 1e-4
    worst = 0.0
    count = 0
    for name, p in model.params.items():
        flat = p.data.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = loss_and_grads(batch, model, train_mode=False)
            flat[i] = orig - h
            dn, _ = loss_and_grads(batch, model, train_mode=False)
            flat[i] = orig
            fd = (up - dn) / (2 * h)
            rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-3)
            worst = max(worst, rel)
            count += 1
    return worst, count


def test_criterion_4_gradient_checks():
    t0 = time.time()
    results = {}
    results["cnn"] = _gradcheck("cnn")
    results["wavenet"] = _gradcheck("wavenet", wavenet_blocks=1, wavenet_layers=3)
    results["tree_rnn"] = _gradcheck("tree_rnn")
    results["tree_lstm"] = _gradcheck("tree_lstm")
    took = time.time() - t0
    worst = max(w for w, _ in results.values())
    total = sum(n for _, n in results.values())
    detail = ", ".join(f"{k}={w:.2e}" for k, (w, _) in results.items())
    report_line(4, "gradient checks", worst <= 1e-3 and took < 300,
                f"max rel err over {total} params: {detail}; {took:.0f}s")


# -- 5: training sanity ------------------------------------------------------------


def test_criterion_5_training_sanity(trained):
    t0 = time.time()
    # (a) 256-example balanced toy set, dim-32 CNN, >= 99% train accuracy
    rng = np.random.default_rng(SEED)
    toy = []
    for i in range(256):
        label = i % 2
        marker = 3 if label else 4
        filler = list(rng.integers(5, 14, size=rng.integers(3, 9)))
        toy.append(PairInput(clause=[marker] + filler,
                             conj=list(rng.integers(5, 14, size=4)),
                             label=label))
    toy_model = init_model(ModelConfig(arch="cnn", vocab_size=16, dim=32,
                                       hidden=64, seed=SEED))
    best, _ = train(toy, [], toy_model,
                    TrainConfig(steps=2000, batch_size=32, lr=1e-3, eval_every=500,
                                seed=SEED))
    toy_acc = accuracy(toy, best)

    # (b) held-out balanced accuracy on the desk corpus
    eval_acc = accuracy(prepare_pairs(trained["eval_balanced"], trained["vocab"],
                                      trained["model"].config), trained["model"])
    took = time.time() - t0
    ok = toy_acc >= 0.99 and eval_acc >= 0.65
    report_line(5, "training sanity", ok,
                f"toy train acc {toy_acc:.3f} (>=0.99), "
                f"held-out balanced acc {eval_acc:.3f} (>=0.65); {took:.0f}s"
                f" (+ shared fixture training time)")


# -- 6: wavenet structure -----------------------------------------------------------


def test_criterion_6_wavenet_structure():
    t0 = time.time()
    dim = 3
    rng = np.random.default_rng(4)
    ws = [rng.uniform(-0.5, 0.5, (3, dim, dim)) for _ in range(7)]
    bs = [rng.uniform(-0.1, 0.1, dim) for _ in range(7)]

    def block(x):
        out = T.constant(x)
        seg = T.Segments([len(x)])
        d = 1
        for w, b in zip(ws, bs):
            filt = T.conv_taps(out, T.constant(w), T.constant(b), seg, d)
            gate = T.conv_taps(out, T.constant(w * 0.7), T.constant(b), seg, d)
            out = T.add(out, T.mul(T.tanh(filt), T.sigmoid(gate)))
            d *= 2
        return out.data

    t_len, probe = 300, 150
    x = rng.uniform(-1, 1, (t_len, dim))
    base = block(x)
    x2 = x.copy()
    x2[probe] += 1.0
    moved = block(x2)
    changed = np.where(np.abs(moved - base).max(axis=1) > 0)[0]
    field_ok = changed.min() == probe - 127 and changed.max() == probe + 127

    # residual identity: zero weights and biases leave the block an identity
    cfg = ModelConfig(arch="wavenet", vocab_size=10, dim=4, hidden=4, seed=0,
                      wavenet_blocks=3, wavenet_layers=7)
    model = init_model(cfg)
    for name, p in model.params.items():
        if "filter" in name or "gate" in name:
            p.data = np.zeros_like(p.data)
    from satguide.neural.models import embed_sequence

    ids = [3, 4, 5, 6, 7]
    out = embed_sequence(ids, model, "clause")
    raw = model.params["embedding"].data[ids]
    identity_ok = np.array_equal(out.data, raw.max(axis=0))
    took = time.time() - t0
    report_line(6, "wavenet structure", field_ok and identity_ok and took < 60,
                f"influence span [{changed.min()-probe},{changed.max()-probe}] "
                f"(exact +/-127: {field_ok}), residual identity exact: {identity_ok}; "
                f"{took:.0f}s")


# -- 7: guidance effect -------------------------------------------------------------


def test_criterion_7_guidance_effect(corpus, trained):
    t0 = time.time()
    model, vocab = trained["model"], trained["vocab"]
    problems = [c.problem for c in corpus if c.tags & {"guidance", "guidance_hard"}]
    budget = 1200
    limits = SearchConfig(max_processed=budget, max_generated=30_000,
                          max_clause_literals=12, max_wall_ms=None)
    proved = {}
    pc1000 = {}
    for mode in ("auto", "pure", "hybrid", "switched"):
        proved[mode] = 0
        pc1000[mode] = 0
        for p in problems:
            if mode == "auto":
                g = GuidanceConfig(mode="auto")
            elif mode == "switched":
                g = GuidanceConfig(mode="switched", model=model, vocab=vocab,
                                   phase1_budget=(2 * budget) // 3)
            else:
                g = GuidanceConfig(mode=mode, model=model, vocab=vocab)
            r = guided_prove(p, g, limits)
            if r.status == UNSAT:
                proved[mode] += 1
                if r.processed_count <= 1000:
                    pc1000[mode] += 1
    took = time.time() - t0
    ok = proved["switched"] >= proved["pure"] and pc1000["hybrid"] >= pc1000["auto"]
    report_line(
        7, "guidance effect", ok and took < 1800,
        f"proved: {proved}; PC<=1000: {pc1000}; "
        f"switched>=pure: {proved['switched'] >= proved['pure']}, "
        f"hybrid>=auto@1000: {pc1000['hybrid'] >= pc1000['auto']}; {took:.0f}s",
    )


# -- 8: switched-mode contracts ------------------------------------------------------


def test_criterion_8_switched_contracts(corpus, trained):
    t0 = time.time()
    model, vocab = trained["model"], trained["vocab"]
    fixed = [c.problem for c in corpus if c.tags & {"guidance", "train"}][:10]
    ok_all = True
    details = []
    # (a) zero evals after the switch + exact phase budget
    for p in fixed[:4]:
        g = GuidanceConfig(mode="switched", model=model, vocab=vocab, phase1_budget=15)
        r = guided_prove(p, g, SearchConfig(max_processed=600, max_generated=40_000,
                                            max_clause_literals=12))
        if r.info.get("finished_in_phase") == 2:
            if r.info["network_evals"] != r.info["evals_at_switch"]:
                ok_all = False
                details.append(f"{p.name}: evals after switch")
        if r.info["phase1_processed"] > 15:
            ok_all = False
            details.append(f"{p.name}: phase1 over budget")
    # (b) phase1_budget = 0 reproduces Auto bit-for-bit on 10 problems
    for p in fixed:
        limits = SearchConfig(max_processed=400, max_generated=80_000,
                              record_selections=True)
        auto = guided_prove(p, GuidanceConfig(mode="auto"), limits)
        g = GuidanceConfig(mode="switched", model=model, vocab=vocab, phase1_budget=0)
        sw = guided_prove(p, g, limits)
        if sw.selections != auto.selections or sw.status != auto.status:
            ok_all = False
            details.append(f"{p.name}: budget-0 selection mismatch")
        if sw.info["network_evals"] != 0:
            ok_all = False
            details.append(f"{p.name}: budget-0 evaluated the network")
    took = time.time() - t0
    report_line(8, "switched contracts", ok_all and took < 120,
                (details[0] if details else "all contracts hold") + f"; {took:.0f}s")


# -- 9: premise cascade --------------------------------------------------------------


def test_criterion_9_premise_cascade(corpus, trained):
    t0 = time.time()
    model, vocab = trained["model"], trained["vocab"]
    problems = [c.problem for c in corpus if "premsel" in c.tags]
    assert len(problems) >= 20
    total_budget = 800
    limits = SearchConfig(max_generated=60_000, max_clause_literals=12,
                          max_wall_ms=None)
    cascade_proved = 0
    unguided_proved = 0
    stop_rule_ok = True
    for p in problems:
        scorer = ClauseScorer(model, vocab, p, batch_size=32)
        ranking = rank_premises(p, scorer)
        casc = cascade_prove(p, ranking, (32, 64, 128, 256), total_budget,
                             limits=limits)
        if casc.result.status == UNSAT:
            cascade_proved += 1
            after = [t for t in casc.transcript if t["level"] > casc.level_used]
            if after:
                stop_rule_ok = False
        unguided = prove(p, SearchConfig(max_processed=total_budget,
                                         max_generated=60_000,
                                         max_clause_literals=12,
                                         max_wall_ms=None))
        if unguided.status == UNSAT:
            unguided_proved += 1
    # clamping: levels beyond the premise count collapse
    clamp_ok = clamp_levels((32, 64, 128, 256), 10) == [10]
    took = time.time() - t0
    ok = cascade_proved > unguided_proved and stop_rule_ok and clamp_ok
    report_line(
        9, "premise cascade", ok and took < 1200,
        f"cascade {cascade_proved}/{len(problems)} vs unguided "
        f"{unguided_proved}/{len(problems)} at budget {total_budget}; "
        f"stop rule: {stop_rule_ok}, clamping: {clamp_ok}; {took:.0f}s",
    )


# -- 10: determinism & serialization ---------------------------------------------------


def test_criterion_10_determinism(tmp_path, corpus, trained, trace_config):
    t0 = time.time()
    problems = [c.problem for c in corpus if c.family in ("chain", "membership")][:10]

    # traces byte-identical
    ta, tb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_traces(generate_traces(problems, trace_config, seed=3), str(ta))
    write_traces(generate_traces(problems, trace_config, seed=3), str(tb))
    traces_ok = ta.read_bytes() == tb.read_bytes()

    # vocabulary byte-identical
    examples = []
    for i, t in enumerate(generate_traces(problems, trace_config, seed=3)):
        examples.extend(label_examples(t, seed=i))
    va, vb = tmp_path / "va.txt", tmp_path / "vb.txt"
    build_vocabulary(examples).save(str(va))
    build_vocabulary(list(examples)).save(str(vb))
    vocab_ok = va.read_bytes() == vb.read_bytes()

    # reports byte-identical
    methods = {"auto": GuidanceConfig(mode="auto")}
    ra, rb = tmp_path / "ra.jsonl", tmp_path / "rb.jsonl"
    write_report(run_corpus(problems, methods, SearchConfig(max_processed=500)), str(ra))
    write_report(run_corpus(problems, methods, SearchConfig(max_processed=500)), str(rb))
    report_ok = ra.read_bytes() == rb.read_bytes()

    # checkpoint byte-stability and bit-exact scores
    model = trained["model"]
    blob1 = save_checkpoint(model)
    loaded = load_checkpoint(blob1)
    blob2 = save_checkpoint(loaded)
    ckpt_ok = blob1 == blob2
    rng = np.random.default_rng(1)
    scores_ok = True
    for _ in range(100):
        ids = list(rng.integers(3, len(trained["vocab"]), size=rng.integers(1, 20)))
        conj = list(rng.integers(3, len(trained["vocab"]), size=rng.integers(1, 12)))
        pair = PairInput(clause=ids, conj=conj)
        if batch_scores([pair], model)[0] != batch_scores([pair], loaded)[0]:
            scores_ok = False
            break
    took = time.time() - t0
    ok = traces_ok and vocab_ok and report_ok and ckpt_ok and scores_ok
    report_line(
        10, "determinism & serialization", ok and took < 120,
        f"traces:{traces_ok} vocab:{vocab_ok} report:{report_ok} "
        f"checkpoint:{ckpt_ok} scores:{scores_ok}; {took:.0f}s",
    )
