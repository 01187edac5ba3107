"""CLI smoke tests through main(), and README's usage examples."""

import json
import re
import shlex
from pathlib import Path

import pytest

from satguide import cli, harness
from satguide.cli import build_parser, main
from satguide.corpus import chain_problem, junk_distractors
from satguide.fol import problem_str
from satguide.harness import read_report
from satguide.neural.checkpoint import save_checkpoint_file
from satguide.neural.models import ModelConfig, init_model
from satguide.tokens import Vocabulary


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "toy.p"
    path.write_text(
        "cnf(a, axiom, (p(a))).\n"
        "cnf(b, axiom, (~p(X) | q(X))).\n"
        "cnf(g, negated_conjecture, (~q(a))).\n"
    )
    return str(path)


def test_prove(problem_file, capsys):
    assert main(["prove", problem_file, "--max-processed", "100"]) == 0
    out = capsys.readouterr().out
    assert "% SZS status Unsatisfiable for toy" in out


def test_prove_derivation(problem_file, capsys):
    main(["prove", problem_file, "--derivation"])
    out = capsys.readouterr().out
    assert "rule=res" in out and "$false" in out


def test_verify(problem_file, capsys):
    assert main(["verify", problem_file]) == 0
    assert "proof verification: PASS" in capsys.readouterr().out


def test_prove_schedule(tmp_path, capsys):
    junk = junk_distractors(list(range(6)), "rel0")
    path = tmp_path / "flood.p"
    path.write_text(problem_str(chain_problem("flood", "rel0", [f"c{i}" for i in range(5)],
                                              4, junk)))
    counts = {}
    for spec in ("auto", "1*fifo", "1*symcount(2,1)"):
        assert main(["prove", str(path), "--schedule", spec, "--max-processed", "100"]) == 0
        counts[spec] = capsys.readouterr().out.splitlines()[1].rsplit(" ", 1)[0]
    assert len(set(counts.values())) == 3, counts


@pytest.fixture
def model_files(tmp_path):
    vocab = Vocabulary()
    for token in ["~", "p", "q", "(", ")", "|", "a", "V1"]:
        vocab.add(token)
    vocab_path, model_path = tmp_path / "vocab.txt", tmp_path / "model.ckpt"
    vocab.save(str(vocab_path))
    save_checkpoint_file(init_model(ModelConfig(arch="cnn", vocab_size=len(vocab), dim=4,
                                                hidden=4), vocab.hash), str(model_path))
    return ["--model", str(model_path), "--vocab", str(vocab_path)]


@pytest.mark.parametrize("batch_size", ["0", "-1"])
def test_prove_and_premsel_reject_batch_size_below_one(problem_file, model_files, batch_size):
    for command in (["prove", problem_file, "--mode", "hybrid"], ["premsel", problem_file]):
        with pytest.raises(ValueError, match="batch_size"):
            main(command + model_files + ["--batch-size", batch_size])


def test_prove_rejects_phase1_budget_it_cannot_honour(problem_file, model_files):
    # hybrid mode has no phase 1, and a negative budget would end it at once
    for mode, budget, error in (("hybrid", "5", "phase1_budget sets switched mode's phase 1"),
                                ("switched", "-5", "phase1_budget must be at least 0")):
        with pytest.raises(ValueError, match=error):
            main(["prove", problem_file, "--mode", mode, "--phase1-budget", budget]
                 + model_files)


def test_premsel_rejects_level_below_one(problem_file, model_files):
    with pytest.raises(ValueError, match="at least 1"):
        main(["premsel", problem_file, "--levels", "1,0"] + model_files)


def test_trace_defaults_to_clause_limits():
    args = build_parser().parse_args(["trace", "--out", "t.jsonl"])
    assert args.timeout_ms is None


def test_premsel_rejects_max_processed():
    # the cascade splits --budget across its levels; a clause cap would do nothing
    base = ["premsel", "p.p", "--model", "m.ckpt", "--vocab", "v.txt"]
    assert build_parser().parse_args(base).budget == 2_000
    with pytest.raises(SystemExit):
        build_parser().parse_args(base + ["--max-processed", "100"])


def test_trace_train_eval_cycle(tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    rc = main(["trace", "--out", str(traces), "--tags", "train",
               "--max-processed", "300"])
    assert rc == 0 and traces.exists()

    model = tmp_path / "model.ckpt"
    vocab = tmp_path / "vocab.txt"
    examples = tmp_path / "eval.jsonl"
    rc = main(["train", "--traces", str(traces), "--out", str(model),
               "--vocab-out", str(vocab), "--dim", "8", "--hidden", "8",
               "--steps", "30", "--batch-size", "16",
               "--examples-out", str(examples)])
    assert rc == 0 and model.exists() and vocab.exists()
    out = capsys.readouterr().out
    assert "trained cnn" in out

    assert examples.exists() and examples.stat().st_size > 0
    rc = main(["eval-acc", "--model", str(model), "--vocab", str(vocab),
               "--examples", str(examples)])
    assert rc == 0
    assert "balanced accuracy" in capsys.readouterr().out


def test_experiment_and_report(tmp_path, capsys):
    config = {
        "corpus": {"seed": 0, "families": ["mini"]},
        "methods": [{"id": "auto", "mode": "auto"}],
        "limits": {"max_processed": 200, "max_generated": 5_000},
    }
    cfg_path = tmp_path / "exp.json"
    out_path = tmp_path / "report.jsonl"
    dir_corpus = {"dir": str(tmp_path)}
    for key, spoil in (
        ("max_clauses", lambda c: c["limits"].update(max_clauses=100)),
        ("phase1_msec", lambda c: c["methods"][0].update(phase1_msec=100)),
        ("total_budget", lambda c: c["methods"][0].update(total_budget=200)),
        ("familes", lambda c: c["corpus"].update(familes=["mini"])),
        ("record_walltim", lambda c: c.update(record_walltim=True)),
        ("seed", lambda c: c.update(seed=0)),
        ("premsel_budget", lambda c: c["methods"][0].update(premsel_budget=2000)),
        ("tags", lambda c: c.update(corpus={**dir_corpus, "tags": ["train"]})),
        ("families", lambda c: c.update(corpus={**dir_corpus, "families": ["mini"]})),
    ):
        bad = json.loads(json.dumps(config))
        spoil(bad)
        cfg_path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=key):
            main(["experiment", "--config", str(cfg_path), "--out", str(out_path)])
    cfg_path.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    assert read_report(str(out_path)).config["limits"]["max_generated"] == 5_000

    curves_dir = tmp_path / "curves"
    assert main(["report", str(out_path), "--curves", str(curves_dir)]) == 0
    out = capsys.readouterr().out
    assert "aggregate consistency: PASS" in out
    assert (curves_dir / "curve_auto.txt").exists()


def test_experiment_rejects_bad_switched_budget(tmp_path):
    # a switched method whose phase 1 would not end before the limits is
    # refused before any problem runs, and no report is written
    vocab = Vocabulary()
    for token in ["~", "p", "(", ")"]:
        vocab.add(token)
    vocab_path, model_path = tmp_path / "vocab.txt", tmp_path / "model.ckpt"
    vocab.save(str(vocab_path))
    save_checkpoint_file(init_model(ModelConfig(arch="cnn", vocab_size=len(vocab), dim=4,
                                                hidden=4), vocab.hash), str(model_path))
    config = {
        "corpus": {"seed": 0, "families": ["mini"]},
        "methods": [{"id": "sw", "mode": "switched", "model": str(model_path),
                     "vocab": str(vocab_path), "phase1_budget": 50}],
        "limits": {"max_processed": 50},
    }
    cfg_path, out_path = tmp_path / "exp.json", tmp_path / "report.jsonl"
    cfg_path.write_text(json.dumps(config))
    with pytest.raises(ValueError, match="phase1_budget < max_processed"):
        main(["experiment", "--config", str(cfg_path), "--out", str(out_path)])
    assert not out_path.exists()


def test_dump_corpus(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    assert main(["dump-corpus", "--out", str(out_dir), "--tag", "small_oracle"]) == 0
    files = list(out_dir.glob("*.p"))
    assert len(files) >= 30


def test_prove_from_dumped_file(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    main(["dump-corpus", "--out", str(out_dir), "--tag", "small_oracle"])
    capsys.readouterr()
    some = sorted(out_dir.glob("mini*.p"))[0]
    assert main(["prove", str(some)]) == 0
    assert "% SZS status" in capsys.readouterr().out


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(lang: str, after: str) -> str:
    """The first ```lang block of README.md that follows the line `after`."""
    text = README.read_text()
    start = text.index(after)
    return re.search(rf"```{lang}\n(.*?)```", text[start:], re.S).group(1)


def test_readme_command_lines_parse():
    # parsing only: every `satguide ...` line names real subcommands and flags
    block = readme_block("bash", "## Command line").replace("\\\n", " ")
    commands = [line.split("#", 1)[0] for line in block.splitlines()]
    commands = [shlex.split(c)[1:] for c in commands if c.startswith("satguide ")]
    assert len(commands) >= 8
    for argv in commands:
        build_parser().parse_args(argv)


def test_readme_experiment_config_keys_are_known():
    spec = json.loads(readme_block("json", "An experiment config is one JSON file"))
    cli._known(spec, cli._EXPERIMENT_KEYS, "experiment")
    cli._known(spec.get("corpus", {}), cli._CORPUS_KEYS, "corpus")
    cli._known(spec.get("limits", {}), cli._LIMIT_KEYS, "limits")
    for m in spec["methods"]:
        cli._known(m, cli._METHOD_KEYS, f"method {m['id']!r}")


def test_experiment_rejects_phase1_outside_switched(tmp_path, model_files, monkeypatch):
    # refused while the methods are read: no cell runs and no report is written
    cells = []
    monkeypatch.setattr(harness, "_run_cell", lambda *args: cells.append(args))
    model, vocab = model_files[1], model_files[3]
    config = {
        "corpus": {"seed": 0, "families": ["mini"]},
        "methods": [{"id": "auto", "mode": "auto"},
                    {"id": "hy", "mode": "hybrid", "model": model, "vocab": vocab,
                     "phase1_budget": 5}],
        "limits": {"max_processed": 50},
    }
    cfg_path, out_path = tmp_path / "exp.json", tmp_path / "report.jsonl"
    cfg_path.write_text(json.dumps(config))
    with pytest.raises(ValueError, match="phase1_budget sets switched mode's phase 1"):
        main(["experiment", "--config", str(cfg_path), "--out", str(out_path)])
    assert not cells and not out_path.exists()


def test_experiment_rejects_an_unknown_mode(tmp_path, model_files, monkeypatch):
    # refused while the methods are read, before any cell runs
    cells = []
    monkeypatch.setattr(harness, "_run_cell", lambda *args: cells.append(args))
    config = {
        "corpus": {"seed": 0, "families": ["mini"]},
        "methods": [{"id": "auto", "mode": "auto"},
                    {"id": "nn", "mode": "Pure", "model": model_files[1],
                     "vocab": model_files[3]}],
        "limits": {"max_processed": 50},
    }
    cfg_path, out_path = tmp_path / "exp.json", tmp_path / "report.jsonl"
    cfg_path.write_text(json.dumps(config))
    with pytest.raises(ValueError, match="mode must be one of .*, got 'Pure'"):
        main(["experiment", "--config", str(cfg_path), "--out", str(out_path)])
    assert not cells and not out_path.exists()


@pytest.mark.parametrize("limits,mode,error", [
    ({"schedule": "1*fifoo"}, "hybrid", "schedule '1\\*fifoo': unknown weight function"),
    ({"schedule": "1*fifo"}, "pure", "pure mode .* cannot use schedule"),
    ({"max_memory_symbols": 100}, "hybrid", "unknown limits keys \\['max_memory_symbols'\\]"),
    ({"equality_axioms": "never"}, "hybrid", "unknown limits keys \\['equality_axioms'\\]"),
], ids=["misspelt_schedule", "pure_under_fifo", "max_memory_symbols", "equality_axioms"])
def test_experiment_rejects_limits_it_cannot_honour(tmp_path, model_files, monkeypatch,
                                                    limits, mode, error):
    # refused before any cell runs, and no report is written
    cells = []
    monkeypatch.setattr(harness, "_run_cell", lambda *args: cells.append(args))
    config = {
        "corpus": {"seed": 0, "families": ["mini"]},
        "methods": [{"id": "auto", "mode": "auto"},
                    {"id": "nn", "mode": mode, "model": model_files[1],
                     "vocab": model_files[3]}],
        "limits": {"max_processed": 50, **limits},
    }
    cfg_path, out_path = tmp_path / "exp.json", tmp_path / "report.jsonl"
    cfg_path.write_text(json.dumps(config))
    with pytest.raises(ValueError, match=error):
        main(["experiment", "--config", str(cfg_path), "--out", str(out_path)])
    assert not cells and not out_path.exists()


@pytest.mark.parametrize("mode,picks,error", [
    ("pure", 7, "mode 'pure' has none"), ("hybrid", 0, "must be at least 1")])
def test_experiment_rejects_hybrid_nn_picks_it_cannot_honour(tmp_path, model_files,
                                                             monkeypatch, mode, picks, error):
    # refused while the methods are read, not written as one Error record
    # per cell
    cells = []
    monkeypatch.setattr(harness, "_run_cell", lambda *args: cells.append(args))
    model, vocab = model_files[1], model_files[3]
    config = {
        "corpus": {"seed": 0, "families": ["mini"]},
        "methods": [{"id": "auto", "mode": "auto"},
                    {"id": "nn", "mode": mode, "model": model, "vocab": vocab,
                     "hybrid_nn_picks": picks}],
        "limits": {"max_processed": 50},
    }
    cfg_path, out_path = tmp_path / "exp.json", tmp_path / "report.jsonl"
    cfg_path.write_text(json.dumps(config))
    with pytest.raises(ValueError, match=f"hybrid_nn_picks.*{error}"):
        main(["experiment", "--config", str(cfg_path), "--out", str(out_path)])
    assert not cells and not out_path.exists()
