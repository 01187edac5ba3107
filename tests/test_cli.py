"""CLI smoke tests through main(), and README's usage examples."""

import argparse
import json
import re
import shlex
from dataclasses import replace
from pathlib import Path

import pytest

from satguide import cli, datagen, harness
from satguide.cli import build_parser, main
from satguide.corpus import chain_problem, desk_corpus, junk_distractors
from satguide.fol import clause_str, problem_str
from satguide.harness import read_report
from satguide.neural.checkpoint import load_checkpoint_file, save_checkpoint_file
from satguide.neural.models import ModelConfig, init_model
from satguide.tokens import Vocabulary

FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture"
FIXTURE_MODEL = ["--model", str(FIXTURE / "cnn.sgnn"), "--vocab", str(FIXTURE / "vocab.txt")]
MODEL_KEYS = {"model": FIXTURE_MODEL[1], "vocab": FIXTURE_MODEL[3]}
NO_FILE = "No such file or directory"


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


def refused(capsys, message: str) -> bool:
    """Whether the run printed just the SZS `InputError` status of toy.p
    and a reason that contains `message`."""
    status, reason = capsys.readouterr().out.splitlines()
    return status == "% SZS status InputError for toy" and message in reason


def experiment_refused(capsys, cfg_path, out_path, pattern: str) -> bool:
    """Whether `satguide experiment` on the config file `cfg_path` exited 1
    having printed just the SZS `InputError` status and a reason that
    matches `pattern`, and wrote no report to `out_path`."""
    rc = main(["experiment", "--config", str(cfg_path), "--out", str(out_path)])
    status, reason = capsys.readouterr().out.splitlines()
    return (rc == 1 and status == "% SZS status InputError for experiment"
            and re.search(pattern, reason) is not None and not out_path.exists())


@pytest.mark.parametrize("batch_size", ["0", "-1"])
def test_prove_and_premsel_reject_batch_size_below_one(problem_file, model_files, batch_size,
                                                       capsys):
    # premise selection is prove in cascade mode
    for mode in ("hybrid", "cascade"):
        assert main(["prove", problem_file, "--mode", mode] + model_files
                    + ["--batch-size", batch_size]) == 1
        assert refused(capsys, "batch_size must be at least 1")


@pytest.mark.parametrize("options, message", [
    (["--max-processed", "-1"], "max_processed must not be negative, got -1"),
    (["--timeout-ms", "-5"], "max_wall_ms must not be negative, got -5"),
    (["--schedule", "bogus"], "schedule 'bogus'"),
    (["--mode", "pure"], "mode 'pure' requires a model"),
    (["--mode", "hybrid", "--model", "m.ckpt"], "--model needs --vocab"),
    (["--mode", "hybrid", "--model", "m.ckpt", "--vocab", "missing.txt"],
     f"{NO_FILE}: 'missing.txt'"),
    # auto mode calls no network, so a model or vocabulary would do nothing
    (["--vocab", "nosuch.txt"], "mode 'auto' calls no network"),
    (FIXTURE_MODEL, "mode 'auto' calls no network"),
    (["--mode", "hybrid", "--levels", "32"] + FIXTURE_MODEL,
     "premsel_levels needs mode 'cascade'"),
])
def test_prove_reports_a_refused_option_as_input_error(problem_file, options, message, capsys):
    assert main(["prove", problem_file] + options) == 1
    assert refused(capsys, message)


@pytest.mark.parametrize("options, message", [
    (["--mode", "hybrid"], "mode 'hybrid' requires a model"),
    (["--max-processed", "-3"], "max_processed must not be negative, got -3"),
    (["--mode", "hybrid", "--model", "missing.ckpt", "--vocab", FIXTURE_MODEL[3]],
     f"{NO_FILE}: 'missing.ckpt'"),
])
def test_verify_reports_a_refused_option_as_input_error(problem_file, options, message,
                                                        capsys):
    assert main(["verify", problem_file] + options) == 1
    assert refused(capsys, message)


@pytest.mark.parametrize("options, message", [
    (["--max-processed", "-1"], "max_processed must not be negative, got -1"),
    (["--levels", "8,x"], "invalid literal for int()"),
    (["--vocab", "missing.txt"], f"{NO_FILE}: 'missing.txt'"),
])
def test_premsel_reports_a_refused_option_as_input_error(problem_file, model_files, options,
                                                         message, capsys):
    assert main(["prove", problem_file, "--mode", "cascade"] + model_files + options) == 1
    assert refused(capsys, message)


@pytest.mark.parametrize("command", ["prove", "verify", "premsel"])
def test_syntax_error_ends_with_an_szs_status(tmp_path, model_files, command, capsys):
    path = tmp_path / "bad.p"
    path.write_text("cnf(a, axiom, p(a).\n")
    # premise selection is prove in cascade mode
    argv = (["prove", str(path), "--mode", "cascade"] + model_files if command == "premsel"
            else [command, str(path)])
    assert main(argv) != 0
    assert capsys.readouterr().out.splitlines() == [
        "% SZS status SyntaxError for bad",
        "% expected ')', found '.' at line 1, column 19",
    ]


def test_prove_rejects_phase1_budget_it_cannot_honour(problem_file, model_files, capsys):
    # hybrid mode has no phase 1, and a negative budget would end it at once
    for mode, budget, error in (("hybrid", "5", "phase1_budget sets switched mode's phase 1"),
                                ("switched", "-5", "phase1_budget must be at least 0"),
                                ("switched", "100", "phase1_budget < max_processed")):
        assert main(["prove", problem_file, "--mode", mode, "--phase1-budget", budget,
                     "--max-processed", "100"] + model_files) == 1
        assert refused(capsys, error)


def test_premsel_rejects_level_below_one(problem_file, model_files, capsys):
    assert main(["prove", problem_file, "--mode", "cascade", "--levels", "1,0"]
                + model_files) == 1
    assert refused(capsys, "at least 1")


def test_trace_defaults_to_clause_limits():
    args = build_parser().parse_args(["trace", "--out", "t.jsonl"])
    assert args.timeout_ms is None


@pytest.mark.parametrize("option", ["--max-processed", "--timeout-ms"])
def test_trace_reports_a_refused_option_as_input_error(tmp_path, option, capsys):
    traces = tmp_path / "traces.jsonl"
    assert main(["trace", "--out", str(traces), option, "-1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "% SZS status InputError for trace",
        f"% {'max_processed' if option == '--max-processed' else 'max_wall_ms'} "
        f"must not be negative, got -1",
    ]
    assert not traces.exists()


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
        (r"unknown corpus tags \['nosuch'\]; known: \[.*'train'",
         lambda c: c["corpus"].update(tags=["nosuch"])),
        (r"unknown corpus families \['chian'\]; known: \[.*'chain'",
         lambda c: c["corpus"].update(families=["chian"])),
        ("corpus tags must be a nonempty list of strings, got 'train'",
         lambda c: c["corpus"].update(tags="train")),
        ("corpus families must be a nonempty list of strings, got 'mini'",
         lambda c: c["corpus"].update(families="mini")),
        ("corpus seed must be an integer, got '0'", lambda c: c["corpus"].update(seed="0")),
        ("corpus seed must be an integer, got True", lambda c: c["corpus"].update(seed=True)),
        ("corpus dir must be a path, got None", lambda c: c.update(corpus={"dir": None})),
        ("methods", lambda c: c.pop("methods")),
        ("no id", lambda c: c["methods"][0].pop("id")),
    ):
        bad = json.loads(json.dumps(config))
        spoil(bad)
        cfg_path.write_text(json.dumps(bad))
        assert experiment_refused(capsys, cfg_path, out_path, key)
    cfg_path.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    assert read_report(str(out_path)).config["limits"]["max_generated"] == 5_000

    curves_dir = tmp_path / "curves"
    assert main(["report", str(out_path), "--curves", str(curves_dir)]) == 0
    out = capsys.readouterr().out
    assert "aggregate consistency: PASS" in out
    assert (curves_dir / "curve_auto.txt").exists()


def test_experiment_reports_a_corpus_file_that_does_not_parse(tmp_path, capsys):
    # every file that does not parse gets an SZS line with its location,
    # and no report is written
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "bad.p").write_text("cnf(a, axiom, p(a).\n")
    (corpus / "good.p").write_text("cnf(a, axiom, p(a)).\ncnf(b, negated_conjecture, ~p(a)).\n")
    (corpus / "worse.tptp").write_text("fof(a, axiom, " + "(" * 1000 + "p" + ")" * 1000 + ").\n")
    config = {"corpus": {"dir": str(corpus)}, "methods": [{"id": "auto", "mode": "auto"}]}
    cfg_path, out_path = tmp_path / "exp.json", tmp_path / "report.jsonl"
    cfg_path.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "% SZS status SyntaxError for bad",
        "% expected ')', found '.' at line 1, column 19",
        "% SZS status SyntaxError for worse",
        "% formula nested deeper than 200 at line 1, column 215",
    ]
    assert not out_path.exists()


@pytest.mark.parametrize("text, error", [
    (None, NO_FILE), ('{"methods": [}', "Expecting value"), ("[]", "must be a JSON object")],
    ids=["missing", "bad_json", "not_an_object"])
def test_experiment_reports_a_config_it_cannot_read(tmp_path, text, error, capsys):
    cfg_path, out_path = tmp_path / "exp.json", tmp_path / "report.jsonl"
    if text is not None:
        cfg_path.write_text(text)
    assert experiment_refused(capsys, cfg_path, out_path, error)


def test_experiment_rejects_bad_switched_budget(tmp_path, capsys):
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
    assert experiment_refused(capsys, cfg_path, out_path, "phase1_budget < max_processed")


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


def subcommands() -> dict[str, argparse.ArgumentParser]:
    """The parser of each `satguide` subcommand, by name."""
    [action] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_readme_command_lines_parse():
    # parsing only: every `satguide ...` line names real subcommands and flags,
    # and every subcommand has a line
    block = readme_block("bash", "## Command line").replace("\\\n", " ")
    commands = [line.split("#", 1)[0] for line in block.splitlines()]
    commands = [shlex.split(c)[1:] for c in commands if c.startswith("satguide ")]
    for argv in commands:
        build_parser().parse_args(argv)
    assert {argv[0] for argv in commands} == set(subcommands())


def test_readme_experiment_config_keys_are_known():
    spec = json.loads(readme_block("json", "An experiment config is one JSON file"))
    cli._known(spec, cli._EXPERIMENT_KEYS, "experiment")
    cli._known(spec.get("corpus", {}), cli._CORPUS_KEYS, "corpus")
    cli._known(spec.get("limits", {}), cli._LIMIT_KEYS, "limits")
    for m in spec["methods"]:
        cli._known(m, cli._METHOD_KEYS, f"method {m['id']!r}")


def test_experiment_rejects_phase1_outside_switched(tmp_path, model_files, monkeypatch,
                                                    capsys):
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
    assert experiment_refused(capsys, cfg_path, out_path,
                              "phase1_budget sets switched mode's phase 1")
    assert not cells


def test_experiment_rejects_an_unknown_mode(tmp_path, model_files, monkeypatch, capsys):
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
    assert experiment_refused(capsys, cfg_path, out_path, "mode must be one of .*, got 'Pure'")
    assert not cells


@pytest.mark.parametrize("limits,mode,error", [
    ({"schedule": "1*fifoo"}, "hybrid", "schedule '1\\*fifoo': unknown weight function"),
    ({"schedule": "1*fifo"}, "pure", "pure mode .* cannot use schedule"),
    ({"max_memory_symbols": 100}, "hybrid", "unknown limits keys \\['max_memory_symbols'\\]"),
    ({"equality_axioms": "never"}, "hybrid", "unknown limits keys \\['equality_axioms'\\]"),
], ids=["misspelt_schedule", "pure_under_fifo", "max_memory_symbols", "equality_axioms"])
def test_experiment_rejects_limits_it_cannot_honour(tmp_path, model_files, monkeypatch,
                                                    limits, mode, error, capsys):
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
    assert experiment_refused(capsys, cfg_path, out_path, error)
    assert not cells


@pytest.mark.parametrize("mode,picks,error", [
    ("pure", 7, "mode 'pure' has none"), ("hybrid", 0, "must be at least 1")])
def test_experiment_rejects_hybrid_nn_picks_it_cannot_honour(tmp_path, model_files,
                                                             monkeypatch, mode, picks, error,
                                                             capsys):
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
    assert experiment_refused(capsys, cfg_path, out_path, f"hybrid_nn_picks.*{error}")
    assert not cells



@pytest.mark.parametrize("methods,error", [
    ([{"id": "auto", "mode": "auto", "batch_size": 0}], "batch_size must be at least 1"),
    ([{"id": "casc", "mode": "cascade", "premsel_levels": [0], **MODEL_KEYS}],
     "premsel_levels must be one or more levels, each at least 1"),
    ([{"id": "casc", "mode": "cascade"}], "mode 'cascade' requires a model"),
    ([{"id": "hy", "mode": "hybrid", "premsel_levels": [32], **MODEL_KEYS}],
     "premsel_levels needs mode 'cascade'"),
    ([{"id": "casc", "premsel_levels": [32, 64, 128, 256]}],
     "premsel_levels needs mode 'cascade'"),
    ([{"id": "a", "mode": "auto"}, {"id": "a", "mode": "auto"}], "'a' is used twice"),
    ([{"id": "a", "mode": "auto", **MODEL_KEYS}], "mode 'auto' calls no network"),
    ([{"id": "hy", "mode": "hybrid", "model": "missing.ckpt", "vocab": MODEL_KEYS["vocab"]}],
     f"{NO_FILE}: 'missing.ckpt'"),
    (["auto"], "method must be a JSON object"),
], ids=["batch_size", "level_below_one", "cascade_without_model",
        "levels_under_hybrid", "default_levels_under_auto", "duplicate_id",
        "model_under_auto", "unreadable_model", "not_an_object"])
def test_experiment_refuses_a_bad_method_before_any_cell(tmp_path, monkeypatch, methods,
                                                         error, capsys):
    # refused while the methods are read: no cell runs and no report is written
    cells = []
    monkeypatch.setattr(harness, "_run_cell", lambda *args: cells.append(args))
    config = {"corpus": {"seed": 0, "families": ["mini"]}, "methods": methods,
              "limits": {"max_processed": 50}}
    cfg_path, out_path = tmp_path / "exp.json", tmp_path / "report.jsonl"
    cfg_path.write_text(json.dumps(config))
    assert experiment_refused(capsys, cfg_path, out_path, error)
    assert not cells


@pytest.fixture(scope="module")
def premsel_file(tmp_path_factory):
    """premsel000 of the bundled corpus as a TPTP file, alone in its directory."""
    problem = next(c.problem for c in desk_corpus(0) if c.name == "premsel000")
    path = tmp_path_factory.mktemp("premsel") / "premsel000.p"
    path.write_text(problem_str(problem))
    return path


def test_premsel_output_is_pinned(premsel_file, capsys):
    # the first five lines are those the premsel subcommand printed when it
    # ran the cascade itself, before the cascade became a guided_prove mode
    assert main(["prove", str(premsel_file), "--mode", "cascade", "--levels", "4,8,16,32",
                 "--max-processed", "400"] + FIXTURE_MODEL) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:5] == [
        "% SZS status Unsatisfiable for premsel000",
        "% ranking_hash=e802e71fefb324e2 level_used=16",
        "%   level=4 status=ResourceOut processed=4",
        "%   level=8 status=ResourceOut processed=100",
        "%   level=16 status=Unsatisfiable processed=61",
    ]
    assert lines[5].startswith("% processed=165 generated=3839 wall_ms=") and len(lines) == 6


def test_cascade_derivation_names_the_files_clauses(premsel_file, capsys):
    # the proof comes from a top-k level, whose clauses keep their ids
    assert main(["prove", str(premsel_file), "--mode", "cascade", "--derivation"]
                + FIXTURE_MODEL) == 0
    clauses = {c.id: c for c in cli._load_problem(str(premsel_file)).clauses()}
    leaves = [line for line in capsys.readouterr().out.splitlines()
              if line.endswith(" rule=input")]
    assert leaves
    for line in leaves:
        cid = int(line.split(".", 1)[0])
        assert line == f"{cid}. {clause_str(clauses[cid])} <- [] rule=input"


def test_verify_cascade_mode(premsel_file, capsys):
    # the proof comes from a top-k sub-problem and checks against the
    # full problem
    assert main(["verify", str(premsel_file), "--mode", "cascade"] + FIXTURE_MODEL) == 0
    out = capsys.readouterr().out
    assert "% SZS status Unsatisfiable for premsel000" in out
    assert "proof verification: PASS" in out


def test_experiment_runs_a_cascade_method(premsel_file, tmp_path):
    config = {"corpus": {"dir": str(premsel_file.parent)},
              "methods": [{"id": "casc", "mode": "cascade", "premsel_levels": [4, 8, 16, 32],
                           **MODEL_KEYS}],
              "limits": {"max_processed": 400}}
    cfg_path, out_path = tmp_path / "exp.json", tmp_path / "report.jsonl"
    cfg_path.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    report = read_report(str(out_path))
    [record] = report.records
    # the record counts every level the cascade tried: 4 + 100 + 61
    assert (record.status, record.premise_level, record.processed) == \
        ("Unsatisfiable", 16, 165)
    assert record.guidance_mode == "cascade"
    assert report.config["methods"]["casc"]["premsel_levels"] == [4, 8, 16, 32]


# The flag table of `prove` and `verify`: (flag, the arguments of a run,
# the arguments of the run with the flag changed, what the change moves).
# What moves is either a kind of printed line (see OBSERVED) or, for a
# refused value, the reason printed under `% SZS status InputError`.
# FLOOD is flood000 of the bundled corpus, PREMSEL premsel000, OTHER_MODEL a
# checkpoint for the fixture vocabulary with other weights, and
# OTHER_VOCAB a vocabulary with another hash.
HYBRID = ["FLOOD", "--mode", "hybrid"] + FIXTURE_MODEL
CASCADE = ["PREMSEL", "--mode", "cascade", "--max-processed", "400"] + FIXTURE_MODEL
FLAG_ROWS = [
    ("problem", ["FLOOD"], ["PREMSEL"], "status"),
    ("max_processed", ["FLOOD"], ["FLOOD", "--max-processed", "5"], "status"),
    ("timeout_ms", ["FLOOD"], ["FLOOD", "--timeout-ms", "0"], "status"),
    ("mode", HYBRID, HYBRID + ["--mode", "pure"], "processed"),
    ("mode", HYBRID, HYBRID + ["--mode", "cascade"], "cascade"),
    ("model", HYBRID, HYBRID + ["--model", "OTHER_MODEL"], "processed"),
    ("model", HYBRID, HYBRID + ["--model", FIXTURE_MODEL[3]], "bad magic bytes"),
    ("vocab", HYBRID, HYBRID + ["--vocab", "OTHER_VOCAB"], "vocabulary hash mismatch"),
    # Auto proves flood000 at 318 processed clauses, auto200 at 294
    ("schedule", ["FLOOD", "--max-processed", "300"],
     ["FLOOD", "--max-processed", "300", "--schedule", "auto200"], "status"),
    ("phase1_budget", HYBRID + ["--mode", "switched"],
     HYBRID + ["--mode", "switched", "--phase1-budget", "10"], "processed"),
    ("phase1_budget", HYBRID, HYBRID + ["--phase1-budget", "10"],
     "phase1_budget sets switched mode's phase 1"),
    # scores do not depend on the batch, so the search cannot show a batch size
    ("batch_size", HYBRID, HYBRID + ["--batch-size", "0"], "batch_size must be at least 1"),
    ("levels", CASCADE, CASCADE + ["--levels", "4,8,16,32"], "cascade"),
    ("derivation", ["FLOOD"], ["FLOOD", "--derivation"], "derivation"),
]
# each kind of line a flag can move, the processed line without its wall time
OBSERVED = {
    "status": lambda line: line.startswith("% SZS status"),
    "processed": lambda line: line.startswith("% processed="),
    "cascade": lambda line: line.startswith(("% ranking_hash=", "%   level=")),
    "derivation": lambda line: not line.startswith("%"),
}
PRINTED = {"prove": {"status", "processed", "cascade", "derivation"},
           "verify": {"status", "cascade"}}


def flag_rows(command: str) -> list[tuple]:
    """The rows of FLAG_ROWS whose change `command` can show."""
    return [row for row in FLAG_ROWS if row[3] not in OBSERVED or row[3] in PRINTED[command]]


@pytest.fixture(scope="module")
def flag_files(premsel_file, tmp_path_factory):
    """The files that FLAG_ROWS names, by name."""
    out = tmp_path_factory.mktemp("flags")
    flood = next(c.problem for c in desk_corpus(0) if c.name == "flood000")
    (out / "flood000.p").write_text(problem_str(flood))
    vocab = Vocabulary.load(FIXTURE_MODEL[3])
    model = load_checkpoint_file(FIXTURE_MODEL[1])
    save_checkpoint_file(init_model(replace(model.config, seed=model.config.seed + 1),
                                    vocab.hash), str(out / "other.sgnn"))
    other = Vocabulary()
    other.add("p")
    other.save(str(out / "other.txt"))
    return {"FLOOD": str(out / "flood000.p"), "PREMSEL": str(premsel_file),
            "OTHER_MODEL": str(out / "other.sgnn"), "OTHER_VOCAB": str(out / "other.txt")}


@pytest.mark.parametrize("command, flag, before, after, moves", [
    (command, *row) for command in PRINTED for row in flag_rows(command)],
    ids=[f"{command}-{row[0]}-{i}" for command in PRINTED
         for i, row in enumerate(flag_rows(command))])
def test_flag_takes_effect_or_is_refused(command, flag, before, after, moves, flag_files,
                                         capsys):
    def run(args):
        main([command] + [flag_files.get(a, a) for a in args])
        return [line.split(" wall_ms=")[0] for line in capsys.readouterr().out.splitlines()]

    lines = run(after)
    if moves not in OBSERVED:
        assert lines[0].startswith("% SZS status InputError for ") and moves in lines[1]
        assert len(lines) == 2
        return
    unchanged = run(before)
    assert not any("InputError" in line for line in unchanged + lines)
    observe = OBSERVED[moves]
    assert [ln for ln in lines if observe(ln)] != [ln for ln in unchanged if observe(ln)]


def test_flag_table_covers_every_prove_and_verify_flag():
    for command in PRINTED:
        flags = {a.dest for a in subcommands()[command]._actions} - {"help"}
        assert flags == {row[0] for row in flag_rows(command)}, command


def test_a_crash_ends_with_the_error_status(problem_file, monkeypatch, capsys):
    def crash(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "guided_prove", crash)
    assert main(["prove", problem_file]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == ["% SZS status Error for toy",
                                "% RecursionError: maximum recursion depth exceeded"]
    assert err == ""


# The status table: (subcommand, its arguments, the SZS status it prints,
# the name the status is for, a part of the reason). MISSING is a file
# that is not there, BAD a problem file that does not parse, BAD_CORPUS an
# experiment config whose corpus directory holds BAD, NO_PROOF a traces
# file whose one trace has no proof, BAD_ROW a report row that is not a
# record, UNDER_FILE a path under a regular file and OUT a writable path.
# No row searches: a trace run refuses its --out before the first search.
STATUS_ROWS = [
    ("prove", ["MISSING"], "InputError", "missing", NO_FILE),
    ("prove", ["BAD"], "SyntaxError", "bad", "expected ')', found '.'"),
    ("prove", ["BAD", "--max-processed", "-1"], "InputError", "bad", "max_processed"),
    ("verify", ["MISSING"], "InputError", "missing", NO_FILE),
    ("verify", ["BAD"], "SyntaxError", "bad", "expected ')', found '.'"),
    ("trace", ["--out", "UNDER_FILE", "--tags", "sat"], "InputError", "trace",
     "Not a directory"),
    ("train", ["--traces", "MISSING", "--out", "OUT", "--vocab-out", "OUT"], "InputError",
     "train", NO_FILE),
    ("train", ["--traces", "NO_PROOF", "--out", "OUT", "--vocab-out", "OUT"], "InputError",
     "train", "no training pairs"),
    ("eval-acc", FIXTURE_MODEL[:3] + ["MISSING", "--examples", "MISSING"], "InputError",
     "eval-acc", NO_FILE),
    ("experiment", ["--config", "MISSING", "--out", "OUT"], "InputError", "experiment",
     NO_FILE),
    ("experiment", ["--config", "BAD_CORPUS", "--out", "OUT"], "SyntaxError", "bad",
     "expected ')', found '.'"),
    ("report", ["MISSING"], "InputError", "report", NO_FILE),
    ("report", ["BAD_ROW"], "InputError", "report", "record row with missing fields"),
    ("dump-corpus", ["--out", "UNDER_FILE"], "InputError", "dump-corpus", "Not a directory"),
    ("trace", ["--out", "UNDER_FILE"], "InputError", "trace", "Not a directory"),
    ("trace", ["--out", "OUT", "--tags", "trian"], "InputError", "trace",
     "unknown corpus tags ['trian']; known: ["),
    ("dump-corpus", ["--out", "OUT", "--tag", "nosuch"], "InputError", "dump-corpus",
     "unknown corpus tags ['nosuch']; known: ["),
]


@pytest.fixture
def status_files(tmp_path):
    """The files that STATUS_ROWS names, by name."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "bad.p").write_text("cnf(a, axiom, p(a).\n")
    (tmp_path / "bad_corpus.json").write_text(json.dumps(
        {"corpus": {"dir": str(corpus)}, "methods": [{"id": "auto"}]}))
    (tmp_path / "no_proof.jsonl").write_text(json.dumps(
        {"type": "trace", "problem": "x", "status": "ResourceOut", "config_hash": "0",
         "conjecture": [], "n_clauses": 0, "resource": "processed"}) + "\n")
    (tmp_path / "bad_row.jsonl").write_text(json.dumps({"type": "record", "problem": "x"})
                                            + "\n")
    (tmp_path / "file").write_text("")
    return {"MISSING": str(tmp_path / "missing.p"), "BAD": str(corpus / "bad.p"),
            "BAD_CORPUS": str(tmp_path / "bad_corpus.json"),
            "NO_PROOF": str(tmp_path / "no_proof.jsonl"),
            "BAD_ROW": str(tmp_path / "bad_row.jsonl"),
            "UNDER_FILE": str(tmp_path / "file" / "out"), "OUT": str(tmp_path / "out")}


@pytest.mark.parametrize("command, args, status, name, reason", STATUS_ROWS,
                         ids=[f"{row[0]}-{row[2]}-{i}" for i, row in enumerate(STATUS_ROWS)])
def test_a_failed_run_ends_with_one_szs_status(command, args, status, name, reason,
                                               status_files, capsys, monkeypatch):
    def search(*args, **kw):
        raise AssertionError("a refused run searched")

    monkeypatch.setattr(datagen, "generate_traces", search)
    assert main([command] + [status_files.get(a, a) for a in args]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0] == f"% SZS status {status} for {name}" and reason in lines[1]


@pytest.mark.parametrize("command, tag", [("trace", "--tags"), ("dump-corpus", "--tag")])
def test_a_refused_corpus_filter_writes_no_file(command, tag, tmp_path):
    out = tmp_path / "out"
    assert main([command, "--out", str(out), tag, "nosuch"]) == 1
    assert not out.exists()


def test_a_refused_train_writes_no_file(status_files, tmp_path):
    vocab, examples = tmp_path / "vocab.txt", tmp_path / "examples.jsonl"
    assert main(["train", "--traces", status_files["NO_PROOF"], "--out", str(tmp_path / "m"),
                 "--vocab-out", str(vocab), "--examples-out", str(examples)]) == 1
    assert not vocab.exists() and not examples.exists()


def test_status_table_covers_every_subcommand():
    assert {row[0] for row in STATUS_ROWS} == set(subcommands())
