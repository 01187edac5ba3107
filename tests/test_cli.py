"""CLI smoke tests through main()."""

import json

import pytest

from satguide.cli import build_parser, main
from satguide.corpus import chain_problem, junk_distractors
from satguide.fol import problem_str
from satguide.harness import read_report


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
    junk = junk_distractors(list(range(6)), "rel0", "c0")
    path = tmp_path / "flood.p"
    path.write_text(problem_str(chain_problem("flood", "rel0", [f"c{i}" for i in range(5)],
                                              4, junk)))
    counts = {}
    for spec in ("auto", "1*fifo", "1*symcount(2,1)"):
        assert main(["prove", str(path), "--schedule", spec, "--max-processed", "100"]) == 0
        counts[spec] = capsys.readouterr().out.splitlines()[1].rsplit(" ", 1)[0]
    assert len(set(counts.values())) == 3, counts


def test_trace_defaults_to_clause_limits():
    args = build_parser().parse_args(["trace", "--out", "t.jsonl"])
    assert args.timeout_ms is None


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

    if examples.exists() and examples.stat().st_size > 0:
        rc = main(["eval-acc", "--model", str(model), "--vocab", str(vocab),
                   "--examples", str(examples)])
        assert rc == 0
        assert "balanced accuracy" in capsys.readouterr().out


def test_experiment_and_report(tmp_path, capsys):
    config = {
        "corpus": {"seed": 0, "families": ["mini"]},
        "methods": [{"id": "auto", "mode": "auto"}],
        "limits": {"max_processed": 200, "max_generated": 5_000},
        "seed": 0,
    }
    cfg_path = tmp_path / "exp.json"
    out_path = tmp_path / "report.jsonl"
    for where, key in (("limits", "max_clauses"), ("methods", "phase1_msec")):
        bad = json.loads(json.dumps(config))
        entry = bad[where][0] if where == "methods" else bad[where]
        entry[key] = 100
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
