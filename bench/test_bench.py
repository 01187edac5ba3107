"""Self-test of the benchmark: every workload on a tiny slice.

    python3 -m pytest -q bench/test_bench.py

Checks that each mode emits every metric BENCHMARK.json names, each with
its unit; that the correctness gate rejects a corrupted proof and a wrong
verdict; and that the command refuses to run without the sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import env  # noqa: E402

env.use_checkout_sources()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402
from satguide.fol import ROLE_DERIVED, Clause  # noqa: E402
from satguide.saturation import RESOURCE_OUT, SAT, UNSAT  # noqa: E402

with open(os.path.join(env.ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def test_benchmark_json_matches_the_code():
    assert [m["name"] for m in BENCH["workloads"]] == list(w.WORKLOADS)
    gated = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert gated == {n: run.UNITS[n] for n in run.GATED}
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == tracing.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", w.WORKLOADS)
def test_tiny_slice_emits_every_metric(workload, trace):
    result = run.run_benchmark(workload, seed=0, seconds=0.01, trace=trace, limit=2)
    assert result["correct"], result["failures"]
    assert result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert result["emitted"] == [m["name"] for m in expected]
    if not trace:
        scope = {n for n, _, s in run.END_TO_END if s in ("all", "report", workload)}
        assert scope <= set(result["metrics"])
        return
    values = {k: v["value"] for k, v in result["metrics"].items()}
    self_ms = sum(v for k, v in values.items() if k.endswith("_ms") or k == "parser.ms")
    assert self_ms <= values["trace.wall_s"] * 1e3 * (1 + 1e-9)
    assert values["trace.spans"] > 0


def _proved_outcome():
    inputs, fixture = w.setup("prove_auto", 0)
    inp = next(i for i in inputs if i.expected == UNSAT)
    outcome = w.run_attempt(inp, fixture)
    assert outcome.status == UNSAT
    return outcome


def test_gate_accepts_a_sound_proof():
    assert w.judge(_proved_outcome(), UNSAT).verdict == "solved"


def test_gate_rejects_a_corrupted_proof():
    outcome = _proved_outcome()
    proof = outcome.proof
    # swap a derived clause for one its parents cannot produce
    cid = max(c for c in proof.used_ids if proof.derivation[c].parents)
    node = proof.derivation[cid]
    leaf = next(proof.derivation[c] for c in proof.used_ids
                if not proof.derivation[c].parents and proof.derivation[c].clause.literals)
    node.clause = Clause(cid, leaf.clause.literals, role=ROLE_DERIVED,
                         parents=node.parents, rule=node.rule)
    judged = w.judge(outcome, UNSAT)
    assert judged.verdict == "failed"
    assert "proof rejected" in judged.reason


def test_gate_rejects_a_wrong_verdict_and_keeps_resource_out_unsolved():
    wrong = w.Outcome(SAT, 1, 1, {})
    assert w.judge(wrong, UNSAT).verdict == "failed"
    out = w.Outcome(RESOURCE_OUT, 1, 1, {})
    assert w.judge(out, UNSAT).verdict == "unsolved"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(env.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(env.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", "prove_auto",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
