"""The names the benchmark's span tracer patches still exist, and are
still called.

`bench/tracing.py` wraps satguide functions and methods by name, in every
module that imports them, and fails on a name that is gone. The benchmark
lives outside `tests/`, so this test installs the tracer, runs a guided
search, a premise cascade and a training step under it, and uninstalls it
again. A second test traces an unguided Auto search and checks that every
search-core span and the unifier counter record calls: a refactor that
routes the search around a spanned name would otherwise read as a zero
in the benchmark's per-layer split. A third checks that the search keys
every clause it inserts, so that the benchmark's duplicate ratio lies in
[0, 1).
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from satguide import guidance, premsel
from satguide.guidance import GuidanceConfig, guided_prove
from satguide.neural.models import ModelConfig, PairInput, init_model, loss_and_grads
from satguide.neural.tensor import Tensor
from satguide.parser import parse_tptp
from satguide import saturation
from satguide.corpus import desk_corpus
from satguide.saturation import SearchConfig
from satguide.tokens import Vocabulary

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# names that the guided workload's per-layer split is built from
NAMES = [
    (guidance, "embed_sequence"), (guidance, "embed_sequences"),
    (premsel, "embed_sequence"), (guidance, "combiner_logit"),
    (premsel, "combiner_logit"), (guidance, "tokenize"),
    (guidance, "tokenize_conjecture"), (premsel, "tokenize_texts"),
    (Tensor, "backward"),
]

PROBLEM = """
fof(a1, axiom, ![X]: (p(X) => q(f(X)))).
cnf(a2, axiom, (p(a))).
cnf(a3, axiom, (r(b) | ~s(b))).
fof(goal, conjecture, ?[X]: q(X)).
"""


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("satguide_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_every_name_and_uninstall_restores(tracing):
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in tracing.SPANS]
    assert {(owner, attr) for owner, attr in NAMES} <= {(o, a) for o, a, _ in originals}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr, original in originals:
            assert getattr(owner, attr).__wrapped__ is original, attr

        problem = parse_tptp(PROBLEM, name="traced")
        vocab = Vocabulary()
        for token in ["~", "p", "q", "r", "s", "f", "(", ")", "|", "a", "b", "V1"]:
            vocab.add(token)
        model = init_model(ModelConfig(arch="cnn", vocab_size=len(vocab), dim=4, hidden=4),
                           vocab.hash)
        result = guided_prove(problem, GuidanceConfig(mode="hybrid", model=model, vocab=vocab),
                              SearchConfig(max_processed=50))
        assert result.info["network_evals"] > 0
        cascade = guided_prove(problem, GuidanceConfig(mode="cascade", model=model,
                                                       vocab=vocab, premsel_levels=(1, 3)),
                               SearchConfig(max_processed=50))
        assert cascade.info["network_evals"] > 0
        pair = PairInput(clause=[3, 4, 5], conj=[6, 7], label=1)
        loss_and_grads([pair], model, train_mode=True, rng=np.random.default_rng(0))
    finally:
        tracer.uninstall()

    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr
    totals = tracer.totals()
    for name in ("saturation", "guidance.score_batch", "tokens.tokenize", "neural.embed",
                 "neural.combiner", "premsel.rank", "premsel.cascade", "neural.forward",
                 "neural.backward"):
        assert totals[name]["calls"] > 0, name


# spans and counters of the search core that an Auto search must reach
SEARCH_SPANS = ["rules.resolve", "rules.factor", "rules.tautology", "rules.subsumes",
                "fol.canonical_key", "heuristics.insert", "heuristics.pop"]


@pytest.fixture(scope="module")
def traced_auto(tracing):
    """A traced unguided Auto search: the problem, its result and the tracer."""
    problem = next(item.problem for item in desk_corpus(0) if item.name == "flood023")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = saturation.prove(problem, SearchConfig(max_processed=200, max_wall_ms=None))
    finally:
        tracer.uninstall()
    return problem, result, tracer


def test_auto_search_reaches_every_search_core_span(traced_auto):
    _, result, tracer = traced_auto
    assert result.processed_count > 0
    totals = tracer.totals()
    for name in SEARCH_SPANS:
        assert totals.get(name, {"calls": 0})["calls"] > 0, name
    assert tracer.counts["unify.calls"] > 0


def test_every_inserted_clause_is_keyed(tracing, traced_auto):
    # input and derived clauses alike pass through the one key walk before
    # they are inserted, so the bench's duplicate ratio is a share of keys
    problem, _, tracer = traced_auto
    totals = tracer.totals()
    keys, inserts = totals["fol.canonical_key"]["calls"], totals["heuristics.insert"]["calls"]
    assert inserts > len(problem.clauses()) and keys >= inserts
    work = {"attempts": 1, "chars": 0, "clause_evals": 0, "batch_calls": 0}
    ratio = tracing.layer_metrics(tracer, "saturation", work, 0.0)["fol.duplicate_ratio"]
    assert 0.0 <= ratio < 1.0
    assert ratio == 1.0 - inserts / keys
