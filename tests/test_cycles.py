"""The search and the corpus build make no reference cycles, and
`Saturation.run` and each corpus problem's build pause the cyclic garbage
collector and restore it on every exit."""

import gc
from contextlib import nullcontext

import numpy as np
import pytest

from satguide import corpus
from satguide.corpus import chain_problem, desk_corpus, junk_distractors, plain_distractors
from satguide.datagen import TrainingExample, build_vocabulary
from satguide.fol import clause_str, normalize_variables
from satguide.guidance import GuidanceConfig, guided_prove
from satguide.neural.models import ModelConfig, init_model
from satguide.parser import parse_tptp
from satguide.saturation import (
    LIMIT,
    UNSAT,
    Saturation,
    SearchConfig,
    prove,
    verify_proof_detailed,
)


def equality_problem():
    return parse_tptp(
        "cnf(left_id, axiom, (mul(e, X) = X))."
        "fof(goal, conjecture, a = mul(e, a)).",
        name="eq")


def flooded():
    junk = junk_distractors(list(range(6)), "rel0")
    return chain_problem("flood", "rel0", [f"c{i}" for i in range(5)], 4, junk)


def premise_problem():
    return chain_problem("pp", "rel0", [f"c{i}" for i in range(5)], 4,
                         plain_distractors(list(range(6))))


def tiny_model(problem, arch):
    examples = [
        TrainingExample(clause_str(normalize_variables(c)),
                        [clause_str(normalize_variables(nc)) for nc in problem.negated_conjecture],
                        1, problem.name, c.id)
        for c in problem.clauses()
    ]
    vocab = build_vocabulary(examples)
    model = init_model(ModelConfig(arch=arch, vocab_size=len(vocab), dim=8, hidden=8, seed=0),
                       vocab_hash=vocab.hash)
    rng = np.random.default_rng(17)
    for p in model.params.values():
        p.data = rng.uniform(-0.3, 0.3, p.data.shape)
    model.quantize()
    return model, vocab


def every_mode():
    """One run of each search mode; returns the count of phase-2 runs."""
    eq = equality_problem()
    result = prove(eq, SearchConfig())
    assert result.status == UNSAT
    assert verify_proof_detailed(result.proof, eq)[0]

    problem = flooded()
    limits = SearchConfig(max_processed=60, max_wall_ms=None)
    switched = 0
    for arch in ("cnn", "tree_rnn", "tree_lstm"):
        model, vocab = tiny_model(problem, arch)
        for mode in ("pure", "hybrid"):
            guided_prove(problem, GuidanceConfig(mode=mode, model=model, vocab=vocab), limits)
        r = guided_prove(problem, GuidanceConfig(mode="switched", model=model, vocab=vocab,
                                                 phase1_budget=2), limits)
        switched += r.info["finished_in_phase"] == 2

    premises = premise_problem()
    model, vocab = tiny_model(premises, "cnn")
    guided_prove(premises, GuidanceConfig(mode="cascade", model=model, vocab=vocab,
                                          premsel_levels=(2, 100)),
                 SearchConfig(max_processed=300))
    return switched


def cyclic_garbage(work):
    """Run `work()` with the collector paused; returns its result and what
    a full collection then finds: the count and the type names."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = work()
        found = gc.collect()
        garbage = [type(o).__qualname__ for o in gc.garbage]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    return result, found, garbage


def test_search_makes_no_reference_cycles():
    switched, found, garbage = cyclic_garbage(every_mode)
    assert switched == 3  # phase 2 ran for every architecture
    assert found == 0 and garbage == []


def search():
    """A search that runs until its cap of 300 processed clauses."""
    problem = parse_tptp(
        "cnf(a, axiom, (p(a))). cnf(b, axiom, (~p(X) | p(f(X))))."
        "cnf(c, axiom, (~p(X) | p(g(X)))). cnf(g, negated_conjecture, (~q(a))).",
        name="endless")
    return Saturation(problem, SearchConfig(max_processed=300, max_wall_ms=None))


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_collector(enabled):
    state = search()
    seen = []
    step = state.step

    def spy():
        seen.append(gc.isenabled())
        return step()

    state.step = spy
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        state.run()
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen and not any(seen)  # paused while searching
    assert after == enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_collector_when_a_step_raises(enabled, monkeypatch):
    state = search()

    def boom():
        raise RuntimeError("boom")

    monkeypatch.setattr(state.schedule, "pop_next", boom)
    was, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(RuntimeError, match="boom"):
            state.run()
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert after == enabled
    assert gc.get_freeze_count() == frozen


def test_run_keeps_a_callers_frozen_objects_frozen():
    state = search()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        state.run()
        after = gc.get_freeze_count()
    finally:
        gc.unfreeze()
    assert after == frozen


def test_run_hands_its_objects_to_the_oldest_generation():
    state = search()
    assert state.run() == LIMIT and len(state.processed) == 300
    assert gc.get_count()[0] < gc.get_threshold()[0]


def read_every_problem(seed: int = 0) -> list:
    """Build every problem of `desk_corpus(seed)` by reading it."""
    return [item.problem for item in desk_corpus(seed)]


def test_desk_corpus_makes_no_reference_cycles():
    size, found, garbage = cyclic_garbage(lambda: len(read_every_problem()))
    assert size > 100
    assert found == 0 and garbage == []


def spy_on_chains(monkeypatch, raises: bool) -> list[bool]:
    """Record the collector state at each chain problem that a read of a
    `desk_corpus` problem builds, raising at the first one if `raises`."""
    seen = []
    build = corpus.chain_problem

    def spy(*args, **kw):
        seen.append(gc.isenabled())
        if raises:
            raise RuntimeError("boom")
        return build(*args, **kw)

    monkeypatch.setattr(corpus, "chain_problem", spy)
    return seen


@pytest.mark.parametrize("raises", [False, True])
@pytest.mark.parametrize("enabled", [True, False])
def test_desk_corpus_restores_the_collector(enabled, raises, monkeypatch):
    seen = spy_on_chains(monkeypatch, raises)
    was, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(RuntimeError, match="boom") if raises else nullcontext():
            read_every_problem()
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen and not any(seen)  # paused while building
    assert after == enabled
    assert gc.get_freeze_count() == frozen


def is_frozen(obj) -> bool:
    """A frozen object is in no generation, so `gc.get_objects` skips it."""
    return gc.is_tracked(obj) and not any(o is obj for o in gc.get_objects())


@pytest.mark.parametrize("raises", [False, True])
def test_desk_corpus_keeps_a_callers_frozen_objects_frozen(raises, monkeypatch):
    spy_on_chains(monkeypatch, raises)
    callers = [object()]
    gc.freeze()
    try:
        assert is_frozen(callers)
        with pytest.raises(RuntimeError, match="boom") if raises else nullcontext():
            read_every_problem()
        still = is_frozen(callers)
    finally:
        gc.unfreeze()
    assert still


def test_desk_corpus_hands_its_problems_to_the_oldest_generation():
    was = gc.isenabled()
    gc.disable()  # no collection may empty the youngest generation instead
    try:
        problems = read_every_problem()
        young = gc.get_count()[0]
    finally:
        if was:
            gc.enable()
    assert len(problems) > 100
    assert young < gc.get_threshold()[0]


def test_reading_one_problem_builds_it_paused(monkeypatch):
    seen = spy_on_chains(monkeypatch, raises=False)
    item = next(item for item in desk_corpus(0) if item.family == "chain")
    assert seen == []  # the call builds nothing
    was, frozen = gc.isenabled(), gc.get_freeze_count()
    gc.enable()
    try:
        problem = item.problem
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]  # one build, paused
    assert after and gc.get_freeze_count() == frozen
    assert problem.name == item.name
