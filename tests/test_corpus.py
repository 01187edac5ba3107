"""The bundled corpus, pinned byte for byte.

`CORPUS_PIN` hashes the name, family, sorted tags and printed TPTP of
every problem of `desk_corpus(0)` to `desk_corpus(4)`, as the corpus was
built before it shared distractor families between problems. A change
that is meant to alter only how fast the corpus is built must leave it as
it is.

The other tests hold the corpus to building each problem on first read:
a call builds nothing, a read builds one problem once (or one group
index's three), and what a problem prints does not depend on which
problems were read before it, or on another call. Within a call, a junk
family's relation-free tail is built once and its literals are shared by
every problem that names the family, whatever its relation; two calls
share no literal.
"""

import hashlib

import pytest

from satguide import corpus
from satguide.corpus import NamedProblem, chain_problem, desk_corpus
from satguide.fol import problem_str

CORPUS_PIN = "b0dec3d10d1cb94cece988069ee198cd73820a38d0e6160c749a66d94a956980"


def printed(seed: int) -> list[str]:
    return ["\0".join([item.name, item.family, ",".join(sorted(item.tags)),
                       problem_str(item.problem)])
            for item in desk_corpus(seed)]


def test_corpus_pinned():
    h = hashlib.sha256()
    for seed in range(5):
        for text in printed(seed):
            h.update(text.encode())
    assert h.hexdigest() == CORPUS_PIN


def test_no_state_carries_across_calls():
    assert printed(1) == printed(1)


def spy(monkeypatch, name: str) -> list[tuple]:
    """Record the arguments of every call to `corpus.<name>`."""
    calls = []
    build = getattr(corpus, name)

    def record(*args, **kw):
        calls.append(args)
        return build(*args, **kw)

    monkeypatch.setattr(corpus, name, record)
    return calls


def test_reading_the_minis_builds_only_the_minis(monkeypatch):
    junk = spy(monkeypatch, "junk_tail")
    built = spy(monkeypatch, "build_problem")
    items = desk_corpus(0)
    assert built == []  # the call builds nothing
    minis = [item.problem for item in items if item.family == "mini"]
    assert len(minis) == 24
    assert [args[0] for args in built] == [p.name for p in minis]
    assert junk == []


def test_a_problem_is_built_once_and_named_as_its_item():
    for item in desk_corpus(0):
        assert item.problem is item.problem
        assert item.problem.name == item.name


def test_reading_order_does_not_change_a_problem():
    items = desk_corpus(1)
    backwards = [problem_str(item.problem) for item in reversed(items)][::-1]
    assert backwards == [problem_str(item.problem) for item in desk_corpus(1)]


def test_calls_share_no_problem():
    first, second = desk_corpus(0), desk_corpus(0)
    for a, b in zip(first, second):
        assert a.problem is not b.problem
        assert problem_str(a.problem) == problem_str(b.problem)


def junk_tails(problem) -> dict[str, tuple]:
    """The literal tuples of a problem's relation-free junk clauses, by
    origin."""
    return {c.origin: c.literals for c in problem.axioms
            if c.origin.startswith("jk") and not c.origin.endswith("_seed")}


def goal_relation(problem) -> str:
    return problem.negated_conjecture[0].literals[0].pred.name


def test_junk_tails_are_shared_within_a_call_and_not_across_calls():
    first, second = desk_corpus(0), desk_corpus(0)
    premsel = [item.problem for item in first if item.family == "premsel"]
    a = premsel[0]
    b = next(p for p in premsel if goal_relation(p) != goal_relation(a))
    common = junk_tails(a).keys() & junk_tails(b).keys()
    assert len(common) > 50
    assert all(junk_tails(a)[o] is junk_tails(b)[o] for o in common)
    seeds_a, seeds_b = ({c.origin: c.literals for c in p.axioms if c.origin.endswith("_seed")}
                        for p in (a, b))
    shared = seeds_a.keys() & seeds_b.keys()
    assert shared and all(seeds_a[o] != seeds_b[o] for o in shared)  # one seed per relation
    again = next(item.problem for item in second if item.name == a.name)
    assert problem_str(again) == problem_str(a)
    ids = {id(lit) for c in a.clauses() for lit in c.literals}
    assert not ids & {id(lit) for c in again.clauses() for lit in c.literals}


def test_reading_every_premsel_problem_builds_each_tail_once(monkeypatch):
    tails = spy(monkeypatch, "junk_tail")
    seeds = spy(monkeypatch, "junk_seed")
    premsel = [item.problem for item in desk_corpus(0) if item.family == "premsel"]
    assert len(premsel) == 22
    assert len(tails) == len({m for m, _ in tails}) <= 48
    assert len(seeds) == len(set(seeds)) < 22 * 40


def test_a_build_that_raises_stores_nothing():
    outcomes = [RuntimeError("boom"), chain_problem("c", "rel0", ["c0", "c1", "c2"], 2)]

    def build():
        outcome = outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    item = NamedProblem("c", "chain", set(), build)
    with pytest.raises(RuntimeError, match="boom"):
        item.problem
    assert item.problem.name == "c"  # the builder was kept and ran again
    assert item.problem is item.problem and outcomes == []
