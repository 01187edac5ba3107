"""The search core's fast paths against their slow references.

On the clauses of real corpus searches: the tuple duplicate key
partitions clauses exactly as the printed string key does, the indexed
forward-subsumption check answers as a scan over every processed clause
does, the pruned subsumption test answers every query as plain
backtracking does, every pair handed to `resolve` is variable-disjoint,
and variable names stay short however deep the derivation.
"""

import pytest

import satguide.saturation as saturation
from satguide.corpus import desk_corpus
from satguide.fol import canonical_key
from satguide.rules import subsumes
from satguide.saturation import Saturation, SearchConfig
from satguide.unify import clause_variables

import oracles
from oracles import string_key

CONFIG = SearchConfig(max_processed=1200, max_generated=30_000,
                      max_clause_literals=12, max_wall_ms=None)
NAMES = ["chain017", "php_4_3", "group0_inv_applied", "flood023", "premsel000", "mini001"]


@pytest.fixture(scope="module")
def problems():
    corpus = {item.name: item.problem for item in desk_corpus(0)}
    return [corpus[name] for name in NAMES]


class ScanChecked(Saturation):
    """Answers forward subsumption from the index, and records every
    given clause on which a scan over all processed clauses disagrees."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked = 0
        self.subsumed = 0
        self.mismatches = []

    def _forward_subsumed(self, g):
        fast = super()._forward_subsumed(g)
        slow = any(subsumes(p, g) for p in self.processed)
        self.checked += 1
        self.subsumed += slow
        if fast != slow:
            self.mismatches.append(g.id)
        return fast


@pytest.fixture(scope="module")
def resolved_pairs():
    """For each pair the searches hand to `resolve`: are they disjoint?"""
    return []


@pytest.fixture(scope="module")
def subsumption_answers():
    """For each forward-subsumption query: (pruned answer, reference answer)."""
    return []


@pytest.fixture(scope="module")
def searches(problems, resolved_pairs, subsumption_answers):
    inner = saturation.resolve

    def checked(c1, c2):
        resolved_pairs.append(not clause_variables(c1) & clause_variables(c2))
        return inner(c1, c2)

    def compared(p, g):
        fast = subsumes(p, g)
        subsumption_answers.append((fast, oracles.subsumes(p, g)))
        return fast

    states = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(saturation, "resolve", checked)
        mp.setattr(saturation, "subsumes", compared)
        for p in problems:
            state = ScanChecked(p, CONFIG)
            state.run()
            states.append(state)
    return states


def test_tuple_key_partitions_like_string_key(searches):
    pairs = {(string_key(n.clause), canonical_key(n.clause))
             for state in searches for n in state.nodes.values()}
    by_string, by_tuple = {}, {}
    for s, t in pairs:
        by_string.setdefault(s, set()).add(t)
        by_tuple.setdefault(t, set()).add(s)
    assert len(by_string) > 1000
    assert all(len(v) == 1 for v in by_string.values())
    assert all(len(v) == 1 for v in by_tuple.values())


def test_index_agrees_with_scan(searches):
    assert sum(s.checked for s in searches) > 1000
    assert sum(s.subsumed for s in searches) > 0
    assert [s.mismatches for s in searches] == [[] for _ in searches]


def test_pruned_subsumption_agrees_with_backtracking(searches, subsumption_answers):
    assert len(subsumption_answers) > 1000
    assert sum(fast for fast, _ in subsumption_answers) > 0
    assert sum(not fast for fast, _ in subsumption_answers) > 0
    assert all(fast == slow for fast, slow in subsumption_answers)


def test_resolved_pairs_are_variable_disjoint(searches, resolved_pairs):
    assert len(resolved_pairs) > 1000 and all(resolved_pairs)


def test_variable_names_do_not_grow_with_depth(searches):
    longest: dict[int, int] = {}  # derivation depth -> longest variable name
    for state in searches:
        depth: dict[int, int] = {}
        for cid in sorted(state.nodes):
            node = state.nodes[cid]
            d = 1 + max((depth[p] for p in node.parents), default=-1)
            depth[cid] = d
            names = [len(v.name) for v in clause_variables(node.clause)]
            longest[d] = max(longest.get(d, 0), *names, 0)
    assert max(longest) >= 8
    assert max(longest[d] for d in longest if d >= 2) <= longest[1]
