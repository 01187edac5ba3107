"""The given-clause loop, statuses, proofs, and the verifier."""

from dataclasses import fields, replace

import pytest

import satguide.fol as fol
import satguide.saturation as saturation
from satguide.corpus import desk_corpus
from satguide.datagen import trace_problem
from satguide.fol import Clause, clause_str
from satguide.guidance import GuidanceConfig, guided_prove
from satguide.heuristics import ConjectureRelativeWeightFn, parse_schedule
from satguide.parser import parse_clause_text, parse_tptp
from satguide.saturation import (
    Proof,
    ProofNode,
    RESOURCE_OUT,
    SAT,
    Saturation,
    SearchConfig,
    UNSAT,
    derivation_lines,
    equality_axioms,
    prove,
    szs_line,
    verify_proof_detailed,
)
from satguide.tokens import Vocabulary

import oracles
from oracles import bfs_saturate


def fifo_config(**kw):
    return SearchConfig(schedule="1*fifo", **kw)


class TestProve:
    def test_one_step_contradiction(self):
        p = parse_tptp(
            "cnf(a, axiom, (p(a))). cnf(g, negated_conjecture, (~p(a))).")
        r = prove(p, fifo_config())
        assert r.status == UNSAT and r.proof is not None
        assert r.processed_count <= 3

    def test_satisfiable_saturation(self):
        p = parse_tptp(
            "cnf(a, axiom, (p(a))). cnf(g, negated_conjecture, (~q(b))).")
        r = prove(p, fifo_config())
        assert r.status == SAT and r.proof is None

    def test_processed_cap_zero(self):
        p = parse_tptp(
            "cnf(a, axiom, (p(a))). cnf(g, negated_conjecture, (~p(a))).")
        r = prove(p, fifo_config(max_processed=0))
        assert r.status == RESOURCE_OUT and r.resource == "processed"

    def test_generated_cap(self):
        # p(a), p(X) -> p(f(X)) generates forever; the goal stays out of reach
        p = parse_tptp(
            "cnf(a, axiom, (p(a)))."
            "cnf(b, axiom, (~p(X) | p(f(X))))."
            "cnf(g, negated_conjecture, (~q(b))).")
        r = prove(p, fifo_config(max_generated=5, max_processed=None))
        assert r.status == RESOURCE_OUT and r.resource == "generated"

    def test_clause_size_cap_never_claims_satisfiable(self):
        # capping drops clauses, so exhaustion must not report Satisfiable
        p = parse_tptp(
            "cnf(a, axiom, (p(X) | q(X) | r(X)))."
            "cnf(b, axiom, (~p(a) | s(a) | t(a)))."
            "cnf(g, negated_conjecture, (~z(c))).")
        r = prove(p, fifo_config(max_clause_literals=2, max_processed=None))
        assert r.status == RESOURCE_OUT and r.resource == "clause_size"

    def test_clause_size_cap_keeps_short_proofs(self, socrates):
        r = prove(socrates, fifo_config(max_clause_literals=3))
        assert r.status == UNSAT and verify_proof_detailed(r.proof, socrates)[0]

    def test_empty_clause_in_input(self):
        p = parse_tptp("cnf(a, axiom, $false). cnf(g, negated_conjecture, (~p(a))).")
        for cfg in (fifo_config(), fifo_config(max_processed=0, max_generated=0)):
            r = prove(p, cfg)  # a proof wins over any limit
            assert r.status == UNSAT and r.processed_count == 0

    def test_monotone_ids(self, socrates):
        r = prove(socrates, fifo_config())
        for node in r.proof.derivation.values():
            for parent in node.parents:
                assert parent < node.clause.id

    def test_pigeonhole_small(self):
        from satguide.corpus import pigeonhole_problem

        r = prove(pigeonhole_problem(1), fifo_config())
        assert r.status == UNSAT
        assert r.processed_count <= 20

    def test_selection_recording(self, socrates):
        cfg = fifo_config(record_selections=True)
        r = prove(socrates, cfg)
        assert r.selections is not None
        assert len(r.selections) == r.processed_count

    def test_szs_line(self, socrates):
        r = prove(socrates, fifo_config())
        assert szs_line(r, "socrates") == "% SZS status Unsatisfiable for socrates"

    def test_derivation_dump_format(self, socrates):
        r = prove(socrates, fifo_config())
        lines = derivation_lines(r.proof)
        assert any("rule=res" in l for l in lines)
        assert all("<-" in l for l in lines)
        assert lines[-1].split(". ", 1)[1].startswith("$false")

    def test_derivation_rule_is_the_clause_rule(self):
        # a user axiom whose name starts like an equality axiom's is an input
        p = parse_tptp("cnf(eq_mine, axiom, (p(a))). cnf(g, negated_conjecture, (~p(a))).")
        lines = derivation_lines(prove(p, fifo_config()).proof)
        assert lines[0] == "0. p(a) <- [] rule=input"
        assert not any("eq_axiom" in line for line in lines)
        # the injected equality axioms carry their own rule
        p = parse_tptp("cnf(eq_mine, axiom, (a = b)). cnf(g, negated_conjecture, (b != a)).")
        r = prove(p, SearchConfig())
        lines = derivation_lines(r.proof)
        assert "0. a = b <- [] rule=input" in lines
        assert any(line.endswith("rule=eq_axiom") for line in lines)
        assert verify_proof_detailed(r.proof, p)[0]


class TestGivenClauseStep:
    def test_saturated_on_empty_queue(self):
        p = parse_tptp("cnf(a, axiom, (p(a))). cnf(g, negated_conjecture, (~q(a))).")
        state = Saturation(p, fifo_config())
        assert state.step() == "continue"
        assert state.step() == "continue"
        assert state.step() == "saturated"

    def test_no_partner_moves_to_processed(self):
        p = parse_tptp("cnf(a, axiom, (p(a))). cnf(g, negated_conjecture, (~q(a))).")
        state = Saturation(p, fifo_config())
        state.step()
        assert len(state.processed) == 1

    def test_proof_found(self):
        p = parse_tptp("cnf(a, axiom, (p(a))). cnf(g, negated_conjecture, (~p(a))).")
        state = Saturation(p, fifo_config())
        outcomes = [state.step() for _ in range(2)]
        assert "proof" in outcomes

    def test_forward_subsumed_given_discarded(self):
        p = parse_tptp(
            "cnf(a, axiom, (p(X)))."
            "cnf(b, axiom, (p(a) | q(b)))."
            "cnf(g, negated_conjecture, (~r(c))).")
        state = Saturation(p, fifo_config())
        while state.step() == "continue":
            pass
        assert state.discarded_given >= 1
        assert all(clause_str(c) != "p(a) | q(b)" for c in state.processed)

    def test_selection_events_match_pick_accounting(self):
        p = parse_tptp(
            "cnf(a, axiom, (p(X)))."
            "cnf(b, axiom, (p(a) | q(b)))."
            "cnf(g, negated_conjecture, (~r(c))).")
        state = Saturation(p, fifo_config())
        while state.step() == "continue":
            pass
        assert len(state.processed) + state.discarded_given == sum(state.schedule.pick_counts)


def test_tautological_input_never_processed():
    # derived clauses are checked on admission; inputs only when popped
    p = parse_tptp(
        "cnf(t, axiom, (p(a) | ~p(a)))."
        "cnf(b, axiom, (q(b)))."
        "cnf(g, negated_conjecture, (~r(c))).")
    assert "p(a) | ~p(a)" in [clause_str(c) for c in p.clauses()]
    state = Saturation(p, fifo_config())
    while state.step() == "continue":
        pass
    assert state.discarded_given == 1
    assert [clause_str(c) for c in state.processed] == ["q(b)", "~r(c)"]


def test_capped_tautology_makes_saturation_lossy():
    # admission checks the size cap before the tautology test: both
    # resolvents here are tautologies with two literals
    p = parse_tptp(
        "cnf(a, axiom, (p(a) | q(a)))."
        "cnf(b, negated_conjecture, (~p(a) | ~q(a))).")
    capped = prove(p, SearchConfig(max_clause_literals=1))
    assert (capped.status, capped.resource) == (RESOURCE_OUT, "clause_size")
    free = prove(p, SearchConfig())
    assert free.status == SAT and free.generated_count == 2
    # the dropped resolvents took ids 2 and 3 but became no clause or node
    assert sorted(free.state.clauses) == [0, 1] and free.state.next_id == 4


def _search_counting_records(monkeypatch, name: str):
    """A 300-step search of corpus problem `name`, and the class strings
    of the symbol records it built, in order."""
    built = []

    class CountedRecord(fol.SymbolRecord):
        __slots__ = ()

        def __init__(self, classes):
            super().__init__(classes)
            built.append(classes)

    monkeypatch.setattr(fol, "SymbolRecord", CountedRecord)
    monkeypatch.setattr(saturation, "SymbolRecord", CountedRecord)
    problem = next(item.problem for item in desk_corpus(0) if item.name == name)
    state = Saturation(problem, SearchConfig(max_processed=300, max_wall_ms=None))
    state.run()
    return state, built


def test_one_symbol_record_per_class_string(monkeypatch):
    # admission builds one symbol record per distinct class string of the
    # search; every stored clause with those classes shares it, and every
    # weight reads it: none is built again
    state, built = _search_counting_records(monkeypatch, "flood023")
    stored = [c for c in state.clauses.values() if c.symbols is not None]
    assert len(stored) > 1000
    assert len(built) == len(set(built)) == len(state.records) < len(stored) / 10
    for c in stored:
        classes = fol.canonical_key(c.literals, state.conj_symbols)[1]
        assert c.symbols is state.records[classes]
        assert c.symbols.classes == classes
    # a renamed processed copy shares its clause's record
    assert all(p.symbols is state.clauses[p.id].symbols for p in state.processed)


def test_searches_share_no_symbol_record(monkeypatch):
    # the table belongs to one search: two problems with different
    # conjectures, whose clauses have class strings in common, share no
    # record object
    first, _ = _search_counting_records(monkeypatch, "flood023")
    second, built = _search_counting_records(monkeypatch, "flood024")
    assert first.conj_symbols != second.conj_symbols
    assert set(first.records) & set(second.records)
    assert len(built) == len(second.records)  # its own, shared classes included
    assert not {id(r) for r in first.records.values()} & \
        {id(r) for r in second.records.values()}


def test_a_shared_record_never_shares_a_tier():
    # an axiom and a negated conjecture clause with one class string share
    # their record and so every symbol weight, bit for bit, but each keeps
    # its own tier: they differ in role and in goal descent
    p = parse_tptp("cnf(a, axiom, (p(X) | q(a))). "
                   "cnf(g, negated_conjecture, (~p(Y) | ~q(a))).")
    state = Saturation(p, SearchConfig(
        schedule="1*conjrel(2,1,0.1,sos),1*conjrel(2,1,0.1,nongoals),"
                 "1*conjrel(3,2,0.5),1*symcount(3,2,sos),1*symcount(2,1,nongoals)"))
    axiom, goal = state.clauses[0], state.clauses[1]
    assert (axiom.role, axiom.goal_descendant) == ("axiom", False)
    assert (goal.role, goal.goal_descendant) == ("negated_conjecture", True)
    assert axiom.symbols is goal.symbols and len(state.records) == 1
    tiers = {"sos": [1, 0], "nongoals": [0, 1], "const": [0, 0]}
    for entry in state.schedule.entries:
        fn = entry.fn
        both = fn.batch_keys([axiom, goal])
        alone = fn.batch_keys([goal]) + fn.batch_keys([axiom])
        assert [t for t, _ in both] == tiers[fn.tier]
        assert [t for t, _ in alone] == tiers[fn.tier][::-1]
        weights = {float(w).hex() for _, w in both + alone}
        if isinstance(fn, ConjectureRelativeWeightFn):
            ref = oracles.conjecture_relative_weight(axiom, state.conj_symbols,
                                                     fn.base_fw, fn.base_vw,
                                                     fn.conj_multiplier)
        else:
            fp, v = oracles.symbol_counts(axiom)
            ref = fn.fweight * fp + fn.vweight * v
        assert weights == {float(ref).hex()}, fn


@pytest.mark.parametrize("spec", ["1*conjrel(2,1,0.1,sos),1*fifo", "auto200"])
def test_parsed_schedule_gives_the_search_its_spec_gives(spec):
    # a schedule is plain data: handed over built, it weighs the conjecture
    # symbols of the problem it searches, as the spec string does
    config = SearchConfig(schedule=spec, max_processed=200, max_wall_ms=None,
                          record_selections=True)
    checked = 0
    for item in desk_corpus(0)[:24]:
        by_spec = prove(item.problem, config)
        built = prove(item.problem, config, parse_schedule(spec))
        assert (built.status, built.processed_count, built.generated_count) == \
            (by_spec.status, by_spec.processed_count, by_spec.generated_count), item.name
        assert built.selections == by_spec.selections, item.name
        checked += bool(item.problem.conjecture_symbols())
    assert checked >= 20


class TestUsedSet:
    def test_positives_and_negatives(self):
        p = parse_tptp(
            "cnf(a, axiom, (p(a)))."
            "cnf(b, axiom, (q(b)))."          # processed, unused
            "cnf(c, axiom, (r(c)))."          # processed, unused
            "cnf(g, negated_conjecture, (~p(a))).")
        processed = [c for c in trace_problem(p, fifo_config()).clauses if c.processed]
        pos_strs = {c.text for c in processed if c.used}
        assert "p(a)" in pos_strs and "~p(a)" in pos_strs
        assert {c.text for c in processed if not c.used} <= {"q(b)", "r(c)"}

    def test_all_used(self):
        p = parse_tptp(
            "cnf(a, axiom, (p(a))). cnf(g, negated_conjecture, (~p(a))).")
        processed = [c for c in trace_problem(p, fifo_config()).clauses if c.processed]
        assert processed and all(c.used for c in processed)


class TestVerifier:
    def test_accepts_own_proofs(self, socrates):
        r = prove(socrates, fifo_config())
        ok, reason = verify_proof_detailed(r.proof, socrates)
        assert ok, reason

    def test_rejects_forged_resolvent(self):
        p = parse_tptp(
            "cnf(a, axiom, (p(a))). cnf(b, axiom, (~p(a) | q(a)))."
            "cnf(g, negated_conjecture, (~q(a))).")
        r = prove(p, fifo_config())
        proof = r.proof
        # forge: replace a derived clause with q(b)
        forged_id = next(
            cid for cid, node in proof.derivation.items() if node.rule == "res"
        )
        node = proof.derivation[forged_id]
        fake = Clause(forged_id, parse_clause_text("q(b)"), role="derived",
                      parents=node.parents, rule="res")
        proof.derivation[forged_id] = ProofNode(fake, node.parents, "res")
        assert not verify_proof_detailed(proof, p)[0]

    def test_rejects_foreign_leaf(self, socrates):
        r = prove(socrates, fifo_config())
        proof = r.proof
        leaf_id = next(
            cid for cid, node in proof.derivation.items() if node.rule == "input"
        )
        fake = Clause(leaf_id, parse_clause_text("alien(z)"), role="axiom")
        proof.derivation[leaf_id] = ProofNode(fake, (), "input")
        assert not verify_proof_detailed(proof, socrates)[0]

    def test_rejects_cyclic_ids(self, socrates):
        r = prove(socrates, fifo_config())
        proof = r.proof
        res_id = next(cid for cid, n in proof.derivation.items() if n.rule == "res")
        node = proof.derivation[res_id]
        bad = ProofNode(node.clause, (max(proof.used_ids) + 5,), "res")
        proof.derivation[res_id] = bad
        assert not verify_proof_detailed(proof, socrates)[0]


class TestEqualityAxioms:
    def test_injected_only_when_needed(self):
        p = parse_tptp("cnf(a, axiom, (p(a))). cnf(g, negated_conjecture, (~p(a))).")
        assert equality_axioms(p) == []

    def test_congruence_per_symbol(self):
        p = parse_tptp(
            "cnf(a, axiom, (f(a) = b)). cnf(g, negated_conjecture, (~p(f(a)))).")
        names = [name for name, _ in equality_axioms(p)]
        assert "eq_reflexive" in names
        assert "eq_congruence_function_f" in names
        assert "eq_congruence_predicate_p" in names
        assert not any(n.endswith("_a") or n.endswith("_b") for n in names)

    def test_equality_proof_verifies(self):
        p = parse_tptp(
            "cnf(left_id, axiom, (mul(e, X) = X))."
            "fof(goal, conjecture, a = mul(e, a)).")
        r = prove(p, SearchConfig())
        assert r.status == UNSAT
        assert verify_proof_detailed(r.proof, p)[0]


# proved only through the injected equality axioms: `=` read as a plain
# predicate would saturate here without a contradiction
EQUALITY_PROBE = "cnf(ab, axiom, (a = b)). cnf(pa, axiom, (p(a))). cnf(g, negated_conjecture, (~p(b)))."


def test_equality_probe_proves_by_default():
    r = prove(parse_tptp(EQUALITY_PROBE), SearchConfig())
    assert (r.status, r.resource) == (UNSAT, None)


# (field, value, what follows): ValueError when the option is refused,
# otherwise the (status, resource) of a search of EQUALITY_PROBE under it
OPTION_ROWS = [
    ("schedule", "1*fifoo", ValueError),
    ("schedule", "1*fifo", (UNSAT, None)),
    ("max_processed", -1, ValueError),
    ("max_processed", 0, (RESOURCE_OUT, "processed")),
    ("max_generated", -1, ValueError),
    ("max_generated", 0, (RESOURCE_OUT, "generated")),
    ("max_wall_ms", -1, ValueError),
    ("max_clause_literals", 0, ValueError),
    ("max_clause_literals", -2, ValueError),
    ("max_clause_literals", 1, (RESOURCE_OUT, "clause_size")),
]


@pytest.mark.parametrize("field,value,expected", OPTION_ROWS,
                         ids=[f"{f}={v!r}" for f, v, _ in OPTION_ROWS])
def test_option_takes_effect_or_is_refused(field, value, expected):
    if expected is ValueError:
        with pytest.raises(ValueError, match=field):
            SearchConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            replace(SearchConfig(), **{field: value})
        return
    r = prove(parse_tptp(EQUALITY_PROBE), SearchConfig(**{field: value}))
    assert (r.status, r.resource) == expected


# (field, value, the other fields set, what follows): ValueError when the
# option is refused, otherwise the observable that the value moves in a
# guided search of a flood, against the same config with the field at its
# default. An observable is the status, the processed count, the
# selections or an `info` entry.
GUIDANCE_ROWS = [
    ("mode", "neural", {}, ValueError),
    ("mode", "pure", {}, "selections"),
    ("model", None, {"mode": "hybrid"}, ValueError),
    ("vocab", None, {"mode": "hybrid"}, ValueError),
    ("vocab", Vocabulary(), {"mode": "hybrid"}, ValueError),  # another hash
    ("hybrid_nn_picks", 0, {"mode": "hybrid"}, ValueError),
    ("hybrid_nn_picks", 2, {}, ValueError),  # auto has no network picks
    ("hybrid_nn_picks", 3, {"mode": "hybrid"}, "selections"),
    ("batch_size", 0, {"mode": "hybrid"}, ValueError),
    ("batch_size", 0, {}, ValueError),  # refused at construction, scorer or none
    ("batch_size", 1, {"mode": "hybrid"}, "batch_calls"),
    ("phase1_budget", -1, {"mode": "switched"}, ValueError),
    ("phase1_budget", 30, {"mode": "hybrid"}, ValueError),
    ("phase1_budget", 600, {"mode": "switched"}, ValueError),  # not below the total
    ("phase1_budget", 30, {"mode": "switched"}, "finished_in_phase"),
    ("phase1_ms", -1, {"mode": "switched"}, ValueError),
    ("phase1_ms", 0, {"mode": "switched"}, "phase1_processed"),
    ("mode", "cascade", {}, "premise_level"),
    # the default levels prove the flood at 32 premises
    ("premsel_levels", (16,), {"mode": "cascade"}, "premise_level"),
    ("premsel_levels", (0,), {"mode": "cascade"}, ValueError),
    ("premsel_levels", (), {"mode": "cascade"}, ValueError),
    ("premsel_levels", (32,), {"mode": "hybrid"}, ValueError),
]

GUIDED_LIMITS = SearchConfig(max_processed=600, max_wall_ms=None, record_selections=True)


def observed(r) -> dict:
    return {"status": r.status, "processed": r.processed_count,
            "selections": r.selections, **r.info}


@pytest.mark.parametrize("field,value,settings,expected", GUIDANCE_ROWS,
                         ids=[f"{f}={v!r}-{s.get('mode', 'auto')}"
                              for f, v, s, _ in GUIDANCE_ROWS])
def test_guidance_option_takes_effect_or_is_refused(field, value, settings, expected,
                                                    fixture_cnn):
    model, vocab = fixture_cnn
    flood = next(c.problem for c in desk_corpus(0) if "guidance" in c.tags)
    base = {"model": model, "vocab": vocab, **settings}
    if expected is ValueError:
        with pytest.raises(ValueError, match=field):
            guided_prove(flood, GuidanceConfig(**{**base, field: value}), GUIDED_LIMITS)
        return
    default = observed(guided_prove(flood, GuidanceConfig(**base), GUIDED_LIMITS))
    moved = observed(guided_prove(flood, GuidanceConfig(**{**base, field: value}),
                                  GUIDED_LIMITS))
    assert moved[expected] != default.get(expected)


def test_option_table_covers_every_field():
    # `record_selections` changes no status; test_selection_recording covers it
    untabled = {f.name for f in fields(SearchConfig)} - {f for f, _, _ in OPTION_ROWS}
    assert untabled == {"record_selections"}
    assert {f.name for f in fields(GuidanceConfig)} == {row[0] for row in GUIDANCE_ROWS}


class TestOracleAgreement:
    def test_fifo_matches_bfs_oracle_on_minis(self):
        from satguide.corpus import desk_corpus

        minis = [item for item in desk_corpus(0) if "small_oracle" in item.tags]
        assert len(minis) >= 30
        for item in minis[:10]:
            expected = bfs_saturate(item.problem)
            got = prove(item.problem, fifo_config(max_processed=None,
                                                  max_wall_ms=None,
                                                  max_generated=2_000_000))
            assert got.status == expected, item.name
