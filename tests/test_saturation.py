"""The given-clause loop, statuses, proofs, and the verifier."""

import pytest

from satguide.fol import Clause, clause_str
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
    extract_used_set,
    prove,
    szs_line,
    verify_proof,
    verify_proof_detailed,
)

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

    def test_memory_cap(self):
        p = parse_tptp(
            "cnf(a, axiom, (p(a)))."
            "cnf(b, axiom, (~p(X) | p(f(X))))."
            "cnf(g, negated_conjecture, (~q(b))).")
        r = prove(p, fifo_config(max_memory_symbols=30, max_processed=None))
        assert r.status == RESOURCE_OUT and r.resource == "memory"

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
        assert r.status == UNSAT and verify_proof(r.proof, socrates)

    def test_empty_clause_in_input(self):
        p = parse_tptp("cnf(a, axiom, $false). cnf(g, negated_conjecture, (~p(a))).")
        r = prove(p, fifo_config())
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
        assert state.steps == 1 and len(state.processed) == 1

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
        assert state.steps + state.discarded_given == sum(state.schedule.pick_counts)


class TestUsedSet:
    def test_positives_and_negatives(self):
        p = parse_tptp(
            "cnf(a, axiom, (p(a)))."
            "cnf(b, axiom, (q(b)))."          # processed, unused
            "cnf(c, axiom, (r(c)))."          # processed, unused
            "cnf(g, negated_conjecture, (~p(a))).")
        r = prove(p, fifo_config())
        pos, neg = extract_used_set(r.proof, r.state.processed)
        pos_strs = {clause_str(c) for c in pos}
        assert "p(a)" in pos_strs and "~p(a)" in pos_strs
        assert {clause_str(c) for c in neg} <= {"q(b)", "r(c)"}

    def test_all_used(self):
        p = parse_tptp(
            "cnf(a, axiom, (p(a))). cnf(g, negated_conjecture, (~p(a))).")
        r = prove(p, fifo_config())
        pos, neg = extract_used_set(r.proof, r.state.processed)
        assert neg == []


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
        assert not verify_proof(proof, p)

    def test_rejects_foreign_leaf(self, socrates):
        r = prove(socrates, fifo_config())
        proof = r.proof
        leaf_id = next(
            cid for cid, node in proof.derivation.items() if node.rule == "input"
        )
        fake = Clause(leaf_id, parse_clause_text("alien(z)"), role="axiom")
        proof.derivation[leaf_id] = ProofNode(fake, (), "input")
        assert not verify_proof(proof, socrates)

    def test_rejects_cyclic_ids(self, socrates):
        r = prove(socrates, fifo_config())
        proof = r.proof
        res_id = next(cid for cid, n in proof.derivation.items() if n.rule == "res")
        node = proof.derivation[res_id]
        bad = ProofNode(node.clause, (max(proof.used_ids) + 5,), "res")
        proof.derivation[res_id] = bad
        assert not verify_proof(proof, socrates)


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
        assert verify_proof(r.proof, p)

    def test_equality_can_be_disabled(self):
        p = parse_tptp(
            "cnf(left_id, axiom, (mul(e, X) = X))."
            "fof(goal, conjecture, a = mul(e, a)).")
        r = prove(p, SearchConfig(equality_axioms="never", max_processed=50))
        assert r.status != UNSAT


class TestOracleAgreement:
    def test_fifo_matches_bfs_oracle_on_minis(self):
        from satguide.corpus import corpus_by_tag, desk_corpus

        minis = corpus_by_tag(desk_corpus(0), "small_oracle")
        assert len(minis) >= 30
        for item in minis[:10]:
            expected = bfs_saturate(item.problem)
            got = prove(item.problem, fifo_config(max_processed=None,
                                                  max_wall_ms=None,
                                                  max_generated=2_000_000))
            assert got.status == expected, item.name
