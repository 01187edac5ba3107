"""Weight functions and the weighted round-robin schedule."""

import numpy as np
import pytest

from satguide.fol import Clause, PREDICATE, Symbol, SymbolRecord, canonical_key
from satguide.heuristics import (
    ConjectureRelativeWeightFn,
    FifoWeightFn,
    SelectionSchedule,
    SymbolCountWeightFn,
    WeightFunction,
    parse_schedule,
)
from satguide.parser import parse_clause_text


def clause_of(text, cid, role="axiom"):
    return Clause(cid, parse_clause_text(text), role=role)


def symbol_count_weight(c, fweight=2.0, vweight=1.0):
    """The weight `SymbolCountWeightFn` keys `c` with."""
    [(_, w)] = SymbolCountWeightFn(fweight, vweight).batch_keys([c])
    return w


def conjecture_relative_weight(c, conj, base_fw=2.0, base_vw=1.0, mult=0.5):
    """The weight `ConjectureRelativeWeightFn` keys `c` with in a search
    whose conjecture symbols are `conj`: the search attaches the record."""
    c.symbols = SymbolRecord(canonical_key(c.literals, frozenset(conj))[1])
    fn = ConjectureRelativeWeightFn(base_fw, base_vw, mult)
    [(_, w)] = fn.batch_keys([c])
    return w


class KeyLog(WeightFunction):
    """FIFO keys that log the id of every clause they are asked to key."""

    def __init__(self):
        self.keyed = []

    def batch_keys(self, clauses):
        self.keyed += [c.id for c in clauses]
        return FifoWeightFn().batch_keys(clauses)


class TestWeights:
    def test_fifo_keys_every_clause_alike(self):
        # one bucket: the clause id that breaks ties gives the age order
        keys = FifoWeightFn().batch_keys([clause_of("p(a)", 4), clause_of("q(X)", 0)])
        assert keys == [(0, 0.0), (0, 0.0)]

    def test_fifo_ranks_lower_age_first(self):
        sched = SelectionSchedule([(1, FifoWeightFn())])
        sched.insert(clause_of("p(c7)", 7))
        sched.insert(clause_of("p(c3)", 3))
        assert sched.pop_next().id == 3

    def test_symbol_count(self):
        assert symbol_count_weight(clause_of("p(a)", 0), 2, 1) == 4.0
        assert symbol_count_weight(clause_of("p(X)", 0), 2, 1) == 3.0
        assert symbol_count_weight(Clause(0, ()), 2, 1) == 0.0

    def test_symbol_count_monotone_in_literals(self):
        rng = np.random.default_rng(5)
        base = ["p(a)", "q(X,b)", "r(f(Y))"]
        for _ in range(20):
            k = int(rng.integers(1, 3))
            lits = " | ".join(base[: k])
            bigger = lits + " | s(c)"
            assert symbol_count_weight(clause_of(bigger, 0)) > symbol_count_weight(
                clause_of(lits, 0)
            )

    def test_conjecture_relative(self):
        conj = {Symbol("p", PREDICATE, 1)}
        c = clause_of("p(a)", 0)
        assert conjecture_relative_weight(c, conj, 2, 1, 0.5) == 3.0

    def test_conjecture_relative_no_discount_cases(self):
        c = clause_of("p(a)", 0)
        assert conjecture_relative_weight(c, set(), 2, 1, 0.5) == symbol_count_weight(c, 2, 1)
        conj = {Symbol("p", PREDICATE, 1)}
        assert conjecture_relative_weight(c, conj, 2, 1, 1.0) == symbol_count_weight(c, 2, 1)


class TestRoundRobin:
    def _feed(self, sched, start, n):
        for i in range(start, start + n):
            sched.insert(clause_of(f"p(c{i})", i))

    def test_exact_pick_counts(self):
        sched = SelectionSchedule([(1, FifoWeightFn()), (4, SymbolCountWeightFn(2, 1))])
        next_id = 0
        for i in range(200):
            sched.insert(clause_of(f"p(c{next_id})", next_id))
            next_id += 1
        picks = 0
        while picks < 10_000:
            # keep both queues nonempty
            while len(sched) < 8:
                sched.insert(clause_of(f"p(c{next_id})", next_id))
                next_id += 1
            assert sched.pop_next() is not None
            picks += 1
        assert sched.pick_counts == [2_000, 8_000]

    def test_cycle_pattern(self):
        sched = SelectionSchedule([(1, FifoWeightFn()), (2, FifoWeightFn())])
        self._feed(sched, 0, 30)
        order = [sched.pop_next().id for _ in range(9)]
        # both entries are FIFO so the ids just count up; pick counts split 1:2
        assert sched.pick_counts == [3, 6]
        assert order == list(range(9))

    def test_single_entry_is_priority_queue(self):
        sched = SelectionSchedule([(1, SymbolCountWeightFn(2, 1))])
        sched.insert(clause_of("p(a) | q(b)", 0))
        sched.insert(clause_of("p(a)", 1))
        sched.insert(clause_of("p(X)", 2))
        assert [sched.pop_next().id for _ in range(3)] == [2, 1, 0]

    def test_popped_clause_gone_from_all_entries(self):
        sched = SelectionSchedule([(1, FifoWeightFn()), (1, SymbolCountWeightFn())])
        self._feed(sched, 0, 4)
        seen = [sched.pop_next().id for _ in range(4)]
        assert sorted(seen) == [0, 1, 2, 3]
        assert sched.pop_next() is None

    def test_clause_picked_elsewhere_is_never_keyed(self):
        first, second = KeyLog(), KeyLog()
        sched = SelectionSchedule([(2, first), (1, second)])
        self._feed(sched, 0, 4)
        assert [sched.pop_next().id for _ in range(3)] == [0, 1, 2]
        # the first entry keyed all four at its turn and picked 0 and 1
        # while they were staged in the second entry, which keyed only 2, 3
        assert first.keyed == [0, 1, 2, 3]
        assert second.keyed == [2, 3]

    def test_empty_entry_skipped(self):
        # entry 0 prefers nothing once drained; schedule must keep serving
        sched = SelectionSchedule([(2, FifoWeightFn()), (1, FifoWeightFn())])
        self._feed(sched, 0, 3)
        assert [sched.pop_next().id for _ in range(3)] == [0, 1, 2]
        assert sched.pop_next() is None

    def test_determinism(self):
        def run():
            sched = SelectionSchedule(
                [(1, FifoWeightFn()), (3, SymbolCountWeightFn(3, 2))]
            )
            rng = np.random.default_rng(7)
            texts = ["p(a)", "p(X)", "q(a,b)", "p(f(a))", "r(X,Y)"]
            out = []
            cid = 0
            for step in range(120):
                for _ in range(int(rng.integers(0, 3))):
                    sched.insert(clause_of(texts[int(rng.integers(len(texts)))], cid))
                    cid += 1
                if len(sched):
                    out.append(sched.pop_next().id)
            return out

        assert run() == run()

    def test_argmin_invariance_under_scaling(self):
        # multiplying one entry's weights by a positive constant leaves its
        # selection order unchanged
        a = SelectionSchedule([(1, SymbolCountWeightFn(2, 1))])
        b = SelectionSchedule([(1, SymbolCountWeightFn(20, 10))])
        for cid, text in enumerate(["p(a) | q(b)", "p(X)", "p(f(X))", "r(a)"]):
            a.insert(clause_of(text, cid))
            b.insert(clause_of(text, cid))
        order_a = [a.pop_next().id for _ in range(4)]
        order_b = [b.pop_next().id for _ in range(4)]
        assert order_a == order_b


class TestTiers:
    def test_sos_tier_prefers_goal_descendants(self):
        sched = SelectionSchedule([(1, SymbolCountWeightFn(2, 1, tier="sos"))])
        heavy_goal = Clause(0, parse_clause_text("p(a) | q(b) | r(c)"),
                            role="negated_conjecture")
        light_plain = clause_of("p(a)", 1)
        sched.insert(light_plain)
        sched.insert(heavy_goal)
        assert sched.pop_next().id == 0

    def test_nongoals_tier(self):
        sched = SelectionSchedule([(1, SymbolCountWeightFn(2, 1, tier="nongoals"))])
        goal = Clause(0, parse_clause_text("p(a)"), role="negated_conjecture")
        plain = clause_of("p(a) | q(b)", 1)
        sched.insert(goal)
        sched.insert(plain)
        assert sched.pop_next().id == 1


class TestStockSchedules:
    """The stock spec strings expand, entry by entry, to the schedules
    that were built by hand before they were spec strings."""

    def entries(self, spec):
        return [(e.weight, e.fn) for e in parse_schedule(spec).entries]

    def test_auto208_entries(self):
        expected = [
            (1, ConjectureRelativeWeightFn(2.0, 1.0, 0.5, "sos")),
            (4, ConjectureRelativeWeightFn(2.0, 1.0, 0.1, "const")),
            (1, FifoWeightFn()),
            (1, ConjectureRelativeWeightFn(2.0, 1.0, 0.5, "nongoals")),
            (4, SymbolCountWeightFn(3.0, 2.0, "sos")),
        ]
        assert self.entries("auto") == self.entries("auto208") == expected

    def test_auto200_entries(self):
        assert self.entries("auto200") == [
            (1, ConjectureRelativeWeightFn(2.0, 1.0, 0.5, "sos")),
            (6, ConjectureRelativeWeightFn(2.0, 1.0, 0.1, "const")),
            (2, FifoWeightFn()),
            (1, ConjectureRelativeWeightFn(2.0, 1.0, 0.5, "nongoals")),
            (8, SymbolCountWeightFn(1.0, 1.0, "sos")),
        ]


class TestScheduleSpec:
    def test_parse_simple(self):
        sched = parse_schedule("1*fifo,4*symcount(2,1)")
        assert [e.weight for e in sched.entries] == [1, 4]
        assert isinstance(sched.entries[0].fn, FifoWeightFn)
        assert isinstance(sched.entries[1].fn, SymbolCountWeightFn)

    def test_parse_conjrel_with_tier(self):
        sched = parse_schedule("2*conjrel(2,1,0.5,sos)")
        fn = sched.entries[0].fn
        assert isinstance(fn, ConjectureRelativeWeightFn)
        assert fn.conj_multiplier == 0.5 and fn.tier == "sos"

    def test_parse_auto_shorthand(self):
        for spec, cycle in (("auto", 11), ("auto200", 18)):
            assert sum(e.weight for e in parse_schedule(spec).entries) == cycle

    def test_bad_entry_rejected(self):
        for spec in ("fifo", "1*bogus", "1*nn"):
            with pytest.raises(ValueError):
                parse_schedule(spec)

    def test_spaces_around_entries(self):
        sched = parse_schedule(" 1*fifo , 4*symcount(2, 1,sos) ,2*conjrel(2,1,0.1) ")
        assert [(e.weight, e.fn) for e in sched.entries] == [
            (1, FifoWeightFn()), (4, SymbolCountWeightFn(2.0, 1.0, "sos")),
            (2, ConjectureRelativeWeightFn(2.0, 1.0, 0.1))]

    @pytest.mark.parametrize("spec", ["1*conjrel(2,1,0.5", "1*fifo,2*symcount(2,1",
                                      "1*conjrel(2,1,(0.5),sos)", "1*symcount(2,1)),1*fifo"])
    def test_unbalanced_or_nested_parenthesis_rejected(self, spec):
        with pytest.raises(ValueError, match="bad schedule entry"):
            parse_schedule(spec)

    @pytest.mark.parametrize("spec", ["1*symcount(2,1,bogus)", "1*conjrel(2,1,0.5,Sos)"])
    def test_unknown_tier_rejected(self, spec):
        with pytest.raises(ValueError, match="tier"):
            parse_schedule(spec)

    @pytest.mark.parametrize("spec", ["1*fifo(7)", "1*symcount(2,1,sos,3)",
                                      "1*conjrel(2,1,0.5,sos,3)"])
    def test_surplus_argument_rejected(self, spec):
        with pytest.raises(ValueError, match="at most"):
            parse_schedule(spec)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            SelectionSchedule([(0, FifoWeightFn())])
