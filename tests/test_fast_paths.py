"""The search core's fast paths against their slow references.

On the clauses of real corpus searches: the tuple duplicate key
partitions clauses exactly as the printed string key does, the indexed
forward-subsumption check answers as a scan over every processed clause
does, the pruned subsumption test answers every query as plain
backtracking does, every pair handed to `resolve` is variable-disjoint,
and variable names stay short however deep the derivation.

Every unification, resolution, tautology flag, symbol count and
symbol-based weight the searches compute is also recomputed by the
reference implementations in `oracles` (generator walks, no cached
hashes, a fresh term for every substitution, literals compared pair by
pair): the mgus make the same atoms, the resolvents are equal, the flags
and counts are equal, and the weights have the same bits and tiers. The
one walk that keys and classifies every clause the search admits,
`canonical_key`, gives the key and the classes of the two walks it
replaced (`oracles.canonical_key` and `oracles.symbol_classes`), on those
clauses and on every input clause of the corpus; the one-walk printer
and the one renaming walk give what the renaming walk it replaced
(`oracles.normalize_variables`) gives. The cached `Symbol` and `Term`
hashes equal the hashes of their field tuples.

The leaf fast paths are also checked on random atoms that mix leaf and
compound arguments: `unify_atoms` against `oracles.unify_terms` over the
argument pairs (a variable bound to a compound earlier in the same atom
included), the in-line leaf renaming of `normalize_variables_twice`
against two `oracles.normalize_variables` calls, the direct 2-literal `_merged`
against `oracles.is_tautology`, and a clause built by `derived_clause`
against one built by `Clause(...)`, field by field. A bucketed ranking
pops what a plain (tier, weight, id) heap pops, over random insertion
orders with out-of-order ids, equal keys and several flushes.

The regular-expression lexer gives the tokens, and `token_positions` the
lines and columns, of the character-by-character lexer kept in `oracles`,
on every printed corpus problem, every printed premise clause of the
premsel problems and a set of edge cases; malformed inputs raise the same
message at the same line and column.

`parse_tptp`, which reads flat cnf texts on its fast path, gives what the
recursive parser alone gives (the same problem, field by field, or the
same error at the same line and column) on every printed problem of
`desk_corpus(0..4)`, every TPTP text in `test_parser.py` and the lexer's
edge cases. Every guided input of the bench's kind takes the fast path,
and no equality problem does.
"""

import ast
import heapq
import random
from dataclasses import fields
from pathlib import Path

import pytest

import satguide.heuristics as heuristics
import satguide.rules as rules
import satguide.saturation as saturation
from satguide.corpus import desk_corpus
from satguide.fol import (
    FUNCTION,
    PREDICATE,
    ROLE_NEGATED_CONJECTURE,
    ROLE_DERIVED,
    Clause,
    Literal,
    NO_CONJECTURE,
    Symbol,
    SymbolRecord,
    Term,
    Var,
    canonical_key,
    clause_str,
    derived_clause,
    normalize_variables,
    normalize_variables_twice,
    normalized_str,
    problem_str,
    symbol_record,
    term_symbols,
)
from satguide.parser import (
    ParseError,
    _flat_cnf,
    _parse_recursive,
    lex,
    parse_tptp,
    token_positions,
)
from satguide.premsel import premise_groups
from satguide.rules import subsumes
from satguide.saturation import Saturation, SearchConfig
from satguide.unify import apply_sub_literals, unify_atoms

import oracles
from oracles import clause_variables, string_key

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
def log():
    """What the searches did, each call beside its reference answer."""
    return {"disjoint": [], "subsumes": [], "unify": [], "resolve": [], "tautology": [],
            "keyed": [], "counts": [], "weights": [], "tiers": []}


def _atoms(lits):
    return [(l.pred, l.args) for l in lits]


def _tier(flavor, c):
    """The tier of `c` as the weight functions computed it one clause at a
    time."""
    if flavor == heuristics.TIER_SOS:
        return 0 if c.goal_descendant else 1
    if flavor == heuristics.TIER_NONGOALS:
        return 0 if c.role != ROLE_NEGATED_CONJECTURE else 1
    return 0


@pytest.fixture(scope="module")
def searches(problems, log):
    inner_resolve, inner_factor = saturation.resolve, saturation.factor
    inner_unify, inner_key = rules.unify_atoms, saturation.canonical_key
    conjrel_fn, symcount_fn = heuristics.ConjectureRelativeWeightFn, heuristics.SymbolCountWeightFn
    inner_conjrel, inner_symcount = conjrel_fn.batch_keys, symcount_fn.batch_keys

    def flagged(made):
        """The literal tuples of flagged rule output; logs each flag."""
        log["tautology"] += [(taut, oracles.is_tautology(lits)) for lits, taut in made]
        return [lits for lits, _ in made]

    def resolved(c1, c2):
        log["disjoint"].append(not clause_variables(c1) & clause_variables(c2))
        fast = inner_resolve(c1, c2)
        log["resolve"].append((flagged(fast), oracles.resolve(c1, c2)))
        return fast

    def factored(c):
        fast = inner_factor(c)
        flagged(fast)
        return fast

    def unified(l1, l2):
        fast = inner_unify(l1, l2)
        slow = oracles.unify_atoms(l1, l2)
        if fast is None or slow is None:
            log["unify"].append((fast is None, slow is None, None, None))
        else:
            made = _atoms(apply_sub_literals((l1, l2), fast))
            ref = _atoms([oracles.apply_sub_literal(l1, slow),
                          oracles.apply_sub_literal(l2, slow)])
            log["unify"].append((False, False, made, ref))
        return fast

    def compared(p, g):
        fast = subsumes(p, g)
        log["subsumes"].append((fast, oracles.subsumes(p, g)))
        return fast

    def keyed(lits, conj):
        key, classes = inner_key(lits, conj)
        log["keyed"].append((lits, conj, key, classes))
        return key, classes

    conj = None  # the conjecture symbols of the problem being searched

    def conjrel(fn, clauses):
        keys = inner_conjrel(fn, clauses)
        for c, (tier, w) in zip(clauses, keys):
            ref = oracles.conjecture_relative_weight(c, conj, fn.base_fw,
                                                      fn.base_vw, fn.conj_multiplier)
            log["weights"].append(("conjrel", w.hex(), ref.hex()))
            log["tiers"].append((tier, _tier(fn.tier, c)))
        return keys

    def symcount(fn, clauses):
        keys = inner_symcount(fn, clauses)
        for c, (tier, w) in zip(clauses, keys):
            fp, v = oracles.symbol_counts(c)
            log["counts"].append(((c.symbols.fp, c.symbols.vars), (fp, v)))
            log["weights"].append(("symcount", float(w).hex(),
                                   float(fn.fweight * fp + fn.vweight * v).hex()))
            log["tiers"].append((tier, _tier(fn.tier, c)))
        return keys

    states = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(saturation, "resolve", resolved)
        mp.setattr(saturation, "factor", factored)
        mp.setattr(saturation, "subsumes", compared)
        mp.setattr(saturation, "canonical_key", keyed)
        mp.setattr(rules, "unify_atoms", unified)
        mp.setattr(conjrel_fn, "batch_keys", conjrel)
        mp.setattr(symcount_fn, "batch_keys", symcount)
        for p in problems:
            conj = p.conjecture_symbols()
            state = ScanChecked(p, CONFIG)
            state.run()
            states.append(state)
    return states


def test_tuple_key_partitions_like_string_key(searches, log):
    # every input clause and every generated clause that reached the
    # duplicate check, dropped duplicates included
    pairs = {(string_key(Clause(0, lits)), key) for lits, _, key, _ in log["keyed"]}
    by_string, by_tuple = {}, {}
    for s, t in pairs:
        by_string.setdefault(s, set()).add(t)
        by_tuple.setdefault(t, set()).add(s)
    assert len(by_string) > 1000
    assert all(len(v) == 1 for v in by_string.values())
    assert all(len(v) == 1 for v in by_tuple.values())


def test_admission_walk_agrees_with_reference_walks(searches, log):
    # the one walk that keys and classifies every admitted clause, input
    # or generated, gives the key and the classes of the two reference walks
    keyed = log["keyed"]
    assert len(keyed) > 10_000
    assert len({key for _, _, key, _ in keyed}) < len(keyed)  # duplicates seen
    inputs = {c.literals for state in searches for c in state.clauses.values()
              if not c.parents}
    assert inputs <= {lits for lits, *_ in keyed}
    for lits, conj, key, classes in keyed:
        c = Clause(0, lits)
        assert key == oracles.canonical_key(c)
        assert classes == oracles.symbol_classes(c, conj)


def test_one_walk_agrees_with_reference_walks_on_corpus_inputs():
    # the key, the classes against the conjecture and, for a clause
    # outside a search, against none (`symbol_record`), and the renaming,
    # on every input clause of the corpus
    checked = 0
    for item in desk_corpus(0):
        conj = item.problem.conjecture_symbols()
        for c in item.problem.clauses():
            key, classes = canonical_key(c.literals, conj)
            assert key == oracles.canonical_key(c)
            assert classes == oracles.symbol_classes(c, conj)
            assert symbol_record(Clause(c.id, c.literals)).classes == \
                oracles.symbol_classes(c, NO_CONJECTURE)
            copy, ref = normalize_variables(c), oracles.normalize_variables(c)
            assert copy.literals == ref.literals and (copy is c) == (ref is c)
            checked += 1
    assert checked > 9000


def test_tautology_flags_agree_with_reference(searches, log):
    flags = log["tautology"]
    assert len(flags) > 10_000 and sum(fast for fast, _ in flags) > 10
    assert all(fast == slow for fast, slow in flags)


def test_index_agrees_with_scan(searches):
    assert sum(s.checked for s in searches) > 1000
    assert sum(s.subsumed for s in searches) > 0
    assert [s.mismatches for s in searches] == [[] for _ in searches]


def test_pruned_subsumption_agrees_with_backtracking(searches, log):
    answers = log["subsumes"]
    assert len(answers) > 1000
    assert sum(fast for fast, _ in answers) > 0
    assert sum(not fast for fast, _ in answers) > 0
    assert all(fast == slow for fast, slow in answers)


def test_unifier_agrees_with_reference(searches, log):
    calls = log["unify"]
    assert len(calls) > 10_000
    assert sum(made is not None for *_, made, _ in calls) > 1000
    assert sum(failed for failed, *_ in calls) > 1000
    for failed, ref_failed, made, ref in calls:
        assert failed == ref_failed
        if made is not None:
            assert made[0] == made[1] and made == ref


def test_unifier_agrees_with_reference_on_term_pool():
    # The corpus searches never need the occurs check, so every pair of
    # small atoms over shared variables stands in for them: X against
    # f(X) and the like, bindings that chain, and clashes at every depth.
    f, g = Symbol("f", FUNCTION, 1), Symbol("g", FUNCTION, 2)
    p = Symbol("p", PREDICATE, 2)
    x = Var("X")
    leaves = [Term(Symbol("a", FUNCTION, 0)), x, Var("Y")]
    pool = leaves + [Term(f, (t,)) for t in leaves] + \
        [Term(g, (s, t)) for s in leaves for t in leaves]
    pool += [Term(f, (Term(f, (x,)),)), Term(g, (x, Term(f, (x,))))]
    atoms = [Literal(p, (s, t)) for s in pool for t in pool]
    unified = 0
    for l1 in atoms[::3]:
        for l2 in atoms:
            fast, slow = unify_atoms(l1, l2), oracles.unify_atoms(l1, l2)
            assert (fast is None) == (slow is None)
            if fast is not None:
                unified += 1
                made = _atoms(apply_sub_literals((l1, l2), fast))
                assert made[0] == made[1]
                assert made == _atoms([oracles.apply_sub_literal(l1, slow),
                                       oracles.apply_sub_literal(l2, slow)])
    assert unified > 1000
    assert unify_atoms(Literal(p, (x, x)), Literal(p, (Term(f, (x,)), x))) is None


def test_resolvents_agree_with_reference(searches, log):
    pairs = log["resolve"]
    assert len(pairs) > 1000 and sum(len(fast) for fast, _ in pairs) > 1000
    assert all(fast == slow for fast, slow in pairs)


def test_symbol_counts_agree_with_reference(searches, log):
    assert len(log["counts"]) > 1000
    assert all(fast == slow for fast, slow in log["counts"])


def test_weights_agree_with_reference_bitwise(searches, log):
    # each weight function's batch keys are logged through its class; one
    # the schedule stops calling makes its kind's count fall
    for kind in ("conjrel", "symcount"):
        assert sum(k == kind for k, _, _ in log["weights"]) > 1000, kind
    assert all(fast == slow for _, fast, slow in log["weights"])
    assert {slow for _, slow in log["tiers"]} == {0, 1}
    assert all(fast == slow for fast, slow in log["tiers"])


def test_cached_hashes_equal_field_tuple_hashes(searches):
    syms, terms = set(), []
    for state in searches:
        for c in state.clauses.values():
            for lit in c.literals:
                syms.add(lit.pred)
                for a in lit.args:
                    syms.update(term_symbols(a))
                    stack = [a]
                    while stack:
                        t = stack.pop()
                        terms.append(t)
                        stack.extend(t.args)
    assert len(syms) > 50 and len(terms) > 10_000
    assert all(hash(s) == hash((s.name, s.kind, s.arity)) for s in syms)
    assert all(hash(t) == hash((t.sym, t.args)) for t in terms)


def test_one_walk_printing_and_renaming_agree_with_renamed_copies(searches):
    # trace text, one namespace and the step's two namespaces, each from
    # one walk, against the reference renaming walk
    clauses = [c for state in searches for c in state.processed]
    clauses += [c for state in searches for c in state.clauses.values()]
    clauses += [c for item in desk_corpus(1) for c in item.problem.clauses()]
    assert len(clauses) > 10_000
    for c in clauses:
        assert normalized_str(c) == clause_str(oracles.normalize_variables(c))
        pair = normalize_variables_twice(c, "P", "G")
        for copy, prefix in zip(pair, "PG"):
            ref = oracles.normalize_variables(c, prefix)
            assert copy.literals == ref.literals and (copy is c) == (ref is c)
            one = normalize_variables(c, prefix)
            assert one.literals == ref.literals and (one is c) == (ref is c)
            assert (copy.id, copy.role, copy.parents, copy.goal_descendant) == \
                (c.id, c.role, c.parents, c.goal_descendant)


def test_resolved_pairs_are_variable_disjoint(searches, log):
    assert len(log["disjoint"]) > 1000 and all(log["disjoint"])


def test_variable_names_do_not_grow_with_depth(searches):
    longest: dict[int, int] = {}  # derivation depth -> longest variable name
    for state in searches:
        depth: dict[int, int] = {}
        for cid in sorted(state.clauses):
            c = state.clauses[cid]
            d = 1 + max((depth[p] for p in c.parents), default=-1)
            depth[cid] = d
            names = [len(v.name) for v in clause_variables(c)]
            longest[d] = max(longest.get(d, 0), *names, 0)
    assert max(longest) >= 8
    assert max(longest[d] for d in longest if d >= 2) <= longest[1]


# -- leaf fast paths and bucketed rankings against their references ---------------

F1, G2 = Symbol("f", FUNCTION, 1), Symbol("g", FUNCTION, 2)
P4, Q2 = Symbol("p", PREDICATE, 4), Symbol("q", PREDICATE, 2)
CONSTANTS = [Term(Symbol(name, FUNCTION, 0)) for name in "abc"]


def _random_term(rng, variables, depth=0):
    roll = rng.random()
    if depth >= 2 or roll < 0.4:
        return rng.choice(variables)
    if roll < 0.65:
        return rng.choice(CONSTANTS)
    if roll < 0.85:
        return Term(F1, (_random_term(rng, variables, depth + 1),))
    return Term(G2, tuple(_random_term(rng, variables, depth + 1) for _ in range(2)))


def _random_atom(rng, variables, pred=P4):
    return Literal(pred, tuple(_random_term(rng, variables) for _ in range(pred.arity)),
                   rng.random() < 0.5)


def _reference_unify(l1, l2, sub):
    """`oracles.unify_terms` over the argument pairs, left to right, from
    `sub` (keyed by variable symbol)."""
    for a, b in zip(l1.args, l2.args):
        sub = oracles.unify_terms(a, b, sub)
        if sub is None:
            return None
    return sub


def _check_unifier(l1, l2, sub=None, ref_sub=None):
    """Does the fast unifier agree with the reference on (l1, l2)? Both
    mgus must make the same atoms, each through its own substitution
    routine."""
    fast = unify_atoms(l1, l2, None if sub is None else dict(sub))
    slow = _reference_unify(l1, l2, dict(ref_sub or {}))
    assert (fast is None) == (slow is None), (l1, l2)
    if fast is None:
        return False
    ref = _atoms([oracles.apply_sub_literal(l, slow) for l in (l1, l2)])
    assert _atoms(apply_sub_literals((l1, l2), fast)) == ref
    assert ref[0] == ref[1]
    return True


def test_leaf_unifier_agrees_with_reference_on_mixed_arguments():
    rng = random.Random(11)
    left = [Var(n) for n in ("X", "Y", "Z")]
    right = [Var(n) for n in ("U", "V", "X")]  # X is shared: chains and clashes
    unified = 0
    for _ in range(4000):
        unified += _check_unifier(_random_atom(rng, left), _random_atom(rng, right))
    assert 200 < unified < 3800


def test_leaf_unifier_hands_over_after_an_earlier_compound_binding():
    x, y, z = Var("X"), Var("Y"), Var("Z")
    a, b = CONSTANTS[:2]
    fa, fx = Term(F1, (a,)), Term(F1, (x,))
    cases = [
        # X is bound to f(a) by the first pair, then met again as a leaf
        (Literal(P4, (x, x, y, b)), Literal(P4, (fa, z, z, b))),
        (Literal(P4, (x, y, x, y)), Literal(P4, (fa, a, fa, a))),
        (Literal(P4, (x, y, x, b)), Literal(P4, (fa, a, Term(F1, (b,)), b))),  # clash
        (Literal(P4, (y, x, y, x)), Literal(P4, (a, fx, z, a))),  # occurs check
        (Literal(P4, (x, y, z, a)), Literal(P4, (y, z, fa, a))),  # a chain to f(a)
    ]
    assert [_check_unifier(l1, l2) for l1, l2 in cases] == [True, True, False, False, True]
    # a binding to a compound handed in: the first pair walks to one
    l1, l2 = Literal(Q2, (x, y)), Literal(Q2, (fa, a))
    assert _check_unifier(l1, l2, {"X": fa}, {x.sym: fa})
    assert not _check_unifier(Literal(Q2, (x, y)), Literal(Q2, (Term(F1, (b,)), a)),
                              {"X": fa}, {x.sym: fa})


def test_two_literal_merge_agrees_with_reference():
    rng = random.Random(5)
    variables = [Var("X"), Var("Y")]
    atoms = [_random_atom(rng, variables, Q2) for _ in range(12)]
    # equal atoms that are other objects, as substitution makes them
    atoms += [Literal(Q2, tuple(Term(t.sym, t.args) if not t.is_var else Var(t.sym.name)
                                for t in l.args), l.positive) for l in atoms[:6]]
    lits = [l for atom in atoms for l in (atom, atom.negated())]
    seen = {True: 0, False: 0}
    for l0 in lits:
        for l1 in lits:
            merged, tautology = rules._merged((l0, l1))
            assert tautology == oracles.is_tautology((l0, l1))
            assert merged == ((l0,) if l0 == l1 else (l0, l1))
            seen[tautology] += 1
    assert seen[True] > 50 and seen[False] > 500


def test_leaf_renaming_agrees_with_two_normalizations():
    rng = random.Random(3)
    variables = [Var(n) for n in ("X", "Y", "P1", "G2")]  # some already renamed
    for _ in range(1000):
        c = Clause(7, tuple(_random_atom(rng, variables) for _ in range(rng.randint(1, 3))))
        pair = normalize_variables_twice(c, "P", "G")
        for copy, prefix in zip(pair, "PG"):
            ref = oracles.normalize_variables(c, prefix)
            assert copy.literals == ref.literals and (copy is c) == (ref is c)


def test_fast_built_derived_clause_equals_checked_one():
    lits = (Literal(Q2, (Var("X"), CONSTANTS[0])),)
    for goal in (False, True):
        record = SymbolRecord(b"\x02\x00\x02")
        fast = derived_clause(9, lits, (3, 4), rules.RULE_RESOLVE, goal, record)
        checked = Clause(9, lits, ROLE_DERIVED, (3, 4), rules.RULE_RESOLVE, None, goal)
        checked.symbols = record
        for f in fields(Clause):
            assert getattr(fast, f.name) is getattr(checked, f.name), f.name


class KeyTable(heuristics.WeightFunction):
    """The keys of a fixed table, by clause id."""

    def __init__(self, keys):
        self.keys = keys

    def batch_keys(self, clauses):
        return [self.keys[c.id] for c in clauses]


@pytest.mark.parametrize("seed", range(6))
def test_bucketed_ranking_agrees_with_plain_heap(seed):
    # random insertion orders with out-of-order ids, few distinct keys and
    # several flushes; clauses picked elsewhere leave the alive set, some
    # before their flush and some after
    rng = random.Random(seed)
    ids = list(range(600))
    rng.shuffle(ids)
    keys = {cid: (rng.randint(0, 1), rng.choice([0.0, -0.0, 1.5, 2.0, 7.25, -3.0]))
            for cid in ids}
    entry = heuristics.ScheduleEntry(1, KeyTable(keys))
    reference = []  # a plain (tier, weight, id) heap
    alive = {}
    picks = 0
    while ids or alive:
        batch = ids[: rng.randint(0, 40)]
        del ids[: len(batch)]
        for cid in batch:
            alive[cid] = Clause(cid, ())
            entry.staging.append(alive[cid])
        for cid in batch:
            if rng.random() < 0.1:
                del alive[cid]
        entry.flush(alive)
        for cid in batch:
            if cid in alive:
                heapq.heappush(reference, (*keys[cid], cid))
        for _ in range(rng.randint(0, 30)):
            while reference and reference[0][2] not in alive:
                heapq.heappop(reference)
            expected = heapq.heappop(reference)[2] if reference else None
            got = entry.pop(alive)
            assert got == expected
            if got is None:
                break
            del alive[got]
            picks += 1
        for cid in list(alive):
            if rng.random() < 0.02:
                del alive[cid]
    assert entry.pop(alive) is None
    assert picks > 300 and not entry.keys and not entry.buckets


def test_fifo_orders_by_id_whatever_the_insertion_order():
    sched = heuristics.SelectionSchedule([(1, heuristics.FifoWeightFn())])
    order = [5, 3, 9, 0, 7]
    for cid in order:
        sched.insert(Clause(cid, ()))
    assert [sched.pop_next().id for _ in order] == sorted(order)


# -- the lexer and the parser's fast path ------------------------------------------

# texts that lex; the parser comparison also reads them, so some of them are
# parse errors (a symbol clash, a cnf conjecture)
LEX_EDGES = [
    "",
    " \t\r\n ",
    "% only a comment\n",
    "cnf(a,\taxiom,\tp(X)).\r\ncnf(b, axiom, q).\r\n",
    "% header\ncnf(c, axiom, p(a)). % trailing\n  cnf(d, axiom, q(b)).\n",
    "/* one line */ cnf(e, axiom, /* in */ p(a)) /**/ .\n",
    "cnf('a b', axiom, p('Foo Bar', 'x', '')).\n",
    "cnf(f, axiom, $false). fof(g, axiom, $true | $ | $$x).\n",
    "cnf(h, axiom, pé(Xé, aⅫ, _u, 9z, ²x, Éa, ǅb)).\n",
    "fof(i, axiom, ![X, Y]: (p(X) <=> (q(Y) <~> ~r(X))) & (s => t) | u != v = w"
    " | ?[Z]: z(Z)).\n",
    "cnf(j, axiom, ~~p(a) | ~ ~ ~q).cnf(Upper, negated_conjecture,(~r(X , 9z,_u)))\n.",
    "cnf(k, plain, p(X)).\ncnf(l, axiom, q(p)).\n",
    "cnf(m, axiom, q(a)).\ncnf(n, axiom, (a)).\n",
    "cnf(o, axiom, p(a)).\ncnf(q, axiom, p(a, b)).\n",
    "cnf(r, axiom, p(X)).\ncnf(s, conjecture, p(a)).\n",
]

LEX_ERRORS = [
    "cnf(a, axiom, p(a)).\n  /* open\n cnf(b, axiom, q).\n",
    "cnf(a, axiom, p(a)).\ncnf('abc, axiom, q).\n",
    "cnf(a, axiom, p(a) @ q).\n",
    "cnf(a, axiom,\fp(a)).\n",
    "fof(a, axiom, p < q).\n",
    "fof(a, axiom, p <= q).\n",
    "cnf(a, axiom, p(a) / q).\n",
    "cnf(a, axiom, p(½x)).\n",
    "cnf(a, axiom, p(x½)). cnf(b, axiom, Ⅻ).\n",
]


def _premise_texts():
    """Every clause text `rank_premises` lexed on the premsel problems while
    it printed premises and lexed them back: each premise clause printed
    with its variables renumbered."""
    problems = [item.problem for item in desk_corpus(0) if item.family == "premsel"]
    return [normalized_str(c) for problem in problems
            for _, clauses in premise_groups(problem) for c in clauses]


def _lexed(text):
    return [(kind, word, line, col)
            for (kind, word), (line, col) in zip(lex(text), token_positions(text))]


def _reference(text):
    return [(t.kind, t.text, t.line, t.col) for t in oracles.lex(text)]


def test_lexer_agrees_with_reference_on_corpus():
    texts = [problem_str(item.problem) for seed in range(4) for item in desk_corpus(seed)]
    assert len(texts) > 500 and sum(map(len, texts)) > 500_000
    for text in texts:
        assert _lexed(text) == _reference(text)


def test_lexer_agrees_with_reference_on_premise_texts():
    texts = _premise_texts()
    assert len(texts) > 1000
    for text in texts:
        assert _lexed(text) == _reference(text)


@pytest.mark.parametrize("text", LEX_EDGES)
def test_lexer_agrees_with_reference_on_edge_cases(text):
    assert _lexed(text) == _reference(text)


@pytest.mark.parametrize("text", LEX_ERRORS)
def test_lexer_errors_agree_with_reference(text):
    with pytest.raises(ParseError) as ref:
        oracles.lex(text)
    with pytest.raises(ParseError) as err:
        lex(text)
    assert str(err.value) == str(ref.value)
    assert (err.value.line, err.value.col) == (ref.value.line, ref.value.col)


@pytest.fixture(scope="module")
def corpora():
    return [desk_corpus(seed) for seed in range(5)]


def _parse_result(parse, text):
    """What `parse` makes of `text`: each field of the problem, or the
    error's message, line and column."""
    try:
        p = parse(text, "t")
    except ParseError as err:
        return str(err), err.line, err.col
    return (p.name, [(c.id, c.literals, c.role, c.origin) for c in p.clauses()],
            p.signature, problem_str(p))


def _parser_test_texts():
    """Every TPTP text written out in full in `test_parser.py`."""
    tree = ast.parse((Path(__file__).parent / "test_parser.py").read_text())
    in_fstrings = {id(part) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                   for part in node.values}
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in in_fstrings
            and any(unit in node.value for unit in ("cnf(", "fof(", "include("))]


def test_parse_paths_agree_on_corpus(corpora):
    texts = [problem_str(item.problem) for corpus in corpora for item in corpus]
    assert len(texts) > 700
    assert sum(_flat_cnf(text) is not None for text in texts) > 600
    for text in texts:
        assert _parse_result(parse_tptp, text) == _parse_result(_parse_recursive, text)


def test_parse_paths_agree_on_parser_tests():
    texts = _parser_test_texts()
    assert len(texts) > 30
    for text in texts:
        assert _parse_result(parse_tptp, text) == _parse_result(_parse_recursive, text)


@pytest.mark.parametrize("text", LEX_EDGES + LEX_ERRORS)
def test_parse_paths_agree_on_edge_cases(text):
    assert _parse_result(parse_tptp, text) == _parse_result(_parse_recursive, text)


def test_guided_inputs_take_the_fast_path_and_equality_ones_do_not(corpora):
    guided = [item for corpus in corpora[:4] for item in corpus
              if item.tags & {"guidance", "guidance_hard", "premsel"}]
    equality = [item for corpus in corpora[:4] for item in corpus if item.family == "group"]
    assert len(guided) == 4 * 64 and len(equality) == 4 * 12
    assert all(_flat_cnf(problem_str(item.problem)) is not None for item in guided)
    assert all(_flat_cnf(problem_str(item.problem)) is None for item in equality)
