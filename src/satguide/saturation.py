"""The given-clause saturation loop, proofs, and an independent verifier.

Two clause sets are maintained: processed and unprocessed (the latter
lives inside the selection schedule's rankings, which are bucketed: per
entry a heap of the distinct (tier, weight) keys, and per key a heap of
clause ids, so ties break toward the lowest id whatever order clauses
arrive in; see `heuristics`). Each step the schedule
yields a given clause g; g is dropped if tautological or forward-subsumed
by a processed clause, otherwise all resolvents of g against the
processed set (g included, covering self-resolution) and all factors of g
are generated, and g joins the processed set. Deriving the empty clause
terminates with a proof.

Standardizing apart happens once per clause, not once per resolution
pair: one walk per step renames the given clause into the processed
namespace (variables P1, P2, ...), the copy that joins the processed set,
and into the given namespace (G1, G2, ...), the copy that is resolved.
Every pair handed to `resolve` is so variable-disjoint, self-resolution
included, and variable names never grow with derivation depth. Forward
subsumption looks up candidate subsumers in a `SubsumerIndex` instead of
scanning every processed clause.

Admission works on the bare literal tuple a rule returns, with its
duplicate literals merged and a tautology flag from the same hash pass.
A generated clause takes the next id, then is checked in this order:
the size cap (a capped clause makes the search lossy), the tautology
flag, the duplicate key. One walk, `fol.canonical_key`, builds the
duplicate key and the symbol classes that every weight reads, for input
and derived clauses alike. The search keeps one `SymbolRecord` per
distinct class string (`records`), built on the first clause that has
it: the clauses of a search hold far fewer class strings than clauses,
and every clause with one class string shares its record and so the
weights folded on it. Only a clause that passes every check, or the
empty clause, becomes a `Clause`, built without the dataclass checks
(`fol.derived_clause`) and kept once, in `clauses`; dropped resolvents
leave no clause object behind, only their id. A clause's parents and
rule live on the clause, and `build_proof` makes proof nodes only for
the clauses a proof uses. A step reads the generated cap once, and
merges and sorts the resolution partners only when they come
from more than one index list.

The search makes no reference cycles, so every object it drops is freed
by its reference count at once. `run` so pauses Python's cyclic garbage
collector, whose collections would find no garbage and only walk the
live clauses over and over. `collector_paused` is the one pause, which
`corpus.desk_corpus` takes too: it restores the collector on every exit
and on the way out hands the objects made under it, with any other
young ones, to the oldest generation (`gc.freeze()`, then
`gc.unfreeze()`), so that the first young collection afterwards does
not walk them all either; a caller's frozen objects stay frozen, and
then nothing moves. This is safe: the collector only frees cycles, and
a cycle that code called under the pause makes (a weight function,
say) is still freed, by the next full collection.

A search runs under its `SearchConfig` alone: `run` checks the limits of
`self.config` each step, the wall limit counting from the state's start.
Switched guidance runs one state twice, swapping its config in between.

Calculus: binary resolution + factoring, tautology deletion, forward
subsumption. Equality is handled by axiom injection (reflexivity,
symmetry, transitivity, congruence per signature symbol) when a problem
mentions `=`. Everything is deterministic: ties break on clause id and
ids increase monotonically with creation: input clauses keep the caller's
ids, and every clause the search adds is numbered above them.
"""

from __future__ import annotations

import gc
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .fol import (
    EQ,
    PREDICATE,
    ROLE_AXIOM,
    ROLE_DERIVED,
    Clause,
    Literal,
    Problem,
    SymbolRecord,
    Term,
    Var,
    canonical_key,
    clause_str,
    derived_clause,
    normalize_variables_twice,
)
from .heuristics import SelectionSchedule, parse_schedule
from .rules import (
    RULE_FACTOR,
    RULE_RESOLVE,
    factor,
    is_tautology,
    is_variant,
    resolve,
    standardized_apart,
    subsumes,
)

UNSAT = "Unsatisfiable"
SAT = "Satisfiable"
RESOURCE_OUT = "ResourceOut"

RULE_INPUT = "input"
RULE_EQ_AXIOM = "eq_axiom"

CONTINUE = "continue"
PROOF_FOUND = "proof"
SATURATED = "saturated"
LIMIT = "limit"

# variable name prefixes of the two namespaces (see the module docstring)
GIVEN_NAMESPACE = "G"
PROCESSED_NAMESPACE = "P"


@dataclass
class SearchConfig:
    """Search limits and options. A schedule spec that does not parse and
    a limit that cannot be honoured (a negative count or time, a clause
    size cap below 1) raise ValueError."""

    schedule: str = "auto"  # a `heuristics.parse_schedule` spec
    max_processed: int | None = 20_000
    max_generated: int | None = 1_000_000
    max_wall_ms: int | None = 60_000
    max_clause_literals: int | None = None  # drop longer generated clauses
    record_selections: bool = False

    def __post_init__(self):
        try:
            parse_schedule(self.schedule)
        except ValueError as exc:
            raise ValueError(f"schedule {self.schedule!r}: {exc}") from exc
        for name in ("max_processed", "max_generated", "max_wall_ms"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must not be negative, got {value}")
        if self.max_clause_literals is not None and self.max_clause_literals < 1:
            raise ValueError(f"max_clause_literals must be at least 1, "
                             f"got {self.max_clause_literals}")


@dataclass(slots=True)
class ProofNode:
    clause: Clause
    parents: tuple[int, ...]
    rule: str


@dataclass
class Proof:
    empty_clause_id: int
    derivation: dict[int, ProofNode]
    used_ids: set[int]


@dataclass
class ProveResult:
    status: str
    proof: Proof | None
    processed_count: int
    generated_count: int
    wall_ms: int
    resource: str | None = None  # processed | generated | time | clause_size | premises
    selections: list[int] | None = None  # processed ids; inputs keep the caller's
    info: dict = field(default_factory=dict)
    state: object = None  # the Saturation instance (cascade: the last level's)

    @property
    def proved(self) -> bool:
        return self.status == UNSAT


def szs_line(result: ProveResult, name: str) -> str:
    return f"% SZS status {result.status} for {name}"


def derivation_lines(proof: Proof) -> list[str]:
    lines = []
    for cid in sorted(proof.used_ids):
        node = proof.derivation[cid]
        parents = ",".join(str(p) for p in node.parents)
        lines.append(f"{cid}. {clause_str(node.clause)} <- [{parents}] rule={node.rule}")
    return lines


# -- equality axioms -----------------------------------------------------------


def equality_axioms(problem: Problem) -> list[tuple[str, tuple[Literal, ...]]]:
    """Reflexivity, symmetry, transitivity and congruence clauses for `=`.

    Returned in a deterministic order (fixed axioms, then congruence per
    symbol sorted by name). Empty when the problem does not use equality.
    """
    eq = next(
        (s for s in problem.signature if s.name == EQ and s.kind == PREDICATE),
        None,
    )
    if eq is None:
        return []

    def eqlit(a: Term, b: Term, positive=True) -> Literal:
        return Literal(eq, (a, b), positive)

    x, y, z = Var("X"), Var("Y"), Var("Z")
    out = [
        ("eq_reflexive", (eqlit(x, x),)),
        ("eq_symmetric", (eqlit(x, y, False), eqlit(y, x))),
        ("eq_transitive", (eqlit(x, y, False), eqlit(y, z, False), eqlit(x, z))),
    ]
    symbols = sorted(
        (s for s in problem.signature if s.kind != "variable" and s.arity > 0 and s.name != EQ),
        key=lambda s: (s.name, s.kind),
    )
    for s in symbols:
        xs = tuple(Var(f"X{i + 1}") for i in range(s.arity))
        ys = tuple(Var(f"Y{i + 1}") for i in range(s.arity))
        neq = tuple(eqlit(a, b, False) for a, b in zip(xs, ys))
        if s.kind == PREDICATE:
            lits = neq + (Literal(s, xs, False), Literal(s, ys, True))
        else:
            lits = neq + (eqlit(Term(s, xs), Term(s, ys)),)
        out.append((f"eq_congruence_{s.kind}_{s.name}", lits))
    return out


# -- forward subsumption index -------------------------------------------------


class SubsumerIndex:
    """Processed clauses indexed by (predicate, polarity) features.

    A clause p can subsume g only if every (predicate, polarity) pair
    occurs in g at least as often as in p. This is feature vector
    indexing as in E (S. Schulz, "Simple and Efficient Clause Subsumption
    with Feature Vector Indexing", 2013), with one feature per pair.
    Clauses are bucketed by the set of their features, kept as a bitmask.
    A query visits only the buckets whose set lies inside g's (by
    enumerating the subsets of g's mask, or by testing every bucket when
    that is cheaper), checks the counts of repeated features, and yields
    the clauses that pass. The filter is exact for these features: the
    candidates are precisely the clauses a linear scan with the same
    feature test would try.
    """

    def __init__(self):
        self._bits: dict[tuple[str, bool], int] = {}
        # mask -> [(clause, ((bit, count), ...) for features repeated in it)]
        self._buckets: dict[int, list[tuple[Clause, tuple]]] = {}

    def insert(self, c: Clause) -> None:
        bits = self._bits
        counts: dict[int, int] = {}
        for lit in c.literals:
            key = (lit.pred.name, lit.positive)
            bit = bits.get(key)
            if bit is None:
                bit = bits[key] = 1 << len(bits)
            counts[bit] = counts.get(bit, 0) + 1
        repeated = tuple((b, n) for b, n in counts.items() if n > 1)
        self._buckets.setdefault(sum(counts), []).append((c, repeated))

    def candidates(self, g: Clause):
        """Indexed clauses whose features all occur in g, often enough."""
        counts: dict[int, int] = {}
        for lit in g.literals:
            bit = self._bits.get((lit.pred.name, lit.positive))
            if bit is not None:  # a feature no indexed clause has rules out nothing
                counts[bit] = counts.get(bit, 0) + 1
        mask = sum(counts)  # the bits are distinct powers of two
        buckets = self._buckets
        if 1 << mask.bit_count() <= len(buckets):
            matching = []
            sub = mask
            while True:
                matching.append(buckets.get(sub, ()))
                if not sub:
                    break
                sub = (sub - 1) & mask
        else:
            matching = [e for m, e in buckets.items() if not m & ~mask]
        for entries in matching:
            for p, repeated in entries:
                if all(counts[b] >= n for b, n in repeated):
                    yield p


# -- the loop ------------------------------------------------------------------


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector for code that makes no reference
    cycles (see the module docstring). On every exit, a raise included,
    the objects made under the pause join the oldest generation, unless
    the caller has frozen objects of its own, and the collector is
    enabled again if it was."""
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    gc.disable()
    try:
        yield
    finally:
        if not frozen:  # a caller's frozen objects stay frozen
            gc.freeze()
            gc.unfreeze()
        if enabled:
            gc.enable()


class Saturation:
    """Mutable search state; single-threaded and deterministic."""

    def __init__(self, problem: Problem, config: SearchConfig,
                 schedule: SelectionSchedule | None = None):
        """`schedule` overrides the one `config.schedule` spells."""
        self.started = time.monotonic()  # the wall limit and wall_ms count from here
        self.problem = problem
        self.config = config
        # every admitted clause's symbols are classified against these once,
        # at admission; the conjrel weights read the classes off its record
        self.conj_symbols = problem.conjecture_symbols()
        # one record per distinct class string: clauses with equal classes
        # share it, and so share its weight folds
        self.records: dict[bytes, SymbolRecord] = {}
        if schedule is None:
            schedule = parse_schedule(config.schedule)
        self.schedule = schedule
        self.processed: list[Clause] = []  # in the processed namespace
        self.clauses: dict[int, Clause] = {}  # every admitted clause, by id
        self.generated = 0
        self.discarded_given = 0
        self.seen_keys: set[tuple] = set()
        self.empty_clause_id: int | None = None
        self.resource: str | None = None
        self.lossy = False  # a size-capped clause was dropped: saturation
        # can no longer certify satisfiability
        # resolution partners share a (predicate, opposite polarity) literal;
        # indexing processed clauses by literal key keeps steps near-linear
        self._lit_index: dict[tuple[str, bool], list[Clause]] = {}
        self._seq: dict[int, int] = {}  # clause id -> processed position
        self._subsumers = SubsumerIndex()

        inputs = [Clause(c.id, c.literals, role=c.role, origin=c.origin)
                  for c in problem.clauses()]
        self.next_id = max((c.id for c in inputs), default=-1) + 1
        for name, lits in equality_axioms(problem):
            inputs.append(Clause(self.next_id, lits, role=ROLE_AXIOM,
                                 rule=RULE_EQ_AXIOM, origin=name))
            self.next_id += 1
        # inputs are keyed and classified as derived clauses are (`_admit`),
        # but every one is inserted, duplicates of each other included
        for c in inputs:
            self.clauses[c.id] = c
            key, classes = canonical_key(c.literals, self.conj_symbols)
            self.seen_keys.add(key)
            c.symbols = self._record(classes)
            if c.is_empty and self.empty_clause_id is None:
                self.empty_clause_id = c.id
            self.schedule.insert(c)

    def _record(self, classes: bytes) -> SymbolRecord:
        """The search's one record for the class string `classes`."""
        record = self.records.get(classes)
        if record is None:
            record = self.records[classes] = SymbolRecord(classes)
        return record

    # -- one step -------------------------------------------------------------

    def _forward_subsumed(self, g: Clause) -> bool:
        return any(subsumes(p, g) for p in self._subsumers.candidates(g))

    def _partners(self, g: Clause) -> list[Clause]:
        """Processed clauses sharing a complementary literal key, in
        processed order (g included when it self-resolves). Each index
        list is in processed order already, so one list comes back as it
        is, not to be changed; only several are merged and sorted."""
        index = self._lit_index
        lists = []
        for key in {(lit.pred.name, not lit.positive) for lit in g.literals}:
            found = index.get(key)
            if found:
                lists.append(found)
        if len(lists) == 1:
            return lists[0]
        seen: set[int] = set()
        out = []
        for found in lists:
            for p in found:
                if p.id not in seen:
                    seen.add(p.id)
                    out.append(p)
        out.sort(key=lambda p: self._seq[p.id])
        return out

    def step(self) -> str:
        """Process one given clause; redundant picks are skipped internally."""
        while True:
            g = self.schedule.pop_next()
            if g is None:
                return SATURATED
            # derived clauses passed the tautology check on admission
            if ((g.role != ROLE_DERIVED and is_tautology(g))
                    or self._forward_subsumed(g)):
                self.discarded_given += 1
                continue
            break

        kept, g = normalize_variables_twice(g, PROCESSED_NAMESPACE, GIVEN_NAMESPACE)
        self._seq[g.id] = len(self.processed)
        self.processed.append(kept)
        self._subsumers.insert(kept)
        for key in {(lit.pred.name, lit.positive) for lit in g.literals}:
            self._lit_index.setdefault(key, []).append(kept)

        # the generated cap, checked before each partner too: one clause
        # pair can otherwise blow far past the budget before the loop looks
        # again
        gen_cap = self.config.max_generated
        if gen_cap is None:
            gen_cap = math.inf
        for p in self._partners(g):
            if self.generated >= gen_cap:
                return CONTINUE  # the loop-level limit check reports it
            made = resolve(g, p)
            if not made:
                continue
            parents, goal = (g.id, p.id), g.goal_descendant or p.goal_descendant
            for lits, tautology in made:
                if self._admit(lits, tautology, parents, RULE_RESOLVE, goal):
                    return PROOF_FOUND
        if self.generated < gen_cap:
            for lits, tautology in factor(g):
                if self._admit(lits, tautology, (g.id,), RULE_FACTOR, g.goal_descendant):
                    return PROOF_FOUND
        return CONTINUE

    def _admit(self, lits: tuple[Literal, ...], tautology: bool, parents: tuple[int, ...],
               rule: str, goal_descendant: bool) -> bool:
        """Enqueue a derived clause unless it is redundant; returns True on
        the empty clause. `goal_descendant` says whether a parent descends
        from the goal.

        The checks read the bare literals, in this order: the size cap (a
        capped clause makes the search lossy), the tautology flag, the
        duplicate key. Only a clause that passes them all, or the empty
        clause, becomes a `Clause` (built unchecked, as `derived_clause`),
        with the search's record for its class string, built if it is the
        first clause with it; every generated clause takes an id, so ids do
        not depend on what is dropped.
        """
        self.generated += 1
        cid = self.next_id
        self.next_id += 1
        if lits:
            cap = self.config.max_clause_literals
            if cap is not None and len(lits) > cap:
                self.lossy = True
                return False
            if tautology:
                return False
            key, classes = canonical_key(lits, self.conj_symbols)
            seen = self.seen_keys
            known = len(seen)
            seen.add(key)  # one hash of the key, where `in` then `add` take two
            if len(seen) == known:
                return False
            # the record the weights read, from the walk that made the key
            record = self._record(classes)
        else:
            record = None
        c = self.clauses[cid] = derived_clause(cid, lits, parents, rule, goal_descendant, record)
        if not lits:
            self.empty_clause_id = cid
            return True
        self.schedule.insert(c)
        return False

    # -- limits ---------------------------------------------------------------

    def hit_limit(self) -> str | None:
        """The limit of the config reached, if any: processed, generated
        or time, the wall limit counting from the start of the search."""
        config = self.config
        if config.max_processed is not None and len(self.processed) >= config.max_processed:
            return "processed"
        if config.max_generated is not None and self.generated >= config.max_generated:
            return "generated"
        if config.max_wall_ms is not None \
                and time.monotonic() - self.started >= config.max_wall_ms / 1000.0:
            return "time"
        return None

    def run(self) -> str:
        """Run until proof, saturation, or a limit of `self.config`; returns
        PROOF_FOUND, SATURATED or LIMIT (naming the limit in `resource`). A
        proof, even one among the input clauses, wins over any limit."""
        # the search makes no reference cycles: pause the cyclic collector,
        # which would only walk live clauses (see the module docstring)
        with collector_paused():
            while True:
                if self.empty_clause_id is not None:
                    return PROOF_FOUND
                limit = self.hit_limit()
                if limit is not None:
                    self.resource = limit
                    return LIMIT
                if self.step() == SATURATED:
                    return SATURATED

    # -- results ----------------------------------------------------------------

    def build_proof(self) -> Proof:
        """The derivation of the empty clause: a `ProofNode` for each
        clause it uses, read off the admitted clauses."""
        assert self.empty_clause_id is not None
        derivation: dict[int, ProofNode] = {}
        stack = [self.empty_clause_id]
        while stack:
            cid = stack.pop()
            if cid not in derivation:
                c = self.clauses[cid]
                derivation[cid] = ProofNode(c, c.parents, c.rule)
                stack.extend(c.parents)
        return Proof(self.empty_clause_id, derivation, set(derivation))

    def result(self, outcome: str) -> ProveResult:
        """The SZS status of a search that `run` stopped with `outcome`;
        its selections are the ids of the processed clauses, in order.

        Saturation proves satisfiability only when no generated clause
        was dropped for its size: otherwise it ends as ResourceOut with
        resource `clause_size`.
        """
        resource = None
        if outcome == PROOF_FOUND:
            status = UNSAT
        elif outcome == SATURATED and not self.lossy:
            status = SAT
        else:
            status = RESOURCE_OUT
            resource = "clause_size" if outcome == SATURATED else self.resource
        return ProveResult(
            status=status,
            proof=self.build_proof() if status == UNSAT else None,
            processed_count=len(self.processed),
            generated_count=self.generated,
            wall_ms=int((time.monotonic() - self.started) * 1000),
            resource=resource,
            selections=([c.id for c in self.processed]
                        if self.config.record_selections else None),
            state=self,
        )


def prove(problem: Problem, config: SearchConfig | None = None,
          schedule: SelectionSchedule | None = None) -> ProveResult:
    """Saturate until proof, saturation, or resource limits; `schedule`
    overrides the one `config.schedule` spells."""
    state = Saturation(problem, config or SearchConfig(), schedule)
    return state.result(state.run())


# -- verification ---------------------------------------------------------------


def verify_proof_detailed(proof: Proof, problem: Problem) -> tuple[bool, str | None]:
    """Replay every derivation edge and check leaves against the input.

    Leaves must be variants of input clauses (or of the equality axioms
    this problem induces); internal nodes must be variants of some result
    of re-running their recorded rule on their recorded parents.
    """
    inputs = list(problem.clauses())
    eq_inputs = [
        Clause(10_000_000 + i, lits, role=ROLE_AXIOM, origin=name)
        for i, (name, lits) in enumerate(equality_axioms(problem))
    ]
    leaf_pool = inputs + eq_inputs

    for cid in sorted(proof.used_ids):
        node = proof.derivation.get(cid)
        if node is None:
            return False, f"clause {cid} missing from derivation"
        if node.rule in (RULE_INPUT, RULE_EQ_AXIOM):
            if node.parents:
                return False, f"leaf {cid} has parents"
            if not any(is_variant(node.clause, c) for c in leaf_pool):
                return False, f"leaf {cid} is not an input clause"
            continue
        if any(p >= cid for p in node.parents):
            return False, f"clause {cid} does not postdate its parents"
        parent_clauses = []
        for p in node.parents:
            pnode = proof.derivation.get(p)
            if pnode is None:
                return False, f"clause {cid}: parent {p} missing"
            parent_clauses.append(pnode.clause)
        if node.rule == RULE_RESOLVE:
            if len(parent_clauses) != 2:
                return False, f"clause {cid}: res needs 2 parents"
            candidates = resolve(*standardized_apart(*parent_clauses))
        elif node.rule == RULE_FACTOR:
            if len(parent_clauses) != 1:
                return False, f"clause {cid}: factor needs 1 parent"
            candidates = factor(parent_clauses[0])
        else:
            return False, f"clause {cid}: unknown rule {node.rule!r}"
        target = node.clause
        matched = False
        for lits, _ in candidates:
            if not lits and target.is_empty:
                matched = True
                break
            if lits and not target.is_empty:
                cand = Clause(1, lits, role=ROLE_DERIVED, parents=(0,), rule=node.rule)
                if is_variant(cand, target):
                    matched = True
                    break
        if not matched:
            return False, f"clause {cid}: conclusion not reproducible by {node.rule}"
    return True, None
