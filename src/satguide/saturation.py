"""The given-clause saturation loop, proofs, and an independent verifier.

Two clause sets are maintained: processed and unprocessed (the latter
lives inside the selection schedule's rankings). Each step the schedule
yields a given clause g; g is dropped if tautological or forward-subsumed
by a processed clause, otherwise all resolvents of g against the
processed set (g included, covering self-resolution) and all factors of g
are generated, and g joins the processed set. Deriving the empty clause
terminates with a proof.

Standardizing apart happens once per clause, not once per resolution
pair: a clause joining the processed set is stored renamed into the
processed namespace (variables P1, P2, ...), and the given clause is
renamed once per step into the given namespace (G1, G2, ...). Every pair
handed to `resolve` is so variable-disjoint, self-resolution included,
and variable names never grow with derivation depth. Forward subsumption
looks up candidate subsumers in a `SubsumerIndex` instead of scanning
every processed clause.

Calculus: binary resolution + factoring, tautology deletion, forward
subsumption. Equality is handled by axiom injection (reflexivity,
symmetry, transitivity, congruence per signature symbol) when a problem
mentions `=`. Everything is deterministic: ties break on clause id and
ids increase monotonically with creation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .fol import (
    EQ,
    PREDICATE,
    ROLE_AXIOM,
    ROLE_DERIVED,
    Clause,
    Literal,
    Problem,
    Symbol,
    Term,
    Var,
    canonical_key,
    clause_str,
    normalize_variables,
    symbol_counts,
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

# variable name prefixes of the two namespaces (see the module docstring)
GIVEN_NAMESPACE = "G"
PROCESSED_NAMESPACE = "P"


@dataclass
class SearchConfig:
    schedule: str = "auto"
    schedule_factory: object = None  # callable(Problem) -> SelectionSchedule
    max_processed: int | None = 20_000
    max_generated: int | None = 1_000_000
    max_wall_ms: int | None = 60_000
    max_memory_symbols: int | None = None  # stored symbol occurrences, a memory proxy
    max_clause_literals: int | None = None  # drop longer generated clauses
    equality_axioms: str = "auto"  # auto | always | never
    forward_subsumption: bool = True
    tautology_deletion: bool = True
    record_selections: bool = False

    def build_schedule(self, problem: Problem) -> SelectionSchedule:
        if self.schedule_factory is not None:
            return self.schedule_factory(problem)
        return parse_schedule(self.schedule, problem.conjecture_symbols())


@dataclass
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
    resource: str | None = None  # processed | generated | memory | time | clause_size | premises
    selections: list[int] | None = None
    info: dict = field(default_factory=dict)
    state: object = None  # the Saturation instance, for trace extraction

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


def _wants_equality(problem: Problem, mode: str) -> bool:
    if mode == "never":
        return False
    if mode == "always":
        return True
    return any(s.name == EQ and s.kind == PREDICATE for s in problem.signature)


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


class Saturation:
    """Mutable search state; single-threaded and deterministic."""

    def __init__(self, problem: Problem, config: SearchConfig,
                 schedule: SelectionSchedule | None = None):
        self.problem = problem
        self.config = config
        self.schedule = schedule if schedule is not None else config.build_schedule(problem)
        self.processed: list[Clause] = []  # in the processed namespace
        self.processed_ids: set[int] = set()
        self.nodes: dict[int, ProofNode] = {}
        self.steps = 0
        self.generated = 0
        self.discarded_given = 0
        self.seen_keys: set[tuple] = set()
        self.stored_symbols = 0
        self.selections: list[int] = []
        self.empty_clause_id: int | None = None
        self.resource: str | None = None
        self.lossy = False  # a size-capped clause was dropped: saturation
        # can no longer certify satisfiability
        # resolution partners share a (predicate, opposite polarity) literal;
        # indexing processed clauses by literal key keeps steps near-linear
        self._lit_index: dict[tuple[str, bool], list[Clause]] = {}
        self._seq: dict[int, int] = {}  # clause id -> processed position
        self._subsumers = SubsumerIndex()

        inputs = [
            Clause(i, c.literals, role=c.role, origin=c.origin)
            for i, c in enumerate(problem.clauses())
        ]
        if _wants_equality(problem, config.equality_axioms):
            for name, lits in equality_axioms(problem):
                inputs.append(
                    Clause(len(inputs), lits, role=ROLE_AXIOM, origin=name)
                )
        self.next_id = len(inputs)
        for c in inputs:
            rule = RULE_EQ_AXIOM if (c.origin or "").startswith("eq_") else RULE_INPUT
            self.nodes[c.id] = ProofNode(c, (), rule)
            self.seen_keys.add(canonical_key(c))
            self.stored_symbols += sum(symbol_counts(c))
            if c.is_empty and self.empty_clause_id is None:
                self.empty_clause_id = c.id
            self.schedule.insert(c)

    # -- one step -------------------------------------------------------------

    def _forward_subsumed(self, g: Clause) -> bool:
        return any(subsumes(p, g) for p in self._subsumers.candidates(g))

    def _partners(self, g: Clause) -> list[Clause]:
        """Processed clauses sharing a complementary literal key, in
        processed order (g included when it self-resolves)."""
        seen: set[int] = set()
        out = []
        for lit in g.literals:
            for p in self._lit_index.get((lit.pred.name, not lit.positive), ()):
                if p.id not in seen:
                    seen.add(p.id)
                    out.append(p)
        out.sort(key=lambda p: self._seq[p.id])
        return out

    def step(self) -> str:
        """Process one given clause; redundant picks are skipped internally."""
        if self.empty_clause_id is not None:
            return PROOF_FOUND
        while True:
            g = self.schedule.pop_next()
            if g is None:
                return SATURATED
            if self.config.tautology_deletion and is_tautology(g):
                self.discarded_given += 1
                continue
            if self.config.forward_subsumption and self._forward_subsumed(g):
                self.discarded_given += 1
                continue
            break

        kept = normalize_variables(g, PROCESSED_NAMESPACE)
        self._seq[g.id] = len(self.processed)
        self.processed.append(kept)
        self.processed_ids.add(g.id)
        self._subsumers.insert(kept)
        for key in {(lit.pred.name, lit.positive) for lit in g.literals}:
            self._lit_index.setdefault(key, []).append(kept)
        self.steps += 1
        if self.config.record_selections:
            self.selections.append(g.id)

        g = normalize_variables(g, GIVEN_NAMESPACE)
        for p in self._partners(g):
            if self._generation_exhausted():
                return CONTINUE  # the loop-level limit check reports it
            for lits in resolve(g, p):
                if self._admit(lits, (g.id, p.id), RULE_RESOLVE):
                    return PROOF_FOUND
        if not self._generation_exhausted():
            for lits in factor(g):
                if self._admit(lits, (g.id,), RULE_FACTOR):
                    return PROOF_FOUND
        return CONTINUE

    def _generation_exhausted(self) -> bool:
        """Caps checked mid-step too: one clause pair can otherwise blow
        far past the budget before the loop looks again."""
        cfg = self.config
        if cfg.max_generated is not None and self.generated >= cfg.max_generated:
            return True
        if (cfg.max_memory_symbols is not None
                and self.stored_symbols >= cfg.max_memory_symbols):
            return True
        return False

    def _admit(self, lits: tuple[Literal, ...], parents: tuple[int, ...], rule: str) -> bool:
        """Create and enqueue a derived clause; returns True on empty clause."""
        self.generated += 1
        c = Clause(
            id=self.next_id,
            literals=lits,
            role=ROLE_DERIVED,
            parents=parents,
            rule=rule,
            goal_descendant=any(self.nodes[p].clause.goal_descendant for p in parents),
        )
        self.next_id += 1
        self.nodes[c.id] = ProofNode(c, parents, rule)
        if c.is_empty:
            self.empty_clause_id = c.id
            return True
        cap = self.config.max_clause_literals
        if cap is not None and len(c.literals) > cap:
            self.lossy = True
            return False
        if self.config.tautology_deletion and is_tautology(c):
            return False
        key = canonical_key(c)
        if key in self.seen_keys:
            return False
        self.seen_keys.add(key)
        self.stored_symbols += sum(symbol_counts(c))
        self.schedule.insert(c)
        return False

    # -- limits ---------------------------------------------------------------

    def hit_limit(self, max_processed: int | None, deadline: float | None) -> str | None:
        cfg = self.config
        if max_processed is not None and self.steps >= max_processed:
            return "processed"
        if cfg.max_generated is not None and self.generated >= cfg.max_generated:
            return "generated"
        if cfg.max_memory_symbols is not None and self.stored_symbols >= cfg.max_memory_symbols:
            return "memory"
        if deadline is not None and time.monotonic() >= deadline:
            return "time"
        return None

    def run(self, max_processed: int | None = None, deadline: float | None = None) -> str:
        """Run until proof, saturation, or a limit; returns the stop kind."""
        cap = self.config.max_processed
        if max_processed is not None:
            cap = max_processed if cap is None else min(cap, max_processed)
        while True:
            limit = self.hit_limit(cap, deadline)
            if limit is not None:
                self.resource = limit
                return "limit"
            outcome = self.step()
            if outcome == PROOF_FOUND:
                return PROOF_FOUND
            if outcome == SATURATED:
                return SATURATED

    # -- results ----------------------------------------------------------------

    def build_proof(self) -> Proof:
        assert self.empty_clause_id is not None
        used = set()
        stack = [self.empty_clause_id]
        while stack:
            cid = stack.pop()
            if cid in used:
                continue
            used.add(cid)
            stack.extend(self.nodes[cid].parents)
        derivation = {cid: self.nodes[cid] for cid in used}
        return Proof(self.empty_clause_id, derivation, used)

    def result(self, status: str, t0: float) -> ProveResult:
        proof = self.build_proof() if status == UNSAT else None
        return ProveResult(
            status=status,
            proof=proof,
            processed_count=self.steps,
            generated_count=self.generated,
            wall_ms=int((time.monotonic() - t0) * 1000),
            resource=self.resource if status == RESOURCE_OUT else None,
            selections=self.selections if self.config.record_selections else None,
            state=self,
        )


def prove(problem: Problem, config: SearchConfig | None = None) -> ProveResult:
    """Saturate until proof, saturation, or resource limits."""
    config = config or SearchConfig()
    t0 = time.monotonic()
    state = Saturation(problem, config)
    if state.empty_clause_id is not None:  # degenerate input
        return state.result(UNSAT, t0)
    deadline = None
    if config.max_wall_ms is not None:
        deadline = t0 + config.max_wall_ms / 1000.0
    outcome = state.run(deadline=deadline)
    if outcome == PROOF_FOUND:
        return state.result(UNSAT, t0)
    if outcome == SATURATED:
        if state.lossy:  # dropped clauses: exhaustion proves nothing
            state.resource = "clause_size"
            return state.result(RESOURCE_OUT, t0)
        return state.result(SAT, t0)
    return state.result(RESOURCE_OUT, t0)


# -- labeling support ----------------------------------------------------------


def extract_used_set(proof: Proof, processed: list[Clause]) -> tuple[list[Clause], list[Clause]]:
    """Split processed clauses into proof-used positives and the rest."""
    positives = [c for c in processed if c.id in proof.used_ids]
    negatives = [c for c in processed if c.id not in proof.used_ids]
    return positives, negatives


# -- verification ---------------------------------------------------------------


def verify_proof(proof: Proof, problem: Problem) -> bool:
    ok, _ = verify_proof_detailed(proof, problem)
    return ok


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
        for lits in candidates:
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
