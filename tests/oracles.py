"""Independent test oracles.

`bfs_saturate` decides small problems by exhaustive level-by-level
saturation: every level generates all resolvents of known clauses against
the newest level plus all factors, with only exact-variant
deduplication. No selection heuristic, no subsumption, no deletion;
suitable for the function-free mini corpus where the clause space stays
finite up to renaming.

`string_key` is the printed duplicate key the search used before its
tuple key (`fol.canonical_key`); it stays here as the reference the tuple
key is checked against.
"""

from __future__ import annotations

from dataclasses import replace

from satguide.fol import Clause, Literal, Problem, clause_str, literal_tokens, normalize_variables
from satguide.rules import factor, resolve, standardized_apart
from satguide.saturation import SAT, UNSAT


def string_key(c: Clause) -> str:
    """A printable key equal for clauses that are syntactic variants.

    Literals are sorted under a variable-blind projection (every token
    that starts with an uppercase letter reads as a variable), then
    variables are renamed by first occurrence in that order.
    """
    blind = sorted(range(len(c.literals)), key=lambda i: _blind_str(c.literals[i]))
    reordered = replace(c, literals=tuple(c.literals[i] for i in blind))
    return clause_str(normalize_variables(reordered))


def _blind_str(lit: Literal) -> str:
    toks = literal_tokens(lit)
    return " ".join("_" if t and t[0].isupper() else t for t in toks)


def bfs_saturate(problem: Problem, max_level: int = 30,
                 max_clauses: int = 100_000) -> str:
    clauses: list[Clause] = []
    known: set[str] = set()

    def add_clause(c: Clause) -> bool:
        key = string_key(c)
        if key in known:
            return False
        known.add(key)
        clauses.append(c)
        return True

    for c in problem.clauses():
        add_clause(Clause(len(clauses), c.literals, role=c.role, origin=c.origin))
    if any(c.is_empty for c in clauses):
        return UNSAT

    nid = len(clauses)
    frontier = list(clauses)
    for _ in range(max_level):
        fresh: list[Clause] = []

        def emit(lits) -> bool:
            nonlocal nid
            c = Clause(nid, tuple(lits), role="derived", parents=(0,), rule="res")
            nid += 1
            if add_clause(c):
                fresh.append(c)
                return c.is_empty
            return False

        snapshot = list(clauses)
        for b in frontier:
            for a in snapshot:
                for lits in resolve(*standardized_apart(a, b)):
                    if emit(lits):
                        return UNSAT
            for lits in factor(b):
                if emit(lits):
                    return UNSAT
        if not fresh:
            return SAT
        if len(clauses) > max_clauses:
            raise RuntimeError("oracle blew its clause budget")
        frontier = fresh
    raise RuntimeError("oracle did not converge within the level budget")
