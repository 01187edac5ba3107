"""Inference rules and redundancy checks.

Binary resolution plus factoring (its completeness partner), syntactic
tautology detection, and subsumption via multiset-injective literal
matching. Rules return bare literal tuples; the saturation loop wraps
them into clauses with ids and provenance.

`resolve` expects variable-disjoint clauses and renames nothing: the
saturation loop keeps every processed clause and the given clause in
disjoint variable namespaces, and other callers get disjoint copies from
`standardized_apart`. Matching (subsumption, variants) never substitutes
into its target, so it needs no renaming at all.
"""

from __future__ import annotations

from .fol import Clause, Literal, rename_clause_apart
from .unify import (
    apply_sub_literals,
    match_literals,
    unify_atoms,
)

RULE_RESOLVE = "res"
RULE_FACTOR = "factor"


def standardized_apart(c1: Clause, c2: Clause) -> tuple[Clause, Clause]:
    """Copies of c1 and c2 that share no variable, for `resolve`."""
    return rename_clause_apart(c1, "_l"), rename_clause_apart(c2, "_r")


def resolve(c1: Clause, c2: Clause) -> list[tuple[Literal, ...]]:
    """All binary resolvents of c1 and c2, which must share no variable.

    Nothing is renamed here: a shared variable would be read as one
    variable of both clauses and lose resolvents. To resolve a clause
    with itself, or any pair that may overlap, pass the copies from
    `standardized_apart`. For each complementary pair with unifiable
    atoms the resolvent collects the remaining literals under the mgu.
    """
    lits1, lits2 = c1.literals, c2.literals
    out = []
    for i, li in enumerate(lits1):
        for j, lj in enumerate(lits2):
            if li.positive == lj.positive:
                continue
            sub = unify_atoms(li, lj)
            if sub is None:
                continue
            rest = lits1[:i] + lits1[i + 1 :] + lits2[:j] + lits2[j + 1 :]
            out.append(_merged(apply_sub_literals(rest, sub)))
    return out


def factor(c: Clause) -> list[tuple[Literal, ...]]:
    """Factors of c: merge each unifiable same-polarity literal pair."""
    out = []
    lits = c.literals
    for i in range(len(lits)):
        for j in range(i + 1, len(lits)):
            if lits[i].positive != lits[j].positive:
                continue
            sub = unify_atoms(lits[i], lits[j])
            if sub is None:
                continue
            rest = lits[:j] + lits[j + 1 :]
            out.append(_merged(apply_sub_literals(rest, sub)))
    return out


def _merged(lits: tuple[Literal, ...]) -> tuple[Literal, ...]:
    """Drop exact duplicate literals, keeping first occurrences."""
    seen = set()
    out = []
    for l in lits:
        key = (l.pred, l.args, l.positive)
        if key not in seen:
            seen.add(key)
            out.append(l)
    return tuple(out)


def is_tautology(c: Clause) -> bool:
    """True when the clause contains a literal and its exact negation."""
    atoms = {}
    for l in c.literals:
        key = (l.pred, l.args)
        if key in atoms and atoms[key] != l.positive:
            return True
        atoms[key] = l.positive
    return False


def subsumes(general: Clause, specific: Clause) -> bool:
    """Does a substitution map general's literals injectively into specific's?

    Multiset-injective: two literals of `general` may not share a target
    literal in `specific`. Standard clause subsumption; `general` makes
    `specific` redundant. The clauses may share variables: matching binds
    only variables of `general` and never looks through a binding, so a
    variable of `specific` always stands for itself.
    """
    patterns = general.literals
    targets = specific.literals
    if len(patterns) > len(targets):
        return False

    def assign(i: int, used: int, sub) -> bool:
        if i == len(patterns):
            return True
        for j, t in enumerate(targets):
            if used & (1 << j):
                continue
            ext = match_literals(patterns[i], t, sub)
            if ext is not None and assign(i + 1, used | (1 << j), ext):
                return True
        return False

    return assign(0, 0, {})


def is_variant(c1: Clause, c2: Clause) -> bool:
    """Equal up to variable renaming (mutual subsumption, equal length)."""
    return (
        len(c1.literals) == len(c2.literals)
        and subsumes(c1, c2)
        and subsumes(c2, c1)
    )
