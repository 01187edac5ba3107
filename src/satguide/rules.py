"""Inference rules and redundancy checks.

Binary resolution plus factoring (its completeness partner), syntactic
tautology detection, and subsumption via multiset-injective literal
matching. Rules return bare literal tuples, exact duplicate literals
merged; the saturation loop checks them and wraps the ones it admits into
clauses with ids and provenance. Asked to, `resolve` and `factor` flag
each tautology too, from the same hash pass that merges the duplicates.

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


def resolve(c1: Clause, c2: Clause, flag_tautologies: bool = False) -> list:
    """All binary resolvents of c1 and c2, which must share no variable.

    Nothing is renamed here: a shared variable would be read as one
    variable of both clauses and lose resolvents. To resolve a clause
    with itself, or any pair that may overlap, pass the copies from
    `standardized_apart`. For each complementary pair with unifiable
    atoms the resolvent collects the remaining literals under the mgu,
    exact duplicates merged. With `flag_tautologies` each resolvent comes
    as a pair (literals, is it a tautology?), both from one hash pass.
    """
    lits1, lits2 = c1.literals, c2.literals
    out = []
    for i, li in enumerate(lits1):
        pred, positive = li.pred, li.positive
        for j, lj in enumerate(lits2):
            if lj.positive == positive or lj.pred is not pred:
                continue
            sub = unify_atoms(li, lj)
            if sub is None:
                continue
            rest = lits1[:i] + lits1[i + 1 :] + lits2[:j] + lits2[j + 1 :]
            merged = _merged(apply_sub_literals(rest, sub))
            out.append(merged if flag_tautologies else merged[0])
    return out


def factor(c: Clause, flag_tautologies: bool = False) -> list:
    """Factors of c: merge each unifiable same-polarity literal pair.
    `flag_tautologies` as for `resolve`."""
    out = []
    lits = c.literals
    for i in range(len(lits)):
        pred, positive = lits[i].pred, lits[i].positive
        for j in range(i + 1, len(lits)):
            lj = lits[j]
            if lj.positive != positive or lj.pred is not pred:
                continue
            sub = unify_atoms(lits[i], lj)
            if sub is None:
                continue
            rest = lits[:j] + lits[j + 1 :]
            merged = _merged(apply_sub_literals(rest, sub))
            out.append(merged if flag_tautologies else merged[0])
    return out


def _merged(lits: tuple[Literal, ...]) -> tuple[tuple[Literal, ...], bool]:
    """(`lits` without exact duplicates, first occurrences kept; does it
    hold a literal and its negation?), from one hash of each atom; the
    two atoms of a 2-literal tuple are compared directly."""
    n = len(lits)
    if n < 2:
        return lits, False
    if n == 2:
        l0, l1 = lits
        if l0.pred is not l1.pred or l0.args != l1.args:
            return lits, False
        if l0.positive == l1.positive:
            return (l0,), False
        return lits, True
    first: dict[tuple, int] = {}  # atom -> position in out of its first literal
    out: list[Literal] = []
    tautology = False
    for l in lits:
        k = first.setdefault((l.pred, l.args), len(out))
        if k == len(out):
            out.append(l)
            continue
        if out[k].positive == l.positive:
            continue
        # the complement of an atom already kept: rare, so look it up plainly
        tautology = True
        if not any(o.positive == l.positive and o.pred is l.pred and o.args == l.args
                   for o in out[k + 1 :]):
            out.append(l)
    return (lits if len(out) == len(lits) else tuple(out)), tautology


def is_tautology(c: Clause) -> bool:
    """True when the clause contains a literal and its exact negation."""
    return _merged(c.literals)[1]


def subsumes(general: Clause, specific: Clause) -> bool:
    """Does a substitution map general's literals injectively into specific's?

    Multiset-injective: two literals of `general` may not share a target
    literal in `specific`. Standard clause subsumption; `general` makes
    `specific` redundant. The clauses may share variables: matching binds
    only variables of `general` and never looks through a binding, so a
    variable of `specific` always stands for itself.

    Each pattern literal first collects the target literals it matches on
    its own; one with none rules subsumption out. The search then binds
    the pattern literals with the fewest candidates first and backtracks
    over those candidates only.
    """
    patterns = general.literals
    targets = specific.literals
    if len(patterns) > len(targets):
        return False
    candidates = []
    for p in patterns:
        js = [j for j, t in enumerate(targets) if match_literals(p, t) is not None]
        if not js:
            return False
        candidates.append((p, js))
    candidates.sort(key=lambda entry: len(entry[1]))
    return _assign(candidates, targets, 0, 0, {})


def _assign(candidates: list, targets: tuple[Literal, ...], i: int, used: int, sub) -> bool:
    """Can the pattern literals `candidates[i:]` be bound to distinct
    targets outside the bitmask `used`, extending `sub`?"""
    if i == len(candidates):
        return True
    p, js = candidates[i]
    for j in js:
        if used & (1 << j):
            continue
        ext = match_literals(p, targets[j], sub)
        if ext is not None and _assign(candidates, targets, i + 1, used | (1 << j), ext):
            return True
    return False


def is_variant(c1: Clause, c2: Clause) -> bool:
    """Equal up to variable renaming (mutual subsumption, equal length)."""
    return (
        len(c1.literals) == len(c2.literals)
        and subsumes(c1, c2)
        and subsumes(c2, c1)
    )
