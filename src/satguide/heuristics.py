"""Clause weight functions and weighted round-robin selection schedules.

Each schedule entry keeps its own priority ranking over all unprocessed
clauses; selection cycles the entries, consuming `weight` picks from
each. An entry keys the clauses inserted since its last turn in one
batch when its turn comes, so every weight function, the network's
included, sees batches. A popped clause disappears from every entry's
ranking (global tombstoning via the shared alive set). A weight function
weighs clauses only through `batch_keys`. The symbol-based weights read
each clause's `SymbolRecord`, which the search's one key walk
(`fol.canonical_key`) built at admission against the problem's
conjecture symbols; entries with the same class weights share one fold
per clause, and every entry computes its tiers in line. Building a
schedule needs no problem: the search supplies the conjecture through
the records, so a spec string and the schedule `parse_schedule` builds
from it give one search.

A ranking is bucketed: a heap of the distinct (tier, weight) keys, and
for each key a heap of the ids of the clauses that have it. Many clauses
share a key (FIFO keys every clause (0, 0.0), so it is one bucket), and
an insertion is then a dict hit and an int push. Lower weight is better
everywhere; ties break toward the lowest clause id inside the bucket,
whatever order the clauses were inserted in, so a pick is the least
(tier, weight, id) of the live clauses, and when a clause is keyed never
changes which is picked.

The tier is a coarse boolean priority computed per clause, our reduction
of E-style priority wrappers: `sos` prefers descendants of the negated
conjecture, `nongoals` prefers clauses whose role is not the negated
conjecture, `const` is flat.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce
from heapq import heappop, heappush
from operator import add

from .fol import ROLE_NEGATED_CONJECTURE, Clause, symbol_record

TIER_CONST = "const"
TIER_SOS = "sos"
TIER_NONGOALS = "nongoals"


def _tiers(flavor: str, clauses: list[Clause]) -> list[int]:
    if flavor == TIER_SOS:
        return [0 if c.goal_descendant else 1 for c in clauses]
    if flavor == TIER_NONGOALS:
        return [0 if c.role != ROLE_NEGATED_CONJECTURE else 1 for c in clauses]
    return [0] * len(clauses)


# -- weight functions ----------------------------------------------------------


def _class_weights(fw: float, vw: float, mult: float) -> tuple[float, float, float]:
    """The weight of an occurrence, by symbol class."""
    return (vw, fw * mult, fw)


class WeightFunction:
    """(tier, weight) ranking keys for a batch of clauses, each key
    deterministic per clause."""

    def batch_keys(self, clauses: list[Clause]) -> list[tuple[int, float]]:
        raise NotImplementedError


FIFO_KEY = (0, 0.0)


@dataclass
class FifoWeightFn(WeightFunction):
    """Creation order: every clause gets one key, and the clause id that
    breaks ties in a ranking orders them."""

    def batch_keys(self, clauses: list[Clause]) -> list[tuple[int, float]]:
        return [FIFO_KEY] * len(clauses)


@dataclass
class SymbolCountWeightFn(WeightFunction):
    """Symbol-count weight: fweight per function/predicate occurrence,
    vweight per variable, read off each clause's symbol record."""

    fweight: float = 2.0
    vweight: float = 1.0
    tier: str = TIER_CONST

    def batch_keys(self, clauses: list[Clause]) -> list[tuple[int, float]]:
        fw, vw = self.fweight, self.vweight
        records = [c.symbols or symbol_record(c) for c in clauses]
        weights = [fw * rec.fp + vw * rec.vars for rec in records]
        return list(zip(_tiers(self.tier, clauses), weights))


@dataclass
class ConjectureRelativeWeightFn(WeightFunction):
    """Symbol-count weight with conjecture symbols discounted, read off
    each clause's symbol record.

    Function/predicate occurrences whose symbol appears in the negated
    conjecture (CONJ_CLASS in the record) count base_fw * conj_multiplier
    instead of base_fw.

    The per-occurrence terms are added one at a time in walk order, a
    left fold from 0.0. With a multiplier like 0.1 the partial sums
    round, and the closed form `vw*vars + fw*mult*conj + fw*other` would
    give other bits and so another search. The record keeps each fold, so
    entries with the same class weights share one fold per clause.
    """

    base_fw: float = 2.0
    base_vw: float = 1.0
    conj_multiplier: float = 0.5
    tier: str = TIER_CONST

    def batch_keys(self, clauses: list[Clause]) -> list[tuple[int, float]]:
        terms = _class_weights(self.base_fw, self.base_vw, self.conj_multiplier)
        weight = terms.__getitem__
        weights = []
        for c in clauses:
            rec = c.symbols or symbol_record(c)
            folds = rec.folds
            w = folds.get(terms)
            if w is None:
                w = folds[terms] = reduce(add, map(weight, rec.classes), 0.0)
            weights.append(w)
        return list(zip(_tiers(self.tier, clauses), weights))


# -- schedules -----------------------------------------------------------------


@dataclass
class ScheduleEntry:
    """One weight function's bucketed ranking (see the module docstring).

    `keys` is a heap of the distinct (tier, weight) keys that have a
    bucket; `buckets` maps each to a heap of clause ids. Ids of clauses
    picked elsewhere stay in their bucket until they reach its top, and
    a bucket leaves both when it runs empty.
    """

    weight: int
    fn: WeightFunction
    keys: list = field(default_factory=list)
    buckets: dict = field(default_factory=dict)
    staging: list = field(default_factory=list)  # inserted, not yet keyed

    def flush(self, alive: dict[int, Clause]):
        """Key the staged clauses in one batch; ones already picked
        elsewhere are dropped unkeyed."""
        if self.staging:
            pending = [c for c in self.staging if c.id in alive]
            self.staging.clear()
            buckets, keys = self.buckets, self.keys
            for c, k in zip(pending, self.fn.batch_keys(pending)):
                bucket = buckets.get(k)
                if bucket is None:
                    buckets[k] = [c.id]
                    heappush(keys, k)
                else:
                    heappush(bucket, c.id)

    def pop(self, alive: dict[int, Clause]) -> int | None:
        """The id of the least (tier, weight, id) live clause, removed from
        the ranking; None when no live clause is left in it."""
        keys, buckets = self.keys, self.buckets
        while keys:
            k = keys[0]
            bucket = buckets[k]
            while bucket:
                cid = heappop(bucket)
                if cid in alive:
                    if not bucket:
                        del buckets[k]
                        heappop(keys)
                    return cid
            del buckets[k]
            heappop(keys)
        return None


class SelectionSchedule:
    """Weighted round-robin over per-entry rankings of unprocessed clauses."""

    def __init__(self, entries: list[tuple[int, WeightFunction]]):
        if not entries:
            raise ValueError("schedule needs at least one entry")
        for w, _ in entries:
            if w <= 0:
                raise ValueError("entry weights must be positive")
        self.entries = [ScheduleEntry(w, fn) for w, fn in entries]
        self.alive: dict[int, Clause] = {}
        self._cursor = 0
        self._remaining = self.entries[0].weight
        self.pick_counts = [0] * len(self.entries)

    def __len__(self) -> int:
        return len(self.alive)

    def insert(self, c: Clause):
        if c.id in self.alive:
            return
        self.alive[c.id] = c
        for entry in self.entries:
            entry.staging.append(c)

    def retire_first(self):
        """Drop the first entry and its ranking; the others keep theirs,
        and the cycle starts over at the new first entry."""
        del self.entries[0], self.pick_counts[0]
        self._cursor = 0
        self._remaining = self.entries[0].weight

    def _advance(self):
        self._cursor = (self._cursor + 1) % len(self.entries)
        self._remaining = self.entries[self._cursor].weight

    def pop_next(self) -> Clause | None:
        """Next clause under the cursor; None when everything is empty.

        An entry whose ranking is empty at its turn is skipped, shrinking
        the cycle for that round.
        """
        if not self.alive:
            return None
        skipped = 0
        while skipped <= len(self.entries):
            if self._remaining <= 0:
                self._advance()
            entry = self.entries[self._cursor]
            entry.flush(self.alive)
            cid = entry.pop(self.alive)
            if cid is None:
                self._remaining = 0
                skipped += 1
                continue
            self._remaining -= 1
            self.pick_counts[self._cursor] += 1
            return self.alive.pop(cid)
        return None


# -- schedule spec strings -----------------------------------------------------

# Structural replicas of E's Auto208 hybrid and its Auto200 sibling. The
# Auto208 entries: conjecture-relative with SOS tier, conjecture-relative
# const-prio, FIFO, conjecture-relative preferring non-goals, and a plain
# symbol-count with SOS tier standing in for the refined weight. The
# conjecture multipliers (0.5, 0.1, 0.5) and the (3,2) symbol weights come
# from the published parameter tuples; the remaining parameters are not
# replicated.
AUTO208 = ("1*conjrel(2,1,0.5,sos),4*conjrel(2,1,0.1,const),1*fifo,"
           "1*conjrel(2,1,0.5,nongoals),4*symcount(3,2,sos)")
AUTO200 = ("1*conjrel(2,1,0.5,sos),6*conjrel(2,1,0.1,const),2*fifo,"
           "1*conjrel(2,1,0.5,nongoals),8*symcount(1,1,sos)")
STOCK_SCHEDULES = {"auto": AUTO208, "auto208": AUTO208, "auto200": AUTO200}

_ENTRY_RE = re.compile(r"^(\d+)\*([a-z0-9_]+)(?:\(([^)]*)\))?$")
# a comma outside parentheses: arguments never nest
_ENTRY_SEP = re.compile(r",(?![^(]*\))")
_MAX_ARGS = {"fifo": 0, "symcount": 3, "conjrel": 4}  # the last one is the tier


def parse_schedule(spec: str) -> SelectionSchedule:
    """Build a schedule from a spec string like `1*fifo,4*symcount(2,1)`.

    Grammar: comma-separated `N*name` or `N*name(args)` entries with
      fifo                       age order
      symcount(fw,vw[,tier])     symbol-count weight
      conjrel(fw,vw,mult[,tier]) conjecture-relative weight
    tier is one of const|sos|nongoals. The shorthands `auto`, `auto208`
    and `auto200` name the specs in STOCK_SCHEDULES. An unknown name or
    tier, a surplus argument or an unbalanced parenthesis raises
    ValueError. `conjrel` reads the conjecture from each clause's symbol
    record, so the schedule serves any problem.
    """
    spec = spec.strip()
    spec = STOCK_SCHEDULES.get(spec, spec)
    entries: list[tuple[int, WeightFunction]] = []
    for raw in _ENTRY_SEP.split(spec):
        raw = raw.strip()
        m = _ENTRY_RE.match(raw)
        if not m:
            raise ValueError(f"bad schedule entry {raw!r}")
        weight, name, argstr = int(m.group(1)), m.group(2), m.group(3)
        args = [a.strip() for a in argstr.split(",")] if argstr else []
        entries.append((weight, _make_fn(name, args)))
    return SelectionSchedule(entries)


def _make_fn(name, args) -> WeightFunction:
    most = _MAX_ARGS.get(name)
    if most is None:
        raise ValueError(f"unknown weight function {name!r}")
    if len(args) > most:
        raise ValueError(f"{name} takes at most {most} arguments, got {len(args)}")
    if name == "fifo":
        return FifoWeightFn()
    fw = float(args[0]) if args else 2.0
    vw = float(args[1]) if len(args) > 1 else 1.0
    tier = args[-1] if len(args) == most else TIER_CONST
    if tier not in (TIER_CONST, TIER_SOS, TIER_NONGOALS):
        raise ValueError(f"unknown tier {tier!r}")
    if name == "symcount":
        return SymbolCountWeightFn(fw, vw, tier)
    mult = float(args[2]) if len(args) > 2 else 0.5
    return ConjectureRelativeWeightFn(fw, vw, mult, tier)
