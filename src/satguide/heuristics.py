"""Clause weight functions and weighted round-robin selection schedules.

Each schedule entry keeps its own priority ranking (a lazy heap keyed by
(tier, weight, id)) over all unprocessed clauses; selection cycles the
entries, consuming `weight` picks from each. A popped clause disappears
from every entry's ranking (global tombstoning via the shared alive set).
Lower weight is better everywhere; ties break toward the lowest clause id.

The tier is a coarse boolean priority computed per clause, our reduction
of E-style priority wrappers: `sos` prefers descendants of the negated
conjecture, `nongoals` prefers clauses whose role is not the negated
conjecture, `const` is flat.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field

from .fol import ROLE_NEGATED_CONJECTURE, Clause, Symbol, clause_symbols, symbol_counts

TIER_CONST = "const"
TIER_SOS = "sos"
TIER_NONGOALS = "nongoals"


def _tier(flavor: str, c: Clause) -> int:
    if flavor == TIER_SOS:
        return 0 if c.goal_descendant else 1
    if flavor == TIER_NONGOALS:
        return 0 if c.role != ROLE_NEGATED_CONJECTURE else 1
    return 0


# -- weight functions ----------------------------------------------------------


def fifo_weight(c: Clause) -> float:
    """Creation order; the first input clause weighs 0."""
    return float(c.age)


def symbol_count_weight(c: Clause, fweight: float = 2.0, vweight: float = 1.0) -> float:
    """fweight per function/predicate occurrence, vweight per variable."""
    fp, v = symbol_counts(c)
    return fweight * fp + vweight * v


def conjecture_relative_weight(
    c: Clause,
    conj_symbols: set[Symbol],
    base_fw: float = 2.0,
    base_vw: float = 1.0,
    conj_multiplier: float = 0.5,
) -> float:
    """Symbol-count weight with conjecture symbols discounted.

    Function/predicate occurrences whose symbol appears in the negated
    conjecture count base_fw * conj_multiplier instead of base_fw.
    """
    total = 0.0
    for s in clause_symbols(c):
        if s.kind == "variable":
            total += base_vw
        elif s in conj_symbols:
            total += base_fw * conj_multiplier
        else:
            total += base_fw
    return total


class WeightFunction:
    """(tier, weight) ranking key provider. Deterministic per clause."""

    name = "weight"
    lazy = False  # lazy functions batch their keys (neural scoring)

    def key(self, c: Clause) -> tuple[int, float]:
        raise NotImplementedError

    def batch_keys(self, clauses: list[Clause]) -> list[tuple[int, float]]:
        return [self.key(c) for c in clauses]


@dataclass
class FifoWeightFn(WeightFunction):
    name: str = "fifo"

    def key(self, c: Clause) -> tuple[int, float]:
        return (0, fifo_weight(c))


@dataclass
class SymbolCountWeightFn(WeightFunction):
    fweight: float = 2.0
    vweight: float = 1.0
    tier: str = TIER_CONST

    @property
    def name(self) -> str:
        return f"symcount({self.fweight:g},{self.vweight:g})"

    def key(self, c: Clause) -> tuple[int, float]:
        return (_tier(self.tier, c), symbol_count_weight(c, self.fweight, self.vweight))


@dataclass
class ConjectureRelativeWeightFn(WeightFunction):
    conj_symbols: frozenset[Symbol] = frozenset()
    base_fw: float = 2.0
    base_vw: float = 1.0
    conj_multiplier: float = 0.5
    tier: str = TIER_CONST

    @property
    def name(self) -> str:
        return f"conjrel({self.base_fw:g},{self.base_vw:g},{self.conj_multiplier:g},{self.tier})"

    def key(self, c: Clause) -> tuple[int, float]:
        w = conjecture_relative_weight(
            c, self.conj_symbols, self.base_fw, self.base_vw, self.conj_multiplier
        )
        return (_tier(self.tier, c), w)


# -- schedules -----------------------------------------------------------------


@dataclass
class ScheduleEntry:
    weight: int
    fn: WeightFunction
    heap: list = field(default_factory=list)
    staging: list = field(default_factory=list)

    def add(self, c: Clause):
        if self.fn.lazy:
            self.staging.append(c)
        else:
            heapq.heappush(self.heap, (*self.fn.key(c), c.id))

    def flush(self, alive: dict[int, Clause]):
        """Score pending clauses; ones already picked elsewhere are dropped."""
        if self.staging:
            pending = [c for c in self.staging if c.id in alive]
            self.staging.clear()
            for c, k in zip(pending, self.fn.batch_keys(pending)):
                heapq.heappush(self.heap, (*k, c.id))


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

    @property
    def cycle_length(self) -> int:
        return sum(e.weight for e in self.entries)

    def insert(self, c: Clause):
        if c.id in self.alive:
            return
        self.alive[c.id] = c
        for entry in self.entries:
            entry.add(c)

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
            heap = entry.heap
            while heap and heap[0][2] not in self.alive:
                heapq.heappop(heap)
            if not heap:
                self._remaining = 0
                skipped += 1
                continue
            _, _, cid = heapq.heappop(heap)
            self._remaining -= 1
            self.pick_counts[self._cursor] += 1
            return self.alive.pop(cid)
        return None

    def drain_ids(self) -> list[int]:
        """Alive clause ids in increasing order (for schedule handoff)."""
        return sorted(self.alive)


# -- stock schedules -----------------------------------------------------------


def auto_schedule(conj_symbols: set[Symbol] | frozenset[Symbol] = frozenset()) -> SelectionSchedule:
    """Structural replica of the Auto208 hybrid: weights (1,4,1,1,4).

    Entries: conjecture-relative with SOS tier, conjecture-relative
    const-prio, FIFO, conjecture-relative preferring non-goals, and a
    plain symbol-count with SOS tier standing in for the refined weight.
    The conjecture multipliers (0.5, 0.1, 0.5) and the (3,2) symbol
    weights come from the published parameter tuples; the remaining
    parameters are not replicated.
    """
    conj = frozenset(conj_symbols)
    return SelectionSchedule(
        [
            (1, ConjectureRelativeWeightFn(conj, 2.0, 1.0, 0.5, TIER_SOS)),
            (4, ConjectureRelativeWeightFn(conj, 2.0, 1.0, 0.1, TIER_CONST)),
            (1, FifoWeightFn()),
            (1, ConjectureRelativeWeightFn(conj, 2.0, 1.0, 0.5, TIER_NONGOALS)),
            (4, SymbolCountWeightFn(3.0, 2.0, TIER_SOS)),
        ]
    )


def auto200_schedule(conj_symbols: set[Symbol] | frozenset[Symbol] = frozenset()) -> SelectionSchedule:
    """Replica of the Auto200 sibling: weights (1,6,2,1,8)."""
    conj = frozenset(conj_symbols)
    return SelectionSchedule(
        [
            (1, ConjectureRelativeWeightFn(conj, 2.0, 1.0, 0.5, TIER_SOS)),
            (6, ConjectureRelativeWeightFn(conj, 2.0, 1.0, 0.1, TIER_CONST)),
            (2, FifoWeightFn()),
            (1, ConjectureRelativeWeightFn(conj, 2.0, 1.0, 0.5, TIER_NONGOALS)),
            (8, SymbolCountWeightFn(1.0, 1.0, TIER_SOS)),
        ]
    )


AUTO_ENTRY_WEIGHTS = (1, 4, 1, 1, 4)
AUTO200_ENTRY_WEIGHTS = (1, 6, 2, 1, 8)


# -- schedule spec strings -----------------------------------------------------

_ENTRY_RE = re.compile(r"^(\d+)\*([a-z0-9_]+)(?:\(([^)]*)\))?$")


def parse_schedule(
    spec: str,
    conj_symbols: set[Symbol] | frozenset[Symbol] = frozenset(),
    nn_factory=None,
) -> SelectionSchedule:
    """Build a schedule from a spec string like `1*fifo,4*symcount(2,1)`.

    Grammar: comma-separated `N*name` or `N*name(args)` entries with
      fifo                       age order
      symcount(fw,vw[,tier])     symbol-count weight
      conjrel(fw,vw,mult[,tier]) conjecture-relative weight
      nn                         neural score (needs nn_factory)
    tier is one of const|sos|nongoals. The shorthands `auto`, `auto208`
    and `auto200` name the stock hybrid replicas.
    """
    spec = spec.strip()
    if spec in ("auto", "auto208"):
        return auto_schedule(conj_symbols)
    if spec == "auto200":
        return auto200_schedule(conj_symbols)
    entries: list[tuple[int, WeightFunction]] = []
    for raw in _split_entries(spec):
        m = _ENTRY_RE.match(raw)
        if not m:
            raise ValueError(f"bad schedule entry {raw!r}")
        weight, name, argstr = int(m.group(1)), m.group(2), m.group(3)
        args = [a.strip() for a in argstr.split(",")] if argstr else []
        entries.append((weight, _make_fn(name, args, conj_symbols, nn_factory)))
    return SelectionSchedule(entries)


def _split_entries(spec: str) -> list[str]:
    """Split on top-level commas only (arguments carry their own commas)."""
    out, depth, cur = [], 0, []
    for ch in spec:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur).strip())
    return out


def _make_fn(name, args, conj_symbols, nn_factory) -> WeightFunction:
    if name == "fifo":
        return FifoWeightFn()
    if name == "symcount":
        fw = float(args[0]) if args else 2.0
        vw = float(args[1]) if len(args) > 1 else 1.0
        tier = args[2] if len(args) > 2 else TIER_CONST
        return SymbolCountWeightFn(fw, vw, tier)
    if name == "conjrel":
        fw = float(args[0]) if args else 2.0
        vw = float(args[1]) if len(args) > 1 else 1.0
        mult = float(args[2]) if len(args) > 2 else 0.5
        tier = args[3] if len(args) > 3 else TIER_CONST
        return ConjectureRelativeWeightFn(frozenset(conj_symbols), fw, vw, mult, tier)
    if name == "nn":
        if nn_factory is None:
            raise ValueError("nn entry requires a scorer (no model configured)")
        return nn_factory()
    raise ValueError(f"unknown weight function {name!r}")
