"""Generated desk-scale problem corpus.

Families (all seeded, fully deterministic):

* chain: ground transitive-closure goals over a shared relation pool,
  optionally padded with unrelated distractor facts and rules.
* membership: element/subset monotone chains, same shape as chain with a
  different symbol family.
* pigeonhole: ground PHP(n+1, n) instances, unsatisfiable.
* group: small equality exercises (left identity / left inverse) relying
  on the injected equality axioms.
* satchain: chains without transitivity, so the goal is not provable
  (saturates finite, function-free).
* flood: chain goals padded with "junk" premises that resolve against the
  negated conjecture into floods of light goal-descendant atoms. These
  drown the classical tiers while remaining recognizably useless at the
  token level, which is what a trained scorer can exploit.
* premsel: flood instances with a fixed count of relevant premises and a
  large count of irrelevant ones, for the premise-selection cascade.
* mini: tiny function-free chains, provable or not, sized for the
  breadth-first oracle.

Symbols are drawn from shared pools so that token statistics carry across
problems (and across the conjecture-level train/eval split).

`desk_corpus` draws every problem's parameters when it is called, in one
fixed order, and builds each problem on the first read of its `problem`,
from those drawn values alone: a caller that filters the corpus builds
only what it keeps, and a problem's bytes do not depend on which problems
were read or in what order. Problems are built from parts that each
call builds once, on the first read that needs them, and shares among
its problems as immutable literal tuples: a plain distractor family, a
junk family's relation-free tail (`junk_tail`, once per family and
length) and its one relation-bound rule (`junk_seed`, once per family
and relation). Nothing is kept between calls, so every call does the
same work for what it reads. A build makes no
reference cycles and runs under `saturation.collector_paused`, which
spares the cyclic collector walking the problem as it grows.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

import numpy as np

from .fol import (
    FUNCTION,
    PREDICATE,
    Literal,
    Problem,
    Symbol,
    Term,
    Var,
    build_problem,
)
from .saturation import collector_paused


def pred(name: str, *args: Term, positive: bool = True) -> Literal:
    return Literal(Symbol(name, PREDICATE, len(args)), args, positive)


def const(name: str) -> Term:
    return Term(Symbol(name, FUNCTION, 0))


def fn(name: str, *args: Term) -> Term:
    return Term(Symbol(name, FUNCTION, len(args)), args)


class NamedProblem:
    """One corpus problem. `name`, `family` and `tags` are plain fields;
    `problem` is built on its first read, under `collector_paused`, and
    kept, and its builder is dropped. A build that raises stores nothing."""

    __slots__ = ("name", "family", "tags", "_build", "_problem")

    def __init__(self, name: str, family: str, tags: set[str],
                 build: Callable[[], Problem]):
        self.name, self.family, self.tags = name, family, tags
        self._build: Callable[[], Problem] | None = build
        self._problem: Problem | None = None

    @property
    def problem(self) -> Problem:
        if self._problem is None:
            with collector_paused():
                self._problem = self._build()
            self._build = None
        return self._problem


# -- families ----------------------------------------------------------------------


def chain_problem(name: str, rel: str, consts: list[str], span: int,
                  distractors: list[tuple[str, list[Literal]]] | None = None,
                  transitive: bool = True) -> Problem:
    """Facts rel(c_i, c_{i+1}) plus transitivity; goal rel(c_0, c_span)."""
    x, y, z = Var("X"), Var("Y"), Var("Z")
    axioms: list[tuple[str, list[Literal]]] = []
    if distractors:
        axioms.extend(distractors)
    for i in range(len(consts) - 1):
        axioms.append(
            (f"{name}_fact{i}", [pred(rel, const(consts[i]), const(consts[i + 1]))])
        )
    if transitive:
        axioms.append(
            (f"{name}_trans",
             [pred(rel, x, y, positive=False), pred(rel, y, z, positive=False),
              pred(rel, x, z)])
        )
    goal = [pred(rel, const(consts[0]), const(consts[span]), positive=False)]
    return build_problem(name, axioms, [(f"{name}_goal", goal)])


def membership_problem(name: str, member: str, subset: str, elem: str,
                       sets: list[str], distractors=None) -> Problem:
    """member(e, s0), subset chain s0 < ... < sk, monotonicity; goal
    member(e, sk)."""
    e, x, y = Var("E"), Var("X"), Var("Y")
    axioms: list[tuple[str, list[Literal]]] = []
    if distractors:
        axioms.extend(distractors)
    axioms.append((f"{name}_elem", [pred(member, const(elem), const(sets[0]))]))
    for i in range(len(sets) - 1):
        axioms.append(
            (f"{name}_sub{i}", [pred(subset, const(sets[i]), const(sets[i + 1]))])
        )
    axioms.append(
        (f"{name}_mono",
         [pred(member, e, x, positive=False), pred(subset, x, y, positive=False),
          pred(member, e, y)])
    )
    goal = [pred(member, const(elem), const(sets[-1]), positive=False)]
    return build_problem(name, axioms, [(f"{name}_goal", goal)])


def pigeonhole_problem(holes: int) -> Problem:
    """holes+1 pigeons into `holes` holes; ground and unsatisfiable."""
    name = f"php_{holes + 1}_{holes}"
    axioms: list[tuple[str, list[Literal]]] = []
    for p in range(holes + 1):
        axioms.append(
            (f"{name}_pigeon{p}",
             [pred("in_hole", const(f"pg{p}"), const(f"hl{h}")) for h in range(holes)])
        )
    goals: list[tuple[str, list[Literal]]] = []
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                goals.append(
                    (f"{name}_cap_h{h}_p{p1}_{p2}",
                     [pred("in_hole", const(f"pg{p1}"), const(f"hl{h}"), positive=False),
                      pred("in_hole", const(f"pg{p2}"), const(f"hl{h}"), positive=False)])
                )
    # capacity clauses are part of the theory, not the goal; keep one
    # negated-conjecture clause so the SOS tier has a seed.
    nc = goals.pop()
    return build_problem(name, axioms + goals, [nc])


GROUP_GOALS = ("id_applied", "inv_applied", "id_flipped")


def group_problems(idx: int, c1: str, c2: str) -> list[Problem]:
    """Left identity / left inverse consequences via equality axioms, one
    problem per goal of `GROUP_GOALS`."""
    x = Var("X")
    mul, inv, e = f"mul{idx}", f"inv{idx}", f"id{idx}"
    base: list[tuple[str, list[Literal]]] = [
        (f"g{idx}_left_id", [pred("=", fn(mul, const(e), x), x)]),
        (f"g{idx}_left_inv", [pred("=", fn(mul, fn(inv, x), x), const(e))]),
    ]
    out = []
    goals = [
        [pred("=", fn(mul, const(e), const(c1)), const(c1), positive=False)],
        [pred("=", fn(mul, fn(inv, const(c2)), const(c2)), const(e), positive=False)],
        [pred("=", const(c1), fn(mul, const(e), const(c1)), positive=False)],
    ]
    for gname, lits in zip(GROUP_GOALS, goals):
        out.append(
            build_problem(f"group{idx}_{gname}", list(base), [(f"group{idx}_{gname}_goal", lits)])
        )
    return out


def junk_seed(m: int, rel: str) -> tuple[str, tuple[Literal, ...]]:
    """The one premise of junk family `m` that names the relation: the rule
    `rel(X,Y) | jk<m>_0(X)`."""
    x = Var("X")
    return f"jk{m}_seed", (pred(rel, x, Var("Y")), pred(f"jk{m}_0", x))


def junk_tail(m: int, chain_len: int) -> list[tuple[str, tuple[Literal, ...]]]:
    """The premises of junk family `m` that do not name the relation: the
    unary steps jk<m>_i -> jk<m>_{i+1}, then the ground fact."""
    x = Var("X")
    out = [(f"jk{m}_step{i}", (pred(f"jk{m}_{i}", x, positive=False), pred(f"jk{m}_{i + 1}", x)))
           for i in range(chain_len)]
    out.append((f"jk{m}_fact", (pred(f"jk{m}_0", const(f"jc{m}")),)))
    return out


def junk_distractors(families, rel: str,
                     chain_len: int = 2) -> list[tuple[str, tuple[Literal, ...]]]:
    """Irrelevant premises that still flood the search.

    Per family m: a rule `rel(X,Y) | jk<m>_0(X)` that resolves with the
    negated conjecture into a light goal-descendant atom, a short chain of
    unary rules jk<m>_i -> jk<m>_{i+1}, and a ground fact on its own
    constants. Token-wise the jk* symbols never appear in proofs, so a
    trained scorer learns to shun them.
    """
    out: list[tuple[str, tuple[Literal, ...]]] = []
    for m in families:
        out.append(junk_seed(m, rel))
        out.extend(junk_tail(m, chain_len))
    return out


def plain_distractors(families, prefix: str = "dx") -> list[tuple[str, tuple[Literal, ...]]]:
    """Self-contained distractor micro-theories on disjoint symbols."""
    x = Var("X")
    out: list[tuple[str, tuple[Literal, ...]]] = []
    for m in families:
        out.append((f"{prefix}{m}_fact", (pred(f"{prefix}{m}_p", const(f"{prefix}c{m}")),)))
        out.append(
            (f"{prefix}{m}_rule",
             (pred(f"{prefix}{m}_p", x, positive=False), pred(f"{prefix}{m}_q", x)))
        )
    return out


# -- the bundled corpus ----------------------------------------------------------


RELATIONS = [f"rel{i}" for i in range(8)]
MEMBER_FAMS = [(f"member{i}", f"subset{i}") for i in range(4)]
CONST_POOL = [f"c{i}" for i in range(24)]


def _pick_consts(rng: np.random.Generator, n: int) -> list[str]:
    idx = rng.choice(len(CONST_POOL), size=n, replace=False)
    return [CONST_POOL[i] for i in sorted(idx)]


def desk_corpus(seed: int = 0) -> list[NamedProblem]:
    """The bundled corpus: 182 problems in eight families. Every parameter
    is drawn here, in one fixed order; each problem is built on the first
    read of its `problem`, from its drawn values alone."""
    rng = np.random.default_rng(seed)
    out: list[NamedProblem] = []
    built: dict[tuple, object] = {}  # (builder, *args) -> the part it built

    def add(name: str, family: str, tags, build: Callable[..., Problem], *args):
        """Add problem `name`, built on first read as `build(*args)`."""
        out.append(NamedProblem(name, family, set(tags), partial(build, *args)))

    def part(build, *args):
        """`build(*args)`, built once per call, on the first read that
        needs it."""
        key = (build, *args)
        made = built.get(key)
        if made is None:
            made = built[key] = build(*args)
        return made

    def plain(families) -> list[tuple[str, tuple[Literal, ...]]]:
        """`plain_distractors(families)` from the call's parts."""
        return [ax for m in families for ax in part(plain_distractors, (m,))]

    def junk(families, rel: str, chain_len: int = 2) -> list[tuple[str, tuple[Literal, ...]]]:
        """`junk_distractors(families, rel, chain_len)` from the call's
        parts: each family's tail once per call, its seed once per
        relation."""
        axioms = []
        for m in families:
            axioms.append(part(junk_seed, m, rel))
            axioms.extend(part(junk_tail, m, chain_len))
        return axioms

    def padded(make: Callable[..., Problem], pad: tuple, *args) -> Problem:
        """`make(*args, distractors=...)`, padded with the distractors
        that `pad`, `(plain or junk, *its args)`, names."""
        return make(*args, distractors=pad[0](*pad[1:]))

    def premsel(name: str, rel: str, consts: list[str], families) -> Problem:
        """A chain padded with the junk `families` and a spare copy of
        its first fact."""
        spare = (f"{name}_spare", (pred(rel, const(consts[0]), const(consts[1])),))
        return chain_problem(name, rel, consts, 8, junk(families, rel, 3) + [spare])  # 40*5 = 200

    def group(three: list[Problem], k: int, idx: int, c1: str, c2: str) -> Problem:
        """Problem `k` of `group_problems(idx, c1, c2)`; the first read of
        any of the three builds all three into `three`."""
        if not three:
            three.extend(group_problems(idx, c1, c2))
        return three[k]

    # chains, some clean and some with mild distraction
    for i in range(40):
        rel = RELATIONS[int(rng.integers(len(RELATIONS)))]
        length = int(rng.integers(3, 8))
        consts = _pick_consts(rng, length + 1)
        span = int(rng.integers(2, length + 1))
        n_dx = int(rng.integers(0, 7))
        dx = rng.choice(40, size=n_dx, replace=False) if n_dx else ()
        tags = ["train"]
        if length <= 3 and not n_dx:
            tags.append("small_oracle")
        add(f"chain{i:03d}", "chain", tags, padded, chain_problem, (plain, dx),
            f"chain{i:03d}", rel, consts, span)

    # membership chains
    for i in range(24):
        member, subset = MEMBER_FAMS[int(rng.integers(len(MEMBER_FAMS)))]
        length = int(rng.integers(2, 6))
        sets = _pick_consts(rng, length + 1)
        elem = f"e{int(rng.integers(12))}"
        n_dx = int(rng.integers(0, 5))
        dx = rng.choice(40, size=n_dx, replace=False) if n_dx else ()
        tags = ["train"]
        if length <= 2 and not n_dx:
            tags.append("small_oracle")
        add(f"member{i:03d}", "membership", tags, padded, membership_problem,
            (plain, dx), f"member{i:03d}", member, subset, elem, sets)

    # pigeonhole
    for holes in (1, 2, 3):
        tags = ["train"] if holes < 3 else []
        if holes == 1:
            tags.append("small_oracle")
        add(f"php_{holes + 1}_{holes}", "pigeonhole", tags, pigeonhole_problem, holes)

    # equality exercises
    for i in range(4):
        c1, c2 = _pick_consts(rng, 2)
        three: list[Problem] = []
        for k, goal in enumerate(GROUP_GOALS):
            add(f"group{i}_{goal}", "group", ["train"], group, three, k, i, c1, c2)

    # satisfiable chains (no transitivity)
    for i in range(15):
        rel = RELATIONS[int(rng.integers(len(RELATIONS)))]
        length = int(rng.integers(3, 6))
        consts = _pick_consts(rng, length + 1)
        tags = ["sat"]
        if length <= 4:
            tags.append("small_oracle")
        add(f"sat{i:03d}", "satchain", tags, chain_problem, f"sat{i:03d}", rel, consts,
            min(2, length), None, False)

    # junk-flooded guidance problems (moderate flood: provable under the
    # trace budget, so they feed training with junk negatives)
    for i in range(30):
        rel = RELATIONS[int(rng.integers(len(RELATIONS)))]
        length = int(rng.integers(4, 7))
        consts = _pick_consts(rng, length + 1)
        n_junk = int(rng.integers(8, 20))
        junk_pad = (junk, rng.choice(48, size=n_junk, replace=False), rel)
        add(f"flood{i:03d}", "flood", ["train", "guidance"], padded, chain_problem, junk_pad,
            f"flood{i:03d}", rel, consts, length)

    # heavy floods for the guidance comparison (hard for plain auto)
    for i in range(12):
        rel = RELATIONS[int(rng.integers(len(RELATIONS)))]
        length = int(rng.integers(5, 8))
        consts = _pick_consts(rng, length + 1)
        junk_pad = (junk, rng.choice(48, size=40, replace=False), rel, 3)
        add(f"hardflood{i:03d}", "flood", ["guidance_hard"], padded, chain_problem, junk_pad,
            f"hardflood{i:03d}", rel, consts, length)

    # premise-selection problems: 10 relevant premises, 200 irrelevant
    for i in range(22):
        rel = RELATIONS[int(rng.integers(len(RELATIONS)))]
        consts = _pick_consts(rng, 9)  # 8 chain facts
        add(f"premsel{i:03d}", "premsel", ["premsel"], premsel, f"premsel{i:03d}", rel,
            consts, rng.choice(48, size=40, replace=False))

    # tiny function-free instances sized for the breadth-first oracle
    for i in range(24):
        rel = RELATIONS[int(rng.integers(len(RELATIONS)))]
        length = int(rng.integers(2, 4))
        consts = _pick_consts(rng, length + 1)
        provable = bool(rng.integers(2))
        tags = ["small_oracle"] + (["train"] if provable else ["sat"])
        add(f"mini{i:03d}", "mini", tags, chain_problem, f"mini{i:03d}", rel, consts, length,
            None, provable)

    return out

