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

Symbols are drawn from shared pools so that token statistics carry across
problems (and across the conjecture-level train/eval split).

`desk_corpus` builds each distractor family once per call and shares its
immutable literals among the problems that draw it; nothing it builds
outlives the call, so every call does the same work. It makes no
reference cycles and runs under `saturation.collector_paused`, which
spares the cyclic collector walking the corpus as it grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class NamedProblem:
    name: str
    problem: Problem
    family: str
    tags: set[str] = field(default_factory=set)


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


def group_problems(idx: int, c1: str, c2: str) -> list[Problem]:
    """Left identity / left inverse consequences via equality axioms."""
    x = Var("X")
    mul, inv, e = f"mul{idx}", f"inv{idx}", f"id{idx}"
    base: list[tuple[str, list[Literal]]] = [
        (f"g{idx}_left_id", [pred("=", fn(mul, const(e), x), x)]),
        (f"g{idx}_left_inv", [pred("=", fn(mul, fn(inv, x), x), const(e))]),
    ]
    out = []
    goals = [
        ("id_applied", [pred("=", fn(mul, const(e), const(c1)), const(c1), positive=False)]),
        ("inv_applied", [pred("=", fn(mul, fn(inv, const(c2)), const(c2)), const(e), positive=False)]),
        ("id_flipped", [pred("=", const(c1), fn(mul, const(e), const(c1)), positive=False)]),
    ]
    for gname, lits in goals:
        out.append(
            build_problem(f"group{idx}_{gname}", list(base), [(f"group{idx}_{gname}_goal", lits)])
        )
    return out


def junk_distractors(families: list[int], rel: str,
                     chain_len: int = 2) -> list[tuple[str, list[Literal]]]:
    """Irrelevant premises that still flood the search.

    Per family m: a rule `rel(X,Y) | jk<m>_0(X)` that resolves with the
    negated conjecture into a light goal-descendant atom, a short chain of
    unary rules jk<m>_i -> jk<m>_{i+1}, and a ground fact on its own
    constants. Token-wise the jk* symbols never appear in proofs, so a
    trained scorer learns to shun them.
    """
    x, y = Var("X"), Var("Y")
    out: list[tuple[str, list[Literal]]] = []
    for m in families:
        out.append(
            (f"jk{m}_seed", [pred(rel, x, y), pred(f"jk{m}_0", x)])
        )
        for i in range(chain_len):
            out.append(
                (f"jk{m}_step{i}",
                 [pred(f"jk{m}_{i}", x, positive=False), pred(f"jk{m}_{i + 1}", x)])
            )
        out.append((f"jk{m}_fact", [pred(f"jk{m}_0", const(f"jc{m}"))]))
    return out


def plain_distractors(families: list[int], prefix: str = "dx") -> list[tuple[str, list[Literal]]]:
    """Self-contained distractor micro-theories on disjoint symbols."""
    x = Var("X")
    out: list[tuple[str, list[Literal]]] = []
    for m in families:
        out.append((f"{prefix}{m}_fact", [pred(f"{prefix}{m}_p", const(f"{prefix}c{m}"))]))
        out.append(
            (f"{prefix}{m}_rule",
             [pred(f"{prefix}{m}_p", x, positive=False), pred(f"{prefix}{m}_q", x)])
        )
    return out


# -- the bundled corpus ----------------------------------------------------------


RELATIONS = [f"rel{i}" for i in range(8)]
MEMBER_FAMS = [(f"member{i}", f"subset{i}") for i in range(4)]
CONST_POOL = [f"c{i}" for i in range(24)]


def _pick_consts(rng: np.random.Generator, n: int) -> list[str]:
    idx = rng.choice(len(CONST_POOL), size=n, replace=False)
    return [CONST_POOL[i] for i in sorted(idx)]


@collector_paused()
def desk_corpus(seed: int = 0) -> list[NamedProblem]:
    """The bundled corpus: ~190 problems across seven families."""
    rng = np.random.default_rng(seed)
    out: list[NamedProblem] = []
    built: dict[tuple, list[tuple[str, list[Literal]]]] = {}

    def add(problem: Problem, family: str, *tags: str):
        out.append(NamedProblem(problem.name, problem, family, set(tags)))

    def distractors(build, families, *args) -> list[tuple[str, list[Literal]]]:
        """`build(families, *args)`, building each family once per corpus."""
        axioms: list[tuple[str, list[Literal]]] = []
        for m in families:
            key = (build, m, *args)
            family = built.get(key)
            if family is None:
                family = built[key] = build([m], *args)
            axioms.extend(family)
        return axioms

    # chains, some clean and some with mild distraction
    for i in range(40):
        rel = RELATIONS[int(rng.integers(len(RELATIONS)))]
        length = int(rng.integers(3, 8))
        consts = _pick_consts(rng, length + 1)
        span = int(rng.integers(2, length + 1))
        n_dx = int(rng.integers(0, 7))
        dx = (distractors(plain_distractors, rng.choice(40, size=n_dx, replace=False))
              if n_dx else None)
        p = chain_problem(f"chain{i:03d}", rel, consts, span, dx)
        tags = ["train"]
        if length <= 3 and not n_dx:
            tags.append("small_oracle")
        add(p, "chain", *tags)

    # membership chains
    for i in range(24):
        member, subset = MEMBER_FAMS[int(rng.integers(len(MEMBER_FAMS)))]
        length = int(rng.integers(2, 6))
        sets = _pick_consts(rng, length + 1)
        elem = f"e{int(rng.integers(12))}"
        n_dx = int(rng.integers(0, 5))
        dx = (distractors(plain_distractors, rng.choice(40, size=n_dx, replace=False))
              if n_dx else None)
        p = membership_problem(f"member{i:03d}", member, subset, elem, sets, dx)
        tags = ["train"]
        if length <= 2 and not n_dx:
            tags.append("small_oracle")
        add(p, "membership", *tags)

    # pigeonhole
    for holes in (1, 2, 3):
        tags = ["train"] if holes < 3 else []
        if holes == 1:
            tags.append("small_oracle")
        add(pigeonhole_problem(holes), "pigeonhole", *tags)

    # equality exercises
    for i in range(4):
        c1, c2 = _pick_consts(rng, 2)
        for p in group_problems(i, c1, c2):
            add(p, "group", "train")

    # satisfiable chains (no transitivity)
    for i in range(15):
        rel = RELATIONS[int(rng.integers(len(RELATIONS)))]
        length = int(rng.integers(3, 6))
        consts = _pick_consts(rng, length + 1)
        p = chain_problem(f"sat{i:03d}", rel, consts, min(2, length), None,
                          transitive=False)
        tags = ["sat"]
        if length <= 4:
            tags.append("small_oracle")
        add(p, "satchain", *tags)

    # junk-flooded guidance problems (moderate flood: provable under the
    # trace budget, so they feed training with junk negatives)
    for i in range(30):
        rel = RELATIONS[int(rng.integers(len(RELATIONS)))]
        length = int(rng.integers(4, 7))
        consts = _pick_consts(rng, length + 1)
        n_junk = int(rng.integers(8, 20))
        junk = distractors(junk_distractors, rng.choice(48, size=n_junk, replace=False), rel)
        p = chain_problem(f"flood{i:03d}", rel, consts, length, junk)
        add(p, "flood", "train", "guidance")

    # heavy floods for the guidance comparison (hard for plain auto)
    for i in range(12):
        rel = RELATIONS[int(rng.integers(len(RELATIONS)))]
        length = int(rng.integers(5, 8))
        consts = _pick_consts(rng, length + 1)
        junk = distractors(junk_distractors, rng.choice(48, size=40, replace=False), rel, 3)
        p = chain_problem(f"hardflood{i:03d}", rel, consts, length, junk)
        add(p, "flood", "guidance_hard")

    # premise-selection problems: 10 relevant premises, 200 irrelevant
    for i in range(22):
        rel = RELATIONS[int(rng.integers(len(RELATIONS)))]
        consts = _pick_consts(rng, 9)  # 8 chain facts
        junk = distractors(junk_distractors, rng.choice(48, size=40, replace=False),
                           rel, 3)  # 40*5 = 200
        extra = [(f"premsel{i:03d}_spare",
                  [pred(rel, const(consts[0]), const(consts[1]))])]
        p = chain_problem(f"premsel{i:03d}", rel, consts, 8, junk + extra)
        add(p, "premsel", "premsel")

    # tiny function-free instances sized for the breadth-first oracle
    for i in range(24):
        rel = RELATIONS[int(rng.integers(len(RELATIONS)))]
        length = int(rng.integers(2, 4))
        consts = _pick_consts(rng, length + 1)
        provable = bool(rng.integers(2))
        p = chain_problem(f"mini{i:03d}", rel, consts, length, None,
                          transitive=provable)
        tags = ["small_oracle"] + (["train"] if provable else ["sat"])
        add(p, "mini", *tags)

    return out


def corpus_by_tag(corpus: list[NamedProblem], tag: str) -> list[NamedProblem]:
    return [np_ for np_ in corpus if tag in np_.tags]
